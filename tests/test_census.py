import csv
import hashlib
import io
import json

import pytest

from unitals.census import (
    CensusRecord,
    CensusReport,
    bm_vs_hermitian_census,
    canonical_hermitian_unital,
    collineated_hermitian_unitals,
    general_unital_congruence,
    hermitian_pair_divisibility,
    intersect_size,
    kestenband_census,
    nonhermitian_pair_scan,
)
from unitals.finite_field import field_for_q
from unitals.proj_geom import PointSet, all_points_set
from unitals.varieties import HermitianForm, _canonical_variety, hermitian_variety, is_unital_embedded

from reference_oracles import hermitian_variety_by_evaluation


def test_intersect_size_dual_route():
    f = field_for_q(2)
    a = PointSet.of(2, f, [1, 3, 5, 9])
    b = PointSet.of(2, f, [3, 4, 9, 20])
    assert intersect_size(a, b) == 2
    assert intersect_size(a, all_points_set(2, f)) == 4
    assert intersect_size(a, PointSet.of(2, f, [0])) == 0


@pytest.mark.parametrize("other", ["mixed field", "mixed n"])
def test_intersect_size_refuses_different_ambient_spaces(other):
    """Indices of different spaces name different points; comparing them is an error."""
    A = canonical_hermitian_unital(field_for_q(3))
    B = canonical_hermitian_unital(field_for_q(4)) if other == "mixed field" else all_points_set(3, field_for_q(3))
    with pytest.raises(ValueError, match="^ambient spaces differ$"):
        intersect_size(A, B)
    with pytest.raises(ValueError, match="^ambient spaces differ$"):
        intersect_size(B, A)


def test_canonical_and_collineated_unitals():
    f = field_for_q(3)
    base = canonical_hermitian_unital(f)
    assert is_unital_embedded(base)
    copies = collineated_hermitian_unitals(f, 3, seed=11)
    assert len(copies) == 3
    for desc, U in copies:
        assert desc["kind"] == "hermitian_collineated"
        assert len(U) == len(base)
        assert is_unital_embedded(U)
    again = collineated_hermitian_unitals(f, 3, seed=11)
    assert [u.members for _, u in copies] == [u.members for _, u in again]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_canonical_unital_is_the_identity_form_variety(q):
    """canonical_hermitian_unital reads H(I) directly; it is the variety of the identity form."""
    f = field_for_q(q)
    assert canonical_hermitian_unital(f) == hermitian_variety(HermitianForm.identity(2, f))


@pytest.mark.parametrize("q", [2, 3])
def test_canonical_solid_variety_by_evaluation(q):
    f = field_for_q(q)
    assert _canonical_variety(3, f) == hermitian_variety_by_evaluation(HermitianForm.identity(3, f))


@pytest.mark.parametrize("q", [2, 3])
def test_kestenband_census_small(q):
    rep = kestenband_census(q, samples=25, seed=3)
    assert rep.ok and rep.first_violation() is None
    assert len(rep.records) == 25
    allowed = set(rep.summary["allowed_sizes"])
    assert allowed == {1, q + 1, q * q - q + 1, q * q + 1, q * q + q + 1, (q + 1) ** 2}
    for r in rep.records:
        assert r.size in allowed
        assert r.size % q == 1
        assert r.congruences == ((q, 1),)
    assert rep.summary["all_in_admissible_set"]
    assert rep.summary["all_congruent_1_mod_q"]
    with pytest.raises(ValueError):
        kestenband_census(7)


def test_kestenband_census_deterministic_and_threaded():
    a = kestenband_census(2, samples=10, seed=5)
    assert a.to_json() == kestenband_census(2, samples=10, seed=5).to_json()
    c = kestenband_census(2, samples=10, seed=6)
    assert a.to_json() != c.to_json()


def test_zero_record_census_does_not_pass():
    rep = kestenband_census(2, samples=0)
    assert rep.records == []
    assert rep.ok is False


# sha256 of to_json() and to_csv() at the default seed, frozen before the five
# census kinds moved onto one pipeline.  The JSON embeds the library version,
# so a version bump changes the JSON digests and nothing else should.
REPORT_DIGESTS = {
    "kestenband": (
        lambda: kestenband_census(2, samples=10),
        "939195fd35cd3886f0a75ba1e23339a04131748c74ad077f867d5c2a25be67c1",
        "495a933a70d49a6be74a4ffbfc5fff177692b72549816d7d58aa21847f2401ff",
    ),
    "bm_vs_hermitian": (
        lambda: bm_vs_hermitian_census(3, hermitian_samples=2),
        "68797eb4a55550271c9ff469770e364c545df2293ed4a8e26f6da69cd6732cda",
        "0a2b9495bafa4142b20a8fa560ded7fe6d8e52949d3b391f7ca35c4fdaadac29",
    ),
    "general": (
        lambda: general_unital_congruence(3, hermitian_samples=2),
        "234e445ae4e465397c0ac156485aaf8d15ff5f5ffd7a52cf4aa89a303b76ed80",
        "05587cd0ebc55507ed0ba98197388c8a96bd86d0b122c25b0faa6c895f72d6fd",
    ),
    "hermitian_pairs": (
        lambda: hermitian_pair_divisibility(2, 2, samples=10),
        "07e7f17d26ad8c2ab60cdd097b71d255916288c9cce72958a2a5508823ce12e0",
        "2d25fbd8b99d429f642c553865400aeb69241fced4e9d5d5d13f615b39d056ad",
    ),
    "nonhermitian_general": (
        lambda: nonhermitian_pair_scan(3, samples=10),
        "e1d0a5046b27e2b567160e2c7cf905cef2b58927b86b314e8fe118c38004add1",
        "6f211a35101d4b53e618600c0e88da1c3fa78715f41a70ddd27e19ec8dc609ab",
    ),
    "nonhermitian_standard": (
        lambda: nonhermitian_pair_scan(3, samples=10, general_position=False),
        "cb6f15324c48692e4600ea7e777dbeea0a0ecb5f93c91ff9bf2884329af24c0d",
        "8cb3905f53281f7aff3324b15da6b3a0e8d4c79bdcf767022f4b8d4cf20fd04a",
    ),
}


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_census_report_bytes_frozen(name):
    run, json_sha, csv_sha = REPORT_DIGESTS[name]
    rep = run()
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == json_sha
    assert hashlib.sha256(rep.to_csv().encode()).hexdigest() == csv_sha


def test_bm_vs_hermitian_census_q3():
    rep = bm_vs_hermitian_census(3, seed=2, hermitian_samples=2)
    assert rep.ok
    assert rep.summary["valid_params"] == 18
    assert rep.summary["hermitian_sets"] == 3
    assert rep.summary["pairs"] == 54
    assert set(rep.summary["residues_mod_q"]) == {"1"}
    for r in rep.records:
        assert r.size % 3 == 1
    with pytest.raises(ValueError):
        bm_vs_hermitian_census(2)


def test_general_unital_congruence_q3():
    rep = general_unital_congruence(3, seed=2, hermitian_samples=2)
    assert rep.ok
    assert rep.summary["theta"] == 1
    for r in rep.records:
        assert (r.size - 1) % 3 == 0
        assert r.extra["complement_section"] % 3 == 0
        assert r.extra["identity_ok"]


def test_general_unital_congruence_rejects_non_unital_sources():
    f = field_for_q(3)
    junk = [({"kind": "junk"}, PointSet.of(2, f, range(28)))]
    with pytest.raises(ValueError):
        general_unital_congruence(3, unitals=junk, hermitian_samples=1)


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3)])
def test_hermitian_pair_divisibility_plane(n, q):
    rep = hermitian_pair_divisibility(n, q, samples=30, seed=9)
    assert rep.ok
    assert rep.summary["modulus"] == q ** (n - 1)
    assert rep.summary["complement_reading_holds"]
    # at n = 2 every intersection size is 1 mod q, so the direct reading fails
    assert not rep.summary["direct_reading_holds"]
    for r in rep.records:
        assert r.extra["complement_size"] % (q ** (n - 1)) == 0
        assert r.extra["identity_ok"]


def test_hermitian_pair_divisibility_solid():
    rep = hermitian_pair_divisibility(3, 2, samples=8, seed=9)
    assert rep.ok
    assert rep.summary["complement_reading_holds"]
    for r in rep.records:
        assert r.size % 4 == 1  # observed sizes 21, 25, 29
    with pytest.raises(ValueError):
        hermitian_pair_divisibility(4, 2)


def test_nonhermitian_pair_scan_general_position():
    rep = nonhermitian_pair_scan(3, samples=40, seed=4)
    assert rep.ok  # scan only: nothing to violate
    assert rep.summary["general_position"]
    assert rep.config["general_position"]
    # in general position the mod-q residues spread out
    assert rep.summary["non_constant_mod_q"]
    for r in rep.records:
        assert "collineation" in r.right


def test_nonhermitian_pair_scan_standard_position_is_constant():
    rep = nonhermitian_pair_scan(3, samples=40, seed=4, general_position=False)
    assert rep.ok
    assert not rep.summary["general_position"]
    # shared point (0,0,1) plus aligned z-cosets force size = 1 mod q
    assert rep.summary["residues_mod_q"] == {"1": 40}
    assert not rep.summary["non_constant_mod_q"]
    for r in rep.records:
        assert "collineation" not in r.right


def test_report_serialization_round_trip():
    rep = kestenband_census(2, samples=5, seed=1)
    blob = rep.to_json()
    assert blob.endswith("\n")
    parsed = json.loads(blob)
    assert parsed["kind"] == "kestenband"
    assert parsed["config"]["q"] == 2
    assert len(parsed["records"]) == 5
    assert "elapsed" not in json.dumps(parsed)  # wall times never serialized
    # identical configs give byte-identical reports
    assert blob == kestenband_census(2, samples=5, seed=1).to_json()

    rows = list(csv.reader(io.StringIO(rep.to_csv())))
    assert rows[0] == ["left", "right", "size", "congruences", "ok"]
    assert len(rows) == 6
    assert json.loads(rows[1][0])["kind"] == "hermitian_form"


def test_census_record_violation_surfaces():
    rec = CensusRecord(left={}, right={}, size=4, congruences=((3, 1),), ok=False)
    rep = CensusReport(kind="k", config={}, records=[rec], summary={"ok": False})
    assert not rep.ok
    assert rep.first_violation() is rec
