import csv
import hashlib
import io
import itertools
import json
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from unitals import census
from unitals.census import (
    DEFAULT_SEED,
    HERMITIAN_SAMPLES,
    CensusRecord,
    CensusReport,
    _dump,
    _sweep,
    bm_vs_hermitian_census,
    canonical_hermitian_unital,
    collineated_hermitian_unitals,
    general_unital_congruence,
    hermitian_pair_divisibility,
    intersect_size,
    kestenband_census,
    nonhermitian_pair_scan,
)
from unitals.finite_field import field_for_q, frobenius
from unitals.proj_geom import PointSet, apply_collineation
from unitals.varieties import (
    BMParams,
    HermitianForm,
    _canonical_variety,
    all_valid_bm_params,
    bm_unital,
    hermitian_variety,
    is_unital_embedded,
)

from reference_oracles import hermitian_variety_by_evaluation


def test_intersect_size_dual_route():
    f = field_for_q(2)
    a = PointSet.of(2, f, [1, 3, 5, 9])
    b = PointSet.of(2, f, [3, 4, 9, 20])
    assert intersect_size(a, b) == 2
    assert intersect_size(a, PointSet(2, f, ()).complement()) == 4
    assert intersect_size(a, PointSet.of(2, f, [0])) == 0


@pytest.mark.parametrize("other", ["mixed field", "mixed n"])
def test_intersect_size_refuses_different_ambient_spaces(other):
    """Indices of different spaces name different points; comparing them is an error."""
    A = canonical_hermitian_unital(field_for_q(3))
    B = canonical_hermitian_unital(field_for_q(4)) if other == "mixed field" else PointSet(3, field_for_q(3), ()).complement()
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


def test_kestenband_census_is_deterministic_per_seed():
    a = kestenband_census(2, samples=10, seed=5)
    assert a.to_json() == kestenband_census(2, samples=10, seed=5).to_json()
    c = kestenband_census(2, samples=10, seed=6)
    assert a.to_json() != c.to_json()


def test_zero_record_census_does_not_pass():
    rep = kestenband_census(2, samples=0)
    assert rep.records == []
    assert rep.ok is False


# sha256 of to_json() and to_csv() at the default seed, frozen before the five
# census kinds moved onto one pipeline; the two sweeps are pinned at their
# default of 20 Hermitian images, frozen before that count became a constant.
# The JSON embeds the library version, so a version bump changes the JSON
# digests and nothing else should.
REPORT_DIGESTS = {
    "kestenband": (
        lambda: kestenband_census(2, samples=10),
        "939195fd35cd3886f0a75ba1e23339a04131748c74ad077f867d5c2a25be67c1",
        "495a933a70d49a6be74a4ffbfc5fff177692b72549816d7d58aa21847f2401ff",
    ),
    "bm_vs_hermitian": (
        lambda: bm_vs_hermitian_census(3),
        "38701bd636a8f73dec6deab7e13bd7e0269475ce1c0eb7ccf7533f62174b2c39",
        "66ae66ec5f3caf479230d1bea0d120cd857a75eb7ad40f6aee9eef897687e6f0",
    ),
    "general": (
        lambda: general_unital_congruence(3),
        "814e28862570dabd5635d121596c6e3443bdd8a23c96b4e0c6088c7db916b349",
        "a2144ae11b2b3a2167192db75c14eb85ae3ef098594bfe4fb85501a21d222856",
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
    # the q = 5 plane and the n = 3 space, frozen while a determinant still
    # judged each sampled form; their summaries count 1 and 17 singular draws
    "kestenband_q5": (
        lambda: kestenband_census(5, samples=10),
        "69060c23cfc7f1811509abfb8503eb26aa3f3026be7ef4e26525a28fda460367",
        "8fb79e121171469b34fd418f030af55093d05da34e1af7d6a2a36d1bd9fee3c4",
    ),
    "hermitian_pairs_n3": (
        lambda: hermitian_pair_divisibility(3, 2, samples=10),
        "55b616a3110fce3710c7e616d7316b09ea4826eff53ed2f0c9a61ed1b0492d3a",
        "a4429a83ac46b617e41b131fc2c4823f141ec8a613e8fb9dbbdceda97b8fe301",
    ),
    # collineation images end to end at p = 7, at p = 2 with six digits and at p = 3 with
    # four, frozen while each image was still mapped point by point
    "nonhermitian_q7": (
        lambda: nonhermitian_pair_scan(7, samples=20),
        "10f56ecba7ac3c650fece2d7f59e6d9bf5d46f27b6421cb884989ca4e99289d2",
        "3f7de511f4ff4d9b838c820628984dc98d24493626cd66c1c2633374dec9a413",
    ),
    "nonhermitian_q8": (
        lambda: nonhermitian_pair_scan(8, samples=20),
        "a8939cc8b82b90538914129f95bf6698042643388d166582c1ea5c7dcb9ad0ec",
        "3abfd7ea875dfa8a2e361be856a85dcb4ef3d15ce7b441928c6f14816f390570",
    ),
    "nonhermitian_q9": (
        lambda: nonhermitian_pair_scan(9, samples=20),
        "facf02fe283bd4ac07039009fdb38daf0a8b6deb9804de16d15474115e24ec7f",
        "9a38569d7a17230d812c81be40b8904a88d84f5af69c6cc7bde3f96e9d29224f",
    ),
}


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_census_report_bytes_frozen(name):
    run, json_sha, csv_sha = REPORT_DIGESTS[name]
    rep = run()
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == json_sha
    assert hashlib.sha256(rep.to_csv().encode()).hexdigest() == csv_sha


def _reference_json(rep):
    return json.dumps(rep.to_json_dict(), sort_keys=True, indent=2) + "\n"


def _reference_csv(rep):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["left", "right", "size", "congruences", "ok"])
    for r in rep.records:
        left, right = (json.dumps(d, sort_keys=True) for d in (r.left, r.right))
        w.writerow([left, right, r.size, json.dumps([list(c) for c in r.congruences]), int(r.ok)])
    return buf.getvalue()


def _hand_built_report():
    """Records that stress the fragment serialiser: every case json.dumps handles that a census could feed it."""
    shared = {"kind": "bm", "a": 1, "b": 2, "note": 'quote " backslash \\ non-ASCII \u00e9 \U0001d53d'}
    other = {"kind": "x", "matrix": [[1, 2], []], "empty": {}, "none": None}
    records = [
        CensusRecord(shared, shared, 7, ((3, 1), (9, 7)), True),
        CensusRecord(shared, other, 1, ((3, True),), False, {"v": True, "w": None, "nested": [1, [2, {"z": 0, "a": [True, None]}]]}),
        CensusRecord(other, shared, 0, (), True, {"v": 1, "w": None, "nested": {"b": [], "a": {}}, "empty": []}),
        CensusRecord(shared, shared, 1, ((3, 1),), 1, {2: "int keys", 1: "sort before json turns them into strings"}),
        CensusRecord(shared, {}, -1, ((True, False),), True, {"s": 'quote " \u00e9'}),
    ]
    return CensusReport("hand", {"q": 3, "flag": True, "none": None, "text": "\u00e9"}, records, {"ok": False, "h": {"1": 2}})


# every census kind at small q, a zero-record report and a hand-built one
SERIALISER_CASES = {
    "kestenband": lambda: kestenband_census(2, samples=6, seed=1),
    "bm_vs_hermitian": lambda: bm_vs_hermitian_census(3),
    "general": lambda: general_unital_congruence(4),
    "hermitian_pairs plane": lambda: hermitian_pair_divisibility(2, 3, samples=6),
    "hermitian_pairs solid": lambda: hermitian_pair_divisibility(3, 2, samples=4),
    "nonhermitian": lambda: nonhermitian_pair_scan(4, samples=6),
    "no records": lambda: kestenband_census(2, samples=0),
    "hand-built": _hand_built_report,
}


@pytest.mark.parametrize("case", sorted(SERIALISER_CASES))
def test_report_serialisers_match_json_dumps(case):
    """to_json and to_csv build their text from cached fragments; plain json.dumps per record is the reference."""
    rep = SERIALISER_CASES[case]()
    assert rep.to_json() == _reference_json(rep)
    assert rep.to_csv() == _reference_csv(rep)


_json_scalars = (
    st.none()
    | st.sampled_from([True, False, 0, 1, -1])  # True == 1 and False == 0, yet they render apart
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.text()  # any code point: non-ASCII, control characters, quotes and backslashes
    | st.floats(allow_nan=False)  # json.dumps's own route
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    | st.dictionaries(st.integers(-5, 12), inner, max_size=4),  # int keys sort as ints, then turn into strings
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(value=_json_values, depth=st.integers(0, 4))
def test_dump_matches_json_dumps_nested(value, depth):
    """_dump(v, d) is json.dumps(v, sort_keys=True, indent=2) as it reads nested d levels deep."""
    assert _dump(value, depth) == json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + "  " * depth)


def test_serialiser_tells_true_from_one_and_rerenders_each_call():
    """True == 1 and hash alike, yet render apart; a descriptor changed between calls is rendered afresh."""
    rep = _hand_built_report()
    text = rep.to_json()
    assert '"v": true' in text and '"v": 1' in text
    assert json.loads(text)["records"][1]["congruences"] == [[3, True]]
    rep.records[0].left["a"] = 5  # one object, the descriptor of seven sides
    assert rep.to_json() == _reference_json(rep) != text
    assert rep.to_csv() == _reference_csv(rep)


@pytest.mark.parametrize("q,distinct", [(3, 6), (4, 18), (5, 40)])
def test_sweep_shares_one_set_per_bm_class(q, distinct):
    """One PointSet per (a, b^q - b) class, each equal to U_{a,b} built on its own, with the params in sweep order."""
    f = field_for_q(q)
    params = all_valid_bm_params(f)
    unitals, _ = _sweep(f, DEFAULT_SEED)
    assert [(d["a"], d["b"]) for d, _ in unitals] == [(pr.a.enc, pr.b.enc) for pr in params]
    assert len({id(U) for _, U in unitals}) == distinct
    for (_, U), pr in zip(unitals, params):
        assert U == bm_unital(pr)


def _count_calls(monkeypatch) -> Counter:
    """Count census.intersect_size calls and calls of the judge each census hands _run."""
    calls = Counter()
    size, run = census.intersect_size, census._run

    def counted_size(A, B):
        calls["intersect"] += 1
        return size(A, B)

    def counted_run(kind, config, pairs, judge, summarise):
        def counted_judge(*args):
            calls["judge"] += 1
            return judge(*args)

        return run(kind, config, pairs, counted_judge, summarise)

    monkeypatch.setattr(census, "intersect_size", counted_size)
    monkeypatch.setattr(census, "_run", counted_run)
    return calls


@pytest.mark.parametrize("sweep", [general_unital_congruence, bm_vs_hermitian_census])
def test_sweep_intersects_and_judges_each_distinct_pair_once(monkeypatch, sweep):
    """q = 3: 378 records from 6 distinct B-M sets x 21 Hermitian sets = 126 pairs, each with its own extra."""
    calls = _count_calls(monkeypatch)
    rep = sweep(3)
    assert len(rep.records) == 378
    assert calls == {"intersect": 126, "judge": 126}
    assert rep.distinct_pairs == 126
    assert len({id(r.extra) for r in rep.records}) == 378
    first = rep.records[0]
    twin = next(r for r in rep.records[1:] if r.right is first.right and r.extra == first.extra)
    first.extra["mutated"] = True
    assert "mutated" not in twin.extra


def test_sampled_census_gets_no_memo_hits(monkeypatch):
    calls = _count_calls(monkeypatch)
    rep = kestenband_census(2, samples=10, seed=1)
    assert calls == {"intersect": 10, "judge": 10}
    assert rep.distinct_pairs == len(rep.records) == 10


@pytest.mark.parametrize("one_key", [False, True])
def test_run_memo_neither_goes_stale_nor_pins_a_set(monkeypatch, one_key):
    """Each pair is fresh sets, dropped once drawn; no size may come from a dead pair, and no set outlives its record.

    A freed set's id can be reused by a later set.  Whether the allocator does
    that for both sides of a pair is up to it, so the second case maps every id
    to one key: each lookup then finds the previous pair's entry, and only the
    check that its references resolve to this pair keeps the size right.
    """
    if one_key:
        monkeypatch.setattr(census, "id", lambda obj: 0, raising=False)
    f = field_for_q(2)  # PG(2, 4): 21 points
    rng = random.Random(7)
    refs, expected, pinned = [], [], []

    def pairs():
        for i in range(50):
            pinned.append(sum(ref() is not None for ref in refs[:-2]))  # _run still holds the last pair
            L = PointSet.of(2, f, rng.sample(range(21), rng.randrange(1, 22)))
            R = PointSet.of(2, f, rng.sample(range(21), rng.randrange(1, 22)))
            refs.extend((weakref.ref(L), weakref.ref(R)))
            expected.append(len(set(L.members) & set(R.members)))
            yield {"i": i}, L, {"i": i}, R
            del L, R

    rep = census._run("hand-made", {}, pairs(), lambda L, R, size: ((), True, {}), lambda records: {})
    assert [r.size for r in rep.records] == expected
    assert len(set(expected)) > 5
    assert rep.distinct_pairs == 50
    assert pinned == [0] * 50
    assert [ref for ref in refs if ref() is not None] == []


def test_run_memo_keys_on_the_sets_not_the_objects(monkeypatch):
    """Fresh PointSet objects with equal members are one pair; one point off is a second; each record owns its extra."""
    calls = _count_calls(monkeypatch)
    f = field_for_q(2)  # PG(2, 4): 21 points

    def pairs():
        for i in range(3):
            yield {"i": i}, PointSet(2, f, (0, 3, 5, 8)), {"i": i}, PointSet(2, f, (1, 3, 5))
        yield {"i": 3}, PointSet(2, f, (0, 3, 5, 8)), {"i": 3}, PointSet(2, f, (1, 3, 6))

    rep = census._run("hand-made", {}, pairs(), lambda L, R, size: ((), True, {"size": size}), lambda records: {})
    assert [r.size for r in rep.records] == [2, 2, 2, 1]
    assert calls == {"intersect": 2, "judge": 2}
    assert rep.distinct_pairs == 2
    assert [r.extra for r in rep.records] == [{"size": 2}] * 3 + [{"size": 1}]
    assert len({id(r.extra) for r in rep.records}) == 4
    rep.records[0].extra["mutated"] = True
    assert all("mutated" not in r.extra for r in rep.records[1:])


@pytest.mark.slow
def test_general_unital_congruence_q9():
    """q = 9: 2,592 valid (a, b) in 288 classes against 21 Hermitian sets; the paper's modulus is p^ceil(t/2) = 3."""
    rep = general_unital_congruence(9)
    assert rep.ok
    assert len(rep.records) == 54432
    assert rep.summary["min_nu_p_size_minus_1"] == 2


def test_bm_vs_hermitian_census_q3():
    rep = bm_vs_hermitian_census(3, seed=2)
    assert rep.ok
    assert rep.config["hermitian_samples"] == HERMITIAN_SAMPLES == 20
    assert rep.summary["valid_params"] == 18
    assert rep.summary["hermitian_sets"] == 21
    assert rep.summary["pairs"] == 378
    assert set(rep.summary["residues_mod_q"]) == {"1"}
    for r in rep.records:
        assert r.size % 3 == 1
    with pytest.raises(ValueError):
        bm_vs_hermitian_census(2)


def test_general_unital_congruence_q3():
    rep = general_unital_congruence(3, seed=2)
    assert rep.ok
    assert rep.summary["theta"] == 1
    assert (rep.summary["unitals"], rep.summary["hermitian_sets"], rep.summary["pairs"]) == (18, 21, 378)
    for r in rep.records:
        assert (r.size - 1) % 3 == 0
        assert r.extra["complement_section"] % 3 == 0
        assert r.extra["identity_ok"]


def test_general_complement_section_matches_the_complement_point_set():
    """The judge reads |comp(U) and H| off the masks; intersecting the built complement is its reference.

    Both sides are rebuilt from the record's descriptors, not taken from the census.
    """
    f = field_for_q(3)
    base = canonical_hermitian_unital(f)
    rep = general_unital_congruence(3)
    assert len(rep.records) == 378
    for r in rep.records:
        U = bm_unital(BMParams(f.elem(r.left["a"]), f.elem(r.left["b"])))
        g = r.right.get("collineation")
        H = base if g is None else apply_collineation([[f.elem(x) for x in row] for row in g], base)
        assert r.extra["complement_section"] == intersect_size(U.complement(), H)


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


@pytest.mark.parametrize("q,self_pairs", [(3, 34), (4, 15), (5, 5)])
def test_nonhermitian_scan_pairs_some_unitals_with_their_own_image(q, self_pairs):
    """The scan draws two distinct parameters (a, b), which need not give two distinct sets.

    U_{a,b} depends on b only through b^q - b, so a pair whose parameters share a
    and b^q - b is one unital U against its image g.U.
    """
    f = field_for_q(q)

    def bm_class(desc):
        b = f.elem(desc["b"])
        return desc["a"], frobenius(b, f.t) - b

    records = nonhermitian_pair_scan(q).records
    assert all((r.left["a"], r.left["b"]) != (r.right["a"], r.right["b"]) for r in records)
    assert sum(bm_class(r.left) == bm_class(r.right) for r in records) == self_pairs


@pytest.mark.parametrize("q,pairs,proper_pairs", [(3, 153, 66), (4, 2556, 1770), (5, 19900, 16110)])
def test_bm_unitals_in_the_standard_chart_meet_in_1_mod_q(q, pairs, proper_pairs):
    """Why nonhermitian_pair_scan always maps its second unital by a collineation.

    Left in the standard chart, two B-M unitals share (0,0,1) and their affine
    parts meet in whole z-cosets over GF(q), so every size is 1 mod q.  Checked
    here for every pair of distinct valid (a, b), the a != 0 pairs the scan
    draws from among them.
    """
    sets = {pr: bm_unital(pr) for pr in all_valid_bm_params(field_for_q(q))}
    checked = proper = 0
    for p1, p2 in itertools.combinations(sets, 2):
        assert intersect_size(sets[p1], sets[p2]) % q == 1
        checked += 1
        proper += bool(p1.a and p2.a)
    assert (checked, proper) == (pairs, proper_pairs)


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
