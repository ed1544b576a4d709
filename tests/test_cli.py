import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import unitals
from unitals.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_field_info(capsys):
    code, out, _ = run(capsys, "field-info", "--q", "3")
    assert code == 0
    info = json.loads(out)
    assert info["p"] == 3 and info["t"] == 1 and info["q"] == 3
    assert info["size"] == 9
    assert info["modulus"] == [1, 0, 1]


# the bytes `field-info --p 2 --t 2` printed while fields could also be named by p and t
FIELD_INFO_Q4 = """{
  "generator": 2,
  "modulus": [
    1,
    0,
    0,
    1,
    1
  ],
  "p": 2,
  "q": 4,
  "size": 16,
  "subfield": [
    0,
    1,
    10,
    11
  ],
  "t": 2
}
"""


def test_field_info_q4_bytes(capsys):
    assert run(capsys, "field-info", "--q", "4") == (0, FIELD_INFO_Q4, "")


# each subcommand that names a field, with its other required flags
FIELD_COMMANDS = {
    "field-info": [],
    "enum": ["--what", "points"],
    "make-unital": ["--kind", "hermitian"],
    "invariants": ["--r", "2"],
    "census": ["--kind", "kestenband"],
    "charfn-check": [],
}


@pytest.mark.parametrize("flag", ["--p", "--t"])
@pytest.mark.parametrize("command", sorted(FIELD_COMMANDS))
def test_field_commands_refuse_p_and_t(capsys, command, flag):
    """Fields are named by --q alone."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--q", "4", *FIELD_COMMANDS[command], flag, "2"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(FIELD_COMMANDS))
def test_field_commands_need_q(capsys, command):
    assert run(capsys, command, *FIELD_COMMANDS[command]) == (2, "", "error: need --q\n")


def test_enum_points_and_lines(capsys):
    code, out, _ = run(capsys, "enum", "--q", "2", "--what", "points")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 21
    assert data["items"][0] == [0, 0, 1]
    code, out, _ = run(capsys, "enum", "--q", "2", "--what", "lines")
    assert json.loads(out)["count"] == 21
    code, out, _ = run(capsys, "enum", "--q", "2", "--what", "monomials")
    assert json.loads(out)["count"] == 21
    code, _, err = run(capsys, "enum", "--q", "2", "--what", "subspaces")
    assert code == 2 and "--r" in err
    code, out, _ = run(
        capsys, "enum", "--q", "2", "--n", "3", "--what", "subspaces", "--r", "2"
    )
    assert json.loads(out)["count"] == 357


def test_enum_points_as_subspaces_bytes(capsys):
    """--r 1 lists each point of PG(2, 4) as a one-entry list, in RREF order (pinned before the
    tables came out ascending on shared index objects)."""
    code, out, _ = run(capsys, "enum", "--q", "2", "--what", "subspaces", "--r", "1")
    assert code == 0
    assert out == (
        '{"count": 21, "items": [[5], [6], [7], [8], [9], [10], [11], [12], [13], [14], [15], [16], [17], '
        '[18], [19], [20], [1], [2], [3], [4], [0]]}\n'
    )


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--what", "monomials", "--n", "-1"], "n = -1 must be >= 1"),
        (["--what", "monomials", "--n", "0"], "n = 0 must be >= 1"),
        (["--what", "points", "--n", "0"], "n = 0 must be >= 1"),
        (["--what", "lines", "--n", "1"], "--what lines needs --n >= 2, not 1"),
        (["--what", "lines", "--n", "0"], "--what lines needs --n >= 2, not 0"),
        (["--what", "subspaces", "--n", "2", "--r", "0"], "r = 0 must lie in [1, 2]"),
        (["--what", "subspaces", "--n", "2", "--r", "3"], "r = 3 must lie in [1, 2]"),
    ],
)
def test_enum_bad_n(capsys, flags, message):
    """Every kind of enum refuses a dimension it cannot enumerate, on one error line."""
    assert run(capsys, "enum", "--q", "2", *flags) == (2, "", f"error: {message}\n")


def test_make_and_verify_unital(tmp_path, capsys):
    path = tmp_path / "u.json"
    # b = 3 encodes X, which lies outside GF(3), so (0, 3) is a valid pair
    code, _, _ = run(
        capsys, "make-unital", "--q", "3", "--kind", "bm", "--a", "0", "--b", "3",
        "--out", str(path),
    )
    assert code == 0
    blob = json.loads(path.read_text())
    assert len(blob["members"]) == 28
    code, out, _ = run(capsys, "verify-unital", "--in", str(path))
    assert code == 0
    diag = json.loads(out)
    assert diag["is_unital"] and diag["size"] == 28
    assert diag["blocks"] == 63
    assert diag["complement_property_I"]
    assert diag["hermitian"]


# (make-unital flags, whether a Hermitian form fits); (4, 0) is a valid a != 0 pair at q = 3
VERIFY_HERMITIAN = {
    "H(I) at q=3": (["--kind", "hermitian"], True),
    "B-M a=4 b=0 at q=3": (["--kind", "bm", "--a", "4", "--b", "0"], False),
}


@pytest.mark.parametrize("case", sorted(VERIFY_HERMITIAN))
def test_verify_unital_reports_hermitian(tmp_path, capsys, case):
    flags, hermitian = VERIFY_HERMITIAN[case]
    path = tmp_path / "u.json"
    assert main(["make-unital", "--q", "3", *flags, "--out", str(path)]) == 0
    code, out, _ = run(capsys, "verify-unital", "--in", str(path))
    diag = json.loads(out)
    assert code == 0 and diag["is_unital"]
    assert diag["hermitian"] is hermitian
    assert sorted(diag) == [
        "blocks", "complement_property_I", "hermitian", "is_unital", "line_profile",
        "secant_lines", "size", "tangent_lines",
    ]


def test_make_unital_hermitian_seeded(tmp_path, capsys):
    p1 = tmp_path / "h1.json"
    p2 = tmp_path / "h2.json"
    code, _, _ = run(
        capsys, "make-unital", "--q", "3", "--kind", "hermitian", "--seed", "7",
        "--out", str(p1),
    )
    assert code == 0
    code, _, _ = run(
        capsys, "make-unital", "--q", "3", "--kind", "hermitian", "--seed", "7",
        "--out", str(p2),
    )
    assert code == 0
    assert p1.read_text() == p2.read_text()


def test_make_unital_invalid_params(capsys):
    # a = 0 with b inside GF(q) is invalid
    code, _, err = run(capsys, "make-unital", "--q", "3", "--kind", "bm", "--a", "0", "--b", "1")
    assert code == 2 and "not a valid parameter pair" in err
    code, _, err = run(capsys, "make-unital", "--q", "2", "--kind", "bm", "--a", "0", "--b", "2")
    assert code == 2
    code, _, err = run(capsys, "make-unital", "--q", "3", "--kind", "bm", "--a", "99", "--b", "0")
    assert code == 2
    code, _, err = run(capsys, "make-unital", "--q", "3", "--kind", "bm")
    assert code == 2


def test_verify_unital_rejects_non_unital(tmp_path, capsys):
    from unitals.finite_field import field_for_q
    from unitals.proj_geom import PointSet

    path = tmp_path / "bad.json"
    S = PointSet.of(2, field_for_q(2), range(9))
    path.write_text(json.dumps(S.to_json_dict()))
    code, out, err = run(capsys, "verify-unital", "--in", str(path))
    assert code == 1
    assert not json.loads(out)["is_unital"]
    assert "hermitian" not in json.loads(out)
    assert "not a unital" in err
    code, _, err = run(capsys, "verify-unital", "--in", str(tmp_path / "missing.json"))
    assert code == 2


MALFORMED_POINT_SETS = {
    "missing p": json.dumps({"n": 2, "t": 1, "members": [0]}),
    "json list": "[1, 2]",
    "non-integer member": json.dumps({"n": 2, "p": 2, "t": 1, "members": [0, "x"]}),
    "out-of-range member": json.dumps({"n": 2, "p": 2, "t": 1, "members": [0, 999]}),
    "not json": "not json",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_POINT_SETS))
def test_verify_unital_malformed_input(tmp_path, capsys, case):
    path = tmp_path / "in.json"
    path.write_text(MALFORMED_POINT_SETS[case])
    code, out, err = run(capsys, "verify-unital", "--in", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# members of a point set of PG(2, 4), which has 21 points, and the one error line they give
BAD_MEMBERS = {
    "past the last point": ([0, 99], "member 99 is not a point index of PG(2, 4) (0..20)"),
    "negative": ([-3, 0], "member -3 is not a point index of PG(2, 4) (0..20)"),
    "descending": ([4, 3], "members must be strictly increasing indices"),
    "repeated": ([4, 4], "members must be strictly increasing indices"),
    "not a list": (5, "point set members must be a JSON list, not int"),
}


@pytest.mark.parametrize("case", sorted(BAD_MEMBERS))
def test_verify_unital_names_the_bad_member(tmp_path, capsys, case):
    """An index outside the plane is named with the valid range; order faults keep their own message."""
    members, message = BAD_MEMBERS[case]
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"n": 2, "p": 2, "t": 1, "members": members}))
    assert run(capsys, "verify-unital", "--in", str(path)) == (2, "", f"error: {message}\n")


# a field modulus that names no GF(q^2), p = 3 and t = 1: little-endian coefficients, the leading one last
BAD_MODULI = {"degree 3": [2, 1, 0, 1], "degree 1": [1, 1], "not monic": [1, 0, 2], "leading 3 = 0 mod 3": [1, 0, 3]}


@pytest.mark.parametrize("case", sorted(BAD_MODULI))
def test_verify_unital_refuses_a_bad_modulus(tmp_path, capsys, case):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"n": 2, "p": 3, "t": 1, "modulus": BAD_MODULI[case], "members": [0]}))
    assert run(capsys, "verify-unital", "--in", str(path)) == (2, "", "error: modulus must be monic of degree 2t\n")


HUGE_P = 1000000000000000003  # a prime; trial division up to its root never ends
HUGE_INPUTS = {
    "verify-unital huge p": ["verify-unital", "--in", "{huge_json}"],
    "field-info huge q": ["field-info", "--q", "1000000007"],
    "enum huge n": ["enum", "--q", "2", "--n", "1000000000", "--what", "points"],
    "enum monomials huge n": ["enum", "--q", "2", "--n", "1000000000", "--what", "monomials"],
    "invariants huge n": ["invariants", "--q", "2", "--n", "1000000000", "--r", "2"],
    # PG(9, 4) has 349,525 points, within MAX_POINTS, but 6.1e9 lines
    "enum lines of PG(9, 4)": ["enum", "--q", "2", "--n", "9", "--what", "lines"],
    "enum 5-dim subspaces of PG(9, 4)": ["enum", "--q", "2", "--n", "9", "--what", "subspaces", "--r", "5"],
    "invariants snf of PG(9, 4)": ["invariants", "--q", "2", "--n", "9", "--r", "2", "--verify-snf"],
    "charfn-check huge ell q=2": ["charfn-check", "--q", "2", "--ell", "5000"],
    "charfn-check huge ell q=9": ["charfn-check", "--q", "9", "--ell", "100"],
}


@pytest.mark.parametrize("case", sorted(HUGE_INPUTS))
def test_huge_inputs_exit_2_at_once(tmp_path, case):
    """Size bounds are checked before any trial division or enumeration."""
    huge_json = tmp_path / "huge.json"
    huge_json.write_text(json.dumps({"n": 2, "p": HUGE_P, "t": 1, "members": [0]}))
    argv = [a.format(huge_json=huge_json) for a in HUGE_INPUTS[case]]
    src = str(Path(unitals.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "unitals.cli", *argv],
        capture_output=True, text=True, timeout=5, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def _break_mask(monkeypatch):
    from unitals.proj_geom import PointSet

    monkeypatch.setattr(PointSet, "mask", property(lambda self: 0))


def _drop_line(monkeypatch):
    from unitals import varieties

    lines = varieties._lines_through
    monkeypatch.setattr(varieties, "_lines_through", lambda field, i: lines(field, i)[:-1])


def _repeat_line(monkeypatch):
    from unitals import varieties

    through = varieties._lines_through

    # point 5, the first member of H(I) at q = 3, is handed its first line twice: that section overflows
    def repeated(field, i):
        lines = through(field, i)
        return lines + lines[:1] if i == 5 else lines

    monkeypatch.setattr(varieties, "_lines_through", repeated)


def _stall_hensel(monkeypatch):
    from unitals.galois_ring import GaloisRingElem

    monkeypatch.setattr(GaloisRingElem, "__eq__", lambda self, other: False)


def _skew_lift(monkeypatch):
    from unitals import cli

    build = cli.make_ring

    # the ring's own lifts come out as (1 + p) T(x): still x mod p, but no longer of order dividing Q - 1
    def skewed(field, k):
        ring = build(field, k)
        lift = ring.teichmuller
        ring.teichmuller = lambda x: lift(x) * ring.elem((1 + ring.p,))
        return ring

    monkeypatch.setattr(cli, "make_ring", skewed)


def _drop_bm_point(monkeypatch):
    from unitals import census
    from unitals.proj_geom import PointSet

    build = census.bm_unital
    monkeypatch.setattr(census, "bm_unital", lambda pr: PointSet(2, pr.field, build(pr).members[1:]))


def _corrupt_value_row(monkeypatch):
    from unitals import varieties

    build = varieties._value_rows

    # one more in lane 0 (the point (0, 0, 1)) of the first row, the digit form X^0 N(x_0)
    def corrupt(n, field):
        lane, mod, zero, rows = build(n, field)
        i, j, pd, packed = rows[0]
        return lane, mod, zero, ((i, j, pd, tuple(x + 1 for x in packed)), *rows[1:])

    monkeypatch.setattr(varieties, "_value_rows", corrupt)


def _misfit_form(monkeypatch):
    from unitals import varieties

    det = varieties.det_enc

    # the fit of H(I) at q = 3 scans the GF(3)-multiples of one form, c*I; add 1 to the last diagonal entry of each
    # candidate as its determinant is taken, so the nonsingular one it returns, diag(c, c, c + 1), misses H(I)
    def misfit(field, m):
        m[-1][-1] = field.add_enc(m[-1][-1], 1)
        return det(field, m)

    monkeypatch.setattr(varieties, "det_enc", misfit)


# (how to make an internal consistency check fire, argv, the message it raises)
INTERNAL_ERRORS = {
    "non-unital source": (
        _drop_bm_point, ["census", "--kind", "general", "--q", "3"],
        "AssertionError: source produced a non-unital ({'kind': 'bm', 'a': 0, 'b': 3}): "
        "profile ((0, 1), (1, 27), (3, 9), (4, 54))",
    ),
    "zero set": (
        _corrupt_value_row, ["census", "--kind", "kestenband", "--q", "3", "--samples", "3"],
        "AssertionError: zero set of 38 points is no Hermitian cone of PG(2, 9)",
    ),
    "intersection routes": (
        _break_mask, ["census", "--kind", "kestenband", "--q", "2", "--samples", "3"],
        "AssertionError: intersection routes disagree",
    ),
    "line sections": (
        _drop_line, ["verify-unital", "--in", "{unital}"],
        "AssertionError: line sections disagree with the line masks",
    ),
    "line section overflow": (
        _repeat_line, ["verify-unital", "--in", "{unital}"],
        "AssertionError: line sections disagree with the line masks",
    ),
    "fitted form": (
        _misfit_form, ["verify-unital", "--in", "{unital}"],
        "AssertionError: fitted form does not vanish on the point set",
    ),
    "hensel convergence": (
        _stall_hensel, ["charfn-check", "--q", "2"], "AssertionError: Hensel iteration failed to converge",
    ),
    "norm table certificate": (
        _skew_lift, ["charfn-check", "--q", "2"],
        "AssertionError: Teichmüller lift of the generator fails its certificate",
    ),
}


@pytest.mark.parametrize("case", sorted(INTERNAL_ERRORS))
def test_internal_errors_exit_3(tmp_path, capsys, monkeypatch, case):
    """A library consistency check that fires is exit 3, apart from a failed check (1) or bad input (2)."""
    unital = tmp_path / "u.json"
    assert main(["make-unital", "--q", "3", "--kind", "hermitian", "--out", str(unital)]) == 0
    patch, argv, message = INTERNAL_ERRORS[case]
    patch(monkeypatch)
    code, out, err = run(capsys, *[a.format(unital=unital) for a in argv])
    assert code == 3
    assert out == ""
    assert err == f"internal error: {message}\n"


def test_census_failed_check_exits_1_with_its_report(tmp_path, capsys, monkeypatch):
    """A census whose records fail still writes its report; stderr's last line is the first failing record."""
    from unitals import census

    monkeypatch.setattr(census, "intersect_size", lambda A, B: 0)  # 0 is not 1 mod q
    path = tmp_path / "rep.json"
    code, out, err = run(capsys, "census", "--kind", "bm-vs-hermitian", "--q", "3", "--out", str(path))
    assert (code, out) == (1, "")
    report = json.loads(path.read_text())
    assert report["records"] and not report["summary"]["ok"]
    last = err.splitlines()[-1]
    assert last.startswith("first failing record: ")
    assert json.loads(last.removeprefix("first failing record: "))["ok"] is False


def test_census_cli_calls_the_census_module_binding(capsys, monkeypatch):
    """The CLI looks a census up in `census` at call time, so a wrapper bound there (as a tracer binds one) runs."""
    from unitals import census

    calls = []
    kestenband = census.kestenband_census
    monkeypatch.setattr(census, "kestenband_census", lambda *a, **kw: calls.append(a) or kestenband(*a, **kw))
    assert run(capsys, "census", "--kind", "kestenband", "--q", "2", "--samples", "3")[0] == 0
    assert calls == [(2, 3)]


def test_invariants_exit_1_when_the_snf_disagrees(capsys, monkeypatch):
    from unitals import cli

    snf = cli._snf_certified

    def off_by_one(matrix, p):  # the largest elementary-divisor valuation one too high
        vals, k = snf(matrix, p)
        return (*vals[:-1], vals[-1] + 1), k

    monkeypatch.setattr(cli, "_snf_certified", off_by_one)
    code, out, err = run(capsys, "invariants", "--q", "2", "--r", "2", "--verify-snf")
    assert code == 1
    assert err == "snf oracle certified modulo 2^8\ninvariant formula disagrees with the SNF oracle\n"
    data = json.loads(out)
    assert not data["multisets_equal"] and data["snf_multiset"] != data["formula_multiset"]


def test_charfn_check_exit_1_on_mismatches(capsys, monkeypatch):
    from unitals import cli

    monkeypatch.setattr(cli, "herm_char_value", lambda ring, pt, ell: ring.one)  # 1 off the variety and on it
    code, out, _ = run(capsys, "charfn-check", "--q", "2")
    assert code == 1
    data = json.loads(out)
    assert len(data["mismatches"]) == data["on_variety"] == 9


def test_invariants_with_snf(capsys):
    code, out, err = run(capsys, "invariants", "--q", "2", "--r", "2", "--verify-snf")
    assert code == 0
    assert err == "snf oracle certified modulo 2^8\n"
    data = json.loads(out)
    assert data["formula_multiset"] == {"0": 10, "1": 2, "2": 9}
    assert data["snf_multiset"] == data["formula_multiset"]
    assert data["multisets_equal"]
    assert len(data["rows"]) == 21
    constant = next(r for r in data["rows"] if r["monomial"] == [0, 0, 0])
    assert constant["alpha"] == 0 and constant["s"] is None
    code, _, err = run(capsys, "invariants", "--q", "2", "--r", "3")
    assert code == 2
    # on a line there is no r in [2, n]; say so instead of naming the empty range [2, 1]
    code, out, err = run(capsys, "invariants", "--q", "2", "--n", "1", "--r", "2")
    assert (code, out, err) == (2, "", "error: invariants needs --n >= 2, not 1\n")


def test_census_cli_json_and_csv(tmp_path, capsys):
    path = tmp_path / "rep.json"
    code, _, err = run(
        capsys, "census", "--kind", "kestenband", "--q", "2", "--samples", "10",
        "--seed", "3", "--out", str(path),
    )
    assert code == 0
    rep = json.loads(path.read_text())
    assert rep["summary"]["ok"]
    summary_line = json.loads(err.strip().splitlines()[-1])
    assert summary_line["kind"] == "kestenband"
    # csv to stdout
    code, out, _ = run(
        capsys, "census", "--kind", "kestenband", "--q", "2", "--samples", "5",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "left,right,size,congruences,ok"
    assert len(out.splitlines()) == 6


CENSUS_STDERR_Q3 = {
    "general": {
        "kind": "general_unital_congruence",
        "summary": {"hermitian_sets": 21, "min_nu_p_size_minus_1": 1, "ok": True, "pairs": 378, "theta": 1, "unitals": 18},
    },
    "bm-vs-hermitian": {
        "kind": "bm_vs_hermitian",
        "summary": {"hermitian_sets": 21, "ok": True, "pairs": 378, "residues_mod_q": {"1": 378}, "valid_params": 18},
    },
}


@pytest.mark.parametrize("kind", sorted(CENSUS_STDERR_Q3))
def test_census_stderr_counts_distinct_set_pairs(capsys, kind):
    """The stderr line counts records and the distinct set pairs behind them: 18 (a, b) in 6 classes x 21 sets."""
    code, _, err = run(capsys, "census", "--kind", kind, "--q", "3", "--out", os.devnull)
    assert code == 0
    line = json.loads(err)
    assert line == {**CENSUS_STDERR_Q3[kind], "pairs": {"records": 378, "distinct": 126}}


def test_census_cli_other_kinds(capsys):
    code, out, _ = run(
        capsys, "census", "--kind", "hermitian-pairs", "--q", "2", "--samples", "5"
    )
    assert code == 0
    assert json.loads(out)["summary"]["complement_reading_holds"]
    code, out, _ = run(
        capsys, "census", "--kind", "nonhermitian-scan", "--q", "3", "--samples", "5"
    )
    assert code == 0
    code, _, err = run(capsys, "census", "--kind", "kestenband", "--q", "7")
    assert code == 2


# sha256 of `make-unital --q Q --kind hermitian --seed S` stdout, computed while each
# variety was still the image of H(I) under a Gram-Schmidt unitary frame of the drawn form.
MAKE_UNITAL_HERMITIAN_DIGESTS = {
    (3, 1): "8853ae88f94c6e851764bae032bd6177a4ede02ae42c084f52535ca7ac933ac9",
    (3, 5): "71942d259ca0c871b9e19580634e5292cf5e1730aa3f05635de3e6400be67607",
    (3, 1729): "4cd07ab6a2f2d34c92895a06e2a09f57c607361bbc9d7ee86c211883c289f678",
    (4, 1): "57961f068b5677ec85e1f2fe9314669cb7175a58061f994325567513fe4701cc",
    (4, 5): "367c83815bdacb8a22dfb10e406620e9723bfcc0588141b006a333ba46323c4c",
    (4, 1729): "361835c9ae0e5b1c002bc816010d0dc762f5275d69a68f8bfe8e88cb2acf1838",
    (5, 1): "249d3d0d0ae6a3be5b2ea224c926cf7bac8ba298bcdff5dc3c86d27d518c4e93",
    (5, 5): "6f3589c98c077391b486be775240b78bcc773aa353a4a12631569b742d513b18",
    (5, 1729): "82bae1bf285a006286ec7ddbc5468f23159ddb005f1b0458aa601584854d799e",
    (7, 1): "c38b2da123d51b974c56ea1c2a3638168d687fbe80e14dea95191c180e8669e3",
    (7, 5): "836e3d9d91e983fa22ea344e133710b06b49529acae52b9825dd9ef7626bc2e3",
    (7, 1729): "a9a0ec9b68aa46c9dc127830608ec124049d0e8abda3b7238640133e941730c3",
    (8, 1): "e3ff9f791848f1f28c5d36f06bdfbcd0720377793b2934811440fa2492be1967",
    (8, 5): "4cf0216bc128b2cd457932fe395e1bcfa31141f45999e0c85d7fc87eab9cb621",
    (8, 1729): "9b0377df34489603e5990d9b38c476c1b5549b7a56d5ecf74f84d5ffc72e31e6",
    (9, 1): "5cf07d222dd35b658f575bede7c1961f0b6deb717d9f0072c70facac06d49e41",
    (9, 5): "aa8a8c85037a9217a5507fd1a6e7f066bedc6171943edce8835ea3e4ed6b8e0a",
    (9, 1729): "872a59ca47ca5832182c4994204f802681594e654a747a79dfaa8a851b6918b0",
}


@pytest.mark.parametrize("q,seed", sorted(MAKE_UNITAL_HERMITIAN_DIGESTS))
def test_make_unital_hermitian_bytes(capsys, q, seed):
    code, out, _ = run(capsys, "make-unital", "--q", str(q), "--kind", "hermitian", "--seed", str(seed))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MAKE_UNITAL_HERMITIAN_DIGESTS[(q, seed)]


# sha256 of `census --kind general --q Q` at the default seed, computed with one
# B-M set built per (a, b), before the (a, b) of one class came to share a set.
GENERAL_SWEEP_DIGESTS = {
    "7": "1ce4e2ee8ada7d99086c867d64c0188c3195fb3130d67d5cb9ee48f7d8b53a4c",
    "8": "dea24d38d11f15cb3ff337c5e3406d2f7be87d88bcc25fbcd96c4b6bc9b4a2c0",
}


@pytest.mark.parametrize("q", sorted(GENERAL_SWEEP_DIGESTS))
def test_census_general_beyond_q5_report_bytes(capsys, q):
    """q = 8 is the first q where the proven modulus p^ceil(t/2) = 4 is below q."""
    code, out, err = run(capsys, "census", "--kind", "general", "--q", q)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GENERAL_SWEEP_DIGESTS[q]
    assert json.loads(err)["summary"]["min_nu_p_size_minus_1"] == {"7": 1, "8": 3}[q]


@pytest.mark.parametrize("q", ["6", "11", "16"])
@pytest.mark.parametrize("kind", ["bm-vs-hermitian", "general", "nonhermitian-scan"])
def test_census_cli_b_m_kinds_reject_q_outside_their_range(capsys, kind, q):
    code, out, err = run(capsys, "census", "--kind", kind, "--q", q)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if q != "6":  # 6 is no prime power, and the field flags say so first
        assert err.endswith(" supports q in {3, 4, 5, 7, 8, 9}\n")


@pytest.mark.parametrize("samples", ["0", "-5"])
@pytest.mark.parametrize("kind", ["kestenband", "hermitian-pairs", "nonhermitian-scan"])
def test_census_cli_rejects_samples_below_one(capsys, kind, samples):
    code, out, err = run(capsys, "census", "--kind", kind, "--q", "3", "--samples", samples)
    assert code == 2
    assert out == ""
    assert err == "error: --samples must be >= 1\n"


@pytest.mark.parametrize("samples", ["1", "50"])
@pytest.mark.parametrize("kind", ["bm-vs-hermitian", "general"])
def test_census_cli_sweep_kinds_reject_samples(tmp_path, capsys, kind, samples):
    """The sweeps draw no pairs, so --samples would be ignored; they refuse it and write no report."""
    path = tmp_path / "rep.json"
    code, out, err = run(capsys, "census", "--kind", kind, "--q", "3", "--samples", samples, "--out", str(path))
    assert code == 2
    assert out == "" and not path.exists()
    assert err == f"error: --kind {kind} sweeps every valid B-M pair; it takes no --samples\n"


@pytest.mark.parametrize("what", ["points", "lines", "monomials"])
def test_enum_rejects_r_outside_subspaces(tmp_path, capsys, what):
    """Only --what subspaces reads --r; the others refuse it instead of ignoring it, and write nothing."""
    path = tmp_path / "enum.json"
    code, out, err = run(capsys, "enum", "--q", "2", "--what", what, "--r", "1", "--out", str(path))
    assert code == 2
    assert out == "" and not path.exists()
    assert err == f"error: --r is for --what subspaces, not --what {what}\n"


# (make-unital flags, the one error line); each names a flag the kind would otherwise ignore
MAKE_UNITAL_STRAY_FLAGS = {
    "hermitian with --a": (["--kind", "hermitian", "--a", "4"], "--kind hermitian takes no --a or --b"),
    "hermitian with --b": (["--kind", "hermitian", "--seed", "7", "--b", "0"], "--kind hermitian takes no --a or --b"),
    "bm with --seed": (["--kind", "bm", "--a", "4", "--b", "0", "--seed", "7"], "--kind bm takes no --seed"),
}


@pytest.mark.parametrize("case", sorted(MAKE_UNITAL_STRAY_FLAGS))
def test_make_unital_rejects_flags_of_the_other_kind(tmp_path, capsys, case):
    flags, message = MAKE_UNITAL_STRAY_FLAGS[case]
    path = tmp_path / "u.json"
    code, out, err = run(capsys, "make-unital", "--q", "3", *flags, "--out", str(path))
    assert code == 2
    assert out == "" and not path.exists()
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("n", ["1", "3", "7"])
@pytest.mark.parametrize("kind", ["kestenband", "bm-vs-hermitian", "general", "nonhermitian-scan"])
def test_census_cli_plane_kinds_reject_n(capsys, kind, n):
    """The plane-only kinds refuse any --n but 2 instead of ignoring it."""
    code, out, err = run(capsys, "census", "--kind", kind, "--q", "3", "--n", n, "--samples", "3")
    assert code == 2
    assert out == ""
    assert err == f"error: --kind {kind} lives in the plane; --n must be 2, not {n}\n"


def test_census_cli_threads_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--kind", "kestenband", "--q", "2", "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_charfn_check(capsys):
    code, out, _ = run(capsys, "charfn-check", "--q", "2", "--ell", "1")
    assert code == 0
    data = json.loads(out)
    assert data["mismatches"] == []
    assert data["points"] == 21 and data["on_variety"] == 9
    code, _, err = run(capsys, "charfn-check", "--q", "2", "--ell", "0")
    assert code == 2


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_charfn_check_mod_q4(capsys, q):
    """--ell 2 checks the ring-side indicator modulo q^4 at every point."""
    code, out, _ = run(capsys, "charfn-check", "--q", str(q), "--ell", "2")
    assert code == 0
    data = json.loads(out)
    assert data["ell"] == 2 and data["mismatches"] == []
    assert data["points"] == q**4 + q**2 + 1 and data["on_variety"] == q**3 + 1


@pytest.mark.parametrize("q,sums", [(7, 19), (8, 36), (9, 41)])
def test_charfn_check_counts_distinct_norm_sums(capsys, q, sums):
    """stderr names the number of ring powers computed: one per distinct norm sum."""
    code, _, err = run(capsys, "charfn-check", "--q", str(q))
    assert code == 0
    assert err == f"charfn: {q**4 + q**2 + 1} points, {sums} distinct norm sums\n"


def test_charfn_check_report_bytes(capsys):
    code, out, _ = run(capsys, "charfn-check", "--q", "3")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "84074f61cbe65d99e6983bc542eafe8cfbc7725c80cf1170a9beaa838289e1c9"


# sha256 of `charfn-check --q N` stdout at the benchmark's own inputs
CHARFN_DIGESTS = {
    7: "e93490cc587b43ffd276a023dc5f929c9ea20cdd12ff4af85c3a0d81eb35f7ae",
    8: "bed43a9691658ba38d0d6c6c0c595caf628ba8f9456b9d8f790edfbcc9cfc556",
    9: "08e9f6d23332c1c0a31bda332c0c85843eb9a437b4f2f22c91539860563013e6",
}


@pytest.mark.parametrize("q", sorted(CHARFN_DIGESTS))
def test_charfn_check_report_bytes_benchmark_inputs(capsys, q):
    code, out, _ = run(capsys, "charfn-check", "--q", str(q))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CHARFN_DIGESTS[q]


# (exit code, stdout, stderr) of `field-info --q <key>`: a field, and a q that names none
MODULE_RUNS = {"4": (0, FIELD_INFO_Q4, ""), "6": (2, "", "error: q = 6 is not a prime power with q^2 <= 65536\n")}


@pytest.mark.parametrize("q", sorted(MODULE_RUNS))
def test_module_entry_point_runs_main(capsys, q):
    """`python -m unitals.cli` gives main's exit code and bytes: a good run, and a bad flag on one error line."""
    src = str(Path(unitals.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "unitals.cli", "field-info", "--q", q],
        capture_output=True, text=True, timeout=30, env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == MODULE_RUNS[q] == run(capsys, "field-info", "--q", q)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("unitals ")
