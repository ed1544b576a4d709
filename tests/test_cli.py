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


def test_field_info_p_t_flags(capsys):
    code, out, _ = run(capsys, "field-info", "--p", "2", "--t", "2")
    assert code == 0
    assert json.loads(out)["q"] == 4
    # conflicting flags are a usage error
    code, _, err = run(capsys, "field-info", "--q", "3", "--p", "2")
    assert code == 2 and "conflicts" in err
    code, _, err = run(capsys, "field-info", "--p", "4", "--t", "1")
    assert code == 2
    code, _, err = run(capsys, "field-info")
    assert code == 2


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


HUGE_P = 1000000000000000003  # a prime; trial division up to its root never ends
HUGE_INPUTS = {
    "verify-unital huge p": ["verify-unital", "--in", "{huge_json}"],
    "field-info huge p": ["field-info", "--p", str(HUGE_P), "--t", "1"],
    "field-info huge q": ["field-info", "--q", "1000000007"],
    "enum huge n": ["enum", "--q", "2", "--n", "1000000000", "--what", "points"],
    "enum monomials huge n": ["enum", "--q", "2", "--n", "1000000000", "--what", "monomials"],
    "invariants huge n": ["invariants", "--q", "2", "--n", "1000000000", "--r", "2"],
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
    code, _, err = run(capsys, "census", "--kind", "kestenband", "--q", "2", "--threads", "-1")
    assert code == 2


@pytest.mark.parametrize("samples", ["0", "-5"])
@pytest.mark.parametrize("kind", ["kestenband", "hermitian-pairs", "nonhermitian-scan"])
def test_census_cli_rejects_samples_below_one(capsys, kind, samples):
    code, out, err = run(capsys, "census", "--kind", kind, "--q", "3", "--samples", samples)
    assert code == 2
    assert out == ""
    assert err == "error: --samples must be >= 1\n"


def test_census_cli_threads_match(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "census", "--kind", "kestenband", "--q", "2", "--samples", "8",
        "--seed", "5", "--out", str(a))
    run(capsys, "census", "--kind", "kestenband", "--q", "2", "--samples", "8",
        "--seed", "5", "--threads", "2", "--out", str(b))
    assert a.read_text() == b.read_text()


def test_charfn_check(capsys):
    code, out, _ = run(capsys, "charfn-check", "--q", "2", "--ell", "1")
    assert code == 0
    data = json.loads(out)
    assert data["mismatches"] == []
    assert data["points"] == 21 and data["on_variety"] == 9
    code, _, err = run(capsys, "charfn-check", "--q", "2", "--ell", "0")
    assert code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("unitals ")
