"""Command-line front end.

Subcommands: field-info, enum, make-unital, verify-unital, invariants,
census, charfn-check.  Exit code 0 means every assertion passed, 1 means an
assertion failed (the first failing census record is printed to stderr), and
2 means unusable flags, invalid construction parameters or a malformed input
file.

Reports go to --out when given, else to stdout; diagnostics go to stderr.
Identical invocations produce byte-identical report files.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .census import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    bm_vs_hermitian_census,
    general_unital_congruence,
    hermitian_pair_divisibility,
    kestenband_census,
    nonhermitian_pair_scan,
)
from .finite_field import field_for_q, make_field
from .galois_ring import herm_char_value, make_ring
from .padic_invariants import _snf_certified, enum_basis_monomials, monomial_invariant_exponent, type_of
from .proj_geom import PointSet, enum_points, enum_subspaces, incidence_matrix, subspace_member_indices
from .varieties import (
    BMParams,
    HermitianForm,
    bm_is_valid,
    bm_unital,
    blocks_of,
    check_property_I,
    hermitian_variety,
    is_unital_embedded,
    random_hermitian_form,
)


class _Usage(Exception):
    pass


def _resolve_field(args):
    q = getattr(args, "q", None)
    p = getattr(args, "p", None)
    t = getattr(args, "t", None)
    if q is not None:
        field = field_for_q(q)
        if p is not None and field.p != p or t is not None and field.t != t:
            raise _Usage(f"--q {q} conflicts with --p/--t")
        return field
    if p is None or t is None:
        raise _Usage("need --q, or both --p and --t")
    return make_field(p, t)


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_field_flags(sp, need_n=False):
    sp.add_argument("--q", type=int, help="prime power q (the field is GF(q^2))")
    sp.add_argument("--p", type=int, help="characteristic")
    sp.add_argument("--t", type=int, help="q = p^t")
    if need_n:
        sp.add_argument("--n", type=int, default=2, help="projective dimension (default 2)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="unitals",
        description="unitals and Hermitian varieties in PG(n, q^2)",
    )
    ap.add_argument("--version", action="version", version=f"unitals {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("field-info", help="describe GF(q^2) and its tables")
    _add_field_flags(sp)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_field_info)

    sp = sub.add_parser("enum", help="enumerate points/subspaces/monomials")
    _add_field_flags(sp, need_n=True)
    sp.add_argument("--what", choices=["points", "lines", "subspaces", "monomials"], required=True)
    sp.add_argument("--r", type=int, help="subspace dimension (for --what subspaces)")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_enum)

    sp = sub.add_parser("make-unital", help="construct a unital point set")
    _add_field_flags(sp)
    sp.add_argument("--kind", choices=["bm", "hermitian"], required=True)
    sp.add_argument("--a", type=int, help="encoding of a (bm)")
    sp.add_argument("--b", type=int, help="encoding of b (bm)")
    sp.add_argument("--seed", type=int, help="random Hermitian form seed (hermitian)")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_make_unital)

    sp = sub.add_parser("verify-unital", help="check a point-set file")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_verify_unital)

    sp = sub.add_parser("invariants", help="monomial invariant table for A_{r,1}")
    _add_field_flags(sp, need_n=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--verify-snf", action="store_true", help="cross-check with the certified SNF oracle")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("census", help="run an intersection census")
    _add_field_flags(sp, need_n=True)
    sp.add_argument(
        "--kind",
        choices=["kestenband", "bm-vs-hermitian", "general", "hermitian-pairs", "nonhermitian-scan"],
        required=True,
    )
    sp.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--threads", type=int, default=1, help="accepted for compatibility; ignored")
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_census)

    sp = sub.add_parser("charfn-check", help="ring-side Hermitian characteristic function")
    _add_field_flags(sp)
    sp.add_argument("--ell", type=int, default=1)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_charfn)

    return ap


# ---------------------------------------------------------------------------


def cmd_field_info(args) -> int:
    field = _resolve_field(args)
    info = {
        "p": field.p,
        "t": field.t,
        "q": field.q,
        "size": field.size,
        "modulus": list(field.modulus),
        "generator": field.generator,
        "subfield": list(field.subfield_encs),
    }
    _emit(json.dumps(info, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def cmd_enum(args) -> int:
    field = _resolve_field(args)
    n = args.n
    if args.what == "points":
        items = [[e.enc for e in pt] for pt in enum_points(n, field)]
    elif args.what in ("lines", "subspaces"):
        r = 2 if args.what == "lines" else args.r
        if r is None:
            raise _Usage("--what subspaces needs --r")
        items = [list(ids) for ids in subspace_member_indices(n, r, field)]
    else:
        items = [list(m) for m in enum_basis_monomials(n, field)]
    _emit(json.dumps({"count": len(items), "items": items}) + "\n", args.out)
    return 0


def cmd_make_unital(args) -> int:
    field = _resolve_field(args)
    if args.kind == "bm":
        if args.a is None or args.b is None:
            raise _Usage("--kind bm needs --a and --b")
        if not 0 <= args.a < field.size or not 0 <= args.b < field.size:
            raise _Usage(f"encodings must lie in [0, {field.size})")
        params = BMParams(field.elem(args.a), field.elem(args.b))
        if field.q <= 2:
            raise _Usage("the Buekenhout-Metz construction needs q > 2")
        if not bm_is_valid(params):
            raise _Usage(
                f"(a, b) = ({args.a}, {args.b}) is not a valid parameter pair "
                f"over GF({field.size}): the unital criterion fails"
            )
        S = bm_unital(params)
    else:
        if args.seed is None:
            form = HermitianForm.identity(2, field)
        else:
            form = random_hermitian_form(2, field, args.seed)
        S = hermitian_variety(form)
    _emit(json.dumps(S.to_json_dict(), sort_keys=True) + "\n", args.out)
    return 0


def cmd_verify_unital(args) -> int:
    with open(args.infile) as fh:
        S = PointSet.from_json_dict(json.load(fh))
    check = is_unital_embedded(S)
    diag = {
        "size": check.size,
        "is_unital": check.ok,
        "tangent_lines": check.tangent_count,
        "secant_lines": check.secant_count,
        "line_profile": [list(x) for x in check.profile],
    }
    if check.ok:
        blocks = blocks_of(S)
        diag["blocks"] = len(blocks)
        diag["complement_property_I"] = check_property_I(
            S.complement(), 2, S.field.t
        )
    _emit(json.dumps(diag, sort_keys=True, indent=2) + "\n", args.out)
    if not check.ok:
        print(f"not a unital: line profile {check.profile}", file=sys.stderr)
        return 1
    return 0


def cmd_invariants(args) -> int:
    field = _resolve_field(args)
    n, r = args.n, args.r
    if not 1 < r <= n:
        raise _Usage(f"--r must lie in [2, {n}]")
    p, t = field.p, field.t
    rows = []
    for m in enum_basis_monomials(n, field):
        alpha = monomial_invariant_exponent(m, p, t, r)
        row = {"monomial": list(m), "alpha": alpha}
        if any(m):
            tt = type_of(m, p, t)
            row["lambda"] = list(tt.lam)
            row["s"] = list(tt.s)
        else:
            row["lambda"] = None
            row["s"] = None
        rows.append(row)
    result = {"n": n, "p": p, "t": t, "r": r, "rows": rows}
    code = 0
    formula = sorted(row["alpha"] for row in rows)
    result["formula_multiset"] = _multiset(formula)
    if args.verify_snf:
        dense = incidence_matrix(n, r, field).to_dense()
        snf, k = _snf_certified(dense, p)
        print(f"snf oracle certified modulo {p}^{k}", file=sys.stderr)
        result["snf_multiset"] = _multiset(snf)
        result["multisets_equal"] = list(snf) == formula
        if not result["multisets_equal"]:
            print("invariant formula disagrees with the SNF oracle", file=sys.stderr)
            code = 1
    _emit(json.dumps(result, sort_keys=True, indent=2) + "\n", args.out)
    return code


def _multiset(values) -> dict:
    out: dict[str, int] = {}
    for v in values:
        out[str(v)] = out.get(str(v), 0) + 1
    return out


def cmd_census(args) -> int:
    if args.threads < 0:
        raise _Usage("--threads must be >= 0")
    if args.samples < 1:
        raise _Usage("--samples must be >= 1")
    kind = args.kind
    if kind == "kestenband":
        report = kestenband_census(_q_of(args), args.samples, args.seed)
    elif kind == "bm-vs-hermitian":
        report = bm_vs_hermitian_census(_q_of(args), seed=args.seed)
    elif kind == "general":
        report = general_unital_congruence(_q_of(args), seed=args.seed)
    elif kind == "hermitian-pairs":
        report = hermitian_pair_divisibility(args.n, _q_of(args), args.samples, args.seed)
    else:
        report = nonhermitian_pair_scan(_q_of(args), args.samples, args.seed)
    text = report.to_json() if args.format == "json" else report.to_csv()
    _emit(text, args.out)
    print(json.dumps({"kind": report.kind, "summary": report.summary}, sort_keys=True), file=sys.stderr)
    if not report.ok:
        bad = report.first_violation()
        if bad is not None:
            print("first failing record: " + json.dumps(bad.to_json_dict(), sort_keys=True), file=sys.stderr)
        return 1
    return 0


def _q_of(args) -> int:
    return _resolve_field(args).q


def cmd_charfn(args) -> int:
    field = _resolve_field(args)
    if args.ell < 1:
        raise _Usage("--ell must be >= 1")
    ell = args.ell
    ring = make_ring(field, 2 * field.t * ell)
    form = HermitianForm.identity(2, field)
    H = hermitian_variety(form)
    zero, one = ring.zero, ring.one
    mismatches = []
    for i, pt in enumerate(enum_points(2, field)):
        val = herm_char_value(ring, pt, ell)
        expected = zero if i in H else one
        if not val.congruent_mod(expected, 2 * field.t * ell):
            mismatches.append({"point": [e.enc for e in pt], "value": list(val.coeffs)})
    result = {
        "q": field.q,
        "ell": ell,
        "points": len(enum_points(2, field)),
        "on_variety": len(H),
        "mismatches": mismatches,
    }
    _emit(json.dumps(result, sort_keys=True, indent=2) + "\n", args.out)
    return 0 if not mismatches else 1


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (_Usage, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
