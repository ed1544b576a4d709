"""Command-line front end.

Subcommands: field-info, enum, make-unital, verify-unital, invariants,
census, charfn-check.  Exit codes:

  0  every assertion passed;
  1  a mathematical check failed and the report says so (the first failing
     census record is printed to stderr);
  2  unusable flags, invalid construction parameters or a malformed input
     file (one `error:` line on stderr);
  3  an internal error: a consistency check of the library itself fired, e.g.
     the two intersection routes disagree, the secant sections of a unital
     disagree with the line masks, or a Galois-ring iteration did not
     converge (one `internal error:` line on stderr, no traceback).

Reports go to --out when given, else to stdout; diagnostics go to stderr.
Identical invocations produce byte-identical report files.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, census
from .census import DEFAULT_SAMPLES, DEFAULT_SEED, _hist
from .finite_field import field_for_q
from .galois_ring import herm_char_value, make_ring
from .padic_invariants import _snf_certified, enum_basis_monomials, invariant_exponent, type_of
from .proj_geom import PointSet, _space, enum_points, incidence_matrix, subspace_count, subspace_member_indices
from .varieties import (
    BMParams,
    HermitianForm,
    _canonical_variety,
    bm_unital,
    blocks_of,
    check_property_I,
    fit_hermitian_form,
    hermitian_variety,
    is_unital_embedded,
    random_hermitian_form,
)

# --kind of the census subcommand: (function of `census`, takes --samples, takes --n).  The
# function is looked up by name at call time, so a rebinding in `census` reaches the CLI.
_CENSUS_KINDS = {
    "kestenband": ("kestenband_census", True, False),
    "bm-vs-hermitian": ("bm_vs_hermitian_census", False, False),
    "general": ("general_unital_congruence", False, False),
    "hermitian-pairs": ("hermitian_pair_divisibility", True, True),
    "nonhermitian-scan": ("nonhermitian_pair_scan", True, False),
}


def _resolve_field(args):
    if args.q is None:
        raise ValueError("need --q")
    return field_for_q(args.q)


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_field_flags(sp, need_n=False):
    sp.add_argument("--q", type=int, help="prime power q (the field is GF(q^2))")
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
    sp.set_defaults(func=cmd_field_info)

    sp = sub.add_parser("enum", help="enumerate points/subspaces/monomials")
    _add_field_flags(sp, need_n=True)
    sp.add_argument("--what", choices=["points", "lines", "subspaces", "monomials"], required=True)
    sp.add_argument("--r", type=int, help="subspace dimension (for --what subspaces)")
    sp.set_defaults(func=cmd_enum)

    sp = sub.add_parser("make-unital", help="construct a unital point set")
    _add_field_flags(sp)
    sp.add_argument("--kind", choices=["bm", "hermitian"], required=True)
    sp.add_argument("--a", type=int, help="encoding of a (bm)")
    sp.add_argument("--b", type=int, help="encoding of b (bm)")
    sp.add_argument("--seed", type=int, help="random Hermitian form seed (hermitian)")
    sp.set_defaults(func=cmd_make_unital)

    sp = sub.add_parser("verify-unital", help="check a point-set file")
    sp.add_argument("--in", dest="infile", required=True)
    sp.set_defaults(func=cmd_verify_unital)

    sp = sub.add_parser("invariants", help="monomial invariant table for A_{r,1}")
    _add_field_flags(sp, need_n=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--verify-snf", action="store_true", help="cross-check with the certified SNF oracle")
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("census", help="run an intersection census")
    _add_field_flags(sp, need_n=True)
    sp.add_argument("--kind", choices=list(_CENSUS_KINDS), required=True)
    sweeps = ", ".join(kind for kind, (_, samples, _) in _CENSUS_KINDS.items() if not samples)
    sp.add_argument("--samples", type=int, help=f"pairs to draw (default {DEFAULT_SAMPLES}; not for {sweeps})")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.set_defaults(func=cmd_census)

    sp = sub.add_parser("charfn-check", help="ring-side Hermitian characteristic function")
    _add_field_flags(sp)
    sp.add_argument("--ell", type=int, default=1)
    sp.set_defaults(func=cmd_charfn)

    for sp in sub.choices.values():
        sp.add_argument("--out")
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
    if args.r is not None and args.what != "subspaces":
        raise ValueError(f"--r is for --what subspaces, not --what {args.what}")
    if args.what == "lines" and n < 2:
        raise ValueError(f"--what lines needs --n >= 2, not {n}")
    if args.what == "points":
        items = [list(pt) for pt in _space(n, field).points]
    elif args.what in ("lines", "subspaces"):
        r = 2 if args.what == "lines" else args.r
        if r is None:
            raise ValueError("--what subspaces needs --r")
        items = [list(ids) for ids in subspace_member_indices(n, r, field)]
    else:
        items = [list(m) for m in enum_basis_monomials(n, field)]
    _emit(json.dumps({"count": len(items), "items": items}) + "\n", args.out)
    return 0


def cmd_make_unital(args) -> int:
    field = _resolve_field(args)
    if args.kind == "bm":
        if args.seed is not None:
            raise ValueError("--kind bm takes no --seed")
        if args.a is None or args.b is None:
            raise ValueError("--kind bm needs --a and --b")
        if not 0 <= args.a < field.size or not 0 <= args.b < field.size:
            raise ValueError(f"encodings must lie in [0, {field.size})")
        S = bm_unital(BMParams(field.elem(args.a), field.elem(args.b)))
    else:
        if args.a is not None or args.b is not None:
            raise ValueError("--kind hermitian takes no --a or --b")
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
        diag["hermitian"] = fit_hermitian_form(S) is not None
    _emit(json.dumps(diag, sort_keys=True, indent=2) + "\n", args.out)
    if not check.ok:
        print(f"not a unital: line profile {check.profile}", file=sys.stderr)
        return 1
    return 0


def cmd_invariants(args) -> int:
    field = _resolve_field(args)
    n, r = args.n, args.r
    if n < 2:
        raise ValueError(f"invariants needs --n >= 2, not {n}")
    if not 1 < r <= n:
        raise ValueError(f"--r must lie in [2, {n}]")
    if args.verify_snf:
        subspace_count(n, r, field.size)  # refuse an oversized incidence matrix before the monomials
    p, t = field.p, field.t
    rows = []
    for m in enum_basis_monomials(n, field):
        if any(m):
            tt = type_of(m, p, t)
            row = {"monomial": list(m), "alpha": invariant_exponent(tt.s, r), "lambda": list(tt.lam), "s": list(tt.s)}
        else:
            row = {"monomial": list(m), "alpha": 0, "lambda": None, "s": None}
        rows.append(row)
    result = {"n": n, "p": p, "t": t, "r": r, "rows": rows}
    code = 0
    formula = sorted(row["alpha"] for row in rows)
    result["formula_multiset"] = _hist(formula)
    if args.verify_snf:
        dense = incidence_matrix(n, r, field).to_dense()
        snf, k = _snf_certified(dense, p)
        print(f"snf oracle certified modulo {p}^{k}", file=sys.stderr)
        result["snf_multiset"] = _hist(snf)
        result["multisets_equal"] = list(snf) == formula
        if not result["multisets_equal"]:
            print("invariant formula disagrees with the SNF oracle", file=sys.stderr)
            code = 1
    _emit(json.dumps(result, sort_keys=True, indent=2) + "\n", args.out)
    return code


def cmd_census(args) -> int:
    if args.samples is not None and args.samples < 1:
        raise ValueError("--samples must be >= 1")
    kind = args.kind
    name, takes_samples, takes_n = _CENSUS_KINDS[kind]
    if not takes_n and args.n != 2:
        raise ValueError(f"--kind {kind} lives in the plane; --n must be 2, not {args.n}")
    if not takes_samples and args.samples is not None:
        raise ValueError(f"--kind {kind} sweeps every valid B-M pair; it takes no --samples")
    q = _resolve_field(args).q
    head = (args.n, q) if takes_n else (q,)
    tail = (args.samples or DEFAULT_SAMPLES,) if takes_samples else ()
    report = getattr(census, name)(*head, *tail, seed=args.seed)
    text = report.to_json() if args.format == "json" else report.to_csv()
    _emit(text, args.out)
    pairs = {"records": len(report.records), "distinct": report.distinct_pairs}
    print(json.dumps({"kind": report.kind, "pairs": pairs, "summary": report.summary}, sort_keys=True), file=sys.stderr)
    if not report.ok:
        bad = report.first_violation()
        if bad is not None:
            print("first failing record: " + json.dumps(bad.to_json_dict(), sort_keys=True), file=sys.stderr)
        return 1
    return 0


def cmd_charfn(args) -> int:
    field = _resolve_field(args)
    if args.ell < 1:
        raise ValueError("--ell must be >= 1")
    ell = args.ell
    ring = make_ring(field, 2 * field.t * ell)
    H = frozenset(_canonical_variety(2, field).members)  # hashing is ~5x faster per point than PointSet's bisect
    # k = 2tl exactly, so congruence mod q^(2l) is equality of the reduced coefficients
    expected = (ring.one.coeffs, ring.zero.coeffs)  # by membership in H
    points = enum_points(2, field)
    mismatches = []
    for i, pt in enumerate(points):
        val = herm_char_value(ring, pt, ell)
        if val.coeffs != expected[i in H]:
            mismatches.append({"point": [e.enc for e in pt], "value": list(val.coeffs)})
    result = {
        "q": field.q,
        "ell": ell,
        "points": len(points),
        "on_variety": len(H),
        "mismatches": mismatches,
    }
    _emit(json.dumps(result, sort_keys=True, indent=2) + "\n", args.out)
    print(f"charfn: {result['points']} points, {len(ring._char)} distinct norm sums", file=sys.stderr)
    return 0 if not mismatches else 1


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        detail = " ".join(str(e).split())
        print(f"internal error: {type(e).__name__}" + (f": {detail}" if detail else ""), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
