"""Tour of the arithmetic layer: GF(q^2) tables and the plane PG(2, q^2).

Builds GF(9) from its deterministic modulus, walks through the encoding
scheme, then enumerates the points and lines of PG(2, 9) and checks the
incidence counts against the Gaussian binomials.

Run:  python3 demos/01_fields_and_planes.py
"""

from unitals import (
    enum_points,
    field_for_q,
    frobenius,
    gaussian_binomial,
    incidence_matrix,
    norm_q,
    subspace_member_indices,
    trace_q,
)

print("=== the field GF(9) ===")
f = field_for_q(3)
print(f"modulus (constant term first): {f.modulus}")
print(f"generator encoding: {f.generator}")
print(f"subfield GF(3) encodings: {f.subfield_encs}")

x = f.gen
print(f"\npowers of the generator g = {x!r}:")
acc = f.one
for k in range(f.size):
    print(f"  g^{k} -> enc {acc.enc} coeffs {acc.coeffs}", end="")
    print("  (cycle closes)" if k == f.size - 1 else "")
    acc = acc * x

print("\nrelative norm and trace land in GF(3):")
for e in (2, 3, 7):
    v = f.elem(e)
    print(
        f"  x = {e}: x^q = {frobenius(v, f.t).enc}, "
        f"N(x) = {norm_q(v).enc}, T(x) = {trace_q(v).enc}"
    )

print("\n=== the plane PG(2, 9) ===")
pts = enum_points(2, f)
lines = subspace_member_indices(2, 2, f)
print(f"points: {len(pts)} (Gaussian binomial {gaussian_binomial(3, 1, 9)})")
print(f"lines:  {len(lines)}")
print(f"first point {tuple(c.enc for c in pts[0])}, last {tuple(c.enc for c in pts[-1])}")
print(f"first line through points {lines[0][:5]}... ({len(lines[0])} points)")

A = incidence_matrix(2, 2, f)
row_sums = {r.bit_count() for r in A.rows}
col_sums = set(map(sum, zip(*A.to_dense())))
print(f"incidence matrix: {A.n_rows} x {A.n_cols}")
print(f"points per line: {row_sums}, lines per point: {col_sums}")
assert row_sums == col_sums == {f.size + 1}
print("every line has q^2+1 points and dually; counts check out")
