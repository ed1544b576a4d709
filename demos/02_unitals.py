"""Constructing unitals: Hermitian curves and the Buekenhout-Metz family.

Builds the canonical Hermitian unital of PG(2, 9), verifies the line
profile and the 2-design structure of its secant blocks, then sweeps the
Buekenhout-Metz parameter space and shows which (a, b) give unitals.

Run:  python3 demos/02_unitals.py
"""

from unitals import (
    BMParams,
    HermitianForm,
    all_valid_bm_params,
    blocks_of,
    bm_is_valid,
    bm_unital,
    check_property_I,
    field_for_q,
    fit_hermitian_form,
    hermitian_variety,
    is_unital_embedded,
)

q = 3
f = field_for_q(q)

print("=== the canonical Hermitian unital of PG(2, 9) ===")
H = hermitian_variety(HermitianForm.identity(2, f))
check = is_unital_embedded(H)
print(f"size: {check.size} (q^3+1 = {q**3 + 1})")
print(f"line profile (section size, count): {check.profile}")
print(f"tangents: {check.tangent_count}, secants: {check.secant_count}")

blocks = blocks_of(H)
print(f"secant blocks: {len(blocks)}, each of size {len(blocks[0])}")
print("they form a 2-(28, 4, 1) design: two lines of the plane share one point")

comp = H.complement()
print(f"complement has {len(comp)} points;", end=" ")
print(f"every line meets it in a multiple of {f.p}: {check_property_I(comp, 2, f.t)}")

print("\n=== the Buekenhout-Metz sweep over GF(9)^2 ===")
params = all_valid_bm_params(f)
print(f"valid (a, b) pairs: {len(params)} of {f.size**2}")

# grid rows indexed by a, columns by b: 'H' Hermitian, 'U' proper B-M, '.' invalid
grid = [["." for _ in range(f.size)] for _ in range(f.size)]
for pr in params:
    grid[pr.a.enc][pr.b.enc] = "H" if not pr.a else "U"
print("      b: " + " ".join(str(j) for j in range(f.size)))
for i, row in enumerate(grid):
    print(f"  a = {i}:  " + " ".join(row))

print("\none unital of each kind:")
herm_pr = next(pr for pr in params if not pr.a)
bm_pr = next(pr for pr in params if pr.a)
for pr in (herm_pr, bm_pr):
    U = bm_unital(pr)
    form = fit_hermitian_form(U)
    label = "Hermitian" if form is not None else "proper B-M"
    print(
        f"  (a, b) = ({pr.a.enc}, {pr.b.enc}): size {len(U)}, "
        f"unital: {bool(is_unital_embedded(U))}, fitted form: {label}"
    )

bad = BMParams(f.zero, f.one)  # b inside GF(3): not a unital
print(f"\n(a, b) = (0, 1) valid? {bm_is_valid(bad)} (b lies in the subfield)")
