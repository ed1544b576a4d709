"""Galois rings, Teichmüller lifts and the Hermitian characteristic function.

Lifts GF(9) to the Galois ring GR(81, 2), shows the multiplicative section
T of reduction mod p together with its truncated additivity, and evaluates
the ring-side characteristic function that is 0 mod q^2 on the Hermitian
curve and 1 mod q^2 off it.

Run:  python3 demos/05_teichmuller.py
"""

from unitals import (
    HermitianForm,
    enum_points,
    field_for_q,
    herm_char_value,
    hermitian_variety,
    make_ring,
)

f = field_for_q(3)
ring = make_ring(f, 2)  # GR(3^2, 2): Z/9[X] modulo a Hensel-lifted quadratic

print("=== the ring GR(81, 2) over GF(9) ===")
print(f"field modulus: {f.modulus}")
print(f"lifted modulus (roots are Teichmüller units): {ring.modulus}")

print("\nTeichmüller lifts of GF(9):")
for x in f.elements:
    tx = ring.teichmuller(x)
    print(f"  T({x.enc}) = {tx.coeffs}")

a, b = f.elem(2), f.gen
ta, tb = ring.teichmuller(a), ring.teichmuller(b)
print("\nT is multiplicative exactly:")
print(f"  T(a)T(b) == T(ab): {ta * tb == ring.teichmuller(a * b)}")
print("and additive only after truncation: for subfield a, b")
sa, sb = f.one, f.elem(2)
lhs = ring.teichmuller(sa + sb)
rhs = (ring.teichmuller(sa) + ring.teichmuller(sb)) ** 3
print(f"  T(a+b) == (T(a)+T(b))^q  mod q: {lhs.congruent_mod(rhs, 1)}")

print("\n=== characteristic function of the Hermitian curve, mod 9 ===")
H = hermitian_variety(HermitianForm.identity(2, f))
on_vals, off_vals = set(), set()
for i, pt in enumerate(enum_points(2, f)):
    val = herm_char_value(ring, pt, ell=1)
    (on_vals if i in H else off_vals).add(val.coeffs)
print(f"values on the curve:  {on_vals}")
print(f"values off the curve: {off_vals}")
assert on_vals == {(0, 0)} and off_vals == {(1, 0)}
print("0 on the 28 curve points, 1 on the 63 others: exact mod q^2")
