"""Galois rings Z/p^k[X]/(F) with Teichmüller lifts of GF(p^(2t)).

make_ring(field, k) Hensel-lifts the field modulus so that the roots of the
lifted modulus are Teichmüller units: X itself then satisfies X^(p^2t) = X in
the ring.  Reduction mod p is coefficientwise and recovers the field.

GaloisRing.teichmuller sends x in GF(p^2t) to the unique lift T(x) fixed by the
(p^2t)-power map; T is multiplicative, and T restricted to the subfield GF(q)
obeys the truncated additivity T(a+b) = (T(a)+T(b))^(q^l) mod q^l.

herm_char_value evaluates the ring-side characteristic function of the
complement of the standard Hermitian variety sum(x_i^(q+1)) = 0:
    (sum_i T(x_i)^(q+1))^(q^(2l+1) - q^(2l))  =  0 or 1  (mod q^(2l))
according as the point lies on or off the variety.  The function is memoised
exactly, on its ring: T(x)^(q+1) once per field element, and the final power
once per (l, coefficient tuple of the norm sum mod p^k).  The exponent is
fixed by q and l, and a ring element by its reduced coefficients, so a hit
returns the very element that a fresh power would; a point costs additions.
"""

from __future__ import annotations

from .finite_field import Field, FieldElem, _poly_mul_mod

MAX_PRECISION = 64


class GaloisRingElem:
    """Element of a GaloisRing, held as a little-endian coefficient tuple."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: GaloisRing, coeffs: tuple[int, ...]):
        self.ring = ring
        self.coeffs = coeffs

    def _check(self, other) -> GaloisRingElem:
        if not isinstance(other, GaloisRingElem) or other.ring is not self.ring:
            raise ValueError("mixed-ring operands")
        return other

    def __add__(self, other):
        other = self._check(other)
        pk = self.ring.pk
        return GaloisRingElem(
            self.ring, tuple((a + b) % pk for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        other = self._check(other)
        pk = self.ring.pk
        return GaloisRingElem(
            self.ring, tuple((a - b) % pk for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        pk = self.ring.pk
        return GaloisRingElem(self.ring, tuple(-a % pk for a in self.coeffs))

    def __mul__(self, other):
        other = self._check(other)
        ring = self.ring
        return GaloisRingElem(ring, tuple(_poly_mul_mod(self.coeffs, other.coeffs, ring.modulus, ring.pk)))

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative ring powers not supported")
        r = self.ring.one
        base = self
        while k:
            if k & 1:
                r = r * base
            base = base * base
            k >>= 1
        return r

    def __eq__(self, other):
        return (
            isinstance(other, GaloisRingElem)
            and other.ring is self.ring
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((id(self.ring), self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def congruent_mod(self, other: GaloisRingElem, p_exponent: int) -> bool:
        """Equality of coefficients mod p^p_exponent."""
        other = self._check(other)
        if p_exponent > self.ring.k:
            raise ValueError("precision exceeds the ring's")
        m = self.ring.p**p_exponent
        return all((a - b) % m == 0 for a, b in zip(self.coeffs, other.coeffs))

    def to_field(self) -> FieldElem:
        """Reduction mod p, as an element of the companion field."""
        return self.ring.field.from_coeffs([c % self.ring.p for c in self.coeffs])

    def __repr__(self):
        return f"GR({self.ring.p}^{self.ring.k},{self.ring.degree}):{self.coeffs}"


class GaloisRing:
    """Z/p^k[X]/(modulus); modulus monic with coefficients mod p^k, reducing mod p to field's."""

    def __init__(self, p: int, k: int, modulus: tuple[int, ...], field: Field):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.p = p
        self.k = k
        self.pk = p**k
        modulus = tuple(c % self.pk for c in modulus)
        if modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        self.modulus = modulus
        self.degree = len(modulus) - 1
        self.field = field
        if field.p != p or field.degree != self.degree:
            raise ValueError("companion field does not match the ring")
        if any((mc - fc) % p for mc, fc in zip(modulus, field.modulus)):
            raise ValueError("modulus does not reduce to the field modulus")
        self.zero = self.elem(())
        self.one = self.elem((1,))
        self.gen = self.elem((0, 1))  # X; the field degree 2t is at least 2
        # herm_char_value memo: x.enc -> T(x)^(q+1); (ell, acc.coeffs) -> acc^E
        self._norm: dict[int, GaloisRingElem] = {}
        self._char: dict[tuple[int, tuple[int, ...]], GaloisRingElem] = {}

    def elem(self, coeffs) -> GaloisRingElem:
        coeffs = list(coeffs)
        if len(coeffs) > self.degree:
            raise ValueError("too many coefficients")
        coeffs += [0] * (self.degree - len(coeffs))
        return GaloisRingElem(self, tuple(c % self.pk for c in coeffs))

    def teichmuller(self, x: FieldElem) -> GaloisRingElem:
        """The Teichmüller lift T(x): reduces to x, fixed by ^(p^degree)."""
        if x.field is not self.field:
            raise ValueError("element does not belong to the companion field")
        y = self.elem(x.coeffs)
        e = self.p**self.degree
        for _ in range(self.k + 2):
            nxt = y**e
            if nxt == y:
                break
            y = nxt
        else:
            raise AssertionError("Hensel iteration failed to converge")
        assert y.to_field() == x
        return y

    def __repr__(self):
        return f"GaloisRing(p={self.p}, k={self.k}, modulus={self.modulus})"


def make_ring(field: Field, k: int) -> GaloisRing:
    """GR(p^k, 2t) over `field`, modulus lifted so its roots are Teichmüller."""
    if k > MAX_PRECISION:
        raise ValueError(f"ring precision k = {k} exceeds {MAX_PRECISION}")
    p, d = field.p, field.degree
    naive = GaloisRing(p, k, field.modulus, field)
    tau = naive.teichmuller(field.elem(p))  # the lift of X, whose encoding is p
    # minimal polynomial of tau: product of (Y - tau^(p^i)) over the orbit
    poly = [naive.one]  # coefficients in the scratch ring, little-endian in Y
    conj = tau
    for _ in range(d):
        new = [naive.zero] * (len(poly) + 1)
        for j, coeff in enumerate(poly):
            new[j + 1] = new[j + 1] + coeff
            new[j] = new[j] - conj * coeff
        poly = new
        conj = conj**p
    assert conj == tau, "conjugate orbit did not close"
    lifted = []
    for c in poly:
        if any(c.coeffs[1:]):
            raise AssertionError("lifted modulus coefficient not a scalar")
        lifted.append(c.coeffs[0])
    assert lifted[-1] == 1
    ring = GaloisRing(p, k, tuple(lifted), field=field)
    assert ring.gen ** (p**d) == ring.gen, "modulus roots are not Teichmüller"
    return ring


def herm_char_value(ring: GaloisRing, point, ell: int) -> GaloisRingElem:
    """(sum_i T(x_i)^(q+1))^(q^(2l+1) - q^(2l)) in the ring.

    Needs ring precision k >= 2*t*l so that arithmetic mod q^(2l) is faithful.
    The lifted norms and the final power are memoised on the ring, the power
    keyed by (ell, exact coefficients of the sum); the result is the same
    element the uncached evaluation gives, and the guard runs before any lookup.
    """
    field = ring.field
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if ring.k < 2 * field.t * ell:
        raise ValueError(
            f"ring precision k = {ring.k} < 2*t*ell = {2 * field.t * ell}"
        )
    q = field.q
    acc = ring.zero
    for x in point:
        if x.field is not field:
            raise ValueError("element does not belong to the companion field")
        norm = ring._norm.get(x.enc)
        if norm is None:
            norm = ring._norm[x.enc] = ring.teichmuller(x) ** (q + 1)
        acc = acc + norm
    key = (ell, acc.coeffs)
    val = ring._char.get(key)
    if val is None:
        val = ring._char[key] = acc ** (q ** (2 * ell + 1) - q ** (2 * ell))
    return val
