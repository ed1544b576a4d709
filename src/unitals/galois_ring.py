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
according as the point lies on or off the variety.  The lifted norms come
from one lift per ring, T(g) of the field's generator g: T(g^i)^(q+1) is
T(g)^((q+1)i), which depends on i mod q - 1 only, so the q distinct norms
(0 and the powers of T(g)^(q+1)) get small ids, and every field encoding its
id.  The final power is memoised exactly, on its ring, once per (l, ids of
the coordinates) and once per (l, coefficient tuple of the norm sum mod p^k).
The exponent is fixed by q and l, and a ring element by its reduced
coefficients, so a hit returns the very element that a fresh power would.
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
        return self + -self._check(other)

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
        if p_exponent < 0:
            raise ValueError("negative precision")
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
        # herm_char_value memos: (ell, norm ids of a point) and (ell, acc.coeffs) -> acc^E
        self._norms: tuple[tuple[int, ...], tuple[tuple[int, ...], ...]] | None = None
        self._by_ids: dict[tuple[int, ...], GaloisRingElem] = {}
        self._char: dict[tuple[int, tuple[int, ...]], GaloisRingElem] = {}

    def elem(self, coeffs) -> GaloisRingElem:
        coeffs = list(coeffs)
        if len(coeffs) > self.degree:
            raise ValueError("too many coefficients")
        if not all(isinstance(c, int) for c in coeffs):
            raise ValueError("ring coefficients must be ints")
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

    def norm_table(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """(ids, values): ids[x.enc] names T(x)^(q+1), whose coefficients are values[id].

        Built once per ring from the one lift T(g) of the field's generator g,
        certified by T(g)^(Q-1) = 1 and T(g) = g mod p: a unit of order
        dividing Q - 1 that reduces to g is the Teichmüller lift, so
        T(g^i)^(q+1) = w^(i mod q-1) with w = T(g)^(q+1).  Id 0 is the zero
        norm and id m + 1 is w^m.  Every entry is checked to reduce to x^(q+1).
        """
        if self._norms is None:
            field = self.field
            q, order = field.q, field.size - 1
            tg = self.teichmuller(field.gen)
            if tg ** order != self.one or tg.to_field() != field.gen:
                raise AssertionError("Teichmüller lift of the generator fails its certificate")
            w = tg ** (q + 1)
            norms = [self.zero, self.one]
            for _ in range(q - 2):
                norms.append(norms[-1] * w)
            ids = (0, *(field._log[x] % (q - 1) + 1 for x in range(1, field.size)))
            reduced = [y.to_field().enc for y in norms]
            if any(reduced[ids[x]] != field.pow_enc(x, q + 1) for x in range(field.size)):
                raise AssertionError("lifted norm does not reduce to the field norm")
            self._norms = ids, tuple(y.coeffs for y in norms)
        return self._norms

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
    The point is read as its coordinates' norm ids (GaloisRing.norm_table);
    the power is memoised on the ring by (ell, ids) and, behind that, by
    (ell, exact coefficients of the sum).  The result is the same element the
    uncached evaluation gives, and the guards run before any lookup.
    """
    field = ring.field
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if ring.k < 2 * field.t * ell:
        raise ValueError(
            f"ring precision k = {ring.k} < 2*t*ell = {2 * field.t * ell}"
        )
    ids, values = ring.norm_table()
    key = [ell]
    for x in point:
        if x.field is not field:
            raise ValueError("element does not belong to the companion field")
        key.append(ids[x.enc])
    if not any(key[1:]):  # id 0 is the norm of 0 alone
        raise ValueError("the zero vector is no projective point")
    key = tuple(key)
    val = ring._by_ids.get(key)
    if val is None:
        pk = ring.pk
        acc = tuple(sum(c) % pk for c in zip(*(values[i] for i in key[1:])))
        val = ring._char.get((ell, acc))
        if val is None:
            q = field.q
            val = ring._char[ell, acc] = GaloisRingElem(ring, acc) ** (q ** (2 * ell + 1) - q ** (2 * ell))
        ring._by_ids[key] = val
    return val
