"""Slow, direct reference routes that the tests compare the library against.

None of these run in the library itself: each one is the textbook way to
compute something that `src/unitals` computes a faster way.
"""

import functools
import itertools

from unitals.finite_field import _is_irreducible, frobenius
from unitals.galois_ring import GaloisRing, GaloisRingElem
from unitals.proj_geom import PointSet, enum_points

_TEICH_ENUM_LIMIT = 1 << 16


def mat_mul(A, B):
    """The product of two FieldElem matrices (tuples of row tuples)."""
    r = len(A)
    k = len(B)
    c = len(B[0])
    field = A[0][0].field
    out = []
    for i in range(r):
        row = []
        for j in range(c):
            acc = field.zero
            for s in range(k):
                acc = acc + A[i][s] * B[s][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def hermitian_variety_by_evaluation(form) -> PointSet:
    """All points P with conj(P)^T C P = 0, the form evaluated at every point by mat_mul."""
    f, t = form.field, form.field.t
    members = []
    for i, x in enumerate(enum_points(form.n, f)):
        conj_row = (tuple(frobenius(c, t) for c in x),)
        if not mat_mul(conj_row, mat_mul(form.matrix, tuple((c,) for c in x)))[0][0]:
            members.append(i)
    return PointSet(form.n, f, tuple(members))


def herm_char_value_uncached(ring: GaloisRing, point, ell: int) -> GaloisRingElem:
    """(sum_i T(x_i)^(q+1))^(q^(2l+1) - q^(2l)), one full ring power per point."""
    q = ring.field.q
    acc = ring.zero
    for x in point:
        acc = acc + ring.teichmuller(x) ** (q + 1)
    return acc ** (q ** (2 * ell + 1) - q ** (2 * ell))


def teichmuller_set(ring: GaloisRing) -> tuple[GaloisRingElem, ...]:
    """All ring elements fixed by the (p^degree)-power map, by enumerating the ring."""
    if ring.pk**ring.degree > _TEICH_ENUM_LIMIT:
        raise ValueError("ring too large to enumerate")
    e = ring.p**ring.degree
    elems = (GaloisRingElem(ring, c) for c in itertools.product(range(ring.pk), repeat=ring.degree))
    return tuple(el for el in elems if el**e == el)


@functools.cache
def irreducible_moduli(p: int, d: int) -> list[tuple[int, ...]]:
    """Every monic irreducible polynomial of degree d over GF(p), little-endian."""
    moduli = [low + (1,) for low in itertools.product(range(p), repeat=d)]
    return [m for m in moduli if _is_irreducible(m, p)]
