import random
from collections import Counter

import pytest

from unitals.finite_field import field_for_q, make_field, norm_q
from unitals.galois_ring import (
    GaloisRing,
    herm_char_value,
    make_ring,
)
from unitals.proj_geom import enum_points
from unitals.varieties import HermitianForm, hermitian_variety

from reference_oracles import herm_char_value_uncached, teichmuller_set


def test_ring_arithmetic_basics():
    f = make_field(2, 1)
    r = make_ring(f, 3)  # Z/8[X]/(F), deg 2
    assert r.pk == 8 and r.degree == 2
    a = r.elem([3, 5])
    b = r.elem([7, 1])
    assert (a + b).coeffs == (2, 6)
    assert (a - b).coeffs == (4, 4)
    assert (-b).coeffs == (1, 7)
    assert a + r.zero == a
    assert a * r.one == a
    assert a * b == b * a
    assert a**0 == r.one and a**1 == a and a**2 == a * a
    with pytest.raises(ValueError):
        a ** -1
    with pytest.raises(ValueError):
        a + make_ring(make_field(3, 1), 2).one
    assert r.elem((11,)).coeffs == (3, 0)
    assert a.congruent_mod(a + r.elem((4,)), 2)
    with pytest.raises(ValueError, match="precision exceeds the ring's"):
        a.congruent_mod(b, 4)  # the ring holds 2^3
    with pytest.raises(ValueError):
        r.elem([1, 2, 3])


@pytest.mark.parametrize("q", [2, 3, 4])
def test_ring_subtraction_adds_the_negation(q):
    f = field_for_q(q)
    r = make_ring(f, 2 * f.t)
    rng = random.Random(q)
    for _ in range(50):
        a, b = (r.elem([rng.randrange(r.pk) for _ in range(r.degree)]) for _ in range(2))
        assert a - b == a + (-b)
        assert (a - b).coeffs == tuple((x - y) % r.pk for x, y in zip(a.coeffs, b.coeffs))


def test_ring_subtraction_refuses_mixed_rings():
    a = make_ring(make_field(2, 1), 3).one
    for other in (make_ring(make_field(3, 1), 2).one, make_ring(make_field(2, 1), 2).one):
        with pytest.raises(ValueError, match="mixed-ring operands"):
            a - other


def test_congruent_mod_refuses_negative_precision():
    r = make_ring(make_field(2, 1), 3)
    a = r.elem([3, 5])
    with pytest.raises(ValueError, match="negative precision"):
        a.congruent_mod(a, -1)  # p^-1 would be a float modulus
    assert a.congruent_mod(r.elem([1, 0]), 0)  # everything agrees mod p^0


def test_elem_refuses_non_int_coefficients():
    r = make_ring(field_for_q(3), 2)
    for bad in ((1.5,), (0, 2.0), ("1",)):
        with pytest.raises(ValueError, match="ring coefficients must be ints"):
            r.elem(bad)
    assert r.elem((-1, 10)).coeffs == (8, 1)


def test_ring_elem_truth():
    r = make_ring(make_field(2, 2), 2)  # Z/4[X]/(F), deg 4
    assert not r.zero and not r.elem((4, 0, 8, 0))  # coefficients reduce mod 4
    assert r.elem((0, 1))  # X
    assert r.elem((0, 0, 0, 2))  # only the X^3 coefficient, 2 mod 4


def test_ring_reprs():
    r = make_ring(make_field(2, 1), 3)
    assert repr(r) == "GaloisRing(p=2, k=3, modulus=(1, 1, 1))"
    assert repr(r.elem([3, 5])) == "GR(2^3,2):(3, 5)"


def test_ring_validation():
    f = make_field(2, 1)
    with pytest.raises(ValueError):
        GaloisRing(2, 0, (1, 1, 1), field=f)
    with pytest.raises(ValueError):
        GaloisRing(2, 2, (1, 1, 2), field=f)  # not monic
    with pytest.raises(ValueError):
        GaloisRing(2, 2, (0, 1, 1), field=f)  # wrong reduction mod 2
    with pytest.raises(ValueError):
        GaloisRing(3, 2, (1, 1, 1), field=f)  # wrong characteristic


def test_make_ring_lifts_field_modulus():
    for p, t, k in [(2, 1, 2), (2, 1, 4), (3, 1, 2), (2, 2, 2)]:
        f = make_field(p, t)
        r = make_ring(f, k)
        assert r.field is f
        # reduces to the field modulus
        assert all((a - b) % p == 0 for a, b in zip(r.modulus, f.modulus))
        # X is a Teichmüller unit of the lifted modulus
        assert r.gen ** (p ** (2 * t)) == r.gen


def test_teichmuller_reduction_and_multiplicativity():
    f = make_field(3, 1)
    r = make_ring(f, 2)
    e = 3**2
    for x in f.elements:
        tx = r.teichmuller(x)
        assert tx.to_field() == x
        assert tx**e == tx
        for y in f.elements:
            assert r.teichmuller(x * y) == tx * r.teichmuller(y)
    with pytest.raises(ValueError):
        r.teichmuller(make_field(2, 1).one)


def test_teichmuller_set_is_exactly_the_lifts():
    f = make_field(2, 1)
    r = make_ring(f, 2)
    lifted = {r.teichmuller(x) for x in f.elements}
    assert set(teichmuller_set(r)) == lifted
    assert len(lifted) == f.size


def test_teichmuller_prime_field_values():
    # GR(9, 2) over GF(9): the prime subfield lifts to {0, 1, 8}
    f = make_field(3, 1)
    r = make_ring(f, 2)
    assert r.teichmuller(f.zero).coeffs == (0, 0)
    assert r.teichmuller(f.one).coeffs == (1, 0)
    assert r.teichmuller(-f.one).coeffs == (8, 0)


@pytest.mark.parametrize("q,ell", [(2, 1), (3, 1), (2, 2)])
def test_subfield_truncated_additivity(q, ell):
    """T(a+b) = (T(a)+T(b))^(q^ell) mod q^ell for a, b in GF(q)."""
    f = field_for_q(q)
    t = f.t
    r = make_ring(f, 2 * t * ell)
    qe = q**ell
    sub = tuple(map(f.elem, f.subfield_encs))
    for a in sub:
        for b in sub:
            left = r.teichmuller(a + b)
            right = (r.teichmuller(a) + r.teichmuller(b)) ** qe
            assert left.congruent_mod(right, t * ell)


@pytest.mark.parametrize("q,ell", [(2, 1), (3, 1)])
def test_full_field_truncated_additivity(q, ell):
    """T(a+b) = (T(a)+T(b))^(q^(2ell)) mod q^(2ell) over all of GF(q^2)."""
    f = field_for_q(q)
    t = f.t
    r = make_ring(f, 2 * t * ell)
    qe = f.size**ell
    for a in f.elements:
        for b in f.elements:
            left = r.teichmuller(a + b)
            right = (r.teichmuller(a) + r.teichmuller(b)) ** qe
            assert left.congruent_mod(right, 2 * t * ell)


@pytest.mark.parametrize("q", [2, 3])
def test_teichmuller_power_sums(q):
    """sum_x T(x)^j mod p^k: q^2 at j = 0, q^2-1 at j = q^2-1, else 0."""
    f = field_for_q(q)
    r = make_ring(f, 2)
    m = f.size - 1
    for j in range(m + 1):
        tot = r.zero
        for x in f.elements:
            tot = tot + r.teichmuller(x) ** j
        if j == 0:
            assert tot == r.elem((f.size,))
        elif j == m:
            assert tot == r.elem((m,))
        else:
            assert tot == r.zero


@pytest.mark.parametrize("q,ell", [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2)])
def test_herm_char_value(q, ell):
    """The ring-side indicator of the complement of the Hermitian curve.

    The memoised value is the uncached ring element itself, not just congruent to it.
    """
    f = field_for_q(q)
    t = f.t
    r = make_ring(f, 2 * t * ell)
    H = hermitian_variety(HermitianForm.identity(2, f))
    zero, one = r.zero, r.one
    for i, pt in enumerate(enum_points(2, f)):
        val = herm_char_value(r, pt, ell)
        assert val == herm_char_value_uncached(r, pt, ell)
        want = zero if i in H else one
        assert val.congruent_mod(want, 2 * t * ell)
        # double check against the field-side norm sum
        norm_sum = sum((norm_q(x) for x in pt), f.zero)
        assert (norm_sum == f.zero) == (i in H)


@pytest.mark.parametrize("q", [2, 3])
def test_herm_char_value_memo_interleaved(q):
    """Two ells on one ring, and two rings over one field, never share a memo entry."""
    f = field_for_q(q)
    wide, narrow = make_ring(f, 4 * f.t), make_ring(f, 2 * f.t)
    for pt in enum_points(2, f):
        for ring, ell in ((wide, 1), (wide, 2), (narrow, 1)):
            got = herm_char_value(ring, pt, ell)
            want = herm_char_value_uncached(ring, pt, ell)
            assert got.ring is ring and got.coeffs == want.coeffs


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_norm_table_is_the_lifted_norms(q):
    """The table read off T(g) holds T(x)^(q+1), lifted one element at a time, for every x."""
    f = field_for_q(q)
    r = make_ring(f, 2 * f.t)
    ids, values = r.norm_table()
    assert len(ids) == f.size and len(values) == q == len(set(values))
    for x in f.elements:
        assert values[ids[x.enc]] == (r.teichmuller(x) ** (q + 1)).coeffs


def test_charfn_pass_lifts_once_per_ring(monkeypatch):
    """A full pass over PG(2, 81) makes one lift on the scratch ring of make_ring and one on the ring."""
    counts = Counter()
    lift = GaloisRing.teichmuller

    def counted(ring, x):
        counts[ring] += 1
        return lift(ring, x)

    monkeypatch.setattr(GaloisRing, "teichmuller", counted)
    f = field_for_q(9)
    r = make_ring(f, 2 * f.t)
    for pt in enum_points(2, f):
        herm_char_value(r, pt, 1)
    assert counts[r] == 1
    assert sorted(counts.values()) == [1, 1]


def test_herm_char_value_refuses_the_zero_vector():
    f = field_for_q(3)
    r = make_ring(f, 2)
    with pytest.raises(ValueError, match="no projective point"):
        herm_char_value(r, (f.zero, f.zero, f.zero), 1)
    with pytest.raises(ValueError, match="no projective point"):
        herm_char_value(r, (), 1)
    assert herm_char_value(r, (f.zero, f.zero, f.one), 1) == r.one


def test_make_ring_precision_bound():
    f = field_for_q(9)
    assert make_ring(f, 64).k == 64
    with pytest.raises(ValueError, match="exceeds 64"):
        make_ring(f, 65)


def test_herm_char_value_precision_guard():
    f = make_field(2, 1)
    r = make_ring(f, 1)
    pt = enum_points(2, f)[0]
    with pytest.raises(ValueError):
        herm_char_value(r, pt, 1)
    with pytest.raises(ValueError):
        herm_char_value(make_ring(f, 2), pt, 0)
    # the guards run before any memo lookup: a cached point with too large an
    # ell, or a point over another field whose encodings are cached, still raises
    r2 = make_ring(f, 2)
    herm_char_value(r2, pt, 1)
    with pytest.raises(ValueError):
        herm_char_value(r2, pt, 2)
    with pytest.raises(ValueError):
        herm_char_value(r2, enum_points(2, make_field(2, 2))[0], 1)
