import pytest
from hypothesis import given, settings, strategies as st

from unitals.finite_field import (
    Field,
    FieldElem,
    abs_trace,
    field_for_q,
    frobenius,
    is_prime,
    is_square,
    make_field,
    norm_q,
    trace_q,
)

SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1)]


def test_deterministic_moduli():
    # lexicographically smallest monic irreducible, constant term first
    assert make_field(2, 1).modulus == (1, 1, 1)
    assert make_field(3, 1).modulus == (1, 0, 1)
    assert make_field(2, 2).modulus == (1, 0, 0, 1, 1)
    assert make_field(5, 1).modulus == (1, 1, 1)
    assert repr(make_field(2, 2)) == "Field(p=2, t=2, modulus=(1, 0, 0, 1, 1))"


def test_make_field_is_cached_and_validated():
    assert make_field(3, 1) is make_field(3, 1)
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        make_field(2, 9)  # 2^18 over the size limit
    with pytest.raises(ValueError):
        make_field(2, 1, (1, 0, 1))  # x^2+1 = (x+1)^2 over GF(2)


def test_field_without_a_modulus_matches_make_field():
    """Field(p, t) picks make_field's default modulus itself, so both build the same tables."""
    for p, t in SMALL_FIELDS:
        f, g = Field(p, t), make_field(p, t)
        assert f is not g
        assert (f.modulus, f.generator, f._exp, f._log, f.subfield_encs) == (
            g.modulus, g.generator, g._exp, g._log, g.subfield_encs,
        )


def test_element_level_refusals():
    f = make_field(3, 1)  # GF(9) over GF(3)
    with pytest.raises(ValueError, match="encoding 9 out of range for GF"):
        f.elem(f.size)
    with pytest.raises(ValueError, match="too many coefficients"):
        f.from_coeffs([1] * (2 * f.t + 1))
    with pytest.raises(ValueError, match="frobenius power must be >= 0"):
        f.frob_enc(f.gen.enc, -1)
    with pytest.raises(ValueError, match="is_square takes an element of the subfield"):
        is_square(f.gen)  # order 8 exceeds q-1 = 2, so gen lies outside GF(3)


def test_field_for_q():
    assert field_for_q(4) is make_field(2, 2)
    assert field_for_q(5) is make_field(5, 1)
    with pytest.raises(ValueError):
        field_for_q(6)


@pytest.mark.parametrize("p,t", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, t):
    f = make_field(p, t)
    E = f.elements
    zero, one = f.zero, f.one
    for a in E:
        assert a + zero == a and a * one == a and a * zero == zero
        assert a - a == zero
        if a:
            assert a / a == one
            assert a * (one / a) == one
        for b in E:
            assert a + b == b + a
            assert a * b == b * a
    # associativity and distributivity on the smaller fields only
    if f.size <= 16:
        for a in E:
            for b in E:
                for c in E:
                    assert (a + b) + c == a + (b + c)
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("p,t", SMALL_FIELDS)
def test_pow_and_order(p, t):
    f = make_field(p, t)
    n = f.size - 1
    for a in f.elements:
        if a:
            assert a**n == f.one
            assert a ** (n + 1) == a
            assert a**-1 == f.one / a
    assert f.zero**0 == f.one
    assert f.zero**5 == f.zero
    with pytest.raises(ZeroDivisionError):
        f.zero**-1
    with pytest.raises(ZeroDivisionError):
        f.one / f.zero


@pytest.mark.parametrize("p,t", SMALL_FIELDS)
def test_frobenius_is_additive_automorphism(p, t):
    f = make_field(p, t)
    for x in f.elements:
        assert frobenius(x, 2 * t) == x
        assert frobenius(x, 1) == x**p
        for y in f.elements:
            assert frobenius(x + y, 1) == frobenius(x, 1) + frobenius(y, 1)
            assert frobenius(x * y, 1) == frobenius(x, 1) * frobenius(y, 1)


@pytest.mark.parametrize("p,t", SMALL_FIELDS)
def test_subfield_and_norm_trace(p, t):
    f = make_field(p, t)
    q = f.q
    sub = tuple(map(f.elem, f.subfield_encs))
    assert len(sub) == q
    subset = set(sub)
    for x in sub:
        for y in sub:
            assert x + y in subset and x * y in subset
    # norm fibers: each nonzero value of GF(q) hit exactly q+1 times
    fibers = {}
    for x in f.elements:
        nx = norm_q(x)
        assert nx in subset
        if x:
            fibers[nx.enc] = fibers.get(nx.enc, 0) + 1
    assert set(fibers) == {e for e in f.subfield_encs if e}
    assert all(v == q + 1 for v in fibers.values())
    # trace lands in GF(q) and is GF(q)-linearly surjective
    traces = {trace_q(x).enc for x in f.elements}
    assert traces == set(f.subfield_encs)
    for x in f.elements:
        assert trace_q(x) in subset


@pytest.mark.parametrize("p,t", SMALL_FIELDS)
def test_abs_trace(p, t):
    f = make_field(p, t)
    vals = {}
    for e in f.subfield_encs:
        v = abs_trace(f.elem(e))
        assert 0 <= v < p
        vals[v] = vals.get(v, 0) + 1
    # absolute trace is onto GF(p) with equal fibers
    assert all(vals.get(c, 0) == f.q // p for c in range(p))
    assert frobenius(f.gen, f.t) != f.gen  # not in GF(q): order q^2-1 exceeds q-1
    with pytest.raises(ValueError):
        abs_trace(f.gen)


def test_is_square():
    f = make_field(3, 1)
    assert is_square(f.zero) and is_square(f.one)
    nonsquares = [e for e in f.subfield_encs if not is_square(f.elem(e))]
    assert len(nonsquares) == (f.q - 1) // 2
    with pytest.raises(ValueError):
        is_square(make_field(2, 1).one)  # even q rejected
    squares = {(f.elem(e) * f.elem(e)).enc for e in f.subfield_encs}
    for e in f.subfield_encs:
        assert is_square(f.elem(e)) == (e in squares)


def test_encoding_round_trip():
    f = make_field(5, 1)
    for x in f.elements:
        assert f.from_coeffs(x.coeffs) is x
        assert x.enc == sum(c * 5**i for i, c in enumerate(x.coeffs))


def test_mixed_field_operands_rejected():
    a = make_field(2, 1).one
    b = make_field(3, 1).one
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b
    assert a != b  # equality across fields is False, not an error
    with pytest.raises(TypeError):
        a + 1


def test_generator_generates():
    for p, t in SMALL_FIELDS:
        f = make_field(p, t)
        seen = set()
        x = f.one
        for _ in range(f.size - 1):
            seen.add(x.enc)
            x = x * f.gen
        assert x == f.one and len(seen) == f.size - 1


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


# GF(37^2) has no addition table, so add_enc takes the digit-wise route there
KERNEL_FIELDS = SMALL_FIELDS + [(3, 2), (2, 3), (37, 1)]


@settings(max_examples=200, deadline=None)
@given(pt=st.sampled_from(KERNEL_FIELDS), data=st.data())
def test_kernel_matches_slow_reference(pt, data):
    """The table-backed mul_enc/add_enc agree with polynomial and digit arithmetic."""
    f = make_field(*pt)
    a = data.draw(st.integers(0, f.size - 1))
    b = data.draw(st.integers(0, f.size - 1))
    assert f.mul_enc(a, b) == f._mul_slow(a, b)
    assert f.add_enc(a, b) == f._add_digits(a, b)


@settings(max_examples=200, deadline=None)
@given(pt=st.sampled_from(KERNEL_FIELDS), data=st.data())
def test_row_kernels_match_add_and_mul(pt, data):
    """add_row_enc is add_enc over a list; multiples_enc lists c*x for c = 0, g^0, g^1, ..."""
    f = make_field(*pt)
    b = data.draw(st.integers(0, f.size - 1))
    xs = data.draw(st.lists(st.integers(0, f.size - 1), max_size=20))
    assert f.add_row_enc(b, xs) == [f.add_enc(b, x) for x in xs]
    x = data.draw(st.integers(0, f.size - 1))
    coeffs = [0] + [f.pow_enc(f.generator, e) for e in range(f.size - 1)]
    assert f.multiples_enc(x) == [f.mul_enc(c, x) for c in coeffs]


@pytest.mark.parametrize("p,t", KERNEL_FIELDS)
def test_neg_enc_is_the_additive_inverse(p, t):
    """a + (-a) = 0 by digit addition for every a, also where there is no addition table."""
    f = make_field(p, t)
    assert all(f._add_digits(a, f.neg_enc(a)) == 0 for a in range(f.size))


@pytest.mark.parametrize("p,t", KERNEL_FIELDS)
def test_frob_enc_matches_slow_power(p, t):
    """frob_enc(a, k) = a^(p^k) by polynomial arithmetic, for k = 0..2t and a spread of a with 0."""
    f = make_field(p, t)
    for a in sorted({0, 1, f.generator, f.size - 1, *range(0, f.size, max(1, f.size // 17))}):
        assert [f.frob_enc(a, k) for k in range(2 * t + 1)] == [f._pow_slow(a, p**k) for k in range(2 * t + 1)]
