import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from unitals.finite_field import field_for_q, make_field
from unitals.padic_invariants import (
    digit_sum,
    enum_basis_monomials,
    factorial_val,
    invariant_exponent,
    monomial_invariant_exponent,
    multinomial_val,
    snf_valuation_multiset,
    theta_bound,
    type_of,
    val_p,
)
from unitals.proj_geom import MAX_POINTS, incidence_matrix


def _fraction_snf(matrix, p: int) -> tuple[int, ...]:
    """Reference oracle: exact elimination over Z_(p) in Fraction arithmetic.

    Each step pivots on an entry of minimal p-valuation (its valuation is the
    next divisor's) and clears its column; nothing is reduced mod p^k.  Its
    entries grow, so it serves only small matrices.
    """

    def vp(x: Fraction) -> int:
        return val_p(x.numerator, p) - val_p(x.denominator, p)

    rows = [[Fraction(x) for x in row] for row in matrix]
    vals: list[int] = []
    live_rows = list(range(len(rows)))
    live_cols = list(range(len(rows[0]))) if rows else []
    while live_rows and live_cols:
        nonzero = [(vp(rows[ri][ci]), ri, ci) for ri in live_rows for ci in live_cols if rows[ri][ci]]
        if not nonzero:
            break  # remaining block is zero
        v, pi, pj = min(nonzero)
        vals.append(v)
        prow = rows[pi]
        for ri in live_rows:
            if ri != pi and rows[ri][pj]:
                f = rows[ri][pj] / prow[pj]
                row = rows[ri]
                for ci in live_cols:
                    row[ci] -= f * prow[ci]
        live_rows.remove(pi)
        live_cols.remove(pj)
    return tuple(sorted(vals))


def test_digit_sum_and_val():
    assert digit_sum(0, 3) == 0
    assert digit_sum(26, 3) == 6  # 222 base 3
    assert digit_sum(8, 2) == 1
    assert val_p(8, 2) == 3
    assert val_p(18, 3) == 2
    assert val_p(7, 5) == 0
    with pytest.raises(ValueError):
        val_p(0, 3)


def test_factorial_val_matches_direct():
    import math

    for p in (2, 3, 5):
        for n in range(1, 40):
            assert factorial_val(n, p) == val_p(math.factorial(n), p)
        assert factorial_val(0, p) == 0


def test_multinomial_val():
    import math

    # v_p(10 choose 4)
    for p in (2, 3):
        got = multinomial_val(10, (4, 6), p)
        assert got == val_p(math.comb(10, 4), p)
    assert multinomial_val(6, (2, 2, 2), 3) == val_p(
        math.factorial(6) // (2 * 2 * 2), 3
    )
    with pytest.raises(ValueError):
        multinomial_val(5, (2, 2), 3)  # parts must sum to total


@pytest.mark.parametrize("q", [2, 3])
def test_enum_basis_monomials(q):
    f = field_for_q(q)
    mons = enum_basis_monomials(2, f)
    m = f.size - 1
    assert (0, 0, 0) in mons
    assert (m, m, m) not in mons
    # the same tuples, in the same order, as a filter over all exponent tuples
    for n in (1, 2, 3):
        expect = [
            b
            for b in itertools.product(range(f.size), repeat=n + 1)
            if sum(b) % m == 0 and b != (m,) * (n + 1)
        ]
        assert list(enum_basis_monomials(n, f)) == expect
        # as many basis monomials as PG(n, q^2) has points
        assert len(expect) == (f.size ** (n + 1) - 1) // (f.size - 1)


def test_enum_basis_monomials_size_bound():
    with pytest.raises(ValueError, match=f"more than {MAX_POINTS} points"):
        enum_basis_monomials(10**9, field_for_q(2))
    with pytest.raises(ValueError, match=f"more than {MAX_POINTS} points"):
        enum_basis_monomials(2, field_for_q(32))


def test_type_of_known_example():
    # q = 2 (p = 2, t = 1), monomial (1, 2, 0): one low digit, one high digit
    tt = type_of((1, 2, 0), 2, 1)
    assert tt.lam == (1, 1)
    assert tt.s == (1, 1)
    # s_j solves lam_j = p s_{j+1} - s_j cyclically
    assert tt.lam == tuple(2 * tt.s[(j + 1) % 2] - tt.s[j] for j in range(2))
    assert tt.twisted_degrees == tuple(3 * sj for sj in tt.s)
    with pytest.raises(ValueError):
        type_of((0, 0, 0), 2, 1)
    with pytest.raises(ValueError):
        type_of((4, 0, 0), 2, 1)


@pytest.mark.parametrize("q", [2, 3])
def test_type_identities_exhaustive(q):
    f = field_for_q(q)
    p, t = f.p, f.t
    d = 2 * t
    for m in enum_basis_monomials(2, f):
        if all(b == 0 for b in m):
            continue
        tt = type_of(m, p, t)
        # digit recursion
        for j in range(d):
            assert tt.lam[j] == p * tt.s[(j + 1) % d] - tt.s[j]
        # total digit sum identity
        assert sum(digit_sum(b, p) for b in m) == (p - 1) * sum(tt.s)
        # s entries are within the obvious range for 3 variables
        assert all(1 <= sj <= 3 for sj in tt.s)


def test_invariant_exponent():
    assert invariant_exponent((1, 1), 2) == 2
    assert invariant_exponent((2, 1), 2) == 1
    assert invariant_exponent((3, 3), 2) == 0
    assert invariant_exponent((1, 2, 3, 1), 2) == 2
    with pytest.raises(ValueError):
        invariant_exponent((1, 1), 0)
    assert monomial_invariant_exponent((0, 0, 0), 2, 1, 2) == 0
    assert monomial_invariant_exponent((1, 2, 0), 2, 1, 2) == invariant_exponent(
        type_of((1, 2, 0), 2, 1).s, 2
    )


def test_snf_small_matrices():
    assert snf_valuation_multiset([[1, 0], [0, 1]], 2) == (0, 0)
    assert snf_valuation_multiset([[2, 0], [0, 4]], 2) == (1, 2)
    assert snf_valuation_multiset([[0, 0], [0, 0]], 2) == ()
    assert snf_valuation_multiset([], 2) == ()
    # row operations do not change the multiset
    assert snf_valuation_multiset([[2, 6], [0, 4]], 2) == (1, 2)
    # rank deficiency drops a divisor
    assert snf_valuation_multiset([[1, 2], [2, 4]], 3) == (0,)
    # odd entries are units in Z_(2)
    assert snf_valuation_multiset([[3, 0], [0, 5]], 2) == (0, 0)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_snf_divisors_beyond_the_first_precision(p):
    """Divisors of valuation 8 or more are found only after k doubles."""
    assert snf_valuation_multiset([[1, 0], [0, p**10]], p) == (0, 10)
    assert snf_valuation_multiset([[p**8, 0], [0, p**20]], p) == (8, 20)
    assert snf_valuation_multiset([[p**9, p**9], [p**9, p**9 + p**40]], p) == (9, 40)
    # a tall matrix: full rank is the column count
    assert snf_valuation_multiset([[p**12], [0], [3 * p**12]], p) == (12,)
    # one divisor near the Hadamard bound: stopping before p^(2k) > H^2 loses it
    assert snf_valuation_multiset([[0, p**10, 0], [0, 0, 0]], p) == (10,)
    # rank deficient with a large divisor: the Hadamard bound ends the doubling
    big = [[1, 0, 0], [0, p**30, 0], [1, p**30, 0]]
    assert snf_valuation_multiset(big, p) == (0, 30)
    assert snf_valuation_multiset(big, p) == _fraction_snf(big, p)


@st.composite
def _integer_matrices(draw):
    """Up to 8x8, entries in [-p^3, p^3], with zero, dependent and p-divisible rows mixed in."""
    p = draw(st.sampled_from([2, 3, 5]))
    n_rows = draw(st.integers(1, 8))
    n_cols = draw(st.integers(1, 8))
    entry = st.integers(-(p**3), p**3)
    rows = [draw(st.lists(entry, min_size=n_cols, max_size=n_cols)) for _ in range(n_rows)]
    for i in range(n_rows):
        kind = draw(st.sampled_from(["keep", "keep", "zero", "copy", "negate", "p_divisible"]))
        j = draw(st.integers(0, n_rows - 1))
        if kind == "zero":
            rows[i] = [0] * n_cols
        elif kind == "copy":
            rows[i] = list(rows[j])
        elif kind == "negate":
            rows[i] = [-x for x in rows[j]]
        elif kind == "p_divisible":  # pivots of valuation 1 or more
            small = draw(st.lists(st.integers(-(p**2), p**2), min_size=n_cols, max_size=n_cols))
            rows[i] = [p * x for x in small]
    return p, rows


@settings(max_examples=300, deadline=None)
@given(case=_integer_matrices())
def test_snf_matches_fraction_reference(case):
    p, rows = case
    assert snf_valuation_multiset(rows, p) == _fraction_snf(rows, p)


@pytest.mark.parametrize(
    "q,expected",
    [(2, {0: 10, 1: 2, 2: 9}), (3, {0: 37, 1: 18, 2: 36})],
)
def test_snf_matches_type_formula(q, expected):
    """The SNF of the line-point incidence matrix of PG(2,q^2) over Z_(p).

    The expected multisets were computed by the exact Fraction elimination
    and cross-checked against the monomial-type formula with r = 2; keeping
    them frozen here guards both routes at once.
    """
    f = field_for_q(q)
    A = incidence_matrix(2, 2, f).to_dense()
    vals = snf_valuation_multiset(A, f.p)
    assert dict(Counter(vals)) == expected
    assert vals == _fraction_snf(A, f.p)
    formula = Counter(
        monomial_invariant_exponent(m, f.p, f.t, 2)
        for m in enum_basis_monomials(2, f)
    )
    assert dict(formula) == expected


@pytest.mark.slow
def test_snf_matches_type_formula_pg_2_25():
    """The 651 x 651 line-point incidence matrix of PG(2,25), about 15 s."""
    f = field_for_q(5)
    vals = snf_valuation_multiset(incidence_matrix(2, 2, f).to_dense(), f.p)
    formula = sorted(monomial_invariant_exponent(m, f.p, f.t, 2) for m in enum_basis_monomials(2, f))
    assert list(vals) == formula
    assert dict(Counter(vals)) == {0: 226, 1: 200, 2: 225}


def test_theta_bound():
    # 2r <= n+1: the subspace exponent passes through unchanged
    assert theta_bound(3, 2, 1) == 1
    assert theta_bound(3, 2, 5) == 5
    # large r: the averaged ceiling kicks in
    assert theta_bound(2, 2, 1) == 1
    assert theta_bound(2, 2, 2) == 1
    assert theta_bound(2, 2, 3) == 2
    assert theta_bound(4, 3, 3) == 3  # alpha = 1, gamma = 1
    assert theta_bound(3, 3, 2) == 1
    with pytest.raises(ValueError):
        theta_bound(2, 1, 1)
    with pytest.raises(ValueError):
        theta_bound(2, 3, 1)
    with pytest.raises(ValueError):
        theta_bound(2, 2, 0)
