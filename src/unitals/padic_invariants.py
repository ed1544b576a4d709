"""p-adic invariants of point-subspace incidence in PG(n, q^2).

The elementary divisors of the incidence matrix A_{r,1} (r-subspaces vs
points) over Z are all powers of p, one per basis monomial.  Basis monomials
are exponent tuples (b_0, ..., b_n) with 0 <= b_i <= q^2-1 and q^2-1 dividing
the total degree, the all-(q^2-1) tuple excluded; their count equals the
number of points.

For a nonconstant monomial the type tuples are
    lambda_j = sum_i a_{i,j}          (base-p digits b_i = sum_j a_{i,j} p^j)
    s_j = (1/(q^2-1)) * sum_i (p^(2t-j) * b_i  mod  q^2-1)
where the reduction takes the least positive residue unless b_i itself is 0
(so a nonzero multiple of q^2-1 contributes q^2-1, never 0).  They satisfy
lambda_j = p*s_{j+1} - s_j (subscripts mod 2t) and the digit-sum identity
sum_i sigma_p(b_i) = (p-1) * sum_j s_j, with j running over the full range
0..2t-1 (a deliberate convention here; a truncated range fails already on the
simplest examples).

The p-exponent of the elementary divisor attached to a monomial with type s
is sum_j max(0, r - s_j); the constant monomial contributes exponent 0.  The
independent trust anchor is snf_valuation_multiset, an elimination over Z/p^k
that never reads the formula.  It is exact: divisors of valuation below k are
found exactly, and k doubles until all min(rows, cols) are found or p^k passes
the Hadamard bound, beyond which no nonzero divisor can lie.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .finite_field import Field
from .proj_geom import point_count


def digit_sum(u: int, p: int) -> int:
    """sigma_p(u): sum of base-p digits."""
    if u < 0:
        raise ValueError("digit_sum needs u >= 0")
    s = 0
    while u:
        s += u % p
        u //= p
    return s


def val_p(u: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if u == 0:
        raise ValueError("v_p(0) is not defined")
    u = abs(u)
    v = 0
    while u % p == 0:
        u //= p
        v += 1
    return v


def factorial_val(n: int, p: int) -> int:
    """v_p(n!) = (n - sigma_p(n)) / (p - 1)."""
    if n < 0:
        raise ValueError("factorial_val needs n >= 0")
    return (n - digit_sum(n, p)) // (p - 1)


def multinomial_val(total: int, parts, p: int) -> int:
    """v_p of the multinomial coefficient total! / prod(parts_i!).

    Equals (sum_i sigma_p(parts_i) - sigma_p(total)) / (p-1), the number of
    carries when adding the parts in base p.
    """
    parts = list(parts)
    if any(k < 0 for k in parts) or sum(parts) != total:
        raise ValueError("parts must be nonnegative and sum to total")
    num = sum(digit_sum(k, p) for k in parts) - digit_sum(total, p)
    assert num % (p - 1) == 0
    return num // (p - 1)


# ---------------------------------------------------------------------------
# basis monomials and their type tuples


def enum_basis_monomials(n: int, field: Field) -> tuple[tuple[int, ...], ...]:
    """All (b_0..b_n), 0 <= b_i <= q^2-1, (q^2-1) | sum, all-(q^2-1) dropped.

    Lexicographic order.  There are as many as PG(n, q^2) has points, so the
    same size bound applies before anything is built; b_n is solved from the
    other exponents rather than searched for.
    """
    point_count(n, field.size)
    m = field.size - 1
    out = []
    for head in itertools.product(range(field.size), repeat=n):
        last = -sum(head) % m
        out.append(head + (last,))
        if not last:
            out.append(head + (m,))
    out.remove((m,) * (n + 1))
    return tuple(out)


class TypeTuples(NamedTuple):
    lam: tuple[int, ...]
    s: tuple[int, ...]
    twisted_degrees: tuple[int, ...]  # (q^2-1) * s_j, degrees of the p^j twists


def type_of(m: tuple[int, ...], p: int, t: int) -> TypeTuples:
    """Type tuples of a nonconstant basis monomial."""
    d = 2 * t
    size = p**d
    modq = size - 1
    if all(b == 0 for b in m):
        raise ValueError("the constant monomial has no type")
    if any(b < 0 or b > modq for b in m):
        raise ValueError(f"exponents must lie in [0, {modq}]")
    s = []
    for j in range(d):
        shift = pow(p, d - j, modq)
        tot = 0
        for b in m:
            if b:
                r = (shift * b) % modq
                tot += r if r else modq
        assert tot % modq == 0
        s.append(tot // modq)
    lam = [sum((b // p**j) % p for b in m) for j in range(d)]
    for j in range(d):
        assert lam[j] == p * s[(j + 1) % d] - s[j], "digit recursion violated"
    return TypeTuples(
        lam=tuple(lam), s=tuple(s), twisted_degrees=tuple(modq * sj for sj in s)
    )


def invariant_exponent(s: tuple[int, ...], r: int) -> int:
    """p-exponent of the elementary divisor for a monomial of type s."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return sum(max(0, r - sj) for sj in s)


def monomial_invariant_exponent(m: tuple[int, ...], p: int, t: int, r: int) -> int:
    """invariant_exponent via type_of; the constant monomial gives 0."""
    if all(b == 0 for b in m):
        return 0
    return invariant_exponent(type_of(m, p, t).s, r)


# ---------------------------------------------------------------------------
# Smith-normal-form oracle: local elimination over Z/p^k with a certificate

# The first precision; p^8 certifies every incidence matrix of PG(2,4) to
# PG(2,25) and PG(3,4) in one pass.
_SNF_START_K = 8


def snf_valuation_multiset(matrix, p: int) -> tuple[int, ...]:
    """Sorted p-adic valuations of the nonzero elementary divisors of matrix.

    The integer matrix is eliminated over Z/p^k (see _snf_mod_pk).  Every
    divisor of valuation below k is found exactly, and a divisor of valuation
    k or more, or a zero divisor, looks like 0.  The result is certified when
    either the divisors found number min(rows, cols), so none is left, or
    p^(2k) exceeds the product H^2 of the squared norms of the min(rows, cols)
    largest rows: a nonzero divisor divides a nonzero minor, whose absolute
    value is at most H (Hadamard), so none has valuation k or more.  Otherwise
    k doubles.
    """
    return _snf_certified(matrix, p)[0]


def _snf_certified(matrix, p: int) -> tuple[tuple[int, ...], int]:
    """(snf_valuation_multiset(matrix, p), the k whose modulus p^k certified it)."""
    rows = [row for row in matrix if any(row)]
    full_rank = min(len(rows), len(rows[0])) if rows else 0
    hadamard_sq = math.prod(sorted((sum(x * x for x in row) for row in rows), reverse=True)[:full_rank])
    k = _SNF_START_K
    while True:
        vals = _snf_mod_pk(rows, p, k)
        if len(vals) == full_rank or p ** (2 * k) > hadamard_sq:
            return vals, k
        k *= 2


def _snf_mod_pk(matrix, p: int, k: int) -> tuple[int, ...]:
    """Sorted valuations below k of the elementary divisors, over Z/p^k.

    Each step pivots on an entry p^v * u (u a unit) of minimal valuation v,
    clears its column with factor (x // p^v) * u^-1 mod p^(k-v), then drops
    the pivot row, the pivot column and any row that became zero.
    """
    M = p**k
    rows = [r for r in ([x % M for x in row] for row in matrix) if any(r)]
    vals = []
    v, pv = 0, 1  # every live entry is divisible by pv = p^v
    while rows:
        pv1 = pv * p
        pivot = next(((i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x % pv1), None)
        if pivot is None:
            v, pv = v + 1, pv1
            continue
        i, j = pivot
        prow = rows.pop(i)
        mod = M // pv
        inv = pow(prow.pop(j) // pv, -1, mod)
        vals.append(v)
        live = []
        for row in rows:
            x = row.pop(j)
            if x:
                f = (x // pv) * inv % mod
                row = [(a - f * b) % M for a, b in zip(row, prow)]
                if not any(row):
                    continue
            live.append(row)
        rows = live
    return tuple(vals)


# ---------------------------------------------------------------------------
# the divisibility exponent for subspace sections


def theta_bound(n: int, r: int, beta: int) -> int:
    """Exponent theta with p^theta dividing every r-subspace section count.

    For a set satisfying the multiple-of-p^beta property in r-subspaces:
    theta = beta when 2r <= n+1, else
    theta = ceil((n-1)*alpha/2 + min((n-r+gamma)/2, gamma)) with
    alpha = floor(beta/(r-1)), gamma = beta - (r-1)*alpha.
    """
    if not 1 < r <= n:
        raise ValueError(f"r = {r} must lie in (1, {n}]")
    if beta < 1:
        raise ValueError("beta must be >= 1")
    if 2 * r <= n + 1:
        return beta
    alpha = beta // (r - 1)
    gamma = beta - (r - 1) * alpha
    doubled = (n - 1) * alpha + min(n - r + gamma, 2 * gamma)
    return -(-doubled // 2)
