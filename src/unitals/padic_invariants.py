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
the Hadamard bound, beyond which no nonzero divisor can lie.  It eliminates
the matrix or, when that is tall, its transpose (the same divisors), with each
row packed into one int of fixed-width slots, one slot per column: a row
operation is one big-integer multiply-add, and slots are reduced mod p^k only
when a row is read, with a width that no carry can cross.
"""

from __future__ import annotations

import array
import itertools
import math
import operator
import sys
from typing import NamedTuple

from .finite_field import Field, is_prime
from .proj_geom import point_count


def digit_sum(u: int, p: int) -> int:
    """sigma_p(u): sum of base-p digits."""
    if u < 0:
        raise ValueError("digit_sum needs u >= 0")
    if p < 2:
        raise ValueError(f"digit_sum needs a base p >= 2, not {p}")
    s = 0
    while u:
        s += u % p
        u //= p
    return s


def val_p(u: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if u == 0:
        raise ValueError("v_p(0) is not defined")
    if p < 2:
        raise ValueError(f"v_p needs p >= 2, not {p}")
    u = abs(u)
    v = 0
    while u % p == 0:
        u //= p
        v += 1
    return v


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
    return TypeTuples(lam=tuple(lam), s=tuple(s))


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
    k doubles.  Ragged rows and entries that are not ints raise ValueError.
    """
    return _snf_certified(matrix, p)[0]


def _snf_certified(matrix, p: int) -> tuple[tuple[int, ...], int]:
    """(snf_valuation_multiset(matrix, p), the k whose modulus p^k certified it); p must be prime."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not a prime")
    width = len(matrix[0]) if matrix else 0
    for row in matrix:
        if len(row) != width:
            raise ValueError(f"matrix rows have {width} and {len(row)} entries")
        if not all(map(isinstance, row, itertools.repeat(int))):
            raise ValueError("matrix entries must be integers")
    rows = [row for row in matrix if any(row)]
    full_rank = min(len(rows), width)
    hadamard_sq = math.prod(sorted((sum(map(operator.mul, row, row)) for row in rows), reverse=True)[:full_rank])
    k = _SNF_START_K
    while True:
        vals = _snf_mod_pk(rows, p, k)
        if len(vals) == full_rank or p ** (2 * k) > hadamard_sq:
            return vals, k
        k *= 2


# Native array and memoryview formats of the slot widths (bytes) that pack and unpack in one call.
_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _snf_mod_pk(matrix, p: int, k: int) -> tuple[int, ...]:
    """Sorted valuations below k of the elementary divisors, over Z/p^k.

    Each step pivots on the first entry, in row order, of least valuation v;
    the entry is p^v * u with u a unit.  Every other row R then loses f times
    the pivot row, where f = (R's entry // p^v) * u^-1 mod p^(k-v); rows that
    are 0 mod M = p^k drop out.  A tall matrix is transposed first, which
    keeps its elementary divisors.  A row with no entry of valuation v gets a
    factor f divisible by p, so it never gains one: the search for the next
    pivot of valuation v resumes where the last one was found.

    Each row is one int with a slot of fixed width per column, and a row
    operation is R += (M - f) * P, with P the pivot row reduced mod M once.
    Slots start in [0, M), each operation adds (M - f) * P_j < M^2 to a
    slot, and no row meets more operations than there are pivots, at most
    min(rows, cols).  So a slot stays below M + min(rows, cols) * M^2 and no
    carry crosses into the next; slots are reduced mod M only when a row is
    read, whole to find a pivot, or one entry for its pivot column.
    """
    M = p**k
    rows = [[x % M for x in row] for row in matrix]
    if rows and len(rows) > len(rows[0]):
        rows = list(zip(*rows))
    if not rows:
        return ()
    ncols = len(rows[0])
    width = -(-(M + min(len(rows), ncols) * M * M).bit_length() // 8)
    if width <= 8:
        width = 1 << (width - 1).bit_length()  # 1, 2, 4 or 8 bytes
    fmt, order, nbytes = _SLOT_FORMATS.get(width), sys.byteorder, ncols * width
    shift, mask = 8 * width, (1 << 8 * width) - 1

    def pack(entries) -> int:
        if fmt:
            return int.from_bytes(array.array(fmt, entries).tobytes(), order)
        return int.from_bytes(b"".join(x.to_bytes(width, order) for x in entries), order)

    def unpack(row: int) -> list[int]:
        data = row.to_bytes(nbytes, order)
        if fmt:
            return [x % M for x in memoryview(data).cast(fmt)]
        return [int.from_bytes(data[s : s + width], order) % M for s in range(0, nbytes, width)]

    live = [row for row in map(pack, rows) if row]
    vals = []
    v, pv = 0, 1  # every live entry is divisible by pv = p^v
    i = 0  # no row before live[i] has an entry of valuation v, nor can it gain one
    while live:
        pv1 = pv * p
        while i < len(live):
            entries = unpack(live[i])
            j = next((j for j, x in enumerate(entries) if x % pv1), None)
            if j is not None:
                break
            if any(entries):
                i += 1
            else:
                del live[i]
        else:
            v, pv, i = v + 1, pv1, 0
            continue
        del live[i]
        P = pack(entries)
        mod = M // pv
        inv = pow(entries[j] // pv, -1, mod)
        vals.append(v)
        s = j * shift
        for t, row in enumerate(live):
            x = (row >> s & mask) % M
            if x:
                live[t] = row + (M - (x // pv) * inv % mod) * P
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
