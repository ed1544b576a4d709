"""Slow, direct reference routes that the tests compare the library against.

None of these run in the library itself: each one is the textbook way to
compute something that `src/unitals` computes a faster way, or, as
`_check_design` does for the plane axiom of a line table, certifies a fact
the library relies on without checking it.
"""

import collections
import functools
import itertools

from unitals.finite_field import Field, _is_irreducible, frobenius
from unitals.galois_ring import GaloisRing, GaloisRingElem
from unitals.proj_geom import IncidenceMatrix, PointSet, _image_enc, _mask_of, _space, enum_points
from unitals.varieties import (
    _FIT_ENUM_LIMIT,
    HermitianForm,
    _canonical_variety,
)

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


def image_by_mat_vec(M, S: PointSet) -> PointSet:
    """Image of S under x -> Mx (rows of encodings): one mat-vec and one normalising index_of per point."""
    sp = _space(S.n, S.field)
    pts, index_of, mat_vec = sp.points, sp.index_of, S.field.mat_vec_enc
    out = PointSet.of(S.n, S.field, [index_of(mat_vec(M, pts[i])) for i in S.members])
    assert len(out) == len(S)
    return out


def dense_by_bits(A: IncidenceMatrix) -> list[list[int]]:
    """The 0/1 rows of A, one shift of the packed row per entry."""
    return [
        [(r >> j) & 1 for j in range(A.n_cols)] for r in A.rows
    ]


def hermitian_variety_by_evaluation(form) -> PointSet:
    """All points P with conj(P)^T C P = 0, the form evaluated at every point by mat_mul."""
    f, t = form.field, form.field.t
    members = []
    for i, x in enumerate(enum_points(form.n, f)):
        conj_row = (tuple(frobenius(c, t) for c in x),)
        if not mat_mul(conj_row, mat_mul(form.matrix, tuple((c,) for c in x)))[0][0]:
            members.append(i)
    return PointSet(form.n, f, tuple(members))


def rank_enc(field: Field, M) -> int:
    """The rank of a matrix of encodings over the field, by Gaussian elimination."""
    rows = [list(r) for r in M]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv_enc(rows[rank][col])
        for r in range(rank + 1, len(rows)):
            f = field.neg_enc(field.mul_enc(rows[r][col], inv))
            rows[r] = [field.add_enc(a, field.mul_enc(f, b)) for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def det_by_leibniz(field: Field, M) -> int:
    """The determinant of a square matrix of encodings, summed over every permutation."""
    det = 0
    for perm in itertools.permutations(range(len(M))):
        term = 1
        for i, j in enumerate(perm):
            term = field.mul_enc(term, M[i][j])
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        det = field.add_enc(det, field.neg_enc(term) if inversions % 2 else term)
    return det


def hermitian_variety_by_frame(n: int, field, C) -> PointSet | None:
    """V(C) as the image M.H(I) under a unitary frame M of C (rows of encodings); None iff C is singular.

    Exact because x = My gives x^dagger C x = y^dagger M^dagger C M y = y^dagger y,
    and M is nonsingular.
    """
    M = unitary_frame(field, C)
    return None if M is None else _image_enc(M, _canonical_variety(n, field))


def unitary_frame(field: Field, C) -> tuple[tuple[int, ...], ...] | None:
    """Rows of encodings of M with M^dagger C M = I for C (rows of encodings); None iff C is singular.

    Hermitian Gram-Schmidt with h(u, w) = conj(u)^T C w on the columns of M, starting
    from the standard basis.  Each step takes the first remaining vector v with
    h(v, v) = d != 0 (when all are isotropic, first replaces basis[0] by basis[0] + lam*basis[j]
    for the first (j, lam) with h(w, w) = Tr(lam*h(basis[0], basis[j])) != 0, which exists on
    a nonsingular C, as some h(basis[0], basis[j]) != 0 and the trace is onto GF(q)),
    scales v by s = g^(-log(d)/(q+1)) so that h(v, v) = N(s)*d = 1, and projects
    b -> b - h(v, b)*v off every remaining vector.  d lies in GF(q)*, the (q+1)-th
    powers of GF(q^2)*, so q+1 divides log(d).  M^dagger C M = I, whence
    det(C)*N(det M) = 1, is recomputed from M before M is returned; AssertionError if not.
    """
    f, n1 = field, len(C)
    add, mul, neg, log, exp = f.add_enc, f.mul_enc, f.neg_enc, f._log, f._exp

    # each basis vector b carries C b in its last n+1 slots; every step below is linear in b
    def h(u, w):
        return f.conj_dot_enc(u[:n1], w[n1:])

    def axpy(a, x, y):  # a*x + y
        return [add(mul(a, xi), yi) for xi, yi in zip(x, y)]

    basis = [[int(i == j) for i in range(n1)] + [row[j] for row in C] for j in range(n1)]
    cols = []
    while basis:
        k = next((k for k, v in enumerate(basis) if h(v, v)), None)
        if k is None:  # every remaining vector is isotropic, e.g. C has a zero diagonal
            candidates = (axpy(lam, b, basis[0]) for b in basis[1:] for lam in range(1, f.size))
            w = next((w for w in candidates if h(w, w)), None)
            if w is None:
                return None
            basis[0], k = w, 0
        v = basis.pop(k)
        m = log[h(v, v)]
        if m % (f.q + 1):
            raise AssertionError("h(v, v) escaped GF(q)")
        v = [mul(exp[-m // (f.q + 1) % (f.size - 1)], x) for x in v]
        basis = [axpy(neg(h(v, b)), v, b) for b in basis]
        cols.append(v[:n1])
    for j, v in enumerate(cols):  # column j of M^dagger C M is M^dagger (C v)
        Cv = f.mat_vec_enc(C, v)
        if [f.conj_dot_enc(u, Cv) for u in cols] != [int(i == j) for i in range(n1)]:
            raise AssertionError("unitary frame certificate M^dagger C M = I failed")
    return tuple(zip(*cols))


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


def nullspace_mod_p_by_rref(rows: list[list[int]], p: int) -> list[list[int]]:
    """Basis of the right nullspace of an integer matrix over GF(p), by RREF in plain mod-p arithmetic.

    One vector per free column of the reduced row echelon form, so the basis
    depends only on the row space.  ValueError on a matrix with no rows, whose
    column count is unknown.
    """
    if not rows:
        raise ValueError("nullspace of a matrix with no rows: column count unknown")
    ncols = len(rows[0])
    work = [[x % p for x in row] for row in rows]
    pivots = {}  # col -> row
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][col], -1, p)
        work[rank] = [(x * inv) % p for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                f = work[r][col]
                work[r] = [(a - f * b) % p for a, b in zip(work[r], work[rank])]
        pivots[col] = rank
        rank += 1
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [0] * ncols
        vec[fc] = 1
        for pc, pr in pivots.items():
            vec[pc] = (-work[pr][fc]) % p
        basis.append(vec)
    return basis


def snf_mod_pk_by_rows(matrix, p: int, k: int) -> tuple[int, ...]:
    """Sorted valuations below k of the elementary divisors, over Z/p^k, on row lists.

    Each step pivots on an entry p^v * u (u a unit) of minimal valuation v,
    clears its column with factor (x // p^v) * u^-1 mod p^(k-v), then drops
    the pivot row, the pivot column and any row that became zero.  Every
    entry is reduced mod p^k after every row operation.
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


def subfield_gfp_basis(field: Field) -> list[int]:
    """Encodings of a GF(p)-basis of GF(q) inside GF(q^2), greedy over ascending encodings.

    A candidate joins when the digit columns of basis + [candidate] have no GF(p) nullspace.
    """
    basis: list[int] = []
    for enc in field.subfield_encs[1:]:  # subfield_encs[0] is 0
        if not nullspace_mod_p_by_rref([*zip(*map(field._enc_to_poly, [*basis, enc]))], field.p):
            basis.append(enc)
            if len(basis) == field.t:
                break
    assert len(basis) == field.t
    return basis


def fit_hermitian_form_full_system(S: PointSet) -> HermitianForm | None:
    """A nonsingular Hermitian form vanishing on all of S, if one exists.

    Solves the GF(p)-linear system over the t*(n+1)^2-dimensional space of
    conjugate-symmetric matrices, then scans the nullspace for a nonsingular
    member.  Returns None when no nonsingular form vanishes on S.
    """
    field = S.field
    n = S.n
    p, t = field.p, field.t
    d = field.degree
    pts = S.coords()

    unknowns = []  # (i, j, elem) with j >= i; j == i means diagonal over GF(q)
    for i in range(n + 1):
        for g in subfield_gfp_basis(field):
            unknowns.append((i, i, field.elem(g)))
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            for k in range(d):
                unknowns.append((i, j, field.elem(p**k)))

    rows = []
    for P in pts:
        conj = [frobenius(x, t) for x in P]
        cols = []
        for i, j, g in unknowns:
            if i == j:
                val = conj[i] * g * P[i]
            else:
                val = conj[i] * g * P[j] + conj[j] * frobenius(g, t) * P[i]
            cols.append(val.coeffs)
        for bit in range(d):
            rows.append([c[bit] for c in cols])

    null = nullspace_mod_p_by_rref(rows, p)
    if not null:
        return None
    if p ** len(null) > _FIT_ENUM_LIMIT:
        raise ValueError(f"nullspace too large to scan ({len(null)} dims)")
    for combo in itertools.product(range(p), repeat=len(null)):
        if not any(combo):
            continue
        coeffs = [
            sum(c * vec[k] for c, vec in zip(combo, null)) % p
            for k in range(len(unknowns))
        ]
        m = [[field.zero] * (n + 1) for _ in range(n + 1)]
        for (i, j, g), c in zip(unknowns, coeffs):
            if not c:
                continue
            scalar = field.elem(c)  # encodings < p are prime-field scalars
            m[i][j] = m[i][j] + scalar * g
            if i != j:
                m[j][i] = m[j][i] + scalar * frobenius(g, t)
        form = HermitianForm(tuple(tuple(row) for row in m))
        if form.is_nonsingular:
            return form
    return None


def blocks_of_by_line_scan(S: PointSet) -> tuple[tuple[int, ...], ...]:
    """Secant-line sections of a unital, each read by scanning every point of its line for membership;
    the line profile is taken from the same scan, not from the set's line counts."""
    q, members = S.field.q, set(S.members)
    sections = [tuple(i for i in ids if i in members) for ids in _space(2, S.field).subspace_point_indices(2)]
    profile = tuple(sorted(collections.Counter(map(len, sections)).items()))
    if len(S) != q**3 + 1 or {c for c, _ in profile} - {1, q + 1}:
        raise ValueError(f"not a unital: profile {profile}, size {len(S)}")
    blocks = tuple(sec for sec in sections if len(sec) == q + 1)
    check_design_by_scan(S.members, blocks, q + 1, q * q * (q * q - q + 1))
    return blocks


def _check_design(points, blocks, k: int, b: int) -> None:
    """AssertionError unless the b blocks of k points cover every pair of points once.

    One OR per (block, point) incidence: union[i] collects the points that share
    a block with point i, as a bitmask over positions in `points`.  Given
    b*k(k-1) = v(v-1), blocks of k points hold b*C(k, 2) = C(v, 2) pairs counted
    with multiplicity, so covering every pair at least once covers each exactly
    once.  A pair covered twice, or a point repeated in a block, therefore leaves
    some pair uncovered, and the first uncovered pair is named.  A block entry
    outside `points` is named too.
    """
    if len(blocks) != b:
        raise AssertionError("secant count off")
    v = len(points)
    if b * k * (k - 1) != v * (v - 1):
        raise AssertionError(f"design counts off: b*k*(k-1) != v*(v-1) for b = {b}, k = {k}, v = {v}")
    pos = {x: i for i, x in enumerate(points)}
    union = [0] * v
    for blk in blocks:
        if len(blk) != k:
            raise AssertionError("block size off")
        try:
            at = [pos[x] for x in blk]
        except KeyError as e:
            raise AssertionError(f"block point {e.args[0]} is not a point of the design") from None
        m = _mask_of(at)
        for i in at:
            union[i] |= m
    full = (1 << v) - 1
    for i, u in enumerate(union):
        missing = full & ~(u | 1 << i)
        if missing:
            pair = tuple(sorted((points[i], points[(missing & -missing).bit_length() - 1])))
            raise AssertionError(f"pair {pair} covered by no block")


def check_design_by_scan(points, blocks, k: int, b: int) -> None:
    """AssertionError unless the b blocks of k points cover every pair of points once, block by block.

    One coverage bitmask per point, indexed by position in `points`: seen[i]
    has a bit for every point that already shares a block with point i.
    """
    if len(blocks) != b:
        raise AssertionError("secant count off")
    pos = {x: i for i, x in enumerate(points)}
    seen = [0] * len(points)
    for blk in blocks:
        if len(blk) != k:
            raise AssertionError("block size off")
        try:
            at = [pos[x] for x in blk]
        except KeyError as e:
            raise AssertionError(f"block point {e.args[0]} is not a point of the design") from None
        m = _mask_of(at)
        for i in at:
            twice = seen[i] & (m ^ (1 << i))
            if twice:
                pair = tuple(sorted((points[i], points[(twice & -twice).bit_length() - 1])))
                raise AssertionError(f"pair {pair} covered twice")
            seen[i] |= m
    full = (1 << len(points)) - 1
    if any(s != full for s in seen):
        raise AssertionError("pair coverage incomplete")
