"""Hermitian varieties and Buekenhout-Metz unitals in PG(n, q^2).

A Hermitian form is given by a conjugate-symmetric matrix C over GF(q^2)
(entry(j,i) = entry(i,j)^q); its variety is the set of points P with
P^dagger C P = 0.  For n = 2 and C nonsingular this is the classical unital
of q^3+1 points.  Only the canonical variety H(I), sum x_i^(q+1) = 0, is found
by evaluating at every point (once per (n, field)); any other H(C) is its
image M.H(I) under a unitary frame M with M^dagger C M = I, found by Hermitian
Gram-Schmidt and certified by recomputing M^dagger C M before use.  The image
is exact because x = My gives x^dagger C x = y^dagger y.

The Buekenhout-Metz family is built in the affine chart
    U_{a,b} = {(1, y, a*y^2 + b*y^(q+1) + r) : y in GF(q^2), r in GF(q)}
              u {(0, 0, 1)},        q > 2,
which is Hermitian exactly when a = 0 (with b outside GF(q)).  Validity of
(a, b) is one discriminant/trace criterion on a and b^q - b; see bm_is_valid.

A unital is any set of q^3+1 points meeting every line in 1 or q+1 points;
its secant-line sections are the blocks of a 2-(q^3+1, q+1, 1) design.
"""

from __future__ import annotations

import itertools
import operator
import random
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property, reduce

from .finite_field import Field, FieldElem, abs_trace, frobenius, is_square
from .linalg import det_enc, nullspace_mod_p
from .proj_geom import PointSet, _image_enc, _mask_of, _point_encs, _space

_FIT_ENUM_LIMIT = 1 << 20


@dataclass(frozen=True)
class HermitianForm:
    """Conjugate-symmetric matrix over GF(q^2); validated at construction."""

    matrix: tuple[tuple[FieldElem, ...], ...]

    def __post_init__(self):
        rows = self.matrix
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square, with at least one row")
        if any(not isinstance(getattr(x, "field", None), Field) for row in rows for x in row):
            raise ValueError("matrix entries must be field elements")
        if any(x.field is not self.field for row in rows for x in row):
            raise ValueError("mixed-field matrix")
        m, conj = self._enc_matrix, self.field._conj
        if any(m[j][i] != conj[x] for i, row in enumerate(m) for j, x in enumerate(row)):
            raise ValueError("matrix is not conjugate-symmetric")

    @property
    def field(self) -> Field:
        return self.matrix[0][0].field

    @property
    def n(self) -> int:
        return len(self.matrix) - 1

    @cached_property
    def is_nonsingular(self) -> bool:
        return bool(det_enc(self.field, self._enc_matrix))

    @cached_property
    def _enc_matrix(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(x.enc for x in row) for row in self.matrix)

    @staticmethod
    def _of(field: Field, rows) -> HermitianForm:
        """The form whose matrix has these rows of encodings: the one place they are wrapped."""
        return HermitianForm(tuple(tuple(map(field.elem, row)) for row in rows))

    def evaluate(self, coords) -> FieldElem:
        """P^dagger C P, the 1 x 1 product conj(P)^T (C P); always lands in GF(q)."""
        f = self.field
        x = _point_encs(self.n, f, coords)
        return f.elem(f.conj_dot_enc(x, f.mat_vec_enc(self._enc_matrix, x)))

    @staticmethod
    def identity(n: int, field: Field) -> HermitianForm:
        return HermitianForm._of(field, [[int(i == j) for j in range(n + 1)] for i in range(n + 1)])


def hermitian_variety(form: HermitianForm) -> PointSet:
    """All points P of PG(n, q^2) with form(P) = 0; ValueError if the form is singular.

    Built as M.H(I), the image of the canonical variety under a unitary frame M of the
    form, M^dagger C M = I, found and certified by `_unitary_frame`, which has none
    exactly on a singular form.  This is exact: for x = My, x^dagger C x =
    y^dagger M^dagger C M y = y^dagger y, and M is nonsingular, so x lies on H(C)
    exactly when y lies on H(I).  The work is one column-table sum per point of the
    variety, O(q^(2n-1)), not one evaluation per point of PG(n, q^2).
    """
    M = _unitary_frame(form.field, form._enc_matrix)
    if M is None:
        raise ValueError("form is singular")
    return _image_enc(M, _canonical_variety(form.n, form.field))


@cache
def _canonical_variety(n: int, field: Field) -> PointSet:
    """H(I): the points with x_0^(q+1) + ... + x_n^(q+1) = 0, by evaluation at every point."""
    sp = _space(n, field)
    norm = [field.pow_enc(e, field.q + 1) for e in range(field.size)].__getitem__
    ids = tuple(i for i, x in enumerate(sp.points) if not reduce(field.add_enc, map(norm, x)))
    return PointSet(n, field, ids)


def _unitary_frame(field: Field, C) -> tuple[tuple[int, ...], ...] | None:
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


def _random_form_candidates(n: int, field: Field, rng: random.Random):
    """Endless seeded conjugate-symmetric matrices, as rows of encodings."""
    sub = field.subfield_encs
    while True:
        m = [[0] * (n + 1) for _ in range(n + 1)]
        for i in range(n + 1):
            m[i][i] = sub[rng.randrange(len(sub))]
            for j in range(i + 1, n + 1):
                m[i][j] = x = rng.randrange(field.size)
                m[j][i] = field._conj[x]
        yield m


def _draw_form(n: int, field: Field, seed: int) -> tuple[list[list[int]], tuple[tuple[int, ...], ...], int]:
    """Seeded rejection sampling: (rows, unitary frame, how many singular candidates preceded it)."""
    for rejected, m in enumerate(_random_form_candidates(n, field, random.Random(seed))):
        M = _unitary_frame(field, m)
        if M is not None:
            return m, M, rejected


def random_hermitian_form(n: int, field: Field, seed: int) -> HermitianForm:
    """Seeded nonsingular conjugate-symmetric matrix (rejection sampling)."""
    return HermitianForm._of(field, _draw_form(n, field, seed)[0])


# ---------------------------------------------------------------------------
# Buekenhout-Metz unitals


@dataclass(frozen=True)
class BMParams:
    """Parameters (a, b) of U_{a,b}; both elements of the same GF(q^2)."""

    a: FieldElem
    b: FieldElem

    def __post_init__(self):
        if self.a.field is not self.b.field:
            raise ValueError("mixed-field parameters")

    @property
    def field(self) -> Field:
        return self.a.field


def bm_is_valid(params: BMParams) -> bool:
    """Whether U_{a,b} is a unital.

    With d = b^q - b: for q odd, d^2 + 4a^(q+1) must be a nonsquare of GF(q);
    for q even, d must be nonzero (b outside GF(q)) and a^(q+1)/d^2 must have
    absolute trace 0.  For a = 0 both say b lies outside GF(q), the Hermitian
    case: a nonzero d has d^q = -d, so d^2 is a nonsquare for q odd.  Both
    branches agree with the exhaustive brute-force line test at q = 3 and q = 4.
    """
    return _bm_valid_enc(params.field, params.a.enc, params.b.enc)


def _bm_valid_enc(field: Field, a: int, b: int) -> bool:
    """bm_is_valid on the encodings of a and b."""
    mul, conj = field.mul_enc, field._conj
    d = field.add_enc(conj[b], field.neg_enc(b))
    norm = field.pow_enc(a, field.q + 1)
    if field.p != 2:
        w = field.add_enc(mul(d, d), mul(4 % field.p, norm))  # an encoding below p is that GF(p) scalar
        if conj[w] != w:
            raise AssertionError("discriminant escaped GF(q)")
        return not is_square(field.elem(w))
    if not d:
        return False
    w = mul(norm, field.inv_enc(mul(d, d)))
    if conj[w] != w:
        raise AssertionError("trace argument escaped GF(q)")
    return abs_trace(field.elem(w)) == 0


def _bm_point_ids(field: Field, a: FieldElem, b: FieldElem) -> tuple[int, ...]:
    """Indices of U_{a,b}, no validity check: (0, 0, 1) is point 0, (1, y, z) is Q + 1 + y*Q + z."""
    Q, q = field.size, field.q
    a, b = a.enc, b.enc
    add, mul = field.add_enc, field.mul_enc
    ids = [0]
    for y in range(Q):
        base = add(mul(a, mul(y, y)), mul(b, field.pow_enc(y, q + 1)))
        ids += map((Q + 1 + y * Q).__add__, field.add_row_enc(base, field.subfield_encs))
    assert len(set(ids)) == q**3 + 1, "affine points collided"
    return tuple(sorted(ids))


def bm_unital(params: BMParams) -> PointSet:
    """The point set U_{a,b}; raises on q <= 2 or invalid parameters."""
    field = params.field
    if field.q <= 2:
        raise ValueError("the Buekenhout-Metz construction needs q > 2")
    if not bm_is_valid(params):
        raise ValueError(
            f"(a, b) = ({params.a.enc}, {params.b.enc}) is not a valid parameter pair "
            f"over GF({field.size}): the unital criterion fails"
        )
    return PointSet(2, field, _bm_point_ids(field, params.a, params.b))


def all_valid_bm_params(field: Field) -> tuple[BMParams, ...]:
    """Every valid (a, b), full sweep of GF(q^2)^2, a = 0 cases included."""
    el, size = field.elements, range(field.size)
    return tuple(BMParams(el[a], el[b]) for a in size for b in size if _bm_valid_enc(field, a, b))


def bm_affine_value(params: BMParams, y: FieldElem, z: FieldElem) -> FieldElem:
    """a^q*y^(2q) - a*y^2 + (b^q - b)*y^(q+1) - z^q + z.

    Vanishes exactly on the affine points (1, y, z) of U_{a,b}; off the
    unital its 2(q-1) power is 1.
    """
    a, b = params.a, params.b
    field = params.field
    q, t = field.q, field.t
    return (
        frobenius(a, t) * y ** (2 * q)
        - a * y * y
        + (frobenius(b, t) - b) * y ** (q + 1)
        - frobenius(z, t)
        + z
    )


# ---------------------------------------------------------------------------
# unital verification


@dataclass(frozen=True)
class UnitalCheck:
    """Line-intersection diagnostic; truthy iff the set is a unital."""

    ok: bool
    size: int
    tangent_count: int
    secant_count: int
    profile: tuple[tuple[int, int], ...]  # (line section size, line count)

    def __bool__(self):
        return self.ok


def _sections(S: PointSet, r: int):
    """|V & S| for each r-dim subspace V, in enumeration order: one popcount per subspace."""
    smask = S.mask
    return ((m & smask).bit_count() for m in _space(S.n, S.field).subspace_masks(r))


def _line_sections(S: PointSet) -> tuple[UnitalCheck, list[int]]:
    """The unital check of a plane set, with the line sections it was read from."""
    if S.n != 2:
        raise ValueError("unital check lives in a projective plane (n = 2)")
    q = S.field.q
    counts = list(_sections(S, 2))
    hist = Counter(counts)
    check = UnitalCheck(
        ok=len(S) == q**3 + 1 and set(hist) <= {1, q + 1},
        size=len(S),
        tangent_count=hist[1],
        secant_count=hist[q + 1],
        profile=tuple(sorted(hist.items())),
    )
    return check, counts


def is_unital_embedded(S: PointSet) -> UnitalCheck:
    """Check |S| = q^3+1 and every line meets S in 1 or q+1 points."""
    return _line_sections(S)[0]


def blocks_of(S: PointSet) -> tuple[tuple[int, ...], ...]:
    """Secant-line sections of a unital, verified as a 2-(q^3+1, q+1, 1) design.

    Each section is built from the set's own incidences: every member, in ascending
    order, goes into the sections of its q^2+1 lines (`_lines_through`), v(q^2+1)
    incidences in all, where scanning each secant line for members would visit
    q^2(q^2-q+1)(q^2+1) points.  A section holds exactly its line's popcount from
    `_line_sections`, a second route to the same line table: a section that
    overflows or ends short is an AssertionError.
    """
    check, counts = _line_sections(S)
    if not check.ok:
        raise ValueError(f"not a unital: profile {check.profile}, size {check.size}")
    q = S.field.q
    # sized up front: appending over-allocates, which raised peak RSS by 0.16 MiB at q = 9
    sections = [[None] * c for c in counts]
    fill = [0] * len(counts)
    try:
        for i in S.members:
            for line in _lines_through(S.field, i):
                k = fill[line]
                sections[line][k] = i
                fill[line] = k + 1
    except IndexError:
        raise AssertionError("line sections disagree with the line masks") from None
    if fill != counts:
        raise AssertionError("line sections disagree with the line masks")
    for line, sec in enumerate(sections):
        sections[line] = tuple(sec)
    blocks = tuple(sec for sec, c in zip(sections, counts) if c == q + 1)
    _check_design(S.members, blocks, q + 1, q * q * (q * q - q + 1))
    return blocks


def _lines_through(field: Field, i: int) -> list[int]:
    """The q^2+1 indices of the lines of PG(2, Q) through point i, in closed form, Q = q^2.

    Lines follow the RREF order of `_Space.subspaces(2)`: line v0*Q + v1 is
    z = v0*x + v1*y, line Q^2 + c is y = c*x and line Q^2 + Q is x = 0.  Point 0 is
    (0, 0, 1), point 1 + z is (0, 1, z) and point Q + 1 + y*Q + z is (1, y, z).
    """
    Q = field.size
    if i == 0:
        return [Q * Q + c for c in range(Q + 1)]
    if i <= Q:
        return [v0 * Q + i - 1 for v0 in range(Q)] + [Q * Q + Q]
    y, z = divmod(i - Q - 1, Q)
    # z = v0 + c*y on line (v0, c): v0 = z - c*y, with c in `multiples_enc` order
    v0s = field.add_row_enc(z, field.multiples_enc(field.neg_enc(y)))
    return [v0 * Q + c for v0, c in zip(v0s, (0, *field._exp))] + [Q * Q + y]


def _check_design(points, blocks, k: int, b: int) -> None:
    """AssertionError unless the b blocks of k points cover every pair of points once.

    Fast path, one OR per (block, point) incidence: union[i] collects the points
    that share a block with point i, as a bitmask over positions in `points`.  If
    every block has k entries, b*k(k-1) = v(v-1) and every union is the full set,
    then each of the C(v, 2) pairs is covered at least once by blocks that hold at
    most b*C(k, 2) = C(v, 2) pairs in all, so each pair is covered exactly once.
    Otherwise a block-by-block scan finds the fault: seen[i] has a bit for every
    point that already shares a block with point i, and the first pair covered
    twice is named.
    """
    if len(blocks) != b:
        raise AssertionError("secant count off")
    v = len(points)
    pos = {x: i for i, x in enumerate(points)}
    full = (1 << v) - 1
    if b * k * (k - 1) == v * (v - 1) and all(len(blk) == k for blk in blocks):
        union = [0] * v
        for blk in blocks:
            at = [pos[x] for x in blk]
            m = _mask_of(at)
            for i in at:
                union[i] |= m
        if all(u == full for u in union):
            return
    seen = [0] * v
    for blk in blocks:
        if len(blk) != k:
            raise AssertionError("block size off")
        at = [pos[x] for x in blk]
        m = _mask_of(at)
        for i in at:
            twice = seen[i] & (m ^ (1 << i))
            if twice:
                pair = tuple(sorted((points[i], points[(twice & -twice).bit_length() - 1])))
                raise AssertionError(f"pair {pair} covered twice")
            seen[i] |= m
    if any(s != full for s in seen):
        raise AssertionError("pair coverage incomplete")


def check_property_I(S: PointSet, r: int, beta: int) -> bool:
    """Every r-dim subspace meets S in a multiple of p^beta points."""
    if not 1 < r <= S.n:
        raise ValueError(f"r = {r} must lie in (1, {S.n}]")
    if beta < 0:
        raise ValueError("beta must be >= 0")
    pb = S.field.p**beta
    return all(c % pb == 0 for c in _sections(S, r))


# ---------------------------------------------------------------------------
# recovering a Hermitian form from a point set


def _subfield_gfp_basis(field: Field) -> list[int]:
    """Encodings of a GF(p)-basis of GF(q) inside GF(q^2), greedy over ascending encodings.

    A candidate joins when the digit columns of basis + [candidate] have no GF(p) nullspace.
    """
    basis: list[int] = []
    for enc in field.subfield_encs[1:]:  # subfield_encs[0] is 0
        if not nullspace_mod_p([*zip(*map(field._enc_to_poly, [*basis, enc]))], field.p):
            basis.append(enc)
            if len(basis) == field.t:
                break
    assert len(basis) == field.t
    return basis


def fit_hermitian_form(S: PointSet) -> HermitianForm | None:
    """A nonsingular Hermitian form vanishing on all of S, if one exists.

    The unknowns are the GF(p)-coordinates of a conjugate-symmetric matrix: t
    per diagonal entry, 2t per entry above it.  Walking the points of S on
    encodings, the GF(p)-basis of the forms vanishing so far is cut down at
    each point x to the nullspace of the 2t digits of their values at x (a
    2t x k system); None as soon as no form is left.  The survivors are put in
    the basis that the reduced echelon form of the full (|S| * 2t)-row system
    gives, and the first nonsingular nonzero combination, in that order, is
    certified to vanish on S (AssertionError if not) and returned; None if
    all are singular.  ValueError on an empty set, on which every form vanishes.
    """
    if not S.members:
        raise ValueError("every form vanishes on the empty set; nothing to fit")
    field, n1 = S.field, S.n + 1
    p, d = field.p, field.degree
    add, mul, conj, mat_vec = field.add_enc, field.mul_enc, field._conj, field.mat_vec_enc

    # (i, j, g): coordinate of entry (i, j), j >= i, along g; encodings < p are GF(p) scalars
    diag = _subfield_gfp_basis(field)
    unknowns = [(i, i, g) for i in range(n1) for g in diag]
    unknowns += [(i, j, p**k) for i in range(n1) for j in range(i + 1, n1) for k in range(d)]
    u = len(unknowns)

    def matrix(coeffs):
        m = [[0] * n1 for _ in range(n1)]
        for (i, j, g), c in zip(unknowns, coeffs):
            if c:
                m[i][j] = add(m[i][j], mul(c, g))
        for i in range(n1):
            for j in range(i):
                m[i][j] = conj[m[j][i]]
        return m

    def value(m, x):  # conj(x)^T (m x)
        return field.conj_dot_enc(x, mat_vec(m, x))

    pts = [_space(S.n, field).points[i] for i in S.members]
    null = [[int(r == c) for c in range(u)] for r in range(u)]
    mats = [matrix(v) for v in null]
    for x in pts:
        vals = [value(m, x) for m in mats]
        if any(vals):
            keep = nullspace_mod_p([[v // p**b % p for v in vals] for b in range(d)], p)
            if not keep:
                return None
            cols = list(zip(*null))
            null = [[sum(map(operator.mul, w, col)) % p for col in cols] for w in keep]
            mats = [matrix(v) for v in null]
    null = nullspace_mod_p(nullspace_mod_p(null, p), p)
    # beyond one form's GF(q)-multiples: a nonsingular Hermitian curve meets each line in 1 or q + 1 points
    if len(null) > field.t and S.n == 2 and max(_sections(S, 2)) > field.q + 1:
        return None

    if p ** len(null) > _FIT_ENUM_LIMIT:
        raise ValueError(f"nullspace too large to scan ({len(null)} dims)")
    for combo in itertools.product(range(p), repeat=len(null)):
        if not any(combo):
            continue
        m = matrix([sum(c * vec[k] for c, vec in zip(combo, null)) % p for k in range(u)])
        if _unitary_frame(field, m) is not None:
            if any(value(m, x) for x in pts):
                raise AssertionError("fitted form does not vanish on the point set")
            return HermitianForm._of(field, m)
    return None
