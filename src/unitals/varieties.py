"""Hermitian varieties and Buekenhout-Metz unitals in PG(n, q^2).

A Hermitian form is given by a conjugate-symmetric matrix C over GF(q^2)
(entry(j,i) = entry(i,j)^q); its variety is the set of points P with
P^dagger C P = 0.  For n = 2 and C nonsingular this is the classical unital
of q^3+1 points.  The value x^dagger C x is GF(p)-linear in the digits of the
entries of C, so V(C) is read off packed value rows: the values of the digit
forms at every point, built once per (n, field), one byte lane per point.  A
form costs a lane-wise sum of its digits' rows and one zero test per value
digit.  The size of V(C) gives the rank of C, so no frame or determinant is
needed to test nonsingularity.  The canonical variety H(I), sum x_i^(q+1) = 0,
is also found by evaluating at every point (once per (n, field)), the kernel's
independent check and the one route of every caller that needs H(I) itself.

The Buekenhout-Metz family is built in the affine chart
    U_{a,b} = {(1, y, a*y^2 + b*y^(q+1) + r) : y in GF(q^2), r in GF(q)}
              u {(0, 0, 1)},        q > 2,
which is Hermitian exactly when a = 0 (with b outside GF(q)).  Validity of
(a, b) is one discriminant/trace criterion on a^(q+1) and b^q - b; see bm_is_valid.

A unital is any set of q^3+1 points meeting every line in 1 or q+1 points;
its secant-line sections are the blocks of a 2-(q^3+1, q+1, 1) design.  The
unital check, the blocks, the fit's line bound and property I on lines all
read the set's own `PointSet.line_counts`, one popcount pass per set object
in any call order; a complement made after that pass is born with its counts.
"""

from __future__ import annotations

import itertools
import operator
import random
import sys
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, reduce

from .finite_field import Field, FieldElem, abs_trace, frobenius, is_square
from .linalg import _walk, det_enc, nullspace_mod_p
from .proj_geom import PointSet, _lane_residues, _lane_width, _pack, _point_encs, _space

_ZERO_MARKS = bytes([1]) + bytes(255)  # a residue byte -> 1 if it is 0, else 0

_FIT_ENUM_LIMIT = 1 << 20


@dataclass(frozen=True)
class HermitianForm:
    """Conjugate-symmetric matrix over GF(q^2); validated at construction."""

    matrix: tuple[tuple[FieldElem, ...], ...]

    def __post_init__(self):
        rows = self.matrix
        square = isinstance(rows, Sequence) and all(isinstance(r, Sequence) and len(r) == len(rows) for r in rows)
        if not rows or not square:
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

    Read off the packed value rows by `_zero_set`: one lane-wise sum of the rows of
    the form's nonzero digits and one zero test per value digit, O(q^(2n)) byte
    operations in C and no Python step per point.  The form is nonsingular exactly
    when the set has the |H(n, q^2)| points of a rank n + 1 form.
    """
    n, field = form.n, form.field
    V = _zero_set(n, field, form._enc_matrix)
    if len(V) != _cone_sizes(n, field.q)[-1]:
        raise ValueError("form is singular")
    return V


@cache
def _canonical_variety(n: int, field: Field) -> PointSet:
    """H(I): the points with x_0^(q+1) + ... + x_n^(q+1) = 0, by evaluation at every point."""
    sp = _space(n, field)
    norm = [field.pow_enc(e, field.q + 1) for e in range(field.size)].__getitem__
    ids = tuple(i for i, x in enumerate(sp.points) if not reduce(field.add_enc, map(norm, x)))
    return PointSet(n, field, ids)


@cache
def _cone_sizes(n: int, q: int) -> tuple[int, ...]:
    """|V(C)| for a Hermitian form C of rank r = 0, ..., n + 1 on PG(n, q^2), indexed by r.

    V(C) is a cone with an (n - r)-dimensional vertex over a nonsingular H(r - 1, q^2),
    which has h(m) = (q^(m+1) + (-1)^m)(q^m - (-1)^m)/(q^2 - 1) points for m = r - 1 >= 0:
    the vertex's points plus Q^(n-r+1) points over each point of the base, Q = q^2.
    """
    Q = q * q

    def h(m):
        s = -1 if m % 2 else 1
        return (q ** (m + 1) + s) * (q**m - s) // (Q - 1)

    vertex = [Q ** (n - r + 1) for r in range(n + 2)]  # Q^(dimension of the vertex + 1)
    sizes = tuple((v - 1) // (Q - 1) + (v * h(r - 1) if r else 0) for r, v in enumerate(vertex))
    assert len(set(sizes)) == n + 2, "two ranks share a cone size"
    return sizes


@cache
def _value_rows(n: int, field: Field) -> tuple[tuple[int, int, int, tuple[int, ...]], ...]:
    """The packed value rows of PG(n, q^2).

    For i <= j and each GF(p)-digit d, B_ijd has X^d (the element encoded p^d) at
    (i, j) and conj(X^d) at (j, i); a conjugate-symmetric C is the sum of c * B_ijd
    over the digits c of its entries C[i][j], i <= j, so x^dagger C x is the same
    sum of the values x^dagger B_ijd x: X^d N(x_i) for i = j, Tr(X^d conj(x_i) x_j)
    for i < j.  Each row is (i, j, p^d, one packed int per checked value digit): lane
    k holds that digit of the value at point k.  Only t of the 2t value digits are
    checked, ones that determine an element of GF(q), where the value of a Hermitian
    form lies; rows that vanish on all of them are left out.  The rows are built by
    table lookups on the discrete logs of the coordinate columns: the log of a
    product is a sum, and 2(q^2 - 1) stands for the log of 0, so any sum with a zero
    coordinate lands in the zero tail of the value tables.

    Lanes follow `proj_geom._lane_width`: one byte when p(p - 1) <= 255, else four.
    """
    p, q, Q1 = field.p, field.q, field.size - 1
    log, conj = field._log, field._conj
    subfield = [field._enc_to_poly(g) for g in field.subfield_encs]
    checked = []
    for e in range(field.degree):  # independent digit columns of the elements of GF(q)
        if not nullspace_mod_p([[g[k] for k in (*checked, e)] for g in subfield], p):
            checked.append(e)
    assert len(checked) == field.t, "GF(q) is t-dimensional over GF(p)"
    powers = field._exp * 2
    zero_tail = [0] * (2 * Q1 + 1)
    # s -> digit e of g^s (diagonal) and of Tr(g^s) = g^s + g^(qs) (off the diagonal), s < 4 Q1 + 1
    norm_digits, trace_digits = (
        [[v // p**e % p for v in values] + zero_tail for e in checked]
        for values in (powers, [field.add_enc(x, conj[x]) for x in powers])
    )
    logs = [2 * Q1, *log[1:]]
    cols = [list(map(logs.__getitem__, col)) for col in zip(*_space(n, field).points)]
    lane = _lane_width(p)
    rows = []
    for i, j in itertools.combinations_with_replacement(range(n + 1), 2):
        for d in range(field.degree):
            ld = log[p**d]
            if i == j:  # log of X^d x_i^(q+1)
                shift = [(ld + (q + 1) * lx) % Q1 for lx in range(Q1)] + [2 * Q1] * (Q1 + 1)
                s, digits = list(map(shift.__getitem__, cols[i])), norm_digits
            else:  # log of X^d conj(x_i) x_j
                shift = [(ld + q * lx) % Q1 for lx in range(Q1)] + [2 * Q1] * (Q1 + 1)
                s, digits = list(map(operator.add, map(shift.__getitem__, cols[i]), cols[j])), trace_digits
            packed = tuple(_pack(bytes(map(table.__getitem__, s)), lane) for table in digits)
            if any(packed):
                rows.append((i, j, p**d, packed))
    return tuple(rows)


def _zero_set(n: int, field: Field, C) -> PointSet:
    """V(C) for a conjugate-symmetric C (rows of encodings), read off `_value_rows`.

    Per checked value digit, `proj_geom._lane_residues` sums c * row mod p over the
    nonzero digits c of C's entries on and above the diagonal.  A point is on V(C)
    when each sum is 0: one `bytes.translate` per value digit marks those lanes, the
    marks are ANDed and the members read with `itertools.compress`.  AssertionError
    unless the size is that of a form of some rank, `_cone_sizes`.
    """
    rows = _value_rows(n, field)
    p, count, order = field.p, _space(n, field).count, sys.byteorder
    terms = [(c, packed) for i, j, pd, packed in rows if (c := C[i][j] // pd % p)]
    keep = (1 << 8 * count) - 1
    for e in range(field.t):
        marks = _lane_residues((c * packed[e] for c, packed in terms), p, count).translate(_ZERO_MARKS)
        keep &= int.from_bytes(marks, order)
    members = tuple(itertools.compress(range(count), keep.to_bytes(count, order)))
    if len(members) not in _cone_sizes(n, field.q):
        raise AssertionError(f"zero set of {len(members)} points is no Hermitian cone of PG({n}, {field.size})")
    return PointSet(n, field, members)


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


def _draw_form(n: int, field: Field, seed: int) -> tuple[list[list[int]], PointSet, int]:
    """Seeded rejection sampling: (rows, variety, how many singular candidates preceded it).

    A candidate is singular exactly when its zero set is not the size of a rank n + 1 cone.
    """
    full = _cone_sizes(n, field.q)[-1]
    for rejected, m in enumerate(_random_form_candidates(n, field, random.Random(seed))):
        V = _zero_set(n, field, m)
        if len(V) == full:
            return m, V, rejected


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
    branches agree with the exhaustive brute-force line test at q = 3, 4, 5 and 7,
    and at q = 8 and 9 in the slow tests.
    """
    field, b = params.field, params.b.enc
    d = field.add_enc(field._conj[b], field.neg_enc(b))
    return _bm_valid_nd(field, field.pow_enc(params.a.enc, field.q + 1), d)


def _bm_valid_nd(field: Field, norm: int, d: int) -> bool:
    """The validity criterion of U_{a,b} on the encodings of N(a) = a^(q+1) and d = b^q - b."""
    mul, conj = field.mul_enc, field._conj
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
    """Every valid (a, b), full sweep of GF(q^2)^2 in (a, b) order, a = 0 cases included.

    The criterion reads only N(a) and d = b^q - b, each of which takes q values, so
    `_bm_valid_nd` decides each (N(a), d) class once: per norm, one verdict per b, and
    each a takes its valid b's from its norm's row by `itertools.compress`.
    """
    el, size, conj, neg = field.elements, range(field.size), field._conj, field.neg_enc
    ds = [field.add_enc(conj[b], neg(b)) for b in size]
    norms = [field.pow_enc(a, field.q + 1) for a in size]
    rows = {}
    for norm in set(norms):
        verdict = {d: _bm_valid_nd(field, norm, d) for d in set(ds)}
        rows[norm] = [verdict[d] for d in ds]
    return tuple(BMParams(el[a], el[b]) for a in size for b in itertools.compress(size, rows[norms[a]]))


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


def is_unital_embedded(S: PointSet) -> UnitalCheck:
    """Check |S| = q^3+1 and every line meets S in 1 or q+1 points (`PointSet.line_counts`)."""
    if S.n != 2:
        raise ValueError("unital check lives in a projective plane (n = 2)")
    q = S.field.q
    hist = Counter(S.line_counts)
    return UnitalCheck(
        ok=len(S) == q**3 + 1 and set(hist) <= {1, q + 1},
        size=len(S),
        tangent_count=hist[1],
        secant_count=hist[q + 1],
        profile=tuple(sorted(hist.items())),
    )


def blocks_of(S: PointSet) -> tuple[tuple[int, ...], ...]:
    """Secant-line sections of a unital: the blocks of a 2-(q^3+1, q+1, 1) design.

    The design needs no check of its own.  The profile {1, q+1} on q^3+1 points
    gives b = q^2(q^2-q+1) secants, and b*C(q+1, 2) = C(q^3+1, 2); two lines of
    the plane share one point, so no pair lies in two blocks, hence each pair of
    points lies in exactly one.  The plane axiom is a fact of the line table,
    certified once per table by the tests.

    Each section is built from the set's own incidences: every member, in ascending
    order, goes into the sections of its q^2+1 lines (`_lines_through`), v(q^2+1)
    incidences in all, where scanning each secant line for members would visit
    q^2(q^2-q+1)(q^2+1) points.  A section holds exactly its line's popcount in
    `S.line_counts`, a second route to the same line table: a section that
    overflows or ends short is an AssertionError.
    """
    q, counts = S.field.q, S.line_counts
    # is_unital_embedded's verdict by one bytes pass; its histogram (0.2 ms at q = 9) only for the message
    if len(S) != q**3 + 1 or counts.translate(None, bytes((1, q + 1))):
        check = is_unital_embedded(S)
        raise ValueError(f"not a unital: profile {check.profile}, size {check.size}")
    # sized up front: appending over-allocates, which raised peak RSS by 0.16 MiB at q = 9
    sections = [[None] * c for c in counts]
    fill = [0] * len(counts)  # a list: a bytearray made blocks_of about 1 ms slower per unital at q = 9
    try:
        for i in S.members:
            for line in _lines_through(S.field, i):
                k = fill[line]
                sections[line][k] = i
                fill[line] = k + 1
    except IndexError:
        raise AssertionError("line sections disagree with the line masks") from None
    if bytes(fill) != counts:
        raise AssertionError("line sections disagree with the line masks")
    for line, sec in enumerate(sections):
        sections[line] = tuple(sec)
    blocks = tuple(sec for sec, c in zip(sections, counts) if c == q + 1)
    return blocks


@lru_cache(maxsize=1)
def _through_tables(field: Field) -> tuple[tuple, tuple, tuple[int, ...]]:
    """`_lines_through`'s tables for one field: rows[z][w] = Q*(z + w), slopes[y] picks the
    entries w = c*(-y) of a row, c in `multiples_enc` order, and cs lists those c's."""
    Q = field.size
    scaled = [Q * w for w in range(Q)]  # shared by every row
    rows = tuple(tuple(map(scaled.__getitem__, field.add_row_enc(z, range(Q)))) for z in range(Q))
    slopes = tuple(operator.itemgetter(*field.multiples_enc(field.neg_enc(y))) for y in range(Q))
    return rows, slopes, (0, *field._exp)


def _lines_through(field: Field, i: int) -> list[int]:
    """The q^2+1 indices of the lines of PG(2, Q) through point i, Q = q^2.

    Lines follow the RREF order of `_Space.subspaces(2)`: line v0*Q + v1 is
    z = v0*x + v1*y, line Q^2 + c is y = c*x and line Q^2 + Q is x = 0.  Point 0 is
    (0, 0, 1), point 1 + z is (0, 1, z) and point Q + 1 + y*Q + z is (1, y, z).
    The affine point (1, y, z) lies on line (v0, c) for v0 = z - c*y: `slopes[y]`
    reads Q*v0 off `rows[z]` for every c of `cs`, and adding c gives the line ids.
    """
    Q = field.size
    if i == 0:
        return [Q * Q + c for c in range(Q + 1)]
    if i <= Q:
        return [v0 * Q + i - 1 for v0 in range(Q)] + [Q * Q + Q]
    y, z = divmod(i - Q - 1, Q)
    rows, slopes, cs = _through_tables(field)
    return [*map(operator.add, slopes[y](rows[z]), cs), Q * Q + y]


def check_property_I(S: PointSet, r: int, beta: int) -> bool:
    """Every r-dim subspace meets S in a multiple of p^beta points."""
    if not 1 < r <= S.n:
        raise ValueError(f"r = {r} must lie in (1, {S.n}]")
    if beta < 0:
        raise ValueError("beta must be >= 0")
    pb = S.field.p**beta
    return all(c % pb == 0 for c in (S.line_counts if r == 2 else _sections(S, r)))


# ---------------------------------------------------------------------------
# recovering a Hermitian form from a point set


def fit_hermitian_form(S: PointSet) -> HermitianForm | None:
    """A nonsingular Hermitian form vanishing on all of S, if one exists.

    x^dagger C x is GF(q)-linear in C, whose (n+1)^2 GF(q)-coordinates are C[i][i]
    and (a, b) with C[i][j] = a + b*e for i < j, e the field's generator (outside
    GF(q)).  At a point x the coordinate forms take the values N(x_i) and
    Tr(g conj(x_i) x_j), g in (1, e).  `linalg._walk` reduces the identity basis
    of the coordinate forms by these value rows, point by point, and stops drawing
    points once the basis is empty: then None.  The first nonsingular combination
    of the survivors, in lexicographic order over GF(q), is certified to vanish on
    S (AssertionError if not) and returned; None if all are singular.  ValueError
    on an empty set, on which every form vanishes.
    """
    if not S.members:
        raise ValueError("every form vanishes on the empty set; nothing to fit")
    field, n1, q = S.field, S.n + 1, S.field.q
    add, mul, conj, dot = field.add_enc, field.mul_enc, field._conj, field.conj_dot_enc
    coords = [(i, j, g) for i, j in itertools.combinations_with_replacement(range(n1), 2)
              for g in ((1,) if i == j else (1, field.generator))]
    pts = [_space(S.n, field).points[i] for i in S.members]

    def values(x):  # in GF(q), so the walk's basis stays in GF(q), where conj is the identity
        ys = [mul(g, mul(conj[x[i]], x[j])) for i, j, g in coords]
        return [y if i == j else add(y, conj[y]) for (i, j, _), y in zip(coords, ys)]

    basis, _ = _walk(field, map(values, pts), len(coords))
    if not basis:
        return None
    # beyond one form's GF(q)-multiples: a nonsingular Hermitian curve meets each line in 1 or q + 1 points
    if len(basis) > 1 and S.n == 2 and max(S.line_counts) > q + 1:
        return None

    if q ** len(basis) > _FIT_ENUM_LIMIT:
        raise ValueError(f"nullspace too large to scan ({len(basis)} dims over GF({q}))")
    cols = list(zip(*basis))
    for combo in itertools.product(field.subfield_encs, repeat=len(basis)):
        if not any(combo):
            continue
        m = [[0] * n1 for _ in range(n1)]
        for (i, j, g), c in zip(coords, (dot(combo, col) for col in cols)):
            m[i][j] = add(m[i][j], mul(c, g))
            m[j][i] = conj[m[i][j]]
        if det_enc(field, m):
            if any(dot(x, field.mat_vec_enc(m, x)) for x in pts):
                raise AssertionError("fitted form does not vanish on the point set")
            return HermitianForm._of(field, m)
    return None
