"""Points, subspaces, incidence matrices and collineations of PG(n, q^2).

Points are stored as normalized tuples of integer field encodings (first
nonzero coordinate 1), enumerated in ascending lexicographic order.  So a
point's index has a closed form, computed only by `_Space.index_of`: the count
of points with more leading zeros plus the base-q^2 value of the tail after
the leading 1.  These indices are the currency of PointSet, incidence rows
and all census code; the FieldElem view of the points is built on first use.

Subspaces are enumerated once per (n, r, field) through reduced-row-echelon
pivot patterns, so every r-dimensional subspace (projective dimension r-1)
appears exactly once, in a deterministic order.  Incidence rows are bit-packed
into Python integers; popcounts of mask ANDs are the fast intersection path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache

from .finite_field import Field, FieldElem, make_field
from .linalg import mat_det

MAX_POINTS = 1 << 20


def point_count(n: int, Q: int) -> int:
    """1 + Q + ... + Q^n, the points of PG(n, Q); ValueError above MAX_POINTS."""
    count = 1
    for _ in range(n):  # Horner's rule; stops early on a huge n
        count = count * Q + 1
        if count > MAX_POINTS:
            raise ValueError(f"PG({n}, {Q}) has more than {MAX_POINTS} points; too large")
    return count


def gaussian_binomial(m: int, r: int, Q: int) -> int:
    """Number of r-dimensional subspaces of an m-dimensional space over GF(Q)."""
    num = 1
    den = 1
    for i in range(r):
        num *= Q ** (m - i) - 1
        den *= Q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def normalize_point(coords) -> tuple[FieldElem, ...]:
    """Scale so the first nonzero coordinate is 1; rejects the zero vector."""
    coords = tuple(coords)
    for c in coords:
        if c:
            field = c.field
            if c == field.one:
                return coords
            inv = field.one / c
            return tuple(x * inv for x in coords)
    raise ValueError("zero vector has no projective point")


class _Space:
    """Cached enumeration data for PG(n, q^2); internal."""

    def __init__(self, n: int, field: Field):
        if n < 1:
            raise ValueError(f"n = {n} must be >= 1")
        Q = field.size
        count = point_count(n, Q)
        self.n = n
        self.field = field
        self.count = count
        # every member index is taken from this tuple, so equal indices share one int
        self.ids = tuple(range(count))
        # _offsets[j]: the number of points whose first nonzero coordinate lies after j
        self._offsets = tuple((Q ** (n - j) - 1) // (Q - 1) for j in range(n + 1))
        pts = []
        for k in range(n, -1, -1):
            prefix = (0,) * k + (1,)
            for tail in itertools.product(range(Q), repeat=n - k):
                pts.append(prefix + tail)
        assert len(pts) == count
        self.points: tuple[tuple[int, ...], ...] = tuple(pts)

    @cached_property
    def elem_points(self) -> tuple[tuple[FieldElem, ...], ...]:
        elems = self.field.elements
        return tuple(tuple(elems[e] for e in pt) for pt in self.points)

    def index_of(self, encs) -> int:
        """Canonical index of the point with these (any-scale) coordinate encodings."""
        for j, lead in enumerate(encs):
            if lead:
                break
        else:
            raise ValueError("zero vector has no projective point")
        if lead != 1:
            inv, mul = self.field.inv_enc(lead), self.field.mul_enc
            encs = [mul(x, inv) for x in encs]
        Q, tail = self.field.size, 0
        for x in encs[j + 1 :]:
            tail = tail * Q + x
        return self.ids[self._offsets[j] + tail]

    # the per-r caches below live as long as the _Space, which _space keeps for the process
    @cache
    def subspaces(self, r: int) -> tuple:
        if not 1 <= r <= self.n:
            raise ValueError(f"r = {r} must lie in [1, {self.n}]")
        n1 = self.n + 1
        field = self.field
        zero, one = field.zero, field.one
        out = []
        for pivots in itertools.combinations(range(n1), r):
            pivot_set = set(pivots)
            free = [
                (i, j)
                for i in range(r)
                for j in range(pivots[i] + 1, n1)
                if j not in pivot_set
            ]
            base = [[zero] * n1 for _ in range(r)]
            for i, pj in enumerate(pivots):
                base[i][pj] = one
            for fill in itertools.product(field.elements, repeat=len(free)):
                rows = [list(row) for row in base]
                for (i, j), v in zip(free, fill):
                    rows[i][j] = v
                out.append(tuple(tuple(row) for row in rows))
        assert len(out) == gaussian_binomial(n1, r, field.size)
        return tuple(out)

    @cache
    def subspace_point_indices(self, r: int) -> tuple[tuple[int, ...], ...]:
        coeff_pts = ((1,),) if r == 1 else _space(r - 1, self.field).points
        mat_vec, index_of = self.field.mat_vec_enc, self.index_of
        all_ids = []
        for basis in self.subspaces(r):
            cols = tuple(zip(*((x.enc for x in row) for row in basis)))
            all_ids.append(tuple(sorted([index_of(mat_vec(cols, c)) for c in coeff_pts])))
        return tuple(all_ids)

    @cache
    def subspace_masks(self, r: int) -> tuple[int, ...]:
        return tuple(_mask_of(ids) for ids in self.subspace_point_indices(r))


def _mask_of(ids) -> int:
    m = 0
    for i in ids:
        m |= 1 << i
    return m


@lru_cache(maxsize=None)
def _space(n: int, field: Field) -> _Space:
    return _Space(n, field)


# ---------------------------------------------------------------------------
# public enumeration API


def enum_points(n: int, field: Field) -> tuple[tuple[FieldElem, ...], ...]:
    """All points of PG(n, q^2) as FieldElem tuples, canonical (lexicographic) order."""
    return _space(n, field).elem_points


def point_index(n: int, field: Field, coords) -> int:
    """Canonical index of the point with the given (any-scale) coordinates."""
    encs = tuple(e.enc for e in coords)
    if len(encs) != n + 1:
        raise ValueError(f"a point of PG({n}, {field.size}) has {n + 1} coordinates")
    return _space(n, field).index_of(encs)


def enum_subspaces(n: int, r: int, field: Field) -> tuple:
    """RREF basis matrices of all r-dim subspaces of GF(q^2)^(n+1)."""
    return _space(n, field).subspaces(r)


def subspace_member_indices(n: int, r: int, field: Field) -> tuple[tuple[int, ...], ...]:
    """Sorted point-index tuples, parallel to enum_subspaces order."""
    return _space(n, field).subspace_point_indices(r)


@dataclass(frozen=True)
class IncidenceMatrix:
    """0/1 incidence of r-subspaces (rows) vs points (columns), bit-packed."""

    n_rows: int
    n_cols: int
    rows: tuple[int, ...]  # rows[i] bit j set iff point j lies in subspace i

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def row_sum(self, i: int) -> int:
        return self.rows[i].bit_count()

    def col_sum(self, j: int) -> int:
        bit = 1 << j
        return sum(1 for r in self.rows if r & bit)

    def to_dense(self) -> list[list[int]]:
        return [
            [(r >> j) & 1 for j in range(self.n_cols)] for r in self.rows
        ]


def incidence_matrix(n: int, r: int, field: Field) -> IncidenceMatrix:
    """A_{r,1}: rows in enum_subspaces order, columns in enum_points order."""
    sp = _space(n, field)
    masks = sp.subspace_masks(r)
    return IncidenceMatrix(n_rows=len(masks), n_cols=sp.count, rows=masks)


# ---------------------------------------------------------------------------
# point sets


@dataclass(frozen=True)
class PointSet:
    """A set of points of PG(n, q^2), held as sorted canonical indices."""

    n: int
    field: Field
    members: tuple[int, ...]

    def __post_init__(self):
        count = _space(self.n, self.field).count
        last = -1
        for i in self.members:
            if i <= last or i >= count:
                raise ValueError("members must be strictly increasing indices")
            last = i

    @staticmethod
    def of(n: int, field: Field, indices) -> PointSet:
        return PointSet(n, field, tuple(sorted(set(indices))))

    def __len__(self):
        return len(self.members)

    def __contains__(self, idx: int) -> bool:
        return bool(self.mask & (1 << idx))

    @cached_property
    def mask(self) -> int:
        return _mask_of(self.members)

    def _check_ambient(self, other: PointSet):
        if other.n != self.n or other.field is not self.field:
            raise ValueError("ambient spaces differ")

    def intersect(self, other: PointSet) -> PointSet:
        self._check_ambient(other)
        return PointSet.of(self.n, self.field, set(self.members) & set(other.members))

    def complement(self) -> PointSet:
        mem = set(self.members)
        return PointSet(
            self.n, self.field, tuple(i for i in _space(self.n, self.field).ids if i not in mem)
        )

    def coords(self) -> tuple[tuple[FieldElem, ...], ...]:
        pts = _space(self.n, self.field).elem_points
        return tuple(pts[i] for i in self.members)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.field.p,
            "t": self.field.t,
            "modulus": list(self.field.modulus),
            "members": list(self.members),
        }

    @staticmethod
    def from_json_dict(d) -> PointSet:
        """Inverse of to_json_dict; malformed input raises a one-line ValueError."""
        if not isinstance(d, dict):
            raise ValueError(f"point set must be a JSON object, not {type(d).__name__}")
        missing = [k for k in ("n", "p", "t", "members") if k not in d]
        if missing:
            raise ValueError(f"point set lacks key(s) {', '.join(missing)}")
        n, p, t = (_json_int(d[k], k) for k in ("n", "p", "t"))
        members = tuple(_json_int(i, "member") for i in _json_list(d["members"], "members"))
        modulus = d.get("modulus")
        if modulus is not None:
            modulus = tuple(_json_int(c, "modulus") for c in _json_list(modulus, "modulus"))
        return PointSet(n, make_field(p, t, modulus), members)


def _json_int(value, what: str) -> int:
    if type(value) is not int:
        raise ValueError(f"point set {what} must be an integer, not {value!r}")
    return value


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"point set {what} must be a JSON list, not {type(value).__name__}")
    return value


def all_points_set(n: int, field: Field) -> PointSet:
    return PointSet(n, field, _space(n, field).ids)


# ---------------------------------------------------------------------------
# lines and collineations


def line_through(n: int, field: Field, P, Q) -> PointSet:
    """The q^2+1 points of the line spanned by two distinct points."""
    P = normalize_point(P)
    Q = normalize_point(Q)
    if P == Q:
        raise ValueError("line_through needs two distinct points")
    ids = [point_index(n, field, Q)]
    for c in field.elements:
        coords = tuple(a + c * b for a, b in zip(P, Q))
        ids.append(point_index(n, field, coords))
    assert len(set(ids)) == field.size + 1
    return PointSet.of(n, field, ids)


def apply_collineation(M, S: PointSet) -> PointSet:
    """Image of S under the projectivity x -> Mx; M must be nonsingular."""
    if not mat_det(M):
        raise ValueError("collineation matrix is singular")
    sp = _space(S.n, S.field)
    pts, index_of, mat_vec = sp.points, sp.index_of, S.field.mat_vec_enc
    M = tuple(tuple(x.enc for x in row) for row in M)
    out = PointSet.of(S.n, S.field, [index_of(mat_vec(M, pts[i])) for i in S.members])
    assert len(out) == len(S)
    return out
