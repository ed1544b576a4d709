"""Points, subspaces, incidence matrices and collineations of PG(n, q^2).

Projective points are normalized coordinate tuples of FieldElem (first nonzero
coordinate scaled to 1).  The canonical point enumeration is ascending
lexicographic order on the tuple of integer encodings; indices into that order
are the currency of PointSet, incidence rows and all census code.

Subspaces are enumerated once per (n, r, field) through reduced-row-echelon
pivot patterns, so every r-dimensional subspace (projective dimension r-1)
appears exactly once, in a deterministic order.  Incidence rows are bit-packed
into Python integers; popcounts of mask ANDs are the fast intersection path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .finite_field import Field, FieldElem, make_field
from .linalg import mat_det, mat_vec

MAX_POINTS = 1 << 20


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
        count = (field.size ** (n + 1) - 1) // (field.size - 1)
        if count > MAX_POINTS:
            raise ValueError(f"PG({n}, {field.size}) has {count} points; too large")
        self.n = n
        self.field = field
        pts = []
        elems = field.elements
        zero, one = field.zero, field.one
        for k in range(n, -1, -1):
            prefix = (zero,) * k + (one,)
            for tail in itertools.product(elems, repeat=n - k):
                pts.append(prefix + tail)
        assert len(pts) == count
        self.points: tuple[tuple[FieldElem, ...], ...] = tuple(pts)
        self.index: dict[tuple[int, ...], int] = {
            tuple(e.enc for e in pt): i for i, pt in enumerate(pts)
        }
        self._subspaces: dict[int, tuple] = {}
        self._subspace_points: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._subspace_masks: dict[int, tuple[int, ...]] = {}

    def point_index(self, coords) -> int:
        return self.index[tuple(e.enc for e in normalize_point(coords))]

    def subspaces(self, r: int) -> tuple:
        if r not in self._subspaces:
            self._subspaces[r] = self._enum_subspaces(r)
        return self._subspaces[r]

    def _enum_subspaces(self, r: int) -> tuple:
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

    def subspace_point_indices(self, r: int) -> tuple[tuple[int, ...], ...]:
        if r not in self._subspace_points:
            subs = self.subspaces(r)
            if r == 1:
                coeff_pts = ((self.field.one,),)
            else:
                coeff_pts = _space(r - 1, self.field).points
            all_ids = []
            for basis in subs:
                ids = []
                for cvec in coeff_pts:
                    coords = mat_vec(tuple(zip(*basis)), cvec)
                    ids.append(self.point_index(coords))
                ids.sort()
                all_ids.append(tuple(ids))
            self._subspace_points[r] = tuple(all_ids)
        return self._subspace_points[r]

    def subspace_masks(self, r: int) -> tuple[int, ...]:
        if r not in self._subspace_masks:
            self._subspace_masks[r] = tuple(
                _mask_of(ids) for ids in self.subspace_point_indices(r)
            )
        return self._subspace_masks[r]

    @cached_property
    def line_count(self) -> int:
        return gaussian_binomial(self.n + 1, 2, self.field.size)


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
    """All points of PG(n, q^2), canonical (lexicographic) order."""
    return _space(n, field).points


def point_index(n: int, field: Field, coords) -> int:
    """Canonical index of the point with the given (any-scale) coordinates."""
    return _space(n, field).point_index(coords)


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
    return IncidenceMatrix(n_rows=len(masks), n_cols=len(sp.points), rows=masks)


# ---------------------------------------------------------------------------
# point sets


@dataclass(frozen=True)
class PointSet:
    """A set of points of PG(n, q^2), held as sorted canonical indices."""

    n: int
    field: Field
    members: tuple[int, ...]

    def __post_init__(self):
        count = len(_space(self.n, self.field).points)
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
        total = len(_space(self.n, self.field).points)
        mem = set(self.members)
        return PointSet(
            self.n, self.field, tuple(i for i in range(total) if i not in mem)
        )

    def coords(self) -> tuple[tuple[FieldElem, ...], ...]:
        pts = _space(self.n, self.field).points
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
    return PointSet(n, field, tuple(range(len(_space(n, field).points))))


# ---------------------------------------------------------------------------
# lines and collineations


def line_through(n: int, field: Field, P, Q) -> PointSet:
    """The q^2+1 points of the line spanned by two distinct points."""
    sp = _space(n, field)
    P = normalize_point(P)
    Q = normalize_point(Q)
    if P == Q:
        raise ValueError("line_through needs two distinct points")
    ids = [sp.point_index(Q)]
    for c in field.elements:
        coords = tuple(a + c * b for a, b in zip(P, Q))
        ids.append(sp.point_index(coords))
    assert len(set(ids)) == field.size + 1
    return PointSet.of(n, field, ids)


def apply_collineation(M, S: PointSet) -> PointSet:
    """Image of S under the projectivity x -> Mx; M must be nonsingular."""
    if not mat_det(M):
        raise ValueError("collineation matrix is singular")
    sp = _space(S.n, S.field)
    pts = sp.points
    ids = [sp.point_index(mat_vec(M, pts[i])) for i in S.members]
    out = PointSet.of(S.n, S.field, ids)
    assert len(out) == len(S)
    return out
