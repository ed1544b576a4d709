"""Points, subspaces, incidence matrices and collineations of PG(n, q^2).

Points are stored as normalized tuples of integer field encodings (first
nonzero coordinate 1), enumerated in ascending lexicographic order.  So a
point's index has a closed form, computed by `_Space.index_of` for any scaling
of its coordinates: the count of points with more leading zeros plus the
base-q^2 value of the tail after the leading 1.  These indices are the
currency of PointSet, incidence rows and all census code; the FieldElem view
of the points is built on first use.

Subspaces are enumerated through reduced-row-echelon pivot patterns, so every
r-dimensional subspace (projective dimension r-1) appears exactly once, in a
deterministic order.  Their point indices, kept once per (n, r, field), are
read off the RREF basis B (pivots p_0 < ... < p_{r-1}) without normalizing:
the points are B[k] + span(B[k+1:]) for k = r-1, ..., 0, each already
normalized because B[k] has its leading 1 at p_k and every later row is 0 up
to and at p_k.  So a point's index is the offset of p_k plus the base-q^2
value of its coordinates after p_k, and the coordinates of the whole span are
built column by column from rotated exp-table rows (the multiples c*x) and one
add-table row per entry (XOR when p = 2).  Incidence rows are bit-packed into
Python integers; popcounts of mask ANDs are the fast intersection path.

A collineation x -> Mx maps a set through column tables: for each column j,
the vectors c*M[:, j] for every c in `Field.multiples_enc` order (0, g^0, ...),
built from rotated exp-table rows.  A point is kept as the positions of its
coordinates in that order; its image is the sum of one table entry per nonzero
coordinate, and its index is read off after scaling by 1 / leading coordinate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache

from .finite_field import Field, FieldElem, make_field
from .linalg import mat_det

MAX_POINTS = 1 << 20


def point_count(n: int, Q: int) -> int:
    """1 + Q + ... + Q^n, the points of PG(n, Q); ValueError for n < 1 or above MAX_POINTS."""
    if n < 1:
        raise ValueError(f"n = {n} must be >= 1")
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


class _Space:
    """Cached enumeration data for PG(n, q^2); internal."""

    def __init__(self, n: int, field: Field):
        Q = field.size
        count = point_count(n, Q)
        self.n = n
        self.field = field
        self.count = count
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

    @cached_property
    def positions(self) -> tuple[tuple[int, ...], ...]:
        """Each point's coordinates as positions in `Field.multiples_enc` order: 0 for 0, else 1 + log."""
        pos = [0, *(1 + lg for lg in self.field._log[1:])].__getitem__
        return tuple(tuple(map(pos, pt)) for pt in self.points)

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
        return self._offsets[j] + tail

    def subspaces(self, r: int) -> tuple:
        """RREF bases of the r-dim subspaces as rows of encodings, in enumeration order."""
        if not 1 <= r <= self.n:
            raise ValueError(f"r = {r} must lie in [1, {self.n}]")
        n1 = self.n + 1
        field = self.field
        out = []
        for pivots in itertools.combinations(range(n1), r):
            pivot_set = set(pivots)
            free = [
                (i, j)
                for i in range(r)
                for j in range(pivots[i] + 1, n1)
                if j not in pivot_set
            ]
            base = [[int(j == pj) for j in range(n1)] for pj in pivots]
            for fill in itertools.product(range(field.size), repeat=len(free)):
                rows = [list(row) for row in base]
                for (i, j), v in zip(free, fill):
                    rows[i][j] = v
                out.append(tuple(tuple(row) for row in rows))
        assert len(out) == gaussian_binomial(n1, r, field.size)
        return tuple(out)

    # Two per-r caches live as long as the _Space, which _space keeps for the process: the
    # point indices (read by subspace_member_indices) and the masks made from them (read by
    # incidence_matrix and every section count).  subspaces() keeps nothing,
    # as only the first of these caches and enum_subspaces read its bases.
    @cache
    def subspace_point_indices(self, r: int) -> tuple[tuple[int, ...], ...]:
        field, n1 = self.field, self.n + 1
        add_row, multiples, offsets = field.add_row_enc, field.multiples_enc, self._offsets
        weights = [field.size ** (self.n - j) for j in range(n1)]
        all_ids = []
        for basis in self.subspaces(r):
            ids = []
            # span[j]: coordinate j of each of the `size` vectors of span(basis[k+1:]), for
            # j >= nxt, the pivot of basis[k+1]; every span coordinate before nxt is 0
            span, nxt, size = {}, n1, 1
            for k in range(r - 1, -1, -1):
                row = basis[k]
                pk = row.index(1)
                # the points row + span: coordinates pk+1 .. nxt-1 are those of row alone
                part = [offsets[pk] + sum(row[j] * weights[j] for j in range(pk + 1, nxt))] * size
                for j in range(nxt, n1):
                    w = weights[j]
                    part = [i + w * v for i, v in zip(part, add_row(row[j], span[j]))]
                ids += part
                if k:  # span(basis[k:]): vector m*Q + c is span vector m plus the c-th multiple of row
                    for j in range(pk, n1):
                        cx = multiples(row[j])
                        span[j] = cx * size if j < nxt else [y for s in span[j] for y in add_row(s, cx)]
                    nxt, size = pk, size * field.size
            all_ids.append(tuple(sorted(ids)))
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
    return _space(n, field).index_of(_point_encs(n, field, coords))


def _point_encs(n: int, field: Field, coords) -> tuple[int, ...]:
    """The encodings of coords; ValueError unless they are n + 1 elements of field."""
    coords = tuple(coords)
    if len(coords) != n + 1 or any(getattr(x, "field", None) is not field for x in coords):
        raise ValueError(f"a point of PG({n}, {field.size}) has {n + 1} coordinates in GF({field.size})")
    return tuple(x.enc for x in coords)


def enum_subspaces(n: int, r: int, field: Field) -> tuple:
    """RREF basis matrices of all r-dim subspaces of GF(q^2)^(n+1)."""
    elems = field.elements
    return tuple(
        tuple(tuple(elems[e] for e in row) for row in basis) for basis in _space(n, field).subspaces(r)
    )


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
        return idx >= 0 and bool(self.mask >> idx & 1)

    @cached_property
    def mask(self) -> int:
        return _mask_of(self.members)

    def complement(self) -> PointSet:
        mem = set(self.members)
        return PointSet(
            self.n, self.field, tuple(i for i in range(_space(self.n, self.field).count) if i not in mem)
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
    return PointSet(n, field, tuple(range(_space(n, field).count)))


# ---------------------------------------------------------------------------
# collineations


def apply_collineation(M, S: PointSet) -> PointSet:
    """Image of S under the projectivity x -> Mx; M must be a nonsingular (n+1) x (n+1) matrix over S.field."""
    n1, field = S.n + 1, S.field
    over_field = all(len(row) == n1 and all(getattr(x, "field", None) is field for x in row) for row in M)
    if len(M) != n1 or not over_field:
        raise ValueError(f"a collineation of PG({S.n}, {field.size}) is a {n1} x {n1} matrix over GF({field.size})")
    if not mat_det(M):
        raise ValueError("collineation matrix is singular")
    return _image_enc(tuple(tuple(x.enc for x in row) for row in M), S)


def _image_enc(M, S: PointSet) -> PointSet:
    """Image of S under x -> Mx for a nonsingular M given as rows of encodings, by column tables."""
    f, sp = S.field, _space(S.n, S.field)
    Q, nm1, log, exp, add = f.size, f.size - 1, f._log, f._exp, f.add_enc
    # cols[j][k]: the column c*M[:, j] as a tuple over the rows, for the c at position k
    cols = [tuple(zip(*[f.multiples_enc(row[j]) for row in M])) for j in range(S.n + 1)]
    pos, offsets, ids = sp.positions, sp._offsets, []
    for i in S.members:
        v = None
        for col, c in zip(cols, pos[i]):
            if c:
                v = col[c] if v is None else map(add, v, col[c])
        v = tuple(v)
        j = 0
        while not v[j]:
            j += 1
        inv, tail = nm1 - log[v[j]], 0  # the log of 1 / v[j], in (0, nm1]
        for x in v[j + 1 :]:
            tail = tail * Q + (x and exp[(log[x] + inv) % nm1])
        ids.append(offsets[j] + tail)
    out = PointSet.of(S.n, f, ids)
    assert len(out) == len(S)
    return out
