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
value of its coordinates after p_k.  The span is walked with the coefficients
of B[k+1:] in lexicographic order, and its coordinate at p_{k+1} is the most
significant coefficient itself, so the indices come out ascending with no sort.
Row 0 lies only in block 0 (k = 0), the last and largest: its free entries add
to the coordinates of every point there, so its fills translate block 0.  Per
pivot pattern and fill of the later rows, those rows' blocks (1/q^2 of the
points) are read point by point.  Each block-0 point's indices over the q^2
values of row 0's last free entry are then one strided slice of the tuple of
point indices, permuted by one itemgetter per field element, and the subspaces
are the rows of a zip of these slices.  So a table holds one int object per
point, not one per incidence.  A table whose subspaces times points would pass
MAX_MASK_BITS is refused before it is built.  Incidence rows are bit-packed
into Python integers; popcounts of mask ANDs are the fast intersection path.
Only one mask per pivot pattern and fill of the rows below row 0 is built
point by point: adding to row 0 translates its block of points, so each other
mask is its neighbour's with one digit's bit groups rotated (see
`_Space.subspace_masks`).

A PointSet keeps three views of itself, each built on first use and kept for
the set's lifetime: `mask`, `line_counts` (one byte per line, |L & S|) and
the digit lanes a collineation reads.  Its complement is born with the mask
and, when they exist, the line counts, each by one C-level pass.

A collineation x -> Mx maps a set on packed GF(p)-digit lanes, one lane per
point, as `varieties._zero_set` reads a variety.  y -> M[r][j]*y is GF(p)-linear
on base-p digits, so each digit of each image coordinate is one sum of the
set's digit lanes with GF(p) coefficients: big-integer additions of the
lanes times their coefficients, reduced mod p by
`_lane_residues`.  Each image coordinate y_r is then looked up as a key
r*(Q - 1) + log y_r, or a flagged sentinel for 0, in 4-byte lanes.  Lane masks
pick each point's least key, which names its leading coordinate j and the log
of y_j, and one table entry per later coordinate, at key - least key, gives
that coordinate's share of the point's index.  Every step is a big-integer
operation, a `bytes.translate`, a slice or a `map` over a table: C-level passes
over all the points, with no Python statement per point.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from operator import itemgetter, mul

from .finite_field import Field, FieldElem, make_field
from .linalg import det_enc

MAX_POINTS = 1 << 20
MAX_MASK_BITS = 1 << 31  # subspaces x points of one subspace table
MAX_SNF_CELLS = 1 << 24  # subspaces x points of an incidence matrix the SNF check builds densely


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


def subspace_count(n: int, r: int, Q: int) -> int:
    """The r-dim subspaces of PG(n, Q); ValueError for r outside [1, n] or a table over MAX_MASK_BITS."""
    if not 1 <= r <= n:
        raise ValueError(f"r = {r} must lie in [1, {n}]")
    total, count = gaussian_binomial(n + 1, r, Q), point_count(n, Q)
    if total * count > MAX_MASK_BITS:
        raise ValueError(
            f"{total} subspaces of dimension {r} times {count} points of PG({n}, {Q}) "
            f"exceed {MAX_MASK_BITS} mask bits; too large"
        )
    return total


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
    def image_tables(self) -> tuple[int, tuple[list[int], ...], tuple[list[int], ...]]:
        """`_image_enc`'s (B, keys, parts).  An encoding y = lo + q*hi (lo, hi < q) is read as
        s = lo + 256*hi.  With N = Q - 1 and L = n + 1 coordinates, keys[r][s] = r*N + log y
        below LN, and 2^B >= 2LN for y = 0, so bit B flags a zero and a point's least key,
        lead = j*N + log y_j, names its leading coordinate j.  parts[k][key - lead] is
        coordinate k's share of the point's index: offsets[k] at 0 (k = j),
        (y_k / y_j) * Q^(n-k) below LN (k > j), and 0 above LN (y_k = 0)."""
        f, n, Q, q = self.field, self.n, self.field.size, self.field.q
        N, L = Q - 1, n + 1
        B = (2 * L * N - 1).bit_length()
        encs = [lo + q * hi if lo < q else 0 for hi in range(q) for lo in range(256)]  # s -> y
        keys = tuple([r * N + f._log[y] if y else 1 << B for y in encs] for r in range(L))
        parts = tuple(
            [self._offsets[k], *(f._exp[d % N] * Q ** (n - k) for d in range(1, L * N)), *[0] * ((1 << B) + 1 - L * N)]
            for k in range(1, L)
        )
        return B, keys, parts

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

    def _rref(self, r: int):
        """The RREF walk of the r-dim subspaces: per pivot pattern p_0 < ... < p_{r-1}, the free
        entries (i, j) (j > p_i, no pivot) and their fills, in enumeration order."""
        n1, Q = self.n + 1, self.field.size
        subspace_count(self.n, r, Q)
        for pivots in itertools.combinations(range(n1), r):
            free = [(i, j) for i in range(r) for j in range(pivots[i] + 1, n1) if j not in pivots]
            yield pivots, free, itertools.product(range(Q), repeat=len(free))

    def subspaces(self, r: int) -> tuple:
        """RREF bases of the r-dim subspaces as rows of encodings, in enumeration order."""
        n1 = self.n + 1
        out = []
        for pivots, free, fills in self._rref(r):
            base = [[int(j == pj) for j in range(n1)] for pj in pivots]
            for fill in fills:
                rows = [list(row) for row in base]
                for (i, j), v in zip(free, fill):
                    rows[i][j] = v
                out.append(tuple(tuple(row) for row in rows))
        assert len(out) == subspace_count(self.n, r, self.field.size)
        return tuple(out)

    # Two per-r caches live as long as the _Space, which _space keeps for the process: the
    # point indices (read by subspace_member_indices) and the masks made from them (read by
    # incidence_matrix and every section count).  Every entry of the indices is read out of one
    # tuple of the point indices (by item, slice, itemgetter or zip), so they hold one int object
    # per point and none per incidence.  subspaces() keeps nothing, as only enum_subspaces reads
    # its bases.
    @cache
    def subspace_point_indices(self, r: int) -> tuple[tuple[int, ...], ...]:
        """The subspaces' ascending point indices, in enumeration order.  Per pivot pattern and fill
        g of rows 1..r-1, the blocks of rows 1..r-1 are read point by point; row 0's fill translates
        block 0, so a block-0 point whose span coordinate at row 0's last free column j is s has, at
        row 0's entry c there, the index index[b + (c + s) * w] (w = Q^(n-j)): perms[s] of a slice."""
        field, n1, Q = self.field, self.n + 1, self.field.size
        add_row, offsets = field.add_row_enc, self._offsets
        weights = [Q ** (self.n - j) for j in range(n1)]
        index, coords = tuple(range(self.count)), range(Q)
        perms = [itemgetter(*add_row(v, coords)) for v in coords]  # perms[v](S): S[v + c], c = 0..Q-1
        by_enc = itemgetter(0, *(1 + lg for lg in field._log[1:]))  # multiples_enc order -> c = 0..Q-1
        table = []
        for pivots, free, _ in self._rref(r):
            cols = [j for i, j in free if i == 0]
            *outer, last = cols or [None]  # row 0's free columns: the last one is read by slices
            inner, per = Q ** (len(free) - len(cols)), Q if cols else 1
            group = [None] * (inner * Q ** len(cols))
            # lead[k]: block k's indices (row k + span(rows k+1..)) from p_k's offset and the later
            # pivots' columns alone, the coefficient at p_{k+1} most significant, so ascending.
            lead, lex = [None] * r, [0]
            for k in range(r - 1, -1, -1):
                lead[k] = [offsets[pivots[k]] + x for x in lex]
                lex = [c * weights[pivots[k]] + x for c in coords for x in lex]
            # entries[k]: row k's free entries (position in the fill of rows 1..r-1, column)
            entries = [[(pos, j) for pos, (i, j) in enumerate(free[len(cols) :]) if i == k] for k in range(r)]
            zeros = [0] * len(lead[0])
            for g, fill in enumerate(itertools.product(coords, repeat=len(free) - len(cols))):
                span, later = {}, []  # span[j]: coordinate j of span(rows k+1..), lexicographic
                for k in range(r - 1, 0, -1):
                    ids = lead[k]
                    for pos, j in entries[k]:  # add row k's entry to block k, then row k to the span
                        w, x, old = weights[j], fill[pos], span.get(j)
                        cx = by_enc(field.multiples_enc(x))  # c * x, c = 0..Q-1, most significant
                        if old is None:
                            ids = [i + w * x for i in ids]
                            span[j] = [c for c in cx for _ in ids]
                        else:
                            ids = [i + w * y for i, y in zip(ids, add_row(x, old))]
                            span[j] = [y for c in cx for y in add_row(c, old)]
                    later += map(index.__getitem__, ids)
                # Block 0 over row 0's fills: the outer columns shift each point's base, the last
                # one's Q values read the slice index[b : b + Q*w : w] in the order c + span[last].
                for o, vals in enumerate(itertools.product(coords, repeat=len(outer))):
                    base = lead[0]
                    for j, v in zip(outer, vals):
                        base = [b + weights[j] * a for b, a in zip(base, add_row(v, span.get(j, zeros)))]
                    if cols:
                        w, shifts = weights[last], span.get(last, zeros)
                        columns = [perms[s](index[b : b + Q * w : w]) for b, s in zip(base, shifts)]
                    else:
                        columns = [(index[b],) for b in base]
                    at = g + o * per * inner  # row 0's fill o * per + c is the group's subspace at + c * inner
                    group[at : at + per * inner : inner] = zip(*map(itertools.repeat, later), *columns)
            table += group
        return tuple(table)

    @cache
    def subspace_masks(self, r: int) -> tuple[int, ...]:
        """The subspaces' point masks, in enumeration order.  Per pivot pattern and fill of rows
        1..r-1, only the subspace whose row 0 is zero past the pivots is masked point by point; a
        Gray walk over row 0's base-p digits gives the others.  Bumping digit d of row 0's entry j
        moves coordinate j of every point of block 0 (row 0 + span of the later rows, the indices
        [offsets[p_0], offsets[p_0] + Q^(n - p_0))), which rotates that range's bits in groups of
        width s = Q^(n-j) * p^d: positions L whose digit is below p - 1 move up by s, positions H
        whose digit is p - 1 down by (p - 1) * s.  The later blocks stay put."""
        table, n, p, Q = self.subspace_point_indices(r), self.n, self.field.p, self.field.size
        e, out, start = 2 * self.field.t, [0] * len(table), 0
        for pivots, free, _ in self._rref(r):
            cols = [j for i, j in free if i == 0]
            width, off = Q ** (n - pivots[0]), self._offsets[pivots[0]]
            block0 = ((1 << width) - 1) << off
            # Per base-p digit k of row 0's entries read as one number N in enumeration order (digit
            # k % e of entry cols[-1 - k // e]): (L, H, s, (p - 1) * s).  Row 0's fill N puts a
            # subspace at start + N * inner + (its fill of the later rows).
            moves = []
            for k in range(len(cols) * e):
                s = Q ** (n - cols[-1 - k // e]) * p ** (k % e)
                ones = ((1 << width) - 1) // ((1 << p * s) - 1)  # one bit per period p * s
                H = ones * (((1 << s) - 1) << (p - 1) * s) << off
                moves.append((block0 ^ H, H, s, (p - 1) * s))
            inner = Q ** (len(free) - len(cols))
            walk = [(*moves[k], start + N * inner) for k, N in _gray_steps(len(moves), p)]
            for g in range(inner):
                m = out[start + g] = _mask_of(table[start + g])
                b = m & block0
                rest = m ^ b
                for L, H, s, t, at in walk:
                    b = (b & L) << s | (b & H) >> t
                    out[at + g] = b | rest
            start += Q ** len(free)
        return tuple(out)


@cache
def _gray_steps(D: int, p: int) -> tuple[tuple[int, int], ...]:
    """The modular p-ary Gray code on D digits as steps (k, N): add 1 mod p to digit k, giving the
    word of base-p value N.  Step i bumps digit v_p(i), so the p^D - 1 steps visit every other word once."""
    digits, N, steps = [0] * D, 0, []
    for i in range(1, p**D):
        k = 0
        while i % p ** (k + 1) == 0:
            k += 1
        N += p**k if digits[k] < p - 1 else -(p - 1) * p**k
        digits[k] = (digits[k] + 1) % p
        steps.append((k, N))
    return tuple(steps)


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

    def to_dense(self) -> list[list[int]]:
        """The 0/1 rows as lists, each read off one binary string (column j is bit j)."""
        bits, width = bytes.maketrans(b"01", b"\0\1"), f"0{self.n_cols}b"
        return [list(format(r, width)[::-1].encode().translate(bits)) for r in self.rows]


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
        # one loop: on Python 3.11 it beats min, max and a pairwise map(lt) over the members by 2.4x
        count, last = _space(self.n, self.field).count, -1
        for i in self.members:
            if i <= last or i >= count:
                bad = next((j for j in self.members if not 0 <= j < count), None)  # named before any order fault
                if bad is None:
                    raise ValueError("members must be strictly increasing indices")
                raise ValueError(f"member {bad} is not a point index of PG({self.n}, {self.field.size}) (0..{count - 1})")
            last = i

    @staticmethod
    def of(n: int, field: Field, indices) -> PointSet:
        return PointSet(n, field, tuple(sorted(set(indices))))

    def __len__(self):
        return len(self.members)

    def __contains__(self, idx: int) -> bool:
        i = bisect_left(self.members, idx)  # O(log n), and the mask is never built
        return i < len(self.members) and self.members[i] == idx

    @cached_property
    def mask(self) -> int:
        return _mask_of(self.members)

    @cached_property
    def line_counts(self) -> bytes:
        """|L & S| for each line L of PG(n, q^2), in enumeration order: one popcount per line.
        A byte each is enough: MAX_MASK_BITS refuses every line table with Q >= 256, so no
        line has more than 170 points."""
        smask = self.mask
        return bytes((m & smask).bit_count() for m in _space(self.n, self.field).subspace_masks(2))

    @cached_property
    def _digit_lanes(self) -> list[int]:
        """Digit lane j*e + d (e = 2t) holds base-p digit d of coordinate j of every member, one
        lane of `_lane_width(p)` bytes per member: `_image_enc`'s input, kept as `mask` is,
        since the censuses map one set many times."""
        f, pts = self.field, _space(self.n, self.field).points
        cols = zip(*map(pts.__getitem__, self.members))
        return [_pack(bytes(map(table.__getitem__, col)), _lane_width(f.p)) for col in cols for table in _digits(f)]

    def complement(self) -> PointSet:
        """The other points, with the mask seeded by one XOR against the all-points mask and,
        when this set's line counts exist, the complement's by one translate, c -> Q + 1 - c."""
        count, Q = _space(self.n, self.field).count, self.field.size
        others = itertools.filterfalse(set(self.members).__contains__, range(count))
        out = PointSet(self.n, self.field, tuple(others))
        out.__dict__["mask"] = ((1 << count) - 1) ^ self.mask
        if "line_counts" in self.__dict__:
            out.__dict__["line_counts"] = self.line_counts.translate(bytes(range(Q + 1, -1, -1)).ljust(256, b"\0"))
        return out

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


# ---------------------------------------------------------------------------
# collineations


def apply_collineation(M, S: PointSet) -> PointSet:
    """Image of S under the projectivity x -> Mx; M must be a nonsingular (n+1) x (n+1) matrix over S.field."""
    n1, field = S.n + 1, S.field
    over_field = all(len(row) == n1 and all(getattr(x, "field", None) is field for x in row) for row in M)
    if len(M) != n1 or not over_field:
        raise ValueError(f"a collineation of PG({S.n}, {field.size}) is a {n1} x {n1} matrix over GF({field.size})")
    enc = tuple(tuple(x.enc for x in row) for row in M)
    if not det_enc(field, enc):
        raise ValueError("collineation matrix is singular")
    return _image_enc(enc, S)


def _lane_width(p: int) -> int:
    """Bytes per lane of a packed GF(p)-digit sum: one when a lane reduced mod p plus one term
    c * digit <= (p - 1)^2 fits a byte, p(p - 1) <= 255; four otherwise."""
    return 1 if p * (p - 1) <= 255 else 4


@cache
def _mod_table(p: int) -> bytes:
    return bytes(x % p for x in range(256))


def _pack(digits: bytes, lane: int) -> int:
    """One value per byte, as an int with one lane of `lane` bytes per value."""
    if lane == 1:
        return int.from_bytes(digits, sys.byteorder)
    lanes = bytearray(lane * len(digits))
    lanes[(0 if sys.byteorder == "little" else lane - 1) :: lane] = digits
    return int.from_bytes(lanes, sys.byteorder)


def _residues(acc: int, p: int, lane: int, count: int) -> bytes:
    """The `count` lanes of acc, each reduced mod p, one byte per lane."""
    lanes = acc.to_bytes(lane * count, sys.byteorder)
    if lane == 1:
        return lanes.translate(_mod_table(p))
    return bytes(map(p.__rmod__, memoryview(lanes).cast("I")))


def _lane_residues(terms, p: int, count: int) -> bytes:
    """sum(terms) mod p, one byte per lane, `count` lanes.

    Every lane of a term (`_lane_width(p)` bytes) holds c * digit <= (p - 1)^2.  The
    terms are summed in chunks, each by one C-level `sum`, as many as fit on a lane
    reduced mod p, p - 1 + step * (p - 1)^2 < 256^lane; the lanes are reduced between
    chunks.
    """
    lane, terms = _lane_width(p), iter(terms)
    step = ((1 << 8 * lane) - p) // (p - 1) ** 2
    acc = sum(itertools.islice(terms, step))
    for first in terms:  # another chunk
        acc = _pack(_residues(acc, p, lane, count), lane) + first + sum(itertools.islice(terms, step - 1))
    return _residues(acc, p, lane, count)


@cache
def _digits(field: Field) -> tuple[list[int], ...]:
    """Per base-p digit d, the list of digit d of every encoding."""
    return tuple([x // field.p**d % field.p for x in range(field.size)] for d in range(field.degree))


@cache
def _times_digits(field: Field, m: int) -> tuple[tuple[int, ...], ...]:
    """The GF(p)-matrix of y -> m*y on base-p digits: entry [k][d] is digit k of m * X^d."""
    return tuple(zip(*(field._enc_to_poly(field.mul_enc(m, field.p**d)) for d in range(field.degree))))


def _image_enc(M, S: PointSet) -> PointSet:
    """Image of S under x -> Mx for a nonsingular M given as rows of encodings, on digit lanes.

    Lane j*e + d holds digit d of coordinate j of every member (e = 2t).  Digit k of image
    coordinate r sums the lanes times digit k of M[r][j] * X^d; its digits make the
    coordinate's 2-byte encodings, read as 4-byte key lanes (`_Space.image_tables`).  Bit B
    of a key flags y_r = 0, so lane masks pick each point's least key, `lead`; every lane of
    key - lead is nonnegative, so one big-int subtraction gives them all.
    """
    f, sp = S.field, _space(S.n, S.field)
    p, t, count, order = f.p, f.t, len(S), sys.byteorder
    lanes, powers = S._digit_lanes, [p**k for k in range(t)]
    B, keys, parts = sp.image_tables
    split, low = bytearray(2 * count), (0 if order == "little" else 1)  # lo in byte `low` of each H lane
    ones = int.from_bytes(b"\1\0\0\0" * count, "little")  # 1 in every 4-byte lane
    K, lead, taken = [], 0, 0
    for r, row in enumerate(M):
        # per digit k of y_r, the coefficients c of the lanes j*e + d: digit k of M[r][j] * X^d
        coeffs = map(sum, zip(*(_times_digits(f, m) for m in row)), itertools.repeat(()))
        digits = [
            int.from_bytes(_lane_residues(itertools.compress(map(mul, lanes, c), c), p, count), order)
            for c in coeffs
        ]
        for half in (0, 1):  # lo, then hi: digits < t, then the rest, each half a number < q <= 256
            split[low ^ half :: 2] = sum(map(mul, powers, digits[half * t : (half + 1) * t])).to_bytes(count, order)
        Kr = int.from_bytes(array("I", map(keys[r].__getitem__, memoryview(split).cast("H"))), order)
        nonzero = ones ^ (Kr >> B & ones)
        lead |= Kr & (nonzero ^ (nonzero & taken)) * 0xFFFFFFFF  # the lanes where y_r is the first nonzero
        taken |= nonzero
        K.append(Kr)
    ids = sp._offsets[0] * (K[0] >> B & ones ^ ones)  # coordinate 0 leads wherever it is nonzero
    for part, Kr in zip(parts, K[1:]):
        diffs = memoryview((Kr - lead).to_bytes(4 * count, order)).cast("I")
        ids += int.from_bytes(array("I", map(part.__getitem__, diffs)), order)
    out = PointSet.of(S.n, f, memoryview(ids.to_bytes(4 * count, order)).cast("I"))
    assert len(out) == len(S)
    return out
