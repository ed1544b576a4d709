"""Small dense linear algebra over a Field: determinants and GF(p) nullspaces.

`_echelon` is the one Gaussian elimination, on integer encodings through the
Field kernel.  `det_enc` reads the determinant off it (`mat_det` is its
FieldElem façade); `nullspace_mod_p` runs it in GF(p^2), whose encodings
0..p-1 are GF(p), for the value digits of `varieties`' packed value rows.
Matrix-vector products run on encodings too (`Field.mat_vec_enc`).
"""

from __future__ import annotations

from .finite_field import Field, FieldElem, make_field


def _echelon(field: Field, rows, ncols: int):
    """Row echelon form of a matrix of encodings: (rows, pivot columns, signed pivot product).

    Each pivot is scaled to 1 and cleared below; the product of the pivots
    changes sign at each row swap, so it is the determinant of a square
    matrix whose every row pivots.
    """
    add, mul, neg = field.add_enc, field.mul_enc, field.neg_enc
    rows = [list(r) for r in rows]
    pivots = []
    det = 1
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            det = neg(det)
        det = mul(det, rows[rank][col])
        inv = field.inv_enc(rows[rank][col])
        rows[rank] = [mul(x, inv) for x in rows[rank]]
        for r in range(rank + 1, len(rows)):
            f = neg(rows[r][col])
            if f:
                rows[r] = [add(a, mul(f, b)) for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
    return rows, pivots, det


def mat_det(M) -> FieldElem:
    """The determinant of a square FieldElem matrix; ValueError unless M is square over one field."""
    field = M[0][0].field if M and M[0] else None
    if not field or any(len(row) != len(M) or any(x.field is not field for x in row) for row in M):
        raise ValueError("determinant of a non-square or mixed-field matrix")
    return field.elem(det_enc(field, [[x.enc for x in row] for row in M]))


def det_enc(field: Field, M) -> int:
    """The determinant of a square matrix of encodings, by Gaussian elimination."""
    _, pivots, det = _echelon(field, M, len(M))
    return det if len(pivots) == len(M) else 0


def nullspace_mod_p(rows: list[list[int]], p: int) -> list[list[int]]:
    """Basis of the right nullspace of an integer matrix over GF(p).

    One vector per free column of the reduced row echelon form, so the basis
    depends only on the row space.  ValueError on a matrix with no rows, whose
    column count is unknown, and unless p is a prime with p^2 <= MAX_FIELD_SIZE.
    """
    if not rows:
        raise ValueError("nullspace of a matrix with no rows: column count unknown")
    field, ncols = make_field(p, 1), len(rows[0])
    work, pivots, _ = _echelon(field, [[x % p for x in row] for row in rows], ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = 1
        # back-substitution: row r is zero left of its pivot, and vec is zero at columns not yet solved
        for r in reversed(range(len(pivots))):
            vec[pivots[r]] = field.neg_enc(field.mat_vec_enc((work[r],), vec)[0])
        basis.append(vec)
    return basis
