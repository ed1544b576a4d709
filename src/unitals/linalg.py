"""Small dense linear algebra: determinants over a Field and GF(p) nullspaces.

`det_enc` eliminates on integer encodings; `mat_det` is its FieldElem façade.
Matrix-vector products run on encodings too (`Field.mat_vec_enc`).
`nullspace_mod_p` is the one GF(p) eliminator: it picks the value digits that
determine an element of GF(q), for the packed value rows of `varieties`.
"""

from __future__ import annotations

from .finite_field import Field, FieldElem


def mat_det(M) -> FieldElem:
    """The determinant of a square FieldElem matrix; ValueError unless M is square over one field."""
    field = M[0][0].field if M and M[0] else None
    if not field or any(len(row) != len(M) or any(x.field is not field for x in row) for row in M):
        raise ValueError("determinant of a non-square or mixed-field matrix")
    return field.elem(det_enc(field, [[x.enc for x in row] for row in M]))


def det_enc(field: Field, M) -> int:
    """The determinant of a square matrix of encodings, by Gaussian elimination."""
    add, mul, neg = field.add_enc, field.mul_enc, field.neg_enc
    rows = [list(r) for r in M]
    n = len(rows)
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = neg(det)
        det = mul(det, rows[col][col])
        inv = field.inv_enc(rows[col][col])
        rows[col] = [mul(x, inv) for x in rows[col]]
        for r in range(col + 1, n):
            f = neg(rows[r][col])
            if f:
                rows[r] = [add(a, mul(f, b)) for a, b in zip(rows[r], rows[col])]
    return det


# ---------------------------------------------------------------------------
# GF(p) solver on plain integer matrices


def nullspace_mod_p(rows: list[list[int]], p: int) -> list[list[int]]:
    """Basis of the right nullspace of an integer matrix over GF(p).

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
