"""Small dense linear algebra over a Field: determinants and GF(p) nullspaces.

`_walk` is the one elimination, on integer encodings through the Field kernel:
it reduces a nullspace basis row by row.  `det_enc` reads the determinant off
it (`mat_det` is its FieldElem façade); `nullspace_mod_p` runs it in GF(p^2),
whose encodings 0..p-1 are GF(p), for the value digits of `varieties`' packed
value rows; `varieties.fit_hermitian_form` runs it on a point set's value rows.
"""

from __future__ import annotations

from .finite_field import Field, FieldElem, make_field


def _walk(field: Field, rows, ncols: int):
    """The nullspace basis of a matrix of encodings and its signed pivot product: (basis, det).

    The basis starts as the identity.  At each row, the lowest basis vector with a
    nonzero value (`mat_vec_enc(basis, row)`) is the pivot: it leaves, and every
    later vector loses its multiple of it.  So each survivor is 1 at its own column
    and otherwise supported on eliminated columns below it: the RREF nullspace
    basis.  The product of the pivot values, negated when a pivot leaves an odd
    position, is the determinant of a square matrix whose every row pivots.  No
    row is drawn once the basis is empty.
    """
    add, mul, neg = field.add_enc, field.mul_enc, field.neg_enc
    basis = [[int(k == c) for k in range(ncols)] for c in range(ncols)]
    det, rows = 1, iter(rows)
    while basis and (row := next(rows, None)) is not None:
        ws = field.mat_vec_enc(basis, row)
        k = next((k for k, w in enumerate(ws) if w), None)
        if k is None:
            continue
        pivot, scale = basis.pop(k), neg(field.inv_enc(ws[k]))
        det = mul(det, neg(ws[k]) if k % 2 else ws[k])
        basis[k:] = [[add(a, mul(c, b)) for a, b in zip(v, pivot)] if (c := mul(w, scale)) else v
                     for v, w in zip(basis[k:], ws[k + 1:])]
    return basis, det


def mat_det(M) -> FieldElem:
    """The determinant of a square FieldElem matrix; ValueError unless M is square over one field."""
    field = M[0][0].field if M and M[0] else None
    if not field or any(len(row) != len(M) or any(x.field is not field for x in row) for row in M):
        raise ValueError("determinant of a non-square or mixed-field matrix")
    return field.elem(det_enc(field, [[x.enc for x in row] for row in M]))


def det_enc(field: Field, M) -> int:
    """The determinant of a square matrix of encodings: 0 when a nullspace survives the walk."""
    basis, det = _walk(field, M, len(M))
    return 0 if basis else det


def nullspace_mod_p(rows: list[list[int]], p: int) -> list[list[int]]:
    """Basis of the right nullspace of an integer matrix over GF(p).

    One vector per free column of the reduced row echelon form, so the basis
    depends only on the row space.  ValueError on a matrix with no rows, whose
    column count is unknown, and unless p is a prime with p^2 <= MAX_FIELD_SIZE.
    """
    if not rows:
        raise ValueError("nullspace of a matrix with no rows: column count unknown")
    return _walk(make_field(p, 1), ([x % p for x in row] for row in rows), len(rows[0]))[0]
