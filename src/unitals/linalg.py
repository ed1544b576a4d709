"""Small dense linear algebra over a Field, plus GF(p) integer solvers.

Matrices are tuples of row tuples of FieldElem.  Sizes here are tiny (at most
a few hundred rows), so everything is straightforward Gaussian elimination.
Matrix-vector products run on integer encodings (`Field.mat_vec_enc`).
"""

from __future__ import annotations

from .finite_field import FieldElem


def mat_det(M) -> FieldElem:
    n = len(M)
    field = M[0][0].field
    rows = [list(r) for r in M]
    det = field.one
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return field.zero
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det = det * rows[col][col]
        inv = field.one / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(col + 1, n):
            f = rows[r][col]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return det


# ---------------------------------------------------------------------------
# GF(p) solvers on plain integer matrices (used for form fitting)


def nullspace_mod_p(rows: list[list[int]], p: int) -> list[list[int]]:
    """Basis of the right nullspace of an integer matrix over GF(p)."""
    if not rows:
        return []
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
