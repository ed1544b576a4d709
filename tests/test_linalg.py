import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from unitals.finite_field import make_field
from unitals.linalg import _walk, det_enc, mat_det, nullspace_mod_p

from reference_oracles import det_by_leibniz, mat_mul, nullspace_mod_p_by_rref, rank_enc


def _random_matrix(field, n, rng):
    return tuple(
        tuple(field.elem(rng.randrange(field.size)) for _ in range(n)) for _ in range(n)
    )


@pytest.mark.parametrize("p,t", [(3, 1), (2, 1)])
def test_det_zero_iff_singular(p, t):
    """mat_det(m) == 0 exactly when m kills some nonzero vector, by brute force."""
    f = make_field(p, t)  # GF(9), GF(4)
    rng = random.Random(7)
    vectors = [v for v in itertools.product(range(f.size), repeat=3) if any(v)]
    singular = invertible = 0
    for _ in range(40):
        m = _random_matrix(f, 3, rng)
        enc = tuple(tuple(x.enc for x in row) for row in m)
        kills = any(not any(f.mat_vec_enc(enc, v)) for v in vectors)
        assert (mat_det(m) == f.zero) == kills
        singular += kills
        invertible += not kills
    assert singular and invertible


def test_det_multiplicative():
    f = make_field(3, 1)
    rng = random.Random(11)
    for _ in range(30):
        a = _random_matrix(f, 3, rng)
        b = _random_matrix(f, 3, rng)
        assert mat_det(mat_mul(a, b)) == mat_det(a) * mat_det(b)


@pytest.mark.parametrize("shape", ["2 x 3", "mixed fields", "no rows", "one empty row"])
def test_det_refuses_non_square_and_mixed_field_matrices(shape):
    f, g = make_field(2, 1), make_field(3, 1)
    m = {
        "2 x 3": [[f.one, f.zero, f.zero], [f.zero, f.one, f.zero]],
        "mixed fields": [[f.one, g.one], [f.zero, f.one]],
        "no rows": [],
        "one empty row": [[]],
    }[shape]
    with pytest.raises(ValueError, match="^determinant of a non-square or mixed-field matrix$"):
        mat_det(m)


# GF(37^2) has no addition table, so it takes the digit-wise addition route
@settings(max_examples=120, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 37]), data=st.data())
def test_det_enc_matches_leibniz(p, data):
    """det_enc equals the permutation expansion on square matrices of size 0-4 over GF(p^2)."""
    f = make_field(p, 1)
    n = data.draw(st.integers(0, 4))
    elem = st.integers(0, f.size - 1)
    m = data.draw(st.lists(st.lists(elem, min_size=n, max_size=n), min_size=n, max_size=n))
    assert det_enc(f, m) == det_by_leibniz(f, m)


# GF(37^2) has no addition table, so it takes the digit-wise addition route
@settings(max_examples=60, deadline=None)
@given(pt=st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (37, 1)]), data=st.data())
def test_mat_vec_matches_mat_mul(pt, data):
    """Field.mat_vec_enc on encodings equals the FieldElem product mat_mul(M, v)."""
    f = make_field(*pt)
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 4))
    elem = st.integers(0, f.size - 1)
    m = data.draw(st.lists(st.lists(elem, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    v = data.draw(st.lists(elem, min_size=cols, max_size=cols))
    col = tuple((f.elem(x),) for x in v)
    want = tuple(y.enc for (y,) in mat_mul(tuple(tuple(map(f.elem, row)) for row in m), col))
    assert f.mat_vec_enc(m, v) == want


def test_nullspace_mod_p():
    # x + y + z = 0 and y + 2z = 0 over GF(3)
    basis = nullspace_mod_p([[1, 1, 1], [0, 1, 2]], 3)
    assert len(basis) == 1
    for v in basis:
        assert sum(v) % 3 == 0
        assert (v[1] + 2 * v[2]) % 3 == 0
    assert nullspace_mod_p([[1, 0], [0, 1]], 2) == []
    full = nullspace_mod_p([[0, 0]], 5)
    assert len(full) == 2


def test_nullspace_mod_p_refuses_zero_rows():
    # a matrix with no rows could have any number of columns: no right answer
    with pytest.raises(ValueError, match="no rows"):
        nullspace_mod_p([], 3)


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 251]), data=st.data())
def test_nullspace_mod_p_matches_rref_reference(p, data):
    """The library's nullspace is the same list as the plain mod-p RREF route's."""
    rows = data.draw(st.integers(1, 6))
    cols = data.draw(st.integers(1, 6))
    entry = st.integers(-3 * p, 3 * p)
    m = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    assert nullspace_mod_p(m, p) == nullspace_mod_p_by_rref(m, p)


def test_linalg_edges():
    assert det_enc(make_field(3, 1), []) == 1  # the empty product
    assert nullspace_mod_p([[]], 3) == []  # no columns, no free column
    with pytest.raises(ValueError, match="^p = 4 is not prime$"):
        nullspace_mod_p([[1]], 4)
    with pytest.raises(ValueError, match=r"^field size 257\^2 exceeds 65536$"):
        nullspace_mod_p([[1]], 257)  # GF(257^2) is past the table bound


# GF(37^2) has no addition table, so it takes the digit-wise addition route
@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 37]), data=st.data())
def test_walk_leaves_the_rref_nullspace_basis_over_gf_q2(p, data):
    """Over GF(p^2) the survivors are killed by the matrix, ncols - rank of them, each 1 at its own column
    (its highest nonzero one, ascending) and 0 at every other survivor's."""
    f = make_field(p, 1)
    rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(0, f.size - 1))
    m = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    basis, _ = _walk(f, m, cols)
    assert len(basis) == cols - rank_enc(f, m)
    own = [max(c for c in range(cols) if v[c]) for v in basis]
    assert own == sorted(set(own))
    for v, c in zip(basis, own):
        assert not any(f.mat_vec_enc(m, v))
        assert v[c] == 1 and not any(v[d] for d in own if d != c)


def test_walk_draws_no_row_once_the_basis_is_empty():
    f = make_field(3, 1)

    def rows(*drawable):
        yield from drawable
        raise AssertionError("a row was drawn after the basis emptied")

    # the zero row pivots nothing, [0, 2] pivots at odd position 1, [1, 1] empties the basis: det = -2
    assert _walk(f, rows([0, 0], [0, 2], [1, 1]), 2) == ([], f.neg_enc(2))
    assert _walk(f, rows(), 0) == ([], 1)
