import itertools
import random

import pytest

from unitals.finite_field import make_field
from unitals.linalg import mat_det, mat_mul, mat_vec, nullspace_mod_p


def _random_matrix(field, n, rng):
    return tuple(
        tuple(field.elem(rng.randrange(field.size)) for _ in range(n)) for _ in range(n)
    )


@pytest.mark.parametrize("p,t", [(3, 1), (2, 1)])
def test_det_zero_iff_singular(p, t):
    """mat_det(m) == 0 exactly when m kills some nonzero vector, by brute force."""
    f = make_field(p, t)  # GF(9), GF(4)
    rng = random.Random(7)
    vectors = [v for v in itertools.product(f.elements, repeat=3) if any(v)]
    singular = invertible = 0
    for _ in range(40):
        m = _random_matrix(f, 3, rng)
        kills = any(not any(mat_vec(m, v)) for v in vectors)
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


def test_mat_vec_matches_mat_mul():
    f = make_field(2, 2)
    rng = random.Random(3)
    m = _random_matrix(f, 3, rng)
    v = [f.elem(rng.randrange(f.size)) for _ in range(3)]
    col = tuple((x,) for x in v)
    assert tuple((y,) for y in mat_vec(m, v)) == mat_mul(m, col)


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
