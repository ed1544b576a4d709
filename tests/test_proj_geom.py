import hashlib
import json
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from unitals.census import intersect_size
from unitals.finite_field import field_for_q, make_field
from unitals.linalg import det_enc, mat_det
from unitals.proj_geom import (
    IncidenceMatrix,
    PointSet,
    _Space,
    _image_enc,
    _mask_of,
    _space,
    all_points_set,
    apply_collineation,
    enum_points,
    enum_subspaces,
    gaussian_binomial,
    incidence_matrix,
    point_index,
    subspace_member_indices,
)

from reference_oracles import dense_by_bits, image_by_mat_vec, irreducible_moduli, mat_mul


def test_gaussian_binomial():
    assert gaussian_binomial(3, 1, 4) == 21  # points of PG(2,4)
    assert gaussian_binomial(3, 1, 9) == 91
    assert gaussian_binomial(4, 2, 4) == 357  # lines of PG(3,4)
    assert gaussian_binomial(4, 1, 4) == 85
    assert gaussian_binomial(3, 3, 9) == 1
    assert gaussian_binomial(3, 4, 9) == 0


@pytest.mark.parametrize("n,q,npoints", [(2, 2, 21), (2, 3, 91), (3, 2, 85)])
def test_point_enumeration(n, q, npoints):
    f = field_for_q(q)
    pts = enum_points(n, f)
    assert len(pts) == npoints == gaussian_binomial(n + 1, 1, f.size)
    # normalized, distinct, and indexed consistently
    encs = set()
    for i, pt in enumerate(pts):
        lead = next(x for x in pt if x)
        assert lead == f.one
        encs.add(tuple(x.enc for x in pt))
        assert point_index(n, f, pt) == i
    assert len(encs) == npoints
    # scaling does not change the index
    g = f.gen
    assert point_index(n, f, tuple(g * x for x in pts[5])) == 5


def test_point_index_refuses_coordinates_that_are_not_a_point():
    """Too few or too many coordinates, coordinates over another field, or the zero vector name no point of PG(2, 4)."""
    f = field_for_q(2)
    pt = enum_points(2, f)[7]
    assert point_index(2, f, iter(pt)) == 7
    bad = [pt[:2], (*pt, f.one), enum_points(2, field_for_q(3))[40], enum_points(2, field_for_q(3))[7], (1, 0, 0)]
    for coords in bad:
        with pytest.raises(ValueError, match=r"^a point of PG\(2, 4\) has 3 coordinates in GF\(4\)$"):
            point_index(2, f, coords)
    with pytest.raises(ValueError, match="^zero vector has no projective point$"):
        point_index(2, f, (f.zero, f.zero, f.zero))


@settings(max_examples=150, deadline=None)
@given(
    case=st.sampled_from([(1, 2, 1), (1, 5, 1), (2, 2, 1), (2, 3, 1), (2, 2, 2), (2, 5, 1), (3, 2, 1), (3, 3, 1)]),
    data=st.data(),
)
def test_index_of_any_scaling_is_the_enumeration_position(case, data):
    n, p, t = case
    f = make_field(p, t)
    pts = enum_points(n, f)
    i = data.draw(st.integers(0, len(pts) - 1))
    scale = f.elem(data.draw(st.integers(1, f.size - 1)))
    assert _space(n, f).index_of(tuple((scale * x).enc for x in pts[i])) == i


def test_point_order_is_lexicographic():
    f = make_field(2, 1)  # plane PG(2,4)
    encs = [tuple(x.enc for x in pt) for pt in enum_points(2, f)]
    assert encs == sorted(encs)
    assert encs[0] == (0, 0, 1)
    assert encs[-1] == (1, 3, 3)


@pytest.mark.parametrize(
    "n,r,q,count",
    [(2, 2, 2, 21), (2, 2, 3, 91), (3, 2, 2, 357), (3, 3, 2, 85)],
)
def test_subspace_enumeration(n, r, q, count):
    f = field_for_q(q)
    subs = enum_subspaces(n, r, f)
    assert len(subs) == count == gaussian_binomial(n + 1, r, f.size)
    members = subspace_member_indices(n, r, f)
    assert len(members) == count
    expected = gaussian_binomial(r, 1, f.size)
    for ids in members:
        assert len(ids) == expected
        assert list(ids) == sorted(ids)
    # no two subspaces share the same point set
    assert len(set(members)) == count


def _reference_subspace_points(n: int, r: int, field, basis) -> tuple[int, ...]:
    """Old per-point route: every point of PG(r-1) through the basis, then index_of."""
    sp = _space(n, field)
    coeff_pts = ((1,),) if r == 1 else _space(r - 1, field).points
    cols = tuple(zip(*((x.enc for x in row) for row in basis)))
    return tuple(sorted(sp.index_of(field.mat_vec_enc(cols, c)) for c in coeff_pts))


# sha256 of repr(subspace_member_indices(n, r, field_for_q(q))), frozen before the
# build read point indices off the RREF basis
SUBSPACE_DIGESTS = {
    (2, 2, 2): "3616c051a56879aac942dace5a61a608d2a90df79d33c56d40ec316e80b1e5aa",
    (2, 2, 3): "d99bbf0b24a6afbf0909ec62385ee3fcbbe307374094abc9a013d5ca07bc044e",
    (2, 2, 4): "308e1153997d8ccd3ba85edef427c17c47e28495446807ec1c75d78360ba84a9",
    (2, 2, 5): "2eaf4dc7237f18e010eb546eb652328a66364e2727b202652ba4afe4c493a454",
    (3, 2, 2): "93b57020b81f4dfce6b7cf380694c6e3aec2983ade12ddf20bba484dd19c7e09",
    (3, 3, 2): "513e2fbd9fcd66051b7755743a1a9e2136deccf4ac01ede8e7255bce0c06bf02",
    (3, 2, 3): "33054fb17d24c40d20dd35b36a4dd1a11b06c4836205acbd736dac682d8b53a3",
    (3, 3, 3): "8cee862c803320d5321947b84b6e023e0c4c6a5d0821d6a93633812b3cfd6d8f",
    # frozen before the tables came out ascending on shared index objects: points as 1-tuples, the
    # q = 7, 8, 9 line tables of the benchmark, and the lines and hyperplanes of PG(4, 4)
    (2, 1, 2): "b01120064272dc5c329b96d881031fc29f8f007e442741f8137cc0e6697142ff",
    (2, 2, 7): "72def41879dc8192b133d0c1dcf9cd2f3b08ca68ddfb6a4faa69158db0d09556",
    (2, 2, 8): "80833d870502eb4765870b3fb9dd953a3da9b25570fcda3282ace79f882ff149",
    (2, 2, 9): "593b1ef5506b56aad5f27e9a1ec43fade1f29e9d25338bc5167477c41ce7145d",
    (4, 2, 2): "fd91f536e7b8593e5a820bd2280c58d0f9d5daf9183a71c97138869b1cfdbaab",
    (4, 4, 2): "54c324ee3bb6d8bc7a512c54e1741f7ea6995ab815d04112200ffcd87f9a52ee",
}


@pytest.mark.parametrize("n,r,q", sorted(SUBSPACE_DIGESTS))
def test_subspace_member_indices_frozen(n, r, q):
    members = subspace_member_indices(n, r, field_for_q(q))
    assert hashlib.sha256(repr(members).encode()).hexdigest() == SUBSPACE_DIGESTS[n, r, q]


# Larger tables, kept out of SUBSPACE_DIGESTS so the point-by-point mask test does not mask them:
# the lines of PG(3, 16), whose row 0 has two free columns, its planes, and the lines of PG(2, 121),
# where GF(121) adds by table.  sha256 of repr(table), frozen before the build translated block 0.
LARGE_SUBSPACE_DIGESTS = {
    (3, 2, 4): "ee8a1217a570402d86febac4dd0844b868ee174c45d74d871a29ba5c2713397e",
    (3, 3, 4): "080013e92225bd13152a7d48f235b7026bf6ef35a8242cbe5dae65c39f530835",
    (2, 2, 11): "4ccce6517731485b78619a8d174a2f15b8799e466858144de0085e80054e582f",
}


@pytest.mark.parametrize("n,r,q", sorted(LARGE_SUBSPACE_DIGESTS))
def test_large_subspace_tables_frozen(n, r, q):
    """The frozen digest, and every 997th subspace against the per-point mat-vec route."""
    sp = _Space(n, field_for_q(q))  # not the cached _space, so the table goes when the test ends
    members = sp.subspace_point_indices(r)
    assert hashlib.sha256(repr(members).encode()).hexdigest() == LARGE_SUBSPACE_DIGESTS[n, r, q]
    subs, elems = sp.subspaces(r), sp.field.elements
    for i in range(0, len(subs), 997):
        basis = [[elems[e] for e in row] for row in subs[i]]
        assert members[i] == _reference_subspace_points(n, r, sp.field, basis)


@pytest.mark.parametrize("n,r,q", [(2, 2, 7), (3, 2, 3), (3, 3, 2)])
def test_subspace_tables_share_one_int_per_point(n, r, q):
    """Equal point indices are one int object, so a table holds no int per incidence: the lines of
    PG(2, 49), the lines of PG(3, 9), whose row 0 has two free columns, and the planes of PG(3, 4).
    (In the point table, r = 1, each index occurs once.)"""
    f = field_for_q(q)
    Q, members = f.size, subspace_member_indices(n, r, f)
    entries = [i for ids in members for i in ids]
    assert len(entries) == gaussian_binomial(n + 1, r, Q) * gaussian_binomial(r, 1, Q)
    assert len({id(i) for i in entries}) == len(set(entries)) == gaussian_binomial(n + 1, 1, Q)


def test_line_table_allocates_its_tuples_and_little_more():
    """A fresh PG(2, 49) line table costs its 2,451 tuples of 50 entries, plus slack for the outer
    tuple and one int per point; an int object per incidence (122,550 of them) would not fit."""
    sp = _Space(2, field_for_q(7))  # not the cached _space, so no shared cache is filled here
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        lines = sp.subspace_point_indices(2)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(lines) == 2451
    assert grown < len(lines) * sys.getsizeof(tuple(range(50))) + (1 << 18)


# (n, r, p, t): lines and planes over fields with and without an addition table (p = 2 adds by
# XOR, and GF(37^2) by digits, as it has over _ADD_TABLE_LIMIT elements)
BUILD_CASES = [
    (1, 1, 3, 1), (2, 1, 2, 2), (2, 2, 2, 1), (2, 2, 3, 1), (2, 2, 2, 2), (2, 2, 5, 1), (2, 2, 7, 1),
    (3, 2, 2, 1), (3, 3, 2, 1), (3, 2, 3, 1), (3, 3, 3, 1), (4, 2, 2, 1), (4, 3, 2, 1), (4, 4, 2, 1),
    (1, 1, 37, 1),
]


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(BUILD_CASES), data=st.data())
def test_subspace_build_matches_per_point_reference(case, data):
    """The RREF build equals the per-point mat-vec route, under any modulus."""
    n, r, p, t = case
    f = make_field(p, t, data.draw(st.sampled_from(irreducible_moduli(p, 2 * t))))
    subs = enum_subspaces(n, r, f)
    members = subspace_member_indices(n, r, f)
    for i in data.draw(st.lists(st.integers(0, len(subs) - 1), min_size=1, max_size=8)):
        assert members[i] == _reference_subspace_points(n, r, f, subs[i])


@pytest.mark.parametrize("n,r,q", sorted(SUBSPACE_DIGESTS))
def test_subspace_masks_match_point_by_point_masks(n, r, q):
    """The Gray walk's masks are the masks of the member tuples, one `_mask_of` per subspace."""
    sp = _space(n, field_for_q(q))
    assert sp.subspace_masks(r) == tuple(map(_mask_of, sp.subspace_point_indices(r)))


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(BUILD_CASES), data=st.data())
def test_subspace_masks_match_point_by_point_masks_under_any_modulus(case, data):
    """The walk reads digits of encodings only, so it holds for every modulus: p = 2, where a step
    swaps bit groups, odd p, where it rotates them, and digit addition without a table."""
    n, r, p, t = case
    sp = _Space(n, make_field(p, t, data.draw(st.sampled_from(irreducible_moduli(p, 2 * t)))))
    assert sp.subspace_masks(r) == tuple(map(_mask_of, sp.subspace_point_indices(r)))


def test_plane_masks_match_point_by_point_masks_at_q_11():
    """PG(2, 121): 14,763 lines of 122 points, each step a rotation of a 14,763-bit mask."""
    sp = _Space(2, field_for_q(11))  # not the cached _space, so the table goes when the test ends
    assert sp.subspace_masks(2) == tuple(map(_mask_of, sp.subspace_point_indices(2)))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_plane_masks_mask_q_plus_2_lines_point_by_point(q, monkeypatch):
    """A fresh line table of PG(2, Q) calls `_mask_of` once per pivot pattern and fill of row 1,
    Q + 2 times, not once per line."""
    calls = []
    monkeypatch.setattr("unitals.proj_geom._mask_of", lambda ids: calls.append(ids) or _mask_of(ids))
    sp = _Space(2, field_for_q(q))  # not the cached _space, whose masks may be built already
    Q = sp.field.size
    assert len(sp.subspace_masks(2)) == Q * Q + Q + 1
    assert len(calls) == Q + 2


@pytest.mark.parametrize("n,r,q", [(2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 2, 5), (3, 2, 2), (3, 3, 2)])
def test_to_dense_matches_per_bit_reference(n, r, q):
    """PG(2, q^2) for q = 2..5 and the lines and planes of PG(3, 4): each row read off one binary string."""
    A = incidence_matrix(n, r, field_for_q(q))
    assert A.to_dense() == dense_by_bits(A)


def test_to_dense_of_a_matrix_with_no_rows():
    A = IncidenceMatrix(n_rows=0, n_cols=7, rows=())
    assert A.to_dense() == dense_by_bits(A) == []


@pytest.mark.parametrize("q", [2, 3])
def test_incidence_matrix_line_counts(q):
    f = field_for_q(q)
    A = incidence_matrix(2, 2, f)
    q2 = f.size
    npts = gaussian_binomial(3, 1, q2)
    assert A.n_rows == A.n_cols == npts
    for row in A.rows:
        assert row.bit_count() == q2 + 1  # points per line
    dense = A.to_dense()
    for col in zip(*dense):
        assert sum(col) == q2 + 1  # lines per point
    assert sum(map(sum, dense)) == npts * (q2 + 1)
    assert (A.rows[0] & 1) == dense[0][0]


def test_two_points_span_one_line():
    f = make_field(2, 1)
    members = subspace_member_indices(2, 2, f)
    npts = len(enum_points(2, f))
    for a in range(npts):
        for b in range(a + 1, npts):
            hits = [ids for ids in members if a in ids and b in ids]
            assert len(hits) == 1


def test_pointset_basics():
    f = make_field(2, 1)
    s = PointSet.of(2, f, [5, 1, 3, 3])
    assert s.members == (1, 3, 5)
    assert 3 in s and 2 not in s
    assert -1 not in s and 21 not in s  # indices outside [0, 21) name no point of PG(2, 4)
    comp = s.complement()
    assert len(comp) == 21 - 3
    assert not set(s.members) & set(comp.members)
    assert intersect_size(s, comp) == 0
    assert intersect_size(s, all_points_set(2, f)) == 3
    with pytest.raises(ValueError):
        PointSet(2, f, (3, 1))  # not sorted
    with pytest.raises(ValueError):
        PointSet(2, f, (0, 99))  # out of range
    with pytest.raises(ValueError):
        intersect_size(s, PointSet.of(2, make_field(3, 1), [0]))


def test_pointset_membership_is_a_search_of_members():
    """`in` agrees with the member tuple on every index, -1 and count included, and builds no mask."""
    from unitals.varieties import HermitianForm, all_valid_bm_params, bm_unital, hermitian_variety

    f4, f3 = field_for_q(4), field_for_q(3)
    for src in (hermitian_variety(HermitianForm.identity(2, f4)), bm_unital(all_valid_bm_params(f3)[0])):
        s = PointSet(src.n, src.field, src.members)  # fresh, so no cached mask
        members, count = set(s.members), _space(s.n, s.field).count
        assert [i in s for i in range(-1, count + 1)] == [i in members for i in range(-1, count + 1)]
        assert "mask" not in s.__dict__


def test_complement_mask_is_the_xor_with_all_points():
    """The seeded mask of a complement is the mask of its members, and complementing twice gives the set back."""
    from unitals.varieties import HermitianForm, all_valid_bm_params, bm_unital, hermitian_variety

    for q in (3, 4):
        f = field_for_q(q)
        sets = [
            PointSet(2, f, ()),
            all_points_set(2, f),
            hermitian_variety(HermitianForm.identity(2, f)),
            bm_unital(all_valid_bm_params(f)[0]),
        ]
        for s in sets:
            comp = s.complement()
            assert comp.__dict__["mask"] == _mask_of(comp.members)
            assert comp.complement() == s


def test_pointset_json_round_trip():
    f = make_field(3, 1)
    s = PointSet.of(2, f, [0, 4, 17, 88])
    blob = json.dumps(s.to_json_dict())
    back = PointSet.from_json_dict(json.loads(blob))
    assert back == s
    assert back.field is f


def test_apply_collineation():
    f = make_field(2, 1)
    s = PointSet.of(2, f, range(7))
    ident = tuple(
        tuple(f.one if i == j else f.zero for j in range(3)) for i in range(3)
    )
    assert apply_collineation(ident, s) == s
    # a cyclic coordinate shift permutes points but keeps the ambient count
    shift = tuple(
        tuple(f.one if (i + 1) % 3 == j else f.zero for j in range(3))
        for i in range(3)
    )
    out = apply_collineation(shift, s)
    assert len(out) == len(s)
    full = all_points_set(2, f)
    assert apply_collineation(shift, full) == full
    singular = tuple(tuple(f.zero for _ in range(3)) for _ in range(3))
    with pytest.raises(ValueError):
        apply_collineation(singular, s)
    # collineations send lines to lines
    line = PointSet(2, f, next(ids for ids in subspace_member_indices(2, 2, f) if {0, 1} <= set(ids)))
    img = apply_collineation(shift, line)
    members = {frozenset(ids) for ids in subspace_member_indices(2, 2, f)}
    assert frozenset(img.members) in members


MALFORMED_COLLINEATIONS = {  # rows of (field q, encoding) entries, applied to a set of PG(2, 4)
    "2 x 3": [[(2, 1), (2, 0), (2, 0)], [(2, 0), (2, 1), (2, 0)]],
    "2 x 2": [[(2, 1), (2, 0)], [(2, 0), (2, 1)]],
    "4 x 3": [[(2, 1), (2, 0), (2, 0)], [(2, 0), (2, 1), (2, 0)], [(2, 0), (2, 0), (2, 1)], [(2, 1)] * 3],
    "over GF(9)": [[(3, 1), (3, 2), (3, 0)], [(3, 0), (3, 1), (3, 0)], [(3, 0), (3, 0), (3, 1)]],
    "one GF(9) entry": [[(2, 1), (2, 0), (2, 0)], [(2, 0), (3, 5), (2, 0)], [(2, 0), (2, 0), (2, 1)]],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_COLLINEATIONS))
def test_apply_collineation_refuses_malformed_matrices(case):
    """Only an (n+1) x (n+1) matrix over the set's own field is a collineation of its space."""
    f = field_for_q(2)
    M = [[field_for_q(q).elem(e) for q, e in row] for row in MALFORMED_COLLINEATIONS[case]]
    S = PointSet.of(2, f, range(5))
    with pytest.raises(ValueError, match=r"^a collineation of PG\(2, 4\) is a 3 x 3 matrix over GF\(4\)$"):
        apply_collineation(M, S)


# (1, 37): GF(37^2) has 1,369 elements, beyond the add table, so sums take the digit route
@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from([(1, 37), (2, 2), (2, 3), (2, 4), (2, 5), (2, 8), (2, 9), (3, 2), (3, 3)]), data=st.data())
def test_image_by_column_tables_matches_mat_vec_reference(case, data):
    """_image_enc equals one mat-vec and one normalising index_of per point, on random sets and matrices."""
    n, q = case
    f = field_for_q(q)
    sp = _space(n, f)
    row = st.tuples(*[st.integers(0, f.size - 1)] * (n + 1))
    M = data.draw(st.tuples(*[row] * (n + 1)))
    if not det_enc(f, M):  # a singular draw becomes the coordinate shift x_j -> x_(j+1)
        M = tuple(tuple(int(j == (i + 1) % (n + 1)) for j in range(n + 1)) for i in range(n + 1))
    members = data.draw(st.sets(st.integers(0, sp.count - 1), max_size=60))
    # points before _offsets[0] have a zero first coordinate, so their leading coordinate comes later
    members |= data.draw(st.sets(st.integers(0, sp._offsets[0] - 1), min_size=1, max_size=10))
    S = PointSet.of(n, f, members)
    assert _image_enc(M, S) == image_by_mat_vec(M, S)


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([3, 4]), data=st.data())
def test_apply_collineation_composes(q, data):
    """apply_collineation(AB, S) = apply_collineation(A, apply_collineation(B, S))."""
    f = field_for_q(q)
    entry = st.sampled_from(f.elements)
    nonsingular = st.tuples(*[st.tuples(entry, entry, entry)] * 3).filter(lambda m: bool(mat_det(m)))
    A, B = data.draw(nonsingular), data.draw(nonsingular)
    S = data.draw(_point_sets(f, len(enum_points(2, f))))
    assert apply_collineation(mat_mul(A, B), S) == apply_collineation(A, apply_collineation(B, S))


def _point_sets(f, npts):
    return st.builds(lambda ids: PointSet.of(2, f, ids), st.sets(st.integers(0, npts - 1)))


@settings(max_examples=100, deadline=None)
@given(q=st.sampled_from([2, 3]), data=st.data())
def test_intersection_size_invariant_under_collineations(q, data):
    """|A & B| = |gA & gB| for a random nonsingular matrix g."""
    f = field_for_q(q)
    npts = len(enum_points(2, f))
    A = data.draw(_point_sets(f, npts))
    B = data.draw(_point_sets(f, npts))
    entry = st.sampled_from(f.elements)
    g = data.draw(
        st.tuples(*[st.tuples(entry, entry, entry)] * 3).filter(lambda m: bool(mat_det(m)))
    )
    gA, gB = apply_collineation(g, A), apply_collineation(g, B)
    assert len(gA) == len(A) and len(gB) == len(B)
    assert intersect_size(gA, gB) == intersect_size(A, B)


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from([(1, 2, 1), (2, 2, 1), (2, 3, 1), (2, 2, 2), (3, 3, 1)]), data=st.data())
def test_pointset_json_round_trip_random_members(case, data):
    n, p, t = case
    f = make_field(p, t, data.draw(st.sampled_from(irreducible_moduli(p, 2 * t))))
    ids = data.draw(st.sets(st.integers(0, len(enum_points(n, f)) - 1)))
    s = PointSet.of(n, f, ids)
    back = PointSet.from_json_dict(json.loads(json.dumps(s.to_json_dict())))
    assert back == s and back.field is f
