import functools
import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from unitals.finite_field import field_for_q, frobenius, make_field
from unitals.linalg import det_enc
from unitals.proj_geom import PointSet, _space, enum_points, subspace_member_indices
from unitals.varieties import (
    BMParams,
    HermitianForm,
    _bm_point_ids,
    _canonical_variety,
    _cone_sizes,
    _draw_form,
    _lines_through,
    _random_form_candidates,
    _zero_set,
    all_valid_bm_params,
    blocks_of,
    bm_affine_value,
    bm_is_valid,
    bm_unital,
    check_property_I,
    fit_hermitian_form,
    hermitian_variety,
    is_unital_embedded,
    random_hermitian_form,
)

from reference_oracles import (
    _check_design,
    blocks_of_by_line_scan,
    check_design_by_scan,
    fit_hermitian_form_full_system,
    hermitian_variety_by_evaluation,
    hermitian_variety_by_frame,
    irreducible_moduli,
    mat_mul,
    rank_enc,
    subfield_gfp_basis,
    unitary_frame,
)


def test_hermitian_form_validation():
    f = make_field(2, 1)
    HermitianForm.identity(2, f)  # fine
    g = f.gen
    with pytest.raises(ValueError):
        HermitianForm(((f.one, g), (g, f.one)))  # g^q != g off-diagonal
    with pytest.raises(ValueError):
        HermitianForm(((g, f.zero), (f.zero, f.one)))  # diagonal not in GF(q)
    # a legal non-identity form
    form = HermitianForm(((f.zero, g), (g * g, f.one)))
    assert form.n == 1 and form.field is f
    with pytest.raises(ValueError, match="square"):
        HermitianForm(((f.one, f.zero), (f.zero,)))
    with pytest.raises(ValueError, match="^matrix must be square, with at least one row$"):
        HermitianForm(())
    # rows that are not sequences: ints or None, in place of rows or of the whole matrix
    for rows in [(1, 2), (None,), (None, None), ((f.one, f.zero), 1), 5, None]:
        with pytest.raises(ValueError, match="^matrix must be square, with at least one row$"):
            HermitianForm(rows)
    # an entry from another field, on the diagonal (where conj(x) == x) and off it
    h = make_field(3, 1)
    with pytest.raises(ValueError, match="mixed-field"):
        HermitianForm(((f.one, f.zero), (f.zero, h.one)))
    with pytest.raises(ValueError, match="mixed-field"):
        HermitianForm(((f.one, h.zero), (h.zero, f.one)))


@pytest.mark.parametrize("rows", [((1, 0), (0, 1)), ((None,),), ((0, "1"), ("1", 0))], ids=["ints", "None", "str"])
def test_hermitian_form_refuses_entries_that_are_not_field_elements(rows):
    with pytest.raises(ValueError, match="^matrix entries must be field elements$"):
        HermitianForm(rows)
    f = make_field(2, 1)
    with pytest.raises(ValueError, match="^matrix entries must be field elements$"):
        HermitianForm(((f.one, f.zero), (f.zero, rows[0][0])))


# the reference fit's GF(p)-basis of GF(q) as encodings, greedy over ascending encodings of the subfield
GFP_BASIS = {
    2: [1], 3: [1], 4: [1, 10], 5: [1], 7: [1], 8: [1, 10, 36],
    9: [1, 15], 16: [1, 62, 90, 150], 25: [1, 200], 27: [1, 42, 327],
}


@pytest.mark.parametrize("q", sorted(GFP_BASIS))
def test_subfield_gfp_basis_pinned(q):
    assert subfield_gfp_basis(field_for_q(q)) == GFP_BASIS[q]


@pytest.mark.parametrize("q,size", [(2, 9), (3, 28), (4, 65), (5, 126)])
def test_hermitian_curve_size(q, size):
    f = field_for_q(q)
    H = hermitian_variety(HermitianForm.identity(2, f))
    assert len(H) == size == q**3 + 1


def test_hermitian_surface_size():
    f = make_field(2, 1)
    H = hermitian_variety(HermitianForm.identity(3, f))
    assert len(H) == 45  # (q^2+1)(q^3+1) at q = 2


def test_hermitian_variety_rejects_singular():
    f = make_field(2, 1)
    z = f.zero
    singular = HermitianForm(
        ((f.one, z, z), (z, f.one, z), (z, z, z))
    )
    assert not singular.is_nonsingular
    with pytest.raises(ValueError):
        hermitian_variety(singular)


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from([(1, 3, 1), (2, 2, 1), (2, 3, 1), (2, 2, 2), (3, 2, 1)]),
    seed=st.integers(0, 10**6),
    data=st.data(),
)
def test_evaluate_matches_mat_mul_reference(case, seed, data):
    """evaluate(x) = conj(x)^T C x, and hermitian_variety holds exactly its zeros."""
    n, p, t = case
    f = make_field(p, t)
    form = random_hermitian_form(n, f, seed)
    pts = enum_points(n, f)
    i = data.draw(st.integers(0, len(pts) - 1))
    scale = f.elem(data.draw(st.integers(1, f.size - 1)))
    x = tuple(scale * c for c in pts[i])
    conj_row = (tuple(frobenius(c, t) for c in x),)
    want = mat_mul(conj_row, mat_mul(form.matrix, tuple((c,) for c in x)))[0][0]
    assert form.evaluate(x) == want
    assert (i in hermitian_variety(form)) == (want == f.zero)


# (n, p, t) for (n, q) in {(1,2), (1,3), (2,2), (2,3), (2,4), (2,5), (3,2), (3,3), (4,2)}
VARIETY_CASES = [(1, 2, 1), (1, 3, 1), (2, 2, 1), (2, 3, 1), (2, 2, 2), (2, 5, 1), (3, 2, 1), (3, 3, 1), (4, 2, 1)]


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(VARIETY_CASES), seed=st.integers(0, 10**6), data=st.data())
def test_hermitian_variety_matches_evaluation_reference(case, seed, data):
    """M . H(I) equals the zeros of the form evaluated at every point, under any modulus."""
    n, p, t = case
    f = make_field(p, t, data.draw(st.sampled_from(irreducible_moduli(p, 2 * t))))
    form = random_hermitian_form(n, f, seed)
    assert hermitian_variety(form).members == hermitian_variety_by_evaluation(form).members


# zero diagonals: Gram-Schmidt meets a basis of isotropic vectors and must combine two
ZERO_DIAGONAL = [
    (2, ((0, 1, 0), (1, 0, 0), (0, 0, 1))),
    (3, ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))),
]


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("n,encs", ZERO_DIAGONAL)
def test_hermitian_variety_zero_diagonal(n, encs, q):
    f = field_for_q(q)
    form = HermitianForm._of(f, encs)
    H = hermitian_variety(form)
    assert H.members == hermitian_variety_by_evaluation(form).members
    assert len(H) == len(hermitian_variety(HermitianForm.identity(n, f)))


def test_random_hermitian_form_deterministic():
    f = make_field(3, 1)
    f1 = random_hermitian_form(2, f, seed=5)
    f2 = random_hermitian_form(2, f, seed=5)
    assert f1 == f2 and f1.is_nonsingular
    assert random_hermitian_form(2, f, seed=6) != f1
    # rejection keeps only nonsingular candidates: the draw is the first one after `rejected` singular ones
    total = 0
    for seed in range(20):
        rows, V, rejected = _draw_form(2, f, seed)
        cands = list(itertools.islice(_random_form_candidates(2, f, random.Random(seed)), rejected + 1))
        assert all(not det_enc(f, cand) for cand in cands[:-1])
        assert det_enc(f, rows) and rows == cands[-1]
        assert HermitianForm._of(f, rows) == random_hermitian_form(2, f, seed)
        assert V == hermitian_variety(HermitianForm._of(f, rows))
        total += rejected
    assert total > 0  # some seed did draw a singular candidate first


# (n, p, t) for (n, q) in {(1,2), (1,3), (2,2), (2,3), (2,4), (2,5), (3,2), (3,3)}
FRAME_CASES = [(1, 2, 1), (1, 3, 1), (2, 2, 1), (2, 3, 1), (2, 2, 2), (2, 5, 1), (3, 2, 1), (3, 3, 1)]


def _rank_one_forms(n, f, rng, count):
    """v v^dagger for seeded nonzero v, as rows of encodings: entry (i, j) = v_i conj(v_j)."""
    for _ in range(count):
        v = [0]
        while not any(v):
            v = [rng.randrange(f.size) for _ in range(n + 1)]
        yield [[f.mul_enc(x, f._conj[y]) for y in v] for x in v]


@pytest.mark.parametrize("n,p,t", FRAME_CASES)
def test_unitary_frame_exists_exactly_on_nonsingular_forms(n, p, t):
    """unitary_frame(f, C) is None iff det(C) = 0; a frame it returns satisfies M^dagger C M = I."""
    f = make_field(p, t)
    rng = random.Random(1000 * n + 10 * p + t)
    forms = list(itertools.islice(_random_form_candidates(n, f, rng), 40))
    forms += [encs for m, encs in ZERO_DIAGONAL if m == n]
    forms += _rank_one_forms(n, f, rng, 10)
    identity = tuple(tuple(f.elem(int(i == j)) for j in range(n + 1)) for i in range(n + 1))
    outcomes = set()
    for C in forms:
        frame = unitary_frame(f, C)
        outcomes.add(frame is None)
        assert (frame is None) == (det_enc(f, C) == 0)
        if frame is not None:
            M = tuple(tuple(map(f.elem, row)) for row in frame)
            M_dagger = tuple(zip(*[[frobenius(x, t) for x in row] for row in M]))
            assert mat_mul(M_dagger, mat_mul(tuple(tuple(map(f.elem, row)) for row in C), M)) == identity
    assert outcomes == {True, False}  # both answers were exercised


# (n, q) for the zero-set kernel: q = 7 takes a mod-p reduction within a sum, q = 4, 8, 9 have t > 1,
# q = 17, 19 take four-byte lanes (p > 13)
ZERO_SET_CASES = [
    (1, 2), (1, 3), (1, 17), (1, 19), (2, 2), (2, 3), (2, 4), (2, 5), (2, 7), (2, 8), (2, 9), (3, 2), (3, 3)
]


@pytest.mark.parametrize("n,q", ZERO_SET_CASES)
def test_zero_set_equals_evaluation_and_the_frame_route(n, q):
    """_zero_set(C) is the evaluated variety, of the size of C's rank, and M.H(I) exactly when C is nonsingular."""
    f = field_for_q(q)
    rng = random.Random(100 * n + q)
    # the reference evaluates every point on FieldElems, so the larger spaces take fewer forms
    small = _space(n, f).count < 700
    forms = list(itertools.islice(_random_form_candidates(n, f, rng), 30 if small else 5))
    forms += [encs for m, encs in ZERO_DIAGONAL if m == n]
    forms += _rank_one_forms(n, f, rng, 4 if small else 2)
    forms += [[[0] * (n + 1) for _ in range(n + 1)]]
    # the largest digits everywhere: at q = 7 its lane sums pass 255 unless reduced mod p on the way
    top = [[f.subfield_encs[-1] if i == j else f.size - 1 for j in range(n + 1)] for i in range(n + 1)]
    forms += [[[x if i <= j else f._conj[top[j][i]] for j, x in enumerate(row)] for i, row in enumerate(top)]]
    sizes = _cone_sizes(n, q)
    full = len(hermitian_variety_by_evaluation(HermitianForm.identity(n, f)))
    ranks = set()
    for C in forms:
        V = _zero_set(n, f, C)
        assert V == hermitian_variety_by_evaluation(HermitianForm._of(f, C))
        ranks.add(rank := rank_enc(f, C))
        assert len(V) == sizes[rank]
        assert (len(V) == full) == bool(det_enc(f, C))
        assert hermitian_variety_by_frame(n, f, C) == (V if det_enc(f, C) else None)
    assert {0, 1, n + 1} <= ranks
    identity = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
    assert _zero_set(n, f, identity) == _canonical_variety(n, f) == hermitian_variety(HermitianForm.identity(n, f))


def test_evaluate_refuses_coordinates_that_are_not_a_point():
    f = field_for_q(2)
    form = HermitianForm.identity(2, f)
    pt = enum_points(2, f)[7]
    assert form.evaluate(pt) == form.evaluate(iter(pt))
    bad = [pt[:2], (*pt, f.one), enum_points(2, field_for_q(3))[7], (pt[0], pt[1], 1)]
    for coords in bad:
        with pytest.raises(ValueError, match=r"^a point of PG\(2, 4\) has 3 coordinates in GF\(4\)$"):
            form.evaluate(coords)


@pytest.mark.parametrize("q", [2, 3])
def test_hermitian_curve_is_unital(q):
    f = field_for_q(q)
    H = hermitian_variety(HermitianForm.identity(2, f))
    check = is_unital_embedded(H)
    assert check
    assert check.size == q**3 + 1
    assert check.tangent_count == q**3 + 1
    assert check.secant_count == q * q * (q * q - q + 1)
    assert dict(check.profile) == {
        1: check.tangent_count,
        q + 1: check.secant_count,
    }


def test_is_unital_embedded_rejects_non_unitals():
    f = make_field(2, 1)
    assert not is_unital_embedded(PointSet.of(2, f, range(9)))
    assert not is_unital_embedded(PointSet(2, f, ()).complement())
    with pytest.raises(ValueError):
        is_unital_embedded(PointSet.of(3, f, range(9)))


@pytest.mark.parametrize("q", [2, 3])
def test_blocks_form_a_steiner_design(q):
    f = field_for_q(q)
    H = hermitian_variety(HermitianForm.identity(2, f))
    blocks = blocks_of(H)
    assert len(blocks) == q * q * (q * q - q + 1)
    assert all(len(b) == q + 1 for b in blocks)
    for S in (PointSet.of(2, f, range(5)), PointSet.of(2, f, range(q**3 + 1))):  # wrong size; right size, wrong profile
        check = is_unital_embedded(S)
        assert not check.ok
        with pytest.raises(ValueError, match=re.escape(f"not a unital: profile {check.profile}, size {check.size}")):
            blocks_of(S)


# the 12 lines of AG(2,3): a 2-(9, 3, 1) design on the points 0..8
AG23 = [
    (0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8),
    (0, 4, 8), (1, 5, 6), (2, 3, 7), (0, 5, 7), (1, 3, 8), (2, 4, 6),
]


def test_design_check_rejects_hand_made_block_lists():
    points = tuple(range(9))
    _check_design(points, AG23, 3, 12)
    doubled = AG23[:-1] + [(0, 1, 6)]  # (0, 1) and (0, 6) again
    with pytest.raises(AssertionError, match=r"^pair \(2, 4\) covered by no block$"):
        _check_design(points, doubled, 3, 12)  # (2, 4), (2, 6), (4, 6) uncovered
    moved = {(0, 1, 2): (3, 1, 2), (0, 3, 6): (1, 3, 6), (0, 4, 8): (2, 4, 8), (0, 5, 7): (1, 5, 7)}
    with pytest.raises(AssertionError, match=r"^pair \(0, 1\) covered by no block$"):
        _check_design(points, [moved.get(blk, blk) for blk in AG23], 3, 12)  # point 0 on no block
    with pytest.raises(AssertionError, match=r"^design counts off: .* for b = 11, k = 3, v = 9$"):
        _check_design(points, AG23[:-1], 3, 11)
    with pytest.raises(AssertionError, match="secant count off"):
        _check_design(points, AG23[:-1], 3, 12)
    with pytest.raises(AssertionError, match="block size off"):
        _check_design(points, AG23[:-1] + [(2, 4)], 3, 12)
    with pytest.raises(AssertionError, match="^block point 5 is not a point of the design$"):
        _check_design((0, 1, 2), [(0, 1, 5)], 3, 1)
    with pytest.raises(AssertionError, match="^block point 5 is not a point of the design$"):
        check_design_by_scan((0, 1, 2), [(0, 1, 5)], 3, 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_line_tables_are_projective_planes(q):
    """The lines of PG(2, Q), Q = q^2, form a 2-(Q^2+Q+1, Q+1, 1) design: two points share exactly one line.

    This plane axiom is what makes the secants of any set with the unital profile a design, so `blocks_of`
    takes it from the table, certified here once per table, and checks no design of its own.
    """
    f = field_for_q(q)
    Q = f.size
    _check_design(range(Q * Q + Q + 1), subspace_member_indices(2, 2, f), Q + 1, Q * Q + Q + 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_lines_through_is_the_transpose_of_the_line_table(q):
    f = field_for_q(q)
    Q, sp = f.size, _space(2, f)
    through = [[] for _ in range(sp.count)]
    for line, ids in enumerate(subspace_member_indices(2, 2, f)):
        for i in ids:
            through[i].append(line)
    for i, lines in enumerate(through):
        got = _lines_through(f, i)
        assert len(got) == len(set(got)) == Q + 1
        assert all(0 <= line < Q * Q + Q + 1 for line in got)
        assert sorted(got) == lines


@pytest.mark.parametrize(
    "p,t,modulus", [(3, 1, (2, 2, 1)), (2, 2, (1, 1, 0, 0, 1)), (5, 1, (2, 1, 1))], ids=["GF(9)", "GF(16)", "GF(25)"]
)
def test_lines_and_blocks_under_a_non_default_modulus(p, t, modulus):
    """Per-field tables are keyed on the field, not its size: a non-default modulus, used in turn with the
    default field of the same size, gets its own lines through each point and its own blocks."""
    other = make_field(p, t, modulus)
    default = field_for_q(p**t)
    assert other is not default and other.modulus != default.modulus
    for f in (default, other, default, other):
        through = [[] for _ in range(_space(2, f).count)]
        for line, ids in enumerate(subspace_member_indices(2, 2, f)):
            for i in ids:
                through[i].append(line)
        assert [sorted(_lines_through(f, i)) for i in range(len(through))] == through
    for seed in range(3):
        for f in (default, other):
            U = bm_unital(random.Random(seed).choice(all_valid_bm_params(f)))
            assert blocks_of(U) == blocks_of_by_line_scan(U)


@pytest.mark.parametrize(
    "sets,q",
    [("H(I)", q) for q in (2, 3, 4, 5)] + [("every B-M", q) for q in (3, 4)] + [("seeded B-M", q) for q in (7, 8, 9)],
)
def test_blocks_of_equals_the_line_scan(sets, q):
    """The same secant tuples, in the same order, from the incidences as from scanning every line."""
    f = field_for_q(q)
    if sets == "H(I)":
        unitals = [hermitian_variety(HermitianForm.identity(2, f))]
    else:
        params = all_valid_bm_params(f)
        unitals = [bm_unital(pr) for pr in (params if sets == "every B-M" else random.Random(q).sample(params, 3))]
    for U in unitals:
        assert blocks_of(U) == blocks_of_by_line_scan(U)


def _design_outcome(check, points, blocks, k, b):
    try:
        check(points, blocks, k, b)
    except AssertionError as e:
        return str(e)
    return None


def _design_faults(blocks, b, rng):
    """Seeded faults of a design: (blocks, b) pairs, most of which are no longer a design."""
    blocks = [list(blk) for blk in blocks]

    def pick():
        return rng.randrange(len(blocks))

    for _ in range(10):  # move a point from one block to another
        out, x, y = [list(blk) for blk in blocks], pick(), pick()
        if x != y:
            out[y].append(out[x].pop(rng.randrange(len(out[x]))))
            yield out, b
    for _ in range(10):  # replace a point by a point of another block, keeping sizes
        out, x, y = [list(blk) for blk in blocks], pick(), pick()
        out[y][rng.randrange(len(out[y]))] = rng.choice(out[x])
        yield out, b
    for _ in range(10):  # repeat a point inside a block
        out, x = [list(blk) for blk in blocks], pick()
        i, j = rng.sample(range(len(out[x])), 2)
        out[x][j] = out[x][i]
        yield out, b
    for _ in range(10):  # drop a block, with the count of what is left and with the old count
        out = [list(blk) for blk in blocks]
        del out[pick()]
        yield out, b - 1
        yield out, b
    for _ in range(5):  # add a copy of a block, so that b*k*(k-1) = v*(v-1) breaks
        yield blocks + [list(blocks[pick()])], b + 1
    for _ in range(5):  # the design itself, blocks and points reordered
        out = [rng.sample(blk, len(blk)) for blk in blocks]
        rng.shuffle(out)
        yield out, b


def test_design_union_path_agrees_with_the_scan():
    f = field_for_q(3)
    H = hermitian_variety(HermitianForm.identity(2, f))
    blocks = blocks_of(H)
    cases = [(tuple(range(9)), AG23, 3, 12), (tuple(range(9)), AG23[:-1] + [(0, 1, 6)], 3, 12)]
    cases += [(tuple(range(9)), AG23[:-1], 3, b) for b in (11, 12)]
    cases += [(tuple(range(9)), AG23[:-1] + [(2, 4)], 3, 12), (tuple(range(9)), AG23 + [AG23[0]], 3, 13)]
    cases += [((0, 1, 2), [(0, 1, 5)], 3, 1)]
    cases += [(H.members, out, 4, b) for out, b in _design_faults(blocks, len(blocks), random.Random(3))]
    assert len(cases) > 50
    outcomes = []
    for points, blks, k, b in cases:
        outcome = _design_outcome(_check_design, points, blks, k, b)
        assert (outcome is None) == (_design_outcome(check_design_by_scan, points, blks, k, b) is None)
        named = re.fullmatch(r"pair \((\d+), (\d+)\) covered by no block", outcome or "")
        if named:
            pair = {int(named[1]), int(named[2])}
            assert not any(pair <= set(blk) for blk in blks)
        outcomes.append(outcome)
    assert None in outcomes
    kinds = {re.sub(r"^(pair \(\d+, \d+\)|block point \d+) ", "", o.partition(":")[0]) for o in outcomes if o}
    assert kinds == {
        "secant count off", "block size off", "covered by no block", "design counts off", "is not a point of the design",
    }


@pytest.mark.parametrize(
    "q,count", [(3, 18), (4, 72), (5, 200), (7, 882), pytest.param(8, 1568, marks=pytest.mark.slow),
                pytest.param(9, 2592, marks=pytest.mark.slow)],
)
def test_bm_validity_sweep(q, count):
    """bm_is_valid agrees with the brute-force line test on the full sweep."""
    f = field_for_q(q)
    valid = 0
    for a in f.elements:
        for b in f.elements:
            params = BMParams(a, b)
            candidate = PointSet(2, f, _bm_point_ids(f, a, b))
            want = bool(is_unital_embedded(candidate))
            assert bm_is_valid(params) == want
            valid += want
    assert valid == count
    assert len(all_valid_bm_params(f)) == count


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_all_valid_bm_params_equals_the_pairwise_filter(q):
    """One verdict per (N(a), b^q - b) class gives the pairs bm_is_valid accepts one by one, in (a, b) order."""
    f = field_for_q(q)
    want = tuple(BMParams(a, b) for a in f.elements for b in f.elements if bm_is_valid(BMParams(a, b)))
    assert all_valid_bm_params(f) == want


@pytest.mark.parametrize("q", [3, 4, 5])
def test_bm_unitals_pass_the_axioms(q):
    f = field_for_q(q)
    params = all_valid_bm_params(f)
    assert params, "no valid parameters found"
    # a = 0 cases exist and are Hermitian; a != 0 cases exist for q > 3
    assert any(not pr.a for pr in params)
    for pr in params[:6]:
        U = bm_unital(pr)
        assert len(U) == q**3 + 1
        assert is_unital_embedded(U)


@pytest.mark.parametrize("q,distinct", [(3, 6), (4, 18), (5, 40)])
def test_bm_unital_depends_on_a_and_b_minus_its_conjugate(q, distinct):
    """U_{a,b+c} = U_{a,b} for c in GF(q): c*y^(q+1) lies in GF(q) and is absorbed by r.

    The params with the same (a, b^q - b) are exactly the q translates (a, b + c),
    so a group of q valid params per key shows that bm_is_valid is constant on
    every group; the groups with no valid param are constant (invalid) anyway.
    """
    f = field_for_q(q)
    groups = {}
    for pr in all_valid_bm_params(f):
        groups.setdefault((pr.a, frobenius(pr.b, f.t) - pr.b), []).append(bm_unital(pr).members)
    assert all(len(group) == q and len(set(group)) == 1 for group in groups.values())
    assert len({group[0] for group in groups.values()}) == distinct


def test_bm_unital_rejects_invalid_and_small_q():
    f3 = field_for_q(3)
    # b in GF(q) with a = 0 is never a unital
    bad = BMParams(f3.zero, f3.one)
    assert not bm_is_valid(bad)
    with pytest.raises(ValueError):
        bm_unital(bad)
    f2 = field_for_q(2)
    with pytest.raises(ValueError):
        bm_unital(BMParams(f2.zero, f2.gen))
    with pytest.raises(ValueError):
        BMParams(f3.zero, f2.gen)


def test_bm_affine_value_vanishes_exactly_on_the_unital():
    f = field_for_q(3)
    pr = all_valid_bm_params(f)[0]
    U = bm_unital(pr)
    pts = enum_points(2, f)
    for i, pt in enumerate(pts):
        if not pt[0]:
            continue  # the line at infinity is not covered by the affine form
        assert pt[0] == f.one
        vanishes = bm_affine_value(pr, pt[1], pt[2]) == f.zero
        assert vanishes == (i in U)


@pytest.mark.parametrize("q", [2, 3])
def test_check_property_I(q):
    f = field_for_q(q)
    H = hermitian_variety(HermitianForm.identity(2, f))
    comp = H.complement()
    assert check_property_I(comp, r=2, beta=f.t)
    assert not check_property_I(H, r=2, beta=f.t)  # sections are 1 or q+1
    with pytest.raises(ValueError):
        check_property_I(comp, r=1, beta=1)
    # p^beta with beta < 0 is no integer modulus; beta = 0 asks for multiples of 1
    assert check_property_I(H, r=2, beta=0)
    with pytest.raises(ValueError, match="^beta must be >= 0$"):
        check_property_I(H, r=2, beta=-1)


def test_check_property_I_refuses_an_oversized_line_table():
    """PG(3, 25) has 16,276 points but 407,526 lines: their masks would pass MAX_MASK_BITS, so none is built."""
    S = PointSet(3, field_for_q(5), (0,))
    msg = r"^407526 subspaces of dimension 2 times 16276 points of PG\(3, 25\) exceed 2147483648 mask bits; too large$"
    with pytest.raises(ValueError, match=msg):
        check_property_I(S, r=2, beta=1)


@settings(max_examples=60, deadline=None)
@given(nq=st.sampled_from([(2, 2), (2, 3), (2, 4), (3, 2)]), kind=st.sampled_from(["random", "empty", "all"]), data=st.data())
def test_line_counts_are_the_popcounts_and_complements_inherit_them(nq, kind, data):
    """S.line_counts is one popcount per line; a complement made after they exist is born with its own
    counts (Q + 1 - c), and so is the complement of that complement."""
    from unitals.varieties import _sections

    n, q = nq
    f = field_for_q(q)
    count = _space(n, f).count
    if kind == "random":
        S = PointSet.of(n, f, data.draw(st.sets(st.integers(0, count - 1))))
    else:
        S = PointSet(n, f, tuple(range(count)) if kind == "all" else ())
    fresh = S.complement()  # made before S's counts exist: it reads its own
    assert "line_counts" not in fresh.__dict__
    assert S.line_counts == bytes(_sections(S, 2))
    assert fresh.line_counts == bytes(_sections(fresh, 2))
    comp = S.complement()
    assert "line_counts" in comp.__dict__
    assert comp.line_counts == bytes(_sections(comp, 2)) == fresh.line_counts
    back = comp.complement()
    assert "line_counts" in back.__dict__ and back.line_counts == S.line_counts
    assert back.line_counts == bytes(_sections(back, 2))


@pytest.mark.parametrize("order", list(itertools.permutations(["check", "blocks", "property I"])), ids=" > ".join)
def test_verify_unital_calls_read_the_lines_once_per_set_in_any_order(monkeypatch, order):
    """verify-unital's three calls (unital check, blocks, property I of the complement made at its call)
    make one line pass per set object whatever their order: none once the complement inherits U's counts."""
    passes = []
    func = PointSet.line_counts.func
    counted = functools.cached_property(lambda S: passes.append(S) or func(S))
    counted.__set_name__(PointSet, "line_counts")
    monkeypatch.setattr(PointSet, "line_counts", counted)
    f = field_for_q(4)
    U = bm_unital(all_valid_bm_params(f)[-1])
    calls = {
        "check": lambda: is_unital_embedded(U).ok,
        "blocks": lambda: len(blocks_of(U)) == 208,
        "property I": lambda: check_property_I(U.complement(), 2, f.t),
    }
    assert all(calls[c]() for c in order)
    first = [_space(2, f).count - len(U)] if order[0] == "property I" else []  # that complement reads its own
    assert [len(S) for S in passes] == first + [len(U)] and passes[-1] is U


def test_fit_hermitian_form_recovers_the_identity():
    f = field_for_q(3)
    H = hermitian_variety(HermitianForm.identity(2, f))
    form = fit_hermitian_form(H)
    assert form is not None and form.is_nonsingular
    assert hermitian_variety(form) == H


def test_fit_hermitian_form_exactly_when_a_is_zero():
    f = field_for_q(3)
    for pr in all_valid_bm_params(f):
        U = bm_unital(pr)
        form = fit_hermitian_form(U)
        if pr.a:
            assert form is None
        else:
            assert form is not None
            assert hermitian_variety(form) == U


def test_fit_hermitian_form_none_on_generic_sets():
    f = field_for_q(2)
    assert fit_hermitian_form(PointSet(2, f, ()).complement()) is None


def test_fit_hermitian_form_none_on_a_line_of_pg2_81():
    """A line meets a nonsingular Hermitian curve in 1 or q + 1 points, so no form fits its q^2 + 1 points."""
    f = field_for_q(9)
    assert fit_hermitian_form(PointSet(2, f, subspace_member_indices(2, 2, f)[5])) is None


def test_fit_hermitian_form_refuses_the_empty_set():
    with pytest.raises(ValueError, match="empty set"):
        fit_hermitian_form(PointSet(2, field_for_q(3), ()))


def _line_of_pg2_9():
    f = field_for_q(3)
    return [PointSet(2, f, next(ids for ids in subspace_member_indices(2, 2, f) if {0, 1} <= set(ids)))]


# every set is fitted by both routes; the full-system solve is the reference
FIT_REFERENCE_CASES = {
    **{
        f"B-M, every valid (a, b), q={q}": lambda q=q: [bm_unital(pr) for pr in all_valid_bm_params(field_for_q(q))]
        for q in (3, 4, 5)
    },
    **{
        f"H(2, q^2) of 30 seeded forms, q={q}": lambda q=q: [
            hermitian_variety(random_hermitian_form(2, field_for_q(q), seed)) for seed in range(30)
        ]
        for q in (2, 3)
    },
    "H(3, 4) of 10 seeded forms": lambda: [
        hermitian_variety(random_hermitian_form(3, field_for_q(2), seed)) for seed in range(10)
    ],
    "all of PG(2, 4)": lambda: [PointSet(2, field_for_q(2), ()).complement()],
    "a line of PG(2, 9)": _line_of_pg2_9,
}


@pytest.mark.parametrize("case", sorted(FIT_REFERENCE_CASES))
def test_fit_matches_full_system_reference(case):
    """The GF(q) fit returns a nonzero GF(q)-multiple of the form the GF(p) full-system solve returns, or None with it."""
    for S in FIT_REFERENCE_CASES[case]():
        form, ref = fit_hermitian_form(S), fit_hermitian_form_full_system(S)
        assert (form is None) == (ref is None)
        if form is not None:
            f = S.field
            pairs = [(x.enc, y.enc) for row, ref_row in zip(form.matrix, ref.matrix) for x, y in zip(row, ref_row)]
            x, y = next((x, y) for x, y in pairs if y)
            lam = f.mul_enc(x, f.inv_enc(y))
            assert lam in f.subfield_encs[1:]
            assert all(x == f.mul_enc(lam, y) for x, y in pairs)


def _count_det_calls(monkeypatch):
    from unitals import varieties

    calls = []

    def counting(field, m):
        calls.append(m)
        return det_enc(field, m)

    monkeypatch.setattr(varieties, "det_enc", counting)
    return calls


def test_fit_stops_drawing_points_once_no_form_is_left(monkeypatch):
    """At q = 4 the walk empties its basis before the last of the 65 points of every B-M unital with a != 0."""
    from unitals import varieties

    walk, drawn = varieties._walk, []

    def counting(field, rows, ncols):
        def counted():
            for row in rows:
                drawn[-1] += 1
                yield row

        drawn.append(0)
        return walk(field, counted(), ncols)

    monkeypatch.setattr(varieties, "_walk", counting)
    for params in all_valid_bm_params(field_for_q(4)):
        form = fit_hermitian_form(bm_unital(params))
        assert (form is None) == bool(params.a.enc)
        assert drawn[-1] < 65 if params.a.enc else drawn[-1] == 65


def test_fit_scans_gf_q_for_a_nonsingular_form_through_two_points(monkeypatch):
    """Two points of PG(2, 4) leave 7 of the 9 GF(2)-coordinates; the scan finds a nonsingular form on both."""
    f = field_for_q(2)
    S = PointSet(2, f, (0, 5))
    calls = _count_det_calls(monkeypatch)
    form = fit_hermitian_form(S)
    assert calls and form is not None and form.is_nonsingular
    assert all(not form.evaluate(pt) for pt in S.coords())


def test_fit_scan_finds_no_nonsingular_form_on_a_plane_of_pg3_4(monkeypatch):
    """The forms vanishing on a plane h^perp are h a^dagger + a h^dagger, all of rank <= 2: the whole scan, then None."""
    f = field_for_q(2)
    plane = PointSet(3, f, subspace_member_indices(3, 3, f)[0])
    calls = _count_det_calls(monkeypatch)
    assert fit_hermitian_form(plane) is None
    assert len(calls) == 2**7 - 1  # every nonzero combination of the 7 forms left over GF(2)


def test_fit_refuses_a_scan_too_large_before_it_starts(monkeypatch):
    """One point of PG(2, 81) leaves 8 forms over GF(9): 9^8 candidates pass the scan limit."""
    calls = _count_det_calls(monkeypatch)
    with pytest.raises(ValueError, match=r"^nullspace too large to scan \(8 dims over GF\(9\)\)$"):
        fit_hermitian_form(PointSet(2, field_for_q(9), (0,)))
    assert not calls
