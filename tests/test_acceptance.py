"""The nine acceptance criteria, one test each, with a printed scoreboard.

Every test asserts its criterion exactly (no tolerances) and records a
PASS/FAIL verdict that conftest prints after the run.  Stated runtime budgets
are measured single-threaded with time.perf_counter.
"""

import time
from collections import Counter

import conftest
from unitals.census import (
    DEFAULT_SEED,
    bm_vs_hermitian_census,
    canonical_hermitian_unital,
    collineated_hermitian_unitals,
    general_unital_congruence,
    hermitian_pair_divisibility,
    kestenband_census,
)
from unitals.finite_field import field_for_q
from unitals.galois_ring import herm_char_value, make_ring
from unitals.padic_invariants import (
    digit_sum,
    enum_basis_monomials,
    invariant_exponent,
    monomial_invariant_exponent,
    snf_valuation_multiset,
    theta_bound,
    type_of,
)
from unitals.proj_geom import enum_points, incidence_matrix
from unitals.varieties import (
    HermitianForm,
    all_valid_bm_params,
    blocks_of,
    bm_unital,
    check_property_I,
    fit_hermitian_form,
    hermitian_variety,
    is_unital_embedded,
)

CRITERIA = {
    1: "Buekenhout-Metz vs Hermitian: sizes = 1 mod q (q = 3, 4, 5)",
    2: "general-unital congruence and complement divisibility at q = 4",
    3: "Kestenband six-size classification (q = 2, 3)",
    4: "SNF oracle equals the monomial-type invariant formula",
    5: "type tuple identities, exhaustive (q = 2, 3)",
    6: "Teichmuller characteristic function mod q^2 (q = 2, 3)",
    7: "unital axioms, 2-design blocks, complement divisibility property",
    8: "Hermitian pair divisibility in complement form (200+ pairs)",
    9: "a Hermitian form fits exactly when a = 0 (q = 3, 4)",
}
for _num, _title in CRITERIA.items():
    conftest.register(_num, _title)

BM_RUNTIME_BUDGET = {3: 1.0, 4: 30.0, 5: 300.0}  # seconds, single-threaded


def test_criterion_1_bm_congruence(acceptance):
    details = []
    ok = True
    for q in (3, 4, 5):
        t0 = time.perf_counter()
        rep = bm_vs_hermitian_census(q, seed=DEFAULT_SEED, hermitian_samples=20)
        elapsed = time.perf_counter() - t0
        assert rep.summary["hermitian_sets"] == 21  # canonical + 20 seeded
        all_one = all(r.size % q == 1 for r in rep.records)
        in_budget = elapsed < BM_RUNTIME_BUDGET[q]
        ok = ok and rep.ok and all_one and in_budget
        details.append(f"q={q}: {rep.summary['pairs']} pairs, {elapsed:.2f}s")
    acceptance(1, CRITERIA[1], ok, "; ".join(details))


def test_criterion_2_general_congruence_q4(acceptance):
    theta = theta_bound(2, 2, 2)
    rep = general_unital_congruence(4, seed=DEFAULT_SEED, hermitian_samples=20)
    nu_ok = all((r.size - 1) % 2 == 0 for r in rep.records)  # nu_2 >= 1
    div_ok = all(
        r.extra["complement_section"] % 2**theta == 0 for r in rep.records
    )
    ok = rep.ok and nu_ok and div_ok
    acceptance(
        2,
        CRITERIA[2],
        ok,
        f"{rep.summary['pairs']} pairs, theta={theta}, "
        f"min nu_2(size-1)={rep.summary['min_nu_p_size_minus_1']}",
    )


def test_criterion_3_kestenband_sizes(acceptance):
    t0 = time.perf_counter()
    details = []
    ok = True
    for q in (2, 3):
        rep = kestenband_census(q, samples=200, seed=DEFAULT_SEED)
        allowed = {1, q + 1, q * q - q + 1, q * q + 1, q * q + q + 1, (q + 1) ** 2}
        sizes_ok = all(r.size in allowed for r in rep.records)
        cong_ok = all(r.size % q == 1 for r in rep.records)
        ok = ok and rep.ok and sizes_ok and cong_ok
        details.append(f"q={q}: sizes {sorted(set(r.size for r in rep.records))}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    acceptance(3, CRITERIA[3], ok, f"{'; '.join(details)}; {elapsed:.2f}s")


def test_criterion_4_snf_oracle_equivalence(acceptance):
    frozen = {
        2: {0: 10, 1: 2, 2: 9},
        3: {0: 37, 1: 18, 2: 36},
        4: {0: 82, 1: 36, 2: 38, 3: 36, 4: 81},
    }
    t0 = time.perf_counter()
    details = []
    ok = True
    for q in (2, 3, 4):
        f = field_for_q(q)
        formula = sorted(
            monomial_invariant_exponent(m, f.p, f.t, 2)
            for m in enum_basis_monomials(2, f)
        )
        snf = list(
            snf_valuation_multiset(incidence_matrix(2, 2, f).to_dense(), f.p)
        )
        ok = ok and formula == snf and dict(Counter(snf)) == frozen[q]
        details.append(f"PG(2,{f.size}): {dict(Counter(snf))}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    acceptance(4, CRITERIA[4], ok, f"{'; '.join(details)}; {elapsed:.2f}s")


def test_criterion_5_type_identities(acceptance):
    ok = True
    checked = 0
    for q in (2, 3):
        f = field_for_q(q)
        p, t = f.p, f.t
        d = 2 * t
        for m in enum_basis_monomials(2, f):
            if not any(m):
                # the constant monomial has no type; its digit sum is 0
                ok = ok and sum(digit_sum(b, p) for b in m) == 0
                continue
            tt = type_of(m, p, t)
            recursion = all(
                tt.lam[j] == p * tt.s[(j + 1) % d] - tt.s[j] for j in range(d)
            )
            digits = sum(digit_sum(b, p) for b in m) == (p - 1) * sum(
                tt.s[j] for j in range(d)
            )
            ok = ok and recursion and digits
            checked += 1
    acceptance(5, CRITERIA[5], ok, f"{checked} nonconstant monomials")


def test_criterion_6_characteristic_function(acceptance):
    ok = True
    checked = 0
    for q in (2, 3):
        f = field_for_q(q)
        prec = 2 * f.t  # ell = 1: congruence mod q^2 = p^(2t)
        ring = make_ring(f, prec)
        H = hermitian_variety(HermitianForm.identity(2, f))
        zero, one = ring.zero, ring.one
        for i, pt in enumerate(enum_points(2, f)):
            val = herm_char_value(ring, pt, ell=1)
            want = zero if i in H else one
            ok = ok and val.congruent_mod(want, prec)
            checked += 1
    acceptance(6, CRITERIA[6], ok, f"{checked} points, ell=1")


def test_criterion_7_unital_axioms(acceptance):
    ok = True
    details = []
    for q in (3, 4, 5):
        f = field_for_q(q)
        sets = [canonical_hermitian_unital(f)]
        sets += [U for _, U in collineated_hermitian_unitals(f, 20, DEFAULT_SEED)]
        sets += [bm_unital(pr) for pr in all_valid_bm_params(f)]
        good = 0
        for U in sets:
            try:
                if not is_unital_embedded(U):
                    raise AssertionError("line profile")
                blocks_of(U)  # raises unless a 2-(q^3+1, q+1, 1) design
                if not check_property_I(U.complement(), r=2, beta=f.t):
                    raise AssertionError("complement divisibility")
            except (AssertionError, ValueError):
                ok = False
            else:
                good += 1
        details.append(f"q={q}: {good}/{len(sets)}")
    acceptance(7, CRITERIA[7], ok, "; ".join(details))


def test_criterion_8_pair_divisibility_complement_form(acceptance):
    ok = True
    details = []
    for n, q in ((2, 2), (2, 3)):
        rep = hermitian_pair_divisibility(n, q, samples=200, seed=DEFAULT_SEED)
        comp_ok = rep.summary["complement_reading_holds"]
        # the report must state that the direct reading fails at n = 2
        direct_recorded = rep.summary["direct_reading_holds"] is False
        noted = "direct reading" in rep.summary["note"]
        ok = ok and rep.ok and comp_ok and direct_recorded and noted
        ok = ok and len(rep.records) >= 200
        details.append(f"(n,q)=({n},{q}): {len(rep.records)} pairs")
    acceptance(8, CRITERIA[8], ok, "; ".join(details))


def test_criterion_9_hermitian_iff_a_zero(acceptance):
    ok = True
    details = []
    for q in (3, 4):
        f = field_for_q(q)
        hits = misses = 0
        for pr in all_valid_bm_params(f):
            U = bm_unital(pr)
            form = fit_hermitian_form(U)
            if pr.a:
                ok = ok and form is None
                misses += 1
            else:
                ok = ok and form is not None and hermitian_variety(form) == U
                hits += 1
        details.append(f"q={q}: {hits} Hermitian, {misses} proper B-M")
    acceptance(9, CRITERIA[9], ok, "; ".join(details))


def test_invariant_exponent_spot_values():
    # a couple of frozen anchors used while deriving the formula multisets
    assert invariant_exponent((1, 1), 2) == 2
    assert invariant_exponent((3, 1, 2, 2), 2) == 1
