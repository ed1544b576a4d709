"""Unitals and Hermitian varieties in PG(n, q^2).

Construction of Hermitian and Buekenhout-Metz unitals over table-backed
finite fields, p-adic elementary-divisor invariants of point-subspace
incidence matrices (with an exact Smith-normal-form oracle), Teichmüller
character sums in truncated Galois rings, and reproducible intersection
censuses with congruence assertions.
"""

__version__ = "0.1.0"

from .finite_field import (
    Field,
    FieldElem,
    abs_trace,
    field_for_q,
    frobenius,
    is_square,
    make_field,
    norm_q,
    trace_q,
)
from .galois_ring import GaloisRing, GaloisRingElem, herm_char_value, make_ring
from .proj_geom import (
    IncidenceMatrix,
    PointSet,
    all_points_set,
    apply_collineation,
    enum_points,
    enum_subspaces,
    gaussian_binomial,
    incidence_matrix,
    point_index,
    subspace_member_indices,
)
from .padic_invariants import (
    TypeTuples,
    digit_sum,
    enum_basis_monomials,
    invariant_exponent,
    monomial_invariant_exponent,
    snf_valuation_multiset,
    theta_bound,
    type_of,
    val_p,
)
from .varieties import (
    BMParams,
    HermitianForm,
    UnitalCheck,
    all_valid_bm_params,
    bm_affine_value,
    bm_is_valid,
    bm_unital,
    blocks_of,
    check_property_I,
    fit_hermitian_form,
    hermitian_variety,
    is_unital_embedded,
    random_hermitian_form,
)
from .census import (
    CensusRecord,
    CensusReport,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    bm_vs_hermitian_census,
    canonical_hermitian_unital,
    collineated_hermitian_unitals,
    general_unital_congruence,
    hermitian_pair_divisibility,
    intersect_size,
    kestenband_census,
    nonhermitian_pair_scan,
)
