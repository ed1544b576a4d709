"""Reproducible intersection censuses.

Runs each census at a small sample count and prints the summaries: the
Kestenband size classification for Hermitian pairs, the mod-q congruence of
Buekenhout-Metz vs Hermitian intersections, the complement-form divisibility
for Hermitian pairs, and a residue scan over proper B-M pairs (where no
congruence is asserted and the mod-q residues really do spread out).  The
scan maps its second unital by a seeded collineation; a control intersects
the same unitals left in the standard chart, where every size is 1 mod q.

Run:  python3 demos/04_censuses.py
"""

import itertools
import json
from collections import Counter

from unitals import (
    all_valid_bm_params,
    bm_unital,
    bm_vs_hermitian_census,
    field_for_q,
    hermitian_pair_divisibility,
    intersect_size,
    kestenband_census,
    nonhermitian_pair_scan,
)

print("=== Kestenband sizes, q = 3, 60 seeded Hermitian pairs ===")
rep = kestenband_census(3, samples=60, seed=7)
print(f"ok: {rep.ok}")
print(f"size histogram: {rep.summary['size_histogram']}")
print(f"admissible:     {rep.summary['allowed_sizes']}")

print("\n=== Buekenhout-Metz vs Hermitian, q = 3, all valid (a, b) ===")
rep = bm_vs_hermitian_census(3, seed=7)
print(f"ok: {rep.ok} over {rep.summary['pairs']} pairs ({rep.summary['hermitian_sets']} Hermitian sets)")
print(f"residues mod q: {rep.summary['residues_mod_q']}  (all 1, as asserted)")

print("\n=== Hermitian pair divisibility, complement form, (n, q) = (2, 3) ===")
rep = hermitian_pair_divisibility(2, 3, samples=60, seed=7)
print(f"ok: {rep.ok}")
print(f"complement reading holds: {rep.summary['complement_reading_holds']}")
print(f"direct reading holds:     {rep.summary['direct_reading_holds']}")
print(f"note: {rep.summary['note']}")
print(f"intersection sizes seen:  {rep.summary['size_histogram']}")

print("\n=== proper B-M pair scan, q = 3 (no congruence asserted) ===")
rep = nonhermitian_pair_scan(3, samples=60, seed=7)
print(f"general position: {rep.summary['general_position']}")
print(f"residues mod q: {rep.summary['residues_mod_q']}")
print(f"non-constant mod q: {rep.summary['non_constant_mod_q']}")

proper = [bm_unital(pr) for pr in all_valid_bm_params(field_for_q(3)) if pr.a]
residues = dict(Counter(intersect_size(U1, U2) % 3 for U1, U2 in itertools.combinations(proper, 2)))
print(f"standard chart instead, all {sum(residues.values())} pairs (shared point, aligned cosets):")
print(f"residues mod q: {residues}  (constant 1)")

print("\nreports serialize deterministically; a record looks like:")
print(json.dumps(rep.records[0].to_json_dict(), sort_keys=True)[:120] + "...")
