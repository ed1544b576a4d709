"""Intersection censuses over unitals and Hermitian varieties in PG(n, q^2).

Every census takes an explicit seed (sampling uses random.Random, so runs are
reproducible across machines) and returns a CensusReport: a list of
CensusRecord rows plus a summary with the assertion outcomes.  Nothing raises
on a mathematical violation; violations land in the report and callers (the
CLI, the tests) decide.  A report with no records never counts as a pass.
Intersection sizes are always computed twice, by set intersection and by
bitmask AND, and the two routes must agree.

Each census kind is a spec run by one pipeline (`_run`): a guard on its
parameters, its sources (the tasks, drawn in a fixed order), a `measure`
function that turns one task into a record and a `summarise` function over
all records.  Reports hold no wall times, so identical configs give
byte-identical files; timing is the caller's business.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, field as dc_field

from . import __version__
from .finite_field import Field, field_for_q
from .linalg import det_enc
from .padic_invariants import theta_bound, val_p
from .proj_geom import PointSet, _image_enc, gaussian_binomial
from .varieties import (
    BMParams,
    HermitianForm,
    _canonical_variety,
    _draw_form,
    all_valid_bm_params,
    bm_unital,
    hermitian_variety,
    is_unital_embedded,
)

DEFAULT_SEED = 1729
DEFAULT_SAMPLES = 200


def intersect_size(A: PointSet, B: PointSet) -> int:
    """|A and B| computed by set intersection and by bitmask AND; must agree.

    ValueError unless A and B lie in the same PG(n, q^2) over the same field.
    """
    if A.n != B.n or A.field is not B.field:
        raise ValueError("ambient spaces differ")
    by_set = len(set(A.members).intersection(B.members))
    by_mask = (A.mask & B.mask).bit_count()
    if by_set != by_mask:
        raise AssertionError("intersection routes disagree")
    return by_set


@dataclass
class CensusRecord:
    left: dict
    right: dict
    size: int
    congruences: tuple[tuple[int, int], ...]  # (modulus, residue) pairs
    ok: bool
    extra: dict = dc_field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "left": self.left,
            "right": self.right,
            "size": self.size,
            "congruences": [list(c) for c in self.congruences],
            "ok": self.ok,
            "extra": self.extra,
        }


@dataclass
class CensusReport:
    kind: str
    config: dict
    records: list[CensusRecord]
    summary: dict

    @property
    def ok(self) -> bool:
        return bool(self.summary.get("ok"))

    def first_violation(self) -> CensusRecord | None:
        return next((r for r in self.records if not r.ok), None)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "config": self.config,
            "records": [r.to_json_dict() for r in self.records],
            "summary": self.summary,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["left", "right", "size", "congruences", "ok"])
        for r in self.records:
            w.writerow(
                [
                    json.dumps(r.left, sort_keys=True),
                    json.dumps(r.right, sort_keys=True),
                    r.size,
                    json.dumps([list(c) for c in r.congruences]),
                    int(r.ok),
                ]
            )
        return buf.getvalue()


def _run(kind: str, config: dict, tasks, measure, summarise) -> CensusReport:
    """The census pipeline: measure each task in order, then summarise.

    `summary["ok"]` is set here and nowhere else: every record passed, and
    there was at least one record.
    """
    records = [measure(task) for task in tasks]
    summary = summarise(records)
    summary["ok"] = bool(records) and all(r.ok for r in records)
    config["version"] = __version__
    return CensusReport(kind=kind, config=config, records=records, summary=summary)


def _hist(values) -> dict[str, int]:
    out: dict[int, int] = {}
    for v in values:
        out[v] = out.get(v, 0) + 1
    return {str(k): v for k, v in sorted(out.items())}


def _form_desc(form: HermitianForm, **extra) -> dict:
    d = {"kind": "hermitian_form", "matrix": [list(row) for row in form._enc_matrix]}
    d.update(extra)
    return d


def _bm_desc(params: BMParams) -> dict:
    return {"kind": "bm", "a": params.a.enc, "b": params.b.enc}


def _sample_form(n: int, field: Field, rng: random.Random) -> tuple[HermitianForm, int, int]:
    """Draw one nonsingular form; returns (form, seed used, rejected count)."""
    seed = rng.randrange(1 << 30)
    form, rejected = _draw_form(n, field, seed)
    return form, seed, rejected


def _random_collineation(field: Field, n: int, rng: random.Random) -> tuple[tuple[int, ...], ...]:
    """Rows of encodings of a seeded nonsingular (n+1) x (n+1) matrix."""
    while True:
        m = tuple(tuple(rng.randrange(field.size) for _ in range(n + 1)) for _ in range(n + 1))
        if det_enc(field, m):
            return m


def canonical_hermitian_unital(field: Field) -> PointSet:
    return _canonical_variety(2, field)


def collineated_hermitian_unitals(
    field: Field, count: int, seed: int
) -> list[tuple[dict, PointSet]]:
    """Images of the canonical Hermitian unital under seeded projectivities."""
    rng = random.Random(seed)
    base = canonical_hermitian_unital(field)
    out = []
    for _ in range(count):
        m = _random_collineation(field, 2, rng)
        desc = {"kind": "hermitian_collineated", "collineation": [list(row) for row in m]}
        out.append((desc, _image_enc(m, base)))
    return out


def _sweep(field: Field, seed: int, hermitian_samples: int, unitals: list) -> tuple[list, list]:
    """Every unital against the canonical Hermitian unital and its seeded images.

    Returns (hermitians, tasks); each task is (unital entry, H descriptor, H).
    """
    hermitians = [({"kind": "hermitian_canonical"}, canonical_hermitian_unital(field))]
    hermitians += collineated_hermitian_unitals(field, hermitian_samples, seed)
    return hermitians, [(u, hd, H) for u in unitals for hd, H in hermitians]


# ---------------------------------------------------------------------------
# censuses


def kestenband_census(
    q: int,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> CensusReport:
    """Sizes of |H1 and H2| for sampled pairs of distinct Hermitian unitals.

    The admissible size set is {1, q+1, q^2-q+1, q^2+1, q^2+q+1, (q+1)^2};
    every size must also be congruent to 1 mod q.
    """
    if q not in (2, 3, 4, 5):
        raise ValueError("kestenband_census supports q in {2, 3, 4, 5}")
    field = field_for_q(q)
    allowed = {1, q + 1, q * q - q + 1, q * q + 1, q * q + q + 1, (q + 1) ** 2}
    rng = random.Random(seed)
    coincident = 0
    degenerate = 0
    pairs = []
    while len(pairs) < samples:
        f1, s1, rej1 = _sample_form(2, field, rng)
        f2, s2, rej2 = _sample_form(2, field, rng)
        degenerate += rej1 + rej2
        H1 = hermitian_variety(f1)
        H2 = hermitian_variety(f2)
        if H1.members == H2.members:
            coincident += 1
            continue
        pairs.append((f1, s1, H1, f2, s2, H2))

    def measure(item):
        f1, s1, H1, f2, s2, H2 = item
        size = intersect_size(H1, H2)
        return CensusRecord(
            left=_form_desc(f1, seed=s1),
            right=_form_desc(f2, seed=s2),
            size=size,
            congruences=((q, size % q),),
            ok=size in allowed and size % q == 1,
        )

    def summarise(records):
        return {
            "size_histogram": _hist(r.size for r in records),
            "allowed_sizes": sorted(allowed),
            "all_in_admissible_set": all(r.size in allowed for r in records),
            "all_congruent_1_mod_q": all(r.size % q == 1 for r in records),
            "coincident_redraws": coincident,
            "degenerate_redraws": degenerate,
        }

    config = dict(q=q, samples=samples, seed=seed)
    return _run("kestenband", config, pairs, measure, summarise)


def bm_vs_hermitian_census(
    q: int,
    seed: int = DEFAULT_SEED,
    hermitian_samples: int = 20,
) -> CensusReport:
    """|H and U_{a,b}| = 1 mod q for every valid (a,b) and every sampled H.

    Sweeps all valid Buekenhout-Metz parameters (the a = 0 Hermitian cases
    included) against the canonical Hermitian unital and `hermitian_samples`
    collineated copies of it.
    """
    if q not in (3, 4, 5):
        raise ValueError("bm_vs_hermitian_census supports q in {3, 4, 5}")
    field = field_for_q(q)
    p, t = field.p, field.t
    mod2 = p ** -(-t // 2)  # p^ceil(t/2), the weaker corollary modulus
    unitals = [(_bm_desc(pr), bm_unital(pr)) for pr in all_valid_bm_params(field)]
    hermitians, tasks = _sweep(field, seed, hermitian_samples, unitals)

    def measure(item):
        (ud, U), hd, H = item
        size = intersect_size(U, H)
        return CensusRecord(
            left=ud,
            right=hd,
            size=size,
            congruences=((q, size % q), (mod2, (size - 1) % mod2)),
            ok=size % q == 1,
        )

    def summarise(records):
        return {
            "valid_params": len(unitals),
            "hermitian_sets": len(hermitians),
            "pairs": len(records),
            "residues_mod_q": _hist(r.size % q for r in records),
        }

    config = dict(q=q, seed=seed, hermitian_samples=hermitian_samples)
    return _run("bm_vs_hermitian", config, tasks, measure, summarise)


def general_unital_congruence(
    q: int,
    seed: int = DEFAULT_SEED,
    unitals: list[tuple[dict, PointSet]] | None = None,
    hermitian_samples: int = 20,
) -> CensusReport:
    """The two congruence bounds for verified unitals against Hermitian ones.

    For each unital U (by default the full valid Buekenhout-Metz sweep) and
    each Hermitian unital H: v_p(|H and U| - 1) >= ceil(t/2), and p^theta
    divides |complement(U) and H| with theta = theta_bound(2, 2, t).  Every U
    from the source must pass is_unital_embedded.  A failing caller-supplied
    set raises ValueError with the line-profile diagnostic; a failing set of
    the default sweep is a library fault and raises AssertionError.
    """
    if q not in (3, 4, 5):
        raise ValueError("general_unital_congruence supports q in {3, 4, 5}")
    field = field_for_q(q)
    p, t = field.p, field.t
    theta = theta_bound(2, 2, t)
    need = -(-t // 2)  # ceil(t/2)
    fault = ValueError if unitals is not None else AssertionError
    if unitals is None:
        unitals = [(_bm_desc(pr), bm_unital(pr)) for pr in all_valid_bm_params(field)]
    for desc, U in unitals:
        check = is_unital_embedded(U)
        if not check:
            raise fault(f"source produced a non-unital ({desc}): profile {check.profile}")
    # one complement per unital, shared by all its pairs
    sources = [(desc, U, U.complement()) for desc, U in unitals]
    hermitians, tasks = _sweep(field, seed, hermitian_samples, sources)

    def measure(item):
        (ud, U, U_comp), hd, H = item
        size = intersect_size(U, H)
        comp_section = intersect_size(U_comp, H)
        identity_ok = comp_section == len(H) - size
        nu = val_p(size - 1, p) if size != 1 else None  # None means +infinity
        cong_ok = (size - 1) % (p**need) == 0
        div_ok = comp_section % (p**theta) == 0
        return CensusRecord(
            left=ud,
            right=hd,
            size=size,
            congruences=((p**need, (size - 1) % (p**need)), (p**theta, comp_section % (p**theta))),
            ok=bool(cong_ok and div_ok and identity_ok),
            extra={
                "nu_p_size_minus_1": nu,
                "theta": theta,
                "complement_section": comp_section,
                "identity_ok": identity_ok,
            },
        )

    def summarise(records):
        nus = (r.extra["nu_p_size_minus_1"] for r in records)
        return {
            "unitals": len(unitals),
            "hermitian_sets": len(hermitians),
            "pairs": len(records),
            "theta": theta,
            "min_nu_p_size_minus_1": min((nu for nu in nus if nu is not None), default=None),
        }

    config = dict(q=q, seed=seed, hermitian_samples=hermitian_samples)
    return _run("general_unital_congruence", config, tasks, measure, summarise)


def hermitian_pair_divisibility(
    n: int,
    q: int,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> CensusReport:
    """Divisibility statistics for pairs of Hermitian varieties in PG(n, q^2).

    Asserts the complement reading q^(n-1) | |comp(H1) and comp(H2)| and
    records the p-adic valuations of |H1 and H2|, |H1 and H2| - 1 and the
    complement intersection.  The summary states explicitly whether the
    literal direct reading q^(n-1) | |H1 and H2| held (at n = 2 it cannot:
    the sizes are = 1 mod q).
    """
    if (n, q) not in ((2, 2), (2, 3), (3, 2)):
        raise ValueError("hermitian_pair_divisibility supports (n,q) in {(2,2),(2,3),(3,2)}")
    field = field_for_q(q)
    p = field.p
    qn = q ** (n - 1)
    total_points = gaussian_binomial(n + 1, 1, field.size)
    all_mask = (1 << total_points) - 1
    rng = random.Random(seed)
    degenerate = 0
    pairs = []
    for _ in range(samples):
        f1, s1, rej1 = _sample_form(n, field, rng)
        f2, s2, rej2 = _sample_form(n, field, rng)
        degenerate += rej1 + rej2
        pairs.append((f1, s1, f2, s2))

    def measure(item):
        f1, s1, f2, s2 = item
        H1 = hermitian_variety(f1)
        H2 = hermitian_variety(f2)
        size = intersect_size(H1, H2)
        # |comp(H1) and comp(H2)| from the masks; inclusion-exclusion is the second route
        comp = (all_mask & ~(H1.mask | H2.mask)).bit_count()
        identity_ok = comp == total_points - len(H1) - len(H2) + size
        return CensusRecord(
            left=_form_desc(f1, seed=s1),
            right=_form_desc(f2, seed=s2),
            size=size,
            congruences=((qn, comp % qn),),
            ok=comp % qn == 0 and identity_ok,
            extra={
                "complement_size": comp,
                "val_size": val_p(size, p) if size else None,
                "val_size_minus_1": val_p(size - 1, p) if size != 1 else None,
                "val_complement": val_p(comp, p) if comp else None,
                "coincident": H1.members == H2.members,
                "identity_ok": identity_ok,
            },
        )

    def summarise(records):
        return {
            "modulus": qn,
            "complement_reading_holds": all(r.extra["complement_size"] % qn == 0 for r in records),
            "direct_reading_holds": all(r.size % qn == 0 for r in records),
            "note": (
                "direct reading q^(n-1) | |H1&H2| fails at n=2 (sizes are 1 mod q); "
                "the complement reading is the supported statement"
            ),
            "size_histogram": _hist(r.size for r in records),
            "degenerate_redraws": degenerate,
        }

    config = dict(n=n, q=q, samples=samples, seed=seed)
    return _run("hermitian_pair_divisibility", config, pairs, measure, summarise)


def nonhermitian_pair_scan(
    q: int,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    *,
    general_position: bool = True,
) -> CensusReport:
    """Residue scan for pairs of distinct non-Hermitian B-M unitals.

    No congruence is asserted; this is output only.  The class of these
    unitals is closed under projectivities, so a faithful random pair puts
    the second unital in general position via a seeded collineation (the
    default).  With general_position=False both unitals stay in the standard
    chart; every pair then shares the point (0,0,1) and the affine parts meet
    in a multiple of q points (the z-cosets over GF(q) coincide or miss), so
    those sizes are identically 1 mod q.  The summary reports the residue
    histograms mod p, mod p^ceil(t/2) and mod q, and whether the mod-p and
    mod-q residues came out non-constant.
    """
    if q not in (3, 4, 5):
        raise ValueError("nonhermitian_pair_scan supports q in {3, 4, 5}")
    field = field_for_q(q)
    p, t = field.p, field.t
    mod2 = p ** -(-t // 2)
    params = [pr for pr in all_valid_bm_params(field) if pr.a]
    sets = {pr: bm_unital(pr) for pr in params}
    rng = random.Random(seed)
    pairs = []
    for _ in range(samples):
        p1 = params[rng.randrange(len(params))]
        p2 = params[rng.randrange(len(params))]
        while p2 == p1:
            p2 = params[rng.randrange(len(params))]
        g = _random_collineation(field, 2, rng) if general_position else None
        pairs.append((p1, p2, g))

    def measure(item):
        p1, p2, g = item
        right = sets[p2] if g is None else _image_enc(g, sets[p2])
        size = intersect_size(sets[p1], right)
        desc = _bm_desc(p2)
        if g is not None:
            desc = dict(desc, collineation=[list(row) for row in g])
        return CensusRecord(
            left=_bm_desc(p1),
            right=desc,
            size=size,
            congruences=((p, size % p), (mod2, size % mod2), (q, size % q)),
            ok=True,
        )

    def summarise(records):
        mod_p = _hist(r.size % p for r in records)
        mod_q = _hist(r.size % q for r in records)
        return {
            "general_position": general_position,
            "residues_mod_p": mod_p,
            "residues_mod_p_ceil_half": _hist(r.size % mod2 for r in records),
            "residues_mod_q": mod_q,
            "size_histogram": _hist(r.size for r in records),
            "non_constant_mod_p": len(mod_p) >= 2,
            "non_constant_mod_q": len(mod_q) >= 2,
        }

    config = dict(q=q, samples=samples, seed=seed, general_position=general_position)
    return _run("nonhermitian_pair_scan", config, pairs, measure, summarise)
