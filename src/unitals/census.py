"""Intersection censuses over unitals and Hermitian varieties in PG(n, q^2).

Every census takes an explicit seed (sampling uses random.Random, so runs are
reproducible across machines) and returns a CensusReport: a list of
CensusRecord rows plus a summary with the assertion outcomes.  Nothing raises
on a mathematical violation; violations land in the report and callers (the
CLI, the tests) decide.  A report with no records never counts as a pass.
Each distinct pair of sets is intersected once, and always by two routes,
set intersection and bitmask AND, which must agree.

Each census kind is a spec run by one pipeline (`_run`): a guard on its
parameters, its pairs (left descriptor, left set, right descriptor, right
set), drawn in a fixed order and, for the sampled kinds, lazily, a `judge`
that reads the congruences, the verdict and any extras off one pair and its
intersection size, and a `summarise` function over all records.  `_run` is
the only place where a pair is intersected, judged and a record built; a
judge reads any further count off the two masks.  Reports hold no wall
times, so identical configs give byte-identical files; timing is the
caller's business.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass, field as dc_field

from . import __version__
from .finite_field import Field, field_for_q
from .linalg import det_enc
from .padic_invariants import theta_bound, val_p
from .proj_geom import PointSet, _image_enc, gaussian_binomial
from .varieties import (
    BMParams,
    _canonical_variety,
    _draw_form,
    all_valid_bm_params,
    bm_unital,
    is_unital_embedded,
)

DEFAULT_SEED = 1729
DEFAULT_SAMPLES = 200
HERMITIAN_SAMPLES = 20  # seeded images of H(I) in each sweep, beside H(I) itself


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


def _dump(v, depth: int) -> str:
    """json.dumps(v, sort_keys=True, indent=2) as it reads when nested `depth` levels deep."""
    return json.dumps(v, sort_keys=True, indent=2).replace("\n", "\n" + "  " * depth)


def _memo(key, render):
    """render(x), computed once per key(x) for one serialisation.

    With key=id, only for objects the report holds for the whole call, since
    an id is reused once its object is freed.
    """
    texts = {}

    def cached(x):
        k = key(x)
        if k not in texts:
            texts[k] = render(x)
        return texts[k]

    return cached


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
    distinct_pairs: int | None = None  # distinct pairs of sets intersected; not serialised

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
        """json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n", from cached fragments.

        `indent` keeps json on its pure-Python encoder, and the sweeps repeat
        one descriptor object over many records and few distinct values in
        the other fields.  So each descriptor is rendered once per object,
        each other field once per repr (True == 1, but their reprs differ),
        and the layout of a record is written here.
        """
        desc = _memo(id, lambda v: _dump(v, 3))
        value = _memo(repr, lambda v: _dump(v, 3))
        rows = [
            f'{{\n      "congruences": {value(r.congruences)},\n      "extra": {value(r.extra)},'
            f'\n      "left": {desc(r.left)},\n      "ok": {value(r.ok)},'
            f'\n      "right": {desc(r.right)},\n      "size": {value(r.size)}\n    }}'
            for r in self.records
        ]
        records = "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]"
        return (
            f'{{\n  "config": {_dump(self.config, 1)},\n  "kind": {_dump(self.kind, 1)},'
            f'\n  "records": {records},\n  "summary": {_dump(self.summary, 1)}\n}}\n'
        )

    def to_csv(self) -> str:
        desc = _memo(id, lambda v: json.dumps(v, sort_keys=True))
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["left", "right", "size", "congruences", "ok"])
        for r in self.records:
            w.writerow(
                [
                    desc(r.left),
                    desc(r.right),
                    r.size,
                    json.dumps([list(c) for c in r.congruences]),
                    int(r.ok),
                ]
            )
        return buf.getvalue()


def _run(kind: str, config: dict, pairs, judge, summarise) -> CensusReport:
    """The census pipeline: intersect and judge each distinct pair once, then summarise.

    Each pair is (left descriptor, left set, right descriptor, right set), and
    `judge(left set, right set, size)` returns the record's (congruences, ok,
    extra).  This is the one place where a pair is intersected and a record
    built, one record per pair drawn, in order.  A pair of sets met again (the
    sweeps repeat one U per B-M class) reuses its size and verdict, and every
    record gets its own copy of `extra`.  The memo keys on the two masks, which
    name the sets exactly: every kind draws both sides in one PG(n, q^2), and
    `intersect_size` and the judges read only the sets' members, masks and
    sizes.  `summary["ok"]` is set here and nowhere else: every record passed,
    and there was at least one record.
    """
    records, seen = [], {}
    for left, L, right, R in pairs:
        key = L.mask, R.mask
        if key not in seen:
            size = intersect_size(L, R)
            seen[key] = (size, *judge(L, R, size))
        size, congruences, ok, extra = seen[key]
        records.append(CensusRecord(left, right, size, congruences, ok, dict(extra)))
    summary = summarise(records)
    summary["ok"] = bool(records) and all(r.ok for r in records)
    config["version"] = __version__
    return CensusReport(kind=kind, config=config, records=records, summary=summary, distinct_pairs=len(seen))


def _hist(values) -> dict[str, int]:
    return {str(k): v for k, v in sorted(Counter(values).items())}


def _bm_desc(params: BMParams) -> dict:
    return {"kind": "bm", "a": params.a.enc, "b": params.b.enc}


def _form_pairs(n: int, field: Field, seed: int, redraws: Counter):
    """Endless seeded pairs of nonsingular forms, as (descriptor, variety) for each side.

    Each form is drawn by `_draw_form` from its own seed, taken from
    random.Random(seed), and its variety is the zero set the draw read off the
    packed value rows; redraws["degenerate"] counts the singular candidates rejected.
    """
    rng = random.Random(seed)
    while True:
        pair = []
        for _ in range(2):
            s = rng.randrange(1 << 30)
            rows, V, rejected = _draw_form(n, field, s)
            redraws["degenerate"] += rejected
            desc = {"kind": "hermitian_form", "matrix": [list(row) for row in rows], "seed": s}
            pair += [desc, V]
        yield pair


def _collineated(desc: dict, S: PointSet, rng: random.Random) -> tuple[dict, PointSet]:
    """The image g.S under a seeded nonsingular g, and desc with g's rows of encodings added."""
    field, n1 = S.field, S.n + 1
    while True:
        g = tuple(tuple(rng.randrange(field.size) for _ in range(n1)) for _ in range(n1))
        if det_enc(field, g):
            return dict(desc, collineation=[list(row) for row in g]), _image_enc(g, S)


def canonical_hermitian_unital(field: Field) -> PointSet:
    return _canonical_variety(2, field)


def collineated_hermitian_unitals(
    field: Field, count: int, seed: int
) -> list[tuple[dict, PointSet]]:
    """Images of the canonical Hermitian unital under seeded projectivities."""
    rng = random.Random(seed)
    base = canonical_hermitian_unital(field)
    return [_collineated({"kind": "hermitian_collineated"}, base, rng) for _ in range(count)]


def _bm_unitals(params) -> list[tuple[BMParams, PointSet]]:
    """(pr, U_pr) for each pr in order, with one PointSet shared by each class of (a, b^q - b).

    U_{a,b} depends on b only through b^q - b (see bm_affine_value), so each
    class is built once, from its first member, and masked and checked once.
    """
    built, out = {}, []
    for pr in params:
        f, b = pr.field, pr.b.enc
        key = (pr.a.enc, f.add_enc(f._conj[b], f.neg_enc(b)))
        if key not in built:
            built[key] = bm_unital(pr)
        out.append((pr, built[key]))
    return out


def _sweep(field: Field, seed: int):
    """Every valid B-M unital, and its pairs with H(I) and each of H(I)'s seeded images.

    The unitals come one per (a, b), in order; the (a, b) of one class share one set.
    """
    unitals = [(_bm_desc(pr), U) for pr, U in _bm_unitals(all_valid_bm_params(field))]
    hermitians = [({"kind": "hermitian_canonical"}, canonical_hermitian_unital(field))]
    hermitians += collineated_hermitian_unitals(field, HERMITIAN_SAMPLES, seed)
    return unitals, ((ud, U, hd, H) for ud, U in unitals for hd, H in hermitians)


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
    redraws = Counter()

    def distinct(pair):
        coincident = pair[1].members == pair[3].members
        redraws["coincident"] += coincident
        return not coincident

    pairs = itertools.islice(filter(distinct, _form_pairs(2, field, seed, redraws)), samples)

    def judge(H1, H2, size):
        return ((q, size % q),), size in allowed and size % q == 1, {}

    def summarise(records):
        return {
            "size_histogram": _hist(r.size for r in records),
            "allowed_sizes": sorted(allowed),
            "all_in_admissible_set": all(r.size in allowed for r in records),
            "all_congruent_1_mod_q": all(r.size % q == 1 for r in records),
            "coincident_redraws": redraws["coincident"],
            "degenerate_redraws": redraws["degenerate"],
        }

    config = dict(q=q, samples=samples, seed=seed)
    return _run("kestenband", config, pairs, judge, summarise)


def bm_vs_hermitian_census(q: int, seed: int = DEFAULT_SEED) -> CensusReport:
    """|H and U_{a,b}| = 1 mod q for every valid (a,b) and every sampled H.

    Sweeps all valid Buekenhout-Metz parameters (the a = 0 Hermitian cases
    included) against the canonical Hermitian unital and HERMITIAN_SAMPLES
    collineated copies of it.
    """
    if q not in (3, 4, 5, 7, 8, 9):
        raise ValueError("bm_vs_hermitian_census supports q in {3, 4, 5, 7, 8, 9}")
    field = field_for_q(q)
    p, t = field.p, field.t
    mod2 = p ** -(-t // 2)  # p^ceil(t/2), the weaker corollary modulus
    unitals, pairs = _sweep(field, seed)

    def judge(U, H, size):
        return ((q, size % q), (mod2, (size - 1) % mod2)), size % q == 1, {}

    def summarise(records):
        return {
            "valid_params": len(unitals),
            "hermitian_sets": HERMITIAN_SAMPLES + 1,
            "pairs": len(records),
            "residues_mod_q": _hist(r.size % q for r in records),
        }

    config = dict(q=q, seed=seed, hermitian_samples=HERMITIAN_SAMPLES)
    return _run("bm_vs_hermitian", config, pairs, judge, summarise)


def general_unital_congruence(q: int, seed: int = DEFAULT_SEED) -> CensusReport:
    """The two congruence bounds for verified unitals against Hermitian ones.

    For each valid Buekenhout-Metz unital U and each Hermitian unital H:
    v_p(|H and U| - 1) >= ceil(t/2), and p^theta divides |complement(U) and H|
    with theta = theta_bound(2, 2, t), read off the masks and checked against
    |H| - |H and U|.  Each distinct U is verified once; one failing
    is_unital_embedded is a library fault: AssertionError naming the first
    (a, b) of its class, with the line-profile diagnostic.
    """
    if q not in (3, 4, 5, 7, 8, 9):
        raise ValueError("general_unital_congruence supports q in {3, 4, 5, 7, 8, 9}")
    field = field_for_q(q)
    p, t = field.p, field.t
    theta = theta_bound(2, 2, t)
    mod_nu, mod_theta = p ** -(-t // 2), p**theta  # p^ceil(t/2) and p^theta
    unitals, pairs = _sweep(field, seed)
    firsts = {}  # each distinct set once, named by the first (a, b) of its class
    for desc, U in unitals:
        firsts.setdefault(id(U), (desc, U))
    for desc, U in firsts.values():
        check = is_unital_embedded(U)
        if not check:
            raise AssertionError(f"source produced a non-unital ({desc}): profile {check.profile}")

    def judge(U, H, size):
        comp_section = (H.mask & ~U.mask).bit_count()
        identity_ok = comp_section == len(H) - size
        nu = val_p(size - 1, p) if size != 1 else None  # None means +infinity
        return (
            ((mod_nu, (size - 1) % mod_nu), (mod_theta, comp_section % mod_theta)),
            (size - 1) % mod_nu == 0 and comp_section % mod_theta == 0 and identity_ok,
            {
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
            "hermitian_sets": HERMITIAN_SAMPLES + 1,
            "pairs": len(records),
            "theta": theta,
            "min_nu_p_size_minus_1": min((nu for nu in nus if nu is not None), default=None),
        }

    config = dict(q=q, seed=seed, hermitian_samples=HERMITIAN_SAMPLES)
    return _run("general_unital_congruence", config, pairs, judge, summarise)


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
    redraws = Counter()

    def judge(H1, H2, size):
        # |comp(H1) and comp(H2)| from the masks; inclusion-exclusion is the second route
        comp = (all_mask & ~(H1.mask | H2.mask)).bit_count()
        identity_ok = comp == total_points - len(H1) - len(H2) + size
        return (
            ((qn, comp % qn),),
            comp % qn == 0 and identity_ok,
            {
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
            "degenerate_redraws": redraws["degenerate"],
        }

    config = dict(n=n, q=q, samples=samples, seed=seed)
    pairs = itertools.islice(_form_pairs(n, field, seed, redraws), samples)
    return _run("hermitian_pair_divisibility", config, pairs, judge, summarise)


def nonhermitian_pair_scan(
    q: int,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> CensusReport:
    """Residue scan for pairs of non-Hermitian B-M unitals with distinct parameters (a, b).

    Two parameters of one (a, b^q - b) class give one set, so such a pair is a
    unital U against its own image g.U.  No congruence is asserted; this is
    output only.  The class of these unitals is closed under projectivities,
    so a faithful random pair puts the second unital in general position via
    a seeded collineation.  Without it both unitals would stay in the
    standard chart, where every pair shares the point (0,0,1) and the affine
    parts meet in a multiple of q points (the z-cosets over GF(q) coincide or
    miss), so those sizes are trivially 1 mod q.  The summary reports the
    residue histograms mod p, mod p^ceil(t/2) and mod q, and whether the
    mod-p and mod-q residues came out non-constant.
    """
    if q not in (3, 4, 5, 7, 8, 9):
        raise ValueError("nonhermitian_pair_scan supports q in {3, 4, 5, 7, 8, 9}")
    field = field_for_q(q)
    p, t = field.p, field.t
    mod2 = p ** -(-t // 2)
    params = [pr for pr in all_valid_bm_params(field) if pr.a]
    sets = dict(_bm_unitals(params))
    rng = random.Random(seed)

    def draw_pairs():
        for _ in range(samples):
            p1 = params[rng.randrange(len(params))]
            p2 = params[rng.randrange(len(params))]
            while p2 == p1:
                p2 = params[rng.randrange(len(params))]
            yield (_bm_desc(p1), sets[p1], *_collineated(_bm_desc(p2), sets[p2], rng))

    def judge(U1, U2, size):
        return ((p, size % p), (mod2, size % mod2), (q, size % q)), True, {}

    def summarise(records):
        mod_p = _hist(r.size % p for r in records)
        mod_q = _hist(r.size % q for r in records)
        return {
            "general_position": True,
            "residues_mod_p": mod_p,
            "residues_mod_p_ceil_half": _hist(r.size % mod2 for r in records),
            "residues_mod_q": mod_q,
            "size_histogram": _hist(r.size for r in records),
            "non_constant_mod_p": len(mod_p) >= 2,
            "non_constant_mod_q": len(mod_q) >= 2,
        }

    config = dict(q=q, samples=samples, seed=seed, general_position=True)
    return _run("nonhermitian_pair_scan", config, draw_pairs(), judge, summarise)
