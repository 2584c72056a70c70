"""Replayable identity-verification suites over seeded random instances.

Each suite returns a report dict with per-trial outcomes and serialized
counterexamples on failure; the CLI turns a failure into exit code 5.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import prod
from typing import Callable

from .arrangement import (
    bounded_region_gap,
    build_atoms,
    is_simple,
    subsum_identity_central,
    subsum_identity_noncentral,
)
from .bounds import identity_inclusion_exclusion, identity_reformulation
from .linalg import integer_row, primitive
from .minkowski import (
    LabeledPointSet,
    point_set,
    serialize_point_set,
    weibel_upper_identity,
)
from .network import (
    NO_BIAS,
    WITH_BIAS,
    LayerSpec,
    MaxoutUnitSpec,
    flats_transverse,
    sample_generic,
    serialize_network,
    single_layer_network,
)


WEIBEL_ATTEMPTS = 200
WEIBEL_MAX_PRODUCT = 200


def _layer_json(layer: LayerSpec) -> str:
    return serialize_network(single_layer_network(layer))


def sample_weibel_family(n: int, m: int, max_points: int, seed: int) -> list[LabeledPointSet]:
    """Random positive-dimensional point sets in Q^(n+1) certified for the
    upper-face identity: the induced with-bias arrangement is simple, no unit
    has a vertical difference vector, and no two units have parallel
    difference vectors.  The product of the set sizes is capped at
    WEIBEL_MAX_PRODUCT so the full sum stays classifiable directly; raises
    after WEIBEL_ATTEMPTS draws."""
    rng = random.Random(seed)
    for _ in range(WEIBEL_ATTEMPTS):
        sizes = [rng.randint(2, max_points) for _ in range(m)]
        while prod(sizes) > WEIBEL_MAX_PRODUCT:
            sizes[sizes.index(max(sizes))] -= 1
        sets = []
        for count in sizes:
            pts = set()
            while len(pts) < count:
                pts.add(tuple(Fraction(rng.randint(-9, 9)) for _ in range(n + 1)))
            sets.append(point_set(sorted(pts)))
        if _weibel_certificate(sets, n):
            return sets
    raise ValueError(f"no certified family in {WEIBEL_ATTEMPTS} attempts")


def _weibel_certificate(sets: list[LabeledPointSet], n: int) -> bool:
    dirs_per_set = []
    for s in sets:
        diffs = [[a - b for a, b in zip(p, q)] for p, q in combinations(s.points, 2)]
        if any(all(v == 0 for v in d[:n]) for d in diffs):
            return False  # vertical difference: upper counts become degenerate
        # Parallel difference vectors share one primitive integer direction.
        dirs_per_set.append({primitive(integer_row(d)[0]) for d in diffs})
    if any(not a.isdisjoint(b) for a, b in combinations(dirs_per_set, 2)):
        return False  # parallel cross-unit directions
    units = [
        MaxoutUnitSpec(tuple(p[:n] for p in s.points), tuple(p[n] for p in s.points))
        for s in sets
    ]
    layer = LayerSpec(n, tuple(units), WITH_BIAS)
    # flats_transverse projectivizes the layer itself.  Transverse
    # projectivized flats imply projectivized simplicity, and so affine
    # simplicity (network.sample_generic), so the families accepted are
    # those the affine is_simple accepts; only other layers need its LPs.
    return flats_transverse(layer) or is_simple(build_atoms(layer)).simple


def _suite(
    name: str, trials: int, gen: Callable[[int], tuple[bool, dict]]
) -> dict:
    failures = []
    for t in range(trials):
        ok, detail = gen(t)
        if not ok:
            failures.append(detail)
    return {
        "suite": name,
        "trials": trials,
        "passed": trials - len(failures),
        "failures": failures,
    }


def _subsum_suite(name, grids, bias_mode, multiplier, identity, trials: int, seed: int) -> dict:
    """A subsum identity suite: trial t samples a generic layer of grid
    t mod len(grids), (inputs, ranks), at seed seed * multiplier + t."""

    def gen(t):
        d, ranks = grids[t % len(grids)]
        layer = sample_generic(d, ranks, bias_mode, seed=seed * multiplier + t)
        chk = identity(layer, assume_simple=True)
        return chk.lhs == chk.rhs, {
            "trial": t,
            "lhs": chk.lhs,
            "rhs": chk.rhs,
            "layer": _layer_json(layer),
        }

    return _suite(name, trials, gen)


verify_subsum_noncentral = partial(
    _subsum_suite,
    "subsum_noncentral",
    [(1, (2, 2)), (2, (2, 2, 2)), (2, (3, 2, 2)), (2, (3, 3, 3)), (1, (3, 2))],
    WITH_BIAS, 10007, subsum_identity_noncentral,
)
verify_subsum_central = partial(
    _subsum_suite,
    "subsum_central",
    [(2, (2, 2)), (2, (3, 2)), (2, (3, 3)), (3, (2, 2, 2)), (3, (3, 2, 2))],
    NO_BIAS, 10009, subsum_identity_central,
)


def verify_weibel(trials: int, seed: int) -> dict:
    grids = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5)]

    def gen(t):
        n, m = grids[t % len(grids)]
        sets = sample_weibel_family(n, m, 4, seed=seed * 10037 + t)  # 2 to 4 points a set
        chk = weibel_upper_identity(sets)
        return chk.lhs == chk.rhs, {
            "trial": t,
            "lhs": chk.lhs,
            "rhs": chk.rhs,
            "sets": [serialize_point_set(s) for s in sets],
        }

    return _suite("weibel_upper", trials, gen)


def verify_gap(trials: int, seed: int) -> dict:
    grids = [(2, (2, 2)), (2, (3, 2)), (2, (2, 2, 2)), (3, (2, 2, 2)), (2, (3, 3))]

    def gen(t):
        d, ranks = grids[t % len(grids)]
        rng = random.Random(seed * 10039 + t)
        layer = sample_generic(d, ranks, NO_BIAS, seed=seed * 10039 + t)
        normal = [0] * d
        while all(v == 0 for v in normal):
            normal = [rng.randint(-5, 5) for _ in range(d)]
        res = bounded_region_gap(layer, normal)
        return res.gap >= res.floor, {
            "trial": t,
            "gap": res.gap,
            "floor": res.floor,
            "normal": normal,
            "layer": _layer_json(layer),
        }

    return _suite("bounded_gap", trials, gen)


def verify_lemmas(trials: int, seed: int) -> dict:
    rng = random.Random(seed)

    def gen(t):
        if t % 2 == 0:
            m = rng.randint(1, 12)
            n = rng.randint(0, m - 1)
            r = rng.randint(0, n)
            val = identity_inclusion_exclusion(m, n, r)
            return val == 1, {"trial": t, "lemma": "inclusion_exclusion", "m": m, "n": n, "r": r, "value": val}
        m = rng.randint(2, 10)
        n = rng.randint(1, m - 1)
        ranks = [rng.randint(2, 6) for _ in range(m)]
        chk = identity_reformulation(m, n, ranks)
        return chk.lhs == chk.rhs, {
            "trial": t, "lemma": "reformulation", "m": m, "n": n, "ranks": ranks,
            "lhs": chk.lhs, "rhs": chk.rhs,
        }

    return _suite("lemmas", trials, gen)


ALL_SUITES = {
    "subsum-noncentral": verify_subsum_noncentral,
    "subsum-central": verify_subsum_central,
    "weibel": verify_weibel,
    "gap": verify_gap,
    "lemmas": verify_lemmas,
}


def run_suites(trials: int, seed: int, names=None) -> list[dict]:
    chosen = names or list(ALL_SUITES)
    return [ALL_SUITES[name](trials, seed) for name in chosen]
