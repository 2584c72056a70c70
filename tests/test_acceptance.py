"""Acceptance suite: every criterion is one test that prints a PASS line.

All equalities are exact integer equalities.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines; heavy grids are
computed once in module-scoped fixtures and shared across criteria.
"""

import random
import time

import pytest

from tropic.arrangement import (
    bounded_region_gap,
    build_atoms,
    build_poset,
    count_regions_bruteforce,
    enumerate_cells,
    is_simple,
    subsum_identity_central,
    subsum_identity_noncentral,
)
from tropic.bounds import (
    binom,
    deep_lower,
    deep_upper_uniform,
    identity_inclusion_exclusion,
    identity_reformulation,
    shallow_formula,
)
from tropic.geometry import ConstraintSystem, euler_characteristic, feasible
from tropic.minkowski import dual_region_count, lift_layer
from tropic.network import (
    NO_BIAS,
    WITH_BIAS,
    construct_deep_lower,
    construct_shallow_optimal,
    construct_shallow_optimal_nobias,
    count_regions_line,
    layer,
    sample_generic,
    unit,
)
from tropic.verify import sample_weibel_family

from oracles import (
    euler_characteristic_by_decomposition,
    face_counts_reference,
    mobius_reference,
    partial_sum_trivial_bound,
    poset_from_cells,
    sub_layer,
)


def report(criterion: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {criterion:2d} {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def worked_example_layer():
    return layer(
        [
            unit([[0, 2], [1, 1], [0, 0]], [0, 1, 2]),  # max{2y, x+y+1, 2}
            unit([[0, 0], [3, 2], [5, 1]], [0, 0, 0]),  # max{0, 3x+2y, 5x+y}
        ]
    )


def mixed_tuple(m: int) -> tuple[int, ...]:
    return tuple(2 + (i % 3) for i in range(m))


def grid3_cells():
    cells = []
    for n in (1, 2, 3):
        for m in (1, 2, 3, 4):
            ranks_list = [(k,) * m for k in (2, 3, 4)]
            if m >= 2:
                ranks_list.append(mixed_tuple(m))
            for ranks in ranks_list:
                cells.append((WITH_BIAS, n, ranks))
                if n >= 2:
                    cells.append((NO_BIAS, n, ranks))
    return cells


@pytest.fixture(scope="module")
def grid3():
    """Optimal constructions over the sharpness grid with exact counts."""
    out = {}
    for mode, n, ranks in grid3_cells():
        seed = 11 * n + len(ranks)
        if mode == WITH_BIAS:
            l = construct_shallow_optimal(n, ranks, seed=seed)
        else:
            l = construct_shallow_optimal_nobias(n, ranks, seed=seed)
        rc = count_regions_bruteforce(l)
        out[(mode, n, ranks)] = {
            "layer": l,
            "regions": rc.regions,
            "bounded": rc.bounded_regions,
            "formula": shallow_formula(n, ranks, with_bias=(mode == WITH_BIAS)),
        }
    return out


GRID4_CELLS = [(n, (k,) * m) for n in (1, 2) for m in (2, 3) for k in (2, 3)]
GRID4_TRIALS = 100


@pytest.fixture(scope="module")
def grid4():
    """Seeded certified-simple generic layers, 100 per cell, with counts."""
    out = []
    for ci, (n, ranks) in enumerate(GRID4_CELLS):
        for t in range(GRID4_TRIALS):
            l = sample_generic(n, ranks, WITH_BIAS, seed=ci * 1000 + t)
            rc = count_regions_bruteforce(l)
            out.append(
                {
                    "n": n,
                    "ranks": ranks,
                    "layer": l,
                    "regions": rc.regions,
                    "bounded": rc.bounded_regions,
                    "formula": shallow_formula(n, ranks),
                }
            )
    return out


def test_criterion_1_worked_example():
    t0 = time.time()
    l = worked_example_layer()
    arr = build_atoms(l)
    poset = build_poset(arr)
    regions_poset = poset.face_counts[2]
    faces1_poset = poset.face_counts[1]
    cells = enumerate_cells(l)
    regions_bf = sum(1 for c in cells if c.dim == 2)
    faces1_bf = sum(1 for c in cells if c.dim == 1)
    elapsed = time.time() - t0
    ok = (
        regions_poset == regions_bf == 8
        and faces1_poset == faces1_bf == 12
        and poset_from_cells(arr, cells) == {e.atom_support: (e.dim, e.psi) for e in poset.elements}
        and elapsed < 5.0
    )
    report(1, ok, f"worked example: regions 8/8, 1-faces 12/12 in {elapsed:.2f}s")


def test_criterion_2_central_examples():
    t0 = time.time()
    # ranks (3, 2) in Q^2: handcrafted simple central instance
    l32 = layer([unit([[0, 0], [1, 0], [0, 1]]), unit([[0, 0], [1, 2]])])
    assert is_simple(build_atoms(l32)).simple
    bf32 = count_regions_bruteforce(l32).regions
    id32 = subsum_identity_central(l32, assume_simple=True)
    # ranks (3, 3, 2) in Q^3: seeded simple instance with product-attaining
    # pairwise subsums (the worked values 9, 6, 6)
    l332 = sample_generic(3, (3, 3, 2), NO_BIAS, seed=4, magnitude=6)
    pair_counts = {
        S: count_regions_bruteforce(sub_layer(l332, S)).regions
        for S in [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]
    }
    assert pair_counts[(1,)] == 3 and pair_counts[(2,)] == 3 and pair_counts[(3,)] == 2
    assert pair_counts[(1, 2)] == 9 and pair_counts[(1, 3)] == 6 and pair_counts[(2, 3)] == 6
    bf332 = count_regions_bruteforce(l332).regions
    id332 = subsum_identity_central(l332, assume_simple=True)
    elapsed = time.time() - t0
    ok = (
        bf32 == id32.lhs == id32.rhs == 5
        and bf332 == id332.lhs == id332.rhs == 15
        and elapsed < 30.0
    )
    report(2, ok, f"central examples: 5 and 15 by formula and brute force in {elapsed:.2f}s")


def test_criterion_3_sharpness_grid(grid3):
    t0 = time.time()
    bad = [
        key
        for key, rec in grid3.items()
        if rec["regions"] != rec["formula"]
    ]
    elapsed = time.time() - t0
    ok = not bad and elapsed < 600
    report(
        3,
        ok,
        f"sharpness: {len(grid3)} constructions match the formula exactly "
        f"({elapsed:.1f}s + fixture){'; mismatches: ' + str(bad) if bad else ''}",
    )


def test_criterion_4_genericity_upper_bound(grid4):
    bad = [rec for rec in grid4 if rec["regions"] > rec["formula"]]
    ok = not bad
    report(4, ok, f"genericity: {len(grid4)} sampled layers all satisfy count <= formula")


def test_criterion_5_duality(grid3, grid4):
    t0 = time.time()
    checked = 0
    bad = []
    for key, rec in grid3.items():
        dual = dual_region_count(rec["layer"])
        checked += 1
        if dual != rec["regions"]:
            bad.append((key, rec["regions"], dual))
    for rec in grid4:
        dual = dual_region_count(rec["layer"])
        checked += 1
        if dual != rec["regions"]:
            bad.append((("sampled", rec["n"], rec["ranks"]), rec["regions"], dual))
    elapsed = time.time() - t0
    ok = not bad
    report(5, ok, f"duality: {checked} instances, regions = dual vertex count ({elapsed:.1f}s)"
                  f"{'; bad: ' + str(bad[:3]) if bad else ''}")


# Criterion 6's subsum identity grids: trial t samples cell t mod 5, with
# the seed base plus t.
NONCENTRAL_CELLS = [(1, (2, 2)), (1, (3, 2)), (2, (2, 2, 2)), (2, (3, 3, 3)), (2, (3, 2, 2, 2))]
NONCENTRAL_SEED = 31000
CENTRAL_CELLS = [(2, (2, 2)), (2, (3, 2)), (2, (3, 3)), (3, (2, 2, 2)), (3, (3, 2, 2))]
CENTRAL_SEED = 32000


def test_criterion_6_identity_suites():
    t0 = time.time()
    # Lemma grid m <= 12
    for m in range(1, 13):
        for n in range(m):
            for r in range(n + 1):
                assert identity_inclusion_exclusion(m, n, r) == 1
    # reformulation on 500 random tuples
    rng = random.Random(20240)
    for _ in range(500):
        m = rng.randint(2, 10)
        n = rng.randint(1, m - 1)
        ranks = [rng.randint(2, 6) for _ in range(m)]
        chk = identity_reformulation(m, n, ranks)
        assert chk.lhs == chk.rhs
    # subsum identities on 50 seeded simple instances each
    for t in range(50):
        n, ranks = NONCENTRAL_CELLS[t % len(NONCENTRAL_CELLS)]
        l = sample_generic(n, ranks, WITH_BIAS, seed=NONCENTRAL_SEED + t)
        chk = subsum_identity_noncentral(l, assume_simple=True)
        assert chk.lhs == chk.rhs, (n, ranks, t)
    for t in range(50):
        d, ranks = CENTRAL_CELLS[t % len(CENTRAL_CELLS)]
        l = sample_generic(d, ranks, NO_BIAS, seed=CENTRAL_SEED + t)
        chk = subsum_identity_central(l, assume_simple=True)
        assert chk.lhs == chk.rhs, (d, ranks, t)
    # upper-face identity on 100 certified families
    weibel_cells = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5)]
    from tropic.minkowski import weibel_upper_identity

    for t in range(100):
        n, m = weibel_cells[t % len(weibel_cells)]
        sets = sample_weibel_family(n, m, 4, seed=33000 + t)
        chk = weibel_upper_identity(sets)
        assert chk.lhs == chk.rhs, (n, m, t)
    elapsed = time.time() - t0
    ok = elapsed < 900
    report(6, ok, f"identity suites: lemma grid, 500 reformulations, 50+50 subsums, "
                  f"100 upper-face families in {elapsed:.1f}s")


def test_criterion_7_bounded_region_floor(grid4, central_instances):
    bad = [
        rec for rec in grid4
        if rec["bounded"] < binom(len(rec["ranks"]) - 1, rec["n"])
    ]
    central_bad = [rec for rec in central_instances if rec["bounded"] != 0]
    ok = not bad and not central_bad
    report(7, ok, f"bounded regions: {len(grid4)} with-bias instances respect the "
                  f"binomial floor; {len(central_instances)} central instances all unbounded")


@pytest.fixture(scope="module")
def central_instances():
    cells = [(2, (2, 2)), (2, (3, 2)), (2, (2, 2, 2)), (3, (2, 2, 2)), (2, (3, 3))]
    out = []
    for t in range(50):
        d, ranks = cells[t % len(cells)]
        l = sample_generic(d, ranks, NO_BIAS, seed=41000 + t)
        rc = count_regions_bruteforce(l)
        out.append({"d": d, "ranks": ranks, "layer": l, "regions": rc.regions,
                    "bounded": rc.bounded_regions})
    return out


def test_criterion_8_gap_theorem(central_instances):
    t0 = time.time()
    bad = []
    for t, rec in enumerate(central_instances):
        rng = random.Random(42000 + t)
        d = rec["d"]
        normal = [0] * d
        while all(v == 0 for v in normal):
            normal = [rng.randint(-5, 5) for _ in range(d)]
        res = bounded_region_gap(rec["layer"], normal)
        if res.gap < res.floor:
            bad.append((t, res))
    elapsed = time.time() - t0
    ok = not bad
    report(8, ok, f"gap theorem: 50 central instances, gap >= binomial floor ({elapsed:.1f}s)")


def test_criterion_9_maximizer_condition(grid3):
    t0 = time.time()
    bad = []
    for key, rec in grid3.items():
        mode, n, ranks = key
        sets = lift_layer(rec["layer"])
        bound_dim = n if mode == WITH_BIAS else n - 1
        if bound_dim < 1:
            continue
        table = partial_sum_trivial_bound(sets, bound_dim)
        for S, v in table.items():
            if v.actual != v.trivial:
                bad.append((key, sorted(S), v))
    elapsed = time.time() - t0
    ok = not bad
    report(9, ok, f"maximizer condition: every optimal construction attains the "
                  f"trivial partial-sum vertex bound ({elapsed:.1f}s)"
                  f"{'; bad: ' + str(bad[:2]) if bad else ''}")


def test_criterion_10_euler_mobius_internals(grid4):
    t0 = time.time()
    # (a) closed-form Euler characteristic vs the decomposition oracle
    rng = random.Random(777)
    checked = 0
    while checked < 200:
        d = rng.choice([1, 2, 3])
        n_eq = rng.randint(0, 1)
        n_in = rng.randint(0, 5)
        eqs = [(tuple(rng.randint(-3, 3) for _ in range(d)), rng.randint(-2, 2))
               for _ in range(n_eq)]
        ineqs = [(tuple(rng.randint(-3, 3) for _ in range(d)), rng.randint(-3, 3))
                 for _ in range(n_in)]
        s = ConstraintSystem.build(d, eqs, ineqs)
        if feasible(s) is None:
            continue
        assert euler_characteristic(s) == euler_characteristic_by_decomposition(s)
        checked += 1
    # (b) cell alternating sum = psi(R^n) on with-bias arrangements
    euler_layers = [worked_example_layer()]
    euler_layers += [rec["layer"] for rec in grid4[:10]]
    euler_layers += [
        construct_shallow_optimal(2, (2, 2, 2), seed=1),
        construct_shallow_optimal(2, (3, 3), seed=2),
        construct_shallow_optimal(3, (2, 2, 2, 2), seed=3),
    ]
    for l in euler_layers:
        total = sum((-1) ** c.dim for c in enumerate_cells(l))
        assert total == (-1) ** l.input_dim
    # (c) Mobius recursion on every poset constructed here
    poset_layers = euler_layers[:6] + [
        layer([unit([[0, 0], [1, 0], [0, 1]]), unit([[0, 0], [1, 2]])])
    ]
    for l in poset_layers:
        p = build_poset(build_atoms(l))
        mu = mobius_reference(p)
        n = len(p.elements)
        for x in range(n):
            for z in range(n):
                if p.leq[x][z]:
                    total = sum(mu[x][y] for y in range(n)
                                if p.leq[x][y] and p.leq[y][z])
                    assert total == (1 if x == z else 0)
        assert p.mobius_from_bottom == mu[0]
        assert p.face_counts == face_counts_reference(p, mu)
    elapsed = time.time() - t0
    report(10, True, f"Euler/Mobius internals: 200 psi oracles, cell Euler relation, "
                     f"Mobius recursion ({elapsed:.1f}s)")


def test_criterion_11_deep_bounds():
    t0 = time.time()
    assert deep_upper_uniform(2, [2, 2], 3) == 81
    low = deep_lower(2, [2, 2], 3)
    assert (low.value, low.n) == (25, 1)
    net = construct_deep_lower(1, [2, 1], 2, seed=0)
    brute = count_regions_line(net)
    lower = deep_lower(1, [2, 1], 2).value
    upper = deep_upper_uniform(1, [2, 1], 2)
    assert lower <= brute <= upper
    assert brute >= 6
    # formula-level monotonicity
    assert deep_upper_uniform(2, [2, 2], 4) >= deep_upper_uniform(2, [2, 2], 3)
    assert deep_upper_uniform(2, [4, 2], 3) >= deep_upper_uniform(2, [2, 2], 3)
    assert deep_lower(2, [4, 2], 3).value >= deep_lower(2, [2, 2], 3).value
    elapsed = time.time() - t0
    report(11, True, f"deep bounds: 81/25 reproduced, construction brute-forces to "
                     f"{brute} in [{lower}, {upper}] ({elapsed:.1f}s)")
