import random
import re
from collections import Counter
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropic import arrangement
from tropic.arrangement import (
    Cell,
    RegionCount,
    _regions,
    _subsum_sides,
    bounded_region_gap,
    build_atoms,
    build_poset,
    count_regions_bruteforce,
    count_regions_poset,
    enumerate_cells,
    is_simple,
    subsum_identity_central,
    subsum_identity_noncentral,
)
from tropic.bounds import binom, shallow_formula
from tropic.geometry import ConstraintSystem
from tropic.linalg import dot, nullspace_basis
from tropic.linalg import rank as linalg_rank
from tropic.linprog import BudgetExceededError, lp_budget, lp_call_count, lp_pivot_count
from tropic.minkowski import dual_region_count
from tropic.network import (
    NO_BIAS,
    WITH_BIAS,
    LayerSpec,
    MaxoutUnitSpec,
    activation_pattern,
    construct_shallow_optimal,
    construct_shallow_optimal_nobias,
    layer,
    restrict_layer,
    sample_generic,
    unit,
)

import oracles
from test_acceptance import CENTRAL_CELLS, CENTRAL_SEED, NONCENTRAL_CELLS, NONCENTRAL_SEED, grid3_cells
from oracles import (
    build_poset_reference,
    count_regions_reference,
    enumerate_cells_unpruned,
    face_counts_reference,
    is_simple_reference,
    mobius_reference,
    poset_from_cells,
    region_bounded_reference,
    region_walk_reference,
    subsum_sides_reference,
)

RELU = unit([[1], [0]], [0, 0])

EX_UNIT1 = unit([[0, 2], [1, 1], [0, 0]], [0, 1, 2])
EX_UNIT2 = unit([[0, 0], [3, 2], [5, 1]], [0, 0, 0])
R1 = unit([[1, 0]], [2])  # rank 1: one choice, no argmax rows


def example_layer():
    return layer([EX_UNIT1, EX_UNIT2])


def three_generic_lines():
    # {x = 0}, {y = 0}, {x + y = 1}: rank-2 units, no two parallel, no
    # common point.
    return layer(
        [
            unit([[1, 0], [0, 0]], [0, 0]),
            unit([[0, 1], [0, 0]], [0, 0]),
            unit([[1, 1], [0, 0]], [-1, 0]),
        ]
    )


def shared_tie_line():
    # Units 1 and 2 tie on the same line x = 0, unit 3 on y = 0.
    return layer([unit([[1, 0], [0, 0]], [0, 0]), unit([[1, 0], [0, 0]], [0, 0]),
                  unit([[0, 1], [0, 0]], [0, 0])])


def central_3_2():
    # max{0, x, y} and max{0, x + 2y} in Q^2
    return layer([unit([[0, 0], [1, 0], [0, 1]]), unit([[0, 0], [1, 2]])])


def small_integer_layer(rng, bias, max_rank=3, max_product=None):
    # n in 1..3, 1 to 4 units of rank 1 to max_rank, each capped so that
    # the product of the ranks stays at most max_product, entries in
    # {-2, ..., 2}; with probability 0.3 a unit repeats one of its features.
    n = rng.randint(1, 3)
    units = []
    product = 1
    for _ in range(rng.randint(1, 4)):
        cap = max_rank if max_product is None else min(max_rank, max_product // product)
        rank = rng.randint(1, cap)
        product *= rank
        w = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rank)]
        b = [rng.randint(-2, 2) for _ in range(rank)]
        if rank > 1 and rng.random() < 0.3:
            j, k = rng.sample(range(rank), 2)
            w[k], b[k] = w[j], b[j]
        units.append(unit(w, b if bias else None))
    return layer(units, n)


# Fixed layers for the differential tests against the unpruned cell oracle.
# Every feature of the no-bias layer ties at the origin, the root's point.
ORACLE_LAYERS = [
    lambda: construct_shallow_optimal(2, (3, 3, 2), seed=3),
    lambda: construct_shallow_optimal_nobias(2, (3, 3), seed=2),
    lambda: layer([R1, EX_UNIT1, EX_UNIT2]),
    lambda: layer([EX_UNIT1, R1, EX_UNIT2]),
    lambda: layer([EX_UNIT1, EX_UNIT2, R1]),
    lambda: layer([R1, unit([[0, 1]], [-1])]),
    lambda: layer([unit([[1, 0], [0, 0], [1, 0]], [0, 0, 0]), EX_UNIT2]),
    # The first candidate sample_generic(2, (3, 3, 2), WITH_BIAS, seed=5,
    # magnitude=1) draws: not simple, and unit 1 repeats a feature.
    lambda: layer([
        unit([[1, 0], [1, 0], [1, 1]], [1, 1, -1]),
        unit([[0, -1], [1, -1], [-1, -1]], [0, 0, -1]),
        unit([[0, 1], [-1, 1]], [-1, -1]),
    ]),
]
ORACLE_LAYER_IDS = ["bias", "no-bias", "rank-1-unit", "rank-1-middle", "rank-1-last", "two-rank-1",
                    "duplicate-features", "non-simple-draw"]
# The margin LPs and pivots of the LP region walk (region_walk_reference)
# on each of them, as the pattern count solved them before the fan walk.
CARRIED_WALK_COSTS = {
    "bias": (17, 87), "no-bias": (9, 47), "rank-1-unit": (9, 32), "rank-1-middle": (9, 32),
    "rank-1-last": (9, 32), "two-rank-1": (0, 0), "duplicate-features": (6, 17),
    "non-simple-draw": (13, 32),
}


def _cell_system(l, signature):
    # A cell's system as enumerate_cells builds it: its units' choice
    # systems intersected in unit order.
    n = l.input_dim
    sys = ConstraintSystem(n)
    for u, names in zip(l.units, signature):
        sys = sys.intersection(arrangement._choice_system(n, u, sorted(a - 1 for a in names)))
    return sys


def refuse_leaf_lps(monkeypatch):
    # A region walk builds no atom, certifies nothing and solves no LP:
    # any call fails the test.
    def refuse(*args):
        raise AssertionError("a region walk solved an LP or built atoms")

    for name in ("build_atoms", "is_simple", "affine_dimension", "strictly_feasible"):
        monkeypatch.setattr(arrangement, name, refuse)


class TestBuildAtoms:
    def test_relu_single_atom(self):
        arr = build_atoms(layer([RELU]))
        assert len(arr.atoms) == 1
        assert arr.atoms[0].unit == 1 and arr.atoms[0].pair == (1, 2)

    def test_example_has_six_atoms(self):
        arr = build_atoms(example_layer())
        assert len(arr.atoms) == 6
        assert Counter(a.unit for a in arr.atoms) == {1: 3, 2: 3}

    def test_dominated_parallel_feature_no_atom(self):
        arr = build_atoms(layer([unit([[1], [1]], [0, 1])]))  # max{x, x+1}
        assert arr.atoms == ()

    def test_rank_one_units_skipped(self):
        arr = build_atoms(layer([unit([[1, 0]], [2]), EX_UNIT1]))
        assert {a.unit for a in arr.atoms} == {2}

    def test_centrality_flag(self):
        assert build_atoms(central_3_2()).central
        assert not build_atoms(example_layer()).central


class TestEnumerateCells:
    def test_relu_cells(self):
        cells = enumerate_cells(layer([RELU]))
        by_dim = Counter(c.dim for c in cells)
        assert by_dim == {1: 2, 0: 1}

    def test_example_cells(self):
        cells = enumerate_cells(example_layer())
        by_dim = Counter(c.dim for c in cells)
        assert by_dim == {2: 8, 1: 12, 0: 5}

    def test_witness_realizes_signature(self):
        l = example_layer()
        for c in enumerate_cells(l):
            assert activation_pattern(l, c.witness) == c.signature

    def test_construction_has_one_bounded_region(self):
        l = construct_shallow_optimal(2, (2, 2, 2), seed=5)
        cells = enumerate_cells(l)
        full = [c for c in cells if c.dim == 2]
        assert len(full) == 7
        assert sum(1 for c in full if c.bounded) == 1  # Buck: C(m-1, n)

    def test_unitless_layer_is_the_whole_space_with_no_lp(self):
        for n in (0, 2):
            l = LayerSpec(n, (), WITH_BIAS)
            start = lp_call_count()
            assert enumerate_cells(l) == [Cell((), n, n == 0, (Fraction(0),) * n)]
            assert count_regions_bruteforce(l) == RegionCount(1, int(n == 0))
            assert lp_call_count() - start == 0

    def test_signature_budget(self):
        # The fan finds every cell with no LP, and each cell's margin LP
        # is its one LP unless rank decides it: a cell whose ties fix a
        # point.  The example's units have 7 cells each, 49 signatures, of
        # which the fan finds 25, 5 points among them: it needs 20.  The
        # need is checked before any LP, so one less solves none, and the
        # need completes.
        self._check_need(example_layer(), 20, {2: 8, 1: 12, 0: 5})

    def test_signature_cap_bounds_the_widest_level(self):
        # The (2; 3, 3, 3) construction tries 343 signatures and finds 61
        # cells, 12 of them points, so the widest layer needs 49 LPs in
        # all; with 48 it is refused before it solves any.
        l = construct_shallow_optimal(2, (3, 3, 3), seed=1)
        cells = self._check_need(l, 49, {2: 19, 1: 30, 0: 12})
        assert len(cells) == 61

    @staticmethod
    def _check_need(l, need, dims):
        start = lp_call_count()
        with pytest.raises(BudgetExceededError, match="TROPIC_BUDGET_LP"), lp_budget(need - 1):
            enumerate_cells(l)
        assert lp_call_count() - start == 0
        with lp_budget(need):
            cells = enumerate_cells(l)
        assert lp_call_count() - start == need
        assert Counter(c.dim for c in cells) == dims
        return cells

    def test_lp_budget(self):
        with pytest.raises(BudgetExceededError, match="TROPIC_BUDGET_LP"), lp_budget(3):
            enumerate_cells(example_layer())

    @pytest.mark.parametrize("make", ORACLE_LAYERS, ids=ORACLE_LAYER_IDS)
    def test_matches_unpruned_oracle(self, make):
        l = make()
        cells = enumerate_cells(l)
        assert cells == enumerate_cells_unpruned(l)
        full = [c for c in cells if c.dim == l.input_dim]
        rc = count_regions_bruteforce(l)
        assert (rc.regions, rc.bounded_regions) == (len(full), sum(c.bounded for c in full))


class TestRankOneUnits:
    # A rank-1 unit's one choice adds no rows, and it is the unit's argmax
    # everywhere.  The LP region walk (region_walk_reference) carries its
    # child with its parent's system and point and solves no LP for it, so
    # two rank-1 units solve none.  enumerate_cells reads the cells off the
    # fan, where a rank-1 unit's one choice prunes nothing, and solves each
    # cell's margin LP unless rank decides it, wherever the rank-1 unit
    # stands.  A walk's headroom counts only the LPs it will solve, so a
    # budget equal to the walk's need completes, and one below it, -1 for
    # two rank-1 units, raises.  The fan walk (count_regions_bruteforce)
    # gives the LP walk's counts with no LP under a zero budget.
    @pytest.mark.parametrize(
        "units, pattern_lps, cell_lps",
        [
            ([R1, EX_UNIT1, EX_UNIT2], 9, 20),
            ([EX_UNIT1, R1, EX_UNIT2], 9, 20),
            ([EX_UNIT1, EX_UNIT2, R1], 9, 20),
            ([R1, unit([[0, 1]], [-1])], 0, 0),
        ],
        ids=["first", "middle", "last", "two"],
    )
    def test_budget_equal_to_the_need_completes(self, units, pattern_lps, cell_lps):
        l = layer(units)
        walks = [
            (lambda: region_walk_reference(l), pattern_lps),
            (lambda: enumerate_cells(l), cell_lps),
        ]
        for walk, need in walks:
            with pytest.raises(BudgetExceededError, match="TROPIC_BUDGET_LP"), lp_budget(need - 1):
                walk()
            start = lp_call_count()
            with lp_budget(need):
                walk()
            assert lp_call_count() - start == need
        expected = count_regions_reference(l)
        start = lp_call_count()
        with lp_budget(0):
            assert count_regions_bruteforce(l) == expected
        assert lp_call_count() - start == 0


class TestCarriedChildren:
    def test_carried_walk_matches_the_unpruned_oracle(self, monkeypatch):
        # The LP region walk, the reference for the fan walk, hands the
        # child that takes a unit's single argmax at its parent's point
        # that point, with no LP.  On every layer: the counts are the
        # unpruned oracle's full-dimensional cells, in number and in
        # bounded number, with the LPs and pivots pinned per layer; the
        # walk's signatures are those cells' signatures on the layer with
        # duplicate features collapsed; and every leaf's point realizes its
        # signature, strictly.  The floors show that parents' points with
        # ties, where no child is carried, and rank-1 units, whose child
        # always is, are exercised: they are the counts of the two walks
        # per layer, 7, 48 and 14 in each.
        real = MaxoutUnitSpec.argmax
        seen = Counter()

        def argmax(u, x):
            held = real(u, x)
            seen["tie at a parent's point"] += len(held) > 1
            seen["carried"] += len(held) == 1
            seen["rank-1 unit"] += u.rank == 1
            return held

        monkeypatch.setattr(MaxoutUnitSpec, "argmax", argmax)
        points, costs = [], {}
        for make, name in zip(ORACLE_LAYERS, ORACLE_LAYER_IDS):
            l = make()
            n = l.input_dim
            full = [c for c in enumerate_cells_unpruned(l) if c.dim == n]
            start, pivot_start = lp_call_count(), lp_pivot_count()
            leaves = region_walk_reference(l)
            costs[name] = (lp_call_count() - start, lp_pivot_count() - pivot_start)
            rc = count_regions_reference(l)
            assert rc == RegionCount(len(full), sum(c.bounded for c in full)), name
            deduped = arrangement._dedupe_units(l)
            sigs = [tuple(frozenset({a + 1}) for a in sig) for sig, _, _ in leaves]
            assert sigs == [c.signature for c in enumerate_cells_unpruned(deduped) if c.dim == n], name
            for (_, sys, w), names in zip(leaves, sigs):
                assert sys.satisfies(w) and all(dot(c, w) > r for c, r in sys.inequalities), name
                points.append((deduped, w, names))
        assert costs == CARRIED_WALK_COSTS, costs
        assert seen["tie at a parent's point"] >= 14 and seen["carried"] >= 96, seen
        assert seen["rank-1 unit"] >= 28, seen
        monkeypatch.undo()
        assert all(activation_pattern(l, w) == names for l, w, names in points)

    @pytest.mark.parametrize("make", ORACLE_LAYERS, ids=ORACLE_LAYER_IDS)
    def test_every_leaf_point_is_strict(self, make):
        # Every cell's witness and every leaf point of the LP region walk
        # is strict on every inequality of its system, so a cell's dimension
        # reads a positive margin and solves no implicit-equality LP.  The
        # cells are the unpruned oracle's, and the boundedness the fan walks
        # read off the homogenized fan's rays, cell by cell and region by
        # region, is the reference profile's on the node's system.
        l = make()
        cells = enumerate_cells(l)
        assert cells == enumerate_cells_unpruned(l)
        nodes = [(_cell_system(l, c.signature), c.witness) for c in cells]
        region_leaves = region_walk_reference(l)
        for sys, w in nodes + [(sys, w) for _, sys, w in region_leaves]:
            assert sys.satisfies(w) and all(dot(c, w) > r for c, r in sys.inequalities)
        assert [c.bounded for c in cells] == [region_bounded_reference(sys) for sys, _ in nodes]
        bounded = [region_bounded_reference(sys) for _, sys, _ in region_leaves]
        assert _regions(l) == [(sig, b) for (sig, _, _), b in zip(region_leaves, bounded)]
        assert count_regions_bruteforce(l) == RegionCount(len(bounded), sum(bounded))


@st.composite
def fan_layers(draw):
    # Entries in [-2, 2], n = 0..3, 1 to 4 units of rank 1 to 3, with at
    # most 49 signatures, so the unpruned cell oracle stays cheap.  A flat
    # layer has every gradient 0 on the last coordinate, so its tie normals
    # do not span Q^n; a unit may repeat a gradient, under another bias or
    # as the same feature, which the region walk collapses.
    n = draw(st.integers(0, 3))
    flat = n > 0 and draw(st.integers(0, 3)) == 0
    bias = draw(st.booleans())
    entry = st.integers(-2, 2)
    units, cells = [], 1
    for _ in range(draw(st.integers(1, 4))):
        rank = draw(st.integers(1, max(k for k in (1, 2, 3) if cells * (2**k - 1) <= 49)))
        cells *= 2**rank - 1
        w = [[draw(entry) for _ in range(n)] for _ in range(rank)]
        b = [draw(entry) for _ in range(rank)]
        if flat:
            for row in w:
                row[-1] = 0
        if rank > 1 and draw(st.booleans()):
            j, k = draw(st.permutations(range(rank)))[:2]
            w[k] = list(w[j])
            if draw(st.booleans()):
                b[k] = b[j]
        units.append(unit(w, b if bias else None))
    return layer(units, n)


@settings(max_examples=120, deadline=None)
@given(fan_layers())
@example(layer([unit([[1, 0], [0, 0]], [0, 0]), unit([[2, 0], [0, 0]], [1, 0])]))  # lineality
@example(layer([unit([[1, 1], [1, 1], [0, 0]], [0, 2, 0]), unit([[0, 1], [-1, -1]], [1, 0])]))  # duplicate
@example(layer([unit([[1, 0]], [0]), unit([[0, 1], [1, 1], [0, 0]], [0, 0, 1])]))  # rank 1
@example(layer([unit([[0, 2], [0, 2], [1, 1], [0, 0]], [0, 0, 1, 2]), EX_UNIT2]))  # repeated feature
@example(layer([unit([[], []], [0, 1]), unit([[]], [0])], 0))  # Q^0
@example(construct_shallow_optimal_nobias(2, (3, 3), seed=2))
def test_fan_rays_decide_boundedness(l):
    # Every region's and every cell's bounded, read off the homogenized
    # fan's rays with no LP, is the reference recession profile's on the
    # node's system: the fan walk's regions come in the LP region walk's
    # order, and the cells are the unpruned oracle's, which reads each
    # cell's boundedness by the same reference.
    leaves = region_walk_reference(l)
    bounded = [region_bounded_reference(sys) for _, sys, _ in leaves]
    assert _regions(l) == [(sig, b) for (sig, _, _), b in zip(leaves, bounded)]
    assert count_regions_bruteforce(l) == RegionCount(len(bounded), sum(bounded))
    assert enumerate_cells(l) == enumerate_cells_unpruned(l)


class TestCountRegionsBruteforce:
    def test_example(self):
        rc = count_regions_bruteforce(example_layer())
        assert rc.regions == 8
        # two bounded regions: the quadrilateral (0,0),(1/3,2/3),(0,1),(-2/3,1)
        # and the triangle (0,1),(1,2),(1/3,2/3)
        assert rc.bounded_regions == 2

    def test_optimal_construction(self):
        rc = count_regions_bruteforce(construct_shallow_optimal(2, (3, 3), seed=1))
        assert rc.regions == 9

    def test_central_example(self):
        rc = count_regions_bruteforce(central_3_2())
        assert rc.regions == 5 and rc.bounded_regions == 0

    def test_duplicate_features_collapse(self):
        doubled = layer([unit([[1], [0], [1]], [0, 0, 0])])  # max{x, 0, x}
        assert count_regions_bruteforce(doubled).regions == 2


def fan_walk_layer(rng, bias):
    # n in 1..3, 1 to 4 units of rank 1 to 3, at most 49 signatures in all
    # (so the unpruned oracle stays cheap), entries in [-2, 2].  A quarter
    # of the layers are flat (every gradient 0 on the last coordinate, so
    # the gradient differences do not span Q^n), and one in ten give each
    # unit one gradient (no difference at all: the layer restricts to Q^0).
    # A unit may repeat a feature, or a gradient under another bias.
    n = rng.randint(1, 3)
    shape = rng.random()
    units, cells = [], 1
    for _ in range(rng.randint(1, 4)):
        rank = rng.randint(1, max(k for k in (1, 2, 3) if cells * (2**k - 1) <= 49))
        cells *= 2**rank - 1
        w = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rank)]
        b = [rng.randint(-2, 2) for _ in range(rank)]
        if shape < 0.25:
            for row in w:
                row[-1] = 0
        elif shape < 0.35:
            w = [w[0]] * rank
        if rank > 1 and rng.random() < 0.3:
            j, k = rng.sample(range(rank), 2)
            w[k] = w[j]
            if rng.random() < 0.5:
                b[k] = b[j]
        units.append(unit(w, b if bias else None))
    return layer(units, n)


def _fan_walk_matches_the_lp_walk(l):
    # The fan walk's signatures are the LP region walk's leaves, in order,
    # each bounded as the reference recession profile of the leaf's system
    # says (count_regions_reference's rule), and its counts follow;
    # returns its (signature, bounded) pairs.
    regions = _regions(l)
    assert regions == [(sig, region_bounded_reference(sys)) for sig, sys, _ in region_walk_reference(l)]
    assert count_regions_bruteforce(l) == RegionCount(len(regions), sum(b for _, b in regions))
    return regions


def _fan_walk_matches_the_unpruned_cells(l, regions, unpruned=None):
    # The fan walk's (signature, bounded) pairs are the unpruned oracle's
    # full-dimensional cells, whose boundedness comes from recession LPs,
    # on the layer with duplicate features collapsed; unpruned, when
    # given, is that oracle's list for a layer with no duplicate feature.
    n = l.input_dim
    if unpruned is None:
        unpruned = enumerate_cells_unpruned(arrangement._dedupe_units(l))
    full = [c for c in unpruned if c.dim == n]
    assert [(tuple(frozenset({a + 1}) for a in sig), b) for sig, b in regions] == [
        (c.signature, c.bounded) for c in full
    ]


class TestFanWalk:
    # Each check compares the fan walk, which reads the regions off the
    # homogenized fan with no LP, with the LP region walk it replaced
    # (region_walk_reference) and with the unpruned cell oracle.

    @pytest.mark.parametrize("make", ORACLE_LAYERS, ids=ORACLE_LAYER_IDS)
    def test_matches_the_lp_walk_on_oracle_layers(self, make):
        l = make()
        _fan_walk_matches_the_unpruned_cells(l, _fan_walk_matches_the_lp_walk(l))

    def test_matches_the_lp_walk_on_random_layers(self):
        # 1,000 fixed-seed layers in Q^1 to Q^3, half with bias.  On each,
        # enumerate_cells is the unpruned oracle's too: signature, dim,
        # bounded and witness.  The floors show that layers whose gradient differences do not span, layers
        # that restrict to Q^0, repeated features and rank-1 units are all
        # exercised, with and without bias, and so are bounded regions.
        rng = random.Random(36)
        seen = Counter()
        for i in range(1000):
            bias = i % 2 == 0
            l = fan_walk_layer(rng, bias)
            regions = _fan_walk_matches_the_lp_walk(l)
            cells = enumerate_cells_unpruned(l)
            assert enumerate_cells(l) == cells
            _fan_walk_matches_the_unpruned_cells(l, regions, cells if arrangement._dedupe_units(l) == l else None)
            diffs = [[x - y for x, y in zip(w, u.weights[0])] for u in l.units for w in u.weights[1:]]
            span = len(diffs) and linalg_rank(diffs)
            mode = "bias" if bias else "no bias"
            seen["non-spanning, " + mode] += span < l.input_dim
            seen["restricts to Q^0, " + mode] += span == 0
            seen["repeated feature, " + mode] += any(len(set(u.features())) < u.rank for u in l.units)
            seen["rank-1 unit, " + mode] += any(u.rank == 1 for u in l.units)
            seen["bounded region"] += any(b for _, b in regions)
        assert seen.pop("bounded region") >= 40, seen
        assert len(seen) == 8 and min(seen.values()) >= 150, seen

    def test_matches_the_lp_walk_on_sharp_constructions(self):
        # Every construction of the sharpness grid (criterion 3) equals the
        # LP walk, and the unpruned oracle where it tries at most 225
        # signatures.
        compared = 0
        for mode, n, ranks in grid3_cells():
            make = construct_shallow_optimal if mode == WITH_BIAS else construct_shallow_optimal_nobias
            l = make(n, ranks, seed=11 * n + len(ranks))
            regions = _fan_walk_matches_the_lp_walk(l)
            if prod(2**k - 1 for k in ranks) <= 225:
                _fan_walk_matches_the_unpruned_cells(l, regions)
                compared += 1
        assert compared >= 40

    def test_identity_sides_match_the_lp_walk_on_criterion_6_grids(self):
        # _subsum_sides against every sub-layer walked again by the LP
        # walk, and bounded_region_gap against the LP walk of the layer and
        # of its slice, on the layers criterion 6 samples.
        rng = random.Random(36)
        for t in range(50):
            n, ranks = NONCENTRAL_CELLS[t % len(NONCENTRAL_CELLS)]
            l = sample_generic(n, ranks, WITH_BIAS, seed=NONCENTRAL_SEED + t)
            assert _subsum_sides(l, n, True) == subsum_sides_reference(l, n, True)
        for t in range(50):
            d, ranks = CENTRAL_CELLS[t % len(CENTRAL_CELLS)]
            l = sample_generic(d, ranks, NO_BIAS, seed=CENTRAL_SEED + t)
            assert _subsum_sides(l, d - 1, True) == subsum_sides_reference(l, d - 1, True)
            w = [0] * d
            while not any(w):
                w = [rng.randint(-5, 5) for _ in range(d)]
            res = bounded_region_gap(l, w)
            w = tuple(Fraction(v) for v in w)
            sliced = restrict_layer(l, tuple(v / dot(w, w) for v in w), nullspace_basis([w], d))
            assert (res.r_total, res.r_slice) == (
                len(region_walk_reference(l)), len(region_walk_reference(sliced))
            )


class TestPoset:
    def test_example_mobius_values(self):
        arr = build_atoms(example_layer())
        p = build_poset(arr)
        mu = Counter(p.mobius_from_bottom)
        # ambient 1; six atoms -1; two per-unit triple points 2; three crossings 1
        assert mu == {1: 4, -1: 6, 2: 2}
        psi = Counter(e.psi for e in p.elements)
        assert psi == {1: 6, 0: 6}

    def test_three_lines_poset(self):
        arr = build_atoms(three_generic_lines())
        p = build_poset(arr)
        points = [e for e in p.elements if e.dim == 0]
        assert len(arr.atoms) == 3 and len(points) == 3
        assert all(p.mobius_from_bottom[e.id] == 1 for e in points)

    def test_central_origin_mobius(self):
        arr = build_atoms(central_3_2())
        p = build_poset(arr)
        origin = [e for e in p.elements if e.dim == 0]
        assert len(origin) == 1
        assert p.mobius_from_bottom[origin[0].id] == 3
        assert origin[0].support is None  # undefined for the central origin

    def test_support_units(self):
        arr = build_atoms(example_layer())
        p = build_poset(arr)
        crossings = [e for e in p.elements if e.dim == 0 and len(e.support) == 2]
        assert len(crossings) == 3

    def test_shared_tie_line_lp_cost(self):
        # Units 1 and 2 tie on the same line x = 0.  Every atom's margin-LP
        # point is the origin, so contains' witness test passes on each,
        # and build_poset's 5 contains calls solve 7 LPs: twice to find that
        # the line atoms 0 and 1 contain each other (2 LPs each), so that
        # the extension by atom 1 is dropped at atom 0, and three times to
        # find that x = 0 and y = 0 do not (1 LP each).  With the 3 atom
        # LPs that is 10: the ambient space has no rows and the crossing
        # point's equalities have rank 2, so neither margin needs an LP.
        l = shared_tie_line()
        start = lp_call_count()
        arr = build_atoms(l)
        p = build_poset(arr)
        assert lp_call_count() - start == 10
        assert len(p.elements) == 4
        assert p.face_counts[2] == count_regions_bruteforce(l).regions == 4

    def test_central_point_lp_cost(self):
        # Every pair of atoms of distinct units meets in a line through the
        # origin and every triple at the origin alone.  The breadth-first
        # walk reaches the origin from each of its parents and solves 3,054
        # LPs; closure extension reaches it once, and its equalities have
        # rank 3, so its margin, the atoms through it and its Euler
        # characteristic need no LP.  The lines' Euler characteristics are
        # read off their directions, and the ambient space's margin is
        # decided as a system with no rows, also with no LP.  Every element
        # is a cone, so one with an inequality and a positive margin is
        # unbounded, and its Euler characteristic needs no LP.
        arr = build_atoms(construct_shallow_optimal_nobias(3, (3, 3, 3), seed=1))
        start = lp_call_count()
        p = build_poset(arr)
        assert lp_call_count() - start == 138
        assert len(p.elements) == 29

    def test_matches_breadth_first_reference(self):
        rng = random.Random(11)
        new_total = ref_total = 0
        for i in range(100):
            l = small_integer_layer(rng, bias=i % 2 == 0)
            arr, ref_arr = build_atoms(l), build_atoms(l)
            start = lp_call_count()
            p = build_poset(arr)
            new_lps = lp_call_count() - start
            q = build_poset_reference(ref_arr)
            ref_lps = lp_call_count() - start - new_lps
            assert p.elements == q.elements  # keys, dim, psi and support
            assert p.leq == q.leq
            assert p.mobius_from_bottom == q.mobius_from_bottom
            assert p.face_counts == q.face_counts
            mu = mobius_reference(p)
            assert p.mobius_from_bottom == mu[0]
            assert p.face_counts == face_counts_reference(p, mu)
            assert new_lps <= ref_lps
            new_total, ref_total = new_total + new_lps, ref_total + ref_lps
        assert new_total < ref_total

    def test_mobius_recursion(self):
        for l in (example_layer(), three_generic_lines(), central_3_2()):
            p = build_poset(build_atoms(l))
            mu = mobius_reference(p)
            n = len(p.elements)
            for x in range(n):
                for z in range(n):
                    if not p.leq[x][z]:
                        continue
                    total = sum(
                        mu[x][y]
                        for y in range(n)
                        if p.leq[x][y] and p.leq[y][z]
                    )
                    assert total == (1 if x == z else 0)
            assert p.mobius_from_bottom == mu[0]
            assert p.face_counts == face_counts_reference(p, mu)


class TestPosetCounting:
    def test_example_regions(self):
        assert count_regions_poset(build_atoms(example_layer())) == 8

    def test_central_regions(self):
        assert count_regions_poset(build_atoms(central_3_2())) == 5

    def test_empty_arrangement(self):
        arr = build_atoms(layer([unit([[1, 0]], [0])]))  # rank-1: no atoms
        assert count_regions_poset(arr) == 1

    def test_example_faces(self):
        arr = build_atoms(example_layer())
        p = build_poset(arr)
        assert p.face_counts[1] == 12
        assert p.face_counts[0] == 5

    def test_three_lines_vertices(self):
        assert build_poset(build_atoms(three_generic_lines())).face_counts[0] == 3

    def test_lp_budget_reaches_the_poset_build(self):
        # The example's poset solves no LP: the ambient space has no rows,
        # and its other elements are atoms, lines solved by build_atoms
        # whose Euler characteristics need no LP, or points decided by rank.
        # The shared tie line's poset solves 7 LPs, all in contains (see
        # TestPoset), so a budget of 6 stops it and one of 7 completes.
        arr = build_atoms(example_layer())
        with lp_budget(0):
            assert count_regions_poset(arr) == 8
        arr = build_atoms(shared_tie_line())
        with pytest.raises(BudgetExceededError), lp_budget(6):
            count_regions_poset(arr)
        with lp_budget(7):
            assert count_regions_poset(arr) == 4


class TestIsSimple:
    def test_construction_certified(self):
        for seed in range(3):
            arr = build_atoms(construct_shallow_optimal(2, (3, 3), seed=seed))
            assert is_simple(arr).simple

    def test_shared_hyperplane_not_simple(self):
        # both units tie on {x = 0}
        l = layer([unit([[1, 0], [0, 0]], [0, 0]), unit([[2, 0], [0, 0]], [0, 0])])
        cert = is_simple(build_atoms(l))
        assert not cert.simple and cert.violation is not None

    def test_generic_hyperplanes_simple(self):
        assert is_simple(build_atoms(three_generic_lines())).simple

    def test_concurrent_lines_not_simple(self):
        # three lines through the origin in Q^2 (with-bias layer, zero biases)
        l = layer(
            [
                unit([[1, 0], [0, 0]], [0, 0]),
                unit([[0, 1], [0, 0]], [0, 0]),
                unit([[1, 1], [0, 0]], [0, 0]),
            ]
        )
        assert not is_simple(build_atoms(l)).simple

    def test_matches_every_tuple_reference(self, monkeypatch):
        # The search that stops at empty non-central tuples gives the flag
        # and the first violation of the check of every tuple, with no
        # more LPs.  A pruned tuple is one the reference visits, with an
        # affine_dimension call, and the search does not; it may cost no
        # LP on either side, as its equalities are often decided by rank.
        visits = Counter()

        def counting(owner):
            real = owner.affine_dimension

            def affine_dimension(sys):
                visits[owner.__name__] += 1
                return real(sys)

            monkeypatch.setattr(owner, "affine_dimension", affine_dimension)

        counting(arrangement)
        counting(oracles)
        rng = random.Random(1975)
        seen = Counter()
        for i in range(200):
            arr = build_atoms(small_integer_layer(rng, i % 2 == 0, max_rank=4, max_product=48))
            visits.clear()
            start = lp_call_count()
            cert = is_simple(arr)
            mid = lp_call_count()
            assert cert == is_simple_reference(arr)
            assert lp_call_count() - mid >= mid - start
            pruned = visits[oracles.__name__] - visits[arrangement.__name__]
            assert pruned >= 0 and not (arr.central and pruned)
            seen["pruned"] += pruned > 0
            seen[f"not simple, central {arr.central}"] += not cert.simple
        assert min(seen.values()) >= 5, seen


class TestSubsumIdentities:
    def test_three_lines(self):
        chk = subsum_identity_noncentral(three_generic_lines())
        assert chk.lhs == chk.rhs == 7

    def test_optimal_construction(self):
        chk = subsum_identity_noncentral(construct_shallow_optimal(2, (3, 3, 2), seed=1))
        assert chk.lhs == chk.rhs == 14

    def test_too_few_units(self):
        with pytest.raises(ValueError, match="m >= n\\+1"):
            subsum_identity_noncentral(layer([EX_UNIT1, EX_UNIT2]))

    def test_central_3_2(self):
        chk = subsum_identity_central(central_3_2())
        assert chk.lhs == chk.rhs == 5

    def test_central_too_few_units(self):
        l = sample_generic(3, (2, 2), NO_BIAS, seed=0)
        with pytest.raises(ValueError, match="m >= n\\+1"):
            subsum_identity_central(l)

    def test_non_simple_rejected(self):
        l = layer(
            [
                unit([[1, 0], [0, 0]], [0, 0]),
                unit([[0, 1], [0, 0]], [0, 0]),
                unit([[1, 1], [0, 0]], [0, 0]),
            ]
        )  # three concurrent lines: m = 3 >= n+1 but not simple
        with pytest.raises(ValueError, match="simple"):
            subsum_identity_noncentral(l)

    def test_unit_without_atoms_rejected(self):
        # The third unit's features share one weight vector, so one of them
        # dominates everywhere and the unit has no atom.
        l = layer(list(three_generic_lines().units[:2]) + [unit([[1, 1], [1, 1]], [0, 1])])
        with pytest.raises(ValueError, match=r"units \[3\] contribute no atoms"):
            subsum_identity_noncentral(l)

    def test_matches_sub_walk_reference(self):
        # Reading every sub-arrangement off the one walk gives what walking
        # each sub-layer again gives, on layers that need not be simple and
        # may repeat features; a layer one side refuses, both refuse alike.
        # Layers with m < n+1 or a unit of one distinct feature are skipped
        # before any LP.
        rng = random.Random(16)
        seen = Counter()
        while seen["compared"] < 100:
            bias = seen["drawn"] % 2 == 0
            seen["drawn"] += 1
            l = small_integer_layer(rng, bias)
            n = l.input_dim if bias else l.input_dim - 1
            if l.width < n + 1 or any(len(set(u.features())) < 2 for u in l.units):
                continue
            sides = []
            for f in (_subsum_sides, subsum_sides_reference):
                try:
                    sides.append(f(l, n, True))
                except ValueError as exc:
                    sides.append(str(exc))
            assert sides[0] == sides[1]
            if isinstance(sides[0], str):
                continue
            seen["compared"] += 1
            seen["with bias"] += bias
            seen["not simple"] += not is_simple(build_atoms(l)).simple
            seen["repeats"] += any(len(set(u.features())) < u.rank for u in l.units)
        assert seen["with bias"] >= 25 and seen["not simple"] >= 10 and seen["repeats"] >= 25

    def test_assumed_simple_identity_solves_only_the_walk(self, monkeypatch):
        # The fan walk, which solves no LP, and no atom, simplicity or
        # recession LP.
        l = construct_shallow_optimal(2, (3, 3, 2), seed=1)
        refuse_leaf_lps(monkeypatch)
        start = lp_call_count()
        chk = subsum_identity_noncentral(l, assume_simple=True)
        assert (chk.lhs, chk.rhs) == (14, 14)
        assert lp_call_count() - start == 0

    def test_atom_units_are_the_units_with_two_strict_argmaxes(self):
        # The units build_atoms finds an atom for are exactly the units
        # whose column of the region walk's signatures takes two or more
        # values, and exactly the units _subsum_sides does not refuse, by
        # their gradients, as contributing no atom.  n = 0 makes m >= n+1
        # hold on every layer, so every layer reaches the check.  The draws
        # include rank-1 units, units whose features are all duplicates,
        # and units with two features of equal gradient.
        rng = random.Random(1975)
        seen = Counter()
        for k in range(200):
            l = small_integer_layer(rng, k % 2 == 0)
            atom_units = {a.unit for a in build_atoms(l).atoms}
            sigs = [sig for sig, _ in _regions(l)]
            assert atom_units == {i + 1 for i in range(l.width) if len({s[i] for s in sigs}) > 1}
            missing = [i + 1 for i in range(l.width) if i + 1 not in atom_units]
            if missing:
                with pytest.raises(ValueError, match=re.escape(f"units {missing} contribute no atoms")):
                    _subsum_sides(l, 0, True)
            else:
                _subsum_sides(l, 0, True)
            for i, u in enumerate(l.units):
                distinct = set(u.features())
                seen["rank 1"] += u.rank == 1
                seen["all duplicates"] += u.rank > 1 and len(distinct) == 1
                seen["equal gradients"] += len({w for w, _ in distinct}) < len(distinct)
                seen["atom, repeats"] += i + 1 in atom_units and len(distinct) < u.rank
        assert min(seen.values()) >= 10, seen


class TestBoundedRegionGap:
    def test_lifted_pair_of_breakpoint_units(self):
        inner = construct_shallow_optimal(1, (2, 2), seed=3)
        lifted = layer(
            [unit([w + (b,) for w, b in zip(u.weights, u.biases)]) for u in inner.units]
        )
        res = bounded_region_gap(lifted, (0, 1))
        assert (res.r_total, res.r_slice, res.gap, res.floor) == (4, 3, 1, 1)
        assert res.gap >= res.floor

    def test_hyperplane_case(self):
        l = sample_generic(2, (2, 2, 2), NO_BIAS, seed=5)
        res = bounded_region_gap(l, (1, 1))
        assert res.floor == binom(2, 1) == 2
        assert res.gap >= 2

    def test_too_few_units(self):
        l = sample_generic(3, (2, 2), NO_BIAS, seed=1)
        with pytest.raises(ValueError, match="m >= n\\+1"):
            bounded_region_gap(l, (1, 0, 0))

    def test_solves_only_the_two_walks(self, monkeypatch):
        # The fan walks of the layer and of its slice, and no LP at all.
        l = sample_generic(2, (2, 2, 2), NO_BIAS, seed=5)
        w = (Fraction(1), Fraction(1))
        sliced = restrict_layer(l, (Fraction(1, 2),) * 2, nullspace_basis([w], 2))
        refuse_leaf_lps(monkeypatch)
        start = lp_call_count()
        res = bounded_region_gap(l, (1, 1))
        assert (len(_regions(l)), len(_regions(sliced))) == (res.r_total, res.r_slice) == (6, 4)
        assert lp_call_count() - start == 0


class TestInvariants:
    def test_degenerate_layers_differential(self):
        # Integer layers drawn with no genericity check, some of them not
        # simple, with duplicated features and both bias modes: the three
        # region counters agree, the poset face counts are the cell
        # dimension histogram, the poset's (key, dim, psi) are those read
        # off the cells, and the cells satisfy the Euler relation.
        rng = random.Random(2104)
        for i in range(100):
            l = small_integer_layer(rng, bias=i % 2 == 0, max_rank=4, max_product=48)
            n = l.input_dim
            arr = build_atoms(l)
            p = build_poset(arr)
            rc = count_regions_bruteforce(l)
            assert p.face_counts[n] == rc.regions == dual_region_count(l)
            cells = enumerate_cells(l)
            hist = [0] * (n + 1)
            for c in cells:
                hist[c.dim] += 1
            assert p.face_counts == tuple(hist)
            assert poset_from_cells(arr, cells) == {e.atom_support: (e.dim, e.psi) for e in p.elements}
            assert sum((-1) ** c.dim for c in cells) == (-1) ** n
            assert sum(c.bounded for c in cells if c.dim == n) == rc.bounded_regions
            if is_simple(arr).simple:
                ranks = [u.rank for u in l.units]
                assert rc.regions <= shallow_formula(n, ranks, l.bias_mode == WITH_BIAS)

    def test_poset_vs_bruteforce_grid(self):
        for seed, (n, ranks) in enumerate(
            [(1, (2, 2)), (2, (2, 2)), (2, (3, 2)), (2, (2, 2, 2)), (2, (3, 3))]
        ):
            l = sample_generic(n, ranks, WITH_BIAS, seed=100 + seed)
            assert count_regions_poset(build_atoms(l)) == count_regions_bruteforce(l).regions

    def test_euler_relation(self):
        for l in (
            example_layer(),
            construct_shallow_optimal(2, (2, 2, 2), seed=1),
            sample_generic(2, (3, 2), WITH_BIAS, seed=9),
        ):
            n = l.input_dim
            total = sum((-1) ** c.dim for c in enumerate_cells(l))
            assert total == (-1) ** n

    def test_sampled_layers_respect_upper_bound(self):
        for seed in range(6):
            l = sample_generic(2, (3, 3), WITH_BIAS, seed=seed)
            assert count_regions_bruteforce(l).regions <= shallow_formula(2, (3, 3))

    def test_bounded_region_floor(self):
        for seed in range(4):
            l = sample_generic(2, (2, 2, 2), WITH_BIAS, seed=seed)
            rc = count_regions_bruteforce(l)
            assert rc.bounded_regions >= binom(2, 2)

    def test_central_regions_all_unbounded(self):
        for seed in range(4):
            l = sample_generic(2, (3, 2), NO_BIAS, seed=seed)
            assert count_regions_bruteforce(l).bounded_regions == 0

    def test_restriction_consistency(self):
        # Restricting the optimal construction to a certified-generic affine
        # subspace recounts to the lower-dimensional formula.
        ranks = (3, 2, 2)
        l = construct_shallow_optimal(3, ranks, seed=4)
        rng = random.Random(0)
        for _ in range(10):
            offset = tuple(Fraction(rng.randint(-4, 4)) for _ in range(3))
            basis = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(3)) for _ in range(2)]
            from tropic.linalg import rank as mat_rank

            if mat_rank(basis) < 2:
                continue
            restricted = restrict_layer(l, offset, basis)
            arr = build_atoms(restricted)
            if len({a.unit for a in arr.atoms}) < len(ranks) or not is_simple(arr).simple:
                continue
            assert count_regions_bruteforce(restricted).regions == shallow_formula(2, ranks)
            return
        pytest.fail("no certified generic subspace found")


CENTRAL_PAIR = layer([unit([[1, 0], [0, 1]]), unit([[1, 1], [0, 0]])])


@pytest.mark.parametrize("build,message", [
    (lambda: subsum_identity_noncentral(CENTRAL_PAIR),
     "non-central identity needs a with-bias layer"),
    (lambda: subsum_identity_central(layer([EX_UNIT1])), "central identity needs a no-bias layer"),
    (lambda: bounded_region_gap(layer([EX_UNIT1]), (1, 0)),
     "gap theorem needs a central (no-bias) layer"),
    (lambda: bounded_region_gap(CENTRAL_PAIR, (0, 0)), "hyperplane normal must be nonzero"),
    (lambda: bounded_region_gap(CENTRAL_PAIR, (1, 0, 0)),
     "hyperplane normal dimension mismatch"),
], ids=["noncentral-mode", "central-mode", "gap-mode", "gap-zero-normal", "gap-normal-length"])
def test_library_refusals(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is ValueError and str(info.value) == message
