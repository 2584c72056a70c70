import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropic.arrangement import build_atoms, is_simple
from tropic.bounds import deep_lower
from tropic.network import (
    NO_BIAS,
    WITH_BIAS,
    LayerSpec,
    MaxoutUnitSpec,
    NetworkParseError,
    NetworkSpec,
    _generic_by_lp,
    _primes_above,
    _shift_denominators,
    activation_pattern,
    construct_deep_lower,
    construct_shallow_optimal,
    construct_shallow_optimal_nobias,
    count_regions_line,
    evaluate,
    evaluate_layer,
    evaluate_unit,
    flats_transverse,
    homogenize,
    layer,
    parse_network,
    projectivize,
    restrict_layer,
    restrict_network_to_line,
    sample_generic,
    serialize_network,
    single_layer_network,
    unit,
)

from oracles import count_regions_line_reference, det_reference, flats_transverse_reference

RELU = unit([[1], [0]], [0, 0])  # max{x, 0}

EX_UNIT1 = unit([[0, 2], [1, 1], [0, 0]], [0, 1, 2])  # max{2y, x+y+1, 2}
EX_UNIT2 = unit([[0, 0], [3, 2], [5, 1]], [0, 0, 0])  # max{0, 3x+2y, 5x+y}


def example_layer():
    return layer([EX_UNIT1, EX_UNIT2])


class TestParse:
    def test_relu_round_trip(self):
        text = json.dumps(
            {
                "input_dim": 1,
                "layers": [
                    {"bias_mode": "bias", "units": [{"weights": [[1], [0]], "biases": [0, 0]}]}
                ],
            }
        )
        net = parse_network(text)
        assert net.layers[0].units[0] == RELU
        assert parse_network(serialize_network(net)) == net

    def test_example_layer_shape(self):
        net = parse_network(serialize_network(single_layer_network(example_layer())))
        l = net.layers[0]
        assert l.width == 2 and l.ranks == (3, 3) and l.input_dim == 2

    def test_weight_length_mismatch(self):
        text = json.dumps(
            {
                "input_dim": 2,
                "layers": [
                    {"bias_mode": "bias", "units": [{"weights": [[1, 2, 3]], "biases": [0]}]}
                ],
            }
        )
        with pytest.raises(NetworkParseError, match=r"\$\.layers\[0\]\.units\[0\]\.weights\[0\]"):
            parse_network(text)

    def test_floats_rejected(self):
        text = '{"input_dim": 1, "layers": [{"bias_mode": "bias", "units": [{"weights": [[0.5]], "biases": [0]}]}]}'
        with pytest.raises(NetworkParseError, match="float"):
            parse_network(text)

    def test_rational_strings(self):
        text = json.dumps(
            {
                "input_dim": 1,
                "layers": [
                    {"bias_mode": "bias", "units": [{"weights": [["1/3"]], "biases": ["-2/7"]}]}
                ],
            }
        )
        u = parse_network(text).layers[0].units[0]
        assert u.weights[0][0] == Fraction(1, 3) and u.biases[0] == Fraction(-2, 7)

    def test_zero_rank_rejected(self):
        text = json.dumps(
            {"input_dim": 1, "layers": [{"bias_mode": "bias", "units": [{"weights": []}]}]}
        )
        with pytest.raises(NetworkParseError, match="rank"):
            parse_network(text)

    def test_bias_mode_consistency(self):
        text = json.dumps(
            {
                "input_dim": 1,
                "layers": [{"bias_mode": "no_bias", "units": [{"weights": [[1]], "biases": [0]}]}],
            }
        )
        with pytest.raises(NetworkParseError, match="biases"):
            parse_network(text)

    def test_round_trip_random(self):
        rng = random.Random(2)
        for _ in range(10):
            n = rng.randint(1, 3)
            units = [
                unit(
                    [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                     for _ in range(rng.randint(1, 3))],
                    None,
                )
                for _ in range(rng.randint(1, 3))
            ]
            net = single_layer_network(layer(units, input_dim=n))
            assert parse_network(serialize_network(net)) == net


class TestEvaluate:
    def test_relu_negative(self):
        assert evaluate(single_layer_network(layer([RELU])), (Fraction(-2),)) == (0,)

    def test_example_unit_at_origin(self):
        assert evaluate_unit(EX_UNIT1, (Fraction(0), Fraction(0))) == 2

    def test_rank_one_unit_is_affine(self):
        u = unit([[2, -1]], [5])
        for x in [(0, 0), (3, 7), (-1, 4)]:
            xe = tuple(Fraction(v) for v in x)
            assert evaluate_unit(u, xe) == 2 * xe[0] - xe[1] + 5

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(single_layer_network(example_layer()), (Fraction(1),))
        for x in [(Fraction(1),), (Fraction(1),) * 3]:
            with pytest.raises(ValueError, match="input dimension mismatch"):
                evaluate_layer(example_layer(), x)

    def test_homogenized_layer_restricts_to_the_layer_at_last_coordinate_one(self):
        h = homogenize(example_layer())
        assert (h.input_dim, h.bias_mode, h.ranks) == (3, NO_BIAS, (3, 3))
        for x in [(0, 0), (3, -7), (Fraction(-1, 2), 4)]:
            xe = tuple(Fraction(v) for v in x)
            assert evaluate_layer(h, xe + (Fraction(1),)) == evaluate_layer(example_layer(), xe)


class TestActivationPattern:
    def test_relu_tie(self):
        assert activation_pattern(layer([RELU]), (Fraction(0),)) == (frozenset({1, 2}),)

    def test_example_constant_wins(self):
        pat = activation_pattern(example_layer(), (Fraction(0), Fraction(0)))
        assert pat[0] == frozenset({3})

    def test_example_triple_point(self):
        # 2y = x+y+1 = 2 has the unique solution (0, 1).
        pat = activation_pattern(example_layer(), (Fraction(0), Fraction(1)))
        assert pat[0] == frozenset({1, 2, 3})

    def test_refuses_an_input_of_the_wrong_length(self):
        for x in [(Fraction(1),), (Fraction(1),) * 3]:
            with pytest.raises(ValueError, match="input dimension mismatch"):
                activation_pattern(example_layer(), x)

    def test_consistency_with_evaluate(self):
        rng = random.Random(3)
        l = example_layer()
        for _ in range(20):
            x = (Fraction(rng.randint(-40, 40), 8), Fraction(rng.randint(-40, 40), 8))
            pat = activation_pattern(l, x)
            vals = evaluate(single_layer_network(l), x)
            for u, chosen, v in zip(l.units, pat, vals):
                for idx in chosen:
                    w, b = u.features()[idx - 1]
                    assert sum(a * c for a, c in zip(w, x)) + b == v


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_unit_convexity(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    k = rng.randint(1, 4)
    u = unit(
        [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)],
        [rng.randint(-5, 5) for _ in range(k)],
    )
    x = tuple(Fraction(rng.randint(-20, 20), 4) for _ in range(n))
    y = tuple(Fraction(rng.randint(-20, 20), 4) for _ in range(n))
    lam = Fraction(rng.randint(0, 8), 8)
    mid = tuple(lam * a + (1 - lam) * b for a, b in zip(x, y))
    assert evaluate_unit(u, mid) <= lam * evaluate_unit(u, x) + (1 - lam) * evaluate_unit(u, y)


class TestConstructions:
    def test_one_input_breakpoints(self):
        l = construct_shallow_optimal(1, (3,), seed=0)
        net = single_layer_network(l)
        assert count_regions_line(net) == 3

    def test_rank_one_rejected(self):
        with pytest.raises(ValueError):
            construct_shallow_optimal(2, (2, 1), seed=0)

    def test_nobias_needs_two_inputs(self):
        with pytest.raises(ValueError):
            construct_shallow_optimal_nobias(1, (5,), seed=0)

    def test_determinism(self):
        assert construct_shallow_optimal(2, (3, 3), 7) == construct_shallow_optimal(2, (3, 3), 7)
        assert construct_deep_lower(1, (2, 1), 2, 3) == construct_deep_lower(1, (2, 1), 2, 3)

    def test_shift_denominators_bound_every_moment_minor(self):
        # The Vandermonde product is |det| of each moment minor, so the
        # primes are those above the largest determinant, as computed by
        # elimination, over the ts draws of construct_shallow_optimal.
        rng = random.Random(2104)
        for _ in range(300):
            n, m = rng.randint(1, 5), rng.randint(1, 6)
            ts = sorted(rng.sample(range(1, 4 * m + 1), m))
            size = min(n, m)
            minors = [
                abs(det_reference([[t**j for j in range(size)] for t in sub]))
                for sub in combinations(ts, size)
            ]
            assert _shift_denominators(n, ts) == _primes_above(max(minors + [2]), m)

    def test_deep_divisibility_error(self):
        with pytest.raises(ValueError, match="no admissible replication dimension"):
            construct_deep_lower(2, [3, 2], 2, seed=0)

    def test_deep_one_input_reaches_bound(self):
        net = construct_deep_lower(1, [2, 1], 2, seed=0)
        assert count_regions_line(net) >= 6

    def test_deep_two_input_line_sweep(self):
        net = construct_deep_lower(2, [2, 2], 3, seed=0)
        line = restrict_network_to_line(net, [0, 0], [1, 0])
        assert count_regions_line(line) >= 25

    def test_deep_three_layers(self):
        net = construct_deep_lower(1, [2, 2, 1], 2, seed=1)
        assert count_regions_line(net) >= 18

    def test_deep_builds_every_admitted_architecture(self):
        # Every (n0; w1, n_L) that deep_lower admits with n = 1 is built, and
        # the first input axis crosses exactly deep_lower's count of regions.
        cases = 0
        for n0 in range(1, 5):
            for w1 in range(2, 13, 2):
                for n_last in range(1, 4):
                    for k in (2, 3):
                        low = deep_lower(n0, [w1, n_last], k)
                        if low.n != 1:
                            continue
                        net = construct_deep_lower(n0, [w1, n_last], k, seed=0)
                        e1 = [1] + [0] * (n0 - 1)
                        line = restrict_network_to_line(net, [0] * n0, e1)
                        assert count_regions_line(line) == low.value, (n0, w1, n_last, k)
                        cases += 1
        assert cases == 78


def test_constructions_are_pinned():
    # The sha256 of every construction over a fixed grid, one network a
    # line: shallow-max with and without bias, and deep-lower on every
    # architecture of the grid that deep_lower admits.
    digest = hashlib.sha256()

    def pin(net):
        digest.update(serialize_network(net).encode() + b"\n")

    shallow = [(2,), (5,), (2, 2), (3, 2), (3, 3, 3), (4, 2, 3), (2, 2, 2, 2)]
    for n in range(1, 5):
        for ranks in shallow:
            for seed in range(4):
                pin(single_layer_network(construct_shallow_optimal(n, ranks, seed)))
                if n >= 2:
                    pin(single_layer_network(construct_shallow_optimal_nobias(n, ranks, seed)))
    cases = 0
    for n0 in range(1, 4):
        for widths in [(2, 1), (2, 3), (4, 2), (6, 1), (3, 2), (2, 2, 1), (4, 4, 2), (6, 3, 3)]:
            for k in range(2, 5):
                try:
                    deep_lower(n0, widths, k)
                except ValueError:
                    continue
                for seed in range(3):
                    pin(construct_deep_lower(n0, widths, k, seed))
                cases += 1
    assert cases == 54
    assert digest.hexdigest() == "defe02056896af61987e391e22d40bcf288c61f2ae9c46850d2ee8059d2422a6"


class TestSampleGeneric:
    def test_determinism(self):
        a = sample_generic(2, (2, 2), WITH_BIAS, seed=11)
        b = sample_generic(2, (2, 2), WITH_BIAS, seed=11)
        assert a == b

    def test_two_lines_give_four_regions(self):
        from tropic.arrangement import count_regions_bruteforce

        l = sample_generic(2, (2, 2), WITH_BIAS, seed=11)
        assert count_regions_bruteforce(l).regions == 4

    def test_central_triangle_fan(self):
        from tropic.arrangement import count_regions_bruteforce

        # seeded until the rank-3 weight triangle is full-dimensional
        for seed in range(20):
            l = sample_generic(2, (3,), NO_BIAS, seed=seed)
            if count_regions_bruteforce(l).regions == 3:
                return
        pytest.fail("no full-dimensional central triangle among 20 seeds")

    @pytest.mark.parametrize("n,ranks,seed,units", [
        (2, (3, 3), 0, [([[0, 12], [1, -11], [-4, 4]], [3, 0, -3]), ([[3, -1], [6, -6], [4, -8]], [-3, -8, 12])]),
        (2, (3, 3), 1, [([[-8, 6], [12, -10], [-4, -9]], [3, 12, 2]), ([[3, 8], [0, -6], [-9, 3]], [-12, 0, 1])]),
        (2, (3, 3), 2, [([[-11, -10], [-10, -1], [-7, 11]], [9, -3, -4]), ([[7, -6], [7, -11], [6, 9]], [-7, 1, 8])]),
        (1, (3, 2), 0, [([[0], [12], [1]], [-11, -4, 4]), ([[3], [0]], [-3, 3])]),
    ])
    def test_with_bias_draws_are_pinned(self, n, ranks, seed, units):
        # The draw each seed accepts, as (weights, biases) per unit.
        expected = single_layer_network(layer([unit(w, b) for w, b in units]))
        drawn = single_layer_network(sample_generic(n, ranks, WITH_BIAS, seed))
        assert serialize_network(drawn) == serialize_network(expected)

    def test_projectivized_simple_implies_affine_simple(self):
        # sample_generic certifies a with-bias layer by its projectivization
        # alone, which must imply affine simplicity: every affine-non-simple
        # draw is projectivized-non-simple, with the affine is_simple as oracle.
        rng = random.Random(0)
        non_simple = 0
        for _ in range(1000):
            n = rng.randint(1, 3)
            mag = rng.randint(1, 3)
            units = []
            for _ in range(rng.randint(2, 4)):
                k = rng.randint(2, 3)
                units.append(unit(
                    [[rng.randint(-mag, mag) for _ in range(n)] for _ in range(k)],
                    [rng.randint(-mag, mag) for _ in range(k)],
                ))
            l = layer(units)
            if not is_simple(build_atoms(l)).simple:
                non_simple += 1
                assert not is_simple(build_atoms(projectivize(l))).simple
        assert non_simple >= 150

    @staticmethod
    def _draws(seed, count):
        # Layers of 2-3 units of ranks 1-3 in Q^1..Q^3, with entries up to a
        # magnitude of 1, 2, 3 or 12, with or without bias: small
        # magnitudes make repeated features and degenerate ties common.
        rng = random.Random(seed)
        for _ in range(count):
            n = rng.randint(1, 3)
            mag = rng.choice((1, 2, 3, 12))
            bias = rng.random() < 0.5
            units = []
            for _ in range(rng.randint(2, 3)):
                k = rng.randint(1, 3)
                units.append(unit(
                    [[rng.randint(-mag, mag) for _ in range(n)] for _ in range(k)],
                    [rng.randint(-mag, mag) for _ in range(k)] if bias else None,
                ))
            l = layer(units, n)
            yield l, projectivize(l) if bias else l

    def test_transverse_flats_never_accept_what_the_lp_path_rejects(self):
        # The LP path is the oracle; the floors show that both paths, and
        # the rank-1 and repeated-feature units, are exercised.
        certified = lp_only = rank_one = repeated = 0
        for l, _ in self._draws(2104, 1000):
            by_lp = _generic_by_lp(l)
            if flats_transverse(l):
                assert by_lp, serialize_network(single_layer_network(l))
                certified += 1
            else:
                lp_only += by_lp
            rank_one += sum(u.rank == 1 for u in l.units)
            repeated += sum(len(set(u.features())) < u.rank for u in l.units)
        assert certified >= 600 and lp_only >= 60, (certified, lp_only)
        assert rank_one >= 600 and repeated >= 100, (rank_one, repeated)

    def test_flat_certificate_matches_the_fraction_rank_walk(self):
        # flats_transverse_reference ranks each tuple's Fraction stack from
        # scratch; the certificate extends its prefix's integer reduction.
        # They agree on the small draws and on draws in Q^4 of units of rank
        # up to 4, whose flats stack up to four rows; the floors show both
        # outcomes on each.
        outcomes = [0, 0]
        for l, _ in self._draws(2104, 1000):
            got = flats_transverse(l)
            assert got == flats_transverse_reference(l), serialize_network(single_layer_network(l))
            outcomes[got] += 1
        assert outcomes[True] >= 600 and outcomes[False] >= 200, outcomes
        rng = random.Random(4)
        outcomes = [0, 0]
        for _ in range(200):
            mag = rng.choice((1, 2, 3, 12))
            bias = rng.random() < 0.5
            units = []
            for _ in range(rng.randint(2, 3)):
                k = rng.randint(1, 4)
                units.append(unit(
                    [[rng.randint(-mag, mag) for _ in range(4)] for _ in range(k)],
                    [rng.randint(-mag, mag) for _ in range(k)] if bias else None,
                ))
            l = layer(units, 4)
            got = flats_transverse(l)
            assert got == flats_transverse_reference(l), serialize_network(single_layer_network(l))
            outcomes[got] += 1
        assert outcomes[True] >= 120 and outcomes[False] >= 20, outcomes

    def test_transverse_flats_give_every_unit_an_affine_atom(self):
        certified = 0
        for l, _ in self._draws(8135, 300):
            if flats_transverse(l):
                certified += 1
                atom_units = {a.unit for a in build_atoms(l).atoms}
                need = {i + 1 for i, u in enumerate(l.units) if u.rank >= 2}
                assert need <= atom_units, serialize_network(single_layer_network(l))
        assert certified >= 150, certified

    def test_has_atom_matches_the_atoms_build_atoms_finds(self):
        # MaxoutUnitSpec.has_atom reads the gradients alone; build_atoms,
        # one LP-decided tie per feature pair, is the oracle, on each draw
        # and its central layer.  The floors show that rank-1 units,
        # repeated features and units of one gradient but several features
        # are exercised.
        rank_one = repeated = one_gradient = 0
        for l, central in self._draws(2021, 300):
            for x in (l, central):
                atom_units = {a.unit for a in build_atoms(x).atoms}
                assert [u.has_atom for u in x.units] == [i + 1 in atom_units for i in range(x.width)], (
                    serialize_network(single_layer_network(x))
                )
            rank_one += sum(u.rank == 1 for u in l.units)
            repeated += sum(len(set(u.features())) < u.rank for u in l.units)
            one_gradient += sum(u.rank >= 2 and len(set(u.weights)) == 1 for u in l.units)
        assert rank_one >= 200 and repeated >= 40 and one_gradient >= 20, (rank_one, repeated, one_gradient)

    def test_sampled_layers_are_pinned(self):
        # The sha256 of 400 sampled layers, one a line, as the LP path alone
        # draws them: the flats accept only draws the LP path accepts, so
        # they change no layer.
        digest = hashlib.sha256()
        shapes = [(2, (3, 3), WITH_BIAS), (2, (3, 3), NO_BIAS), (3, (2, 2, 2), WITH_BIAS), (2, (3, 1, 3), WITH_BIAS)]
        for n, ranks, mode in shapes:
            for seed in range(1, 101):
                l = sample_generic(n, ranks, mode, seed)
                digest.update(serialize_network(single_layer_network(l)).encode() + b"\n")
        assert digest.hexdigest() == "262474dac07696c93acd11ac5b7c2000380ade8a746bb6245e65efaad650f737"

    def test_retry_cap_error(self):
        # Magnitude 0 draws only zero features, so every draw is rejected.
        with pytest.raises(ValueError, match="no simple layer found in 60 samples; .*magnitude"):
            sample_generic(2, (2, 2), WITH_BIAS, seed=0, magnitude=0)


class TestCountRegionsLine:
    def test_relu(self):
        assert count_regions_line(single_layer_network(layer([RELU]))) == 2

    def test_constant_network(self):
        l = layer([unit([[0]], [1])])
        assert count_regions_line(single_layer_network(l)) == 1

    def test_matches_bruteforce_on_samples(self):
        from tropic.arrangement import count_regions_bruteforce

        for seed in range(5):
            l = sample_generic(1, (3, 2), WITH_BIAS, seed=seed)
            assert count_regions_line(single_layer_network(l)) == count_regions_bruteforce(l).regions

    def test_needs_one_input(self):
        with pytest.raises(ValueError):
            count_regions_line(single_layer_network(example_layer()))

    def test_matches_reference_on_random_networks(self):
        # Depth 1-3, width 1-3, ranks 1-3, entries in -2..2, each layer with
        # or without bias: small entries make rank-1 units, repeated
        # features, parallel features and ties shared by units common.
        rng = random.Random(0)
        rank_one = repeated = 0
        for _ in range(400):
            layers = []
            dim = 1
            for _ in range(rng.randint(1, 3)):
                bias = rng.random() < 0.5
                units = []
                for _ in range(rng.randint(1, 3)):
                    k = rng.randint(1, 3)
                    weights = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(k)]
                    biases = [rng.randint(-2, 2) for _ in range(k)] if bias else None
                    units.append(unit(weights, biases))
                    rank_one += k == 1
                    repeated += len(set(units[-1].features())) < k
                layers.append(layer(units, dim))
                dim = len(units)
            net = NetworkSpec(1, tuple(layers))
            assert count_regions_line(net) == count_regions_line_reference(net), serialize_network(net)
        assert rank_one >= 100 and repeated >= 20, (rank_one, repeated)

    @pytest.mark.parametrize("widths,rank", [([2, 2, 2], 3), ([4, 4, 4], 2)], ids=["2-2-2_k3", "4-4-4_k2"])
    def test_matches_reference_on_deep_constructions(self, widths, rank):
        net = construct_deep_lower(1, widths, rank, seed=0)
        assert count_regions_line(net) == count_regions_line_reference(net)


@pytest.mark.parametrize("build,message", [
    (lambda: LayerSpec(1, (unit([[1]], [0]),), "relu"), "unknown bias mode 'relu'"),
    (lambda: LayerSpec(1, (MaxoutUnitSpec((), None),), NO_BIAS), "unit rank must be >= 1"),
    (lambda: LayerSpec(1, (unit([[1, 0]]),), NO_BIAS), "weight length != layer input_dim"),
    (lambda: LayerSpec(1, (unit([[1]]),), WITH_BIAS),
     "unit bias presence inconsistent with layer bias mode"),
    (lambda: LayerSpec(1, (MaxoutUnitSpec(((1,), (0,)), (0,)),), WITH_BIAS),
     "biases length != rank"),
    (lambda: NetworkSpec(1, ()), "a network needs at least one layer"),
    (lambda: NetworkSpec(2, (layer([RELU]),)), "layer 0 input_dim 1 != 2"),
    (lambda: restrict_layer(layer([RELU]), (0, 0), [(1, 0)]), "restriction dimension mismatch"),
    (lambda: sample_generic(0, (2, 2), WITH_BIAS, seed=0), "n must be >= 1"),
    (lambda: construct_shallow_optimal(0, (2, 2), seed=0), "n must be >= 1"),
], ids=["bias-mode", "rank-0", "weight-length", "bias-presence", "bias-length",
        "no-layers", "layer-input-dim", "restrict", "sample-n", "construct-n"])
def test_library_refusals(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is ValueError and str(info.value) == message
