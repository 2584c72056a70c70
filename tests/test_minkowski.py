import random
from fractions import Fraction

import pytest

from tropic.arrangement import count_regions_bruteforce
from tropic.bounds import binom
from tropic import minkowski, verify
from tropic.linalg import integer_row
from tropic.linprog import (
    DANTZIG,
    EQ,
    GE,
    OPTIMAL,
    UNBOUNDED,
    BudgetExceededError,
    InternalError,
    LPResult,
    lp_budget,
    lp_call_count,
    solve_lp,
)
from tropic.minkowski import (
    LabeledPointSet,
    classify_vertices,
    dual_region_count,
    lift_layer,
    minkowski_sum,
    parse_point_set,
    point_set,
    serialize_point_set,
    upper_vertex_count,
    weibel_upper_identity,
)
from tropic.network import (
    NO_BIAS,
    WITH_BIAS,
    construct_shallow_optimal,
    layer,
    sample_generic,
    unit,
)
from tropic.verify import sample_weibel_family

from oracles import classify_vertices_reference, has_lower_witness, partial_sum_trivial_bound

SEGMENT = point_set([[0, 0, 0], [2, 2, 0]])              # max(0, 2x+2y)
TRIANGLE = point_set([[1, 0, 1], [0, 1, 1], [1, 1, 0]])  # max(x+1, y+1, x+y)


def separation_witness(ps, index, margin_on_last=None):
    """Test-only oracle: the margin-variable separation LP in direction space.

    Maximizes a shared margin t with the separating direction boxed to
    [-1, 1]^d; positive optimum certifies the vertex (optionally with a
    positive/negative last coordinate).
    """
    d = ps.dim
    p = ps.points[index]
    cons = []
    for j, q in enumerate(ps.points):
        if j == index:
            continue
        cons.append((tuple(a - b for a, b in zip(p, q)) + (Fraction(-1),), GE, 0))
    for coord in range(d):
        e = [0] * (d + 1)
        e[coord] = 1
        cons.append((tuple(e), GE, -1))
        e[coord] = -1
        cons.append((tuple(e), GE, -1))
    if margin_on_last == "positive":
        cons.append(((0,) * (d - 1) + (1, -1), GE, 0))
    elif margin_on_last == "negative":
        cons.append(((0,) * (d - 1) + (-1, -1), GE, 0))
    cons.append(((0,) * d + (-1,), GE, -1))
    res = solve_lp(d + 1, (0,) * d + (1,), cons, nonneg=[False] * d + [True])
    return res.status == OPTIMAL and res.value > 0


class TestLiftLayer:
    def test_relu(self):
        sets = lift_layer(layer([unit([[1], [0]], [0, 0])]))
        assert sets[0].points == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0)))

    def test_figure_units(self):
        l = layer(
            [unit([[0, 0], [2, 2]], [0, 0]), unit([[1, 0], [0, 1], [1, 1]], [1, 1, 0])]
        )
        sets = lift_layer(l)
        assert set(sets[0].points) == set(SEGMENT.points)
        assert set(sets[1].points) == set(TRIANGLE.points)

    def test_duplicates_collapse(self):
        sets = lift_layer(layer([unit([[1], [1], [0]], [0, 0, 0])]))
        assert len(sets[0].points) == 2

    def test_nobias_unlifted(self):
        sets = lift_layer(layer([unit([[1, 2], [0, 1]])]))
        assert sets[0].dim == 2


class TestMinkowskiSum:
    def test_figure_sum(self):
        s = minkowski_sum([SEGMENT, TRIANGLE])
        expected = {(1, 0, 1), (0, 1, 1), (1, 1, 0), (3, 2, 1), (2, 3, 1), (3, 3, 0)}
        assert {tuple(int(v) for v in p) for p in s.points} == expected

    def test_translation(self):
        shift = point_set([[5, -1, 2]])
        s = minkowski_sum([TRIANGLE, shift])
        assert set(s.points) == {
            tuple(a + b for a, b in zip(p, (5, -1, 2))) for p in TRIANGLE.points
        }

    def test_two_singletons(self):
        s = minkowski_sum([point_set([[1, 2]]), point_set([[3, 4]])])
        assert s.points == ((Fraction(4), Fraction(6)),)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            minkowski_sum([SEGMENT, point_set([[1, 2]])])


class TestClassifyVertices:
    def test_figure_sum_classification(self):
        cls = classify_vertices(minkowski_sum([SEGMENT, TRIANGLE]))
        assert cls.vertex_count == 6
        assert cls.upper_count == 5
        not_upper = [
            p for p, v, u in zip(cls.points, cls.is_vertex, cls.is_upper_vertex) if v and not u
        ]
        assert not_upper == [(1, 1, 0)]

    def test_horizontal_segment(self):
        cls = classify_vertices(point_set([[0, 0], [1, 0]]))
        assert cls.vertex_count == 2 and cls.upper_count == 2

    def test_vertical_segment(self):
        cls = classify_vertices(point_set([[0, 0], [0, 1]]))
        assert cls.upper_count == 1 and cls.is_upper_vertex == (False, True)
        assert cls.strict_lower_count == 1 and cls.is_strict_lower_vertex == (True, False)

    def test_interior_point_not_vertex(self):
        cls = classify_vertices(point_set([[0, 0], [2, 0], [0, 2], [2, 2], [1, 1]]))
        assert cls.is_vertex == (True, True, True, True, False)

    def test_translation_invariance(self):
        rng = random.Random(4)
        pts = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(6)]
        shift = [7, -3, 11]
        a = classify_vertices(point_set(pts))
        b = classify_vertices(point_set([[v + s for v, s in zip(p, shift)] for p in pts]))
        assert a.is_vertex == b.is_vertex
        assert a.is_upper_vertex == b.is_upper_vertex

    def test_three_way_partition(self):
        # every vertex is upper xor strict-lower; non-vertices are neither;
        # the horizontal-only class is empty (each non-upper vertex has a
        # strictly-below witness)
        rng = random.Random(9)
        for _ in range(10):
            pts = {tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(rng.randint(2, 7))}
            ps = point_set(sorted(pts))
            cls = classify_vertices(ps)
            for i in range(len(ps.points)):
                v, u, sl = cls.is_vertex[i], cls.is_upper_vertex[i], cls.is_strict_lower_vertex[i]
                assert v == (u or sl) and not (u and sl)
                if v and not u:
                    assert has_lower_witness(ps, i)

    def test_matches_margin_lp_oracle(self):
        rng = random.Random(17)
        for _ in range(8):
            d = rng.choice([2, 3])
            pts = {tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(rng.randint(2, 6))}
            ps = point_set(sorted(pts))
            cls = classify_vertices(ps)
            for i in range(len(ps.points)):
                assert cls.is_vertex[i] == separation_witness(ps, i)
                assert cls.is_upper_vertex[i] == separation_witness(ps, i, "positive")


def degenerate_point_sets(rng):
    """Point sets in Q^1..Q^4 with coordinates in {-3, ..., 3}, cycling
    through shapes: random, with vertical segments, sharing one last
    coordinate, collinear, coplanar, and lifted sums of small random layers
    with and without bias."""

    def pt(d):
        return [rng.randint(-3, 3) for _ in range(d)]

    for t in range(360):
        shape, d, k = t % 6, rng.randint(1, 4), rng.randint(1, 10)
        if shape == 0:
            pts = [pt(d) for _ in range(k)]
        elif shape == 1:
            pts = [pt(d) for _ in range(k)]
            pts += [p[:-1] + [rng.randint(-3, 3)] for p in pts[: rng.randint(1, 3)]]
        elif shape == 2:
            last = rng.randint(-3, 3)
            pts = [pt(d - 1) + [last] for _ in range(k)]
        elif shape in (3, 4):
            a, dirs = pt(d), [pt(d) for _ in range(shape - 2)]
            pts = [[v + sum(rng.randint(-1, 1) * u[j] for u in dirs) for j, v in enumerate(a)]
                   for _ in range(k)]
        else:
            n, units = rng.randint(1, 2), []
            for _ in range(rng.randint(1, 3)):
                rank = rng.randint(1, 3)
                units.append(unit([pt(n) for _ in range(rank)], pt(rank) if t % 12 == 5 else None))
            yield minkowski_sum(lift_layer(layer(units, n)))
            continue
        yield point_set(pts)


def test_drop_lp_matches_two_lp_reference():
    # One drop LP per point gives the classes of the hull LP plus the
    # hull-plus-ray LP; a single point solves none.
    seen = set()
    for ps in degenerate_point_sets(random.Random(2024)):
        expected = classify_vertices_reference(ps)
        start = lp_call_count()
        cls = classify_vertices(ps)
        assert lp_call_count() - start == (len(ps.points) if len(ps.points) > 1 else 0)
        assert cls.is_vertex == expected.is_vertex
        assert cls.is_upper_vertex == expected.is_upper_vertex
        assert cls.is_strict_lower_vertex == expected.is_strict_lower_vertex
        seen.add((ps.dim, len(ps.points) == 1, cls.strict_lower_count > 0))
    # Every dimension is reached, with single points and with strict lower
    # vertices.
    assert {d for d, one, _ in seen if one} == {d for d, _, lower in seen if lower} == {1, 2, 3, 4}


@pytest.mark.parametrize("seed", [7, 2025])
def test_fast_rule_drop_lps_match_two_lp_reference(monkeypatch, seed):
    # Every drop LP enters by the largest coefficient; the classes it reads
    # off the status and the value are those of the Bland-rule reference.
    rules = []

    def recording_solve_lp(*args, **kwargs):
        rules.append(kwargs.get("entering"))
        return solve_lp(*args, **kwargs)

    sets = list(degenerate_point_sets(random.Random(seed)))
    expected = [classify_vertices_reference(ps) for ps in sets]
    monkeypatch.setattr(minkowski, "solve_lp", recording_solve_lp)
    assert [classify_vertices(ps) for ps in sets] == expected
    assert rules and set(rules) == {DANTZIG}


def test_unbounded_drop_lp_is_an_internal_error(monkeypatch):
    # lam >= 0 bounds the minimum, so an unbounded drop LP is a bug; it must
    # raise a typed error that survives python -O.
    monkeypatch.setattr(minkowski, "solve_lp", lambda *a, **k: LPResult(UNBOUNDED, None, None))
    with pytest.raises(InternalError, match="unbounded"):
        classify_vertices(TRIANGLE)


def mixed_denominator_sets(rng):
    """Point sets in Q^2 and Q^3 with denominators 1 to 5 in every
    coordinate, and one point inserted before the last that is a convex
    combination of three others with weights 1/7, 2/7 and 4/7: it is no
    vertex, so it leaves alive after its own drop LP, usually taking the
    only denominator 7 with it."""
    for _ in range(40):
        d = rng.choice([2, 3])
        pts = [
            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(d))
            for _ in range(rng.randint(4, 8))
        ]
        a, b, c = rng.sample(pts, 3)
        inner = tuple((x + 2 * y + 4 * z) / 7 for x, y, z in zip(a, b, c))
        pts.insert(rng.randrange(len(pts)), inner)
        yield point_set(pts)


def test_drop_lp_rows_are_solve_lps_own_rows(monkeypatch):
    # classify_vertices scales the alive points once per alive set; each
    # row it hands solve_lp must be the integer row that solve_lp makes of
    # the rational drop-LP row, with lam's coefficient -e_last, so the
    # tableau and every pivot are those of the rational LP.
    lps = []

    def recording_solve_lp(num_vars, objective, constraints, *args, **kwargs):
        lps.append(list(constraints))
        return solve_lp(num_vars, objective, lps[-1], *args, **kwargs)

    lam_coefficients = []
    for ps in mixed_denominator_sets(random.Random(25)):
        expected = classify_vertices_reference(ps)
        lps.clear()
        monkeypatch.setattr(minkowski, "solve_lp", recording_solve_lp)
        cls = classify_vertices(ps)
        monkeypatch.undo()
        assert cls == expected
        last, alive, seen = ps.dim - 1, list(range(len(ps.points))), set()
        for i, p in enumerate(ps.points):
            others = [ps.points[j] for j in alive if j != i]
            cons = lps.pop(0)
            for c, (coeffs, op, rhs) in enumerate(cons[:-1]):
                assert op == EQ
                assert [*coeffs, rhs] == integer_row([*(q[c] for q in others), -int(c == last), p[c]])[0]
            assert cons[-1] == ([1] * len(others) + [0], EQ, 1)
            seen.add(cons[last][0][-1])
            if not cls.is_vertex[i]:
                alive.remove(i)
        assert not lps
        lam_coefficients.append(len(seen))
    # In most sets the inner point's denominator 7 leaves with it, so lam's
    # coefficient changes within one classification.
    assert sum(n > 1 for n in lam_coefficients) >= 30


class TestDuality:
    def test_worked_example(self):
        l = layer(
            [unit([[0, 2], [1, 1], [0, 0]], [0, 1, 2]), unit([[0, 0], [3, 2], [5, 1]], [0, 0, 0])]
        )
        assert count_regions_bruteforce(l).regions == dual_region_count(l) == 8

    def test_optimal_construction(self):
        l = construct_shallow_optimal(2, (3, 3), seed=1)
        assert count_regions_bruteforce(l).regions == dual_region_count(l) == 9

    def test_single_unit_upper_hull(self):
        for seed in range(3):
            l = sample_generic(2, (4,), WITH_BIAS, seed=seed)
            assert count_regions_bruteforce(l).regions == dual_region_count(l)

    def test_nobias_total_vertices(self):
        for seed in range(3):
            l = sample_generic(2, (3, 2), NO_BIAS, seed=seed)
            regions = count_regions_bruteforce(l).regions
            total = minkowski_sum(lift_layer(l))
            assert regions == classify_vertices(total).vertex_count

    def test_nobias_counts_all_vertices(self):
        # Without bias the dual count is the vertex count of the whole sum,
        # not its upper vertices.
        l = sample_generic(2, (2, 2), NO_BIAS, seed=0)
        total = minkowski_sum(lift_layer(l))
        assert count_regions_bruteforce(l).regions == dual_region_count(l) == classify_vertices(total).vertex_count
        assert dual_region_count(l) != upper_vertex_count(total)


class TestWeibelIdentity:
    def test_three_segments(self):
        sets = sample_weibel_family(1, 3, 2, seed=12)
        chk = weibel_upper_identity(sets)
        assert chk.lhs == chk.rhs

    def test_four_triangles(self):
        sets = sample_weibel_family(2, 4, 3, seed=21)
        chk = weibel_upper_identity(sets)
        assert chk.lhs == chk.rhs

    def test_sampler_refuses_after_its_attempts(self, monkeypatch):
        monkeypatch.setattr(verify, "WEIBEL_ATTEMPTS", 0)
        with pytest.raises(ValueError, match="no certified family in 0 attempts"):
            sample_weibel_family(1, 3, 2, seed=12)

    def test_too_few_summands(self):
        with pytest.raises(ValueError, match="m >= n\\+1"):
            weibel_upper_identity([point_set([[0, 0, 0], [1, 2, 3]])])

    def test_zero_dimensional_summand_rejected(self):
        sets = [point_set([[0, 0], [1, 1]]), point_set([[2, 2]])]
        with pytest.raises(ValueError, match="positive-dimensional"):
            weibel_upper_identity(sets)

    def test_parallel_segments_fail_without_certificate(self):
        # the certificate exists precisely because this degenerate family
        # breaks the identity
        a = point_set([[0, 0], [1, 1]])
        b = point_set([[0, 3], [2, 5]])
        chk = weibel_upper_identity([a, b])
        assert chk.lhs != chk.rhs

    def test_strict_lower_floor(self):
        # total - upper >= C(m-1, n) on certified families
        for seed in range(4):
            sets = sample_weibel_family(1, 3, 3, seed=40 + seed)
            total = minkowski_sum(sets)
            cls = classify_vertices(total)
            assert cls.vertex_count - cls.upper_count >= binom(len(sets) - 1, 1)


class TestPartialSums:
    def test_construction_attains_trivial(self):
        sets = lift_layer(construct_shallow_optimal(2, (3, 3), seed=1))
        table = partial_sum_trivial_bound(sets, 2)
        assert all(v.actual == v.trivial for v in table.values())
        assert table[frozenset({1, 2})].actual == 9

    def test_identical_sets_cancel(self):
        a = point_set([[0, 0], [1, 0], [0, 1]])
        table = partial_sum_trivial_bound([a, a], 2)
        pair = table[frozenset({1, 2})]
        assert pair.actual < pair.trivial

    def test_singletons_always_attain(self):
        sets = [point_set([[0, 0], [3, 1]]), point_set([[1, 1], [2, 2], [0, 5]])]
        table = partial_sum_trivial_bound(sets, 1)
        assert all(v.actual == v.trivial for v in table.values())


class TestPointSetJson:
    def test_round_trip(self):
        s = point_set([[Fraction(1, 3), 2], [4, Fraction(-5, 7)]], label="demo")
        assert parse_point_set(serialize_point_set(s)) == s

    def test_rejects_floats(self):
        with pytest.raises(Exception, match="float"):
            parse_point_set('{"dim": 2, "points": [[0.5, 1]]}')


def test_classify_lp_budget_is_checked_per_point():
    # Each point of the triangle costs one drop LP.
    start = lp_call_count()
    with lp_budget(3):
        classify_vertices(TRIANGLE)
    assert lp_call_count() - start == 3
    with pytest.raises(BudgetExceededError), lp_budget(2):
        classify_vertices(TRIANGLE)


@pytest.mark.parametrize("build,message", [
    (lambda: LabeledPointSet(0, ()), "ambient dimension must be >= 1"),
    (lambda: LabeledPointSet(1, ((1,), (1,))), "points must be pairwise distinct"),
    (lambda: LabeledPointSet(2, ((1,),)), "point length != ambient dimension"),
    (lambda: minkowski_sum([]), "need at least one point set"),
    (lambda: weibel_upper_identity([]), "need at least one summand"),
], ids=["dim", "repeat", "point-length", "empty-sum", "empty-identity"])
def test_library_refusals(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is ValueError and str(info.value) == message
