import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tropic import geometry
from tropic.geometry import (
    ConstraintSystem,
    EmptyPolyhedronError,
    RecessionProfile,
    affine_dimension,
    contains,
    euler_characteristic,
    feasible,
    recession_profile,
    strictly_feasible,
)
from tropic.linalg import dot
from tropic.linprog import (
    GE,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    BudgetExceededError,
    InternalError,
    LPResult,
    lp_budget,
    lp_call_count,
)

from oracles import (
    affine_dimension_reference,
    contains_reference,
    euler_characteristic_by_decomposition,
    nullspace_basis_reference,
    rank_reference,
    recession_profile_reference,
)


def sys1(eqs=(), ineqs=()):
    return ConstraintSystem.build(1, eqs, ineqs)


def unit_interval():
    return sys1(ineqs=[((1,), 0), ((-1,), -1)])  # 0 <= x <= 1


def fresh(s):
    """An equal system that has not solved its margin LP yet: the module
    constants below keep theirs once a test has solved it."""
    return ConstraintSystem(s.ambient_dim, s.equalities, s.inequalities)


SQUARE = ConstraintSystem.build(
    2, inequalities=[((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)]
)
PLANE = ConstraintSystem.build(2)
RAY = ConstraintSystem.build(2, equalities=[((0, 1), 0)], inequalities=[((1, 0), 0)])
LINE = ConstraintSystem.build(2, equalities=[((0, 1), 0)])
POINT = ConstraintSystem.build(2, equalities=[((1, 0), 0), ((0, 1), 0)])
HALFPLANE = ConstraintSystem.build(2, inequalities=[((0, 1), 0)])
# x >= 0 and x <= 0 force the segment {0} x [0,1]; dimension 1.
SEGMENT = ConstraintSystem.build(
    2, inequalities=[((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), -1)]
)


class TestFeasible:
    def test_nonempty_interval(self):
        w = feasible(unit_interval())
        assert w is not None and 0 <= w[0] <= 1

    def test_contradictory_bounds(self):
        assert feasible(sys1(ineqs=[((1,), 1), ((-1,), 0)])) is None

    def test_atom_of_worked_example(self):
        # One indecision ray of the unit max{2y, x+y+1, 2}: feature 1 and 3
        # tie at value 2 while feature 2 stays below.
        atom = ConstraintSystem.build(
            2, equalities=[((0, 2), 2)], inequalities=[((-1, -1), -1)]
        )
        assert atom.satisfies((Fraction(-1), Fraction(1)))
        w = feasible(atom)
        assert w is not None and atom.satisfies(w)

    def test_deterministic_witness(self):
        a, b = fresh(SQUARE), fresh(SQUARE)
        assert a is not b
        assert feasible(a) == feasible(b)

    def test_malformed_dimensions(self):
        with pytest.raises(ValueError):
            ConstraintSystem.build(2, inequalities=[((1, 2, 3), 0)])


class TestStrictlyFeasible:
    def test_interval_interior(self):
        w = strictly_feasible(unit_interval())
        assert w is not None and 0 < w[0] < 1

    def test_single_point_is_not_strict(self):
        assert strictly_feasible(sys1(ineqs=[((1,), 0), ((-1,), 0)])) is None

    def test_equality_kept_exact(self):
        s = ConstraintSystem.build(2, equalities=[((0, 1), 0)], inequalities=[((1, 0), 0)])
        w = strictly_feasible(s)
        assert w is not None and w[1] == 0 and w[0] > 0

    def test_empty_system(self):
        assert strictly_feasible(sys1(ineqs=[((1,), 1), ((-1,), 0)])) is None

    def test_contradictory_equalities(self):
        assert strictly_feasible(sys1(eqs=[((1,), 0), ((1,), 1)])) is None


class TestAffineDimension:
    def test_line_in_plane(self):
        s = ConstraintSystem.build(2, equalities=[((1, -1), 0)])
        assert affine_dimension(s) == 1

    def test_free_plane(self):
        assert affine_dimension(PLANE) == 2

    def test_empty(self):
        assert affine_dimension(sys1(ineqs=[((1,), 1), ((-1,), 0)])) is None

    def test_contradictory_equalities(self):
        assert affine_dimension(sys1(eqs=[((1,), 0), ((1,), 1)])) is None
        s = ConstraintSystem.build(2, equalities=[((1, 0), 0)], inequalities=[((1, 0), 1)])
        assert affine_dimension(s) is None

    def test_one_lp_when_strictly_feasible(self):
        start = lp_call_count()
        assert affine_dimension(fresh(RAY)) == 1
        assert lp_call_count() - start == 1

    def test_implicit_equality_detected(self):
        # The margin LP reads margin 0, and one implicit-equality LP over the
        # rows tight at its point finds x >= 0 and x <= 0: 2 LPs.
        start = lp_call_count()
        assert affine_dimension(fresh(SEGMENT)) == 1
        assert lp_call_count() - start == 2

    def test_adding_equality_never_increases(self):
        rng = random.Random(7)
        for _ in range(20):
            d = rng.choice([2, 3])
            ineqs = [
                (tuple(rng.randint(-3, 3) for _ in range(d)), rng.randint(-2, 2))
                for _ in range(rng.randint(0, 3))
            ]
            s = ConstraintSystem.build(d, inequalities=ineqs)
            if feasible(s) is None:
                continue
            base = affine_dimension(s)
            eq = (tuple(rng.randint(-3, 3) for _ in range(d)), 0)
            s2 = ConstraintSystem.build(d, equalities=[eq], inequalities=ineqs)
            if feasible(s2) is not None:
                assert affine_dimension(s2) <= base


class TestRecessionProfile:
    def test_full_plane(self):
        p = recession_profile(PLANE)
        assert p.lineality_dim == 2 and p.pointed_part_bounded

    def test_ray(self):
        p = recession_profile(RAY)
        assert p.lineality_dim == 0 and not p.pointed_part_bounded

    def test_bounded_square(self):
        p = recession_profile(SQUARE)
        assert p.lineality_dim == 0 and p.pointed_part_bounded

    def test_halfplane(self):
        p = recession_profile(HALFPLANE)
        assert p.lineality_dim == 1 and not p.pointed_part_bounded

    def test_empty_errors(self):
        with pytest.raises(EmptyPolyhedronError):
            recession_profile(sys1(ineqs=[((1,), 1), ((-1,), 0)]))

    def test_empty_system_raises_on_every_call(self):
        # The infeasible margin LP is kept too: the second call raises
        # without solving it again.
        empty = sys1(ineqs=[((1,), 1), ((-1,), 0)])
        with pytest.raises(EmptyPolyhedronError):
            recession_profile(empty)
        start = lp_call_count()
        with pytest.raises(EmptyPolyhedronError):
            recession_profile(empty)
        assert lp_call_count() == start

    def test_solved_system_skips_the_emptiness_lp(self):
        # Margin LP plus the bound LP on the recession cone, then the bound
        # LP alone: the margin LP of a solved system is not solved again.
        square = fresh(SQUARE)
        start = lp_call_count()
        assert recession_profile(square) == recession_profile(square)
        assert lp_call_count() - start == 3
        square = fresh(SQUARE)
        assert feasible(square) is not None
        start = lp_call_count()
        assert recession_profile(square).pointed_part_bounded
        assert lp_call_count() - start == 1

    def test_cone_at_positive_margin_skips_the_bound_lp(self):
        # The margin LP shows a point strict on every inequality.  A cone
        # with an inequality and such a point is unbounded, so once that LP
        # is solved its profile solves none; a system that is not a cone
        # still asks the bound LP on its recession cone.
        quadrant = fresh(QUADRANT)
        assert strictly_feasible(quadrant) is not None
        start = lp_call_count()
        assert recession_profile(quadrant) == RecessionProfile(0, False)
        assert lp_call_count() == start
        square = fresh(SQUARE)
        assert strictly_feasible(square) is not None
        start = lp_call_count()
        assert recession_profile(square) == RecessionProfile(0, True)
        assert lp_call_count() - start == 1

    def test_point_solves_no_cone_lp(self):
        # Equalities of rank d make the system a point, whose cone is {0}:
        # once its margin LP is solved, the profile solves no LP, whatever
        # inequalities it also has.
        point = ConstraintSystem.build(
            2,
            equalities=[((1, 0), 1), ((1, 1), 3), ((2, 1), 4)],
            inequalities=[((1, 1), 0), ((0, -1), -5)],
        )
        assert feasible(point) == (1, 2)
        start = lp_call_count()
        prof = recession_profile(point)
        assert lp_call_count() == start
        assert prof == recession_profile_reference(fresh(point)) == RecessionProfile(0, True)


class TestEulerCharacteristic:
    def test_plane(self):
        assert euler_characteristic(PLANE) == 1

    def test_ray(self):
        assert euler_characteristic(RAY) == 0

    def test_line(self):
        assert euler_characteristic(LINE) == -1

    def test_point(self):
        assert euler_characteristic(POINT) == 1

    def test_bounded_polytope(self):
        assert euler_characteristic(SQUARE) == 1

    def test_pointed_unbounded_cone(self):
        s = ConstraintSystem.build(2, inequalities=[((1, 0), 0), ((0, 1), 0)])
        assert euler_characteristic(s) == 0

    def test_empty_errors(self):
        with pytest.raises(EmptyPolyhedronError):
            euler_characteristic(sys1(ineqs=[((1,), 1), ((-1,), 0)]))


class TestContains:
    def test_nested_intervals(self):
        inner = unit_interval()
        outer = sys1(ineqs=[((1,), 0), ((-1,), -2)])
        assert contains(outer, inner)
        assert not contains(inner, outer)

    def test_line_in_plane(self):
        assert contains(PLANE, LINE)
        assert not contains(LINE, PLANE)

    def test_unbounded_violation(self):
        halfline = sys1(ineqs=[((1,), 0)])
        assert not contains(unit_interval(), halfline)

    def test_point_is_decided_with_no_lp(self):
        # A nonempty inner whose equalities have rank d is its witness w, so
        # satisfies decides.  outer is solved first: its emptiness LP runs
        # only when w fails it.
        outer = fresh(SQUARE)
        assert feasible(outer) is not None
        inside = ConstraintSystem.build(
            2, [((1, 0), Fraction(1, 2)), ((1, 1), 1)], [((0, 1), 0)]
        )
        outside = ConstraintSystem.build(2, [((1, 0), 2), ((0, 1), 0)])
        start = lp_call_count()
        assert contains(outer, inside)
        assert not contains(outer, outside)
        assert lp_call_count() == start

    def test_mutual_containment_is_set_equality(self):
        a = sys1(ineqs=[((1,), 0), ((-1,), -1)])
        b = sys1(ineqs=[((2,), 0), ((-3,), -3)])  # same interval, scaled rows
        assert contains(a, b) and contains(b, a)

    def test_empty_side_raises(self):
        # Containment is asked of nonempty systems only.  An empty inner has
        # no witness; an empty outer fails inner's witness, and then its own
        # emptiness LP shows it empty.
        for outer, inner in ((unit_interval(), fresh(EMPTY)), (fresh(EMPTY), unit_interval())):
            with pytest.raises(EmptyPolyhedronError, match="both systems nonempty"):
                contains(outer, inner)


def random_feasible_system(rng, d):
    while True:
        n_eq = rng.randint(0, 1)
        n_in = rng.randint(0, 5)
        eqs = [
            (tuple(rng.randint(-3, 3) for _ in range(d)), rng.randint(-2, 2))
            for _ in range(n_eq)
        ]
        ineqs = [
            (tuple(rng.randint(-3, 3) for _ in range(d)), rng.randint(-3, 3))
            for _ in range(n_in)
        ]
        s = ConstraintSystem.build(d, eqs, ineqs)
        if feasible(s) is not None:
            return s


@pytest.mark.parametrize("seed", range(8))
def test_euler_closed_form_matches_decomposition_oracle(seed):
    # The full 200-instance sweep runs in the acceptance suite; this keeps a
    # fast per-module guard.
    rng = random.Random(300 + seed)
    for _ in range(5):
        d = rng.choice([1, 2, 3])
        s = random_feasible_system(rng, d)
        assert euler_characteristic(s) == euler_characteristic_by_decomposition(s)


EMPTY = ConstraintSystem.build(1, inequalities=[((1,), 1), ((-1,), 0)])
CONTRADICTORY = ConstraintSystem.build(1, equalities=[((1,), 0), ((1,), 1)])
COEF = st.integers(-3, 3)


@st.composite
def systems(draw, dim=None):
    """Systems in Q^1..Q^4, or in Q^dim, with up to 2 equalities and 6
    inequalities, all satisfied by one anchor point until a contradiction
    is added.

    Coordinates no row touches give nonzero lineality.  Each inequality may
    get its opposite row shifted by 0 (an implicit-equality pair, a
    lower-dimensional set) or by 1 (a slab).  The first inequality may get
    one shifted by -1 (an empty set), and the first equality a
    contradictory copy.
    """
    d = draw(st.integers(1, 4)) if dim is None else dim
    free = draw(st.sets(st.integers(0, d - 1), max_size=d - 1))
    anchor = [draw(COEF) for _ in range(d)]

    def row(slack):  # a row that the anchor point satisfies with this slack
        c = tuple(0 if j in free else draw(COEF) for j in range(d))
        return c, sum(a * b for a, b in zip(c, anchor)) - slack

    eqs = [row(0) for _ in range(draw(st.integers(0, 2)))]
    if eqs and draw(st.integers(0, 4)) == 0:
        eqs.append((eqs[0][0], eqs[0][1] + 1))
    ineqs = []
    for _ in range(draw(st.integers(0, 6))):
        c, r = row(draw(st.integers(0, 2)))
        ineqs.append((c, r))
        shift = draw(st.sampled_from([None, 0, 1]))
        if shift is not None:
            ineqs.append((tuple(-v for v in c), -r - shift))
    if ineqs and draw(st.integers(0, 5)) == 0:
        c, r = ineqs[0]
        ineqs.append((tuple(-v for v in c), -r + 1))
    return ConstraintSystem.build(d, eqs, draw(st.permutations(ineqs)))


@settings(max_examples=300, deadline=None)
@given(systems())
@example(SEGMENT)
@example(HALFPLANE)
@example(EMPTY)
@example(CONTRADICTORY)
@example(PLANE)
@example(LINE)
def test_matches_single_margin_and_activity_references(sys):
    dim = affine_dimension(sys)
    assert dim == affine_dimension_reference(sys)
    if dim is None:
        assert feasible(sys) is None
        with pytest.raises(EmptyPolyhedronError):
            recession_profile(sys)
        return
    assert sys.satisfies(feasible(sys))
    expected = recession_profile_reference(sys)
    assert recession_profile(sys) == expected
    assert recession_profile(fresh(sys)) == expected


def answers(s):
    """What feasible, strictly_feasible, affine_dimension and
    recession_profile say about s; an empty s has no recession profile."""
    try:
        prof = recession_profile(s)
    except EmptyPolyhedronError:
        prof = None
    return feasible(s), strictly_feasible(s), affine_dimension(s), prof


@settings(max_examples=200, deadline=None)
@given(systems())
@example(SQUARE)
def test_solved_system_answers_as_a_fresh_one(sys):
    solved = fresh(sys)
    expected = answers(solved)
    assert answers(fresh(sys)) == expected
    # Every answer of a solved system reads its cached margin LP, and none
    # solves the margin LP of another system.
    refuse = AssertionError("margin LP solved again")
    with mock.patch.object(geometry, "_max_common_margin", side_effect=refuse):
        assert answers(solved) == expected
    # A system decided by rank solves no margin LP.  Any other system
    # solves one, and an LP refused by the budget caches nothing: the
    # system is solved by the next call outside the block.
    refused = fresh(sys)
    if refused.rank_decided:
        start = lp_call_count()
        with lp_budget(0):
            assert feasible(refused) == expected[0]
        assert lp_call_count() == start
        return
    with lp_budget(0):
        with pytest.raises(BudgetExceededError):
            feasible(refused)
    start = lp_call_count()
    assert feasible(refused) == expected[0]
    assert lp_call_count() - start == 1


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_contains_matches_the_fraction_reference(data):
    # Pairs of nonempty systems in one dimension, and outer with its own
    # intersection with inner, which it contains.  Once inner is solved,
    # contains solves at most one bound LP per outer row, an equality
    # counting as two rows, and outer's emptiness LP.
    inner = data.draw(systems())
    outer = data.draw(systems(inner.ambient_dim))
    assume(feasible(fresh(inner)) is not None and feasible(fresh(outer)) is not None)
    both = outer.intersection(inner)
    pairs = [(outer, inner)]
    if feasible(fresh(both)) is not None:
        assert contains_reference(outer, both)
        pairs.append((outer, both))
    rows = len(outer.inequalities) + 2 * len(outer.equalities)
    for o, i in pairs:
        o, i = fresh(o), fresh(i)
        assert feasible(i) is not None
        start = lp_call_count()
        assert contains(o, i) == contains_reference(o, i)
        assert lp_call_count() - start <= rows + 1


FRAC = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def eliminated_systems(draw):
    """Systems in Q^1..Q^4 whose equalities are inconsistent, fix one point,
    or leave a line, with Fraction entries and up to 5 inequalities.

    The equalities are independent rows, triangular on their pivot
    columns, through an anchor point, plus a combination of them: with its
    right-hand side shifted off the anchor for an inconsistent system.  A
    point's inequalities have slack -1 (violated), 0 (tight), 1/2 or 2 at
    the anchor.  A line's inequalities get each slope c . v in {-1, 0, 1/2}
    along its direction v, so every sign mix occurs, and slack 0 or 1, or
    -1 once in a while for an empty line.
    """
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["inconsistent", "point", "line"]))
    r = {"point": d, "line": d - 1}[kind] if kind != "inconsistent" else draw(st.integers(0, d))
    pivots = sorted(draw(st.permutations(range(d)))[:r])
    anchor = [draw(FRAC) for _ in range(d)]

    def through_anchor(c, slack=0):
        return tuple(c), sum((a * b for a, b in zip(c, anchor)), Fraction(0)) - slack

    eqs = []
    for k, p in enumerate(pivots):
        c = [draw(FRAC) for _ in range(d)]
        c[p] = draw(FRAC.filter(bool))
        for q in pivots[:k]:
            c[q] = 0
        eqs.append(through_anchor(c))
    weights = [draw(FRAC) for _ in eqs]
    combo = [sum((w * c[j] for w, (c, _) in zip(weights, eqs)), Fraction(0)) for j in range(d)]
    shift = draw(FRAC.filter(bool)) if kind == "inconsistent" else 0
    if shift or draw(st.booleans()):
        eqs.append(through_anchor(combo, shift))
    eqs = draw(st.permutations(eqs))
    ineqs = []
    for _ in range(draw(st.integers(0, 5))):
        c = [draw(FRAC) for _ in range(d)]
        if kind == "line":
            (v,) = nullspace_basis_reference([c for c, _ in eqs], d)
            slope = draw(st.sampled_from([Fraction(-1), Fraction(0), Fraction(1, 2)]))
            step = (slope - dot(c, v)) / dot(v, v)
            c = [a + step * b for a, b in zip(c, v)]
            slack = draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(0), Fraction(-1)]))
        else:
            slack = draw(st.sampled_from([Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(2)]))
        ineqs.append(through_anchor(c, slack))
    return ConstraintSystem(d, tuple(eqs), tuple(ineqs))


POINT_ON_A_TIGHT_ROW = ConstraintSystem.build(2, [((1, 0), 1), ((1, 1), 1)], [((0, -1), 0)])
POINT_OFF_A_ROW = ConstraintSystem.build(2, [((1, 0), 1), ((0, 1), 0)], [((1, 1), 2)])
RAY_OF_A_LINE = ConstraintSystem.build(2, [((1, -1), 0)], [((1, 0), 0), ((1, 1), -1)])
CROSSED_LINE = ConstraintSystem.build(2, [((1, -1), 0)], [((1, 0), 0), ((-1, 0), -1)])


@settings(max_examples=150, deadline=None)
@given(eliminated_systems())
@example(CONTRADICTORY)
@example(POINT)
@example(POINT_ON_A_TIGHT_ROW)
@example(POINT_OFF_A_ROW)
@example(ConstraintSystem.build(0, [((), 0)], [((), -1)]))
@example(ConstraintSystem.build(0, [], [((), 1)]))
def test_rank_decided_margin_is_the_lp_optimum(sys):
    # Inconsistent equalities, and equalities that fix a point, answer the
    # common-margin LP with no LP, and with the LP's own result: status,
    # value and witness.  Every other system solves it.
    lp = geometry._max_common_margin(sys.ambient_dim, sys.equalities, sys.inequalities)
    fast = fresh(sys)
    start = lp_call_count()
    assert fast._margin == lp
    assert lp_call_count() - start == (0 if fast.rank_decided else 1)
    if lp.x is not None:
        assert all(type(v) is Fraction for v in fast._margin.x)
    assert affine_dimension(fast) == affine_dimension_reference(sys)


@settings(max_examples=150, deadline=None)
@given(eliminated_systems())
@example(LINE)
@example(RAY)
@example(RAY_OF_A_LINE)
@example(CROSSED_LINE)
@example(POINT)
def test_line_and_point_recession_matches_the_cone_lp(sys):
    # A nonempty system whose equalities fix a point or leave a line reads
    # its recession profile off the elimination, with no LP, and agrees
    # with the implicit-equality LP on the recession cone.
    d = sys.ambient_dim
    if feasible(sys) is None:
        with pytest.raises(EmptyPolyhedronError):
            recession_profile(sys)
        return
    start = lp_call_count()
    prof = recession_profile(sys)
    if sys.equality_rank >= d - 1:
        assert lp_call_count() == start
    cone = [(c, 0) for c, _ in sys.inequalities]
    implicit = geometry._implicit_equalities(
        d, [(c, 0) for c, _ in sys.equalities], cone, range(len(cone))
    )
    lineality = d - rank_reference([c for c, _ in sys.equalities + sys.inequalities])
    assert prof == RecessionProfile(lineality, len(implicit) == len(cone))


@st.composite
def cones(draw):
    """Cones {x : E x = 0, C x >= 0} in Q^1..Q^4 with Fraction entries, up
    to 2 equalities and 5 inequalities, each maybe with its opposite row.

    Coordinates no row touches give nonzero lineality.  The rows are bent
    to an anchor direction a, zero on those coordinates: every equality
    and some inequalities get c . a = 0, other inequalities c . a = 1/2 or
    2, so a cone whose inequalities all have a positive slope and no
    opposite row has positive margin at a.  An opposite row pair forces its
    row tight on the whole cone, so the margin is 0.
    """
    d = draw(st.integers(1, 4))
    free = draw(st.sets(st.integers(0, d - 1), max_size=d - 1))
    a = [Fraction(0) if j in free else draw(FRAC) for j in range(d)]

    def normal(slope):
        c = [Fraction(0) if j in free else draw(FRAC) for j in range(d)]
        if slope is not None and any(a):
            step = (slope - dot(c, a)) / dot(a, a)
            c = [u + step * v for u, v in zip(c, a)]
        return tuple(c), Fraction(0)

    eqs = [normal(Fraction(0)) for _ in range(draw(st.integers(0, 2)))]
    ineqs = []
    for _ in range(draw(st.integers(0, 5))):
        c, r = normal(draw(st.sampled_from([None, Fraction(0), Fraction(1, 2), Fraction(2)])))
        ineqs.append((c, r))
        if draw(st.integers(0, 3)) == 0:
            ineqs.append((tuple(-v for v in c), r))
    return ConstraintSystem(d, tuple(eqs), tuple(draw(st.permutations(ineqs))))


QUADRANT = ConstraintSystem.build(2, inequalities=[((1, 0), 0), ((0, 1), 0)])
# x >= 0 and x <= 0 in Q^3: the plane x = 0, all inequalities tight.
PINCHED = ConstraintSystem.build(3, inequalities=[((1, 0, 0), 0), ((-1, 0, 0), 0)])
# A pointed cone in Q^3 with one implicit equality among slack rows.
WEDGE = ConstraintSystem.build(
    3, inequalities=[((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 1, 1), 0), ((0, -1, -1), 0)]
)


@settings(max_examples=200, deadline=None)
@given(cones())
@example(QUADRANT)
@example(PINCHED)
@example(WEDGE)
@example(ConstraintSystem.build(3, [((1, 1, 0), 0)], [((1, 0, 0), 0), ((-1, 0, 0), 0)]))
@example(ConstraintSystem.build(4))
def test_cone_recession_matches_both_references(sys):
    # A cone is its own recession cone.  At positive margin the margin LP's
    # point is strict on every inequality, so a cone with an inequality is
    # unbounded with no LP.  At margin 0 the bound LP answers in one LP
    # when the equalities have rank below d - 1 and there is an inequality,
    # and in none otherwise.  Asked again, it reads the cached margin LP and
    # solves only that bound LP again.  Both the row-activity reference and
    # the implicit-equality LP on the cone agree with it.
    d, k = sys.ambient_dim, len(sys.inequalities)
    cone = fresh(sys)
    assert feasible(cone) is not None
    general = k and cone.equality_rank < d - 1
    start = lp_call_count()
    prof = recession_profile(cone)
    bound_lps = 1 if general and cone._margin.value == 0 else 0
    assert lp_call_count() - start == bound_lps
    if general and cone._margin.value > 0:
        assert not prof.pointed_part_bounded
    start = lp_call_count()
    assert recession_profile(cone) == prof
    assert lp_call_count() - start == bound_lps
    assert prof == recession_profile_reference(fresh(sys))
    implicit = geometry._implicit_equalities(d, sys.equalities, sys.inequalities, range(k))
    lineality = d - rank_reference([c for c, _ in sys.equalities + sys.inequalities])
    assert prof == RecessionProfile(lineality, len(implicit) == k)


def test_implicit_equality_slack_outside_0_1_is_an_internal_error(monkeypatch):
    # Every optimum has each slack t_k at 0 or 1, so t = 1/2 is a bug.
    x = (Fraction(0), Fraction(1), Fraction(1, 2))
    monkeypatch.setattr(geometry, "solve_lp", lambda *a, **k: LPResult(OPTIMAL, Fraction(1, 2), x))
    with pytest.raises(InternalError, match="not all 0 or 1"):
        geometry._implicit_equalities(1, [], [((Fraction(1),), Fraction(0))], [0])


def test_unsolved_bounded_lp_is_an_internal_error(monkeypatch):
    # The margin LP is feasible and capped, so a non-optimal status is a bug;
    # it must raise a typed error that survives python -O.  The bound LP is
    # asked only of nonempty systems, so an infeasible one is a bug too.
    monkeypatch.setattr(geometry, "solve_lp", lambda *a, **k: LPResult(UNBOUNDED, None, None))
    with pytest.raises(InternalError, match="unbounded"):
        geometry._max_common_margin(1, [], [((Fraction(1),), Fraction(0))])
    monkeypatch.setattr(geometry, "solve_lp", lambda *a, **k: LPResult(INFEASIBLE, None, None))
    with pytest.raises(InternalError, match="infeasible"):
        geometry._at_most(1, [((Fraction(1),), GE, Fraction(0))], (Fraction(1),), Fraction(0))


@pytest.mark.parametrize("build,message", [
    (lambda: ConstraintSystem(-1), "ambient_dim must be non-negative"),
    (lambda: ConstraintSystem(1).intersection(ConstraintSystem(2)), "ambient dimension mismatch"),
    (lambda: contains(ConstraintSystem(1), ConstraintSystem(2)), "ambient dimension mismatch"),
], ids=["negative-dim", "intersection", "contains"])
def test_library_refusals(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is ValueError and str(info.value) == message
