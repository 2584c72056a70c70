import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropic import linalg, linprog, minkowski
from tropic.arrangement import build_atoms, build_poset, count_regions_bruteforce, enumerate_cells
from tropic.linprog import (
    BLAND,
    DANTZIG,
    EQ,
    GE,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    BudgetExceededError,
    LPResult,
    lp_budget,
    lp_call_count,
    lp_pivot_count,
    solve_lp,
)
from tropic.network import construct_shallow_optimal, construct_shallow_optimal_nobias

from oracles import count_regions_reference, reference_pivot_count, solve_boxed_lp_by_enumeration, solve_lp_reference


def test_simple_bounded_max():
    res = solve_lp(1, [1], [((-1,), GE, -1)])
    assert res.status == OPTIMAL
    assert res.value == 1
    assert res.x == (Fraction(1),)


def test_two_phase_equality_mix():
    res = solve_lp(
        2,
        [Fraction(1, 3), 0],
        [((1, 1), EQ, Fraction(1, 2)), ((0, 1), GE, 0), ((-1, 0), GE, -2)],
    )
    assert res.status == OPTIMAL
    assert res.value == Fraction(1, 6)


def test_infeasible():
    res = solve_lp(1, [0], [((1,), GE, 1), ((-1,), GE, 0)])
    assert res.status == INFEASIBLE


def test_unbounded_reports_feasible_point():
    res = solve_lp(1, [1], [((1,), GE, 2)])
    assert res.status == UNBOUNDED
    assert res.x is not None and res.x[0] >= 2


def test_minimize():
    # min x is -max -x, at the same witness.
    res = solve_lp(1, [-1], [((1,), GE, -3), ((-1,), GE, -5)])
    assert res.status == OPTIMAL
    assert -res.value == -3
    assert res.x == (-3,)


def test_nonneg_vars():
    res = solve_lp(2, [1, 2], [((1, 1), EQ, 1)], nonneg=[True, True])
    assert res.status == OPTIMAL
    assert res.value == 2
    assert res.x == (Fraction(0), Fraction(1))


def test_degenerate_lp_terminates():
    # Many redundant constraints through one point; Bland's rule must not cycle.
    cons = [((1, 1), GE, 0), ((2, 2), GE, 0), ((1, 0), GE, 0), ((0, 1), GE, 0), ((-1, -1), GE, -1)]
    res = solve_lp(2, [1, 1], cons)
    assert res.status == OPTIMAL
    assert res.value == 1


def test_pivot_count_of_a_pinned_lp():
    # max x1 + 2 x2 on x1 + x2 = 1, x >= 0: phase 1 enters x1, the lowest
    # column with a positive reduced cost (Bland), and phase 2 swaps it for x2.
    start = lp_pivot_count()
    res = solve_lp(2, [1, 2], [((1, 1), EQ, 1)], nonneg=[True, True])
    assert res.x == (0, 1)
    assert lp_pivot_count() - start == 2


@pytest.mark.parametrize("rule, pivots", [(BLAND, 2), (DANTZIG, 1)])
def test_pivot_count_of_each_entering_rule(rule, pivots):
    # max x1 + 2 x2 on x1 + x2 <= 1, x >= 0 from the slack basis: Bland's
    # rule enters x1 and then swaps it for x2; the largest cost enters x2.
    start = lp_pivot_count()
    res = solve_lp(2, [1, 2], [((-1, -1), GE, -1)], nonneg=[True, True], entering=rule)
    assert (res.value, res.x) == (2, (0, 1))
    assert lp_pivot_count() - start == pivots


# Beale's (1955) cycling example: maximize 3/4 x4 - 20 x5 + 1/2 x6 - 6 x7
# over x >= 0 with -x4/4 + 8 x5 + x6 - 9 x7 >= 0, -x4/2 + 12 x5 + x6/2 - 3 x7
# >= 0 and x6 <= 1.  Entering by the largest coefficient throughout, this
# tableau cycles.
BEALE = (
    4,
    [Fraction(3, 4), -20, Fraction(1, 2), -6],
    [
        ([Fraction(-1, 4), 8, 1, -9], GE, 0),
        ([Fraction(-1, 2), 12, Fraction(1, 2), -3], GE, 0),
        ([0, 0, -1, 0], GE, -1),
    ],
    [True] * 4,
)


def test_largest_coefficient_rule_switches_to_bland_on_beale(monkeypatch):
    # Record each pivot's column, the right-hand side of its pivot row and
    # the phase-2 cost row it sees.
    pivots = []
    real_pivot = linalg.pivot

    def recording_pivot(rows, prow, s, den):
        if len(pivots) == 50:
            raise AssertionError("the LP cycles")
        pivots.append((s, prow[-1], list(rows[-1][:-1])))
        return real_pivot(rows, prow, s, den)

    monkeypatch.setattr(linalg, "pivot", recording_pivot)
    start = lp_pivot_count()
    res = solve_lp(*BEALE, entering=DANTZIG)
    assert lp_pivot_count() - start == len(pivots) == 5
    assert res == solve_lp_reference(*BEALE, True)
    assert res.value == Fraction(5, 4) and res.x == (1, 0, 1, 0)
    # The first pivot is degenerate, so the LP follows Bland's rule from
    # then on: the third pivot, the first of phase 2, enters column 2, the
    # lowest with a positive cost, where the largest cost is in column 4.
    assert pivots[0][1] == 0
    column, _, costs = pivots[2]
    assert column == 2 == min(j for j, c in enumerate(costs) if c > 0)
    assert costs.index(max(costs)) == 4


# Fixed stages on fixed inputs: every LP they solve, and every pivot of
# those LPs, is a fixed function of the input and the entering rules, so a
# change to the pivot path that alters a single choice moves a count.
# classify_vertices' drop LPs enter by the largest coefficient, the others
# by Bland's rule.  The poset count includes the atoms it is built from.
# The region count reads its regions off the fan and solves no LP.  The
# reference counter it replaced solves the LP region walk's 26 margin LPs
# (186 pivots) and two reference recession LPs per region.  The cells are
# read off the fan too, and enumerate_cells solves one margin LP per cell
# whose margin rank does not decide.
@pytest.mark.parametrize("make, run, lps, pivots", [
    (lambda: construct_shallow_optimal(2, (3, 3, 3), seed=1), count_regions_bruteforce, 0, 0),
    (lambda: construct_shallow_optimal(2, (3, 3, 3), seed=1), count_regions_reference, 64, 526),
    (
        lambda: minkowski.minkowski_sum(minkowski.lift_layer(construct_shallow_optimal(3, (2,) * 5, seed=1))),
        minkowski.classify_vertices, 32, 215,
    ),
    (lambda: construct_shallow_optimal(2, (3, 3, 2), seed=1), enumerate_cells, 35, 229),
    (lambda: construct_shallow_optimal_nobias(3, (3, 3, 3), seed=1), lambda l: build_poset(build_atoms(l)), 147, 819),
], ids=["count_regions_bruteforce", "count_regions_reference", "classify_vertices", "enumerate_cells",
        "build_poset"])
def test_lp_and_pivot_counts_of_fixed_stages(make, run, lps, pivots):
    x = make()
    start, pivot_start = lp_call_count(), lp_pivot_count()
    run(x)
    assert (lp_call_count() - start, lp_pivot_count() - pivot_start) == (lps, pivots)


def test_determinism_bitwise():
    cons = [((3, -2), GE, -7), ((-1, 4), GE, -5), ((1, 1), GE, -1)]
    a = solve_lp(2, [-2, -5], cons)
    b = solve_lp(2, [-2, -5], cons)
    assert a == b


@pytest.mark.parametrize("seed", range(40))
def test_random_boxed_lps_match_enumeration_oracle(seed):
    rng = random.Random(1000 + seed)
    d = rng.choice([1, 2, 3])
    n_cons = rng.randint(1, 4)
    cons = []
    for _ in range(n_cons):
        coeffs = [rng.randint(-4, 4) for _ in range(d)]
        op = EQ if rng.random() < 0.25 else GE
        cons.append((coeffs, op, rng.randint(-5, 5)))
    obj = [rng.randint(-3, 3) for _ in range(d)]
    box = 10
    boxed = list(cons)
    for j in range(d):
        e = [0] * d
        e[j] = 1
        boxed.append((e[:], GE, -box))
        boxed.append(([-v for v in e], GE, -box))
    res = solve_lp(d, obj, boxed)
    expected = solve_boxed_lp_by_enumeration(d, [Fraction(c) for c in obj], cons, box)
    if expected is None:
        assert res.status == INFEASIBLE
    else:
        assert res.status == OPTIMAL
        assert res.value == expected
        for coeffs, op, r in boxed:
            v = sum(Fraction(c) * x for c, x in zip(coeffs, res.x))
            assert v == r if op == EQ else v >= r


def test_drop_lps_with_large_coefficients_match_fraction_reference():
    # Drop LPs built as minkowski._drop_to_hull builds them, on the lifted
    # sum of shallow-max (3; 2,2,2,2,2): 32 points in Q^4 whose last
    # coordinates have denominators near 10^6, so the tableau's Bareiss
    # entries run to several bytes, far past the small draws of _lps.
    # Under Bland's rule the witness and the pivots are the reference's.
    layer = construct_shallow_optimal(3, (2, 2, 2, 2, 2), 1)
    points = minkowski.minkowski_sum(minkowski.lift_layer(layer)).points
    ints, scale = minkowski._integer_points(points)
    rng = random.Random(2104)
    statuses = set()
    for i in rng.sample(range(len(ints)), 20):
        p, others = ints[i], ints[:i] + ints[i + 1:]
        k, last = len(others), len(p) - 1
        cons = [([q[c] for q in others] + [-scale if c == last else 0], EQ, p[c]) for c in range(len(p))]
        cons.append(([1] * k + [0], EQ, 1))
        lp = (k + 1, [0] * k + [-1], cons, [True] * (k + 1))
        ref_start = reference_pivot_count()
        expected = solve_lp_reference(*lp)
        start = lp_pivot_count()
        assert solve_lp(*lp) == expected
        assert lp_pivot_count() - start == reference_pivot_count() - ref_start
        statuses.add(expected.status)
    assert max(abs(v) for q in ints for v in q) > 2**40
    assert statuses == {OPTIMAL, INFEASIBLE}


# Small ints and Fractions with denominators up to 6; rhs is 0 often, so rows
# with denominators and a zero rhs (slack entry -scale, no sign flip) occur.
# A row times a common factor would change the tableau if rows were
# gcd-reduced, and a zero objective returns the phase-1 point as it stands.
_NUMBERS = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)
_RHS = st.one_of(st.just(0), st.just(Fraction(0)), _NUMBERS)


@st.composite
def _lps(draw):
    d = draw(st.integers(0, 4))
    vec = st.lists(_NUMBERS, min_size=d, max_size=d)
    row = st.tuples(vec, st.sampled_from([EQ, GE]), _RHS, st.integers(1, 3)).map(
        lambda t: ([c * t[3] for c in t[0]], t[1], t[2] * t[3])
    )
    cons = draw(st.lists(row, max_size=6))
    nonneg = draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=d, max_size=d)))
    obj = draw(st.one_of(st.just([0] * d), vec))
    return d, obj, cons, nonneg, draw(st.booleans())


def _solve_for_reference(d, obj, cons, nonneg, maximize, **kw):
    """solve_lp as solve_lp_reference reports it: a minimum is the negated
    maximum of the negated objective, at the same witness."""
    res = solve_lp(d, obj if maximize else [-c for c in obj], cons, nonneg, **kw)
    return res if maximize or res.value is None else LPResult(res.status, -res.value, res.x)


@settings(max_examples=500, deadline=None)
@given(_lps())
def test_matches_fraction_reference(lp):
    # The reference keeps its artificial columns and carries both cost rows
    # through every pivot; solve_lp takes the same pivots, drive-out pivots
    # included, with neither.
    ref_start = reference_pivot_count()
    expected = solve_lp_reference(*lp)
    start = lp_pivot_count()
    assert _solve_for_reference(*lp) == expected
    assert lp_pivot_count() - start == reference_pivot_count() - ref_start


# LPs that mix EQ rows, GE rows whose lcm scale is above 1 (slack entry
# -scale, so an artificial) and zero-rhs rows.  "mixed" pivots in both
# phases, "drive-out" drives a basic artificial out between them, and
# "redundant" leaves one on a redundant zero row.
SHAPE_LPS = {
    "mixed": (3, [1, -1, 2], [
        ([1, 1, 1], EQ, 4),
        ([Fraction(1, 2), -1, 0], GE, Fraction(-1, 3)),
        ([0, 1, -1], GE, 0),
        ([-1, 0, 0], GE, -3),
        ([Fraction(2, 3), 1, 0], GE, 0),
    ], [True, False, True]),
    "drive-out": (3, [-1, 2, 1], [([0, 2, 1], GE, 2), ([1, 2, 2], EQ, 2)], [True] * 3),
    "redundant": (2, [1, 1], [([1, 1], EQ, 2), ([2, 2], EQ, 4), ([Fraction(-1, 2), 0], GE, Fraction(-3, 2))], None),
    "beale": BEALE,
}


@pytest.mark.parametrize("name", SHAPE_LPS)
def test_tableau_has_no_artificial_column_and_one_cost_row(monkeypatch, name):
    # Each pivot sees the m constraint rows and one cost row, each with a
    # column per structural variable and per slack and the rhs slot: no
    # artificial column, and the two phases' cost rows never ride together.
    num_vars, _, cons, nonneg = lp = SHAPE_LPS[name]
    shapes = []
    real_pivot = linalg.pivot

    def recording_pivot(rows, prow, s, den):
        shapes.append(([len(r) for r in rows], id(rows[-1])))
        return real_pivot(rows, prow, s, den)

    monkeypatch.setattr(linalg, "pivot", recording_pivot)
    res = solve_lp(*lp)
    monkeypatch.undo()
    assert res == solve_lp_reference(*lp, True)
    n_struct = sum(1 if nonneg and nonneg[j] else 2 for j in range(num_vars))
    n_slack = sum(op == GE for _, op, _ in cons)
    assert shapes
    for lens, _ in shapes:
        assert lens == [n_struct + n_slack + 1] * (len(cons) + 1)
    cost_rows = set(row for _, row in shapes)
    assert len(cost_rows) == (1 if name == "redundant" else 2)


def _satisfies(x, cons, nonneg):
    for coeffs, op, r in cons:
        v = sum(Fraction(c) * xi for c, xi in zip(coeffs, x))
        if not (v == r if op == EQ else v >= r):
            return False
    return all(xi >= 0 for xi, nn in zip(x, nonneg or []) if nn)


@settings(max_examples=500, deadline=None)
@given(_lps())
def test_largest_coefficient_rule_matches_fraction_reference(lp):
    # The rule may reach another optimal vertex, so the witness is checked
    # for feasibility and value rather than compared.
    d, obj, cons, nonneg, maximize = lp
    expected = solve_lp_reference(*lp)
    res = _solve_for_reference(*lp, entering=DANTZIG)
    assert (res.status, res.value) == (expected.status, expected.value)
    if res.status != INFEASIBLE:
        assert _satisfies(res.x, cons, nonneg)
    if res.status == OPTIMAL:
        assert sum(Fraction(c) * xi for c, xi in zip(obj, res.x)) == res.value


def test_unknown_entering_rule_is_refused():
    with pytest.raises(ValueError, match="entering rule"):
        solve_lp(1, [1], [((-1,), GE, -1)], entering="steepest")
    assert solve_lp(1, [1], [((-1,), GE, -1)], entering=BLAND) == _one_lp()


def test_rows_are_not_gcd_reduced():
    # Dividing the first row by 2 would change the phase-1 cost row, so
    # Bland's rule would take other pivots and return the optimal vertex
    # (2, 4, 0) instead.
    cons = [([2, 0, 0], EQ, 4), ([-1, 2, 0], GE, -1), ([1, -1, -1], EQ, -2)]
    args = (3, [-1, 0, 0], cons, [False, True, False])
    res = solve_lp(*args)
    assert res.x == (2, Fraction(1, 2), Fraction(7, 2))
    assert res == solve_lp_reference(*args)


def test_zero_rhs_row_with_denominators_keeps_its_sign():
    # 2/3 x + y >= 0 scales to 2x + 3y - 3s = 0: no sign flip, since only a
    # slack entry of -1 flips a zero-rhs row.  Flipping it would change the
    # phase-1 cost row, and the LP would return (-4, 8/3) instead.
    cons = [([Fraction(2, 3), 1], GE, 0), ([-1, -1], GE, 0), ([Fraction(1, 2), 0], GE, -2)]
    args = (2, [0, 0], cons, [False, True])
    res = solve_lp(*args)
    assert res.x == (-4, 4)
    assert res == solve_lp_reference(*args)


@pytest.mark.parametrize("bad", [True, 0.5])
def test_non_exact_inputs_raise_type_error(bad):
    with pytest.raises(TypeError):
        solve_lp(1, [1], [((bad,), GE, 0)])
    with pytest.raises(TypeError):
        solve_lp(1, [1], [((1,), GE, bad)])
    with pytest.raises(TypeError):
        solve_lp(1, [bad], [((1,), GE, 0)])


def _one_lp():
    return solve_lp(1, [1], [((-1,), GE, -1)])


def test_lp_budget_refuses_the_lp_past_its_limit_uncounted():
    start = lp_call_count()
    with pytest.raises(BudgetExceededError, match="TROPIC_BUDGET_LP"), lp_budget(3):
        for _ in range(5):
            _one_lp()
    assert lp_call_count() - start == 3


def test_lp_budget_limit_is_restored_on_exit_and_on_error():
    with lp_budget(1):
        _one_lp()
    with pytest.raises(BudgetExceededError), lp_budget(1):
        _one_lp()
        _one_lp()
    assert linprog._lp_limit is None
    with lp_budget(2):
        with pytest.raises(BudgetExceededError), lp_budget(0):
            _one_lp()
        _one_lp()  # the outer block's limit, not the spent inner one
        _one_lp()
    assert linprog._lp_limit is None


def test_nested_lp_budget_keeps_the_tighter_limit():
    start = lp_call_count()
    with pytest.raises(BudgetExceededError), lp_budget(2), lp_budget(10):
        for _ in range(5):
            _one_lp()
    assert lp_call_count() - start == 2
    start = lp_call_count()
    with pytest.raises(BudgetExceededError), lp_budget(10), lp_budget(1):
        for _ in range(5):
            _one_lp()
    assert lp_call_count() - start == 1


@pytest.mark.parametrize("objective,constraints,nonneg,message", [
    ([1, 1, 1], [], None, "objective length != num_vars"),
    ([1, 1], [], [True], "nonneg length != num_vars"),
    ([1, 1], [], [True, True, False, True], "nonneg length != num_vars"),
    ([1, 1], [([1], GE, 0)], None, "constraint length != num_vars"),
    ([1, 1], [([1, 0], "<=", 0)], None, "unknown constraint op '<='"),
], ids=["objective-length", "short-nonneg", "long-nonneg", "constraint-length", "unknown-op"])
def test_malformed_lps_are_refused(objective, constraints, nonneg, message):
    # A nonneg list of the wrong length is refused, neither indexed past nor
    # ignored.  A refused LP is not counted, so it spends none of a budget:
    # inside lp_budget(1) the next valid LP is still solved.
    start = lp_call_count()
    with pytest.raises(ValueError) as info:
        solve_lp(2, objective, constraints, nonneg=nonneg)
    assert str(info.value) == message
    assert lp_call_count() == start
    with lp_budget(1):
        with pytest.raises(ValueError):
            solve_lp(2, objective, constraints, nonneg=nonneg)
        assert _one_lp().status == OPTIMAL
    assert lp_call_count() - start == 1
