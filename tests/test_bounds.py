import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropic.bounds import (
    DeepLowerResult,
    alternating_subsum,
    binom,
    deep_lower,
    deep_upper,
    deep_upper_uniform,
    elementary_symmetric,
    identity_inclusion_exclusion,
    identity_reformulation,
    prior_bounds,
    shallow_formula,
    trivial_bound,
)


class TestShallowFormula:
    def test_hyperplane_case(self):
        assert shallow_formula(2, (2, 2, 2)) == 7

    def test_few_units_trivial(self):
        assert shallow_formula(3, (3, 4)) == 12 == trivial_bound((3, 4))

    def test_nobias_hyperplanes(self):
        assert shallow_formula(2, (2, 2, 2), with_bias=False) == 6

    def test_mixed_ranks(self):
        assert shallow_formula(2, (3, 3)) == 9

    def test_one_input_nobias(self):
        assert shallow_formula(1, (5,), with_bias=False) == 2

    def test_nobias_all_rank_one(self):
        assert shallow_formula(2, (1, 1), with_bias=False) == 1

    def test_rank_one_units_ignored(self):
        assert shallow_formula(2, (3, 1, 3)) == shallow_formula(2, (3, 3))

    def test_bad_query(self):
        with pytest.raises(ValueError):
            shallow_formula(0, (2,))


class TestTrivialBound:
    def test_values(self):
        assert trivial_bound((3, 3)) == 9
        assert trivial_bound((2, 2, 2, 2)) == 16
        assert trivial_bound(()) == 1


class TestDeepBounds:
    def test_square_network(self):
        assert deep_upper_uniform(2, [2, 2], 3) == 81 == trivial_bound((3,) * 4)

    def test_narrow_input(self):
        assert deep_upper_uniform(1, [3], 2) == 4 == shallow_formula(1, (2, 2, 2))

    def test_nobias_layer(self):
        assert deep_upper_uniform(2, [3], 3, with_bias=False) == 9

    def test_mixed_ranks_per_layer(self):
        assert deep_upper(2, [2, 1], [[3, 2], [4]]) == shallow_formula(2, (3, 2)) * shallow_formula(1, (4,))

    def test_nobias_rank_one_units_count_nothing(self):
        # Each layer's factor is the shallow maximum, which ignores rank-1
        # units without bias as well.
        assert deep_upper(2, [2], [[1, 1]], False) == 1 == shallow_formula(2, (1, 1), False)
        assert deep_upper(2, [3], [[3, 1, 3]], False) == shallow_formula(2, (3, 1, 3), False)

    @pytest.mark.parametrize("args", [
        (0, [2], [[2, 2]]), (2, [], []), (2, [2], [[2]]), (2, [2], [[2, -1]]),
    ])
    def test_upper_rejects_bad_architectures(self, args):
        with pytest.raises(ValueError):
            deep_upper(*args)

    def test_lower_values(self):
        r = deep_lower(2, [2, 2], 3)
        assert (r.value, r.n) == (25, 1)
        r = deep_lower(1, [2, 1], 2)
        assert (r.value, r.n) == (6, 1)

    def test_lower_tie_takes_the_largest_n(self):
        # With no hidden layer every n >= n_L attains k^n_L; the largest is
        # the n that construct_deep_lower builds.
        assert deep_lower(3, [1], 2) == DeepLowerResult(2, 3)
        assert deep_lower(4, [2], 3) == DeepLowerResult(9, 4)

    def test_lower_no_admissible_n(self):
        with pytest.raises(ValueError, match="admissible"):
            deep_lower(2, [3, 2], 2)

    def test_lower_at_most_upper(self):
        rng = random.Random(0)
        for _ in range(60):
            n0 = rng.randint(1, 3)
            L = rng.randint(1, 3)
            widths = [rng.choice([2, 4, 6]) for _ in range(L - 1)] + [rng.randint(1, 4)]
            k = rng.randint(2, 4)
            try:
                low = deep_lower(n0, widths, k)
            except ValueError:
                continue
            assert low.value <= deep_upper_uniform(n0, widths, k)


class TestIdentities:
    def test_alternating_subsum_order_and_value(self):
        seen = []

        def value(S):
            seen.append(S)
            return 1

        # With value 1 the sum is the r = 0 case of the inclusion-exclusion
        # identity.
        assert alternating_subsum(4, 2, value) == identity_inclusion_exclusion(4, 2, 0) == 1
        assert seen == [(), (0,), (1,), (2,), (3,),
                        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_inclusion_exclusion_examples(self):
        assert identity_inclusion_exclusion(3, 2, 0) == 1
        assert identity_inclusion_exclusion(5, 3, 2) == 1
        assert identity_inclusion_exclusion(4, 2, 2) == 1

    def test_inclusion_exclusion_full_grid(self):
        for m in range(1, 13):
            for n in range(m):
                for r in range(n + 1):
                    assert identity_inclusion_exclusion(m, n, r) == 1

    def test_inclusion_exclusion_guard(self):
        with pytest.raises(ValueError):
            identity_inclusion_exclusion(3, 3, 0)

    def test_reformulation_example(self):
        chk = identity_reformulation(3, 2, (3, 3, 3))
        assert chk.lhs == chk.rhs == 19

    def test_reformulation_hyperplane_case(self):
        chk = identity_reformulation(4, 2, (2, 2, 2, 2))
        assert chk.lhs == chk.rhs == sum(binom(4, j) for j in range(3))

    def test_reformulation_guard(self):
        with pytest.raises(ValueError):
            identity_reformulation(2, 2, (3, 3))

    def test_reformulation_500_random(self):
        rng = random.Random(123)
        for _ in range(500):
            m = rng.randint(2, 10)
            n = rng.randint(1, m - 1)
            ranks = [rng.randint(2, 6) for _ in range(m)]
            chk = identity_reformulation(m, n, ranks)
            assert chk.lhs == chk.rhs


class TestPriorBounds:
    def test_example(self):
        assert prior_bounds(2, 3, 3) == (9, 46)

    def test_rank_two_reduces_to_binomials(self):
        n, m = 3, 5
        lower, upper = prior_bounds(n, m, 2)
        assert upper == sum(binom(m, j) for j in range(n + 1))

    def test_wide_input_lower_is_trivial(self):
        assert prior_bounds(7, 3, 4)[0] == trivial_bound((4, 4, 4))

    @pytest.mark.parametrize("n,m,k", [(-2, 3, 3), (0, 3, 3), (2, 0, 3), (2, 3, 0), (2, 3, -1)])
    def test_rejects_sizes_below_one(self, n, m, k):
        with pytest.raises(ValueError, match=">= 1"):
            prior_bounds(n, m, k)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 8),
    st.lists(st.integers(1, 6), min_size=1, max_size=8),
)
def test_hyperplane_reduction(n, ranks_base):
    m = len(ranks_base)
    assert shallow_formula(n, (2,) * m) == sum(binom(m, j) for j in range(n + 1))
    assert shallow_formula(n, (2,) * m, with_bias=False) == 2 * sum(
        binom(m - 1, j) for j in range(n)
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.lists(st.integers(2, 5), min_size=1, max_size=4))
def test_few_units_match_trivial(n, ranks):
    if len(ranks) <= n:
        assert shallow_formula(n, ranks) == trivial_bound(ranks)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.lists(st.integers(2, 5), min_size=1, max_size=5), st.integers(0, 4))
def test_monotonicity(n, ranks, bump_idx):
    base = shallow_formula(n, ranks)
    bumped = list(ranks)
    bumped[bump_idx % len(ranks)] += 1
    assert shallow_formula(n, bumped) >= base
    assert shallow_formula(n + 1, ranks) >= base


def test_elementary_symmetric_matches_subsets():
    from itertools import combinations
    from math import prod

    rng = random.Random(5)
    vals = [rng.randint(-3, 7) for _ in range(6)]
    es = elementary_symmetric(vals, 6)
    for j in range(7):
        assert es[j] == sum(prod(S) for S in combinations(vals, j))


@pytest.mark.parametrize("build,message", [
    (lambda: deep_lower(2, [2, 2], 1), "rank must be >= 2"),
    (lambda: identity_reformulation(3, 1, [2, 1, 2]), "need m ranks, all >= 2"),
], ids=["deep-lower-rank", "reformulation-rank"])
def test_library_refusals(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is ValueError and str(info.value) == message
