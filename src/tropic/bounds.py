"""Closed-form region bounds and combinatorial identities, exact integers.

The workhorse is the elementary symmetric evaluation of sums over unit
subsets: sum over j <= n of e_j applied to the per-unit values, computed by
the one-pass recurrence instead of 2^m subset enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, prod
from typing import Callable, Sequence


def binom(a: int, b: int) -> int:
    """Binomial with out-of-range arguments defined as 0."""
    return comb(a, b) if 0 <= b <= a else 0


def elementary_symmetric(values: Sequence[int], up_to: int) -> list[int]:
    """e_0..e_up_to of the values."""
    e = [0] * (up_to + 1)
    e[0] = 1
    for v in values:
        for j in range(min(up_to, len(e) - 1), 0, -1):
            e[j] += v * e[j - 1]
    return e


def subsum_coefficient(m: int, n: int, j: int) -> int:
    """(-1)^(n-j) C(m-1-j, n-j): the weight of the j-element subsums in the
    alternating sums over at most n of m units or summands."""
    return (-1) ** (n - j) * binom(m - 1 - j, n - j)


def alternating_subsum(m: int, n: int, value: Callable[[tuple[int, ...]], int]) -> int:
    """Sum of subsum_coefficient(m, n, |S|) * value(S) over the subsets S of
    range(m) with |S| <= n, the empty one included, evaluated by size and
    then lexicographically."""
    return sum(
        subsum_coefficient(m, n, j) * sum(value(S) for S in combinations(range(m), j))
        for j in range(n + 1)
    )


@dataclass(frozen=True)
class IdentityCheck:
    lhs: int
    rhs: int


@dataclass(frozen=True)
class DeepLowerResult:
    value: int
    n: int  # the replication dimension attaining the maximum


def shallow_formula(n: int, ranks: Sequence[int], with_bias: bool = True) -> int:
    """Maximum number of linear regions of a single layer.

    With biases: sum over j <= n of e_j(k_i - 1).  Without: the binomial
    correction C(m'-1, n-1) plus the same sum truncated at n-1, where m'
    counts the units of rank > 1.
    """
    if n < 1 or not ranks or any(k < 1 for k in ranks):
        raise ValueError("need n >= 1 and ranks all >= 1")
    vals = [k - 1 for k in ranks]
    if with_bias:
        return sum(elementary_symmetric(vals, n))
    m_eff = sum(1 for k in ranks if k > 1)
    if m_eff == 0:
        return 1
    return binom(m_eff - 1, n - 1) + sum(elementary_symmetric(vals, n - 1))


def trivial_bound(ranks: Sequence[int]) -> int:
    """Product of the ranks: the activation-pattern counting bound."""
    return prod(ranks)


def _check_architecture(n0: int, widths: Sequence[int]) -> None:
    if n0 < 1 or not widths or any(w < 1 for w in widths):
        raise ValueError("invalid architecture")


def deep_upper(n0: int, widths: Sequence[int], ranks: Sequence[Sequence[int]], with_bias: bool = True) -> int:
    """Product over layers of the shallow maximum with the input dimension
    capped by the smallest width seen so far."""
    _check_architecture(n0, widths)
    if len(ranks) != len(widths) or any(len(r) != w for r, w in zip(ranks, widths)):
        raise ValueError("ranks shape must match widths")
    total = 1
    e = n0
    for w, layer_ranks in zip(widths, ranks):
        total *= shallow_formula(e, layer_ranks, with_bias)
        e = min(e, w)
    return total


def deep_upper_uniform(n0: int, widths: Sequence[int], k: int, with_bias: bool = True) -> int:
    return deep_upper(n0, widths, [[k] * w for w in widths], with_bias)


def deep_lower(n0: int, widths: Sequence[int], k: int, with_bias: bool = True) -> DeepLowerResult:
    """Region count realized by the zig-zag construction, maximized over the
    admissible replication dimensions n (reported alongside the value; the
    largest n on a tie, which network.construct_deep_lower builds).  Without
    biases it is the with-bias formula with e = n - 1 in place of n and w - 1
    in place of each hidden width w, and n admits when every such width
    splits into e groups of even size."""
    if k < 2:
        raise ValueError("rank must be >= 2")
    _check_architecture(n0, widths)
    shift = 0 if with_bias else 1
    hidden = [w - shift for w in widths[:-1]]
    best = None
    for n in range(1 + shift, n0 + 1):
        e = n - shift
        if any(h % e or (h // e) % 2 for h in hidden):
            continue
        value = prod(((h // e) * (k - 1) + 1) ** e for h in hidden)
        value *= sum(binom(widths[-1], j) * (k - 1) ** j for j in range(e + 1))
        if best is None or value >= best.value:
            best = DeepLowerResult(value, n)
    if best is None:
        kind = "n_l/n even" if with_bias else "(n_l-1)/(n-1) even"
        raise ValueError(f"no admissible replication dimension ({kind} fails for every n)")
    return best


def identity_inclusion_exclusion(m: int, n: int, r: int) -> int:
    """The alternating binomial sum that collapses to 1 for 0 <= r <= n < m."""
    if not 0 <= r <= n < m:
        raise ValueError("need 0 <= r <= n < m")
    return sum(subsum_coefficient(m, n, j) * binom(m - r, j - r) for j in range(n + 1))


def identity_reformulation(m: int, n: int, ranks: Sequence[int]):
    """Both sides of the rewrite of the alternating subset sum over products
    of ranks into the plain subset sum over products of (rank - 1)."""
    if not (m >= n + 1 >= 1):
        raise ValueError("need m >= n+1 >= 1")
    ranks = list(ranks)
    if len(ranks) != m or any(k < 2 for k in ranks):
        raise ValueError("need m ranks, all >= 2")
    ek = elementary_symmetric(ranks, n)
    lhs = sum(subsum_coefficient(m, n, j) * ek[j] for j in range(n + 1))
    rhs = sum(elementary_symmetric([k - 1 for k in ranks], n))
    return IdentityCheck(lhs, rhs)


def prior_bounds(n: int, m: int, k: int) -> tuple[int, int]:
    """Previously published lower/upper bounds for m uniform rank-k units,
    kept for comparison tables."""
    if min(n, m, k) < 1:
        raise ValueError("need n, m and k >= 1")
    lower = k ** min(n, m)
    upper = sum(binom(m * k * (k - 1) // 2, j) for j in range(n + 1))
    return lower, upper
