"""Exact rational linear programming via the simplex method.

Every LP maximizes: a caller that wants a minimum maximizes the negated
objective and negates the optimum.

All arithmetic is exact and integer.  Each constraint row is built straight
from the numerators and denominators of its int or Fraction inputs: the row
is multiplied by the lcm of its denominators (its slack entry becomes
-scale) and is not gcd-reduced, so no Fraction is formed until the witness
is read off.  The tableau then shares a single positive denominator (the
determinant of the current basis) and every pivot is the fraction-free
update of Bareiss (1968) in linalg.pivot.  The update is exact, so a basic
column is den in its own row and 0 in every other row, the cost row
included: its reduced cost is exactly 0.  No set of basic columns is kept
beside the basis list, as a positive reduced cost already names a nonbasic
column, and the witness is read off the basis list.

The tableau carries only what the simplex reads.  No artificial ever
enters, so an artificial is a basis label with no column.  Phase 1 carries
its own cost row z1, the sum of the artificial rows, and drops it at its
end.  Phase 2's cost row z2 is built once, at the basis phase 1 leaves, as
den c minus each basic column's cost times its row: a scaled reduced-cost
row is fixed by being 0 on the basic columns (Chvatal 1983), so this is the
row that pivoting den c along from the start would have given.  An
infeasible LP never builds it.

Both phases run one pivot loop with two entering rules.  Bland's rule
(BLAND, the default) enters the lowest column with a positive reduced
cost; its witness is a fixed function of the input, so every LP whose
point is emitted or reused uses it.  DANTZIG enters the column with the
largest reduced cost until the first degenerate pivot (one whose leaving
row has right-hand side 0), then follows Bland's rule for the rest of the
LP, phase 2 included.  Both terminate: before that switch every pivot
strictly improves the phase objective, so no basis repeats, and after it
Bland's rule cannot cycle.  The status and the optimal value do not depend
on the rule; the witness may.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import linalg
from .linalg import InternalError, integer_row

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

EQ = "="
GE = ">="

BLAND = "bland"
DANTZIG = "dantzig"

_lp_calls = 0
_lp_pivots = 0
_lp_limit: int | None = None  # lp_call_count() may not pass this; None: no limit


class BudgetExceededError(RuntimeError):
    """Raised when LPs would pass the limit of the innermost lp_budget
    block: the next solve_lp, or the cells of enumerate_cells when they
    need more LPs than are left.

    The message names the knob to raise (--lp-budget / TROPIC_BUDGET_LP).
    """


def lp_call_count() -> int:
    """Total solve_lp invocations in this process; used for budget
    accounting."""
    return _lp_calls


def lp_pivot_count() -> int:
    """Total simplex tableau pivots of solve_lp in this process; like LP
    calls, a count that does not depend on the host."""
    return _lp_pivots


def require_lp_headroom(count: int) -> None:
    """Raise BudgetExceededError unless count more LPs fit under the current
    limit; solves nothing.  The one budget test."""
    if _lp_limit is not None and _lp_calls + count > _lp_limit:
        raise BudgetExceededError(
            "LP call budget exceeded; raise --lp-budget (env TROPIC_BUDGET_LP)"
        )


@contextmanager
def lp_budget(limit: int):
    """Allow at most limit more LPs inside the block.

    solve_lp refuses, uncounted, the LP that would pass the limit.  Nested
    blocks keep the tighter limit, and the previous limit comes back when
    the block exits, normally or by an exception.
    """
    global _lp_limit
    saved = _lp_limit
    _lp_limit = _lp_calls + limit if saved is None else min(saved, _lp_calls + limit)
    try:
        yield
    finally:
        _lp_limit = saved


@dataclass(frozen=True)
class LPResult:
    status: str
    value: Fraction | None
    x: tuple[Fraction, ...] | None


def solve_lp(
    num_vars: int,
    objective: Sequence,
    constraints: Iterable[tuple[Sequence, str, object]],
    nonneg: Sequence[bool] | None = None,
    *,
    entering: str = BLAND,
) -> LPResult:
    """Maximize objective . x subject to linear constraints.

    constraints are triples (coeffs, op, rhs) with op '=' or '>=' (meaning
    coeffs . x >= rhs).  Variables are free unless nonneg marks them.
    Returns an exact optimum with a rational witness, or infeasible/unbounded.
    entering picks the entering rule (see the module docstring): BLAND
    makes the witness deterministic; DANTZIG usually takes fewer pivots and
    suits callers that read only the status and the value.
    """
    if entering not in (BLAND, DANTZIG):
        raise ValueError(f"unknown entering rule {entering!r}")
    global _lp_calls

    zcoef, zscale = integer_row(objective)
    if len(zcoef) != num_vars:
        raise ValueError("objective length != num_vars")
    if nonneg is None:
        nonneg = [False] * num_vars
    elif len(nonneg) != num_vars:
        raise ValueError("nonneg length != num_vars")

    # Column layout: per variable one column (nonneg) or a split pair
    # (free x = pos - neg), each the (variable, sign) pair it carries, then
    # one slack per '>=' row, then the rhs slot.
    cols = [(j, sign) for j in range(num_vars) for sign in ((1,) if nonneg[j] else (1, -1))]
    n_struct = len(cols)

    # Rows become integers: each is multiplied by the lcm of its
    # denominators (its slack entry becomes -scale), not gcd-reduced, and
    # sign-normalized to rhs >= 0; a zero-rhs row flips only when its slack
    # entry is -1.
    rows: list[tuple[list[int], int, int]] = []  # (structural, slack entry or 0, rhs)
    for coeffs, op, rhs in constraints:
        ints, scale = integer_row([*coeffs, rhs])
        if len(ints) != num_vars + 1:
            raise ValueError("constraint length != num_vars")
        if op not in (GE, EQ):
            raise ValueError(f"unknown constraint op {op!r}")
        ib = ints.pop()
        irow = [ints[j] * sign for j, sign in cols]
        s = -scale if op == GE else 0
        if ib < 0 or (ib == 0 and s == -1):
            irow = [-v for v in irow]
            ib = -ib
            s = -s
        rows.append((irow, s, ib))

    # A malformed LP is refused above, before it is counted.
    require_lp_headroom(1)
    _lp_calls += 1

    # A row keeps its own slack as the initial basic column when that entry
    # is +1, else it gets an artificial.  No artificial ever enters, so no
    # line reads an artificial's column: an artificial is only a basis
    # label (>= n_before_art), and the rhs slot follows the slacks.
    m = len(rows)
    n_slack = sum(s != 0 for _, s, _ in rows)
    n_before_art = n_struct + n_slack
    rhs_i = n_before_art  # index of the rhs slot in every row
    T: list[list[int]] = []
    basis: list[int] = []
    # Phase 1 maximizes minus the sum of the artificials; its cost row is
    # the sum of the artificial rows, with that sum (times den) in the rhs
    # slot.
    z1 = [0] * (rhs_i + 1)
    slack, art = n_struct, n_before_art
    for irow, s, ib in rows:
        row = irow + [0] * n_slack + [ib]
        if s:
            row[slack] = s
            slack += 1
        if s == 1:
            basis.append(slack - 1)
        else:
            basis.append(art)
            art += 1
            z1 = [a + b for a, b in zip(z1, row)]
        T.append(row)

    den = 1
    all_rows = T + [z1]  # rows are updated in place, so this stays valid

    def pivot(r: int, s: int) -> None:
        nonlocal den
        global _lp_pivots
        if T[r][s] <= 0:
            raise InternalError(f"pivot element {T[r][s]} is not positive")
        den = linalg.pivot(all_rows, T[r], s, den)
        _lp_pivots += 1
        basis[r] = s

    def ratio_row(s: int) -> int:
        best = -1
        for i in range(m):
            if T[i][s] > 0:
                if best == -1:
                    best = i
                else:
                    lhs = T[i][rhs_i] * T[best][s]
                    rhs = T[best][rhs_i] * T[i][s]
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                        best = i
        return best

    bland = entering == BLAND  # DANTZIG hands over to Bland's rule for good

    def run(zrow: list[int]) -> str:
        # A basic column's reduced cost is 0, so every positive one is
        # nonbasic.  Reduced costs share the tableau's denominator, so the
        # integer entries compare directly.
        nonlocal bland
        while True:
            enter = next((j for j in range(n_before_art) if zrow[j] > 0), -1)
            if enter == -1:
                return OPTIMAL
            if not bland:
                enter = max(range(enter, n_before_art), key=zrow.__getitem__)
            leave = ratio_row(enter)
            if leave == -1:
                return UNBOUNDED
            bland = bland or T[leave][rhs_i] == 0
            pivot(leave, enter)

    if run(z1) != OPTIMAL:
        raise InternalError("phase 1 unbounded, but the artificial sum is >= 0")
    if z1[rhs_i] != 0:
        return LPResult(INFEASIBLE, None, None)

    # Phase 2's cost row, built once at the basis phase 1 left: den c minus
    # each basic column's cost times its row is 0 on every basic column, so
    # it is the row that pivoting c along from the start would have given.
    # z1 is not read again, so z2 takes its place in the pivoted rows.
    cost = [zcoef[j] * sign for j, sign in cols]
    z2 = [den * v for v in cost] + [0] * (n_slack + 1)
    for i, b in enumerate(basis):
        if b < n_struct and cost[b]:
            z2 = [a - cost[b] * v for a, v in zip(z2, T[i])]
    all_rows[-1] = z2

    # Drive basic artificials out (or leave them on redundant zero rows);
    # a basic column is 0 in every other row, so a nonzero entry is nonbasic.
    for i in range(m):
        if basis[i] >= n_before_art:
            row = T[i]
            j = next((j for j in range(n_before_art) if row[j]), None)
            if j is not None:
                if row[j] < 0:
                    row[:] = [-v for v in row]
                pivot(i, j)

    status = run(z2)

    # Witness numerators over the common denominator den.
    xnum = [0] * num_vars
    for i, b in enumerate(basis):
        if b < n_struct:
            j, sign = cols[b]
            xnum[j] += sign * T[i][rhs_i]
    x = tuple(Fraction(v, den) for v in xnum)

    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, x)
    value = Fraction(sum(c * v for c, v in zip(zcoef, xnum)), zscale * den)
    return LPResult(OPTIMAL, value, x)
