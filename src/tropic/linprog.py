"""Exact rational linear programming via simplex with Bland's rule.

All arithmetic is exact: the tableau is kept as integers sharing a single
positive denominator (the determinant of the current basis), so every pivot
is one exact division per entry.  Bland's rule guarantees termination and
makes the returned witness deterministic for a fixed input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

EQ = "="
GE = ">="

_lp_calls = 0


class BudgetExceededError(RuntimeError):
    """Raised when an operation exceeds its LP-call budget.

    The message names the controlling knobs (--lp-budget / TROPIC_BUDGET_LP).
    """


class InternalError(RuntimeError):
    """An internal invariant failed; a bug in tropic, not in its input."""


def lp_call_count() -> int:
    """Total solve_lp invocations in this process, plus those charged from
    worker processes; used for budget accounting."""
    return _lp_calls


def charge_lp_calls(count: int) -> None:
    """Count LPs that a worker process solved on this process's behalf."""
    global _lp_calls
    _lp_calls += count


@dataclass(frozen=True)
class LPResult:
    status: str
    value: Fraction | None
    x: tuple[Fraction, ...] | None


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(f"exact arithmetic requires int or Fraction, got {type(v).__name__}")
    return Fraction(v)


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise InternalError("integer pivot lost exactness")
    return q


def solve_lp(
    num_vars: int,
    objective: Sequence,
    constraints: Iterable[tuple[Sequence, str, object]],
    nonneg: Sequence[bool] | None = None,
    maximize: bool = True,
) -> LPResult:
    """Maximize (or minimize) objective . x subject to linear constraints.

    constraints are triples (coeffs, op, rhs) with op '=' or '>=' (meaning
    coeffs . x >= rhs).  Variables are free unless nonneg marks them.
    Returns an exact optimum with a rational witness, or infeasible/unbounded.
    """
    global _lp_calls
    _lp_calls += 1

    obj = [_as_fraction(c) for c in objective]
    if len(obj) != num_vars:
        raise ValueError("objective length != num_vars")
    if not maximize:
        obj = [-c for c in obj]
    if nonneg is None:
        nonneg = [False] * num_vars

    # Column layout: per variable one column (nonneg) or a split pair
    # (free x = pos - neg), then one slack per '>=' row, then artificials.
    pos_col: list[int] = []
    neg_col: list[int] = []
    ncols = 0
    for j in range(num_vars):
        pos_col.append(ncols)
        ncols += 1
        if nonneg[j]:
            neg_col.append(-1)
        else:
            neg_col.append(ncols)
            ncols += 1

    frac_rows: list[list[Fraction]] = []
    frac_rhs: list[Fraction] = []
    slack_of_row: list[int] = []
    for coeffs, op, rhs in constraints:
        coeffs = list(coeffs)
        if len(coeffs) != num_vars:
            raise ValueError("constraint length != num_vars")
        row = [Fraction(0)] * ncols
        for j in range(num_vars):
            c = _as_fraction(coeffs[j])
            if c:
                row[pos_col[j]] = c
                if neg_col[j] >= 0:
                    row[neg_col[j]] = -c
        if op == GE:
            slack_of_row.append(ncols)
            ncols += 1
        elif op == EQ:
            slack_of_row.append(-1)
        else:
            raise ValueError(f"unknown constraint op {op!r}")
        frac_rows.append(row)
        frac_rhs.append(_as_fraction(rhs))

    m = len(frac_rows)
    for row in frac_rows:
        row.extend([Fraction(0)] * (ncols - len(row)))
    for i, sc in enumerate(slack_of_row):
        if sc >= 0:
            frac_rows[i][sc] = Fraction(-1)  # a.x - s = rhs, s >= 0

    # Rows become integers (scaled independently), sign-normalized to rhs >= 0.
    # Each tableau row has ncols structural entries plus the rhs at index -1.
    T: list[list[int]] = []
    for i in range(m):
        scale = 1
        for v in frac_rows[i] + [frac_rhs[i]]:
            scale = scale * v.denominator // gcd(scale, v.denominator)
        irow = [int(v * scale) for v in frac_rows[i]]
        ib = int(frac_rhs[i] * scale)
        sc = slack_of_row[i]
        if ib < 0 or (ib == 0 and sc >= 0 and irow[sc] == -1):
            irow = [-v for v in irow]
            ib = -ib
        irow.append(ib)
        T.append(irow)

    # Initial basis: a row's own slack when it has coefficient +1 after the
    # sign flip, else a fresh artificial column.
    basis: list[int] = [-1] * m
    for i in range(m):
        sc = slack_of_row[i]
        if sc >= 0 and T[i][sc] == 1:
            basis[i] = sc
    n_before_art = ncols
    for i in range(m):
        if basis[i] == -1:
            for r in range(m):
                T[r].insert(-1, 1 if r == i else 0)
            basis[i] = ncols
            ncols += 1
    is_art = [j >= n_before_art for j in range(ncols)]

    # Cost rows ride along through every pivot (same integer update), with
    # the running objective value in the rhs slot.
    z1 = [0] * (ncols + 1)
    for i in range(m):
        if is_art[basis[i]]:
            for j in range(ncols + 1):
                z1[j] += T[i][j]
    for c in range(n_before_art, ncols):
        z1[c] = 0

    zscale = 1
    for c in obj:
        zscale = zscale * c.denominator // gcd(zscale, c.denominator)
    z2 = [0] * (ncols + 1)
    for j in range(num_vars):
        v = int(obj[j] * zscale)
        if v:
            z2[pos_col[j]] = v
            if neg_col[j] >= 0:
                z2[neg_col[j]] = -v

    den = 1
    rhs_i = ncols  # index of the rhs slot in every row

    def pivot(r: int, s: int) -> None:
        nonlocal den
        piv = T[r][s]
        if piv <= 0:
            raise InternalError(f"pivot element {piv} is not positive")
        prow = T[r]
        d = den
        for row in T + [z1, z2]:
            if row is prow:
                continue
            f = row[s]
            if f:
                if d == 1:
                    row[:] = [a * piv - f * b for a, b in zip(row, prow)]
                else:
                    row[:] = [_exact_div(a * piv - f * b, d) for a, b in zip(row, prow)]
            elif piv != d:
                if d == 1:
                    row[:] = [a * piv for a in row]
                else:
                    row[:] = [_exact_div(a * piv, d) for a in row]
        basis[r] = s
        den = piv

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

    def run(zrow: list[int]) -> str:
        while True:
            enter = -1
            for j in range(ncols):
                if not is_art[j] and zrow[j] > 0 and basis_row.get(j) is None:
                    enter = j
                    break
            if enter == -1:
                return OPTIMAL
            leave = ratio_row(enter)
            if leave == -1:
                return UNBOUNDED
            del basis_row[basis[leave]]
            basis_row[enter] = leave
            pivot(leave, enter)

    basis_row: dict[int, int] = {basis[i]: i for i in range(m)}

    if run(z1) != OPTIMAL:
        raise InternalError("phase 1 unbounded, but the artificial sum is >= 0")
    if z1[rhs_i] != 0:
        return LPResult(INFEASIBLE, None, None)

    # Drive basic artificials out (or leave them on redundant zero rows).
    for i in range(m):
        if is_art[basis[i]]:
            for j in range(ncols):
                if not is_art[j] and T[i][j] != 0 and basis_row.get(j) is None:
                    if T[i][j] < 0:
                        T[i] = [-v for v in T[i]]
                    del basis_row[basis[i]]
                    basis_row[j] = i
                    pivot(i, j)
                    break

    status = run(z2)

    x = [Fraction(0)] * num_vars
    for j in range(num_vars):
        v = Fraction(0)
        r = basis_row.get(pos_col[j])
        if r is not None:
            v += Fraction(T[r][rhs_i], den)
        if neg_col[j] >= 0:
            r = basis_row.get(neg_col[j])
            if r is not None:
                v -= Fraction(T[r][rhs_i], den)
        x[j] = v

    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, tuple(x))
    value = sum((obj[j] * x[j] for j in range(num_vars)), Fraction(0))
    if not maximize:
        value = -value
    return LPResult(OPTIMAL, value, tuple(x))
