"""Independent brute-force oracles used to validate the fast paths.

These deliberately avoid the library's simplex/closed-form code paths:
LP optima come from exact vertex enumeration over constraint subsets, and
Euler characteristics come from the definitional alternating sum over a
face decomposition.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from tropic.arrangement import Cell
from tropic.geometry import (
    ConstraintSystem,
    affine_dimension,
    recession_profile,
    strictly_feasible,
)
from tropic.linalg import dot, rank
from tropic.linprog import EQ, GE


def solve_boxed_lp_by_enumeration(num_vars, objective, constraints, box):
    """Exact optimum of a boxed LP: try every basis-sized subset of tight rows.

    The box [-B, B]^d is appended, making the feasible set a polytope, so the
    optimum (if feasible) is attained at a vertex, i.e. at a point where some
    d constraints hold with equality and the rest hold.
    """
    rows = [(tuple(Fraction(c) for c in coeffs), op, Fraction(r)) for coeffs, op, r in constraints]
    for j in range(num_vars):
        e = [Fraction(0)] * num_vars
        e[j] = Fraction(1)
        rows.append((tuple(e), GE, Fraction(-box)))
        rows.append((tuple(-v for v in e), GE, Fraction(-box)))
    best = None
    for subset in combinations(range(len(rows)), num_vars):
        mat = [list(rows[i][0]) + [rows[i][2]] for i in subset]
        x = _solve_square(mat, num_vars)
        if x is None:
            continue
        ok = True
        for coeffs, op, r in rows:
            v = dot(coeffs, x)
            if (op == EQ and v != r) or (op == GE and v < r):
                ok = False
                break
        if ok:
            val = dot(objective, x)
            if best is None or val > best:
                best = val
    return best


def _solve_square(mat, n):
    # Gaussian elimination on [A | b]; None when singular.
    m = [row[:] for row in mat]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        pv = m[c][c]
        m[c] = [v / pv for v in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return tuple(m[i][n] for i in range(n))


def euler_characteristic_by_decomposition(sys: ConstraintSystem) -> int:
    """Definitional Euler characteristic: alternating sum over the relatively
    open faces obtained by forcing each subset of inequalities tight."""
    total = 0
    n_in = len(sys.inequalities)
    for mask in range(1 << n_in):
        tight = [sys.inequalities[i] for i in range(n_in) if mask >> i & 1]
        rest = [sys.inequalities[i] for i in range(n_in) if not mask >> i & 1]
        piece = ConstraintSystem(
            sys.ambient_dim, sys.equalities + tuple(tight), tuple(rest)
        )
        if strictly_feasible(piece) is None:
            continue
        dim = affine_dimension(piece)
        total += -1 if dim % 2 else 1
    return total


def enumerate_cells_unpruned(layer) -> list[Cell]:
    """Every argmax signature decided on its own, with no prefix pruning:
    the slow path that the pruned frontier of enumerate_cells replaced.

    Signatures run in lexicographic order over each unit's nonempty feature
    subsets.  Each system lists all ties, then all strict dominances, unit
    by unit and in feature order, as enumerate_cells does, so equal cells
    carry equal witnesses.
    """
    n = layer.input_dim
    per_unit = [
        [s for size in range(1, u.rank + 1) for s in combinations(range(u.rank), size)]
        for u in layer.units
    ]
    cells = []
    for sig in product(*per_unit):
        eqs, ineqs = [], []
        for u, chosen in zip(layer.units, sig):
            feats = u.features()
            wr, br = feats[chosen[0]]
            for c, (wc, bc) in enumerate(feats):
                row = (tuple(x - y for x, y in zip(wr, wc)), bc - br)
                if c in chosen[1:]:
                    eqs.append(row)
                elif c not in chosen:
                    ineqs.append(row)
        sys = ConstraintSystem(n, tuple(eqs), tuple(ineqs))
        w = strictly_feasible(sys)
        if w is None:
            continue
        prof = recession_profile(sys)
        cells.append(
            Cell(
                tuple(frozenset(c + 1 for c in t) for t in sig),
                n - rank([c for c, _ in eqs]),
                prof.lineality_dim == 0 and prof.pointed_part_bounded,
                w,
            )
        )
    return cells
