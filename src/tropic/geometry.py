"""Exact polyhedral primitives on rational constraint systems.

A ConstraintSystem is a finite list of affine equalities and inequalities
(coeffs . x >= rhs) over Q^d.  Everything downstream (cells, posets, vertex
classification) reduces to the operations here, which in turn reduce to
exact LP feasibility queries.  One common-margin LP serves both
strictly_feasible and affine_dimension, and decides emptiness on the way.
recession_profile and euler_characteristic skip their emptiness LP when the
caller passes a point that the system satisfies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import linalg
from .linprog import EQ, GE, INFEASIBLE, OPTIMAL, UNBOUNDED, InternalError, solve_lp

Vec = tuple[Fraction, ...]
Constraint = tuple[Vec, Fraction]


class EmptyPolyhedronError(ValueError):
    """Operation requires a nonempty polyhedron but the system is infeasible."""


def _vec(coeffs: Sequence) -> Vec:
    return tuple(Fraction(c) for c in coeffs)


@dataclass(frozen=True)
class ConstraintSystem:
    """Convex polyhedron {x in Q^d : equalities hold, coeffs . x >= rhs}."""

    ambient_dim: int
    equalities: tuple[Constraint, ...] = ()
    inequalities: tuple[Constraint, ...] = ()

    def __post_init__(self):
        if self.ambient_dim < 0:
            raise ValueError("ambient_dim must be non-negative")
        for coeffs, _ in self.equalities + self.inequalities:
            if len(coeffs) != self.ambient_dim:
                raise ValueError(
                    f"constraint length {len(coeffs)} != ambient dimension {self.ambient_dim}"
                )

    @classmethod
    def build(
        cls,
        ambient_dim: int,
        equalities: Iterable[tuple[Sequence, object]] = (),
        inequalities: Iterable[tuple[Sequence, object]] = (),
    ) -> "ConstraintSystem":
        return cls(
            ambient_dim,
            tuple((_vec(c), Fraction(r)) for c, r in equalities),
            tuple((_vec(c), Fraction(r)) for c, r in inequalities),
        )

    def intersection(self, other: "ConstraintSystem") -> "ConstraintSystem":
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return ConstraintSystem(
            self.ambient_dim,
            self.equalities + other.equalities,
            self.inequalities + other.inequalities,
        )

    def satisfies(self, x: Sequence[Fraction]) -> bool:
        return all(linalg.dot(c, x) == r for c, r in self.equalities) and all(
            linalg.dot(c, x) >= r for c, r in self.inequalities
        )


@dataclass(frozen=True)
class RecessionProfile:
    lineality_dim: int
    pointed_part_bounded: bool


def feasible(sys: ConstraintSystem) -> Vec | None:
    """A rational point of the polyhedron, or None when it is empty."""
    d = sys.ambient_dim
    cons = [(c, EQ, r) for c, r in sys.equalities]
    cons += [(c, GE, r) for c, r in sys.inequalities]
    res = solve_lp(d, [0] * d, cons)
    return res.x if res.status == OPTIMAL else None


def strictly_feasible(sys: ConstraintSystem) -> Vec | None:
    """A point satisfying equalities exactly and every inequality strictly.

    This is the one margin LP (shared with affine_dimension): maximize a
    common slack margin t of all inequalities, capped at 1; the margin is
    positive exactly when the relative interior in this sense is nonempty.
    """
    d = sys.ambient_dim
    res = _max_common_margin(d, sys.equalities, sys.inequalities)
    if res.status != OPTIMAL or res.value == 0:
        return None
    return res.x[:d]


def affine_dimension(sys: ConstraintSystem) -> int | None:
    """Dimension of the affine hull of the feasible set; None when empty.

    The margin LP of strictly_feasible decides emptiness too: with margin
    t = 0 it is the system itself, so it is infeasible exactly when the
    system is empty.  A positive margin means no inequality is implicitly
    tight and the dimension comes from the equalities alone.  At margin 0,
    the implicit equalities (inequalities tight over the whole set) are
    found one LP each, and the rank of the combined equality system is taken.
    """
    d = sys.ambient_dim
    eqs = list(sys.equalities)
    res = _max_common_margin(d, eqs, sys.inequalities)
    if res.status == INFEASIBLE:
        return None
    if res.value == 0 and sys.inequalities:
        # A strict slack at the witness clears a constraint; the rest are
        # tested alone (max of its own slack over the unmodified system).
        x = res.x[:d]
        for i, (c, r) in enumerate(sys.inequalities):
            if linalg.dot(c, x) > r:
                continue
            others = [cc for k, cc in enumerate(sys.inequalities) if k != i]
            res_i = _max_single_margin(d, eqs, (c, r), others)
            if res_i.value == 0:
                eqs.append((c, r))
    return d - linalg.rank([c for c, _ in eqs])


def _solved(res):
    # The single-margin LPs run on a nonempty system and the recession LP is
    # homogeneous, so both are feasible; every objective variable is capped,
    # so both are bounded.
    if res.status != OPTIMAL:
        raise InternalError(f"bounded feasible LP returned {res.status}")
    return res


def _max_common_margin(d, eqs, ineqs):
    """max t over {eqs, ineq . x >= rhs + t, 0 <= t <= 1}: infeasible exactly
    when the system is empty, optimal otherwise."""
    cons: list[tuple[list, str, object]] = []
    for c, r in eqs:
        cons.append((list(c) + [0], EQ, r))
    for c, r in ineqs:
        cons.append((list(c) + [-1], GE, r))
    cons.append(([0] * d + [-1], GE, -1))
    res = solve_lp(d + 1, [0] * d + [1], cons, nonneg=[False] * d + [True])
    return res if res.status == INFEASIBLE else _solved(res)


def _max_single_margin(d, eqs, target, others):
    c0, r0 = target
    cons: list[tuple[list, str, object]] = []
    for c, r in eqs:
        cons.append((list(c) + [0], EQ, r))
    cons.append((list(c0) + [-1], GE, r0))
    for c, r in others:
        cons.append((list(c) + [0], GE, r))
    cons.append(([0] * d + [-1], GE, -1))
    return _solved(solve_lp(d + 1, [0] * d + [1], cons, nonneg=[False] * d + [True]))


def recession_profile(
    sys: ConstraintSystem, witness: Sequence[Fraction] | None = None
) -> RecessionProfile:
    """Lineality dimension and boundedness of the pointed part.

    The recession cone is {v : eq . v = 0, ineq . v >= 0}; the profile is
    (dim of its lineality space, whether the cone equals that space).  An
    empty system raises EmptyPolyhedronError.  A witness that the system
    exactly satisfies proves it nonempty and skips the emptiness LP; any
    other witness is ignored.
    """
    if not (witness is not None and sys.satisfies(witness)) and feasible(sys) is None:
        raise EmptyPolyhedronError("recession profile of an empty polyhedron")
    d = sys.ambient_dim
    all_normals = [c for c, _ in sys.equalities] + [c for c, _ in sys.inequalities]
    lineality_dim = d - linalg.rank(all_normals)
    # One LP: maximize the total inequality activity of a recession vector,
    # boxed to [0,1] per row; positive optimum means the cone exceeds the
    # lineality space.
    n_in = len(sys.inequalities)
    if n_in == 0:
        return RecessionProfile(lineality_dim, True)
    nv = d + n_in
    cons: list[tuple[list, str, object]] = []
    for c, r in sys.equalities:
        cons.append((list(c) + [0] * n_in, EQ, 0))
    for i, (c, r) in enumerate(sys.inequalities):
        row = list(c) + [0] * n_in
        row[d + i] = -1
        cons.append((row, EQ, 0))  # s_i = c . v
        cap = [0] * nv
        cap[d + i] = -1
        cons.append((cap, GE, -1))  # s_i <= 1
    obj = [0] * d + [1] * n_in
    res = _solved(solve_lp(nv, obj, cons, nonneg=[False] * d + [True] * n_in))
    return RecessionProfile(lineality_dim, res.value == 0)


def euler_characteristic(
    sys: ConstraintSystem, witness: Sequence[Fraction] | None = None
) -> int:
    """Compactly-supported Euler characteristic of the closed polyhedron.

    Closed form: (-1)^lineality_dim when the pointed part is bounded, else 0.
    (A polyhedron splits as lineality space x pointed part; bounded pieces
    contribute 1, an unbounded pointed cone contributes 0, and each lineality
    dimension flips the sign.)  witness is passed to recession_profile.
    """
    prof = recession_profile(sys, witness)
    if not prof.pointed_part_bounded:
        return 0
    return -1 if prof.lineality_dim % 2 else 1


def contains(outer: ConstraintSystem, inner: ConstraintSystem) -> bool:
    """True iff every point of inner satisfies outer; exact, via violation LPs."""
    if outer.ambient_dim != inner.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    w = feasible(inner)
    if w is None or feasible(outer) is None:
        raise EmptyPolyhedronError("containment requires both systems nonempty")
    if not outer.satisfies(w):
        return False
    d = inner.ambient_dim
    cons = [(c, EQ, r) for c, r in inner.equalities]
    cons += [(c, GE, r) for c, r in inner.inequalities]
    for c, r in outer.inequalities:
        res = solve_lp(d, c, cons, maximize=False)
        if res.status == UNBOUNDED or res.value < r:
            return False
    for c, r in outer.equalities:
        res = solve_lp(d, c, cons, maximize=False)
        if res.status == UNBOUNDED or res.value < r:
            return False
        res = solve_lp(d, c, cons, maximize=True)
        if res.status == UNBOUNDED or res.value > r:
            return False
    return True
