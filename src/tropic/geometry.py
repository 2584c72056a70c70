"""Exact polyhedral primitives on rational constraint systems.

A ConstraintSystem is a finite list of affine equalities and inequalities
(coeffs . x >= rhs) over Q^d.  Everything in arrangement (cells, posets,
simplicity) reduces to three LP formulations here, one per question:

- emptiness, strict feasibility and dimension at positive margin: the
  common-margin LP (maximize one slack t <= 1 shared by all
  inequalities), infeasible exactly when the system is empty.  Its point
  serves feasible, strictly_feasible and affine_dimension;
- dimension at margin 0: the implicit-equality LP of Freund, Roundy & Todd
  (1985, MIT Sloan WP 1674-85), which finds in one LP the inequalities
  tight on the whole set;
- containment and recession: the bound LP (_at_most), the maximum of a
  linear form on a nonempty system against a bound: one per outer row in
  contains, one on the recession cone in recession_profile, which serves
  euler_characteristic.  (The fan walk in arrangement reads a cell's
  boundedness off the layer's homogenized fan and asks no recession LP.)

A system solves its common-margin LP at most once: the result is cached on
the system, so feasible, strictly_feasible, affine_dimension and the
emptiness check of recession_profile share it.  A cone (every right-hand
side 0) at positive margin has a point strict on every inequality, so it is
its own unbounded recession cone, and its profile needs no bound LP.

Some systems need no LP at all, because one exact elimination of the
equality rows [A | b] (linalg.solve_affine, cached on the system) already
knows the answer.  It writes the solutions as x0 + span(kernel), x0 the
solution with free coordinates 0.  If rank [A | b] > rank A the system is
empty.  If the kernel is empty (rank A = d) the equalities fix the one
point x0, so t is the margin LP's only freedom: the LP is infeasible when
the least inequality slack at x0 is negative, and otherwise its unique
optimum is x0 with t = min(1, that slack), the LP's own result, witness
included.  Such a point has dimension 0 and recession cone {0}.  A system
with no rows at all is Q^d, whose x0 is the origin, and its LP takes one
pivot, t in for the slack of its cap t <= 1: the optimum is t = 1 at x0,
which the point's reading gives too.  If the kernel has one vector v (rank A = d - 1) the
equalities leave a line, and v decides the recession profile by the signs
of the c . v, which do not depend on the scale of v.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from . import linalg
from .linprog import EQ, GE, INFEASIBLE, OPTIMAL, InternalError, LPResult, solve_lp
from .rational import parse_rational

Vec = tuple[Fraction, ...]
Constraint = tuple[Vec, Fraction]


class EmptyPolyhedronError(ValueError):
    """Operation requires a nonempty polyhedron but the system is infeasible."""


def _vec(coeffs: Sequence) -> Vec:
    return tuple(parse_rational(c) for c in coeffs)


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
            tuple((_vec(c), parse_rational(r)) for c, r in equalities),
            tuple((_vec(c), parse_rational(r)) for c, r in inequalities),
        )

    def intersection(self, other: "ConstraintSystem") -> "ConstraintSystem":
        """The system of both; an operand without rows returns the other one
        (self when neither has rows), with its solved margin LP."""
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if not (other.equalities or other.inequalities):
            return self
        if not (self.equalities or self.inequalities):
            return other
        return ConstraintSystem(
            self.ambient_dim,
            self.equalities + other.equalities,
            self.inequalities + other.inequalities,
        )

    def satisfies(self, x: Sequence[Fraction]) -> bool:
        return all(linalg.dot(c, x) == r for c, r in self.equalities) and all(
            linalg.dot(c, x) >= r for c, r in self.inequalities
        )

    @cached_property
    def _solution(self) -> linalg.AffineSolution:
        """The equalities reduced once: their rank, whether they are
        consistent, and their solutions as point + span(kernel)."""
        return linalg.solve_affine(self.equalities, self.ambient_dim)

    @property
    def equality_rank(self) -> int:
        """Rank of the equality rows; when it is ambient_dim, the equalities
        fix at most one point."""
        return self._solution.rank

    @property
    def rank_decided(self) -> bool:
        """Whether the equalities alone decide the common-margin LP, so that
        it needs no LP: they are inconsistent or fix at most one point, or
        the system has no rows at all."""
        sol = self._solution
        no_rows = not (self.equalities or self.inequalities)
        return not sol.consistent or sol.rank == self.ambient_dim or no_rows

    @property
    def margin_costs_lp(self) -> bool:
        """Whether reading the common-margin LP solves one: it is not yet
        solved, and the system is not rank_decided."""
        return "_margin" not in self.__dict__ and not self.rank_decided

    @cached_property
    def _margin(self) -> LPResult:
        """The common-margin LP of this system, solved on first use.  An LP
        that raises (say, over the LP budget) leaves nothing cached.  A
        rank-decided system solves none and returns the LP's own result,
        witness included (see the module docstring).
        """
        if not self.rank_decided:
            return _max_common_margin(self.ambient_dim, self.equalities, self.inequalities)
        sol = self._solution
        if not sol.consistent:
            return LPResult(INFEASIBLE, None, None)
        x = sol.point
        t = min([Fraction(1)] + [linalg.dot(c, x) - r for c, r in self.inequalities])
        return LPResult(INFEASIBLE, None, None) if t < 0 else LPResult(OPTIMAL, t, x + (t,))


@dataclass(frozen=True)
class RecessionProfile:
    lineality_dim: int
    pointed_part_bounded: bool


def feasible(sys: ConstraintSystem) -> Vec | None:
    """A rational point of the polyhedron, or None when it is empty: the
    point of the system's common-margin LP."""
    res = sys._margin
    return None if res.status == INFEASIBLE else res.x[: sys.ambient_dim]


def strictly_feasible(sys: ConstraintSystem) -> Vec | None:
    """A point satisfying equalities exactly and every inequality strictly.

    This is the common-margin LP, shared with feasible and affine_dimension:
    maximize a slack margin t common to all inequalities, capped at 1; it is
    positive exactly when the relative interior in this sense is nonempty.
    """
    res = sys._margin
    if res.status != OPTIMAL or res.value == 0:
        return None
    return res.x[: sys.ambient_dim]


def affine_dimension(sys: ConstraintSystem) -> int | None:
    """Dimension of the affine hull of the feasible set; None when empty.

    The common-margin LP decides emptiness, and a positive margin means no
    inequality is implicitly tight, so after feasible or strictly_feasible
    no LP is solved.  At margin 0 only the rows tight at its point can be
    implicit equalities, and one _implicit_equalities LP picks them out.
    The dimension is d minus the rank of the equalities and the implicit
    equalities: the system's equality_rank at positive margin, and 0 with
    no LP for a point, whose equalities have rank d.
    """
    d = sys.ambient_dim
    res = sys._margin
    if res.status == INFEASIBLE:
        return None
    if res.value > 0 or sys.equality_rank == d:
        return d - sys.equality_rank
    x = res.x[:d]
    tight = [k for k, (c, r) in enumerate(sys.inequalities) if linalg.dot(c, x) == r]
    implicit = _implicit_equalities(d, sys.equalities, sys.inequalities, tight)
    normals = [c for c, _ in sys.equalities] + [sys.inequalities[k][0] for k in implicit]
    return d - linalg.rank(normals)


def _solved(res):
    """res, which must be optimal: the margin LP and the implicit-equality
    LP of a nonempty system are feasible, and their objective variables are
    capped at 1, so they are bounded."""
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


def _implicit_equalities(d, eqs, ineqs, cand):
    """The rows of cand (indices into ineqs) that hold with equality on the
    whole nonempty system: one LP.

    Freund, Roundy & Todd (1985): over x, theta >= 1 and one t_k in [0, 1]
    per candidate, maximize sum t_k subject to eq . x = theta * rhs,
    ineq_k . x - theta * rhs_k - t_k >= 0 for candidates and
    ineq_i . x - theta * rhs_i >= 0 for the other rows.  Since x / theta
    ranges over the system, t_k = 0 is forced on an implicit equality.  The
    average of points slack on each other candidate, scaled by theta, gives
    t_k = 1 on all of them at once, so every optimum has t_k = 1 there.
    theta enters as 1 + s with s >= 0, so theta >= 1 needs no row.
    """
    k = len(cand)
    slot = {i: j for j, i in enumerate(cand)}

    def row(c, r, j=None):  # coefficients of c . x - r * s - t_j
        return [*c, -r] + [-int(q == j) for q in range(k)]

    cons = [(row(c, r), EQ, r) for c, r in eqs]
    cons += [(row(c, r, slot.get(i)), GE, r) for i, (c, r) in enumerate(ineqs)]
    cons += [(row([0] * d, 0, j), GE, -1) for j in range(k)]  # t_j <= 1
    obj = [0] * (d + 1) + [1] * k
    t = _solved(solve_lp(d + 1 + k, obj, cons, nonneg=[False] * d + [True] * (1 + k))).x[d + 1 :]
    if any(v not in (0, 1) for v in t):
        raise InternalError(f"implicit-equality slacks {t} are not all 0 or 1")
    return [i for i, v in zip(cand, t) if v == 0]


def _at_most(d, rows, c, r) -> bool:
    """Whether c . x <= r on the nonempty system of solve_lp rows: one LP,
    max c . x, unbounded when c . x is; an infeasible LP is a bug."""
    res = solve_lp(d, c, rows)
    if res.status == INFEASIBLE:
        raise InternalError("bound LP of a nonempty system is infeasible")
    return res.status == OPTIMAL and res.value <= r


def recession_profile(sys: ConstraintSystem) -> RecessionProfile:
    """Lineality dimension and boundedness of the pointed part.

    The recession cone is {v : eq . v = 0, ineq . v >= 0}; the profile is
    (dim of its lineality space, whether the cone equals that space), and it
    does exactly when every inequality c_i is tight on the whole cone.
    With s the sum of the c_i, a v of the cone has s . v > 0 exactly when
    some c_i . v > 0, so the cone equals its lineality space exactly when
    s . v <= 0 on it: one bound LP, max s . v over the cone, which is 0
    when bounded and unbounded otherwise (the cone holds 0 and is closed
    under positive scaling).  There is no LP without inequalities (the cone
    is then a linear space), nor when the equalities have rank d or d - 1.
    A point's cone is {0}.  For a line, with v the one kernel vector of
    the equalities, the cone is the line itself when every c . v
    is 0, a ray when the nonzero c . v share one sign, and {0} otherwise.

    A cone (every right-hand side 0) is its own recession cone, so a point
    of it strict on every inequality is a v with every c_i . v > 0: such a
    cone with an inequality is unbounded with no bound LP.

    The system must be nonempty.  Its margin LP, solved at most once per
    system, raises EmptyPolyhedronError on an empty system and shows
    strictness by a positive margin.
    """
    res = sys._margin
    if res.status == INFEASIBLE:
        raise EmptyPolyhedronError("recession profile of an empty polyhedron")
    d = sys.ambient_dim
    sol = sys._solution
    if sol.rank == d:
        return RecessionProfile(0, True)
    if sol.rank == d - 1:  # the cone is {s v : s (c . v) >= 0 for every inequality c}
        slopes = [linalg.dot(c, sol.kernel[0]) for c, _ in sys.inequalities]
        if not any(slopes):
            return RecessionProfile(1, True)
        one_sign = all(p >= 0 for p in slopes) or all(p <= 0 for p in slopes)
        return RecessionProfile(0, not one_sign)
    lineality_dim = d - linalg.rank([c for c, _ in sys.equalities + sys.inequalities])
    normals = [c for c, _ in sys.inequalities]
    if not normals:
        return RecessionProfile(lineality_dim, True)
    cone = all(r == 0 for _, r in sys.equalities + sys.inequalities)
    if cone and res.value > 0:
        return RecessionProfile(lineality_dim, False)
    rows = [(c, EQ, 0) for c, _ in sys.equalities] + [(c, GE, 0) for c in normals]
    return RecessionProfile(lineality_dim, _at_most(d, rows, [sum(v) for v in zip(*normals)], 0))


def euler_characteristic(sys: ConstraintSystem) -> int:
    """Compactly-supported Euler characteristic of the closed polyhedron.

    Closed form: (-1)^lineality_dim when the pointed part is bounded, else 0.
    (A polyhedron splits as lineality space x pointed part; bounded pieces
    contribute 1, an unbounded pointed cone contributes 0, and each lineality
    dimension flips the sign.)  Its LPs are recession_profile's.
    """
    prof = recession_profile(sys)
    if not prof.pointed_part_bounded:
        return 0
    return -1 if prof.lineality_dim % 2 else 1


def contains(outer: ConstraintSystem, inner: ConstraintSystem) -> bool:
    """True iff every point of inner satisfies outer; exact, via bound LPs.

    Each outer row c . x >= r is the bound -c . x <= -r, tried in order
    until one fails.  A witness of inner that satisfies outer also shows
    outer nonempty, so outer's emptiness LP runs only when the witness
    fails it.  An inner whose equalities have rank d is its witness, so it
    needs no bound LP.
    """
    if outer.ambient_dim != inner.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    w = feasible(inner)
    if w is None or not outer.satisfies(w):
        if w is None or feasible(outer) is None:
            raise EmptyPolyhedronError("containment requires both systems nonempty")
        return False
    d = inner.ambient_dim
    if inner.equality_rank == d:
        return True
    cons = [(c, EQ, r) for c, r in inner.equalities]
    cons += [(c, GE, r) for c, r in inner.inequalities]
    rows = list(outer.inequalities)
    for c, r in outer.equalities:  # c . x = r as c . x >= r and -c . x >= -r
        rows += [(c, r), (tuple(-v for v in c), -r)]
    return all(_at_most(d, cons, tuple(-v for v in c), -r) for c, r in rows)
