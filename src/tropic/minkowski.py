"""Point-configuration Minkowski sums and exact vertex classification.

A point is a vertex when it lies outside the convex hull of the others; it is
an upper vertex when it stays outside even after the others may drop straight
down (adding the cone spanned by minus the last coordinate direction).  One
small LP in convex-combination form decides both: how far the point must be
lifted along the last coordinate to reach the hull of the others.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .bounds import IdentityCheck, alternating_subsum
from .linalg import integer_row
from .linprog import DANTZIG, EQ, INFEASIBLE, OPTIMAL, InternalError, solve_lp
from .network import WITH_BIAS, LayerSpec, NetworkParseError, homogenize, json_rational, load_json
from .rational import format_rational, parse_rational

Vec = tuple[Fraction, ...]


@dataclass(frozen=True)
class LabeledPointSet:
    dim: int
    points: tuple[Vec, ...]
    label: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("ambient dimension must be >= 1")
        if len(set(self.points)) != len(self.points):
            raise ValueError("points must be pairwise distinct")
        for p in self.points:
            if len(p) != self.dim:
                raise ValueError("point length != ambient dimension")


def point_set(points: Iterable[Sequence], label: str = "") -> LabeledPointSet:
    pts = tuple(dict.fromkeys(tuple(parse_rational(v, "point") for v in p) for p in points))
    if not pts:
        raise ValueError("a point set needs at least one point")
    return LabeledPointSet(len(pts[0]), pts, label)


@dataclass(frozen=True)
class VertexClassification:
    points: tuple[Vec, ...]
    is_vertex: tuple[bool, ...]
    is_upper_vertex: tuple[bool, ...]
    is_strict_lower_vertex: tuple[bool, ...]

    @property
    def vertex_count(self) -> int:
        return sum(self.is_vertex)

    @property
    def upper_count(self) -> int:
        return sum(self.is_upper_vertex)

    @property
    def strict_lower_count(self) -> int:
        return sum(self.is_strict_lower_vertex)


def lift_layer(l: LayerSpec) -> list[LabeledPointSet]:
    """Per unit, the feature coefficient points: (w, b) in Q^(n+1) for a
    with-bias layer, w in Q^n otherwise; duplicate features collapse."""
    if l.bias_mode == WITH_BIAS:
        l = homogenize(l)
    return [point_set(u.weights, label=f"unit{i + 1}") for i, u in enumerate(l.units)]


def minkowski_sum(sets: Sequence[LabeledPointSet]) -> LabeledPointSet:
    if not sets:
        raise ValueError("need at least one point set")
    dim = sets[0].dim
    if any(s.dim != dim for s in sets):
        raise ValueError("ambient dimension mismatch")
    acc = [tuple(Fraction(0) for _ in range(dim))]
    for s in sets:
        acc = [tuple(a + b for a, b in zip(p, q)) for p in acc for q in s.points]
    label = "+".join(s.label for s in sets if s.label)
    return point_set(acc, label=label)


def _integer_points(points: Sequence[Vec]) -> tuple[list[tuple[int, ...]], int]:
    """The points with each coordinate times the lcm of that coordinate's
    denominators over all of them, and the last coordinate's lcm."""
    cols, scales = zip(*(integer_row(col) for col in zip(*points)))
    return list(zip(*cols)), scales[-1]


def _drop_to_hull(p: tuple[int, ...], others: Sequence[tuple[int, ...]], scale: int) -> Fraction | None:
    """The least lam >= 0 with p + lam * e_last in conv(others), or None when
    there is none: maximize -lam over mu, lam >= 0 subject to
    sum mu_i q_i - lam * e_last = p and sum mu_i = 1, and negate the
    optimum.  p and others are the integer points of one _integer_points
    call over all of them, and scale, lam's coefficient, is that call's
    last-coordinate lcm, so each row is the integer row that solve_lp would
    make of the rational one.  Only the status and the value are read, so
    the LP may take the largest-coefficient rule."""
    if not others:
        return None
    k, last = len(others), len(p) - 1
    cons = [([q[c] for q in others] + [-scale if c == last else 0], EQ, p[c]) for c in range(len(p))]
    cons.append(([1] * k + [0], EQ, 1))
    res = solve_lp(k + 1, [0] * k + [-1], cons, nonneg=[True] * (k + 1), entering=DANTZIG)
    if res.status == INFEASIBLE:
        return None
    if res.status != OPTIMAL:
        raise InternalError(f"drop LP with lam >= 0 returned {res.status}")
    return -res.value


def classify_vertices(ps: LabeledPointSet) -> VertexClassification:
    """Exact three-way classification of every point, one drop LP each.

    With no drop that reaches the hull of the others the point is an upper
    vertex; a drop of 0 means it lies in that hull, so it is no vertex; a
    positive drop means it is a strict lower vertex.
    """
    is_v, is_u, is_l = [], [], []
    # A point proven interior can be dropped from every later drop LP: the
    # hull of the remaining points is unchanged, and a direction that singles
    # out a vertex keeps the dropped points strictly behind it.  Each drop LP
    # runs on the alive points, its own point included, so they are
    # integerized once, one scale per coordinate, and again only after one
    # of them leaves.
    alive = list(range(len(ps.points)))
    ints = None
    for i in range(len(ps.points)):
        if ints is None:
            ints, scale = _integer_points([ps.points[j] for j in alive])
        k = alive.index(i)
        drop = _drop_to_hull(ints[k], ints[:k] + ints[k + 1:], scale)
        if drop == 0:
            del alive[k]
            ints = None
        is_v.append(drop != 0)
        is_u.append(drop is None)
        is_l.append(bool(drop))
    return VertexClassification(ps.points, tuple(is_v), tuple(is_u), tuple(is_l))


def upper_vertex_count(ps: LabeledPointSet) -> int:
    return classify_vertices(ps).upper_count


def dual_region_count(l: LayerSpec) -> int:
    """Region count of a layer read off the Minkowski sum of its lifted
    coefficient sets: the upper vertices with bias, all vertices without."""
    cls = classify_vertices(minkowski_sum(lift_layer(l)))
    return cls.upper_count if l.bias_mode == WITH_BIAS else cls.vertex_count


def weibel_upper_identity(sets: Sequence[LabeledPointSet]):
    """Upper-vertex count of the full sum against the alternating sum over
    partial sums of at most n of the summands (ambient Q^(n+1))."""
    m = len(sets)
    if not sets:
        raise ValueError("need at least one summand")
    n = sets[0].dim - 1
    if m <= n:
        raise ValueError(f"identity requires m >= n+1 (m={m}, n={n})")
    for s in sets:
        if len(set(s.points)) < 2:
            raise ValueError("summands must be positive-dimensional (>= 2 points)")
    lhs = upper_vertex_count(minkowski_sum(sets))
    rhs = alternating_subsum(
        # the empty sum is the one point {0}, a single upper vertex
        m, n, lambda S: upper_vertex_count(minkowski_sum([sets[i] for i in S])) if S else 1
    )
    return IdentityCheck(lhs, rhs)


# ---------------------------------------------------------------------------
# JSON


def parse_point_set(text: str) -> LabeledPointSet:
    """Point-set files: { "dim": d, "points": [["p/q", ...], ...], "label": str },
    where no point may repeat."""
    doc = load_json(text)
    if not isinstance(doc, dict):
        raise NetworkParseError("$: expected an object")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise NetworkParseError("$.dim: expected a positive integer")
    pts_doc = doc.get("points")
    if not isinstance(pts_doc, list) or not pts_doc:
        raise NetworkParseError("$.points: expected a nonempty array")
    first: dict[Vec, int] = {}  # each point and the index it first appears at
    for i, row in enumerate(pts_doc):
        if not isinstance(row, list) or len(row) != dim:
            raise NetworkParseError(f"$.points[{i}]: expected an array of length {dim}")
        p = tuple(json_rational(v, f"$.points[{i}][{j}]") for j, v in enumerate(row))
        if p in first:
            raise NetworkParseError(f"$.points[{i}]: repeats $.points[{first[p]}]")
        first[p] = i
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise NetworkParseError("$.label: expected a string")
    return LabeledPointSet(dim, tuple(first), label)


def serialize_point_set(ps: LabeledPointSet) -> str:
    doc = {
        "dim": ps.dim,
        "points": [[format_rational(v) for v in p] for p in ps.points],
        "label": ps.label,
    }
    return json.dumps(doc, sort_keys=True)


def classification_json(cls: VertexClassification) -> dict:
    """Classification output mirroring the input point order."""
    return {
        "points": [
            {
                "point": [format_rational(v) for v in p],
                "is_vertex": cls.is_vertex[i],
                "is_upper_vertex": cls.is_upper_vertex[i],
                "is_strict_lower_vertex": cls.is_strict_lower_vertex[i],
            }
            for i, p in enumerate(cls.points)
        ],
        "vertices": cls.vertex_count,
        "upper_vertices": cls.upper_count,
        "strict_lower_vertices": cls.strict_lower_count,
    }
