"""Maxout arrangements: atoms, cell enumeration, the intersection poset with
its counting formulas, simplicity certification, and the subsum identities.

An arrangement's atoms are the nonempty codimension-1 indecision boundaries
between pairs of preactivation features of one unit.  Cells are relatively
open argmax-signature pieces; full-dimensional cells are exactly the regions
(components of the complement carry a constant signature, and each signature
set is convex).  The cells and their boundedness are read off the layer's
homogenized normal fan with argmax tests alone, in one walk (_cells); the
regions are its open cells (_regions), and a reported cell's witness is
the point of its margin LP, the one LP a cell can cost (enumerate_cells).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import combinations
from math import comb
from operator import and_, mul
from typing import Sequence

from . import linalg
from .bounds import IdentityCheck, alternating_subsum
from .geometry import (
    ConstraintSystem,
    affine_dimension,
    contains,
    euler_characteristic,
    feasible,
    strictly_feasible,
)
from .linprog import InternalError, require_lp_headroom
from .network import NO_BIAS, WITH_BIAS, LayerSpec, MaxoutUnitSpec, projectivize, restrict_layer
from .rational import parse_rational


@dataclass(frozen=True)
class Atom:
    unit: int                 # 1-based unit index
    pair: tuple[int, int]     # 1-based feature indices, a < b
    system: ConstraintSystem


@dataclass(frozen=True)
class Arrangement:
    """Atoms of one layer, built by build_atoms only: every atom has affine
    dimension ambient_dim - 1, which is_simple relies on."""

    ambient_dim: int
    atoms: tuple[Atom, ...]
    central: bool


@dataclass(frozen=True)
class Cell:
    signature: tuple[frozenset[int], ...]
    dim: int
    bounded: bool
    witness: tuple[Fraction, ...]


@dataclass(frozen=True)
class RegionCount:
    regions: int
    bounded_regions: int


@dataclass(frozen=True)
class SimplicityCertificate:
    simple: bool
    violation: tuple[int, ...] | None  # atom indices of the first violating subset


@dataclass(frozen=True)
class GapResult:
    r_total: int
    r_slice: int
    gap: int
    floor: int


def _choice_system(n: int, u: MaxoutUnitSpec, chosen: Sequence[int]) -> ConstraintSystem:
    """{x in Q^n : the argmax set of unit u is exactly chosen}: the first
    chosen feature tied with each other chosen one, then dominating each
    feature left out (strictly in a relatively open cell), in feature order.
    A rank-1 unit has no rows."""
    feats = u.features()
    wr, br = feats[chosen[0]]

    def row(c):  # feature chosen[0] minus feature c, as coeffs . x >= rhs
        wc, bc = feats[c]
        return tuple(x - y for x, y in zip(wr, wc)), bc - br

    rest = [c for c in range(len(feats)) if c not in chosen]
    return ConstraintSystem(n, tuple(map(row, chosen[1:])), tuple(map(row, rest)))


def build_atoms(layer: LayerSpec) -> Arrangement:
    """All nonempty codimension-1 tie boundaries, unit by unit.

    An atom is the choice system of a feature pair.  Rank-1 units have no
    pairs and contribute nothing.  One affine_dimension call per feature
    pair decides both emptiness and dimension.
    """
    n = layer.input_dim
    atoms = []
    for i, u in enumerate(layer.units):
        for a, b in combinations(range(u.rank), 2):
            sys = _choice_system(n, u, (a, b))
            if affine_dimension(sys) == n - 1:  # None when empty
                atoms.append(Atom(i + 1, (a + 1, b + 1), sys))
    return Arrangement(n, tuple(atoms), layer.bias_mode == NO_BIAS)


def _nonempty_subsets(k: int) -> list[tuple[int, ...]]:
    out = []
    for size in range(1, k + 1):
        out.extend(combinations(range(k), size))
    return out


def _fan_rays(layer: LayerSpec) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] | None:
    """The rays of the normal fan of the Newton polytope sum conv(W_i) of
    the layer's central layer (projectivize), each as (r, masks): r its
    primitive integer vector, and bit a of masks[i] set when feature a of
    unit i has the largest gradient product with r.  With bias only the
    rays with t >= 0 (last coordinate) are returned, the ones a cell's cone
    can hold.  None when the fan is not pointed.

    The fan is the common refinement of the units' fans (Gritzmann &
    Sturmfels 1993; Ziegler 1995, ch. 7): its closed cones are the sets
    where every unit's argmax set holds a given set, so a closed cone
    C_T = {v : T_i is inside argmax_i(v) for every unit i} is convex and a
    union of the fan's cones.  If the tie normals w_a - w_b do not span
    Q^N, a nonzero v orthogonal to all of them ties every unit's features:
    every C_T holds a line, and None is returned.  Otherwise the fan is
    pointed, each C_T is the conic hull of the rays it holds, and a ray r
    is exactly a nonzero v whose ties (the normals w_a - w_b with a, b both
    in argmax_i(v), the normals active at v) span v's orthogonal
    complement.

    The candidates are +-v for v spanning the null space of a sorted
    (N - 1)-subset of the primitive normals, a basis, and r is kept when
    every normal of the basis is active at r, that is, made by a pair of
    features that both lie in the argmax set of their unit at r.  A kept
    r is a ray: its active normals hold the basis, of rank N - 1, and all
    are orthogonal to r != 0.  Every ray is kept: its active normals span
    r's orthogonal complement, so some sorted (N - 1)-subset of them is an
    independent basis, all active at r.  A ray may first be met through a
    basis with a normal that is not active at it, so rays, not lines, are
    deduped.  One pass of gradient products per line gives the masks of
    both signs, the largest products for v and the smallest for -v.
    Distinct rays lie in distinct relatively open cones, so their masks
    differ.  Q^0 has no rays.

    A positive scale changes no argmax set, so each unit's gradients are
    scaled to integers (MaxoutUnitSpec.integer_gradients), and everything
    is exact integer rank and dot products: no LP.
    """
    central = projectivize(layer)
    n = central.input_dim
    if n == 0:
        return ()
    grads = [u.integer_gradients() for u in central.units]
    makers = {}  # primitive normal -> (unit, bitmask of its feature pair) per pair
    for i, g in enumerate(grads):
        for a, b in combinations(range(len(g)), 2):
            p = linalg.primitive([x - y for x, y in zip(g[a], g[b])])
            if any(p):
                makers.setdefault(p, []).append((i, 1 << a | 1 << b))
    if linalg.rank(list(makers)) < n:
        return None
    with_bias = layer.bias_mode == WITH_BIAS

    def masks(v):  # (masks of v, masks of -v)
        top, bottom = [], []
        for g in grads:
            hi = lo = sum(map(mul, g[0], v))
            up = down = 1
            for a in range(1, len(g)):
                x = sum(map(mul, g[a], v))
                if x > hi:
                    hi, up = x, 1 << a
                elif x == hi:
                    up |= 1 << a
                if x < lo:
                    lo, down = x, 1 << a
                elif x == lo:
                    down |= 1 << a
            top.append(up)
            bottom.append(down)
        return tuple(top), tuple(bottom)

    lines, rays = {}, {}
    for basis in combinations(sorted(makers), n - 1):
        v = linalg.kernel_line(basis, n)
        if v is None:
            continue
        if v not in lines:
            lines[v] = masks(v)
        for r, mask in zip((v, tuple(-x for x in v)), lines[v]):
            if r in rays or (with_bias and r[-1] < 0):
                continue
            if all(any(mask[i] & pair == pair for i, pair in makers[p]) for p in basis):
                rays[r] = mask
    return tuple(rays.items())


def _cells(layer: LayerSpec) -> list[tuple[tuple[tuple[int, ...], ...], bool]]:
    """(signature, bounded) of every nonempty relatively open cell, in
    lexicographic signature order, read off the homogenized fan with
    argmax tests alone: no LP.  A signature holds every unit's argmax set,
    as a tuple of 0-based features, and bounded says whether the cell's
    closure is.

    The central layer (projectivize) lives in Q^N: a with-bias layer's
    homogenization, where feature (w, b) is linear on (x, t), plus a unit
    at infinity with the features t and 0, and a no-bias layer as it is.
    A cell of the layer is the slice at t = 1 of the cone of the central
    layer's points whose argmax sets are its signature, and t in the
    argmax at infinity alone (t > 0).  For a signature prefix T, the closed
    cone C_T of the points where each T_i is in unit i's argmax set (and
    t >= 0) is a union of cones of the central layer's fan.  When that fan
    is pointed, C_T is the conic hull of the rays it holds (_fan_rays),
    and its relative interior is their positive hull.  Each feature is
    linear there, so at a point of it unit i's argmax set is the
    intersection of the rays' argmax sets, which holds T_i.  A point of
    C_T outside it is a positive combination of fewer of the rays, whose
    intersection can only be larger.  So the prefix's cell is nonempty
    exactly when, for every unit so far, the intersection is T_i (no
    feature left out of T_i is in every ray's argmax set) and, with bias,
    one of the rays has t > 0; a C_T with no ray is {0}, where every
    feature ties.  The closure of a cell is the slice of C_T at t = 1,
    whose recession cone is C_T at t = 0, so the cell is bounded exactly
    when no ray of C_T has t = 0.  A no-bias layer's cells are cones, each
    bounded only when C_T holds no ray.

    The signatures are walked unit by unit, each unit's choices in
    _nonempty_subsets order, each prefix carrying the bitset of the rays
    in its C_T and the bitsets of the rays that miss each left-out
    feature.  A prefix that fails the test has no cell below it and is
    pruned.

    The fan is pointed exactly when the gradient differences span Q^n.
    Otherwise the features depend on x only through its component in their
    span S, every cell holds a line, and the cells are those of the layer
    restricted to S (restrict_layer at offset 0), which spans its space:
    they are found there, none bounded.
    """
    rays = _fan_rays(layer)
    if rays is None:
        n = layer.input_dim
        diffs = [[x - y for x, y in zip(w, u.weights[0])] for u in layer.units for w in u.weights[1:]]
        span = linalg.nullspace_basis(linalg.nullspace_basis(diffs, n), n)
        restricted = restrict_layer(layer, (Fraction(0),) * n, span)
        return [(sig, False) for sig, _ in _cells(restricted)]
    every = (1 << len(rays)) - 1
    with_bias = layer.bias_mode == WITH_BIAS

    def ray_set(keep) -> int:
        return sum(1 << j for j, (r, m) in enumerate(rays) if keep(r, m))

    at_infinity = ray_set(lambda r, _: not with_bias or r[-1] == 0)
    needs = (ray_set(lambda r, _: r[-1] > 0),) if with_bias else ()
    levels = []
    for i, u in enumerate(layer.units):
        holds = [ray_set(lambda _, m: m[i] >> a & 1) for a in range(u.rank)]
        levels.append([
            (c, reduce(and_, (holds[a] for a in c)), tuple(every ^ h for a, h in enumerate(holds) if a not in c))
            for c in _nonempty_subsets(u.rank)
        ])

    out = []

    def walk(sig: tuple, bits: int, misses: tuple[int, ...]) -> None:
        if len(sig) == len(levels):
            out.append((sig, not bits & at_infinity))
            return
        for c, inside, left_out in levels[len(sig)]:
            child, more = bits & inside, misses + left_out
            if all(child & m for m in more):
                walk(sig + (c,), child, more)

    walk((), every, needs)
    return out


def enumerate_cells(layer: LayerSpec) -> list[Cell]:
    """Every nonempty relatively open argmax-signature cell, with dimension,
    boundedness of the closure, and a rational witness, in lexicographic
    signature order.

    The cells and their boundedness are read off the fan (_cells), so the
    LPs track the nonempty cells, not all prod(2^k - 1) signatures.  Each
    cell's system is its units' choice systems, each built once,
    intersected in unit order (a rank-1 choice has no rows and adds none),
    and its witness is that system's margin LP's point.  A cell whose
    margin is decided by rank (ConstraintSystem.margin_costs_lp) costs no
    LP, and every other one LP, so cells that need more LPs than the
    current linprog.lp_budget has left raise BudgetExceededError before
    any is solved.  The dimension reads the same LP, at a positive margin.
    """
    n = layer.input_dim
    choices = [{c: _choice_system(n, u, c) for c in _nonempty_subsets(u.rank)} for u in layer.units]
    found = []
    for sig, bounded in _cells(layer):
        sys = ConstraintSystem(n)
        for rows, c in zip(choices, sig):
            sys = sys.intersection(rows[c])
        found.append((sig, sys, bounded))
    require_lp_headroom(sum(sys.margin_costs_lp for _, sys, _ in found))
    cells = []
    for sig, sys, bounded in found:
        w = strictly_feasible(sys)
        if w is None:
            raise InternalError(f"cell {sig} of the fan has no strictly feasible point")
        names = tuple(frozenset(a + 1 for a in c) for c in sig)
        cells.append(Cell(names, affine_dimension(sys), bounded, w))
    return cells


def _dedupe_units(layer: LayerSpec) -> LayerSpec:
    units = []
    for u in layer.units:
        seen = dict.fromkeys(u.features())
        weights = tuple(w for w, _ in seen)
        biases = tuple(b for _, b in seen) if u.biases is not None else None
        units.append(MaxoutUnitSpec(weights, biases))
    return LayerSpec(layer.input_dim, tuple(units), layer.bias_mode)


def _regions(layer: LayerSpec) -> list[tuple[tuple[int, ...], bool]]:
    """(signature, bounded) of every region, in lexicographic signature
    order, with no LP: the cells of the deduped layer (_cells) whose
    choices are all single features.  A signature holds every unit's
    strict argmax, indexed by _dedupe_units' features.  Such a cell has no
    tie, so it is open and is a region; and on a region no two distinct
    features tie, as they would on an open set, so every region is one."""
    return [
        (tuple(c for c, in sig), bounded)
        for sig, bounded in _cells(_dedupe_units(layer))
        if all(len(c) == 1 for c in sig)
    ]


def count_regions_bruteforce(layer: LayerSpec) -> RegionCount:
    """Region and bounded-region counts by strict-argmax enumeration: the
    leaves of the fan walk _regions, with integer ranks alone and no LP."""
    bounded = [b for _, b in _regions(layer)]
    return RegionCount(len(bounded), sum(bounded))


# ---------------------------------------------------------------------------
# Intersection poset


@dataclass(frozen=True)
class PosetElement:
    id: int
    dim: int
    psi: int
    atom_support: frozenset[int]        # indices into Arrangement.atoms
    support: frozenset[int] | None      # 1-based unit indices; None for the
                                        # origin element of a central arrangement


@dataclass(frozen=True)
class Poset:
    arrangement: Arrangement
    elements: tuple[PosetElement, ...]  # elements[0] is the ambient space, the bottom;
                                        # sorted by atom-support size, a linear extension
    leq: tuple[tuple[bool, ...], ...]   # leq[i][j]: element i <= j (reverse inclusion)

    @cached_property
    def mobius_from_bottom(self) -> tuple[int, ...]:
        """mu(0, x) for every element x: 1 at the bottom, else minus the sum
        over the elements below x, which all come before x."""
        mu = [1]
        for j in range(1, len(self.elements)):
            mu.append(-sum(m for i, m in enumerate(mu) if self.leq[i][j]))
        return tuple(mu)

    @cached_property
    def face_counts(self) -> tuple[int, ...]:
        """(f_0, ..., f_n), the number of s-faces for each s: f_s is (-1)^s
        times the sum over the elements x of dimension s of
        g(x) = sum over y >= x of mu(x, y) psi(y) (Zaslavsky 1975).  By Mobius
        inversion g is the one solution of psi(x) = sum over y >= x of g(y),
        so one pass down from the top solves for it with no mu(x, y).  The
        ambient space is the only n-dimensional element, so f_n counts the
        regions.  This is the one reader of the poset's s-faces and regions:
        count_regions_poset, the CLI and the tests all index it."""
        f = [0] * (self.arrangement.ambient_dim + 1)
        g = [0] * len(self.elements)
        for x in reversed(range(len(self.elements))):
            e, above = self.elements[x], self.leq[x]
            g[x] = e.psi - sum(g[y] for y in range(x + 1, len(g)) if above[y])
            f[e.dim] += (-1) ** e.dim * g[x]
        return tuple(f)


def build_poset(arr: Arrangement) -> Poset:
    """Closure of the atoms under intersection, ordered by reverse inclusion.

    An element is the intersection of the atoms containing it, so that set
    of atoms, its key, names it: the keys are the closed sets of
    cl(S) = {atoms containing the intersection of S}.  They are enumerated
    by prefix-preserving closure extension (Uno, Kiyomi & Arimura 2004, LCM
    ver. 2; Ganter 1984, NextClosure): a key found by adding atom c is
    extended only by the atoms i > c outside it, and cl(key + {i}) is kept
    only if it adds no atom below i.

    - Each key is reached once.  For a key T let i be the least atom with
      T = cl(T & {0..i}), and P = cl(T & {0..i-1}).  P is the root or a key
      found by an atom below i, and it agrees with T below i, so P pushes T
      by i.  A key S that pushes T by an atom i' agrees with T below i' and
      is the closure of its atoms below i', so i' = i and S = P.
    - A dropped extension loses nothing: its closure has an atom below i
      outside the key, so it is another key, pushed by its own parent.
    - Points need no LP.  When the candidate's equalities alone have rank
      n, its margin is decided by rank (ConstraintSystem.rank_decided), and
      the candidate is its point w, so contains decides by testing w
      alone.  contains tests w first for every candidate, so an atom that
      misses w costs no LP: its margin was solved by build_atoms.  A
      point's dimension and Euler characteristic are read off the rank as
      well.  So is a line's Euler characteristic.  The root, Q^n, has no
      rows, and its margin is decided with no LP too.

    Each element keeps the system that found it, so its dimension and Euler
    characteristic solve no second emptiness LP, and the elements found
    from the root keep the atoms' own systems, solved by build_atoms.
    """
    n = arr.ambient_dim
    elements = []
    stack = [(frozenset(), ConstraintSystem(n), 0)]
    while stack:
        key, sys, start = stack.pop()
        elements.append((key, sys))
        for i in range(start, len(arr.atoms)):
            if i in key:
                continue
            cand = sys.intersection(arr.atoms[i].system)
            w = feasible(cand)
            if w is None:
                continue
            support = set(key) | {i}
            for j, other in enumerate(arr.atoms):
                if j not in support and contains(other.system, cand):
                    if j < i:
                        break  # cl(key + {i}) is pushed by its own parent
                    support.add(j)
            else:
                stack.append((frozenset(support), cand, i + 1))

    elements.sort(key=lambda e: (len(e[0]), sorted(e[0])))
    out = []
    for idx, (key, sys) in enumerate(elements):
        dim = affine_dimension(sys)
        psi = euler_characteristic(sys)
        units = frozenset(arr.atoms[a].unit for a in key)
        is_central_origin = arr.central and dim == 0
        out.append(
            PosetElement(idx, dim, psi, key, None if is_central_origin else units)
        )
    leq = tuple(
        tuple(out[i].atom_support <= out[j].atom_support for j in range(len(out)))
        for i in range(len(out))
    )
    return Poset(arr, tuple(out), leq)


def count_regions_poset(arr: Arrangement) -> int:
    """Region count (-1)^n sum over y of mu(0, y) psi(y): the n-faces of
    Poset.face_counts, on a poset built for this call."""
    return build_poset(arr).face_counts[arr.ambient_dim]


# ---------------------------------------------------------------------------
# Simplicity


def is_simple(arr: Arrangement) -> SimplicityCertificate:
    """Certify that any j atoms of distinct units intersect in codimension j
    (empty allowed; for central arrangements the origin is allowed instead).

    Subset sizes run to n+1 so one-too-many concurrences are caught.  A
    single atom has codimension 1 by construction, so subsets start at two
    atoms.  The tuples are walked depth first, a tuple before its
    extensions, each with its system: its prefix's system intersected with
    its last atom's; the first tuple that fails is the violation.  An empty
    tuple of a non-central arrangement passes, and so does every extension
    of it, so the walk does not extend it.  Central atoms all contain the
    origin, so no central tuple is empty and none is skipped.  A tuple whose
    ties contradict each other or fix a point is decided by rank, with no
    LP.
    """
    n = arr.ambient_dim
    by_unit: dict[int, list[int]] = {}
    for i, a in enumerate(arr.atoms):
        by_unit.setdefault(a.unit, []).append(i)
    units = sorted(by_unit)
    max_j = min(len(units), n + 1)

    def first_violation(u_pos: int, chosen: tuple[int, ...], sys: ConstraintSystem):
        if len(chosen) > 1:
            dim = affine_dimension(sys)
            if dim is None:  # empty
                return chosen if arr.central else None
            if dim != n - len(chosen) and not (arr.central and dim == 0):
                return chosen
        if len(chosen) < max_j:
            for pos in range(u_pos, len(units)):
                for ai in by_unit[units[pos]]:
                    found = first_violation(
                        pos + 1, chosen + (ai,), sys.intersection(arr.atoms[ai].system)
                    )
                    if found is not None:
                        return found
        return None

    violation = first_violation(0, (), ConstraintSystem(n))
    return SimplicityCertificate(violation is None, violation)


# ---------------------------------------------------------------------------
# Subsum identities and the bounded-region gap


def _subsum_sides(layer: LayerSpec, n: int, assume_simple: bool) -> tuple[int, int]:
    """Region count and alternating sum over the <=n-unit sub-arrangements
    of a subsum identity in Q^n, all read off the signatures of one fan
    walk (_regions): r(A_S) is the number of distinct restrictions to S of
    them (the unitless S keeps the one empty restriction, the one region).

    The walk solves no LP, the sub-arrangements cost nothing beyond it, and
    the count is exact.  The argmax over S is constant on a region of A, so
    that region lies in the region of A_S its restriction names.  Every
    region of A_S is open and A's regions are dense, so it meets one of
    them and thus contains it: every region of A_S is named.  Distinct
    restrictions are distinct strict argmax patterns over S, so they name
    distinct regions of A_S.  _dedupe_units works unit by unit, so A and
    A_S index their features alike.

    Whether a unit has an atom is read off its gradients
    (MaxoutUnitSpec.has_atom), so that check solves no LP.  The simplicity
    check alone builds atoms and solves LPs, and only when simplicity is
    not assumed; it and the atom check come before the walk, so a refused
    layer builds no fan.
    """
    m = layer.width
    if m < n + 1:
        raise ValueError(f"identity requires m >= n+1 (m={m}, n={n})")
    missing = [i + 1 for i, u in enumerate(layer.units) if not u.has_atom]
    if missing:
        raise ValueError(f"units {missing} contribute no atoms; drop them before applying the identity")
    if not assume_simple and not is_simple(build_atoms(layer)).simple:
        raise ValueError("arrangement is not simple")
    sigs = [sig for sig, _ in _regions(layer)]
    return len(sigs), alternating_subsum(
        m, n, lambda S: len({tuple(sig[i] for i in S) for sig in sigs})
    )


def subsum_identity_noncentral(layer: LayerSpec, assume_simple: bool = False) -> IdentityCheck:
    """Both sides of the region identity for a simple with-bias arrangement:
    the full count against the alternating sum over <=n-unit sub-arrangements."""
    if layer.bias_mode != WITH_BIAS:
        raise ValueError("non-central identity needs a with-bias layer")
    return IdentityCheck(*_subsum_sides(layer, layer.input_dim, assume_simple))


def subsum_identity_central(layer: LayerSpec, assume_simple: bool = False) -> IdentityCheck:
    """Central variant in ambient Q^(n+1): the alternating sum gains the
    binomial correction C(m-1, n)."""
    if layer.bias_mode != NO_BIAS:
        raise ValueError("central identity needs a no-bias layer")
    n = layer.input_dim - 1
    lhs, rhs = _subsum_sides(layer, n, assume_simple)
    return IdentityCheck(lhs, comb(layer.width - 1, n) + rhs)


def bounded_region_gap(layer: LayerSpec, g_normal: Sequence) -> GapResult:
    """Regions of a central arrangement minus regions induced on the affine
    hyperplane {<x, w> = 1}, with the binomial floor of the gap theorem.

    Every hyperplane that misses the origin is {<x, w> = 1} for a scaled
    normal w.  Both counts are the leaves of a fan walk (_regions), of the
    layer and of its restriction to the hyperplane, with no LP.
    """
    if layer.bias_mode != NO_BIAS:
        raise ValueError("gap theorem needs a central (no-bias) layer")
    w = tuple(parse_rational(v, "normal") for v in g_normal)
    if all(v == 0 for v in w):
        raise ValueError("hyperplane normal must be nonzero")
    d = layer.input_dim
    if len(w) != d:
        raise ValueError("hyperplane normal dimension mismatch")
    n = d - 1
    if layer.width < n + 1:
        raise ValueError(f"gap theorem requires m >= n+1 (m={layer.width}, n={n})")
    ww = linalg.dot(w, w)
    p0 = tuple(v / ww for v in w)
    basis = linalg.nullspace_basis([w], d)
    restricted = restrict_layer(layer, p0, basis)
    r_total = len(_regions(layer))
    r_slice = len(_regions(restricted))
    m = layer.width
    return GapResult(r_total, r_slice, r_total - r_slice, comb(m - 1, n))
