"""Independent brute-force oracles used to validate the fast paths.

These deliberately avoid the library's simplex/closed-form code paths:
LP optima come from exact vertex enumeration over constraint subsets, and
Euler characteristics come from the definitional alternating sum over a
face decomposition.  solve_lp_reference is the slow path that the
integer-native solve_lp replaced, kept so the two can be compared LP by LP,
pivot counts included;
rank_reference and nullspace_basis_reference are the eliminations that
linalg's integer kernel replaced, kept the same way; det_reference is the
determinant that the Vandermonde product of network._shift_denominators
replaced.
affine_dimension_reference (one single-margin LP per tight row) is the
geometry that the implicit-equality LP replaced, and
recession_profile_reference (the row-activity LP) the one that
recession_profile's bound LP replaced.  contains_reference decides each
outer row by a minimum of the Fraction solver, where contains maximizes
the negated row.  build_poset_reference is the breadth-first
poset walk that closure extension replaced, and poset_from_cells reads
the same poset off the cells with no LP of its own.  mobius_reference is the
all-pairs Mobius table that Poset.face_counts' one inversion pass replaced,
and face_counts_reference evaluates the face-count formula on it.
has_lower_witness decides classify_vertices' strict-lower class by an LP of
its own.
classify_vertices_reference is the two-LP classification (a hull LP per
point, then a hull-plus-ray LP per vertex) that the one drop LP replaced.
partial_sum_trivial_bound compares the vertex count of every partial
Minkowski sum with the product bound, which only the tests check.
count_regions_line_reference is the line counter that the one pass over
pieces replaced: it collects tie points depth by depth, re-composing every
earlier layer from the input at each candidate interval.
region_walk_reference is the region walk by margin LPs that the fan walk
(arrangement._regions) replaced, carried children included, and
count_regions_reference reads its counts, boundedness by
region_bounded_reference, the recession profile reference on each leaf's
system.
subsum_sides_reference is the subsum identity evaluation that reading every
sub-arrangement off one region walk replaced: it walks each sub-layer
(sub_layer) again with region_walk_reference, and checks that every unit
has an atom by building the atoms (_require_units_with_atoms).
is_simple_reference is the simplicity check that the pruned depth-first
search replaced: it checks every atom tuple.
flats_transverse_reference is the flat certificate that integer flats and
prefix reductions replaced: it stacks each tuple's Fraction rows and asks
linalg.rank for the rank of the whole stack again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from typing import Iterable, Sequence

from tropic.arrangement import (
    Arrangement,
    Cell,
    Poset,
    PosetElement,
    RegionCount,
    SimplicityCertificate,
    _choice_system,
    _dedupe_units,
    build_atoms,
)
from tropic.bounds import alternating_subsum
from tropic.geometry import (
    ConstraintSystem,
    EmptyPolyhedronError,
    RecessionProfile,
    affine_dimension,
    contains,
    euler_characteristic,
    feasible,
    strictly_feasible,
)
from tropic import linalg
from tropic.linalg import dot
from tropic.minkowski import LabeledPointSet, VertexClassification, classify_vertices, minkowski_sum
from tropic.network import LayerSpec, NetworkSpec, projectivize
from tropic.linprog import (
    EQ,
    GE,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    InternalError,
    LPResult,
    require_lp_headroom,
    solve_lp,
)


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
        dim = affine_dimension_reference(piece)
        total += -1 if dim % 2 else 1
    return total


def enumerate_cells_unpruned(layer) -> list[Cell]:
    """Every argmax signature decided on its own, with no prefix pruning:
    the slow path that the pruned walks of enumerate_cells replaced, each
    cell's boundedness read by region_bounded_reference.

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
        cells.append(
            Cell(
                tuple(frozenset(c + 1 for c in t) for t in sig),
                n - rank_reference([c for c, _ in eqs]),
                region_bounded_reference(sys),
                w,
            )
        )
    return cells


def build_poset_reference(arr: Arrangement) -> Poset:
    """The intersection poset by a breadth-first walk: every element is
    intersected with every atom outside its key, so an element is reached
    again from each of its parents, and the repeats are dropped by key.
    Elements are sorted by (size, atoms), as build_poset sorts them.
    """
    n = arr.ambient_dim
    elements: dict[frozenset[int], ConstraintSystem] = {frozenset(): ConstraintSystem(n)}
    queue = [frozenset()]
    while queue:
        key = queue.pop(0)
        sys = elements[key]
        for ai, atom in enumerate(arr.atoms):
            if ai in key:
                continue
            cand = sys.intersection(atom.system)
            w = feasible(cand)
            if w is None:
                continue
            support = set(key) | {ai}
            for bi, other in enumerate(arr.atoms):
                if bi not in support and other.system.satisfies(w) and contains(other.system, cand):
                    support.add(bi)
            skey = frozenset(support)
            if skey not in elements:
                elements[skey] = cand
                queue.append(skey)

    keys = sorted(elements, key=lambda s: (len(s), sorted(s)))
    out = []
    for idx, key in enumerate(keys):
        dim = affine_dimension(elements[key])
        units = frozenset(arr.atoms[a].unit for a in key)
        support = None if arr.central and dim == 0 else units
        out.append(PosetElement(idx, dim, euler_characteristic(elements[key]), key, support))
    leq = tuple(tuple(x.atom_support <= y.atom_support for y in out) for x in out)
    return Poset(arr, tuple(out), leq)


def poset_from_cells(arr: Arrangement, cells: Sequence[Cell]) -> dict[frozenset[int], tuple[int, int]]:
    """{key: (dim, psi)} of the intersection poset, read off the cells of
    enumerate_cells with no LP of its own.  A cell c lies in atom (u, a, b)
    exactly when a and b are both in its argmax set for unit u; call that
    atom set A(c).  The keys are the empty set and every intersection of
    one or more A(c); an element's cells are those whose A(c) holds its
    key, its dim is the largest of theirs, and its psi is the sum of
    (-1)^dim c over them, since a relatively open d-cell is homeomorphic
    to R^d."""
    atom_sets = [
        frozenset(ai for ai, atom in enumerate(arr.atoms) if set(atom.pair) <= c.signature[atom.unit - 1])
        for c in cells
    ]
    keys = {frozenset()}
    for a in set(atom_sets):
        keys |= {a} | {a & k for k in keys}
    out = {}
    for key in keys:
        dims = [c.dim for c, a in zip(cells, atom_sets) if key <= a]
        out[key] = (max(dims), sum((-1) ** d for d in dims))
    return out


def mobius_reference(poset: Poset) -> tuple[tuple[int, ...], ...]:
    """mu[x][y] for every pair of elements, 0 unless x <= y: row x by the
    recursion mu(x, y) = -sum of mu(x, t) over x <= t < y, with the elements
    above x processed upward in atom-support size, a linear extension of
    the order."""
    n = len(poset.elements)
    rows = []
    for i in range(n):
        mu = [0] * n
        mu[i] = 1
        above = (j for j in range(n) if j != i and poset.leq[i][j])
        for j in sorted(above, key=lambda j: len(poset.elements[j].atom_support)):
            mu[j] = -sum(mu[t] for t in range(n) if t != j and poset.leq[t][j])
        rows.append(tuple(mu))
    return tuple(rows)


def face_counts_reference(poset: Poset, mu) -> tuple[int, ...]:
    """(f_0, ..., f_n) from the Mobius table mu:
    f_s = (-1)^s sum over dim x = s of sum over y >= x of mu(x, y) psi(y)."""
    f = [0] * (poset.arrangement.ambient_dim + 1)
    for x in poset.elements:
        inner = sum(y.psi * mu[x.id][y.id] for y in poset.elements if poset.leq[x.id][y.id])
        f[x.dim] += (-1) ** x.dim * inner
    return tuple(f)


def has_lower_witness(ps, index: int) -> bool:
    """Whether point index of ps admits a strict separator with negative
    last coordinate: whether it lies outside conv(other points) + cone(e_d).
    One feasibility LP over convex weights and the ray's multiplier.
    """
    p = ps.points[index]
    others = [q for j, q in enumerate(ps.points) if j != index]
    if not others:
        return True
    up = [0] * (ps.dim - 1) + [1]
    k = len(others)
    cons = [([q[i] for q in others] + [up[i]], EQ, p[i]) for i in range(ps.dim)]
    cons.append(([1] * k + [0], EQ, 1))
    return solve_lp(k + 1, [0] * (k + 1), cons, nonneg=[True] * (k + 1)).status == INFEASIBLE


def _in_hull_with_ray(p, others, ray) -> bool:
    """Feasibility of p in conv(others) (+ cone(ray) when given)."""
    if not others:
        return False
    d = len(p)
    k = len(others)
    nv = k + (1 if ray is not None else 0)
    cons = []
    for coord in range(d):
        row = [q[coord] for q in others]
        if ray is not None:
            row.append(ray[coord])
        cons.append((row, EQ, p[coord]))
    row = [1] * k + ([0] if ray is not None else [])
    cons.append((row, EQ, 1))
    res = solve_lp(nv, [0] * nv, cons, nonneg=[True] * nv)
    return res.status != INFEASIBLE


def classify_vertices_reference(ps) -> VertexClassification:
    """A point is a vertex when it lies outside the hull of the others, and
    an upper vertex when it also lies outside that hull plus the downward
    ray; strict lower vertices are the vertices that are not upper.  Points
    proven interior leave later hulls, as in classify_vertices.
    """
    down = tuple(Fraction(0) for _ in range(ps.dim - 1)) + (Fraction(-1),)
    is_v, is_u, is_l = [], [], []
    alive = list(range(len(ps.points)))
    for i, p in enumerate(ps.points):
        others = [ps.points[j] for j in alive if j != i]
        vertex = not _in_hull_with_ray(p, others, None)
        if not vertex:
            alive.remove(i)
        upper = vertex and not _in_hull_with_ray(p, others, down)
        is_v.append(vertex)
        is_u.append(upper)
        is_l.append(vertex and not upper)
    return VertexClassification(ps.points, tuple(is_v), tuple(is_u), tuple(is_l))


@dataclass(frozen=True)
class PartialSumBound:
    actual: int
    trivial: int


def partial_sum_trivial_bound(sets: Sequence[LabeledPointSet], n: int):
    """actual vs trivial vertex counts, f_0(sum over S) vs prod f_0(P_i),
    for every nonempty S with |S| <= n."""
    singles = [classify_vertices(s).vertex_count for s in sets]
    out = {}
    for j in range(1, n + 1):
        for S in combinations(range(len(sets)), j):
            actual = classify_vertices(minkowski_sum([sets[i] for i in S])).vertex_count
            trivial = 1
            for i in S:
                trivial *= singles[i]
            out[frozenset(i + 1 for i in S)] = PartialSumBound(actual, trivial)
    return out


def _optimal(res: LPResult) -> LPResult:
    if res.status != OPTIMAL:
        raise InternalError(f"bounded feasible LP returned {res.status}")
    return res


def _max_margin(d, eqs, margined, plain):
    # max t over {eqs, c . x >= r + t on margined rows, c . x >= r on plain
    # rows, 0 <= t <= 1}.
    cons = [(list(c) + [0], EQ, r) for c, r in eqs]
    cons += [(list(c) + [-1], GE, r) for c, r in margined]
    cons += [(list(c) + [0], GE, r) for c, r in plain]
    cons.append(([0] * d + [-1], GE, -1))
    return solve_lp(d + 1, [0] * d + [1], cons, nonneg=[False] * d + [True])


def affine_dimension_reference(sys: ConstraintSystem) -> int | None:
    """Affine dimension by one common-margin LP, then at margin 0 one
    single-margin LP per inequality tight at its point: a row is an
    implicit equality when its own margin cannot become positive."""
    d = sys.ambient_dim
    eqs = list(sys.equalities)
    res = _max_margin(d, eqs, sys.inequalities, [])
    if res.status == INFEASIBLE:
        return None
    if _optimal(res).value == 0 and sys.inequalities:
        x = res.x[:d]
        for i, (c, r) in enumerate(sys.inequalities):
            if dot(c, x) > r:
                continue
            others = [row for k, row in enumerate(sys.inequalities) if k != i]
            if _optimal(_max_margin(d, eqs, [(c, r)], others)).value == 0:
                eqs.append((c, r))
    return d - rank_reference([c for c, _ in eqs])


def recession_profile_reference(sys: ConstraintSystem) -> RecessionProfile:
    """Recession profile by a plain feasibility LP and the row-activity LP:
    maximize the sum of s_i = c_i . v over the recession cone with each s_i
    in [0, 1]; the pointed part is bounded when the optimum is 0."""
    d = sys.ambient_dim
    cons = [(c, EQ, r) for c, r in sys.equalities] + [(c, GE, r) for c, r in sys.inequalities]
    if solve_lp(d, [0] * d, cons).status != OPTIMAL:
        raise EmptyPolyhedronError("recession profile of an empty polyhedron")
    lineality_dim = d - rank_reference([c for c, _ in sys.equalities + sys.inequalities])
    n_in = len(sys.inequalities)
    if n_in == 0:
        return RecessionProfile(lineality_dim, True)
    nv = d + n_in
    cons = [(list(c) + [0] * n_in, EQ, 0) for c, _ in sys.equalities]
    for i, (c, _) in enumerate(sys.inequalities):
        row = list(c) + [0] * n_in
        row[d + i] = -1
        cons.append((row, EQ, 0))  # s_i = c . v
        cap = [0] * nv
        cap[d + i] = -1
        cons.append((cap, GE, -1))  # s_i <= 1
    obj = [0] * d + [1] * n_in
    res = _optimal(solve_lp(nv, obj, cons, nonneg=[False] * d + [True] * n_in))
    return RecessionProfile(lineality_dim, res.value == 0)


def contains_reference(outer: ConstraintSystem, inner: ConstraintSystem) -> bool:
    """Containment of a nonempty inner in outer, row by row with the Fraction
    solver: each outer row c . x >= r, an equality as its two inequalities,
    holds when min c . x over inner is at least r."""
    d = inner.ambient_dim
    cons = [(c, EQ, r) for c, r in inner.equalities]
    cons += [(c, GE, r) for c, r in inner.inequalities]
    rows = list(outer.inequalities) + list(outer.equalities)
    rows += [(tuple(-v for v in c), -r) for c, r in outer.equalities]
    for c, r in rows:
        res = solve_lp_reference(d, c, cons, maximize=False)
        if res.status == INFEASIBLE:
            raise EmptyPolyhedronError("containment of an empty inner system")
        if res.status == UNBOUNDED or res.value < r:
            return False
    return True


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


_reference_pivots = 0


def reference_pivot_count() -> int:
    """Total tableau pivots of solve_lp_reference, drive-out pivots
    included; the differential test compares it with lp_pivot_count()."""
    return _reference_pivots


def solve_lp_reference(
    num_vars: int,
    objective: Sequence,
    constraints: Iterable[tuple[Sequence, str, object]],
    nonneg: Sequence[bool] | None = None,
    maximize: bool = True,
) -> LPResult:
    """The Fraction-scaled simplex that linprog.solve_lp replaced, kept as
    the reference for the differential test: rows are built as Fractions,
    scaled to integers entry by entry, and every pivot divides entry by entry.
    Same signature and LPResult as solve_lp; it counts no LP call.  It keeps
    the artificial columns and carries both cost rows through every pivot,
    where solve_lp has neither, and its pivots, counted by
    reference_pivot_count(), are tested to be solve_lp's under Bland's rule.
    """
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
        global _reference_pivots
        _reference_pivots += 1
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


def rank_reference(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a matrix given as rows of Fractions, by Gaussian elimination."""
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return 0
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        prow = mat[r]
        pval = prow[c]
        for i in range(r + 1, len(mat)):
            f = mat[i][c]
            if f:
                mat[i] = [a - f / pval * b for a, b in zip(mat[i], prow)]
        r += 1
        if r == len(mat):
            break
    return r


def nullspace_basis_reference(rows: Sequence[Sequence[Fraction]], dim: int) -> list[tuple[Fraction, ...]]:
    """Basis of {v : row . v = 0 for all rows}, as vectors in Q^dim, by
    Gauss-Jordan elimination over Fractions."""
    mat = [list(r) for r in rows if any(r)]
    pivots: list[int] = []
    r = 0
    for c in range(dim):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pval = mat[r][c]
        mat[r] = [a / pval for a in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    basis = []
    free_cols = [c for c in range(dim) if c not in pivots]
    for fc in free_cols:
        v = [Fraction(0)] * dim
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -mat[i][fc]
        basis.append(tuple(v))
    return basis


def flats_transverse_reference(l: LayerSpec) -> bool:
    """network.flats_transverse by the Fraction rows of every flat, each
    tuple's stack ranked from scratch by linalg.rank."""
    central = projectivize(l)
    n = central.input_dim
    flats = [
        [
            [tuple(a - b for a, b in zip(u.weights[s[0]], u.weights[c])) for c in s[1:]]
            for size in range(2, min(u.rank, n + 1) + 1)
            for s in combinations(range(u.rank), size)
        ]
        for u in central.units
    ]

    def transverse(start: int, rows: list) -> bool:
        for i in range(start, len(flats)):
            for flat in flats[i]:
                stacked = rows + flat
                if linalg.rank(stacked) < min(len(stacked), n):
                    return False
                if len(stacked) < n and not transverse(i + 1, stacked):
                    return False
        return True

    return transverse(0, [])


def det_reference(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix, by Bareiss elimination
    below the diagonal only."""
    n = len(rows)
    if n == 0:
        return 1
    m = [r[:] for r in rows]
    prev = 1
    sign = 1
    for c in range(n - 1):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                m[i][j] = (m[i][j] * m[c][c] - m[i][c] * m[c][j]) // prev
        prev = m[c][c]
    return sign * m[n - 1][n - 1]


def count_regions_line_reference(net: NetworkSpec) -> int:
    """Exact number of linear regions of a one-input network.

    Collects candidate breakpoints layer by layer (pairwise feature ties over
    each interval of the current subdivision), then counts maximal intervals
    on which the full network is one affine map.
    """
    if net.input_dim != 1:
        raise ValueError("count_regions_line needs a one-input network")
    candidates: list[Fraction] = []

    def representatives(cands: list[Fraction]) -> list[Fraction]:
        if not cands:
            return [Fraction(0)]
        reps = [cands[0] - 1]
        for a, b in zip(cands, cands[1:]):
            reps.append((a + b) / 2)
        reps.append(cands[-1] + 1)
        return reps

    def affine_through(layers, rep):
        # Affine map t -> p + q t of the composition, valid on the interval
        # of rep (ties at rep persist on the whole interval, so any argmax
        # feature yields the same restriction).
        p = [Fraction(0)]
        q = [Fraction(1)]
        for l in layers:
            np_, nq = [], []
            for u in l.units:
                best = None
                for w, b in u.features():
                    c0 = dot(w, p) + b
                    c1 = dot(w, q)
                    val = c0 + c1 * rep
                    if best is None or val > best[0]:
                        best = (val, c0, c1)
                np_.append(best[1])
                nq.append(best[2])
            p, q = np_, nq
        return tuple(p), tuple(q)

    for depth, l in enumerate(net.layers):
        new_pts: set[Fraction] = set()
        for rep in representatives(candidates):
            p, q = affine_through(net.layers[:depth], rep)
            for u in l.units:
                feats = [(dot(w, p) + b, dot(w, q)) for w, b in u.features()]
                for (c0, c1), (d0, d1) in combinations(feats, 2):
                    if c1 != d1:
                        new_pts.add((d0 - c0) / (c1 - d1))
        candidates = sorted(set(candidates) | new_pts)

    reps = representatives(candidates)
    maps = [affine_through(net.layers, r) for r in reps]
    regions = 1
    for a, b in zip(maps, maps[1:]):
        if a != b:
            regions += 1
    return regions


def region_walk_reference(layer: LayerSpec) -> list:
    """(signature, system, point) of every region, by margin LPs, in
    lexicographic signature order: the walk over one strict argmax per
    unit, indexed by _dedupe_units' features, that the fan walk replaced.

    Level i extends every nonempty node by each feature of unit i and keeps
    the strictly feasible children.  The child whose feature is its unit's
    single argmax at its parent's point, the carried child, is handed that
    point with no LP, at every level; every other child costs one margin LP
    unless it is already solved or decided by rank.  A level with more such
    children than the current lp_budget has LPs left raises
    BudgetExceededError before it solves any."""
    layer = _dedupe_units(layer)
    n = layer.input_dim
    nodes = [((), ConstraintSystem(n), (Fraction(0),) * n)]
    for u in layer.units:
        level = [(a, _choice_system(n, u, (a,))) for a in range(u.rank)]
        children, needs = [], 0
        for prefix, parent, w in nodes:
            held = u.argmax(w)
            for a, rows in level:
                sys = parent.intersection(rows)
                point = w if (a,) == held else None
                needs += point is None and sys.margin_costs_lp
                children.append((prefix + (a,), sys, point))
        require_lp_headroom(needs)
        nodes = []
        for sig, sys, w in children:
            if w is None:
                w = strictly_feasible(sys)
            if w is not None:
                nodes.append((sig, sys, w))
    return nodes


def region_bounded_reference(sys: ConstraintSystem) -> bool:
    """Whether the closure of a nonempty system's polyhedron is bounded, by
    recession_profile_reference: no lineality and a bounded pointed part."""
    prof = recession_profile_reference(sys)
    return prof.lineality_dim == 0 and prof.pointed_part_bounded


def count_regions_reference(layer: LayerSpec) -> RegionCount:
    """Region and bounded-region counts of region_walk_reference, each
    region's boundedness read by region_bounded_reference off its system."""
    bounded = [region_bounded_reference(sys) for _, sys, _ in region_walk_reference(layer)]
    return RegionCount(len(bounded), sum(bounded))


def sub_layer(layer: LayerSpec, subset: Iterable[int]) -> LayerSpec:
    """Layer keeping only the (1-based) units in subset."""
    keep = sorted(subset)
    units = tuple(layer.units[i - 1] for i in keep)
    return LayerSpec(layer.input_dim, units, layer.bias_mode)


def _require_units_with_atoms(layer: LayerSpec, arr: Arrangement):
    atom_units = {a.unit for a in arr.atoms}
    missing = [i + 1 for i in range(layer.width) if (i + 1) not in atom_units]
    if missing:
        raise ValueError(
            f"units {missing} contribute no atoms; drop them before applying the identity"
        )


def subsum_sides_reference(layer: LayerSpec, n: int, assume_simple: bool) -> tuple[int, int]:
    """Region count and alternating sum over the <=n-unit sub-arrangements
    of a subsum identity in Q^n, each sub-arrangement counted by a region
    walk of its own (the unitless one is 1 region, no LP)."""
    m = layer.width
    if m < n + 1:
        raise ValueError(f"identity requires m >= n+1 (m={m}, n={n})")
    arr = build_atoms(layer)
    _require_units_with_atoms(layer, arr)
    if not assume_simple and not is_simple_reference(arr).simple:
        raise ValueError("arrangement is not simple")
    regions = len(region_walk_reference(layer))
    return regions, alternating_subsum(
        m, n, lambda S: len(region_walk_reference(sub_layer(layer, (i + 1 for i in S))))
    )


def is_simple_reference(arr: Arrangement) -> SimplicityCertificate:
    """Certify that any j atoms of distinct units intersect in codimension j
    (empty allowed; for central arrangements the origin is allowed instead),
    checking every tuple of two to n+1 atoms of distinct units depth first,
    a tuple before its extensions, and reporting the first that fails."""
    n = arr.ambient_dim
    by_unit: dict[int, list[int]] = {}
    for i, a in enumerate(arr.atoms):
        by_unit.setdefault(a.unit, []).append(i)
    units = sorted(by_unit)
    max_j = min(len(units), n + 1)

    def check_subset(j: int, sys: ConstraintSystem) -> bool:
        dim = affine_dimension(sys)
        if dim is None:  # empty
            return not arr.central  # central atoms all meet at the origin
        if dim == n - j:
            return True
        return arr.central and dim == 0

    def atom_tuples(u_pos: int, chosen: tuple[int, ...], sys: ConstraintSystem):
        if len(chosen) > 1:
            yield chosen, sys
        if len(chosen) < max_j:
            for pos in range(u_pos, len(units)):
                for ai in by_unit[units[pos]]:
                    yield from atom_tuples(
                        pos + 1, chosen + (ai,), sys.intersection(arr.atoms[ai].system)
                    )

    tuples = atom_tuples(0, (), ConstraintSystem(n))
    violation = next((t for t, sys in tuples if not check_subset(len(t), sys)), None)
    return SimplicityCertificate(violation is None, violation)
