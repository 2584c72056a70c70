"""Static guards for the exactness invariants of the tropic package.

An `assert` statement disappears under `python -O`, so internal invariants
raise typed errors instead; the package computes with int and Fraction only,
so no float literal appears in its source; no module imports or reads
another module's private names; exact elimination lives in linalg alone, no
other module uses its private names, and _kernel alone writes its null-space
vectors; solve_lp runs both phases and both entering rules in one
pivot loop; geometry solves its LPs in three places only, a system's
common-margin LP only through the system's cache, and the implicit-equality
LP for affine_dimension alone; a point is checked against a system in
contains alone, and recession_profile takes the system alone; the walks
decide boundedness with no LP; minkowski solves its LPs in the drop LP
alone, the only LP that enters by the largest coefficient rather than by
Bland's rule; arrangement builds argmax rows in one helper; the line counter
composes features through restrict_layer alone; the subsum identities walk
the regions once and build atoms only when simplicity is not assumed; the
cell walk only traverses, no walk takes a leaf function, and the fan walk
reaches no LP, atom or poset; the flat certificate
of sampled layers solves no LP; both constructions build every unit as a
ladder through _ladder_unit; the Weibel certificate finds parallel
difference vectors by their primitive directions, with no rank; every
integer command-line argument is range-checked; and each refusal is raised
in one place and reported by main alone: the LP budget is tested by
require_lp_headroom, and no command handler prints a refusal or picks its
exit code; and cli._write_out alone opens a file for writing, never
truncating it to zero first.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "tropic").glob("*.py"))


def _nodes(path):
    return list(ast.walk(ast.parse(path.read_text(), filename=str(path))))


def test_sources_are_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = [n.lineno for n in _nodes(path) if isinstance(n, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_float_literals(path):
    lines = [
        n.lineno
        for n in _nodes(path)
        if isinstance(n, ast.Constant) and isinstance(n.value, (float, complex))
    ]
    assert lines == [], f"{path.name}: float literal at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_integer_elimination_lives_in_linalg(path):
    # gcd and lcm are the marks of integer row scaling and elimination,
    # which linalg owns for the whole package.
    if path.name == "linalg.py":
        return
    names = [
        (n.lineno, a.name)
        for n in _nodes(path)
        if isinstance(n, ast.ImportFrom) and n.module == "math"
        for a in n.names
        if a.name in ("gcd", "lcm")
    ]
    assert names == [], f"{path.name}: imports {names} from math; use tropic.linalg"


def test_no_module_uses_a_private_linalg_name():
    # linalg's private helpers (its elimination _reduce, say) are its own;
    # a module that reduced rows through them would bypass the public
    # functions, solve_affine among them, that say what a reduction means.
    linalg = next(p for p in SOURCES if p.name == "linalg.py")
    private = {
        s.name
        for s in ast.parse(linalg.read_text()).body
        if isinstance(s, (ast.FunctionDef, ast.ClassDef)) and s.name.startswith("_")
    }
    assert "_reduce" in private
    found = []
    for path in SOURCES:
        if path == linalg:
            continue
        for n in _nodes(path):
            if isinstance(n, ast.Attribute) and n.attr in private:
                found.append(f"{path.name}:{n.lineno} {n.attr}")
            if isinstance(n, ast.ImportFrom) and n.module and n.module.endswith("linalg"):
                found += [f"{path.name}:{n.lineno} {a.name}" for a in n.names if a.name in private]
    assert found == [], f"private linalg names used outside linalg: {found}"


def _module_private_names(path):
    # The _-prefixed names a module defines at its top level.
    names = set()
    for s in ast.parse(path.read_text()).body:
        if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(s.name)
        elif isinstance(s, (ast.Assign, ast.AnnAssign)):
            targets = s.targets if isinstance(s, ast.Assign) else [s.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def test_no_module_uses_another_modules_private_name():
    # A module's _-prefixed names are its own to change; a caller that
    # needs one needs a public name that says what it answers.  Both
    # `from .m import _name` and `m._name` after `from . import m` count,
    # at any depth.
    private = {p.stem: _module_private_names(p) for p in SOURCES}
    assert "_reduce" in private["linalg"] and "_ladder_unit" in private["network"]
    found = []
    for path in SOURCES:
        nodes = _nodes(path)
        aliases = {
            a.asname or a.name: a.name
            for n in nodes
            if isinstance(n, ast.ImportFrom) and n.level == 1 and n.module is None
            for a in n.names
        }
        for n in nodes:
            if isinstance(n, ast.ImportFrom) and n.level == 1 and n.module in private and n.module != path.stem:
                found += [f"{path.name}:{n.lineno} {n.module}.{a.name}" for a in n.names if a.name in private[n.module]]
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in aliases:
                module = aliases[n.value.id]
                if module != path.stem and n.attr in private.get(module, ()):
                    found.append(f"{path.name}:{n.lineno} {module}.{n.attr}")
    assert found == [], f"private names used outside their module: {found}"


def test_solve_lp_has_one_pivot_loop():
    # Both phases and both entering rules share one simplex loop, and one
    # helper hands each pivot to linalg.pivot and records it in the basis;
    # a second loop or a second pivot call would be a second simplex to
    # keep in step with the first.
    path = next(p for p in SOURCES if p.name == "linprog.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    solve = next(s for s in tree.body if getattr(s, "name", None) == "solve_lp")
    nodes = list(ast.walk(solve))
    loops = [n.lineno for n in nodes if isinstance(n, ast.While)]
    pivots = [
        n.lineno
        for n in nodes
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr == "pivot"
        and isinstance(n.func.value, ast.Name)
        and n.func.value.id == "linalg"
    ]
    assert len(loops) == 1, f"linprog.py: solve_lp has while loops at lines {loops}"
    assert len(pivots) == 1, f"linprog.py: solve_lp calls linalg.pivot at lines {pivots}"


def _solve_lp_users(name):
    # The top-level statements of module name that refer to solve_lp.
    path = next(p for p in SOURCES if p.name == name)
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        getattr(stmt, "name", f"line {stmt.lineno}")
        for stmt in tree.body
        for n in ast.walk(stmt)
        if (isinstance(n, ast.Name) and n.id == "solve_lp")
        or (isinstance(n, ast.Attribute) and n.attr == "solve_lp")
    }


def _names_in_body(name, func):
    # The names and attributes that the body of function func of module
    # name refers to; its signature is left out.
    path = next(p for p in SOURCES if p.name == name)
    tree = ast.parse(path.read_text(), filename=str(path))
    fn = next(s for s in tree.body if getattr(s, "name", None) == func)
    nodes = [n for stmt in fn.body for n in ast.walk(stmt)]
    return {n.id for n in nodes if isinstance(n, ast.Name)} | {
        n.attr for n in nodes if isinstance(n, ast.Attribute)
    }


def test_kernel_vectors_have_one_builder():
    # _kernel writes the null-space vectors of a reduction once, as
    # integers; a back-substitution in a caller would be a second copy to
    # keep in step with it.
    for func in ("kernel_line", "nullspace_basis", "solve_affine"):
        assert "_kernel" in _names_in_body("linalg.py", func), func


def test_constructions_build_units_as_ladders():
    # Every unit of both constructions is a convex ladder along one
    # direction, built by _ladder_unit; a MaxoutUnitSpec call in either
    # would write a ladder's features by hand a second time.
    path = next(p for p in SOURCES if p.name == "network.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    for func in ("construct_shallow_optimal", "construct_deep_lower"):
        fn = next(s for s in tree.body if getattr(s, "name", None) == func)
        called = {n.func.id for n in ast.walk(fn) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
        assert "_ladder_unit" in called and "MaxoutUnitSpec" not in called, (func, sorted(called))


def test_weibel_certificate_compares_primitive_directions():
    # Two difference vectors are parallel exactly when their primitive
    # integer directions are equal, so one set of directions per summand
    # decides it; a rank per pair of vectors would decide it again.
    names = _names_in_body("verify.py", "_weibel_certificate")
    assert "primitive" in names and "rank" not in names, sorted(names & {"primitive", "rank"})


def test_geometry_has_three_lp_formulations():
    # The common-margin LP, the implicit-equality LP and the bound LP are
    # the only places geometry may use solve_lp.  contains and
    # recession_profile both ask the bound LP, and recession_profile
    # derives no system of its own to ask another LP of.
    users = _solve_lp_users("geometry.py")
    assert users == {"_max_common_margin", "_implicit_equalities", "_at_most"}, users
    for func in ("contains", "recession_profile"):
        assert "_at_most" in _names_in_body("geometry.py", func), func
    found = _names_in_body("geometry.py", "recession_profile")
    found &= {"ConstraintSystem", "intersection"}
    assert found == set(), f"recession_profile builds a system through {sorted(found)}"


def test_points_are_checked_only_by_contains():
    # A walk leaf's point is strict on its system by construction, and a
    # poset candidate's point is tested by contains itself; a satisfies
    # call anywhere else would check a point a second time.
    calls = sorted(
        f"{path.name}:{getattr(stmt, 'name', stmt.lineno)}"
        for path in SOURCES
        for stmt in ast.parse(path.read_text(), filename=str(path)).body
        for n in ast.walk(stmt)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "satisfies"
    )
    assert calls == ["geometry.py:contains"], calls


def test_recession_profile_takes_the_system_alone():
    # Strictness is read off the system's own margin LP; a second
    # parameter would let a caller vouch for it and skip the emptiness
    # check.
    path = next(p for p in SOURCES if p.name == "geometry.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    fn = next(s for s in tree.body if getattr(s, "name", None) == "recession_profile")
    args = fn.args
    assert [a.arg for a in args.posonlyargs + args.args] == ["sys"]
    assert (args.vararg, args.kwonlyargs, args.kwarg) == (None, [], None)


def test_walk_leaves_decide_boundedness_with_no_lp():
    # A region's or a cell's boundedness is read off the rays of the
    # layer's homogenized fan by the walk itself; an LP there, where the
    # walk's leaves are read, or in the ray builder, would solve per leaf
    # what the gradients already decide.
    for func in ("_cells", "enumerate_cells", "count_regions_bruteforce", "_regions", "_fan_rays"):
        found = _names_in_body("arrangement.py", func) & {"solve_lp", "recession_profile", "_at_most"}
        assert found == set(), f"{func} refers to {sorted(found)}"


def test_implicit_equality_lp_has_one_job():
    # affine_dimension at margin 0 is the implicit-equality LP's one caller;
    # recession_profile answers through the bound LP, so neither that LP
    # nor a solve_lp of its own may appear in it.
    callers = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        callers |= {
            f"{path.name}:{getattr(stmt, 'name', stmt.lineno)}"
            for stmt in tree.body
            if getattr(stmt, "name", None) != "_implicit_equalities"
            for n in ast.walk(stmt)
            if (isinstance(n, ast.Name) and n.id == "_implicit_equalities")
            or (isinstance(n, ast.Attribute) and n.attr == "_implicit_equalities")
        }
    assert callers == {"geometry.py:affine_dimension"}, callers
    found = _names_in_body("geometry.py", "recession_profile")
    found &= {"solve_lp", "_implicit_equalities"}
    assert found == set(), f"recession_profile refers to {sorted(found)}"


def test_minkowski_has_one_lp_formulation():
    # One drop LP per point decides all three vertex classes; a second
    # formulation would solve again what it already decides.
    assert _solve_lp_users("minkowski.py") == {"_drop_to_hull"}


def test_only_the_drop_lp_chooses_its_entering_rule():
    # Every other LP keeps Bland's rule, whose witness is a fixed function
    # of the input: the margin LP's point is emitted and reused, and the
    # bound and implicit-equality LPs keep it until the fast rule is
    # measured on them.
    callers = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            for n in ast.walk(stmt):
                if (
                    isinstance(n, ast.Call)
                    and ((isinstance(n.func, ast.Name) and n.func.id == "solve_lp")
                         or (isinstance(n.func, ast.Attribute) and n.func.attr == "solve_lp"))
                    and any(kw.arg in ("entering", None) for kw in n.keywords)
                ):
                    callers.add(f"{path.name}:{getattr(stmt, 'name', stmt.lineno)}")
    assert callers == {"minkowski.py:_drop_to_hull"}, callers


def test_arrangement_builds_argmax_rows_in_one_helper():
    # Every walk in arrangement reaches a polyhedron by intersecting its
    # parent's system with choice systems; a system with rows built anywhere
    # else would be a second way to write argmax rows.  A walk's empty root,
    # ConstraintSystem(n), is allowed.
    path = next(p for p in SOURCES if p.name == "arrangement.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    helper = next(s for s in tree.body if getattr(s, "name", None) == "_choice_system")

    def builds_rows(n):
        if not isinstance(n, ast.Call) or len(n.args) + len(n.keywords) < 2:
            return False
        f = n.func.value if isinstance(n.func, ast.Attribute) and n.func.attr == "build" else n.func
        return (isinstance(f, ast.Name) and f.id == "ConstraintSystem") or (
            isinstance(f, ast.Attribute) and f.attr == "ConstraintSystem"
        )

    inside = {id(n) for n in ast.walk(helper)}
    lines = [n.lineno for n in ast.walk(tree) if builds_rows(n) and id(n) not in inside]
    assert any(builds_rows(n) for n in ast.walk(helper))
    assert lines == [], f"arrangement.py: ConstraintSystem with rows at lines {lines}"


def test_line_counter_composes_features_through_restrict_layer():
    # count_regions_line reads the one-input layer each piece sees off
    # restrict_layer; a dot product in it would compose features by hand
    # a second time.
    path = next(p for p in SOURCES if p.name == "network.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    counter = next(s for s in tree.body if getattr(s, "name", None) == "count_regions_line")
    nodes = list(ast.walk(counter))
    assert any(isinstance(n, ast.Name) and n.id == "restrict_layer" for n in nodes)
    lines = [
        n.lineno
        for n in nodes
        if isinstance(n, ast.Call)
        and ((isinstance(n.func, ast.Name) and n.func.id == "dot")
             or (isinstance(n.func, ast.Attribute) and n.func.attr == "dot"))
    ]
    assert lines == [], f"network.py: count_regions_line calls dot at lines {lines}"


def test_subsum_identities_walk_the_regions_once():
    # Every sub-arrangement's count is read off the full walk's signatures;
    # a second walk, or a sub-layer to walk, would count again what the
    # one walk already has.
    path = next(p for p in SOURCES if p.name == "arrangement.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    sides = next(s for s in tree.body if getattr(s, "name", None) == "_subsum_sides")
    called = [
        n.func.id for n in ast.walk(sides) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
    ]
    assert called.count("_regions") == 1 and "count_regions_bruteforce" not in called, called
    defined = [
        f"{p.name}:{n.lineno}"
        for p in SOURCES
        for n in _nodes(p)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.name == "sub_layer"
    ]
    assert defined == [], f"sub_layer defined at {defined}"


def _arrangement_function(name):
    path = next(p for p in SOURCES if p.name == "arrangement.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    return next(s for s in tree.body if getattr(s, "name", None) == name)


def test_region_walk_only_traverses():
    # What a leaf becomes is read off the cell walk's leaves by its
    # caller; a Cell, a system, an LP or a dimension in the walk itself
    # would be work that belongs to the cell report.
    walk = _arrangement_function("_cells")
    names = {n.id for n in ast.walk(walk) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(walk) if isinstance(n, ast.Attribute)}
    found = names & {"Cell", "ConstraintSystem", "solve_lp", "feasible", "strictly_feasible",
                     "require_lp_headroom", "recession_profile", "affine_dimension"}
    assert found == set(), f"_cells refers to {sorted(found)}"


def test_frontier_takes_no_leaf_function():
    # The fan walk, and the region walk on it, each take the layer alone
    # and return their leaves, and each caller reads what it needs off
    # them; a callable parameter would let per-leaf work hide inside a
    # walk, and a flag would make a second walk of it.
    for func in ("_cells", "_regions"):
        args = _arrangement_function(func).args
        assert [a.arg for a in args.posonlyargs + args.args] == ["layer"], func
        assert (args.vararg, args.kwonlyargs, args.kwarg) == (None, [], None), func


def _functions_reached(starts):
    # The top-level functions and methods of arrangement.py and network.py
    # that starts reach, following every name and attribute that is one of
    # theirs; each maps to the names and attributes its body refers to.
    defs = {}
    for name in ("arrangement.py", "network.py"):
        path = next(p for p in SOURCES if p.name == name)
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            body = stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]
            for fn in body:
                if isinstance(fn, ast.FunctionDef):
                    nodes = [n for s in fn.body for n in ast.walk(s)]
                    defs[fn.name] = {n.id for n in nodes if isinstance(n, ast.Name)} | {
                        n.attr for n in nodes if isinstance(n, ast.Attribute)
                    }
    reached, stack = {}, list(starts)
    while stack:
        func = stack.pop()
        if func not in reached:
            reached[func] = defs[func]
            stack += [n for n in defs[func] if n in defs]
    return reached


def test_fan_walk_is_an_independent_counter():
    # The pattern count is one of three region counters that must agree
    # (ROADMAP aim 3): it reads integer ranks and argmax tests off the
    # layer's fan.  A geometry or linprog name anywhere it reaches would
    # make it an LP counter again, and the atoms or the poset would tie it
    # to the poset count it is checked against.
    path = next(p for p in SOURCES if p.name == "arrangement.py")
    banned = {"geometry", "linprog", "atoms", "poset", "build_atoms", "build_poset", "is_simple",
              "Arrangement", "Atom", "Poset", "count_regions_poset"}
    for n in _nodes(path):
        if isinstance(n, ast.ImportFrom) and n.module in ("geometry", "linprog"):
            banned |= {a.asname or a.name for a in n.names}
    assert {"strictly_feasible", "require_lp_headroom"} <= banned
    reached = _functions_reached(["count_regions_bruteforce", "_regions"])
    assert {"_fan_rays", "_dedupe_units", "projectivize", "restrict_layer", "integer_gradients"} <= set(reached)
    found = {func: sorted(names & banned) for func, names in reached.items() if names & banned}
    assert found == {}, found


def test_subsum_sides_builds_atoms_only_without_assumed_simplicity():
    # A unit's gradients show whether it has an atom, so the atoms, and the
    # simplicity check that needs them, are built only when simplicity is
    # not assumed: behind `not assume_simple`, as an if test or as an
    # earlier operand of the same `and`.
    sides = _arrangement_function("_subsum_sides")

    def is_guard(n):
        return (
            isinstance(n, ast.UnaryOp)
            and isinstance(n.op, ast.Not)
            and isinstance(n.operand, ast.Name)
            and n.operand.id == "assume_simple"
        )

    def guarded(node, path):
        for parent, child in zip(path, path[1:] + [node]):
            if isinstance(parent, ast.If) and child in parent.body and is_guard(parent.test):
                return True
            if isinstance(parent, ast.BoolOp) and isinstance(parent.op, ast.And):
                k = parent.values.index(child)
                if any(is_guard(v) for v in parent.values[:k]):
                    return True
        return False

    calls = []

    def visit(node, path):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in (
            "build_atoms",
            "is_simple",
        ):
            calls.append((node.func.id, node.lineno, guarded(node, path)))
        for child in ast.iter_child_nodes(node):
            visit(child, path + [node])

    visit(sides, [])
    assert {name for name, _, _ in calls} == {"build_atoms", "is_simple"}, calls
    unguarded = [(name, line) for name, line, ok in calls if not ok]
    assert unguarded == [], f"_subsum_sides calls {unguarded} without `not assume_simple`"


def test_flat_certificate_uses_rank_alone():
    # The certificate sample_generic and the Weibel certificate try first
    # answers with ranks from linalg.extend_reduction alone; an LP, a
    # geometry question or an atom inside it would spend what it exists to
    # save.  Its walk extends each prefix's reduction by integer flats built
    # once, so the recursion neither integerizes rows again nor ranks a
    # whole stack from scratch.
    path = next(p for p in SOURCES if p.name == "network.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    cert = next(s for s in tree.body if getattr(s, "name", None) == "flats_transverse")
    geometry = next(p for p in SOURCES if p.name == "geometry.py")
    banned = {"solve_lp", "build_atoms", "is_simple", "geometry"} | {
        s.name for s in ast.parse(geometry.read_text()).body if isinstance(s, (ast.FunctionDef, ast.ClassDef))
    }
    nodes = list(ast.walk(cert))
    assert any(
        isinstance(n, ast.Attribute)
        and n.attr == "extend_reduction"
        and isinstance(n.value, ast.Name)
        and n.value.id == "linalg"
        for n in nodes
    )
    names = {n.id for n in nodes if isinstance(n, ast.Name)}
    names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    found = names & banned
    assert found == set(), f"flats_transverse refers to {sorted(found)}"
    walk = next(n for n in nodes if isinstance(n, ast.FunctionDef) and n.name == "transverse")
    called = {
        n.func.id if isinstance(n.func, ast.Name) else n.func.attr
        for n in ast.walk(walk)
        if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute))
    }
    assert "extend_reduction" in called, called
    assert called & {"integer_row", "rank"} == set(), f"transverse calls {sorted(called & {'integer_row', 'rank'})}"


def test_margin_lp_is_solved_only_by_the_system_cache():
    # ConstraintSystem caches its common-margin LP; a call from anywhere
    # else would solve it again for a system that already has it.
    outside = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = {
            id(n)
            for stmt in tree.body
            if isinstance(stmt, ast.ClassDef) and stmt.name == "ConstraintSystem"
            for n in ast.walk(stmt)
        }
        outside += [
            f"{path.name}:{n.lineno}"
            for n in ast.walk(tree)
            if id(n) not in inside
            and ((isinstance(n, ast.Name) and n.id == "_max_common_margin")
                 or (isinstance(n, ast.Attribute) and n.attr == "_max_common_margin")
                 or (isinstance(n, ast.alias) and n.name == "_max_common_margin"))
        ]
    assert outside == [], f"_max_common_margin referenced outside ConstraintSystem: {outside}"


def test_cli_integer_arguments_are_range_checked():
    # A plain type=int lets a negative size or count through to an exact
    # report; _at_least and _ranks reject it as a usage error.
    path = next(p for p in SOURCES if p.name == "cli.py")
    lines = [
        n.lineno
        for n in _nodes(path)
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr == "add_argument"
        for kw in n.keywords
        if kw.arg == "type" and isinstance(kw.value, ast.Name) and kw.value.id == "int"
    ]
    assert lines == [], f"cli.py: type=int at lines {lines}; use _at_least or _ranks"


def test_each_refusal_is_raised_once_and_reported_by_main():
    # One budget test builds BudgetExceededError, so its message and its
    # test change in one place; and a command raises a refusal for main to
    # print and map to an exit code, rather than doing both itself.
    sites = [
        f"{path.name}:{getattr(stmt, 'name', stmt.lineno)}"
        for path in SOURCES
        for stmt in ast.parse(path.read_text(), filename=str(path)).body
        for n in ast.walk(stmt)
        if isinstance(n, ast.Call)
        and ((isinstance(n.func, ast.Name) and n.func.id == "BudgetExceededError")
             or (isinstance(n.func, ast.Attribute) and n.func.attr == "BudgetExceededError"))
    ]
    assert sites == ["linprog.py:require_lp_headroom"], sites
    cli = next(p for p in SOURCES if p.name == "cli.py")
    handlers = [
        s for s in ast.parse(cli.read_text()).body
        if isinstance(s, ast.FunctionDef) and s.name.startswith("cmd_")
    ]
    assert len(handlers) >= 7
    found = [
        f"{fn.name}:{n.lineno}"
        for fn in handlers
        for n in ast.walk(fn)
        if (isinstance(n, ast.Name) and n.id == "EXIT_PRECONDITION")
        or (isinstance(n, ast.Attribute) and n.attr == "stderr")
    ]
    assert found == [], f"cli.py: command handlers report refusals at {found}"


def _opens_for_writing(n):
    # open with a w, a, x or + mode, or a mode that is not a string
    # literal; os.open; and Path.write_text or write_bytes.
    if not isinstance(n, ast.Call):
        return False
    f = n.func
    if isinstance(f, ast.Attribute):
        return f.attr in ("write_text", "write_bytes") or (
            f.attr == "open" and isinstance(f.value, ast.Name) and f.value.id == "os")
    if isinstance(f, ast.Name) and f.id == "open":
        mode = n.args[1] if len(n.args) > 1 else next(
            (k.value for k in n.keywords if k.arg == "mode"), None)
        if mode is None:
            return False
        return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+"))
    return False


def test_only_write_out_opens_a_file_for_writing():
    # Every document goes to -o through _write_out, which writes a regular
    # file in place: a file truncated to zero on close starts its
    # writeback on ext4, and the next truncation waits for it.
    sites = {
        f"{path.name}:{getattr(stmt, 'name', stmt.lineno)}"
        for path in SOURCES
        for stmt in ast.parse(path.read_text(), filename=str(path)).body
        for n in ast.walk(stmt)
        if _opens_for_writing(n)
    }
    assert sites == {"cli.py:_write_out"}, sites
    names = _names_in_body("cli.py", "_write_out")
    assert "O_CREAT" in names and "O_TRUNC" not in names
