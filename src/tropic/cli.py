"""Batch command-line front end.

Every command prints one JSON report: {"command", "seed", "results",
"certificates", "timings_ms"}, except `construct`, `sample`, `poset dump`,
`poset cells` and `minkowski lift-sum`, which print (or write to -o) their
own document: a network, a poset, a cell list or a point set.  Results are
byte-deterministic for fixed arguments, seed, and input files; wall-clock
timings live in their own field.

-o writes the document as UTF-8.  A regular file is written in place and
then cut to the document's length; any other path (a pipe, /dev/null) is
written as a stream.  It is never truncated to zero first, because on ext4
closing a file that was truncated to zero starts its writeback, and the
next truncation waits for it, which stalls a command that rewrites its own
earlier output whenever the disk is slow.

Exit codes: 0 success, 2 usage (a bad argument, a malformed input, or a
file that cannot be opened, read as UTF-8 or written), 3 budget exceeded,
4 precondition or certificate failure, 5 identity violation
(counterexample in the report).
Commands raise every refusal; main alone prints it and picks the exit code.

Every command runs under one LP-call budget: --lp-budget where the command
has that flag, else the environment variable TROPIC_BUDGET_LP, else 10^6.
It is the only work limit.  Exit 3 means the command would solve more LPs
than that budget allows.  The pattern region count (`regions count
--method pattern`) reads the regions off the layer's fan and solves no LP.
`poset cells` finds its cells on the fan, and refuses before it solves any
LP if they need more than are left.
The budget covers the whole command, so a long `verify identities` run can
need it raised: with --seed 7 a trial solves about 94 LPs over all suites
(2,832 over 30 trials), so more than about 10,500 trials need a larger
TROPIC_BUDGET_LP.

Integer arguments are usage errors (exit 2, naming the flag or variable)
unless they are integers in range: --lp-budget, TROPIC_BUDGET_LP and --seed
must be >= 0; --magnitude, --inputs, --units, --rank and --trials >= 1;
and every entry of --ranks and --widths >= 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
import time

from . import bounds, minkowski, verify
from .arrangement import (
    build_atoms,
    build_poset,
    count_regions_bruteforce,
    count_regions_poset,
    enumerate_cells,
    is_simple,
)
from .linprog import BudgetExceededError, lp_budget
from .network import (
    NO_BIAS,
    WITH_BIAS,
    NetworkParseError,
    construct_deep_lower,
    construct_shallow_optimal,
    construct_shallow_optimal_nobias,
    count_regions_line,
    parse_network,
    sample_generic,
    serialize_network,
    single_layer_network,
)
from .rational import format_rational

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_PRECONDITION = 4
EXIT_IDENTITY = 5

DEFAULT_LP_BUDGET = 1_000_000

_start = time.monotonic()


def _emit(args, results, certificates=None):
    report = {
        "command": args._command_echo,
        "seed": getattr(args, "seed", None),
        "results": results,
        "certificates": certificates or {},
        "timings_ms": {"wall": round((time.monotonic() - _start) * 1000, 3)},
    }
    json.dump(report, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _ranks(text: str) -> list[int]:
    try:
        out = [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list: {text!r}")
    if any(v < 1 for v in out):
        raise argparse.ArgumentTypeError("ranks/widths must be positive integers")
    return out


def _at_least(low: int):
    """argparse type: an integer >= low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value

    return parse


def _read(path: str) -> str:
    """The text of an input file; one that is not UTF-8 is refused naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            exc.reason += f" in {path}"
            raise


def _load_network(path: str):
    return parse_network(_read(path))


def _load_layer(path: str, what: str):
    """The one layer of a network file; a deeper network is refused."""
    net = _load_network(path)
    if len(net.layers) != 1:
        raise ValueError(f"{what} needs a single-layer network")
    return net.layers[0]


def _write_out(args, text: str):
    """Print a document, or write it to -o in place (see the module docstring)."""
    if not getattr(args, "output", None):
        print(text)
        return
    fd = os.open(args.output, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def _command_lp_budget(args, parser: argparse.ArgumentParser) -> int:
    if getattr(args, "lp_budget", None) is not None:
        return args.lp_budget
    env = os.environ.get("TROPIC_BUDGET_LP")
    if not env:
        return DEFAULT_LP_BUDGET
    try:
        return _at_least(0)(env)
    except argparse.ArgumentTypeError as exc:
        parser.error(f"TROPIC_BUDGET_LP {exc}")


def cmd_bounds(args) -> int:
    if args.kind == "shallow":
        value = bounds.shallow_formula(args.inputs, args.ranks, not args.no_bias)
        results = {
            "regions_max": value,
            "trivial": bounds.trivial_bound(args.ranks),
            "bias_mode": NO_BIAS if args.no_bias else WITH_BIAS,
        }
    elif args.kind == "deep":
        upper = bounds.deep_upper_uniform(args.inputs, args.widths, args.rank, not args.no_bias)
        results = {"upper": upper, "bias_mode": NO_BIAS if args.no_bias else WITH_BIAS}
        try:
            low = bounds.deep_lower(args.inputs, args.widths, args.rank, not args.no_bias)
            results["lower"] = low.value
            results["lower_n"] = low.n
        except ValueError as exc:
            results["lower_error"] = str(exc)
    else:
        lower, upper = bounds.prior_bounds(args.inputs, args.units, args.rank)
        results = {"lower": lower, "upper": upper}
    _emit(args, results)
    return EXIT_OK


def cmd_regions(args) -> int:
    net = _load_network(args.network)
    results: dict = {}
    certificates: dict = {}
    methods = ["pattern", "poset", "dual"] if args.method == "all" else [args.method]

    if len(net.layers) > 1:
        if args.require_simple or args.method != "pattern" or net.input_dim != 1:
            raise ValueError("multi-layer networks support only --method pattern with one input, "
                             "and no --require-simple")
        results["pattern"] = {"regions": count_regions_line(net)}
    else:
        layer = net.layers[0]
        if args.require_simple or "poset" in methods or "dual" in methods:
            atoms = build_atoms(layer)
            cert = is_simple(atoms)
            certificates["simple"] = cert.simple
            if args.require_simple and not cert.simple:
                raise ValueError(f"arrangement is not simple: atoms {cert.violation}")
        for method in methods:
            if method == "pattern":
                rc = count_regions_bruteforce(layer)
                results["pattern"] = {"regions": rc.regions, "bounded_regions": rc.bounded_regions}
            elif method == "poset":
                results["poset"] = {"regions": count_regions_poset(atoms)}
            else:
                results["dual"] = {"regions": minkowski.dual_region_count(layer)}
        if args.method == "all":
            counts = {results[m]["regions"] for m in results}
            results["consistent"] = len(counts) == 1
    _emit(args, results, certificates)
    return EXIT_OK


def cmd_construct(args) -> int:
    if args.kind == "shallow-max":
        if args.no_bias:
            layer = construct_shallow_optimal_nobias(args.inputs, args.ranks, args.seed)
        else:
            layer = construct_shallow_optimal(args.inputs, args.ranks, args.seed)
        net = single_layer_network(layer)
    else:
        net = construct_deep_lower(args.inputs, args.widths, args.rank, args.seed)
    _write_out(args, serialize_network(net))
    return EXIT_OK


def cmd_sample(args) -> int:
    mode = NO_BIAS if args.no_bias else WITH_BIAS
    layer = sample_generic(args.inputs, args.ranks, mode, args.seed, magnitude=args.magnitude)
    _write_out(args, serialize_network(single_layer_network(layer)))
    return EXIT_OK


def cmd_poset(args) -> int:
    arr = build_atoms(_load_layer(args.network, "poset dump"))
    poset = build_poset(arr)
    elements = []
    for e in poset.elements:
        elements.append({
            "id": e.id,
            "dim": e.dim,
            "psi": e.psi,
            "mobius": poset.mobius_from_bottom[e.id],
            "support": sorted(e.support) if e.support is not None else None,
            "atoms": sorted(e.atom_support),
        })
    covers = []
    n = len(poset.elements)
    for i in range(n):
        for j in range(n):
            if i == j or not poset.leq[i][j]:
                continue
            if not any(k not in (i, j) and poset.leq[i][k] and poset.leq[k][j] for k in range(n)):
                covers.append([i, j])
    doc = {
        "atoms": [
            {"id": k, "unit": a.unit, "pair": list(a.pair)}
            for k, a in enumerate(arr.atoms)
        ],
        "central": arr.central,
        "elements": elements,
        "covers": covers,
        "regions": poset.face_counts[-1],
        "faces": {str(s): f for s, f in enumerate(poset.face_counts[:-1])},
    }
    _write_out(args, json.dumps(doc, sort_keys=True))
    return EXIT_OK


def cmd_cells(args) -> int:
    cells = enumerate_cells(_load_layer(args.network, "cell dump"))
    doc = {
        "cells": [
            {
                "signature": [sorted(t) for t in c.signature],
                "dim": c.dim,
                "bounded": c.bounded,
                "witness": [format_rational(v) for v in c.witness],
            }
            for c in cells
        ]
    }
    _write_out(args, json.dumps(doc, sort_keys=True))
    return EXIT_OK


def cmd_minkowski(args) -> int:
    if args.kind == "classify":
        ps = minkowski.parse_point_set(_read(args.points))
        cls = minkowski.classify_vertices(ps)
        _emit(args, minkowski.classification_json(cls))
        return EXIT_OK
    layer = _load_layer(args.network, "lift-sum")
    total = minkowski.minkowski_sum(minkowski.lift_layer(layer))
    _write_out(args, minkowski.serialize_point_set(total))
    return EXIT_OK


def cmd_verify(args) -> int:
    names = None if args.suite == "all" else [args.suite]
    reports = verify.run_suites(args.trials, args.seed, names)
    ok = all(not r["failures"] for r in reports)
    _emit(args, {"suites": reports, "all_passed": ok})
    return EXIT_OK if ok else EXIT_IDENTITY


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args leaves it unchanged."""
    p = argparse.ArgumentParser(prog="tropic", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_budget_flags(sp):
        sp.add_argument("--lp-budget", type=_at_least(0), default=None,
                        help="LP-call budget for the whole command "
                             "(default 10^6; env TROPIC_BUDGET_LP)")

    b = sub.add_parser("bounds", help="closed-form bound evaluation")
    bsub = b.add_subparsers(dest="kind", required=True)
    bs = bsub.add_parser("shallow")
    bs.add_argument("--inputs", type=_at_least(1), required=True)
    bs.add_argument("--ranks", type=_ranks, required=True)
    bs.add_argument("--no-bias", action="store_true")
    bs.set_defaults(func=cmd_bounds)
    bd = bsub.add_parser("deep")
    bd.add_argument("--inputs", type=_at_least(1), required=True)
    bd.add_argument("--widths", type=_ranks, required=True)
    bd.add_argument("--rank", type=_at_least(1), required=True)
    bd.add_argument("--no-bias", action="store_true")
    bd.set_defaults(func=cmd_bounds)
    bp = bsub.add_parser("prior")
    bp.add_argument("--inputs", type=_at_least(1), required=True)
    bp.add_argument("--units", type=_at_least(1), required=True)
    bp.add_argument("--rank", type=_at_least(1), required=True)
    bp.set_defaults(func=cmd_bounds)

    r = sub.add_parser("regions", help="region counting")
    rsub = r.add_subparsers(dest="kind", required=True)
    rc = rsub.add_parser("count")
    rc.add_argument("--network", required=True)
    rc.add_argument("--method", choices=["pattern", "poset", "dual", "all"], default="pattern",
                    help="pattern: the strict argmax patterns, read off the layer's fan with "
                         "no LP, with the bounded ones; poset: the intersection poset's "
                         "Zaslavsky sum; dual: the upper vertices of the Minkowski sum; "
                         "all: the three, and whether they agree (default pattern)")
    rc.add_argument("--require-simple", action="store_true")
    add_budget_flags(rc)
    rc.set_defaults(func=cmd_regions)

    c = sub.add_parser("construct", help="bound-attaining constructions")
    csub = c.add_subparsers(dest="kind", required=True)
    cs = csub.add_parser("shallow-max")
    cs.add_argument("--inputs", type=_at_least(1), required=True)
    cs.add_argument("--ranks", type=_ranks, required=True)
    cs.add_argument("--seed", type=_at_least(0), required=True)
    cs.add_argument("--no-bias", action="store_true")
    cs.add_argument("-o", "--output")
    cs.set_defaults(func=cmd_construct)
    cd = csub.add_parser("deep-lower")
    cd.add_argument("--inputs", type=_at_least(1), required=True)
    cd.add_argument("--widths", type=_ranks, required=True)
    cd.add_argument("--rank", type=_at_least(1), required=True)
    cd.add_argument("--seed", type=_at_least(0), required=True)
    cd.add_argument("-o", "--output")
    cd.set_defaults(func=cmd_construct)

    s = sub.add_parser("sample", help="seeded generic layers (certified simple)")
    ssub = s.add_subparsers(dest="kind", required=True)
    sl = ssub.add_parser("layer")
    sl.add_argument("--inputs", type=_at_least(1), required=True)
    sl.add_argument("--ranks", type=_ranks, required=True)
    sl.add_argument("--seed", type=_at_least(0), required=True)
    sl.add_argument("--no-bias", action="store_true")
    sl.add_argument("--magnitude", type=_at_least(1), default=12)
    sl.add_argument("-o", "--output")
    sl.set_defaults(func=cmd_sample)

    po = sub.add_parser("poset", help="intersection poset dump")
    posub = po.add_subparsers(dest="kind", required=True)
    pd = posub.add_parser("dump")
    pd.add_argument("--network", required=True)
    pd.add_argument("-o", "--output")
    add_budget_flags(pd)
    pd.set_defaults(func=cmd_poset)
    pc = posub.add_parser("cells")
    pc.add_argument("--network", required=True)
    pc.add_argument("-o", "--output")
    add_budget_flags(pc)
    pc.set_defaults(func=cmd_cells)

    mk = sub.add_parser("minkowski", help="point-set sums and classification")
    mksub = mk.add_subparsers(dest="kind", required=True)
    mc = mksub.add_parser("classify")
    mc.add_argument("--points", required=True)
    mc.set_defaults(func=cmd_minkowski)
    ml = mksub.add_parser("lift-sum")
    ml.add_argument("--network", required=True)
    ml.add_argument("-o", "--output")
    ml.set_defaults(func=cmd_minkowski)

    v = sub.add_parser("verify", help="identity suites with counterexample dumps")
    vsub = v.add_subparsers(dest="kind", required=True)
    vi = vsub.add_parser("identities")
    vi.add_argument("--trials", type=_at_least(1), required=True)
    vi.add_argument("--seed", type=_at_least(0), required=True)
    vi.add_argument("--suite", choices=["all"] + list(verify.ALL_SUITES), default="all")
    vi.set_defaults(func=cmd_verify)

    return p


def main(argv=None) -> int:
    global _start
    _start = time.monotonic()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        budget = _command_lp_budget(args, parser)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    args._command_echo = list(argv) if argv is not None else sys.argv[1:]
    try:
        with lp_budget(budget):
            return args.func(args)
    except BudgetExceededError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_BUDGET
    except (NetworkParseError, OSError, UnicodeDecodeError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
