"""The four workloads: seeded inputs, the CLI calls of each job, and the
checks of each job's output.

A workload's job list is fixed by the seed: `sub_seeds` derives `distinct`
sub-seeds from it, and `build` writes any input layers and returns one job
per sub-seed.  All jobs of a workload have the same shape.  A job is one or two
in-process `tropic.cli.main(argv)` calls, timed together.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks


@dataclass
class Job:
    argvs: list[list[str]]
    check: Callable[[list[str]], list[str]]  # outputs of the calls -> errors


@dataclass
class Workload:
    name: str
    why: str
    distinct: int  # jobs per round, one per sub-seed
    build: Callable[[list[int], Path, Callable], list[Job]]  # (sub_seeds, workdir, run_cli)

    def sub_seeds(self, seed: int) -> list[int]:
        return random.Random(f"{self.name}:{seed}").sample(range(1, 10**6), self.distinct)


def _ranks_arg(ranks) -> str:
    return ",".join(str(k) for k in ranks)


PATTERN_SHAPE = (2, (3, 3, 3))
POSET_SHAPE = (2, (3, 3, 2))
MINKOWSKI_SHAPE = (3, (2, 2, 2, 2, 2))
SAMPLE_SHAPE = (2, (3, 3))
SAMPLE_MAGNITUDE = 12


def _shallow_max_jobs(shape, sub_seeds, workdir: Path, run_cli, job_for) -> list[Job]:
    """Write one `construct shallow-max` layer per sub-seed; job_for(i, path) -> Job."""
    n, ranks = shape
    jobs = []
    for i, s in enumerate(sub_seeds):
        path = workdir / f"layer{i}.json"
        argv = ["construct", "shallow-max", "--inputs", str(n), "--ranks", _ranks_arg(ranks),
                "--seed", str(s), "-o", str(path)]
        _, error = run_cli([argv])
        if error:
            raise RuntimeError(f"input generation failed: {' '.join(argv)}: {error}")
        jobs.append(job_for(i, path))
    return jobs


def build_pattern_count(sub_seeds: list[int], workdir: Path, run_cli) -> list[Job]:
    n, ranks = PATTERN_SHAPE
    return _shallow_max_jobs(PATTERN_SHAPE, sub_seeds, workdir, run_cli, lambda i, path: Job(
        [["regions", "count", "--network", str(path), "--method", "pattern"]],
        lambda outs: checks.check_pattern_count(json.loads(outs[0]), n, ranks),
    ))


def build_poset_cells(sub_seeds: list[int], workdir: Path, run_cli) -> list[Job]:
    n, ranks = POSET_SHAPE
    return _shallow_max_jobs(POSET_SHAPE, sub_seeds, workdir, run_cli, lambda i, path: Job(
        [["poset", "dump", "--network", str(path)], ["poset", "cells", "--network", str(path)]],
        lambda outs: checks.check_poset_cells(
            json.loads(outs[0]), json.loads(outs[1]), path.read_text(), n, ranks
        ),
    ))


def build_minkowski_dual(sub_seeds: list[int], workdir: Path, run_cli) -> list[Job]:
    n, ranks = MINKOWSKI_SHAPE
    return _shallow_max_jobs(MINKOWSKI_SHAPE, sub_seeds, workdir, run_cli, lambda i, path: Job(
        [["minkowski", "lift-sum", "--network", str(path), "-o", str(workdir / f"points{i}.json")],
         ["minkowski", "classify", "--points", str(workdir / f"points{i}.json")]],
        lambda outs: checks.check_minkowski_dual(json.loads(outs[1]), n, ranks),
    ))


def _region_counters(layer_text: str) -> dict[str, int]:
    """The three region counters of tropic, on one sampled layer."""
    from tropic import arrangement, minkowski
    from tropic.network import parse_network

    layer = parse_network(layer_text).layers[0]
    total = minkowski.minkowski_sum(minkowski.lift_layer(layer))
    return {
        "pattern": arrangement.count_regions_bruteforce(layer).regions,
        "poset": arrangement.count_regions_poset(arrangement.build_atoms(layer)),
        "dual": minkowski.upper_vertex_count(total),
    }


def build_sample_generic(sub_seeds: list[int], workdir: Path, run_cli) -> list[Job]:
    n, ranks = SAMPLE_SHAPE

    def check(outs):
        errors = checks.check_sampled_layer(outs[0], n, ranks, SAMPLE_MAGNITUDE)
        return errors or checks.check_counter_agreement(_region_counters(outs[0]), n, ranks)

    return [
        Job([["sample", "layer", "--inputs", str(n), "--ranks", _ranks_arg(ranks),
              "--seed", str(s), "--magnitude", str(SAMPLE_MAGNITUDE)]], check)
        for s in sub_seeds
    ]


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "pattern-count",
            "pattern-tree region count: many tiny LPs, no poset, is_simple or minkowski",
            80, build_pattern_count,
        ),
        Workload(
            "sample-generic",
            "generic-layer sampling, the largest Tier-1 cost: is_simple on two arrangements; "
            "a rejected draw repeats it",
            100, build_sample_generic,
        ),
        Workload(
            "poset-cells",
            "poset dump and unpruned cell enumeration with exact witnesses: contains LPs, cold LP path",
            40, build_poset_cells,
        ),
        Workload(
            "minkowski-dual",
            "lifted Minkowski sum and vertex classification: LPs with 32 variables in Q^4, no geometry",
            40, build_minkowski_dual,
        ),
    ]
}
