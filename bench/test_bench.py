"""Self-tests of the benchmark's checks and accounting.

    python3 -m pytest -q bench

They run in a few seconds and run no workload.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402


def test_elementary_symmetric():
    assert checks.elementary_symmetric([2, 2, 2]) == [1, 6, 12, 8]
    assert checks.elementary_symmetric([]) == [1]


def test_closed_forms_by_hand():
    # n=2, ranks (3,3,3): e = (1, 6, 12) over (2,2,2).
    assert checks.shallow_regions(2, (3, 3, 3)) == 19
    assert checks.bounded_regions(2, (3, 3, 3)) == 7
    assert checks.face_counts(2, (3, 3, 3)) == [12, 30, 19]
    assert checks.minkowski_vertices(2, (3, 3, 3)) == 20


def test_closed_forms_other_shapes():
    assert checks.shallow_regions(3, (2,) * 5) == 26
    assert checks.bounded_regions(3, (2,) * 5) == 4
    assert checks.minkowski_vertices(3, (2,) * 5) == 30
    assert checks.face_counts(2, (3, 3, 2)) == [8, 21, 14]
    # More inputs than units: every pattern is a region.
    assert checks.shallow_regions(4, (3, 3)) == 9


def _pattern_report(regions, bounded):
    return {"results": {"pattern": {"regions": regions, "bounded_regions": bounded}}}


def test_pattern_check_flags_one_wrong_count():
    assert checks.check_pattern_count(_pattern_report(19, 7), 2, (3, 3, 3)) == []
    errors = checks.check_pattern_count(_pattern_report(19, 6), 2, (3, 3, 3))
    assert len(errors) == 1 and "bounded_regions" in errors[0]


def test_minkowski_check():
    report = {"results": {"points": [0] * 27, "upper_vertices": 19, "vertices": 20}}
    assert checks.check_minkowski_dual(report, 2, (3, 3, 3)) == []
    report["results"]["vertices"] = 21
    assert len(checks.check_minkowski_dual(report, 2, (3, 3, 3))) == 1


# One input, one rank-2 unit max(0, x): two regions split at x = 0.
RELU = json.dumps({
    "input_dim": 1,
    "layers": [{"bias_mode": "bias", "units": [{"weights": [[0], [1]], "biases": [0, 0]}]}],
})
RELU_DUMP = {"elements": [{}, {}], "regions": 2, "faces": {"0": 1}}


def _relu_cells(origin_witness):
    return {"cells": [
        {"signature": [[1]], "dim": 1, "bounded": False, "witness": ["-1/2"]},
        {"signature": [[1, 2]], "dim": 0, "bounded": True, "witness": [origin_witness]},
        {"signature": [[2]], "dim": 1, "bounded": False, "witness": [3]},
    ]}


def test_poset_cells_check_evaluates_witnesses_exactly():
    assert checks.check_poset_cells(RELU_DUMP, _relu_cells(0), RELU, 1, (2,)) == []
    errors = checks.check_poset_cells(RELU_DUMP, _relu_cells("1/1000"), RELU, 1, (2,))
    assert len(errors) == 1 and "does not realize" in errors[0]


def test_sampled_layer_check():
    assert checks.check_sampled_layer(RELU, 1, (2,), 12) == []
    bad = RELU.replace('"biases": [0, 0]', '"biases": [13, "1/2"]')
    assert len(checks.check_sampled_layer(bad, 1, (2,), 12)) == 2
    assert checks.check_sampled_layer(RELU, 2, (2,), 12)  # wrong input_dim


def test_counter_agreement():
    # n=2, ranks (3,3): the sharp bound is 1 + 4 + 4 = 9.
    assert checks.check_counter_agreement({"pattern": 9, "poset": 9, "dual": 9}, 2, (3, 3)) == []
    assert checks.check_counter_agreement({"pattern": 9, "poset": 8, "dual": 9}, 2, (3, 3))
    assert checks.check_counter_agreement({"pattern": 10, "poset": 10, "dual": 10}, 2, (3, 3))


class FakeRunner:
    """Answers each job with a canned output, or with an error."""

    def __init__(self, outputs):
        self.outputs = outputs

    def timed(self, job):
        out = self.outputs[job.argvs[0][0]]
        if out is None:
            return 0.001, [], "exit 4: precondition"
        return 0.001, [out], None


def _jobs(*names):
    return [
        Job([[name]], lambda outs: checks.check_pattern_count(json.loads(outs[0]), 2, (3, 3, 3)))
        for name in names
    ]


def _report(regions, bounded, wall):
    return json.dumps({**_pattern_report(regions, bounded), "timings_ms": {"wall": wall}})


def test_report_with_one_wrong_count_is_a_failed_job():
    runner = FakeRunner({"good": _report(19, 7, 1.5), "bad": _report(18, 7, 2.5)})
    jobs = _jobs("good", "bad")
    r = run.run_rounds(jobs, runner, 0, lambda: 0)
    failed, correct = run.verify(jobs, r, runner)
    assert len(r.times) == run.MIN_JOBS
    assert failed == run.MIN_JOBS // 2  # every run of the bad job
    assert not correct


def test_erroring_job_is_failed_but_not_incorrect():
    runner = FakeRunner({"good": _report(19, 7, 1.5), "broken": None})
    jobs = _jobs("good", "broken")
    r = run.run_rounds(jobs, runner, 0, lambda: 0)
    failed, correct = run.verify(jobs, r, runner)
    assert failed == run.MIN_JOBS // 2
    assert correct


def test_digest_ignores_wall_time_only():
    assert run.digest([_report(19, 7, 1.0)]) == run.digest([_report(19, 7, 2.0)])
    assert run.digest([_report(19, 7, 1.0)]) != run.digest([_report(18, 7, 1.0)])


def test_tracer_rebinds_imported_names_and_restores_them():
    from tropic import arrangement, geometry, linprog
    from tropic.network import parse_network

    original = geometry.feasible
    tracer = Tracer(linprog.lp_call_count)
    tracer.install()
    try:
        assert arrangement.feasible is geometry.feasible is not original
        layer = parse_network(RELU).layers[0]
        atoms = arrangement.build_atoms(layer)
    finally:
        tracer.uninstall()
    assert arrangement.feasible is geometry.feasible is original
    assert len(atoms.atoms) == 1
    m = tracer.metrics(jobs=1)
    assert m["arrangement.build_atoms.calls"] == 1
    assert m["geometry.feasible.calls"] >= 1
    assert m["linprog.solve_lp.calls"] == m["arrangement.build_atoms.lps"] > 0
    assert set(m) == {name for name, _, _ in PER_LAYER}


def test_benchmark_json_matches_the_code():
    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "bench/run.py"]
    assert doc["paths"] == ["bench"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
