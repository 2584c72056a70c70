"""Exact-count benchmark of the tropic CLI.

    python3 bench/run.py --workload pattern-count --seed 1 --seconds 15 --trace 0

Runs one workload in this process, on one thread.  Each job is one or two
in-process `tropic.cli.main(argv)` calls whose output is captured and
checked against the paper's closed forms (checks.py).  A run repeats whole
rounds of the workload's fixed job list until --seconds have passed.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  --trace 0 reports the end-to-end
metrics; --trace 1 wraps tropic's layer functions (tracing.py) and reports
the per-layer metrics instead.  Details and reference figures: README.md.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from math import ceil  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

from speed import calibrate, rescale  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 3     # set-up is repeated and its median reported
WARM_UP_SUB_SEED = 1
MIN_ROUNDS = 3     # a job's time is the median of its runs, one per round
MIN_JOBS = 100
CAL_WINDOW = 5     # a run is rescaled by the median of the 2*5+1 calibrations around it

END_TO_END = [
    # (metric, unit, better)
    ("jobs_per_s", "1/s", "higher"),
    ("job_ms.p50", "ms", "lower"),
    ("job_ms.p90", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def import_tropic():
    """Import tropic from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import tropic
    except ImportError as exc:
        sys.exit(f"cannot import tropic from {SRC}: {exc}")
    if Path(tropic.__file__).resolve().parent.parent != SRC:
        sys.exit(f"tropic was imported from {tropic.__file__}, not from {SRC}")
    from tropic import cli
    from tropic.linprog import lp_call_count
    return cli, lp_call_count


class Runner:
    """Runs jobs through `cli.main` with stdout and stderr captured."""

    def __init__(self, cli):
        self.cli = cli

    def run_cli(self, argvs):
        """(outputs, error); error is None when every call exited 0."""
        outs = []
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    rc = self.cli.main(argv)
            except Exception:  # a crashing job is counted as failed, not fatal
                return outs, traceback.format_exc(limit=3)
            if rc != 0:
                return outs, f"exit {rc}: {err.getvalue().strip()}"
            outs.append(out.getvalue())
        return outs, None

    def timed(self, job):
        t0 = perf_counter()
        outs, error = self.run_cli(job.argvs)
        return perf_counter() - t0, outs, error


def digest(outs) -> str:
    """Hash of a job's outputs without their wall-clock `timings_ms` field."""
    h = hashlib.sha256()
    for text in outs:
        if '"timings_ms"' in text:
            doc = json.loads(text)
            doc.pop("timings_ms", None)
            text = json.dumps(doc, sort_keys=True)
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


@dataclass
class Rounds:
    """Everything the timed rounds leave for the checks and the metrics."""

    jobs: int
    times: list = field(default_factory=list)    # wall s per run, in run order
    cals: list = field(default_factory=list)     # calibration s after each run
    lps_per_round: list = field(default_factory=list)
    errors: int = 0                              # runs that raised or exited non-zero
    differed: int = 0                            # runs whose output differs from the job's first
    notes: dict = field(default_factory=dict)    # first problem seen, per job or "rounds"

    def __post_init__(self):
        self.first_outs = [None] * self.jobs
        self.digests = [None] * self.jobs
        self.ok_runs = [0] * self.jobs


def run_rounds(jobs, runner, seconds, lp_count, tracer=None) -> Rounds:
    r = Rounds(len(jobs))
    t_begin = perf_counter()
    while True:
        lp0 = lp_count()
        for i, job in enumerate(jobs):
            if tracer:
                tracer.job = len(r.times)
            dt, outs, error = runner.timed(job)
            r.times.append(dt)
            r.cals.append(calibrate())
            if error:
                r.errors += 1
                r.notes.setdefault(i, error)
                continue
            d = digest(outs)
            if r.digests[i] is None:
                r.digests[i], r.first_outs[i] = d, outs
            if d != r.digests[i]:
                r.differed += 1
                r.notes.setdefault(i, "output differs from the job's first run")
                continue
            r.ok_runs[i] += 1
        r.lps_per_round.append(lp_count() - lp0)
        if (perf_counter() - t_begin >= seconds and len(r.lps_per_round) >= MIN_ROUNDS
                and len(r.times) >= MIN_JOBS):
            return r


def verify(jobs, r: Rounds, runner) -> tuple[int, bool]:
    """(failed, correct) after the untimed checks.

    A job is checked once, on its first output; its other runs reproduced
    that output or were already counted as failed.  `correct` is false when
    any output is wrong or not reproducible; a job that only errors is
    counted in `failed` and leaves `correct` alone.
    """
    failed = r.errors + r.differed
    correct = r.differed == 0
    for i, job in enumerate(jobs):
        errs = job.check(r.first_outs[i]) if r.first_outs[i] is not None else []
        if errs:
            failed += r.ok_runs[i]
            correct = False
            r.notes.setdefault(i, "; ".join(errs))
    _, repeat, error = runner.timed(jobs[0])
    if r.digests[0] is not None and (error or digest(repeat) != r.digests[0]):
        correct = False
        r.notes.setdefault(0, "repeating the job did not reproduce its output")
    if len(set(r.lps_per_round)) != 1:
        correct = False
        r.notes.setdefault("rounds", f"LP calls differ between rounds: {r.lps_per_round}")
    return failed, correct


def percentile(sorted_vals, q):
    """Nearest-rank percentile."""
    return sorted_vals[max(0, ceil(q * len(sorted_vals)) - 1)]


def end_to_end(r: Rounds, setup_s, peak_rss_mb) -> dict:
    ref = [rescale(t, r.cals[max(0, i - CAL_WINDOW): i + CAL_WINDOW + 1])
           for i, t in enumerate(r.times)]
    # A job's time is the median of its runs, which filters host jitter
    # shorter than a job; the percentiles run over the distinct jobs.
    per_job = sorted(statistics.median(ref[i::r.jobs]) for i in range(r.jobs))
    return {
        "jobs_per_s": len(ref) / sum(ref),
        "job_ms.p50": percentile(per_job, 0.5) * 1000,
        "job_ms.p90": percentile(per_job, 0.9) * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]

    def cal5():
        return [calibrate() for _ in range(5)]

    # Set-up, part 1: start-up and the import of tropic, rescaled by the
    # calibrations just before and after the import.
    cal_before = cal5()
    t0 = perf_counter()
    cli, lp_call_count = import_tropic()
    import_s = (perf_counter() - t0) + (t0 - T_START - sum(cal_before))
    cal_after = cal5()
    import_ref_s = rescale(import_s, cal_before + cal_after)

    runner = Runner(cli)
    out_dir = BENCH_DIR / "_out"
    workdir = BENCH_DIR / "_work" / f"{workload.name}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "warm-up").mkdir(parents=True)
    try:
        # Set-up, part 2: generate and write the inputs, then one untimed
        # warm-up job on a fixed input, so that its cost does not depend on
        # the seed.  Repeated; the median is reported.
        rep_s, rep_ref_s = [], []
        for _ in range(SETUP_REPS):
            t0 = perf_counter()
            jobs = workload.build(workload.sub_seeds(args.seed), workdir, runner.run_cli)
            warm_up = workload.build([WARM_UP_SUB_SEED], workdir / "warm-up", runner.run_cli)[0]
            _, _, error = runner.timed(warm_up)
            rep_s.append(perf_counter() - t0)
            if error:
                sys.exit(f"warm-up job failed: {error}")
            cal_before, cal_after = cal_after, cal5()
            rep_ref_s.append(rescale(rep_s[-1], cal_before + cal_after))
        setup_s = import_ref_s + statistics.median(rep_ref_s)

        tracer = Tracer(lp_call_count) if args.trace else None
        if tracer:
            tracer.install()
        gc.collect()
        r = run_rounds(jobs, runner, args.seconds, lp_call_count, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            tracer.uninstall()

        t_checks = perf_counter()
        failed, correct = verify(jobs, r, runner)
        checks_s = perf_counter() - t_checks
        for key, msg in r.notes.items():
            print(f"job {key}: {msg}", file=sys.stderr)

        out_dir.mkdir(exist_ok=True)
        tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
        if tracer:
            values = tracer.metrics(len(r.times))
            units = PER_LAYER
            tracer.dump(out_dir / f"trace-{tag}.json")
        else:
            values = end_to_end(r, setup_s, peak_rss_mb)
            units = END_TO_END
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in units}
        result = {"correct": correct, "attempted": len(r.times), "failed": failed, "metrics": metrics}
        run = {
            "workload": workload.name, "seed": args.seed, "trace": args.trace,
            "rounds": len(r.lps_per_round), "jobs_per_round": r.jobs,
            "lps_per_round": r.lps_per_round[0], "timed_s": sum(r.times), "checks_s": checks_s,
            "import_s": import_s, "setup_reps_s": rep_s,
            "job_ms": [t * 1000 for t in r.times], "calibration_ms": [c * 1000 for c in r.cals],
        }
        (out_dir / f"result-{tag}.json").write_text(json.dumps({"result": result, "run": run}))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
