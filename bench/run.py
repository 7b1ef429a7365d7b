"""tscale benchmark: one workload, one seed, one result line.

Usage, from the repository root:

    python3 bench/run.py --workload discrete-walk --seed 1 --seconds 36 --trace 0

Runs single-threaded in one process. Set-up (importing tscale from
``src/`` and generating the seeded inputs) is repeated and its median is
``setup_s``. Then whole passes over the workload's jobs run until the time
is spent, every job's output is checked, and the last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics from a traced run with ``--trace 1``. See NOTES.md.
"""

from __future__ import annotations

import argparse
import bisect
import cmath
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import workloads
from tracing import LAYERS, Tracer

SETUP_REPS = 7
MIN_PASSES = 3
COMMANDS = ("eval", "solve", "identity", "converge", "library")


def import_tscale():
    """Import tscale from this checkout, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "tscale" or m.startswith("tscale.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tscale

    if Path(tscale.__file__).resolve().parent != SRC / "tscale":
        raise ImportError(f"tscale imported from {tscale.__file__}, not {SRC}")
    return tscale


def setup(workload: str, seed: int):
    """Import plus input generation, SETUP_REPS times; (workload, median s)."""
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        pkg = import_tscale()
        built = workloads.build(workload, pkg, seed)
        times.append(time.perf_counter() - start)
    return built, statistics.median(times)


@dataclass
class Pass:
    wall: float  # seconds in the jobs
    by_command: dict[str, float]
    cost: dict[str, float]  # job -> its time over that of the reference slices around it


def timed_reference() -> float:
    start = time.perf_counter()
    reference_slice()
    return time.perf_counter() - start


def reference_slice(n: int = 8000) -> int:
    """A fixed pure-Python loop, independent of tscale, with a similar mix
    of work (bisect lookups, complex log/exp, float formatting). Its time
    tracks the speed the machine gives this process at that moment."""
    pts = [k * 1e-3 for k in range(200)]
    acc = 0j
    rows = []
    for i in range(n):
        t = (i % 200) * 1e-3 + 1e-4
        j = bisect.bisect_left(pts, t)
        z = complex(-0.5, 0.25) * (t - pts[j - 1] if j else t)
        acc += cmath.log((1 + z / 2) / (1 - z / 2))
        v = cmath.exp(acc)
        rows.append(f"{t:.17g},{v.real:.17g},{v.imag:.17g}")
    return len("\n".join(rows))


def _digest(out) -> str:
    data = out.encode() if isinstance(out, str) else repr(out).encode()
    return hashlib.sha256(data).hexdigest()


class Runner:
    """Runs passes over a workload's jobs and keeps the books."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failures = 0
        self.failed_jobs: set[str] = set()
        self.outputs: dict[str, object] = {}  # first-pass outputs, until checked
        self.digests: dict[str, str] = {}  # job -> digest of its checked output
        self.points: dict[str, int] | None = None  # output points per job

    def run_job(self, job, tracer=None) -> float:
        self.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                out = job.run()
            else:
                with tracer.job(job.name):
                    out = job.run()
        except Exception as exc:  # a job boundary: record and keep going
            elapsed = time.perf_counter() - start
            self.fail(job.name, exc)
            return elapsed
        elapsed = time.perf_counter() - start
        if self.points is None:
            self.outputs[job.name] = out
        elif job.name in self.digests and _digest(out) != self.digests[job.name]:
            self.fail(job.name, workloads.JobFailed("output differs from the first pass"))
        return elapsed

    def fail(self, name: str, exc: Exception) -> None:
        if name not in self.failed_jobs:
            print(f"bench: {name} failed: {exc}", file=sys.stderr)
            if not isinstance(exc, workloads.JobFailed):
                traceback.print_exception(exc, file=sys.stderr)
        self.failed_jobs.add(name)
        self.failures += 1

    def run_pass(self, tracer=None) -> Pass:
        """One pass over the jobs. Untraced passes put a reference slice
        before each job and after the last, and cost each job in units of
        the mean of the two slices around it."""
        p = Pass(0.0, dict.fromkeys(COMMANDS, 0.0), {})
        before = None if tracer else timed_reference()
        for job in self.wl.jobs:
            elapsed = self.run_job(job, tracer)
            p.wall += elapsed
            p.by_command[job.command] += elapsed
            if before is not None:
                after = timed_reference()
                p.cost[job.name] = 2 * elapsed / (before + after)
                before = after
        if self.points is None:
            self.check_first_pass()
        return p

    def check_first_pass(self) -> None:
        """Oracle checks on the first pass; later passes must repeat it.
        Only digests are kept, so stored outputs do not inflate the RSS."""
        self.points = {}
        for job in self.wl.jobs:
            if job.name in self.failed_jobs:
                continue
            try:
                out = self.outputs[job.name]
                job.check(out, self.outputs)
                self.points[job.name] = job.points(out)
                self.digests[job.name] = _digest(out)
            except Exception as exc:
                self.fail(job.name, exc)
        self.outputs.clear()

    def points_per_pass(self) -> int:
        return sum(v for k, v in self.points.items() if k not in self.failed_jobs)


def timed_passes(runner: Runner, seconds: float, tracer_factory=None):
    """Untraced passes until the next one would overrun ``seconds``. With a
    tracer factory, untraced and traced passes alternate instead."""
    plain, traced = [], []
    begin = time.perf_counter()
    while True:
        plain.append(runner.run_pass())
        if tracer_factory is not None:
            tracer = tracer_factory()
            tracer.install()
            try:
                traced.append((runner.run_pass(tracer), tracer))
            finally:
                tracer.uninstall()
        elapsed = time.perf_counter() - begin
        per_round = elapsed / len(plain)
        enough = len(plain) >= (1 if tracer_factory else MIN_PASSES)
        if enough and elapsed + per_round > seconds:
            return plain, traced


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(runner: Runner, setup_s: float, seconds: float) -> dict:
    plain, _ = timed_passes(runner, seconds)
    pass_ref = sum(statistics.median(p.cost[job.name] for p in plain)
                   for job in runner.wl.jobs)
    runner.attempted += 1
    try:
        drift, gap = workloads.accuracy_probe(sys.modules["tscale"])
    except Exception as exc:
        runner.fail("accuracy-probe", exc)
        drift = gap = 1.0
    return {
        "pass_ref": (pass_ref, "ref"),
        "points_per_ref": (runner.points_per_pass() / pass_ref, "1/ref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "unit_circle_drift": (drift, "abs"),
        "solver_gap": (gap, "rel"),
    }


def per_layer(runner: Runner, seconds: float) -> dict:
    plain, traced = timed_passes(runner, seconds, Tracer)
    points = max(runner.points_per_pass(), 1)
    last = traced[-1][1]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (last.totals[layer][0], "count")
        metrics[f"{layer}.self_s"] = (
            statistics.median(t.totals[layer][1] for _, t in traced), "s")
    metrics["timescale.locate.per_point"] = (last.totals["timescale.locate"][0] / points, "count")
    metrics["timescale.simpson.steps_per_call"] = (
        _ratio(last, "timescale.simpson.step", "timescale.simpson"), "count")
    library = {job.name for job in runner.wl.jobs if job.command == "library"}
    for kind in ("cli", "library"):
        calls = [c for name, c in last.job_calls.items()
                 if (kind == "library") == (name in library)]
        steps = sum(c["timescale.simpson.step"] for c in calls)
        simpson = sum(c["timescale.simpson"] for c in calls)
        metrics[f"timescale.simpson.{kind}_steps_per_call"] = (
            steps / simpson if simpson else 0.0, "count")
    metrics["trace.spans"] = (last.span_count(), "count")
    pass_s = statistics.median(p.wall for p in plain)
    metrics["trace.overhead"] = (statistics.median(p.wall for p, _ in traced) / pass_s, "ratio")
    metrics["pass_s"] = (pass_s, "s")
    for command in COMMANDS:
        metrics[f"{command}_s"] = (statistics.median(p.by_command[command] for p in plain), "s")
    probes_failed = 0
    for probe in runner.wl.probes:
        try:
            probe.check(probe.run(), {})
        except Exception as exc:
            print(f"bench: known-defect probe {probe.name} failed: {exc}", file=sys.stderr)
            probes_failed += 1
    jobs = len(runner.wl.jobs) + len(runner.wl.probes)
    metrics["ops_failed"] = ((len(runner.failed_jobs) + probes_failed) / jobs, "share")
    return metrics


def _ratio(tracer, num, den) -> float:
    d = tracer.totals[den][0]
    return tracer.totals[num][0] / d if d else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tscale" / "__init__.py").is_file():
        print(f"bench: no tscale sources under {SRC}", file=sys.stderr)
        return 2
    # Compile tscale from source on every import: no bytecode is read or
    # written, so set-up time does not depend on what an earlier run left.
    sys.dont_write_bytecode = True
    sys.pycache_prefix = str(ROOT / ".bench_build" / "no-bytecode")
    wl, setup_s = setup(args.workload, args.seed)
    runner = Runner(wl)
    if args.trace:
        metrics = per_layer(runner, args.seconds)
    else:
        metrics = end_to_end(runner, setup_s, args.seconds)
    result = {
        "correct": runner.failures == 0,
        "attempted": runner.attempted,
        "failed": runner.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
