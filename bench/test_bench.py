"""Tests of the benchmark itself (run: python3 -m pytest bench/test_bench.py).

They check that the tracing wrappers leave tscale exactly as they found it,
that a seed fixes every count metric, that the oracles reject a wrong
answer, and that the benchmark refuses to run without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracing import Tracer

COUNT_SUFFIXES = (".calls", ".per_point", "steps_per_call", "trace.spans", "ops_failed")


def _snapshot(pkg):
    """Every attribute the tracer may touch, by owner."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "tscale" or name.startswith("tscale.")]
    classes = [pkg.TimeScale, pkg.Coefficient, pkg.cli._Parser]
    snap = {id(o): (o, dict(vars(o))) for o in modules + classes}
    for mod in modules:
        for value in vars(mod).values():
            if isinstance(value, dict):
                snap[id(value)] = (value, dict(value))
    return snap


def _assert_identical(snap):
    for owner, before in snap.values():
        after = dict(owner if isinstance(owner, dict) else vars(owner))
        assert after.keys() == before.keys(), owner
        for key, value in before.items():
            assert after[key] is value, (owner, key)


def test_tracer_restores_every_wrapped_attribute():
    pkg = run.import_tscale()
    snap = _snapshot(pkg)
    original_locate = pkg.TimeScale._locate
    tracer = Tracer()
    tracer.install()
    try:
        assert pkg.TimeScale._locate is not original_locate
        trig = sys.modules["tscale.trig"]  # pkg.trig is the trig() function
        assert trig._grid_log_integrals.__wrapped__ is snap[id(trig)][1]["_grid_log_integrals"]
        assert "parse_args" in vars(pkg.cli._Parser)
        pkg.exp_cayley(pkg.uniform(0, 1, 4), 1.0, 3.0, 0.0)
    finally:
        tracer.uninstall()
    assert not tracer.installed
    assert tracer.totals["exponential.pointwise"][0] == 1
    _assert_identical(snap)


def _traced(workload: str, seed: int) -> dict:
    """Per-layer metrics of a traced run of one round of passes."""
    pkg = run.import_tscale()
    runner = run.Runner(workloads.build(workload, pkg, seed))
    metrics = run.per_layer(runner, seconds=0)
    assert runner.failures == 0
    return {k: v for k, (v, _) in metrics.items()}


def _counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_counts(workload):
    first = _traced(workload, 7)
    names = [m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert sorted(first) == sorted(names)
    assert _counts(first) == _counts(_traced(workload, 7))


def test_layer_split():
    walk = _traced("discrete-walk", 3)
    assert max((v, k) for k, v in walk.items() if k.endswith(".self_s"))[1] == "timescale.locate.self_s"
    assert walk["timescale.integral.calls"] == 0
    assert walk["exponential.pointwise.calls"] == 0
    assert walk["ops_failed"] > 0  # the known oscillator-cayley defect
    dense = _traced("hybrid-dense", 3)
    assert dense["exponential.pointwise.calls"] == 0
    assert dense["timescale.simpson.cli_steps_per_call"] == 1.0
    assert dense["timescale.simpson.library_steps_per_call"] > 100
    assert dense["ops_failed"] == 0


def test_oracle_rejects_a_wrong_value():
    pkg = run.import_tscale()
    job = workloads.build("discrete-walk", pkg, 5).jobs[0]
    out = job.run()
    job.check(out, {})
    lines = out.splitlines()
    t, re_, im = lines[10].split(",")
    lines[10] = f"{t},{float(re_) * (1 + 1e-6)!r},{im}"
    with pytest.raises(workloads.JobFailed):
        job.check("\n".join(lines) + "\n", {})


def test_refuses_to_run_without_sources(tmp_path):
    repo = Path(run.ROOT)
    shutil.copy(repo / "BENCHMARK.json", tmp_path)
    shutil.copytree(repo / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((repo / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "discrete-walk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
