"""The benchmark harness's self-test, run as its users run it.

The tracer in ``perfbench/`` wraps module-level names of the package by
name, so renaming one of them breaks ``--trace 1``; this keeps that failure
in the test suite.  The self-test never simulates, so a traced
``plan-single`` plus ``simulate`` run checks the simulator's counters too.
"""

import subprocess
import sys
import time
from pathlib import Path

from patrolplan import cli

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest ok" in proc.stdout


def test_tracer_counts_simulated_samples_and_csv_bytes(tmp_path):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    instance = str(ROOT / "instances" / "table1.json")
    tracer = Tracer(time.perf_counter)
    tracer.install()
    try:
        assert cli.main(["plan-single", "--instance", instance, "--out", str(tmp_path)]) == 0
        assert cli.main([
            "simulate", "--instance", instance,
            "--plan", str(tmp_path / "plan.json"), "--out", str(tmp_path),
        ]) == 0
    finally:
        tracer.uninstall()
    csv = tmp_path / "trace.csv"
    with open(csv, "rb") as fh:
        rows = sum(1 for _ in fh) - 1
    assert tracer.counts["simulate.samples"] == rows
    assert tracer.counts["simulate.csv_bytes"] == csv.stat().st_size
