"""The benchmark harness's self-test, run as its users run it.

The tracer in ``perfbench/`` wraps module-level names of the package by
name, so renaming one of them breaks ``--trace 1``; this keeps that failure
in the test suite.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest ok" in proc.stdout
