"""sha256 of every file the command-line runs write on the bundled instances.

Runs, through ``patrolplan.cli.main``, into a temporary directory:

- ``plan-single`` then ``simulate`` (default periods) on each of the four
  bundled instances: ``<name>/plan.json``, ``cycle.json``,
  ``convergence.csv``, ``trace.csv`` and ``validation.json``;
- ``plan-fleet`` on ``fleet15``: ``fleet15-fleet/fleet.json`` and one
  ``plan_agent<k>.json`` per agent;
- ``gen --targets 30 --agents 3 --seed 1`` (``gen30/instance.json``), then
  ``plan-fleet`` on it into ``gen30/``;
- ``validate`` of ``fleet15``'s first agent plan:
  ``fleet15-validate/validation.json``.

It prints one ``sha256  file`` line per output, in a fixed order, so two
checkouts can be compared with ``diff``.  It exits 1 if a run does not
succeed.  It is not collected by pytest.  Run it from the repository root::

    PYTHONPATH=src python tests/output_digests.py
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")   # one BLAS thread, as the benchmark runs

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from patrolplan.cli import main as cli_main

INSTANCES = Path(__file__).resolve().parents[1] / "instances"
BUNDLED = ("table1", "line3", "duo2x2", "fleet15")


def runs(out: Path) -> list[list[str]]:
    """The CLI argument lists, in order, writing under ``out``."""
    argv = []
    for name in BUNDLED:
        inst, d = str(INSTANCES / f"{name}.json"), str(out / name)
        argv.append(["plan-single", "--instance", inst, "--out", d])
        argv.append(["simulate", "--instance", inst, "--plan", f"{d}/plan.json", "--out", d])
    fleet15 = str(INSTANCES / "fleet15.json")
    argv.append(["plan-fleet", "--instance", fleet15, "--out", str(out / "fleet15-fleet")])
    gen = str(out / "gen30" / "instance.json")
    argv.append(["gen", "--targets", "30", "--agents", "3", "--seed", "1", "--out", gen])
    argv.append(["plan-fleet", "--instance", gen, "--out", str(out / "gen30")])
    argv.append(["validate", "--instance", fleet15,
                 "--plan", str(out / "fleet15-fleet" / "plan_agent1.json"),
                 "--out", str(out / "fleet15-validate")])
    return argv


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for argv in runs(out):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(argv)
            if code != 0:
                print(f"exit {code}: {' '.join(argv)}", file=sys.stderr)
                return 1
        for path in sorted(out.rglob("*")):
            if path.is_file():
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
