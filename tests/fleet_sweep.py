"""Fleet-planning sweep: 36 random fleets, each clustered and refined once.

Draws are ``generate_random_instance(n, seed)`` with the default ranges, for
n in {20, 30, 40, 60}, k in {2, 3, 4} agents and seeds 1-3, planned with
``plan_fleet(net, k, with_dwells=False)``: clustering, greedy cycles and
target exchanges, no dwell schedules.  Each draw prints one line with its
fleet floor (``Partition.fleet_metric``, the worst cycle cost floor) and its
planning time; the last line gives the total time.  The script exits 1 if a
draw raises.  With ``--json PATH`` it also writes the per-draw floors and
times to ``PATH``.  It is not collected by pytest.  Run it from the
repository root::

    PYTHONPATH=src python tests/fleet_sweep.py
    PYTHONPATH=src python tests/fleet_sweep.py --json sweep.json
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")   # one BLAS thread, as the benchmark runs

import argparse
import json
import sys
import time

from patrolplan.cycles import SteadyStateCache
from patrolplan.fleet import plan_fleet
from patrolplan.model import generate_random_instance

SIZES = (20, 30, 40, 60)
AGENTS = (2, 3, 4)
SEEDS = (1, 2, 3)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", help="write the per-draw results to this file")
    args = parser.parse_args(argv)
    draws = []
    failed = 0
    for n in SIZES:
        for k in AGENTS:
            for seed in SEEDS:
                net, _ = generate_random_instance(n, seed)
                start = time.perf_counter()
                try:
                    floor = plan_fleet(net, k, SteadyStateCache(net), with_dwells=False).fleet_metric
                    status = f"floor {floor!r}"
                except Exception as exc:  # every failure is reported, then counted
                    floor = None
                    failed += 1
                    status = f"FAIL {type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
                draws.append({"n": n, "k": k, "seed": seed, "floor": floor, "seconds": elapsed})
                print(f"n={n} k={k} seed={seed}: {status} ({elapsed:.2f} s)", flush=True)
    total = sum(d["seconds"] for d in draws)
    print(f"{len(draws)} draws, {failed} failed, {total:.1f} s of planning")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(draws, fh, indent=2)
            fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
