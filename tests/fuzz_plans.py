"""Random-instance fuzz of the planners: 600 seeded draws, each planned once.

Draw ``i`` uses ``random.Random(i)``: n = ``randint(4, 21)`` targets,
k = ``min(randint(1, 4), n)`` agents, then by ``choice`` the top of the drift
range a_hi, the ``stable_fraction``, the bottom of the noise range r_lo, the
top of the weight range alpha_hi and the ``box``, in that order, and the
instance seed ``randrange(10**6)``.  The instance is
``generate_random_instance(n, seed, ParamRanges(a=(0.05, a_hi),
stable_fraction=..., r=(r_lo, 8.0), alpha=(1.0, alpha_hi), box=...))``;
k = 1 plans it with ``plan_single_agent``, any other k with ``plan_fleet``.

Each draw prints one line with its parameters, its status, its time, its plan
cost (``j_pred``, or ``fleet_cost`` for a fleet, as ``%.12g``) if it planned,
the number of period-search probes (``dwell.golden_period_search``) and the
number of those that were infeasible (the level set could not balance them)
if there were any.  A draw whose cost floor exceeds its cost fails: a plan
with ``metric_value > j_pred``, a fleet with ``fleet_metric > fleet_cost``,
or a fleet with such a plan.  The last lines list the draws with an
infeasible probe and the total probe count, so the logs of two checkouts can
be diffed for cost regressions and search effort.  The consensus law
(``dwell.balance_multi_visit``, ``dwell.balance_within_target``) is not on
the planning path: a draw that calls it fails.  The script exits 1 if a draw
outside ``KNOWN_FAILURES`` fails; the one known failure, draw 502, is a
fleet with a cluster that the level set balances at no probe.  A known
failure that plans is reported, not counted.
It is not collected by pytest.  Run it from the repository root::

    PYTHONPATH=src python tests/fuzz_plans.py          # all 600 draws
    PYTHONPATH=src python tests/fuzz_plans.py 349 400  # only these draws
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")   # one BLAS thread, as the benchmark runs

import math
import random
import sys
import time
from unittest import mock

from patrolplan import dwell
from patrolplan.config import ParamRanges
from patrolplan.cycles import SteadyStateCache
from patrolplan.dwell import plan_single_agent
from patrolplan.fleet import plan_fleet
from patrolplan.model import generate_random_instance

DRAWS = 600
KNOWN_FAILURES = {502}


def draw(i: int) -> tuple[int, int, int, ParamRanges]:
    """(n, k, instance seed, ranges) of draw ``i``."""
    rng = random.Random(i)
    n = rng.randint(4, 21)
    k = min(rng.randint(1, 4), n)
    a_hi = rng.choice([0.5, 2.0, 5.0])
    stable_fraction = rng.choice([0.0, 0.3, 0.7])
    r_lo = rng.choice([0.05, 2.0])
    alpha_hi = rng.choice([1.0, 5.0])
    box = rng.choice([0.5, 3.0])
    seed = rng.randrange(10**6)
    ranges = ParamRanges(a=(0.05, a_hi), stable_fraction=stable_fraction, r=(r_lo, 8.0),
                         alpha=(1.0, alpha_hi), box=box)
    return n, k, seed, ranges


class FloorAboveCost(AssertionError):
    """A cost floor above the cost it bounds."""


def _check_floor(what: str, floor: float, cost: float) -> None:
    if not floor <= cost:
        raise FloorAboveCost(f"{what} cost floor {floor!r} exceeds its cost {cost!r}")


def plan(i: int) -> float:
    """The plan cost of draw ``i``, after checking its cost floors."""
    n, k, seed, ranges = draw(i)
    net, _ = generate_random_instance(n, seed, ranges)
    cache = SteadyStateCache(net)
    if k == 1:
        single = plan_single_agent(net, cache)
        _check_floor("the plan's", single.metric_value, single.j_pred)
        return single.j_pred
    fleet = plan_fleet(net, k, cache)
    _check_floor("the fleet's", fleet.fleet_metric, fleet.fleet_cost)
    for agent, agent_plan in enumerate(fleet.plans, 1):
        _check_floor(f"agent {agent}'s", agent_plan.metric_value, agent_plan.j_pred)
    return fleet.fleet_cost


def main(argv: list[str]) -> int:
    indices = [int(a) for a in argv] or range(DRAWS)
    unexpected = []
    with_infeasible = []
    probes = infeasible = 0
    search = dwell.golden_period_search

    def counted_search(*args, **kwargs):
        nonlocal probes, infeasible
        result = search(*args, **kwargs)
        probes += len(result[2])
        infeasible += sum(math.isinf(cost) for _, cost in result[2])
        return result

    for i in indices:
        n, k, seed, ranges = draw(i)
        start = time.perf_counter()
        draw_probes, draw_infeasible = probes, infeasible
        cost = ""
        with mock.patch.object(dwell, "balance_multi_visit",
                               wraps=dwell.balance_multi_visit) as consensus, \
                mock.patch.object(dwell, "balance_within_target",
                                  wraps=dwell.balance_within_target) as split, \
                mock.patch.object(dwell, "golden_period_search", counted_search):
            try:
                cost = f", cost {plan(i):.12g}"
                status = "ok" if i not in KNOWN_FAILURES else "ok (a known failure plans)"
            except Exception as exc:  # every failure is reported, then judged
                status = f"FAIL {type(exc).__name__}: {exc}"
                if i not in KNOWN_FAILURES:
                    unexpected.append(i)
        if consensus.called or split.called:
            status = f"FAIL the consensus law was called ({status})"
            if i not in unexpected:
                unexpected.append(i)
        elapsed = time.perf_counter() - start
        draw_infeasible = infeasible - draw_infeasible
        if draw_infeasible:
            with_infeasible.append(i)
        print(f"draw {i} n={n} k={k} seed={seed} a_hi={ranges.a[1]} "
              f"stable={ranges.stable_fraction} r_lo={ranges.r[0]} alpha_hi={ranges.alpha[1]} "
              f"box={ranges.box}: {status} ({elapsed:.2f} s{cost}, "
              f"probes {probes - draw_probes}"
              f"{f', infeasible {draw_infeasible}' if draw_infeasible else ''})", flush=True)
    print(f"{len(with_infeasible)} of {len(indices)} draws have an infeasible probe: "
          f"{with_infeasible}")
    print(f"{probes} period-search probes in all, {infeasible} of them infeasible")
    if unexpected:
        print(f"unexpected failures: {unexpected}")
        return 1
    print("no unexpected failure")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
