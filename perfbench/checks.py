"""Correctness checks run after every timed job.

The thresholds are fixed here, not read from ``PlannerConfig``: a change that
loosens a default tolerance must not loosen the checks with it.  Each check
returns a list of messages; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from patrolplan.covariance import cov_norm, periodic_steady_state, solve_steady_states
from patrolplan.dwell import timeline_from_schedule

PERIOD_REL_TOL = 1e-9   # travel time + dwells against the period
COST_REL_TOL = 1e-9     # j_pred against the per-target costs it summarises
PEAK_REL_TOL = 1e-4     # active per-target peaks against g_con
RECOMPUTE_REL_TOL = 1e-6  # plan cost against the independent recomputation


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def steady_seeds(plan) -> dict[int, object]:
    """Always-observed steady state of every active target, solved afresh."""
    seeds = {}
    for tid in plan.active:
        spec = plan.cycle.network.target(tid)
        seeds[tid] = solve_steady_states(spec.A, spec.Q, spec.G).omega_ss
    return seeds


def recompute_costs(plan, seeds: dict[int, object]) -> dict[int, float]:
    """Worst peak cost of every active target, recomputed from the schedule
    alone: the fixed point on ``timeline_from_schedule``, started from the
    steady states in ``seeds`` rather than from the planner's warm seeds."""
    timelines = timeline_from_schedule(plan.cycle, plan.dwells)
    network = plan.cycle.network
    out = {}
    for tid in sorted(plan.active):
        spec = network.target(tid)
        tl = timelines[tid]
        peaks = periodic_steady_state(
            spec.A, spec.Q, spec.G, tl.t_on, tl.t_off, omega_ss=seeds[tid]
        )
        out[tid] = max(spec.g(cov_norm(u)) for u in peaks.upper)
    return out


def check_plan(plan, recomputed: dict[int, float]) -> list[str]:
    """Invariants of one single-agent plan."""
    errors = []
    if not plan.metric_value <= plan.j_pred:
        errors.append(f"cost floor {plan.metric_value!r} exceeds j_pred {plan.j_pred!r}")
    if any(d < 0 or not math.isfinite(d) for d in plan.dwells):
        errors.append("a dwell is negative or not finite")
    total = plan.cycle.travel_time + sum(plan.dwells)
    if _rel(total, plan.period) > PERIOD_REL_TOL:
        errors.append(f"travel time + dwells = {total!r} but the period is {plan.period!r}")
    worst = max(list(plan.costs.values()) + list(plan.excluded.values()))
    if _rel(plan.j_pred, worst) > COST_REL_TOL:
        errors.append(f"j_pred {plan.j_pred!r} is not the worst target cost {worst!r}")
    if not plan.active:
        errors.append("no active target")
    for tid in sorted(plan.active):
        if _rel(plan.costs[tid], plan.g_con) > PEAK_REL_TOL:
            errors.append(f"active target {tid} peak {plan.costs[tid]!r} != g_con {plan.g_con!r}")
        if _rel(recomputed[tid], plan.costs[tid]) > RECOMPUTE_REL_TOL:
            errors.append(
                f"target {tid}: plan cost {plan.costs[tid]!r}, recomputed {recomputed[tid]!r}"
            )
    return errors


def check_partition(network, partition) -> list[str]:
    """Fleet-level invariants; per-plan checks run separately."""
    errors = []
    ids = set(network.ids)
    seen: set[int] = set()
    for k, cluster in enumerate(partition.clusters):
        if not cluster:
            errors.append(f"cluster {k} is empty")
        if seen & cluster:
            errors.append(f"cluster {k} repeats targets {sorted(seen & cluster)}")
        seen |= cluster
    if seen != ids:
        errors.append(f"clusters cover {sorted(seen)} instead of {sorted(ids)}")
    if partition.plans is None or len(partition.plans) != len(partition.clusters):
        errors.append("not every cluster has a plan")
        return errors
    for k, (cluster, plan) in enumerate(zip(partition.clusters, partition.plans)):
        if set(plan.cycle.network.ids) != cluster:
            errors.append(f"plan {k} covers a different set than cluster {k}")
    if not partition.fleet_metric <= partition.fleet_cost:
        errors.append("fleet cost floor exceeds the fleet cost")
    return errors


def check_validation(out_dir: Path, codes: tuple[int, int]) -> list[str]:
    """Exit codes of plan-single/simulate and the written validation report."""
    errors = [f"{cmd} exited with {rc}" for cmd, rc in zip(("plan-single", "simulate"), codes) if rc]
    path = out_dir / "validation.json"
    if not path.exists():
        return errors + ["validation.json was not written"]
    report = json.loads(path.read_text(encoding="utf-8"))
    for key in ("prediction_consistent", "metric_floor_holds"):
        if report.get(key) is not True:
            errors.append(f"validation.json: {key} is {report.get(key)!r}")
    return errors
