"""The benchmark's workloads: the jobs run on fixed inputs.

Every job plans with the default ``PlannerConfig``.  ``run`` is the traced
part (the program's own work) and returns ``(plan_window, product)``;
``check`` runs after it, untraced, and returns ``(validate_window, cost,
errors)``.  A window is a ``(start, end)`` pair read from ``timer.clock``
(a ``speed.SpeedSampler``) and may cover ``validate_repeats`` validations.

The inputs do not depend on the run's seed: the random instances are the
seed-1 instances of ``generate_random_instance``.  A fresh instance per seed
changes the work itself (one n = 20 plan took 0.6-4.4 s across seeds 1-8),
so no run-to-run bound could hold on it.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

from patrolplan import cli, dwell, fleet
from patrolplan.config import ParamRanges, PlannerConfig
from patrolplan.cycles import SteadyStateCache
from patrolplan.model import (
    TargetNetwork,
    generate_random_instance,
    load_instance,
    load_instance_file,
)

import checks

INSTANCE_SEED = 1
BUNDLED = ("table1", "line3", "duo2x2", "fleet15")
PROBE_A = (20.0, 40.0)
RECHECK_REPEATS = 200
RECHECK_SAMPLE_EVERY = 8


def _recheck(plans, timer) -> tuple[tuple[float, float], list[str]]:
    """Recompute every plan's costs ``RECHECK_REPEATS`` times in one window
    (once takes only a few milliseconds), with a speed sample before every
    ``RECHECK_SAMPLE_EVERY``-th repetition, so the window is normalised by
    the speed it ran at; then check the last recomputation.  The steady
    states that seed it are solved first, outside the window: that is a
    scipy call, which the pure-Python speed kernel does not track."""
    seeds = [checks.steady_seeds(p) for p in plans]
    t0 = timer.clock()
    for rep in range(RECHECK_REPEATS):
        if rep % RECHECK_SAMPLE_EVERY == 0:
            timer.sample()
        recomputed = [checks.recompute_costs(p, s) for p, s in zip(plans, seeds)]
    window = (t0, timer.clock())
    errors = []
    for k, (plan, costs) in enumerate(zip(plans, recomputed)):
        errors += [f"plan {k}: {e}" for e in checks.check_plan(plan, costs)]
    return window, errors


class SingleJob:
    """``plan_single_agent`` on one network."""

    validate_repeats = RECHECK_REPEATS

    def __init__(self, name: str, network: TargetNetwork):
        self.name = name
        self.network = network

    def run(self, timer):
        t0 = timer.clock()
        plan = dwell.plan_single_agent(self.network, SteadyStateCache(self.network), PlannerConfig())
        return (t0, timer.clock()), plan

    def check(self, plan, timer):
        window, errors = _recheck([plan], timer)
        return window, plan.j_pred, errors


class FleetJob:
    """``plan_fleet`` with dwells, as ``plan-fleet`` runs it."""

    validate_repeats = RECHECK_REPEATS

    def __init__(self, name: str, network: TargetNetwork, agents: int):
        self.name = name
        self.network = network
        self.agents = agents

    def run(self, timer):
        t0 = timer.clock()
        partition = fleet.plan_fleet(
            self.network, self.agents, SteadyStateCache(self.network), PlannerConfig()
        )
        return (t0, timer.clock()), partition

    def check(self, partition, timer):
        window, errors = _recheck(partition.plans or [], timer)
        errors = checks.check_partition(self.network, partition) + errors
        return window, partition.fleet_cost, errors


class CliJob:
    """``plan-single`` then ``simulate`` through ``cli.main``, in a scratch
    directory under ``tmp_root`` that is removed by ``check``."""

    validate_repeats = 1

    def __init__(self, name: str, instance: Path, tmp_root: Path):
        self.name = name
        self.instance = str(instance)
        self.tmp_root = tmp_root

    def run(self, timer):
        self.tmp_root.mkdir(parents=True, exist_ok=True)
        out = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.tmp_root))
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = timer.clock()
                rc_plan = cli.main(["plan-single", "--instance", self.instance, "--out", str(out)])
                t1 = timer.clock()
                rc_sim = 1
                if rc_plan == 0:
                    rc_sim = cli.main([
                        "simulate", "--instance", self.instance,
                        "--plan", str(out / "plan.json"), "--out", str(out),
                    ])
                t2 = timer.clock()
        except BaseException:
            shutil.rmtree(out, ignore_errors=True)
            raise
        return (t0, t1), {"out": out, "codes": (rc_plan, rc_sim), "validate_window": (t1, t2)}

    def check(self, product, timer):
        out = product["out"]
        try:
            errors = checks.check_validation(out, product["codes"])
            cost = None
            plan_path = out / "plan.json"
            if plan_path.exists():
                cost = json.loads(plan_path.read_text(encoding="utf-8"))["predicted_cost"]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return product["validate_window"], cost, errors


def build(workload: str, root: Path) -> list:
    """The jobs of one workload."""
    instances = root / "instances"
    if workload == "single":
        jobs = []
        for n in (10, 20, 40):
            network, _ = generate_random_instance(n, INSTANCE_SEED)
            jobs.append(SingleJob(f"random-n{n}", network))
        network, _ = generate_random_instance(
            20, INSTANCE_SEED, ParamRanges(stable_fraction=0.3)
        )
        jobs.append(SingleJob("stable-n20", network))
        return jobs
    if workload == "fleet":
        network, spec = generate_random_instance(30, INSTANCE_SEED, num_agents=3)
        bundled, bundled_spec = load_instance_file(str(instances / "fleet15.json"))
        return [
            FleetJob("random-n30-k3", network, spec.num_agents),
            FleetJob("fleet15", bundled, bundled_spec.num_agents),
        ]
    if workload == "validate":
        tmp_root = root / ".perfbench_tmp"
        jobs = []
        for name in BUNDLED:
            path = instances / f"{name}.json"
            load_instance_file(str(path))  # fail in set-up, not mid-run
            jobs.append(CliJob(name, path, tmp_root))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


def probes(root: Path) -> list[SingleJob]:
    """``line3`` with a fast-diverging target 1.  Its optimum is finite, but
    the planner fails on it today; the probes keep that failure visible
    without counting it as a job of the workload."""
    doc = json.loads((root / "instances" / "line3.json").read_text(encoding="utf-8"))
    out = []
    for a in PROBE_A:
        doc["targets"][0]["A"] = a
        network, _ = load_instance(doc)
        out.append(SingleJob(f"line3-A{a:g}", network))
    return out
