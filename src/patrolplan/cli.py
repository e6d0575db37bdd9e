"""Command-line interface.

Subcommands: ``gen`` (random instance), ``plan-single`` (one agent),
``plan-fleet`` (clustered multi-agent), ``simulate`` (forward validation of a
plan file), ``validate`` (validation report only).  All outputs are JSON or
CSV files.  Exit codes: 0 success, 1 numeric failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from .config import PlannerConfig
from .covariance import ConvergenceError, EngineError
from .cycles import SteadyStateCache, cycle_lower_bound, cycle_to_document
from .dwell import Plan, PlanningError, plan_single_agent
from .fleet import FleetError, cluster_subnetwork, partition_to_document, plan_fleet
from .model import (
    MAX_RANDOM_TARGETS,
    InstanceError,
    _integer,
    generate_random_instance,
    instance_to_document,
    load_instance_file,
    read_json_file,
)
from .simulate import csv_row_blocks, simulate, trace_to_csv, validate


def _config_from_args(args) -> PlannerConfig:
    cfg = PlannerConfig()
    for flag, name in (("tol", "balance_tol"), ("sigma", "sigma")):
        value = getattr(args, flag, None)
        if value is not None:
            if not (math.isfinite(value) and value > 0):
                raise InstanceError(f"--{flag} must be positive and finite, got {value!r}")
            cfg = dataclasses.replace(cfg, **{name: value})
    if getattr(args, "periods", None) is not None:
        if args.periods < 2:
            raise InstanceError("--periods must be at least 2")
        cfg = dataclasses.replace(cfg, num_periods=args.periods)
    if getattr(args, "seed", None) is not None:
        if args.seed < 0:
            raise InstanceError(f"--seed must be non-negative, got {args.seed}")
        cfg = dataclasses.replace(cfg, seed=args.seed)
    for flag in ("agents", "targets"):
        if getattr(args, flag, None) is not None and getattr(args, flag) < 1:
            raise InstanceError(f"--{flag} must be at least 1")
    if getattr(args, "targets", None) is not None and args.targets > MAX_RANDOM_TARGETS:
        raise InstanceError(f"--targets must be at most {MAX_RANDOM_TARGETS}, got {args.targets}")
    return cfg


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _out_path(args, default: str, directory: bool) -> Path:
    """The ``--out`` path (a directory, or the file ``gen`` writes) with the
    directory it needs made; one that cannot serve is an input error."""
    path = Path(args.out or default)
    if path.exists() and path.is_dir() != directory:
        kind = "is a directory" if path.is_dir() else "is not a directory"
        raise InstanceError(f"--out {str(path)!r} {kind}")
    folder = path if directory else path.parent
    try:
        folder.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file on the way, or no permission
        raise InstanceError(
            f"--out {str(path)!r}: cannot make directory {str(folder)!r}: {exc.strerror}"
        ) from exc
    return path


def _out_dir(args, names) -> Path:
    """The ``--out`` directory, with none of the file ``names`` the
    subcommand writes into it taken by a directory."""
    out = _out_path(args, ".", directory=True)
    for name in names:
        if (out / name).is_dir():
            raise InstanceError(f"--out {str(out)!r}: output file {str(out / name)!r} "
                                f"is a directory")
    return out


SINGLE_PLAN_FILES = ("plan.json", "cycle.json", "convergence.csv")


def cmd_gen(args) -> int:
    cfg = _config_from_args(args)
    path = _out_path(args, "instance.json", directory=False)
    network, fleet = generate_random_instance(args.targets, seed=cfg.seed, num_agents=args.agents)
    _write_json(path, instance_to_document(network, fleet))
    print(f"wrote {path} ({args.targets} targets, {fleet.num_agents} agents)")
    return 0


def _write_single_plan(network, cfg, out: Path) -> Plan:
    cache = SteadyStateCache(network)
    plan = plan_single_agent(network, cache, cfg)
    _write_json(out / "plan.json", plan.to_document())
    metric = cycle_lower_bound(plan.cycle, cache)
    _write_json(out / "cycle.json", cycle_to_document(plan.cycle, metric, cache))
    with open(out / "convergence.csv", "w", encoding="utf-8") as fh:
        fh.write("iteration,max_peak_cost\n")
        for k, v in enumerate(plan.trace):
            fh.write(f"{k},{v:.12g}\n")
    return plan


def cmd_plan_single(args) -> int:
    network, fleet = load_instance_file(args.instance)
    cfg = _config_from_args(args)
    out = _out_dir(args, SINGLE_PLAN_FILES)
    plan = _write_single_plan(network, cfg, out)
    print(
        f"plan: period {plan.period:.6g}, predicted cost {plan.j_pred:.6g}, "
        f"{len(plan.active)} active, {len(plan.excluded)} excluded -> {out / 'plan.json'}"
    )
    return 0


def cmd_plan_fleet(args) -> int:
    network, fleet = load_instance_file(args.instance)
    cfg = _config_from_args(args)
    agents = fleet.num_agents if args.agents is None else args.agents
    if agents > len(network.ids):
        raise InstanceError(f"{agents} agents exceed {len(network.ids)} targets")
    out = _out_dir(args, SINGLE_PLAN_FILES if agents == 1 else
                   ["fleet.json", *(f"plan_agent{k}.json" for k in range(1, agents + 1))])
    if agents == 1:
        plan = _write_single_plan(network, cfg, out)
        print(
            f"single agent: period {plan.period:.6g}, predicted cost {plan.j_pred:.6g} "
            f"-> {out / 'plan.json'}"
        )
        return 0
    partition = plan_fleet(network, agents, config=cfg)
    _write_json(out / "fleet.json", partition_to_document(partition))
    for k, plan in enumerate(partition.plans):
        _write_json(out / f"plan_agent{k + 1}.json", plan.to_document())
    print(
        f"fleet: {agents} agents, worst cost floor {partition.fleet_metric:.6g}, "
        f"worst predicted cost {partition.fleet_cost:.6g}, "
        f"{len(partition.tes_log)} exchanges -> {out / 'fleet.json'}"
    )
    return 0


def _load_plan(args):
    network, _ = load_instance_file(args.instance)
    doc = read_json_file(args.plan)
    if not isinstance(doc, dict):
        raise ValueError("not a plan document")
    try:
        covers = {_integer(tid, "'covers' entry") for tid in doc.get("covers", network.ids)}
    except (TypeError, InstanceError):  # null, a number, or a non-integral entry
        covers = set()
    if not covers or not covers <= set(network.ids):
        raise ValueError(f"plan document field 'covers' must name targets of the instance, "
                         f"got {doc['covers']!r}")
    if covers != set(network.ids):
        network = cluster_subnetwork(network, covers)
    return Plan.from_document(network, doc)


def _simulate_plan(args, write_trace: bool):
    """Load the plan, simulate it (writing ``trace.csv`` if asked) and write
    ``validation.json``; returns the trace, the report and the output dir."""
    plan = _load_plan(args)
    cfg = _config_from_args(args)
    out = _out_dir(args, ("trace.csv", "validation.json") if write_trace else ("validation.json",))
    trace = simulate(plan, num_periods=cfg.num_periods)
    if write_trace:
        # one block of rows at a time: the file's text is never held whole,
        # and a repeated period's blocks reuse the text of the one it repeats
        with open(out / "trace.csv", "wb") as fh:
            for lo, hi in csv_row_blocks(trace):
                fh.write(trace_to_csv(trace, lo, hi))
    report = validate(plan, trace)
    _write_json(out / "validation.json", report)
    return trace, report, out


def cmd_simulate(args) -> int:
    trace, report, out = _simulate_plan(args, write_trace=True)
    print(
        f"simulated {trace.num_periods} periods: realized {report['realized_cost']:.6g} "
        f"vs predicted {report['predicted_cost']:.6g} "
        f"(rel err {report['relative_error']:.2e}) -> {out / 'trace.csv'}"
    )
    return 0 if report["prediction_consistent"] else 1


def cmd_validate(args) -> int:
    _, report, out = _simulate_plan(args, write_trace=False)
    ok = report["prediction_consistent"] and report["metric_floor_holds"]
    print(
        f"validation: consistent={report['prediction_consistent']} "
        f"floor_holds={report['metric_floor_holds']} "
        f"peaks_at_switches={report['peaks_at_switches']} -> {out / 'validation.json'}"
    )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patrolplan",
        description="Plan and validate periodic monitoring schedules over a target network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the flags it reads
    def planning(p):
        p.add_argument("--instance", required=True, help="instance JSON file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--tol", type=float, default=None, help="balancing tolerance")

    def checking(p):
        p.add_argument("--instance", required=True, help="instance JSON file")
        p.add_argument("--plan", required=True, help="plan JSON file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--periods", type=int, default=None, help="simulation periods")

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--targets", type=int, required=True)
    p.add_argument("--agents", type=int, default=1)
    p.add_argument("--seed", type=int, default=None, help="instance seed")
    p.add_argument("--out", default=None, help="output file")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("plan-single", help="plan one agent over the instance")
    planning(p)
    p.set_defaults(func=cmd_plan_single)

    p = sub.add_parser("plan-fleet", help="partition the network and plan every agent")
    planning(p)
    p.add_argument("--agents", type=int, default=None, help="override the instance agent count")
    p.add_argument("--sigma", type=float, default=None, help="similarity kernel width")
    p.add_argument("--seed", type=int, default=None, help="k-means seed")
    p.set_defaults(func=cmd_plan_fleet)

    p = sub.add_parser("simulate", help="simulate a plan and write trace + report")
    checking(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="simulate a plan and write the report only")
    checking(p)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConvergenceError, EngineError, PlanningError, FleetError) as exc:
        _emit_error("numeric", exc)
        return 1
    except ValueError as exc:  # InstanceError included
        _emit_error("input", exc)
        return 2


def _emit_error(kind: str, exc: Exception) -> None:
    record = {"error": kind, "type": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
