"""Planner benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload {single,fleet,validate} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports ``patrolplan`` from ``src/``.
With ``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``,
with ``--trace 1`` the per-layer ones, measured by wrapping the planner's
layer boundaries (see ``tracer.py``).  The last line of standard output is
the result as one JSON object; the lines before it describe every job, the
failure probes and the run environment, which is also written with the
result to ``.perfbench_out/``.

A run repeats the workload's jobs in passes for about ``--seconds`` (at least
one pass) and reports the per-job median over passes, summed over jobs.
Times are normalised for the host's drifting speed (see ``speed.py``).
BLAS/OpenMP are pinned to one thread, and the process caps its own address
space so that a runaway allocation fails a job with ``MemoryError``.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("single", "fleet", "validate")
ADDRESS_SPACE_CAP = 3 << 30   # validate peaks near 1.3 GB RSS
SETUP_SAMPLES = 9             # this process plus eight fresh ones
CHILD_TIMEOUT_S = 120


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def cap_address_space() -> None:
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE_CAP, hard)
    if soft == resource.RLIM_INFINITY or soft > cap:
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def own_setup() -> tuple[float, float]:
    """This process's set-up time (imports plus building the inputs) and
    the speed kernel's time right after it, to normalise it by."""
    setup_s = time.perf_counter() - _T0
    from speed import kernel_seconds

    return setup_s, kernel_seconds()


def setup_sample(workload: str, seed: int) -> tuple[float, float]:
    """``own_setup`` of a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    setup_s, kernel_s = proc.stdout.split()[-2:]
    return float(setup_s), float(kernel_s)


def run_pass(jobs, timer, tracer=None) -> list[dict]:
    """Run every job once, keeping the ``timer.clock`` windows of its
    planning, validation and whole run; a job that raises or fails a check
    is recorded, never allowed to stop the pass."""
    records = []
    for k, job in enumerate(jobs):
        rec = {"job": job.name, "plan": None, "validate": None, "cost": None,
               "validate_repeats": job.validate_repeats}
        t0 = timer.clock()
        try:
            if tracer is not None:
                tracer.job = k
                tracer.install()
            try:
                rec["plan"], product = job.run(timer)
            finally:
                rec["run"] = (t0, timer.clock())
                if tracer is not None:
                    tracer.uninstall()
            rec["validate"], rec["cost"], rec["errors"] = job.check(product, timer)
        except Exception as exc:  # the run must go on; the failure is counted
            rec["errors"] = [f"{type(exc).__name__}: {exc}"]
        records.append(rec)
    return records


def normalise(passes, sampler) -> None:
    """Turn each record's windows into durations at nominal speed; a
    validation window that covers several repetitions reports one."""
    for records in passes:
        for rec in records:
            rec["run_s"] = sampler.normalised(*rec["run"])
            rec["plan_s"] = sampler.normalised(*(rec["plan"] or rec["run"]))
            rec["validate_s"] = (
                sampler.normalised(*rec["validate"]) / rec["validate_repeats"]
                if rec["validate"] else 0.0
            )


def run_passes(jobs, seconds: float, timer, tracer=None) -> tuple[list, list, float]:
    """Passes until the next one would end after ``seconds``; with a tracer,
    each round is one untraced pass and one traced pass.  Also returns the
    peak RSS in MB after the first pass: later passes can raise it a little
    (about 8% on ``fleet``), and a user runs each job once per process."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(jobs, timer))
        if len(plain) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            traced.append(run_pass(jobs, timer, tracer))
        elapsed = time.perf_counter() - start
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            return plain, traced, peak_rss_mb


def summarize(jobs, passes) -> tuple[list[dict], int, int]:
    """Per-job medians; a cost that changes between passes is a failure."""
    rows, attempted, failed = [], 0, 0
    for k, job in enumerate(jobs):
        records = [p[k] for p in passes]
        first = records[0]["cost"]
        for rec in records[1:]:
            if rec["cost"] != first and not rec["errors"]:
                rec["errors"].append(f"cost {rec['cost']!r} differs from the first pass {first!r}")
        errors = sorted({e for rec in records for e in rec["errors"]})
        attempted += len(records)
        failed += sum(1 for rec in records if rec["errors"])
        rows.append({
            "job": job.name,
            "plan_s": statistics.median([r["plan_s"] for r in records]),
            "validate_s": statistics.median([r["validate_s"] for r in records]),
            "cost": first,
            "errors": errors,
        })
    return rows, attempted, failed


def end_to_end(rows, setup_samples, peak_rss_mb: float) -> dict:
    """``setup_samples`` are ``own_setup`` pairs; each set-up time is
    normalised by the kernel timed in its own process."""
    from speed import NOMINAL_S

    costs = [r["cost"] for r in rows if not r["errors"] and r["cost"]]
    return {
        "setup_s": statistics.median(s * NOMINAL_S / k for s, k in setup_samples),
        "plan_s": sum(r["plan_s"] for r in rows),
        "validate_s": sum(r["validate_s"] for r in rows),
        "plan_cost": _geomean(costs) if costs else math.nan,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer, plain, traced, probe_failures: int, speed: float) -> dict:
    from tracer import LAYERS

    c, t, n = tracer.counts, tracer.times, len(traced)
    lookups = c["cycles.lb_lookups"]
    integrate_s = t["simulate.simulate"] - t["simulate.init"]
    fleets = c["fleet.plan_fleet"]
    totals = {
        "model.network_builds": c["model.network_build"],
        "model.network_build_s": t["model.network_build"],
        "model.target_lookups": c["model.target_lookups"],
        "covariance.fixed_point_solves": c["covariance.fixed_point"],
        "covariance.fixed_point_iters": c["covariance.fixed_point_iters"],
        "covariance.fixed_point_s": t["covariance.fixed_point"],
        "covariance.flow_builds": c["covariance.flow_build"],
        "covariance.flow_build_s": t["covariance.flow_build"],
        "covariance.lower_bound_evals": c["covariance.lower_bound"],
        "covariance.steady_solves": c["covariance.steady_solve"],
        "dwell.balance_calls": c["dwell.balance"],
        "dwell.sweeps": c["dwell.sweeps"],
        "dwell.balance_s": t["dwell.balance"],
        "dwell.split_calls": c["dwell.split"],
        "dwell.split_s": t["dwell.split"],
        "dwell.golden_probes": c["dwell.golden_probes"],
        "dwell.golden_s": t["dwell.golden"],
        "dwell.exclusion_rounds": c["dwell.exclusion_rounds"],
        "cycles.tsp_s": t["cycles.tsp"],
        "cycles.cycles_built": c["cycles.cycles_built"],
        "cycles.candidates": c["cycles.candidates"],
        "cycles.metric_evals": c["cycles.metric"],
        "cycles.metric_s": t["cycles.metric"],
        "cycles.lb_lookups": lookups,
        "cycles.improve_s": t["cycles.improve"],
        "fleet.disparity_s": t["fleet.disparity"],
        "fleet.cluster_s": t["fleet.cluster"],
        "fleet.tes_s": t["fleet.tes"],
        "fleet.tes_commits": c["fleet.tes_commits"],
        "fleet.tes_rebuilds": c["fleet.build_cluster"] - c["fleet.initial_builds"],
        "fleet.ceo_candidates": c["fleet.ceo_candidates"],
        "fleet.subnetwork_builds": c["fleet.subnetwork"],
        "fleet.schedule_s": t["dwell.plan_for_cycle"],
        "simulate.init_s": t["simulate.init"],
        "simulate.integrate_s": integrate_s,
        "simulate.samples": c["simulate.samples"],
        "simulate.validate_s": t["simulate.validate"],
        "simulate.csv_s": t["simulate.csv"],
        "simulate.csv_bytes": c["simulate.csv_bytes"],
        "cli.plan_cmd_s": t["cli.plan_cmd"],
        "cli.simulate_cmd_s": t["cli.simulate_cmd"],
    }
    for layer in LAYERS:
        totals[f"{layer}.self_s"] = tracer.self_s[layer]
    metrics = {
        name: value / n * (speed if name.endswith("_s") else 1.0)
        for name, value in totals.items()
    }
    metrics["cycles.lb_hit_ratio"] = (
        1.0 - c["covariance.lower_bound"] / lookups if lookups else 0.0
    )
    metrics["fleet.floor"] = math.exp(c["fleet.log_floor"] / fleets) if fleets else 0.0
    metrics["simulate.sample_rate"] = (
        metrics["simulate.samples"] / metrics["simulate.integrate_s"] if integrate_s else 0.0
    )
    plain_s = statistics.median([sum(r["run_s"] for r in p) for p in plain])
    traced_s = statistics.median([sum(r["run_s"] for r in p) for p in traced])
    metrics["trace.overhead_ratio"] = traced_s / plain_s - 1.0
    metrics["dwell.probe_failures"] = probe_failures
    return metrics


def run_probes(probes, timer) -> tuple[list[str], int]:
    """Known-defect probes: run once, untimed, outside the counted jobs."""
    lines, failures = [], 0
    for probe in probes:
        try:
            _, plan = probe.run(timer)
            _, cost, errors = probe.check(plan, timer)
            status = f"planned, j_pred {cost:.6g}" + (f", check failed: {errors}" if errors else "")
            failures += bool(errors)
        except Exception as exc:
            failures += 1
            status = f"raised {type(exc).__name__}: {exc}"
        lines.append(f"probe {probe.name}: {status}")
    return lines, failures


def environment(args, passes: int) -> dict:
    import numpy
    import scipy
    from patrolplan.config import PlannerConfig

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "patrolplan").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes,
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "rlimit_as_bytes": resource.getrlimit(resource.RLIMIT_AS)[0],
        "planner_config": dataclasses.asdict(PlannerConfig()),
    }


def declared_units(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def with_units(metrics: dict, trace: int) -> dict:
    units = declared_units(trace)
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metric names differ from BENCHMARK.json: produced only {sorted(set(metrics) - set(units))}, "
            f"missing {sorted(set(units) - set(metrics))}"
        )
    return {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "patrolplan").is_dir() or not (ROOT / "instances").is_dir():
        print(f"perfbench: {ROOT} has no src/patrolplan or instances/", file=sys.stderr)
        return 2
    cap_address_space()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    jobs = workloads.build(args.workload, ROOT)
    if args.setup_only:
        print(*map(repr, own_setup()))
        return 0
    setup = []
    if not args.trace:  # set-up time is an end-to-end metric only
        setup = [own_setup()] + [
            setup_sample(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
        ]

    from speed import SpeedSampler
    from tracer import Tracer

    tracer = None
    with SpeedSampler() as sampler:
        if args.trace:
            tracer = Tracer(sampler.clock)
        plain, traced, peak_rss_mb = run_passes(jobs, args.seconds, sampler, tracer)
    speed = sampler.factor()
    normalise(plain + traced, sampler)
    # traced passes count as attempts too, and must plan the same
    rows, attempted, failed = summarize(jobs, plain + traced)
    if traced:
        rows = summarize(jobs, plain)[0]
    probe_lines, probe_failures = run_probes(
        workloads.probes(ROOT) if args.workload == "single" else [], SpeedSampler()
    )
    if tracer is not None:
        metrics = per_layer(tracer, plain, traced, probe_failures, speed)
    else:
        metrics = end_to_end(rows, setup, peak_rss_mb)
    metrics = with_units(metrics, args.trace)
    env = environment(args, len(plain))
    env["speed_factor"] = speed

    for row in rows:
        status = "ok" if not row["errors"] else "FAILED " + "; ".join(row["errors"])
        cost = "-" if row["cost"] is None else f"{row['cost']:.6g}"
        print(f"job {row['job']}: plan_s {row['plan_s']:.4f} validate_s {row['validate_s']:.4f} "
              f"cost {cost} {status}")
    print(f"failed_share {failed}/{attempted} job runs over {len(plain)} pass(es); "
          f"run speed factor {speed:.4f}")
    for line in probe_lines:
        print(line)
    print("env " + json.dumps(env, sort_keys=True))

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.save(out_dir / f"spans-{stem}.npz", [job.name for job in jobs])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "env": env, "jobs": rows, "probes": probe_lines, "setup_raw_s_kernel_s": setup,
        "kernel_samples": sampler.samples, "passes": plain, "result": result,
    }
    (out_dir / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
