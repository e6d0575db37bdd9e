"""Fast self-test of the benchmark harness (a few seconds).

    python3 perfbench/selftest.py

Checks that the correctness checks flag corrupted outputs, that the tracer
restores every name it wraps, and that the metric names each mode prints are
exactly the ones ``BENCHMARK.json`` declares.
"""

import dataclasses
import json
import shutil
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import run  # pins BLAS threads before numpy is imported

sys.path.insert(0, str(run.ROOT / "src"))

import checks  # noqa: E402
from speed import SpeedSampler  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from patrolplan import covariance, dwell  # noqa: E402
from patrolplan.model import generate_random_instance  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def test_plan_checks() -> None:
    network, _ = generate_random_instance(6, 2)
    job = workloads.SingleJob("tiny", network)
    timer = SpeedSampler()
    _, plan = job.run(timer)
    _, _, errors = job.check(plan, timer)
    expect(errors == [], f"a correct plan was flagged: {errors}")

    inflated = dataclasses.replace(plan, j_pred=plan.j_pred * 1.5)
    _, _, errors = job.check(inflated, timer)
    expect(any("j_pred" in e for e in errors), "inflated j_pred was not flagged")

    dwells = list(plan.dwells)
    pos = max(range(len(dwells)), key=dwells.__getitem__)
    dwells[pos] += 0.1 * plan.period
    _, _, errors = job.check(dataclasses.replace(plan, dwells=dwells), timer)
    expect(any("period" in e for e in errors), "dwells off the period were not flagged")


def test_partition_and_validation_checks() -> None:
    network, _ = generate_random_instance(4, 2)
    bad = SimpleNamespace(clusters=[{1, 2}, {2, 3}], plans=None)
    errors = checks.check_partition(network, bad)
    expect(any("repeats" in e for e in errors), "overlapping clusters were not flagged")
    expect(any("cover" in e for e in errors), "a target left out was not flagged")

    tmp_root = run.ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix="selftest-", dir=tmp_root))
    try:
        report = {"prediction_consistent": False, "metric_floor_holds": True}
        (out / "validation.json").write_text(json.dumps(report), encoding="utf-8")
        errors = checks.check_validation(out, (0, 1))
        expect(any("simulate exited" in e for e in errors), "a failed command was not flagged")
        expect(any("prediction_consistent" in e for e in errors), "an inconsistent report was not flagged")
    finally:
        shutil.rmtree(out, ignore_errors=True)


def test_metric_names_and_tracer() -> None:
    network, _ = generate_random_instance(5, 3)
    jobs = [workloads.SingleJob("tiny", network)]
    originals = (dwell.periodic_steady_state, covariance.observed_flow, dwell.balance_single_visit)
    with SpeedSampler() as sampler:
        tracer = tracer_mod.Tracer(sampler.clock)
        plain, traced, peak_rss_mb = run.run_passes(jobs, 0.0, sampler, tracer)
    run.normalise(plain + traced, sampler)
    expect(
        (dwell.periodic_steady_state, covariance.observed_flow, dwell.balance_single_visit) == originals,
        "the tracer left a wrapper installed",
    )
    expect(tracer.counts["covariance.fixed_point"] > 0, "the traced pass recorded no fixed points")
    expect(len(tracer.starts) == len(tracer.ends) == len(tracer.parents), "span columns disagree")

    rows, attempted, failed = run.summarize(jobs, plain)
    expect((attempted, failed) == (1, 0), f"tiny pass: {failed} of {attempted} failed")
    speed = sampler.factor()
    run.with_units(run.end_to_end(rows, [(0.1, 0.01)], peak_rss_mb), trace=0)
    run.with_units(run.per_layer(tracer, plain, traced, 0, speed), trace=1)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect({w["name"] for w in spec["workloads"]} == set(run.WORKLOADS), "workload names differ")


def main() -> int:
    for test in (test_plan_checks, test_partition_and_validation_checks, test_metric_names_and_tracer):
        test()
        print(f"{test.__name__}: ok")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
