from pathlib import Path

import numpy as np
import pytest

from patrolplan import simulate as simulate_module
from patrolplan.covariance import cov_norm
from patrolplan.cycles import SteadyStateCache
from patrolplan.dwell import plan_single_agent
from patrolplan.fleet import plan_fleet
from patrolplan.model import TargetSpec, TargetNetwork, generate_random_instance, load_instance_file
from patrolplan.simulate import (
    simulate,
    steady_initial_covariances,
    trace_to_csv,
    validate,
)

from oracles import rowwise_trace_csv, stepwise_simulate

INSTANCES = Path(__file__).resolve().parents[1] / "instances"


def _planned(net):
    cache = SteadyStateCache(net)
    return net, cache, plan_single_agent(net, cache)


@pytest.fixture(scope="module")
def small_plan():
    net, _ = generate_random_instance(4, seed=51)
    return _planned(net)


@pytest.fixture(scope="module")
def sandwich_plan():
    """Mixed stable/unstable two-dimensional targets."""
    return _planned(TargetNetwork(
        targets=[
            TargetSpec(
                id=1,
                A=[[-0.5, 0.2], [0.0, -0.7]],
                Q=[[0.6, 0.1], [0.1, 0.8]],
                H=[[1.0, 0.0], [0.0, 1.0]],
                R=[[2.0, 0.0], [0.0, 2.0]],
            ),
            TargetSpec(
                id=2,
                A=[[0.15, 0.0], [0.1, 0.05]],
                Q=[[0.9, 0.0], [0.0, 0.5]],
                H=[[1.0, 0.0], [0.0, 1.0]],
                R=[[1.5, 0.0], [0.0, 2.5]],
            ),
        ],
        edges=[(1, 2, 0.4)],
    ))


@pytest.fixture(scope="module")
def weighted_plan():
    """A weight-2.5 target and a stable target that is never visited."""
    net, cache, plan = _planned(TargetNetwork(
        targets=[
            TargetSpec(id=1, A=0.4, Q=1.5, H=1.0, R=2.0, weight_alpha=2.5),
            TargetSpec(id=2, A=0.2, Q=1.0, H=1.0, R=3.0),
            TargetSpec(id=3, A=-1.5, Q=0.05, H=1.0, R=1.0),
        ],
        edges=[(1, 2, 0.4), (2, 3, 0.4), (1, 3, 0.5)],
    ))
    assert set(plan.excluded) == {3}
    return net, cache, plan


@pytest.fixture(scope="module")
def fleet_cluster_plan():
    """The fleet15 cluster with the longest cycle (a target visited twice)."""
    net, fleet = load_instance_file(str(INSTANCES / "fleet15.json"))
    partition = plan_fleet(net, fleet.num_agents, cache=SteadyStateCache(net))
    sub, plan = max(zip(partition.subnetworks, partition.plans),
                    key=lambda pair: len(pair[1].cycle.instances))
    return sub, SteadyStateCache(sub), plan


class TestSimulate:
    def test_steady_init_matches_prediction_from_first_period(self, small_plan):
        net, cache, plan = small_plan
        trace = simulate(plan, net, cache=cache, num_periods=2)
        report = validate(plan, trace)
        assert report["relative_error"] <= 1e-6
        assert trace.settle_period == 1

    def test_scaled_init_converges(self, small_plan):
        net, cache, plan = small_plan
        init = steady_initial_covariances(plan, net, cache, scale=10.0)
        trace = simulate(plan, net, initial=init, cache=cache)
        for tid, peak in trace.per_target_realized.items():
            if tid in plan.active:
                assert peak == pytest.approx(plan.costs[tid], rel=1e-5)

    def test_doubling_periods_stable(self, small_plan):
        net, cache, plan = small_plan
        t1 = simulate(plan, net, cache=cache, num_periods=10)
        t2 = simulate(plan, net, cache=cache, num_periods=20)
        assert abs(t1.realized_cost - t2.realized_cost) <= 1e-8 * t2.realized_cost

    def test_never_visited_stable_target_rests_at_limit(self):
        net = TargetNetwork(
            targets=[
                TargetSpec(id=1, A=0.4, Q=1.5, H=1.0, R=2.0),
                TargetSpec(id=2, A=0.2, Q=1.0, H=1.0, R=3.0),
                TargetSpec(id=3, A=-1.5, Q=0.05, H=1.0, R=1.0),
            ],
            edges=[(1, 2, 0.4), (2, 3, 0.4), (1, 3, 0.5)],
        )
        cache = SteadyStateCache(net)
        plan = plan_single_agent(net, cache)
        assert 3 in plan.excluded
        trace = simulate(plan, net, cache=cache)
        ss = cache.steady(3)
        resting = cov_norm(ss.omega_inf_finite)
        assert trace.norms[3][-1] == pytest.approx(resting, rel=1e-6)

    def test_eta_matches_dwell_intervals(self, small_plan):
        net, cache, plan = small_plan
        trace = simulate(plan, net, cache=cache, num_periods=2)
        # every target observed for a fraction of the period matching its dwell
        total = {tid: 0 for tid in trace.observed}
        for tid, flags in trace.observed.items():
            total[tid] = sum(flags)
        for pos, inst in enumerate(plan.cycle.instances):
            if plan.dwells[pos] > 1e-9:
                assert total[inst.target] > 0
        # never two targets observed at once
        for k in range(len(trace.times)):
            assert sum(trace.observed[tid][k] for tid in trace.observed) <= 1

    def test_requires_two_periods(self, small_plan):
        net, cache, plan = small_plan
        with pytest.raises(ValueError):
            simulate(plan, net, cache=cache, num_periods=1)


class TestValidate:
    def test_inflated_prediction_flagged(self, small_plan):
        net, cache, plan = small_plan
        trace = simulate(plan, net, cache=cache, num_periods=4)
        import dataclasses
        bogus = dataclasses.replace(plan, j_pred=plan.j_pred * 2.0)
        report = validate(bogus, trace)
        assert not report["prediction_consistent"]
        good = validate(plan, trace)
        assert good["prediction_consistent"]

    def test_peaks_at_switch_instants(self, small_plan):
        net, cache, plan = small_plan
        trace = simulate(plan, net, cache=cache, num_periods=4)
        report = validate(plan, trace)
        assert report["peaks_at_switches"]
        assert report["max_peak_switch_offset"] <= trace.dt + 1e-9

    def test_metric_floor_holds(self, small_plan):
        net, cache, plan = small_plan
        trace = simulate(plan, net, cache=cache, num_periods=4)
        report = validate(plan, trace)
        assert report["metric_floor_holds"]

    def test_fleet_plans_validate_per_cluster(self):
        net, _ = generate_random_instance(8, seed=31)
        part = plan_fleet(net, 2, refine=False, with_dwells=True)
        for sub, plan in zip(part.subnetworks, part.plans):
            trace = simulate(plan, sub, num_periods=4)
            report = validate(plan, trace)
            assert report["prediction_consistent"]
            assert report["metric_floor_holds"]


class TestTraceExport:
    def test_csv_shape(self, small_plan):
        net, cache, plan = small_plan
        trace = simulate(plan, net, cache=cache, num_periods=2)
        csv = trace_to_csv(trace)
        lines = csv.strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "t"
        assert len(header) == 1 + 3 * len(net.ids)
        assert len(lines) == 1 + len(trace.times)
        # numeric body
        row = lines[1].split(",")
        float(row[0]), float(row[1]), float(row[2])
        assert row[3] in ("0", "1")


class TestSandwichOnTrace:
    def test_projected_profile_between_bounds(self, sandwich_plan):
        net, cache, plan = sandwich_plan
        trace = simulate(plan, net, cache=cache, num_periods=4)
        report = validate(plan, trace)
        assert report["prediction_consistent"]
        # scalar projections of the trace norms sit between the two resting
        # costs for the stable target
        ss1 = cache.steady(1)
        lo = cov_norm(ss1.omega_ss)
        hi = cov_norm(ss1.omega_inf_finite)
        settled = [n for t, n in zip(trace.times, trace.norms[1])
                   if t >= trace.period]
        assert all(lo < v < hi for v in settled)


class TestColumnarMatchesStepwise:
    """The columnar simulator and CSV writer against their per-sample forms:
    every sample, every derived number and every CSV byte."""

    @pytest.mark.parametrize(
        "case", ["small_plan", "sandwich_plan", "weighted_plan", "fleet_cluster_plan"]
    )
    def test_identical_trace_and_csv(self, case, request, monkeypatch):
        net, cache, plan = request.getfixturevalue(case)
        got = simulate(plan, net, cache=cache, num_periods=3, record_states=25)
        ref = stepwise_simulate(plan, net, cache=cache, num_periods=3, record_states=25)
        assert got.times.tolist() == ref.times
        for tid in ref.norms:
            assert got.norms[tid].tolist() == ref.norms[tid]
            assert got.costs[tid].tolist() == ref.costs[tid]
            assert (got.costs[tid] is got.norms[tid]) == (net.target(tid).weight_alpha == 1.0)
            assert got.observed[tid].tolist() == ref.observed[tid]
            assert got.period_maxima[tid] == ref.period_maxima[tid]
            assert got.per_target_realized[tid] == ref.per_target_realized[tid]
            assert [t for t, _ in got.state_samples[tid]] == [t for t, _ in ref.state_samples[tid]]
            for (_, a), (_, b) in zip(got.state_samples[tid], ref.state_samples[tid]):
                assert a.shape == b.shape and np.array_equal(a, b)
        assert got.realized_cost == ref.realized_cost
        assert (got.settle_period, got.converged) == (ref.settle_period, ref.converged)
        expected = rowwise_trace_csv(ref)
        assert trace_to_csv(got) == expected
        # several chunks, the last one short
        monkeypatch.setattr(simulate_module, "CSV_CHUNK_ROWS", 997)
        assert trace_to_csv(got) == expected
