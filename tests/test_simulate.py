import dataclasses
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patrolplan import simulate as simulate_module
from patrolplan.covariance import cov_norm
from patrolplan.cycles import SteadyStateCache
from patrolplan.dwell import plan_single_agent
from patrolplan.fleet import plan_fleet
from patrolplan.model import TargetSpec, TargetNetwork, generate_random_instance, load_instance_file
from patrolplan.simulate import (
    SimTrace,
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
    plan = max(partition.plans, key=lambda plan: len(plan.cycle.instances))
    return plan.cycle.network, SteadyStateCache(plan.cycle.network), plan


class TestSimulate:
    def test_steady_init_matches_prediction_from_first_period(self, small_plan):
        net, cache, plan = small_plan
        trace = simulate(plan, net, cache=cache, num_periods=2)
        report = validate(plan, trace)
        assert report["relative_error"] <= 1e-6
        assert trace.settle_period == 1

    def test_scaled_init_converges(self, small_plan):
        net, cache, plan = small_plan
        init = {tid: 10.0 * w for tid, w in steady_initial_covariances(plan, net, cache).items()}
        trace = simulate(plan, net, initial=init, cache=cache)
        for tid, peak in trace.per_target_realized.items():
            if tid in plan.active:
                assert peak == pytest.approx(plan.costs[tid], rel=1e-5)

    def test_doubling_periods_stable(self, small_plan):
        net, cache, plan = small_plan
        t1 = simulate(plan, net, cache=cache, num_periods=10)
        t2 = simulate(plan, net, cache=cache, num_periods=20)
        assert abs(t1.realized_cost - t2.realized_cost) <= 1e-8 * t2.realized_cost

    def test_trace_size_limit_is_checked_before_any_work(self, small_plan, monkeypatch):
        net, cache, plan = small_plan
        rows = len(simulate(plan, net, cache=cache, num_periods=2).times)
        monkeypatch.setattr(simulate_module, "MAX_TRACE_VALUES", rows * len(net.ids))
        assert len(simulate(plan, net, cache=cache, num_periods=2).times) == rows
        monkeypatch.setattr(simulate_module, "MAX_TRACE_VALUES", rows * len(net.ids) - 1)
        monkeypatch.setattr(simulate_module, "steady_initial_covariances", None)
        with pytest.raises(ValueError, match="^2 periods of"):
            simulate(plan, net, cache=cache, num_periods=2)

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
        # the start is the resting covariance, in an array the cache does not own
        start = steady_initial_covariances(plan, net, cache)[3]
        assert np.array_equal(start, ss.omega_inf_finite)
        assert not np.shares_memory(start, ss.omega_inf_finite)

    def test_eta_matches_dwell_intervals(self, small_plan):
        net, cache, plan = small_plan
        trace = simulate(plan, net, cache=cache, num_periods=2)
        tids = sorted(trace.norms)
        # within one period, each target is flagged once per substep of its
        # dwell segments, and no other row is flagged
        expected = [0] * len(tids)
        for duration, tid in simulate_module._schedule_segments(plan):
            if tid is not None:
                expected[tids.index(tid)] += max(1, math.ceil(duration / trace.dt - 1e-9))
        rows = (len(trace.times) - 1) // trace.num_periods
        flagged = np.bincount(trace.observed[:rows] + 1, minlength=len(tids) + 1)
        assert flagged[1:].tolist() == expected
        assert flagged[0] == rows - sum(expected)
        for pos, inst in enumerate(plan.cycle.instances):
            if plan.dwells[pos] > 1e-9:
                assert expected[tids.index(inst.target)] > 0
        # the second period flags the same rows as the first
        assert trace.observed[rows:-1].tolist() == trace.observed[:rows].tolist()

    def test_dwell_below_1e_12_is_simulated(self):
        # only a zero-length segment is left out: a dwell of 1e-13 is a switch
        # and an observed substep, and sets the default grid as any short
        # segment does
        net, _ = load_instance_file(str(INSTANCES / "table1.json"))
        net, cache, plan = _planned(net)
        here = plan.cycle.positions_of(1)[0]
        there = next(p for p, d in enumerate(plan.dwells) if d > 0.0 and p != here)
        dwells = list(plan.dwells)
        dwells[there] += dwells[here] - 1e-13
        dwells[here] = 1e-13
        tiny = dataclasses.replace(plan, dwells=dwells)
        trace = simulate(tiny, net, cache=cache, num_periods=2)
        assert trace.switch_times[1] == [0.0]
        # one substep a period, plus the initial row, which the dwell opens
        assert int((trace.observed == sorted(net.ids).index(1)).sum()) == 3
        assert trace.dt == plan.period / 200_000.0

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

    def test_peaks_are_taken_from_the_last_period_row(self):
        """At 50 periods line3's last period starts at a sample 1e-9 before
        ``49 * period``: the window is found by its row, not by its time, and
        the peak's time within the period is its row's time in the first
        period."""
        net, _ = load_instance_file(str(INSTANCES / "line3.json"))
        _, cache, plan = _planned(net)
        trace = simulate(plan, net, cache=cache, num_periods=50)
        lo = 49 * ((len(trace.times) - 1) // 50)
        offsets = {}
        for tid, switches in trace.switch_times.items():
            costs = trace.weights[tid] * trace.norms[tid][lo:]
            t_peak = float(trace.times[int(np.argmax(costs))])
            offsets[tid] = min(min(abs(t_peak - s), trace.period - abs(t_peak - s))
                               for s in switches)
        assert validate(plan, trace)["peak_switch_offsets"] == offsets

    def test_peak_offsets_do_not_drift_with_the_run_length(self):
        # the last period's times carry the rounding of every step before
        # them: read there, table1's worst offset was 4.2e-10 at 200 periods
        net, _ = load_instance_file(str(INSTANCES / "table1.json"))
        _, cache, plan = _planned(net)
        trace = simulate(plan, net, cache=cache, num_periods=200)
        assert validate(plan, trace)["max_peak_switch_offset"] <= 1e-12

    def test_fleet_plans_validate_per_cluster(self):
        net, _ = generate_random_instance(8, seed=31)
        part = plan_fleet(net, 2)
        for plan in part.plans:
            trace = simulate(plan, plan.cycle.network, num_periods=4)
            report = validate(plan, trace)
            assert report["prediction_consistent"]
            assert report["metric_floor_holds"]


class TestTraceExport:
    def test_csv_shape(self, small_plan):
        net, cache, plan = small_plan
        trace = simulate(plan, net, cache=cache, num_periods=2)
        csv = trace_to_csv(trace).decode("ascii")
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


def _assert_matches_stepwise(got, ref):
    assert got.times.tolist() == ref.times.tolist()
    assert got.observed.dtype == np.int32
    assert got.observed.tolist() == ref.observed.tolist()
    assert got.weights == ref.weights
    for tid in ref.norms:
        assert got.norms[tid].tolist() == ref.norms[tid].tolist()
        assert got.period_maxima[tid] == ref.period_maxima[tid]
        assert got.per_target_realized[tid] == ref.per_target_realized[tid]
    assert got.realized_cost == ref.realized_cost
    assert (got.settle_period, got.converged) == (ref.settle_period, ref.converged)


class TestColumnarMatchesStepwise:
    """The columnar simulator and CSV writer against their per-sample forms:
    every sample, every derived number and every CSV byte."""

    @pytest.mark.parametrize(
        "case", ["small_plan", "sandwich_plan", "weighted_plan", "fleet_cluster_plan"]
    )
    def test_identical_trace_and_csv(self, case, request, monkeypatch):
        net, cache, plan = request.getfixturevalue(case)
        got = simulate(plan, net, cache=cache, num_periods=3)
        ref, _ = stepwise_simulate(plan, net, cache=cache, num_periods=3)
        _assert_matches_stepwise(got, ref)
        expected = rowwise_trace_csv(ref).encode("ascii")
        assert trace_to_csv(got) == expected
        # several chunks, the last one short
        monkeypatch.setattr(simulate_module, "CSV_CHUNK_ROWS", 997)
        assert trace_to_csv(got) == expected
        # ragged row blocks that cross chunk edges, the last one ending at
        # the last row: they concatenate to the file, with one header
        chunk, rows = simulate_module.CSV_CHUNK_ROWS, len(got.times)
        bounds = [0, 1, chunk, 2 * chunk + 3, rows]
        blocks = [trace_to_csv(got, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        assert b"".join(blocks) == expected
        header = expected[:expected.index(b"\n") + 1]
        assert [block.count(header) for block in blocks] == [1, 0, 0, 0]
        assert trace_to_csv(got, rows) == b""

    @pytest.mark.parametrize("case", ["small_plan", "sandwich_plan"])
    def test_repeated_periods_are_tiled_exactly(self, case, request):
        """Long enough that every target of the scalar and of the matrix
        plan starts some period where the one before started, so the rest
        of its column is tiled."""
        net, cache, plan = request.getfixturevalue(case)
        got = simulate(plan, net, cache=cache, num_periods=12)
        ref, _ = stepwise_simulate(plan, net, cache=cache, num_periods=12)
        rows = (len(ref.times) - 1) // 12
        last, before = slice(-rows, None), slice(-2 * rows, -rows)
        assert any(col[last] == col[before] for col in ref.norms.values())
        _assert_matches_stepwise(got, ref)
        assert trace_to_csv(got) == rowwise_trace_csv(ref).encode("ascii")


class TestRepeatedCycles:
    """A state that comes back after several periods: the periods since it
    repeat, cut off wherever the run ends."""

    def test_scalar_two_period_cycle(self):
        # w -> 1/w, one substep per period: 2, 0.5, 2, ...
        advance = simulate_module._scalar_advance([((0.0, 1.0, 1.0, 0.0), 1)])
        col = simulate_module._column(2.0, advance, 7)
        assert col.tolist() == [2.0, 0.5, 2.0, 0.5, 2.0, 0.5, 2.0, 0.5]

    def test_matrix_cycle_keeps_the_stepwise_states(self):
        # swapping the rows every period: the trace alternates 1.5 / 0.5
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        flows = [(SimpleNamespace(apply=lambda w: swap @ w), 1),
                 (SimpleNamespace(apply=lambda w: w + 0.0), 2)]
        w0 = np.array([[1.0, 0.25], [0.25, 0.5]])
        col = simulate_module._column(w0, simulate_module._matrix_advance(flows), 5)
        states, w = [w0], w0
        for _ in range(5):
            for flow, n_sub in flows:
                for _ in range(n_sub):
                    w = flow.apply(w)
                    states.append(w)
        assert col.tolist() == [cov_norm(w) for w in states]
        assert col[1:4].tolist() != col[4:7].tolist()


def _formatted(values, precision):
    text = simulate_module._format_g(np.array(values, dtype=float), precision)
    return [bytes(column).rstrip(b"\0").decode("ascii") for column in text.T]


def _nudged(x, ulps):
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, math.inf if ulps > 0 else -math.inf))
    return x


def _tricky_values(precision):
    """Every float64, powers of ten and their neighbours, the top of the
    plain range, exact .5 ties at the last kept digit, and [1e-5, 1)."""
    near_pow10 = st.builds(_nudged, st.integers(-12, 16).map(lambda k: 10.0 ** k), st.integers(-3, 3))
    below_top = st.builds(_nudged, st.just(10.0 ** precision), st.integers(-2000, 1))
    # int_part + odd / 2**j has precision + 1 digits, the last one a 5
    ties = st.integers(1, 4).flatmap(lambda j: st.builds(
        lambda whole, odd: whole + odd / 2 ** j,
        st.integers(10 ** (precision - j), 10 ** (precision + 1 - j) - 1),
        st.integers(0, 2 ** (j - 1) - 1).map(lambda k: 2 * k + 1),
    ))
    return st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        near_pow10,
        below_top,
        ties,
        st.floats(1e-5, 1.0, exclude_max=True),
        st.floats(1.0, 10.0 ** precision),
    )


class TestFormatter:
    """The vectorised ``%g`` is ``%`` byte for byte, fallback rows included."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([9, 12]).flatmap(
        lambda p: st.tuples(st.just(p), st.lists(_tricky_values(p), min_size=1, max_size=40))
    ))
    def test_matches_percent_g(self, case):
        precision, values = case
        assert _formatted(values, precision) == [f"%.{precision}g" % v for v in values]

    def test_exact_ties_round_half_even(self):
        values = [123456789012.5, 123456789013.5, 999999999999.5, 12345678901.25, 123456789.5]
        assert _formatted(values, 12) == ["%.12g" % v for v in values]
        assert _formatted(values, 9) == ["%.9g" % v for v in values]

    def test_csv_of_tricky_columns_matches_rowwise(self, monkeypatch):
        rng = np.random.default_rng(7)
        rows = 2500
        edge = np.array([0.0, -0.0, 1.0, 9.9999999995, 10.0, 1e9 - 0.5, 123456789012.5,
                         1e12, np.nextafter(1e12, 0), 5e-324, -2.5, np.inf, -np.inf, np.nan,
                         1e-5, 0.999999999999])

        def column(scale):
            col = 10.0 ** rng.uniform(-5, 13, rows) * scale
            col[rng.integers(0, rows, 200)] = rng.choice(edge, 200)
            return col

        trace = SimTrace(
            times=np.cumsum(rng.uniform(0.0, 0.05, rows)),
            norms={1: column(1.0), 2: column(1.0)},
            weights={1: 1.0, 2: 2.5},
            # -1: neither target observed
            observed=rng.integers(-1, 2, rows).astype(np.int32),
            period=1.0, num_periods=2, dt=0.01, switch_times={}, realized_cost=0.0,
            per_target_realized={}, settle_period=1, converged=True,
        )
        monkeypatch.setattr(simulate_module, "CSV_CHUNK_ROWS", 997)
        assert trace_to_csv(trace) == rowwise_trace_csv(trace).encode("ascii")
