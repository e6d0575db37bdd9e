import pytest

from patrolplan.config import PlannerConfig
from patrolplan.covariance import ConvergenceError
from patrolplan.cycles import Cycle, SteadyStateCache, tsp_heuristic
from patrolplan.dwell import (
    PlanningError,
    Plan,
    balance_multi_visit,
    balance_single_visit,
    balance_within_target,
    golden_period_search,
    plan_single_agent,
    random_initial_dwells,
    timeline_from_schedule,
    _visit_costs,
)
from patrolplan.model import TargetSpec, TargetNetwork, generate_random_instance

from oracles import scalar_single_visit_peak


def two_identical_targets(d=1.0, a=0.3):
    return TargetNetwork(
        targets=[TargetSpec(id=k, A=a, Q=1.0, H=1.0, R=1.0) for k in (1, 2)],
        edges=[(1, 2, d)],
    )


class TestTimeline:
    def test_three_instance_pattern(self):
        net, _ = generate_random_instance(2, seed=0)
        d12 = net.travel[1][2]
        cyc = Cycle.from_targets(net, [1, 2, 1])
        a, b, c = 0.3, 0.5, 0.2
        tl = timeline_from_schedule(cyc, [a, b, c])
        # the gap after target 1's first visit spans the other target's dwell
        assert tl[1].t_off[0] == pytest.approx(d12 + b + d12)
        assert tl[1].t_on == [a, c]
        period = sum(tl[1].t_on) + sum(tl[1].t_off)
        assert period == pytest.approx(a + b + c + cyc.travel_time)

    def test_single_target(self):
        net, _ = generate_random_instance(1, seed=0)
        cyc = Cycle.from_targets(net, [1])
        tl = timeline_from_schedule(cyc, [1.7])
        assert tl[1].t_on == [1.7]
        assert tl[1].t_off == [0.0]

    def test_two_target_hand_sum(self):
        net = two_identical_targets(d=1.0)
        cyc = Cycle.from_targets(net, [1, 2])
        tl = timeline_from_schedule(cyc, [0.5, 0.5])
        assert tl[1].t_off[0] == pytest.approx(1 + 0.5 + 1)
        assert tl[1].period() == pytest.approx(3.0)

    def test_every_target_period_matches(self):
        net, _ = generate_random_instance(5, seed=12)
        cyc = Cycle.from_targets(net, [1, 2, 3, 2, 4, 5])
        dwells = [0.1 * (k + 1) if inst.dwell_eligible else 0.0
                  for k, inst in enumerate(cyc.instances)]
        tl = timeline_from_schedule(cyc, dwells)
        period = sum(dwells) + cyc.travel_time
        for t in tl.values():
            assert t.period() == pytest.approx(period, rel=1e-12)

    def test_misaligned_length_rejected(self):
        net, _ = generate_random_instance(2, seed=0)
        cyc = Cycle.from_targets(net, [1, 2])
        with pytest.raises(ValueError):
            timeline_from_schedule(cyc, [0.1])


class TestBalanceSingleVisit:
    def test_symmetric_targets_equal_dwell(self):
        net = two_identical_targets()
        cache = SteadyStateCache(net)
        cyc = Cycle.from_targets(net, [1, 2])
        state = balance_single_visit(cyc, period=3.0, cache=cache)
        assert state.dwells[0] == pytest.approx(state.dwells[1], rel=1e-6)
        assert state.costs[1] == pytest.approx(state.costs[2], rel=1e-5)

    def test_peak_matches_bisection_oracle(self):
        net = two_identical_targets()
        cache = SteadyStateCache(net)
        cyc = Cycle.from_targets(net, [1, 2])
        state = balance_single_visit(cyc, period=3.0, cache=cache)
        t_on = state.dwells[0]
        oracle = scalar_single_visit_peak(0.3, 1.0, 1.0, t_on, 3.0 - t_on)
        assert state.costs[1] == pytest.approx(oracle, rel=1e-6)

    def test_table1_equalization(self, table1_network):
        cache = SteadyStateCache(table1_network)
        cyc = tsp_heuristic(table1_network, table1_network.ids)
        period = 1.5 * cyc.travel_time
        state = balance_single_visit(cyc, period, cache=cache)
        active_costs = [state.costs[t] for t in sorted(state.active)]
        assert len(state.active) == 5  # unstable targets all stay active
        spread = (max(active_costs) - min(active_costs)) / state.g_con
        assert spread <= 1e-5
        # dwell differentiation: noisier targets get more time
        assert len(set(round(d, 6) for d in state.dwells)) > 1

    def test_trace_monotone(self, table1_network):
        cache = SteadyStateCache(table1_network)
        cyc = tsp_heuristic(table1_network, table1_network.ids)
        state = balance_single_visit(cyc, 1.5 * cyc.travel_time, cache=cache)
        for a, b in zip(state.trace[:-1], state.trace[1:]):
            assert b <= a + 1e-9

    def test_period_preserved_every_iteration(self, table1_network):
        cache = SteadyStateCache(table1_network)
        cyc = tsp_heuristic(table1_network, table1_network.ids)
        period = 1.4 * cyc.travel_time
        state = balance_single_visit(cyc, period, cache=cache)
        assert sum(state.dwells) + cyc.travel_time == pytest.approx(period, abs=1e-9)

    def test_stable_cheap_target_goes_inactive(self):
        # one noisy unstable target and one strongly decaying quiet one whose
        # never-observed cost sits below the achievable consensus
        net = TargetNetwork(
            targets=[
                TargetSpec(id=1, A=0.5, Q=2.0, H=1.0, R=2.0),
                TargetSpec(id=2, A=-2.0, Q=0.1, H=1.0, R=1.0),
            ],
            edges=[(1, 2, 0.5)],
        )
        cache = SteadyStateCache(net)
        cyc = Cycle.from_targets(net, [1, 2])
        state = balance_single_visit(cyc, period=2.0, cache=cache)
        assert 2 not in state.active
        assert state.dwells[1] == 0.0
        assert state.costs[2] == pytest.approx(cache.never_observed_cost(2))
        assert state.costs[2] < state.g_con

    def test_uniqueness_from_random_inits(self):
        net, _ = generate_random_instance(4, seed=77)
        cache = SteadyStateCache(net)
        cyc = tsp_heuristic(net, net.ids)
        period = 1.7 * cyc.travel_time
        budget = period - cyc.travel_time
        d1 = random_initial_dwells(cyc, budget, seed=1)
        d2 = random_initial_dwells(cyc, budget, seed=2)
        s1 = balance_single_visit(cyc, period, cache=cache, initial_dwells=d1, tol=1e-8)
        s2 = balance_single_visit(cyc, period, cache=cache, initial_dwells=d2, tol=1e-8)
        for a, b in zip(s1.dwells, s2.dwells):
            assert a == pytest.approx(b, abs=1e-5)

    def test_period_below_travel_rejected(self):
        net = two_identical_targets()
        cyc = Cycle.from_targets(net, [1, 2])
        with pytest.raises(PlanningError):
            balance_single_visit(cyc, period=1.5)  # travel time is 2


class TestBalanceMultiVisit:
    def line3_network(self):
        return TargetNetwork(
            targets=[TargetSpec(id=1, A=0.45, Q=1.4, H=1.0, R=1.0),
                     TargetSpec(id=2, A=0.25, Q=1.0, H=1.0, R=2.0),
                     TargetSpec(id=3, A=0.30, Q=1.2, H=1.0, R=1.5)],
            edges=[(1, 2, 0.4), (2, 3, 0.5)],
        )

    def test_reduces_to_single_visit(self):
        net, _ = generate_random_instance(4, seed=3)
        cache = SteadyStateCache(net)
        cyc = tsp_heuristic(net, net.ids)
        period = 1.6 * cyc.travel_time
        s1 = balance_single_visit(cyc, period, cache=cache)
        s2 = balance_multi_visit(cyc, period, cache=cache)
        for a, b in zip(s1.dwells, s2.dwells):
            assert a == pytest.approx(b, abs=1e-6)
        assert s1.g_con == pytest.approx(s2.g_con, rel=1e-6)

    def test_repeated_visits_equalize_within_target(self):
        net = self.line3_network()
        cache = SteadyStateCache(net)
        cyc = Cycle.from_targets(net, [1, 2, 1, 3])
        period = 2.2 * cyc.travel_time
        state = balance_multi_visit(cyc, period, cache=cache)
        v1 = state.visit_costs[1]
        assert abs(v1[0] - v1[1]) <= 1e-5 * state.g_con
        # across-target consensus too
        spread = max(abs(state.costs[t] - state.g_con) for t in state.active)
        assert spread <= 1e-5 * state.g_con

    def test_period_preserved(self):
        net = self.line3_network()
        cache = SteadyStateCache(net)
        cyc = Cycle.from_targets(net, [1, 2, 1, 3])
        period = 2.0 * cyc.travel_time
        state = balance_multi_visit(cyc, period, cache=cache)
        assert sum(state.dwells) + cyc.travel_time == pytest.approx(period, abs=1e-9)

    def test_within_target_split_oracle(self):
        # two visits with unequal gaps: the converged split equalizes the two
        # peaks; cross-check with a bisection on the split fraction
        net = self.line3_network()
        cache = SteadyStateCache(net)
        cfg = PlannerConfig()
        total = 0.8
        t_off = [1.0, 3.0]
        splits, costs = balance_within_target(
            1, [0.4, 0.4], t_off, [True, True], cache, cfg
        )
        assert sum(splits) == pytest.approx(total, rel=1e-12)
        assert costs[0] == pytest.approx(costs[1], rel=1e-5)
        # bisection oracle on the fraction given to the first visit

        def diff(frac):
            c = _visit_costs(cache, 1, [frac * total, (1 - frac) * total], t_off, cfg.periodic_tol)
            return c[0] - c[1]

        lo, hi = 1e-6, 1 - 1e-6
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            # more dwell at visit 1 lowers peak 2 -> diff increases with frac
            if diff(mid) < 0:
                lo = mid
            else:
                hi = mid
        assert splits[0] / total == pytest.approx(0.5 * (lo + hi), abs=1e-4)

    # Known failures of the within-target split, kept visible until it is
    # mended: each input has a split with equal peaks, but the split stalls.
    @pytest.mark.xfail(strict=True, raises=ConvergenceError,
                       reason="stable, weakly sensed target: the fixed-gain split is too slow")
    def test_split_converges_for_stable_target(self):
        net = TargetNetwork(targets=[TargetSpec(id=1, A=-0.415, Q=0.64, H=1.0, R=7.5)], edges=[])
        splits, costs = balance_within_target(
            1, [0.53, 0.53], [1.79, 2.83], [True, True], SteadyStateCache(net), PlannerConfig()
        )
        assert costs[0] == pytest.approx(costs[1], rel=1e-6)

    @pytest.mark.xfail(strict=True, raises=ConvergenceError,
                       reason="a dwell is paired with the peak of the pass-through after it")
    def test_split_converges_across_pass_through(self):
        net = TargetNetwork(targets=[TargetSpec(id=1, A=0.3, Q=1.0, H=1.0, R=1.0)], edges=[])
        splits, costs = balance_within_target(
            1, [0.3, 0.0, 0.3], [0.5, 0.5, 2.0], [True, False, True],
            SteadyStateCache(net), PlannerConfig(),
        )
        assert costs[0] == pytest.approx(costs[2], rel=1e-6)

    def test_zero_dwell_visit_stays_clamped(self):
        # a pass-through instance can never receive dwell
        net = self.line3_network()
        cache = SteadyStateCache(net)
        cyc = Cycle.from_targets(net, [1, 2, 1, 3])
        state = balance_multi_visit(cyc, 2.0 * cyc.travel_time, cache=cache)
        for pos, inst in enumerate(cyc.instances):
            if not inst.dwell_eligible:
                assert state.dwells[pos] == 0.0


class TestGoldenSearch:
    def test_degenerate_bracket_returns_input(self, table1_network):
        cache = SteadyStateCache(table1_network)
        cyc = tsp_heuristic(table1_network, table1_network.ids)
        t = 1.5 * cyc.travel_time
        t_star, state, probes = golden_period_search(cyc, cache, t_min=t, t_max=t)
        assert t_star == t
        assert len(probes) == 1

    def test_result_is_local_minimum(self):
        net, _ = generate_random_instance(3, seed=15)
        cache = SteadyStateCache(net)
        cyc = tsp_heuristic(net, net.ids)
        t_star, state, _ = golden_period_search(cyc, cache)
        lo = (1 + 0.1) * cyc.travel_time
        hi = 3.0 * cyc.travel_time
        for delta in (-0.01 * t_star, 0.01 * t_star):
            t_probe = t_star + delta
            if not lo <= t_probe <= hi:
                continue
            probe = balance_single_visit(cyc, t_probe, cache=cache)
            assert probe.g_con >= state.g_con - 1e-4 * state.g_con

    def test_bracket_shrinks_monotonically(self, table1_network):
        cache = SteadyStateCache(table1_network)
        cyc = tsp_heuristic(table1_network, table1_network.ids)
        _, _, probes = golden_period_search(cyc, cache)
        assert len(probes) >= 3
        periods = [p for p, _ in probes]
        spans = []
        lo, hi = min(periods), max(periods)
        # probes concentrate in one basin: successive probes stay inside the
        # running min/max bracket
        running_lo, running_hi = periods[0], periods[0]
        for p in periods[1:]:
            running_lo, running_hi = min(running_lo, p), max(running_hi, p)
            spans.append(running_hi - running_lo)
        assert spans[-1] <= (hi - lo) + 1e-12

    def test_rejects_bracket_below_travel(self, table1_network):
        cache = SteadyStateCache(table1_network)
        cyc = tsp_heuristic(table1_network, table1_network.ids)
        with pytest.raises(PlanningError):
            golden_period_search(cyc, cache, t_min=0.5 * cyc.travel_time)


class TestPlanSingleAgent:
    def test_table1_all_active(self, table1_network):
        plan = plan_single_agent(table1_network)
        assert plan.excluded == {}
        assert plan.active == {1, 2, 3, 4, 5}
        assert plan.j_pred == pytest.approx(plan.g_con, rel=1e-5)
        assert plan.metric_value <= plan.j_pred + 1e-9

    def test_stable_extra_target_excluded(self, table1_network):
        targets = list(table1_network.targets) + [
            TargetSpec(id=6, A=-5.0, Q=0.01, H=1.0, R=1.0)
        ]
        edges = list(table1_network.edges)
        for k in range(5):
            edges.append((k + 1, 6, 0.3))
        net = TargetNetwork(targets=targets, edges=edges)
        plan = plan_single_agent(net)
        assert 6 in plan.excluded
        assert 6 not in plan.cycle.target_ids
        # the excluded target's resting cost never constrains the plan
        assert plan.excluded[6] <= plan.g_con

    def test_single_target_plan(self):
        net, _ = generate_random_instance(1, seed=5)
        plan = plan_single_agent(net)
        assert [i.target for i in plan.cycle.instances] == [1]
        cache = SteadyStateCache(net)
        assert plan.j_pred == pytest.approx(cache.steady_cost(1), rel=1e-6)

    def test_plan_document_round_trip(self, table1_network):
        plan = plan_single_agent(table1_network)
        doc = plan.to_document()
        back = Plan.from_document(table1_network, doc)
        assert back.period == plan.period
        assert back.j_pred == plan.j_pred
        assert back.dwells == pytest.approx(plan.dwells)
        assert back.active == plan.active

    def test_metric_floor_below_prediction(self):
        for seed in (30, 31, 32):
            net, _ = generate_random_instance(4, seed=seed)
            plan = plan_single_agent(net)
            assert plan.metric_value <= plan.j_pred + 1e-6
