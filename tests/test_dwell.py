import json
import math
from pathlib import Path

import numpy as np
import pytest

from patrolplan.config import ParamRanges, PlannerConfig
from patrolplan.covariance import ConvergenceError, cov_norm, periodic_steady_state
from patrolplan import dwell
from patrolplan.cycles import Cycle, SteadyStateCache, tsp_heuristic
from patrolplan.dwell import (
    PlanningError,
    Plan,
    balance_level_set,
    balance_multi_visit,
    balance_single_visit,
    balance_within_target,
    golden_period_search,
    plan_single_agent,
    timeline_from_schedule,
    _visit_costs,
)
from patrolplan.model import TargetSpec, TargetNetwork, generate_random_instance, load_instance

from oracles import random_initial_dwells, scalar_single_visit_peak, steady_cost


INSTANCES = Path(__file__).resolve().parents[1] / "instances"


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

    def test_back_to_back_visits_have_a_zero_gap(self):
        # a zero-length leg joins target 1's two visits; taken as a
        # difference of prefix sums less the dwell of 0.3, that gap would
        # come out at -1.7e-16
        net, _ = generate_random_instance(2, seed=0)
        cyc = Cycle.from_targets(net, [2, 1, 1])
        tl = timeline_from_schedule(cyc, [3.3, 0.3, 0.1])
        assert tl[1].t_off[0] == 0.0

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


@pytest.mark.parametrize("balance", [balance_level_set, balance_multi_visit])
@pytest.mark.parametrize("period", [1.5, 2.0])   # the travel time is 2
def test_period_at_or_below_travel_rejected(balance, period):
    cyc = Cycle.from_targets(two_identical_targets(), [1, 2])
    with pytest.raises(PlanningError, match="does not exceed the travel time"):
        balance(cyc, period)


class TestVisitCosts:
    @pytest.mark.parametrize("tid", [2, 3])   # stable, unstable
    def test_never_observed_scalar_sits_at_its_never_cost(self, tid):
        net, _ = generate_random_instance(4, 3, ParamRanges(stable_fraction=0.5))
        cache = SteadyStateCache(net)
        never = cache.never_observed_cost(tid)
        assert math.isfinite(never) == (tid == 2)
        assert _visit_costs(cache, tid, [0.0, 0.0], [1.0, 2.0]) == [never, never]

    @pytest.mark.parametrize("tid", [1, 2])   # stable, unstable
    def test_never_observed_matrix_sits_at_its_never_cost(self, tid):
        net, _ = load_instance(json.loads((INSTANCES / "duo2x2.json").read_text()))
        cache = SteadyStateCache(net)
        never = cache.never_observed_cost(tid)
        assert math.isfinite(never) == (tid == 1)
        assert _visit_costs(cache, tid, [0.0], [1.0]) == [never]


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
        total = 0.8
        t_off = [1.0, 3.0]
        splits, costs = balance_within_target(1, [0.4, 0.4], t_off, [True, True], cache)
        assert sum(splits) == pytest.approx(total, rel=1e-12)
        assert costs[0] == pytest.approx(costs[1], rel=1e-5)
        # bisection oracle on the fraction given to the first visit

        def diff(frac):
            c = _visit_costs(cache, 1, [frac * total, (1 - frac) * total], t_off)
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

    def test_split_converges_for_stable_target(self):
        net = TargetNetwork(targets=[TargetSpec(id=1, A=-0.415, Q=0.64, H=1.0, R=7.5)], edges=[])
        splits, costs = balance_within_target(
            1, [0.53, 0.53], [1.79, 2.83], [True, True], SteadyStateCache(net)
        )
        assert costs[0] == pytest.approx(costs[1], rel=1e-6)

    def test_split_converges_across_pass_through(self):
        net = TargetNetwork(targets=[TargetSpec(id=1, A=0.3, Q=1.0, H=1.0, R=1.0)], edges=[])
        splits, costs = balance_within_target(
            1, [0.3, 0.0, 0.3], [0.5, 0.5, 2.0], [True, False, True], SteadyStateCache(net)
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

    def test_probes_stay_in_bracket_and_result_is_cheapest(self, table1_network):
        cache = SteadyStateCache(table1_network)
        cyc = tsp_heuristic(table1_network, table1_network.ids)
        t_star, state, probes = golden_period_search(cyc, cache)
        lo = (1 + dwell.BRACKET_LOW) * cyc.travel_time
        hi = dwell.BRACKET_HIGH * cyc.travel_time
        assert len(probes) >= 3
        assert all(lo <= period <= hi for period, _ in probes)
        assert (t_star, state.g_con) == min(probes, key=lambda probe: probe[1])
        assert state.period == t_star

    def test_table1_search_takes_at_most_ten_probes(self, table1_network):
        # golden section took 15
        cyc = tsp_heuristic(table1_network, table1_network.ids)
        _, _, probes = golden_period_search(cyc, SteadyStateCache(table1_network))
        assert len(probes) <= 10

    def test_duo2x2_optimum_is_the_bracket_end(self):
        net, _ = load_instance(json.loads((INSTANCES / "duo2x2.json").read_text()))
        cyc = tsp_heuristic(net, net.ids)
        t_star, state, probes = golden_period_search(cyc, SteadyStateCache(net))
        assert t_star == dwell.BRACKET_HIGH * cyc.travel_time
        assert state.g_con == min(cost for _, cost in probes)

    def test_travel_free_target_keeps_the_flat_midpoint(self):
        # the cost of a lone target without travel does not depend on the
        # period: the first two probes agree and the midpoint is returned
        net = TargetNetwork(targets=[TargetSpec(id=1, A=0.3, Q=1.0, H=1.0, R=1.0)], edges=[])
        cyc = Cycle.from_targets(net, [1])
        t_star, state, probes = golden_period_search(cyc, SteadyStateCache(net))
        assert len(probes) == 3
        assert t_star == state.period == 2.0

    @staticmethod
    def refuse_periods(monkeypatch, refused):
        """Make ``balance_level_set`` raise at the periods ``refused`` admits,
        numbering its errors from 1."""
        balance = dwell.balance_level_set
        errors = []

        def balance_or_refuse(cycle, period, *args, **kwargs):
            if refused(period):
                errors.append(period)
                raise ConvergenceError(f"refused probe {len(errors)}", math.nan)
            return balance(cycle, period, *args, **kwargs)
        monkeypatch.setattr(dwell, "balance_level_set", balance_or_refuse)

    def test_infeasible_probe_costs_inf(self, table1_network, monkeypatch):
        cache = SteadyStateCache(table1_network)
        cyc = tsp_heuristic(table1_network, table1_network.ids)
        _, _, clean = golden_period_search(cyc, cache)
        refused = clean[2][0]   # Brent's first step, the same with a probe refused
        self.refuse_periods(monkeypatch, lambda period: period == refused)
        t_star, state, probes = golden_period_search(cyc, cache)
        assert (refused, math.inf) in probes
        finite = [probe for probe in probes if math.isfinite(probe[1])]
        assert (t_star, state.g_con) == min(finite, key=lambda probe: probe[1])
        assert state.period == t_star

    def test_no_balanced_probe_raises_the_first_error(self, table1_network, monkeypatch):
        self.refuse_periods(monkeypatch, lambda period: True)
        cyc = tsp_heuristic(table1_network, table1_network.ids)
        with pytest.raises(ConvergenceError, match="refused probe 1 "):
            golden_period_search(cyc, SteadyStateCache(table1_network))

    def test_an_infeasible_first_probe_is_not_a_flat_cost(self, monkeypatch):
        # the lone travel-free target's cost is flat, but with its first
        # probe infeasible the two probes do not agree: no midpoint
        net = TargetNetwork(targets=[TargetSpec(id=1, A=0.3, Q=1.0, H=1.0, R=1.0)], edges=[])
        cyc = Cycle.from_targets(net, [1])
        first = 3.0 - 2.0 / dwell.GOLDEN_RATIO
        self.refuse_periods(monkeypatch, lambda period: period == first)
        t_star, state, probes = golden_period_search(cyc, SteadyStateCache(net))
        assert probes[0] == (first, math.inf)
        assert len(probes) > 3 and 2.0 not in [period for period, _ in probes]
        assert (t_star, state.g_con) in probes[1:]


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
        assert plan.j_pred == pytest.approx(steady_cost(cache, 1), rel=1e-6)

    def test_plan_document_round_trip(self, table1_network):
        plan = plan_single_agent(table1_network)
        doc = plan.to_document()
        back = Plan.from_document(table1_network, doc)
        assert back.period == plan.period
        assert back.j_pred == plan.j_pred
        assert back.dwells == pytest.approx(plan.dwells)
        assert back.active == plan.active

    @staticmethod
    def far_apart_unstable(d):
        """Five unstable targets (A = 0.5) on a complete graph with legs
        ``d (1 + 0.1 |i - j|)``: periods in the upper half of the bracket
        overflow every peak."""
        return TargetNetwork(
            targets=[TargetSpec(id=k, A=0.5, Q=1.0, H=1.0, R=1.0) for k in range(1, 6)],
            edges=[(i, j, d * (1 + 0.1 * (j - i))) for i in range(1, 6) for j in range(i + 1, 6)],
        )

    def test_far_apart_unstable_targets_plan_below_the_overflow(self):
        net = self.far_apart_unstable(60.0)
        plan = plan_single_agent(net, SteadyStateCache(net))
        assert math.isfinite(plan.j_pred) and plan.metric_value <= plan.j_pred
        assert math.inf in [cost for _, cost in plan.search_probes]
        assert plan.period == pytest.approx((1.0 + dwell.BRACKET_LOW) * plan.cycle.travel_time,
                                            rel=1e-3)
        assert_plan_consistent(plan)

    def test_every_probe_overflowing_is_a_convergence_error(self):
        # the optimum, near the bracket's low end, is about 1e273, but every
        # probe the search makes overflows
        net = self.far_apart_unstable(100.0)
        with pytest.raises(ConvergenceError):
            plan_single_agent(net, SteadyStateCache(net))

    def test_metric_floor_below_prediction(self):
        for seed in (30, 31, 32):
            net, _ = generate_random_instance(4, seed=seed)
            plan = plan_single_agent(net)
            assert plan.metric_value <= plan.j_pred + 1e-6


def assert_plan_consistent(plan):
    """The period is the travel time plus the dwells, the active peaks meet
    at ``g_con``, and each active cost matches a fresh fixed point on the
    plan's own timeline."""
    assert plan.cycle.travel_time + sum(plan.dwells) == pytest.approx(plan.period, rel=1e-9)
    timelines = timeline_from_schedule(plan.cycle, plan.dwells)
    for tid in plan.active:
        assert plan.costs[tid] == pytest.approx(plan.g_con, rel=1e-4)
        spec = plan.cycle.network.target(tid)
        tl = timelines[tid]
        peaks = periodic_steady_state(spec.A, spec.Q, spec.G, tl.t_on, tl.t_off)
        fresh = max(spec.g(cov_norm(u)) for u in peaks.upper)
        assert plan.costs[tid] == pytest.approx(fresh, rel=1e-6)


def refuse_consensus(monkeypatch):
    """Make any call of the consensus law fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("the consensus law ran")
    monkeypatch.setattr(dwell, "balance_multi_visit", refuse)
    monkeypatch.setattr(dwell, "balance_within_target", refuse)


def assert_level_set_balanced(state, period):
    """The dwells fill the budget and every eligible visit peak of an active
    target lies within a tenth of ``balance_tol`` of ``g_con``."""
    cyc = state.cycle
    tol = 0.1 * PlannerConfig().balance_tol
    assert sum(state.dwells) == pytest.approx(period - cyc.travel_time, rel=1e-12)
    for tid in state.active:
        assert abs(state.costs[tid] - state.g_con) <= tol * state.g_con
        if len(state.visit_costs[tid]) > 1:
            for pos, cost in zip(cyc.positions_of(tid), state.visit_costs[tid]):
                if cyc.instances[pos].dwell_eligible:
                    assert abs(cost - state.g_con) <= tol * state.g_con


class TestBalanceLevelSet:
    def test_matches_consensus(self, table1_network):
        cache = SteadyStateCache(table1_network)
        cyc = tsp_heuristic(table1_network, table1_network.ids)
        period = 1.5 * cyc.travel_time
        level = balance_level_set(cyc, period, cache)
        consensus = balance_multi_visit(cyc, period, cache, tol=1e-8)
        assert level.active == consensus.active
        assert level.g_con == pytest.approx(consensus.g_con, rel=1e-6)
        assert sum(level.dwells) == pytest.approx(period - cyc.travel_time, rel=1e-12)
        for a, b in zip(level.trace[:-1], level.trace[1:]):
            assert b <= a

    def test_cheap_target_goes_inactive(self):
        net = TargetNetwork(
            targets=[
                TargetSpec(id=1, A=0.5, Q=2.0, H=1.0, R=2.0),
                TargetSpec(id=2, A=-2.0, Q=0.1, H=1.0, R=1.0),
            ],
            edges=[(1, 2, 0.5)],
        )
        cache = SteadyStateCache(net)
        state = balance_level_set(Cycle.from_targets(net, [1, 2]), 2.0, cache)
        assert state.active == {1}
        assert state.dwells[1] == 0.0
        assert state.costs[2] == cache.never_observed_cost(2) < state.g_con

    @pytest.mark.parametrize("name", ["table1", "line3", "random-n20"])
    def test_single_slot_cycles_stay_off_numpy_solve(self, monkeypatch, name):
        # with no multi-slot target every Newton step is closed form; routing
        # these cycles through a linear solve makes single-agent planning
        # about twice as slow
        if name.startswith("random"):
            net, _ = generate_random_instance(20, 1)
        else:
            net, _ = load_instance(json.loads((INSTANCES / f"{name}.json").read_text()))

        def refuse(*args, **kwargs):
            raise AssertionError("a single-slot cycle left the closed-form step")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        plan = plan_single_agent(net, SteadyStateCache(net))
        assert all(len(positions) == 1 for positions in plan.cycle.eligible.values())
        assert plan.active

    def test_tiny_balanced_dwell(self):
        # target 3 balances on a dwell of about 4e-5; the consensus law stalls
        # here (spread 1e-5 after its 50,000 sweeps), the level set does not
        specs = [(1, 0.486257, 0.684616, 5.332936), (2, -0.074021, 1.445794, 2.405802),
                 (3, 0.0, 0.4, 3.108482), (4, 0.012487, 1.8, 2.00001),
                 (5, -0.002908, 1.0, 4.331333), (6, 0.417994, 0.939283, 5.976861)]
        order = [4, 6, 2, 1, 5, 3]
        legs = [0.409834, 0.393422, 0.526865, 0.526865, 0.526865, 0.569078]
        net = TargetNetwork(
            targets=[TargetSpec(id=i, A=a, Q=q, H=1.0, R=r) for i, a, q, r in specs],
            edges=[(order[k], order[(k + 1) % 6], legs[k]) for k in range(6)],
        )
        cache = SteadyStateCache(net)
        cyc = Cycle.from_targets(net, order)
        period = 1.893224 * cyc.travel_time
        state = balance_level_set(cyc, period, cache)
        assert state.active == {1, 3, 4, 6}
        assert 0.0 < state.dwells[cyc.positions_of(3)[0]] < 1e-4
        spread = max(abs(state.costs[t] - state.g_con) for t in state.active) / state.g_con
        assert spread <= 0.1 * PlannerConfig().balance_tol
        confirmed = balance_multi_visit(cyc, period, cache, initial_dwells=state.dwells, tol=1e-8)
        assert confirmed.iterations == 1

    @pytest.mark.parametrize("order", [[1, 2, 3], [1, 2, 1, 3]], ids=["one-slot", "two-slot"])
    def test_subnormal_initial_dwell(self, order):
        # -FD_STEP * 5e-324 rounds to -0.0; a slope over that step divided by
        # zero, so the start must end balanced or in the engine's own error
        net = TargetNetwork(
            targets=[TargetSpec(id=1, A=-0.5, Q=1.0, H=1.0, R=1.0),
                     TargetSpec(id=2, A=0.2, Q=1.0, H=1.0, R=2.0),
                     TargetSpec(id=3, A=0.25, Q=0.8, H=1.0, R=3.0)],
            edges=[(1, 2, 0.5), (2, 3, 0.5), (1, 3, 0.5)],
        )
        cyc = Cycle.from_targets(net, order)
        period = cyc.travel_time + 4.0
        initial = [5e-324] + [2.0] * (len(order) - 1)
        try:
            state = balance_level_set(cyc, period, SteadyStateCache(net), initial_dwells=initial)
        except ConvergenceError:
            return
        assert_level_set_balanced(state, period)

    def test_two_dwell_slots_match_consensus(self, monkeypatch):
        net, _ = generate_random_instance(3, seed=2)
        cache = SteadyStateCache(net)
        cyc = Cycle.from_targets(net, [1, 2, 1, 3])
        period = 2.0 * cyc.travel_time
        consensus = balance_multi_visit(cyc, period, cache, tol=1e-8)
        refuse_consensus(monkeypatch)
        level = balance_level_set(cyc, period, cache)
        assert level.active == consensus.active
        assert level.g_con == pytest.approx(consensus.g_con, rel=1e-6)
        assert level.visit_costs[1] == pytest.approx(consensus.visit_costs[1], rel=1e-6)
        assert level.dwells == pytest.approx(consensus.dwells, rel=1e-4)
        assert_level_set_balanced(level, period)

    def test_pass_through_between_dwell_slots(self, monkeypatch):
        # target 1 dwells at positions 0 and 4 and is passed through at 2
        net = TargetNetwork(
            targets=[TargetSpec(id=1, A=0.3, Q=1.0, H=1.0, R=1.0),
                     TargetSpec(id=2, A=0.2, Q=1.0, H=1.0, R=2.0),
                     TargetSpec(id=3, A=0.25, Q=0.8, H=1.0, R=3.0),
                     TargetSpec(id=4, A=0.1, Q=1.2, H=1.0, R=2.0)],
            edges=[(i, j, 0.25) for i in range(1, 5) for j in range(i + 1, 5)],
        )
        cache = SteadyStateCache(net)
        cyc = Cycle(net, [(1, True), (2, True), (1, False), (3, True), (1, True), (4, True)])
        period = 2.0 * cyc.travel_time
        consensus = balance_multi_visit(cyc, period, cache)
        with monkeypatch.context() as patch:
            refuse_consensus(patch)
            state = balance_level_set(cyc, period, cache)
        assert state.active == consensus.active == {1, 2, 3, 4}
        assert state.g_con == pytest.approx(consensus.g_con, rel=1e-6)
        assert_level_set_balanced(state, period)
        # the consensus law accepts the result as its own fixed point
        confirmed = balance_multi_visit(cyc, period, cache, initial_dwells=state.dwells)
        assert confirmed.iterations == 1

    def test_stable_weakly_sensed_repeated_target(self, monkeypatch):
        # target 1 (A = -0.415, G = 0.133) dwells twice: a stable, weakly
        # sensed target
        weak = TargetSpec(id=1, A=-0.415, Q=0.64, H=1.0, R=7.5)
        others = [TargetSpec(id=k, A=-0.2, Q=0.5, H=1.0, R=0.5) for k in (2, 3)]
        net = TargetNetwork(targets=[weak, *others], edges=[(1, 2, 0.05), (1, 3, 0.15)])
        cache = SteadyStateCache(net)
        cyc = Cycle(net, [(1, True), (2, True), (1, True), (3, True)])
        period = 2.5 * cyc.travel_time
        consensus = balance_multi_visit(cyc, period, cache, tol=1e-8)
        refuse_consensus(monkeypatch)
        state = balance_level_set(cyc, period, cache)
        assert state.active == consensus.active == {1, 2, 3}
        assert state.g_con == pytest.approx(consensus.g_con, rel=1e-6)
        assert_level_set_balanced(state, period)

    @pytest.mark.parametrize("a", [20.0, 40.0, 80.0])
    def test_fast_diverging_line3_plans(self, a):
        # line3 with target 1 made fast-diverging: the optimum is finite, but
        # the consensus law stalls on it; at A = 80 a probe needs about 190
        # Newton steps
        doc = json.loads((INSTANCES / "line3.json").read_text(encoding="utf-8"))
        doc["targets"][0]["A"] = a
        network, _ = load_instance(doc)
        plan = plan_single_agent(network, SteadyStateCache(network), PlannerConfig())
        assert 1 in plan.active
        assert_plan_consistent(plan)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ring_with_chord_plans(self, seed):
        base, _ = generate_random_instance(12, seed)
        edges = [(k, k % 12 + 1, 1.0) for k in range(1, 13)] + [(1, 7, 1.0)]
        network = TargetNetwork(targets=list(base.targets), edges=edges)
        plan = plan_single_agent(network, SteadyStateCache(network))
        assert plan.active | set(plan.excluded) == set(network.ids)
        assert_plan_consistent(plan)
