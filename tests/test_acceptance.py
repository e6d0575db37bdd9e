"""Acceptance suite: every release gate in one module.

Each test prints one PASS line with its measured margins (run with ``-s`` to
see them).  Expected values come from independent oracles (closed forms,
fixed-step RK4, bisection, brute-force enumeration), never from the code
paths under test.
"""

import math
import time

import numpy as np
import pytest

from patrolplan.config import ParamRanges, PlannerConfig
from patrolplan.cycles import Cycle, SteadyStateCache, cycle_lower_bound, tsp_heuristic, greedy_construct
from patrolplan.dwell import (
    balance_single_visit,
    golden_period_search,
    plan_single_agent,
)
from patrolplan.fleet import plan_fleet, tes_refine
from patrolplan.model import generate_random_instance, load_instance_file
from patrolplan.simulate import simulate, validate

from conftest import build_table1_network
from oracles import (
    enumerate_cycles,
    fleet_partition,
    golden_section_search,
    propagate_observed,
    propagate_unobserved,
    random_initial_dwells,
    rk4_propagate_batch,
    scalar_observed,
    scalar_unobserved,
    shortest_path_disparity,
    stepwise_simulate,
    tightly_periodic,
)

INSTANCE_DIR = __file__.rsplit("/", 2)[0] + "/instances"

FLEET_RANGES = ParamRanges(a=(0.25, 0.40), q=(0.8, 1.4), r=(3.0, 5.5))
FLEET_SEEDS = [9100 + k for k in range(50)]


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------

def test_criterion_01_scalar_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(-0.8, 0.8)
        q = rng.uniform(0.2, 2.0)
        g = rng.uniform(0.1, 1.0)
        w0 = rng.uniform(0.05, 5.0)
        t = rng.uniform(0.05, 2.5)
        got_u = propagate_unobserved([[w0]], [[a]], [[q]], t)[0, 0]
        exp_u = scalar_unobserved(a, q, w0, t)
        got_o = propagate_observed([[w0]], [[a]], [[q]], [[g]], t)[0, 0]
        exp_o = scalar_observed(a, q, g, w0, t)
        worst = max(worst,
                    abs(got_u - exp_u) / abs(exp_u),
                    abs(got_o - exp_o) / abs(exp_o))
    elapsed = time.time() - t0
    report(1, worst <= 1e-7 and elapsed < 5.0,
           f"100 scalar targets, worst relative error {worst:.2e} (<=1e-7), {elapsed:.2f}s (<5s)")


def test_criterion_02_matrix_oracle_equivalence():
    rng = np.random.default_rng(202)
    t, h = 0.3, 1e-5
    worst = 0.0
    for dim in (2, 3):
        n = 10
        A = rng.normal(0.0, 0.5, size=(n, dim, dim))
        B = rng.normal(0.0, 0.6, size=(n, dim, dim))
        Q = B @ B.transpose(0, 2, 1) + 0.3 * np.eye(dim)
        C = rng.normal(0.0, 0.5, size=(n, dim, dim))
        R = C @ C.transpose(0, 2, 1) + 0.5 * np.eye(dim)
        H = np.eye(dim) + 0.2 * rng.normal(size=(n, dim, dim))
        G = H.transpose(0, 2, 1) @ np.linalg.inv(R) @ H
        W0 = np.stack([np.eye(dim) * rng.uniform(0.5, 3.0) for _ in range(n)])
        ref_u = rk4_propagate_batch(W0, A, Q, None, t, h)
        ref_o = rk4_propagate_batch(W0, A, Q, G, t, h)
        for k in range(n):
            got_u = propagate_unobserved(W0[k], A[k], Q[k], t)
            got_o = propagate_observed(W0[k], A[k], Q[k], G[k], t)
            worst = max(
                worst,
                abs(np.trace(got_u) - np.trace(ref_u[k])) / abs(np.trace(ref_u[k])),
                abs(np.trace(got_o) - np.trace(ref_o[k])) / abs(np.trace(ref_o[k])),
            )
    report(2, worst <= 1e-6,
           f"20 matrix targets vs RK4(h=1e-5), worst relative trace error {worst:.2e} (<=1e-6)")


def test_criterion_03_peak_equalization():
    networks = [build_table1_network()]
    for seed in range(20):
        net, _ = generate_random_instance(5, seed=3300 + seed)
        networks.append(net)
    worst_spread = 0.0
    worst_bump = 0.0
    worst_time = 0.0
    for net in networks:
        cache = SteadyStateCache(net)
        cyc = tsp_heuristic(net, net.ids)
        t0 = time.time()
        state = balance_single_visit(cyc, 1.5 * cyc.travel_time, cache=cache)
        worst_time = max(worst_time, time.time() - t0)
        active = [state.costs[t] for t in sorted(state.active)]
        worst_spread = max(worst_spread, (max(active) - min(active)) / state.g_con)
        for a, b in zip(state.trace[:-1], state.trace[1:]):
            worst_bump = max(worst_bump, b - a)
    report(3, worst_spread <= 1e-5 and worst_bump <= 1e-9 and worst_time < 10.0,
           f"21 instances: active-peak spread {worst_spread:.2e} (<=1e-5), "
           f"worst trace increase {worst_bump:.2e} (<=1e-9), slowest {worst_time:.2f}s (<10s)")


def test_criterion_04_unique_balance():
    worst = 0.0
    for seed in range(20):
        net, _ = generate_random_instance(4, seed=4400 + seed)
        cache = SteadyStateCache(net)
        cyc = tsp_heuristic(net, net.ids)
        period = 1.7 * cyc.travel_time
        budget = period - cyc.travel_time
        s1 = balance_single_visit(cyc, period, cache=cache, tol=1e-8,
                                  initial_dwells=random_initial_dwells(cyc, budget, seed=1))
        s2 = balance_single_visit(cyc, period, cache=cache, tol=1e-8,
                                  initial_dwells=random_initial_dwells(cyc, budget, seed=2))
        worst = max(worst, max(abs(a - b) for a, b in zip(s1.dwells, s2.dwells)))
    report(4, worst <= 1e-4,
           f"20 instances, two random starts: worst dwell-vector gap {worst:.2e} (<=1e-4)")


def test_criterion_05_peak_monotonicity():
    rng = np.random.default_rng(55)
    eps = 1e-4
    margin_ok = True
    worst_margin = math.inf
    for case in range(20):
        dim = 2 if case >= 15 else 1
        n_visits = int(rng.integers(2, 4))
        t_on = [float(rng.uniform(0.2, 0.8)) for _ in range(n_visits)]
        t_off = [float(rng.uniform(0.5, 2.0)) for _ in range(n_visits)]
        if dim == 1:
            a = np.array([[rng.uniform(0.05, 0.5)]])
            q = np.array([[rng.uniform(0.4, 1.5)]])
            g = np.array([[rng.uniform(0.15, 0.6)]])
        else:
            a = rng.normal(0.0, 0.4, size=(2, 2))
            b = rng.normal(0.0, 0.6, size=(2, 2))
            q = b @ b.T + 0.3 * np.eye(2)
            h = np.eye(2) + 0.2 * rng.normal(size=(2, 2))
            c = rng.normal(0.0, 0.5, size=(2, 2))
            r = c @ c.T + 0.8 * np.eye(2)
            g = h.T @ np.linalg.solve(r, h)
        base = tightly_periodic(a, q, g, t_on, t_off, tol=1e-13)
        for m in range(n_visits):
            up = [v + (eps if k == m else 0.0) for k, v in enumerate(t_on)]
            more_on = tightly_periodic(a, q, g, up, t_off, tol=1e-13)
            off_up = [v + (eps if k == m else 0.0) for k, v in enumerate(t_off)]
            more_off = tightly_periodic(a, q, g, t_on, off_up, tol=1e-13)
            for k in range(n_visits):
                d_on = more_on.upper[k] - base.upper[k]
                d_off = more_off.upper[k] - base.upper[k]
                lam_on = float(np.linalg.eigvalsh(d_on).max())
                lam_off = float(np.linalg.eigvalsh(d_off).min())
                worst_margin = min(worst_margin, -lam_on, lam_off)
                if not (lam_on < -1e-8 and lam_off > 1e-8):
                    margin_ok = False
    report(5, margin_ok,
           f"20 timelines: every peak falls with dwell and rises with gap; "
           f"smallest eigenvalue margin {worst_margin:.2e} (>1e-8)")


def test_criterion_06_unimodality_and_golden_search():
    ranges = ParamRanges(a=(0.1, 0.5), q=(0.5, 1.5), r=(2.0, 6.0), box=0.3)
    tol = PlannerConfig().balance_tol
    worst_step = -math.inf
    worst_period_err = 0.0
    worst_value_err = 0.0
    worst_excess = -math.inf
    for seed in range(20):
        net, _ = generate_random_instance(3, seed=8000 + seed, param_ranges=ranges)
        cache = SteadyStateCache(net)
        cyc = tsp_heuristic(net, net.ids)
        lo, hi = 1.1 * cyc.travel_time, 3.0 * cyc.travel_time
        periods = np.linspace(lo, hi, 50)
        warm = None
        values = []
        for T in periods:
            st = balance_single_visit(cyc, float(T), cache=cache, initial_dwells=warm)
            warm = st.dwells
            values.append(st.g_con)
        values = np.array(values)
        m = int(values.argmin())
        for k in range(m):
            worst_step = max(worst_step, values[k + 1] - values[k])
        for k in range(m, 49):
            worst_step = max(worst_step, values[k] - values[k + 1])
        t_star, state, _ = golden_period_search(cyc, cache)
        _, reference, _ = golden_section_search(cyc, cache)
        worst_period_err = max(worst_period_err, abs(t_star - periods[m]) / periods[m])
        worst_value_err = max(worst_value_err, abs(state.g_con - values[m]) / values[m])
        worst_excess = max(worst_excess, state.g_con / reference.g_con - 1.0)
    ok = (worst_step <= 1e-6 and worst_period_err <= 0.01 and worst_value_err <= 1e-4
          and worst_excess <= tol)
    report(6, ok,
           f"20 scalar instances: unimodality violation {worst_step:.2e} (<=1e-6), "
           f"period error {worst_period_err:.3%} (<=1%), value error {worst_value_err:.2e} "
           f"(<=1e-4 rel), cost over golden section {worst_excess:.2e} (<={tol:.0e} rel)")


def test_criterion_07_lower_bound_never_exceeded():
    worst_violation = -math.inf
    for seed in range(50):
        net, _ = generate_random_instance(4, seed=7700 + seed)
        cache = SteadyStateCache(net)
        plan = plan_single_agent(net, cache)
        trace = simulate(plan, net, cache=cache, num_periods=4)
        worst_violation = max(worst_violation, plan.metric_value - trace.realized_cost)
    report(7, worst_violation <= 1e-6,
           f"50 plans: max (cost floor - realized cost) = {worst_violation:.2e} (<=1e-6)")


def test_criterion_08_greedy_cycle_improvement():
    t0 = time.time()
    strict = 0
    gaps = []
    for k, seed in enumerate(range(50)):
        n = 6 + k % 5
        net, _ = generate_random_instance(n, seed=1000 + seed)
        cache = SteadyStateCache(net)
        seed_metric = cycle_lower_bound(tsp_heuristic(net, net.ids), cache)
        _, metric, _ = greedy_construct(net, net.ids, cache)
        assert metric.value <= seed_metric.value + 1e-12
        if metric.value < seed_metric.value * (1 - 1e-9):
            strict += 1
        if n == 6:
            best = math.inf
            for seq in enumerate_cycles(net.ids, 8):
                cand = Cycle.from_targets(net, list(seq))
                best = min(best, cycle_lower_bound(cand, cache).value)
            # signed gap; negative means the greedy's longer cycle beat every
            # enumerated cycle of up to eight visits (no hard bound claimed)
            gaps.append((metric.value - best) / best)
    elapsed = time.time() - t0
    ok = strict >= 15 and elapsed < 60.0
    report(8, ok,
           f"greedy <= tour seed on 50/50, strictly better on {strict}/50 (>=15); "
           f"gap vs length-8 enumeration over {len(gaps)} six-target instances: "
           f"mean {np.mean(gaps):+.2%}, min {min(gaps):+.2%}, max {max(gaps):+.2%}; "
           f"total {elapsed:.1f}s (<60s)")


@pytest.fixture(scope="module")
def fleet_results():
    """Both clustering arms, refined, for the 50 fleet instances."""
    results = []
    for seed in FLEET_SEEDS:
        net, _ = generate_random_instance(15, seed=seed, param_ranges=FLEET_RANGES)
        cache = SteadyStateCache(net)
        ccc0 = fleet_partition(net, 3, cache, refine=False)
        ccc = tes_refine(ccc0, cache)
        sp0 = fleet_partition(net, 3, cache, disparity=shortest_path_disparity, refine=False)
        sp = tes_refine(sp0, cache)
        results.append((ccc0, ccc, sp0, sp))
    return results


def test_criterion_09_clustering_ablation(fleet_results):
    wins = sum(
        ccc.fleet_metric <= sp.fleet_metric + 1e-9
        for _, ccc, _, sp in fleet_results
    )
    report(9, wins >= 40,
           f"covering-cycle disparity <= shortest-path disparity on {wins}/50 instances (>=40)")


def test_criterion_10_target_exchanges(fleet_results):
    strict = 0
    never_worse = True
    ratio_ok = True
    commits_ok = True
    for ccc0, ccc, _, _ in fleet_results:
        if ccc.fleet_metric > ccc0.fleet_metric + 1e-12:
            never_worse = False
        if ccc.fleet_metric < ccc0.fleet_metric * (1 - 1e-9):
            strict += 1
        if ccc.metric_ratio > ccc0.metric_ratio * (1 + 1e-9):
            ratio_ok = False
        if len(ccc.tes_log) > 50:
            commits_ok = False
        for entry in ccc.tes_log:
            if entry["fleet_metric_after"] > entry["fleet_metric_before"] * (1 + 1e-12):
                never_worse = False
    ok = never_worse and strict >= 20 and ratio_ok and commits_ok
    report(10, ok,
           f"target exchanges: never worse, strict improvement on {strict}/50 (>=20), "
           f"max/min cluster ratio never ends higher, <=50 commits each")


def _bundled_single_agent_plans():
    plans = []
    for name in ("table1.json", "line3.json", "duo2x2.json"):
        net, _ = load_instance_file(f"{INSTANCE_DIR}/{name}")
        cache = SteadyStateCache(net)
        plans.append((name, net, cache, plan_single_agent(net, cache)))
    return plans


@pytest.fixture(scope="module")
def bundled_runs():
    """Plan + 20-period simulation for every bundled instance (fleet one per cluster)."""
    runs = []
    for name, net, cache, plan in _bundled_single_agent_plans():
        trace = simulate(plan, net, cache=cache)
        runs.append((name, net, cache, plan, trace))
    net, fleet = load_instance_file(f"{INSTANCE_DIR}/fleet15.json")
    cache = SteadyStateCache(net)
    partition = plan_fleet(net, fleet.num_agents, cache=cache)
    for k, plan in enumerate(partition.plans):
        trace = simulate(plan, plan.cycle.network)
        runs.append((f"fleet15/agent{k + 1}", plan.cycle.network, cache, plan, trace))
    return runs


def test_criterion_11_end_to_end_consistency(bundled_runs):
    worst_rel = 0.0
    worst_offset_ratio = 0.0
    for name, net, cache, plan, trace in bundled_runs:
        rep = validate(plan, trace)
        worst_rel = max(worst_rel, rep["relative_error"])
        if rep["peak_switch_offsets"]:
            worst_offset_ratio = max(
                worst_offset_ratio, rep["max_peak_switch_offset"] / trace.dt
            )
    ok = worst_rel <= 1e-4 and worst_offset_ratio <= 1.0 + 1e-9
    report(11, ok,
           f"{len(bundled_runs)} bundled plans over 20 periods: "
           f"worst |realized-predicted| {worst_rel:.2e} rel (<=1e-4); "
           f"worst peak-to-switch offset {worst_offset_ratio:.3f} dt (<=1 dt)")


def test_criterion_12_steady_state_sandwich(bundled_runs):
    rng = np.random.default_rng(1212)
    checked = 0
    min_lower_margin = math.inf
    min_upper_margin = math.inf
    for name, net, cache, plan, trace in bundled_runs:
        from patrolplan.dwell import timeline_from_schedule

        # every 25th covariance of the same run, from the per-sample oracle
        _, states = stepwise_simulate(plan, net, num_periods=trace.num_periods, record_states=25)
        timelines = timeline_from_schedule(plan.cycle, plan.dwells)
        for target in net.targets:
            tid = target.id
            tl = timelines.get(tid)
            if tl is None or sum(tl.t_on) <= 1e-12 or sum(tl.t_off) <= 1e-12:
                continue  # partial observation only
            ss = cache.steady(tid)
            dim = target.dim
            dirs = rng.normal(size=(200, dim))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            samples = [w for t, w in states[tid] if t >= trace.period]
            stack = np.stack(samples)
            proj = np.einsum("nd,tde,ne->tn", dirs, stack, dirs)
            lo = np.einsum("nd,de,ne->n", dirs, ss.omega_ss, dirs)
            lower_margin = float((proj - lo[None, :]).min())
            min_lower_margin = min(min_lower_margin, lower_margin)
            assert lower_margin > 0.0
            if ss.a_is_hurwitz:
                hi = np.einsum("nd,de,ne->n", dirs, ss.omega_inf_finite, dirs)
                upper_margin = float((hi[None, :] - proj).min())
                min_upper_margin = min(min_upper_margin, upper_margin)
                assert upper_margin > 0.0
            checked += 1
    report(12, checked > 0,
           f"{checked} partially observed targets x 200 directions: projections sit "
           f"strictly above the always-observed floor (margin {min_lower_margin:.2e})"
           + (f" and below the never-observed ceiling (margin {min_upper_margin:.2e})"
              if math.isfinite(min_upper_margin) else ""))
