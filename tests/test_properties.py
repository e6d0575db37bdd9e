"""Properties of the planner's numerics over random inputs.

The first group draws a scalar or 2x2 target and a pattern of one to three
visits, then checks the direct periodic fixed-point solve against plain
iteration of the period map, that one more period leaves it in place, and
that its peaks rise with a gap and fall with a dwell.

The second group draws three or four scalar targets on a random travel graph
and checks the consensus dwell balancer: on a cycle with one repeated visit
the period is kept and the active peaks meet at the consensus level above
every inactive target, and on a single-visit tour the single- and
multi-visit entry points agree exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patrolplan.config import PlannerConfig
from patrolplan.covariance import cov_norm, periodic_steady_state
from patrolplan.cycles import Cycle, SteadyStateCache
from patrolplan.dwell import balance_multi_visit, balance_single_visit
from patrolplan.model import TargetNetwork, TargetSpec

from oracles import apply_period, iterated_periodic_start, period_steps

REL = 1e-8

entries = st.floats(-0.6, 0.6)


@st.composite
def targets(draw):
    """(A, Q, G) of a scalar or 2x2 target with Q and G positive definite."""
    dim = draw(st.sampled_from([1, 2]))
    A = np.array(draw(st.lists(entries, min_size=dim * dim, max_size=dim * dim))).reshape(dim, dim)
    B = np.array(draw(st.lists(entries, min_size=dim * dim, max_size=dim * dim))).reshape(dim, dim)
    C = np.array(draw(st.lists(entries, min_size=dim * dim, max_size=dim * dim))).reshape(dim, dim)
    Q = B @ B.T + draw(st.floats(0.3, 1.5)) * np.eye(dim)
    G = C @ C.T + draw(st.floats(0.3, 1.0)) * np.eye(dim)
    return A, Q, G


@st.composite
def visits(draw):
    """Dwell and gap lists of one to three visits."""
    k = draw(st.integers(1, 3))
    t_on = draw(st.lists(st.floats(0.2, 1.5), min_size=k, max_size=k))
    t_off = draw(st.lists(st.floats(0.1, 2.5), min_size=k, max_size=k))
    return t_on, t_off


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max() / max(1.0, np.abs(b).max()))


@settings(max_examples=50, deadline=None)
@given(targets(), visits())
def test_solve_matches_iterated_oracle(target, pattern):
    A, Q, G = target
    t_on, t_off = pattern
    peaks = periodic_steady_state(A, Q, G, t_on, t_off)
    oracle = iterated_periodic_start(A, Q, G, t_on, t_off)
    assert rel_err(peaks.upper[0], oracle) <= REL


@settings(max_examples=50, deadline=None)
@given(targets(), visits())
def test_period_map_leaves_solution_fixed(target, pattern):
    A, Q, G = target
    t_on, t_off = pattern
    start = periodic_steady_state(A, Q, G, t_on, t_off).upper[0]
    again = apply_period(start, period_steps(A, Q, G, t_on, t_off))
    assert rel_err(again, start) <= REL


@settings(max_examples=50, deadline=None)
@given(targets(), visits(), st.data())
def test_peaks_rise_with_gap_and_fall_with_dwell(target, pattern, data):
    A, Q, G = target
    t_on, t_off = pattern
    k = data.draw(st.integers(0, len(t_on) - 1))
    eps = 0.05

    def worst(on, off):
        peaks = periodic_steady_state(A, Q, G, on, off)
        return max(cov_norm(u) for u in peaks.upper)

    base = worst(t_on, t_off)
    longer_gap = worst(t_on, [v + eps * (j == k) for j, v in enumerate(t_off)])
    longer_dwell = worst([v + eps * (j == k) for j, v in enumerate(t_on)], t_off)
    assert longer_gap > base * (1.0 + REL)
    assert longer_dwell < base * (1.0 - REL)


@st.composite
def balance_cases(draw):
    """Three or four scalar targets, a tour of them, the tour with its first
    target visited once more at a non-adjacent place, and a period factor
    over the travel time.

    Targets sit at random points of a 0.5 x 0.5 box, and a leg takes the
    Euclidean distance plus 0.1, so every leg is direct (no pass-through
    instances).  The other targets drift anywhere in [-0.5, 0.5], so stable
    ones can go inactive; the repeated target is unstable.  A stable repeated
    target and a pass-through between two dwell slots stall the within-target
    split today (the xfail tests in ``test_dwell.py``).
    """
    n = draw(st.integers(3, 4))
    tour = draw(st.permutations(range(1, n + 1)))
    targets = [
        TargetSpec(id=k, A=draw(st.floats(0.05, 0.5) if k == tour[0] else st.floats(-0.5, 0.5)),
                   Q=draw(st.floats(0.4, 1.8)), H=1.0, R=draw(st.floats(2.0, 8.0)))
        for k in range(1, n + 1)
    ]
    pos = {k: draw(st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5))) for k in range(1, n + 1)}
    edges = [(i, j, 0.1 + float(np.hypot(pos[i][0] - pos[j][0], pos[i][1] - pos[j][1])))
             for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    network = TargetNetwork(targets=targets, edges=edges)
    at = draw(st.integers(2, n - 1))
    repeated = tour[:at] + [tour[0]] + tour[at:]
    return network, tour, repeated, draw(st.floats(1.3, 3.0))


@settings(max_examples=10, deadline=None)
@given(balance_cases())
def test_balanced_cycle_meets_consensus(case):
    network, _, repeated, factor = case
    cycle = Cycle.from_targets(network, repeated)
    period = factor * cycle.travel_time
    tol = PlannerConfig().balance_tol
    state = balance_multi_visit(cycle, period, SteadyStateCache(network))
    assert sum(state.dwells) + cycle.travel_time == pytest.approx(period, rel=1e-12)
    for tid, cost in state.costs.items():
        if tid in state.active:
            assert abs(cost - state.g_con) <= tol * state.g_con
        else:
            assert cost <= state.g_con * (1.0 + tol)


@settings(max_examples=20, deadline=None)
@given(balance_cases())
def test_single_visit_tour_balances_alike(case):
    network, tour, _, factor = case
    cycle = Cycle.from_targets(network, tour)
    period = factor * cycle.travel_time
    cache = SteadyStateCache(network)
    single = balance_single_visit(cycle, period, cache)
    multi = balance_multi_visit(cycle, period, cache)
    assert single.dwells == multi.dwells
    assert single.costs == multi.costs
    assert single.trace == multi.trace
