"""Properties of the planner's numerics over random inputs.

The first group draws a scalar or 2x2 target and a pattern of one to three
visits, then checks the direct periodic fixed-point solve against plain
iteration of the period map, that one more period leaves it in place, and
that its peaks rise with a gap and fall with a dwell.

The second group draws three or four scalar targets on a random travel graph
and checks the consensus dwell balancer: on a cycle with one repeated visit,
passed through between its two dwell slots in some draws, the period is
kept and the active peaks meet at the consensus level above every inactive
target, and on a single-visit tour the single- and multi-visit entry points
agree exactly.  On those repeated-visit cycles and on single-visit tours of
three to six targets, on a complete graph or a random spanning tree (routes
through other targets), the level-set balancer must land on the consensus
law's fixed point, and on a single-visit tour neither the cost floor nor the
balanced costs may depend on where the tour starts or on the targets' ids.  On random slot layouts the level set's Newton step,
which eliminates the single-slot rows in closed form, must give the dwells
of the whole bordered solve in ``oracles.bordered_level_step``.

A connected travel graph with tied and zero-length routes must give the
network's fastest times (bit for bit) and paths of the plain Floyd-Warshall
loop.  On such graphs and on complete ones, ``Cycle.visit_gaps`` must give
the revisit gaps of the per-target loop in ``oracles`` bit for bit, and
``Cycle.timelines`` the exact on/off times within 1e-12 of the period, with
pass-through instances, repeated and back-to-back dwell slots, zero-length
legs and one-instance cycles among the draws.  A change of one dwell must
leave every gap that does not contain it bit for bit as it was.

The next plans small random scalar instances and simulates each plan with one
sample per segment (``dt`` = the period): a scalar target's peaks sit at its
switch instants, so those samples see them, and the realized cost must match
the prediction and never fall below the cost floor.  Over two such periods
from ``steady_initial_covariances``, every plan of a random single agent or
fleet, on a complete or a tree travel graph (routes through other targets,
targets first dwelled on after t = 0), must start each dwelled target on its
orbit: back at its start after one period, with the first period's maximum
at the plan's cost.

Single-agent plans of random instances over wide parameter ranges (fast
drifts, low noise intensities, stable targets, a large box) must come from
the level set's Newton steps alone, never the consensus law, cover every
target and be consistent with their own timelines.

The last plans small random scalar instances and fleets and checks that every
plan document survives JSON text and ``Plan.from_document`` unchanged, and
that one leg time moved by one ulp or a period moved by 1e-6 is rejected; a
fleet's agent plans are read back as the CLI reads them, over the cluster
view built from the document's ``covers``.

A target's revisit floor has one function: for random scalar targets and
duo2x2's 2x2 targets, ``SteadyStateCache.floor``, ``lower_bound`` of the
cache and ``covariance.lower_bound`` agree bit for bit at random gaps, and
only a matrix target's function evaluates the bound, once per distinct gap.
A plan is its balanced state: on random cycles ``plan_for_cycle`` carries,
bit for bit, the state of ``golden_period_search`` on a fresh cache, and a
single-agent plan predicts the worst of its target and excluded costs.
On random single-visit tours that search (Brent's steps) must keep every
probe inside the bracket, return its cheapest probe and cost no more than
the plain golden-section search of ``oracles`` within ``balance_tol``.
"""

import dataclasses
import json
import math
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from patrolplan import dwell
from patrolplan.cli import _load_plan
from patrolplan.config import ParamRanges, PlannerConfig
from patrolplan import cycles
from patrolplan.covariance import ConvergenceError, cov_norm, lower_bound, periodic_steady_state
from patrolplan.cycles import Cycle, SteadyStateCache, cycle_lower_bound, tsp_heuristic
from patrolplan.dwell import (
    DwellState,
    Plan,
    balance_level_set,
    balance_multi_visit,
    balance_single_visit,
    golden_period_search,
    plan_for_cycle,
    plan_single_agent,
    timeline_from_schedule,
)
from patrolplan.fleet import plan_fleet
from patrolplan.model import (
    TargetNetwork,
    TargetSpec,
    generate_random_instance,
    instance_to_document,
    load_instance_file,
)
from patrolplan.simulate import simulate, steady_initial_covariances, validate

from oracles import (
    apply_period,
    bordered_level_step,
    exact_timelines,
    golden_section_search,
    iterated_periodic_start,
    period_steps,
    python_floyd_warshall,
    scipy_floyd_warshall,
    sequential_visit_gaps,
)
from test_dwell import assert_plan_consistent

INSTANCES = Path(__file__).resolve().parents[1] / "instances"

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
    """Three or four scalar targets, a tour of them, the tour as a cycle
    sequence with its first target given one more dwell slot at a
    non-adjacent place, and a period factor over the travel time.

    Targets sit at random points of a 0.5 x 0.5 box, and a leg takes the
    Euclidean distance plus 0.1, so every leg is direct.  Every target,
    the repeated one included, drifts anywhere in [-0.5, 0.5], so stable
    ones can go inactive, and some draws pass through the repeated target
    between its two dwell slots.
    """
    n = draw(st.integers(3, 4))
    tour = draw(st.permutations(range(1, n + 1)))
    targets = [TargetSpec(id=k, A=draw(st.floats(-0.5, 0.5)), Q=draw(st.floats(0.4, 1.8)),
                          H=1.0, R=draw(st.floats(2.0, 8.0)))
               for k in range(1, n + 1)]
    pos = {k: draw(st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5))) for k in range(1, n + 1)}
    edges = [(i, j, 0.1 + float(np.hypot(pos[i][0] - pos[j][0], pos[i][1] - pos[j][1])))
             for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    network = TargetNetwork(targets=targets, edges=edges)
    at = draw(st.integers(2, n - 1))
    repeated = [(tid, True) for tid in tour[:at] + [tour[0]] + tour[at:]]
    if draw(st.booleans()):
        repeated.insert(draw(st.integers(1, len(repeated))), (tour[0], False))
    return network, tour, repeated, draw(st.floats(1.3, 3.0))


@settings(max_examples=10, deadline=None)
@given(balance_cases())
def test_balanced_cycle_meets_consensus(case):
    network, _, repeated, factor = case
    cycle = Cycle(network, repeated)
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


@st.composite
def single_visit_tours(draw, tree=False):
    """Three to six scalar targets with stable and unstable drifts, on legs of
    Euclidean length plus 0.1, a tour of them and a period factor over its
    travel time.  The legs join every pair (all direct), or with ``tree``
    only the pairs of a random spanning tree, so that fastest routes pass
    through other targets: zero-dwell instances of single-slot targets."""
    n = draw(st.integers(3, 6))
    targets = [
        TargetSpec(id=k, A=draw(st.floats(-0.6, 0.5)), Q=draw(st.floats(0.4, 1.8)),
                   H=1.0, R=draw(st.floats(2.0, 8.0)))
        for k in range(1, n + 1)
    ]
    pos = {k: draw(st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5))) for k in range(1, n + 1)}
    pairs = ([(draw(st.integers(1, j - 1)), j) for j in range(2, n + 1)] if tree
             else [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])
    edges = [(i, j, 0.1 + float(np.hypot(pos[i][0] - pos[j][0], pos[i][1] - pos[j][1])))
             for i, j in pairs]
    network = TargetNetwork(targets=targets, edges=edges)
    cycle = Cycle.from_targets(network, draw(st.permutations(range(1, n + 1))))
    return cycle, draw(st.floats(1.3, 3.0)) * cycle.travel_time


def assert_level_set_is_consensus(cycle, period):
    cache = SteadyStateCache(cycle.network)
    tol = PlannerConfig().balance_tol
    # the level set must converge by itself, with the consensus law refused
    with mock.patch.object(dwell, "balance_multi_visit",
                           side_effect=AssertionError("the consensus law ran")):
        level = balance_level_set(cycle, period, cache)
    try:
        consensus = balance_multi_visit(cycle, period, cache, tol=1e-8)
    except ConvergenceError:
        # the consensus law stalls on some inputs with a tiny balanced dwell
        # (test_dwell.py::TestBalanceLevelSet::test_tiny_balanced_dwell);
        # it must then still accept the level set's point as its own
        consensus = balance_multi_visit(cycle, period, cache, initial_dwells=level.dwells,
                                        tol=1e-8)
    assert level.active == consensus.active
    assert level.g_con == pytest.approx(consensus.g_con, rel=1e-6)
    timelines = timeline_from_schedule(cycle, level.dwells)
    for tid, cost in level.costs.items():
        if tid not in level.active:
            assert cache.never_observed_cost(tid) <= level.g_con * (1.0 + tol)
            continue
        assert abs(cost - level.g_con) <= tol * level.g_con
        positions = cycle.positions_of(tid)
        if len(level.visit_costs[tid]) > 1:   # each eligible visit peaks at the level
            for pos, peak in zip(positions, level.visit_costs[tid]):
                if cycle.instances[pos].dwell_eligible:
                    assert abs(peak - level.g_con) <= tol * level.g_con
        spec = cycle.network.target(tid)
        peaks = periodic_steady_state(spec.A, spec.Q, spec.G, timelines[tid].t_on,
                                      timelines[tid].t_off)
        assert cost == pytest.approx(max(spec.g(cov_norm(u)) for u in peaks.upper), rel=1e-6)
    budget = period - cycle.travel_time
    assert sum(level.dwells) == pytest.approx(budget, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(single_visit_tours())
def test_level_set_lands_on_consensus(case):
    assert_level_set_is_consensus(*case)


@settings(max_examples=10, deadline=None)
@given(single_visit_tours(tree=True))
def test_level_set_lands_on_consensus_across_pass_throughs(case):
    # the consensus law costs a single-slot target over its whole timeline,
    # zero-dwell visits included; the level set over its one visit
    cycle, period = case
    assert any(len(cycle.positions_of(tid)) > 1 for tid in cycle.eligible)
    assert all(len(slots) == 1 for slots in cycle.eligible.values())
    assert_level_set_is_consensus(cycle, period)


@settings(max_examples=10, deadline=None)
@given(balance_cases())
def test_multi_slot_level_set_lands_on_consensus(case):
    network, _, repeated, factor = case
    cycle = Cycle(network, repeated)
    assert_level_set_is_consensus(cycle, factor * cycle.travel_time)


def test_level_set_lands_on_consensus_duo2x2():
    network, _ = load_instance_file(str(INSTANCES / "duo2x2.json"))
    cycle = tsp_heuristic(network, network.ids)
    assert_level_set_is_consensus(cycle, 2.5 * cycle.travel_time)


UNUSABLE_SLOPES = (0.5, math.inf, -math.inf, math.nan)


@st.composite
def level_steps(draw):
    """One state of the level-set loop: two to six targets with one to three
    dwell slots each (a target's slots consecutive, as the balancer lays them
    out), slot dwells some of them zero, finite log peaks, single-slot slopes
    and dense multi-slot Jacobian rows, and never-observed costs some of them
    infinite.  Now and then a slope does not fall or a dense row is infinite,
    so the target stays out of the linear model, and a target whose peaks lie
    far below the others drops out of it."""
    counts = draw(st.lists(st.sampled_from([1, 1, 2, 3]), min_size=2, max_size=6))
    groups, n = {}, 0
    for tid, count in enumerate(counts, start=1):
        groups[tid] = list(range(n, n + count))
        n += count
    x = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
                               min_size=n, max_size=n)))
    assume(x.sum() > 0.0)
    logs = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n)))
    jac = np.zeros((n, n))
    for tid, ks in groups.items():
        if len(ks) == 1:
            jac[ks[0], ks[0]] = draw(st.floats(-5.0, -0.05))
            continue
        for r in ks:   # gaps rise with foreign dwells; own slots mostly lower
            jac[r] = draw(st.lists(st.floats(0.0, 0.3), min_size=n, max_size=n))
            jac[r, ks] = draw(st.lists(st.floats(-0.2, 0.2), min_size=len(ks),
                                       max_size=len(ks)))
            jac[r, r] = draw(st.floats(-5.0, -1.0))
    for tid, ks in groups.items():
        if draw(st.integers(0, 7)) == 0:
            if len(ks) == 1:
                jac[ks[0], ks[0]] = draw(st.sampled_from(UNUSABLE_SLOPES))
            else:
                jac[ks[0], draw(st.integers(0, n - 1))] = math.inf
    weak = draw(st.sampled_from([None, *groups]))
    if weak is not None:
        logs[groups[weak]] -= 20.0
    never = {tid: draw(st.one_of(st.just(math.inf), st.floats(-1.0, 4.0).map(math.exp)))
             for tid in groups}
    return x, logs, jac, groups, never, float(x.sum())


def _two_negative_multi_slot_totals():
    """Multi-slot targets 2 and 5 both model a negative total dwell, and
    target 5's turns positive once target 2 alone leaves the model."""
    jac = np.diag([-0.125, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -3.0, -2.0, -4.0])
    jac[8, 1] = jac[8, 2] = 0.25
    groups = {1: [0], 2: [1, 2], 3: [3, 4], 4: [5, 6], 5: [7, 8, 9]}
    return (np.array([0.0] * 8 + [1.0, 1.0]), np.array([3.0, -20.0, -20.0] + [0.0] * 5 + [2.0, 0.0]),
            jac, groups, dict.fromkeys(groups, math.inf), 2.0)


@settings(max_examples=300, deadline=None)
@given(level_steps())
@example(_two_negative_multi_slot_totals())
def test_level_step_matches_full_bordered_solve(case):
    # the closed-form elimination of the single-slot rows gives the step of
    # the whole bordered system
    x, logs, jac, groups, never, budget = case
    expected = bordered_level_step(x, logs, jac, groups, never, budget)
    slope = {ks[0]: float(jac[ks[0], ks[0]]) for ks in groups.values() if len(ks) == 1}
    dense = {tid: jac[ks] for tid, ks in groups.items() if len(ks) > 1}
    floor = [math.log(never[tid]) for tid, ks in groups.items() for _ in ks]
    step = dwell._level_step(x.tolist(), logs.tolist(), slope, dense, groups, floor, budget)
    if expected is None:
        assert step is None
    else:
        assert step is not None
        assert np.abs(np.array(step) - expected).max() <= 1e-9 * budget


@st.composite
def tour_symmetries(draw):
    """A single-visit tour and period as ``single_visit_tours`` draws them,
    the same tour started at another target, and the same tour over a copy of
    the network whose targets carry other distinct ids."""
    cycle, period = draw(single_visit_tours())
    network = cycle.network
    tour = [tid for tid, _ in cycle.sequence()]
    shift = draw(st.integers(1, len(tour) - 1))
    rotated = Cycle.from_targets(network, tour[shift:] + tour[:shift])
    new_ids = draw(st.lists(st.integers(1, 99), min_size=len(tour), max_size=len(tour),
                            unique=True))
    label = dict(zip(sorted(network.ids), new_ids))
    renamed = TargetNetwork(
        targets=[dataclasses.replace(t, id=label[t.id]) for t in network.targets],
        edges=[(label[i], label[j], d) for i, j, d in network.edges],
    )
    relabelled = Cycle.from_targets(renamed, [label[tid] for tid in tour])
    return cycle, period, rotated, relabelled, label


@settings(max_examples=25, deadline=None)
@given(tour_symmetries())
def test_cost_floor_ignores_tour_start(case):
    cycle, _, rotated, _, _ = case
    cache = SteadyStateCache(cycle.network)
    base = cycle_lower_bound(cycle, cache).value
    assert cycle_lower_bound(rotated, cache).value == pytest.approx(base, rel=1e-12)


@settings(max_examples=15, deadline=None)
@given(tour_symmetries())
def test_level_set_ignores_tour_start_and_ids(case):
    cycle, period, rotated, relabelled, label = case
    tol = PlannerConfig().balance_tol
    base = balance_level_set(cycle, period, SteadyStateCache(cycle.network))
    for other, rename in ((rotated, lambda tid: tid), (relabelled, label.__getitem__)):
        state = balance_level_set(other, period, SteadyStateCache(other.network))
        assert abs(state.g_con - base.g_con) <= tol * base.g_con
        for tid, cost in base.costs.items():
            assert abs(state.costs[rename(tid)] - cost) <= tol * cost


@st.composite
def travel_graphs(draw):
    """A connected travel graph over 2-14 targets with arbitrary ids in an
    arbitrary order.  Travel times are small integers, so equally fast routes
    tie, and some edges take no time at all."""
    ids = draw(st.lists(st.integers(1, 60), min_size=2, max_size=14, unique=True))
    times = st.integers(0, 3).map(float)
    edges = [(ids[k - 1], ids[k], draw(times)) for k in range(1, len(ids))]
    pairs = {frozenset(e[:2]) for e in edges}
    for a, b, d in draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids), times),
                                 max_size=3 * len(ids))):
        if a != b and frozenset((a, b)) not in pairs:
            pairs.add(frozenset((a, b)))
            edges.append((a, b, d))
    order = draw(st.permutations(ids))
    targets = [TargetSpec(id=k, A=0.1, Q=1.0, H=1.0, R=1.0) for k in order]
    return TargetNetwork(targets=targets, edges=draw(st.permutations(edges)))


@settings(max_examples=200, deadline=None)
@given(travel_graphs())
def test_closure_matches_python_floyd_warshall(network):
    travel, path = python_floyd_warshall(network.ids, network.edges)
    for i in network.ids:
        for j in network.ids:
            assert np.float64(network.travel[i][j]).tobytes() == np.float64(travel[i][j]).tobytes()
            assert network.hops(i, j) == path[i][j]


def assert_closure_matches_scipy(network):
    """``travel`` bit for bit, and every route, as scipy's Floyd-Warshall
    has them; ties between equally fast routes must break the same way."""
    travel, path = scipy_floyd_warshall(network.ids, network.edges)
    for i in network.ids:
        for j in network.ids:
            assert np.float64(network.travel[i][j]).tobytes() == np.float64(travel[i][j]).tobytes()
            assert network.hops(i, j) == path[i][j]


@settings(max_examples=200, deadline=None)
@given(travel_graphs())
def test_closure_matches_scipy_on_tied_graphs(network):
    assert_closure_matches_scipy(network)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 60), st.integers(0, 2**32 - 1))
def test_closure_matches_scipy_on_random_instances(n, seed):
    assert_closure_matches_scipy(generate_random_instance(n, seed)[0])


@st.composite
def walked_cycles(draw):
    """A cycle of dwell visits to one to eight targets in any order, repeats
    and back-to-back repeats included, and a dwell vector on it.  The graph
    is one of ``travel_graphs`` (routes through other targets become
    pass-through instances, edges that take no time zero-length legs) or a
    complete one with real travel times.  Each dwell slot takes zero or a
    random real dwell."""
    if draw(st.booleans()):
        network = draw(travel_graphs())
    else:
        network, _ = generate_random_instance(draw(st.integers(1, 6)),
                                              draw(st.integers(0, 2**32 - 1)))
    visits = draw(st.lists(st.sampled_from(network.ids), min_size=1, max_size=8))
    cycle = Cycle.from_targets(network, visits)
    dwell = st.one_of(st.just(0.0), st.floats(1e-9, 5.0))
    return cycle, [draw(dwell) if inst.dwell_eligible else 0.0 for inst in cycle.instances]


@settings(max_examples=200, deadline=None)
@given(walked_cycles())
def test_walks_match_the_references(case):
    cycle, dwells = case
    assert cycle.visit_gaps() == sequential_visit_gaps(cycle)
    period = sum(dwells) + cycle.travel_time
    timelines = cycle.timelines(dwells, cycle.target_ids)
    assert timelines.keys() == cycle.target_ids
    for tid, (on, off) in exact_timelines(cycle, dwells).items():
        t_on, t_off = timelines[tid]
        assert t_on == on
        assert max(abs(a - float(b)) for a, b in zip(t_off, off)) <= 1e-12 * period


@settings(max_examples=200, deadline=None)
@given(walked_cycles(), st.data())
def test_a_dwell_moves_only_the_gaps_that_contain_it(case, data):
    # the level set differences peaks over a bump of one dwell; a gap the
    # bump is not inside must not pick up rounding from it
    cycle, dwells = case
    p = data.draw(st.sampled_from([k for k, i in enumerate(cycle.instances) if i.dwell_eligible]))
    bumped = list(dwells)
    bumped[p] += data.draw(st.floats(1e-12, 1.0))
    base = cycle.timelines(dwells, cycle.target_ids)
    after = cycle.timelines(bumped, cycle.target_ids)
    n = len(cycle.instances)
    for tid, (t_on, t_off) in base.items():
        positions = cycle.positions_of(tid)
        for k, here in enumerate(positions):
            inside = (p - here - 1) % n < (positions[(k + 1) % len(positions)] - here - 1) % n
            if not inside:
                assert after[tid][1][k] == t_off[k]
            if here != p:
                assert after[tid][0][k] == t_on[k]


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_floor_at_most_realized_cost(num_targets, seed):
    network, _ = generate_random_instance(num_targets, seed)
    plan = plan_single_agent(network, SteadyStateCache(network))
    report = validate(plan, simulate(plan, network, dt=plan.period, num_periods=3))
    assert report["metric_floor_holds"]
    assert report["prediction_consistent"]


@st.composite
def orbit_plans(draw):
    """The plans of a random scalar instance of 3 to 8 targets: one agent's,
    or every agent's of a two- or three-agent fleet.  The travel graph is
    the complete one or a random spanning tree of it, whose routes pass
    through other targets: zero-dwell instances, in a fleet also of targets
    another agent covers."""
    network, _ = generate_random_instance(draw(st.integers(3, 8)),
                                          draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        length = {(min(i, j), max(i, j)): d for i, j, d in network.edges}
        ids = network.ids
        edges = []
        for k in range(1, len(ids)):
            parent = ids[draw(st.integers(0, k - 1))]
            edges.append((parent, ids[k], length[min(parent, ids[k]), max(parent, ids[k])]))
        network = TargetNetwork(network.targets, edges, network.positions)
    agents = draw(st.integers(1, 3))
    if agents == 1:
        return [plan_single_agent(network, SteadyStateCache(network))]
    return plan_fleet(network, agents, SteadyStateCache(network)).plans


@settings(max_examples=40, deadline=None)
@given(orbit_plans())
def test_simulated_trace_starts_on_its_orbit(plans):
    # one sample per segment, so the switch instants, where a scalar
    # target's peaks sit, are sampled
    for plan in plans:
        network = plan.cycle.network
        initial = steady_initial_covariances(plan, network)
        trace = simulate(plan, network, initial=initial, num_periods=2, dt=plan.period)
        end = (len(trace.times) - 1) // 2   # the sample that ends period 1
        dwelled = {inst.target for pos, inst in enumerate(plan.cycle.instances)
                   if plan.dwells[pos] > 1e-12}
        for tid in dwelled:
            norms = trace.norms[tid]
            assert norms[end] == pytest.approx(norms[0], rel=1e-9, abs=0.0)
            assert trace.period_maxima[tid][0] == pytest.approx(plan.costs[tid], rel=1e-6, abs=0.0)


@st.composite
def hard_instances(draw):
    """A random instance of 3 to 10 scalar targets over wide ranges: drifts up
    to 0.5, 2 or 5, no, 30% or 70% stable targets, noise intensities from
    0.05 or 2, cost weights up to 1 or 5 and a box of side 0.5 or 3."""
    ranges = ParamRanges(
        a=(0.05, draw(st.sampled_from([0.5, 2.0, 5.0]))),
        stable_fraction=draw(st.sampled_from([0.0, 0.3, 0.7])),
        r=(draw(st.sampled_from([0.05, 2.0])), 8.0),
        alpha=(1.0, draw(st.sampled_from([1.0, 5.0]))),
        box=draw(st.sampled_from([0.5, 3.0])),
    )
    network, _ = generate_random_instance(draw(st.integers(3, 10)),
                                          draw(st.integers(0, 10**6 - 1)), ranges)
    return network


@settings(max_examples=40, deadline=None)
@given(hard_instances())
def test_hard_single_agent_instances_plan_by_newton_alone(network):
    # every probe of a single-agent plan is a single-slot cycle, balanced by
    # the level set's Newton steps with no fallback
    with mock.patch.object(dwell, "balance_multi_visit", side_effect=AssertionError):
        plan = plan_single_agent(network, SteadyStateCache(network))
    assert plan.active | set(plan.excluded) == set(network.ids)
    assert_plan_consistent(plan)


def json_round_trip(doc: dict) -> dict:
    back = json.loads(json.dumps(doc))
    assert back == doc
    return back


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_plan_document_round_trips(num_targets, seed):
    network, _ = generate_random_instance(num_targets, seed)
    doc = plan_single_agent(network, SteadyStateCache(network)).to_document()
    assert Plan.from_document(network, json_round_trip(doc)).to_document() == doc
    # leg times must be the network's own, to the last bit
    bad = json_round_trip(doc)
    legs = bad["leg_times"]
    if legs:
        k = seed % len(legs)
        legs[k] = math.nextafter(legs[k], math.inf)
    else:
        legs.append(0.0)
    with pytest.raises(ValueError, match="'leg_times'"):
        Plan.from_document(network, bad)
    # the period must be the travel time plus the dwells
    bad = json_round_trip(doc)
    bad["period"] *= 1.0 + 1e-6 * (1 if seed % 2 else -1)
    with pytest.raises(ValueError, match="'period'"):
        Plan.from_document(network, bad)


@settings(max_examples=20, deadline=None)
@given(st.integers(4, 10), st.integers(2, 3), st.integers(0, 2**32 - 1))
def test_fleet_plan_documents_round_trip(num_targets, num_agents, seed):
    network, fleet = generate_random_instance(num_targets, seed, num_agents=num_agents)
    partition = plan_fleet(network, num_agents, SteadyStateCache(network))
    with tempfile.TemporaryDirectory() as folder:
        instance = Path(folder) / "instance.json"
        instance.write_text(json.dumps(instance_to_document(network, fleet)))
        for k, plan in enumerate(partition.plans):
            doc = json_round_trip(plan.to_document())
            path = Path(folder) / f"plan_agent{k + 1}.json"
            path.write_text(json.dumps(doc))
            view, loaded = _load_plan(SimpleNamespace(instance=str(instance), plan=str(path)))
            assert sorted(view.ids) == doc["covers"]
            assert loaded.to_document() == doc


DUO2X2, _ = load_instance_file(str(INSTANCES / "duo2x2.json"))


@st.composite
def floor_cases(draw):
    """A network and one of its targets, a random scalar target (stable or
    unstable, any weight) or one of duo2x2's 2x2 targets, and one to four
    gaps."""
    if draw(st.booleans()):
        network, tid = DUO2X2, draw(st.sampled_from(DUO2X2.ids))
    else:
        spec = TargetSpec(id=1, A=draw(st.floats(-2.0, 2.0)), Q=draw(st.floats(0.05, 5.0)),
                          H=1.0, R=draw(st.floats(0.05, 8.0)),
                          weight_alpha=draw(st.floats(1.0, 5.0)))
        network, tid = TargetNetwork(targets=[spec], edges=[]), 1
    return network, tid, draw(st.lists(st.floats(0.0, 20.0), min_size=1, max_size=4))


@settings(max_examples=60, deadline=None)
@given(floor_cases())
def test_one_floor_function_per_target(case):
    network, tid, gaps = case
    cache = SteadyStateCache(network)
    spec, omega_ss = cache.target(tid), cache.steady(tid).omega_ss
    with mock.patch.object(cycles, "lower_bound", wraps=cycles.lower_bound) as bound:
        for gap in gaps + gaps:   # every gap twice
            want = lower_bound(spec, gap, omega_ss)
            assert cache.floor(tid)(gap) == want
            assert cache.lower_bound(tid, gap) == want
    assert cache.floor(tid) is cache.floor(tid)
    # a scalar floor runs the bound's operations itself; a matrix floor
    # evaluates each distinct gap's bound once
    assert bound.call_count == (0 if spec.is_scalar else len(set(gaps)))


@settings(max_examples=10, deadline=None)
@given(balance_cases(), st.booleans())
def test_plan_is_its_balanced_state(case, repeat):
    network, tour, repeated, _ = case
    cycle = Cycle(network, repeated) if repeat else Cycle.from_targets(network, tour)
    plan = plan_for_cycle(cycle, SteadyStateCache(network))
    _, state, probes = golden_period_search(cycle, SteadyStateCache(network))
    assert isinstance(plan, DwellState)
    for f in dataclasses.fields(DwellState):
        assert getattr(plan, f.name) == getattr(state, f.name), f.name
    assert plan.search_probes == probes
    assert plan.j_pred == max(plan.costs.values()) and not plan.excluded
    single = plan_single_agent(network, SteadyStateCache(network))
    assert single.j_pred == max([*single.costs.values(), *single.excluded.values()])


@settings(max_examples=25, deadline=None)
@given(balance_cases())
def test_period_search_is_no_dearer_than_golden_section(case):
    network, tour, _, _ = case
    cycle = Cycle.from_targets(network, tour)
    t_star, state, probes = golden_period_search(cycle, SteadyStateCache(network))
    _, reference, _ = golden_section_search(cycle, SteadyStateCache(network))
    lo, hi = (1.0 + dwell.BRACKET_LOW) * cycle.travel_time, dwell.BRACKET_HIGH * cycle.travel_time
    assert all(lo <= period <= hi for period, _ in probes)
    if len(probes) > 3:   # not the flat midpoint
        assert (t_star, state.g_con) == min(probes, key=lambda probe: probe[1])
    assert state.g_con <= reference.g_con * (1.0 + PlannerConfig().balance_tol)
