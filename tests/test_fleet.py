import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from patrolplan import cycles, dwell, fleet
from patrolplan.config import ParamRanges, PlannerConfig
from patrolplan.covariance import EngineError, cov_norm, periodic_steady_state
from patrolplan.cycles import Cycle, SteadyStateCache, _splice, cycle_lower_bound, greedy_construct
from patrolplan.fleet import (
    FleetError,
    DisparityMatrix,
    cluster_subnetwork,
    disparity_matrix,
    enumerate_ceos,
    partition_to_document,
    plan_fleet,
    similarity_from_disparity,
    spectral_cluster,
    tes_refine,
)
from patrolplan.dwell import timeline_from_schedule
from patrolplan.model import TargetSpec, TargetNetwork, generate_random_instance, load_instance_file

from oracles import (
    fleet_partition,
    reference_annex_gain,
    reference_enumerate_ceos,
    reference_improve_cycle,
)
from test_dwell import assert_plan_consistent, refuse_consensus

INSTANCES = Path(__file__).resolve().parents[1] / "instances"


class TestEnumerateCeos:
    def test_singleton_dedupes_to_one(self):
        net, _ = generate_random_instance(3, seed=1)
        cycle = Cycle.from_targets(net, [1])
        cands = enumerate_ceos(cycle, 2)
        assert len(cands) == 1
        assert _splice(cycle, *cands[0]).target_ids == {1, 2}

    def test_edge_insertion_present(self):
        net, _ = generate_random_instance(4, seed=2)
        cycle = Cycle.from_targets(net, [1, 2, 3])
        cands = [_splice(cycle, *s) for s in enumerate_ceos(cycle, 4)]
        seqs = [tuple(i.target for i in c.instances) for c in cands]
        assert (1, 4, 2, 3) in seqs
        for c in cands:
            assert 4 in c.target_ids
            assert c.dwell_targets >= {1, 2, 3, 4}

    def test_rejects_already_covered_target(self):
        net, _ = generate_random_instance(3, seed=3)
        with pytest.raises(ValueError):
            enumerate_ceos(Cycle.from_targets(net, [1, 2]), 2)

    def test_growth_is_monotone_along_sweep(self):
        net, _ = generate_random_instance(6, seed=4)
        cache = SteadyStateCache(net)
        cycle = Cycle.from_targets(net, [1])
        metric = cycle_lower_bound(cycle, cache)
        values = [metric.value]
        remaining = [t for t in net.ids if t != 1]
        while remaining:
            best = None
            for j in remaining:
                for splice in enumerate_ceos(cycle, j):
                    cand = _splice(cycle, *splice)
                    m = cycle_lower_bound(cand, cache)
                    gain = metric.value - m.value
                    if best is None or gain > best[0] + 1e-15:
                        best = (gain, j, cand, m)
            _, joined, cycle, metric = best
            remaining.remove(joined)
            values.append(metric.value)
        for a, b in zip(values[:-1], values[1:]):
            assert b >= a - 1e-9


# the covering-cycle disparity, under the id its cases have always had
DISPARITIES = pytest.mark.parametrize("disparity", [disparity_matrix], ids=["exact-pair"])


class TestDisparity:
    def test_single_target(self):
        net, _ = generate_random_instance(1, seed=5)
        disp = disparity_matrix(net)
        assert disp.values.shape == (1, 1)
        assert disp.values[0, 0] == 0.0

    @DISPARITIES
    def test_two_targets_equals_cycle_metric(self, disparity):
        net, _ = generate_random_instance(2, seed=6)
        cache = SteadyStateCache(net)
        disp = disparity(net, cache)
        two_cycle = Cycle.from_targets(net, [1, 2])
        expected = cycle_lower_bound(two_cycle, cache).value
        assert disp.of(1, 2) == pytest.approx(expected, rel=1e-9)
        assert disp.of(2, 1) == disp.of(1, 2)

    @DISPARITIES
    def test_dominates_zero_gap_floors(self, disparity):
        net, _ = generate_random_instance(5, seed=7)
        cache = SteadyStateCache(net)
        disp = disparity(net, cache)
        for i in net.ids:
            for j in net.ids:
                if i == j:
                    continue
                floor = max(cache.lower_bound(i, 0.0), cache.lower_bound(j, 0.0))
                assert disp.of(i, j) >= floor - 1e-9

    @DISPARITIES
    def test_symmetric(self, disparity):
        net, _ = generate_random_instance(6, seed=8)
        disp = disparity(net)
        assert np.allclose(disp.values, disp.values.T)
        assert np.all(np.diag(disp.values) == 0.0)


class TestSimilarity:
    def test_kernel_properties(self):
        net, _ = generate_random_instance(5, seed=9)
        disp = disparity_matrix(net)
        sim = similarity_from_disparity(disp)
        s = sim.values
        assert np.allclose(np.diag(s), 1.0)
        assert np.allclose(s, s.T)
        assert np.all(s > 0) and np.all(s <= 1.0)
        # monotone decreasing in disparity
        d = disp.values
        flat = [(d[a, b], s[a, b]) for a in range(5) for b in range(5) if a < b]
        flat.sort()
        for (d1, s1), (d2, s2) in zip(flat[:-1], flat[1:]):
            if d2 > d1:
                assert s2 <= s1 + 1e-12

    def test_sigma_override(self):
        disp = DisparityMatrix(ids=[1, 2], values=np.array([[0.0, 2.0], [2.0, 0.0]]))
        sim = similarity_from_disparity(disp, sigma=1.0)
        assert sim.values[0, 1] == pytest.approx(math.exp(-2.0))

    def test_kernel_keeps_the_digits_of_the_plain_formula(self):
        # spectral clustering can turn on the last digit of the kernel:
        # exp(-0.5 (d / sigma)^2) moved the clusters of 3 of 447 fleets
        # of tests/fuzz_plans.py
        net, _ = generate_random_instance(12, seed=5)
        disp = disparity_matrix(net)
        sim = similarity_from_disparity(disp)
        d = disp.values
        assert sim.values.tobytes() == np.exp(-(d ** 2) / (2.0 * sim.sigma ** 2)).tobytes()

    def test_width_comes_from_finite_disparities(self):
        # an infinite disparity leaves the median and has similarity zero;
        # disparities near 1e170 keep a finite width
        values = np.array([[0.0, 1e170, math.inf], [1e170, 0.0, 3e170], [math.inf, 3e170, 0.0]])
        sim = similarity_from_disparity(DisparityMatrix(ids=[1, 2, 3], values=values))
        assert sim.sigma == pytest.approx(2e170)
        assert sim.values[0, 2] == sim.values[2, 0] == 0.0
        assert sim.values[0, 1] == pytest.approx(math.exp(-0.125))
        assert np.isfinite(sim.values).all()

    def test_no_finite_disparity_gives_unit_width(self):
        values = np.array([[0.0, math.inf], [math.inf, 0.0]])
        sim = similarity_from_disparity(DisparityMatrix(ids=[1, 2], values=values))
        assert sim.sigma == 1.0
        assert sim.values.tolist() == [[1.0, 0.0], [0.0, 1.0]]


class TestSpectralCluster:
    def block_similarity(self):
        ids = [1, 2, 3, 4, 5, 6]
        s = np.full((6, 6), 1e-6)
        for block in ((0, 1, 2), (3, 4, 5)):
            for a in block:
                for b in block:
                    s[a, b] = 1.0
        from patrolplan.fleet import SimilarityMatrix
        return SimilarityMatrix(ids=ids, values=s, sigma=1.0)

    def test_two_cliques_recovered(self):
        sim = self.block_similarity()
        clusters = spectral_cluster(sim, 2, seed=0)
        assert sorted(sorted(c) for c in clusters) == [[1, 2, 3], [4, 5, 6]]

    def test_single_cluster(self):
        sim = self.block_similarity()
        assert spectral_cluster(sim, 1) == [{1, 2, 3, 4, 5, 6}]

    def test_all_singletons(self):
        net, _ = generate_random_instance(4, seed=10)
        disp = disparity_matrix(net)
        sim = similarity_from_disparity(disp)
        clusters = spectral_cluster(sim, 4, seed=0)
        assert sorted(sorted(c) for c in clusters) == [[1], [2], [3], [4]]

    def test_eigenpair_residuals(self):
        sim = self.block_similarity()
        W = sim.values
        D = np.diag(W.sum(axis=1))
        L = D - W
        import scipy.linalg
        vals, vecs = scipy.linalg.eigh(L, D)
        for k in range(2):
            residual = np.linalg.norm(L @ vecs[:, k] - vals[k] * (D @ vecs[:, k]))
            assert residual <= 1e-8
        # connected similarity graph: smallest eigenvalue 0, constant vector
        assert abs(vals[0]) <= 1e-10
        v0 = vecs[:, 0]
        assert np.allclose(v0, v0[0], atol=1e-8)

    def test_too_many_clusters_rejected(self):
        sim = self.block_similarity()
        with pytest.raises(FleetError):
            spectral_cluster(sim, 7)


class TestClusterSubnetwork:
    def test_disconnected_cluster_bridged(self):
        # line 1-2-3: cluster {1, 3} reaches itself through target 2
        net = TargetNetwork(
            targets=[TargetSpec(id=k, A=0.1, Q=1.0, H=1.0, R=1.0) for k in (1, 2, 3)],
            edges=[(1, 2, 1.0), (2, 3, 1.0)],
        )
        sub = cluster_subnetwork(net, {1, 3})
        assert sub.ids == [1, 3]
        assert sub.travel[1][3] == 2.0
        assert sub.hops(1, 3) == [2]  # pass-through stays physical
        with pytest.raises(KeyError):
            sub.target(2)
        cycle = Cycle.from_targets(sub, [1, 3])
        assert cycle.sequence() == [(1, True), (2, False), (3, True), (2, False)]
        assert cycle.legs == [1.0, 1.0, 1.0, 1.0]
        metric = cycle_lower_bound(cycle, SteadyStateCache(sub))
        assert set(metric.per_target) == {1, 3}

    def test_routes_pass_through_other_clusters(self):
        # {1, 3, 5, 7} induces only 1-7; the fastest 3 -> 5 route is the
        # parent's, through target 4
        net = TargetNetwork(
            targets=[TargetSpec(id=k, A=0.1, Q=1.0, H=1.0, R=1.0) for k in range(1, 8)],
            edges=[(1, 2, 1.0), (2, 3, 1.0), (3, 4, 2.0), (4, 5, 0.5), (5, 6, 1.0),
                   (6, 7, 1.0), (1, 7, 3.0), (2, 6, 2.5)],
        )
        sub = cluster_subnetwork(net, {1, 3, 5, 7})
        assert sub.ids == [1, 3, 5, 7]
        assert sub.travel[3][5] == 2.5
        assert sub.hops(3, 5) == [4]
        assert sub.hops(5, 3) == [4]


class TestPlanFleet:
    def test_single_agent_reduces_to_greedy(self):
        net, _ = generate_random_instance(5, seed=11)
        cache = SteadyStateCache(net)
        part = plan_fleet(net, 1, cache=cache)
        assert part.clusters == [set(net.ids)]
        _, metric, _ = greedy_construct(net, net.ids, cache)
        assert part.fleet_metric == pytest.approx(metric.value, rel=1e-12)

    def test_fifteen_three_structure(self):
        net, _ = generate_random_instance(15, seed=42, num_agents=3)
        part = fleet_partition(net, 3, refine=False)
        assert len(part.clusters) == 3
        covered = set()
        for c in part.clusters:
            assert c, "empty cluster"
            assert not (covered & c), "clusters overlap"
            covered |= c
        assert covered == set(net.ids)
        assert part.fleet_metric == pytest.approx(max(m.value for m in part.metrics))
        # every cluster cycle dwells on all its members
        for members, cycle in zip(part.clusters, part.cycles):
            assert cycle.dwell_targets >= members

    def test_more_agents_than_targets_rejected(self):
        net, _ = generate_random_instance(2, seed=12)
        with pytest.raises(FleetError):
            plan_fleet(net, 3)

    def test_deterministic(self):
        net, _ = generate_random_instance(10, seed=13)
        p1 = plan_fleet(net, 2)
        p2 = plan_fleet(net, 2)
        assert p1.clusters == p2.clusters
        assert [c.sequence() for c in p1.cycles] == [c.sequence() for c in p2.cycles]

    def test_fleet15_balances_without_consensus(self, monkeypatch):
        # every fleet15 cycle balances by the level set, the multi-slot ones
        # included; no planner calls the consensus law
        def refuse(*args, **kwargs):
            raise AssertionError("the consensus law ran")
        monkeypatch.setattr(dwell, "balance_multi_visit", refuse)
        monkeypatch.setattr(dwell, "balance_within_target", refuse)
        net, spec = load_instance_file(str(INSTANCES / "fleet15.json"))
        part = plan_fleet(net, spec.num_agents)
        assert any(len(cycle.positions_of(tid)) > 1 and all(
            cycle.instances[p].dwell_eligible for p in cycle.positions_of(tid))
            for cycle in part.cycles for tid in cycle.dwell_targets)
        assert len(part.plans) == spec.num_agents
        assert_plans_balance(part)

    def test_fleet15_floors_stay_at_or_below_the_predicted_costs(self):
        # agent 3 dwells at target 13 alone with no travel: its floor and its
        # peak are both the always-observed steady state, equal in exact
        # arithmetic, and must stay equal in floats (one ulp over failed the
        # benchmark's plan check)
        net, spec = load_instance_file(str(INSTANCES / "fleet15.json"))
        part = plan_fleet(net, spec.num_agents)
        for plan in part.plans:
            assert plan.metric_value <= plan.j_pred
        travel_free = part.plans[2]
        assert travel_free.cycle.sequence() == [(13, True)]
        assert sum(travel_free.cycle.legs) == 0.0
        assert travel_free.metric_value == travel_free.j_pred

    def test_with_dwell_schedules(self):
        net, _ = generate_random_instance(8, seed=14)
        part = plan_fleet(net, 2)
        assert part.plans is not None
        assert part.fleet_cost >= part.fleet_metric - 1e-9
        for members, plan in zip(part.clusters, part.plans):
            assert set(plan.costs) == members

    def test_fast_diverging_wide_box_plans(self):
        # a first probe with log peaks about 90 apart: the level set's steps
        # climb back from dwells near 1e-27 at 4x per step, which took more
        # than 50 steps, and the consensus law failed on it
        net, _ = generate_random_instance(16, 553497, ParamRanges(
            a=(0.05, 5.0), stable_fraction=0.3, r=(0.05, 8.0), alpha=(1.0, 5.0), box=3.0))
        part = plan_fleet(net, 2, SteadyStateCache(net))
        assert len(part.plans) == 2
        assert_plans_balance(part)


def far_apart_unstable(d: float) -> TargetNetwork:
    """Five unstable targets (A = 0.5) on a complete graph with travel times
    ``d (1 + 0.1 |i - j|)``: their disparities reach about 1e170 at d = 150
    and overflow to infinity at d = 300."""
    return TargetNetwork(
        targets=[TargetSpec(id=k, A=0.5, Q=1.0, H=1.0, R=1.0) for k in range(1, 6)],
        edges=[(i, j, d * (1 + 0.1 * (j - i))) for i in range(1, 6) for j in range(i + 1, 6)],
    )


class TestFarApartUnstableTargets:
    @pytest.mark.parametrize("d", [150.0, 300.0])
    def test_clusters_without_dwells(self, d):
        # the kernel width overflowed (d = 150) or became infinite (d = 300)
        net = far_apart_unstable(d)
        part = fleet_partition(net, 2)
        assert_cluster_views(net, part)


class TestMultiSlotFleetsWithoutConsensus:
    @pytest.mark.parametrize("n, agents, seed, a_hi, stable, r_lo, alpha_hi, box", [
        (17, 4, 348987, 2.0, 0.7, 2.0, 5.0, 3.0),
        (11, 2, 100039, 2.0, 0.7, 2.0, 1.0, 0.5),
        (13, 3, 981192, 0.5, 0.7, 2.0, 5.0, 3.0),
        (19, 2, 843031, 5.0, 0.0, 2.0, 5.0, 3.0),
        (15, 3, 795642, 5.0, 0.3, 0.05, 1.0, 3.0),
        (21, 2, 971506, 5.0, 0.0, 0.05, 1.0, 3.0),
        (20, 3, 932952, 0.5, 0.7, 2.0, 5.0, 3.0),
    ], ids=["draw349", "draw358", "draw400", "draw61", "draw96", "draw325", "draw362"])
    def test_plans_with_the_consensus_law_refused(self, monkeypatch, n, agents, seed, a_hi,
                                                  stable, r_lo, alpha_hi, box):
        # draws of tests/fuzz_plans.py with a multi-slot cycle the level set
        # cannot balance at some period: the period search must take such a
        # probe as infeasible and plan at a period it can balance
        net, _ = generate_random_instance(n, seed, ParamRanges(
            a=(0.05, a_hi), stable_fraction=stable, r=(r_lo, 8.0), alpha=(1.0, alpha_hi),
            box=box))
        refuse_consensus(monkeypatch)
        search = dwell.golden_period_search
        probes = []

        def logged_search(*args, **kwargs):
            result = search(*args, **kwargs)
            probes.extend(result[2])
            return result
        monkeypatch.setattr(dwell, "golden_period_search", logged_search)
        part = plan_fleet(net, agents, SteadyStateCache(net))
        assert math.inf in [cost for _, cost in probes]
        assert len(part.plans) == agents
        for plan in part.plans:
            assert_plan_consistent(plan)
        assert_plans_balance(part)


@st.composite
def sparse_graphs(draw):
    """A connected sparse graph over 4-12 random scalar targets: a random
    spanning tree plus up to three chords, with random travel times."""
    n = draw(st.integers(4, 12))
    times = st.floats(0.05, 1.0)
    pairs = {(draw(st.integers(1, k - 1)), k) for k in range(2, n + 1)}
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(1, n)), draw(st.integers(1, n))
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    targets = [
        TargetSpec(id=k, A=draw(st.floats(-0.3, 0.5)), Q=draw(st.floats(0.5, 1.5)), H=1.0,
                   R=draw(st.floats(1.0, 6.0)))
        for k in range(1, n + 1)
    ]
    return TargetNetwork(targets=targets, edges=[(i, j, draw(times)) for i, j in sorted(pairs)])


def assert_cluster_views(net: TargetNetwork, part) -> None:
    """Clusters partition the targets; each cycle runs on its cluster's view
    over the parent's routes, dwells at every member and at no other target,
    and carries the metric of its own cycle."""
    covered = set()
    cache = SteadyStateCache(net)
    for members, cycle, metric in zip(part.clusters, part.cycles, part.metrics):
        assert members and not (covered & members)
        covered |= members
        assert cycle.network.ids == sorted(members)
        n = len(cycle.instances)
        for pos in range(n if n > 1 else 0):
            u, v = cycle.instances[pos].target, cycle.instances[(pos + 1) % n].target
            assert cycle.legs[pos] == net.travel[u][v]
        assert cycle.dwell_targets == members
        assert metric.value == cycle_lower_bound(cycle, cache).value
    assert covered == set(net.ids)


def assert_plans_balance(part) -> None:
    """Each plan fills its period, its active targets peak at ``g_con``
    within ``balance_tol``, its inactive ones at most there, and every
    active cost matches a fresh fixed point on the plan's own timeline."""
    tol = PlannerConfig().balance_tol
    for plan in part.plans:
        assert plan.cycle.travel_time + sum(plan.dwells) == pytest.approx(plan.period, rel=1e-9)
        timelines = timeline_from_schedule(plan.cycle, plan.dwells)
        for tid, cost in plan.costs.items():
            if tid not in plan.active:
                assert cost <= plan.g_con * (1.0 + tol)
                continue
            assert abs(cost - plan.g_con) <= tol * plan.g_con
            spec = plan.cycle.network.target(tid)
            peaks = periodic_steady_state(spec.A, spec.Q, spec.G, timelines[tid].t_on,
                                          timelines[tid].t_off)
            assert cost == pytest.approx(max(spec.g(cov_norm(u)) for u in peaks.upper), rel=1e-6)


class TestSparseGraphs:
    @pytest.mark.parametrize("agents", [2, 3, 4])
    def test_ring_with_chord(self, agents):
        # twelve random targets on the unit ring 1-2-...-12-1 plus the chord (1, 7)
        base, _ = generate_random_instance(12, seed=0)
        edges = [(k, k % 12 + 1, 1.0) for k in range(1, 13)] + [(1, 7, 1.0)]
        net = TargetNetwork(targets=base.targets, edges=edges)
        assert_cluster_views(net, fleet_partition(net, agents))

    @settings(max_examples=40, deadline=None)
    @given(sparse_graphs(), st.integers(2, 3))
    def test_clusters_plan_on_parent_routes(self, net, agents):
        assert_cluster_views(net, fleet_partition(net, agents))

    def test_dwells_on_tree_with_chords(self):
        # eight random targets on nine edges (a spanning tree plus two
        # chords); target 3's cycle dwells at it twice, with foreign targets
        # passed through in between
        base, _ = generate_random_instance(8, seed=100)
        pos = base.positions
        pairs = [(1, 2), (1, 4), (1, 5), (1, 7), (2, 3), (3, 4), (3, 6), (3, 8), (7, 8)]
        edges = [(i, j, float(np.hypot(pos[i][0] - pos[j][0], pos[i][1] - pos[j][1])))
                 for i, j in pairs]
        net = TargetNetwork(targets=base.targets, edges=edges)
        part = plan_fleet(net, 2)
        assert len(part.plans) == 2
        assert_plans_balance(part)

    @settings(max_examples=15, deadline=None)
    @given(sparse_graphs(), st.integers(2, 3))
    def test_dwells_on_parent_routes(self, net, agents):
        part = plan_fleet(net, agents)
        assert_cluster_views(net, part)
        assert_plans_balance(part)

    @settings(max_examples=40, deadline=None)
    @given(sparse_graphs(), st.data())
    def test_ceos_are_the_reference_splices(self, net, data):
        # a cycle over some members, with repeats and pass-throughs, then
        # every expansion to every other target, in the reference's order
        ids = sorted(net.ids)
        members = data.draw(st.sets(st.sampled_from(ids), min_size=1, max_size=len(ids) - 1))
        order = data.draw(st.lists(st.sampled_from(sorted(members)), min_size=1, max_size=8))
        for external in set(ids) - members:
            view = cluster_subnetwork(net, members | {external})
            cycle = Cycle.from_targets(view, order)
            assert enumerate_ceos(cycle, external) == reference_enumerate_ceos(cycle, external)


def fleet_document(net: TargetNetwork, agents: int) -> str:
    """The partition document without dwells, or the error planning raised."""
    try:
        return json.dumps(partition_to_document(fleet_partition(net, agents)))
    except (EngineError, FleetError) as exc:  # the reference must fail the same way
        return repr(exc)


def assert_same_choices(net: TargetNetwork, agents: int) -> None:
    """Scoring candidates and building the near-best few picks what building
    every candidate picks: the documents are equal to the last bit."""
    scored = fleet_document(net, agents)
    with mock.patch.object(cycles, "improve_cycle", reference_improve_cycle), \
            mock.patch.object(fleet, "_annex_gain", reference_annex_gain):
        assert fleet_document(net, agents) == scored


FLEET15, _ = load_instance_file(str(INSTANCES / "fleet15.json"))


@st.composite
def random_networks(draw) -> TargetNetwork:
    """6-16 random scalar targets on a complete graph, drifts up to 0.5, 2
    or 5, a share of stable targets and a box size each from three."""
    n = draw(st.integers(6, 16))
    seed = draw(st.integers(0, 10**6))
    ranges = ParamRanges(a=(0.05, draw(st.sampled_from([0.5, 2.0, 5.0]))),
                         stable_fraction=draw(st.sampled_from([0.0, 0.3, 0.7])),
                         box=draw(st.sampled_from([0.5, 1.0, 3.0])))
    net, _ = generate_random_instance(n, seed, ranges)
    return net


class TestScoredChoices:
    @settings(max_examples=20, deadline=None)
    @given(random_networks(), st.integers(2, 4))
    def test_random_fleets(self, net, agents):
        assert_same_choices(net, agents)

    @settings(max_examples=20, deadline=None)
    @given(sparse_graphs(), st.integers(2, 3))
    @example(FLEET15, 3)
    def test_sparse_graphs(self, net, agents):
        assert_same_choices(net, agents)


class TestRemovalEstimate:
    @settings(max_examples=20, deadline=None)
    @given(random_networks(), st.integers(2, 4))
    @example(FLEET15, 3)
    def test_is_the_floor_of_a_cycle_without_the_target(self, net, agents):
        # before and after the exchanges, for every candidate the refinement
        # scores: the estimate is the floor of a cycle that dwells at exactly
        # the rest of the critical cluster, over a network naming only them
        cache = SteadyStateCache(net)
        part = fleet_partition(net, agents, cache, refine=False)
        for p in (part, tes_refine(part, cache)):
            a = max(range(agents), key=lambda k: (p.metrics[k].value, -k))
            members, cycle = p.clusters[a], p.cycles[a]
            if len(members) < 2:
                continue  # the refinement gives nothing away from one target
            for j in fleet._critical_span_targets(cycle, p.metrics[a]):
                rest = members - {j}
                # the dwell order without j, back-to-back repeats merged
                keep = [t for t, elig in cycle.sequence() if elig and t != j]
                order = [t for t, nxt in zip(keep, keep[1:] + keep[:1]) if t != nxt] or keep[:1]
                contracted = Cycle.from_targets(cluster_subnetwork(net, rest), order)
                assert contracted.dwell_targets == rest
                assert set(contracted.network.ids) == rest
                _, estimate = fleet._reexpanded(net, cache, cycle, rest)
                assert estimate.value == cycle_lower_bound(contracted, cache).value


class TestTesRefine:
    def test_never_worsens_and_ratio_never_grows(self):
        for seed in (20, 21, 22):
            net, _ = generate_random_instance(12, seed=seed)
            part = fleet_partition(net, 3, refine=False)
            refined = tes_refine(part)
            assert refined.fleet_metric <= part.fleet_metric + 1e-12
            assert refined.metric_ratio <= part.metric_ratio * (1 + 1e-9)
            for entry in refined.tes_log:
                assert entry["fleet_metric_after"] <= entry["fleet_metric_before"] * (1 + 1e-12)

    def test_identity_when_balanced(self):
        net, _ = generate_random_instance(12, seed=20)
        part = fleet_partition(net, 3)
        again = tes_refine(part)
        assert again.tes_log == part.tes_log  # no further exchange found
        assert again.clusters == part.clusters

    def test_no_member_set_is_built_or_annexed_twice(self, monkeypatch):
        # cycles and annex gains are kept by member set: a commit swaps two
        # sets and the critical cluster without j is built once, not once
        # per receiver
        net, _ = generate_random_instance(30, 1, num_agents=3)
        builds, annexes = [], []
        build, annex = fleet._build_cluster, fleet._annex_gain

        def counted_build(network, members, cache):
            builds.append(frozenset(members))
            return build(network, members, cache)

        def counted_annex(network, cache, cycle, members, join):
            annexes.append((frozenset(members), join))
            return annex(network, cache, cycle, members, join)
        monkeypatch.setattr(fleet, "_build_cluster", counted_build)
        monkeypatch.setattr(fleet, "_annex_gain", counted_annex)
        part = plan_fleet(net, 3)
        assert part.tes_log and len(builds) > 3 and annexes
        assert len(builds) == len(set(builds))
        assert len(annexes) == len(set(annexes))

    def test_clusters_stay_valid_after_commits(self):
        net, _ = generate_random_instance(12, seed=23)
        cache = SteadyStateCache(net)
        part = fleet_partition(net, 3, cache)
        covered = set()
        for members, cycle in zip(part.clusters, part.cycles):
            assert members
            assert not (covered & members)
            covered |= members
            assert cycle.dwell_targets >= members
            # unstable members must be dwellable in their own cluster's cycle
            for tid in members:
                if not cache.steady(tid).a_is_hurwitz:
                    assert tid in cycle.dwell_targets
        assert covered == set(net.ids)


class TestPartitionDocument:
    def test_fields(self):
        net, _ = generate_random_instance(8, seed=24)
        part = plan_fleet(net, 2)
        doc = partition_to_document(part)
        assert doc["num_agents"] == 2
        assert len(doc["clusters"]) == 2
        assert len(doc["cycles"]) == 2
        assert doc["fleet_metric"] == part.fleet_metric
        assert "target_exchanges" in doc
        assert len(doc["plans"]) == 2
