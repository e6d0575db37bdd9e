import itertools
import math

import pytest
from hypothesis import event, given, settings, strategies as st

from patrolplan.covariance import cov_norm
from patrolplan.cycles import (
    Cycle,
    Splice,
    SteadyStateCache,
    _GapTable,
    _detour,
    _path_between,
    _visit_between,
    cycle_lower_bound,
    cycle_to_document,
    enumerate_cmos,
    greedy_construct,
    tsp_heuristic,
    _critical_span,
    _splice,
)
from patrolplan.fleet import cluster_subnetwork
from patrolplan.model import TargetSpec, TargetNetwork, generate_random_instance

from oracles import enumerate_cycles, propagate_unobserved


def simple_network(edges, ids=None, a=0.2):
    ids = ids or sorted({i for e in edges for i in e[:2]})
    return TargetNetwork(
        targets=[TargetSpec(id=k, A=a, Q=1.0, H=1.0, R=1.0) for k in ids],
        edges=edges,
    )


class TestTspHeuristic:
    def test_triangle_is_exact(self):
        net = simple_network([(1, 2, 1.0), (2, 3, 1.5), (1, 3, 2.0)])
        cyc = tsp_heuristic(net, {1, 2, 3})
        assert cyc.travel_time == pytest.approx(4.5)
        assert {i.target for i in cyc.instances} == {1, 2, 3}

    def test_two_opt_beats_nearest_neighbour(self):
        net, _ = generate_random_instance(5, seed=7)
        travel = net.travel
        ids = net.ids
        tour = [ids[0]]
        remaining = set(ids[1:])
        while remaining:
            nxt = min(remaining, key=lambda j: (travel[tour[-1]][j], j))
            tour.append(nxt)
            remaining.remove(nxt)
        nn_len = sum(travel[tour[k]][tour[(k + 1) % 5]] for k in range(5))
        cyc = tsp_heuristic(net, ids)
        assert cyc.travel_time <= nn_len + 1e-12

    def test_unit_square_grid(self):
        # four targets on the unit square: best tour is the perimeter, length 4
        s = math.sqrt(2.0)
        edges = [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 1, 1.0),
                 (1, 3, s), (2, 4, s)]
        net = simple_network(edges)
        cyc = tsp_heuristic(net, {1, 2, 3, 4})
        # brute force over the three distinct tours of four nodes
        best = math.inf
        for perm in itertools.permutations([2, 3, 4]):
            tour = [1, *perm]
            best = min(best, sum(net.travel[tour[k]][tour[(k + 1) % 4]] for k in range(4)))
        assert best == pytest.approx(4.0)
        assert cyc.travel_time == pytest.approx(best)

    def test_single_target(self):
        net, _ = generate_random_instance(3, seed=1)
        cyc = tsp_heuristic(net, {2})
        assert len(cyc) == 1
        assert cyc.travel_time == 0.0


class TestCycleStructure:
    def test_ordinals_in_order_of_appearance(self):
        net, _ = generate_random_instance(4, seed=2)
        cyc = Cycle.from_targets(net, [1, 2, 1, 3, 4])
        ords = [(i.target, i.ordinal) for i in cyc.instances]
        assert ords == [(1, 1), (2, 1), (1, 2), (3, 1), (4, 1)]

    def test_gap_sums_equal_travel(self):
        net, _ = generate_random_instance(5, seed=3)
        cyc = Cycle.from_targets(net, [1, 2, 3, 2, 4, 5])
        gaps = cyc.visit_gaps()
        for tid, ws in gaps.items():
            assert sum(ws) == pytest.approx(cyc.travel_time, rel=1e-12)

    def test_pass_through_expansion(self):
        net = simple_network([(1, 2, 1.0), (2, 3, 1.0)])
        cyc = Cycle.from_targets(net, [1, 3])
        labels = [(i.target, i.dwell_eligible) for i in cyc.instances]
        assert labels == [(1, True), (2, False), (3, True), (2, False)]
        assert cyc.travel_time == pytest.approx(4.0)

    def test_adjacent_repeat_visits_kept_distinct(self):
        # a cycle may revisit a target across the wrap with a zero-length leg
        net, _ = generate_random_instance(2, seed=4)
        cyc = Cycle.from_targets(net, [1, 2, 1])
        assert [(i.target, i.ordinal) for i in cyc.instances] == [(1, 1), (2, 1), (1, 2)]
        assert cyc.legs[2] == 0.0
        gaps = cyc.visit_gaps()
        # the gap ending at the first instance is the zero wrap leg
        assert gaps[1][0] == 0.0
        assert gaps[1][1] == pytest.approx(2 * net.travel[1][2])

    def test_legs_are_fastest_travel_times(self):
        # the direct edge (1, 3) is dominated by the route through 4: a cycle
        # that joins 1 and 3 takes the fastest time, not the edge's
        edges = [(1, 2, 1.0), (2, 4, 1.0), (4, 3, 1.0), (1, 4, 1.0), (1, 3, 5.0), (2, 3, 3.0)]
        net = simple_network(edges, ids=[1, 2, 3, 4])
        cyc = Cycle(net, [(2, True), (1, True), (3, True), (4, True)])
        assert cyc.legs == [1.0, 2.0, 1.0, 1.0]
        assert cyc.cum == [0.0, 1.0, 3.0, 4.0, 5.0]
        assert Cycle(net, [(3, True)]).legs == []


class TestCycleMetric:
    def test_single_target_is_steady_cost(self):
        net, _ = generate_random_instance(3, seed=5)
        cache = SteadyStateCache(net)
        m = cycle_lower_bound(Cycle.from_targets(net, [1]), cache)
        assert m.value == pytest.approx(cache.steady_cost(1), rel=1e-12)
        assert m.max_gap[1] == 0.0

    def test_two_targets_hand_value(self):
        net = simple_network([(1, 2, 1.0)], a=0.3)
        cache = SteadyStateCache(net)
        m = cycle_lower_bound(Cycle.from_targets(net, [1, 2]), cache)
        assert m.max_gap == {1: 2.0, 2: 2.0}
        t = net.target(1)
        ss = cache.steady(1).omega_ss
        expected = t.g(cov_norm(propagate_unobserved(ss, t.A, t.Q, 2.0)))
        assert m.per_target[1] == pytest.approx(expected, rel=1e-9)
        assert m.value == pytest.approx(max(m.per_target.values()))

    def test_critical_tie_break_lowest_id(self):
        # two identical targets symmetric cycle: both attain the max; pick id 1
        net = simple_network([(1, 2, 1.0)], a=0.25)
        cache = SteadyStateCache(net)
        m = cycle_lower_bound(Cycle.from_targets(net, [1, 2]), cache)
        assert m.critical_target == 1
        assert m.critical_ordinal == 1


class TestEnumerateCmos:
    def test_type_two_inserts_second_visit_of_critical(self):
        net, _ = generate_random_instance(5, seed=7)
        cache = SteadyStateCache(net)
        cyc = tsp_heuristic(net, net.ids)
        m = cycle_lower_bound(cyc, cache)
        type_two = [_splice(cyc, *s) for k, s in enumerate_cmos(cyc, m) if k == "II"]
        assert type_two
        for c in type_two:
            assert len(c.positions_of(m.critical_target)) == 2

    def test_type_two_empty_for_two_instance_subcycle(self):
        net = simple_network([(1, 2, 1.0)], a=0.3)
        cache = SteadyStateCache(net)
        cyc = Cycle.from_targets(net, [1, 2])
        m = cycle_lower_bound(cyc, cache)
        kinds = [k for k, _ in enumerate_cmos(cyc, m)]
        assert "II" not in kinds

    def test_one_instance_cycle_has_no_candidates(self):
        # the critical span of a lone instance runs from it to itself
        net = simple_network([(1, 2, 1.0)], a=0.3)
        cyc = Cycle.from_targets(net, [1])
        m = cycle_lower_bound(cyc, SteadyStateCache(net))
        assert _critical_span(cyc, m) == (0, [0])
        assert enumerate_cmos(cyc, m) == []

    def test_candidate_count_bound(self):
        for seed in range(6):
            net, _ = generate_random_instance(6, seed=100 + seed)
            cache = SteadyStateCache(net)
            cyc = tsp_heuristic(net, net.ids)
            m = cycle_lower_bound(cyc, cache)
            _, span = _critical_span(cyc, m)
            cands = enumerate_cmos(cyc, m)
            assert len(cands) < 3 * len(span) + 1

    def test_modified_cycles_stay_well_formed(self):
        net, _ = generate_random_instance(6, seed=42)
        cache = SteadyStateCache(net)
        cyc = tsp_heuristic(net, net.ids)
        m = cycle_lower_bound(cyc, cache)
        for _, splice in enumerate_cmos(cyc, m):
            cand = _splice(cyc, *splice)
            per_target = {}
            for inst in cand.instances:
                per_target.setdefault(inst.target, []).append(inst.ordinal)
            for ords in per_target.values():
                assert ords == list(range(1, len(ords) + 1))
            gaps = cand.visit_gaps()
            for ws in gaps.values():
                assert sum(ws) == pytest.approx(cand.travel_time, rel=1e-9)

    def test_triangle_condition_shrinks_gaps(self):
        # splitting an interior edge (l, j) with |d(l,j) - d(i,j)| < d(l,j)
        # must leave both new revisit gaps of the critical target below the old one
        checked = 0
        for seed in range(10):
            net, _ = generate_random_instance(6, seed=500 + seed)
            cache = SteadyStateCache(net)
            cyc = tsp_heuristic(net, net.ids)
            m = cycle_lower_bound(cyc, cache)
            tid = m.critical_target
            w_star = m.max_gap[tid]
            prev, span = _critical_span(cyc, m)
            n = len(cyc.instances)
            t_before = 0.0
            for pos in [prev] + span[:-1]:
                u = cyc.instances[pos].target
                v = cyc.instances[(pos + 1) % n].target
                if u != tid and v != tid:
                    d_lj = net.travel[u][v]
                    d_ij = net.travel[tid][v]
                    if abs(d_lj - d_ij) < d_lj:
                        gap1 = t_before + net.travel[u][tid]
                        gap2 = d_ij + (w_star - t_before - d_lj)
                        checked += 1
                        assert max(gap1, gap2) < w_star
                t_before += cyc.legs[pos]
        assert checked > 10


@st.composite
def spliced_cycles(draw):
    """A cycle on a cluster view of a sparse graph, so fastest paths pass
    through members and non-members, with repeated visits, and one one-leg
    splice of it: a fastest path, a visit to any target (one new to the cycle
    too) or a detour whose repeated instance takes over the original leg."""
    n = draw(st.integers(2, 8))
    pairs = {(draw(st.integers(1, k - 1)), k) for k in range(2, n + 1)}
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(1, n)), draw(st.integers(1, n))
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    targets = [
        TargetSpec(id=k, A=draw(st.floats(-0.5, 0.8)), Q=draw(st.floats(0.2, 2.0)), H=1.0,
                   R=draw(st.floats(0.5, 6.0)), weight_alpha=draw(st.sampled_from([1e-3, 1.0, 50.0])))
        for k in range(1, n + 1)
    ]
    if draw(st.booleans()):
        targets[0] = TargetSpec(id=1, A=[[-0.3, 0.1], [0.0, 0.2]], Q=[[1.5, 0.2], [0.2, 1.8]],
                                H=[[1.0, 0.0], [0.0, 1.0]], R=[[2.0, 0.0], [0.0, 3.0]])
    net = TargetNetwork(targets=targets, edges=[(i, j, draw(st.floats(0.05, 1.0)))
                                                for i, j in sorted(pairs)])
    members = draw(st.sets(st.sampled_from(net.ids), min_size=1))
    view = cluster_subnetwork(net, members)
    cycle = Cycle.from_targets(view, draw(st.lists(st.sampled_from(sorted(members)),
                                                   min_size=1, max_size=6)))
    at = draw(st.integers(0, len(cycle) - 1))
    u = cycle.instances[at].target
    v = cycle.instances[(at + 1) % len(cycle)].target
    t = draw(st.sampled_from(net.ids))
    kind = draw(st.sampled_from(["path", "visit", "detour"] if len(cycle) > 1 else ["path", "visit"]))
    if kind == "path":
        splice = Splice(at, _path_between(net, u, v))
    elif kind == "visit":
        splice = Splice(at, _visit_between(net, u, t, v))
    else:
        splice = _detour(cycle, at, t, draw(st.booleans()))
    return cycle, splice, net, kind


class TestSpliceScore:
    @settings(max_examples=400, deadline=None)
    @given(spliced_cycles(), st.floats(0.0, 2.0))
    def test_score_matches_built_candidate(self, case, bound_share):
        cycle, splice, net, kind = case
        members = set(cycle.network.ids)
        present = cycle.target_ids
        added = {h for h, _ in splice.seq}
        event(f"wrap-around: {splice.at == len(cycle) - 1}")
        event(f"member pass-through: {any(h in members and not e for h, e in splice.seq)}")
        event(f"non-member pass-through: {bool(added - members)}")
        event(f"repeated visits: {any(len(cycle.positions_of(t)) > 1 for t in members)}")
        event(f"member new to the cycle: {bool((added & members) - present)}")
        event(f"kind: {kind}")
        cache = SteadyStateCache(net)
        metric = cycle_lower_bound(cycle, cache)
        table = _GapTable(cycle, metric, cache)
        want = cycle_lower_bound(_splice(cycle, *splice), cache).value
        got = table.score(splice, math.inf)
        assert got == want or abs(got - want) <= 1e-12 * abs(want)
        # with a bound, the score stops at the first floor above it
        bound = bound_share * want
        partial = table.score(splice, bound)
        if got <= bound:
            assert partial == got
        else:
            assert bound < partial <= got


class TestGreedyConstruct:
    def test_two_targets_no_steps(self):
        net, _ = generate_random_instance(2, seed=8)
        cycle, metric, trace = greedy_construct(net, net.ids)
        assert len(trace) == 1
        assert cycle.target_ids == {1, 2}

    def test_metric_strictly_decreases_along_trace(self):
        improved_any = False
        for seed in range(12):
            net, _ = generate_random_instance(7, seed=1000 + seed)
            _, _, trace = greedy_construct(net, net.ids)
            for a, b in zip(trace[:-1], trace[1:]):
                assert b < a
            improved_any = improved_any or len(trace) > 1
        assert improved_any

    def test_greedy_never_worse_than_seed(self):
        for seed in range(10):
            net, _ = generate_random_instance(6, seed=2000 + seed)
            cache = SteadyStateCache(net)
            seed_metric = cycle_lower_bound(tsp_heuristic(net, net.ids), cache)
            _, metric, _ = greedy_construct(net, net.ids, cache)
            assert metric.value <= seed_metric.value + 1e-12

    def test_against_brute_force_enumeration(self):
        net, _ = generate_random_instance(4, seed=9)
        cache = SteadyStateCache(net)
        _, metric, _ = greedy_construct(net, net.ids, cache)
        best = math.inf
        for seq in enumerate_cycles(net.ids, 6):
            cand = Cycle.from_targets(net, list(seq))
            if not cand.dwell_targets >= set(net.ids):
                continue
            best = min(best, cycle_lower_bound(cand, cache).value)
        # the greedy value can only match or sit above the enumerated optimum
        assert metric.value >= best - 1e-9
        gap = (metric.value - best) / best
        print(f"greedy vs brute-force gap: {gap:.2%}")


class TestCycleExport:
    def test_document_fields(self):
        net, _ = generate_random_instance(4, seed=10)
        cache = SteadyStateCache(net)
        cyc = tsp_heuristic(net, net.ids)
        m = cycle_lower_bound(cyc, cache)
        doc = cycle_to_document(cyc, m, cache)
        assert len(doc["instances"]) == len(cyc.instances)
        assert len(doc["per_instance_cost_floor"]) == len(cyc.instances)
        assert doc["metric"] == m.value
        assert doc["critical"]["target"] == m.critical_target
