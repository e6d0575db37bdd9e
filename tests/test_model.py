import json
import math
import re

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

from patrolplan.config import ParamRanges
from patrolplan.cycles import SteadyStateCache
from patrolplan.fleet import cluster_subnetwork
from patrolplan.model import (
    MAX_RANDOM_TARGETS,
    InstanceError,
    TargetSpec,
    TargetNetwork,
    generate_random_instance,
    instance_to_document,
    load_instance,
)

from oracles import TABLE1, link_matrix


def table1_document():
    return {
        "targets": [
            {"id": k + 1, "A": TABLE1["A"][k], "Q": TABLE1["Q"][k], "H": 1.0, "R": TABLE1["R"][k]}
            for k in range(5)
        ],
        "edges": [
            {"i": 1, "j": 2, "d": 0.3}, {"i": 1, "j": 3, "d": 0.2},
            {"i": 1, "j": 4, "d": 0.4}, {"i": 1, "j": 5, "d": 0.25},
            {"i": 2, "j": 3, "d": 0.35}, {"i": 2, "j": 4, "d": 0.15},
            {"i": 2, "j": 5, "d": 0.3}, {"i": 3, "j": 4, "d": 0.45},
            {"i": 3, "j": 5, "d": 0.1}, {"i": 4, "j": 5, "d": 0.5},
        ],
        "agents": {"count": 1},
    }


class TestLoadInstance:
    def test_table1_loads_with_derived_gain(self):
        network, fleet = load_instance(table1_document())
        assert fleet.num_agents == 1
        g1 = network.target(1).G[0, 0]
        assert g1 == pytest.approx(1.0 / 2.3140, rel=1e-12)
        assert g1 == pytest.approx(0.43216, abs=1e-5)

    def test_single_target_no_edges(self):
        doc = {"targets": [{"id": 0, "A": 0.1, "Q": 1.0, "H": 1.0, "R": 1.0}],
               "edges": [], "agents": {"count": 1}}
        network, _ = load_instance(doc)
        assert network.travel[0][0] == 0.0
        assert network.hops(0, 0) == []

    def test_path_graph_shortest(self):
        doc = {
            "targets": [{"id": k, "A": 0.1, "Q": 1.0, "H": 1.0, "R": 1.0} for k in (1, 2, 3)],
            "edges": [{"i": 1, "j": 2, "d": 1.0}, {"i": 2, "j": 3, "d": 1.0}],
            "agents": {"count": 1},
        }
        network, _ = load_instance(doc)
        assert network.travel[1][3] == pytest.approx(2.0)
        assert network.hops(1, 3) == [2]

    def test_non_pd_noise_rejected(self):
        doc = table1_document()
        doc["targets"][2]["Q"] = -1.0
        with pytest.raises(InstanceError, match="target 3"):
            load_instance(doc)

    def test_unobservable_pair_rejected(self):
        doc = {
            "targets": [{
                "id": 7,
                "A": [[0.0, 1.0], [0.0, 0.0]],
                "Q": [[1.0, 0.0], [0.0, 1.0]],
                "H": [[0.0, 1.0]],
                "R": 1.0,
            }],
            "edges": [],
            "agents": {"count": 1},
        }
        with pytest.raises(InstanceError, match="target 7.*observable"):
            load_instance(doc)

    def test_disconnected_graph_rejected(self):
        doc = {
            "targets": [{"id": k, "A": 0.1, "Q": 1.0, "H": 1.0, "R": 1.0} for k in (1, 2, 3)],
            "edges": [{"i": 1, "j": 2, "d": 1.0}],
            "agents": {"count": 1},
        }
        with pytest.raises(InstanceError, match="disconnected: no route between 1 and 3$"):
            load_instance(doc)

    def test_agents_exceeding_targets_rejected(self):
        doc = table1_document()
        doc["agents"]["count"] = 6
        with pytest.raises(InstanceError, match="agents"):
            load_instance(doc)

    def test_bad_edge_reference_rejected(self):
        doc = table1_document()
        doc["edges"].append({"i": 1, "j": 99, "d": 1.0})
        with pytest.raises(InstanceError, match="99"):
            load_instance(doc)

    @pytest.mark.parametrize("edit, field", [
        (lambda doc: doc["edges"][0].update(d=float("nan")), r"edge \(1, 2\): d"),
        (lambda doc: doc["edges"][0].update(d=float("inf")), r"edge \(1, 2\): d"),
        (lambda doc: doc["targets"][1].update(A=float("nan")), "target 2: field A"),
        (lambda doc: doc["targets"][1].update(Q=[[float("inf")]]), "target 2: field Q"),
        (lambda doc: doc["targets"][1].update(weight_alpha=float("nan")), "target 2: weight_alpha"),
        (lambda doc: doc["targets"][1].update(id=2.5), "target id must be an integer"),
        (lambda doc: doc["agents"].update(count=1.7), "agents.count"),
        (lambda doc: doc["agents"].update(count="x"), "agents.count"),
    ], ids=["nan-d", "inf-d", "nan-A", "inf-Q", "nan-alpha", "fractional-id",
            "fractional-count", "string-count"])
    def test_bad_number_rejected_naming_field(self, edit, field):
        doc = table1_document()
        edit(doc)
        with pytest.raises(InstanceError, match=field):
            load_instance(doc)


class TestGenerateRandom:
    def test_deterministic_for_seed(self):
        net_a, _ = generate_random_instance(5, seed=7)
        net_b, _ = generate_random_instance(5, seed=7)
        for ta, tb in zip(net_a.targets, net_b.targets):
            assert np.array_equal(ta.A, tb.A)
            assert np.array_equal(ta.Q, tb.Q)
            assert np.array_equal(ta.R, tb.R)
        assert net_a.edges == net_b.edges

    def test_edges_match_the_pairwise_loop(self):
        network, _ = generate_random_instance(12, seed=3)
        pos = network.positions
        assert network.edges == [
            (a, b, float(np.hypot(pos[a][0] - pos[b][0], pos[a][1] - pos[b][1])))
            for a in range(1, 13) for b in range(a + 1, 13)
        ]

    def test_single_target_has_no_edges(self):
        network, _ = generate_random_instance(1, seed=0)
        assert network.edges == []
        assert len(network.targets) == 1

    def test_complete_graph_edge_count(self):
        network, _ = generate_random_instance(15, seed=3)
        assert len(network.edges) == 15 * 14 // 2
        assert all(math.isfinite(t) for row in network.travel.values() for t in row.values())

    def test_stable_fraction(self):
        ranges = ParamRanges(stable_fraction=0.4)
        network, _ = generate_random_instance(5, seed=11, param_ranges=ranges)
        cache = SteadyStateCache(network)
        n_stable = sum(cache.steady(tid).a_is_hurwitz for tid in network.ids)
        assert n_stable == 2

    @pytest.mark.parametrize("num_targets", [0, MAX_RANDOM_TARGETS + 1, 10**9])
    def test_target_count_outside_range_names_num_targets(self, num_targets):
        with pytest.raises(InstanceError, match="num_targets"):
            generate_random_instance(num_targets, seed=0)


def line_targets(ids=(1, 2, 3)):
    return [TargetSpec(id=k, A=0.1, Q=1.0, H=1.0, R=1.0) for k in ids]


class TestNetworkRejects:
    @pytest.mark.parametrize("edges, message", [
        ([(1, 2, 1.0), (2, 2, 1.0)], "edge (2, 2) is a self-loop"),
        ([(1, 2, 1.0), (2, 3, 1.0), (1, 2, 2.0)], "duplicate edge (1, 2)"),
        ([(1, 2, 1.0), (2, 1, 1.0)], "duplicate edge (2, 1)"),
        ([(1, 2, 0.0), (2, 3, 1.0), (1, 2, 0.0)], "duplicate edge (1, 2)"),
        ([(1, 2, -0.5)], "edge (1, 2) has a negative or non-finite travel time"),
        ([(1, 2, math.inf)], "edge (1, 2) has a negative or non-finite travel time"),
        ([(1, 2, math.nan)], "edge (1, 2) has a negative or non-finite travel time"),
        ([(1, 2, 1.0), (3, 9, 1.0)], "edge (3, 9) references an unknown target"),
    ], ids=["self-loop", "duplicate", "reversed-duplicate", "zero-length-duplicate",
            "negative", "infinite", "nan", "unknown-target"])
    def test_bad_edge_is_named(self, edges, message):
        with pytest.raises(InstanceError, match=f"^{re.escape(message)}$"):
            TargetNetwork(targets=line_targets(), edges=edges)

    def test_duplicate_ids(self):
        with pytest.raises(InstanceError, match="^duplicate target ids$"):
            TargetNetwork(targets=line_targets((1, 2, 1)), edges=[(1, 2, 1.0)])

    def test_first_faulty_edge_is_reported(self):
        # each edge is checked in full (unknown target, self-loop, travel
        # time, duplicate) before the next one is read
        edges = [(1, 2, 1.0), (3, 3, -1.0), (1, 9, 1.0), (2, 1, 1.0)]
        with pytest.raises(InstanceError, match=r"^edge \(3, 3\) is a self-loop$"):
            TargetNetwork(targets=line_targets(), edges=edges)
        with pytest.raises(InstanceError, match=r"^edge \(9, 9\) references an unknown"):
            TargetNetwork(targets=line_targets(), edges=[(9, 9, -1.0), *edges])


class TestNetworkInvariants:
    def test_triangle_inequality_closure(self):
        network, _ = generate_random_instance(8, seed=21)
        ids = network.ids
        for i in ids:
            for j in ids:
                for k in ids:
                    assert network.travel[i][k] <= network.travel[i][j] + network.travel[j][k] + 1e-12

    def test_gain_reconstruction(self):
        network, _ = generate_random_instance(6, seed=4)
        for t in network.targets:
            rebuilt = t.H.T @ np.linalg.solve(t.R, t.H)
            assert np.allclose(rebuilt, t.G, rtol=1e-12, atol=0)

    def test_serialization_round_trip(self):
        network, fleet = generate_random_instance(6, seed=13, num_agents=2)
        doc = instance_to_document(network, fleet)
        blob = json.dumps(doc)
        network2, fleet2 = load_instance(json.loads(blob))
        assert fleet2.num_agents == fleet.num_agents
        for ta, tb in zip(network.targets, network2.targets):
            assert np.array_equal(ta.A, tb.A)
            assert np.array_equal(ta.Q, tb.Q)
            assert np.array_equal(ta.H, tb.H)
            assert np.array_equal(ta.R, tb.R)
            assert ta.weight_alpha == tb.weight_alpha
        for (i, j, d), (i2, j2, d2) in zip(network.edges, network2.edges):
            assert (i, j) == (i2, j2)
            assert d == d2

    def test_matrix_target_accepted(self):
        spec = TargetSpec(
            id=1,
            A=[[0.0, 1.0], [-0.5, -0.2]],
            Q=[[0.5, 0.0], [0.0, 0.5]],
            H=[[1.0, 0.0]],
            R=0.8,
        )
        assert spec.dim == 2
        assert not spec.is_scalar
        assert spec.G.shape == (2, 2)

    def test_subnetwork_restores_connectivity_paths(self):
        # line 1-2-3: cluster {1, 3} has no edge of its own; its view keeps
        # the parent's route through target 2
        network = TargetNetwork(
            targets=[TargetSpec(id=k, A=0.1, Q=1.0, H=1.0, R=1.0) for k in (1, 2, 3)],
            edges=[(1, 2, 1.0), (2, 3, 1.0)],
        )
        sub = cluster_subnetwork(network, {1, 3})
        assert sub.ids == [1, 3]
        assert sub.travel is network.travel and sub._pred is network._pred
        assert sub.hops(1, 3) == [2]
        assert sub.edges is network.edges

    def test_zero_length_edge_keeps_line_connected(self):
        network = TargetNetwork(
            targets=[TargetSpec(id=k, A=0.1, Q=1.0, H=1.0, R=1.0) for k in (1, 2, 3)],
            edges=[(1, 2, 0.0), (2, 3, 1.5)],
        )
        assert network.travel[1][2] == 0.0
        assert network.travel[1][3] == 1.5
        assert network.hops(1, 3) == [2]
        # the same graph as a dense matrix reads the zero as "no edge"
        dense = link_matrix(network.ids, network.edges).toarray()
        assert math.isinf(shortest_path(dense, method="FW", directed=False)[0, 1])

    def test_target_lookup_by_id(self):
        network = TargetNetwork(
            targets=[TargetSpec(id=k, A=0.1, Q=1.0, H=1.0, R=1.0) for k in (4, 7, 9)],
            edges=[(4, 7, 1.0), (7, 9, 1.0)],
        )
        assert [network.target(k).id for k in (9, 4, 7)] == [9, 4, 7]
        sub = cluster_subnetwork(network, {4, 9})
        assert sub.target(9) is network.target(9)
        with pytest.raises(KeyError):
            sub.target(7)
        with pytest.raises(KeyError):
            network.target(5)
