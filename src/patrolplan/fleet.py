"""Fleet planning: partition the target network and plan each cluster.

The partition quality hinges on the pairwise disparity metric: the cost floor
of the best single cycle covering both targets, which the alternating
two-target cycle attains.  A Gaussian kernel turns disparities into
similarities, normalized spectral clustering splits the network, a greedy
cycle is built per cluster, and a target-exchange pass rebalances clusters
while it strictly improves the fleet's worst cost floor.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_CONFIG, PlannerConfig
from .cycles import (
    Cycle,
    CycleMetric,
    Splice,
    SteadyStateCache,
    _contenders,
    _critical_span,
    _path_between,
    cycle_lower_bound,
    cycle_to_document,
    greedy_construct,
    improve_cycle,  # unused here; perfbench/tracer.py wraps fleet.improve_cycle by name
)
from .dwell import Plan, plan_for_cycle
from .model import TargetNetwork

KMEANS_RESTARTS = 50     # k-means++ restarts per clustering
KMEANS_MAX_ITERS = 300   # Lloyd steps per restart
TES_MAX_COMMITS = 50     # target exchanges per refinement
BYPASS_MAX_RUN = 2       # instances a bypass CEO replaces, at most

__all__ = [
    "FleetError",
    "DisparityMatrix",
    "SimilarityMatrix",
    "Partition",
    "enumerate_ceos",
    "disparity_matrix",
    "similarity_from_disparity",
    "spectral_cluster",
    "cluster_subnetwork",
    "plan_fleet",
    "tes_refine",
    "partition_to_document",
]


class FleetError(RuntimeError):
    pass


@dataclass
class DisparityMatrix:
    ids: list[int]
    values: np.ndarray  # symmetric, zero diagonal


@dataclass
class SimilarityMatrix:
    ids: list[int]
    values: np.ndarray
    sigma: float


@dataclass
class Partition:
    """Disjoint target clusters with their cycles and metrics; a cycle's
    network is its cluster's view of ``network``."""

    network: TargetNetwork
    clusters: list[frozenset[int]]
    cycles: list[Cycle]
    metrics: list[CycleMetric]
    tes_log: list[dict] = field(default_factory=list)
    plans: list[Plan] | None = None

    @property
    def fleet_metric(self) -> float:
        return max(m.value for m in self.metrics)

    @property
    def fleet_cost(self) -> float:
        if self.plans is None:
            raise FleetError("dwell schedules have not been computed")
        return max(p.j_pred for p in self.plans)


# ---------------------------------------------------------------------------
# cycle expansion operations
# ---------------------------------------------------------------------------

def enumerate_ceos(cycle: Cycle, external: int) -> list[Splice]:
    """All expansions of ``cycle`` that add a visit to ``external``, as
    splices of it.

    Three kinds: insert on an edge, out-and-back after an instance, and
    replace a run of at most ``BYPASS_MAX_RUN`` instances (each appearing
    elsewhere too) with the external target.  Deterministic order.
    """
    network = cycle.network
    if external in cycle.eligible:
        raise ValueError(f"target {external} is already part of the cycle")
    seq = cycle.sequence()
    n = len(seq)
    # each half of a visit u -> external -> v, once per distinct hop
    to_ext = {u: _path_between(network, u, external) for u, _ in seq}
    from_ext = {v: _path_between(network, external, v) for v, _ in seq}

    def visit(u: int, v: int) -> list[tuple[int, bool]]:
        return to_ext[u] + [(external, True)] + from_ext[v]

    if n == 1:
        return [Splice(0, visit(seq[0][0], seq[0][0]))]
    out = [Splice(pos, visit(seq[pos][0], seq[(pos + 1) % n][0])) for pos in range(n)]
    # out-and-back after an instance; the repeat takes over its outgoing leg
    out += [Splice(pos, visit(u, u) + [(u, elig)]) for pos, (u, elig) in enumerate(seq)]
    # bypass a short interior run; every dwell visit removed must leave the
    # same target dwellable elsewhere in the cycle
    for start in range(n):
        removed: dict[int, int] = {}
        for run in range(1, BYPASS_MAX_RUN + 1):
            mid_pos = (start + run) % n
            end_pos = (start + run + 1) % n
            t_mid, mid_elig = seq[mid_pos]
            if mid_elig:
                removed[t_mid] = removed.get(t_mid, 0) + 1
            if end_pos == start:
                break
            if any(removed[t] >= len(cycle.eligible[t]) for t in removed):
                break
            out.append(Splice(start, visit(seq[start][0], seq[end_pos][0]), run + 1))
    return out


# ---------------------------------------------------------------------------
# disparity
# ---------------------------------------------------------------------------

def disparity_matrix(
    network: TargetNetwork,
    cache: SteadyStateCache | None = None,
) -> DisparityMatrix:
    """Covering-cycle disparity for every target pair.

    Any cycle covering both targets forces each one's worst revisit gap to at
    least the round-trip travel between them, and the alternating two-target
    cycle attains that bound, so the best covering-cycle cost is
    ``max(L_i(2 T_ij), L_j(2 T_ij))``.
    """
    cache = cache or SteadyStateCache(network)
    ids = sorted(network.ids)
    m = len(ids)
    values = np.zeros((m, m))
    for a, i in enumerate(ids):
        for b in range(a + 1, m):
            j = ids[b]
            round_trip = 2.0 * network.travel[i][j]
            d = max(cache.floor(i)(round_trip), cache.floor(j)(round_trip))
            values[a, b] = values[b, a] = d
    return DisparityMatrix(ids=ids, values=values)


def similarity_from_disparity(
    disparity: DisparityMatrix, sigma: float | None = None
) -> SimilarityMatrix:
    """Gaussian kernel similarity, self-similarity exactly one.  The default
    width is the median of the finite off-diagonal disparities (one if there
    is none); an infinite disparity has similarity zero."""
    d = disparity.values
    if sigma is None:
        off = d[~np.eye(d.shape[0], dtype=bool) & np.isfinite(d)]
        sigma = float(np.median(off)) if off.size else 1.0
        if sigma <= 0:
            sigma = 1.0
    # d and sigma scaled by sigma's power of two, which is exact: the kernel
    # keeps every digit of exp(-d^2 / (2 sigma^2)), and sigma^2 cannot
    # overflow (far-apart unstable targets give sigma near 1e170)
    e = math.frexp(sigma)[1]
    s = np.exp(-(np.ldexp(d, -e) ** 2) / (2.0 * math.ldexp(sigma, -e) ** 2))
    return SimilarityMatrix(ids=disparity.ids, values=s, sigma=sigma)


# ---------------------------------------------------------------------------
# spectral clustering
# ---------------------------------------------------------------------------

def _kmeans_plus_plus(points: np.ndarray, k: int, rng) -> np.ndarray:
    n = points.shape[0]
    centers = [points[rng.integers(n)]]
    for _ in range(k - 1):
        d2 = np.min(
            [np.sum((points - c) ** 2, axis=1) for c in centers], axis=0
        )
        total = d2.sum()
        if total <= 0:
            centers.append(points[rng.integers(n)])
            continue
        probs = d2 / total
        centers.append(points[rng.choice(n, p=probs)])
    return np.array(centers)


def _lloyd(points: np.ndarray, centers: np.ndarray, max_iters: int) -> tuple[np.ndarray, float]:
    k = centers.shape[0]
    labels = np.zeros(points.shape[0], dtype=int)
    for _ in range(max_iters):
        dists = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
        new_labels = dists.argmin(axis=1)
        for c in range(k):
            members = points[new_labels == c]
            if len(members) == 0:
                # reseed an empty cluster at the point farthest from its center
                far = dists.min(axis=1).argmax()
                centers[c] = points[far]
                new_labels[far] = c
            else:
                centers[c] = members.mean(axis=0)
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    wcss = 0.0
    for c in range(k):
        members = points[labels == c]
        if len(members) == 0:
            return labels, math.inf
        wcss += float(((members - members.mean(axis=0)) ** 2).sum())
    return labels, wcss


def spectral_cluster(
    similarity: SimilarityMatrix,
    n_clusters: int,
    seed: int = 0,
) -> list[set[int]]:
    """Normalized spectral clustering of the similarity graph.

    Solves the generalized eigenproblem L u = lambda D u (the symmetric form
    of the random-walk normalized Laplacian), embeds targets into the first
    ``n_clusters`` eigenvectors, and k-means-clusters the rows with
    ``KMEANS_RESTARTS`` restarts of at most ``KMEANS_MAX_ITERS`` Lloyd steps
    each.
    """
    ids = similarity.ids
    m = len(ids)
    if not 1 <= n_clusters <= m:
        raise FleetError(f"cannot split {m} targets into {n_clusters} clusters")
    W = similarity.values
    D = np.diag(W.sum(axis=1))
    L = D - W
    import scipy.linalg   # here, so that only fleet planning loads scipy
    eigvals, eigvecs = scipy.linalg.eigh(L, D)
    U = eigvecs[:, :n_clusters]
    rng = np.random.default_rng(seed)
    best_labels, best_wcss = None, math.inf
    for _ in range(KMEANS_RESTARTS):
        centers = _kmeans_plus_plus(U, n_clusters, rng)
        labels, wcss = _lloyd(U, centers.copy(), KMEANS_MAX_ITERS)
        if len(set(labels.tolist())) < n_clusters:
            continue
        if wcss < best_wcss:
            best_labels, best_wcss = labels, wcss
    if best_labels is None:
        raise FleetError("k-means produced an empty cluster in every restart")
    clusters = [set() for _ in range(n_clusters)]
    for tid, lab in zip(ids, best_labels):
        clusters[lab].add(tid)
    clusters.sort(key=lambda c: min(c))
    return clusters


# ---------------------------------------------------------------------------
# cluster view
# ---------------------------------------------------------------------------

def cluster_subnetwork(network: TargetNetwork, members: set[int]) -> TargetNetwork:
    """The cluster's view of ``network``: ``targets``, ``ids``, ``positions``
    and ``target()`` cover ``members`` only, while ``edges``, ``travel`` and
    the predecessor table that ``hops`` walks are the parent's own objects.
    A fastest route may pass through a target outside the cluster; a cycle
    carries it as a pass-through instance, which takes no dwell and no part
    in the metric.
    """
    view = copy.copy(network)
    view.targets = [t for t in network.targets if t.id in members]
    view.positions = {i: p for i, p in network.positions.items() if i in members}
    view._by_id = {t.id: t for t in view.targets}
    return view


# ---------------------------------------------------------------------------
# fleet pipeline
# ---------------------------------------------------------------------------

def _build_cluster(network, members, cache) -> tuple[Cycle, CycleMetric]:
    cycle, metric, _ = greedy_construct(cluster_subnetwork(network, members),
                                        sorted(members), cache)
    return cycle, metric


def plan_fleet(
    network: TargetNetwork,
    num_agents: int,
    cache: SteadyStateCache | None = None,
    config: PlannerConfig | None = None,
) -> Partition:
    """Cluster the network on the covering-cycle disparity, build a cycle per
    cluster, rebalance with target exchanges, then schedule dwells per
    cluster."""
    cfg = config or DEFAULT_CONFIG
    cache = cache or SteadyStateCache(network)
    if num_agents < 1:
        raise FleetError("need at least one agent")
    if num_agents > len(network.ids):
        raise FleetError("more agents than targets")
    sim = similarity_from_disparity(disparity_matrix(network, cache), cfg.sigma)
    clusters = [frozenset(c) for c in spectral_cluster(sim, num_agents, seed=cfg.seed)]
    built = [_build_cluster(network, members, cache) for members in clusters]
    partition = tes_refine(Partition(
        network=network,
        clusters=clusters,
        cycles=[cycle for cycle, _ in built],
        metrics=[metric for _, metric in built],
    ), cache)
    partition.plans = [plan_for_cycle(cycle, cache, cfg) for cycle in partition.cycles]
    return partition


# ---------------------------------------------------------------------------
# target-exchange refinement
# ---------------------------------------------------------------------------

def _reexpanded(network, cache, cycle, members) -> tuple[Cycle, CycleMetric]:
    """``cycle``'s dwell order restricted to ``members``, expanded along
    fastest paths over the view of ``members``, and its cost floor; no greedy
    improvement.  Where dropping a target leaves two visits to one target
    back to back, the zero-length leg between them changes no gap's maximum.
    Both exchange estimates start here; they only rank candidates, and a
    commit rebuilds both clusters."""
    order = [t for t, elig in cycle.sequence() if elig and t in members]
    expanded = Cycle.from_targets(cluster_subnetwork(network, members), order)
    return expanded, cycle_lower_bound(expanded, cache)


def _annex_gain(network, cache, cycle, members, join: int) -> float:
    """The largest floor decrease, usually negative, among the expansions
    that add a visit to ``join`` to ``cycle`` re-expanded over ``members``
    and ``join``."""
    base, base_metric = _reexpanded(network, cache, cycle, members | {join})
    best = -math.inf
    for _, _, cand_metric in _contenders(base, base_metric, enumerate_ceos(base, join), cache):
        gain = base_metric.value - cand_metric.value
        if gain > best:
            best = gain
    return best


def tes_refine(partition: Partition, cache: SteadyStateCache | None = None) -> Partition:
    """Move targets out of the fleet-critical cluster while the fleet's worst
    cost floor improves, or, on a plateau, while the balance across clusters
    strictly improves.

    Candidates come from the critical sub-cycle; they are ranked by the
    estimated annex + removal gain and the first exchange whose full rebuild
    passes the commit test is applied.  The removal gain is estimated from
    the floor of the critical cycle re-expanded without the target, the annex
    gain from the receiving cycle's best expansion to it (``_annex_gain``);
    neither runs a greedy improvement.
    """
    cache = cache or SteadyStateCache(partition.network)
    network = partition.network
    clusters = [frozenset(c) for c in partition.clusters]
    # cycle and metric by member set, and annex gains by (member set, joining
    # target): both depend on the member set alone, so a commit, which swaps
    # two member sets, leaves every entry valid
    built = dict(zip(clusters, zip(partition.cycles, partition.metrics)))
    annex_gains: dict[tuple[frozenset[int], int], float] = {}
    log: list[dict] = []

    def metric_of(members: frozenset[int]) -> CycleMetric:
        if members not in built:
            built[members] = _build_cluster(network, members, cache)
        return built[members][1]

    for _ in range(TES_MAX_COMMITS):
        values = [metric_of(c).value for c in clusters]
        fleet_val = max(values)
        ratio = fleet_val / min(values)
        a_star = next((k for k, v in enumerate(values) if v == fleet_val), None)
        if a_star is None or len(clusters[a_star]) <= 1:
            break
        members_a = clusters[a_star]
        cycle_a, metric_a = built[members_a]
        # receivers outside, critical targets inside: a removal estimate is
        # made only for a target that some other cluster could receive
        critical = _critical_span_targets(cycle_a, metric_a)
        candidates, removals = [], {}
        for b, members_b in enumerate(clusters):
            if b == a_star:
                continue
            for j in critical:
                if j not in removals:
                    rest = _reexpanded(network, cache, cycle_a, members_a - {j})[1]
                    removals[j] = metric_a.value - rest.value
                if (members_b, j) not in annex_gains:
                    annex_gains[members_b, j] = _annex_gain(network, cache, built[members_b][0],
                                                            members_b, j)
                candidates.append((removals[j] + annex_gains[members_b, j], j, b))
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        for est_gain, j, b in candidates:
            new_clusters = list(clusters)
            new_clusters[a_star], new_clusters[b] = members_a - {j}, clusters[b] | {j}
            new_values = [metric_of(c).value for c in new_clusters]
            new_fleet = max(new_values)
            new_ratio = new_fleet / min(new_values)
            # commit on a strictly lower worst cost floor, or on equal floor
            # with strictly better balance (escapes plateaus; the pair
            # (worst, ratio) decreases lexicographically, so this terminates)
            improves = new_fleet < fleet_val * (1.0 - 1e-12)
            rebalances = (
                new_fleet <= fleet_val * (1.0 + 1e-12)
                and new_ratio < ratio * (1.0 - 1e-9)
            )
            if improves or rebalances:
                clusters = new_clusters
                log.append({
                    "moved_target": j,
                    "from_cluster": a_star,
                    "to_cluster": b,
                    "estimated_gain": est_gain,
                    "fleet_metric_before": fleet_val,
                    "fleet_metric_after": new_fleet,
                    "ratio_before": ratio,
                    "ratio_after": new_ratio,
                })
                break
        else:
            break
    return Partition(
        network=network,
        clusters=clusters,
        cycles=[built[c][0] for c in clusters],
        metrics=[built[c][1] for c in clusters],
        tes_log=partition.tes_log + log,
        plans=None,
    )


def _critical_span_targets(cycle: Cycle, metric: CycleMetric) -> list[int]:
    """Member targets inside the critical sub-cycle, critical target included."""
    _, span = _critical_span(cycle, metric)
    return sorted({cycle.instances[pos].target for pos in span}.intersection(cycle.network.ids))


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def partition_to_document(partition: Partition) -> dict:
    """The fleet document of ``partition``, its floors from a fresh cache."""
    cache = SteadyStateCache(partition.network)
    doc = {
        "format": "fleet-plan",
        "num_agents": len(partition.clusters),
        "fleet_metric": partition.fleet_metric,
        "clusters": [sorted(c) for c in partition.clusters],
        "cluster_metrics": [m.value for m in partition.metrics],
        "cycles": [
            cycle_to_document(cycle, metric, cache)
            for cycle, metric in zip(partition.cycles, partition.metrics)
        ],
        "target_exchanges": partition.tes_log,
    }
    if partition.plans is not None:
        doc["fleet_cost"] = partition.fleet_cost
        doc["plans"] = [p.to_document() for p in partition.plans]
    return doc
