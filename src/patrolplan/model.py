"""Problem instances: target dynamics, travel network, fleet size.

An instance is a set of targets with linear-Gaussian internal dynamics, an
undirected travel-time graph over them, and an agent count.  Loading validates
every structural requirement (definiteness, observability, connectivity) and
precomputes the all-pairs fastest travel times with a predecessor table, from
which each physical route is read on demand.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .config import ParamRanges

# most targets a random instance may have: its complete graph is built as
# N(N-1)/2 Python edges (2000 targets took 1.4 GB), then a dense N x N
# fastest-path matrix
MAX_RANDOM_TARGETS = 1000

# entries of the travel closure updated per numpy pass (512 kB of doubles)
FW_BLOCK_ENTRIES = 1 << 16

__all__ = [
    "MAX_RANDOM_TARGETS",
    "InstanceError",
    "TargetSpec",
    "TargetNetwork",
    "FleetSpec",
    "load_instance",
    "load_instance_file",
    "read_json_file",
    "instance_to_document",
    "generate_random_instance",
]


class InstanceError(ValueError):
    """Raised when an instance document violates the schema or an invariant."""


def _number(value: Any, name: str) -> float:
    """A finite JSON number, else an error naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise InstanceError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _integer(value: Any, name: str) -> int:
    """An integral JSON number (``3`` or ``3.0``), else an error naming ``name``."""
    if not _number(value, name).is_integer():
        raise InstanceError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_matrix(value: Any, name: str, tid: int) -> np.ndarray:
    """Accept a bare number as a 1x1 matrix, else row-major nested lists."""
    try:
        mat = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InstanceError(f"target {tid}: field {name} is not numeric") from exc
    if mat.ndim < 2:
        mat = mat.reshape(1, -1)
    if mat.ndim != 2:
        raise InstanceError(f"target {tid}: field {name} must be a matrix")
    if not np.all(np.isfinite(mat)):
        raise InstanceError(f"target {tid}: field {name} has a non-finite entry")
    return mat


def _check_spd(mat: np.ndarray, name: str, tid: int) -> None:
    if not np.allclose(mat, mat.T, atol=1e-12):
        raise InstanceError(f"target {tid}: {name} is not symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    if eigs.min() <= 0:
        raise InstanceError(f"target {tid}: {name} is not positive definite")


def _observability_rank(a: np.ndarray, h: np.ndarray) -> int:
    blocks = [h]
    for _ in range(a.shape[0] - 1):
        blocks.append(blocks[-1] @ a)
    return int(np.linalg.matrix_rank(np.vstack(blocks)))


@dataclass
class TargetSpec:
    """One target: drift A, process noise Q, observation map H, sensor noise R.

    ``G = H' R^-1 H`` is derived at construction.  ``weight_alpha`` scales the
    linear cost weight applied to the covariance trace.
    """

    id: int
    A: np.ndarray
    Q: np.ndarray
    H: np.ndarray
    R: np.ndarray
    weight_alpha: float = 1.0
    G: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.A = _as_matrix(self.A, "A", self.id)
        dim = self.A.shape[0]
        if self.A.shape != (dim, dim):
            raise InstanceError(f"target {self.id}: A must be square")
        self.Q = _as_matrix(self.Q, "Q", self.id)
        self.H = _as_matrix(self.H, "H", self.id)
        self.R = _as_matrix(self.R, "R", self.id)
        if self.Q.shape != (dim, dim):
            raise InstanceError(f"target {self.id}: Q must match A's shape")
        if self.H.shape[1] != dim:
            raise InstanceError(f"target {self.id}: H must have {dim} columns")
        m = self.H.shape[0]
        if self.R.shape != (m, m):
            raise InstanceError(f"target {self.id}: R must be {m}x{m}")
        _check_spd(self.Q, "Q", self.id)
        _check_spd(self.R, "R", self.id)
        if not 0 < self.weight_alpha < math.inf:
            raise InstanceError(f"target {self.id}: weight_alpha must be positive and finite")
        if _observability_rank(self.A, self.H) < dim:
            raise InstanceError(f"target {self.id}: (A, H) is not observable")
        self.G = self.H.T @ np.linalg.solve(self.R, self.H)
        if self.is_scalar and self.A[0, 0] < 0.0:
            # the always-observed steady state q / (s - a) floors every cost
            # of the target; one that underflows (A = -1.7e308) would reach a
            # cost ratio or a log as 0.  An overflowing one is the planner's
            # to report.  Function-local: covariance imports this module.
            from .covariance import EngineError, _scalar_riccati_root
            a = float(self.A[0, 0])
            try:
                root = _scalar_riccati_root(a, float(self.Q[0, 0]), float(self.G[0, 0]))
            except EngineError:
                root = math.inf
            if root < sys.float_info.min:
                raise InstanceError(f"target {self.id}: A = {a!r} makes the always-observed "
                                    f"steady covariance {root!r} underflow the double range")

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @property
    def is_scalar(self) -> bool:
        return self.dim == 1

    def g(self, x: float) -> float:
        """Cost weight: linear, g(x) = weight_alpha * x."""
        return self.weight_alpha * x


@dataclass
class FleetSpec:
    """Number of deployed agents."""

    num_agents: int

    def validate(self, num_targets: int) -> None:
        if self.num_agents < 1:
            raise InstanceError("agents.count must be >= 1")
        if self.num_agents > num_targets:
            raise InstanceError(
                f"agents.count {self.num_agents} exceeds number of targets {num_targets}"
            )


@dataclass
class TargetNetwork:
    """Targets plus the undirected travel graph and its shortest-path closure.

    ``travel[i][j]`` is the fastest travel time between targets i and j;
    ``hops(i, j)`` lists the intermediate targets traversed (exclusive of the
    endpoints), walked from a predecessor table on each call.  Indices are
    target ids.  A cluster's network is a view of its parent
    (``fleet.cluster_subnetwork``): ``targets``, ``ids`` and ``target()``
    cover the members only, while ``edges``, ``travel`` and the predecessor
    table are the parent's, so a route may pass through a target outside the
    view.  Immutable after construction.
    """

    targets: list[TargetSpec]
    edges: list[tuple[int, int, float]]
    positions: dict[int, tuple[float, float]] = field(default_factory=dict)
    travel: dict[int, dict[int, float]] = field(init=False)

    def __post_init__(self) -> None:
        ids = self.ids
        if len(set(ids)) != len(ids):
            raise InstanceError("duplicate target ids")
        self._by_id = {t.id: t for t in self.targets}
        self._floyd_warshall()

    def _floyd_warshall(self) -> None:
        """All-pairs closure by Floyd-Warshall (Floyd, "Algorithm 97", CACM
        1962), one pivot at a time over dense arrays.  An entry improves only
        on a strictly shorter route, and then takes its predecessor from the
        pivot's row; an edge of length zero is an edge like any other.
        ``InstanceError`` naming the first edge, in list order, with an
        unknown target, a self-loop, a travel time outside [0, inf) or a pair
        already joined, else the first pair, in the order of ``ids``, with no
        route."""
        ids = self.ids
        n = len(ids)
        row = {t: a for a, t in enumerate(ids)}
        dist = np.full((n, n), math.inf)
        for i, j, d in self.edges:
            a, b = row.get(i), row.get(j)
            if a is None or b is None:
                raise InstanceError(f"edge ({i}, {j}) references an unknown target")
            if a == b:
                raise InstanceError(f"edge ({i}, {j}) is a self-loop")
            if not 0 <= d < math.inf:
                raise InstanceError(f"edge ({i}, {j}) has a negative or non-finite travel time")
            if dist[a, b] != math.inf:
                raise InstanceError(f"duplicate edge ({i}, {j})")
            dist[a, b] = dist[b, a] = d
        np.fill_diagonal(dist, 0.0)
        # pred[a, b]: row of b's predecessor on the fastest route from row a;
        # -1 for none (b == a, or no route)
        pred = np.where(np.isinf(dist), -1, np.arange(n)[:, None])
        np.fill_diagonal(pred, -1)
        # a block of rows at a time, so that each pivot's passes stay in cache
        rows = max(1, FW_BLOCK_ENTRIES // n)
        via = np.empty((min(rows, n), n))
        better = np.empty(via.shape, dtype=bool)
        for k in range(n):
            # dist[k, k] is 0, so pivot k never changes its own row or column
            for lo in range(0, n, rows):
                d, p = dist[lo:lo + rows], pred[lo:lo + rows]
                v, b = via[:len(d)], better[:len(d)]
                np.add(d[:, k, None], dist[k], out=v)
                np.less(v, d, out=b)
                if b.any():
                    np.copyto(d, v, where=b)
                    np.copyto(p, pred[k], where=b)
        unreachable = np.argwhere(np.isinf(dist))
        if len(unreachable):
            a, b = unreachable[0]
            raise InstanceError(f"graph is disconnected: no route between {ids[a]} and {ids[b]}")
        self.travel = {i: dict(zip(ids, r)) for i, r in zip(ids, dist.tolist())}
        self._route_ids = ids
        self._route_row = row
        self._pred = pred

    def hops(self, u: int, v: int) -> list[int]:
        """The targets strictly between ``u`` and ``v`` on the fastest route
        from ``u`` to ``v``, in travel order."""
        a = self._route_row[u]
        pred, ids = self._pred, self._route_ids
        route = []
        k = pred.item(a, self._route_row[v])
        while k != a and k >= 0:
            route.append(ids[k])
            k = pred.item(a, k)
        route.reverse()
        return route

    @property
    def ids(self) -> list[int]:
        return [t.id for t in self.targets]

    def target(self, tid: int) -> TargetSpec:
        return self._by_id[tid]


def _parse_targets(raw: Any) -> list[TargetSpec]:
    if not isinstance(raw, list) or not raw:
        raise InstanceError("'targets' must be a non-empty list")
    targets = []
    for entry in raw:
        if not isinstance(entry, dict):
            raise InstanceError("each target must be an object")
        missing = {"id", "A", "Q", "H", "R"} - entry.keys()
        if missing:
            raise InstanceError(f"target entry missing keys: {sorted(missing)}")
        tid = _integer(entry["id"], "target id")
        targets.append(
            TargetSpec(
                id=tid,
                A=entry["A"],
                Q=entry["Q"],
                H=entry["H"],
                R=entry["R"],
                weight_alpha=_number(entry.get("weight_alpha", 1.0), f"target {tid}: weight_alpha"),
            )
        )
    return sorted(targets, key=lambda t: t.id)


def load_instance(document: dict) -> tuple[TargetNetwork, FleetSpec]:
    """Build and validate a network + fleet from a parsed instance document."""
    if not isinstance(document, dict):
        raise InstanceError("instance document must be an object")
    unknown = set(document.keys()) - {"targets", "edges", "agents"}
    if unknown:
        raise InstanceError(f"unknown top-level keys: {sorted(unknown)}")
    targets = _parse_targets(document.get("targets"))
    raw_edges = document.get("edges", [])
    if not isinstance(raw_edges, list):
        raise InstanceError("'edges' must be a list")
    edges = []
    for entry in raw_edges:
        if not isinstance(entry, dict) or {"i", "j", "d"} - entry.keys():
            raise InstanceError("each edge must be an object with keys i, j, d")
        i, j = _integer(entry["i"], "edge i"), _integer(entry["j"], "edge j")
        edges.append((i, j, _number(entry["d"], f"edge ({i}, {j}): d")))
    network = TargetNetwork(targets=targets, edges=edges)
    agents_raw = document.get("agents", {"count": 1})
    if not isinstance(agents_raw, dict) or "count" not in agents_raw:
        raise InstanceError("'agents' must be an object with a 'count' key")
    fleet = FleetSpec(num_agents=_integer(agents_raw["count"], "agents.count"))
    fleet.validate(len(targets))
    return network, fleet


def read_json_file(path: str) -> Any:
    """Parse a JSON file; a path that cannot be read or does not hold JSON
    raises an ``InstanceError`` naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceError(f"invalid JSON in {path}: {exc}") from exc


def load_instance_file(path: str) -> tuple[TargetNetwork, FleetSpec]:
    return load_instance(read_json_file(path))


def _matrix_to_doc(mat: np.ndarray) -> Any:
    if mat.shape == (1, 1):
        return float(mat[0, 0])
    return [[float(x) for x in row] for row in mat]


def instance_to_document(network: TargetNetwork, fleet: FleetSpec) -> dict:
    """Serialize back to the instance schema (derived fields omitted)."""
    return {
        "targets": [
            {
                "id": t.id,
                "A": _matrix_to_doc(t.A),
                "Q": _matrix_to_doc(t.Q),
                "H": _matrix_to_doc(t.H),
                "R": _matrix_to_doc(t.R),
                "weight_alpha": t.weight_alpha,
            }
            for t in network.targets
        ],
        "edges": [
            {"i": i, "j": j, "d": d} for (i, j, d) in network.edges
        ],
        "agents": {"count": fleet.num_agents},
    }


def generate_random_instance(
    num_targets: int,
    seed: int,
    param_ranges: ParamRanges | None = None,
    num_agents: int = 1,
) -> tuple[TargetNetwork, FleetSpec]:
    """Random scalar-target instance: uniform positions, complete graph.

    Deterministic for a fixed seed.  Travel times are Euclidean distances
    between positions drawn uniformly from [0, box]^2.  ``num_targets`` runs
    from 1 to ``MAX_RANDOM_TARGETS``.
    """
    if not 1 <= num_targets <= MAX_RANDOM_TARGETS:
        raise InstanceError(
            f"num_targets must be between 1 and {MAX_RANDOM_TARGETS}, got {num_targets}")
    ranges = param_ranges or ParamRanges()
    ranges.validate()
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, ranges.box, size=(num_targets, 2))
    n_stable = int(ranges.stable_fraction * num_targets)
    targets = []
    for k in range(num_targets):
        a_lo, a_hi = ranges.a_stable if k < n_stable else ranges.a
        targets.append(
            TargetSpec(
                id=k + 1,
                A=float(rng.uniform(a_lo, a_hi)),
                Q=float(rng.uniform(*ranges.q)),
                H=1.0,
                R=float(rng.uniform(*ranges.r)),
                weight_alpha=float(rng.uniform(*ranges.alpha)),
            )
        )
    a, b = np.triu_indices(num_targets, 1)
    edges = list(zip((a + 1).tolist(), (b + 1).tolist(),
                     np.hypot(*(pos[a] - pos[b]).T).tolist()))
    network = TargetNetwork(
        targets=targets,
        edges=edges,
        positions={k + 1: (float(pos[k, 0]), float(pos[k, 1])) for k in range(num_targets)},
    )
    fleet = FleetSpec(num_agents=num_agents)
    fleet.validate(num_targets)
    return network, fleet
