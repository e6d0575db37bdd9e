"""Visiting-sequence construction and the revisit-time lower-bound metric.

A cycle is the periodic sequence of target visits an agent executes.  Its
legs are the network's fastest travel times between consecutive instances,
and the planner's cycles are fully expanded: multi-hop connections
materialize their intermediate targets as pass-through (non-dwell)
instances, so every leg is one graph edge.  ``Cycle`` alone answers how a
target sees its cycle: its visits, its dwell slots, its revisit gaps and,
under a dwell vector, its on/off timeline.  The cheap metric used to rank
cycles is the worst per-target cost floor obtained from each target's
maximum revisit travel time, which never exceeds the realized cost of any
dwell schedule on the same cycle.  Greedy candidates are splices of the current cycle, scored
from its revisit gaps; only the few scored near the best are built.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

from .covariance import cov_norm, lower_bound, scalar_lower_bound, steady_states_for, SteadyStates
from .model import TargetNetwork, TargetSpec

GREEDY_GAIN_REL = 1e-9   # an accepted modification gains at least this share of the metric
SHORTLIST_REL = 1e-9     # relative score band; candidates within two bands of the best are built (see _contenders)

__all__ = [
    "Instance",
    "Cycle",
    "Splice",
    "CycleMetric",
    "SteadyStateCache",
    "tsp_heuristic",
    "cycle_lower_bound",
    "per_instance_floors",
    "enumerate_cmos",
    "improve_cycle",
    "greedy_construct",
    "cycle_to_document",
]


class Instance(NamedTuple):
    """One visit slot: which target, which visit ordinal, and whether the
    agent may dwell there (pass-through hops may not)."""

    target: int
    ordinal: int
    dwell_eligible: bool


class Cycle:
    """A closed visiting sequence over a network.

    ``legs[j]`` is the network's fastest travel time from ``instances[j]`` to
    ``instances[j + 1]`` (cyclically), one leg per instance, so a
    one-instance cycle's legs are ``[0.0]``.
    ``cum[j]`` is the travel time from ``instances[0]`` to ``instances[j]``,
    and ``cum[-1]`` that of the whole tour.  Ordinals are assigned in order
    of appearance.  Instances of the same target may repeat, including back
    to back across the wrap (a zero-length leg joins them).  ``eligible``
    maps each target with a dwell slot to the positions of its slots, in
    cycle order; it is read-only.
    """

    def __init__(self, network: TargetNetwork, seq: list[tuple[int, bool]]):
        if not seq:
            raise ValueError("cycle must contain at least one instance")
        self.network = network
        counts: dict[int, int] = {}
        self.instances: list[Instance] = []
        for target, eligible in seq:
            counts[target] = counts.get(target, 0) + 1
            self.instances.append(Instance(target, counts[target], eligible))
        travel = network.travel
        hops = [t for t, _ in seq]
        self.legs = [travel[a][b] for a, b in zip(hops, hops[1:] + hops[:1])]
        self.travel_time = float(sum(self.legs))
        self.cum = [0.0]
        for leg in self.legs:
            self.cum.append(self.cum[-1] + leg)
        self._positions: dict[int, list[int]] = {}
        self.eligible: dict[int, list[int]] = {}
        for pos, inst in enumerate(self.instances):
            self._positions.setdefault(inst.target, []).append(pos)
            if inst.dwell_eligible:
                self.eligible.setdefault(inst.target, []).append(pos)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_targets(cls, network: TargetNetwork, targets: list[int]) -> "Cycle":
        """Expand a sequence of dwell visits into a physical cycle along
        fastest paths."""
        seq: list[tuple[int, bool]] = []
        for k, u in enumerate(targets):
            seq += [(u, True)] + _path_between(network, u, targets[(k + 1) % len(targets)])
        return cls(network, seq)

    # -- views ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.instances)

    @property
    def target_ids(self) -> set[int]:
        return set(self._positions)

    @property
    def dwell_targets(self) -> set[int]:
        return set(self.eligible)

    def positions_of(self, target: int) -> list[int]:
        return self._positions.get(target, [])

    def visit_gaps(self) -> dict[int, list[float]]:
        """Per target, the travel time between consecutive visits (cyclic).

        ``gaps[t][k]`` is the zero-dwell revisit time ending at that target's
        (k+1)-th instance, a difference of two of the prefix sums ``cum``.  A
        single-instance target's gap is the whole tour.
        """
        cum = self.cum
        total = cum[-1]
        gaps: dict[int, list[float]] = {}
        for target, positions in self._positions.items():
            out = []
            prev = positions[-1]
            for here in positions:
                out.append(cum[here] - cum[prev] if here > prev else total - (cum[prev] - cum[here]))
                prev = here
            gaps[target] = out
        return gaps

    def timelines(self, dwells: list[float],
                  targets: Iterable[int]) -> dict[int, tuple[list[float], list[float]]]:
        """``(t_on, t_off)`` of each of ``targets`` under an instance-aligned
        dwell vector: ``t_on[k]`` is the dwell at the target's (k+1)-th
        instance, ``t_off[k]`` the departing leg plus every dwell and leg
        after it until the next one.

        ``t_off`` is summed instance by instance, not differenced from prefix
        sums as in ``visit_gaps``, so that a change of one dwell moves only
        the gaps that contain it: the level set's finite-difference rows
        divide by that change, and a prefix sum would move every later gap
        by the rounding of the whole period.
        """
        legs = self.legs
        n = len(legs)
        out: dict[int, tuple[list[float], list[float]]] = {}
        for target in targets:
            positions = self._positions[target]
            t_off = []
            for here, nxt in zip(positions, positions[1:] + positions[:1]):
                off = legs[here]
                pos = (here + 1) % n
                while pos != nxt:
                    off += dwells[pos] + legs[pos]
                    pos = (pos + 1) % n
                t_off.append(off)
            out[target] = ([dwells[p] for p in positions], t_off)
        return out

    def sequence(self) -> list[tuple[int, bool]]:
        return [(i.target, i.dwell_eligible) for i in self.instances]

    def __repr__(self) -> str:
        body = ",".join(
            f"{i.target}^{i.ordinal}" + ("" if i.dwell_eligible else "*")
            for i in self.instances
        )
        return f"Cycle[{body}]"


# ---------------------------------------------------------------------------
# steady-state cache
# ---------------------------------------------------------------------------

class SteadyStateCache:
    """Per-target steady states and cost-floor functions.

    Computed once per network and shared read-only by planners.
    """

    def __init__(self, network: TargetNetwork):
        self.network = network
        self._steady: dict[int, SteadyStates] = {}
        self._never: dict[int, float] = {}   # dwell._visit_costs reads it at every zero dwell
        self._floors: dict[int, Callable[[float], float]] = {}

    def target(self, tid: int) -> TargetSpec:
        return self.network.target(tid)

    def steady(self, tid: int) -> SteadyStates:
        if tid not in self._steady:
            self._steady[tid] = steady_states_for(self.network.target(tid))
        return self._steady[tid]

    def lower_bound(self, tid: int, gap: float) -> float:
        return self.floor(tid)(gap)

    def floor(self, tid: int) -> Callable[[float], float]:
        """``gap -> lower_bound(target, gap, omega_ss)``, the one way to price
        a revisit gap of ``tid``.  A scalar target's function runs the bound's
        own operations with its constants read once; a matrix target's
        memoizes its bounds by gap, because each is a matrix exponential."""
        fn = self._floors.get(tid)
        if fn is None:
            spec = self.target(tid)
            omega_ss = self.steady(tid).omega_ss
            if spec.is_scalar:
                fn = scalar_lower_bound(spec, omega_ss)
            else:
                memo: dict[float, float] = {}

                def fn(gap: float) -> float:
                    val = memo.get(gap)
                    if val is None:
                        val = memo[gap] = lower_bound(spec, gap, omega_ss)
                    return val
            self._floors[tid] = fn
        return fn

    def never_observed_cost(self, tid: int) -> float:
        """Steady cost when the target is never observed; +inf if unstable."""
        if tid not in self._never:
            ss = self.steady(tid)
            self._never[tid] = (self.target(tid).g(cov_norm(ss.omega_inf_finite))
                                if ss.a_is_hurwitz else math.inf)
        return self._never[tid]


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------

@dataclass
class CycleMetric:
    """Worst cost floor over a cycle and where it is attained."""

    value: float
    critical_target: int
    critical_ordinal: int
    max_gap: dict[int, float]
    per_target: dict[int, float] = field(repr=False)


def cycle_lower_bound(cycle: Cycle, cache: SteadyStateCache) -> CycleMetric:
    """Evaluate the revisit-time cost floor of a cycle over the targets of
    its network."""
    gaps = cycle.visit_gaps()
    members = set(cycle.network.ids)
    per_target: dict[int, float] = {}
    max_gap: dict[int, float] = {}
    best_val = -math.inf
    best_pair = None
    for tid in sorted(gaps):
        if tid not in members:
            continue  # pass-through of a target this cycle is not responsible for
        t_bar = max(gaps[tid])
        max_gap[tid] = t_bar
        val = cache.floor(tid)(t_bar)
        per_target[tid] = val
        if best_pair is None or val > best_val:
            # tie-break: lowest target id, then lowest ordinal attaining the gap
            ordinal = next(k + 1 for k, w in enumerate(gaps[tid]) if w == t_bar)
            best_val = val
            best_pair = (tid, ordinal)
    return CycleMetric(
        value=best_val,
        critical_target=best_pair[0],
        critical_ordinal=best_pair[1],
        max_gap=max_gap,
        per_target=per_target,
    )


def per_instance_floors(cycle: Cycle, cache: SteadyStateCache) -> list[float | None]:
    """Cost floor of every instance's own revisit gap (diagram data)."""
    gaps = cycle.visit_gaps()
    members = set(cycle.network.ids)
    return [
        cache.floor(inst.target)(gaps[inst.target][inst.ordinal - 1])
        if inst.target in members else None
        for inst in cycle.instances
    ]


# ---------------------------------------------------------------------------
# tour seed
# ---------------------------------------------------------------------------

def tsp_heuristic(network: TargetNetwork, subset: set[int] | list[int]) -> Cycle:
    """Closed tour over ``subset`` by nearest neighbour plus full 2-opt.

    Tour edges follow fastest paths; intermediate hops become pass-through
    instances.  Deterministic for a given network.
    """
    ids = sorted(set(subset))
    if not ids:
        raise ValueError("subset must be non-empty")
    travel = network.travel
    # nearest neighbour from the lowest id
    tour = [ids[0]]
    remaining = set(ids[1:])
    while remaining:
        here = tour[-1]
        nxt = min(remaining, key=lambda j: (travel[here][j], j))
        tour.append(nxt)
        remaining.remove(nxt)
    tour = _two_opt(tour, travel)
    return Cycle.from_targets(network, tour)


def _two_opt(tour: list[int], travel) -> list[int]:
    n = len(tour)
    improved = True
    while improved:
        improved = False
        for i in range(n - 1):
            for j in range(i + 2, n):
                if i == 0 and j == n - 1:
                    continue
                a, b = tour[i], tour[i + 1]
                c, d = tour[j], tour[(j + 1) % n]
                delta = (travel[a][c] + travel[b][d]) - (travel[a][b] + travel[c][d])
                if delta < -1e-12:
                    tour[i + 1 : j + 1] = reversed(tour[i + 1 : j + 1])
                    improved = True
    return tour


# ---------------------------------------------------------------------------
# cycle modification operations
# ---------------------------------------------------------------------------

def _critical_span(cycle: Cycle, metric: CycleMetric) -> tuple[int, list[int]]:
    """Positions of the critical sub-cycle: from the previous visit of the
    critical target (exclusive) through the critical instance (inclusive)."""
    tid, ordinal = metric.critical_target, metric.critical_ordinal
    positions = cycle.positions_of(tid)
    here = positions[ordinal - 1]
    prev = positions[(ordinal - 2) % len(positions)]
    n = len(cycle.instances)
    span = []
    p = (prev + 1) % n
    while True:
        span.append(p)
        if p == here:
            break
        p = (p + 1) % n
    return prev, span


class Splice(NamedTuple):
    """A candidate cycle as an edit of its base cycle: the ``cut`` legs after
    position ``at`` give way to the instances ``seq``.  ``_splice`` builds
    it."""

    at: int
    seq: list[tuple[int, bool]]
    cut: int = 1


def _splice(cycle: Cycle, at: int, new_seq: list[tuple[int, bool]], cut: int = 1) -> Cycle:
    """Replace the ``cut`` legs after position ``at`` with a path of
    instances; a cut past the end drops the wrapped-over instances from the
    front, so the cycle then starts at the first kept one."""
    seq = cycle.sequence()
    end = at + cut
    if end <= len(seq):
        return Cycle(cycle.network, seq[: at + 1] + new_seq + seq[end:])
    return Cycle(cycle.network, seq[end - len(seq) : at + 1] + new_seq)


def _path_between(network: TargetNetwork, u: int, v: int) -> list[tuple[int, bool]]:
    """The pass-through instances of the fastest path u -> v."""
    return [(h, False) for h in network.hops(u, v)]


def _visit_between(network: TargetNetwork, u: int, t: int, v: int) -> list[tuple[int, bool]]:
    """Fastest path u -> t -> v with a dwell visit to ``t``, endpoints excluded."""
    return _path_between(network, u, t) + [(t, True)] + _path_between(network, t, v)


def _detour(cycle: Cycle, pos: int, t: int, eligible: bool) -> Splice:
    """Out-and-back visit to ``t`` after position ``pos``; the repeated
    instance, dwell-eligible as given, takes over the original outgoing leg."""
    j = cycle.instances[pos].target
    return Splice(pos, _visit_between(cycle.network, j, t, j) + [(j, eligible)])


def enumerate_cmos(cycle: Cycle, metric: CycleMetric) -> list[tuple[str, Splice]]:
    """Candidate modifications of the critical sub-cycle.

    Two kinds, both reducing the critical revisit gap (every leg is already
    a fastest travel time, so no leg can be shortcut):
    II  split an interior edge with an extra visit to the critical target;
    III detour to the critical target right after an interior instance.

    Returns (kind, splice) pairs in deterministic order.
    """
    network = cycle.network
    tid = metric.critical_target
    prev, span = _critical_span(cycle, metric)
    n = len(cycle.instances)
    candidates: list[tuple[str, Splice]] = []
    for pos in [prev] + span[:-1]:  # legs traversed inside the sub-cycle
        u, v = cycle.instances[pos].target, cycle.instances[(pos + 1) % n].target
        if tid not in (u, v):
            candidates.append(("II", Splice(pos, _visit_between(network, u, tid, v))))
    eligible_targets = cycle.dwell_targets
    for pos in span[:-1]:
        j = cycle.instances[pos].target
        if j != tid:
            candidates.append(("III", _detour(cycle, pos, tid, j in eligible_targets)))
    return candidates


# ---------------------------------------------------------------------------
# candidate scoring
# ---------------------------------------------------------------------------

class _TargetGaps(NamedTuple):
    """One target's revisit gaps in a base cycle."""

    positions: list[int]
    gaps: list[float]                 # gaps[k] ends at positions[k]
    k_top: int                        # index of the first worst gap
    top: float                        # worst gap
    second: float                     # worst of the other gaps, -inf if none
    base: float                       # floor at the worst gap
    floor: Callable[[float], float]


class _GapTable:
    """A base cycle's revisit gaps, laid out to cost a one-leg splice of it
    without building the spliced cycle.

    A splice at leg ``at`` changes, for a target it adds no instance of, only
    the gap that spans that leg, and by the length change ``delta`` of the
    leg; the target's worst gap is then the larger of that gap and the worst
    of its others.  A target the splice does visit has the spanning gap cut
    at its new instances, whose distances from the base instance at ``at``
    are partial sums of the fastest travel times along them.  ``score``
    gives the spliced cycle's metric that way, with the floors of unchanged
    worst gaps taken from the base metric; it matches ``cycle_lower_bound``
    of the built cycle up to rounding in the gap sums (the tests hold it to
    1e-12 relative).
    """

    def __init__(self, cycle: Cycle, metric: CycleMetric, cache: SteadyStateCache):
        self.legs = cycle.legs
        self.cum = cycle.cum
        self.hops = [inst.target for inst in cycle.instances]
        self.travel = cycle.network.travel
        self.members = set(cycle.network.ids)
        self.cache = cache
        gaps = cycle.visit_gaps()
        self.targets: dict[int, _TargetGaps] = {}  # every target present, worst floor first
        for tid in sorted(metric.per_target, key=metric.per_target.__getitem__, reverse=True):
            ws = gaps[tid]
            top = metric.max_gap[tid]
            k_top = ws.index(top)
            self.targets[tid] = _TargetGaps(
                cycle.positions_of(tid), ws, k_top, top,
                max(ws[:k_top] + ws[k_top + 1:], default=-math.inf),
                metric.per_target[tid], cache.floor(tid))
        self._rows: dict[int, list[tuple]] = {}

    def _ends(self, tid: int, at: int) -> tuple[float, float, float]:
        """For the gap of ``tid`` that spans leg ``at``: the travel from its
        start to instance ``at``, from instance ``at + 1`` to its end, and the
        worst of the target's other gaps."""
        positions, _, k_top, top, second, _, _ = self.targets[tid]
        cum, total = self.cum, self.cum[-1]
        k = bisect_right(positions, at) % len(positions)  # the spanning gap
        prev, nxt = positions[k - 1], positions[k]
        head = cum[at] - cum[prev] if prev <= at else total - cum[prev] + cum[at]
        tail = cum[nxt] - cum[at + 1] if nxt > at else total - cum[at + 1] + cum[nxt]
        return head, tail, second if k == k_top else top

    def _row(self, at: int) -> list[tuple]:
        """(target, spanning gap, worst other gap, worst gap, base floor,
        floor) for every target present, worst base floor first."""
        row = self._rows.get(at)
        if row is None:
            row = []
            for tid, (positions, ws, k_top, top, second, base, fn) in self.targets.items():
                k = bisect_right(positions, at) % len(positions)
                row.append((tid, ws[k], second if k == k_top else top, top, base, fn))
            self._rows[at] = row
        return row

    def score(self, splice: Splice, bound: float) -> float:
        """The metric of the one-leg splice, or, as soon as one target's floor
        exceeds ``bound``, that floor (a lower bound on the metric)."""
        at, seq = splice.at, splice.seq
        members, travel, hops = self.members, self.travel, self.hops
        hits: dict[int, list[float]] = {}
        d = 0.0
        here = hops[at]
        for h, _ in seq:
            d += travel[here][h]
            here = h
            if h in members:
                hits.setdefault(h, []).append(d)
        reach = d + travel[here][hops[(at + 1) % len(hops)]]
        old = self.legs[at]
        worst = -math.inf
        for h, ds in hits.items():
            gap = max((b - a for a, b in zip(ds, ds[1:])), default=0.0)
            if h in self.targets:
                head, tail, other = self._ends(h, at)
                gap = max(gap, head + ds[0], reach - ds[-1] + tail, other)
                _, _, _, top, _, base, fn = self.targets[h]
                val = base if gap == top else fn(gap)
            else:
                gap = max(gap, self.cum[-1] - old + reach - ds[-1] + ds[0])
                val = self.cache.floor(h)(gap)
            if val > worst:
                worst = val
                if worst > bound:
                    return worst
        delta = reach - old
        for tid, span, other, top, base, fn in self._row(at):
            if tid in hits:
                continue
            gap = span + delta
            if gap < other:
                gap = other
            val = base if gap == top else fn(gap)
            if val > worst:
                worst = val
                if worst > bound:
                    return worst
        return worst


def _band(base: float, value: float) -> float:
    """Width of the score band that separates built from unbuilt candidates."""
    return SHORTLIST_REL * (abs(base) + abs(value)) + 1e-15


def _contenders(
    cycle: Cycle,
    metric: CycleMetric,
    splices: list[Splice],
    cache: SteadyStateCache,
) -> list[tuple[int, Cycle, CycleMetric]]:
    """Build and cost every splice of ``cycle`` that can decide a best-gain
    choice; returns (index, candidate, its metric) in enumeration order.

    One-leg splices are scored from the base cycle's ``_GapTable``; a scored
    candidate is abandoned once its partial metric passes the best so far by
    two bands (``SHORTLIST_REL`` relative).  Only those scored within two
    bands of the best are built, and every other splice (a multi-leg cut) is
    built as it comes.  The unbuilt candidates then all gain less than the
    best-scored one by more than the scorer's error, the rounding of a gain
    and the ``1e-15`` tie margin together, so in enumeration order a
    best-gain rule (ties to the earlier) and a best value pick what they
    would pick from every candidate.  An infinite base metric gives an
    infinite band, so every splice is scored and every one is built.
    """
    built: dict[int, tuple[Cycle, CycleMetric]] = {}
    keep = range(len(splices))
    if len(splices) > 1:
        table = _GapTable(cycle, metric, cache)
        scores = []
        best = math.inf
        for i, s in enumerate(splices):
            if s.cut == 1:
                val = table.score(s, best + 2.0 * _band(metric.value, best))
            else:
                cand = _splice(cycle, *s)
                built[i] = cand, cycle_lower_bound(cand, cache)
                val = built[i][1].value
            scores.append(val)
            best = min(best, val)
        wide = best + 2.0 * _band(metric.value, best)
        keep = [i for i, val in enumerate(scores) if val <= wide]
    out = []
    for i in keep:
        if i not in built:
            cand = _splice(cycle, *splices[i])
            built[i] = cand, cycle_lower_bound(cand, cache)
        out.append((i, *built[i]))
    return out


def improve_cycle(
    cycle: Cycle,
    metric: CycleMetric,
    cache: SteadyStateCache,
) -> tuple[Cycle, CycleMetric, list[float]]:
    """Apply best-gain modifications until none improves."""
    trace = []
    while True:
        eps = GREEDY_GAIN_REL * abs(metric.value)
        splices = [s for _, s in enumerate_cmos(cycle, metric)]
        best = None
        for _, cand, cand_metric in _contenders(cycle, metric, splices, cache):
            gain = metric.value - cand_metric.value
            if gain >= eps and gain > 0 and (best is None or gain > best[0] + 1e-15):
                best = (gain, cand, cand_metric)
        if best is None:
            return cycle, metric, trace
        _, cycle, metric = best
        trace.append(metric.value)


def greedy_construct(
    network: TargetNetwork,
    subset: set[int] | list[int],
    cache: SteadyStateCache | None = None,
) -> tuple[Cycle, CycleMetric, list[float]]:
    """Greedy cycle construction: tour seed, then best-gain visit insertions
    (kinds II/III); each accepted step strictly lowers the metric.  Returns
    the cycle, its metric, and the metric trace across accepted steps.
    """
    cache = cache or SteadyStateCache(network)
    cycle = tsp_heuristic(network, subset)
    metric = cycle_lower_bound(cycle, cache)
    trace = [metric.value]
    cycle, metric, steps = improve_cycle(cycle, metric, cache)
    return cycle, metric, trace + steps


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def cycle_to_document(cycle: Cycle, metric: CycleMetric, cache: SteadyStateCache) -> dict:
    """Diagram-ready cycle description (instances, legs, per-instance floors)."""
    return {
        "instances": [
            {"target": i.target, "ordinal": i.ordinal, "dwell_eligible": i.dwell_eligible}
            for i in cycle.instances
        ],
        "leg_times": list(cycle.legs),
        "travel_time": cycle.travel_time,
        "per_instance_cost_floor": per_instance_floors(cycle, cache),
        "metric": metric.value,
        "critical": {"target": metric.critical_target, "ordinal": metric.critical_ordinal},
    }
