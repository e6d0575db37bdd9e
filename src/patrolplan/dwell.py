"""Dwell-time allocation over a fixed visiting sequence.

One law governs the dwells: in a balanced allocation every observed target
peaks at the same cost, whether the cycle visits it once or several times.
One consensus loop enforces it.  Each target's total dwell moves
proportionally to the log ratio of its peak cost to the geometric mean across
active targets, which keeps the period constant while all active peak costs
converge to a common value; a target with several dwell slots also has its
total split across them until its per-visit peaks agree.  The period itself
is optimized by a golden-section search, and an outer loop drops targets that
are cheaper never observed than the balanced consensus cost.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .config import DEFAULT_CONFIG, PlannerConfig
from .covariance import (
    ConvergenceError,
    cov_norm,
    periodic_steady_state,
    _scalar_periodic_peaks,
)
from .cycles import Cycle, SteadyStateCache, cycle_lower_bound, tsp_heuristic
from .model import TargetNetwork

__all__ = [
    "PlanningError",
    "TargetTimeline",
    "timeline_from_schedule",
    "DwellState",
    "Plan",
    "balance_single_visit",
    "balance_multi_visit",
    "balance_within_target",
    "golden_period_search",
    "plan_for_cycle",
    "plan_single_agent",
]

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0


class PlanningError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# target's-eye view of a schedule
# ---------------------------------------------------------------------------

@dataclass
class TargetTimeline:
    """Per-visit observed/unobserved durations for one target."""

    t_on: list[float]
    t_off: list[float]
    positions: list[int]

    def period(self) -> float:
        return sum(self.t_on) + sum(self.t_off)


def timeline_from_schedule(cycle: Cycle, dwells: list[float]) -> dict[int, TargetTimeline]:
    """Convert an instance-aligned dwell vector into per-target timelines.

    ``t_off`` after a visit accumulates the departing leg plus every
    intermediate dwell and leg until the target's next instance.
    """
    n = len(cycle.instances)
    if len(dwells) != n:
        raise ValueError(f"need a dwell list of length {n}, got {len(dwells)}")
    if any(d < 0 for d in dwells):
        raise ValueError("dwells must be nonnegative")
    out: dict[int, TargetTimeline] = {}
    if n == 1:
        inst = cycle.instances[0]
        out[inst.target] = TargetTimeline([dwells[0]], [0.0], [0])
        return out
    for tid in sorted(cycle.target_ids):
        positions = cycle.positions_of(tid)
        m = len(positions)
        t_on, t_off = [], []
        for k in range(m):
            here = positions[k]
            nxt = positions[(k + 1) % m]
            t_on.append(dwells[here])
            off = cycle.legs[here]
            pos = (here + 1) % n
            while pos != nxt:
                off += dwells[pos] + cycle.legs[pos]
                pos = (pos + 1) % n
            t_off.append(off)
        out[tid] = TargetTimeline(t_on, t_off, positions)
    return out


# ---------------------------------------------------------------------------
# balanced dwell state
# ---------------------------------------------------------------------------

@dataclass
class DwellState:
    """Result of a balancing run on (cycle, period)."""

    cycle: Cycle
    dwells: list[float]
    period: float
    costs: dict[int, float]              # per-target worst peak cost
    visit_costs: dict[int, list[float]]  # per-visit peak costs (instance order)
    g_con: float                         # consensus level of the active peaks
    active: set[int]
    trace: list[float] = field(repr=False)
    iterations: int = 0

    @property
    def max_cost(self) -> float:
        return max(self.costs.values())


def _visit_costs(cache: SteadyStateCache, tid: int, t_on: list[float], t_off: list[float],
                 tol: float) -> list[float]:
    """Per-visit peak costs of one target's periodic steady state."""
    target = cache.target(tid)
    if target.is_scalar:
        uppers, _, _, _ = _scalar_periodic_peaks(
            float(target.A[0, 0]), float(target.Q[0, 0]), float(target.G[0, 0]),
            t_on, t_off, tol,
        )
        return [target.g(u) for u in uppers]
    peaks = periodic_steady_state(target.A, target.Q, target.G, t_on, t_off, tol=tol)
    return [target.g(cov_norm(u)) for u in peaks.upper]


def _geometric_mean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _log_ratio(cost: float, g_avg: float, cap: float) -> float:
    if math.isinf(cost):
        return cap
    r = math.log(cost / g_avg)
    return max(-cap, min(cap, r))


def _eligible_map(cycle: Cycle) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for pos, inst in enumerate(cycle.instances):
        if inst.dwell_eligible:
            out.setdefault(inst.target, []).append(pos)
    return out


def _init_dwells(cycle: Cycle, budget: float, eligible: dict[int, list[int]],
                 initial: list[float] | None) -> list[float]:
    n = len(cycle.instances)
    dwells = [0.0] * n
    if initial is not None:
        if len(initial) != n:
            raise ValueError("initial dwell vector does not match the cycle")
        for pos, val in enumerate(initial):
            if val < 0:
                raise ValueError("initial dwells must be nonnegative")
            if val > 0 and not cycle.instances[pos].dwell_eligible:
                raise ValueError(f"instance {pos} cannot take dwell")
        total = sum(initial)
        if total <= 0:
            raise ValueError("initial dwells must not all be zero")
        return [v * budget / total for v in initial]
    share = budget / len(eligible)
    for positions in eligible.values():
        for pos in positions:
            dwells[pos] = share / len(positions)
    return dwells


# ---------------------------------------------------------------------------
# consensus balancing
# ---------------------------------------------------------------------------

def balance_within_target(
    tid: int,
    splits: list[float],
    t_off: list[float],
    eligible_mask: list[bool],
    cache: SteadyStateCache,
    config: PlannerConfig,
    k_p: float | None = None,
) -> tuple[list[float], list[float]]:
    """Split a fixed total dwell across one target's visits until the
    per-visit peak costs agree (the inner process of the two-level scheme).

    Gaps ``t_off`` are frozen; only the split moves.  Each visit's dwell is
    driven by the peak it directly suppresses, i.e. the one at the start of
    the following visit: under the zero-sum transfer the cross-visit
    sensitivity dominates the own-peak one, so pairing a dwell with its own
    starting peak is unstable.  Returns the new split and the per-visit costs.
    """
    total = sum(splits)
    gain = config.mv_k_p if k_p is None else k_p
    n = len(splits)
    n_eligible = sum(eligible_mask)
    tol = config.periodic_tol
    costs = _visit_costs(cache, tid, splits, t_off, tol)
    if n_eligible <= 1 or total <= 0.0:
        return list(splits), costs
    spread = math.inf
    prev_spread = math.inf
    for _ in range(config.mv_max_iters):
        elig_costs = [c for c, e in zip(costs, eligible_mask) if e]
        g_avg = _geometric_mean(elig_costs)
        spread = max(abs(c - g_avg) for c in elig_costs) / g_avg
        if spread <= config.mv_tol:
            return list(splits), costs
        if spread > prev_spread * (1.0 + 1e-12):
            gain = max(0.5 * gain, 1e-4 * config.mv_k_p)
        prev_spread = spread
        proposed = []
        for p in range(n):
            if not eligible_mask[p]:
                proposed.append(0.0)
                continue
            c_next = costs[(p + 1) % n]
            if splits[p] <= 0.0 and c_next <= g_avg:
                proposed.append(0.0)
                continue
            proposed.append(
                max(0.0, splits[p] + gain * _log_ratio(c_next, g_avg, config.log_ratio_cap))
            )
        subtotal = sum(proposed)
        if subtotal <= 0.0:
            proposed = [total / n_eligible if e else 0.0 for e in eligible_mask]
            subtotal = total
        splits = [p * total / subtotal for p in proposed]
        costs = _visit_costs(cache, tid, splits, t_off, tol)
    raise ConvergenceError(f"within-target split for target {tid} did not converge", spread)


def balance_multi_visit(
    cycle: Cycle,
    period: float,
    cache: SteadyStateCache | None = None,
    config: PlannerConfig | None = None,
    initial_dwells: list[float] | None = None,
    k_p: float | None = None,
    tol: float | None = None,
) -> DwellState:
    """Equalize the peak costs of every active target on (cycle, period).

    Each sweep costs every target at the current dwells and moves its total
    dwell by the consensus law with the period held exactly constant; clipped
    dwell mass is redistributed proportionally.  A target with one dwell slot
    is costed directly over the period.  A target with several slots has its
    total rescaled proportionally across them, and the split re-balanced
    within the target against gaps computed from the other targets' current
    dwells.  The gain is halved whenever a step raises the worst cost by more
    than a rise tolerance: round-off when every target has one slot, 1e-3
    otherwise (the within-target split lags one sweep, which allows small
    transient rises; only a gross increase signals an unstable step size).
    """
    cfg = config or DEFAULT_CONFIG
    cache = cache or SteadyStateCache(cycle.network)
    eligible = _eligible_map(cycle)
    budget = period - cycle.travel_time
    if budget <= 0:
        raise PlanningError(
            f"period {period:.6g} does not exceed the travel time {cycle.travel_time:.6g}"
        )
    gain = cfg.k_p if k_p is None else k_p
    tol = cfg.balance_tol if tol is None else tol
    dwells = _init_dwells(cycle, budget, eligible, initial_dwells)
    dwell_ids = sorted(eligible)
    never = {tid: cache.never_observed_cost(tid) for tid in dwell_ids}
    slot = {tid: eligible[tid][0] for tid in dwell_ids if len(eligible[tid]) == 1}
    # targets with several dwell slots: all their instance positions
    split = {tid: cycle.positions_of(tid) for tid in dwell_ids if tid not in slot}
    masks = {tid: [cycle.instances[p].dwell_eligible for p in split[tid]] for tid in split}
    rise_rel, rise_abs = (1e-3, 0.0) if split else (1e-12, 1e-15)

    trace: list[float] = []
    prev: tuple[list[float], dict[int, float], dict[int, list[float]], float] | None = None
    spread = math.inf
    for iters in range(1, cfg.balance_max_iters + 1):
        timelines = timeline_from_schedule(cycle, dwells) if split else {}
        costs: dict[int, float] = {}
        visit_costs: dict[int, list[float]] = {}  # targets with several slots only
        for tid in dwell_ids:
            pos = slot.get(tid)
            if pos is not None:
                ton = dwells[pos]
                if ton <= 0.0:
                    costs[tid] = never[tid]
                else:
                    costs[tid] = _visit_costs(cache, tid, [ton], [period - ton], cfg.periodic_tol)[0]
                continue
            timeline = timelines[tid]
            if sum(timeline.t_on) <= 0.0:
                costs[tid] = never[tid]
                visit_costs[tid] = [never[tid]] * len(split[tid])
                continue
            new_splits, vcosts = balance_within_target(
                tid, timeline.t_on, timeline.t_off, masks[tid], cache, cfg
            )
            for p, s in zip(split[tid], new_splits):
                dwells[p] = s
            visit_costs[tid] = vcosts
            costs[tid] = max(vcosts)
        max_cost = max(costs.values())
        if prev is not None and max_cost > prev[3] * (1.0 + rise_rel) + rise_abs:
            dwells, costs, visit_costs, max_cost = (
                [*prev[0]], dict(prev[1]), dict(prev[2]), prev[3],
            )
            gain *= 0.5
            if gain < cfg.k_p * 2.0 ** -40:
                raise ConvergenceError("dwell balancing stalled", spread)
        trace.append(max_cost)
        totals = {tid: dwells[pos] for tid, pos in slot.items()}
        for tid, positions in split.items():
            totals[tid] = sum(dwells[p] for p in positions)
        active = [tid for tid in dwell_ids if totals[tid] > 0.0]
        if not active:
            raise PlanningError("no active target; every dwell collapsed to zero")
        g_con = _geometric_mean([costs[tid] for tid in active])
        spread = max(abs(costs[tid] - g_con) for tid in active) / g_con
        inactive_ok = all(
            costs[tid] <= g_con * (1.0 + tol)
            for tid in dwell_ids if totals[tid] <= 0.0
        )
        if spread <= tol and inactive_ok:
            break
        prev = ([*dwells], dict(costs), dict(visit_costs), max_cost)
        proposed = {}
        for tid in dwell_ids:
            total = totals[tid]
            if total <= 0.0 and costs[tid] <= g_con:
                proposed[tid] = 0.0
                continue
            step = gain * _log_ratio(costs[tid], g_con, cfg.log_ratio_cap)
            proposed[tid] = max(0.0, total + step)
        grand = sum(proposed.values())
        if grand <= 0.0:
            proposed = {tid: budget / len(dwell_ids) for tid in dwell_ids}
            grand = budget
        scale = budget / grand
        for tid, pos in slot.items():
            dwells[pos] = proposed[tid] * scale
        for tid, positions in split.items():
            new_total = proposed[tid] * scale
            if totals[tid] > 0.0:
                ratio = new_total / totals[tid]
                for p in positions:
                    dwells[p] = dwells[p] * ratio
            elif new_total > 0.0:
                n_el = sum(masks[tid])
                for p, e in zip(positions, masks[tid]):
                    dwells[p] = new_total / n_el if e else 0.0
    else:
        raise ConvergenceError("dwell balancing did not converge", spread)

    return DwellState(
        cycle=cycle,
        dwells=dwells,
        period=period,
        costs=costs,
        visit_costs={tid: visit_costs[tid] if tid in split else [costs[tid]] for tid in dwell_ids},
        g_con=g_con,
        active=set(active),
        trace=trace,
        iterations=iters,
    )


def balance_single_visit(
    cycle: Cycle,
    period: float,
    cache: SteadyStateCache | None = None,
    config: PlannerConfig | None = None,
    initial_dwells: list[float] | None = None,
    k_p: float | None = None,
    tol: float | None = None,
) -> DwellState:
    """``balance_multi_visit`` on a cycle where each target has at most one
    dwell slot (raises ``PlanningError`` otherwise)."""
    for tid, positions in _eligible_map(cycle).items():
        if len(positions) > 1:
            raise PlanningError(f"target {tid} has multiple dwell slots; use the multi-visit balancer")
    return balance_multi_visit(cycle, period, cache, config, initial_dwells, k_p, tol)


# ---------------------------------------------------------------------------
# period search
# ---------------------------------------------------------------------------

def golden_period_search(
    cycle: Cycle,
    cache: SteadyStateCache | None = None,
    config: PlannerConfig | None = None,
    t_min: float | None = None,
    t_max: float | None = None,
) -> tuple[float, DwellState, list[tuple[float, float]]]:
    """Golden-section search of the period against the balanced peak cost.

    Probes reuse the previous probe's dwell vector (rescaled) as a warm start;
    the balanced cost is invariant to the start point.  Returns the bracket
    midpoint, its balanced state, and the (period, cost) probe log.
    """
    cfg = config or DEFAULT_CONFIG
    cache = cache or SteadyStateCache(cycle.network)
    travel = cycle.travel_time
    if travel > 0:
        lo = (1.0 + cfg.bracket_low) * travel if t_min is None else t_min
        hi = cfg.bracket_high * travel if t_max is None else t_max
    else:
        lo = 1.0 if t_min is None else t_min
        hi = 3.0 if t_max is None else t_max
    if lo <= travel:
        raise PlanningError(f"t_min {lo:.6g} must exceed the travel time {travel:.6g}")
    if hi < lo:
        raise PlanningError("t_max must be at least t_min")

    probes: list[tuple[float, float]] = []
    warm: dict[str, object] = {"dwells": None}

    def evaluate(period: float) -> DwellState:
        state = balance_multi_visit(cycle, period, cache, cfg, initial_dwells=warm["dwells"])
        warm["dwells"] = state.dwells
        probes.append((period, state.g_con))
        return state

    if hi == lo:
        state = evaluate(lo)
        return lo, state, probes

    a, b = lo, hi
    x1 = b - (b - a) / GOLDEN_RATIO
    x2 = a + (b - a) / GOLDEN_RATIO
    s1, s2 = evaluate(x1), evaluate(x2)
    f1, f2 = s1.g_con, s2.g_con
    for _ in range(cfg.golden_max_iters):
        if abs(f2 - f1) <= cfg.golden_eps * max(abs(f1), abs(f2)):
            break
        if (b - a) <= 1e-12 * max(1.0, b):
            break
        if f2 > f1:
            b = x2
            x2, f2 = x1, f1
            x1 = b - (b - a) / GOLDEN_RATIO
            s1 = evaluate(x1)
            f1 = s1.g_con
        else:
            a = x1
            x1, f1 = x2, f2
            x2 = a + (b - a) / GOLDEN_RATIO
            s2 = evaluate(x2)
            f2 = s2.g_con
    t_star = 0.5 * (x1 + x2)
    state = evaluate(t_star)
    return t_star, state, probes


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

@dataclass
class Plan:
    """A complete single-agent schedule with its predicted cost."""

    cycle: Cycle
    dwells: list[float]
    period: float
    j_pred: float
    g_con: float
    costs: dict[int, float]
    visit_costs: dict[int, list[float]]
    active: set[int]
    excluded: dict[int, float]
    metric_value: float
    search_probes: list[tuple[float, float]] = field(default_factory=list, repr=False)
    balance_trace: list[float] = field(default_factory=list, repr=False)

    @property
    def travel_time(self) -> float:
        return self.cycle.travel_time

    def to_document(self) -> dict:
        return {
            "format": "plan",
            "covers": sorted(self.cycle.network.ids),
            "period": self.period,
            "predicted_cost": self.j_pred,
            "consensus_cost": self.g_con,
            "metric_floor": self.metric_value,
            "instances": [
                {
                    "target": inst.target,
                    "ordinal": inst.ordinal,
                    "dwell_eligible": inst.dwell_eligible,
                    "dwell": self.dwells[pos],
                }
                for pos, inst in enumerate(self.cycle.instances)
            ],
            "leg_times": list(self.cycle.legs),
            "active": sorted(self.active),
            "excluded": {str(k): v for k, v in self.excluded.items()},
            "per_target_cost": {str(k): v for k, v in self.costs.items()},
            "per_visit_cost": {str(k): v for k, v in self.visit_costs.items()},
        }

    @classmethod
    def from_document(cls, network: TargetNetwork, doc: dict) -> "Plan":
        if doc.get("format") != "plan":
            raise ValueError("not a plan document")
        seq = [(int(e["target"]), bool(e["dwell_eligible"])) for e in doc["instances"]]
        legs = [float(x) for x in doc["leg_times"]]
        cycle = Cycle(network, seq, legs)
        dwells = [float(e["dwell"]) for e in doc["instances"]]
        return cls(
            cycle=cycle,
            dwells=dwells,
            period=float(doc["period"]),
            j_pred=float(doc["predicted_cost"]),
            g_con=float(doc["consensus_cost"]),
            costs={int(k): float(v) for k, v in doc["per_target_cost"].items()},
            visit_costs={int(k): [float(x) for x in v] for k, v in doc["per_visit_cost"].items()},
            active=set(int(x) for x in doc["active"]),
            excluded={int(k): float(v) for k, v in doc["excluded"].items()},
            metric_value=float(doc["metric_floor"]),
        )


def _finish_plan(cycle, state, cache, excluded, probes) -> Plan:
    metric = cycle_lower_bound(cycle, cache)
    j_pred = max(state.costs.values())
    if excluded:
        j_pred = max(j_pred, max(excluded.values()))
    return Plan(
        cycle=cycle,
        dwells=state.dwells,
        period=state.period,
        j_pred=j_pred,
        g_con=state.g_con,
        costs=state.costs,
        visit_costs=state.visit_costs,
        active=state.active,
        excluded=excluded,
        metric_value=metric.value,
        search_probes=probes,
        balance_trace=state.trace,
    )


def plan_for_cycle(cycle: Cycle, cache: SteadyStateCache | None = None,
                   config: PlannerConfig | None = None) -> Plan:
    """Optimize the period and dwells for a fixed cycle."""
    cache = cache or SteadyStateCache(cycle.network)
    t_star, state, probes = golden_period_search(cycle, cache, config)
    return _finish_plan(cycle, state, cache, {}, probes)


def plan_single_agent(
    network: TargetNetwork,
    cache: SteadyStateCache | None = None,
    config: PlannerConfig | None = None,
    subset: set[int] | None = None,
) -> Plan:
    """Single-agent planning with the inactive-target exclusion loop.

    Builds the shortest tour over the remaining targets, optimizes period and
    dwells, and drops the cheapest inactive target while doing so lowers the
    consensus cost; stops when every toured target is active or the last
    excluded target is the bottleneck.
    """
    cfg = config or DEFAULT_CONFIG
    cache = cache or SteadyStateCache(network)
    remaining = set(network.ids if subset is None else subset)
    excluded: dict[int, float] = {}

    def optimize(ids):
        cycle = tsp_heuristic(network, ids)
        t_star, state, probes = golden_period_search(cycle, cache, cfg)
        return cycle, state, probes

    cycle, state, probes = optimize(remaining)
    for _ in range(len(remaining)):
        c_min, i_min = min(
            (state.costs[tid], tid) for tid in sorted(state.costs)
        )
        if c_min >= state.g_con * (1.0 - cfg.compare_tol):
            break  # every toured target is active
        if len(remaining) == 1:
            break
        remaining = remaining - {i_min}
        excluded[i_min] = c_min
        cycle, state, probes = optimize(remaining)
        if state.g_con < c_min * (1.0 - cfg.compare_tol):
            break  # the excluded target is the bottleneck now
    return _finish_plan(cycle, state, cache, excluded, probes)


def random_initial_dwells(cycle: Cycle, budget: float, seed: int) -> list[float]:
    """A random valid dwell vector (for uniqueness experiments)."""
    rng = random.Random(seed)
    dwells = [
        rng.random() if inst.dwell_eligible else 0.0
        for inst in cycle.instances
    ]
    total = sum(dwells)
    return [d * budget / total for d in dwells]
