"""Dwell-time allocation over a fixed visiting sequence.

One law governs the dwells: in a balanced allocation every observed target
peaks at the same cost at every dwell visit, whether the cycle visits it
once or several times.  The planning path reaches it by one Newton loop,
``balance_level_set``, which solves for the common level and the dwell of
every slot together.  In each bordered step a single-slot target's row is
one slope and is eliminated in closed form; only the dense rows of targets
with several dwell slots go to a linear solve.  A target that is cheaper
never observed than the level takes no dwell.  A period at which the steps
do not converge is an infeasible period.  The period itself is optimized by
Brent's method (golden section safeguarding parabolic steps) over the
balanced cost, with an infeasible period costing ``inf``, and an outer loop
drops targets that are cheaper never observed than the balanced consensus
cost.

One function prices a target's schedule, ``_visit_costs``: the peak cost at
the start of each of its visits in the periodic steady state, or its
never-observed cost at every visit when it takes no dwell.

The paper's consensus law stays here as the reference the level set is
tested against, and is not on the planning path: ``balance_multi_visit``
moves each target's total dwell proportionally to the log ratio of its peak
cost to the geometric mean across active targets, which keeps the period
constant while all active peak costs converge to a common value.  It costs
every target through ``balance_within_target``, which splits a target's
total across its dwell slots until its per-visit peaks agree, by the level
set's own Newton step (a target with one slot has nothing to split).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .config import DEFAULT_CONFIG, PlannerConfig
from .covariance import (
    ConvergenceError,
    cov_norm,
    periodic_steady_state,
    _scalar_periodic_peaks,
)
from .cycles import Cycle, SteadyStateCache, cycle_lower_bound, tsp_heuristic
from .model import TargetNetwork, _integer, _number

__all__ = [
    "PlanningError",
    "TargetTimeline",
    "timeline_from_schedule",
    "DwellState",
    "Plan",
    "balance_single_visit",
    "balance_multi_visit",
    "balance_within_target",
    "balance_level_set",
    "golden_period_search",
    "plan_for_cycle",
    "plan_single_agent",
]

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0

CONSENSUS_GAIN = 1e-2        # consensus law's initial gain (halved on a rise)
BALANCE_MAX_ITERS = 50_000   # consensus sweeps before ConvergenceError
LOG_RATIO_CAP = 50.0         # |log(g_i/g_avg)| cap (infinite-cost guard)
SPLIT_TOL = 1e-7             # within-target split convergence
LEVEL_NEWTON_STEPS = 400     # Newton steps before ConvergenceError
FD_STEP = 1e-6               # relative dwell step of the finite-difference slopes
BRACKET_LOW = 0.1            # T_min = (1 + low) * travel time
BRACKET_HIGH = 3.0           # T_max = high * travel time
GOLDEN_EPS = 1e-6            # relative |g(T2) - g(T1)| of the first two probes: a flat cost
PERIOD_XTOL = 1e-4           # relative period tolerance of the period search
GOLDEN_MAX_ITERS = 200
COMPARE_TOL = 1e-6           # relative tolerance of the exclusion loop's cost comparisons
PERIOD_REL_TOL = 1e-9        # a plan file's period against its travel time plus dwells


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
    """Convert an instance-aligned dwell vector into per-target timelines,
    in target order: ``Cycle.timelines`` with the dwell vector checked.

    ``t_off`` after a visit spans the departing leg plus every intermediate
    dwell and leg until the target's next instance.
    """
    n = len(cycle.instances)
    if len(dwells) != n:
        raise ValueError(f"need a dwell list of length {n}, got {len(dwells)}")
    if any(d < 0 for d in dwells):
        raise ValueError("dwells must be nonnegative")
    return {tid: TargetTimeline(*on_off, cycle.positions_of(tid))
            for tid, on_off in cycle.timelines(dwells, sorted(cycle.target_ids)).items()}


# ---------------------------------------------------------------------------
# balanced dwell state
# ---------------------------------------------------------------------------

@dataclass(kw_only=True)
class DwellState:
    """Result of a balancing run on (cycle, period)."""

    cycle: Cycle
    dwells: list[float]
    period: float
    costs: dict[int, float]              # per-target worst peak cost
    visit_costs: dict[int, list[float]]  # per-visit peak costs (instance order)
    g_con: float                         # consensus level of the active peaks
    active: set[int]
    trace: list[float] = field(default_factory=list, repr=False)   # worst peak cost per step
    iterations: int = 0


def _visit_costs(cache: SteadyStateCache, tid: int, t_on: list[float],
                 t_off: list[float]) -> list[float]:
    """Per-visit peak costs of one target's periodic steady state; a target
    that is never observed sits at its never-observed cost at every visit."""
    if sum(t_on) <= 0.0:
        return [cache.never_observed_cost(tid)] * len(t_on)
    target = cache.target(tid)
    if target.is_scalar:
        uppers, _, _ = _scalar_periodic_peaks(
            float(target.A[0, 0]), float(target.Q[0, 0]), float(target.G[0, 0]), t_on, t_off
        )
        return [target.g(u) for u in uppers]
    peaks = periodic_steady_state(target.A, target.Q, target.G, t_on, t_off)
    return [target.g(cov_norm(u)) for u in peaks.upper]


def _geometric_mean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _log_ratio(cost: float, g_avg: float) -> float:
    if math.isinf(cost):
        return LOG_RATIO_CAP
    r = math.log(cost / g_avg)
    return max(-LOG_RATIO_CAP, min(LOG_RATIO_CAP, r))


def _init_dwells(cycle: Cycle, period: float,
                 initial: list[float] | None) -> tuple[float, list[float]]:
    """The dwell budget of ``period`` and a start dwell vector that fills it."""
    budget = period - cycle.travel_time
    if budget <= 0:
        raise PlanningError(
            f"period {period:.6g} does not exceed the travel time {cycle.travel_time:.6g}"
        )
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
        return budget, [v * budget / total for v in initial]
    share = budget / len(cycle.eligible)
    for positions in cycle.eligible.values():
        for pos in positions:
            dwells[pos] = share / len(positions)
    return budget, dwells


# ---------------------------------------------------------------------------
# consensus balancing (the paper's reference law; not on the planning path)
# ---------------------------------------------------------------------------

def balance_within_target(
    tid: int,
    splits: list[float],
    t_off: list[float],
    eligible_mask: list[bool],
    cache: SteadyStateCache,
) -> tuple[list[float], list[float]]:
    """Split a fixed total dwell across one target's visits until the
    per-visit peak costs agree (the inner process of the two-level scheme).

    Gaps ``t_off`` are frozen; only the eligible splits move.  Each step is
    the level set's bordered Newton step (``_level_step``) with this target
    as its one multi-slot target: its rows are the eligible visits' log
    peaks, one finite difference per eligible split, and its budget is the
    target's total.  It stops once their spread is at most ``SPLIT_TOL``; a
    step without a usable row, or ``LEVEL_NEWTON_STEPS`` steps, raise
    ``ConvergenceError``.  Returns the new split and the per-visit costs.
    """
    total = sum(splits)
    costs = _visit_costs(cache, tid, splits, t_off)
    elig = list(compress(range(len(splits)), eligible_mask))
    if len(elig) <= 1 or total <= 0.0:
        return list(splits), costs
    rows = np.zeros((len(elig), len(splits)))   # an ineligible split stays at zero
    for _ in range(LEVEL_NEWTON_STEPS):
        elig_costs = [costs[p] for p in elig]
        g_avg = _geometric_mean(elig_costs)
        spread = max(abs(c - g_avg) for c in elig_costs) / g_avg
        if spread <= SPLIT_TOL:
            return list(splits), costs
        logs = [math.log(c) for c in costs]
        for p in elig:
            h = -FD_STEP * splits[p]
            if not h < 0.0:   # a zero split, or a subnormal one (the step underflows)
                h = FD_STEP * total
            bumped = [*splits]
            bumped[p] += h
            bumped_costs = _visit_costs(cache, tid, bumped, t_off)
            rows[:, p] = [(math.log(bumped_costs[r]) - logs[r]) / h for r in elig]
        splits = _level_step(splits, logs, {}, {tid: rows}, {tid: elig},
                             [math.inf] * len(splits), total)
        if splits is None:
            break
        costs = _visit_costs(cache, tid, splits, t_off)
    raise ConvergenceError(f"within-target split for target {tid} did not converge", spread)


def balance_multi_visit(
    cycle: Cycle,
    period: float,
    cache: SteadyStateCache | None = None,
    initial_dwells: list[float] | None = None,
    tol: float | None = None,
) -> DwellState:
    """Equalize the peak costs of every active target on (cycle, period).

    Each sweep costs every target at the current dwells and moves its total
    dwell by the consensus law with the period held exactly constant; clipped
    dwell mass is redistributed proportionally.  Every target is costed one
    way: ``balance_within_target`` re-balances its split against gaps
    computed from the other targets' current dwells (a target with one dwell
    slot returns at once), and its cost is its worst visit.  A new total is
    rescaled proportionally across the target's slots, or shared evenly by
    them from zero.  The gain starts at ``CONSENSUS_GAIN`` and is halved
    whenever a step raises the worst cost by more than a rise tolerance:
    round-off when every target has one slot, 1e-3 when some target has
    several (at round-off three cases of ``tests/test_dwell.py`` stall).
    """
    cache = cache or SteadyStateCache(cycle.network)
    budget, dwells = _init_dwells(cycle, period, initial_dwells)
    gain = CONSENSUS_GAIN
    tol = DEFAULT_CONFIG.balance_tol if tol is None else tol
    dwell_ids = sorted(cycle.eligible)
    positions = {tid: cycle.positions_of(tid) for tid in dwell_ids}
    masks = {tid: [cycle.instances[p].dwell_eligible for p in ps] for tid, ps in positions.items()}
    several = any(len(slots) > 1 for slots in cycle.eligible.values())
    rise_rel, rise_abs = (1e-3, 0.0) if several else (1e-12, 1e-15)

    trace: list[float] = []
    prev: tuple[list[float], dict[int, float], dict[int, list[float]], float] | None = None
    spread = math.inf
    for iters in range(1, BALANCE_MAX_ITERS + 1):
        timelines = cycle.timelines(dwells, dwell_ids)
        costs: dict[int, float] = {}
        visit_costs: dict[int, list[float]] = {}
        for tid in dwell_ids:
            new_splits, visit_costs[tid] = balance_within_target(tid, *timelines[tid],
                                                                 masks[tid], cache)
            for p, s in zip(positions[tid], new_splits):
                dwells[p] = s
            costs[tid] = max(visit_costs[tid])
        max_cost = max(costs.values())
        if prev is not None and max_cost > prev[3] * (1.0 + rise_rel) + rise_abs:
            dwells, costs, visit_costs, max_cost = (
                [*prev[0]], dict(prev[1]), dict(prev[2]), prev[3],
            )
            gain *= 0.5
            if gain < CONSENSUS_GAIN * 2.0 ** -40:
                raise ConvergenceError("dwell balancing stalled", spread)
        trace.append(max_cost)
        totals = {tid: sum(dwells[p] for p in positions[tid]) for tid in dwell_ids}
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
            step = gain * _log_ratio(costs[tid], g_con)
            proposed[tid] = max(0.0, total + step)
        grand = sum(proposed.values())
        if grand <= 0.0:
            proposed = {tid: budget / len(dwell_ids) for tid in dwell_ids}
            grand = budget
        scale = budget / grand
        for tid in dwell_ids:
            new_total = proposed[tid] * scale
            if totals[tid] > 0.0:
                ratio = new_total / totals[tid]
                for p in positions[tid]:
                    dwells[p] = dwells[p] * ratio
            elif new_total > 0.0:
                n_el = sum(masks[tid])
                for p, e in zip(positions[tid], masks[tid]):
                    dwells[p] = new_total / n_el if e else 0.0
    else:
        raise ConvergenceError("dwell balancing did not converge", spread)

    return DwellState(
        cycle=cycle,
        dwells=dwells,
        period=period,
        costs=costs,
        visit_costs=visit_costs,
        g_con=g_con,
        active=set(active),
        trace=trace,
        iterations=iters,
    )


def balance_single_visit(
    cycle: Cycle,
    period: float,
    cache: SteadyStateCache | None = None,
    initial_dwells: list[float] | None = None,
    tol: float | None = None,
) -> DwellState:
    """``balance_multi_visit`` on a cycle where each target has at most one
    dwell slot (raises ``PlanningError`` otherwise)."""
    for tid, positions in cycle.eligible.items():
        if len(positions) > 1:
            raise PlanningError(f"target {tid} has multiple dwell slots; "
                                "use the multi-visit balancer")
    return balance_multi_visit(cycle, period, cache, initial_dwells, tol)


# ---------------------------------------------------------------------------
# level-set balancing
# ---------------------------------------------------------------------------

def _to_budget(x: list[float], budget: float) -> list[float]:
    scale = budget / sum(x)
    return [d * scale for d in x]


def _level_step(x: list[float], logs: list[float], slope: dict[int, float],
                dense: dict[int, np.ndarray], groups: dict[int, list[int]],
                floor: list[float], budget: float) -> list[float] | None:
    """One bordered Newton step of ``log u_k(x) = L`` for every slot ``k`` of
    an active target and ``Σ x = budget``, from slot dwells ``x`` with log
    peaks ``logs``; ``groups`` maps each target to its slots and ``floor[k]``
    is the log never-observed cost of slot ``k``'s target.  None when no row
    is usable, the system is singular or the linear model leaves no dwell
    positive.

    A single-slot target's row is the slope ``slope[k]`` of its own peak, so
    its step is ``δ_k = (L - ℓ_k) / s_k`` in closed form.  A multi-slot
    target's rows ``dense[tid]`` (one column per slot) are dense; with the
    closed form substituted, only they and ``L`` go to ``numpy.linalg.solve``.
    With no multi-slot target in the model ``L = (budget - Σ x + Σ ℓ_k / s_k)
    / Σ 1 / s_k``.

    A target takes part in the linear model while its rows are finite (a
    single-slot slope must also fall) and its modelled dwell stays above
    zero; a multi-slot target's rows couple it to every other dwell, so it
    leaves only once no single-slot target does, and then alone: the one
    with the most negative modelled total, one per pass, as dropping one
    moves the level for the rest.  The others are modelled at
    zero dwell.  A step moves a dwell to between a quarter and four times its
    value (from zero, to at most the budget), a target cheaper never observed
    than ``e^L`` takes none, and the dwells are rescaled to the budget.
    """
    ones = [k for k, s in slope.items() if s < 0.0 and math.isfinite(s)]
    finite = [tid for tid, rows in dense.items() if np.isfinite(rows).all()]
    multi = finite
    if not ones and not multi:
        return None
    while True:
        rows = [k for tid in multi for k in groups[tid]]
        free = (budget - sum(x[k] for k in ones + rows)
                + sum(logs[k] / slope[k] for k in ones))
        step: dict[int, float] = {}
        if not multi:
            level = free / sum(1.0 / slope[k] for k in ones)
        else:
            # a multi-slot row r with the single-slot steps substituted:
            # J_rM δ_M + (Σ_S J_rk / s_k - 1) L = J_r,rest x_rest - ℓ_r + Σ_S J_rk ℓ_k / s_k
            modelled = set(ones + rows)
            rest = [k for k in range(len(x)) if k not in modelled]
            jac = np.vstack([dense[tid] for tid in multi])
            inv = np.array([1.0 / slope[k] for k in ones])
            system = np.empty((len(rows) + 1, len(rows) + 1))
            system[:-1, :-1] = jac[:, rows]
            system[:-1, -1] = jac[:, ones] @ inv - 1.0
            system[-1, :-1] = 1.0
            system[-1, -1] = inv.sum()
            rhs = np.append(jac[:, rest] @ np.array([x[k] for k in rest])
                            - np.array([logs[k] for k in rows])
                            + jac[:, ones] @ (inv * np.array([logs[k] for k in ones])), free)
            try:
                solution = np.linalg.solve(system, rhs)
            except np.linalg.LinAlgError:
                return None
            if not np.isfinite(solution).all():
                return None
            level = float(solution[-1])
            step = dict(zip(rows, solution[:-1].tolist()))
        kept = [k for k in ones if logs[k] - slope[k] * x[k] > level]
        if len(kept) < len(ones):
            if not (kept or multi):
                break
            ones = kept
            continue
        totals = {tid: sum(x[k] + step[k] for k in groups[tid]) for tid in multi}
        worst = min(totals, key=totals.get, default=None)
        if worst is None or totals[worst] > 0.0 or not (ones or len(multi) > 1):
            break
        multi = [tid for tid in multi if tid != worst]
    frozen = {k for tid in dense if tid not in finite for k in groups[tid]}
    proposed = [0.0] * len(x)
    for k, d in enumerate(x):
        if floor[k] <= level:
            continue
        if k in slope:
            if not slope[k] < 0.0:
                proposed[k] = d
                continue
            # a slope of -inf leaves the dwell as it is
            target = max(0.0, d + (level - logs[k]) / slope[k])
        elif k in frozen:
            proposed[k] = d
            continue
        else:
            target = max(0.0, d + step[k]) if k in step else 0.0
        proposed[k] = min(4.0 * d, max(0.25 * d, target)) if d > 0.0 else min(target, budget)
    return _to_budget(proposed, budget) if sum(proposed) > 0.0 else None


def balance_level_set(
    cycle: Cycle,
    period: float,
    cache: SteadyStateCache | None = None,
    config: PlannerConfig | None = None,
    initial_dwells: list[float] | None = None,
) -> DwellState:
    """Balance a cycle by solving for the common peak level directly; the
    result is the consensus law's fixed point within ``tol``, the config's
    ``balance_tol``.

    The unknowns are the dwell of every eligible slot and the level ``L``:
    each slot of an active target asks that the peak at the start of its
    visit be ``e^L``, and the dwells fill the budget; a target whose
    never-observed cost is at most ``e^L`` takes no dwell (the consensus
    law's inactive set).  Each step is one bordered Newton step
    (``_level_step``).  At a fixed period a single-slot target's peak falls
    strictly with its own dwell alone, so its row is one slope: a finite
    difference on the first step, secants after.  A multi-slot target's
    peaks move with every dwell inside its gaps, so each step bumps every
    slot once and re-costs the multi-slot targets on the bumped schedule
    (the period grows with the bump; the budget row makes that equivalent
    to a fixed-period derivative).

    It stops once the spread of the active per-target costs and of every
    active eligible visit's peak is at most ``tol / 10``.  Should
    ``LEVEL_NEWTON_STEPS`` steps not get there, a step find no usable row,
    or an active peak overflow to ``inf`` (residual ``inf``), it raises
    ``ConvergenceError``: the period search takes that as an infeasible
    period.  ``trace`` is the running minimum of each iterate's
    worst peak cost.
    """
    cfg = config or DEFAULT_CONFIG
    cache = cache or SteadyStateCache(cycle.network)
    eligible = cycle.eligible
    budget, start = _init_dwells(cycle, period, initial_dwells)
    tol = cfg.balance_tol
    ids = sorted(eligible)
    never = {tid: cache.never_observed_cost(tid) for tid in ids}
    slots = [p for tid in ids for p in eligible[tid]]
    owner = [tid for tid in ids for _ in eligible[tid]]
    groups: dict[int, list[int]] = {}
    for k, tid in enumerate(owner):
        groups.setdefault(tid, []).append(k)
    multi = {tid: cycle.positions_of(tid) for tid in ids if len(eligible[tid]) > 1}
    one = {tid: ks[0] for tid, ks in groups.items() if tid not in multi}
    floor = [math.log(never[tid]) for tid in owner]
    # index of each eligible visit in its multi-slot target's timeline
    visit = {tid: [positions.index(p) for p in eligible[tid]] for tid, positions in multi.items()}

    def cost(tid: int, d: float) -> float:
        return _visit_costs(cache, tid, [d], [period - d])[0]

    def multi_costs(dwells: list[float]) -> dict[int, list[float]]:
        """Per-visit peak costs of every multi-slot target."""
        return {tid: _visit_costs(cache, tid, *on_off)
                for tid, on_off in cycle.timelines(dwells, multi).items()}

    def full(x: list[float]) -> list[float]:
        dwells = [0.0] * len(cycle.instances)
        for k, p in enumerate(slots):
            dwells[p] = x[k]
        return dwells

    x = [start[p] for p in slots]
    for tid, ks in groups.items():   # an unstable target is never inactive
        if math.isinf(never[tid]) and sum(x[k] for k in ks) <= 0.0:
            for k in ks:
                x[k] = budget / len(ids) / len(ks)
    x = _to_budget(x, budget)

    trace: list[float] = []
    slope: dict[int, float] = {}   # single-slot rows
    dense = {tid: np.empty((len(groups[tid]), len(slots))) for tid in multi}
    prev: tuple[list[float], list[float]] | None = None
    steps = 0
    while True:
        dwells = full(x) if multi else None   # instance-aligned, for the multi-slot targets
        costs = {tid: cost(tid, x[k]) for tid, k in one.items()}
        visit_costs = multi_costs(dwells) if multi else {}   # multi-slot targets
        for tid, vcosts in visit_costs.items():
            costs[tid] = max(vcosts)
        trace.append(min(max(costs.values()), trace[-1] if trace else math.inf))
        on = set(compress(owner, x))   # targets with a positive dwell
        active = sorted(on)
        peaks = [costs[tid] for tid in active]
        if any(map(math.isinf, peaks)):   # no usable row, and inf - inf is no spread
            raise ConvergenceError("level-set balancing: an active peak overflows the double "
                                   "range", math.inf)
        g_con = _geometric_mean(peaks)
        for tid in on.intersection(multi):
            peaks += [visit_costs[tid][i] for i in visit[tid]]
        spread = max(abs(c - g_con) for c in peaks) / g_con
        inactive_ok = all(never[tid] <= g_con * (1.0 + tol) for tid in ids if tid not in on)
        if spread <= 0.1 * tol and inactive_ok:
            break
        # log of the peak at the start of each eligible visit
        logs = [math.log(costs[tid]) for tid in owner]
        for tid, vcosts in visit_costs.items():
            for k, i in zip(groups[tid], visit[tid]):
                logs[k] = math.log(vcosts[i])
        new_x = None
        # a multi-slot target's eligible peaks are at most its cost
        if steps < LEVEL_NEWTON_STEPS and all(math.isfinite(costs[tid]) for tid in active):
            # one finite difference per slot: a single-slot row on the first
            # step only, every multi-slot row on every step
            if prev is None or multi:
                for k, p in enumerate(slots):
                    h = -FD_STEP * x[k]
                    if not h < 0.0:   # a zero dwell, or a subnormal one (the step underflows)
                        h = FD_STEP * budget
                    if prev is None and owner[k] in one:
                        slope[k] = (math.log(cost(owner[k], x[k] + h)) - logs[k]) / h
                    if multi:
                        bumped = [*dwells]
                        bumped[p] += h
                        for tid, vcosts in multi_costs(bumped).items():
                            dense[tid][:, k] = [(math.log(vcosts[i]) - logs[r]) / h
                                                for r, i in zip(groups[tid], visit[tid])]
            # single-slot rows: secants after the first step
            if prev is not None:
                for k in slope:
                    step = x[k] - prev[0][k]
                    if abs(step) > 1e-9 * max(x[k], prev[0][k]):
                        secant = (logs[k] - prev[1][k]) / step
                        if secant < 0.0 and math.isfinite(secant):
                            slope[k] = secant
            new_x = _level_step(x, logs, slope, dense, groups, floor, budget)
        if new_x is None:
            raise ConvergenceError("level-set balancing did not converge", spread)
        prev = (x, logs)
        x = new_x
        steps += 1

    return DwellState(
        cycle=cycle,
        dwells=full(x),
        period=period,
        costs={tid: costs[tid] for tid in ids},   # in target order
        visit_costs={tid: visit_costs.get(tid) or [costs[tid]] for tid in ids},
        g_con=g_con,
        active=set(active),
        trace=trace,
        iterations=steps,
    )


# ---------------------------------------------------------------------------
# period search
# ---------------------------------------------------------------------------

def golden_period_search(
    cycle: Cycle,
    cache: SteadyStateCache | None = None,
    config: PlannerConfig | None = None,
) -> tuple[float, DwellState, list[tuple[float, float]]]:
    """Brent's search of the period against the balanced peak cost: golden
    section safeguarding parabolic interpolation (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 5).

    Every probe is balanced by ``balance_level_set``.  A probe it cannot
    balance (``ConvergenceError``) is infeasible: it is logged as ``(period,
    inf)`` and costs ``inf`` to the search, the extreme barrier of
    derivative-free search (Audet & Dennis, SIAM J. Optim. 17(1), 2006).
    Probes reuse the last balanced probe's dwell vector (rescaled) as a warm
    start; the balanced cost is invariant to the start point.  The bracket
    is ``[(1 + BRACKET_LOW), BRACKET_HIGH]`` times the travel time ([1, 3]
    for a cycle without travel).

    The first two probes are golden section's.  If both are finite and
    agree within ``GOLDEN_EPS`` the cost is flat and the bracket midpoint is
    probed and returned (the cheaper of the two, should the midpoint be
    infeasible).  Otherwise the smaller one seeds Brent's steps, which stop once
    the bracket around the best probe is within ``PERIOD_XTOL`` of it; a
    parabola that is not finite (a probe may cost ``inf``) gives way to a
    golden step.  A bracket end within that tolerance of the best probe is
    probed once, so an optimum at the end is found exactly.  Returns the
    cheapest probe's period and balanced state, and the (period, cost) probe
    log; if no probe balanced, raises the first probe's ``ConvergenceError``.
    """
    cache = cache or SteadyStateCache(cycle.network)
    travel = cycle.travel_time
    lo, hi = ((1.0 + BRACKET_LOW) * travel, BRACKET_HIGH * travel) if travel > 0 else (1.0, 3.0)

    probes: list[tuple[float, float]] = []
    state: DwellState | None = None   # the last balanced probe
    best: DwellState | None = None
    errors: list[ConvergenceError] = []

    def evaluate(period: float) -> float:
        nonlocal state, best
        try:
            state = balance_level_set(cycle, period, cache, config,
                                      initial_dwells=None if state is None else state.dwells)
        except ConvergenceError as exc:
            errors.append(exc)
            probes.append((period, math.inf))
            return math.inf
        probes.append((period, state.g_con))
        if best is None or state.g_con < best.g_con:
            best = state
        return state.g_con

    x1 = hi - (hi - lo) / GOLDEN_RATIO
    x2 = lo + (hi - lo) / GOLDEN_RATIO
    f1, f2 = evaluate(x1), evaluate(x2)
    if math.isfinite(f1 + f2) and abs(f2 - f1) <= GOLDEN_EPS * max(f1, f2):
        t_star = 0.5 * (x1 + x2)
        if math.isfinite(evaluate(t_star)):
            return t_star, state, probes
        return best.period, best, probes
    # (a, b) brackets the minimum; x is the best probe, w the second best
    # and v the previous w
    if f1 < f2:
        a, b, x, fx, w, fw = lo, x2, x1, f1, x2, f2
    else:
        a, b, x, fx, w, fw = x1, hi, x2, f2, x1, f1
    v, fv = w, fw
    d = e = 0.0   # the last step and the one before it
    for _ in range(GOLDEN_MAX_ITERS):
        mid = 0.5 * (a + b)
        tol1 = PERIOD_XTOL * x
        if abs(x - mid) <= 2.0 * tol1 - 0.5 * (b - a):
            break
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # a parabola is taken if it is finite, falls inside the bracket
            # and moves less than half the step before last
            if (math.isfinite(p) and math.isfinite(q)
                    and abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x)):
                e, d = d, p / q
                golden = False
                if x + d - a < 2.0 * tol1 or b - (x + d) < 2.0 * tol1:
                    d = math.copysign(tol1, mid - x)
        if golden:
            # 1/φ² of the larger side, as 2 - φ: from a golden-section point
            # this lands on golden section's next probe bit for bit
            e = (a if x >= mid else b) - x
            d = (2.0 - GOLDEN_RATIO) * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = evaluate(u)
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == w:
                v, fv = u, fu
    for end in (lo, hi):
        if abs(end - x) <= 2.0 * PERIOD_XTOL * x:
            evaluate(end)
    if best is None:
        raise errors[0]
    return best.period, best, probes


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

@dataclass(kw_only=True)
class Plan(DwellState):
    """A complete single-agent schedule: the balanced state of the chosen
    period (its ``trace`` is that balancing's log) plus the predicted cost,
    the targets the exclusion loop dropped with their costs when dropped,
    the cycle's cost floor and the period search's (period, cost) probes."""

    j_pred: float
    excluded: dict[int, float]
    metric_value: float
    search_probes: list[tuple[float, float]] = field(default_factory=list, repr=False)

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
        """Rebuild a plan over ``network``, a cluster's view for a fleet
        plan, with an empty ``trace``.  A missing or malformed field (numbers
        are read as strictly as an instance's: a string, a boolean or a
        non-finite value is not a number, a target or active id must be
        integral, and ``dwell_eligible`` must be a boolean), an instance
        target without a route in the network, a dwell slot at a target the
        view does not cover, a negative dwell, a positive dwell at an
        instance that is not ``dwell_eligible``, leg times other than the
        network's fastest travel times between consecutive instances, a
        period other than the travel time plus the dwells (within
        ``PERIOD_REL_TOL``), an active target the view does not cover, a
        cost, visit cost or exclusion of a target the view does not cover,
        an excluded target that is active, a negative predicted or floor
        cost, a consensus cost that is not positive, an active target
        without a cost or visit costs, and a predicted cost other than the
        worst of the per-target and excluded costs each raise a
        ``ValueError`` naming the field."""
        if not isinstance(doc, dict) or doc.get("format") != "plan":
            raise ValueError("not a plan document")

        def read(key, parse):
            if key not in doc:
                raise ValueError(f"plan document has no {key!r} field")
            try:
                return parse(doc[key])
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"plan document field {key!r} is malformed: {exc!r}") from exc

        def flag(value, name):
            if not isinstance(value, bool):
                raise ValueError(f"{name} must be true or false, got {value!r}")
            return value

        entries = read("instances", lambda v: [
            (_integer(e["target"], f"entry {k} target"),
             flag(e["dwell_eligible"], f"entry {k} dwell_eligible"),
             _number(e["dwell"], f"entry {k} dwell")) for k, e in enumerate(v)
        ])
        legs = read("leg_times", lambda v: [_number(x, "a leg time") for x in v])
        ids = set(network.ids)
        for k, (target, eligible, dwell) in enumerate(entries):
            if dwell < 0.0:
                raise ValueError(f"plan document field 'instances': entry {k} has dwell "
                                 f"{dwell!r}; a dwell must be nonnegative")
            if target not in network.travel:
                raise ValueError(f"plan document field 'instances': entry {k} visits "
                                 f"target {target}, which is not in the network")
            if target not in ids and (eligible or dwell != 0.0):
                raise ValueError(f"plan document field 'instances': entry {k} may dwell at "
                                 f"target {target}, which the plan does not cover")
            if dwell > 0.0 and not eligible:
                raise ValueError(f"plan document field 'instances': entry {k} has dwell "
                                 f"{dwell!r} but is not dwell_eligible")
        if not entries:
            raise ValueError("plan document field 'instances' is empty")
        cycle = Cycle(network, [(t, elig) for t, elig, _ in entries])
        if legs != cycle.legs:
            raise ValueError(f"plan document field 'leg_times' does not match the network's "
                             f"fastest travel times between its {len(entries)} instances")
        dwells = [dwell for _, _, dwell in entries]
        period = read("period", lambda v: _number(v, "period"))
        total = cycle.travel_time + sum(dwells)
        if not (0.0 < period and abs(period - total) <= PERIOD_REL_TOL * period):
            raise ValueError(f"plan document field 'period' is {period!r}, but the travel time "
                             f"plus the dwells is {total!r}")
        active = read("active", lambda v: {_integer(x, "an active target") for x in v})
        if not active <= ids:
            raise ValueError(f"plan document field 'active' names targets the plan does not "
                             f"cover: {sorted(active - ids)}")
        report = {key: read(key, lambda v: _number(v, key))
                  for key in ("predicted_cost", "consensus_cost", "metric_floor")}
        for key, value in report.items():
            if value < 0.0:
                raise ValueError(f"plan document field {key!r} is {value!r}; "
                                 f"it must be nonnegative")
        g_con = report["consensus_cost"]
        if g_con == 0.0:
            raise ValueError(f"plan document field 'consensus_cost' is {g_con!r}; a balanced "
                             f"level is a geometric mean of positive peaks, so it must be positive")

        def target_costs(key):
            return read(key, lambda v: {int(k): _number(x, f"the cost of target {k}")
                                        for k, x in v.items()})

        costs, excluded = target_costs("per_target_cost"), target_costs("excluded")
        visit_costs = read("per_visit_cost", lambda v: {
            int(k): [_number(x, f"a visit cost of target {k}") for x in xs] for k, xs in v.items()
        })
        for key, named in (("per_target_cost", costs), ("per_visit_cost", visit_costs),
                           ("excluded", excluded)):
            if not named.keys() <= ids:
                raise ValueError(f"plan document field {key!r} names targets the plan does not "
                                 f"cover: {sorted(named.keys() - ids)}")
        if active & excluded.keys():
            raise ValueError(f"plan document field 'excluded' names active targets: "
                             f"{sorted(active & excluded.keys())}")
        for tid in sorted(active):
            if tid not in costs:
                raise ValueError(f"plan document field 'per_target_cost' has no cost "
                                 f"for active target {tid}")
            if not visit_costs.get(tid):
                raise ValueError(f"plan document field 'per_visit_cost' has no visit "
                                 f"costs for active target {tid}")
        j_pred = report["predicted_cost"]
        worst = [*costs.values(), *excluded.values()]
        if j_pred not in worst or not all(c <= j_pred for c in worst):
            raise ValueError(f"plan document field 'predicted_cost' is {j_pred!r}, but the worst "
                             f"of 'per_target_cost' and 'excluded' is {max(worst, default=None)!r}")
        return cls(
            cycle=cycle,
            dwells=dwells,
            period=period,
            j_pred=j_pred,
            g_con=g_con,
            costs=costs,
            visit_costs=visit_costs,
            active=active,
            excluded=excluded,
            metric_value=report["metric_floor"],
        )


def _finish_plan(state: DwellState, cache: SteadyStateCache, excluded: dict[int, float],
                 probes: list[tuple[float, float]]) -> Plan:
    j_pred = max([*state.costs.values(), *excluded.values()])
    return Plan(**vars(state), j_pred=j_pred, excluded=excluded,
                metric_value=cycle_lower_bound(state.cycle, cache).value, search_probes=probes)


def plan_for_cycle(cycle: Cycle, cache: SteadyStateCache | None = None,
                   config: PlannerConfig | None = None) -> Plan:
    """Optimize the period and dwells for a fixed cycle."""
    cache = cache or SteadyStateCache(cycle.network)
    t_star, state, probes = golden_period_search(cycle, cache, config)
    return _finish_plan(state, cache, {}, probes)


def plan_single_agent(
    network: TargetNetwork,
    cache: SteadyStateCache | None = None,
    config: PlannerConfig | None = None,
) -> Plan:
    """Single-agent planning with the inactive-target exclusion loop.

    Builds the shortest tour over the remaining targets, optimizes period and
    dwells, and drops the cheapest inactive target while doing so lowers the
    consensus cost; stops when every toured target is active or the last
    excluded target is the bottleneck.
    """
    cache = cache or SteadyStateCache(network)
    remaining = set(network.ids)
    excluded: dict[int, float] = {}

    def optimize(ids):
        cycle = tsp_heuristic(network, ids)
        t_star, state, probes = golden_period_search(cycle, cache, config)
        return cycle, state, probes

    cycle, state, probes = optimize(remaining)
    for _ in range(len(remaining)):
        c_min, i_min = min(
            (state.costs[tid], tid) for tid in sorted(state.costs)
        )
        if c_min >= state.g_con * (1.0 - COMPARE_TOL):
            break  # every toured target is active
        if len(remaining) == 1:
            break
        remaining = remaining - {i_min}
        excluded[i_min] = c_min
        cycle, state, probes = optimize(remaining)
        if state.g_con < c_min * (1.0 - COMPARE_TOL):
            break  # the excluded target is the bottleneck now
    return _finish_plan(state, cache, excluded, probes)

