"""Forward time-domain validation of a plan.

Simulates every target's covariance under the plan's observation schedule
from arbitrary initial conditions, using the engine's segment-exact
propagators (uniform substeps inside each dwell/travel segment, exact values
at segment boundaries), and checks the realized worst cost against the plan's
prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_CONFIG, PlannerConfig
from .covariance import cov_norm, observed_flow, unobserved_flow, periodic_steady_state
from .cycles import SteadyStateCache
from .dwell import Plan, timeline_from_schedule
from .model import TargetNetwork

__all__ = ["SimTrace", "simulate", "validate", "trace_to_csv", "steady_initial_covariances"]


@dataclass
class SimTrace:
    """Sampled covariance trajectories under a plan's schedule."""

    times: list[float]
    norms: dict[int, list[float]]
    costs: dict[int, list[float]]
    observed: dict[int, list[int]]
    period: float
    num_periods: int
    dt: float
    switch_times: dict[int, list[float]]      # off->on instants within one period
    realized_cost: float                       # worst cost over the last period
    per_target_realized: dict[int, float]
    settle_period: int
    converged: bool
    period_maxima: dict[int, list[float]] = field(repr=False, default_factory=dict)
    state_samples: dict[int, list[tuple[float, np.ndarray]]] = field(repr=False, default_factory=dict)


def _schedule_segments(plan: Plan) -> list[tuple[float, int | None]]:
    """Execution order of (duration, observed target or None) segments."""
    cycle = plan.cycle
    segments: list[tuple[float, int | None]] = []
    n = len(cycle.instances)
    for pos, inst in enumerate(cycle.instances):
        dwell = plan.dwells[pos]
        if dwell > 1e-12:
            segments.append((dwell, inst.target))
        if n > 1 and cycle.legs[pos] > 1e-12:
            segments.append((cycle.legs[pos], None))
    return segments


def _visit_start_times(plan: Plan) -> dict[int, float]:
    """Absolute start time of each target's first dwell within the period."""
    cycle = plan.cycle
    t = 0.0
    starts: dict[int, float] = {}
    for pos, inst in enumerate(cycle.instances):
        if plan.dwells[pos] > 1e-12 and inst.target not in starts:
            starts[inst.target] = t
        t += plan.dwells[pos]
        if len(cycle.instances) > 1:
            t += cycle.legs[pos]
    return starts


def steady_initial_covariances(
    plan: Plan,
    network: TargetNetwork | None = None,
    cache: SteadyStateCache | None = None,
    scale: float = 1.0,
) -> dict[int, np.ndarray]:
    """Per-target covariance at the schedule start, on the periodic orbit.

    Never-visited Hurwitz targets start at their resting covariance; a
    ``scale`` other than one multiplies everything (for convergence tests).
    """
    network = network or plan.cycle.network
    cache = cache or SteadyStateCache(network)
    timelines = timeline_from_schedule(plan.cycle, plan.dwells)
    starts = _visit_start_times(plan)
    period = plan.period
    out: dict[int, np.ndarray] = {}
    for target in network.targets:
        tid = target.id
        tl = timelines.get(tid)
        if tl is None or sum(tl.t_on) <= 1e-12:
            ss = cache.steady(tid)
            base = ss.omega_inf_finite if ss.a_is_hurwitz else ss.omega_ss
            out[tid] = scale * base
            continue
        # drop zero-dwell visits: their phases merge into the gaps
        t_on, t_off = _merged_phases(tl.t_on, tl.t_off)
        peaks = periodic_steady_state(target.A, target.Q, target.G, t_on, t_off)
        # walk the orbit from the first dwell start back around to t = 0
        first_start = starts[tid]
        remaining = (period - first_start) % period
        omega = peaks.upper[0]
        for on, off in zip(t_on, t_off):
            if remaining <= 1e-14:
                break
            step = min(on, remaining)
            if step > 0:
                omega = observed_flow(target.A, target.Q, target.G, step).apply(omega)
                remaining -= step
            if remaining <= 1e-14:
                break
            step = min(off, remaining)
            if step > 0:
                omega = unobserved_flow(target.A, target.Q, step).apply(omega)
                remaining -= step
        out[tid] = scale * np.atleast_2d(omega)
    return out


def _merged_phases(t_on: list[float], t_off: list[float]) -> tuple[list[float], list[float]]:
    """Merge zero-dwell visits into the surrounding gaps."""
    ons, offs = [], []
    for on, off in zip(t_on, t_off):
        if on > 1e-12 or not ons:
            ons.append(on)
            offs.append(off)
        else:
            offs[-1] += off
    # a leading zero-dwell visit folds into the trailing gap
    while len(ons) > 1 and ons[0] <= 1e-12:
        offs[-1] += offs[0]
        ons.pop(0)
        offs.pop(0)
    return ons, offs


def simulate(
    plan: Plan,
    network: TargetNetwork | None = None,
    initial: dict[int, np.ndarray] | None = None,
    num_periods: int | None = None,
    dt: float | None = None,
    config: PlannerConfig | None = None,
    cache: SteadyStateCache | None = None,
    record_states: int = 0,
) -> SimTrace:
    """Integrate all target covariances for ``num_periods`` periods.

    ``initial`` defaults to the planned periodic steady state.  Sampling uses
    uniform substeps of at most ``dt`` inside each dwell/travel segment, with
    segment boundaries always sampled exactly.  A positive ``record_states``
    keeps every that-many-th full covariance per target (for directional
    checks on the trajectory).
    """
    cfg = config or DEFAULT_CONFIG
    network = network or plan.cycle.network
    cache = cache or SteadyStateCache(network)
    num_periods = cfg.num_periods if num_periods is None else num_periods
    if num_periods < 2:
        raise ValueError("num_periods must be at least 2")
    period = plan.period
    segments = _schedule_segments(plan)
    if not segments:
        raise ValueError("plan has no positive-duration segments")
    min_seg = min(d for d, _ in segments)
    if dt is None:
        dt = min(period / cfg.grid_points_per_period, min_seg / 50.0)
        dt = max(dt, period / 200_000.0)
    if initial is None:
        initial = steady_initial_covariances(plan, network, cache)

    targets = sorted(network.ids)
    specs = {t.id: t for t in network.targets}
    # per segment: substep count and per-target flow for one substep
    seg_plans = []
    for duration, obs_tid in segments:
        n_sub = max(1, math.ceil(duration / dt - 1e-9))
        step = duration / n_sub
        flows = {}
        for tid in targets:
            spec = specs[tid]
            if tid == obs_tid:
                flows[tid] = observed_flow(spec.A, spec.Q, spec.G, step)
            else:
                flows[tid] = unobserved_flow(spec.A, spec.Q, step)
        seg_plans.append((duration, obs_tid, n_sub, flows))

    scalar = {tid: specs[tid].is_scalar for tid in targets}
    state: dict[int, object] = {}
    for tid in targets:
        w0 = np.atleast_2d(np.asarray(initial[tid], dtype=float))
        state[tid] = float(w0[0, 0]) if scalar[tid] else w0

    times = [0.0]
    norms = {tid: [] for tid in targets}
    costs = {tid: [] for tid in targets}
    observed = {tid: [] for tid in targets}
    state_samples: dict[int, list[tuple[float, np.ndarray]]] = {tid: [] for tid in targets}

    def record(tid, obs_tid):
        w = state[tid]
        n = w if scalar[tid] else cov_norm(w)
        norms[tid].append(n)
        costs[tid].append(specs[tid].g(n))
        observed[tid].append(1 if tid == obs_tid else 0)
        if record_states and (len(norms[tid]) - 1) % record_states == 0:
            state_samples[tid].append(
                (times[-1], np.array([[w]]) if scalar[tid] else np.array(w))
            )

    first_obs = segments[0][1]
    for tid in targets:
        record(tid, first_obs)

    t = 0.0
    period_maxima = {tid: [] for tid in targets}
    for period_idx in range(num_periods):
        start_idx = len(times) - 1
        for si, (duration, obs_tid, n_sub, flows) in enumerate(seg_plans):
            step = duration / n_sub
            for k in range(n_sub):
                for tid in targets:
                    state[tid] = flows[tid].apply(state[tid])
                t += step
                times.append(t)
                # a boundary sample belongs to the segment that starts there,
                # so dwell-start instants carry the observed flag
                nxt = seg_plans[(si + 1) % len(seg_plans)][1] if k == n_sub - 1 else obs_tid
                for tid in targets:
                    record(tid, nxt)
        for tid in targets:
            period_maxima[tid].append(max(costs[tid][start_idx:]))

    per_target_realized = {}
    last_start = None
    for idx in range(len(times) - 1, -1, -1):
        if times[idx] <= (num_periods - 1) * period + 1e-9:
            last_start = idx
            break
    for tid in targets:
        per_target_realized[tid] = max(costs[tid][last_start:])
    realized = max(per_target_realized.values())

    settle = num_periods
    converged = False
    for k in range(num_periods - 1):
        ok = True
        for tid in targets:
            a, b = period_maxima[tid][k], period_maxima[tid][k + 1]
            if math.isinf(a) or math.isinf(b):
                ok = False
                break
            if abs(a - b) > 1e-6 * max(1.0, abs(b)):
                ok = False
                break
        if ok:
            settle = k + 1
            converged = True
            break

    timelines = timeline_from_schedule(plan.cycle, plan.dwells)
    starts = _visit_start_times(plan)
    switch_times: dict[int, list[float]] = {}
    for tid, tl in timelines.items():
        if sum(tl.t_on) <= 1e-12:
            continue
        events = []
        t_cursor = starts[tid]
        for on, off in zip(*_merged_phases(tl.t_on, tl.t_off)):
            events.append(t_cursor % period)
            t_cursor += on + off
        switch_times[tid] = sorted(events)

    return SimTrace(
        times=times,
        norms=norms,
        costs=costs,
        observed=observed,
        period=period,
        num_periods=num_periods,
        dt=dt,
        switch_times=switch_times,
        realized_cost=realized,
        per_target_realized=per_target_realized,
        settle_period=settle,
        converged=converged,
        period_maxima=period_maxima,
        state_samples=state_samples,
    )


def validate(
    plan: Plan,
    trace: SimTrace,
    tolerance: float = 1e-3,
) -> dict:
    """Consistency report between a plan's predictions and a simulated trace."""
    predicted = plan.j_pred
    realized = trace.realized_cost
    abs_err = abs(realized - predicted)
    rel_err = abs_err / max(abs(predicted), 1e-30)
    # peak instants: the worst sample of each dwelled target in the last
    # period must sit on an off->on switch (within one sample step)
    peak_alignment = {}
    last_period_start = (trace.num_periods - 1) * trace.period
    for tid, switches in trace.switch_times.items():
        ts = trace.times
        lo = next(k for k, t in enumerate(ts) if t >= last_period_start - 1e-9)
        seg = trace.costs[tid][lo:]
        k_max = max(range(len(seg)), key=seg.__getitem__)
        t_peak = (ts[lo + k_max] % trace.period)
        dist = min(
            min(abs(t_peak - s), trace.period - abs(t_peak - s)) for s in switches
        )
        peak_alignment[tid] = dist
    max_peak_offset = max(peak_alignment.values()) if peak_alignment else 0.0
    active_costs = {tid: trace.per_target_realized[tid] for tid in sorted(plan.active)}
    equalization = {
        tid: abs(c - plan.g_con) / plan.g_con for tid, c in active_costs.items()
    }
    report = {
        "predicted_cost": predicted,
        "realized_cost": realized,
        "absolute_error": abs_err,
        "relative_error": rel_err,
        "prediction_consistent": bool(rel_err <= tolerance),
        "metric_floor": plan.metric_value,
        "metric_floor_holds": bool(plan.metric_value <= realized + 1e-6),
        "peak_switch_offsets": peak_alignment,
        "max_peak_switch_offset": max_peak_offset,
        "peaks_at_switches": bool(max_peak_offset <= trace.dt + 1e-9),
        "equalization_residuals": equalization,
        "settle_period": trace.settle_period,
        "converged": trace.converged,
    }
    return report


def trace_to_csv(trace: SimTrace) -> str:
    """Delimiter-separated trace: t, then per target norm, cost, observed."""
    tids = sorted(trace.norms)
    header = ["t"]
    for tid in tids:
        header += [f"norm_{tid}", f"g_{tid}", f"eta_{tid}"]
    lines = [",".join(header)]
    for k, t in enumerate(trace.times):
        row = [f"{t:.9g}"]
        for tid in tids:
            row.append(f"{trace.norms[tid][k]:.12g}")
            row.append(f"{trace.costs[tid][k]:.12g}")
            row.append(str(trace.observed[tid][k]))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
