"""Forward time-domain validation of a plan.

Simulates every target's covariance under the plan's observation schedule
from arbitrary initial conditions, using the engine's segment-exact
propagators (uniform substeps inside each dwell/travel segment, exact values
at segment boundaries), and checks the realized worst cost against the plan's
prediction.

The trace is columnar: each target is integrated in one loop over the
segments (scalar targets apply the Moebius substep inline, with the same
operations as ``_ScalarFlow``), and its samples land in a numpy column.
Times, observed flags and the per-period maxima are array operations, and
``trace_to_csv`` formats column by column in chunks of rows.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_CONFIG, PlannerConfig
from .covariance import cov_norm, observed_flow, unobserved_flow, periodic_steady_state
from .cycles import SteadyStateCache
from .dwell import Plan, timeline_from_schedule
from .model import TargetNetwork

__all__ = ["SimTrace", "simulate", "validate", "trace_to_csv", "steady_initial_covariances"]

CSV_CHUNK_ROWS = 5_000   # rows formatted per batch by trace_to_csv
_FLAGS = ("0", "1")


@dataclass
class SimTrace:
    """Sampled covariance trajectories under a plan's schedule.

    ``times`` and the per-target ``norms``, ``costs`` and ``observed`` (0/1
    int32 flags) are numpy columns with one entry per sample.  A target with
    ``weight_alpha == 1`` has ``costs[tid] is norms[tid]``."""

    times: np.ndarray
    norms: dict[int, np.ndarray]
    costs: dict[int, np.ndarray]
    observed: dict[int, np.ndarray]
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


def _scalar_column(w: float, seg_coeffs, num_periods: int) -> np.ndarray:
    """Covariance of a scalar target at every sample: one Moebius substep
    ``w -> (m21 + m22 w) / (m11 + m12 w)`` per row, as ``_ScalarFlow``
    applies it."""
    col = array("d", [w])
    append = col.append
    for _ in range(num_periods):
        for (m11, m12, m21, m22), n_sub in seg_coeffs:
            for _ in range(n_sub):
                w = (m21 + m22 * w) / (m11 + m12 * w)
                append(w)
    return np.frombuffer(col, dtype=float)


def _matrix_column(
    w: np.ndarray, seg_flows, num_periods: int, n_rows: int, record_states: int
) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
    """Trace norm of a matrix target at every sample, plus the full
    covariance at every ``record_states``-th row."""
    col = np.empty(n_rows)
    col[0] = cov_norm(w)
    kept = [(0, np.array(w))] if record_states else []
    row = 0
    for _ in range(num_periods):
        for flow, n_sub in seg_flows:
            for _ in range(n_sub):
                w = flow.apply(w)
                row += 1
                col[row] = cov_norm(w)
                if record_states and row % record_states == 0:
                    kept.append((row, np.array(w)))
    return col, kept


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
    column = {tid: k for k, tid in enumerate(targets)}
    # one period of substeps: length, and the column of the target observed
    # at the sample that ends it (-1: none).  A boundary sample belongs to
    # the segment that starts there, so dwell-start instants carry the flag.
    sub_counts = [max(1, math.ceil(duration / dt - 1e-9)) for duration, _ in segments]
    steps: list[float] = []
    row_obs: list[int] = []
    for si, ((duration, obs_tid), n_sub) in enumerate(zip(segments, sub_counts)):
        nxt = segments[(si + 1) % len(segments)][1]
        steps += [duration / n_sub] * n_sub
        row_obs += [column.get(obs_tid, -1)] * (n_sub - 1) + [column.get(nxt, -1)]
    rows_per_period = len(steps)
    n_rows = 1 + num_periods * rows_per_period
    times = np.empty(n_rows)
    times[0] = 0.0
    # add.accumulate sums in order, as t += step does
    np.cumsum(np.tile(steps, num_periods), out=times[1:])
    obs_rows = np.empty(n_rows, dtype=np.int32)
    obs_rows[0] = column.get(segments[0][1], -1)
    obs_rows[1:] = np.tile(np.array(row_obs, dtype=np.int32), num_periods)

    norms: dict[int, np.ndarray] = {}
    costs: dict[int, np.ndarray] = {}
    observed: dict[int, np.ndarray] = {}
    state_samples: dict[int, list[tuple[float, np.ndarray]]] = {}
    for tid in targets:
        spec = network.target(tid)
        # per segment, the flow for one of its substeps
        seg_flows = [
            (observed_flow(spec.A, spec.Q, spec.G, duration / n_sub) if tid == obs_tid
             else unobserved_flow(spec.A, spec.Q, duration / n_sub), n_sub)
            for (duration, obs_tid), n_sub in zip(segments, sub_counts)
        ]
        w0 = np.atleast_2d(np.asarray(initial[tid], dtype=float))
        if spec.is_scalar:
            col = _scalar_column(float(w0[0, 0]), [(f.m, n) for f, n in seg_flows], num_periods)
            kept = []
            if record_states:
                kept = [(r, np.array([[col[r]]])) for r in range(0, n_rows, record_states)]
        else:
            col, kept = _matrix_column(w0, seg_flows, num_periods, n_rows, record_states)
        norms[tid] = col
        # x * 1.0 == x exactly, so a weight-1 target shares its norm column
        costs[tid] = col if spec.weight_alpha == 1.0 else spec.weight_alpha * col
        observed[tid] = (obs_rows == column[tid]).astype(np.int32)
        state_samples[tid] = [(float(times[r]), w) for r, w in kept]

    period_maxima = {
        tid: [float(costs[tid][p * rows_per_period:(p + 1) * rows_per_period + 1].max())
              for p in range(num_periods)]
        for tid in targets
    }
    # the last sample at or before the start of the last period
    last_start = int(np.searchsorted(times, (num_periods - 1) * period + 1e-9, side="right")) - 1
    per_target_realized = {tid: float(costs[tid][last_start:].max()) for tid in targets}
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
    lo = int(np.argmax(trace.times >= last_period_start - 1e-9))
    for tid, switches in trace.switch_times.items():
        k_max = int(np.argmax(trace.costs[tid][lo:]))
        t_peak = float(trace.times[lo + k_max]) % trace.period
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


def _formatted(col: np.ndarray, spec: str) -> list[str]:
    return list(map(spec.__mod__, col.tolist()))


def trace_to_csv(trace: SimTrace) -> str:
    """Delimiter-separated trace: t, then per target norm, cost, observed.

    Formats column by column, ``CSV_CHUNK_ROWS`` rows at a time; a cost
    column that is its norm column is formatted once."""
    tids = sorted(trace.norms)
    header = ["t"]
    for tid in tids:
        header += [f"norm_{tid}", f"g_{tid}", f"eta_{tid}"]
    parts = [",".join(header)]
    for lo in range(0, len(trace.times), CSV_CHUNK_ROWS):
        rows = slice(lo, lo + CSV_CHUNK_ROWS)
        fields = [_formatted(trace.times[rows], "%.9g")]
        for tid in tids:
            norm, cost = trace.norms[tid], trace.costs[tid]
            norm_text = _formatted(norm[rows], "%.12g")
            cost_text = norm_text if cost is norm else _formatted(cost[rows], "%.12g")
            flags = map(_FLAGS.__getitem__, trace.observed[tid][rows].tolist())
            fields += [norm_text, cost_text, flags]
        parts.append("\n".join(map(",".join, zip(*fields))))
    parts.append("")  # the final newline, without copying the whole text again
    return "\n".join(parts)
