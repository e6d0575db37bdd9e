"""Forward time-domain validation of a plan.

Simulates every target's covariance under the plan's observation schedule
from arbitrary initial conditions, using the engine's segment-exact
propagators (uniform substeps inside each dwell/travel segment, exact values
at segment boundaries), and checks the realized worst cost against the plan's
prediction.

The schedule is described once, by ``_schedule_segments``: the trace
integrates its segments, and ``_phases`` reads each target's dwells and
gaps off them for its switch times and its start state on the periodic
orbit.  A run whose trace would hold more than ``MAX_TRACE_VALUES`` samples
(rows times targets) is refused before anything is allocated.

The trace is columnar: ``_column`` integrates each target one period at a
time (scalar targets apply the Moebius substep inline, with the same
operations as ``_ScalarFlow``), and its samples land in a numpy column.
Once a period starts from bitwise the state some earlier period started
from, the substep recurrence repeats the periods since then exactly, so the
rest of the column is tiled from them instead of integrated.  Times, the
one observed column and the per-period statistics are array operations.
Costs are weights times norms, not columns; a realized cost is the last
period's maximum, and every period has the same rows, so the last one is
found by its row (``_last_period_row``).

``trace_to_csv`` returns the ASCII text of a block of rows of
``trace.csv`` (the whole file by default), equal byte for byte to
``'%.9g'``/``'%.12g'`` per value, so a writer can stream the file one block
at a time without holding its text.  It formats whole chunks of rows
with numpy (``_format_g``: mantissa digits from a four-digit table, the dot
placed by the decimal exponent, trailing zeros stripped) and falls back to
``%`` for the rows that path cannot get exactly right: values outside
[1, 10**precision), non-finite values and mantissas near a .5 tie.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_CONFIG
from .covariance import cov_norm, observed_flow, unobserved_flow, periodic_steady_state
from .cycles import SteadyStateCache
from .dwell import Plan
from .model import TargetNetwork

__all__ = ["SimTrace", "simulate", "validate", "trace_to_csv", "steady_initial_covariances"]

CSV_CHUNK_ROWS = 5_000   # rows formatted per batch by trace_to_csv
GRID_POINTS_PER_PERIOD = 2000   # samples per period of the default grid
PREDICTION_REL_TOL = 1e-3       # realized vs predicted cost, relative, for a consistent plan
MAX_TRACE_VALUES = 64_000_000   # samples (rows x targets) one simulate call may hold


@dataclass
class SimTrace:
    """Sampled covariance trajectories under a plan's schedule.

    ``times`` and the per-target ``norms`` are float columns with one entry
    per sample.  ``observed`` is one int32 column: per sample, the position
    in ``sorted(norms)`` of the target observed there, or -1 for none.  A
    target's cost is ``weights[tid]`` times its norm."""

    times: np.ndarray
    norms: dict[int, np.ndarray]
    weights: dict[int, float]
    observed: np.ndarray
    period: float
    num_periods: int
    dt: float
    switch_times: dict[int, list[float]]      # off->on instants within one period
    realized_cost: float                       # worst cost over the last period
    per_target_realized: dict[int, float]
    settle_period: int
    converged: bool
    period_maxima: dict[int, list[float]] = field(repr=False, default_factory=dict)


def _last_period_row(times, num_periods: int) -> int:
    """First row of the last of ``num_periods`` periods of equal row counts."""
    return (num_periods - 1) * ((len(times) - 1) // num_periods)


def _schedule_segments(plan: Plan) -> list[tuple[float, int | None]]:
    """Execution order of (duration, observed target or None) segments;
    only a dwell or leg of zero length is left out."""
    cycle = plan.cycle
    segments: list[tuple[float, int | None]] = []
    n = len(cycle.instances)
    for pos, inst in enumerate(cycle.instances):
        dwell = plan.dwells[pos]
        if dwell > 0.0:
            segments.append((dwell, inst.target))
        if n > 1 and cycle.legs[pos] > 0.0:
            segments.append((cycle.legs[pos], None))
    return segments


def _phases(segments, tid: int) -> tuple[list[float], list[float], list[float], float]:
    """``t_on``, ``t_off``, the start time of each phase and the tail of the
    last gap (its part after the last dwell, up to the end of the period)
    for target ``tid``.  Each of its dwell segments opens a phase (back to
    back dwells stay two phases with a zero gap), every later segment adds
    to that phase's gap, and the segments before its first dwell fold into
    the last gap.  All empty for a target that is never dwelled on."""
    t_on: list[float] = []
    t_off: list[float] = []
    starts: list[float] = []
    t = lead = 0.0
    for duration, obs_tid in segments:
        if obs_tid == tid:
            t_on.append(duration)
            t_off.append(0.0)
            starts.append(t)
        elif t_off:
            t_off[-1] += duration
        else:
            lead += duration
        t += duration
    if not t_on:
        return t_on, t_off, starts, 0.0
    tail = t_off[-1]
    t_off[-1] += lead
    return t_on, t_off, starts, tail


def steady_initial_covariances(
    plan: Plan,
    network: TargetNetwork | None = None,
    cache: SteadyStateCache | None = None,
) -> dict[int, np.ndarray]:
    """Per-target covariance at the schedule start, on the periodic orbit,
    as fresh arrays.  Never-visited Hurwitz targets start at their resting
    covariance."""
    network = network or plan.cycle.network
    cache = cache or SteadyStateCache(network)
    segments = _schedule_segments(plan)
    out: dict[int, np.ndarray] = {}
    for target in network.targets:
        tid = target.id
        t_on, t_off, starts, tail = _phases(segments, tid)
        if not t_on:
            ss = cache.steady(tid)
            # a copy: the cache's own arrays must not leave it
            out[tid] = np.array(ss.omega_inf_finite if ss.a_is_hurwitz else ss.omega_ss)
            continue
        peaks = periodic_steady_state(target.A, target.Q, target.G, t_on, t_off)
        if starts[0] == 0.0:
            omega = peaks.upper[0]
        else:
            omega = unobserved_flow(target.A, target.Q, tail).apply(peaks.lower[-1])
        out[tid] = np.atleast_2d(omega)
    return out


def _repeat_cycle(col: np.ndarray, first: int, done: int, num_periods: int) -> np.ndarray:
    """``col`` (the initial row and ``done`` periods of rows) extended to
    ``num_periods`` periods by repeating its periods ``first..done-1``."""
    period_rows = (len(col) - 1) // done
    cycle = col[1 + first * period_rows:]
    return np.concatenate([col, np.resize(cycle, (num_periods - done) * period_rows)])


def _column(w, advance, num_periods: int) -> np.ndarray:
    """Norm of one target's covariance at every sample of ``num_periods``
    periods from state ``w``; ``advance(w, append)`` integrates one period
    from ``w``, appends the norm after every substep and returns the end
    state.  A period that starts from bitwise the state an earlier one
    started from repeats the periods since then exactly (the recurrence is
    deterministic), so the column stops there and repeats them."""
    col = array("d", [cov_norm(w)])
    seen: dict[bytes, int] = {}
    for done in range(num_periods):
        first = seen.setdefault(np.asarray(w).tobytes(), done)
        if first < done:
            return _repeat_cycle(np.frombuffer(col, dtype=float), first, done, num_periods)
        w = advance(w, col.append)
    return np.frombuffer(col, dtype=float)


def _scalar_advance(seg_coeffs):
    """One period of a scalar target: one Moebius substep
    ``w -> (m21 + m22 w) / (m11 + m12 w)`` per row, as ``_ScalarFlow``
    applies it, for each segment's ``(m, n_sub)``."""
    def advance(w, append):
        for (m11, m12, m21, m22), n_sub in seg_coeffs:
            for _ in range(n_sub):
                w = (m21 + m22 * w) / (m11 + m12 * w)
                append(w)
        return w
    return advance


def _matrix_advance(seg_flows):
    """One period of a matrix target, for each segment's ``(flow, n_sub)``."""
    def advance(w, append):
        for flow, n_sub in seg_flows:
            for _ in range(n_sub):
                w = flow.apply(w)
                append(cov_norm(w))
        return w
    return advance


def simulate(
    plan: Plan,
    network: TargetNetwork | None = None,
    initial: dict[int, np.ndarray] | None = None,
    num_periods: int = DEFAULT_CONFIG.num_periods,
    dt: float | None = None,
    cache: SteadyStateCache | None = None,
) -> SimTrace:
    """Integrate all target covariances for ``num_periods`` periods.

    ``initial`` defaults to the planned periodic steady state.  Sampling uses
    uniform substeps of at most ``dt`` inside each dwell/travel segment, with
    segment boundaries always sampled exactly.  ``ValueError`` if the trace
    would hold more than ``MAX_TRACE_VALUES`` samples.
    """
    network = network or plan.cycle.network
    cache = cache or SteadyStateCache(network)
    if num_periods < 2:
        raise ValueError("num_periods must be at least 2")
    period = plan.period
    segments = _schedule_segments(plan)
    if not segments:
        raise ValueError("plan has no positive-duration segments")
    min_seg = min(d for d, _ in segments)
    if dt is None:
        dt = min(period / GRID_POINTS_PER_PERIOD, min_seg / 50.0)
        dt = max(dt, period / 200_000.0)
    targets = sorted(network.ids)
    sub_counts = [max(1, math.ceil(duration / dt - 1e-9)) for duration, _ in segments]
    rows_per_period = sum(sub_counts)
    n_rows = 1 + num_periods * rows_per_period
    if n_rows * len(targets) > MAX_TRACE_VALUES:
        raise ValueError(
            f"{num_periods} periods of {rows_per_period} samples for {len(targets)} targets "
            f"exceed the trace limit of {MAX_TRACE_VALUES} values"
        )
    if initial is None:
        initial = steady_initial_covariances(plan, network, cache)

    position = {tid: k for k, tid in enumerate(targets)}
    # one period of substeps: length, and the position of the target observed
    # at the sample that ends it (-1: none).  A boundary sample belongs to
    # the segment that starts there, so dwell-start instants carry the flag.
    steps: list[float] = []
    row_obs: list[int] = []
    for si, ((duration, obs_tid), n_sub) in enumerate(zip(segments, sub_counts)):
        nxt = segments[(si + 1) % len(segments)][1]
        steps += [duration / n_sub] * n_sub
        row_obs += [position.get(obs_tid, -1)] * (n_sub - 1) + [position.get(nxt, -1)]
    times = np.empty(n_rows)
    times[0] = 0.0
    # add.accumulate sums in order, as t += step does
    np.cumsum(np.tile(steps, num_periods), out=times[1:])
    obs_rows = np.empty(n_rows, dtype=np.int32)
    obs_rows[0] = position.get(segments[0][1], -1)
    obs_rows[1:] = np.tile(np.array(row_obs, dtype=np.int32), num_periods)

    norms: dict[int, np.ndarray] = {}
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
            col = _column(float(w0[0, 0]), _scalar_advance([(f.m, n) for f, n in seg_flows]),
                          num_periods)
        else:
            col = _column(w0, _matrix_advance(seg_flows), num_periods)
        norms[tid] = col
    weights = {tid: float(network.target(tid).weight_alpha) for tid in targets}

    # per period, the maximum over its rows and the sample that ends it;
    # rounding is monotone, so the weighted maximum is the maximum weighted
    maxima = np.array([
        weights[tid] * np.maximum(norms[tid][:-1].reshape(num_periods, rows_per_period).max(1),
                                  norms[tid][rows_per_period::rows_per_period])
        for tid in targets
    ])
    period_maxima = dict(zip(targets, maxima.tolist()))
    per_target_realized = {tid: period_maxima[tid][-1] for tid in targets}
    realized = max(per_target_realized.values())

    # settled after period k + 1 once no target's maximum is infinite or
    # moves by more than 1e-6 relative from period k to k + 1 (NaN passes)
    a, b = maxima[:, :-1], maxima[:, 1:]
    with np.errstate(invalid="ignore"):
        moved = np.abs(a - b) > 1e-6 * np.maximum(1.0, np.abs(b))
    settled = np.flatnonzero(~(np.isinf(a) | np.isinf(b) | moved).any(axis=0))
    converged = len(settled) > 0
    settle = int(settled[0]) + 1 if converged else num_periods

    starts = {tid: _phases(segments, tid)[2] for tid in targets}
    switch_times = {tid: at for tid, at in starts.items() if at}

    return SimTrace(
        times=times,
        norms=norms,
        weights=weights,
        observed=obs_rows,
        period=period,
        num_periods=num_periods,
        dt=dt,
        switch_times=switch_times,
        realized_cost=realized,
        per_target_realized=per_target_realized,
        settle_period=settle,
        converged=converged,
        period_maxima=period_maxima,
    )


def validate(plan: Plan, trace: SimTrace) -> dict:
    """Consistency report between a plan's predictions and a simulated trace."""
    predicted = plan.j_pred
    realized = trace.realized_cost
    abs_err = abs(realized - predicted)
    rel_err = abs_err / max(abs(predicted), 1e-30)
    # peak instants: the worst sample of each dwelled target in the last
    # period must sit on an off->on switch (within one sample step); the
    # weight does not move the worst sample, so it is found on the norms.
    # Every period has the same rows, so the peak's time within the period
    # is that of its row in the first period, free of the drift that the
    # sum of many steps carries into the last period's times.
    peak_alignment = {}
    lo = _last_period_row(trace.times, trace.num_periods)
    for tid, switches in trace.switch_times.items():
        t_peak = float(trace.times[int(np.argmax(trace.norms[tid][lo:]))])
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
        "prediction_consistent": bool(rel_err <= PREDICTION_REL_TOL),
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


_FOUR_PLACES = np.array([1000, 100, 10, 1], dtype=np.int16)
# per entry of 0..9999, its four ASCII digits ("%04d") as one uint32, and
# its trailing zeros (four for 0000)
_DIGITS4 = (
    (np.arange(10_000, dtype=np.int16)[:, None] // _FOUR_PLACES % 10 + ord("0"))
    .astype(np.uint8).view(np.uint32).ravel()
)
_TRAILING_ZEROS4 = (np.arange(10_000, dtype=np.int16)[:, None] % (10 * _FOUR_PLACES) == 0).sum(axis=1)
_POW10 = np.array([float(10 ** k) for k in range(23)])   # exact doubles
_DOT, _COMMA, _NEWLINE, _ZERO = b".,\n0"


def _format_g(x: np.ndarray, precision: int) -> np.ndarray:
    """``'%.{precision}g' % v`` for every ``v`` in ``x`` (``precision`` <= 12):
    a byte matrix with one column per value, NUL after each value's text.

    A value in [1, 10**precision) is its mantissa ``N`` (``precision``
    digits) with a dot after digit ``e = floor(log10 v)``.  ``e`` is checked
    against the exact powers of ten, and one product with an exact power of
    ten gives the mantissa within half an ulp, so ``rint`` rounds it as
    ``%`` does unless it lies within 4 ulps of a .5 tie.  Those values, every
    value outside the range (non-finite, negative, zero, below 1 or at least
    ``10**precision``) and a mantissa that rounds up into exponent notation
    are formatted by ``%`` itself."""
    count = len(x)
    top = _POW10[precision]
    fast = (x >= 1.0) & (x < top)     # False for nan
    xs = np.where(fast, x, 1.0)
    e = np.log10(xs).astype(np.intp)
    e -= xs < _POW10[e]
    e += xs >= _POW10[e + 1]
    m = xs * _POW10[precision - 1 - e]
    mantissa = np.rint(m)
    # every mantissa is below 10**precision, so its ulp is at most that one's
    slow = ~fast | (np.abs(m - mantissa) >= 0.5 - 4 * np.spacing(top))
    carry = mantissa == top
    mantissa[carry] = _POW10[precision - 1]
    e[carry] += 1
    slow |= e >= precision
    hi, lo = np.divmod(mantissa.astype(np.int64), 10_000)
    top4, mid4 = np.divmod(hi, 10_000)
    groups = np.empty((3, count), dtype=np.uint32)
    groups[0], groups[1], groups[2] = _DIGITS4[top4], _DIGITS4[mid4], _DIGITS4[lo]
    digits = groups.view(np.uint8).reshape(3, count, 4).transpose(0, 2, 1).reshape(12, count)
    digits = digits[12 - precision:]
    # the dot after digit e: digits right of it move down one row (the
    # broadcast comparisons run on int8, which numpy does twice as fast)
    place = np.arange(precision + 1, dtype=np.int8)[:, None]
    out = np.empty((precision + 1, count), dtype=np.uint8)
    out[0] = digits[0]
    out[1:precision] = np.where(e.astype(np.int8) >= place[1:precision], digits[1:], digits[:-1])
    out[precision] = digits[-1]
    out.reshape(-1)[np.minimum(e + 1, precision) * count + np.arange(count)] = _DOT
    # trailing zeros of the fraction go, and the dot with all of them
    trailing = _TRAILING_ZEROS4[lo]
    at = np.flatnonzero(lo == 0)
    trailing[at] = np.where(mid4[at] == 0, 8 + _TRAILING_ZEROS4[top4[at]], 4 + _TRAILING_ZEROS4[mid4[at]])
    lengths = np.where(trailing >= precision - 1 - e, e + 1, precision + 1 - trailing)
    out[place >= lengths.astype(np.int8)] = 0
    rows = np.flatnonzero(slow)
    if len(rows):
        spec = f"%.{precision}g"
        texts = [(spec % v).encode("ascii") for v in x[rows].tolist()]
        width = max(len(out), *map(len, texts))
        out = np.concatenate([out, np.zeros((width - len(out), count), dtype=np.uint8)])
        padded = b"".join(text.ljust(width, b"\0") for text in texts)
        out[:, rows] = np.frombuffer(padded, dtype=np.uint8).reshape(len(rows), width).T
    return out


def trace_to_csv(trace: SimTrace, lo: int = 0, hi: int | None = None) -> bytearray:
    """Rows ``[lo, hi)`` of the delimiter-separated trace as ASCII: t, then
    per target norm, cost (weight times norm) and observed (0/1); the
    header line comes first when ``lo == 0``.  The defaults give the whole
    file, and the texts of consecutive ranges concatenate to it.

    Works ``CSV_CHUNK_ROWS`` rows at a time.  Every field of the chunk is a
    byte matrix with one column per row (``_format_g``; the cost of a
    weight-1 target is its norm text), the fields and separators are
    stacked, and the transposed matrix is read out with its NUL padding
    dropped.  The chunks are appended to one ``bytearray``, so the range's
    text is never held twice."""
    tids = sorted(trace.norms)
    hi = len(trace.times) if hi is None else min(hi, len(trace.times))
    text = bytearray()
    if lo == 0:
        header = ["t"]
        for tid in tids:
            header += [f"norm_{tid}", f"g_{tid}", f"eta_{tid}"]
        text += ",".join(header).encode("ascii") + b"\n"
    for start in range(lo, hi, CSV_CHUNK_ROWS):
        rows = slice(start, min(start + CSV_CHUNK_ROWS, hi))
        fields = [_format_g(trace.times[rows], 9)]
        observed = trace.observed[rows]
        for k, tid in enumerate(tids):
            norm, weight = trace.norms[tid][rows], trace.weights[tid]
            norm_text = _format_g(norm, 12)
            cost_text = norm_text if weight == 1.0 else _format_g(weight * norm, 12)
            flags = ((observed == k) + _ZERO).astype(np.uint8)[None, :]
            fields += [norm_text, cost_text, flags]
        count = fields[0].shape[1]
        comma = np.full((1, count), _COMMA, dtype=np.uint8)
        stacked = []
        for field in fields:
            stacked += [field, comma]
        stacked[-1] = np.full((1, count), _NEWLINE, dtype=np.uint8)
        chunk = np.ascontiguousarray(np.concatenate(stacked).T)
        text += chunk.tobytes().replace(b"\0", b"")
    return text
