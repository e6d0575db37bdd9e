"""Independent reference implementations used only by the tests.

Everything here is deliberately written from first principles, separate from
the package code paths: closed-form scalar solutions (``decimal_care`` in
60-digit decimal arithmetic), a fixed-step RK4
integrator for the matrix equations, a bisection fixed-point solver for the
single-visit periodic peaks, plain iteration of the one-period map for any
visit pattern, the plain Floyd-Warshall loop for fastest paths, brute-force
cycle enumeration and random dwell vectors.
The block-exponential propagators ``propagate_unobserved`` and
``propagate_observed`` run the package's matrix flows at any dimension,
scalars included, which the planner itself never does.
The forward simulation and its CSV export are kept in their plain per-sample
form, as the reference for the columnar versions in ``patrolplan.simulate``:
each scalar sample comes from its segment's start state through the package's
array kernel on a one-entry array, and the simulation also returns full
covariances along the trajectory.
``tightly_periodic`` holds the package's periodic solve to a tighter
certificate than ``PERIODIC_TOL``.
``bordered_level_step`` solves the level-set balancer's whole bordered Newton
system at once, the reference for ``dwell._level_step``, which eliminates the
single-slot rows in closed form.
``reference_improve_cycle`` and ``reference_annex_gain`` build and cost every
greedy candidate, the reference for the package's versions, which score the
candidates from the base cycle's gaps and build only the near-best few.
``reference_enumerate_ceos`` expands every target-exchange splice with its own
path lookups, the reference for ``fleet.enumerate_ceos``, which looks each
path up once per hop.
``sequential_visit_gaps`` walks a cycle's legs one target at a time, with a
branch for one-instance targets, the reference for
``Cycle.visit_gaps``; ``exact_timelines`` gives every target's on/off times
in rational arithmetic, the reference for ``Cycle.timelines``.
``fleet_partition`` runs ``plan_fleet``'s stages up to the partition, with
any disparity and with or without target exchanges, and no dwell schedules;
``shortest_path_disparity`` is the clustering ablation's baseline metric.
``steady_cost``, ``disparity_of`` and ``metric_ratio`` read numbers off the
package's objects that only the tests ask for.
``golden_section_search`` is the plain golden-section search of the period,
the reference for ``dwell.golden_period_search``, which takes Brent's
parabolic steps.
"""

from __future__ import annotations

import decimal
import itertools
import math
import random
from array import array
from decimal import Decimal
from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.csgraph import shortest_path

from patrolplan.config import DEFAULT_CONFIG
from patrolplan.covariance import (
    _MatrixObservedFlow,
    _MatrixUnobservedFlow,
    _scalar_apply,
    _scalar_obs_coeff_arrays,
    _scalar_unobs_coeff_arrays,
    cov_norm,
    observed_flow,
    periodic_steady_state,
    unobserved_flow,
)
from patrolplan.cycles import (
    GREEDY_GAIN_REL,
    Cycle,
    Splice,
    SteadyStateCache,
    _detour,
    _splice,
    _visit_between,
    cycle_lower_bound,
    enumerate_cmos,
)
from patrolplan.dwell import (
    BRACKET_HIGH,
    BRACKET_LOW,
    GOLDEN_EPS,
    GOLDEN_MAX_ITERS,
    GOLDEN_RATIO,
    balance_level_set,
)
from patrolplan.fleet import (
    BYPASS_MAX_RUN,
    DisparityMatrix,
    Partition,
    _build_cluster,
    cluster_subnetwork,
    disparity_matrix,
    enumerate_ceos,
    similarity_from_disparity,
    spectral_cluster,
    tes_refine,
)
from patrolplan.simulate import (
    GRID_POINTS_PER_PERIOD,
    SimTrace,
    _schedule_segments,
    steady_initial_covariances,
)


# --- closed-form scalar solutions -----------------------------------------

def scalar_unobserved(a: float, q: float, w0: float, t: float) -> float:
    """w(t) = e^{2at} w0 + q t (e^{2at} - 1)/(2at), in expm1 form so that it
    keeps its digits for tiny |a|; the a -> 0 limit is w0 + q t."""
    x = 2.0 * a * t
    growth = math.expm1(x) / x if x != 0.0 else 1.0
    return math.exp(x) * w0 + q * t * growth


def scalar_care(a: float, q: float, g: float) -> float:
    """Positive root of 2 a w + q - g w^2 = 0."""
    return (a + math.sqrt(a * a + q * g)) / g


def decimal_care(a: float, q: float, g: float, digits: int = 60) -> float:
    """``scalar_care`` evaluated in ``digits``-digit decimal arithmetic, in
    the form that does not cancel, rounded once to a float."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        a, q, g = Decimal(a), Decimal(q), Decimal(g)
        s = (a * a + q * g).sqrt()
        return float(q / (s - a) if a < 0 else (a + s) / g)


def scalar_observed(a: float, q: float, g: float, w0: float, t: float) -> float:
    """Partial-fraction solution of the scalar Riccati equation.

    With roots w_pm = (a +- s)/g, s = sqrt(a^2 + qg), the cross-ratio
    r = (w - w_plus)/(w - w_minus) decays as e^{-2 s t}.
    """
    s = math.sqrt(a * a + q * g)
    w_plus = (a + s) / g
    w_minus = (a - s) / g
    if w0 == w_plus:
        return w_plus
    r0 = (w0 - w_plus) / (w0 - w_minus)
    r = r0 * math.exp(-2.0 * s * t)
    return (w_plus - w_minus * r) / (1.0 - r)


# --- fixed-step RK4 on the matrix equations --------------------------------

def rk4_propagate(omega0: np.ndarray, A: np.ndarray, Q: np.ndarray,
                  G: np.ndarray | None, t: float, h: float) -> np.ndarray:
    """Plain RK4 on dW/dt = A W + W A' + Q [- W G W when observed]."""
    observed = G is not None

    def f(w):
        dw = A @ w + w @ A.T + Q
        if observed:
            dw = dw - w @ G @ w
        return dw

    n = max(1, round(t / h))
    dt = t / n
    w = omega0.copy()
    for _ in range(n):
        k1 = f(w)
        k2 = f(w + 0.5 * dt * k1)
        k3 = f(w + 0.5 * dt * k2)
        k4 = f(w + dt * k3)
        w = w + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return 0.5 * (w + w.T)


def rk4_propagate_batch(W0: np.ndarray, A: np.ndarray, Q: np.ndarray,
                        G: np.ndarray | None, t: float, h: float) -> np.ndarray:
    """Batched RK4 over stacked systems (n, d, d); same scheme as above."""
    observed = G is not None
    At = A.transpose(0, 2, 1)

    def f(W):
        dW = A @ W + W @ At + Q
        if observed:
            dW = dW - W @ G @ W
        return dW

    n = max(1, round(t / h))
    dt = t / n
    W = W0.copy()
    for _ in range(n):
        k1 = f(W)
        k2 = f(W + 0.5 * dt * k1)
        k3 = f(W + 0.5 * dt * k2)
        k4 = f(W + dt * k3)
        W = W + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return 0.5 * (W + W.transpose(0, 2, 1))


# --- single-visit periodic fixed point by bisection -------------------------

def propagate_unobserved(omega0, A, Q, t: float) -> np.ndarray:
    """The covariance after ``t`` time units with no observation, from the
    block exponential."""
    omega0 = np.atleast_2d(np.asarray(omega0, dtype=float))
    if t == 0.0:
        return omega0
    A, Q = (np.atleast_2d(np.asarray(v, dtype=float)) for v in (A, Q))
    return _MatrixUnobservedFlow(A, Q, t).apply(omega0)


def propagate_observed(omega0, A, Q, G, t: float) -> np.ndarray:
    """The covariance after ``t`` time units under observation, from the
    block exponential of the Hamiltonian."""
    omega0 = np.atleast_2d(np.asarray(omega0, dtype=float))
    if t == 0.0:
        return omega0
    A, Q, G = (np.atleast_2d(np.asarray(v, dtype=float)) for v in (A, Q, G))
    return _MatrixObservedFlow(A, Q, G, t).apply(omega0)


def scalar_single_visit_peak(a: float, q: float, g: float,
                             t_on: float, t_off: float,
                             tol: float = 1e-12) -> float:
    """Upper peak of the periodic steady state for one on/off pattern.

    Solves P_up = unobs(obs(P_up, t_on), t_off) by bisection on the
    monotone map difference.
    """
    def step(p):
        return scalar_unobserved(a, q, scalar_observed(a, q, g, p, t_on), t_off)

    w_ss = scalar_care(a, q, g)
    lo = w_ss
    hi = max(2.0 * w_ss, 1.0)
    while step(hi) > hi:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("bisection bracket blew up")
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if step(mid) > mid:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


# --- periodic fixed point by iterating the period map -----------------------

def _unobserved_map(A: np.ndarray, Q: np.ndarray, t: float):
    """w -> F w F' + V with F = e^{At} and V the noise Gramian (Van Loan)."""
    dim = A.shape[0]
    E = scipy.linalg.expm(np.block([[-A, Q], [np.zeros_like(A), A.T]]) * t)
    F = E[dim:, dim:].T
    V = F @ E[:dim, dim:]

    def step(w):
        w = F @ w @ F.T + V
        return 0.5 * (w + w.T)
    return step


def _observed_map(A: np.ndarray, Q: np.ndarray, G: np.ndarray, t: float, h: float = 0.05):
    """Riccati flow as the linear-fractional action of the Hamiltonian
    exponential, applied in steps of at most ``h``."""
    dim = A.shape[0]
    n = max(1, math.ceil(t / h))
    E = scipy.linalg.expm(np.block([[-A.T, G], [Q, A]]) * (t / n))

    def step(w):
        for _ in range(n):
            x = E[:dim, :dim] + E[:dim, dim:] @ w
            y = E[dim:, :dim] + E[dim:, dim:] @ w
            w = y @ np.linalg.inv(x)
            w = 0.5 * (w + w.T)
        return w
    return step


def period_steps(A, Q, G, t_on, t_off) -> list:
    """The phase maps of one period in order: observed ``t_on[k]``, then
    unobserved ``t_off[k]``, for each visit k."""
    A, Q, G = (np.atleast_2d(np.asarray(m, dtype=float)) for m in (A, Q, G))
    steps = []
    for on, off in zip(t_on, t_off):
        steps.append(_observed_map(A, Q, G, on))
        steps.append(_unobserved_map(A, Q, off))
    return steps


def apply_period(w: np.ndarray, steps: list) -> np.ndarray:
    for step in steps:
        w = step(w)
    return w


def iterated_periodic_start(A, Q, G, t_on, t_off, tol: float = 1e-13,
                            max_iters: int = 100_000) -> np.ndarray:
    """Period-start covariance of the periodic steady state, by iterating the
    period map from zero until a period moves it by at most ``tol``
    relative to its size."""
    steps = period_steps(A, Q, G, t_on, t_off)
    dim = np.atleast_2d(A).shape[0]
    w = np.zeros((dim, dim))
    for _ in range(max_iters):
        new = apply_period(w, steps)
        if np.abs(new - w).max() <= tol * max(1.0, np.abs(new).max()):
            return new
        w = new
    raise RuntimeError("period map iteration did not converge")


def tightly_periodic(A, Q, G, t_on, t_off, tol: float):
    """``periodic_steady_state`` whose period-start covariance, walked once
    around the period with the package's own flows (the walk its certificate
    takes), returns within ``tol * max(1, max|omega|)`` of itself, ``tol``
    being tighter than the ``PERIODIC_TOL`` the package checks."""
    peaks = periodic_steady_state(A, Q, G, t_on, t_off)
    A, Q, G = (np.atleast_2d(np.asarray(m, dtype=float)) for m in (A, Q, G))
    start = float(peaks.upper[0][0, 0]) if A.shape == (1, 1) else peaks.upper[0]
    w = start
    for on, off in zip(t_on, t_off):
        w = unobserved_flow(A, Q, float(off)).apply(observed_flow(A, Q, G, float(on)).apply(w))
    residual = float(np.abs(np.asarray(w) - start).max())
    assert residual <= tol * max(1.0, float(np.abs(peaks.upper[0]).max()))
    return peaks


# --- per-substep forward simulation -----------------------------------------

def _scalar_sample(spec, observed: bool, offset: float):
    """A scalar target's covariance ``offset`` into a segment, as a function
    of its state at the segment's start: the package's array kernel on the
    one-entry array ``[offset]``, applied in Python floats (the same
    operations as the scalar flows over an array of durations, so the same
    bits)."""
    a, q, at = float(spec.A[0, 0]), float(spec.Q[0, 0]), np.array([offset])
    if observed:
        m = tuple(float(c[0]) for c in _scalar_obs_coeff_arrays(a, q, float(spec.G[0, 0]), at))
        return lambda w: _scalar_apply(m, w)
    alpha, beta = (float(c[0]) for c in _scalar_unobs_coeff_arrays(a, q, at))
    return lambda w: beta + alpha * w


def stepwise_simulate(plan, initial=None, num_periods=DEFAULT_CONFIG.num_periods, dt=None,
                      record_states=0):
    """``simulate`` as a loop over substeps that computes every target's
    next sample and records one sample per target at a time, appended to
    ``array('d')`` columns (``array('i')`` for the observed positions).  A
    target's sample ``k`` of ``n`` in a segment of length ``d`` is its flow
    over ``d (k / n)`` from the segment's start state: a scalar's through
    ``_scalar_sample``, a matrix's through the package's flow over that one
    duration.  It finds the last period by its start time, and takes
    maxima of the weighted costs (held here only) rather than weighting
    maxima of the norms.  It shares the package's kernels and schedule
    helpers: it checks the columnar loop, not the propagators.
    ``switch_times`` is left empty.

    Returns the trace and, per target, the ``(time, covariance)`` of every
    ``record_states``-th sample (none for 0); a scalar's is a 1x1 array."""
    network = plan.cycle.network
    period = plan.period
    segments = _schedule_segments(plan)
    min_seg = min(d for d, _ in segments)
    if dt is None:
        dt = min(period / GRID_POINTS_PER_PERIOD, min_seg / 50.0)
        dt = max(dt, period / 200_000.0)
    if initial is None:
        initial = steady_initial_covariances(plan)

    targets = sorted(network.ids)
    specs = {t.id: t for t in network.targets}
    scalar = {tid: specs[tid].is_scalar for tid in targets}

    def sampler(spec, observed, offset):
        if spec.is_scalar:
            return _scalar_sample(spec, observed, offset)
        if observed:
            return observed_flow(spec.A, spec.Q, spec.G, offset).apply
        return unobserved_flow(spec.A, spec.Q, offset).apply

    seg_plans = []
    for duration, obs_tid in segments:
        n_sub = max(1, math.ceil(duration / dt - 1e-9))
        # per target, the functions that take it to its sample k from its
        # state at the segment's start
        samplers = {tid: [sampler(specs[tid], tid == obs_tid, duration * (k / n_sub))
                          for k in range(1, n_sub + 1)]
                    for tid in targets}
        seg_plans.append((duration, obs_tid, n_sub, samplers))

    state = {}
    for tid in targets:
        w0 = np.atleast_2d(np.asarray(initial[tid], dtype=float))
        state[tid] = float(w0[0, 0]) if scalar[tid] else w0

    times = array("d", [0.0])
    norms = {tid: array("d") for tid in targets}
    costs = {tid: array("d") for tid in targets}
    observed = array("i")
    position = {tid: k for k, tid in enumerate(targets)}
    state_samples = {tid: [] for tid in targets}

    def record(tid):
        w = state[tid]
        n = w if scalar[tid] else cov_norm(w)
        norms[tid].append(n)
        costs[tid].append(specs[tid].g(n))
        if record_states and (len(norms[tid]) - 1) % record_states == 0:
            state_samples[tid].append(
                (times[-1], np.array([[w]]) if scalar[tid] else np.array(w))
            )

    observed.append(position.get(segments[0][1], -1))
    for tid in targets:
        record(tid)

    t = 0.0
    period_maxima = {tid: [] for tid in targets}
    for _ in range(num_periods):
        start_idx = len(times) - 1
        for si, (duration, obs_tid, n_sub, samplers) in enumerate(seg_plans):
            step = duration / n_sub
            start = dict(state)
            for k in range(n_sub):
                for tid in targets:
                    state[tid] = samplers[tid][k](start[tid])
                t += step
                times.append(t)
                nxt = seg_plans[(si + 1) % len(seg_plans)][1] if k == n_sub - 1 else obs_tid
                observed.append(position.get(nxt, -1))
                for tid in targets:
                    record(tid)
        for tid in targets:
            period_maxima[tid].append(max(costs[tid][start_idx:]))

    last_start = None
    for idx in range(len(times) - 1, -1, -1):
        if times[idx] <= (num_periods - 1) * period + 1e-9:
            last_start = idx
            break
    per_target_realized = {tid: max(costs[tid][last_start:]) for tid in targets}

    settle = num_periods
    for k in range(num_periods - 1):
        ok = True
        for tid in targets:
            a, b = period_maxima[tid][k], period_maxima[tid][k + 1]
            if math.isinf(a) or math.isinf(b) or abs(a - b) > 1e-6 * max(1.0, abs(b)):
                ok = False
                break
        if ok:
            settle = k + 1
            break

    return SimTrace(
        times=times, norms=norms, observed=observed,
        weights={tid: float(specs[tid].weight_alpha) for tid in targets},
        period=period, num_periods=num_periods, dt=dt, switch_times={},
        realized_cost=max(per_target_realized.values()),
        per_target_realized=per_target_realized, settle_period=settle,
        converged=settle < num_periods, period_maxima=period_maxima,
    ), state_samples


def rowwise_trace_csv(trace) -> str:
    """``trace_to_csv`` one row and one f-string per value at a time."""
    tids = sorted(trace.norms)
    header = ["t"]
    for tid in tids:
        header += [f"norm_{tid}", f"g_{tid}", f"eta_{tid}"]
    lines = [",".join(header)]
    for k, t in enumerate(trace.times):
        row = [f"{t:.9g}"]
        for pos, tid in enumerate(tids):
            norm = float(trace.norms[tid][k])
            row.append(f"{norm:.12g}")
            row.append(f"{trace.weights[tid] * norm:.12g}")
            row.append("1" if trace.observed[k] == pos else "0")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# --- all-pairs fastest paths -------------------------------------------------

def link_matrix(ids: list[int], links: list[tuple[int, int, float]]) -> scipy.sparse.csr_array:
    """Sparse travel-time matrix over ``ids`` (in that order) with one stored
    entry per link (i, j, d); a stored zero is a zero-length edge."""
    index = {t: k for k, t in enumerate(ids)}
    rows = np.array([index[i] for i, _, _ in links], dtype=int)
    cols = np.array([index[j] for _, j, _ in links], dtype=int)
    times = np.array([d for _, _, d in links], dtype=float)
    return scipy.sparse.coo_array((times, (rows, cols)), shape=(len(ids), len(ids))).tocsr()


def scipy_floyd_warshall(ids: list[int], edges: list[tuple[int, int, float]]):
    """Fastest travel times and intermediate hops by scipy's Floyd-Warshall
    over ``link_matrix``, each route walked back from scipy's predecessor
    matrix.  Returns ``(travel, path)`` in the layout of
    ``python_floyd_warshall``."""
    dist, pred = shortest_path(link_matrix(ids, edges), method="FW",
                               directed=False, return_predecessors=True)
    travel = {i: dict(zip(ids, row)) for i, row in zip(ids, dist.tolist())}
    path = {i: {} for i in ids}
    for a, i in enumerate(ids):
        for b, j in enumerate(ids):
            hops = []
            k = pred[a, b]
            while k != a and k >= 0:   # negative: b == a, or no route
                hops.append(ids[k])
                k = pred[a, k]
            path[i][j] = hops[::-1]
    return travel, path


def python_floyd_warshall(ids: list[int], edges: list[tuple[int, int, float]]):
    """Fastest travel times and intermediate hops by the plain Floyd-Warshall
    triple loop over dicts: strict improvement, symmetric updates, and a
    successor table walked from each source.  Returns ``(travel, path)`` in
    the layout of ``TargetNetwork``."""
    dist = {i: {j: (0.0 if i == j else math.inf) for j in ids} for i in ids}
    nxt = {i: {j: None for j in ids} for i in ids}
    for i, j, d in edges:
        if d < dist[i][j]:
            dist[i][j] = dist[j][i] = d
            nxt[i][j] = j
            nxt[j][i] = i
    for i in ids:
        nxt[i][i] = i
    for k in ids:
        for i in ids:
            dik = dist[i][k]
            if math.isinf(dik):
                continue
            row_i, row_k = dist[i], dist[k]
            for j in ids:
                alt = dik + row_k[j]
                if alt < row_i[j]:
                    row_i[j] = alt
                    dist[j][i] = alt
                    nxt[i][j] = nxt[i][k]
                    nxt[j][i] = nxt[j][k]
    path = {i: {} for i in ids}
    for i in ids:
        for j in ids:
            if i == j or nxt[i][j] is None:
                path[i][j] = []
                continue
            hops = []
            cur = i
            while cur != j:
                cur = nxt[cur][j]
                hops.append(cur)
            path[i][j] = hops[:-1]
    return dist, path


# --- brute-force cycle enumeration ------------------------------------------

def canonical_cycle(seq: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical representative under rotation and reflection."""
    n = len(seq)
    best = None
    for direction in (seq, tuple(reversed(seq))):
        for r in range(n):
            rot = direction[r:] + direction[:r]
            if best is None or rot < best:
                best = rot
    return best


def enumerate_cycles(ids: list[int], max_len: int) -> list[tuple[int, ...]]:
    """All distinct cycles (up to rotation/reflection) covering every id,
    of length between len(ids) and max_len, without immediate repeats."""
    seen = set()
    out = []
    for length in range(len(ids), max_len + 1):
        for combo in itertools.product(ids, repeat=length):
            if set(combo) != set(ids):
                continue
            if any(combo[k] == combo[(k + 1) % length] for k in range(length)):
                continue
            canon = canonical_cycle(combo)
            if canon in seen:
                continue
            seen.add(canon)
            out.append(canon)
    return out


# --- a target's view of a cycle, one target at a time -------------------------

def sequential_visit_gaps(cycle: Cycle) -> dict[int, list[float]]:
    """Per target, the zero-dwell revisit gap ending at each of its visits,
    from prefix sums of the legs; a single-instance target's gap is the whole
    tour."""
    cum = [0.0]
    for leg in cycle.legs:
        cum.append(cum[-1] + leg)
    total = cum[-1]
    gaps = {}
    for target in cycle.target_ids:
        positions = cycle.positions_of(target)
        m = len(positions)
        out = []
        for k in range(m):
            prev = positions[(k - 1) % m]
            here = positions[k]
            if m == 1:
                out.append(total)
            elif here > prev:
                out.append(cum[here] - cum[prev])
            else:
                out.append(total - (cum[prev] - cum[here]))
        gaps[target] = out
    return gaps


def exact_timelines(cycle: Cycle, dwells: list[float]) -> dict[int, tuple[list, list]]:
    """Per target, ``t_on`` and ``t_off`` as exact fractions: prefix sums of
    dwell + leg in rational arithmetic, differenced at the target's visits."""
    cum = [Fraction(0)]
    for d, leg in zip(dwells, cycle.legs):
        cum.append(cum[-1] + Fraction(d) + Fraction(leg))
    out = {}
    for target in cycle.target_ids:
        positions = cycle.positions_of(target)
        t_on = [Fraction(dwells[p]) for p in positions]
        t_off = []
        for k, here in enumerate(positions):
            nxt = positions[(k + 1) % len(positions)]
            gap = cum[nxt] - cum[here] if nxt > here else cum[-1] - cum[here] + cum[nxt]
            t_off.append(gap - t_on[k])
        out[target] = (t_on, t_off)
    return out


# --- greedy choices from every candidate built --------------------------------

def reference_improve_cycle(cycle, metric, cache):
    """``cycles.improve_cycle`` with every candidate built and costed."""
    trace = []
    while True:
        eps = GREEDY_GAIN_REL * abs(metric.value)
        best = None
        for _, splice in enumerate_cmos(cycle, metric):
            cand = _splice(cycle, *splice)
            cand_metric = cycle_lower_bound(cand, cache)
            gain = metric.value - cand_metric.value
            if gain >= eps and gain > 0 and (best is None or gain > best[0] + 1e-15):
                best = (gain, cand, cand_metric)
        if best is None:
            return cycle, metric, trace
        _, cycle, metric = best
        trace.append(metric.value)


def reference_annex_gain(network, cache, cycle, members, join):
    """``fleet._annex_gain`` with every candidate built and costed."""
    prospective = cluster_subnetwork(network, set(members) | {join})
    base = Cycle.from_targets(prospective, [t for t, elig in cycle.sequence() if elig])
    base_metric = cycle_lower_bound(base, cache)
    best = -math.inf
    for splice in enumerate_ceos(base, join):
        gain = base_metric.value - cycle_lower_bound(_splice(base, *splice), cache).value
        if gain > best:
            best = gain
    return best


def reference_enumerate_ceos(cycle, external):
    """``fleet.enumerate_ceos`` with each splice's paths looked up anew."""
    network = cycle.network
    seq = cycle.sequence()
    n = len(seq)
    if n == 1:
        return [Splice(0, _visit_between(network, seq[0][0], external, seq[0][0]))]
    out = [Splice(pos, _visit_between(network, seq[pos][0], external, seq[(pos + 1) % n][0]))
           for pos in range(n)]
    out += [_detour(cycle, pos, external, seq[pos][1]) for pos in range(n)]
    for start in range(n):
        removed: dict[int, int] = {}
        for run in range(1, BYPASS_MAX_RUN + 1):
            mid, mid_elig = seq[(start + run) % n]
            end_pos = (start + run + 1) % n
            if mid_elig:
                removed[mid] = removed.get(mid, 0) + 1
            if end_pos == start or any(removed[t] >= len(cycle.eligible[t]) for t in removed):
                break
            out.append(Splice(start, _visit_between(network, seq[start][0], external,
                                                    seq[end_pos][0]), run + 1))
    return out


def random_initial_dwells(cycle: Cycle, budget: float, seed: int) -> list[float]:
    """A random valid dwell vector (for uniqueness experiments)."""
    rng = random.Random(seed)
    dwells = [rng.random() if inst.dwell_eligible else 0.0 for inst in cycle.instances]
    total = sum(dwells)
    return [d * budget / total for d in dwells]


def golden_section_search(cycle: Cycle, cache: SteadyStateCache | None = None, config=None):
    """Golden-section search of the period against the balanced peak cost
    over ``dwell.golden_period_search``'s bracket, each probe warm-started
    from the previous one's dwells.  It stops once two probes agree within
    ``GOLDEN_EPS`` or the bracket collapses, and returns the midpoint of the
    last two probes, its balanced state and the (period, cost) probe log."""
    cache = cache or SteadyStateCache(cycle.network)
    travel = cycle.travel_time
    a, b = ((1.0 + BRACKET_LOW) * travel, BRACKET_HIGH * travel) if travel > 0 else (1.0, 3.0)
    probes = []
    state = None

    def evaluate(period):
        nonlocal state
        state = balance_level_set(cycle, period, cache, config,
                                  initial_dwells=None if state is None else state.dwells)
        probes.append((period, state.g_con))
        return state.g_con

    x1 = b - (b - a) / GOLDEN_RATIO
    x2 = a + (b - a) / GOLDEN_RATIO
    f1, f2 = evaluate(x1), evaluate(x2)
    for _ in range(GOLDEN_MAX_ITERS):
        if abs(f2 - f1) <= GOLDEN_EPS * max(abs(f1), abs(f2)):
            break
        if (b - a) <= 1e-12 * max(1.0, b):
            break
        if f2 > f1:
            b = x2
            x2, f2 = x1, f1
            x1 = b - (b - a) / GOLDEN_RATIO
            f1 = evaluate(x1)
        else:
            a = x1
            x1, f1 = x2, f2
            x2 = a + (b - a) / GOLDEN_RATIO
            f2 = evaluate(x2)
    t_star = 0.5 * (x1 + x2)
    evaluate(t_star)
    return t_star, state, probes


# --- shared parameter table --------------------------------------------------

TABLE1 = {
    "A": [0.3487, 0.1915, 0.4612, 0.2951, 0.1110],
    "Q": [1.1924, 1.2597, 0.8808, 1.7925, 0.4363],
    "R": [2.3140, 7.1456, 4.2031, 5.2866, 7.5314],
}


def bordered_level_step(x: np.ndarray, logs: np.ndarray, jac: np.ndarray,
                        groups: dict[int, list[int]], never: dict[int, float],
                        budget: float) -> np.ndarray | None:
    """One bordered Newton step of ``log u_k(x) = L`` for every slot ``k`` of
    an active target, ``Σ x = budget``, over slot dwells ``x`` with log
    peaks ``logs`` and Jacobian ``jac`` (a single-slot row holds only its
    diagonal), solving the whole ``(m + 1)²`` system with ``m`` the modelled
    slots; ``groups`` maps each target to its slots.  None when no row is
    usable, the system is singular or the linear model leaves no dwell
    positive.

    A target takes part in the linear model while its rows are finite (a
    single-slot row also needs a falling slope) and its modelled total dwell
    stays above zero; a multi-slot target leaves only once no single-slot
    target does, and then alone: the one with the most negative modelled
    total.  The others are modelled at zero dwell.  A step moves a
    dwell to between a quarter and four times its value (from zero, to at
    most the budget), a target cheaper never observed than ``e^L`` takes
    none, and the dwells are rescaled to the budget.
    """
    def usable(tid):
        ks = groups[tid]
        if len(ks) == 1:
            return jac[ks[0], ks[0]] < 0.0 and math.isfinite(jac[ks[0], ks[0]])
        return bool(np.isfinite(jac[ks]).all())

    model = [tid for tid in groups if usable(tid)]
    if not model:
        return None
    while True:
        rows = [k for tid in model for k in groups[tid]]
        rest = np.ones(len(x), dtype=bool)
        rest[rows] = False
        system = np.zeros((len(rows) + 1, len(rows) + 1))
        system[:-1, :-1] = jac[np.ix_(rows, rows)]
        system[:-1, -1] = -1.0
        system[-1, :-1] = 1.0
        rhs = np.append(jac[np.ix_(rows, rest)] @ x[rest] - logs[rows], budget - x[rows].sum())
        try:
            solution = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(solution).all():
            return None
        level = solution[-1]
        step = dict(zip(rows, solution[:-1]))
        totals = {tid: sum(x[k] + step[k] for k in groups[tid]) for tid in model}
        dropped = [tid for tid in model if totals[tid] <= 0.0]
        dropped = ([tid for tid in dropped if len(groups[tid]) == 1]
                   or sorted(dropped, key=totals.get)[:1])
        kept = [tid for tid in model if tid not in dropped]
        if len(kept) == len(model) or not kept:
            break
        model = kept
    proposed = np.zeros(len(x))
    for tid, ks in groups.items():
        if math.log(never[tid]) <= level:
            continue
        for k in ks:
            d = x[k]
            if k in step:
                target = max(0.0, d + step[k])
            elif not usable(tid):
                proposed[k] = d
                continue
            elif len(ks) == 1:
                target = max(0.0, d + (level - logs[k]) / jac[k, k])
            else:
                target = 0.0
            proposed[k] = min(4.0 * d, max(0.25 * d, target)) if d > 0.0 else min(target, budget)
    total = proposed.sum()
    return proposed * (budget / total) if total > 0.0 else None


# --- fleet partitions without dwell schedules ----------------------------------

def shortest_path_disparity(network, cache=None) -> DisparityMatrix:
    """Plain fastest-travel-time disparity (the clustering ablation's
    baseline); ``cache`` is unused, as a stand-in for ``disparity_matrix``."""
    ids = sorted(network.ids)
    values = np.array([[network.travel[i][j] for j in ids] for i in ids], dtype=float)
    return DisparityMatrix(ids=ids, values=values)


def fleet_partition(network, k: int, cache=None, disparity=disparity_matrix,
                    refine: bool = True) -> Partition:
    """``plan_fleet``'s stages with the disparity chosen and the target
    exchanges optional: clusters, their greedy cycles and, if ``refine``,
    ``tes_refine``; no dwell schedules."""
    cache = cache or SteadyStateCache(network)
    sim = similarity_from_disparity(disparity(network, cache), DEFAULT_CONFIG.sigma)
    clusters = [frozenset(c) for c in spectral_cluster(sim, k, seed=DEFAULT_CONFIG.seed)]
    built = [_build_cluster(network, members, cache) for members in clusters]
    partition = Partition(network=network, clusters=clusters,
                          cycles=[cycle for cycle, _ in built],
                          metrics=[metric for _, metric in built])
    return tes_refine(partition, cache) if refine else partition


# --- readings only the tests take ----------------------------------------------

def steady_cost(cache: SteadyStateCache, tid: int) -> float:
    """Cost of target ``tid`` at its always-observed steady state."""
    return cache.target(tid).g(cov_norm(cache.steady(tid).omega_ss))


def disparity_of(disparity: DisparityMatrix, i: int, j: int) -> float:
    """The disparity between targets ``i`` and ``j``."""
    return float(disparity.values[disparity.ids.index(i), disparity.ids.index(j)])


def metric_ratio(partition: Partition) -> float:
    """Worst over best cluster cost floor of a partition."""
    values = [m.value for m in partition.metrics]
    return max(values) / min(values)
