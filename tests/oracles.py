"""Independent reference implementations used only by the tests.

Everything here is deliberately written from first principles, separate from
the package code paths: closed-form scalar solutions, a fixed-step RK4
integrator for the matrix equations, a bisection fixed-point solver for the
single-visit periodic peaks, plain iteration of the one-period map for any
visit pattern, and brute-force cycle enumeration.  The forward simulation and
its CSV export are kept in their plain per-sample form, as the reference for
the columnar versions in ``patrolplan.simulate``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.linalg

from patrolplan.config import DEFAULT_CONFIG
from patrolplan.covariance import cov_norm, observed_flow, unobserved_flow
from patrolplan.cycles import SteadyStateCache
from patrolplan.simulate import SimTrace, _schedule_segments, steady_initial_covariances


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


# --- per-substep forward simulation -----------------------------------------

def stepwise_simulate(plan, network=None, initial=None, num_periods=None, dt=None,
                      config=None, cache=None, record_states=0):
    """``simulate`` as a loop over substeps that applies every target's flow
    and records one sample per target at a time, into Python lists.  It
    shares the package's flows and schedule helpers: it checks the columnar
    loop, not the propagators.  ``switch_times`` is left empty."""
    cfg = config or DEFAULT_CONFIG
    network = network or plan.cycle.network
    cache = cache or SteadyStateCache(network)
    num_periods = cfg.num_periods if num_periods is None else num_periods
    period = plan.period
    segments = _schedule_segments(plan)
    min_seg = min(d for d, _ in segments)
    if dt is None:
        dt = min(period / cfg.grid_points_per_period, min_seg / 50.0)
        dt = max(dt, period / 200_000.0)
    if initial is None:
        initial = steady_initial_covariances(plan, network, cache)

    targets = sorted(network.ids)
    specs = {t.id: t for t in network.targets}
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
    state = {}
    for tid in targets:
        w0 = np.atleast_2d(np.asarray(initial[tid], dtype=float))
        state[tid] = float(w0[0, 0]) if scalar[tid] else w0

    times = [0.0]
    norms = {tid: [] for tid in targets}
    costs = {tid: [] for tid in targets}
    observed = {tid: [] for tid in targets}
    state_samples = {tid: [] for tid in targets}

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
    for _ in range(num_periods):
        start_idx = len(times) - 1
        for si, (duration, obs_tid, n_sub, flows) in enumerate(seg_plans):
            step = duration / n_sub
            for k in range(n_sub):
                for tid in targets:
                    state[tid] = flows[tid].apply(state[tid])
                t += step
                times.append(t)
                nxt = seg_plans[(si + 1) % len(seg_plans)][1] if k == n_sub - 1 else obs_tid
                for tid in targets:
                    record(tid, nxt)
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
        times=times, norms=norms, costs=costs, observed=observed,
        period=period, num_periods=num_periods, dt=dt, switch_times={},
        realized_cost=max(per_target_realized.values()),
        per_target_realized=per_target_realized, settle_period=settle,
        converged=settle < num_periods, period_maxima=period_maxima,
        state_samples=state_samples,
    )


def rowwise_trace_csv(trace) -> str:
    """``trace_to_csv`` one row and one f-string per value at a time."""
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


# --- shared parameter table --------------------------------------------------

TABLE1 = {
    "A": [0.3487, 0.1915, 0.4612, 0.2951, 0.1110],
    "Q": [1.1924, 1.2597, 0.8808, 1.7925, 0.4363],
    "R": [2.3140, 7.1456, 4.2031, 5.2866, 7.5314],
}
