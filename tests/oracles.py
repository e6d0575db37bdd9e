"""Independent reference implementations used only by the tests.

Everything here is deliberately written from first principles, separate from
the package code paths: closed-form scalar solutions, a fixed-step RK4
integrator for the matrix equations, a bisection fixed-point solver for the
single-visit periodic peaks, plain iteration of the one-period map for any
visit pattern, and brute-force cycle enumeration.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.linalg


# --- closed-form scalar solutions -----------------------------------------

def scalar_unobserved(a: float, q: float, w0: float, t: float) -> float:
    """w(t) = e^{2at} (w0 + q/2a) - q/2a, or w0 + q t when a = 0."""
    if a == 0.0:
        return w0 + q * t
    c = q / (2.0 * a)
    return math.exp(2.0 * a * t) * (w0 + c) - c


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
