"""Covariance numerics for alternating observed/unobserved phases.

The estimation-error covariance of a target obeys a matrix Riccati equation
while observed and a Lyapunov (linear) equation while not.  Both flows over a
fixed duration are linear-fractional maps of the covariance, obtained from a
single block matrix exponential:

* unobserved: ``Omega(t) = F Omega0 F' + V`` with ``F = e^{At}`` and ``V`` the
  accumulated noise Gramian, both read off ``expm([[A, Q], [0, -A']] t)``;
* observed: ``Omega(t) = (E21 + E22 Omega0)(E11 + E12 Omega0)^{-1}`` with the
  ``E`` blocks from ``expm([[-A', G], [Q, A]] t)``.

Scalar (1x1) targets get closed float kernels (exp / tanh forms) instead.
Both flows take one duration or a 1-D array of durations: over an array,
``apply`` returns the state after each duration, stacked along a leading
axis, from one stacked ``expm`` (scipy's scaling and squaring, Al-Mohy &
Higham 2009) or the scalar kernels elementwise.

The always-observed (algebraic Riccati) and never-observed (Lyapunov) steady
states of a scalar target are in closed form too: the positive root of a
quadratic and ``q / 2|a|``.  scipy's CARE and Lyapunov solvers serve matrix
targets only, and a failure of either is an ``EngineError``.

The periodic steady state of an on/off visit pattern is the fixed point of the
one-period composition of these maps; it is unique and attractive whenever the
target is observed for part of the period.  It is solved directly: the
composed scalar map is a Moebius map whose attractive fixed point is the
positive root of a quadratic, and the matrix fixed point spans the dominant
invariant subspace of the period monodromy (Bittanti, Colaneri & De Nicolao,
"The periodic Riccati equation", 1991; Hench & Laub, IEEE TAC 39(6), 1994).
One walk around the period then collects the peaks and certifies the
solution: it must return to its start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import TargetSpec

# scipy.linalg is imported by the matrix-target functions that call it, so a
# process that plans scalar targets only never loads scipy

RESIDUAL_TOL = 1e-8   # relative residual of the algebraic steady-state equations
PSD_TOL = 1e-10       # eigenvalue floor for a positive semidefinite covariance
PERIODIC_TOL = 1e-9   # one period's max-abs drift, relative to max(1, |omega|)
FLOW_BLOCK = 4_096     # durations a stacked matrix flow maps at a time

__all__ = [
    "EngineError",
    "ConvergenceError",
    "SteadyStates",
    "PeakSet",
    "cov_norm",
    "symmetrize",
    "solve_steady_states",
    "periodic_steady_state",
    "lower_bound",
    "scalar_lower_bound",
    "observed_flow",
    "unobserved_flow",
]


class EngineError(RuntimeError):
    """Numerical failure inside the covariance engine."""


class ConvergenceError(EngineError):
    """Iteration failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


def symmetrize(mat: np.ndarray) -> np.ndarray:
    """The symmetric part of a matrix, or of each matrix of a stack."""
    return 0.5 * (mat + mat.swapaxes(-1, -2))


def cov_norm(mat: np.ndarray) -> float:
    """Matrix norm used by the cost: the trace."""
    return float(np.trace(mat))


# ---------------------------------------------------------------------------
# scalar float kernels (hot paths)
# ---------------------------------------------------------------------------

def _scalar_unobs_coeffs(a: float, q: float, t: float) -> tuple[float, float]:
    """Affine map w -> alpha*w + beta for the unobserved phase."""
    # a * t first: t = 0 gives x = 0 even where 2a overflows
    x = 2.0 * (a * t)
    if x > 700.0:
        return math.inf, math.inf
    alpha = math.exp(x)
    if abs(x) < 1e-8:
        # expm1(x) / x to double precision; also exact for a = 0 and safe
        # for subnormal a, where x / (2a) loses the digits of t
        beta = q * t * (1.0 + 0.5 * x)
    else:
        beta = q * math.expm1(x) / (2.0 * a)
    return alpha, beta


def _scalar_obs_coeffs(a: float, q: float, g: float, t: float) -> tuple[float, float, float, float]:
    """Projective map coefficients (m11, m12, m21, m22) for the observed phase.

    Acting on homogeneous coordinates (x, y) with w = y/x:
    w -> (m21 + m22 w) / (m11 + m12 w).  Scaled by cosh so coefficients never
    overflow for long dwells.
    """
    s = math.sqrt(a * a + q * g)
    if not s < math.inf:   # only past the double range, so no finite s moves
        s = _riccati_rate(a, q, g)
    # tanh(s t) / s tends to t as s t goes to 0; the limit also stands in
    # for inf * 0 when s overflows at t = 0
    u = math.tanh(s * t) / s if s * t > 0.0 else t
    return 1.0 - a * u, g * u, q * u, 1.0 + a * u


def _scalar_unobs_coeff_arrays(a: float, q: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_scalar_unobs_coeffs`` at every duration of the array ``t``: the
    same operations and branches, elementwise, with numpy's ``exp`` and
    ``expm1``."""
    x = 2.0 * (a * t)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        alpha = np.exp(x)
        beta = q * np.expm1(x) / (2.0 * a)
    small = np.abs(x) < 1e-8
    beta[small] = q * t[small] * (1.0 + 0.5 * x[small])
    big = x > 700.0
    alpha[big] = beta[big] = math.inf
    return alpha, beta


def _scalar_obs_coeff_arrays(a: float, q: float, g: float, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """``_scalar_obs_coeffs`` at every duration of the array ``t``: the same
    operations and branches, elementwise, with numpy's ``tanh``."""
    s = math.sqrt(a * a + q * g)
    if not s < math.inf:
        s = _riccati_rate(a, q, g)
    st = s * t
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.tanh(st) / s
    flat = ~(st > 0.0)
    u[flat] = t[flat]
    return 1.0 - a * u, g * u, q * u, 1.0 + a * u


def _scalar_compose(coeffs: Sequence[tuple[float, float, float, float]]) -> tuple[float, float, float, float]:
    """Compose projective maps; coeffs[0] applies first."""
    p11, p12, p21, p22 = 1.0, 0.0, 0.0, 1.0
    for (m11, m12, m21, m22) in coeffs:
        p11, p12, p21, p22 = (
            m11 * p11 + m12 * p21,
            m11 * p12 + m12 * p22,
            m21 * p11 + m22 * p21,
            m21 * p12 + m22 * p22,
        )
        scale = max(abs(p11), abs(p12), abs(p21), abs(p22))
        if scale > 1e100:
            p11, p12, p21, p22 = p11 / scale, p12 / scale, p21 / scale, p22 / scale
    return p11, p12, p21, p22


def _scalar_apply(m: tuple[float, float, float, float], w: float) -> float:
    m11, m12, m21, m22 = m
    return (m21 + m22 * w) / (m11 + m12 * w)


def _scalar_fixed_point(p: tuple[float, float, float, float]) -> float:
    """Attractive fixed point of w -> (p21 + p22 w) / (p11 + p12 w): the
    positive root of p12 w^2 + (p11 - p22) w - p21 = 0, in the form that
    avoids cancellation."""
    scale = max(map(abs, p))
    if not 0.0 < scale < math.inf:
        return math.nan
    p11, p12, p21, p22 = (v / scale for v in p)
    b = p11 - p22
    root = math.sqrt(b * b + 4.0 * p12 * p21)
    if b >= 0.0:
        return 2.0 * p21 / (b + root) if b + root > 0.0 else 0.0
    return (root - b) / (2.0 * p12) if p12 > 0.0 else math.inf


def _rescaled(mat: np.ndarray) -> np.ndarray:
    """Divide a homogeneous (projective) map by its largest entry once that
    passes 1e100; the map on covariances is unchanged."""
    scale = float(np.abs(mat).max())
    return mat / scale if scale > 1e100 else mat


# ---------------------------------------------------------------------------
# phase flows (precomputed propagators for a duration or an array of them)
# ---------------------------------------------------------------------------

@dataclass
class _ScalarFlow:
    """Affine map ``beta + alpha w`` for ``m = (alpha, beta)`` (unobserved),
    else projective map (observed), on scalar covariances."""

    m: tuple

    def apply(self, omega):
        if len(self.m) == 2:
            alpha, beta = self.m
            return beta + alpha * omega
        return _scalar_apply(self.m, omega)


def _blockwise(at, stack: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """A matrix flow's ``apply``: ``at(rows, omega)`` maps ``omega`` through
    the flow's durations ``rows`` (``...``: its one duration).  Over a stack
    of durations it runs on blocks of ``FLOW_BLOCK`` of them, written into
    one stack, so its temporaries stay the size of a block; each state is
    computed on its own, so the blocks change no bit of it."""
    if stack.ndim == 2:
        return at(..., omega)
    out = np.empty((len(stack), *omega.shape))
    for lo in range(0, len(stack), FLOW_BLOCK):
        rows = slice(lo, lo + FLOW_BLOCK)
        out[rows] = at(rows, omega)
    return out


class _MatrixUnobservedFlow:
    __slots__ = ("E", "F", "V")

    def __init__(self, A: np.ndarray, Q: np.ndarray, t):
        dim = A.shape[0]
        block = np.zeros((2 * dim, 2 * dim))
        block[:dim, :dim] = A
        block[:dim, dim:] = Q
        block[dim:, dim:] = -A.T
        import scipy.linalg
        with np.errstate(over="ignore", invalid="ignore"):
            self.E = scipy.linalg.expm(block * t)
        self.F = self.E[..., :dim, :dim]
        self.V = symmetrize(self.E[..., :dim, dim:] @ self.F.swapaxes(-1, -2))

    def apply(self, omega: np.ndarray) -> np.ndarray:
        def at(rows, w):
            F = self.F[rows]
            return symmetrize(F @ w @ F.swapaxes(-1, -2) + self.V[rows])
        return _blockwise(at, self.F, omega)

    def homogeneous(self) -> np.ndarray:
        """The flow on ``[X; Y]`` with ``omega = Y X^-1``:
        ``[[e^{-A't}, 0], [V e^{-A't}, F]]``, where ``V e^{-A't}`` is the
        exponential's upper-right block (one duration only)."""
        dim = self.F.shape[0]
        E = self.E
        return np.block([[E[dim:, dim:], np.zeros((dim, dim))], [E[:dim, dim:], self.F]])


class _MatrixObservedFlow:
    __slots__ = ("E", "E11", "E12", "E21", "E22", "chunks")

    def __init__(self, A: np.ndarray, Q: np.ndarray, G: np.ndarray, t):
        dim = A.shape[0]
        M = np.zeros((2 * dim, 2 * dim))
        M[:dim, :dim] = -A.T
        M[:dim, dim:] = G
        M[dim:, :dim] = Q
        M[dim:, dim:] = A
        # keep per-chunk exponent moderate so the X-block solve stays well
        # conditioned over long dwells; a stack of durations takes the count
        # of its longest
        scale = float(np.abs(M).sum(axis=1).max()) * (t.max() if isinstance(t, np.ndarray) else t)
        self.chunks = max(1, min(100_000, math.ceil(scale / 20.0)))
        import scipy.linalg
        self.E = E = scipy.linalg.expm(M * (t / self.chunks))
        self.E11 = E[..., :dim, :dim]
        self.E12 = E[..., :dim, dim:]
        self.E21 = E[..., dim:, :dim]
        self.E22 = E[..., dim:, dim:]

    def apply(self, omega: np.ndarray) -> np.ndarray:
        def at(rows, w):
            E11, E12, E21, E22 = self.E11[rows], self.E12[rows], self.E21[rows], self.E22[rows]
            for _ in range(self.chunks):
                num = E21 + E22 @ w
                den = E11 + E12 @ w
                w = symmetrize(np.linalg.solve(den.swapaxes(-1, -2), num.swapaxes(-1, -2)).swapaxes(-1, -2))
            return w
        return _blockwise(at, self.E, omega)

    def homogeneous(self) -> np.ndarray:
        """The flow on ``[X; Y]`` with ``omega = Y X^-1``: the chunk
        exponential to the power ``chunks``, up to a positive scale (one
        duration only)."""
        out = None
        base, k = self.E, self.chunks
        while True:
            if k & 1:
                out = base if out is None else _rescaled(base @ out)
            k >>= 1
            if not k:
                return out
            base = _rescaled(base @ base)


def _durations(t):
    """One duration as it is; a 1-D array of them shaped to scale a stack."""
    return t[:, None, None] if isinstance(t, np.ndarray) else t


def unobserved_flow(A: np.ndarray, Q: np.ndarray, t: float | np.ndarray):
    """Reusable propagator for an unobserved stretch of length ``t``, or of
    each length in the 1-D array ``t``: its ``apply`` then returns the state
    after each one, stacked along a leading axis."""
    t = _durations(t)
    if A.shape == (1, 1):
        coeffs = _scalar_unobs_coeff_arrays if isinstance(t, np.ndarray) else _scalar_unobs_coeffs
        return _ScalarFlow(coeffs(float(A[0, 0]), float(Q[0, 0]), t))
    return _MatrixUnobservedFlow(A, Q, t)


def observed_flow(A: np.ndarray, Q: np.ndarray, G: np.ndarray, t: float | np.ndarray):
    """Reusable propagator for an observed stretch of length ``t``, or of
    each length in the 1-D array ``t``, as ``unobserved_flow``."""
    t = _durations(t)
    if A.shape == (1, 1):
        coeffs = _scalar_obs_coeff_arrays if isinstance(t, np.ndarray) else _scalar_obs_coeffs
        return _ScalarFlow(coeffs(float(A[0, 0]), float(Q[0, 0]), float(G[0, 0]), t))
    return _MatrixObservedFlow(A, Q, G, t)


# ---------------------------------------------------------------------------
# steady states
# ---------------------------------------------------------------------------

@dataclass
class SteadyStates:
    """Always-observed Riccati fixed point and, when A is Hurwitz, the
    never-observed Lyapunov fixed point.  A drift so weak that this point
    overflows (a = -5e-324) counts as not Hurwitz, like a = 0: its
    never-observed cost is infinite."""

    omega_ss: np.ndarray
    omega_inf_finite: np.ndarray | None

    @property
    def a_is_hurwitz(self) -> bool:
        """Whether the never-observed fixed point exists."""
        return self.omega_inf_finite is not None


def _check_solution(name: str, omega: np.ndarray, res: np.ndarray, term: np.ndarray) -> None:
    """Raise unless ``omega`` is positive semidefinite and its residual meets
    ``RESIDUAL_TOL * (1 + ||omega|| + ||term||)`` (Frobenius): ``term`` is
    the equation's term that the others cancel (``omega G omega`` or ``Q``),
    so the bound scales with the equation.  Both sides are divided by
    ``max(1, max|omega|)`` first, so no norm overflows, and NaN fails."""
    scale = max(1.0, float(np.abs(omega).max()))
    rel_res = float(np.linalg.norm(res / scale))
    bound = 1.0 / scale + float(np.linalg.norm(omega / scale)) + float(np.linalg.norm(term / scale))
    if not rel_res <= RESIDUAL_TOL * bound:
        raise EngineError(f"{name} solution residual {rel_res * scale:.3e} above tolerance")
    low = float(np.linalg.eigvalsh(omega).min())
    if low < -PSD_TOL * scale:
        raise EngineError(f"{name} solution has negative eigenvalue {low:.3e}")


def _scipy_solve(solver, *args) -> np.ndarray:
    """``solver(*args)`` symmetrized; a failure of scipy's is an ``EngineError``."""
    try:
        return symmetrize(solver(*args))
    except ValueError as exc:   # numpy's LinAlgError included
        raise EngineError(f"scipy's {solver.__name__} failed: {exc}") from exc


def _riccati_rate(a: float, q: float, g: float) -> float:
    """``sqrt(a^2 + q g)`` where the plain form overflows: ``hypot`` keeps
    ``a^2`` from overflowing, and ``sqrt(q) sqrt(g)`` stands in for
    ``sqrt(q g)`` when that product leaves the normal range."""
    qg = q * g
    return math.hypot(a, math.sqrt(qg) if 1e-300 < qg < math.inf else math.sqrt(q) * math.sqrt(g))


def _scalar_riccati_root(a: float, q: float, g: float) -> float:
    """Positive root of ``2 a w + q - g w^2 = 0``, the scalar always-observed
    steady state, in the form that does not cancel for either sign of ``a``,
    with ``s`` from ``_riccati_rate``."""
    s = _riccati_rate(a, q, g)
    root = q / (s - a) if a < 0.0 else (a + s) / g
    if not math.isfinite(root):
        raise EngineError(f"Riccati solution {root} is not finite")
    return root


def solve_steady_states(A, Q, G, H=None, R=None) -> SteadyStates:
    """Solve the algebraic Riccati / Lyapunov equations for one target.

    A scalar target takes both in closed form: the Riccati root above and
    ``q / 2|a|``.  Matrix targets go to scipy; ``H`` and ``R`` are used when
    available (the solver prefers the factored observation model), otherwise
    ``G`` is factored internally.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    G = np.atleast_2d(np.asarray(G, dtype=float))
    if A.shape == (1, 1):
        a, q = float(A[0, 0]), float(Q[0, 0])
        omega_ss = np.array([[_scalar_riccati_root(a, q, float(G[0, 0]))]])
        # past double range (a = -5e-324) there is no finite limit, as for a = 0
        resting = 0.5 * q / -a if a < 0.0 else math.inf
        omega_inf = np.array([[resting]]) if math.isfinite(resting) else None
        return SteadyStates(omega_ss=omega_ss, omega_inf_finite=omega_inf)
    import scipy.linalg
    if H is not None and R is not None:
        b = np.atleast_2d(np.asarray(H, dtype=float)).T
        r = np.atleast_2d(np.asarray(R, dtype=float))
    else:
        # G = C' C with C from the eigendecomposition; R = identity
        w, v = np.linalg.eigh(symmetrize(G))
        w = np.clip(w, 0.0, None)
        c = (v * np.sqrt(w)) @ v.T
        b = c.T
        r = np.eye(G.shape[0])
    omega_ss = _scipy_solve(scipy.linalg.solve_continuous_are, A.T, b, Q, r)
    quad = omega_ss @ G @ omega_ss
    _check_solution("Riccati", omega_ss, A @ omega_ss + omega_ss @ A.T + Q - quad, quad)
    omega_inf = None
    if np.all(np.linalg.eigvals(A).real < 0):
        omega_inf = _scipy_solve(scipy.linalg.solve_continuous_lyapunov, A, -Q)
        _check_solution("Lyapunov", omega_inf, A @ omega_inf + omega_inf @ A.T + Q, Q)
    return SteadyStates(omega_ss=omega_ss, omega_inf_finite=omega_inf)


def steady_states_for(target: TargetSpec) -> SteadyStates:
    return solve_steady_states(target.A, target.Q, target.G, target.H, target.R)


# ---------------------------------------------------------------------------
# periodic steady state
# ---------------------------------------------------------------------------

_NOT_FIXED = "periodic covariance is not a fixed point of the period map"


@dataclass
class PeakSet:
    """Per-visit covariance extrema of the periodic steady state.

    ``upper[k]`` is the covariance at the start of visit k (the off->on
    switch, where the per-visit maximum occurs); ``lower[k]`` at its end.
    ``iterations`` counts the walks around the period (one, the
    certificate).
    """

    upper: list[np.ndarray]
    lower: list[np.ndarray]
    iterations: int


def _scalar_periodic_peaks(
    a: float,
    q: float,
    g: float,
    t_on: Sequence[float],
    t_off: Sequence[float],
) -> tuple[list[float], list[float], int]:
    """Scalar periodic peaks from the closed-form fixed point; returns the
    upper and lower peaks and the number of certifying walks (one).  A gap
    whose growth passes double range fails the walk and takes
    ``_overflowed_peaks`` instead; a fixed point beyond double range with
    finite growth is reported as an overflow.  With no gap the target is never
    unobserved, and the orbit rests at the always-observed steady state: the
    peaks are its root, the same bits as the revisit floor at gap 0."""
    if not any(t_off):
        w = _scalar_riccati_root(a, q, g)
        return [w] * len(t_on), [w] * len(t_on), 1
    obs = [_scalar_obs_coeffs(a, q, g, on) for on in t_on]
    unobs = [_scalar_unobs_coeffs(a, q, off) for off in t_off]
    phase_maps: list[tuple[float, float, float, float]] = []
    for m, (al, be) in zip(obs, unobs):
        phase_maps.append(m)
        phase_maps.append((1.0, 0.0, be, al))
    omega = _scalar_fixed_point(_scalar_compose(phase_maps))
    uppers, lowers = [], []
    w = omega
    for m, (al, be) in zip(obs, unobs):
        uppers.append(w)
        w = _scalar_apply(m, w)
        lowers.append(w)
        w = al * w + be
    residual = abs(w - omega)
    if not residual <= PERIODIC_TOL * max(1.0, abs(omega)):
        if any(math.isinf(al) for al, _ in unobs):
            return _overflowed_peaks(obs, unobs)
        if omega == math.inf:
            raise ConvergenceError("periodic covariance overflows the double range", math.inf)
        raise ConvergenceError(_NOT_FIXED, residual)
    return uppers, lowers, 1


def _overflowed_peaks(obs, unobs) -> tuple[list[float], list[float], int]:
    """Scalar periodic peaks when a gap's growth ``e^{2 a t_off}`` passes
    double range: the peak at the next visit is infinite, as an unstable
    target's never-observed cost is.  The walk starts there, and each
    observed stretch brings the covariance back to the finite limit of its
    flow from infinity."""
    n = len(obs)
    uppers, lowers = [math.inf] * n, [math.inf] * n
    start = max(k for k, (al, _) in enumerate(unobs) if math.isinf(al))
    w = math.inf
    for j in range(1, n + 1):
        k = (start + j) % n
        uppers[k] = w
        if math.isinf(w):
            _, m12, _, m22 = obs[k]
            w = m22 / m12 if m12 > 0.0 else math.inf
        else:
            w = _scalar_apply(obs[k], w)
        lowers[k] = w
        al, be = unobs[k]
        w = math.inf if math.isinf(al) else al * w + be
    return uppers, lowers, 1


def _dominant_graph(monodromy: np.ndarray) -> np.ndarray:
    """Symmetric ``omega`` whose graph ``[I; omega]`` spans the invariant
    subspace of the ``n`` largest-modulus eigenvalues of a 2n x 2n map."""
    dim = monodromy.shape[0] // 2
    moduli = np.sort(np.abs(np.linalg.eigvals(monodromy)))[::-1]
    cut = math.sqrt(moduli[dim - 1] * moduli[dim])
    import scipy.linalg
    _, Z, sdim = scipy.linalg.schur(
        monodromy, output="real", sort=lambda re, im: math.hypot(re, im) > cut
    )
    if sdim != dim:
        raise ConvergenceError("period monodromy has no dominant invariant subspace", math.inf)
    Z1, Z2 = Z[:dim, :dim], Z[dim:, :dim]
    return symmetrize(np.linalg.solve(Z1.T, Z2.T).T)


def periodic_steady_state(
    A,
    Q,
    G,
    t_on: Sequence[float],
    t_off: Sequence[float],
    omega_ss: np.ndarray | None = None,
) -> PeakSet:
    """Fixed point of the one-period covariance map for one target.

    ``t_on[k]`` / ``t_off[k]`` describe visit k and the gap after it; the
    period starts at the off->on switch of visit 0.  The fixed point is
    solved directly (see the module docstring); one walk around the period
    then collects the peaks and must return to the period-start covariance
    within ``PERIODIC_TOL`` times ``max(1, max|omega|)``, else
    ``ConvergenceError``.
    ``omega_ss`` is accepted for compatibility and not used.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    G = np.atleast_2d(np.asarray(G, dtype=float))
    t_on = [float(v) for v in t_on]
    t_off = [float(v) for v in t_off]
    if len(t_on) != len(t_off) or not t_on:
        raise ValueError("t_on and t_off must be non-empty and equal length")
    if any(v < 0 for v in t_on + t_off):
        raise ValueError("dwell and gap durations must be nonnegative")
    if sum(t_on) + sum(t_off) <= 0:
        raise ValueError("period must be positive")
    if sum(t_on) == 0:
        raise ValueError("at least one dwell must be positive")

    if A.shape == (1, 1):
        uppers, lowers, walks = _scalar_periodic_peaks(
            float(A[0, 0]), float(Q[0, 0]), float(G[0, 0]), t_on, t_off
        )
        return PeakSet(
            upper=[np.array([[u]]) for u in uppers],
            lower=[np.array([[l]]) for l in lowers],
            iterations=walks,
        )

    flows = []
    for on, off in zip(t_on, t_off):
        flows.append(observed_flow(A, Q, G, on))
        flows.append(unobserved_flow(A, Q, off))
    monodromy = flows[0].homogeneous()
    for flow in flows[1:]:
        monodromy = _rescaled(flow.homogeneous() @ monodromy)
    try:
        omega = _dominant_graph(monodromy)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise ConvergenceError(f"no periodic covariance ({exc})", math.inf) from exc
    uppers, lowers = [], []
    w = omega
    for k in range(len(t_on)):
        uppers.append(w)
        w = flows[2 * k].apply(w)
        lowers.append(w)
        w = flows[2 * k + 1].apply(w)
    residual = float(np.abs(w - omega).max())
    if not residual <= PERIODIC_TOL * max(1.0, float(np.abs(omega).max())):
        raise ConvergenceError(_NOT_FIXED, residual)
    return PeakSet(upper=uppers, lower=lowers, iterations=1)


# ---------------------------------------------------------------------------
# revisit-time lower bound
# ---------------------------------------------------------------------------

def lower_bound(target: TargetSpec, gap: float, omega_ss: np.ndarray) -> float:
    """Weighted cost reached by growing the covariance from the
    always-observed steady state over an unobserved stretch of length ``gap``.

    Strictly increasing in ``gap``; a cheap floor for the peak cost of any
    schedule that revisits the target at most every ``gap`` time units.
    """
    if gap < 0:
        raise ValueError("gap must be nonnegative")
    if target.is_scalar:
        return scalar_lower_bound(target, omega_ss)(gap)
    grown = _MatrixUnobservedFlow(target.A, target.Q, gap).apply(omega_ss)
    return target.g(cov_norm(grown))


def scalar_lower_bound(target: TargetSpec, omega_ss: np.ndarray) -> Callable[[float], float]:
    """``lower_bound`` of a scalar target as a function of the gap alone, with
    the target's constants read once; the same operations, so the same bits."""
    a = float(target.A[0, 0])
    q = float(target.Q[0, 0])
    w = float(omega_ss[0, 0])
    g = target.g

    def floor(gap: float) -> float:
        al, be = _scalar_unobs_coeffs(a, q, gap)
        return g(al * w + be)

    return floor
