"""Shared numeric defaults for the planner.

Every tolerance and iteration cap a caller can set for the engine, the
balancers and the fleet pipeline lives here, so callers (and the CLI) can
override them in one place.  The covariance engine's fixed numeric floors are
constants in ``covariance``.
"""

from dataclasses import dataclass


@dataclass
class ParamRanges:
    """Uniform sampling ranges for random instance generation.

    Scalar target dynamics are drawn uniformly from these intervals; positions
    are drawn from the square [0, box]^2 and travel times are Euclidean.
    ``stable_fraction`` of the targets (rounded down) get a drift drawn from
    ``a_stable`` instead of ``a`` so instances can mix decaying and unstable
    targets.
    """

    a: tuple[float, float] = (0.05, 0.5)
    a_stable: tuple[float, float] = (-0.6, -0.1)
    q: tuple[float, float] = (0.4, 1.8)
    r: tuple[float, float] = (2.0, 8.0)
    alpha: tuple[float, float] = (1.0, 1.0)
    box: float = 0.5
    stable_fraction: float = 0.0

    def validate(self) -> None:
        for name in ("a", "a_stable", "q", "r", "alpha"):
            lo, hi = getattr(self, name)
            if hi < lo:
                raise ValueError(f"range {name} has high < low")
        if self.q[0] <= 0 or self.r[0] <= 0:
            raise ValueError("q and r ranges must be positive")
        if self.box <= 0:
            raise ValueError("box must be positive")
        if not 0.0 <= self.stable_fraction <= 1.0:
            raise ValueError("stable_fraction must be in [0, 1]")


@dataclass
class PlannerConfig:
    """Tolerances, step sizes and caps for the whole pipeline."""

    # covariance engine
    periodic_tol: float = 1e-9          # one period's max-abs drift, relative to max(1, |omega|)

    # dwell balancing
    k_p: float = 1e-2                   # consensus gain
    balance_tol: float = 1e-6           # relative peak spread at convergence
    balance_max_iters: int = 50_000
    mv_tol: float = 1e-7                # within-target split convergence
    mv_k_p: float = 5e-2                # within-target gain (damped on overshoot)
    mv_max_iters: int = 10_000
    log_ratio_cap: float = 50.0         # |log(g_i/g_avg)| cap (infinite-cost guard)

    # period search
    bracket_low: float = 0.1            # T_min = (1 + low) * travel time
    bracket_high: float = 3.0           # T_max = high * travel time
    golden_eps: float = 1e-6            # relative |g(T2) - g(T1)| stop
    golden_max_iters: int = 200

    # cycle construction
    greedy_gain_rel: float = 1e-9       # accepted gain >= rel * current metric
    compare_tol: float = 1e-6           # relative tolerance for cost comparisons

    # fleet
    sigma: float | None = None          # None -> median off-diagonal disparity
    kmeans_restarts: int = 50
    kmeans_max_iters: int = 300
    tes_max_commits: int = 50
    seed: int = 0

    # simulation
    num_periods: int = 20
    grid_points_per_period: int = 2000


DEFAULT_CONFIG = PlannerConfig()
