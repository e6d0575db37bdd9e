"""Planner settings and random-instance ranges.

``PlannerConfig`` holds only what a caller chooses, each of its four fields
set by one CLI flag.  Fixed gains, tolerances and caps are module constants
beside their only reader (``covariance.PERIODIC_TOL``, the ``dwell``
balancer and period search constants with the consensus law's
``CONSENSUS_GAIN``, ``cycles.GREEDY_GAIN_REL``, the ``fleet`` k-means and
exchange caps with ``BYPASS_MAX_RUN``, ``simulate.GRID_POINTS_PER_PERIOD``
and ``PREDICTION_REL_TOL``).
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
    """The planner settings a caller can choose, one per CLI flag."""

    balance_tol: float = 1e-6           # relative peak spread at convergence (--tol)
    sigma: float | None = None          # similarity kernel width, None -> median disparity (--sigma)
    seed: int = 0                       # k-means and `gen` instance seed (--seed)
    num_periods: int = 20               # simulated periods (--periods)


DEFAULT_CONFIG = PlannerConfig()
