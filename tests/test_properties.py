"""Properties of the direct periodic fixed-point solve over random targets.

Each example draws a scalar or 2x2 target and a pattern of one to three
visits, then checks the solve against plain iteration of the period map, that
one more period leaves it in place, and that its peaks rise with a gap and
fall with a dwell.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from patrolplan.covariance import cov_norm, periodic_steady_state

from oracles import apply_period, iterated_periodic_start, period_steps

REL = 1e-8

entries = st.floats(-0.6, 0.6)


@st.composite
def targets(draw):
    """(A, Q, G) of a scalar or 2x2 target with Q and G positive definite."""
    dim = draw(st.sampled_from([1, 2]))
    A = np.array(draw(st.lists(entries, min_size=dim * dim, max_size=dim * dim))).reshape(dim, dim)
    B = np.array(draw(st.lists(entries, min_size=dim * dim, max_size=dim * dim))).reshape(dim, dim)
    C = np.array(draw(st.lists(entries, min_size=dim * dim, max_size=dim * dim))).reshape(dim, dim)
    Q = B @ B.T + draw(st.floats(0.3, 1.5)) * np.eye(dim)
    G = C @ C.T + draw(st.floats(0.3, 1.0)) * np.eye(dim)
    return A, Q, G


@st.composite
def visits(draw):
    """Dwell and gap lists of one to three visits."""
    k = draw(st.integers(1, 3))
    t_on = draw(st.lists(st.floats(0.2, 1.5), min_size=k, max_size=k))
    t_off = draw(st.lists(st.floats(0.1, 2.5), min_size=k, max_size=k))
    return t_on, t_off


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max() / max(1.0, np.abs(b).max()))


@settings(max_examples=50, deadline=None)
@given(targets(), visits())
def test_solve_matches_iterated_oracle(target, pattern):
    A, Q, G = target
    t_on, t_off = pattern
    peaks = periodic_steady_state(A, Q, G, t_on, t_off)
    oracle = iterated_periodic_start(A, Q, G, t_on, t_off)
    assert rel_err(peaks.upper[0], oracle) <= REL


@settings(max_examples=50, deadline=None)
@given(targets(), visits())
def test_period_map_leaves_solution_fixed(target, pattern):
    A, Q, G = target
    t_on, t_off = pattern
    start = periodic_steady_state(A, Q, G, t_on, t_off).upper[0]
    again = apply_period(start, period_steps(A, Q, G, t_on, t_off))
    assert rel_err(again, start) <= REL


@settings(max_examples=50, deadline=None)
@given(targets(), visits(), st.data())
def test_peaks_rise_with_gap_and_fall_with_dwell(target, pattern, data):
    A, Q, G = target
    t_on, t_off = pattern
    k = data.draw(st.integers(0, len(t_on) - 1))
    eps = 0.05

    def worst(on, off):
        peaks = periodic_steady_state(A, Q, G, on, off)
        return max(cov_norm(u) for u in peaks.upper)

    base = worst(t_on, t_off)
    longer_gap = worst(t_on, [v + eps * (j == k) for j, v in enumerate(t_off)])
    longer_dwell = worst([v + eps * (j == k) for j, v in enumerate(t_on)], t_off)
    assert longer_gap > base * (1.0 + REL)
    assert longer_dwell < base * (1.0 - REL)
