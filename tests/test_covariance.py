import math

import numpy as np
import pytest

from patrolplan.covariance import (
    ConvergenceError,
    EngineError,
    cov_norm,
    lower_bound,
    observed_flow,
    periodic_steady_state,
    propagate_observed,
    propagate_unobserved,
    solve_steady_states,
    steady_states_for,
    unobserved_flow,
)
from patrolplan.model import TargetSpec

from oracles import (
    TABLE1,
    iterated_periodic_start,
    rk4_propagate,
    scalar_care,
    scalar_observed,
    scalar_single_visit_peak,
    scalar_unobserved,
)


def random_matrix_system(rng, dim):
    A = rng.normal(0.0, 0.6, size=(dim, dim))
    B = rng.normal(0.0, 0.7, size=(dim, dim))
    Q = B @ B.T + 0.3 * np.eye(dim)
    H = np.eye(dim) + 0.2 * rng.normal(size=(dim, dim))
    C = rng.normal(0.0, 0.5, size=(dim, dim))
    R = C @ C.T + 0.5 * np.eye(dim)
    G = H.T @ np.linalg.solve(R, H)
    return A, Q, G


class TestPropagateUnobserved:
    def test_zero_drift_linear_growth(self):
        out = propagate_unobserved([[2.0]], [[0.0]], [[1.0]], 3.0)
        assert out[0, 0] == pytest.approx(5.0, abs=1e-12)
        # zero and tiny drift: the oracle keeps the linear limit w0 + q t
        for a, t, expected in ((0.0, 3.0, 5.0), (5.4e-65, 1.0, 3.0)):
            assert scalar_unobserved(a, 1.0, 2.0, t) == pytest.approx(expected, rel=1e-15)
            out = propagate_unobserved([[2.0]], [[a]], [[1.0]], t)
            assert out[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_scalar_closed_form(self):
        a, q = 0.3487, 1.1924
        expected = scalar_unobserved(a, q, 1.0, 1.0)
        # same value via the printed form of the solution
        alt = math.exp(2 * a) * (1 + q / (2 * a)) - q / (2 * a)
        assert expected == pytest.approx(alt, rel=1e-14)
        rk = rk4_propagate(np.array([[1.0]]), np.array([[a]]), np.array([[q]]), None, 1.0, 1e-4)
        assert expected == pytest.approx(rk[0, 0], rel=1e-9)
        out = propagate_unobserved([[1.0]], [[a]], [[q]], 1.0)
        assert out[0, 0] == pytest.approx(expected, rel=1e-10)

    def test_zero_duration_identity(self):
        w0 = np.array([[1.5, 0.2], [0.2, 0.9]])
        out = propagate_unobserved(w0, np.zeros((2, 2)), np.eye(2), 0.0)
        assert np.array_equal(out, w0)

    def test_matrix_matches_rk4(self):
        rng = np.random.default_rng(5)
        A, Q, _ = random_matrix_system(rng, 2)
        w0 = np.eye(2) * 0.7
        out = propagate_unobserved(w0, A, Q, 0.4)
        rk = rk4_propagate(w0, A, Q, None, 0.4, 1e-5)
        assert np.allclose(out, rk, rtol=1e-7, atol=1e-9)


class TestPropagateObserved:
    def test_fixed_point_stays(self):
        a, q, g = 0.3487, 1.1924, 1 / 2.3140
        w_ss = scalar_care(a, q, g)
        out = propagate_observed([[w_ss]], [[a]], [[q]], [[g]], 2.0)
        assert out[0, 0] == pytest.approx(w_ss, rel=1e-9)

    def test_scalar_against_rk4_and_closed_form(self):
        a, q, g = 0.3487, 1.1924, 0.43216
        closed = scalar_observed(a, q, g, 5.0, 2.0)
        rk = rk4_propagate(np.array([[5.0]]), np.array([[a]]), np.array([[q]]),
                           np.array([[g]]), 2.0, 1e-5)
        assert closed == pytest.approx(rk[0, 0], rel=1e-7)
        out = propagate_observed([[5.0]], [[a]], [[q]], [[g]], 2.0)
        assert out[0, 0] == pytest.approx(closed, rel=1e-7)

    def test_zero_duration_identity(self):
        out = propagate_observed([[4.0]], [[0.1]], [[1.0]], [[0.5]], 0.0)
        assert out[0, 0] == 4.0

    def test_matrix_matches_rk4(self):
        rng = np.random.default_rng(9)
        A, Q, G = random_matrix_system(rng, 3)
        w0 = np.eye(3) * 2.0
        out = propagate_observed(w0, A, Q, G, 0.3)
        rk = rk4_propagate(w0, A, Q, G, 0.3, 1e-5)
        assert abs(np.trace(out) - np.trace(rk)) <= 1e-6 * abs(np.trace(rk))

    def test_long_dwell_converges_to_steady(self):
        a, q, g = 0.45, 1.5, 0.4
        out = propagate_observed([[50.0]], [[a]], [[q]], [[g]], 60.0)
        assert out[0, 0] == pytest.approx(scalar_care(a, q, g), rel=1e-9)


class TestSteadyStates:
    def test_scalar_formula(self):
        ss = solve_steady_states([[0.3487]], [[1.1924]], [[0.43216]])
        expected = scalar_care(0.3487, 1.1924, 0.43216)
        assert ss.omega_ss[0, 0] == pytest.approx(expected, rel=1e-10)
        assert expected == pytest.approx(2.6535, abs=2e-4)
        assert not ss.a_is_hurwitz
        assert ss.omega_inf_finite is None

    def test_hurwitz_lyapunov_value(self):
        ss = solve_steady_states([[-0.5]], [[1.0]], [[0.3]])
        assert ss.a_is_hurwitz
        assert ss.omega_inf_finite[0, 0] == pytest.approx(1.0, rel=1e-10)

    def test_unstable_has_no_finite_limit(self):
        ss = solve_steady_states([[0.1]], [[1.0]], [[0.5]])
        assert not ss.a_is_hurwitz
        assert ss.omega_inf_finite is None

    def test_tiny_stable_drift(self):
        # q / 2|a| = 5e299 is representable, but scipy's Lyapunov solver
        # returns about -1e292 for it
        ss = solve_steady_states([[-1e-300]], [[1.0]], [[1.0]])
        assert ss.a_is_hurwitz
        assert ss.omega_inf_finite[0, 0] == pytest.approx(5e299, rel=1e-12)
        # past double range there is no finite limit, as for a = 0
        ss = solve_steady_states([[-5e-324]], [[1.0]], [[1.0]])
        assert not ss.a_is_hurwitz
        assert ss.omega_inf_finite is None

    @pytest.mark.filterwarnings("ignore:Input \"a\" has an eigenvalue pair:RuntimeWarning")
    def test_negative_lyapunov_solution_raises(self):
        # a 2x2 drift as weak as above goes through scipy, whose answer
        # fails the positive-semidefinite check
        with pytest.raises(EngineError):
            solve_steady_states(np.diag([-1e-300, -1.0]), np.eye(2), np.eye(2))

    def test_matrix_residual(self):
        rng = np.random.default_rng(2)
        A, Q, G = random_matrix_system(rng, 3)
        ss = solve_steady_states(A, Q, G)
        res = A @ ss.omega_ss + ss.omega_ss @ A.T + Q - ss.omega_ss @ G @ ss.omega_ss
        assert np.linalg.norm(res) <= 1e-8 * (1 + np.linalg.norm(ss.omega_ss))

    def test_target_spec_wrapper(self):
        spec = TargetSpec(id=1, A=TABLE1["A"][0], Q=TABLE1["Q"][0], H=1.0, R=TABLE1["R"][0])
        ss = steady_states_for(spec)
        assert ss.omega_ss[0, 0] == pytest.approx(
            scalar_care(TABLE1["A"][0], TABLE1["Q"][0], 1.0 / TABLE1["R"][0]), rel=1e-10
        )


class TestPeriodicSteadyState:
    def test_always_observed_is_steady(self):
        a, q, g = 0.3487, 1.1924, 0.43216
        peaks = periodic_steady_state([[a]], [[q]], [[g]], t_on=[2.0], t_off=[0.0])
        w_ss = scalar_care(a, q, g)
        assert peaks.upper[0][0, 0] == pytest.approx(w_ss, rel=1e-8)
        assert peaks.lower[0][0, 0] == pytest.approx(w_ss, rel=1e-8)

    def test_matches_bisection_oracle(self):
        a, q, g = TABLE1["A"][0], TABLE1["Q"][0], 1.0 / TABLE1["R"][0]
        peaks = periodic_steady_state([[a]], [[q]], [[g]], t_on=[1.0], t_off=[1.0], tol=1e-12)
        oracle = scalar_single_visit_peak(a, q, g, 1.0, 1.0)
        assert peaks.upper[0][0, 0] == pytest.approx(oracle, rel=1e-8)

    def test_reapplying_period_map_is_fixed(self):
        a, q, g = 0.25, 1.3, 0.5
        peaks = periodic_steady_state([[a]], [[q]], [[g]], t_on=[0.4, 0.7], t_off=[0.9, 0.5])
        w = peaks.upper[0]
        for k in range(2):
            w = propagate_observed(w, [[a]], [[q]], [[g]], [0.4, 0.7][k])
            w = propagate_unobserved(w, [[a]], [[q]], [0.9, 0.5][k])
        assert abs(w[0, 0] - peaks.upper[0][0, 0]) <= 1e-8

    def test_switch_times(self):
        peaks = periodic_steady_state([[0.2]], [[1.0]], [[0.4]], t_on=[0.5, 0.25], t_off=[1.0, 0.75])
        assert peaks.tau_upper == [0.0, 1.5]
        assert peaks.tau_lower == [0.5, 1.75]

    def test_matrix_period_fixed_point(self):
        rng = np.random.default_rng(31)
        A, Q, G = random_matrix_system(rng, 2)
        peaks = periodic_steady_state(A, Q, G, t_on=[0.5], t_off=[0.6])
        w = propagate_observed(peaks.upper[0], A, Q, G, 0.5)
        assert np.allclose(w, peaks.lower[0], atol=1e-8)
        w = propagate_unobserved(w, A, Q, 0.6)
        assert np.abs(w - peaks.upper[0]).max() <= 1e-7

    def test_upper_dominates_lower(self):
        peaks = periodic_steady_state([[0.3]], [[1.0]], [[0.4]], t_on=[0.5], t_off=[1.2])
        assert peaks.upper[0][0, 0] > peaks.lower[0][0, 0]

    def test_requires_positive_dwell(self):
        with pytest.raises(ValueError):
            periodic_steady_state([[0.3]], [[1.0]], [[0.4]], t_on=[0.0], t_off=[1.0])

    def test_weak_contraction_solves(self):
        # a 1e-5 dwell barely contracts the period map; the direct solve
        # needs no iterations to reach its fixed point
        peaks = periodic_steady_state([[0.9]], [[1.0]], [[0.2]], t_on=[1e-5], t_off=[12.0])
        oracle = iterated_periodic_start([[0.9]], [[1.0]], [[0.2]], [1e-5], [12.0])
        assert peaks.upper[0][0, 0] == pytest.approx(oracle[0, 0], rel=1e-8)
        assert peaks.iterations == 1

    def test_beyond_double_precision_raises(self):
        # the period grows the covariance by ~e^40: no double-precision
        # covariance returns to itself, so the certifying walk must fail
        A = np.array([[0.5, 0.1], [0.0, 0.3]])
        with pytest.raises(ConvergenceError):
            periodic_steady_state(A, np.eye(2), 0.5 * np.eye(2), t_on=[1e-3], t_off=[40.0])


class TestLowerBound:
    def make_target(self, k=0):
        return TargetSpec(id=k + 1, A=TABLE1["A"][k], Q=TABLE1["Q"][k], H=1.0, R=TABLE1["R"][k])

    def test_zero_gap_is_steady_cost(self):
        t = self.make_target()
        ss = steady_states_for(t)
        assert lower_bound(t, 0.0, ss.omega_ss) == pytest.approx(cov_norm(ss.omega_ss))

    def test_gap_matches_propagation(self):
        t = self.make_target()
        ss = steady_states_for(t)
        grown = propagate_unobserved(ss.omega_ss, t.A, t.Q, 1.0)
        assert lower_bound(t, 1.0, ss.omega_ss) == pytest.approx(cov_norm(grown), rel=1e-9)

    def test_strictly_increasing(self):
        t = self.make_target(2)
        ss = steady_states_for(t)
        values = [lower_bound(t, gap, ss.omega_ss) for gap in (0.0, 1.0, 2.0)]
        assert values[0] < values[1] < values[2]


class TestSteadyStateProperties:
    """Directional bounds and slope signs of the periodic solution."""

    def sample_profile(self, A, Q, G, t_on, t_off, n=400):
        peaks = periodic_steady_state(A, Q, G, t_on=[t_on], t_off=[t_off], tol=1e-12)
        w = peaks.upper[0]
        samples = []
        obs = observed_flow(A, Q, G, t_on / n)
        for _ in range(n):
            samples.append(w)
            w = obs.apply(w)
        unobs = unobserved_flow(A, Q, t_off / n)
        for _ in range(n):
            samples.append(w)
            w = unobs.apply(w)
        return peaks, samples

    def test_sandwich_bounds_matrix(self):
        A = np.array([[-0.4, 0.3], [0.0, -0.6]])
        Q = np.array([[0.8, 0.1], [0.1, 0.9]])
        H = np.eye(2)
        R = np.eye(2) * 2.0
        G = H.T @ np.linalg.solve(R, H)
        ss = solve_steady_states(A, Q, G)
        assert ss.a_is_hurwitz
        _, samples = self.sample_profile(A, Q, G, 0.8, 1.4)
        rng = np.random.default_rng(0)
        dirs = rng.normal(size=(200, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        for z in dirs:
            lo = z @ ss.omega_ss @ z
            hi = z @ ss.omega_inf_finite @ z
            for w in samples[::20]:
                mid = z @ w @ z
                assert lo < mid < hi

    def test_slope_signs_at_steady_state(self):
        a, q, g = 0.3, 1.2, 0.5
        A, Q, G = np.array([[a]]), np.array([[q]]), np.array([[g]])
        peaks, samples = self.sample_profile(A, Q, G, 0.7, 1.1)
        n = 400
        # covariance decreases while observed, increases while unobserved
        for k in range(5, n - 5):
            assert samples[k + 1][0, 0] - samples[k][0, 0] < -1e-8
        for k in range(n + 5, 2 * n - 5):
            assert samples[k + 1][0, 0] - samples[k][0, 0] > 1e-8

    def test_dense_grid_max_is_peak(self):
        a, q, g = 0.3487, 1.1924, 0.43216
        A, Q, G = np.array([[a]]), np.array([[q]]), np.array([[g]])
        peaks, samples = self.sample_profile(A, Q, G, 0.6, 1.0, n=50_000)
        dense_max = max(s[0, 0] for s in samples)
        peak = peaks.upper[0][0, 0]
        assert dense_max == pytest.approx(peak, rel=1e-6)
        assert dense_max <= peak + 1e-9

    def test_peak_monotone_in_dwell_and_gap(self):
        a, q, g = 0.35, 1.1, 0.45
        base = periodic_steady_state([[a]], [[q]], [[g]], t_on=[0.4, 0.3], t_off=[0.8, 0.6],
                                     tol=1e-13)
        eps = 1e-4
        more_on = periodic_steady_state([[a]], [[q]], [[g]], t_on=[0.4 + eps, 0.3],
                                        t_off=[0.8, 0.6], tol=1e-13)
        more_off = periodic_steady_state([[a]], [[q]], [[g]], t_on=[0.4, 0.3],
                                         t_off=[0.8, 0.6 + eps], tol=1e-13)
        for k in range(2):
            assert more_on.upper[k][0, 0] < base.upper[k][0, 0] - 1e-8
            assert more_off.upper[k][0, 0] > base.upper[k][0, 0] + 1e-8

    def test_flows_match_public_propagators(self):
        rng = np.random.default_rng(77)
        for dim in (1, 2):
            A, Q, G = random_matrix_system(rng, dim)
            w0 = np.eye(dim) * 1.7
            t = 0.37
            f_obs = observed_flow(A, Q, G, t)
            f_un = unobserved_flow(A, Q, t)
            if dim == 1:
                got_obs = f_obs.apply(w0[0, 0])
                got_un = f_un.apply(w0[0, 0])
                assert got_obs == pytest.approx(propagate_observed(w0, A, Q, G, t)[0, 0], rel=1e-10)
                assert got_un == pytest.approx(propagate_unobserved(w0, A, Q, t)[0, 0], rel=1e-10)
            else:
                assert np.allclose(f_obs.apply(w0), propagate_observed(w0, A, Q, G, t), rtol=1e-10)
                assert np.allclose(f_un.apply(w0), propagate_unobserved(w0, A, Q, t), rtol=1e-10)
