import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from patrolplan.covariance import (
    ConvergenceError,
    EngineError,
    _scalar_periodic_peaks,
    cov_norm,
    lower_bound,
    observed_flow,
    periodic_steady_state,
    solve_steady_states,
    steady_states_for,
    unobserved_flow,
)
from patrolplan.model import TargetSpec, generate_random_instance, load_instance_file

from oracles import (
    TABLE1,
    decimal_care,
    iterated_periodic_start,
    propagate_observed,
    propagate_unobserved,
    rk4_propagate,
    scalar_care,
    scalar_observed,
    scalar_single_visit_peak,
    scalar_unobserved,
    tightly_periodic,
)

INSTANCES = Path(__file__).resolve().parents[1] / "instances"


def bundled_target(name, tid):
    network, _ = load_instance_file(str(INSTANCES / f"{name}.json"))
    return network.target(tid)


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


# drifts whose 2a (-1.7e308) or a^2 (-1e200) overflows
EXTREME_DRIFTS = [TargetSpec(id=1, A=-1.7e308, Q=1.0, H=1.0, R=1.0),
                  TargetSpec(id=1, A=-1e200, Q=1e300, H=1.0, R=1.0)]


class TestZeroLengthFlows:
    @pytest.mark.parametrize("target", [
        *(bundled_target(name, tid) for name, tid in (("table1", 1), ("duo2x2", 1), ("duo2x2", 2))),
        *EXTREME_DRIFTS,
    ], ids=["table1-1", "duo2x2-1", "duo2x2-2", "a=-1.7e308", "a=-1e200"])
    def test_zero_length_flows_return_omega_bit_for_bit(self, target):
        # a zero-length phase is an ordinary flow: the scalar kernels give the
        # Moebius identity, and scipy's expm of a zero matrix is exactly I
        omega = steady_states_for(target).omega_ss
        for flow in (observed_flow(target.A, target.Q, target.G, 0.0),
                     unobserved_flow(target.A, target.Q, 0.0)):
            out = np.asarray(flow.apply(omega))
            assert out.shape == omega.shape
            assert out.tobytes() == omega.tobytes()

    def test_zero_dwell_slot_past_overflowing_a_squared(self):
        # s = sqrt(a^2 + qg) is inf, and a zero dwell must not make it NaN:
        # the orbit rests at q / 2|a|, as every phase resets it there
        t = EXTREME_DRIFTS[1]
        peaks = periodic_steady_state(t.A, t.Q, t.G, [1.0, 0.0], [0.5, 0.5])
        for w in peaks.upper + peaks.lower:
            assert w[0, 0] == pytest.approx(5e99, rel=1e-12)


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

    @pytest.mark.parametrize("q", [1e12, 1e13, 1e15])
    @pytest.mark.parametrize("a", [-0.3, -2.0, 0.5])
    def test_noisy_target_residual_scales_with_the_equation(self, a, q):
        # the residual of a solution this large is about 1e-1 absolute, but
        # 1e-13 of the equation's own terms, about ||Q||
        spec = TargetSpec(id=1, A=a, Q=q, H=1.0, R=1.7)
        ss = steady_states_for(spec)
        assert ss.omega_ss[0, 0] == pytest.approx(scalar_care(a, q, 1.0 / 1.7), rel=1e-10)
        if a < 0:
            assert ss.omega_inf_finite[0, 0] == pytest.approx(q / (-2.0 * a), rel=1e-12)

    def test_target_spec_wrapper(self):
        spec = TargetSpec(id=1, A=TABLE1["A"][0], Q=TABLE1["Q"][0], H=1.0, R=TABLE1["R"][0])
        ss = steady_states_for(spec)
        assert ss.omega_ss[0, 0] == pytest.approx(
            scalar_care(TABLE1["A"][0], TABLE1["Q"][0], 1.0 / TABLE1["R"][0]), rel=1e-10
        )


def drift():
    return st.builds(lambda sign, mag: sign * mag, st.sampled_from([-1.0, 1.0]),
                     st.floats(1e-4, 20.0))


class TestScalarSteadyStateClosedForm:
    """A 1x1 target's steady states are the closed-form roots, never scipy's."""

    @settings(max_examples=300, deadline=None)
    @given(drift(), st.floats(1e-3, 1e2), st.floats(1e-3, 1e2))
    # scipy's own error is largest at this corner: 2.1e-11 relative with the
    # factored observation sqrt(g) used below, 2.3e-10 with b = 1, r = 1/g
    @example(16.0, 1e-3, 1e-3)
    def test_root_is_correct_to_rounding(self, a, q, g):
        w = solve_steady_states([[a]], [[q]], [[g]]).omega_ss[0, 0]
        assert w == pytest.approx(decimal_care(a, q, g), rel=1e-15, abs=0.0)
        scipy_w = scipy.linalg.solve_continuous_are([[a]], [[math.sqrt(g)]], [[q]], [[1.0]])[0, 0]
        assert w == pytest.approx(scipy_w, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("a", [-2.0, -1e-300, 0.0, 0.4, 1e150])
    def test_no_scipy_solver_runs(self, a):
        refuse = mock.Mock(side_effect=AssertionError("scipy solver called"))
        with mock.patch("scipy.linalg.solve_continuous_are", refuse), \
                mock.patch("scipy.linalg.solve_continuous_lyapunov", refuse):
            ss = solve_steady_states([[a]], [[1.3]], [[0.7]], [[1.0]], [[1 / 0.7]])
            steady_states_for(TargetSpec(id=1, A=a, Q=1.3, H=1.0, R=1 / 0.7))
        assert ss.a_is_hurwitz == (a < 0)
        refuse.assert_not_called()

    @pytest.mark.parametrize("a", [1e150, 1e300])
    def test_fast_unstable_drift_is_finite(self, a):
        # scipy raised a bare LinAlgError here, which the CLI took for bad input
        ss = solve_steady_states([[a]], [[1.5]], [[0.5]])
        assert ss.omega_ss[0, 0] == pytest.approx(2.0 * a / 0.5, rel=1e-15)
        assert not ss.a_is_hurwitz
        assert ss.omega_inf_finite is None

    def test_fast_stable_drift_is_finite(self):
        # scipy's residual check failed here ("residual 1.5 above tolerance")
        ss = solve_steady_states([[-1e200]], [[1.5]], [[0.5]])
        assert ss.a_is_hurwitz
        assert ss.omega_ss[0, 0] == pytest.approx(1.5 / 2e200, rel=1e-15)
        assert ss.omega_inf_finite[0, 0] == pytest.approx(1.5 / 2e200, rel=1e-15)

    def test_root_past_double_range_raises(self):
        with pytest.raises(EngineError, match="not finite"):
            solve_steady_states([[1e308]], [[1.0]], [[0.1]])

    @pytest.mark.parametrize("a, q, g", [(-1.0, 1e200, 1e200), (-1e-200, 1e-200, 1e-200),
                                         (1e-200, 1e-250, 1e-150)])
    def test_noise_product_outside_the_normal_range(self, a, q, g):
        # q g overflows or underflows; the root does not
        w = solve_steady_states([[a]], [[q]], [[g]]).omega_ss[0, 0]
        assert w == pytest.approx(decimal_care(a, q, g), rel=1e-15)

    @pytest.mark.parametrize("t_on", [[2.0], [0.5, 1.5], [1e-9, 3.0, 0.0]])
    @pytest.mark.parametrize("a, q, g", [(0.3487, 1.1924, 0.43216), (-0.1, 5.0, 1 / 1.5),
                                         (0.8, 0.05, 2.5)])
    def test_travel_free_orbit_rests_at_the_steady_state(self, a, q, g, t_on):
        # never unobserved, the orbit is the always-observed steady state;
        # its peaks must be the very bits of the revisit floor at gap 0
        w = solve_steady_states([[a]], [[q]], [[g]]).omega_ss[0, 0]
        uppers, lowers, walks = _scalar_periodic_peaks(a, q, g, t_on, [0.0] * len(t_on))
        assert uppers == [w] * len(t_on)
        assert lowers == [w] * len(t_on)
        assert walks == 1


class TestPeriodicSteadyState:
    def test_always_observed_is_steady(self):
        a, q, g = 0.3487, 1.1924, 0.43216
        peaks = periodic_steady_state([[a]], [[q]], [[g]], t_on=[2.0], t_off=[0.0])
        w_ss = scalar_care(a, q, g)
        assert peaks.upper[0][0, 0] == pytest.approx(w_ss, rel=1e-8)
        assert peaks.lower[0][0, 0] == pytest.approx(w_ss, rel=1e-8)

    def test_matches_bisection_oracle(self):
        a, q, g = TABLE1["A"][0], TABLE1["Q"][0], 1.0 / TABLE1["R"][0]
        peaks = tightly_periodic([[a]], [[q]], [[g]], t_on=[1.0], t_off=[1.0], tol=1e-12)
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

    @pytest.mark.parametrize("a, t_on, t_off", [(20.0, 0.5, 18.0), (40.0, 1e-9, 10.0)])
    def test_gap_growth_past_double_range_is_infinite(self, a, t_on, t_off):
        # e^{2 a t_off} passes e^700: the peak is infinite, as the
        # never-observed cost of an unstable target is
        peaks = periodic_steady_state([[a]], [[1.0]], [[1.0]], t_on=[t_on], t_off=[t_off])
        assert peaks.upper[0][0, 0] == math.inf
        # one observed stretch from infinity ends at its flow's finite limit
        u = math.tanh(math.sqrt(a * a + 1.0) * t_on) / math.sqrt(a * a + 1.0)
        assert peaks.lower[0][0, 0] == pytest.approx((1.0 + a * u) / u, rel=1e-12)

    def test_overflowed_gap_leaves_other_peaks_finite(self):
        # only the visit after the overflowing gap peaks at infinity; the
        # other starts from the first visit's finite end
        peaks = periodic_steady_state([[20.0]], [[1.0]], [[1.0]],
                                      t_on=[0.5, 0.5], t_off=[18.0, 0.1])
        assert peaks.upper[1][0, 0] == math.inf
        grown = propagate_unobserved(peaks.lower[1], [[20.0]], [[1.0]], 0.1)
        assert peaks.upper[0][0, 0] == pytest.approx(grown[0, 0], rel=1e-9)

    def test_finite_overflow_still_fails_certificate(self):
        # every gap's growth stays finite (e^696), but the fixed point of a
        # 1e-9 dwell passes double range: the certifying walk must fail
        with pytest.raises(ConvergenceError, match="overflows the double range"):
            periodic_steady_state([[20.0]], [[1.0]], [[1.0]], t_on=[1e-9], t_off=[17.4])

    @pytest.mark.parametrize("dwell", [1e-310, 5e-324])
    def test_subnormal_dwell_overflows(self, dwell):
        # an unstable target observed for a subnormal dwell: the peak is
        # beyond double range, reported as an overflow and not as a NaN
        target = generate_random_instance(5, 1)[0].target(1)
        with pytest.raises(ConvergenceError, match="overflows the double range") as info:
            periodic_steady_state(target.A, target.Q, target.G, t_on=[dwell], t_off=[10.0])
        assert info.value.residual == math.inf


class TestLowerBound:
    def make_target(self, k=0):
        return TargetSpec(id=k + 1, A=TABLE1["A"][k], Q=TABLE1["Q"][k], H=1.0, R=TABLE1["R"][k])

    @pytest.mark.parametrize("name, tid", [("table1", 1), ("duo2x2", 1)])
    def test_zero_gap_is_steady_cost(self, name, tid):
        t = bundled_target(name, tid)
        ss = steady_states_for(t)
        assert lower_bound(t, 0.0, ss.omega_ss) == t.g(cov_norm(ss.omega_ss))

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
        peaks = tightly_periodic(A, Q, G, t_on=[t_on], t_off=[t_off], tol=1e-12)
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
        base = tightly_periodic([[a]], [[q]], [[g]], t_on=[0.4, 0.3], t_off=[0.8, 0.6],
                                tol=1e-13)
        eps = 1e-4
        more_on = tightly_periodic([[a]], [[q]], [[g]], t_on=[0.4 + eps, 0.3],
                                   t_off=[0.8, 0.6], tol=1e-13)
        more_off = tightly_periodic([[a]], [[q]], [[g]], t_on=[0.4, 0.3],
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
