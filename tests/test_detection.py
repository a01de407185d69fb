import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from nspradar.detection import (
    DetectorConfig,
    direction_gain,
    glrt_scan,
    noncentrality,
    sufficient_statistic,
    theoretical_pd,
    theory_snr_gap_db,
)
from nspradar.errors import ConfigurationError
from nspradar.numerics import chi2_central_inv, rng_substream
from nspradar.radar import (
    orthogonal_waveforms,
    steering_vector,
    transmit_receive_matrix,
)
from nspradar.sharing import channel_matrices, null_projectors

import oracles
from oracles import TargetScenario, synthesize_echo


GRID_HALF_DEG = np.deg2rad(np.arange(-90.0, 90.0 + 0.25, 0.5))


def _one_angle(theta):
    """The detector at a known angle: the scan over the one-angle grid."""
    return DetectorConfig(pfa=0.1, theta_grid=np.array([theta]))


def _h0_statistics(n_trials, seed, m=4, l=16, theta=0.2):
    x = orthogonal_waveforms(m, l)
    r = np.eye(m, dtype=complex)
    scn = TargetScenario(theta=theta, alpha=0.0)
    out = np.empty(n_trials)
    for t in range(n_trials):
        y = synthesize_echo(scn, x, rng_substream(seed, t))
        out[t] = glrt_scan(sufficient_statistic(y, x), r, _one_angle(theta)).statistic
    return out


class TestSufficientStatistic:
    def test_echo_equals_waveform(self):
        x = orthogonal_waveforms(4, 16)
        np.testing.assert_allclose(sufficient_statistic(x, x), np.eye(4), atol=1e-12)

    def test_noiseless_linearity(self):
        x = orthogonal_waveforms(4, 16)
        a = steering_vector(4, 0.4)
        alpha = 0.3 - 1.1j
        y = alpha * transmit_receive_matrix(a) @ x
        expected = alpha * transmit_receive_matrix(a)  # A R_x with R_x = I
        np.testing.assert_allclose(sufficient_statistic(y, x), expected, atol=1e-12)

    def test_noise_only_mean_vanishes(self):
        x = orthogonal_waveforms(4, 16)
        scn = TargetScenario(theta=0.0, alpha=0.0)
        rng = rng_substream(11, 0)
        acc = np.zeros((4, 4), dtype=complex)
        n = 10**4
        for _ in range(n):
            acc += sufficient_statistic(synthesize_echo(scn, x, rng), x)
        # each entry averages CN(0, 1/n); 3-sigma bound on the matrix norm
        assert np.linalg.norm(acc / n) < 3 * math.sqrt(16 / n)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            sufficient_statistic(np.zeros((4, 8)), np.zeros((4, 16)))


class TestGlrtStatistic:
    def test_zero_input(self):
        r = np.eye(4, dtype=complex)
        assert glrt_scan(np.zeros((4, 4)), r, _one_angle(0.1)).statistic == 0.0

    def test_noiseless_value_at_true_angle(self):
        # |a^H (alpha A) a*|^2 scaled: 2 |alpha|^2 M^2 / sigma^2
        theta, alpha, m = 0.25, 1.3, 4
        a = steering_vector(4, theta)
        e = alpha * transmit_receive_matrix(a)  # noiseless E for R = I
        r = np.eye(m, dtype=complex)
        got = glrt_scan(e, r, _one_angle(theta)).statistic
        assert abs(got - 2 * alpha**2 * m**2) < 1e-9

    def test_degenerate_direction(self):
        res = glrt_scan(np.eye(4), np.zeros((4, 4)), _one_angle(0.1))
        assert res.degenerate
        assert res.statistic == 0.0
        assert not res.detected

    def test_h0_law_is_chi2_with_2_dof(self):
        stats = _h0_statistics(20000, seed=21)
        ks = scipy_stats.kstest(stats, scipy_stats.chi2(2).cdf)
        assert ks.statistic < 0.02

    def test_h1_mean_matches_calibrated_noncentrality(self):
        theta, snr, l = 0.2, 1.0, 16
        x = orthogonal_waveforms(4, l)
        r = np.eye(4, dtype=complex)
        a = steering_vector(4, theta)
        rho = noncentrality("calibrated", 4, snr, direction_gain(a, r))
        scn = TargetScenario(theta=theta, alpha=math.sqrt(snr))
        vals = []
        for t in range(5000):
            y = synthesize_echo(scn, x, rng_substream(22, t))
            vals.append(glrt_scan(sufficient_statistic(y, x), r, _one_angle(theta)).statistic)
        assert abs(np.mean(vals) - (2 + rho)) < 0.02 * (2 + rho)


class TestGlrtScan:
    def test_noiseless_argmax_recovers_angle(self):
        theta = math.radians(10)
        x = orthogonal_waveforms(4, 16)
        a = steering_vector(4, theta)
        e = 2.0 * transmit_receive_matrix(a)
        cfg = DetectorConfig(pfa=0.1, theta_grid=GRID_HALF_DEG)
        res = glrt_scan(e, np.eye(4, dtype=complex), cfg)
        assert abs(math.degrees(res.theta_ml) - 10.0) < 1e-9
        assert res.detected

    def test_zero_correlation_forces_h0(self):
        cfg = DetectorConfig(pfa=0.1, theta_grid=GRID_HALF_DEG)
        res = glrt_scan(np.eye(4), np.zeros((4, 4)), cfg)
        assert res.degenerate
        assert not res.detected

    def test_false_alarm_rate_at_fixed_angle(self):
        stats = _h0_statistics(10000, seed=23)
        delta = chi2_central_inv(1 - 0.1)
        fa = np.mean(stats > delta)
        assert abs(fa - 0.1) < 0.01

    def test_scan_maximum_inflates_false_alarms(self):
        # Maximizing over the angle grid takes the max of many correlated
        # chi-squared variables, so the pointwise threshold under-delivers;
        # quantified here rather than hidden.
        x = orthogonal_waveforms(4, 16)
        r = np.eye(4, dtype=complex)
        cfg = DetectorConfig(pfa=0.1, theta_grid=np.deg2rad(np.arange(-90, 91, 2.0)))
        scn = TargetScenario(theta=0.0, alpha=0.0)
        hits = 0
        n = 1000
        for t in range(n):
            y = synthesize_echo(scn, x, rng_substream(24, t))
            res = glrt_scan(sufficient_statistic(y, x), r, cfg)
            hits += res.detected
        assert hits / n > 0.1

    def test_argmax_localization_at_high_snr(self):
        theta = math.radians(10)
        x = orthogonal_waveforms(8, 16)
        r = np.eye(8, dtype=complex)
        snr = 1.0  # calibrated noncentrality 2*M^2 = 128 >= 100
        scn = TargetScenario(theta=theta, alpha=math.sqrt(snr))
        cfg = DetectorConfig(pfa=0.1, theta_grid=GRID_HALF_DEG)
        hits = 0
        n = 300
        for t in range(n):
            y = synthesize_echo(scn, x, rng_substream(25, t))
            res = glrt_scan(sufficient_statistic(y, x), r, cfg)
            # noise still perturbs the argmax by a grid step or two, so
            # require localization within a degree of the true angle
            hits += abs(math.degrees(res.theta_ml) - 10.0) <= 1.0
        assert hits / n >= 0.99


class TestDirectionGain:
    @pytest.mark.parametrize("m", [4, 8])
    def test_row_does_not_depend_on_stack_size(self, m):
        # Each row's bits are the same alone, in a one-row stack and in the
        # 64-row stack, and equal the quadratic form to rounding.
        rng = np.random.default_rng(m)
        z = rng.standard_normal((64, m, m)) + 1j * rng.standard_normal((64, m, m))
        r = z @ np.swapaxes(z.conj(), -1, -2)
        a = steering_vector(m, 0.3)
        stack = direction_gain(a, r)
        assert stack.shape == (64,)
        for i in range(64):
            assert direction_gain(a, r[i:i + 1]).tobytes() == stack[i:i + 1].tobytes()
            assert direction_gain(a, r[i]) == stack[i]
            assert direction_gain(a, r[i]) == pytest.approx(
                np.real(a.conj() @ r[i].T @ a), rel=1e-12)

    def test_column_of_a_mode_stack_matches_its_own_call(self):
        # A (C, modes, M, M) stack in one call gives each column's bits, in
        # a real array of its own rather than a view of the complex sum.
        rng = np.random.default_rng(7)
        z = rng.standard_normal((390, 7, 4, 4)) + 1j * rng.standard_normal((390, 7, 4, 4))
        r = z @ np.swapaxes(z.conj(), -1, -2)
        a = steering_vector(4, 0.3)
        stack = direction_gain(a, r)
        assert stack.shape == (390, 7) and stack.dtype == float and stack.base is None
        for mi in range(7):
            assert direction_gain(a, r[:, mi]).tobytes() == stack[:, mi].copy().tobytes()


class TestNoncentralities:
    def test_orthogonal_values(self):
        assert noncentrality("paper", 4, 1.0, 4.0, orthogonal=True) == 16.0
        assert noncentrality("paper", 8, 1.0, 8.0, orthogonal=True) == 64.0
        assert noncentrality("paper", 8, 0.0, 8.0, orthogonal=True) == 0.0

    def test_nsp_identity_matches_orthogonal(self):
        a = steering_vector(4, 0.3)
        snr = 2.0 / 0.5
        got = noncentrality("paper", 4, snr, direction_gain(a, np.eye(4, dtype=complex)))
        assert abs(got - noncentrality("paper", 4, snr, 4.0, orthogonal=True)) < 1e-9

    def test_nsp_zero_correlation(self):
        a = steering_vector(4, 0.3)
        assert noncentrality("paper", 4, 1.0, direction_gain(a, np.zeros((4, 4)))) == 0.0

    def test_nsp_bounded_by_orthogonal(self):
        theta = math.radians(10)
        a = steering_vector(8, theta)
        x = orthogonal_waveforms(8, 64)
        h = channel_matrices([rng_substream(26, 0)], 1, 2, 8)[0, 0]
        corr = oracles.waveform_correlation(null_projectors(h)[0] @ x)
        # direct matrix evaluation oracle
        direct = abs(sum(
            a[i].conjugate() * corr.T[i, j] * a[j]
            for i in range(8) for j in range(8)
        )) ** 2
        got = noncentrality("paper", 8, 1.0, direction_gain(a, corr))
        assert abs(got - direct) < 1e-8 * max(1.0, direct)
        assert got <= noncentrality("paper", 8, 1.0, 8.0, orthogonal=True) + 1e-9
        cal_nsp = noncentrality("calibrated", 8, 1.0, direction_gain(a, corr))
        cal_orth = noncentrality("calibrated", 8, 1.0,
                                 direction_gain(a, np.eye(8, dtype=complex)))
        assert cal_nsp <= cal_orth + 1e-9

    def test_calibrated_identity_case(self):
        a = steering_vector(4, 0.3)
        got = noncentrality("calibrated", 4, 1.5 / 0.5,
                            direction_gain(a, np.eye(4, dtype=complex)))
        assert abs(got - 2 * 1.5 * 16 / 0.5) < 1e-9

    def test_paper_convention_per_mode_on_stacks(self):
        # The orthogonal mode keeps the published M^2 even where the
        # computed gain a^H a is not exactly M; the other modes use c^2.
        gain = np.array([[4.0 - 4e-16, 2.5], [3.0, 1.0]])
        got = noncentrality("paper", 4, np.array([[1.0], [2.0]]), gain,
                            orthogonal=np.array([True, False]))
        np.testing.assert_array_equal(got, [[16.0, 6.25], [32.0, 2.0]])
        np.testing.assert_array_equal(
            noncentrality("calibrated", 4, 2.0, gain), 16.0 * gain)

    def test_unknown_convention(self):
        with pytest.raises(ValueError, match=r"'published'.*\['calibrated', 'paper'\]"):
            noncentrality("published", 4, 1.0, 4.0)


class TestTheoreticalPd:
    def test_zero_noncentrality_collapses_to_pfa(self):
        for pfa in (0.1, 1e-3, 1e-5):
            assert abs(theoretical_pd(0.0, pfa) - pfa) < 1e-12

    def test_pinned_by_quadrature(self):
        got = theoretical_pd(16.0, 0.1)
        want = oracles.noncentral_sf_quadrature(chi2_central_inv(0.9), 16.0)
        assert abs(got - want) < 1e-8
        assert got > 0.97

    def test_monotone_in_noncentrality(self):
        vals = [theoretical_pd(r, 1e-3) for r in np.linspace(0, 60, 25)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(v >= 1e-3 - 1e-12 for v in vals)

    def test_gap_conventions(self):
        assert abs(theory_snr_gap_db(4, 2.0, "calibrated") - 10 * math.log10(2)) < 1e-12
        assert abs(theory_snr_gap_db(4, 2.0, "paper") - 20 * math.log10(2)) < 1e-12

    def test_gap_unknown_convention_names_the_choices(self):
        with pytest.raises(ValueError, match=r"'bogus'.*\['calibrated', 'paper'\]"):
            theory_snr_gap_db(4, 2.0, "bogus")

    @pytest.mark.parametrize("gain, message", [
        (0.0, "got 0.0$"),
        (-1.5, "got -1.5$"),
        (np.array([2.0, 0.0, 3.0, -1e-17]), "got 0.0 and 1 more$"),
    ])
    def test_gap_nonpositive_gain_is_named(self, gain, message):
        with pytest.raises(ValueError, match="direction gain must be positive, " + message):
            theory_snr_gap_db(4, gain)
