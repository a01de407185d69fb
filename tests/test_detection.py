import math
import re

import numpy as np
import pytest
from scipy import stats as scipy_stats

from nspradar.detection import (
    check_pfa,
    direction_gain,
    noncentrality,
    theoretical_pd,
    theory_snr_gap_db,
)
from nspradar.errors import ConfigurationError
from nspradar.numerics import chi2_central_inv, chi2_noncentral_sf, rng_substream
from nspradar.radar import (
    orthogonal_waveforms,
    steering_vector,
    transmit_receive_matrix,
)
from nspradar.sharing import channel_matrices, null_projectors

import oracles
from oracles import TargetScenario, glrt, synthesize_echo


GRID_HALF_DEG = np.deg2rad(np.arange(-90.0, 90.0 + 0.25, 0.5))
# The threshold at P_FA = 0.1.
THRESHOLD = chi2_central_inv(0.9)


def _h0_statistics(n_trials, seed, m=4, l=16, theta=0.2):
    x = orthogonal_waveforms(m, l)
    scn = TargetScenario(theta=theta, alpha=0.0)
    out = np.empty(n_trials)
    for t in range(n_trials):
        out[t] = glrt(synthesize_echo(scn, x, rng_substream(seed, t)), x, [theta])[0]
    return out


class TestSufficientStatistic:
    """The matched filter E = Y X^H of the orthogonal waveforms."""

    def test_echo_equals_waveform(self):
        x = orthogonal_waveforms(4, 16)
        np.testing.assert_allclose(x @ x.conj().T, np.eye(4), atol=1e-12)

    def test_noiseless_linearity(self):
        x = orthogonal_waveforms(4, 16)
        a = steering_vector(4, 0.4)
        alpha = 0.3 - 1.1j
        y = alpha * transmit_receive_matrix(a) @ x
        expected = alpha * transmit_receive_matrix(a)  # A R_x with R_x = I
        np.testing.assert_allclose(y @ x.conj().T, expected, atol=1e-12)

    def test_noise_only_mean_vanishes(self):
        x = orthogonal_waveforms(4, 16)
        scn = TargetScenario(theta=0.0, alpha=0.0)
        rng = rng_substream(11, 0)
        acc = np.zeros((4, 4), dtype=complex)
        n = 10**4
        for _ in range(n):
            acc += synthesize_echo(scn, x, rng) @ x.conj().T
        # each entry averages CN(0, 1/n); 3-sigma bound on the matrix norm
        assert np.linalg.norm(acc / n) < 3 * math.sqrt(16 / n)


class TestGlrtStatistic:
    """The oracle's GLRT, `oracles.glrt`, at one angle."""

    def test_zero_input(self):
        x = orthogonal_waveforms(4, 16)
        assert glrt(np.zeros((4, 16)), x, [0.1])[0] == 0.0

    def test_noiseless_value_at_true_angle(self):
        # |a^H (alpha A) a*|^2 scaled: 2 |alpha|^2 M^2 / sigma^2
        theta, alpha, m = 0.25, 1.3, 4
        x = orthogonal_waveforms(m, 16)
        y = alpha * transmit_receive_matrix(steering_vector(m, theta)) @ x
        assert abs(glrt(y, x, [theta])[0] - 2 * alpha**2 * m**2) < 1e-9

    def test_degenerate_direction(self):
        # X_tx = 0: R = 0, so every angle is below the gain floor.
        assert glrt(orthogonal_waveforms(4, 16), np.zeros((4, 16)), [0.1]) == (0.0, 0.1, True)

    def test_h0_law_is_chi2_with_2_dof(self):
        stats = _h0_statistics(20000, seed=21)
        ks = scipy_stats.kstest(stats, scipy_stats.chi2(2).cdf)
        assert ks.statistic < 0.02

    def test_h1_mean_matches_calibrated_noncentrality(self):
        theta, snr, l = 0.2, 1.0, 16
        x = orthogonal_waveforms(4, l)
        a = steering_vector(4, theta)
        rho = noncentrality("calibrated", 4, snr, direction_gain(a, np.eye(4)))
        scn = TargetScenario(theta=theta, alpha=math.sqrt(snr))
        vals = [glrt(synthesize_echo(scn, x, rng_substream(22, t)), x, [theta])[0]
                for t in range(5000)]
        assert abs(np.mean(vals) - (2 + rho)) < 0.02 * (2 + rho)


class TestGlrtScan:
    """The oracle's GLRT, `oracles.glrt`, maximized over an angle grid."""

    def test_noiseless_argmax_recovers_angle(self):
        theta = math.radians(10)
        x = orthogonal_waveforms(4, 16)
        y = 2.0 * transmit_receive_matrix(steering_vector(4, theta)) @ x
        statistic, theta_ml, degenerate = glrt(y, x, GRID_HALF_DEG)
        assert abs(math.degrees(theta_ml) - 10.0) < 1e-9
        assert statistic > THRESHOLD and not degenerate

    def test_zero_correlation_forces_h0(self):
        statistic, _, degenerate = glrt(orthogonal_waveforms(4, 16), np.zeros((4, 16)),
                                        GRID_HALF_DEG)
        assert degenerate and statistic == 0.0

    def test_false_alarm_rate_at_fixed_angle(self):
        stats = _h0_statistics(10000, seed=23)
        fa = np.mean(stats > THRESHOLD)
        assert abs(fa - 0.1) < 0.01

    def test_scan_maximum_inflates_false_alarms(self):
        # Maximizing over the angle grid takes the max of many correlated
        # chi-squared variables, so the pointwise threshold under-delivers;
        # quantified here rather than hidden.
        x = orthogonal_waveforms(4, 16)
        grid = np.deg2rad(np.arange(-90, 91, 2.0))
        scn = TargetScenario(theta=0.0, alpha=0.0)
        n = 1000
        hits = sum(glrt(synthesize_echo(scn, x, rng_substream(24, t)), x, grid)[0] > THRESHOLD
                   for t in range(n))
        assert hits / n > 0.1

    def test_argmax_localization_at_high_snr(self):
        theta = math.radians(10)
        x = orthogonal_waveforms(8, 16)
        snr = 1.0  # calibrated noncentrality 2*M^2 = 128 >= 100
        scn = TargetScenario(theta=theta, alpha=math.sqrt(snr))
        hits = 0
        n = 300
        for t in range(n):
            theta_ml = glrt(synthesize_echo(scn, x, rng_substream(25, t)), x, GRID_HALF_DEG)[1]
            # noise still perturbs the argmax by a grid step or two, so
            # require localization within a degree of the true angle
            hits += abs(math.degrees(theta_ml) - 10.0) <= 1.0
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


class TestCheckPfa:
    """One P_FA rule for the plan and the theory: the threshold at 1 - pfa
    is finite."""

    BAD = [1e-17, 2.0**-54, 0.0, 1.0, -0.1, float("nan")]

    @staticmethod
    def _message(pfa):
        return re.escape("pfa must lie in (2 ** -54, 1)") + ".*" + re.escape(f"got {pfa}")

    @pytest.mark.parametrize("pfa", BAD)
    def test_check_pfa_rejects(self, pfa):
        with pytest.raises(ConfigurationError, match=self._message(pfa)):
            check_pfa(pfa)

    @pytest.mark.parametrize("pfa", BAD)
    def test_theoretical_pd_rejects(self, pfa):
        # 1e-17 used to fail in the quantile with "p must lie in [0, 1),
        # got 1.0", naming neither P_FA nor the bound.
        with pytest.raises(ConfigurationError, match=self._message(pfa)):
            theoretical_pd(1.0, pfa)

    def test_accepts_the_next_value_above_the_bound(self):
        pfa = float(np.nextafter(2.0**-54, 1))
        check_pfa(pfa)
        assert chi2_central_inv(1 - pfa) < 76
        # 1 - pfa rounds to 1 - 2 ** -53, so the threshold's rate is 2 ** -53.
        assert theoretical_pd(0.0, pfa) == pytest.approx(2.0**-53, rel=1e-12, abs=0)


class TestTheoreticalPd:
    def test_zero_noncentrality_collapses_to_pfa(self):
        for pfa in (0.1, 1e-3, 1e-5):
            assert abs(theoretical_pd(0.0, pfa) - pfa) < 1e-12

    def test_pinned_by_quadrature(self):
        got = theoretical_pd(16.0, 0.1)
        want = oracles.noncentral_sf_quadrature(chi2_central_inv(0.9), 16.0)
        assert abs(got - want) < 1e-8
        assert got > 0.97

    @pytest.mark.parametrize("pfa", [0.5, 1e-3, 1e-7, 6e-17])
    def test_one_where_the_survival_function_fails(self, pfa):
        # The survival function returns nan from rho ~ 1e19; P_D is 1 to
        # double precision long before, and no value below 2 ** 62 changes.
        rho = np.array([2.0**62, 1e20, 1e300, np.inf])
        assert theoretical_pd(rho, pfa).tolist() == [1.0] * 4
        below = np.array([0.0, 1.0, 1e3, 1e18, np.nextafter(2.0**62, 0)])
        want = chi2_noncentral_sf(chi2_central_inv(1 - pfa), below)
        assert theoretical_pd(below, pfa).tobytes() == want.tobytes()

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
