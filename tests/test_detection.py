import math
import re

import numpy as np
import pytest
from scipy import stats as scipy_stats

from nspradar.detection import (
    PD_SATURATION_MARGIN,
    check_pfa,
    direction_gain,
    noncentrality,
    theoretical_pd,
    threshold_pd,
    theory_snr_gap_db,
)
from nspradar.errors import ConfigurationError
from nspradar.numerics import chi2_central_inv, chi2_noncentral_sf, rng_substream
from nspradar.radar import (
    steering_vector,
    transmit_receive_matrix,
)
from nspradar.sharing import channel_matrices, null_projectors

import oracles
from oracles import TargetScenario, glrt, orthogonal_waveforms, synthesize_echo


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

    def test_one_near_pfa_one(self):
        # At P_FA = 1 - 1e-9 the survival function raises OverflowError from
        # boost's tgamma from rho ~ 400, and at rho ~ 1e12 runs for minutes;
        # both cells are saturated and read 1.0 unevaluated.
        t = -2 * math.log(1 - 1e-9)
        with pytest.raises(OverflowError):
            oracles.threshold_pd_reference(t, 1e3)
        assert threshold_pd(t, np.array([1e3, 1e12])).tolist() == [1.0, 1.0]
        assert theoretical_pd(1e12, 0.999999999) == 1.0

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


class TestSaturation:
    """`threshold_pd` skips the survival function where sqrt(rho) -
    sqrt(threshold) >= PD_SATURATION_MARGIN; everywhere else, and wherever
    the survival function itself returns a value, it is that function's
    value bit for bit (`oracles.threshold_pd_reference`)."""

    # Every P_FA the plan accepts, from just above 2 ** -54 to 1 - 2 ** -53.
    PFAS = [float(np.nextafter(2.0**-54, 1)), *np.logspace(-16, -1, 31).tolist(),
            0.5, 0.9, 1 - 1e-4, 1 - 1e-6, 1 - 1e-7, 1 - 1e-8, 1 - 1e-9, 1 - 1e-12,
            float(np.nextafter(1.0, 0))]
    # At thresholds below 1e-7 (P_FA above 1 - 5e-8) the survival function
    # overflows at large rho: at once up to rho = 1e5, after seconds to
    # minutes beyond (1e12 takes minutes), so the reference is not run there.
    SLOW_BELOW = 1e-7
    FAST_RHO = 1e5

    def _rho(self, t):
        margin = math.sqrt(t) + PD_SATURATION_MARGIN
        edge = margin**2
        return np.unique(np.concatenate([
            [0.0, 1e300, np.inf],
            np.logspace(-6, 300, 307),
            (margin + np.linspace(-1, 1, 401)) ** 2,
            [np.nextafter(edge, 0), edge, np.nextafter(edge, np.inf)],
        ]))

    def test_bit_equal_to_the_survival_function(self):
        evaluated = saturated = 0
        for pfa in self.PFAS:
            t = chi2_central_inv(1 - pfa)
            rho = self._rho(t)
            got = threshold_pd(t, rho)
            assert got.dtype == np.float64 and got.shape == rho.shape
            gap = np.sqrt(rho) - math.sqrt(t)
            # Saturated cells read exactly 1.0.
            assert (got[gap >= PD_SATURATION_MARGIN] == 1.0).all()
            checked = rho <= self.FAST_RHO if t < self.SLOW_BELOW else np.ones(rho.shape, bool)
            for r, g in zip(rho[checked], got[checked]):
                try:
                    want = oracles.threshold_pd_reference(t, r)
                except OverflowError:
                    assert g == 1.0, (pfa, r)
                    saturated += 1
                    continue
                assert np.float64(g).tobytes() == np.float64(want).tobytes(), (pfa, r, g, want)
                evaluated += 1
            # Beyond FAST_RHO at the smallest thresholds every cell is
            # saturated: 1e5 is far past (sqrt(t) + 9) ** 2.
            assert (got[~checked] == 1.0).all()
        assert evaluated > 20000 and saturated > 0

    def test_the_bound_holds_where_the_cdf_is_representable(self):
        # The constant rests on 1 - Q1(a, b) <= exp(-(a - b) ** 2 / 2) / 2
        # for a > b; check it against scipy's CDF at margins 0.5 to 8.
        for t in (1e-9, 0.2, 13.8, 75.0):
            for margin in np.linspace(0.5, 8.0, 16):
                rho = (math.sqrt(t) + margin) ** 2
                cdf = scipy_stats.ncx2.cdf(t, 2, rho)
                assert cdf <= 0.5 * math.exp(-margin**2 / 2) * (1 + 1e-9), (t, margin)
        assert 0.5 * math.exp(-PD_SATURATION_MARGIN**2 / 2) < 2.0**-56

    def test_scalar_in_scalar_out(self):
        assert threshold_pd(THRESHOLD, 16.0) == chi2_noncentral_sf(THRESHOLD, 16.0)
        assert isinstance(threshold_pd(THRESHOLD, 16.0), float)
        assert isinstance(threshold_pd(THRESHOLD, 1e6), float)

    def test_broadcasts_thresholds_against_rho(self):
        t = np.array([[chi2_central_inv(1 - p)] for p in (0.5, 1e-3, 1e-7, 1 - 1e-9)])
        rho = np.array([0.0, 4.0, 40.0, 400.0, 1e6])
        got = threshold_pd(t, rho)
        assert got.shape == (4, 5)
        for i in range(4):
            assert got[i].tobytes() == threshold_pd(t[i, 0], rho).tobytes()

    @pytest.mark.parametrize("threshold, rho", [
        (1.0, np.nan), (1.0, -1.0), (1.0, -np.inf), (-1.0, 1e6), (np.inf, 1e6),
        (np.inf, np.inf), (np.nan, 1e6), (1.0, np.array([1e6, np.nan])),
        (np.array([1.0, -1.0]), 1e6),
    ])
    def test_domain_errors_before_the_mask(self, threshold, rho):
        # With the mask taken before the domain checks, sqrt(rho) -
        # sqrt(threshold) is nan on all of these but (inf, 1e6), which fails
        # the comparison, so they would read 1.0 unevaluated.
        with pytest.raises(ValueError, match="must be"):
            threshold_pd(threshold, rho)
