"""GLRT detector quantities: the P_FA rule, direction gains, noncentralities,
theoretical detection probabilities and SNR gaps.

The GLRT statistic 2 |a^H E a^*|^2 / (M a^H R^T a) on E = Y X_tx^H,
maximized over an angle grid, is evaluated by `montecarlo._PointEngine`
alone; detection at a known target angle is the scan over the one-angle
grid."""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .numerics import chi2_central_inv, chi2_noncentral_sf, noncentral_sf_domain

# A steering direction whose direction gain a^H R^T a falls below this
# fraction of the orthogonal value M is treated as lying in the projector's
# kernel.
GAIN_FLOOR_FRAC = 1e-10

# P_D = Q1(a, b), a = sqrt(rho), b = sqrt(threshold), is 1.0 in double
# precision where a - b >= PD_SATURATION_MARGIN.  For a > b the CDF
# 1 - Q1(a, b) is at most exp(-(a - b)^2 / 2) / 2 (Simon and Alouini,
# "Exponential-type bounds on the generalized Marcum Q-function with
# application to error probability analysis over fading channels", IEEE
# Trans. Commun. 48(3), 2000).  At a margin of 9 that is exp(-40.5) / 2,
# about 1.3e-18, below 2 ** -56: a quarter of the 2 ** -54 below which
# 1 - CDF rounds to 1.0, which leaves 4x room for the survival function's
# own term errors.
PD_SATURATION_MARGIN = 9.0


def check_pfa(pfa: float, field: str | None = None) -> None:
    """Raise ConfigurationError, naming the plan `field` that holds pfa if
    given, unless 0 < pfa < 1 and 1 - pfa < 1, the P_FA values whose
    threshold, the chi-squared quantile at 1 - pfa, is finite: pfa in
    (2 ** -54, 1)."""
    if not (0 < pfa < 1 and 1 - pfa < 1):
        raise ConfigurationError(
            f"pfa must lie in (2 ** -54, 1) so that 1 - pfa < 1 (2 ** -54 is "
            f"about 5.6e-17), got {pfa}", field)


def direction_gain(a: np.ndarray, r: np.ndarray):
    """Quadratic form a^H R^T a of the waveform correlation along a steering
    direction; real-valued for Hermitian R, equals M for orthogonal waveforms.

    A (..., M, M) stack of correlations gives an array of shape (...).
    It is evaluated as a^T (R a^*), one matrix-vector product per matrix,
    so a row's value does not depend on the size of its stack.  The array
    owns its memory: a caller that keeps it does not keep the complex sum
    of twice its size that its values come from.
    """
    return projected_gain(a, r @ a.conj())


def projected_gain(a: np.ndarray, v: np.ndarray):
    """The direction gain a^T v of a correlation R from v = R a^*, shaped
    (..., M); `direction_gain` is this of R a^*.  The engine
    (`montecarlo._PointEngine`) forms v = P a^* once per set-up, as its
    at-angle noise coefficients, and reads both detectors' target gains
    from it."""
    gain = np.sum(a * v, axis=-1).real.copy()
    return float(gain) if gain.ndim == 0 else gain


def noncentrality(convention: str, m: int, snr, gain, orthogonal=False):
    """Noncentrality of the scaled GLRT statistic at the true angle, for
    SNR |alpha|^2 (unit noise variance) and direction gain c = a^H R^T a;
    broadcasts over arrays.

    "calibrated" is 2 SNR M c, derived from the statistic's actual moments:
    the law the simulated statistic follows.  "paper" is the published
    formula: SNR M^2 where `orthogonal` is true (the unprojected waveform)
    and SNR c^2 elsewhere.  The two coincide only for the identity
    correlation, up to a factor of two.  Either is snr times its value at
    snr = 1, bit for bit, which `montecarlo._mean_theory_pd` relies on.
    """
    if convention == "calibrated":
        return snr * (2.0 * m * gain)
    if convention == "paper":
        return snr * np.where(orthogonal, float(m * m), gain ** 2)
    raise ValueError(f"unknown noncentrality convention {convention!r}; "
                     f"choose from ['calibrated', 'paper']")


def theoretical_pd(rho: float, pfa: float) -> float:
    """P_D = 1 - F_{chi2_2(rho)}( F^-1_{chi2_2}(1 - pfa) )."""
    check_pfa(pfa)
    return threshold_pd(chi2_central_inv(1.0 - pfa), rho)


def threshold_pd(threshold, rho):
    """P_D = 1 - F_{chi2_2(rho)}(threshold), `theoretical_pd` at the
    threshold of its P_FA; broadcasts, so that one call covers several
    thresholds.

    P_D is the Marcum Q function Q1(sqrt(rho), sqrt(threshold)), and a cell
    with sqrt(rho) - sqrt(threshold) >= PD_SATURATION_MARGIN reads exactly
    1.0 without evaluating the survival function, whose value there is 1.0
    too (the bound is derived at the constant; tests/test_detection.py
    checks the equality against the installed scipy).  The other cells are
    evaluated in one call, on the compressed (threshold, rho) pairs.  The
    domain checks of `numerics.chi2_noncentral_sf` run on every cell
    first: a NaN rho fails every comparison, and would otherwise read 1.0.
    """
    threshold, rho = noncentral_sf_domain(threshold, rho)
    live = np.sqrt(rho) - np.sqrt(threshold) < PD_SATURATION_MARGIN
    pd = np.ones(live.shape)
    threshold, rho = np.broadcast_arrays(threshold, rho)
    # The survival function returns nan from rho ~ 1e19, which a live cell
    # reaches only at a threshold of about 1e19; it reads the value at
    # rho = 2 ** 62 there.
    pd[live] = chi2_noncentral_sf(threshold[live], np.minimum(rho[live], 2.0**62))
    return float(pd) if pd.ndim == 0 else pd


def theory_snr_gap_db(m: int, gain: float, convention: str = "calibrated") -> float:
    """Extra SNR (dB) a projected waveform needs to match the orthogonal one,
    given the direction gain c = a^H R^T a of the projected correlation.

    Equal detection probability means equal noncentrality, so the gap is
    10 log10(M/c) under the calibrated law and 20 log10(M/c) under the
    published formulas.
    """
    factors = {"calibrated": 10.0, "paper": 20.0}
    if convention not in factors:
        raise ValueError(f"unknown convention {convention!r}; choose from {list(factors)}")
    bad = np.asarray(gain)[np.asarray(gain) <= 0]
    if bad.size:
        more = f" and {bad.size - 1} more" if bad.size > 1 else ""
        raise ValueError(f"direction gain must be positive, got {float(bad[0])!r}{more}")
    return factors[convention] * np.log10(m / gain)
