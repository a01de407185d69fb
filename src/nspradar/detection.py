"""GLRT detector quantities: the P_FA rule, direction gains, noncentralities,
theoretical detection probabilities and SNR gaps.

The GLRT statistic 2 |a^H E a^*|^2 / (M a^H R^T a) on E = Y X_tx^H,
maximized over an angle grid, is evaluated by `montecarlo._PointEngine`
alone; detection at a known target angle is the scan over the one-angle
grid."""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .numerics import chi2_central_inv, chi2_noncentral_sf

# A steering direction whose direction gain a^H R^T a falls below this
# fraction of the orthogonal value M is treated as lying in the projector's
# kernel.
GAIN_FLOOR_FRAC = 1e-10


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
    (..., M); `direction_gain` is this of R a^*.  With R = P a null-space
    projector, v is P a^* (`sharing.null_projections`), so the gain is
    read without forming P."""
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
    correlation, up to a factor of two.
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
    # The survival function returns nan from rho ~ 1e19, but reads exactly 1
    # at rho = 2 ** 62 for every threshold up to 1490 (a pfa of 1e-300; a pfa
    # just above 2 ** -54 gives 75): P_D is 1 to double precision there.
    return chi2_noncentral_sf(chi2_central_inv(1.0 - pfa), np.minimum(rho, 2.0**62))


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
