"""GLRT detector: matched-filter sufficient statistic, the calibrated test
statistic maximized over an angle grid, thresholds and theoretical
detection probabilities.

Detection at a known target angle is the scan over the one-angle grid."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .numerics import chi2_central_inv, chi2_noncentral_sf
from .radar import steering_vector

# A steering direction whose direction gain a^H R^T a falls below this
# fraction of the orthogonal value M is treated as lying in the projector's
# kernel.
GAIN_FLOOR_FRAC = 1e-10


@dataclass(frozen=True)
class DetectorConfig:
    pfa: float
    theta_grid: np.ndarray

    def __post_init__(self):
        if not 0 < self.pfa < 1:
            raise ConfigurationError(f"pfa must lie in (0, 1), got {self.pfa}")
        g = np.asarray(self.theta_grid, dtype=float)
        if g.size == 0:
            raise ConfigurationError("theta grid must be non-empty")
        if np.any(np.diff(g) < 0):
            raise ConfigurationError("theta grid must be sorted ascending")
        if np.any(np.abs(g) > np.pi / 2 + 1e-12):
            raise ConfigurationError("theta grid must lie within [-pi/2, pi/2]")
        object.__setattr__(self, "theta_grid", g)


@dataclass(frozen=True)
class GlrtResult:
    statistic: float
    theta_ml: float
    detected: bool
    threshold: float
    degenerate: bool = False


def sufficient_statistic(y: np.ndarray, x_tx: np.ndarray) -> np.ndarray:
    """Matched-filter matrix E = sum_n y[n] x_tx[n]^H.

    For null-space projected transmissions x_tx is the projected waveform.
    """
    if y.shape != x_tx.shape:
        raise ConfigurationError(f"shape mismatch: {y.shape} vs {x_tx.shape}")
    return y @ x_tx.conj().T


def direction_gain(a: np.ndarray, r: np.ndarray):
    """Quadratic form a^H R^T a of the waveform correlation along a steering
    direction; real-valued for Hermitian R, equals M for orthogonal waveforms.

    A (..., M, M) stack of correlations gives an array of shape (...).
    It is evaluated as a^T (R a^*), one matrix-vector product per matrix,
    so a row's value does not depend on the size of its stack.  The array
    owns its memory: a caller that keeps it does not keep the complex sum
    of twice its size that its values come from.
    """
    gain = np.sum(a * (r @ a.conj()), axis=-1).real.copy()
    return float(gain) if gain.ndim == 0 else gain


def glrt_scan(e: np.ndarray, r: np.ndarray, cfg: DetectorConfig) -> GlrtResult:
    """Maximize the scaled GLRT ratio 2 |a^H E a*|^2 / (M a^H R^T a) over the
    angle grid and threshold it; M is the size of the M x M correlation R.

    With unit noise variance the statistic at each angle is exactly
    chi-squared with two degrees of freedom under the target-absent
    hypothesis.  Degenerate grid points (direction gain below the floor) are
    skipped; an entirely degenerate grid yields a forced target-absent
    decision with statistic 0 and the degeneracy flag set.
    """
    threshold = chi2_central_inv(1.0 - cfg.pfa)
    grid = cfg.theta_grid
    m = len(r)
    a_grid = steering_vector(m, grid)  # M x G
    denom = np.real(np.einsum("mg,mn,ng->g", a_grid.conj(), r.T, a_grid))
    valid = denom >= GAIN_FLOOR_FRAC * m
    if not np.any(valid):
        return GlrtResult(
            statistic=0.0, theta_ml=float(grid[0]), detected=False,
            threshold=threshold, degenerate=True,
        )
    num = np.abs(np.einsum("mg,mn,ng->g", a_grid.conj(), e, a_grid.conj())) ** 2
    stats = np.full(grid.size, -np.inf)
    stats[valid] = 2.0 * num[valid] / (m * denom[valid])
    best = int(np.argmax(stats))  # ties resolve to the smaller angle
    return GlrtResult(
        statistic=float(stats[best]),
        theta_ml=float(grid[best]),
        detected=bool(stats[best] > threshold),
        threshold=threshold,
    )


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
    if not 0 < pfa < 1:
        raise ValueError(f"pfa must lie in (0, 1), got {pfa}")
    return chi2_noncentral_sf(chi2_central_inv(1.0 - pfa), rho)


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
