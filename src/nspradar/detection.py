"""GLRT detector: matched-filter sufficient statistic, calibrated test
statistic, angle scan, thresholds and theoretical detection probabilities."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DegenerateDirectionError
from .numerics import chi2_central_inv, chi2_noncentral_sf
from .radar import ArrayGeometry, steering_vector

# A steering direction whose waveform-correlation quadratic form falls below
# this fraction of the orthogonal value M is treated as lying in the
# projector's kernel.
_DENOMINATOR_FLOOR_FRAC = 1e-10


@dataclass(frozen=True)
class DetectorConfig:
    pfa: float
    theta_grid: np.ndarray = field(
        default_factory=lambda: np.deg2rad(np.arange(-90.0, 90.0 + 0.25, 0.5))
    )

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
    """
    gain = np.real(a.conj() @ np.swapaxes(r, -1, -2) @ a)
    return float(gain) if gain.ndim == 0 else gain


def glrt_statistic(
    e: np.ndarray,
    r: np.ndarray,
    geom: ArrayGeometry,
    theta: float,
    noise_var: float,
    scaling: float | None = None,
) -> float:
    """Scaled GLRT ratio |a^H E a*|^2 / (M a^H R^T a) at a single angle.

    With the default scaling 2/noise_var the statistic is exactly chi-squared
    with two degrees of freedom under the target-absent hypothesis.
    """
    a = steering_vector(geom, theta)
    m = geom.m
    denom = direction_gain(a, r)
    if denom < _DENOMINATOR_FLOOR_FRAC * m:
        raise DegenerateDirectionError(
            f"direction gain {denom:.3e} below floor at theta={theta:.4f}"
        )
    if scaling is None:
        scaling = 2.0 / noise_var
    num = abs(a.conj() @ e @ a.conj()) ** 2
    return float(scaling * num / (m * denom))


def glrt_scan(
    e: np.ndarray,
    r: np.ndarray,
    geom: ArrayGeometry,
    cfg: DetectorConfig,
    noise_var: float,
) -> GlrtResult:
    """Maximize the GLRT statistic over the angle grid and threshold it.

    Degenerate grid points are skipped; an entirely degenerate grid yields a
    forced target-absent decision with the degeneracy flag set.
    """
    threshold = chi2_central_inv(1.0 - cfg.pfa)
    grid = cfg.theta_grid
    a_grid = steering_vector(geom, grid)  # M x G
    denom = np.real(np.einsum("mg,mn,ng->g", a_grid.conj(), r.T, a_grid))
    valid = denom >= _DENOMINATOR_FLOOR_FRAC * geom.m
    if not np.any(valid):
        return GlrtResult(
            statistic=0.0, theta_ml=float(grid[0]), detected=False,
            threshold=threshold, degenerate=True,
        )
    scaling = 2.0 / noise_var
    num = np.abs(np.einsum("mg,mn,ng->g", a_grid.conj(), e, a_grid.conj())) ** 2
    stats = np.full(grid.size, -np.inf)
    stats[valid] = scaling * num[valid] / (geom.m * denom[valid])
    best = int(np.argmax(stats))  # ties resolve to the smaller angle
    return GlrtResult(
        statistic=float(stats[best]),
        theta_ml=float(grid[best]),
        detected=bool(stats[best] > threshold),
        threshold=threshold,
    )


def noncentrality_orthogonal(m: int, alpha_sq: float, noise_var: float) -> float:
    """Published noncentrality for orthogonal waveforms: M^2 |alpha|^2 / sigma_n^2."""
    if noise_var <= 0:
        raise ConfigurationError("noise variance must be positive")
    return m * m * alpha_sq / noise_var


def noncentrality_nsp(
    a: np.ndarray, r_proj: np.ndarray, alpha_sq: float, noise_var: float
) -> float:
    """Published noncentrality for projected waveforms:
    |alpha|^2 / sigma_n^2 * |a^H R^T a|^2."""
    if noise_var <= 0:
        raise ConfigurationError("noise variance must be positive")
    return float(alpha_sq / noise_var * abs(a.conj() @ r_proj.T @ a) ** 2)


def calibrated_noncentrality(
    a: np.ndarray, r: np.ndarray, m: int, alpha_sq: float, noise_var: float
) -> float:
    """Noncentrality of the scaled statistic derived from its actual moments:
    2 |alpha|^2 M (a^H R^T a) / sigma_n^2.

    This is the value the simulated statistic concentrates around; the
    published formula coincides with it only for the identity correlation up
    to a factor of two.
    """
    return 2.0 * alpha_sq * m * direction_gain(a, r) / noise_var


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
    if np.any(np.asarray(gain) <= 0):
        raise ValueError("direction gain must be positive")
    factor = {"calibrated": 10.0, "paper": 20.0}[convention]
    return factor * np.log10(m / gain)
