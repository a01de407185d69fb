"""Colocated MIMO radar model: array geometry, steering vectors, orthogonal
waveform synthesis, and single-target echo generation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .numerics import complex_normal

SPEED_OF_LIGHT = 3e8
CARRIER_FREQ_HZ = 3.55e9
DEFAULT_WAVELENGTH = SPEED_OF_LIGHT / CARRIER_FREQ_HZ  # ~8.45 cm


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array with M elements.

    Element spacing defaults to 3/4 of the carrier wavelength. (The nominal
    6.42 cm spacing quoted alongside an 8.5 cm wavelength is internally
    inconsistent by ~0.5 mm; we derive spacing from the wavelength.)
    """

    m: int
    wavelength: float = DEFAULT_WAVELENGTH
    spacing: float = field(default=0.0)

    def __post_init__(self):
        if self.m < 1:
            raise ConfigurationError(f"antenna count must be >= 1, got {self.m}")
        if self.wavelength <= 0:
            raise ConfigurationError("wavelength must be positive")
        if self.spacing == 0.0:
            object.__setattr__(self, "spacing", 0.75 * self.wavelength)
        if self.spacing <= 0:
            raise ConfigurationError("element spacing must be positive")


@dataclass(frozen=True)
class TargetScenario:
    """Single point target: azimuth, complex path loss, per-sample noise power."""

    theta: float
    alpha: complex
    noise_var: float = 1.0

    def __post_init__(self):
        if self.noise_var <= 0:
            raise ConfigurationError("noise variance must be positive")


def steering_vector(geom: ArrayGeometry, theta) -> np.ndarray:
    """Unit-modulus array response a(theta) for azimuth theta (radians).

    Element k carries phase -2*pi*k*d*sin(theta)/lambda, so a^H a = M.  A
    1-d array of G angles gives the M x G matrix of responses, one column
    per angle.
    """
    if np.any(np.abs(theta) > np.pi / 2):
        raise ValueError(f"azimuth must satisfy |theta| <= pi/2, got {theta}")
    k = np.arange(geom.m).reshape((-1,) + (1,) * np.ndim(theta))
    return np.exp(-2j * np.pi * k * geom.spacing * np.sin(theta) / geom.wavelength)


def transmit_receive_matrix(a: np.ndarray) -> np.ndarray:
    """Rank-one transmit-receive matrix A = a a^T (plain transpose, so A is
    symmetric but generally not Hermitian)."""
    a = np.asarray(a)
    return np.outer(a, a)


def orthogonal_waveforms(m: int, l: int) -> np.ndarray:
    """M x L sample matrix whose rows are normalized DFT tones.

    Row m is exp(2j*pi*m*n/L)/sqrt(L); the sample-sum correlation
    sum_n x[n] x[n]^H is exactly the identity for L >= M.
    """
    if l < m:
        raise ConfigurationError(f"need L >= M for orthogonality, got L={l}, M={m}")
    n = np.arange(l)
    rows = np.arange(m)[:, None]
    return np.exp(2j * np.pi * rows * n / l) / np.sqrt(l)


def waveform_correlation(x: np.ndarray) -> np.ndarray:
    """Sample-sum correlation sum_n x[n] x[n]^H of an M x L sample matrix."""
    return x @ x.conj().T


def synthesize_echo(
    scn: TargetScenario,
    geom: ArrayGeometry,
    x: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Received echo Y = alpha A(theta) X + N with N i.i.d. CN(0, noise_var).

    The target-absent hypothesis is synthesized with alpha = 0.
    """
    a = steering_vector(geom, scn.theta)
    signal = scn.alpha * (transmit_receive_matrix(a) @ x)
    return signal + complex_normal(rng, x.shape, scn.noise_var)
