"""Colocated MIMO radar model: steering vectors of the uniform linear array,
the rank-one transmit-receive matrix and orthogonal waveform synthesis.

The array has M elements, given to `steering_vector` or read from the rows
of the waveform; its element spacing is fixed at 3/4 of the carrier
wavelength.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

# 3.55 GHz carrier (~8.45 cm).  The nominal 6.42 cm spacing quoted alongside
# an 8.5 cm wavelength is inconsistent by ~0.5 mm, so the spacing is derived
# from the wavelength.
_WAVELENGTH = 3e8 / 3.55e9
_SPACING = 0.75 * _WAVELENGTH


def steering_vector(m: int, theta) -> np.ndarray:
    """Unit-modulus response a(theta) of the M-element array for azimuth
    theta (radians).

    Element k carries phase -2*pi*k*d*sin(theta)/lambda, so a^H a = M.  A
    1-d array of G angles gives the M x G matrix of responses, one column
    per angle.
    """
    if np.any(np.abs(theta) > np.pi / 2):
        raise ValueError(f"azimuth must satisfy |theta| <= pi/2, got {theta}")
    k = np.arange(m).reshape((-1,) + (1,) * np.ndim(theta))
    return np.exp(-2j * np.pi * k * _SPACING * np.sin(theta) / _WAVELENGTH)


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
