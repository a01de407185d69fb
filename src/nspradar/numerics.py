"""Shared numerical substrate.

Complex SVD facade, chi-squared statistics with two degrees of freedom
(the central inverse CDF and the noncentral survival function, i.e. the
first-order Marcum Q), deterministic RNG substreams, and fixed-width
Gaussian record streams.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats
from scipy.special import ndtri

from .errors import NumericFailure

# Generator.random() spends one 64-bit word per double and returns k * 2**-53
# with k in [0, 2**53); one Philox counter step yields four words.
_HALF_CELL = 2.0 ** -54
_PHILOX_WORDS = 4


def svd(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD of a complex matrix or a (..., n, m) stack of them, returned
    as (U, s, V) with H = U diag(s) V^H.

    Note the third factor is V itself, not V^H.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-2] < 1 or h.shape[-1] < 1:
        raise ValueError(f"expected a (..., n, m) matrix stack, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix contains non-finite entries")
    try:
        u, s, vh = np.linalg.svd(h, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(
            f"SVD did not converge for a stack of {h.shape[-2]}x{h.shape[-1]} matrices"
        ) from exc
    return u, s, np.swapaxes(vh.conj(), -1, -2)


def chi2_central_inv(p: float) -> float:
    """Inverse of the central chi-squared CDF with 2 dof, F(x) = 1 - exp(-x/2):
    F^-1(p) = -2 log(1 - p), for p in [0, 1)."""
    if not 0 <= p < 1:
        raise ValueError(f"p must lie in [0, 1), got {p}")
    return -2.0 * math.log1p(-p)


def chi2_noncentral_sf(x, rho):
    """Survival function 1 - F of the noncentral chi-squared law (2 dof,
    noncentrality rho); equals the Marcum Q function Q1(sqrt(rho), sqrt(x)).

    Broadcasts over arrays; scalar arguments give a float.
    """
    x = np.asarray(x, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if np.any(x < 0):
        raise ValueError(f"x must be non-negative, got {x}")
    if np.any(rho < 0):
        raise ValueError(f"rho must be non-negative, got {rho}")
    sf = stats.ncx2.sf(x, 2, rho)
    return float(sf) if sf.ndim == 0 else sf


def _philox(master_seed: int, stream_id: int) -> np.random.Philox:
    if stream_id < 0:
        raise ValueError(f"stream_id must be non-negative, got {stream_id}")
    ss = np.random.SeedSequence((int(master_seed) & (2**64 - 1), int(stream_id)))
    return np.random.Philox(ss)


def rng_substream(master_seed: int, stream_id: int) -> np.random.Generator:
    """Independent, reproducible substream keyed by (master_seed, stream_id).

    Backed by the counter-based Philox generator so distinct stream ids give
    statistically independent sequences regardless of draw order.
    """
    return np.random.Generator(_philox(master_seed, stream_id))


def normal_from_uniform(u: np.ndarray) -> np.ndarray:
    """Standard normals by inverse CDF at the midpoint of each 2**-53 cell.

    A `random()` output u = k 2**-53 maps to ndtri((k + 1/2) 2**-53), whose
    argument lies strictly inside (0, 1), so u = 0 gives a finite normal.
    The midpoint is formed exactly: as u + 2**-54 below 1/2 and, reflected,
    as (1 - u) - 2**-54 above it (u + 2**-54 would round to 1.0 at the top
    cell).  The map is therefore odd about 1/2 and finite at both ends.
    """
    u = np.asarray(u, dtype=float)
    upper = u >= 0.5
    z = ndtri(np.where(upper, (1.0 - u) - _HALF_CELL, u + _HALF_CELL))
    return np.where(upper, -z, z)


def complex_normal_block(
    master_seed: int, stream_id: int, first: int, count: int, shape,
    variance: float = 1.0,
) -> np.ndarray:
    """CN(0, variance) arrays of the given shape for records
    [first, first + count) of the Philox stream keyed by
    (master_seed, stream_id).

    Every record consumes the same number of words: its 2 prod(shape)
    uniforms, padded to whole counter steps.  Record r therefore starts at
    counter step r * width / 4, reached by `advance()` in O(1), and a block
    draw is byte-identical to the per-record draws concatenated, however
    the records are chunked.  Normals come from `normal_from_uniform`, never
    from the ziggurat, whose word count varies.
    """
    shape = tuple(shape)
    size = 2 * math.prod(shape)
    width = -(-size // _PHILOX_WORDS) * _PHILOX_WORDS
    bitgen = _philox(master_seed, stream_id)
    bitgen.advance(first * (width // _PHILOX_WORDS))
    u = np.random.Generator(bitgen).random((count, width))
    z = normal_from_uniform(u[:, :size])
    z *= math.sqrt(0.5 * variance)
    return z.view(complex).reshape((count,) + shape)
