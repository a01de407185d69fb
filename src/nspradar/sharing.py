"""Spectrum sharing machinery: interference channels, null-space projectors,
minimum-degradation channel selection, and waveform projection."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .numerics import svd

# Relative tie window for the argmin over degradation norms.  With exactly
# orthogonal waveforms every channel degrades the waveform by the identical
# amount (||P X - X||_F^2 = min(N_BS, M) for any full-rank channel), so the
# argmin is decided by this tolerance, which resolves ties to the lowest bs_id.
_TIE_RTOL = 1e-9

_DEFAULT_RANK_TOL_FACTOR = 100 * np.finfo(float).eps


@dataclass(frozen=True)
class InterferenceChannel:
    """Radar-to-BS channel: N_BS x M matrix of i.i.d. CN(0,1) gains."""

    bs_id: int
    h: np.ndarray


@dataclass(frozen=True)
class ProjectionMatrix:
    """Hermitian idempotent projector onto null(H) with trace = nullity."""

    bs_id: int
    p: np.ndarray
    nullity: int


@dataclass(frozen=True)
class ChannelSelection:
    """Result of the minimum-degradation argmin over K projectors."""

    selected: int                 # bs_id of the winner
    norms: tuple[float, ...]      # ||P_i X - X||_F per projector, in input order
    bs_ids: tuple[int, ...]


@dataclass(frozen=True)
class ProjectedWaveform:
    """Projected samples and their (rank-deficient) sample-sum correlation."""

    samples: np.ndarray
    correlation: np.ndarray


def channel_matrices(
    rngs: list[np.random.Generator], k: int, n_bs: int, m: int
) -> np.ndarray:
    """A (len(rngs), K, N_BS, M) stack of Rayleigh-fading channel draws, one
    row of K channels per generator.

    Each generator gives one standard_normal call in the order channel,
    real/imaginary part, entry, which is the order K successive
    `complex_normal(rng, (N_BS, M))` calls consume.
    """
    if k < 1 or n_bs < 1 or m < 1:
        raise ConfigurationError("K, N_BS and M must all be >= 1")
    z = np.empty((len(rngs), k, 2, n_bs, m))
    for rng, row in zip(rngs, z):
        rng.standard_normal(out=row)
    return math.sqrt(0.5) * (z[:, :, 0] + 1j * z[:, :, 1])


def draw_channels(
    k: int, n_bs: int, m: int, rng: np.random.Generator
) -> list[InterferenceChannel]:
    """Draw K independent N_BS x M Rayleigh-fading channels from one stream."""
    h = channel_matrices([rng], k, n_bs, m)[0]
    return [InterferenceChannel(bs_id=i + 1, h=h[i]) for i in range(k)]


def null_projectors(
    h: np.ndarray, rank_tol: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal projectors onto the null spaces of a (..., N_BS, M) stack
    of channel matrices: P shaped (..., M, M) and the nullities (...).

    SVD H = U diag(s) V^H; singular values above rank_tol * s_max * max(N_BS, M)
    count toward the numerical rank q, and the projector is built from the
    trailing M - q right singular vectors: P = V_null V_null^H.
    """
    if rank_tol is None:
        rank_tol = _DEFAULT_RANK_TOL_FACTOR
    _, s, v = svd(h)
    n_bs, m = h.shape[-2:]
    q = np.sum(s > rank_tol * s[..., :1] * max(n_bs, m), axis=-1)
    # V with its first q columns zeroed, so that each matrix of the stack
    # keeps its own rank.
    v_null = v * (np.arange(m) >= q[..., None])[..., None, :]
    return v_null @ np.swapaxes(v_null.conj(), -1, -2), m - q


def _gram_factor(x: np.ndarray) -> np.ndarray:
    """An M x min(M, L) factor F of the waveform Gram matrix, F F^H = X X^H.

    ||A X||_F = ||A F||_F for every A, so the degradation norms and the
    projected correlations need F alone, never the M x L samples.
    """
    return np.linalg.qr(x.conj().T, mode="r").conj().T


def select_projector(p: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-degradation selection over the K axis of a (..., K, M, M)
    stack of projectors.

    Returns the winning index (...) and the norms ||P_i X - X||_F (..., K).
    Norms within a relative _TIE_RTOL of the least tie, and a tie goes to
    the lowest index.
    """
    f = _gram_factor(x)
    norms = np.linalg.norm(p @ f - f, axis=(-2, -1))
    best = norms.min(axis=-1, keepdims=True)
    return np.argmax(norms <= best * (1 + _TIE_RTOL) + 1e-12, axis=-1), norms


def projected_correlation(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Sample-sum correlation P X X^H P^H of the projected waveform, for a
    (..., M, M) stack of projectors."""
    pf = p @ _gram_factor(x)
    return pf @ np.swapaxes(pf.conj(), -1, -2)


def projection_matrix(
    ch: InterferenceChannel, rank_tol: float | None = None
) -> ProjectionMatrix:
    """Orthogonal projector onto the null space of one channel matrix
    (`null_projectors` of a single matrix)."""
    p, nullity = null_projectors(ch.h, rank_tol)
    return ProjectionMatrix(bs_id=ch.bs_id, p=p, nullity=int(nullity))


def select_channel(
    projs: list[ProjectionMatrix], x: np.ndarray
) -> ChannelSelection:
    """Pick the projector that least degrades the waveform in Frobenius norm
    (`select_projector` over one list).

    Ties (within a small relative window) go to the first in input order.
    """
    if not projs:
        raise ConfigurationError("need at least one projector")
    m = x.shape[0]
    for pr in projs:
        if pr.p.shape != (m, m):
            raise ConfigurationError(
                f"projector for BS {pr.bs_id} has shape {pr.p.shape}, expected ({m}, {m})"
            )
    best, norms = select_projector(np.stack([pr.p for pr in projs]), x)
    return ChannelSelection(
        selected=projs[best].bs_id, norms=tuple(float(n) for n in norms),
        bs_ids=tuple(pr.bs_id for pr in projs),
    )


def project_waveform(proj: ProjectionMatrix, x: np.ndarray) -> ProjectedWaveform:
    """Project the waveform column-wise and cache its sample-sum correlation."""
    return ProjectedWaveform(samples=proj.p @ x,
                             correlation=projected_correlation(proj.p, x))


def residual_interference(ch: InterferenceChannel, pw: ProjectedWaveform) -> float:
    """Normalized residual power the channel would still receive:
    ||H X||_F / max(1, ||H||_F ||X||_F)."""
    num = float(np.linalg.norm(ch.h @ pw.samples))
    den = max(1.0, float(np.linalg.norm(ch.h)) * float(np.linalg.norm(pw.samples)))
    return num / den
