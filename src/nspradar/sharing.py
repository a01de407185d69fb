"""Spectrum sharing machinery on stacks of channels: Rayleigh-fading channel
draws, null-space projectors, minimum-degradation selection by nullity and
residual interference.

A projector onto a channel's null space needs only an orthonormal basis of
its N_BS rows, so for N_BS < M it is built by Gram-Schmidt; the SVD's rank
rule stays exact, as a certificate from the Gram-Schmidt residuals sends
every channel it cannot prove full rank to the SVD (`null_projectors`).
Every set-up, of fixed and of redrawn channels, with and without the scan,
takes its (..., M, M) projector stack from that one call."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericFailure

# The null-space rank rule (`null_projectors`).
_RANK_TOL_FACTOR = 100 * np.finfo(float).eps


@dataclass(frozen=True)
class ChannelSelection:
    """Result of the minimum-degradation selection over K projectors."""

    selected: int                 # 1-based index of the winning BS
    # ||P_i X - X||_F per BS, in BS order: sqrt(M - nullity_i) for the
    # waveforms with X X^H = I.
    norms: tuple[float, ...]
    # `residual_interference` of the selected waveform at the selected BS.
    residual_interference: float


def channel_matrices(
    rngs: list[np.random.Generator], k: int, n_bs: int, m: int
) -> np.ndarray:
    """A (len(rngs), K, N_BS, M) stack of Rayleigh-fading channel draws, one
    row of K channels per generator.

    Each generator gives one standard_normal call in the order channel,
    real/imaginary part, entry: the order in which K successive N_BS x M
    complex draws (all real parts, then all imaginary parts) consume it.
    """
    if k < 1 or n_bs < 1 or m < 1:
        raise ConfigurationError("K, N_BS and M must all be >= 1")
    z = np.empty((len(rngs), k, 2, n_bs, m))
    for rng, row in zip(rngs, z):
        rng.standard_normal(out=row)
    return math.sqrt(0.5) * (z[:, :, 0] + 1j * z[:, :, 1])


def null_projectors(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal projectors onto the null spaces of a (..., N_BS, M) stack
    of channel matrices: P shaped (..., M, M) and the nullities (...).

    The rank rule is the SVD's: singular values above
    _RANK_TOL_FACTOR * s_max * max(N_BS, M) count toward the numerical rank
    q, and P projects onto the complement of the q leading right singular
    vectors.

    For N_BS < M each matrix is first scaled to its largest entry and its
    rows are made orthonormal by two-pass classical Gram-Schmidt, so that
    P = I - W^H W with W the orthonormal rows.  The residual norms r_i
    multiply to s_1 ... s_N_BS <= s_min s_max^(N_BS - 1), and s_max <= ||H||_F,
    so prod(r_i / ||H||_F) bounds s_min / s_max from below: a matrix whose
    bound exceeds 2 * _RANK_TOL_FACTOR * M is full rank under the SVD rule
    too, with nullity M - N_BS.  Every other matrix, every stack with
    N_BS >= M and any stack holding a non-finite entry go to the SVD
    (`_svd_projectors`), so the nullities are the SVD rule's exactly.  Each
    matrix's result depends on that matrix alone, not on the stack it sits
    in.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or not 0 < h.shape[-2] < h.shape[-1] or not np.all(np.isfinite(h)):
        return _svd_projectors(h)
    n_bs, m = h.shape[-2:]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w, bound = _orthonormal_rows(h)
    p = np.broadcast_to(np.eye(m, dtype=complex), w.shape[:-2] + (m, m)).copy()
    for i in range(n_bs):
        p -= w[..., i, :, None].conj() * w[..., i, None, :]
    nullity = np.full(h.shape[:-2], m - n_bs)
    # max(N_BS, M) = M here; a nan bound (an all-zero matrix) fails too.
    fallback = ~(bound > 2 * _RANK_TOL_FACTOR * m)
    if fallback.any():
        p[fallback], nullity[fallback] = _svd_projectors(h[fallback])
    return p, nullity


def _orthonormal_rows(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-pass classical Gram-Schmidt over the rows of a (..., N, M) stack:
    the orthonormal rows W (..., N, M) and the bound prod(r_i / ||H||_F) on
    s_min / s_max (...).  Each matrix is scaled to its largest entry first,
    so neither the rows nor the product of N residuals overflows or
    underflows at any scale of H."""
    peak = np.abs(h).max(axis=(-2, -1), keepdims=True)
    a = h / peak
    fro = np.sqrt(np.sum(a.real ** 2 + a.imag ** 2, axis=(-2, -1)))
    w = np.empty_like(a)
    bound = np.ones(h.shape[:-2])
    for i in range(h.shape[-2]):
        v = a[..., i, :]
        for _ in range(2):
            c = [np.sum(v * w[..., j, :].conj(), axis=-1) for j in range(i)]
            for j in range(i):
                v = v - c[j][..., None] * w[..., j, :]
        r = np.sqrt(np.sum(v.real ** 2 + v.imag ** 2, axis=-1))
        w[..., i, :] = v / r[..., None]
        bound *= r / fro
    return w, bound


def _svd_projectors(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`null_projectors` by the SVD H = U diag(s) V^H: P = V_null V_null^H
    from the trailing M - q right singular vectors.  Raises ValueError for
    a stack that is not (..., N, M) with N, M >= 1 or holds a non-finite
    entry, and NumericFailure where the SVD does not converge."""
    if h.ndim < 2 or h.shape[-2] < 1 or h.shape[-1] < 1:
        raise ValueError(f"expected a (..., n, m) matrix stack, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix contains non-finite entries")
    try:
        _, s, vh = np.linalg.svd(h)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(
            f"SVD did not converge for a stack of {h.shape[-2]}x{h.shape[-1]} matrices"
        ) from exc
    v = np.swapaxes(vh.conj(), -1, -2)
    n_bs, m = h.shape[-2:]
    q = np.sum(s > _RANK_TOL_FACTOR * s[..., :1] * max(n_bs, m), axis=-1)
    # V with its first q columns zeroed, so that each matrix of the stack
    # keeps its own rank.
    v_null = v * (np.arange(m) >= q[..., None])[..., None, :]
    return v_null @ np.swapaxes(v_null.conj(), -1, -2), m - q


def select_by_nullity(nullity: np.ndarray) -> np.ndarray:
    """Minimum-degradation selection over the last axis of a (..., K) array
    of projector nullities (`null_projectors`): the first index of maximal
    nullity.

    This is the argmin of the degradation norms ||P X - X||_F, ties going
    to the lowest index: for waveforms with X X^H = I,
    ||P X - X||_F^2 = tr(I - P) = M - nullity, so equal nullities tie
    exactly and unequal ones differ by at least sqrt(M) - sqrt(M - 1).
    """
    return np.argmax(nullity, axis=-1)


def residual_interference(h: np.ndarray, x_tx: np.ndarray) -> float:
    """Normalized residual power a channel still receives from the
    transmitted samples: ||H X_tx||_F / max(1, ||H||_F ||X_tx||_F).

    Both norms are unchanged by X_tx -> X_tx X for X X^H = I, so the
    projector P itself (the samples of X = I_M) gives the value of P X."""
    num = float(np.linalg.norm(h @ x_tx))
    den = max(1.0, float(np.linalg.norm(h)) * float(np.linalg.norm(x_tx)))
    return num / den
