"""Seeded Monte Carlo sweeps over SNR and P_FA grids.

Each trial runs the pipeline (channels -> projectors -> selection -> echo
-> GLRT) for the enabled waveform modes, in the M x M sufficient-statistic
domain.  The GLRT sees the echo Y = alpha A X_tx + N only through
E = Y X_tx^H.  The orthogonal waveforms satisfy X X^H = I and X_tx = P X, so
R = X_tx X_tx^H = P and E = (alpha A + E0) P, where E0 = N X^H is an M x M
matrix of i.i.d. CN(0, 1) entries: each mode is set up from its projector
alone, and trials never draw the M x L noise N.  With the scan they draw E0
itself.  At the target angle alone the statistic sees E0 only through
w = E0^T a^*, since a^H E0 P a^* = w^T P a^* for every P, and
w ~ CN(0, M I); those trials draw the M-vector w.

Noise comes from one Philox stream per hypothesis under the master seed,
and the SNR index is the substream (counter word 2, numpy's
`Philox.jumped`).  Trial t reads a fixed-width record at a fixed offset of
its point's substream, so results are independent of tiling, execution
order and worker count.  A stream is its key and a counter: each worker's
tile loop derives the keys of the stream kinds it reads once
(`numerics.stream_key`), and each draw sets a generator's key and counter
per record range (`numerics.complex_normal_ranges`), with the bits of a
generator seeded per stream, jumped to the substream and moved by
`advance()`.

`run_trial` is the test oracle of the vectorized engine: it runs
the explicit pipeline on the echo noise N = E0 X, which has N X^H = E0.
At the target angle it first lifts w to E0 = a w^T / M + (I - a a^H / M) G,
with G of i.i.d. CN(0, 1) entries from a separate stream kind; this E0 has
i.i.d. CN(0, 1) entries and E0^T a^* = w exactly.

The detector is one GLRT maximized over `ExperimentPlan.theta_grid()`: the
scan grid, or the target angle alone when the scan is off.  The engine and
`run_trial` both take that grid.

The scan evaluates no complex per-angle array.  The array is a uniform
linear array, so conj(a_g[m]) conj(a_g[p]) = z_g^(m + p) with
z_g = exp(j phi_g): the numerator a_g^H E a_g^* is a polynomial in z_g
whose 2M - 1 coefficients are the anti-diagonal sums of E, and its power
is a real trigonometric polynomial in phi_g with 4M - 3 terms.  The engine
folds those terms and each angle's scale into one real basis, so a tile's
statistics are one real matrix product per mode (`_PointEngine`).  They
agree with the direct per-angle form to about 1e-15 relative (less near a
null of the direction gain; see `_PointEngine`).

Channels take one route everywhere: `_channels` draws a (C, K, N_BS, M)
stack and `_stacked_modes` turns it into projectors (one stacked
`sharing.null_projectors` call: Gram-Schmidt, with the SVD for any channel
it cannot certify full rank) and the selection per draw.
With X X^H = I the degradation ||P X - X||_F is sqrt(M - nullity), so the
selection is the first BS of maximal nullity, read from the same call
(`sharing.select_by_nullity`); only a fixed channel's reported norms take
`sharing.select_projector`.  Every waveform mode is one projector applied to
X, so a set-up's modes are one (C, modes, M, M) stack in `_mode_labels`
order: the identity, the K projectors, and the selected BS's projector,
gathered per draw by its index; a selection rule only gives that index.
A fixed channel is stream 0 alone (C = 1); it is set up once per sweep, in
`run_experiment`.  Redrawn channels are drawn as the noise is: one Philox
stream, whose substream i is SNR point i's, of which trial t reads the
fixed-width record t, its K channels of i.i.d. CN(0, 1) entries.
`run_trial` takes the same route for its one trial.

The sweep is one loop over tiles of its (SNR point, trial) rows, each tile
a list of (snr_index, first trial, count) segments (`_tiles`).  A tile packs
whole points in grid order up to a row budget (`_tile_rows`); only a point
larger than the budget is split, one segment per tile.  With redrawn
channels each tile is set up once (C = its rows): one stacked projector
build and one engine for all of its points.  Every row still reads its own
channel record and its own noise record, and a channel's projector does not
depend on the stack it sits in, so no tile size changes an output.  With
workers, threads run contiguous runs of tiles through the same loop,
sharing the read-only fixed-channel engine.  Each thread's loop (one
`_run_tiles` call) owns its buffer of uniforms, allocated once for its
largest tile: a tile's noise, both hypotheses of all of its points, is one
`numerics.complex_normal_ranges` draw into it, and redrawn channels
another.  A point's tallies are one threshold comparison per hypothesis and
tile, summed per point segment.

The theory curves average P_D(rho_t) over the trials' channel draws, from
the per-trial target gains c_t; with a fixed channel that is the value at
its one gain.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import detection, radar, sharing
from .errors import ConfigurationError, NumericFailure
from .numerics import complex_normal_ranges, record_words, rng_substream, stream_key

MODE_ORTHOGONAL = "orthogonal"
MODE_NSP_PER_BS = "nsp-per-bs"
MODE_NSP_SELECTED = "nsp-selected"
_KNOWN_MODES = (MODE_ORTHOGONAL, MODE_NSP_PER_BS, MODE_NSP_SELECTED)

CHANNEL_FIXED = "fixed-per-experiment"
CHANNEL_REDRAWN = "redrawn-per-trial"

# Streams under the master seed, one per kind; the SNR index is the
# substream of the per-point kinds:
#   0                    fixed-per-experiment channels (acceptance seeds are
#                        pinned to this draw);
#   1                    redrawn channels, one fixed-width record of K
#                        channels per trial;
#   2 + hypothesis       noise (E0 with the scan, w without it), one
#                        fixed-width record per trial;
#   4 + hypothesis       the M x M G with which `run_trial` lifts w to E0,
#                        one record per trial;
#   _REDRAW_BASE + r     channel redraws of mean_selected_gap_db (pinned
#                        like stream 0).
_CHANNEL_STREAM = 0
_TRIAL_CHANNEL_STREAM = 1
_NOISE_STREAM = 2
_LIFT_STREAM = 4
_REDRAW_BASE = 2**62
_H1 = 0
_H0 = 1

_WILSON_Z = 1.959963984540054  # 95%
# A tile holds at most _CHUNK rows, and the engine's per-row arrays hold at
# most _BLOCK_ELEMENTS entries over the tile (`_tile_rows`); the theory
# curves are evaluated on about _BLOCK_ELEMENTS values at a time
# (`_mean_theory_pd`).  Both bound the memory a sweep takes.
_CHUNK = 2000
_BLOCK_ELEMENTS = 2**17


@dataclass(frozen=True)
class ExperimentPlan:
    m: int = 4
    n_bs: int = 2
    k: int = 5
    l: int = 16
    theta_target_deg: float = 10.0
    snr_grid_db: tuple[float, ...] = tuple(float(s) for s in range(-10, 26))
    pfa_list: tuple[float, ...] = (1e-3,)
    trials_per_point: int = 1000
    master_seed: int = 42
    channel_mode: str = CHANNEL_FIXED
    waveform_modes: tuple[str, ...] = (MODE_ORTHOGONAL, MODE_NSP_SELECTED)
    scan: bool = False
    theta_step_deg: float = 0.5
    rank_tol_factor: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "snr_grid_db", tuple(float(s) for s in self.snr_grid_db))
        object.__setattr__(self, "pfa_list", tuple(float(p) for p in self.pfa_list))
        object.__setattr__(self, "waveform_modes", tuple(self.waveform_modes))
        if self.m < 1 or self.n_bs < 1 or self.k < 1:
            raise ConfigurationError(
                f"m, n_bs and k must all be >= 1, got m={self.m}, n_bs={self.n_bs}, k={self.k}")
        if self.trials_per_point < 1:
            raise ConfigurationError("trials_per_point must be >= 1")
        if not self.snr_grid_db:
            raise ConfigurationError("snr grid must be non-empty")
        if not all(math.isfinite(s) for s in self.snr_grid_db):
            raise ConfigurationError(
                f"snr grid values must be finite, got {self.snr_grid_db}")
        too_large = []
        for s in self.snr_grid_db:
            try:
                10 ** (s / 10)
            except OverflowError:  # a float power raises where it overflows
                too_large.append(s)
        if too_large:
            raise ConfigurationError(
                f"snr grid values must have a finite linear SNR 10 ** (snr_db / 10) "
                f"(below about 3082 dB), got {too_large}")
        if not self.pfa_list:
            raise ConfigurationError("pfa list must be non-empty")
        if not all(0 < p < 1 for p in self.pfa_list):
            raise ConfigurationError("pfa values must lie in (0, 1)")
        if self.l < self.m:
            raise ConfigurationError(f"need l >= m, got l={self.l}, m={self.m}")
        if self.channel_mode not in (CHANNEL_FIXED, CHANNEL_REDRAWN):
            raise ConfigurationError(f"unknown channel_mode {self.channel_mode!r}")
        if not self.waveform_modes:
            raise ConfigurationError("waveform modes must be non-empty")
        unknown = [w for w in self.waveform_modes if w not in _KNOWN_MODES]
        if unknown:
            raise ConfigurationError(f"unknown waveform modes: {unknown}")
        # Each (mode, snr, pfa) is one results.csv row and one curve key.
        for name, values in (("snr grid values", self.snr_grid_db),
                             ("pfa values", self.pfa_list),
                             ("waveform modes", self.waveform_modes)):
            if len(set(values)) < len(values):
                raise ConfigurationError(f"{name} must be distinct, got {list(values)}")
        if not 0 < self.theta_step_deg <= 180:
            raise ConfigurationError("theta_step_deg must lie in (0, 180]")
        if not abs(self.theta_target_deg) <= 90:  # also rejects nan
            raise ConfigurationError("theta_target_deg must lie in [-90, 90]")
        # The largest singular value must count toward the rank
        # (`sharing.null_projectors`), or a projector nulls nothing: P = I.
        tol = self.rank_tol_factor
        if tol is not None and not (math.isfinite(tol) and 0 <= tol
                                    and tol * max(self.n_bs, self.m) < 1):
            raise ConfigurationError(
                f"rank_tol_factor must be finite, >= 0 and below "
                f"1 / max(n_bs, m) = {1 / max(self.n_bs, self.m):g}, got {tol!r}")

    @property
    def theta_target(self) -> float:
        return math.radians(self.theta_target_deg)

    def theta_grid(self) -> np.ndarray:
        """The detector's angle grid (radians): -90:theta_step_deg:90 degrees
        with the scan, the target angle alone without it.  A step that does
        not divide 180 degrees ends the grid at its last angle below 90."""
        if not self.scan:
            return np.array([self.theta_target])
        grid = np.deg2rad(np.arange(-90.0, 90.0 + self.theta_step_deg / 2,
                                    self.theta_step_deg))
        return grid[grid <= np.pi / 2]


@dataclass(frozen=True)
class CurvePoint:
    """One (mode, SNR, P_FA) point of a curve.  Its fields, in order, are
    the results.csv columns after mode and bs_id; ci_* and pfa_ci_* are 95%
    Wilson intervals (`wilson_interval`)."""
    snr_db: float
    pfa: float
    trials: int
    detections: int
    pd_emp: float
    ci_lo: float
    ci_hi: float
    pd_theory_paper: float
    pd_theory_calibrated: float
    false_alarms: int
    pfa_emp: float
    pfa_ci_lo: float
    pfa_ci_hi: float
    degenerate: int


@dataclass(frozen=True)
class DetectionCurve:
    label: str          # "orthogonal", "nsp-bs<N>", "nsp-selected"
    bs_id: str          # "orthogonal", "<N>", "selected"
    points: tuple[CurvePoint, ...]


@dataclass(frozen=True)
class ExperimentResult:
    plan: ExperimentPlan
    curves: tuple[DetectionCurve, ...]
    degenerate_trials: int
    selection: sharing.ChannelSelection | None  # fixed-channel runs only
    # Seconds per stage: "setup" (the fixed channel's engine), "points"
    # (the trials) and "theory" (the theory curves and the curve tables).
    timings_s: dict[str, float] = field(default_factory=dict)
    # Degenerate trials per mode label; they sum to degenerate_trials.
    degenerate_by_mode: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class TrialOutcome:
    statistic_h1: float
    statistic_h0: float
    detected_h1: bool
    detected_h0: bool
    theta_ml: float
    degenerate: bool


@dataclass(frozen=True)
class SnrGapReport:
    target_pd: float
    pfa: float
    source: str
    snr_at_target: dict
    gap_db: dict


def wilson_interval(successes, n, z: float = _WILSON_Z):
    """95% Wilson score interval for a binomial rate: (lo, hi) as floats for
    scalar counts, as arrays (elementwise, broadcast) for array counts.

    Each element takes the operations of the scalar formula in its order,
    so it has the scalar formula's bits; n = 0 gives (0, 1).
    """
    k, n = np.asarray(successes), np.asarray(n)
    zz = z * z
    with np.errstate(divide="ignore", invalid="ignore"):  # n = 0
        phat = k / n
        denom = 1 + zz / n
        center = (phat + zz / (2 * n)) / denom
        half = z * np.sqrt(phat * (1 - phat) / n + zz / (4 * n * n)) / denom
    # The exact bounds at the edges are 0 and 1; rounded, center - half can
    # land just above 0 (center + half just below 1) and exclude phat.
    lo = np.where(k == 0, 0.0, np.maximum(0.0, center - half))
    hi = np.where(k == n, 1.0, np.minimum(1.0, center + half))
    if lo.ndim == 0:
        return float(lo), float(hi)
    return lo, hi


def _mode_labels(plan: ExperimentPlan) -> list[tuple[str, str]]:
    """Expanded (label, bs_id) pairs in deterministic output order."""
    out = []
    for mode in plan.waveform_modes:
        if mode == MODE_ORTHOGONAL:
            out.append((MODE_ORTHOGONAL, "orthogonal"))
        elif mode == MODE_NSP_PER_BS:
            out.extend((f"nsp-bs{i}", str(i)) for i in range(1, plan.k + 1))
        else:
            out.append((MODE_NSP_SELECTED, "selected"))
    return out


def _stacked_modes(
    plan: ExperimentPlan, h: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The modes' projectors for a (C, K, N_BS, M) stack of channel draws:
    (proj, selected, p), with proj the (C, modes, M, M) stack in
    `_mode_labels` order, selected the chosen BS's 0-based index (C,) and p
    the BSs' projectors (C, K, M, M).

    The orthogonal waveforms have X X^H = I, so the minimum-degradation
    selection is the first BS of maximal nullity (`sharing.select_by_nullity`,
    equal to `sharing.select_projector` on these waveforms); no degradation
    norm is formed."""
    p, nullity = sharing.null_projectors(h, plan.rank_tol_factor)  # (C, K, M, M)
    selected = sharing.select_by_nullity(nullity)
    c = len(h)
    blocks = {
        MODE_ORTHOGONAL: np.broadcast_to(np.eye(plan.m, dtype=complex),
                                         (c, 1, plan.m, plan.m)),
        MODE_NSP_PER_BS: p,
        MODE_NSP_SELECTED: p[np.arange(c), selected, None],
    }
    proj = np.concatenate([blocks[mode] for mode in plan.waveform_modes], axis=1)
    return proj, selected, p


def _channel_shape(plan: ExperimentPlan) -> tuple[int, int, int]:
    """Shape (K, N_BS, M) of one trial's redrawn-channel record."""
    return plan.k, plan.n_bs, plan.m


def _noise_shape(plan: ExperimentPlan) -> tuple[tuple[int, ...], float]:
    """(record shape, variance) of one trial's noise: E0 = N X^H, M x M of
    i.i.d. CN(0, 1) entries, with the scan; w = E0^T a^*, M i.i.d. CN(0, M)
    entries, without it."""
    return ((plan.m, plan.m), 1.0) if plan.scan else ((plan.m,), float(plan.m))


def _channel_ranges(segments: list[tuple[int, int, int]]) -> list[tuple[int, ...]]:
    """`complex_normal_ranges` record ranges of the redrawn channels of the
    (snr_index, first trial, count) segments."""
    return [(_TRIAL_CHANNEL_STREAM, *segment) for segment in segments]


def _noise_ranges(segments: list[tuple[int, int, int]],
                  hypotheses: tuple[int, ...]) -> list[tuple[int, ...]]:
    """`complex_normal_ranges` record ranges of the noise of the segments,
    hypothesis by hypothesis."""
    return [(_NOISE_STREAM + hypothesis, *segment)
            for hypothesis in hypotheses for segment in segments]


def _channels(plan: ExperimentPlan, snr_index: int, first: int,
              count: int) -> np.ndarray:
    """(C, K, N_BS, M) channel draws for trials [first, first + count) of
    SNR point snr_index.

    A fixed channel is stream 0 alone (C = 1) for every point and trial.
    Redrawn channels (C = count) are records [first, first + count) of the
    point's substream of the redrawn-channel stream, one record of K
    channels of i.i.d. CN(0, 1) entries per trial, so a block equals its
    trials drawn one by one.
    """
    if plan.channel_mode == CHANNEL_FIXED:
        rng = rng_substream(plan.master_seed, _CHANNEL_STREAM)
        return sharing.channel_matrices([rng], plan.k, plan.n_bs, plan.m)
    return complex_normal_ranges(plan.master_seed,
                                 _channel_ranges([(snr_index, first, count)]),
                                 _channel_shape(plan))


def _noise_block(plan: ExperimentPlan, snr_index: int, hypothesis: int,
                 first: int, count: int) -> np.ndarray:
    """The noise of trials [first, first + count) under one hypothesis: a
    (count,) + record shape array (`_noise_shape`)."""
    return complex_normal_ranges(
        plan.master_seed, _noise_ranges([(snr_index, first, count)], (hypothesis,)),
        *_noise_shape(plan))


def _lifted_noise(plan: ExperimentPlan, snr_index: int, hypothesis: int,
                  first: int, count: int) -> np.ndarray:
    """E0 for trials [first, first + count) of an at-angle plan: the
    (count, M, M) E0 = G + a (w^T - a^H G) / M, with w from `_noise_block`
    and G of i.i.d. CN(0, 1) entries from the point's substream of the lift
    stream.  Its entries are i.i.d. CN(0, 1) and E0^T a^* = w, since
    a^T a^* = M."""
    w = _noise_block(plan, snr_index, hypothesis, first, count)
    g = complex_normal_ranges(
        plan.master_seed, [(_LIFT_STREAM + hypothesis, snr_index, first, count)],
        (plan.m, plan.m))
    a = radar.steering_vector(plan.m, plan.theta_target)
    return g + a[:, None] * ((w - a.conj() @ g) / plan.m)[:, None, :]


class _PointEngine:
    """Vectorized statistic evaluation for the (C, modes, M, M) projector
    stack of `_stacked_modes`, over C channel draws.

    With X X^H = I the matched filter of mode P is E = (alpha A + E0) P, as
    X X_tx^H = X X^H P = P, and P is the waveform correlation R too.  At
    scan angle g the GLRT numerator is n_g = a_g^H E a_g^*.  The array is
    uniform and linear, so conj(a_g[m]) conj(a_g[p]) = z_g^(m + p) with
    z_g = exp(j phi_g), phi_g = 2 pi (d / lambda) sin(theta_g), and

        n_g = sum_{s=0}^{2M-2} d_s z_g^s,

    d holding the anti-diagonal sums of E.  d is linear in E0: with one
    channel draw (C = 1) a tile of T rows takes one
    (T, M^2) @ (M^2, modes x (2M - 1)) product for all modes, across its
    SNR points; with C = T draws row t is evaluated against draw t.  The
    echo's anti-diagonal sums (`sig`, those of A P) scale by one alpha for
    all rows of a point, so `statistics` adds them once per point segment.
    The numerator's power is then a real trigonometric polynomial in phi_g,

        |n_g|^2 = r_0 + 2 sum_{k=1}^{2M-2} (Re r_k cos k phi_g - Im r_k sin k phi_g),

    with the autocorrelations r_k = sum_s d_{s+k} conj(d_s).  `basis`, built
    once, holds its 4M - 3 terms at every grid angle times the angle's scale
    2 / (M c_g), so the scaled statistics are one real product of the rows'
    (4M - 3) autocorrelation coefficients per mode.  The grid is
    `plan.theta_grid()`.  At the target angle alone the numerator's noise
    term is w^T P a^*, and the product is (T, M) @ (M, modes) on the
    `_noise_block` vectors w.  Both are exact rewrites of glrt_scan on
    sufficient_statistic(alpha A X_tx + E0 X, X_tx).  The scan's statistics
    agree with the direct form to about 1e-15 relative.  Where the
    maximizing angle's gain c_g is far below M (near a null of a rank-one
    projector) the power is a small difference of terms of size r_0, and
    the error grows to about 1e-16 M / c_g.
    """

    def __init__(self, plan: ExperimentPlan, proj: np.ndarray):
        grid = plan.theta_grid()
        a = radar.steering_vector(plan.m, plan.theta_target)
        a_grid = radar.steering_vector(plan.m, grid)             # (M, G)
        a_conj = a_grid.conj()
        p_a = proj @ a_conj                                      # (C, modes, M, G)
        # c_g = a_g^H P^T a_g = a_g^T P a_g^*
        gain = np.real(np.sum(a_grid * p_a, axis=-2))           # (C, modes, G)
        valid = gain >= detection.GAIN_FLOOR_FRAC * plan.m
        self.degenerate = ~valid.any(axis=-1)                    # (C, modes)
        self.target_gain = detection.direction_gain(a, proj)     # (C, modes)
        # Invalid angles get scale 0: their statistic 0 never exceeds the
        # maximum over the valid ones, which is >= 0.
        scale = np.divide(2.0, plan.m * gain, out=np.zeros_like(gain), where=valid)
        a_mat = radar.transmit_receive_matrix(a)
        if plan.scan:
            n_draws, n_modes, m = proj.shape[:3]
            # coef[c, (i, q), (mode, s)] = P_c[q, s - i]: the anti-diagonal
            # sums of E0 P are e @ coef, for e = E0 flattened.
            coef = np.zeros((n_draws, m, m, n_modes, 2 * m - 1), dtype=complex)
            for i in range(m):
                coef[:, i, :, :, i:i + m] = np.swapaxes(proj, 1, 2)
            self.coef = coef.reshape(n_draws, m * m, -1)
            self.sig = (a_mat.reshape(-1) @ self.coef).reshape(n_draws, n_modes, -1)
            # z[k, g] = exp(-j k phi_g) = conj(z_g^k), so
            # Re(r_k z_g^k) = Re r_k Re z[k, g] + Im r_k Im z[k, g].
            z = radar.steering_vector(2 * m - 1, grid)
            trig = np.concatenate([z.real, z.imag[1:]])
            trig[1:] *= 2
            self.basis = scale[:, :, None, :] * trig             # (C, modes, 4M - 3, G)
        else:
            self.sig = np.sum(a_conj * (a_mat @ p_a), axis=-2)
            # coef[c, n, mode] = (P_c a^*)[n]
            self.coef = np.swapaxes(p_a[..., 0], 1, 2)
            self.scale = scale
            self.basis = None

    def statistics(self, noise: np.ndarray, alpha, bounds=None) -> np.ndarray:
        """Scaled GLRT statistics, shape (T, modes), for the T rows' noise
        from `_noise_block`: the maximum over the grid.  `alpha` is the
        echo amplitude of every row or, with `bounds`, one amplitude per
        SNR point segment of rows bounds[j]:bounds[j + 1]; each segment's
        numerators (the scan's anti-diagonal sums) get alpha times the echo
        term `sig` in one step (their own rows of `sig` when C = T).  The
        scan then evaluates the scaled power's trigonometric polynomial at
        every grid angle as one real product per mode; no per-angle complex
        array is built.  Columns of degenerate modes (`self.degenerate`)
        read 0."""
        t = len(noise)
        e = noise.reshape(t, -1)
        if len(self.coef) == 1:
            g = e @ self.coef[0]
        else:
            g = (e[:, None] @ self.coef)[:, 0]
        g = g.reshape((t,) + self.sig.shape[1:])
        if bounds is None:
            alpha, bounds = [alpha], [0, t]
        for a, lo, hi in zip(alpha, bounds, bounds[1:]):
            # alpha = 0 (H0) would add zeros.
            if a:
                g[lo:hi] += a * (self.sig if len(self.sig) == 1 else self.sig[lo:hi])
        if self.basis is None:
            power = g.real ** 2
            power += g.imag ** 2
            power *= self.scale
            return power.max(axis=2)
        r = _autocorrelations(g)
        terms = np.concatenate([r.real, r.imag[..., 1:]], axis=-1)  # (T, modes, 4M - 3)
        if len(self.basis) == 1:
            return np.matmul(np.swapaxes(terms, 0, 1), self.basis[0]).max(axis=2).T
        return (terms[:, :, None] @ self.basis)[:, :, 0].max(axis=2)


def _autocorrelations(d: np.ndarray) -> np.ndarray:
    """r_k = sum_s d[..., s + k] conj(d[..., s]) for k = 0 .. S - 1, of a
    (..., S) array d; shape (..., S)."""
    s = d.shape[-1]
    dc = d.conj()
    r = np.empty_like(d)
    for k in range(s):
        r[..., k] = np.einsum("...i,...i->...", d[..., k:], dc[..., :s - k])
    return r


def _tile_rows(plan: ExperimentPlan) -> int:
    """Rows per tile: at most _CHUNK, and few enough that the engine's
    per-row arrays hold at most _BLOCK_ELEMENTS entries over the tile.

    A fixed-channel engine builds one real (modes, G) statistic array per
    row, G being the number of grid angles; with the scan its other per-row
    arrays, the (modes, 2M - 1) anti-diagonal sums and autocorrelations,
    are small beside it.  Redrawn channels also set up every row: M^2 (K +
    modes) entries for the (K, M, M) projectors and the modes' stacked
    (modes, M, M) projectors, and about 5M - 1 per (mode, angle) for the
    (modes, M, G) products P a_g^* the gains are formed from, the real
    (modes, 4M - 3, G) scaled basis and the (modes, G) gains and scales.
    The scan's (M^2, modes x (2M - 1)) coefficients are small beside the
    basis.
    """
    grid = len(plan.theta_grid())
    n_modes = len(_mode_labels(plan))
    per_row = n_modes * grid
    if plan.channel_mode == CHANNEL_REDRAWN:
        per_row = plan.m ** 2 * (plan.k + n_modes) + (5 * plan.m - 1) * n_modes * grid
    return max(1, min(_CHUNK, _BLOCK_ELEMENTS // per_row))


def _tiles(plan: ExperimentPlan) -> list[list[tuple[int, int, int]]]:
    """The sweep's tiles in row order, each a list of (snr_index, first
    trial, count) segments.  A tile packs whole points up to `_tile_rows`
    rows; a point larger than that is split into tiles of its own, one
    segment each."""
    trials, rows = plan.trials_per_point, _tile_rows(plan)
    points = range(len(plan.snr_grid_db))
    if trials <= rows:
        step = rows // trials
        return [[(i, 0, trials) for i in points[j:j + step]]
                for j in range(0, len(points), step)]
    return [[(i, first, min(rows, trials - first))]
            for i in points for first in range(0, trials, rows)]


def _run_tiles(plan: ExperimentPlan, tiles: list[list[tuple[int, int, int]]],
               engine: _PointEngine | None) -> dict:
    """The trials of the sweep rows in `tiles` (`_tiles`' segment lists).

    `engine` is the fixed-channel engine; without it the channels are
    redrawn per trial and set up once per tile.  Returns tallies per SNR
    point (detections and false alarms (points, pfa, modes), degenerate
    trials (points, modes)) and, for redrawn channels, the target gains of
    the rows in order, as a list of (tile rows, modes) arrays.

    Each call owns one buffer of uniforms, allocated here for the largest
    of its tiles, so a worker thread (one call each) draws into its own
    memory and no tile allocates it again.  A tile's noise, both
    hypotheses of all of its SNR point segments, is one
    `complex_normal_ranges` draw into the buffer; redrawn channels are
    another, consumed by the engine before the noise overwrites them.  The
    Philox keys of the stream kinds the tiles read (the two noise streams,
    and the redrawn-channel stream) are derived once, before the first
    tile; the segments' SNR indices are substreams of them.
    """
    thresholds = np.array([detection.chi2_central_inv(1 - p)
                           for p in plan.pfa_list])[:, None, None]
    n_points, n_modes = len(plan.snr_grid_db), len(_mode_labels(plan))
    detections = np.zeros((n_points, len(plan.pfa_list), n_modes), dtype=np.int64)
    false_alarms = np.zeros_like(detections)
    degenerate = np.zeros((n_points, n_modes), dtype=np.int64)
    redrawn = engine is None
    gains = []
    noise_shape, noise_var = _noise_shape(plan)
    # Doubles per row: the two hypotheses' noise records, or the channel
    # record, each padded to whole Philox counter steps of 4 words.
    per_row = 2 * record_words(noise_shape)
    if redrawn:
        per_row = max(per_row, record_words(_channel_shape(plan)))
    buffer = np.empty(max(sum(count for *_, count in tile) for tile in tiles)
                      * per_row)
    kinds = [_NOISE_STREAM + _H1, _NOISE_STREAM + _H0]
    kinds += [_TRIAL_CHANNEL_STREAM] if redrawn else []
    keys = {kind: stream_key(plan.master_seed, kind) for kind in kinds}
    for tile in tiles:
        points = [i for i, _, _ in tile]
        bounds = np.cumsum([0] + [count for *_, count in tile]).tolist()
        rows = bounds[-1]
        if redrawn:
            h = complex_normal_ranges(plan.master_seed, _channel_ranges(tile),
                                      _channel_shape(plan), buffer=buffer, keys=keys)
            engine = _PointEngine(plan, _stacked_modes(plan, h)[0])
            gains.append(engine.target_gain)
        noise = complex_normal_ranges(plan.master_seed, _noise_ranges(tile, (_H1, _H0)),
                                      noise_shape, noise_var, buffer=buffer, keys=keys)
        alphas = [math.sqrt(10 ** (plan.snr_grid_db[i] / 10)) for i in points]
        s1 = engine.statistics(noise[:rows], alphas, bounds)
        s0 = engine.statistics(noise[rows:], 0.0)
        # Per-segment sums, (segments, pfa, modes); degenerate columns read
        # 0, below every threshold.
        for tally, s in ((detections, s1), (false_alarms, s0)):
            tally[points] += np.add.reduceat(s > thresholds, bounds[:-1], axis=1
                                             ).swapaxes(0, 1)
        deg = np.broadcast_to(engine.degenerate, (rows, n_modes))
        degenerate[points] += np.add.reduceat(deg, bounds[:-1], axis=0)
    return {"detections": detections, "false_alarms": false_alarms,
            "degenerate": degenerate, "gains": gains}


def run_trial(plan: ExperimentPlan, snr_db: float, pfa: float, trial_id: int) -> dict:
    """Single-trial reference path through the explicit pipeline.

    Reads the trial's channels (`_channels` with count 1: the fixed draw,
    or record trial_id of the point's redrawn-channel substream, the record
    the sweep reads) and its E0 (`_lifted_noise` at the target angle
    alone), forms the echo noise N = E0 X (so N X^H = E0) and runs
    sufficient_statistic and glrt_scan, with R = X_tx X_tx^H formed from
    each mode's samples, over `plan.theta_grid()` on the echo.
    Returns {mode label: TrialOutcome}; deterministic in (plan, snr_db, trial_id).
    """
    if snr_db not in plan.snr_grid_db:
        raise ConfigurationError(f"snr_db {snr_db} not on the plan's grid")
    if pfa not in plan.pfa_list:
        raise ConfigurationError(f"pfa {pfa} not in the plan's list")
    snr_index = plan.snr_grid_db.index(snr_db)
    alpha = math.sqrt(10 ** (snr_db / 10))
    proj = _stacked_modes(plan, _channels(plan, snr_index, trial_id, 1))[0]
    cfg = detection.DetectorConfig(pfa=pfa, theta_grid=plan.theta_grid())

    x = radar.orthogonal_waveforms(plan.m, plan.l)
    draw = _noise_block if plan.scan else _lifted_noise
    n1 = draw(plan, snr_index, _H1, trial_id, 1)[0] @ x
    n0 = draw(plan, snr_index, _H0, trial_id, 1)[0] @ x
    a_mat = radar.transmit_receive_matrix(
        radar.steering_vector(plan.m, plan.theta_target)
    )

    out = {}
    for (label, _), pm in zip(_mode_labels(plan), proj[0]):
        x_tx = pm @ x
        r = x_tx @ x_tx.conj().T
        y1 = alpha * (a_mat @ x_tx) + n1
        r1 = detection.glrt_scan(detection.sufficient_statistic(y1, x_tx), r, cfg)
        r0 = detection.glrt_scan(detection.sufficient_statistic(n0, x_tx), r, cfg)
        out[label] = TrialOutcome(
            statistic_h1=r1.statistic, statistic_h0=r0.statistic,
            detected_h1=r1.detected, detected_h0=r0.detected,
            theta_ml=r1.theta_ml, degenerate=r1.degenerate,
        )
    return out


def _mean_theory_pd(plan: ExperimentPlan, snr: np.ndarray,
                    gains: np.ndarray) -> dict:
    """Theory P_D averaged over each point's channel draws, per convention
    and P_FA: {(convention, pfa): (points, modes)}.

    `gains` is (points, C, modes) and `snr` (points,); the noncentralities
    are `detection.noncentrality`'s.  Points go in groups of about
    _BLOCK_ELEMENTS values, since the noncentral survival function takes
    several temporaries of its input's size; each point's trials are still
    reduced in one step.

    Raises NumericFailure, naming the mode, SNR and P_FA, where a value is
    not finite: the noncentral survival function returns nan from
    rho ~ 1e19 (about 175 dB at M = 4).
    """
    labels = [label for label, _ in _mode_labels(plan)]
    orthogonal = np.array([label == MODE_ORTHOGONAL for label in labels])
    step = max(1, _BLOCK_ELEMENTS // gains[0].size)
    out = {(conv, p): [] for conv in ("paper", "calibrated") for p in plan.pfa_list}
    for i in range(0, len(snr), step):
        g, s = gains[i:i + step], snr[i:i + step, None, None]
        for conv, p in out:
            rho = detection.noncentrality(conv, plan.m, s, g, orthogonal)
            out[conv, p].append(detection.theoretical_pd(rho, p).mean(axis=1))
    out = {key: np.concatenate(parts) for key, parts in out.items()}
    for (conv, p), pd in out.items():
        bad = np.argwhere(~np.isfinite(pd))
        if len(bad):
            i, mi = bad[0]
            raise NumericFailure(
                f"{conv} theory P_D of mode {labels[mi]!r} at SNR "
                f"{plan.snr_grid_db[i]!r} dB, P_FA {p!r} is {float(pd[i, mi])!r}: "
                f"the noncentral chi-squared survival function fails at so "
                f"large a noncentrality")
    return out


def run_experiment(plan: ExperimentPlan, workers: int = 1) -> ExperimentResult:
    """Full sweep over (snr, pfa, trial); deterministic for a fixed seed
    regardless of worker count."""
    t_setup = time.perf_counter()
    selection, engine = None, None
    if plan.channel_mode == CHANNEL_FIXED:
        h = _channels(plan, 0, 0, 1)
        proj, selected, p = _stacked_modes(plan, h)
        engine = _PointEngine(plan, proj)
        # The reported degradation norms are the paper's rule's, whose
        # argmin is the selection.
        x = radar.orthogonal_waveforms(plan.m, plan.l)
        _, norms = sharing.select_projector(p, x)
        x_tx = p[0, selected[0]] @ x
        residual = sharing.residual_interference(h[0, selected[0]], x_tx)
        selection = sharing.ChannelSelection(
            selected=int(selected[0]) + 1, norms=tuple(float(n) for n in norms[0]),
            residual_interference=residual)
    t_points = time.perf_counter()
    tiles = _tiles(plan)
    groups = min(workers, len(tiles))
    if groups > 1:
        # Contiguous runs of tiles, one per worker.
        runs = [tiles[len(tiles) * j // groups:len(tiles) * (j + 1) // groups]
                for j in range(groups)]
        with ThreadPoolExecutor(max_workers=groups) as pool:
            parts = list(pool.map(_run_tiles, [plan] * groups, runs, [engine] * groups))
    else:
        parts = [_run_tiles(plan, tiles, engine)]
    detections, false_alarms, degenerate = (
        sum(part[key] for part in parts)
        for key in ("detections", "false_alarms", "degenerate"))
    if engine is None:
        gains = np.concatenate([g for part in parts for g in part["gains"]])
        gains = gains.reshape(len(plan.snr_grid_db), plan.trials_per_point, -1)
    else:
        gains = np.broadcast_to(engine.target_gain, (len(plan.snr_grid_db),)
                                + engine.target_gain.shape)
    t_theory = time.perf_counter()
    snr = np.array([10 ** (s / 10) for s in plan.snr_grid_db])
    theory = _mean_theory_pd(plan, snr, gains)

    trials = plan.trials_per_point
    paper, calibrated = (np.stack([theory[conv, p] for p in plan.pfa_list], axis=1)
                         for conv in ("paper", "calibrated"))
    # CurvePoint's fields in order, each broadcast to (points, pfa, modes)
    # and listed curve by curve, point by point, P_FA by P_FA.
    values = (np.array(plan.snr_grid_db)[:, None, None], np.array(plan.pfa_list)[:, None],
              trials, detections, detections / trials,
              *wilson_interval(detections, trials), paper, calibrated,
              false_alarms, false_alarms / trials, *wilson_interval(false_alarms, trials),
              degenerate[:, None])
    points = [CurvePoint(*row) for row in zip(*(
        np.moveaxis(np.broadcast_to(v, detections.shape), -1, 0).ravel().tolist()
        for v in values))]
    n = len(points) // detections.shape[-1]
    curves = [DetectionCurve(label=label, bs_id=bs_id, points=tuple(points[j * n:][:n]))
              for j, (label, bs_id) in enumerate(_mode_labels(plan))]
    by_mode = dict(zip((c.label for c in curves), degenerate.sum(axis=0).tolist()))
    timings = {"setup": t_points - t_setup, "points": t_theory - t_points,
               "theory": time.perf_counter() - t_theory}
    return ExperimentResult(
        plan=plan, curves=tuple(curves), degenerate_trials=sum(by_mode.values()),
        selection=selection, timings_s=timings, degenerate_by_mode=by_mode,
    )


def _isotonic(y: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators fit, nondecreasing, equal weights.  Each
    value, as a block of weight 1, pools with the top of a stack of pooled
    blocks into their weighted mean while that top exceeds it by more than
    1e-15, and then goes onto the stack."""
    vals, weights = [], []
    for v in y.astype(float).tolist():
        w = 1
        while vals and vals[-1] > v + 1e-15:
            u, k = vals.pop(), weights.pop()
            v = (u * k + v * w) / (k + w)
            w += k
        vals.append(v)
        weights.append(w)
    return np.array(vals).repeat(weights)


def _snr_at_target(snr_db: np.ndarray, pd: np.ndarray, target: float):
    pd = _isotonic(pd)
    if pd[-1] < target:
        return None
    if pd[0] >= target:
        return float(snr_db[0])
    j = int(np.searchsorted(pd, target))
    x0, x1 = snr_db[j - 1], snr_db[j]
    y0, y1 = pd[j - 1], pd[j]
    if y1 == y0:
        return float(x1)
    return float(x0 + (target - y0) * (x1 - x0) / (y1 - y0))


def snr_gap(
    curves,
    target_pd: float = 0.9,
    pfa: float | None = None,
    source: str = "emp",
) -> SnrGapReport:
    """SNR (dB) each mode needs to reach the target detection probability,
    and the gap versus the orthogonal curve.

    source selects which probability the interpolation reads: "emp",
    "theory_paper", or "theory_calibrated".  Modes that never reach the
    target report None.  Raises ValueError for an unknown source or a pfa
    that the curves do not hold.
    """
    attrs = {
        "emp": "pd_emp",
        "theory_paper": "pd_theory_paper",
        "theory_calibrated": "pd_theory_calibrated",
    }
    if source not in attrs:
        raise ValueError(f"unknown source {source!r}; choose from {list(attrs)}")
    attr = attrs[source]
    pfas = list(dict.fromkeys(pt.pfa for pt in curves[0].points))
    if pfa is None:
        pfa = pfas[0]
    elif pfa not in pfas:
        raise ValueError(f"pfa {pfa!r} is not in the curves; choose from {pfas}")
    snr_at, gaps = {}, {}
    for curve in curves:
        pts = [pt for pt in curve.points if pt.pfa == pfa]
        snr_db = np.array([pt.snr_db for pt in pts])
        pd = np.array([getattr(pt, attr) for pt in pts])
        snr_at[curve.label] = _snr_at_target(snr_db, pd, target_pd)
    base = snr_at.get(MODE_ORTHOGONAL)
    for label, val in snr_at.items():
        if val is None or base is None:
            gaps[label] = None
        else:
            gaps[label] = val - base
    return SnrGapReport(
        target_pd=target_pd, pfa=pfa, source=source,
        snr_at_target=snr_at, gap_db=gaps,
    )


def mean_selected_gap_db(
    plan: ExperimentPlan,
    n_redraws: int = 50,
    convention: str = "paper",
) -> float:
    """Mean SNR gap of the selected-BS projected waveform over independent
    channel redraws, from the closed-form gap at the target angle.  Raises
    ValueError for n_redraws < 1, an unknown convention, or redraws whose
    selected waveform has zero gain at the target (every redraw when
    n_bs >= m leaves no null space)."""
    if n_redraws < 1:
        raise ValueError(f"n_redraws must be >= 1, got {n_redraws!r}")
    rngs = [rng_substream(plan.master_seed, _REDRAW_BASE + r) for r in range(n_redraws)]
    h = sharing.channel_matrices(rngs, plan.k, plan.n_bs, plan.m)
    proj = _stacked_modes(replace(plan, waveform_modes=(MODE_NSP_SELECTED,)), h)[0]
    gain = detection.direction_gain(radar.steering_vector(plan.m, plan.theta_target),
                                    proj[:, 0])
    zero = int(np.count_nonzero(gain <= 0))
    if zero:
        raise ValueError(
            f"{zero} of {n_redraws} channel redraws give the selected waveform "
            f"zero gain at the target (n_bs={plan.n_bs}, m={plan.m}); the gap "
            f"needs a null space, n_bs < m")
    return float(np.mean(detection.theory_snr_gap_db(plan.m, gain, convention)))

