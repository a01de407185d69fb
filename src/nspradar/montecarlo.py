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
order and worker count.  Redrawn channels are records of one stream too,
but of its substream 0 alone: trial t reads record t at every SNR point.
A stream is its key and a counter: each worker's tile loop derives the
keys of the stream kinds it reads once (`numerics.stream_key`), and each
draw sets a generator's key and counter per record range
(`numerics.complex_normal_ranges`), with the bits of a generator seeded
per stream, jumped to the substream and moved by `advance()`.

The engine is the only form of the detector here.  Its test oracle in
tests/oracles.py runs the explicit pipeline one trial at a time on the
echo noise N = E0 X, from draws and projectors of its own.  At the target
angle it lifts w to E0 = a w^T / M + (I - a a^H / M) G, with G from
streams 4 + hypothesis, which no sweep reads.

The detector is one GLRT maximized over `ExperimentPlan.theta_grid()`: the
scan grid, or the target angle alone when the scan is off.

The scan evaluates no complex per-angle array.  The array is a uniform
linear array, so conj(a_g[m]) conj(a_g[p]) = z_g^(m + p) with
z_g = exp(j phi_g): the numerator a_g^H E a_g^* is a polynomial in z_g
whose 2M - 1 coefficients are the anti-diagonal sums of E, and its power
is a real trigonometric polynomial in phi_g with 4M - 3 terms.  The engine
folds those terms and each angle's scale into one real basis, so a tile's
statistics are one real matrix product per mode (`_PointEngine`), taken
in blocks of rows or of points, so that no tile size grows its
(modes, rows, angles) result.  They agree with the direct per-angle form
to about 1e-15 relative (less near a null of the direction gain; see
`_PointEngine`).

`_channels` draws a (C, K, N_BS, M) stack of channels, and
`_stacked_modes` sets up the modes and the selection per draw from one
stacked `sharing` call (Gram-Schmidt, with the SVD for any channel it
cannot certify full rank).  With X X^H = I the degradation ||P X - X||_F
is sqrt(M - nullity), so the selection is the first BS of maximal nullity,
read from the same call (`sharing.select_by_nullity`), and a fixed
channel's reported norms are those square roots.  Every waveform mode is
one projector applied to X, so a set-up's modes are one stack in
`_mode_labels` order: the identity, the K projectors, and the selected
BS's projector, taken per draw by its index.  A selection rule only gives
that index, and past `_stacked_modes` only the fixed channel's selection
report reads it.  The scan and a fixed channel take the (C, modes, M, M)
projectors (`sharing.null_projectors`).  At the target angle alone the
GLRT and its theory read P only through v = P a^*: the noise coefficient
is v, the gain c = a^T v and the echo term
a^H A P a^* = (a^H a)(a^T v) = M c.  So redrawn tiles without the scan,
and `mean_selected_gap_db`, take the (C, modes, M) stack of those vectors
(`sharing.null_projections`), with a^* for the orthogonal mode, and form
no projector; the at-angle engine reduces a fixed channel's projectors to
v first, and is set up from v and c alone.
A fixed channel is stream 0 alone (C = 1); it is set up once per sweep, in
`run_experiment`.  Redrawn channels are records of substream 0 of one
Philox stream: trial t reads the fixed-width record t, its K channels of
i.i.d. CN(0, 1) entries, whatever its SNR point.  So every point sees the
same channel draws, as every point of a fixed channel does: common random
numbers (Glasserman, "Monte Carlo Methods in Financial Engineering", 2003,
sec. 4.2).  Each point's tallies keep their law, and adjacent points'
tallies are positively correlated.

The sweep is one loop over tiles (`_tiles`), in both channel modes.  A tile
is a rectangle of the (SNR point, trial) rows, (first trial, count, first
point, end point): a trial range of n trials, n the trials per point up to
`_range_trials`, times a block of as many points as fit `_tile_rows` rows.
A tile's noise, both hypotheses of all of its rows, is one
`numerics.complex_normal_ranges` draw into its thread's buffer of
uniforms, allocated once for the largest tile; each hypothesis's
statistics are one (points, n) block (`_PointEngine.statistics`), each
point with its own amplitude, and its tallies one sum over the trial axis.
A fixed channel's engine is shared by every tile.  With redrawn channels a
trial range is drawn and set up once (C = n draws: one stacked set-up and
one engine), and each of its point blocks runs against that engine; the
engine holds no view of the buffer that the blocks' noise overwrites.
With workers, threads run contiguous runs of tiles through the same loop
(one `_run_tiles` call each); a trial range whose point blocks land in two
threads is set up in both, from the same records and so with the same
bits.  Every row reads its own noise record and its trial's channel
record, and a channel's projector does not depend on the stack it sits in,
so no tile size changes an output.

The theory curves average P_D(rho_t) over the trials' channel draws, from
the per-trial target gains c_t alone, one (C, modes) array that every
point shares; with a fixed channel that is the value at its one gain.  The
survival function is evaluated once per distinct noncentrality, so a
column that copies another's gains (the selected BS's beside nsp-per-bs)
costs no evaluation, and a mode whose draws share one noncentrality (the
orthogonal mode, a fixed channel, no null space) reads that value
(`_mean_theory_pd`).
"""

from __future__ import annotations

import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import detection, radar, sharing
from .errors import ConfigurationError
from .numerics import complex_normal_ranges, record_words, rng_substream, stream_key

MODE_ORTHOGONAL = "orthogonal"
MODE_NSP_PER_BS = "nsp-per-bs"
MODE_NSP_SELECTED = "nsp-selected"
_KNOWN_MODES = (MODE_ORTHOGONAL, MODE_NSP_PER_BS, MODE_NSP_SELECTED)

CHANNEL_FIXED = "fixed-per-experiment"
CHANNEL_REDRAWN = "redrawn-per-trial"

# Streams under the master seed, one per kind; the SNR index is the
# substream of the noise kinds:
#   0                    fixed-per-experiment channels (acceptance seeds are
#                        pinned to this draw);
#   1                    redrawn channels: record t of substream 0 holds
#                        trial t's K channels, shared by every SNR point;
#   2 + hypothesis       noise (E0 with the scan, w without it), one
#                        fixed-width record per trial;
#   4 + hypothesis       reserved: only the lift of w to E0 in the test
#                        oracle (tests/oracles.py) draws them;
#   _REDRAW_BASE + r     channel redraws of mean_selected_gap_db (pinned
#                        like stream 0).
_CHANNEL_STREAM = 0
_TRIAL_CHANNEL_STREAM = 1
_NOISE_STREAM = 2
_REDRAW_BASE = 2**62
_H1 = 0
_H0 = 1

_WILSON_Z = 1.959963984540054  # 95%
# A tile holds at most _CHUNK rows, the per-row arrays it holds whole take
# at most _BLOCK_ELEMENTS entries (`_tile_rows`), and so does the set-up of
# a redrawn trial range (`_range_trials`).  The scan's grid product
# (`_PointEngine.statistics`) and the theory curves (`_mean_theory_pd`) are
# evaluated on about _BLOCK_ELEMENTS values at a time.  All of these bound
# the memory a sweep takes.
_CHUNK = 2000
_BLOCK_ELEMENTS = 2**17
# A plan takes at most _MAX_TRIALS trials per point: a redrawn run holds the
# target gain of every trial and mode for the theory, and its survival
# function takes temporaries of that size per point, 56 MB each for fig3 at
# this bound; the tile list grows with the trials in every channel mode.
_MAX_TRIALS = 10**6
# A scan grid has at most _MAX_SCAN_ANGLES angles, so that one row of one
# mode's statistics over the grid fits a block.
_MAX_SCAN_ANGLES = _BLOCK_ELEMENTS


def max_snr_db(m: int) -> float:
    """The largest SNR (dB) a plan with m antennas accepts, about
    2967.5 - 20 log10(m) dB; derived above its check in `ExperimentPlan`."""
    return (10 * math.log10(sys.float_info.max * detection.GAIN_FLOOR_FRAC / 32)
            - 20 * math.log10(m))


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

    def __post_init__(self):
        object.__setattr__(self, "snr_grid_db", tuple(float(s) for s in self.snr_grid_db))
        object.__setattr__(self, "pfa_list", tuple(float(p) for p in self.pfa_list))
        object.__setattr__(self, "waveform_modes", tuple(self.waveform_modes))
        if min(self.m, self.n_bs, self.k) < 1:
            raise ConfigurationError(
                f"m, n_bs and k must all be >= 1, got m={self.m}, n_bs={self.n_bs}, "
                f"k={self.k}", "m" if self.m < 1 else "n_bs" if self.n_bs < 1 else "k")
        if not 1 <= self.trials_per_point <= _MAX_TRIALS:
            raise ConfigurationError(
                f"trials_per_point must lie in [1, {_MAX_TRIALS}], "
                f"got {self.trials_per_point}", "trials_per_point")
        if not self.snr_grid_db:
            raise ConfigurationError("snr grid must be non-empty", "snr_grid_db")
        if not all(math.isfinite(s) for s in self.snr_grid_db):
            raise ConfigurationError(
                f"snr grid values must be finite, got {self.snr_grid_db}", "snr_grid_db")
        # Up to S = F f / (32 M^2), with F the largest float and f the gain
        # floor (`detection.GAIN_FLOOR_FRAC`), every value the sweep forms
        # is finite, for every grid and projector.  Take an SNR s <= S.
        # - Noise: no normal lies beyond ndtri(2 ** -54) = -8.29
        #   (`numerics.normal_from_uniform`), so ||E0||_F <= 8.3 M and the
        #   at-angle noise vector has ||w|| <= 8.3 M.  Since sqrt(S) is
        #   about 1e147, (sqrt(s) + 8.3)^2 <= 2 S.
        # - Scan: the anti-diagonal sums d of E = (alpha A + E0) P
        #   (`_PointEngine`) have ||d||^2 <= M ||E||_F^2
        #   <= M^3 (sqrt(s) + 8.3)^2 <= 2 M^3 S, as ||A||_F = M and
        #   ||P||_2 <= 1.  Each of the 4M - 3 terms is a part of an
        #   autocorrelation, at most ||d||^2 in size, and each basis entry
        #   is at most 2 * 2 / (M c_g) <= 4 / (f M^2).  So every partial sum
        #   of a terms @ basis product is below
        #   4M * 2 M^3 S * 4 / (f M^2) = 32 M^2 S / f = F.
        # - At the target angle alone: the numerator
        #   g = w^T P a^* + alpha M c has |g| <= sqrt(c) (||w|| + sqrt(s) M^1.5)
        #   with c <= M, so |g|^2 <= 2 M^4 S = F f M^2 / 16, below F for
        #   every M whose M x M matrices fit in memory (M < 4e5), and the
        #   scaled power 2 |g|^2 / (M c) <= 4 M^3 S likewise.
        # - Theory: both `detection.noncentrality` conventions are at most
        #   2 s M^2 <= F f / 16.
        top = max_snr_db(self.m)
        too_large = [s for s in self.snr_grid_db if s > top]
        if too_large:
            raise ConfigurationError(
                f"snr grid values must be at most {top!r} dB at m = {self.m}, "
                f"where the statistics stay finite, got {too_large}", "snr_grid_db")
        if not self.pfa_list:
            raise ConfigurationError("pfa list must be non-empty", "pfa_list")
        for p in self.pfa_list:
            detection.check_pfa(p, "pfa_list")
        if self.l < self.m:
            raise ConfigurationError(f"need l >= m, got l={self.l}, m={self.m}", "l")
        if self.channel_mode not in (CHANNEL_FIXED, CHANNEL_REDRAWN):
            raise ConfigurationError(f"unknown channel_mode {self.channel_mode!r}",
                                     "channel_mode")
        if not self.waveform_modes:
            raise ConfigurationError("waveform modes must be non-empty", "waveform_modes")
        unknown = [w for w in self.waveform_modes if w not in _KNOWN_MODES]
        if unknown:
            raise ConfigurationError(f"unknown waveform modes: {unknown}", "waveform_modes")
        # Each (mode, snr, pfa) is one results.csv row and one curve key.
        for field_name, name in (("snr_grid_db", "snr grid values"),
                                 ("pfa_list", "pfa values"),
                                 ("waveform_modes", "waveform modes")):
            values = getattr(self, field_name)
            if len(set(values)) < len(values):
                raise ConfigurationError(f"{name} must be distinct, got {list(values)}",
                                         field_name)
        if not 0 < self.theta_step_deg <= 180:
            raise ConfigurationError("theta_step_deg must lie in (0, 180]", "theta_step_deg")
        # Counted before `theta_grid` builds the grid.
        if self.scan and 180 / self.theta_step_deg + 1 > _MAX_SCAN_ANGLES:
            raise ConfigurationError(
                f"theta_step_deg = {self.theta_step_deg!r} gives a scan grid of "
                f"about {180 / self.theta_step_deg + 1:.4g} angles; the scan takes "
                f"at most {_MAX_SCAN_ANGLES}, a step of at least "
                f"{180 / (_MAX_SCAN_ANGLES - 1)!r} degrees", "theta_step_deg")
        if not abs(self.theta_target_deg) <= 90:  # also rejects nan
            raise ConfigurationError("theta_target_deg must lie in [-90, 90]",
                                     "theta_target_deg")

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


class CurvePoint(NamedTuple):
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
    bs_id: str          # the BS number "<N>", else the mode without "nsp-"
    points: tuple[CurvePoint, ...]


@dataclass(frozen=True)
class ExperimentResult:
    plan: ExperimentPlan
    curves: tuple[DetectionCurve, ...]
    selection: sharing.ChannelSelection | None  # fixed-channel runs only
    # Seconds per stage: "setup" (the fixed channel's engine), "points"
    # (the trials) and "theory" (the theory curves and the curve tables).
    timings_s: dict[str, float] = field(default_factory=dict)
    # Degenerate trials per mode label.
    degenerate_by_mode: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class SnrGapReport:
    target_pd: float
    pfa: float
    source: str
    snr_at_target: dict
    gap_db: dict


def wilson_interval(successes, n):
    """95% Wilson score interval (z = _WILSON_Z) for a binomial rate: (lo, hi)
    as floats for scalar counts, as arrays (elementwise, broadcast) for
    array counts.

    Each element takes the operations of the scalar formula in its order,
    so it has the scalar formula's bits; n = 0 gives (0, 1).
    """
    k, n, z = np.asarray(successes), np.asarray(n), _WILSON_Z
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
        if mode == MODE_NSP_PER_BS:
            out.extend((f"nsp-bs{i}", str(i)) for i in range(1, plan.k + 1))
        else:  # bs_id: the mode without its "nsp-" prefix
            out.append((mode, mode.removeprefix("nsp-")))
    return out


def _stacked_modes(
    plan: ExperimentPlan, h: np.ndarray, x: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The modes' projectors for a (C, K, N_BS, M) stack of channel draws:
    (proj, selected, p, nullity), with proj the (C, modes, M, M) stack in
    `_mode_labels` order, selected the chosen BS's 0-based index (C,), p
    the BSs' projectors (C, K, M, M) and nullity their nullities (C, K).

    Given an M-vector x, every projector P is P x instead
    (`sharing.null_projections`): proj is (C, modes, M), with x for the
    orthogonal mode, and p is (C, K, M).  At the target angle alone the
    engine reads P only through P a^*, so it is set up from x = a^*.

    The orthogonal waveforms have X X^H = I, so the minimum-degradation
    selection is the first BS of maximal nullity (`sharing.select_by_nullity`),
    and BS i's degradation norm is sqrt(M - nullity_i); no waveform is
    formed."""
    # The orthogonal mode's entry: the identity, or I x = x.
    if x is None:
        p, nullity = sharing.null_projectors(h)  # (C, K, M, M)
        unprojected = np.eye(plan.m, dtype=complex)
    else:
        p, nullity = sharing.null_projections(h, x)  # (C, K, M)
        unprojected = x
    selected = sharing.select_by_nullity(nullity)
    c = len(h)
    blocks = {
        MODE_ORTHOGONAL: np.broadcast_to(unprojected, (c, 1) + unprojected.shape),
        MODE_NSP_PER_BS: p,
        MODE_NSP_SELECTED: p[np.arange(c), selected, None],
    }
    proj = np.concatenate([blocks[mode] for mode in plan.waveform_modes], axis=1)
    return proj, selected, p, nullity


def _noise_shape(plan: ExperimentPlan) -> tuple[tuple[int, ...], float]:
    """(record shape, variance) of one trial's noise: E0 = N X^H, M x M of
    i.i.d. CN(0, 1) entries, with the scan; w = E0^T a^*, M i.i.d. CN(0, M)
    entries, without it."""
    return ((plan.m, plan.m), 1.0) if plan.scan else ((plan.m,), float(plan.m))


def _channels(plan: ExperimentPlan, snr_index: int, first: int, count: int,
              keys: dict | None = None) -> np.ndarray:
    """(C, K, N_BS, M) channel draws for trials [first, first + count).

    Every SNR point shares its trials' channels, so `snr_index` selects
    nothing; it keeps the (plan, snr_index, first, count) form of
    `_noise_block`.  A fixed channel is stream 0 alone (C = 1) for every
    trial.  Redrawn channels (C = count) are records [first, first + count)
    of substream 0 of the redrawn-channel stream, one record of K channels
    of i.i.d. CN(0, 1) entries per trial, so a block equals its trials
    drawn one by one.  `keys` is `complex_normal_ranges`'.
    """
    if plan.channel_mode == CHANNEL_FIXED:
        rng = rng_substream(plan.master_seed, _CHANNEL_STREAM)
        return sharing.channel_matrices([rng], plan.k, plan.n_bs, plan.m)
    return complex_normal_ranges(plan.master_seed,
                                 [(_TRIAL_CHANNEL_STREAM, 0, first, count)],
                                 (plan.k, plan.n_bs, plan.m), keys=keys)


def _noise_block(plan: ExperimentPlan, snr_index: int, hypothesis: int,
                 first: int, count: int) -> np.ndarray:
    """The noise of trials [first, first + count) of SNR point snr_index
    under one hypothesis: a (count,) + record shape array (`_noise_shape`)."""
    return complex_normal_ranges(
        plan.master_seed, [(_NOISE_STREAM + hypothesis, snr_index, first, count)],
        *_noise_shape(plan))


class _PointEngine:
    """Vectorized statistic evaluation for the (C, modes, M, M) projector
    stack of `_stacked_modes`, over C channel draws, or at the target angle
    alone for its (C, modes, M) stack of the vectors P a^*.

    With X X^H = I the matched filter of mode P is E = (alpha A + E0) P, as
    X X_tx^H = X X^H P = P, and P is the waveform correlation R too.  At
    scan angle g the GLRT numerator is n_g = a_g^H E a_g^*.  The array is
    uniform and linear, so conj(a_g[m]) conj(a_g[p]) = z_g^(m + p) with
    z_g = exp(j phi_g), phi_g = 2 pi (d / lambda) sin(theta_g), and

        n_g = sum_{s=0}^{2M-2} d_s z_g^s,

    d holding the anti-diagonal sums of E.  d is linear in E0: with one
    channel draw (C = 1) a tile of T rows takes one
    (T, M^2) @ (M^2, modes x (2M - 1)) product for all modes, across its
    SNR points; with C = n draws trial t of every point is evaluated
    against draw t.  The echo's anti-diagonal sums (`sig`, those of A P)
    scale by one alpha for all rows of a point, so `statistics` adds them
    once per point, broadcast over its trials.
    The numerator's power is then a real trigonometric polynomial in phi_g,

        |n_g|^2 = r_0 + 2 sum_{k=1}^{2M-2} (Re r_k cos k phi_g - Im r_k sin k phi_g),

    with the autocorrelations r_k = sum_s d_{s+k} conj(d_s).  `basis`, built
    once, holds its 4M - 3 terms at every grid angle times the angle's scale
    2 / (M c_g), so the scaled statistics are one real product of the rows'
    (4M - 3) autocorrelation coefficients per mode.  The grid is
    `plan.theta_grid()`.  At the target angle alone the numerator's noise
    term is w^T v with v = P a^*, and the product is (T, M) @ (M, modes) on
    the `_noise_block` vectors w.  The set-up reads only v and the gain
    c = a^T v (`detection.projected_gain`): c gives the scale and the
    degenerate flags, and the echo term is M c.  A (C, modes, M) stack of
    the vectors v sets it up directly; a projector stack is reduced to
    P a^* first.  Both are exact rewrites of the GLRT on
    E = (alpha A X_tx + E0 X) X_tx^H.  The scan's statistics
    agree with the direct form to about 1e-15 relative.  Where the
    maximizing angle's gain c_g is far below M (near a null of a rank-one
    projector) the power is a small difference of terms of size r_0, and
    the error grows to about 1e-16 M / c_g.
    """

    def __init__(self, plan: ExperimentPlan, proj: np.ndarray):
        a = radar.steering_vector(plan.m, plan.theta_target)
        if plan.scan:
            grid = plan.theta_grid()
            a_grid = radar.steering_vector(plan.m, grid)         # (M, G)
            p_a = proj @ a_grid.conj()                           # (C, modes, M, G)
            self.target_gain = detection.direction_gain(a, proj)  # (C, modes)
            # c_g = a_g^H P^T a_g = a_g^T P a_g^*
            gain = np.real(np.sum(a_grid * p_a, axis=-2))       # (C, modes, G)
        else:
            if proj.ndim == 4:
                proj = proj @ a.conj()                           # v = P a^*
            self.target_gain = detection.projected_gain(a, proj)  # c = a^T v
            gain = self.target_gain[..., None]                   # the one grid angle
        valid = gain >= detection.GAIN_FLOOR_FRAC * plan.m
        self.degenerate = ~valid.any(axis=-1)                    # (C, modes)
        # Invalid angles get scale 0: their statistic 0 never exceeds the
        # maximum over the valid ones, which is >= 0.
        scale = np.divide(2.0, plan.m * gain, out=np.zeros_like(gain), where=valid)
        if plan.scan:
            a_mat = radar.transmit_receive_matrix(a)
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
            # a^H A P a^* = (a^H a)(a^T v) = M c
            self.sig = plan.m * gain
            # coef[c, n, mode] = v_c[n]
            self.coef = np.swapaxes(proj, 1, 2)
            self.scale = scale
            self.basis = None

    def statistics(self, noise: np.ndarray, alpha) -> np.ndarray:
        """Scaled GLRT statistics, the maximum over the grid, of a block of
        rows: shape lead + (modes,) for noise of shape lead + record (the
        records of `_noise_block`).  A tile's block is (P, n), P SNR
        points' noise over the same n trials; with C = n channel draws
        trial t is read against draw t, and with one draw (C = 1) any
        leading shape goes.  `alpha`, the echo amplitude, broadcasts
        against the leading axes: the P points' amplitudes of a (P, n)
        block, or one for every row.  The numerators (the scan's
        anti-diagonal sums) get alpha times the echo term `sig`.  The scan
        then evaluates the scaled power's trigonometric polynomial at every
        grid angle as one real product per mode; no per-angle complex array
        is built.  That product and its maximum over the grid run in blocks
        into the one output: with one draw, the polynomial's terms too, in
        row blocks of _BLOCK_ELEMENTS // (modes G) rows, G being the number
        of grid angles; with C = n draws, in blocks of
        _BLOCK_ELEMENTS // (n modes G) points.  Only the anti-diagonal sums
        span the block, so no tile size grows the grid-sized temporary.
        Columns of degenerate modes (`self.degenerate`) read 0."""
        lead = noise.shape[:noise.ndim - (1 if self.basis is None else 2)]
        if len(self.coef) == 1:
            g = noise.reshape(math.prod(lead), -1) @ self.coef[0]
        else:
            g = (noise.reshape(lead + (1, -1)) @ self.coef)[..., 0, :]
        g = g.reshape(lead + self.sig.shape[1:])
        alpha = np.asarray(alpha, dtype=float)
        # alpha = 0 (H0) would add zeros.
        if alpha.any():
            g += alpha.reshape(alpha.shape + (1,) * (g.ndim - alpha.ndim)) * self.sig
        if self.basis is None:
            power = g.real ** 2
            power += g.imag ** 2
            power *= self.scale
            return power.max(axis=-1)
        out = np.empty(g.shape[:-1])
        if len(self.basis) > 1:
            # Blocks of the axes before the draws'; a block's terms meet
            # each draw's basis in one batched product.
            rows = g.reshape((-1,) + g.shape[-3:])
            flat = out.reshape((-1,) + out.shape[-2:])
            step = max(1, _BLOCK_ELEMENTS // self.basis[..., 0, :].size)
            for lo in range(0, len(rows), step):
                terms = _power_terms(rows[lo:lo + step])[..., None, :]
                flat[lo:lo + step] = (terms @ self.basis)[..., 0, :].max(axis=-1)
            return out
        # The terms go block by block too.  Formed for the whole tile beside
        # the product block, they took a 2000-row call's working set past
        # the point where the allocator hands it back to the system after
        # the call, and the next call faulted it in again: about 550 minor
        # page faults a call.
        basis = self.basis[0]
        rows, flat = g.reshape((-1,) + g.shape[-2:]), out.reshape(-1, len(basis))
        step = max(1, _BLOCK_ELEMENTS // (len(basis) * basis.shape[-1]))
        for lo in range(0, len(rows), step):
            block = np.swapaxes(_power_terms(rows[lo:lo + step]), 0, 1)
            flat[lo:lo + step] = np.matmul(block, basis).max(axis=2).T
        return out


def _power_terms(d: np.ndarray) -> np.ndarray:
    """The 2S - 1 real coefficients of |sum_s d[..., s] z^s|^2 on |z| = 1
    (`_PointEngine`), of a (..., S) array d: the real parts of
    r_0 .. r_{S-1} and the imaginary parts of r_1 .. r_{S-1}, with the
    autocorrelations r_k = sum_s d[..., s + k] conj(d[..., s]); shape
    (..., 2S - 1)."""
    s = d.shape[-1]
    dc = d.conj()
    r = np.empty_like(d)
    for k in range(s):
        r[..., k] = np.einsum("...i,...i->...", d[..., k:], dc[..., :s - k])
    return np.concatenate([r.real, r.imag[..., 1:]], axis=-1)


def _tile_rows(plan: ExperimentPlan) -> int:
    """Rows per tile, in both channel modes: at most _CHUNK, and few enough
    that the per-row arrays the tile holds whole take at most
    _BLOCK_ELEMENTS entries.

    A tile is the unit of draws, statistics and tallies.  With the scan the
    engine forms the (modes, G) statistic arrays of the grid product in
    blocks of its own (`_PointEngine.statistics`), G being the number of
    grid angles, so the budget counts the per-row entries that do not grow
    with the grid: with the scan, the (modes, 2M - 1) anti-diagonal sums
    and the (modes, 4M - 3) autocorrelation terms, 6M - 4 entries per mode,
    which gives the fig4 scan plan 2000 rows, 20 whole 100-trial points per
    tile; at the target angle alone, the (modes,) statistics.
    """
    n_modes = len(_mode_labels(plan))
    per_row = n_modes * (6 * plan.m - 4) if plan.scan else n_modes
    return max(1, min(_CHUNK, _BLOCK_ELEMENTS // per_row))


def _range_trials(plan: ExperimentPlan) -> int:
    """The most trials of one trial range: `_tile_rows`, and with redrawn
    channels few enough that the range's set-up, one per draw, takes at
    most _BLOCK_ELEMENTS entries.

    With the scan a draw takes M^2 (K + modes) entries for the (K, M, M)
    projectors and the modes' stacked (modes, M, M) projectors; at the
    target angle alone, M (K + modes) for the (K, M) vectors P a^* and the
    modes' stacked (modes, M) ones (`_stacked_modes` with x = a^*).  Both
    add 5M - 1 per (mode, angle).  With the scan that is what the engine
    allocates: the (modes, M, G) products P a_g^* the gains are formed
    from, the real (modes, 4M - 3, G) scaled basis and the (modes, G) gains
    and scales; its (M^2, modes x (2M - 1)) coefficients are small beside
    the basis.  At the target angle alone (G = 1) the engine holds only the
    gain, the scale and the echo term per mode, and its (M, modes)
    coefficients are a view of the stacked vectors, so there the term
    bounds the set-up with room to spare: 724 draws for the fig3 at-angle
    redrawn plan, 2 for its scan on a 0.5 degree grid.
    """
    rows = _tile_rows(plan)
    if plan.channel_mode == CHANNEL_FIXED:
        return rows
    n_modes, grid = len(_mode_labels(plan)), len(plan.theta_grid())
    per_vector = plan.m ** 2 if plan.scan else plan.m
    per_draw = per_vector * (plan.k + n_modes) + (5 * plan.m - 1) * n_modes * grid
    return max(1, min(rows, _BLOCK_ELEMENTS // per_draw))


def _tiles(plan: ExperimentPlan) -> list[tuple[int, int, int, int]]:
    """The sweep's tiles, each a rectangle (first trial, count, first point,
    end point): trials [first, first + count) of SNR points
    [first point, end point).  A trial range takes
    n = min(trials per point, `_range_trials`) trials, and a point block
    max(1, `_tile_rows` // n) points; tiles go range by range, and block by
    block within a range.  With a fixed channel a tile thus packs whole
    points up to `_tile_rows` rows, and a point larger than that is split
    into tiles of one range each."""
    trials, points = plan.trials_per_point, len(plan.snr_grid_db)
    n = min(trials, _range_trials(plan))
    block = max(1, _tile_rows(plan) // n)
    return [(first, min(n, trials - first), lo, min(lo + block, points))
            for first in range(0, trials, n) for lo in range(0, points, block)]


def _run_tiles(plan: ExperimentPlan, tiles: list[tuple[int, int, int, int]],
               engine: _PointEngine | None) -> dict:
    """The trials of the sweep rows in `tiles` (`_tiles`' rectangles).

    `engine` is the fixed-channel engine; without it the channels are
    redrawn per trial, and each trial range is drawn and set up once, for
    the run of its tiles here.  Returns tallies per SNR point (detections
    and false alarms (points, pfa, modes), degenerate trials (points,
    modes)) and, for redrawn channels, the target gains of the trial ranges
    whose first point block is here, in order, a list of (count, modes)
    arrays: the theory needs nothing else of a draw.  At the target angle
    alone a range is set up from the vectors P a^* (`_stacked_modes` with
    x = a^*), not the projectors.

    Each call owns one buffer of uniforms, allocated here for the largest
    of its tiles, so a worker thread (one call each) draws into its own
    memory and no tile allocates it again.  A tile's noise, both
    hypotheses of all of its points, is one `complex_normal_ranges` draw
    into the buffer; redrawn channels are drawn into memory of their own,
    which the engine may keep.  The Philox keys of the stream kinds the
    tiles read (the two noise streams, and the redrawn-channel stream) are
    derived once, before the first tile; the SNR indices are substreams of
    the noise streams.
    """
    thresholds = np.array([detection.chi2_central_inv(1 - p)
                           for p in plan.pfa_list])[:, None, None]
    n_points, n_modes = len(plan.snr_grid_db), len(_mode_labels(plan))
    detections = np.zeros((n_points, len(plan.pfa_list), n_modes), dtype=np.int64)
    false_alarms = np.zeros_like(detections)
    degenerate = np.zeros((n_points, n_modes), dtype=np.int64)
    alphas = [math.sqrt(10 ** (s / 10)) for s in plan.snr_grid_db]
    redrawn = engine is None
    gains, drawn = [], None
    x = None if plan.scan else radar.steering_vector(plan.m, plan.theta_target).conj()
    noise_shape, noise_var = _noise_shape(plan)
    # Doubles per row: the two hypotheses' noise records, each padded to
    # whole Philox counter steps of 4 words.
    buffer = np.empty(max(count * (end - lo) for _, count, lo, end in tiles)
                      * 2 * record_words(noise_shape))
    kinds = [_NOISE_STREAM + _H1, _NOISE_STREAM + _H0]
    kinds += [_TRIAL_CHANNEL_STREAM] if redrawn else []
    keys = {kind: stream_key(plan.master_seed, kind) for kind in kinds}
    for first, count, lo, end in tiles:
        if redrawn and first != drawn:
            h = _channels(plan, 0, first, count, keys=keys)
            engine, drawn = _PointEngine(plan, _stacked_modes(plan, h, x)[0]), first
            if lo == 0:
                gains.append(engine.target_gain)
        ranges = [(_NOISE_STREAM + hypothesis, i, first, count)
                  for hypothesis in (_H1, _H0) for i in range(lo, end)]
        noise = complex_normal_ranges(plan.master_seed, ranges, noise_shape, noise_var,
                                      buffer=buffer, keys=keys)
        noise = noise.reshape((2, end - lo, count) + noise_shape)
        # (points, pfa, modes) sums over the trials, taken with the trials
        # last in memory: a bool sum along a middle axis took 6 times as
        # long.  Degenerate columns read 0, below every threshold.
        for tally, s in ((detections, engine.statistics(noise[0], alphas[lo:end])),
                         (false_alarms, engine.statistics(noise[1], 0.0))):
            s = np.ascontiguousarray(s.swapaxes(1, 2))[:, None]
            tally[lo:end] += (s > thresholds).sum(axis=-1)
        degenerate[lo:end] += np.broadcast_to(engine.degenerate, (count, n_modes)).sum(axis=0)
    return {"detections": detections, "false_alarms": false_alarms,
            "degenerate": degenerate, "gains": gains}


def _mean_theory_pd(plan: ExperimentPlan, gains: np.ndarray) -> np.ndarray:
    """Theory P_D averaged over the channel draws: a (convention, points,
    pfa, modes) array, the conventions "paper" and "calibrated".

    `gains` is (C, modes), the target gains of the draws every point
    shares; the noncentralities are `detection.noncentrality`'s at the
    linear SNR of each grid point.  The survival function is evaluated once
    per distinct noncentrality of a group of points, and a (point, mode)
    whose draws share one noncentrality reads that value, not a mean of
    equal values: the orthogonal mode, a fixed channel (C = 1), or a mode
    with no null space.  Points go in groups of about _BLOCK_ELEMENTS
    values, since the noncentral survival function takes several
    temporaries of its input's size; each point's trials are still reduced
    in one step.
    """
    orthogonal = np.array([label == MODE_ORTHOGONAL for label, _ in _mode_labels(plan)])
    conventions = ("paper", "calibrated")
    snr = np.array([10 ** (s / 10) for s in plan.snr_grid_db])
    pd = np.empty((len(conventions), len(snr), len(plan.pfa_list), len(orthogonal)))
    step = max(1, _BLOCK_ELEMENTS // gains.size)
    for i in range(0, len(snr), step):
        s = snr[i:i + step, None, None]
        for c, conv in enumerate(conventions):
            rho = detection.noncentrality(conv, plan.m, s, gains, orthogonal)
            distinct, index = np.unique(rho, return_inverse=True)
            index = index.reshape(rho.shape)
            shared = (rho == rho[:, :1]).all(axis=1)
            for j, p in enumerate(plan.pfa_list):
                trial_pd = detection.theoretical_pd(distinct, p)[index]
                pd[c, i:i + step, j] = np.where(shared, trial_pd[:, 0], trial_pd.mean(axis=1))
    return pd


def run_experiment(plan: ExperimentPlan, workers: int = 1) -> ExperimentResult:
    """Full sweep over (snr, pfa, trial); deterministic for a fixed seed
    regardless of worker count."""
    t_setup = time.perf_counter()
    selection, engine = None, None
    if plan.channel_mode == CHANNEL_FIXED:
        h = _channels(plan, 0, 0, 1)
        proj, selected, p, nullity = _stacked_modes(plan, h)
        engine = _PointEngine(plan, proj)
        best = int(selected[0])
        selection = sharing.ChannelSelection(
            selected=best + 1,
            norms=tuple(math.sqrt(plan.m - n) for n in nullity[0].tolist()),
            residual_interference=sharing.residual_interference(h[0, best], p[0, best]))
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
    gains = (engine.target_gain if engine is not None else
             np.concatenate([g for part in parts for g in part["gains"]]))
    t_theory = time.perf_counter()
    paper, calibrated = _mean_theory_pd(plan, gains)

    trials = plan.trials_per_point
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
        plan=plan, curves=tuple(curves), selection=selection, timings_s=timings,
        degenerate_by_mode=by_mode,
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
    a = radar.steering_vector(plan.m, plan.theta_target)
    v = _stacked_modes(replace(plan, waveform_modes=(MODE_NSP_SELECTED,)), h, a.conj())[0]
    gain = detection.projected_gain(a, v[:, 0])
    zero = int(np.count_nonzero(gain <= 0))
    if zero:
        raise ValueError(
            f"{zero} of {n_redraws} channel redraws give the selected waveform "
            f"zero gain at the target (n_bs={plan.n_bs}, m={plan.m}); the gap "
            f"needs a null space, n_bs < m")
    return float(np.mean(detection.theory_snr_gap_db(plan.m, gain, convention)))

