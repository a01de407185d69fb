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

Noise comes from one Philox stream under the master seed, and the SNR
index is the substream (counter word 2, numpy's `Philox.jumped`).  Trial t
reads a fixed-width record at a fixed offset of its point's substream, so
results are independent of tiling, execution order and worker count.  Both
hypotheses read that record: a trial's H0 echo is its H1 echo without the
target (alpha = 0), common random numbers across the hypothesis pair.
Each tally keeps its binomial law, and a row's detection and false-alarm
tallies are dependent.  Redrawn channels are records of one stream too,
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
stream 4, which no sweep reads.

The detector is one GLRT maximized over `ExperimentPlan.theta_grid()`: the
scan grid, or the target angle alone when the scan is off.

The scan evaluates no complex per-angle array.  The array is a uniform
linear array, so conj(a_g[m]) conj(a_g[p]) = z_g^(m + p) with
z_g = exp(j phi_g): the numerator a_g^H E a_g^* is a polynomial in z_g
whose 2M - 1 coefficients are the anti-diagonal sums of E, and its power
is a real trigonometric polynomial in phi_g with 4M - 3 terms.  The engine
folds those terms and each angle's scale into one real basis, so a tile's
statistics are one real matrix product per channel draw and mode
(`_PointEngine`), taken in one loop of blocks (of rows with a fixed
channel, of points with redrawn ones), so that no tile size grows its
(modes, rows, angles) result.  They agree with the direct per-angle form
to about 1e-15 relative (less near a null of the direction gain; see
`_PointEngine`).

`_channels` draws a (C, K, N_BS, M) stack of channels, and
`_stacked_modes` sets up the modes and the selection per draw from one
stacked `sharing.null_projectors` call (Gram-Schmidt, with the SVD for any
channel it cannot certify full rank).  With X X^H = I the degradation
||P X - X||_F is sqrt(M - nullity), so the selection is the first BS of
maximal nullity, read from the same call (`sharing.select_by_nullity`),
and a fixed channel's reported norms are those square roots.  Every waveform mode is
one projector applied to X, so a set-up's modes are one stack in
`_mode_labels` order: the identity, the K projectors, and the selected
BS's projector, taken per draw by its index.  A selection rule only gives
that index, and past `_stacked_modes` only the fixed channel's selection
report reads it.  Every set-up takes that (C, modes, M, M) projector
stack: fixed and redrawn channels, with and without the scan, and
`mean_selected_gap_db`.  At the target angle alone the GLRT and its theory
read P only through v = P a^*: the noise coefficient is v, the gain
c = a^T v and the echo term a^H A P a^* = (a^H a)(a^T v) = M c.  The
engine forms v and c once, whatever the grid, so the scan's target gains
are the at-angle ones bit for bit.
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
A tile's noise, one record per row, is one
`numerics.complex_normal_ranges` draw into its thread's buffer of
uniforms, allocated once for the largest tile; each hypothesis's
statistics are one (points, n) block on that noise
(`_PointEngine.statistics`), under H1 each point with its own amplitude
and under H0 with none, and its tallies one sum over the trial axis.
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
point shares; with a fixed channel that is the value at its one gain.  A
noncentrality is the point's SNR times a factor of the gain alone, so one
`np.unique` per convention over the draws' factors serves every point:
the survival function is evaluated on one (points, distinct factors)
table, a column that copies another's gains (the selected BS's beside
nsp-per-bs) costs no evaluation, and a mode whose draws share one
noncentrality (the orthogonal mode, a fixed channel, no null space) reads
that value (`_mean_theory_pd`).

A sweep's result is its columns (`ExperimentResult.columns`): each
`POINT_FIELDS` field as one (points, pfa, modes) array, the modes in the
order of `ExperimentResult.labels`.  The CLI writes results.csv, the plot
script and the summary's SNR gaps (`snr_gap_columns`) from those arrays.
"""

from __future__ import annotations

import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

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
# substream of the noise kind:
#   0                    fixed-per-experiment channels (acceptance seeds are
#                        pinned to this draw);
#   1                    redrawn channels: record t of substream 0 holds
#                        trial t's K channels, shared by every SNR point;
#   2                    noise (E0 with the scan, w without it), one
#                        fixed-width record per trial, read under both
#                        hypotheses;
#   4                    reserved: only the lift of w to E0 in the test
#                        oracle (tests/oracles.py) draws it;
#   _REDRAW_BASE + r     channel redraws of mean_selected_gap_db (pinned
#                        like stream 0).
# Ids 3 and 5 are unused.
_CHANNEL_STREAM = 0
_TRIAL_CHANNEL_STREAM = 1
_NOISE_STREAM = 2
_REDRAW_BASE = 2**62

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
# One channel draw and its projectors take at most _MAX_DRAW_ENTRIES
# entries: the (K, N_BS, M) draw and the M x M projectors of the K BSs and
# of the modes, K N_BS M + M^2 (K + modes), and with the scan the engine's
# (M^2, modes x (2M - 1)) coefficients, counted before any is formed.
# Every set-up forms all of them for one draw at least, 64 MiB of complex
# entries at this bound; fig5 takes 528, and its scan 2448.
_MAX_DRAW_ENTRIES = 2**22
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
        n_modes = sum(self.k if w == MODE_NSP_PER_BS else 1 for w in self.waveform_modes)
        entries = self.k * self.n_bs * self.m + self.m ** 2 * (self.k + n_modes)
        if self.scan:
            entries += self.m ** 2 * n_modes * (2 * self.m - 1)
        if entries > _MAX_DRAW_ENTRIES:
            what = ("a channel draw, its projectors and the scan's coefficients"
                    if self.scan else "a channel draw and its projectors")
            raise ConfigurationError(
                f"{what} at m = {self.m}, n_bs = {self.n_bs}, "
                f"k = {self.k} and {n_modes} modes take {entries} entries, more than "
                f"{_MAX_DRAW_ENTRIES}")
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


# The fields of one (mode, SNR, P_FA) point, in order: the results.csv
# columns after mode and bs_id, and the keys of `ExperimentResult.columns`.
# ci_* and pfa_ci_* are 95% Wilson intervals (`wilson_interval`).
POINT_FIELDS = ("snr_db", "pfa", "trials", "detections", "pd_emp", "ci_lo", "ci_hi",
                "pd_theory_paper", "pd_theory_calibrated", "false_alarms", "pfa_emp",
                "pfa_ci_lo", "pfa_ci_hi", "degenerate")


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    plan: ExperimentPlan
    # (label, bs_id) per mode, in column order (`_mode_labels`): label is
    # "orthogonal", "nsp-bs<N>" or "nsp-selected", bs_id the BS number
    # "<N>", else the mode without "nsp-".
    labels: tuple[tuple[str, str], ...]
    selection: sharing.ChannelSelection | None  # fixed-channel runs only
    # Each POINT_FIELDS field, keyed by its name, as a read-only array
    # broadcast to (points, pfa, modes).
    columns: dict[str, np.ndarray]
    # Seconds per stage: "setup" (the fixed channel's engine), "points"
    # (the trials) and "theory" (the theory curves and the columns).
    timings_s: dict[str, float] = field(default_factory=dict)


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
    plan: ExperimentPlan, h: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The modes' projectors for a (C, K, N_BS, M) stack of channel draws:
    (proj, selected, p, nullity), with proj the (C, modes, M, M) stack in
    `_mode_labels` order, selected the chosen BS's 0-based index (C,), p
    the BSs' projectors (C, K, M, M) and nullity their nullities (C, K),
    all from one `sharing.null_projectors` call.

    The orthogonal waveforms have X X^H = I, so the minimum-degradation
    selection is the first BS of maximal nullity (`sharing.select_by_nullity`),
    and BS i's degradation norm is sqrt(M - nullity_i); no waveform is
    formed."""
    p, nullity = sharing.null_projectors(h)  # (C, K, M, M)
    selected = sharing.select_by_nullity(nullity)
    c = len(h)
    blocks = {
        MODE_ORTHOGONAL: np.broadcast_to(np.eye(plan.m, dtype=complex), p[:, :1].shape),
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


def _channels(plan: ExperimentPlan, first: int, count: int,
              keys: dict | None = None) -> np.ndarray:
    """(C, K, N_BS, M) channel draws for trials [first, first + count), the
    same at every SNR point.

    A fixed channel is stream 0 alone (C = 1) for every trial.  Redrawn
    channels (C = count) are records [first, first + count) of substream 0
    of the redrawn-channel stream, one record of K channels of i.i.d.
    CN(0, 1) entries per trial, so a block equals its trials drawn one by
    one.  `keys` is `complex_normal_ranges`'.
    """
    if plan.channel_mode == CHANNEL_FIXED:
        rng = rng_substream(plan.master_seed, _CHANNEL_STREAM)
        return sharing.channel_matrices([rng], plan.k, plan.n_bs, plan.m)
    return complex_normal_ranges(plan.master_seed,
                                 [(_TRIAL_CHANNEL_STREAM, 0, first, count)],
                                 (plan.k, plan.n_bs, plan.m), keys=keys)


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
    the noise vectors w.  That set-up reads only v and the gain
    c = a^T v (`detection.projected_gain`): c gives the scale and the
    degenerate flags, and the echo term is M c.  Both forms first reduce
    the stack to v and c, the target gains the theory reads, so a plan's
    theory is the same with and without the scan.  Both are exact
    rewrites of the GLRT on E = (alpha A X_tx + E0 X) X_tx^H.  The scan's
    statistics agree with the direct form to about 1e-15 relative.  Where
    the maximizing angle's gain c_g is far below M (near a null of a
    rank-one projector) the power is a small difference of terms of size
    r_0, and the error grows to about 1e-16 M / c_g.
    """

    def __init__(self, plan: ExperimentPlan, proj: np.ndarray):
        a = radar.steering_vector(plan.m, plan.theta_target)
        v = proj @ a.conj()                                      # (C, modes, M): P a^*
        self.target_gain = detection.projected_gain(a, v)        # (C, modes): a^T v
        if plan.scan:
            grid = plan.theta_grid()
            a_grid = radar.steering_vector(plan.m, grid)         # (M, G)
            p_a = proj @ a_grid.conj()                           # (C, modes, M, G)
            # c_g = a_g^H P^T a_g = a_g^T P a_g^*
            gain = np.real(np.sum(a_grid * p_a, axis=-2))       # (C, modes, G)
        else:
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
            self.coef = np.swapaxes(v, 1, 2)
            self.scale = scale
            self.basis = None

    def statistics(self, noise: np.ndarray, alpha) -> np.ndarray:
        """Scaled GLRT statistics, the maximum over the grid, of a block of
        rows: shape lead + (modes,) for noise of shape lead + record
        (`_noise_shape`).  A tile's block is (P, n), P SNR points' noise
        over the same n trials; with C = n channel draws trial t is read
        against draw t, and with one draw (C = 1) any leading shape goes.
        `alpha`, the echo amplitude, broadcasts against the leading axes:
        the P points' amplitudes of a (P, n) block, or one for every row.
        The numerators (the scan's anti-diagonal sums) get alpha times the
        echo term `sig`.  The scan then evaluates the scaled power's
        trigonometric polynomial at every grid angle as one real product
        per draw and mode, no per-angle complex array being built: rows
        taken in groups of C, one per draw, are one
        (C, modes, groups, 4M - 3) @ (C, modes, 4M - 3, G) product, G
        being the number of grid angles.  The polynomial's terms, that
        product and its maximum over the grid run block by block into the
        one output, _BLOCK_ELEMENTS // (C modes G) groups a block (rows
        with one draw, points with C = n), so no tile size grows the
        grid-sized temporary.  Columns of degenerate modes
        (`self.degenerate`) read 0."""
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
        # The terms go block by block with the product.  Formed for the
        # whole tile beside the product block, they took a 2000-row call's
        # working set past the point where the allocator hands it back to
        # the system after the call, and the next call faulted it in again:
        # about 550 minor page faults a call.
        out = np.empty(g.shape[:-1])
        draws = len(self.basis)
        rows = g.reshape((-1, draws) + g.shape[-2:])
        flat = out.reshape(-1, draws, out.shape[-1])
        step = max(1, _BLOCK_ELEMENTS // self.basis[..., 0, :].size)
        for lo in range(0, len(rows), step):
            # (groups, C, modes, terms) -> (C, modes, groups, terms), and
            # the (C, modes, groups) maxima back.  `np.moveaxis` does the
            # same, but its argument checks took about 4 us a block.
            terms = _power_terms(rows[lo:lo + step]).transpose(1, 2, 0, 3)
            flat[lo:lo + step] = (terms @ self.basis).max(axis=-1).transpose(2, 0, 1)
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

    A draw takes M^2 (K + modes) entries for the (K, M, M) projectors and
    the modes' stacked (modes, M, M) projectors (`_stacked_modes`), and
    5M - 1 per (mode, angle): with the scan, the (modes, M, G) products
    P a_g^* the engine forms the gains from, its real (modes, 4M - 3, G)
    scaled basis and the (modes, G) gains and scales.  The scan engine also
    holds its (M^2, modes x (2M - 1)) coefficients, M^2 modes (2M - 1)
    entries, the largest part on a coarse grid: 31200 against 594
    per-angle entries for two modes at M = 20 on a 90 degree grid.  At the
    target angle alone (G = 1) the engine holds only the (modes, M) vectors
    P a^*, of which its coefficients are a view, and the gain, the scale
    and the echo term per mode, so there the term bounds the set-up with
    room to spare: 403 draws for the fig3 at-angle redrawn plan, 2 for its
    scan on a 0.5 degree grid and 10 on a 2 degree grid.
    """
    rows = _tile_rows(plan)
    if plan.channel_mode == CHANNEL_FIXED:
        return rows
    n_modes, grid = len(_mode_labels(plan)), len(plan.theta_grid())
    per_draw = plan.m ** 2 * (plan.k + n_modes) + (5 * plan.m - 1) * n_modes * grid
    if plan.scan:
        per_draw += plan.m ** 2 * n_modes * (2 * plan.m - 1)
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
    arrays: the theory needs nothing else of a draw.  A range is set up from
    its draws' projector stack (`_stacked_modes`), with or without the scan.

    Each call owns one buffer of uniforms, allocated here for the largest
    of its tiles, so a worker thread (one call each) draws into its own
    memory and no tile allocates it again.  A tile's noise, one record per
    row of all of its points, is one `complex_normal_ranges` draw into the
    buffer, and both hypotheses read it: the detections are the statistics
    with the points' amplitudes, the false alarms those with amplitude 0,
    and neither `_PointEngine.statistics` call writes to the noise.
    Redrawn channels are drawn into memory of their own, which the engine
    may keep.  The Philox keys of the stream kinds the tiles read (the
    noise stream, and the redrawn-channel stream) are derived once, before
    the first tile; the SNR indices are substreams of the noise stream.
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
    noise_shape, noise_var = _noise_shape(plan)
    # Doubles per row: its noise record, padded to whole Philox counter
    # steps of 4 words.
    buffer = np.empty(max(count * (end - lo) for _, count, lo, end in tiles)
                      * record_words(noise_shape))
    kinds = [_NOISE_STREAM] + ([_TRIAL_CHANNEL_STREAM] if redrawn else [])
    keys = {kind: stream_key(plan.master_seed, kind) for kind in kinds}
    for first, count, lo, end in tiles:
        if redrawn and first != drawn:
            h = _channels(plan, first, count, keys=keys)
            engine, drawn = _PointEngine(plan, _stacked_modes(plan, h)[0]), first
            if lo == 0:
                gains.append(engine.target_gain)
        ranges = [(_NOISE_STREAM, i, first, count) for i in range(lo, end)]
        noise = complex_normal_ranges(plan.master_seed, ranges, noise_shape, noise_var,
                                      buffer=buffer, keys=keys)
        noise = noise.reshape((end - lo, count) + noise_shape)
        # (points, pfa, modes) sums over the trials, taken with the trials
        # last in memory: a bool sum along a middle axis took 6 times as
        # long.  Degenerate columns read 0, below every threshold.
        for tally, alpha in ((detections, alphas[lo:end]), (false_alarms, 0.0)):
            s = engine.statistics(noise, alpha)
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
    linear SNR s of each grid point.  That is s times a factor q of the
    gain alone (2 M c, c^2, or M^2 for the orthogonal column of the
    paper's convention), so rho = s q bit for bit, q being the value at
    s = 1.  Per convention one `np.unique` over the (C, modes) factors
    gives the distinct q, and the survival function is evaluated on the
    (points, distinct q) table of s q, whatever the number of points;
    a column that copies another's gains (the selected BS's beside
    nsp-per-bs) costs no evaluation.  The table is gathered back into a
    C-contiguous (points, C, modes) array per P_FA (`np.take`), and its
    mean over the draws is that of the per-point form
    (tests/oracles.py), bit for bit: numpy's summation order follows the
    array's layout, so the layout stays.

    A (point, mode) whose draws share one noncentrality reads that value,
    not a mean of equal values: the orthogonal mode, a fixed channel
    (C = 1), a mode with no null space, or a point whose SNR underflows
    to 0.  Rounding s q is monotone in q for s >= 0, so the draws share
    one noncentrality exactly when s min(q) == s max(q) over the column.
    Points go in groups of about _BLOCK_ELEMENTS values, since the
    noncentral survival function takes several temporaries of its
    input's size.
    """
    orthogonal = np.array([label == MODE_ORTHOGONAL for label, _ in _mode_labels(plan)])
    conventions = ("paper", "calibrated")
    snr = np.array([10 ** (s / 10) for s in plan.snr_grid_db])
    pd = np.empty((len(conventions), len(snr), len(plan.pfa_list), len(orthogonal)))
    step = max(1, _BLOCK_ELEMENTS // gains.size)
    for c, conv in enumerate(conventions):
        q = detection.noncentrality(conv, plan.m, 1.0, gains, orthogonal)
        distinct, index = np.unique(q, return_inverse=True)
        index = index.reshape(q.shape)
        low, high = q.min(axis=0), q.max(axis=0)
        for i in range(0, len(snr), step):
            s = snr[i:i + step, None]
            rho, shared = s * distinct, s * low == s * high
            for j, p in enumerate(plan.pfa_list):
                trial_pd = np.take(detection.theoretical_pd(rho, p), index, axis=1)
                pd[c, i:i + step, j] = np.where(shared, trial_pd[:, 0], trial_pd.mean(axis=1))
    return pd


def run_experiment(plan: ExperimentPlan, workers: int = 1) -> ExperimentResult:
    """Full sweep over (snr, pfa, trial); deterministic for a fixed seed
    regardless of worker count."""
    t_setup = time.perf_counter()
    selection, engine = None, None
    if plan.channel_mode == CHANNEL_FIXED:
        h = _channels(plan, 0, 1)
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
    # POINT_FIELDS in order, each broadcast to (points, pfa, modes).
    values = (np.array(plan.snr_grid_db)[:, None, None], np.array(plan.pfa_list)[:, None],
              trials, detections, detections / trials,
              *wilson_interval(detections, trials), paper, calibrated,
              false_alarms, false_alarms / trials, *wilson_interval(false_alarms, trials),
              degenerate[:, None])
    columns = {name: np.broadcast_to(v, detections.shape)
               for name, v in zip(POINT_FIELDS, values)}
    timings = {"setup": t_points - t_setup, "points": t_theory - t_points,
               "theory": time.perf_counter() - t_theory}
    return ExperimentResult(plan=plan, labels=tuple(_mode_labels(plan)), selection=selection,
                            columns=columns, timings_s=timings)


def _isotonic(y: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators fit, nondecreasing, equal weights.  Each
    value, as a block of weight 1, pools with the top of a stack of pooled
    blocks into their weighted mean while that top exceeds it by more than
    1e-15, and then goes onto the stack.  An input in which no value
    exceeds the next by more than 1e-15 pools nothing, so it is its own fit
    and is returned as it is (as floats)."""
    y = np.asarray(y, dtype=float)
    if not np.any(y[:-1] > y[1:] + 1e-15):
        return y
    vals, weights = [], []
    for v in y.tolist():
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
    # The first point at the target; the fit may dip by up to 1e-15, so it
    # is scanned, not binary-searched.
    j = int(np.argmax(pd >= target))
    if j == 0:
        return float(snr_db[0])
    # pd[j - 1] < target <= pd[j], so y1 > y0.
    x0, x1 = snr_db[j - 1], snr_db[j]
    y0, y1 = pd[j - 1], pd[j]
    return float(x0 + (target - y0) * (x1 - x0) / (y1 - y0))


def snr_gap_columns(labels, snr_db: np.ndarray, pd: np.ndarray,
                    target_pd: float = 0.9) -> tuple[dict, dict]:
    """SNR (dB) each mode needs to reach the target detection probability,
    and the gap versus the orthogonal mode: (snr_at_target, gap_db), dicts
    keyed by `labels`, for a (points, modes) array `pd` over the SNR grid
    `snr_db`, one column per label.

    Each column is fitted nondecreasing (`_isotonic`) and interpolated
    linearly at the target.  A mode that never reaches it reports None, and
    so does every gap when the orthogonal mode does not reach it or is
    absent."""
    snr_at = {label: _snr_at_target(snr_db, pd[:, j], target_pd)
              for j, label in enumerate(labels)}
    base = snr_at.get(MODE_ORTHOGONAL)
    gaps = {label: None if val is None or base is None else val - base
            for label, val in snr_at.items()}
    return snr_at, gaps


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
    proj = _stacked_modes(replace(plan, waveform_modes=(MODE_NSP_SELECTED,)), h)[0]
    gain = detection.direction_gain(a, proj[:, 0])
    zero = int(np.count_nonzero(gain <= 0))
    if zero:
        raise ValueError(
            f"{zero} of {n_redraws} channel redraws give the selected waveform "
            f"zero gain at the target (n_bs={plan.n_bs}, m={plan.m}); the gap "
            f"needs a null space, n_bs < m")
    return float(np.mean(detection.theory_snr_gap_db(plan.m, gain, convention)))

