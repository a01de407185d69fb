"""Seeded Monte Carlo sweeps over SNR and P_FA grids.

Each trial runs the pipeline (channels -> projectors -> selection -> echo
-> GLRT) for the enabled waveform modes, in the M x M sufficient-statistic
domain.  The GLRT sees the echo Y = alpha A X_tx + N only through
E = Y X_tx^H.  The orthogonal waveforms satisfy X X^H = I and X_tx = P X, so
E = alpha A R + E0 X X_tx^H, where E0 = N X^H is an M x M matrix of i.i.d.
CN(0, 1) entries.  Trials therefore draw E0 directly instead of the M x L
noise N.

Noise comes from one Philox stream per (master seed, SNR index,
hypothesis).  Trial t reads a fixed-width record at a fixed offset of that
stream, so results are independent of chunking, execution order and worker
count.  `run_trial` lifts the same E0 to N = E0 X, which has N X^H = E0,
and runs the explicit pipeline; it is the test oracle of the vectorized
engine.

A fixed channel is set up once per sweep: projectors, selection and the
engine are built in `run_experiment` and handed to every SNR point.  With
channels redrawn per trial, a point runs in blocks of trials.  A block draws
its channels (each trial from its own stream) into a (T, K, N_BS, M) stack,
builds every projector with one stacked SVD, selects per trial, and
evaluates the engine with one channel draw per trial.

The theory curves average P_D(rho_t) over the trials' channel draws, from
the per-trial target gains c_t; with a fixed channel that is the value at
its one gain.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import detection, radar, sharing
from .errors import ConfigurationError
from .numerics import complex_normal_block, rng_substream

MODE_ORTHOGONAL = "orthogonal"
MODE_NSP_PER_BS = "nsp-per-bs"
MODE_NSP_SELECTED = "nsp-selected"
_KNOWN_MODES = (MODE_ORTHOGONAL, MODE_NSP_PER_BS, MODE_NSP_SELECTED)

CHANNEL_FIXED = "fixed-per-experiment"
CHANNEL_REDRAWN = "redrawn-per-trial"

# Substream layout under the master seed:
#   0                                         fixed-per-experiment channels;
#   1 + 4 * ((snr_index << 32) | trial_id) + 2  per-trial channels (redrawn
#                                             mode; moving them would change
#                                             every seed's channel draws);
#   _REDRAW_BASE + r                          channel redraws of
#                                             mean_selected_gap_db;
#   _NOISE_BASE + 2 * snr_index + hypothesis  noise E0 at one SNR point, one
#                                             fixed-width record per trial.
# Per-trial ids stay below _REDRAW_BASE while snr_index < 2**28.
_CHANNEL_STREAM = 0
_REDRAW_BASE = 2**62
_NOISE_BASE = 2**63
_H1 = 0
_H0 = 1

_GAIN_FLOOR_FRAC = 1e-10
_WILSON_Z = 1.959963984540054  # 95%
_CHUNK = 2000
# Redrawn-channel blocks hold about this many entries per per-trial array
# (`_redraw_block`), and the theory curves are evaluated on about this many
# values at a time (`_mean_theory_pd`), which bounds the memory they take.
_BLOCK_ELEMENTS = 2**16


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
    wavelength: float = radar.DEFAULT_WAVELENGTH

    def __post_init__(self):
        object.__setattr__(self, "snr_grid_db", tuple(float(s) for s in self.snr_grid_db))
        object.__setattr__(self, "pfa_list", tuple(float(p) for p in self.pfa_list))
        object.__setattr__(self, "waveform_modes", tuple(self.waveform_modes))
        self.validate()

    def validate(self):
        if self.trials_per_point < 1:
            raise ConfigurationError("trials_per_point must be >= 1")
        if not self.snr_grid_db:
            raise ConfigurationError("snr grid must be non-empty")
        if not self.pfa_list or not all(0 < p < 1 for p in self.pfa_list):
            raise ConfigurationError("pfa values must lie in (0, 1)")
        if self.l < self.m:
            raise ConfigurationError(f"need l >= m, got l={self.l}, m={self.m}")
        if self.channel_mode not in (CHANNEL_FIXED, CHANNEL_REDRAWN):
            raise ConfigurationError(f"unknown channel_mode {self.channel_mode!r}")
        unknown = [w for w in self.waveform_modes if w not in _KNOWN_MODES]
        if unknown or not self.waveform_modes:
            raise ConfigurationError(f"unknown waveform modes: {unknown}")
        if self.k < 1:
            raise ConfigurationError("k must be >= 1")
        if not 0 < self.theta_step_deg <= 180:
            raise ConfigurationError("theta_step_deg must lie in (0, 180]")
        if abs(self.theta_target_deg) > 90:
            raise ConfigurationError("theta_target_deg must lie in [-90, 90]")

    def geometry(self) -> radar.ArrayGeometry:
        return radar.ArrayGeometry(m=self.m, wavelength=self.wavelength)

    @property
    def theta_target(self) -> float:
        return math.radians(self.theta_target_deg)

    def theta_grid(self) -> np.ndarray:
        return np.deg2rad(np.arange(-90.0, 90.0 + self.theta_step_deg / 2,
                                     self.theta_step_deg))


@dataclass(frozen=True)
class CurvePoint:
    snr_db: float
    pfa: float
    trials: int
    detections: int
    false_alarms: int
    pd_emp: float
    ci_lo: float
    ci_hi: float
    pd_theory_paper: float
    pd_theory_calibrated: float
    degenerate: int = 0


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


def _trial_channel_stream(snr_index: int, trial_id: int) -> int:
    return 1 + 4 * ((snr_index << 32) | trial_id) + 2


def wilson_interval(successes: int, n: int, z: float = _WILSON_Z) -> tuple[float, float]:
    """95% Wilson score interval for a binomial rate."""
    if n == 0:
        return 0.0, 1.0
    phat = successes / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class _ModeSetup:
    """One waveform mode over a stack of C channel draws (C = 1 for a fixed
    channel): the transmitted waveform is X_tx = P X."""
    label: str
    bs_id: str
    proj: np.ndarray      # (C, M, M) projector P; the identity for orthogonal
    corr: np.ndarray      # (C, M, M) R = X_tx X_tx^H
    gain: np.ndarray      # (C,) c = a^H R^T a at the target angle


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
) -> tuple[list[_ModeSetup], np.ndarray, np.ndarray]:
    """Mode setups for a (C, K, N_BS, M) stack of channel draws, with the
    selected BS index (C,) and the degradation norms (C, K)."""
    a = radar.steering_vector(plan.geometry(), plan.theta_target)
    x = radar.orthogonal_waveforms(plan.m, plan.l)
    p, _ = sharing.null_projectors(h, plan.rank_tol_factor)     # (C, K, M, M)
    selected, norms = sharing.select_projector(p, x)
    corr = sharing.projected_correlation(p, x)
    eye = np.broadcast_to(np.eye(plan.m, dtype=complex), (len(h), plan.m, plan.m))
    rows = np.arange(len(h))
    modes = []
    for label, bs_id in _mode_labels(plan):
        if label == MODE_ORTHOGONAL:
            pm, r = eye, eye
        elif label == MODE_NSP_SELECTED:
            pm, r = p[rows, selected], corr[rows, selected]
        else:
            pm, r = p[:, int(bs_id) - 1], corr[:, int(bs_id) - 1]
        modes.append(_ModeSetup(label, bs_id, pm, r, detection.direction_gain(a, r)))
    return modes, selected, norms


def _build_modes(
    plan: ExperimentPlan,
    channels: list[sharing.InterferenceChannel],
) -> tuple[list[_ModeSetup], sharing.ChannelSelection]:
    """Mode setups (C = 1) and the channel selection for one draw of K channels."""
    modes, selected, norms = _stacked_modes(plan, np.stack([ch.h for ch in channels])[None])
    selection = sharing.ChannelSelection(
        selected=channels[int(selected[0])].bs_id,
        norms=tuple(float(n) for n in norms[0]),
        bs_ids=tuple(ch.bs_id for ch in channels),
    )
    return modes, selection


def _trial_channels(plan: ExperimentPlan, snr_index: int, trial_id: int):
    rng = rng_substream(plan.master_seed, _trial_channel_stream(snr_index, trial_id))
    return sharing.draw_channels(plan.k, plan.n_bs, plan.m, rng)


def _redrawn_channels(plan: ExperimentPlan, snr_index: int, first: int,
                      count: int) -> np.ndarray:
    """(count, K, N_BS, M) channel draws of trials [first, first + count),
    each from its own stream, as `_trial_channels` draws them one by one."""
    rngs = [rng_substream(plan.master_seed, _trial_channel_stream(snr_index, t))
            for t in range(first, first + count)]
    return sharing.channel_matrices(rngs, plan.k, plan.n_bs, plan.m)


def _fixed_channels(plan: ExperimentPlan):
    rng = rng_substream(plan.master_seed, _CHANNEL_STREAM)
    return sharing.draw_channels(plan.k, plan.n_bs, plan.m, rng)


def _noise_block(plan: ExperimentPlan, snr_index: int, hypothesis: int,
                 first: int, count: int) -> np.ndarray:
    """E0 = N X^H for trials [first, first + count) under one hypothesis:
    a (count, M, M) array of i.i.d. CN(0, 1) entries."""
    return complex_normal_block(
        plan.master_seed, _NOISE_BASE + 2 * snr_index + hypothesis,
        first, count, (plan.m, plan.m),
    )


class _PointEngine:
    """Vectorized statistic evaluation for mode setups over C channel draws.

    With X X^H = I the matched filter of mode P is E = (alpha A + E0) R, as
    X X_tx^H = X X^H P = P = R.  At scan angle g the GLRT numerator is
    a_g^H E a_g^*, linear in E0.  With one channel draw (C = 1) a chunk of T
    trials takes one (T, M^2) @ (M^2, modes x G) product for all modes; with
    C = T draws trial t is evaluated against draw t.  Without the scan the
    grid is the target angle alone.  This is an exact rewrite of
    glrt_statistic / glrt_scan on sufficient_statistic(alpha A X_tx + E0 X, X_tx).
    """

    def __init__(self, plan: ExperimentPlan, modes: list[_ModeSetup]):
        geom = plan.geometry()
        a = radar.steering_vector(geom, plan.theta_target)
        if plan.scan:
            a_grid = radar.steering_vector(geom, plan.theta_grid())
        else:
            a_grid = a[:, None]                                   # (M, G)
        a_conj = a_grid.conj()
        corr = np.stack([ms.corr for ms in modes], axis=1)       # (C, modes, M, M)
        r_a = corr @ a_conj                                      # (C, modes, M, G)
        # c_g = a_g^H R^T a_g = a_g^T R a_g^*
        gain = np.real(np.sum(a_grid * r_a, axis=-2))           # (C, modes, G)
        valid = gain >= _GAIN_FLOOR_FRAC * plan.m
        self.degenerate = ~valid.any(axis=-1)                    # (C, modes)
        self.target_gain = np.stack([ms.gain for ms in modes], axis=1)
        # Invalid angles get scale 0: their statistic 0 never exceeds the
        # maximum over the valid ones, which is >= 0.
        self.scale = np.divide(2.0, plan.m * gain, out=np.zeros_like(gain),
                               where=valid)
        self.sig = np.sum(a_conj * (radar.transmit_receive_matrix(a) @ r_a), axis=-2)
        # coef[c, (m, n), (mode, g)] = conj(a_g[m]) (R_c a_g^*)[n]
        self.coef = np.einsum("mg,ckng->cmnkg", a_conj, r_a).reshape(
            len(corr), plan.m * plan.m, -1
        )

    def statistics(self, e0: np.ndarray, alpha: float) -> np.ndarray:
        """Scaled GLRT statistics, shape (T, modes), for a (T, M, M) stack of
        E0: the scan maximum, or the value at the true angle.  Columns of
        degenerate modes (`self.degenerate`) read 0."""
        t = len(e0)
        e = e0.reshape(t, -1)
        if len(self.coef) == 1:
            g = e @ self.coef[0]
        else:
            g = (e[:, None] @ self.coef)[:, 0]
        g = g.reshape((t,) + self.sig.shape[1:])
        g += alpha * self.sig
        power = g.real ** 2
        power += g.imag ** 2
        power *= self.scale
        return power.max(axis=2)


def _redraw_block(plan: ExperimentPlan) -> int:
    """Trials per block in redrawn-channel mode, so that the block's
    per-trial arrays ((K, M, M) projectors, (M^2, modes x G) coefficients)
    hold about _BLOCK_ELEMENTS entries."""
    grid = len(plan.theta_grid()) if plan.scan else 1
    per_trial = plan.m * plan.m * (plan.k + len(_mode_labels(plan)) * grid)
    return max(1, _BLOCK_ELEMENTS // per_trial)


def _run_point(plan: ExperimentPlan, snr_index: int,
               engine: _PointEngine | None = None) -> dict:
    """All trials for one SNR grid point.

    `engine` is the fixed-channel engine; without it the channels are
    redrawn per trial, in blocks.  Returns the point's tallies, each shaped
    (pfa, modes) or (modes,), and the target gains, (T, modes) or, for a
    fixed channel, (1, modes).
    """
    snr = 10 ** (plan.snr_grid_db[snr_index] / 10)
    alpha = math.sqrt(snr)
    thresholds = np.array([detection.chi2_central_inv(1 - p) for p in plan.pfa_list])
    n_modes = len(_mode_labels(plan))
    detections = np.zeros((len(thresholds), n_modes), dtype=np.int64)
    false_alarms = np.zeros_like(detections)
    degenerate = np.zeros(n_modes, dtype=np.int64)

    redrawn = engine is None
    gains = [] if redrawn else [engine.target_gain]
    trials = plan.trials_per_point
    step = min(_CHUNK, _redraw_block(plan)) if redrawn else _CHUNK
    for start in range(0, trials, step):
        count = min(step, trials - start)
        if redrawn:
            h = _redrawn_channels(plan, snr_index, start, count)
            engine = _PointEngine(plan, _stacked_modes(plan, h)[0])
            gains.append(engine.target_gain)
        s1 = engine.statistics(_noise_block(plan, snr_index, _H1, start, count), alpha)
        s0 = engine.statistics(_noise_block(plan, snr_index, _H0, start, count), 0.0)
        # Degenerate columns read 0, below every threshold.
        detections += np.count_nonzero(s1 > thresholds[:, None, None], axis=1)
        false_alarms += np.count_nonzero(s0 > thresholds[:, None, None], axis=1)
        degenerate += np.broadcast_to(engine.degenerate, (count, n_modes)).sum(axis=0)
    return {"snr_index": snr_index, "snr": snr, "detections": detections,
            "false_alarms": false_alarms, "degenerate": degenerate,
            "gain": np.concatenate(gains)}


def run_trial(plan: ExperimentPlan, snr_db: float, pfa: float, trial_id: int) -> dict:
    """Single-trial reference path through the explicit pipeline.

    Lifts the trial's E0 to the echo noise N = E0 X (so N X^H = E0) and runs
    sufficient_statistic and glrt_statistic / glrt_scan on the echo.
    Returns {mode label: TrialOutcome}; deterministic in (plan, snr_db, trial_id).
    """
    if snr_db not in plan.snr_grid_db:
        raise ConfigurationError(f"snr_db {snr_db} not on the plan's grid")
    if pfa not in plan.pfa_list:
        raise ConfigurationError(f"pfa {pfa} not in the plan's list")
    snr_index = plan.snr_grid_db.index(snr_db)
    geom = plan.geometry()
    alpha = math.sqrt(10 ** (snr_db / 10))
    if plan.channel_mode == CHANNEL_FIXED:
        channels = _fixed_channels(plan)
    else:
        channels = _trial_channels(plan, snr_index, trial_id)
    modes, _ = _build_modes(plan, channels)
    cfg = detection.DetectorConfig(pfa=pfa, theta_grid=plan.theta_grid())
    threshold = detection.chi2_central_inv(1 - pfa)

    x = radar.orthogonal_waveforms(plan.m, plan.l)
    n1 = _noise_block(plan, snr_index, _H1, trial_id, 1)[0] @ x
    n0 = _noise_block(plan, snr_index, _H0, trial_id, 1)[0] @ x
    a_mat = radar.transmit_receive_matrix(
        radar.steering_vector(geom, plan.theta_target)
    )

    out = {}
    for ms in modes:
        x_tx, corr = ms.proj[0] @ x, ms.corr[0]
        y1 = alpha * (a_mat @ x_tx) + n1
        y0 = n0
        e1 = detection.sufficient_statistic(y1, x_tx)
        e0 = detection.sufficient_statistic(y0, x_tx)
        if plan.scan:
            r1 = detection.glrt_scan(e1, corr, geom, cfg, 1.0)
            r0 = detection.glrt_scan(e0, corr, geom, cfg, 1.0)
            out[ms.label] = TrialOutcome(
                statistic_h1=r1.statistic, statistic_h0=r0.statistic,
                detected_h1=r1.detected, detected_h0=r0.detected,
                theta_ml=r1.theta_ml, degenerate=r1.degenerate,
            )
        else:
            if ms.gain[0] < _GAIN_FLOOR_FRAC * plan.m:
                out[ms.label] = TrialOutcome(0.0, 0.0, False, False,
                                             plan.theta_target, True)
                continue
            s1 = detection.glrt_statistic(e1, corr, geom, plan.theta_target, 1.0)
            s0 = detection.glrt_statistic(e0, corr, geom, plan.theta_target, 1.0)
            out[ms.label] = TrialOutcome(
                statistic_h1=s1, statistic_h0=s0,
                detected_h1=s1 > threshold, detected_h0=s0 > threshold,
                theta_ml=plan.theta_target, degenerate=False,
            )
    return out


def _mean_theory_pd(plan: ExperimentPlan, snr: np.ndarray,
                    gains: np.ndarray) -> dict:
    """Theory P_D averaged over each point's channel draws, per convention
    and P_FA: {(convention, pfa): (points, modes)}.

    `gains` is (points, C, modes) and `snr` (points,).  The noncentralities
    are those of `detection` written in the gain c: calibrated 2 SNR M c;
    published SNR M^2 for orthogonal waveforms and SNR c^2 for projected ones.
    Points go in groups of about _BLOCK_ELEMENTS values, since scipy's
    noncentral survival function takes several temporaries of its input's
    size; each point's trials are still reduced in one step.
    """
    orthogonal = np.array([label == MODE_ORTHOGONAL for label, _ in _mode_labels(plan)])
    step = max(1, _BLOCK_ELEMENTS // gains[0].size)
    out = {(conv, p): [] for conv in ("paper", "calibrated") for p in plan.pfa_list}
    for i in range(0, len(snr), step):
        g, s = gains[i:i + step], snr[i:i + step, None, None]
        rho = {"paper": s * np.where(orthogonal, float(plan.m * plan.m), g ** 2),
               "calibrated": s * (2.0 * plan.m * g)}
        for conv, p in out:
            out[conv, p].append(detection.theoretical_pd(rho[conv], p).mean(axis=1))
    return {key: np.concatenate(parts) for key, parts in out.items()}


def run_experiment(plan: ExperimentPlan, workers: int = 1) -> ExperimentResult:
    """Full sweep over (snr, pfa, trial); deterministic for a fixed seed
    regardless of worker count."""
    selection, engine = None, None
    if plan.channel_mode == CHANNEL_FIXED:
        modes, selection = _build_modes(plan, _fixed_channels(plan))
        engine = _PointEngine(plan, modes)
    indices = list(range(len(plan.snr_grid_db)))
    if workers > 1 and len(indices) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            payloads = list(pool.map(_run_point, [plan] * len(indices), indices,
                                     [engine] * len(indices)))
    else:
        payloads = [_run_point(plan, si, engine) for si in indices]
    payloads.sort(key=lambda d: d["snr_index"])
    theory = _mean_theory_pd(plan, np.array([pl["snr"] for pl in payloads]),
                             np.stack([pl["gain"] for pl in payloads]))

    trials = plan.trials_per_point
    curves = []
    total_degenerate = 0
    for mi, (label, bs_id) in enumerate(_mode_labels(plan)):
        points = []
        for pi, payload in enumerate(payloads):
            degenerate = int(payload["degenerate"][mi])
            total_degenerate += degenerate
            for fi, p in enumerate(plan.pfa_list):
                det = int(payload["detections"][fi, mi])
                lo, hi = wilson_interval(det, trials)
                points.append(CurvePoint(
                    snr_db=plan.snr_grid_db[payload["snr_index"]], pfa=p,
                    trials=trials, detections=det,
                    false_alarms=int(payload["false_alarms"][fi, mi]),
                    pd_emp=det / trials, ci_lo=lo, ci_hi=hi,
                    pd_theory_paper=float(theory["paper", p][pi, mi]),
                    pd_theory_calibrated=float(theory["calibrated", p][pi, mi]),
                    degenerate=degenerate,
                ))
        curves.append(DetectionCurve(label=label, bs_id=bs_id, points=tuple(points)))
    return ExperimentResult(
        plan=plan, curves=tuple(curves),
        degenerate_trials=total_degenerate, selection=selection,
    )


def _isotonic(y: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators fit, nondecreasing, equal weights."""
    vals = list(y.astype(float))
    weights = [1.0] * len(vals)
    i = 0
    while i < len(vals) - 1:
        if vals[i] > vals[i + 1] + 1e-15:
            merged = (vals[i] * weights[i] + vals[i + 1] * weights[i + 1]) / (
                weights[i] + weights[i + 1]
            )
            vals[i] = merged
            weights[i] += weights[i + 1]
            del vals[i + 1], weights[i + 1]
            if i > 0:
                i -= 1
        else:
            i += 1
    return np.repeat(vals, [int(w) for w in weights])


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
    target report None.
    """
    attr = {
        "emp": "pd_emp",
        "theory_paper": "pd_theory_paper",
        "theory_calibrated": "pd_theory_calibrated",
    }[source]
    if pfa is None:
        pfa = curves[0].points[0].pfa
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
    channel redraws, from the closed-form gap at the target angle."""
    rngs = [rng_substream(plan.master_seed, _REDRAW_BASE + r) for r in range(n_redraws)]
    h = sharing.channel_matrices(rngs, plan.k, plan.n_bs, plan.m)
    modes, _, _ = _stacked_modes(replace(plan, waveform_modes=(MODE_NSP_SELECTED,)), h)
    return float(np.mean(detection.theory_snr_gap_db(plan.m, modes[0].gain, convention)))


def make_plan(**kwargs) -> ExperimentPlan:
    """Convenience constructor used by the CLI and tests."""
    return ExperimentPlan(**kwargs)


def with_overrides(plan: ExperimentPlan, **kwargs) -> ExperimentPlan:
    return replace(plan, **kwargs)
