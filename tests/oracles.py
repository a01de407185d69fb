"""Independent numerical oracles used by the tests.

These deliberately avoid the library's own code paths: chi-squared
quantities come from direct quadrature of the density / bisection on the
CDF, and steering products from explicit summation loops.  The orthogonal
DFT waveforms (`orthogonal_waveforms`), which the library never forms,
the explicit M x L echo model (`TargetScenario`, `synthesize_echo`) and
the explicit pipeline of one sweep trial (`run_trial`: channels, SVD
projectors, brute-force selection, echo, GLRT on Y X_tx^H), which the
sweep replaces by its M x M sufficient statistic, live here too, with the
closed-form central chi-squared CDF and the ziggurat complex normals.
The scalar Wilson interval and the select-based inverse-CDF normals are the
formulas whose bits the library's array and in-place versions keep, and
the per-range Philox generators jumped to a substream and moved by
`advance()` are the construction whose bits the library's keyed record
draws keep; the backtracking pool-adjacent-violators scan is the one whose
merges the library's stack form makes.  The per-point theory mean, the
cell-by-cell CSV and the per-curve SNR gap are the loops whose bits the
library's one-pass array forms keep.  The sweep's noise records, one per
trial and the same at every SNR point, are drawn here as well
(`noise_block`), so the engine's tests read noise of the oracle's own
draw.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from nspradar.detection import GAIN_FLOOR_FRAC, noncentrality
from nspradar.errors import ConfigurationError
from nspradar.numerics import chi2_central_inv, chi2_noncentral_sf
from nspradar.radar import steering_vector, transmit_receive_matrix


def chi2_central_cdf(x: float) -> float:
    """CDF of the central chi-squared law with 2 dof: F(x) = 1 - exp(-x/2)."""
    if x < 0:
        raise ValueError(f"x must be non-negative, got {x}")
    return -math.expm1(-0.5 * x)


def complex_normal(rng: np.random.Generator, shape, variance: float = 1.0) -> np.ndarray:
    """i.i.d. circularly-symmetric complex Gaussian draws, CN(0, variance)."""
    scale = math.sqrt(0.5 * variance)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@dataclass(frozen=True)
class TargetScenario:
    """Single point target: azimuth, complex path loss, per-sample noise power."""

    theta: float
    alpha: complex
    noise_var: float = 1.0

    def __post_init__(self):
        if self.noise_var <= 0:
            raise ConfigurationError("noise variance must be positive")


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
    x: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Received echo Y = alpha A(theta) X + N with N i.i.d. CN(0, noise_var)
    for an M x L sample matrix X.

    The target-absent hypothesis is synthesized with alpha = 0.
    """
    a = steering_vector(len(x), scn.theta)
    signal = scn.alpha * (transmit_receive_matrix(a) @ x)
    return signal + complex_normal(rng, x.shape, scn.noise_var)


def chi2_density(x: float) -> float:
    """Central chi-squared density, 2 dof."""
    return 0.5 * math.exp(-0.5 * x)


def chi2_cdf_quadrature(x: float) -> float:
    val, _ = integrate.quad(chi2_density, 0.0, x, limit=200)
    return val


def noncentral_chi2_density(x: float, rho: float) -> float:
    """Noncentral chi-squared density, 2 dof, via the scaled Bessel I0."""
    z = math.sqrt(rho * x)
    return 0.5 * math.exp(-(x + rho) / 2 + z) * special.i0e(z)


def noncentral_sf_quadrature(x: float, rho: float) -> float:
    if rho == 0:
        return 1.0 - chi2_cdf_quadrature(x)
    val, _ = integrate.quad(noncentral_chi2_density, 0.0, x, args=(rho,), limit=400)
    return 1.0 - val


def chi2_inv_bisection(p: float, lo: float = 0.0, hi: float = 200.0) -> float:
    """Bisection on the quadrature CDF."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_cdf_quadrature(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def steering_inner_product(m: int, d_over_lambda: float, theta1: float, theta2: float) -> complex:
    """Direct geometric-sum evaluation of a(theta1)^H a(theta2)."""
    total = 0.0 + 0.0j
    for k in range(m):
        phase1 = -2 * math.pi * k * d_over_lambda * math.sin(theta1)
        phase2 = -2 * math.pi * k * d_over_lambda * math.sin(theta2)
        total += complex(math.cos(phase2 - phase1), math.sin(phase2 - phase1))
    return total


def brute_force_argmin_norms(projectors, x: np.ndarray) -> tuple[int, list[float]]:
    """Exhaustive recomputation of the degradation argmin (0-based index)."""
    norms = [float(np.linalg.norm(p @ x - x)) for p in projectors]
    best = min(norms)
    for i, n in enumerate(norms):
        if n <= best * (1 + 1e-9) + 1e-12:
            return i, norms
    raise AssertionError("unreachable")


def mean_selected_theory_pd(plan, snr_index: int, pfa: float, convention: str) -> float:
    """The nsp-selected theory P_D of one SNR point of a redrawn-channel
    plan, trial by trial: each trial's K channels (`trial_channels`), their
    projectors (`null_projector`), the brute-force minimum-degradation BS on
    the orthogonal waveforms, its direction gain a^H P^T a, and the
    noncentral chi-squared survival function at that gain's noncentrality
    (2 SNR M c, or SNR c^2 for "paper"); the exact mean (math.fsum) over the
    trials."""
    from scipy import stats

    a = steering_vector(plan.m, plan.theta_target)
    x = orthogonal_waveforms(plan.m, plan.l)
    snr = 10 ** (plan.snr_grid_db[snr_index] / 10)
    pds = []
    for t in range(plan.trials_per_point):
        projs = [null_projector(h) for h in trial_channels(plan, t)]
        best, _ = brute_force_argmin_norms(projs, x)
        gain = float(np.real(a.conj() @ projs[best].T @ a))
        rho = 2 * snr * plan.m * gain if convention == "calibrated" else snr * gain ** 2
        pds.append(stats.ncx2.sf(-2 * math.log(pfa), 2, rho))
    return math.fsum(pds) / len(pds)


def trial_channels(plan, trial: int) -> np.ndarray:
    """The (K, N_BS, M) channels of one trial, the same at every SNR point:
    the first standard_normal draw of stream 0's generator (real, then
    imaginary parts per BS) for a fixed channel, record `trial` of
    substream 0 of stream 1 for redrawn ones."""
    shape = (plan.k, plan.n_bs, plan.m)
    if plan.channel_mode == "fixed-per-experiment":
        seed = np.random.SeedSequence((plan.master_seed % 2**64, 0))
        z = np.random.Generator(np.random.Philox(seed)).standard_normal((plan.k, 2, *shape[1:]))
        return math.sqrt(0.5) * (z[:, 0] + 1j * z[:, 1])
    return complex_normal_ranges_reference(plan.master_seed, [(1, 0, trial, 1)], shape)[0]


def null_projector(h: np.ndarray) -> np.ndarray:
    """Projector V_0 V_0^H onto the null space of one N_BS x M channel, V_0
    the right singular vectors past the rank q: the count of singular values
    above 100 eps s_max max(N_BS, M)."""
    _, s, vh = np.linalg.svd(h)
    q = int(np.sum(s > 100 * np.finfo(float).eps * s[0] * max(h.shape)))
    return vh[q:].conj().T @ vh[q:]


def glrt(y: np.ndarray, x_tx: np.ndarray, grid) -> tuple[float, float, bool]:
    """The GLRT on E = Y X_tx^H with R = X_tx X_tx^H: the maximum over the
    grid of 2 |a^H E a^*|^2 / (M a^H R^T a) at the angles whose gain
    a^H R^T a is at least GAIN_FLOOR_FRAC M, as (statistic, its angle,
    False); (0, grid[0], True) when no angle is."""
    m = len(y)
    e, r = y @ x_tx.conj().T, x_tx @ x_tx.conj().T
    a = steering_vector(m, np.asarray(grid))
    gain = np.einsum("mg,nm,ng->g", a.conj(), r, a).real
    valid = np.flatnonzero(gain >= GAIN_FLOOR_FRAC * m)
    if not valid.size:
        return 0.0, float(grid[0]), True
    num = np.abs(np.einsum("mg,mn,ng->g", a.conj(), e, a.conj())[valid]) ** 2
    stats = 2 * num / (m * gain[valid])
    best = int(np.argmax(stats))  # ties go to the smaller angle
    return float(stats[best]), float(grid[valid[best]]), False


def noise_block(plan, first: int, count: int):
    """The sweep's noise records of trials [first, first + count), records
    of substream 0 of stream 2, which every SNR point and both hypotheses
    read: E0, (count, M, M) of i.i.d. CN(0, 1) entries, with the scan;
    w = E0^T a^*, (count, M) of i.i.d. CN(0, M) entries, without it."""
    m = plan.m
    shape, variance = ((m, m), 1.0) if plan.scan else ((m,), float(m))
    return complex_normal_ranges_reference(
        plan.master_seed, [(2, 0, first, count)], shape, variance)


def noise_e0(plan, first: int, count: int):
    """E0 of trials [first, first + count), (count, M, M) of i.i.d. CN(0, 1)
    entries, the same at every SNR point: the records of `noise_block` with
    the scan.  At the target angle alone those records are w = E0^T a^*,
    and E0 = G + a (w^T - a^H G) / M with G from substream 0 of stream 4,
    so that E0^T a^* = w as a^T a^* = M."""
    records = noise_block(plan, first, count)
    if plan.scan:
        return records
    m = plan.m
    g = complex_normal_ranges_reference(plan.master_seed, [(4, 0, first, count)], (m, m))
    a = steering_vector(m, plan.theta_target)
    return g + a[:, None] * ((records - a.conj() @ g) / m)[:, None, :]


def run_trial(plan, snr_index: int, trial: int) -> dict:
    """One trial of the sweep's plan through the explicit pipeline,
    {mode label: (statistic under H1, under H0, H1's angle, degenerate)} in
    the sweep's mode order: the trial's channels, their projectors, the
    brute-force selection on X = `orthogonal_waveforms`, and `glrt` over
    `plan.theta_grid()` on each mode's echo Y = alpha A P X + E0 X, E0 from
    `noise_e0`, the trial's record whatever its SNR point; the point sets
    alpha alone.  The H0 echo is the H1 echo with alpha = 0: the same
    noise."""
    m, grid = plan.m, plan.theta_grid()
    x = orthogonal_waveforms(m, plan.l)
    a = steering_vector(m, plan.theta_target)
    projs = [null_projector(h) for h in trial_channels(plan, trial)]
    modes = {"orthogonal": np.eye(m), **{f"nsp-bs{i + 1}": p for i, p in enumerate(projs)},
             "nsp-selected": projs[brute_force_argmin_norms(projs, x)[0]]}
    labels = [label for mode in plan.waveform_modes for label in
              (list(modes)[1:-1] if mode == "nsp-per-bs" else [mode])]
    noise = noise_e0(plan, trial, 1)[0] @ x
    alpha = math.sqrt(10 ** (plan.snr_grid_db[snr_index] / 10))
    out = {}
    for label in labels:
        x_tx = modes[label] @ x
        s1, theta, degenerate = glrt(alpha * np.outer(a, a) @ x_tx + noise, x_tx, grid)
        out[label] = (s1, glrt(noise, x_tx, grid)[0], theta, degenerate)
    return out


def pd_at_snr_root(m: int, gain: float, pfa: float, target_pd: float) -> float:
    """Root-find (bisection) the SNR in dB at which the calibrated-law
    detection probability reaches the target, for direction gain c."""
    from scipy import stats

    delta = -2.0 * math.log(pfa)

    def pd(snr_db):
        snr = 10 ** (snr_db / 10)
        rho = 2.0 * snr * m * gain
        return stats.ncx2.sf(delta, 2, rho)

    lo, hi = -40.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if pd(mid) < target_pd:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def wilson_interval_scalar(successes: int, n: int,
                           z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval of one binomial count, in plain Python
    scalars: the formula the library's array-valued interval must match
    bit for bit."""
    if n == 0:
        return 0.0, 1.0
    phat = successes / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == n else min(1.0, center + half)
    return lo, hi


def normal_from_uniform_reference(u: np.ndarray) -> np.ndarray:
    """Inverse normal CDF at the midpoint of each 2**-53 cell, formed with
    whole-array selects: u + 2**-54 below 1/2, (1 - u) - 2**-54 reflected
    above it."""
    half_cell = 2.0 ** -54
    upper = u >= 0.5
    z = special.ndtri(np.where(upper, (1.0 - u) - half_cell, u + half_cell))
    return np.where(upper, -z, z)


def complex_normal_ranges_reference(master_seed: int, ranges, shape,
                                    variance: float = 1.0) -> np.ndarray:
    """CN(0, variance) records [first, first + count) of each range
    (stream_id, substream, first, count), stacked: for each range a Philox
    generator seeded by SeedSequence((master_seed mod 2**64, stream_id)) is
    jumped to its substream by `jumped()` and moved to its first record by
    `advance()`, each record taking its 2 prod(shape) uniforms padded to
    whole 4-word counter steps."""
    size = 2 * math.prod(shape)
    width = -(-size // 4) * 4
    parts = []
    for stream_id, substream, first, count in ranges:
        seed = np.random.SeedSequence((master_seed % 2**64, stream_id))
        bitgen = np.random.Philox(seed).jumped(substream)
        bitgen.advance(first * width // 4)
        u = np.random.Generator(bitgen).random((count, width))
        parts.append(normal_from_uniform_reference(u)[:, :size])
    z = np.concatenate(parts) * math.sqrt(0.5 * variance)
    return np.ascontiguousarray(z).view(complex).reshape((-1,) + tuple(shape))


def isotonic_reference(y: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators fit, nondecreasing, equal weights, by a scan
    that merges a violating pair in place and steps back one block: the
    form whose merges, and their bits, the library's stack form keeps.  An
    input with no violation (no y[i] > y[i + 1] + 1e-15) is its own fit."""
    vals = y.astype(float)
    if not np.any(vals[:-1] > vals[1:] + 1e-15):
        return vals
    vals = list(vals)
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


def threshold_pd_reference(threshold, rho):
    """P_D = 1 - F_{chi2_2(rho)}(threshold) with the survival function
    evaluated on every cell, the noncentrality taken as at most 2 ** 62
    (from about 1e19 the survival function returns nan).  It raises where
    the survival function does, as near P_FA = 1 at large rho, where
    `detection.threshold_pd` reads the saturated cells as 1.0 unevaluated."""
    return chi2_noncentral_sf(threshold, np.minimum(rho, 2.0**62))


def mean_theory_pd_reference(plan, gains: np.ndarray) -> np.ndarray:
    """The theory P_D of every (convention, point, pfa, mode) cell, point by
    point: each point's (C, modes) noncentralities, the survival function
    once per distinct one (`threshold_pd_reference`, which evaluates every
    cell), and per mode either the value its draws share or the mean over
    the draws (axis 0 of the point's (C, modes) array)."""
    orthogonal = np.array([mode == "orthogonal" for mode in plan.waveform_modes
                           for _ in range(plan.k if mode == "nsp-per-bs" else 1)])
    out = np.empty((2, len(plan.snr_grid_db), len(plan.pfa_list), gains.shape[1]))
    for c, conv in enumerate(("paper", "calibrated")):
        for i, snr_db in enumerate(plan.snr_grid_db):
            rho = noncentrality(conv, plan.m, 10 ** (snr_db / 10), gains, orthogonal)
            distinct, index = np.unique(rho, return_inverse=True)
            shared = (rho == rho[:1]).all(axis=0)
            for j, pfa in enumerate(plan.pfa_list):
                threshold = chi2_central_inv(1.0 - pfa)
                trial_pd = threshold_pd_reference(threshold, distinct)[index.reshape(rho.shape)]
                out[c, i, j] = np.where(shared, trial_pd[0], trial_pd.mean(axis=0))
    return out


def result_rows(result) -> list:
    """The (label, bs_id, {column: value}) of each results.csv row, mode by
    mode, point by point, P_FA by P_FA, read cell by cell from the result's
    (points, pfa, modes) columns as Python floats and ints."""
    c = result.columns
    points, pfas, _ = c["snr_db"].shape
    return [(label, bs_id, {name: column[i, j, k].item() for name, column in c.items()})
            for k, (label, bs_id) in enumerate(result.labels)
            for i in range(points) for j in range(pfas)]


def results_csv_reference(result) -> str:
    """results.csv built cell by cell (`result_rows`): the header, then per
    row its mode's label and bs_id and the repr of each column's value."""
    lines = ["mode,bs_id," + ",".join(result.columns)]
    lines += [f"{label},{bs_id}," + ",".join(map(repr, cells.values()))
              for label, bs_id, cells in result_rows(result)]
    return "\n".join(lines) + "\n"


def snr_at_target_reference(snr_db, pd, target: float):
    """The SNR (dB) at which the nondecreasing fit (`isotonic_reference`) of
    one curve first reaches `target`, linearly interpolated; None if it never
    does."""
    fit = isotonic_reference(np.asarray(pd, dtype=float))
    if fit[-1] < target:
        return None
    j = next(i for i, v in enumerate(fit) if v >= target)
    if j == 0:
        return float(snr_db[0])
    x0, x1, y0, y1 = snr_db[j - 1], snr_db[j], fit[j - 1], fit[j]
    if y1 == y0:
        return float(x1)
    return float(x0 + (target - y0) * (x1 - x0) / (y1 - y0))
