"""Independent numerical oracles used by the tests.

These deliberately avoid the library's own code paths: chi-squared
quantities come from direct quadrature of the density / bisection on the
CDF, and steering products from explicit summation loops.  The explicit
M x L echo model (`TargetScenario`, `synthesize_echo`), which the sweep
replaces by its M x M sufficient statistic, lives here too, with the
closed-form central chi-squared CDF and the ziggurat complex normals.
The scalar Wilson interval and the select-based inverse-CDF normals are the
formulas whose bits the library's array and in-place versions keep, and
the per-range Philox generators jumped to a substream and moved by
`advance()` are the construction whose bits the library's keyed record
draws keep; the backtracking pool-adjacent-violators scan is the one whose
merges the library's stack form makes.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from nspradar.errors import ConfigurationError
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
