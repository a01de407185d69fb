"""Shared numerical substrate.

Complex SVD facade, chi-squared statistics with two degrees of freedom
(the central inverse CDF and the noncentral survival function, i.e. the
first-order Marcum Q), deterministic RNG substreams, and fixed-width
Gaussian record streams.

A stream is the Philox generator seeded by
SeedSequence((master_seed mod 2**64, stream_id)); `stream_key` derives its
key.  Philox is counter-based (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11): a stream is its 128-bit key and a 256-bit
counter, so it splits into 2**64 independent substreams by the counter's
word 2 (numpy's `Philox.jumped`), and a record at a known offset of a
substream needs no generator object of its own.  `complex_normal_ranges`
reads each record range by setting one generator's key and counter.

The noncentral survival function is the `scipy.special` ufunc behind
`scipy.stats.ncx2.sf`, with the same branches, so it equals that function
bit for bit; importing it leaves `scipy.stats` (most of a cold start)
unloaded.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import chdtrc, ndtri
from scipy.special._ufuncs import _ncx2_sf

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

    Evaluated as `scipy.stats.ncx2.sf(x, 2, rho)` does: the central law's
    `chdtrc` where rho = 0, Boost's noncentral `_ncx2_sf` elsewhere, and 1 at
    x = 0 (where `_ncx2_sf` alone gives -0.0).  x must be finite.

    Broadcasts over arrays; scalar arguments give a float.
    """
    x = np.asarray(x, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if not np.all((x >= 0) & (x < np.inf)):
        raise ValueError(f"x must be finite and non-negative, got {x}")
    if not np.all(rho >= 0):
        raise ValueError(f"rho must be non-negative, got {rho}")
    with np.errstate(over="ignore"):
        sf = np.where(rho == 0, chdtrc(2.0, x), _ncx2_sf(x, 2.0, rho))
    sf = np.where(x == 0, 1.0, sf)
    return float(sf) if sf.ndim == 0 else sf


def stream_key(master_seed: int, stream_id: int) -> np.ndarray:
    """Philox key of the stream keyed by (master_seed, stream_id): the two
    uint64 words SeedSequence((master_seed mod 2**64, stream_id))
    .generate_state(2, uint64), the key `Philox` takes from that sequence."""
    if stream_id < 0:
        raise ValueError(f"stream_id must be non-negative, got {stream_id}")
    seq = np.random.SeedSequence((int(master_seed) & (2**64 - 1), int(stream_id)))
    return seq.generate_state(2, np.uint64)


def rng_substream(master_seed: int, stream_id: int) -> np.random.Generator:
    """Generator of the stream keyed by (master_seed, stream_id), from the
    start of its substream 0.

    Backed by the counter-based Philox generator so distinct stream ids give
    statistically independent sequences regardless of draw order.
    """
    return np.random.Generator(np.random.Philox(key=stream_key(master_seed, stream_id)))


def normal_from_uniform(u: np.ndarray, scale: float = 1.0, out=None) -> np.ndarray:
    """Standard normals by inverse CDF at the midpoint of each 2**-53 cell,
    times `scale`.

    A `random()` output u = k 2**-53 maps to ndtri((k + 1/2) 2**-53), whose
    argument lies strictly inside (0, 1), so u = 0 gives a finite normal.
    The midpoint is formed exactly: as u + 2**-54 below 1/2 and, reflected,
    as (1 - u) - 2**-54 above it (u + 2**-54 would round to 1.0 at the top
    cell).  The map is therefore odd about 1/2 and finite at both ends.

    The result goes to `out` (which may be `u` itself), else to a new array.
    Above 1/2 the argument is formed as |(u - 1) + 2**-54|: u - 1 is exact
    there and rounding is symmetric, so it equals (1 - u) - 2**-54 bit for
    bit.  The sign and a positive scale are then one multiply by -scale
    above 1/2 and scale below it, which gives the bits of
    -ndtri(...) * scale there.
    """
    u = np.asarray(u, dtype=float)
    upper = u >= 0.5
    out = np.subtract(u, upper, out=out)
    out += _HALF_CELL
    np.abs(out, out=out)
    ndtri(out, out=out)
    sign = upper * (-2.0 * scale)
    sign += scale
    out *= sign
    return out


def record_words(shape) -> int:
    """Words (uniforms) one record of complex normals of the given shape
    takes: its 2 prod(shape) uniforms, padded to whole Philox counter steps."""
    return -(-2 * math.prod(shape) // _PHILOX_WORDS) * _PHILOX_WORDS


def complex_normal_ranges(master_seed: int, ranges, shape, variance: float = 1.0,
                          buffer: np.ndarray | None = None,
                          keys: dict | None = None) -> np.ndarray:
    """CN(0, variance) arrays of the given shape for the record ranges
    [(stream_id, substream, first, count), ...], stacked in range order: an
    array of shape (sum of counts,) + shape.

    Substream s of stream (master_seed, stream_id) is that stream's Philox
    generator jumped s times (`Philox.jumped(s)`): counter word 2 holds s,
    and words 0 and 1 count the steps within it.  Every record consumes the
    same number of words: its 2 prod(shape) uniforms, padded to whole
    counter steps.  Record r therefore starts at counter step r * width / 4,
    and a draw is byte-identical to its records drawn one by one, however
    they are grouped into ranges and calls.  Each range sets the state of
    one generator, made once per call: the stream's key, the counter
    [step lo, step hi, s, 0] of step first * width / 4 and an empty buffer,
    the state `jumped(s)` followed by `advance(first * width / 4)` leaves.
    Raises ValueError for a range whose last counter step reaches 2**128,
    which would carry into the substream word.  The uniforms of all ranges
    fill one (records, width) array, range by range, and one
    `normal_from_uniform` pass turns them into normals in place; never the
    ziggurat, whose word count varies.

    `keys` maps each stream id of the ranges to its `stream_key`, so that a
    caller drawing from the same streams many times derives their keys once;
    without it they are derived here.

    `buffer`, a flat float64 array of at least records x width entries,
    holds that array; the result is then a view of it, valid until the
    buffer's next use.  Without it a new array is allocated.
    """
    shape = tuple(shape)
    size, width = 2 * math.prod(shape), record_words(shape)
    steps = width // _PHILOX_WORDS
    for stream_id, substream, first, count in ranges:
        if first < 0 or count < 0:
            raise ValueError(f"record range of stream {stream_id} must have "
                             f"first >= 0 and count >= 0, got {first}, {count}")
        if (first + count) * steps >= 2**128:
            raise ValueError(f"records [{first}, {first + count}) of stream {stream_id} "
                             f"reach counter step 2**128 and would carry into "
                             f"the substream")
    if keys is None:
        keys = {stream_id: stream_key(master_seed, stream_id)
                for stream_id in {r[0] for r in ranges}}
    rows = sum(count for *_, count in ranges)
    if buffer is None:
        u = np.empty((rows, width))
    else:
        u = buffer[:rows * width].reshape(rows, width)
    # Philox() alone would read OS entropy for a key that is replaced anyway.
    bitgen = np.random.Philox(0)
    generator = np.random.Generator(bitgen)
    state = {"bit_generator": "Philox", "buffer": np.zeros(_PHILOX_WORDS, np.uint64),
             "buffer_pos": _PHILOX_WORDS, "has_uint32": 0, "uinteger": 0}
    row = 0
    for stream_id, substream, first, count in ranges:
        step = first * steps
        counter = np.array([step & 2**64 - 1, step >> 64, substream, 0], dtype=np.uint64)
        state["state"] = {"counter": counter, "key": keys[stream_id]}
        bitgen.state = state
        generator.random(out=u[row:row + count])
        row += count
    normal_from_uniform(u, math.sqrt(0.5 * variance), out=u)
    z = u if width == size else np.ascontiguousarray(u[:, :size])
    return z.view(complex).reshape((rows,) + shape)
