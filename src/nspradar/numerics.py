"""Shared numerical substrate.

Complex SVD facade, chi-squared statistics with two degrees of freedom
(the central inverse CDF and the noncentral survival function, i.e. the
first-order Marcum Q), deterministic RNG substreams, and fixed-width
Gaussian record streams.

A substream is the Philox generator seeded by
SeedSequence((master_seed mod 2**64, stream_id)).  Philox is counter-based
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11): a
stream is its 128-bit key and a 256-bit counter, so a record at a known
offset needs no generator object of its own.  `philox_keys` derives the
keys of many streams in one vectorized pass of SeedSequence's hash, and
`complex_normal_ranges` reads each range by setting one generator's key and
counter.

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


# SeedSequence's hash (numpy's bit_generator.pyx, after M. E. O'Neill's
# seed_seq_fe): a 4-word pool of 32-bit words, hashed with a constant that is
# multiplied on at each use.  The pool takes 4 + 4 * 3 uses of the first
# constant; generate_state(2, uint64) takes 4 of the second.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_XSHIFT = np.uint32(16)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, uses: int) -> np.ndarray:
    """The uses + 1 successive values of a SeedSequence hash constant."""
    out = [init]
    for _ in range(uses):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 4)


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each column of `value` in turn: column i is
    xored with consts[i] and multiplied by consts[i + 1]."""
    value = value ^ consts[:-1]
    value *= consts[1:]
    value ^= value >> _XSHIFT
    return value


def philox_keys(master_seed: int, stream_ids) -> np.ndarray:
    """Keys of the Philox streams keyed by (master_seed, stream_id) for each
    of `stream_ids` (each in [0, 2**64)): an (n, 2) uint64 array whose row i
    is `_philox(master_seed, stream_ids[i])`'s key, bit for bit.

    That key is SeedSequence((master_seed mod 2**64, stream_id))
    .generate_state(2, uint64).  The entropy is the seed's 32-bit words and
    then the id's, least significant first (one word for 0): at most 4, which
    fill the 4-word pool once zero-padded, as SeedSequence pads it.  An id
    below 2**32 is one word, and its zero high word is that padding.  Every
    key is then the same fixed sequence of 32-bit operations, made here for
    all ids at once.
    """
    ids = [int(i) for i in stream_ids]
    bad = [i for i in ids if not 0 <= i < 2**64]
    if bad:
        raise ValueError(f"stream ids must lie in [0, 2**64), got {bad}")
    seed = int(master_seed) & (2**64 - 1)
    seed_words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    ids = np.array(ids, dtype=np.uint64)
    words = np.zeros((len(ids), _POOL_SIZE), dtype=np.uint32)
    words[:, :len(seed_words)] = seed_words
    words[:, len(seed_words)] = ids & _MASK32
    words[:, len(seed_words) + 1] = ids >> 32
    pool = _hashmix(words, _POOL_HASH[:_POOL_SIZE + 1])
    # Each word, hashed with 3 successive constants, is mixed into the other
    # three; it does not change while it is the source.
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        c = _POOL_SIZE + 3 * src
        mixed = _MIX_MULT_L * pool[:, dst] - _MIX_MULT_R * _hashmix(
            pool[:, src, None], _POOL_HASH[c:c + 4])
        mixed ^= mixed >> _XSHIFT
        pool[:, dst] = mixed
    state = _hashmix(pool, _STATE_HASH).astype(np.uint64)
    return state[:, 0::2] | state[:, 1::2] << 32


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
    [(stream_id, first, count), ...] of the Philox streams keyed by
    (master_seed, stream_id), stacked in range order: an array of shape
    (sum of counts,) + shape.

    Every record consumes the same number of words: its 2 prod(shape)
    uniforms, padded to whole counter steps.  Record r therefore starts at
    counter step r * width / 4, and a draw is byte-identical to its records
    drawn one by one, however they are grouped into ranges and calls.  Each
    range sets the state of one generator, made once per call: the stream's
    key, the counter step first * width / 4 (its low 64 bits in word 0, the
    carry in word 1) and an empty buffer.  That is the state `_philox`
    followed by `advance(first * width / 4)` leaves.  The uniforms of all
    ranges fill one (records, width) array, stream by stream, and one
    `normal_from_uniform` pass turns them into normals in place; never the
    ziggurat, whose word count varies.

    `keys` maps each stream id of the ranges to its `philox_keys` row, so
    that a caller drawing from the same streams many times derives their
    keys once; without it they are derived here.

    `buffer`, a flat float64 array of at least records x width entries,
    holds that array; the result is then a view of it, valid until the
    buffer's next use.  Without it a new array is allocated.
    """
    shape = tuple(shape)
    size, width = 2 * math.prod(shape), record_words(shape)
    for stream_id, first, count in ranges:
        if first < 0 or count < 0:
            raise ValueError(f"record range of stream {stream_id} must have "
                             f"first >= 0 and count >= 0, got {first}, {count}")
    if keys is None:
        ids = list(dict.fromkeys(stream_id for stream_id, _, _ in ranges))
        keys = dict(zip(ids, philox_keys(master_seed, ids)))
    rows = sum(count for _, _, count in ranges)
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
    for stream_id, first, count in ranges:
        step = first * (width // _PHILOX_WORDS)
        counter = np.array([step & 2**64 - 1, step >> 64, 0, 0], dtype=np.uint64)
        state["state"] = {"counter": counter, "key": keys[stream_id]}
        bitgen.state = state
        generator.random(out=u[row:row + count])
        row += count
    normal_from_uniform(u, math.sqrt(0.5 * variance), out=u)
    z = u if width == size else np.ascontiguousarray(u[:, :size])
    return z.view(complex).reshape((rows,) + shape)


def complex_normal_block(
    master_seed: int, stream_id: int, first: int, count: int, shape,
    variance: float = 1.0,
) -> np.ndarray:
    """CN(0, variance) arrays of the given shape for records
    [first, first + count) of the Philox stream keyed by
    (master_seed, stream_id): `complex_normal_ranges` of that one range."""
    return complex_normal_ranges(master_seed, [(stream_id, first, count)], shape,
                                 variance)
