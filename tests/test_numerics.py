import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.special import ndtri

from nspradar import numerics
from nspradar.numerics import (
    chi2_central_inv,
    chi2_noncentral_sf,
    complex_normal_ranges,
    normal_from_uniform,
    record_words,
    rng_substream,
    stream_key,
)

import oracles
from oracles import chi2_central_cdf, complex_normal


class TestCentralChi2:
    def test_at_origin(self):
        assert chi2_central_cdf(0.0) == 0.0

    def test_tail_limit(self):
        assert abs(chi2_central_cdf(100.0) - 1.0) < 1e-12

    def test_against_quadrature(self):
        x = 4.605170185988091
        assert abs(chi2_central_cdf(x) - 0.9) < 1e-9
        assert abs(chi2_central_cdf(x) - oracles.chi2_cdf_quadrature(x)) < 1e-9

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            chi2_central_cdf(-0.1)

    def test_inv_trivial(self):
        assert chi2_central_inv(0.0) == 0.0

    @pytest.mark.parametrize(
        "pfa,expected",
        [(0.1, 4.605170185988091), (1e-7, 32.23619130191664)],
    )
    def test_inv_thresholds(self, pfa, expected):
        # 1 - pfa is itself a rounded double, which caps accuracy near p = 1
        assert abs(chi2_central_inv(1 - pfa) - expected) < 1e-8
        assert abs(chi2_central_inv(1 - pfa) - oracles.chi2_inv_bisection(1 - pfa)) < 1e-7

    @pytest.mark.parametrize("p", [-0.1, 1.0, 1.5])
    def test_inv_domain(self, p):
        with pytest.raises(ValueError):
            chi2_central_inv(p)

    def test_inv_cdf_identity_on_grid(self):
        # Above x ~ 36 the CDF sits within a few float ulps of 1, which
        # limits the attainable roundtrip accuracy.
        for x in np.linspace(0.0, 40.0, 81):
            tol = 1e-8 if x <= 36 else 1e-7
            assert abs(chi2_central_inv(chi2_central_cdf(x)) - x) < tol


class TestNoncentralSf:
    def test_zero_noncentrality_recovers_pfa(self):
        for pfa in (0.1, 1e-3, 1e-7):
            delta = chi2_central_inv(1 - pfa)
            assert abs(chi2_noncentral_sf(delta, 0.0) - pfa) < 1e-12

    def test_at_zero_threshold(self):
        for rho in (0.0, 1.0, 50.0):
            assert chi2_noncentral_sf(0.0, rho) == 1.0

    def test_against_quadrature_oracle(self):
        # frozen from the quadrature oracle ahead of the implementation
        val = chi2_noncentral_sf(4.605170185988091, 16.0)
        assert val > 0.97
        assert abs(val - 0.978601564268198) < 1e-8
        assert abs(val - oracles.noncentral_sf_quadrature(4.605170185988091, 16.0)) < 1e-8

    def test_consistency_with_central(self):
        for x in np.linspace(0.0, 40.0, 41):
            assert abs(chi2_noncentral_sf(x, 0.0) - (1 - chi2_central_cdf(x))) < 1e-10

    def test_large_argument_branch(self):
        for x, rho in [(32.24, 900.0), (300.0, 5.0), (50.0, 2000.0)]:
            assert chi2_noncentral_sf(x, rho) == stats.ncx2.sf(x, 2, rho)

    # x: 0, the preset thresholds -2 ln P_FA, and random values in [0, 80];
    # rho: 0, two tiny values and log-uniform values up to 1e5.
    _rng = np.random.default_rng(20261018)
    SF_X = np.concatenate([
        [0.0], [chi2_central_inv(1 - p) for p in (1e-1, 1e-3, 1e-5, 1e-7)],
        _rng.uniform(0.0, 80.0, 60)])
    SF_RHO = np.concatenate([[0.0, 1e-300, 1e-12], 10.0 ** _rng.uniform(-12.0, 5.0, 60)])

    def test_equals_scipy_stats_bit_for_bit(self):
        for x in self.SF_X:
            for rho in self.SF_RHO:
                got = chi2_noncentral_sf(float(x), float(rho))
                assert isinstance(got, float)
                assert got == stats.ncx2.sf(x, 2, rho), (x, rho)

    @pytest.mark.parametrize("x_shape, rho_shape", [
        ((65, 1), (1, 63)), ((65, 1, 1), (63,)), ((), (63,)), ((65,), ()),
    ])
    def test_equals_scipy_stats_over_broadcast_shapes(self, x_shape, rho_shape):
        x = self.SF_X[:math.prod(x_shape)].reshape(x_shape)
        rho = self.SF_RHO[:math.prod(rho_shape)].reshape(rho_shape)
        got = chi2_noncentral_sf(x, rho)
        want = stats.ncx2.sf(x, 2, rho)
        assert got.shape == np.shape(want) == np.broadcast_shapes(x_shape, rho_shape)
        assert np.array_equal(got, want)
        assert not np.any(np.signbit(got))

    @pytest.mark.parametrize("rho", [SF_RHO[1:], np.array([0.0]), np.array([-0.0, 1.0])])
    def test_central_branch_only_where_rho_is_zero(self, rho):
        # With no rho = 0 the central law is not evaluated, and every value
        # is still the scipy.stats one; -0.0 takes the central branch.
        got = chi2_noncentral_sf(self.SF_X[:, None], rho)
        assert np.array_equal(got, stats.ncx2.sf(self.SF_X[:, None], 2, rho))
        assert not np.any(np.signbit(got))

    @given(
        x=st.floats(0.0, 60.0),
        rho1=st.floats(0.0, 40.0),
        rho2=st.floats(0.0, 40.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_noncentrality(self, x, rho1, rho2):
        lo, hi = sorted((rho1, rho2))
        assert chi2_noncentral_sf(x, lo) <= chi2_noncentral_sf(x, hi) + 1e-12

    @given(
        rho=st.floats(0.0, 40.0),
        x1=st.floats(0.0, 60.0),
        x2=st.floats(0.0, 60.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_threshold(self, rho, x1, x2):
        lo, hi = sorted((x1, x2))
        assert chi2_noncentral_sf(lo, rho) >= chi2_noncentral_sf(hi, rho) - 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            chi2_noncentral_sf(-1.0, 1.0)
        with pytest.raises(ValueError):
            chi2_noncentral_sf(1.0, -1.0)
        for x, rho in [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan)]:
            with pytest.raises(ValueError):
                chi2_noncentral_sf(x, rho)

    def test_broadcasts_over_arrays(self):
        x = np.linspace(0.0, 40.0, 9)[:, None]
        rho = np.array([0.0, 1.0, 16.0, 900.0])
        got = chi2_noncentral_sf(x, rho)
        assert got.shape == (9, 4)
        for i, j in np.ndindex(got.shape):
            assert got[i, j] == chi2_noncentral_sf(float(x[i, 0]), float(rho[j]))
        with pytest.raises(ValueError):
            chi2_noncentral_sf(np.array([1.0, -1.0]), 1.0)


class TestRngSubstream:
    def test_determinism(self):
        a = rng_substream(42, 7).standard_normal(100)
        b = rng_substream(42, 7).standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = rng_substream(42, 0).standard_normal(100)
        b = rng_substream(42, 1).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_seeds_differ(self):
        a = rng_substream(1, 0).standard_normal(100)
        b = rng_substream(2, 0).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_negative_stream_rejected(self):
        with pytest.raises(ValueError):
            rng_substream(1, -1)
        with pytest.raises(ValueError):
            stream_key(1, -1)

    @pytest.mark.parametrize("seed, stream_id", [
        (0, 0), (42, 7), (-1, 3), (2**32, 2**32 - 1), (2**64 - 1, 2**62 + 5),
        (5, 2**63 + 11), (-2**63, 2**64 - 1)])
    def test_is_the_seed_sequence_generator(self, seed, stream_id):
        # The key is the one Philox takes from the SeedSequence, so the
        # fixed channel (stream 0) and the mean-gap redraws keep their draws.
        seq = np.random.SeedSequence((seed % 2**64, stream_id))
        bitgen = np.random.Philox(seq)
        key = stream_key(seed, stream_id)
        assert key.dtype == np.uint64 and key.shape == (2,)
        assert key.tobytes() == bitgen.state["state"]["key"].tobytes()
        want = np.random.Generator(bitgen).standard_normal(1000)
        assert rng_substream(seed, stream_id).standard_normal(1000).tobytes() == want.tobytes()

    def test_complex_normal_moments(self):
        n = 10**6
        z = complex_normal(rng_substream(5, 3), n)
        assert abs(z.mean()) < 5 / math.sqrt(n)
        assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.01


class TestNormalFromUniform:
    def test_extreme_doubles_give_finite_normals(self):
        # random() can return 0.0; its largest output is 1 - 2**-53.
        z = normal_from_uniform(np.array([0.0, 1.0 - 2.0**-53]))
        assert np.all(np.isfinite(z))
        # the midpoints of the two end cells: +-ndtri(2**-54), about 8.3
        assert z[0] == ndtri(2.0**-54) and z[1] == -z[0]
        assert -8.5 < z[0] < -8.0

    def test_middle_cells(self):
        z = normal_from_uniform(np.array([0.5 - 2.0**-53, 0.5]))
        assert z[0] < 0 < z[1] and z[0] == -z[1]

    @given(k=st.integers(0, 2**53 - 1))
    @settings(max_examples=200, deadline=None)
    def test_odd_about_one_half(self, k):
        u = np.array([k * 2.0**-53, (2**53 - 1 - k) * 2.0**-53])
        z = normal_from_uniform(u)
        assert np.isfinite(z[0]) and z[0] == -z[1]

    def test_matches_inverse_cdf_of_cell_midpoint(self):
        u = np.random.default_rng(3).random(1000)
        np.testing.assert_allclose(
            normal_from_uniform(u), ndtri(u + 2.0**-54), rtol=1e-9, atol=1e-12)


def _record_from_raw_stream(seed, stream, m, record):
    """Record `record` of an M x M block stream's substream 0, read off the
    plain stream: each record takes 2 M^2 words padded up to a multiple of
    4."""
    width = 4 * -(-2 * m * m // 4)
    u = rng_substream(seed, stream).random((record + 1) * width)[record * width:]
    z = normal_from_uniform(u[:2 * m * m]) * math.sqrt(0.5)
    return (z[0::2] + 1j * z[1::2]).reshape(m, m)


class TestInPlaceNormals:
    def _uniforms(self):
        k = np.random.default_rng(8).integers(0, 2**53, 20_000)
        edges = [0, 1, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 2, 2**53 - 1]
        return np.concatenate([k, edges]) * 2.0**-53

    @pytest.mark.parametrize("scale", [1.0, math.sqrt(0.5), math.sqrt(2.0), 3.0])
    def test_equals_select_formula_bit_for_bit(self, scale):
        u = self._uniforms()
        want = oracles.normal_from_uniform_reference(u) * scale
        assert normal_from_uniform(u, scale).tobytes() == want.tobytes()
        in_place = u.copy()
        assert normal_from_uniform(in_place, scale, out=in_place) is in_place
        assert in_place.tobytes() == want.tobytes()

    def test_leaves_its_input_alone_without_out(self):
        u = self._uniforms()
        before = u.copy()
        normal_from_uniform(u)
        assert u.tobytes() == before.tobytes()


class TestComplexNormalRanges:
    @given(
        m=st.integers(1, 6),
        first=st.integers(0, 50),
        count=st.integers(1, 12),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_equals_per_record_draws(self, m, first, count, seed):
        key = stream_key(seed, 9)
        block = complex_normal_ranges(key, first, count, (m, m))
        assert block.shape == (count, m, m) and block.dtype == complex
        singles = np.concatenate([complex_normal_ranges(key, t, 1, (m, m))
                                  for t in range(first, first + count)])
        assert block.tobytes() == singles.tobytes()

    @pytest.mark.parametrize("m", [3, 4])
    def test_fixed_word_count_per_record(self, m):
        # M=3 needs 18 words, padded to 20; M=4 needs exactly 32.
        for record in (0, 1, 5):
            got = complex_normal_ranges(stream_key(77, 4), record, 1, (m, m))[0]
            want = _record_from_raw_stream(77, 4, m, record)
            assert got.tobytes() == want.tobytes()

    def test_streams_and_seeds_differ(self):
        a = complex_normal_ranges(stream_key(1, 0), 0, 4, (2, 2))
        for seed, stream_id in ((1, 1), (2, 0)):
            other = complex_normal_ranges(stream_key(seed, stream_id), 0, 4, (2, 2))
            assert not np.array_equal(a, other)

    def test_moments(self):
        n = 200_000
        z = complex_normal_ranges(stream_key(5, 3), 0, n, (1,)).ravel()
        assert abs(z.mean()) < 5 / math.sqrt(n)
        assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.01
        assert abs(np.mean(z * z)) < 5 / math.sqrt(n)  # circular symmetry
        assert np.isfinite(z).all()

    def test_negative_stream_rejected(self):
        with pytest.raises(ValueError):
            stream_key(1, -1)

    @pytest.mark.parametrize("first, count", [(-1, 2), (0, -1), (-3, -1)])
    def test_negative_first_or_count_rejected(self, first, count):
        # A negative first record would wrap the counter to the stream's end.
        with pytest.raises(ValueError, match="first >= 0 and count >= 0"):
            complex_normal_ranges(stream_key(1, 0), first, count, (4,))

    @pytest.mark.parametrize("shape, steps", [((2,), 1), ((4,), 2), ((4, 4), 8)])
    def test_counter_stops_short_of_the_substream_word(self, shape, steps):
        # Record r of a range ends at counter step (r + 1) * steps; the
        # range's last step may be 2**128 - 1 but not 2**128, which would
        # carry into word 2 and read the next substream.
        last = (2**128 - 1) // steps     # records [0, last) end below 2**128
        key = stream_key(11, 7)
        for first, count in ((last - 1, 1), (last - 2, 2)):
            want = oracles.complex_normal_ranges_reference(11, [(7, 0, first, count)], shape)
            assert complex_normal_ranges(key, first, count, shape).tobytes() == want.tobytes()
        for first, count in ((last, 1), (last - 1, 2), (2**128, 0)):
            with pytest.raises(ValueError, match="carry into the substream"):
                complex_normal_ranges(key, first, count, shape)

    @given(
        stream_id=st.integers(0, 5),
        first=st.integers(0, 40),
        count=st.integers(1, 8),
        shape=st.sampled_from([(1,), (2,), (3,), (8,), (2, 2), (3, 3), (2, 3, 3)]),
        variance=st.sampled_from([1.0, 4.0, 8.0]),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_reused_buffer_gives_the_same_bits(self, stream_id, first, count, shape,
                                               variance, seed):
        key = stream_key(seed, stream_id)
        want = complex_normal_ranges(key, first, count, shape, variance).tobytes()
        # A reused buffer holding stale values gives the same bits.
        buffer = np.full(count * record_words(shape) + 5, np.nan)
        got = complex_normal_ranges(key, first, count, shape, variance, buffer=buffer)
        assert got.tobytes() == want
        again = complex_normal_ranges(key, first, count, shape, variance, buffer=buffer)
        assert again.tobytes() == want

    def test_unpadded_records_are_a_view_of_the_buffer(self):
        buffer = np.empty(10 * record_words((4,)))
        z = complex_normal_ranges(stream_key(3, 1), 2, 10, (4,), buffer=buffer)
        assert z.shape == (10, 4) and np.shares_memory(z, buffer)
        assert z.flags.c_contiguous

    def test_padded_records_come_out_contiguous(self):
        buffer = np.empty(10 * record_words((3,)))
        z = complex_normal_ranges(stream_key(3, 1), 2, 10, (3,), buffer=buffer)
        assert z.shape == (10, 3) and z.flags.c_contiguous

    @given(
        stream_id=st.integers(0, 2**64 - 1),
        first=st.one_of(st.integers(0, 50), st.integers(2**61, 2**66)),
        count=st.integers(0, 4),
        shape=st.sampled_from([(1,), (2,), (3,), (4,), (3, 3)]),
        seed=st.integers(-2**63, 2**64 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_advanced_generator(self, stream_id, first, count, shape, seed):
        # Record offsets from 2**61 on take counter steps of 2**64 or more
        # for most widths, so the step carries into the counter's word 1.
        want = oracles.complex_normal_ranges_reference(
            seed, [(stream_id, 0, first, count)], shape, 2.0)
        got = complex_normal_ranges(stream_key(seed, stream_id), first, count, shape, 2.0)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("width_steps, first", [
        (1, 2**64 - 1), (1, 2**64), (1, 2**64 + 5), (2, 2**63), (2, 2**63 + 1),
        (8, 2**62 + 3), (1, 2**127 + 2**64 + 9),
    ])
    def test_counter_carries_into_word_one(self, width_steps, first):
        # width_steps counter steps per record: shapes (2,), (4,) and
        # (4, 4); the record's step is first * width_steps.
        shape = {1: (2,), 2: (4,), 8: (4, 4)}[width_steps]
        for stream_id, count in ((7, 2), (2**63 + 1, 1)):
            want = oracles.complex_normal_ranges_reference(
                11, [(stream_id, 0, first, count)], shape)
            got = complex_normal_ranges(stream_key(11, stream_id), first, count, shape)
            assert got.tobytes() == want.tobytes()

    def test_record_words(self):
        assert [record_words(s) for s in [(1,), (2,), (3,), (4, 4), (5, 2, 4)]] == [
            4, 4, 8, 32, 80]
