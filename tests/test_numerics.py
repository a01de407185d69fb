import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri

from nspradar.errors import NumericFailure
from nspradar.numerics import (
    chi2_central_inv,
    chi2_noncentral_sf,
    complex_normal_block,
    normal_from_uniform,
    rng_substream,
    svd,
)

import oracles
from oracles import chi2_central_cdf, complex_normal


class TestSvd:
    def test_identity(self):
        _, s, _ = svd(np.eye(2))
        np.testing.assert_allclose(s, [1.0, 1.0])

    def test_zero_matrix(self):
        _, s, _ = svd(np.zeros((2, 4)))
        np.testing.assert_allclose(s, [0.0, 0.0])

    def test_random_reconstruction(self):
        rng = np.random.default_rng(7)
        h = (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))) / np.sqrt(2)
        u, s, v = svd(h)
        smat = np.zeros((2, 4))
        smat[:2, :2] = np.diag(s)
        assert np.linalg.norm(h - u @ smat @ v.conj().T) < 1e-10
        assert np.linalg.norm(v.conj().T @ v - np.eye(4)) < 1e-12
        assert np.linalg.norm(u.conj().T @ u - np.eye(2)) < 1e-12

    def test_singular_values_sorted_nonnegative(self):
        rng = np.random.default_rng(8)
        h = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        _, s, _ = svd(h)
        assert np.all(s >= 0)
        assert np.all(np.diff(s) <= 0)

    def test_roundtrip_many_random_shapes(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            r = int(rng.integers(1, 9))
            c = int(rng.integers(1, 9))
            h = rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
            u, s, v = svd(h)
            smat = np.zeros((r, c))
            k = min(r, c)
            smat[:k, :k] = np.diag(s)
            err = np.linalg.norm(h - u @ smat @ v.conj().T)
            assert err / max(1.0, np.linalg.norm(h)) < 1e-10

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_stack_equals_per_matrix(self):
        rng = np.random.default_rng(9)
        h = rng.standard_normal((3, 4, 2, 5)) + 1j * rng.standard_normal((3, 4, 2, 5))
        u, s, v = svd(h)
        assert u.shape == (3, 4, 2, 2) and s.shape == (3, 4, 2) and v.shape == (3, 4, 5, 5)
        for i in np.ndindex(3, 4):
            for got, want in zip((u[i], s[i], v[i]), svd(h[i])):
                np.testing.assert_array_equal(got, want)
        with pytest.raises(ValueError):
            svd(np.ones(3))


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
        from scipy import stats

        for x, rho in [(32.24, 900.0), (300.0, 5.0), (50.0, 2000.0)]:
            assert abs(chi2_noncentral_sf(x, rho) - stats.ncx2.sf(x, 2, rho)) < 1e-10

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
    """Record `record` of an M x M block stream, read off the plain stream:
    each record takes 2 M^2 words padded up to a multiple of 4."""
    width = 4 * -(-2 * m * m // 4)
    u = rng_substream(seed, stream).random((record + 1) * width)[record * width:]
    z = normal_from_uniform(u[:2 * m * m]) * math.sqrt(0.5)
    return (z[0::2] + 1j * z[1::2]).reshape(m, m)


class TestComplexNormalBlock:
    @given(
        m=st.integers(1, 6),
        first=st.integers(0, 50),
        count=st.integers(1, 12),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_equals_per_record_draws(self, m, first, count, seed):
        block = complex_normal_block(seed, 9, first, count, (m, m))
        assert block.shape == (count, m, m) and block.dtype == complex
        singles = np.concatenate([
            complex_normal_block(seed, 9, t, 1, (m, m))
            for t in range(first, first + count)
        ])
        assert block.tobytes() == singles.tobytes()

    @pytest.mark.parametrize("m", [3, 4])
    def test_fixed_word_count_per_record(self, m):
        # M=3 needs 18 words, padded to 20; M=4 needs exactly 32.
        for record in (0, 1, 5):
            got = complex_normal_block(77, 4, record, 1, (m, m))[0]
            want = _record_from_raw_stream(77, 4, m, record)
            assert got.tobytes() == want.tobytes()

    def test_streams_and_seeds_differ(self):
        a = complex_normal_block(1, 0, 0, 4, (2, 2))
        assert not np.array_equal(a, complex_normal_block(1, 1, 0, 4, (2, 2)))
        assert not np.array_equal(a, complex_normal_block(2, 0, 0, 4, (2, 2)))

    def test_moments(self):
        n = 200_000
        z = complex_normal_block(5, 3, 0, n, (1,)).ravel()
        assert abs(z.mean()) < 5 / math.sqrt(n)
        assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.01
        assert abs(np.mean(z * z)) < 5 / math.sqrt(n)  # circular symmetry
        assert np.isfinite(z).all()

    def test_negative_stream_rejected(self):
        with pytest.raises(ValueError):
            complex_normal_block(1, -1, 0, 1, (2, 2))
