import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nspradar.errors import ConfigurationError, NumericFailure
from nspradar.numerics import rng_substream
from nspradar.sharing import (
    _svd_projectors,
    channel_matrices,
    null_projectors,
    residual_interference,
    select_by_nullity,
)

import oracles
from oracles import complex_normal, orthogonal_waveforms


class TestDrawChannels:
    def test_entry_moments(self):
        rng = rng_substream(0, 0)
        entries = channel_matrices([rng], 1250, 2, 4).ravel()  # 10^4 draws
        assert abs(np.mean(np.abs(entries) ** 2) - 1.0) < 0.03
        assert abs(np.mean(entries)) < 0.03

    def test_reproducible(self):
        a = channel_matrices([rng_substream(7, 1)], 3, 2, 4)
        b = channel_matrices([rng_substream(7, 1)], 3, 2, 4)
        np.testing.assert_array_equal(a, b)

    def test_pairwise_distinct(self):
        chans = channel_matrices([rng_substream(7, 2)], 5, 2, 4)[0]
        for i in range(5):
            for j in range(i + 1, 5):
                assert not np.array_equal(chans[i], chans[j])

    def test_bad_counts(self):
        with pytest.raises(ConfigurationError):
            channel_matrices([rng_substream(0, 0)], 0, 2, 4)

    def test_one_draw_per_stream_equals_per_channel_draws(self):
        # One standard_normal call per generator consumes the normals in the
        # order of K successive complex_normal calls.
        stack = channel_matrices([rng_substream(7, s) for s in (3, 4)], 5, 2, 4)
        for s, row in zip((3, 4), stack):
            rng = rng_substream(7, s)
            for h in row:
                assert h.tobytes() == complex_normal(rng, (2, 4)).tobytes()


class TestProjectionMatrix:
    def test_full_rank_square_channel_has_empty_null_space(self):
        p, nullity = null_projectors(np.eye(2, dtype=complex))
        assert nullity == 0
        assert np.linalg.norm(p) < 1e-12

    def test_coordinate_null_space(self):
        h = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex)
        p, nullity = null_projectors(h)
        np.testing.assert_allclose(p, np.diag([0, 0, 1, 1]), atol=1e-12)
        assert nullity == 2

    def test_random_channel_trace_and_annihilation(self):
        rng = rng_substream(1, 0)
        h = (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))) / np.sqrt(2)
        p, _ = null_projectors(h)
        assert abs(np.trace(p).real - 2.0) < 1e-8
        assert np.linalg.norm(h @ p) < 1e-8

    @given(
        n_bs=st.sampled_from([1, 2, 3]),
        m=st.sampled_from([2, 4, 8]),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=150, deadline=None)
    def test_projector_properties(self, n_bs, m, seed):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((n_bs, m)) + 1j * rng.standard_normal((n_bs, m))
        p, nullity = null_projectors(h)
        assert np.linalg.norm(p - p.conj().T) < 1e-10
        assert np.linalg.norm(p @ p - p) < 1e-10
        assert np.linalg.norm(h @ p) < 1e-8 * max(1.0, np.linalg.norm(h))
        eigs = np.linalg.eigvalsh(p)
        assert np.all(np.minimum(np.abs(eigs), np.abs(eigs - 1)) < 1e-8)
        assert abs(np.trace(p).real - (m - min(n_bs, m))) < 1e-8
        assert nullity == m - min(n_bs, m)


class TestGramSchmidtRoute:
    """`null_projectors` (Gram-Schmidt with its certificate, N_BS < M)
    against `_svd_projectors`, the SVD rule it must reproduce."""

    @given(
        m=st.sampled_from([2, 4, 8]),
        data=st.data(),
        eps=st.sampled_from([0.0, 1e-14, 1e-8]),
        scale=st.sampled_from([1e-300, 1e-150, 1.0, 1e150, 1e300]),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_svd_rule(self, m, data, eps, scale, seed):
        # A stack of a random channel, one whose second row is the first
        # plus eps times noise, an all-zero channel and a rank-one one.
        n_bs = data.draw(st.integers(1, m - 1))
        rng = np.random.default_rng(seed)
        h = complex_normal(rng, (4, n_bs, m))
        if n_bs > 1:
            h[1, 1] = h[1, 0] + eps * complex_normal(rng, (m,))
        h[2] = 0
        h[3] = h[3, :1] * rng.standard_normal((n_bs, 1))
        h *= scale
        p, nullity = null_projectors(h)
        want_p, want_nullity = _svd_projectors(h)
        np.testing.assert_array_equal(nullity, want_nullity)
        s = np.linalg.svd(h, compute_uv=False)
        for j in range(len(h)):
            # Both routes are backward stable, so they agree to rounding
            # times the condition s_max / s_min of the rows' span.
            q = m - nullity[j]
            cond = s[j, 0] / s[j, q - 1] if q else 1.0
            tol = 1e-13 * max(1.0, np.linalg.norm(want_p[j])) * cond
            assert np.abs(p[j] - want_p[j]).max() <= tol

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_proportional_rows_match_svd_rule(self, m):
        # Rounding decides s_min of exactly proportional rows; the
        # certificate leaves such rows to the SVD, which counts rank one.
        rng = np.random.default_rng(m)
        h = complex_normal(rng, (20000, 2, m))
        h[:, 1] = h[:, 0] * complex_normal(rng, (20000, 1))
        _, nullity = null_projectors(h)
        np.testing.assert_array_equal(nullity, _svd_projectors(h)[1])
        assert np.all(nullity == m - 1)

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    def test_full_rank_channels_take_no_svd(self, monkeypatch, scale):
        # Rayleigh channels pass the certificate at any scale: the rows are
        # scaled to their largest entry before any sum of squares.
        import nspradar.sharing as sharing

        def fail(*args):
            raise AssertionError("SVD called")

        h = channel_matrices([rng_substream(3, 2)], 5, 2, 4)
        want, _ = null_projectors(h)
        monkeypatch.setattr(sharing, "_svd_projectors", fail)
        p, nullity = null_projectors(h * scale)
        assert np.all(nullity == 2)
        np.testing.assert_allclose(p, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n_bs, m", [(2, 4), (4, 4)])
    def test_non_finite_input_raises(self, bad, n_bs, m):
        h = channel_matrices([rng_substream(3, 3)], 3, n_bs, m)
        h[0, 1, 0, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            null_projectors(h)

    @pytest.mark.parametrize("shape", [(3,), (2, 0, 4), (2, 3, 0)])
    def test_malformed_stack_raises(self, shape):
        # No route takes an empty or one-dimensional stack.
        with pytest.raises(ValueError, match="matrix stack"):
            null_projectors(np.ones(shape, dtype=complex))

    def test_svd_failure_is_a_numeric_failure(self, monkeypatch):
        # N_BS >= M takes the SVD, whose LinAlgError becomes NumericFailure.
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        h = channel_matrices([rng_substream(3, 3)], 3, 4, 4)
        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NumericFailure, match="4x4"):
            null_projectors(h)


@st.composite
def _shapes(draw):
    """(M, L, N_BS) with M in 1..8, L in M..3M and N_BS in 1..M + 1."""
    m = draw(st.integers(1, 8))
    return m, draw(st.integers(m, 3 * m)), draw(st.integers(1, m + 1))


class TestProjectWaveform:
    @given(shape=_shapes(), seed=st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_projected_correlation_is_the_projector(self, shape, seed):
        # The engine reads P as the correlation of X_tx = P X: with X X^H = I,
        # P X X^H P^H = P P^H = P.  Checked on the sample sum, for full-rank
        # and rank-deficient channels.
        m, l, n_bs = shape
        x = orthogonal_waveforms(m, l)
        h = _channel_stack(np.random.default_rng(seed), 1, 3, n_bs, m)[0]
        for p in null_projectors(h)[0]:
            np.testing.assert_allclose(oracles.waveform_correlation(p @ x), p,
                                       rtol=0, atol=1e-14)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_orthogonal_decomposition(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 12)) + 1j * rng.standard_normal((4, 12))
        h = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        p, _ = null_projectors(h)
        px = p @ x
        e_tot = np.linalg.norm(x) ** 2
        e_kept = np.linalg.norm(px) ** 2
        e_lost = np.linalg.norm(px - x) ** 2
        assert e_kept <= e_tot + 1e-10
        assert np.linalg.norm(px - x) <= np.linalg.norm(x) + 1e-10
        assert abs(e_kept + e_lost - e_tot) < 1e-8 * max(1.0, e_tot)


class TestResidualInterference:
    def test_selected_channel_residual_vanishes(self):
        x = orthogonal_waveforms(4, 16)
        h = channel_matrices([rng_substream(5, 0)], 3, 2, 4)[0]
        p, nullity = null_projectors(h)
        best, _ = oracles.brute_force_argmin_norms(list(p), x)
        assert best == select_by_nullity(nullity)
        assert residual_interference(h[best], p[best] @ x) < 1e-8

    def test_unselected_channel_sees_power(self):
        x = orthogonal_waveforms(4, 16)
        h = channel_matrices([rng_substream(5, 1)], 2, 2, 4)[0]
        p, _ = null_projectors(h)
        assert residual_interference(h[1], p[0] @ x) > 1e-3
        # The samples of X = I_M, P itself, give the value of every X with
        # X X^H = I.
        assert residual_interference(h[1], p[0]) == pytest.approx(
            residual_interference(h[1], p[0] @ x), rel=1e-12)

    def test_zero_waveform(self):
        h = channel_matrices([rng_substream(5, 2)], 1, 2, 4)[0]
        x_tx = np.zeros((4, 4), dtype=complex) @ orthogonal_waveforms(4, 16)
        assert residual_interference(h[0], x_tx) == 0.0


def _channel_stack(rng, t, k, n_bs, m):
    """(t, K, N_BS, M) channels: random full-rank ones and rank-deficient
    ones (rank 1, and a second singular value 1e-6 of the first)."""
    h = rng.standard_normal((t, k, n_bs, m)) + 1j * rng.standard_normal((t, k, n_bs, m))
    h[:, 1] = h[:, 1, :1] * rng.standard_normal((t, n_bs, 1))
    u, s, vh = np.linalg.svd(h[:, 2], full_matrices=False)
    s[:, 1:] = s[:, :1] * 1e-6
    h[:, 2] = (u * s[:, None, :]) @ vh
    return h


class TestStackedSharing:
    """The stacked projector and selection code against the same functions
    applied one matrix (the scalar path), one trial at a time."""

    @pytest.mark.parametrize("n_bs, m", [(2, 4), (1, 4), (3, 3), (4, 2), (2, 8),
                                         (1, 8), (3, 8)])
    def test_matches_scalar_path(self, n_bs, m):
        rng = np.random.default_rng(n_bs * 100 + m)
        t, k = 6, 5
        h = _channel_stack(rng, t, k, n_bs, m)
        x = orthogonal_waveforms(m, 2 * m)
        p, nullity = null_projectors(h)
        best = select_by_nullity(nullity)
        assert p.shape == (t, k, m, m) and nullity.shape == (t, k)
        for i in range(t):
            projs = [null_projectors(h[i, j]) for j in range(k)]
            for j, (pj, nj) in enumerate(projs):
                np.testing.assert_array_equal(p[i, j], pj)
                assert nullity[i, j] == nj
            idx, want = oracles.brute_force_argmin_norms([pj for pj, _ in projs], x)
            assert best[i] == idx
            np.testing.assert_allclose(np.sqrt(m - nullity[i]), want, rtol=1e-9,
                                       atol=1e-12)

    def test_rank_rule(self):
        # Rank-1 channels with two antennas leave an (M - 1)-dimensional null
        # space; a second singular value of 1e-6 s_max counts toward the rank.
        h = _channel_stack(np.random.default_rng(0), 4, 5, 2, 4)
        _, nullity = null_projectors(h)
        assert np.all(nullity[:, 1] == 3) and np.all(nullity[:, 2] == 2)

    @pytest.mark.parametrize("m", [4, 8])
    def test_row_does_not_depend_on_stack_size(self, m):
        # Each row's projector bits are the same alone, in a one-row stack
        # and in the 64-row stack, full-rank and rank-deficient channels
        # alike.
        h = _channel_stack(np.random.default_rng(m), 64, 5, 2, m)
        p, nullity = null_projectors(h)
        for i in range(64):
            pi, ni = null_projectors(h[i:i + 1])
            assert pi.tobytes() == p[i:i + 1].tobytes()
            assert ni.tobytes() == nullity[i:i + 1].tobytes()


class TestSelectByNullity:
    """The first BS of maximal nullity against the minimum-degradation argmin
    on the orthogonal waveforms (X X^H = I), over stacks mixing full-rank,
    zero and rank-deficient channels."""

    @staticmethod
    def _stack(rng, t, k, n_bs, m):
        h = rng.standard_normal((t, k, n_bs, m)) + 1j * rng.standard_normal((t, k, n_bs, m))
        kind = rng.integers(0, 5, (t, k))
        h[kind == 1] = 0                                   # zero channel
        if n_bs > 1:                                       # repeated rows
            h[kind == 2, 1:] = h[kind == 2, :1]
        # Rows beyond the first scaled by 1e-9 (full rank under the rank
        # rule) or by 1e-15 (rank one).
        h[kind == 3, 1:] *= 1e-9
        h[kind == 4, 1:] *= 1e-15
        return h

    @given(seed=st.integers(0, 10**6), k=st.integers(1, 6),
           n_bs=st.integers(1, 9), m=st.sampled_from([1, 2, 3, 4, 8]),
           l_extra=st.integers(0, 8))
    @settings(max_examples=120, deadline=None)
    def test_equals_brute_force_argmin_on_orthogonal_waveforms(
            self, seed, k, n_bs, m, l_extra):
        h = self._stack(np.random.default_rng(seed), 5, k, n_bs, m)
        p, nullity = null_projectors(h)
        x = orthogonal_waveforms(m, m + l_extra)
        got = select_by_nullity(nullity)
        for i in range(len(h)):
            want, norms = oracles.brute_force_argmin_norms(list(p[i]), x)
            assert got[i] == want
            # The norms are sqrt(M - nullity).
            np.testing.assert_allclose(norms, np.sqrt(m - nullity[i]), rtol=0,
                                       atol=1e-12)

    def test_ties_go_to_the_lowest_index(self):
        assert select_by_nullity(np.array([[2, 3, 3, 1], [0, 0, 0, 0]])).tolist() == [1, 0]
