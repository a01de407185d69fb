import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nspradar.errors import ConfigurationError
from nspradar.numerics import rng_substream
from nspradar.radar import orthogonal_waveforms
from nspradar.sharing import (
    channel_matrices,
    null_projectors,
    projected_correlation,
    residual_interference,
    select_projector,
)

import oracles
from oracles import complex_normal


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


class TestSelectChannel:
    def test_identity_projector_wins(self):
        x = orthogonal_waveforms(4, 16)
        p = np.stack([np.zeros((4, 4), dtype=complex), np.eye(4, dtype=complex)])
        best, norms = select_projector(p, x)
        assert best == 1
        assert norms[1] < 1e-12

    def test_single_candidate(self):
        x = orthogonal_waveforms(4, 16)
        best, _ = select_projector(np.eye(4, dtype=complex)[None], x)
        assert best == 0

    def test_matches_brute_force_on_nonorthogonal_waveform(self):
        # A random (non-orthogonal) sample matrix gives distinct norms.
        rng = rng_substream(3, 0)
        x = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
        p, _ = null_projectors(channel_matrices([rng], 5, 2, 4)[0])
        best, norms = select_projector(p, x)
        idx, want = oracles.brute_force_argmin_norms(list(p), x)
        assert best == idx
        np.testing.assert_allclose(norms, want)

    def test_orthogonal_waveform_ties_resolve_to_lowest_bs(self):
        # For exactly orthogonal waveforms every full-rank channel degrades
        # the waveform identically, so the argmin is a tie.
        x = orthogonal_waveforms(4, 16)
        p, _ = null_projectors(channel_matrices([rng_substream(3, 1)], 5, 2, 4)[0])
        best, norms = select_projector(p, x)
        assert best == 0
        np.testing.assert_allclose(norms, np.sqrt(2.0), rtol=1e-9)


class TestProjectWaveform:
    def test_identity(self):
        x = orthogonal_waveforms(4, 16)
        corr = projected_correlation(np.eye(4, dtype=complex), x)
        np.testing.assert_allclose(corr, np.eye(4), atol=1e-12)

    def test_zero_projector(self):
        x = orthogonal_waveforms(4, 16)
        corr = projected_correlation(np.zeros((4, 4), dtype=complex), x)
        assert np.linalg.norm(corr) == 0.0

    def test_correlation_rank_equals_nullity(self):
        x = orthogonal_waveforms(8, 64)
        h = channel_matrices([rng_substream(4, 0)], 1, 2, 8)[0, 0]
        p, _ = null_projectors(h)
        corr = projected_correlation(p, x)
        eigs = np.linalg.eigvalsh(corr)
        assert np.sum(eigs > 1e-8) == 6
        # correlation really is the sample sum
        samples = p @ x
        direct = sum(
            np.outer(samples[:, n], samples[:, n].conj())
            for n in range(64)
        )
        assert np.linalg.norm(corr - direct) < 1e-10

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
        p, _ = null_projectors(h)
        best, _ = select_projector(p, x)
        assert residual_interference(h[best], p[best] @ x) < 1e-8

    def test_unselected_channel_sees_power(self):
        x = orthogonal_waveforms(4, 16)
        h = channel_matrices([rng_substream(5, 1)], 2, 2, 4)[0]
        p, _ = null_projectors(h)
        assert residual_interference(h[1], p[0] @ x) > 1e-3

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
    """The stacked projector, selection and correlation code against the
    same functions applied one matrix (the scalar path), one trial at a
    time."""

    @pytest.mark.parametrize("n_bs, m, rank_tol", [
        (2, 4, None), (1, 4, None), (3, 3, None), (4, 2, None),
        (2, 4, 1e-3), (2, 8, 1e-3),
    ])
    @pytest.mark.parametrize("orthogonal", [True, False])
    def test_matches_scalar_path(self, n_bs, m, rank_tol, orthogonal):
        rng = np.random.default_rng(n_bs * 100 + m)
        t, k, l = 6, 5, 2 * m
        h = _channel_stack(rng, t, k, n_bs, m)
        if orthogonal:
            x = orthogonal_waveforms(m, l)
        else:
            x = rng.standard_normal((m, l)) + 1j * rng.standard_normal((m, l))
        p, nullity = null_projectors(h, rank_tol)
        best, norms = select_projector(p, x)
        corr = projected_correlation(p, x)
        assert p.shape == (t, k, m, m) and nullity.shape == (t, k)
        for i in range(t):
            projs = [null_projectors(h[i, j], rank_tol) for j in range(k)]
            for j, (pj, nj) in enumerate(projs):
                np.testing.assert_array_equal(p[i, j], pj)
                assert nullity[i, j] == nj
                np.testing.assert_array_equal(corr[i, j], projected_correlation(pj, x))
            sel, sel_norms = select_projector(np.stack([pj for pj, _ in projs]), x)
            assert sel == best[i]
            np.testing.assert_array_equal(norms[i], sel_norms)
            idx, want = oracles.brute_force_argmin_norms([pj for pj, _ in projs], x)
            assert best[i] == idx
            np.testing.assert_allclose(norms[i], want, rtol=1e-9, atol=1e-12)

    def test_rank_rule(self):
        # Rank-1 channels with two antennas leave an (M - 1)-dimensional null
        # space; a second singular value of 1e-6 s_max counts toward the rank
        # under the default tolerance but not under rank_tol = 1e-3.
        h = _channel_stack(np.random.default_rng(0), 4, 5, 2, 4)
        _, nullity = null_projectors(h)
        assert np.all(nullity[:, 1] == 3) and np.all(nullity[:, 2] == 2)
        _, nullity = null_projectors(h, 1e-3)
        assert np.all(nullity[:, 2] == 3)

    def test_exact_ties_go_to_the_lowest_index(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((6, 5, 2, 4)) + 1j * rng.standard_normal((6, 5, 2, 4))
        x = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
        _, norms = select_projector(null_projectors(h)[0], x)
        order = np.argsort(norms, axis=-1)
        # Each trial's best channel at positions 1 and 3, worse ones around it.
        tied = h[np.arange(6)[:, None], order[:, [4, 0, 3, 0, 2]]]
        best, norms = select_projector(null_projectors(tied)[0], x)
        assert np.all(norms[:, 1] == norms[:, 3]) and np.all(best == 1)
        same = np.repeat(h[:, :1], 5, axis=1)
        best, _ = select_projector(null_projectors(same)[0], x)
        assert np.all(best == 0)
