import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nspradar.errors import ConfigurationError
from nspradar.numerics import rng_substream
from nspradar.radar import (
    steering_vector,
    transmit_receive_matrix,
)

import oracles
from oracles import TargetScenario, orthogonal_waveforms, synthesize_echo, waveform_correlation


M8 = 8


class TestSteeringVector:
    def test_broadside_all_ones(self):
        a = steering_vector(4, 0.0)
        np.testing.assert_allclose(a, np.ones(4))

    def test_angle_array_gives_one_column_per_angle(self):
        grid = np.deg2rad(np.arange(-90.0, 90.5, 7.5))
        got = steering_vector(M8, grid)
        want = np.stack([steering_vector(M8, t) for t in grid], axis=1)
        assert got.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            steering_vector(M8, np.array([0.0, math.pi / 2 + 0.01]))

    def test_unit_modulus_and_norm(self):
        a = steering_vector(M8, 0.3)
        assert np.max(np.abs(np.abs(a) - 1.0)) < 1e-12
        assert abs(a.conj() @ a - 8.0) < 1e-10

    def test_cross_correlation_against_summation_oracle(self):
        t1, t2 = math.radians(10), math.radians(40)
        a1 = steering_vector(M8, t1)
        a2 = steering_vector(M8, t2)
        got = a1.conj() @ a2
        want = oracles.steering_inner_product(8, 0.75, t1, t2)
        assert abs(got - want) < 1e-10
        assert abs(got) < 8.0

    def test_azimuth_domain(self):
        with pytest.raises(ValueError):
            steering_vector(M8, math.pi / 2 + 0.01)

    @given(theta=st.floats(-math.pi / 2, math.pi / 2), m=st.integers(1, 16))
    @settings(max_examples=100, deadline=None)
    def test_reciprocity(self, theta, m):
        a_pos = steering_vector(m, theta)
        a_neg = steering_vector(m, -theta)
        assert np.max(np.abs(a_neg - a_pos.conj())) < 1e-12


class TestTransmitReceiveMatrix:
    def test_broadside_all_ones(self):
        a = steering_vector(4, 0.0)
        np.testing.assert_allclose(transmit_receive_matrix(a), np.ones((4, 4)))

    def test_rank_one(self):
        a = steering_vector(M8, 0.7)
        assert np.linalg.matrix_rank(transmit_receive_matrix(a)) == 1

    def test_symmetric_not_hermitian(self):
        for theta in np.linspace(-1.4, 1.4, 9):
            mat = transmit_receive_matrix(steering_vector(M8, theta))
            assert np.max(np.abs(mat - mat.T)) < 1e-12
            if abs(theta) > 1e-9:
                assert np.max(np.abs(mat - mat.conj().T)) > 1e-6


class TestOrthogonalWaveforms:
    def test_degenerate_single_element(self):
        np.testing.assert_allclose(orthogonal_waveforms(1, 1), [[1.0]])

    def test_correlation_is_identity(self):
        x = orthogonal_waveforms(4, 64)
        assert np.linalg.norm(waveform_correlation(x) - np.eye(4)) < 1e-12

    def test_row_energies(self):
        x = orthogonal_waveforms(8, 64)
        energies = np.sum(np.abs(x) ** 2, axis=1)
        np.testing.assert_allclose(energies, np.ones(8), atol=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(ConfigurationError):
            orthogonal_waveforms(8, 4)

    def test_correlation_hermitian_psd_for_any_samples(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 12)) + 1j * rng.standard_normal((4, 12))
        r = waveform_correlation(x)
        assert np.linalg.norm(r - r.conj().T) < 1e-12
        assert np.min(np.linalg.eigvalsh(r)) > -1e-12


class TestSynthesizeEcho:
    def test_noiseless_limit(self):
        x = orthogonal_waveforms(4, 16)
        scn = TargetScenario(theta=0.2, alpha=1.0, noise_var=1e-30)
        y = synthesize_echo(scn, x, rng_substream(0, 0))
        a = steering_vector(4, 0.2)
        expected = transmit_receive_matrix(a) @ x
        assert np.max(np.abs(y - expected)) < 1e-12

    def test_noise_only_covariance(self):
        x = orthogonal_waveforms(4, 16)
        scn = TargetScenario(theta=0.0, alpha=0.0, noise_var=2.0)
        rng = rng_substream(1, 0)
        cols = []
        for _ in range(500):
            y = synthesize_echo(scn, x, rng)
            cols.append(y)
        samples = np.concatenate(cols, axis=1)  # 4 x 8000
        cov = samples @ samples.conj().T / samples.shape[1]
        np.testing.assert_allclose(cov, 2.0 * np.eye(4), atol=0.08)

    def test_mean_energy_matches_analytic_expansion(self):
        l = 64
        x = orthogonal_waveforms(4, l)
        scn = TargetScenario(theta=0.15, alpha=1.0, noise_var=1.0)
        a = steering_vector(4, 0.15)
        signal = transmit_receive_matrix(a) @ x
        expected = np.linalg.norm(signal) ** 2 + 4 * l * 1.0
        rng = rng_substream(2, 0)
        energies = [
            np.linalg.norm(synthesize_echo(scn, x, rng)) ** 2
            for _ in range(3000)
        ]
        # 3-sigma Monte Carlo band on the mean
        assert abs(np.mean(energies) - expected) < 3 * np.std(energies) / math.sqrt(3000)

    def test_linearity_in_path_loss(self):
        x = orthogonal_waveforms(4, 16)
        quiet = 1e-30
        y1 = synthesize_echo(TargetScenario(0.3, 0.7 + 0.2j, quiet), x, rng_substream(0, 1))
        y2 = synthesize_echo(TargetScenario(0.3, 0.1 - 0.5j, quiet), x, rng_substream(0, 2))
        ysum = synthesize_echo(TargetScenario(0.3, 0.8 - 0.3j, quiet), x, rng_substream(0, 3))
        assert np.max(np.abs((y1 + y2) - ysum)) < 1e-12

    def test_invalid_noise_variance(self):
        with pytest.raises(ConfigurationError):
            TargetScenario(theta=0.0, alpha=1.0, noise_var=0.0)

    def test_geometry_validation(self):
        # Elements sit 3/4 of a wavelength apart: adjacent elements differ in
        # phase by -2 pi 0.75 sin(theta).
        for theta in np.linspace(-math.pi / 2, math.pi / 2, 13):
            a = steering_vector(4, theta)
            step = np.exp(-2j * math.pi * 0.75 * math.sin(theta))
            assert np.max(np.abs(a[1:] * a[:-1].conj() - step)) < 1e-12
