import math
import os
import re
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from nspradar.errors import ConfigurationError
from nspradar.montecarlo import (
    CHANNEL_FIXED,
    CHANNEL_REDRAWN,
    MODE_NSP_PER_BS,
    MODE_NSP_SELECTED,
    MODE_ORTHOGONAL,
    ExperimentPlan,
    max_snr_db,
    mean_selected_gap_db,
    run_experiment,
    wilson_interval,
    _isotonic,
)

import nspradar.montecarlo as montecarlo
from nspradar import cli, detection, numerics, radar, sharing
import oracles


def _assert_same_result(got, want):
    """The two results have the same labels, and every column the same
    shape, dtype and bytes."""
    assert got.labels == want.labels
    assert list(got.columns) == list(want.columns)
    for name, column in want.columns.items():
        assert got.columns[name].shape == column.shape, name
        assert got.columns[name].dtype == column.dtype, name
        assert got.columns[name].tobytes() == column.tobytes(), name


def _mode_index(result, label):
    """The column of a mode label."""
    return [mode for mode, _ in result.labels].index(label)


def tiny_plan(**kwargs):
    base = dict(
        m=4, k=3, l=16, snr_grid_db=(0.0, 6.0), pfa_list=(0.1,),
        trials_per_point=200, master_seed=5,
        waveform_modes=(MODE_ORTHOGONAL, MODE_NSP_SELECTED),
    )
    base.update(kwargs)
    return ExperimentPlan(**base)


class TestPlanValidation:
    def test_defaults_are_valid(self):
        plan = ExperimentPlan()
        assert plan.m == 4 and plan.n_bs == 2 and plan.k == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trials_per_point": 0},
            {"snr_grid_db": ()},
            {"pfa_list": (1.5,)},
            {"pfa_list": ()},
            {"l": 2},
            {"channel_mode": "sometimes"},
            {"waveform_modes": ("sideways",)},
            {"waveform_modes": ()},
            {"k": 0},
            {"theta_target_deg": 91.0},
            {"theta_step_deg": 0.0},
            {"trials_per_point": montecarlo._MAX_TRIALS + 1},
            {"scan": True, "theta_step_deg": 1e-9},
            {"m": 0},
            {"n_bs": 0},
            # 1 - pfa == 1: the threshold chi2_central_inv(1 - pfa) fails.
            {"pfa_list": (1e-3, 1e-17)},
            {"pfa_list": (2.0**-54,)},
            {"pfa_list": (1e-300,)},
            {"pfa_list": (5e-324,)},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ConfigurationError):
            ExperimentPlan(**kwargs)

    @pytest.mark.parametrize("pfa", [np.nextafter(2.0**-54, 1), 1e-16, 1e-10])
    def test_accepts_pfas_above_the_bound(self, pfa):
        plan = tiny_plan(pfa_list=(pfa,))
        assert np.isfinite(run_experiment(plan).columns["pd_theory_paper"][0, 0, 0])

    @pytest.mark.parametrize("pfa", [1e-17, 2.0**-54, 0.0, 1.0, float("nan")])
    def test_pfa_message_names_the_value_and_the_bound(self, pfa):
        with pytest.raises(ConfigurationError,
                           match=re.escape("pfa must lie in (2 ** -54, 1)") + ".*"
                           + re.escape(f"got {pfa}")):
            tiny_plan(pfa_list=(0.1, pfa))

    @pytest.mark.parametrize("m", [1, 4, 8])
    def test_snr_bound(self, m):
        # The top of the SNR range is max_snr_db(m) itself; the next float
        # above it is named in the error.
        top = max_snr_db(m)
        assert top == pytest.approx(2967.4956558 - 20 * math.log10(m), abs=1e-6)
        assert tiny_plan(m=m, snr_grid_db=(0.0, top)).snr_grid_db[-1] == top
        above = float(np.nextafter(top, np.inf))
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"at most {top!r} dB at m = {m}, ")
                           + ".*" + re.escape(f"got [{above!r}]")):
            tiny_plan(m=m, snr_grid_db=(0.0, above))

    @pytest.mark.parametrize("m, n_bs", [(4, 2), (4, 3), (8, 2), (8, 7)])
    @pytest.mark.parametrize("scan, channel_mode", [(True, CHANNEL_FIXED),
                                                    (True, CHANNEL_REDRAWN),
                                                    (False, CHANNEL_FIXED)])
    def test_detects_at_the_snr_bound(self, m, n_bs, scan, channel_mode):
        # At the bound every value the sweep forms is finite, so nothing
        # warns, and every mode that is not degenerate detects every
        # target.  Above about 3060 dB the scan's terms used to overflow to
        # nan statistics that detected nothing.
        top = max_snr_db(m)
        plan = tiny_plan(m=m, n_bs=n_bs, k=3, snr_grid_db=(0.0, top),
                         pfa_list=(0.1, 1e-6), trials_per_point=10, scan=scan,
                         theta_step_deg=5.0, channel_mode=channel_mode,
                         waveform_modes=(MODE_ORTHOGONAL, MODE_NSP_PER_BS,
                                         MODE_NSP_SELECTED))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_experiment(plan)
        top_point = {name: column[-1] for name, column in result.columns.items()}
        assert (top_point["snr_db"] == top).all() and top_point["degenerate"].shape == (2, 5)
        assert not top_point["degenerate"].any()
        for name in ("pd_emp", "pd_theory_paper", "pd_theory_calibrated"):
            assert (top_point[name] == 1.0).all()

    @pytest.mark.parametrize("step", [0.5, 1.0, 2.0, 5.0, 0.7])
    def test_scan_grid_is_unchanged_where_it_lies_within_90_degrees(self, step):
        grid = tiny_plan(scan=True, theta_step_deg=step).theta_grid()
        want = np.deg2rad(np.arange(-90.0, 90.0 + step / 2, step))
        assert grid.tobytes() == want.tobytes()

    @pytest.mark.parametrize("step, last", [(7.0, 85.0), (13.0, 79.0), (100.0, 10.0)])
    def test_scan_grid_stops_below_90_degrees(self, step, last):
        grid = tiny_plan(scan=True, theta_step_deg=step).theta_grid()
        assert np.rad2deg(grid[-1]) == pytest.approx(last)
        assert np.rad2deg(grid[0]) == -90.0
        assert np.all(np.abs(grid) <= np.pi / 2)

    def test_trial_bound(self):
        # The bound itself is accepted; the message names the value and it.
        assert tiny_plan(trials_per_point=montecarlo._MAX_TRIALS).trials_per_point == 10**6
        with pytest.raises(ConfigurationError,
                           match=re.escape("must lie in [1, 1000000], got 10")):
            tiny_plan(trials_per_point=10**18)

    def test_scan_grid_bound(self):
        # The grid is counted before it is built: the largest accepted grid
        # has at most _MAX_SCAN_ANGLES angles, and a step below its step is
        # rejected, naming the value and the bound.  Without the scan the
        # step is never used and any step in (0, 180] is accepted.
        step = 180 / (montecarlo._MAX_SCAN_ANGLES - 1)
        assert len(tiny_plan(scan=True, theta_step_deg=step).theta_grid()) \
            <= montecarlo._MAX_SCAN_ANGLES
        below = float(np.nextafter(step, 0) - 1e-12)
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"theta_step_deg = {below!r}") + ".*"
                           + re.escape(f"at most {montecarlo._MAX_SCAN_ANGLES}")):
            tiny_plan(scan=True, theta_step_deg=below)
        plan = tiny_plan(theta_step_deg=1e-9)
        assert plan.theta_grid().tolist() == [plan.theta_target]

    def test_grid_without_scan_is_the_target_angle(self):
        plan = tiny_plan(theta_target_deg=-20.0)
        assert plan.theta_grid().tolist() == [plan.theta_target]

    def test_replace_revalidates(self):
        plan = replace(tiny_plan(), master_seed=9)
        assert plan.master_seed == 9
        assert plan.snr_grid_db == (0.0, 6.0)
        with pytest.raises(ConfigurationError):
            replace(plan, k=0)


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(37, 100)
        assert lo < 0.37 < hi
        assert 0.0 <= lo < hi <= 1.0

    def test_extremes(self):
        lo, hi = wilson_interval(0, 50)
        assert lo < 1e-15 and hi < 0.12
        lo, hi = wilson_interval(50, 50)
        assert lo > 0.88 and hi > 1 - 1e-15

    def test_empty(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_edges_contain_their_estimate(self):
        # The bounds' formula, rounded, gives lo = 8.7e-19 at 0 of 250 and
        # hi = 1 - 2.2e-16 at 250 of 250.
        for n in range(1, 20_001):
            for k in (0, n):
                lo, hi = wilson_interval(k, n)
                assert lo <= k / n <= hi

    def test_width_shrinks_with_n(self):
        w1 = np.diff(wilson_interval(10, 100))[0]
        w2 = np.diff(wilson_interval(100, 1000))[0]
        assert w2 < w1

    @staticmethod
    def _assert_matches_scalar_formula(k, n):
        lo, hi = wilson_interval(k, n)
        want = np.array([oracles.wilson_interval_scalar(int(a), int(b))
                         for a, b in zip(k, n)])
        assert lo.tobytes() == want[:, 0].tobytes()
        assert hi.tobytes() == want[:, 1].tobytes()

    def test_array_equals_scalar_formula_for_every_count(self):
        n = np.repeat(np.arange(1, 301), np.arange(2, 302))
        k = np.concatenate([np.arange(m + 1) for m in range(1, 301)])
        self._assert_matches_scalar_formula(k, n)

    def test_array_equals_scalar_formula_at_the_edges(self):
        n = np.arange(1, 20_001)
        self._assert_matches_scalar_formula(np.concatenate([0 * n, n]),
                                            np.concatenate([n, n]))

    def test_array_and_scalar_calls_at_n_zero(self):
        lo, hi = wilson_interval(np.array([0, 0, 3]), np.array([0, 0, 7]))
        assert lo[:2].tolist() == [0.0, 0.0] and hi[:2].tolist() == [1.0, 1.0]
        assert (lo[2], hi[2]) == oracles.wilson_interval_scalar(3, 7)
        got = wilson_interval(0, 0)
        assert got == (0.0, 1.0) and all(type(v) is float for v in got)

    def test_scalar_call_gives_floats_of_the_formula(self):
        for k, n in [(0, 1), (37, 100), (250, 250), (1, 20_000)]:
            got = wilson_interval(k, n)
            assert all(type(v) is float for v in got)
            assert got == oracles.wilson_interval_scalar(k, n)


# Inputs for the pooling fit: free floats, counts over a few trial numbers
# (exact ties), values within 1e-15 of each other (the violation tolerance),
# and noisy nondecreasing curves like empirical P_D.
_CURVES = st.one_of(
    st.lists(st.floats(0, 1), max_size=40),
    st.lists(st.floats(0, 1), max_size=40).map(sorted),
    st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), max_size=40).map(sorted),
    st.lists(st.integers(0, 40), max_size=40).map(lambda k: [x / 40 for x in k]),
    st.lists(st.sampled_from([0.5, 0.5 + 1e-15, 0.5 - 1e-15, 0.5 + 2e-15, 0.25]),
             max_size=30),
    st.lists(st.floats(-0.05, 0.05), max_size=40).map(
        lambda e: [min(1.0, max(0.0, i / max(1, len(e)) + x)) for i, x in enumerate(e)]),
)


class TestIsotonic:
    def test_already_sorted(self):
        y = np.array([0.1, 0.2, 0.8])
        np.testing.assert_allclose(_isotonic(y), y)

    def test_single_violation_pools_to_mean(self):
        np.testing.assert_allclose(_isotonic(np.array([0.4, 0.2])), [0.3, 0.3])

    def test_output_is_nondecreasing(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            y = rng.uniform(size=12)
            fit = _isotonic(y)
            assert np.all(np.diff(fit) >= -1e-12)
            assert len(fit) == len(y)
            # pooling preserves the total
            assert abs(fit.sum() - y.sum()) < 1e-9

    def test_nondecreasing_input_is_returned_as_is(self):
        # Dips of up to 1e-15 are not violations, as in the pooling loop.
        y = np.array([0.0, 0.25, 0.25, 0.5 + 1e-15, 0.5, 0.9, 1.0])
        fit = _isotonic(y)
        assert fit.dtype == float and fit.tobytes() == y.tobytes()
        assert _isotonic(np.array([0, 1, 1])).tobytes() == np.array([0.0, 1.0, 1.0]).tobytes()

    @given(y=_CURVES)
    @settings(max_examples=300, deadline=None)
    def test_equals_the_backtracking_scan(self, y):
        # Random, monotone, tied and 1e-15-dipping curves alike.
        y = np.array(y, dtype=float)
        assert _isotonic(y).tobytes() == oracles.isotonic_reference(y).tobytes()


class TestRunTrial:
    """The explicit single-trial pipeline of `oracles.run_trial`."""

    def test_deterministic(self):
        plan = tiny_plan()
        assert oracles.run_trial(plan, 1, 3) == oracles.run_trial(plan, 1, 3)

    def test_trials_differ(self):
        plan = tiny_plan()
        a = oracles.run_trial(plan, 1, 3)
        b = oracles.run_trial(plan, 1, 4)
        assert a[MODE_ORTHOGONAL][0] != b[MODE_ORTHOGONAL][0]

    def test_matches_experiment_tallies(self):
        # The vectorized sweep must agree trial-for-trial with the explicit
        # single-trial pipeline.
        plan = tiny_plan(trials_per_point=60)
        _assert_tallies_match(plan, run_experiment(plan), 0.1)

    @pytest.mark.parametrize("kwargs", [
        {},
        {"scan": True, "theta_step_deg": 10.0},
        {"channel_mode": CHANNEL_REDRAWN,
         "waveform_modes": (MODE_ORTHOGONAL, MODE_NSP_PER_BS, MODE_NSP_SELECTED)},
    ], ids=["fixed", "fixed-scan", "redrawn"])
    def test_shares_no_setup_with_the_engine(self, kwargs, monkeypatch):
        # With the engine's set-up and the library's projectors patched to
        # fail, the oracle still gives every outcome.
        plan = tiny_plan(trials_per_point=4, **kwargs)
        want = [oracles.run_trial(plan, 1, t) for t in range(4)]

        def fail(*args, **kwargs):
            raise AssertionError("the oracle called the engine's set-up")

        for owner, name in [(montecarlo, "_stacked_modes"), (montecarlo, "_channels"),
                            (montecarlo, "_PointEngine"), (sharing, "null_projectors")]:
            monkeypatch.setattr(owner, name, fail)
        assert [oracles.run_trial(plan, 1, t) for t in range(4)] == want


def _tallies_by_run_trial(plan, pfa):
    threshold = numerics.chi2_central_inv(1 - pfa)
    det, fa = {}, {}
    for i, snr_db in enumerate(plan.snr_grid_db):
        for t in range(plan.trials_per_point):
            for label, (s1, s0, *_) in oracles.run_trial(plan, i, t).items():
                det[label, snr_db] = det.get((label, snr_db), 0) + (s1 > threshold)
                fa[label, snr_db] = fa.get((label, snr_db), 0) + (s0 > threshold)
    return det, fa


def _assert_tallies_match(plan, result, pfa):
    det, fa = _tallies_by_run_trial(plan, pfa)
    j = plan.pfa_list.index(pfa)
    for k, (label, _) in enumerate(result.labels):
        for i, snr_db in enumerate(plan.snr_grid_db):
            assert result.columns["detections"][i, j, k] == det[label, snr_db]
            assert result.columns["false_alarms"][i, j, k] == fa[label, snr_db]


class TestEngineOracle:
    """The vectorized engine against the explicit pipeline of
    `oracles.run_trial`."""

    @pytest.mark.parametrize("kwargs", [
        {"trials_per_point": 30, "scan": True, "theta_step_deg": 2.0},
        {"trials_per_point": 30, "channel_mode": CHANNEL_REDRAWN},
        {"trials_per_point": 20, "scan": True, "theta_step_deg": 2.0,
         "channel_mode": CHANNEL_REDRAWN, "m": 3, "l": 5},
    ])
    def test_tallies_match_in_every_channel_mode(self, kwargs):
        plan = tiny_plan(**kwargs)
        _assert_tallies_match(plan, run_experiment(plan), 0.1)

    @pytest.mark.parametrize("scan", [False, True])
    def test_fully_degenerate_mode(self, scan):
        # n_bs = m leaves an empty null space: P = 0 at every angle.
        plan = tiny_plan(m=2, n_bs=2, l=4, trials_per_point=20, scan=scan,
                         theta_step_deg=5.0)
        result = run_experiment(plan)
        c, sel = result.columns, _mode_index(result, MODE_NSP_SELECTED)
        assert (c["degenerate"][..., sel] == c["trials"][..., sel]).all()
        assert not c["detections"][..., sel].any()
        assert not c["degenerate"][..., _mode_index(result, MODE_ORTHOGONAL)].any()
        _assert_tallies_match(plan, result, 0.1)

    def test_tallies_match_across_chunk_boundary(self):
        plan = tiny_plan(snr_grid_db=(3.0,), trials_per_point=montecarlo._CHUNK + 3)
        _assert_tallies_match(plan, run_experiment(plan), 0.1)

    @pytest.mark.parametrize("channel_mode", [CHANNEL_FIXED, CHANNEL_REDRAWN])
    @pytest.mark.parametrize("scan", [False, True])
    def test_statistics_match(self, scan, channel_mode):
        # Redrawn channels: one draw per row (C = 8), as the sweep sets a
        # trial range up.
        plan = tiny_plan(
            waveform_modes=(MODE_ORTHOGONAL, MODE_NSP_PER_BS, MODE_NSP_SELECTED),
            scan=scan, theta_step_deg=1.0, channel_mode=channel_mode,
        )
        h = montecarlo._channels(plan, 0, 1 if channel_mode == CHANNEL_FIXED else 8)
        proj = montecarlo._stacked_modes(plan, h)[0]
        engine = montecarlo._PointEngine(plan, proj)
        alpha = math.sqrt(10 ** (6.0 / 10))
        # Both hypotheses read the same records.
        noise = oracles.noise_block(plan, 1, 0, 8)
        s1 = engine.statistics(noise, alpha)
        s0 = engine.statistics(noise, 0.0)
        for mi, (label, _) in enumerate(montecarlo._mode_labels(plan)):
            for t in range(8):
                want = oracles.run_trial(plan, 1, t)[label]
                assert s1[t, mi] == pytest.approx(want[0], rel=1e-9)
                assert s0[t, mi] == pytest.approx(want[1], rel=1e-9)


class TestScanKernel:
    """The scan engine's trigonometric polynomial against the direct form
    max_g 2 |a_g^H (alpha A + E0) R a_g^*|^2 / (M c_g) over the valid angles."""

    @staticmethod
    def _direct(plan, proj, noise, alpha):
        x = radar.orthogonal_waveforms(plan.m, plan.l)
        a = radar.steering_vector(plan.m, plan.theta_target)
        a_grid = radar.steering_vector(plan.m, plan.theta_grid())
        echo = alpha * radar.transmit_receive_matrix(a)
        out = np.zeros((len(noise), proj.shape[1]))
        for mi in range(proj.shape[1]):
            for t, e0 in enumerate(noise):
                r = oracles.waveform_correlation(proj[t if len(proj) > 1 else 0, mi] @ x)
                num = np.einsum("mg,mn,ng->g", a_grid.conj(), (echo + e0) @ r, a_grid.conj())
                gain = np.einsum("mg,mn,ng->g", a_grid, r, a_grid.conj()).real
                valid = gain >= detection.GAIN_FLOOR_FRAC * plan.m
                if valid.any():
                    out[t, mi] = np.max(2 * np.abs(num[valid]) ** 2
                                        / (plan.m * gain[valid]))
        return out

    @pytest.mark.parametrize("channel_mode", [CHANNEL_FIXED, CHANNEL_REDRAWN])
    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    @pytest.mark.parametrize("step, target, degenerate", [
        (0.5, 10.0, False),
        (7.0, 10.0, False),     # a step that does not divide 180 degrees
        (0.5, 40.0, False),     # |sin| > 1/3: the target has a grating-lobe alias
        (5.0, 10.0, True),      # n_bs = m: every nsp mode is degenerate
    ])
    def test_statistics_match_direct_form(self, step, target, degenerate, m,
                                          channel_mode):
        plan = tiny_plan(m=m, n_bs=m if degenerate else 1, scan=True,
                         theta_step_deg=step, theta_target_deg=target,
                         channel_mode=channel_mode,
                         waveform_modes=(MODE_ORTHOGONAL, MODE_NSP_PER_BS,
                                         MODE_NSP_SELECTED))
        rows = 6
        proj = montecarlo._stacked_modes(
            plan, montecarlo._channels(plan, 0, rows))[0]
        engine = montecarlo._PointEngine(plan, proj)
        noise = oracles.noise_block(plan, 1, 0, rows)
        for alpha in (0.0, math.sqrt(10 ** (6.0 / 10))):
            want = self._direct(plan, proj, noise, alpha)
            np.testing.assert_allclose(engine.statistics(noise, alpha), want,
                                       rtol=1e-12, atol=0)
        if degenerate:
            assert engine.degenerate[:, 1:].all() and not engine.degenerate[:, 0].any()

    def test_statistics_working_set(self):
        # One fig4 scan tile: 100 rows, 2 modes, 361 angles.  A complex
        # per-angle numerator with its power temporaries takes 32 bytes an
        # entry; the trigonometric polynomial's one real product takes 8.
        plan = tiny_plan(scan=True, k=5, trials_per_point=100,
                         pfa_list=(1e-1, 1e-3, 1e-5, 1e-7))
        proj = montecarlo._stacked_modes(plan, montecarlo._channels(plan, 0, 1))[0]
        engine = montecarlo._PointEngine(plan, proj)
        noise = oracles.noise_block(plan, 0, 0, 100)
        engine.statistics(noise, 1.0)
        tracemalloc.start()
        try:
            engine.statistics(noise, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        entries = 100 * proj.shape[1] * len(plan.theta_grid())
        assert peak <= 16 * entries

    def test_statistics_working_set_of_a_whole_tile(self):
        # One 2000-row fig4 scan tile.  The terms and the grid product run
        # in row blocks of _BLOCK_ELEMENTS (mode, angle) entries, 1 MiB,
        # beside the tile's anti-diagonal sums, 0.4 MiB: 1.5 MiB in all.
        # The (modes, 2000, 361) product in one piece took 12.6 MiB.
        plan = tiny_plan(scan=True, k=5, trials_per_point=2000,
                         pfa_list=(1e-1, 1e-3, 1e-5, 1e-7))
        rows = montecarlo._tile_rows(plan)
        assert rows == 2000
        proj = montecarlo._stacked_modes(plan, montecarlo._channels(plan, 0, 1))[0]
        engine = montecarlo._PointEngine(plan, proj)
        noise = oracles.noise_block(plan, 0, 0, rows)
        # 100-row calls, each one block: no row depends on its block.
        want = np.concatenate([engine.statistics(noise[lo:lo + 100], 1.0)
                               for lo in range(0, rows, 100)])
        tracemalloc.start()
        try:
            got = engine.statistics(noise, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.shape == (rows, 2) and got.tobytes() == want.tobytes()
        assert peak < 3 * 2**20


class TestNoiseDraws:
    @pytest.mark.parametrize("kwargs", [
        {},
        {"scan": True, "theta_step_deg": 5.0},
        {"channel_mode": CHANNEL_REDRAWN, "trials_per_point": 25},
    ])
    def test_chunk_size_does_not_change_curves(self, kwargs, monkeypatch):
        plan = tiny_plan(**{"trials_per_point": 40, **kwargs})
        want = run_experiment(plan)
        monkeypatch.setattr(montecarlo, "_CHUNK", 7)
        _assert_same_result(run_experiment(plan), want)

    @pytest.mark.parametrize("scan", [False, True])
    def test_redraw_block_size_does_not_change_curves(self, scan, monkeypatch):
        # One-trial blocks take the engine's single-draw product.
        plan = tiny_plan(channel_mode=CHANNEL_REDRAWN, trials_per_point=25,
                         scan=scan, theta_step_deg=5.0)
        want = run_experiment(plan)
        monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", 1)
        assert montecarlo._tile_rows(plan) == 1
        _assert_same_result(run_experiment(plan), want)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kwargs", [
        {},
        {"scan": True, "theta_step_deg": 5.0},
        {"channel_mode": CHANNEL_REDRAWN},
    ])
    @pytest.mark.parametrize("tiling", ["split", "packed", "straddling"])
    def test_tile_size_does_not_change_curves(self, tiling, kwargs, workers,
                                              monkeypatch):
        plan = tiny_plan(snr_grid_db=(0.0, 3.0, 6.0), trials_per_point=25, **kwargs)
        want = run_experiment(plan)
        if tiling == "split":        # 7-row tiles: points of 7, 7, 7 and 4 rows
            monkeypatch.setattr(montecarlo, "_CHUNK", 7)
        elif tiling == "packed":     # 60-row budget: two whole points per tile
            monkeypatch.setattr(montecarlo, "_CHUNK", 60)
        else:
            # Trial ranges of 7, 11 and 7 trials whose point blocks differ
            # from range to range, so that each range's blocks straddle the
            # point boundaries of the others'; at 2 workers the second
            # range's blocks land in both threads.
            monkeypatch.setattr(montecarlo, "_tiles", lambda plan: [
                (0, 7, 0, 2), (0, 7, 2, 3), (7, 11, 0, 1),
                (7, 11, 1, 3), (18, 7, 0, 1), (18, 7, 1, 3)])
        _assert_same_result(run_experiment(plan, workers=workers), want)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("block_rows", [1, 7])
    def test_grid_block_size_does_not_change_scan_curves(self, block_rows, workers,
                                                         monkeypatch):
        # The fixed-channel scan's terms and grid product run in row blocks
        # of _BLOCK_ELEMENTS // (modes G) rows: here 1-row blocks, and 7-row
        # blocks that straddle the 25-trial points of two 50-row tiles.
        plan = tiny_plan(snr_grid_db=(0.0, 3.0, 6.0, 9.0), trials_per_point=25,
                         scan=True, theta_step_deg=5.0)
        want = run_experiment(plan)
        monkeypatch.setattr(montecarlo, "_tiles",
                            lambda plan: [(0, 25, 0, 2), (0, 25, 2, 4)])
        entries = len(montecarlo._mode_labels(plan)) * len(plan.theta_grid())
        monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", block_rows * entries)
        _assert_same_result(run_experiment(plan, workers=workers), want)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("block_points", [1, 3])
    def test_point_block_size_does_not_change_redrawn_scan_curves(
            self, block_points, workers, monkeypatch):
        # With redrawn channels the scan's grid product runs in blocks of
        # _BLOCK_ELEMENTS // (n modes G) points of a tile's n trials.  Here
        # two 4-point tiles, over a 10-trial and a 15-trial range, take
        # blocks of 1 point each, or blocks of 4 points and of 3 and 1.
        plan = tiny_plan(snr_grid_db=(0.0, 3.0, 6.0, 9.0), trials_per_point=25,
                         scan=True, theta_step_deg=5.0, channel_mode=CHANNEL_REDRAWN)
        want = run_experiment(plan)
        monkeypatch.setattr(montecarlo, "_tiles",
                            lambda plan: [(0, 10, 0, 4), (10, 15, 0, 4)])
        entries = len(montecarlo._mode_labels(plan)) * len(plan.theta_grid())
        monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", block_points * 15 * entries)
        _assert_same_result(run_experiment(plan, workers=workers), want)

    def test_tiles_pack_whole_points_and_split_larger_ones(self, monkeypatch):
        # Tiles are (first trial, count, first point, end point).  With a
        # fixed channel a trial range is a whole point up to the row budget,
        # and a block packs as many points as fit it; a larger point is
        # split, one range per tile, range by range.
        plan = tiny_plan(snr_grid_db=(0.0, 3.0, 6.0, 9.0, 12.0), trials_per_point=25)
        monkeypatch.setattr(montecarlo, "_CHUNK", 60)
        assert montecarlo._tiles(plan) == [(0, 25, 0, 2), (0, 25, 2, 4), (0, 25, 4, 5)]
        monkeypatch.setattr(montecarlo, "_CHUNK", 10)
        tiles = montecarlo._tiles(plan)
        assert tiles[:6] == [(0, 10, i, i + 1) for i in range(5)] + [(10, 10, 0, 1)]
        assert len(tiles) == 3 * 5 and tiles[-1] == (20, 5, 4, 5)

    def test_redrawn_trial_ranges_are_bounded_by_their_setup(self, monkeypatch):
        # With redrawn channels a trial range also takes at most
        # `_range_trials` draws, the set-up budget per draw: here 10 draws
        # (118 entries each at the target angle, M^2 (K + modes) + (5M - 1)
        # modes) beside a 590-row budget, so each range's one block holds
        # every point; with a 25-row budget, blocks of 2 points.
        plan = tiny_plan(snr_grid_db=(0.0, 3.0, 6.0, 9.0, 12.0), trials_per_point=25,
                         channel_mode=CHANNEL_REDRAWN)
        monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", 1180)
        assert (montecarlo._tile_rows(plan), montecarlo._range_trials(plan)) == (590, 10)
        assert montecarlo._tiles(plan) == [(0, 10, 0, 5), (10, 10, 0, 5), (20, 5, 0, 5)]
        assert montecarlo._range_trials(replace(plan, channel_mode=CHANNEL_FIXED)) == 590
        monkeypatch.setattr(montecarlo, "_CHUNK", 25)
        assert montecarlo._tiles(plan)[:4] == [(0, 10, 0, 2), (0, 10, 2, 4),
                                               (0, 10, 4, 5), (10, 10, 0, 2)]

    def test_redrawn_scan_range_counts_the_scan_coefficients(self):
        # M = 20 on a 90 degree grid (3 angles): the engine's
        # (M^2, modes x (2M - 1)) coefficients, 31200 entries a draw, outweigh
        # its 594 per-angle entries, so they bound the range: 3 draws, where
        # leaving them out gave 38 (coefficients of 1185600 entries).
        plan = tiny_plan(m=20, l=20, k=5, scan=True, theta_step_deg=90.0,
                         channel_mode=CHANNEL_REDRAWN)
        n = montecarlo._range_trials(plan)
        assert n == 3
        proj, _, p, _ = montecarlo._stacked_modes(plan, montecarlo._channels(plan, 0, n))
        tracemalloc.start()
        try:
            engine = montecarlo._PointEngine(plan, proj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = p.size + proj.size + engine.coef.size + engine.basis.size
        assert held <= montecarlo._BLOCK_ELEMENTS
        # At most one complex entry of 16 bytes per budget entry.
        assert peak <= 16 * montecarlo._BLOCK_ELEMENTS

    @pytest.mark.parametrize("config, draws", [
        ({}, 403), ({"scan": True}, 2), ({"scan": True, "theta_step_deg": 2.0}, 10),
    ], ids=["at-angle", "scan-0.5", "scan-2"])
    def test_fig3_redrawn_trial_ranges(self, config, draws):
        # The fig3 preset's redrawn trial ranges, at the target angle and
        # with the scan on a 0.5 and a 2 degree grid.
        plan = ExperimentPlan(**cli.PRESETS["fig3"], **config, channel_mode=CHANNEL_REDRAWN)
        assert montecarlo._range_trials(plan) == draws

    def test_scan_budget_keeps_100_trial_points_whole(self):
        # The fig4 scan plan.  A fixed-channel tile is sized by the per-row
        # entries that do not grow with the grid, and the engine takes its
        # grid product in row blocks of its own, so a tile packs many whole
        # points and a sweep pays the per-tile draw, statistics and tally
        # calls a few times rather than once per point.
        plan = tiny_plan(scan=True, k=5, trials_per_point=100,
                         snr_grid_db=tuple(range(-10, 31)),
                         pfa_list=(1e-1, 1e-3, 1e-5, 1e-7))
        assert len(plan.theta_grid()) == 361
        tiles = montecarlo._tiles(plan)
        assert all(count == 100 for _, count, _, _ in tiles)
        assert montecarlo._tile_rows(plan) // 100 >= 10
        assert max(end - lo for *_, lo, end in tiles) >= 10

    def test_sample_count_does_not_change_draws(self):
        # With X X^H = I the statistic depends on the noise only through E0,
        # which is drawn directly, so L no longer enters the draws.
        plan = tiny_plan(trials_per_point=300)
        a = run_experiment(plan)
        b = run_experiment(replace(plan, l=40))
        for name in ("detections", "false_alarms"):
            assert a.columns[name].tobytes() == b.columns[name].tobytes()

    def test_stream_ids_do_not_collide(self, monkeypatch):
        # One id per kind: the fixed channel, the redrawn channels, the noise,
        # which both hypotheses read, and 4, reserved for the test oracle's
        # lift; the mean-gap redraws _REDRAW_BASE + r lie above them all.  The
        # SNR index is a substream of the noise kind, not part of an id.
        kinds = [montecarlo._CHANNEL_STREAM, montecarlo._TRIAL_CHANNEL_STREAM,
                 montecarlo._NOISE_STREAM, 4]
        assert sorted(kinds) == [0, 1, 2, 4]
        assert max(kinds) < montecarlo._REDRAW_BASE <= 2**64 - 2**32
        # The record ranges (stream, substream, first, count) of a redrawn
        # tile of trials [5, 7) at points 3 and 4: the channels of substream
        # 0, then the noise of each point's substream, once for both
        # hypotheses.
        read = []
        draw = montecarlo.complex_normal_ranges
        monkeypatch.setattr(montecarlo, "complex_normal_ranges", lambda seed, ranges, *args,
                            **kwargs: read.append(ranges) or draw(seed, ranges, *args, **kwargs))
        plan = tiny_plan(channel_mode=CHANNEL_REDRAWN, snr_grid_db=(0.0, 1.0, 2.0, 3.0, 4.0))
        montecarlo._run_tiles(plan, [(5, 2, 3, 5)], None)
        assert read == [[(1, 0, 5, 2)], [(2, 3, 5, 2), (2, 4, 5, 2)]]

    @pytest.mark.parametrize("m", [4, 8])
    def test_at_angle_noise_is_cn_0_m_identity(self, m):
        # w = E0^T a^* ~ CN(0, M I): power M, circular, uncorrelated entries.
        plan = tiny_plan(m=m, trials_per_point=20_000)
        w = oracles.noise_block(plan, 0, 0, 20_000)
        n = len(w)
        assert w.shape == (n, m)
        # |w_i|^2 / M is Exp(1) (standard deviation 1).
        assert abs(np.mean(np.abs(w) ** 2) / m - 1) < 4 / math.sqrt(w.size)
        # With z = w / sqrt(M) ~ CN(0, I), re and im of z_i^2 have standard
        # deviation 1, and those of z_i z_j (i != j) and z_i z_j^* 1 / sqrt(2).
        eye = np.eye(m, dtype=bool)
        sigma = np.where(eye, 1.0, math.sqrt(0.5)) / math.sqrt(n)
        pseudo = (w.T @ w) / (n * m)
        cov = (w.T @ w.conj()) / (n * m)
        for part, sd in ((pseudo, sigma), (cov[~eye], sigma[~eye])):
            assert np.all(np.abs(part.real) < 4 * sd)
            assert np.all(np.abs(part.imag) < 4 * sd)

    def test_lifted_noise_matches_w_and_has_iid_unit_entries(self):
        plan = tiny_plan(trials_per_point=20_000)
        m, n = plan.m, 20_000
        w = oracles.noise_block(plan, 1, 0, n)
        e0 = oracles.noise_e0(plan, 1, 0, n)
        assert e0.shape == (n, m, m)
        a = radar.steering_vector(m, plan.theta_target)
        np.testing.assert_allclose(np.einsum("tmn,m->tn", e0, a.conj()), w,
                                   rtol=0, atol=1e-12)
        # One trial's lift is the block's row: run_trial reads count = 1.
        one = oracles.noise_e0(plan, 1, 17, 1)[0]
        assert one.tobytes() == e0[17].tobytes()
        # vec(E0) ~ CN(0, I): unit power per entry, and no correlation or
        # pseudo-correlation between entries.  As for w, re and im of the
        # pseudo-correlation's diagonal have standard deviation 1 / sqrt(n)
        # and the other terms 1 / sqrt(2 n); 5 sigma covers the maximum over
        # the 16 x 16 terms.
        v = e0.reshape(n, m * m)
        power = np.mean(np.abs(v) ** 2, axis=0)
        assert np.max(np.abs(power - 1)) < 5 / math.sqrt(n)
        eye = np.eye(m * m, dtype=bool)
        sigma = np.where(eye, 1.0, math.sqrt(0.5)) / math.sqrt(n)
        cov, pseudo = v.T @ v.conj() / n, v.T @ v / n
        for part, sd in ((pseudo, sigma), (cov[~eye], sigma[~eye])):
            assert np.all(np.abs(part.real) < 5 * sd)
            assert np.all(np.abs(part.imag) < 5 * sd)

    @pytest.mark.parametrize("scan", [False, True])
    def test_oracle_noise_block_is_the_sweeps_draw(self, scan):
        # The engine's tests read `oracles.noise_block`: the records the
        # sweep draws, bit for bit, from the oracle's own generators.
        plan = tiny_plan(scan=scan)
        first, count = 9_000, 1_000
        got = montecarlo.complex_normal_ranges(
            plan.master_seed, [(montecarlo._NOISE_STREAM, 1, first, count)],
            *montecarlo._noise_shape(plan))
        want = oracles.noise_block(plan, 1, first, count)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_redrawn_block_equals_per_trial_channels(self):
        plan = tiny_plan(channel_mode=CHANNEL_REDRAWN)
        block = montecarlo._channels(plan, 15, 4)
        for i, row in enumerate(block):
            want = montecarlo._channels(plan, 15 + i, 1)[0]
            assert row.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k, n_bs", [(2, 1), (1, 2)])
    def test_redrawn_channels_are_iid_cn_0_1(self, k, n_bs):
        # The K N_BS M = 8 entries of a trial's record are i.i.d. CN(0, 1):
        # unit power, circular, uncorrelated, and uncorrelated with the next
        # trial's record.
        plan = tiny_plan(k=k, n_bs=n_bs, channel_mode=CHANNEL_REDRAWN)
        n = 20_000
        v = montecarlo._channels(plan, 0, n).reshape(n, -1)
        d = v.shape[1]
        assert d == 8
        # |v_i|^2 is Exp(1) (standard deviation 1).
        power = np.mean(np.abs(v) ** 2, axis=0)
        assert np.all(np.abs(power - 1) < 4 / math.sqrt(n))
        # As for the noise: re and im of v_i^2 have standard deviation 1, and
        # those of v_i v_j (i != j) and v_i v_j^* 1 / sqrt(2); so do those of
        # v_i(t) v_j(t + 1)^* for every i, j.
        eye = np.eye(d, dtype=bool)
        sigma = np.where(eye, 1.0, math.sqrt(0.5)) / math.sqrt(n)
        pseudo = v.T @ v / n
        cov = v.T @ v.conj() / n
        lag = v[1:].T @ v[:-1].conj() / (n - 1)
        for part, sd in ((pseudo, sigma), (cov[~eye], sigma[~eye]),
                         (lag, math.sqrt(0.5 / (n - 1)))):
            assert np.all(np.abs(part.real) < 4 * sd)
            assert np.all(np.abs(part.imag) < 4 * sd)

    @pytest.mark.parametrize("m", [4, 8])
    def test_redrawn_target_gain_is_beta(self, m):
        # An i.i.d. CN channel has a Haar-distributed null space, so for every
        # BS c / M = a^H P^T a / M ~ Beta(M - N_BS, N_BS).  The gains are the
        # ones the sweep's theory columns average, 4000 trials x 5 BSs.
        plan = tiny_plan(m=m, k=5, snr_grid_db=(0.0,), trials_per_point=4000,
                         channel_mode=CHANNEL_REDRAWN, waveform_modes=(MODE_NSP_PER_BS,))
        parts = montecarlo._run_tiles(plan, montecarlo._tiles(plan), None)["gains"]
        gains = np.concatenate(parts)
        assert gains.shape == (4000, 5)
        law = stats.beta(m - plan.n_bs, plan.n_bs)
        assert stats.kstest(gains.ravel() / m, law.cdf).pvalue > 1e-3

    def test_fixed_channel_is_one_draw_for_every_trial(self):
        plan = tiny_plan()
        want = montecarlo._channels(plan, 0, 1)
        assert want.shape == (1, plan.k, plan.n_bs, plan.m)
        assert montecarlo._channels(plan, 15, 4).tobytes() == want.tobytes()

    def test_channel_draws_are_pinned(self):
        # Acceptance seeds are pinned to the fixed channel draw, so no other
        # stream may move it.  The redrawn value pins the record layout of
        # the redrawn-channel stream's substream 0, which every SNR point
        # reads.
        plan = tiny_plan()
        fixed = montecarlo._channels(plan, 0, 1)[0, 0, 0, 0]
        redrawn = replace(plan, channel_mode=CHANNEL_REDRAWN)
        trial = montecarlo._channels(redrawn, 17, 1)
        assert fixed == -0.531437094499637 + 0.023026140752559265j
        assert trial[0, 2, 1, 3] == 1.5499391458675438 - 0.22710690785007884j


class TestRunExperiment:
    def test_curve_structure(self):
        plan = tiny_plan(
            waveform_modes=(MODE_ORTHOGONAL, MODE_NSP_PER_BS, MODE_NSP_SELECTED),
            trials_per_point=20,
        )
        result = run_experiment(plan)
        assert result.labels == (
            ("orthogonal", "orthogonal"), ("nsp-bs1", "1"), ("nsp-bs2", "2"),
            ("nsp-bs3", "3"), ("nsp-selected", "selected"),
        )
        assert tuple(result.columns) == montecarlo.POINT_FIELDS
        for column in result.columns.values():
            assert column.shape == (len(plan.snr_grid_db), len(plan.pfa_list), 5)
        assert result.selection is not None
        assert result.selection.selected in (1, 2, 3)

    def test_worker_count_invariance(self):
        plan = tiny_plan(trials_per_point=100)
        _assert_same_result(run_experiment(plan, workers=3), run_experiment(plan, workers=1))

    def test_saturated_snr_detects_always(self):
        plan = tiny_plan(snr_grid_db=(30.0,), trials_per_point=300)
        c = run_experiment(plan).columns
        assert (c["pd_emp"] == 1.0).all()
        assert (c["pd_theory_calibrated"] > 0.999).all()

    def test_false_alarm_rate_tracks_pfa(self):
        plan = tiny_plan(snr_grid_db=(0.0,), trials_per_point=4000, pfa_list=(0.1,))
        c = run_experiment(plan).columns
        se = math.sqrt(0.1 * 0.9 / 4000)
        assert (np.abs(c["false_alarms"] / c["trials"] - 0.1) < 3 * se).all()

    def test_empirical_matches_calibrated_theory(self):
        plan = tiny_plan(snr_grid_db=(-3.0, 0.0, 3.0), trials_per_point=4000)
        c = run_experiment(plan).columns
        assert (np.abs(c["pd_emp"] - c["pd_theory_calibrated"]) < 0.03).all()
        assert not c["degenerate"].any()

    def test_redrawn_channels_run_and_reproduce(self):
        plan = tiny_plan(
            channel_mode=CHANNEL_REDRAWN, trials_per_point=40,
            snr_grid_db=(6.0,),
        )
        a = run_experiment(plan)
        _assert_same_result(run_experiment(plan), a)
        assert a.selection is None

    def test_redrawn_theory_is_the_mean_over_channel_draws(self):
        # Criterion 3 for redrawn channels: the theory curve averages P_D
        # over each trial's channel draw.  P_D at the mean noncentrality
        # reads 0.05-0.09 too high for the projected modes here.
        plan = tiny_plan(
            k=5, snr_grid_db=(0.0, 4.0), pfa_list=(1e-3,), trials_per_point=3000,
            master_seed=3, channel_mode=CHANNEL_REDRAWN,
            waveform_modes=(MODE_ORTHOGONAL, MODE_NSP_PER_BS, MODE_NSP_SELECTED),
        )
        tol = 4 * math.sqrt(0.25 / plan.trials_per_point)  # 4 standard errors at P_D = 1/2
        c = run_experiment(plan).columns
        assert (np.abs(c["pd_emp"] - c["pd_theory_calibrated"]) < tol).all()

    def test_fixed_setup_is_built_once(self, monkeypatch):
        calls = []
        build = montecarlo._stacked_modes
        monkeypatch.setattr(montecarlo, "_stacked_modes",
                            lambda *args: calls.append(1) or build(*args))
        run_experiment(tiny_plan(snr_grid_db=(0.0, 3.0, 6.0), trials_per_point=10))
        assert len(calls) == 1

    def test_fixed_run_takes_one_svd(self, monkeypatch):
        # The residual interference reads the selected projector from the
        # set-up's stack; no second projector build of the selected channel.
        calls = []
        build = sharing.null_projectors
        monkeypatch.setattr(sharing, "null_projectors",
                            lambda *args: calls.append(1) or build(*args))
        result = run_experiment(tiny_plan(trials_per_point=10))
        assert len(calls) == 1
        assert result.selection.residual_interference < 1e-12

    @pytest.mark.parametrize("m, n_bs", [(4, 2), (4, 4), (4, 6), (8, 3)])
    def test_fixed_report_forms_no_waveform(self, m, n_bs, monkeypatch):
        # The reported norms are sqrt(M - nullity) exactly, and the
        # brute-force norms of the orthogonal waveform to rounding; the
        # selection is the brute-force argmin.
        def no_waveform(*args):
            raise AssertionError("run_experiment formed a waveform")

        plan = tiny_plan(m=m, n_bs=n_bs, trials_per_point=5)
        monkeypatch.setattr(radar, "orthogonal_waveforms", no_waveform)
        selection = run_experiment(plan).selection
        monkeypatch.undo()
        p, nullity = sharing.null_projectors(montecarlo._channels(plan, 0, 1)[0])
        assert selection.norms == tuple(math.sqrt(m - n) for n in nullity.tolist())
        idx, want = oracles.brute_force_argmin_norms(
            list(p), radar.orthogonal_waveforms(m, plan.l))
        assert selection.selected == idx + 1
        np.testing.assert_allclose(selection.norms, want, rtol=1e-12)
        assert selection.residual_interference < 1e-12

    @pytest.mark.parametrize("scan", [False, True])
    @pytest.mark.parametrize("chunk", [20, montecarlo._CHUNK])
    def test_redrawn_setup_is_built_once_per_trial_range(self, chunk, scan, monkeypatch):
        # P points x T trials take one set-up of n draws per trial range,
        # ceil(T / n) in all, whatever the number of points or of point
        # blocks: at the target angle and with the scan alike.  20-row tiles
        # hold 20-trial ranges of one point each.
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        calls = []
        build = montecarlo._stacked_modes
        monkeypatch.setattr(montecarlo, "_stacked_modes",
                            lambda plan, h: calls.append(len(h)) or build(plan, h))
        plan = tiny_plan(channel_mode=CHANNEL_REDRAWN, trials_per_point=30,
                         snr_grid_db=(0.0, 3.0, 6.0, 9.0, 12.0), scan=scan,
                         theta_step_deg=10.0)
        run_experiment(plan)
        n = montecarlo._range_trials(plan)
        assert len(montecarlo._tiles(plan)) == (10 if chunk == 20 else 1)
        assert calls == [min(n, 30 - first) for first in range(0, 30, n)]

    @pytest.mark.parametrize("scan", [False, True])
    @pytest.mark.parametrize("workers, setups", [
        (2, [12, 12, 12, 6]),
        (4, [12, 12, 12, 12, 6, 6]),
    ], ids=["2-workers", "4-workers"])
    def test_trial_range_set_up_in_two_threads(self, workers, setups, scan, monkeypatch):
        # Ranges of 12, 12 and 6 trials in 1-point blocks: 15 tiles.  2
        # threads take tiles 0-6 and 7-14, so the second range's blocks land
        # in both and it is set up twice; 4 threads (tiles 0-2, 3-6, 7-10
        # and 11-14) set up the first and the second range twice, and the
        # last one too.  Each set-up of a range reads the same records, so
        # the curves, theory columns included, are bit for bit those of 1
        # worker.
        monkeypatch.setattr(montecarlo, "_CHUNK", 12)
        plan = tiny_plan(channel_mode=CHANNEL_REDRAWN, trials_per_point=30,
                         snr_grid_db=(0.0, 3.0, 6.0, 9.0, 12.0), scan=scan,
                         theta_step_deg=10.0,
                         waveform_modes=(MODE_ORTHOGONAL, MODE_NSP_PER_BS, MODE_NSP_SELECTED))
        assert len(montecarlo._tiles(plan)) == 15
        want = run_experiment(plan, workers=1)
        calls = []
        build = montecarlo._stacked_modes
        monkeypatch.setattr(montecarlo, "_stacked_modes",
                            lambda plan, h: calls.append(len(h)) or build(plan, h))
        _assert_same_result(run_experiment(plan, workers=workers), want)
        assert sorted(calls) == sorted(setups)

    def test_theory_is_the_per_draw_mean_of_any_gains(self):
        # The theory reads each column's gains alone: nsp-selected's gains
        # here match no BS column, and each column equals the direct
        # per-draw mean.  The orthogonal column, whose draws share one
        # noncentrality, reads that value exactly.  Every point reads the
        # same (C, modes) gains, as in the sweep.
        plan = tiny_plan(k=3, snr_grid_db=(-3.0, 0.0, 5.0), pfa_list=(0.1, 1e-3),
                         channel_mode=CHANNEL_REDRAWN,
                         waveform_modes=(MODE_NSP_SELECTED, MODE_NSP_PER_BS, MODE_ORTHOGONAL))
        rng = np.random.default_rng(1)
        gains = rng.uniform(0.5, 4.0, (30, 5))
        gains[:, 4] = detection.direction_gain(
            radar.steering_vector(plan.m, plan.theta_target), np.eye(plan.m))
        pd = montecarlo._mean_theory_pd(plan, gains)
        assert pd.tobytes() == oracles.mean_theory_pd_reference(plan, gains).tobytes()
        for c, conv in enumerate(("paper", "calibrated")):
            for i, snr_db in enumerate(plan.snr_grid_db):
                for j, pfa in enumerate(plan.pfa_list):
                    rho = detection.noncentrality(conv, plan.m, 10 ** (snr_db / 10), gains,
                                                  np.arange(5) == 4)
                    want = detection.theoretical_pd(rho, pfa).mean(axis=0)
                    np.testing.assert_allclose(pd[c, i, j], want, rtol=0, atol=1e-15)
                    assert pd[c, i, j, 4] == detection.theoretical_pd(rho[0, 4], pfa)

    @pytest.mark.parametrize("kwargs", [
        dict(channel_mode=CHANNEL_REDRAWN),
        dict(channel_mode=CHANNEL_REDRAWN, scan=True, theta_step_deg=10.0),
        dict(),
        dict(channel_mode=CHANNEL_REDRAWN, n_bs=4),
        dict(channel_mode=CHANNEL_REDRAWN, waveform_modes=(MODE_NSP_SELECTED,)),
        dict(channel_mode=CHANNEL_REDRAWN, snr_grid_db=(-4000.0, -3.0, 0.0, 12.0)),
    ], ids=["redrawn", "redrawn-scan", "fixed", "n_bs-eq-m", "one-mode", "snr-underflow"])
    @pytest.mark.parametrize("block", [None, 64])
    def test_theory_equals_the_per_point_oracle(self, monkeypatch, kwargs, block):
        # The sweep's theory table, byte for byte the per-point loop: with
        # nsp-per-bs beside nsp-selected (a column copying a BS column's
        # gains), two P_FA values, all gains 0 (n_bs = m), one mode, and an
        # SNR whose linear value underflows to 0, so that every draw shares
        # rho = 0.  A 64-value block takes the points one at a time.
        if block:
            monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", block)
        plan = tiny_plan(**{"k": 3, "trials_per_point": 30, "pfa_list": (0.1, 1e-3),
                            "snr_grid_db": tuple(np.arange(-9.0, 20.0, 3.0)),
                            "waveform_modes": (MODE_ORTHOGONAL, MODE_NSP_PER_BS,
                                               MODE_NSP_SELECTED), **kwargs})
        seen = []
        theory = montecarlo._mean_theory_pd
        monkeypatch.setattr(montecarlo, "_mean_theory_pd",
                            lambda plan, gains: seen.append((gains, theory(plan, gains)))
                            or seen[-1][1])
        run_experiment(plan)
        (gains, pd), = seen
        assert gains.shape == ((1,) if plan.channel_mode != CHANNEL_REDRAWN else (30,)) + (
            len(montecarlo._mode_labels(plan)),)
        assert pd.tobytes() == oracles.mean_theory_pd_reference(plan, gains).tobytes()

    def test_theory_unique_calls_do_not_grow_with_the_points(self, monkeypatch):
        # One np.unique per convention over the (C, modes) gains serves
        # every SNR point, also when each point is a block of its own.
        monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", 64)
        gains = np.random.default_rng(2).uniform(0.0, 4.0, (20, 2))
        calls = []
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
        counts = []
        for points in (2, 6, 30):
            plan = tiny_plan(snr_grid_db=tuple(np.linspace(-5.0, 10.0, points)),
                             channel_mode=CHANNEL_REDRAWN)
            calls.clear()
            montecarlo._mean_theory_pd(plan, gains)
            counts.append(len(calls))
        assert counts == [2, 2, 2]

    @pytest.mark.parametrize("scan", [False, True])
    def test_degenerate_redrawn_theory_is_exact_at_zero(self, scan):
        # With n_bs = m no draw has a null space: every nsp-* gain is 0, so
        # every draw of those columns shares rho = 0 and the cell reads
        # P_D(0) itself, not a mean of equal values.
        plan = tiny_plan(n_bs=4, k=3, trials_per_point=50, pfa_list=(0.1, 1e-3),
                         channel_mode=CHANNEL_REDRAWN, scan=scan, theta_step_deg=10.0,
                         waveform_modes=(MODE_ORTHOGONAL, MODE_NSP_PER_BS, MODE_NSP_SELECTED))
        result = run_experiment(plan)
        assert [label for label, _ in result.labels] == [
            MODE_ORTHOGONAL, "nsp-bs1", "nsp-bs2", "nsp-bs3", MODE_NSP_SELECTED]
        for j, pfa in enumerate(plan.pfa_list):
            for name in ("pd_theory_paper", "pd_theory_calibrated"):
                assert (result.columns[name][:, j, 1:] == detection.theoretical_pd(0.0, pfa)).all()

    @pytest.mark.parametrize("trials", [10, 40])
    @pytest.mark.parametrize("channel_mode", [CHANNEL_REDRAWN, CHANNEL_FIXED])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_keys_are_derived_once_per_worker(self, channel_mode, workers, trials,
                                              monkeypatch):
        # Each _run_tiles call derives the key of each stream kind it reads
        # once: the noise stream, and the redrawn-channel stream.  No
        # draw derives a key, except the fixed channel's stream 0 through
        # rng_substream.  Neither count grows with the trials per point or
        # the tiles.
        calls = {"sweep": [], "draw": []}

        def counted(name, fn):
            return lambda seed, stream_id: calls[name].append(stream_id) or fn(seed, stream_id)

        monkeypatch.setattr(montecarlo, "stream_key",
                            counted("sweep", montecarlo.stream_key))
        monkeypatch.setattr(numerics, "stream_key", counted("draw", numerics.stream_key))
        plan = tiny_plan(channel_mode=channel_mode, trials_per_point=trials,
                         snr_grid_db=(0.0, 3.0, 6.0, 9.0))
        monkeypatch.setattr(montecarlo, "_CHUNK", 10)
        run_experiment(plan, workers=workers)
        kinds = [2] + [1] * (channel_mode == CHANNEL_REDRAWN)
        assert sorted(calls["sweep"]) == sorted(kinds * workers)
        assert calls["draw"] == [0] * (channel_mode == CHANNEL_FIXED)

    @pytest.mark.parametrize("channel_mode", [CHANNEL_REDRAWN, CHANNEL_FIXED])
    def test_keys_are_derived_for_exactly_the_tiles_streams(self, channel_mode,
                                                            monkeypatch):
        # Tiles of points 0 and 2 alone: the keys are those of the noise
        # kind (and the redrawn-channel kind), each derived once, and every
        # draw passes them in.  The noise draws read substreams 0 and 2
        # alone, none of point 1's, and the redrawn channels substream 0.
        derived, read = [], []
        keys = montecarlo.stream_key
        draw = montecarlo.complex_normal_ranges
        monkeypatch.setattr(montecarlo, "stream_key",
                            lambda seed, i: derived.append(i) or keys(seed, i))

        def recorded(seed, ranges, *args, keys=None, **kwargs):
            assert sorted(keys) == sorted(derived)
            read.extend(ranges)
            return draw(seed, ranges, *args, keys=keys, **kwargs)

        monkeypatch.setattr(montecarlo, "complex_normal_ranges", recorded)
        monkeypatch.setattr(montecarlo, "_CHUNK", 10)
        plan = tiny_plan(channel_mode=channel_mode, trials_per_point=20,
                         snr_grid_db=(0.0, 3.0, 6.0))
        tiles = montecarlo._tiles(plan)
        assert [tiles[i] for i in (0, 2, 3)] == [(0, 10, 0, 1), (0, 10, 2, 3), (10, 10, 0, 1)]
        engine = None
        if channel_mode == CHANNEL_FIXED:
            h = montecarlo._channels(plan, 0, 1)
            engine = montecarlo._PointEngine(plan, montecarlo._stacked_modes(plan, h)[0])
        montecarlo._run_tiles(plan, [tiles[0], tiles[2], tiles[3]], engine)
        want = [1] * (channel_mode == CHANNEL_REDRAWN) + [2]
        assert sorted(derived) == want
        assert {stream_id for stream_id, *_ in read} == set(want)
        assert {substream for stream_id, substream, *_ in read if stream_id > 1} == {0, 2}
        assert {substream for stream_id, substream, *_ in read if stream_id == 1} <= {0}

    @pytest.mark.parametrize("n_bs, m", [(2, 4), (1, 3), (4, 4), (6, 4)])
    def test_selection_is_the_degradation_argmin(self, n_bs, m):
        # The set-up selects by nullity; on the orthogonal waveforms that is
        # the brute-force degradation argmin, and nsp-selected takes its
        # projector.
        plan = tiny_plan(m=m, n_bs=n_bs, l=16, channel_mode=CHANNEL_REDRAWN,
                         waveform_modes=(MODE_NSP_SELECTED,))
        h = montecarlo._channels(plan, 0, 40)
        h[::3, 1] = 0                                   # zero channels
        h[1::3, 2, 1:] = h[1::3, 2, :1]                 # repeated rows
        proj, selected, p, _ = montecarlo._stacked_modes(plan, h)
        x = radar.orthogonal_waveforms(m, plan.l)
        want = [oracles.brute_force_argmin_norms(list(pc), x)[0] for pc in p]
        assert selected.tolist() == want
        assert proj[:, 0].tobytes() == p[np.arange(40), want].tobytes()

    def test_redrawn_worker_count_invariance(self):
        plan = tiny_plan(channel_mode=CHANNEL_REDRAWN, trials_per_point=30)
        _assert_same_result(run_experiment(plan, workers=2), run_experiment(plan, workers=1))

    @pytest.mark.parametrize("channel_mode", [CHANNEL_REDRAWN, CHANNEL_FIXED])
    def test_more_threads_than_cores(self, channel_mode, monkeypatch):
        # One row per tile, so that every one of the cpu_count() + 2 worker
        # threads runs tiles of a scan; with a fixed channel they share one
        # engine.  A short switch interval makes the threads interleave
        # often, and a lost tally would change the curves.  The run goes in
        # a daemon thread joined with a timeout, so a deadlocked pool fails
        # the test rather than hanging the suite.
        monkeypatch.setattr(montecarlo, "_CHUNK", 1)
        workers = (os.cpu_count() or 1) + 2
        plan = tiny_plan(channel_mode=channel_mode, scan=True, theta_step_deg=5.0,
                         trials_per_point=workers)
        assert len(montecarlo._tiles(plan)) >= workers
        out = {}
        run = threading.Thread(
            target=lambda: out.update(result=run_experiment(plan, workers=workers)),
            daemon=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run.start()
            run.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not run.is_alive(), "the thread pool did not finish within 120 s"
        _assert_same_result(out["result"], run_experiment(plan, workers=1))

    @pytest.mark.parametrize("channel_mode", [CHANNEL_REDRAWN, CHANNEL_FIXED])
    def test_more_threads_than_cores_at_angle(self, channel_mode, monkeypatch):
        # As test_more_threads_than_cores, on the at-angle path: each of the
        # cpu_count() + 2 threads draws the w vectors (and redrawn channels)
        # into its own buffer.
        monkeypatch.setattr(montecarlo, "_CHUNK", 1)
        workers = (os.cpu_count() or 1) + 2
        plan = tiny_plan(channel_mode=channel_mode, trials_per_point=workers)
        assert len(montecarlo._tiles(plan)) >= workers
        out = {}
        run = threading.Thread(
            target=lambda: out.update(result=run_experiment(plan, workers=workers)),
            daemon=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run.start()
            run.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not run.is_alive(), "the thread pool did not finish within 120 s"
        _assert_same_result(out["result"], run_experiment(plan, workers=1))

    @pytest.mark.parametrize("chunk", [3, 12])
    @pytest.mark.parametrize("scan", [False, True])
    @pytest.mark.parametrize("channel_mode", [CHANNEL_REDRAWN, CHANNEL_FIXED])
    def test_padded_records_do_not_depend_on_tiles(self, chunk, scan, channel_mode,
                                                   monkeypatch):
        # M = 3 pads each noise record (6 or 18 words) to whole counter
        # steps.  Tiles of 3 rows split every point; tiles of 12 rows pack
        # two points and end with a shorter tile.  The worker's buffer is
        # reused across tiles of different sizes.
        plan = tiny_plan(m=3, channel_mode=channel_mode, scan=scan, theta_step_deg=5.0,
                         trials_per_point=5, snr_grid_db=(0.0, 4.0, 8.0))
        want = run_experiment(plan)
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        tiles = montecarlo._tiles(plan)
        sizes = {count * (end - lo) for _, count, lo, end in tiles}
        assert len(tiles) > 1 and len(sizes) > 1
        _assert_same_result(run_experiment(plan), want)

    @pytest.mark.parametrize("kwargs", [
        {}, {"channel_mode": CHANNEL_REDRAWN}, {"scan": True},
        {"channel_mode": CHANNEL_REDRAWN, "scan": True, "theta_step_deg": 2.0},
    ], ids=["fixed", "redrawn", "scan", "redrawn-scan"])
    def test_hypotheses_share_each_trials_noise(self, kwargs):
        # At -1000 and -400 dB the echo adds nothing a double holds to the
        # noise's statistic, so with both hypotheses reading one record per
        # trial every row's detections are its false alarms.
        plan = ExperimentPlan(**{**cli.PRESETS["fig3"], **kwargs,
                                 "snr_grid_db": (-1000.0, -400.0), "pfa_list": (0.1, 0.5),
                                 "trials_per_point": 200})
        c = run_experiment(plan).columns
        assert c["detections"].tobytes() == c["false_alarms"].tobytes()
        assert c["false_alarms"][:, 1].all()   # P_FA = 0.5: not vacuous

    @pytest.mark.parametrize("channel_mode", [CHANNEL_FIXED, CHANNEL_REDRAWN])
    @settings(max_examples=2, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1))
    def test_false_alarms_are_binomial_on_any_seed(self, channel_mode, seed):
        # At the target angle each mode's H0 statistic is chi-squared with 2
        # dof whatever the channel, and its points read independent
        # substreams, so its false alarms pooled over the points are
        # Binomial(points x trials, P_FA): within 4 sigma of the mean.
        plan = ExperimentPlan(**{**cli.PRESETS["fig3"], "master_seed": seed,
                                 "snr_grid_db": tuple(range(-10, 20, 3)),
                                 "pfa_list": (0.1, 0.01), "trials_per_point": 500,
                                 "channel_mode": channel_mode})
        c = run_experiment(plan).columns
        n = len(plan.snr_grid_db) * plan.trials_per_point
        pfa = np.array(plan.pfa_list)[:, None]
        pooled = c["false_alarms"].sum(axis=0)                 # (pfa, modes)
        assert (np.abs(pooled - n * pfa) <= 4 * np.sqrt(n * pfa * (1 - pfa))).all()

    def test_pfa_sweep_orders_detection(self):
        plan = tiny_plan(
            snr_grid_db=(3.0,), pfa_list=(0.1, 1e-3), trials_per_point=2000,
        )
        pd = run_experiment(plan).columns["pd_emp"]
        assert (pd[:, 0] >= pd[:, 1]).all()


# run_experiment's tallies and theory columns for GOLDEN_PLAN, per channel
# setting: {label: [(detections, false_alarms, degenerate, pd_theory_paper,
# pd_theory_calibrated) at -6 dB, at 0 dB]}.  Recorded before the scalar
# channel/projector layer was replaced by the stacked one; the "fixed" and
# "redrawn" tallies were re-read when the at-angle noise became the M-vector
# w = E0^T a^* (same law, new realization), and the "redrawn" projected
# modes again when redrawn channels became records of one stream per SNR
# point (same law, new realization).  The projected modes' theory floats
# were re-read (by at most 3.3e-16) when the direction gain came to be taken
# from P itself, the projected waveform's correlation, and again (by at most
# 6.8e-16 relative, with the selection's norms by 1-2 ulp of sqrt(2)) when
# full-rank projectors came to be built by Gram-Schmidt rather than the SVD.
# The norms were re-read as exactly sqrt(2) when they came to be
# sqrt(M - nullity) rather than formed from the waveform.
# Every tally, and the "redrawn" theory floats at 0 dB, were re-read when
# each stream kind got one key and the SNR index became its Philox
# substream (same law, new realization); the fixed and scan theory floats
# and the selection did not move.  The "redrawn" theory floats of the
# orthogonal mode and bs1 (and so nsp-selected) were re-read (by at most
# 8.2e-16 relative; no tally moved) when at-angle redrawn tiles came to be
# set up from the vectors P a^* and the orthogonal column to be evaluated
# once per point: it now equals the "fixed" one.  The "redrawn" projected
# modes at 0 dB (tallies and theory) were re-read when every SNR point came
# to read each trial's channels from substream 0, which point 0 (-6 dB)
# read already (same law, new realization; -6 dB did not move).  The
# "redrawn-scan" setting, the scan engine over C = n channel draws, was
# recorded before its grid product and the fixed channel's came to run in
# one loop.  Five "redrawn" paper-convention theory floats (nsp-bs1 and
# nsp-selected at both points, nsp-bs2 at 0 dB) were re-read, each by
# 1 ulp to the "redrawn-scan" value, when at-angle redrawn tiles came to be
# set up from the projectors, whose P a^* the scan's target gains read too.
# Every false-alarm tally was re-read when both hypotheses came to read one
# noise record per trial, the H0 echo being the H1 echo without the target
# (same law, new realization); no other entry moved.
# Any other change to the streams, the selection or the
# arithmetic shows here.
GOLDEN_PLAN = dict(
    m=4, k=2, l=16, snr_grid_db=(-6.0, 0.0), pfa_list=(0.1,), trials_per_point=40,
    master_seed=5, waveform_modes=(MODE_ORTHOGONAL, MODE_NSP_PER_BS, MODE_NSP_SELECTED),
)
GOLDEN = {
    "fixed": {
        "orthogonal": [
            (29, 5, 0, 0.5440529562566051, 0.8152917144245608),
            (40, 5, 0, 0.9786015642681981, 0.9998694333859738),
        ],
        "nsp-bs1": [
            (24, 4, 0, 0.3783434868292714, 0.7149767374024333),
            (40, 7, 0, 0.8725422122131623, 0.9985294586036594),
        ],
        "nsp-bs2": [
            (19, 4, 0, 0.31152110018807877, 0.6577181694816085),
            (40, 5, 0, 0.7723090242273174, 0.9958529653201275),
        ],
        "nsp-selected": [
            (24, 4, 0, 0.3783434868292714, 0.7149767374024333),
            (40, 7, 0, 0.8725422122131623, 0.9985294586036594),
        ],
    },
    "scan": {
        "orthogonal": [
            (36, 24, 0, 0.5440529562566051, 0.8152917144245608),
            (40, 29, 0, 0.9786015642681981, 0.9998694333859738),
        ],
        "nsp-bs1": [
            (34, 21, 0, 0.3783434868292714, 0.7149767374024333),
            (40, 23, 0, 0.8725422122131623, 0.9985294586036594),
        ],
        "nsp-bs2": [
            (36, 24, 0, 0.31152110018807877, 0.6577181694816085),
            (40, 25, 0, 0.7723090242273174, 0.9958529653201275),
        ],
        "nsp-selected": [
            (34, 21, 0, 0.3783434868292714, 0.7149767374024333),
            (40, 23, 0, 0.8725422122131623, 0.9985294586036594),
        ],
    },
    "redrawn": {
        "orthogonal": [
            (29, 5, 0, 0.5440529562566051, 0.8152917144245608),
            (40, 5, 0, 0.9786015642681981, 0.9998694333859738),
        ],
        "nsp-bs1": [
            (20, 2, 0, 0.2558544198798436, 0.5421437843795188),
            (34, 3, 0, 0.5708131994295309, 0.914491812727577),
        ],
        "nsp-bs2": [
            (20, 4, 0, 0.21415447769751678, 0.48251746803556117),
            (37, 4, 0, 0.46080839478626984, 0.8958055238513838),
        ],
        "nsp-selected": [
            (20, 2, 0, 0.2558544198798436, 0.5421437843795188),
            (34, 3, 0, 0.5708131994295309, 0.914491812727577),
        ],
    },
    "redrawn-scan": {
        "orthogonal": [
            (36, 24, 0, 0.5440529562566051, 0.8152917144245608),
            (40, 29, 0, 0.9786015642681981, 0.9998694333859738),
        ],
        "nsp-bs1": [
            (30, 20, 0, 0.2558544198798436, 0.5421437843795188),
            (39, 24, 0, 0.5708131994295309, 0.914491812727577),
        ],
        "nsp-bs2": [
            (31, 25, 0, 0.21415447769751678, 0.48251746803556117),
            (39, 25, 0, 0.46080839478626984, 0.8958055238513838),
        ],
        "nsp-selected": [
            (30, 20, 0, 0.2558544198798436, 0.5421437843795188),
            (39, 24, 0, 0.5708131994295309, 0.914491812727577),
        ],
    },
}


class TestGoldenOutputs:
    @pytest.mark.parametrize("setting, kwargs", [
        ("fixed", {}),
        ("scan", {"scan": True, "theta_step_deg": 5.0}),
        ("redrawn", {"channel_mode": CHANNEL_REDRAWN}),
        ("redrawn-scan", {"channel_mode": CHANNEL_REDRAWN, "scan": True,
                          "theta_step_deg": 5.0}),
    ])
    def test_tallies_and_theory_are_pinned(self, setting, kwargs):
        result = run_experiment(ExperimentPlan(**GOLDEN_PLAN, **kwargs))
        names = ("detections", "false_alarms", "degenerate",
                 "pd_theory_paper", "pd_theory_calibrated")
        got = {label: [tuple(result.columns[name][i, 0, k].item() for name in names)
                       for i in range(len(GOLDEN_PLAN["snr_grid_db"]))]
               for k, (label, _) in enumerate(result.labels)}
        assert got == GOLDEN[setting]
        if not setting.startswith("redrawn"):
            assert result.selection.selected == 1
            assert result.selection.norms == (math.sqrt(2), math.sqrt(2))


class TestRedrawnTheory:
    @pytest.mark.parametrize("kwargs", [{}, {"scan": True, "theta_step_deg": 5.0}])
    def test_orthogonal_theory_is_the_fixed_channels(self, kwargs):
        # The orthogonal gain is the same in every draw, and its column is
        # evaluated once per point: bit for bit the fixed channel's.
        plan = ExperimentPlan(**{**GOLDEN_PLAN, "snr_grid_db": tuple(np.arange(-10.0, 20.1, 2.0)),
                                 "pfa_list": (0.1, 1e-3)}, **kwargs)

        def theory(p):
            result = run_experiment(p)
            k = _mode_index(result, MODE_ORTHOGONAL)
            return [result.columns[name][..., k].tobytes()
                    for name in ("pd_theory_paper", "pd_theory_calibrated")]

        assert theory(replace(plan, channel_mode=CHANNEL_REDRAWN)) == theory(plan)

    @pytest.mark.parametrize("n_bs", [2, 3])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_theory_is_the_same_with_and_without_the_scan(self, seed, n_bs):
        # The theory reads only the target gains, and both detectors take
        # them as a^T (P a^*) from the same projectors: the same bytes.
        # With the at-angle vectors P a^* formed without P they differed
        # in the last bit at each of these seeds.
        plan = ExperimentPlan(**{**cli.PRESETS["fig3"], "n_bs": n_bs}, master_seed=seed,
                              trials_per_point=40, channel_mode=CHANNEL_REDRAWN)

        def theory(p):
            c = run_experiment(p).columns
            return [c[name].tobytes() for name in ("pd_theory_paper", "pd_theory_calibrated")]

        assert theory(replace(plan, scan=True, theta_step_deg=10.0)) == theory(plan)

    @pytest.mark.parametrize("scan", [False, True])
    def test_points_share_each_trials_channels(self, scan):
        # Every SNR point reads trial t's channels from the same record, so
        # at two SNRs 1e-12 dB apart the nsp-bs1 theory, a mean over the
        # same 40 draws, agrees to rounding; with channels drawn per point
        # the two means differed by the spread of the draws.
        plan = ExperimentPlan(**{**GOLDEN_PLAN, "snr_grid_db": (0.0, 1e-12)},
                              channel_mode=CHANNEL_REDRAWN, scan=scan, theta_step_deg=5.0)
        result = run_experiment(plan)
        k = _mode_index(result, "nsp-bs1")
        for name in ("pd_theory_paper", "pd_theory_calibrated"):
            a, b = result.columns[name][:, 0, k]
            assert b == pytest.approx(a, rel=1e-9)

    @pytest.mark.parametrize("modes", [(MODE_ORTHOGONAL, MODE_NSP_PER_BS, MODE_NSP_SELECTED),
                                       (MODE_ORTHOGONAL, MODE_NSP_SELECTED)])
    def test_selected_theory_is_the_per_trial_mean(self, modes):
        # Gathered from the BS columns (with nsp-per-bs) or evaluated per
        # draw, the selected theory is the oracle's trial-by-trial mean.
        plan = ExperimentPlan(**{**GOLDEN_PLAN, "waveform_modes": modes},
                              channel_mode=CHANNEL_REDRAWN)
        result = run_experiment(plan)
        k = _mode_index(result, MODE_NSP_SELECTED)
        for i in range(len(plan.snr_grid_db)):
            for j, pfa in enumerate(plan.pfa_list):
                for conv in ("paper", "calibrated"):
                    got = result.columns[f"pd_theory_{conv}"][i, j, k]
                    want = oracles.mean_selected_theory_pd(plan, i, pfa, conv)
                    assert got == pytest.approx(want, rel=0, abs=1e-15)


def _gaps(result, source, target_pd=0.9):
    """(snr_at_target, gap_db) of one gap source (`cli.GAP_SOURCES`) at the
    result's first P_FA, from its (points, modes) column there."""
    return montecarlo.snr_gap_columns(
        [label for label, _ in result.labels], np.array(result.plan.snr_grid_db),
        result.columns[cli.GAP_SOURCES[source]][:, 0], target_pd)


class TestSnrGap:
    def _dense_result(self):
        plan = tiny_plan(
            snr_grid_db=tuple(np.arange(-10.0, 20.1, 0.5)),
            trials_per_point=1,  # theory curves do not need trials
        )
        return plan, run_experiment(plan)

    def test_theory_gap_matches_closed_form(self):
        plan, result = self._dense_result()
        _, gaps = _gaps(result, "theory_calibrated")
        # closed form: at equal detection probability the calibrated laws
        # differ by the SNR ratio M / c
        a = radar.steering_vector(plan.m, plan.theta_target)
        x = radar.orthogonal_waveforms(plan.m, plan.l)
        h = sharing.channel_matrices([numerics.rng_substream(plan.master_seed, 0)],
                                     plan.k, plan.n_bs, plan.m)[0]
        p, _ = sharing.null_projectors(h)
        best, _ = oracles.brute_force_argmin_norms(list(p), x)
        gain = detection.direction_gain(a, oracles.waveform_correlation(p[best] @ x))
        want = detection.theory_snr_gap_db(plan.m, gain, "calibrated")
        assert abs(gaps[MODE_NSP_SELECTED] - want) < 0.05
        assert gaps[MODE_ORTHOGONAL] == 0.0

    def test_orthogonal_threshold_snr_matches_root_oracle(self):
        plan, result = self._dense_result()
        snr_at, _ = _gaps(result, "theory_calibrated")
        want = oracles.pd_at_snr_root(plan.m, float(plan.m), 0.1, 0.9)
        assert abs(snr_at[MODE_ORTHOGONAL] - want) < 0.05

    def test_unreachable_target_reports_none(self):
        plan = tiny_plan(snr_grid_db=(-30.0, -25.0), trials_per_point=50)
        snr_at, gaps = _gaps(run_experiment(plan), "emp")
        assert snr_at[MODE_ORTHOGONAL] is None
        assert gaps[MODE_NSP_SELECTED] is None

    @given(y=_CURVES.filter(len), target=st.one_of(
        st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0]), st.floats(0, 1)))
    @example(y=[0.5, 0.9, 0.9 - 1e-16, 0.95], target=0.9)
    @settings(max_examples=300, deadline=None)
    def test_snr_at_target_equals_the_linear_scan(self, y, target):
        # The first SNR where the fit reaches the target, also where the
        # fit dips by less than 1e-15 after it: the example's fit keeps
        # 0.9 - 1e-16, and it first reaches 0.9 at 1 dB.
        snr_db = np.arange(len(y), dtype=float)
        got = montecarlo._snr_at_target(snr_db, np.array(y, dtype=float), target)
        assert got == oracles.snr_at_target_reference(snr_db, y, target)

    def test_gap_columns_equal_the_per_curve_fits(self):
        # The summary's gaps, read from the result's columns, are the
        # per-curve oracle's fits, column by column.  Under the paper's
        # convention nsp-selected never reaches 0.9, so its gap is None
        # beside the orthogonal 0.0, and at P_FA 1e-3 the orthogonal curve
        # does not either.
        result = run_experiment(tiny_plan(snr_grid_db=tuple(np.arange(-10.0, 0.1, 1.0)),
                                          pfa_list=(0.1, 1e-3), trials_per_point=300))
        reports = cli._gap_reports(result)
        assert reports["0.1"]["theory_paper"] == {MODE_ORTHOGONAL: 0.0, MODE_NSP_SELECTED: None}
        assert reports["0.001"]["theory_paper"] == {MODE_ORTHOGONAL: None,
                                                    MODE_NSP_SELECTED: None}
        assert reports["0.1"]["theory_calibrated"][MODE_NSP_SELECTED] > 0
        want = {}
        for j, pfa in enumerate(result.plan.pfa_list):
            want[repr(pfa)] = {}
            for source, name in cli.GAP_SOURCES.items():
                snr_at = {label: oracles.snr_at_target_reference(
                    result.plan.snr_grid_db, result.columns[name][:, j, k], 0.9)
                    for k, (label, _) in enumerate(result.labels)}
                base = snr_at[MODE_ORTHOGONAL]
                want[repr(pfa)][source] = {
                    label: None if v is None or base is None else v - base
                    for label, v in snr_at.items()}
        assert reports == want

    def test_empirical_gap_near_theory_gap(self):
        plan = tiny_plan(
            snr_grid_db=tuple(np.arange(-2.0, 10.1, 1.0)),
            trials_per_point=3000,
        )
        result = run_experiment(plan)
        _, emp = _gaps(result, "emp")
        _, theo = _gaps(result, "theory_calibrated")
        assert abs(emp[MODE_NSP_SELECTED] - theo[MODE_NSP_SELECTED]) < 0.5


class TestMeanSelectedGap:
    def test_deterministic_and_positive(self):
        plan = tiny_plan(m=8, l=16)
        g1 = mean_selected_gap_db(plan, n_redraws=10)
        g2 = mean_selected_gap_db(plan, n_redraws=10)
        assert g1 == g2
        assert g1 > 0.0

    def test_convention_factor(self):
        plan = tiny_plan(m=8, l=16)
        paper = mean_selected_gap_db(plan, n_redraws=10, convention="paper")
        cal = mean_selected_gap_db(plan, n_redraws=10, convention="calibrated")
        assert abs(paper - 2 * cal) < 1e-9

    def test_unknown_convention_names_the_choices(self):
        with pytest.raises(ValueError, match=r"'bogus'.*\['calibrated', 'paper'\]"):
            mean_selected_gap_db(tiny_plan(), convention="bogus")

    @pytest.mark.parametrize("n_redraws", [0, -1])
    def test_no_redraws_rejected(self, n_redraws):
        with pytest.raises(ValueError, match=f"n_redraws must be >= 1, got {n_redraws}"):
            mean_selected_gap_db(tiny_plan(), n_redraws=n_redraws)

    @pytest.mark.parametrize("n_bs", [4, 5])
    def test_no_null_space_names_the_cause(self, n_bs):
        # n_bs >= m leaves every projector 0, so every redraw's selected
        # waveform has zero gain at the target.
        with pytest.raises(ValueError, match=re.escape(
                f"10 of 10 channel redraws give the selected waveform zero gain "
                f"at the target (n_bs={n_bs}, m=4)")):
            mean_selected_gap_db(tiny_plan(m=4, n_bs=n_bs), n_redraws=10)
