import math

import numpy as np
import pytest

from nspradar.errors import ConfigurationError
from nspradar.montecarlo import (
    CHANNEL_REDRAWN,
    MODE_NSP_PER_BS,
    MODE_NSP_SELECTED,
    MODE_ORTHOGONAL,
    ExperimentPlan,
    make_plan,
    mean_selected_gap_db,
    run_experiment,
    run_trial,
    snr_gap,
    wilson_interval,
    with_overrides,
    _isotonic,
)

import nspradar.montecarlo as montecarlo
import oracles


def tiny_plan(**kwargs):
    base = dict(
        m=4, k=3, l=16, snr_grid_db=(0.0, 6.0), pfa_list=(0.1,),
        trials_per_point=200, master_seed=5,
        waveform_modes=(MODE_ORTHOGONAL, MODE_NSP_SELECTED),
    )
    base.update(kwargs)
    return make_plan(**base)


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
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ConfigurationError):
            make_plan(**kwargs)

    def test_with_overrides(self):
        plan = with_overrides(tiny_plan(), master_seed=9)
        assert plan.master_seed == 9
        assert plan.snr_grid_db == (0.0, 6.0)


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

    def test_width_shrinks_with_n(self):
        w1 = np.diff(wilson_interval(10, 100))[0]
        w2 = np.diff(wilson_interval(100, 1000))[0]
        assert w2 < w1


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


class TestRunTrial:
    def test_deterministic(self):
        plan = tiny_plan()
        a = run_trial(plan, 6.0, 0.1, 3)
        b = run_trial(plan, 6.0, 0.1, 3)
        assert a == b

    def test_trials_differ(self):
        plan = tiny_plan()
        a = run_trial(plan, 6.0, 0.1, 3)
        b = run_trial(plan, 6.0, 0.1, 4)
        assert a[MODE_ORTHOGONAL].statistic_h1 != b[MODE_ORTHOGONAL].statistic_h1

    def test_off_grid_rejected(self):
        plan = tiny_plan()
        with pytest.raises(ConfigurationError):
            run_trial(plan, 3.3, 0.1, 0)
        with pytest.raises(ConfigurationError):
            run_trial(plan, 6.0, 0.5, 0)

    def test_matches_experiment_tallies(self):
        # The vectorized sweep must agree trial-for-trial with the explicit
        # single-trial pipeline.
        plan = tiny_plan(trials_per_point=60)
        result = run_experiment(plan)
        for snr_db in plan.snr_grid_db:
            det = {label: 0 for label, _ in
                   [(c.label, c.bs_id) for c in result.curves]}
            fa = dict(det)
            for t in range(plan.trials_per_point):
                out = run_trial(plan, snr_db, 0.1, t)
                for label, outcome in out.items():
                    det[label] += outcome.detected_h1
                    fa[label] += outcome.detected_h0
            for curve in result.curves:
                pt = next(p for p in curve.points if p.snr_db == snr_db)
                assert pt.detections == det[curve.label]
                assert pt.false_alarms == fa[curve.label]


def _tallies_by_run_trial(plan, pfa):
    det, fa = {}, {}
    for snr_db in plan.snr_grid_db:
        for t in range(plan.trials_per_point):
            for label, outcome in run_trial(plan, snr_db, pfa, t).items():
                det[label, snr_db] = det.get((label, snr_db), 0) + outcome.detected_h1
                fa[label, snr_db] = fa.get((label, snr_db), 0) + outcome.detected_h0
    return det, fa


def _assert_tallies_match(plan, result, pfa):
    det, fa = _tallies_by_run_trial(plan, pfa)
    for curve in result.curves:
        for pt in curve.points:
            if pt.pfa == pfa:
                assert pt.detections == det[curve.label, pt.snr_db]
                assert pt.false_alarms == fa[curve.label, pt.snr_db]


class TestEngineOracle:
    """The vectorized engine against the explicit run_trial pipeline."""

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
        curves = {c.label: c for c in result.curves}
        for pt in curves[MODE_NSP_SELECTED].points:
            assert pt.degenerate == pt.trials and pt.detections == 0
        assert all(pt.degenerate == 0 for pt in curves[MODE_ORTHOGONAL].points)
        _assert_tallies_match(plan, result, 0.1)

    def test_tallies_match_across_chunk_boundary(self):
        plan = tiny_plan(snr_grid_db=(3.0,), trials_per_point=montecarlo._CHUNK + 3)
        _assert_tallies_match(plan, run_experiment(plan), 0.1)

    @pytest.mark.parametrize("scan", [False, True])
    def test_statistics_match(self, scan):
        plan = tiny_plan(
            waveform_modes=(MODE_ORTHOGONAL, MODE_NSP_PER_BS, MODE_NSP_SELECTED),
            scan=scan, theta_step_deg=1.0,
        )
        modes, _ = montecarlo._build_modes(plan, montecarlo._fixed_channels(plan))
        engine = montecarlo._PointEngine(plan, modes)
        alpha = math.sqrt(10 ** (6.0 / 10))
        e1 = montecarlo._noise_block(plan, 1, montecarlo._H1, 0, 8)
        e0 = montecarlo._noise_block(plan, 1, montecarlo._H0, 0, 8)
        s1 = engine.statistics(e1, alpha)
        s0 = engine.statistics(e0, 0.0)
        for mi, ms in enumerate(modes):
            for t in range(8):
                want = run_trial(plan, 6.0, 0.1, t)[ms.label]
                assert s1[t, mi] == pytest.approx(want.statistic_h1, rel=1e-9)
                assert s0[t, mi] == pytest.approx(want.statistic_h0, rel=1e-9)


class TestNoiseDraws:
    @pytest.mark.parametrize("kwargs", [
        {},
        {"scan": True, "theta_step_deg": 5.0},
        {"channel_mode": CHANNEL_REDRAWN, "trials_per_point": 25},
    ])
    def test_chunk_size_does_not_change_curves(self, kwargs, monkeypatch):
        plan = tiny_plan(**{"trials_per_point": 40, **kwargs})
        want = run_experiment(plan).curves
        monkeypatch.setattr(montecarlo, "_CHUNK", 7)
        assert run_experiment(plan).curves == want

    @pytest.mark.parametrize("scan", [False, True])
    def test_redraw_block_size_does_not_change_curves(self, scan, monkeypatch):
        # One-trial blocks take the engine's single-draw product.
        plan = tiny_plan(channel_mode=CHANNEL_REDRAWN, trials_per_point=25,
                         scan=scan, theta_step_deg=5.0)
        want = run_experiment(plan).curves
        monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", 1)
        assert montecarlo._redraw_block(plan) == 1
        assert run_experiment(plan).curves == want

    def test_sample_count_does_not_change_draws(self):
        # With X X^H = I the statistic depends on the noise only through E0,
        # which is drawn directly, so L no longer enters the draws.
        plan = tiny_plan(trials_per_point=300)
        a = run_experiment(plan)
        b = run_experiment(with_overrides(plan, l=40))
        for ca, cb in zip(a.curves, b.curves):
            assert [(p.detections, p.false_alarms) for p in ca.points] == [
                (p.detections, p.false_alarms) for p in cb.points
            ]

    def test_stream_ids_do_not_collide(self):
        # Largest per-trial channel id for any snr_index < 2**28.
        top_trial = montecarlo._trial_channel_stream(2**28 - 1, 2**32 - 1)
        assert montecarlo._CHANNEL_STREAM < 1 <= top_trial < montecarlo._REDRAW_BASE
        assert montecarlo._REDRAW_BASE + 2**32 < montecarlo._NOISE_BASE

    def test_redrawn_block_equals_per_trial_channels(self):
        plan = tiny_plan()
        block = montecarlo._redrawn_channels(plan, 1, 15, 4)
        for i, row in enumerate(block):
            want = np.stack([ch.h for ch in montecarlo._trial_channels(plan, 1, 15 + i)])
            assert row.tobytes() == want.tobytes()

    def test_channel_draws_are_pinned(self):
        # Acceptance seeds are pinned to channel draws, so the noise streams
        # must leave the channel streams where they are.
        plan = tiny_plan()
        fixed = montecarlo._fixed_channels(plan)[0].h[0, 0]
        trial = montecarlo._trial_channels(plan, 1, 17)[2].h[1, 3]
        assert fixed == -0.531437094499637 + 0.023026140752559265j
        assert trial == -0.1857017865529491 - 0.26512386584123976j


class TestRunExperiment:
    def test_curve_structure(self):
        plan = tiny_plan(
            waveform_modes=(MODE_ORTHOGONAL, MODE_NSP_PER_BS, MODE_NSP_SELECTED),
            trials_per_point=20,
        )
        result = run_experiment(plan)
        labels = [c.label for c in result.curves]
        assert labels == [
            "orthogonal", "nsp-bs1", "nsp-bs2", "nsp-bs3", "nsp-selected",
        ]
        assert [c.bs_id for c in result.curves] == [
            "orthogonal", "1", "2", "3", "selected",
        ]
        for curve in result.curves:
            assert len(curve.points) == len(plan.snr_grid_db) * len(plan.pfa_list)
        assert result.selection is not None
        assert result.selection.selected in (1, 2, 3)

    def test_worker_count_invariance(self):
        plan = tiny_plan(trials_per_point=100)
        a = run_experiment(plan, workers=1)
        b = run_experiment(plan, workers=3)
        assert a.curves == b.curves

    def test_saturated_snr_detects_always(self):
        plan = tiny_plan(snr_grid_db=(30.0,), trials_per_point=300)
        result = run_experiment(plan)
        for curve in result.curves:
            assert curve.points[0].pd_emp == 1.0
            assert curve.points[0].pd_theory_calibrated > 0.999

    def test_false_alarm_rate_tracks_pfa(self):
        plan = tiny_plan(snr_grid_db=(0.0,), trials_per_point=4000, pfa_list=(0.1,))
        result = run_experiment(plan)
        se = math.sqrt(0.1 * 0.9 / 4000)
        for curve in result.curves:
            fa_rate = curve.points[0].false_alarms / curve.points[0].trials
            assert abs(fa_rate - 0.1) < 3 * se

    def test_empirical_matches_calibrated_theory(self):
        plan = tiny_plan(snr_grid_db=(-3.0, 0.0, 3.0), trials_per_point=4000)
        result = run_experiment(plan)
        for curve in result.curves:
            for pt in curve.points:
                assert abs(pt.pd_emp - pt.pd_theory_calibrated) < 0.03
        assert result.degenerate_trials == 0

    def test_redrawn_channels_run_and_reproduce(self):
        plan = tiny_plan(
            channel_mode=CHANNEL_REDRAWN, trials_per_point=40,
            snr_grid_db=(6.0,),
        )
        a = run_experiment(plan)
        b = run_experiment(plan)
        assert a.curves == b.curves
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
        for curve in run_experiment(plan).curves:
            for pt in curve.points:
                assert abs(pt.pd_emp - pt.pd_theory_calibrated) < tol

    def test_fixed_setup_is_built_once(self, monkeypatch):
        calls = []
        build = montecarlo._build_modes
        monkeypatch.setattr(montecarlo, "_build_modes",
                            lambda *args: calls.append(1) or build(*args))
        run_experiment(tiny_plan(snr_grid_db=(0.0, 3.0, 6.0), trials_per_point=10))
        assert len(calls) == 1

    def test_redrawn_worker_count_invariance(self):
        plan = tiny_plan(channel_mode=CHANNEL_REDRAWN, trials_per_point=30)
        assert run_experiment(plan, workers=1).curves == run_experiment(plan, workers=2).curves

    def test_pfa_sweep_orders_detection(self):
        plan = tiny_plan(
            snr_grid_db=(3.0,), pfa_list=(0.1, 1e-3), trials_per_point=2000,
        )
        result = run_experiment(plan)
        for curve in result.curves:
            by_pfa = {pt.pfa: pt.pd_emp for pt in curve.points}
            assert by_pfa[0.1] >= by_pfa[1e-3]


class TestSnrGap:
    def _dense_result(self):
        plan = tiny_plan(
            snr_grid_db=tuple(np.arange(-10.0, 20.1, 0.5)),
            trials_per_point=1,  # theory curves do not need trials
        )
        return plan, run_experiment(plan)

    def test_theory_gap_matches_closed_form(self):
        plan, result = self._dense_result()
        report = snr_gap(result.curves, target_pd=0.9, source="theory_calibrated")
        sel_curve = next(c for c in result.curves if c.label == MODE_NSP_SELECTED)
        # closed form: at equal detection probability the calibrated laws
        # differ by the SNR ratio M / c
        import nspradar.detection as detection
        import nspradar.radar as radar
        import nspradar.sharing as sharing
        from nspradar.numerics import rng_substream

        geom = plan.geometry()
        a = radar.steering_vector(geom, plan.theta_target)
        x = radar.orthogonal_waveforms(plan.m, plan.l)
        chans = sharing.draw_channels(plan.k, plan.n_bs, plan.m, rng_substream(plan.master_seed, 0))
        projs = [sharing.projection_matrix(ch) for ch in chans]
        sel = sharing.select_channel(projs, x)
        pw = sharing.project_waveform(projs[sel.selected - 1], x)
        gain = detection.direction_gain(a, pw.correlation)
        want = detection.theory_snr_gap_db(plan.m, gain, "calibrated")
        assert abs(report.gap_db[MODE_NSP_SELECTED] - want) < 0.05
        assert report.gap_db[MODE_ORTHOGONAL] == 0.0

    def test_orthogonal_threshold_snr_matches_root_oracle(self):
        plan, result = self._dense_result()
        report = snr_gap(result.curves, target_pd=0.9, source="theory_calibrated")
        want = oracles.pd_at_snr_root(plan.m, float(plan.m), 0.1, 0.9)
        assert abs(report.snr_at_target[MODE_ORTHOGONAL] - want) < 0.05

    def test_unreachable_target_reports_none(self):
        plan = tiny_plan(snr_grid_db=(-30.0, -25.0), trials_per_point=50)
        result = run_experiment(plan)
        report = snr_gap(result.curves, target_pd=0.9, source="emp")
        assert report.snr_at_target[MODE_ORTHOGONAL] is None
        assert report.gap_db[MODE_NSP_SELECTED] is None

    def test_empirical_gap_near_theory_gap(self):
        plan = tiny_plan(
            snr_grid_db=tuple(np.arange(-2.0, 10.1, 1.0)),
            trials_per_point=3000,
        )
        result = run_experiment(plan)
        emp = snr_gap(result.curves, source="emp")
        theo = snr_gap(result.curves, source="theory_calibrated")
        assert abs(
            emp.gap_db[MODE_NSP_SELECTED] - theo.gap_db[MODE_NSP_SELECTED]
        ) < 0.5


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
