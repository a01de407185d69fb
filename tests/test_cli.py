import csv
import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from nspradar import cli, montecarlo
from nspradar.errors import ConfigurationError
from nspradar.montecarlo import MODE_NSP_SELECTED, MODE_ORTHOGONAL

import oracles

README = Path(__file__).resolve().parent.parent / "README.md"


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SMALL = """
m = 4
k = 3
snr_db = [0.0, 6.0]
pfa = [0.1]
trials = 50
seed = 5
modes = [orthogonal, nsp-selected]
"""


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = cli.parse_config(write_config(tmp_path, "\n# nothing here\n"))
        assert cfg.plan == cli.montecarlo.ExperimentPlan()
        assert cfg.workers == 1
        assert cfg.output_dir == "results"
        assert not cfg.emit_plot

    def test_small_config(self, tmp_path):
        cfg = cli.parse_config(write_config(tmp_path, SMALL))
        assert cfg.plan.m == 4
        assert cfg.plan.snr_grid_db == (0.0, 6.0)
        assert cfg.plan.waveform_modes == (MODE_ORTHOGONAL, MODE_NSP_SELECTED)
        assert cfg.plan.trials_per_point == 50

    def test_grid_range_syntax(self, tmp_path):
        cfg = cli.parse_config(write_config(tmp_path, "snr_db = -10:25:5\n"))
        assert cfg.plan.snr_grid_db == (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0)

    def test_invalid_pfa_names_the_key(self, tmp_path):
        path = write_config(tmp_path, "pfa = [1.5]\n")
        with pytest.raises(ConfigurationError, match="pfa"):
            cli.parse_config(path)

    @pytest.mark.parametrize("line, message", [
        ("m = 4.5", "config key 'm': invalid literal for int()"),
        ("theta_target_deg = east", "config key 'theta_target_deg': could not convert"),
        ("snr_db = 0:10", "config key 'snr_db': expected [..] list or start:stop:step"),
        ("pfa = [0.1, often]", "config key 'pfa': could not convert"),
        ("modes = orthogonal", "config key 'modes': expected a [..] list, got 'orthogonal'"),
        ("scan = maybe", "config key 'scan': expected a boolean, got 'maybe'"),
        ("emit_plot = sometimes", "config key 'emit_plot': expected a boolean"),
        ("workers = two", "config key 'workers': invalid literal for int()"),
    ])
    def test_unparsable_value_names_the_key(self, tmp_path, line, message):
        # Each parser named in the key tables fails through `_convert`,
        # which prefixes the key.
        path = write_config(tmp_path, line + "\n")
        with pytest.raises(ConfigurationError) as info:
            cli.parse_config(path)
        assert str(info.value).startswith(message)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "warp_factor = 9\n")
        with pytest.raises(ConfigurationError, match="warp_factor"):
            cli.parse_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "m = 4\nm = 8\n")
        with pytest.raises(ConfigurationError, match="duplicate"):
            cli.parse_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = write_config(tmp_path, "just some words\n")
        with pytest.raises(ConfigurationError):
            cli.parse_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigurationError):
            cli.parse_config("/nonexistent/run.cfg")

    def test_every_key_set_parses(self, tmp_path):
        # Each key set to a value other than its field's default.
        text = """
m = 6
n_bs = 3
k = 3
l = 12
theta_target_deg = -12.5
snr_db = [0.0, 6.0]
pfa = [0.1, 0.01]
trials = 50
seed = 5
channel_mode = redrawn-per-trial
modes = [orthogonal, nsp-per-bs]
scan = true
theta_step_deg = 7.5
workers = 2
emit_plot = true
output_dir = elsewhere
"""
        keys = [line.partition(" = ")[0] for line in text.split("\n") if line]
        assert keys == [*cli._PLAN_KEYS, *cli._RUN_KEYS]
        cfg = cli.parse_config(write_config(tmp_path, text))
        assert cfg == cli.RunConfig(
            plan=montecarlo.ExperimentPlan(
                m=6, n_bs=3, k=3, l=12, theta_target_deg=-12.5,
                snr_grid_db=(0.0, 6.0), pfa_list=(0.1, 0.01), trials_per_point=50,
                master_seed=5, channel_mode=montecarlo.CHANNEL_REDRAWN,
                waveform_modes=(MODE_ORTHOGONAL, montecarlo.MODE_NSP_PER_BS),
                scan=True, theta_step_deg=7.5),
            output_dir="elsewhere", emit_plot=True, workers=2)
        defaults = cli.RunConfig(plan=montecarlo.ExperimentPlan())
        assert all(getattr(cfg.plan, f.name) != getattr(defaults.plan, f.name)
                   for f in fields(cfg.plan))
        assert all(getattr(cfg, f.name) != getattr(defaults, f.name)
                   for f in fields(cfg))

    def test_readme_config_parses(self, tmp_path):
        text = README.read_text()
        section = text[text.index("## Config files"):]
        block = section[section.index("```ini\n") + 7:section.index("```\n", 7)]
        cfg = cli.parse_config(write_config(tmp_path, block))
        assert cfg.plan.snr_grid_db[0] == -10.0 and cfg.workers == 4

    def test_every_field_has_one_key_and_is_summarized(self, tmp_path):
        # The key tables are the only list of config keys: each plan field
        # has exactly one key, and each run option is a RunConfig field.
        names = [f.name for f in fields(montecarlo.ExperimentPlan)]
        mapped = [name for name, _ in cli._PLAN_KEYS.values()]
        assert sorted(mapped) == sorted(names)
        assert set(cli._RUN_KEYS) == {f.name for f in fields(cli.RunConfig)} - {"plan"}
        out = str(tmp_path / "out")
        assert cli.main(["--config", write_config(tmp_path, SMALL), "--out", out]) == 0
        summary = json.loads(Path(out, "summary.json").read_text())
        assert list(summary["plan"]) == [n for n in names if n != "master_seed"]
        assert summary["master_seed"] == 5


class TestRun:
    def _run(self, tmp_path, extra="", argv_extra=()):
        path = write_config(tmp_path, SMALL + extra)
        out = str(tmp_path / "out")
        code = cli.main(["--config", path, "--out", out, *argv_extra])
        return code, out

    def test_outputs_and_schema(self, tmp_path):
        code, out = self._run(tmp_path)
        assert code == cli.EXIT_OK
        lines = Path(out, "results.csv").read_text().splitlines()
        assert lines[0] == cli.CSV_HEADER
        # one row per (mode, snr, pfa)
        assert len(lines) - 1 == 2 * 2 * 1
        first = lines[1].split(",")
        assert first[0] == "orthogonal" and first[1] == "orthogonal"
        assert len(first) == len(cli.CSV_HEADER.split(","))
        summary = json.loads(Path(out, "summary.json").read_text())
        assert summary["master_seed"] == 5
        assert summary["version"]
        assert summary["selection"]["selected_bs"] in (1, 2, 3)
        assert "snr_gap_db_at_pd_0.9" in summary

    def test_csv_header_is_pinned(self):
        # The header is derived from montecarlo.POINT_FIELDS, so reordering
        # them would reorder the CSV; the README documents this header.
        header = ("mode,bs_id,snr_db,pfa,trials,detections,pd_emp,ci_lo,ci_hi,"
                  "pd_theory_paper,pd_theory_calibrated,"
                  "false_alarms,pfa_emp,pfa_ci_lo,pfa_ci_hi,degenerate")
        assert cli.CSV_HEADER == header
        assert f"```\n{header}\n```" in README.read_text()

    @pytest.mark.parametrize("extra", ["", "n_bs = 4\n", "channel_mode = redrawn-per-trial\n"])
    def test_every_cell_is_the_repr_of_its_field(self, tmp_path, extra):
        code, out = self._run(tmp_path, extra)
        assert code == cli.EXIT_OK
        with open(os.path.join(out, "results.csv")) as fh:
            rows = list(csv.reader(fh))
        header, rows = rows[0], rows[1:]
        result = montecarlo.run_experiment(cli.parse_config(str(tmp_path / "run.cfg")).plan)
        points = oracles.result_rows(result)
        assert len(rows) == len(points)
        names = montecarlo.POINT_FIELDS
        assert header == ["mode", "bs_id", *names]
        # The columns are read-only: writing a cell raises.
        for column in result.columns.values():
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0, 0, 0] = 0
        for row, (label, bs_id, pt) in zip(rows, points):
            assert row == [label, bs_id, *(repr(pt[name]) for name in names)]
            # The false-alarm columns are the ones the writer used to compute.
            assert (pt["pfa_ci_lo"], pt["pfa_ci_hi"]) == montecarlo.wilson_interval(
                pt["false_alarms"], pt["trials"])
            assert pt["pfa_emp"] == pt["false_alarms"] / pt["trials"]

    @pytest.mark.parametrize("channel_mode", ["fixed-per-experiment", "redrawn-per-trial"])
    def test_csv_equals_the_repr_per_field_rows(self, tmp_path, channel_mode):
        # The writer formats each distinct value once, from the result's
        # columns; the text is the cell-by-cell repr of the columns.
        # -0.0 and 0.0 share a column here and keep their own text, beside
        # 0.0 and 1.0 at the interval edges.
        plan = cli.parse_config(write_config(
            tmp_path, SMALL + f"channel_mode = {channel_mode}\n")).plan
        result = montecarlo.run_experiment(plan)
        columns = dict(result.columns)
        signs = np.where(np.arange(columns["pd_theory_paper"].size) % 2, -0.0, 0.0)
        columns["pd_theory_paper"] = signs.reshape(columns["pd_theory_paper"].shape)
        columns["ci_lo"] = np.zeros(columns["ci_lo"].shape)
        columns["ci_hi"] = np.ones(columns["ci_hi"].shape)
        edited = replace(result, columns=columns)
        for res in (result, edited):
            path = tmp_path / "results.csv"
            cli.write_csv(res, str(path))
            assert path.read_bytes() == oracles.results_csv_reference(res).encode()
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert {row["pd_theory_paper"] for row in rows} == {"0.0", "-0.0"}
        assert {(row["ci_lo"], row["ci_hi"]) for row in rows} == {("0.0", "1.0")}
        assert all(row["trials"] == "50" for row in rows)

    def test_false_alarm_and_degenerate_columns(self, tmp_path):
        # n_bs = m leaves the projected mode no null space: every trial is
        # degenerate.
        code, out = self._run(tmp_path, "n_bs = 4\n")
        assert code == cli.EXIT_OK
        with open(os.path.join(out, "results.csv")) as fh:
            rows = list(csv.DictReader(fh))
        result = montecarlo.run_experiment(cli.parse_config(str(tmp_path / "run.cfg")).plan)
        points = oracles.result_rows(result)
        assert len(rows) == len(points)
        for row, (label, _, pt) in zip(rows, points):
            assert row["mode"] == label
            fa, n = int(row["false_alarms"]), int(row["trials"])
            assert fa == pt["false_alarms"]
            assert float(row["pfa_emp"]) == fa / n
            lo, hi = float(row["pfa_ci_lo"]), float(row["pfa_ci_hi"])
            assert (lo, hi) == montecarlo.wilson_interval(fa, n)
            assert lo <= fa / n <= hi
            assert int(row["degenerate"]) == pt["degenerate"]
            assert pt["degenerate"] == (n if label == MODE_NSP_SELECTED else 0)

    def test_summary_reports_versions_and_stage_timings(self, tmp_path):
        code, out = self._run(tmp_path)
        assert code == cli.EXIT_OK
        text = Path(out, "summary.json").read_text()
        # The layout: json's two-space indent and one trailing newline.
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        summary = json.loads(text)
        assert set(summary["versions"]) == {"python", "numpy", "scipy"}
        assert all(isinstance(v, str) and v for v in summary["versions"].values())
        timings = summary["timings_s"]
        assert set(timings) == {"setup", "points", "theory", "output"}
        assert all(v >= 0 for v in timings.values())

    def test_output_stage_times_the_gap_reports(self, tmp_path, monkeypatch):
        # The summary's SNR-gap reports, one call for every P_FA and
        # source, are computed inside the "output" stage, not after it was
        # taken.
        gap = montecarlo.snr_gap_columns

        def slow(*args, **kwargs):
            time.sleep(0.02)
            return gap(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "snr_gap_columns", slow)
        code, out = self._run(tmp_path)
        assert code == cli.EXIT_OK
        summary = json.loads(Path(out, "summary.json").read_text())
        assert summary["timings_s"]["output"] >= 0.02

    @pytest.mark.parametrize("extra", ["", "channel_mode = redrawn-per-trial\n"],
                             ids=["fixed", "redrawn"])
    def test_summary_reports_degenerate_trials_by_mode(self, tmp_path, extra):
        # n_bs = m: the projected mode is degenerate in every trial, and each
        # of the 50 trials counts once, whatever the 2 SNR points.
        code, out = self._run(tmp_path, "n_bs = 4\n" + extra)
        assert code == cli.EXIT_OK
        summary = json.loads(Path(out, "summary.json").read_text())
        by_mode = summary["degenerate_by_mode"]
        assert by_mode == {MODE_ORTHOGONAL: 0, MODE_NSP_SELECTED: 50}
        assert sum(by_mode.values()) == summary["degenerate_trials"]

    @pytest.mark.parametrize("n_bs, bound", [(2, 1e-12), (4, 0.0)])
    def test_summary_reports_residual_interference(self, tmp_path, n_bs, bound):
        # A full-rank 2 x 4 channel keeps a two-dimensional null space; with
        # n_bs = m the projector and the transmitted waveform are 0.
        code, out = self._run(tmp_path, f"n_bs = {n_bs}\n")
        assert code == cli.EXIT_OK
        selection = json.loads(Path(out, "summary.json").read_text())["selection"]
        assert 0.0 <= selection["residual_interference"] <= bound
        # ||P X - X||_F = sqrt(M - nullity) exactly: sqrt(2) per full-rank
        # 2 x 4 channel, 2 = sqrt(4) per 4 x 4 one.
        want = math.sqrt(4 - (4 - n_bs))
        assert selection["degradation_norms"] == [want] * 3
        assert selection["selected_bs"] == 1

    def test_reruns_are_byte_identical(self, tmp_path):
        _, out1 = self._run(tmp_path)
        csv1 = Path(out1, "results.csv").read_bytes()
        code = cli.main([
            "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "out2"),
        ])
        assert code == cli.EXIT_OK
        csv2 = (tmp_path / "out2" / "results.csv").read_bytes()
        assert csv1 == csv2

    def test_worker_count_does_not_change_csv(self, tmp_path):
        _, out1 = self._run(tmp_path)
        code = cli.main([
            "--config", str(tmp_path / "run.cfg"),
            "--out", str(tmp_path / "out_w3"), "--workers", "3",
        ])
        assert code == cli.EXIT_OK
        a = Path(out1, "results.csv").read_bytes()
        b = (tmp_path / "out_w3" / "results.csv").read_bytes()
        assert a == b

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, "pfa = [1.5]\n")
        assert cli.main(["--config", path]) == cli.EXIT_CONFIG
        assert "pfa" in capsys.readouterr().err

    @pytest.mark.parametrize("text, argv, message", [
        ("trials = 1000000000000000000\n", (),
         "error: config key 'trials': trials_per_point must lie in [1, 1000000], "
         "got 1000000000000000000"),
        ("", ("--trials", "0"), "error: --trials: trials_per_point must lie in [1, 1000000]"),
        ("pfa = [1.5]\n", (), "error: config key 'pfa': pfa must lie in (2 ** -54, 1)"),
        ("snr_db = [1, 1]\n", (), "error: config key 'snr_db': snr grid values must be "
         "distinct"),
        ("l = 2\n", (), "error: config key 'l': need l >= m, got l=2, m=4"),
    ], ids=["config-key", "flag", "pfa", "snr-grid", "l"])
    def test_plan_error_names_the_key_or_flag(self, tmp_path, capsys, text, argv, message):
        # A plan check names the config key or the flag that set the field
        # it rejects, as a value's parse error does.
        out = tmp_path / "out"
        code = cli.main(["--config", write_config(tmp_path, text), "--out", str(out), *argv])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("text, preset, message", [
        ("l = 6\n", {}, "error: config key 'l': need l >= m, got l=6, m=8"),
        ("", {"pfa_list": (2.0,)}, "error: --preset fig5: pfa must lie in (2 ** -54, 1)"),
        ("m = 4\n", {"m": 32}, "error: need l >= m, got l=16, m=32"),
    ], ids=["config-key", "preset", "default"])
    def test_preset_plan_error_names_its_source(self, tmp_path, capsys, monkeypatch,
                                                text, preset, message):
        # A plan check that fails once the preset is applied names the
        # config key or the preset that set the field it rejects; a field
        # left at its default has no source to name.
        monkeypatch.setitem(cli.PRESETS, "fig5", {**cli.PRESETS["fig5"], **preset})
        out = tmp_path / "out"
        code = cli.main(["--config", write_config(tmp_path, text), "--preset", "fig5",
                         "--trials", "5", "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("text, argv, plan_fields", [
        ("trials = 0\n", ("--trials", "5"), {"trials_per_point": 5}),
        ("m = 20\n", ("--preset", "fig3", "--trials", "5"), {"m": 4}),
        ("modes = []\n", ("--preset", "fig4", "--trials", "5"),
         {"waveform_modes": [MODE_ORTHOGONAL, MODE_NSP_SELECTED]}),
    ], ids=["trials-flag", "preset-m", "preset-modes"])
    def test_later_layer_overrides_a_value_it_would_reject(self, tmp_path, text, argv,
                                                           plan_fields):
        # The file, the preset and the flags are layers of one plan, checked
        # once: a file value that a later layer overrides is never checked.
        out = tmp_path / "out"
        code = cli.main(["--config", write_config(tmp_path, text), "--out", str(out), *argv])
        assert code == cli.EXIT_OK
        plan = json.loads((out / "summary.json").read_text())["plan"]
        assert {name: plan[name] for name in plan_fields} == plan_fields
        with open(out / "results.csv") as fh:
            assert {row["trials"] for row in csv.DictReader(fh)} == {"5"}

    @pytest.mark.parametrize("config, argv", [
        (None, ("--preset", "fig4", "--seed", "3", "--trials", "5")),
        (SMALL, ("--preset", "fig3", "--trials", "5", "--workers", "2", "--emit-plot")),
    ], ids=["preset-and-flags", "file-preset-and-flags"])
    def test_one_plan_is_built_per_run(self, tmp_path, monkeypatch, config, argv):
        built = []
        post_init = montecarlo.ExperimentPlan.__post_init__

        def counted(plan):
            built.append(plan)
            post_init(plan)

        monkeypatch.setattr(montecarlo.ExperimentPlan, "__post_init__", counted)
        monkeypatch.setattr(cli, "run", lambda cfg: cli.EXIT_OK)
        file_args = ("--config", write_config(tmp_path, config)) if config else ()
        assert cli.main([*file_args, *argv]) == cli.EXIT_OK
        assert len(built) == 1

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_flag_exit_code(self, tmp_path, capsys, workers):
        path = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        code = cli.main(["--config", path, "--out", str(out), "--workers", workers])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: --workers: must be >= 1, got {workers}\n"
        assert not out.exists()

    def test_nonpositive_workers_key_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL + "workers = 0\n")
        assert cli.main(["--config", path]) == cli.EXIT_CONFIG
        assert "config key 'workers': must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["m", "n_bs"])
    def test_zero_antennas_exit_code(self, tmp_path, capsys, key):
        path = write_config(tmp_path, f"{key} = 0\n")
        out = tmp_path / "out"
        assert cli.main(["--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
        assert "m, n_bs and k must all be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_rank_tol_factor_is_an_unknown_key(self, tmp_path, capsys):
        # The rank rule of the null-space projectors is a constant.
        path = write_config(tmp_path, SMALL + "rank_tol_factor = 0.001\n")
        out = tmp_path / "out"
        assert cli.main(["--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
        assert "unknown config key 'rank_tol_factor'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("pfa, message", [("[1e-17]", "got 1e-17"),
                                              ("[0.1, 2e-17]", "got 2e-17")])
    def test_pfa_whose_complement_rounds_to_one_exit_code(self, tmp_path, capsys,
                                                          pfa, message):
        # 1 - 1e-17 == 1, so the threshold has no finite value; this used to
        # exit 1 with a traceback.
        path = write_config(tmp_path, f"pfa = {pfa}\n")
        out = tmp_path / "out"
        assert cli.main(["--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("snr_db = [nan, 0.0]", "snr grid values must be finite"),
        ("snr_db = [inf]", "snr grid values must be finite"),
        # 10 ** 400 overflows a float; this used to exit 1 with a traceback.
        ("snr_db = [0.0, 4000.0]",
         f"snr grid values must be at most {montecarlo.max_snr_db(4)!r} dB at "
         f"m = 4, where the statistics stay finite, got [4000.0]"),
        ("theta_target_deg = nan", "theta_target_deg must lie in [-90, 90]"),
    ])
    def test_non_finite_angle_or_snr_exit_code(self, tmp_path, capsys, line, message):
        path = write_config(tmp_path, line + "\n")
        out = tmp_path / "out"
        assert cli.main(["--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("m", [4, 8])
    def test_snr_just_above_the_bound_exit_code(self, tmp_path, capsys, m):
        # 3070 dB at m = 4 used to run, its scan statistics nan and its
        # detections 0; the bound now stops such a plan.
        above = float(np.nextafter(montecarlo.max_snr_db(m), np.inf))
        path = write_config(tmp_path, f"m = {m}\nl = 16\nsnr_db = [0.0, {above!r}]\n")
        out = tmp_path / "out"
        assert cli.main(["--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
        assert f"got [{above!r}]" in capsys.readouterr().err
        assert not out.exists()

    def test_theory_is_one_at_very_high_snr(self, tmp_path):
        # The noncentral survival function returns nan from rho ~ 1e19 (about
        # 175 dB at M = 4); such runs used to exit 4, though P_D there is 1.
        text = (SMALL.replace("[0.0, 6.0]", "[0.0, 176.0, 178.0, 400.0]")
                .replace("[0.1]", "[0.1, 0.001]")
                .replace("[orthogonal, nsp-selected]",
                         "[orthogonal, nsp-per-bs, nsp-selected]"))
        out = str(tmp_path / "out")
        assert cli.main(["--config", write_config(tmp_path, text),
                         "--out", out]) == cli.EXIT_OK
        with open(os.path.join(out, "results.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5 * 4 * 2
        for row in rows:
            if float(row["snr_db"]) >= 176:
                assert row["pd_theory_paper"] == row["pd_theory_calibrated"] == "1.0"

    def test_theory_near_pfa_one(self, tmp_path):
        # At P_FA = 1 - 1e-9 the survival function overflows in boost's
        # tgamma from rho ~ 400 and runs for minutes at rho ~ 1e12; this
        # used to exit 1 with a traceback.  Those cells are saturated and
        # read 1.0 unevaluated.
        path = write_config(tmp_path, "pfa = [0.999999999]\n")
        out = tmp_path / "out"
        assert cli.main(["--config", path, "--trials", "5", "--out", str(out)]) == cli.EXIT_OK
        with open(out / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * len(montecarlo.ExperimentPlan().snr_grid_db)
        for row in rows:
            for key in ("pd_theory_paper", "pd_theory_calibrated"):
                assert 0.999999999 <= float(row[key]) <= 1.0
                if float(row["snr_db"]) >= 20:
                    assert row[key] == "1.0"

    @pytest.mark.parametrize("line, message", [
        ("snr_db = [1, 1]", "snr grid values must be distinct, got [1.0, 1.0]"),
        ("snr_db = [0.0, -0.0]", "snr grid values must be distinct"),
        ("pfa = [0.001, 0.001]", "pfa values must be distinct, got [0.001, 0.001]"),
        ("modes = [orthogonal, orthogonal]",
         "waveform modes must be distinct, got ['orthogonal', 'orthogonal']"),
        ("pfa = []", "pfa list must be non-empty"),
        ("modes = []", "waveform modes must be non-empty"),
    ])
    def test_repeated_or_empty_grid_exit_code(self, tmp_path, capsys, line, message):
        # Repeated entries used to write repeated (mode, snr_db, pfa) rows.
        path = write_config(tmp_path, line + "\n")
        out = tmp_path / "out"
        assert cli.main(["--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", [
        f"{start}:{stop}:{step}"
        for bad in ("inf", "-inf", "nan")
        for start, stop, step in ((bad, "10", "1"), ("0", bad, "1"), ("0", "10", bad))
    ])
    def test_non_finite_snr_range_exit_code(self, tmp_path, capsys, grid):
        # 0:inf:1 used to grow its list without bound; 0:10:nan ran one
        # point at 0 dB.
        path = write_config(tmp_path, f"snr_db = {grid}\n")
        out = tmp_path / "out"
        assert cli.main(["--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
        assert "config key 'snr_db'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid, message", [
        ("1e17:1e17:1", "grid step"),
        ("0:1e300:1e-300", "range '0:1e300:1e-300' has about inf points"),
    ], ids=["stuck-step", "huge-range"])
    def test_snr_range_whose_step_cannot_advance_exit_code(self, tmp_path, grid, message):
        # 1e17 + 1 == 1e17, so the first range used to loop for ever,
        # appending 1e17; the second appended values until memory ran out.
        self._assert_capped_run_rejects(tmp_path, f"snr_db = {grid}\n",
                                        f"config key 'snr_db': {message}")

    @staticmethod
    def _assert_capped_run_rejects(tmp_path, text, message):
        # The run goes in a child with a timeout and a 1 GiB address-space
        # cap, so a loop fails the test rather than hanging the suite or
        # filling memory.
        path = write_config(tmp_path, text)
        out = tmp_path / "out"
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))  # noqa: E731
        proc = subprocess.run(
            [sys.executable, "-m", "nspradar.cli", "--config", path, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=60, preexec_fn=cap)
        assert proc.returncode == cli.EXIT_CONFIG, proc.stderr
        assert message in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("trials = 1000000000000000000\n", "trials_per_point must lie in [1, 1000000]"),
        ("scan = true\ntheta_step_deg = 1e-9\n",
         "scan grid of 179999345621 angles (theta_step_deg = 1e-09)"),
        ("channel_mode = redrawn-per-trial\nscan = true\ntheta_step_deg = 1e-7\n",
         "scan grid of 1800000001 angles (theta_step_deg = 1e-07)"),
        ("k = 1000000000000\n", "k = 1000000000000 and 2 modes take 24000000000070 "
         "entries, more than 4194304"),
        ("k = 1000000000000\nmodes = [nsp-per-bs]\n",
         "k = 1000000000000 and 1000000000000 modes take"),
        ("n_bs = 1000000000000\n", "n_bs = 1000000000000, k = 5"),
        ("m = 1000000\nl = 1000000\n", "at m = 1000000, n_bs = 2"),
        ("scan = true\nm = 300\nl = 300\ntrials = 5\nsnr_db = [0.0]\n",
         "scan grid of 361 angles (theta_step_deg = 0.5) at m = 300, n_bs = 2, k = 5 and "
         "2 modes take 110291934 entries, more than 4194304"),
        ("scan = true\nm = 100\nl = 100\ntheta_step_deg = 0.001373311970702678\n"
         "trials = 5\nsnr_db = [0.0]\n",
         "scan grid of 131070 angles (theta_step_deg = 0.001373311970702678) at m = 100, "
         "n_bs = 2, k = 5 and 2 modes take 226083580 entries, more than 4194304"),
    ], ids=["huge-trials", "tiny-scan-step", "tiny-redrawn-scan-step",
            "huge-k", "huge-k-per-bs", "huge-n-bs", "huge-m", "huge-m-scan",
            "huge-grid-scan"])
    def test_plan_too_large_for_memory_exit_code(self, tmp_path, text, message):
        # The first used to build tile lists until memory ran out, the
        # next two the scan grid (1.31 TiB, and 13.4 GiB of redrawn set-up),
        # and the huge sizes one channel draw or its projectors (116 TiB,
        # 291 TiB and 14.6 TiB): exit 1 at best.  The m = 300 scan's draw
        # and projectors fit, but the scan's coefficients took 1.61 GiB;
        # the m = 100 scan's coefficients fit, but its grid set-up took
        # more than 1.2 GiB.
        self._assert_capped_run_rejects(tmp_path, text, message)

    def test_svd_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        # With n_bs = m every channel takes the SVD; its failure to converge
        # is a numeric failure (exit 4), and no result is written.
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        code, out = self._run(tmp_path, extra="n_bs = 4\n")
        assert code == cli.EXIT_NUMERIC
        assert "numeric failure" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "results.csv"))

    @pytest.mark.parametrize("step", ["7", "13", "100"])
    def test_scan_step_that_does_not_divide_180_runs(self, tmp_path, step):
        # The grid stops at its last angle below 90 degrees.
        code, out = self._run(tmp_path, extra=f"scan = true\ntheta_step_deg = {step}\n",
                              argv_extra=("--trials", "5"))
        assert code == cli.EXIT_OK
        assert os.path.exists(os.path.join(out, "results.csv"))

    def test_unknown_preset_exit_code(self, capsys):
        assert cli.main(["--preset", "fig99"]) == cli.EXIT_CONFIG
        assert "fig99" in capsys.readouterr().err

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL)
        blocker = tmp_path / "blocked"
        blocker.write_text("")  # a file where the directory should go
        code = cli.main(["--config", path, "--out", str(blocker)])
        assert code == cli.EXIT_OUTPUT
        assert "output" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["results.csv", "summary.json", "plot.gp"])
    def test_output_file_that_is_a_directory_exit_code(self, tmp_path, capsys, name):
        # The directory probe passes; that one file is checked before the
        # sweep, so no other output file is written.
        path = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        code = cli.main(["--config", path, "--out", str(out), "--emit-plot"])
        assert code == cli.EXIT_OUTPUT
        err = capsys.readouterr().err
        assert err.startswith("error: output not writable") and str(out / name) in err
        assert "Traceback" not in err
        assert os.listdir(out) == [name]

    @pytest.mark.parametrize("name", ["summary.json", "plot.gp"])
    def test_failed_run_leaves_existing_outputs_as_they_were(self, tmp_path, capsys,
                                                            name):
        path = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        before = b"mode,bs_id\nfrom an earlier run\n"
        (out / "results.csv").write_bytes(before)
        code = cli.main(["--config", path, "--out", str(out), "--emit-plot"])
        assert code == cli.EXIT_OUTPUT
        assert str(out / name) in capsys.readouterr().err
        assert sorted(os.listdir(out)) == sorted([name, "results.csv"])
        assert (out / "results.csv").read_bytes() == before

    def test_plot_script_directory_without_emit_plot_runs(self, tmp_path):
        # Only the files the run writes are checked.
        path = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        (out / "plot.gp").mkdir(parents=True)
        assert cli.main(["--config", path, "--out", str(out)]) == cli.EXIT_OK
        assert sorted(os.listdir(out)) == ["plot.gp", "results.csv", "summary.json"]

    def test_seed_and_trials_overrides(self, tmp_path):
        code, out = self._run(tmp_path, argv_extra=("--seed", "99", "--trials", "10"))
        assert code == cli.EXIT_OK
        summary = json.loads(Path(out, "summary.json").read_text())
        assert summary["master_seed"] == 99
        assert summary["plan"]["trials_per_point"] == 10


class TestPresets:
    def test_preset_fig4_plot_script(self, tmp_path):
        out = str(tmp_path / "fig4")
        code = cli.main([
            "--preset", "fig4", "--trials", "5", "--out", out, "--emit-plot",
        ])
        assert code == cli.EXIT_OK
        gp = Path(out, "plot.gp").read_text()
        # one panel per false-alarm rate
        assert gp.count("set title") == 4
        assert "multiplot" in gp
        lines = Path(out, "results.csv").read_text().splitlines()
        assert len(lines) - 1 == 2 * 41 * 4  # modes x snr points x pfas

    def test_preset_fig3_modes(self, tmp_path):
        out = str(tmp_path / "fig3")
        code = cli.main(["--preset", "fig3", "--trials", "2", "--out", out])
        assert code == cli.EXIT_OK
        lines = Path(out, "results.csv").read_text().splitlines()
        modes = {row.split(",")[0] for row in lines[1:]}
        assert modes == {
            "orthogonal", "nsp-bs1", "nsp-bs2", "nsp-bs3", "nsp-bs4",
            "nsp-bs5", "nsp-selected",
        }

    def test_preset_fig5_is_eight_elements(self, tmp_path):
        out = str(tmp_path / "fig5")
        code = cli.main(["--preset", "fig5", "--trials", "2", "--out", out])
        assert code == cli.EXIT_OK
        summary = json.loads(Path(out, "summary.json").read_text())
        assert summary["plan"]["m"] == 8


# Run in a fresh interpreter, so that nothing this test session imported
# counts; checked after the runs, so that an import made during a sweep fails
# it too.
_COLD_START = """
import sys
from nspradar import cli
out, cfg = sys.argv[1:]
assert cli.main(["--preset", "fig4", "--trials", "5", "--emit-plot",
                 "--out", out + "/fig4"]) == cli.EXIT_OK
assert cli.main(["--config", cfg, "--out", out + "/redrawn"]) == cli.EXIT_OK
print(sorted(m for m in sys.modules if m.startswith("scipy.stats")))
"""


def test_cli_runs_without_importing_scipy_stats(tmp_path):
    cfg = write_config(tmp_path, "channel_mode = redrawn-per-trial\n"
                       "snr_db = [0.0, 6.0]\ntrials = 5\n"
                       "modes = [orthogonal, nsp-per-bs, nsp-selected]\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", _COLD_START, str(tmp_path), cfg],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "fig4" / "plot.gp").is_file()
    assert "redrawn-per-trial" in (tmp_path / "redrawn" / "summary.json").read_text()
