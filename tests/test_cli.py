import json
import os

import pytest

from nspradar import cli
from nspradar.errors import ConfigurationError
from nspradar.montecarlo import MODE_NSP_SELECTED, MODE_ORTHOGONAL


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

    def test_workers_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NSPSIM_THREADS", "3")
        cfg = cli.parse_config(write_config(tmp_path, ""))
        assert cfg.workers == 3

    def test_roundtrip(self, tmp_path):
        cfg = cli.parse_config(write_config(tmp_path, SMALL))
        text = cli.serialize_config(cfg)
        cfg2 = cli.parse_config(write_config(tmp_path, text, name="echo.cfg"))
        assert cfg2 == cfg
        # and serialization is a fixed point
        assert cli.serialize_config(cfg2) == text


class TestRun:
    def _run(self, tmp_path, extra="", argv_extra=()):
        path = write_config(tmp_path, SMALL + extra)
        out = str(tmp_path / "out")
        code = cli.main(["--config", path, "--out", out, *argv_extra])
        return code, out

    def test_outputs_and_schema(self, tmp_path):
        code, out = self._run(tmp_path)
        assert code == cli.EXIT_OK
        lines = open(os.path.join(out, "results.csv")).read().splitlines()
        assert lines[0] == cli.CSV_HEADER
        # one row per (mode, snr, pfa)
        assert len(lines) - 1 == 2 * 2 * 1
        first = lines[1].split(",")
        assert first[0] == "orthogonal" and first[1] == "orthogonal"
        assert len(first) == len(cli.CSV_HEADER.split(","))
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["master_seed"] == 5
        assert summary["version"]
        assert summary["selection"]["selected_bs"] in (1, 2, 3)
        assert "snr_gap_db_at_pd_0.9" in summary

    def test_reruns_are_byte_identical(self, tmp_path):
        _, out1 = self._run(tmp_path)
        csv1 = open(os.path.join(out1, "results.csv"), "rb").read()
        code = cli.main([
            "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "out2"),
        ])
        assert code == cli.EXIT_OK
        csv2 = open(str(tmp_path / "out2" / "results.csv"), "rb").read()
        assert csv1 == csv2

    def test_worker_count_does_not_change_csv(self, tmp_path):
        _, out1 = self._run(tmp_path)
        code = cli.main([
            "--config", str(tmp_path / "run.cfg"),
            "--out", str(tmp_path / "out_w3"), "--workers", "3",
        ])
        assert code == cli.EXIT_OK
        a = open(os.path.join(out1, "results.csv"), "rb").read()
        b = open(str(tmp_path / "out_w3" / "results.csv"), "rb").read()
        assert a == b

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, "pfa = [1.5]\n")
        assert cli.main(["--config", path]) == cli.EXIT_CONFIG
        assert "pfa" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_flag_exit_code(self, tmp_path, capsys, workers):
        path = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        code = cli.main(["--config", path, "--out", str(out), "--workers", workers])
        assert code == cli.EXIT_CONFIG
        assert "config key 'workers': must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_nonpositive_workers_key_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL + "workers = 0\n")
        assert cli.main(["--config", path]) == cli.EXIT_CONFIG
        assert "config key 'workers': must be >= 1" in capsys.readouterr().err

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

    def test_seed_and_trials_overrides(self, tmp_path):
        code, out = self._run(tmp_path, argv_extra=("--seed", "99", "--trials", "10"))
        assert code == cli.EXIT_OK
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["master_seed"] == 99
        assert summary["plan"]["trials_per_point"] == 10


class TestPresets:
    def test_preset_fig4_plot_script(self, tmp_path):
        out = str(tmp_path / "fig4")
        code = cli.main([
            "--preset", "fig4", "--trials", "5", "--out", out, "--emit-plot",
        ])
        assert code == cli.EXIT_OK
        gp = open(os.path.join(out, "plot.gp")).read()
        # one panel per false-alarm rate
        assert gp.count("set title") == 4
        assert "multiplot" in gp
        lines = open(os.path.join(out, "results.csv")).read().splitlines()
        assert len(lines) - 1 == 2 * 41 * 4  # modes x snr points x pfas

    def test_preset_fig3_modes(self, tmp_path):
        out = str(tmp_path / "fig3")
        code = cli.main(["--preset", "fig3", "--trials", "2", "--out", out])
        assert code == cli.EXIT_OK
        lines = open(os.path.join(out, "results.csv")).read().splitlines()
        modes = {row.split(",")[0] for row in lines[1:]}
        assert modes == {
            "orthogonal", "nsp-bs1", "nsp-bs2", "nsp-bs3", "nsp-bs4",
            "nsp-bs5", "nsp-selected",
        }

    def test_preset_fig5_is_eight_elements(self, tmp_path):
        out = str(tmp_path / "fig5")
        code = cli.main(["--preset", "fig5", "--trials", "2", "--out", out])
        assert code == cli.EXIT_OK
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["plan"]["m"] == 8
