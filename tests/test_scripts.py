import json
import os
import runpy
import statistics
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def test_search_band_seeds_finds_the_pinned_seeds(monkeypatch, capsys):
    # Seed 26 is acceptance criterion 4's SEED_2X4.
    monkeypatch.setattr(sys, "argv", ["search_band_seeds.py", "--max-seed", "200",
                                      "--limit", "2"])
    runpy.run_path(os.path.join(SCRIPTS, "search_band_seeds.py"), run_name="__main__")
    assert capsys.readouterr().out.splitlines() == [
        "seed 4: gaps [5.87, 12.61, 7.91, 9.22, 6.83] dB, selected BS 1",
        "seed 26: gaps [6.22, 10.85, 13.19, 13.63, 9.1] dB, selected BS 1",
    ]


def test_search_band_seeds_names_its_pin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["search_band_seeds.py", "--max-seed", "5",
                                      "--limit", "1"])
    runpy.run_path(os.path.join(SCRIPTS, "search_band_seeds.py"), run_name="__main__")
    assert capsys.readouterr().err.splitlines() == [
        "keeping only seeds where the tie-broken selection (BS 1) coincides "
        "with the best gap",
    ]


def test_reproduce_figures_smoke(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "argv", ["reproduce_figures.py", "--trials", "2",
                                      "--workers", "1", "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(os.path.join(SCRIPTS, "reproduce_figures.py"), run_name="__main__")
    assert exit_info.value.code == 0
    for preset in ("fig3", "fig4", "fig5"):
        assert (tmp_path / preset / "plot.gp").is_file()


def test_bench_presets_smoke(monkeypatch, tmp_path):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    monkeypatch.setattr(sys, "argv", [
        "bench_presets.py", "--pr", "0", "--trials", "2", "--repeats", "1",
        "--tree", f"change={src}", "--out-dir", str(tmp_path)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(os.path.join(SCRIPTS, "bench_presets.py"), run_name="__main__")
    assert exit_info.value.code == 0
    bench = json.loads((tmp_path / "BENCH_0.json").read_text())
    assert {"nproc", "python", "numpy", "scipy"} <= set(bench["machine"])
    runs = ("fig3", "fig4", "fig5", "fig3-redrawn", "fig4-scan")
    for name in runs:
        run = bench["trees"]["change"][name]
        assert run["wall_s"] > 0 and len(run["runs_s"]) == 1
        assert run["min_s"] == run["max_s"] == run["wall_s"]
        assert not {"resolved", "wins", "losses"} & set(run)   # only later trees are compared
        assert run["trials_per_s"] == 2 * 41 / run["wall_s"]
        assert set(run["stages_s"]) == {"setup", "points", "theory", "output"}
    assert bench["speedup"] == {"change": {name: 1.0 for name in runs}}
    imports = bench["import_s"]["change"]
    assert len(imports["runs_s"]) == 1 and imports["median_s"] == imports["runs_s"][0] > 0
    modes = {name: bench["trees"]["change"][name]["channel_mode"] for name in runs}
    assert modes == {"fig3": "fixed-per-experiment", "fig4": "fixed-per-experiment",
                     "fig5": "fixed-per-experiment",
                     "fig3-redrawn": "redrawn-per-trial",
                     "fig4-scan": "fixed-per-experiment"}
    scans = {name for name in runs if bench["trees"]["change"][name]["scan"]}
    assert scans == {"fig4-scan"}


def test_bench_presets_makes_a_missing_out_dir(monkeypatch, tmp_path):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = tmp_path / "new" / "dir"
    monkeypatch.setattr(sys, "argv", [
        "bench_presets.py", "--pr", "0", "--trials", "2", "--repeats", "1",
        "--tree", f"change={src}", "--out-dir", str(out), "--runs", "fig3"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(os.path.join(SCRIPTS, "bench_presets.py"), run_name="__main__")
    assert exit_info.value.code == 0
    assert list(json.loads((out / "BENCH_0.json").read_text())["trees"]["change"]) == ["fig3"]


def test_bench_presets_rejects_an_unusable_out_dir_before_any_run(monkeypatch, tmp_path,
                                                                    capsys):
    # A file where the directory should go: exit 2 before the first run.
    (tmp_path / "taken").write_text("")
    monkeypatch.setattr(sys, "argv", [
        "bench_presets.py", "--pr", "0", "--trials", "2", "--repeats", "1",
        "--out-dir", str(tmp_path / "taken"), "--runs", "fig3"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(os.path.join(SCRIPTS, "bench_presets.py"), run_name="__main__")
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert "run " not in out and "--out-dir" in err


def _mark_resolved(parent_s, change_s):
    mark = runpy.run_path(os.path.join(SCRIPTS, "bench_presets.py"))["mark_resolved"]
    results = {label: {"fig4": {"runs_s": runs, "wall_s": statistics.median(runs)}}
               for label, runs in (("parent", parent_s), ("change", change_s))}
    mark(results, "parent")
    assert set(results["parent"]["fig4"]) == {"runs_s", "wall_s"}
    return results["change"]["fig4"]


def test_bench_presets_three_repeats_are_unresolved():
    # fig4-scan at 3 repeats read 2.24 -> 2.84 s, outside the parent's
    # 1.86-2.74 s, on a host drifting by +-30%: too few pairs to tell.
    run = _mark_resolved([1.86, 2.24, 2.74], [2.84, 2.80, 2.95])
    assert (run["wins"], run["losses"], run["resolved"]) == (0, 3, False)


def test_bench_presets_ten_wins_with_a_clear_gap_are_resolved():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.99]
    run = _mark_resolved(parent, [t - 0.2 for t in parent])
    assert (run["wins"], run["losses"], run["resolved"]) == (10, 0, True)
    run = _mark_resolved(parent, [t + 0.2 for t in parent])
    assert (run["wins"], run["losses"], run["resolved"]) == (0, 10, True)


def test_bench_presets_eight_wins_are_unresolved():
    # Two of the ten pairs tie, and count for neither side.
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.99]
    change = [t - 0.2 for t in parent[:8]] + parent[8:]
    run = _mark_resolved(parent, change)
    assert (run["wins"], run["losses"], run["resolved"]) == (8, 0, False)


def test_bench_presets_ten_wins_inside_the_spread_are_unresolved():
    # The change wins every pair, by less than the parent's interquartile
    # range of its own repeats.
    parent = [1.0, 1.5, 2.0, 2.5, 3.0, 1.2, 1.7, 2.2, 2.7, 2.9]
    run = _mark_resolved(parent, [t - 0.05 for t in parent])
    assert (run["wins"], run["losses"], run["resolved"]) == (10, 0, False)


def test_bench_presets_trees_take_turns_to_run_first(monkeypatch, tmp_path, capsys):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    monkeypatch.setattr(sys, "argv", [
        "bench_presets.py", "--pr", "0", "--trials", "2", "--repeats", "2",
        "--tree", f"a={src}", "--tree", f"b={src}", "--out-dir", str(tmp_path),
        "--runs", "fig3"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(os.path.join(SCRIPTS, "bench_presets.py"), run_name="__main__")
    assert exit_info.value.code == 0
    order = [line.split()[2:4] for line in capsys.readouterr().out.splitlines()
             if line.startswith("run ")]
    assert order == [["a", "import:"], ["b", "import:"], ["a", "fig3:"], ["b", "fig3:"],
                     ["b", "import:"], ["a", "import:"], ["b", "fig3:"], ["a", "fig3:"]]
    run = json.loads((tmp_path / "BENCH_0.json").read_text())["trees"]["b"]["fig3"]
    assert run["wins"] + run["losses"] <= 2 and run["resolved"] is False


def test_bench_presets_band_runs_and_faults(monkeypatch, tmp_path):
    # --runs picks the acceptance band fixture's two plans (45 and 29 SNR
    # points), the 2-worker runs and the redrawn scan; every run records
    # the minor faults its cli.main took and the worker count its
    # summary.json reports.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    monkeypatch.setattr(sys, "argv", [
        "bench_presets.py", "--pr", "0", "--trials", "2", "--repeats", "1",
        "--tree", f"change={src}", "--out-dir", str(tmp_path),
        "--runs", "band-m4", "band-m8", "fig5", "fig5-w2", "fig3-redrawn-w2",
        "fig3-redrawn-scan"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(os.path.join(SCRIPTS, "bench_presets.py"), run_name="__main__")
    assert exit_info.value.code == 0
    bench = json.loads((tmp_path / "BENCH_0.json").read_text())
    assert "workers" not in bench["config"]
    runs = bench["trees"]["change"]
    assert list(runs) == ["band-m4", "band-m8", "fig5", "fig5-w2", "fig3-redrawn-w2",
                          "fig3-redrawn-scan"]
    for name, points, workers in (("band-m4", 45, 1), ("band-m8", 29, 1), ("fig5", 41, 1),
                                  ("fig5-w2", 41, 2), ("fig3-redrawn-w2", 41, 2),
                                  ("fig3-redrawn-scan", 41, 1)):
        run = runs[name]
        assert run["trials_per_s"] == 2 * points / run["wall_s"]
        assert run["workers"] == workers
        assert run["channel_mode"] == ("redrawn-per-trial" if name.startswith("fig3-redrawn")
                                       else "fixed-per-experiment")
        assert run["scan"] == (name == "fig3-redrawn-scan")
        assert run["runs_minflt"] == [run["minflt"]] and run["minflt"] >= 0
