"""Command-line front end: config parsing, experiment execution, CSV/JSON
output, and optional gnuplot script emission."""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass, fields

import numpy as np
import scipy

from . import __version__, montecarlo
from .errors import ConfigurationError, NspRadarError, NumericFailure

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_OUTPUT = 3
EXIT_NUMERIC = 4

# A results.csv row is its mode's label and bs_id, then its point's fields.
CSV_HEADER = ",".join(["mode", "bs_id", *montecarlo.POINT_FIELDS])
# The summary's SNR-gap sources: the column each one reads.
GAP_SOURCES = {
    "emp": "pd_emp",
    "theory_paper": "pd_theory_paper",
    "theory_calibrated": "pd_theory_calibrated",
}


@dataclass(frozen=True)
class RunConfig:
    """A run: its plan and the options of the CLI around it.  A worker count
    below 1 is rejected with field "workers", as a plan check names its
    field, so `_run_config` names the config key or flag that set it."""
    plan: montecarlo.ExperimentPlan
    output_dir: str = "results"
    emit_plot: bool = False
    workers: int = 1

    def __post_init__(self):
        if self.workers < 1:
            raise ConfigurationError(f"must be >= 1, got {self.workers}", "workers")


PRESETS = {
    "fig3": dict(
        m=4, n_bs=2, k=5, pfa_list=(1e-3,),
        waveform_modes=(montecarlo.MODE_ORTHOGONAL, montecarlo.MODE_NSP_PER_BS,
                        montecarlo.MODE_NSP_SELECTED),
        snr_grid_db=tuple(float(s) for s in range(-10, 31)),
    ),
    "fig4": dict(
        m=4, n_bs=2, k=5, pfa_list=(1e-1, 1e-3, 1e-5, 1e-7),
        waveform_modes=(montecarlo.MODE_ORTHOGONAL, montecarlo.MODE_NSP_SELECTED),
        snr_grid_db=tuple(float(s) for s in range(-10, 31)),
    ),
    "fig5": dict(
        m=8, n_bs=2, k=5, pfa_list=(1e-1, 1e-3, 1e-5, 1e-7),
        waveform_modes=(montecarlo.MODE_ORTHOGONAL, montecarlo.MODE_NSP_SELECTED),
        snr_grid_db=tuple(float(s) for s in range(-10, 31)),
    ),
}


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ConfigurationError(f"expected a boolean, got {raw!r}")


def _parse_list(raw: str) -> tuple[str, ...]:
    raw = raw.strip()
    if not (raw.startswith("[") and raw.endswith("]")):
        raise ConfigurationError(f"expected a [..] list, got {raw!r}")
    inner = raw[1:-1].strip()
    if not inner:
        return ()
    return tuple(item.strip() for item in inner.split(","))


def _parse_floats(raw: str) -> tuple[float, ...]:
    return tuple(float(v) for v in _parse_list(raw))


# A range is counted before it is built, so that no config can make the
# parser fill memory: each point is a results.csv row per mode and P_FA,
# and the figures take 41 points.
_MAX_GRID_STEPS = 10**6


def _parse_grid(raw: str) -> tuple[float, ...]:
    """Either an explicit [a, b, c] list or a start:stop:step range (inclusive)."""
    raw = raw.strip()
    if raw.startswith("["):
        return _parse_floats(raw)
    parts = raw.split(":")
    if len(parts) != 3:
        raise ConfigurationError(
            f"expected [..] list or start:stop:step range, got {raw!r}"
        )
    start, stop, step = (float(p) for p in parts)
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ConfigurationError(
            f"start, stop and step of a range must be finite, got {raw!r}")
    if step <= 0:
        raise ConfigurationError("grid step must be positive")
    steps = (stop - start) / step
    if not steps <= _MAX_GRID_STEPS:  # inf too
        raise ConfigurationError(
            f"range {raw!r} has about {steps + 1:.7g} points, more than "
            f"{_MAX_GRID_STEPS + 1}")
    vals, v = [], start
    while v <= stop + 1e-9:
        vals.append(round(v, 10))
        if v + step == v:  # step is at most half the spacing of floats at v
            raise ConfigurationError(
                f"grid step {step!r} does not advance the range past {v!r}, got {raw!r}")
        v += step
    return tuple(vals)


# Config file keys -> ExperimentPlan fields (or run options), with the
# parser of each key's value; the only list of config keys.
_PLAN_KEYS = {
    "m": ("m", int),
    "n_bs": ("n_bs", int),
    "k": ("k", int),
    "l": ("l", int),
    "theta_target_deg": ("theta_target_deg", float),
    "snr_db": ("snr_grid_db", _parse_grid),
    "pfa": ("pfa_list", _parse_floats),
    "trials": ("trials_per_point", int),
    "seed": ("master_seed", int),
    "channel_mode": ("channel_mode", str),
    "modes": ("waveform_modes", _parse_list),
    "scan": ("scan", _parse_bool),
    "theta_step_deg": ("theta_step_deg", float),
}
_RUN_KEYS = {
    "workers": int,
    "emit_plot": _parse_bool,
    "output_dir": str,
}
# Command-line flags (argparse dests) -> the ExperimentPlan fields or run
# options they set.
_FLAGS = {
    "seed": "master_seed",
    "trials": "trials_per_point",
    "workers": "workers",
    "out": "output_dir",
    "emit_plot": "emit_plot",
}


def _convert(key: str, parse, raw: str):
    try:
        return parse(raw)
    except (ValueError, ConfigurationError) as exc:
        raise ConfigurationError(f"config key {key!r}: {exc}") from exc


def _read_config(path: str) -> tuple[dict, dict, dict]:
    """The ExperimentPlan kwargs and the run kwargs that the flat key=value
    file at `path` sets, and their sources, each field's config key.  Each
    value is parsed; unknown keys are rejected; no plan is built."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path!r}: {exc}") from exc

    plan_kwargs, run_kwargs, seen, sources = {}, {}, set(), {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(
                f"{path}:{lineno}: expected 'key = value', got {stripped!r}"
            )
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key in seen:
            raise ConfigurationError(f"{path}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        if key in _PLAN_KEYS:
            (name, parse), kwargs = _PLAN_KEYS[key], plan_kwargs
        elif key in _RUN_KEYS:
            name, parse, kwargs = key, _RUN_KEYS[key], run_kwargs
        else:
            raise ConfigurationError(f"{path}:{lineno}: unknown config key {key!r}")
        kwargs[name] = _convert(key, parse, raw)
        sources[name] = f"config key {key!r}"
    return plan_kwargs, run_kwargs, sources


def _run_config(plan_kwargs: dict, run_kwargs: dict, sources: dict) -> RunConfig:
    """The run of these kwargs: the only place a plan and a run are built,
    and so checked.  A check that fails on a field the user set names where
    it was set, `sources` mapping fields to the config key, preset or flag,
    as a value's parse error names its key."""
    try:
        return RunConfig(montecarlo.ExperimentPlan(**plan_kwargs), **run_kwargs)
    except ConfigurationError as exc:
        if exc.field not in sources:
            raise
        raise ConfigurationError(f"{sources[exc.field]}: {exc}", exc.field) from exc


def parse_config(path: str) -> RunConfig:
    """The run that a flat key=value config file alone sets, checked as
    `build_config` checks one; unknown keys are rejected."""
    return _run_config(*_read_config(path))


def _csv_fields(columns: dict) -> list[np.ndarray]:
    """The results.csv text of each `montecarlo.POINT_FIELDS` field, in row
    order (mode by mode, point by point, P_FA by P_FA), from the
    (points, pfa, modes) arrays of `ExperimentResult.columns`.  Each
    distinct value of a dtype is formatted once, as the repr of its Python
    float or int, and gathered; floats are told apart by their bits (the
    int64 view), so -0.0 and 0.0 keep their own text."""
    flat = {name: np.moveaxis(columns[name], -1, 0).ravel()
            for name in montecarlo.POINT_FIELDS}
    text = {}
    for dtype in {v.dtype for v in flat.values()}:
        names = [name for name, v in flat.items() if v.dtype == dtype]
        block = np.stack([flat[name] for name in names])
        keys, index = np.unique(block.view(np.int64) if dtype.kind == "f" else block,
                                return_inverse=True)
        words = np.array([repr(v) for v in keys.view(dtype).tolist()], dtype=object)
        text.update(zip(names, words[index.reshape(block.shape)]))
    return [text[name] for name in montecarlo.POINT_FIELDS]


def write_csv(result: montecarlo.ExperimentResult, path: str) -> None:
    """results.csv: one row per (mode, SNR, P_FA), the mode's label and
    bs_id and then the point's fields, each as its repr: a float's
    shortest round-trip text, an int bare."""
    rows = math.prod(result.columns["snr_db"].shape[:-1])
    heads = [f"{label},{bs_id}" for label, bs_id in result.labels for _ in range(rows)]
    lines = [CSV_HEADER, *map(",".join, zip(heads, *_csv_fields(result.columns)))]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _gap_reports(result) -> dict:
    """The summary's SNR gaps at P_D = 0.9, {repr(pfa): {source:
    {label: gap_db}}}, from one `montecarlo.snr_gap_columns` call on the
    (points, pfa, source, modes) stack of the sources' columns
    (`GAP_SOURCES`)."""
    labels = [label for label, _ in result.labels]
    pd = np.stack([result.columns[name] for name in GAP_SOURCES.values()], axis=2)
    gaps = montecarlo.snr_gap_columns(labels, np.array(result.plan.snr_grid_db), pd)[1]
    return {repr(pfa): {source: dict(zip(labels, row)) for source, row in zip(GAP_SOURCES, rows)}
            for pfa, rows in zip(result.plan.pfa_list, gaps)}


def write_summary(result, cfg: RunConfig, wall_time: float, path: str,
                  output_s: float, gaps: dict) -> None:
    """summary.json, with the `_gap_reports` gaps; `output_s` is the time
    spent writing the other output files and computing the gaps, reported
    with `result.timings_s` under "timings_s"."""
    plan = result.plan
    # Degenerate trials per mode, each trial once: a trial's set-up has no
    # SNR, so the column is the same at every point and P_FA.
    by_mode = dict(zip((label for label, _ in result.labels),
                       result.columns["degenerate"][0, 0].tolist()))
    summary = {
        "version": __version__,
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "master_seed": plan.master_seed,
        "plan": {f.name: getattr(plan, f.name) for f in fields(plan)
                 if f.name != "master_seed"},
        "workers": cfg.workers,
        "degenerate_trials": sum(by_mode.values()),
        "degenerate_by_mode": by_mode,
        "selection": None,
        "snr_gap_db_at_pd_0.9": gaps,
        "wall_time_s": round(wall_time, 3),
        "timings_s": {stage: round(seconds, 6) for stage, seconds in
                      {**result.timings_s, "output": output_s}.items()},
    }
    if result.selection is not None:
        summary["selection"] = {
            "selected_bs": result.selection.selected,
            "degradation_norms": list(result.selection.norms),
            "residual_interference": result.selection.residual_interference,
        }
    with open(path, "w") as fh:
        fh.write(json.dumps(summary, indent=2) + "\n")


def write_plot_script(result, path: str) -> None:
    """Gnuplot script laying out one P_D-vs-SNR panel per false-alarm rate,
    plotted from the results.csv beside it."""
    plan = result.plan
    n_panels = len(plan.pfa_list)
    cols = 2 if n_panels > 1 else 1
    rows = (n_panels + cols - 1) // cols
    lines = [
        "# Render with: gnuplot plot.gp",
        "set datafile separator ','",
        "set terminal pngcairo size 1200,800",
        "set output 'detection_curves.png'",
        f"set multiplot layout {rows},{cols}",
        "set xlabel 'SNR (dB)'",
        "set ylabel 'P_D'",
        "set yrange [0:1]",
        "set key bottom right",
    ]
    col = {name: i for i, name in enumerate(CSV_HEADER.split(","), start=1)}
    for pfa in plan.pfa_list:
        lines.append(f"set title 'P_FA = {pfa:g}'")
        plots = []
        for label, _ in result.labels:
            cond = (f"(strcol({col['mode']}) eq '{label}' && "
                    f"column({col['pfa']}) == {pfa!r})")
            using = f"'results.csv' using ({cond} ? ${col['snr_db']} : NaN)"
            plots += [f"{using}:{col['pd_emp']} with linespoints title '{label}'",
                      f"{using}:{col['pd_theory_calibrated']} with lines dashtype 2 "
                      f"title '{label} (theory)'"]
        lines.append("plot \\\n    " + ", \\\n    ".join(plots))
    lines.append("unset multiplot")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run(cfg: RunConfig) -> int:
    """Execute the experiment and write results.csv / summary.json / plot.gp.

    The directory and each of the run's output files that already exists
    are checked before the sweep, so an unwritable one leaves every file as
    it was."""
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
        probe = os.path.join(cfg.output_dir, ".write_probe")
        with open(probe, "w"):
            pass
        os.remove(probe)
    except OSError as exc:
        print(f"error: output directory not writable: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    for name in ["results.csv", "summary.json"] + ["plot.gp"] * cfg.emit_plot:
        try:  # "r+" neither creates nor truncates the file
            open(os.path.join(cfg.output_dir, name), "r+").close()
        except FileNotFoundError:
            pass
        except OSError as exc:
            print(f"error: output not writable: {exc}", file=sys.stderr)
            return EXIT_OUTPUT
    t0 = time.perf_counter()
    try:
        result = montecarlo.run_experiment(cfg.plan, workers=cfg.workers)
    except NumericFailure as exc:
        print(f"error: numeric failure during simulation: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    t_output = time.perf_counter()
    try:
        write_csv(result, os.path.join(cfg.output_dir, "results.csv"))
        if cfg.emit_plot:
            write_plot_script(result, os.path.join(cfg.output_dir, "plot.gp"))
        gaps = _gap_reports(result)
        write_summary(result, cfg, t_output - t0,
                      os.path.join(cfg.output_dir, "summary.json"),
                      time.perf_counter() - t_output, gaps)
    except OSError as exc:  # a write failed part way, e.g. on a full disk
        print(f"error: output not writable: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    return EXIT_OK


def build_config(args) -> RunConfig:
    """The run the arguments ask for, in layers: the config file's fields,
    then the preset's, then the flags', each layer overriding the ones
    before it.  The plan and the run are built and checked once, from the
    last layer's values (`_run_config`), so a failed check names the config
    key, the preset or the flag that set the field it rejects."""
    plan_kwargs, run_kwargs, sources = (_read_config(args.config) if args.config
                                        else ({}, {}, {}))
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigurationError(
                f"unknown preset {args.preset!r}; choose from {sorted(PRESETS)}"
            )
        plan_kwargs.update(PRESETS[args.preset])
        sources.update(dict.fromkeys(PRESETS[args.preset], f"--preset {args.preset}"))
    for flag, name in _FLAGS.items():
        value = getattr(args, flag)
        if value is not None:
            (run_kwargs if name in _RUN_KEYS else plan_kwargs)[name] = value
            sources[name] = "--" + flag.replace("_", "-")
    return _run_config(plan_kwargs, run_kwargs, sources)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nspradar",
        description="Monte Carlo detection study of null-space projected "
                    "MIMO radar waveforms",
    )
    parser.add_argument("--config", help="path to key=value config file")
    parser.add_argument("--preset", help="named scenario: fig3, fig4, fig5")
    parser.add_argument("--out", help="output directory (default: results)")
    parser.add_argument("--seed", type=int, help="override master seed")
    parser.add_argument("--trials", type=int, help="override trials per grid point")
    parser.add_argument("--workers", type=int, help="worker thread count")
    parser.add_argument("--emit-plot", action="store_true", default=None,
                        help="write a gnuplot script alongside the CSV")
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
    except NspRadarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
