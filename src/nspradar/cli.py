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
from dataclasses import dataclass, fields, replace

import numpy as np
import scipy

from . import __version__, montecarlo
from .errors import ConfigurationError, NspRadarError, NumericFailure

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_OUTPUT = 3
EXIT_NUMERIC = 4

# A results.csv row is its curve's mode and bs_id, then its CurvePoint.
_POINT_FIELDS = montecarlo.CurvePoint._fields
CSV_HEADER = ",".join(["mode", "bs_id", *_POINT_FIELDS])


@dataclass(frozen=True)
class RunConfig:
    plan: montecarlo.ExperimentPlan
    output_dir: str = "results"
    emit_plot: bool = False
    workers: int = 1

    def __post_init__(self):
        # Checked here so that the config file, --workers and NSPSIM_THREADS
        # agree.
        if self.workers < 1:
            raise ConfigurationError(
                f"config key 'workers': must be >= 1, got {self.workers} "
                "(from the config file, --workers or NSPSIM_THREADS)")


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
# Command-line flags -> the ExperimentPlan fields they override.
_PLAN_FLAGS = {
    "seed": "master_seed",
    "trials": "trials_per_point",
}


def _convert(key: str, parse, raw: str):
    try:
        return parse(raw)
    except (ValueError, ConfigurationError) as exc:
        raise ConfigurationError(f"config key {key!r}: {exc}") from exc


def _checked_plan(build, sources: dict):
    """The plan build() returns.  A plan check that fails on a field the
    user set names where it was set, `sources` mapping fields to the config
    key or flag, as a value's parse error names its key."""
    try:
        return build()
    except ConfigurationError as exc:
        if exc.field not in sources:
            raise
        raise ConfigurationError(f"{sources[exc.field]}: {exc}", exc.field) from exc


def parse_config(path: str) -> RunConfig:
    """Parse the flat key=value config format; unknown keys are rejected."""
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
            field_name, parse = _PLAN_KEYS[key]
            plan_kwargs[field_name] = _convert(key, parse, raw)
            sources[field_name] = f"config key {key!r}"
        elif key in _RUN_KEYS:
            run_kwargs[key] = _convert(key, _RUN_KEYS[key], raw)
        else:
            raise ConfigurationError(f"{path}:{lineno}: unknown config key {key!r}")

    workers = run_kwargs.pop("workers") if "workers" in run_kwargs else _default_workers()
    plan = _checked_plan(lambda: montecarlo.ExperimentPlan(**plan_kwargs), sources)
    return RunConfig(plan=plan, workers=workers, **run_kwargs)


def _default_workers() -> int:
    """Worker count from NSPSIM_THREADS (1 when unset); `RunConfig` checks
    the value as it checks the config key and --workers."""
    env = os.environ.get("NSPSIM_THREADS")
    if not env:
        return 1
    try:
        return int(env)
    except ValueError:
        raise ConfigurationError(
            f"NSPSIM_THREADS: expected an integer, got {env!r}") from None


def write_csv(result: montecarlo.ExperimentResult, path: str) -> None:
    """results.csv: one row per (mode, SNR, P_FA), the curve's mode and
    bs_id and then the CurvePoint's fields, each as its repr."""
    lines = [CSV_HEADER]
    for curve in result.curves:
        head = f"{curve.label},{curve.bs_id},"
        lines.extend(head + ",".join(map(repr, pt)) for pt in curve.points)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _gap_reports(result) -> dict:
    """The summary's SNR gaps at P_D = 0.9, {repr(pfa): {source: gap_db}},
    one `montecarlo.snr_gap` report per P_FA and source."""
    return {repr(pfa): {
        source: montecarlo.snr_gap(result.curves, pfa=pfa, source=source).gap_db
        for source in ("emp", "theory_paper", "theory_calibrated")}
        for pfa in result.plan.pfa_list}


def write_summary(result, cfg: RunConfig, wall_time: float, path: str,
                  output_s: float, gaps: dict) -> None:
    """summary.json, with the `_gap_reports` gaps; `output_s` is the time
    spent writing the other output files and computing the gaps, reported
    with `result.timings_s` under "timings_s"."""
    plan = result.plan
    summary = {
        "version": __version__,
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "master_seed": plan.master_seed,
        "plan": {f.name: getattr(plan, f.name) for f in fields(plan)
                 if f.name != "master_seed"},
        "workers": cfg.workers,
        "degenerate_trials": sum(result.degenerate_by_mode.values()),
        "degenerate_by_mode": result.degenerate_by_mode,
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
        for label in (curve.label for curve in result.curves):
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
    if args.config:
        cfg = parse_config(args.config)
    else:
        cfg = RunConfig(plan=montecarlo.ExperimentPlan(), workers=_default_workers())
    plan = cfg.plan
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigurationError(
                f"unknown preset {args.preset!r}; choose from {sorted(PRESETS)}"
            )
        plan = replace(plan, **PRESETS[args.preset])
    overrides = {field: getattr(args, flag) for flag, field in _PLAN_FLAGS.items()
                 if getattr(args, flag) is not None}
    if overrides:
        plan = _checked_plan(lambda: replace(plan, **overrides),
                             {field: f"--{flag}" for flag, field in _PLAN_FLAGS.items()})
    cfg = replace(cfg, plan=plan)
    if args.workers is not None:
        cfg = replace(cfg, workers=args.workers)
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)
    if args.emit_plot:
        cfg = replace(cfg, emit_plot=True)
    return cfg


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
    parser.add_argument("--emit-plot", action="store_true",
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
