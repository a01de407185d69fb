#!/usr/bin/env python3
"""Time the figure presets end to end and write BENCH_<pr>.json.

Each measured run is a fresh interpreter that imports nspradar from one
source tree and times `cli.main(["--trials", N, "--workers", W, ...])`,
with the run's worker count W and its --preset and --config, by
perf_counter, output files included.  That time leaves out the import, so
each tree's cold start `import_s` is timed on its own: a fresh interpreter
timing `import nspradar.cli`.  The run `fig3-redrawn` is the `fig3` preset
with channels redrawn per trial, `fig4-scan` the `fig4` preset with the
GLRT scan over the angle grid, and `fig3-redrawn-scan` the `fig3` preset
with both, on a 2 degree grid, each set by a config file the script writes
and passes with --config.  `band-m4` and `band-m8` are the acceptance band
fixture of tests/test_acceptance.py (M = 4 with seed 26 over -6:16 dB,
M = 8 with seed 201 over -12:2 dB, 0.5 dB steps, the fig3 modes, P_FA
1e-3), set by a config file alone; they and `fig3-redrawn-scan` run when
--runs names them.  Every run takes 1 worker but `fig5-w2` and
`fig3-redrawn-w2`, which are `fig5` and `fig3-redrawn` at 2 worker
threads; they too run when --runs names them.  Runs of several trees (say, a parent commit's src/ and
this one's) interleave run by run, so that drift in the machine's speed
reaches them alike.  Each (tree, run) reports the median of --repeats
runs:

    python3 scripts/bench_presets.py --pr N --tree parent=../parent/src \\
        --tree change=src --runs all

The file records the machine (nproc, python/numpy/scipy versions, BLAS
thread variables), each tree's import time, each run's channel mode, scan
flag and worker count, the wall times and trials/s (trials per SNR point x
SNR points / wall time), the minor page faults `cli.main` takes
(`ru_minflt` of the child, read around the call), the per-stage
`timings_s` of summary.json where the tree writes them, and each tree's
speed-up over the first tree.  Each run records the fastest and slowest of
its repeats (`min_s`, `max_s`) next to the median.  Trees take turns to run
first: the order of the trees is reversed on every other repeat.  Repeat k
of a later tree and repeat k of the first tree are a pair, and each run of
a later tree records its `wins` (pairs in which it was faster) and
`losses` (slower); ties count for neither.  It is `resolved` only when
there are at least 10 pairs, one side wins at least 9 in 10 of them, and
the medians differ by more than the first tree's interquartile range: a
host whose speed drifts moves both runs of a pair alike, but not a change
that wins by less than the first tree's own spread.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

import numpy
import scipy


def _band_config(m: int, seed: int, snr_lo: float, snr_hi: float) -> str:
    """Config of the acceptance band fixture's plan (`_band_plan` in
    tests/test_acceptance.py); trials come from --trials."""
    grid = numpy.arange(snr_lo, snr_hi + 0.25, 0.5)
    return (f"m = {m}\nseed = {seed}\n"
            f"snr_db = [{', '.join(repr(float(s)) for s in grid)}]\n"
            "pfa = [0.001]\nmodes = [orthogonal, nsp-per-bs, nsp-selected]\n")


# Run name -> (preset or None, config file text or None, workers).
RUNS = {
    "fig3": ("fig3", None, 1),
    "fig4": ("fig4", None, 1),
    "fig5": ("fig5", None, 1),
    "fig3-redrawn": ("fig3", "channel_mode = redrawn-per-trial\n", 1),
    "fig4-scan": ("fig4", "scan = true\n", 1),
    "band-m4": (None, _band_config(4, 26, -6.0, 16.0), 1),
    "band-m8": (None, _band_config(8, 201, -12.0, 2.0), 1),
    "fig5-w2": ("fig5", None, 2),
    "fig3-redrawn-w2": ("fig3", "channel_mode = redrawn-per-trial\n", 2),
    "fig3-redrawn-scan": ("fig3", "channel_mode = redrawn-per-trial\nscan = true\n"
                                  "theta_step_deg = 2\n", 1),
}
DEFAULT_RUNS = ("fig3", "fig4", "fig5", "fig3-redrawn", "fig4-scan")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# Runs in the child: argv is [src, out_dir, trials, workers, cli args...].
_CHILD = """
import json, os, resource, sys, time
sys.path.insert(0, sys.argv[1])
from nspradar import cli
out, trials, workers = sys.argv[2:5]
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
t0 = time.perf_counter()
rc = cli.main(["--trials", trials, "--workers", workers, "--out", out, *sys.argv[5:]])
seconds = time.perf_counter() - t0
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
with open(os.path.join(out, "summary.json")) as fh:
    summary = json.load(fh)
stages = summary.get("timings_s")
print(json.dumps({"rc": rc, "seconds": seconds, "minflt": faults, "stages": stages,
                  "channel_mode": summary["plan"]["channel_mode"],
                  "scan": summary["plan"]["scan"], "workers": summary["workers"],
                  "points": len(summary["plan"]["snr_grid_db"])}))
"""

# Runs in the child: argv is [src]; prints the seconds `import nspradar.cli`
# takes in a fresh interpreter.
_IMPORT = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import nspradar.cli
print(time.perf_counter() - t0)
"""


def machine() -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_once(src: str, name: str, trials: int) -> dict:
    preset, config, workers = RUNS[name]
    with tempfile.TemporaryDirectory() as tmp:
        extra = [] if preset is None else ["--preset", preset]
        if config is not None:
            extra += ["--config", os.path.join(tmp, "run.cfg")]
            with open(extra[-1], "w") as fh:
                fh.write(config)
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, src, os.path.join(tmp, "out"),
             str(trials), str(workers), *extra],
            capture_output=True, text=True)
    res = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}
    if res.get("rc") != 0:
        raise RuntimeError(f"{src}: run {name} failed:\n{proc.stderr}")
    return res


def import_once(src: str) -> float:
    proc = subprocess.run([sys.executable, "-c", _IMPORT, src],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{src}: import failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict], trials: int) -> dict:
    wall = statistics.median(r["seconds"] for r in runs)
    out = {"channel_mode": runs[0]["channel_mode"], "scan": runs[0]["scan"],
           "workers": runs[0]["workers"], "wall_s": wall,
           "runs_s": [r["seconds"] for r in runs],
           "min_s": min(r["seconds"] for r in runs),
           "max_s": max(r["seconds"] for r in runs),
           "trials_per_s": trials * runs[0]["points"] / wall,
           "minflt": statistics.median(r["minflt"] for r in runs),
           "runs_minflt": [r["minflt"] for r in runs]}
    if all(r["stages"] for r in runs):
        out["stages_s"] = {k: statistics.median(r["stages"][k] for r in runs)
                           for k in runs[0]["stages"]}
    return out


MIN_PAIRS = 10
WIN_SHARE = 0.9


def mark_resolved(results: dict, base: str) -> None:
    """Set `wins`, `losses` and `resolved` on each run of every tree but
    `base`, from the pairs of its `runs_s` with base's of the same repeat:
    resolved when there are at least MIN_PAIRS pairs, one side wins at
    least WIN_SHARE of them, and the medians differ by more than base's
    interquartile range."""
    for label, runs in results.items():
        if label != base:
            for name, run in runs.items():
                ref = results[base][name]
                pairs = list(zip(run["runs_s"], ref["runs_s"]))
                run["wins"] = sum(t < r for t, r in pairs)
                run["losses"] = sum(t > r for t, r in pairs)
                run["resolved"] = False
                if (len(pairs) >= MIN_PAIRS
                        and max(run["wins"], run["losses"]) >= WIN_SHARE * len(pairs)):
                    q1, _, q3 = statistics.quantiles(ref["runs_s"], n=4,
                                                     method="inclusive")
                    run["resolved"] = abs(run["wall_s"] - ref["wall_s"]) > q3 - q1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True,
                        help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--tree", action="append", metavar="LABEL=SRC",
                        help="a labelled source tree (its src/ directory); "
                             "repeat to compare trees (default: change=src)")
    parser.add_argument("--trials", type=int, default=10_000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out-dir", default=".",
                        help="where BENCH_<pr>.json goes; made if missing")
    parser.add_argument("--runs", nargs="+", choices=(*RUNS, "all"),
                        default=list(DEFAULT_RUNS),
                        help=f"runs to time (default: {' '.join(DEFAULT_RUNS)}; "
                             "'all' adds the band fixture, the 2-worker runs "
                             "and fig3-redrawn-scan)")
    args = parser.parse_args()
    names = list(RUNS) if "all" in args.runs else list(dict.fromkeys(args.runs))
    # Made before the first run, so that an unusable --out-dir fails at once
    # rather than after every run.
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        parser.error(f"--out-dir {args.out_dir}: {exc}")
    if not os.access(args.out_dir, os.W_OK):
        parser.error(f"--out-dir {args.out_dir}: not writable")

    trees = dict(t.split("=", 1) for t in (args.tree or ["change=src"]))
    runs = {(label, p): [] for label in trees for p in names}
    imports = {label: [] for label in trees}
    for rep in range(args.repeats):
        order = list(trees.items())[::-1 if rep % 2 else 1]
        for label, src in order:
            imports[label].append(import_once(os.path.abspath(src)))
            print(f"run {rep + 1}/{args.repeats} {label} import: "
                  f"{imports[label][-1]:.3f} s", flush=True)
        for name in names:
            for label, src in order:
                res = run_once(os.path.abspath(src), name, args.trials)
                runs[label, name].append(res)
                print(f"run {rep + 1}/{args.repeats} {label} {name}: "
                      f"{res['seconds']:.3f} s", flush=True)

    results = {label: {p: summarize(runs[label, p], args.trials) for p in names}
               for label in trees}
    base = next(iter(trees))
    mark_resolved(results, base)
    bench = {
        "pr": args.pr,
        "machine": machine(),
        "config": {"trials_per_point": args.trials,
                   "repeats": args.repeats, "statistic": "median"},
        "import_s": {label: {"median_s": statistics.median(times), "runs_s": times}
                     for label, times in imports.items()},
        "trees": results,
        "speedup_over": base,
        "speedup": {label: {p: results[base][p]["wall_s"] / results[label][p]["wall_s"]
                            for p in names} for label in trees},
    }
    path = os.path.join(args.out_dir, f"BENCH_{args.pr}.json")
    with open(path, "w") as fh:
        json.dump(bench, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
