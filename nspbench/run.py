"""nspradar sweep benchmark.

Usage, from the repository root:

    python3 nspbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop of one caller running nspradar sweeps through
``nspradar.cli.main`` on a generated config file (see workloads.py).  With
--trace 0 it reports the end-to-end metrics; with --trace 1 it runs a fixed
amount of work once untraced, once with nspradar's public functions wrapped
in spans (tracer.py), and reports per-layer metrics.  Every results.csv is
checked (checks.py).  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# Pinned before numpy loads here, and passed to every measured process, so
# that workers x BLAS threads <= nproc.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
from workloads import MEMORY_SNR_DB, MEMORY_TRIALS, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".nspbench"

SETUP_REPS = 5    # fresh interpreters timed per run; setup_s is their median
TRACE_ROUNDS = 5  # rounds of the traced run; its metrics are their medians
# sweep_s_tail leaves this many slower sweeps beyond it; with fewer than
# 2 * TAIL_BEYOND + 1 sweeps it is the upper median instead.
TAIL_BEYOND = 10
SETUP_CODE = "import sys; from nspradar import cli; cli.parse_config(sys.argv[1])"

END_TO_END = (
    ("trials_per_s", "trials/s"),
    ("sweep_s_p50", "s"),
    ("sweep_s_tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
_TIMED_FUNCS = ("numerics.rng_substream", "numerics.complex_normal",
                "numerics.svd", "numerics.chi2_noncentral_sf",
                "sharing.draw_channels", "sharing.projection_matrix",
                "sharing.select_channel", "sharing.project_waveform",
                "detection.direction_gain", "detection.theoretical_pd")
PER_LAYER = (
    *((f"{f}.{k}", u) for f in _TIMED_FUNCS for k, u in (("calls", "count"),
                                                         ("self_s", "s"))),
    ("numerics.normals_drawn", "count"),
    ("numerics.noise_frac", "ratio"),
    ("radar.steering_vector.calls", "count"),
    ("radar.orthogonal_waveforms.calls", "count"),
    ("radar.self_s", "s"),
    ("sharing.svd_frac", "ratio"),
    ("sharing.select_channel.tie_rate", "ratio"),
    ("detection.redrawn_theory_max_dev", "prob"),
    ("montecarlo.self_s", "s"),
    ("montecarlo.self_frac", "ratio"),
    ("montecarlo.pool.scaling_eff", "ratio"),
    ("cli.write_csv.self_s", "s"),
    ("cli.write_summary.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.trials", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _run_child(cmd: list[str], timeout: float) -> None:
    """Run a measured process in its own session; on timeout kill the whole
    group (pool children included) and wait for it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL)
    try:
        rc = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise HarnessError(f"{cmd[:3]} timed out after {timeout} s") from None
    if rc != 0:
        raise HarnessError(f"{cmd[:3]} exited with code {rc}")


def measure_setup(cfg_path: Path, reps: int) -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing nspradar.cli and
    parsing the workload config, scaled and raw.  One unmeasured run first
    fills the file cache and writes bytecode.  The scale is the median of
    the reference kernel timed between the starts: one kernel is too short
    to gauge the machine speed over a start of about a second."""
    raw = []
    speed.reference_kernel()  # the first call pays one-time set-up
    refs = [speed.reference_kernel()]
    for i in range(reps + 1):
        t0 = time.perf_counter()
        _run_child([sys.executable, "-c", SETUP_CODE, str(cfg_path)], timeout=60)
        dt = time.perf_counter() - t0
        refs.append(speed.reference_kernel())
        if i:
            raw.append(dt)
    return speed.scaled(statistics.median(raw), refs), statistics.median(raw)


def run_sweeper(job: dict, timeout: float) -> dict:
    job_path = Path(job["work"]) / "job.json"
    result_path = Path(job["work"]) / "result.json"
    job_path.write_text(json.dumps(job))
    _run_child([sys.executable, str(HERE / "sweeper.py"), str(job_path),
                str(result_path)], timeout)
    return json.loads(result_path.read_text())


def _csv_text(sweep: dict) -> str | None:
    if sweep["error"] is not None:
        return None
    path = Path(sweep["dir"]) / "results.csv"
    return path.read_text() if path.is_file() else None


class Ledger:
    """Failed operations, as (sweep index, row key) pairs."""

    def __init__(self, workload):
        self.workload = workload
        self.keys = checks.expected_keys(workload)
        self.failed: set = set()
        self.errors: list[str] = []
        self.tallies: list[dict] = []
        self.attempted = 0
        self.sweeps = 0

    def check(self, sweep: dict, trials: int, workload=None,
              pooled: bool = True) -> str | None:
        """Check one sweep's output; its statistical tallies join the pooled
        check only if `pooled`, i.e. if the sweep is independent of the
        others."""
        workload = workload or self.workload
        i = self.sweeps
        self.sweeps += 1
        self.attempted += len(checks.expected_keys(workload))
        text = _csv_text(sweep)
        failed, tallies, errors = checks.check_csv(text, workload, trials)
        self.failed |= {(i, k) for k in failed}
        self.tallies.append(tallies if pooled else {})
        self.errors += [f"sweep {i} (seed {sweep['seed']}): {e}" for e in errors]
        if sweep["error"]:
            self.errors.append(f"sweep {i}: {sweep['error']}")
        return text

    def compare(self, i: int, text: str | None, ref: str | None, why: str) -> None:
        """Fail every row of sweep i unless its output equals `ref` byte for
        byte (determinism across worker counts and under tracing)."""
        if text is None or text != ref:
            self.failed |= {(i, k) for k in self.keys}
            self.errors.append(f"sweep {i}: {why}")

    def finish(self) -> tuple[int, int]:
        for key in checks.pooled_failures(self.tallies, self.workload):
            hit = [i for i, t in enumerate(self.tallies) if key in t]
            self.failed |= {(i, key) for i in hit}
            self.errors.append(f"pooled over {len(hit)} sweeps: {key} implausible")
        return self.attempted, len(self.failed)


def timed_run(w, args, work: Path) -> tuple[dict, Ledger, list[str]]:
    cfg_path = work / "setup.ini"
    cfg_path.write_text(w.config(0, w.trials, 1, str(work / "setup-out")))
    setup_s, setup_raw = measure_setup(cfg_path, SETUP_REPS)
    res = run_sweeper({"mode": "timed", "workload": w.name, "seed": args.seed,
                       "seconds": args.seconds, "work": str(work),
                       "trials": w.trials, "memory_trials": MEMORY_TRIALS},
                      timeout=args.seconds + 120)

    sweeps = res["sweeps"]
    ledger = Ledger(w)
    for s in sweeps:
        ledger.check(s, w.trials)
    ledger.check(res["memory"], MEMORY_TRIALS, replace(w, snr=MEMORY_SNR_DB))

    raw = sorted(s["seconds"] for s in sweeps)
    times = sorted(speed.scaled(s["seconds"], s["ref_s"]) for s in sweeps)
    n = len(times)
    tail_at = max(n // 2, n - TAIL_BEYOND - 1)
    trials_done = sum(w.trials * len(w.snr) for s in sweeps if s["error"] is None)
    rss = res["rss_kb"]
    metrics = {
        "trials_per_s": trials_done / sum(times),
        "sweep_s_p50": statistics.median(times),
        "sweep_s_tail": times[tail_at],
        "setup_s": setup_s,
        "peak_rss_mb": (rss["self"] + rss["children"]) / 1024,
    }
    kernel = statistics.median(r for s in sweeps for r in s["ref_s"])
    notes = [
        f"machine: {json.dumps(res['machine'])}",
        f"{w.name} seed {args.seed}: {n} sweeps of {w.trials} trials per SNR point "
        f"x {len(w.snr)} points, 1 worker, closed loop of one caller",
        f"sweep_s_tail is p{100 * (tail_at + 1) / n:.1f} of {n} sweeps "
        f"({n - tail_at - 1} beyond it)",
        f"peak_rss_mb: sweeping process {rss['self'] / 1024:.1f} MB + largest child "
        f"process {rss['children'] / 1024:.1f} MB, after a memory sweep of "
        f"{MEMORY_TRIALS} trials at {MEMORY_SNR_DB[0]:g} dB "
        f"({res['memory']['seconds']:.3g} s, untimed)",
        f"times scaled to the nominal machine speed: reference kernel median "
        f"{kernel * 1e3:.2f} ms against {speed.REF_NOMINAL_S * 1e3:.2f} ms nominal",
        f"unscaled: trials_per_s {trials_done / sum(raw):.6g} trials/s, "
        f"sweep_s_p50 {statistics.median(raw):.6g} s, sweep_s_tail "
        f"{raw[tail_at]:.6g} s, setup_s {setup_raw:.6g} s",
    ]
    return metrics, ledger, notes


def _max_nsp_dev(text: str | None) -> float:
    if text is None:
        return 0.0
    devs = [abs(float(r["pd_emp"]) - float(r["pd_theory_calibrated"]))
            for r in csv.DictReader(text.splitlines()) if r["mode"].startswith("nsp-")]
    return max(devs, default=0.0)


def _round_metrics(w, rnd: dict, nproc: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced round, and its self time per layer.

    Times are scaled to the nominal machine speed by the reference kernel
    timed around each sweep."""
    summ, counts = rnd["summary"], rnd["counts"]
    untraced, pool, traced = rnd["untraced"], rnd["pool"], rnd["traced"]
    factor = speed.scaled(1.0, traced["ref_s"])
    wall = traced["seconds"] * factor

    def self_s(name):
        return summ.get(name, {}).get("self_s", 0.0) * factor

    def calls(name):
        return summ.get(name, {}).get("calls", 0)

    layer_self = {}
    for name in summ:
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_s(name)
    out_dir = Path(traced["dir"])
    untraced_s = speed.scaled(untraced["seconds"], untraced["ref_s"])
    metrics = {}
    for f in _TIMED_FUNCS:
        metrics[f"{f}.calls"] = calls(f)
        metrics[f"{f}.self_s"] = self_s(f)
    metrics.update({
        "numerics.normals_drawn": counts.get("numerics.normals_drawn", 0),
        "numerics.noise_frac": (self_s("numerics.rng_substream")
                                + self_s("numerics.complex_normal")) / wall,
        "radar.steering_vector.calls": calls("radar.steering_vector"),
        "radar.orthogonal_waveforms.calls": calls("radar.orthogonal_waveforms"),
        "radar.self_s": layer_self.get("radar", 0.0),
        "sharing.svd_frac": (layer_self.get("sharing", 0.0)
                             + self_s("numerics.svd")) / wall,
        "sharing.select_channel.tie_rate": (
            counts.get("sharing.select_channel.ties", 0)
            / max(1, calls("sharing.select_channel"))),
        "detection.redrawn_theory_max_dev": _max_nsp_dev(_csv_text(traced)),
        "montecarlo.self_s": self_s("montecarlo.run_experiment"),
        "montecarlo.self_frac": self_s("montecarlo.run_experiment") / wall,
        "montecarlo.pool.scaling_eff": untraced_s / (
            nproc * speed.scaled(pool["seconds"], pool["ref_s"])),
        "cli.write_csv.self_s": self_s("cli.write_csv"),
        "cli.write_summary.self_s": self_s("cli.write_summary"),
        "cli.output_bytes": sum((out_dir / f).stat().st_size
                                for f in ("results.csv", "summary.json")
                                if (out_dir / f).is_file()),
        "trace.trials": w.trials * len(w.snr),
        "trace.wall_s": wall,
        "trace.overhead_frac": wall / untraced_s - 1,
    })
    return metrics, {k: v / wall for k, v in layer_self.items()}


def traced_run(w, args, work: Path) -> tuple[dict, Ledger, list[str]]:
    nproc = len(os.sched_getaffinity(0))
    res = run_sweeper({"mode": "trace", "workload": w.name, "seed": args.seed,
                       "nproc": nproc, "work": str(work), "trials": w.trials,
                       "rounds": TRACE_ROUNDS}, timeout=150)
    rounds = res["rounds"]
    ledger = Ledger(w)
    # Every sweep repeats the first one's seed, so only the first joins the
    # pooled check; the others must equal it byte for byte.
    ref = ledger.check(rounds[0]["untraced"], w.trials)
    for r, rnd in enumerate(rounds):
        for kind, why in (("untraced", "repeated"), ("pool", f"{nproc} workers"),
                          ("traced", "traced")):
            if r == 0 and kind == "untraced":
                continue
            text = ledger.check(rnd[kind], w.trials, pooled=False)
            ledger.compare(ledger.sweeps - 1, text, ref,
                           f"round {r}: results.csv {why} differs from the "
                           "first untraced one-worker sweep")

    per_round = [_round_metrics(w, rnd, nproc) for rnd in rounds]
    metrics = {k: statistics.median(m[k] for m, _ in per_round)
               for k in per_round[0][0]}
    shares = {k: statistics.median(s.get(k, 0.0) for _, s in per_round)
              for k in per_round[0][1]}
    notes = [
        f"machine: {json.dumps(res['machine'])}",
        f"{w.name} seed {args.seed}: {len(rounds)} rounds of one sweep of "
        f"{w.trials} trials per SNR point x {len(w.snr)} points, each run "
        f"untraced at 1 worker, at {nproc} workers and traced at 1 worker; "
        "metrics are medians over the rounds, times scaled by the reference kernel",
        f"wrapped {len(res['wrapped'])} functions; last round's spans in "
        f"{work / 'spans.csv'}",
        "self-time share by layer: "
        + ", ".join(f"{k} {v:.3f}" for k, v in
                    sorted(shares.items(), key=lambda kv: -kv[1])),
    ]
    return metrics, ledger, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "nspradar" / "cli.py").is_file():
        print(f"error: no nspradar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    work = WORK / f"{w.name}-{args.seed}-{'trace' if args.trace else 'timed'}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            metrics, ledger, notes = traced_run(w, args, work)
            units = dict(PER_LAYER)
        else:
            metrics, ledger, notes = timed_run(w, args, work)
            units = dict(END_TO_END)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed = ledger.finish()
    for line in notes:
        print(line)
    print(f"fail_rate {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} rows failed)")
    for err in ledger.errors[:20]:
        print(f"check: {err}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
