"""The sweeping process: runs nspradar sweeps in-process through
``nspradar.cli.main`` and writes what it measured as JSON.

Usage: python3 nspbench/sweeper.py JOB_JSON RESULT_JSON

run.py starts it with PYTHONPATH pointing at the checkout's src/ and the
BLAS thread count pinned, so that its resident memory and that of its
children are the sweep's alone.  Modes:

- timed: one warm-up sweep, then sweeps back to back at one worker for
  `seconds`, with the reference kernel (speed.py) timed between them; then
  one memory sweep of `memory_trials` trials at one SNR point, so that the
  peak resident memory includes the engine's arrays at a user's chunk size.
- trace: `rounds` rounds of the same sweep, each run untraced at one worker,
  at `nproc` workers, then traced at one worker (spans from pool children
  would be lost), with the reference kernel timed between sweeps.  A fixed
  amount of work, so that call counts repeat exactly.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from dataclasses import replace

from speed import reference_kernel
from workloads import MEMORY_SNR_DB, WORKLOADS, sweep_seed

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def sweep(cli, workload, seed: int, trials: int, workers: int, out: str) -> dict:
    """One sweep as a user runs it: a config file, then cli.main timed whole."""
    os.makedirs(out, exist_ok=True)
    cfg = os.path.join(out, "sweep.ini")
    with open(cfg, "w") as fh:
        fh.write(workload.config(seed, trials, workers, out))
    error = None
    t0 = time.perf_counter()
    try:
        rc = cli.main(["--config", cfg])
        if rc != 0:
            error = f"exit code {rc}"
    except (Exception, SystemExit) as exc:  # a failed sweep fails its rows
        error = f"{type(exc).__name__}: {exc}"
    return {"seed": seed, "seconds": time.perf_counter() - t0,
            "error": error, "dir": out}


def _peak_rss_kb() -> dict:
    return {"self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}


class _Timer:
    """Runs sweeps with the reference kernel timed before and after each."""

    def __init__(self, cli, workload):
        self.cli, self.workload = cli, workload
        reference_kernel()  # the first call pays one-time set-up
        self.ref = reference_kernel()

    def sweep(self, seed: int, trials: int, workers: int, out: str) -> dict:
        s = sweep(self.cli, self.workload, seed, trials, workers, out)
        s["ref_s"] = [self.ref, reference_kernel()]
        self.ref = s["ref_s"][1]
        return s


def timed(cli, job: dict) -> dict:
    w = WORKLOADS[job["workload"]]
    work, seed, trials = job["work"], job["seed"], job["trials"]
    sweep(cli, w, sweep_seed(seed, 0), trials, 1, f"{work}/warmup")
    sweeps, i = [], 1
    timer = _Timer(cli, w)
    start = time.perf_counter()
    while time.perf_counter() - start < job["seconds"]:
        sweeps.append(timer.sweep(sweep_seed(seed, i), trials, 1, f"{work}/s{i}"))
        i += 1
    memory = sweep(cli, replace(w, snr=MEMORY_SNR_DB), sweep_seed(seed, i),
                   job["memory_trials"], 1, f"{work}/memory")
    return {"sweeps": sweeps, "memory": memory, "rss_kb": _peak_rss_kb()}


def trace(cli, job: dict) -> dict:
    from tracer import Tracer

    w = WORKLOADS[job["workload"]]
    work, seed, trials = job["work"], sweep_seed(job["seed"], 0), job["trials"]
    sweep(cli, w, sweep_seed(job["seed"], 1), trials, 1, f"{work}/warmup")
    timer, tracer = _Timer(cli, w), Tracer()
    rounds = []
    for r in range(job["rounds"]):
        untraced = timer.sweep(seed, trials, 1, f"{work}/r{r}-untraced")
        pool = timer.sweep(seed, trials, job["nproc"], f"{work}/r{r}-pool")
        tracer.reset()
        wrapped = tracer.install()
        try:
            traced = timer.sweep(seed, trials, 1, f"{work}/r{r}-traced")
        finally:
            tracer.uninstall()
        rounds.append({"untraced": untraced, "pool": pool, "traced": traced,
                       "summary": tracer.summary(), "counts": dict(tracer.counts)})
    tracer.write(f"{work}/spans.csv")
    return {"rounds": rounds, "wrapped": wrapped}


def main() -> int:
    job_path, result_path = sys.argv[1:3]
    with open(job_path) as fh:
        job = json.load(fh)
    from nspradar import cli

    result = (trace if job["mode"] == "trace" else timed)(cli, job)
    result["machine"] = machine()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
