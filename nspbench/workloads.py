"""Workload definitions: the sweep plans the benchmark runs and the config
files it generates for them.

Each workload is one caller in a closed loop: the next sweep starts when the
last one returns.  Sweep i of a run uses the master seed derived from
(workload seed, i), so one --seed always gives the same sequence of inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

FIG3_LABELS = ("orthogonal", "nsp-bs1", "nsp-bs2", "nsp-bs3", "nsp-bs4",
               "nsp-bs5", "nsp-selected")
FIG4_LABELS = ("orthogonal", "nsp-selected")
SNR_GRID_DB = tuple(float(s) for s in range(-10, 31))

# The memory sweep: trials at one SNR point, enough to fill one chunk of the
# fixed-channel engine (montecarlo batches 2000 trials at a time), so that
# peak_rss_mb sees the engine's (chunk, M, G) arrays at the size a user's
# 10k-trial sweep allocates them.
MEMORY_TRIALS = 2000
MEMORY_SNR_DB = (10.0,)


@dataclass(frozen=True)
class Workload:
    name: str
    modes: tuple[str, ...]
    labels: tuple[str, ...]       # curve labels results.csv must hold, in order
    pfa: tuple[float, ...]
    channel_mode: str
    scan: bool
    trials: int                   # trials per SNR point, timed and traced
    check: str                    # "two-sided", "lower" or "orthogonal"
    snr: tuple[float, ...] = SNR_GRID_DB

    def config(self, seed: int, trials: int, workers: int, out_dir: str) -> str:
        """Config file text for one sweep (the nspradar key = value format)."""
        return "\n".join([
            "m = 4",
            "n_bs = 2",
            "k = 5",
            "l = 16",
            "theta_target_deg = 10.0",
            f"snr_db = [{', '.join(repr(x) for x in self.snr)}]",
            f"pfa = [{', '.join(repr(p) for p in self.pfa)}]",
            f"modes = [{', '.join(self.modes)}]",
            f"channel_mode = {self.channel_mode}",
            f"scan = {str(self.scan).lower()}",
            "theta_step_deg = 0.5",
            f"trials = {trials}",
            f"seed = {seed}",
            f"workers = {workers}",
            "emit_plot = false",
            f"output_dir = {out_dir}",
        ]) + "\n"


_FIG3_MODES = ("orthogonal", "nsp-per-bs", "nsp-selected")
_FIG4_MODES = ("orthogonal", "nsp-selected")
_FIXED = "fixed-per-experiment"
_REDRAWN = "redrawn-per-trial"

# Trials per point: a timed sweep takes 0.5-0.9 s at nominal speed, so that a
# run holds enough sweeps for sweep_s_tail (README.md).  The scan needs about
# 100 for its kernel to dominate.  Users run 10k trials per point; here the
# per-sweep fixed costs (theory curves, per-point set-up, output) take about
# 12% (fig3-fixed), 15-25% (scan-fixed) and 7% (redrawn) of a sweep.

WORKLOADS = {
    w.name: w for w in (
        Workload("fig3-fixed", _FIG3_MODES, FIG3_LABELS, (1e-3,), _FIXED,
                 scan=False, trials=250, check="two-sided"),
        Workload("scan-fixed", _FIG4_MODES, FIG4_LABELS,
                 (1e-1, 1e-3, 1e-5, 1e-7), _FIXED,
                 scan=True, trials=100, check="lower"),
        Workload("redrawn", _FIG3_MODES, FIG3_LABELS, (1e-3,), _REDRAWN,
                 scan=False, trials=15, check="orthogonal"),
    )
}


def sweep_seed(workload_seed: int, index: int) -> int:
    """Master seed of sweep `index` in a run with the given workload seed."""
    digest = hashlib.sha256(f"nspbench:{workload_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")
