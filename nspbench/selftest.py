"""Self-test of the benchmark.

Usage, from the repository root (takes about two minutes):

    python3 nspbench/selftest.py

Runs every workload at a tiny size in both modes and asserts that the last
line carries every metric BENCHMARK.json names, with its unit.  Then shows
that the checks can fail: a results.csv with pd_emp shifted by 0.1, one with
a row missing, one whose detections are implausible under the theory curve,
tallies biased too little for any one sweep to show but caught when pooled,
and a one-byte difference in the worker-count determinism comparison.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math

import checks
import run
from workloads import WORKLOADS

SEED = 7


def run_tiny(name: str, trace: int) -> tuple[dict, list[str]]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(["--workload", name, "--seed", str(SEED), "--seconds", "1",
                       "--trace", str(trace)])
    lines = buf.getvalue().splitlines()
    assert rc == 0, f"{name} trace={trace}: exit code {rc}"
    return json.loads(lines[-1]), lines


def check_result(result: dict, spec_metrics: list[dict], label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, (label, result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    want = {m["name"]: m["unit"] for m in spec_metrics}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, (label, sorted(set(got) ^ set(want)))
    for name, v in result["metrics"].items():
        assert set(v) == {"value", "unit"}, (label, name)
        assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"]), \
            (label, name, v)


def shift_pd(text: str, delta: float) -> str:
    lines = text.splitlines()
    col = lines[0].split(",").index("pd_emp")
    out = [lines[0]]
    for ln in lines[1:]:
        f = ln.split(",")
        f[col] = repr(float(f[col]) + delta)
        out.append(",".join(f))
    return "\n".join(out) + "\n"


def implausible_detections(text: str) -> str:
    """Every orthogonal row reports zero detections, with consistent fields."""
    lines = text.splitlines()
    head = lines[0].split(",")
    idx = {c: head.index(c) for c in ("mode", "detections", "pd_emp", "ci_lo")}
    out = [lines[0]]
    for ln in lines[1:]:
        f = ln.split(",")
        if f[idx["mode"]] == "orthogonal":
            f[idx["detections"]], f[idx["pd_emp"]], f[idx["ci_lo"]] = "0", "0.0", "0.0"
        out.append(",".join(f))
    return "\n".join(out) + "\n"


def check_pooled(w) -> None:
    """A detection rate of 0.6 against a theory of 0.3, 5 trials a sweep: no
    single sweep is implausible, but 40 of them pooled are."""
    key = checks.expected_keys(w)[0]
    assert not checks._implausible([3], [5], [0.3], lower_only=False)[0]
    fair = [{key: (d, 5, 0.3)} for d in [1, 2, 1, 2, 2] * 8]   # 60 of 200
    assert checks.pooled_failures(fair, w) == set(), "unbiased tallies failed"
    biased = [{key: (3, 5, 0.3)} for _ in range(40)]           # 120 of 200
    assert checks.pooled_failures(biased, w) == {key}, "a pooled bias passed"


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)

    run.SETUP_REPS = 1
    run.TRACE_ROUNDS = 2
    run.MEMORY_TRIALS = 20
    for name, w in list(WORKLOADS.items()):
        # fig3-fixed is big enough for the statistical checks below to bite.
        WORKLOADS[name] = dataclasses.replace(
            w, trials=20 if name == "fig3-fixed" else 2)
    traced = {}
    for name in WORKLOADS:
        result, lines = run_tiny(name, 0)
        check_result(result, spec["end_to_end"], f"{name} timed")
        assert any(ln.startswith("fail_rate 0 ratio") for ln in lines), name
        result, _ = run_tiny(name, 1)
        check_result(result, spec["per_layer"], f"{name} traced")
        traced[name] = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"ok {name}")

    # Functions other modules import by name are traced there too.
    t = traced["fig3-fixed"]
    for name in ("numerics.rng_substream", "numerics.complex_normal",
                 "numerics.svd", "numerics.chi2_noncentral_sf",
                 "detection.direction_gain"):
        assert t[f"{name}.calls"] > 0, name
    r = traced["redrawn"]
    assert (r["numerics.svd.calls"] / r["trace.trials"]
            > 10 * t["numerics.svd.calls"] / t["trace.trials"])

    w = WORKLOADS["fig3-fixed"]
    work = run.WORK / f"fig3-fixed-{SEED}-trace"
    good = (work / "r0-traced" / "results.csv").read_text()
    keys = checks.expected_keys(w)
    assert checks.check_csv(good, w, w.trials)[0] == set()

    failed = checks.check_csv(shift_pd(good, 0.1), w, w.trials)[0]
    assert failed, "pd_emp shifted by 0.1 passed"
    failed = checks.check_csv(good.rstrip("\n").rsplit("\n", 1)[0] + "\n", w,
                              w.trials)[0]
    assert failed == set(keys), "a missing row passed"
    failed = checks.check_csv(implausible_detections(good), w, w.trials)[0]
    assert failed and all(k[0] == "orthogonal" for k in failed), failed
    check_pooled(w)

    ledger = run.Ledger(w)
    ledger.check({"seed": SEED, "error": None, "dir": str(work / "r0-traced")},
                  w.trials)
    ledger.compare(0, good, good, "identical")
    assert ledger.finish() == (len(keys), 0)
    flipped = good[:-2] + ("0" if good[-2] != "0" else "1") + good[-1]
    ledger.compare(0, good, flipped, "one byte differs")
    assert ledger.finish() == (len(keys), len(keys)), "a one-byte difference passed"
    print("ok checks fail on bad output")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
