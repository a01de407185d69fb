"""Correctness checks on the results.csv a sweep writes.

A row is one operation.  It fails when the file is malformed, when its own
fields disagree (pd_emp != detections / trials, a Wilson interval that does
not hold pd_emp), or when its detection count is implausible under the
calibrated theory curve.  The statistical test is the exact binomial tail
at the two-sided 6-sigma normal level: with a normal approximation, a
5-standard-error rule fails a correct row with probability up to 4e-4 when
n * p is near 1, which over thousands of sweeps a run set makes would report
false failures.
"""

from __future__ import annotations

import csv
import io

import numpy as np
from scipy import stats

REQUIRED_COLUMNS = ("mode", "bs_id", "snr_db", "pfa", "trials", "detections",
                    "pd_emp", "ci_lo", "ci_hi", "pd_theory_paper",
                    "pd_theory_calibrated")
ALPHA = 2 * stats.norm.sf(6.0)
_TOL = 1e-12


def expected_keys(workload) -> list[tuple[str, float, float]]:
    return [(label, snr, pfa) for label in workload.labels
            for snr in workload.snr for pfa in workload.pfa]


def _implausible(det, n, p, lower_only: bool) -> np.ndarray:
    """Rows whose detection count lies in a binomial tail below ALPHA / 2."""
    det, n, p = (np.asarray(v, dtype=float) for v in (det, n, p))
    bad = stats.binom.cdf(det, n, p) < ALPHA / 2
    if not lower_only:
        bad |= stats.binom.sf(det - 1, n, p) < ALPHA / 2
    return bad


def _stat_checked(workload, label: str) -> bool:
    return workload.check != "orthogonal" or label == "orthogonal"


def check_csv(text: str | None, workload, trials: int):
    """Check one sweep's results.csv text.

    Returns (failed keys, tallies, errors).  Tallies map each statistically
    checked key to (detections, trials, pd_theory_calibrated), for pooling.
    """
    keys = expected_keys(workload)
    if text is None:
        return set(keys), {}, ["sweep failed"]
    reader = csv.DictReader(io.StringIO(text))
    missing_cols = [c for c in REQUIRED_COLUMNS if c not in (reader.fieldnames or ())]
    if missing_cols:
        return set(keys), {}, [f"header lacks {missing_cols}"]
    rows = {}
    try:
        for r in reader:
            rows.setdefault((r["mode"], float(r["snr_db"]), float(r["pfa"])), []).append(r)
    except (TypeError, ValueError) as exc:
        return set(keys), {}, [f"unparsable row: {exc}"]
    n_rows = sum(len(v) for v in rows.values())
    if n_rows != len(keys) or set(rows) != set(keys):
        return set(keys), {}, [f"{n_rows} rows, expected {len(keys)} distinct keys"]

    failed, errors, tallies = set(), [], {}
    for key in keys:
        r = rows[key][0]
        try:
            n, det = int(r["trials"]), int(r["detections"])
            pd, lo, hi = float(r["pd_emp"]), float(r["ci_lo"]), float(r["ci_hi"])
            theory = float(r["pd_theory_calibrated"])
            paper = float(r["pd_theory_paper"])
        except ValueError as exc:
            failed.add(key)
            errors.append(f"{key}: {exc}")
            continue
        ok = (n == trials and 0 <= det <= n and abs(pd - det / n) <= _TOL
              and lo - _TOL <= pd <= hi + _TOL and 0 <= theory <= 1
              and 0 <= paper <= 1)
        if not ok:
            failed.add(key)
            errors.append(f"{key}: inconsistent fields {dict(r)}")
        elif _stat_checked(workload, key[0]):
            tallies[key] = (det, n, theory)

    if tallies:
        tk = list(tallies)
        det, n, p = zip(*(tallies[k] for k in tk))
        bad = _implausible(det, n, p, workload.check == "lower")
        for k, b in zip(tk, bad):
            if b:
                failed.add(k)
                errors.append(f"{k}: {tallies[k][0]}/{tallies[k][1]} detections "
                              f"vs theory {tallies[k][2]:.6g}")
    return failed, tallies, errors


def pooled_failures(tallies: list[dict], workload) -> set:
    """Keys whose detections summed over independent sweeps are implausible
    under the summed theory (a binomial with the mean theory probability,
    which is wider than the true Poisson-binomial law)."""
    det, n, expect = {}, {}, {}
    for t in tallies:
        for key, (d, k, p) in t.items():
            det[key] = det.get(key, 0) + d
            n[key] = n.get(key, 0) + k
            expect[key] = expect.get(key, 0.0) + k * p
    keys = list(det)
    if not keys:
        return set()
    bad = _implausible([det[k] for k in keys], [n[k] for k in keys],
                       [min(1.0, expect[k] / n[k]) for k in keys],
                       workload.check == "lower")
    return {k for k, b in zip(keys, bad) if b}
