"""Machine-speed reference: the benchmark's timings are scaled by it.

A single-threaded process on a shared host runs up to 1.8x slower while a
neighbour occupies its core's other hardware thread, and that state changes
from one minute to the next.  Timing a fixed reference kernel next to each
measured interval and scaling the interval by REF_NOMINAL_S / (kernel time)
cancels most of that factor, so runs made minutes apart stay comparable.
The kernel is benchmark code: a change to nspradar does not move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median reference_kernel() time on the baseline machine (see README.md).
REF_NOMINAL_S = 0.0125


def reference_kernel() -> float:
    """Seconds taken by fixed work in the style of the program's three hot
    paths: Philox substreams with complex normal draws, small SVDs and
    projectors in a Python loop, and a batched angle-scan product."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(200):
        g = np.random.Generator(np.random.Philox(np.random.SeedSequence((7, i))))
        x = g.standard_normal((4, 16)) + 1j * g.standard_normal((4, 16))
        _, _, vh = np.linalg.svd(x[:2, :4], full_matrices=True)
        v = vh.conj().T[:, 2:]
        acc += float(np.linalg.norm(v @ v.conj().T @ x[:, :4] - x[:, :4]))
    noise = g.standard_normal((100, 4, 16)) + 1j * g.standard_normal((100, 4, 16))
    w = g.standard_normal((16, 361)) + 1j * g.standard_normal((16, 361))
    a = g.standard_normal((4, 361)) + 1j * g.standard_normal((4, 361))
    acc += float((np.abs(np.einsum("mg,tmg->tg", a.conj(), noise @ w)) ** 2).max())
    return time.perf_counter() - t0


def scaled(seconds: float, refs: list[float]) -> float:
    """An interval at the nominal machine speed, from kernel times taken
    around it (their median; for two, their mean)."""
    return seconds * REF_NOMINAL_S / statistics.median(refs)
