"""In-memory span tracer installed around public nspradar functions.

Each wrapped call records a span (name, start, end, parent).  A function is
rebound in every nspradar module that holds it, because the modules import
each other's functions by name (``from .numerics import complex_normal``):
wrapping only the defining module would miss those calls.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from collections import Counter
from time import perf_counter

# The layer boundaries: public functions per module.  A name a later version
# of the package no longer defines is skipped, and its metrics read zero.
WRAPPED = {
    "numerics": ("svd", "chi2_central_inv", "chi2_noncentral_sf",
                 "rng_substream", "complex_normal"),
    "radar": ("steering_vector", "transmit_receive_matrix",
              "orthogonal_waveforms", "synthesize_echo"),
    "sharing": ("draw_channels", "projection_matrix", "select_channel",
                "project_waveform"),
    "detection": ("direction_gain", "glrt_statistic", "glrt_scan",
                  "noncentrality_orthogonal", "noncentrality_nsp",
                  "calibrated_noncentrality", "theoretical_pd"),
    "montecarlo": ("run_experiment",),
    "cli": ("main", "write_csv", "write_summary"),
}

# Relative window within which two degradation norms count as tied.
TIE_RTOL = 1e-9


def _count_normals(counts, args, kwargs, result):
    shape = kwargs.get("shape", args[1] if len(args) > 1 else None)
    counts["numerics.normals_drawn"] += 2 * math.prod(
        (shape,) if isinstance(shape, int) else shape)


def _count_ties(counts, args, kwargs, result):
    norms = sorted(result.norms)
    if len(norms) > 1 and norms[1] <= norms[0] * (1 + TIE_RTOL) + 1e-12:
        counts["sharing.select_channel.ties"] += 1


_COUNTERS = {
    "numerics.complex_normal": _count_normals,
    "sharing.select_channel": _count_ties,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._bound: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        count = _COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every WRAPPED function in every nspradar module binding it.

        Returns the span names installed.  uninstall() restores the
        original bindings.
        """
        for mod in WRAPPED:
            importlib.import_module(f"nspradar.{mod}")
        package = [m for n, m in list(sys.modules.items())
                   if n == "nspradar" or n.startswith("nspradar.")]
        originals = {}
        for mod, names in WRAPPED.items():
            module = sys.modules[f"nspradar.{mod}"]
            for fname in names:
                fn = getattr(module, fname, None)
                if callable(fn):
                    name = f"{mod}.{fname}"
                    originals[id(fn)] = (fn, self._wrap(name, fn), name)
        for module in package:
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    setattr(module, attr, originals[id(value)][1])
                    self._bound.append((module, attr, value))
        return sorted(name for _, _, name in originals.values())

    def uninstall(self) -> None:
        for module, attr, original in self._bound:
            setattr(module, attr, original)
        self._bound.clear()

    def reset(self) -> None:
        """Drop the spans and counts recorded so far."""
        self.spans.clear()
        self.counts.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds (the
        duration minus the time its direct child spans cover)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += t1 - t0
            rec["self_s"] += (t1 - t0) - child[i]
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0!r},{t1!r},{parent}\n")
