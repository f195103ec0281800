"""Spans around the calls into sirlimits' public functions, recorded from outside.

``Tracer.install`` replaces each traced function, in every sirlimits module
that holds it, by a wrapper that records a span: name, start, end, the span
open when it was called (its parent) and a few counts taken from its
arguments or result. Spans stay in memory until ``write``. A span's self
time is its duration minus the durations of its children; calls in one
process nest, so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


def _substeps(bound):
    a = bound.arguments
    return {"substeps": int(a["horizon"]) * int(a["steps_per_day"])}


def _lane_substeps(bound):
    a = bound.arguments
    return {"lane_substeps": len(a["betas"]) * int(a["horizon"]) * int(a["steps_per_day"])}


#: (module, attribute) of each traced function, with what to record from the
#: bound arguments before the call and from the result after it.
LAYERS = {
    "sir.integrate_exact": (_substeps, None),
    "sir.integrate_day_grid_batch": (_lane_substeps, None),
    "sir.peak_time_for": (None, None),
    "inference.integrate_with_sensitivities": (_substeps, None),
    "inference.fit_mle": (None, lambda r: {"loglik": r.loglik, "converged": bool(r.converged)}),
    "inference.mle_ensemble": (None, None),
    "inference.minimize": (None, lambda r: {"nfev": int(r.nfev), "nit": int(r.nit),
                                            "loglik": -float(r.fun)}),
    "simulate.observe_batch": (None, None),
    "lrt.TestSpec": (None, None),
    "lrt.v_statistic": (None, None),
    "lrt.type2_exact": (None, None),
    "lrt.type2_approx": (None, None),
    "lrt.empirical_type2": (lambda b: {"replicates": int(b.arguments["replicates"])}, None),
    "lrt.power_summary": (None, None),
    "perturb.separation_sweep": (None, None),
    "nyc.reporting_rate_sweep": (None, None),
    "cli.run_experiment": (None, lambda paths: {"bytes": sum(Path(p).stat().st_size for p in paths)}),
}
WRITERS = "cli.write_outputs"  # every write_*_csv writer as cli looks it up
NAMES = list(LAYERS) + [WRITERS]
BEST_TOL = 1e-6  # a start within this of the returned log-likelihood reached the best


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, info]
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def _wrap(self, name, fn, before, after):
        signature = inspect.signature(fn) if before else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            info = {}
            if before:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                info = before(bound)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, info]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after:
                info.update(after(result))
            return result

        return traced

    def _replace(self, original, wrapper, modules):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "sirlimits" or n.startswith("sirlimits.")]
        for name, (before, after) in LAYERS.items():
            mod_name, attr = name.split(".")
            original = getattr(importlib.import_module(f"sirlimits.{mod_name}"), attr)
            self._replace(original, self._wrap(name, original, before, after), modules)
        cli = importlib.import_module("sirlimits.cli")
        for attr, original in list(vars(cli).items()):
            if attr.startswith("write_") and attr.endswith("_csv"):
                self._replace(original, self._wrap(WRITERS, original, None, None), [cli])

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent, info."""
        with open(path, "w", encoding="utf-8") as fh:
            for k, (name, start, end, parent, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": name, "start": start, "end": end,
                                     "parent": parent, **info}) + "\n")

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics; counts and times are per pass."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        work = defaultdict(float)
        for k, (name, start, end, _, info) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[k]
            for key, value in info.items():
                work[name, key] += value
        out = {}
        for name in NAMES:
            out[f"{name}.calls"] = (calls[name] / passes, "count", "lower")
            out[f"{name}.total_s"] = (total[name] / passes, "s", "lower")
            out[f"{name}.self_s"] = (own[name] / passes, "s", "lower")

        def rate(num, den):
            return num / den if den else 0.0

        for name, key in (("sir.integrate_exact", "substeps"),
                          ("inference.integrate_with_sensitivities", "substeps"),
                          ("sir.integrate_day_grid_batch", "lane_substeps"),
                          ("lrt.empirical_type2", "replicates")):
            out[f"{name}.{key}_per_s"] = (rate(work[name, key], total[name]), "1/s", "higher")
        fits, starts = calls["inference.fit_mle"], calls["inference.minimize"]
        out["inference.fit_mle.evals_per_fit"] = (rate(work["inference.minimize", "nfev"], fits), "count", "lower")
        out["inference.fit_mle.starts_per_fit"] = (rate(starts, fits), "count", "lower")
        out["inference.fit_mle.iterations_per_start"] = (rate(work["inference.minimize", "nit"], starts),
                                                         "count", "lower")
        at_best = run = 0
        for name, _, _, parent, info in self.spans:
            if name == "inference.minimize" and parent is not None and self.spans[parent][0] == "inference.fit_mle":
                run += 1
                best = self.spans[parent][4].get("loglik")
                at_best += best is not None and abs(info["loglik"] - best) <= BEST_TOL
        out["inference.fit_mle.starts_at_best_ratio"] = (rate(at_best, run), "ratio", "higher")
        out["inference.fit_mle.converged_ratio"] = (rate(work["inference.fit_mle", "converged"], fits),
                                                    "ratio", "higher")
        out["lrt.v_statistic.calls_per_point"] = (rate(calls["lrt.v_statistic"], calls["lrt.power_summary"]),
                                                  "count", "lower")
        out["cli.output_bytes"] = (work["cli.run_experiment", "bytes"] / passes, "bytes", "lower")
        return out
