"""Span recorder for the traced run.

Wraps the public functions of every pllab module, from outside the library:
each function is rebound at every module attribute that refers to it (so
``solve_fekete`` is traced whether ``cli``, ``regularity`` or ``equidist``
calls it), and methods are patched on their class.  A span records its name,
start, end, parent span and the manifest (request) it belongs to.  Self time
is a span's duration minus the time of its child spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _sample(counts, args, result):
    counts["geometry.sample.points"] += result.size


def _ortho(counts, args, result):
    key = "basis.orthonormal_basis.condition_max"
    counts[key] = max(counts[key], result.condition)


def _solve(counts, args, result):
    cloud, basis = args[0], args[1]
    counts["fekete.solve_fekete.nm_sum"] += basis.size * cloud.size
    counts["fekete.accepted_swaps"] += result.provenance["accepted_swaps"]
    counts["fekete.restart_wins"] += result.provenance["restart"] > 0


def _bounds(counts, args, result):
    counts["extremal.bounds.points"] += len(np.atleast_2d(args[1]))


def _relative(counts, args, result):
    counts["extremal.relative_extremal_1c.sweeps"] += result.iterations
    counts["extremal.relative_extremal_1c.cells"] += len(result.xs) ** 2


def _bytes_written(stem):
    def hook(counts, args, result):
        counts[stem + ".bytes"] += os.path.getsize(args[0])
    return hook


def _cache(counts, args, result):
    hit = bool(result[2])
    counts["cli.cache_hits"] += hit
    counts["cli.cache_misses"] += not hit


# (metric stem, module, attribute or Class.method, counter hook)
TARGETS = [
    ("geometry.sample", "geometry", "sample", _sample),
    ("geometry.contains", "geometry", "contains", None),
    ("basis.orthonormal_basis", "basis", "orthonormal_basis", _ortho),
    ("basis.log_abs_vdm", "basis", "log_abs_vdm", None),
    ("basis.vandermonde", "basis", "vandermonde", None),
    ("basis.OrthoBasis.evaluate", "basis", "OrthoBasis.evaluate", None),
    ("fekete.solve_fekete", "fekete", "solve_fekete", _solve),
    ("fekete.quality_gamma", "fekete", "quality_gamma", None),
    ("extremal.sandwich_init", "extremal", "SandwichEvaluator.__init__", None),
    ("extremal.bounds", "extremal", "SandwichEvaluator.bounds", _bounds),
    ("extremal.relative_extremal_1c", "extremal", "relative_extremal_1c",
     _relative),
    ("regularity.hcp_scan", "regularity", "hcp_scan", None),
    ("regularity.localization_experiment", "regularity",
     "localization_experiment", None),
    ("regularity.modulus_fit", "regularity", "modulus_fit", None),
    ("equidist.rate_experiment", "equidist", "rate_experiment", None),
    ("serialize.write_csv", "serialize", "write_csv",
     _bytes_written("serialize.write_csv")),
    ("serialize.write_json", "serialize", "write_json",
     _bytes_written("serialize.write_json")),
    ("serialize.field_contour_svg", "serialize", "field_contour_svg",
     _bytes_written("serialize.field_contour_svg")),
    ("serialize.canonical_json", "serialize", "canonical_json", None),
    ("cli.main", "cli", "main", None),
    ("cli.run_manifest", "cli", "run_manifest", None),
    ("cli.cached_fekete", "cli", "cached_fekete", _cache),
]

COUNTERS = [
    "geometry.sample.points", "basis.orthonormal_basis.condition_max",
    "fekete.solve_fekete.nm_sum", "fekete.accepted_swaps",
    "extremal.bounds.points", "extremal.relative_extremal_1c.sweeps",
    "extremal.relative_extremal_1c.cells", "serialize.write_csv.bytes",
    "serialize.write_json.bytes", "serialize.field_contour_svg.bytes",
    "cli.cache_hits", "cli.cache_misses",
]
RATIOS = ["fekete.restart_useful_frac", "cli.cache_hit_frac",
          "trace.overhead_frac"]

# Which workload each wrapped function is meant to be exercised by: the
# traced run fails its check when one of these records no call.
ALL = ("solve-cold", "replay-warm", "relative-field")
SOLVER = ("solve-cold", "replay-warm")
EXERCISED = {
    "geometry.sample": SOLVER,
    "geometry.contains": ("solve-cold", "relative-field"),
    "basis.orthonormal_basis": SOLVER,
    "basis.log_abs_vdm": SOLVER,
    "basis.vandermonde": SOLVER,
    "basis.OrthoBasis.evaluate": SOLVER,
    "fekete.solve_fekete": ("solve-cold",),
    "fekete.quality_gamma": SOLVER,
    "extremal.sandwich_init": SOLVER,
    "extremal.bounds": SOLVER,
    "extremal.relative_extremal_1c": ("relative-field",),
    "regularity.hcp_scan": ("solve-cold",),
    "regularity.localization_experiment": ("solve-cold",),
    "regularity.modulus_fit": ("solve-cold",),
    "equidist.rate_experiment": ("solve-cold",),
    "serialize.write_csv": ALL,
    "serialize.write_json": ALL,
    "serialize.field_contour_svg": ("relative-field",),
    "serialize.canonical_json": ALL,
    "cli.main": ALL,
    "cli.run_manifest": ALL,
    "cli.cached_fekete": SOLVER,
}
# The solver must not run where the cache or the workload bypasses it.
NO_SOLVE = ("replay-warm", "relative-field")


def metric_names():
    """Every per-layer metric the traced run emits, in a fixed order."""
    names = []
    for stem, *_ in TARGETS:
        names += [stem + ".calls", stem + ".self_s"]
    return names + COUNTERS + RATIOS


class Recorder:
    """Keeps spans and per-name totals in memory until the run ends."""

    def __init__(self):
        self.spans = []              # (id, parent, name, start, end, request)
        self.keep_spans = True
        self.request = None
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.bindings = defaultdict(list)
        self._stack = []             # [span id, seconds covered by children]
        self._next_id = 0
        self._patches = []

    def _wrap(self, stem, fn, hook):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = rec._next_id
            rec._next_id += 1
            parent = rec._stack[-1][0] if rec._stack else None
            frame = [sid, 0.0]
            rec._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(rec.counts, args, result)
                return result
            finally:
                end = perf_counter()
                rec._stack.pop()
                dur = end - start
                rec.calls[stem] += 1
                rec.self_s[stem] += dur - frame[1]
                if rec._stack:
                    rec._stack[-1][1] += dur
                if rec.keep_spans:
                    rec.spans.append((sid, parent, stem, start, end,
                                      rec.request))
        return traced

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "pllab" or name.startswith("pllab.")]
        for stem, module, attr, hook in TARGETS:
            owner = sys.modules["pllab." + module]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[method]
                setattr(cls, method, self._wrap(stem, orig, hook))
                self._patches.append((cls, method, orig))
                self.bindings[stem].append(f"{module}.{attr}")
                continue
            orig = getattr(owner, attr)
            traced = self._wrap(stem, orig, hook)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, traced)
                        self._patches.append((mod, name, orig))
                        self.bindings[stem].append(f"{mod.__name__}.{name}")

    def uninstall(self):
        for obj, name, orig in reversed(self._patches):
            setattr(obj, name, orig)
        self._patches.clear()

    def metrics(self, passes, overhead_frac):
        """Per-pass figures for every name in metric_names()."""
        out = {}
        for stem, *_ in TARGETS:
            out[stem + ".calls"] = self.calls[stem] / passes
            out[stem + ".self_s"] = self.self_s[stem] / passes
        for name in COUNTERS:
            value = self.counts[name]
            out[name] = value if name.endswith("_max") else value / passes
        solves = self.calls["fekete.solve_fekete"]
        out["fekete.restart_useful_frac"] = (
            self.counts["fekete.restart_wins"] / solves if solves else 0.0)
        lookups = self.counts["cli.cache_hits"] + self.counts["cli.cache_misses"]
        out["cli.cache_hit_frac"] = (
            self.counts["cli.cache_hits"] / lookups if lookups else 0.0)
        out["trace.overhead_frac"] = overhead_frac
        return out

    def problems(self, workload):
        """Expectations on call counts and cache behaviour that failed."""
        found = []
        for stem, workloads in EXERCISED.items():
            if workload in workloads and self.calls[stem] == 0:
                found.append(f"{stem} recorded no call on {workload}")
        if workload in NO_SOLVE and self.calls["fekete.solve_fekete"]:
            found.append(f"fekete.solve_fekete ran "
                         f"{self.calls['fekete.solve_fekete']} times "
                         f"on {workload}")
        hits = self.counts["cli.cache_hits"]
        misses = self.counts["cli.cache_misses"]
        if workload == "replay-warm" and (misses or not hits):
            found.append(f"replay-warm cache: {hits:g} hits, {misses:g} misses")
        if workload == "solve-cold" and (hits or not misses):
            found.append(f"solve-cold cache: {hits:g} hits, {misses:g} misses")
        return found

    def write(self, path):
        """Write the kept spans as JSON lines, times relative to the first."""
        t0 = min((span[3] for span in self.spans), default=0.0)
        with open(path, "w") as f:
            for sid, parent, name, start, end, request in sorted(self.spans):
                f.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                    "start": start - t0, "end": end - t0,
                                    "request": request}) + "\n")
