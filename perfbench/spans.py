"""Spans around the public functions of each freelip layer, recorded from outside the program.

A layer is a module under ``src/freelip``.  The tracer wraps the functions
listed in ``WRAPPED`` and patches every module namespace that bound them:
``from .norms import norm_certificate`` gives ``extremal``, ``checks`` and
``cli`` their own reference, so patching ``norms`` alone would miss their
calls.  Each call records one span (name, start, end, parent, op id); spans
stay in memory and are written out once, when the run ends.  Originals are
restored when the ``patched`` block exits, so output checks run untraced.

Time a layer spends in helpers that are not wrapped is counted as self time
of the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

CHECKS = (
    "molecule_norms",
    "exposedness",
    "normer_support",
    "positive_ball",
    "positive_facts",
    "weighting",
    "intersection",
    "mcshane",
    "almost_positive",
    "molecule_function",
    "support_routes",
)
ORACLES = (
    "positive_ball_vertices_bruteforce",
    "extreme_molecules_bruteforce",
    "is_extreme_in_ball_bruteforce",
)
GENERATORS = (
    "random_space",
    "random_line_subset",
    "uniform_space",
    "random_corpus",
    "random_subset",
    "random_positive_element",
    "random_element",
    "random_lip0",
    "random_weight",
)

# layer -> wrapped functions ("Class.method" patches the class attribute)
WRAPPED = {
    "metric": ("validate_space", "PointedMetricSpace.segment"),
    "elements": ("canonicalize",),
    "functions": ("mcshane_extend", "lip_constant", "weight_element"),
    # lp.minimize calls lp.maximize through the module global, so wrapping
    # maximize alone counts every solve exactly once
    "lp": ("maximize",),
    "norms": (
        "free_norm_dual",
        "free_norm_primal",
        "norm_certificate",
        "positive_norm",
        "norming_face",
        "normers_of",
    ),
    "extremal": (
        "classify_molecule",
        "maximize_extended_pairing",
        "almost_positive_witness",
        "split_positive",
        "positive_ball_extremes",
    ),
    "checks": tuple("check_" + c for c in CHECKS) + ORACLES,
    "fileio": ("load_space", "load_element", "load_function", "machine_dumps"),
    "generators": GENERATORS,
}
LAYERS = tuple(WRAPPED) + ("cli",)


def group_of(name: str) -> str:
    """Metric key a span's time is reported under (``layer.function`` by default)."""
    layer, func = name.split(".", 1)
    if layer == "lp":
        return "lp"
    if layer == "generators":
        return "generators"
    if layer == "checks":
        return "checks.oracle" if func in ORACLES else "checks." + func[len("check_"):]
    if layer == "fileio":
        return "fileio.dump" if func == "machine_dumps" else "fileio.load"
    if func == "PointedMetricSpace.segment":
        return "metric.segment"
    return name


def lp_cells(c, rows, free) -> int:
    """Tableau cells of the dense simplex, computed from the argument sizes.

    Columns: one per bounded variable, two per free variable, one slack per
    inequality, one artificial per row that has no basic slack; rows: one
    per constraint.  This mirrors ``lp._Simplex._build`` without running it.
    """
    free = set(free)
    ncols = len(c) + sum(1 for j in range(len(c)) if j in free)
    for _, rel, rhs in rows:
        if rel == "==":
            ncols += 1
        else:
            nonneg = rhs >= 0 if rel == "<=" else rhs <= 0
            ncols += 1 if nonneg else 2
    return len(rows) * ncols


class Tracer:
    """In-memory span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        # 1 when no span of the same metric group is open around this one,
        # so inclusive times never count a nested call twice
        self.outer = array("b")
        self.stack: list[int] = []
        self.depth: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.current_op = -1

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        group = group_of(name)
        i = len(self.start)
        self.name_id.append(self._intern(name))
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.outer.append(1 if self.depth[group] == 0 else 0)
        self.depth[group] += 1
        self.stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()
        self.depth[group_of(self.names[self.name_id[i]])] -= 1

    def call(self, name: str, fn, *args, **kwargs):
        i = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(i)

    def merge(self, spans: dict, parent: int) -> None:
        """Adopt spans written by a traced child process under span ``parent``."""
        offset = len(self.start)
        for name_id, start, end, par, _, outer in spans["spans"]:
            self.name_id.append(self._intern(spans["names"][name_id]))
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent if par < 0 else par + offset)
            self.op.append(self.current_op)
            self.outer.append(outer)
        for key, value in spans["counters"].items():
            self.counters[key] += value

    def dump(self) -> dict:
        return {
            "names": self.names,
            "fields": ["name", "start", "end", "parent", "op", "outer"],
            "spans": [
                [self.name_id[i], self.start[i], self.end[i], self.parent[i], self.op[i], self.outer[i]]
                for i in range(len(self.start))
            ],
            "counters": dict(self.counters),
        }

    # -- patching ---------------------------------------------------------

    def _hooks(self, name: str):
        """(before, after) callbacks that record counters for one wrapped function."""
        counters = self.counters
        if name == "lp.maximize":

            def before(c, rows, free=()):
                rows, free = list(rows), list(free)
                counters["lp.cells"] += lp_cells(c, rows, free)
                if self.depth["norms.normers_of"]:
                    counters["norms.normers_of.lp"] += 1
                if self.depth["checks.oracle"]:
                    counters["checks.oracle.lp_solves"] += 1
                return (c, rows, free), {}

            def after(result):
                if result.status != "optimal":
                    counters["lp.non_optimal"] += 1

            return before, after
        if name == "norms.normers_of":

            def after(report):
                counters["norms.normers_of.useful"] += len(report.fixed_values) + len(
                    report.shared_tight_pairs
                )

            return None, after
        if name == "extremal.almost_positive_witness":

            def after(witness):
                counters["extremal.witness_found"] += witness is not None

            return None, after
        if name.startswith("checks.check_"):
            key = group_of(name) + ".cases"

            def after(result):
                counters[key] += result.cases

            return None, after
        if name.startswith("fileio.load_"):

            def before(path, *args, **kwargs):
                counters["fileio.bytes_read"] += os.path.getsize(path)
                return (path,) + args, kwargs

            return before, None
        if name == "fileio.machine_dumps":

            def after(text):
                counters["fileio.bytes_written"] += len(text.encode())

            return None, after
        return None, None

    def wrap(self, name: str, fn):
        before, after = self._hooks(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(*args, **kwargs)
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if after is not None:
                after(result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Wrap every function in ``WRAPPED`` wherever freelip bound it."""
        homes = {layer: importlib.import_module("freelip." + layer) for layer in WRAPPED}
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "freelip" or key.startswith("freelip."))
        ]
        restore = []
        try:
            for layer, funcs in WRAPPED.items():
                home = homes[layer]
                for func in funcs:
                    name = layer + "." + func
                    if "." in func:
                        cls_name, attr = func.split(".")
                        cls = getattr(home, cls_name)
                        original = cls.__dict__[attr]
                        restore.append((cls, attr, original))
                        setattr(cls, attr, self.wrap(name, original))
                        continue
                    original = getattr(home, func)
                    traced = self.wrap(name, original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                restore.append((mod, attr, original))
                                setattr(mod, attr, traced)
            yield self
        finally:
            for target, attr, original in reversed(restore):
                setattr(target, attr, original)


def self_times(names, name_id, durations, parent) -> dict[str, float]:
    """Per layer: span time minus the part of it that child spans cover.

    Spans of one process never overlap their siblings, so the covered part
    of a span is the sum of its direct children's durations.
    """
    covered = [0.0] * len(durations)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += durations[i]
    out: dict[str, float] = defaultdict(float)
    for i, dur in enumerate(durations):
        out[names[name_id[i]].split(".", 1)[0]] += dur - covered[i]
    return out


def summarize(tracer: Tracer, duration=lambda a, b: b - a):
    """(calls per group, inclusive seconds per group, self seconds per layer).

    ``duration(start, end)`` turns a span into seconds; the benchmark passes
    its yardstick-scaled clock.
    """
    durations = [duration(a, b) for a, b in zip(tracer.start, tracer.end)]
    calls: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    for i, dur in enumerate(durations):
        group = group_of(tracer.names[tracer.name_id[i]])
        calls[group] += 1
        if tracer.outer[i]:
            inclusive[group] += dur
    selfs = self_times(tracer.names, tracer.name_id, durations, tracer.parent)
    return calls, inclusive, selfs
