"""In-process spans around every public focklab function, and layer metrics.

``Tracer.installed`` replaces each public function of every focklab module by
a timing wrapper in every namespace that binds it: the defining module, the
modules that imported it by name (``cli`` and ``lattice`` hold their own
``build_from_measure``) and ``cli.SUBCOMMANDS``.  A span is named after the
defining module and the function (``toeplitz.basis_matrix``) whichever
binding was called.  Self time is a span's duration minus the durations of
the traced spans it opened; busy time counts only the outermost span of a
name, so a function reached again through its own callees is not counted
twice.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
import types
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("numerics", "fock", "measure", "toeplitz", "lattice",
           "counterexample", "cli")


class Tracer:
    def __init__(self):
        self.spans = []  # (report, span id, parent id, name, start, end, self)
        self.counts = defaultdict(int)
        self._stack = []  # [span id, name, start, child seconds]
        self._active = defaultdict(int)
        self._report = None
        self._seen_grids = set()
        self._seen_svd = set()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans) + len(self._stack)
            frame = [span_id, name, time.perf_counter(), 0.0]
            parent = self._stack[-1][0] if self._stack else None
            self._stack.append(frame)
            self._active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._active[name] -= 1
                self._stack.pop()
                duration = end - frame[2]
                if self._stack:
                    self._stack[-1][3] += duration
                self.spans.append((self._report, span_id, parent, name,
                                   frame[2], end, duration - frame[3],
                                   self._active[name] == 0))
            self._count(name, args, kwargs, result)
            return result
        return traced

    def _count(self, name, args, kwargs, result):
        self.counts[f"{name}.calls"] += 1
        if name == "toeplitz.basis_matrix":
            self.counts["toeplitz.basis_matrix.samples"] += int(result.size)
        elif name == "fock.eval_log":
            f = args[0] if args else kwargs["f"]
            self.counts["fock.eval_log.terms"] += (int(f.log_mags.size)
                                                   * int(result[0].size))
        elif name == "lattice.lattice_partition":
            self.counts["lattice.lattice_partition.cells"] += len(result.cells)
        elif name == "numerics.polar_grid":
            key = (args, tuple(sorted(kwargs.items())))
            if key in self._seen_grids:
                self.counts["numerics.polar_grid.repeats"] += 1
            self._seen_grids.add(key)
        elif name == "toeplitz.singular_values":
            op = args[0] if args else kwargs["op"]
            digest = hashlib.blake2b(op.entries.tobytes(),
                                     digest_size=16).digest()
            if digest in self._seen_svd:
                self.counts["toeplitz.singular_values.repeats"] += 1
            self._seen_svd.add(digest)

    @contextmanager
    def installed(self, package):
        """Wrap focklab's public functions for the duration of the block."""
        modules = [getattr(package, name) for name in MODULES]
        wrappers = {}
        for module in modules:
            for value in vars(module).values():
                if (isinstance(value, types.FunctionType)
                        and value.__module__.startswith("focklab.")
                        and not value.__name__.startswith("_")):
                    short = value.__module__.rsplit(".", 1)[-1]
                    wrappers.setdefault(
                        value, self._wrap(value, f"{short}.{value.__name__}"))
        namespaces = [vars(m) for m in modules] + [package.cli.SUBCOMMANDS]
        saved = []
        for space in namespaces:
            for key, value in list(space.items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    saved.append((space, key, value))
                    space[key] = wrappers[value]
        try:
            yield
        finally:
            for space, key, value in saved:
                space[key] = value

    @contextmanager
    def report(self, report_id):
        """Attribute spans to one report; repeats are judged per report."""
        self._report = report_id
        self._seen_grids.clear()
        self._seen_svd.clear()
        try:
            yield
        finally:
            self._report = None

    # -- results ----------------------------------------------------------

    def per_function(self) -> dict[str, dict[str, float]]:
        """Calls, busy seconds and self seconds for every traced name."""
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for _, _, _, name, start, end, self_s, outermost in self.spans:
            row = out[name]
            row["calls"] += 1
            row["self_s"] += self_s
            if outermost:
                row["busy_s"] += end - start
        return dict(out)

    def write_spans(self, path):
        names = ("report", "span", "parent", "name", "start", "end", "self_s")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(names, span[:7]))) + "\n")


def layer_metrics(tracer: Tracer, compute_s: float, untraced_s: float,
                  report_bytes: int, reports_changed: int) -> dict:
    """The per-layer metrics, named as in BENCHMARK.json, with their units."""
    fn = tracer.per_function()
    counts = tracer.counts

    def get(name, key):
        return fn.get(name, {}).get(key, 0)

    def share(repeats, calls):
        return counts[repeats] / counts[calls] if counts[calls] else 0.0

    samples = counts["toeplitz.basis_matrix.samples"]
    values = {
        "trace.overhead_frac": (compute_s / untraced_s - 1.0, "ratio"),
        "cli.parse_config.busy_s": (get("cli.parse_config", "busy_s"), "s"),
        "cli.render.busy_s": (get("cli.render_json", "busy_s")
                              + get("cli.render_csv", "busy_s"), "s"),
        "cli.run_subcommand.self_s": (get("cli.run_subcommand", "self_s"),
                                      "s"),
        "cli.report_bytes": (report_bytes, "bytes"),
        "cli.reports_changed": (reports_changed, "count"),
        "toeplitz.basis_matrix.busy_s": (get("toeplitz.basis_matrix",
                                             "busy_s"), "s"),
        "toeplitz.basis_matrix.samples": (samples, "count"),
        "toeplitz.basis_matrix.bytes": (16 * samples, "bytes"),
        "toeplitz.build_from_density.self_s": (
            get("toeplitz.build_from_density", "self_s"), "s"),
        "toeplitz.build_hankel.self_s": (get("toeplitz.build_hankel",
                                             "self_s"), "s"),
        "toeplitz.build_from_point_masses.self_s": (
            get("toeplitz.build_from_point_masses", "self_s"), "s"),
        "toeplitz.build_from_radial_density.busy_s": (
            get("toeplitz.build_from_radial_density", "busy_s"), "s"),
        "toeplitz.transform.self_s": (
            sum(get(f"toeplitz.{name}", "self_s")
                for name in ("trace_via_berezin", "transform_l1_norm",
                             "berezin_operator")), "s"),
        "toeplitz.svd.busy_s": (get("toeplitz.singular_values", "busy_s"),
                                "s"),
        "toeplitz.svd.calls": (counts["toeplitz.singular_values.calls"],
                               "count"),
        "toeplitz.svd.repeat_frac": (
            share("toeplitz.singular_values.repeats",
                  "toeplitz.singular_values.calls"), "ratio"),
        "measure.berezin_measure.busy_s": (get("measure.berezin_measure",
                                               "busy_s"), "s"),
        "measure.berezin_lr_norm.self_s": (get("measure.berezin_lr_norm",
                                               "self_s"), "s"),
        "measure.density_values.busy_s": (get("measure.density_values",
                                              "busy_s"), "s"),
        "measure.disk_cell_area.calls": (counts["measure.disk_cell_area.calls"],
                                         "count"),
        "lattice.lattice_partition.self_s": (get("lattice.lattice_partition",
                                                 "self_s"), "s"),
        "lattice.lattice_partition.cells": (
            counts["lattice.lattice_partition.cells"], "count"),
        "lattice.lattice_operator.self_s": (get("lattice.lattice_operator",
                                                "self_s"), "s"),
        "lattice.rigidity_experiment.self_s": (
            get("lattice.rigidity_experiment", "self_s"), "s"),
        "fock.eval_log.busy_s": (get("fock.eval_log", "busy_s"), "s"),
        "fock.eval_log.terms": (counts["fock.eval_log.terms"], "count"),
        "fock.norm.calls": (counts["fock.norm.calls"], "count"),
        "numerics.polar_grid.busy_s": (get("numerics.polar_grid", "busy_s"),
                                       "s"),
        "numerics.polar_grid.calls": (counts["numerics.polar_grid.calls"],
                                      "count"),
        "numerics.polar_grid.repeat_frac": (
            share("numerics.polar_grid.repeats", "numerics.polar_grid.calls"),
            "ratio"),
        "counterexample.full_report.busy_s": (
            get("counterexample.full_report", "busy_s"), "s"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}
