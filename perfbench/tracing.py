"""Timing wrappers installed at run time around the package's public calls.

Nothing in the package is edited: a Tracer replaces module attributes and
class methods with wrappers and puts the originals back on uninstall().  A
function is replaced in its defining module and at every import site in the
package (``experiments`` binds names via ``from .maximal import ...``).

Each call becomes a span with a name, start, end, parent span and op id,
kept in flat arrays and written out at the end.  Calls, total time and self
time (span time minus the time its child spans cover) are summed as the
spans close, and counters record the work named in each call's arguments
and results.
"""

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

SPAN_CAP = 3_000_000  # spans kept for the span file; totals count them all


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _rows(points) -> int:
    shape = np.shape(points)
    return int(shape[0]) if len(shape) == 2 else 1


def _nodes(measure) -> int:
    pts = getattr(measure, "quad_points", None)
    return 0 if pts is None else len(pts)


# (span name, module, attribute, counters); a dotted attribute is a method.
# A counter maps (args, kwargs, result) to {counter suffix: amount}.
TARGETS = (
    ("dilation.power", "dilation", "DilationStructure.power", None),
    ("dilation.cube_diameter", "dilation", "cube_diameter", None),
    ("grid.parallelepiped_contains", "grid", "Parallelepiped.contains_points",
     lambda a, k, r: {"points": _rows(_arg(a, k, 1, "points"))}),
    ("grid.tendril_contains", "grid", "TendrilBound.contains_points",
     lambda a, k, r: {"points": _rows(_arg(a, k, 1, "points"))}),
    ("atoms.evaluate", "atoms", "Atom.evaluate",
     lambda a, k, r: {"points": _rows(_arg(a, k, 1, "points"))}),
    ("decomposition.whitney_decompose", "decomposition", "whitney_decompose",
     lambda a, k, r: {"selected": len(r.selected)}),
    ("decomposition.verify_whitney", "decomposition", "verify_whitney", None),
    ("decomposition.stopping_time", "decomposition", "stopping_time",
     lambda a, k, r: {"primitives": len(r.exceptional),
                      "trace_events": len(r.trace)}),
    ("decomposition.verify_stopping", "decomposition", "verify_stopping",
     lambda a, k, r: {"rejected": int(not r.passed)}),
    ("decomposition.exceptional_contains", "decomposition",
     "ExceptionalPrimitive.contains_points",
     lambda a, k, r: {"points": _rows(_arg(a, k, 1, "points"))}),
    ("surface.gaussian_curvature", "surface", "gaussian_curvature", None),
    ("surface.surface_quadrature", "surface", "surface_quadrature", None),
    ("surface.partition_measure", "surface", "partition_measure",
     lambda a, k, r: {"pieces": len(r)}),
    ("surface.classify_pieces", "surface", "classify_pieces",
     lambda a, k, r: {"pieces": len(r),
                      "excluded": sum(1 for c in r if c.in_I1 or c.in_I2)}),
    ("surface.excluded_piece_growth", "surface", "excluded_piece_growth", None),
    ("maximal.convolve_dilated", "maximal", "convolve_dilated",
     lambda a, k, r: {
         "cells": int(np.prod(_arg(a, k, 3, "lattice").shape)),
         "node_pairs": len(_arg(a, k, 0, "f").terms)
         * _nodes(_arg(a, k, 1, "measure"))}),
    ("maximal.maximal_field", "maximal", "maximal_field",
     lambda a, k, r: {"k_values": r.provenance["k_range"][1]
                      - r.provenance["k_range"][0] + 1}),
    ("maximal.distribution_function", "maximal", "distribution_function",
     lambda a, k, r: {"primitives": len(_arg(a, k, 3, "exclude") or ())}),
    ("experiments.run_experiment", "experiments", "run_experiment", None),
    ("config.load_config", "config", "load_config", None),
)


class Tracer:
    """Spans and per-name totals for the calls in TARGETS."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.calls = [0] * len(self.names)
        self.total = [0.0] * len(self.names)
        self.self_time = [0.0] * len(self.names)
        self.counters = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.dropped = 0
        self.op_id = -1
        self.enabled = True
        self._stack = []
        self._saved = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        for nid, (name, mod_name, attr, counter) in enumerate(TARGETS):
            module = importlib.import_module(f"anisomax.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._replace(cls, meth, self._wrap(nid, original, counter))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(nid, original, counter)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("anisomax"):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def _replace(self, owner, key, new) -> None:
        self._saved.append((owner, key, vars(owner)[key]))
        setattr(owner, key, new)

    def _wrap(self, nid, fn, counter):
        name = self.names[nid]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(self.span_start)
            keep = sid < SPAN_CAP
            if keep:
                self.span_name.append(nid)
                self.span_parent.append(stack[-1][0] if stack else -1)
                self.span_op.append(self.op_id)
                self.span_end.append(float("nan"))
                self.span_start.append(0.0)
            else:
                self.dropped += 1
            frame = [sid if keep else -1, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self.calls[nid] += 1
                self.total[nid] += dur
                self.self_time[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if keep:
                    self.span_start[sid] = t0
                    self.span_end[sid] = t1
            if counter is not None:
                for suffix, amount in counter(args, kwargs, result).items():
                    key = f"{name}.{suffix}"
                    self.counters[key] = self.counters.get(key, 0) + amount
            return result

        return traced

    # ------------------------------------------------------------ results

    def stats(self, name: str):
        """(calls, total seconds, self seconds) summed over all spans."""
        nid = self.names.index(name)
        return self.calls[nid], self.total[nid], self.self_time[nid]

    def write(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.span_name, np.int32),
            start=np.frombuffer(self.span_start), end=np.frombuffer(self.span_end),
            parent=np.frombuffer(self.span_parent, np.int32),
            op=np.frombuffer(self.span_op, np.int32), dropped=self.dropped)
