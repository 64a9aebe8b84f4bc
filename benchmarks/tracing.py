"""Span tracer that times calls into airfed from outside the package.

``install`` replaces each traced function with a wrapper that records a
span (name, start, end, parent span, op id).  It rebinds the module
attribute and every alias of the same function object in any airfed
module (``from .rng import derived_rng`` and the like), so calls made
inside the package are timed too.  Nothing under ``src/`` changes.

Spans stay in memory in flat lists and are summarised, and optionally
saved, when the run ends.  A layer's self time is its span duration minus
the time covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

import numpy as np

from layers import ALLOC_TRACKED, P50_REPORTED, qualnames

SETUP_OP = -1


class Tracer:
    """Spans in flat lists (one entry per span), plus per-function extras."""

    def __init__(self):
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self.op = []
        self.name = []
        self.stack = []
        self.op_id = SETUP_OP
        self.paused = False
        self.extras = {}
        self._alloc_frames = []

    def add_extra(self, qualname: str, key: str, value) -> None:
        self.extras.setdefault(qualname, {}).setdefault(key, []).append(value)

    def wrap(self, qualname: str, fn, on_return=None):
        nid = len(self.names)
        self.names.append(qualname)
        starts, ends, parents, ops, names, stack = (
            self.start, self.end, self.parent, self.op, self.name, self.stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            names.append(nid)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(self, args, result)
            return result

        if qualname in ALLOC_TRACKED:
            return self._track_alloc(qualname, traced)
        return traced

    def _track_alloc(self, qualname: str, fn):
        """Record the peak bytes traced while ``fn`` runs, above its entry level.

        Nested tracked calls reset the tracemalloc peak; each open frame keeps
        the peak it saw before the reset so the outer figure stays correct.
        """
        frames = self._alloc_frames

        @functools.wraps(fn)
        def tracked(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            outer = not tracemalloc.is_tracing()
            if outer:
                tracemalloc.start()
            elif frames:
                frames[-1][1] = max(frames[-1][1], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            frame = [tracemalloc.get_traced_memory()[0], 0]
            frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                frames.pop()
                peak = max(frame[1], tracemalloc.get_traced_memory()[1])
                self.add_extra(qualname, "peak_alloc_bytes", peak - frame[0])
                if outer:
                    tracemalloc.stop()

        return tracked

    # -- summaries ---------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "op": np.asarray(self.op, dtype=np.int64),
            "name": np.asarray(self.name, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.asarray(self.names), **self.arrays())

    def summary(self, op_walls: dict) -> dict:
        """Per-function calls/self time/extras, plus span coverage of op wall."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        parent, name = a["parent"], a["name"]
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_time = dur - child_time
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        self_s = np.bincount(name, weights=self_time, minlength=n_names)
        functions = {}
        for nid, qualname in enumerate(self.names):
            row = {"calls": int(calls[nid]), "self_s": float(self_s[nid])}
            if qualname in P50_REPORTED and calls[nid]:
                row["p50_ms"] = float(np.median(dur[name == nid])) * 1e3
            extras = self.extras.get(qualname, {})
            if "peak_alloc_bytes" in extras:
                row["peak_alloc_mb"] = max(extras["peak_alloc_bytes"]) / 1e6
            if "bytes_in_computed" in extras:
                row["bytes_in_computed"] = max(extras["bytes_in_computed"])
            if "delivered" in extras:
                row["delivered_frac"] = float(np.mean(extras["delivered"]))
            if "checks_failed" in extras:
                row["checks_failed"] = int(sum(extras["checks_failed"]))
            functions[qualname] = row

        top = (parent == -1) & np.isin(a["op"], list(op_walls))
        wall = sum(op_walls.values())
        return {
            "functions": functions,
            "spans": int(dur.size),
            "coverage_frac": float(dur[top].sum() / wall) if wall > 0 else float("nan"),
        }


def _baa_extras(tracer: Tracer, args, result) -> None:
    k, q = np.shape(args[0])
    tracer.add_extra("phy.baa_round", "bytes_in_computed", k * q * 8)
    tracer.add_extra("phy.baa_round", "delivered", 1.0 - float(np.mean(result[1].truncation_fraction)))


def _montecarlo_extras(tracer: Tracer, args, result) -> None:
    tracer.add_extra("cli.montecarlo_rows", "checks_failed", sum(row[-1] != "pass" for row in result))


ON_RETURN = {"phy.baa_round": _baa_extras, "cli.montecarlo_rows": _montecarlo_extras}


def install(tracer: Tracer, package: str = "airfed") -> None:
    """Rebind every traced function (and all its aliases) in ``package``."""
    modules = [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]
    for qualname in qualnames():
        module_name, _, attr = qualname.partition(".")
        module = sys.modules[f"{package}.{module_name}"]
        on_return = ON_RETURN.get(qualname)
        if "." in attr:
            owner_name, _, method = attr.partition(".")
            owner = getattr(module, owner_name)
            setattr(owner, method, tracer.wrap(qualname, owner.__dict__[method], on_return))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(qualname, original, on_return)
        for mod in modules:
            for alias, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, alias, wrapped)
