"""Spans around poissonsub's public functions, installed from outside.

``Tracer.install`` replaces each public function of the layer modules, and
each public ``IteratedLaw`` method, with a wrapper that records a span.  A
name is replaced in every poissonsub namespace that binds it: ``iterated``
calls its own binding of ``log_bell_series`` and ``crossing`` its own
``bell_poly``.  ``uninstall`` puts the originals back.

A span's self time is its duration minus the time of the spans it caused.
Spans stay in memory (up to ``keep`` of them) and are written out at the end.
"""

from __future__ import annotations

import inspect
import os
import time
from array import array

import numpy as np

LAYERS = ("special", "iterated", "cpp", "crossing", "mc", "cli")
# cli's work happens in its private helpers, reached through main()
CLI_NAMES = ("main", "_write_table")


class _Stat:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class CountingRng:
    """Forwards to a numpy Generator and counts the variates it returns."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr

        def call(*a, **kw):
            out = attr(*a, **kw)
            self._tracer.draws += int(np.size(out))
            return out

        return call


class Tracer:
    def __init__(self, ps, keep: int = 200_000):
        self.ps = ps
        self.stats: dict[str, _Stat] = {}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self.keep = keep
        # compact span log: name id, parent index, start, end
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []
        self.dropped = 0
        # counts taken at the same boundaries
        self.states = 0
        self.grid_points = 0
        self.mixture_cells = 0
        self.table_rows = 0
        self.rows_written = 0
        self.bytes_written = 0
        self.draws = 0
        self.pmf_keys: set = set()
        self._last_states = 0

    # -- installation ----------------------------------------------------------

    def _targets(self):
        """(label, owner, attribute, original) for every function to wrap."""
        ps = self.ps
        out = []
        for layer in LAYERS:
            mod = getattr(ps, layer)
            for name, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if layer == "cli" and name not in CLI_NAMES:
                    continue
                if layer != "cli" and name.startswith("_"):
                    continue
                out.append((f"{layer}.{name}", mod, name, obj))
        for name, obj in vars(ps.IteratedLaw).items():
            if inspect.isfunction(obj) and not name.startswith("_"):
                out.append((f"iterated.{name}", ps.IteratedLaw, name, obj))
        return out

    def install(self):
        modules = [m for m in (getattr(self.ps, n, None) for n in dir(self.ps))
                   if inspect.ismodule(m) and m.__name__.startswith(self.ps.__name__)]
        modules.append(self.ps)
        for label, owner, name, orig in self._targets():
            wrapper = self._wrap(label, orig)
            self._patch(owner, name, wrapper)
            if owner is self.ps.IteratedLaw:
                continue
            for mod in modules:  # re-bindings made by "from .x import name"
                if mod is not owner and vars(mod).get(name) is orig:
                    self._patch(mod, name, wrapper)

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def uninstall(self):
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()

    # -- spans -----------------------------------------------------------------

    def _wrap(self, label, fn):
        stat = self.stats.setdefault(label, _Stat())
        sid = self._ids.setdefault(label, len(self.names))
        if sid == len(self.names):
            self.names.append(label)
        after = self._after.get(label)
        stack = self._stack
        opened = self._open
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = -1
            if len(tracer.span_start) < tracer.keep:
                idx = len(tracer.span_start)
                tracer.span_name.append(sid)
                tracer.span_parent.append(opened[-1] if opened else -1)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
            else:
                tracer.dropped += 1
            opened.append(idx)
            stack.append(0.0)
            t0 = perf()
            if idx >= 0:
                tracer.span_start[idx] = t0
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                child = stack.pop()
                opened.pop()
                if idx >= 0:
                    tracer.span_end[idx] = t1
                stat.calls += 1
                stat.total += dt
                stat.self += dt - child
                if stack:
                    stack[-1] += dt
            if after is not None:
                out = after(tracer, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # per-function counters, run after the call returns

    def _after_pmf_vector(self, args, out):
        self.states += len(out)
        self._last_states = len(out)
        return out

    def _after_pmf(self, args, out):
        law, n, t = args[0], args[1], args[2]
        self.pmf_keys.add((law.params.lam, law.params.mu, int(n), float(t)))
        return out

    def _after_grid(self, args, out):
        z = np.asarray(args[0])
        self.grid_points += z.size
        self.mixture_cells += self._last_states * z.size
        return out

    def _after_avoiding(self, args, out):
        self.table_rows += len(out.rows)
        return out

    def _after_write(self, args, out):
        rows, _meta, cli_args = args[0], args[1], args[2]
        self.rows_written += len(rows)
        if cli_args.output is not None and os.path.exists(cli_args.output):
            self.bytes_written += os.path.getsize(cli_args.output)
        return out

    def _after_rng(self, args, out):
        return CountingRng(out, self)

    _after = {
        "iterated.pmf_vector": _after_pmf_vector,
        "iterated.pmf": _after_pmf,
        "cpp.cpp_cdf_Z_grid": _after_grid,
        "cpp.cpp_density_Z_grid": _after_grid,
        "cpp.exp_jump_density_grid": _after_grid,
        "crossing.avoiding_table": _after_avoiding,
        "cli._write_table": _after_write,
        "mc.make_rng": _after_rng,
    }

    # -- results ---------------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        return sum(s.self for k, s in self.stats.items() if k.split(".")[0] == layer)

    def calls(self, label: str) -> int:
        return self.stats[label].calls if label in self.stats else 0

    def self_s(self, label: str) -> float:
        return self.stats[label].self if label in self.stats else 0.0

    def write_spans(self, path: str) -> None:
        """One line per kept span: name, parent index, start, end (seconds)."""
        with open(path, "w") as fh:
            fh.write("index,name,parent,start_s,end_s\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i},{self.names[self.span_name[i]]},{self.span_parent[i]},"
                         f"{self.span_start[i]:.9f},{self.span_end[i]:.9f}\n")
