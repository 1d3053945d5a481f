"""Per-layer spans recorded from outside pcflab.

``Tracer.install`` replaces every public function of the listed pcflab
modules with a wrapper that records a span around the call.  Calls inside
a module resolve through its globals, so they are caught as well; only
functions bound by ``from x import f`` elsewhere would escape, and pcflab
imports none.  ``mpmath.polyroots`` is wrapped where ``numeric`` calls it,
through a copy of the mpmath namespace installed as ``numeric.mpmath``.

Spans are kept in memory as ``(name, start_ns, end_ns, parent)`` and
written out by ``write``.  Self time is a span's duration minus the
durations of its direct children; total time counts only the outermost
span of a recursive function, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import types

MODULES = ("poly", "numeric", "projmap", "pcf", "periodic", "fatou", "cli")


class Stats:
    __slots__ = ("calls", "failed", "self_ns", "total_ns", "depth", "items")

    def __init__(self):
        self.calls = self.failed = self.self_ns = self.total_ns = 0
        self.depth = 0
        self.items = 0  # work units the function's hook reported


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = []  # [name index, start_ns, child_ns, span index]
        self.stats = {}
        self.chart_points = 0  # points solve_pair_p2 returned under find_periodic
        self.kept_points = 0  # points find_periodic kept after those solves
        self._restore = []

    def reset_stats(self):
        self.stats = {}
        self.chart_points = self.kept_points = 0

    # -- wrapping ------------------------------------------------------------------

    def install(self, pcflab) -> None:
        import mpmath

        for modname in MODULES:
            module = getattr(pcflab, modname)
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                self._patch(module, attr, self._wrap(f"{modname}.{attr}", fn))
        proxy = types.ModuleType("mpmath")
        proxy.__dict__.update(vars(mpmath))
        proxy.polyroots = self._wrap("mpmath.polyroots", mpmath.polyroots)
        self._patch(pcflab.numeric, "mpmath", proxy)

    def uninstall(self) -> None:
        for module, attr, old in reversed(self._restore):
            setattr(module, attr, old)
        self._restore = []

    def _patch(self, module, attr, new) -> None:
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        hook = _HOOKS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats = self.stats.get(name)
            if stats is None:
                stats = self.stats[name] = Stats()
            frame = [index, 0, 0, len(self.spans)]
            self.spans.append(None)
            self.stack.append(frame)
            stats.depth += 1
            ok = False
            marker = self.chart_points
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                self.stack.pop()
                stats.depth -= 1
                dur = end - frame[1]
                parent = self.stack[-1] if self.stack else None
                if parent is not None:
                    parent[2] += dur
                self.spans[frame[3]] = (index, frame[1], end,
                                        parent[3] if parent is not None else -1)
                stats.calls += 1
                stats.self_ns += dur - frame[2]
                if stats.depth == 0:
                    stats.total_ns += dur
                if not ok:
                    stats.failed += 1
            if hook is not None:
                hook(self, stats, args, result, marker)
            return result

        return wrapper

    # -- results ---------------------------------------------------------------------

    def metric(self, name: str) -> float:
        """Value of a per-layer metric named ``<module>.<function>.<stat>``."""
        if name == "periodic.chart_candidates_per_point":
            return self.chart_points / self.kept_points if self.kept_points else 0.0
        func, _, stat = name.rpartition(".")
        s = self.stats.get(func) or Stats()
        if stat == "calls":
            return s.calls
        if stat == "failed":
            return s.failed
        if stat == "self_s":
            return s.self_ns / 1e9
        if stat == "total_s":
            return s.total_ns / 1e9
        if stat == "pixels_per_s":
            return s.items / (s.total_ns / 1e9) if s.total_ns else 0.0
        raise KeyError(name)

    def write(self, path) -> None:
        """All spans recorded so far, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")


def _solve_pair_hook(tracer, stats, args, result, marker):
    if tracer.stats.get("periodic.find_periodic", Stats()).depth:
        tracer.chart_points += len(result[0])


def _find_periodic_hook(tracer, stats, args, result, marker):
    if tracer.chart_points != marker:
        tracer.kept_points += len(result)


def _scan_hook(tracer, stats, args, result, marker):
    stats.items += args[1].resolution ** 2


_HOOKS = {
    "numeric.solve_pair_p2": _solve_pair_hook,
    "periodic.find_periodic": _find_periodic_hook,
    "fatou.scan": _scan_hook,
}
