"""Spans around the public functions of every cursedeq module.

The tracer wraps functions from outside the program: each public function
of a module, plus a few named internals (the homotopy solve loop, the limit
oracle, scipy's ``root`` and the signal sampler), is replaced by a wrapper
in every cursedeq namespace that holds it, because modules import with
``from .x import f``.  Each call records a span (name, start, end, parent)
in memory; spans are written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

MODULES = ("tree", "partition", "games", "gamefile", "conjectures", "bestresponse",
           "solvers", "bayesian", "golden", "auctions")


def _sized(result):
    return len(result)


def _iterations(result):
    return result.iterations


def _found(result):
    return 0 if result is None else 1


def _cells(result):
    return len(result.cells)


def _drawn(result):
    return len(result[0])


# extra work counts recorded at a span's end: span name -> (counter, measure)
COUNTERS = {
    "tree.node_reach": ("tree.node_reach.nodes", _sized),
    "conjectures.tremble_path": ("conjectures.tremble_path.profiles", _sized),
    "solvers.solve": ("solvers.iterations", _iterations),
    "solvers.enumerate_support_equilibrium": ("solvers.support_enumeration.results", _found),
    "golden.prices_predictions": ("golden.cells", _cells),
    "golden.voting_predictions": ("golden.cells", _cells),
    "auctions.SignalModel.sample": ("auctions.samples", _drawn),
    "auctions.clearing_prices": ("auctions.clearing_prices.rows", _sized),
}

# private or foreign callables traced under a public name: (module, attribute path, span)
NAMED = (
    ("solvers", "_solve", "solvers.solve"),
    ("solvers", "LimitOracle.artifacts", "solvers.LimitOracle.artifacts"),
    ("auctions", "SignalModel.sample", "auctions.SignalModel.sample"),
)


class Tracer:
    """In-memory span recorder; ``enabled`` is off while outputs are checked.

    Spans live in flat arrays (name id, start, end, parent index), which
    the garbage collector does not scan however many there are.
    """

    def __init__(self):
        self.names = []
        self.name_of = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.counts = defaultdict(int)
        self.enabled = True
        self._stack = [-1]

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        self.names.append(name)
        name_id = len(self.names) - 1

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(self._stack[-1])
            self.end.append(0)
            self._stack.append(idx)
            self.start.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter_ns()
                self._stack.pop()
            if counter is not None:
                self.counts[counter[0]] += counter[1](result)
            return result

        return traced

    def wrap_root(self, fn):
        """scipy's ``root``, named after the cursedeq module that calls it."""
        spans = {}

        @functools.wraps(fn)
        def root(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            name = caller.rsplit(".", 1)[-1] + ".root"
            if name not in spans:
                spans[name] = self.wrap(name, fn)
            return spans[name](*args, **kwargs)

        return root

    def snapshot(self):
        """Span and count totals so far, for splitting set-up from rounds."""
        return len(self.start), dict(self.counts)

    def spans(self, start=0, end=None):
        """(name, start_ns, end_ns, parent index) for the spans in [start, end)."""
        end = len(self.start) if end is None else end
        for i in range(start, end):
            yield self.names[self.name_of[i]], self.start[i], self.end[i], self.parent[i]

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans():
                fh.write(json.dumps(span) + "\n")


def install(tracer: Tracer):
    """Replace every public cursedeq function by its traced wrapper, in
    each cursedeq namespace that refers to it.  Returns an undo callable."""
    import scipy.optimize

    import cursedeq

    mods = {m: sys.modules[f"cursedeq.{m}"] for m in MODULES}
    namespaces = [cursedeq] + list(mods.values())
    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            wrapped = tracer.wrap(f"{short}.{attr}", obj)
            for ns in namespaces:
                if vars(ns).get(attr) is obj:
                    patch(ns, attr, wrapped)
    for short, path, span in NAMED:
        owner = mods[short]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        patch(owner, attr, tracer.wrap(span, vars(owner)[attr]))
    patch(scipy.optimize, "root", tracer.wrap_root(scipy.optimize.root))

    def uninstall():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return uninstall


def layer_totals(tracer, start=0, end=None):
    """Per span name: call count and self time in ms over spans [start, end).

    Self time is a span's duration minus the time its direct children
    cover; children of a span always lie inside it.
    """
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    for name, t0, t1, parent in tracer.spans(start, end):
        calls[name] += 1
        self_ns[name] += t1 - t0
        if parent >= start:
            self_ns[tracer.names[tracer.name_of[parent]]] -= t1 - t0
    return calls, {k: v / 1e6 for k, v in self_ns.items()}
