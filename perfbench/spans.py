"""Spans recorded around the calls one layer makes into another.

Used only by the traced run (``--trace 1``).  ``Tracer.install`` rebinds
the module attributes through which the layers call each other; a name a
later version no longer has is skipped, so its metrics read zero calls.
Spans are kept in memory as (id, parent, op, name, start, end, thread)
tuples and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

# (module path, attribute, span name); the module attribute is what the
# calling layer looks up at call time
WRAPPED = [
    ("sphere2gauss.convergence", "dirichlet_convergence_table", "convergence.table"),
    ("sphere2gauss.convergence", "cap_eigenvalue", "eigensolve.cap"),
    ("sphere2gauss.convergence", "halfline_eigenvalue", "eigensolve.halfline"),
    ("sphere2gauss.eigensolve", "cap_eigenvalue", "eigensolve.cap"),
    ("sphere2gauss.eigensolve", "cap_volume_fraction", "quadrature.volume_fraction"),
    ("sphere2gauss.cli", "nu_of_s", "eigensolve.nu"),
    ("sphere2gauss.harmonics", "projected_eigenspace_dimension", "harmonics.dimension"),
    ("sphere2gauss.harmonics", "build_Q_sphere", "harmonics.build_Q_sphere"),
    ("sphere2gauss.harmonics", "build_P", "harmonics.build_P"),
    ("sphere2gauss.harmonics", "build_Q_gauss", "harmonics.build_Q_gauss"),
    ("sphere2gauss.harmonics", "ou_apply", "harmonics.ou_apply"),
    ("sphere2gauss.harmonics", "rational_rank", "polyalg.rank"),
    ("sphere2gauss.harmonics", "lifted_laplacian", "polyalg.lifted_laplacian"),
    ("sphere2gauss.polyalg:RationalPoly", "evaluate", "polyalg.evaluate"),
]


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, op, name, start, end, thread)
        self.counts = defaultdict(int)
        self.gc_s = 0.0
        self.op = None
        self._root = None  # span of the operation that is running
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._gc_start = None
        self._undo = []
        self._lock = threading.Lock()  # pool threads update the counts

    # -- span recording ------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name):
        stack = self._stack()
        sid = next(self._ids)
        # a pool thread has no open span of its own: its parent is the operation
        parent = stack[-1][0] if stack else self._root
        stack.append((sid, parent, name, time.perf_counter()))
        return sid

    def end(self):
        sid, parent, name, start = self._stack().pop()
        self.spans.append((sid, parent, self.op, name, start, time.perf_counter(),
                           threading.get_ident()))

    @contextlib.contextmanager
    def operation(self, op, name):
        """One timed operation; its span is the root of the spans it causes."""
        self.op = op
        self._root = self.begin(name)
        try:
            yield
        finally:
            self.end()
            self._root = None

    def _wrap(self, fn, name):
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            with tracer._lock:
                tracer._count(name, sig, args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, sig, args, kwargs, result):
        counts = self.counts
        if name in ("eigensolve.cap", "eigensolve.halfline"):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            counts[name + "_shots"] += getattr(result, "iterations", 0)
            if result.residual > bound.arguments["tol"]:
                counts["eigensolve.cert_rejects"] += 1
        elif name == "polyalg.rank":
            counts["polyalg.rank_entries"] += sum(len(row) for row in args[0])

    # -- installation ----------------------------------------------------

    def install(self):
        for target, attr, name in WRAPPED:
            module, _, cls = target.partition(":")
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                continue
            setattr(owner, attr, self._wrap(fn, name))
            self._undo.append((owner, attr, fn))
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_s += time.perf_counter() - self._gc_start
            self._gc_start = None

    # -- reduction ---------------------------------------------------------

    def self_times(self):
        """Span id -> duration minus the part of it covered by child spans."""
        children = defaultdict(list)
        for sid, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = {}
        for sid, _, _, _, start, end, _ in self.spans:
            covered, reach = 0.0, start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            out[sid] = (end - start) - covered
        return out

    def totals(self):
        """Span name -> (calls, summed duration, summed self time)."""
        selfs = self.self_times()
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, _, _, name, start, end, _ in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += selfs[sid]
        return out

    def dump(self, path):
        fields = ["id", "parent", "op", "name", "start", "end", "thread"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)
