"""Spans and counters for the traced run, recorded from outside ggtkit.

``Tracer.install`` wraps public functions and methods of each layer (the
ggtkit modules) and rebinds every alias of a wrapped function, such as
``ggtkit.cli.hochschild_boundary``; ``uninstall`` restores the originals.
A name missing at some later commit is listed in ``absent`` and its
metrics read 0.  Spans stay in memory as (name, start, end, parent, task)
and counters are keyed by the innermost open span, so a count can be read
per layer.  Hot methods (multiply, conjugate) get counters, not spans.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from time import perf_counter

# (module, target, kind, name, hook).  A target "Class.method" wraps one
# method; "*.method" wraps it on every class of the module defining it.
PLAN = [
    ("ggtkit.groups", "*.multiply", "count", "groups.multiply", None),
    ("ggtkit.groups", "*.conjugate", "count", "groups.conjugate", None),
    ("ggtkit.groups", "*.word_length", "span", "groups.word_length", None),
    ("ggtkit.cayley", "ball", "span", "cayley.ball", "elements"),
    ("ggtkit.cayley", "cayley_graph", "span", "cayley.cayley_graph", None),
    ("ggtkit.cayley", "coned_off", "span", "cayley.coned_off", None),
    ("ggtkit.cayley", "MetricGraph.distances_from", "span", "cayley.distances_from", "rows"),
    ("ggtkit.cayley", "_four_point_max_defect", "span", "cayley.estimate_delta.sweep", "quadruples"),
    ("ggtkit.conjugacy", "profile_conjugacy_bound", "span", "conjugacy.profile", None),
    ("ggtkit.conjugacy", "_scan_chunk", "span", "conjugacy.profile.scan", None),
    ("ggtkit.conjugacy", "_exact_solver_for", "solver", "conjugacy.exact_tail", None),
    ("ggtkit.conjugacy", "free_group_conjugacy", "span", "conjugacy.free_group_conjugacy", None),
    ("ggtkit.conjugacy", "nilpotent_conjugator", "span", "conjugacy.nilpotent_conjugator", None),
    ("ggtkit.exactla", "SparseRationalMatrix.rank", "span", "exactla.rank", "shape"),
    ("ggtkit.exactla", "SparseRationalMatrix.matmul", "span", "exactla.matmul", None),
    ("ggtkit.exactla", "smith_normal_form", "span", "exactla.smith_normal_form", None),
    ("ggtkit.homology", "hochschild_boundary", "span", "homology.boundary", "columns"),
    ("ggtkit.homology", "connes_B", "span", "homology.boundary", "columns"),
    ("ggtkit.homology", "cyclic_quotient", "span", "homology.cyclic_quotient", None),
    ("ggtkit.homology", "homology_dims", "span", "homology.homology_dims", None),
    ("ggtkit.homology", "conj_classes", "span", "homology.conj_classes", None),
    ("ggtkit.rdalgebra", "check_product_estimate", "span", "rdalgebra.check_product_estimate", None),
    ("ggtkit.rdalgebra", "SupportedVector.convolve", "span", "rdalgebra.convolve", None),
    ("ggtkit.cli", "run", "span", "cli.run", None),
]

# Per-layer metrics: (name, unit, better, how, source).  "self" is span time
# minus time covered by child spans; "inclusive" keeps the children, for the
# exact-solver tail whose work is the solver spans below it.
PER_LAYER = [
    ("groups.multiply.calls", "count", "lower", "count", "groups.multiply"),
    ("groups.conjugate.calls", "count", "lower", "count", "groups.conjugate"),
    ("groups.word_length.s", "s", "lower", "self", "groups.word_length"),
    ("cayley.ball.s", "s", "lower", "self", "cayley.ball"),
    ("cayley.ball.elements", "count", "lower", "count", "cayley.ball.elements"),
    ("cayley.cayley_graph.s", "s", "lower", "self", "cayley.cayley_graph"),
    ("cayley.coned_off.s", "s", "lower", "self", "cayley.coned_off"),
    ("cayley.distances_from.s", "s", "lower", "self", "cayley.distances_from"),
    ("cayley.distances_from.calls", "count", "lower", "calls", "cayley.distances_from"),
    ("cayley.distances_from.rows", "count", "lower", "count", "cayley.distances_from.rows"),
    ("cayley.estimate_delta.sweep_s", "s", "lower", "self", "cayley.estimate_delta.sweep"),
    ("cayley.estimate_delta.quadruples", "count", "lower", "count", "cayley.estimate_delta.quadruples"),
    ("conjugacy.profile.scan_s", "s", "lower", "self", "conjugacy.profile.scan"),
    ("conjugacy.profile.scan_conjugations", "count", "lower", "scoped", ("conjugacy.profile.scan", "groups.conjugate")),
    ("conjugacy.exact_tail.s", "s", "lower", "inclusive", "conjugacy.exact_tail"),
    ("conjugacy.exact_tail.calls", "count", "lower", "calls", "conjugacy.exact_tail"),
    ("conjugacy.exact_tail.conjugate_share", "ratio", "higher", "share", ("conjugacy.exact_tail.conjugate", "conjugacy.exact_tail")),
    ("conjugacy.free_group_conjugacy.s", "s", "lower", "self", "conjugacy.free_group_conjugacy"),
    ("conjugacy.nilpotent_conjugator.s", "s", "lower", "self", "conjugacy.nilpotent_conjugator"),
    ("exactla.rank.s", "s", "lower", "self", "exactla.rank"),
    ("exactla.rank.calls", "count", "lower", "calls", "exactla.rank"),
    ("exactla.rank.cells", "count", "lower", "count", "exactla.rank.cells"),
    ("exactla.rank.nnz", "count", "lower", "count", "exactla.rank.nnz"),
    ("exactla.matmul.s", "s", "lower", "self", "exactla.matmul"),
    ("exactla.matmul.calls", "count", "lower", "calls", "exactla.matmul"),
    ("exactla.smith_normal_form.s", "s", "lower", "self", "exactla.smith_normal_form"),
    ("exactla.smith_normal_form.calls", "count", "lower", "calls", "exactla.smith_normal_form"),
    ("homology.boundary.s", "s", "lower", "self", "homology.boundary"),
    ("homology.boundary.calls", "count", "lower", "calls", "homology.boundary"),
    ("homology.boundary.columns", "count", "lower", "count", "homology.boundary.columns"),
    ("homology.cyclic_quotient.s", "s", "lower", "self", "homology.cyclic_quotient"),
    ("homology.homology_dims.s", "s", "lower", "self", "homology.homology_dims"),
    ("homology.conj_classes.s", "s", "lower", "self", "homology.conj_classes"),
    ("rdalgebra.check_product_estimate.s", "s", "lower", "self", "rdalgebra.check_product_estimate"),
    ("rdalgebra.check_product_estimate.calls", "count", "lower", "calls", "rdalgebra.check_product_estimate"),
    ("rdalgebra.convolve.s", "s", "lower", "self", "rdalgebra.convolve"),
    ("cli.run.s", "s", "lower", "self", "cli.run"),
]
OVERHEAD = ("trace.overhead_s", "s", "lower")


def _resolve(module_name: str, target: str) -> list:
    """The (owner, attribute, function) triples a plan target names."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return []
    owner_name, _, attr = target.rpartition(".")
    if not owner_name:
        fn = getattr(module, attr, None)
        return [(module, attr, fn)] if callable(fn) else []
    if owner_name == "*":
        owners = [c for c in vars(module).values()
                  if isinstance(c, type) and c.__module__ == module_name]
    else:
        owners = [getattr(module, owner_name, None)]
    return [(c, attr, vars(c)[attr]) for c in owners
            if isinstance(c, type) and callable(vars(c).get(attr))]


def _aliases(fn) -> list:
    """Every (module, name) of ggtkit and of the benchmark bound to fn."""
    return [
        (mod, attr)
        for mod_name, mod in list(sys.modules.items())
        if mod is not None and mod_name.startswith(("ggtkit", "perfbench"))
        for attr, value in list(vars(mod).items())
        if value is fn
    ]


def _hook_values(hook: str, args, result) -> dict:
    """Work counts read off a wrapped call's arguments or result."""
    if hook == "elements":
        return {"cayley.ball.elements": len(result)}
    if hook == "quadruples":
        return {"cayley.estimate_delta.quadruples": args[0].shape[0] ** 4}
    if hook == "shape":
        m = args[0]
        return {"exactla.rank.cells": m.rows * m.cols, "exactla.rank.nnz": len(m.entries)}
    if hook == "columns":
        return {"homology.boundary.columns": result.cols}
    raise ValueError(hook)


class Tracer:
    def __init__(self):
        self.active = False
        self.task = None
        self.absent: list = []
        self.hook_errors: set = set()
        self._restore: list = []
        self.reset()

    def reset(self) -> None:
        self.spans: list = []  # [name, start, end, parent index, task]
        self.counts: dict = {}  # (innermost span name, key) -> int
        self._stack: list = []
        self._scope = ""
        self._rows: dict = {}  # id(graph) -> (graph, sources seen) in this task

    def begin_task(self, task) -> None:
        self.task = task
        self.active = True

    def end_task(self) -> None:
        self.active = False
        self._rows.clear()

    def add(self, key: str, n: int = 1) -> None:
        k = (self._scope, key)
        self.counts[k] = self.counts.get(k, 0) + n

    # -- wrappers -----------------------------------------------------------

    def _count(self, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.add(key)
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.task]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            outer, tracer._scope = tracer._scope, name
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer._stack.pop()
                tracer._scope = outer
            if hook is not None:
                tracer._run_hook(name, hook, args, result)
            return result

        return wrapper

    def _run_hook(self, name, hook, args, result) -> None:
        try:
            if hook == "rows":
                values = self._new_rows(args[0], args[1])
            else:
                values = _hook_values(hook, args, result)
        except (AttributeError, IndexError, TypeError):
            self.hook_errors.add(name)
            return
        for key, n in values.items():
            self.add(key, n)

    def _new_rows(self, graph, source) -> dict:
        """Counts a distance row once per graph and source within a task."""
        seen = self._rows.setdefault(id(graph), (graph, set()))[1]
        if source in seen:
            return {}
        seen.add(source)
        return {"cayley.distances_from.rows": 1}

    def _solver(self, name: str, fn):
        """Wrap a factory of exact solvers so each solver call is a span
        that also counts conjugate verdicts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            solver = fn(*args, **kwargs)
            if solver is None:
                return None
            timed = tracer._span(name, solver)

            def call(u, v):
                result = timed(u, v)
                if tracer.active and getattr(result, "is_conjugate", False):
                    tracer.add(name + ".conjugate")
                return result

            return call

        return wrapper

    # -- installation ---------------------------------------------------------

    def _wrap(self, kind, name, hook, fn):
        if kind == "count":
            return self._count(name, fn)
        if kind == "solver":
            return self._solver(name, fn)
        return self._span(name, fn, hook)

    def install(self, plan=PLAN) -> None:
        for module_name, target, kind, name, hook in plan:
            found = _resolve(module_name, target)
            if not found:
                self.absent.append(f"{module_name}.{target}")
            for owner, attr, fn in found:
                wrapper = self._wrap(kind, name, hook, fn)
                homes = [(owner, attr)] if isinstance(owner, type) else _aliases(fn)
                for home, home_attr in homes:
                    self._restore.append((home, home_attr, fn))
                    setattr(home, home_attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    # -- metrics --------------------------------------------------------------

    def round_metrics(self) -> dict:
        """Per-layer values of the spans and counts recorded since reset()."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        own: dict = {}
        total: dict = {}
        calls: dict = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own[name] = own.get(name, 0.0) + (end - start) - covered[i]
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
        counts: dict = {}
        for (_, key), n in self.counts.items():
            counts[key] = counts.get(key, 0) + n
        out = {}
        for metric, _, _, how, source in PER_LAYER:
            if how == "self":
                out[metric] = own.get(source, 0.0)
            elif how == "inclusive":
                out[metric] = total.get(source, 0.0)
            elif how == "calls":
                out[metric] = calls.get(source, 0)
            elif how == "count":
                out[metric] = counts.get(source, 0)
            elif how == "scoped":
                out[metric] = self.counts.get(source, 0)
            else:  # share of a span's calls that produced the counted outcome
                hits, span = source
                out[metric] = counts.get(hits, 0) / calls[span] if calls.get(span) else 0.0
        return out


def combine_rounds(rounds: list) -> dict:
    """Counts from the first traced round (every round repeats them), times
    and shares as the median over rounds."""
    out = {}
    for metric, unit, _, _, _ in PER_LAYER:
        if unit == "count":
            out[metric] = rounds[0][metric]
        else:
            out[metric] = statistics.median(r[metric] for r in rounds)
    return out
