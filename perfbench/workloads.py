"""The two workloads as lists of timed tasks over ggtkit's public API.

A task's ``call`` is the timed part and builds every model, ball and graph
it uses, because ``GroupModel._bfs_state`` and ``MetricGraph._dist_cache``
memoize across calls and a command-line user never starts warm.
``summarize`` keeps the named result fields the checks read, so the
program's objects are freed before the reference data is built, and
``check`` returns the problems found.  Nothing passes a cache directory
or a parallelism setting.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ggtkit import cli
from ggtkit.cayley import CyclicSubgroup, ball, cayley_graph, coned_off, estimate_delta_4point
from ggtkit.conjugacy import free_group_conjugacy, nilpotent_conjugator, profile_conjugacy_bound
from ggtkit.groups import FreeAbelian, FreeGroup, heisenberg_group
from ggtkit.rdalgebra import Poly, SupportedVector, check_product_estimate

from . import checks, inputs
from .reference import ConedReference

# profiled group -> (radius, slack); the search radius is 2 * radius + slack
PROFILE_TASKS = {"f2": (3, 2), "z2": (4, 2), "heis": (3, 2)}
_MODELS = {"f2": lambda: FreeGroup(2), "z2": lambda: FreeAbelian(2), "heis": heisenberg_group}


@dataclass
class Task:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], list]
    summarize: Callable[[Any], Any] = lambda result: result


class Workload:
    """Seeded inputs plus the task list of one round."""

    tasks: list

    def final_check(self) -> list:
        """Checks run once after timing, when peak memory has been read."""
        return []


# ---------------------------------------------------------------------------
# profile


def _profile_call(group: str):
    radius, slack = PROFILE_TASKS[group]
    return lambda: profile_conjugacy_bound(_MODELS[group](), radius, slack=slack)


def _profile_summary(result) -> dict:
    return {
        "degree": result.fit.degree,
        "dominated": result.fit.dominated,
        "unknown_pairs": len(result.unknown_pairs),
        "records": [
            (r.u, r.v, r.min_conjugator_length, r.class_rep, r.witness) for r in result.records
        ],
    }


def profile_tasks() -> list:
    return [
        Task(f"profile.{g}", _profile_call(g), lambda s, g=g: checks.check_profile(g, s), _profile_summary)
        for g in PROFILE_TASKS
    ]


# ---------------------------------------------------------------------------
# geometry


def _coned_rows(radius: int, h: tuple, sources: list, with_a8: bool):
    def call():
        b = ball(FreeGroup(2), radius)
        coned = coned_off(b, [CyclicSubgroup(h, "H")])
        idx = [b.element_index(w) for w in sources]
        rows = [coned.graph.distances_from(i) for i in idx]
        a8 = coned.distance(b.element_index(()), b.element_index((1,) * 8)) if with_a8 else None
        return coned, idx, rows, a8

    return call


def _coned_summary(result) -> dict:
    coned, idx, rows, a8 = result
    return {
        "elements": list(coned.ball.elements),
        "edges": list(coned.graph.edges),
        "cone_start": coned.cone_start,
        "sources": idx,
        "rows": [np.asarray(r, dtype=np.int32) for r in rows],
        "e_to_a8": a8,
    }


def _delta_f2(source: tuple):
    def call():
        b = ball(FreeGroup(2), 4)
        graph = cayley_graph(b)
        delta = estimate_delta_4point(graph, exhaustive=True)
        i = b.element_index(source)
        return {"delta": delta, "elements": b.elements, "source": i, "row": graph.distances_from(i)}

    return call


def _delta_z2():
    return {"delta": estimate_delta_4point(cayley_graph(ball(FreeAbelian(2), 6)), exhaustive=True)}


class Geometry:
    """The geometry tasks, with the networkx rows they keep for final_check."""

    def __init__(self, seed: int):
        self.inp = inputs.geometry_inputs(seed)
        self.nx_rows: dict = {}  # task -> (h, radius, source, row)

    def _coned_check(self, key: str, radius: int, h: tuple, pick: int):
        def check(s):
            ref = ConedReference(2, radius, h)
            problems, perm = checks.check_coned(ref, s)
            if perm is not None and key not in self.nx_rows:
                row = np.empty(ref.n, dtype=np.int64)
                row[perm] = s["rows"][pick]
                self.nx_rows[key] = (ref.h, radius, int(perm[s["sources"][pick]]), row)
            return problems

        return check

    def make_tasks(self) -> list:
        inp = self.inp
        pick_a, pick_ab = inp["networkx_pick"]
        return [
            Task(
                "geometry.coned_a",
                _coned_rows(8, (1,), inp["coned_a_sources"], True),
                self._coned_check("coned_a", 8, (1,), pick_a),
                _coned_summary,
            ),
            Task(
                "geometry.coned_ab",
                _coned_rows(6, (1, 2), inp["coned_ab_sources"], False),
                self._coned_check("coned_ab", 6, (1, 2), pick_ab),
                _coned_summary,
            ),
            Task("geometry.delta_f2", _delta_f2(inp["tree_source"]), checks.check_tree_row),
            Task("geometry.delta_z2", _delta_z2, checks.check_delta_z2),
        ]

    def final_check(self) -> list:
        problems = []
        for h, radius, source, row in self.nx_rows.values():
            problems += checks.check_networkx_row(ConedReference(2, radius, h), source, row)
        return problems


# ---------------------------------------------------------------------------
# homology


def _homology_call(group: str):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(["homology", "--group", group, "--nmax", "3", "--split"])
        return code, out.getvalue()

    return call


def _homology_summary(result) -> dict:
    code, text = result
    return {"exit": code, "report": json.loads(text) if code == 0 else None}


# S3 has 3 conjugacy classes; Z6 is abelian, so 6.
HOMOLOGY_TASKS = {"S3": 3, "Z6": 6}


def homology_tasks() -> list:
    return [
        Task(
            f"homology.{g}",
            _homology_call(g),
            lambda s, g=g, c=c: checks.check_homology(g, c, s),
            _homology_summary,
        )
        for g, c in HOMOLOGY_TASKS.items()
    ]


class Batch(Workload):
    """The profile, geometry and homology tasks in a seeded order."""

    def __init__(self, seed: int):
        self.geometry = Geometry(seed)
        self.tasks = profile_tasks() + self.geometry.make_tasks() + homology_tasks()
        random.Random(seed).shuffle(self.tasks)

    def final_check(self) -> list:
        return self.geometry.final_check()


# ---------------------------------------------------------------------------
# queries


def _conjugacy_call(q: dict):
    if q["kind"] == "free":
        return lambda: free_group_conjugacy(FreeGroup(2), q["u"], q["v"])
    return lambda: nilpotent_conjugator(heisenberg_group(), q["u"], q["v"])


def _conjugacy_summary(result) -> dict:
    return {"status": result.status, "witness": result.witness, "witness_length": result.witness_length}


def _rd_call(q: dict):
    def call():
        model = FreeGroup(2)
        a = SupportedVector(model, q["a"])
        b = SupportedVector(model, q["b"])
        return check_product_estimate(a, b, Poly.basis(q["m"]))

    return call


def _rd_summary(report) -> dict:
    return {"lhs": report.lhs, "rhs": report.rhs, "holds": report.holds}


def _query_task(q: dict) -> Task:
    if q["kind"] == "rd":
        return Task("queries.rd", _rd_call(q), lambda s: checks.check_rd_query(q, s), _rd_summary)
    return Task(
        f"queries.{q['kind']}",
        _conjugacy_call(q),
        lambda s: checks.check_conjugacy_query(q, s),
        _conjugacy_summary,
    )


class Queries(Workload):
    def __init__(self, seed: int):
        self.tasks = [_query_task(q) for q in inputs.query_inputs(seed)]


WORKLOAD_CLASSES = {"batch": Batch, "queries": Queries}


def make(name: str, seed: int) -> Workload:
    return WORKLOAD_CLASSES[name](seed)
