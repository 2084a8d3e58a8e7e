"""Tests of the benchmark's own code: span arithmetic, seeded inputs,
references and checkers."""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, inputs, reference, tracing, workloads  # noqa: E402
from perfbench.run import WORKLOADS, measure, percentile  # noqa: E402

# -- tracing -------------------------------------------------------------------


def test_self_time_on_synthetic_span_tree():
    tr = tracing.Tracer()
    tr.spans = [
        ["cli.run", 0.0, 10.0, -1, "t"],
        ["homology.boundary", 1.0, 4.0, 0, "t"],
        ["exactla.rank", 2.0, 3.0, 1, "t"],
        ["homology.boundary", 5.0, 7.0, 0, "t"],
        ["conjugacy.exact_tail", 8.0, 9.5, 0, "t"],
        ["conjugacy.nilpotent_conjugator", 8.5, 9.0, 4, "t"],
        ["conjugacy.exact_tail", 9.5, 9.75, 0, "t"],
    ]
    tr.counts = {("conjugacy.profile.scan", "groups.conjugate"): 7,
                 ("", "groups.conjugate"): 2,
                 ("", "conjugacy.exact_tail.conjugate"): 1}
    m = tr.round_metrics()
    assert m["cli.run.s"] == pytest.approx(10 - 3 - 2 - 1.5 - 0.25)
    assert m["homology.boundary.s"] == pytest.approx(2 + 2)
    assert m["homology.boundary.calls"] == 2
    assert m["exactla.rank.s"] == pytest.approx(1)
    assert m["conjugacy.exact_tail.s"] == pytest.approx(1.75)  # inclusive of its solver span
    assert m["conjugacy.nilpotent_conjugator.s"] == pytest.approx(0.5)
    assert m["conjugacy.exact_tail.conjugate_share"] == pytest.approx(0.5)
    assert m["groups.conjugate.calls"] == 9
    assert m["conjugacy.profile.scan_conjugations"] == 7
    assert m["cayley.ball.s"] == 0


def test_tracer_wraps_aliases_reports_absent_and_restores():
    import ggtkit.cli
    import ggtkit.homology

    original = ggtkit.homology.hochschild_boundary
    plan = tracing.PLAN + [("ggtkit.homology", "no_such_function", "span", "x", None),
                           ("ggtkit.no_such_module", "f", "span", "y", None)]
    tr = tracing.Tracer()
    tr.install(plan)
    try:
        assert ggtkit.cli.hochschild_boundary is not original
        rounds = []
        for _ in range(2):
            tr.reset()
            tr.begin_task("t")
            code = ggtkit.cli.run(["homology", "--group", "Z2", "--nmax", "2", "--split"])
            tr.end_task()
            assert code == 0
            rounds.append(tr.round_metrics())
    finally:
        tr.uninstall()
    assert ggtkit.cli.hochschild_boundary is original
    assert tr.absent == ["ggtkit.homology.no_such_function", "ggtkit.no_such_module.f"]
    counts = [{k: v for k, v in r.items() if k.endswith((".calls", ".cells", ".nnz", ".columns"))}
              for r in rounds]
    assert counts[0] == counts[1]
    assert counts[0]["homology.boundary.calls"] > 2  # the CLI's rebuilds are seen
    assert counts[0]["exactla.rank.calls"] > 0 and counts[0]["exactla.rank.cells"] > 0


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]}
    want = {(n, u, b) for n, u, b, *_ in tracing.PER_LAYER} | {tracing.OVERHEAD}
    assert per_layer == want
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))
    assert percentile(values, 0.99) == 198
    assert percentile([5.0], 0.99) == 5.0


# -- inputs --------------------------------------------------------------------


@pytest.mark.parametrize("make", [inputs.geometry_inputs, inputs.query_inputs])
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(make):
    assert make(3) == make(3)
    assert make(3) != make(4)


def test_batch_task_order_depends_on_the_seed():
    def order(seed):
        return tuple(t.name for t in workloads.make("batch", seed).tasks)

    assert order(5) == order(5)
    assert len(set(order(5))) == 9
    assert len({order(s) for s in range(10)}) > 1


def test_measure_runs_every_task_and_keeps_its_times():
    calls = []
    task = lambda name, ok: workloads.Task(name, lambda: calls.append(name), lambda s: [] if ok else [name])
    workload = workloads.Workload()
    workload.tasks = [task("a", True), task("b", False), task("c", True)]
    run = measure(workload, 0.0)
    assert calls == ["a", "b", "c"]
    assert [len(t) for t in run["times"]] == [1, 1, 1]
    assert (run["attempted"], run["failed"], run["problems"]) == (3, 1, ["b"])


def test_query_mix_and_planted_answers():
    qs = inputs.query_inputs(11)
    kinds = [q["kind"] for q in qs]
    assert (kinds.count("free"), kinds.count("nilpotent"), kinds.count("rd")) == (1000, 500, 1000)
    for q in qs:
        if q["kind"] == "free" and not q["conjugate"]:
            assert reference.free_exponent_sums(q["u"], 2) != reference.free_exponent_sums(q["v"], 2)
        if q["kind"] == "nilpotent" and not q["conjugate"]:
            (x, y), offset = q["u"][0], q["v"][1][0] - q["u"][1][0]
            g = np.gcd(x, y)
            assert q["u"][0] == q["v"][0] and (offset if g == 0 else offset % g) != 0


# -- references ------------------------------------------------------------------


def test_coset_key_is_the_least_coset_element():
    for h in [(1,), (1, 2), (1, 1, -2)]:
        for w in reference.free_ball(2, 4):
            coset = [reference.free_mul(w, reference.free_reduce((h if k > 0 else reference.free_inv(h)) * abs(k)))
                     for k in range(-12, 13)]
            assert reference.free_coset_key(w, h) == min(coset, key=lambda c: (len(c), c))


def test_z2_delta_constant_matches_the_reference():
    assert reference.four_point_delta(reference.z2_diamond_distances(6)) == checks.Z2_DELTA_R6


def test_heisenberg_reference_is_a_group_law():
    x, y, z = ((1, 2), (3,)), ((-2, 5), (1,)), ((4, -1), (-7,))
    mul = reference.heis_mul
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, reference.heis_inv(x)) == ((0, 0), (0,))


# -- checkers reject planted wrong answers ------------------------------------------


def _small_coned():
    ref = reference.ConedReference(2, 3, (1,))
    graph = nx.Graph()
    graph.add_weighted_edges_from(zip(ref.u.tolist(), ref.v.tolist(), ref.w.tolist()))
    dist = nx.single_source_dijkstra_path_length(graph, 5)
    row = np.array([dist[i] for i in range(ref.n)])
    summary = {
        "elements": list(ref.words),
        "edges": list(zip(ref.u.tolist(), ref.v.tolist(), ref.w.tolist())),
        "cone_start": len(ref.words),
        "sources": [5],
        "rows": [row],
        "e_to_a8": None,
    }
    return ref, summary


def test_coned_check_accepts_the_true_row_and_rejects_a_wrong_one():
    ref, s = _small_coned()
    assert checks.check_coned(ref, s)[0] == []
    for delta in (+2, -1):
        bad = dict(s, rows=[s["rows"][0].copy()])
        bad["rows"][0][17] += delta
        assert checks.check_coned(ref, bad)[0]
    wrong_graph = dict(s, edges=s["edges"][:-1] + [(0, s["edges"][-1][1], 1)])
    assert checks.check_coned(ref, wrong_graph)[0]
    assert checks.check_networkx_row(ref, 5, s["rows"][0]) == []
    assert checks.check_networkx_row(ref, 5, s["rows"][0] + 1)


def test_tree_row_check_rejects_a_wrong_distance():
    elements = reference.free_ball(2, 2)
    row = [2 * len(w) for w in elements]
    good = {"delta": Fraction(0), "elements": elements, "source": 0, "row": row}
    assert checks.check_tree_row(good) == []
    assert checks.check_tree_row(dict(good, row=row[:-1] + [row[-1] + 2]))
    assert checks.check_tree_row(dict(good, delta=Fraction(1, 2)))


def test_query_check_rejects_a_bad_witness():
    free = {"kind": "free", "u": (1, 2, 2), "v": (2, 2, 1), "conjugate": True}
    assert checks.check_conjugacy_query(free, {"status": "conjugate", "witness": (1,), "witness_length": 1}) == []
    assert checks.check_conjugacy_query(free, {"status": "conjugate", "witness": (2,), "witness_length": 1})
    assert checks.check_conjugacy_query(free, {"status": "not_conjugate", "witness": None, "witness_length": None})
    u = ((2, 0), (0,))
    g = ((0, 1), (0,))
    heis = {"kind": "nilpotent", "u": u, "v": reference.heis_conj(g, u), "conjugate": True}
    assert checks.check_conjugacy_query(heis, {"status": "conjugate", "witness": g, "witness_length": 1}) == []
    assert checks.check_conjugacy_query(heis, {"status": "conjugate", "witness": ((0, 2), (0,)), "witness_length": 2})
    negative = dict(heis, conjugate=False)
    assert checks.check_conjugacy_query(negative, {"status": "conjugate", "witness": g, "witness_length": 1})


def test_homology_check_rejects_a_wrong_dimension():
    per = {"0": [1, 0, 0], "1": [1, 0, 0], "2": [1, 0, 0]}
    res = {"hochschild": {"total": [3, 0, 0], "per_class": per},
           "cyclic": {"total": [3, 0, 3], "per_class": {k: [1, 0, 1] for k in per}},
           "identities": {"b1b2": "0"}}
    good = {"exit": 0, "report": {"results": res}}
    assert checks.check_homology("S3", 3, good) == []
    wrong = json.loads(json.dumps(good))
    wrong["report"]["results"]["hochschild"]["total"] = [3, 1, 0]
    assert checks.check_homology("S3", 3, wrong)
    wrong = json.loads(json.dumps(good))
    wrong["report"]["results"]["cyclic"]["per_class"]["1"] = [1, 0, 0]
    assert checks.check_homology("S3", 3, wrong)
    wrong = json.loads(json.dumps(good))
    wrong["report"]["results"]["identities"]["b1b2"] = "NONZERO"
    assert checks.check_homology("S3", 3, wrong)
    assert checks.check_homology("S3", 3, {"exit": 1, "report": None})


def test_profile_and_rd_checks_reject_wrong_values():
    summary = {"degree": 1, "dominated": True, "unknown_pairs": 0,
               "records": [((1,), (1,), 0, 1, ())]}
    problems = checks.check_profile("f2", summary)
    assert any("digest" in p for p in problems)
    assert any("degree" in p for p in checks.check_profile("f2", dict(summary, degree=2)))
    bad_witness = dict(summary, records=[((1,), (2,), 1, 1, (2,))])
    assert any("witness" in p for p in checks.check_profile("f2", bad_witness))
    q = {"kind": "rd", "a": [((1,), Fraction(2))], "b": [((2,), Fraction(-1, 3))], "m": 1}
    lhs, low, high = checks.rd_reference(q)
    assert (lhs, low, high) == (Fraction(2, 3) * 3, Fraction(2, 3) * 3 * 2, Fraction(2, 3) * 4 * 2)
    assert checks.check_rd_query(q, {"lhs": lhs, "rhs": high, "holds": True}) == []
    assert checks.check_rd_query(q, {"lhs": lhs + 1, "rhs": high, "holds": True})
    assert checks.check_rd_query(q, {"lhs": lhs, "rhs": high + 1, "holds": True})
