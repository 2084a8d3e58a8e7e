"""Output checks.  Each returns a list of problems; an empty list passes.

Checks read named result fields only and compare them with the references
in ``reference.py`` or with closed forms, so they hold for every seed and
never trust the code being timed.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .reference import (
    ConedReference,
    free_conj,
    free_inv,
    free_mul,
    heis_conj,
    match_vertices,
    profile_digest,
    row_certificate,
)

# Per profiled group: accepted fit degrees, then (record count, digest) of
# the brute-force oracle's records; regenerate with make_digests.py.
PROFILE_EXPECTED = {
    "f2": ({1}, (133, "08c8c99decfc26f9799b7ddd3dc08462b1cfaea2868ba240146ed6b2e7beb138")),
    "z2": ({0}, (41, "7d0ccb74cb9beef27aa5554248a138176ff772c9db7cfc5b27166261d44695d8")),
    "heis": ({0, 1, 2}, (267, "7a8febb86e59723c3a8ce78a38edacf4f4a298c8c3695303504fefc3cb3c5458")),
}

# Four-point delta of the Z^2 ball of radius 6: reference.four_point_delta
# over reference.z2_diamond_distances(6); the tests recompute it.
Z2_DELTA_R6 = Fraction(6)


def _conj_ok(group: str, g, u, v) -> bool:
    if group == "f2":
        return free_conj(g, u) == v
    if group == "heis":
        return heis_conj(g, u) == v
    return u == v  # free abelian: conjugation is trivial


def check_profile(group: str, s: dict) -> list:
    degrees, (count, digest) = PROFILE_EXPECTED[group]
    problems = []
    if s["degree"] not in degrees or not s["dominated"]:
        problems.append(f"profile {group}: fit degree {s['degree']}, dominated {s['dominated']}")
    if s["unknown_pairs"]:
        problems.append(f"profile {group}: {s['unknown_pairs']} unknown pairs")
    bad = [r for r in s["records"] if not _conj_ok(group, r[4], r[0], r[1])]
    if bad:
        problems.append(f"profile {group}: {len(bad)} witnesses fail to conjugate")
    got = profile_digest([r[:4] for r in s["records"]])
    if (len(s["records"]), got) != (count, digest):
        problems.append(f"profile {group}: {len(s['records'])} records, digest {got[:12]}")
    return problems


def check_coned(ref: ConedReference, s: dict) -> tuple:
    """Check a coned graph and its distance rows; returns (problems, perm)."""
    perm, problem = match_vertices(ref, s["elements"], s["edges"], s["cone_start"])
    if perm is None:
        return [f"coned {ref.h}: {problem}"], None
    problems = []
    for src, row in zip(s["sources"], s["rows"]):
        full = np.full(ref.n, -1, dtype=np.int64)
        if len(row) == ref.n:
            full[perm] = row
        if not row_certificate(ref.u, ref.v, ref.w, full, perm[src]):
            problems.append(f"coned {ref.h}: wrong distance row from vertex {src}")
    if s.get("e_to_a8") is not None and s["e_to_a8"] != 1:
        problems.append(f"coned {ref.h}: distance(e, a^8) = {s['e_to_a8']}, expected 1")
    return problems, perm


def check_networkx_row(ref: ConedReference, source: int, row) -> list:
    """Recompute one reference-numbered distance row with networkx."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_weighted_edges_from(zip(ref.u.tolist(), ref.v.tolist(), ref.w.tolist()))
    want = nx.single_source_dijkstra_path_length(graph, source)
    got = {i: int(d) for i, d in enumerate(row)}
    return [] if got == want else [f"coned {ref.h}: row {source} differs from networkx"]


def check_tree_row(s: dict) -> list:
    """F2 Cayley distances are tree distances; delta of a tree is 0."""
    problems = []
    if s["delta"] != 0:
        problems.append(f"delta F2: {s['delta']}, expected 0")
    src = s["elements"][s["source"]]
    want = [2 * len(free_mul(free_inv(src), w)) for w in s["elements"]]
    if list(s["row"]) != want:
        problems.append("delta F2: distance row is not the tree distance")
    return problems


def check_delta_z2(s: dict) -> list:
    return [] if s["delta"] == Z2_DELTA_R6 else [f"delta Z2: {s['delta']}, expected {Z2_DELTA_R6}"]


def check_homology(group: str, classes: int, s: dict) -> list:
    """HH_n(C[G]) is C^classes in degree 0 and 0 above; HC alternates."""
    if s["exit"] != 0:
        return [f"homology {group}: exit code {s['exit']}"]
    res = s["report"]["results"]
    problems = []
    for kind, per_class in (("hochschild", [1, 0, 0]), ("cyclic", [1, 0, 1])):
        want = [classes * d for d in per_class]
        if res[kind]["total"] != want:
            problems.append(f"homology {group}: {kind} total {res[kind]['total']}, expected {want}")
        blocks = res[kind].get("per_class")
        if blocks is not None and sorted(blocks.values()) != [per_class] * classes:
            problems.append(f"homology {group}: {kind} per-class dimensions wrong")
    if any(v != "0" for v in res.get("identities", {}).values()):
        problems.append(f"homology {group}: chain identity fails: {res['identities']}")
    return problems


def check_conjugacy_query(q: dict, s: dict) -> list:
    """Planted pairs: a verified witness for positives, a refusal for negatives."""
    kind = q["kind"]
    if not q["conjugate"]:
        return [] if s["status"] == "not_conjugate" else [f"{kind}: negative pair reported {s['status']}"]
    if s["status"] != "conjugate":
        return [f"{kind}: planted conjugate pair reported {s['status']}"]
    group = "f2" if kind == "free" else "heis"
    if not _conj_ok(group, s["witness"], q["u"], q["v"]):
        return [f"{kind}: witness does not conjugate u to v"]
    if kind == "free" and s["witness_length"] != len(s["witness"]):
        return [f"free: witness length {s['witness_length']} for a word of {len(s['witness'])}"]
    return []


def _vector(terms) -> dict:
    out: dict = {}
    for word, c in terms:
        out[word] = out.get(word, 0) + c
    return {w: c for w, c in out.items() if c}


def _norm(vec: dict, weight) -> Fraction:
    return sum((abs(c) * weight(len(w)) for w, c in vec.items()), Fraction(0))


def rd_reference(q: dict) -> tuple:
    """(lhs, rhs_low, rhs_high) of |a*b|_f <= |a|_1 |b|_f2 + |a|_f2 |b|_1 for
    f = (1+x)^m, with f2 between the least admissible f(2x) = (1+2x)^m and
    the documented (1+x)^(2m)."""
    a, b, m = _vector(q["a"]), _vector(q["b"]), q["m"]
    prod: dict = {}
    for g1, c1 in a.items():
        for g2, c2 in b.items():
            g = free_mul(g1, g2)
            prod[g] = prod.get(g, 0) + c1 * c2
    prod = {w: c for w, c in prod.items() if c}
    one = lambda x: 1  # noqa: E731
    la, lb = _norm(a, one), _norm(b, one)
    bounds = []
    for f2 in (lambda x: (1 + 2 * x) ** m, lambda x: (1 + x) ** (2 * m)):
        bounds.append(la * _norm(b, f2) + _norm(a, f2) * lb)
    return _norm(prod, lambda x: (1 + x) ** m), bounds[0], bounds[1]


def check_rd_query(q: dict, s: dict) -> list:
    lhs, low, high = rd_reference(q)
    problems = []
    if s["lhs"] != lhs:
        problems.append(f"rd: lhs {s['lhs']}, expected {lhs}")
    if not (low <= s["rhs"] <= high) or s["holds"] is not True:
        problems.append(f"rd: rhs {s['rhs']} outside [{low}, {high}] or holds={s['holds']}")
    return problems
