"""Balls, Cayley graphs, coned-off graphs, hyperbolicity."""

from __future__ import annotations

import functools
import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggtkit import cayley
from ggtkit.cayley import (
    CyclicSubgroup,
    FactorSubgroup,
    MetricGraph,
    _four_point_max_defect,
    ball,
    cayley_graph,
    coned_off,
    estimate_delta_4point,
    exhaustive_fits,
)
from ggtkit.errors import ConfigError, DomainError, OracleInconsistency, ResourceCapError
from ggtkit.groups import (
    FreeAbelian,
    FreeGroup,
    FreeProduct,
    TwoStepNilpotent,
    cyclic_group,
    cyclic_reduce,
    heisenberg_group,
    symmetric_group_3,
)
from oracles import verify_parent

# -- balls --------------------------------------------------------------------


def test_f2_ball_sizes(f2):
    assert len(ball(f2, 1)) == 5
    assert len(ball(f2, 3)) == 53  # 1 + 4 + 12 + 36


def test_ball_bfs_structure(heis):
    b = ball(heis, 3)
    assert b.elements[0] == heis.identity()
    assert all(b.lengths[i] <= b.lengths[i + 1] for i in range(len(b) - 1))
    assert all(verify_parent(b, i) for i in range(len(b)))


def test_heisenberg_ball_matches_product_oracle(heis):
    # independent oracle: exhaustively multiply generator strings of length <= 2
    gens = heis.generator_elements()
    expected = {heis.identity()}
    for s in gens:
        expected.add(s)
        for t in gens:
            expected.add(heis.multiply(s, t))
    assert set(ball(heis, 2).elements) == expected


def test_ball_cap_raises(f2):
    with pytest.raises(ResourceCapError):
        ball(f2, 6, cap=50)


# -- cayley graphs -----------------------------------------------------------


def test_f2_ball2_graph_is_tree(f2):
    g = cayley_graph(ball(f2, 2))
    assert g.n == 17 and len(g.edges) == 16


def test_z2_ball1_graph_is_star(z2):
    g = cayley_graph(ball(z2, 1))
    assert g.n == 5 and len(g.edges) == 4


def test_z6_graph_is_simple_cycle():
    z6 = cyclic_group(6)
    b = ball(z6, 6)
    g = cayley_graph(b)
    # direct-construction oracle: the cycle i -- i+1 mod 6 (doubled edges
    # collapse), mapped through the ball's BFS vertex numbering
    expected = {
        tuple(sorted((b.index[i], b.index[z6.multiply(i, 1)]))) for i in range(6)
    }
    assert {(u, v) for u, v, _ in g.edges} == expected


def test_distance_is_metric_on_small_graphs(f2):
    g = cayley_graph(ball(f2, 2))
    n = g.n
    dist = [[g.distance_scaled(i, j) for j in range(n)] for i in range(n)]
    for i in range(n):
        assert dist[i][i] == 0
        for j in range(n):
            assert dist[i][j] == dist[j][i]
            assert (dist[i][j] == 0) == (i == j)
            for k in range(n):
                assert dist[i][j] <= dist[i][k] + dist[k][j]


def test_distance_units_halved(f2):
    g = cayley_graph(ball(f2, 2))
    b = ball(f2, 2)
    assert g.distance(b.index[()], b.index[(1, 2)]) == 2
    assert g.distance(0, 0) == 0


@st.composite
def connected_graphs(draw, max_n=9):
    """Random connected graphs with weights in {1, 2, 3}: a random spanning
    tree plus random extra edges."""
    n = draw(st.integers(1, max_n))
    weight = st.sampled_from([1, 2, 3])
    edges = {(draw(st.integers(0, v - 1)), v): draw(weight) for v in range(1, n)}
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weight)
    for u, v, w in draw(st.lists(extra, max_size=2 * n)):
        if u != v:
            edges[(min(u, v), max(u, v))] = w
    return MetricGraph(n, [(u, v, w) for (u, v), w in edges.items()])


@st.composite
def trees_with_chords(draw, max_n=10):
    """Random trees with weights in {1, 2, 3}, and chords u-v between two
    tree neighbours of a vertex h whose tree edges all weigh 1.  A chord of
    weight 2 or 3 is dominated by u-h-v when h is an apex; one of weight 1
    never is."""
    n = draw(st.integers(2, max_n))
    parent = [None] + [draw(st.integers(0, v - 1)) for v in range(1, n)]
    hubs = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
    edges = {}
    for v in range(1, n):
        p = parent[v]
        edges[(p, v)] = 1 if p in hubs or v in hubs else draw(st.sampled_from([1, 2, 3]))
    for h in sorted(hubs):
        around = sorted({v for v in range(1, n) if parent[v] == h} | ({parent[h]} - {None}))
        for u, v in itertools.combinations(around, 2):
            if draw(st.booleans()):
                edges[(u, v)] = draw(st.sampled_from([1, 2, 2, 3]))
    return MetricGraph(n, [(u, v, w) for (u, v), w in edges.items()])


def _is_tree_once_dominated_arcs_drop(graph):
    """The tree rule of ``MetricGraph._tree``, restated over the edge list:
    drop each edge u-v of weight at least 2w whose ends share an apex
    neighbour, an apex being a vertex whose edges all weigh the least
    weight w and touch no such vertex; then n - 1 edges must remain and
    join every vertex.  Nothing drops when the ordered pairs of apex
    neighbours outnumber the arcs."""
    nx = pytest.importorskip("networkx")
    edges = graph.edges
    w = min((wt for _, _, wt in edges), default=0)
    near = {v: set() for v in range(graph.n)}
    for u, v, wt in edges:
        near[u].add((v, wt))
        near[v].add((u, wt))
    light = {v for v in near if near[v] and all(wt == w for _, wt in near[v])}
    apex = {v for v in light if not any(u in light for u, _ in near[v])}
    if sum(len(near[h]) * (len(near[h]) - 1) for h in apex) > 2 * len(edges):
        apex = set()
    kept = [
        (u, v) for u, v, wt in edges
        if wt < 2 * w or not any(h in apex for h, _ in near[u] if (h, w) in near[v])
    ]
    tree = nx.Graph(kept)
    tree.add_nodes_from(range(graph.n))
    return len(kept) == graph.n - 1 and nx.is_connected(tree)


def _assert_rows_match_networkx(graph, sources):
    nx = pytest.importorskip("networkx")
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_weighted_edges_from(graph.edges)
    for s in sources:
        ref = nx.single_source_dijkstra_path_length(g, s)
        assert graph.distances_from(s).tolist() == [ref[v] for v in range(graph.n)]


@settings(max_examples=60, deadline=None)
@given(st.one_of(connected_graphs(), trees_with_chords()))
def test_distances_and_edge_weights_match_networkx_on_random_graphs(g):
    _assert_rows_match_networkx(g, range(g.n))


@pytest.mark.parametrize("h", [(1,), (1, 2)])
def test_coned_f2_distances_match_networkx(f2, h):
    coned = coned_off(ball(f2, 4), [CyclicSubgroup(h)])
    _assert_rows_match_networkx(coned.graph, range(0, coned.graph.n, 7))


def test_factor_coned_distances_match_networkx():
    P = FreeProduct([FreeAbelian(2), FreeAbelian(1)])
    coned = coned_off(ball(P, 3), [FactorSubgroup(0), FactorSubgroup(1)])
    _assert_rows_match_networkx(coned.graph, range(0, coned.graph.n, 5))


def _mask_level_bfs(n, indptr, nbr, wt, weights, seeds, d0):
    """The mask-based level BFS that the frontier-sized ``_level_bfs``
    replaced, kept as an oracle: each level marks its queue in an n-vertex
    mask, clears the reached vertices and collects the rest with
    ``flatnonzero``, two passes over all n vertices."""
    dist = np.full(n, -1, dtype=np.int64)
    mark = np.zeros(n, dtype=bool)
    levels = {d0: [np.asarray(seeds)]}
    while levels:
        d = min(levels)
        mark[np.concatenate(levels.pop(d))] = True
        mark &= dist < 0
        frontier = np.flatnonzero(mark)
        mark[frontier] = False
        dist[frontier] = d
        start = indptr[frontier]
        count = indptr[frontier + 1] - start
        arcs = np.arange(int(count.sum())) + np.repeat(start - (np.cumsum(count) - count), count)
        arcs = arcs[dist[nbr[arcs]] < 0]
        for w in weights:
            head = nbr[arcs if len(weights) == 1 else arcs[wt[arcs] == w]]
            if len(head):
                levels.setdefault(d + w, []).append(head)
    return dist


def _scipy_distances(graph, sources):
    """scipy's shortest paths over the graph's edge list, -1 unreached."""
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    sparse = pytest.importorskip("scipy.sparse")
    u, v, w = np.array(graph.edges, dtype=np.int64).reshape(-1, 3).T
    matrix = sparse.coo_matrix((w, (u, v)), shape=(graph.n, graph.n)).tocsr()
    ref = csgraph.shortest_path(matrix, directed=False, indices=list(sources))
    return np.where(np.isinf(ref), -1, ref).astype(np.int64).reshape(len(sources), graph.n)


def _assert_rows_match_plain_bfs_and_scipy(graph, sources):
    """Rows equal the mask-based level BFS over the graph's own arcs,
    scipy's shortest paths over its edge list, and the lane BFS over the
    graph's own arcs, one source at a time and all sources as lanes of one
    sweep, in the lane BFS's dtype."""
    sources = list(sources)
    ref = _scipy_distances(graph, sources)
    n, k = graph.n, len(sources)
    lanes = cayley._level_bfs(graph._csr, np.arange(k) * n + sources, k).reshape(k, n)
    assert lanes.tolist() == ref.tolist()
    for s, want in zip(sources, ref):
        oracle = _mask_level_bfs(n, graph._indptr, graph._nbr, graph._wt, graph._weights, [s], 0)
        lane = cayley._level_bfs(graph._csr, [s])
        row = graph.distances_from(s)
        assert row.tolist() == oracle.tolist() == lane.tolist() == want.tolist()
        assert row.dtype == lane.dtype


@settings(max_examples=100, deadline=None)
@given(st.one_of(connected_graphs(), trees_with_chords()))
def test_rows_match_plain_bfs_and_scipy_on_random_graphs(g):
    assert (g._tree is not None) == _is_tree_once_dominated_arcs_drop(g)
    _assert_rows_match_plain_bfs_and_scipy(g, range(g.n))


_Z2_Z3 = FreeProduct([cyclic_group(2), cyclic_group(3)])
_Z1_Z3 = FreeProduct([FreeAbelian(1), cyclic_group(3)])
_HEIS = heisenberg_group()

# name -> (ball, cones (none for the Cayley graph), whether the tree path is
# taken)
_APEX_CASES = {
    "F2 r=4 Cayley": (lambda: ball(FreeGroup(2), 4), [], True),
    "F2 r=4 <a>": (lambda: ball(FreeGroup(2), 4), [CyclicSubgroup((1,))], True),
    "F2 r=4 <a>,<b>": (
        lambda: ball(FreeGroup(2), 4), [CyclicSubgroup((1,)), CyclicSubgroup((2,))], True,
    ),
    "Z2*Z3 r=4 factors": (lambda: ball(_Z2_Z3, 4), [FactorSubgroup(0), FactorSubgroup(1)], True),
    "Z*Z3 r=4 factors": (lambda: ball(_Z1_Z3, 4), [FactorSubgroup(0), FactorSubgroup(1)], True),
    # consecutive members of a coset of <ab> are not adjacent: nothing drops
    "F2 r=4 <ab>": (lambda: ball(FreeGroup(2), 4), [CyclicSubgroup((1, 2))], False),
    "Heisenberg r=3 <a>": (
        lambda: ball(_HEIS, 3), [CyclicSubgroup(_HEIS.parse_element("1,0|0"))], False,
    ),
    # wide cosets: the apex pairs would outnumber the arcs
    "Z^2 r=6 <(1,0)>": (lambda: ball(FreeAbelian(2), 6), [CyclicSubgroup((1, 0))], False),
}


@pytest.mark.parametrize("name", list(_APEX_CASES))
def test_coned_rows_with_apexes_match_plain_bfs_and_scipy(name):
    make, cones, tree = _APEX_CASES[name]
    b = make()
    if cones:
        coned = coned_off(b, cones)
        g, cone_start = coned.graph, coned.cone_start
    else:
        g, cone_start = cayley_graph(b), len(b)
    assert (g._tree is not None) == tree
    # ball sources, and cone-vertex sources of every factor
    sources = [*range(0, cone_start, 7), *range(cone_start, g.n, 3), g.n - 1]
    _assert_rows_match_plain_bfs_and_scipy(g, sources)


def _assert_matrix_matches_scipy_and_rows(graph, vertices):
    """The many-source matrix equals scipy's shortest paths and the rows
    of ``distances_from``."""
    verts = list(range(graph.n)) if vertices is None else list(vertices)
    D = graph.distance_matrix_scaled(vertices)
    assert D.dtype == np.int64 and D.shape == (len(verts), len(verts))
    if verts:
        assert D.tolist() == _scipy_distances(graph, verts)[:, verts].tolist()
    assert D.tolist() == [graph.distances_from(v)[verts].tolist() for v in verts]


@settings(max_examples=60, deadline=None)
@given(connected_graphs(), st.data())
def test_distance_matrix_matches_scipy_and_rows_on_random_graphs(g, data):
    _assert_matrix_matches_scipy_and_rows(g, None)
    picks = data.draw(st.lists(st.integers(0, g.n - 1), max_size=12))
    _assert_matrix_matches_scipy_and_rows(g, picks)


# name -> (ball, cones, whether the tree path is taken)
_MATRIX_CASES = {
    "F2 r=4 <a>": (lambda: ball(FreeGroup(2), 4), [CyclicSubgroup((1,))], True),
    "F2 r=4 <ab>": (lambda: ball(FreeGroup(2), 4), [CyclicSubgroup((1, 2))], False),
    "Z2*Z3 r=4 factors": (lambda: ball(_Z2_Z3, 4), [FactorSubgroup(0), FactorSubgroup(1)], True),
    # wide cosets: the apex pairs would outnumber the arcs, so nothing drops
    "Z^2*Z r=3 factors": (
        lambda: ball(FreeProduct([FreeAbelian(2), FreeAbelian(1)]), 3),
        [FactorSubgroup(0), FactorSubgroup(1)],
        False,
    ),
}


@pytest.mark.parametrize("lanes", ["default", "one row", "ragged"])
@pytest.mark.parametrize("name", list(_MATRIX_CASES))
def test_coned_distance_matrix_matches_scipy_and_rows(name, lanes, monkeypatch):
    make, cones, tree = _MATRIX_CASES[name]
    coned = coned_off(make(), cones)
    g = coned.graph
    assert (g._tree is not None) == tree
    # ball and cone vertices, with repeats; 52 vertices, not a multiple of 3
    verts = [*range(0, coned.cone_start, 9), *range(coned.cone_start, g.n, 7)]
    verts = (verts * 3)[:50] + [g.n - 1, 0]
    assert len(verts) % 3 and max(verts[:50]) >= coned.cone_start
    if lanes == "one row":
        monkeypatch.setattr(cayley, "_LANE_BLOCK", 1)
    elif lanes == "ragged":
        monkeypatch.setattr(cayley, "_LANE_BLOCK", 3 * g.n)  # three lanes a sweep
    _assert_matrix_matches_scipy_and_rows(g, verts)
    _assert_matrix_matches_scipy_and_rows(g, [])


def test_vertices_outside_the_graph_rejected():
    g = MetricGraph(3, [(0, 1, 2), (1, 2, 2)])  # the path 0-1-2
    calls = [
        (g.distances_from, (-1,), -1),
        (g.distances_from, (3,), 3),
        (g.distance, (-1, 0), -1),
        (g.distance_scaled, (0, 3), 3),
        (g.distance_matrix_scaled, ([0, 3],), 3),
        (g.distance_matrix_scaled, ([1, -1],), -1),
        (g.distances_from, (1.0,), 1.0),
        (g.distance_matrix_scaled, (["1"],), "1"),
    ]
    for fn, args, bad in calls:
        with pytest.raises(DomainError, match=re.escape(f"no vertex {bad!r} in a graph of 3 vertices")):
            fn(*args)
    assert g.distances_from(np.int64(2)).tolist() == [4, 2, 0]


def test_disconnected_graph_with_an_apex_rejected():
    # vertex 2 is an apex (all its arcs have the least weight, 1)
    with pytest.raises(DomainError, match="connected"):
        MetricGraph(5, [(0, 1, 2), (0, 2, 1), (1, 2, 1), (3, 4, 2)])


def test_disconnected_graph_rejected():
    with pytest.raises(DomainError):
        MetricGraph(4, [(0, 1, 2), (2, 3, 1)])
    with pytest.raises(DomainError):
        MetricGraph(3, [(0, 1, 2)])


def test_disconnected_graph_with_n_minus_1_edges_rejected():
    # a triangle and a lone vertex: n - 1 edges, but no tree
    with pytest.raises(DomainError, match="connected"):
        MetricGraph(4, [(0, 1, 2), (1, 2, 2), (0, 2, 2)])


# -- coned-off graphs ----------------------------------------------------------


def test_coned_off_f2_cyclic_a(f2):
    b = ball(f2, 4)
    coned = coned_off(b, [CyclicSubgroup((1,), label="<a>")])
    e = b.index[()]
    a4 = b.index[(1, 1, 1, 1)]
    assert coned.distance(e, a4) == 1  # two half-edges through the cone
    b5 = ball(f2, 5)
    coned5 = coned_off(b5, [CyclicSubgroup((1,), label="<a>")])
    ba4 = b5.index[(2, 1, 1, 1, 1)]
    # shortest-path oracle on the assembled graph (plain Dijkstra recheck)
    assert coned5.distance(b5.index[()], ba4) == 2


def test_coned_distance_never_exceeds_cayley(f2):
    b = ball(f2, 3)
    coned = coned_off(b, [CyclicSubgroup((1,), label="<a>")])
    base = cayley_graph(b)
    for i in range(0, len(b), 5):
        for j in range(0, len(b), 7):
            assert coned.distance(i, j) <= base.distance(i, j)


def _cones(coned):
    """(factor, coset id) per cone vertex, in vertex order: factor by factor,
    each factor's by coset id."""
    return [(fi, cid) for fi, members in enumerate(coned.coset_members) for cid in range(len(members))]


def _coset_ids(coned):
    """Per factor, the coset id of each ball element, read off ``coset_members``."""
    out = []
    for members in coned.coset_members:
        ids = [-1] * len(coned.ball)
        for cid, group in enumerate(members):
            for i in group:
                ids[i] = cid
        out.append(ids)
    return out


def test_coned_off_builds_one_metric_graph(f2, monkeypatch):
    built = []

    class Counting(MetricGraph):
        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cayley, "MetricGraph", Counting)
    coned = coned_off(ball(f2, 3), [CyclicSubgroup((1,)), CyclicSubgroup((2,))])
    assert built == [coned.graph.n]
    assert coned.cone_start == len(coned.ball) == coned.graph.n - len(_cones(coned))
    assert coned.summary()["cone_vertices"] == len(_cones(coned))


@pytest.mark.parametrize(
    "model,index,message",
    [
        (FreeGroup(2), 0, "H0: factor subgroups need a free product group"),
        (FreeProduct([cyclic_group(2), cyclic_group(3)]), 5, "H5: factor index 5 must be an integer in [0, 2)"),
        (FreeProduct([cyclic_group(2), cyclic_group(3)]), -1, "H-1: factor index -1 must be an integer in [0, 2)"),
        (FreeProduct([cyclic_group(2), cyclic_group(3)]), True, "HTrue: factor index True must be an integer in [0, 2)"),
    ],
    ids=["F2", "Z2*Z3-5", "Z2*Z3-negative", "Z2*Z3-bool"],
)
def test_factor_subgroup_outside_the_model_is_a_config_error(model, index, message):
    b = ball(model, 2)
    with pytest.raises(ConfigError) as exc:
        coned_off(b, [CyclicSubgroup(model.generator_elements()[0]), FactorSubgroup(index)])
    assert str(exc.value) == message


def test_coned_cone_count_matches_membership_oracle():
    P = FreeProduct([FreeAbelian(2), FreeAbelian(1)])
    b = ball(P, 3)
    coned = coned_off(b, [FactorSubgroup(0)])
    oracle = FactorSubgroup(0)
    reps = []
    for e in b.elements:
        if not any(
            oracle.contains(P, P.multiply(P.inverse(r), e)) for r in reps
        ):
            reps.append(e)
    assert coned.summary()["cone_vertices"] == len(reps)
    # every cone vertex joins exactly the ball elements of its coset
    for ci, (fi, cid) in enumerate(_cones(coned)):
        members = set(coned.coset_members[fi][cid])
        attached = {
            u if v == coned.cone_start + ci else v
            for u, v, w in coned.graph.edges
            if w == 1 and coned.cone_start + ci in (u, v)
        }
        assert attached == members


def test_inconsistent_oracle_rejected(f2):
    class Broken(CyclicSubgroup):
        def contains(self, model, elem):
            return elem in ((), (1,))  # not closed: a*a missing

    b = ball(f2, 2)
    with pytest.raises(OracleInconsistency, match="not closed under inverses"):
        coned_off(b, [Broken((1,))])


class _MergingKey(CyclicSubgroup):
    """Puts b into the coset of e."""

    def coset_key(self, model, elem):
        return super().coset_key(model, () if elem == (2,) else elem)


class _SplittingKey(CyclicSubgroup):
    """Splits every coset by the parity of the element's length."""

    def coset_key(self, model, elem):
        return super().coset_key(model, elem), len(elem) % 2


def test_coset_key_merging_two_cosets_is_rejected(f2):
    with pytest.raises(OracleInconsistency, match="coset key groups non-equivalent elements"):
        coned_off(ball(f2, 2), [_MergingKey((1,))])


def test_coset_key_splitting_a_coset_is_rejected(f2):
    with pytest.raises(OracleInconsistency, match="coset key splits one coset in two"):
        coned_off(ball(f2, 2), [_SplittingKey((1,))])


@pytest.fixture(scope="module")
def f2_ball5(f2):
    return ball(f2, 5)


# Oracles: the membership test of Z^n and two-step nilpotent groups and the
# generic coset scan that the per-class coset keys replaced.


def _torsion_free_power_check(model, g, elem):
    """Solve elem = g^k for k on the first nonzero coordinate of g, then
    check g^k exactly.  In a two-step nilpotent group that coordinate lies
    in the base part, which is linear in k, unless g is central."""
    if elem == model.identity():
        return True
    if g == model.identity():
        return False
    x, y = _coordinates(model, g), _coordinates(model, elem)
    t = next(t for t, v in enumerate(x) if v)
    k, rem = divmod(y[t], x[t])
    return rem == 0 and _step_power(model, g, k) == elem


def _generic_scan(b, member):
    """Coset ids in ball order: compare each element with one representative
    per known coset."""
    model = b.model
    ids, reps = [], []
    for e in b.elements:
        for cid, r in enumerate(reps):
            if member(model.multiply(model.inverse(r), e)):
                break
        else:
            cid = len(reps)
            reps.append(e)
        ids.append(cid)
    return ids


# model, ball radius, generators: the identity, central elements, proper
# powers and elements with a conjugating prefix
_CYCLIC_CASES = {
    "F2": (FreeGroup(2), 5, ["a", "ab", "aa", "baB", "abAB", "e"]),
    "Z^2": (FreeAbelian(2), 6, ["e", "1,0", "2,-2", "0,3", "-3,1"]),
    "Heisenberg": (heisenberg_group(), 4,
                   ["e", "0,0|1", "0,0|2", "2,0|0", "1,1|0", "1,0|1", "0,-1|0"]),
    "S3": (symmetric_group_3(), 3, ["e", "(123)", "(12)", "(13)"]),
    "Z6": (cyclic_group(6), 3, ["e", "g", "g2", "g3"]),
    "Z2*Z3": (FreeProduct([cyclic_group(2), cyclic_group(3)]), 8,
              ["e", "1:g2", "0:g*1:g", "0:g*1:g*0:g*1:g", "1:g*0:g*1:g2", "0:g*1:g*0:g*1:g2*0:g"]),
    "Z*Z3": (FreeProduct([FreeAbelian(1), cyclic_group(3)]), 4,
             ["e", "0:1", "0:2", "0:1*1:g", "1:g*0:1*1:g2", "1:g*0:1*1:g*0:-1*1:g2"]),
    "F2*Z6": (FreeProduct([FreeGroup(2), cyclic_group(6)]), 3,
              ["e", "1:g3", "0:aa", "0:a*1:g", "0:b*1:g2*0:B", "0:a*1:g*0:a*1:g"]),
    "Z^2*Z3": (FreeProduct([FreeAbelian(2), cyclic_group(3)]), 3,
               ["e", "0:1,0", "0:2,-2", "0:1,0*1:g", "1:g*0:0,1*1:g2"]),
}
# F2's cases keep their ids h0..h4
_CYCLIC_IDS = [
    f"h{i}" if name == "F2" else f"{name}-h{i}"
    for name, (_, _, gens) in _CYCLIC_CASES.items()
    for i in range(len(gens))
]
_CYCLIC_PARAMS = [(name, text) for name, (_, _, gens) in _CYCLIC_CASES.items() for text in gens]


@functools.cache
def _case_ball(name):
    model, radius, _ = _CYCLIC_CASES[name]
    return ball(model, radius)


def _cyclic_case(name, text):
    """(ball, h, membership oracle for differences of ball elements)."""
    b = _case_ball(name)
    model = b.model
    h = model.parse_element(text)
    if isinstance(model, (FreeAbelian, TwoStepNilpotent)):
        return b, h, functools.partial(_torsion_free_power_check, model, h)
    # a power h^k of length at most 2r has |k| <= 2r, or k below the order
    # of a finite factor (at most 6)
    return b, h, _powers(model, h, 2 * b.radius + 6).__contains__


@pytest.mark.parametrize("name,text", _CYCLIC_PARAMS, ids=_CYCLIC_IDS)
def test_coset_key_partition_matches_membership_oracle(name, text):
    b, h, member = _cyclic_case(name, text)
    model, elems = b.model, b.elements
    keys = [CyclicSubgroup(h).coset_key(model, g) for g in elems]
    wrong = [
        (i, j)
        for i, g in enumerate(elems)
        for j in range(i + 1, len(elems))
        if (keys[i] == keys[j]) != member(model.multiply(model.inverse(g), elems[j]))
    ]
    assert wrong == []


@pytest.mark.parametrize("name,text", _CYCLIC_PARAMS, ids=_CYCLIC_IDS)
def test_coned_off_by_coset_key_equals_generic_scan(name, text):
    b, h, member = _cyclic_case(name, text)
    keyed = coned_off(b, [CyclicSubgroup(h, "H")])
    ids = _generic_scan(b, member)
    assert _coset_ids(keyed) == [ids]
    assert keyed.summary()["cone_vertices"] == max(ids) + 1
    cone_edges = {(i, len(b) + cid, 1) for i, cid in enumerate(ids)}
    assert keyed.graph.edges == sorted(set(_oracle_cayley_edges(b)) | cone_edges)


def _oracle_cosets(b, oracle):
    """The per-element coset builder that the table's chains replaced: one
    key per element, cosets numbered in ball order, then consecutive
    members of each coset checked with ``contains``."""
    model, elems = b.model, b.elements
    key_to_id: dict = {}
    ids = [key_to_id.setdefault(oracle.coset_key(model, e), len(key_to_id)) for e in elems]
    members: list[list[int]] = [[] for _ in key_to_id]
    for i, cid in enumerate(ids):
        members[cid].append(i)
    for group in members:
        for i, j in zip(group, group[1:]):
            assert oracle.contains(model, model.multiply(model.inverse(elems[i]), elems[j]))
    return ids, members


# beyond the cyclic cases: in Z^2 r=4, (0,-4)*(1,0) leaves the ball on the way
# to (0,-4)*(1,1), so the chains of <(1,1)> break and merge by key; (3,2),
# aaaab and (1,1)|0 lie outside their balls, so no chain joins two elements
_CHAIN_CASES = [(functools.partial(_case_ball, name), name, text) for name, text in _CYCLIC_PARAMS] + [
    (functools.partial(ball, FreeAbelian(2), 4), "Z^2 r=4", "1,1"),
    (functools.partial(ball, FreeAbelian(2), 4), "Z^2 r=4", "3,2"),
    (functools.partial(ball, FreeGroup(2), 3), "F2 r=3", "aaaab"),
    (functools.partial(ball, heisenberg_group(), 1), "Heisenberg r=1", "1,1|0"),
]


@pytest.mark.parametrize(
    "make,text", [(make, text) for make, _, text in _CHAIN_CASES],
    ids=[f"{name}-{text}" for _, name, text in _CHAIN_CASES],
)
def test_coned_off_matches_per_element_builder(make, text):
    b = make()
    oracle = CyclicSubgroup(b.model.parse_element(text), "H")
    coned = coned_off(b, [oracle])
    ids, members = _oracle_cosets(b, oracle)
    assert _coset_ids(coned) == [ids]
    assert coned.coset_members == [members]
    assert coned.summary()["cone_vertices"] == len(members)
    cone_edges = {(i, len(b) + cid, 1) for i, cid in enumerate(ids)}
    assert coned.graph.edges == sorted(set(_oracle_cayley_edges(b)) | cone_edges)


class _CountingKey(CyclicSubgroup):
    def coset_key(self, model, elem):
        self.calls = getattr(self, "calls", 0) + 1
        return super().coset_key(model, elem)


def test_coset_key_is_called_once_per_chain(f2, monkeypatch):
    monkeypatch.setattr(cayley, "REP_VERIFY_LIMIT", 0)  # no split checks, which call it again
    # each coset of <a> meets an F2 ball in one chain, so a tree needs no key
    oracle = _CountingKey((1,))
    coned = coned_off(ball(f2, 5), [oracle])
    assert getattr(oracle, "calls", 0) == 0
    assert coned.summary()["cone_vertices"] == 3**5
    # (0,-4) and (1,-3) lie in one coset of <(1,1)> but in two chains
    oracle = _CountingKey((1, 1))
    coned = coned_off(ball(FreeAbelian(2), 4), [oracle])
    assert oracle.calls > len(_cones(coned))
    ids = _coset_ids(coned)[0]
    assert ids[coned.ball.index[(0, -4)]] == ids[coned.ball.index[(1, -3)]]


@pytest.mark.parametrize("limit", [cayley.REP_VERIFY_LIMIT, 0], ids=["default-limit", "limit-0"])
@pytest.mark.parametrize("radius", [3, 6])
@pytest.mark.parametrize("text", ["e", "a", "ab", "baB", "aa"])
def test_tree_cosets_without_keys_match_per_element_builder(f2, monkeypatch, text, radius, limit):
    monkeypatch.setattr(cayley, "REP_VERIFY_LIMIT", limit)
    b = ball(f2, radius)
    oracle = _CountingKey(f2.parse_element(text))
    coned = coned_off(b, [oracle])
    # past the limit no check needs a key, and each chain is a coset
    if len(_cones(coned)) > limit:
        assert getattr(oracle, "calls", 0) == 0
    ids, members = _oracle_cosets(b, CyclicSubgroup(oracle.generator))
    assert _coset_ids(coned) == [ids]
    assert coned.coset_members == [members]


def test_tree_cosets_of_a_generator_outside_the_ball_are_keyed(f2):
    # |a^7| = 7 > 6, so no chain joins two elements, yet a^-4 and a^3 share a coset
    b = ball(f2, 6)
    oracle = _CountingKey((1,) * 7)
    coned = coned_off(b, [oracle])
    assert oracle.calls == len(b) > cayley.REP_VERIFY_LIMIT
    ids, members = _oracle_cosets(b, CyclicSubgroup(oracle.generator))
    assert _coset_ids(coned) == [ids]
    assert coned.coset_members == [members]
    assert ids[b.index[(-1,) * 4]] == ids[b.index[(1,) * 3]]


def _contains_by_building_powers(model, pre, core, elem):
    """The membership test of ``_periodic_cyclic`` with c^k and c^-k built
    on every call."""
    y = model.multiply(model.inverse(pre), model.multiply(elem, pre)) if pre else elem
    k, rem = divmod(len(y), len(core))
    return not rem and y in (core * k, model.inverse(core) * k)


_PERIODIC_CASES = [
    (FreeGroup(2), 5, ["a", "B", "ab", "aB", "aa", "baB", "abAB", "bbaBB"]),
    (FreeGroup(3), 4, ["c", "abc", "Cac", "acAC", "bcb"]),
    (FreeProduct([cyclic_group(2), cyclic_group(3)]), 6, ["0:g*1:g", "0:g*1:g2", "0:g*1:g*0:g*1:g2"]),
    # a third factor lets a core of two syllables be conjugated
    (FreeProduct([cyclic_group(2), cyclic_group(3), FreeGroup(1)]), 4, ["2:a*0:g*1:g*2:A", "0:g*2:aa"]),
]


@pytest.mark.parametrize(
    "model,radius,text",
    [(m, r, t) for m, r, texts in _PERIODIC_CASES for t in texts],
    ids=[f"{m!r}-{t}" for m, _, texts in _PERIODIC_CASES for t in texts],
)
def test_periodic_contains_matches_built_powers(model, radius, text):
    h = model.parse_element(text)
    if isinstance(model, FreeGroup):
        pre, core = cyclic_reduce(h)
    else:
        pre, core = model.cyclic_syllable_reduce(h)
        assert len(core) > 1  # the periodic case, not a single syllable
    oracle = CyclicSubgroup(h)
    elems = ball(model, radius).elements
    expect = [_contains_by_building_powers(model, pre, core, e) for e in elems]
    assert any(expect)
    for _ in range(2):  # the second pass reads the powers built by the first
        assert [oracle.contains(model, e) for e in elems] == expect


# -- four-point condition ------------------------------------------------------


def test_delta_zero_on_trees(f2):
    for r in (2, 3):
        assert estimate_delta_4point(cayley_graph(ball(f2, r))) == 0


def test_delta_single_edge():
    from ggtkit.cayley import MetricGraph

    g = MetricGraph(2, [(0, 1, 2)])
    assert estimate_delta_4point(g) == 0


def test_delta_positive_on_z2_ball(z2):
    # frozen regression constant from the exhaustive quadruple scan
    d = estimate_delta_4point(cayley_graph(ball(z2, 4)))
    assert d == Fraction(4)


def test_delta_matches_slow_oracle(z2):
    g = cayley_graph(ball(z2, 2))
    n = g.n
    D = [[g.distance_scaled(i, j) for j in range(n)] for i in range(n)]
    best = 0
    for x, y, zz, w in itertools.product(range(n), repeat=4):
        s = sorted([D[x][y] + D[zz][w], D[x][zz] + D[y][w], D[x][w] + D[y][zz]])
        best = max(best, s[2] - s[1])
    assert estimate_delta_4point(g) == Fraction(best, 4)


def _brute_force_defect(D):
    n = len(D)
    best = 0
    for x, y, zz, w in itertools.product(range(n), repeat=4):
        s = sorted([D[x][y] + D[zz][w], D[x][zz] + D[y][w], D[x][w] + D[y][zz]])
        best = max(best, s[2] - s[1])
    return best


def test_reduced_sweep_matches_brute_force_on_coned_graph(f2, monkeypatch):
    coned = coned_off(ball(f2, 2), [CyclicSubgroup((1, 2))])
    assert {w for _, _, w in coned.graph.edges} == {1, 2}
    D = coned.graph.distance_matrix_scaled()
    expected = _brute_force_defect(D.tolist())
    assert expected > 0
    for block in (1, 64, cayley._SWEEP_BLOCK):  # one x per block, a few, all
        monkeypatch.setattr(cayley, "_SWEEP_BLOCK", block)
        assert _four_point_max_defect(D) == expected


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_n=8))
def test_reduced_sweep_matches_brute_force_on_random_metrics(g):
    D = g.distance_matrix_scaled()
    expected = _brute_force_defect(D.tolist())
    assert _four_point_max_defect(D) == expected
    # large distances take the int64 path
    assert _four_point_max_defect(D * 10**9) == expected * 10**9


class _DtypeSpy:
    """Stands in for numpy inside ``cayley`` and records the dtype that
    each ``asarray`` call asks for."""

    def __init__(self):
        self.dtypes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def asarray(self, a, dtype=None):
        self.dtypes.append(np.dtype(dtype))
        return np.asarray(a, dtype=dtype)


def _random_metric(rng, n):
    """Shortest paths of a complete graph with random weights in 1..9."""
    W = rng.integers(1, 10, size=(n, n))
    W = np.minimum(W, W.T)
    np.fill_diagonal(W, 0)
    for k in range(n):
        W = np.minimum(W, W[:, k, None] + W[None, k, :])
    return W


@pytest.mark.parametrize(
    "top,dtype",
    [(2**15 - 2, np.int16), (2**15 + 4, np.int32), (2**31 + 4, np.int64)],
)
def test_sweep_dtype_rule_matches_brute_force_at_its_bounds(top, dtype, monkeypatch):
    spy = _DtypeSpy()
    monkeypatch.setattr(cayley, "np", spy)
    rng = np.random.default_rng(top)
    for n in (4, 5, 6, 7, 7, 7):
        D0 = _random_metric(rng, n)
        # k·D0 plus c off the diagonal is still a metric, with 6·max = top
        k, c = divmod(top // 6, int(D0.max()))
        D = k * D0 + c * (1 - np.eye(n, dtype=np.int64))
        assert 6 * int(D.max()) == top
        spy.dtypes.clear()
        assert _four_point_max_defect(D) == _brute_force_defect(D.tolist())
        assert spy.dtypes == [np.dtype(dtype)]


def test_exhaustive_delta_on_z2_reads_no_single_row(monkeypatch):
    sources = []
    row = MetricGraph.distances_from

    def counted(self, source):
        sources.append(source)
        return row(self, source)

    monkeypatch.setattr(MetricGraph, "distances_from", counted)
    g = cayley_graph(ball(FreeAbelian(2), 6))
    assert max(map(len, g.blocks)) == 81
    assert estimate_delta_4point(g, exhaustive=True) == 6
    # the constructors check connectivity with their own root rows, and the
    # block's matrix is one many-source sweep
    assert sources == []


@st.composite
def glued_graphs(draw):
    """Pieces from ``connected_graphs`` glued one at a time at a shared
    vertex, so the result has cut vertices; weights in {1, 2, 3}."""
    edges, n = [], 0
    for _ in range(draw(st.integers(1, 4))):
        piece = draw(connected_graphs(max_n=6))
        glue = draw(st.integers(0, n - 1)) if n else 0
        fresh = max(n, 1)
        index = [glue] + list(range(fresh, fresh + piece.n - 1))
        edges += [(index[u], index[v], w) for u, v, w in piece.edges]
        n = fresh + piece.n - 1
    return MetricGraph(n, edges)


def _block_oracle_graphs():
    f2, z2 = FreeGroup(2), FreeAbelian(2)
    return {
        "F2 r=3": cayley_graph(ball(f2, 3)),
        "Z2 r=4": cayley_graph(ball(z2, 4)),
        "coned F2 r=3 <a>": coned_off(ball(f2, 3), [CyclicSubgroup((1,))]).graph,
        "coned F2 r=3 <ab>": coned_off(ball(f2, 3), [CyclicSubgroup((1, 2))]).graph,
    }


def _assert_blocks_match_networkx(g):
    nx = pytest.importorskip("networkx")
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from((u, v) for u, v, _ in g.edges)
    want = sorted(sorted(c) for c in nx.biconnected_components(ref))
    assert sorted(sorted(b) for b in g.blocks) == want


def _assert_delta_by_blocks_is_whole_graph_delta(g):
    want = _four_point_max_defect(g.distance_matrix_scaled())
    assert estimate_delta_4point(g, exhaustive=True) == Fraction(want, 4)


@pytest.mark.parametrize("name", list(_block_oracle_graphs()))
def test_blocks_and_block_delta_match_oracles_on_cayley_and_coned_graphs(name):
    g = _block_oracle_graphs()[name]
    _assert_blocks_match_networkx(g)
    _assert_delta_by_blocks_is_whole_graph_delta(g)


@settings(max_examples=60, deadline=None)
@given(glued_graphs())
def test_blocks_and_block_delta_match_oracles_on_glued_graphs(g):
    _assert_blocks_match_networkx(g)
    _assert_delta_by_blocks_is_whole_graph_delta(g)
    _assert_rows_match_networkx(g, range(g.n))


def test_block_cap_decides_the_exhaustive_sweep(f2, z2):
    tree = cayley_graph(ball(f2, 5))  # 485 vertices, every block one edge
    assert exhaustive_fits(tree, 2)
    assert estimate_delta_4point(tree, exhaustive=True, exhaustive_cap=2) == 0
    grid = cayley_graph(ball(z2, 3))  # 25 vertices, largest block 21
    assert exhaustive_fits(grid, 21) and not exhaustive_fits(grid, 20)
    with pytest.raises(ResourceCapError):
        estimate_delta_4point(grid, exhaustive=True, exhaustive_cap=20)
    # three 4-cycles in a chain, glued at 3 and 6, plus a triangle and a
    # pendant edge that the sweep skips: 13 vertices, 10 of them swept
    square = [(0, 1), (1, 2), (2, 3), (3, 0)]
    edges = [(u + k, v + k, 1) for k in (0, 3, 6) for u, v in square]
    edges += [(9, 10, 1), (10, 11, 1), (11, 9, 1), (11, 12, 1)]
    chain = MetricGraph(13, edges)
    assert max(map(len, chain.blocks)) == 4
    assert exhaustive_fits(chain, 10) and not exhaustive_fits(chain, 9)
    assert estimate_delta_4point(chain, exhaustive_cap=10) == Fraction(1, 2)
    with pytest.raises(ResourceCapError):
        estimate_delta_4point(chain, exhaustive=True, exhaustive_cap=9)


def test_rows_past_int32_take_the_int64_path():
    nx = pytest.importorskip("networkx")
    edges = [(0, 1, 2**31 - 1), (1, 2, 5), (0, 3, 1), (3, 2, 2**31 + 7)]
    g = MetricGraph(4, edges)
    ref = nx.Graph()
    ref.add_weighted_edges_from(edges)
    for s in range(4):
        row = g.distances_from(s)
        assert row.dtype == np.int64
        want = nx.single_source_dijkstra_path_length(ref, s)
        assert row.tolist() == [want[v] for v in range(4)]


@pytest.mark.parametrize("w,dtype", [(2**31 - 1, np.int32), (2**31, np.int64)], ids=["int32", "int64"])
def test_row_dtype_follows_the_distance_bound(w, dtype):
    # (n - 1)·max weight bounds every distance: here the one edge's weight
    g = MetricGraph(2, [(0, 1, w)])
    assert g._tree is not None
    assert cayley._level_bfs(g._csr, [0]).dtype == dtype
    row = g.distances_from(1)
    assert row.dtype == dtype and row.tolist() == [w, 0]


def test_tree_rows_near_the_int32_bound_do_not_overflow():
    # every distance fits int32, but D[s] + D[v] from the root row does not
    nx = pytest.importorskip("networkx")
    w = 2**30 - 1
    edges = [(0, 1, w), (1, 2, w)]
    g = MetricGraph(3, edges)
    assert g._tree is not None
    ref = nx.Graph()
    ref.add_weighted_edges_from(edges)
    for s in range(3):
        row = g.distances_from(s)
        assert row.dtype == np.int32
        want = nx.single_source_dijkstra_path_length(ref, s)
        assert row.tolist() == [want[v] for v in range(3)]


def test_coned_rows_with_apexes_are_int32():
    # <ab> is not a tree, so its rows are lanes of one BFS over the graph
    coned = coned_off(ball(FreeGroup(2), 4), [CyclicSubgroup((1, 2))])
    g = coned.graph
    sources = np.array([0, coned.cone_start, g.n - 1])
    rows = g._rows(sources)
    assert g._tree is None and rows.dtype == np.int32
    assert rows.tolist() == _scipy_distances(g, sources.tolist()).tolist()


def test_reduced_rows_take_the_whole_graphs_dtype():
    # vertex 0 is an apex, and a shortcut 1 -> 2 of weight 2^30 through it
    # would bound distances by 3·2^30 >= 2^31; the graph's own bound is
    # 3·(2^29 + 1), and its rows are int32
    nx = pytest.importorskip("networkx")
    edges = [(0, 1, 2**29), (0, 2, 2**29), (1, 3, 2**29 + 1), (2, 3, 2**29 + 1)]
    g = MetricGraph(4, edges)
    assert g._tree is None
    ref = nx.Graph()
    ref.add_weighted_edges_from(edges)
    for s in range(4):
        row = g.distances_from(s)
        assert row.dtype == cayley._level_bfs(g._csr, [s]).dtype == np.int32
        want = nx.single_source_dijkstra_path_length(ref, s)
        assert row.tolist() == [want[v] for v in range(4)]


def test_empty_and_one_vertex_graphs_build():
    g = MetricGraph(0, [])
    assert g.edges == [] and g.blocks == [] and g.distance_matrix_scaled().shape == (0, 0)
    g = MetricGraph(1, [])
    assert g.distances_from(0).tolist() == [0] and g.distance_matrix_scaled().tolist() == [[0]]
    with pytest.raises(DomainError, match="connected"):
        MetricGraph(2, [])


# name -> (graph, whether the tree path is taken)
_PATH_CASES = {
    "tree": (lambda: cayley_graph(ball(FreeGroup(2), 2)), True),
    "coned": (lambda: coned_off(ball(FreeGroup(2), 2), [CyclicSubgroup((1, 2))]).graph, False),
    "plain": (lambda: cayley_graph(ball(FreeAbelian(2), 2)), False),
}


@pytest.mark.parametrize("name", list(_PATH_CASES))
def test_rows_are_fresh_arrays_and_searched_only_when_read(name):
    make, tree = _PATH_CASES[name]
    g = make()
    g.summary(), g.edges, g.blocks
    assert "_tree" not in vars(g)  # no row read yet
    for s in (0, g.n - 1):
        row = g.distances_from(s)
        want = row.tolist()
        row[:] = -7
        assert g.distances_from(s).tolist() == want
    assert (g._tree is not None) == tree
    assert g._root.min() == 0 and g.distances_from(0).tolist() == g._root.tolist()


def test_delta_sampled_mode_deterministic(f2):
    g = cayley_graph(ball(f2, 4))
    d1 = estimate_delta_4point(g, exhaustive=False, sample_vertices=24, seed=3)
    d2 = estimate_delta_4point(g, exhaustive=False, sample_vertices=24, seed=3)
    assert d1 == d2 == 0
    assert "blocks" not in vars(g)  # the sampled mode never splits the graph


def test_graph_csv_and_summary(f2):
    g = cayley_graph(ball(f2, 1))
    rows = g.edges
    assert all(len(r) == 3 and r[2] == 2 for r in rows)
    s = g.summary()
    assert s["vertices"] == 5 and s["edges"] == 4 and s["scaled"] is True


# -- neighbour table and graph construction ----------------------------------------
#
# The two builders below are the edge-list constructions the neighbour table
# replaced: every element times every generator, and one Python tuple per
# cone edge.  They are kept here as oracles.


def _oracle_cayley_edges(b):
    model = b.model
    edges = set()
    for ui, u in enumerate(b.elements):
        for s in model.generator_elements():
            vi = b.index.get(model.multiply(u, s))
            if vi is not None and vi != ui:
                edges.add((min(ui, vi), max(ui, vi), 2))
    return sorted(edges)


def _oracle_coned_edges(coned):
    edges = set(_oracle_cayley_edges(coned.ball))
    vertex = coned.cone_start
    for members in coned.coset_members:
        for group in members:
            edges.update((i, vertex, 1) for i in group)
            vertex += 1
    return sorted(edges)


_TABLE_MODELS = {
    "F2": (FreeGroup(2), 5),
    "Z^2": (FreeAbelian(2), 4),
    "Heisenberg": (heisenberg_group(), 3),
    "S3-r2": (symmetric_group_3(), 2),
    "S3-r5": (symmetric_group_3(), 5),
    "Z6-r2": (cyclic_group(6), 2),
    "Z6-r4": (cyclic_group(6), 4),
    "Z^2*Z": (FreeProduct([FreeAbelian(2), FreeAbelian(1)]), 3),
    "Z2*Z3": (FreeProduct([cyclic_group(2), cyclic_group(3)]), 4),
}


@pytest.mark.parametrize("name", list(_TABLE_MODELS))
def test_neighbour_table_matches_products(name):
    model, radius = _TABLE_MODELS[name]
    gens = model.generator_elements()
    for r in range(radius + 1):
        b = ball(model, r)
        assert b.nbr.dtype == np.int32 and b.nbr.shape[1] == len(gens)
        # the BFS expands every element but the last sphere, unless it has
        # exhausted a finite group
        expanded = sum(1 for length in b.lengths if length < r)
        assert len(b.nbr) in (expanded, len(b))
        full = b.neighbour_table()
        assert full.shape == (len(b), len(gens))
        assert np.array_equal(full[: len(b.nbr)], b.nbr)
        for i, u in enumerate(b.elements):
            want = [b.index.get(model.multiply(u, s), -1) for s in gens]
            assert full[i].tolist() == want
        assert _oracle_cayley_edges(b) == cayley_graph(b).edges


def _count_multiplies(monkeypatch, cls):
    calls = []
    multiply = cls.multiply

    def counting(self, x, y):
        calls.append(1)
        return multiply(self, x, y)

    monkeypatch.setattr(cls, "multiply", counting)
    return calls


def test_cayley_graph_multiplies_only_the_last_sphere(f2, monkeypatch):
    # with even relators the last sphere is the transpose of the one before
    # it, so no product at all
    for model, radius, sphere in [(f2, 6, 972), (FreeAbelian(2), 6, 24)]:
        b = ball(model, radius)
        assert sum(1 for length in b.lengths if length == radius) == sphere
        calls = _count_multiplies(monkeypatch, type(model))
        g = cayley_graph(b)
        assert len(calls) == 0
        monkeypatch.undo()
        assert g.edges == _oracle_cayley_edges(b)
    # otherwise the last sphere is multiplied out, once per ball: coned_off
    # reads the same table
    heis = heisenberg_group()
    b = ball(heis, 3)
    sphere = sum(1 for length in b.lengths if length == 3)
    calls = _count_multiplies(monkeypatch, TwoStepNilpotent)
    g = cayley_graph(b)
    assert len(calls) == sphere * len(heis.generator_elements())
    assert b.neighbour_table() is b.neighbour_table()
    assert len(calls) == sphere * len(heis.generator_elements())
    monkeypatch.undo()
    assert g.edges == _oracle_cayley_edges(b)


@pytest.mark.parametrize("model", [FreeGroup(2), FreeGroup(3), FreeAbelian(2), FreeAbelian(3)], ids=repr)
def test_even_relators_leave_no_edge_inside_a_sphere(model):
    assert model.even_relators
    b = ball(model, 4)
    lengths = np.array(b.lengths)
    u, v, _ = np.array(cayley_graph(b).edges).T
    assert (lengths[u] != lengths[v]).all()


def test_heisenberg_has_an_edge_inside_a_sphere():
    # the relator [a,b]c^-1 has odd length, so the transpose would miss edges
    model = heisenberg_group()
    assert not model.even_relators
    b = ball(model, 3)
    lengths = np.array(b.lengths)
    u, v, _ = np.array(cayley_graph(b).edges).T
    assert (lengths[u] == lengths[v]).any()


@pytest.mark.parametrize("h", [(1,), (1, 2), (2, 1, -2)])
def test_coned_f2_edges_match_oracle(f2_ball5, h):
    coned = coned_off(f2_ball5, [CyclicSubgroup(h)])
    assert coned.graph.edges == _oracle_coned_edges(coned)


@pytest.mark.parametrize(
    "model,radius",
    [(FreeProduct([FreeAbelian(2), FreeAbelian(1)]), 3), (FreeProduct([cyclic_group(2), cyclic_group(3)]), 4)],
    ids=["Z^2*Z", "Z2*Z3"],
)
def test_factor_coned_edges_match_oracle(model, radius):
    b = ball(model, radius)
    for factors in ([FactorSubgroup(0)], [FactorSubgroup(1)], [FactorSubgroup(0), FactorSubgroup(1)]):
        coned = coned_off(b, factors)
        assert coned.graph.edges == _oracle_coned_edges(coned)


def test_metric_graph_reports_first_bad_edge():
    cases = [
        ([(0, 1, 2), (1, 1, 2)], "bad edge (1,1)"),
        ([(0, 1, 2), (1, 3, 2)], "bad edge (1,3)"),
        ([(0, 1, 2), (-1, 2, 2)], "bad edge (-1,2)"),
        ([(0, 1, 0)], "edge weights must be >= 1"),
        ([(0, 1, 2), (2, 1, 2), (1, 0, 1)], "conflicting weights for edge (0, 1)"),
        ([(0, 1, 2), (1, 0, 1), (0, 5, 2)], "conflicting weights for edge (0, 1)"),
        ([(0, 5, 2), (0, 1, 2), (1, 0, 1)], "bad edge (0,5)"),
        ([(0, 1, 2), (1, 2, -1), (0, 1, 1)], "edge weights must be >= 1"),
    ]
    for edges, message in cases:
        with pytest.raises(DomainError) as err:
            MetricGraph(3, edges)
        assert str(err.value) == message


def test_duplicate_edges_collapse_and_rows_are_int32():
    g = MetricGraph(3, np.array([(1, 0, 2), (0, 1, 2), (2, 1, 1), (1, 2, 1)]))
    assert g.edges == [(0, 1, 2), (1, 2, 1)]
    assert all(type(x) is int for edge in g.edges for x in edge)
    row = g.distances_from(0)
    assert row.dtype == np.int32
    assert row.tolist() == [0, 2, 3]
    assert type(g.distance_scaled(0, 2)) is int and g.distance(0, 2) == Fraction(3, 2)


# -- cyclic cones in torsion-free groups -------------------------------------------


def _step_power(model, g, k):
    """g^k by |k| multiplications."""
    x = model.identity()
    step = g if k > 0 else model.inverse(g)
    for _ in range(abs(k)):
        x = model.multiply(x, step)
    return x


def _powers(model, g, bound):
    """{g^k : |k| <= bound}, by repeated multiplication."""
    out = {model.identity()}
    up = down = model.identity()
    inv = model.inverse(g)
    for _ in range(bound):
        up, down = model.multiply(up, g), model.multiply(down, inv)
        out.update((up, down))
    return out


def _coordinates(model, x):
    return x if isinstance(model, FreeAbelian) else x[0] + x[1]


_TORSION_FREE_CONES = {
    "Z^2-(1,0)": (FreeAbelian(2), 4, (1, 0)),
    "Heisenberg-a": (heisenberg_group(), 3, ((1, 0), (0,))),
    "Heisenberg-c": (heisenberg_group(), 3, ((0, 0), (1,))),
}


@pytest.mark.parametrize("name", list(_TORSION_FREE_CONES))
def test_torsion_free_cyclic_cones_match_integer_solve(name):
    model, radius, g = _TORSION_FREE_CONES[name]
    b = ball(model, radius)
    coned = coned_off(b, [CyclicSubgroup(g)])
    diffs = {
        (i, j): model.multiply(model.inverse(x), y)
        for i, x in enumerate(b.elements)
        for j, y in enumerate(b.elements)
    }
    # g has a coordinate equal to 1, so a member g^k of the difference set
    # has |k| at most the largest coordinate seen there
    bound = max(abs(c) for d in diffs.values() for c in _coordinates(model, d))
    members = _powers(model, g, bound)
    ids = _coset_ids(coned)[0]
    assert all((ids[i] == ids[j]) == (d in members) for (i, j), d in diffs.items())
    assert coned.graph.edges == _oracle_coned_edges(coned)
    _assert_rows_match_networkx(coned.graph, range(coned.graph.n))


@pytest.mark.parametrize(
    "model,g,off",
    [
        (FreeAbelian(2), (2, -3), (1, 0)),
        (heisenberg_group(), ((1, 1), (0,)), ((0, 0), (1,))),
        (heisenberg_group(), ((0, 0), (2,)), ((0, 0), (1,))),
    ],
    ids=["Z^2", "Heisenberg", "Heisenberg-central"],
)
def test_cyclic_membership_is_exact_past_the_power_cap(model, g, off):
    h = CyclicSubgroup(g)
    for k in (-5000, -1, 1, 7, 5000):
        gk = _step_power(model, g, k)
        assert h.contains(model, gk)
        assert not h.contains(model, model.multiply(gk, off))
    assert not h.contains(model, off)


_Z2_Z1 = FreeProduct([FreeAbelian(2), FreeAbelian(1)])
_FREE_PRODUCT_CONES = {
    "Z^2*Z-factor": (_Z2_Z1, 2, "0:1,0"),
    "Z^2*Z-conjugated": (_Z2_Z1, 2, "1:1*0:1,0*1:-1"),
    "Z2*Z3-conjugated": (_Z2_Z3, 4, "1:g*0:g*1:g2"),
    "Z2*Z3-product": (_Z2_Z3, 4, "0:g*1:g"),
}


@pytest.mark.parametrize("name", list(_FREE_PRODUCT_CONES))
def test_free_product_cyclic_cones_match_brute_force_powers(name):
    model, radius, text = _FREE_PRODUCT_CONES[name]
    g = model.parse_element(text)
    b = ball(model, radius)
    coned = coned_off(b, [CyclicSubgroup(g)])
    # every syllable has length >= 1, so |g^k| >= |k| and the powers in the
    # difference set of a radius-r ball have |k| <= 2r
    members = _powers(model, g, 2 * radius)
    ids = _coset_ids(coned)[0]
    for i, x in enumerate(b.elements):
        for j, y in enumerate(b.elements):
            assert (ids[i] == ids[j]) == (model.multiply(model.inverse(x), y) in members)
