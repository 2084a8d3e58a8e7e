"""Balls, Cayley graphs, coned-off graphs, hyperbolicity, penetration."""

from __future__ import annotations

import itertools
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
    has_backtracking,
    is_quasi_geodesic,
    path_from_vertices,
    penetration_report,
)
from ggtkit.errors import DomainError, OracleInconsistency, ResourceCapError
from ggtkit.groups import (
    FreeAbelian,
    FreeGroup,
    FreeProduct,
    cyclic_group,
    heisenberg_group,
    symmetric_group_3,
)

# -- balls --------------------------------------------------------------------


def test_f2_ball_sizes(f2):
    assert len(ball(f2, 1)) == 5
    assert len(ball(f2, 3)) == 53  # 1 + 4 + 12 + 36


def test_ball_bfs_structure(heis):
    b = ball(heis, 3)
    assert b.elements[0] == heis.identity()
    assert all(b.lengths[i] <= b.lengths[i + 1] for i in range(len(b) - 1))
    assert all(b.verify_parent(i) for i in range(len(b)))


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


def _assert_rows_match_networkx(graph, sources):
    nx = pytest.importorskip("networkx")
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_weighted_edges_from(graph.edges)
    for s in sources:
        ref = nx.single_source_dijkstra_path_length(g, s)
        assert graph.distances_from(s).tolist() == [ref[v] for v in range(graph.n)]


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_distances_and_edge_weights_match_networkx_on_random_graphs(g):
    _assert_rows_match_networkx(g, range(g.n))
    weights = {(u, v): w for u, v, w in g.edges}
    for u in range(g.n):
        for v in range(g.n):
            assert g.edge_weight(u, v) == weights.get((min(u, v), max(u, v)))


@pytest.mark.parametrize("h", [(1,), (1, 2)])
def test_coned_f2_distances_match_networkx(f2, h):
    coned = coned_off(ball(f2, 4), [CyclicSubgroup(h)])
    _assert_rows_match_networkx(coned.graph, range(0, coned.graph.n, 7))


def test_factor_coned_distances_match_networkx():
    P = FreeProduct([FreeAbelian(2), FreeAbelian(1)])
    coned = coned_off(ball(P, 3), [FactorSubgroup(0), FactorSubgroup(1)])
    _assert_rows_match_networkx(coned.graph, range(0, coned.graph.n, 5))


def test_disconnected_graph_rejected():
    with pytest.raises(DomainError):
        MetricGraph(4, [(0, 1, 2), (2, 3, 1)])
    with pytest.raises(DomainError):
        MetricGraph(3, [(0, 1, 2)])


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
    base = coned.base
    for i in range(0, len(b), 5):
        for j in range(0, len(b), 7):
            assert coned.distance(i, j) <= base.distance(i, j)


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
    assert len(coned.cones) == len(reps)
    # every cone vertex joins exactly the ball elements of its coset
    for ci, (fi, cid) in enumerate(coned.cones):
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

        def coset_key(self, model, elem):
            return None

    b = ball(f2, 2)
    with pytest.raises(OracleInconsistency):
        coned_off(b, [Broken((1,))])


COSET_GENERATORS = [(1,), (1, 2), (1, 1), (2, 1, -2), (1, 2, -1, -2)]


@pytest.fixture(scope="module")
def f2_ball5(f2):
    return ball(f2, 5)


@pytest.mark.parametrize("h", COSET_GENERATORS)
def test_coset_key_partition_matches_membership_oracle(f2, f2_ball5, h):
    oracle = CyclicSubgroup(h)
    elems = f2_ball5.elements
    keys = [oracle.coset_key(f2, g) for g in elems]
    wrong = [
        (i, j)
        for i, g in enumerate(elems)
        for j in range(i + 1, len(elems))
        if (keys[i] == keys[j]) != oracle.contains(f2, f2.multiply(f2.inverse(g), elems[j]))
    ]
    assert wrong == []


class _ScanOnly(CyclicSubgroup):
    def coset_key(self, model, elem):
        return None


@pytest.mark.parametrize("h", COSET_GENERATORS)
def test_coned_off_by_coset_key_equals_generic_scan(f2_ball5, h):
    keyed = coned_off(f2_ball5, [CyclicSubgroup(h, "H")])
    scanned = coned_off(f2_ball5, [_ScanOnly(h, "H")])
    assert keyed.graph.edges == scanned.graph.edges
    assert keyed.cones == scanned.cones
    assert keyed.coset_of == scanned.coset_of


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
        assert row.dtype == np.int64 and not row.flags.writeable
        want = nx.single_source_dijkstra_path_length(ref, s)
        assert row.tolist() == [want[v] for v in range(4)]


def test_delta_sampled_mode_deterministic(f2):
    g = cayley_graph(ball(f2, 4))
    d1 = estimate_delta_4point(g, exhaustive=False, sample_vertices=24, seed=3)
    d2 = estimate_delta_4point(g, exhaustive=False, sample_vertices=24, seed=3)
    assert d1 == d2 == 0
    assert "blocks" not in vars(g)  # the sampled mode never splits the graph


# -- quasi-geodesics -----------------------------------------------------------


def test_geodesics_are_1_quasi_geodesics(f2):
    b = ball(f2, 3)
    g = cayley_graph(b)
    path = path_from_vertices(g, [b.index[()], b.index[(1,)], b.index[(1, 2)]])
    assert is_quasi_geodesic(path, 1, g)


def test_backtracking_path_fails_lower_bound(f2):
    b = ball(f2, 3)
    g = cayley_graph(b)
    path = path_from_vertices(g, [b.index[()], b.index[(1,)], b.index[()], b.index[(1,)]])
    assert not is_quasi_geodesic(path, 1, g)


def test_quasi_geodesic_matches_subpath_oracle(z2):
    b = ball(z2, 3)
    g = cayley_graph(b)
    spiral = [(0, 0), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1)]
    path = path_from_vertices(g, [b.index[v] for v in spiral])
    for k in (Fraction(1), Fraction(3), Fraction(5)):
        # O(n^2) oracle, written independently of the library routine
        pos = [0]
        for u, v in zip(path.vertices, path.vertices[1:]):
            pos.append(pos[-1] + g.edge_weight(u, v))
        expect = True
        for i in range(len(path.vertices)):
            for j in range(i + 1, len(path.vertices)):
                span = Fraction(pos[j] - pos[i], 2)
                d = Fraction(g.distance_scaled(path.vertices[i], path.vertices[j]), 2)
                if span > k * d + k or d > k * span + k:
                    expect = False
        assert is_quasi_geodesic(path, k, g) == expect


def test_quasi_geodesic_requires_k_at_least_one(f2):
    b = ball(f2, 2)
    g = cayley_graph(b)
    path = path_from_vertices(g, [0, 1])
    with pytest.raises(DomainError):
        is_quasi_geodesic(path, Fraction(1, 2), g)


# -- penetration ---------------------------------------------------------------


def test_penetration_through_cone(f2):
    b = ball(f2, 4)
    coned = coned_off(b, [CyclicSubgroup((1,), label="<a>")])
    e = b.index[()]
    a4 = b.index[(1, 1, 1, 1)]
    cone = coned.cone_vertex(0, coned.coset_of[0][e])
    path = path_from_vertices(coned, [e, cone, a4])
    recs = penetration_report(path, coned)
    assert len(recs) == 1
    assert recs[0].entry_vertex == e and recs[0].exit_vertex == a4
    assert recs[0].gamma_distance == 4


def test_penetration_empty_for_transverse_geodesic(f2):
    b = ball(f2, 4)
    coned = coned_off(b, [CyclicSubgroup((1,), label="<a>")])
    path = path_from_vertices(coned, [b.index[()], b.index[(2,)], b.index[(2, 1, 1)]][:2])
    assert penetration_report(path, coned) == []


def test_penetration_reports_differ_exactly_on_detoured_coset(f2):
    b = ball(f2, 4)
    coned = coned_off(b, [CyclicSubgroup((1,), label="<a>")])
    e = b.index[()]
    a1 = b.index[(1,)]
    b1 = b.index[(2,)]
    cone_h = coned.cone_vertex(0, coned.coset_of[0][e])
    direct = path_from_vertices(coned, [e, b1])
    detour = path_from_vertices(coned, [e, a1, cone_h, e, b1])
    cos_h = coned.coset_of[0][e]
    r_direct = penetration_report(direct, coned)
    r_detour = penetration_report(detour, coned)
    assert all(r.coset != cos_h for r in r_direct)
    assert [r.coset for r in r_detour] == [cos_h]


def test_backtracking_detection(f2):
    b = ball(f2, 4)
    coned = coned_off(b, [CyclicSubgroup((1,), label="<a>")])
    e = b.index[()]
    a1 = b.index[(1,)]
    b1 = b.index[(2,)]
    cone_e = coned.cone_vertex(0, coned.coset_of[0][e])
    # leave the identity coset and come back through its cone
    loop = path_from_vertices(coned, [a1, cone_e, e, b1, e, cone_e, a1])
    assert has_backtracking(loop, coned)
    straight = path_from_vertices(coned, [e, cone_e, a1])
    assert not has_backtracking(straight, coned)


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


def test_cayley_graph_multiplies_only_the_last_sphere(f2, monkeypatch):
    b = ball(f2, 6)
    sphere = sum(1 for length in b.lengths if length == 6)
    assert sphere == 972
    calls = []
    multiply = FreeGroup.multiply

    def counting(self, x, y):
        calls.append(1)
        return multiply(self, x, y)

    monkeypatch.setattr(FreeGroup, "multiply", counting)
    g = cayley_graph(b)
    assert len(calls) <= sphere * len(f2.generator_elements())
    monkeypatch.undo()
    assert g.edges == _oracle_cayley_edges(b)


@pytest.mark.parametrize("h", [(1,), (1, 2), (2, 1, -2)])
def test_coned_f2_edges_match_oracle(f2_ball5, h):
    coned = coned_off(f2_ball5, [CyclicSubgroup(h)])
    assert coned.graph.edges == _oracle_coned_edges(coned)
    assert coned.base.edges == _oracle_cayley_edges(f2_ball5)


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
    assert row.dtype == np.int32 and not row.flags.writeable
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
    ids = coned.coset_of[0]
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
_Z2_Z3 = FreeProduct([cyclic_group(2), cyclic_group(3)])
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
    ids = coned.coset_of[0]
    for i, x in enumerate(b.elements):
        for j, y in enumerate(b.elements):
            assert (ids[i] == ids[j]) == (model.multiply(model.inverse(x), y) in members)
