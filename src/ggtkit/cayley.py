"""Finite metric graphs from Cayley balls, coned-off graphs relative to
subgroup families, four-point hyperbolicity estimation, and quasi-geodesic
predicates.

All edge weights are stored doubled so that cone half-edges stay integral;
every reported distance is a halved rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Hashable, Optional, Sequence

import numpy as np

from .config import DEFAULT_BALL_CAP, DEFAULT_EXHAUSTIVE_QUADRUPLE_CAP
from .errors import DomainError, OracleInconsistency, ResourceCapError
from .groups import (
    Ball, Element, FreeAbelian, FreeGroup, FreeProduct, GroupModel, TwoStepNilpotent, cyclic_reduce
)

SCALE = 2  # stored weight = SCALE * true length
REP_VERIFY_LIMIT = 500  # coned_off checks all coset-representative pairs up to this many cosets


# ---------------------------------------------------------------------------
# balls


def ball(model: GroupModel, radius: int, *, cap: int = DEFAULT_BALL_CAP) -> Ball:
    """BFS ball of the given radius over the model's standard generators."""
    if radius < 0:
        raise DomainError("radius must be >= 0")
    return Ball(model).grow(radius, cap)


# ---------------------------------------------------------------------------
# metric graphs


class MetricGraph:
    """Undirected weighted graph; weights are positive ints (scaled x2).

    Adjacency is held once, as CSR arrays: the neighbours of vertex u are
    ``_nbr[_indptr[u]:_indptr[u + 1]]``, in increasing order, with weights
    ``_wt`` alongside.  ``edges`` may list an edge more than once, in either
    direction, but always with the same weight.
    """

    def __init__(self, n: int, edges, ball_radius: Optional[int] = None):
        self.n = n
        u, v, w = np.asarray(edges, dtype=np.int64).reshape(-1, 3).T
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        _, first, group = np.unique(lo * n + hi, return_index=True, return_inverse=True)
        bad = (lo < 0) | (hi >= n) | (u == v)
        failing = bad | (w < 1) | (w != w[first][group])
        if failing.any():  # report the first failing edge, in input order
            i = int(failing.argmax())
            if bad[i]:
                raise DomainError(f"bad edge ({u[i]},{v[i]})")
            if w[i] < 1:
                raise DomainError("edge weights must be >= 1")
            raise DomainError(f"conflicting weights for edge {(int(lo[i]), int(hi[i]))}")
        lo, hi, w = lo[first], hi[first], w[first]
        self.ball_radius = ball_radius
        tail = np.concatenate([lo, hi])
        head = np.concatenate([hi, lo])
        order = np.lexsort((head, tail))
        self._nbr = head[order]
        self._wt = np.concatenate([w, w])[order]
        self._indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(tail, minlength=n), out=self._indptr[1:])
        self._weights = np.unique(w).tolist()
        self._dist_cache: dict[int, np.ndarray] = {}
        if n > 0 and self.distances_from(0).min() < 0:
            raise DomainError("metric graph must be connected")

    def _edge_array(self) -> np.ndarray:
        """(u, v, w) rows with u < v, sorted, read off the CSR arrays."""
        tail = np.repeat(np.arange(self.n), np.diff(self._indptr))
        up = self._nbr > tail
        return np.column_stack([tail[up], self._nbr[up], self._wt[up]])

    @property
    def edges(self) -> list[tuple[int, int, int]]:
        return list(map(tuple, self._edge_array().tolist()))

    def edge_weight(self, u: int, v: int) -> Optional[int]:
        lo, hi = self._indptr[u], self._indptr[u + 1]
        k = lo + np.searchsorted(self._nbr[lo:hi], v)
        return int(self._wt[k]) if k < hi and self._nbr[k] == v else None

    def _arcs(self, vertices: np.ndarray) -> np.ndarray:
        """Indices into ``_nbr`` of the arcs out of the given vertices, vertex
        by vertex."""
        start = self._indptr[vertices]
        count = self._indptr[vertices + 1] - start
        offset = np.cumsum(count) - count
        return np.arange(int(count.sum())) + np.repeat(start - offset, count)

    def distances_from(self, source: int) -> np.ndarray:
        """Scaled shortest-path distances from one vertex, as a read-only
        int32 array (int64 only for distances past 2^31 - 1), cached; -1
        marks an unreachable vertex.

        Level-synchronous BFS: weights are positive integers, so the
        unreached vertices queued at the least pending level d have distance
        d, and each arc of weight w out of them queues its head at d + w.
        One mask collects a level's queue without duplicates.
        """
        got = self._dist_cache.get(source)
        if got is not None:
            return got
        nbr, wt = self._nbr, self._wt
        dist = np.full(self.n, -1, dtype=np.int64)
        mark = np.zeros(self.n, dtype=bool)
        levels = {0: [np.array([source])]}
        while levels:
            d = min(levels)
            mark[np.concatenate(levels.pop(d))] = True
            mark &= dist < 0
            frontier = np.flatnonzero(mark)
            mark[frontier] = False
            dist[frontier] = d
            arcs = self._arcs(frontier)
            arcs = arcs[dist[nbr[arcs]] < 0]
            for w in self._weights:
                head = nbr[arcs[wt[arcs] == w]]
                if len(head):
                    levels.setdefault(d + w, []).append(head)
        row = dist.astype(np.int32) if dist.max(initial=0) < 2**31 else dist
        row.flags.writeable = False
        self._dist_cache[source] = row
        return row

    def distance_scaled(self, u: int, v: int) -> int:
        d = int(self.distances_from(u)[v])
        if d < 0:
            raise DomainError("vertices are disconnected")  # defensive; balls are connected
        return d

    def distance(self, u: int, v: int) -> Fraction:
        return Fraction(self.distance_scaled(u, v), SCALE)

    def distance_matrix_scaled(self, vertices: Optional[Sequence[int]] = None) -> np.ndarray:
        verts = list(range(self.n)) if vertices is None else list(vertices)
        rows = [self.distances_from(u)[verts] for u in verts]
        return np.array(rows, dtype=np.int64).reshape(len(verts), len(verts))

    @cached_property
    def blocks(self) -> list[list[int]]:
        """Vertex lists of the biconnected components; a cut vertex lies in
        every block it joins, and a lone vertex is in none.

        Iterative Tarjan, a depth-first search over the CSR arrays: when the
        search returns from v to its parent u with low(v) >= disc(u), u and
        the vertices stacked since v form a block.  The graph is connected,
        so with n - 1 edges it is a tree, whose blocks are its edges.
        """
        if len(self._nbr) == 2 * (self.n - 1):
            return self._edge_array()[:, :2].tolist()
        indptr, nbr = self._indptr.tolist(), self._nbr.tolist()
        disc = [-1] * self.n
        low = [0] * self.n
        blocks: list[list[int]] = []
        if self.n == 0:
            return blocks
        disc[0] = 0
        found = 1
        stack = [0]  # discovered vertices not yet in a block
        path = [[0, indptr[0]]]  # the search path, each vertex with its next arc
        while path:
            top = path[-1]
            v, arc = top
            if arc < indptr[v + 1]:
                top[1] += 1
                w = nbr[arc]
                if disc[w] < 0:
                    disc[w] = low[w] = found
                    found += 1
                    stack.append(w)
                    path.append([w, indptr[w]])
                else:
                    low[v] = min(low[v], disc[w])
                continue
            path.pop()
            if path:
                u = path[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    block = [u]
                    while block[-1] != v:
                        block.append(stack.pop())
                    blocks.append(block)
        return blocks

    def summary(self) -> dict:
        return {
            "vertices": self.n,
            "edges": len(self._nbr) // 2,
            "scaled": True,
            "ball_radius": self.ball_radius,
        }


def cayley_graph(b: Ball) -> MetricGraph:
    """Cayley graph restricted to a ball: edge (u, u*s) of weight 2 per
    generator s whenever both endpoints lie in the ball, read off the ball's
    neighbour table (generators are closed under inverses, so u < v suffices)."""
    nbr = b.neighbour_table()
    u = np.repeat(np.arange(len(b)), nbr.shape[1])
    v = nbr.ravel()
    up = v > u
    edges = np.column_stack([u[up], v[up], np.full(int(up.sum()), SCALE)])
    return MetricGraph(len(b), edges, ball_radius=b.radius)


# ---------------------------------------------------------------------------
# subgroup oracles and coned-off graphs


class SubgroupOracle:
    """Membership oracle for a subgroup of the ball's ambient group."""

    label = "H"

    def contains(self, model: GroupModel, elem: Element) -> bool:
        raise NotImplementedError

    def coset_key(self, model: GroupModel, elem: Element) -> Optional[Hashable]:
        """Optional canonical left-coset key; None means 'use the generic scan'."""
        return None


class CyclicSubgroup(SubgroupOracle):
    """The cyclic subgroup generated by one element."""

    def __init__(self, generator: Element, label: str = "H"):
        self.generator = generator
        self.label = label

    def contains(self, model, elem):
        g = self.generator
        if elem == model.identity():
            return True
        if g == model.identity():
            return False
        if isinstance(model, FreeGroup):
            return self._free_power_check(model, elem)
        if isinstance(model, (FreeAbelian, TwoStepNilpotent)):
            return self._torsion_free_power_check(model, elem)
        if isinstance(model, FreeProduct):
            return self._free_product_power_check(model, elem)
        power = g  # a finite group: the powers of g cycle back to the identity
        while power != model.identity():
            if power == elem:
                return True
            power = model.multiply(power, g)
        return False

    def _free_power_check(self, model, elem):
        pre, core = cyclic_reduce(self.generator)
        if not core:
            return False
        p = len(pre)
        if p and (elem[:p] != pre or elem[-p:] != model.inverse(pre)):
            return False
        middle = elem[p: len(elem) - p] if p else elem
        if not middle or len(middle) % len(core):
            return False
        k = len(middle) // len(core)
        return middle == core * k or middle == model.inverse(core) * k

    def _torsion_free_power_check(self, model, elem):
        """Solve elem = g^k for k on the first nonzero coordinate of g, then
        check g^k exactly.  In a two-step nilpotent group that coordinate
        lies in the base part, which is linear in k, unless g is central."""
        g, x, y = self.generator, self.generator, elem
        if isinstance(model, TwoStepNilpotent):
            x, y = g[0] + g[1], elem[0] + elem[1]
        t = next(t for t, v in enumerate(x) if v)
        k, rem = divmod(y[t], x[t])
        return rem == 0 and _power(model, g, k) == elem

    def _free_product_power_check(self, model, elem):
        """Write h = p c p^-1 with c cyclically reduced.  A single syllable
        c = (i, s) leaves the question to factor i: elem is in <h> exactly
        when p^-1 elem p is e or (i, x) with x in <s>.  Otherwise c^k has
        |k| |c| syllables, and |elem| >= |c^k| - 2|p| bounds the |k| to try."""
        pre, core = model.cyclic_syllable_reduce(self.generator)
        if len(core) == 1:
            (i, s), = core
            inner = model.multiply(model.multiply(model.inverse(pre), elem), pre)
            return len(inner) == 1 and inner[0][0] == i and CyclicSubgroup(s).contains(
                model.factors[i], inner[0][1]
            )
        g, inv = self.generator, model.inverse(self.generator)
        power, neg = g, inv
        for _ in range((len(elem) + 2 * len(pre)) // len(core)):
            if elem in (power, neg):
                return True
            power, neg = model.multiply(power, g), model.multiply(neg, inv)
        return False

    def coset_key(self, model, elem):
        """For a free group: the least element of elem<h> by (length, letters).

        Write h = p c p^-1 with c cyclically reduced.  Then elem<h> = x<c>p^-1
        with x = elem p, so the least element of x<c> names the coset.  Once
        whole copies of c and c^-1 are stripped off the end of x, lengths
        only grow past x c and x c^-1.
        """
        if not isinstance(model, FreeGroup):
            return None
        pre, core = cyclic_reduce(self.generator)
        if not core:
            return elem
        x = model.multiply(elem, pre) if pre else elem
        inv = model.inverse(core)
        k = len(core)
        while x[-k:] == core:
            x = x[:-k]
        while x[-k:] == inv:
            x = x[:-k]
        return min((x, model.multiply(x, core), model.multiply(x, inv)),
                   key=lambda w: (len(w), w))


def _power(model: GroupModel, g: Element, k: int) -> Element:
    """g^k by repeated squaring."""
    if k < 0:
        g, k = model.inverse(g), -k
    out = model.identity()
    while k:
        if k & 1:
            out = model.multiply(out, g)
        g, k = model.multiply(g, g), k >> 1
    return out


class FactorSubgroup(SubgroupOracle):
    """A free-product factor H_i as a subgroup of the product."""

    def __init__(self, factor_index: int, label: Optional[str] = None):
        self.factor_index = factor_index
        self.label = label or f"H{factor_index}"

    def contains(self, model, elem):
        if elem == ():
            return True
        return len(elem) == 1 and elem[0][0] == self.factor_index

    def coset_key(self, model, elem):
        if elem and elem[-1][0] == self.factor_index:
            return elem[:-1]
        return elem


@dataclass
class ConedOffGraph:
    """Cayley ball plus one cone vertex per (factor, left coset) meeting it.

    Cone edges have weight 1 (true length 1/2); base edges keep weight 2.
    Vertices 0..base.n-1 are ball elements, the rest are cone vertices.
    """

    ball: Ball
    base: MetricGraph
    graph: MetricGraph
    factors: list
    cones: list  # (factor_index, coset_id) per cone vertex, in vertex order
    coset_of: list  # per factor: list of coset ids per ball element
    coset_members: list  # per factor: list of member index lists per coset

    @property
    def cone_start(self) -> int:
        return self.base.n

    def cone_vertex(self, factor_index: int, coset_id: int) -> int:
        return self.cone_start + self.cones.index((factor_index, coset_id))

    def distance(self, u: int, v: int) -> Fraction:
        return self.graph.distance(u, v)

    def summary(self) -> dict:
        out = self.graph.summary()
        out["cone_vertices"] = len(self.cones)
        out["cosets_per_factor"] = [len(m) for m in self.coset_members]
        return out


def _check_factor_consistency(b: Ball, oracles) -> list[list[int]]:
    """Membership lists per factor, after closure and intersection checks."""
    model = b.model
    members_per_factor = []
    for oracle in oracles:
        members = [i for i, e in enumerate(b.elements) if oracle.contains(model, e)]
        mset = set(members)
        if 0 not in mset:
            raise OracleInconsistency(f"{oracle.label}: identity not a member")
        for i in members:
            inv = model.inverse(b.elements[i])
            j = b.index.get(inv)
            if j is not None and j not in mset:
                raise OracleInconsistency(f"{oracle.label}: not closed under inverses")
        for i in members:
            for j in members:
                prod = model.multiply(b.elements[i], b.elements[j])
                k = b.index.get(prod)
                if k is not None and k not in mset:
                    raise OracleInconsistency(
                        f"{oracle.label}: members {i},{j} multiply outside the subgroup"
                    )
        members_per_factor.append(members)
    for fi in range(len(oracles)):
        for fj in range(fi + 1, len(oracles)):
            common = set(members_per_factor[fi]) & set(members_per_factor[fj])
            if common != {0}:
                raise OracleInconsistency(
                    f"factors {oracles[fi].label} and {oracles[fj].label} intersect "
                    f"nontrivially on the ball"
                )
    return members_per_factor


def coned_off(b: Ball, factors) -> ConedOffGraph:
    """Build the coned-off graph of a ball relative to subgroup oracles."""
    model = b.model
    oracles = list(factors)
    if not oracles:
        raise DomainError("at least one subgroup factor is required")
    _check_factor_consistency(b, oracles)
    base = cayley_graph(b)

    coset_of = []
    coset_members = []
    for oracle in oracles:
        keyed = oracle.coset_key(model, model.identity()) is not None
        if keyed:
            key_to_id: dict = {}
            ids = [key_to_id.setdefault(oracle.coset_key(model, e), len(key_to_id)) for e in b.elements]
        else:
            # generic scan: compare against one representative per known coset
            ids, reps = [], []
            for i, e in enumerate(b.elements):
                for cid, r in enumerate(reps):
                    if oracle.contains(model, model.multiply(model.inverse(b.elements[r]), e)):
                        break
                else:
                    cid = len(reps)
                    reps.append(i)
                ids.append(cid)
        members: list[list[int]] = [[] for _ in range(max(ids) + 1)]
        for i, cid in enumerate(ids):
            members[cid].append(i)
        if keyed:
            # verify the fast path against the membership oracle: consecutive
            # members of each coset must differ by a subgroup element, and a
            # bounded number of representative pairs must not
            for group in members:
                for i, j in zip(group, group[1:]):
                    diff = model.multiply(model.inverse(b.elements[i]), b.elements[j])
                    if not oracle.contains(model, diff):
                        raise OracleInconsistency(
                            f"{oracle.label}: coset key groups non-equivalent elements"
                        )
            if len(members) <= REP_VERIFY_LIMIT:
                reps = [group[0] for group in members]
                for x in range(len(reps)):
                    for y in range(x + 1, len(reps)):
                        diff = model.multiply(
                            model.inverse(b.elements[reps[x]]), b.elements[reps[y]]
                        )
                        if oracle.contains(model, diff):
                            raise OracleInconsistency(
                                f"{oracle.label}: coset key splits one coset in two"
                            )
        coset_of.append(ids)
        coset_members.append(members)

    # cone vertex of (factor fi, coset cid) is base.n + offset[fi] + cid
    cones = [(fi, cid) for fi, members in enumerate(coset_members) for cid in range(len(members))]
    offset = base.n + np.cumsum([0] + [len(m) for m in coset_members])
    vertices = np.arange(base.n)
    cone_edges = [
        np.column_stack([vertices, start + np.asarray(ids), np.ones(base.n, dtype=np.int64)])
        for start, ids in zip(offset, coset_of)
    ]
    graph = MetricGraph(
        base.n + len(cones),
        np.concatenate([base._edge_array(), *cone_edges]),
        ball_radius=b.radius,
    )
    return ConedOffGraph(b, base, graph, oracles, cones, coset_of, coset_members)


# ---------------------------------------------------------------------------
# four-point hyperbolicity


_SWEEP_BLOCK = 1 << 16  # entries per temporary array in the quadruple sweep


def _four_point_max_defect(D: np.ndarray) -> int:
    """Max over quadruples of (largest sum - middle sum), scaled units.

    The defect is invariant under permuting the four points and is 0 when
    two of them coincide (triangle inequality), so it suffices to take
    x < y < z, w: each 4-set is visited twice instead of 12 times.  For one
    y the x are swept in blocks of at most ``_SWEEP_BLOCK`` entries.
    """
    n = D.shape[0]
    dtype = np.int32 if 6 * int(D.max(initial=0)) < 2**31 else np.int64
    D = np.asarray(D, dtype=dtype)
    best = 0
    for y in range(1, n - 2):
        m = n - y - 1
        dy = D[y, y + 1:]
        inner = D[y + 1:, y + 1:]
        step = max(1, _SWEEP_BLOCK // (m * m))
        for x0 in range(0, y, step):
            xs = slice(x0, min(x0 + step, y))
            s1 = D[xs, y, None, None] + inner  # d(x,y) + d(z,w)
            s2 = D[xs, y + 1:, None] + dy  # d(x,z) + d(y,w)
            s3 = s2.transpose(0, 2, 1)  # d(x,w) + d(y,z)
            mx = np.maximum(np.maximum(s1, s2), s3)
            mn = np.minimum(np.minimum(s1, s2), s3)
            defect = int((2 * mx + mn - s1 - s2 - s3).max())
            if defect > best:
                best = defect
    return best


def exhaustive_fits(graph: MetricGraph, cap: int = DEFAULT_EXHAUSTIVE_QUADRUPLE_CAP) -> bool:
    """True when the blocks that the exhaustive four-point sweep visits
    (those of at least 4 vertices), glued in a chain at one vertex each,
    have at most ``cap`` vertices.

    A graph of at most ``cap`` vertices always fits, since its blocks glue
    back to it, and the sweep costs no more than on one block of ``cap``
    vertices: at most ``cap`` distance rows and ``cap``^4 quadruples."""
    return 1 + sum(len(b) - 1 for b in graph.blocks if len(b) >= 4) <= cap


def estimate_delta_4point(
    graph,
    *,
    exhaustive: Optional[bool] = None,
    sample_vertices: int = 64,
    seed: int = 0,
    exhaustive_cap: int = DEFAULT_EXHAUSTIVE_QUADRUPLE_CAP,
) -> Fraction:
    """Four-point hyperbolicity defect of a finite graph.

    Exhaustive when the graph's blocks fit ``exhaustive_cap`` (see
    ``exhaustive_fits``) or when forced: the defect of metrics glued at cut vertices
    is the largest defect of the pieces (Cohen-Coudert-Lancin 2015), and a
    shortest path between two vertices of a block stays in it, so each
    block of at least 4 vertices is swept over its own distance matrix.
    Otherwise exhaustive over a seeded random vertex sample of the whole
    graph, which yields a certified lower bound.
    """
    g = graph.graph if isinstance(graph, ConedOffGraph) else graph
    if exhaustive is not False:
        fits = exhaustive_fits(g, exhaustive_cap)
        if exhaustive and not fits:
            raise ResourceCapError(
                f"exhaustive quadruple scan capped at {exhaustive_cap} vertices over its blocks"
            )
        exhaustive = fits
    if not exhaustive:
        rng = np.random.default_rng(seed)
        chosen = rng.choice(g.n, size=min(g.n, sample_vertices), replace=False)
        verts = sorted(int(v) for v in chosen)
        return Fraction(_four_point_max_defect(g.distance_matrix_scaled(verts)), 2 * SCALE)
    defect = 0
    pos = np.full(g.n, -1)
    for block in g.blocks:
        if len(block) < 4:  # a quadruple with a repeated point has defect 0
            continue
        verts = np.sort(block)
        pos[verts] = np.arange(len(verts))
        arcs = g._arcs(verts)
        u = np.repeat(np.arange(len(verts)), g._indptr[verts + 1] - g._indptr[verts])
        v = pos[g._nbr[arcs]]
        up = v > u
        piece = MetricGraph(len(verts), np.column_stack([u[up], v[up], g._wt[arcs][up]]))
        defect = max(defect, _four_point_max_defect(piece.distance_matrix_scaled()))
        pos[verts] = -1
    return Fraction(defect, 2 * SCALE)


# ---------------------------------------------------------------------------
# paths, quasi-geodesics, coset penetration


@dataclass(frozen=True)
class GraphPath:
    """Vertex path; weight is the scaled sum of traversed edge weights."""

    vertices: tuple
    weight: int


def path_from_vertices(graph, vertices) -> GraphPath:
    g = graph.graph if isinstance(graph, ConedOffGraph) else graph
    verts = tuple(vertices)
    if not verts:
        raise DomainError("a path needs at least one vertex")
    total = 0
    for u, v in zip(verts, verts[1:]):
        w = g.edge_weight(u, v)
        if w is None:
            raise DomainError(f"vertices {u} and {v} are not adjacent")
        total += w
    return GraphPath(verts, total)


def is_quasi_geodesic(path: GraphPath, k, graph) -> bool:
    """Symmetric (k, k) quasi-geodesic test over every subpath.

    For arc-length positions s < t:  |t - s| <= k d(p(s), p(t)) + k  and
    d(p(s), p(t)) <= k |t - s| + k.
    """
    k = Fraction(k)
    if k < 1:
        raise DomainError("quasi-geodesic constant must be >= 1")
    g = graph.graph if isinstance(graph, ConedOffGraph) else graph
    pos = [0]
    for u, v in zip(path.vertices, path.vertices[1:]):
        w = g.edge_weight(u, v)
        if w is None:
            raise DomainError(f"path edge ({u},{v}) missing from graph")
        pos.append(pos[-1] + w)
    n = len(path.vertices)
    for i in range(n):
        di = g.distances_from(path.vertices[i])
        for j in range(i + 1, n):
            span = pos[j] - pos[i]  # scaled
            d = int(di[path.vertices[j]])  # scaled
            if span > k * d + 2 * k or d > k * span + 2 * k:
                return False
    return True


@dataclass(frozen=True)
class PenetrationRecord:
    factor: int
    coset: int
    entry_vertex: Optional[int]
    exit_vertex: Optional[int]
    gamma_distance: Optional[Fraction]
    start_position: int


def penetration_report(path: GraphPath, coned: ConedOffGraph) -> list[PenetrationRecord]:
    """Ordered list of cosets the path penetrates.

    A penetration is a maximal stretch of >= 2 consecutive path positions
    whose vertices all lie in (or cone over) one coset of one factor.  The
    gamma distance is measured between the first and last base vertices of
    the stretch in the un-coned graph.
    """
    cone_start = coned.cone_start
    records = []
    for fi in range(len(coned.factors)):
        membership = []
        for v in path.vertices:
            if v >= cone_start:
                cf, cid = coned.cones[v - cone_start]
                membership.append(cid if cf == fi else None)
            else:
                membership.append(coned.coset_of[fi][v])
        i = 0
        n = len(membership)
        while i < n:
            cid = membership[i]
            if cid is None:
                i += 1
                continue
            j = i
            while j + 1 < n and membership[j + 1] == cid:
                j += 1
            if j > i:
                base_positions = [
                    p for p in range(i, j + 1) if path.vertices[p] < cone_start
                ]
                entry = path.vertices[base_positions[0]] if base_positions else None
                exit_ = path.vertices[base_positions[-1]] if base_positions else None
                gamma = (
                    coned.base.distance(entry, exit_)
                    if entry is not None and exit_ is not None
                    else None
                )
                records.append(PenetrationRecord(fi, cid, entry, exit_, gamma, i))
            i = j + 1
    records.sort(key=lambda r: (r.start_position, r.factor, r.coset))
    return records


def has_backtracking(path: GraphPath, coned: ConedOffGraph) -> bool:
    """True when the path re-enters a coset it previously exited."""
    seen = set()
    for rec in penetration_report(path, coned):
        key = (rec.factor, rec.coset)
        if key in seen:
            return True
        seen.add(key)
    return False
