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
from .errors import DomainError, OracleInconsistency, ResourceCapError, UnsupportedCase
from .groups import (
    Ball, Element, FiniteGroup, FreeAbelian, FreeGroup, FreeProduct, GroupModel, TwoStepNilpotent,
    cyclic_reduce,
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


def _arcs(indptr: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Indices of the arcs out of the given vertices, vertex by vertex, in
    CSR arrays with row pointers ``indptr``."""
    start = indptr[vertices]
    count = indptr[vertices + 1] - start
    offset = np.cumsum(count) - count
    return np.arange(int(count.sum())) + np.repeat(start - offset, count)


def _level_bfs(n, indptr, nbr, wt, weights, seeds, d0: int) -> np.ndarray:
    """Distances (int64, -1 unreached) from seed vertices at distance d0 in
    CSR arrays with positive integer weights.

    Level-synchronous BFS: the unreached vertices queued at the least
    pending level d have distance d, and each arc of weight w out of them
    queues its head at d + w.  One mask collects a level's queue without
    duplicates.
    """
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
        arcs = _arcs(indptr, frontier)
        arcs = arcs[dist[nbr[arcs]] < 0]
        for w in weights:
            head = nbr[arcs if len(weights) == 1 else arcs[wt[arcs] == w]]
            if len(head):
                levels.setdefault(d + w, []).append(head)
    return dist


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

    def distances_from(self, source: int) -> np.ndarray:
        """Scaled shortest-path distances from one vertex, as a read-only
        int32 array (int64 only for distances past 2^31 - 1), cached; -1
        marks an unreachable vertex.

        A level BFS (``_level_bfs``) over the graph, or over ``_reduced``
        when it has cone apexes: then an apex source seeds the BFS from its
        neighbours, and each apex h reads its distance back as the least
        d(u) + w(u, h) over its neighbours u.
        """
        got = self._dist_cache.get(source)
        if got is not None:
            return got
        red = self._reduced
        if red is None:
            dist = _level_bfs(self.n, self._indptr, self._nbr, self._wt, self._weights, [source], 0)
        else:
            csr, is_apex, apex, heads, seg, w = red
            if is_apex[source]:
                seeds = self._nbr[self._indptr[source]:self._indptr[source + 1]]
                dist = _level_bfs(self.n, *csr, seeds, w)
            else:
                dist = _level_bfs(self.n, *csr, [source], 0)
            near, far = dist[heads], np.iinfo(np.int64).max
            d = np.minimum.reduceat(np.where(near < 0, far, near), seg)
            dist[apex] = np.where(d == far, -1, d + w)
            dist[source] = 0  # an apex source read back 2w
        row = dist.astype(np.int32) if dist.max(initial=0) < 2**31 else dist
        row.flags.writeable = False
        self._dist_cache[source] = row
        return row

    @cached_property
    def _reduced(self):
        """The graph with its cone apexes eliminated, or None when it has
        none or their shortcuts would outnumber the graph's arcs.

        An apex is a vertex whose arcs all carry the least weight w and none
        of whose neighbours is such a vertex, so no two apexes are adjacent
        and a shortest path through an apex h enters and leaves it by
        non-apex neighbours u, v: each h becomes the shortcut arcs u -> v of
        weight 2w, and loses its own arcs.  Returns the reduced CSR arrays
        and weights, the apex mask and ids, the heads of the apexes' arcs
        with each apex's first position among them, and w.
        """
        if len(self._weights) < 2:  # every vertex touches another of least weight
            return None
        indptr, nbr, wt, w = self._indptr, self._nbr, self._wt, self._weights[0]
        deg = np.diff(indptr)
        tail = np.repeat(np.arange(self.n), deg)
        light = (np.bincount(tail[wt != w], minlength=self.n) == 0) & (deg > 0)
        is_apex = light & (np.bincount(tail[light[nbr]], minlength=self.n) == 0)
        apex = np.flatnonzero(is_apex)
        d = deg[apex]
        if not len(apex) or int((d * (d - 1)).sum()) > len(nbr):
            return None
        arcs = _arcs(indptr, apex)
        # every ordered pair (a, b) of distinct arcs of one apex
        per = np.repeat(d, d)
        a = np.repeat(arcs, per)
        b = np.repeat(np.repeat(indptr[apex], d) - (np.cumsum(per) - per), per) + np.arange(len(a))
        a, b = a[a != b], b[a != b]
        own = ~(is_apex[tail] | is_apex[nbr])
        tails = np.concatenate([tail[own], nbr[a]])
        order = np.argsort(tails, kind="stable")
        heads = np.concatenate([nbr[own], nbr[b]])[order]
        wts = np.concatenate([wt[own], np.full(len(a), 2 * w)])[order]
        ptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(tails, minlength=self.n), out=ptr[1:])
        csr = ptr, heads, wts, np.unique(wts).tolist()
        return csr, is_apex, apex, nbr[arcs], np.cumsum(d) - d, w

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
    generator = None  # h for <h>: coned_off joins g and g * h with no key

    def contains(self, model: GroupModel, elem: Element) -> bool:
        raise NotImplementedError

    def coset_key(self, model: GroupModel, elem: Element) -> Hashable:
        """Canonical left-coset key: two elements share it exactly when they
        lie in one left coset of the subgroup.  ``coned_off`` numbers cosets
        by it and checks it against ``contains``."""
        raise NotImplementedError


class CyclicSubgroup(SubgroupOracle):
    """The cyclic subgroup generated by one element.

    Its coset key and membership test come from ``CYCLIC``, one entry per
    model class, built once for the generator and the last model asked."""

    def __init__(self, generator: Element, label: str = "H"):
        self.generator = generator
        self.label = label
        self._model = None

    def _entry(self, model):
        """(key, contains) for this generator in ``model``."""
        if model is not self._model:
            h = self.generator
            if h == model.identity():  # the trivial subgroup: each element is its own coset
                self._ops = (lambda elem: elem), (lambda elem: elem == h)
            else:
                build = CYCLIC.get(type(model))
                if build is None:
                    raise UnsupportedCase(f"no cyclic subgroup entry for {model!r}")
                self._ops = build(model, h)
            self._model = model
        return self._ops

    def contains(self, model, elem):
        return self._entry(model)[1](elem)

    def coset_key(self, model, elem):
        return self._entry(model)[0](elem)


def _periodic_cyclic(model: GroupModel, pre: Element, core: Element):
    """<h> for h = p c p^-1 in a free group or free product, where c is
    cyclically reduced with c^k written as c k times (the letters, or the
    syllables, of c and c^-1 never meet).  Then elem<h> = x<c>p^-1 with
    x = elem p.  Once whole copies of c and c^-1 are stripped off the end
    of x, the one or two elements of x<c> that end in neither c nor c^-1
    are among x, x c and x c^-1, the same from any member; the others end
    in c or c^-1 only as x c or x c^-1 written out, longer than x.  So the
    least of the three by (length, payload) names the coset.  elem is in
    <h> exactly when p^-1 elem p is c^k or c^-k as written."""
    pre_inv, inv, n = model.inverse(pre), model.inverse(core), len(core)

    def key(elem):
        x = model.multiply(elem, pre) if pre else elem
        while x[-n:] == core:
            x = x[:-n]
        while x[-n:] == inv:
            x = x[:-n]
        return min((x, model.multiply(x, core), model.multiply(x, inv)), key=lambda w: (len(w), w))

    def contains(elem):
        y = model.multiply(pre_inv, model.multiply(elem, pre)) if pre else elem
        k, rem = divmod(len(y), n)
        return not rem and y in (core * k, inv * k)

    return key, contains


def _lattice_cyclic(coordinates):
    """Z^n and two-step nilpotent groups, whose ``coordinates`` (base part,
    then central part) are additive along <h>: the coordinate t at h's first
    nonzero entry moves by k h_t from elem to elem h^k, since it lies in the
    base part unless h is central.  So elem h^(-floor(elem_t / h_t)) is the
    one element of elem<h> with its coordinate t in [0, |h_t|), and elem is
    in <h> exactly when that key is e."""

    def build(model, h):
        t, ht = next((t, v) for t, v in enumerate(coordinates(h)) if v)
        e = model.identity()

        def key(elem):
            return model.multiply(elem, _power(model, h, -(coordinates(elem)[t] // ht)))

        return key, lambda elem: key(elem) == e

    return build


def _finite_cyclic(model: FiniteGroup, h: Element):
    """<h> read off the table; a coset is keyed by its least element."""
    powers = [model.identity()]
    while (g := model.multiply(powers[-1], h)) != powers[0]:
        powers.append(g)
    table = model.table
    return (lambda elem: min(table[elem][g] for g in powers)), frozenset(powers).__contains__


def _product_cyclic(model: FreeProduct, h: Element):
    """Write h = p c p^-1 with c cyclically reduced.  A core of >= 2
    syllables has first and last syllables in distinct factors, so c^k is c
    written k times (see ``_periodic_cyclic``).  A single syllable c = (i, s)
    leaves the coset to factor i: with x = elem p, elem<h> = x<c>p^-1 is
    named by x without a last syllable in factor i and factor i's key of
    that syllable's payload modulo <s>; elem is in <h> exactly when
    p^-1 elem p is e or (i, y) with y in <s>."""
    pre, core = model.cyclic_syllable_reduce(h)
    if len(core) > 1:
        return _periodic_cyclic(model, pre, core)
    (i, s), = core
    factor, sub, pre_inv = model.factors[i], CyclicSubgroup(s), model.inverse(pre)
    empty = sub.coset_key(factor, factor.identity())

    def key(elem):
        x = model.multiply(elem, pre)
        if x and x[-1][0] == i:
            return x[:-1], sub.coset_key(factor, x[-1][1])
        return x, empty

    def contains(elem):
        y = model.multiply(pre_inv, model.multiply(elem, pre))
        return not y or (len(y) == 1 and y[0][0] == i and sub.contains(factor, y[0][1]))

    return key, contains


# One entry per model class: build(model, h) -> (key, contains) for h != e.
CYCLIC = {
    FreeGroup: lambda model, h: _periodic_cyclic(model, *cyclic_reduce(h)),
    FreeAbelian: _lattice_cyclic(lambda x: x),
    TwoStepNilpotent: _lattice_cyclic(lambda x: x[0] + x[1]),
    FiniteGroup: _finite_cyclic,
    FreeProduct: _product_cyclic,
}


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
        """Cones are numbered factor by factor, each factor's by coset id."""
        sizes = [len(m) for m in self.coset_members]
        if not (0 <= factor_index < len(sizes) and 0 <= coset_id < sizes[factor_index]):
            raise DomainError(f"no cone for coset {coset_id} of factor {factor_index}")
        return self.cone_start + sum(sizes[:factor_index]) + coset_id

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


def _word(b: Ball, x: Element) -> list[int]:
    """Generator indices of a geodesic word for x, read off the ball's
    parent tree; empty when x is e or lies outside the ball."""
    i, word = b.index.get(x, 0), []
    while i > 0:
        word.append(b.parent_gen[i])
        i = b.parents[i]
    return word[::-1]


def _least_members(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per element, the least element of its class under the joins
    u[k] ~ v[k], where u and v each list an element at most once.

    Each round takes the least label across every join and then jumps
    (least = least[least]).  Labels only fall and stay inside their class,
    and a round that changes nothing leaves them equal along every join,
    so each class carries its least member."""
    least = np.arange(n)
    while True:
        new = least.copy()
        new[u] = np.minimum(new[u], least[v])
        new[v] = np.minimum(new[v], least[u])
        new = new[new]
        if np.array_equal(new, least):
            return least
        least = new


def _cosets(b: Ball, oracle) -> tuple[np.ndarray, list[list[int]]]:
    """Coset id per ball element, cosets numbered by least member, and the
    members of each coset in ball order.

    g and g * h lie in one coset of <h>, so composing h's geodesic letters
    through the neighbour table (-1 once a step leaves the ball) joins them
    with no product.  The classes of these joins, chains, can split a coset
    but never merge two; with no generator, or h outside the ball, each
    element is a chain.  ``coset_key`` is called once per chain, on its
    least member, and chains with equal keys merge, each checked with
    ``contains`` against the previous chain of its coset.  Up to
    ``REP_VERIFY_LIMIT`` cosets the key is also checked to split no coset:
    it must agree across one join of each chain, and no two coset
    representatives may lie in one coset.
    """
    model, elements, n, table = b.model, b.elements, len(b), b.neighbour_table()
    t = np.arange(n)
    for s in _word(b, oracle.generator):
        t[t >= 0] = table[t[t >= 0], s]
    u = np.flatnonzero((t >= 0) & (t != np.arange(n)))  # an empty word joins nothing
    v = t[u]
    least = _least_members(n, u, v)
    chains = np.flatnonzero(least == np.arange(n)).tolist()
    keys = [oracle.coset_key(model, elements[r]) for r in chains]
    key_to_id: dict = {}
    last: list[int] = []  # per coset, its latest chain
    chain_ids = []
    for r, key in zip(chains, keys):
        cid = key_to_id.setdefault(key, len(key_to_id))
        if cid < len(last):
            diff = model.multiply(model.inverse(elements[last[cid]]), elements[r])
            if not oracle.contains(model, diff):
                raise OracleInconsistency(
                    f"{oracle.label}: coset key groups non-equivalent elements"
                )
            last[cid] = r
        else:
            last.append(r)
        chain_ids.append(cid)
    ids = np.empty(n, dtype=np.int64)
    ids[chains] = chain_ids
    ids = ids[least]
    order = np.argsort(ids, kind="stable").tolist()
    ends = np.cumsum(np.bincount(ids)).tolist()
    members = [order[lo:hi] for lo, hi in zip([0] + ends, ends)]
    if len(members) <= REP_VERIFY_LIMIT:
        partner = np.full(n, -1)
        partner[u], partner[v] = v, u
        reps = [elements[group[0]] for group in members]
        invs = [model.inverse(g) for g in reps]
        if any(
            p >= 0 and oracle.coset_key(model, elements[p]) != key
            for p, key in zip(partner[chains].tolist(), keys)
        ) or any(
            oracle.contains(model, model.multiply(invs[x], reps[y]))
            for x in range(len(reps))
            for y in range(x + 1, len(reps))
        ):
            raise OracleInconsistency(f"{oracle.label}: coset key splits one coset in two")
    return ids, members


def coned_off(b: Ball, factors) -> ConedOffGraph:
    """Build the coned-off graph of a ball relative to subgroup oracles."""
    oracles = list(factors)
    if not oracles:
        raise DomainError("at least one subgroup factor is required")
    _check_factor_consistency(b, oracles)
    base = cayley_graph(b)
    cosets = [_cosets(b, oracle) for oracle in oracles]
    coset_of = [ids.tolist() for ids, _ in cosets]
    coset_members = [members for _, members in cosets]

    # cone vertex of (factor fi, coset cid) is base.n + offset[fi] + cid
    cones = [(fi, cid) for fi, members in enumerate(coset_members) for cid in range(len(members))]
    offset = base.n + np.cumsum([0] + [len(m) for m in coset_members])
    vertices = np.arange(base.n)
    cone_edges = [
        np.column_stack([vertices, start + ids, np.ones(base.n, dtype=np.int64)])
        for start, (ids, _) in zip(offset, cosets)
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
        arcs = _arcs(g._indptr, verts)
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
