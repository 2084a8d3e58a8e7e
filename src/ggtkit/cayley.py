"""Finite metric graphs from Cayley balls, coned-off graphs relative to
subgroup families, and four-point hyperbolicity estimation.

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


def _arcs(stop: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Indices of the arcs out of some vertices, vertex by vertex, in CSR
    arrays where those vertices' arcs end before ``stop`` and number
    ``count``."""
    arcs = np.repeat(stop - np.cumsum(count), count)
    arcs += np.arange(len(arcs))
    return arcs


_LANE_BLOCK = 1 << 16  # entries per distance array when rows run as lanes of one sweep


def _level_bfs(csr, seeds, lanes: int = 1) -> np.ndarray:
    """Distances (-1 unreached) in ``lanes`` independent copies of a graph
    with positive integer weights, as one flat array: vertex v of lane i is
    entry i·n + v.  ``csr`` is (indptr, deg, nbr, wt, weights) and the
    ``seeds``, flat ids, lie at distance 0.  The array is int32 when every
    distance, at most (n - 1)·max weight, fits, and int64 otherwise.

    Level-synchronous BFS: the unreached vertices queued at the least
    pending level d have distance d, and each arc of weight w out of them
    queues its head at d + w.  A level costs only its queue and the arcs out
    of it: a head is queued only while unreached, and repeated heads are
    dropped by a stamp (each head writes its position, and the heads that
    read their own position back are kept).  With one weight the next level
    is always d + w, so no pending levels are kept.
    """
    indptr, deg, nbr, wt, weights = csr
    n, stop = len(deg), indptr[1:]
    wide = (n - 1) * max(weights, default=0) >= 2**31
    dist = np.full(lanes * n, -1, dtype=np.int64 if wide else np.int32)
    stamp = np.empty(lanes * n, dtype=np.int64)
    heads, d, pending = np.asarray(seeds, dtype=np.int64), 0, {}
    while True:
        pos = np.arange(len(heads))
        stamp[heads] = pos
        frontier = heads[stamp[heads] == pos]
        dist[frontier] = d
        v = frontier % n if lanes > 1 else frontier
        count = deg[v]
        arcs = _arcs(stop[v], count)
        heads = nbr[arcs]
        if lanes > 1:
            heads += np.repeat(frontier - v, count)
        open_ = dist[heads] < 0
        if len(weights) == 1:
            heads, d = heads[open_], d + weights[0]
            if not len(heads):
                return dist
            continue
        for w in weights:
            queued = heads[open_ & (wt[arcs] == w)]
            if len(queued):
                pending.setdefault(d + w, []).append(queued)
        if not pending:
            return dist
        d = min(pending)
        heads = np.concatenate(pending.pop(d))
        heads = heads[dist[heads] < 0]  # some were reached at a lower level since queued


class MetricGraph:
    """Undirected weighted graph; weights are positive ints (scaled x2).

    Adjacency is held once, as CSR arrays: the ``_deg[u]`` neighbours of
    vertex u are ``_nbr[_indptr[u]:_indptr[u + 1]]``, in increasing order,
    with weights ``_wt`` alongside.  ``edges`` may list an edge more than once, in either
    direction, but always with the same weight.

    The graph is connected: the constructor runs one ``_level_bfs`` from
    vertex 0, raises DomainError unless it reaches every vertex, and keeps
    it as the root row ``_root``, whose dtype every distance row shares.
    Rows come from one of three paths, chosen from the graph alone on the
    first row asked for: a tree (``_tree``), whose rows are read off the
    root row; a graph with cone apexes (``_reduced``), searched with the
    apexes eliminated; and any other graph, searched as it is by
    ``_level_bfs``, which is also the oracle of the other two.
    """

    def __init__(self, n: int, edges, ball_radius: Optional[int] = None):
        self.n = n
        u, v, w = np.asarray(edges, dtype=np.int64).reshape(-1, 3).T
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        # one stable sort groups the copies of an edge, each group led by
        # its first copy in input order
        key = lo * n + hi
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.ones(len(key), dtype=bool)
        first[1:] = key[1:] != key[:-1]
        ws = w[order]
        conflict = np.empty(len(w), dtype=bool)
        conflict[order] = ws != ws[first][np.cumsum(first) - 1]
        bad = (lo < 0) | (hi >= n) | (u == v)
        failing = bad | (w < 1) | conflict
        if failing.any():  # report the first failing edge, in input order
            i = int(failing.argmax())
            if bad[i]:
                raise DomainError(f"bad edge ({u[i]},{v[i]})")
            if w[i] < 1:
                raise DomainError("edge weights must be >= 1")
            raise DomainError(f"conflicting weights for edge {(int(lo[i]), int(hi[i]))}")
        keep = order[first]
        lo, hi, w = lo[keep], hi[keep], w[keep]
        self.ball_radius = ball_radius
        tail = np.concatenate([lo, hi])
        head = np.concatenate([hi, lo])
        order = np.argsort(tail * n + head, kind="stable")
        self._nbr = head[order]
        self._wt = np.concatenate([w, w])[order]
        self._deg = np.bincount(tail, minlength=n)
        self._indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self._deg, out=self._indptr[1:])
        self._weights = np.unique(w).tolist()
        self._csr = self._indptr, self._deg, self._nbr, self._wt, self._weights
        self._root = _level_bfs(self._csr, [0] if n else [])
        if (self._root < 0).any():
            raise DomainError("metric graph must be connected")

    def _vertex(self, v) -> int:
        """v as a Python int, or DomainError unless it is an integer in [0, n)."""
        if isinstance(v, (int, np.integer)) and not isinstance(v, bool) and 0 <= v < self.n:
            return int(v)
        raise DomainError(f"no vertex {v!r} in a graph of {self.n} vertices")

    def _edge_array(self) -> np.ndarray:
        """(u, v, w) rows with u < v, sorted, read off the CSR arrays."""
        tail = np.repeat(np.arange(self.n), self._deg)
        up = self._nbr > tail
        return np.column_stack([tail[up], self._nbr[up], self._wt[up]])

    @property
    def edges(self) -> list[tuple[int, int, int]]:
        return list(map(tuple, self._edge_array().tolist()))

    def _rows(self, sources: np.ndarray) -> np.ndarray:
        """Distance rows from the given vertices, fresh arrays in the
        dtype of the root row.

        On a tree (``_tree``), with D the row of the root, each row is
        d(s, v) = (D[v] - D[lca]) + (D[s] - D[lca]) with lca the least common
        ancestor of s and v.  D[lca] is written over the pre-order interval
        of each ancestor of s, from the root down, so each vertex ends with
        that of its deepest ancestor on the path to s; the two differences
        are each at most d(s, v), so the sum never passes the dtype.

        Otherwise one lane each of one ``_level_bfs``, over the graph, or
        over ``_reduced`` when it has cone apexes: then an apex source seeds
        its lane from its neighbours, which all lie at distance w from it,
        and each apex h reads its distance back as the least d(u) + w(u, h)
        over its neighbours u.  The graph is connected, so every lane reaches
        every vertex but the apexes, and every apex has a neighbour.
        """
        k, n = len(sources), self.n
        tree, red = self._search
        if tree is not None:
            D, parent, tin, tout = tree
            dist = np.empty((k, n), dtype=D.dtype)
            lca = np.empty(n, dtype=D.dtype)  # by pre-order position
            for row, s in zip(dist, sources.tolist()):
                path = [s]
                while parent[path[-1]] >= 0:
                    path.append(parent[path[-1]])
                for a in reversed(path):
                    lca[tin[a]:tout[a]] = D[a]
                at = lca[tin]
                np.subtract(D, at, out=row)
                row += D[s] - at
            return dist
        lane = np.arange(k) * n
        if red is None:
            return _level_bfs(self._csr, lane + sources, k).reshape(k, n)
        csr, is_apex, apex, heads, seg, w = red
        at = is_apex[sources]
        hub = sources[at]
        count = self._deg[hub]
        seeds = np.concatenate([
            lane[~at] + sources[~at],
            np.repeat(lane[at], count) + self._nbr[_arcs(self._indptr[hub + 1], count)],
        ])
        dist = _level_bfs(csr, seeds, k).reshape(k, n)
        dist[at] += w  # lanes seeded at distance w
        dist[:, apex] = np.minimum.reduceat(np.take(dist, heads, axis=1), seg, axis=1) + w
        dist[np.arange(k), sources] = 0  # an apex source read back 2w
        return dist.astype(self._root.dtype, copy=False)

    def distances_from(self, source: int) -> np.ndarray:
        """Scaled shortest-path distances from one vertex to every vertex,
        as a fresh int32 array (int64 only when (n - 1)·max weight reaches
        2^31).  One row of ``_rows``: on a tree, read off the root row and
        the ancestors of the source, and otherwise one lane of a BFS."""
        return self._rows(np.array([self._vertex(source)]))[0]

    def _apex_pairs(self):
        """The cone apexes and the pairs of their neighbours, or None when
        the graph has none or the pairs would outnumber its arcs.

        An apex is a vertex whose arcs all carry the least weight w and none
        of whose neighbours is such a vertex, so no two apexes are adjacent.
        Returns the tail of every arc, the apex mask and ids, the apexes'
        arcs apex by apex, the arcs a and b of every ordered pair of
        distinct arcs of one apex, and for each pair the arc that the
        sorted arc keys u·n + v give for nbr[a] -> nbr[b], with a mask of
        the pairs where that arc exists.
        """
        if len(self._weights) < 2:  # every vertex touches another of least weight
            return None
        indptr, deg, nbr, wt, w = self._indptr, self._deg, self._nbr, self._wt, self._weights[0]
        tail = np.repeat(np.arange(self.n), deg)
        light = (np.bincount(tail[wt != w], minlength=self.n) == 0) & (deg > 0)
        is_apex = light & (np.bincount(tail[light[nbr]], minlength=self.n) == 0)
        apex = np.flatnonzero(is_apex)
        d = deg[apex]
        if not len(apex) or int((d * (d - 1)).sum()) > len(nbr):
            return None
        arcs = _arcs(indptr[apex + 1], d)
        # every ordered pair (a, b) of distinct arcs of one apex
        per = np.repeat(d, d)
        a = np.repeat(arcs, per)
        b = np.repeat(np.repeat(indptr[apex], d) - (np.cumsum(per) - per), per) + np.arange(len(a))
        a, b = a[a != b], b[a != b]
        key, pair = tail * self.n + nbr, nbr[a] * self.n + nbr[b]
        at = np.minimum(np.searchsorted(key, pair), len(key) - 1)
        return tail, is_apex, apex, arcs, a, b, at, key[at] == pair

    @cached_property
    def _search(self):
        """How ``_rows`` finds distances, chosen from the graph alone on the
        first row asked for, with the apex pairs enumerated once: (tree,
        None) on a tree (``_tree``), (None, reduced) when cone apexes are
        eliminated (``_reduced``), and (None, None) for the plain
        ``_level_bfs``."""
        pairs = self._apex_pairs()
        tree = self._tree(pairs)
        return tree, (None if tree is not None else self._reduced(pairs))

    def _tree(self, pairs):
        """The graph as a tree rooted at vertex 0, or None when it is not one
        once its dominated arcs are dropped.

        An arc u -> v of weight at least 2w whose ends share an apex
        neighbour h (``pairs``, from ``_apex_pairs``) is dominated: the path
        u-h-v costs 2w, so dropping it keeps every distance, and an apex's
        own arcs, of weight w < 2w, are never dropped.  So the kept edges
        still join every vertex, and when they number n - 1 they form a
        tree, every distance is along it, and D is the root row.  Each kept
        arc then joins a parent to a child of larger D, so the vertices of
        one D have no ancestor among themselves: subtree sizes are summed
        one D at a time from the largest, and each child's pre-order start,
        its parent's plus 1 plus the sizes of its earlier siblings, is added
        one D at a time from the root.  Returns D, the parents (-1 at the root) and the
        pre-order interval [tin, tout) of each subtree.
        """
        n, nbr = self.n, self._nbr
        keep = np.ones(len(nbr), dtype=bool)
        if pairs is not None:
            at, hit = pairs[-2:]
            keep[at[hit & (self._wt[at] >= 2 * self._weights[0])]] = False
        if int(keep.sum()) != 2 * (n - 1):
            return None
        D = self._root
        tail = np.repeat(np.arange(n), self._deg)
        down = keep & (D[nbr] > D[tail])
        kids, par = nbr[down], tail[down]  # grouped by parent, as the arcs are
        parent = np.full(n, -1)
        parent[kids] = par
        order = np.argsort(D, kind="stable")
        levels = np.split(order, np.flatnonzero(np.diff(D[order])) + 1)[1:]  # the root alone has D = 0
        size = np.ones(n, dtype=np.int64)
        for level in reversed(levels):
            np.add.at(size, parent[level], size[level])
        before = np.cumsum(size[kids]) - size[kids]
        first = np.flatnonzero(np.diff(par, prepend=-1))
        before -= np.repeat(before[first], np.diff(first, append=len(par)))
        tin = np.zeros(n, dtype=np.int64)
        tin[kids] = before + 1
        for level in levels:
            tin[level] += tin[parent[level]]
        return D, parent, tin, tin + size

    def _reduced(self, pairs):
        """The graph with its cone apexes eliminated, or None when it has
        none or their shortcuts would outnumber the graph's arcs (``pairs``
        is None, from ``_apex_pairs``).

        No two apexes are adjacent, so a shortest path through an apex h
        enters and leaves it by non-apex neighbours u, v: each h becomes the
        shortcut arcs u -> v of weight 2w, and loses its own arcs.  A
        shortcut beside an arc u -> v of weight at most 2w (u and u·h, for a
        cone of <h> with h a generator) is left out.  Returns the reduced
        CSR arrays (as ``_level_bfs`` takes them), the apex mask and ids,
        the heads of the apexes' arcs with each apex's first position among
        them, and w.
        """
        if pairs is None:
            return None
        tail, is_apex, apex, arcs, a, b, at, hit = pairs
        nbr, wt, w = self._nbr, self._wt, self._weights[0]
        new = ~hit | (wt[at] > 2 * w)
        a, b = a[new], b[new]
        own = ~(is_apex[tail] | is_apex[nbr])
        tails = np.concatenate([tail[own], nbr[a]])
        order = np.argsort(tails, kind="stable")
        heads = np.concatenate([nbr[own], nbr[b]])[order]
        wts = np.concatenate([wt[own], np.full(len(a), 2 * w)])[order]
        count = np.bincount(tails, minlength=self.n)
        ptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(count, out=ptr[1:])
        csr = ptr, count, heads, wts, np.unique(wts).tolist()
        d = self._deg[apex]
        return csr, is_apex, apex, nbr[arcs], np.cumsum(d) - d, w

    def distance_scaled(self, u: int, v: int) -> int:
        return int(self.distances_from(u)[self._vertex(v)])

    def distance(self, u: int, v: int) -> Fraction:
        return Fraction(self.distance_scaled(u, v), SCALE)

    def distance_matrix_scaled(self, vertices: Optional[Sequence[int]] = None) -> np.ndarray:
        """Scaled distances between the given vertices (all by default), as
        an int64 matrix.  The rows run as lanes of ``_rows``, at most
        ``_LANE_BLOCK`` entries at a time, and are not cached."""
        if vertices is None:
            verts = np.arange(self.n)
        else:
            verts = np.array([self._vertex(v) for v in vertices], dtype=np.int64)
        out = np.empty((len(verts), len(verts)), dtype=np.int64)
        step = max(1, _LANE_BLOCK // max(self.n, 1))
        for i in range(0, len(verts), step):
            out[i:i + step] = self._rows(verts[i:i + step])[:, verts]
        return out

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


def _ball_edges(b: Ball) -> np.ndarray:
    """Edges (u, u*s) of weight 2 per generator s whenever both endpoints
    lie in the ball, read off the ball's neighbour table (generators are
    closed under inverses, so u < v suffices)."""
    nbr = b.neighbour_table()
    u = np.repeat(np.arange(len(b)), nbr.shape[1])
    v = nbr.ravel()
    up = v > u
    return np.column_stack([u[up], v[up], np.full(int(up.sum()), SCALE)])


def cayley_graph(b: Ball) -> MetricGraph:
    """Cayley graph restricted to a ball."""
    return MetricGraph(len(b), _ball_edges(b), ball_radius=b.radius)


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
    <h> exactly when p^-1 elem p is c^k or c^-k as written; those two
    words are built once per k."""
    pre_inv, inv, n = model.inverse(pre), model.inverse(core), len(core)
    powers: dict = {}  # k -> (c^k, c^-k)

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
        if rem:
            return False
        pair = powers.get(k)
        if pair is None:
            pair = powers[k] = core * k, inv * k
        return y in pair

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

    Cone edges have weight 1 (true length 1/2); ball edges keep weight 2.
    Vertices 0..len(ball)-1 are ball elements, the rest are cone vertices,
    numbered factor by factor, each factor's by coset id.
    """

    ball: Ball
    graph: MetricGraph
    coset_members: list  # per factor: list of member index lists per coset

    @property
    def cone_start(self) -> int:
        return len(self.ball)

    def distance(self, u: int, v: int) -> Fraction:
        return self.graph.distance(u, v)

    def summary(self) -> dict:
        out = self.graph.summary()
        out["cone_vertices"] = self.graph.n - len(self.ball)
        out["cosets_per_factor"] = [len(m) for m in self.coset_members]
        return out


def _check_factor_consistency(b: Ball, oracles) -> None:
    """Check each factor's members for closure, and the factors for
    intersecting only in the identity."""
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

    When the Cayley graph is a tree (``model.tree``) and h lies in the
    ball, each chain is a whole coset met with the ball, so past
    ``REP_VERIFY_LIMIT`` chains no key is needed.  For h = e both are
    single elements.  Otherwise walking h's reduced word from x is a path
    with no backtracking, so it is the geodesic from x to xh, and a ball of
    a tree holds the geodesic between any two of its points: x and xh are
    joined whenever both lie in the ball.  And h != e acts on the tree as a
    translation along an axis, so k -> |g h^k| is non-increasing, then
    non-decreasing: the k with g h^k in the ball form an interval, whose
    consecutive members are joined.
    """
    model, elements, n, table = b.model, b.elements, len(b), b.neighbour_table()
    h = oracle.generator
    t = np.arange(n)
    for s in _word(b, h):
        t[t >= 0] = table[t[t >= 0], s]
    u = np.flatnonzero((t >= 0) & (t != np.arange(n)))  # an empty word joins nothing
    v = t[u]
    least = _least_members(n, u, v)
    is_chain = least == np.arange(n)
    chains = np.flatnonzero(is_chain).tolist()
    if model.tree and len(chains) > REP_VERIFY_LIMIT and h in b.index:
        ids = (np.cumsum(is_chain) - 1)[least]
        keys = None
    else:
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
    cosets = [_cosets(b, oracle) for oracle in oracles]
    coset_members = [members for _, members in cosets]

    # cone vertex of (factor fi, coset cid) is offset[fi] + cid
    n = len(b)
    offset = n + np.cumsum([0] + [len(m) for m in coset_members])
    vertices = np.arange(n)
    cone_edges = [
        np.column_stack([vertices, start + ids, np.ones(n, dtype=np.int64)])
        for start, (ids, _) in zip(offset, cosets)
    ]
    n_cones = sum(len(m) for m in coset_members)
    graph = MetricGraph(n + n_cones, np.concatenate([_ball_edges(b), *cone_edges]), ball_radius=b.radius)
    return ConedOffGraph(b, graph, coset_members)


# ---------------------------------------------------------------------------
# four-point hyperbolicity


_SWEEP_BLOCK = 1 << 16  # entries per temporary array in the quadruple sweep


def _four_point_max_defect(D: np.ndarray) -> int:
    """Max over quadruples of (largest sum - middle sum), scaled units.

    The defect is invariant under permuting the four points and is 0 when
    two of them coincide (triangle inequality), so it suffices to take
    x < y < z, w: each 4-set is visited twice instead of 12 times.  For one
    y the x are swept in blocks of at most ``_SWEEP_BLOCK`` entries, in the
    narrowest of int16, int32 and int64 that holds 6·max(D), the bound on
    every partial sum of the defect.
    """
    n = D.shape[0]
    top = 6 * int(D.max(initial=0))
    dtype = np.int16 if top < 2**15 else np.int32 if top < 2**31 else np.int64
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
    graph: MetricGraph,
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
    if exhaustive is not False:
        fits = exhaustive_fits(graph, exhaustive_cap)
        if exhaustive and not fits:
            raise ResourceCapError(
                f"exhaustive quadruple scan capped at {exhaustive_cap} vertices over its blocks"
            )
        exhaustive = fits
    if not exhaustive:
        rng = np.random.default_rng(seed)
        chosen = rng.choice(graph.n, size=min(graph.n, sample_vertices), replace=False)
        verts = sorted(int(v) for v in chosen)
        return Fraction(_four_point_max_defect(graph.distance_matrix_scaled(verts)), 2 * SCALE)
    defect = 0
    pos = np.full(graph.n, -1)
    for block in graph.blocks:
        if len(block) < 4:  # a quadruple with a repeated point has defect 0
            continue
        verts = np.sort(block)
        pos[verts] = np.arange(len(verts))
        count = graph._deg[verts]
        arcs = _arcs(graph._indptr[verts + 1], count)
        u = np.repeat(np.arange(len(verts)), count)
        v = pos[graph._nbr[arcs]]
        up = v > u
        piece = MetricGraph(len(verts), np.column_stack([u[up], v[up], graph._wt[arcs][up]]))
        defect = max(defect, _four_point_max_defect(piece.distance_matrix_scaled()))
        pos[verts] = -1
    return Fraction(defect, 2 * SCALE)
