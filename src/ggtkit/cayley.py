"""Finite metric graphs from Cayley balls, coned-off graphs relative to
subgroup families, four-point hyperbolicity estimation, and quasi-geodesic
predicates.

All edge weights are stored doubled so that cone half-edges stay integral;
every reported distance is a halved rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Optional, Sequence

import numpy as np

from .config import DEFAULT_BALL_CAP, DEFAULT_EXHAUSTIVE_QUADRUPLE_CAP
from .errors import DomainError, OracleInconsistency, ResourceCapError
from .groups import Element, FreeGroup, GroupModel, cyclic_reduce

SCALE = 2  # stored weight = SCALE * true length


# ---------------------------------------------------------------------------
# balls


@dataclass
class Ball:
    """All elements of word length <= radius, in BFS order, with the
    geodesic parent tree that witnesses the lengths."""

    model: GroupModel
    radius: int
    elements: list
    index: dict
    parents: list[int]  # parent index per element; -1 for the identity
    parent_gen: list[int]  # generator index applied to the parent; -1 for identity
    lengths: list[int]

    def __len__(self):
        return len(self.elements)

    def element_index(self, a: Element) -> int:
        idx = self.index.get(a)
        if idx is None:
            raise DomainError("element is not in the ball")
        return idx

    def verify_parent(self, i: int) -> bool:
        if i == 0:
            return self.parents[0] == -1 and self.lengths[0] == 0
        gens = self.model.generator_elements()
        parent = self.elements[self.parents[i]]
        return (
            self.model.multiply(parent, gens[self.parent_gen[i]]) == self.elements[i]
            and self.lengths[i] == self.lengths[self.parents[i]] + 1
        )


def ball(model: GroupModel, radius: int, *, cap: int = DEFAULT_BALL_CAP) -> Ball:
    """BFS ball of the given radius over the model's standard generators."""
    if radius < 0:
        raise DomainError("radius must be >= 0")
    gens = model.generator_elements()
    ident = model.identity()
    elements = [ident]
    index = {ident: 0}
    parents = [-1]
    parent_gen = [-1]
    lengths = [0]
    frontier = [0]
    for dist in range(1, radius + 1):
        nxt = []
        for ui in frontier:
            u = elements[ui]
            for gi, s in enumerate(gens):
                w = model.multiply(u, s)
                if w not in index:
                    if len(elements) >= cap:
                        raise ResourceCapError(
                            f"ball size cap {cap} exceeded at radius {dist}"
                        )
                    index[w] = len(elements)
                    elements.append(w)
                    parents.append(ui)
                    parent_gen.append(gi)
                    lengths.append(dist)
                    nxt.append(index[w])
        frontier = nxt
        if not frontier:
            break
    return Ball(model, radius, elements, index, parents, parent_gen, lengths)


# ---------------------------------------------------------------------------
# metric graphs


class MetricGraph:
    """Undirected weighted graph; weights are positive ints (scaled x2).

    Adjacency is held once, as CSR arrays: the neighbours of vertex u are
    ``_nbr[_indptr[u]:_indptr[u + 1]]``, in increasing order, with weights
    ``_wt`` alongside.
    """

    def __init__(self, n: int, edges, labels: Optional[list[str]] = None,
                 ball_radius: Optional[int] = None):
        self.n = n
        seen = {}
        for u, v, w in edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise DomainError(f"bad edge ({u},{v})")
            if w < 1:
                raise DomainError("edge weights must be >= 1")
            key = (min(u, v), max(u, v))
            if key in seen and seen[key] != w:
                raise DomainError(f"conflicting weights for edge {key}")
            seen[key] = w
        self.edges = sorted((u, v, w) for (u, v), w in seen.items())
        self.labels = labels if labels is not None else [str(i) for i in range(n)]
        self.ball_radius = ball_radius
        e = np.array(self.edges, dtype=np.int64).reshape(-1, 3)
        tail = np.concatenate([e[:, 0], e[:, 1]])
        head = np.concatenate([e[:, 1], e[:, 0]])
        order = np.lexsort((head, tail))
        self._nbr = head[order]
        self._wt = np.concatenate([e[:, 2], e[:, 2]])[order]
        self._indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(tail, minlength=n), out=self._indptr[1:])
        self._dist_cache: dict[int, list[int]] = {}
        if n > 0 and min(self.distances_from(0)) < 0:
            raise DomainError("metric graph must be connected")

    def edge_weight(self, u: int, v: int) -> Optional[int]:
        lo, hi = self._indptr[u], self._indptr[u + 1]
        k = lo + np.searchsorted(self._nbr[lo:hi], v)
        return int(self._wt[k]) if k < hi and self._nbr[k] == v else None

    def distances_from(self, source: int) -> list[int]:
        """Scaled shortest-path distances from one vertex (cached); -1 marks
        an unreachable vertex.

        Dial's bucket queue: weights are positive integers, so every vertex
        left in bucket d when it is popped has final distance d, and the
        whole bucket is relaxed at once.
        """
        got = self._dist_cache.get(source)
        if got is not None:
            return got
        indptr, nbr, wt = self._indptr, self._nbr, self._wt
        unreached = np.iinfo(np.int64).max
        dist = np.full(self.n, unreached, dtype=np.int64)
        dist[source] = 0
        slot = np.empty(self.n, dtype=np.int64)
        buckets = {0: [np.array([source])]}
        while buckets:
            d = min(buckets)
            frontier = np.concatenate(buckets.pop(d))
            frontier = frontier[dist[frontier] == d]  # drop entries improved since
            start = indptr[frontier]
            count = indptr[frontier + 1] - start
            offset = np.cumsum(count) - count
            arcs = np.arange(int(count.sum())) + np.repeat(start - offset, count)
            v = nbr[arcs]
            nd = d + wt[arcs]
            better = nd < dist[v]
            v, nd = v[better], nd[better]
            np.minimum.at(dist, v, nd)
            settled = nd == dist[v]
            v, nd = v[settled], nd[settled]
            # one entry per vertex: the one whose index its slot kept
            idx = np.arange(len(v))
            slot[v] = idx
            first = slot[v] == idx
            v, nd = v[first], nd[first]
            for level in np.unique(nd).tolist():
                buckets.setdefault(level, []).append(v[nd == level])
        dist[dist == unreached] = -1
        row = dist.tolist()
        self._dist_cache[source] = row
        return row

    def distance_scaled(self, u: int, v: int) -> int:
        d = self.distances_from(u)[v]
        if d < 0:
            raise DomainError("vertices are disconnected")  # defensive; balls are connected
        return d

    def distance(self, u: int, v: int) -> Fraction:
        return Fraction(self.distance_scaled(u, v), SCALE)

    def distance_matrix_scaled(self, vertices: Optional[Sequence[int]] = None) -> np.ndarray:
        verts = list(range(self.n)) if vertices is None else list(vertices)
        rows = []
        for u in verts:
            du = self.distances_from(u)
            rows.append([du[v] for v in verts])
        return np.array(rows, dtype=np.int64)

    def csv_rows(self) -> list[tuple[int, int, int]]:
        return [(u, v, w) for u, v, w in self.edges]

    def summary(self) -> dict:
        return {
            "vertices": self.n,
            "edges": len(self.edges),
            "scaled": True,
            "ball_radius": self.ball_radius,
        }


def cayley_graph(b: Ball) -> MetricGraph:
    """Cayley graph restricted to a ball: edge (u, u*s) of weight 2 per
    generator s whenever both endpoints lie in the ball."""
    model = b.model
    gens = model.generator_elements()
    edges = set()
    for ui, u in enumerate(b.elements):
        for s in gens:
            vi = b.index.get(model.multiply(u, s))
            if vi is not None and vi != ui:
                edges.add((min(ui, vi), max(ui, vi), SCALE))
    labels = [model.element_str(e) for e in b.elements]
    return MetricGraph(len(b.elements), sorted(edges), labels, ball_radius=b.radius)


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

    def __init__(self, generator: Element, label: str = "H", power_cap: int = 4096):
        self.generator = generator
        self.label = label
        self.power_cap = power_cap

    def contains(self, model, elem):
        g = self.generator
        if elem == model.identity():
            return True
        if g == model.identity():
            return False
        if isinstance(model, FreeGroup):
            return self._free_power_check(model, elem)
        power = g
        inv = model.inverse(g)
        neg = inv
        for _ in range(self.power_cap):
            if power == elem or neg == elem:
                return True
            if power == model.identity():
                return False  # finite cyclic group exhausted
            power = model.multiply(power, g)
            neg = model.multiply(neg, inv)
        raise DomainError(
            f"cyclic membership undecided within power cap {self.power_cap}"
        )

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


def coned_off(b: Ball, factors, *, rep_verify_limit: int = 500) -> ConedOffGraph:
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
        ids = [-1] * len(b.elements)
        members: list[list[int]] = []
        if oracle.coset_key(model, model.identity()) is not None:
            key_to_id: dict = {}
            for i, e in enumerate(b.elements):
                key = oracle.coset_key(model, e)
                cid = key_to_id.get(key)
                if cid is None:
                    cid = len(members)
                    key_to_id[key] = cid
                    members.append([])
                ids[i] = cid
                members[cid].append(i)
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
            if len(members) <= rep_verify_limit:
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
        else:
            # generic scan: compare against one representative per known coset
            reps: list[int] = []
            for i, e in enumerate(b.elements):
                for cid, r in enumerate(reps):
                    diff = model.multiply(model.inverse(b.elements[r]), e)
                    if oracle.contains(model, diff):
                        ids[i] = cid
                        members[cid].append(i)
                        break
                else:
                    ids[i] = len(reps)
                    reps.append(i)
                    members.append([i])
        coset_of.append(ids)
        coset_members.append(members)

    cones = []
    cone_edges = []
    labels = list(base.labels)
    for fi, oracle in enumerate(oracles):
        for cid, group in enumerate(coset_members[fi]):
            vertex = base.n + len(cones)
            cones.append((fi, cid))
            rep = group[0]
            labels.append(f"v({oracle.label}:{base.labels[rep]})")
            for i in group:
                cone_edges.append((i, vertex, 1))
    graph = MetricGraph(
        base.n + len(cones),
        list(base.edges) + cone_edges,
        labels,
        ball_radius=b.radius,
    )
    return ConedOffGraph(b, base, graph, oracles, cones, coset_of, coset_members)


def distance(graph, u: int, v: int) -> Fraction:
    """Exact shortest-path distance (true, unscaled units) on either kind of graph."""
    return graph.distance(u, v)


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


def estimate_delta_4point(
    graph,
    *,
    exhaustive: Optional[bool] = None,
    sample_vertices: int = 64,
    seed: int = 0,
    exhaustive_cap: int = DEFAULT_EXHAUSTIVE_QUADRUPLE_CAP,
) -> Fraction:
    """Four-point hyperbolicity defect of a finite graph.

    Exhaustive over all quadruples when the graph has at most
    ``exhaustive_cap`` vertices (or when forced); otherwise exhaustive over a
    seeded random vertex sample, which yields a certified lower bound.
    """
    g = graph.graph if isinstance(graph, ConedOffGraph) else graph
    if exhaustive is None:
        exhaustive = g.n <= exhaustive_cap
    if exhaustive and g.n > exhaustive_cap:
        raise ResourceCapError(
            f"exhaustive quadruple scan capped at {exhaustive_cap} vertices"
        )
    if exhaustive:
        verts = None
    else:
        rng = np.random.default_rng(seed)
        chosen = rng.choice(g.n, size=min(g.n, sample_vertices), replace=False)
        verts = sorted(int(v) for v in chosen)
    D = g.distance_matrix_scaled(verts)
    defect = _four_point_max_defect(D)
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
            d = di[path.vertices[j]]  # scaled
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
