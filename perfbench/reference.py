"""Reference mathematics for the benchmark's output checks.

Nothing here imports ggtkit: every answer the benchmark accepts is compared
with values derived from these independent implementations or from closed
forms, never from the code being timed.

Conventions follow ggtkit's documented element formats: a free-group word is
a tuple of nonzero ints (letter i is generator i, -i its inverse), and a
Heisenberg element is a pair ((x, y), (z,)) with the collection rule
``(a, c) * (a', c') = (a + a', c + c' + a'[1] * a[0])``.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# free groups


def free_reduce(letters) -> tuple:
    out: list = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def free_inv(word) -> tuple:
    return tuple(-x for x in reversed(word))


def free_mul(a, b) -> tuple:
    return free_reduce(tuple(a) + tuple(b))


def free_conj(g, u) -> tuple:
    """g^-1 u g."""
    return free_mul(free_inv(g), free_mul(u, g))


def free_exponent_sums(word, rank: int) -> tuple:
    sums = [0] * rank
    for x in word:
        sums[abs(x) - 1] += 1 if x > 0 else -1
    return tuple(sums)


def free_ball(rank: int, radius: int) -> list:
    """Every reduced word of length <= radius, shortest first."""
    letters = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    words = [()]
    frontier = [()]
    for _ in range(radius):
        frontier = [w + (x,) for w in frontier for x in letters if not w or w[-1] != -x]
        words.extend(frontier)
    return words


def free_coset_key(word, h) -> tuple:
    """Canonical name of the left coset word<h>, for cyclically reduced h.

    Strip whole copies of h or h^-1 off the end; then the shortest coset
    elements are within one more factor of h, and the least of those by
    (length, letters) names the coset.
    """
    hinv = free_inv(h)
    n = len(h)
    w = tuple(word)
    while len(w) >= n and (w[-n:] == h or w[-n:] == hinv):
        w = w[:-n]
    cands = (w, free_mul(w, h), free_mul(w, hinv))
    return min(cands, key=lambda c: (len(c), c))


# ---------------------------------------------------------------------------
# Heisenberg group


def heis_mul(x, y):
    (a, c), (a2, c2) = x, y
    return ((a[0] + a2[0], a[1] + a2[1]), (c[0] + c2[0] + a2[1] * a[0],))


def heis_inv(x):
    # solve x * y = e for y = (-a, (w,)): c + w + (-a[1]) * a[0] = 0
    (a, c) = x
    return ((-a[0], -a[1]), (a[0] * a[1] - c[0],))


def heis_conj(g, u):
    return heis_mul(heis_inv(g), heis_mul(u, g))


# ---------------------------------------------------------------------------
# graphs and distances


class ConedReference:
    """Coned-off Cayley ball of a free group relative to one cyclic subgroup.

    Vertices are ball words followed by one cone vertex per coset key; edge
    weights are doubled (2 for a generator edge, 1 for a cone half-edge), as
    ggtkit stores them.
    """

    def __init__(self, rank: int, radius: int, h):
        self.words = free_ball(rank, radius)
        self.index = {w: i for i, w in enumerate(self.words)}
        n = len(self.words)
        letters = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
        us, vs, ws = [], [], []
        for i, w in enumerate(self.words):
            for x in letters:
                j = self.index.get(free_mul(w, (x,)))
                if j is not None and i < j:
                    us.append(i)
                    vs.append(j)
                    ws.append(2)
        self.cone_of_key: dict = {}
        for i, w in enumerate(self.words):
            key = free_coset_key(w, h)
            cone = self.cone_of_key.setdefault(key, n + len(self.cone_of_key))
            us.append(i)
            vs.append(cone)
            ws.append(1)
        self.h = tuple(h)
        self.n = n + len(self.cone_of_key)
        self.u = np.array(us, dtype=np.int64)
        self.v = np.array(vs, dtype=np.int64)
        self.w = np.array(ws, dtype=np.int64)


def match_vertices(ref: ConedReference, elements, edges, cone_start: int):
    """Map a program's coned graph onto the reference and compare edge sets.

    ``elements`` lists the program's base vertices as words and ``edges``
    its (u, v, weight) triples; cone vertices are numbered from
    ``cone_start``.  Returns (perm, problem) with perm[i] the reference
    vertex of program vertex i, or (None, problem) when the graphs differ.
    """
    if len(elements) != len(ref.words) or cone_start != len(elements):
        return None, "base vertices are not the reference ball"
    perm = np.full(ref.n, -1, dtype=np.int64)
    for i, w in enumerate(elements):
        j = ref.index.get(tuple(w))
        if j is None:
            return None, f"base vertex {i} is not a reference ball word"
        perm[i] = j
    for u, v, w in edges:
        cone, member = max(u, v), min(u, v)
        if cone >= cone_start and cone < ref.n and perm[cone] < 0:
            perm[cone] = ref.cone_of_key[free_coset_key(elements[member], ref.h)]
    if (perm < 0).any() or len(set(perm.tolist())) != ref.n:
        return None, "vertices do not match the reference one to one"
    p = perm.tolist()
    got = sorted((min(p[u], p[v]), max(p[u], p[v]), w) for u, v, w in edges)
    want = sorted(zip(ref.u.tolist(), ref.v.tolist(), ref.w.tolist()))
    if got != want:
        return None, "edges differ from the reference coned graph"
    return perm, None


def row_certificate(u, v, w, row, source: int) -> bool:
    """True when ``row`` is exactly the shortest-path distance row from source.

    A row is correct iff it is 0 at the source, no edge is tight-violated
    (|r[u] - r[v]| <= w) and every other vertex has a tight predecessor
    (r[p] + w = r[x]): the first bounds it above by the distance, the
    second exhibits a path of that length.
    """
    r = np.asarray(row, dtype=np.int64)
    if r[source] != 0 or (r < 0).any():
        return False
    ru, rv = r[u], r[v]
    if (np.abs(ru - rv) > w).any():
        return False
    tight = np.zeros(len(r), dtype=bool)
    tight[v[ru + w == rv]] = True
    tight[u[rv + w == ru]] = True
    tight[source] = True
    return bool(tight.all())


def four_point_delta(D: np.ndarray) -> Fraction:
    """Four-point delta (largest minus middle pair sum, halved) of a
    distance matrix given in true units."""
    n = D.shape[0]
    best = 0
    for x in range(n):
        for y in range(x + 1, n):
            s = np.stack(
                [
                    np.broadcast_to(D[x, y] + D, (n, n)),
                    D[x][:, None] + D[y][None, :],
                    D[y][:, None] + D[x][None, :],
                ]
            )
            s.sort(axis=0)
            best = max(best, int((s[2] - s[1]).max()))
    return Fraction(best, 2)


def z2_diamond_distances(radius: int) -> np.ndarray:
    """Distances in the Cayley graph of the Z^2 ball |x| + |y| <= radius.

    Any two points of the diamond are joined by a monotone lattice path
    that first shrinks and then grows coordinates, so it never leaves the
    ball: the induced metric is the l1 metric.
    """
    pts = [(x, y) for x in range(-radius, radius + 1) for y in range(-radius, radius + 1)
           if abs(x) + abs(y) <= radius]
    P = np.array(pts, dtype=np.int64)
    return np.abs(P[:, None, :] - P[None, :, :]).sum(axis=2)


# ---------------------------------------------------------------------------
# profile digests


def profile_digest(records) -> str:
    """sha256 over sorted (u, v, min conjugator length, class rep) lines."""
    lines = sorted(f"{u!r};{v!r};{length};{rep}" for u, v, length, rep in records)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
