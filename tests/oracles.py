"""Slow oracles and acceptance checkers that only the test suite runs.

- The whole Hochschild slice of C[G]: every tuple of G^(n+1), split by the
  conjugacy class of its product, and the whole matrices of b, B and the
  rotation tau on it.  ``ggtkit homology`` builds only the centralizer
  subcomplexes S_x; these are what S_x is checked against.
- The decomposition comparison maps (acceptance criterion 6) and the
  simplicial weight check on ball-truncated models (criterion 9).
- Dense Bareiss rank, the oracle of the sparse elimination.
- The parent check of a BFS ball: each element is its parent times its
  parent generator, one step further from e.
- N(k, R) = n_tilde(k) + R + 2 delta (criterion 4) and the relative bound
  K_h (lu + lv) of a hyperbolic pair, which the composite theorem bound
  must dominate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from ggtkit import homology
from ggtkit.bounds import PresentationConstants, n_tilde
from ggtkit.cayley import ball
from ggtkit.config import DEFAULT_BASIS_CAP
from ggtkit.errors import DomainError, ResourceCapError
from ggtkit.groups import FiniteGroup, GroupModel, TwoStepNilpotent
from ggtkit.homology import ComplexSlice, TupleBasis

# ---------------------------------------------------------------------------
# the whole Hochschild slice


def _product(model: FiniteGroup, t: tuple) -> int:
    p = 0
    for g in t:
        p = model.multiply(p, g)
    return p


def hochschild_bases(model: FiniteGroup, n_max: int, class_of=None, basis_cap: int = DEFAULT_BASIS_CAP) -> list:
    """Tuple bases of degrees 0..n_max, every tuple of G^(n+1) in
    tuple-index order, split by ``class_of`` of the tuple product.  All of
    one class when ``class_of`` is None."""
    homology.require_finite(model)
    if n_max < 0:
        raise DomainError("degree must be >= 0")
    o, dim = model.order, model.order ** (n_max + 1)
    class_of = class_of or (0,) * o
    if dim > basis_cap:
        raise ResourceCapError(f"basis of degree {n_max} has {dim} tuples, over cap {basis_cap}")
    tuples, products = [()], [0]
    bases = []
    for _ in range(n_max + 1):
        tuples = [t + (g,) for t in tuples for g in range(o)]
        products = [model.multiply(p, g) for p in products for g in range(o)]
        blocks = tuple([] for _ in range(max(class_of) + 1))
        where = {}
        for t, p in zip(tuples, products):
            c = class_of[p]
            where[t] = (c, len(blocks[c]), 1)
            blocks[c].append(t)
        bases.append(TupleBasis(blocks, where))
    return bases


def hochschild_slice(model: FiniteGroup, n_max: int, *, basis_cap: int = DEFAULT_BASIS_CAP) -> ComplexSlice:
    """The whole Hochschild complex in degrees <= n_max, split by the
    conjugacy class of the tuple product."""
    table = homology.conj_classes(model)
    bases = hochschild_bases(model, n_max, table.class_of, basis_cap)
    return homology._split_slice(model, "hochschild", table, bases)


def centralizer_blocks(model: FiniteGroup, n_max: int) -> list:
    """S_x filtered out of the whole tuple bases: per degree and class, the
    tuples of the class block with every entry in C_G(x) and product x."""
    table = homology.conj_classes(model)
    out = []
    for basis in hochschild_bases(model, n_max, table.class_of, model.order ** (n_max + 1)):
        blocks = []
        for cls, block in zip(table.classes, basis.blocks):
            z, x = frozenset(cls.centralizer), cls.representative
            blocks.append([t for t in block if z.issuperset(t) and _product(model, t) == x])
        out.append(blocks)
    return out


def whole_b(model: FiniteGroup, n: int, *, basis_cap: int = DEFAULT_BASIS_CAP):
    """The whole matrix of b_n on the tuple bases, the one-class case of the
    block assembler."""
    return homology.hochschild_boundary(model, n, hochschild_bases(model, n, None, basis_cap), 0)


def whole_B(model: FiniteGroup, n: int, *, basis_cap: int = DEFAULT_BASIS_CAP):
    """The whole matrix of Connes' B_n on the tuple bases."""
    return homology.connes_B(model, n, hochschild_bases(model, n + 1, None, basis_cap), 0)


def _tau_faces(model: FiniteGroup, t: tuple):
    yield (t[-1],) + t[:-1], (-1) ** (len(t) - 1)


def tau_matrix(model: FiniteGroup, n: int, *, basis_cap: int = DEFAULT_BASIS_CAP):
    """The signed cyclic rotation (-1)^n (g_n, g_0,..,g_(n-1)) on C_n."""
    bases = hochschild_bases(model, n, None, basis_cap)
    return homology._assemble(model, _tau_faces, bases[n].blocks[0], bases[n], 0)


# ---------------------------------------------------------------------------
# the decomposition comparison maps


@dataclass(frozen=True)
class DecompositionMapsReport:
    class_id: int
    degree: int
    tuple_count: int
    orbit_count: int
    forward_bijective: bool
    round_trips_ok: bool

    @property
    def ok(self) -> bool:
        return self.forward_bijective and self.round_trips_ok and self.tuple_count == self.orbit_count


def decomposition_maps(model: FiniteGroup, class_id: int, n: int) -> DecompositionMapsReport:
    """Exhaustively verify the two inverse maps between the class-indexed
    cyclic-bar simplices and the twisted product of the class with the bar
    resolution.

    Forward: (g_0,..,g_n) -> [prod g_i, [g_0,..,g_n]], canonicalized by the
    relation (s g, [g_0,..]) ~ (s, [g g_0,..]) to first bar entry 1, which
    conjugates s by g_0.  Back: [s, [1, g_1,..,g_n]] -> ((g_1..g_n)^-1 s,
    g_1,..,g_n).
    """
    table = homology.conj_classes(model)
    if not 0 <= class_id < len(table.classes):
        raise DomainError(f"class id {class_id} out of range")
    o = model.order
    members = set(table.classes[class_id].members)

    def canonical(s: int, bar: tuple) -> tuple:
        g0 = bar[0]
        s2 = model.conjugate(g0, s)  # g0^-1 s g0
        return (s2, bar[1:])

    tuples = [
        t
        for t in itertools.product(range(o), repeat=n + 1)
        if table.class_of[_product(model, t)] == class_id
    ]
    orbit_basis = set()
    for s in sorted(members):
        for tail in itertools.product(range(o), repeat=n):
            orbit_basis.add((s, tail))

    def forward(t: tuple) -> tuple:
        return canonical(_product(model, t), t)

    def back(q: tuple) -> tuple:
        s, tail = q
        prod_tail = 0
        for g in tail:
            prod_tail = model.multiply(prod_tail, g)
        return (model.multiply(model.inverse(prod_tail), s),) + tail

    images = set()
    round_trips = True
    for t in tuples:
        q = forward(t)
        if q not in orbit_basis:
            round_trips = False
            break
        images.add(q)
        if back(q) != t:
            round_trips = False
            break
    else:
        for q in orbit_basis:
            t = back(q)
            if table.class_of[_product(model, t)] != class_id or forward(t) != q:
                round_trips = False
                break
    return DecompositionMapsReport(
        class_id=class_id,
        degree=n,
        tuple_count=len(tuples),
        orbit_count=len(orbit_basis),
        forward_bijective=len(images) == len(tuples) == len(orbit_basis),
        round_trips_ok=round_trips,
    )


# ---------------------------------------------------------------------------
# simplicial weight functions on ball-truncated models


@dataclass(frozen=True)
class WeightCheckReport:
    radius: int
    n_max: int
    face_checks: int
    degeneracy_checks: int
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures


def weight_check(
    model: GroupModel,
    radius: int,
    n_max: int,
    *,
    basis_cap: int = DEFAULT_BASIS_CAP,
) -> WeightCheckReport:
    """Verify the simplicial weight w = sum of entry lengths never grows
    under faces and is preserved exactly by degeneracies, exhaustively over
    tuples with entries in the ball.

    Both simplicial structures are exercised: the cyclic one (adjacent
    merges plus the wrap-around face) and the bar one (adjacent merges plus
    dropping the last entry).
    """
    b = ball(model, radius)
    length: dict = {}

    def L(e):
        got = length.get(e)
        if got is None:
            got = model.word_length(e)
            length[e] = got
        return got

    ident = model.identity()
    face_checks = 0
    degeneracy_checks = 0
    failures = []
    for n in range(n_max + 1):
        if len(b.elements) ** (n + 1) > basis_cap:
            raise ResourceCapError(
                f"{len(b.elements)}^{n + 1} tuples exceed the basis cap {basis_cap}"
            )
        for t in itertools.product(b.elements, repeat=n + 1):
            w = sum(L(g) for g in t)
            faces = []
            if n >= 1:
                for i in range(n):
                    faces.append(t[:i] + (model.multiply(t[i], t[i + 1]),) + t[i + 2:])
                faces.append((model.multiply(t[n], t[0]),) + t[1:n])  # cyclic wrap
                faces.append(t[:n])  # bar structure drops the last entry
            for face in faces:
                face_checks += 1
                if sum(L(g) for g in face) > w:
                    failures.append(("face", t, face))
            for j in range(n + 1):
                degenerate = t[: j + 1] + (ident,) + t[j + 1:]
                degeneracy_checks += 1
                if sum(L(g) for g in degenerate) != w:
                    failures.append(("degeneracy", t, degenerate))
    return WeightCheckReport(radius, n_max, face_checks, degeneracy_checks, tuple(failures))


# ---------------------------------------------------------------------------
# dense rank


def bareiss_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [row[:] for row in rows if any(row)]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    prev = 1
    col = 0
    while rank < len(m) and col < ncols:
        piv = None
        for r in range(rank, len(m)):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            col += 1
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        prow = m[rank]
        for r in range(rank + 1, len(m)):
            row = m[r]
            f = row[col]
            if f:
                row[col:] = [(p * row[j] - f * prow[j]) // prev for j in range(col, ncols)]
            elif prev != 1 or p != 1:
                row[col:] = [(p * row[j]) // prev for j in range(col, ncols)]
        prev = p
        rank += 1
        col += 1
    return rank


# ---------------------------------------------------------------------------
# balls


def m3n1_nilpotent() -> TwoStepNilpotent:
    # f1 f2 = f2 f1 e1, f1 f3 = f3 f1 e1, f2 f3 = f3 f2 e1: a rank-2 kernel
    C = [[(0,)] * 3 for _ in range(3)]
    for i, j in [(1, 0), (2, 0), (2, 1)]:
        C[i][j], C[j][i] = (1,), (-1,)
    return TwoStepNilpotent(3, 1, C)


def verify_parent(b, i: int) -> bool:
    """Element i of the ball b is its parent times its parent generator and
    one step further from e; e itself has no parent."""
    p, s = b.parents[i], b.parent_gen[i]
    if i == 0:
        return p == -1 and b.lengths[0] == 0
    step = b.model.multiply(b.elements[p], b.model.generator_elements()[s])
    return step == b.elements[i] and b.lengths[i] == b.lengths[p] + 1


# ---------------------------------------------------------------------------
# bound formulas


def neighborhood_n(k, R, delta) -> float:
    """N(k, R) = n_tilde(k) + R + 2 delta.

    The direct quadrilateral argument overshoots to R + 4 delta; the
    tighter stated constant is the one the coset-penetration chain uses.
    """
    if float(R) < 0:
        raise DomainError("R must be >= 0")
    return n_tilde(k, delta) + float(R) + 2 * float(delta)


def hyperbolic_conjugator_bound(lu, lv, consts: PresentationConstants) -> Fraction:
    """Relative-length bound K_h (lu + lv) for a conjugator of two
    hyperbolic elements of the given lengths."""
    lu, lv = Fraction(lu), Fraction(lv)
    if lu < 0 or lv < 0:
        raise DomainError("lengths must be >= 0")
    return consts.resolved_K_h() * (lu + lv)
