"""Exact Hochschild and cyclic complexes of C[G] for finite G, split by
conjugacy class, and the centralizer subcomplexes that carry each class's
homology.

Everything here is fraction-free exact arithmetic; no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import DEFAULT_BASIS_CAP
from .errors import ConfigError, DomainError, PartitionViolation, ResourceCapError
from .exactla import SparseRationalMatrix
from .groups import FiniteGroup, GroupModel

# ---------------------------------------------------------------------------
# conjugacy classes of a finite group


@dataclass(frozen=True)
class ConjClass:
    representative: int
    members: tuple
    centralizer: tuple  # the elements that commute with the representative


@dataclass(frozen=True)
class ConjClassTable:
    model: FiniteGroup
    classes: tuple
    class_of: tuple  # class id per element index

    def __len__(self):
        return len(self.classes)


def require_finite(model: GroupModel) -> None:
    """The complexes span all tuples of group elements: a finite group only."""
    if not isinstance(model, FiniteGroup):
        raise ConfigError("homology needs a finite group")


def conj_classes(model: FiniteGroup) -> ConjClassTable:
    """Exact conjugacy partition with centralizer orders, by exhaustive scan."""
    require_finite(model)
    order = model.order
    class_of = [-1] * order
    classes = []
    for g in range(order):
        if class_of[g] >= 0:
            continue
        orbit = sorted({model.conjugate(h, g) for h in range(order)})
        cid = len(classes)
        for m in orbit:
            class_of[m] = cid
        centralizer = tuple(h for h in range(order) if model.commutes(h, g))
        classes.append(ConjClass(g, tuple(orbit), centralizer))
    return ConjClassTable(model, tuple(classes), tuple(class_of))


# ---------------------------------------------------------------------------
# tuple bases


@dataclass(frozen=True)
class TupleBasis:
    """The basis of one degree, split by conjugacy class.

    ``blocks[c]`` lists the basis tuples of class c in tuple-index order, and
    ``where`` sends a tuple to (class, position, sign): the basis vector it
    equals, up to that sign.  A Hochschild tuple is its own basis vector.  A
    cyclic tuple equals the least rotation of its orbit up to sign.  A tuple
    that is zero in the complex, a degenerate one of a normalized complex or
    one of a dead cyclic orbit, maps to None; a tuple outside the complex is
    absent.
    """

    blocks: tuple
    where: dict


def _cyclic_bases(hochschild: list) -> list:
    """Bases of the coinvariants C_n / im(1 - tau_n), by orbit analysis.

    tau t = (-1)^n rot(t), so in the quotient rot^k(t) = (-1)^(nk) t.  An
    orbit whose cycle closes with sign -1 dies; each other orbit gives one
    basis vector, carried by its least rotation, which is the orbit member
    met first in tuple-index order.
    """
    bases = []
    for n, hh in enumerate(hochschild):
        blocks = tuple([] for _ in hh.blocks)
        where: dict = {}
        seen: set = set()
        for c, tuples in enumerate(hh.blocks):
            for t in tuples:
                if t in seen:
                    continue
                orbit, cur, sign = [], t, 1
                while True:
                    hit = hh.where.get(cur)
                    if hit is None or hit[0] != c:
                        raise PartitionViolation(f"rotating {t} left class {c}")
                    orbit.append((cur, sign))
                    cur = (cur[-1],) + cur[:-1]
                    sign *= (-1) ** n
                    if cur == t:
                        break
                seen.update(u for u, _ in orbit)
                for u, s in orbit:
                    where[u] = (c, len(blocks[c]), s) if sign == 1 else None
                if sign == 1:
                    blocks[c].append(t)
        bases.append(TupleBasis(blocks, where))
    return bases


# ---------------------------------------------------------------------------
# chain maps: signed faces of a tuple, assembled one class block at a time


def _b_faces(model: FiniteGroup, t: tuple):
    n = len(t) - 1
    for i in range(n):
        yield t[:i] + (model.multiply(t[i], t[i + 1]),) + t[i + 2:], (-1) ** i
    yield (model.multiply(t[n], t[0]),) + t[1:n], (-1) ** n


def _B_faces(model: FiniteGroup, t: tuple):
    n = len(t) - 1
    for i in range(n + 1):
        rotated = t[i:] + t[:i]
        sign = (-1) ** (n * i)
        yield (0,) + rotated, sign
        yield (rotated[0], 0) + rotated[1:], sign


def _assemble(model: FiniteGroup, faces, source: list, target: TupleBasis, c: int) -> SparseRationalMatrix:
    """Matrix from the class-c tuples ``source`` to class c of ``target``.

    ``faces(model, t)`` yields the signed tuples that make up the image of
    t; each lands on the basis vector ``target.where`` names for it, or is
    dropped where it names None.  A face outside the target, or in another
    class, raises PartitionViolation.
    """
    acc: dict = {}
    for j, t in enumerate(source):
        for face, sign in faces(model, t):
            try:
                hit = target.where[face]
            except KeyError:
                raise PartitionViolation(f"{t} in class {c} has the face {face} outside the complex") from None
            if hit is None:
                continue  # a degenerate tuple or a dead cyclic orbit
            cls, i, s = hit
            if cls != c:
                raise PartitionViolation(f"{t} in class {c} has the face {face} in class {cls}")
            acc[i, j] = acc.get((i, j), 0) + sign * s
    out = SparseRationalMatrix(len(target.blocks[c]), len(source))
    out.entries = {k: v for k, v in acc.items() if v != 0}
    return out


def hochschild_boundary(model: FiniteGroup, n: int, bases: list, c: int) -> SparseRationalMatrix:
    """Class-c block of b_n : C_n -> C_(n-1), from bases[n] to bases[n-1]
    (``bases`` maps degree -> TupleBasis).

    b(g_0,..,g_n) merges adjacent entries with alternating signs and closes
    up with (-1)^n (g_n g_0, g_1,..,g_(n-1)).
    """
    if n < 1:
        raise DomainError("the boundary map needs degree >= 1")
    return _assemble(model, _b_faces, bases[n].blocks[c], bases[n - 1], c)


def connes_B(model: FiniteGroup, n: int, bases: list, c: int) -> SparseRationalMatrix:
    """Class-c block of the degree +1 operator B_n = (1 - tau) s N :
    C_n -> C_(n+1), which expands on tuples to

        B(g_0,..,g_n) = sum_i (-1)^(n i) (1, g_i,..,g_n, g_0,..,g_(i-1))
                      + sum_i (-1)^(n i) (g_i, 1, g_(i+1),..,g_n, g_0,..,g_(i-1))

    The sign of the degenerate sum is forced: with a minus there, B^2 = 0
    fails already over Z/2 (exact check in the test suite).
    """
    if n < 0:
        raise DomainError("degree must be >= 0")
    return _assemble(model, _B_faces, bases[n].blocks[c], bases[n + 1], c)


# ---------------------------------------------------------------------------
# complex slices


@dataclass
class ComplexSlice:
    """Degrees 0..n_max of a chain complex, split by conjugacy class.

    ``bases[n]`` is the basis of degree n, and ``boundaries[n][c]`` the
    class-c block of b_n, from ``bases[n].blocks[c]`` to
    ``bases[n-1].blocks[c]``.
    """

    model: FiniteGroup
    kind: str  # "hochschild" | "cyclic"
    class_table: ConjClassTable
    bases: list
    boundaries: dict  # n -> list of class blocks, 1 <= n <= n_max

    @property
    def n_max(self) -> int:
        return len(self.bases) - 1


def _split_slice(model: FiniteGroup, kind: str, table: ConjClassTable, bases: list) -> ComplexSlice:
    boundaries = {
        n: [hochschild_boundary(model, n, bases, c) for c in range(len(table))]
        for n in range(1, len(bases))
    }
    return ComplexSlice(model, kind, table, bases, boundaries)


def cyclic_quotient(hochschild: ComplexSlice) -> ComplexSlice:
    """Quotient complex of coinvariants C_n / im(1 - tau_n) of a Hochschild
    slice, split by conjugacy class, on the slice's class table and tuple
    bases.  Its boundary blocks are the b-faces of the orbit
    representatives, read in the quotient basis."""
    if hochschild.kind != "hochschild":
        raise DomainError("the cyclic quotient is taken of a Hochschild slice")
    bases = _cyclic_bases(hochschild.bases)
    return _split_slice(hochschild.model, "cyclic", hochschild.class_table, bases)


# ---------------------------------------------------------------------------
# centralizer subcomplexes


def _centralizer_tuples(model: FiniteGroup, cls: ConjClass, n_max: int) -> list:
    """S_x(0..n_max) for the class representative x, each in tuple-index
    order: for every tail (g_1,..,g_n) in Z^n, g_0 = x (g_1...g_n)^-1."""
    x, z = cls.representative, cls.centralizer
    tails, products = [()], [0]
    blocks = []
    for n in range(n_max + 1):
        if n:
            tails = [t + (g,) for t in tails for g in z]
            products = [model.multiply(p, g) for p in products for g in z]
        blocks.append(sorted((model.multiply(x, model.inverse(p)),) + t for t, p in zip(tails, products)))
    return blocks


def centralizer_slices(model: FiniteGroup, n_max: int, *, basis_cap: int = DEFAULT_BASIS_CAP) -> tuple:
    """The complexes that give the Hochschild and cyclic homology of C[G]
    in degrees < n_max class by class, on the centralizer subcomplexes.

    For class c with representative x and Z = C_G(x), the tuples
    S_x(n) = {(g_0,..,g_n) in Z^(n+1) : g_0...g_n = x} are closed under the
    faces of b and under rotation, since g_n x g_n^-1 = x.  So S_x is a
    cyclic submodule of the class-c block of the whole complex, and its
    inclusion induces isomorphisms on HH (Burghelea, Comment. Math. Helv.
    1985; Brown, Cohomology of Groups, III.6.2), hence on HC by the SBI
    sequence and the five lemma.  S_x(n) is built from its |Z|^n tails and
    is the whole class block when x is central.  The cap bounds the
    |G|^(n_max+1) tuples of the whole top degree, before anything is built.

    Returns three slices on the class table of G:
    - S_x itself with its b blocks, on which ``chain_identities`` runs;
    - S_x normalized (Loday, Cyclic Homology, 1.1.14): the tuples with some
      g_i = e for i >= 1 are zero.  In the coordinates (g_1,..,g_n) it is
      the normalized bar complex of Z, which does not depend on x, so
      classes with one centralizer share one block, built for the first of
      them;
    - the cyclic quotient of S_x.
    A face or rotation that leaves S_x raises PartitionViolation.
    """
    require_finite(model)
    if n_max < 0:
        raise DomainError("degree must be >= 0")
    dim = model.order ** (n_max + 1)
    if dim > basis_cap:
        raise ResourceCapError(f"basis of degree {n_max} has {dim} tuples, over cap {basis_cap}")
    table = conj_classes(model)
    classes = table.classes
    per_class = [_centralizer_tuples(model, cls, n_max) for cls in classes]
    sx = []
    for n in range(n_max + 1):
        blocks = tuple(degrees[n] for degrees in per_class)
        where = {t: (c, i, 1) for c, block in enumerate(blocks) for i, t in enumerate(block)}
        sx.append(TupleBasis(blocks, where))
    sx_slice = _split_slice(model, "hochschild", table, sx)
    first: dict = {}  # centralizer -> the first class with it
    share = [first.setdefault(cls.centralizer, c) for c, cls in enumerate(classes)]
    normalized = []
    for basis in sx:
        blocks = [[] for _ in classes]
        where = {}
        for c in first.values():
            for t in basis.blocks[c]:
                if 0 in t[1:]:
                    where[t] = None
                else:
                    where[t] = (c, len(blocks[c]), 1)
                    blocks[c].append(t)
        normalized.append(TupleBasis(tuple(blocks[s] for s in share), where))
    boundaries = {}
    for n in range(1, len(normalized)):
        built = {c: hochschild_boundary(model, n, normalized, c) for c in first.values()}
        boundaries[n] = [built[s] for s in share]
    hh = ComplexSlice(model, "hochschild", table, normalized, boundaries)
    return sx_slice, hh, cyclic_quotient(sx_slice)


# ---------------------------------------------------------------------------
# homology dimensions


@dataclass(frozen=True)
class HomologyDims:
    kind: str
    total: tuple  # dims of H_0..H_(n_max-1)
    per_class: dict  # class id -> same-length tuple

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "total": list(self.total),
            "per_class": {str(k): list(v) for k, v in sorted(self.per_class.items())},
        }


def homology_dims(slice_: ComplexSlice) -> HomologyDims:
    """dim H_n = dim C_n - rank b_n - rank b_(n+1) on each class block.

    The boundaries are block-diagonal over conjugacy classes (each block
    was built from faces checked to stay in their class), so the totals are
    the sums of the class dimensions.  Degrees 0..n_max-1 (the top degree
    needs the next boundary).  A block that several classes share, as the
    centralizer complexes of classes with one centralizer do, is ranked
    once.
    """
    top = slice_.n_max
    rank: dict = {}  # id of a block -> its rank
    for blocks in slice_.boundaries.values():
        for m in blocks:
            if id(m) not in rank:
                rank[id(m)] = m.rank()
    per_class = {}
    for c in range(len(slice_.class_table)):
        ranks = [0] + [rank[id(slice_.boundaries[n][c])] for n in range(1, top + 1)] + [0]
        per_class[c] = tuple(
            len(slice_.bases[n].blocks[c]) - ranks[n] - ranks[n + 1] for n in range(top)
        )
    total = tuple(sum(dims[n] for dims in per_class.values()) for n in range(top))
    return HomologyDims(slice_.kind, total, per_class)


def chain_identities(slice_: ComplexSlice, *ranked: ComplexSlice) -> dict:
    """Exact checks of b^2 = 0, B^2 = 0 and bB + Bb = 0 on a Hochschild
    slice, class block by class block, and of b^2 = 0 on the ``ranked``
    complexes, on the b blocks they hold (a block that several classes
    share once).

    Reads the blocks of b_1..b_(n_max) from the slice and builds the blocks
    of B_0..B_(n_max-1).  A centralizer subcomplex S_x is closed under B: a
    rotation of a tuple of S_x has product
    (g_0...g_(i-1))^-1 x (g_0...g_(i-1)) = x, and B only inserts e, which
    lies in every centralizer, into rotations.  Keys are ``b(n-1)b(n)``,
    ``B(n+1)B(n)`` (n <= 2) and ``bB+Bb@n``; a value is "0" when the
    product vanishes on every class of every complex checked, else
    "NONZERO".
    """
    if slice_.kind != "hochschild":
        raise DomainError("chain identities need a Hochschild slice")
    top = slice_.n_max
    zero: dict = {}
    for c in range(len(slice_.class_table)):
        b = {n: blocks[c] for n, blocks in slice_.boundaries.items()}
        B = {n: connes_B(slice_.model, n, slice_.bases, c) for n in range(top)}
        products = {}
        for n in range(2, top + 1):
            products[f"b{n - 1}b{n}"] = b[n - 1].matmul(b[n])
        for n in range(min(3, top - 1)):
            products[f"B{n + 1}B{n}"] = B[n + 1].matmul(B[n])
        for n in range(1, top):
            anti = b[n + 1].matmul(B[n])
            for (i, j), v in B[n - 1].matmul(b[n]).entries.items():
                anti.add_at(i, j, v)
            products[f"bB+Bb@{n}"] = anti
        for key, m in products.items():
            zero[key] = zero.get(key, True) and m.is_zero()
    for other in ranked:
        b = other.boundaries
        for n in range(2, other.n_max + 1):
            pairs = {(id(lo), id(hi)): (lo, hi) for lo, hi in zip(b[n - 1], b[n])}
            key = f"b{n - 1}b{n}"
            zero[key] = zero.get(key, True) and all(lo.matmul(hi).is_zero() for lo, hi in pairs.values())
    return {key: "0" if z else "NONZERO" for key, z in zero.items()}
