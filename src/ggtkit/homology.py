"""Exact Hochschild and cyclic complexes of C[G] for finite G, the
conjugacy-class splitting of their bases, the simplicial comparison maps
behind that splitting, and subadditivity checks for the simplicial weight
functions on ball-truncated models.

Everything here is fraction-free exact arithmetic; no floating point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .cayley import ball
from .config import DEFAULT_BASIS_CAP
from .conjugacy import centralizer_generators
from .errors import DomainError, PartitionViolation, ResourceCapError
from .exactla import SparseRationalMatrix
from .groups import FiniteGroup, GroupModel, exact_length

# ---------------------------------------------------------------------------
# conjugacy classes of a finite group


@dataclass(frozen=True)
class ConjClass:
    representative: int
    members: tuple
    elliptic: bool
    centralizer_order: int
    centralizer_generators: tuple


@dataclass(frozen=True)
class ConjClassTable:
    model: FiniteGroup
    classes: tuple
    class_of: tuple  # class id per element index

    def __len__(self):
        return len(self.classes)


def conj_classes(model: FiniteGroup) -> ConjClassTable:
    """Exact conjugacy partition with centralizers, by exhaustive scan."""
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
        centralizer = [h for h in range(order) if model.commutes(h, g)]
        gens = centralizer_generators(model, g, order)
        classes.append(
            ConjClass(
                representative=g,
                members=tuple(orbit),
                elliptic=True,  # every element of a finite group has finite order
                centralizer_order=len(centralizer),
                centralizer_generators=tuple(gens),
            )
        )
    return ConjClassTable(model, tuple(classes), tuple(class_of))


# ---------------------------------------------------------------------------
# tuple bases


def _tuple_index(order: int, t: tuple) -> int:
    idx = 0
    for g in t:
        idx = idx * order + g
    return idx


def _tuples(order: int, n: int):
    return itertools.product(range(order), repeat=n + 1)


def _check_basis_cap(model: FiniteGroup, n: int, basis_cap: int) -> int:
    dim = model.order ** (n + 1)
    if dim > basis_cap:
        raise ResourceCapError(f"basis of degree {n} has {dim} tuples, over cap {basis_cap}")
    return dim


def _product(model: FiniteGroup, t: tuple) -> int:
    p = 0
    for g in t:
        p = model.multiply(p, g)
    return p


# ---------------------------------------------------------------------------
# chain maps


def hochschild_boundary(
    model: FiniteGroup, n: int, *, basis_cap: int = DEFAULT_BASIS_CAP
) -> SparseRationalMatrix:
    """Matrix of b_n : C_n -> C_(n-1) on the tuple bases.

    b(g_0,..,g_n) merges adjacent entries with alternating signs and closes
    up with (-1)^n (g_n g_0, g_1,..,g_(n-1)).
    """
    if n < 1:
        raise DomainError("the boundary map needs degree >= 1")
    _check_basis_cap(model, n, basis_cap)
    o = model.order
    out = SparseRationalMatrix(o**n, o ** (n + 1))
    acc: dict = {}
    for t in _tuples(o, n):
        col = _tuple_index(o, t)
        for i in range(n):
            face = t[:i] + (model.multiply(t[i], t[i + 1]),) + t[i + 2:]
            key = (_tuple_index(o, face), col)
            acc[key] = acc.get(key, 0) + (-1) ** i
        face = (model.multiply(t[n], t[0]),) + t[1:n]
        key = (_tuple_index(o, face), col)
        acc[key] = acc.get(key, 0) + (-1) ** n
    out.entries = {k: v for k, v in acc.items() if v != 0}
    return out


def connes_B(model: FiniteGroup, n: int, *, basis_cap: int = DEFAULT_BASIS_CAP) -> SparseRationalMatrix:
    """Matrix of the degree +1 operator B_n = (1 - tau) s N : C_n -> C_(n+1),
    which expands on tuples to

        B(g_0,..,g_n) = sum_i (-1)^(n i) (1, g_i,..,g_n, g_0,..,g_(i-1))
                      + sum_i (-1)^(n i) (g_i, 1, g_(i+1),..,g_n, g_0,..,g_(i-1))

    The sign of the degenerate sum is forced: with a minus there, B^2 = 0
    fails already over Z/2 (exact check in the test suite).
    """
    if n < 0:
        raise DomainError("degree must be >= 0")
    _check_basis_cap(model, n + 1, basis_cap)
    o = model.order
    out = SparseRationalMatrix(o ** (n + 2), o ** (n + 1))
    acc: dict = {}
    for t in _tuples(o, n):
        col = _tuple_index(o, t)
        for i in range(n + 1):
            rotated = t[i:] + t[:i]
            sign = (-1) ** (n * i)
            first = (0,) + rotated
            second = (rotated[0], 0) + rotated[1:]
            k1 = (_tuple_index(o, first), col)
            acc[k1] = acc.get(k1, 0) + sign
            k2 = (_tuple_index(o, second), col)
            acc[k2] = acc.get(k2, 0) + sign
    out.entries = {k: v for k, v in acc.items() if v != 0}
    return out


def tau_matrix(model: FiniteGroup, n: int, *, basis_cap: int = DEFAULT_BASIS_CAP) -> SparseRationalMatrix:
    """The signed cyclic rotation (-1)^n (g_n, g_0,..,g_(n-1)) on C_n."""
    _check_basis_cap(model, n, basis_cap)
    o = model.order
    out = SparseRationalMatrix(o ** (n + 1), o ** (n + 1))
    for t in _tuples(o, n):
        rotated = (t[-1],) + t[:-1]
        out.entries[(_tuple_index(o, rotated), _tuple_index(o, t))] = (-1) ** n
    return out


# ---------------------------------------------------------------------------
# complex slices


@dataclass
class ComplexSlice:
    """Degrees 0..n_max of a chain complex with optional class partition.

    For the cyclic kind, ``cyclic_reps`` lists the surviving orbit
    representatives (tuple indices) per degree and ``projections`` the
    quotient maps from the Hochschild basis.
    """

    model: FiniteGroup
    kind: str  # "hochschild" | "cyclic"
    n_max: int
    dims: list
    boundaries: dict  # n -> SparseRationalMatrix, 1 <= n <= n_max
    class_table: Optional[ConjClassTable] = None
    class_of_basis: Optional[list] = None  # per degree: class id per basis position
    cyclic_reps: Optional[list] = None
    projections: Optional[dict] = None

    def class_blocks(self, n: int) -> dict:
        """Class id -> basis positions of degree n."""
        if self.class_of_basis is None:
            raise DomainError("slice was built without a class partition")
        blocks: dict = {}
        for pos, cid in enumerate(self.class_of_basis[n]):
            blocks.setdefault(cid, []).append(pos)
        return blocks


def _verify_block_structure(slice_: ComplexSlice) -> None:
    for n in range(1, slice_.n_max + 1):
        rows = slice_.class_of_basis[n - 1]
        cols = slice_.class_of_basis[n]
        for (i, j) in slice_.boundaries[n].entries:
            if rows[i] != cols[j]:
                raise PartitionViolation(
                    f"boundary in degree {n} maps class {cols[j]} into class {rows[i]}"
                )


def hochschild_slice(
    model: FiniteGroup,
    n_max: int,
    *,
    split: bool = False,
    basis_cap: int = DEFAULT_BASIS_CAP,
) -> ComplexSlice:
    """Hochschild complex in degrees <= n_max, optionally partitioned by
    the conjugacy class of the tuple product."""
    _check_basis_cap(model, n_max, basis_cap)
    o = model.order
    dims = [o ** (n + 1) for n in range(n_max + 1)]
    boundaries = {n: hochschild_boundary(model, n, basis_cap=basis_cap) for n in range(1, n_max + 1)}
    slice_ = ComplexSlice(model, "hochschild", n_max, dims, boundaries)
    if split:
        table = conj_classes(model)
        class_of_basis = []
        for n in range(n_max + 1):
            class_of_basis.append(
                [table.class_of[_product(model, t)] for t in _tuples(o, n)]
            )
        slice_.class_table = table
        slice_.class_of_basis = class_of_basis
        _verify_block_structure(slice_)
    return slice_


def burghelea_split(model: FiniteGroup, n_max: int, *, basis_cap: int = DEFAULT_BASIS_CAP) -> ComplexSlice:
    """Hochschild slice partitioned by conjugacy class of the tuple product;
    block structure of every boundary is verified, violations are fatal."""
    return hochschild_slice(model, n_max, split=True, basis_cap=basis_cap)


def cyclic_quotient(
    model: FiniteGroup,
    n_max: int,
    *,
    split: bool = False,
    basis_cap: int = DEFAULT_BASIS_CAP,
    hochschild: Optional[ComplexSlice] = None,
) -> ComplexSlice:
    """Quotient complex of coinvariants C_n / im(1 - tau_n) with induced
    boundaries, computed by orbit analysis with signs.

    An orbit whose cycle closes with sign -1 dies in the quotient; the rest
    contribute one basis vector each, carried by their minimal rotation.
    The induced boundaries come from ``hochschild``, built when not given.
    """
    _check_basis_cap(model, n_max, basis_cap)
    if hochschild is None:
        hochschild = hochschild_slice(model, n_max, basis_cap=basis_cap)
    if hochschild.kind != "hochschild" or hochschild.model != model or hochschild.n_max < n_max:
        raise DomainError(f"the cyclic quotient needs a Hochschild slice of {model!r} to degree {n_max}")
    o = model.order
    table = conj_classes(model) if split else None

    reps_per_degree = []
    proj_per_degree = {}
    orbit_info_per_degree = []
    dims = []
    class_of_basis = [] if split else None
    for n in range(n_max + 1):
        sign_step = (-1) ** n
        seen: dict = {}
        for t in _tuples(o, n):
            if t in seen:
                continue
            orbit = []
            cur, sign = t, 1
            while True:
                orbit.append((cur, sign))
                cur = (cur[-1],) + cur[:-1]
                sign *= sign_step
                if cur == t:
                    break
            alive = sign == 1  # closing sign -1 forces the orbit to vanish
            rep = min(c for c, _ in orbit)
            rep_sign = next(s for c, s in orbit if c == rep)
            for c, s in orbit:
                # relative sign from rep to c: s * rep_sign (signs are +-1)
                seen[c] = (rep, s * rep_sign, alive)
        alive_reps = sorted({info[0] for info in seen.values() if info[2]})
        rep_pos = {r: i for i, r in enumerate(alive_reps)}
        proj = SparseRationalMatrix(len(alive_reps), o ** (n + 1))
        for t in _tuples(o, n):
            rep, rel_sign, alive = seen[t]
            if alive:
                proj.add_at(rep_pos[rep], _tuple_index(o, t), rel_sign)
        reps_per_degree.append(alive_reps)
        proj_per_degree[n] = proj
        orbit_info_per_degree.append((seen, rep_pos))
        dims.append(len(alive_reps))
        if split:
            class_of_basis.append([table.class_of[_product(model, r)] for r in alive_reps])
            for t in _tuples(o, n):
                rep = seen[t][0]
                if table.class_of[_product(model, t)] != table.class_of[_product(model, rep)]:
                    raise PartitionViolation("rotation changed the conjugacy class of a product")

    boundaries = {}
    for n in range(1, n_max + 1):
        b = hochschild.boundaries[n]
        seen_lo, rep_pos_lo = orbit_info_per_degree[n - 1]
        reps_hi = reps_per_degree[n]
        induced = SparseRationalMatrix(dims[n - 1], dims[n])
        by_col: dict = {}
        for (i, j), v in b.entries.items():
            by_col.setdefault(j, []).append((i, v))
        for col_pos, rep in enumerate(reps_hi):
            for i, v in by_col.get(_tuple_index(o, rep), ()):
                t_lo = _index_tuple(o, n - 1, i)
                rep_lo, rel_sign, alive = seen_lo[t_lo]
                if alive:
                    induced.add_at(rep_pos_lo[rep_lo], col_pos, v * rel_sign)
        boundaries[n] = induced

    slice_ = ComplexSlice(
        model,
        "cyclic",
        n_max,
        dims,
        boundaries,
        class_table=table,
        class_of_basis=class_of_basis,
        cyclic_reps=reps_per_degree,
        projections=proj_per_degree,
    )
    if split:
        _verify_block_structure(slice_)
    return slice_


def _index_tuple(order: int, n: int, idx: int) -> tuple:
    out = []
    for _ in range(n + 1):
        idx, g = divmod(idx, order)
        out.append(g)
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# homology dimensions


@dataclass(frozen=True)
class HomologyDims:
    kind: str
    total: tuple  # dims of H_0..H_(n_max-1)
    per_class: Optional[dict]  # class id -> same-length tuple

    def as_dict(self) -> dict:
        out = {"kind": self.kind, "total": list(self.total)}
        if self.per_class is not None:
            out["per_class"] = {str(k): list(v) for k, v in sorted(self.per_class.items())}
        return out


def homology_dims(slice_: ComplexSlice) -> HomologyDims:
    """dim H_n = dim C_n - rank b_n - rank b_(n+1) on each diagonal block.

    The boundaries of a split slice are block-diagonal over conjugacy
    classes (verified when the slice was built), so only the class blocks
    are ranked and the totals are the sums of the block dimensions.  An
    unsplit slice is a single block of all positions.  Degrees
    0..n_max-1 (the top degree needs the next boundary).
    """
    top = slice_.n_max
    if slice_.class_of_basis is None:
        blocks = [{0: list(range(slice_.dims[n]))} for n in range(top + 1)]
    else:
        blocks = [slice_.class_blocks(n) for n in range(top + 1)]
    per_block = {}
    for cid in sorted({cid for degree in blocks for cid in degree}):
        ranks = [0] * (top + 2)
        for n in range(1, top + 1):
            ranks[n] = slice_.boundaries[n].restrict(
                blocks[n - 1].get(cid, []), blocks[n].get(cid, [])
            ).rank()
        per_block[cid] = tuple(
            len(blocks[n].get(cid, [])) - ranks[n] - ranks[n + 1] for n in range(top)
        )
    total = tuple(sum(dims[n] for dims in per_block.values()) for n in range(top))
    per_class = per_block if slice_.class_of_basis is not None else None
    return HomologyDims(slice_.kind, total, per_class)


def chain_identities(slice_: ComplexSlice, *, basis_cap: int = DEFAULT_BASIS_CAP) -> dict:
    """Exact checks of b^2 = 0, B^2 = 0 and bB + Bb = 0 on a Hochschild slice.

    Reads b_1..b_(n_max) from the slice and builds each B_0..B_(n_max-1)
    once.  Keys are ``b(n-1)b(n)``, ``B(n+1)B(n)`` (n <= 2) and ``bB+Bb@n``;
    values are "0" or "NONZERO".
    """
    if slice_.kind != "hochschild":
        raise DomainError("chain identities need a Hochschild slice")
    top = slice_.n_max
    b = slice_.boundaries
    B = {n: connes_B(slice_.model, n, basis_cap=basis_cap) for n in range(top)}

    def verdict(m: SparseRationalMatrix) -> str:
        return "0" if m.is_zero() else "NONZERO"

    identities = {}
    for n in range(2, top + 1):
        identities[f"b{n - 1}b{n}"] = verdict(b[n - 1].matmul(b[n]))
    for n in range(min(3, top - 1)):
        identities[f"B{n + 1}B{n}"] = verdict(B[n + 1].matmul(B[n]))
    for n in range(1, top):
        anti = b[n + 1].matmul(B[n])
        for (i, j), v in B[n - 1].matmul(b[n]).entries.items():
            anti.add_at(i, j, v)
        identities[f"bB+Bb@{n}"] = verdict(anti)
    return identities


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
    table = conj_classes(model)
    if not 0 <= class_id < len(table.classes):
        raise DomainError(f"class id {class_id} out of range")
    o = model.order
    members = set(table.classes[class_id].members)

    def canonical(s: int, bar: tuple) -> tuple:
        g0 = bar[0]
        s2 = model.conjugate(g0, s)  # g0^-1 s g0
        return (s2, bar[1:])

    tuples = [
        t for t in _tuples(o, n) if table.class_of[_product(model, t)] == class_id
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
    cap = 2 * radius + 1
    length: dict = {}

    def L(e):
        got = length.get(e)
        if got is None:
            got = exact_length(model, e, cap)
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
