"""Conjugacy deciders and conjugator-length machinery.

Solvers never overclaim: a negative answer carries a model-specific
certificate (abelianization mismatch, cyclic-word inequality, unsolvable
central system, distinct least class elements in a finite group);
everything else at bounded search radius is reported Unknown.  Every
returned witness g is re-verified by exact multiplication (g^-1 u g = v)
before it leaves the module, with a word length its solver certifies: the
BFS depth of the ball scan, the reduced word length in free groups, and
the base l1 norm in two-step nilpotent groups.  The free and nilpotent
witnesses have least length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .cayley import Ball, ball
from .config import DEFAULT_BALL_CAP, DEFAULT_FIT_CAP, DEFAULT_RADIUS_CAP, FIT_MAX_DEGREE
from .errors import DomainError, UnsupportedCase
from .exactla import solve_integer_system
from .groups import (
    Element,
    FiniteGroup,
    FreeAbelian,
    FreeGroup,
    FreeProduct,
    GroupModel,
    TwoStepNilpotent,
    cyclic_reduce,
    exact_length,
)
from .rdalgebra import BoundingFunction

CONJUGATE = "conjugate"
NOT_CONJUGATE = "not_conjugate"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class ConjugacyResult:
    status: str
    witness: Optional[Element] = None
    witness_length: Optional[int] = None
    searched_radius: Optional[int] = None
    certificate: Optional[str] = None

    @property
    def is_conjugate(self) -> bool:
        return self.status == CONJUGATE

    def as_dict(self, model: Optional[GroupModel] = None) -> dict:
        out = {"status": self.status}
        if self.witness is not None and model is not None:
            out["witness"] = model.element_str(self.witness)
        if self.witness_length is not None:
            out["witness_length"] = self.witness_length
        if self.searched_radius is not None:
            out["searched_radius"] = self.searched_radius
        if self.certificate is not None:
            out["certificate"] = self.certificate
        return out


def verified_conjugate(model: GroupModel, u: Element, v: Element, g: Element, length: int) -> ConjugacyResult:
    """Wrap a witness after re-checking g^-1 u g = v by exact multiplication;
    ``length`` is g's word length, which the caller certifies."""
    if model.conjugate(g, u) != v:
        raise DomainError("internal error: witness fails verification")
    return ConjugacyResult(CONJUGATE, witness=g, witness_length=length)


def _exponent_sums(rank: int, word) -> tuple:
    sums = [0] * rank
    for letter in word:
        sums[abs(letter) - 1] += 1 if letter > 0 else -1
    return tuple(sums)


def _free_certificate(model: FreeGroup, u: Element, v: Element) -> Optional[str]:
    if _exponent_sums(model.rank, u) != _exponent_sums(model.rank, v):
        return "abelianization mismatch: exponent sums differ"
    if len(cyclic_reduce(u)[1]) != len(cyclic_reduce(v)[1]):
        return "cyclic reduction lengths differ"
    return None


def brute_force_conjugator(
    model: GroupModel,
    u: Element,
    v: Element,
    radius: int,
    *,
    ball_cap: int = DEFAULT_BALL_CAP,
    search_ball: Optional[Ball] = None,
) -> ConjugacyResult:
    """Scan the ball in BFS order for the first (hence shortest) conjugator."""
    model.validate_element(u)
    model.validate_element(v)
    if u == v:
        return verified_conjugate(model, u, v, model.identity(), 0)
    certificate = conjugacy_entry(model).certificate(model, u, v)
    if certificate is not None:
        return ConjugacyResult(NOT_CONJUGATE, certificate=certificate)
    sb = search_ball if search_ball is not None else ball(model, radius, cap=ball_cap)
    for gi, g in enumerate(sb.elements):
        if model.conjugate(g, u) == v:  # the scan condition is the exact verification
            return ConjugacyResult(
                CONJUGATE, witness=g, witness_length=sb.lengths[gi], searched_radius=sb.radius
            )
    return ConjugacyResult(UNKNOWN, searched_radius=sb.radius)


def bounded_conjugacy(
    model: GroupModel,
    u: Element,
    v: Element,
    bound: BoundingFunction,
    *,
    length_cap: int = DEFAULT_RADIUS_CAP,
    ball_cap: int = DEFAULT_BALL_CAP,
) -> ConjugacyResult:
    """Brute-force search out to radius bound(L(u) + L(v))."""
    total = exact_length(model, u, length_cap) + exact_length(model, v, length_cap)
    radius = int(math.ceil(bound(total)))
    return brute_force_conjugator(model, u, v, radius, ball_cap=ball_cap)


def nilpotent_central_system(
    model: TwoStepNilpotent, u: Element, v: Element
) -> tuple[list[list[int]], list[int]]:
    """The central equation A z = rhs a conjugator (z, *) of u into v must
    satisfy, as ``(A, rhs)``: rows are central coordinates, columns the
    unknown base exponents of the conjugator.

    With u = (x, c_u), v = (x, c_v) and this module's collection convention,

        sum_{i>j} (x_j z_i - x_i z_j) C[i][j] = c_v - c_u

    i.e. row t, column l has coefficient sum_{j != l} x_j C[l][j][t].
    """
    x, cu = u
    _, cv = v
    A = [
        [sum(x[j] * model.C[l][j][t] for j in range(model.m) if j != l) for l in range(model.m)]
        for t in range(model.n)
    ]
    return A, [cv[t] - cu[t] for t in range(model.n)]


def _l1_sphere(m: int, r: int):
    """The points z of Z^m with |z|_1 = r."""
    if m == 1:
        yield from ((r,), (-r,)) if r else ((0,),)
        return
    for first in range(-r, r + 1):
        for rest in _l1_sphere(m - 1, r - abs(first)):
            yield (first,) + rest


def nilpotent_conjugator(model: TwoStepNilpotent, u: Element, v: Element) -> ConjugacyResult:
    """Complete conjugacy decision for the two-step nilpotent models, with
    a witness of least word length.

    Equal base parts are necessary.  Conjugation by g = (z, c) depends on
    z alone and moves u's central part by A z (see nilpotent_central_system),
    and every word for g has length at least |z|_1.  Smith normal form
    either certifies A z = rhs unsolvable over Z or gives a solution z0;
    the l1 spheres of Z^m are then searched in increasing radius, up to
    |z0|_1 at most, for the first solution z.  The witness (z, 0) is
    f_m^{z_m} ... f_1^{z_1} in the collection convention of
    TwoStepNilpotent, so its length is exactly |z|_1, the least of any
    conjugator.
    """
    entry = _fitting_entry(model, "nilpotent")
    model.validate_element(u)
    model.validate_element(v)
    certificate = entry.certificate(model, u, v)  # the base parts differ
    if certificate is not None:
        return ConjugacyResult(NOT_CONJUGATE, certificate=certificate)
    A, rhs = nilpotent_central_system(model, u, v)
    z0, _ = solve_integer_system(A, rhs)
    if z0 is None:
        return ConjugacyResult(
            NOT_CONJUGATE, certificate="central linear system unsolvable over Z"
        )
    radius, z = next(
        (r, z)
        for r in range(sum(map(abs, z0)) + 1)  # z0 lies on the last sphere
        for z in _l1_sphere(model.m, r)
        if all(sum(a * b for a, b in zip(row, z)) == t for row, t in zip(A, rhs))
    )
    return verified_conjugate(model, u, v, (z, (0,) * model.n), radius)


def free_group_conjugacy(model: FreeGroup, u: Element, v: Element) -> ConjugacyResult:
    """Exact free-group conjugacy via cyclic reduction and rotation matching.

    With u = p1 c1 p1^-1, v = p2 c2 p2^-1 and c2 the rotation c1[k:] c1[:k],
    the conjugators of least length are p1 w p2^-1 with w = c1[:k] or
    w = (c1[k:])^-1.  Nothing cancels at either junction when w is nonempty,
    so the shortest such w (the empty word when k = 0 matches) gives a
    witness of least length.
    """
    _fitting_entry(model, "free")
    model.validate_element(u)
    model.validate_element(v)
    p1, c1 = cyclic_reduce(u)
    p2, c2 = cyclic_reduce(v)
    if len(c1) != len(c2):
        return ConjugacyResult(NOT_CONJUGATE, certificate="cyclic reduction lengths differ")
    n = len(c1)
    shifts = [k for k in range(n) if c1[k:] + c1[:k] == c2] if n else [0]
    if not shifts:
        return ConjugacyResult(
            NOT_CONJUGATE, certificate="cyclic words are not rotations of each other"
        )
    k = min(shifts, key=lambda s: min(s, n - s))
    w = c1[:k] if k <= n - k else model.inverse(c1[k:])
    g = model.multiply(model.multiply(p1, w), model.inverse(p2))
    return verified_conjugate(model, u, v, g, len(g))  # a reduced word


def _free_key(model: FreeGroup, u: Element):
    core = cyclic_reduce(u)[1]
    return min((core[k:] + core[:k] for k in range(len(core))), default=core)


def _finite_key(model: FiniteGroup, u: Element):
    """The least element of u's conjugacy class."""
    return min(model.conjugate(h, u) for h in range(model.order))


@dataclass(frozen=True)
class ConjugacyEntry:
    """What the solvers and the profiler know of conjugacy in one model class.

    ``key(model, u)`` is an invariant of u's conjugacy class; ``complete``:
    equal keys also imply conjugacy.  ``certificate(model, u, v)`` is a cheap
    proof that u and v are not conjugate, or None.  ``decide(model, u, v)``
    is the exact decider that ``--solver <solver>`` names; ``minimal``: its
    witnesses have least length (free and two-step nilpotent groups), so
    the profiler builds no search ball for the model.
    """

    key: Callable
    complete: bool = False
    certificate: Callable = lambda model, u, v: None
    solver: Optional[str] = None
    decide: Optional[Callable] = None
    minimal: bool = False


# No invariant and no decider: every element shares one key.
_GENERIC = ConjugacyEntry(key=lambda model, u: None)

# One entry per model class; ``brute`` names the ball scan, which takes any model.
CONJUGACY = {
    FreeGroup: ConjugacyEntry(
        key=_free_key,  # the least rotation of the cyclic core
        complete=True,
        certificate=_free_certificate,
        solver="free",
        decide=free_group_conjugacy,
        minimal=True,
    ),
    TwoStepNilpotent: ConjugacyEntry(
        key=lambda model, u: u[0],  # conjugation fixes the base part
        certificate=lambda model, u, v: (
            None if u[0] == v[0] else "abelianization mismatch: conjugation fixes the base image"
        ),
        solver="nilpotent",
        decide=nilpotent_conjugator,
        minimal=True,
    ),
    FreeAbelian: ConjugacyEntry(
        key=lambda model, u: u,
        complete=True,
        certificate=lambda model, u, v: None if u == v else "abelian group: conjugacy is equality",
    ),
    FiniteGroup: ConjugacyEntry(
        key=_finite_key,
        complete=True,
        certificate=lambda model, u, v: (
            None if _finite_key(model, u) == _finite_key(model, v)
            else "finite group: the least elements of the two conjugacy classes differ"
        ),
    ),
    FreeProduct: _GENERIC,
}


def conjugacy_entry(model: GroupModel) -> ConjugacyEntry:
    """The entry of the model's class; a class outside the table is generic."""
    return CONJUGACY.get(type(model), _GENERIC)


def _fitting_entry(model: GroupModel, solver: str) -> ConjugacyEntry:
    """The model's entry, if its exact decider is the one ``solver`` names."""
    entry = CONJUGACY.get(type(model), _GENERIC)
    if entry.solver != solver:
        raise UnsupportedCase(f"solver {solver!r} does not apply to {model!r}")
    return entry


def choose_solver(model: GroupModel, solver: str) -> Optional[str]:
    """The exact solver that ``solver`` names for ``model``, None for the ball
    scan: ``auto`` takes the one of the model's entry, if any, and a named
    solver that does not fit the model raises UnsupportedCase."""
    if solver == "brute":
        return None
    if solver == "auto":
        return conjugacy_entry(model).solver
    return _fitting_entry(model, solver).solver


# ---------------------------------------------------------------------------
# element classification in free products


@dataclass(frozen=True)
class ElementClass:
    kind: str  # "identity" | "parabolic" | "hyperbolic"
    factor: Optional[int] = None
    witness: Optional[Element] = None  # w with w^-1 u w in the factor


def classify_element(model: FreeProduct, u: Element) -> ElementClass:
    """Parabolic iff conjugate into a factor; decided by cyclic syllable
    reduction, with the reduction prefix as the conjugating witness."""
    if not isinstance(model, FreeProduct):
        raise UnsupportedCase("classification needs a free product model")
    model.validate_element(u)
    if u == ():
        return ElementClass("identity")
    prefix, core = model.cyclic_syllable_reduce(u)
    if len(core) == 1:
        if model.conjugate(prefix, u) != core:
            raise DomainError("internal error: reduction prefix fails verification")
        return ElementClass("parabolic", factor=core[0][0], witness=prefix)
    return ElementClass("hyperbolic")


# ---------------------------------------------------------------------------
# centralizers


def _free_primitive_root(model: FreeGroup, h: Element) -> Element:
    prefix, core = cyclic_reduce(h)
    n = len(core)
    period = n
    for d in range(1, n):
        if n % d == 0 and core == core[:d] * (n // d):
            period = d
            break
    return model.multiply(model.multiply(prefix, core[:period]), model.inverse(prefix))


def centralizer_generators(
    model: GroupModel,
    h: Element,
    radius: int,
    *,
    ball_cap: int = DEFAULT_BALL_CAP,
    search_ball: Optional[Ball] = None,
) -> list:
    """Generators of the ball-restricted centralizer of h.

    Exact for finite groups once the radius covers the group; free groups
    get the primitive root of h.  Otherwise: all commuting ball elements,
    greedily reduced by subgroup closure within the ball.
    """
    model.validate_element(h)
    if h == model.identity():
        return model.positive_generators()
    if isinstance(model, FreeGroup):
        return [_free_primitive_root(model, h)]
    sb = search_ball if search_ball is not None else ball(model, radius, cap=ball_cap)
    commuting = [i for i, g in enumerate(sb.elements) if model.commutes(g, h)]
    generators: list = []
    known = {0}
    for i in commuting:
        if i in known or i == 0:
            continue
        generators.append(sb.elements[i])
        # re-close the generated set inside the ball
        step_elems = []
        for g in generators:
            step_elems.append(g)
            step_elems.append(model.inverse(g))
        frontier = [0]
        known = {0}
        while frontier:
            nxt = []
            for j in frontier:
                for s in step_elems:
                    w = model.multiply(sb.elements[j], s)
                    wj = sb.index.get(w)
                    if wj is not None and wj not in known:
                        known.add(wj)
                        nxt.append(wj)
            frontier = nxt
    return generators


# ---------------------------------------------------------------------------
# conjugacy-bound profiler


@dataclass(frozen=True)
class ProfileRecord:
    u: Element
    v: Element
    input_length: int
    min_conjugator_length: int
    witness: Element
    class_rep: int  # ball index of the class representative


@dataclass(frozen=True)
class ProfileFit:
    degree: Optional[int]
    constant: Optional[Fraction]
    per_degree: dict  # degree -> minimal dominating constant
    dominated: bool


@dataclass
class ProfileResult:
    model: GroupModel
    radius: int
    search_radius: int
    records: list
    fit: ProfileFit
    unknown_pairs: list  # (u, v) solver says conjugate, no witness in search radius
    notes: list

    def csv_rows(self) -> list:
        rows = [("input_length", "u", "v", "min_conj_length", "class_rep")]
        for rec in self.records:
            rows.append(
                (
                    rec.input_length,
                    self.model.element_str(rec.u),
                    self.model.element_str(rec.v),
                    rec.min_conjugator_length,
                    rec.class_rep,
                )
            )
        return rows


def _scan_chunk(model, base: Ball, keys: list, buckets: dict, conjugators: list) -> dict:
    """(ui, vi) -> the first (length, g) of ``conjugators`` with g^-1 u g = v,
    where v ranges over the base-ball elements that share u's key."""
    found = {}
    for ui, u in enumerate(base.elements):
        targets = buckets[keys[ui]]
        missing = len(targets)
        for length, g in conjugators:
            vi = targets.get(model.conjugate(g, u))
            if vi is not None and (ui, vi) not in found:
                found[ui, vi] = (length, g)
                missing -= 1
                if not missing:
                    break
    return found


def _exact_solver_for(model: GroupModel):
    """The exact decider of the model's entry, bound to the model, or None."""
    decide = conjugacy_entry(model).decide
    return None if decide is None else lambda u, v: decide(model, u, v)


def fit_dominating_bound(records: Sequence[ProfileRecord]) -> ProfileFit:
    """Least degree d <= FIT_MAX_DEGREE with min_length <= A (1 + input_length)^d
    for all records and minimized A <= DEFAULT_FIT_CAP."""
    per_degree = {
        d: max(
            (Fraction(r.min_conjugator_length, (1 + r.input_length) ** d) for r in records),
            default=Fraction(0),
        )
        for d in range(FIT_MAX_DEGREE + 1)
    }
    for d, A in per_degree.items():
        if A <= DEFAULT_FIT_CAP:
            return ProfileFit(d, A, per_degree, True)
    return ProfileFit(None, None, per_degree, False)


def profile_conjugacy_bound(
    model: GroupModel,
    radius: int,
    solver: str = "auto",
    *,
    slack: int = 2,
    ball_cap: int = DEFAULT_BALL_CAP,
    base_ball: Optional[Ball] = None,
    search_ball: Optional[Ball] = None,
) -> ProfileResult:
    """Minimal conjugator lengths for every conjugate pair in the ball.

    Only pairs with equal conjugacy keys are examined.  A model whose
    decider gives minimal witnesses (free and two-step nilpotent groups)
    takes each pair's witness from it and keeps it when it lies within the
    search radius (that of the given search ball, else 2*radius + slack);
    no search ball is built.  Other models scan the search ball in BFS
    order.  Conjugate pairs beyond the search radius, or missed by the
    scan, are reported as unknown when a complete key or the exact decider
    shows them conjugate, so nothing is dropped silently.
    ``solver='brute'`` scans the whole search ball over all pairs, with no
    keys or decider: the oracle.  A solver that does not fit the model
    raises UnsupportedCase.
    """
    choose_solver(model, solver)  # UnsupportedCase when the solver does not fit
    search_radius = search_ball.radius if search_ball is not None else 2 * radius + slack
    if search_radius < 0:
        raise DomainError("radius must be >= 0")
    brute = solver == "brute"
    entry = conjugacy_entry(model)
    notes: list[str] = []
    b = base_ball if base_ball is not None else ball(model, radius, cap=ball_cap)
    keys = [None if brute else entry.key(model, u) for u in b.elements]
    buckets: dict = {}
    for vi, v in enumerate(b.elements):
        buckets.setdefault(keys[vi], {})[v] = vi

    exact = None if brute else _exact_solver_for(model)
    if exact is not None and entry.minimal:
        found = {}  # the decider's witnesses are minimal: no scan
    else:
        sb = search_ball if search_ball is not None else ball(model, search_radius, cap=ball_cap)
        found = _scan_chunk(model, b, keys, buckets, list(zip(sb.lengths, sb.elements)))
    unknown_pairs = []
    if exact is not None or (entry.complete and not brute):
        for ui, u in enumerate(b.elements):
            for v, vi in buckets[keys[ui]].items():
                if (ui, vi) in found:
                    continue
                res = None if exact is None else exact(u, v)  # None: equal complete keys
                if res is not None and not res.is_conjugate:
                    continue
                if entry.minimal and res.witness_length <= search_radius:
                    found[ui, vi] = (res.witness_length, res.witness)
                else:
                    unknown_pairs.append((u, v))
    elif not brute:
        notes.append(
            "no exact solver for this model: pairs beyond the search radius "
            "are undetectable and are not reported"
        )

    # connected components of the found pairs = conjugacy classes in the ball
    parent = list(range(len(b.elements)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for ui, vi in found:
        ri, rj = find(ui), find(vi)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    records = []
    for (ui, vi), (length, g) in found.items():
        records.append(
            ProfileRecord(
                u=b.elements[ui],
                v=b.elements[vi],
                input_length=b.lengths[ui] + b.lengths[vi],
                min_conjugator_length=length,
                witness=g,
                class_rep=find(ui),
            )
        )
    records.sort(key=lambda r: (r.input_length, b.index[r.u], b.index[r.v]))

    fit = fit_dominating_bound(records)
    return ProfileResult(model, radius, search_radius, records, fit, unknown_pairs, notes)
