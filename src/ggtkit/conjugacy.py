"""Conjugacy deciders and conjugator-length machinery.

Solvers never overclaim: a negative answer carries a model-specific
certificate (abelianization mismatch, cyclic-word inequality, unsolvable
central system, exhausted finite group); everything else at bounded search
radius is reported Unknown.  Every returned witness g is re-verified by
exact multiplication (g^-1 u g = v) before it leaves the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cayley import Ball, ball
from .config import DEFAULT_BALL_CAP, DEFAULT_FIT_CAP, DEFAULT_RADIUS_CAP, FIT_MAX_DEGREE
from .errors import DomainError, UnsupportedCase
from .exactla import reduce_by_kernel, solve_integer_system
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


def _length_hint(model: GroupModel, g: Element) -> int:
    # a radius certain to contain g: spell every coordinate as a letter
    if isinstance(model, TwoStepNilpotent):
        return sum(abs(v) for v in g[0]) + sum(abs(v) for v in g[1])
    if isinstance(model, FiniteGroup):
        return model.order
    return DEFAULT_RADIUS_CAP


def verified_conjugate(model: GroupModel, u: Element, v: Element, g: Element) -> ConjugacyResult:
    """Wrap a witness after re-checking g^-1 u g = v by exact multiplication."""
    if model.conjugate(g, u) != v:
        raise DomainError("internal error: witness fails verification")
    length = exact_length(model, g, _length_hint(model, g))
    return ConjugacyResult(CONJUGATE, witness=g, witness_length=length)


def _exponent_sums(rank: int, word) -> tuple:
    sums = [0] * rank
    for letter in word:
        sums[abs(letter) - 1] += 1 if letter > 0 else -1
    return tuple(sums)


def _negative_certificate(model: GroupModel, u: Element, v: Element) -> Optional[str]:
    """A proof that u and v cannot be conjugate, when one is cheap."""
    if isinstance(model, FreeAbelian):
        return None if u == v else "abelian group: conjugacy is equality"
    if isinstance(model, TwoStepNilpotent):
        if u[0] != v[0]:
            return "abelianization mismatch: conjugation fixes the base image"
        return None
    if isinstance(model, FreeGroup):
        if _exponent_sums(model.rank, u) != _exponent_sums(model.rank, v):
            return "abelianization mismatch: exponent sums differ"
        if len(cyclic_reduce(u)[1]) != len(cyclic_reduce(v)[1]):
            return "cyclic reduction lengths differ"
        return None
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
        return verified_conjugate(model, u, v, model.identity())
    certificate = _negative_certificate(model, u, v)
    if certificate is not None:
        return ConjugacyResult(NOT_CONJUGATE, certificate=certificate)
    sb = search_ball if search_ball is not None else ball(model, radius, cap=ball_cap)
    for gi, g in enumerate(sb.elements):
        if model.conjugate(g, u) == v:  # the scan condition is the exact verification
            return ConjugacyResult(
                CONJUGATE, witness=g, witness_length=sb.lengths[gi], searched_radius=sb.radius
            )
    if isinstance(model, FiniteGroup) and len(sb.elements) == model.order:
        return ConjugacyResult(
            NOT_CONJUGATE, searched_radius=sb.radius, certificate="exhausted finite group"
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
    theory_backed: bool = False,
) -> ConjugacyResult:
    """Brute-force search out to radius bound(L(u) + L(v)).

    With ``theory_backed=True`` the caller asserts the model provably has a
    solvable conjugacy bound with this function, upgrading Unknown to a
    flagged NotConjugate.
    """
    total = exact_length(model, u, length_cap) + exact_length(model, v, length_cap)
    radius = int(math.ceil(bound(total)))
    result = brute_force_conjugator(model, u, v, radius, ball_cap=ball_cap)
    if result.status == UNKNOWN and theory_backed:
        return ConjugacyResult(
            NOT_CONJUGATE,
            searched_radius=result.searched_radius,
            certificate="theory-backed: search exhausted the guaranteed bound",
        )
    return result


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


def nilpotent_conjugator(model: TwoStepNilpotent, u: Element, v: Element) -> ConjugacyResult:
    """Complete conjugacy decision for the two-step nilpotent models.

    Equal base parts are necessary; the central equation (see
    nilpotent_central_system) is then solved over Z by Smith normal form,
    and the particular solution is shrunk by kernel vectors before the
    witness is verified.
    """
    choose_solver(model, "nilpotent")  # UnsupportedCase unless model is two-step nilpotent
    model.validate_element(u)
    model.validate_element(v)
    certificate = _negative_certificate(model, u, v)  # the base parts differ
    if certificate is not None:
        return ConjugacyResult(NOT_CONJUGATE, certificate=certificate)
    z, kernel = solve_integer_system(*nilpotent_central_system(model, u, v))
    if z is None:
        return ConjugacyResult(
            NOT_CONJUGATE, certificate="central linear system unsolvable over Z"
        )
    z = reduce_by_kernel(z, kernel)
    witness = (tuple(z), (0,) * model.n)
    return verified_conjugate(model, u, v, witness)


def free_group_conjugacy(model: FreeGroup, u: Element, v: Element) -> ConjugacyResult:
    """Exact free-group conjugacy via cyclic reduction and rotation matching.

    With u = p1 c1 p1^-1, v = p2 c2 p2^-1 and c2 the rotation c1[k:] c1[:k],
    the conjugators of least length are p1 w p2^-1 with w = c1[:k] or
    w = (c1[k:])^-1.  Nothing cancels at either junction when w is nonempty,
    so the shortest such w (the empty word when k = 0 matches) gives a
    witness of least length.
    """
    choose_solver(model, "free")  # UnsupportedCase unless model is a free group
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
    return verified_conjugate(model, u, v, model.multiply(model.multiply(p1, w), model.inverse(p2)))


# Each exact solver by its ``--solver`` name: the model class it decides and
# the solver.  ``brute`` names the ball scan, which takes any model.
EXACT_SOLVERS = {
    "free": (FreeGroup, free_group_conjugacy),
    "nilpotent": (TwoStepNilpotent, nilpotent_conjugator),
}


def choose_solver(model: GroupModel, solver: str) -> Optional[str]:
    """The exact solver that ``solver`` names for ``model``, None for the ball
    scan: ``auto`` takes the one of the model's class, if any, and a named
    solver that does not fit the model raises UnsupportedCase."""
    if solver == "auto":
        return next((n for n, (cls, _) in EXACT_SOLVERS.items() if isinstance(model, cls)), None)
    if solver == "brute":
        return None
    if solver not in EXACT_SOLVERS or not isinstance(model, EXACT_SOLVERS[solver][0]):
        raise UnsupportedCase(f"solver {solver!r} does not apply to {model!r}")
    return solver


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


def _conjugacy_key(model: GroupModel, u: Element):
    """An invariant shared by conjugate elements; only pairs with equal keys
    can be conjugate.

    Free groups: the least rotation of the cyclic core, which is complete
    (equal keys iff conjugate).  Two-step nilpotent: the base part, which
    conjugation fixes.  Free abelian: the element.  Finite groups: the least
    element of the conjugacy class, also complete.  Every other model puts
    all elements in one bucket.
    """
    if isinstance(model, FreeGroup):
        core = cyclic_reduce(u)[1]
        return min((core[k:] + core[:k] for k in range(len(core))), default=core)
    if isinstance(model, TwoStepNilpotent):
        return u[0]
    if isinstance(model, FreeAbelian):
        return u
    if isinstance(model, FiniteGroup):
        return min(model.conjugate(h, u) for h in range(model.order))
    return None


def _central_coset_reps(model: GroupModel, sb: Ball) -> list:
    """(length, g) for the first search-ball element of each coset of the
    central coordinates, in BFS order.

    g^-1 u g depends only on that coset, and the first element of a coset is
    its shortest, so scanning the representatives finds the same first
    witness as scanning the whole ball.
    """
    if isinstance(model, FreeAbelian):
        return [(sb.lengths[0], sb.elements[0])]
    pairs = zip(sb.lengths, sb.elements)
    if not isinstance(model, TwoStepNilpotent):
        return list(pairs)
    reps: dict = {}
    for length, g in pairs:
        reps.setdefault(g[0], (length, g))
    return list(reps.values())


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
    """A decider of conjugacy in ``model``, or None.  Abelian conjugacy is
    equality, which ``brute_force_conjugator`` certifies before it builds a
    ball, and the whole ball of a finite group exhausts it."""
    name = choose_solver(model, "auto")
    if name is not None:
        solve = EXACT_SOLVERS[name][1]
        return lambda u, v: solve(model, u, v)
    if isinstance(model, FreeAbelian):
        return lambda u, v: brute_force_conjugator(model, u, v, 0)
    if isinstance(model, FiniteGroup):
        full = ball(model, model.order)
        return lambda u, v: brute_force_conjugator(model, u, v, model.order, search_ball=full)
    return None


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

    Only pairs with equal conjugacy keys are examined.  Free groups take
    each pair's minimal witness from the free solver and keep it when it
    lies within the search radius (that of the given search ball, else
    2*radius + slack).  Other models scan the search ball in BFS order, one
    element per coset of the central coordinates; their exact solver then
    reports the conjugate pairs whose witnesses exceeded the search radius,
    so nothing is dropped silently.  ``solver='brute'`` scans the whole
    search ball over all pairs, with no keys, cosets or exact solver: the
    oracle.  A solver that does not fit the model raises UnsupportedCase.
    """
    name = choose_solver(model, solver)
    brute = solver == "brute"
    notes: list[str] = []
    b = base_ball if base_ball is not None else ball(model, radius, cap=ball_cap)
    search_radius = search_ball.radius if search_ball is not None else 2 * radius + slack
    keys = [None if brute else _conjugacy_key(model, u) for u in b.elements]
    buckets: dict = {}
    for vi, v in enumerate(b.elements):
        buckets.setdefault(keys[vi], {})[v] = vi

    exact = None if brute else _exact_solver_for(model)
    if name == "free":
        found = {}  # equal keys: conjugate, and the free solver's witness is minimal
    else:
        sb = search_ball if search_ball is not None else ball(model, search_radius, cap=ball_cap)
        conjugators = list(zip(sb.lengths, sb.elements)) if brute else _central_coset_reps(model, sb)
        found = _scan_chunk(model, b, keys, buckets, conjugators)
    unknown_pairs = []
    if exact is not None:
        for ui, u in enumerate(b.elements):
            for v, vi in buckets[keys[ui]].items():
                if (ui, vi) in found:
                    continue
                res = exact(u, v)
                if name == "free" and res.witness_length <= search_radius:
                    found[ui, vi] = (res.witness_length, res.witness)
                elif res.is_conjugate:
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
