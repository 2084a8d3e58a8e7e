"""Conjugacy deciders and conjugator-length machinery.

Every model class has a complete conjugacy key: two elements are conjugate
exactly when their keys are equal.  Solvers never overclaim: the ball scan
refutes a pair by unequal keys, the exact deciders by their own tests
(cyclic words that are not rotations, unequal base parts, an unsolvable
central system); a pair with equal keys and no witness at bounded search
radius is reported Unknown.  Every returned witness g is re-verified by
exact multiplication (g^-1 u g = v) before it leaves the module, with a
word length its solver certifies: the BFS depth of the ball scan, the
reduced word length in free groups, and the base l1 norm in two-step
nilpotent groups.  The free and nilpotent witnesses have least length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .cayley import Ball, ball
from .config import DEFAULT_BALL_CAP, DEFAULT_FIT_CAP, FIT_MAX_DEGREE
from .errors import DomainError, ResourceCapError, UnsupportedCase
from .exactla import smith_normal_form, solve_integer_system
from .groups import (
    Element,
    FiniteGroup,
    FreeAbelian,
    FreeGroup,
    FreeProduct,
    GroupModel,
    TwoStepNilpotent,
    cyclic_reduce,
)

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


def brute_force_conjugator(
    model: GroupModel,
    u: Element,
    v: Element,
    radius: int,
    *,
    ball_cap: int = DEFAULT_BALL_CAP,
    search_ball: Optional[Ball] = None,
) -> ConjugacyResult:
    """Scan the ball in BFS order for the first (hence shortest) conjugator,
    after refuting a pair whose complete conjugacy keys differ."""
    model.validate_element(u)
    model.validate_element(v)
    if radius < 0:
        raise DomainError("radius must be >= 0")
    if u == v:
        return verified_conjugate(model, u, v, model.identity(), 0)
    key = conjugacy_entry(model).key
    if key(model, u) != key(model, v):
        return ConjugacyResult(NOT_CONJUGATE, certificate="the conjugacy keys differ")
    sb = search_ball if search_ball is not None else ball(model, radius, cap=ball_cap)
    for gi, g in enumerate(sb.elements):
        if model.conjugate(g, u) == v:  # the scan condition is the exact verification
            return ConjugacyResult(
                CONJUGATE, witness=g, witness_length=sb.lengths[gi], searched_radius=sb.radius
            )
    return ConjugacyResult(UNKNOWN, searched_radius=sb.radius)


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


def _capped_radii(m: int, last: int):
    """The radii 0..last, each yielded before its l1 sphere in Z^m is
    searched; past DEFAULT_BALL_CAP lattice points in the spheres so far,
    ResourceCapError.  |S_m(r)| = sum_{k>=1} 2^k C(m,k) C(r-1,k-1) for r >= 1
    (k nonzero coordinates, their signs, and a composition of r into k
    parts), and 1 for r = 0."""
    points = 0
    for r in range(last + 1):
        points += sum(2**k * math.comb(m, k) * math.comb(r - 1, k - 1) for k in range(1, m + 1)) if r else 1
        if points > DEFAULT_BALL_CAP:
            raise ResourceCapError(
                f"nilpotent conjugator search: the l1 ball of radius {r} in Z^{m} "
                f"has {points} points, over cap {DEFAULT_BALL_CAP}"
            )
        yield r


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
    conjugator.  The search raises ResourceCapError once its spheres hold
    more than DEFAULT_BALL_CAP lattice points.
    """
    _fitting_entry(model, "nilpotent")
    model.validate_element(u)
    model.validate_element(v)
    if u[0] != v[0]:
        return ConjugacyResult(
            NOT_CONJUGATE, certificate="abelianization mismatch: conjugation fixes the base image"
        )
    A, rhs = nilpotent_central_system(model, u, v)
    z0, _ = solve_integer_system(A, rhs)
    if z0 is None:
        return ConjugacyResult(
            NOT_CONJUGATE, certificate="central linear system unsolvable over Z"
        )
    radius, z = next(
        (r, z)
        for r in _capped_radii(model.m, sum(map(abs, z0)))  # z0 lies on the last sphere
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


def _least_rotation(word: tuple) -> tuple:
    """The least cyclic rotation of a word (of letters or syllables)."""
    return min((word[k:] + word[:k] for k in range(len(word))), default=word)


def _free_key(model: FreeGroup, u: Element):
    return _least_rotation(cyclic_reduce(u)[1])


def _nilpotent_key(model: TwoStepNilpotent, u: Element):
    """The class of u = (x, c) is {(x, c + A z) : z in Z^m}, with A the
    matrix of nilpotent_central_system, which depends on x alone.  With
    U A V = D in Smith normal form, c + A Z^m is read off U c modulo the
    diagonal: (U c)_i mod d_i where d_i != 0, and (U c)_i otherwise."""
    x, c = u
    U, D, _ = smith_normal_form(nilpotent_central_system(model, u, u)[0])
    key = []
    for i, row in enumerate(U):
        r = sum(a * b for a, b in zip(row, c))
        d = D[i][i] if i < model.m else 0
        key.append(r % d if d else r)
    return x, tuple(key)


def _finite_key(model: FiniteGroup, u: Element):
    """The least element of u's conjugacy class."""
    return min(model.conjugate(h, u) for h in range(model.order))


def _product_key(model: FreeProduct, u: Element):
    """u = p core p^-1 by cyclic syllable reduction.  The cyclically reduced
    conjugates of a core of >= 2 syllables are exactly its cyclic
    rotations (Magnus-Karrass-Solitar, Thm 4.2), so it keys by the least
    one; a single syllable (i, a) keys by i and factor i's key of a, and e
    by the empty core."""
    core = model.cyclic_syllable_reduce(u)[1]
    if len(core) == 1:
        (i, a), = core
        factor = model.factors[i]
        return i, conjugacy_entry(factor).key(factor, a)
    return _least_rotation(core)


def _period_root(word: tuple) -> tuple:
    """The shortest prefix r of the word with word = r^k, letter for letter."""
    n = len(word)
    return next(word[:d] for d in range(1, n + 1) if n % d == 0 and word == word[:d] * (n // d))


def _free_centralizer(model: FreeGroup, h: Element) -> list:
    """h = p c p^-1 with c cyclically reduced: C(h) is infinite cyclic,
    generated by p r p^-1 with r the primitive root of c."""
    prefix, core = cyclic_reduce(h)
    return [model.multiply(model.multiply(prefix, _period_root(core)), model.inverse(prefix))]


def _nilpotent_centralizer(model: TwoStepNilpotent, h: Element) -> list:
    """g = (z, c) commutes with h exactly when A z = 0 for the central
    system of (h, h), so C(h) is generated by (z, 0) over a basis of the
    kernel of A and the central generators."""
    _, kernel = solve_integer_system(*nilpotent_central_system(model, h, h))
    central = model.positive_generators()[model.m:]
    return [(tuple(z), (0,) * model.n) for z in kernel] + central


def _finite_centralizer(model: FiniteGroup, h: Element) -> list:
    """Every nontrivial element that commutes with h, read off the table."""
    return [g for g in range(1, model.order) if model.table[g][h] == model.table[h][g]]


def _product_centralizer(model: FreeProduct, h: Element) -> list:
    """h = p c p^-1 with c cyclically reduced (Magnus-Karrass-Solitar 4.1):
    a core of >= 2 syllables has the infinite cyclic centralizer generated
    by p r p^-1, r the shortest syllable period of c; a single syllable
    (i, s) has p C_i(s) p^-1, with C_i(s) its centralizer in factor i."""
    prefix, core = model.cyclic_syllable_reduce(h)
    if len(core) > 1:
        roots = [_period_root(core)]
    else:
        (i, s), = core
        roots = [((i, g),) for g in centralizer_generators(model.factors[i], s)]
    inv = model.inverse(prefix)
    return [model.multiply(model.multiply(prefix, r), inv) for r in roots]


@dataclass(frozen=True)
class ConjugacyEntry:
    """What the solvers and the profiler know of conjugacy in one model class.

    ``key(model, u)`` is a complete invariant of u's conjugacy class: u and
    v are conjugate exactly when their keys are equal.
    ``centralizer(model, h)`` lists generators of the centralizer of h != e.
    ``decide(model, u, v)`` is the exact decider that ``--solver <solver>``
    names; its witnesses have least length, so the profiler builds no
    search ball for a model whose entry has one.
    """

    key: Callable
    centralizer: Callable
    solver: Optional[str] = None
    decide: Optional[Callable] = None


# One entry per model class; ``--solver brute`` names the ball scan, not an entry.
CONJUGACY = {
    FreeGroup: ConjugacyEntry(
        key=_free_key,  # the least rotation of the cyclic core
        centralizer=_free_centralizer,
        solver="free",
        decide=free_group_conjugacy,
    ),
    TwoStepNilpotent: ConjugacyEntry(
        key=_nilpotent_key,
        centralizer=_nilpotent_centralizer,
        solver="nilpotent",
        decide=nilpotent_conjugator,
    ),
    FreeAbelian: ConjugacyEntry(
        key=lambda model, u: u,  # conjugacy is equality
        centralizer=lambda model, h: model.positive_generators(),
    ),
    FiniteGroup: ConjugacyEntry(key=_finite_key, centralizer=_finite_centralizer),
    FreeProduct: ConjugacyEntry(key=_product_key, centralizer=_product_centralizer),
}


def conjugacy_entry(model: GroupModel) -> ConjugacyEntry:
    """The entry of the model's class; a class outside the table raises
    UnsupportedCase."""
    entry = CONJUGACY.get(type(model))
    if entry is None:
        raise UnsupportedCase(f"no conjugacy entry for {model!r}")
    return entry


def _fitting_entry(model: GroupModel, solver: str) -> ConjugacyEntry:
    """The model's entry, if its exact decider is the one ``solver`` names."""
    entry = CONJUGACY.get(type(model))
    if entry is None or entry.solver != solver:
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


def centralizer_generators(model: GroupModel, h: Element) -> list:
    """Generators of the centralizer C(h), exact for every model class: the
    model's standard generators when h = e, else those of its conjugacy
    entry's ``centralizer``.  No ball is built."""
    model.validate_element(h)
    if h == model.identity():
        return model.positive_generators()
    return conjugacy_entry(model).centralizer(model, h)


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
    unknown_pairs: list  # (u, v) with equal keys, no witness in search radius

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
    """The exact decider of the model's entry, bound to the model, or None.
    A function of its own, so that perfbench's tracer can time the exact tail."""
    decide = conjugacy_entry(model).decide
    return None if decide is None else lambda u, v: decide(model, u, v)


def fit_dominating_bound(records: Sequence[ProfileRecord]) -> ProfileFit:
    """Least degree d <= FIT_MAX_DEGREE with min_length <= A (1 + input_length)^d
    for all records and minimized A <= DEFAULT_FIT_CAP.

    The denominator depends on the input length alone, so only the longest
    minimal conjugator at each input length can reach the maximum."""
    longest: dict = {}
    for r in records:
        longest[r.input_length] = max(longest.get(r.input_length, 0), r.min_conjugator_length)
    per_degree = {
        d: max(
            (Fraction(m, (1 + n) ** d) for n, m in longest.items()),
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

    Only pairs with equal conjugacy keys are examined, and every key is
    complete, so these are exactly the conjugate pairs.  A model whose
    entry has a decider (free and two-step nilpotent groups) takes each
    pair's least-length witness from it and keeps it when it lies within
    the search radius (that of the given search ball, else
    2*radius + slack); no search ball is built.  Other models scan the
    search ball in BFS order.  Pairs beyond the search radius are reported
    as unknown, so nothing is dropped silently.  ``solver='brute'`` scans
    the whole search ball over all pairs and consults no entry: the
    oracle.  A solver that does not fit the model raises UnsupportedCase.
    """
    choose_solver(model, solver)  # UnsupportedCase when the solver does not fit
    search_radius = search_ball.radius if search_ball is not None else 2 * radius + slack
    if search_radius < 0:
        raise DomainError("radius must be >= 0")
    brute = solver == "brute"
    b = base_ball if base_ball is not None else ball(model, radius, cap=ball_cap)
    if brute:
        keys, exact = [None] * len(b.elements), None
    else:
        key = conjugacy_entry(model).key
        keys, exact = [key(model, u) for u in b.elements], _exact_solver_for(model)
    buckets: dict = {}
    for vi, v in enumerate(b.elements):
        buckets.setdefault(keys[vi], {})[v] = vi

    if exact is None:
        sb = search_ball if search_ball is not None else ball(model, search_radius, cap=ball_cap)
        found = _scan_chunk(model, b, keys, buckets, list(zip(sb.lengths, sb.elements)))
    else:
        found = {}  # the decider's witnesses have least length: no scan
    unknown_pairs = []  # the brute oracle has no keys, so it reports none
    for ui, u in enumerate(() if brute else b.elements):
        for v, vi in buckets[keys[ui]].items():
            if (ui, vi) in found:
                continue
            if exact is not None:
                res = exact(u, v)
                if not res.is_conjugate:
                    raise DomainError("internal error: a decider refutes a pair with equal keys")
                if res.witness_length <= search_radius:
                    found[ui, vi] = (res.witness_length, res.witness)
                    continue
            unknown_pairs.append((u, v))

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
    return ProfileResult(model, radius, search_radius, records, fit, unknown_pairs)
