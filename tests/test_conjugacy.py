"""Conjugacy solvers, centralizers, classification, and the profiler."""

from __future__ import annotations

import functools
import random
from dataclasses import fields, replace
from fractions import Fraction

import pytest

import ggtkit
from ggtkit.cayley import ball
from ggtkit.conjugacy import (
    CONJUGACY,
    brute_force_conjugator,
    centralizer_generators,
    classify_element,
    conjugacy_entry,
    fit_dominating_bound,
    free_group_conjugacy,
    nilpotent_conjugator,
    profile_conjugacy_bound,
)
from ggtkit import cayley, conjugacy
from ggtkit.errors import DomainError, ResourceCapError, UnsupportedCase
from ggtkit.groups import (
    FiniteGroup,
    FreeAbelian,
    FreeGroup,
    FreeProduct,
    GroupModel,
    TwoStepNilpotent,
    cyclic_group,
    exact_length,
    heisenberg_group,
    symmetric_group_3,
)

F2 = FreeGroup(2)
HEIS = heisenberg_group()


# -- brute force ----------------------------------------------------------------


def test_brute_force_finds_shortest_witness():
    res = brute_force_conjugator(F2, (1, 2, -1), (2,), 3)
    assert res.is_conjugate and res.witness == (1,) and res.witness_length == 1


def test_brute_force_certificates():
    # every model class refutes by its complete key, with one text and no scan
    for model, u, v in [
        (HEIS, ((1, 0), (0,)), ((0, 1), (0,))),
        (HEIS, ((2, 0), (0,)), ((2, 0), (1,))),  # equal base parts, c mod 2 differs
        (F2, (1,), (1, 1)),
        (FreeAbelian(2), (1, 0), (0, 1)),
        (FreeProduct([cyclic_group(2), cyclic_group(3)]), ((0, 1),), ((1, 1),)),
    ]:
        res = brute_force_conjugator(model, u, v, 3)
        assert (res.status, res.certificate, res.searched_radius) == (
            "not_conjugate", "the conjugacy keys differ", None
        )


def test_brute_force_negative_radius_fails_before_any_shortcut():
    # u = v, unequal keys and a pair that needs the scan fail alike
    for u, v in [((1,), (1,)), ((1,), (2,)), ((1, 2), (2, 1))]:
        with pytest.raises(DomainError, match="radius must be >= 0"):
            brute_force_conjugator(F2, u, v, -1)


def test_brute_force_identity_pair():
    u = (1, 2)
    res = brute_force_conjugator(F2, u, u, 0)
    assert res.is_conjugate and res.witness == () and res.witness_length == 0


def test_brute_force_unknown_at_small_radius():
    # conjugate pair whose shortest conjugator has length 2
    res = brute_force_conjugator(F2, (1, 2, -1), (-1, 2, 1), 1)
    assert res.status == "unknown" and res.searched_radius == 1
    res2 = brute_force_conjugator(F2, (1, 2, -1), (-1, 2, 1), 2)
    assert res2.is_conjugate and res2.witness_length == 2


def test_brute_force_exhausts_finite_group():
    z4 = cyclic_group(4)
    # the complete key of finite groups decides the pair before any scan
    res = brute_force_conjugator(z4, 1, 3, 0)
    assert (res.status, res.searched_radius) == ("not_conjugate", None)
    assert res.certificate == "the conjugacy keys differ"


def test_brute_force_refutes_every_finite_pair_at_radius_0():
    # the complete keys certify every non-conjugate pair, so only
    # conjugate pairs can stay unknown at a radius short of the group
    for model in (symmetric_group_3(), cyclic_group(6)):
        for u in range(model.order):
            for v in range(model.order):
                got = brute_force_conjugator(model, u, v, 0).status
                if any(model.conjugate(h, u) == v for h in range(model.order)):
                    assert got in ("conjugate", "unknown")
                else:
                    assert got == "not_conjugate"


# -- bounded search ---------------------------------------------------------------


def test_bounded_conjugacy_linear_bound_agrees_on_conjugate_pairs():
    # all conjugate pairs in the radius-4 ball are settled by a search out to
    # the linear bound L(u) + L(v)
    prof = profile_conjugacy_bound(F2, 2)
    for rec in prof.records:
        radius = exact_length(F2, rec.u) + exact_length(F2, rec.v)
        assert brute_force_conjugator(F2, rec.u, rec.v, radius).is_conjugate


def test_theory_backed_upgrade():
    # same exponent sums and cyclic lengths, but not rotations: never
    # conjugate.  The bounded search refutes the pair by its complete key
    # before any scan, and the exact solver by its rotation test.
    u, v = (1, 1, 2, 2), (1, 2, 1, 2)
    plain = brute_force_conjugator(F2, u, v, 1)
    assert (plain.status, plain.certificate) == ("not_conjugate", "the conjugacy keys differ")
    exact = free_group_conjugacy(F2, u, v)
    assert (exact.status, exact.certificate) == (
        "not_conjugate", "cyclic words are not rotations of each other"
    )


# -- nilpotent solver --------------------------------------------------------------


def test_nilpotent_witness_matches_hand_value():
    res = nilpotent_conjugator(HEIS, ((1, 0), (0,)), ((1, 0), (5,)))
    assert res.is_conjugate
    assert res.witness == ((0, 5), (0,))
    assert HEIS.conjugate(res.witness, ((1, 0), (0,))) == ((1, 0), (5,))


def test_nilpotent_identity_pair():
    res = nilpotent_conjugator(HEIS, ((1, 0), (0,)), ((1, 0), (0,)))
    assert res.is_conjugate and res.witness == HEIS.identity()


def test_nilpotent_central_elements_never_conjugate():
    res = nilpotent_conjugator(HEIS, ((0, 0), (1,)), ((0, 0), (2,)))
    assert res.status == "not_conjugate"
    assert "unsolvable" in res.certificate


def test_nilpotent_decider_computes_no_keys(monkeypatch):
    # the decider keeps its own base test and one solve per pair
    def no_key(model, u):
        raise AssertionError("the decider computed a key")

    monkeypatch.setitem(CONJUGACY, TwoStepNilpotent, replace(CONJUGACY[TwoStepNilpotent], key=no_key))
    res = nilpotent_conjugator(HEIS, ((1, 0), (0,)), ((0, 1), (0,)))
    assert res.certificate == "abelianization mismatch: conjugation fixes the base image"
    assert nilpotent_conjugator(HEIS, ((1, 0), (0,)), ((1, 0), (5,))).is_conjugate


def test_nilpotent_witness_is_minimal_with_a_rank_2_kernel():
    # A = (-3 2 5): (1,-1,0) solves A z = -5 with length 2, and the kernel
    # has rank 2; the least solution is (0,0,-1)
    model = _m3n1_nilpotent()
    u, v = model.parse_element("2,3,0|0"), model.parse_element("2,3,0|-5")
    res = nilpotent_conjugator(model, u, v)
    assert res.witness == ((0, 0, -1), (0,)) and res.witness_length == 1
    assert brute_force_conjugator(model, u, v, 2).witness_length == 1


def test_nilpotent_sphere_search_cap(monkeypatch):
    # (1,0|0) -> (1,0|64) is solved on the sphere of radius 64, so the
    # search holds the whole l1 ball of radius 64 in Z^2: 2*64^2 + 2*64 + 1
    # points; the m=3 pair of length 1 holds 1 + 6 points
    u, v = ((1, 0), (0,)), ((1, 0), (64,))
    model = _m3n1_nilpotent()
    u3, v3 = model.parse_element("2,3,0|0"), model.parse_element("2,3,0|-5")
    monkeypatch.setattr(conjugacy, "DEFAULT_BALL_CAP", 2 * 64**2 + 2 * 64 + 1)
    assert nilpotent_conjugator(HEIS, u, v).witness_length == 64
    monkeypatch.setattr(conjugacy, "DEFAULT_BALL_CAP", 7)
    assert nilpotent_conjugator(model, u3, v3).witness_length == 1
    monkeypatch.setattr(conjugacy, "DEFAULT_BALL_CAP", 6)
    with pytest.raises(ResourceCapError, match="nilpotent conjugator search"):
        nilpotent_conjugator(model, u3, v3)
    monkeypatch.setattr(conjugacy, "DEFAULT_BALL_CAP", 2 * 64**2 + 2 * 64)
    with pytest.raises(ResourceCapError, match="radius 64 in Z\\^2 has 8321 points"):
        nilpotent_conjugator(HEIS, u, v)


def test_l1_sphere_sizes_match_enumeration(monkeypatch):
    # the cap counts each sphere by its closed-form size: with the cap at
    # the size of the ball of radius r, radius r is reached and r + 1 is not
    for m in range(1, 5):
        ball_size = 0
        for r in range(7):
            ball_size += sum(1 for _ in conjugacy._l1_sphere(m, r))
            monkeypatch.setattr(conjugacy, "DEFAULT_BALL_CAP", ball_size)
            radii = conjugacy._capped_radii(m, r + 1)
            assert [next(radii) for _ in range(r + 1)] == list(range(r + 1))
            with pytest.raises(ResourceCapError):
                next(radii)


def test_nilpotent_central_system_shape():
    from ggtkit.conjugacy import nilpotent_central_system

    A, rhs = nilpotent_central_system(HEIS, ((1, 0), (0,)), ((1, 0), (5,)))
    assert A == [[0, 1]] and rhs == [5]
    # central pair: zero system with nonzero right-hand side
    A0, rhs0 = nilpotent_central_system(HEIS, ((0, 0), (1,)), ((0, 0), (2,)))
    assert A0 == [[0, 0]] and rhs0 == [1]


def test_brute_force_witness_minimality_independent():
    # for a sample of pairs, re-verify by scanning every strictly shorter g
    b4 = ball(F2, 4)
    pairs = [((1, 2, -1), (2,)), ((1, 2, -1), (-1, 2, 1)), ((1, 2), (2, 1))]
    for u, v in pairs:
        res = brute_force_conjugator(F2, u, v, 4, search_ball=b4)
        assert res.is_conjugate
        for gi, g in enumerate(b4.elements):
            if b4.lengths[gi] < res.witness_length:
                assert F2.conjugate(g, u) != v


def test_nilpotent_agrees_with_brute_force_on_ball(heis_ball10):
    # the full radius-3 sweep runs in the acceptance suite; radius 2 here
    b2 = ball(HEIS, 2)
    for u in b2.elements:
        for v in b2.elements:
            exact = nilpotent_conjugator(HEIS, u, v)
            brute = brute_force_conjugator(HEIS, u, v, 10, search_ball=heis_ball10)
            if brute.is_conjugate:
                assert exact.is_conjugate
                assert HEIS.conjugate(exact.witness, u) == v
                # minimality equals the oracle's, and the length is the witness's
                assert exact.witness_length == brute.witness_length
                assert exact_length(HEIS, exact.witness) == exact.witness_length
            elif brute.status == "not_conjugate":
                assert exact.status == "not_conjugate"
            else:  # brute unknown: the exact decision stands either way
                if exact.is_conjugate:
                    assert HEIS.conjugate(exact.witness, u) == v
                    assert exact.witness_length > heis_ball10.radius


# -- free solver --------------------------------------------------------------------


@pytest.mark.parametrize(
    "solve,model,u",
    [(free_group_conjugacy, HEIS, ((1, 0), (0,))), (nilpotent_conjugator, F2, (1,))],
    ids=["free-on-Heisenberg", "nilpotent-on-F2"],
)
def test_exact_solver_rejects_another_model(solve, model, u):
    with pytest.raises(UnsupportedCase, match="does not apply"):
        solve(model, u, u)


def test_free_solver_examples():
    assert free_group_conjugacy(F2, (1, 2, -1), (2,)).witness == (1,)
    res = free_group_conjugacy(F2, (1, 2), (2, 1))
    assert res.is_conjugate and len(res.witness) == 1
    assert free_group_conjugacy(F2, (1,), (2,)).status == "not_conjugate"


def test_free_solver_witness_is_minimal():
    # aab -> baa: the rotation prefix gives aa, the inverse suffix b^-1
    res = free_group_conjugacy(F2, (1, 1, 2), (2, 1, 1))
    assert res.witness == (-2,) and res.witness_length == 1
    brute = brute_force_conjugator(F2, (1, 1, 2), (2, 1, 1), 2)
    assert brute.witness_length == 1


def test_free_solver_witness_length_bound():
    rng = random.Random(1)
    b4 = ball(F2, 4)
    for _ in range(300):
        u = b4.elements[rng.randrange(len(b4))]
        v = b4.elements[rng.randrange(len(b4))]
        res = free_group_conjugacy(F2, u, v)
        if res.is_conjugate:
            assert res.witness_length <= len(u) + len(v)
            assert F2.conjugate(res.witness, u) == v


def test_conjugacy_is_equivalence_on_samples():
    rng = random.Random(2)
    b3 = ball(F2, 3)
    elems = b3.elements
    for _ in range(60):
        u = elems[rng.randrange(len(elems))]
        v = elems[rng.randrange(len(elems))]
        w = elems[rng.randrange(len(elems))]
        assert free_group_conjugacy(F2, u, u).is_conjugate  # reflexive
        uv = free_group_conjugacy(F2, u, v)
        vu = free_group_conjugacy(F2, v, u)
        assert uv.is_conjugate == vu.is_conjugate  # symmetric
        if uv.is_conjugate:
            assert F2.conjugate(F2.inverse(uv.witness), v) == u  # witness inverts
        vw = free_group_conjugacy(F2, v, w)
        if uv.is_conjugate and vw.is_conjugate:  # transitive via composition
            composed = F2.multiply(uv.witness, vw.witness)
            assert F2.conjugate(composed, u) == w


# -- classification -------------------------------------------------------------------


def test_classification_examples():
    P = FreeProduct([FreeAbelian(2), FreeAbelian(1)])
    t = ((1, (2,)),)
    inner = ((0, (1, 0)),)
    u = P.multiply(P.multiply(t, inner), P.inverse(t))
    c = classify_element(P, u)
    assert c.kind == "parabolic" and c.factor == 0
    assert P.conjugate(c.witness, u) == inner
    assert classify_element(P, ((0, (1, 0)), (1, (1,)))).kind == "hyperbolic"
    assert classify_element(P, ()).kind == "identity"


def test_classification_matches_bounded_conjugation_oracle():
    P = FreeProduct([cyclic_group(2), cyclic_group(3)])
    b4 = ball(P, 4)
    b8 = ball(P, 8)
    into_factor = {
        e
        for e in b8.elements
        if len(e) <= 1
    }
    for u in b4.elements:
        c = classify_element(P, u)
        # oracle: is some ball-8 conjugate of u inside a factor?
        conjugates = {P.conjugate(g, u) for g in b8.elements}
        hits_factor = any(w in into_factor and (len(w) == 1 or u == ()) for w in conjugates)
        if c.kind == "parabolic":
            assert hits_factor
        elif c.kind == "hyperbolic":
            assert not hits_factor


# -- centralizers -----------------------------------------------------------------------


def test_centralizer_of_three_cycle(s3):
    h = s3.names.index("(123)")
    gens = centralizer_generators(s3, h)
    generated = {0}
    frontier = [0]
    steps = list(gens) + [s3.inverse(g) for g in gens]
    while frontier:
        nxt = []
        for u in frontier:
            for g in steps:
                w = s3.multiply(u, g)
                if w not in generated:
                    generated.add(w)
                    nxt.append(w)
        frontier = nxt
    # direct commutation-scan oracle
    expect = {g for g in range(6) if s3.multiply(g, h) == s3.multiply(h, g)}
    assert generated == expect and len(expect) == 3


def test_primitive_root_of_power():
    h = F2.multiply(F2.multiply((1, 2), (1, 2)), (1, 2))  # (ab)^3
    assert centralizer_generators(F2, h) == [(1, 2)]
    # commutation-scan oracle on the radius-6 ball
    b6 = ball(F2, 6)
    commuting = {g for g in b6.elements if F2.commutes(g, h)}
    powers = set()
    p = ()
    for _ in range(3):
        powers.add(p)
        powers.add(F2.inverse(p))
        p = F2.multiply(p, (1, 2))
    assert powers <= commuting


def test_centralizer_of_identity_is_standard_generators(heis):
    assert centralizer_generators(HEIS, HEIS.identity()) == HEIS.positive_generators()
    assert centralizer_generators(F2, ()) == [(1,), (2,)]


def test_centralizer_of_central_element_is_whole_ball(heis):
    gens = centralizer_generators(HEIS, ((0, 0), (1,)))
    generated = {HEIS.identity()}
    frontier = [HEIS.identity()]
    b2 = ball(HEIS, 2)
    steps = list(gens) + [HEIS.inverse(g) for g in gens]
    while frontier:
        nxt = []
        for u in frontier:
            for g in steps:
                w = HEIS.multiply(u, g)
                if w in b2.index and w not in generated:
                    generated.add(w)
                    nxt.append(w)
        frontier = nxt
    assert generated == set(b2.elements)


# The ball-restricted commuting scan is the oracle for the exact centralizers:
# every commuting element of a radius-r ball must lie in the subgroup that
# the generators span, found by closing them inside the radius-2r ball.
_CENTRALIZER_CASES = {
    "F2": (F2, 4, ["a", "ab", "abab", "baB", "abAB"]),
    "Z^2": (FreeAbelian(2), 3, ["1,0", "2,-2"]),
    "Heisenberg": (HEIS, 3, ["0,0|1", "1,0|0", "2,0|0", "1,1|1", "2,-2|3"]),
    "S3": (symmetric_group_3(), 3, ["(123)", "(12)"]),
    "Z6": (cyclic_group(6), 3, ["g", "g3"]),
    "Z2*Z3": (FreeProduct([cyclic_group(2), cyclic_group(3)]), 6,
              ["1:g", "0:g*1:g", "0:g*1:g*0:g*1:g", "1:g*0:g*1:g2"]),
    "Z*Z3": (FreeProduct([FreeAbelian(1), cyclic_group(3)]), 3, ["0:1", "0:2", "0:1*1:g", "1:g*0:1*1:g2"]),
    "F2*Z6": (FreeProduct([FreeGroup(2), cyclic_group(6)]), 3,
              ["1:g3", "0:aa", "0:a*1:g", "0:b*1:g2*0:B", "0:a*1:g*0:a*1:g"]),
    "Z^2*Z3": (FreeProduct([FreeAbelian(2), cyclic_group(3)]), 3, ["0:1,0", "0:1,0*1:g", "1:g*0:0,1*1:g2"]),
}
_CENTRALIZER_PARAMS = [(name, text) for name, (_, _, hs) in _CENTRALIZER_CASES.items() for text in hs]


@functools.cache
def _case_ball(name, radius):
    return ball(_CENTRALIZER_CASES[name][0], radius)


def _commuting_scan(model, h, b):
    """The elements of the ball that commute with h."""
    return [g for g in b.elements if model.commutes(g, h)]


def _closure_in_ball(model, gens, b):
    """The elements of the ball reached from e by steps g^+-1, g in gens,
    without leaving the ball."""
    steps = list(gens) + [model.inverse(g) for g in gens]
    seen = {model.identity()}
    frontier = [model.identity()]
    while frontier:
        nxt = []
        for u in frontier:
            for g in steps:
                w = model.multiply(u, g)
                if w in b.index and w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


@pytest.mark.parametrize("name,text", _CENTRALIZER_PARAMS, ids=[f"{n}-{t}" for n, t in _CENTRALIZER_PARAMS])
def test_centralizer_generators_match_commuting_scan(name, text):
    model, radius, _ = _CENTRALIZER_CASES[name]
    h = model.parse_element(text)
    gens = centralizer_generators(model, h)
    assert gens and all(model.commutes(g, h) for g in gens)
    spanned = _closure_in_ball(model, gens, _case_ball(name, 2 * radius))
    commuting = _commuting_scan(model, h, _case_ball(name, radius))
    assert len(commuting) > 1 and set(commuting) <= spanned


def test_centralizer_generators_build_no_ball(monkeypatch):
    want = {(name, text): centralizer_generators(model, model.parse_element(text))
            for name, (model, _, hs) in _CENTRALIZER_CASES.items() for text in hs}

    def no_ball(self, radius, cap=None):
        raise AssertionError("centralizer_generators grew a ball")

    monkeypatch.setattr(ggtkit.groups.Ball, "grow", no_ball)
    for (name, text), gens in want.items():
        model = _CENTRALIZER_CASES[name][0]
        assert centralizer_generators(model, model.parse_element(text)) == gens


# -- profiler ------------------------------------------------------------------------------


def test_profile_abelian_degree_zero():
    prof = profile_conjugacy_bound(FreeAbelian(2), 4)
    assert prof.fit.degree == 0 and prof.fit.constant == 0
    assert all(rec.min_conjugator_length == 0 and rec.u == rec.v for rec in prof.records)


def test_profile_f2_degree_one():
    prof = profile_conjugacy_bound(F2, 3)
    assert prof.fit.degree == 1
    assert prof.unknown_pairs == []
    # the fit dominates every record exactly
    A, d = prof.fit.constant, prof.fit.degree
    for rec in prof.records:
        assert rec.min_conjugator_length <= A * (1 + rec.input_length) ** d
    # witnesses sound, records deterministic order
    for rec in prof.records:
        assert F2.conjugate(rec.witness, rec.u) == rec.v
    keys = [(rec.input_length,) for rec in prof.records]
    assert keys == sorted(keys)


def test_profile_heisenberg_degree_at_most_two(heis_ball4, heis_ball10):
    prof = profile_conjugacy_bound(
        HEIS, 4, base_ball=heis_ball4, search_ball=heis_ball10
    )
    assert prof.fit.degree is not None and prof.fit.degree <= 2
    assert prof.unknown_pairs == []
    for rec in prof.records[:50]:
        assert HEIS.conjugate(rec.witness, rec.u) == rec.v


def test_profile_class_representatives_consistent():
    prof = profile_conjugacy_bound(F2, 2)
    by_class = {}
    for rec in prof.records:
        by_class.setdefault(rec.class_rep, set()).update([rec.u, rec.v])
    # elements in one class are pairwise conjugate
    for members in by_class.values():
        members = sorted(members)
        for i in range(1, len(members)):
            assert free_group_conjugacy(F2, members[0], members[i]).is_conjugate


def test_fit_prefers_smallest_degree():
    from ggtkit.conjugacy import ProfileRecord

    records = [
        ProfileRecord(u=None, v=None, input_length=n, min_conjugator_length=n, witness=None, class_rep=0)
        for n in range(1, 6)
    ]
    fit = fit_dominating_bound(records)
    assert fit.degree == 1
    assert fit.constant == Fraction(5, 6)


@pytest.mark.parametrize(
    "model,radius", [(F2, 3), (FreeAbelian(2), 4), (HEIS, 3)], ids=["F2-r3", "Z2-r4", "Heisenberg-r3"]
)
def test_fit_matches_the_per_record_maximum(model, radius):
    # the oracle: one Fraction per record and degree
    records = profile_conjugacy_bound(model, radius).records
    fit = fit_dominating_bound(records)
    assert fit.per_degree == {
        d: max(Fraction(r.min_conjugator_length, (1 + r.input_length) ** d) for r in records)
        for d in range(conjugacy.FIT_MAX_DEGREE + 1)
    }
    assert fit_dominating_bound([]).per_degree == {d: 0 for d in fit.per_degree}


# -- profiler against an independent oracle -------------------------------------------------


def _m3_nilpotent():
    # f1 f2 = f2 f1 e1, f1 f3 = f3 f1 e2, f2 f3 = f3 f2 e1 e2
    C = [[(0, 0)] * 3 for _ in range(3)]
    for i, j, c in [(1, 0, (1, 0)), (2, 0, (0, 1)), (2, 1, (1, 1))]:
        C[i][j] = c
        C[j][i] = tuple(-x for x in c)
    return TwoStepNilpotent(3, 2, C)


def _m3n1_nilpotent():
    # f1 f2 = f2 f1 e1, f1 f3 = f3 f1 e1, f2 f3 = f3 f2 e1: a rank-2 kernel
    C = [[(0,)] * 3 for _ in range(3)]
    for i, j in [(1, 0), (2, 0), (2, 1)]:
        C[i][j], C[j][i] = (1,), (-1,)
    return TwoStepNilpotent(3, 1, C)


def _oracle_pairs(model, base, search):
    """(ui, vi) -> minimal conjugator length within the search ball: the
    first g in BFS order with g^-1 u g = v, over every ordered pair."""
    found = {}
    for gi, g in enumerate(search.elements):
        inv = model.inverse(g)
        for ui, u in enumerate(base.elements):
            vi = base.index.get(model.multiply(inv, model.multiply(u, g)))
            if vi is not None and (ui, vi) not in found:
                found[ui, vi] = search.lengths[gi]
    return found


def _smallest_in_component(n, pairs):
    label = list(range(n))
    changed = True
    while changed:
        changed = False
        for ui, vi in pairs:
            low = min(label[ui], label[vi])
            if label[ui] != low or label[vi] != low:
                label[ui] = label[vi] = low
                changed = True
    return label


def _oracle_records(base, oracle):
    """The oracle's pairs as profile records (u, v, input length, minimal
    conjugator length, class rep), in the profiler's order."""
    rep = _smallest_in_component(len(base), oracle)
    return [
        (base.elements[ui], base.elements[vi], n, length, rep[ui])
        for n, ui, vi, length in sorted(
            (base.lengths[ui] + base.lengths[vi], ui, vi, length)
            for (ui, vi), length in oracle.items()
        )
    ]


def _summary(prof):
    return [(r.u, r.v, r.input_length, r.min_conjugator_length, r.class_rep) for r in prof.records]


def _in_column_lattice(cols, b):
    """Whether b is an integer combination of cols, by column-style
    Hermite elimination one coordinate at a time."""
    b = list(b)
    cols = [list(c) for c in cols]
    for t in range(len(b)):
        pivot, rest = None, []
        for col in cols:
            if col[t] and pivot is None:
                pivot, col = col, [0] * len(b)
            while col[t]:
                q = pivot[t] // col[t]
                pivot, col = col, [x - q * y for x, y in zip(pivot, col)]
            if any(col):
                rest.append(col)
        if pivot is None:
            if b[t]:
                return False
        else:
            if b[t] % pivot[t]:
                return False
            k = b[t] // pivot[t]
            b = [x - k * y for x, y in zip(b, pivot)]
        cols = rest
    return True


def _conjugacy_decider(model, base):
    """An exact conjugacy decision for pairs of base-ball elements that
    shares no code with the profiler's fast path."""
    if isinstance(model, FreeAbelian):
        return lambda u, v: u == v
    if isinstance(model, FiniteGroup):
        return lambda u, v: any(
            model.multiply(model.multiply(model.inverse(h), u), h) == v for h in range(model.order)
        )
    if isinstance(model, FreeGroup):
        # a minimal free conjugator has length <= |u| + |v| <= 2 radius
        complete = _oracle_pairs(model, base, ball(model, 2 * base.radius))
        return lambda u, v: (base.index[u], base.index[v]) in complete

    def nilpotent(u, v):
        # conjugating u by g moves its central part by a linear function of
        # g's base part; the columns are its values on the base generators
        if u[0] != v[0]:
            return False
        cols = [
            [a - b for a, b in zip(model.conjugate(f, u)[1], u[1])]
            for f in model.positive_generators()[: model.m]
        ]
        return _in_column_lattice(cols, [a - b for a, b in zip(v[1], u[1])])

    return nilpotent


# (model, radius, slack); a negative slack leaves conjugate pairs beyond the
# search radius, so the exact-solver tail must report them as unknown
PROFILE_CASES = [
    pytest.param(F2, 3, 0, id="F2-r3"),
    pytest.param(F2, 3, -5, id="F2-r3-search1"),
    pytest.param(FreeGroup(3), 2, 0, id="F3-r2"),
    pytest.param(FreeAbelian(2), 4, 2, id="Z2-r4"),
    pytest.param(HEIS, 3, 0, id="Heisenberg-r3"),
    pytest.param(HEIS, 3, -5, id="Heisenberg-r3-search1"),
    pytest.param(_m3_nilpotent(), 2, 0, id="nilpotent-m3-r2"),
    pytest.param(_m3n1_nilpotent(), 2, 0, id="nilpotent-m3n1-r2"),
    pytest.param(_m3n1_nilpotent(), 2, -3, id="nilpotent-m3n1-r2-search1"),
    pytest.param(symmetric_group_3(), 2, 0, id="S3-r2"),
]


@pytest.mark.parametrize("model,radius,slack", PROFILE_CASES)
def test_profile_matches_brute_force_oracle(model, radius, slack):
    base = ball(model, radius)
    search = ball(model, 2 * radius + slack)
    oracle = _oracle_pairs(model, base, search)
    expect = _oracle_records(base, oracle)
    conjugate = _conjugacy_decider(model, base)
    expect_unknown = [
        (u, v)
        for ui, u in enumerate(base.elements)
        for vi, v in enumerate(base.elements)
        if (ui, vi) not in oracle and conjugate(u, v)
    ]
    assert bool(expect_unknown) == (slack < 0)
    fast = profile_conjugacy_bound(model, radius, slack=slack)
    assert _summary(fast) == expect
    assert fast.unknown_pairs == expect_unknown
    for rec in fast.records:
        assert model.conjugate(rec.witness, rec.u) == rec.v
    brute = profile_conjugacy_bound(model, radius, "brute", slack=slack, search_ball=search)
    assert _summary(brute) == expect


@pytest.mark.parametrize(
    "model,radius", [(F2, 2), (HEIS, 2), (symmetric_group_3(), 1)], ids=["F2", "Heisenberg", "S3"]
)
def test_profile_search_radius_is_the_given_ball_radius(model, radius):
    # a search ball of radius 2*radius + 1 acts as slack 1, not the default slack 2
    given = profile_conjugacy_bound(model, radius, search_ball=ball(model, 2 * radius + 1))
    slack_one = profile_conjugacy_bound(model, radius, slack=1)
    assert given.search_radius == slack_one.search_radius == 2 * radius + 1
    assert given.records == slack_one.records
    assert given.unknown_pairs == slack_one.unknown_pairs


def _random_nilpotent(seed, m=3, n=2):
    """A two-step model with seeded structure constants in [-2, 2]."""
    rng = random.Random(seed)
    C = [[(0,) * n for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i):
            C[i][j] = tuple(rng.randint(-2, 2) for _ in range(n))
            C[j][i] = tuple(-x for x in C[i][j])
    return TwoStepNilpotent(m, n, C)


Z2, Z3, Z6 = cyclic_group(2), cyclic_group(3), cyclic_group(6)

# (model, radius, oracle radius): keys are complete, so equal keys hold
# exactly on conjugate pairs.  The oracle is _conjugacy_decider (None), or
# for free products the brute-force pairs within the oracle radius; at each
# radius below, every pair with equal keys is found there, so both
# directions are checked.
KEY_CASES = [
    pytest.param(F2, 3, None, id="F2-r3"),
    pytest.param(FreeAbelian(2), 2, None, id="Z2-r2"),
    pytest.param(symmetric_group_3(), 6, None, id="S3"),
    pytest.param(cyclic_group(4), 4, None, id="Z4"),
    pytest.param(HEIS, 3, None, id="Heisenberg-r3"),
    pytest.param(_m3_nilpotent(), 2, None, id="nilpotent-m3-r2"),
    pytest.param(_m3n1_nilpotent(), 2, None, id="nilpotent-m3n1-r2"),
    pytest.param(_random_nilpotent(1), 2, None, id="nilpotent-random-r2"),
    pytest.param(FreeProduct([Z2, Z3]), 3, 8, id="Z2*Z3-r3"),
    pytest.param(FreeProduct([FreeAbelian(1), Z3]), 2, 7, id="Z*Z3-r2"),
    pytest.param(FreeProduct([F2, Z6]), 2, 4, id="F2*Z6-r2"),
    pytest.param(FreeProduct([HEIS, Z2]), 2, 4, id="Heisenberg*Z2-r2"),
    pytest.param(FreeProduct([symmetric_group_3(), Z2]), 2, 7, id="S3*Z2-r2"),
    pytest.param(FreeProduct([FreeProduct([Z2, Z3]), FreeAbelian(1)]), 2, 6, id="(Z2*Z3)*Z-r2"),
]


@pytest.mark.parametrize("model,radius,oracle_radius", KEY_CASES)
def test_conjugacy_key_is_invariant_and_complete_where_claimed(model, radius, oracle_radius):
    # every entry claims a complete key
    key = conjugacy_entry(model).key
    base = ball(model, radius)
    keys = [key(model, u) for u in base.elements]
    if oracle_radius is None:
        conjugate = _conjugacy_decider(model, base)
    else:
        pairs = _oracle_pairs(model, base, ball(model, oracle_radius))
        conjugate = lambda u, v: (base.index[u], base.index[v]) in pairs  # noqa: E731
    for ui, u in enumerate(base.elements):
        for vi, v in enumerate(base.elements):
            assert (keys[ui] == keys[vi]) == conjugate(u, v)


def test_every_exported_model_class_has_an_entry():
    # GroupModel is the interface the five model classes share
    classes = [
        obj
        for obj in vars(ggtkit).values()
        if isinstance(obj, type) and issubclass(obj, GroupModel) and obj is not GroupModel
    ]
    assert len(classes) == 5
    assert set(CONJUGACY) == set(cayley.CYCLIC) == set(classes)
    assert [f.name for f in fields(conjugacy.ConjugacyEntry)] == ["key", "centralizer", "solver", "decide"]
    # the deciders return least-length witnesses, so they are the free and
    # two-step nilpotent ones
    assert {cls for cls in classes if CONJUGACY[cls].decide} == {FreeGroup, TwoStepNilpotent}


def test_model_class_outside_the_tables_is_unsupported():
    class Renamed(FreeGroup):
        pass

    model = Renamed(2)
    with pytest.raises(UnsupportedCase, match="no conjugacy entry"):
        conjugacy_entry(model)
    with pytest.raises(UnsupportedCase):
        centralizer_generators(model, (1,))
    with pytest.raises(UnsupportedCase):
        brute_force_conjugator(model, (1,), (2,), 1)
    # the oracle consults no entry
    assert profile_conjugacy_bound(model, 1, "brute").unknown_pairs == []
    with pytest.raises(UnsupportedCase):
        cayley.CyclicSubgroup((1,)).contains(model, (1,))


def test_profile_fails_loudly_when_a_decider_refutes_equal_keys(monkeypatch):
    # a key coarser than the classes (the base part alone) buckets e with
    # the central elements of the ball, which the decider refutes
    monkeypatch.setitem(
        CONJUGACY, TwoStepNilpotent, replace(CONJUGACY[TwoStepNilpotent], key=lambda model, u: u[0])
    )
    with pytest.raises(DomainError, match="internal error"):
        profile_conjugacy_bound(HEIS, 1)


# (model, radius, slack, oracle radius); a negative slack leaves conjugate
# pairs beyond the search radius, each found by the oracle within the
# oracle radius
PRODUCT_PROFILE_CASES = [
    pytest.param(FreeProduct([Z2, Z3]), 3, 2, 8, id="Z2*Z3-r3"),
    pytest.param(FreeProduct([FreeAbelian(1), Z3]), 2, 2, 6, id="Z*Z3-r2"),
    pytest.param(FreeProduct([F2, Z6]), 2, 0, 4, id="F2*Z6-r2"),
    pytest.param(FreeProduct([Z2, Z3]), 5, -8, 6, id="Z2*Z3-r5-search2"),  # 4 pairs need length 3
]


@pytest.mark.parametrize("model,radius,slack,oracle_radius", PRODUCT_PROFILE_CASES)
def test_free_product_profile_matches_brute_force_oracle(model, radius, slack, oracle_radius):
    # class-exact keys: keyed buckets, the early-stopping scan, and every
    # conjugate pair beyond the search radius reported as unknown
    key = conjugacy_entry(model).key
    base = ball(model, radius)
    keys = [key(model, u) for u in base.elements]
    oracle = _oracle_pairs(model, base, ball(model, 2 * radius + slack))
    expect = _oracle_records(base, oracle)
    fast = profile_conjugacy_bound(model, radius, slack=slack)
    assert _summary(fast) == expect
    expect_unknown = [
        (u, v)
        for ui, u in enumerate(base.elements)
        for vi, v in enumerate(base.elements)
        if keys[ui] == keys[vi] and (ui, vi) not in oracle
    ]
    assert fast.unknown_pairs == expect_unknown
    assert bool(expect_unknown) == (slack < 0)
    deep = _oracle_pairs(model, base, ball(model, oracle_radius))
    assert all((base.index[u], base.index[v]) in deep for u, v in fast.unknown_pairs)
    assert all(keys[ui] == keys[vi] for ui, vi in deep)
    assert "notes" not in vars(fast)  # nothing is left out unreported
    for rec in fast.records:
        assert model.conjugate(rec.witness, rec.u) == rec.v
    brute = profile_conjugacy_bound(model, radius, "brute", slack=slack)
    assert _summary(brute) == expect and brute.unknown_pairs == []
