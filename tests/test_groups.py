"""Group arithmetic: normal forms, lengths, torsion, model invariants."""

from __future__ import annotations

import gc
import itertools
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggtkit.cayley import ball
from ggtkit.errors import ConfigError, ModelMismatch
from ggtkit.groups import (
    BUILTIN_GROUPS,
    FiniteGroup,
    FreeAbelian,
    FreeGroup,
    FreeProduct,
    LengthLowerBound,
    cyclic_group,
    heisenberg_group,
    inverse,
    is_torsion,
    model_from_dict,
    multiply,
    reduce_word,
    symmetric_group_3,
    word_length,
)

letters = st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0)
words = st.lists(letters, max_size=12)


# -- free groups -------------------------------------------------------------


def test_free_reduction_cancels_inverse_pair(f2):
    assert f2.multiply((1,), (-1,)) == ()


def test_free_inverse_reverses_and_negates(f2):
    assert f2.inverse((1, 2, -1)) == (1, -2, -1)


@given(words)
def test_free_reduction_idempotent(w):
    once = reduce_word(w)
    assert reduce_word(once) == once


@given(words, words)
@settings(max_examples=200)
def test_free_multiply_matches_concat_reduce(u, v):
    f2 = FreeGroup(2)
    assert f2.multiply(reduce_word(u), reduce_word(v)) == reduce_word(tuple(u) + tuple(v))


rank3_words = st.lists(st.sampled_from([1, 2, 3, -1, -2, -3]), max_size=10).map(reduce_word)


@given(rank3_words, rank3_words, rank3_words)
@settings(max_examples=300)
def test_free_multiply_cancels_at_the_junction_rank_3(x, p, y):
    # a = x p and b = p^-1 y cancel at least p at the junction; the empty
    # word and full cancellation a * a^-1 are drawn explicitly as well
    F3 = FreeGroup(3)
    a = reduce_word(x + p)
    b = reduce_word(F3.inverse(p) + y)
    for u, v in ((a, b), (b, a), (a, F3.inverse(a)), (a, ()), ((), b), ((), ())):
        assert F3.multiply(u, v) == reduce_word(u + v)


@given(words)
def test_free_inverse_identity(w):
    f2 = FreeGroup(2)
    e = reduce_word(w)
    assert f2.multiply(e, f2.inverse(e)) == ()


def test_free_word_length(f2):
    assert f2.word_length((1, 2, -1)) == 3


# -- free abelian ------------------------------------------------------------


def test_abelian_length_is_l1(z2):
    assert z2.word_length((3, -4)) == 7


@given(st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
def test_abelian_inverse(v):
    z2 = FreeAbelian(2)
    assert z2.multiply(v, z2.inverse(v)) == (0, 0)


# -- two-step nilpotent ------------------------------------------------------


def test_heisenberg_defining_relation(heis):
    x = ((1, 0), (0,))
    y = ((0, 1), (0,))
    assert heis.multiply(x, y) == ((1, 1), (1,))  # xy = yx z
    assert heis.multiply(y, x) == ((1, 1), (0,))


def test_heisenberg_inverse(heis):
    assert heis.inverse(((1, 0), (0,))) == ((-1, 0), (0,))
    g = ((1, 1), (0,))
    assert heis.multiply(g, heis.inverse(g)) == heis.identity()


def test_heisenberg_commutator_is_central_generator(heis):
    x = ((1, 0), (0,))
    y = ((0, 1), (0,))
    comm = heis.multiply(
        heis.multiply(x, y), heis.multiply(heis.inverse(x), heis.inverse(y))
    )
    assert comm == ((0, 0), (1,))


def test_heisenberg_central_length_with_standard_generators(heis):
    # the central generator is part of the generating set, so the BFS oracle
    # gives length 1 even though it also equals a 4-letter commutator
    assert heis.word_length(((0, 0), (1,)), 10) == 1


def test_heisenberg_length_lower_bound_capped(heis):
    got = heis.word_length(((5, 5), (0,)), 2)
    assert got == LengthLowerBound(3)


def test_structure_constants_validated():
    with pytest.raises(ConfigError):
        model_from_dict({"type": "two_step_nilpotent", "m": 2, "n": 1, "C": [[[0], [1]], [[1], [0]]]})


# -- finite groups -----------------------------------------------------------


def test_s3_transposition_involution(s3):
    t = s3.names.index("(12)")
    assert s3.multiply(t, t) == 0


def test_s3_orders(s3):
    assert is_torsion(s3, s3.names.index("(123)")) == 3
    assert is_torsion(s3, s3.names.index("(12)")) == 2
    assert is_torsion(s3, 0) == 1


def test_bad_table_rejected():
    with pytest.raises(ConfigError):
        FiniteGroup([[0, 1], [1, 1]])
    with pytest.raises(ConfigError):
        FiniteGroup([[1, 0], [0, 1]])  # index 0 not the identity


# -- free products -----------------------------------------------------------


def test_free_product_merge_and_cascade(z2z3_product):
    P = z2z3_product
    g = ((0, 1), (1, 1))
    gg = P.multiply(g, P.inverse(g))
    assert gg == ()


def test_free_product_torsion_by_syllables(z2z3_product):
    P = z2z3_product
    assert is_torsion(P, ((0, 1),)) == 2
    assert is_torsion(P, ((1, 1),)) == 3
    assert is_torsion(P, ((0, 1), (1, 1))) is None  # infinite order
    conj = P.multiply(P.multiply(((1, 2),), ((0, 1),)), P.inverse(((1, 2),)))
    assert is_torsion(P, conj) == 2


def test_free_product_of_torsion_free_is_torsion_free():
    P = FreeProduct([FreeAbelian(2), FreeAbelian(1)])
    w = ((0, (2, -1)), (1, (3,)), (0, (1, 0)))
    assert is_torsion(P, w) is None
    assert is_torsion(P, ()) == 1


def test_free_product_length_adds_over_syllables():
    P = FreeProduct([FreeAbelian(2), FreeAbelian(1)])
    w = ((0, (2, -1)), (1, (3,)), (0, (1, 0)))
    assert P.word_length(w, 10) == 7


# -- model-level wrappers and serialization ----------------------------------


def test_multiply_validates_membership(f2):
    with pytest.raises(ModelMismatch):
        multiply(f2, (1, 2), (3,))  # letter out of rank
    with pytest.raises(ModelMismatch):
        multiply(f2, (1, -1), (2,))  # not reduced


def test_free_validation_checks_every_letter_before_reducedness(f2):
    with pytest.raises(ModelMismatch, match="letter 5 out of range"):
        f2.validate_element((1, -1, 5))
    for word in [(1, -1), (2, 1, -1, 2), (1, 2, -2)]:
        with pytest.raises(ModelMismatch, match="not freely reduced"):
            f2.validate_element(word)
    f2.validate_element((1, 2, 1, -2, -1))


def test_model_round_trip_through_dict(heis, s3, z2z3_product):
    for model in (FreeGroup(3), FreeAbelian(2), heis, s3, z2z3_product):
        assert model_from_dict(model.to_dict()) == model


def test_element_string_round_trip(f2, heis, s3, z2z3_product):
    cases = [
        (f2, [(), (1, 2, -1)]),
        (heis, [((1, 0), (0,)), ((2, -3), (4,))]),
        (s3, [0, 3]),
        (z2z3_product, [(), ((0, 1), (1, 2))]),
    ]
    for model, elems in cases:
        for e in elems:
            assert model.parse_element(model.element_str(e)) == e


@pytest.mark.parametrize(
    "spec",
    [*BUILTIN_GROUPS, {"type": "finite", "table": [[0, 1], [1, 0]], "names": ["1", "0"], "label": "Z2"}],
    ids=str,
)
def test_named_group_elements_round_trip(spec):
    model = model_from_dict(spec)
    for a in range(model.order):
        assert model.parse_element(model.element_str(a)) == a


@pytest.mark.parametrize(
    "kwargs",
    [{"names": [1, 2]}, {"names": ["e", "e"]}, {"names": ["e", "x "]}, {"label": 2},
     {"generators": [True]}, {"generators": [1.0]}],
    ids=str,
)
def test_finite_group_spec_fields_are_checked(kwargs):
    with pytest.raises(ConfigError):
        FiniteGroup([[0, 1], [1, 0]], **kwargs)


# -- spec-level invariants ---------------------------------------------------


BUNDLED = [
    FreeGroup(2),
    FreeAbelian(2),
    heisenberg_group(),
    symmetric_group_3(),
    FreeProduct([cyclic_group(2), cyclic_group(3)]),
]


@pytest.mark.parametrize("model", BUNDLED, ids=lambda m: repr(m))
def test_associativity_on_ball2_triples(model):
    elems = ball(model, 2).elements
    for a, b, c in itertools.product(elems, repeat=3):
        assert model.multiply(model.multiply(a, b), c) == model.multiply(a, model.multiply(b, c))


@pytest.mark.parametrize("model", BUNDLED, ids=lambda m: repr(m))
def test_products_stay_canonical(model):
    elems = ball(model, 2).elements
    for a in elems[:20]:
        for b in elems[:20]:
            model.validate_element(model.multiply(a, b))
        assert model.multiply(a, model.identity()) == a
        assert model.multiply(model.identity(), a) == a


@pytest.mark.parametrize("model", BUNDLED, ids=lambda m: repr(m))
def test_length_subadditive_and_inverse_symmetric(model):
    b3 = ball(model, 3)
    lengths = {e: l for e, l in zip(b3.elements, b3.lengths)}
    elems = b3.elements[:40]
    cap = 8
    for a in elems:
        la = word_length(model, a, cap)
        ia = inverse(model, a)
        assert word_length(model, ia, cap) == la
        for b in elems:
            lab = word_length(model, model.multiply(a, b), cap)
            if not isinstance(lab, LengthLowerBound):
                assert lab <= lengths[a] + lengths[b]


def test_heisenberg_center_commutes_with_ball3(heis, heis_ball3):
    center = ((0, 0), (3,))
    for g in heis_ball3.elements:
        assert heis.multiply(center, g) == heis.multiply(g, center)


@pytest.mark.parametrize("make,radius", [(heisenberg_group, 4), (symmetric_group_3, 3)], ids=["Heisenberg", "S3"])
def test_word_length_equals_ball_lengths(make, radius):
    b = ball(make(), radius)
    # fresh models: one memo grows level by level, the other jumps to the top
    upward, downward = make(), make()
    assert [upward.word_length(e) for e in b.elements] == b.lengths
    assert [downward.word_length(e) for e in reversed(b.elements)] == b.lengths[::-1]


def test_memo_ball_is_freed_with_its_model():
    # a model and its word-length memo must form no reference cycle, or
    # every discarded model would wait for the cyclic collector
    model = heisenberg_group()
    assert model.word_length(((2, 1), (3,))) > 0
    ref = weakref.ref(model)
    gc.disable()
    try:
        del model
        assert ref() is None
    finally:
        gc.enable()
