"""Group arithmetic: normal forms, lengths, torsion, model invariants."""

from __future__ import annotations

import gc
import itertools
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggtkit import groups
from ggtkit.cayley import ball, cayley_graph
from ggtkit.errors import ConfigError, LengthCapError, ModelMismatch, ResourceCapError
from ggtkit.groups import (
    BUILTIN_GROUPS,
    Ball,
    FiniteGroup,
    FreeAbelian,
    FreeGroup,
    FreeProduct,
    cyclic_group,
    heisenberg_group,
    model_from_dict,
    reduce_word,
    symmetric_group_3,
)
from oracles import m3n1_nilpotent, verify_parent

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
    assert heis.word_length(((0, 0), (1,))) == 1


def test_heisenberg_length_lower_bound_capped(heis):
    with pytest.raises(LengthCapError, match=r"^element has word length >= 65, beyond the cap 64$"):
        heis.word_length(((65, 0), (0,)))


def test_central_part_past_its_bound_raises_with_no_memo():
    model = heisenberg_group()
    with pytest.raises(LengthCapError, match=r"^element has word length >= 65, beyond the cap 64$"):
        model.word_length(((0, 0), (10**6,)))
    assert not hasattr(model, "_length_ball")


@pytest.mark.parametrize("model,radius", [(heisenberg_group(), 6), (m3n1_nilpotent(), 4)], ids=["Heisenberg", "m3n1"])
def test_central_part_is_bounded_by_word_length(model, radius):
    # |c_t| <= L + cmax L(L-1)/2, the bound that refuses (x, c) before a BFS
    cmax = max(abs(v) for row in model.C for vec in row for v in vec)
    b = ball(model, radius)
    for (_, c), length in zip(b.elements, b.lengths):
        assert max(map(abs, c)) <= length + cmax * length * (length - 1) // 2


def test_length_memo_past_the_ball_cap_raises_and_is_dropped(monkeypatch):
    model, far = heisenberg_group(), ((8, 0), (0,))
    monkeypatch.setattr(groups, "DEFAULT_BALL_CAP", 500)
    with pytest.raises(ResourceCapError, match="ball size cap 500"):
        model.word_length(far)
    assert model.word_length(((1, 1), (0,))) == 2
    monkeypatch.undo()
    # the memo cut short mid-sphere is not grown on: lengths stay exact
    assert model.word_length(far) == 8
    b = ball(heisenberg_group(), 5)
    assert [model.word_length(e) for e in b.elements] == b.lengths


@pytest.mark.parametrize("model,cap", [(heisenberg_group(), 88), (FreeGroup(2), 60)], ids=["Heisenberg", "F2-tree"])
def test_capped_grow_leaves_the_ball_whole(model, cap):
    # the radius-4 sphere does not fit under the cap: the ball stays at
    # radius 3, and growing on from it gives the ball grown in one go
    b = Ball(model).grow(3)
    before = (len(b), b.radius, dict(b.index), list(b.lengths))
    assert before[0] < cap < len(Ball(model).grow(4))
    with pytest.raises(ResourceCapError, match=f"ball size cap {cap} exceeded at radius 4"):
        b.grow(4, cap=cap)
    assert (len(b), b.radius, b.index, b.lengths) == before
    fresh = Ball(model).grow(6)
    b.grow(6)
    assert (b.elements, b.lengths, b.parents, b.parent_gen) == (fresh.elements, fresh.lengths, fresh.parents, fresh.parent_gen)
    assert (b.nbr == fresh.nbr).all()


def test_structure_constants_validated():
    with pytest.raises(ConfigError):
        model_from_dict({"type": "two_step_nilpotent", "m": 2, "n": 1, "C": [[[0], [1]], [[1], [0]]]})


# -- finite groups -----------------------------------------------------------


def test_s3_transposition_involution(s3):
    t = s3.names.index("(12)")
    assert s3.multiply(t, t) == 0


def test_s3_orders(s3):
    assert s3.torsion_order(s3.names.index("(123)")) == 3
    assert s3.torsion_order(s3.names.index("(12)")) == 2
    assert s3.torsion_order(0) == 1


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
    assert P.torsion_order(((0, 1),)) == 2
    assert P.torsion_order(((1, 1),)) == 3
    assert P.torsion_order(((0, 1), (1, 1))) is None  # infinite order
    conj = P.multiply(P.multiply(((1, 2),), ((0, 1),)), P.inverse(((1, 2),)))
    assert P.torsion_order(conj) == 2


def test_free_product_of_torsion_free_is_torsion_free():
    P = FreeProduct([FreeAbelian(2), FreeAbelian(1)])
    w = ((0, (2, -1)), (1, (3,)), (0, (1, 0)))
    assert P.torsion_order(w) is None
    assert P.torsion_order(()) == 1


def test_free_product_length_adds_over_syllables():
    P = FreeProduct([FreeAbelian(2), FreeAbelian(1)])
    w = ((0, (2, -1)), (1, (3,)), (0, (1, 0)))
    assert P.word_length(w) == 7


# -- model-level wrappers and serialization ----------------------------------


def test_multiply_validates_membership(f2):
    with pytest.raises(ModelMismatch):
        f2.validate_element((3,))  # letter out of rank
    with pytest.raises(ModelMismatch):
        f2.validate_element((1, -1))  # not reduced


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
    for a in elems:
        la = model.word_length(a)
        model.validate_element(a)
        ia = model.inverse(a)
        assert model.word_length(ia) == la
        for b in elems:
            assert model.word_length(model.multiply(a, b)) <= lengths[a] + lengths[b]


def test_heisenberg_center_commutes_with_ball3(heis, heis_ball3):
    center = ((0, 0), (3,))
    for g in heis_ball3.elements:
        assert heis.multiply(center, g) == heis.multiply(g, center)


_LENGTH_CASES = {
    "Heisenberg": (heisenberg_group, 4),
    "S3": (symmetric_group_3, 3),
    "F2": (lambda: FreeGroup(2), 3),
    "Z^2": (lambda: FreeAbelian(2), 3),
    "Z2*Z3": (lambda: FreeProduct([cyclic_group(2), cyclic_group(3)]), 4),
    **{f"Z{n}": (lambda n=n: cyclic_group(n), n) for n in range(2, 7)},
    "Z6 on 2,3": (lambda: FiniteGroup(cyclic_group(6).table, generators=[2, 3]), 3),
}


@pytest.mark.parametrize("make,radius", _LENGTH_CASES.values(), ids=_LENGTH_CASES)
def test_word_length_equals_ball_lengths(make, radius):
    b = ball(make(), radius)
    # fresh models: one memo grows level by level, the other jumps to the top
    upward, downward = make(), make()
    assert [upward.word_length(e) for e in b.elements] == b.lengths
    assert [downward.word_length(e) for e in reversed(b.elements)] == b.lengths[::-1]
    if isinstance(upward, FiniteGroup):  # lengths come from the constructor's ball
        assert not hasattr(upward, "_length_ball") and not hasattr(downward, "_length_ball")


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


# -- the tree BFS --------------------------------------------------------------


def _ball_state(b):
    table = b.neighbour_table()
    return (
        b.elements, b.index, b.parents, b.parent_gen, b.lengths, b.nbr.tolist(), table.tolist(),
        [verify_parent(b, i) for i in range(len(b))],
    )


@pytest.mark.parametrize("radius", range(7))
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_tree_ball_equals_generic_bfs(monkeypatch, rank, radius):
    tree = _ball_state(ball(FreeGroup(rank), radius))
    assert all(tree[-1])
    monkeypatch.setattr(FreeGroup, "tree", False)
    assert _ball_state(ball(FreeGroup(rank), radius)) == tree


@pytest.mark.parametrize("tree", [True, False])
def test_tree_ball_cap_matches_generic_bfs(monkeypatch, f2, tree):
    monkeypatch.setattr(FreeGroup, "tree", tree)
    with pytest.raises(ResourceCapError, match=r"^ball size cap 50 exceeded at radius 3$"):
        ball(f2, 6, cap=50)
    assert len(ball(f2, 4, cap=161)) == 161  # the exact size does not raise
    with pytest.raises(ResourceCapError, match=r"^ball size cap 161 exceeded at radius 5$"):
        ball(f2, 6, cap=161)


@pytest.mark.parametrize("name", ["f2", "z2", "heis", "s3", "z2z3_product"])
def test_tree_flag_marks_exactly_the_tree_cayley_graphs(monkeypatch, request, name):
    model = request.getfixturevalue(name)
    flag = type(model).tree
    monkeypatch.setattr(type(model), "tree", False)  # the generic BFS, which assumes nothing
    b = ball(model, 3)
    # the tree BFS also needs one arc per generator, so an involution among
    # the generators (as in Z2, whose graph is one edge) does not count
    arcs = int((b.neighbour_table() >= 0).sum())
    assert flag is (cayley_graph(b).summary()["edges"] == len(b) - 1 and arcs == 2 * (len(b) - 1))
