"""Bounding functions, weighted seminorms, convolution, product estimate."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ggtkit.cayley import ball
from ggtkit.errors import ClassEscape, DomainError
from ggtkit.groups import FreeGroup
from ggtkit.rdalgebra import (
    IDENTITY,
    Affine,
    BoundingClass,
    Compose,
    Const,
    Exp,
    MaxOf,
    Poly,
    Sum,
    SupportedVector,
    check_product_estimate,
    compose_bound,
    convolve,
    dominates_on_grid,
    f2_of,
    parse_bounding_function,
    seminorm,
)

F2 = FreeGroup(2)


# -- bounding functions --------------------------------------------------------


def test_evaluation_exact_rationals():
    f = Poly.basis(2)
    assert f(1) == 4
    assert f(Fraction(1, 2)) == Fraction(9, 4)
    assert Const(5)(100) == 5
    assert Exp(2)(3) == 8
    assert Exp(Fraction(3, 2), 2)(2) == Fraction(81, 16)
    assert IDENTITY(Fraction(7, 3)) == Fraction(7, 3)


def test_class_tags_and_order():
    assert Const(1).tag() == BoundingClass.BMIN
    assert Affine(1, 1).tag() == BoundingClass.LIN
    assert Poly.basis(1).tag() == BoundingClass.LIN
    assert Poly.basis(3).tag() == BoundingClass.P
    assert Exp(2).tag() == BoundingClass.E
    assert BoundingClass.BMIN < BoundingClass.LIN < BoundingClass.P < BoundingClass.E < BoundingClass.BMAX


def test_structural_nondecreasing():
    rng = random.Random(0)
    fs = [Const(3), Affine(1, 2), Poly(((1, 1), (3, Fraction(1, 2)))), Exp(2),
          Sum(((1, Poly.basis(2)), (Fraction(1, 3), Exp(2)))),
          MaxOf((Poly.basis(1), Const(9))), Compose(Poly.basis(2), Affine(0, 1))]
    for f in fs:
        xs = sorted(Fraction(rng.randint(0, 60), rng.randint(1, 4)) for _ in range(12))
        vals = [f(x) for x in xs]
        assert all(float(a) <= float(b) + 1e-12 for a, b in zip(vals, vals[1:]))


def test_negative_argument_rejected():
    with pytest.raises(DomainError):
        Poly.basis(1)(-1)


def test_f2_of_examples():
    f = Poly.basis(1)
    f2 = f2_of(f)
    assert f2.coeffs == ((2, Fraction(1)),)  # (1+x) -> (1+x)^2
    assert f2_of(Const(5)) == Const(5)
    g2 = f2_of(Exp(2))
    assert g2(3) == 2 ** 6  # 2^x -> 4^x
    a2 = f2_of(Affine(3, 1))
    assert a2(5) == 13


@given(st.integers(0, 30))
def test_f2_dominates_doubling(x):
    for f in (Poly(((1, 1), (2, Fraction(1, 2)))), Affine(2, 3), Exp(Fraction(5, 4))):
        f2 = f2_of(f)
        assert float(f(2 * x)) <= float(f2(x)) + 1e-9


def test_compose_bound_poly_example():
    f3 = compose_bound(Poly.basis(2), Poly.basis(3))
    # (1+(1+x)^3)^2 <= 4 (1+x)^6
    assert isinstance(f3, Poly)
    assert f3.coeffs == ((6, Fraction(4)),)
    for x in range(10):
        assert Poly.basis(2)(Poly.basis(3)(x)) <= f3(x)


def test_compose_bound_const_absorbs():
    assert compose_bound(Const(7), Exp(2)) == Const(7)
    out = compose_bound(Poly.basis(2), Const(3))
    assert isinstance(out, Const) and out.value == 16


def test_compose_bound_exp_cases():
    out = compose_bound(Poly.basis(2), Exp(2))
    assert out.tag() == BoundingClass.E
    for x in range(8):
        assert float(Poly.basis(2)(Exp(2)(x))) <= float(out(x)) + 1e-6
    out2 = compose_bound(Exp(2), Poly.basis(2))
    assert out2.tag() == BoundingClass.E


def test_compose_bound_class_escape():
    with pytest.raises(ClassEscape):
        compose_bound(Poly.basis(2), Exp(2), target_class=BoundingClass.P)
    # requesting E for exp compositions is fine: E is composition-closed
    compose_bound(Exp(2), Exp(2), target_class=BoundingClass.E)


def test_compose_bound_grid_verification():
    rng = random.Random(3)
    members = [Const(2), Affine(1, 1), Poly.basis(1), Poly.basis(2), Poly(((0, 1), (2, 2)))]
    for _ in range(20):
        f1, f2 = rng.choice(members), rng.choice(members)
        f3 = compose_bound(f1, f2)
        for x in range(0, 65, 8):
            assert f1(f2(x)) <= f3(x)


def test_dominates_on_grid_refutes():
    assert dominates_on_grid(Const(1), Poly.basis(1))
    assert not dominates_on_grid(Poly.basis(2), Poly.basis(1))


def test_parser():
    assert parse_bounding_function("1") == Const(1)
    assert parse_bounding_function("(1+x)^2") == Poly.basis(2)
    assert parse_bounding_function("x") == IDENTITY
    assert parse_bounding_function("2^x") == Exp(2)
    f = parse_bounding_function("3*(1+x)^2 + 1")
    assert f(1) == 13


# -- supported vectors ---------------------------------------------------------


def test_seminorm_two_term_sum():
    vec = SupportedVector(F2, [((), 2), ((1,), 3)])
    assert seminorm(vec, Poly.basis(2)) == 2 * 1 + 3 * 4


def test_seminorm_const_is_l1():
    vec = SupportedVector(F2, [((), Fraction(-2, 3)), ((1, 2), Fraction(5, 7))])
    assert seminorm(vec, Const(1)) == Fraction(2, 3) + Fraction(5, 7) == vec.l1()


def test_seminorm_monotone_under_pointwise_domination():
    rng = random.Random(1)
    b3 = ball(F2, 3)
    f, g = Poly.basis(1), Poly.basis(2)
    for _ in range(30):
        vec = SupportedVector(F2)
        for _ in range(rng.randint(1, 6)):
            vec.add_term(b3.elements[rng.randrange(len(b3))], Fraction(rng.randint(-9, 9)))
        assert seminorm(vec, f) <= seminorm(vec, g)


def test_seminorm_is_norm_on_fixed_support():
    rng = random.Random(2)
    b2 = ball(F2, 2)
    f = Poly.basis(2)
    for _ in range(40):
        u = SupportedVector(F2)
        v = SupportedVector(F2)
        for _ in range(4):
            u.add_term(b2.elements[rng.randrange(len(b2))], Fraction(rng.randint(-6, 6)))
            v.add_term(b2.elements[rng.randrange(len(b2))], Fraction(rng.randint(-6, 6)))
        assert seminorm(u + v, f) <= seminorm(u, f) + seminorm(v, f)
        c = Fraction(rng.randint(-5, 5))
        assert seminorm(u.scale(c), f) == abs(c) * seminorm(u, f)


def test_convolution_of_deltas():
    dg = SupportedVector.delta(F2, (1,))
    dh = SupportedVector.delta(F2, (2,))
    assert convolve(dg, dh) == SupportedVector.delta(F2, (1, 2))


def test_convolution_square_expansion():
    v = SupportedVector(F2, [((1,), 1), ((-1,), 1)])
    sq = convolve(v, v)
    expected = SupportedVector(F2, [((1, 1), 1), ((), 2), ((-1, -1), 1)])
    assert sq == expected


def test_convolution_associative_vs_nested_loop_oracle():
    rng = random.Random(4)
    b2 = ball(F2, 2)
    for _ in range(15):
        vecs = []
        for _ in range(3):
            vec = SupportedVector(F2)
            for _ in range(3):
                vec.add_term(b2.elements[rng.randrange(len(b2))], Fraction(rng.randint(-4, 4)))
            vecs.append(vec)
        a, b, c = vecs
        left = convolve(convolve(a, b), c)
        right = convolve(a, convolve(b, c))
        assert left == right
        # nested-loop oracle for the triple product
        oracle = SupportedVector(F2)
        for g1, v1 in a.coeffs.items():
            for g2, v2 in b.coeffs.items():
                for g3, v3 in c.coeffs.items():
                    prod = F2.multiply(F2.multiply(g1, g2), g3)
                    val = (
                        v1[0] * v2[0] - v1[1] * v2[1],
                        v1[0] * v2[1] + v1[1] * v2[0],
                    )
                    oracle.add_term(prod, (val[0] * v3[0] - val[1] * v3[1], val[0] * v3[1] + val[1] * v3[0]))
        assert left == oracle


def test_convolution_bilinear():
    rng = random.Random(6)
    b2 = ball(F2, 2)
    u = SupportedVector(F2, [(b2.elements[3], Fraction(2)), (b2.elements[5], Fraction(-1))])
    v = SupportedVector(F2, [(b2.elements[1], Fraction(3))])
    w = SupportedVector(F2, [(b2.elements[2], Fraction(1, 2))])
    assert convolve(u, v + w) == convolve(u, v) + convolve(u, w)
    assert convolve(u.scale(Fraction(5)), v) == convolve(u, v).scale(Fraction(5))


def test_complex_coefficients_exact():
    vec = SupportedVector(F2, [((1,), (Fraction(3), Fraction(4)))])
    assert vec.abs_coefficient((1,)) == pytest.approx(5.0)
    vec2 = SupportedVector(F2, [((1,), (Fraction(3), Fraction(0)))])
    assert vec2.abs_coefficient((1,)) == Fraction(3)
    # float and complex inputs, scalars included, are converted exactly
    vec3 = SupportedVector(F2, [((1,), 0.5 + 0.25j)]).scale(2j)
    assert vec3.coeffs == {(1,): (Fraction(-1, 2), Fraction(1))}


def test_vector_json_round_trip():
    vec = SupportedVector(
        F2, [((1,), (Fraction(3, 2), Fraction(-1))), ((), Fraction(2))]
    )
    data = vec.to_json()
    assert all(set(d) == {"element", "re", "im"} for d in data)
    assert SupportedVector.from_json(F2, data) == vec


# -- the product estimate --------------------------------------------------------


def test_product_estimate_deltas():
    rep = check_product_estimate(
        SupportedVector.delta(F2, (1,)), SupportedVector.delta(F2, (2,)), Poly.basis(2)
    )
    assert rep.holds


def test_product_estimate_zero_vectors():
    rep = check_product_estimate(SupportedVector(F2), SupportedVector(F2), Poly.basis(1))
    assert rep.holds and rep.lhs == 0 and rep.rhs == 0


def test_product_estimate_random_pairs():
    rng = random.Random(9)
    b3 = ball(F2, 3)
    f = Poly.basis(2)
    for _ in range(100):
        vecs = []
        for _ in range(2):
            vec = SupportedVector(F2)
            for _ in range(rng.randint(1, 5)):
                vec.add_term(
                    b3.elements[rng.randrange(len(b3))],
                    (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))),
                )
            vecs.append(vec)
        rep = check_product_estimate(vecs[0], vecs[1], f, length_cap=8)
        assert rep.holds, rep
