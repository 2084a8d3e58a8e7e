"""Bounding functions, weighted seminorms, convolution, product estimate."""

from __future__ import annotations

import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggtkit.cayley import ball
from ggtkit.cli import run
from ggtkit.config import DEFAULT_RADIUS_CAP
from ggtkit.errors import ConfigError, DomainError, LengthCapError
from ggtkit.groups import FreeAbelian, FreeGroup, exact_length, heisenberg_group
from ggtkit.rdalgebra import (
    IDENTITY,
    _verify_doubling,
    _weighted_sum,
    _verify_dominance,
    Affine,
    Const,
    Exp,
    Poly,
    Sum,
    SupportedVector,
    check_product_estimate,
    f2_of,
    parse_bounding_function,
)

F2 = FreeGroup(2)
Z2 = FreeAbelian(2)
HEIS = heisenberg_group()


# -- bounding functions --------------------------------------------------------


def test_evaluation_exact_rationals():
    f = Poly.basis(2)
    assert f(1) == 4
    assert f(Fraction(1, 2)) == Fraction(9, 4)
    assert Const(5)(100) == 5
    assert Exp(2)(3) == 8
    assert Exp(Fraction(3, 2), 2)(2) == Fraction(81, 16)
    assert IDENTITY(Fraction(7, 3)) == Fraction(7, 3)


def test_structural_nondecreasing():
    rng = random.Random(0)
    fs = [Const(3), Affine(1, 2), Poly(((1, 1), (3, Fraction(1, 2)))), Exp(2),
          Sum(((1, Poly.basis(2)), (Fraction(1, 3), Exp(2))))]
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


_FRACTIONAL = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9).filter(lambda c: c.denominator > 1)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_FRACTIONAL, min_size=1, max_size=4),
    st.permutations(range(8)),
    st.permutations(range(8)),
)
def test_integer_doubling_grid_matches_fraction_grid(coeffs, exps_f, exps_g):
    # f and g carry the same coefficients on other exponents, so they share
    # their common denominator (> 1) and g need not dominate f(2x)
    f = Poly(tuple(zip(exps_f, coeffs)))
    g = Poly(tuple(zip(exps_g, coeffs)))
    assert f._den == g._den == f2_of(f)._den > 1
    for x in range(17):
        assert (f._numerator_at(2 * x, 1) <= g._numerator_at(x, 1)) == (f(2 * x) <= g(x))
    outcomes = []
    for check in (_verify_doubling, lambda f, g: _verify_dominance(lambda x: f(2 * x), g, range(17), "f(2x) <= f2(x)")):
        try:
            check(f, g)
            outcomes.append(None)
        except DomainError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def test_f2_of_poly_checks_integer_numerators(monkeypatch):
    f = Poly(((0, Fraction(1, 3)), (2, Fraction(5, 2))))
    want = f2_of(f)
    # (1+2x)^2 / 3 > (1+x) / 3 from x = 1
    with pytest.raises(DomainError) as exc:
        _verify_doubling(Poly.basis(2, Fraction(1, 3)), Poly.basis(1, Fraction(1, 3)))
    assert str(exc.value) == "dominance check failed at x=1: f(2x) <= f2(x)"

    def no_fraction_values(self, x):
        raise AssertionError("Fraction grid used")

    monkeypatch.setattr(Poly, "__call__", no_fraction_values)
    assert f2_of(f) == want


_POLYS = st.lists(
    st.tuples(st.integers(0, 6), st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)),
    min_size=1,
    max_size=4,
).map(tuple)


@settings(max_examples=150, deadline=None)
@given(_POLYS)
def test_f2_of_poly_is_the_constructed_double(coeffs):
    p = Poly(coeffs)
    want = Poly(tuple((2 * m, c) for m, c in p.coeffs))
    got = f2_of(p)
    assert (got, hash(got), got.coeffs, got._den, got._nums) == (want, hash(want), want.coeffs, want._den, want._nums)


def _reference_normal_form(coeffs):
    """Poly's normal form written out: Fraction coefficients summed per
    exponent, zero terms dropped, sorted by exponent."""
    norm = {}
    for m, c in coeffs:
        if Fraction(c):
            norm[int(m)] = norm.get(int(m), Fraction(0)) + Fraction(c)
    return tuple(sorted(norm.items()))


_TERMS = st.lists(
    st.tuples(
        st.integers(0, 6),
        st.one_of(st.integers(0, 5), st.fractions(min_value=0, max_value=9, max_denominator=9), st.sampled_from([0.5, 2.0])),
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(_TERMS)
def test_poly_normal_form_and_numerators(terms):
    # unsorted, repeated and zero terms, int, float and Fraction coefficients
    want = _reference_normal_form(terms)
    if not want:
        with pytest.raises(DomainError, match="needs a positive term"):
            Poly(tuple(terms))
        return
    p = Poly(tuple(terms))
    assert p.coeffs == want and all(type(m) is int and type(c) is Fraction for m, c in p.coeffs)
    assert p == Poly(want) and hash(p) == hash(Poly(want))
    assert p._den == math.lcm(*(c.denominator for _, c in want))
    assert p._nums == tuple((m, int(c * p._den)) for m, c in want)


@given(st.integers(0, 30))
def test_f2_dominates_doubling(x):
    for f in (Poly(((1, 1), (2, Fraction(1, 2)))), Affine(2, 3), Exp(Fraction(5, 4))):
        f2 = f2_of(f)
        assert float(f(2 * x)) <= float(f2(x)) + 1e-9


def test_parser():
    assert parse_bounding_function("1") == Const(1)
    assert parse_bounding_function("(1+x)^2") == Poly.basis(2)
    assert parse_bounding_function("x") == IDENTITY
    assert parse_bounding_function("2^x") == Exp(2)
    f = parse_bounding_function("3*(1+x)^2 + 1")
    assert f(1) == 13


@pytest.mark.parametrize("text", ["(1+x)^y", "x+", "", "((1+x)^2", "(1+x)junk", "2^xy", "1/0", "x*3"])
def test_parser_rejects_malformed_text(text):
    with pytest.raises(ConfigError, match=re.escape(repr(text))):
        parse_bounding_function(text)


# -- supported vectors ---------------------------------------------------------


def test_seminorm_two_term_sum():
    vec = SupportedVector(F2, [((), 2), ((1,), 3)])
    assert vec.seminorm(Poly.basis(2)) == 2 * 1 + 3 * 4


def test_seminorm_const_is_l1():
    vec = SupportedVector(F2, [((), Fraction(-2, 3)), ((1, 2), Fraction(5, 7))])
    assert vec.seminorm(Const(1)) == Fraction(2, 3) + Fraction(5, 7) == vec.l1()


def test_seminorm_monotone_under_pointwise_domination():
    rng = random.Random(1)
    b3 = ball(F2, 3)
    f, g = Poly.basis(1), Poly.basis(2)
    for _ in range(30):
        vec = SupportedVector(F2)
        for _ in range(rng.randint(1, 6)):
            vec.add_term(b3.elements[rng.randrange(len(b3))], Fraction(rng.randint(-9, 9)))
        assert vec.seminorm(f) <= vec.seminorm(g)


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
        assert (u + v).seminorm(f) <= u.seminorm(f) + v.seminorm(f)
        c = Fraction(rng.randint(-5, 5))
        assert u.scale(c).seminorm(f) == abs(c) * u.seminorm(f)


def test_convolution_of_deltas():
    dg = SupportedVector.delta(F2, (1,))
    dh = SupportedVector.delta(F2, (2,))
    assert dg.convolve(dh) == SupportedVector.delta(F2, (1, 2))


def test_convolution_square_expansion():
    v = SupportedVector(F2, [((1,), 1), ((-1,), 1)])
    sq = v.convolve(v)
    expected = SupportedVector(F2, [((1, 1), 1), ((), 2), ((-1, -1), 1)])
    assert sq == expected


def _random_coefficient(rng, kind):
    """A nonzero rational, purely imaginary or complex coefficient."""
    c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
    if kind == "integer":
        return (Fraction(c.numerator), Fraction(0))
    if kind == "rational":
        return (c, Fraction(0))
    if kind == "imaginary":
        return (Fraction(0), c)
    return (c, Fraction(rng.randint(1, 9), rng.randint(1, 6)))


def _oracle_product(*vecs):
    """Nested-loop oracle for a product of vectors, one add_term per tuple."""
    model = vecs[0].model
    out = SupportedVector.delta(model, model.identity())
    for vec in vecs:
        nxt = SupportedVector(model)
        for g1, (a, b) in out.coeffs.items():
            for g2, (c, d) in vec.coeffs.items():
                nxt.add_term(model.multiply(g1, g2), (a * c - b * d, a * d + b * c))
        out = nxt
    return out


def test_convolution_associative_vs_nested_loop_oracle():
    rng = random.Random(4)
    b2 = ball(F2, 2)
    for kind in ["integer", "rational", "imaginary", "complex"] * 15:
        vecs = []
        for _ in range(3):
            vec = SupportedVector(F2)
            for _ in range(3):
                vec.add_term(b2.elements[rng.randrange(len(b2))], _random_coefficient(rng, kind))
            vecs.append(vec)
        a, b, c = vecs
        left = a.convolve(b).convolve(c)
        right = a.convolve(b.convolve(c))
        assert left == right == _oracle_product(a, b, c)
        assert all(re or im for re, im in left.coeffs.values())


def test_convolution_drops_cancelled_coefficients():
    # (e + a/2)(e - a/2) = e - a^2/4: the two products at a cancel
    u = SupportedVector(F2, [((), 1), ((1,), Fraction(1, 2))])
    v = SupportedVector(F2, [((), 1), ((1,), Fraction(-1, 2))])
    assert u.convolve(v).coeffs == {(): (1, 0), (1, 1): (Fraction(-1, 4), 0)}
    # (1 + i a)(1 + i a) = 1 - a^2 + 2i a; (i a)(i A) = -1 cancels the identity
    w = SupportedVector(F2, [((), 1), ((1,), 1j)])
    x = SupportedVector(F2, [((), 1), ((1,), 1j), ((-1,), 1j)])
    assert w.convolve(x).coeffs == {
        (1,): (0, 2),
        (-1,): (0, 1),
        (1, 1): (-1, 0),
    }
    assert u.convolve(SupportedVector(F2)).coeffs == {}


def test_convolution_bilinear():
    rng = random.Random(6)
    b2 = ball(F2, 2)
    u = SupportedVector(F2, [(b2.elements[3], Fraction(2)), (b2.elements[5], Fraction(-1))])
    v = SupportedVector(F2, [(b2.elements[1], Fraction(3))])
    w = SupportedVector(F2, [(b2.elements[2], Fraction(1, 2))])
    assert u.convolve(v + w) == u.convolve(v) + u.convolve(w)
    assert u.scale(Fraction(5)).convolve(v) == u.convolve(v).scale(Fraction(5))


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


def _abs_oracle(re, im):
    return abs(re) if im == 0 else abs(im) if re == 0 else math.sqrt(float(re * re + im * im))


@pytest.mark.parametrize("model,radius", [(F2, 3), (Z2, 3), (HEIS, 2)], ids=["F2", "Z2", "Heisenberg"])
def test_seminorm_and_l1_match_per_element_oracle(model, radius):
    rng = random.Random(7)
    b = ball(model, radius)
    fs = [Poly.basis(3), Poly(((0, Fraction(1, 3)), (2, Fraction(5, 2)))), IDENTITY, Exp(2), Const(Fraction(2, 7))]
    for trial in range(40):
        kinds = ["rational", "imaginary"] if trial % 4 else ["rational", "imaginary", "complex"]
        vec = SupportedVector(model)
        for _ in range(rng.randint(0, 7)):
            vec.add_term(b.elements[rng.randrange(len(b))], _random_coefficient(rng, rng.choice(kinds)))
        f = fs[trial % len(fs)]
        terms = [(_abs_oracle(*vec.coeffs[g]), exact_length(model, g)) for g in vec.coeffs]
        want_l1 = sum((c for c, _ in terms), Fraction(0))
        want = sum((c * f(length) for c, length in terms), Fraction(0))
        got_l1, got = vec.l1(), vec.seminorm(f)
        if isinstance(want, float):  # a complex coefficient: float moduli, summed in another order
            assert got == pytest.approx(want, rel=1e-12) and got_l1 == pytest.approx(want_l1, rel=1e-12)
        else:
            assert (type(got), got, type(got_l1), got_l1) == (Fraction, want, Fraction, want_l1)


def test_seminorm_with_tiny_float_coefficient_and_float_weight():
    # 1e-320 converts exactly, so the common denominator is 2^1074, past
    # the float range; the float weight must meet the reduced Fraction
    vec = SupportedVector(F2, [((1,), 1e-320)])
    got = vec.seminorm(Exp(2, Fraction(1, 2)))
    assert isinstance(got, float) and got == pytest.approx(1e-320 * 2**0.5, rel=1e-3)
    assert vec.l1() == Fraction(1e-320)


def test_float_sums_do_not_depend_on_insertion_order():
    rng = random.Random(11)
    b = ball(F2, 3)
    for _ in range(30):
        terms = [
            (b.elements[rng.randrange(len(b))], _random_coefficient(rng, rng.choice(["rational", "complex"])))
            for _ in range(8)
        ]
        forward, backward = SupportedVector(F2, terms), SupportedVector(F2, terms[::-1])
        assert forward == backward
        for f in (Poly.basis(2), Exp(2, Fraction(1, 2))):
            assert repr(forward.seminorm(f)) == repr(backward.seminorm(f))
        assert repr(forward.l1()) == repr(backward.l1())


def _per_length_weighted_sum(d, exact, inexact, f):
    """The per-length Fraction formula: Fraction(n, d) * f(k) per key."""
    total = sum((Fraction(n, d) * f(k) for k, n in sorted(exact.items())), Fraction(0))
    return total + sum(math.fsum(moduli) * f(k) for k, moduli in sorted(inexact.items()))


_MODULI = st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(
    _POLYS,
    st.integers(1, 60),
    st.dictionaries(st.integers(0, 12), st.integers(1, 10**6), max_size=6),
    st.dictionaries(st.integers(0, 12), _MODULI, max_size=4),
)
def test_poly_weighted_sum_equals_per_length_formula(coeffs, d, exact, inexact):
    # empty, exact-only, inexact-only and mixed parts, with _den >= 1
    f = Poly(coeffs)
    got, want = _weighted_sum(d, exact, inexact, f), _per_length_weighted_sum(d, exact, inexact, f)
    assert (type(got), repr(got)) == (type(want), repr(want))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(1, math.inf), (Fraction(1), math.nan)])
def test_non_finite_coefficients_are_domain_errors(value):
    with pytest.raises(DomainError, match="is not a finite number"):
        SupportedVector(F2, [((1,), value)])
    with pytest.raises(DomainError, match="is not a finite number"):
        SupportedVector.delta(F2, (1,)).scale(value)


def test_l1_reads_no_word_length():
    far = ((DEFAULT_RADIUS_CAP + 1, 0), (0,))  # base l1 past the cap: no exact length
    vec = SupportedVector(HEIS, [(far, Fraction(3, 2)), (HEIS.identity(), -1j)])
    with pytest.raises(LengthCapError):
        exact_length(HEIS, far)
    with pytest.raises(LengthCapError):
        vec.seminorm(Const(1))
    assert vec.l1() == Fraction(5, 2)


@pytest.mark.parametrize(
    "coeffs",
    [((0, Fraction(1, 3)), (2, Fraction(5, 2))), ((1, 7),), ((0, Fraction(2, 9)), (1, Fraction(3, 4)), (3, 6))],
)
def test_poly_matches_basis_formula(coeffs):
    f = Poly(coeffs)
    for x in [0, 1, 2, 7, Fraction(1, 2), Fraction(7, 3), Fraction(10, 4), 0.5, 3.25, 2.0]:
        want = sum(Fraction(c) * (1 + x) ** m for m, c in coeffs)
        got = f(x)
        assert type(got) is (float if isinstance(x, float) else Fraction)
        assert got == want


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


# Outputs of check_product_estimate (and the product a*b, |a|_1) on 37 vector
# pairs over F2, Z^2 and the Heisenberg group, and `rd check` reports,
# recorded before the integer kernels replaced per-term Fraction arithmetic.
# Pairs with complex coefficients (both parts nonzero) have float values,
# which may move in the last bits when moduli are summed per word length.
GOLDEN = json.loads((Path(__file__).parent / "golden_rd.json").read_text())
_MODELS = {"F2": F2, "Z2": Z2, "H": HEIS}


def _golden_vector(model, terms):
    return SupportedVector(model, [(model.parse_element(e), (Fraction(re), Fraction(im))) for e, re, im in terms])


@pytest.mark.parametrize("case", GOLDEN["estimates"], ids=[f"{i}-{c['group']}" for i, c in enumerate(GOLDEN["estimates"])])
def test_golden_product_estimates(case):
    model = _MODELS[case["group"]]
    a, b = _golden_vector(model, case["a"]), _golden_vector(model, case["b"])
    assert a.convolve(b).to_json() == case["product"]
    rep = check_product_estimate(a, b, parse_bounding_function(case["f"]))
    assert (rep.holds, rep.f2_description) == (case["holds"], case["f2"])
    values = (rep.lhs, rep.rhs, a.l1())
    want = (case["lhs"], case["rhs"], case["l1_a"])
    if any(isinstance(v, float) for v in values):
        assert [float(v) for v in values] == pytest.approx([float(w) for w in want], rel=1e-12)
    else:
        assert tuple(map(str, values)) == want


# Estimates, seminorms under f and f2, and l1 norms for Polys with non-integer
# coefficients (a list of [m, c]) and a parsed Sum weight, recorded as reprs
# before Poly-weighted seminorms became integer dot products: the type and
# every float bit must be unchanged.
@pytest.mark.parametrize("case", GOLDEN["weighted"], ids=[f"{i}-{c['group']}" for i, c in enumerate(GOLDEN["weighted"])])
def test_golden_weighted_seminorms(case):
    model = _MODELS[case["group"]]
    a, b = _golden_vector(model, case["a"]), _golden_vector(model, case["b"])
    if isinstance(case["f"], str):
        f = parse_bounding_function(case["f"])
    else:
        f = Poly(tuple((m, Fraction(c)) for m, c in case["f"]))
    f2 = f2_of(f)
    rep = check_product_estimate(a, b, f)
    values = {
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "a_f": a.seminorm(f),
        "b_f": b.seminorm(f),
        "a_f2": a.seminorm(f2),
        "b_f2": b.seminorm(f2),
        "ab_f": a.convolve(b).seminorm(f),
        "a_l1": a.l1(),
        "b_l1": b.l1(),
    }
    assert (rep.holds, rep.f2_description) == (case["holds"], case["f2"])
    assert {k: repr(v) for k, v in values.items()} == case["values"]


@pytest.mark.parametrize("case", GOLDEN["cli"], ids=[f"{i}" for i in range(len(GOLDEN["cli"]))])
def test_golden_rd_check_reports(capsys, case):
    code = run(case["argv"])
    assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"])


# Oracle for the single-pass estimate: the public operations it replaces.
_ORACLE_FS = [
    Poly.basis(0),
    Poly.basis(2),
    Poly(((0, Fraction(1, 3)), (3, Fraction(5, 2)))),
    Affine(Fraction(1, 2), 3),
    Exp(2, Fraction(1, 2)),  # float values at odd lengths
    Const(Fraction(2, 7)),
    Sum(((Fraction(1, 2), Poly.basis(1)), (1, Exp(Fraction(3, 2))))),
    Poly(((1, Fraction(3, 4)), (2, Fraction(2, 9)), (4, 7))),
    parse_bounding_function("3*(1+x)^2 + 1"),
]
_ORACLE_BALLS = {"F2": ball(F2, 2), "Z2": ball(Z2, 2), "H": ball(HEIS, 2)}
_SMALL = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)])


@st.composite
def _oracle_vector(draw, model_name):
    elements = _ORACLE_BALLS[model_name].elements
    terms = draw(st.lists(st.tuples(st.sampled_from(elements), st.tuples(_SMALL, _SMALL)), max_size=6))
    return SupportedVector(_MODELS[model_name], terms)


@st.composite
def _oracle_case(draw):
    name = draw(st.sampled_from(sorted(_ORACLE_BALLS)))
    a, b = draw(_oracle_vector(name)), draw(_oracle_vector(name))
    if draw(st.booleans()):  # (e + a)(e - a) = e - a^2: the terms of a cancel
        e = SupportedVector.delta(a.model, a.model.identity())
        a, b = e + a, e + a.scale(-1)
    return a, b, draw(st.sampled_from(_ORACLE_FS)), draw(st.integers(0, 5))


def _outcome(compute):
    try:
        values = compute()
    except DomainError as exc:
        return (type(exc), str(exc))
    return tuple((type(v), repr(v)) for v in values)


@settings(max_examples=300, deadline=None)
@given(_oracle_case())
def test_product_estimate_equals_public_operations(case):
    a, b, f, cap = case

    def oracle():
        f2 = f2_of(f)
        lhs = a.convolve(b).seminorm(f, cap)
        return lhs, a.l1() * b.seminorm(f2, cap) + a.seminorm(f2, cap) * b.l1()

    def estimate():
        rep = check_product_estimate(a, b, f, length_cap=cap)
        return rep.lhs, rep.rhs

    # exact values equal, floats bit-identical, the same error first
    assert _outcome(estimate) == _outcome(oracle)


def test_product_estimate_cancelled_and_empty_products():
    u = SupportedVector(F2, [((), 1), ((1,), Fraction(1, 2))])
    v = SupportedVector(F2, [((), 1), ((1,), Fraction(-1, 2))])
    rep = check_product_estimate(u, v, Poly.basis(1))
    assert rep.lhs == 1 + Fraction(1, 4) * 3  # e - a^2/4: the a terms cancel
    empty = check_product_estimate(u, SupportedVector(F2), Poly.basis(1))
    assert (empty.lhs, empty.rhs, empty.holds) == (0, 0, True)


def test_product_estimate_errors_as_public_operations():
    a = SupportedVector(F2, [((1,), 1)])
    with pytest.raises(DomainError, match="different models"):
        check_product_estimate(a, SupportedVector(Z2, [((1, 0), 1)]), Poly.basis(1))
    with pytest.raises(DomainError, match="different models"):
        a.convolve(SupportedVector(Z2, [((1, 0), 1)]))
    # the product f1 f1 has length 2 in the Heisenberg group; a and b length 1
    f1 = HEIS.parse_element("1,0|0")
    x = SupportedVector.delta(HEIS, f1)
    with pytest.raises(LengthCapError) as est:
        check_product_estimate(x, x, Poly.basis(1), length_cap=1)
    with pytest.raises(LengthCapError) as ref:
        x.convolve(x).seminorm(Poly.basis(1), 1)
    assert str(est.value) == str(ref.value)
    assert check_product_estimate(x, x, Poly.basis(1), length_cap=2).holds


@pytest.mark.parametrize("f", [Exp(10**200), Poly.basis(1, 10**400)])
def test_product_estimate_raises_b_overflow_before_a_length_cap(f):
    # b's f2 sum overflows the float range (a complex coefficient's modulus
    # times a huge exact weight), a's word is past the cap, and the product
    # a*b = 2 f1 is within it: the public operations raise b's error first
    a = SupportedVector(HEIS, [(HEIS.parse_element("2,0|0"), 1 - 1j)])
    b = SupportedVector(HEIS, [(HEIS.parse_element("-1,0|0"), 1 + 1j)])
    with pytest.raises(LengthCapError):
        a.seminorm(f2_of(f), 1)
    with pytest.raises(OverflowError) as ref:
        a.convolve(b).seminorm(f, 1)
        a.l1() * b.seminorm(f2_of(f), 1)
    with pytest.raises(OverflowError) as est:
        check_product_estimate(a, b, f, length_cap=1)
    assert str(est.value) == str(ref.value)
