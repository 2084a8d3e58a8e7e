"""Bound-formula evaluators against the high-precision oracle."""

from __future__ import annotations

from fractions import Fraction

import pytest

from ggtkit.bounds import (
    PresentationConstants,
    bcp_epsilon,
    n_tilde,
    parabolic_coset_bound,
    theorem_bound,
)
from ggtkit.errors import DegenerateDelta, DomainError
from ggtkit.rdalgebra import IDENTITY, Poly
from oracles import hyperbolic_conjugator_bound, neighborhood_n

# frozen from a 60-digit mpmath evaluation of the printed formulas
N_TILDE_1_1 = 15.676272865056628674
N_TILDE_1_2 = 30.852545730113257348
CHAIN_1_1 = {
    "K0": 17.676272865056628674,
    "K": 35.852545730113257348,
    "eps_prime": 12854.050353298623614,
    "C_prime": 51418.201413194494455,
    "D": 51420.201413194494455,
    "epsilon": 51420.201413194494455,
}


def mp_oracle_n_tilde(k, d):
    """Independent arbitrary-precision evaluation of the printed formula."""
    from mpmath import mp, mpf, log

    mp.dps = 50
    k = mpf(k.numerator) / k.denominator if isinstance(k, Fraction) else mpf(k)
    d = mpf(d.numerator) / d.denominator if isinstance(d, Fraction) else mpf(d)
    poly = 2 * k**3 + 6 * k**2 + 3 * k + 2
    t1 = d * log(poly) / log(2)
    t2 = d * log(t1) / log(2)
    return float((t1 + t2 + 1) * (k**2 + 1) + (2 * k**3 + 3 * k) / 2)


def test_n_tilde_frozen_values():
    assert n_tilde(1, 1) == pytest.approx(N_TILDE_1_1, abs=1e-9)
    assert n_tilde(1, 2) == pytest.approx(N_TILDE_1_2, abs=1e-9)
    # coarser hand-evaluated anchor
    assert n_tilde(1, 1) == pytest.approx(15.67629, abs=1e-4)


@pytest.mark.parametrize("k,d", [(1, 1), (1, 2), (2, 1), (3, Fraction(5, 2)), (8, 1)])
def test_n_tilde_matches_mpmath_oracle(k, d):
    assert n_tilde(k, d) == pytest.approx(mp_oracle_n_tilde(k, d), rel=1e-12)


def test_n_tilde_monotone_in_k():
    assert n_tilde(2, 1) > n_tilde(1, 1)


def test_n_tilde_rejects_degenerate_delta():
    with pytest.raises(DegenerateDelta, match=r"^n_tilde needs delta > 0$"):
        n_tilde(1, 0)
    with pytest.raises(DomainError):
        n_tilde(Fraction(1, 2), 1)


def test_neighborhood_frozen_value_and_additivity():
    assert neighborhood_n(1, 0, 1) == pytest.approx(N_TILDE_1_1 + 2, abs=1e-9)
    assert neighborhood_n(1, 0, 1) == pytest.approx(17.67629, abs=1e-4)
    assert neighborhood_n(1, 5, 1) - neighborhood_n(1, 0, 1) == pytest.approx(5)


def test_bcp_chain_frozen_values():
    chain = bcp_epsilon(1, PresentationConstants())
    for name, expect in CHAIN_1_1.items():
        assert getattr(chain, name) == pytest.approx(expect, abs=1e-4), name
    # exact structural relation D - C' = L M (k + 1)
    assert chain.D - chain.C_prime == pytest.approx(2.0, abs=1e-9)
    assert chain.epsilon >= chain.eps_prime
    assert chain.epsilon >= chain.D >= chain.C_prime


def test_bcp_chain_monotone_in_k():
    consts = PresentationConstants()
    values = [bcp_epsilon(k, consts).epsilon for k in (1, 2, 4, 8)]
    assert values == sorted(values)


def test_bcp_chain_pure():
    a = bcp_epsilon(3, PresentationConstants(delta=Fraction(3, 2)))
    b = bcp_epsilon(3, PresentationConstants(delta=Fraction(3, 2)))
    assert a == b


def test_hyperbolic_bound_examples():
    consts = PresentationConstants(K_h=2)
    assert hyperbolic_conjugator_bound(3, 3, consts) == 12
    assert hyperbolic_conjugator_bound(0, 0, consts) == 0
    # K_h = K_axis + 1 dominates the proof-chain expression K lu + lu + K lv
    for K_axis in (1, 2, 5):
        resolved = PresentationConstants(K_axis=K_axis)
        for lu in (0, 1, 3):
            for lv in (0, 2, 7):
                assert hyperbolic_conjugator_bound(lu, lv, resolved) >= K_axis * lu + lu + K_axis * lv


def test_parabolic_bound_examples():
    consts = PresentationConstants(M_ballcard=5, C_ds=2)
    assert parabolic_coset_bound(1, consts) == 9
    assert parabolic_coset_bound(0, consts) == 3  # C + 1
    # degree one: constant difference quotient
    d1 = parabolic_coset_bound(2, consts) - parabolic_coset_bound(1, consts)
    d2 = parabolic_coset_bound(7, consts) - parabolic_coset_bound(6, consts)
    assert d1 == d2 == 6


def test_theorem_bound_quoted_product():
    rep = theorem_bound(1, 1, PresentationConstants(K_h=1), IDENTITY, [])
    assert rep.case_hyperbolic == Fraction(328)  # (2*2 + 10*16) * 1 * 2


def test_theorem_bound_monotone_in_lu():
    consts = PresentationConstants()
    prev = None
    for lu in range(6):
        val = theorem_bound(lu, 2, consts, Poly.basis(1), [Poly.basis(2)]).overall
        if prev is not None:
            assert val >= prev
        prev = val


def test_theorem_bound_q_dominates():
    big_q = Poly(((2, Fraction(10**6)),))
    rep = theorem_bound(1, 1, PresentationConstants(), IDENTITY, [big_q])
    assert rep.overall == rep.case_subgroup == big_q(Fraction(2))


def test_theorem_bound_dominates_relative_factor():
    consts = PresentationConstants()
    for lu in (1, 2, 5):
        for lv in (1, 3):
            rep = theorem_bound(lu, lv, consts, Poly.basis(1), [])
            assert rep.overall >= hyperbolic_conjugator_bound(lu, lv, consts)


def test_evaluators_monotone_property():
    import random

    rng = random.Random(5)
    consts = PresentationConstants(M_ballcard=3, C_ds=2)
    for _ in range(50):
        lu = Fraction(rng.randint(0, 40), rng.randint(1, 4))
        lv = Fraction(rng.randint(0, 40), rng.randint(1, 4))
        du = Fraction(rng.randint(0, 9), 2)
        assert hyperbolic_conjugator_bound(lu + du, lv, consts) >= hyperbolic_conjugator_bound(lu, lv, consts)
        assert parabolic_coset_bound(lu + du, consts) >= parabolic_coset_bound(lu, consts)


def test_constants_validation():
    with pytest.raises(DomainError):
        PresentationConstants(delta=-1)
    with pytest.raises(DomainError):
        PresentationConstants(L_pres=0)
    assert PresentationConstants().resolved_K_h() == 2  # K_axis + 1
    assert PresentationConstants(K_h=7).resolved_K_h() == 7
