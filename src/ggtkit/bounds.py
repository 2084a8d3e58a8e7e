"""Closed-form evaluators for the explicit conjugator-length bound formulas.

The quasi-geodesic stability constant involves base-2 logarithms, so those
evaluators are floating point (relative error well under 1e-9); the purely
arithmetic bounds stay in exact rationals.  Presentation-level constants
that no formula pins down are config inputs, default 1, and every report
echoes the constants it used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import DegenerateDelta, DomainError
from .rdalgebra import BoundingFunction, Poly

Number = Union[int, Fraction, float]


@dataclass(frozen=True)
class PresentationConstants:
    """Constants of a fixed finite relative presentation.

    delta: hyperbolicity constant of the coned-off graph.
    L_pres, M_pres: presentation constants of the coset-penetration chain.
    C_ds: distortion constant of the coset-projection lemma.
    M_ballcard: cardinality of the radius-C_ds ball.
    K_axis: axis-approach constant for hyperbolic isometries.
    K_h: per-pair conjugator constant; defaults to K_axis + 1, which the
        proof chain shows suffices.
    d_trans: lower bound for translation lengths of hyperbolic elements.
    """

    delta: Fraction = Fraction(1)
    L_pres: Fraction = Fraction(1)
    M_pres: Fraction = Fraction(1)
    C_ds: Fraction = Fraction(1)
    M_ballcard: Fraction = Fraction(1)
    K_axis: Fraction = Fraction(1)
    K_h: Optional[Fraction] = None
    d_trans: Fraction = Fraction(1)

    def __post_init__(self):
        for name in ("delta", "L_pres", "M_pres", "C_ds", "M_ballcard", "K_axis", "d_trans"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.K_h is not None:
            object.__setattr__(self, "K_h", Fraction(self.K_h))
        if self.delta < 0:
            raise DomainError("delta must be >= 0")
        for name in ("L_pres", "M_pres", "C_ds", "M_ballcard", "K_axis", "d_trans"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")
        if self.K_h is not None and self.K_h <= 0:
            raise DomainError("K_h must be positive")

    def resolved_K_h(self) -> Fraction:
        return self.K_h if self.K_h is not None else self.K_axis + 1

    def as_dict(self) -> dict:
        return {
            "delta": str(self.delta),
            "L_pres": str(self.L_pres),
            "M_pres": str(self.M_pres),
            "C_ds": str(self.C_ds),
            "M_ballcard": str(self.M_ballcard),
            "K_axis": str(self.K_axis),
            "K_h": str(self.resolved_K_h()),
            "d_trans": str(self.d_trans),
        }


def n_tilde(k: Number, delta: Number) -> float:
    """Neighborhood radius within which a k-quasi-geodesic tracks geodesics:

        (d log2(2k^3+6k^2+3k+2) + d log2[d log2(2k^3+6k^2+3k+2)] + 1)(k^2+1)
            + (2k^3+3k)/2

    Undefined at delta = 0 (the inner logarithm).
    """
    k = float(k)
    d = float(delta)
    if k < 1:
        raise DomainError("quasi-geodesic constant k must be >= 1")
    if d <= 0:
        raise DegenerateDelta("n_tilde needs delta > 0")
    poly = 2 * k**3 + 6 * k**2 + 3 * k + 2
    t1 = d * math.log2(poly)
    t2 = d * math.log2(t1)
    return (t1 + t2 + 1) * (k**2 + 1) + (2 * k**3 + 3 * k) / 2


CORRIDOR_NOTE = (
    "neighborhood constant uses R + 2*delta; the direct quadrilateral "
    "argument gives R + 4*delta; both values are reported"
)


@dataclass(frozen=True)
class BcpChain:
    """Full intermediate chain of the coset-penetration constant."""

    k: float
    delta: float
    n_tilde: float
    K0: float
    K: float
    eps_prime: float
    C_prime: float
    D: float
    epsilon: float
    N_alt_4delta: float
    constants: dict = field(default_factory=dict)
    note: str = CORRIDOR_NOTE

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "delta": self.delta,
            "n_tilde": self.n_tilde,
            "N": self.K0,
            "K0": self.K0,
            "K": self.K,
            "eps_prime": self.eps_prime,
            "C_prime": self.C_prime,
            "D": self.D,
            "epsilon": self.epsilon,
            "N_alt_4delta": self.N_alt_4delta,
            "note": self.note,
            "constants": dict(self.constants),
        }


def bcp_epsilon(k: Number, consts: PresentationConstants) -> BcpChain:
    """Coset-penetration constant eps(k) = max(eps'(k), C'(k), D(k)) with

        K0 = N(k, 0),  K = N(k, K0) + 1/2,  eps' = 2 K^2 L M (4k+1),
        C' = L M (1 + k (2 eps' + 1) + 2 eps'),  D = C' + L M (k + 1).
    """
    kf = float(k)
    d = float(consts.delta)
    L = float(consts.L_pres)
    M = float(consts.M_pres)
    nt = n_tilde(k, consts.delta)
    K0 = nt + 2 * d
    K = nt + K0 + 2 * d + 0.5
    eps_prime = 2 * K * K * L * M * (4 * kf + 1)
    C_prime = L * M * (1 + kf * (2 * eps_prime + 1) + 2 * eps_prime)
    D = L * M * (1 + kf * (2 * eps_prime + 1) + 2 * eps_prime + kf + 1)
    eps = max(eps_prime, C_prime, D)
    return BcpChain(
        k=kf,
        delta=d,
        n_tilde=nt,
        K0=K0,
        K=K,
        eps_prime=eps_prime,
        C_prime=C_prime,
        D=D,
        epsilon=eps,
        N_alt_4delta=nt + 4 * d,
        constants=consts.as_dict(),
    )


def parabolic_coset_bound(lu: Number, consts: PresentationConstants) -> Fraction:
    """Relative-length bound (M + 1) lu + C + 1 for a conjugator taking a
    parabolic element of length lu into its peripheral subgroup."""
    lu = Fraction(lu)
    if lu < 0:
        raise DomainError("length must be >= 0")
    return (consts.M_ballcard + 1) * lu + consts.C_ds + 1


@dataclass(frozen=True)
class TheoremBoundReport:
    """Per-case conjugator-length bounds and their maximum."""

    lu: Number
    lv: Number
    case_subgroup: Number
    case_hyperbolic: Number
    case_parabolic_pair: Number
    overall: Number
    constants: dict

    def as_dict(self) -> dict:
        return {
            "lu": _num(self.lu),
            "lv": _num(self.lv),
            "case_subgroup": _num(self.case_subgroup),
            "case_hyperbolic": _num(self.case_hyperbolic),
            "case_parabolic_pair": _num(self.case_parabolic_pair),
            "overall": _num(self.overall),
            "constants": dict(self.constants),
        }


def _num(x):
    return str(x) if isinstance(x, Fraction) else float(x)


def theorem_bound(
    lu: Number,
    lv: Number,
    consts: PresentationConstants,
    c_of_k: BoundingFunction,
    subgroup_bounds: Sequence[Poly] = (),
) -> TheoremBoundReport:
    """Composite conjugator-length bound, by element type.

    - both elements in one peripheral subgroup: Q(lu + lv) with Q the sum of
      the per-subgroup polynomial bounds;
    - hyperbolic pair: (2 L + 10 c(8 L)) * K_h * L  with L = lu + lv, the
      per-coset travel bound times the relative conjugator length;
    - parabolic pair: conjugate each element to a common subgroup element of
      length c(7 L) and compose the two single-parabolic bounds, each the
      per-coset travel bound times the parabolic coset bound.
    """
    lu, lv = Fraction(lu), Fraction(lv)
    if lu < 0 or lv < 0:
        raise DomainError("lengths must be >= 0")
    L = lu + lv
    q_total = sum((q(L) for q in subgroup_bounds), Fraction(0))

    def travel(length):
        return 2 * length + 10 * c_of_k(8 * length)

    hyper = travel(L) * consts.resolved_K_h() * L
    lh = c_of_k(7 * L)
    parab = travel(lu + lh) * parabolic_coset_bound(lu, consts) + travel(
        lv + lh
    ) * parabolic_coset_bound(lv, consts)
    overall = max(q_total, hyper, parab)
    return TheoremBoundReport(
        lu=lu,
        lv=lv,
        case_subgroup=q_total,
        case_hyperbolic=hyper,
        case_parabolic_pair=parab,
        overall=overall,
        constants=consts.as_dict(),
    )
