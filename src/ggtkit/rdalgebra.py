"""Bounding-function classes and weighted l1 seminorms on finitely
supported group-algebra elements.

A bounding function is a symbolic nondecreasing function R+ -> R+ built
from constants, affine pieces, polynomials over the (1+x)^m basis, and
exponentials, and positive rational combinations of these.
Nondecreasingness is guaranteed structurally (all weights and
coefficients are nonnegative), and so is the doubling bound f(2x) <=
f2(x) of ``f2_of``: both are proved by the constructions, not checked at
run time.  Given both, the estimate |a*b|_f <= |a|_1 |b|_f2 + |a|_f2 |b|_1
(Jolissaint) holds for all a, b, so a failure reported by
``check_product_estimate`` is a fault of the implementation or of its
float tolerance, not a property of the group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ConfigError, DomainError
from .groups import Element, GroupModel

Number = Union[int, Fraction, float]


def _check_nonneg(x) -> None:
    if x < 0:
        raise DomainError("bounding functions are only defined on x >= 0")


class BoundingFunction:
    """Base class; subclasses are immutable value objects."""

    def __call__(self, x: Number) -> Number:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<{self.describe()}>"


@dataclass(frozen=True)
class Const(BoundingFunction):
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))
        if self.value <= 0:
            raise DomainError("constant bounding functions must be positive")

    def __call__(self, x):
        _check_nonneg(x)
        return self.value

    def describe(self):
        return str(self.value)


@dataclass(frozen=True)
class Affine(BoundingFunction):
    """a + b*x with a, b >= 0 rational (the class Lin when b > 0)."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.a < 0 or self.b < 0 or (self.a == 0 and self.b == 0):
            raise DomainError("affine bounding functions need a, b >= 0, not both zero")

    def __call__(self, x):
        _check_nonneg(x)
        return self.a + self.b * x

    def describe(self):
        return f"{self.a} + {self.b}*x"


@dataclass(frozen=True)
class Poly(BoundingFunction):
    """Positive rational combination of (1+x)^m basis functions."""

    coeffs: tuple  # sorted tuple of (m, coefficient)

    def __post_init__(self):
        norm = {}
        for m, c in self.coeffs:
            if type(c) is not Fraction:
                c = Fraction(c)
            if m < 0 or int(m) != m:
                raise DomainError("basis exponents must be nonnegative integers")
            if c.numerator < 0:
                raise DomainError("basis coefficients must be nonnegative")
            if c:
                m = int(m)
                norm[m] = norm[m] + c if m in norm else c
        if not norm:
            raise DomainError("a polynomial bounding function needs a positive term")
        coeffs = tuple(sorted(norm.items()))
        object.__setattr__(self, "coeffs", coeffs)
        # the coefficients as integers over their common denominator
        den = math.lcm(*(c.denominator for _, c in coeffs))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_nums", tuple((m, c.numerator * (den // c.denominator)) for m, c in coeffs))

    @staticmethod
    def basis(m: int, coefficient=1) -> "Poly":
        return Poly(((m, Fraction(coefficient)),))

    def __call__(self, x):
        """At an int or Fraction x = p/q, one exact Fraction: the sum of
        k_m (q+p)^m q^(M-m) over den q^M, where k_m / den are the
        coefficients over their common denominator and M is the degree."""
        _check_nonneg(x)
        if isinstance(x, (int, Fraction)):
            p, q = x.numerator, x.denominator
            return Fraction(self._numerator_at(p, q), self._den * q ** self.degree())
        return sum(c * (1 + x) ** m for m, c in self.coeffs)

    def _numerator_at(self, p: int, q: int) -> int:
        """The integer numerator of self(p/q) over den q^M; at an integer x
        = p (q = 1) it is self(x) * den, with no power of q taken."""
        total = 0
        if q == 1:
            for m, k in self._nums:
                total += k * (1 + p) ** m
            return total
        top = self.coeffs[-1][0]
        for m, k in self._nums:
            total += k * (q + p) ** m * q ** (top - m)
        return total

    def degree(self) -> int:
        return self.coeffs[-1][0]

    def describe(self):
        parts = []
        for m, c in self.coeffs:
            if m == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"(1+x)^{m}")
            else:
                parts.append(f"{c}*(1+x)^{m}")
        return " + ".join(parts)


@dataclass(frozen=True)
class Exp(BoundingFunction):
    """base^(scale*x) with rational base >= 1 and rational scale > 0."""

    base: Fraction
    scale: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "base", Fraction(self.base))
        object.__setattr__(self, "scale", Fraction(self.scale))
        if self.base < 1:
            raise DomainError("exponential base must be >= 1")
        if self.scale <= 0:
            raise DomainError("exponential scale must be positive")

    def __call__(self, x):
        _check_nonneg(x)
        e = self.scale * Fraction(x) if not isinstance(x, float) else None
        if e is not None and e.denominator == 1:
            return self.base ** int(e)
        return float(self.base) ** float(self.scale * x)

    def describe(self):
        inner = "x" if self.scale == 1 else f"{self.scale}*x"
        return f"{self.base}^({inner})"


@dataclass(frozen=True)
class Sum(BoundingFunction):
    """Positive rational linear combination of bounding functions."""

    terms: tuple  # tuple of (weight, BoundingFunction)

    def __post_init__(self):
        terms = tuple((Fraction(w), f) for w, f in self.terms)
        if not terms or any(w <= 0 for w, _ in terms):
            raise DomainError("sum terms need positive weights")
        object.__setattr__(self, "terms", terms)

    def __call__(self, x):
        return sum(w * f(x) for w, f in self.terms)

    def describe(self):
        return " + ".join(
            f.describe() if w == 1 else f"{w}*({f.describe()})" for w, f in self.terms
        )


IDENTITY = Affine(0, 1)


# ---------------------------------------------------------------------------
# structural operations


def f2_of(f: BoundingFunction) -> BoundingFunction:
    """A class member f2 with f(2x) <= f2(x) for all x >= 0, built by a
    rule per class that proves it, so no value is evaluated here:

    - a constant is unchanged, and a + b*x becomes a + 2b*x: equality;
    - (1+x)^m becomes (1+x)^(2m), since 1+2x <= (1+x)^2 for x >= 0; a
      Poly's f2 is sum c_m (1+x)^(2m) over the same common denominator;
    - base^(s*x) becomes base^(2s*x), which is base^(s*2x): equality;
    - a Sum doubles term by term, its weights being positive.

    As f is nondecreasing (see the module docstring), f(y) <= f2(x) also
    holds for every 0 <= y <= 2x.
    """
    if isinstance(f, Const):
        return f
    if isinstance(f, Affine):
        return Affine(f.a, 2 * f.b)
    if isinstance(f, Poly):
        return Poly(tuple((2 * m, c) for m, c in f.coeffs))
    if isinstance(f, Exp):
        return Exp(f.base, 2 * f.scale)
    if isinstance(f, Sum):
        return Sum(tuple((w, f2_of(g)) for w, g in f.terms))
    raise DomainError(f"no doubling rule for {type(f).__name__}")


def parse_bounding_function(text: str) -> BoundingFunction:
    """Parse simple expressions: '1', '5/2', 'x', '(1+x)^3', '2^x', sums
    like '3*(1+x)^2 + 1'.

    Text that is not such an expression raises ConfigError naming it; a
    well-formed value outside the domain (a constant <= 0, a negative
    exponent, a base below 1) raises DomainError."""
    text = text.strip()
    terms = [t.strip() for t in text.split("+")]
    # re-join splits inside '(1+x)' parentheses
    merged: list[str] = []
    depth = 0
    for t in terms:
        if depth > 0:
            merged[-1] += "+" + t
        else:
            merged.append(t)
        depth += t.count("(") - t.count(")")
    parsed = []
    try:
        for term in merged:
            term = term.strip()
            weight = Fraction(1)
            if "*" in term:
                w, term = term.split("*", 1)
                weight = Fraction(w.strip())
                term = term.strip()
            if term == "x":
                parsed.append((weight, IDENTITY))
            elif term.startswith("(1+x)"):
                power = term[len("(1+x)"):].strip()
                if power and not power.startswith("^"):
                    raise ValueError(power)
                parsed.append((weight, Poly.basis(int(power[1:]) if power else 1)))
            elif term.endswith("^x"):
                parsed.append((weight, Exp(Fraction(term[:-2]))))
            else:
                parsed.append((weight, Const(Fraction(term))))
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"malformed bounding function {text!r}") from None
    if len(parsed) == 1 and parsed[0][0] == 1:
        return parsed[0][1]
    return Sum(tuple(parsed))


# ---------------------------------------------------------------------------
# finitely supported vectors and seminorms


def _to_pair(value):
    try:
        if isinstance(value, tuple):
            return (Fraction(value[0]), Fraction(value[1]))
        if isinstance(value, complex):
            return (Fraction(value.real), Fraction(value.imag))
        return (Fraction(value), Fraction(0))
    except (ValueError, OverflowError):  # nan, +-inf, or not a number
        raise DomainError(f"coefficient {value!r} is not a finite number") from None


class SupportedVector:
    """Finitely supported function from group elements to C.

    Coefficients are pairs (re, im) of rationals; python ints, Fractions,
    floats and complex numbers are converted exactly.  Zero coefficients
    are never stored.
    """

    def __init__(self, model: GroupModel, terms=None):
        self.model = model
        self.coeffs: dict = {}
        if terms:
            for elem, value in terms:
                self.add_term(elem, value)

    @staticmethod
    def delta(model: GroupModel, elem: Element, coefficient=1):
        return SupportedVector(model, [(elem, coefficient)])

    def add_term(self, elem: Element, value) -> None:
        self.model.validate_element(elem)
        re, im = _to_pair(value)
        old = self.coeffs.get(elem)
        if old is not None:
            re, im = old[0] + re, old[1] + im
        if re or im:
            self.coeffs[elem] = (re, im)
        else:
            self.coeffs.pop(elem, None)

    def items_sorted(self):
        return sorted(self.coeffs.items(), key=lambda kv: self.model.element_str(kv[0]))

    def __eq__(self, other):
        return (
            isinstance(other, SupportedVector)
            and other.model == self.model
            and self.coeffs == other.coeffs
        )

    def __add__(self, other):
        if other.model != self.model:
            raise DomainError("vectors live over different models")
        out = SupportedVector(self.model)
        for src in (self, other):
            for elem, val in src.coeffs.items():
                out.add_term(elem, val)
        return out

    def scale(self, c):
        out = SupportedVector(self.model)
        cr, ci = _to_pair(c)
        for elem, (a, b) in self.coeffs.items():
            out.add_term(elem, (a * cr - b * ci, a * ci + b * cr))
        return out

    def _numerators(self) -> tuple:
        """(d, [(elem, (re*d, im*d))]): the coefficients as integer pairs over
        d, the lcm of their denominators."""
        d = 1
        for re, im in self.coeffs.values():
            # pairwise, not lcm(*...): an argument tuple of each support size
            # would be left in CPython's tuple free lists, raising peak RSS
            d = math.lcm(d, re.denominator, im.denominator)
        return d, [
            (elem, (re.numerator * (d // re.denominator), im.numerator * (d // im.denominator)))
            for elem, (re, im) in self.coeffs.items()
        ]

    def convolve(self, other: "SupportedVector") -> "SupportedVector":
        """Group-algebra product: coefficient of g is the sum of a(g1) b(g2)
        over factorizations g1 g2 = g.

        Integer kernel (``_product_sums``): with each vector's coefficients
        written as integer numerators over its common denominator (d_a,
        d_b), the products are summed over Z per g1 g2, and each nonzero sum
        becomes one Fraction over d_a d_b.  Sums that cancel to 0 are not
        stored.  The product elements are not validated again: the model's
        multiply maps two valid elements to a normal form."""
        if other.model != self.model:
            raise DomainError("vectors live over different models")
        den, sums = _product_sums(self.model, self._numerators(), other._numerators())
        out = SupportedVector(self.model)
        for g, (re, im) in sums:
            out.coeffs[g] = (Fraction(re, den), Fraction(im, den))
        return out

    def to_json(self) -> list:
        """JSON form: a list of {element, re, im} with normal-form element
        strings and rational coefficient strings."""
        return [
            {"element": self.model.element_str(elem), "re": str(re), "im": str(im)}
            for elem, (re, im) in self.items_sorted()
        ]

    @staticmethod
    def from_json(model: GroupModel, data) -> "SupportedVector":
        vec = SupportedVector(model)
        for term in data:
            elem = model.parse_element(term["element"])
            vec.add_term(elem, (Fraction(term["re"]), Fraction(term["im"])))
        return vec

    def seminorm(self, f: BoundingFunction):
        """Weighted l1 seminorm: sum |coeff(g)| * f(L(g)) over the support.

        The sum is taken as sum_L f(L) * (sum of |coeff(g)| with L(g) = L):
        integer numerators are summed per word length over the common
        denominator, and f is evaluated once per distinct length.  The
        result is exact unless a coefficient has both parts nonzero, or f
        returns a float."""
        d, nums = self._numerators()
        return _weighted_sum(d, *_abs_sums(d, nums, self.model.word_length), f)

    def l1(self):
        """sum |coeff(g)| over the support, by the kernel of ``seminorm``
        with one key, so no word length is read."""
        d, nums = self._numerators()
        return _total_abs(d, *_abs_sums(d, nums, lambda elem: 0))


def _product_sums(model: GroupModel, a: tuple, b: tuple) -> tuple:
    """The product of two vectors given as (d, nums) by ``_numerators``, as
    (d_a d_b, [(g, (re, im))]): the products of integer numerators summed
    over Z per g = g1 g2, and kept when nonzero."""
    da, xs = a
    db, ys = b
    sums: dict = {}
    for g1, (p, q) in xs:
        for g2, (r, s) in ys:
            g = model.multiply(g1, g2)
            re, im = sums.get(g, (0, 0))
            sums[g] = (re + p * r - q * s, im + p * s + q * r)
    return da * db, [(g, pair) for g, pair in sums.items() if pair[0] or pair[1]]


def _abs_sums(d: int, nums: list, key) -> tuple:
    """One pass over integer numerators over d: (exact, inexact), where
    exact[k] sums |numerator| over the real or imaginary coefficients with
    key(g) = k, and inexact[k] lists the float moduli of those with both
    parts nonzero, each sqrt((re^2 + im^2) / d^2), the same float as the
    modulus computed from the coefficient itself."""
    exact: dict = {}
    inexact: dict = {}
    for elem, (re, im) in nums:
        k = key(elem)
        if re and im:
            inexact.setdefault(k, []).append(math.sqrt(float(Fraction(re * re + im * im, d * d))))
        else:
            exact[k] = exact.get(k, 0) + abs(re or im)
    return exact, inexact


def _weighted_sum(d: int, exact: dict, inexact: dict, f):
    """sum_k f(k) * (the |coefficients| with key k) from ``_abs_sums``.

    For a Poly f the exact part is one integer dot product, sum_k n_k times
    f's integer numerator at k (``Poly._numerator_at``), over d * f._den:
    one Fraction.  For other weights each integer sum n becomes
    Fraction(n, d) * f(k) once, in sorted key order.  Each list of moduli
    adds math.fsum(moduli) * f(k), in sorted key order, so the result
    depends only on the vector's value."""
    if isinstance(f, Poly):
        at = f._numerator_at
        total = Fraction(sum(n * at(k, 1) for k, n in exact.items()), d * f._den)
    else:
        total = sum((Fraction(n, d) * f(k) for k, n in sorted(exact.items())), Fraction(0))
    if inexact:
        total += sum(math.fsum(moduli) * f(k) for k, moduli in sorted(inexact.items()))
    return total


def _total_abs(d: int, exact: dict, inexact: dict):
    """sum |coeff(g)| from ``_abs_sums`` under any key: the value of
    ``_weighted_sum`` with one key and weight 1 (``math.fsum`` is correctly
    rounded, so it does not depend on how the moduli are grouped)."""
    total = Fraction(sum(exact.values()), d)
    if inexact:
        total += math.fsum(x for moduli in inexact.values() for x in moduli)
    return total


@dataclass(frozen=True)
class ProductEstimateReport:
    lhs: Number
    rhs: Number
    holds: bool
    f2_description: str


def check_product_estimate(
    a: SupportedVector,
    b: SupportedVector,
    f: BoundingFunction,
) -> ProductEstimateReport:
    """Executable submultiplicativity estimate for the weighted seminorms:

        |a * b|_f  <=  |a|_1 |b|_f2 + |a|_f2 |b|_1

    with f2 the constructive doubling bound of f.

    One integer pass: a and b are written over their common denominators
    d_a, d_b once; the lhs is read from the product's integer sums
    (``_product_sums``), with no product vector built; each of a and b is
    split by word length once, which gives both its |.|_1 and its |.|_f2;
    for a Poly f each |.|_f2 is one integer dot product (``_weighted_sum``).
    The values equal those of ``convolve``, ``seminorm`` and ``l1``, and
    errors come in their order: f2_of, the model check, the product's
    lengths, then b's lengths and |b|_f2, then a's."""
    f2 = f2_of(f)
    if b.model != a.model:
        raise DomainError("vectors live over different models")
    model = a.model
    length = model.word_length
    (da, na), (db, nb) = a._numerators(), b._numerators()
    den, product = _product_sums(model, (da, na), (db, nb))
    lhs = _weighted_sum(den, *_abs_sums(den, product, length), f)
    sums_b = _abs_sums(db, nb, length)
    b_f2 = _weighted_sum(db, *sums_b, f2)
    sums_a = _abs_sums(da, na, length)
    rhs = _total_abs(da, *sums_a) * b_f2 + _weighted_sum(da, *sums_a, f2) * _total_abs(db, *sums_b)
    if isinstance(lhs, float) or isinstance(rhs, float):
        holds = float(lhs) <= float(rhs) * (1 + 1e-9) + 1e-9
    else:
        holds = lhs <= rhs
    return ProductEstimateReport(lhs, rhs, holds, f2.describe())
