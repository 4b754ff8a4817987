"""Catalogued Euclidean base rings and their exact element arithmetic.

Two rings are supported: the integers and the univariate polynomial ring
over the rationals.  Integer elements are plain Python ``int`` (arbitrary
precision); polynomial elements are :class:`QPoly` values, one integer
numerator polynomial over one positive integer denominator, so their
arithmetic builds no ``Fraction``.  Every matrix carries exactly one ring
tag and mixed-ring arithmetic is rejected at the call site.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Union


class RingSpec(enum.Enum):
    INTEGERS = "Integers"
    RATIONAL_POLYNOMIALS = "RationalPolynomials"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class QPoly:
    """A univariate polynomial with exact rational coefficients.

    Stored as ``sum(num[i] * x**i) / den``: a tuple of integer numerators,
    low degree first, over one integer denominator.  The form is canonical,
    so equal polynomials have equal fields: ``den > 0``, no trailing zero in
    ``num``, ``gcd(den, *num) == 1``, and zero is ``((), 1)``.  Arithmetic
    stays on integers.  ``QPoly.dot`` (sum of products) and ``add_mul``
    (x + c * y) bring a whole sum to canonical form once, with no partial
    products or sums.  Division by a constant is exact; by anything else it
    is pseudo-division of the numerators (Knuth, TAOCP vol. 2, 4.6.1,
    Algorithm R).  ``coeffs`` gives the coefficients as ``Fraction`` values.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs=()):
        cs = [c if type(c) is int else Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        p = _canonical([c.numerator * (den // c.denominator) for c in cs], den)
        self.num, self.den = p.num, p.den

    @classmethod
    def const(cls, c) -> "QPoly":
        return cls((c,))

    @classmethod
    def x(cls) -> "QPoly":
        return _canonical([0, 1], 1)

    @property
    def coeffs(self) -> tuple:
        """The coefficients as ``Fraction`` values, low degree first."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    @property
    def degree(self) -> int:
        """Degree, with the convention deg(0) = -1."""
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def lead(self) -> Fraction:
        if not self.num:
            raise ZeroDivisionError("zero polynomial has no leading coefficient")
        return Fraction(self.num[-1], self.den)

    def _combine(self, other: "QPoly", sign: int) -> "QPoly":
        """self + sign * other over the least common denominator."""
        den = lcm(self.den, other.den)
        ma, mb = den // self.den, sign * (den // other.den)
        return _canonical([a * ma + b * mb for a, b in
                           zip_longest(self.num, other.num, fillvalue=0)], den)

    def __add__(self, other: "QPoly") -> "QPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self._combine(other, -1)

    def __neg__(self) -> "QPoly":
        # negation keeps den > 0, the last numerator nonzero and the gcd
        p = object.__new__(QPoly)
        p.num, p.den = tuple(-c for c in self.num), self.den
        return p

    def __mul__(self, other: "QPoly") -> "QPoly":
        a, b = self.num, other.num
        if not a or not b:
            return _canonical([], 1)
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                for j, e in enumerate(b):
                    out[i + j] += c * e
        return _canonical(out, self.den * other.den)

    @staticmethod
    def dot(xs, ys) -> "QPoly":
        """sum(x * y for x, y in zip(xs, ys)) over one common denominator."""
        out, den = [], 1
        for x, y in zip(xs, ys):
            a, b = x.num, y.num
            if not a or not b:
                continue
            d, s = x.den * y.den, 1
            if d != den:
                new = lcm(den, d)
                if new != den:
                    out = [t * (new // den) for t in out]
                    den = new
                s = den // d
            out += [0] * (len(a) + len(b) - 1 - len(out))
            for i, c in enumerate(a):
                if c:
                    c *= s
                    for j, e in enumerate(b, i):
                        out[j] += c * e
        return _canonical(out, den)

    def add_mul(self, c: "QPoly", y: "QPoly") -> "QPoly":
        """self + c * y over one common denominator."""
        if not c.num or not y.num:
            return self
        cy = c.den * y.den
        den = lcm(self.den, cy)
        s, b = den // cy, y.num
        out = [t * (den // self.den) for t in self.num]
        out += [0] * (len(c.num) + len(b) - 1 - len(out))
        for i, e in enumerate(c.num):
            if e:
                e *= s
                for j, f in enumerate(b, i):
                    out[j] += e * f
        return _canonical(out, den)

    def divmod(self, other: "QPoly") -> tuple["QPoly", "QPoly"]:
        """Euclidean division; remainder has degree < deg(other).

        Pseudo-division of the numerators gives lc**e * a = q * b + r, with
        lc the leading numerator of b and e the number of nonzero steps;
        then self = (q * other.den / (lc**e * self.den)) * other
        + r / (lc**e * self.den).  A constant b0 / den_b divides exactly:
        the quotient is num * den_b / (den * b0) and the remainder zero.
        """
        b = other.num
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        if len(b) == 1:
            return (_canonical([t * other.den for t in self.num], self.den * b[0]),
                    _canonical([], 1))
        r = list(self.num)
        d = len(b) - 1
        if len(r) <= d:
            return _canonical([], 1), self
        lc, low = b[-1], b[:-1]
        q = [0] * (len(r) - d)
        e = 0
        for k in range(len(q) - 1, -1, -1):
            c = r.pop()
            if not c:
                continue
            e += 1
            if lc != 1:
                r = [lc * t for t in r]
                q = [lc * t for t in q]
            q[k] = c
            for i, t in enumerate(low):
                r[k + i] -= c * t
        scale = lc ** e * self.den
        return (_canonical([t * other.den for t in q], scale), _canonical(r, scale))

    def __eq__(self, other) -> bool:
        return isinstance(other, QPoly) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        if self.is_zero():
            return "QPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{i}")
        return "QPoly(" + " + ".join(terms) + ")"


def _canonical(num: list, den: int) -> QPoly:
    """The canonical QPoly equal to sum(num[i] * x**i) / den, for den != 0."""
    while num and not num[-1]:
        num.pop()
    if not num:
        den = 1
    elif den != 1:
        g = gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num = [c // g for c in num]
            den //= g
    p = object.__new__(QPoly)
    p.num, p.den = tuple(num), den
    return p


Element = Union[int, QPoly]


def zero(ring: RingSpec) -> Element:
    return 0 if ring is RingSpec.INTEGERS else _canonical([], 1)


def one(ring: RingSpec) -> Element:
    return 1 if ring is RingSpec.INTEGERS else _canonical([1], 1)


def is_zero(ring: RingSpec, a: Element) -> bool:
    if ring is RingSpec.INTEGERS:
        return a == 0
    return a.is_zero()


def is_unit(ring: RingSpec, a: Element) -> bool:
    if ring is RingSpec.INTEGERS:
        return a in (1, -1)
    return a.degree == 0


def norm(ring: RingSpec, a: Element) -> int:
    """Euclidean size used for pivot selection: |a| over Z, degree over Q[x]."""
    if ring is RingSpec.INTEGERS:
        return abs(a)
    return a.degree


def euc_divmod(ring: RingSpec, a: Element, b: Element) -> tuple[Element, Element]:
    """Division with small remainder.

    Over Z the remainder is balanced (|r| <= |b|/2) which speeds up the
    normal-form loops; over Q[x] it is the standard degree-reducing one.
    """
    if ring is RingSpec.INTEGERS:
        return int_divmod(a, b)
    return a.divmod(b)


def int_divmod(a: int, b: int) -> tuple[int, int]:
    """Integer division with the balanced remainder |r| <= |b|/2."""
    q, r = divmod(a, b)
    # python divmod gives r with the sign of b; fold to |r| <= |b|/2
    if 2 * abs(r) > abs(b):
        q += 1
        r -= b
    return q, r


def exact_div(ring: RingSpec, a: Element, b: Element) -> Element:
    q, r = euc_divmod(ring, a, b)
    if not is_zero(ring, r):
        raise ArithmeticError(f"inexact division of {a!r} by {b!r}")
    return q


def divides(ring: RingSpec, a: Element, b: Element) -> bool:
    """Whether a divides b (everything divides 0; 0 divides only 0)."""
    if is_zero(ring, b):
        return True
    if is_zero(ring, a):
        return False
    _, r = euc_divmod(ring, b, a)
    return is_zero(ring, r)


def canonical_unit(ring: RingSpec, a: Element) -> Element:
    """Unit u with u*a the canonical associate (positive integer / monic)."""
    if ring is RingSpec.INTEGERS:
        return -1 if a < 0 else 1
    if a.is_zero():
        return _canonical([1], 1)
    return _canonical([a.den], a.num[-1])


def from_int(ring: RingSpec, n: int) -> Element:
    return n if ring is RingSpec.INTEGERS else _canonical([n], 1)
