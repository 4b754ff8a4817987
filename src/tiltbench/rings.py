"""Catalogued Euclidean base rings and their exact element arithmetic.

Two rings are supported: the integers and the univariate polynomial ring
over the rationals.  Integer elements are plain Python ``int`` (arbitrary
precision); polynomial elements are :class:`QPoly` values with exact
``Fraction`` coefficients.  Every matrix carries exactly one ring tag and
mixed-ring arithmetic is rejected at the call site.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Union


class RingSpec(enum.Enum):
    INTEGERS = "Integers"
    RATIONAL_POLYNOMIALS = "RationalPolynomials"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class QPoly:
    """A univariate polynomial with exact rational coefficients.

    Stored dense by degree, low degree first, with trailing zeros stripped
    so that equal polynomials compare equal.  The zero polynomial has an
    empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "QPoly":
        return cls((Fraction(c),))

    @classmethod
    def x(cls) -> "QPoly":
        return cls((Fraction(0), Fraction(1)))

    @property
    def degree(self) -> int:
        """Degree, with the convention deg(0) = -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def lead(self) -> Fraction:
        if not self.coeffs:
            raise ZeroDivisionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    def __neg__(self) -> "QPoly":
        return QPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other: "QPoly") -> "QPoly":
        if self.is_zero() or other.is_zero():
            return QPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return QPoly(out)

    def divmod(self, other: "QPoly") -> tuple["QPoly", "QPoly"]:
        """Euclidean division; remainder has degree < deg(other)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.degree
        lead = other.lead()
        for k in range(len(rem) - 1, d - 1, -1):
            if rem[k] == 0:
                continue
            c = rem[k] / lead
            q[k - d] = c
            for i, b in enumerate(other.coeffs):
                rem[k - d + i] -= c * b
        return QPoly(q), QPoly(rem)

    def __eq__(self, other) -> bool:
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

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


Element = Union[int, QPoly]


def zero(ring: RingSpec) -> Element:
    return 0 if ring is RingSpec.INTEGERS else QPoly()


def one(ring: RingSpec) -> Element:
    return 1 if ring is RingSpec.INTEGERS else QPoly.const(1)


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
        q, r = divmod(a, b)
        # python divmod gives r with the sign of b; fold to |r| <= |b|/2
        if 2 * abs(r) > abs(b):
            q += 1
            r -= b
        return q, r
    return a.divmod(b)


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
        return QPoly.const(1)
    return QPoly.const(Fraction(1) / a.lead())


def from_int(ring: RingSpec, n: int) -> Element:
    return n if ring is RingSpec.INTEGERS else QPoly.const(n)
