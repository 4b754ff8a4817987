import random
from fractions import Fraction
from math import gcd

import pytest

from oracles import FractionPoly
from tiltbench import rings
from tiltbench.rings import QPoly, RingSpec

QX = RingSpec.RATIONAL_POLYNOMIALS


def assert_canonical(p: QPoly):
    # integers only, positive denominator, no trailing zero, gcd 1, zero as ((), 1)
    assert type(p.num) is tuple and all(type(c) is int for c in p.num)
    assert type(p.den) is int and p.den > 0
    assert not p.num or p.num[-1] != 0
    assert gcd(p.den, *p.num) == 1
    assert p.num or p.den == 1


def assert_agrees(p: QPoly, oracle: FractionPoly):
    assert_canonical(p)
    assert p.coeffs == oracle.coeffs and all(type(c) is Fraction for c in p.coeffs)
    assert repr(p) == repr(oracle)
    assert p.degree == oracle.degree and p.is_zero() == oracle.is_zero()
    assert bool(p) == bool(oracle)
    if oracle.is_zero():
        with pytest.raises(ZeroDivisionError):
            p.lead()
    else:
        assert p.lead() == oracle.lead() and type(p.lead()) is Fraction
    assert p == QPoly(oracle.coeffs) and hash(p) == hash(QPoly(oracle.coeffs))


def polynomial_pairs():
    """Seeded (coefficients, coefficients, kinds) pairs: zero and constants,
    divisors that are not monic or of higher degree than the dividend,
    negative leading coefficients and coefficients that are not integers."""
    rnd = random.Random(1818)

    def draw(degree, integral):
        cs = [Fraction(rnd.randint(-6, 6), 1 if integral else rnd.choice((1, 2, 3, 4, 9)))
              for _ in range(degree + 1)]
        if cs and cs[-1] == 0:
            cs[-1] = Fraction(rnd.choice((-1, 1)) * rnd.randint(1, 6), rnd.choice((1, 2, 5)))
        return cs

    fixed = [[], [0], [1], [-1], [Fraction(1, 2)], [0, 1], [0, 0, -3], [Fraction(-2, 3), 0, 4]]
    for a in fixed:
        for b in fixed:
            yield a, b
    for _ in range(2000):
        a = draw(rnd.randint(-1, 5), rnd.random() < 0.5)
        b = draw(rnd.randint(-1, 5), rnd.random() < 0.5)
        yield a, b


def test_qpoly_agrees_with_the_fraction_oracle():
    kinds = dict.fromkeys(("zero", "constant", "non-monic divisor", "higher divisor",
                           "negative lead", "non-integral"), 0)
    for a, b in polynomial_pairs():
        p, q, fp, fq = QPoly(a), QPoly(b), FractionPoly(a), FractionPoly(b)
        kinds["zero"] += p.is_zero() or q.is_zero()
        kinds["constant"] += p.degree == 0 or q.degree == 0
        kinds["non-monic divisor"] += q.degree >= 0 and q.lead() != 1
        kinds["higher divisor"] += q.degree > p.degree >= 0
        kinds["negative lead"] += any(r.degree >= 0 and r.lead() < 0 for r in (p, q))
        kinds["non-integral"] += any(c.denominator != 1 for c in p.coeffs + q.coeffs)
        for value, oracle in ((p, fp), (q, fq), (p + q, fp + fq), (p - q, fp - fq),
                              (-p, -fp), (p * q, fp * fq)):
            assert_agrees(value, oracle)
        for cs, value in ((a, p), (b, q)):
            if all(Fraction(c).denominator == 1 for c in cs):
                # a list of ints skips Fraction and builds the same fields
                ints = QPoly([int(c) for c in cs])
                assert_canonical(ints)
                assert (ints.num, ints.den) == (value.num, value.den)
        assert (p == q) == (fp == fq) and (p == q) == (hash(p) == hash(q))
        if fq.is_zero():
            with pytest.raises(ZeroDivisionError):
                p.divmod(q)
            continue
        (quo, rem), (fquo, frem) = p.divmod(q), fp.divmod(fq)
        assert_agrees(quo, fquo)
        assert_agrees(rem, frem)
        assert rem.degree < q.degree and quo * q + rem == p
    assert all(count >= 200 for count in kinds.values()), kinds


def test_negation_builds_canonical_fields():
    # -p is read off p's fields with no canonical pass; it must have the
    # fields that the constructor gives the negated coefficients
    for a, b in polynomial_pairs():
        for p in (QPoly(a), QPoly(b)):
            neg, built = -p, QPoly([-c for c in p.coeffs])
            assert_canonical(neg)
            assert (neg.num, neg.den) == (built.num, built.den)


def test_fused_operations_agree_with_the_fraction_oracle():
    # dot over 0-4 pairs and x + c * y bring one sum to canonical form; the
    # oracle multiplies and adds separately normalised coefficients
    polys = [(QPoly(a), FractionPoly(a)) for pair in polynomial_pairs() for a in pair]
    rnd = random.Random(4)
    lengths = dict.fromkeys(range(5), 0)
    for k in range(2000):
        n = k % 5
        terms = [(rnd.choice(polys), rnd.choice(polys)) for _ in range(n)]
        oracle = FractionPoly()
        for (_, fx), (_, fy) in terms:
            oracle = oracle + fx * fy
        assert_agrees(QPoly.dot([x for (x, _), _ in terms], [y for _, (y, _) in terms]), oracle)
        lengths[n] += 1
        (x, fx), (c, fc), (y, fy) = rnd.choice(polys), rnd.choice(polys), rnd.choice(polys)
        assert_agrees(x.add_mul(c, y), fx + fc * fy)
    assert all(count >= 400 for count in lengths.values()), lengths


def test_division_by_a_constant_is_exact():
    # quotient num * den_b / (den * b0), remainder zero, also for negative
    # and non-integral constants
    constants = [1, -1, 3, -4, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)]
    for k, (a, _) in enumerate(polynomial_pairs()):
        c = constants[k % len(constants)]
        quo, rem = QPoly(a).divmod(QPoly.const(c))
        fquo, frem = FractionPoly(a).divmod(FractionPoly.const(c))
        assert_agrees(quo, fquo)
        assert_agrees(rem, frem)
        assert rem.is_zero() and quo * QPoly.const(c) == QPoly(a)


def test_equal_values_have_equal_fields():
    half = Fraction(1, 2)
    built = [QPoly((1, 2)) * QPoly.const(half), QPoly((half, 1)), QPoly(("1/2", 1.0)),
             QPoly((half, 1, 0, 0)), QPoly((3, 6)) * QPoly.const(Fraction(1, 6)),
             QPoly((1, 4)) - QPoly((Fraction(1, 2), 3)), -QPoly((-half, -1))]
    for p in built:
        assert_canonical(p)
        assert (p.num, p.den) == ((1, 2), 2) and p == built[0] and hash(p) == hash(built[0])
    zeros = [QPoly(), QPoly((0, 0)), QPoly.x() - QPoly.x(), QPoly.const(0) * QPoly.x(),
             rings.zero(QX), QPoly((half,)).divmod(QPoly.const(3))[1]]
    for z in zeros:
        assert (z.num, z.den) == ((), 1) and z == QPoly() and hash(z) == hash(QPoly())
        assert z.coeffs == () and z.degree == -1 and not z


def test_ring_helpers_over_polynomials():
    x = QPoly.x()
    assert (x.num, x.den) == ((0, 1), 1) and x.coeffs == (0, 1)
    assert rings.one(QX) == QPoly.const(1) == rings.from_int(QX, 1)
    assert rings.from_int(QX, -4) == QPoly((-4,))
    for coeffs in ([Fraction(-2, 3), 0, Fraction(6, 5)], [0, -7], [Fraction(5, 2)], []):
        p = QPoly(coeffs)
        unit = rings.canonical_unit(QX, p)
        assert_canonical(unit)
        assert unit.degree == 0
        assert (unit * p).is_zero() or (unit * p).lead() == 1
