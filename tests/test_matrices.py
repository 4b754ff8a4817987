import hashlib
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltbench import rings
from tiltbench.matrices import (
    DimensionMismatchError,
    IntMatrix,
    RingMismatchError,
    block_diag,
    block_matrix,
    determinant,
    is_unimodular,
    kernel_matrix,
    kron,
    smith_normal_form,
    snf_diagonal,
    solve_lift,
    unvec,
    vec,
)
from tiltbench.rings import QPoly, RingSpec

Z = RingSpec.INTEGERS
QX = RingSpec.RATIONAL_POLYNOMIALS


def zmat(rows):
    return IntMatrix.from_rows(Z, rows)


def minors_gcd(m: IntMatrix, k: int) -> int:
    """Independent oracle: gcd of all k x k minors equals d1*...*dk."""
    g = 0
    for ri in combinations(range(m.rows), k):
        for ci in combinations(range(m.cols), k):
            g = gcd(g, int(determinant(m.submatrix(ri, ci))))
    return abs(g)


def test_snf_diagonal_reorder():
    # diagonal input only needs reordering into the divisibility chain
    m = zmat([[3, 0], [0, 1]])
    assert snf_diagonal(m) == [1, 3]


def test_snf_derived_example_via_minor_oracle():
    m = zmat([[2, 4], [6, 8]])
    d1 = minors_gcd(m, 1)
    d1d2 = minors_gcd(m, 2)
    assert (d1, d1d2 // d1) == (2, 4)
    assert snf_diagonal(m) == [2, 4]


def test_snf_zero_matrix():
    m = IntMatrix.zeros(Z, 2, 3)
    u, d, v = smith_normal_form(m)
    assert d.is_zero()
    assert u == IntMatrix.identity(Z, 2)
    assert v == IntMatrix.identity(Z, 3)


def test_snf_empty_shapes():
    for rows, cols in [(0, 0), (0, 3), (3, 0)]:
        m = IntMatrix.zeros(Z, rows, cols)
        u, d, v = smith_normal_form(m)
        assert u * m * v == d
        assert (u.rows, v.rows) == (rows, cols)


def check_snf_contract(m):
    u, d, v = smith_normal_form(m)
    assert u * m * v == d
    assert is_unimodular(u) and is_unimodular(v)
    diag = [d.at(i, i) for i in range(min(d.rows, d.cols))]
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert rings.is_zero(m.ring, d.at(i, j))
    for a, b in zip(diag, diag[1:]):
        assert rings.divides(m.ring, a, b)
    return diag


# about half the examples draw entries from [-2, 2], where most pivots are
# units and the pivot scan stops early
@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 20]).flatmap(
    lambda bound: st.lists(st.lists(st.integers(-bound, bound), min_size=1, max_size=5),
                           min_size=1, max_size=5)
    .filter(lambda r: len({len(x) for x in r}) == 1)))
def test_snf_contract_random(rows):
    m = zmat(rows)
    diag = check_snf_contract(m)
    # cross-check the invariant factors against the minors oracle
    prod = 1
    for k, dk in enumerate(diag, start=1):
        if dk == 0:
            assert minors_gcd(m, k) == 0
            break
        prod *= dk
        assert minors_gcd(m, k) == prod


def test_snf_polynomial_ring():
    x = QPoly.x()
    one = QPoly.const(1)
    m = IntMatrix.from_rows(QX, [[x, one], [QPoly(), x]])
    u, d, v = smith_normal_form(m)
    assert u * m * v == d
    assert is_unimodular(u) and is_unimodular(v)
    # det = x^2, gcd of entries is 1: invariant factors 1, x^2
    assert d.at(0, 0) == one
    assert d.at(1, 1) == x * x


def pinned_matrices():
    rnd = random.Random(2024)
    for _ in range(150):
        rows, cols = rnd.randint(1, 6), rnd.randint(1, 8)
        yield zmat([[rnd.randint(-2, 2) for _ in range(cols)] for _ in range(rows)])
    for _ in range(20):
        rows, cols = rnd.randint(1, 3), rnd.randint(1, 3)
        yield IntMatrix.from_rows(QX, [[QPoly((rnd.randint(-2, 2), rnd.randint(-1, 1)))
                                        for _ in range(cols)] for _ in range(rows)])


def test_snf_transforms_are_pinned():
    # golden hash of the exact transforms, solutions and kernel bases; any
    # change to the pivot rule or the reduction order moves it
    rnd = random.Random(7)
    h = hashlib.sha256()
    for m in pinned_matrices():
        b = IntMatrix.from_rows(m.ring, [[rings.from_int(m.ring, rnd.randint(-2, 2))]
                                         for _ in range(m.rows)])
        h.update(repr((smith_normal_form(m), solve_lift(m, b), kernel_matrix(m))).encode())
    assert h.hexdigest() == (
        "fd4b12ee897d22ab3555a42c5dc1fe57989a8f03cd3f8fd96de1fdbb6fb6d5c1")


def test_solve_lift_trivial_cases():
    assert solve_lift(zmat([[2]]), zmat([[4]])) == zmat([[2]])
    assert solve_lift(zmat([[2]]), zmat([[1]])) is None


def test_solve_lift_derived_substitution():
    a = zmat([[1, 0], [0, 2]])
    b = zmat([[3], [4]])
    x = solve_lift(a, b)
    assert a * x == b
    assert x == zmat([[3], [2]])


def test_solve_lift_shape_and_ring_errors():
    with pytest.raises(DimensionMismatchError):
        solve_lift(zmat([[1, 2]]), zmat([[1], [2]]))
    with pytest.raises(RingMismatchError):
        solve_lift(zmat([[1]]), IntMatrix.from_rows(QX, [[QPoly.const(1)]]))


def test_kernel_bezout_example():
    a = zmat([[2, 3]])
    k = kernel_matrix(a)
    assert (a * k).is_zero()
    assert k.cols == 1
    # primitive kernel vector, equal to (3, -2) up to sign
    col = [int(k.at(0, 0)), int(k.at(1, 0))]
    assert sorted(map(abs, col)) == [2, 3]
    assert 2 * col[0] + 3 * col[1] == 0
    assert gcd(*map(abs, col)) == 1


def test_kernel_trivial_cases():
    assert kernel_matrix(IntMatrix.identity(Z, 3)).cols == 0
    k = kernel_matrix(IntMatrix.zeros(Z, 1, 2))
    assert k.cols == 2 and is_unimodular(k)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=4),
                min_size=2, max_size=4).filter(lambda r: len({len(x) for x in r}) == 1),
       st.randoms(use_true_random=False))
def test_solve_and_kernel_duality(rows, rnd):
    a = zmat(rows)
    k = kernel_matrix(a)
    assert (a * k).is_zero()
    # any sampled solution of A x = 0 lies in the span of the kernel columns
    if k.cols:
        coeffs = IntMatrix.from_rows(Z, [[rnd.randint(-3, 3)] for _ in range(k.cols)])
        x = k * coeffs
        assert (a * x).is_zero()
        assert solve_lift(k, x) is not None
    # a random right-hand side in the column space is always solvable
    y = IntMatrix.from_rows(Z, [[rnd.randint(-3, 3)] for _ in range(a.cols)])
    b = a * y
    x = solve_lift(a, b)
    assert x is not None and a * x == b


def test_vec_kron_identity():
    a = zmat([[1, 2], [3, 4]])
    x = zmat([[5, 6], [7, 8]])
    b = zmat([[1, 1], [0, 2]])
    lhs = vec(a * x * b)
    rhs = kron(b.transpose(), a) * vec(x)
    assert lhs == rhs
    assert unvec(vec(x), 2, 2) == x


def test_block_matrix_places_blocks_and_zeros():
    m = block_matrix(Z, [1, 2], [2, 1], {(0, 0): zmat([[1, 2]]), (1, 1): zmat([[3], [4]])})
    assert m == zmat([[1, 2, 0], [0, 0, 3], [0, 0, 4]])
    assert block_matrix(Z, [2], [3], {}) == IntMatrix.zeros(Z, 2, 3)


def test_block_matrix_empty_block_rows_and_columns():
    a = zmat([[1], [2]])
    m = block_matrix(Z, [0, 2], [1, 0], {(1, 0): a, (0, 1): IntMatrix.zeros(Z, 0, 0)})
    assert m == a
    assert block_matrix(Z, [0, 0], [3], {}) == IntMatrix.zeros(Z, 0, 3)
    assert block_matrix(Z, [2], [], {}) == IntMatrix.zeros(Z, 2, 0)
    assert block_matrix(Z, [], [], {}) == IntMatrix.zeros(Z, 0, 0)


def test_block_matrix_shape_and_ring_errors():
    with pytest.raises(DimensionMismatchError):
        block_matrix(Z, [1, 2], [2], {(1, 0): zmat([[1, 2]])})
    with pytest.raises(DimensionMismatchError):
        block_matrix(Z, [1], [1], {(0, 1): zmat([[1]])})
    with pytest.raises(RingMismatchError):
        block_matrix(Z, [1], [1], {(0, 0): IntMatrix.from_rows(QX, [[QPoly.const(1)]])})


def test_block_diag_with_an_empty_block():
    m = block_diag(Z, [zmat([[1, 2]]), IntMatrix.zeros(Z, 0, 1), zmat([[3], [4]])])
    assert m == zmat([[1, 2, 0, 0], [0, 0, 0, 3], [0, 0, 0, 4]])
    assert block_diag(Z, []) == IntMatrix.zeros(Z, 0, 0)


def test_polynomial_solve():
    x = QPoly.x()
    a = IntMatrix.from_rows(QX, [[x]])
    b = IntMatrix.from_rows(QX, [[x * x]])
    sol = solve_lift(a, b)
    assert sol is not None and a * sol == b
    assert solve_lift(a, IntMatrix.from_rows(QX, [[QPoly.const(1)]])) is None


def test_determinant_matches_cofactor_small():
    rnd = random.Random(7)
    for _ in range(30):
        n = rnd.randint(1, 3)
        m = zmat([[rnd.randint(-5, 5) for _ in range(n)] for _ in range(n)])

        def cof(mm):
            if mm.rows == 1:
                return mm.at(0, 0)
            total = 0
            for j in range(mm.cols):
                sub = mm.submatrix(range(1, mm.rows),
                                   [c for c in range(mm.cols) if c != j])
                total += (-1) ** j * mm.at(0, j) * cof(sub)
            return total

        assert determinant(m) == cof(m)


def test_qpoly_arithmetic():
    x = QPoly.x()
    p = (x + QPoly.const(1)) * (x - QPoly.const(1))
    assert p == x * x - QPoly.const(1)
    q, r = p.divmod(x + QPoly.const(1))
    assert q == x - QPoly.const(1) and r.is_zero()
    q, r = (x * x).divmod(QPoly.const(2) * x)
    assert q == QPoly((0, Fraction(1, 2))) and r.is_zero()
    assert not QPoly() and not QPoly((0, 0))
    assert QPoly.const(Fraction(1, 3))
    assert IntMatrix.zeros(QX, 2, 2).is_zero()
    assert not IntMatrix.from_rows(QX, [[QPoly()], [x]]).is_zero()
