import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tiltbench import rings
from tiltbench.matrices import (
    DimensionMismatchError,
    IntMatrix,
    PreparedSolver,
    RingMismatchError,
    block_diag,
    block_matrix,
    determinant,
    is_unimodular,
    kernel_matrix,
    kron,
    nonzero_diagonal,
    smith_normal_form,
    solve_lift,
    unvec,
    vec,
)
from tiltbench.rings import QPoly, RingSpec
from tiltbench.serialize import element_to_json, matrix_to_json

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


def snf_diagonal(m: IntMatrix) -> list:
    _, d, _ = smith_normal_form(m)
    return [d.at(i, i) for i in range(min(d.rows, d.cols))]


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


def inverse_transform_cases():
    rnd = random.Random(2025)
    for rows, cols in [(0, 0), (0, 3), (3, 0), (2, 2), (3, 5), (5, 3)]:
        for _ in range(4):
            yield IntMatrix.from_rows(Z, [[rnd.randint(-9, 9) for _ in range(cols)]
                                          for _ in range(rows)], cols=cols)
    for rows, cols in [(0, 2), (2, 0), (1, 1), (2, 3), (3, 2)]:
        for _ in range(3):
            yield IntMatrix.from_rows(QX, [[QPoly((rnd.randint(-3, 3), rnd.randint(-3, 3),
                                                   rnd.randint(-2, 2))) for _ in range(cols)]
                                           for _ in range(rows)], cols=cols)


def test_snf_inverse_transforms():
    # U^-1 and V^-1 replay the logs inverted, no solve; over Q[x] the
    # canonical diagonal needs unit scalings other than +-1
    for m in inverse_transform_cases():
        form = smith_normal_form(m)
        u, _, v = form
        eye_rows, eye_cols = IntMatrix.identity(m.ring, m.rows), IntMatrix.identity(m.ring, m.cols)
        assert form.u_inv() * u == eye_rows and u * form.u_inv() == eye_rows
        assert v * oracles.v_inv(form) == eye_cols and oracles.v_inv(form) * v == eye_cols
    # [3x + 6, 2x] reduces to the pivot -4, scaled to 1 by the unit -1/4
    form = smith_normal_form(IntMatrix.from_rows(QX, [[QPoly((6, 3)), QPoly((0, 2))]]))
    assert form.u == IntMatrix.from_rows(QX, [[QPoly.const(Fraction(-1, 4))]])
    assert form.u_inv() == IntMatrix.from_rows(QX, [[QPoly.const(-4)]])


def polynomial_pin_matrices():
    # seeded Q[x] matrices up to 4 x 4 whose coefficients are often not
    # integers, so the normal forms meet non-monic pivots and denominators
    rnd = random.Random(1818)

    def coeff():
        return Fraction(rnd.randint(-3, 3), rnd.choice((1, 1, 2, 3)))

    for _ in range(40):
        rows, cols = rnd.randint(1, 4), rnd.randint(1, 4)
        yield IntMatrix.from_rows(QX, [[QPoly([coeff() for _ in range(rnd.randint(0, 3))])
                                        for _ in range(cols)] for _ in range(rows)])


def test_polynomial_normal_forms_are_pinned():
    # golden hash of the serialised transforms, inverse transforms, kernel
    # bases and solutions over Q[x]; the element arithmetic must not move it
    rnd = random.Random(18)
    h = hashlib.sha256()
    for m in polynomial_pin_matrices():
        form = smith_normal_form(m)
        x = IntMatrix.from_rows(QX, [[QPoly((rnd.randint(-2, 2), Fraction(rnd.randint(-2, 2), 3)))]
                                     for _ in range(m.cols)])
        b = IntMatrix.from_rows(QX, [[QPoly.const(Fraction(rnd.randint(-3, 3), 2))]
                                     for _ in range(m.rows)])
        outputs = (*form, form.u_inv(), oracles.v_inv(form), kernel_matrix(m),
                   solve_lift(m, m * x), solve_lift(m, b))
        h.update(json.dumps([None if o is None else matrix_to_json(o) for o in outputs]).encode())
    assert h.hexdigest() == (
        "0587ed1e5c103f0e612c3b027dfe2b12870d3b3858fc193934da4671ff39b966")


def polynomial_transform_matrices():
    # 300 seeded Q[x] matrices of shapes 1-3 x 1-3 like snf_polynomials'
    # samples; every third has coefficients that are not integers
    rnd = random.Random(300)
    for k in range(300):
        rows, cols = rnd.randint(1, 3), rnd.randint(1, 3)
        dens = (1, 2, 3, 5) if k % 3 == 0 else (1,)
        yield IntMatrix.from_rows(QX, [[QPoly([Fraction(rnd.randint(-3, 3), rnd.choice(dens))
                                               for _ in range(rnd.randint(1, 3))])
                                        for _ in range(cols)] for _ in range(rows)])


def test_polynomial_transforms_are_pinned():
    # golden hash of U, D, V, U^-1, V^-1 and det U, det V over Q[x]; the
    # polynomial report digest records only pass or fail, so this pins the
    # element arithmetic that the transforms and determinants go through
    h = hashlib.sha256()
    for m in polynomial_transform_matrices():
        form = smith_normal_form(m)
        outputs = [matrix_to_json(o) for o in (*form, form.u_inv(), oracles.v_inv(form))]
        outputs += [element_to_json(QX, determinant(t)) for t in (form.u, form.v)]
        h.update(json.dumps(outputs).encode())
    assert h.hexdigest() == (
        "7835c75114d73fcd9e830d28d5b71c0b71479af49af29355cd2e9f86e6e4f206")


def test_prepared_solver_reuse_is_pinned():
    # golden hash of one solver per matrix reused on several right sides of
    # one to three columns, solvable (B = M*X) and random
    rnd = random.Random(11)

    def draw(ring, rows, cols):
        return IntMatrix.from_rows(ring, [
            [rnd.randint(-2, 2) if ring is Z else QPoly((rnd.randint(-2, 2), rnd.randint(-1, 1)))
             for _ in range(cols)] for _ in range(rows)], cols=cols)

    h = hashlib.sha256()
    solved = unsolved = 0
    for m in pinned_matrices():
        solver = PreparedSolver(m)
        for _ in range(2):
            k = rnd.randint(1, 3)
            for b in (m * draw(m.ring, m.cols, k), draw(m.ring, m.rows, k)):
                x = solver.solve(b)
                assert x is None or m * x == b
                solved, unsolved = solved + (x is not None), unsolved + (x is None)
                h.update(repr(x).encode())
    assert solved > 400 and unsolved > 50
    assert h.hexdigest() == (
        "35fb1e3b87541623931ad085191ab7460219afb89e31fda672a6fc31dedcad7a")


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


def test_kernel_of_an_empty_shape_needs_no_elimination(snf_runs):
    # without rows every vector solves, without columns the kernel is 0 x 0
    # and only B = 0 is solvable, by the 0-row X; all equal what the
    # elimination finds, and a solver or a nonzero diagonal on such a shape
    # runs none either
    for ring, rows, cols in [(Z, 0, 3), (Z, 3, 0), (Z, 0, 0), (QX, 0, 2), (QX, 2, 0)]:
        m = IntMatrix.zeros(ring, rows, cols)
        assert snf_runs(kernel_matrix, m) == snf_runs(PreparedSolver, m) == 0
        assert snf_runs(nonzero_diagonal, m) == 0 and nonzero_diagonal(m) == []
        assert kernel_matrix(m) == IntMatrix.identity(ring, cols) == PreparedSolver(m).kernel()
        assert solve_lift(m, IntMatrix.zeros(ring, rows, 2)) == IntMatrix.zeros(ring, cols, 2)
        if rows:
            b = IntMatrix.from_rows(ring, [[rings.one(ring)]] + [[rings.zero(ring)]] * (rows - 1))
            assert solve_lift(m, b) is None
    assert snf_runs(kernel_matrix, IntMatrix.zeros(Z, 1, 2)) == 1


def test_solver_kernel_is_the_kernel_matrix():
    rnd = random.Random(21)
    for rows, cols in [(1, 3), (2, 2), (3, 2), (3, 4), (4, 4)]:
        for bound in (2, 9):
            m = IntMatrix.from_rows(Z, [[rnd.randint(-bound, bound) for _ in range(cols)]
                                        for _ in range(rows)])
            assert PreparedSolver(m).kernel() == kernel_matrix(m)
    x = QPoly.x()
    m = IntMatrix.from_rows(QX, [[x, x * x, QPoly.const(1)], [QPoly(), x, x]])
    assert PreparedSolver(m).kernel() == kernel_matrix(m)


def test_from_rows_checks_a_given_column_count():
    with pytest.raises(DimensionMismatchError):
        IntMatrix.from_rows(Z, [[1, 2]], cols=3)
    with pytest.raises(DimensionMismatchError):
        IntMatrix.from_rows(Z, [[], []], cols=2)
    assert IntMatrix.from_rows(Z, [[1, 2]], cols=2) == zmat([[1, 2]])
    assert IntMatrix.from_rows(Z, [[], []], cols=0) == IntMatrix.zeros(Z, 2, 0)
    assert IntMatrix.from_rows(Z, [], cols=2) == IntMatrix.zeros(Z, 0, 2)


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
    # the constructor's own shape checks, which every matrix passes through
    with pytest.raises(DimensionMismatchError, match="entry count 3 != 2x2"):
        IntMatrix(Z, 2, 2, (1, 2, 3))
    with pytest.raises(DimensionMismatchError, match="negative matrix dimensions"):
        IntMatrix(Z, -1, 0, ())


def product_cases():
    # every shape up to 4 x 4 times 4 x 4, empty dimensions included, over
    # Z and Q[x], with about half the entries zero
    rnd = random.Random(2402)

    def entry(ring):
        if rnd.random() < 0.5:
            return rings.zero(ring)
        if ring is Z:
            return rnd.randint(-9, 9)
        return QPoly([Fraction(rnd.randint(-3, 3), rnd.choice((1, 2))) for _ in range(3)])

    for ring in (Z, QX):
        for rows in range(5):
            for inner in range(5):
                for cols in range(5):
                    a = IntMatrix(ring, rows, inner,
                                  tuple(entry(ring) for _ in range(rows * inner)))
                    b = IntMatrix(ring, inner, cols,
                                  tuple(entry(ring) for _ in range(inner * cols)))
                    yield a, b


def test_product_matches_the_row_accumulating_oracle():
    # the product takes an entry over a row and a column slice (a sum over
    # Z, one QPoly.dot over Q[x]), an inner dimension of 1 is an outer
    # product, an empty one gives zeros
    for a, b in product_cases():
        assert a * b == oracles.row_accumulating_product(a, b)


def test_product_shape_and_ring_errors():
    with pytest.raises(DimensionMismatchError, match="cannot multiply 2x3 by 2x3"):
        IntMatrix.zeros(Z, 2, 3) * IntMatrix.zeros(Z, 2, 3)
    with pytest.raises(DimensionMismatchError):
        IntMatrix.zeros(Z, 0, 1) * IntMatrix.zeros(Z, 0, 1)
    with pytest.raises(RingMismatchError):
        IntMatrix.zeros(Z, 1, 1) * IntMatrix.zeros(QX, 1, 1)
    with pytest.raises(RingMismatchError):
        IntMatrix.zeros(QX, 0, 0) * IntMatrix.zeros(Z, 0, 0)


def test_identity_is_shared_and_multiplies_for_free():
    # one identity per ring and size; a product with it is the other factor
    # itself, after the same ring and shape checks as any product
    for ring in (Z, QX):
        for n in range(4):
            eye = IntMatrix.identity(ring, n)
            assert eye is IntMatrix.identity(ring, n)
            assert eye == IntMatrix.diagonal(ring, [rings.one(ring)] * n)
            assert eye * eye is eye
    assert IntMatrix.identity(Z, 2) is not IntMatrix.identity(QX, 2)
    for a, b in product_cases():
        left, right = IntMatrix.identity(a.ring, a.rows), IntMatrix.identity(a.ring, a.cols)
        assert left * a is a and a * right is a
        assert left * a == oracles.row_accumulating_product(left, a) == a * right
    with pytest.raises(DimensionMismatchError):
        IntMatrix.identity(Z, 2) * zmat([[1, 2, 3]])
    with pytest.raises(DimensionMismatchError):
        zmat([[1, 2, 3]]) * IntMatrix.identity(Z, 2)
    with pytest.raises(RingMismatchError):
        IntMatrix.identity(QX, 1) * zmat([[1]])
    with pytest.raises(RingMismatchError):
        zmat([[1]]) * IntMatrix.identity(QX, 1)


def test_diagonal_refuses_more_entries_than_fit():
    # surplus entries were written past the end of their row, or past the
    # end of the matrix
    with pytest.raises(DimensionMismatchError):
        IntMatrix.diagonal(Z, [1, 2], rows=3, cols=1)
    with pytest.raises(DimensionMismatchError):
        IntMatrix.diagonal(Z, [1, 2, 3], rows=2, cols=5)
    with pytest.raises(DimensionMismatchError):
        IntMatrix.diagonal(Z, [1], rows=0)
    assert IntMatrix.diagonal(Z, [1, 2], rows=3) == zmat([[1, 0], [0, 2], [0, 0]])
    assert IntMatrix.diagonal(Z, [4], cols=3) == zmat([[4, 0, 0]])
    assert IntMatrix.diagonal(Z, [], rows=2, cols=0) == IntMatrix.zeros(Z, 2, 0)


def test_matrices_are_values():
    m = IntMatrix(Z, 2, 2, (1, 0, 0, 1))
    for same in (zmat([[1, 0], [0, 1]]), IntMatrix.identity(Z, 2),
                 IntMatrix.zeros(Z, 2, 2) + IntMatrix.identity(Z, 2)):
        assert same == m and hash(same) == hash(m)
    assert zmat([]) == IntMatrix.zeros(Z, 0, 0) != IntMatrix.zeros(Z, 0, 2)
    assert hash(IntMatrix.zeros(Z, 2, 0)) == hash(IntMatrix(Z, 2, 0, ()))
    assert IntMatrix(QX, 2, 2, m.entries) != m
    assert zmat([[1]]) != (Z, 1, 1, (1,))
    assert not hasattr(m, "__dict__")


def test_block_diag_with_an_empty_block():
    m = block_diag(Z, [zmat([[1, 2]]), IntMatrix.zeros(Z, 0, 1), zmat([[3], [4]])])
    assert m == zmat([[1, 2, 0, 0], [0, 0, 0, 3], [0, 0, 0, 4]])
    assert block_diag(Z, []) == IntMatrix.zeros(Z, 0, 0)


def test_take_rows_matches_submatrix():
    m = zmat([[1, 2, 3], [4, 5, 6], [7, 8, 9], [10, 11, 12]])
    wide = IntMatrix.zeros(Z, 3, 0)
    for a in (m, wide, m.transpose()):
        for idx in ([], range(1, 3), range(a.rows), [0, a.rows - 1], [2, 0, 1], [1, 1]):
            assert a.take_rows(idx) == a.submatrix(idx, range(a.cols))
    assert IntMatrix.zeros(Z, 0, 2).take_rows([]) == IntMatrix.zeros(Z, 0, 2)
    for a, bad in ((m, [4]), (m, [0, -1]), (wide, [3]), (IntMatrix.zeros(Z, 0, 2), [0])):
        with pytest.raises(IndexError):
            a.take_rows(bad)


def test_submatrix_and_take_columns_check_their_bounds():
    # a negative index no longer wraps around, and a past-the-end one no
    # longer reads into the next row
    m = zmat([[1, 2], [3, 4]])
    narrow = IntMatrix.zeros(Z, 2, 0)
    for a in (m, narrow):
        for bad in (-1, a.cols, a.rows):
            with pytest.raises(IndexError):
                a.take_columns([bad])
        for rows, cols in (([-1], []), ([a.rows], []), ([], [-1]), ([], [a.cols])):
            with pytest.raises(IndexError):
                a.submatrix(rows, cols)
    with pytest.raises(IndexError):
        m.submatrix([0], [2])
    assert m.take_columns([1, 0]) == zmat([[2, 1], [4, 3]])
    assert m.submatrix([1], [0, 1]) == zmat([[3, 4]])
    assert narrow.take_columns([]) == narrow


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


@pytest.mark.parametrize("ring", [Z, QX])
def test_determinant_makes_no_division_by_a_pivot_of_one(monkeypatch, ring):
    # every leading principal minor of m is 1, so each Bareiss pivot is one
    # and no step divides; det m = -7 + e, e its last entry
    e = 9 if ring is Z else QPoly.x()
    const = (lambda v: v) if ring is Z else QPoly.const
    m = IntMatrix.from_rows(ring, [[const(v) for v in row] for row in
                                   [[1, 2, 3, 1], [2, 5, 7, 0], [1, 3, 5, 2]]]
                            + [[const(0), const(1), const(4), e]])
    calls, real_div = [], rings.exact_div
    monkeypatch.setattr(rings, "exact_div", lambda *args: calls.append(args) or real_div(*args))
    assert determinant(m) == e + const(-7)
    assert calls == []


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
