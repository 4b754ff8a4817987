"""Exact matrices over the catalogued Euclidean rings.

Everything downstream (module presentations, chain complexes, functor
presentations) reduces to three primitives implemented here:

* ``smith_normal_form``   U * M * V = D with unimodular U, V and a
  divisibility chain d1 | d2 | ... on the diagonal,
* ``solve_lift``          an exact solution X of A * X = B or a verdict
  that none exists,
* ``kernel_matrix``       a basis of the full solution lattice of A * x = 0.

Matrices are immutable values; zero-row and zero-column matrices are
legal and encode zero objects and zero maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import rings
from .rings import Element, RingSpec


class RingMismatchError(ValueError):
    """Raised when matrices over different rings are combined."""


class DimensionMismatchError(ValueError):
    """Raised when matrix shapes are incompatible for an operation."""


@dataclass(frozen=True)
class IntMatrix:
    """A rows x cols matrix with entries in a fixed ring, stored row major."""

    ring: RingSpec
    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatchError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatchError(
                f"entry count {len(self.entries)} != {self.rows}x{self.cols}"
            )

    # -- construction -------------------------------------------------

    @classmethod
    def from_rows(cls, ring: RingSpec, rows: Sequence[Sequence[Element]],
                  cols: Optional[int] = None) -> "IntMatrix":
        nrows = len(rows)
        if nrows == 0:
            if cols is None:
                cols = 0
            return cls(ring, 0, cols, ())
        ncols = len(rows[0])
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatchError("ragged rows")
            flat.extend(r)
        return cls(ring, nrows, ncols, tuple(flat))

    @classmethod
    def zeros(cls, ring: RingSpec, rows: int, cols: int) -> "IntMatrix":
        z = rings.zero(ring)
        return cls(ring, rows, cols, tuple([z] * (rows * cols)))

    @classmethod
    def identity(cls, ring: RingSpec, n: int) -> "IntMatrix":
        z, o = rings.zero(ring), rings.one(ring)
        ent = [z] * (n * n)
        for i in range(n):
            ent[i * n + i] = o
        return cls(ring, n, n, tuple(ent))

    @classmethod
    def diagonal(cls, ring: RingSpec, diag: Sequence[Element],
                 rows: Optional[int] = None, cols: Optional[int] = None) -> "IntMatrix":
        n = len(diag)
        rows = n if rows is None else rows
        cols = n if cols is None else cols
        z = rings.zero(ring)
        ent = [z] * (rows * cols)
        for i, d in enumerate(diag):
            ent[i * cols + i] = d
        return cls(ring, rows, cols, tuple(ent))

    # -- access --------------------------------------------------------

    def at(self, i: int, j: int) -> Element:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self) -> list[list[Element]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def column(self, j: int) -> tuple:
        return tuple(self.at(i, j) for i in range(self.rows))

    def is_zero(self) -> bool:
        return not any(self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic ----------------------------------------------------

    def _check_ring(self, other: "IntMatrix"):
        if self.ring is not other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("addition shape mismatch")
        ent = tuple(a + b for a, b in zip(self.entries, other.entries))
        return IntMatrix(self.ring, self.rows, self.cols, ent)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.ring, self.rows, self.cols,
                         tuple(-e for e in self.entries))

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_ring(other)
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        n, m = self.cols, other.cols
        zero_row = [rings.zero(self.ring)] * m
        other_rows = [other.entries[k * m:(k + 1) * m] for k in range(n)]
        out = []
        for i in range(self.rows):
            acc = zero_row
            for a, brow in zip(self.entries[i * n:(i + 1) * n], other_rows):
                if a:
                    acc = [c + a * b if b else c for c, b in zip(acc, brow)]
            out.extend(acc)
        return IntMatrix(self.ring, self.rows, m, tuple(out))

    def scale(self, c: Element) -> "IntMatrix":
        return IntMatrix(self.ring, self.rows, self.cols,
                         tuple(c * e for e in self.entries))

    def transpose(self) -> "IntMatrix":
        ent = tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows))
        return IntMatrix(self.ring, self.cols, self.rows, ent)

    # -- slicing / assembly ---------------------------------------------

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "IntMatrix":
        ri, ci = list(row_idx), list(col_idx)
        ent = tuple(self.at(i, j) for i in ri for j in ci)
        return IntMatrix(self.ring, len(ri), len(ci), ent)

    def take_columns(self, col_idx: Iterable[int]) -> "IntMatrix":
        return self.submatrix(range(self.rows), col_idx)

    def take_rows(self, row_idx: Iterable[int]) -> "IntMatrix":
        return self.submatrix(row_idx, range(self.cols))

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        self._check_ring(other)
        if self.rows != other.rows:
            raise DimensionMismatchError("hstack row mismatch")
        ent = []
        for i in range(self.rows):
            ent.extend(self.row(i))
            ent.extend(other.row(i))
        return IntMatrix(self.ring, self.rows, self.cols + other.cols, tuple(ent))

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        self._check_ring(other)
        if self.cols != other.cols:
            raise DimensionMismatchError("vstack column mismatch")
        return IntMatrix(self.ring, self.rows + other.rows, self.cols,
                         self.entries + other.entries)

    def __repr__(self) -> str:
        return f"IntMatrix({self.ring.value}, {self.rows}x{self.cols}, {self.to_rows()})"


def block_matrix(ring: RingSpec, row_sizes: Sequence[int], col_sizes: Sequence[int],
                 blocks: dict[tuple[int, int], IntMatrix]) -> IntMatrix:
    """The matrix cut into blocks of the given row and column sizes.

    ``blocks`` maps (i, j) to the IntMatrix of shape row_sizes[i] x
    col_sizes[j] placed in block row i and block column j; an absent block
    is zero.
    """
    for (i, j), b in blocks.items():
        if b.ring is not ring:
            raise RingMismatchError("block ring mismatch")
        if not (0 <= i < len(row_sizes) and 0 <= j < len(col_sizes)) \
                or (b.rows, b.cols) != (row_sizes[i], col_sizes[j]):
            raise DimensionMismatchError(f"block {(i, j)} is {b.rows}x{b.cols}")
    zero_rows = [(rings.zero(ring),) * width for width in col_sizes]
    out = []
    for i, height in enumerate(row_sizes):
        row_blocks = [blocks.get((i, j)) for j in range(len(col_sizes))]
        for k in range(height):
            for b, zero_row in zip(row_blocks, zero_rows):
                out.extend(zero_row if b is None else b.row(k))
    return IntMatrix(ring, sum(row_sizes), sum(col_sizes), tuple(out))


def block_diag(ring: RingSpec, blocks: Sequence[IntMatrix]) -> IntMatrix:
    return block_matrix(ring, [b.rows for b in blocks], [b.cols for b in blocks],
                        {(i, i): b for i, b in enumerate(blocks)})


def kron(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Kronecker product, used to vectorise two-sided matrix equations."""
    a._check_ring(b)
    zero_row = [rings.zero(a.ring)] * b.cols
    b_rows = [b.row(k) for k in range(b.rows)]
    out = []
    for i in range(a.rows):
        a_row = a.row(i)
        for brow in b_rows:
            for aij in a_row:
                out.extend([aij * e for e in brow] if aij else zero_row)
    return IntMatrix(a.ring, a.rows * b.rows, a.cols * b.cols, tuple(out))


def vec(m: IntMatrix) -> IntMatrix:
    """Column-major vectorisation; vec(A X B) = (B^T kron A) vec(X)."""
    ent = tuple(m.at(i, j) for j in range(m.cols) for i in range(m.rows))
    return IntMatrix(m.ring, m.rows * m.cols, 1, ent)


def unvec(v: IntMatrix, rows: int, cols: int) -> IntMatrix:
    if v.cols != 1 or v.rows != rows * cols:
        raise DimensionMismatchError("unvec shape mismatch")
    ent = tuple(v.at(i + j * rows, 0) for i in range(rows) for j in range(cols))
    return IntMatrix(v.ring, rows, cols, ent)


def determinant(m: IntMatrix) -> Element:
    """Exact determinant by fraction-free Bareiss elimination."""
    if not m.is_square():
        raise DimensionMismatchError("determinant of non-square matrix")
    ring = m.ring
    n = m.rows
    if n == 0:
        return rings.one(ring)
    a = m.to_rows()
    sign = 1
    prev = rings.one(ring)
    for k in range(n - 1):
        if not a[k][k]:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot_row is None:
                return rings.zero(ring)
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = rings.exact_div(ring, num, prev)
            a[i][k] = rings.zero(ring)
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det


class _SNFWorker:
    """Row/column reduction state for the Smith normal form.

    The pivot rule is deterministic: the first nonzero entry of minimal
    norm in the trailing submatrix, scanned row major, so transforms are
    reproducible for golden tests.  The scan stops at the first entry
    whose norm is the norm of a unit (1 over Z, degree 0 over Q[x]): it
    only replaces its choice on a strictly smaller norm, and no nonzero
    entry is smaller than a unit, so the full scan would pick it too.
    """

    def __init__(self, m: IntMatrix):
        self.ring = m.ring
        self.nr, self.nc = m.rows, m.cols
        self.a = m.to_rows()
        self.u = IntMatrix.identity(m.ring, m.rows).to_rows()
        self.v = IntMatrix.identity(m.ring, m.cols).to_rows()
        if m.ring is RingSpec.INTEGERS:
            self._norm = abs
            self._divides = lambda a, b: b % a == 0
        else:
            ring = m.ring
            self._norm = lambda x: rings.norm(ring, x)
            self._divides = lambda a, b: rings.divides(ring, a, b)
        self._unit_norm = self._norm(rings.one(m.ring))

    def _swap_rows(self, i, j):
        if i != j:
            self.a[i], self.a[j] = self.a[j], self.a[i]
            self.u[i], self.u[j] = self.u[j], self.u[i]

    def _swap_cols(self, i, j):
        if i != j:
            for row in self.a:
                row[i], row[j] = row[j], row[i]
            for row in self.v:
                row[i], row[j] = row[j], row[i]

    def _add_row(self, dst, src, c):
        """row[dst] += c * row[src]"""
        if not c:
            return
        a, u = self.a, self.u
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def _add_col(self, dst, src, c):
        if not c:
            return
        for row in self.a:
            row[dst] = row[dst] + c * row[src]
        for row in self.v:
            row[dst] = row[dst] + c * row[src]

    def _scale_row(self, i, unit):
        self.a[i] = [unit * x for x in self.a[i]]
        self.u[i] = [unit * x for x in self.u[i]]

    def _find_pivot(self, t):
        best = None
        best_norm = None
        norm, unit_norm = self._norm, self._unit_norm
        for i in range(t, self.nr):
            for j, e in enumerate(self.a[i][t:], t):
                if not e:
                    continue
                n = norm(e)
                if best is None or n < best_norm:
                    if n == unit_norm:
                        return i, j
                    best, best_norm = (i, j), n
        return best

    def run(self, enforce_chain: bool = True):
        """Diagonalise; with enforce_chain also establish d1 | d2 | ...

        The chain requires extra folding passes that pure solving and
        kernel extraction do not need.
        """
        ring = self.ring
        t = 0
        limit = min(self.nr, self.nc)
        while t < limit:
            piv = self._find_pivot(t)
            if piv is None:
                break
            self._swap_rows(t, piv[0])
            self._swap_cols(t, piv[1])
            while True:
                dirty = False
                for i in range(t + 1, self.nr):
                    if not self.a[i][t]:
                        continue
                    q, r = rings.euc_divmod(ring, self.a[i][t], self.a[t][t])
                    self._add_row(i, t, -q)
                    if r:
                        dirty = True
                for j in range(t + 1, self.nc):
                    if not self.a[t][j]:
                        continue
                    q, r = rings.euc_divmod(ring, self.a[t][j], self.a[t][t])
                    self._add_col(j, t, -q)
                    if r:
                        dirty = True
                if dirty:
                    piv = self._find_pivot(t)
                    self._swap_rows(t, piv[0])
                    self._swap_cols(t, piv[1])
                    continue
                if not enforce_chain:
                    break
                offender = None
                divides = self._divides
                pivot_val = self.a[t][t]
                for i in range(t + 1, self.nr):
                    row = self.a[i]
                    for j in range(t + 1, self.nc):
                        e = row[j]
                        if e and not divides(pivot_val, e):
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                # fold the offending row into the pivot row; the pivot column
                # is untouched (its entry there is already zero) and the next
                # reduction pass strictly shrinks the pivot norm
                self._add_row(t, offender, rings.one(ring))
            t += 1
        for i in range(limit):
            d = self.a[i][i]
            if d:
                unit = rings.canonical_unit(ring, d)
                if unit != rings.one(ring):
                    self._scale_row(i, unit)
        return (
            IntMatrix.from_rows(ring, self.u, cols=self.nr),
            IntMatrix.from_rows(ring, self.a, cols=self.nc),
            IntMatrix.from_rows(ring, self.v, cols=self.nc),
        )


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with U*M*V = D diagonal and d1 | d2 | ...

    U and V are unimodular (unit determinant); diagonal entries are
    canonical associates (nonnegative integers / monic polynomials), with
    zeros trailing the chain.
    """
    u, d, v = _SNFWorker(m).run()
    return u, d, v


def snf_diagonal(m: IntMatrix) -> list[Element]:
    _, d, _ = smith_normal_form(m)
    return [d.at(i, i) for i in range(min(d.rows, d.cols))]


class PreparedSolver:
    """A factorised linear system A*X = B, reusable across right sides.

    Solving only needs a diagonalisation, not the divisibility chain.
    """

    def __init__(self, a: IntMatrix):
        self.a = a
        self.u, self.d, self.v = _SNFWorker(a).run(enforce_chain=False)

    def solve(self, b: IntMatrix) -> Optional[IntMatrix]:
        a = self.a
        if a.ring is not b.ring:
            raise RingMismatchError(f"{a.ring} vs {b.ring}")
        if a.rows != b.rows:
            raise DimensionMismatchError("solve_lift row mismatch")
        ring = a.ring
        ub = self.u * b
        y = [[rings.zero(ring)] * b.cols for _ in range(a.cols)]
        r = min(a.rows, a.cols)
        for i in range(a.rows):
            di = self.d.at(i, i) if i < r else rings.zero(ring)
            for j in range(b.cols):
                rhs = ub.at(i, j)
                if not di:
                    if rhs:
                        return None
                else:
                    if not rings.divides(ring, di, rhs):
                        return None
                    if i < a.cols:
                        y[i][j] = rings.exact_div(ring, rhs, di)
        return self.v * IntMatrix.from_rows(ring, y, cols=b.cols)


def solve_lift(a: IntMatrix, b: IntMatrix) -> Optional[IntMatrix]:
    """An exact solution X of A*X = B over the ring, or None.

    The system is diagonalised by the Smith normal form: with U*A*V = D,
    A*X = B iff D*Y = U*B with X = V*Y, and the diagonal system is solvable
    iff every right-hand entry is divisible by its diagonal (rows beyond
    the rank must vanish).
    """
    return PreparedSolver(a).solve(b)


def kernel_matrix(a: IntMatrix) -> IntMatrix:
    """Columns generating the full solution lattice {x : A*x = 0}.

    Over the catalogued domains the kernel is free; the returned matrix has
    full column rank (or zero columns when the kernel is trivial).
    """
    _, d, v = _SNFWorker(a).run(enforce_chain=False)
    r = min(a.rows, a.cols)
    free = [j for j in range(a.cols)
            if j >= r or not d.at(j, j)]
    return v.take_columns(free)


def is_unimodular(m: IntMatrix) -> bool:
    return m.is_square() and rings.is_unit(m.ring, determinant(m))
