"""Exact matrices over the catalogued Euclidean rings.

Everything downstream (module presentations, chain complexes, functor
presentations) reduces to three primitives implemented here, plus
``nonzero_diagonal`` for rank and unit questions on differentials:

* ``smith_normal_form``   U * M * V = D with unimodular U, V and a
  divisibility chain d1 | d2 | ... on the diagonal,
* ``solve_lift``          an exact solution X of A * X = B or a verdict
  that none exists,
* ``kernel_matrix``       a basis of the full solution lattice of A * x = 0.

Matrices are immutable values by convention: no code assigns to an
attribute of an ``IntMatrix`` after construction, and ``entries`` is a
tuple.  Zero-row and zero-column matrices are legal and encode zero
objects and zero maps.
"""

from __future__ import annotations

from functools import cached_property
from operator import mul
from typing import Iterable, Optional, Sequence

from . import rings
from .rings import Element, QPoly, RingSpec


class RingMismatchError(ValueError):
    """Raised when matrices over different rings are combined."""


class DimensionMismatchError(ValueError):
    """Raised when matrix shapes are incompatible for an operation."""


class IntMatrix:
    """A rows x cols matrix with entries in a fixed ring, stored row major."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: RingSpec, rows: int, cols: int, entries: tuple):
        if rows < 0 or cols < 0:
            raise DimensionMismatchError("negative matrix dimensions")
        if len(entries) != rows * cols:
            raise DimensionMismatchError(f"entry count {len(entries)} != {rows}x{cols}")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.entries = entries

    def __eq__(self, other) -> bool:
        if other.__class__ is not IntMatrix:
            return NotImplemented
        return other is self or (self.ring is other.ring and self.rows == other.rows
                                 and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.ring, self.rows, self.cols, self.entries))

    # -- construction -------------------------------------------------

    @classmethod
    def from_rows(cls, ring: RingSpec, rows: Sequence[Sequence[Element]],
                  cols: Optional[int] = None) -> "IntMatrix":
        ncols = len(rows[0]) if rows else cols or 0
        if cols is not None and cols != ncols:
            raise DimensionMismatchError(f"rows of length {ncols}, not {cols}")
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatchError("ragged rows")
            flat.extend(r)
        return cls(ring, len(rows), ncols, tuple(flat))

    @classmethod
    def zeros(cls, ring: RingSpec, rows: int, cols: int) -> "IntMatrix":
        z = rings.zero(ring)
        return cls(ring, rows, cols, tuple([z] * (rows * cols)))

    @classmethod
    def identity(cls, ring: RingSpec, n: int) -> "IntMatrix":
        """The n x n identity: one shared instance per ring and size, which
        ``__mul__`` multiplies by without arithmetic."""
        eye = _IDENTITIES.get((ring, n))
        if eye is None:
            ent = [rings.zero(ring)] * (n * n)
            ent[::n + 1] = [rings.one(ring)] * n
            eye = _IDENTITIES[ring, n] = cls(ring, n, n, tuple(ent))
            _IDENTITY_IDS.add(id(eye))
        return eye

    @classmethod
    def diagonal(cls, ring: RingSpec, diag: Sequence[Element],
                 rows: Optional[int] = None, cols: Optional[int] = None) -> "IntMatrix":
        n = len(diag)
        rows = n if rows is None else rows
        cols = n if cols is None else cols
        if n > min(rows, cols):
            raise DimensionMismatchError(f"{n} diagonal entries in a {rows}x{cols} matrix")
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
        if id(self) in _IDENTITY_IDS:
            return other
        if id(other) in _IDENTITY_IDS:
            return self
        ring, rows, n, m = self.ring, self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        a_rows = [a[i * n:(i + 1) * n] for i in range(rows)]
        cols = [b[j::m] for j in range(m)]
        if ring is RingSpec.INTEGERS:
            out = [sum(map(mul, row, col)) for row in a_rows for col in cols]
        else:
            dot = QPoly.dot
            out = [dot(row, col) for row in a_rows for col in cols]
        return IntMatrix(ring, rows, m, tuple(out))

    def transpose(self) -> "IntMatrix":
        ent = tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows))
        return IntMatrix(self.ring, self.cols, self.rows, ent)

    # -- slicing / assembly ---------------------------------------------

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "IntMatrix":
        ri, ci = list(row_idx), list(col_idx)
        for idx, bound, kind in ((ri, self.rows, "row"), (ci, self.cols, "column")):
            if idx and not 0 <= min(idx) <= max(idx) < bound:
                raise IndexError(f"{kind}s {min(idx)}..{max(idx)} of a matrix with {bound}")
        ent = tuple(self.at(i, j) for i in ri for j in ci)
        return IntMatrix(self.ring, len(ri), len(ci), ent)

    def take_columns(self, col_idx: Iterable[int]) -> "IntMatrix":
        return self.submatrix(range(self.rows), col_idx)

    def take_rows(self, row_idx: Iterable[int]) -> "IntMatrix":
        ent, n, rows = [], self.cols, 0
        for i in row_idx:
            if not 0 <= i < self.rows:
                raise IndexError(f"row {i} of a {self.rows}-row matrix")
            ent.extend(self.entries[i * n:(i + 1) * n])
            rows += 1
        return IntMatrix(self.ring, rows, n, tuple(ent))

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


# the shared identities by (ring, size), and their ids, for a product to test
_IDENTITIES: dict[tuple[RingSpec, int], IntMatrix] = {}
_IDENTITY_IDS: set[int] = set()


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
    sign, one = 1, rings.one(ring)
    prev = None  # the previous pivot, to divide by; None at the first step and for a one
    dot = None if ring is RingSpec.INTEGERS else QPoly.dot
    for k in range(n - 1):
        if not a[k][k]:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot_row is None:
                return rings.zero(ring)
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            neg = -a[i][k]  # over Q[x] the numerator is one dot product
            for j in range(k + 1, n):
                num = (a[i][j] * a[k][k] - a[i][k] * a[k][j] if dot is None
                       else dot((a[i][j], neg), (a[k][k], a[k][j])))
                a[i][j] = num if prev is None else rings.exact_div(ring, num, prev)
            a[i][k] = rings.zero(ring)
        prev = None if a[k][k] == one else a[k][k]
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

    U and V are not stored: the worker logs its row and its column
    operations as (i, j, c), "line i += c * line j", with (i, j, None) a
    swap and (i, None, c) a scaling.  U * B replays the row log forward on
    the rows of B; V * Y replays the column log backward on the rows of Y,
    "col i += c * col j" acting as "row j += c * row i"; U^-1 * B replays
    the row log backward with each operation inverted.  Each column of B
    is replayed on its own, so some columns of a transform need a replay on
    those unit columns alone.  Column operations at pivot t skip the rows
    above t: those rows are already zero outside their own pivot, so zero
    in both columns (both >= t) that are combined.  Over Q[x] every row and
    column operation, replays included, takes one ``QPoly.add_mul`` per
    entry; ``add_mul_row`` is picked once per worker, like ``euc_divmod``.
    """

    def __init__(self, m: IntMatrix):
        self.ring = m.ring
        self.nr, self.nc = m.rows, m.cols
        self.a = m.to_rows()
        self.row_log = []
        self.col_log = []
        if m.ring is RingSpec.INTEGERS:
            self.euc_divmod = rings.int_divmod
            self.add_mul_row = None  # the integer row operations run inline
            self._norm = abs
            self._divides = lambda a, b: b % a == 0
        else:
            ring = m.ring
            self.euc_divmod = QPoly.divmod
            self.add_mul_row = lambda xs, c, ys: [x.add_mul(c, y) if y else x
                                                  for x, y in zip(xs, ys)]
            self._norm = lambda x: rings.norm(ring, x)
            self._divides = lambda a, b: rings.divides(ring, a, b)
        self._unit_norm = self._norm(rings.one(m.ring))

    def _swap_rows(self, i, j):
        if i != j:
            self.a[i], self.a[j] = self.a[j], self.a[i]
            self.row_log.append((i, j, None))

    def _swap_cols(self, t, j):
        """Swap column t with column j >= t."""
        if t != j:
            for row in self.a[t:]:
                row[t], row[j] = row[j], row[t]
            self.col_log.append((t, j, None))

    def _add_row(self, dst, src, c):
        """row[dst] += c * row[src]"""
        if not c:
            return
        a = self.a
        if self.add_mul_row is None:
            a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        else:
            a[dst] = self.add_mul_row(a[dst], c, a[src])
        self.row_log.append((dst, src, c))

    def _add_col(self, dst, t, c):
        """col[dst] += c * col[t], for the pivot column t."""
        if not c:
            return
        if self.add_mul_row is None:
            for row in self.a[t:]:
                if row[t]:
                    row[dst] += c * row[t]
        else:
            for row in self.a[t:]:
                if row[t]:
                    row[dst] = row[dst].add_mul(c, row[t])
        self.col_log.append((dst, t, c))

    def _scale_row(self, i, unit):
        self.a[i] = [unit * x for x in self.a[i]]
        self.row_log.append((i, None, unit))

    def apply_u(self, rows: list) -> list:
        """U * B on the rows of B, in place."""
        for i, j, c in self.row_log:
            if c is None:
                rows[i], rows[j] = rows[j], rows[i]
            elif j is None:
                rows[i] = [c * x for x in rows[i]]
            elif self.add_mul_row is None:
                rows[i] = [x + c * y if y else x for x, y in zip(rows[i], rows[j])]
            else:
                rows[i] = self.add_mul_row(rows[i], c, rows[j])
        return rows

    def apply_v(self, rows: list) -> list:
        """V * Y on the rows of Y, in place."""
        for i, j, c in reversed(self.col_log):
            if c is None:
                rows[i], rows[j] = rows[j], rows[i]
            elif self.add_mul_row is None:
                rows[j] = [x + c * y if y else x for x, y in zip(rows[j], rows[i])]
            else:
                rows[j] = self.add_mul_row(rows[j], c, rows[i])
        return rows

    def apply_u_inv(self, rows: list) -> list:
        """U^-1 * B on the rows of B, in place."""
        for i, j, c in reversed(self.row_log):
            if c is None:
                rows[i], rows[j] = rows[j], rows[i]
            elif j is None:
                c_inv = rings.exact_div(self.ring, rings.one(self.ring), c)
                rows[i] = [c_inv * x for x in rows[i]]
            elif self.add_mul_row is None:
                rows[i] = [x - c * y if y else x for x, y in zip(rows[i], rows[j])]
            else:
                rows[i] = self.add_mul_row(rows[i], -c, rows[j])
        return rows

    def transform_columns(self, apply, n: int, idx: Optional[Sequence[int]] = None) -> IntMatrix:
        """The columns at idx (all by default) of the n x n transform that
        ``apply`` multiplies by: ``apply`` replayed on those unit columns."""
        idx = range(n) if idx is None else idx
        zero, one = rings.zero(self.ring), rings.one(self.ring)
        units = [[zero] * len(idx) for _ in range(n)]
        for k, j in enumerate(idx):
            units[j][k] = one
        return IntMatrix.from_rows(self.ring, apply(units), cols=len(idx))

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

    def run(self, enforce_chain: bool = True) -> "_SNFWorker":
        """Diagonalise; with enforce_chain also establish d1 | d2 | ...

        The chain requires extra folding passes that pure solving and
        kernel extraction do not need.  Returns the worker.
        """
        ring, a, euc_divmod = self.ring, self.a, self.euc_divmod
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
                    if not a[i][t]:
                        continue
                    q, r = euc_divmod(a[i][t], a[t][t])
                    self._add_row(i, t, -q)
                    if r:
                        dirty = True
                for j in range(t + 1, self.nc):
                    if not a[t][j]:
                        continue
                    q, r = euc_divmod(a[t][j], a[t][t])
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
                pivot_val = a[t][t]
                for i in range(t + 1, self.nr):
                    row = a[i]
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
            d = a[i][i]
            if d:
                unit = rings.canonical_unit(ring, d)
                if unit != rings.one(ring):
                    self._scale_row(i, unit)
        return self


class SmithForm:
    """The (U, D, V) of ``smith_normal_form``, named ``u``, ``d`` and ``v``;
    it unpacks and prints as that 3-tuple.

    U and V are replayed from the diagonalisation's logs when first read,
    so reading D alone replays neither; ``u_inv`` replays the row log
    inverted, so U^-1 needs no solve.  Both it and ``v_columns`` replay
    only the columns a caller asks for.
    """

    def __init__(self, worker: _SNFWorker):
        self._worker = worker
        self.d = IntMatrix.from_rows(worker.ring, worker.a, cols=worker.nc)

    @cached_property
    def u(self) -> IntMatrix:
        return self._worker.transform_columns(self._worker.apply_u, self._worker.nr)

    @cached_property
    def v(self) -> IntMatrix:
        return self._worker.transform_columns(self._worker.apply_v, self._worker.nc)

    def __iter__(self):
        return iter((self.u, self.d, self.v))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def u_inv(self, idx: Optional[Sequence[int]] = None) -> IntMatrix:
        """U^-1, or its columns at idx alone."""
        return self._worker.transform_columns(self._worker.apply_u_inv, self._worker.nr, idx)

    def v_columns(self, idx: Sequence[int]) -> IntMatrix:
        """The columns of V at idx, without replaying the others."""
        return self._worker.transform_columns(self._worker.apply_v, self._worker.nc, idx)


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Return (U, D, V) with U*M*V = D diagonal and d1 | d2 | ...

    U and V are unimodular (unit determinant); diagonal entries are
    canonical associates (nonnegative integers / monic polynomials), with
    zeros trailing the chain.  D is read at once; U and V are replayed from
    the diagonalisation's logs when first read (see ``SmithForm``).
    """
    return SmithForm(_SNFWorker(m).run())


def nonzero_diagonal(m: IntMatrix) -> list:
    """The nonzero entries of a diagonal form U * M * V of m.

    One diagonalisation, without the divisibility chain and without U or V;
    none for a matrix without rows or columns.  Their count is the rank of
    m, and they are all units exactly when the invariant factors of m are:
    both products agree up to a unit.
    """
    w = _diagonalise(m)
    return [] if w is None else [w.a[i][i] for i in range(min(w.nr, w.nc)) if w.a[i][i]]


class PreparedSolver:
    """A factorised linear system A*X = B, reusable across right sides.

    Solving only needs a diagonalisation, not the divisibility chain; a
    matrix without rows or columns needs none (see ``_diagonalise``).
    """

    def __init__(self, a: IntMatrix):
        self.a = a
        self._snf = _diagonalise(a)

    def solve(self, b: IntMatrix) -> Optional[IntMatrix]:
        a = self.a
        if a.ring is not b.ring:
            raise RingMismatchError(f"{a.ring} vs {b.ring}")
        if a.rows != b.rows:
            raise DimensionMismatchError("solve_lift row mismatch")
        if self._snf is None:  # every X solves a 0-row system, only B = 0 a 0-column one
            return IntMatrix.zeros(a.ring, a.cols, b.cols) if b.is_zero() else None
        zero = rings.zero(a.ring)
        d, euc_divmod = self._snf.a, self._snf.euc_divmod
        y = [[zero] * b.cols for _ in range(a.cols)]
        r = min(a.rows, a.cols)
        for i, ub_row in enumerate(self._snf.apply_u(b.to_rows())):
            di = d[i][i] if i < r else zero
            for j, rhs in enumerate(ub_row):
                if not di:
                    if rhs:
                        return None
                else:
                    q, rem = euc_divmod(rhs, di)
                    if rem:
                        return None
                    y[i][j] = q
        return IntMatrix.from_rows(a.ring, self._snf.apply_v(y), cols=b.cols)

    def kernel(self) -> IntMatrix:
        """``kernel_matrix(a)``, read from this diagonalisation."""
        return _kernel_columns(self.a, self._snf)


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
    full column rank (or zero columns when the kernel is trivial).  They are
    the columns of V at the zero diagonal positions and past the rank.
    """
    return _kernel_columns(a, _diagonalise(a))


def _diagonalise(a: IntMatrix) -> Optional[_SNFWorker]:
    """A worker that has diagonalised a, without the divisibility chain; None
    for a matrix without rows or columns, which needs no elimination."""
    return _SNFWorker(a).run(enforce_chain=False) if a.rows and a.cols else None


def _kernel_columns(a: IntMatrix, w: Optional[_SNFWorker]) -> IntMatrix:
    """The columns of V at the zero pivots of a's diagonalisation w and past
    its rank; every unit vector where a has no rows or columns."""
    if w is None:
        return IntMatrix.identity(a.ring, a.cols)
    r = min(w.nr, w.nc)
    return w.transform_columns(w.apply_v, w.nc, [j for j in range(w.nc)
                                                 if j >= r or not w.a[j][j]])


def is_unimodular(m: IntMatrix) -> bool:
    return m.is_square() and rings.is_unit(m.ring, determinant(m))
