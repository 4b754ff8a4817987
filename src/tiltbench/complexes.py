"""Bounded cochain complexes with decidable homotopy questions.

Complexes carry finitely presented modules in a bounded window of degrees;
differentials raise degree and compose to zero.  The shift [1] moves
objects down one degree and negates differentials.  A complex is its
entries and differentials and names no ambient category: over Z, of global
dimension 1, a bounded complex of free modules means the same in K^b(free)
as in D^b(fp-Z) (Weibel, 10.4).

Cohomology is a ``modules.span_quotient``: the generators of ker d^n
modulo the relations of C^n and im d^{n-1}.  For complexes with
relation-free entries the total Hom complex is posed in one place,
differential by differential (``hom_differential``).  A chain map is
null-homotopic iff its components are D^{-1} of a homotopy, one exact
solve (``is_nullhomotopic``); the derived hom group H^n is ker D^n modulo
im D^{n-1}, which reads two differentials (``derived_hom``).

Exactness is one decision on matrices (``total_is_exact``): the total
complex of parts[0] <- parts[1] <- ..., laid out block by block with no
module or morphism built.  A complex is exact iff its one-part total
complex is (``is_exact``); a chain map f : X -> Y is a quasi-isomorphism
iff the total complex of [Y, X] along f, its cone, is (``is_quasi_iso``).
The parts pick the criterion: relation-free parts are decided by one
diagonalisation per differential, where over a PID exactness and
contractibility agree; others by one kernel and one image-membership solve
per degree.  Before either, the degrees where an end map is an identity
are dropped: where the map between the first two parts is an identity
above some degree, their entries there form a subcomplex, and where the
map between the last two parts is one below some degree, their entries
there form a quotient complex.  Both are cones of isomorphisms, so exact,
and the long exact cohomology sequence leaves the decision to the rest.
The cone of an identity, the comparison map of a truncation on its window,
is read with no arithmetic.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import modules, rings
from .matrices import (IntMatrix, block_diag, block_matrix, kernel_matrix, kron,
                       nonzero_diagonal, solve_lift, unvec, vec)
from .modules import FpModule, FpMorphism
from .rings import RingSpec


class UndecidableConfigurationError(ValueError):
    """Homotopy decision requested outside the relation-free regime."""


class Complex:
    """A bounded cochain complex supported on [lo, hi], checked when built:
    its entries lie over its ring, each differential runs between adjacent
    entries, and consecutive differentials compose to zero."""

    def __init__(self, ring: RingSpec, lo: int,
                 objects: Sequence[FpModule], differentials: Sequence[FpMorphism]):
        self.ring = ring
        self.lo = lo
        self.objects = list(objects)
        self.differentials = list(differentials)
        if len(self.differentials) != max(len(self.objects) - 1, 0):
            raise ValueError("need one differential per adjacent degree pair")
        self._validate()

    def _validate(self):
        if any(obj.ring is not self.ring for obj in self.objects):
            raise ValueError("object ring mismatch")
        for i, d in enumerate(self.differentials):
            if d.source is not self.objects[i] and d.source.presentation != self.objects[i].presentation:
                raise ValueError(f"differential {i} source mismatch")
            if d.target is not self.objects[i + 1] and d.target.presentation != self.objects[i + 1].presentation:
                raise ValueError(f"differential {i} target mismatch")
        for i in range(len(self.differentials) - 1):
            if not modules.composite_is_zero(self.differentials[i + 1], self.differentials[i]):
                raise ValueError(f"d o d != 0 at degree {self.lo + i}")

    # -- accessors -------------------------------------------------------

    @property
    def hi(self) -> int:
        return self.lo + len(self.objects) - 1

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def object_at(self, n: int) -> FpModule:
        if self.lo <= n <= self.hi:
            return self.objects[n - self.lo]
        return FpModule.zero(self.ring)

    def differential_at(self, n: int) -> FpMorphism:
        if self.lo <= n < self.hi:
            return self.differentials[n - self.lo]
        return FpMorphism.zero(self.object_at(n), self.object_at(n + 1))

    def is_strict_free(self) -> bool:
        return all(obj.relations == 0 for obj in self.objects)

    def is_zero_complex(self) -> bool:
        return all(obj.is_zero_module() for obj in self.objects)

    def shift(self, k: int) -> "Complex":
        """The complex X[k] with X[k]^n = X^{n+k} and differential (-1)^k d."""
        objs = list(self.objects)
        diffs = self.differentials if k % 2 == 0 else [modules.negate(d) for d in self.differentials]
        return Complex(self.ring, self.lo - k, objs, list(diffs))

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}:{self.object_at(n)!r}" for n in self.degrees())
        return f"Complex({parts})"


def stalk_complex(m: FpModule, degree: int = 0) -> Complex:
    return Complex(m.ring, degree, [m], [])


def zero_complex(ring: RingSpec) -> Complex:
    return Complex(ring, 0, [FpModule.zero(ring)], [])


def free_complex(ring: RingSpec, lo: int, mats: Sequence[IntMatrix],
                 first_rank: Optional[int] = None) -> Complex:
    """A relation-free complex from differential matrices d^lo, d^{lo+1}, ...

    Entry ranks are read off the matrix shapes; a bare stalk is specified by
    an empty matrix list and ``first_rank``.
    """
    if not mats:
        return stalk_complex(FpModule.free(ring, first_rank or 0), lo)
    ranks = [mats[0].cols] + [m.rows for m in mats]
    objs = [FpModule.free(ring, r) for r in ranks]
    diffs = []
    for i, m in enumerate(mats):
        if m.cols != ranks[i] or m.rows != ranks[i + 1]:
            raise ValueError("differential shapes do not chain")
        # free entries: the witness is the empty matrix
        diffs.append(FpMorphism(objs[i], objs[i + 1], m, IntMatrix.zeros(ring, 0, 0)))
    return Complex(ring, lo, objs, diffs)


class ChainMap:
    """A degreewise morphism commuting with the differentials."""

    def __init__(self, source: Complex, target: Complex,
                 components: dict[int, FpMorphism]):
        self.source = source
        self.target = target
        self.components = dict(components)

    def component_at(self, n: int) -> FpMorphism:
        if n in self.components:
            return self.components[n]
        return FpMorphism.zero(self.source.object_at(n), self.target.object_at(n))

    @classmethod
    def identity(cls, c: Complex) -> "ChainMap":
        comps = {n: FpMorphism.identity(c.object_at(n)) for n in c.degrees()}
        return cls(c, c, comps)

    @classmethod
    def zero(cls, source: Complex, target: Complex) -> "ChainMap":
        return cls(source, target, {})

    def __repr__(self) -> str:
        return f"ChainMap({self.source!r} -> {self.target!r})"


def compose_chain_maps(g: ChainMap, f: ChainMap) -> ChainMap:
    comps = {}
    for n in f.source.degrees():
        comps[n] = modules.compose(g.component_at(n), f.component_at(n))
    return ChainMap(f.source, g.target, comps)


class Homotopy:
    """Degree -1 components certifying that a chain map is null-homotopic."""

    def __init__(self, source: Complex, target: Complex,
                 components: dict[int, FpMorphism]):
        self.source = source
        self.target = target
        self.components = dict(components)

    def component_at(self, n: int) -> FpMorphism:
        if n in self.components:
            return self.components[n]
        return FpMorphism.zero(self.source.object_at(n), self.target.object_at(n - 1))

    def certifies(self, f: ChainMap) -> bool:
        """Exact check of f = d o h + h o d in every degree."""
        for n in range(min(f.source.lo, f.target.lo) - 1,
                       max(f.source.hi, f.target.hi) + 2):
            dh = modules.compose(f.target.differential_at(n - 1), self.component_at(n))
            hd = modules.compose(self.component_at(n + 1), f.source.differential_at(n))
            if not modules.morphism_equal(f.component_at(n),
                                          modules.add_morphisms(dh, hd)):
                return False
        return True


# -- direct sums and total complexes ---------------------------------------------

def direct_sum_complexes(cs: Sequence[Complex]) -> Complex:
    """The degreewise direct sum: each entry is the ``modules.direct_sum`` of
    the summands' entries in the order of cs, so ``modules.injection`` and
    ``modules.projection`` on them give the components of its structure maps.
    """
    ring = cs[0].ring
    lo = min(c.lo for c in cs)
    hi = max(c.hi for c in cs)
    parts = {n: [c.object_at(n) for c in cs] for n in range(lo, hi + 1)}
    objs = [modules.direct_sum(ms) for ms in parts.values()]
    diffs = [modules.block_morphism(
        objs[n - lo], objs[n + 1 - lo], parts[n], parts[n + 1],
        {(i, i): c.differential_at(n) for i, c in enumerate(cs)}) for n in range(lo, hi)]
    return Complex(ring, lo, objs, diffs)


def _total(parts: Sequence[Complex], maps: dict[tuple[int, int], dict[int, FpMorphism]],
           windows: Sequence[Sequence[int]]) -> tuple[list[IntMatrix], list[IntMatrix]]:
    """The total complex of parts[0] <- parts[1] <- ..., as matrices.

    Part i contributes its entries in the degrees windows[i] = (lo_i, hi_i)
    of its own, and a map component only where both its ends do.  Entry n
    is the sum of parts[i]^{n+i}, presented block-diagonally; block (i, i)
    of d^n is (-1)^i d_i^{n+i}, and for j > i block (i, j) is
    (-1)^i maps[i, j][n+j] : parts[j]^{n+j} -> parts[i]^{n+1+i}, zero where
    the component is absent.  Returns the presentations of the entries
    lo..hi and the differentials d^lo..d^{hi-1}; it builds no module and no
    morphism.  The cone of f : X -> Y is the total complex of [Y, X] with f
    as block (0, 1).
    """
    ring = parts[0].ring
    spans = [(w[0] - i, w[1] - i) for i, w in enumerate(windows) if w[0] <= w[1]]
    lo, hi = min(s[0] for s in spans), max(s[1] for s in spans)

    def at(i, p):  # part i's entry in its degree p, or None outside its window
        return parts[i].objects[p - parts[i].lo] if windows[i][0] <= p <= windows[i][1] else None

    entries = [[at(i, n + i) for i in range(len(parts))] for n in range(lo, hi + 1)]
    sizes = [[0 if m is None else m.generators for m in e] for e in entries]
    pres = [block_diag(ring, [IntMatrix.zeros(ring, 0, 0) if m is None else m.presentation
                              for m in e])
            if any(m is not None and m.relations for m in e)
            else IntMatrix.zeros(ring, sum(size), 0) for e, size in zip(entries, sizes)]
    diffs = []
    for k, n in enumerate(range(lo, hi)):
        blocks = {}
        for i, c in enumerate(parts):
            if at(i, n + 1 + i) is None:
                continue
            row = {j: maps[i, j][n + j] for j in range(i + 1, len(parts))
                   if n + j in maps.get((i, j), ()) and at(j, n + j) is not None}
            if at(i, n + i) is not None:
                row[i] = c.differentials[n + i - c.lo]
            blocks.update({(i, j): -b.gen if i % 2 else b.gen for j, b in row.items()})
        diffs.append(block_matrix(ring, sizes[k + 1], sizes[k], blocks))
    return pres, diffs


def _is_identity(c: Optional[FpMorphism]) -> bool:
    """Whether c is the identity of one module, read off the shared identity
    matrix, with no arithmetic."""
    return (c is not None and c.gen is IntMatrix.identity(c.source.ring, c.source.generators)
            and modules.same_module(c.source, c.target))


def _trim(maps: dict[tuple[int, int], dict[int, FpMorphism]], windows: list[list[int]],
          i: int, low: bool):
    """Shrink the windows of parts i and i + 1 from their low or their high
    end over the degrees where both have an entry and maps[i, i + 1] is an
    identity."""
    comps, a, b = maps.get((i, i + 1), {}), windows[i], windows[i + 1]
    end, step, keep = (0, 1, max) if low else (1, -1, min)
    p = min(a[0], b[0]) if low else max(a[1], b[1])
    while a[0] <= p <= a[1] and b[0] <= p <= b[1] and _is_identity(comps.get(p)):
        p += step
    a[end], b[end] = keep(a[end], p), keep(b[end], p)


def total_is_exact(parts: Sequence[Complex],
                   maps: dict[tuple[int, int], dict[int, FpMorphism]]) -> bool:
    """Whether the total complex of parts (``_total``) is exact.

    First the degrees that carry no information are dropped.  Where
    maps[0, 1] is an identity in every degree above m', the entries of
    parts[0] and parts[1] above m' form a subcomplex, since the differential
    leaves them only towards each other; where maps[k-2, k-1] between the
    last two parts is an identity in every degree below m, their entries
    below m form a quotient complex, since the differential enters them
    only from each other.  Either is the cone of an isomorphism, so exact,
    and by the long exact cohomology sequence the total complex is exact iff
    what remains is (Weibel, 1.3 and 1.5).  An identity is read, not
    solved: the shared identity matrix on one module (``_is_identity``).
    Each end pairs only entries still in both windows, so a middle part
    that both pairs share loses no entry twice; with nothing left the total
    complex is zero.

    With relation-free parts it is a bounded complex of free modules, exact
    at n iff im d^{n-1} is a direct summand, i.e. the nonzero diagonal of
    d^{n-1} consists of units, of the rank of ker d^n: rank d^{n-1} +
    rank d^n = rank C^n.  One diagonalisation per differential decides both;
    over a PID such a complex is exact iff it is contractible (Weibel, 1.4
    and 10.4).  Otherwise it is exact at n iff the generators of ker d^n
    lie in im d^{n-1} + im P, P the presentation of C^n: one kernel and one
    solve per degree.  Elements are tested, not the kernel inclusion: a map
    out of the kernel must respect the kernel's relations, and one need not
    lift even where the complex is exact.
    """
    ring = parts[0].ring
    windows = [[c.lo, c.hi] for c in parts]
    if len(parts) > 1:
        _trim(maps, windows, 0, low=False)
        _trim(maps, windows, len(parts) - 2, low=True)
    if all(lo > hi for lo, hi in windows):
        return True
    pres, diffs = _total(parts, maps, windows)
    if all(c.is_strict_free() for c in parts):
        ranks = [0]
        for d in diffs:
            diag = nonzero_diagonal(d)
            if not all(rings.is_unit(ring, e) for e in diag):
                return False
            ranks.append(len(diag))
        ranks.append(0)
        return all(ranks[k] + ranks[k + 1] == p.rows for k, p in enumerate(pres))
    # the zero differentials into the first entry and out of the last
    diffs = [IntMatrix.zeros(ring, pres[0].rows, 0), *diffs,
             IntMatrix.zeros(ring, 0, pres[-1].rows)]
    pres = [*pres, IntMatrix.zeros(ring, 0, 0)]
    for k, p in enumerate(pres[:-1]):
        gens = kernel_matrix(diffs[k + 1].hstack(-pres[k + 1])).take_rows(range(p.rows))
        if gens.cols and solve_lift(diffs[k].hstack(p), gens) is None:
            return False
    return True


# -- cohomology ----------------------------------------------------------------

def cohomology(c: Complex, n: int) -> FpModule:
    """ker(d^n) / im(d^{n-1}) as a finitely presented module: the span of
    the kernel's generators modulo the relations of C^n and im d^{n-1}."""
    if n < c.lo or n > c.hi:
        return FpModule.zero(c.ring)
    rels = c.object_at(n).presentation.hstack(c.differential_at(n - 1).gen)
    return modules.span_quotient(modules.kernel_generators(c.differential_at(n)), rels)[0]


def is_exact(c: Complex) -> bool:
    """Whether c has zero cohomology in every degree."""
    return total_is_exact([c], {})


def is_quasi_iso(f: ChainMap) -> bool:
    """Whether f induces isomorphisms on cohomology: its cone is exact."""
    return total_is_exact([f.target, f.source], {(0, 1): f.components})


# -- homotopy decisions ---------------------------------------------------------

def _require_relation_free(*cs: Complex):
    if not all(c.is_strict_free() for c in cs):
        raise UndecidableConfigurationError(
            "homotopy decisions and derived hom need relation-free entries")


def is_nullhomotopic(f: ChainMap) -> Optional[Homotopy]:
    """A certifying homotopy iff f is null-homotopic.

    The components of f form a degree-0 element of the total Hom complex,
    and f = d_Y h + h d_X says that it is D^{-1} of the element h: one exact
    solve against ``hom_differential(x, y, -1)``.  Only complexes whose
    entries carry no relations are accepted.
    """
    x, y = f.source, f.target
    _require_relation_free(x, y)
    ring = x.ring
    eq_degrees, eq_sizes = _hom_layout(x, y, 0)
    if not eq_degrees:
        return Homotopy(x, y, {})
    rhs = block_matrix(ring, eq_sizes, [1], {
        (i, 0): vec(f.component_at(n).gen) for i, n in enumerate(eq_degrees)})
    sol = solve_lift(hom_differential(x, y, -1), rhs)
    if sol is None:
        return None
    comps = {}
    offset = 0
    for n, size in zip(*_hom_layout(x, y, -1)):
        g = unvec(sol.take_rows(range(offset, offset + size)),
                  y.object_at(n - 1).generators, x.object_at(n).generators)
        comps[n] = FpMorphism(x.object_at(n), y.object_at(n - 1), g, IntMatrix.zeros(ring, 0, 0))
        offset += size
    h = Homotopy(x, y, comps)
    if not h.certifies(f):
        raise AssertionError("homotopy solver produced a non-certifying witness")
    return h


def is_contractible(c: Complex) -> Optional[Homotopy]:
    return is_nullhomotopic(ChainMap.identity(c))


# -- hom complexes and derived hom ----------------------------------------------

def _hom_layout(x: Complex, y: Complex, k: int) -> tuple[list[int], list[int]]:
    """The degrees p with Hom(X^p, Y^{p+k}) nonzero, in order, and the sizes
    of those summands of the degree-k entry of the total Hom complex."""
    ps = [p for p in range(max(x.lo, y.lo - k), min(x.hi, y.hi - k) + 1)
          if x.object_at(p).generators and y.object_at(p + k).generators]
    return ps, [x.object_at(p).generators * y.object_at(p + k).generators for p in ps]


def hom_differential(x: Complex, y: Complex, k: int) -> IntMatrix:
    """D^k of the total Hom complex of two relation-free complexes.

    Degree-k entry: (+)_p Hom(X^p, Y^{p+k}), each summand a column-major
    vectorised matrix, laid out by ``_hom_layout``; differential
    D(phi) = d_Y o phi - (-1)^k phi o d_X, so degree-0 cycles are chain maps
    and degree-(-1) images are the homotopies.
    """
    ring = x.ring
    ps, sizes = _hom_layout(x, y, k)
    qs, tsizes = _hom_layout(x, y, k + 1)
    blocks = {}
    for j, p in enumerate(ps):
        if p in qs:
            blocks[qs.index(p), j] = kron(
                IntMatrix.identity(ring, x.object_at(p).generators),
                y.differential_at(p + k).gen)
        if p - 1 in qs:
            m = kron(x.differential_at(p - 1).gen.transpose(),
                     IntMatrix.identity(ring, y.object_at(p + k).generators))
            blocks[qs.index(p - 1), j] = -m if k % 2 == 0 else m
    return block_matrix(ring, tsizes, sizes, blocks)


def derived_hom(x: Complex, y: Complex, n: int) -> FpModule:
    """H^n of the total Hom complex: chain maps X -> Y[n] modulo homotopy,
    the span of ker D^n modulo im D^{n-1}."""
    _require_relation_free(x, y)
    return modules.span_quotient(kernel_matrix(hom_differential(x, y, n)),
                                 hom_differential(x, y, n - 1))[0]


# -- free resolutions -------------------------------------------------------------

def free_resolution(c: Complex) -> Complex:
    """A relation-free complex quasi-isomorphic to ``c``.

    Over a hereditary base every bounded complex splits in the derived
    category as the sum of its shifted cohomologies, so the resolution is
    the sum of two-term resolutions of H^n placed in degrees (n-1, n).
    """
    if c.is_strict_free():
        return c
    pieces = []
    for n in c.degrees():
        h = modules.reduce_presentation(cohomology(c, n))
        if h.is_zero_module():
            continue
        if h.relations:
            piece = free_complex(c.ring, n - 1, [h.presentation])
        else:
            piece = free_complex(c.ring, n, [], first_rank=h.generators)
        pieces.append(piece)
    if not pieces:
        return zero_complex(c.ring)
    return pieces[0] if len(pieces) == 1 else direct_sum_complexes(pieces)
