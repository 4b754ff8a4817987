"""Bounded cochain complexes with decidable homotopy questions.

Complexes carry finitely presented modules in a bounded window of degrees;
differentials raise degree and compose to zero.  The shift [1] moves
objects down one degree and negates differentials.

Null-homotopy of a chain map between complexes with relation-free entries
is decided by assembling all homotopy equations into one exact linear
system; cohomology and derived hom groups come out of the same kernel /
cokernel machinery that powers the module layer.
"""

from __future__ import annotations

import enum
from typing import Optional, Sequence

from . import modules
from .matrices import IntMatrix, block_matrix, kron, solve_lift, unvec, vec
from .modules import FpModule, FpMorphism
from .rings import RingSpec


class BaseCategory(enum.Enum):
    FREE_MODULES = "FreeModules"
    FP_MODULES = "FpModules"


class UndecidableConfigurationError(ValueError):
    """Homotopy decision requested outside the relation-free regime."""


class Complex:
    """A bounded cochain complex supported on [lo, hi]."""

    def __init__(self, ring: RingSpec, base: BaseCategory, lo: int,
                 objects: Sequence[FpModule], differentials: Sequence[FpMorphism],
                 check: bool = True):
        self.ring = ring
        self.base = base
        self.lo = lo
        self.objects = list(objects)
        self.differentials = list(differentials)
        if len(self.differentials) != max(len(self.objects) - 1, 0):
            raise ValueError("need one differential per adjacent degree pair")
        if check:
            self._validate()

    def _validate(self):
        for i, obj in enumerate(self.objects):
            if obj.ring is not self.ring:
                raise ValueError("object ring mismatch")
            if self.base is BaseCategory.FREE_MODULES and obj.relations != 0:
                raise ValueError("free-based complexes need relation-free entries")
        for i, d in enumerate(self.differentials):
            if d.source is not self.objects[i] and d.source.presentation != self.objects[i].presentation:
                raise ValueError(f"differential {i} source mismatch")
            if d.target is not self.objects[i + 1] and d.target.presentation != self.objects[i + 1].presentation:
                raise ValueError(f"differential {i} target mismatch")
        for i in range(len(self.differentials) - 1):
            comp = modules.compose(self.differentials[i + 1], self.differentials[i])
            if not modules.is_zero_morphism(comp):
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
        return Complex(self.ring, self.base, self.lo - k, objs, list(diffs), check=False)

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}:{self.object_at(n)!r}" for n in self.degrees())
        return f"Complex[{self.base.value}]({parts})"


def stalk_complex(m: FpModule, degree: int = 0,
                  base: BaseCategory = BaseCategory.FP_MODULES) -> Complex:
    return Complex(m.ring, base, degree, [m], [], check=False)


def zero_complex(ring: RingSpec, base: BaseCategory = BaseCategory.FP_MODULES) -> Complex:
    return Complex(ring, base, 0, [FpModule.zero(ring)], [], check=False)


def free_complex(ring: RingSpec, lo: int, mats: Sequence[IntMatrix],
                 first_rank: Optional[int] = None) -> Complex:
    """A relation-free complex from differential matrices d^lo, d^{lo+1}, ...

    Entry ranks are read off the matrix shapes; a bare stalk is specified by
    an empty matrix list and ``first_rank``.
    """
    if not mats:
        return stalk_complex(FpModule.free(ring, first_rank or 0), lo,
                             base=BaseCategory.FREE_MODULES)
    ranks = [mats[0].cols] + [m.rows for m in mats]
    objs = [FpModule.free(ring, r) for r in ranks]
    diffs = []
    for i, m in enumerate(mats):
        if m.cols != ranks[i] or m.rows != ranks[i + 1]:
            raise ValueError("differential shapes do not chain")
        # free entries: the witness is the empty matrix
        diffs.append(FpMorphism(objs[i], objs[i + 1], m, IntMatrix.zeros(ring, 0, 0)))
    return Complex(ring, BaseCategory.FREE_MODULES, lo, objs, diffs)


def fp_complex(ring: RingSpec, lo: int, objects: Sequence[FpModule],
               differentials: Sequence[FpMorphism]) -> Complex:
    return Complex(ring, BaseCategory.FP_MODULES, lo, objects, differentials)


class ChainMap:
    """A degreewise morphism commuting with the differentials."""

    def __init__(self, source: Complex, target: Complex,
                 components: dict[int, FpMorphism], check: bool = True):
        self.source = source
        self.target = target
        self.components = dict(components)
        if check:
            self._validate()

    def _validate(self):
        for n, f in self.components.items():
            if f.source.presentation != self.source.object_at(n).presentation:
                raise ValueError(f"component {n} source mismatch")
            if f.target.presentation != self.target.object_at(n).presentation:
                raise ValueError(f"component {n} target mismatch")
        for n in range(min(self.source.lo, self.target.lo) - 1,
                       max(self.source.hi, self.target.hi) + 1):
            lhs = modules.compose(self.target.differential_at(n), self.component_at(n))
            rhs = modules.compose(self.component_at(n + 1), self.source.differential_at(n))
            if not modules.morphism_equal(lhs, rhs):
                raise ValueError(f"chain map does not commute at degree {n}")

    def component_at(self, n: int) -> FpMorphism:
        if n in self.components:
            return self.components[n]
        return FpMorphism.zero(self.source.object_at(n), self.target.object_at(n))

    @classmethod
    def identity(cls, c: Complex) -> "ChainMap":
        comps = {n: FpMorphism.identity(c.object_at(n)) for n in c.degrees()}
        return cls(c, c, comps, check=False)

    @classmethod
    def zero(cls, source: Complex, target: Complex) -> "ChainMap":
        return cls(source, target, {}, check=False)

    def __repr__(self) -> str:
        return f"ChainMap({self.source!r} -> {self.target!r})"


def compose_chain_maps(g: ChainMap, f: ChainMap) -> ChainMap:
    comps = {}
    for n in f.source.degrees():
        comps[n] = modules.compose(g.component_at(n), f.component_at(n))
    return ChainMap(f.source, g.target, comps, check=False)


def sub_chain_maps(f: ChainMap, g: ChainMap) -> ChainMap:
    comps = {}
    for n in set(f.components) | set(g.components):
        comps[n] = modules.sub_morphisms(f.component_at(n), g.component_at(n))
    return ChainMap(f.source, f.target, comps, check=False)


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


# -- direct sums and cones ---------------------------------------------------

def direct_sum_complexes(cs: Sequence[Complex]) -> tuple[Complex, list[list[ChainMap]]]:
    """Degreewise direct sum; returns the sum and [injections, projections]."""
    ring, base = cs[0].ring, cs[0].base
    lo = min(c.lo for c in cs)
    hi = max(c.hi for c in cs)
    objs, inj_comps, proj_comps = [], [dict() for _ in cs], [dict() for _ in cs]
    parts = {n: [c.object_at(n) for c in cs] for n in range(lo, hi + 1)}
    for n, ms in parts.items():
        total, injs, projs = modules.direct_sum(ms)
        objs.append(total)
        for i in range(len(cs)):
            inj_comps[i][n] = injs[i]
            proj_comps[i][n] = projs[i]
    diffs = [modules.block_morphism(
        objs[n - lo], objs[n + 1 - lo], parts[n], parts[n + 1],
        {(i, i): c.differential_at(n) for i, c in enumerate(cs)}) for n in range(lo, hi)]
    sum_complex = Complex(ring, base, lo, objs, diffs, check=False)
    injections = [ChainMap(c, sum_complex, inj_comps[i], check=False)
                  for i, c in enumerate(cs)]
    projections = [ChainMap(sum_complex, c, proj_comps[i], check=False)
                   for i, c in enumerate(cs)]
    return sum_complex, [injections, projections]


def cone(f: ChainMap) -> tuple[Complex, ChainMap, ChainMap]:
    """The mapping cone with its distinguished-triangle maps.

    cone^n = Y^n (+) X^{n+1}; returns (cone, Y -> cone, cone -> X[1]).
    """
    x, y = f.source, f.target
    ring, base = x.ring, x.base
    lo = min(y.lo, x.lo - 1)
    hi = max(y.hi, x.hi - 1)
    parts = {n: [y.object_at(n), x.object_at(n + 1)] for n in range(lo, hi + 1)}
    sums = {n: modules.direct_sum(ms) for n, ms in parts.items()}
    objs = [total for total, _, _ in sums.values()]
    # d^n = [[d_Y, f], [0, -d_X]] : Y^n (+) X^{n+1} -> Y^{n+1} (+) X^{n+2}
    diffs = [modules.block_morphism(
        sums[n][0], sums[n + 1][0], parts[n], parts[n + 1],
        {(0, 0): y.differential_at(n), (0, 1): f.component_at(n + 1),
         (1, 1): modules.negate(x.differential_at(n + 1))}) for n in range(lo, hi)]
    cone_complex = Complex(ring, base, lo, objs, diffs, check=False)
    incl = ChainMap(y, cone_complex,
                    {n: sums[n][1][0] for n in range(lo, hi + 1)}, check=False)
    proj = ChainMap(cone_complex, x.shift(1),
                    {n: sums[n][2][1] for n in range(lo, hi + 1)}, check=False)
    return cone_complex, incl, proj


# -- cohomology ----------------------------------------------------------------

def cohomology(c: Complex, n: int) -> FpModule:
    """ker(d^n) / im(d^{n-1}) as a finitely presented module."""
    if n < c.lo or n > c.hi:
        return FpModule.zero(c.ring)
    k_mod, incl = modules.kernel(c.differential_at(n))
    dprev = c.differential_at(n - 1)
    lifted = modules.factor(dprev, incl)
    if lifted is None:
        raise ArithmeticError("differential does not factor through the kernel")
    h, _ = modules.cokernel(lifted)
    return h


def cohomology_map(f: ChainMap, n: int) -> FpMorphism:
    """The induced map on n-th cohomology."""
    x, y = f.source, f.target
    kx, incl_x = modules.kernel(x.differential_at(n))
    ky, incl_y = modules.kernel(y.differential_at(n))
    lifted_x = modules.factor(x.differential_at(n - 1), incl_x)
    lifted_y = modules.factor(y.differential_at(n - 1), incl_y)
    hx, proj_x = modules.cokernel(lifted_x)
    hy, proj_y = modules.cokernel(lifted_y)
    on_kernels = modules.factor(modules.compose(f.component_at(n), incl_x), incl_y)
    if on_kernels is None:
        raise ArithmeticError("chain map does not respect kernels")
    induced = modules.cofactor(modules.compose(proj_y, on_kernels), proj_x)
    if induced is None:
        raise ArithmeticError("chain map does not descend to cohomology")
    return induced


def is_exact(c: Complex) -> bool:
    return all(cohomology(c, n).is_zero_module() for n in c.degrees())


def is_quasi_iso(f: ChainMap) -> bool:
    cc, _, _ = cone(f)
    return is_exact(cc)


# -- homotopy decisions ---------------------------------------------------------

def _require_relation_free(f: ChainMap):
    for c in (f.source, f.target):
        for n in c.degrees():
            if c.object_at(n).relations != 0:
                raise UndecidableConfigurationError(
                    "null-homotopy decision needs relation-free entries")


def is_nullhomotopic(f: ChainMap) -> Optional[Homotopy]:
    """A certifying homotopy iff f is null-homotopic.

    All homotopy equations f^n = d_Y h^n + h^{n+1} d_X are assembled into a
    single exact linear system over the ring; only complexes whose entries
    carry no relations are accepted.
    """
    _require_relation_free(f)
    x, y = f.source, f.target
    ring = x.ring
    h_degrees = [n for n in range(max(x.lo, y.lo + 1), min(x.hi, y.hi + 1) + 1)
                 if x.object_at(n).generators and y.object_at(n - 1).generators]
    eq_degrees = [n for n in range(max(x.lo, y.lo), min(x.hi, y.hi) + 1)
                  if x.object_at(n).generators and y.object_at(n).generators]
    if not eq_degrees:
        return Homotopy(x, y, {})
    h_sizes = [y.object_at(n - 1).generators * x.object_at(n).generators
               for n in h_degrees]
    eq_sizes = [y.object_at(n).generators * x.object_at(n).generators
                for n in eq_degrees]
    blocks = {}
    for i, n in enumerate(eq_degrees):
        if n in h_degrees:
            blocks[i, h_degrees.index(n)] = kron(
                IntMatrix.identity(ring, x.object_at(n).generators),
                y.differential_at(n - 1).gen)
        if n + 1 in h_degrees:
            blocks[i, h_degrees.index(n + 1)] = kron(
                x.differential_at(n).gen.transpose(),
                IntMatrix.identity(ring, y.object_at(n).generators))
    rhs = block_matrix(ring, eq_sizes, [1], {
        (i, 0): vec(f.component_at(n).gen) for i, n in enumerate(eq_degrees)})
    sol = solve_lift(block_matrix(ring, eq_sizes, h_sizes, blocks), rhs)
    if sol is None:
        return None
    comps = {}
    offset = 0
    for n, size in zip(h_degrees, h_sizes):
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


def is_homotopy_iso(f: ChainMap) -> bool:
    """Whether f is invertible up to homotopy (cone contractible)."""
    cc, _, _ = cone(f)
    return is_contractible(cc) is not None


def chain_maps_homotopic(f: ChainMap, g: ChainMap) -> Optional[Homotopy]:
    return is_nullhomotopic(sub_chain_maps(f, g))


# -- hom complexes and derived hom ----------------------------------------------

def total_hom_complex(x: Complex, y: Complex) -> Complex:
    """The total Hom complex of two relation-free complexes.

    Degree-k entry: (+)_p Hom(X^p, Y^{p+k}); differential
    D(phi) = d_Y o phi - (-1)^k phi o d_X, so degree-0 cycles are chain maps
    and degree-(-1) images are the homotopies.
    """
    for c in (x, y):
        if not c.is_strict_free():
            raise UndecidableConfigurationError("hom complex needs relation-free entries")
    ring = x.ring
    lo = y.lo - x.hi
    hi = y.hi - x.lo

    def layout(k):
        ps = [p for p in range(max(x.lo, y.lo - k), min(x.hi, y.hi - k) + 1)
              if x.object_at(p).generators and y.object_at(p + k).generators]
        sizes = [x.object_at(p).generators * y.object_at(p + k).generators for p in ps]
        return ps, sizes

    mats = []
    for k in range(lo, hi):
        ps, sizes = layout(k)
        qs, tsizes = layout(k + 1)
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
        mats.append(block_matrix(ring, tsizes, sizes, blocks))
    ranks = [sum(layout(k)[1]) for k in range(lo, hi + 1)]
    objs = [FpModule.free(ring, r) for r in ranks]
    diffs = [FpMorphism(objs[i], objs[i + 1], m, IntMatrix.zeros(ring, 0, 0))
             for i, m in enumerate(mats)]
    return Complex(ring, BaseCategory.FREE_MODULES, lo, objs, diffs, check=False)


def derived_hom(x: Complex, y: Complex, n: int) -> FpModule:
    """H^n of the total Hom complex: chain maps X -> Y[n] modulo homotopy."""
    hc = total_hom_complex(x, y)
    return cohomology(hc, n)


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
        return zero_complex(c.ring, BaseCategory.FREE_MODULES)
    if len(pieces) == 1:
        return pieces[0]
    total, _ = direct_sum_complexes(pieces)
    return Complex(c.ring, BaseCategory.FREE_MODULES, total.lo,
                   total.objects, total.differentials, check=False)
