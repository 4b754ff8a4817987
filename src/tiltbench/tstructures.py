"""Executable t-structures on the implemented homotopy and derived categories.

Five variants act on bounded complexes:

* the natural t-structure on complexes of finitely presented abelian
  groups (soft truncation through kernels and images),
* the left and right t-structures on complexes over a free carrier, whose
  truncations cap a window with the carrier kernel of the next
  differential (left) or the carrier cokernel of the previous one (right),
* the tilt of the natural t-structure along the torsion pair
  (finite groups, free groups): the aisle keeps complexes whose top
  cohomology is torsion and nothing lives above degree zero,
* star aisles built from a window of stalk factors over a chosen class.

Truncations return the truncated complex together with its canonical
comparison map; memberships are decided by testing that comparison for
invertibility in the ambient category (contractible cone in the homotopy
category over free carriers, acyclic cone in the derived category of
finitely presented modules).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from typing import Optional

from . import modules, samplers, serialize
from .complexes import (
    BaseCategory,
    ChainMap,
    Complex,
    cohomology,
    compose_chain_maps,
    cone,
    derived_hom,
    free_complex,
    free_resolution,
    is_homotopy_iso,
    is_nullhomotopic,
    is_quasi_iso,
    stalk_complex,
    zero_complex,
)
from .exactness import Carrier, ExactStructure, e_cokernel, e_kernel
from .matrices import IntMatrix, block_matrix, solve_lift
from .modules import FpModule, FpMorphism
from .reports import CheckReport, run_samples
from .rings import RingSpec
from .samplers import SizeBounds

Z = RingSpec.INTEGERS


class TVariant(enum.Enum):
    NATURAL = "Natural"
    LEFT = "Left"
    RIGHT = "Right"
    HRS_TILT = "HRSTilt"
    STAR_AISLE = "StarAisle"


class ClassTag(enum.Enum):
    TORSION = "TorsionClassZ"
    FREE = "TorsionFreeClassZ"
    ALL_FP = "FpZ"


class UnsupportedClassTagError(ValueError):
    """Star membership requested for a class without a computable instance."""


class TStructureSpec:
    """A tagged description of a t-structure with executable truncation."""

    def __init__(self, variant: TVariant, ex: Optional[ExactStructure] = None,
                 star_class: Optional[ClassTag] = None, star_n: int = 1,
                 corrupt: bool = False):
        self.variant = variant
        self.ex = ex
        self.star_class = star_class
        self.star_n = star_n
        self.corrupt = corrupt
        if variant in (TVariant.LEFT, TVariant.RIGHT):
            if ex is None or ex.carrier not in (Carrier.FREE_Z, Carrier.FREE_POLY_Q):
                raise ValueError("left/right t-structures need a free carrier")
        if variant is TVariant.STAR_AISLE:
            if star_class is None or star_n < 1:
                raise ValueError("star aisle needs a class tag and n >= 1")

    @classmethod
    def natural(cls) -> "TStructureSpec":
        return cls(TVariant.NATURAL)

    @classmethod
    def left(cls, ex: ExactStructure) -> "TStructureSpec":
        return cls(TVariant.LEFT, ex=ex)

    @classmethod
    def right(cls, ex: ExactStructure) -> "TStructureSpec":
        return cls(TVariant.RIGHT, ex=ex)

    @classmethod
    def hrs_tilt(cls) -> "TStructureSpec":
        return cls(TVariant.HRS_TILT)

    @classmethod
    def star(cls, class_tag: ClassTag, n: int) -> "TStructureSpec":
        return cls(TVariant.STAR_AISLE, star_class=class_tag, star_n=n)

    @property
    def ambient_base(self) -> BaseCategory:
        if self.variant in (TVariant.LEFT, TVariant.RIGHT):
            return BaseCategory.FREE_MODULES
        return BaseCategory.FP_MODULES

    @property
    def localization(self) -> str:
        """How comparison maps are inverted: in K(E) or in D(fp-Z)."""
        if self.variant in (TVariant.LEFT, TVariant.RIGHT):
            return "homotopy"
        return "derived"

    def config_string(self) -> str:
        parts = [f"variant={self.variant.value}"]
        if self.ex is not None:
            parts.append(self.ex.config_string())
        if self.star_class is not None:
            parts.append(f"class={self.star_class.value}")
            parts.append(f"n={self.star_n}")
        if self.corrupt:
            parts.append("corrupt=1")
        return ",".join(parts)

    def __repr__(self) -> str:
        return f"TStructureSpec({self.config_string()})"


@dataclass
class HeartObject:
    spec: TStructureSpec
    representative: Complex


@dataclass
class TriangleData:
    sub: Complex
    total: Complex
    quotient: Complex
    sub_map: ChainMap
    quot_map: ChainMap


def _check_ambient(spec: TStructureSpec, x: Complex):
    if spec.ambient_base is BaseCategory.FREE_MODULES:
        if not x.is_strict_free():
            raise ValueError("this t-structure acts on complexes of free modules")
        if spec.ex is not None and x.ring is not spec.ex.ring:
            raise ValueError("complex ring does not match the carrier")
    else:
        if x.ring is not Z:
            raise ValueError("this t-structure acts on complexes over the integers")


def _identity_truncation(x: Complex) -> tuple[Complex, ChainMap]:
    return x, ChainMap.identity(x)


def _zero_truncation_le(x: Complex) -> tuple[Complex, ChainMap]:
    z = zero_complex(x.ring, x.base)
    return z, ChainMap.zero(z, x)


def _zero_truncation_ge(x: Complex) -> tuple[Complex, ChainMap]:
    z = zero_complex(x.ring, x.base)
    return z, ChainMap.zero(x, z)


def _cap_below_with(x: Complex, n: int, cap: FpModule, incl: FpMorphism
                    ) -> tuple[Complex, ChainMap]:
    """[X^{<n} -> cap] with the inclusion-induced map into X."""
    objs = [x.object_at(j) for j in range(x.lo, n)] + [cap]
    diffs = [x.differential_at(j) for j in range(x.lo, n - 1)]
    if n > x.lo:
        core = modules.factor(x.differential_at(n - 1), incl)
        if core is None:
            raise AssertionError("previous differential does not land in the cap")
        diffs.append(core)
    t = Complex(x.ring, x.base, x.lo if n > x.lo else n, objs, diffs, check=False)
    comps = {j: FpMorphism.identity(x.object_at(j)) for j in range(x.lo, n)}
    comps[n] = incl
    return t, ChainMap(t, x, comps, check=False)


def _quotient_above(x: Complex, n: int, q_mod: FpModule, proj: FpMorphism
                    ) -> tuple[Complex, ChainMap]:
    """[q_mod -> X^{>n}] with the map from X induced by proj : X^n -> q_mod."""
    objs = [q_mod] + [x.object_at(j) for j in range(n + 1, x.hi + 1)]
    diffs = []
    if n < x.hi:
        desc = modules.cofactor(x.differential_at(n), proj)
        if desc is None:
            raise AssertionError("differential does not descend to the quotient")
        diffs.append(desc)
        diffs.extend(x.differential_at(j) for j in range(n + 1, x.hi))
    t = Complex(x.ring, x.base, n, objs, diffs, check=False)
    comps = {n: proj}
    comps.update({j: FpMorphism.identity(x.object_at(j))
                  for j in range(n + 1, x.hi + 1)})
    return t, ChainMap(x, t, comps, check=False)


# -- the truncation table ------------------------------------------------------

def truncate_le(spec: TStructureSpec, n: int, x: Complex) -> tuple[Complex, ChainMap]:
    """The aisle truncation with its counit into x."""
    _check_ambient(spec, x)
    if spec.corrupt:
        # deliberately broken variant for negative controls: off-by-one cap
        return _truncate_le_honest(spec, n + 1, x)
    return _truncate_le_honest(spec, n, x)


def _truncate_le_honest(spec, n, x):
    v = spec.variant
    if v is TVariant.LEFT:
        if n >= x.hi:
            return _identity_truncation(x)
        if n < x.lo:
            return _zero_truncation_le(x)
        k, incl = e_kernel(x.differential_at(n), spec.ex)
        return _cap_below_with(x, n, k, incl)
    if v is TVariant.RIGHT:
        if n >= x.hi:
            return _identity_truncation(x)
        if n < x.lo - 1:
            return _zero_truncation_le(x)
        c, proj = e_cokernel(x.differential_at(n), spec.ex)
        objs = [x.object_at(j) for j in range(x.lo, n + 2)] + [c]
        diffs = [x.differential_at(j) for j in range(x.lo, n + 1)] + [proj]
        t = Complex(x.ring, x.base, x.lo, objs, diffs, check=False)
        comps = {j: FpMorphism.identity(x.object_at(j)) for j in range(x.lo, n + 2)}
        down = modules.cofactor(x.differential_at(n + 1), proj)
        if down is None:
            raise AssertionError("cokernel cap does not map back")
        comps[n + 2] = down
        return t, ChainMap(t, x, comps, check=False)
    if v is TVariant.NATURAL or v is TVariant.STAR_AISLE:
        if n >= x.hi:
            return _identity_truncation(x)
        if n < x.lo:
            return _zero_truncation_le(x)
        k, incl = modules.kernel(x.differential_at(n))
        return _cap_below_with(x, n, k, incl)
    if v is TVariant.HRS_TILT:
        if n > x.hi:
            return _identity_truncation(x)
        if n < x.lo:
            return _zero_truncation_le(x)
        k, incl = modules.kernel(x.differential_at(n))
        lifted = modules.factor(x.differential_at(n - 1), incl)
        h_mod, h_proj = modules.cokernel(lifted)
        f_mod, f_proj = modules.free_quotient(h_mod)
        to_free = modules.compose(f_proj, h_proj)
        k_tors, k_incl = modules.kernel(to_free)
        cap_incl = modules.compose(incl, k_incl)
        return _cap_below_with(x, n, k_tors, cap_incl)
    raise ValueError(f"unsupported variant {v}")


def truncate_ge(spec: TStructureSpec, n: int, x: Complex) -> tuple[Complex, ChainMap]:
    """The co-aisle truncation with its unit from x.

    The corrupted negative-control variant leaves this side honest, so the
    mismatch with the broken aisle truncation is observable.
    """
    _check_ambient(spec, x)
    return _truncate_ge_honest(spec, n, x)


def _truncate_ge_honest(spec, n, x):
    v = spec.variant
    if v is TVariant.LEFT:
        if n <= x.lo:
            return _identity_truncation(x)
        if n > x.hi + 1:
            return _zero_truncation_ge(x)
        k, incl = e_kernel(x.differential_at(n - 1), spec.ex)
        objs = [k] + [x.object_at(j) for j in range(n - 1, x.hi + 1)]
        diffs = [incl] + [x.differential_at(j) for j in range(n - 1, x.hi)]
        t = Complex(x.ring, x.base, n - 2, objs, diffs, check=False)
        comps = {j: FpMorphism.identity(x.object_at(j))
                 for j in range(n - 1, x.hi + 1)}
        if n - 2 >= x.lo:
            core = modules.factor(x.differential_at(n - 2), incl)
            if core is None:
                raise AssertionError("differential does not corestrict to the kernel cap")
            comps[n - 2] = core
        return t, ChainMap(x, t, comps, check=False)
    if v is TVariant.RIGHT:
        if n <= x.lo:
            return _identity_truncation(x)
        if n > x.hi:
            return _zero_truncation_ge(x)
        return _quotient_above(x, n, *e_cokernel(x.differential_at(n - 1), spec.ex))
    if v is TVariant.NATURAL or v is TVariant.STAR_AISLE:
        if n <= x.lo:
            return _identity_truncation(x)
        if n > x.hi:
            return _zero_truncation_ge(x)
        k, incl = modules.kernel(x.differential_at(n - 1))
        return _quotient_above(x, n - 1, *modules.cokernel(incl))
    if v is TVariant.HRS_TILT:
        if n <= x.lo:
            return _identity_truncation(x)
        if n > x.hi + 1:
            return _zero_truncation_ge(x)
        sub, counit = _truncate_le_honest(spec, n - 1, x)
        if sub.is_zero_complex():
            return _identity_truncation(x)
        cap_incl = counit.component_at(n - 1)
        return _quotient_above(x, n - 1, *modules.cokernel(cap_incl))
    raise ValueError(f"unsupported variant {v}")


# -- membership, hearts, triangles ------------------------------------------------

def _localized_iso(spec: TStructureSpec, f: ChainMap) -> bool:
    if spec.localization == "homotopy":
        return is_homotopy_iso(f)
    return is_quasi_iso(f)


def in_aisle(spec: TStructureSpec, n: int, x: Complex) -> bool:
    t, counit = truncate_le(spec, n, x)
    return _localized_iso(spec, counit)


def in_coaisle(spec: TStructureSpec, n: int, x: Complex) -> bool:
    t, unit = truncate_ge(spec, n, x)
    return _localized_iso(spec, unit)


def heart_membership(spec: TStructureSpec, x: Complex) -> bool:
    return in_aisle(spec, 0, x) and in_coaisle(spec, 0, x)


@dataclass
class ApproximatingTriangle:
    aisle_part: Complex
    total: Complex
    coaisle_part: Complex
    counit: ChainMap
    unit: ChainMap


def approximating_triangle(spec: TStructureSpec, x: Complex) -> ApproximatingTriangle:
    a, counit = truncate_le(spec, 0, x)
    b, unit = truncate_ge(spec, 1, x)
    return ApproximatingTriangle(a, x, b, counit, unit)


def triangle_is_distinguished(counit: ChainMap, unit: ChainMap,
                              localization: str) -> bool:
    """Whether (A -> X -> B) is a distinguished triangle.

    The composite must vanish, on the nose or up to a computed homotopy s;
    the comparison map cone(A -> X) -> B, corrected by s on the shifted
    part, must then be invertible in the ambient category.
    """
    comp = compose_chain_maps(unit, counit)
    literally_zero = all(modules.is_zero_morphism(comp.component_at(n))
                         for n in comp.source.degrees())
    homotopy = None
    if not literally_zero:
        if not (comp.source.is_strict_free() and comp.target.is_strict_free()):
            return False
        homotopy = is_nullhomotopic(comp)
        if homotopy is None:
            return False
    cone_c, _, _ = cone(counit)
    a = counit.source
    x = counit.target
    b = unit.target
    comps = {}
    for n in cone_c.degrees():
        # cone^n = X^n (+) A^{n+1}: phi^n = [unit^n, s^{n+1}] : cone^n -> B^n
        blocks = {(0, 0): unit.component_at(n)}
        if homotopy is not None:
            blocks[0, 1] = homotopy.component_at(n + 1)
        comps[n] = modules.block_morphism(cone_c.object_at(n), b.object_at(n),
                                          [x.object_at(n), a.object_at(n + 1)],
                                          [b.object_at(n)], blocks)
    phi = ChainMap(cone_c, b, comps, check=False)
    if localization == "homotopy":
        return is_homotopy_iso(phi)
    return is_quasi_iso(phi)


def t_cohomology(spec: TStructureSpec, n: int, x: Complex) -> Complex:
    """A heart representative of the n-th t-cohomology."""
    t1, _ = truncate_le(spec, n, x)
    t2, _ = truncate_ge(spec, n, t1)
    return t2


# -- star aisles ---------------------------------------------------------------

@dataclass
class StarFactor:
    degree: int
    module: FpModule


@dataclass
class StarDecomposition:
    triangles: list[TriangleData]
    window_part: Complex
    factors: list[StarFactor]


def _brutal_sub_triangle(w: Complex, d: int) -> TriangleData:
    """The degreewise-split triangle (w^{>=d}, w, w^{<=d-1})."""
    hi_part = Complex(w.ring, w.base, d,
                      [w.object_at(j) for j in range(d, w.hi + 1)],
                      [w.differential_at(j) for j in range(d, w.hi)], check=False)
    lo_part = Complex(w.ring, w.base, w.lo,
                      [w.object_at(j) for j in range(w.lo, d)],
                      [w.differential_at(j) for j in range(w.lo, d - 1)], check=False)
    sub_map = ChainMap(hi_part, w, {j: FpMorphism.identity(w.object_at(j))
                                    for j in range(d, w.hi + 1)}, check=False)
    quot_map = ChainMap(w, lo_part, {j: FpMorphism.identity(w.object_at(j))
                                     for j in range(w.lo, d)}, check=False)
    return TriangleData(hi_part, w, lo_part, sub_map, quot_map)


def star_membership(x: Complex, class_tag: ClassTag, n: int
                    ) -> Optional[StarDecomposition]:
    """Membership in the star aisle window ^{<= -n} * E * E[1] * ... * E[n-1].

    For n = 1 with the torsion class this is the tilted-aisle criterion:
    vanishing cohomology above zero and torsion top cohomology.  For n >= 2
    only the trivial class of all finitely presented modules is computable
    among the catalogued instances, and the decomposition peels stalk
    factors off a window representative by degreewise-split truncations.
    """
    if n < 1:
        raise ValueError("star index must be at least 1")
    if class_tag is ClassTag.TORSION and n > 1:
        raise UnsupportedClassTagError(
            "no computable nontrivial torsion star instance for n >= 2")
    if class_tag is ClassTag.FREE:
        raise UnsupportedClassTagError(
            "the free class is not a star class here (cogeneration fails)")
    if class_tag is ClassTag.TORSION:
        for j in range(1, x.hi + 1):
            if not cohomology(x, j).is_zero_module():
                return None
        h0 = cohomology(x, 0)
        if not h0.is_torsion():
            return None
        spec = TStructureSpec.natural()
        t, _ = truncate_le(spec, 0, x)
        a, counit = truncate_le(spec, -1, t)
        b, unit = truncate_ge(spec, 0, t)
        tri = TriangleData(a, t, b, counit, unit)
        return StarDecomposition([tri], a, [StarFactor(0, modules.reduce_presentation(h0))])
    # trivial class: the aisle is every complex with no cohomology above zero
    for j in range(1, x.hi + 1):
        if not cohomology(x, j).is_zero_module():
            return None
    spec = TStructureSpec.natural()
    t, _ = truncate_le(spec, 0, x)
    a, counit = truncate_le(spec, -n, t)
    b, unit = truncate_ge(spec, -n + 1, t)
    triangles = [TriangleData(a, t, b, counit, unit)]
    factors = []
    # fold the windowed part into degrees [-n+1, 0]; the fold is a
    # quasi-isomorphism because the bottom differential is injective
    w = _cokernel_form_window(b, -n + 1)
    for d in range(0, -n, -1):
        if w.is_zero_complex() or w.hi < d:
            factors.append(StarFactor(d, FpModule.zero(x.ring)))
            continue
        if w.lo >= d:
            factors.append(StarFactor(d, modules.reduce_presentation(w.object_at(d))))
            continue
        tri = _brutal_sub_triangle(w, d)
        triangles.append(tri)
        factors.append(StarFactor(d, modules.reduce_presentation(w.object_at(d))))
        w = tri.quotient
    return StarDecomposition(triangles, a, factors)


def _cokernel_form_window(b: Complex, m: int) -> Complex:
    """Replace entries below m by the cokernel entering degree m.

    Valid as a quasi-isomorphic replacement when H^{<m}(b) = 0 and the
    differential into degree m is injective, which truncation quotients
    satisfy by construction.
    """
    if b.lo >= m:
        return b
    if b.lo < m - 1:
        raise ValueError("window fold expects at most one entry below the cut")
    return _quotient_above(b, m, *modules.cokernel(b.differential_at(m - 1)))[0]


# -- heart equivalence with the module category ------------------------------------

def left_heart_to_module(spec: TStructureSpec, x: Complex) -> FpModule:
    """The cokernel of the presenting differential of a left-heart object."""
    if spec.variant is not TVariant.LEFT:
        raise ValueError("heart equivalence is implemented for the left heart")
    if not heart_membership(spec, x):
        raise ValueError("complex is not a left-heart object")
    r, _ = truncate_le(spec, 0, x)
    # the aisle representative tops out in degree <= 0; the heart object is
    # the cokernel of its (-1 -> 0) differential (a zero map at the edges)
    return FpModule(r.differential_at(-1).gen)


def module_to_left_heart(spec: TStructureSpec, m: FpModule) -> HeartObject:
    """A two-term free presentation complex representing the heart object."""
    reduced = modules.reduce_presentation(m)
    if reduced.relations == 0:
        rep = free_complex(m.ring, 0, [], first_rank=reduced.generators)
    else:
        rep = free_complex(m.ring, -1, [reduced.presentation])
    return HeartObject(spec, rep)


def left_heart_map_to_module_map(f: ChainMap) -> FpMorphism:
    """Transport a map of heart representatives to the module cokernels."""
    mx = FpModule(f.source.differential_at(-1).gen if f.source.lo < 0
                  else IntMatrix.zeros(f.source.ring,
                                       f.source.object_at(0).generators, 0))
    my = FpModule(f.target.differential_at(-1).gen if f.target.lo < 0
                  else IntMatrix.zeros(f.target.ring,
                                       f.target.object_at(0).generators, 0))
    return FpMorphism.from_generator_matrix(mx, my, f.component_at(0).gen)


def module_map_to_left_heart_map(psi: FpMorphism, hx: Complex, hy: Complex) -> ChainMap:
    """Lift a module map to the heart representatives by projectivity."""
    comps = {0: FpMorphism.from_generator_matrix(
        hx.object_at(0), hy.object_at(0), psi.gen)}
    for n in range(-1, hx.lo - 1, -1):
        prev = comps[n + 1]
        rhs = prev.gen * hx.differential_at(n).gen
        if hy.lo > n:
            if rhs.is_zero():
                break
            raise AssertionError("no room to lift the chain map")
        sol = solve_lift(hy.differential_at(n).gen, rhs)
        if sol is None:
            raise AssertionError("comparison lift failed on exact representatives")
        comps[n] = FpMorphism.from_generator_matrix(
            hx.object_at(n), hy.object_at(n), sol)
    return ChainMap(hx, hy, comps, check=False)


def intersection_normal_form(spec1: TStructureSpec, spec2: TStructureSpec,
                             x: Complex) -> Optional[FpModule]:
    """The free stalk a complex in both hearts is isomorphic to, or None."""
    variants = {spec1.variant, spec2.variant}
    if variants != {TVariant.LEFT, TVariant.RIGHT}:
        raise ValueError("intersection normal form needs the left/right pair")
    left = spec1 if spec1.variant is TVariant.LEFT else spec2
    if not (heart_membership(spec1, x) and heart_membership(spec2, x)):
        return None
    r, _ = truncate_le(left, 0, x)
    if r.lo == r.hi and r.hi == 0:
        c_mod = r.object_at(0)
        return modules.reduce_presentation(c_mod)
    c_mod, proj = e_cokernel(r.differential_at(-1), left.ex)
    stalk = stalk_complex(c_mod, 0, base=BaseCategory.FREE_MODULES)
    q = ChainMap(r, stalk, {0: proj}, check=False)
    if not is_homotopy_iso(q):
        return None
    return modules.reduce_presentation(c_mod)


# -- axiom checking -----------------------------------------------------------------

def _sample_for(spec: TStructureSpec, rnd, bounds: SizeBounds) -> Complex:
    if spec.ambient_base is BaseCategory.FREE_MODULES:
        return samplers.random_free_complex(rnd, bounds)
    return samplers.random_fp_complex(rnd, bounds)


def _resolve(spec: TStructureSpec, c: Complex) -> Complex:
    if c.is_strict_free():
        return c
    return free_resolution(c)


def check_tstructure_axioms(spec: TStructureSpec, sample_budget: int,
                            seed: int, bounds: SizeBounds = SizeBounds()
                            ) -> CheckReport:
    """Sampled verification of the aisle axioms.

    Per sample: the aisle is closed under shift, the truncation pieces are
    orthogonal (their hom group in the localized category vanishes), and
    the approximating triangle is distinguished with its parts in the
    correct classes.  Failures carry serialised counterexamples.
    """
    return run_samples(sample_budget, seed, ("axiom", spec.config_string()),
                       partial(_axiom_sample, spec), bounds)


def _axiom_sample(spec: TStructureSpec, rnd, bounds: SizeBounds):
    x = _sample_for(spec, rnd, bounds)
    x2 = _sample_for(spec, rnd, bounds)
    a, counit = truncate_le(spec, 0, x)
    b, unit = truncate_ge(spec, 1, x2)
    payload = {"sample": serialize.complex_to_json(x),
               "second": serialize.complex_to_json(x2)}
    if not in_aisle(spec, 0, a):
        yield "aisle_membership_of_truncation", payload
    if not in_aisle(spec, 0, a.shift(1)):
        yield "aisle_shift_closure", payload
    hom0 = derived_hom(_resolve(spec, a), _resolve(spec, b), 0)
    if not hom0.is_zero_module():
        yield "orthogonality", payload
    tri = approximating_triangle(spec, x)
    if not triangle_is_distinguished(tri.counit, tri.unit, spec.localization):
        yield "approximating_triangle", payload
    if not in_coaisle(spec, 1, tri.coaisle_part):
        yield "coaisle_membership_of_truncation", payload


# -- tilting class checks --------------------------------------------------------------

def _class_contains(tag: ClassTag, m: FpModule) -> bool:
    if tag is ClassTag.ALL_FP:
        return True
    if tag is ClassTag.TORSION:
        return m.is_torsion()
    return m.is_free()


def _sample_class_module(tag: ClassTag, rnd, bounds: SizeBounds) -> FpModule:
    if tag is ClassTag.ALL_FP:
        return samplers.random_module(rnd, bounds)
    if tag is ClassTag.TORSION:
        return samplers.random_torsion_module(rnd, bounds)
    return samplers.random_free_module(rnd, bounds)


def cogeneration_witness(tag: ClassTag, m: FpModule) -> Optional[FpMorphism]:
    """An embedding of m into a class object, produced from normal-form data."""
    if tag is ClassTag.ALL_FP:
        return FpMorphism.identity(m)
    if tag is ClassTag.TORSION:
        if m.is_torsion():
            return FpMorphism.identity(m)
        return None
    return modules.embed_into_free(m)


def tilting_class_check(class_tag: ClassTag, n: int, sample_budget: int,
                        seed: int, bounds: SizeBounds = SizeBounds(),
                        mode: str = "tilting") -> CheckReport:
    """Sampled verification of the tilting-class conditions for a class.

    Checks cogeneration (or generation, in the cotilting-dual mode),
    extension closure, existence of kernels (closure under subobjects in
    the dual mode), and the n-step cokernel condition (kernel condition in
    the dual mode).
    """
    return run_samples(sample_budget, seed, ("tilting", class_tag.value, n, mode),
                       partial(_tilting_sample, class_tag, n, mode), bounds)


def _tilting_sample(class_tag: ClassTag, n: int, mode: str, rnd, bounds: SizeBounds):
    sample = samplers.random_module(rnd, bounds)
    payload = {"module": serialize.module_to_json(sample)}
    if mode == "tilting":
        if cogeneration_witness(class_tag, sample) is None:
            yield "cogeneration", payload
    else:
        # generation: the canonical cover from the generators must be an
        # epimorphism from a class object
        cover = FpModule.free(Z, sample.generators)
        epi = FpMorphism.from_generator_matrix(
            cover, sample, IntMatrix.identity(Z, sample.generators))
        if not modules.is_epi(epi) or not _class_contains(class_tag, cover):
            yield "generation", payload
    # extension closure: reduced presentations make every block honest
    s_mod = _sample_class_module(class_tag, rnd, bounds)
    q_mod = _sample_class_module(class_tag, rnd, bounds)
    s_red = modules.reduce_presentation(s_mod)
    q_red = modules.reduce_presentation(q_mod)
    delta = samplers.random_matrix(rnd, s_red.generators, q_red.relations,
                                   bounds.max_entry)
    middle = FpModule(block_matrix(
        Z, [s_red.generators, q_red.generators], [s_red.relations, q_red.relations],
        {(0, 0): s_red.presentation, (0, 1): delta, (1, 1): q_red.presentation}))
    if not _class_contains(class_tag, modules.reduce_presentation(middle)):
        yield "extension_closure", {"middle": serialize.module_to_json(middle)}
    if mode == "tilting":
        # kernels inside the class
        src = _sample_class_module(class_tag, rnd, bounds)
        tgt = _sample_class_module(class_tag, rnd, bounds)
        f = samplers.random_morphism(rnd, src, tgt)
        k, _ = modules.kernel(f)
        if not _class_contains(class_tag, modules.reduce_presentation(k)):
            yield "kernel_closure", {"kernel": serialize.module_to_json(k)}
        # n-step cokernel condition
        if n == 1:
            host = _sample_class_module(class_tag, rnd, bounds)
            g = samplers.random_morphism(rnd, samplers.random_module(rnd, bounds), host)
            sub, incl = modules.image(g)
            c, _ = modules.cokernel(incl)
        else:
            x2 = _sample_class_module(class_tag, rnd, bounds)
            x1 = _sample_class_module(class_tag, rnd, bounds)
            f2 = samplers.random_morphism(rnd, x2, x1)
            c, _ = modules.cokernel(f2)
        if not _class_contains(class_tag, modules.reduce_presentation(c)):
            yield "cokernel_condition", {"quotient": serialize.module_to_json(c)}
    else:
        # dual: closure under subobjects
        host = _sample_class_module(class_tag, rnd, bounds)
        g = samplers.random_morphism(rnd, samplers.random_module(rnd, bounds), host)
        sub, _ = modules.image(g)
        if not _class_contains(class_tag, modules.reduce_presentation(sub)):
            yield "subobject_closure", {"subobject": serialize.module_to_json(sub)}
