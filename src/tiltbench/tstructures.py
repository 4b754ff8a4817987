"""Executable t-structures on the implemented homotopy and derived categories.

Four variants act on bounded complexes:

* the natural t-structure on complexes of finitely presented abelian
  groups (soft truncation through kernels and images),
* the left and right t-structures on complexes over the free carrier, whose
  truncations cap a window with the carrier kernel of the next
  differential (left) or the carrier cokernel of the previous one (right),
* the tilt of the natural t-structure along the torsion pair
  (finite groups, free groups): the aisle keeps complexes whose top
  cohomology is torsion and nothing lives above degree zero.

Star aisles over a chosen class are decided by ``star_membership``, which
peels a window of stalk factors off the natural truncation.

A truncation is its comparison map, as tau_{<=n} is right adjoint to the
inclusion of the aisle (Beilinson-Bernstein-Deligne, 1.3): ``truncate_le``
returns the counit tau_{<=n} x -> x, whose source is the truncation, and
``truncate_ge`` the unit x -> tau_{>=n} x, whose target is.  Every truncated
complex is x's entries in a window of degrees with at most one new entry at
either end, given by its differential (``_splice``), and its map is the
identity on the window.  Memberships are decided by testing that map for
invertibility in the ambient category, which holds iff its cone is exact
(``is_quasi_iso``): over a PID a quasi-isomorphism of bounded free
complexes is a homotopy equivalence, so one decision serves the homotopy
category over the free carrier and the derived category of finitely
presented modules.  On the window that cone is the cone of the identity,
which ``total_is_exact`` drops unread, so a membership diagonalises only
the degrees at the window's edge and beyond it.  A triangle A -> X -> B is
its pair (counit, unit) of chain maps; A, X and B are counit.source,
counit.target and unit.target.  It is distinguished iff its composite
vanishes up to a homotopy s and the cone of the comparison map
cone(A -> X) -> B is exact; that cone is the total complex of B <- X <- A
along the unit, the counit and s (``total_is_exact``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from . import modules
from .complexes import (
    ChainMap,
    Complex,
    cohomology,
    compose_chain_maps,
    free_complex,
    is_nullhomotopic,
    is_quasi_iso,
    stalk_complex,
    total_is_exact,
    zero_complex,
)
from .exactness import Carrier, ExactStructure, Flavor, e_cokernel, e_kernel
from .matrices import solve_lift
from .modules import FpModule, FpMorphism
from .rings import RingSpec

Z = RingSpec.INTEGERS


class TVariant(enum.Enum):
    NATURAL = "Natural"
    LEFT = "Left"
    RIGHT = "Right"
    HRS_TILT = "HRSTilt"


class ClassTag(enum.Enum):
    TORSION = "TorsionClassZ"
    FREE = "TorsionFreeClassZ"
    ALL_FP = "FpZ"


class UnsupportedClassTagError(ValueError):
    """Star membership requested for a class without a computable instance."""


# the carrier whose kernels and cokernels cap the left and right truncations
_FREE_CARRIER = ExactStructure(Carrier.FREE_Z, Flavor.SPLIT)


class TStructureSpec:
    """A tagged description of a t-structure with executable truncation."""

    def __init__(self, variant: TVariant, *, corrupt: bool = False):
        self.variant = variant
        self.corrupt = corrupt
        if corrupt and variant is not TVariant.NATURAL:
            raise ValueError("the corrupted control is a natural t-structure")

    @property
    def acts_on_free_complexes(self) -> bool:
        """Complexes of free modules up to homotopy (K(E)) for the left and
        right t-structures; complexes of fp modules in D(fp-Z) otherwise."""
        return self.variant in (TVariant.LEFT, TVariant.RIGHT)

    def config_string(self) -> str:
        parts = [f"variant={self.variant.value}"]
        if self.acts_on_free_complexes:
            parts.append(_FREE_CARRIER.config_string())
        if self.corrupt:
            parts.append("corrupt=1")
        return ",".join(parts)

    def __repr__(self) -> str:
        return f"TStructureSpec({self.config_string()})"


NATURAL = TStructureSpec(TVariant.NATURAL)
LEFT = TStructureSpec(TVariant.LEFT)
RIGHT = TStructureSpec(TVariant.RIGHT)
HRS = TStructureSpec(TVariant.HRS_TILT)
CORRUPTED = TStructureSpec(TVariant.NATURAL, corrupt=True)


def _check_ambient(spec: TStructureSpec, x: Complex):
    if x.ring is not Z:
        raise ValueError("this t-structure acts on complexes over the integers")
    if spec.acts_on_free_complexes and not x.is_strict_free():
        raise ValueError("this t-structure acts on complexes of free modules")


def _splice(x: Complex, lo: int, hi: int, below: Optional[FpMorphism] = None,
            above: Optional[FpMorphism] = None) -> Complex:
    """x's entries in degrees lo..hi, with one new entry in degree lo - 1
    given by its differential below : B -> x^lo, or in degree hi + 1 given by
    above : x^hi -> A.  Over an empty window the new entry stands alone."""
    joined = hi >= lo  # a new entry's differential joins it to the window
    objs = [x.object_at(j) for j in range(lo, hi + 1)]
    diffs = [x.differential_at(j) for j in range(lo, hi)]
    if below is not None:
        objs, diffs, lo = [below.source, *objs], [below] * joined + diffs, lo - 1
    if above is not None:
        objs, diffs = [*objs, above.target], diffs + [above] * joined
    return Complex(x.ring, lo, objs, diffs)


def _identity_on(x: Complex, lo: int, hi: int) -> dict[int, FpMorphism]:
    return {j: FpMorphism.identity(x.object_at(j)) for j in range(lo, hi + 1)}


def _induced(h: Optional[FpMorphism]) -> FpMorphism:
    """A map a truncation induces on a new entry; it exists since d o d = 0."""
    if h is None:
        raise AssertionError("a differential does not factor through the new entry")
    return h


# -- the truncation table ------------------------------------------------------

def truncate_le(spec: TStructureSpec, n: int, x: Complex) -> ChainMap:
    """The counit tau_{<=n} x -> x of the aisle truncation, its source."""
    _check_ambient(spec, x)
    if spec.corrupt:  # the negative control: an off-by-one cap
        n += 1
    v = spec.variant
    # the tilt still cuts x at its top degree; the right cap reaches one below x
    if n >= x.hi + (v is TVariant.HRS_TILT):
        return ChainMap.identity(x)
    if n < x.lo - (v is TVariant.RIGHT):
        return ChainMap.zero(zero_complex(x.ring), x)
    if v is TVariant.RIGHT:  # x up to degree n + 1, capped by the carrier cokernel of d^n
        proj = e_cokernel(x.differential_at(n), _FREE_CARRIER)[1]
        down = _induced(modules.cofactor(x.differential_at(n + 1), proj))
        return ChainMap(_splice(x, x.lo, n + 1, above=proj), x,
                        {**_identity_on(x, x.lo, n + 1), n + 2: down})
    # x below degree n, capped by a submodule of ker d^n
    if v is TVariant.LEFT:
        incl = e_kernel(x.differential_at(n), _FREE_CARRIER)[1]
    else:
        incl = modules.kernel(x.differential_at(n))[1]
    if v is TVariant.HRS_TILT:  # the cycles whose class in H^n is torsion
        lifted = modules.factor(x.differential_at(n - 1), incl)
        h_proj = modules.cokernel_projection(lifted)
        to_free = modules.compose(modules.free_quotient(h_proj.target)[1], h_proj)
        incl = modules.compose(incl, modules.kernel(to_free)[1])
    core = _induced(modules.factor(x.differential_at(n - 1), incl))
    return ChainMap(_splice(x, x.lo, n - 1, above=core), x,
                    {**_identity_on(x, x.lo, n - 1), n: incl})


def truncate_ge(spec: TStructureSpec, n: int, x: Complex) -> ChainMap:
    """The unit x -> tau_{>=n} x of the co-aisle truncation, its target.

    The corrupted negative-control variant leaves this side honest, so the
    mismatch with the broken aisle truncation is observable.
    """
    _check_ambient(spec, x)
    v = spec.variant
    if n <= x.lo:
        return ChainMap.identity(x)
    # the left kernel and the tilted quotient still reach one above x
    if n > x.hi + (v in (TVariant.LEFT, TVariant.HRS_TILT)):
        return ChainMap.zero(x, zero_complex(x.ring))
    if v is TVariant.LEFT:  # x from degree n - 1 on, below it the carrier kernel of d^{n-1}
        incl = e_kernel(x.differential_at(n - 1), _FREE_CARRIER)[1]
        comps = _identity_on(x, n - 1, x.hi)
        if n - 2 >= x.lo:
            comps[n - 2] = _induced(modules.factor(x.differential_at(n - 2), incl))
        return ChainMap(x, _splice(x, n - 1, x.hi, below=incl), comps)
    # x above degree m, below it a quotient proj : x^m -> Q
    if v is TVariant.RIGHT:
        m, proj = n, e_cokernel(x.differential_at(n - 1), _FREE_CARRIER)[1]
    elif v is TVariant.NATURAL:
        m, proj = n - 1, modules.cokernel_projection(modules.kernel(x.differential_at(n - 1))[1])
    else:
        counit = truncate_le(spec, n - 1, x)
        if counit.source.is_zero_complex():
            return ChainMap.identity(x)
        m, proj = n - 1, modules.cokernel_projection(counit.component_at(n - 1))
    desc = _induced(modules.cofactor(x.differential_at(m), proj))
    return ChainMap(x, _splice(x, m + 1, x.hi, below=desc),
                    {m: proj, **_identity_on(x, m + 1, x.hi)})


# -- membership, hearts, triangles ------------------------------------------------

def in_aisle(spec: TStructureSpec, n: int, x: Complex) -> bool:
    return is_quasi_iso(truncate_le(spec, n, x))


def in_coaisle(spec: TStructureSpec, n: int, x: Complex) -> bool:
    return is_quasi_iso(truncate_ge(spec, n, x))


def heart_membership(spec: TStructureSpec, x: Complex) -> bool:
    return in_aisle(spec, 0, x) and in_coaisle(spec, 0, x)


def approximating_triangle(spec: TStructureSpec, x: Complex) -> tuple[ChainMap, ChainMap]:
    """The triangle tau_{<=0} x -> x -> tau_{>=1} x as its (counit, unit)."""
    return truncate_le(spec, 0, x), truncate_ge(spec, 1, x)


def triangle_is_distinguished(counit: ChainMap, unit: ChainMap) -> bool:
    """Whether (A -> X -> B) is a distinguished triangle.

    The composite must vanish, on the nose or up to a computed homotopy s;
    the comparison map cone(A -> X) -> B, corrected by s on the shifted
    part, must then be invertible, i.e. its cone, the total complex of
    B <- X <- A along the unit, the counit and s, must be exact.
    """
    a, x, b = counit.source, counit.target, unit.target
    s = {}
    if not all(modules.composite_is_zero(unit.component_at(n), counit.component_at(n))
               for n in a.degrees()):
        if not (a.is_strict_free() and b.is_strict_free()):
            return False
        homotopy = is_nullhomotopic(compose_chain_maps(unit, counit))
        if homotopy is None:
            return False
        s = homotopy.components
    return total_is_exact([b, x, a], {(0, 1): unit.components, (1, 2): counit.components,
                                      (0, 2): s})


def t_cohomology(spec: TStructureSpec, n: int, x: Complex) -> Complex:
    """A heart representative of the n-th t-cohomology."""
    return truncate_ge(spec, n, truncate_le(spec, n, x).source).target


# -- star aisles ---------------------------------------------------------------

@dataclass
class StarFactor:
    degree: int
    module: FpModule


@dataclass
class StarDecomposition:
    triangles: list[tuple[ChainMap, ChainMap]]
    factors: list[StarFactor]


def _brutal_sub_triangle(w: Complex, d: int) -> tuple[ChainMap, ChainMap]:
    """The degreewise-split triangle w^{>=d} -> w -> w^{<=d-1}."""
    return (ChainMap(_splice(w, d, w.hi), w, _identity_on(w, d, w.hi)),
            ChainMap(w, _splice(w, w.lo, d - 1), _identity_on(w, w.lo, d - 1)))


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
    # both star aisles hold only complexes with no cohomology above zero
    for j in range(1, x.hi + 1):
        if not cohomology(x, j).is_zero_module():
            return None
    if class_tag is ClassTag.TORSION:
        h0 = cohomology(x, 0)
        if not h0.is_torsion():
            return None
    t = truncate_le(NATURAL, 0, x).source
    triangles = [(truncate_le(NATURAL, -n, t), truncate_ge(NATURAL, -n + 1, t))]
    if class_tag is ClassTag.TORSION:
        return StarDecomposition(triangles, [StarFactor(0, modules.reduce_presentation(h0))])
    # trivial class: that is the whole criterion
    factors = []
    # fold the windowed part into degrees [-n+1, 0]; the fold is a
    # quasi-isomorphism because the bottom differential is injective
    w = _cokernel_form_window(triangles[0][1].target, -n + 1)
    for d in range(0, -n, -1):
        if w.is_zero_complex() or w.hi < d:
            factors.append(StarFactor(d, FpModule.zero(x.ring)))
            continue
        if w.lo >= d:
            factors.append(StarFactor(d, modules.reduce_presentation(w.object_at(d))))
            continue
        triangles.append(_brutal_sub_triangle(w, d))
        factors.append(StarFactor(d, modules.reduce_presentation(w.object_at(d))))
        w = triangles[-1][1].target
    return StarDecomposition(triangles, factors)


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
    proj = modules.cokernel_projection(b.differential_at(m - 1))
    return _splice(b, m + 1, b.hi, below=_induced(modules.cofactor(b.differential_at(m), proj)))


# -- heart equivalence with the module category ------------------------------------

def left_heart_to_module(spec: TStructureSpec, x: Complex) -> FpModule:
    """The cokernel of the presenting differential of a left-heart object."""
    if spec.variant is not TVariant.LEFT:
        raise ValueError("heart equivalence is implemented for the left heart")
    if not heart_membership(spec, x):
        raise ValueError("complex is not a left-heart object")
    r = truncate_le(spec, 0, x).source
    # the aisle representative tops out in degree <= 0; the heart object is
    # the cokernel of its (-1 -> 0) differential (a zero map at the edges)
    return FpModule(r.differential_at(-1).gen)


def module_to_left_heart(m: FpModule) -> Complex:
    """A two-term free presentation complex representing m in the left heart."""
    reduced = modules.reduce_presentation(m)
    if reduced.relations == 0:
        return free_complex(m.ring, 0, [], first_rank=reduced.generators)
    return free_complex(m.ring, -1, [reduced.presentation])


def left_heart_map_to_module_map(f: ChainMap) -> FpMorphism:
    """Transport a map of heart representatives to the module cokernels."""
    mx = FpModule(f.source.differential_at(-1).gen)
    my = FpModule(f.target.differential_at(-1).gen)
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
    return ChainMap(hx, hy, comps)


def intersection_normal_form(spec1: TStructureSpec, spec2: TStructureSpec,
                             x: Complex) -> Optional[FpModule]:
    """The free stalk a complex in both hearts is isomorphic to, or None."""
    variants = {spec1.variant, spec2.variant}
    if variants != {TVariant.LEFT, TVariant.RIGHT}:
        raise ValueError("intersection normal form needs the left/right pair")
    left = spec1 if spec1.variant is TVariant.LEFT else spec2
    if not (heart_membership(spec1, x) and heart_membership(spec2, x)):
        return None
    r = truncate_le(left, 0, x).source
    if r.lo == r.hi and r.hi == 0:
        c_mod = r.object_at(0)
        return modules.reduce_presentation(c_mod)
    c_mod, proj = e_cokernel(r.differential_at(-1), _FREE_CARRIER)
    q = ChainMap(r, stalk_complex(c_mod, 0), {0: proj})
    if not is_quasi_iso(q):
        return None
    return modules.reduce_presentation(c_mod)


# -- tilting classes ---------------------------------------------------------------

def cogeneration_witness(tag: ClassTag, m: FpModule) -> Optional[FpMorphism]:
    """An embedding of m into a class object, produced from normal-form data."""
    if tag is ClassTag.ALL_FP:
        return FpMorphism.identity(m)
    if tag is ClassTag.TORSION:
        if m.is_torsion():
            return FpMorphism.identity(m)
        return None
    return modules.embed_into_free(m)
