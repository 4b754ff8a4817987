"""Catalogued Quillen exact structures and their decision procedures.

The carriers are closed catalogue entries, not user predicates: free
abelian groups, all finitely presented abelian groups, finite groups, and
free modules over Q[x]; the flavours are the split structure, the maximal
structure, and the structure inherited from the ambient module category by
a torsion or torsion-free class.

Each structure decides deflations and inflations, computes kernels and
cokernels inside its carrier, and exposes the relativised kernel whose
universal property holds only after passing to a deflation cover; for the
catalogued carriers the ordinary kernel works with an identity cover, and
the cover protocol is materialised as a function value so the existential
in the contract stays executable.
"""

from __future__ import annotations

import enum
from typing import Callable

from . import modules
from .complexes import Complex
from .modules import FpModule, FpMorphism
from .rings import RingSpec


class Carrier(enum.Enum):
    FREE_Z = "FreeZ"
    FP_Z = "FpZ"
    TORSION_Z = "TorsionClassZ"
    TORSION_FREE_Z = "TorsionFreeClassZ"
    FREE_POLY_Q = "FreePolyQ"


class Flavor(enum.Enum):
    SPLIT = "Split"
    MAXIMAL = "Maximal"
    INHERITED = "Inherited"


_VALID = {
    Carrier.FREE_Z: {Flavor.SPLIT, Flavor.MAXIMAL},
    Carrier.FP_Z: {Flavor.SPLIT, Flavor.MAXIMAL},
    Carrier.TORSION_Z: {Flavor.INHERITED, Flavor.SPLIT},
    Carrier.TORSION_FREE_Z: {Flavor.INHERITED, Flavor.SPLIT},
    Carrier.FREE_POLY_Q: {Flavor.SPLIT, Flavor.MAXIMAL},
}

_FREE_CARRIERS = {Carrier.FREE_Z, Carrier.TORSION_FREE_Z, Carrier.FREE_POLY_Q}


class CarrierMismatchError(ValueError):
    """A module or morphism does not live in the structure's carrier."""


class ExactStructure:
    def __init__(self, carrier: Carrier, flavor: Flavor):
        if flavor not in _VALID[carrier]:
            raise ValueError(f"flavor {flavor.value} not catalogued on {carrier.value}")
        self.carrier = carrier
        self.flavor = flavor

    @property
    def ring(self) -> RingSpec:
        if self.carrier is Carrier.FREE_POLY_Q:
            return RingSpec.RATIONAL_POLYNOMIALS
        return RingSpec.INTEGERS

    def contains(self, m: FpModule) -> bool:
        if m.ring is not self.ring:
            return False
        if self.carrier in _FREE_CARRIERS:
            return m.is_free()
        if self.carrier is Carrier.TORSION_Z:
            return m.is_torsion()
        return True  # FP_Z

    def check_module(self, m: FpModule):
        if not self.contains(m):
            raise CarrierMismatchError(
                f"{m!r} is not an object of carrier {self.carrier.value}")

    def check_morphism(self, f: FpMorphism):
        self.check_module(f.source)
        self.check_module(f.target)

    def config_string(self) -> str:
        return f"carrier={self.carrier.value},flavor={self.flavor.value}"

    def __repr__(self) -> str:
        return f"ExactStructure({self.config_string()})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExactStructure)
                and self.carrier is other.carrier and self.flavor is other.flavor)

    def __hash__(self):
        return hash((self.carrier, self.flavor))


# -- deflation / inflation predicates -----------------------------------------

def is_deflation(f: FpMorphism, ex: ExactStructure) -> bool:
    ex.check_morphism(f)
    if ex.flavor is Flavor.SPLIT:
        return modules.factor(FpMorphism.identity(f.target), f) is not None
    if ex.flavor is Flavor.MAXIMAL:
        if ex.carrier is Carrier.FP_Z:
            return modules.is_epi(f)
        return _is_cokernel_of_its_kernel(f, ex)
    # inherited: ambient epi with kernel in the class
    if not modules.is_epi(f):
        return False
    k, _ = modules.kernel(f)
    return ex.contains(modules.reduce_presentation(k))


def is_inflation(f: FpMorphism, ex: ExactStructure) -> bool:
    ex.check_morphism(f)
    if ex.flavor is Flavor.SPLIT:
        return modules.cofactor(FpMorphism.identity(f.source), f) is not None
    if ex.flavor is Flavor.MAXIMAL:
        if ex.carrier is Carrier.FP_Z:
            return modules.is_mono(f)
        # mono that is the kernel of its cokernel: the quotient stays free
        if not modules.is_mono(f):
            return False
        c, _ = modules.cokernel(f)
        return c.is_free()
    if not modules.is_mono(f):
        return False
    c, _ = modules.cokernel(f)
    return ex.contains(modules.reduce_presentation(c))


def _is_cokernel_of_its_kernel(f: FpMorphism, ex: ExactStructure) -> bool:
    """Maximal-structure deflation test on a free carrier.

    f is a deflation iff (ker f, f) is a kernel-cokernel pair, i.e. the map
    induced from the carrier cokernel of its kernel is an isomorphism; on
    these carriers every kernel-cokernel pair splits, so stability is
    automatic (cross-checked against the split predicate by the suites).
    """
    _, incl = modules.kernel(f)
    _, proj = _carrier_cokernel(incl, ex)
    induced = modules.cofactor(f, proj)
    if induced is None:
        return False
    return modules.is_iso(induced)


def is_conflation(incl: FpMorphism, defl: FpMorphism, ex: ExactStructure) -> bool:
    """Whether (incl, defl) is an inflation-deflation pair exact in the middle."""
    if incl.target.presentation != defl.source.presentation:
        return False
    if not modules.is_zero_morphism(modules.compose(defl, incl)):
        return False
    if not (is_inflation(incl, ex) and is_deflation(defl, ex)):
        return False
    k, kincl = modules.kernel(defl)
    return (modules.factor(kincl, incl) is not None
            and modules.factor(incl, kincl) is not None)


# -- kernels and cokernels inside the carrier ----------------------------------

def e_kernel(f: FpMorphism, ex: ExactStructure) -> tuple[FpModule, FpMorphism]:
    """The kernel computed inside the carrier category.

    Ambient kernel everywhere; on the finite-group carrier this equals the
    torsion part of the ambient kernel, which is the ambient kernel itself.
    """
    ex.check_morphism(f)
    k, incl = modules.kernel(f)
    if ex.carrier is Carrier.TORSION_Z:
        t, tincl, _, _ = modules.torsion_decompose(k)
        return t, modules.compose(incl, tincl)
    return k, incl


def e_cokernel(f: FpMorphism, ex: ExactStructure) -> tuple[FpModule, FpMorphism]:
    """The cokernel inside the carrier: the free quotient on free carriers."""
    ex.check_morphism(f)
    return _carrier_cokernel(f, ex)


def _carrier_cokernel(f: FpMorphism, ex: ExactStructure) -> tuple[FpModule, FpMorphism]:
    c, proj = modules.cokernel(f)
    if ex.carrier in _FREE_CARRIERS:
        fq, fproj = modules.free_quotient(c)
        return fq, modules.compose(fproj, proj)
    return c, proj


DeflationCover = Callable[[FpMorphism], tuple[FpMorphism, FpMorphism]]


def d_kernel(f: FpMorphism, ex: ExactStructure) -> tuple[FpModule, FpMorphism, DeflationCover]:
    """Kernel up to a deflation cover, with an executable cover protocol.

    For every test map j with f o j = 0 the protocol returns a deflation pi
    and a map k with j o pi = incl o k; on the catalogued carriers the
    ordinary kernel already works and pi is the identity.
    """
    k_mod, incl = e_kernel(f, ex)

    def protocol(j: FpMorphism) -> tuple[FpMorphism, FpMorphism]:
        if not modules.is_zero_morphism(modules.compose(f, j)):
            raise ValueError("test map is not killed by f")
        lifted = modules.factor(j, incl)
        if lifted is None:
            raise AssertionError("catalogued carrier lost the kernel property")
        return FpMorphism.identity(j.source), lifted

    return k_mod, incl, protocol


def d_cokernel(f: FpMorphism, ex: ExactStructure) -> tuple[FpModule, FpMorphism, DeflationCover]:
    """Dual of d_kernel: cokernel up to an inflation cover (identity here)."""
    c_mod, proj = e_cokernel(f, ex)

    def protocol(j: FpMorphism) -> tuple[FpMorphism, FpMorphism]:
        if not modules.is_zero_morphism(modules.compose(j, f)):
            raise ValueError("test map does not kill f")
        descended = modules.cofactor(j, proj)
        if descended is None:
            raise AssertionError("catalogued carrier lost the cokernel property")
        return FpMorphism.identity(j.target), descended

    return c_mod, proj, protocol


# -- carrier-level pushouts ------------------------------------------------------

def carrier_pushout(f: FpMorphism, g: FpMorphism, ex: ExactStructure):
    """Pushout inside the carrier: free quotient of the ambient pushout."""
    p, leg_f, leg_g = modules.pushout(f, g)
    if ex.carrier in _FREE_CARRIERS:
        fq, proj = modules.free_quotient(p)
        return fq, modules.compose(proj, leg_f), modules.compose(proj, leg_g)
    return p, leg_f, leg_g


# -- acyclicity with witness ------------------------------------------------------

class AcyclicityReport:
    def __init__(self, acyclic: bool, factors=None, reason: str = ""):
        self.acyclic = acyclic
        self.factors = factors or {}
        self.reason = reason

    def __bool__(self) -> bool:
        return self.acyclic


def is_acyclic_wrt(c: Complex, ex: ExactStructure) -> AcyclicityReport:
    """Whether every differential deflates onto a factor object that
    inflates into the next degree, with consecutive conflations.

    Returns the factor objects D^n as witnesses when acyclic.
    """
    for n in c.degrees():
        if not ex.contains(modules.reduce_presentation(c.object_at(n))):
            raise CarrierMismatchError(f"complex entry in degree {n} leaves the carrier")
    factors = {}
    embeddings = {}
    surjections = {}
    for n in range(c.lo, c.hi):
        d = c.differential_at(n)
        im, surj, incl = modules.corestrict_to_image(d)
        factors[n] = im
        surjections[n] = surj
        embeddings[n] = incl
    zero = FpModule.zero(c.ring)
    factors[c.lo - 1] = zero
    factors[c.hi] = zero
    embeddings[c.lo - 1] = FpMorphism.zero(zero, c.object_at(c.lo))
    surjections[c.hi] = FpMorphism.zero(c.object_at(c.hi), zero)
    for n in c.degrees():
        m = embeddings[n - 1]
        e = surjections[n]
        if not ex.contains(modules.reduce_presentation(factors[n])):
            return AcyclicityReport(False, reason=f"factor object at {n} leaves the carrier")
        if not is_conflation(m, e, ex):
            return AcyclicityReport(
                False, reason=f"no conflation D^{n-1} -> X^{n} -> D^{n}")
    return AcyclicityReport(True, factors={n: factors[n] for n in range(c.lo - 1, c.hi + 1)})
