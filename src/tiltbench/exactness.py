"""Catalogued Quillen exact structures and their decision procedures.

The catalogue holds the four structures that the suites build: the split
and the maximal structure on free abelian groups, the maximal structure on
all finitely presented abelian groups, and the structure that the class of
finite groups inherits from the ambient module category.  Carriers are
closed catalogue entries, not user predicates.

Each structure decides deflations and inflations, computes kernels and
cokernels inside its carrier, and exposes the relativised kernel whose
universal property holds only after passing to a deflation cover; for the
catalogued carriers the ordinary kernel works with an identity cover, and
the cover protocol is materialised as a function value so the existential
in the contract stays executable.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from . import modules
from .complexes import Complex
from .modules import FpModule, FpMorphism
from .rings import RingSpec


class Carrier(enum.Enum):
    FREE_Z = "FreeZ"
    FP_Z = "FpZ"
    TORSION_Z = "TorsionClassZ"


class Flavor(enum.Enum):
    SPLIT = "Split"
    MAXIMAL = "Maximal"
    INHERITED = "Inherited"


_VALID = {
    (Carrier.FREE_Z, Flavor.SPLIT),
    (Carrier.FREE_Z, Flavor.MAXIMAL),
    (Carrier.FP_Z, Flavor.MAXIMAL),
    (Carrier.TORSION_Z, Flavor.INHERITED),
}


class CarrierMismatchError(ValueError):
    """A module or morphism does not live in the structure's carrier."""


class ExactStructure:
    def __init__(self, carrier: Carrier, flavor: Flavor):
        if (carrier, flavor) not in _VALID:
            raise ValueError(f"flavor {flavor.value} not catalogued on {carrier.value}")
        self.carrier = carrier
        self.flavor = flavor

    def contains(self, m: FpModule) -> bool:
        if m.ring is not RingSpec.INTEGERS:
            return False
        if self.carrier is Carrier.FREE_Z:
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


# -- deflation / inflation predicates -----------------------------------------

def is_deflation(f: FpMorphism, ex: ExactStructure) -> bool:
    ex.check_morphism(f)
    if ex.flavor is Flavor.SPLIT:
        return modules.factor(FpMorphism.identity(f.target), f) is not None
    if ex.flavor is Flavor.MAXIMAL:
        if ex.carrier is Carrier.FP_Z:
            return modules.is_epi(f)
        return _is_cokernel_of_its_kernel(f, ex)
    # inherited by the finite groups: the kernel of a map between finite
    # groups is finite, so every ambient epi deflates
    return modules.is_epi(f)


def is_inflation(f: FpMorphism, ex: ExactStructure) -> bool:
    ex.check_morphism(f)
    if ex.flavor is Flavor.SPLIT:
        return modules.cofactor(FpMorphism.identity(f.source), f) is not None
    # maximal and inherited: a mono whose cokernel stays in the carrier
    return modules.is_mono(f) and ex.contains(modules.cokernel(f))


def _is_cokernel_of_its_kernel(f: FpMorphism, ex: ExactStructure) -> bool:
    """Maximal-structure deflation test on the free carrier.

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
    if not modules.composite_is_zero(defl, incl):
        return False
    if not (is_inflation(incl, ex) and is_deflation(defl, ex)):
        return False
    # incl is mono with defl o incl = 0, so exact iff ker defl lies in im incl
    return modules.in_image(incl, modules.kernel_generators(defl))


# -- kernels and cokernels inside the carrier ----------------------------------

def e_kernel(f: FpMorphism, ex: ExactStructure) -> tuple[FpModule, FpMorphism]:
    """The kernel computed inside the carrier category: the ambient kernel,
    which every catalogued carrier contains (a subgroup of a free or a
    finite group is free or finite)."""
    ex.check_morphism(f)
    return modules.kernel(f)


def e_cokernel(f: FpMorphism, ex: ExactStructure) -> tuple[FpModule, FpMorphism]:
    """The cokernel inside the carrier: the free quotient on the free carrier."""
    ex.check_morphism(f)
    return _carrier_cokernel(f, ex)


def _carrier_cokernel(f: FpMorphism, ex: ExactStructure) -> tuple[FpModule, FpMorphism]:
    proj = modules.cokernel_projection(f)
    if ex.carrier is Carrier.FREE_Z:  # onto the free quotient of the cokernel
        proj = modules.compose(modules.free_quotient(proj.target)[1], proj)
    return proj.target, proj


DeflationCover = Callable[[FpMorphism], tuple[FpMorphism, FpMorphism]]


def d_kernel(f: FpMorphism, ex: ExactStructure) -> tuple[FpModule, FpMorphism, DeflationCover]:
    """Kernel up to a deflation cover, with an executable cover protocol.

    For every test map j with f o j = 0 the protocol returns a deflation pi
    and a map k with j o pi = incl o k; on the catalogued carriers the
    ordinary kernel already works and pi is the identity.
    """
    k_mod, incl = e_kernel(f, ex)

    def protocol(j: FpMorphism) -> tuple[FpMorphism, FpMorphism]:
        if not modules.composite_is_zero(f, j):
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
        if not modules.composite_is_zero(j, f):
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
    if ex.carrier is Carrier.FREE_Z:
        fq, proj = modules.free_quotient(p)
        return fq, modules.compose(proj, leg_f), modules.compose(proj, leg_g)
    return p, leg_f, leg_g


# -- acyclicity with witness ------------------------------------------------------

def is_acyclic_wrt(c: Complex, ex: ExactStructure) -> Optional[dict[int, FpModule]]:
    """The factor objects D^n, by degree, iff every differential deflates
    onto a factor object that inflates into the next degree, with
    consecutive conflations; None otherwise."""
    for n in c.degrees():
        if not ex.contains(c.object_at(n)):
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
        if not ex.contains(factors[n]) or not is_conflation(m, e, ex):
            return None
    return {n: factors[n] for n in range(c.lo - 1, c.hi + 1)}
