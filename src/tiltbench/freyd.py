"""Finitely presented functors on a carrier category, presentation level.

A functor object is encoded by a single carrier morphism f: the functor is
the cokernel of the represented map h_f, and is never materialised
pointwise (functors have a proper class of arguments).  Natural
transformations are generator-level carrier morphisms with a witness on
relations, equal when their difference factors through the target's
presenting map.

Effaceable functors are those presented by a deflation; they form a Serre
subcategory, the quotient by which is computed through the cokernel
functor to finitely presented modules (the localisation is an equivalence
onto that quotient, so equality of right fractions is decided on the
projections).

As in ``modules``, a universal construction returns its maps alone
(``freyd_image`` its inclusion and corestriction, ``freyd_direct_sum`` its
projections); the functor is an end of a map.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import modules
from .exactness import Carrier, ExactStructure, is_deflation
from .matrices import IntMatrix
from .modules import FpModule, FpMorphism


class UnsupportedCarrierError(ValueError):
    """No abelian localisation target is implemented for this carrier."""


class FreydObject:
    """The functor coker(h_f) for a carrier morphism f."""

    def __init__(self, ex: ExactStructure, carrier: FpMorphism):
        ex.check_morphism(carrier)
        self.ex = ex
        self.carrier = carrier

    @property
    def generators(self) -> FpModule:
        return self.carrier.target

    @property
    def relations(self) -> FpModule:
        return self.carrier.source

    @classmethod
    def from_presentation_matrix(cls, ex: ExactStructure, mat: IntMatrix) -> "FreydObject":
        src = FpModule.free(mat.ring, mat.cols)
        tgt = FpModule.free(mat.ring, mat.rows)
        return cls(ex, FpMorphism.from_generator_matrix(src, tgt, mat))

    def is_zero_functor(self) -> bool:
        """coker(h_f) = 0 iff f is a split epimorphism in the carrier."""
        return modules.factor(FpMorphism.identity(self.generators),
                              self.carrier) is not None

    def __repr__(self) -> str:
        return f"FreydObject({self.relations!r} -> {self.generators!r})"


class FreydMorphism:
    """A natural transformation, presented on generators with a witness."""

    def __init__(self, source: FreydObject, target: FreydObject,
                 gen: FpMorphism, wit: FpMorphism):
        ends = ((gen.source, source.generators), (gen.target, target.generators),
                (wit.source, source.relations), (wit.target, target.relations))
        if not all(modules.same_module(a, b) for a, b in ends):
            raise ValueError("witness square does not sit between the functors")
        # the square commutes iff gen o f - g o wit vanishes in G0
        if not modules.factors_through_relations(
                target.generators,
                gen.gen * source.carrier.gen - target.carrier.gen * wit.gen):
            raise ValueError("witness square does not commute")
        self.source = source
        self.target = target
        self.gen = gen
        self.wit = wit

    @classmethod
    def from_generator(cls, source: FreydObject, target: FreydObject,
                       gen: FpMorphism) -> "FreydMorphism":
        wit = modules.factor(modules.compose(gen, source.carrier), target.carrier)
        if wit is None:
            raise ValueError("generator map does not define a natural transformation")
        return cls(source, target, gen, wit)

    @classmethod
    def identity(cls, f: FreydObject) -> "FreydMorphism":
        return cls(f, f, FpMorphism.identity(f.generators),
                   FpMorphism.identity(f.relations))

    def __repr__(self) -> str:
        return f"FreydMorphism({self.source!r} -> {self.target!r})"


def freyd_compose(g: FreydMorphism, f: FreydMorphism) -> FreydMorphism:
    return FreydMorphism(f.source, g.target,
                         modules.compose(g.gen, f.gen),
                         modules.compose(g.wit, f.wit))


def freyd_equal(f: FreydMorphism, g: FreydMorphism) -> bool:
    """Equality: the difference factors through the target's presentation."""
    delta = FpMorphism(f.gen.source, f.gen.target, f.gen.gen - g.gen.gen,
                       f.gen.witness - g.gen.witness)
    return modules.factor(delta, f.target.carrier) is not None


def freyd_direct_sum(a: FreydObject, b: FreydObject) -> tuple[FreydMorphism, FreydMorphism]:
    """The two projections of the direct sum, their common source."""
    src_parts, tgt_parts = [a.relations, b.relations], [a.generators, b.generators]
    src, tgt = modules.direct_sum(src_parts), modules.direct_sum(tgt_parts)
    carrier = modules.block_morphism(src, tgt, src_parts, tgt_parts,
                                     {(0, 0): a.carrier, (1, 1): b.carrier})
    total = FreydObject(a.ex, carrier)
    return tuple(FreydMorphism(total, part, modules.projection(tgt, tgt_parts, k),
                               modules.projection(src, src_parts, k))
                 for k, part in enumerate((a, b)))


# -- effaceability ------------------------------------------------------------

def is_effaceable(f: FreydObject) -> bool:
    """Whether the presenting map is a deflation (presentation independent)."""
    return is_deflation(f.carrier, f.ex)


# -- kernels and cokernels of natural transformations ---------------------------

def _reduce_carrier(ex: ExactStructure, carrier: FpMorphism):
    """Conjugate a carrier morphism onto reduced presentations.

    The functor it presents does not change up to isomorphism, but the
    hom-group systems downstream stay small.  Returns the reduced object
    and the forward/backward isomorphisms on both ends.
    """
    _, src_iso, src_inv = carrier.source.reduction()
    _, tgt_iso, tgt_inv = carrier.target.reduction()
    reduced = FpMorphism(src_inv.source, tgt_iso.target,
                         tgt_iso.gen * (carrier.gen * src_inv.gen),
                         tgt_iso.witness * (carrier.witness * src_inv.witness))
    return FreydObject(ex, reduced), tgt_iso, tgt_inv, src_iso, src_inv


def adjoin_relations(f: FreydObject, extra: FpMorphism) -> tuple[FpMorphism, FpMorphism]:
    """The carrier [f.carrier | extra] : f.relations (+) extra.source ->
    f.generators of a quotient of f, with the injection of f.relations into
    its source, the witness of the quotient map.  The carrier's target is
    f.generators itself, so a hom group into it serves f and the quotient."""
    parts = [f.relations, extra.source]
    rel_sum = modules.direct_sum(parts)
    carrier = modules.block_morphism(rel_sum, f.generators, parts, [f.generators],
                                     {(0, 0): f.carrier, (0, 1): extra})
    return carrier, modules.injection(parts, rel_sum, 0)


def freyd_cokernel(eta: FreydMorphism) -> FreydMorphism:
    """The cokernel projection: adjoin the image of eta to the target's
    relations."""
    g = eta.target
    carrier, rel_inj = adjoin_relations(g, eta.gen)
    c, tgt_iso, _, src_iso, _ = _reduce_carrier(g.ex, carrier)
    return FreydMorphism(g, c, tgt_iso, modules.compose(src_iso, rel_inj))


def freyd_kernel(eta: FreydMorphism) -> FreydMorphism:
    """The inclusion of the kernel subfunctor, from two carrier-level
    pullbacks; the first builds one leg.  Where eta is the identity on
    generators, as a quotient map from ``adjoin_relations`` is, the first
    pullback is G's relation module with leg G's carrier, read with no
    system posed, so only the second is computed."""
    f, g = eta.source, eta.target
    p_to_u2 = modules._pullback_leg(eta.gen, g.carrier)[0]
    q_to_p, q_to_u1 = modules.pullback(p_to_u2, f.carrier)
    k, _, tgt_inv, _, src_inv = _reduce_carrier(f.ex, q_to_p)
    return FreydMorphism(k, f, modules.compose(p_to_u2, tgt_inv),
                         modules.compose(q_to_u1, src_inv))


def freyd_image(eta: FreydMorphism) -> tuple[FreydMorphism, FreydMorphism]:
    """The inclusion of the image subfunctor of the target, and the
    corestriction of eta onto it: (incl, core)."""
    incl = freyd_kernel(freyd_cokernel(eta))
    core_gen = modules.factor(eta.gen, incl.gen)
    if core_gen is None:
        raise AssertionError("transformation does not corestrict to its image")
    return incl, FreydMorphism.from_generator(eta.source, incl.source, core_gen)


def same_freyd_object(x: FreydObject, y: FreydObject) -> bool:
    return (x.carrier.gen == y.carrier.gen
            and x.generators.presentation == y.generators.presentation
            and x.relations.presentation == y.relations.presentation)


def freyd_pullback(f: FreydMorphism, g: FreydMorphism) -> tuple[FreydMorphism, FreydMorphism]:
    """The legs (to f's source, to g's) of the pullback of f along g inside
    the functor category, their common source."""
    if not same_freyd_object(f.target, g.target):
        raise ValueError("pullback targets differ")
    proj_a, proj_b = freyd_direct_sum(f.source, g.source)
    diff_gen = modules.block_morphism(
        proj_a.source.generators, f.gen.target, [f.source.generators, g.source.generators],
        [f.gen.target], {(0, 0): f.gen, (0, 1): modules.negate(g.gen)})
    incl = freyd_kernel(FreydMorphism.from_generator(proj_a.source, f.target, diff_gen))
    return freyd_compose(proj_a, incl), freyd_compose(proj_b, incl)


def pointwise_epi(eta: FreydMorphism) -> bool:
    return freyd_cokernel(eta).target.is_zero_functor()


# -- evaluation at probe objects -------------------------------------------------

def evaluate(f: FreydObject, probe: FpModule,
             h2: "modules.HomGroup | None" = None) -> tuple[FpModule, "modules.HomGroup"]:
    """F(probe) = coker(Hom(probe, F1) -> Hom(probe, F0)) as an abelian
    group, with the hom group Hom(probe, F0) whose generators it keeps.

    ``h2`` is that group where the caller holds it already, for instance for
    a quotient that shares F's generator module; ValueError if it is
    another group."""
    if h2 is None:
        h2 = modules.hom_group(probe, f.generators)
    elif not (modules.same_module(h2.source, probe)
              and modules.same_module(h2.target, f.generators)):
        raise ValueError("evaluate: the hom group is not Hom(probe, F0)")
    h1 = modules.hom_group(probe, f.relations)
    value = FpModule(h2.module.presentation.hstack(h1.pushforward(f.carrier, h2)))
    return value, h2


def evaluate_map(eta: FreydMorphism, src_eval, tgt_eval) -> FpMorphism:
    """The induced map F(probe) -> G(probe) between the values
    ``evaluate(eta.source, probe)`` and ``evaluate(eta.target, probe)``.

    Both values are presented on the generators of their hom groups, so the
    map eta o - between those groups is already the induced map on the
    quotients; ``from_generator_matrix`` checks that it descends.
    """
    src, src_h2 = src_eval
    tgt, tgt_h2 = tgt_eval
    return FpMorphism.from_generator_matrix(src, tgt, src_h2.pushforward(eta.gen, tgt_h2))


# -- right filtering ---------------------------------------------------------------

def right_filter_factor(f: FreydMorphism) -> tuple[FreydMorphism, FreydMorphism, FreydObject]:
    """Factor a map into an effaceable functor as (deflation, map).

    Returns (pi, g, mid) with f = g o pi, pi a pointwise epimorphism onto
    an effaceable mid; the construction pulls the target's presenting
    deflation back along the generator map.
    """
    a = f.target
    if not is_effaceable(a):
        raise ValueError("target is not effaceable")
    u = f.source
    # the pullback of (gen: U2 -> A2) against the presenting deflation
    # p: A1 -> A2 is the kernel of [gen, -p] on U2 (+) A1; the relations of
    # U map into it
    parts = [u.generators, a.relations]
    total = modules.direct_sum(parts)
    pair = modules.block_morphism(u.relations, total, [u.relations], parts,
                                  {(0, 0): u.carrier, (1, 0): f.wit})
    diff = modules.block_morphism(total, a.generators, parts, [a.generators],
                                  {(0, 0): f.gen, (0, 1): modules.negate(a.carrier)})
    k_incl = modules.kernel(diff)
    r = modules.factor(pair, k_incl)
    if r is None:
        raise AssertionError("relations do not reach the pullback")
    mid = FreydObject(u.ex, modules.compose(modules.projection(total, parts, 0), k_incl))
    pi = FreydMorphism(u, mid, FpMorphism.identity(u.generators), r)
    g = FreydMorphism(mid, a, f.gen, modules.compose(modules.projection(total, parts, 1), k_incl))
    return pi, g, mid


# -- the cokernel projection to modules ---------------------------------------------

def auslander_project(f: FreydObject) -> FpModule:
    """The cokernel of the carrier morphism, computed among modules: the
    target of ``modules.cokernel(f.carrier)``, [P_G0 | f] on G0's
    generators, built with no projection.

    Vanishes exactly on the effaceable functors; over the free carrier the
    target category is the left heart, realised as finitely presented
    modules.
    """
    if f.ex.carrier is Carrier.TORSION_Z:
        raise UnsupportedCarrierError(
            f"no localisation target for carrier {f.ex.carrier.value}")
    return FpModule(f.carrier.target.presentation.hstack(f.carrier.gen))


def project_morphism(eta: FreydMorphism) -> FpMorphism:
    """The induced map between the projected modules.

    Each projection is presented on its carrier's target generators, so the
    generator map of eta is already the induced map; ``from_generator_matrix``
    checks that it descends.
    """
    return FpMorphism.from_generator_matrix(
        auslander_project(eta.source), auslander_project(eta.target), eta.gen.gen)


def factors_through_effaceable(eta: FreydMorphism) -> bool:
    """Whether eta factors through an effaceable functor (its image)."""
    incl, core = freyd_image(eta)
    if not is_effaceable(incl.source):
        return False
    return freyd_equal(freyd_compose(incl, core), eta)


# -- right fractions ------------------------------------------------------------------

@dataclass
class WeakIsoFactor:
    map: FreydMorphism             # an elementary weak isomorphism, a deflation
    certificate: FreydObject       # its effaceable kernel


class Fraction:
    """A right fraction F <= F' -> G: a weak-isomorphism roof and a map.

    The roof leg is stored as its chain of elementary factors, outermost
    first, each carrying the effaceable certificate.
    """

    def __init__(self, source: FreydObject, target: FreydObject,
                 chain: list[WeakIsoFactor], top: FreydObject, map_: FreydMorphism):
        self.source = source
        self.target = target
        self.chain = list(chain)
        self.top = top
        self.map = map_

    @classmethod
    def from_morphism(cls, eta: FreydMorphism) -> "Fraction":
        return cls(eta.source, eta.target, [], eta.source, eta)

    def roof_composite(self) -> FreydMorphism:
        s = FreydMorphism.identity(self.source)
        for factor in self.chain:
            s = freyd_compose(s, factor.map)
        return s


def padding_deflation(f: FreydObject, eff: FreydObject) -> WeakIsoFactor:
    """The projection F (+) T -> F, an elementary weak iso for effaceable T."""
    if not is_effaceable(eff):
        raise ValueError("padding summand must be effaceable")
    return WeakIsoFactor(freyd_direct_sum(f, eff)[0], eff)


def refine_fraction(a: Fraction, eff: FreydObject) -> Fraction:
    """An equal fraction with a longer roof (padding by an effaceable)."""
    factor = padding_deflation(a.top, eff)
    new_top = factor.map.source
    return Fraction(a.source, a.target, a.chain + [factor], new_top,
                    freyd_compose(a.map, factor.map))


def _pull_elementary(factor: WeakIsoFactor, g: FreydMorphism
                     ) -> tuple[WeakIsoFactor, FreydMorphism]:
    """Pull an elementary weak iso back along g; Ore square completion."""
    leg_g, leg_w = freyd_pullback(g, factor.map)
    cert = freyd_kernel(leg_g).source
    if not is_effaceable(cert):
        raise AssertionError("pullback lost the effaceable certificate")
    return WeakIsoFactor(leg_g, cert), leg_w


def fraction_compose(b: Fraction, a: Fraction) -> Fraction:
    """The composite fraction b o a, built by right-fraction completion."""
    if not same_freyd_object(a.target, b.source):
        raise ValueError("fractions are not composable")
    chain = list(a.chain)
    current = a.map           # current map from the evolving top into b.source side
    top = a.top
    for factor in b.chain:
        new_factor, new_leg = _pull_elementary(factor, current)
        chain.append(new_factor)
        current = new_leg
        top = new_factor.map.source
    return Fraction(a.source, b.target, chain, top,
                    freyd_compose(b.map, current))


def project_fraction(a: Fraction) -> FpMorphism:
    """The module morphism L(map) o L(roof)^{-1} of a right fraction."""
    roof = a.roof_composite()
    l_roof = project_morphism(roof)
    inv = modules.inverse(l_roof)
    return modules.compose(project_morphism(a.map), inv)

