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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from . import modules, samplers, serialize
from .exactness import Carrier, ExactStructure, is_deflation
from .matrices import IntMatrix
from .modules import FpModule, FpMorphism
from .reports import run_samples
from .rings import RingSpec
from .samplers import SizeBounds

Z = RingSpec.INTEGERS


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
        if not modules.morphism_equal(
                modules.compose(gen, source.carrier),
                modules.compose(target.carrier, wit)):
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

    @classmethod
    def zero(cls, source: FreydObject, target: FreydObject) -> "FreydMorphism":
        return cls(source, target,
                   FpMorphism.zero(source.generators, target.generators),
                   FpMorphism.zero(source.relations, target.relations))

    def __repr__(self) -> str:
        return f"FreydMorphism({self.source!r} -> {self.target!r})"


def freyd_compose(g: FreydMorphism, f: FreydMorphism) -> FreydMorphism:
    return FreydMorphism(f.source, g.target,
                         modules.compose(g.gen, f.gen),
                         modules.compose(g.wit, f.wit))


def freyd_equal(f: FreydMorphism, g: FreydMorphism) -> bool:
    """Equality: the difference factors through the target's presentation."""
    delta = modules.sub_morphisms(f.gen, g.gen)
    return modules.factor(delta, f.target.carrier) is not None


def freyd_direct_sum(a: FreydObject, b: FreydObject):
    """Direct sum with the four structural transformations."""
    src_parts, tgt_parts = [a.relations, b.relations], [a.generators, b.generators]
    src, src_inj, src_proj = modules.direct_sum(src_parts)
    tgt, tgt_inj, tgt_proj = modules.direct_sum(tgt_parts)
    carrier = modules.block_morphism(src, tgt, src_parts, tgt_parts,
                                     {(0, 0): a.carrier, (1, 1): b.carrier})
    total = FreydObject(a.ex, carrier)
    inj_a = FreydMorphism(a, total, tgt_inj[0], src_inj[0])
    inj_b = FreydMorphism(b, total, tgt_inj[1], src_inj[1])
    proj_a = FreydMorphism(total, a, tgt_proj[0], src_proj[0])
    proj_b = FreydMorphism(total, b, tgt_proj[1], src_proj[1])
    return total, (inj_a, inj_b), (proj_a, proj_b)


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
    reduced = modules.compose(tgt_iso, modules.compose(carrier, src_inv))
    return FreydObject(ex, reduced), tgt_iso, tgt_inv, src_iso, src_inv


def freyd_cokernel(eta: FreydMorphism) -> tuple[FreydObject, FreydMorphism]:
    """Cokernel: adjoin the image of eta to the target's relations."""
    g = eta.target
    rel_parts = [g.relations, eta.source.generators]
    rel_sum, rel_inj, _ = modules.direct_sum(rel_parts)
    carrier = modules.block_morphism(rel_sum, g.generators, rel_parts, [g.generators],
                                     {(0, 0): g.carrier, (0, 1): eta.gen})
    c, tgt_iso, _, src_iso, _ = _reduce_carrier(g.ex, carrier)
    proj = FreydMorphism(g, c, tgt_iso, modules.compose(src_iso, rel_inj[0]))
    return c, proj


def freyd_kernel(eta: FreydMorphism) -> tuple[FreydObject, FreydMorphism]:
    """Kernel subfunctor, computed from two carrier-level pullbacks."""
    f, g = eta.source, eta.target
    p_mod, p_to_u2, p_to_n1 = modules.pullback(eta.gen, g.carrier)
    q_mod, q_to_p, q_to_u1 = modules.pullback(p_to_u2, f.carrier)
    k, _, tgt_inv, _, src_inv = _reduce_carrier(f.ex, q_to_p)
    incl = FreydMorphism(k, f,
                         modules.compose(p_to_u2, tgt_inv),
                         modules.compose(q_to_u1, src_inv))
    return k, incl


def freyd_image(eta: FreydMorphism):
    """Image subfunctor of the target with inclusion and corestriction."""
    c, proj = freyd_cokernel(eta)
    img, incl = freyd_kernel(proj)
    core_gen = modules.factor(eta.gen, incl.gen)
    if core_gen is None:
        raise AssertionError("transformation does not corestrict to its image")
    core = FreydMorphism.from_generator(eta.source, img, core_gen)
    return img, incl, core


def same_freyd_object(x: FreydObject, y: FreydObject) -> bool:
    return (x.carrier.gen == y.carrier.gen
            and x.generators.presentation == y.generators.presentation
            and x.relations.presentation == y.relations.presentation)


def freyd_pullback(f: FreydMorphism, g: FreydMorphism):
    """Pullback of f along g inside the functor category, with its legs."""
    if not same_freyd_object(f.target, g.target):
        raise ValueError("pullback targets differ")
    total, _, (proj_a, proj_b) = freyd_direct_sum(f.source, g.source)
    diff_gen = modules.block_morphism(
        total.generators, f.gen.target, [f.source.generators, g.source.generators],
        [f.gen.target], {(0, 0): f.gen, (0, 1): modules.negate(g.gen)})
    diff = FreydMorphism.from_generator(total, f.target, diff_gen)
    p, incl = freyd_kernel(diff)
    leg_f = freyd_compose(proj_a, incl)
    leg_g = freyd_compose(proj_b, incl)
    return p, leg_f, leg_g


def pointwise_epi(eta: FreydMorphism) -> bool:
    c, _ = freyd_cokernel(eta)
    return c.is_zero_functor()


# -- evaluation at probe objects -------------------------------------------------

def evaluate(f: FreydObject, probe: FpModule) -> tuple[FpModule, "modules.HomGroup", FpMorphism]:
    """F(probe) as an abelian group, with the covering hom-group data."""
    h2 = modules.hom_group(probe, f.generators)
    h1 = modules.hom_group(probe, f.relations)
    cols = []
    for i in range(h1.module.generators):
        pushed = modules.compose(f.carrier, h1.generator(i))
        coords = h2.coordinates(pushed)
        if coords is None:
            raise AssertionError("pushforward left the hom group")
        cols.append([coords.at(j, 0) for j in range(coords.rows)])
    gen_mat = IntMatrix.from_rows(
        Z, [[cols[i][j] for i in range(len(cols))] for j in range(h2.module.generators)],
        cols=len(cols))
    push = FpMorphism.from_generator_matrix(h1.module, h2.module, gen_mat)
    value, proj = modules.cokernel(push)
    return value, h2, proj


def evaluate_map(eta: FreydMorphism, probe: FpModule,
                 src_eval=None, tgt_eval=None) -> FpMorphism:
    """The induced map F(probe) -> G(probe)."""
    if src_eval is None:
        src_eval = evaluate(eta.source, probe)
    if tgt_eval is None:
        tgt_eval = evaluate(eta.target, probe)
    src_value, src_h2, src_proj = src_eval
    tgt_value, tgt_h2, tgt_proj = tgt_eval
    cols = []
    for i in range(src_h2.module.generators):
        pushed = modules.compose(eta.gen, src_h2.generator(i))
        coords = tgt_h2.coordinates(pushed)
        if coords is None:
            raise AssertionError("transformation left the hom group")
        cols.append([coords.at(j, 0) for j in range(coords.rows)])
    gen_mat = IntMatrix.from_rows(
        Z, [[cols[i][j] for i in range(len(cols))]
            for j in range(tgt_h2.module.generators)],
        cols=len(cols))
    lifted = FpMorphism.from_generator_matrix(src_h2.module, tgt_h2.module, gen_mat)
    induced = modules.cofactor(modules.compose(tgt_proj, lifted), src_proj)
    if induced is None:
        raise AssertionError("evaluation did not descend to the quotient")
    return induced


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
    # pullback of (gen: U2 -> A2) against the presenting deflation p: A1 -> A2
    z_mod, z_to_u2, z_to_a1 = modules.pullback(f.gen, a.carrier)
    # the relations of U map into the pullback
    parts = [u.generators, a.relations]
    total, _, projs = modules.direct_sum(parts)
    pair = modules.block_morphism(u.relations, total, [u.relations], parts,
                                  {(0, 0): u.carrier, (1, 0): f.wit})
    diff = modules.block_morphism(total, a.generators, parts, [a.generators],
                                  {(0, 0): f.gen, (0, 1): modules.negate(a.carrier)})
    k_mod, k_incl = modules.kernel(diff)
    r = modules.factor(pair, k_incl)
    if r is None:
        raise AssertionError("relations do not reach the pullback")
    mid = FreydObject(u.ex, modules.compose(projs[0], k_incl))
    pi = FreydMorphism(u, mid, FpMorphism.identity(u.generators), r)
    g = FreydMorphism(mid, a, f.gen, modules.compose(projs[1], k_incl))
    return pi, g, mid


# -- the cokernel projection to modules ---------------------------------------------

_PROJECTABLE = {Carrier.FREE_Z, Carrier.FP_Z, Carrier.FREE_POLY_Q}


def auslander_project(f: FreydObject) -> FpModule:
    """The cokernel of the carrier morphism, computed among modules.

    Vanishes exactly on the effaceable functors; over the free carrier the
    target category is the left heart, realised as finitely presented
    modules.
    """
    if f.ex.carrier not in _PROJECTABLE:
        raise UnsupportedCarrierError(
            f"no localisation target for carrier {f.ex.carrier.value}")
    c, _ = modules.cokernel(f.carrier)
    return c


def project_morphism(eta: FreydMorphism) -> FpMorphism:
    """The induced map between the projected modules."""
    if eta.source.ex.carrier not in _PROJECTABLE:
        raise UnsupportedCarrierError("no localisation target for this carrier")
    src, src_proj = modules.cokernel(eta.source.carrier)
    tgt, tgt_proj = modules.cokernel(eta.target.carrier)
    induced = modules.cofactor(modules.compose(tgt_proj, eta.gen), src_proj)
    if induced is None:
        raise AssertionError("projection did not descend")
    return induced


def factors_through_effaceable(eta: FreydMorphism) -> bool:
    """Whether eta factors through an effaceable functor (its image)."""
    img, incl, core = freyd_image(eta)
    if not is_effaceable(img):
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
    total, (inj_f, inj_t), (proj_f, proj_t) = freyd_direct_sum(f, eff)
    return WeakIsoFactor(proj_f, eff)


def refine_fraction(a: Fraction, eff: FreydObject) -> Fraction:
    """An equal fraction with a longer roof (padding by an effaceable)."""
    factor = padding_deflation(a.top, eff)
    new_top = factor.map.source
    return Fraction(a.source, a.target, a.chain + [factor], new_top,
                    freyd_compose(a.map, factor.map))


def _pull_elementary(factor: WeakIsoFactor, g: FreydMorphism
                     ) -> tuple[WeakIsoFactor, FreydMorphism]:
    """Pull an elementary weak iso back along g; Ore square completion."""
    p, leg_g, leg_w = freyd_pullback(g, factor.map)
    cert, _ = freyd_kernel(leg_g)
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


# -- the Serre-subcategory battery ------------------------------------------------

def extension_middle(ex: ExactStructure, rnd, t1: FreydObject, t2: FreydObject,
                     bounds) -> FreydObject:
    """An honest extension of t2 by t1: a block carrier with a gluing map.

    The gluing must send the kernel of t2's presenting map into the image
    of t1's, otherwise the block fails to be an extension; random
    candidates are retried and the split gluing is the fallback.
    """
    q1, q2 = t1.carrier, t2.carrier
    k2, kappa2 = modules.kernel(q2)
    delta = None
    for _ in range(4):
        if ex.carrier is Carrier.FREE_Z:
            cand = FpMorphism.from_generator_matrix(
                t2.relations, t1.generators,
                samplers.random_matrix(rnd, t1.generators.generators,
                                       t2.relations.generators, 2))
        else:
            cand = samplers.random_morphism(rnd, t2.relations, t1.generators)
        if modules.factor(modules.compose(cand, kappa2), q1) is not None:
            delta = cand
            break
    if delta is None:
        alpha = samplers.random_morphism(rnd, t2.relations, t1.relations, bound=1)
        delta = modules.compose(q1, alpha)
    src_parts, tgt_parts = [t1.relations, t2.relations], [t1.generators, t2.generators]
    src_sum, _, _ = modules.direct_sum(src_parts)
    tgt_sum, _, _ = modules.direct_sum(tgt_parts)
    block = modules.block_morphism(src_sum, tgt_sum, src_parts, tgt_parts,
                                   {(0, 0): q1, (0, 1): delta, (1, 1): q2})
    return FreydObject(ex, block)


def serre_closure_check(ex: ExactStructure, sample_budget: int, seed: int,
                        bounds: SizeBounds = SizeBounds()):
    """Sampled closure of the effaceables under extensions, admissible
    subobjects and admissible quotients; counterexamples reported."""
    return run_samples(sample_budget, seed, ("serre", ex.config_string()),
                       partial(_serre_sample, ex), bounds)


def _serre_sample(ex: ExactStructure, rnd, bounds):
    t = FreydObject(ex, samplers.random_carrier_deflation(ex, rnd, bounds))
    payload = {"carrier": serialize.morphism_to_json(t.carrier)}
    extra_src = samplers.random_carrier_module(ex, rnd, bounds)
    extra = _retarget(ex, rnd, bounds, extra_src, t.generators)
    rel_parts = [t.relations, extra_src]
    rel_sum, rel_inj, _ = modules.direct_sum(rel_parts)
    bigger = modules.block_morphism(rel_sum, t.generators, rel_parts, [t.generators],
                                    {(0, 0): t.carrier, (0, 1): extra})
    quotient = FreydObject(ex, bigger)
    if not is_effaceable(quotient):
        yield "quotient_closure", payload
    pi = FreydMorphism(t, quotient, FpMorphism.identity(t.generators), rel_inj[0])
    sub, _ = freyd_kernel(pi)
    if not is_effaceable(sub):
        yield "subobject_closure", payload
    t1 = FreydObject(ex, samplers.random_carrier_deflation(ex, rnd, bounds))
    t2 = FreydObject(ex, samplers.random_carrier_deflation(ex, rnd, bounds))
    middle = extension_middle(ex, rnd, t1, t2, bounds)
    if not is_effaceable(middle):
        yield "extension_closure", payload


def _retarget(ex, rnd, bounds, src: FpModule, tgt: FpModule) -> FpMorphism:
    if ex.carrier is Carrier.FREE_Z:
        return FpMorphism.from_generator_matrix(
            src, tgt, samplers.random_matrix(rnd, tgt.generators, src.generators,
                                             bounds.max_entry))
    return samplers.random_morphism(rnd, src, tgt)
