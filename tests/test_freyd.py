import random
from functools import reduce

import pytest

from oracles import scale, zero_freyd_morphism
from tiltbench import freyd, modules
from tiltbench.exactness import Carrier, ExactStructure, Flavor
from tiltbench.freyd import (
    Fraction,
    FreydMorphism,
    FreydObject,
    UnsupportedCarrierError,
    adjoin_relations,
    auslander_project,
    evaluate,
    evaluate_map,
    factors_through_effaceable,
    fraction_compose,
    freyd_cokernel,
    freyd_compose,
    freyd_equal,
    freyd_kernel,
    freyd_pullback,
    is_effaceable,
    padding_deflation,
    pointwise_epi,
    project_fraction,
    project_morphism,
    refine_fraction,
    right_filter_factor,
)
from tiltbench.matrices import IntMatrix, kron, solve_lift, vec
from tiltbench.modules import (
    FpModule,
    FpMorphism,
    cofactor,
    cokernel_projection,
    compose,
    hom_group,
    is_epi,
    is_mono,
    is_zero_morphism,
    morphism_equal,
)
from tiltbench.rings import RingSpec
from tiltbench.samplers import (
    SizeBounds,
    random_carrier_deflation,
    random_carrier_morphism,
    random_matrix,
    random_module,
    random_morphism,
    random_unimodular,
    rng_for,
)

Z = RingSpec.INTEGERS
FREE_SPLIT = ExactStructure(Carrier.FREE_Z, Flavor.SPLIT)
FP_MAX = ExactStructure(Carrier.FP_Z, Flavor.MAXIMAL)


def zmat(rows, cols=None):
    return IntMatrix.from_rows(Z, rows, cols=cols)


def free_obj(ex, mat):
    return FreydObject.from_presentation_matrix(ex, mat)


def test_zero_functor_detection():
    ident = free_obj(FREE_SPLIT, zmat([[1]]))
    assert ident.is_zero_functor()
    assert is_effaceable(ident)
    two = free_obj(FREE_SPLIT, zmat([[2]]))
    assert not two.is_zero_functor()


def test_effaceable_iff_presenting_deflation():
    # x2 on the split structure has no section: not effaceable
    two = free_obj(FREE_SPLIT, zmat([[2]]))
    assert not is_effaceable(two)
    # an epi of finitely presented modules under the maximal structure
    z = FpModule.free(Z, 1)
    z2 = FpModule.cyclic(Z, 2)
    pi = FpMorphism.from_generator_matrix(z, z2, zmat([[1]]))
    eff = FreydObject(FP_MAX, pi)
    assert is_effaceable(eff)


def test_effaceability_presentation_independence():
    rnd = random.Random(8)
    for _ in range(20):
        r = rnd.randint(1, 3)
        base = IntMatrix.from_rows(
            Z, [[1 if i == j else 0 for j in range(r + 1)] for i in range(r)],
            cols=r + 1)
        u = random_unimodular(rnd, r)
        v = random_unimodular(rnd, r + 1)
        f = free_obj(FREE_SPLIT, u * base * v)
        assert is_effaceable(f)  # split epi stays split epi under isos
        two = free_obj(FREE_SPLIT, scale(u * base * v, 2))
        assert not is_effaceable(two)  # a doubled map never splits


def test_auslander_project_examples():
    d23 = free_obj(FREE_SPLIT, zmat([[2, 0], [0, 3]]))
    m = auslander_project(d23)
    assert m.invariant_data() == (0, (6,))
    eff = free_obj(FREE_SPLIT, zmat([[1, 0], [0, 1]]))
    assert auslander_project(eff).is_zero_module()
    h0 = free_obj(FREE_SPLIT, IntMatrix.zeros(Z, 1, 0))
    assert auslander_project(h0).invariant_data() == (1, ())


def test_auslander_project_builds_no_morphism(morphisms_built):
    # the projected module is the cokernel alone; no projection is built
    for i in range(5):
        rnd = rng_for(9, "auslander-project", i)
        for ex in (FREE_SPLIT, FP_MAX):
            f = FreydObject(ex, random_carrier_deflation(ex, rnd, SizeBounds()))
            assert morphisms_built(auslander_project, f) == 0


def test_projection_kernel_is_effaceables():
    rnd = random.Random(9)
    for _ in range(30):
        r, c = rnd.randint(1, 3), rnd.randint(0, 3)
        f = free_obj(FREE_SPLIT, zmat([[rnd.randint(-6, 6) for _ in range(c)]
                                       for _ in range(r)], cols=c))
        assert auslander_project(f).is_zero_module() == is_effaceable(f)


def test_unsupported_carrier_projection():
    tor = ExactStructure(Carrier.TORSION_Z, Flavor.INHERITED)
    z4 = FpModule.cyclic(Z, 4)
    f = FreydObject(tor, FpMorphism.identity(z4))
    with pytest.raises(UnsupportedCarrierError):
        auslander_project(f)


def test_right_filter_factor():
    # f : coker(h_{x2}) -> coker(h_pi) induced by the identity on generators
    z = FpModule.free(Z, 1)
    z2 = FpModule.cyclic(Z, 2)
    two = FreydObject(FP_MAX, FpMorphism.from_generator_matrix(z, z, zmat([[2]])))
    pi = FreydObject(FP_MAX, FpMorphism.from_generator_matrix(z, z2, zmat([[1]])))
    assert is_effaceable(pi)
    f = FreydMorphism.from_generator(
        two, pi, FpMorphism.from_generator_matrix(z, z2, zmat([[1]])))
    p, g, mid = right_filter_factor(f)
    assert is_effaceable(mid)
    assert pointwise_epi(p)
    assert freyd_equal(freyd_compose(g, p), f)


def test_right_filter_factor_builds_no_module_pullback(monkeypatch):
    # the kernel of [gen, -p] already is the pullback of gen against p
    z = FpModule.free(Z, 1)
    z2 = FpModule.cyclic(Z, 2)
    eff = FreydObject(FP_MAX, FpMorphism.from_generator_matrix(z, z2, zmat([[1]])))
    calls, real_pullback = [], modules.pullback

    def counting_pullback(f, g):
        calls.append(f)
        return real_pullback(f, g)

    monkeypatch.setattr(modules, "pullback", counting_pullback)
    right_filter_factor(FreydMorphism.identity(eff))
    assert calls == []


def test_padding_deflation_builds_two_transformations(monkeypatch):
    # only the two projections of F (+) T are built, each checking its square
    obj = free_obj(FREE_SPLIT, zmat([[2]]))
    eff = free_obj(FREE_SPLIT, zmat([[1, 0], [0, 1]]))
    built, real_init = [], FreydMorphism.__init__

    def counting_init(self, *args):
        built.append(args)
        real_init(self, *args)

    monkeypatch.setattr(FreydMorphism, "__init__", counting_init)
    factor = padding_deflation(obj, eff)
    assert len(built) == 2
    assert factor.map.target is obj and factor.certificate is eff


def test_right_filter_factor_trivial_cases():
    z = FpModule.free(Z, 1)
    z2 = FpModule.cyclic(Z, 2)
    eff = FreydObject(FP_MAX, FpMorphism.from_generator_matrix(z, z2, zmat([[1]])))
    zero_map = zero_freyd_morphism(eff, eff)
    p, g, mid = right_filter_factor(zero_map)
    assert freyd_equal(freyd_compose(g, p), zero_map)
    ident = FreydMorphism.identity(eff)
    p2, g2, mid2 = right_filter_factor(ident)
    assert freyd_equal(freyd_compose(g2, p2), ident)


def test_freyd_kernel_and_cokernel_pointwise():
    # eta: coker(h_{x4}) -> coker(h_{x2}) induced by identity over FP_MAX
    z = FpModule.free(Z, 1)
    four = FreydObject(FP_MAX, FpMorphism.from_generator_matrix(z, z, zmat([[4]])))
    two = FreydObject(FP_MAX, FpMorphism.from_generator_matrix(z, z, zmat([[2]])))
    eta = FreydMorphism.from_generator(four, two, FpMorphism.identity(z))
    c, proj = freyd_cokernel(eta)
    assert c.is_zero_functor()  # pointwise surjective
    k, incl = freyd_kernel(eta)
    assert not k.is_zero_functor()
    # probe the exactness at a few arguments
    for probe in (FpModule.free(Z, 1), FpModule.cyclic(Z, 8)):
        val_k = evaluate(k, probe)[0]
        val_f = evaluate(four, probe)[0]
        val_g = evaluate(two, probe)[0]
        incl_map = value_map(incl, probe)
        eta_map = value_map(eta, probe)
        assert is_mono(incl_map)
        assert is_epi(eta_map)
        assert is_zero_morphism(compose(eta_map, incl_map))


def value_map(eta: FreydMorphism, probe: FpModule) -> FpMorphism:
    return evaluate_map(eta, evaluate(eta.source, probe), evaluate(eta.target, probe))


def kernel_from_both_legs(eta: FreydMorphism):
    """freyd_kernel built from the first pullback with both its legs."""
    f, g = eta.source, eta.target
    _, p_to_u2, _ = modules.pullback(eta.gen, g.carrier)
    _, q_to_p, q_to_u1 = modules.pullback(p_to_u2, f.carrier)
    k, _, tgt_inv, _, src_inv = freyd._reduce_carrier(f.ex, q_to_p)
    return k, FreydMorphism(k, f, compose(p_to_u2, tgt_inv), compose(q_to_u1, src_inv))


def test_freyd_kernel_builds_only_the_pullback_leg_it_reads(morphisms_built):
    # the first pullback's leg to the target's relations is never read, so
    # one morphism fewer is built; carrier and inclusion stay the same.  A
    # quotient map pi is the identity on generators, whose first pullback
    # both sides read off; a cokernel projection with a reduced target poses
    # the kernel of the first pullback on both sides
    bounds = SizeBounds(max_rank=2, max_entry=6)
    kernel_route = 0
    for i in range(10):
        rnd = rng_for(31, "kernel-legs", i)
        pi, _ = pointwise_exactness_maps(rnd, bounds, random_carrier_morphism)
        for eta in (pi, freyd_cokernel(pi)[1]):
            kernel_route += eta.gen.gen is not IntMatrix.identity(Z, eta.gen.source.generators)
            (k, incl), (old_k, old_incl) = freyd_kernel(eta), kernel_from_both_legs(eta)
            assert morphisms_built(freyd_kernel, eta) == \
                morphisms_built(kernel_from_both_legs, eta) - 1
            assert k.carrier.gen == old_k.carrier.gen
            assert k.carrier.witness == old_k.carrier.witness
            assert k.generators.presentation == old_k.generators.presentation
            assert k.relations.presentation == old_k.relations.presentation
            for new, old in ((incl.gen, old_incl.gen), (incl.wit, old_incl.wit)):
                assert (new.gen, new.witness) == (old.gen, old.witness)
    assert kernel_route >= 5


def test_value_at_a_free_probe_is_a_power_of_the_projection():
    # a coherent functor is additive, so F(R^m) = F(R)^m, and F(R) is the
    # cokernel of the carrier: checked against the projection to modules
    bounds = SizeBounds(max_rank=2, max_entry=6)
    for i in range(12):
        rnd = rng_for(31, "free-probe", i)
        f = FreydObject(FP_MAX, random_carrier_morphism(FP_MAX, rnd, bounds))
        for m in range(1, 4):
            value = evaluate(f, FpModule.free(Z, m))[0]
            power = modules.direct_sum([auslander_project(f)] * m)
            assert value.invariant_data() == power.invariant_data()


def test_evaluate_reads_a_given_generator_hom_group():
    bounds = SizeBounds(max_rank=2, max_entry=6)
    for i in range(8):
        rnd = rng_for(31, "given-hom-group", i)
        pi, _ = pointwise_exactness_maps(rnd, bounds, random_carrier_morphism)
        t, quotient = pi.source, pi.target
        for probe in (FpModule.free(Z, 1), FpModule.free(Z, 2), FpModule.cyclic(Z, 4)):
            h2 = hom_group(probe, t.generators)
            for obj in (t, quotient):
                value, given = evaluate(obj, probe, h2)
                assert given is h2
                assert value.presentation == evaluate(obj, probe)[0].presentation
            other = modules.direct_sum([t.generators, FpModule.cyclic(Z, 7)])
            with pytest.raises(ValueError):
                evaluate(t, probe, hom_group(probe, other))
            with pytest.raises(ValueError):
                evaluate(t, FpModule.cyclic(Z, 3), h2)


def test_fraction_identity_and_composition():
    z2 = FpModule.free(Z, 2)
    obj = free_obj(FREE_SPLIT, zmat([[2, 0], [0, 3]]))
    ident = Fraction.from_morphism(FreydMorphism.identity(obj))
    comp = fraction_compose(ident, ident)
    assert morphism_equal(project_fraction(comp), project_fraction(ident))


def test_fraction_through_roof_refinement():
    obj = free_obj(FREE_SPLIT, zmat([[2]]))
    eff = free_obj(FREE_SPLIT, zmat([[1, 0], [0, 1]]))
    base = Fraction.from_morphism(FreydMorphism.identity(obj))
    refined = refine_fraction(base, eff)
    assert len(refined.chain) == 1 and refined.chain[0].certificate is eff
    assert morphism_equal(project_fraction(refined), project_fraction(base))
    comp = fraction_compose(base, refined)
    assert morphism_equal(project_fraction(comp), project_fraction(base))


def test_fraction_projection_functoriality():
    rnd = random.Random(12)
    obj = free_obj(FREE_SPLIT, zmat([[2, 0], [0, 3]]))
    eff = free_obj(FREE_SPLIT, zmat([[1]]))
    scale = FreydMorphism.from_generator(
        obj, obj, FpMorphism.from_generator_matrix(
            FpModule.free(Z, 2), FpModule.free(Z, 2), zmat([[5, 0], [0, 5]])))
    a = refine_fraction(Fraction.from_morphism(scale), eff)
    b = refine_fraction(Fraction.from_morphism(FreydMorphism.identity(obj)), eff)
    comp = fraction_compose(b, a)
    lhs = project_fraction(comp)
    rhs = compose(project_fraction(b), project_fraction(a))
    assert morphism_equal(lhs, rhs)


def test_fractions_differing_maps_unequal():
    obj = free_obj(FREE_SPLIT, IntMatrix.zeros(Z, 1, 0))  # the free rank-1 module
    two = FreydMorphism.from_generator(
        obj, obj, FpMorphism.from_generator_matrix(
            FpModule.free(Z, 1), FpModule.free(Z, 1), zmat([[2]])))
    three = FreydMorphism.from_generator(
        obj, obj, FpMorphism.from_generator_matrix(
            FpModule.free(Z, 1), FpModule.free(Z, 1), zmat([[3]])))
    assert not morphism_equal(project_fraction(Fraction.from_morphism(two)),
                              project_fraction(Fraction.from_morphism(three)))


def test_factors_through_effaceable_matches_projection():
    rnd = random.Random(15)
    for _ in range(25):
        a = free_obj(FREE_SPLIT, random_matrix(rnd, 2, rnd.randint(0, 2), 4))
        b = free_obj(FREE_SPLIT, random_matrix(rnd, 2, rnd.randint(0, 2), 4))
        # build a valid transformation by solving for one
        g_mod = FpModule.free(Z, 2)
        cand = FpMorphism.from_generator_matrix(g_mod, g_mod, random_matrix(rnd, 2, 2, 3))
        try:
            eta = FreydMorphism.from_generator(a, b, cand)
        except ValueError:
            continue
        projected_zero = is_zero_morphism(project_morphism(eta))
        assert projected_zero == factors_through_effaceable(eta)


def test_zero_transformation_into_a_representable_is_not_pointwise_epi():
    # 0 -> h_Z: the zero functor (carrier the identity of Z) into h_Z
    # (carrier 0 -> Z); at the probe Z its value 0 -> Hom(Z, Z) = Z misses 1
    z = FpModule.free(Z, 1)
    zero_functor = FreydObject(FP_MAX, FpMorphism.identity(z))
    h_z = FreydObject(FP_MAX, FpMorphism.zero(FpModule.zero(Z), z))
    assert zero_functor.is_zero_functor() and not h_z.is_zero_functor()
    eta = zero_freyd_morphism(zero_functor, h_z)
    assert not pointwise_epi(eta)
    assert not is_epi(evaluate_map(eta, evaluate(zero_functor, z), evaluate(h_z, z)))


def test_pullback_of_pointwise_epi_stays_epi():
    z = FpModule.free(Z, 1)
    four = FreydObject(FP_MAX, FpMorphism.from_generator_matrix(z, z, zmat([[4]])))
    two = FreydObject(FP_MAX, FpMorphism.from_generator_matrix(z, z, zmat([[2]])))
    eta = FreydMorphism.from_generator(four, two, FpMorphism.identity(z))
    assert pointwise_epi(eta)
    other = FreydMorphism.from_generator(two, two, FpMorphism.identity(z))
    p, leg_other, leg_eta = freyd_pullback(other, eta)
    assert pointwise_epi(leg_other)


# -- induced maps against the cofactor construction they replaced -----------------

PROBES = (FpModule.free(Z, 1), FpModule.free(Z, 2), FpModule.cyclic(Z, 4))


def pointwise_exactness_maps(rnd, bounds, carrier=random_carrier_deflation):
    """The pi and incl of the freyd_pointwise_exactness construction: the
    quotient of a functor by extra relations, and its kernel.  The suite
    quotients effaceable functors, which vanish on free probes (and, at
    the seeds below, on Z/4 too); a random carrier morphism gives nonzero
    values."""
    t = FreydObject(FP_MAX, carrier(FP_MAX, rnd, bounds))
    extra = random_morphism(rnd, random_module(rnd, bounds), t.generators)
    bigger, rel_inj = adjoin_relations(t, extra)
    pi = FreydMorphism(t, FreydObject(FP_MAX, bigger), FpMorphism.identity(t.generators),
                       rel_inj)
    _, incl = freyd_kernel(pi)
    return pi, incl


def pushforward_by_generator(f, src, tgt):
    """f o - : src.module -> tgt.module, one hom-group generator at a time:
    the coordinates of each composite solve [vec G_j | I kron P] * x = vec."""
    b = tgt.source.generators
    system = reduce(IntMatrix.hstack,
                    [vec(tgt.generator(j).gen) for j in range(tgt.module.generators)],
                    IntMatrix.zeros(Z, b * tgt.target.generators, 0)
                    ).hstack(kron(IntMatrix.identity(Z, b), tgt.target.presentation))
    columns = IntMatrix.zeros(Z, tgt.module.generators, 0)
    for i in range(src.module.generators):
        sol = solve_lift(system, vec(compose(f, src.generator(i)).gen))
        assert sol is not None
        columns = columns.hstack(sol.take_rows(range(tgt.module.generators)))
    return FpMorphism.from_generator_matrix(src.module, tgt.module, columns)


def cofactor_evaluate_map(eta, probe):
    """Each value as a cokernel of hom groups, and the induced map by
    cofactor through the source's cokernel projection."""
    ends = []
    for obj in (eta.source, eta.target):
        h2, h1 = hom_group(probe, obj.generators), hom_group(probe, obj.relations)
        proj = cokernel_projection(pushforward_by_generator(obj.carrier, h1, h2))
        ends.append((h2, proj))
    (src_h2, src_proj), (tgt_h2, tgt_proj) = ends
    lifted = pushforward_by_generator(eta.gen, src_h2, tgt_h2)
    induced = cofactor(compose(tgt_proj, lifted), src_proj)
    assert induced is not None
    return induced


def cofactor_project_morphism(eta):
    src_proj = cokernel_projection(eta.source.carrier)
    tgt_proj = cokernel_projection(eta.target.carrier)
    induced = cofactor(compose(tgt_proj, eta.gen), src_proj)
    assert induced is not None
    return induced


@pytest.mark.parametrize("max_rank", [1, 2])
def test_induced_maps_match_the_cofactor_construction(max_rank):
    bounds = SizeBounds(max_rank=max_rank, max_entry=3)
    for i in range(3):
        rnd = rng_for(11, "induced-maps", max_rank, i)
        maps = [*pointwise_exactness_maps(rnd, bounds),
                *pointwise_exactness_maps(rnd, bounds, random_carrier_morphism)]
        for eta in maps:
            assert morphism_equal(project_morphism(eta), cofactor_project_morphism(eta))
            for probe in PROBES:
                assert morphism_equal(value_map(eta, probe),
                                      cofactor_evaluate_map(eta, probe))


def test_induced_maps_solve_no_cofactor_system(monkeypatch):
    # a value at a probe and a projected module keep the generators they
    # were presented on, so the generator matrix is already the induced map
    pi, incl = pointwise_exactness_maps(rng_for(11, "no-cofactor"), SizeBounds(max_rank=2),
                                        random_carrier_morphism)
    calls, real_cofactor = [], modules.cofactor

    def counting_cofactor(g, through):
        calls.append(g)
        return real_cofactor(g, through)

    monkeypatch.setattr(modules, "cofactor", counting_cofactor)
    for eta in (pi, incl):
        project_morphism(eta)
        for probe in PROBES:
            value_map(eta, probe)
    assert calls == []


# -- natural transformations decided on matrices ------------------------------------

def test_freyd_square_builds_no_composite(morphisms_built):
    # the square is one solve on matrices, and it decides as the old
    # comparison of the two composed morphisms did
    verdicts = []
    for i in range(4):
        rnd = rng_for(43, "freyd-square", i)
        for eta in pointwise_exactness_maps(rnd, SizeBounds(max_rank=2, max_entry=3),
                                            random_carrier_morphism):
            f, g, gen = eta.source, eta.target, eta.gen
            assert morphisms_built(FreydMorphism, f, g, gen, eta.wit) == 0
            doubled = FpMorphism(gen.source, gen.target, scale(gen.gen, 2),
                                 scale(gen.witness, 2))
            verdicts.append(morphism_equal(compose(doubled, f.carrier),
                                           compose(g.carrier, eta.wit)))
            if verdicts[-1]:
                assert morphisms_built(FreydMorphism, f, g, doubled, eta.wit) == 0
            else:
                with pytest.raises(ValueError, match="does not commute"):
                    FreydMorphism(f, g, doubled, eta.wit)
    assert 0 < verdicts.count(True) < len(verdicts)


def test_freyd_square_checks_its_ends():
    z = FpModule.free(Z, 1)
    two, three = free_obj(FREE_SPLIT, zmat([[2]])), free_obj(FREE_SPLIT, zmat([[3]]))
    ident = FpMorphism.identity(z)
    with pytest.raises(ValueError, match="does not commute"):
        FreydMorphism(two, three, ident, ident)
    # a map out of Z^2 starts at neither end of the functor, which is Z twice
    wide = FpMorphism.from_generator_matrix(FpModule.free(Z, 2), z, zmat([[1, 0]]))
    for gen, wit in ((wide, ident), (ident, wide)):
        with pytest.raises(ValueError):
            FreydMorphism(two, two, gen, wit)
