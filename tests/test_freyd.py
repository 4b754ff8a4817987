import random

import pytest

from tiltbench.exactness import Carrier, ExactStructure, Flavor
from tiltbench.freyd import (
    Fraction,
    FreydMorphism,
    FreydObject,
    UnsupportedCarrierError,
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
    pointwise_epi,
    project_fraction,
    project_morphism,
    refine_fraction,
    right_filter_factor,
)
from tiltbench.matrices import IntMatrix
from tiltbench.modules import (
    FpModule,
    FpMorphism,
    compose,
    is_epi,
    is_mono,
    is_zero_morphism,
    morphism_equal,
)
from tiltbench.rings import RingSpec

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
    from tiltbench.samplers import random_unimodular
    for _ in range(20):
        r = rnd.randint(1, 3)
        base = IntMatrix.from_rows(
            Z, [[1 if i == j else 0 for j in range(r + 1)] for i in range(r)],
            cols=r + 1)
        u = random_unimodular(rnd, r)
        v = random_unimodular(rnd, r + 1)
        f = free_obj(FREE_SPLIT, u * base * v)
        assert is_effaceable(f)  # split epi stays split epi under isos
        two = free_obj(FREE_SPLIT, (u * base * v).scale(2))
        assert not is_effaceable(two)  # a doubled map never splits


def test_auslander_project_examples():
    d23 = free_obj(FREE_SPLIT, zmat([[2, 0], [0, 3]]))
    m = auslander_project(d23)
    assert m.invariant_data() == (0, (6,))
    eff = free_obj(FREE_SPLIT, zmat([[1, 0], [0, 1]]))
    assert auslander_project(eff).is_zero_module()
    h0 = free_obj(FREE_SPLIT, IntMatrix.zeros(Z, 1, 0))
    assert auslander_project(h0).invariant_data() == (1, ())


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


def test_right_filter_factor_trivial_cases():
    z = FpModule.free(Z, 1)
    z2 = FpModule.cyclic(Z, 2)
    eff = FreydObject(FP_MAX, FpMorphism.from_generator_matrix(z, z2, zmat([[1]])))
    zero_map = FreydMorphism.zero(eff, eff)
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
        incl_map = evaluate_map(incl, probe)
        eta_map = evaluate_map(eta, probe)
        assert is_mono(incl_map)
        assert is_epi(eta_map)
        assert is_zero_morphism(compose(eta_map, incl_map))


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
    from tiltbench.samplers import random_matrix
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


def test_pullback_of_pointwise_epi_stays_epi():
    z = FpModule.free(Z, 1)
    four = FreydObject(FP_MAX, FpMorphism.from_generator_matrix(z, z, zmat([[4]])))
    two = FreydObject(FP_MAX, FpMorphism.from_generator_matrix(z, z, zmat([[2]])))
    eta = FreydMorphism.from_generator(four, two, FpMorphism.identity(z))
    assert pointwise_epi(eta)
    other = FreydMorphism.from_generator(two, two, FpMorphism.identity(z))
    p, leg_other, leg_eta = freyd_pullback(other, eta)
    assert pointwise_epi(leg_other)
