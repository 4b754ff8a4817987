import random

import pytest

from tiltbench.complexes import Complex, free_complex
from tiltbench.exactness import (
    Carrier,
    CarrierMismatchError,
    ExactStructure,
    Flavor,
    carrier_pushout,
    d_cokernel,
    d_kernel,
    e_cokernel,
    e_kernel,
    is_acyclic_wrt,
    is_conflation,
    is_deflation,
    is_inflation,
)
from tiltbench.matrices import IntMatrix
from tiltbench.modules import (
    FpModule,
    FpMorphism,
    compose,
    factor,
    is_epi,
    is_zero_morphism,
    kernel,
    morphism_equal,
    pullback,
    torsion_decompose,
)
from tiltbench.rings import RingSpec
from tiltbench.samplers import (
    SizeBounds,
    random_carrier_deflation,
    random_carrier_morphism,
    random_module,
    rng_for,
)

Z = RingSpec.INTEGERS

FREE_SPLIT = ExactStructure(Carrier.FREE_Z, Flavor.SPLIT)
FREE_MAX = ExactStructure(Carrier.FREE_Z, Flavor.MAXIMAL)
FP_MAX = ExactStructure(Carrier.FP_Z, Flavor.MAXIMAL)
TOR_INH = ExactStructure(Carrier.TORSION_Z, Flavor.INHERITED)


def zmat(rows, cols=None):
    return IntMatrix.from_rows(Z, rows, cols=cols)


def free_map(rows, r_src, r_tgt):
    return FpMorphism.from_generator_matrix(
        FpModule.free(Z, r_src), FpModule.free(Z, r_tgt),
        IntMatrix.from_rows(Z, rows, cols=r_src))


def test_catalogue_rejects_unknown_combination():
    for carrier, flavor in ((Carrier.TORSION_Z, Flavor.MAXIMAL), (Carrier.FP_Z, Flavor.SPLIT),
                            (Carrier.TORSION_Z, Flavor.SPLIT)):
        with pytest.raises(ValueError):
            ExactStructure(carrier, flavor)


def test_config_strings_are_distinct():
    # config strings label the rng streams of the suites on each structure
    structures = [ExactStructure(c, f) for c, f in (
        (Carrier.FREE_Z, Flavor.SPLIT), (Carrier.FREE_Z, Flavor.MAXIMAL),
        (Carrier.FP_Z, Flavor.MAXIMAL), (Carrier.TORSION_Z, Flavor.INHERITED))]
    strings = [ex.config_string() for ex in structures]
    assert len(set(strings)) == len(strings)


def test_times_two_not_deflation_fp_max():
    f = free_map([[2]], 1, 1)
    assert not is_deflation(f, FP_MAX)


def test_projection_split_deflation():
    f = free_map([[1, 0]], 2, 1)
    assert is_deflation(f, FREE_SPLIT)


def test_torsion_inherited_deflation():
    z4 = FpModule.cyclic(Z, 4)
    z2 = FpModule.cyclic(Z, 2)
    f = FpMorphism.from_generator_matrix(z4, z2, zmat([[1]]))
    assert is_deflation(f, TOR_INH)


def test_carrier_mismatch_raises():
    z4 = FpModule.cyclic(Z, 4)
    f = FpMorphism.identity(z4)
    with pytest.raises(CarrierMismatchError):
        is_deflation(f, FREE_SPLIT)


def test_e_kernel_cokernel_free_carrier():
    two = free_map([[2]], 1, 1)
    assert e_cokernel(two, FREE_MAX).target.is_zero_module()  # free part of Z/2
    assert e_kernel(two, FREE_MAX).source.is_zero_module()
    zero = FpMorphism.zero(FpModule.free(Z, 1), FpModule.free(Z, 1))
    assert e_cokernel(zero, FREE_MAX).target.invariant_data() == (1, ())


def test_e_kernel_universal_inside_carrier():
    f = free_map([[2, 3]], 2, 1)
    incl, protocol = d_kernel(f, FREE_SPLIT)
    assert incl.source.invariant_data() == (1, ())
    assert is_zero_morphism(compose(f, incl))
    # drive the cover protocol with test maps
    j = FpMorphism.from_generator_matrix(
        FpModule.free(Z, 1), f.source, zmat([[3], [-2]]))
    pi, lifted = protocol(j)
    assert morphism_equal(compose(incl, lifted),
                          compose(j, pi))


def test_d_kernel_trivial_cases():
    two = free_map([[2]], 1, 1)
    assert d_kernel(two, FREE_SPLIT)[0].source.is_zero_module()
    zero = FpMorphism.zero(FpModule.free(Z, 2), FpModule.free(Z, 1))
    assert d_kernel(zero, FREE_SPLIT)[0].source.invariant_data() == (2, ())


def test_d_cokernel_protocol():
    two = free_map([[2]], 1, 1)
    proj, protocol = d_cokernel(two, FREE_MAX)
    assert proj.target.is_zero_module()
    j = FpMorphism.zero(two.target, FpModule.free(Z, 1))
    iota, descended = protocol(j)
    assert morphism_equal(compose(descended, proj), compose(iota, j))


def test_freez_max_equals_split_sampled():
    rnd = random.Random(5)
    for _ in range(200):
        r, c = rnd.randint(1, 3), rnd.randint(1, 3)
        f = free_map([[rnd.randint(-4, 4) for _ in range(c)] for _ in range(r)], c, r)
        assert is_deflation(f, FREE_MAX) == is_deflation(f, FREE_SPLIT)
        assert is_inflation(f, FREE_MAX) == is_inflation(f, FREE_SPLIT)


def test_deflations_compose_and_pull_back():
    rnd = random.Random(6)
    count = 0
    for _ in range(200):
        if count > 10:
            break
        r1 = rnd.randint(1, 2)
        f = free_map([[rnd.randint(-3, 3) for _ in range(r1 + 1)] for _ in range(r1)],
                     r1 + 1, r1)
        if not is_deflation(f, FREE_SPLIT):
            continue
        count += 1
        g = free_map([[rnd.randint(-3, 3) for _ in range(r1)] for _ in range(max(r1 - 1, 1))],
                     r1, max(r1 - 1, 1))
        if is_deflation(g, FREE_SPLIT):
            assert is_deflation(compose(g, f), FREE_SPLIT)
        # pull back f along an arbitrary map; the pulled-back leg deflates
        t = free_map([[rnd.randint(-3, 3)] for _ in range(r1)], 1, r1)
        leg_f, leg_t = pullback(f, t)
        assert leg_t.source.is_free()
        assert is_deflation(leg_t, FREE_SPLIT)


def test_inherited_structures_on_classes():
    z4 = FpModule.cyclic(Z, 4)
    z2 = FpModule.cyclic(Z, 2)
    incl = FpMorphism.from_generator_matrix(z2, z4, zmat([[2]]))
    proj = FpMorphism.from_generator_matrix(z4, z2, zmat([[1]]))
    assert is_conflation(incl, proj, TOR_INH)


def test_torsion_inherited_agrees_with_the_ambient_definition():
    # inherited by the finite groups: an ambient epi whose kernel is finite,
    # with the ambient kernel as the kernel inside the class
    bounds = SizeBounds(max_rank=3, max_entry=8)
    outcomes = set()
    for i in range(40):
        rnd = rng_for(5, "torsion-inherited", i)
        f = (random_carrier_deflation if i % 2 else random_carrier_morphism)(TOR_INH, rnd, bounds)
        k_incl = kernel(f)
        expected = is_epi(f) and k_incl.source.is_torsion()
        assert is_deflation(f, TOR_INH) == expected
        outcomes.add(expected)
        e_incl = e_kernel(f, TOR_INH)
        assert e_incl.source.presentation == k_incl.source.presentation
        assert morphism_equal(e_incl, k_incl)
    assert outcomes == {True, False}


def test_acyclicity_examples():
    c1 = free_complex(Z, 0, [zmat([[1]])])
    factors = is_acyclic_wrt(c1, FREE_SPLIT)
    assert factors is not None
    assert factors[0].invariant_data() == (1, ())

    c2 = free_complex(Z, 0, [zmat([[2]])])
    assert is_acyclic_wrt(c2, FREE_SPLIT) is None
    assert is_acyclic_wrt(c2, FP_MAX) is None

    c3 = free_complex(Z, 0, [zmat([[1], [0]]), zmat([[0, 1]])])
    assert is_acyclic_wrt(c3, FREE_SPLIT) is not None


def test_acyclicity_fp_max_vs_free():
    # exact complex of fp modules: 0 -> Z/2 -> Z/4 -> Z/2 -> 0
    z2, z4 = FpModule.cyclic(Z, 2), FpModule.cyclic(Z, 4)
    incl = FpMorphism.from_generator_matrix(z2, z4, zmat([[2]]))
    proj = FpMorphism.from_generator_matrix(z4, z2, zmat([[1]]))
    c = Complex(Z, 0, [z2, z4, z2], [incl, proj])
    assert is_acyclic_wrt(c, FP_MAX) is not None
    assert is_acyclic_wrt(c, TOR_INH) is not None


def test_pushout_in_free_carrier():
    f = free_map([[2]], 1, 1)
    g = free_map([[3]], 1, 1)
    la, lb = carrier_pushout(f, g, FREE_MAX)
    assert la.target.is_free()
    assert morphism_equal(compose(la, f), compose(lb, g))


def test_conflation_middle_is_one_membership_solve(module_constructions):
    # exact in the middle iff ker defl lies in im incl, with no kernel
    # module and no factor system; the old construction is the oracle.
    # Z --4--> Z --> Z/2 composes to zero between a mono and an epi, yet
    # ker = 2Z is not im = 4Z
    z, z2 = FpModule.free(Z, 1), FpModule.cyclic(Z, 2)
    pairs = [(free_map([[4]], 1, 1), FpMorphism.from_generator_matrix(z, z2, zmat([[1]])))]
    for i in range(8):
        incl, proj = torsion_decompose(
            random_module(rng_for(3, "conflation", i), SizeBounds(max_rank=3, max_entry=6)))
        pairs.append((incl, proj))
    outcomes = []
    for incl, defl in pairs:
        kincl = kernel(defl)
        expected = factor(kincl, incl) is not None and factor(incl, kincl) is not None
        outcomes.append(is_conflation(incl, defl, FP_MAX))
        assert outcomes[-1] == expected
        assert {"factor", "kernel"}.isdisjoint(
            module_constructions(is_conflation, incl, defl, FP_MAX))
    assert outcomes[0] is False and all(outcomes[1:])
