import random

import pytest

from tiltbench.complexes import free_complex
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
    is_zero_morphism,
    morphism_equal,
    pullback,
)
from tiltbench.rings import RingSpec

Z = RingSpec.INTEGERS

FREE_SPLIT = ExactStructure(Carrier.FREE_Z, Flavor.SPLIT)
FREE_MAX = ExactStructure(Carrier.FREE_Z, Flavor.MAXIMAL)
FP_MAX = ExactStructure(Carrier.FP_Z, Flavor.MAXIMAL)
TOR_INH = ExactStructure(Carrier.TORSION_Z, Flavor.INHERITED)
TORFREE_INH = ExactStructure(Carrier.TORSION_FREE_Z, Flavor.INHERITED)


def zmat(rows, cols=None):
    return IntMatrix.from_rows(Z, rows, cols=cols)


def free_map(rows, r_src, r_tgt):
    return FpMorphism.from_generator_matrix(
        FpModule.free(Z, r_src), FpModule.free(Z, r_tgt),
        IntMatrix.from_rows(Z, rows, cols=r_src))


def test_catalogue_rejects_unknown_combination():
    with pytest.raises(ValueError):
        ExactStructure(Carrier.TORSION_Z, Flavor.MAXIMAL)


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
    c, _ = e_cokernel(two, FREE_MAX)
    assert c.is_zero_module()  # free part of Z/2
    k, _ = e_kernel(two, FREE_MAX)
    assert k.is_zero_module()
    zero = FpMorphism.zero(FpModule.free(Z, 1), FpModule.free(Z, 1))
    c0, _ = e_cokernel(zero, FREE_MAX)
    assert c0.invariant_data() == (1, ())


def test_e_kernel_universal_inside_carrier():
    f = free_map([[2, 3]], 2, 1)
    k, incl, protocol = d_kernel(f, FREE_SPLIT)
    assert k.invariant_data() == (1, ())
    assert is_zero_morphism(compose(f, incl))
    # drive the cover protocol with test maps
    j = FpMorphism.from_generator_matrix(
        FpModule.free(Z, 1), f.source, zmat([[3], [-2]]))
    pi, lifted = protocol(j)
    assert morphism_equal(compose(incl, lifted),
                          compose(j, pi))


def test_d_kernel_trivial_cases():
    two = free_map([[2]], 1, 1)
    k, incl, protocol = d_kernel(two, FREE_SPLIT)
    assert k.is_zero_module()
    zero = FpMorphism.zero(FpModule.free(Z, 2), FpModule.free(Z, 1))
    k0, incl0, _ = d_kernel(zero, FREE_SPLIT)
    assert k0.invariant_data() == (2, ())


def test_d_cokernel_protocol():
    two = free_map([[2]], 1, 1)
    c, proj, protocol = d_cokernel(two, FREE_MAX)
    assert c.is_zero_module()
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
        p, leg_f, leg_t = pullback(f, t)
        assert p.is_free()
        assert is_deflation(leg_t, FREE_SPLIT)


def test_inherited_structures_on_classes():
    z4 = FpModule.cyclic(Z, 4)
    z2 = FpModule.cyclic(Z, 2)
    incl = FpMorphism.from_generator_matrix(z2, z4, zmat([[2]]))
    proj = FpMorphism.from_generator_matrix(z4, z2, zmat([[1]]))
    assert is_conflation(incl, proj, TOR_INH)
    f2 = free_map([[2]], 1, 1)
    assert not is_deflation(f2, TORFREE_INH)
    # saturated inclusion Z -> Z^2 is an inflation for the torsion-free class
    sat = free_map([[1], [0]], 1, 2)
    assert is_inflation(sat, TORFREE_INH)
    nonsat = free_map([[2], [0]], 1, 2)
    assert not is_inflation(nonsat, TORFREE_INH)


def test_acyclicity_examples():
    c1 = free_complex(Z, 0, [zmat([[1]])])
    rep = is_acyclic_wrt(c1, FREE_SPLIT)
    assert rep.acyclic
    assert rep.factors[0].invariant_data() == (1, ())

    c2 = free_complex(Z, 0, [zmat([[2]])])
    assert not is_acyclic_wrt(c2, FREE_SPLIT)
    assert not is_acyclic_wrt(c2, FP_MAX).acyclic

    c3 = free_complex(Z, 0, [zmat([[1], [0]]), zmat([[0, 1]])])
    assert is_acyclic_wrt(c3, FREE_SPLIT).acyclic


def test_acyclicity_fp_max_vs_free():
    # exact complex of fp modules: 0 -> Z/2 -> Z/4 -> Z/2 -> 0
    z2, z4 = FpModule.cyclic(Z, 2), FpModule.cyclic(Z, 4)
    incl = FpMorphism.from_generator_matrix(z2, z4, zmat([[2]]))
    proj = FpMorphism.from_generator_matrix(z4, z2, zmat([[1]]))
    from tiltbench.complexes import fp_complex
    c = fp_complex(Z, 0, [z2, z4, z2], [incl, proj])
    assert is_acyclic_wrt(c, FP_MAX).acyclic
    assert is_acyclic_wrt(c, TOR_INH).acyclic


def test_pushout_in_free_carrier():
    f = free_map([[2]], 1, 1)
    g = free_map([[3]], 1, 1)
    p, la, lb = carrier_pushout(f, g, FREE_MAX)
    assert p.is_free()
    assert morphism_equal(compose(la, f), compose(lb, g))
