import pytest

from tiltbench import matrices, modules, suites, tstructures
from tiltbench.complexes import (
    cohomology,
    direct_sum_complexes,
    free_complex,
    is_quasi_iso,
    stalk_complex,
)
from tiltbench.exactness import Carrier, ExactStructure, Flavor
from tiltbench.matrices import IntMatrix
from tiltbench.modules import FpModule, hom_group, morphism_equal
from tiltbench.rings import RingSpec
from tiltbench.samplers import SizeBounds, rng_for
from tiltbench.tstructures import (
    ClassTag,
    TStructureSpec,
    TVariant,
    UnsupportedClassTagError,
    approximating_triangle,
    check_tstructure_axioms,
    cogeneration_witness,
    heart_membership,
    in_aisle,
    intersection_normal_form,
    left_heart_map_to_module_map,
    left_heart_to_module,
    module_map_to_left_heart_map,
    module_to_left_heart,
    star_membership,
    t_cohomology,
    tilting_class_check,
    triangle_is_distinguished,
    truncate_ge,
    truncate_le,
)

Z = RingSpec.INTEGERS
FREE_SPLIT = ExactStructure(Carrier.FREE_Z, Flavor.SPLIT)
LEFT = TStructureSpec.left(FREE_SPLIT)
RIGHT = TStructureSpec.right(FREE_SPLIT)
NAT = TStructureSpec.natural()
HRS = TStructureSpec.hrs_tilt()


def zmat(rows, cols=None):
    return IntMatrix.from_rows(Z, rows, cols=cols)


def fc(lo, mats, first_rank=None):
    return free_complex(Z, lo, [zmat(m) for m in mats], first_rank=first_rank)


def test_config_strings_are_distinct():
    # config strings label the rng streams of the axiom checks
    specs = (LEFT, RIGHT, NAT, HRS, TStructureSpec.star(ClassTag.ALL_FP, 2))
    strings = [spec.config_string() for spec in specs]
    assert len(set(strings)) == len(strings)


def test_left_truncation_monic_differential():
    # [Z --x2--> Z] in degrees (0, 1): kernel of d^0 is 0, so tau_le(0) = 0
    x = fc(0, [[[2]]])
    t, counit = truncate_le(LEFT, 0, x)
    assert t.is_zero_complex() or all(
        t.object_at(n).is_zero_module() for n in t.degrees())


def test_natural_truncation_no_positive_cohomology():
    x = fc(-1, [[[2]]])
    t, counit = truncate_le(NAT, 0, x)
    assert is_quasi_iso(counit)


def test_hrs_truncation_of_mixed_stalk():
    # (Z (+) Z/4)[0]: the tilted truncation keeps the torsion part
    m = FpModule.from_invariants(Z, [4], 1)
    x = stalk_complex(m, 0)
    t, counit = truncate_le(HRS, 0, x)
    h0 = cohomology(t, 0)
    assert h0.invariant_data() == (0, (4,))
    b, unit = truncate_ge(HRS, 1, x)
    assert cohomology(b, 0).invariant_data() == (1, ())


def test_left_heart_membership_of_z2_resolution():
    x = fc(-1, [[[2]]])  # degrees (-1, 0)
    assert heart_membership(LEFT, x)
    assert not heart_membership(RIGHT, x)
    # in degrees (0, 1) its torsion cokernel makes it a right-heart object
    assert heart_membership(RIGHT, fc(0, [[[2]]]))


def test_stalk_in_every_heart_containing_it():
    z = fc(0, [], first_rank=1)
    assert heart_membership(LEFT, z)
    assert heart_membership(RIGHT, z)
    zfp = stalk_complex(FpModule.free(Z, 1), 0)
    assert heart_membership(NAT, zfp)
    # the tilted heart holds torsion at degree 0 and frees at degree -1
    assert not heart_membership(HRS, zfp)
    assert heart_membership(HRS, stalk_complex(FpModule.free(Z, 1), -1))
    assert heart_membership(HRS, stalk_complex(FpModule.cyclic(Z, 4), 0))


def test_approximating_triangle_aisle_cases():
    # X in the aisle: coaisle part vanishes up to iso
    x = fc(-2, [[[3]]])  # degrees (-2, -1)
    tri = approximating_triangle(NAT, x)
    assert all(cohomology(tri.coaisle_part, n).is_zero_module()
               for n in tri.coaisle_part.degrees())
    # X a shifted co-aisle object: aisle part vanishes
    y = stalk_complex(FpModule.cyclic(Z, 2), 2)
    tri2 = approximating_triangle(NAT, y)
    assert all(cohomology(tri2.aisle_part, n).is_zero_module()
               for n in tri2.aisle_part.degrees())


def test_approximating_triangle_splits_direct_sum():
    za = stalk_complex(FpModule.free(Z, 1), 0)
    zb = stalk_complex(FpModule.cyclic(Z, 2), -1)
    s, _ = direct_sum_complexes([za, zb])
    tri = approximating_triangle(NAT, s)
    assert triangle_is_distinguished(tri.counit, tri.unit, "derived")
    assert cohomology(tri.aisle_part, 0).invariant_data() == (1, ())
    assert cohomology(tri.aisle_part, -1).invariant_data() == (0, (2,))
    assert all(cohomology(tri.coaisle_part, n).is_zero_module()
               for n in tri.coaisle_part.degrees())


def test_triangle_check_builds_each_sum_once(monkeypatch):
    # the comparison map cone(A -> X) -> B is built on the cone's own sums
    za = stalk_complex(FpModule.free(Z, 1), 0)
    zb = stalk_complex(FpModule.cyclic(Z, 2), -1)
    s, _ = direct_sum_complexes([za, zb])
    tri = approximating_triangle(NAT, s)
    summands, real_sum = [], modules.direct_sum

    def recording_sum(ms):
        summands.append(list(ms))  # holding the modules keeps their ids unique
        return real_sum(ms)

    monkeypatch.setattr(modules, "direct_sum", recording_sum)
    assert triangle_is_distinguished(tri.counit, tri.unit, "derived")
    keys = [tuple(map(id, ms)) for ms in summands]
    assert keys and len(set(keys)) == len(keys)


def test_star_membership_torsion_examples():
    assert star_membership(stalk_complex(FpModule.cyclic(Z, 3), 0),
                           ClassTag.TORSION, 1) is not None
    assert star_membership(stalk_complex(FpModule.free(Z, 1), 0),
                           ClassTag.TORSION, 1) is None
    # window objects are members with zero stalk factor
    win = stalk_complex(FpModule.cyclic(Z, 4), -1)
    dec = star_membership(win, ClassTag.TORSION, 1)
    assert dec is not None
    assert dec.factors[0].module.is_zero_module()


def test_star_membership_trivial_class():
    x = stalk_complex(FpModule.from_invariants(Z, [6], 1), 0)
    dec = star_membership(x, ClassTag.ALL_FP, 2)
    assert dec is not None
    assert len(dec.factors) == 2
    for tri in dec.triangles:
        assert triangle_is_distinguished(tri.sub_map, tri.quot_map, "derived")
    bad = stalk_complex(FpModule.cyclic(Z, 2), 1)
    assert star_membership(bad, ClassTag.ALL_FP, 2) is None


def test_star_membership_unsupported_class():
    x = stalk_complex(FpModule.cyclic(Z, 2), 0)
    with pytest.raises(UnsupportedClassTagError):
        star_membership(x, ClassTag.TORSION, 2)
    with pytest.raises(UnsupportedClassTagError):
        star_membership(x, ClassTag.FREE, 1)


def test_star_agrees_with_hrs_membership():
    rnd = rng_for(42, "star-vs-hrs")
    from tiltbench.samplers import random_fp_complex
    for i in range(25):
        x = random_fp_complex(rnd, SizeBounds(2, 6, 3))
        star = star_membership(x, ClassTag.TORSION, 1) is not None
        hrs = in_aisle(HRS, 0, x)
        assert star == hrs


def test_heart_equivalence_round_trip():
    m = FpModule(zmat([[2, 0], [0, 3]]))
    h = module_to_left_heart(LEFT, m)
    assert heart_membership(LEFT, h.representative)
    back = left_heart_to_module(LEFT, h.representative)
    assert back.is_isomorphic(m)
    # free stalks map to themselves
    free = FpModule.free(Z, 2)
    h2 = module_to_left_heart(LEFT, free)
    assert left_heart_to_module(LEFT, h2.representative).is_isomorphic(free)


def test_heart_equivalence_on_morphisms():
    mx = FpModule.cyclic(Z, 4)
    my = FpModule.cyclic(Z, 6)
    hx = module_to_left_heart(LEFT, mx).representative
    hy = module_to_left_heart(LEFT, my).representative
    hom = hom_group(FpModule(hx.differential_at(-1).gen),
                    FpModule(hy.differential_at(-1).gen))
    for i in range(hom.module.generators):
        psi = hom.generator(i)
        lifted = module_map_to_left_heart_map(psi, hx, hy)
        back = left_heart_map_to_module_map(lifted)
        assert morphism_equal(back, psi)


def test_intersection_normal_form():
    z2 = fc(0, [], first_rank=2)
    nf = intersection_normal_form(RIGHT, LEFT, z2)
    assert nf is not None and nf.invariant_data() == (2, ())
    res = fc(-1, [[[2]]])
    assert intersection_normal_form(RIGHT, LEFT, res) is None
    zero = fc(0, [], first_rank=0)
    nf0 = intersection_normal_form(RIGHT, LEFT, zero)
    assert nf0 is not None and nf0.is_zero_module()


def test_t_cohomology_matches_plain_cohomology_for_natural():
    from tiltbench.samplers import random_fp_complex
    rnd = rng_for(9, "tcoh")
    for i in range(10):
        x = random_fp_complex(rnd, SizeBounds(2, 5, 3))
        for n in range(x.lo, x.hi + 1):
            rep = t_cohomology(NAT, n, x)
            assert cohomology(rep, n).is_isomorphic(cohomology(x, n))


def test_axiom_checker_passes_small_budget():
    for spec in (NAT, LEFT, RIGHT, HRS):
        rep = check_tstructure_axioms(spec, 6, seed=3, bounds=SizeBounds(2, 5, 3))
        assert rep.passed, (spec.config_string(), [f.check for f in rep.failures])


def test_corrupted_spec_fails_axioms():
    bad = TStructureSpec(TVariant.NATURAL, corrupt=True)
    rep = check_tstructure_axioms(bad, 12, seed=3, bounds=SizeBounds(2, 5, 3))
    assert not rep.passed


def test_tilting_class_checks():
    ok = tilting_class_check(ClassTag.ALL_FP, 1, 15, seed=5)
    assert ok.passed
    bad = tilting_class_check(ClassTag.FREE, 1, 15, seed=5)
    assert not bad.passed
    assert any(f.check == "cogeneration" for f in bad.failures)
    dual = tilting_class_check(ClassTag.FREE, 1, 15, seed=5, mode="cotilting")
    assert dual.passed


def test_cogeneration_witness_z2():
    z2 = FpModule.cyclic(Z, 2)
    assert cogeneration_witness(ClassTag.FREE, z2) is None
    assert hom_group(z2, FpModule.free(Z, 2)).module.is_zero_module()
    assert cogeneration_witness(ClassTag.ALL_FP, z2) is not None


def test_gap_inclusion_right_le_minus_one_in_left_le_zero():
    from tiltbench.samplers import random_free_complex
    rnd = rng_for(17, "gap")
    for i in range(15):
        x = random_free_complex(rnd, SizeBounds(2, 5, 3))
        t, _ = truncate_le(RIGHT, -1, x)
        assert in_aisle(LEFT, 0, t)
        t2, _ = truncate_le(LEFT, 0, x)
        assert in_aisle(RIGHT, 0, t2)


@pytest.fixture
def snf_entry_bits(monkeypatch):
    """Make every diagonalisation raise on an integer entry wider than 256
    bits; returns a one-element list holding the widest entry seen."""
    widest = [0]
    real_init = matrices._SNFWorker.__init__

    def guarded_init(self, m):
        if m.ring is Z:
            bits = max((abs(e).bit_length() for e in m.entries), default=0)
            widest[0] = max(widest[0], bits)
            if bits > 256:
                raise OverflowError(f"SNF input entry of {bits} bits")
        real_init(self, m)

    monkeypatch.setattr(matrices._SNFWorker, "__init__", guarded_init)
    return widest


@pytest.mark.parametrize("replay", [
    # entries used to compound across solve, kernel and solve to about
    # 85,000 bits, stuck in SNF for minutes
    lambda: suites._hrs_star_consistency(
        rng_for(2618853688, "hrs-star", 1), SizeBounds()),
    # SNF inputs used to reach 492,041 bits, 45 s for one sample
    lambda: tstructures._axiom_sample(
        NAT, rng_for(1536079867, "axiom", NAT.config_string(), 3), SizeBounds()),
], ids=["hrs_star_consistency", "tstructure_axioms_natural"])
def test_entry_growth_replays_stay_small(snf_entry_bits, replay):
    assert list(replay()) == []
    assert 0 < snf_entry_bits[0] <= 256
