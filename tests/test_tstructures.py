import hashlib

import pytest

import oracles
from entry_guard import guard_snf_entries
from tiltbench import complexes, modules, suites, tstructures
from tiltbench.complexes import (
    ChainMap,
    cohomology,
    compose_chain_maps,
    direct_sum_complexes,
    free_complex,
    is_nullhomotopic,
    is_quasi_iso,
    stalk_complex,
)
from tiltbench.matrices import IntMatrix
from tiltbench.modules import FpModule, FpMorphism, hom_group, injection, morphism_equal
from tiltbench.rings import QPoly, RingSpec
from tiltbench.samplers import (
    SizeBounds,
    random_fp_complex,
    random_free_complex,
    rng_for,
)
from tiltbench.tstructures import (
    CORRUPTED,
    HRS,
    LEFT,
    NATURAL,
    RIGHT,
    ClassTag,
    TStructureSpec,
    TVariant,
    UnsupportedClassTagError,
    approximating_triangle,
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
    triangle_is_distinguished,
    truncate_ge,
    truncate_le,
)

Z = RingSpec.INTEGERS


def zmat(rows, cols=None):
    return IntMatrix.from_rows(Z, rows, cols=cols)


def fc(lo, mats, first_rank=None):
    return free_complex(Z, lo, [zmat(m) for m in mats], first_rank=first_rank)


def test_config_strings_are_distinct():
    # config strings label the rng streams of the axiom checks, so they are
    # pinned byte for byte; the left and right ones name the free carrier
    strings = [spec.config_string() for spec in (LEFT, RIGHT, NATURAL, HRS, CORRUPTED)]
    assert strings == ["variant=Left,carrier=FreeZ,flavor=Split",
                       "variant=Right,carrier=FreeZ,flavor=Split",
                       "variant=Natural", "variant=HRSTilt", "variant=Natural,corrupt=1"]


def test_left_truncation_monic_differential():
    # [Z --x2--> Z] in degrees (0, 1): kernel of d^0 is 0, so tau_le(0) = 0
    x = fc(0, [[[2]]])
    t = truncate_le(LEFT, 0, x).source
    assert t.is_zero_complex() or all(
        t.object_at(n).is_zero_module() for n in t.degrees())


def test_left_truncation_rejects_a_polynomial_complex():
    # every t-structure acts on complexes over the integers, free or not
    x = free_complex(RingSpec.RATIONAL_POLYNOMIALS, 0,
                     [IntMatrix.from_rows(RingSpec.RATIONAL_POLYNOMIALS, [[QPoly.x()]])])
    with pytest.raises(ValueError):
        truncate_le(LEFT, 0, x)


def test_natural_truncation_no_positive_cohomology():
    x = fc(-1, [[[2]]])
    assert is_quasi_iso(truncate_le(NATURAL, 0, x))


def test_hrs_truncation_of_mixed_stalk():
    # (Z (+) Z/4)[0]: the tilted truncation keeps the torsion part
    m = FpModule.from_invariants(Z, [4], 1)
    x = stalk_complex(m, 0)
    h0 = cohomology(truncate_le(HRS, 0, x).source, 0)
    assert h0.invariant_data() == (0, (4,))
    assert cohomology(truncate_ge(HRS, 1, x).target, 0).invariant_data() == (1, ())


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
    assert heart_membership(NATURAL, zfp)
    # the tilted heart holds torsion at degree 0 and frees at degree -1
    assert not heart_membership(HRS, zfp)
    assert heart_membership(HRS, stalk_complex(FpModule.free(Z, 1), -1))
    assert heart_membership(HRS, stalk_complex(FpModule.cyclic(Z, 4), 0))


def test_approximating_triangle_aisle_cases():
    # X in the aisle: coaisle part vanishes up to iso
    x = fc(-2, [[[3]]])  # degrees (-2, -1)
    _, unit = approximating_triangle(NATURAL, x)
    assert all(cohomology(unit.target, n).is_zero_module()
               for n in unit.target.degrees())
    # X a shifted co-aisle object: aisle part vanishes
    y = stalk_complex(FpModule.cyclic(Z, 2), 2)
    counit, _ = approximating_triangle(NATURAL, y)
    assert all(cohomology(counit.source, n).is_zero_module()
               for n in counit.source.degrees())


def test_approximating_triangle_splits_direct_sum():
    za = stalk_complex(FpModule.free(Z, 1), 0)
    zb = stalk_complex(FpModule.cyclic(Z, 2), -1)
    s = direct_sum_complexes([za, zb])
    counit, unit = approximating_triangle(NATURAL, s)
    assert triangle_is_distinguished(counit, unit)
    assert cohomology(counit.source, 0).invariant_data() == (1, ())
    assert cohomology(counit.source, -1).invariant_data() == (0, (2,))
    assert all(cohomology(unit.target, n).is_zero_module()
               for n in unit.target.degrees())


def test_triangle_check_builds_no_sum_and_no_cone(monkeypatch):
    # the cone of the comparison map cone(A -> X) -> B is read as the total
    # complex of B <- X <- A: no direct sum and no block morphism is built
    za = stalk_complex(FpModule.free(Z, 1), 0)
    zb = stalk_complex(FpModule.cyclic(Z, 2), -1)
    s = direct_sum_complexes([za, zb])
    tri = approximating_triangle(NATURAL, s)
    built = []
    for name in ("direct_sum", "block_morphism"):
        def recording(*args, _name=name, _real=getattr(modules, name)):
            built.append(_name)
            return _real(*args)

        monkeypatch.setattr(modules, name, recording)
    assert triangle_is_distinguished(*tri)
    assert built == []


def cone_triangle(f, k):
    """X -> cone(f) with k times the injection of X, after f : A -> X; its
    composite is (k f, 0), null-homotopic but not zero where k f is not."""
    cc = oracles.cone(f)
    unit = ChainMap(f.target, cc, {n: FpMorphism(
        f.target.object_at(n), cc.object_at(n),
        oracles.scale(injection([f.target.object_at(n), f.source.object_at(n + 1)],
                                cc.object_at(n), 0).gen, k),
        IntMatrix.zeros(Z, 0, 0)) for n in cc.degrees()})
    return f, unit


def test_triangle_check_agrees_with_the_comparison_cone():
    # against the old construction: the comparison map built on
    # oracles.cone, then its cone, contracted over the free carrier and
    # tested by is_exact elsewhere; approximating triangles of all five
    # specs (the corrupted aisle gives triangles that are not
    # distinguished), star peeling triangles, and the triangles
    # A -> X -> cone(A -> X), whose composites need a homotopy
    bounds = SizeBounds(max_rank=2, max_entry=3, max_width=3)
    cases = []
    for spec in (LEFT, RIGHT, NATURAL, HRS, CORRUPTED):
        free = spec.acts_on_free_complexes
        for i in range(12):
            rnd = rng_for(29, "triangle-cones", spec.config_string(), i)
            x = (random_free_complex if free else random_fp_complex)(rnd, bounds)
            cases.append((*approximating_triangle(spec, x), free))
    for i in range(12):
        x = random_fp_complex(rng_for(29, "triangle-stars", i), bounds)
        for tag, n in ((ClassTag.TORSION, 1), (ClassTag.ALL_FP, 2)):
            dec = star_membership(x, tag, n)
            if dec is not None:
                cases += [(*tri, False) for tri in dec.triangles]
    for i in range(6):
        x = random_free_complex(rng_for(29, "triangle-homotopies", i), bounds)
        for k in (1, 2):
            cases.append((*cone_triangle(ChainMap.identity(x), k), True))
    outcomes, homotopies = [], 0
    for counit, unit, free in cases:
        got = triangle_is_distinguished(counit, unit)
        assert got == oracles.distinguished_by_comparison_cone(counit, unit, free)
        outcomes.append(got)
        homotopies += not all(
            modules.is_zero_morphism(modules.compose(unit.component_at(n), counit.component_at(n)))
            for n in counit.source.degrees())
    assert 0 < outcomes.count(False) < len(outcomes)
    assert homotopies >= 6


def triangle_total(counit, unit):
    """The parts and maps whose total complex ``triangle_is_distinguished``
    tests, or None where the composite is not null-homotopic."""
    a, x, b = counit.source, counit.target, unit.target
    s = {}
    if not all(modules.composite_is_zero(unit.component_at(n), counit.component_at(n))
               for n in a.degrees()):
        if not (a.is_strict_free() and b.is_strict_free()):
            return None
        homotopy = is_nullhomotopic(compose_chain_maps(unit, counit))
        if homotopy is None:
            return None
        s = homotopy.components
    return [b, x, a], {(0, 1): unit.components, (1, 2): counit.components, (0, 2): s}


def test_trimmed_exactness_agrees_with_the_full_total_complex():
    # total_is_exact drops the degrees where its end maps are identities;
    # oracles.total_is_exact_in_full lays out every degree: the counits and
    # units of all five specs at n from lo - 1 to hi + 1, on free and fp
    # complexes and their shifts, approximating triangles, the triangles
    # A -> X -> cone(A -> X) along identities and counits, and one built by
    # hand
    bounds = SizeBounds(max_rank=2, max_entry=3, max_width=3)
    cases = []
    for spec in (LEFT, RIGHT, NATURAL, HRS, CORRUPTED):
        samples = [random_free_complex] + [random_fp_complex] * (not spec.acts_on_free_complexes)
        for sample in samples:
            for i in range(4):
                x = sample(rng_for(37, "trimmed-totals", spec.config_string(),
                                   sample.__name__, i), bounds)
                for y in (x, x.shift(1)):
                    for n in range(y.lo - 1, y.hi + 2):
                        for f in (truncate_le(spec, n, y), truncate_ge(spec, n, y)):
                            cases.append(([f.target, f.source], {(0, 1): f.components}))
                    cases.append(triangle_total(*approximating_triangle(spec, y)))
    for i in range(6):
        x = random_free_complex(rng_for(37, "trimmed-cones", i), bounds)
        for f in (ChainMap.identity(x), truncate_le(LEFT, 0, x)):
            for k in (1, 2):
                cases.append(triangle_total(*cone_triangle(f, k)))
    # Z --1--> Z in degrees -1..0 three times, the unit the shared identity
    # at -1 alone: only the homotopy s kills the composite, and it enters
    # B^-1 from A^0, so the first pair must not be trimmed from below
    x, a = fc(-1, [[[1]]]), fc(-1, [[[1]]])
    ones = {n: FpMorphism(a.object_at(n), x.object_at(n), zmat([[1]]), IntMatrix.zeros(Z, 0, 0))
            for n in (-1, 0)}
    unit = ChainMap(x, x, {-1: FpMorphism.identity(x.object_at(-1)), 0: ones[0]})
    contractible = triangle_total(ChainMap(a, x, ones), unit)
    assert complexes.total_is_exact(*contractible)
    cases.append(contractible)
    outcomes = []
    for parts, maps in filter(None, cases):
        outcomes.append(complexes.total_is_exact(parts, maps))
        assert outcomes[-1] == oracles.total_is_exact_in_full(parts, maps)
    assert len(outcomes) > 400
    assert 0 < outcomes.count(False) < len(outcomes)
    assert sum(len(parts) == 3 for parts, _ in filter(None, cases)) > 50


def test_aisle_membership_diagonalises_outside_the_identity_window(monkeypatch):
    # x = Z --1--> Z --0--> Z --1--> Z in degrees -2..1 is exact; its left
    # counit at 0 is the identity below 0, so of the cone only the total
    # degrees -1..1 are laid out: x^0, x^1 and the capping kernel, rank 0
    shapes = []

    def recording(m, _real=complexes.nonzero_diagonal):
        shapes.append((m.rows, m.cols))
        return _real(m)

    monkeypatch.setattr(complexes, "nonzero_diagonal", recording)
    x = fc(-2, [[[1]], [[0]], [[1]]])
    assert in_aisle(LEFT, 0, x)
    assert shapes == [(1, 0), (1, 1)]


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
        assert triangle_is_distinguished(*tri)
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
    for i in range(25):
        x = random_fp_complex(rnd, SizeBounds(2, 6, 3))
        star = star_membership(x, ClassTag.TORSION, 1) is not None
        hrs = in_aisle(HRS, 0, x)
        assert star == hrs


def test_heart_equivalence_round_trip():
    m = FpModule(zmat([[2, 0], [0, 3]]))
    h = module_to_left_heart(m)
    assert heart_membership(LEFT, h)
    back = left_heart_to_module(LEFT, h)
    assert back.is_isomorphic(m)
    # free stalks map to themselves
    free = FpModule.free(Z, 2)
    h2 = module_to_left_heart(free)
    assert left_heart_to_module(LEFT, h2).is_isomorphic(free)


def test_heart_equivalence_on_morphisms():
    mx = FpModule.cyclic(Z, 4)
    my = FpModule.cyclic(Z, 6)
    hx = module_to_left_heart(mx)
    hy = module_to_left_heart(my)
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
    rnd = rng_for(9, "tcoh")
    for i in range(10):
        x = random_fp_complex(rnd, SizeBounds(2, 5, 3))
        for n in range(x.lo, x.hi + 1):
            rep = t_cohomology(NATURAL, n, x)
            assert cohomology(rep, n).is_isomorphic(cohomology(x, n))


def test_axiom_checker_passes_small_budget():
    for spec in (NATURAL, LEFT, RIGHT, HRS):
        rep = suites._axioms(spec)(6, 3, SizeBounds(2, 5, 3))
        assert rep.passed, (spec.config_string(), [f.check for f in rep.failures])


def test_corrupted_spec_fails_axioms():
    rep = suites._axioms(CORRUPTED)(12, 3, SizeBounds(2, 5, 3))
    assert not rep.passed


def test_tilting_class_checks():
    ok = suites._tilting(ClassTag.ALL_FP, "tilting")(15, 5, SizeBounds())
    assert ok.passed
    bad = suites._tilting(ClassTag.FREE, "tilting")(15, 5, SizeBounds())
    assert not bad.passed
    assert any(f.check == "cogeneration" for f in bad.failures)
    dual = suites._tilting(ClassTag.FREE, "cotilting")(15, 5, SizeBounds())
    assert dual.passed


def test_subobject_closure_builds_no_image_inclusion(monkeypatch):
    # the cotilting subobject check reads the image module alone
    images = []
    real_image = modules.image
    monkeypatch.setattr(modules, "image", lambda f: images.append(f) or real_image(f))
    dual = suites._tilting(ClassTag.FREE, "cotilting")(15, 5, SizeBounds())
    assert dual.passed and dual.samples == 15 and images == []


def test_cogeneration_witness_z2():
    z2 = FpModule.cyclic(Z, 2)
    assert cogeneration_witness(ClassTag.FREE, z2) is None
    assert hom_group(z2, FpModule.free(Z, 2)).module.is_zero_module()
    assert cogeneration_witness(ClassTag.ALL_FP, z2) is not None


def test_gap_inclusion_right_le_minus_one_in_left_le_zero():
    rnd = rng_for(17, "gap")
    for i in range(15):
        x = random_free_complex(rnd, SizeBounds(2, 5, 3))
        assert in_aisle(LEFT, 0, truncate_le(RIGHT, -1, x).source)
        assert in_aisle(RIGHT, 0, truncate_le(LEFT, 0, x).source)


@pytest.fixture
def snf_entry_bits(monkeypatch):
    """Make every diagonalisation raise on an integer entry wider than 256
    bits; returns a one-element list holding the widest entry seen."""
    return guard_snf_entries(monkeypatch.setattr)


@pytest.mark.parametrize("replay, checks", [
    # entries used to compound across solve, kernel and solve to about
    # 85,000 bits, stuck in SNF for minutes
    (lambda: suites._hrs_star_consistency(
        rng_for(2618853688, "hrs-star", 1), SizeBounds()), []),
    # SNF inputs used to reach 492,041 bits, 45 s for one sample
    (lambda: suites._axiom_sample(
        NATURAL, rng_for(1536079867, "axiom", NATURAL.config_string(), 3), SizeBounds()), []),
    # the widest SNF input, 78 bits, of every default suite over seeds 7-16
    # at budget 100: seed 7, sample 43 of the corrupted control, which is
    # detected there
    (lambda: suites._axiom_sample(
        CORRUPTED, rng_for(7, "axiom", CORRUPTED.config_string(), 43),
        SizeBounds()), ["approximating_triangle"]),
], ids=["hrs_star_consistency", "tstructure_axioms_natural", "corrupted_tstructure_detected"])
def test_entry_growth_replays_stay_small(snf_entry_bits, replay, checks):
    assert [check for check, _ in replay()] == checks
    assert 0 < snf_entry_bits[0] <= 256


def test_a_truncation_is_its_comparison_map():
    # every variant, the corrupted one too, returns one chain map: the
    # counit ends and the unit starts at x, and both commute with the
    # differentials of the spliced complex; so do the maps of the
    # degreewise-split triangles that peel a star decomposition
    bounds = SizeBounds(max_rank=2, max_entry=4, max_width=3)
    maps = []
    for spec in (NATURAL, LEFT, RIGHT, HRS, CORRUPTED):
        sample = random_free_complex if spec.acts_on_free_complexes else random_fp_complex
        for i in range(4):
            x = sample(rng_for(31, "truncation-maps", spec.config_string(), i), bounds)
            for n in range(-2, 3):
                counit, unit = truncate_le(spec, n, x), truncate_ge(spec, n, x)
                assert counit.target is x and unit.source is x
                maps += [counit, unit]
    for i in range(6):
        x = random_fp_complex(rng_for(31, "truncation-stars", i), bounds)
        dec = star_membership(x.shift(x.hi), ClassTag.ALL_FP, 2)
        maps += [f for tri in dec.triangles for f in tri]
    for f in maps:
        oracles.checked_chain_map(f.source, f.target, f.components)


def test_the_corrupted_control_is_natural():
    with pytest.raises(ValueError):
        TStructureSpec(TVariant.HRS_TILT, corrupt=True)


def test_truncations_are_pinned():
    # golden hash of every truncated complex and comparison map of the four
    # t-structures and the corrupted control at n in -2..2, and of the
    # triangles and stalk factors of both computable star memberships
    bounds = SizeBounds(max_rank=2, max_entry=4, max_width=3)
    h = hashlib.sha256()

    def update_complex(c):
        h.update(repr((c.lo, [m.presentation for m in c.objects],
                       [(d.gen, d.witness) for d in c.differentials])).encode())

    def update_map(f):
        h.update(repr([(n, g.gen, g.witness)
                       for n, g in sorted(f.components.items())]).encode())

    for spec in (NATURAL, LEFT, RIGHT, HRS, CORRUPTED):
        sample = (random_free_complex if spec.variant in (TVariant.LEFT, TVariant.RIGHT)
                  else random_fp_complex)
        for i in range(4):
            x = sample(rng_for(11, "pinned-truncations", spec.config_string(), i), bounds)
            for n in range(-2, 3):
                counit, unit = truncate_le(spec, n, x), truncate_ge(spec, n, x)
                for t, f in ((counit.source, counit), (unit.target, unit)):
                    update_complex(t)
                    update_map(f)
    for tag, n in ((ClassTag.TORSION, 1), (ClassTag.ALL_FP, 2)):
        for i in range(6):
            x = random_fp_complex(rng_for(11, "pinned-star", tag.value, i), bounds)
            x = x.shift(x.hi)  # nothing above degree 0
            for candidate in (x, truncate_le(HRS, 0, x).source):
                dec = star_membership(candidate, tag, n)
                if dec is None:
                    h.update(b"none")
                    continue
                update_complex(dec.triangles[0][0].source)  # the window part
                for counit, unit in dec.triangles:
                    for c in (counit.source, counit.target, unit.target):
                        update_complex(c)
                    update_map(counit)
                    update_map(unit)
                h.update(repr([(f.degree, f.module.presentation)
                               for f in dec.factors]).encode())
    assert h.hexdigest() == (
        "5bb05f0903a739046db049513c1a09a1d9aa7a94808b1af2d8d3395de637c8cd")


def test_free_heart_membership_builds_no_homotopy(monkeypatch):
    # over a free carrier invertibility is read off the diagonals of the cone
    calls, real_nullhomotopic = [], complexes.is_nullhomotopic

    def counting_nullhomotopic(f):
        calls.append(f)
        return real_nullhomotopic(f)

    monkeypatch.setattr(complexes, "is_nullhomotopic", counting_nullhomotopic)
    monkeypatch.setattr(tstructures, "is_nullhomotopic", counting_nullhomotopic)
    for i in range(5):
        x = random_free_complex(rng_for(7, "heart-counting", i), SizeBounds())
        heart_membership(LEFT, x)
        heart_membership(RIGHT, x)
    assert calls == []
