import hashlib
import random

import pytest

from oracles import (chain_maps_homotopic, checked_chain_map, cohomology_map, cone, scale,
                     total_hom_complex, total_is_exact_in_full)
from tiltbench import complexes, modules, rings
from tiltbench.complexes import (
    ChainMap,
    Complex,
    UndecidableConfigurationError,
    cohomology,
    derived_hom,
    direct_sum_complexes,
    free_complex,
    free_resolution,
    hom_differential,
    is_contractible,
    is_exact,
    is_nullhomotopic,
    is_quasi_iso,
    stalk_complex,
)
from tiltbench.matrices import IntMatrix
from tiltbench.modules import (
    FpModule,
    FpMorphism,
    cofactor,
    cokernel,
    compose,
    factor,
    image,
    injection,
    is_zero_morphism,
    kernel,
    morphism_equal,
    projection,
)
from tiltbench.rings import QPoly, RingSpec
from tiltbench.samplers import (
    SizeBounds,
    random_exact_free_complex,
    random_fp_complex,
    random_free_complex,
    rng_for,
)

Z = RingSpec.INTEGERS
QX = RingSpec.RATIONAL_POLYNOMIALS


def zmat(rows, cols=None):
    return IntMatrix.from_rows(Z, rows, cols=cols)


def two_term(a, lo=0):
    """[Z^c --a--> Z^r] starting in degree lo."""
    return free_complex(Z, lo, [zmat(a)])


def chain_map_of_matrices(src, tgt, mats):
    comps = {}
    for n, m in mats.items():
        comps[n] = FpMorphism.from_generator_matrix(
            src.object_at(n), tgt.object_at(n), m)
    return checked_chain_map(src, tgt, comps)


def cone_inclusion(f, cc):
    """Y -> cc = cone(f): in each degree the injection of Y^n into
    cone^n = Y^n (+) X^{n+1}."""
    return checked_chain_map(f.target, cc, {n: injection(
        [f.target.object_at(n), f.source.object_at(n + 1)], cc.object_at(n), 0)
        for n in cc.degrees()})


def test_complex_validation_rejects_nonzero_composite():
    objs = [FpModule.free(Z, 1)] * 3
    d1 = FpMorphism.from_generator_matrix(objs[0], objs[1], zmat([[1]]))
    d2 = FpMorphism.from_generator_matrix(objs[1], objs[2], zmat([[1]]))
    with pytest.raises(ValueError):
        Complex(Z, 0, objs, [d1, d2])


def test_shift_convention():
    c = two_term([[2]], lo=0)
    s = c.shift(1)
    assert s.lo == -1 and s.hi == 0
    assert int(s.differential_at(-1).gen.at(0, 0)) == -2


def test_cone_of_identity_is_contractible():
    c = stalk_complex(FpModule.free(Z, 1), 0)
    cc = cone(ChainMap.identity(c))
    h = is_contractible(cc)
    assert h is not None


def test_cone_of_zero_map_is_sum():
    x = two_term([[3]], lo=0)
    y = stalk_complex(FpModule.free(Z, 2), 0)
    cc = cone(ChainMap.zero(x, y))
    assert cc.object_at(-1).generators == 1
    assert cc.object_at(0).generators == 3
    # cohomology splits: H^{-1}(cone) = H^{-1}(X[1]) = ker(3) = 0
    assert cohomology(cc, -1).is_zero_module()


def test_cone_of_times_two():
    z = stalk_complex(FpModule.free(Z, 1), 0)
    f = chain_map_of_matrices(z, z, {0: zmat([[2]])})
    cc = cone(f)
    assert cc.lo == -1 and cc.hi == 0
    assert abs(int(cc.differential_at(-1).gen.at(0, 0))) == 2
    assert cohomology(cc, 0).invariant_data() == (0, (2,))


def test_nullhomotopy_on_acyclic_identity():
    c = two_term([[1]], lo=0)
    h = is_contractible(c)
    assert h is not None
    assert h.certifies(ChainMap.identity(c))


def test_nullhomotopy_obstruction():
    # (1,1) : [Z --2--> Z] -> [Z --2--> Z] needs 1 = 2h over Z
    c = two_term([[2]], lo=0)
    f = chain_map_of_matrices(c, c, {0: zmat([[1]]), 1: zmat([[1]])})
    assert is_nullhomotopic(f) is None


def test_nullhomotopy_zero_map():
    c = two_term([[2]], lo=0)
    h = is_nullhomotopic(ChainMap.zero(c, c))
    assert h is not None


def test_nullhomotopy_requires_relation_free():
    m = FpModule.cyclic(Z, 4)
    c = stalk_complex(m, 0)
    with pytest.raises(UndecidableConfigurationError):
        is_nullhomotopic(ChainMap.identity(c))
    # the supports do not overlap, so there is no equation; it still raises
    far = free_complex(Z, 5, [], first_rank=1)
    with pytest.raises(UndecidableConfigurationError):
        is_nullhomotopic(ChainMap.zero(c, far))


def test_cohomology_of_times_two():
    c = two_term([[2]], lo=-1)  # degrees (-1, 0)
    assert cohomology(c, -1).is_zero_module()
    assert cohomology(c, 0).invariant_data() == (0, (2,))


def test_cohomology_of_exact_complex():
    c = two_term([[1]], lo=0)
    assert is_exact(c)


def test_cohomology_of_stalk():
    m = FpModule.from_invariants(Z, [4], 1)
    c = stalk_complex(m, 0)
    assert cohomology(c, 0).is_isomorphic(m)
    assert cohomology(c, 1).is_zero_module()


def test_derived_hom_ext_computation():
    # X = [Z --2--> Z] in degrees (-1, 0) resolves Z/2; Y = Z[0]
    x = two_term([[2]], lo=-1)
    y = free_complex(Z, 0, [], first_rank=1)
    assert derived_hom(x, y, 0).is_zero_module()
    assert derived_hom(x, y, 1).invariant_data() == (0, (2,))


def test_derived_hom_identity():
    z = free_complex(Z, 0, [], first_rank=1)
    assert derived_hom(z, z, 0).invariant_data() == (1, ())


def test_derived_hom_outside_overlap():
    x = two_term([[2]], lo=0)
    y = free_complex(Z, 5, [], first_rank=1)
    assert derived_hom(x, y, 0).is_zero_module()


def test_hom_complex_cycles_are_chain_maps():
    # X = [Z --2--> Z] resolves Z/2 (in degree 1), so its endomorphisms up to
    # homotopy form Hom(Z/2, Z/2) = Z/2: (a, a) with (2h, 2h) as boundaries
    x = two_term([[2]], lo=0)
    hc = total_hom_complex(x, x)
    assert cohomology(hc, 0).invariant_data() == (0, (2,))


def test_homotopy_iso_detects_quasi_iso_of_frees():
    # [Z --1--> Z] (+) Z[0]  ~  Z[0]
    acyclic = two_term([[1]], lo=-1)
    z = free_complex(Z, 0, [], first_rank=1)
    s = direct_sum_complexes([acyclic, z])
    proj = checked_chain_map(s, z, {n: projection(
        s.object_at(n), [acyclic.object_at(n), z.object_at(n)], 1) for n in s.degrees()})
    assert is_quasi_iso(proj)


def test_free_resolution_formality():
    # fp complex: stalk Z/4 at degree 0 plus stalk Z at degree 2
    z4 = stalk_complex(FpModule.cyclic(Z, 4), 0)
    res = free_resolution(z4)
    assert res.is_strict_free()
    assert cohomology(res, 0).invariant_data() == (0, (4,))
    zstalk = stalk_complex(FpModule.free(Z, 1), 2)
    s = direct_sum_complexes([z4, zstalk])
    res2 = free_resolution(s)
    assert cohomology(res2, 0).invariant_data() == (0, (4,))
    assert cohomology(res2, 2).invariant_data() == (1, ())
    assert cohomology(res2, 1).is_zero_module()


def test_cone_of_identity_is_exact_on_samples():
    rnd = random.Random(11)
    for _ in range(10):
        rk = rnd.randint(1, 2)
        x = two_term([[rnd.randint(-4, 4) for _ in range(rk)] for _ in range(rk)], lo=0)
        cc = cone(ChainMap.identity(x))
        assert is_exact(cc)
        assert is_contractible(cc) is not None


def test_chain_map_validation():
    c = two_term([[2]], lo=0)
    with pytest.raises(ValueError):
        chain_map_of_matrices(c, c, {0: zmat([[1]]), 1: zmat([[2]])})


def test_cone_long_exact_cohomology_sequence():
    rnd = random.Random(23)
    for _ in range(12):
        rk = rnd.randint(1, 2)
        x = two_term([[rnd.randint(-4, 4) for _ in range(rk)] for _ in range(rk)],
                     lo=0)
        y = two_term([[rnd.randint(-4, 4) for _ in range(rk)] for _ in range(rk)],
                     lo=0)
        mat = zmat([[rnd.randint(-2, 2) for _ in range(rk)] for _ in range(rk)])
        try:
            f = chain_map_of_matrices(x, y, {0: mat, 1: mat})
        except ValueError:
            continue
        incl = cone_inclusion(f, cone(f))
        # exactness at H^n(Y): the kernel of H(incl) is the image of H(f)
        for n in (0, 1):
            hf = cohomology_map(f, n)
            hi = cohomology_map(incl, n)
            assert compose(hi, hf).gen is not None  # composable
            assert is_zero_morphism(compose(hi, hf))
            k_incl, im_incl = kernel(hi), image(hf)
            assert factor(k_incl, im_incl) is not None
            assert factor(im_incl, k_incl) is not None


def cofactor_cohomology_map(f, n):
    """The induced map on H^n by cofactor through the source's cokernel
    projection, the construction cohomology_map replaced."""
    x, y = f.source, f.target
    incl_x, incl_y = kernel(x.differential_at(n)), kernel(y.differential_at(n))
    proj_x = cokernel(factor(x.differential_at(n - 1), incl_x))
    proj_y = cokernel(factor(y.differential_at(n - 1), incl_y))
    on_kernels = factor(compose(f.component_at(n), incl_x), incl_y)
    induced = cofactor(compose(proj_y, on_kernels), proj_x)
    assert induced is not None
    return induced


def test_cohomology_map_matches_the_cofactor_construction(monkeypatch):
    # each cohomology keeps its kernel's generators, so the map on kernels
    # is the induced map, with no cofactor system
    rnd = random.Random(31)
    cases = []
    for _ in range(8):
        rk = rnd.randint(1, 2)
        a = zmat([[rnd.randint(-4, 4) for _ in range(rk)] for _ in range(rk)])
        x = free_complex(Z, 0, [a])
        # c0 + c1 * a commutes with a, so it is a chain self-map of x
        mat = scale(IntMatrix.identity(Z, rk), rnd.randint(-3, 3)) + scale(a, rnd.randint(-2, 2))
        f = chain_map_of_matrices(x, x, {0: mat, 1: mat})
        cases += [f, cone_inclusion(f, cone(f))]
    expected = {(i, n): cofactor_cohomology_map(f, n)
                for i, f in enumerate(cases) for n in (0, 1)}
    calls, real_cofactor = [], modules.cofactor

    def counting_cofactor(g, through):
        calls.append(g)
        return real_cofactor(g, through)

    monkeypatch.setattr(modules, "cofactor", counting_cofactor)
    for (i, n), oracle in expected.items():
        induced = cohomology_map(cases[i], n)
        assert morphism_equal(induced, oracle)
        assert induced.source.presentation == cohomology(cases[i].source, n).presentation
    assert calls == []
    assert any(not is_zero_morphism(h) for h in expected.values())


def test_cohomology_map_outside_the_support_is_zero():
    # Z/2 presented with a redundant relation: ker d^{-1} has a generator
    # in no degree of the support, and H^{-1} has none
    c = stalk_complex(FpModule(zmat([[2, 4]])), 0)
    ident = ChainMap.identity(c)
    assert not is_zero_morphism(cohomology_map(ident, 0))
    for n in (-1, 1):
        induced = cohomology_map(ident, n)
        assert induced.source.generators == 0 and is_zero_morphism(induced)


def test_derived_hom_matches_enumeration_oracle():
    """Brute-force oracle: enumerate chain self-maps of [Z --2--> Z] in a box
    and count homotopy classes; compare with the computed group order."""
    x = two_term([[2]], lo=0)
    maps = []
    for a in range(-2, 3):
        # chain self-maps are the diagonal pairs (a, a)
        maps.append(chain_map_of_matrices(x, x, {0: zmat([[a]]), 1: zmat([[a]])}))
    classes = []
    for f in maps:
        if not any(chain_maps_homotopic(f, g) is not None for g in classes):
            classes.append(f)
    h0 = derived_hom(x, x, 0)
    order = 1
    for d in h0.invariant_data()[1]:
        order *= int(d)
    assert h0.invariant_data()[0] == 0
    assert len(classes) == order == 2


def test_derived_hom_enumeration_oracle_z3():
    x = two_term([[3]], lo=0)
    y = two_term([[9]], lo=0)
    # chain maps (a, b) with b*3 = 9*a; box search
    found = []
    for a in range(-4, 5):
        for b in range(-12, 13):
            if 3 * b == 9 * a:
                found.append(chain_map_of_matrices(
                    x, y, {0: zmat([[a]]), 1: zmat([[b]])}))
    classes = []
    for f in found:
        if not any(chain_maps_homotopic(f, g) is not None for g in classes):
            classes.append(f)
    h0 = derived_hom(x, y, 0)
    order = 1
    for d in h0.invariant_data()[1]:
        order *= int(d)
    assert h0.invariant_data()[0] == 0
    assert len(classes) == order == 3


def test_homotopy_solves_are_pinned():
    # golden hashes of null-homotopy witnesses and total Hom differentials;
    # reordering the unknowns or changing any block of either system moves them
    bounds = SizeBounds(max_rank=2, max_entry=3, max_width=3)
    witnesses, hom_diffs = hashlib.sha256(), hashlib.sha256()
    found = missing = 0
    for i in range(20):
        rnd = rng_for(5, "pinned-homotopies", i)
        x = random_free_complex(rnd, bounds)
        y = random_free_complex(rnd, bounds)
        e = random_exact_free_complex(rnd, bounds)
        ident = ChainMap.identity(x)
        cc = cone(ident)
        for f in (ident, ChainMap.identity(e), ChainMap.identity(cc), cone_inclusion(ident, cc)):
            w = is_nullhomotopic(f)
            found, missing = found + (w is not None), missing + (w is None)
            witnesses.update(repr(None if w is None else sorted(
                (n, c.gen) for n, c in w.components.items())).encode())
        for a, b in ((x, y), (e, x), (cc, y)):
            lo, hi = b.lo - a.hi, b.hi - a.lo
            hom_diffs.update(repr((lo, [hom_differential(a, b, k)
                                        for k in range(lo, hi)])).encode())
    assert found > 30 and missing > 10
    assert witnesses.hexdigest() == (
        "4fc45a0b676b0790ffceaf7ab4b32b997eace3a4defbe44da7f6f12016fa907f")
    assert hom_diffs.hexdigest() == (
        "e3c34ff9e3036c6ce06be3b459954f8363a5a8f6e63051b7a48552b8bf403f7f")


def test_derived_hom_matches_the_cohomology_of_the_total_hom_complex():
    # the two differentials derived_hom reads against the whole complex of
    # the oracle: the same presentation inside its support, and the zero
    # group one degree beyond each end
    bounds = SizeBounds(max_rank=2, max_entry=3, max_width=3)
    pairs = []
    for i in range(12):
        rnd = rng_for(19, "derived-hom", i)
        x = random_free_complex(rnd, bounds)
        y = random_free_complex(rnd, bounds)
        e = random_exact_free_complex(rnd, bounds)
        c = random_free_complex(rnd, bounds)
        far = c.shift(c.lo - 6)
        pairs += [(x, y), (e, x), (y, e), (x, far), (far, y)]
    nonzero = 0
    for x, y in pairs:
        hc = total_hom_complex(x, y)
        for n in range(hc.lo - 1, hc.hi + 2):
            group, oracle = derived_hom(x, y, n), cohomology(hc, n)
            assert group.invariant_data() == oracle.invariant_data()
            if hc.lo <= n <= hc.hi:
                assert group.presentation == oracle.presentation
            nonzero += not group.is_zero_module()
    assert len(pairs) >= 30 and nonzero > 20


def test_derived_hom_builds_two_differentials(monkeypatch):
    # D^n and D^{n-1}, however many degrees the total Hom complex spans:
    # here it spans -3..1, four differentials
    x = free_complex(Z, 0, [zmat([[1]]), zmat([[0]]), zmat([[2]])])
    y = two_term([[2]], lo=0)
    built, real_block_matrix = [], complexes.block_matrix

    def counting_block_matrix(*args):
        built.append(args)
        return real_block_matrix(*args)

    monkeypatch.setattr(complexes, "block_matrix", counting_block_matrix)
    for n in range(-4, 3):
        built.clear()
        derived_hom(x, y, n)
        assert len(built) == 2


def test_relation_free_differentials_build_no_solver(solvers_built):
    # the targets carry no relations, so every witness is the empty matrix
    for i in range(5):
        x = random_free_complex(rng_for(17, "free-witness", i), SizeBounds(max_rank=3))
        mats = [x.differential_at(n).gen for n in range(x.lo, x.hi)]
        assert solvers_built(free_complex, Z, x.lo, mats) == 0
        for k in range(x.lo - x.hi - 1, x.hi - x.lo + 1):
            assert solvers_built(hom_differential, x, x, k) == 0


def test_cones_build_no_summand_maps(morphisms_built, modules_built):
    # a cone is its block-diagonal sums and block differentials: per
    # differential one block morphism and the negated d_X where X has one;
    # zero blocks outside the supports of X and Y raised both counts to 62,
    # and an injection and a projection per summand and degree on top of
    # those to 197.  is_quasi_iso reads the total complex's matrices and
    # builds neither a morphism nor a module, on free and on fp maps;
    # building the cone first cost it 32 on the free maps
    bounds = SizeBounds(max_rank=3, max_entry=4, max_width=4)
    cones = decisions = decision_modules = 0
    for i in range(10):
        f = ChainMap.identity(random_free_complex(rng_for(13, "cone-maps", i), bounds))
        g = ChainMap.identity(random_fp_complex(rng_for(13, "cone-maps-fp", i), bounds))
        cones += morphisms_built(cone, f)
        for h in (f, g):
            decisions += morphisms_built(is_quasi_iso, h)
            decision_modules += modules_built(is_quasi_iso, h)
    assert (cones, decisions, decision_modules) == (32, 0, 0)


def homotopy_iso_by_contraction(f):
    return is_contractible(cone(f)) is not None


def exact_by_cohomology(c):
    return all(cohomology(c, n).is_zero_module() for n in c.degrees())


def scalar_map(c, k):
    """k times the identity of c."""
    ring = c.ring
    scalar = rings.from_int(ring, k)
    return ChainMap(c, c, {n: FpMorphism(
        c.object_at(n), c.object_at(n),
        scale(IntMatrix.identity(ring, c.object_at(n).generators), scalar),
        scale(IntMatrix.identity(ring, c.object_at(n).relations), scalar))
        for n in c.degrees()})


def test_invertibility_criteria_agree_with_contraction_and_cohomology():
    # identity, 2 * identity and zero of seeded complexes: the diagonal
    # criterion of is_quasi_iso on free maps and the lifting criterion of
    # is_exact on fp complexes
    # against a contracting homotopy and a cohomology module per degree
    bounds = SizeBounds(max_rank=2, max_entry=4, max_width=3)
    free = []
    for i in range(15):
        free.append(random_free_complex(rng_for(3, "criteria-free", i), bounds))
        free.append(random_exact_free_complex(rng_for(3, "criteria-exact", i), bounds))
    for i in range(8):
        rnd = rng_for(3, "criteria-qx", i)
        free.append(free_complex(QX, 0, [IntMatrix.from_rows(QX, [
            [QPoly((rnd.randint(-2, 2), rnd.randint(-1, 1))) for _ in range(2)]
            for _ in range(2)])]))
    fp = [random_fp_complex(rng_for(3, "criteria-fp", i), bounds) for i in range(15)]
    isos, exact = [], []
    for c in free:
        for f in (ChainMap.identity(c), scalar_map(c, 2), ChainMap.zero(c, c)):
            isos.append(is_quasi_iso(f))
            assert isos[-1] == homotopy_iso_by_contraction(f)
    for c in free + fp:
        for cc in (c, cone(scalar_map(c, 2)), cone(ChainMap.identity(c))):
            exact.append(is_exact(cc))
            assert exact[-1] == exact_by_cohomology(cc)
    assert 0 < isos.count(False) < len(isos)
    assert 0 < exact.count(False) < len(exact)


def test_quasi_iso_agrees_with_the_exactness_of_the_built_cone():
    # the total complex of [Y, X] along f against the cone built in full,
    # tested by is_exact and by a cohomology module per degree: identity,
    # 2 * identity, zero and cone inclusions of free, exact and fp complexes
    bounds = SizeBounds(max_rank=2, max_entry=4, max_width=3)
    maps = []
    for i in range(10):
        rnd = rng_for(41, "quasi-iso-cones", i)
        for c in (random_free_complex(rnd, bounds), random_exact_free_complex(rnd, bounds),
                  random_fp_complex(rnd, bounds)):
            maps += [ChainMap.identity(c), scalar_map(c, 2), ChainMap.zero(c, c)]
            maps.append(cone_inclusion(maps[-2], cone(maps[-2])))
    outcomes = []
    for f in maps:
        cc = cone(f)
        outcomes.append(is_quasi_iso(f))
        assert outcomes[-1] == is_exact(cc) == exact_by_cohomology(cc)
    assert any(r.relations for f in maps for r in f.source.objects)
    assert 0 < outcomes.count(False) < len(outcomes)


def test_unit_diagonal_depends_on_the_ring():
    x = QPoly.x()
    for ring, entry, expected in ((QX, x, False), (QX, QPoly.const(2), True), (Z, 2, False)):
        c = free_complex(ring, 0, [IntMatrix.from_rows(ring, [[entry]])])
        assert is_exact(c) is exact_by_cohomology(c) is expected
        f = ChainMap.zero(c, c)
        assert is_quasi_iso(f) is homotopy_iso_by_contraction(f) is expected


def test_exactness_lifts_the_kernel_cover_not_the_inclusion():
    # Z/4 --2--> Z/4 --2--> Z/4 is exact in the middle, yet the inclusion
    # of ker = Z/2 does not lift through the first 2: a lift h needs
    # 2 * h(1) = 2, so h(1) odd, and h(2 * 1) = 0, so h(1) even
    z2, z4 = FpModule.cyclic(Z, 2), FpModule.cyclic(Z, 4)
    two = FpMorphism.from_generator_matrix(z4, z4, zmat([[2]]))
    c = Complex(Z, 0, [z4, z4, z4], [two, two])
    assert cohomology(c, 1).is_zero_module()
    assert factor(kernel(two), two) is None
    assert not is_exact(c)
    # 0 -> Z/2 -> Z/4 --2--> Z/4 -> Z/2 -> 0 is exact in every degree
    into = FpMorphism.from_generator_matrix(z2, z4, zmat([[2]]))
    onto = FpMorphism.from_generator_matrix(z4, z2, zmat([[1]]))
    e = Complex(Z, 0, [z2, z4, z4, z2], [into, two, onto])
    assert is_exact(e) and exact_by_cohomology(e)


def test_exactness_and_cohomology_build_no_kernel_module(module_constructions):
    # is_exact is one image-membership solve per degree and cohomology one
    # span_quotient: no kernel with its inclusion, no lift, no cokernel
    bounds = SizeBounds(max_rank=2, max_entry=4, max_width=3)
    exact = []
    for i in range(10):
        c = random_fp_complex(rng_for(7, "exact-no-factor", i), bounds)
        for cc in (c, cone(ChainMap.identity(c))):
            exact.append(is_exact(cc))
            assert module_constructions(is_exact, cc) == []
            for n in range(cc.lo - 1, cc.hi + 2):
                inside = cc.lo <= n <= cc.hi
                assert module_constructions(cohomology, cc, n) == ["span_quotient"] * inside
    assert 0 < exact.count(False) < len(exact)


@pytest.fixture
def diagonalised(monkeypatch):
    """The matrices that complexes diagonalises, as (rows, cols), in order:
    by nonzero_diagonal on free totals, kernel_matrix on the others."""
    shapes = []
    for name in ("nonzero_diagonal", "kernel_matrix"):
        def recording(m, _real=getattr(complexes, name)):
            shapes.append((m.rows, m.cols))
            return _real(m)

        monkeypatch.setattr(complexes, name, recording)
    return shapes


def test_the_quasi_iso_test_of_an_identity_diagonalises_nothing(diagonalised):
    # the cone of the identity is trimmed to nothing from its high end
    bounds = SizeBounds(max_rank=2, max_entry=4, max_width=3)
    for i in range(6):
        rnd = rng_for(43, "identity-cones", i)
        for c in (random_free_complex(rnd, bounds), random_fp_complex(rnd, bounds)):
            assert is_quasi_iso(ChainMap.identity(c))
            assert is_quasi_iso(ChainMap.identity(c.shift(1)))
    assert diagonalised == []


def maps_of_one(x, y, components):
    """The chain map x -> y with the given generator matrices per degree and
    zero witnesses, for entries of rank at most 1."""
    return ChainMap(x, y, {n: FpMorphism(
        x.object_at(n), y.object_at(n), g,
        IntMatrix.zeros(Z, y.object_at(n).relations, x.object_at(n).relations))
        for n, g in components.items()})


def test_only_identities_of_one_module_at_the_ends_are_trimmed():
    # Z --0--> Z onto Z --0--> Z/2 is the shared identity matrix in both
    # degrees, a module identity only in degree -1: the degree-0 component
    # Z -> Z/2 stays, and its cone is not exact, trimmed and in full; an
    # identity in a middle degree alone is not trimmed either
    z, z2 = FpModule.free(Z, 1), FpModule.cyclic(Z, 2)
    eye, zero = IntMatrix.identity(Z, 1), FpMorphism.zero(z, z)
    x = Complex(Z, -1, [z, z], [zero])
    y = Complex(Z, -1, [z, z2], [FpMorphism.zero(z, z2)])
    mid = Complex(Z, -1, [z, z, z], [zero, zero])
    cases = [(maps_of_one(x, y, {-1: eye, 0: eye}), False),
             (maps_of_one(x, x, {-1: eye, 0: eye}), True),
             (maps_of_one(mid, mid, {-1: zmat([[2]]), 0: eye, 1: zmat([[3]])}), False),
             (maps_of_one(mid, mid, {-1: zmat([[-1]]), 0: eye, 1: zmat([[-1]])}), True)]
    for f, expected in cases:
        assert is_quasi_iso(f) is expected
        assert total_is_exact_in_full([f.target, f.source], {(0, 1): f.components}) is expected
        assert exact_by_cohomology(cone(f)) is expected
