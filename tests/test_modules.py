import hashlib
import random

import pytest

from tiltbench.complexes import ChainMap, cone, direct_sum_complexes
from tiltbench.exactness import Carrier, ExactStructure, Flavor
from tiltbench.freyd import (
    FreydObject,
    extension_middle,
    freyd_cokernel,
    freyd_direct_sum,
    right_filter_factor,
)
from tiltbench.matrices import DimensionMismatchError, IntMatrix, kernel_matrix
from tiltbench.modules import (
    FpModule,
    FpMorphism,
    UnsupportedRingError,
    block_morphism,
    cokernel,
    compose,
    corestrict_to_image,
    direct_sum,
    embed_into_free,
    factor,
    free_quotient,
    cofactor,
    hom_group,
    image,
    inverse,
    is_epi,
    is_mono,
    is_zero_morphism,
    kernel,
    morphism_equal,
    projective_resolution,
    pullback,
    pushout,
    reduce_presentation,
    torsion_decompose,
)
from tiltbench.rings import QPoly, RingSpec
from tiltbench.samplers import (
    SizeBounds,
    random_carrier_deflation,
    random_fp_complex,
    random_module,
    random_morphism,
    rng_for,
)

Z = RingSpec.INTEGERS


def zmat(rows, cols=None):
    return IntMatrix.from_rows(Z, rows, cols=cols)


def zmod(*divisors):
    return FpModule.from_invariants(Z, [d for d in divisors if d], divisors.count(0))


def cyclic_brute_force_homs(m: int, n: int) -> int:
    """Oracle: count set maps of cyclic generators that define morphisms."""
    count = 0
    for x in range(n):
        if (m * x) % n == 0:
            count += 1
    return count


def test_module_invariants():
    m = FpModule(zmat([[2, 4], [6, 8]]))
    assert m.invariant_data() == (0, (2, 4))
    free = FpModule.free(Z, 3)
    assert free.invariant_data() == (3, ())
    assert FpModule.zero(Z).is_zero_module()
    unit_only = FpModule(zmat([[1]]))
    assert unit_only.is_zero_module()


def test_isomorphism_test_is_invariant_based():
    a = FpModule(zmat([[2, 0], [0, 3]]))
    b = FpModule.cyclic(Z, 6)
    assert a.is_isomorphic(b)
    assert not a.is_isomorphic(FpModule.cyclic(Z, 4))


def test_kernel_of_injective_map_is_zero():
    z = FpModule.free(Z, 1)
    two = FpMorphism.from_generator_matrix(z, z, zmat([[2]]))
    k, incl = kernel(two)
    assert k.is_zero_module()


def test_kernel_of_projection_to_z2():
    z = FpModule.free(Z, 1)
    z2 = FpModule.cyclic(Z, 2)
    proj = FpMorphism.from_generator_matrix(z, z2, zmat([[1]]))
    k, incl = kernel(proj)
    assert k.invariant_data() == (1, ())
    # the inclusion is multiplication by +-2
    assert abs(int(incl.gen.at(0, 0))) == 2


def test_kernel_of_times_two_on_z4_brute_force():
    # oracle: enumerate the 4-element group directly
    elements = list(range(4))
    ker_elements = [x for x in elements if (2 * x) % 4 == 0]
    assert len(ker_elements) == 2
    z4 = FpModule.cyclic(Z, 4)
    two = FpMorphism.from_generator_matrix(z4, z4, zmat([[2]]))
    k, incl = kernel(two)
    assert k.invariant_data() == (0, (2,))
    assert is_mono(incl)
    assert is_zero_morphism(compose(two, incl))


def test_cokernel_examples():
    z2mod = FpModule.free(Z, 2)
    f = FpMorphism.from_generator_matrix(z2mod, z2mod, zmat([[2, 0], [0, 3]]))
    c, proj = cokernel(f)
    assert c.invariant_data() == (0, (6,))
    ident = FpMorphism.identity(z2mod)
    c2, _ = cokernel(ident)
    assert c2.is_zero_module()
    z = FpModule.free(Z, 1)
    c3, _ = cokernel(FpMorphism.zero(z, z))
    assert c3.invariant_data() == (1, ())


def test_kernel_universal_property_random():
    rnd = random.Random(3)
    for _ in range(40):
        src = zmod(*[rnd.choice([0, 2, 3, 4, 6]) for _ in range(rnd.randint(1, 2))])
        tgt = zmod(*[rnd.choice([0, 2, 3, 4, 6]) for _ in range(rnd.randint(1, 2))])
        hom = hom_group(src, tgt)
        if hom.module.generators == 0:
            continue
        coords = [rnd.randint(-2, 2) for _ in range(hom.module.generators)]
        f = hom.element(coords)
        k, incl = kernel(f)
        assert is_zero_morphism(compose(f, incl))
        assert is_mono(incl)
        # any test map killed by f factors uniquely through the kernel
        t = zmod(rnd.choice([0, 2, 4]))
        th = hom_group(t, src)
        for i in range(th.module.generators):
            g = th.generator(i)
            if not is_zero_morphism(compose(f, g)):
                continue
            h = factor(g, incl)
            assert h is not None
            assert morphism_equal(compose(incl, h), g)
            h2 = factor(g, incl)
            assert morphism_equal(h, h2)


def test_cokernel_universal_property_random():
    rnd = random.Random(4)
    for _ in range(40):
        src = zmod(*[rnd.choice([0, 2, 3, 4]) for _ in range(rnd.randint(1, 2))])
        tgt = zmod(*[rnd.choice([0, 2, 3, 4]) for _ in range(rnd.randint(1, 2))])
        hom = hom_group(src, tgt)
        if hom.module.generators == 0:
            continue
        f = hom.element([rnd.randint(-2, 2) for _ in range(hom.module.generators)])
        c, proj = cokernel(f)
        assert is_epi(proj)
        assert is_zero_morphism(compose(proj, f))
        t = zmod(rnd.choice([0, 2, 4, 6]))
        ht = hom_group(tgt, t)
        for i in range(ht.module.generators):
            g = ht.generator(i)
            if not is_zero_morphism(compose(g, f)):
                continue
            h = cofactor(g, proj)
            assert h is not None
            assert morphism_equal(compose(h, proj), g)


def test_hom_group_z4_z6():
    h = hom_group(FpModule.cyclic(Z, 4), FpModule.cyclic(Z, 6))
    assert h.module.invariant_data() == (0, (2,))
    assert cyclic_brute_force_homs(4, 6) == 2


def test_hom_group_yoneda_and_torsion_vanishing():
    n = zmod(0, 4)
    h = hom_group(FpModule.free(Z, 1), n)
    assert h.module.invariant_data() == n.invariant_data()
    h2 = hom_group(FpModule.cyclic(Z, 2), FpModule.free(Z, 1))
    assert h2.module.is_zero_module()


def test_hom_group_elements_are_morphisms():
    src, tgt = zmod(4), zmod(2, 0)
    h = hom_group(src, tgt)
    for i in range(h.module.generators):
        f = h.generator(i)
        assert f.source is src and f.target is tgt
    # coordinates invert element construction up to morphism equality
    coords = [1] * h.module.generators
    f = h.element(coords)
    c = h.coordinates(f)
    assert c is not None
    assert morphism_equal(h.element([int(c.at(i, 0)) for i in range(c.rows)]), f)


def test_torsion_decompose_examples():
    m = zmod(0, 4)
    t, incl, f, proj = torsion_decompose(m)
    assert t.invariant_data() == (0, (4,))
    assert f.invariant_data() == (1, ())
    assert is_mono(incl) and is_epi(proj)
    assert is_zero_morphism(compose(proj, incl))
    # exactness: kernel of proj = image of incl
    k, kincl = kernel(proj)
    assert k.is_isomorphic(t)
    im, _ = image(incl)
    assert im.is_isomorphic(t)

    free = FpModule.free(Z, 2)
    t2, _, f2, _ = torsion_decompose(free)
    assert t2.is_zero_module() and f2.invariant_data() == (2, ())

    m3 = FpModule(zmat([[2, 1], [0, 2]]))
    t3, _, f3, _ = torsion_decompose(m3)
    assert t3.invariant_data() == (0, (4,))
    assert f3.is_zero_module()


def test_torsion_decompose_idempotent():
    m = zmod(0, 2, 6)
    t, _, _, _ = torsion_decompose(m)
    t2, _, _, _ = torsion_decompose(t)
    assert t2.is_isomorphic(t)


def test_projective_resolution_examples():
    res = projective_resolution(FpModule.cyclic(Z, 6))
    assert len(res) == 1
    assert res[0].rows == 1 and abs(int(res[0].at(0, 0))) == 6

    assert projective_resolution(FpModule.free(Z, 3)) == []

    m = FpModule(zmat([[2, 4], [6, 8]]))
    res = projective_resolution(m)
    assert len(res) == 1
    assert res[0].rows == 2 and res[0].cols == 2
    # exactness: the resolution differential is injective with the right cokernel
    assert kernel_matrix(res[0]).cols == 0
    assert FpModule(res[0]).is_isomorphic(m)


def test_projective_resolution_length_guard():
    with pytest.raises(ValueError):
        projective_resolution(FpModule.cyclic(Z, 6), max_len=0)


def test_lift_through_epi():
    z = FpModule.free(Z, 1)
    z6 = FpModule.cyclic(Z, 6)
    p = FpMorphism.from_generator_matrix(z, z6, zmat([[1]]))
    g = FpMorphism.from_generator_matrix(FpModule.free(Z, 1), z6, zmat([[4]]))
    h = factor(g, p)
    assert h is not None
    assert morphism_equal(compose(p, h), g)


def test_direct_sum_and_projections():
    a, b = zmod(2), zmod(0)
    s, (ia, ib), (pa, pb) = _unpack_sum(*direct_sum([a, b]))
    assert s.invariant_data() == (1, (2,))
    assert morphism_equal(compose(pa, ia), FpMorphism.identity(a))
    assert morphism_equal(compose(pb, ib), FpMorphism.identity(b))
    assert is_zero_morphism(compose(pa, ib))


def test_block_morphism_places_blocks():
    z, z2, z4 = FpModule.free(Z, 1), zmod(2), zmod(4)
    src_parts, tgt_parts = [z4, z], [z2, z4]
    src, tgt = direct_sum(src_parts)[0], direct_sum(tgt_parts)[0]
    reduce_mod_2 = FpMorphism(z4, z2, zmat([[1]]), zmat([[2]]))
    three = FpMorphism(z, z4, zmat([[3]]), IntMatrix.zeros(Z, 1, 0))
    f = block_morphism(src, tgt, src_parts, tgt_parts, {
        (0, 0): reduce_mod_2, (1, 0): FpMorphism.identity(z4), (1, 1): three})
    # the absent block (0, 1) is zero
    assert (f.source, f.target) == (src, tgt)
    assert f.gen == zmat([[1, 0], [1, 3]])
    assert f.witness == zmat([[2], [1]])
    assert block_morphism(src, tgt, src_parts, tgt_parts, {}).gen.is_zero()
    # a block of the wrong shape, and a block between other modules
    with pytest.raises(DimensionMismatchError):
        block_morphism(src, tgt, src_parts, tgt_parts, {(0, 1): reduce_mod_2})
    z6 = zmod(6)
    for bad in (FpMorphism(z6, z2, zmat([[1]]), zmat([[3]])),
                FpMorphism(z4, z4, zmat([[2]]), zmat([[2]]))):
        with pytest.raises(ValueError, match="between its parts"):
            block_morphism(src, tgt, src_parts, tgt_parts, {(0, 0): bad})


def _unpack_sum(total, injections, projections):
    return total, tuple(injections), tuple(projections)


def test_image_factorisation():
    z = FpModule.free(Z, 1)
    z4 = FpModule.cyclic(Z, 4)
    f = FpMorphism.from_generator_matrix(z, z4, zmat([[2]]))
    im, surj, incl = corestrict_to_image(f)
    assert im.invariant_data() == (0, (2,))
    assert is_epi(surj) and is_mono(incl)
    assert morphism_equal(compose(incl, surj), f)


def test_inverse_of_isomorphism():
    m = zmod(6)
    canon, iso, _ = FpModule(zmat([[2, 0], [0, 3]])).reduction()
    assert canon.is_isomorphic(m)
    inv = inverse(iso)
    assert morphism_equal(compose(inv, iso), FpMorphism.identity(iso.source))
    assert morphism_equal(compose(iso, inv), FpMorphism.identity(canon))


def reduction_cases():
    bounds = SizeBounds(max_rank=3, max_entry=6)
    for i in range(20):
        yield random_module(rng_for(13, "reduction", i), bounds)
    yield from (FpModule.zero(Z), FpModule.free(Z, 2), FpModule(zmat([[1, 0], [0, 6], [0, 0]])))
    qx, x = RingSpec.RATIONAL_POLYNOMIALS, QPoly.x()
    yield FpModule(IntMatrix.from_rows(qx, [[QPoly((2, 2)), x * x], [QPoly.const(3), x],
                                            [QPoly(), QPoly()]]))


def test_reduction_isomorphisms_are_mutually_inverse(solvers_built):
    for m in reduction_cases():
        assert solvers_built(FpModule.reduction, m) == 0
        canon, a, b = m.reduction()
        assert canon == reduce_presentation(m)
        assert a.source is m and b.target is m and a.target is canon and b.source is canon
        assert morphism_equal(compose(a, b), FpMorphism.identity(canon))
        assert morphism_equal(compose(b, a), FpMorphism.identity(m))


def test_reduce_presentation_drops_units():
    m = FpModule(zmat([[1, 0], [0, 6]]))
    r = reduce_presentation(m)
    assert r.generators == 1 and r.invariant_data() == (0, (6,))


def test_embed_into_free():
    assert embed_into_free(zmod(2)) is None
    e = embed_into_free(zmod(0, 0))
    assert e is not None and is_mono(e)


def test_pullback_square():
    z = FpModule.free(Z, 1)
    z4 = FpModule.cyclic(Z, 4)
    f = FpMorphism.from_generator_matrix(z, z4, zmat([[1]]))
    g = FpMorphism.from_generator_matrix(z, z4, zmat([[2]]))
    p, la, lb = pullback(f, g)
    assert morphism_equal(compose(f, la), compose(g, lb))
    # pullback of Z -> Z/4 <- Z along (1, 2): {(a,b) : a = 2b mod 4}, free of rank 2
    assert p.invariant_data() == (2, ())


def test_pushout_square():
    z = FpModule.free(Z, 1)
    f = FpMorphism.from_generator_matrix(z, z, zmat([[2]]))
    g = FpMorphism.from_generator_matrix(z, z, zmat([[3]]))
    p, la, lb = pushout(f, g)
    assert morphism_equal(compose(la, f), compose(lb, g))
    assert p.invariant_data() == (1, ())


def test_unsupported_ring_errors():
    qx = RingSpec.RATIONAL_POLYNOMIALS
    m = FpModule.free(qx, 1)
    with pytest.raises(UnsupportedRingError):
        hom_group(m, m)
    with pytest.raises(UnsupportedRingError):
        torsion_decompose(m)


def test_polynomial_module_basics():
    qx = RingSpec.RATIONAL_POLYNOMIALS
    x = QPoly.x()
    m = FpModule(IntMatrix.from_rows(qx, [[x]]))
    assert m.invariant_data() == (0, (x,))
    res = projective_resolution(m)
    assert len(res) == 1


def test_subgroup_of_free_is_free():
    # kernels of morphisms between frees reduce to relation-free presentations
    rnd = random.Random(21)
    for _ in range(30):
        rows, cols = rnd.randint(1, 3), rnd.randint(1, 3)
        f = FpMorphism.from_generator_matrix(
            FpModule.free(Z, cols), FpModule.free(Z, rows),
            zmat([[rnd.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]))
        k, _ = kernel(f)
        assert reduce_presentation(k).relations == 0


def test_morphism_solves_are_pinned():
    # golden hash of factor/cofactor solutions through kernel inclusions and
    # cokernel projections, solvable by construction and random; reordering
    # the unknowns or changing any block of the vectorised system moves it.
    # A second hash covers the witnesses of those solutions and of a few hom
    # group elements.
    bounds = SizeBounds(max_rank=2, max_entry=3)
    h, witnesses = hashlib.sha256(), hashlib.sha256()
    solved = unsolved = 0
    for i in range(25):
        rnd = rng_for(5, "pinned-solves", i)
        m, n, t = (random_module(rnd, bounds) for _ in range(3))
        f = random_morphism(rnd, m, n)
        k, incl = kernel(f)
        c, proj = cokernel(f)
        through_kernel = factor(compose(incl, random_morphism(rnd, t, k)), incl)
        through_cokernel = cofactor(compose(random_morphism(rnd, c, t), proj), proj)
        assert through_kernel is not None and through_cokernel is not None
        for sol in (through_kernel, through_cokernel,
                    factor(random_morphism(rnd, t, m), incl),
                    cofactor(random_morphism(rnd, n, t), proj)):
            solved, unsolved = solved + (sol is not None), unsolved + (sol is None)
            h.update(repr(None if sol is None else sol.gen).encode())
            witnesses.update(repr(None if sol is None else sol.witness).encode())
        if i < 5:
            hom = hom_group(m, n)
            coords = [rnd.randint(-2, 2) for _ in range(hom.module.generators)]
            witnesses.update(repr(hom.element(coords).witness).encode())
    assert solved > 50 and unsolved > 5
    assert h.hexdigest() == (
        "bd1c2788d3e0db23272049d59a023a255ae6806a1062fb11dcbfb74a7f9d7b3d")
    assert witnesses.hexdigest() == (
        "eafbae37a6fee55c031b50c64e187509f5cabdf93d0125303c6440450beb146c")


def test_morphism_solves_build_one_solver(solvers_built):
    # factor and cofactor take the witness from their own solution, and
    # hom group elements take it from the kernel that found them
    bounds = SizeBounds(max_rank=2, max_entry=3)
    for i in range(5):
        rnd = rng_for(9, "solver-count", i)
        m, n, t = (random_module(rnd, bounds) for _ in range(3))
        f = random_morphism(rnd, m, n)
        _, incl = kernel(f)
        _, proj = cokernel(f)
        g = compose(incl, random_morphism(rnd, t, incl.source))
        assert solvers_built(factor, g, incl) == 1
        g = compose(random_morphism(rnd, proj.target, t), proj)
        assert solvers_built(cofactor, g, proj) == 1
        hom = hom_group(m, n)
        assert solvers_built(hom.element, [1] * hom.module.generators) == 0


def test_known_witnesses_build_no_solver(solvers_built):
    # direct sums write down block inclusions, the free quotient needs no
    # relations, and the torsion inclusion reads U^-1 and V off the Smith form
    bounds = SizeBounds(max_rank=3, max_entry=6)
    for i in range(5):
        rnd = rng_for(9, "known-witness", i)
        ms = [random_module(rnd, bounds) for _ in range(3)]
        assert solvers_built(direct_sum, ms) == 0
        assert solvers_built(free_quotient, ms[0]) == 0
        assert solvers_built(torsion_decompose, ms[0]) == 0

    a, b = FpModule(zmat([[2, 1], [0, 3]])), FpModule(zmat([[4]]))
    _, (ia, ib), (pa, pb) = _unpack_sum(*direct_sum([a, b]))
    assert ia.gen == zmat([[1, 0], [0, 1], [0, 0]])
    assert ia.witness == zmat([[1, 0], [0, 1], [0, 0]])
    assert ib.gen == zmat([[0], [0], [1]]) and ib.witness == zmat([[0], [0], [1]])
    assert (pa.gen, pa.witness) == (ia.gen.transpose(), ia.witness.transpose())
    assert (pb.gen, pb.witness) == (ib.gen.transpose(), ib.witness.transpose())


@pytest.mark.parametrize("rows, tor, incl, quotient, iso", [
    # more generators than relations, with a unit factor
    ([[1, 0], [0, 6], [0, 0]], [[6]], ([[0], [1], [0]], [[0], [1]]),
     [[0, 0, 1]], ([[0, 1, 0], [0, 0, 1]], [[6], [0]])),
    # more relations than generators
    ([[2, 4, 6]], [[2]], ([[1]], [[1], [0], [0]]), [], ([[1]], [[2]])),
])
def test_smith_diagonal_padding(rows, tor, incl, quotient, iso):
    m = FpModule(zmat(rows))
    t_mod, t_incl, f_mod, proj = torsion_decompose(m)
    assert t_mod.presentation == zmat(tor)
    assert (t_incl.gen, t_incl.witness) == (zmat(incl[0]), zmat(incl[1]))
    q_mod, q_proj = free_quotient(m)
    for f, p in ((f_mod, proj), (q_mod, q_proj)):
        assert f.presentation == IntMatrix.zeros(Z, len(quotient), 0)
        assert p.gen == zmat(quotient, cols=m.generators)
        assert p.witness == IntMatrix.zeros(Z, 0, m.relations)
    canon, red, _ = m.reduction()
    assert (red.gen, canon.presentation) == (zmat(iso[0]), zmat(iso[1]))


def test_maps_between_direct_sums_are_pinned():
    # golden hash of the generator and witness matrices of every map built
    # block by block between direct sums: cone and direct-sum differentials,
    # pullbacks and pushouts with their legs, and the Freyd carriers of sums,
    # cokernels, extensions and right-filtering factors
    bounds = SizeBounds(max_rank=2, max_entry=3, max_width=3)
    ex = ExactStructure(Carrier.FP_Z, Flavor.MAXIMAL)
    h = hashlib.sha256()

    def update(*fs):
        for f in fs:
            h.update(repr((f.source.presentation, f.target.presentation,
                           f.gen, f.witness)).encode())

    for i in range(8):
        rnd = rng_for(5, "pinned-blocks", i)
        x, y = random_fp_complex(rnd, bounds), random_fp_complex(rnd, bounds)
        cx, incl, _ = cone(ChainMap.identity(x))
        cc, _, _ = cone(incl)
        s, _ = direct_sum_complexes([x, y])
        for c in (cx, cc, s):
            update(*c.differentials)
        a, b, c = (random_module(rnd, bounds) for _ in range(3))
        update(*pullback(random_morphism(rnd, a, c), random_morphism(rnd, b, c))[1:])
        update(*pushout(random_morphism(rnd, c, a), random_morphism(rnd, c, b))[1:])
        t1, t2 = (FreydObject(ex, random_carrier_deflation(ex, rnd, bounds))
                  for _ in range(2))
        total, (inj_1, _), (_, proj_2) = freyd_direct_sum(t1, t2)
        quotient, q_proj = freyd_cokernel(inj_1)
        pi, g, mid = right_filter_factor(proj_2)
        update(total.carrier, quotient.carrier, q_proj.gen, q_proj.wit,
               extension_middle(ex, rnd, t1, t2, bounds).carrier,
               pi.wit, g.wit, mid.carrier)
    assert h.hexdigest() == (
        "1e70ee78e507815b87d75335d537402a7b814244124941975dfa6bf2fd6a716c")
