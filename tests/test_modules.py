import hashlib
import random
from functools import reduce

import pytest

import oracles
from tiltbench import matrices, modules, rings
from tiltbench.complexes import ChainMap, direct_sum_complexes
from tiltbench.exactness import Carrier, ExactStructure, Flavor
from tiltbench.freyd import (
    FreydMorphism,
    FreydObject,
    freyd_cokernel,
    freyd_direct_sum,
    right_filter_factor,
)
from tiltbench.matrices import (DimensionMismatchError, IntMatrix, RingMismatchError,
                                block_diag, kernel_matrix, solve_lift, vec)
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
    in_image,
    injection,
    inverse,
    is_epi,
    is_mono,
    is_zero_morphism,
    kernel,
    morphism_equal,
    projection,
    projective_resolution,
    pullback,
    pushout,
    reduce_presentation,
    span_quotient,
    torsion_decompose,
)
from tiltbench.rings import QPoly, RingSpec
from tiltbench.samplers import (
    SizeBounds,
    random_carrier_deflation,
    random_fp_complex,
    random_matrix,
    random_module,
    random_morphism,
    rng_for,
)
from tiltbench.suites import extension_middle

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
    assert kernel(two).source.is_zero_module()


def test_kernel_of_projection_to_z2():
    z = FpModule.free(Z, 1)
    z2 = FpModule.cyclic(Z, 2)
    proj = FpMorphism.from_generator_matrix(z, z2, zmat([[1]]))
    incl = kernel(proj)
    assert incl.source.invariant_data() == (1, ())
    # the inclusion is multiplication by +-2
    assert abs(int(incl.gen.at(0, 0))) == 2


def test_kernel_of_times_two_on_z4_brute_force():
    # oracle: enumerate the 4-element group directly
    elements = list(range(4))
    ker_elements = [x for x in elements if (2 * x) % 4 == 0]
    assert len(ker_elements) == 2
    z4 = FpModule.cyclic(Z, 4)
    two = FpMorphism.from_generator_matrix(z4, z4, zmat([[2]]))
    incl = kernel(two)
    assert incl.source.invariant_data() == (0, (2,))
    assert is_mono(incl)
    assert is_zero_morphism(compose(two, incl))


def test_cokernel_examples():
    z2mod = FpModule.free(Z, 2)
    f = FpMorphism.from_generator_matrix(z2mod, z2mod, zmat([[2, 0], [0, 3]]))
    c = cokernel(f).target
    assert c.invariant_data() == (0, (6,))
    assert c.presentation == z2mod.presentation.hstack(f.gen)
    ident = FpMorphism.identity(z2mod)
    assert cokernel(ident).target.is_zero_module()
    z = FpModule.free(Z, 1)
    assert cokernel(FpMorphism.zero(z, z)).target.invariant_data() == (1, ())


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
        incl = kernel(f)
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
        proj = cokernel(f)
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
    # pushforward coordinates invert element construction up to morphism
    # equality: along the identity, column i holds the coordinates of
    # generator i
    coords = h.pushforward(FpMorphism.identity(tgt), h)
    assert (coords.rows, coords.cols) == (h.module.generators, h.module.generators)
    for i in range(coords.cols):
        column = [int(coords.at(j, i)) for j in range(coords.rows)]
        assert morphism_equal(h.element(column), h.generator(i))


def test_torsion_decompose_examples():
    m = zmod(0, 4)
    incl, proj = torsion_decompose(m)
    t = incl.source
    assert t.invariant_data() == (0, (4,))
    assert proj.target.invariant_data() == (1, ())
    assert is_mono(incl) and is_epi(proj)
    assert is_zero_morphism(compose(proj, incl))
    # exactness: kernel of proj = image of incl
    assert kernel(proj).source.is_isomorphic(t)
    assert image(incl).source.is_isomorphic(t)

    incl2, proj2 = torsion_decompose(FpModule.free(Z, 2))
    assert incl2.source.is_zero_module() and proj2.target.invariant_data() == (2, ())

    incl3, proj3 = torsion_decompose(FpModule(zmat([[2, 1], [0, 2]])))
    assert incl3.source.invariant_data() == (0, (4,))
    assert proj3.target.is_zero_module()


def test_torsion_decompose_idempotent():
    t = torsion_decompose(zmod(0, 2, 6))[0].source
    assert torsion_decompose(t)[0].source.is_isomorphic(t)


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
    s = direct_sum([a, b])
    (ia, ib), (pa, pb) = summand_maps([a, b], s)
    assert s.invariant_data() == (1, (2,))
    assert morphism_equal(compose(pa, ia), FpMorphism.identity(a))
    assert morphism_equal(compose(pb, ib), FpMorphism.identity(b))
    assert is_zero_morphism(compose(pa, ib))


def test_block_morphism_places_blocks():
    z, z2, z4 = FpModule.free(Z, 1), zmod(2), zmod(4)
    src_parts, tgt_parts = [z4, z], [z2, z4]
    src, tgt = direct_sum(src_parts), direct_sum(tgt_parts)
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


def test_witness_check():
    z, z2, z4 = FpModule.free(Z, 1), zmod(2), zmod(4)
    # 1 * 4 = 2 * w has the solution w = 2, never w = 1
    with pytest.raises(ValueError, match="witness equation violated"):
        FpMorphism(z4, z2, zmat([[1]]), zmat([[1]]))
    # a source without relations needs a b_tgt x 0 witness
    with pytest.raises(DimensionMismatchError, match="witness shape"):
        FpMorphism(z, z2, zmat([[1]]), zmat([[0]]))
    # and over the ring of its modules, though no product reads it
    with pytest.raises(RingMismatchError):
        FpMorphism(z, z2, zmat([[1]]), IntMatrix.zeros(RingSpec.RATIONAL_POLYNOMIALS, 1, 0))
    f = FpMorphism(z, z2, zmat([[1]]), IntMatrix.zeros(Z, 1, 0))
    assert f.gen == zmat([[1]])


def summand_maps(ms, total):
    """The injections and the projections of the summands of total."""
    return ([injection(ms, total, k) for k in range(len(ms))],
            [projection(total, ms, k) for k in range(len(ms))])


def test_image_factorisation():
    z = FpModule.free(Z, 1)
    z4 = FpModule.cyclic(Z, 4)
    f = FpMorphism.from_generator_matrix(z, z4, zmat([[2]]))
    surj, incl = corestrict_to_image(f)
    assert incl.source.invariant_data() == (0, (2,))
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
        assert canon.presentation == reduce_presentation(m).presentation
        assert a.source is m and b.target is m and a.target is canon and b.source is canon
        assert morphism_equal(compose(a, b), FpMorphism.identity(canon))
        assert morphism_equal(compose(b, a), FpMorphism.identity(m))


def test_invariants_replay_no_transform(monkeypatch, snf_runs):
    # the rank questions, the invariants and the reduction share one chained
    # Smith form, which a module without relations or generators does not
    # need; the first two read its D alone, kept once read, and the
    # reduction then replays U whole, U^-1 and V only at the columns it
    # returns, and no V^-1.  The relation solver diagonalises on its own,
    # without the chain.
    replays = []
    real_replay = matrices._SNFWorker.transform_columns

    def counting_replay(worker, apply, n, idx=None):
        replays.append((apply.__name__, n, n if idx is None else len(idx)))
        return real_replay(worker, apply, n, idx)

    monkeypatch.setattr(matrices._SNFWorker, "transform_columns", counting_replay)
    for m in reduction_cases():
        fresh = FpModule(m.presentation)

        def shape():
            return (fresh.invariant_data()[0], fresh.is_free(), fresh.is_torsion(),
                    fresh.is_zero_module(), fresh.invariant_data())

        replays.clear()
        diagonalised = int(bool(fresh.relations and fresh.generators))
        assert snf_runs(shape) == diagonalised
        assert snf_runs(shape) == 0 and replays == []
        assert snf_runs(fresh.relation_solver) == diagonalised
        assert snf_runs(fresh.reduction) == 0
        if fresh.relations:
            _, tor_idx, free_idx = fresh.smith_diagonal()
            b, a = fresh.generators, fresh.relations
            assert sorted(replays) == [("apply_u", b, b),
                                       ("apply_u_inv", b, len(tor_idx + free_idx)),
                                       ("apply_v", a, len(tor_idx))]
        assert fresh.reduction()[0].presentation == reduce_presentation(m).presentation


def differential_presentations():
    # 320 seeded presentations up to 4 x 4 over Z, among them every
    # 0 x k and b x 0 shape and, every fifth, a diagonal of units and
    # zeros; every eighth is over Q[x]
    rnd = random.Random(31)
    qx = RingSpec.RATIONAL_POLYNOMIALS
    for k in range(320):
        rows, cols = rnd.randint(0, 4), rnd.randint(0, 4)
        if k % 5 == 0:
            diag = [rnd.choice((1, -1, 0)) for _ in range(min(rows, cols))]
            yield FpModule(IntMatrix.diagonal(Z, diag, rows=rows, cols=cols))
        elif k % 8 == 1:
            yield FpModule(IntMatrix.from_rows(qx, [[QPoly((rnd.randint(-2, 2), rnd.randint(-1, 1)))
                                                     for _ in range(cols)] for _ in range(rows)],
                                               cols=cols))
        else:
            yield FpModule(random_matrix(rnd, rows, cols, 6))
    for rows in range(4):
        yield from (FpModule.free(Z, rows), FpModule(IntMatrix.zeros(Z, 0, rows + 1)))


def test_rank_questions_agree_with_the_chained_smith_form():
    # the rank questions, read off the chained Smith diagonal, agree with
    # the chain-free diagonal of the presentation: its length is the rank
    # of P, and its entries are all units exactly when the invariant factors
    # are; asked twice, they read the diagonal kept
    shapes, answers = set(), set()
    for m in differential_presentations():
        got = (m.invariant_data()[0], m.is_free(), m.is_torsion(), m.is_zero_module())
        diag = matrices.nonzero_diagonal(m.presentation)
        free_rank, units = m.generators - len(diag), all(rings.is_unit(m.ring, e) for e in diag)
        assert got == (free_rank, units, free_rank == 0, free_rank == 0 and units)
        assert got == (m.invariant_data()[0], m.is_free(), m.is_torsion(), m.is_zero_module())
        shapes.add((m.generators > 0, m.relations > 0))
        answers.add(got[1:])
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}
    assert len(answers) == 4  # zero, free, torsion and mixed modules


def test_projective_resolution_is_the_reduced_presentation():
    # equal, entry for entry, to the resolution built step by step from
    # injective column bases, which over a PID stops after its first step
    lengths = set()
    for m in differential_presentations():
        res = projective_resolution(m)
        assert res == oracles.resolution_by_injective_bases(m)
        lengths.add((m.ring, len(res)))
    assert lengths == {(r, n) for r in (Z, RingSpec.RATIONAL_POLYNOMIALS) for n in (0, 1)}


def test_reduction_equals_the_four_replay_formulas():
    # the reduction's isomorphisms equal the whole-transform formulas entry
    # for entry: U^-1 and V cut to columns, V^-1's rows divided out of U * P
    reduced = 0
    for m in differential_presentations():
        canon, a, b = m.reduction()
        old_a, old_b = oracles.reduction_by_full_replays(m)
        assert canon.presentation == old_a.target.presentation
        assert (a.gen, a.witness, b.gen, b.witness) \
            == (old_a.gen, old_a.witness, old_b.gen, old_b.witness)
        reduced += bool(m.invariant_data()[1])
    assert reduced > 60


def test_reduce_presentation_drops_units():
    m = FpModule(zmat([[1, 0], [0, 6]]))
    r = reduce_presentation(m)
    assert r.generators == 1 and r.invariant_data() == (0, (6,))


def test_embed_into_free():
    assert embed_into_free(zmod(2)) is None
    e = embed_into_free(zmod(0, 0))
    assert e is not None and is_mono(e)


def test_hom_group_builds_its_quotient_when_read(modules_built, snf_runs):
    # elements, generators and pushforwards read only the generator count;
    # the quotient module is built on the first read, once, from the one
    # diagonalisation that pushforwards into the group solve on, which a
    # source without relations does not need, nor a system
    # [gen_vecs | -(I kron P_tgt)] without rows or columns
    rnd = rng_for(11, "lazy-hom")
    bounds = SizeBounds(max_rank=2, max_entry=6)
    for _ in range(12):
        src, tgt = random_module(rnd, bounds), random_module(rnd, bounds)
        h = hom_group(src, tgt)
        assert modules_built(hom_group, src, tgt) == 0
        assert modules_built(random_morphism, rnd, src, tgt) == 0
        coords = [rnd.randint(-2, 2) for _ in range(h.generators)]
        assert modules_built(h.element, coords) == 0
        for i in range(h.generators):
            assert modules_built(h.generator, i) == 0
        assert modules_built(h.pushforward, FpMorphism.identity(tgt), h) == 0
        assert modules_built(lambda: (h.module, h.module)) == 1
        assert h.module.generators == h.generators
        fresh, ident = hom_group(src, tgt), FpMorphism.identity(tgt)
        rows = tgt.generators * src.generators
        cols = h.generators + src.generators * tgt.relations
        assert snf_runs(lambda: (fresh.module, h.pushforward(ident, fresh), fresh.module)) \
            == (1 if src.relations and rows and cols else 0)


def hom_oracle_cases():
    """(source, target, f : target -> t) over 60 seeded triples, and over
    every pair of a zero, a relation-free and two presented modules."""
    bounds = SizeBounds(max_rank=2, max_entry=6)
    for i in range(60):
        rnd = rng_for(23, "hom-oracle", i)
        m, n, t = (random_module(rnd, bounds) for _ in range(3))
        yield m, n, random_morphism(rnd, n, t)
    rnd = rng_for(23, "hom-oracle-fixed")
    fixed = [FpModule.zero(Z), FpModule.free(Z, 2), zmod(4, 0), FpModule(zmat([[2, 1], [0, 3]]))]
    for m in fixed:
        for n in fixed:
            yield m, n, random_morphism(rnd, n, zmod(6, 0))


def test_hom_group_agrees_with_the_kronecker_oracle():
    # the placed system has the oracle's kernel entry for entry, so the same
    # generators, witnesses and quotient; a pushforward's coordinates solve
    # the oracle's system for the composites
    kinds = set()
    for m, n, f in hom_oracle_cases():
        h, h_f = hom_group(m, n), hom_group(m, f.target)
        gen_vecs, wit_vecs, triv = oracles.hom_group_system(m, n)
        assert (h._gen_vecs, h._wit_vecs) == (gen_vecs, wit_vecs)
        assert h.module.presentation == span_quotient(gen_vecs, triv)[0].presentation
        f_gen_vecs, _, f_triv = oracles.hom_group_system(m, f.target)
        coords = h.pushforward(f, h_f)
        rest = oracles.pushforward_images(f, gen_vecs, m.generators) - f_gen_vecs * coords
        assert solve_lift(f_triv, rest) is not None
        kinds.update(kind for kind, holds in [
            ("zero", m.generators == 0 or n.generators == 0),
            ("relation-free source", m.generators > 0 and m.relations == 0),
            ("relation-free target", n.generators > 0 and n.relations == 0),
            ("nonzero composite", not coords.is_zero())] if holds)
    assert len(kinds) == 4


def test_hom_out_of_a_free_module_is_a_direct_power(snf_runs):
    # Hom(R^m, N) = N^m: the quotient is m copies of P_N side by side and a
    # composite's coordinates are its vectorised generator matrix, both read
    # with no diagonalisation; the pushforward is the oracle's I kron f.gen
    # times gen_vecs = I, entry for entry
    bounds = SizeBounds(max_rank=2, max_entry=6)
    rnd = rng_for(29, "free-source-hom")
    fixed = [FpModule.zero(Z), FpModule.free(Z, 2), zmod(4), FpModule(zmat([[2, 1], [0, 3]]))]
    kinds = set()
    for n in fixed + [random_module(rnd, bounds) for _ in range(12)]:
        f = random_morphism(rnd, n, random_module(rnd, bounds))
        for m in range(4):
            src = FpModule.free(Z, m)
            h, h_f = hom_group(src, n), hom_group(src, f.target)
            assert snf_runs(lambda: h.module) == 0
            assert h.module.presentation == block_diag(Z, [n.presentation] * m)
            coords = h.pushforward(f, h_f)
            assert snf_runs(h.pushforward, f, h_f) == 0
            composites = [vec(compose(f, h.generator(i)).gen) for i in range(h.generators)]
            assert coords == reduce(IntMatrix.hstack, composites,
                                    IntMatrix.zeros(Z, h_f.generators, 0))
            assert coords == oracles.pushforward_images(f, h._gen_vecs, m)
            kinds.add((f.target.relations > 0, not coords.is_zero()))
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def test_pushforward_refuses_groups_that_do_not_match_the_map():
    f = FpMorphism.from_generator_matrix(zmod(4), zmod(6), zmat([[3]]))
    z = FpModule.free(Z, 1)
    h = hom_group(z, f.source)
    assert h.pushforward(f, hom_group(z, f.target)) == zmat([[3]])
    for tgt in (hom_group(z, zmod(5)), hom_group(zmod(2), f.target)):
        with pytest.raises(ValueError):
            h.pushforward(f, tgt)
    with pytest.raises(ValueError):
        hom_group(z, zmod(2)).pushforward(f, hom_group(z, f.target))


def test_pullback_legs_are_row_blocks_of_the_inclusion(morphisms_built, snf_runs):
    # the legs equal the summand projections after the kernel inclusion,
    # matrix for matrix, zero modules included; the kernel of [f, -g] is
    # posed on matrices, so only the legs are built (no sum, negation, block
    # map or kernel inclusion), with the old construction's diagonalisations
    rnd = rng_for(12, "pullback-legs")
    bounds = SizeBounds(max_rank=2, max_entry=6)
    zero = FpModule.zero(Z)
    for i in range(30):
        a, b, c = (random_module(rnd, bounds) for _ in range(3))
        if i % 5 == 0:
            a, b, c = [(zero, b, c), (a, zero, c), (a, b, zero), (zero, zero, zero),
                       (zero, b, zero)][i // 5 % 5]
        f, g = random_morphism(rnd, a, c), random_morphism(rnd, b, c)
        leg_a, leg_b = pullback(f, g)
        p = leg_a.source
        assert morphisms_built(pullback, f, g) == 2
        assert snf_runs(pullback, f, g) == snf_runs(oracles.pullback_legs, f, g)
        for leg, old in zip((leg_a, leg_b), oracles.pullback_legs(f, g)):
            assert leg.source is p and old.source.presentation == p.presentation
            assert leg.target.presentation == old.target.presentation
            assert (leg.gen, leg.witness) == (old.gen, old.witness)
        assert morphism_equal(compose(f, leg_a), compose(g, leg_b))


def test_pullback_along_an_identity_is_the_other_map(monkeypatch):
    # the pullback of the identity of A along g : B -> A is B with legs g and
    # the identity, read with no kernel; the kernel route's pullback is the
    # same module up to isomorphism over A (+) B.  A cokernel projection is
    # the shared identity on generators between two modules: it poses its
    # kernel and passes the same checks
    kernels, real_kernel = [], modules.kernel_matrix

    def counting_kernel(m):
        kernels.append(m)
        return real_kernel(m)

    monkeypatch.setattr(modules, "kernel_matrix", counting_kernel)
    bounds = SizeBounds(max_rank=2, max_entry=6)
    zero = FpModule.zero(Z)
    kinds = set()
    for i in range(24):
        rnd = rng_for(47, "identity-pullback", i)
        a, b = random_module(rnd, bounds), random_module(rnd, bounds)
        a, b = [(a, b), (zero, b), (a, zero), (zero, zero)][i % 4]
        proj = cokernel(random_morphism(rnd, random_module(rnd, bounds), a))
        for f in (FpMorphism.identity(a), proj):
            g = random_morphism(rnd, b, f.target)
            closed = f is not proj
            assert f.gen is IntMatrix.identity(Z, a.generators)
            kernels.clear()
            leg_a, leg_b = pullback(f, g)
            p = leg_a.source
            assert bool(kernels) is not closed
            if closed:
                assert p is b and leg_a is g
            old_a, old_b = oracles.pullback_by_kernels(f, g)
            old_p = old_a.source
            assert p.invariant_data() == old_p.invariant_data()
            assert morphism_equal(compose(f, leg_a), compose(g, leg_b))
            # both pairs of legs into A (+) B are monic, and factor through
            # each other
            parts = [a, b]
            total = direct_sum(parts)
            new, old = (block_morphism(q, total, [q], parts, {(0, 0): la, (1, 0): lb})
                        for q, la, lb in ((p, leg_a, leg_b), (old_p, old_a, old_b)))
            assert factor(old, new) is not None and factor(new, old) is not None
            kinds.add((closed, a.generators > 0, b.generators > 0))
    assert len(kinds) == 8


def test_pushforward_along_the_identity_is_the_identity(monkeypatch):
    # the identity of N composed with generator i of Hom(P, N) is generator
    # i, so its coordinates in the same group are the unit vectors, read with
    # no solve; they define the map the oracle's solved coordinates define.
    # Another group with the same ends takes the general path
    solves, real_solve = [], matrices.PreparedSolver.solve

    def counting_solve(self, rhs):
        solves.append(rhs)
        return real_solve(self, rhs)

    monkeypatch.setattr(matrices.PreparedSolver, "solve", counting_solve)
    bounds = SizeBounds(max_rank=2, max_entry=6)
    rnd = rng_for(53, "identity-pushforward")
    fixed = [FpModule.zero(Z), FpModule.free(Z, 2), zmod(6)]
    kinds = set()
    for n in fixed + [random_module(rnd, bounds) for _ in range(9)]:
        ident = FpMorphism.identity(n)
        for p in (FpModule.free(Z, 1), FpModule.free(Z, 2), zmod(4)):
            h, other = hom_group(p, n), hom_group(p, n)
            solves.clear()
            coords = h.pushforward(ident, h)
            assert coords is IntMatrix.identity(Z, h.generators) and solves == []
            general = h.pushforward(ident, other)
            assert general is not coords and bool(solves) == bool(p.relations)
            gen_vecs, _, triv = oracles.hom_group_system(p, n)
            sol = solve_lift(gen_vecs.hstack(triv),
                             oracles.pushforward_images(ident, gen_vecs, p.generators))
            read = FpMorphism.from_generator_matrix(h.module, h.module, coords)
            for solved, end in ((sol.take_rows(range(h.generators)), h), (general, other)):
                assert morphism_equal(
                    read, FpMorphism.from_generator_matrix(h.module, end.module, solved))
            kinds.add((p.relations > 0, h.module.relations > 0))
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def zero_test_cases():
    """48 seeded morphisms: random ones, ones whose generator matrix lies in
    the target's relations, into targets without relations and out of
    sources without generators."""
    bounds = SizeBounds(max_rank=2, max_entry=6)
    for i in range(48):
        rnd = rng_for(37, "zero-test", i)
        src, tgt = random_module(rnd, bounds), random_module(rnd, bounds)
        kind = i % 4
        if kind == 1:  # P_tgt * X descends with witness X * P_src, and is zero
            x = random_matrix(rnd, tgt.relations, src.generators, 3)
            yield FpMorphism(src, tgt, tgt.presentation * x, x * src.presentation)
            continue
        if kind == 2:
            tgt = FpModule.free(Z, rnd.randint(0, 2))
        elif kind == 3:
            src = FpModule(IntMatrix.zeros(Z, 0, rnd.randint(0, 2)))
        yield random_morphism(rnd, src, tgt, bound=rnd.randint(0, 2))


def test_zero_test_agrees_with_the_zero_morphism(morphisms_built):
    # one solve on the generator matrix, the old comparison's decision,
    # with no zero morphism built
    outcomes, kinds = [], set()
    for f in zero_test_cases():
        outcomes.append(is_zero_morphism(f))
        assert outcomes[-1] == oracles.is_zero_morphism(f)
        assert morphisms_built(is_zero_morphism, f) == 0
        kinds.update(kind for kind, holds in [
            ("relation-free target", f.target.relations == 0),
            ("no source generators", f.source.generators == 0),
            ("zero, nonzero generators", outcomes[-1] and not f.gen.is_zero())] if holds)
    assert 0 < outcomes.count(False) < len(outcomes)
    assert len(kinds) == 3


def test_pullback_square():
    z = FpModule.free(Z, 1)
    z4 = FpModule.cyclic(Z, 4)
    f = FpMorphism.from_generator_matrix(z, z4, zmat([[1]]))
    g = FpMorphism.from_generator_matrix(z, z4, zmat([[2]]))
    la, lb = pullback(f, g)
    assert morphism_equal(compose(f, la), compose(g, lb))
    # pullback of Z -> Z/4 <- Z along (1, 2): {(a,b) : a = 2b mod 4}, free of rank 2
    assert la.source.invariant_data() == (2, ())


def test_pushout_square():
    z = FpModule.free(Z, 1)
    f = FpMorphism.from_generator_matrix(z, z, zmat([[2]]))
    g = FpMorphism.from_generator_matrix(z, z, zmat([[3]]))
    la, lb = pushout(f, g)
    assert morphism_equal(compose(la, f), compose(lb, g))
    assert la.target.invariant_data() == (1, ())


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
        assert reduce_presentation(kernel(f).source).relations == 0


def membership_maps():
    """Seeded fp maps over Z, a map over Q[x], the mono Z --2--> Z that does
    not split, Z/2 --2--> Z/4 out of a module with relations, and maps into
    and out of the zero module."""
    bounds = SizeBounds(max_rank=3, max_entry=6)
    maps = []
    for i in range(12):
        rnd = rng_for(11, "image-membership", i)
        maps.append(random_morphism(rnd, random_module(rnd, bounds), random_module(rnd, bounds)))
    qx, x = RingSpec.RATIONAL_POLYNOMIALS, QPoly.x()
    maps.append(FpMorphism.from_generator_matrix(
        FpModule.free(qx, 1), FpModule(IntMatrix.from_rows(qx, [[x * x], [QPoly()]])),
        IntMatrix.from_rows(qx, [[x], [QPoly.const(1)]])))
    z, zero = FpModule.free(Z, 1), FpModule.zero(Z)
    maps.append(FpMorphism.from_generator_matrix(z, z, zmat([[2]])))
    maps.append(FpMorphism.from_generator_matrix(zmod(2), zmod(4), zmat([[2]])))
    maps += [FpMorphism.zero(zero, zmod(3)), FpMorphism.zero(zmod(0, 5), zero),
             FpMorphism.zero(zero, zero)]
    return maps


def test_image_membership_agrees_with_the_old_constructions():
    # is_epi against the cokernel, is_mono against the kernel, and in_image
    # against lifting the free cover on the elements through f
    epis, monos, members = [], [], []
    for f in membership_maps():
        ring, tgt = f.source.ring, f.target
        epis.append(is_epi(f))
        assert epis[-1] == cokernel(f).target.is_zero_module()
        monos.append(is_mono(f))
        assert monos[-1] == kernel(f).source.is_zero_module()
        ident = IntMatrix.identity(ring, tgt.generators)
        for elements in [ident, f.gen] + [ident.take_columns([i]) for i in range(ident.cols)]:
            cover = FpMorphism(FpModule.free(ring, elements.cols), tgt, elements,
                               IntMatrix.zeros(ring, tgt.relations, 0))
            members.append(in_image(f, elements))
            assert members[-1] == (factor(cover, f) is not None)
    for outcomes in (epis, monos, members):
        assert 0 < outcomes.count(False) < len(outcomes)


def test_epi_and_mono_build_no_morphism(morphisms_built):
    # one solve each: no cokernel projection and no kernel inclusion
    for f in membership_maps():
        assert morphisms_built(is_epi, f) == 0
        assert morphisms_built(is_mono, f) == 0


def prepared_system_cases():
    """(m, n, f : m -> n) over 200 seeded pairs, every fourth target
    without relations, plus maps into and out of the zero module."""
    bounds = SizeBounds(max_rank=3, max_entry=5)
    for i in range(200):
        rnd = rng_for(41, "prepared-systems", i)
        m, n = random_module(rnd, bounds), random_module(rnd, bounds)
        if i % 4 == 3:
            n = FpModule.free(Z, n.generators)
        yield m, n, random_morphism(rnd, m, n)
    zero = FpModule.zero(Z)
    for m, n in ((zero, zmod(3, 0)), (zmod(0, 5), zero), (zero, zero)):
        yield m, n, FpMorphism.zero(m, n)


def test_prepared_systems_agree_with_the_old_solves():
    # every witness, kernel and decision read from a module's relation
    # solver or a morphism's kernel solver is, entry for entry, what the
    # system posed afresh gives: P_n * X = B, the kernel of [gen | -P_n],
    # and [gen | P_n] * X = elements
    rnd = rng_for(41, "prepared-rhs")
    outcomes = {"relations": [], "image": [], "epi": [], "mono": []}
    for m, n, f in prepared_system_cases():
        image_system = f.gen.hstack(n.presentation)
        assert FpMorphism.from_generator_matrix(m, n, f.gen).witness == \
            solve_lift(n.presentation, f.gen * m.presentation)
        for gen in (random_matrix(rnd, n.generators, 2, 3),
                    n.presentation * random_matrix(rnd, n.relations, 2, 3), f.gen - f.gen):
            outcomes["relations"].append(modules.factors_through_relations(n, gen))
            assert outcomes["relations"][-1] == (solve_lift(n.presentation, gen) is not None)
        kernel = modules.kernel_generators(f)
        assert kernel == kernel_matrix(f.gen.hstack(-n.presentation)).take_rows(
            range(m.generators))
        ident = IntMatrix.identity(Z, n.generators)
        for elements in (ident, random_matrix(rnd, n.generators, 2, 3),
                         f.gen * random_matrix(rnd, m.generators, 2, 3)):
            outcomes["image"].append(in_image(f, elements))
            assert outcomes["image"][-1] == (solve_lift(image_system, elements) is not None)
        outcomes["epi"].append(is_epi(f))
        assert outcomes["epi"][-1] == (solve_lift(image_system, ident) is not None)
        outcomes["mono"].append(is_mono(f))
        assert outcomes["mono"][-1] == (solve_lift(m.presentation, kernel) is not None)
    for found in outcomes.values():
        assert 0 < found.count(False) < len(found)


def test_each_module_and_morphism_diagonalises_once(snf_runs):
    # a module's witnesses and vanishing decisions share one diagonalisation
    # of its relations; a morphism's kernel, image membership and epi test
    # share one of [gen | -P_tgt]; a system without rows or columns needs
    # none; the old solves posed each afresh
    ident = FpMorphism.identity
    for m, n, f in prepared_system_cases():
        target = FpModule(n.presentation)
        g = FpMorphism(m, target, f.gen, f.witness)

        def module_solves():
            h = FpMorphism.from_generator_matrix(m, target, f.gen)
            return h, morphism_equal(g, h), modules.composite_is_zero(ident(target), g)

        assert snf_runs(module_solves) == int(bool(n.generators and n.relations))
        assert snf_runs(module_solves) == 0
        elements = IntMatrix.identity(Z, n.generators)
        decisions = (modules.kernel_generators, lambda g: in_image(g, elements), is_epi)
        posed = int(bool(n.generators and m.generators + n.relations))
        assert snf_runs(lambda: [decide(g) for decide in decisions]) == posed
        assert snf_runs(lambda: [decide(g) for decide in decisions]) == 0
        if n.generators and n.relations:
            image_system = f.gen.hstack(n.presentation)
            assert snf_runs(lambda: (solve_lift(n.presentation, f.gen * m.presentation),
                                     solve_lift(n.presentation, f.gen - f.gen),
                                     kernel_matrix(f.gen.hstack(-n.presentation)),
                                     solve_lift(image_system, elements),
                                     solve_lift(image_system, elements))) == 5


def test_morphism_solves_are_pinned():
    # golden hash of factor/cofactor solutions through kernel inclusions and
    # cokernel projections, solvable by construction and random; reordering
    # the unknowns or the runs, or changing any block of a run's system,
    # moves it.
    # A second hash covers the witnesses of those solutions and of a few hom
    # group elements.
    bounds = SizeBounds(max_rank=2, max_entry=3)
    h, witnesses = hashlib.sha256(), hashlib.sha256()
    solved = unsolved = 0
    for i in range(25):
        rnd = rng_for(5, "pinned-solves", i)
        m, n, t = (random_module(rnd, bounds) for _ in range(3))
        f = random_morphism(rnd, m, n)
        incl, proj = kernel(f), cokernel(f)
        through_kernel = factor(compose(incl, random_morphism(rnd, t, incl.source)), incl)
        through_cokernel = cofactor(compose(random_morphism(rnd, proj.target, t), proj), proj)
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
        "8a75b2ededd8218ad95337159797205b952046f4597fac1904c9376c2c5c62f9")
    assert witnesses.hexdigest() == (
        "6de6808a84973af40699dfafd261e8019d0f0e7bb77f900cbee2b1eb16a5b388")


def oracle_cases():
    """(solve, g, through, unique): factor or cofactor problems through
    kernel inclusions, cokernel projections, identities and random maps over
    400 seeded triples, a map over Q[x], and maps into and out of the zero
    module.  ``unique`` marks a mono to factor through or an epi to descend
    through, where any two solutions agree."""
    bounds = SizeBounds(max_rank=3, max_entry=4)
    for i in range(400):
        rnd = rng_for(17, "oracle-agreement", i)
        m, n, t = (random_module(rnd, bounds) for _ in range(3))
        f = random_morphism(rnd, m, n)
        incl, proj = kernel(f), cokernel(f)
        yield factor, compose(incl, random_morphism(rnd, t, incl.source)), incl, True
        yield factor, random_morphism(rnd, t, m), incl, True
        yield cofactor, compose(random_morphism(rnd, proj.target, t), proj), proj, True
        yield cofactor, random_morphism(rnd, n, t), proj, True
        yield factor, random_morphism(rnd, t, n), FpMorphism.identity(n), True
        yield cofactor, random_morphism(rnd, m, t), FpMorphism.identity(m), True
        yield factor, random_morphism(rnd, t, n), f, False
        yield cofactor, random_morphism(rnd, m, t), f, False
    qx, x = RingSpec.RATIONAL_POLYNOMIALS, QPoly.x()
    f = FpMorphism.from_generator_matrix(
        FpModule.free(qx, 1), FpModule(IntMatrix.from_rows(qx, [[x * x], [QPoly()]])),
        IntMatrix.from_rows(qx, [[x], [QPoly.const(1)]]))
    proj = cokernel(f)
    yield factor, f, f, False
    yield factor, FpMorphism.identity(f.target), f, False
    yield cofactor, proj, proj, True
    yield cofactor, FpMorphism.identity(f.target), proj, True
    zero, m, n = FpModule.zero(Z), zmod(3, 0), zmod(0, 5)
    yield factor, FpMorphism.zero(zero, n), FpMorphism.identity(n), True
    yield factor, FpMorphism.zero(m, zero), FpMorphism.zero(n, zero), False
    yield factor, FpMorphism.identity(n), FpMorphism.zero(zero, n), True
    yield cofactor, FpMorphism.zero(m, zero), FpMorphism.identity(m), True
    yield cofactor, FpMorphism.zero(zero, n), FpMorphism.zero(zero, m), False
    yield cofactor, FpMorphism.identity(m), FpMorphism.zero(m, zero), True


def test_factor_and_cofactor_agree_with_the_kronecker_oracle():
    # the old vectorised solver decides the same existence question; a new
    # solution satisfies its equation, and equals the old one where unique
    outcomes = {factor: [], cofactor: []}
    for solve, g, through, unique in oracle_cases():
        h = solve(g, through)
        expected = (oracles.factor if solve is factor else oracles.cofactor)(g, through)
        assert (h is None) == (expected is None)
        outcomes[solve].append(h is not None)
        if h is None:
            continue
        assert morphism_equal(compose(through, h) if solve is factor else compose(h, through), g)
        if unique:
            assert morphism_equal(h, expected)
    for found in outcomes.values():
        assert 0 < found.count(False) < len(found)


def test_morphism_solves_build_one_solver(solvers_built):
    # factor and cofactor reduce one module, g's source or target, and build
    # one solver per run of equal entries on its reduced diagonal plus one for
    # its free generators, taking each witness from their own solution; hom
    # group elements take it from the kernel that found them
    def runs(m):
        free_rank, torsion = m.invariant_data()
        return len(set(torsion)) + (free_rank > 0)

    bounds = SizeBounds(max_rank=2, max_entry=3)
    counts = []
    for i in range(5):
        rnd = rng_for(9, "solver-count", i)
        m, n, t = (random_module(rnd, bounds) for _ in range(3))
        f = random_morphism(rnd, m, n)
        incl, proj = kernel(f), cokernel(f)
        g = compose(incl, random_morphism(rnd, t, incl.source))
        counts.append(solvers_built(factor, g, incl))
        assert counts[-1] == runs(t)
        g = compose(random_morphism(rnd, proj.target, t), proj)
        counts.append(solvers_built(cofactor, g, proj))
        assert counts[-1] == runs(t)
        hom = hom_group(m, n)
        assert solvers_built(hom.element, [1] * hom.module.generators) == 0
    # two runs and free generators; a unit factor that reduction drops
    for t in (zmod(2, 2, 4, 0), zmod(3, 0, 0), FpModule(zmat([[2, 1], [0, 3]]))):
        ident = FpMorphism.identity(t)
        counts += [solvers_built(factor, ident, ident), solvers_built(cofactor, ident, ident)]
        assert counts[-2:] == [runs(t)] * 2
    assert sorted(set(counts)) == [0, 1, 2, 3]


def test_relation_free_solves_compose_nothing(morphisms_built, monkeypatch):
    # a module without relations is its own reduction: factor from a free
    # source and cofactor into a free target build the solved morphism alone
    composed = []
    monkeypatch.setattr(modules, "compose", lambda g, f: composed.append((g, f)) or compose(g, f))
    bounds = SizeBounds(max_rank=2, max_entry=3)
    for i in range(5):
        rnd = rng_for(9, "relation-free", i)
        m, n = random_module(rnd, bounds), random_module(rnd, bounds)
        free = FpModule.free(Z, rnd.randint(1, 3))
        free.reduction()  # its identities are built once per module
        incl = kernel(random_morphism(rnd, m, n))
        g = compose(incl, random_morphism(rnd, free, incl.source))
        assert morphisms_built(factor, g, incl) == 1
        proj = cokernel(random_morphism(rnd, m, n))
        g = compose(random_morphism(rnd, proj.target, free), proj)
        assert morphisms_built(cofactor, g, proj) == 1
    assert composed == []


def test_known_witnesses_build_no_solver(solvers_built):
    # direct sums write down block inclusions, the free quotient needs no
    # relations, and the torsion inclusion reads U^-1 and V off the Smith form
    bounds = SizeBounds(max_rank=3, max_entry=6)
    for i in range(5):
        rnd = rng_for(9, "known-witness", i)
        ms = [random_module(rnd, bounds) for _ in range(3)]
        assert solvers_built(direct_sum, ms) == 0
        assert solvers_built(summand_maps, ms, direct_sum(ms)) == 0
        assert solvers_built(free_quotient, ms[0]) == 0
        assert solvers_built(torsion_decompose, ms[0]) == 0

    a, b = FpModule(zmat([[2, 1], [0, 3]])), FpModule(zmat([[4]]))
    (ia, ib), (pa, pb) = summand_maps([a, b], direct_sum([a, b]))
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
    t_incl, proj = torsion_decompose(m)
    assert t_incl.source.presentation == zmat(tor)
    assert (t_incl.gen, t_incl.witness) == (zmat(incl[0]), zmat(incl[1]))
    for p in (proj, free_quotient(m)):
        assert p.target.presentation == IntMatrix.zeros(Z, len(quotient), 0)
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
        cx = oracles.cone(ChainMap.identity(x))
        incl = oracles.checked_chain_map(
            x, cx, {n: injection([x.object_at(n), x.object_at(n + 1)], cx.object_at(n), 0)
                    for n in cx.degrees()})
        cc = oracles.cone(incl)
        s = direct_sum_complexes([x, y])
        for c in (cx, cc, s):
            update(*c.differentials)
        a, b, c = (random_module(rnd, bounds) for _ in range(3))
        update(*pullback(random_morphism(rnd, a, c), random_morphism(rnd, b, c)))
        update(*pushout(random_morphism(rnd, c, a), random_morphism(rnd, c, b)))
        t1, t2 = (FreydObject(ex, random_carrier_deflation(ex, rnd, bounds))
                  for _ in range(2))
        proj_2 = freyd_direct_sum(t1, t2)[1]
        total = proj_2.source
        gen_parts, rel_parts = [t1.generators, t2.generators], [t1.relations, t2.relations]
        inj_1 = FreydMorphism(t1, total, injection(gen_parts, total.generators, 0),
                              injection(rel_parts, total.relations, 0))
        q_proj = freyd_cokernel(inj_1)
        quotient = q_proj.target
        pi, g, mid = right_filter_factor(proj_2)
        update(total.carrier, quotient.carrier, q_proj.gen, q_proj.wit,
               extension_middle(ex, rnd, t1, t2).carrier,
               pi.wit, g.wit, mid.carrier)
    assert h.hexdigest() == (
        "e9f3aa6fbc3d976d4ef80a62b7c1fb94aaa4548850657544e96bcf6d7eaaf142")


def test_a_relation_free_free_quotient_runs_no_smith_form(monkeypatch):
    # without relations the free quotient is the identity on generators and
    # the torsion inclusion is zero: no Smith form, and the maps of the
    # chained path, over both rings and without generators too
    forms = []

    def counting(m, _real=modules.smith_normal_form):
        forms.append(m)
        return _real(m)

    monkeypatch.setattr(modules, "smith_normal_form", counting)
    for ring in (Z, RingSpec.RATIONAL_POLYNOMIALS):
        for n in range(4):
            m = FpModule.free(ring, n)
            got = [free_quotient(m), embed_into_free(m)]
            if ring is Z:
                got += torsion_decompose(m)
            assert forms == []
            incl, proj = oracles.torsion_decompose_by_smith_form(m)
            want = [proj, proj] + [incl, proj] * (ring is Z)
            assert ([(f.source.presentation, f.target.presentation, f.gen, f.witness)
                     for f in got] ==
                    [(f.source.presentation, f.target.presentation, f.gen, f.witness)
                     for f in want])
            forms.clear()
