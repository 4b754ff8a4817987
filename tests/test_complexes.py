import hashlib
import random

import pytest

from tiltbench.complexes import (
    BaseCategory,
    ChainMap,
    Complex,
    UndecidableConfigurationError,
    chain_maps_homotopic,
    cohomology,
    cone,
    derived_hom,
    direct_sum_complexes,
    free_complex,
    free_resolution,
    is_contractible,
    is_exact,
    is_homotopy_iso,
    is_nullhomotopic,
    is_quasi_iso,
    stalk_complex,
    strictify_free,
    total_hom_complex,
)
from tiltbench.matrices import IntMatrix
from tiltbench.modules import FpModule, FpMorphism, compose
from tiltbench.rings import RingSpec
from tiltbench.samplers import (
    SizeBounds,
    random_exact_free_complex,
    random_free_complex,
    rng_for,
)

Z = RingSpec.INTEGERS


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
    return ChainMap(src, tgt, comps)


def test_complex_validation_rejects_nonzero_composite():
    objs = [FpModule.free(Z, 1)] * 3
    d1 = FpMorphism.from_generator_matrix(objs[0], objs[1], zmat([[1]]))
    d2 = FpMorphism.from_generator_matrix(objs[1], objs[2], zmat([[1]]))
    with pytest.raises(ValueError):
        Complex(Z, BaseCategory.FREE_MODULES, 0, objs, [d1, d2])


def test_shift_convention():
    c = two_term([[2]], lo=0)
    s = c.shift(1)
    assert s.lo == -1 and s.hi == 0
    assert int(s.differential_at(-1).gen.at(0, 0)) == -2


def test_cone_of_identity_is_contractible():
    c = stalk_complex(FpModule.free(Z, 1), 0, base=BaseCategory.FREE_MODULES)
    cc, _, _ = cone(ChainMap.identity(c))
    h = is_contractible(cc)
    assert h is not None


def test_cone_of_zero_map_is_sum():
    x = two_term([[3]], lo=0)
    y = stalk_complex(FpModule.free(Z, 2), 0, base=BaseCategory.FREE_MODULES)
    cc, incl, proj = cone(ChainMap.zero(x, y))
    assert cc.object_at(-1).generators == 1
    assert cc.object_at(0).generators == 3
    # cohomology splits: H^{-1}(cone) = H^{-1}(X[1]) = ker(3) = 0
    assert cohomology(cc, -1).is_zero_module()


def test_cone_of_times_two():
    z = stalk_complex(FpModule.free(Z, 1), 0, base=BaseCategory.FREE_MODULES)
    f = chain_map_of_matrices(z, z, {0: zmat([[2]])})
    cc, _, _ = cone(f)
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
    s, (injs, projs) = direct_sum_complexes([acyclic, z])
    assert is_homotopy_iso(projs[1])
    assert is_quasi_iso(projs[1])


def test_strictify_free():
    # a free module presented with a redundant unit relation
    big = FpModule(IntMatrix.from_rows(Z, [[1, 0], [0, 0]], cols=2))
    c = stalk_complex(big, 0)
    strict, iso = strictify_free(c)
    assert strict.is_strict_free()
    assert strict.object_at(0).generators == 1


def test_free_resolution_formality():
    # fp complex: stalk Z/4 at degree 0 plus stalk Z at degree 2
    z4 = stalk_complex(FpModule.cyclic(Z, 4), 0)
    res = free_resolution(z4)
    assert res.is_strict_free()
    assert cohomology(res, 0).invariant_data() == (0, (4,))
    zstalk = stalk_complex(FpModule.free(Z, 1), 2)
    s, _ = direct_sum_complexes([z4, zstalk])
    res2 = free_resolution(s)
    assert cohomology(res2, 0).invariant_data() == (0, (4,))
    assert cohomology(res2, 2).invariant_data() == (1, ())
    assert cohomology(res2, 1).is_zero_module()


def test_cone_of_identity_is_exact_on_samples():
    rnd = random.Random(11)
    for _ in range(10):
        rk = rnd.randint(1, 2)
        x = two_term([[rnd.randint(-4, 4) for _ in range(rk)] for _ in range(rk)], lo=0)
        cc, incl, proj = cone(ChainMap.identity(x))
        assert is_exact(cc)
        assert is_contractible(cc) is not None


def test_chain_map_validation():
    c = two_term([[2]], lo=0)
    with pytest.raises(ValueError):
        chain_map_of_matrices(c, c, {0: zmat([[1]]), 1: zmat([[2]])})


def test_cone_long_exact_cohomology_sequence():
    from tiltbench.complexes import cohomology_map
    from tiltbench.modules import factor, image, kernel

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
        cc, incl, proj = cone(f)
        # exactness at H^n(Y): the kernel of H(incl) is the image of H(f)
        for n in (0, 1):
            hf = cohomology_map(f, n)
            hi = cohomology_map(incl, n)
            assert compose(hi, hf).gen is not None  # composable
            from tiltbench.modules import is_zero_morphism
            assert is_zero_morphism(compose(hi, hf))
            k_mod, k_incl = kernel(hi)
            im_mod, im_incl = image(hf)
            assert factor(k_incl, im_incl) is not None
            assert factor(im_incl, k_incl) is not None


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
    for d in h0.invariant_factors():
        order *= int(d)
    assert h0.free_rank() == 0
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
    for d in h0.invariant_factors():
        order *= int(d)
    assert h0.free_rank() == 0
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
        cc, incl, _ = cone(ChainMap.identity(x))
        for f in (ChainMap.identity(x), ChainMap.identity(e), ChainMap.identity(cc), incl):
            w = is_nullhomotopic(f)
            found, missing = found + (w is not None), missing + (w is None)
            witnesses.update(repr(None if w is None else sorted(
                (n, c.gen) for n, c in w.components.items())).encode())
        for a, b in ((x, y), (e, x), (cc, y)):
            hc = total_hom_complex(a, b)
            hom_diffs.update(repr((hc.lo, [d.gen for d in hc.differentials])).encode())
    assert found > 30 and missing > 10
    assert witnesses.hexdigest() == (
        "4fc45a0b676b0790ffceaf7ab4b32b997eace3a4defbe44da7f6f12016fa907f")
    assert hom_diffs.hexdigest() == (
        "e3c34ff9e3036c6ce06be3b459954f8363a5a8f6e63051b7a48552b8bf403f7f")
