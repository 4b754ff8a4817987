"""Named property suites over all modules, with a one-to-one law registry.

Most suites are one sample function run by ``reports.run_samples``: it gets
the sample's generator, derived from (seed, suite label, index), and yields
a (check, payload) pair with a serialised counterexample for each failed
check.  A run is thus reproducible regardless of scheduling.  The registry
holds the one statement of the law a suite checks; the verifier prints it
in the report header.

Two suites are negative controls: one is designed to fail (a deliberately
corrupted truncation) and one asserts that the cogeneration check on the
free class correctly rejects torsion witnesses.  A clean pass on the raw
corrupted suite would indicate a vacuous checker.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

from . import modules, samplers, serialize
from .complexes import (
    cohomology,
    derived_hom,
    free_complex,
    free_resolution,
    is_contractible,
    is_exact,
    is_nullhomotopic,
)
from .exactness import (
    Carrier,
    ExactStructure,
    Flavor,
    carrier_pushout,
    d_cokernel,
    d_kernel,
    is_acyclic_wrt,
    is_deflation,
    is_inflation,
)
from .freyd import (
    Fraction,
    FreydMorphism,
    FreydObject,
    auslander_project,
    evaluate,
    evaluate_map,
    factors_through_effaceable,
    fraction_compose,
    freyd_cokernel,
    freyd_compose,
    freyd_equal,
    freyd_kernel,
    is_effaceable,
    project_fraction,
    project_morphism,
    refine_fraction,
    right_filter_factor,
    serre_closure_check,
)
from .matrices import IntMatrix, is_unimodular, kernel_matrix, smith_normal_form, solve_lift
from .modules import FpModule, FpMorphism
from .reports import CheckFailure, CheckReport, Sample, run_samples
from .rings import QPoly, RingSpec, divides
from .samplers import SizeBounds
from .tstructures import (
    ClassTag,
    TStructureSpec,
    TVariant,
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
QX = RingSpec.RATIONAL_POLYNOMIALS

FREE_SPLIT = ExactStructure(Carrier.FREE_Z, Flavor.SPLIT)
FREE_MAX = ExactStructure(Carrier.FREE_Z, Flavor.MAXIMAL)
FP_MAX = ExactStructure(Carrier.FP_Z, Flavor.MAXIMAL)
TOR_INH = ExactStructure(Carrier.TORSION_Z, Flavor.INHERITED)
NATURAL = TStructureSpec.natural()
LEFT = TStructureSpec.left(FREE_SPLIT)
RIGHT = TStructureSpec.right(FREE_SPLIT)
HRS = TStructureSpec.hrs_tilt()
CORRUPTED = TStructureSpec(TVariant.NATURAL, corrupt=True)

Check = Callable[[int, int, SizeBounds], CheckReport]


@dataclass
class SuiteDef:
    name: str
    law: str
    run: Check
    negative_control: bool = False


# -- exact linear algebra ------------------------------------------------------

def _snf_identities(rnd, bounds):
    rows = rnd.randint(1, bounds.max_rank)
    cols = rnd.randint(1, bounds.max_rank)
    m = samplers.random_matrix(rnd, rows, cols, bounds.max_entry)
    u, d, v = smith_normal_form(m)
    payload = {"matrix": serialize.matrix_to_json(m)}
    if u * m * v != d:
        yield "transform_identity", payload
    if not (is_unimodular(u) and is_unimodular(v)):
        yield "unimodular_transforms", payload
    diag = [d.at(j, j) for j in range(min(rows, cols))]
    if any(not divides(Z, a, b) for a, b in zip(diag, diag[1:])):
        yield "divisibility_chain", payload
    if any(not (j == k or d.at(j, k) == 0)
           for j in range(d.rows) for k in range(d.cols)):
        yield "off_diagonal_zero", payload


def _snf_polynomials(rnd, bounds):
    rows = rnd.randint(1, 3)
    cols = rnd.randint(1, 3)

    def rand_poly():
        return QPoly([rnd.randint(-3, 3) for _ in range(rnd.randint(1, 3))])

    m = IntMatrix.from_rows(QX, [[rand_poly() for _ in range(cols)]
                                 for _ in range(rows)], cols=cols)
    u, d, v = smith_normal_form(m)
    if u * m * v != d:
        yield "transform_identity", {}
    if not (is_unimodular(u) and is_unimodular(v)):
        yield "unimodular_transforms", {}
    diag = [d.at(j, j) for j in range(min(rows, cols))]
    if any(not divides(QX, a, b) for a, b in zip(diag, diag[1:])):
        yield "divisibility_chain", {}


def _solve_kernel_duality(rnd, bounds):
    rows = rnd.randint(1, bounds.max_rank)
    cols = rnd.randint(1, bounds.max_rank)
    a = samplers.random_matrix(rnd, rows, cols, bounds.max_entry)
    payload = {"matrix": serialize.matrix_to_json(a)}
    y = samplers.random_matrix(rnd, cols, 1, 3)
    b = a * y
    x = solve_lift(a, b)
    if x is None or a * x != b:
        yield "solvable_system", payload
    b2 = samplers.random_matrix(rnd, rows, 1, bounds.max_entry)
    x2 = solve_lift(a, b2)
    if x2 is None:
        u, d, _ = smith_normal_form(a)
        ub = u * b2
        r = min(rows, cols)
        obstructed = any(
            (j >= r or d.at(j, j) == 0) and ub.at(j, 0) != 0
            or (j < r and d.at(j, j) != 0 and ub.at(j, 0) % d.at(j, j) != 0)
            for j in range(rows))
        if not obstructed:
            yield "absence_without_obstruction", payload
    elif a * x2 != b2:
        yield "inexact_solution", payload
    k = kernel_matrix(a)
    if not (a * k).is_zero():
        yield "kernel_killed", payload
    if k.cols:
        coeff = samplers.random_matrix(rnd, k.cols, 1, 3)
        x3 = k * coeff
        if solve_lift(k, x3) is None:
            yield "kernel_span_membership", payload


# -- finitely presented modules ---------------------------------------------------

def _fp_universal_properties(rnd, bounds):
    src = samplers.random_module(rnd, bounds)
    tgt = samplers.random_module(rnd, bounds)
    f = samplers.random_morphism(rnd, src, tgt)
    payload = {"morphism": serialize.morphism_to_json(f)}
    k_mod, incl = modules.kernel(f)
    if not modules.is_mono(incl):
        yield "kernel_monic", payload
    if not modules.is_zero_morphism(modules.compose(f, incl)):
        yield "kernel_killed", payload
    test = samplers.random_module(rnd, bounds)
    h = samplers.random_morphism(rnd, test, k_mod)
    g = modules.compose(incl, h)
    back = modules.factor(g, incl)
    if back is None or not modules.morphism_equal(
            modules.compose(incl, back), g):
        yield "kernel_factorisation_exists", payload
    elif not modules.morphism_equal(back, h):
        yield "kernel_factorisation_unique", payload
    c_mod, proj = modules.cokernel(f)
    if not modules.is_epi(proj):
        yield "cokernel_epi", payload
    if not modules.is_zero_morphism(modules.compose(proj, f)):
        yield "cokernel_killed", payload
    h2 = samplers.random_morphism(rnd, c_mod, samplers.random_module(rnd, bounds))
    g2 = modules.compose(h2, proj)
    back2 = modules.cofactor(g2, proj)
    if back2 is None or not modules.morphism_equal(
            modules.compose(back2, proj), g2):
        yield "cokernel_factorisation_exists", payload
    elif not modules.morphism_equal(back2, h2):
        yield "cokernel_factorisation_unique", payload


def _torsion_pair(rnd, bounds):
    m = samplers.random_module(rnd, bounds)
    n = samplers.random_module(rnd, bounds)
    t_mod, incl, f_mod, proj = modules.torsion_decompose(m)
    payload = {"module": serialize.module_to_json(m)}
    _, _, n_free, _ = modules.torsion_decompose(n)
    if not modules.hom_group(t_mod, n_free).module.is_zero_module():
        yield "orthogonality", payload
    if not modules.is_mono(incl) or not modules.is_epi(proj):
        yield "sequence_ends", payload
    k_mod, k_incl = modules.kernel(proj)
    if modules.factor(k_incl, incl) is None or modules.factor(incl, k_incl) is None:
        yield "exactness", payload
    t2, _, _, _ = modules.torsion_decompose(t_mod)
    if not t2.is_isomorphic(t_mod):
        yield "idempotence", payload


def _global_dimension(rnd, bounds):
    m = samplers.random_module(rnd, bounds)
    payload = {"module": serialize.module_to_json(m)}
    try:
        res = modules.projective_resolution(m, max_len=1)
    except ValueError:
        yield "resolution_length", payload
        return
    if len(res) > 1:
        yield "resolution_length", payload
    if res and kernel_matrix(res[0]).cols != 0:
        yield "resolution_exactness", payload
    if res and not FpModule(res[0]).is_isomorphic(m):
        yield "resolution_cokernel", payload
    x = samplers.random_free_complex(rnd, bounds)
    t, _ = truncate_le(RIGHT, -1, x)
    if not in_aisle(LEFT, 0, t):
        yield "right_window_in_left_aisle", {"complex": serialize.complex_to_json(x)}
    t2, _ = truncate_le(LEFT, 0, x)
    if not in_aisle(RIGHT, 0, t2):
        yield "left_aisle_in_right_aisle", {"complex": serialize.complex_to_json(x)}


# -- exactness structures ------------------------------------------------------------

def _exact_structure_axioms(rnd, bounds):
    ex = FP_MAX
    f = samplers.random_carrier_deflation(ex, rnd, bounds)
    payload = {"deflation": serialize.morphism_to_json(f)}
    if not is_deflation(f, ex):
        yield "corestriction_deflates", payload
        return
    # a second deflation out of f's target, to compose
    follow = samplers.random_morphism(rnd, f.target, f.target)
    _, h, _ = modules.corestrict_to_image(follow)
    if is_deflation(h, ex) and not is_deflation(modules.compose(h, f), ex):
        yield "composition_of_deflations", payload
    t = samplers.random_morphism(
        rnd, samplers.random_carrier_module(ex, rnd, bounds), f.target)
    # every carrier is closed under submodules, so the module pullback is in it
    p, leg_f, leg_t = modules.pullback(f, t)
    if not is_deflation(leg_t, ex):
        yield "pullback_deflation", payload
    k_mod, k_incl = modules.kernel(f)
    if is_inflation(k_incl, ex):
        q, leg_a, leg_b = carrier_pushout(
            k_incl, samplers.random_morphism(rnd, k_mod, f.source), ex)
        if not is_inflation(leg_b, ex):
            yield "pushout_inflation", payload
    # universal properties of the carrier kernel and cokernel
    g = samplers.random_carrier_morphism(ex, rnd, bounds)
    gk, gk_incl, protocol = d_kernel(g, ex)
    probe = samplers.random_morphism(
        rnd, samplers.random_carrier_module(ex, rnd, bounds), gk)
    j = modules.compose(gk_incl, probe)
    pi, lifted = protocol(j)
    if not modules.morphism_equal(modules.compose(gk_incl, lifted),
                                  modules.compose(j, pi)):
        yield "kernel_cover_protocol", payload
    gc, gc_proj, coprotocol = d_cokernel(g, ex)
    coprobe = modules.compose(
        samplers.random_morphism(rnd, gc,
                                 samplers.random_carrier_module(ex, rnd, bounds)),
        gc_proj)
    iota, descended = coprotocol(coprobe)
    if not modules.morphism_equal(modules.compose(descended, gc_proj),
                                  modules.compose(iota, coprobe)):
        yield "cokernel_cover_protocol", payload


def _freez_max_equals_split(rnd, bounds):
    rows = rnd.randint(1, bounds.max_rank)
    cols = rnd.randint(1, bounds.max_rank)
    f = FpMorphism.from_generator_matrix(
        FpModule.free(Z, cols), FpModule.free(Z, rows),
        samplers.random_matrix(rnd, rows, cols, bounds.max_entry))
    payload = {"morphism": serialize.morphism_to_json(f)}
    if is_deflation(f, FREE_MAX) != is_deflation(f, FREE_SPLIT):
        yield "deflation_predicates_agree", payload
    if is_inflation(f, FREE_MAX) != is_inflation(f, FREE_SPLIT):
        yield "inflation_predicates_agree", payload


def _acyclicity_transfer(rnd, bounds):
    if rnd.random() < 0.5:
        c = samplers.random_exact_free_complex(rnd, bounds)
    else:
        c = samplers.random_free_complex(rnd, bounds)
    payload = {"complex": serialize.complex_to_json(c)}
    exact = is_exact(c)
    contractible = is_contractible(c) is not None
    split_acyclic = bool(is_acyclic_wrt(c, FREE_SPLIT))
    if not (exact == contractible == split_acyclic):
        yield "three_procedures_agree", payload


# -- t-structures --------------------------------------------------------------------

def _heart_identification(rnd, bounds):
    m = samplers.random_module(rnd, bounds)
    payload = {"module": serialize.module_to_json(m)}
    h = module_to_left_heart(LEFT, m)
    if not heart_membership(LEFT, h.representative):
        yield "representative_in_heart", payload
    back = left_heart_to_module(LEFT, h.representative)
    if not back.is_isomorphic(m):
        yield "round_trip_invariants", payload
    # morphism sets: group isomorphism plus full and faithful transport
    n = samplers.random_module(rnd, bounds)
    hn = module_to_left_heart(LEFT, n)
    mr = modules.reduce_presentation(m)
    nr = modules.reduce_presentation(n)
    hom = modules.hom_group(mr, nr)
    chain_homs = derived_hom(h.representative, hn.representative, 0)
    if not chain_homs.is_isomorphic(hom.module):
        yield "hom_group_isomorphism", payload
    for j in range(hom.module.generators):
        psi = hom.generator(j)
        lifted = module_map_to_left_heart_map(psi, h.representative,
                                              hn.representative)
        if not modules.morphism_equal(left_heart_map_to_module_map(lifted), psi):
            yield "fullness_round_trip", payload
            break
        null = is_nullhomotopic(lifted)
        psi_zero = modules.is_zero_morphism(psi)
        if (null is not None) != psi_zero:
            yield "faithfulness", payload
            break


def _heart_intersection(rnd, bounds):
    c, rank = samplers.random_disguised_free_stalk(rnd, bounds)
    payload = {"complex": serialize.complex_to_json(c), "rank": rank}
    if not (heart_membership(LEFT, c) and heart_membership(RIGHT, c)):
        yield "disguised_stalk_membership", payload
    else:
        nf = intersection_normal_form(RIGHT, LEFT, c)
        if nf is None or nf.invariant_data() != (rank, ()):
            yield "normal_form_recovers_rank", payload
    stalk = free_complex(Z, 0, [], first_rank=rnd.randint(0, bounds.max_rank))
    if not (heart_membership(LEFT, stalk) and heart_membership(RIGHT, stalk)):
        yield "free_stalk_membership", payload
    f_rank = rnd.randint(0, bounds.max_rank)
    f_stalk = free_complex(Z, 0, [], first_rank=f_rank)
    z_stalk = free_complex(Z, 0, [], first_rank=1)
    if not derived_hom(f_stalk, z_stalk, 1).is_zero_module():
        yield "no_first_extensions", payload


def _hrs_star_consistency(rnd, bounds):
    x = samplers.random_fp_complex(rnd, bounds)
    payload = {"complex": serialize.complex_to_json(x)}
    star = star_membership(x, ClassTag.TORSION, 1) is not None
    tilted = in_aisle(HRS, 0, x)
    if star != tilted:
        yield "star_agrees_with_tilt", payload
    # a heart object of the tilt and its torsion-pair decomposition
    h = t_cohomology(HRS, 0, x)
    if not heart_membership(HRS, h):
        yield "t_cohomology_in_heart", {"complex": serialize.complex_to_json(h)}
        return
    hm1 = cohomology(h, -1)
    h0 = cohomology(h, 0)
    if not (hm1.is_free() and h0.is_torsion()):
        yield "tilted_pair_classes", payload
    a, counit = truncate_le(NATURAL, -1, h)
    b, unit = truncate_ge(NATURAL, 0, h)
    if not triangle_is_distinguished(counit, unit, "derived"):
        yield "tilted_pair_sequence", payload
    if not derived_hom(free_resolution(a), free_resolution(b), 0).is_zero_module():
        yield "tilted_pair_orthogonality", payload


def _star_trivial_class(rnd, bounds):
    x = samplers.random_fp_complex(rnd, bounds)
    payload = {"complex": serialize.complex_to_json(x)}
    aisle = all(cohomology(x, j).is_zero_module() for j in range(1, x.hi + 1))
    dec = star_membership(x, ClassTag.ALL_FP, 2)
    if aisle != (dec is not None):
        yield "membership_criterion", payload
    if dec is not None:
        for tri in dec.triangles:
            if not triangle_is_distinguished(tri.sub_map, tri.quot_map, "derived"):
                yield "peeling_triangles", payload
                break


# -- effaceable functors -----------------------------------------------------------

def _random_effaceable(ex, rnd, bounds) -> FreydObject:
    return FreydObject(ex, samplers.random_carrier_deflation(ex, rnd, bounds))


def _freyd_pointwise_exactness(rnd, bounds):
    ex = FP_MAX
    probes = [FpModule.free(Z, 1), FpModule.free(Z, 2), FpModule.cyclic(Z, 4)]
    t = _random_effaceable(ex, rnd, bounds)
    extra_src = samplers.random_module(rnd, bounds)
    extra = samplers.random_morphism(rnd, extra_src, t.generators)
    rel_parts = [t.relations, extra_src]
    rel_sum, rel_inj, _ = modules.direct_sum(rel_parts)
    bigger = modules.block_morphism(rel_sum, t.generators, rel_parts, [t.generators],
                                    {(0, 0): t.carrier, (0, 1): extra})
    quotient = FreydObject(ex, bigger)
    pi = FreydMorphism(t, quotient, FpMorphism.identity(t.generators), rel_inj[0])
    sub, incl = freyd_kernel(pi)
    payload = {"carrier": serialize.morphism_to_json(t.carrier)}
    for probe in probes:
        ev_t = evaluate(t, probe)
        ev_q = evaluate(quotient, probe)
        ev_s = evaluate(sub, probe)
        incl_map = evaluate_map(incl, probe, ev_s, ev_t)
        pi_map = evaluate_map(pi, probe, ev_t, ev_q)
        if not modules.is_mono(incl_map):
            yield "pointwise_mono", payload
            return
        if not modules.is_epi(pi_map):
            yield "pointwise_epi", payload
            return
        if not modules.is_zero_morphism(modules.compose(pi_map, incl_map)):
            yield "pointwise_composite", payload
            return
        k_mod, k_incl = modules.kernel(pi_map)
        if modules.factor(k_incl, incl_map) is None \
                or modules.factor(incl_map, k_incl) is None:
            yield "pointwise_exactness", payload
            return


def _auslander_formula(rnd, bounds):
    ex = FREE_SPLIT if rnd.random() < 0.5 else FP_MAX
    # kernel of the projection
    if ex.carrier is Carrier.FREE_Z:
        rows = rnd.randint(1, bounds.max_rank)
        cols = rnd.randint(0, bounds.max_rank)
        f = FreydObject.from_presentation_matrix(
            ex, samplers.random_matrix(rnd, rows, cols, bounds.max_entry))
    else:
        src = samplers.random_module(rnd, bounds)
        tgt = samplers.random_module(rnd, bounds)
        f = FreydObject(ex, samplers.random_morphism(rnd, src, tgt))
    payload = {"carrier": serialize.morphism_to_json(f.carrier)}
    if auslander_project(f).is_zero_module() != is_effaceable(f):
        yield "kernel_of_projection", payload
    # effaceability is presentation independent: disguise by isomorphisms
    if f.ex.carrier is Carrier.FREE_Z:
        u = samplers.random_unimodular(rnd, f.carrier.target.generators)
        v = samplers.random_unimodular(rnd, f.carrier.source.generators)
        disguised = FreydObject.from_presentation_matrix(
            f.ex, u * f.carrier.gen * v)
        if is_effaceable(disguised) != is_effaceable(f):
            yield "presentation_independence", payload
    # essential surjectivity via the module's own presentation
    m = samplers.random_module(rnd, bounds)
    pres = FreydObject.from_presentation_matrix(
        FREE_SPLIT, modules.reduce_presentation(m).presentation)
    if not auslander_project(pres).is_isomorphic(m):
        yield "essential_surjectivity", {"module": serialize.module_to_json(m)}
    # fullness: a module morphism lifts through presentations
    n = samplers.random_module(rnd, bounds)
    pres_n = FreydObject.from_presentation_matrix(
        FREE_SPLIT, modules.reduce_presentation(n).presentation)
    hom = modules.hom_group(modules.reduce_presentation(m),
                            modules.reduce_presentation(n))
    if hom.module.generators:
        psi = hom.element([rnd.randint(-2, 2)
                           for _ in range(hom.module.generators)])
    else:
        psi = FpMorphism.zero(modules.reduce_presentation(m),
                              modules.reduce_presentation(n))
    lift_gen = FpMorphism.from_generator_matrix(
        pres.generators, pres_n.generators, psi.gen)
    eta = FreydMorphism.from_generator(pres, pres_n, lift_gen)
    frac = Fraction.from_morphism(eta)
    if not modules.morphism_equal(project_fraction(frac), psi):
        yield "fullness", {"module": serialize.module_to_json(m)}
    # faithfulness: projection vanishing iff factoring through effaceables
    if modules.is_zero_morphism(project_morphism(eta)) \
            != factors_through_effaceable(eta):
        yield "faithfulness", payload
    # fraction calculus: composite projections compose
    eff = FreydObject.from_presentation_matrix(
        FREE_SPLIT, IntMatrix.identity(Z, rnd.randint(1, 2)))
    a = refine_fraction(Fraction.from_morphism(FreydMorphism.identity(pres)), eff)
    b = Fraction.from_morphism(FreydMorphism.identity(pres))
    comp = fraction_compose(b, a)
    lhs = project_fraction(comp)
    rhs = modules.compose(project_fraction(b), project_fraction(a))
    if not modules.morphism_equal(lhs, rhs):
        yield "fraction_functoriality", payload


def _right_filtering(rnd, bounds):
    ex = FP_MAX
    a = _random_effaceable(ex, rnd, bounds)
    src_mod = samplers.random_module(rnd, bounds)
    rel_mod = samplers.random_module(rnd, bounds)
    u = FreydObject(ex, samplers.random_morphism(rnd, rel_mod, src_mod))
    gen = samplers.random_morphism(rnd, u.generators, a.generators)
    try:
        eta = FreydMorphism.from_generator(u, a, gen)
    except ValueError:
        return
    pi, g, mid = right_filter_factor(eta)
    payload = {"carrier": serialize.morphism_to_json(u.carrier)}
    if not is_effaceable(mid):
        yield "intermediate_effaceable", payload
    if not freyd_equal(freyd_compose(g, pi), eta):
        yield "factorisation_identity", payload
    c, _ = freyd_cokernel(pi)
    if not c.is_zero_functor():
        yield "factor_pointwise_epi", payload


# -- compositions of checker reports ----------------------------------------------------

def _tilting_class_laws(budget, seed, bounds):
    report = tilting_class_check(ClassTag.ALL_FP, 1, budget, seed, bounds)
    dual = tilting_class_check(ClassTag.FREE, 1, budget, seed, bounds,
                               mode="cotilting")
    report.failures += dual.failures
    report.samples += dual.samples
    return report


def _expect_failure(sub: CheckReport, expected: str | None = None) -> CheckReport:
    """A control's report from its sub-check's: ``vacuous_checker`` unless the
    sub-check failed ``expected`` (any check when None).  The sub-check's
    crashes are kept and never count as the expected failure."""
    crashes = [f for f in sub.failures if f.check == "crash"]
    if not any(f.check != "crash" and expected in (None, f.check)
               for f in sub.failures):
        crashes.append(CheckFailure(0, "vacuous_checker"))
    sub.failures = crashes
    return sub


def _corrupted_detected(budget, seed, bounds):
    return _expect_failure(check_tstructure_axioms(CORRUPTED, budget, seed, bounds))


def _cogeneration_control(budget, seed, bounds):
    sub = tilting_class_check(ClassTag.FREE, 1, budget, seed, bounds)
    report = _expect_failure(sub, "cogeneration")
    z2 = FpModule.cyclic(Z, 2)
    if cogeneration_witness(ClassTag.FREE, z2) is not None:
        report.record(0, "witness_embedded_into_free")
    if not modules.hom_group(z2, FpModule.free(Z, 2)).module.is_zero_module():
        report.record(0, "witness_hom_group_nonzero")
    return report


# -- registry ---------------------------------------------------------------------------

def _sampled(sample: Sample, *labels) -> Check:
    """A check running ``sample`` through the driver; ``_suite`` names it."""
    def check(budget, seed, bounds):
        return run_samples(budget, seed, labels, sample, bounds)

    return check


def _suite(name: str, law: str, check: Check, negative_control: bool = False) -> SuiteDef:
    """The registry entry: the report carries the registry key, the law, and
    the wall time of the whole check."""
    def run(budget: int, seed: int, bounds: SizeBounds) -> CheckReport:
        start = time.perf_counter()
        report = check(budget, seed, bounds)
        report.name, report.law = name, law
        report.wall_time = time.perf_counter() - start
        return report

    return SuiteDef(name, law, run, negative_control)


def build_registry() -> dict[str, SuiteDef]:
    tstructure_law = "aisle shift closure, orthogonality, approximating triangles"
    serre_law = "effaceables form a Serre subcategory on this carrier"
    defs = [
        _suite("snf_identities",
               "U*M*V = D with a divisibility chain and unimodular transforms",
               _sampled(_snf_identities, "snf")),
        _suite("snf_polynomials",
               "normal-form identities over exact rational polynomials",
               _sampled(_snf_polynomials, "snf-poly")),
        _suite("solve_kernel_duality",
               "exact solving and kernel lattices agree in both directions",
               _sampled(_solve_kernel_duality, "solve")),
        _suite("fp_universal_properties",
               "kernel and cokernel universal properties with uniqueness",
               _sampled(_fp_universal_properties, "fpuniv")),
        _suite("torsion_pair_axioms",
               "finite/free orthogonality and exact decomposition sequences",
               _sampled(_torsion_pair, "torsion")),
        _suite("global_dimension",
               "resolutions stop at length one; right window inside left aisle",
               _sampled(_global_dimension, "gldim")),
        _suite("exact_structure_axioms",
               "deflation composition and pullback stability on the carrier",
               _sampled(_exact_structure_axioms, "exax", FP_MAX.config_string())),
        _suite("freez_max_equals_split",
               "maximal equals split on free abelian groups",
               _sampled(_freez_max_equals_split, "maxsplit")),
        _suite("acyclicity_transfer",
               "exactness, contractibility, split acyclicity coincide",
               _sampled(_acyclicity_transfer, "acyclic")),
        _suite("heart_identification",
               "left heart is the module category, fully faithfully",
               _sampled(_heart_identification, "heart-id")),
        _suite("heart_intersection",
               "both hearts meet exactly in the free stalks",
               _sampled(_heart_intersection, "intersection")),
        _suite("hrs_star_consistency",
               "one-step star equals the tilted aisle; hearts decompose",
               _sampled(_hrs_star_consistency, "hrs-star")),
        _suite("star_trivial_class",
               "two-step star decomposition over the trivial class",
               _sampled(_star_trivial_class, "star2")),
        _suite("freyd_pointwise_exactness",
               "functor conflations are pointwise short exact",
               _sampled(_freyd_pointwise_exactness, "pointwise")),
        _suite("auslander_formula",
               "the cokernel projection kills exactly the effaceables and is "
               "an equivalence onto the modules",
               _sampled(_auslander_formula, "auslander")),
        _suite("right_filtering",
               "maps into effaceables factor through effaceable quotients",
               _sampled(_right_filtering, "filter")),
        _suite("tilting_class_laws",
               "trivial class tilts; free class cotilts",
               _tilting_class_laws),
        _suite("cogeneration_negative_control",
               "free-class cogeneration fails with a torsion witness",
               _cogeneration_control),
        _suite("corrupted_tstructure_detected",
               "the corrupted control is detected",
               _corrupted_detected),
        _suite("negative_corrupted_tstructure",
               "designed-to-fail corrupted truncation",
               partial(check_tstructure_axioms, CORRUPTED),
               negative_control=True),
        _suite("tstructure_axioms_natural", tstructure_law,
               partial(check_tstructure_axioms, NATURAL)),
        _suite("tstructure_axioms_left", tstructure_law,
               partial(check_tstructure_axioms, LEFT)),
        _suite("tstructure_axioms_right", tstructure_law,
               partial(check_tstructure_axioms, RIGHT)),
        _suite("tstructure_axioms_hrs", tstructure_law,
               partial(check_tstructure_axioms, HRS)),
        _suite("serre_effaceable_freez", serre_law,
               partial(serre_closure_check, FREE_SPLIT)),
        _suite("serre_effaceable_fpz", serre_law,
               partial(serre_closure_check, FP_MAX)),
        _suite("serre_effaceable_torsion", serre_law,
               partial(serre_closure_check, TOR_INH)),
    ]
    return {d.name: d for d in defs}


REGISTRY = build_registry()


def default_suite_names() -> list[str]:
    return sorted(name for name, d in REGISTRY.items() if not d.negative_control)
