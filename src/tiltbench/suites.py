"""Named property suites over all modules, with a one-to-one law registry.

Every sampled suite is a sample function in this module, run by
``reports.run_samples``: it gets the sample's generator, derived from
(seed, suite label, index), and yields a (check, payload) pair with a
serialised counterexample for each failed check.  A run is thus
reproducible regardless of scheduling; the algebra modules import no
sampler, serialiser or report.  The registry holds the one statement of
the law a suite checks; the verifier prints it in the report header.

Two suites are negative controls: one is designed to fail (a deliberately
corrupted truncation) and one asserts that the cogeneration check on the
free class correctly rejects torsion witnesses.  Each control also checks a
fixed instance known to expose its defect, so a clean pass of both its
sampled and its fixed part indicates a vacuous checker.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable

from . import matrices, modules, samplers, serialize
from .complexes import (
    Complex,
    cohomology,
    derived_hom,
    free_complex,
    free_resolution,
    is_contractible,
    is_exact,
    is_nullhomotopic,
    stalk_complex,
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
    adjoin_relations,
    auslander_project,
    evaluate,
    evaluate_map,
    factors_through_effaceable,
    fraction_compose,
    freyd_compose,
    freyd_equal,
    freyd_kernel,
    is_effaceable,
    pointwise_epi,
    project_fraction,
    project_morphism,
    refine_fraction,
    right_filter_factor,
)
from .matrices import IntMatrix, is_unimodular, kernel_matrix, smith_normal_form, solve_lift
from .modules import FpModule, FpMorphism
from .reports import CheckFailure, CheckReport, Sample, run_samples
from .rings import QPoly, RingSpec, divides
from .samplers import SizeBounds
from .tstructures import (
    CORRUPTED,
    HRS,
    LEFT,
    NATURAL,
    RIGHT,
    ClassTag,
    TStructureSpec,
    approximating_triangle,
    cogeneration_witness,
    heart_membership,
    in_aisle,
    in_coaisle,
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
QX = RingSpec.RATIONAL_POLYNOMIALS

FREE_SPLIT = ExactStructure(Carrier.FREE_Z, Flavor.SPLIT)
FREE_MAX = ExactStructure(Carrier.FREE_Z, Flavor.MAXIMAL)
FP_MAX = ExactStructure(Carrier.FP_Z, Flavor.MAXIMAL)
TOR_INH = ExactStructure(Carrier.TORSION_Z, Flavor.INHERITED)

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
    # the payload is serialised only on failure, so passing samples pay nothing
    if u * m * v != d:
        yield "transform_identity", {"matrix": serialize.matrix_to_json(m)}
    if not (is_unimodular(u) and is_unimodular(v)):
        yield "unimodular_transforms", {"matrix": serialize.matrix_to_json(m)}
    diag = [d.at(j, j) for j in range(min(rows, cols))]
    if any(not divides(QX, a, b) for a, b in zip(diag, diag[1:])):
        yield "divisibility_chain", {"matrix": serialize.matrix_to_json(m)}


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
        form = smith_normal_form(a)
        u, d = form.u, form.d
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
    incl = modules.kernel(f)
    if not modules.is_mono(incl):
        yield "kernel_monic", payload
    if not modules.composite_is_zero(f, incl):
        yield "kernel_killed", payload
    test = samplers.random_module(rnd, bounds)
    h = samplers.random_morphism(rnd, test, incl.source)
    g = modules.compose(incl, h)
    back = modules.factor(g, incl)
    if back is None or not modules.morphism_equal(
            modules.compose(incl, back), g):
        yield "kernel_factorisation_exists", payload
    elif not modules.morphism_equal(back, h):
        yield "kernel_factorisation_unique", payload
    proj = modules.cokernel(f)
    if not modules.is_epi(proj):
        yield "cokernel_epi", payload
    if not modules.composite_is_zero(proj, f):
        yield "cokernel_killed", payload
    h2 = samplers.random_morphism(rnd, proj.target, samplers.random_module(rnd, bounds))
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
    incl, proj = modules.torsion_decompose(m)
    payload = {"module": serialize.module_to_json(m)}
    n_proj = modules.torsion_decompose(n)[1]
    if not modules.hom_group(incl.source, n_proj.target).module.is_zero_module():
        yield "orthogonality", payload
    if not modules.is_mono(incl) or not modules.is_epi(proj):
        yield "sequence_ends", payload
    if not modules.composite_is_zero(proj, incl) \
            or not modules.in_image(incl, modules.kernel_generators(proj)):
        yield "exactness", payload
    if not modules.torsion_decompose(incl.source)[0].source.is_isomorphic(incl.source):
        yield "idempotence", payload


def _global_dimension(rnd, bounds):
    m = samplers.random_module(rnd, bounds)
    payload = {"module": serialize.module_to_json(m)}
    res = modules.projective_resolution(m)
    if len(res) > 1:
        yield "resolution_length", payload
    if res and kernel_matrix(res[0]).cols != 0:
        yield "resolution_exactness", payload
    if res and not FpModule(res[0]).is_isomorphic(m):
        yield "resolution_cokernel", payload
    x = samplers.random_free_complex(rnd, bounds)
    if not in_aisle(LEFT, 0, truncate_le(RIGHT, -1, x).source):
        yield "right_window_in_left_aisle", {"complex": serialize.complex_to_json(x)}
    if not in_aisle(RIGHT, 0, truncate_le(LEFT, 0, x).source):
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
    h = modules.corestrict_to_image(follow)[0]
    if is_deflation(h, ex) and not is_deflation(modules.compose(h, f), ex):
        yield "composition_of_deflations", payload
    t = samplers.random_morphism(
        rnd, samplers.random_carrier_module(ex, rnd, bounds), f.target)
    # every carrier is closed under submodules, so the module pullback is in it
    leg_t = modules.pullback(f, t)[1]
    if not is_deflation(leg_t, ex):
        yield "pullback_deflation", payload
    k_incl = modules.kernel(f)
    if is_inflation(k_incl, ex):
        leg_b = carrier_pushout(
            k_incl, samplers.random_morphism(rnd, k_incl.source, f.source), ex)[1]
        if not is_inflation(leg_b, ex):
            yield "pushout_inflation", payload
    # universal properties of the carrier kernel and cokernel
    g = samplers.random_carrier_morphism(ex, rnd, bounds)
    gk_incl, protocol = d_kernel(g, ex)
    probe = samplers.random_morphism(
        rnd, samplers.random_carrier_module(ex, rnd, bounds), gk_incl.source)
    j = modules.compose(gk_incl, probe)
    pi, lifted = protocol(j)
    if not modules.morphism_equal(modules.compose(gk_incl, lifted),
                                  modules.compose(j, pi)):
        yield "kernel_cover_protocol", payload
    gc_proj, coprotocol = d_cokernel(g, ex)
    coprobe = modules.compose(
        samplers.random_morphism(rnd, gc_proj.target,
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
    split_acyclic = is_acyclic_wrt(c, FREE_SPLIT) is not None
    if not (exact == contractible == split_acyclic):
        yield "three_procedures_agree", payload


# -- t-structures --------------------------------------------------------------------

def _heart_identification(rnd, bounds):
    m = samplers.random_module(rnd, bounds)
    payload = {"module": serialize.module_to_json(m)}
    h = module_to_left_heart(m)
    if not heart_membership(LEFT, h):
        yield "representative_in_heart", payload
    back = left_heart_to_module(h)
    if not back.is_isomorphic(m):
        yield "round_trip_invariants", payload
    # morphism sets: group isomorphism plus full and faithful transport
    n = samplers.random_module(rnd, bounds)
    hn = module_to_left_heart(n)
    mr = modules.reduce_presentation(m)
    nr = modules.reduce_presentation(n)
    hom = modules.hom_group(mr, nr)
    chain_homs = derived_hom(h, hn, 0)
    if not chain_homs.is_isomorphic(hom.module):
        yield "hom_group_isomorphism", payload
    for j in range(hom.generators):
        psi = hom.generator(j)
        lifted = module_map_to_left_heart_map(psi, h, hn)
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
    # the normal form decides both hearts; they are asked again only to name a miss
    nf = intersection_normal_form(c)
    if nf is None and not (heart_membership(LEFT, c) and heart_membership(RIGHT, c)):
        yield "disguised_stalk_membership", payload
    elif nf is None or nf.invariant_data() != (rank, ()):
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
    counit, unit = truncate_le(NATURAL, -1, h), truncate_ge(NATURAL, 0, h)
    if not triangle_is_distinguished(counit, unit):
        yield "tilted_pair_sequence", payload
    a, b = free_resolution(counit.source), free_resolution(unit.target)
    if not derived_hom(a, b, 0).is_zero_module():
        yield "tilted_pair_orthogonality", payload


def _star_trivial_class(rnd, bounds):
    x = samplers.random_fp_complex(rnd, bounds)
    payload = {"complex": serialize.complex_to_json(x)}
    dec = star_membership(x, ClassTag.ALL_FP, 2)
    if in_aisle(NATURAL, 0, x) != (dec is not None):
        yield "membership_criterion", payload
    if dec is not None:
        for tri in dec.triangles:
            if not triangle_is_distinguished(*tri):
                yield "peeling_triangles", payload
                break


def _sample_for(spec: TStructureSpec, rnd, bounds: SizeBounds) -> Complex:
    if spec.acts_on_free_complexes:
        return samplers.random_free_complex(rnd, bounds)
    return samplers.random_fp_complex(rnd, bounds)


def _axiom_sample(spec: TStructureSpec, rnd, bounds: SizeBounds):
    x = _sample_for(spec, rnd, bounds)
    x2 = _sample_for(spec, rnd, bounds)
    yield from _aisle_axioms(spec, x, x2)


def _aisle_axioms(spec: TStructureSpec, x: Complex, x2: Complex):
    """The aisle axioms on x and x2: shift closure, orthogonal truncation
    pieces (their hom group in the localized category vanishes), and a
    distinguished approximating triangle with parts in the right classes."""
    counit, unit = approximating_triangle(spec, x)
    a = counit.source
    b = truncate_ge(spec, 1, x2).target
    payload = {"sample": serialize.complex_to_json(x),
               "second": serialize.complex_to_json(x2)}
    if not in_aisle(spec, 0, a):
        yield "aisle_membership_of_truncation", payload
    if not in_aisle(spec, 0, a.shift(1)):
        yield "aisle_shift_closure", payload
    hom0 = derived_hom(free_resolution(a), free_resolution(b), 0)
    if not hom0.is_zero_module():
        yield "orthogonality", payload
    if not triangle_is_distinguished(counit, unit):
        yield "approximating_triangle", payload
    if not in_coaisle(spec, 1, unit.target):
        yield "coaisle_membership_of_truncation", payload


# -- tilting classes -----------------------------------------------------------------

def _class_contains(tag: ClassTag, m: FpModule) -> bool:
    if tag is ClassTag.ALL_FP:
        return True
    if tag is ClassTag.TORSION:
        return m.is_torsion()
    return m.is_free()


def _sample_class_module(tag: ClassTag, rnd, bounds: SizeBounds) -> FpModule:
    if tag is ClassTag.ALL_FP:
        return samplers.random_module(rnd, bounds)
    if tag is ClassTag.TORSION:
        return samplers.random_torsion_module(rnd, bounds)
    return samplers.random_free_module(rnd, bounds)


def _tilting_sample(class_tag: ClassTag, mode: str, rnd, bounds: SizeBounds):
    """The 1-tilting class conditions: cogeneration, extension closure,
    kernels and the cokernel condition; in the cotilting-dual mode,
    generation, extension closure and closure under subobjects."""
    sample = samplers.random_module(rnd, bounds)
    payload = {"module": serialize.module_to_json(sample)}
    if mode == "tilting":
        if cogeneration_witness(class_tag, sample) is None:
            yield "cogeneration", payload
    else:
        # generation: the canonical cover from the generators must be an
        # epimorphism from a class object
        cover = FpModule.free(Z, sample.generators)
        epi = FpMorphism.from_generator_matrix(
            cover, sample, IntMatrix.identity(Z, sample.generators))
        if not modules.is_epi(epi) or not _class_contains(class_tag, cover):
            yield "generation", payload
    # extension closure: reduced presentations make every block honest
    s_mod = _sample_class_module(class_tag, rnd, bounds)
    q_mod = _sample_class_module(class_tag, rnd, bounds)
    s_red = modules.reduce_presentation(s_mod)
    q_red = modules.reduce_presentation(q_mod)
    delta = samplers.random_matrix(rnd, s_red.generators, q_red.relations,
                                   bounds.max_entry)
    middle = FpModule(matrices.block_matrix(
        Z, [s_red.generators, q_red.generators], [s_red.relations, q_red.relations],
        {(0, 0): s_red.presentation, (0, 1): delta, (1, 1): q_red.presentation}))
    if not _class_contains(class_tag, middle):
        yield "extension_closure", {"middle": serialize.module_to_json(middle)}
    if mode == "tilting":
        # kernels inside the class
        src = _sample_class_module(class_tag, rnd, bounds)
        tgt = _sample_class_module(class_tag, rnd, bounds)
        f = samplers.random_morphism(rnd, src, tgt)
        k = modules.kernel(f).source
        if not _class_contains(class_tag, k):
            yield "kernel_closure", {"kernel": serialize.module_to_json(k)}
        # cokernel condition
        host = _sample_class_module(class_tag, rnd, bounds)
        g = samplers.random_morphism(rnd, samplers.random_module(rnd, bounds), host)
        c = modules.cokernel(g).target  # host modulo im g
        if not _class_contains(class_tag, c):
            yield "cokernel_condition", {"quotient": serialize.module_to_json(c)}
    else:
        # dual: closure under subobjects
        host = _sample_class_module(class_tag, rnd, bounds)
        g = samplers.random_morphism(rnd, samplers.random_module(rnd, bounds), host)
        sub = modules.span_quotient(g.gen, g.target.presentation)[0]  # im g
        if not _class_contains(class_tag, sub):
            yield "subobject_closure", {"subobject": serialize.module_to_json(sub)}


# -- effaceable functors -----------------------------------------------------------

def _random_effaceable(ex, rnd, bounds) -> FreydObject:
    return FreydObject(ex, samplers.random_carrier_deflation(ex, rnd, bounds))


def _freyd_pointwise_exactness(rnd, bounds):
    ex = FP_MAX
    probes = [FpModule.free(Z, 1), FpModule.free(Z, 2), FpModule.cyclic(Z, 4)]
    t = _random_effaceable(ex, rnd, bounds)
    extra_src = samplers.random_module(rnd, bounds)
    extra = samplers.random_morphism(rnd, extra_src, t.generators)
    bigger, rel_inj = adjoin_relations(t, extra)
    quotient = FreydObject(ex, bigger)
    pi = FreydMorphism(t, quotient, FpMorphism.identity(t.generators), rel_inj)
    incl = freyd_kernel(pi)
    payload = {"carrier": serialize.morphism_to_json(t.carrier)}
    for probe in probes:
        # quotient has t's generator module, so both values read one hom group
        ev_t = evaluate(t, probe, modules.hom_group(probe, t.generators))
        ev_q = evaluate(quotient, probe, ev_t[1])
        ev_s = evaluate(incl.source, probe)
        incl_map = evaluate_map(incl, ev_s, ev_t)
        pi_map = evaluate_map(pi, ev_t, ev_q)
        if not modules.is_mono(incl_map):
            yield "pointwise_mono", payload
            return
        if not modules.is_epi(pi_map):
            yield "pointwise_epi", payload
            return
        if not modules.composite_is_zero(pi_map, incl_map):
            yield "pointwise_composite", payload
            return
        if not modules.in_image(incl_map, modules.kernel_generators(pi_map)):
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
    if hom.generators:
        psi = hom.element([rnd.randint(-2, 2)
                           for _ in range(hom.generators)])
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
    if not pointwise_epi(pi):
        yield "factor_pointwise_epi", payload


# gluing candidates draw their entries from [-2, 2] whatever the suite's
# entry bound: on FREE_Z that is the coordinate range of the hom-group
# element drawn on the other carriers
GLUING_BOUNDS = SizeBounds(max_entry=2)


def extension_middle(ex: ExactStructure, rnd, t1: FreydObject, t2: FreydObject) -> FreydObject:
    """An honest extension of t2 by t1: a block carrier with a gluing map.

    The gluing must send the kernel of t2's presenting map into the image
    of t1's, otherwise the block fails to be an extension; random
    candidates are retried and the split gluing is the fallback.
    """
    q1, q2 = t1.carrier, t2.carrier
    kappa2 = modules.kernel(q2)
    delta = None
    for _ in range(4):
        cand = samplers.random_carrier_map(ex, rnd, GLUING_BOUNDS, t2.relations, t1.generators)
        if modules.factor(modules.compose(cand, kappa2), q1) is not None:
            delta = cand
            break
    if delta is None:
        alpha = samplers.random_morphism(rnd, t2.relations, t1.relations, bound=1)
        delta = modules.compose(q1, alpha)
    src_parts, tgt_parts = [t1.relations, t2.relations], [t1.generators, t2.generators]
    block = modules.block_morphism(modules.direct_sum(src_parts), modules.direct_sum(tgt_parts),
                                   src_parts, tgt_parts,
                                   {(0, 0): q1, (0, 1): delta, (1, 1): q2})
    return FreydObject(ex, block)


def _serre_sample(ex: ExactStructure, rnd, bounds):
    """Closure of the effaceables under admissible quotients, admissible
    subobjects and extensions."""
    t = _random_effaceable(ex, rnd, bounds)
    payload = {"carrier": serialize.morphism_to_json(t.carrier)}
    extra_src = samplers.random_carrier_module(ex, rnd, bounds)
    extra = samplers.random_carrier_map(ex, rnd, bounds, extra_src, t.generators)
    bigger, rel_inj = adjoin_relations(t, extra)
    quotient = FreydObject(ex, bigger)
    if not is_effaceable(quotient):
        yield "quotient_closure", payload
    pi = FreydMorphism(t, quotient, FpMorphism.identity(t.generators), rel_inj)
    if not is_effaceable(freyd_kernel(pi).source):
        yield "subobject_closure", payload
    t1 = _random_effaceable(ex, rnd, bounds)
    t2 = _random_effaceable(ex, rnd, bounds)
    middle = extension_middle(ex, rnd, t1, t2)
    if not is_effaceable(middle):
        yield "extension_closure", payload


# -- checks: sample functions through the driver, and their compositions ---------------

def _sampled(sample: Sample, *labels) -> Check:
    """A check running ``sample`` through the driver; ``_suite`` names it."""
    def check(budget, seed, bounds):
        return run_samples(budget, seed, labels, sample, bounds)

    return check


def _axioms(spec: TStructureSpec) -> Check:
    return _sampled(partial(_axiom_sample, spec), "axiom", spec.config_string())


def _tilting(tag: ClassTag, mode: str) -> Check:
    # the 1 is the tilting index; it stays in the labels, which seed the samples
    return _sampled(partial(_tilting_sample, tag, mode), "tilting", tag.value, 1, mode)


def _serre(ex: ExactStructure) -> Check:
    return _sampled(partial(_serre_sample, ex), "serre", ex.config_string())


def _tilting_class_laws(budget, seed, bounds):
    report = _tilting(ClassTag.ALL_FP, "tilting")(budget, seed, bounds)
    dual = _tilting(ClassTag.FREE, "cotilting")(budget, seed, bounds)
    report.failures += dual.failures
    report.samples += dual.samples
    return report


def _expect_failure(sub: CheckReport, fixed: Iterable[tuple[str, dict]],
                    expected: str | None = None) -> CheckReport:
    """A control's report from its sampled sub-check and from ``fixed``, the
    failures of an instance known to expose the defect.  Detection is a
    failure ``expected`` (any but a crash when None) in either; without one
    the report records ``vacuous_checker``.  It keeps every crash, the fixed
    instance's as sample 0, and the fixed instance's other failures."""
    detected = any(f.check != "crash" and expected in (None, f.check)
                   for f in sub.failures)
    kept = [f for f in sub.failures if f.check == "crash"]
    try:
        for check, payload in fixed:
            if expected in (None, check):
                detected = True
            else:
                kept.append(CheckFailure(0, check, payload))
    except Exception as e:  # like a crashing sample, never a detection
        kept.append(CheckFailure(0, "crash", {"exception": type(e).__name__}))
    if not detected:
        kept.append(CheckFailure(0, "vacuous_checker"))
    sub.failures = kept
    return sub


def _corrupted_detected(budget, seed, bounds):
    # the off-by-one cap puts this whole stalk in both truncations
    stalk = stalk_complex(FpModule.free(Z, 1), 1)
    return _expect_failure(_axioms(CORRUPTED)(budget, seed, bounds),
                           _aisle_axioms(CORRUPTED, stalk, stalk))


def _z2_cogeneration():
    """Z/2 has no embedding into a free group, and no nonzero map to one."""
    z2 = FpModule.cyclic(Z, 2)
    if cogeneration_witness(ClassTag.FREE, z2) is None:
        yield "cogeneration", {}
    else:
        yield "witness_embedded_into_free", {}
    if not modules.hom_group(z2, FpModule.free(Z, 2)).module.is_zero_module():
        yield "witness_hom_group_nonzero", {}


def _cogeneration_control(budget, seed, bounds):
    return _expect_failure(_tilting(ClassTag.FREE, "tilting")(budget, seed, bounds),
                           _z2_cogeneration(), "cogeneration")


# -- registry ---------------------------------------------------------------------------

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
               _axioms(CORRUPTED),
               negative_control=True),
        _suite("tstructure_axioms_natural", tstructure_law, _axioms(NATURAL)),
        _suite("tstructure_axioms_left", tstructure_law, _axioms(LEFT)),
        _suite("tstructure_axioms_right", tstructure_law, _axioms(RIGHT)),
        _suite("tstructure_axioms_hrs", tstructure_law, _axioms(HRS)),
        _suite("serre_effaceable_freez", serre_law, _serre(FREE_SPLIT)),
        _suite("serre_effaceable_fpz", serre_law, _serre(FP_MAX)),
        _suite("serre_effaceable_torsion", serre_law, _serre(TOR_INH)),
    ]
    return {d.name: d for d in defs}


REGISTRY = build_registry()


def default_suite_names() -> list[str]:
    return sorted(name for name, d in REGISTRY.items() if not d.negative_control)
