"""Reference implementations that the verifier no longer runs.

``factor`` and ``cofactor`` below solve one Kronecker-vectorised system on
the reduced presentations of all four modules involved.  ``modules.factor``
and ``modules.cofactor`` pose the descent condition per generator instead;
the tests check that both agree on whether a solution exists, and on the
solution where it is unique.

``total_hom_complex`` builds every differential of the total Hom complex
of two relation-free complexes at once, as one ``Complex``;
``complexes.hom_differential`` builds one of them, the one a caller reads.
``cohomology_map`` is the map induced on cohomology, and
``chain_maps_homotopic`` decides whether two chain maps are homotopic,
on their difference ``sub_chain_maps``, taken component by component with
``sub_morphisms``: f plus the negation of g, two checked morphisms.

``cone`` builds the mapping cone of a chain map as a ``Complex`` of
direct sums with block-morphism differentials; ``complexes.total_is_exact``
decides exactness of a cone, and of the cone of a triangle's comparison
map, on matrices alone.  ``distinguished_by_comparison_cone`` is
``tstructures.triangle_is_distinguished`` as it was before: it builds that
cone, the comparison map cone(A -> X) -> B out of it and that map's cone,
and decides by a contracting homotopy over the free carrier and by
``is_exact`` elsewhere.

``total_is_exact_in_full`` is ``complexes.total_is_exact`` as it was
before it dropped the degrees where the end maps are identities: the
whole total complex laid out, every differential diagonalised or solved.

``torsion_decompose_by_smith_form`` is ``modules.torsion_decompose`` as it
was posed on every module, relation-free ones included: the chained Smith
form, U replayed for the free quotient, U^-1 and V for the inclusion.

``is_zero_morphism`` compares a morphism with the zero morphism built in
full; ``modules.is_zero_morphism`` solves on its generator matrix alone.
``zero_freyd_morphism`` is the zero natural transformation between two
Freyd objects, which only the tests build.

``checked_chain_map`` builds a ``ChainMap`` after checking that its
components run between the entries of its source and target and commute
with the differentials; the verifier builds its chain maps unchecked.

``hom_group_system`` poses the system of ``modules.hom_group`` as it was
posed before its blocks were placed directly: Kronecker products with
identity matrices, for the kernel (vec G, vec W) of G * P_M - P_N * W = 0
and for the span T of the zero morphisms.  ``pushforward_images`` forms the
composites f o G as (I kron f.gen) * vec(G).

``pullback_legs`` builds the legs of ``modules.pullback`` as they were
built before a leg became a row block of the kernel inclusion: the
summand's projection composed with that inclusion.  ``scale`` multiplies a
matrix by a scalar; only the tests need it.

``pullback_by_kernels`` is ``modules.pullback`` as it was posed for every
f, identities included: the kernel of [f.gen | -g.gen | -P_C] cut to
A (+) B, presented modulo the sum's relations, each leg its summand's row
block of the inclusion.  ``modules.pullback`` reads the pullback along an
identity of A off the other map, with no kernel.

``row_accumulating_product`` is ``IntMatrix.__mul__`` as it was before
the product took each entry over a row and a column slice (the integer
sum, then ``QPoly.dot`` over Q[x]): one accumulated output row per row of
the left factor, skipping zero factors on both sides, over either ring.

``v_inv`` is V^-1 of a Smith form, replayed from its column log forward
with each operation inverted; the verifier reads no V^-1.
``reduction_by_full_replays`` builds the isomorphisms of
``FpModule.reduction`` from the four whole transforms U, V^-1, U^-1 and V.
``resolution_by_injective_bases`` is ``modules.projective_resolution`` as
it was built before it returned the reduced presentation itself: a loop
that replaces the relations by an injective column basis, U^-1 * D cut to
the rank, and goes on with its kernel.

``FractionPoly`` is the element type of ``Q[x]`` before ``rings.QPoly``
stored one integer numerator polynomial over one denominator: a tuple of
separately normalised ``Fraction`` coefficients, divided by the schoolbook
long division.  Its ``repr`` prints the ``QPoly(...)`` text so that the two
can be compared directly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from tiltbench import rings
from tiltbench.complexes import (
    ChainMap,
    Complex,
    Homotopy,
    UndecidableConfigurationError,
    cohomology,
    compose_chain_maps,
    is_contractible,
    is_exact,
    is_nullhomotopic,
)
from tiltbench.freyd import FreydMorphism, FreydObject
from tiltbench.matrices import (IntMatrix, SmithForm, block_diag, block_matrix, kernel_matrix,
                                kron, nonzero_diagonal, smith_normal_form, solve_lift, unvec,
                                vec)
from tiltbench.modules import (
    FpModule,
    FpMorphism,
    add_morphisms,
    block_morphism,
    compose,
    direct_sum,
    kernel,
    kernel_generators,
    morphism_equal,
    negate,
    projection,
    reduce_presentation,
    span_quotient,
)


def _solve_morphism(source: FpModule, target: FpModule, left: IntMatrix, right: IntMatrix,
                    g: FpMorphism) -> Optional[FpMorphism]:
    """A morphism h : source -> target with left * H * right = g, or None,
    for the generator matrices of left : target -> Z and right : S -> source.

    The system is posed on the reduced presentations of the four modules,
    with every matrix conjugated by the mutually inverse isomorphisms a and
    b of ``FpModule.reduction``: a solution h' there gives h = b o h' o a,
    and h' exists exactly when h does.  One Kronecker-vectorised system in
    the unknowns vec H, vec T1, vec T2: L * H * R + P_Z * T1 = G, and
    H * P_X = P_Y * T2 so that H descends to the cokernels.
    """
    x, to_x, _ = source.reduction()
    y, _, from_y = target.reduction()
    z, to_z, _ = g.target.reduction()
    _, _, from_s = g.source.reduction()
    lhs = to_z.gen * left * from_y.gen
    rhs = to_x.gen * right * from_s.gen
    g_gen = to_z.gen * g.gen * from_s.gen
    ring = x.ring
    b_x, b_y, a_x = x.generators, y.generators, x.relations
    row_sizes = [g_gen.rows * g_gen.cols, b_y * a_x]
    col_sizes = [b_y * b_x, z.relations * g_gen.cols, y.relations * a_x]
    system = block_matrix(ring, row_sizes, col_sizes, {
        (0, 0): kron(rhs.transpose(), lhs),
        (0, 1): kron(IntMatrix.identity(ring, g_gen.cols), z.presentation),
        (1, 0): kron(x.presentation.transpose(), IntMatrix.identity(ring, b_y)),
        (1, 2): kron(IntMatrix.identity(ring, a_x), -y.presentation),
    })
    sol = solve_lift(system, block_matrix(ring, row_sizes, [1], {(0, 0): vec(g_gen)}))
    if sol is None:
        return None
    h = unvec(sol.take_rows(range(b_y * b_x)), b_y, b_x)
    t2 = unvec(sol.take_rows(range(sum(col_sizes[:2]), sol.rows)), y.relations, a_x)
    return FpMorphism(source, target, from_y.gen * h * to_x.gen,
                      from_y.witness * t2 * to_x.witness)


def factor(g: FpMorphism, through: FpMorphism) -> Optional[FpMorphism]:
    """A morphism h with through o h = g, or None.

    This single exact solve realises both lifting through an epimorphism
    and factoring through a monomorphism (e.g. a kernel inclusion).
    """
    if g.target.presentation != through.target.presentation:
        raise ValueError("factor: targets differ")
    return _solve_morphism(g.source, through.source, through.gen,
                           IntMatrix.identity(g.source.ring, g.gen.cols), g)


def cofactor(g: FpMorphism, through: FpMorphism) -> Optional[FpMorphism]:
    """A morphism h with h o through = g, or None.

    Realises the couniversal property of cokernel projections.
    """
    if g.source.presentation != through.source.presentation:
        raise ValueError("cofactor: sources differ")
    return _solve_morphism(through.target, g.target,
                           IntMatrix.identity(g.source.ring, g.gen.rows), through.gen, g)


def hom_group_system(source: FpModule, target: FpModule) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """(gen_vecs, wit_vecs, T) of Hom(source, target): the kernel of
    [P_M^T kron I | I kron -P_N] cut into its G and W rows, and I kron P_N."""
    ring = source.ring
    b_m, a_m, b_n = source.generators, source.relations, target.generators
    lhs = kron(source.presentation.transpose(), IntMatrix.identity(ring, b_n)).hstack(
        kron(IntMatrix.identity(ring, a_m), -target.presentation))
    sols = kernel_matrix(lhs)
    return (sols.take_rows(range(b_n * b_m)), sols.take_rows(range(b_n * b_m, sols.rows)),
            kron(IntMatrix.identity(ring, b_m), target.presentation))


def pushforward_images(f: FpMorphism, gen_vecs: IntMatrix, b_m: int) -> IntMatrix:
    """vec(f.gen * G) for each column vec(G) of gen_vecs, G with b_m columns."""
    return kron(IntMatrix.identity(f.gen.ring, b_m), f.gen) * gen_vecs


def pullback_legs(f: FpMorphism, g: FpMorphism) -> tuple[FpMorphism, FpMorphism]:
    """The legs of the pullback of f along g, each the projection of the
    direct sum of the sources onto its summand after the kernel inclusion."""
    parts = [f.source, g.source]
    total = direct_sum(parts)
    diff = block_morphism(total, f.target, parts, [f.target], {(0, 0): f, (0, 1): negate(g)})
    incl = kernel(diff)
    return (compose(projection(total, parts, 0), incl),
            compose(projection(total, parts, 1), incl))


def pullback_by_kernels(f: FpMorphism, g: FpMorphism) -> tuple[FpMorphism, FpMorphism]:
    """The two legs of the pullback of f : A -> C along g : B -> C, from the
    kernel of [f.gen | -g.gen | -P_C] whatever f is."""
    if f.target.presentation != g.target.presentation:
        raise ValueError("pullback targets differ")
    a, b = f.source, g.source
    pair = kernel_matrix(f.gen.hstack(-g.gen).hstack(-f.target.presentation))
    incl_gen = pair.take_rows(range(a.generators + b.generators))
    p_mod, wit = span_quotient(incl_gen, block_diag(a.ring, [a.presentation, b.presentation]))
    leg_a = FpMorphism(p_mod, a, incl_gen.take_rows(range(a.generators)),
                       wit.take_rows(range(a.relations)))
    leg_b = FpMorphism(p_mod, b, incl_gen.take_rows(range(a.generators, incl_gen.rows)),
                       wit.take_rows(range(a.relations, wit.rows)))
    return leg_a, leg_b


def row_accumulating_product(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """a * b, each output row a sum of the rows of b scaled by a's entries."""
    n, m = a.cols, b.cols
    zero_row = [rings.zero(a.ring)] * m
    b_rows = [b.entries[k * m:(k + 1) * m] for k in range(n)]
    out = []
    for i in range(a.rows):
        acc = zero_row
        for x, brow in zip(a.entries[i * n:(i + 1) * n], b_rows):
            if x:
                acc = [c + x * y if y else c for c, y in zip(acc, brow)]
        out.extend(acc)
    return IntMatrix(a.ring, a.rows, m, tuple(out))


def scale(m: IntMatrix, c) -> IntMatrix:
    """c * m, entrywise."""
    return IntMatrix(m.ring, m.rows, m.cols, tuple(c * e for e in m.entries))


def v_inv(form: SmithForm) -> IntMatrix:
    """V^-1: the column log replayed forward on the identity's rows, each
    "col i += c * col j" undone as "row j -= c * row i"."""
    w = form._worker
    rows = IntMatrix.identity(w.ring, w.nc).to_rows()
    for i, j, c in w.col_log:
        if c is None:
            rows[i], rows[j] = rows[j], rows[i]
        elif w.add_mul_row is None:
            rows[j] = [x - c * y if y else x for x, y in zip(rows[j], rows[i])]
        else:
            rows[j] = w.add_mul_row(rows[j], -c, rows[i])
    return IntMatrix.from_rows(w.ring, rows, cols=w.nc)


def _chained_diagonal(m: FpModule, form: SmithForm) -> tuple[list, list[int], list[int]]:
    """m's Smith diagonal padded with zeros to one entry per generator, with
    the indices of its torsion and of its zero entries."""
    ring, d = m.ring, form.d
    diag = [d.at(i, i) if i < d.cols else rings.zero(ring) for i in range(m.generators)]
    zero = [i for i, e in enumerate(diag) if rings.is_zero(ring, e)]
    return diag, [i for i, e in enumerate(diag)
                  if i not in zero and not rings.is_unit(ring, e)], zero


def reduction_by_full_replays(m: FpModule) -> tuple[FpMorphism, FpMorphism]:
    """The isomorphisms a = (U[idx, :], V^-1[torsion, :]) and
    b = (U^-1[:, idx], V[:, torsion]) of ``FpModule.reduction``, each
    transform replayed whole, idx the torsion then the free indices."""
    form = smith_normal_form(m.presentation)
    diag, tor_idx, free_idx = _chained_diagonal(m, form)
    idx = tor_idx + free_idx
    canon = FpModule.from_invariants(m.ring, [diag[i] for i in tor_idx], len(free_idx))
    return (FpMorphism(m, canon, form.u.take_rows(idx), v_inv(form).take_rows(tor_idx)),
            FpMorphism(canon, m, form.u_inv().take_columns(idx), form.v.take_columns(tor_idx)))


def torsion_decompose_by_smith_form(m: FpModule) -> tuple[FpMorphism, FpMorphism]:
    """(incl, proj) of ``modules.torsion_decompose``, read off the chained
    Smith form of m's presentation."""
    form = smith_normal_form(m.presentation)
    diag, tor_idx, free_idx = _chained_diagonal(m, form)
    t_mod = FpModule.from_invariants(m.ring, [diag[i] for i in tor_idx], 0)
    f_mod = FpModule.free(m.ring, len(free_idx))
    return (FpMorphism(t_mod, m, form.u_inv(tor_idx), form.v_columns(tor_idx)),
            FpMorphism(m, f_mod, form.u.take_rows(free_idx),
                       IntMatrix.zeros(m.ring, 0, m.relations)))


def resolution_by_injective_bases(m: FpModule) -> list[IntMatrix]:
    """Matrices [d1, ..., dk] of a free resolution of m: from its reduced
    presentation on, each step keeps an injective matrix with the column
    span of the last, U^-1 * D cut to the rank, and goes on with its
    kernel, until the kernel is zero."""
    mats, current = [], reduce_presentation(m).presentation
    while current.cols > 0 and not current.is_zero():
        form = smith_normal_form(current)
        rank = sum(not rings.is_zero(m.ring, form.d.at(i, i))
                   for i in range(min(current.rows, current.cols)))
        mats.append(form.u_inv() * form.d.take_columns(range(rank)))
        current = kernel_matrix(mats[-1])
    return mats


def total_hom_complex(x: Complex, y: Complex) -> Complex:
    """The total Hom complex of two relation-free complexes.

    Degree-k entry: (+)_p Hom(X^p, Y^{p+k}); differential
    D(phi) = d_Y o phi - (-1)^k phi o d_X, so degree-0 cycles are chain maps
    and degree-(-1) images are the homotopies.
    """
    for c in (x, y):
        if not c.is_strict_free():
            raise UndecidableConfigurationError("hom complex needs relation-free entries")
    ring = x.ring
    lo = y.lo - x.hi
    hi = y.hi - x.lo

    def layout(k):
        ps = [p for p in range(max(x.lo, y.lo - k), min(x.hi, y.hi - k) + 1)
              if x.object_at(p).generators and y.object_at(p + k).generators]
        sizes = [x.object_at(p).generators * y.object_at(p + k).generators for p in ps]
        return ps, sizes

    mats = []
    for k in range(lo, hi):
        ps, sizes = layout(k)
        qs, tsizes = layout(k + 1)
        blocks = {}
        for j, p in enumerate(ps):
            if p in qs:
                blocks[qs.index(p), j] = kron(
                    IntMatrix.identity(ring, x.object_at(p).generators),
                    y.differential_at(p + k).gen)
            if p - 1 in qs:
                m = kron(x.differential_at(p - 1).gen.transpose(),
                         IntMatrix.identity(ring, y.object_at(p + k).generators))
                blocks[qs.index(p - 1), j] = -m if k % 2 == 0 else m
        mats.append(block_matrix(ring, tsizes, sizes, blocks))
    ranks = [sum(layout(k)[1]) for k in range(lo, hi + 1)]
    objs = [FpModule.free(ring, r) for r in ranks]
    diffs = [FpMorphism(objs[i], objs[i + 1], m, IntMatrix.zeros(ring, 0, 0))
             for i, m in enumerate(mats)]
    return Complex(ring, lo, objs, diffs)


def cohomology_map(f: ChainMap, n: int) -> FpMorphism:
    """The induced map on n-th cohomology.

    Each cohomology keeps its kernel's generators, so the map sends kernel
    generator i of X to the coordinates of f^n of it in the kernel
    generators of Y, modulo P_Y^n: one solve.  ``from_generator_matrix``
    checks that it descends.
    """
    x, y = f.source, f.target
    hx, hy = cohomology(x, n), cohomology(y, n)
    if not (hx.generators and hy.generators):  # also every n outside a support
        return FpMorphism.zero(hx, hy)
    kx = kernel_generators(x.differential_at(n))
    ky = kernel_generators(y.differential_at(n))
    sol = solve_lift(ky.hstack(y.object_at(n).presentation), f.component_at(n).gen * kx)
    if sol is None:
        raise ArithmeticError("chain map does not respect kernels")
    return FpMorphism.from_generator_matrix(hx, hy, sol.take_rows(range(ky.cols)))


def cone(f: ChainMap) -> Complex:
    """The mapping cone of f : X -> Y.

    cone^n = Y^n (+) X^{n+1}, the ``direct_sum`` of [Y^n, X^{n+1}], with
    d^n = [[d_Y, f], [0, -d_X]].  The triangle maps Y -> cone and
    cone -> X[1] are, degree by degree, ``modules.injection`` of summand 0
    and ``modules.projection`` onto summand 1.
    """
    x, y = f.source, f.target
    degrees = range(min(y.lo, x.lo - 1), max(y.hi, x.hi - 1) + 1)
    parts = [[y.object_at(n), x.object_at(n + 1)] for n in degrees]
    objs = [direct_sum(ms) for ms in parts]
    diffs = []
    for k, n in enumerate(degrees[:-1]):
        blocks = {}
        if y.lo <= n < y.hi:
            blocks[0, 0] = y.differential_at(n)
        if n + 1 in f.components:
            blocks[0, 1] = f.components[n + 1]
        if x.lo <= n + 1 < x.hi:
            blocks[1, 1] = negate(x.differential_at(n + 1))
        diffs.append(block_morphism(objs[k], objs[k + 1], parts[k], parts[k + 1], blocks))
    return Complex(x.ring, degrees[0], objs, diffs)


def distinguished_by_comparison_cone(counit: ChainMap, unit: ChainMap, free: bool) -> bool:
    """Whether A -> X -> B is distinguished, decided on the cone of the
    comparison map cone(A -> X) -> B built in full; ``free`` picks
    contraction (the homotopy category) over ``is_exact``."""
    comp = compose_chain_maps(unit, counit)
    homotopy = None
    if not all(is_zero_morphism(comp.component_at(n)) for n in comp.source.degrees()):
        if not (comp.source.is_strict_free() and comp.target.is_strict_free()):
            return False
        homotopy = is_nullhomotopic(comp)
        if homotopy is None:
            return False
    cone_c = cone(counit)
    a, x, b = counit.source, counit.target, unit.target
    comps = {}
    for n in cone_c.degrees():
        # cone^n = X^n (+) A^{n+1}: phi^n = [unit^n, s^{n+1}] : cone^n -> B^n
        blocks = {(0, 0): unit.component_at(n)}
        if homotopy is not None:
            blocks[0, 1] = homotopy.component_at(n + 1)
        comps[n] = block_morphism(cone_c.object_at(n), b.object_at(n),
                                  [x.object_at(n), a.object_at(n + 1)], [b.object_at(n)], blocks)
    phi_cone = cone(ChainMap(cone_c, b, comps))
    if free:
        return is_contractible(phi_cone) is not None
    return is_exact(phi_cone)


def total_is_exact_in_full(parts: list[Complex],
                           maps: dict[tuple[int, int], dict[int, FpMorphism]]) -> bool:
    """Whether the total complex of parts[0] <- parts[1] <- ... is exact,
    every degree of it laid out: entry n is the sum of parts[i]^{n+i};
    block (i, i) of d^n is (-1)^i d_i^{n+i} and block (i, j), j > i, is
    (-1)^i maps[i, j][n+j].  Relation-free parts are decided by the units
    and ranks of the diagonals, others by one kernel and one solve per
    degree."""
    ring = parts[0].ring
    starts = [c.lo - i for i, c in enumerate(parts)]
    lo = min(starts)
    hi = max(start + len(c.objects) - 1 for start, c in zip(starts, parts))

    def at(seq, i, n):
        k = n - starts[i]
        return seq[k] if 0 <= k < len(seq) else None

    entries = [[at(c.objects, i, n) for i, c in enumerate(parts)] for n in range(lo, hi + 1)]
    sizes = [[0 if m is None else m.generators for m in e] for e in entries]
    pres = [block_diag(ring, [IntMatrix.zeros(ring, 0, 0) if m is None else m.presentation
                              for m in e])
            if any(m is not None and m.relations for m in e)
            else IntMatrix.zeros(ring, sum(size), 0) for e, size in zip(entries, sizes)]
    diffs = []
    for k, n in enumerate(range(lo, hi)):
        blocks = {}
        for i, c in enumerate(parts):
            row = {j: maps[i, j][n + j] for j in range(i + 1, len(parts))
                   if n + j in maps.get((i, j), ())}
            if (d := at(c.differentials, i, n)) is not None:
                row[i] = d
            blocks.update({(i, j): -b.gen if i % 2 else b.gen for j, b in row.items()})
        diffs.append(block_matrix(ring, sizes[k + 1], sizes[k], blocks))
    if all(c.is_strict_free() for c in parts):
        ranks = [0]
        for d in diffs:
            diag = nonzero_diagonal(d)
            if not all(rings.is_unit(ring, e) for e in diag):
                return False
            ranks.append(len(diag))
        ranks.append(0)
        return all(ranks[k] + ranks[k + 1] == p.rows for k, p in enumerate(pres))
    diffs = [IntMatrix.zeros(ring, pres[0].rows, 0), *diffs,
             IntMatrix.zeros(ring, 0, pres[-1].rows)]
    pres = [*pres, IntMatrix.zeros(ring, 0, 0)]
    for k, p in enumerate(pres[:-1]):
        gens = kernel_matrix(diffs[k + 1].hstack(-pres[k + 1])).take_rows(range(p.rows))
        if gens.cols and solve_lift(diffs[k].hstack(p), gens) is None:
            return False
    return True


def checked_chain_map(source: Complex, target: Complex,
                      components: dict[int, FpMorphism]) -> ChainMap:
    """The chain map with these components, or ValueError where one has the
    wrong source or target or the square at some degree does not commute."""
    f = ChainMap(source, target, components)
    for n, c in f.components.items():
        if c.source.presentation != source.object_at(n).presentation:
            raise ValueError(f"component {n} source mismatch")
        if c.target.presentation != target.object_at(n).presentation:
            raise ValueError(f"component {n} target mismatch")
    for n in range(min(source.lo, target.lo) - 1, max(source.hi, target.hi) + 1):
        lhs = compose(target.differential_at(n), f.component_at(n))
        rhs = compose(f.component_at(n + 1), source.differential_at(n))
        if not morphism_equal(lhs, rhs):
            raise ValueError(f"chain map does not commute at degree {n}")
    return f


def sub_morphisms(f: FpMorphism, g: FpMorphism) -> FpMorphism:
    return add_morphisms(f, negate(g))


def is_zero_morphism(f: FpMorphism) -> bool:
    """f == 0, decided against the zero morphism built in full."""
    return morphism_equal(f, FpMorphism.zero(f.source, f.target))


def zero_freyd_morphism(source: FreydObject, target: FreydObject) -> FreydMorphism:
    return FreydMorphism(source, target,
                         FpMorphism.zero(source.generators, target.generators),
                         FpMorphism.zero(source.relations, target.relations))


def sub_chain_maps(f: ChainMap, g: ChainMap) -> ChainMap:
    comps = {}
    for n in set(f.components) | set(g.components):
        comps[n] = sub_morphisms(f.component_at(n), g.component_at(n))
    return ChainMap(f.source, f.target, comps)


def chain_maps_homotopic(f: ChainMap, g: ChainMap) -> Optional[Homotopy]:
    return is_nullhomotopic(sub_chain_maps(f, g))


class FractionPoly:
    """A univariate polynomial with exact rational coefficients.

    Stored dense by degree, low degree first, with trailing zeros stripped
    so that equal polynomials compare equal.  The zero polynomial has an
    empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "FractionPoly":
        return cls((Fraction(c),))

    @classmethod
    def x(cls) -> "FractionPoly":
        return cls((Fraction(0), Fraction(1)))

    @property
    def degree(self) -> int:
        """Degree, with the convention deg(0) = -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def lead(self) -> Fraction:
        if not self.coeffs:
            raise ZeroDivisionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "FractionPoly") -> "FractionPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FractionPoly(out)

    def __neg__(self) -> "FractionPoly":
        return FractionPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "FractionPoly") -> "FractionPoly":
        return self + (-other)

    def __mul__(self, other: "FractionPoly") -> "FractionPoly":
        if self.is_zero() or other.is_zero():
            return FractionPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return FractionPoly(out)

    def divmod(self, other: "FractionPoly") -> tuple["FractionPoly", "FractionPoly"]:
        """Euclidean division; remainder has degree < deg(other)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.degree
        lead = other.lead()
        for k in range(len(rem) - 1, d - 1, -1):
            if rem[k] == 0:
                continue
            c = rem[k] / lead
            q[k - d] = c
            for i, b in enumerate(other.coeffs):
                rem[k - d + i] -= c * b
        return FractionPoly(q), FractionPoly(rem)

    def __eq__(self, other) -> bool:
        return isinstance(other, FractionPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero():
            return "QPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{i}")
        return "QPoly(" + " + ".join(terms) + ")"
