"""Finitely presented modules over the catalogued rings.

A module is the cokernel of its presentation matrix P : R^a -> R^b; a
morphism is a matrix on generators together with a witness certifying that
it descends to the cokernels.  Equality of morphisms is "the difference
factors through the target presentation", decided by exact linear solving,
so it works for infinite modules without element enumeration.

Kernels, cokernels, images, hom groups, torsion decomposition and
projective resolutions are all computed through the Smith normal form of
integer (or exact polynomial) matrices.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import rings
from .matrices import (
    IntMatrix,
    DimensionMismatchError,
    PreparedSolver,
    block_diag,
    block_matrix,
    kernel_matrix,
    kron,
    smith_normal_form,
    solve_lift,
    unvec,
    vec,
)
from .rings import RingSpec


class UnsupportedRingError(ValueError):
    """Raised when an operation is only defined over the integers."""


class FpModule:
    """A finitely presented module, the cokernel of its presentation."""

    def __init__(self, presentation: IntMatrix):
        self.ring = presentation.ring
        self.presentation = presentation
        self._snf = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def free(cls, ring: RingSpec, rank: int) -> "FpModule":
        return cls(IntMatrix.zeros(ring, rank, 0))

    @classmethod
    def zero(cls, ring: RingSpec) -> "FpModule":
        return cls(IntMatrix.zeros(ring, 0, 0))

    @classmethod
    def cyclic(cls, ring: RingSpec, d) -> "FpModule":
        d = rings.from_int(ring, d) if isinstance(d, int) else d
        return cls(IntMatrix.from_rows(ring, [[d]]))

    @classmethod
    def from_invariants(cls, ring: RingSpec, torsion: Sequence, free_rank: int) -> "FpModule":
        els = [rings.from_int(ring, t) if isinstance(t, int) else t for t in torsion]
        n = len(els) + free_rank
        pres = IntMatrix.diagonal(ring, els, rows=n, cols=len(els))
        return cls(pres)

    # -- basic data -------------------------------------------------------

    @property
    def generators(self) -> int:
        return self.presentation.rows

    @property
    def relations(self) -> int:
        return self.presentation.cols

    def snf(self):
        if self._snf is None:
            self._snf = smith_normal_form(self.presentation)
        return self._snf

    def invariant_factors(self) -> list:
        """Nonunit nonzero diagonal entries of the reduced presentation."""
        _, d, _ = self.snf()
        out = []
        for i in range(min(d.rows, d.cols)):
            e = d.at(i, i)
            if not rings.is_zero(self.ring, e) and not rings.is_unit(self.ring, e):
                out.append(e)
        return out

    def free_rank(self) -> int:
        _, d, _ = self.snf()
        nonzero = sum(1 for i in range(min(d.rows, d.cols))
                      if not rings.is_zero(self.ring, d.at(i, i)))
        return self.generators - nonzero

    def invariant_data(self) -> tuple:
        return (self.free_rank(), tuple(self.invariant_factors()))

    def is_zero_module(self) -> bool:
        return self.free_rank() == 0 and not self.invariant_factors()

    def is_free(self) -> bool:
        return not self.invariant_factors()

    def is_torsion(self) -> bool:
        return self.free_rank() == 0

    def is_isomorphic(self, other: "FpModule") -> bool:
        return self.ring is other.ring and self.invariant_data() == other.invariant_data()

    def __eq__(self, other) -> bool:
        return (isinstance(other, FpModule)
                and self.presentation == other.presentation)

    def __hash__(self) -> int:
        return hash(self.presentation)

    def __repr__(self) -> str:
        fr, tor = self.invariant_data()
        return f"FpModule(free_rank={fr}, torsion={list(tor)})"


class FpMorphism:
    """A morphism of finitely presented modules.

    ``gen`` maps generators to generators; ``witness`` certifies
    gen * P_src = P_tgt * witness, so the map descends to the cokernels.
    """

    def __init__(self, source: FpModule, target: FpModule,
                 gen: IntMatrix, witness: IntMatrix):
        if source.ring is not target.ring or gen.ring is not source.ring:
            raise rings_mismatch(source, target)
        if gen.rows != target.generators or gen.cols != source.generators:
            raise DimensionMismatchError("generator matrix shape mismatch")
        if witness.rows != target.relations or witness.cols != source.relations:
            raise DimensionMismatchError("witness shape mismatch")
        if gen * source.presentation != target.presentation * witness:
            raise ValueError("witness equation violated")
        self.source = source
        self.target = target
        self.gen = gen
        self.witness = witness

    @classmethod
    def from_generator_matrix(cls, source: FpModule, target: FpModule,
                              gen: IntMatrix) -> "FpMorphism":
        w = solve_lift(target.presentation, gen * source.presentation)
        if w is None:
            raise ValueError("generator matrix does not define a morphism")
        return cls(source, target, gen, w)

    @classmethod
    def zero(cls, source: FpModule, target: FpModule) -> "FpMorphism":
        ring = source.ring
        return cls(source, target,
                   IntMatrix.zeros(ring, target.generators, source.generators),
                   IntMatrix.zeros(ring, target.relations, source.relations))

    @classmethod
    def identity(cls, m: FpModule) -> "FpMorphism":
        return cls(m, m, IntMatrix.identity(m.ring, m.generators),
                   IntMatrix.identity(m.ring, m.relations))

    def __repr__(self) -> str:
        return f"FpMorphism({self.source!r} -> {self.target!r})"


def rings_mismatch(a, b):
    from .matrices import RingMismatchError
    return RingMismatchError(f"{a.ring} vs {b.ring}")


# -- morphism calculus ----------------------------------------------------

def compose(g: FpMorphism, f: FpMorphism) -> FpMorphism:
    """g after f."""
    if f.target is not g.source and f.target.presentation != g.source.presentation:
        raise ValueError("non-composable morphisms")
    return FpMorphism(f.source, g.target, g.gen * f.gen, g.witness * f.witness)


def morphism_equal(f: FpMorphism, g: FpMorphism) -> bool:
    """Whether f and g agree, i.e. their difference factors through P_tgt."""
    if f.source.presentation != g.source.presentation \
            or f.target.presentation != g.target.presentation:
        return False
    return solve_lift(f.target.presentation, f.gen - g.gen) is not None


def is_zero_morphism(f: FpMorphism) -> bool:
    return morphism_equal(f, FpMorphism.zero(f.source, f.target))


def add_morphisms(f: FpMorphism, g: FpMorphism) -> FpMorphism:
    return FpMorphism(f.source, f.target, f.gen + g.gen, f.witness + g.witness)


def negate(f: FpMorphism) -> FpMorphism:
    return FpMorphism(f.source, f.target, -f.gen, -f.witness)


def sub_morphisms(f: FpMorphism, g: FpMorphism) -> FpMorphism:
    return add_morphisms(f, negate(g))


def _solve_morphism(x: FpModule, y: FpModule, left: IntMatrix, right: IntMatrix,
                    g: IntMatrix, modulo: FpModule) -> Optional[FpMorphism]:
    """A morphism h : x -> y whose matrix H has left * H * right = g modulo
    the relations of ``modulo``, or None.

    One Kronecker-vectorised system in the unknowns vec H, vec T1, vec T2:
    left * H * right + P_Z * T1 = g, and H * P_X = P_Y * T2 so that H
    descends to the cokernels.
    """
    ring = x.ring
    p_x, p_y, p_z = x.presentation, y.presentation, modulo.presentation
    b_x, b_y, a_x = x.generators, y.generators, x.relations
    row_sizes = [g.rows * g.cols, b_y * a_x]
    col_sizes = [b_y * b_x, modulo.relations * g.cols, y.relations * a_x]
    system = block_matrix(ring, row_sizes, col_sizes, {
        (0, 0): kron(right.transpose(), left),
        (0, 1): kron(IntMatrix.identity(ring, g.cols), p_z),
        (1, 0): kron(p_x.transpose(), IntMatrix.identity(ring, b_y)),
        (1, 2): kron(IntMatrix.identity(ring, a_x), -p_y),
    })
    sol = solve_lift(system, block_matrix(ring, row_sizes, [1], {(0, 0): vec(g)}))
    if sol is None:
        return None
    h = unvec(sol.take_rows(range(b_y * b_x)), b_y, b_x)
    return FpMorphism.from_generator_matrix(x, y, h)


def factor(g: FpMorphism, through: FpMorphism) -> Optional[FpMorphism]:
    """A morphism h with through o h = g, or None.

    This single exact solve realises both lifting through an epimorphism
    and factoring through a monomorphism (e.g. a kernel inclusion).
    """
    if g.target.presentation != through.target.presentation:
        raise ValueError("factor: targets differ")
    return _solve_morphism(g.source, through.source, through.gen,
                           IntMatrix.identity(g.source.ring, g.gen.cols), g.gen, g.target)


def cofactor(g: FpMorphism, through: FpMorphism) -> Optional[FpMorphism]:
    """A morphism h with h o through = g, or None.

    Realises the couniversal property of cokernel projections.
    """
    if g.source.presentation != through.source.presentation:
        raise ValueError("cofactor: sources differ")
    return _solve_morphism(through.target, g.target,
                           IntMatrix.identity(g.source.ring, g.gen.rows), through.gen,
                           g.gen, g.target)


def lift_through_epi(p: FpMorphism, g: FpMorphism) -> FpMorphism:
    """h with p o h = g, for p epi and g from a free source.

    Free modules are projective, so the lift always exists in that case.
    """
    h = factor(g, p)
    if h is None:
        raise ValueError("lift through epimorphism failed")
    return h


# -- kernels, cokernels, images -------------------------------------------

def span_quotient(gens: IntMatrix, rels: IntMatrix) -> tuple[FpModule, IntMatrix, IntMatrix]:
    """The module spanned by the columns of ``gens`` modulo ``rels``.

    Returns (module, gens, witness) where the module has one generator per
    column of ``gens`` and witness solves gens * presentation = rels * witness.
    """
    pair = kernel_matrix(gens.hstack(-rels))
    pres = pair.take_rows(range(gens.cols))
    wit = pair.take_rows(range(gens.cols, gens.cols + rels.cols))
    return FpModule(pres), gens, wit


def kernel(f: FpMorphism) -> tuple[FpModule, FpMorphism]:
    """Kernel with its monic inclusion."""
    p_n = f.target.presentation
    p_m = f.source.presentation
    pair = kernel_matrix(f.gen.hstack(-p_n))
    u = pair.take_rows(range(f.source.generators))
    k_mod, _, wit = span_quotient(u, p_m)
    incl = FpMorphism(k_mod, f.source, u, wit)
    return k_mod, incl


def cokernel(f: FpMorphism) -> tuple[FpModule, FpMorphism]:
    """Cokernel with its epi projection, presented by [P_tgt | gen]."""
    ring = f.source.ring
    c = FpModule(f.target.presentation.hstack(f.gen))
    w = IntMatrix.identity(ring, f.target.relations).vstack(
        IntMatrix.zeros(ring, f.source.generators, f.target.relations))
    proj = FpMorphism(f.target, c, IntMatrix.identity(ring, f.target.generators), w)
    return c, proj


def image(f: FpMorphism) -> tuple[FpModule, FpMorphism]:
    """Image submodule of the target, with its inclusion."""
    im_mod, gens, wit = span_quotient(f.gen, f.target.presentation)
    incl = FpMorphism(im_mod, f.target, gens, wit)
    return im_mod, incl


def corestrict_to_image(f: FpMorphism) -> tuple[FpModule, FpMorphism, FpMorphism]:
    """f = incl o surj through its image; returns (image, surj, incl)."""
    im_mod, incl = image(f)
    # the image generators are the columns of f.gen, one per source generator
    surj = FpMorphism.from_generator_matrix(
        f.source, im_mod, IntMatrix.identity(f.source.ring, f.source.generators))
    return im_mod, surj, incl


def is_epi(f: FpMorphism) -> bool:
    c, _ = cokernel(f)
    return c.is_zero_module()


def is_mono(f: FpMorphism) -> bool:
    k, _ = kernel(f)
    return k.is_zero_module()


def is_iso(f: FpMorphism) -> bool:
    return is_mono(f) and is_epi(f)


def inverse(f: FpMorphism) -> FpMorphism:
    """Two-sided inverse of an isomorphism."""
    inv = factor(FpMorphism.identity(f.target), f)
    if inv is None or not morphism_equal(compose(inv, f), FpMorphism.identity(f.source)):
        raise ValueError("morphism is not an isomorphism")
    return inv


def direct_sum(ms: Sequence[FpModule]):
    """Direct sum with injections and projections."""
    if not ms:
        raise ValueError("empty direct sum; use FpModule.zero")
    ring = ms[0].ring
    total = FpModule(block_diag(ring, [m.presentation for m in ms]))
    injections, projections = [], []
    g_off = 0
    for m in ms:
        gi_rows = IntMatrix.zeros(ring, total.generators, m.generators).to_rows()
        for i in range(m.generators):
            gi_rows[g_off + i][i] = rings.one(ring)
        inj_gen = IntMatrix.from_rows(ring, gi_rows, cols=m.generators)
        injections.append(FpMorphism.from_generator_matrix(m, total, inj_gen))
        projections.append(FpMorphism.from_generator_matrix(total, m, inj_gen.transpose()))
        g_off += m.generators
    return total, injections, projections


def tuple_morphism(injections, components: Sequence[FpMorphism]) -> FpMorphism:
    """The morphism into a direct sum assembled from its components."""
    total = None
    for inj, comp in zip(injections, components):
        piece = compose(inj, comp)
        total = piece if total is None else add_morphisms(total, piece)
    return total


# -- hom groups (integers only) ---------------------------------------------

class HomGroup:
    """Hom(M, N) as a finitely presented abelian group.

    ``module`` presents the group; ``element(coords)`` converts a
    coordinate column (one entry per generator) into an actual morphism.
    ``trivial`` spans the vectorised generator matrices P_N * S of the
    zero morphisms.
    """

    def __init__(self, source: FpModule, target: FpModule,
                 module: FpModule, gen_vecs: IntMatrix, trivial: IntMatrix):
        self.source = source
        self.target = target
        self.module = module
        self._gen_vecs = gen_vecs
        self._trivial = trivial
        self._coord_solver = None

    def element(self, coords: Sequence[int]) -> FpMorphism:
        ring = self.source.ring
        col = IntMatrix.from_rows(ring, [[c] for c in coords], cols=1)
        v = self._gen_vecs * col
        g = unvec(v, self.target.generators, self.source.generators)
        return FpMorphism.from_generator_matrix(self.source, self.target, g)

    def generator(self, i: int) -> FpMorphism:
        coords = [0] * self.module.generators
        coords[i] = 1
        return self.element(coords)

    def _solver(self) -> PreparedSolver:
        if self._coord_solver is None:
            self._coord_solver = PreparedSolver(self._gen_vecs.hstack(self._trivial))
        return self._coord_solver

    def coordinates(self, f: FpMorphism) -> Optional[IntMatrix]:
        """Coordinates of a morphism in terms of the group generators."""
        sol = self._solver().solve(vec(f.gen))
        if sol is None:
            return None
        return sol.take_rows(range(self.module.generators))


def hom_group(source: FpModule, target: FpModule) -> HomGroup:
    """The abelian group of morphisms source -> target (ring = Z)."""
    ring = source.ring
    if ring is not RingSpec.INTEGERS:
        raise UnsupportedRingError("hom groups are computed over the integers")
    b_m, a_m = source.generators, source.relations
    b_n, a_n = target.generators, target.relations
    # solutions (vec G, vec W) of G * P_M - P_N * W = 0
    lhs = kron(source.presentation.transpose(), IntMatrix.identity(ring, b_n)).hstack(
        kron(IntMatrix.identity(ring, a_m), -target.presentation))
    sols = kernel_matrix(lhs)
    gen_vecs = sols.take_rows(range(b_n * b_m))
    # trivial morphisms: G = P_N * S
    triv = kron(IntMatrix.identity(ring, b_m), target.presentation)
    module, gens, _ = span_quotient(gen_vecs, triv)
    return HomGroup(source, target, module, gen_vecs, triv)


# -- torsion pair over Z -----------------------------------------------------

def torsion_decompose(m: FpModule):
    """The short exact sequence 0 -> tM -> M -> M/tM -> 0 over Z.

    tM is the (finite) torsion part, the quotient is free; both come with
    the morphisms realising the sequence.
    """
    if m.ring is not RingSpec.INTEGERS:
        raise UnsupportedRingError("torsion decomposition needs ring = Z")
    ring = m.ring
    u, d, _ = m.snf()
    u_inv = _unimodular_inverse(u)
    tor_idx, free_idx = [], []
    for i in range(m.generators):
        e = d.at(i, i) if i < min(d.rows, d.cols) else rings.zero(ring)
        if rings.is_zero(ring, e):
            free_idx.append(i)
        elif not rings.is_unit(ring, e):
            tor_idx.append(i)
    t_mod = FpModule.from_invariants(ring, [d.at(i, i) for i in tor_idx], 0)
    f_mod = FpModule.free(ring, len(free_idx))
    incl = FpMorphism.from_generator_matrix(t_mod, m, u_inv.take_columns(tor_idx))
    proj = FpMorphism.from_generator_matrix(m, f_mod, u.take_rows(free_idx))
    return t_mod, incl, f_mod, proj


def _unimodular_inverse(u: IntMatrix) -> IntMatrix:
    inv = solve_lift(u, IntMatrix.identity(u.ring, u.rows))
    if inv is None:
        raise ValueError("matrix is not invertible over the ring")
    return inv


def free_part_projection(m: FpModule) -> tuple[FpModule, FpMorphism]:
    _, _, f_mod, proj = torsion_decompose(m)
    return f_mod, proj


def free_quotient(m: FpModule) -> tuple[FpModule, FpMorphism]:
    """The maximal free quotient, over any catalogued ring."""
    ring = m.ring
    u, d, _ = m.snf()
    free_idx = [i for i in range(m.generators)
                if i >= min(d.rows, d.cols) or rings.is_zero(ring, d.at(i, i))]
    f_mod = FpModule.free(ring, len(free_idx))
    proj = FpMorphism.from_generator_matrix(m, f_mod, u.take_rows(free_idx))
    return f_mod, proj


def embed_into_free(m: FpModule) -> Optional[FpMorphism]:
    """A monomorphism into a free module, when one exists (M torsion-free)."""
    if m.invariant_factors():
        return None
    f_mod, proj = free_part_projection(m)
    return proj  # mono because the torsion part vanishes


# -- projective resolutions ---------------------------------------------------

def projective_resolution(m: FpModule, max_len: int = 1) -> list[IntMatrix]:
    """Matrices [d1, ..., dk] of a free resolution 0 -> F_k -> ... -> F_0 -> M -> 0.

    F_0 = R^{generators of the reduced presentation}; over the catalogued
    rings the length never exceeds 1, and exceeding ``max_len`` raises.
    """
    # reduce the presentation first so a free module yields a length-0 resolution
    reduced = reduce_presentation(m)
    mats = []
    current = reduced.presentation
    length = 0
    while current.cols > 0 and not current.is_zero():
        if length + 1 > max_len:
            raise ValueError(f"resolution exceeds maximal length {max_len}")
        # split off the redundant relation columns: keep an injective tail
        inj = _injective_column_basis(current)
        mats.append(inj)
        current = kernel_matrix(inj)
        length += 1
    return mats


def _injective_column_basis(p: IntMatrix) -> IntMatrix:
    """A matrix with the same column span as p and trivial kernel."""
    u, d, _ = smith_normal_form(p)
    ring = p.ring
    r = sum(1 for i in range(min(d.rows, d.cols))
            if not rings.is_zero(ring, d.at(i, i)))
    u_inv = _unimodular_inverse(u)
    return u_inv * d.take_columns(range(r))


def reduce_presentation(m: FpModule) -> FpModule:
    """The canonical SNF-reduced presentation (unit factors dropped)."""
    fr, tor = m.invariant_data()
    return FpModule.from_invariants(m.ring, list(tor), fr)


def reduction_isomorphism(m: FpModule) -> tuple[FpModule, FpMorphism]:
    """The canonical module together with an isomorphism from m onto it."""
    ring = m.ring
    u, d, _ = m.snf()
    keep = []
    for i in range(m.generators):
        e = d.at(i, i) if i < min(d.rows, d.cols) else rings.zero(ring)
        if rings.is_zero(ring, e) or not rings.is_unit(ring, e):
            keep.append(i)
    tor = [d.at(i, i) for i in keep
           if i < min(d.rows, d.cols) and not rings.is_zero(ring, d.at(i, i))]
    free_rank = len(keep) - len(tor)
    # order: torsion generators first, as in from_invariants
    tor_idx = [i for i in keep if i < min(d.rows, d.cols)
               and not rings.is_zero(ring, d.at(i, i))]
    free_idx = [i for i in keep if i not in tor_idx]
    canon = FpModule.from_invariants(ring, tor, free_rank)
    iso = FpMorphism.from_generator_matrix(m, canon, u.take_rows(tor_idx + free_idx))
    return canon, iso


def pullback(f: FpMorphism, g: FpMorphism):
    """Pullback of f : A -> C along g : B -> C, with its two legs."""
    if f.target.presentation != g.target.presentation:
        raise ValueError("pullback targets differ")
    total, injections, projections = direct_sum([f.source, g.source])
    diff = sub_morphisms(compose(f, projections[0]), compose(g, projections[1]))
    p_mod, incl = kernel(diff)
    leg_a = compose(projections[0], incl)
    leg_b = compose(projections[1], incl)
    return p_mod, leg_a, leg_b


def pushout(f: FpMorphism, g: FpMorphism):
    """Pushout of f : C -> A along g : C -> B, with its two legs."""
    if f.source.presentation != g.source.presentation:
        raise ValueError("pushout sources differ")
    total, injections, _ = direct_sum([f.target, g.target])
    diff = sub_morphisms(compose(injections[0], f), compose(injections[1], g))
    p_mod, proj = cokernel(diff)
    leg_a = compose(proj, injections[0])
    leg_b = compose(proj, injections[1])
    return p_mod, leg_a, leg_b
