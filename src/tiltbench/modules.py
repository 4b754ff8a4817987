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
    RingMismatchError,
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
        self._reduction = None

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

    def smith_diagonal(self) -> tuple[list, list[int], list[int]]:
        """The SNF diagonal padded with zeros to one entry per generator,
        with the indices of its nonzero nonunit (torsion) and zero (free)
        entries."""
        ring = self.ring
        _, d, _ = self.snf()
        diag = [d.at(i, i) if i < d.cols else rings.zero(ring)
                for i in range(self.generators)]
        tor_idx = [i for i, e in enumerate(diag)
                   if not rings.is_zero(ring, e) and not rings.is_unit(ring, e)]
        free_idx = [i for i, e in enumerate(diag) if rings.is_zero(ring, e)]
        return diag, tor_idx, free_idx

    def reduction(self) -> tuple["FpModule", "FpMorphism", "FpMorphism"]:
        """``reduce_presentation(self)`` with mutually inverse isomorphisms
        a : self -> reduced and b : reduced -> self, read off the Smith form.

        With U * P * V = D, U * P = D * V^-1 and P * V = U^-1 * D; for
        idx = torsion then free indices, a = (U[idx, :], V^-1[torsion, :])
        and b = (U^-1[:, idx], V[:, torsion]).
        """
        if self._reduction is not None:
            return self._reduction
        if not self.relations:  # a presentation without relations is already reduced
            ident = FpMorphism.identity(self)
            self._reduction = (self, ident, ident)
            return self._reduction
        snf = self.snf()
        u, _, v = snf
        diag, tor_idx, free_idx = self.smith_diagonal()
        idx = tor_idx + free_idx
        canon = FpModule.from_invariants(self.ring, [diag[i] for i in tor_idx], len(free_idx))
        self._reduction = (
            canon,
            FpMorphism(self, canon, u.take_rows(idx), snf.v_inv().take_rows(tor_idx)),
            FpMorphism(canon, self, snf.u_inv().take_columns(idx), v.take_columns(tor_idx)),
        )
        return self._reduction

    def invariant_factors(self) -> list:
        """Nonunit nonzero diagonal entries of the reduced presentation."""
        diag, tor_idx, _ = self.smith_diagonal()
        return [diag[i] for i in tor_idx]

    def free_rank(self) -> int:
        return len(self.smith_diagonal()[2])

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
    diff = f.gen - g.gen
    if not f.target.relations:  # nothing to factor through
        return diff.is_zero()
    return solve_lift(f.target.presentation, diff) is not None


def is_zero_morphism(f: FpMorphism) -> bool:
    return morphism_equal(f, FpMorphism.zero(f.source, f.target))


def add_morphisms(f: FpMorphism, g: FpMorphism) -> FpMorphism:
    return FpMorphism(f.source, f.target, f.gen + g.gen, f.witness + g.witness)


def negate(f: FpMorphism) -> FpMorphism:
    return FpMorphism(f.source, f.target, -f.gen, -f.witness)


def sub_morphisms(f: FpMorphism, g: FpMorphism) -> FpMorphism:
    return add_morphisms(f, negate(g))


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
    gen_sizes = [m.generators for m in ms]
    rel_sizes = [m.relations for m in ms]
    injections, projections = [], []
    for k, m in enumerate(ms):
        # the block inclusions of generators and of relations
        e_gen = block_matrix(ring, gen_sizes, [m.generators],
                             {(k, 0): IntMatrix.identity(ring, m.generators)})
        e_rel = block_matrix(ring, rel_sizes, [m.relations],
                             {(k, 0): IntMatrix.identity(ring, m.relations)})
        injections.append(FpMorphism(m, total, e_gen, e_rel))
        projections.append(FpMorphism(total, m, e_gen.transpose(), e_rel.transpose()))
    return total, injections, projections


def block_morphism(source: FpModule, target: FpModule,
                   source_parts: Sequence[FpModule], target_parts: Sequence[FpModule],
                   blocks: dict[tuple[int, int], FpMorphism]) -> FpMorphism:
    """The morphism from source = (+) source_parts to target = (+) target_parts
    whose (i, j) block is blocks[i, j] : source_parts[j] -> target_parts[i],
    zero where absent.  ``direct_sum`` presents a sum block-diagonally, so the
    blocks' witnesses, placed like their generator matrices, witness the map.
    """
    ring = source.ring
    gen = block_matrix(ring, [m.generators for m in target_parts],
                       [m.generators for m in source_parts],
                       {ij: b.gen for ij, b in blocks.items()})
    witness = block_matrix(ring, [m.relations for m in target_parts],
                           [m.relations for m in source_parts],
                           {ij: b.witness for ij, b in blocks.items()})
    for (i, j), b in blocks.items():
        for end, part in ((b.source, source_parts[j]), (b.target, target_parts[i])):
            if end is not part and end.presentation != part.presentation:
                raise ValueError(f"block {(i, j)} does not sit between its parts")
    return FpMorphism(source, target, gen, witness)


# -- hom groups (integers only) ---------------------------------------------

class HomGroup:
    """Hom(M, N) as a finitely presented abelian group.

    ``module`` presents the group; ``element(coords)`` converts a
    coordinate column (one entry per generator) into an actual morphism.
    ``trivial`` spans the vectorised generator matrices P_N * S of the
    zero morphisms; ``wit_vecs`` holds the vectorised witness of each
    generator.
    """

    def __init__(self, source: FpModule, target: FpModule, module: FpModule,
                 gen_vecs: IntMatrix, wit_vecs: IntMatrix, trivial: IntMatrix):
        self.source = source
        self.target = target
        self.module = module
        self._gen_vecs = gen_vecs
        self._wit_vecs = wit_vecs
        self._trivial = trivial
        self._coord_solver = None

    def element(self, coords: Sequence[int]) -> FpMorphism:
        ring = self.source.ring
        col = IntMatrix.from_rows(ring, [[c] for c in coords], cols=1)
        g = unvec(self._gen_vecs * col, self.target.generators, self.source.generators)
        w = unvec(self._wit_vecs * col, self.target.relations, self.source.relations)
        return FpMorphism(self.source, self.target, g, w)

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
    wit_vecs = sols.take_rows(range(b_n * b_m, sols.rows))
    # trivial morphisms: G = P_N * S
    triv = kron(IntMatrix.identity(ring, b_m), target.presentation)
    module, gens, _ = span_quotient(gen_vecs, triv)
    return HomGroup(source, target, module, gen_vecs, wit_vecs, triv)


# -- torsion pair over Z -----------------------------------------------------

def torsion_decompose(m: FpModule):
    """The short exact sequence 0 -> tM -> M -> M/tM -> 0 over Z.

    tM is the (finite) torsion part, the quotient is free; both come with
    the morphisms realising the sequence.
    """
    if m.ring is not RingSpec.INTEGERS:
        raise UnsupportedRingError("torsion decomposition needs ring = Z")
    ring = m.ring
    _, _, v = m.snf()
    diag, tor_idx, _ = m.smith_diagonal()
    t_mod = FpModule.from_invariants(ring, [diag[i] for i in tor_idx], 0)
    # U^-1 * D = P * V, so the columns of V at tor_idx witness the inclusion
    incl = FpMorphism(t_mod, m, m.snf().u_inv().take_columns(tor_idx), v.take_columns(tor_idx))
    f_mod, proj = free_quotient(m)
    return t_mod, incl, f_mod, proj


def free_quotient(m: FpModule) -> tuple[FpModule, FpMorphism]:
    """The maximal free quotient, over any catalogued ring."""
    ring = m.ring
    u, _, _ = m.snf()
    _, _, free_idx = m.smith_diagonal()
    f_mod = FpModule.free(ring, len(free_idx))
    # the rows of U at free_idx kill P, since those rows of D = U * P * V vanish
    proj = FpMorphism(m, f_mod, u.take_rows(free_idx), IntMatrix.zeros(ring, 0, m.relations))
    return f_mod, proj


def embed_into_free(m: FpModule) -> Optional[FpMorphism]:
    """A monomorphism into a free module, when one exists (M torsion-free)."""
    if m.invariant_factors():
        return None
    _, _, _, proj = torsion_decompose(m)
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
    m = FpModule(p)
    _, d, _ = m.snf()
    rank = m.generators - len(m.smith_diagonal()[2])
    return m.snf().u_inv() * d.take_columns(range(rank))


def reduce_presentation(m: FpModule) -> FpModule:
    """The canonical SNF-reduced presentation (unit factors dropped)."""
    fr, tor = m.invariant_data()
    return FpModule.from_invariants(m.ring, list(tor), fr)


def pullback(f: FpMorphism, g: FpMorphism):
    """Pullback of f : A -> C along g : B -> C, with its two legs."""
    if f.target.presentation != g.target.presentation:
        raise ValueError("pullback targets differ")
    parts = [f.source, g.source]
    total, _, projections = direct_sum(parts)
    diff = block_morphism(total, f.target, parts, [f.target], {(0, 0): f, (0, 1): negate(g)})
    p_mod, incl = kernel(diff)
    leg_a = compose(projections[0], incl)
    leg_b = compose(projections[1], incl)
    return p_mod, leg_a, leg_b


def pushout(f: FpMorphism, g: FpMorphism):
    """Pushout of f : C -> A along g : C -> B, with its two legs."""
    if f.source.presentation != g.source.presentation:
        raise ValueError("pushout sources differ")
    parts = [f.target, g.target]
    total, injections, _ = direct_sum(parts)
    diff = block_morphism(f.source, total, [f.source], parts, {(0, 0): f, (1, 0): negate(g)})
    p_mod, proj = cokernel(diff)
    leg_a = compose(proj, injections[0])
    leg_b = compose(proj, injections[1])
    return p_mod, leg_a, leg_b
