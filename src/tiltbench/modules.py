"""Finitely presented modules over the catalogued rings.

A module is the cokernel of its presentation matrix P : R^a -> R^b; a
morphism is a matrix on generators together with a witness certifying that
it descends to the cokernels.  Equality of morphisms is "the difference
factors through the target presentation", decided by exact linear solving,
so it works for infinite modules without element enumeration.

A module's shape -- free rank, invariant factors, the torsion pair over Z
and the reduced presentation [diag(d); 0], injective over a PID and so its
projective resolution -- is read off one Smith diagonal; ``factor`` and
``cofactor`` are plain solves on one reduced presentation.

A universal construction is its universal map: ``kernel`` and ``image``
return inclusions, ``cokernel`` and ``free_quotient`` projections,
``pullback`` and ``pushout`` two legs; the object is an end of a map.
``direct_sum`` returns its object: a biproduct's maps are built where read.
"""

from __future__ import annotations

from itertools import groupby
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
    smith_normal_form,
    solve_lift,
    unvec,
)
from .rings import RingSpec


class UnsupportedRingError(ValueError):
    """Raised when an operation is only defined over the integers."""


class FpModule:
    """A finitely presented module, the cokernel of its presentation.

    The rank questions, the invariant factors and the reduction read one
    chained Smith diagonal (``smith_diagonal``), kept once read.  Solves on
    its relation system P * X = B read one chain-free diagonalisation, built
    when first solved on (``relation_solver``): every witness into the
    module and every "vanishes in the module" decision on it.
    """

    def __init__(self, presentation: IntMatrix):
        self.ring = presentation.ring
        self.presentation = presentation
        self._snf = None
        self._reduction = None
        self._relation_solver = None
        self._diagonal = None

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

    def relation_solver(self) -> PreparedSolver:
        if self._relation_solver is None:
            self._relation_solver = PreparedSolver(self.presentation)
        return self._relation_solver

    def smith_diagonal(self) -> tuple[list, list[int], list[int]]:
        """The SNF diagonal padded with zeros to one entry per generator,
        with the indices of its nonzero nonunit (torsion) and zero (free)
        entries, kept once read.  It reads D alone, so neither transform is
        replayed, and without relations or generators no Smith form."""
        if self._diagonal is None:
            ring, n = self.ring, self.relations
            d = self.snf().d if n and self.generators else None
            diag = [d.at(i, i) if i < n else rings.zero(ring) for i in range(self.generators)]
            zero = [i >= n or rings.is_zero(ring, e) for i, e in enumerate(diag)]
            tor_idx = [i for i, e in enumerate(diag) if not zero[i] and not rings.is_unit(ring, e)]
            self._diagonal = (diag, tor_idx, [i for i, z in enumerate(zero) if z])
        return self._diagonal

    def reduction(self) -> tuple["FpModule", "FpMorphism", "FpMorphism"]:
        """``reduce_presentation(self)`` with mutually inverse isomorphisms
        a : self -> reduced and b : reduced -> self, read off the Smith form.

        With U * P * V = D, U * P = D * V^-1 and P * V = U^-1 * D; for
        idx = torsion then free indices, a = (U[idx, :], V^-1[torsion, :])
        and b = (U^-1[:, idx], V[:, torsion]).  U^-1 and V are replayed at
        those columns alone, V^-1 not at all: its row i is (U * P)[i] / d_i.
        """
        if self._reduction is not None:
            return self._reduction
        if not self.relations:  # a presentation without relations is already reduced
            ident = FpMorphism.identity(self)
            self._reduction = (self, ident, ident)
            return self._reduction
        ring, snf = self.ring, self.snf()
        diag, tor_idx, free_idx = self.smith_diagonal()
        idx = tor_idx + free_idx
        canon = FpModule.from_invariants(ring, [diag[i] for i in tor_idx], len(free_idx))
        up = snf.u.take_rows(tor_idx) * self.presentation
        v_inv = IntMatrix.from_rows(ring, [[rings.exact_div(ring, e, diag[i]) for e in up.row(k)]
                                           for k, i in enumerate(tor_idx)], cols=self.relations)
        self._reduction = (canon, FpMorphism(self, canon, snf.u.take_rows(idx), v_inv),
                           FpMorphism(canon, self, snf.u_inv(idx), snf.v_columns(tor_idx)))
        return self._reduction

    def invariant_data(self) -> tuple:
        diag, tor_idx, free_idx = self.smith_diagonal()
        return (len(free_idx), tuple(diag[i] for i in tor_idx))

    def is_zero_module(self) -> bool:
        _, tor_idx, free_idx = self.smith_diagonal()
        return not tor_idx and not free_idx

    def is_free(self) -> bool:
        return not self.smith_diagonal()[1]

    def is_torsion(self) -> bool:
        return not self.smith_diagonal()[2]

    def is_isomorphic(self, other: "FpModule") -> bool:
        return self.ring is other.ring and self.invariant_data() == other.invariant_data()

    def __repr__(self) -> str:
        fr, tor = self.invariant_data()
        return f"FpModule(free_rank={fr}, torsion={list(tor)})"


class FpMorphism:
    """A morphism of finitely presented modules.

    ``gen`` maps generators to generators; ``witness`` certifies
    gen * P_src = P_tgt * witness, so the map descends to the cokernels.
    Its kernel system [gen | -P_tgt] is diagonalised once, when first read
    (``kernel_solver``): the kernel, image membership and the epi test all
    read that one diagonalisation.
    """

    def __init__(self, source: FpModule, target: FpModule,
                 gen: IntMatrix, witness: IntMatrix):
        if source.ring is not target.ring or gen.ring is not source.ring \
                or witness.ring is not source.ring:
            raise rings_mismatch(source, target)
        if gen.rows != target.generators or gen.cols != source.generators:
            raise DimensionMismatchError("generator matrix shape mismatch")
        if witness.rows != target.relations or witness.cols != source.relations:
            raise DimensionMismatchError("witness shape mismatch")
        # without source relations both sides are b_tgt x 0, so equal
        if source.relations and gen * source.presentation != target.presentation * witness:
            raise ValueError("witness equation violated")
        self.source = source
        self.target = target
        self.gen = gen
        self.witness = witness
        self._kernel_solver = None

    def kernel_solver(self) -> PreparedSolver:
        if self._kernel_solver is None:
            self._kernel_solver = PreparedSolver(self.gen.hstack(-self.target.presentation))
        return self._kernel_solver

    @classmethod
    def from_generator_matrix(cls, source: FpModule, target: FpModule,
                              gen: IntMatrix) -> "FpMorphism":
        w = target.relation_solver().solve(gen * source.presentation)
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

def same_module(a: FpModule, b: FpModule) -> bool:
    """Whether a and b are one module: the same object or one presentation."""
    return a is b or a.presentation == b.presentation


def compose(g: FpMorphism, f: FpMorphism) -> FpMorphism:
    """g after f."""
    if not same_module(f.target, g.source):
        raise ValueError("non-composable morphisms")
    return FpMorphism(f.source, g.target, g.gen * f.gen, g.witness * f.witness)


def composite_is_zero(g: FpMorphism, f: FpMorphism) -> bool:
    """Whether g after f is zero, decided on g.gen * f.gen with no composite
    built."""
    if not same_module(f.target, g.source):
        raise ValueError("non-composable morphisms")
    return factors_through_relations(g.target, g.gen * f.gen)


def factors_through_relations(m: FpModule, gen: IntMatrix) -> bool:
    """Whether the columns of ``gen``, in m's generators, vanish in m: one
    solve on m's relation solver, or none where m has no relations."""
    if not m.relations:  # nothing to factor through
        return gen.is_zero()
    return m.relation_solver().solve(gen) is not None


def morphism_equal(f: FpMorphism, g: FpMorphism) -> bool:
    """Whether f and g agree, i.e. their difference factors through P_tgt."""
    if f.source.presentation != g.source.presentation \
            or f.target.presentation != g.target.presentation:
        return False
    return factors_through_relations(f.target, f.gen - g.gen)


def is_zero_morphism(f: FpMorphism) -> bool:
    return factors_through_relations(f.target, f.gen)


def add_morphisms(f: FpMorphism, g: FpMorphism) -> FpMorphism:
    return FpMorphism(f.source, f.target, f.gen + g.gen, f.witness + g.witness)


def negate(f: FpMorphism) -> FpMorphism:
    return FpMorphism(f.source, f.target, -f.gen, -f.witness)


def _solve_by_runs(m: FpModule, y: FpModule, rhs: IntMatrix,
                   system) -> Optional[tuple[IntMatrix, IntMatrix]]:
    """One solve of system(d) * X = [B; 0] per run of equal entries d of m's
    reduced presentation [diag(d); 0], B the columns of ``rhs`` at the run.
    Returns the solutions' top rows, one per generator of y, side by side,
    and their bottom rows, one per relation of y, for d != 0; or None."""
    ring, p = m.ring, m.presentation
    diag = [p.at(i, i) if i < p.cols else rings.zero(ring) for i in range(p.rows)]
    heads, tails = IntMatrix.zeros(ring, y.generators, 0), IntMatrix.zeros(ring, y.relations, 0)
    for d, run in groupby(range(p.rows), key=diag.__getitem__):
        a, b = system(d), rhs.take_columns(run)
        sol = solve_lift(a, b.vstack(IntMatrix.zeros(ring, a.rows - b.rows, b.cols)))
        if sol is None:
            return None
        heads = heads.hstack(sol.take_rows(range(y.generators)))
        if not rings.is_zero(ring, d):
            tails = tails.hstack(sol.take_rows(range(sol.rows - y.relations, sol.rows)))
    return heads, tails


def factor(g: FpMorphism, through: FpMorphism) -> Optional[FpMorphism]:
    """A morphism h with through o h = g, or None: a lift or a factorisation.

    Plain solves on the reduced presentation a : X -> x, P_x = [diag(d); 0],
    of g's source: H : x -> Y descends iff each d_i * H_i is in im P_Y, so
    column i of H solves [[T, P_Z, 0], [d_i I, 0, -P_Y]] (T = through.gen)
    against [G_i; 0], the bottom block its witness column; h = H o a."""
    if g.target.presentation != through.target.presentation:
        raise ValueError("factor: targets differ")
    x, to_x, from_x = g.source.reduction()
    y, ring = through.source, x.ring
    top = through.gen.hstack(g.target.presentation)

    def system(d):  # a free generator has no descent condition
        return top if rings.is_zero(ring, d) else block_matrix(
            ring, [top.rows, y.generators], [top.cols, y.relations],
            {(0, 0): top, (1, 0): IntMatrix.diagonal(ring, [d] * y.generators, cols=top.cols),
             (1, 1): -y.presentation})

    reduced = x is not g.source  # else the reduction is the identity
    sol = _solve_by_runs(x, y, g.gen * from_x.gen if reduced else g.gen, system)
    if sol is None:
        return None
    h = FpMorphism(x, y, *sol)
    return compose(h, to_x) if reduced else h


def cofactor(g: FpMorphism, through: FpMorphism) -> Optional[FpMorphism]:
    """A morphism h with h o through = g, or None, as for cokernel projections.

    The mirror image of ``factor``, on the reduced presentation b : z -> Z of
    g's target, P_z = [diag(e); 0]: row j of H : Y -> z solves
    [[T^T, e_j I, 0], [P_Y^T, 0, -e_j I]] against [G_j^T; 0]; h = b o H."""
    if g.source.presentation != through.source.presentation:
        raise ValueError("cofactor: sources differ")
    z, to_z, from_z = g.target.reduction()
    y, ring = through.target, z.ring
    left = through.gen.transpose().vstack(y.presentation.transpose())

    def system(e):  # a free generator has no descent condition
        return left if rings.is_zero(ring, e) else left.hstack(IntMatrix.diagonal(
            ring, [e] * through.gen.cols + [-e] * y.relations))

    reduced = z is not g.target  # else the reduction is the identity
    sol = _solve_by_runs(z, y, (to_z.gen * g.gen if reduced else g.gen).transpose(), system)
    if sol is None:
        return None
    h = FpMorphism(y, z, sol[0].transpose(), sol[1].transpose())
    return compose(from_z, h) if reduced else h


# -- kernels, cokernels, images -------------------------------------------

def span_quotient(gens: IntMatrix, rels: IntMatrix) -> tuple[FpModule, IntMatrix]:
    """The module spanned by the columns of ``gens`` modulo ``rels``.

    Returns (module, witness) where the module has one generator per column
    of ``gens`` and witness solves gens * presentation = rels * witness.
    """
    pair = kernel_matrix(gens.hstack(-rels))
    pres = pair.take_rows(range(gens.cols))
    wit = pair.take_rows(range(gens.cols, gens.cols + rels.cols))
    return FpModule(pres), wit


def kernel_generators(f: FpMorphism) -> IntMatrix:
    """Columns, in the source's generators, that generate ker f: the top
    rows of the kernel of f's kernel system [gen | -P_tgt]."""
    return f.kernel_solver().kernel().take_rows(range(f.source.generators))


def kernel(f: FpMorphism) -> FpMorphism:
    """The monic inclusion ker f -> f.source; ker f is its source."""
    u = kernel_generators(f)
    k_mod, wit = span_quotient(u, f.source.presentation)
    return FpMorphism(k_mod, f.source, u, wit)


def cokernel(f: FpMorphism) -> FpMorphism:
    """The epi f.target -> coker f, the identity on generators; coker f, its
    target, is presented by [P_tgt | gen] on the target's generators."""
    ring, a = f.source.ring, f.target.relations
    w = IntMatrix.diagonal(ring, [rings.one(ring)] * a, rows=a + f.source.generators)
    return FpMorphism(f.target, FpModule(f.target.presentation.hstack(f.gen)),
                      IntMatrix.identity(ring, f.target.generators), w)


def image(f: FpMorphism) -> FpMorphism:
    """The inclusion im f -> f.target; the image submodule is its source."""
    im_mod, wit = span_quotient(f.gen, f.target.presentation)
    return FpMorphism(im_mod, f.target, f.gen, wit)


def corestrict_to_image(f: FpMorphism) -> tuple[FpMorphism, FpMorphism]:
    """f = incl o surj through its image; returns (surj, incl)."""
    incl = image(f)
    # the image generators are the columns of f.gen, one per source generator
    surj = FpMorphism.from_generator_matrix(
        f.source, incl.source, IntMatrix.identity(f.source.ring, f.source.generators))
    return surj, incl


def in_image(f: FpMorphism, elements: IntMatrix) -> bool:
    """Whether the columns of ``elements``, in the target's generators, lie
    in im f: one solve on f's kernel system, since [gen | -P_tgt] and
    [gen | P_tgt] are solvable for the same right sides."""
    return f.kernel_solver().solve(elements) is not None


def is_epi(f: FpMorphism) -> bool:
    return in_image(f, IntMatrix.identity(f.source.ring, f.target.generators))


def is_mono(f: FpMorphism) -> bool:
    # ker f is zero iff its generators already lie in the source's relations
    return factors_through_relations(f.source, kernel_generators(f))


def is_iso(f: FpMorphism) -> bool:
    return is_mono(f) and is_epi(f)


def inverse(f: FpMorphism) -> FpMorphism:
    """Two-sided inverse of an isomorphism."""
    inv = factor(FpMorphism.identity(f.target), f)
    if inv is None or not morphism_equal(compose(inv, f), FpMorphism.identity(f.source)):
        raise ValueError("morphism is not an isomorphism")
    return inv


def direct_sum(ms: Sequence[FpModule]) -> FpModule:
    """The direct sum, presented block-diagonally: its generators and its
    relations are those of the summands, in order.  ``injection`` and
    ``projection`` build a summand's structure maps where one is read."""
    if not ms:
        raise ValueError("empty direct sum; use FpModule.zero")
    return FpModule(block_diag(ms[0].ring, [m.presentation for m in ms]))


def injection(ms: Sequence[FpModule], total: FpModule, k: int) -> FpMorphism:
    """ms[k] -> total = direct_sum(ms): the block inclusions of generators
    and of relations."""
    ring, m = total.ring, ms[k]
    e_gen = block_matrix(ring, [p.generators for p in ms], [m.generators],
                         {(k, 0): IntMatrix.identity(ring, m.generators)})
    e_rel = block_matrix(ring, [p.relations for p in ms], [m.relations],
                         {(k, 0): IntMatrix.identity(ring, m.relations)})
    return FpMorphism(m, total, e_gen, e_rel)


def projection(total: FpModule, ms: Sequence[FpModule], k: int) -> FpMorphism:
    """total = direct_sum(ms) -> ms[k]: the transposes of the block
    inclusions of ``injection``."""
    ring, m = total.ring, ms[k]
    e_gen = block_matrix(ring, [m.generators], [p.generators for p in ms],
                         {(0, k): IntMatrix.identity(ring, m.generators)})
    e_rel = block_matrix(ring, [m.relations], [p.relations for p in ms],
                         {(0, k): IntMatrix.identity(ring, m.relations)})
    return FpMorphism(total, m, e_gen, e_rel)


def block_morphism(source: FpModule, target: FpModule,
                   source_parts: Sequence[FpModule], target_parts: Sequence[FpModule],
                   blocks: dict[tuple[int, int], FpMorphism]) -> FpMorphism:
    """The morphism from source = (+) source_parts to target = (+) target_parts
    whose (i, j) block is blocks[i, j] : source_parts[j] -> target_parts[i],
    zero where absent.  source and target are the ``direct_sum``s of their
    parts, presented block-diagonally, so the blocks' witnesses, placed like
    their generator matrices, witness the map.
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
            if not same_module(end, part):
                raise ValueError(f"block {(i, j)} does not sit between its parts")
    return FpMorphism(source, target, gen, witness)


# -- hom groups (integers only) ---------------------------------------------

class HomGroup:
    """Hom(M, N) as a finitely presented abelian group.

    Generator i is the morphism whose vectorised generator matrix and witness
    are column i of ``gen_vecs`` and ``wit_vecs``; ``element(coords)`` adds
    them up.  The zero morphisms span T = I kron P_N.  ``module``, the
    quotient, and ``pushforward``, the coordinates of composites, read one
    diagonalisation of [gen_vecs | -T], built when first read.

    A source without relations needs none: gen_vecs = I there, so the
    kernel of [I | -T] is [T; I], ``module`` is T (Hom(R^m, N) = N^m), and a
    composite's coordinates are its own vectorised generator matrix, the
    particular solution [vec; 0]: the diagonalisation's matrices, entry for
    entry.  The pushforward along f is then I kron f.gen, placed as the
    diagonal blocks of ``block_diag`` with no product.  The pushforward along
    an identity into the group itself is the identity, read, not solved.
    """

    def __init__(self, source: FpModule, target: FpModule,
                 gen_vecs: IntMatrix, wit_vecs: IntMatrix):
        self.source = source
        self.target = target
        self._gen_vecs = gen_vecs
        self._wit_vecs = wit_vecs
        self._module = None
        self._coord_solver = None

    @property
    def generators(self) -> int:
        return self._gen_vecs.cols

    @property
    def module(self) -> FpModule:
        if self._module is None:
            if self.source.relations:
                pres = self._solver().kernel().take_rows(range(self.generators))
            else:
                pres = block_diag(self.source.ring,
                                  [self.target.presentation] * self.source.generators)
            self._module = FpModule(pres)
        return self._module

    def element(self, coords: Sequence[int]) -> FpMorphism:
        ring = self.source.ring
        col = IntMatrix.from_rows(ring, [[c] for c in coords], cols=1)
        g = unvec(self._gen_vecs * col, self.target.generators, self.source.generators)
        w = unvec(self._wit_vecs * col, self.target.relations, self.source.relations)
        return FpMorphism(self.source, self.target, g, w)

    def generator(self, i: int) -> FpMorphism:
        coords = [0] * self.generators
        coords[i] = 1
        return self.element(coords)

    def _solver(self) -> PreparedSolver:
        if self._coord_solver is None:
            self._coord_solver = PreparedSolver(_beside_negated_blocks(
                self._gen_vecs, self.target.presentation, self.source.generators))
        return self._coord_solver

    def pushforward(self, f: FpMorphism, tgt: "HomGroup") -> IntMatrix:
        """The generator matrix of f o - : self.module -> tgt.module.

        Column i holds the coordinates in tgt of f composed with generator i.
        All compositions are formed at once, since vec(f.gen * G) =
        (I kron f.gen) * vec(G): f.gen times the b_n-row blocks of the
        columns of gen_vecs laid side by side, solved on tgt's solver.  A
        source without relations has gen_vecs = I, so the coordinates are
        I kron f.gen itself.  Along the shared identity into this same
        group, f o g_i = g_i: the identity, with no product or solve.
        Raises ValueError unless f : self.target -> tgt.target and tgt has
        self's source.
        """
        if not (same_module(f.source, self.target) and same_module(f.target, tgt.target)
                and same_module(tgt.source, self.source)):
            raise ValueError("pushforward: f and the hom groups do not match")
        gens, b_n, b_m = self._gen_vecs, self.target.generators, self.source.generators
        if tgt is self and f.gen is IntMatrix.identity(gens.ring, b_n):
            return IntMatrix.identity(gens.ring, self.generators)
        if not self.source.relations:
            return block_diag(gens.ring, [f.gen] * b_m)
        side = [[e for l in range(b_m) for e in gens.row(l * b_n + i)] for i in range(b_n)]
        prod, n = f.gen * IntMatrix.from_rows(gens.ring, side, cols=b_m * gens.cols), gens.cols
        images = IntMatrix.from_rows(gens.ring, [
            prod.row(i)[l * n:(l + 1) * n] for l in range(b_m) for i in range(prod.rows)], cols=n)
        sol = tgt._solver().solve(images)
        if sol is None:
            raise AssertionError("pushforward left the hom group")
        return sol.take_rows(range(tgt.generators))


def hom_group(source: FpModule, target: FpModule) -> HomGroup:
    """The abelian group of morphisms source -> target (ring = Z).

    Its generators span the solutions of G * P_M = P_N * W; without source
    relations that is every G, so they are the unit vectors, with empty
    witnesses, written down without posing the system, and the group is
    N^m in closed form (see ``HomGroup``)."""
    ring = source.ring
    if ring is not RingSpec.INTEGERS:
        raise UnsupportedRingError("hom groups are computed over the integers")
    b_n = target.generators
    if not source.relations:
        size = b_n * source.generators
        return HomGroup(source, target, IntMatrix.identity(ring, size),
                        IntMatrix.zeros(ring, 0, size))
    p_mt, zero = source.presentation.transpose(), rings.zero(ring)
    # solutions (vec G, vec W) of G * P_M - P_N * W = 0: row (j, i) holds
    # P_M[l][j] at column l * b_n + i and -P_N[i] in witness block j
    rows = [[e if k == i else zero for e in p_mt.row(j) for k in range(b_n)]
            for j in range(p_mt.rows) for i in range(b_n)]
    left = IntMatrix.from_rows(ring, rows, cols=p_mt.cols * b_n)
    sols = kernel_matrix(_beside_negated_blocks(left, target.presentation, p_mt.rows))
    return HomGroup(source, target, sols.take_rows(range(left.cols)),
                    sols.take_rows(range(left.cols, sols.rows)))


def _beside_negated_blocks(left: IntMatrix, p: IntMatrix, count: int) -> IntMatrix:
    """[left | I kron -p], I of size count, placed without products: row
    k * p.rows + i of left goes on with -p[i] in block k."""
    neg, zeros = -p, [rings.zero(p.ring)] * p.cols
    rows = [[*left.row(k * p.rows + i), *zeros * k, *neg.row(i), *zeros * (count - k - 1)]
            for k in range(count) for i in range(p.rows)]
    return IntMatrix.from_rows(p.ring, rows, cols=left.cols + count * p.cols)


# -- torsion pair over Z -----------------------------------------------------

def torsion_decompose(m: FpModule) -> tuple[FpMorphism, FpMorphism]:
    """The short exact sequence 0 -> tM -> M -> M/tM -> 0 over Z, as its
    two maps (incl, proj): tM, the (finite) torsion part, is incl.source,
    and M/tM, free, is proj.target.
    """
    if m.ring is not RingSpec.INTEGERS:
        raise UnsupportedRingError("torsion decomposition needs ring = Z")
    diag, tor_idx, _ = m.smith_diagonal()
    t_mod = FpModule.from_invariants(m.ring, [diag[i] for i in tor_idx], 0)
    if tor_idx:  # U^-1 * D = P * V, so the columns of V at tor_idx witness it
        incl = FpMorphism(t_mod, m, m.snf().u_inv(tor_idx), m.snf().v_columns(tor_idx))
    else:  # the zero inclusion reads no Smith form
        incl = FpMorphism.zero(t_mod, m)
    return incl, free_quotient(m)


def free_quotient(m: FpModule) -> FpMorphism:
    """The projection onto the maximal free quotient, over any catalogued
    ring.  Without relations it is the identity on generators, read with no
    Smith form."""
    ring = m.ring
    _, _, free_idx = m.smith_diagonal()
    f_mod = FpModule.free(ring, len(free_idx))
    if m.relations:
        # the rows of U at free_idx kill P, since those rows of D = U * P * V vanish
        gen = m.snf().u.take_rows(free_idx)
    else:
        gen = IntMatrix.identity(ring, m.generators)
    return FpMorphism(m, f_mod, gen, IntMatrix.zeros(ring, 0, m.relations))


def embed_into_free(m: FpModule) -> Optional[FpMorphism]:
    """A monomorphism into a free module, when one exists (M torsion-free):
    the free quotient, mono because the torsion part vanishes."""
    return free_quotient(m) if m.is_free() else None


# -- projective resolutions ---------------------------------------------------

def projective_resolution(m: FpModule) -> list[IntMatrix]:
    """Matrices [d1] of a free resolution 0 -> F_1 -> F_0 -> M -> 0, or []
    when M is free.

    d1 is the reduced presentation [diag(d); 0]: over a PID every d is
    nonzero, so d1 is injective and the resolution has length at most 1.
    """
    p = reduce_presentation(m).presentation
    return [p] if p.cols else []


def reduce_presentation(m: FpModule) -> FpModule:
    """The canonical SNF-reduced presentation (unit factors dropped)."""
    fr, tor = m.invariant_data()
    return FpModule.from_invariants(m.ring, list(tor), fr)


def pullback(f: FpMorphism, g: FpMorphism) -> tuple[FpMorphism, FpMorphism]:
    """The legs (to A, to B) of the pullback of f : A -> C along g : B -> C,
    their common source.  Along an identity of A it is B itself, with legs g
    and the identity of B."""
    leg_a, incl_gen, wit = _pullback_leg(f, g)
    n, r = f.source.generators, f.source.relations
    leg_b = FpMorphism(leg_a.source, g.source, incl_gen.take_rows(range(n, incl_gen.rows)),
                       wit.take_rows(range(r, wit.rows)))
    return leg_a, leg_b


def _pullback_leg(f: FpMorphism, g: FpMorphism) -> tuple[FpMorphism, IntMatrix, IntMatrix]:
    """``pullback``'s leg to A, with the inclusion into A (+) B and its
    witness, whose row blocks below A's are the leg to B.

    Where f is the identity of A (the shared identity on generators from A
    to A itself, whatever its witness) the pullback is B with no system
    posed: the leg to A is g, the inclusion [g.gen; I] with witness
    [g.witness; I], as [g.gen * P_B; P_B] = diag(P_A, P_B) * [g.witness; I].
    """
    if f.target.presentation != g.target.presentation:
        raise ValueError("pullback targets differ")
    a, b = f.source, g.source
    if f.gen is IntMatrix.identity(a.ring, a.generators) and same_module(a, f.target):
        return (g, g.gen.vstack(IntMatrix.identity(b.ring, b.generators)),
                g.witness.vstack(IntMatrix.identity(b.ring, b.relations)))
    # the kernel of [f, -g] on A (+) B, posed on matrices: its generators are
    # the kernel of [f.gen | -g.gen | -P_C] cut to A (+) B, its relations
    # those of the block-diagonal presentation of the sum
    pair = kernel_matrix(f.gen.hstack(-g.gen).hstack(-f.target.presentation))
    incl_gen = pair.take_rows(range(a.generators + b.generators))
    p_mod, wit = span_quotient(incl_gen, block_diag(a.ring, [a.presentation, b.presentation]))
    # a leg is its summand's row block of the inclusion, on generators and on
    # relations alike
    leg_a = FpMorphism(p_mod, a, incl_gen.take_rows(range(a.generators)),
                       wit.take_rows(range(a.relations)))
    return leg_a, incl_gen, wit


def pushout(f: FpMorphism, g: FpMorphism) -> tuple[FpMorphism, FpMorphism]:
    """The legs (from A, from B) of the pushout of f : C -> A along
    g : C -> B, their common target."""
    if f.source.presentation != g.source.presentation:
        raise ValueError("pushout sources differ")
    parts = [f.target, g.target]
    total = direct_sum(parts)
    diff = block_morphism(f.source, total, [f.source], parts, {(0, 0): f, (1, 0): negate(g)})
    proj = cokernel(diff)
    return compose(proj, injection(parts, total, 0)), compose(proj, injection(parts, total, 1))
