"""Reference implementations that the verifier no longer runs.

``factor`` and ``cofactor`` below solve one Kronecker-vectorised system on
the reduced presentations of all four modules involved.  ``modules.factor``
and ``modules.cofactor`` pose the descent condition per generator instead;
the tests check that both agree on whether a solution exists, and on the
solution where it is unique.
"""

from __future__ import annotations

from typing import Optional

from tiltbench.matrices import IntMatrix, block_matrix, kron, solve_lift, unvec, vec
from tiltbench.modules import FpModule, FpMorphism


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
