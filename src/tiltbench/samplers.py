"""Seeded random generators for matrices, modules, complexes and morphisms.

Distributions are fixed and versioned with the report format: matrix
entries uniform in [-bound, bound], complex widths uniform in [1, max].
Every sample derives its own generator from (seed, label, index) so suites
reproduce identically regardless of evaluation order.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from . import modules
from .complexes import Complex, direct_sum_complexes, free_complex
from .exactness import Carrier
from .matrices import IntMatrix, kernel_matrix, solve_lift
from .modules import FpModule, FpMorphism
from .rings import RingSpec

Z = RingSpec.INTEGERS


@dataclass(frozen=True)
class SizeBounds:
    max_rank: int = 3
    max_entry: int = 10
    max_width: int = 4


def split_seed(seed: int, *labels) -> int:
    h = hashlib.sha256()
    h.update(str(seed).encode())
    for lab in labels:
        h.update(b"/")
        h.update(str(lab).encode())
    return int.from_bytes(h.digest()[:8], "big")


def rng_for(seed: int, *labels) -> random.Random:
    return random.Random(split_seed(seed, *labels))


def random_matrix(rnd: random.Random, rows: int, cols: int, bound: int) -> IntMatrix:
    return IntMatrix.from_rows(
        Z, [[rnd.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)],
        cols=cols)


def random_module(rnd: random.Random, bounds: SizeBounds) -> FpModule:
    gens = rnd.randint(1, bounds.max_rank)
    rels = rnd.randint(0, bounds.max_rank)
    return FpModule(random_matrix(rnd, gens, rels, bounds.max_entry))


def random_torsion_module(rnd: random.Random, bounds: SizeBounds) -> FpModule:
    n = rnd.randint(1, bounds.max_rank)
    divisors = [rnd.choice([2, 2, 3, 4, 5, 6, 8, 9, 12]) for _ in range(n)]
    return FpModule.from_invariants(Z, divisors, 0)


def random_free_module(rnd: random.Random, bounds: SizeBounds) -> FpModule:
    return FpModule.free(Z, rnd.randint(0, bounds.max_rank))


def random_morphism(rnd: random.Random, src: FpModule, tgt: FpModule,
                    bound: int = 2) -> FpMorphism:
    """A random element of Hom(src, tgt), through the hom-group generators."""
    h = modules.hom_group(src, tgt)
    if h.generators == 0:
        return FpMorphism.zero(src, tgt)
    coords = [rnd.randint(-bound, bound) for _ in range(h.generators)]
    return h.element(coords)


def random_free_complex(rnd: random.Random, bounds: SizeBounds) -> Complex:
    """A random bounded complex of free modules with d o d = 0.

    Differentials are drawn from the exact annihilator of the previous one,
    so arbitrary widths carry honestly composable differentials.
    """
    width = rnd.randint(1, bounds.max_width)
    lo = rnd.randint(-2, 1)
    ranks = [rnd.randint(1, bounds.max_rank) for _ in range(width)]
    mats: list[IntMatrix] = []
    for i in range(width - 1):
        if not mats:
            mats.append(random_matrix(rnd, ranks[i + 1], ranks[i], bounds.max_entry))
            continue
        prev = mats[-1]
        ann = kernel_matrix(prev.transpose())  # rows orthogonal to prev columns
        if ann.cols == 0:
            mats.append(IntMatrix.zeros(Z, ranks[i + 1], prev.rows))
            ranks[i + 1] = mats[-1].rows
            continue
        coeff = random_matrix(rnd, ranks[i + 1], ann.cols, 2)
        mats.append(coeff * ann.transpose())
    if width == 1:
        return free_complex(Z, lo, [], first_rank=ranks[0])
    return free_complex(Z, lo, mats)


def random_fp_complex(rnd: random.Random, bounds: SizeBounds) -> Complex:
    """A random bounded complex of finitely presented modules.

    Built left to right: each next differential is a random hom out of the
    previous cokernel, so d o d = 0 holds by construction.
    """
    width = rnd.randint(1, bounds.max_width)
    lo = rnd.randint(-2, 1)
    objs = [random_module(rnd, bounds)]
    diffs: list[FpMorphism] = []
    for _ in range(width - 1):
        nxt = random_module(rnd, bounds)
        if not diffs:
            diffs.append(random_morphism(rnd, objs[-1], nxt))
        else:
            proj = modules.cokernel_projection(diffs[-1])
            diffs.append(modules.compose(random_morphism(rnd, proj.target, nxt), proj))
        objs.append(nxt)
    return Complex(Z, lo, objs, diffs)


def random_carrier_module(ex, rnd: random.Random, bounds: SizeBounds) -> FpModule:
    if ex.carrier is Carrier.TORSION_Z:
        return random_torsion_module(rnd, bounds)
    if ex.carrier is Carrier.FP_Z:
        return random_module(rnd, bounds)
    m = random_free_module(rnd, bounds)
    return m if m.generators else FpModule.free(Z, 1)


def random_carrier_map(ex, rnd: random.Random, bounds: SizeBounds,
                       src: FpModule, tgt: FpModule) -> FpMorphism:
    """A random map src -> tgt in the carrier: a random matrix between free
    modules on ``FREE_Z``, a random hom-group element otherwise."""
    if ex.carrier is Carrier.FREE_Z:
        return FpMorphism.from_generator_matrix(
            src, tgt, random_matrix(rnd, tgt.generators, src.generators,
                                    bounds.max_entry))
    return random_morphism(rnd, src, tgt)


def random_carrier_morphism(ex, rnd: random.Random, bounds: SizeBounds) -> FpMorphism:
    src = random_carrier_module(ex, rnd, bounds)
    tgt = random_carrier_module(ex, rnd, bounds)
    return random_carrier_map(ex, rnd, bounds, src, tgt)


def random_carrier_deflation(ex, rnd: random.Random, bounds: SizeBounds) -> FpMorphism:
    """A deflation in the carrier: corestriction of a random map to its image."""
    f = random_carrier_morphism(ex, rnd, bounds)
    _, surj, _ = modules.corestrict_to_image(f)
    return surj


def random_unimodular(rnd: random.Random, n: int) -> IntMatrix:
    """A random unimodular matrix: a product of four shears and swaps."""
    m = IntMatrix.identity(Z, n).to_rows()
    for _ in range(4 if n > 1 else 0):
        i, j = rnd.randrange(n), rnd.randrange(n)
        if i == j:
            continue
        if rnd.random() < 0.3:
            m[i], m[j] = m[j], m[i]
        else:
            c = rnd.randint(-2, 2)
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return IntMatrix.from_rows(Z, m, cols=n)


def disguise_free_complex(rnd: random.Random, c: Complex) -> Complex:
    """Conjugate every degree by a random unimodular change of basis."""
    us = {n: random_unimodular(rnd, c.object_at(n).generators) for n in c.degrees()}
    mats = []
    for n in range(c.lo, c.hi):
        u_inv = solve_lift(us[n], IntMatrix.identity(Z, us[n].rows))
        mats.append(us[n + 1] * c.differential_at(n).gen * u_inv)
    if not mats:
        return free_complex(Z, c.lo, [], first_rank=c.object_at(c.lo).generators)
    return free_complex(Z, c.lo, mats)


def random_exact_free_complex(rnd: random.Random, bounds: SizeBounds) -> Complex:
    """An exact bounded free complex: disguised sums of [Z --1--> Z] pieces,
    so it has at least two entries, whatever ``bounds.max_width``."""
    width = rnd.randint(2, max(2, bounds.max_width))
    lo = rnd.randint(-2, 0)
    counts = [rnd.randint(0, 2) for _ in range(width - 1)]
    if sum(counts) == 0:
        counts[rnd.randrange(width - 1)] = 1
    # level i holds the targets of pieces from i-1, then the sources at i
    ranks = [0] * width
    for pos, k in enumerate(counts):
        ranks[pos] += k
        ranks[pos + 1] += k
    mats = []
    for i in range(width - 1):
        rows = [[0] * ranks[i] for _ in range(ranks[i + 1])]
        for t in range(counts[i]):
            rows[t][ranks[i] - counts[i] + t] = 1
        mats.append(IntMatrix.from_rows(Z, rows, cols=ranks[i]))
    plain = free_complex(Z, lo, mats)
    return disguise_free_complex(rnd, plain)


def random_disguised_free_stalk(rnd: random.Random, bounds: SizeBounds) -> tuple[Complex, int]:
    """A complex homotopy-equivalent to a free stalk in degree 0, plus the
    hidden rank."""
    rank = rnd.randint(0, bounds.max_rank)
    stalk = free_complex(Z, 0, [], first_rank=rank)
    if rnd.random() < 0.7:
        pad = random_exact_free_complex(rnd, SizeBounds(2, 1, min(bounds.max_width, 3)))
        total = direct_sum_complexes([stalk, pad])
        rebuilt = free_complex(Z, total.lo,
                               [total.differential_at(n).gen
                                for n in range(total.lo, total.hi)])
        return disguise_free_complex(rnd, rebuilt), rank
    return disguise_free_complex(rnd, stalk), rank
