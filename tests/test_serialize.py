import json

import pytest

from tiltbench.complexes import free_complex
from tiltbench.matrices import IntMatrix
from tiltbench.modules import FpModule, FpMorphism
from tiltbench.rings import QPoly, RingSpec
from tiltbench.samplers import SizeBounds, random_fp_complex, rng_for
from tiltbench.serialize import (
    complex_from_json,
    complex_to_json,
    matrix_from_json,
    matrix_to_json,
    module_from_json,
    module_to_json,
    morphism_from_json,
    morphism_to_json,
)

Z = RingSpec.INTEGERS
QX = RingSpec.RATIONAL_POLYNOMIALS


def through_json(data):
    return json.loads(json.dumps(data))


def test_matrix_round_trip_integers():
    m = IntMatrix.from_rows(Z, [[2 ** 80, -3], [0, 5]])
    back = matrix_from_json(through_json(matrix_to_json(m)))
    assert back == m


def test_matrix_round_trip_polynomials():
    x = QPoly.x()
    m = IntMatrix.from_rows(QX, [[x * x - QPoly.const(1), QPoly((0, 1, 2))]])
    back = matrix_from_json(through_json(matrix_to_json(m)))
    assert back == m


def test_module_and_morphism_round_trip():
    m = FpModule(IntMatrix.from_rows(Z, [[2, 4], [6, 8]]))
    back = module_from_json(through_json(module_to_json(m)))
    assert back.presentation == m.presentation
    f = FpMorphism.identity(m)
    f_back = morphism_from_json(through_json(morphism_to_json(f)))
    assert f_back.gen == f.gen and f_back.witness == f.witness


def test_complex_round_trip():
    c = free_complex(Z, -1, [IntMatrix.from_rows(Z, [[2]])])
    back = complex_from_json(through_json(complex_to_json(c)))
    assert back.lo == c.lo and back.hi == c.hi
    for n in c.degrees():
        assert back.object_at(n).presentation == c.object_at(n).presentation
    assert back.differential_at(-1).gen == c.differential_at(-1).gen


def test_fp_complex_round_trip():
    # entries with relations and differentials with nonzero witnesses survive
    # bit for bit; a complex is its entries and differentials, with no
    # ambient-category field
    bounds = SizeBounds(max_rank=3, max_entry=5, max_width=4)
    relations = witnesses = 0
    for i in range(10):
        c = random_fp_complex(rng_for(3, "serialize-fp", i), bounds)
        data = through_json(complex_to_json(c))
        assert "base" not in data
        back = complex_from_json(data)
        assert (back.ring, back.lo, back.hi) == (c.ring, c.lo, c.hi)
        for n in c.degrees():
            assert back.object_at(n).presentation == c.object_at(n).presentation
            relations += c.object_at(n).relations
        for n in range(c.lo, c.hi):
            d, d_back = c.differential_at(n), back.differential_at(n)
            assert (d_back.gen, d_back.witness) == (d.gen, d.witness)
            witnesses += not d.witness.is_zero()
    assert relations and witnesses


def test_complex_from_json_rejects_a_non_complex():
    # [1] then [1] are morphisms Z -> Z -> Z whose composite is not zero
    zero = IntMatrix.from_rows(Z, [[0]])
    c = free_complex(Z, 0, [zero, zero])
    data = through_json(complex_to_json(c))
    data["differentials"] = [matrix_to_json(IntMatrix.from_rows(Z, [[1]]))] * 2
    with pytest.raises(ValueError, match="d o d"):
        complex_from_json(data)
