"""JSON encodings for the algebraic values.

Integers serialise as decimal strings (arbitrary precision survives),
polynomials as lists of "p/q" coefficient strings, matrices with explicit
row/column counts, modules, morphisms and complexes as tagged objects.  Round trips
are bit exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from .complexes import Complex
from .matrices import IntMatrix
from .modules import FpModule, FpMorphism
from .rings import QPoly, RingSpec


def element_to_json(ring: RingSpec, e) -> Any:
    if ring is RingSpec.INTEGERS:
        return str(e)
    return [str(c) for c in e.coeffs]


def element_from_json(ring: RingSpec, data) -> Any:
    if ring is RingSpec.INTEGERS:
        return int(data)
    return QPoly(tuple(Fraction(c) for c in data))


def matrix_to_json(m: IntMatrix) -> dict:
    return {
        "ring": m.ring.value,
        "rows": m.rows,
        "cols": m.cols,
        "entries": [element_to_json(m.ring, e) for e in m.entries],
    }


def matrix_from_json(data: dict) -> IntMatrix:
    ring = RingSpec(data["ring"])
    entries = tuple(element_from_json(ring, e) for e in data["entries"])
    return IntMatrix(ring, data["rows"], data["cols"], entries)


def module_to_json(m: FpModule) -> dict:
    return {"kind": "fp_module", "presentation": matrix_to_json(m.presentation)}


def module_from_json(data: dict) -> FpModule:
    if data.get("kind") != "fp_module":
        raise ValueError("not a serialized module")
    return FpModule(matrix_from_json(data["presentation"]))


def morphism_to_json(f: FpMorphism) -> dict:
    return {
        "kind": "fp_morphism",
        "source": module_to_json(f.source),
        "target": module_to_json(f.target),
        "gen": matrix_to_json(f.gen),
        "witness": matrix_to_json(f.witness),
    }


def morphism_from_json(data: dict) -> FpMorphism:
    if data.get("kind") != "fp_morphism":
        raise ValueError("not a serialized morphism")
    return FpMorphism(module_from_json(data["source"]),
                      module_from_json(data["target"]),
                      matrix_from_json(data["gen"]),
                      matrix_from_json(data["witness"]))


def complex_to_json(c: Complex) -> dict:
    return {
        "kind": "complex",
        "ring": c.ring.value,
        "lo": c.lo,
        "hi": c.hi,
        "objects": [module_to_json(c.object_at(n)) for n in c.degrees()],
        "differentials": [matrix_to_json(c.differential_at(n).gen)
                          for n in range(c.lo, c.hi)],
        "witnesses": [matrix_to_json(c.differential_at(n).witness)
                      for n in range(c.lo, c.hi)],
    }


def complex_from_json(data: dict) -> Complex:
    if data.get("kind") != "complex":
        raise ValueError("not a serialized complex")
    ring = RingSpec(data["ring"])
    objs = [module_from_json(o) for o in data["objects"]]
    diffs = []
    for i in range(len(objs) - 1):
        diffs.append(FpMorphism(objs[i], objs[i + 1],
                                matrix_from_json(data["differentials"][i]),
                                matrix_from_json(data["witnesses"][i])))
    return Complex(ring, data["lo"], objs, diffs)
