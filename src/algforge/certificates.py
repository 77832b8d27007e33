"""Machine-checkable certificates.

A certificate stores named inputs (matrices, algebras, patterns, or lists
of matrices), an optional transformation matrix C, output matrices, and a
list of asserted properties.  Every property refers to stored data through
references ("C", "out:<i>", "in:<name>", "in:<name>:<i>") and can be
re-checked exactly by the verifier without trusting any construction code.
"in:<name>:<i>" is item i of a list input, or basis matrix i of an
algebra input, so an algebra is stored once even where a property lists
its basis matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from .algebra import Algebra, algebra_to_json
from .incidence import IncidencePattern, pattern_to_json
from .matrices import Mat, mat_to_json

InputValue = Any  # Mat | Algebra | IncidencePattern | list[Mat]


@dataclass(frozen=True)
class Certificate:
    claim: str
    inputs: Mapping[str, InputValue]
    transform: Mat | None
    outputs: tuple[Mat, ...]
    properties: tuple[dict, ...]

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "inputs": {k: _input_to_json(v) for k, v in self.inputs.items()},
            "C": mat_to_json(self.transform) if self.transform is not None else None,
            "outputs": [mat_to_json(m) for m in self.outputs],
            "properties": [dict(p) for p in self.properties],
        }


def _input_to_json(value: InputValue):
    if isinstance(value, Mat):
        return mat_to_json(value)
    if isinstance(value, Algebra):
        return algebra_to_json(value)
    if isinstance(value, IncidencePattern):
        return pattern_to_json(value)
    if isinstance(value, (list, tuple)):
        return [mat_to_json(m) for m in value]
    raise TypeError(f"unsupported input value: {type(value)!r}")


# -- property constructors ----------------------------------------------------

def prop_nonneg(target: str) -> dict:
    return {"kind": "nonneg", "target": target}


def prop_positive(target: str) -> dict:
    return {"kind": "positive", "target": target}


def prop_conjugate_of(target: str, source: str) -> dict:
    """target = C^{-1} * source * C for the certificate's transformation."""
    return {"kind": "conjugate_of", "target": target, "source": source}


def prop_in_algebra(target: str, algebra: str) -> dict:
    return {"kind": "in_algebra", "target": target, "algebra": algebra}


def prop_in_algebra_conjugated(target: str, algebra: str) -> dict:
    """target lies in C^{-1} * span(algebra) * C."""
    return {"kind": "in_algebra_conjugated", "target": target, "algebra": algebra}


def prop_covers(target: str, algebra: str) -> dict:
    return {"kind": "covers", "target": target, "algebra": algebra}


def prop_covers_conjugated(target: str, algebra: str) -> dict:
    return {"kind": "covers_conjugated", "target": target, "algebra": algebra}


def prop_semi_commuting(a: str, b: str, sign: str) -> dict:
    if sign not in ("nonneg", "nonpos"):
        raise ValueError("sign must be 'nonneg' or 'nonpos'")
    return {"kind": "semi_commuting", "a": a, "b": b, "sign": sign}


def prop_central(target: str, algebra: str) -> dict:
    return {"kind": "central", "target": target, "algebra": algebra}


def prop_dimension(gens: Sequence[str], value: int) -> dict:
    return {"kind": "dimension", "gens": list(gens), "value": value}


def prop_generate_equal(gens_a: Sequence[str], gens_b: Sequence[str]) -> dict:
    return {"kind": "generate_equal", "gens_a": list(gens_a), "gens_b": list(gens_b)}


def prop_generate_equal_conjugated(gens: Sequence[str],
                                   source_gens: Sequence[str]) -> dict:
    """span<gens> equals C^{-1} span<source_gens> C."""
    return {"kind": "generate_equal_conjugated", "gens": list(gens),
            "source_gens": list(source_gens)}


def prop_spans_pattern(gens: Sequence[str], pattern: str) -> dict:
    return {"kind": "spans_pattern", "gens": list(gens), "pattern": pattern}


def prop_is_centralizer(algebra: str, of: str) -> dict:
    return {"kind": "is_centralizer", "algebra": algebra, "of": of}


def prop_has_simple_real_eigenvalue(target: str) -> dict:
    return {"kind": "has_simple_real_eigenvalue", "target": target}
