"""Byte-identity of CLI output on fixed inputs.

The expected files under tests/data/ were written by the same verbs while
every inner loop still ran on Fraction arithmetic.  Any change to the
arithmetic kernel must reproduce them byte for byte: exact arithmetic has
one answer, and the wire format and the certificates' search order are
part of the output.
"""

import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from algforge.algebra import generate
from algforge.certificates import Certificate
from algforge.cli import run
from algforge.constructions import (blockwise_rank1_nonneg_covering,
                                    central_eigenvalue_split,
                                    centralizer_covering,
                                    classify_positive_generation,
                                    direct_sum_min_nonneg_generators,
                                    direct_sum_nonneg_covering,
                                    nonneg_generators_from_covering,
                                    positive_generators_from_positive,
                                    scalar_extension_positive_generators,
                                    semicommuting_pair,
                                    single_generator_nonneg,
                                    uniformize_rank1_idempotent)
from algforge.incidence import incidence_of_dimension
from algforge.matrices import (Mat, conjugate, direct_sum, identity,
                               jordan_cell, mat_to_json, ones, zero)
from algforge.spectral import JordanSpec, generalized_eigensplit
from oracles import (StructuralDecomposition, incidence_algebra, matrix_unit,
                     pattern_from_positions, structural_decomposition)

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("argv, expected", [
    (["problem-solve", "-n", "4"], "problem-solve-4.json"),
    (["problem-solve", "-n", "4", "--format", "table"], "problem-solve-4.txt"),
    (["algebra-generate", "conjugated-1x2-gens.json"],
     "conjugated-1x2-generate.json"),
    (["algebra-classify", "conjugated-1x2-gens.json"],
     "conjugated-1x2-classify.json"),
    (["algebra-generate", "conjugated-2x2-gens.json"],
     "conjugated-2x2-generate.json"),
    (["algebra-classify", "conjugated-2x2-gens.json"],
     "conjugated-2x2-classify.json"),
    (["algebra-covering", "single-generator-gens.json"],
     "single-generator-covering.json"),
    (["algebra-classify", "single-generator-gens.json"],
     "single-generator-classify.json"),
    (["algebra-classify", "single-generator-positive-gens.json"],
     "single-generator-positive-classify.json"),
])
def test_cli_output_is_byte_identical(argv, expected, capsys):
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    assert run(argv) == 0
    assert capsys.readouterr().out == (DATA / expected).read_text()


def test_incidence_pipeline_is_byte_identical(monkeypatch, capsys):
    assert run(["incidence-build", "-n", "4", "-k", "7"]) == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
    assert run(["incidence-pair"]) == 0
    expected = (DATA / "incidence-4-7-pair.json").read_text()
    assert capsys.readouterr().out == expected


# -- construction outputs --------------------------------------------------------
#
# Each case below is a fixed call whose full result, as canonical JSON, is
# stored under its name in tests/data/constructions.json.  The cases cover
# every branch of the constructions that share the shift, covering and
# block-diagonal steps, so a refactor of those steps must keep all of them
# byte for byte.  Rewrite the fixture with `python tests/test_golden.py`
# only when an output is meant to change.

def _mats(*rows_list):
    return [Mat.from_rows(rows) for rows in rows_list]


def _diag(*vals):
    return direct_sum([Mat.from_rows([[v]]) for v in vals])


def _upper_ones(n):
    return Mat.from_rows([[1 if j >= i else 0 for j in range(n)]
                          for i in range(n)])


def _spec(*groups):
    return JordanSpec(tuple((Fraction(lam), sizes) for lam, sizes in groups))


def _encode(value):
    if isinstance(value, Mat):
        return mat_to_json(value)
    if isinstance(value, Certificate):
        return value.to_json()
    if isinstance(value, StructuralDecomposition):
        return {"transform": mat_to_json(value.transform),
                "sizes": list(value.sizes), "case": value.case, "l": value.l}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    if value is None or isinstance(value, int):
        return value
    raise TypeError(f"no encoding for {type(value)!r}")


_T2 = incidence_algebra(incidence_of_dimension(2, 3))
_D2 = incidence_algebra(incidence_of_dimension(2, 2))
_D3 = incidence_algebra(incidence_of_dimension(3, 3))
_M2 = generate(2, [matrix_unit(2, 1, 2), matrix_unit(2, 2, 1)])
_C_LIKE = generate(2, [Mat.from_rows([[0, 1], [-1, 0]])])
_SHEAR = Mat.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
_JZ = direct_sum([_diag(5), jordan_cell(2, 0)])
_JS = direct_sum([_diag(2), jordan_cell(2, 3)])


def _with_e11(n, *rows_list):
    return generate(n, _mats(*rows_list) + [matrix_unit(n, 1, 1)])


def _central(z, lam):
    return central_eigenvalue_split(generate(z.rows, [z]), z, lam)


CASES = {
    # structural_decomposition: cases 1-4
    "structural-case1-n3": lambda: structural_decomposition(_with_e11(
        3, [[1, 0, 0], [0, 2, 0], [0, -1, -1]],
        [[0, 2, 0], [0, 0, 0], [2, 0, 0]])),
    "structural-case1-n4": lambda: structural_decomposition(_with_e11(
        4, [[1, 0, 0, 0], [0, 1, 0, 0], [-1, -1, 0, 1], [0, 0, 0, 2]])),
    "structural-case2-n2": lambda: structural_decomposition(_T2),
    "structural-case2-n3": lambda: structural_decomposition(_with_e11(
        3, [[1, 0, -1], [0, 1, 0], [2, 1, 0]])),
    "structural-case3-n2": lambda: structural_decomposition(_with_e11(
        2, [[0, 0], [-1, 1]])),
    "structural-case3-n3": lambda: structural_decomposition(_with_e11(
        3, [[-1, 0, 0], [0, 1, -1], [2, -1, 1]])),
    "structural-case3-n4": lambda: structural_decomposition(_with_e11(
        4, [[0, 0, 0, 1], [0, 0, 0, 1], [1, 0, 0, -1], [-1, 0, 1, 2]],
        [[-1, 0, -1, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [-1, 0, 0, 1]])),
    "structural-case4-n2": lambda: structural_decomposition(_M2),
    "structural-case4-n3": lambda: structural_decomposition(_with_e11(
        3, [[0, 2, 0], [0, 0, 0], [0, 1, 1]],
        [[1, -1, 1], [2, -1, 2], [-1, 0, -1]])),
    # centralizer_covering: one group, diagonal, pivot last / middle / first
    "centralizer-single-cell": lambda: centralizer_covering(
        _spec((0, (2,)))),
    "centralizer-two-cells": lambda: centralizer_covering(
        _spec((0, (2, 1)))),
    "centralizer-diagonal": lambda: centralizer_covering(
        _spec((1, (1,)), (2, (1,)))),
    "centralizer-pivot-last": lambda: centralizer_covering(
        _spec((1, (2,)), (2, (1,)), (3, (2, 1)))),
    "centralizer-pivot-first": lambda: centralizer_covering(
        _spec((1, (2, 2)), (3, (1,)))),
    "centralizer-pivot-middle": lambda: centralizer_covering(
        _spec((1, (1,)), (2, (2,)), (3, (1,)))),
    "centralizer-fractional": lambda: centralizer_covering(
        _spec((Fraction(1, 2), (2,)), (Fraction(-3, 4), (1, 1)))),
    # central_eigenvalue_split: k = n, k = 1, 1 < k < n
    "central-k-eq-n": lambda: _central(jordan_cell(2, 1), 1),
    "central-k-eq-1": lambda: _central(_diag(1, 2, 3), 1),
    "central-k-mid-n3": lambda: _central(
        direct_sum([_diag(2), jordan_cell(2, 1)]), 1),
    "central-k-mid-n4": lambda: _central(
        direct_sum([jordan_cell(2, 3), jordan_cell(2, 1)]), 1),
    # single_generator_nonneg: m = n, m = 1, 1 < m < n
    "single-m-eq-n": lambda: single_generator_nonneg(jordan_cell(3, 0)),
    "single-m-eq-n-sheared": lambda: single_generator_nonneg(
        conjugate(jordan_cell(3, 2), _SHEAR)),
    "single-m-eq-1": lambda: single_generator_nonneg(_JS),
    "single-m-eq-1-sheared": lambda: single_generator_nonneg(
        conjugate(_JS, _SHEAR)),
    "single-m-mid": lambda: single_generator_nonneg(_JZ),
    "single-m-mid-sheared": lambda: single_generator_nonneg(
        conjugate(_JZ, _SHEAR)),
    # generalized_eigensplit
    "eigensplit-nilpotent-part": lambda: generalized_eigensplit(
        conjugate(_JZ, _SHEAR), Fraction(0)),
    "eigensplit-simple-part": lambda: generalized_eigensplit(
        conjugate(_JZ, _SHEAR), Fraction(5)),
    "eigensplit-two-cells": lambda: generalized_eigensplit(
        conjugate(direct_sum([jordan_cell(2, 1), jordan_cell(1, 1),
                              _diag(4)]),
                  direct_sum([_SHEAR, identity(1)])), Fraction(1)),
    # direct sums
    "direct-sum-covering-c-like": lambda: direct_sum_nonneg_covering(
        _C_LIKE, _T2, _upper_ones(2)),
    "direct-sum-covering-scalar": lambda: direct_sum_nonneg_covering(
        generate(1, []), _D2, identity(2)),
    "direct-sum-min-nonneg": lambda: direct_sum_min_nonneg_generators(
        [(_diag(2), zero(2)), (zero(1), _upper_ones(2)),
         (zero(1), _diag(2, 1))],
        [_upper_ones(2), _diag(2, 1)]),
    "direct-sum-min-positive": lambda: direct_sum_min_nonneg_generators(
        [(_diag(5), ones(2) + identity(2))], [ones(2) + identity(2)]),
    "blockwise-rank1-two-blocks": lambda: blockwise_rank1_nonneg_covering(
        [_M2, _M2], [matrix_unit(2, 1, 1), matrix_unit(2, 1, 1)]),
    "blockwise-rank1-one-block": lambda: blockwise_rank1_nonneg_covering(
        [_M2], [matrix_unit(2, 2, 2)]),
    "blockwise-rank1-zero-tail": lambda: blockwise_rank1_nonneg_covering(
        [_M2, _T2, _D2], [matrix_unit(2, 2, 2), matrix_unit(2, 1, 1),
                          zero(2)]),
    "scalar-extension-diag": lambda: scalar_extension_positive_generators(
        [_diag(1, 2)]),
    "scalar-extension-1x1": lambda: scalar_extension_positive_generators(
        [_diag(1)]),
    "scalar-extension-two-gens": lambda: scalar_extension_positive_generators(
        [matrix_unit(2, 1, 1), _upper_ones(2)]),
    # shifted generating systems
    "nonneg-from-covering-t2": lambda: nonneg_generators_from_covering(
        _T2, _upper_ones(2)),
    "nonneg-from-covering-d3": lambda: nonneg_generators_from_covering(
        _D3, identity(3)),
    "nonneg-from-covering-fractional": lambda: nonneg_generators_from_covering(
        _T2, Mat.from_rows([[Fraction(1, 3), Fraction(5, 2)], [0, 7]])),
    "positive-from-positive-full": lambda: positive_generators_from_positive(
        _M2, ones(2) + identity(2)),
    "positive-from-positive-small": lambda: positive_generators_from_positive(
        generate(2, [ones(2)]), ones(2) + identity(2)),
    "positive-from-positive-fractional": lambda: (
        positive_generators_from_positive(
            _M2, Mat.from_rows([[Fraction(1, 3), 2], [5, Fraction(3, 4)]]))),
    "classify-m2": lambda: classify_positive_generation(_M2),
    "classify-t2": lambda: classify_positive_generation(_T2),
    # the flat idempotent and the semi-commuting pair
    "uniformize-rank1": lambda: uniformize_rank1_idempotent(
        Mat.from_rows([[1, 1, 0], [0, 0, 0], [0, 0, 0]])),
    "semicommuting-upper": lambda: semicommuting_pair(
        incidence_of_dimension(3, 5)),
    "semicommuting-relabelled": lambda: semicommuting_pair(
        pattern_from_positions(4, [(3, 1), (1, 2), (3, 2), (4, 2)])),
}

GOLDEN = DATA / "constructions.json"


def _dump(results) -> str:
    return json.dumps(results, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_construction_output_is_byte_identical(name):
    expected = json.loads(GOLDEN.read_text())[name]
    assert _dump(_encode(CASES[name]())) == _dump(expected)


if __name__ == "__main__":
    GOLDEN.write_text(_dump({name: _encode(CASES[name]())
                             for name in sorted(CASES)}))
