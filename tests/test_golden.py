"""Byte-identity of CLI output on fixed inputs.

The expected files under tests/data/ were written by the same verbs while
every inner loop still ran on Fraction arithmetic.  Any change to the
arithmetic kernel must reproduce them byte for byte: exact arithmetic has
one answer, and the wire format and the certificates' search order are
part of the output.
"""

import io
from pathlib import Path

import pytest

from algforge.cli import run

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
