import ast
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

import algforge.verify
from algforge.algebra import algebra_from_json, algebra_to_json, generate
from algforge.cli import format_table, run
from algforge.constructions import (centralizer_covering,
                                    direct_sum_nonneg_covering,
                                    semicommuting_pair, single_generator_nonneg,
                                    solve_all_dimensions)
from algforge.incidence import (incidence_of_dimension, pattern_from_json,
                                pattern_to_json)
from algforge.matrices import (Mat, direct_sum, jordan_cell, mat_from_json,
                               mat_to_json)
from algforge.spectral import JordanSpec
from algforge.verify import verify_document
from oracles import incidence_algebra

F = Fraction

# Every document a test here verifies, tampered or not, must fail exactly
# where the reference (`reference.verdicts`) says it does not hold.
pytestmark = pytest.mark.usefixtures("reference_agreement")


def upper_ones(n):
    return Mat.from_rows([[1 if j >= i else 0 for j in range(n)]
                          for i in range(n)])


def emitted_certificates():
    from algforge.constructions import (blockwise_rank1_nonneg_covering,
                                        central_eigenvalue_split,
                                        classify_positive_generation,
                                        direct_sum_min_nonneg_generators)
    from algforge.matrices import ones, zero
    from oracles import matrix_unit

    t2 = incidence_algebra(incidence_of_dimension(2, 3))
    c_like = generate(2, [Mat.from_rows([[0, 1], [-1, 0]])])
    m2 = generate(2, [matrix_unit(2, 1, 2), matrix_unit(2, 2, 1)])
    docs = []
    docs.append(direct_sum_nonneg_covering(c_like, t2, upper_ones(2)).to_json())
    docs.append(direct_sum_min_nonneg_generators(
        [(Mat.from_rows([[5]]), zero(2)), (zero(1), upper_ones(2)),
         (zero(1), Mat.from_rows([[2, 0], [0, 1]]))],
        [upper_ones(2), Mat.from_rows([[2, 0], [0, 1]])]).to_json())
    docs.append(blockwise_rank1_nonneg_covering(
        [m2, m2], [matrix_unit(2, 1, 1), matrix_unit(2, 1, 1)]).to_json())
    docs.append(semicommuting_pair(incidence_of_dimension(3, 5))[2].to_json())
    docs.append(single_generator_nonneg(
        direct_sum([jordan_cell(2, 0), Mat.from_rows([[4]])])).to_json())
    docs.append(centralizer_covering(
        JordanSpec(((F(0), (2, 1)), (F(1), (1,)))))[2].to_json())
    z = jordan_cell(2, 1)
    docs.append(central_eigenvalue_split(generate(2, [z]), z, 1).to_json())
    docs.append(classify_positive_generation(m2, budget=4, seed=0).to_json())
    docs.append(classify_positive_generation(
        generate(2, [Mat.from_rows([[0, 2], [1, 0]])]),
        budget=4, seed=0).to_json())
    docs.extend(c.to_json() for c in solve_all_dimensions(3))
    return docs


def test_every_emitted_certificate_verifies():
    for doc in emitted_certificates():
        assert verify_document(doc) == []


def _round_trips(value):
    """Whether a stored matrix, algebra or pattern reads back through the
    loader the CLI uses for its kind and writes out unchanged."""
    if "entries" in value:
        return mat_to_json(mat_from_json(value, {})) == value
    if "basis" in value:
        return algebra_to_json(algebra_from_json(value)) == value
    return pattern_to_json(pattern_from_json(value)) == value


def test_certificate_json_round_trip():
    for doc in emitted_certificates():
        stored = [doc["C"]] if doc["C"] is not None else []
        stored += doc["outputs"]
        for value in doc["inputs"].values():
            stored += value if isinstance(value, list) else [value]
        assert all(_round_trips(v) for v in stored)


def test_tampered_certificate_fails():
    doc = emitted_certificates()[0]
    tampered = json.loads(json.dumps(doc))
    # negate one entry of the conjugated covering
    grid = tampered["outputs"][1]["entries"]
    grid[0][0] = str(-Fraction(grid[0][0]))
    failures = verify_document(tampered)
    assert failures != []


def _run(argv, stdin_text=None, monkeypatch=None, capsys=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = run(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_cli_pipeline(monkeypatch, capsys):
    code, out, _ = _run(["incidence-build", "-n", "5", "-k", "11"],
                        capsys=capsys)
    assert code == 0
    pattern_doc = json.loads(out)
    assert len(pattern_doc["positions"]) == 11

    code, out, _ = _run(["incidence-pair"], stdin_text=out,
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    cert_doc = json.loads(out)
    assert verify_document(cert_doc) == []

    code, out, _ = _run(["verify"], stdin_text=out, monkeypatch=monkeypatch,
                        capsys=capsys)
    assert code == 0


def test_cli_problem_solve(tmp_path, capsys):
    out_file = tmp_path / "table.json"
    code, _, _ = _run(["problem-solve", "-n", "5", "--out", str(out_file)],
                      capsys=capsys)
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert len(doc["certificates"]) == 11
    dims = [p["value"] for c in doc["certificates"]
            for p in c["properties"] if p["kind"] == "dimension"]
    assert dims == list(range(5, 16))

    # byte-identical reruns
    out_file2 = tmp_path / "table2.json"
    code, _, _ = _run(["problem-solve", "-n", "5", "--out", str(out_file2)],
                      capsys=capsys)
    assert code == 0
    assert out_file.read_bytes() == out_file2.read_bytes()


def test_cli_verify_exit_codes(tmp_path, monkeypatch, capsys):
    certs = [c.to_json() for c in solve_all_dimensions(2)]
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"certificates": certs}))
    code, _, _ = _run(["verify", str(good)], capsys=capsys)
    assert code == 0

    tampered = json.loads(good.read_text())
    entries = tampered["certificates"][0]["outputs"][0]["entries"]
    entries[0][0] = "-1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(tampered))
    code, _, err = _run(["verify", str(bad)], capsys=capsys)
    assert code == 1
    assert "property" in err

    code, _, err = _run(["verify"], stdin_text="garbage{",
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2
    assert "line 1" in err


def test_cli_algebra_commands(monkeypatch, capsys):
    gens_doc = json.dumps({"n": 2, "gens": [
        {"rows": 2, "cols": 2, "entries": [["0", "1"], ["0", "0"]]}]})
    code, out, _ = _run(["algebra-generate"], stdin_text=gens_doc,
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    alg_doc = json.loads(out)
    assert len(alg_doc["basis"]) == 2

    code, out, _ = _run(["algebra-dim"], stdin_text=json.dumps(alg_doc),
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert json.loads(out)["dim"] == 2

    code, out, _ = _run(["algebra-covering"], stdin_text=json.dumps(alg_doc),
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    cov_doc = json.loads(out)
    assert cov_doc["nonneg_covering"] is not None

    m2_doc = json.dumps({"n": 2, "gens": [
        {"rows": 2, "cols": 2, "entries": [["0", "1"], ["0", "0"]]},
        {"rows": 2, "cols": 2, "entries": [["0", "0"], ["1", "0"]]}]})
    code, out, _ = _run(["algebra-classify", "--budget", "4"],
                        stdin_text=m2_doc,
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert json.loads(out)["result"] == "yes"

    c_like = json.dumps({"n": 2, "gens": [
        {"rows": 2, "cols": 2, "entries": [["0", "1"], ["-1", "0"]]}]})
    code, out, _ = _run(["algebra-classify", "--budget", "8"],
                        stdin_text=c_like, monkeypatch=monkeypatch,
                        capsys=capsys)
    assert code == 0
    assert json.loads(out)["result"] == "unknown"


def test_the_empty_algebra_has_the_empty_covering(monkeypatch, capsys):
    code, out, _ = _run(["algebra-covering"],
                        stdin_text='{"n": 0, "gens": []}',
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    empty = {"rows": 0, "cols": 0, "entries": []}
    assert json.loads(out) == {"covering": empty, "nonneg_covering": empty}


def test_cli_verify_accepts_all_document_shapes(monkeypatch, capsys):
    docs = [c.to_json() for c in solve_all_dimensions(2)]
    # bare list of certificates
    code, _, _ = _run(["verify"], stdin_text=json.dumps(docs),
                      monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    # classification wrapper {"result", "certificate"}
    m2_doc = json.dumps({"n": 2, "gens": [
        {"rows": 2, "cols": 2, "entries": [["0", "1"], ["0", "0"]]},
        {"rows": 2, "cols": 2, "entries": [["0", "0"], ["1", "0"]]}]})
    code, out, _ = _run(["algebra-classify", "--budget", "2"],
                        stdin_text=m2_doc, monkeypatch=monkeypatch,
                        capsys=capsys)
    assert code == 0
    code, _, _ = _run(["verify"], stdin_text=out, monkeypatch=monkeypatch,
                      capsys=capsys)
    assert code == 0


def test_cli_max_dim_cap(monkeypatch, capsys):
    monkeypatch.setenv("ALGFORGE_MAX_DIM", "3")
    code, _, err = _run(["problem-solve", "-n", "5"], capsys=capsys)
    assert code == 2
    assert "cap" in err
    monkeypatch.setenv("ALGFORGE_MAX_DIM", "5")
    code, _, _ = _run(["incidence-build", "-n", "5", "-k", "5"], capsys=capsys)
    assert code == 0


def test_cap_applies_before_an_algebra_document_is_loaded(monkeypatch,
                                                           capsys):
    import algforge.cli
    from algforge.algebra import algebra_to_json
    from oracles import pattern_from_positions
    n = 17
    upper = incidence_algebra(pattern_from_positions(
        n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]))
    loaded = []
    monkeypatch.setattr(algforge.cli, "algebra_from_json", loaded.append)
    code, _, err = _run(["algebra-dim"],
                        stdin_text=json.dumps(algebra_to_json(upper)),
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2
    assert "cap" in err
    assert loaded == []


def test_cap_applies_to_generator_matrices(monkeypatch, capsys):
    big = {"rows": 17, "cols": 17, "entries": [["0"] * 17] * 17}
    code, _, err = _run(["algebra-generate"],
                        stdin_text=json.dumps({"n": 2, "gens": [big]}),
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2
    assert "cap" in err


def test_cli_usage_errors(monkeypatch, capsys):
    code, _, _ = _run(["problem-solve", "-n", "1"], capsys=capsys)
    assert code == 2
    code, _, _ = _run(["incidence-build", "-n", "3", "-k", "99"],
                      capsys=capsys)
    assert code == 2
    code, _, _ = _run(["no-such-verb"], capsys=capsys)
    assert code == 2


def test_report_table(capsys):
    docs = [c.to_json() for c in solve_all_dimensions(2)]
    text = format_table(docs, [not verify_document(d) for d in docs])
    lines = text.strip().splitlines()
    assert lines[0].split() == ["k", "dim", "verified"]
    assert lines[-1] == "total: 2/2 verified"
    assert "ok" in lines[1]
    # header-only table for an empty list
    empty = format_table([], []).splitlines()
    assert empty == ["   k  dim  verified", "total: 0/0 verified"]


def test_pattern_json_round_trip():
    from algforge.incidence import pattern_from_json, pattern_to_json
    pat = incidence_of_dimension(4, 7)
    assert pattern_from_json(pattern_to_json(pat)) == pat


def test_cli_table_format(capsys):
    code = run(["problem-solve", "-n", "2", "--format", "table"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert "total: 2/2 verified" in out


def test_problem_solve_table_verifies_each_certificate_once(monkeypatch,
                                                            capsys):
    import algforge.cli as cli
    calls = []
    real = cli.verify_document

    def counting(doc):
        calls.append(doc)
        return real(doc)

    monkeypatch.setattr(cli, "verify_document", counting)
    code, out, _ = _run(["problem-solve", "-n", "3", "--format", "table"],
                        capsys=capsys)
    assert code == 0
    count = len(solve_all_dimensions(3))
    assert out.endswith(f"total: {count}/{count} verified\n")
    assert len(calls) == count


def test_empty_property_list_fails(tmp_path, capsys):
    doc = solve_all_dimensions(2)[0].to_json()
    doc["properties"] = []
    assert verify_document(doc)
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    code, _, err = _run(["verify", str(path)], capsys=capsys)
    assert code == 1
    assert "no properties" in err


def test_non_square_transform_and_generators_fail():
    def wire(rows):
        return {"rows": len(rows), "cols": len(rows[0]),
                "entries": [[str(v) for v in row] for row in rows]}

    # C T = S C holds for this 1x2 C, but T is no conjugate of S
    doc = {"claim": "conjugate", "inputs": {"source": wire([[1]])},
           "C": wire([[1, 0]]), "outputs": [wire([[1, 0], [0, 5]])],
           "properties": [{"kind": "conjugate_of", "target": "out:0",
                           "source": "in:source"}]}
    assert any("not square" in f for f in verify_document(doc))
    doc = {"claim": "dimension", "inputs": {"g": wire([[0, 0, 0], [0, 0, 0]])},
           "C": None, "outputs": [],
           "properties": [{"kind": "dimension", "gens": ["in:g"], "value": 1}]}
    assert any("not square" in f for f in verify_document(doc))


def _tampered_entry(value):
    doc = solve_all_dimensions(2)[0].to_json()
    doc["outputs"][0]["entries"][0][0] = value
    return json.dumps(doc)


_ONE = {"rows": 1, "cols": 1, "entries": [["1"]]}
# an algebra and a pattern with no size field "n"
_UNSIZED_ALGEBRA = {
    "inputs": {"a": {"basis": [_ONE]}}, "outputs": [_ONE],
    "properties": [{"kind": "in_algebra", "target": "out:0",
                    "algebra": "in:a"}]}
_UNSIZED_PATTERN = {
    "inputs": {"p": {"positions": [[1, 1]]}}, "outputs": [_ONE],
    "properties": [{"kind": "spans_pattern", "gens": ["out:0"],
                    "pattern": "in:p"}]}


@pytest.mark.parametrize("verb, text, code", [
    ("verify", json.dumps({"properties": [1]}), 1),
    ("verify", _tampered_entry("1/0"), 1),
    ("verify", _tampered_entry(None), 1),
    ("algebra-generate", json.dumps({"n": 2, "gens": "foo"}), 2),
    ("algebra-generate", json.dumps({"n": 2, "basis": "foo"}), 2),
    ("verify", json.dumps({"certificates": 5}), 2),
    ("verify", "[" * 100000, 2),
    ("verify", json.dumps({"properties": [{"kind": ["nonneg"],
                                           "target": "out:0"}],
                           "outputs": []}), 1),
    ("verify", json.dumps(_UNSIZED_ALGEBRA), 1),
    ("verify", json.dumps(_UNSIZED_PATTERN), 1),
    ("verify", json.dumps({"properties": 1}), 1),
], ids=["property-not-object", "zero-denominator", "null-entry",
        "gens-not-list", "basis-not-list", "certificates-not-list",
        "nested-too-deeply", "unhashable-kind", "algebra-without-n",
        "pattern-without-n", "int-properties"])
def test_malformed_documents_fail_cleanly(verb, text, code, monkeypatch,
                                          capsys):
    got, _, err = _run([verb], stdin_text=text, monkeypatch=monkeypatch,
                       capsys=capsys)
    assert got == code
    assert "Traceback" not in err and err


@pytest.mark.parametrize("doc, message", [
    ({"properties": [{"kind": kind, "target": "out:0"}], "outputs": []},
     f"property 0: unknown kind {kind!r}")
    for kind in (["nonneg"], {"a": 1}, None, 3)] + [
    ({"properties": props}, "document has no properties list")
    for props in (1, True, None, {"kind": "nonneg"})] + [
    (_UNSIZED_ALGEBRA, "property 0 (in_algebra): algebra has no 'n' field"),
    (_UNSIZED_PATTERN,
     "property 0 (spans_pattern): pattern has no 'n' field"),
], ids=["list-kind", "object-kind", "null-kind", "int-kind",
        "int-properties", "bool-properties", "null-properties",
        "object-properties", "algebra-without-n", "pattern-without-n"])
def test_verifier_names_what_is_malformed(doc, message):
    """A kind that is no string, unhashable or not, is an unknown kind, a
    properties value that is no list is refused, and a missing size field
    is named: a list kind raised TypeError out of the lookup of the
    checks, an int or bool properties value raised TypeError out of the
    loop over them, and a missing "n" failed as "'n'"."""
    assert verify_document(doc) == [message]


_NEEDS = "matrix needs rows, cols and entries"


@pytest.mark.parametrize("doc, message", [
    ({"n": 2, "gens": {"a": 1}}, "'gens' must be a list"),
    ({"n": 2, "basis": 5}, "'basis' must be a list"),
    ({"n": 2, "basis": [5]}, _NEEDS),
    ({"n": 2, "gens": [{"rows": 2, "cols": 2}]}, _NEEDS),
    ({"n": 1, "gens": [{"rows": 1, "cols": 1, "entries": 5}]},
     "matrix entries are a int, not a list of rows"),
    ({"n": 1, "gens": [{"rows": 1, "cols": 1, "entries": ["1"]}]},
     "matrix row 0 is a str, not a list"),
    ({"basis": []}, "algebra document needs a nonnegative integer 'n'"),
], ids=["gens-dict", "basis-int", "matrix-int", "no-entries",
        "entries-int", "row-not-list", "basis-without-n"])
def test_loader_names_the_malformed_field(doc, message, monkeypatch, capsys):
    code, out, err = _run(["algebra-dim"], stdin_text=json.dumps(doc),
                          monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("value", ["1e5", " 3/4 ", "2/4", "-0", 3])
def test_wire_rationals_parse_strictly(value, monkeypatch, capsys):
    assert verify_document(json.loads(_tampered_entry(value)))
    gens = json.dumps({"n": 1, "gens": [
        {"rows": 1, "cols": 1, "entries": [[value]]}]})
    code, _, err = _run(["algebra-generate"], stdin_text=gens,
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2
    assert "canonical" in err


def test_verify_applies_max_dim(tmp_path, monkeypatch, capsys):
    path = tmp_path / "ps3.json"
    assert run(["problem-solve", "-n", "3", "--out", str(path)]) == 0
    monkeypatch.setenv("ALGFORGE_MAX_DIM", "2")
    code, _, err = _run(["verify", str(path)], capsys=capsys)
    assert code == 2
    assert "cap" in err
    monkeypatch.delenv("ALGFORGE_MAX_DIM")
    code, out, _ = _run(["verify", str(path)], capsys=capsys)
    assert code == 0
    assert json.loads(out) == {"verified": len(solve_all_dimensions(3))}


@pytest.mark.parametrize("position", [[7, 7], [0, 0], [3, 4], [-1, 2],
                                      ["3", "3"], [True, True], [3.0, 3.0],
                                      [3], [3, 3, 3]])
def test_pattern_positions_outside_the_matrix_fail(position):
    # An out-of-range position would stand for the zero matrix, which every
    # span contains, so it must be rejected rather than checked.
    doc = next(c.to_json() for c in solve_all_dimensions(3)
               if c.inputs["pattern"].sorted_positions()
               == [(1, 1), (2, 2), (2, 3), (3, 3)])
    assert verify_document(doc) == []
    tampered = json.loads(json.dumps(doc))
    tampered["inputs"]["pattern"]["positions"][3] = position
    failures = verify_document(tampered)
    assert len(failures) == 1 and "spans_pattern" in failures[0]


def _spans_pattern_document(gen, positions):
    return {"C": None,
            "inputs": {"pattern": {"n": len(gen), "positions": positions}},
            "outputs": [_wire(gen)],
            "properties": [{"kind": "spans_pattern", "gens": ["out:0"],
                            "pattern": "in:pattern"}]}


@pytest.mark.parametrize("position", [5, [1], [1, 2, 3], "12"],
                         ids=["int", "single", "triple", "string"])
def test_pattern_positions_that_are_not_pairs_fail_by_name(position):
    """A position that is not a list of two integers is named in the
    failure, not unpacked: 5 failed with "cannot unpack non-iterable int
    object", and "12" unpacked to the characters "1" and "2"."""
    diagonal = [[1, 0], [0, 2]]
    assert verify_document(_spans_pattern_document(
        diagonal, [[1, 1], position])) == [
        f"property 0 (spans_pattern): pattern position {position!r} is not"
        " a list of two integers"]


@pytest.mark.parametrize("positions", [[[1, 1], [2, 2]], [[1, 1], [1, 2]]],
                         ids=["diagonal", "pivots"])
def test_spans_pattern_needs_each_unit_in_the_span(positions):
    """The swap S generates span{I, S}, of dimension 2, which holds no
    matrix unit.  Its canonical rows are E_11 + E_22 and E_12 + E_21, with
    pivots at (1, 1) and (1, 2): against the second pattern every position
    is a pivot, and only the rows' not being units shows that the units
    are not in the span."""
    swap = [[0, 1], [1, 0]]
    assert verify_document(_spans_pattern_document(swap, positions)) == [
        "property 0 (spans_pattern) failed"]
    diagonal = [[1, 0], [0, 2]]
    assert verify_document(_spans_pattern_document(
        diagonal, [[1, 1], [2, 2]])) == []


def test_each_referenced_matrix_is_parsed_once(monkeypatch):
    import algforge.verify as verify
    parsed, caches = [], []
    real = verify._grid

    def counting(obj, cache):
        parsed.append(obj)
        caches.append(cache)
        return real(obj, cache)

    monkeypatch.setattr(verify, "_grid", counting)
    _, _, cert = semicommuting_pair(incidence_of_dimension(4, 7))
    doc = cert.to_json()
    assert verify_document(doc) == []
    # nonneg, semi_commuting, spans_pattern and dimension all read the two
    # outputs, but each is parsed once, both through the document's one
    # cache of entry strings
    assert len(parsed) == 2 and caches[0] is caches[1]
    assert verify_document(doc) == [] and len(parsed) == 4
    assert caches[2] is caches[3] and caches[2] is not caches[0]


def test_malformed_references_and_shapes_fail_cleanly():
    one = {"rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "1"]]}
    doc = {"C": one, "inputs": {"a": {"n": 2, "basis": [one]}},
           "outputs": [one],
           "properties": [{"kind": "in_algebra_conjugated",
                           "target": "out:0", "algebra": "in:a"}]}
    assert verify_document(doc) == []
    # a non-string reference is a failed property, not an exception
    bad_ref = json.loads(json.dumps(doc))
    bad_ref["properties"][0]["target"] = 5
    assert len(verify_document(bad_ref)) == 1
    # an extra row in a conjugated basis matrix is not silently dropped
    tall = json.loads(json.dumps(doc))
    tall["inputs"]["a"]["basis"][0] = {
        "rows": 3, "cols": 2, "entries": [["1", "0"], ["0", "1"], ["5", "5"]]}
    assert len(verify_document(tall)) == 1


def _wire(rows):
    return {"rows": len(rows), "cols": len(rows[0]),
            "entries": [[str(v) for v in row] for row in rows]}


_T2 = {"n": 2, "basis": [_wire([[1, 0], [0, 0]]), _wire([[0, 1], [0, 0]]),
                         _wire([[0, 0], [0, 1]])]}


@pytest.mark.parametrize("kind, target", [
    ("covers", [[1, 1, 0], [0, 1, 0], [0, 0, 0]]),
    ("covers_conjugated", [[1, 1, 0], [0, 1, 0], [0, 0, 0]]),
    ("in_algebra", [[1, 0, 0, 1]]),
    ("in_algebra_conjugated", [[1, 0, 0, 1]]),
])
def test_targets_must_match_their_algebra(kind, target):
    # Each target has the support, or the row-major entries, of a member of
    # the 2 x 2 upper triangular algebra, but the wrong shape.
    doc = {"C": _wire([[1, 0], [0, 1]]), "inputs": {"a": _T2},
           "outputs": [_wire(target)],
           "properties": [{"kind": kind, "target": "out:0",
                           "algebra": "in:a"}]}
    failures = verify_document(doc)
    assert len(failures) == 1 and "2 x 2" in failures[0]
    doc["outputs"] = [_wire([[1, 1], [0, 1]])]
    assert verify_document(doc) == []


def test_semi_commuting_needs_square_factors_of_one_size():
    # A B = I_2 and B A = diag(1, 1, 0); their difference has no shape
    a = [[1, 0, 0], [0, 1, 0]]
    doc = {"C": None, "inputs": {}, "outputs": [_wire(a), _wire(
        [list(col) for col in zip(*a)])],
        "properties": [{"kind": "semi_commuting", "a": "out:0", "b": "out:1",
                        "sign": sign} for sign in ("nonneg", "nonpos")]}
    failures = verify_document(doc)
    assert len(failures) == 2 and all("size mismatch" in f for f in failures)


def _referencing_document():
    return {"C": None, "inputs": {"a": _T2, "g": [_wire([[1, 1], [0, 1]])]},
            "outputs": [_wire([[1, 1], [0, 2]])],
            "properties": [
                {"kind": "in_algebra", "target": "out:0", "algebra": "in:a"},
                {"kind": "dimension", "gens": ["in:g:0"], "value": 2}]}


@pytest.mark.parametrize("field, ref", [
    ("target", "out:-1"), ("target", "out:+0"), ("target", "out: 0"),
    ("target", "out:0_0"), ("target", "out:00"), ("gens", "in:g:-1"),
    ("gens", "in:g:00"), ("algebra", "in:a:0:0"), ("gens", "in:g:0:0"),
])
def test_reference_indices_are_plain_decimals(field, ref):
    doc = _referencing_document()
    assert verify_document(doc) == []
    prop = doc["properties"][field == "gens"]
    prop[field] = [ref] if field == "gens" else ref
    assert len(verify_document(doc)) == 1


# -- JSON booleans are not sizes or dimensions ---------------------------------

@pytest.mark.parametrize("key", ["basis", "gens"])
def test_boolean_size_is_a_usage_error(key, monkeypatch, capsys):
    # True == 1 in Python: a check by value alone takes a 1 x 1 matrix
    text = json.dumps({"n": True, key: [_wire([[1]])]})
    code, out, err = _run(["algebra-dim"], stdin_text=text,
                          monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and out == ""
    assert "Traceback" not in err and "integer" in err


def test_boolean_matrix_shape_is_a_usage_error(monkeypatch, capsys):
    shaped = dict(_wire([[2]]), rows=True, cols=True)
    text = json.dumps({"n": 1, "gens": [shaped]})
    code, out, err = _run(["algebra-dim"], stdin_text=text,
                          monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and out == ""
    assert "Traceback" not in err and "integers" in err


@pytest.mark.parametrize("doc", [
    {"n": True, "positions": [[1, 1]]},
    {"n": 2, "positions": [[1, 1], [2, 2], [True, 2]]},
    {"n": 2, "positions": [[1, 1], [2, 2], [1.0, 2]]},
], ids=["boolean-size", "boolean-position", "float-position"])
def test_non_integer_pattern_is_a_usage_error(doc, monkeypatch, capsys):
    # True == 1.0 == 1 in Python: a check by value alone builds the pair
    code, out, err = _run(["incidence-pair"], stdin_text=json.dumps(doc),
                          monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and out == ""
    assert "Traceback" not in err and "integers" in err


POSITIONS_ERROR = ("error: invalid pattern document: 'positions' must be a"
                   " list of [i, j] pairs of integers\n")
FIELDS_ERROR = ("error: invalid pattern document: expected an object with"
                " 'n' and 'positions'\n")


@pytest.mark.parametrize("doc, message", [
    ({"n": 2, "positions": {"a": 1}}, POSITIONS_ERROR),
    ({"n": 2, "positions": [5]}, POSITIONS_ERROR),
    ({"n": 2}, FIELDS_ERROR),
    ([1], FIELDS_ERROR),
    ({"n": 2, "positions": [[1, 1], [2, 2], [[1], 2]]}, POSITIONS_ERROR),
], ids=["positions-object", "position-not-a-pair", "no-positions",
        "not-an-object", "list-coordinate"])
def test_malformed_pattern_document_names_the_field(doc, message, monkeypatch,
                                                    capsys):
    code, out, err = _run(["incidence-pair"], stdin_text=json.dumps(doc),
                          monkeypatch=monkeypatch, capsys=capsys)
    assert (code, out, err) == (2, "", message)


def test_empty_pattern_is_a_usage_error(monkeypatch, capsys):
    text = json.dumps({"n": 0, "positions": []})
    code, out, err = _run(["incidence-pair"], stdin_text=text,
                          monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and out == ""
    assert "Traceback" not in err and "n >= 1" in err
    # the smallest pattern still has its pair
    text = json.dumps({"n": 1, "positions": [[1, 1]]})
    code, out, _ = _run(["incidence-pair"], stdin_text=text,
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0 and verify_document(json.loads(out)) == []


def test_verifier_imports_no_package_module_at_module_level():
    """The constructions call the verifier on what they emit, so an import
    of package code at the verifier's module level would be a cycle and
    would let it trust the code it checks."""
    tree = ast.parse(Path(algforge.verify.__file__).read_text())

    def module_level(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield node
            yield from module_level(ast.iter_child_nodes(node))

    for node in module_level(tree.body):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, ast.unparse(node)
            names = [node.module]
        else:
            names = [alias.name for alias in node.names]
        assert not any(name.split(".")[0] == "algforge" for name in names), \
            ast.unparse(node)


def _one_by_one_document():
    one = _wire([[1]])
    return {"C": None,
            "inputs": {"a": {"n": 1, "basis": [one]},
                       "pattern": {"n": 1, "positions": [[1, 1]]}},
            "outputs": [one],
            "properties": [
                {"kind": "in_algebra", "target": "out:0", "algebra": "in:a"},
                {"kind": "spans_pattern", "gens": ["out:0"],
                 "pattern": "in:pattern"},
                {"kind": "dimension", "gens": ["out:0"], "value": 1}]}


@pytest.mark.parametrize("index, path", [
    (0, ("inputs", "a", "n")),
    (1, ("inputs", "pattern", "n")),
    (2, ("properties", 2, "value")),
], ids=["algebra-size", "pattern-size", "dimension-value"])
def test_verifier_rejects_boolean_sizes(index, path):
    doc = _one_by_one_document()
    assert verify_document(doc) == []
    *outer, last = path
    obj = doc
    for key in outer:
        obj = obj[key]
    obj[last] = True
    failures = verify_document(doc)
    assert len(failures) == 1 and failures[0].startswith(f"property {index} ")


def test_verifier_rejects_boolean_matrix_shapes():
    doc = {"C": None, "inputs": {}, "outputs": [_wire([[2]])],
           "properties": [{"kind": "nonneg", "target": "out:0"}]}
    assert verify_document(doc) == []
    doc["outputs"][0].update(rows=True, cols=True)
    failures = verify_document(doc)
    assert len(failures) == 1 and failures[0].startswith("property 0 ")
