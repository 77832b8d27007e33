"""Conjugated checks read the stored algebra.  `generate_equal` and
`generate_equal_conjugated` test X against the conjugated annihilator of
a stored span that is the larger side, and otherwise make one
elimination, span{I, X}, and read the source side's dimensions on the
stored matrices; `in_algebra_conjugated` tests C X C^{-1} against the
stored span; each wire entry string is parsed once per document.  A
claim with one matrix a side is decided first by the commutant of a
cyclic matrix.  These tests pin the verdicts of named tampers, the path
each claim takes and what it costs (products, span insertions, closures
and parses) on the seeded, annihilator and one-matrix documents of
`corpus` and on the benchmark's documents; `test_verifier_reference`
checks every verdict and message of those documents against the
reference."""

import copy
import io
import json
import random
from pathlib import Path

import pytest

from algforge import verify
from algforge.algebra import generate
from algforge.cli import run
from algforge.constructions import single_generator_nonneg
from algforge.matrices import (Mat, conjugate, direct_sum, identity,
                               jordan_cell, mat_from_json, mat_to_json, zero)
from algforge.verify import verify_document
from corpus import (ANNIHILATOR_CASES, ONE_MATRIX, SEEDED,
                    benchmark_documents, diag, generation_doc,
                    golden_documents,
                    matrix_units, one_matrix_doc)
from oracles import matrix_unit, random_unimodular, span_rows
import reference

DATA = Path(__file__).parent / "data"


def _matrices(obj):
    """Every wire matrix inside a JSON value."""
    if isinstance(obj, dict):
        if "entries" in obj:
            yield obj
        for value in obj.values():
            yield from _matrices(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _matrices(value)


def _classify_doc():
    return json.loads((DATA / "conjugated-2x2-classify.json").read_text())[
        "certificate"]


def test_seeded_block_triangular_documents_agree_with_spans_first():
    """Named tampers of the seeded documents fail or hold as they did
    when the spans-first verifier, which eliminated span{I, C^{-1} Y C}
    as well, decided them; `test_verifier_reference` checks every verdict
    and message against the reference."""
    assert len(SEEDED) >= 300
    verdicts = {}
    for name, doc in SEEDED:
        verdicts.setdefault(name, set()).add(tuple(verify_document(doc)))
    assert verdicts["true"] == {()}
    assert all(f == ("property 0 (generate_equal_conjugated): transformation"
                     " matrix is singular",
                     "property 1 (in_algebra_conjugated): transformation"
                     " matrix is singular")
               for f in verdicts["singular-C"])
    # the closure path verifies a trimmed list that still generates
    assert verdicts["trim-generating"] == {()}
    for name in ("output-size", "empty-outputs", "empty-sources", "C-size",
                 "source-size"):
        assert () not in verdicts[name], name
    # a tamper that may leave the claim true where A is all of M_n, or for
    # n = 1, fails on the other algebras; one that removes I from the
    # span of X leaves it true on some algebras only
    for name in ("source-outside", "trim-short", "equal-dimension",
                 "other-C", "no-identity"):
        assert len({bool(f) for f in verdicts[name]}) == 2, name
    assert ("property 1 (in_algebra_conjugated) failed",) in verdicts[
        "target-off"]


def test_golden_and_seeded_documents_agree_with_one_elimination(monkeypatch):
    """Every golden document verifies, as it did when each claim was
    decided by the one elimination of span{I, X}.  Both kinds of
    generation claim take the annihilator path, which that elimination
    never took, on some seeded algebras and the basis path on others."""
    goldens = golden_documents()
    assert len(goldens) >= 38
    for name, doc in goldens:
        assert verify_document(doc) == [], name
    taken = {}
    for name, doc in SEEDED:
        calls = _spy(monkeypatch, "_annihilated")
        verify_document(doc)
        monkeypatch.undo()
        for call in calls:
            taken[call[-1]] = taken.get(call[-1], 0) + 1
    # each seeded document holds one claim of each kind
    assert 0 < taken[True] < len(SEEDED) and 0 < taken[False] < len(SEEDED)


@pytest.mark.parametrize("name", ["central-k-eq-1", "central-k-eq-n",
                                  "central-k-mid-n3", "central-k-mid-n4"])
def test_in_algebra_conjugated_off_the_algebra_or_with_C_tampered(name):
    """A target moved off C^{-1} A C, and C replaced by a singular
    matrix, fail the conjugated membership claim; C replaced by another
    unimodular matrix verifies or fails as the reference says."""
    doc = json.loads((DATA / "constructions.json").read_text())[name]
    prop = next(i for i, p in enumerate(doc["properties"])
                if p["kind"] == "in_algebra_conjugated")
    assert verify_document(doc) == []
    n = doc["C"]["rows"]
    rng = random.Random(n)
    algebra = generate(n, [mat_from_json(b, {})
                           for b in doc["inputs"]["algebra"]["basis"]])
    off = next(matrix_unit(n, i, j) for i in range(1, n + 1)
               for j in range(1, n + 1)
               if not algebra.contains(matrix_unit(n, i, j)))
    moved = copy.deepcopy(doc)
    moved["outputs"][0] = mat_to_json(conjugate(
        off + identity(n), mat_from_json(doc["C"], {})))
    tampered_c = copy.deepcopy(doc)
    tampered_c["C"] = mat_to_json(random_unimodular(rng, n, 3))
    singular = copy.deepcopy(doc)
    singular["C"] = mat_to_json(zero(n))
    for tampered in (moved, tampered_c, singular):
        failures = verify_document(tampered)
        assert bool(failures) != reference.verifies(tampered)
        assert any(f.startswith(f"property {prop} (in_algebra_conjugated)")
                   for f in failures) or tampered is tampered_c


# -- counts: one parse per string, one conjugated span, stored closures --------

def test_each_entry_string_is_parsed_once_per_document(monkeypatch):
    doc = _classify_doc()
    strings = [v for m in _matrices(doc) for row in m["entries"] for v in row]
    calls = []
    real = verify._rational

    def counting(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(verify, "_rational", counting)
    assert verify_document(doc) == []
    assert sorted(calls) == sorted(set(strings))
    assert len(calls) < len(strings) // 4


def test_generate_equal_conjugated_builds_one_conjugated_span(monkeypatch):
    """The golden's algebra (d = 12 of n^2 = 16) takes the annihilator
    path, which builds no span at all: the sources name the algebra's
    basis, whose stored span the witness's `in_algebra` check has built,
    and the outputs are tested against the stored span's conjugated
    annihilator and counted by a forward elimination."""
    doc = _classify_doc()
    assert doc["properties"][0]["kind"] == "in_algebra"
    d = verify._Document(doc)
    d.span("in:algebra")
    d.transform()  # the elimination of [C | I]
    spans = _spy(monkeypatch, "_Span")
    assert verify._CHECKS["generate_equal_conjugated"](d, doc["properties"][-1])
    assert spans == []


def test_closure_fallback_closes_the_stored_sources(monkeypatch):
    """The m = 1 single-generator certificate of the derogatory
    diag(2, 2, 3, 5): A is not cyclic, so the commutant test cannot decide
    the claim; its positive output and I span less than <A>, so the
    verifier closes the output and then A as stored, never C^{-1} A C."""
    doc = single_generator_nonneg(diag(2, 2, 3, 5)).to_json()
    prop = doc["properties"][-1]
    assert prop["kind"] == "generate_equal_conjugated"
    (source,) = prop["source_gens"]
    d = verify._Document(doc)
    stored = d.matrix(source)
    conjugated = d.conjugate(stored)
    assert conjugated != stored
    closed = []
    real = verify._closure

    def closing(gens, bound=None, start=None):
        closed.append(gens)
        return real(gens, bound, start)

    monkeypatch.setattr(verify, "_closure", closing)
    assert verify_document(doc) == []
    assert closed == [[d.matrix(r) for r in prop["gens"]], [stored]]


def _counts(monkeypatch, doc):
    """(products, span insertions, closures) that the verifier makes on
    doc, which must verify."""
    products = _spy(monkeypatch, "_imul")
    closures = _spy(monkeypatch, "_closure")
    insertions = []
    real_add = verify._Span.add

    def add(span, vec):
        insertions.append(1)
        return real_add(span, vec)

    monkeypatch.setattr(verify._Span, "add", add)
    assert verify_document(doc) == []
    monkeypatch.undo()
    return len(products), len(insertions), len(closures)


def test_closure_fallback_counts_on_the_m1_certificate(monkeypatch):
    """The diag(2, 2, 3, 5) certificate verifies in 5 integer products and
    12 span insertions, as it did with no commutant test: A fails the
    cyclic test on mat-vec products alone, so the fallback pays no extra
    product.  Products: C^{-1} A C (two), B^2 and B^3, which close <B> at
    dimension 3 below the ceiling 4, and A^2, which takes <A> past the
    bound dim <B> - 1 = 2.  Insertions: the four rows of [C | I], A's
    stored span, I and B, B^2 and B^3, and I, A and A^2."""
    doc = single_generator_nonneg(diag(2, 2, 3, 5)).to_json()
    assert _counts(monkeypatch, doc) == (5, 12, 2)


def test_commutant_counts_on_a_cyclic_certificate(monkeypatch):
    """The m = 1 single-generator certificate of diag(2) (+) J_2(3), whose
    A is cyclic, verifies by the commutant in 4 integer products and 3
    span insertions, with no closure: C^{-1} A C (two) and B A', A' B for
    A' = C^{-1} A C, and the three rows of [C | I].  With no commutant
    test it took 4 products, 10 insertions and 2 closures."""
    a = direct_sum([Mat.from_rows([[2]]), jordan_cell(2, 3)])
    doc = single_generator_nonneg(a).to_json()
    assert _counts(monkeypatch, doc) == (4, 3, 0)


# -- a larger stored span through its annihilator ------------------------------

def _spy(monkeypatch, name):
    """Record the calls of the verifier's function `name`."""
    calls = []
    real = getattr(verify, name)

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify, name, recording)
    return calls


@pytest.mark.parametrize("name,doc,verdict,path", ANNIHILATOR_CASES,
                         ids=[case[0] for case in ANNIHILATOR_CASES])
def test_annihilator_path_agrees_with_one_elimination(name, doc, verdict,
                                                      path, monkeypatch):
    """The annihilator is tried only when the stored span S holds I and
    is the larger side, n^2 - dim S < dim S; it conjugates each of its
    n^2 - dim S vectors by two products and conjugates no source, and a
    claim it cannot prove falls back to the basis path, which conjugates
    every source and closes X."""
    annihilated = _spy(monkeypatch, "_annihilated")
    products = _spy(monkeypatch, "_imul")
    closures = _spy(monkeypatch, "_closure")
    failures = verify_document(doc)
    monkeypatch.undo()
    assert failures == ([] if verdict else [
        "property 0 (generate_equal_conjugated) failed"])
    n = doc["C"]["rows"]
    d = verify._Document(doc)
    dim = d.spanned(doc["properties"][0]["source_gens"]).dim
    sources = len(doc["inputs"]["sources"])
    assert len(annihilated) == (path != "basis")
    assert bool(closures) == (path == "fallback")
    if path == "fallback":  # and then the products of X's closure
        assert len(products) > 2 * (n * n - dim) + 2 * sources
    else:
        assert len(products) == (2 * (n * n - dim) if path == "annihilator"
                                 else 2 * sources)


def test_output_moved_off_the_conjugated_algebra_fails_as_before():
    """An output of the 2 x 2 classify golden plus E_11 lies outside
    C^{-1} A C: the annihilator finds it, and the claim then fails on the
    basis path."""
    doc = _classify_doc()
    n = doc["C"]["rows"]
    outputs = [mat_from_json(m, {}) for m in doc["outputs"]]
    assert not generate(n, outputs).contains(matrix_unit(n, 1, 1))
    last = len(doc["properties"]) - 1
    for k in (0, len(outputs) - 1):
        tampered = copy.deepcopy(doc)
        tampered["outputs"][k] = mat_to_json(outputs[k] + matrix_unit(n, 1, 1))
        failures = verify_document(tampered)
        assert failures == [f"property {last} (generate_equal_conjugated)"
                            " failed"]


def test_full_algebra_claim_conjugates_nothing(monkeypatch):
    """C^{-1} M_3 C = M_3: the annihilator of the stored span is empty, so
    the claim is decided with no product at all."""
    c = random_unimodular(random.Random(3), 3)
    full = matrix_units(3, [(i, j) for i in range(1, 4)
                            for j in range(1, 4)])
    doc = generation_doc(c, full, [conjugate(u, c) + identity(3)
                                   for u in full])
    products = _spy(monkeypatch, "_imul")
    assert verify_document(doc) == []
    assert products == []




def _rank(vectors, n):
    return len(span_rows(vectors, n))


def _krylov_cyclic(m):
    """Whether e_1 or (1, ..., 1) is a cyclic vector of the `Mat` m, by
    Fraction products and the Fraction Gauss-Jordan rank."""
    n = m.rows
    for v in ([[int(i == 0)] for i in range(n)], [[1]] * n):
        vecs, v = [], Mat.from_rows(v)
        for _ in range(n):
            vecs.append(v.transpose().data[0])
            v = m @ v
        if _rank(vecs, n) == n:
            return True
    return False


def _expected_path(doc):
    """The path the claim of a one-matrix document should take, read
    with engine arithmetic: "commutant" when the source and the output are
    cyclic by `_krylov_cyclic` and the output commutes with C^{-1} y C,
    "fallback" when it is well formed but fails one of those tests, and
    None when it is malformed."""
    (x,) = [mat_from_json(m, {}) for m in doc["outputs"]]
    y = mat_from_json(doc["inputs"]["generator"], {})
    if y.rows != x.rows:
        return None
    conj = y
    if "C" in doc:
        c = mat_from_json(doc["C"], {})
        if c.rows != x.rows or _rank(c.data, c.rows) < c.rows:
            return None
        conj = conjugate(y, c)
    if _krylov_cyclic(y) and _krylov_cyclic(x) and x @ conj == conj @ x:
        return "commutant"
    return "fallback"


def _paths(monkeypatch, doc):
    """For each generation claim of doc, checked on its own, the path
    that decides it: "commutant" when both cyclic tests pass and the
    claim returns before the stored span is built, "fallback" when the
    cyclic tests run and the claim goes on, and None when they never run
    (more than one matrix a side, or a malformed document)."""
    paths = []
    for p in doc["properties"]:
        if p["kind"] not in ("generate_equal", "generate_equal_conjugated"):
            continue
        cyclic, spanned = [], []
        real_cyclic, real_spanned = verify._is_cyclic, verify._Document.spanned

        def is_cyclic(rows):
            cyclic.append(real_cyclic(rows))
            return cyclic[-1]

        def spanned_(self, refs):
            spanned.append(refs)
            return real_spanned(self, refs)

        monkeypatch.setattr(verify, "_is_cyclic", is_cyclic)
        monkeypatch.setattr(verify._Document, "spanned", spanned_)
        try:
            verify._CHECKS[p["kind"]](verify._Document(doc), p)
        except (verify.CertificateError, KeyError, TypeError, ValueError):
            pass
        monkeypatch.undo()
        if not cyclic:
            paths.append(None)
        else:
            paths.append("fallback" if spanned else "commutant")
            assert spanned or cyclic == [True, True]
    return paths


def test_one_matrix_documents_take_the_predicted_paths(monkeypatch):
    """Seeded one-matrix claims, plain and conjugated, true and tampered:
    each claim takes the path that engine arithmetic predicts, the named
    tampers fail or hold as they should, and each path makes the products
    it made when the commutant test came in.  A fallback pays the two of
    the commutation test, and those only when both matrices are cyclic,
    as C^{-1} y C is made once."""
    assert len(ONE_MATRIX) >= 100
    verdicts, taken, products = {}, {}, {}
    for name, doc in ONE_MATRIX:
        calls = _spy(monkeypatch, "_imul")
        failures = verify_document(doc)
        monkeypatch.undo()
        (path,) = _paths(monkeypatch, doc)
        assert path == _expected_path(doc), name
        verdicts.setdefault(name, set()).add(tuple(failures))
        taken.setdefault(name, set()).add(path)
        products[name, path] = products.get((name, path), 0) + len(calls)
    assert products == {
        ("cyclic-true", "commutant"): 84, ("cyclic-true", "fallback"): 2,
        ("other-algebra", "commutant"): 18,
        ("other-algebra", "fallback"): 104,
        ("derogatory-true", "fallback"): 24,
        ("commuting-derogatory", "fallback"): 60,
        ("other-C", "commutant"): 12, ("other-C", "fallback"): 64,
        ("singular-C", None): 0, ("C-size", None): 0,
        ("source-size", None): 0}
    assert verdicts["cyclic-true"] == verdicts["derogatory-true"] == {()}
    assert () not in verdicts["commuting-derogatory"]
    for name in ("C-size", "source-size"):
        assert () not in verdicts[name], name
    assert all(f == ("property 0 (generate_equal_conjugated): transformation"
                     " matrix is singular",) for f in verdicts["singular-C"])
    assert taken["cyclic-true"] >= {"commutant"}
    assert taken["derogatory-true"] == taken["commuting-derogatory"] == {
        "fallback"}
    assert taken["singular-C"] == taken["C-size"] == taken["source-size"] == {
        None}


def test_cyclic_matrix_with_no_cyclic_test_vector_falls_back(monkeypatch):
    """y = S diag(1, 2, 3) S^{-1} has distinct eigenvalues, so it is
    cyclic, but e_1 and (1, 1, 1) are eigenvectors of it: the cyclic test
    reads False, and the claim verifies through the fallback."""
    s = Mat.from_rows([[1, 1, 0], [0, 1, 1], [0, 1, 0]])
    y = conjugate(diag(1, 2, 3), s.inverse)
    assert not _krylov_cyclic(y)
    c = random_unimodular(random.Random(5), 3)
    for doc in (one_matrix_doc(2 * y + identity(3), y),
                one_matrix_doc(conjugate(2 * y + identity(3), c), y, c)):
        assert verify_document(doc) == []
        assert _paths(monkeypatch, doc) == ["fallback"]




def test_benchmark_documents_take_the_commutant_path(monkeypatch):
    """Each single-generator certificate of the benchmark's seeds 1 to 3,
    the fixed 5 x 5 input's among them, takes the commutant path; no
    claim with more than one matrix a side tries it."""
    taken = {}
    for seed in (1, 2, 3):
        for name, docs in benchmark_documents(seed).items():
            for doc in docs:
                for p, path in zip([p for p in doc["properties"] if p[
                        "kind"] in ("generate_equal",
                                    "generate_equal_conjugated")],
                        _paths(monkeypatch, doc)):
                    one = len(p.get("gens", p.get("gens_a"))) == len(p.get(
                        "source_gens", p.get("gens_b"))) == 1
                    assert one or path is None, name
                    key = (name, doc.get("claim"))
                    taken.setdefault(key, []).append(path)
    single = taken[("single-generator", "single-generator-nonneg")]
    assert single == ["commutant"] * 24
    assert taken[("hostile", "single-generator-nonneg")] == ["commutant"] * 3
    # classify certificates name the whole basis on each side, and the
    # dimension table's pair certificates assert no generation claim
    for name in ("conjugated-classify", "single-generator"):
        assert set(taken[(name, "positive-generation")]) == {None}, name
    assert "dimension-table" not in {name for name, _ in taken}


# -- malformed entries under the shared parse cache ----------------------------

def _entrywise_error(entries):
    """The message of the first entry, in row-major order, that `_rational`
    refuses on its own."""
    for row in entries:
        for v in row:
            try:
                verify._rational(v)
            except verify.CertificateError as exc:
                return str(exc)
    return None


_BAD_ENTRIES = [1.5, None, [1], {}, "2/4", " 1", "1e3"]

# (wire matrix, failure): a bad entry between cached strings and before a
# second bad one, then rows or entries that are not lists.  A string row
# or a string or dict of entries was read by its characters or keys when
# their count matched the declared shape, so ["12"] read as [[1, 2]].
MALFORMED = [
    ({"rows": 2, "cols": 2, "entries": [["1", "1/2"], [bad, "007"]]},
     f"not a canonical rational: {bad!r}") for bad in _BAD_ENTRIES] + [
    ({"rows": 1, "cols": 2, "entries": ["12"]},
     "matrix row 0 is a str, not a list"),
    ({"rows": 1, "cols": 1, "entries": {"5": "x"}},
     "matrix entries are a dict, not a list of rows"),
    ({"rows": 1, "cols": 1, "entries": "5"},
     "matrix entries are a str, not a list of rows"),
    ({"cols": 1, "entries": [["1"]]}, "matrix has no 'rows' field"),
    ({"rows": 1, "entries": [["1"]]}, "matrix has no 'cols' field"),
]


@pytest.mark.parametrize("matrix,message", MALFORMED,
                         ids=["float", "none", "list", "dict", "unreduced",
                              "space", "exponent", "string-row",
                              "dict-entries", "string-entries",
                              "missing-rows", "missing-cols"])
def test_malformed_entries_fail_as_entry_by_entry(matrix, message,
                                                  monkeypatch, capsys):
    """A matrix read after another has filled the document's cache: the
    failure names the first bad entry, as parsing entry by entry does, or
    the row or entries that are not a list, or the missing shape field,
    and is a `CertificateError` even for an unhashable entry.
    `mat_from_json` refuses the matrix too, and the CLI's `verify` exits
    1."""
    good = {"rows": 2, "cols": 2, "entries": [["1", "1/2"], ["0", "2"]]}
    entries = matrix["entries"]
    doc = {"outputs": [good, matrix],
           "properties": [{"kind": "nonneg", "target": "out:0"},
                          {"kind": "nonneg", "target": "out:1"}]}
    if {"rows", "cols"} <= matrix.keys() and isinstance(entries, list) and all(
            isinstance(r, list) for r in entries):
        assert _entrywise_error(entries) == message
    assert verify_document(doc) == [f"property 1 (nonneg): {message}"]
    d = verify._Document(doc)
    d.matrix("out:0")
    with pytest.raises(verify.CertificateError) as exc:
        d.matrix("out:1")
    assert str(exc.value) == message
    # a failed read caches nothing it refused
    assert set(d._parsed) == {"1", "1/2", "0", "2"}
    with pytest.raises(ValueError):
        mat_from_json(matrix, {})
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert run(["verify"]) == 1
    capsys.readouterr()
