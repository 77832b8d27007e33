"""Conjugated checks read the stored algebra.  `generate_equal` and
`generate_equal_conjugated` test X against the conjugated annihilator of
a stored span that is the larger side, and otherwise make one
elimination, span{I, X}, and read the source side's dimensions on the
stored matrices; `in_algebra_conjugated` tests C X C^{-1} against the
stored span; each wire entry string is parsed once per document.  The
verdicts and failure messages are those of the spans-first oracle, which
eliminated span{I, C^{-1} Y C} as well, and of the one-elimination
oracle, which never took the annihilator, on every golden document and on
seeded conjugated block-triangular documents, true and tampered.  A claim
with one matrix a side is decided first by the commutant of a cyclic
matrix; its failures are those of the annihilator oracle, which had no
such test, on those documents, on seeded one-matrix claims and on the
benchmark's documents."""

import copy
import importlib.util
import io
import json
import random
import types
from fractions import Fraction
from pathlib import Path

import pytest

from algforge import verify
from algforge.algebra import generate
from algforge.cli import run
from algforge.constructions import single_generator_nonneg
from algforge.matrices import (Mat, conjugate, direct_sum, identity,
                               jordan_cell, mat_from_json, mat_to_json,
                               matrix_unit, zero)
from algforge.verify import verify_document
from oracles import (ONE_ELIMINATION_CHECKS, SPANS_FIRST_CHECKS,
                     annihilator_failures, one_elimination_failures,
                     random_unimodular, span_rows, spans_first_failures)

DATA = Path(__file__).parent / "data"


def _documents(obj):
    """Every object with a properties list inside a JSON value."""
    if isinstance(obj, dict):
        if "properties" in obj:
            yield obj
        for value in obj.values():
            yield from _documents(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _documents(value)


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


def test_golden_documents_agree_with_spans_first():
    kinds = set()
    count = 0
    for path in sorted(DATA.glob("*.json")):
        for doc in _documents(json.loads(path.read_text())):
            assert verify_document(doc) == spans_first_failures(doc), path
            kinds |= {p["kind"] for p in doc["properties"]}
            count += 1
    assert count >= 28
    assert set(SPANS_FIRST_CHECKS) | {"covers_conjugated"} <= kinds


# -- seeded conjugated block-triangular documents ------------------------------

def _combination(coefs, mats, n):
    acc = zero(n)
    for coef, m in zip(coefs, mats):
        if coef:
            acc = acc + coef * m
    return acc


def _block_triangular(rng, n):
    """(positions, basis) of a random block upper-triangular algebra of
    n x n matrices: the 0-based positions on and above its diagonal
    blocks, and the matrix units there mixed by a random unimodular
    change of basis with a random scale."""
    cuts = rng.sample(range(1, n), rng.randint(0, n - 1))
    block = [sum(i >= c for c in cuts) for i in range(n)]
    positions = [(i, j) for i in range(n) for j in range(n)
                 if block[i] <= block[j]]
    units = [matrix_unit(n, i + 1, j + 1) for i, j in positions]
    mix = random_unimodular(rng, len(units), 1)
    scale = Fraction(rng.randint(1, 3), rng.randint(1, 2))
    return positions, [scale * _combination(row, units, n) for row in mix.data]


def _outside(positions, n):
    """A matrix unit off the positions, or None when they are all of M_n."""
    return next((matrix_unit(n, i + 1, j + 1) for i in range(n)
                 for j in range(n) if (i, j) not in positions), None)


def _singular(c):
    """c with its first row copied over its last: rank n - 1 (or 0)."""
    if c.rows == 1:
        return zero(1)
    return Mat.from_rows(list(c.data[:-1]) + [c.data[0]])


def _wires(mats):
    return [mat_to_json(m) for m in mats]


def _refs(name, mats):
    return [f"{name}:{i}" for i in range(len(mats))]


def _doc(c, basis, outputs, sources, units, target):
    """Properties: <outputs> = C^{-1} <sources> C, C target C^{-1} in the
    algebra, and <sources> = <units> on the stored side."""
    return {
        "C": mat_to_json(c),
        "inputs": {"algebra": {"n": basis[0].rows, "basis": _wires(basis)},
                   "sources": _wires(sources), "units": _wires(units),
                   "target": mat_to_json(target)},
        "outputs": _wires(outputs),
        "properties": [
            {"kind": "generate_equal_conjugated",
             "gens": _refs("out", outputs),
             "source_gens": _refs("in:sources", sources)},
            {"kind": "in_algebra_conjugated", "target": "in:target",
             "algebra": "in:algebra"},
            {"kind": "generate_equal",
             "gens_a": _refs("in:sources", sources),
             "gens_b": _refs("in:units", units)},
        ],
    }


def _trimmed(n, outputs, full):
    """The outputs that each enlarge what the kept ones generate, up to
    dimension full."""
    keep, dim = [], 0
    for x in outputs:
        grown = generate(n, keep + [x]).dim
        if grown > dim:
            keep, dim = keep + [x], grown
        if dim == full:
            break
    return keep


def _variants(rng, n):
    """Named documents for one random algebra A, C and outputs
    C^{-1} b C + k I."""
    positions, basis = _block_triangular(rng, n)
    units = [matrix_unit(n, i + 1, j + 1) for i, j in positions]
    c = random_unimodular(rng, n) * Fraction(rng.randint(1, 3),
                                             rng.randint(1, 2))
    conj = [conjugate(b, c) for b in basis]
    outputs = [x + rng.randint(0, 2) * identity(n) for x in conj]
    rng.shuffle(outputs)
    outside = _outside(positions, n)
    off = outside if outside is not None else Mat.from_rows(
        [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
    target = conjugate(2 * basis[-1] + identity(n), c)

    def with_(**kw):
        return _doc(**{"c": c, "basis": basis, "outputs": outputs,
                       "sources": basis, "units": units, "target": target,
                       **kw})

    k, other = rng.randrange(len(basis)), rng.randrange(len(basis))

    def replaced(m):
        return basis[:k] + [m] + basis[k + 1:]

    dim = len(basis)
    # the transposed algebra has A's dimension but, unless A is all of
    # M_n, other matrices
    transposed = [conjugate(b.transpose(), c) for b in basis]
    # units without E_nn span no I; dropping E_11 as well leaves a list
    # whose unital span has the first list's dimension
    last, first = units.index(matrix_unit(n, n, n)), units.index(
        matrix_unit(n, 1, 1))
    partial = [u for i, u in enumerate(units) if i != last]
    shorter = [u for i, u in enumerate(units) if i not in (last, first)]
    yield "true", with_()
    yield "other-C", with_(c=random_unimodular(rng, n, 3))
    yield "singular-C", with_(c=_singular(c))
    yield "C-size", with_(c=random_unimodular(rng, n + 1))
    yield "source-outside", with_(sources=replaced(off))
    yield "source-copy", with_(sources=replaced(basis[other]))
    yield "source-size", with_(sources=replaced(identity(n + 1)))
    yield "trim-generating", with_(outputs=_trimmed(n, outputs, dim))
    yield "trim-short", with_(outputs=outputs[:1])
    yield "equal-dimension", with_(outputs=transposed)
    yield "output-size", with_(outputs=outputs[:-1] + [identity(n + 1)])
    yield "empty-outputs", with_(outputs=[])
    yield "empty-sources", with_(sources=[], units=[])
    yield "target-off", with_(target=conjugate(off, c))
    yield "no-identity", with_(
        outputs=[conjugate(u, c) for u in partial], sources=shorter,
        units=partial)


def _seeded_documents():
    docs = []
    for seed in range(24):
        rng = random.Random(seed)
        docs += _variants(rng, 1 + seed % 4)
    return docs


SEEDED = _seeded_documents()


def test_seeded_block_triangular_documents_agree_with_spans_first():
    assert len(SEEDED) >= 300
    verdicts = {}
    for name, doc in SEEDED:
        failures = verify_document(doc)
        assert failures == spans_first_failures(doc), name
        verdicts.setdefault(name, set()).add(tuple(failures))
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


@pytest.mark.parametrize("name", ["central-k-eq-1", "central-k-eq-n",
                                  "central-k-mid-n3", "central-k-mid-n4"])
def test_in_algebra_conjugated_off_the_algebra_or_with_C_tampered(name):
    """A target moved off C^{-1} A C, and C replaced by another unimodular
    matrix or a singular one, fail as the conjugated span failed them."""
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
        assert failures == spans_first_failures(tampered)
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


def _spans_in_conjugated_coordinates(monkeypatch, check):
    """The spans of n x n matrices that `check` builds on the 2 x 2
    classify golden's generation property which hold a matrix outside the
    stored algebra, and how many spans of n x n matrices it builds."""
    doc = _classify_doc()
    assert doc["properties"][0]["kind"] == "in_algebra"
    d = verify._Document(doc)
    stored = d.span("in:algebra")
    d.transform()  # the elimination of [C | I] is not one of matrices
    n = doc["C"]["rows"]
    spans = []

    class Recording(verify._Span):
        def __init__(self):
            super().__init__()
            self.added = []
            spans.append(self)

        def add(self, vec):
            self.added.append(list(vec))
            return super().add(vec)

    monkeypatch.setattr(verify, "_Span", Recording)
    assert check(d, doc["properties"][-1])
    monkeypatch.undo()
    square = [s for s in spans if all(len(v) == n * n for v in s.added)]
    return [s for s in square
            if not all(stored.contains(v) for v in s.added)], len(square)


def test_generate_equal_conjugated_builds_one_conjugated_span(monkeypatch):
    """On the basis path span{I, outputs} is the one span in conjugated
    coordinates, and the only span it builds: the sources name the
    algebra's basis, whose stored span the witness's `in_algebra` check
    has built.  The golden's algebra (d = 12 of n^2 = 16) takes the
    annihilator path, which builds no span at all: the outputs are tested
    against the stored span's conjugated annihilator and counted by a
    forward elimination.  The spans-first oracle built two spans, both
    conjugated."""
    check = verify._CHECKS["generate_equal_conjugated"]
    assert _spans_in_conjugated_coordinates(monkeypatch, check) == ([], 0)
    basis_path = ONE_ELIMINATION_CHECKS["generate_equal_conjugated"]
    conjugated, total = _spans_in_conjugated_coordinates(monkeypatch,
                                                         basis_path)
    assert len(conjugated) == total == 1
    outputs = _classify_doc()["outputs"]
    assert conjugated[0].added[1:] == [
        verify._vec(verify._grid(m, {})) for m in outputs]
    oracle = SPANS_FIRST_CHECKS["generate_equal_conjugated"]
    conjugated, total = _spans_in_conjugated_coordinates(monkeypatch, oracle)
    assert len(conjugated) == total == 2


def _diag(*values):
    return direct_sum([Mat.from_rows([[v]]) for v in values])


def test_closure_fallback_closes_the_stored_sources(monkeypatch):
    """The m = 1 single-generator certificate of the derogatory
    diag(2, 2, 3, 5): A is not cyclic, so the commutant test cannot decide
    the claim; its positive output and I span less than <A>, so the
    verifier closes the output and then A as stored, never C^{-1} A C."""
    doc = single_generator_nonneg(_diag(2, 2, 3, 5)).to_json()
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


def _counts(monkeypatch, doc, failures=verify_document):
    """(products, span insertions, closures) that `failures` makes on
    doc, which must verify."""
    products = _spy(monkeypatch, "_imul")
    closures = _spy(monkeypatch, "_closure")
    insertions = []
    real_add = verify._Span.add

    def add(span, vec):
        insertions.append(1)
        return real_add(span, vec)

    monkeypatch.setattr(verify._Span, "add", add)
    assert failures(doc) == []
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
    doc = single_generator_nonneg(_diag(2, 2, 3, 5)).to_json()
    assert _counts(monkeypatch, doc) == _counts(
        monkeypatch, doc, annihilator_failures) == (5, 12, 2)


def test_commutant_counts_on_a_cyclic_certificate(monkeypatch):
    """The m = 1 single-generator certificate of diag(2) (+) J_2(3), whose
    A is cyclic, verifies by the commutant in 4 integer products and 3
    span insertions, with no closure: C^{-1} A C (two) and B A', A' B for
    A' = C^{-1} A C, and the three rows of [C | I].  With no commutant
    test it took 4 products, 10 insertions and 2 closures."""
    a = direct_sum([Mat.from_rows([[2]]), jordan_cell(2, 3)])
    doc = single_generator_nonneg(a).to_json()
    assert _counts(monkeypatch, doc) == (4, 3, 0)
    assert _counts(monkeypatch, doc, annihilator_failures) == (4, 10, 2)


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


def test_golden_and_seeded_documents_agree_with_one_elimination(monkeypatch):
    """Every golden document and every seeded one, true or tampered, fails
    as it did when each claim was decided by the one elimination of
    span{I, X} with every source conjugated, messages included.  Both
    kinds of claim take the annihilator path on some seeded algebras and
    the basis path on others."""
    count = 0
    for path in sorted(DATA.glob("*.json")):
        for doc in _documents(json.loads(path.read_text())):
            assert verify_document(doc) == one_elimination_failures(doc), path
            count += 1
    assert count >= 28
    assert len(SEEDED) >= 300
    taken = {}
    for name, doc in SEEDED:
        calls = _spy(monkeypatch, "_annihilated")
        failures = verify_document(doc)
        monkeypatch.undo()
        assert failures == one_elimination_failures(doc), name
        for call in calls:
            taken[call[-1]] = taken.get(call[-1], 0) + 1
    # each seeded document holds one claim of each kind
    assert 0 < taken[True] < len(SEEDED) and 0 < taken[False] < len(SEEDED)


def _units(n, positions):
    return [matrix_unit(n, i, j) for i, j in positions]


def _generation_doc(c, sources, outputs):
    """The one claim <outputs> = C^{-1} <sources> C."""
    return {"C": mat_to_json(c), "inputs": {"sources": _wires(sources)},
            "outputs": _wires(outputs),
            "properties": [{"kind": "generate_equal_conjugated",
                            "gens": _refs("out", outputs),
                            "source_gens": _refs("in:sources", sources)}]}


def _upper(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


def _annihilator_cases():
    """(name, document, verdict, path): each claim, whether it holds, and
    whether the annihilator path decides it ("annihilator"), is tried and
    falls back ("fallback"), or is never tried ("basis")."""
    rng = random.Random(29)
    for n in (3, 4):
        c = random_unimodular(rng, n)
        units = _units(n, _upper(n))
        # without E_nn, I and the other units of T_n still span it
        outputs = [conjugate(u, c) for u in units if u != matrix_unit(n, n, n)]
        yield f"upper-{n}", _generation_doc(c, units, outputs), True, \
            "annihilator"
        # C^{-1} E_11 C replaced by a copy of C^{-1} E_22 C: span{I, X} is
        # short by one, and X generates no E_11
        copied = [conjugate(matrix_unit(n, 2, 2), c) if u == matrix_unit(
            n, 1, 1) else x for u, x in zip(units, outputs)]
        yield f"copy-{n}", _generation_doc(c, units, copied), False, \
            "fallback"
        full = _units(n, [(i, j) for i in range(1, n + 1)
                          for j in range(1, n + 1)])
        conj = [conjugate(u, c) for u in full]
        yield f"full-{n}", _generation_doc(c, full, conj), True, \
            "annihilator"
        # span{units but E_nn} holds no I, but generates M_n
        yield f"no-identity-{n}", _generation_doc(c, full[:-1], conj[:-1]), \
            True, "basis"
    # d = n^2 / 2 stays on the basis path
    for n, positions in ((2, [(1, 1), (2, 2)]),
                         (4, [(i, j) for i in range(1, 5)
                              for j in range(1, 5) if (i < 3) == (j < 3)])):
        c = random_unimodular(rng, n)
        units = _units(n, positions)
        yield f"half-{n}", _generation_doc(
            c, units, [conjugate(u, c) for u in units]), True, "basis"


ANNIHILATOR_CASES = list(_annihilator_cases())


@pytest.mark.parametrize("name,doc,verdict,path", ANNIHILATOR_CASES,
                         ids=[case[0] for case in ANNIHILATOR_CASES])
def test_annihilator_path_agrees_with_one_elimination(name, doc, verdict,
                                                      path, monkeypatch):
    """The annihilator is tried only when the stored span S holds I and
    is the larger side, n^2 - dim S < dim S; it conjugates each of its
    n^2 - dim S vectors by two products and conjugates no source, and a
    claim it cannot prove falls back to the basis path, which conjugates
    every source and closes X.  Verdicts and messages are those of the
    one-elimination oracle."""
    annihilated = _spy(monkeypatch, "_annihilated")
    products = _spy(monkeypatch, "_imul")
    closures = _spy(monkeypatch, "_closure")
    failures = verify_document(doc)
    monkeypatch.undo()
    assert failures == one_elimination_failures(doc)
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
    basis path, with the one-elimination oracle's messages."""
    doc = _classify_doc()
    n = doc["C"]["rows"]
    outputs = [mat_from_json(m, {}) for m in doc["outputs"]]
    assert not generate(n, outputs).contains(matrix_unit(n, 1, 1))
    last = len(doc["properties"]) - 1
    for k in (0, len(outputs) - 1):
        tampered = copy.deepcopy(doc)
        tampered["outputs"][k] = mat_to_json(outputs[k] + matrix_unit(n, 1, 1))
        failures = verify_document(tampered)
        assert failures == one_elimination_failures(tampered)
        assert failures == [f"property {last} (generate_equal_conjugated)"
                            " failed"]


def test_full_algebra_claim_conjugates_nothing(monkeypatch):
    """C^{-1} M_3 C = M_3: the annihilator of the stored span is empty, so
    the claim is decided with no product at all."""
    c = random_unimodular(random.Random(3), 3)
    full = _units(3, [(i, j) for i in range(1, 4) for j in range(1, 4)])
    doc = _generation_doc(c, full, [conjugate(u, c) + identity(3)
                                    for u in full])
    products = _spy(monkeypatch, "_imul")
    assert verify_document(doc) == []
    assert products == []


# -- one matrix a side: the commutant of a cyclic matrix ----------------------

def _one_matrix_doc(x, y, c=None):
    """The claim <x> = <y>, or given C, <x> = C^{-1} <y> C."""
    doc = {"inputs": {"generator": mat_to_json(y)},
           "outputs": [mat_to_json(x)]}
    if c is None:
        doc["properties"] = [{"kind": "generate_equal", "gens_a": ["out:0"],
                              "gens_b": ["in:generator"]}]
    else:
        doc["C"] = mat_to_json(c)
        doc["properties"] = [{"kind": "generate_equal_conjugated",
                              "gens": ["out:0"],
                              "source_gens": ["in:generator"]}]
    return doc


def _similar(rng, m):
    return conjugate(m, random_unimodular(rng, m.rows))


def _one_matrix_variants(rng, n):
    """Named one-matrix claims for a seeded cyclic y of size n: a Jordan
    block beside distinct eigenvalues, under a random similarity."""
    k = rng.randint(1, n)
    values = rng.sample([v for v in range(-6, 7) if v != 0], n - k + 1)
    y = _similar(rng, direct_sum([jordan_cell(k, values[0])] + [
        Mat.from_rows([[v]]) for v in values[1:]]))
    c = random_unimodular(rng, n) * Fraction(rng.randint(1, 3),
                                             rng.randint(1, 2))
    a, b = rng.choice([-2, -1, 1, 3]), rng.randint(-2, 2)
    cases = [("cyclic-true", a * y + b * identity(n), y),
             ("other-algebra", _similar(rng, jordan_cell(n, 1)), y)]
    if n > 1:
        # two Jordan blocks for one eigenvalue: y is derogatory
        derogatory = _similar(rng, direct_sum(
            [jordan_cell(n - 1, values[0]), Mat.from_rows([[values[0]]])]))
        # w^2 commutes with the cyclic w but takes 1 and -1 both to 1
        w = _similar(rng, _diag(1, -1, *range(2, n)))
        cases += [("derogatory-true", a * derogatory + b * identity(n),
                   derogatory),
                  ("commuting-derogatory", w @ w, w)]
    cases.append(("source-size", y, identity(n + 1)))
    for name, x, source in cases:
        yield name, _one_matrix_doc(x, source)
        if name != "source-size":
            yield name, _one_matrix_doc(conjugate(x, c), source, c)
    x = conjugate(a * y + b * identity(n), c)
    yield "other-C", _one_matrix_doc(x, y, random_unimodular(rng, n, 3))
    yield "singular-C", _one_matrix_doc(x, y, _singular(c))
    yield "C-size", _one_matrix_doc(x, y, random_unimodular(rng, n + 1))
    yield "source-size", _one_matrix_doc(x, identity(n + 1), c)


ONE_MATRIX = [case for seed in range(15) for case in _one_matrix_variants(
    random.Random(300 + seed), 1 + seed % 5)]


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


def test_one_matrix_documents_agree_with_the_annihilator_oracle(monkeypatch):
    """Seeded one-matrix claims, plain and conjugated, true and tampered:
    the failures, messages included, are those of the verifier with no
    commutant test, and each claim takes the path that engine arithmetic
    predicts.  A fallback pays no product beyond the oracle's but the two
    of the commutation test, and those only when both matrices are
    cyclic, as C^{-1} y C is made once."""
    assert len(ONE_MATRIX) >= 100
    verdicts, taken = {}, {}
    for name, doc in ONE_MATRIX:
        products = _spy(monkeypatch, "_imul")
        failures = verify_document(doc)
        monkeypatch.undo()
        oracle_products = _spy(monkeypatch, "_imul")
        assert failures == annihilator_failures(doc), name
        monkeypatch.undo()
        (path,) = _paths(monkeypatch, doc)
        assert path == _expected_path(doc), name
        if path == "fallback":
            x, y = (mat_from_json(m, {}) for m in (
                doc["outputs"][0], doc["inputs"]["generator"]))
            extra = 2 if _krylov_cyclic(y) and _krylov_cyclic(x) else 0
            assert len(products) == len(oracle_products) + extra, name
        verdicts.setdefault(name, set()).add(tuple(failures))
        taken.setdefault(name, set()).add(path)
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
    y = conjugate(_diag(1, 2, 3), s.inverse)
    assert not _krylov_cyclic(y)
    c = random_unimodular(random.Random(5), 3)
    for doc in (_one_matrix_doc(2 * y + identity(3), y),
                _one_matrix_doc(conjugate(2 * y + identity(3), c), y, c)):
        assert verify_document(doc) == annihilator_failures(doc) == []
        assert _paths(monkeypatch, doc) == ["fallback"]


def _golden_documents():
    return [doc for path in sorted(DATA.glob("*.json"))
            for doc in _documents(json.loads(path.read_text()))]


def _benchmark_documents(seed, work):
    """The documents of one library pass of each benchmark workload for
    seed, and the single-generator workload's fixed 5 x 5 input."""
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).parent.parent / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    program = types.SimpleNamespace(**{
        name: importlib.import_module(f"algforge.{name}") for name in (
            "algebra", "cli", "constructions", "matrices", "spectral",
            "verify")})

    class LibraryPass:
        """What a workload's library pass asks of the benchmark runner."""

        def op(self, stage, fn, expect=None):
            result = fn()
            assert expect is None or expect(result), stage
            return result

        def round_trip(self, certs):
            return [json.loads(workloads.canonical(c.to_json()))
                    for c in certs]

        def verdicts(self, docs):
            return [f for doc in docs for f in verify_document(doc)]

    docs = {}
    for name, workload in sorted(workloads.WORKLOADS.items()):
        made = workload(program, seed, str(work), False)
        docs[name] = made.library(LibraryPass())["docs"]
        if name == "single-generator":
            docs["hostile"] = [single_generator_nonneg(
                made.hostile).to_json()]
    return docs


def test_documents_agree_with_the_annihilator_oracle(monkeypatch, tmp_path):
    """Every golden, every seeded block-triangular document and every
    document of the benchmark's seeds 1 to 3 fails as the verifier with
    no commutant test failed it, messages included.  Each
    single-generator certificate, the fixed 5 x 5 input's among them,
    takes the commutant path; no claim with more than one matrix a side
    tries it."""
    sets = {"golden": _golden_documents(),
            "seeded": [doc for _, doc in SEEDED]}
    for seed in (1, 2, 3):
        for name, docs in _benchmark_documents(seed, tmp_path).items():
            sets.setdefault(name, []).extend(docs)
    assert len(sets["golden"]) >= 28 and len(sets["seeded"]) >= 300
    taken = {}
    for name, docs in sets.items():
        for doc in docs:
            assert verify_document(doc) == annihilator_failures(doc), name
            for p, path in zip([p for p in doc["properties"] if p["kind"] in (
                    "generate_equal", "generate_equal_conjugated")],
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
