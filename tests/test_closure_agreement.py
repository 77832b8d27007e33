"""The engine's left-generator closure, the verifier's right-generator
closure and the reference's worklist agree on seeded random generators,
including redundant lists and one-matrix lists; the verifier's closure,
with and without a bound, reaches the reduced row-echelon basis of the
reference's worklist, and the engine's worklist keeps its words and span.
Lists with one unital span are found to generate one algebra with no
closure.  Every document a test here verifies, tampered or not, fails
exactly where the reference says it does not hold."""

import copy
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from algforge import verify
from algforge.algebra import closure_words, generate
from algforge.certificates import (Certificate, prop_dimension,
                                   prop_generate_equal,
                                   prop_generate_equal_conjugated)
from algforge.constructions import semicommuting_pair, solve_all_dimensions
from algforge.incidence import incidence_of_dimension
from algforge.matrices import (Mat, direct_sum, identity, inverse, is_nonneg,
                               jordan_cell, mat_from_json, mat_to_json, ones,
                               zero)
from algforge.polynomials import Poly
from algforge.verify import verify_document
from oracles import (companion, eager_closure_words, matrix_unit,
                     nonneg_basis_from_generators, random_pattern)
from reference import algebra_rref, gauss_jordan

DATA = Path(__file__).parent / "data"

pytestmark = pytest.mark.usefixtures("reference_agreement")


def _dense(rng, n):
    return Mat.from_rows([[Fraction(rng.randint(0, 4), rng.randint(1, 3))
                           for _ in range(n)] for _ in range(n)])


def _sparse(rng, n):
    return Mat.from_rows([[int(rng.random() < 0.3) for _ in range(n)]
                          for _ in range(n)])


def _commutes(gens):
    return all(a @ b == b @ a for a in gens for b in gens)


def _right_words(n, gens):
    """Words kept by a right-generator worklist: (x g)^T = g^T x^T, so they
    are the transposes of the left worklist's words for transposed gens."""
    words, _ = closure_words(n, [g.transpose() for g in gens])
    return [w.transpose() for w in words]


def _cases():
    rng = random.Random(20071419)
    cases = []
    for n in (3, 4):
        for count in (1, 2, 3):
            while True:
                gens = [_dense(rng, n) for _ in range(count)]
                if count == 1 or not _commutes(gens):
                    break
            cases.append(("dense", n, gens))
    sparse = 0
    while sparse < 6:
        n = rng.choice((3, 4))
        gens = [_sparse(rng, n) for _ in range(rng.randint(1, 3))]
        left = closure_words(n, gens)[0]
        if _commutes(gens) or left == _right_words(n, gens):
            continue
        cases.append(("sparse", n, gens))
        sparse += 1
    return cases


CASES = _cases()


def _redundant_cases():
    """Lists that repeat what earlier entries already generate: a full
    basis, the basis with shifted copies, I, the zero matrix, scalar
    multiples, repeated generators and words of earlier generators."""
    rng = random.Random(20260418)
    cases = []
    for n in (3, 4):
        g, h = _sparse(rng, n), _dense(rng, n)
        basis = list(generate(n, [g, h]).basis)
        cases += [
            ("basis", n, basis),
            ("shifted", n, basis + [b + 2 * g for b in basis]),
            ("identity", n, [identity(n), g, identity(n), h]),
            ("zero", n, [zero(n), g, zero(n), h, zero(n)]),
            ("scalar", n, [g, 3 * g, Fraction(-1, 2) * h, h]),
            ("repeated", n, [g, h, g, h, g]),
            ("words", n, [g, h, g @ h, h @ g @ g, g @ g, h + g @ h]),
        ]
    return cases


REDUNDANT = _redundant_cases()


def _diag(*vals):
    n = len(vals)
    return Mat.from_rows([[vals[i] if i == j else 0 for j in range(n)]
                          for i in range(n)])


# One-matrix lists: the a-priori ceiling n stops the worklists early only
# on a nonderogatory matrix, whose algebra has dimension n.
ONE_MATRIX = [
    ("nonderogatory", 5, [companion(Poly.of(-2, 0, 0, 0, 0, 1))]),
    ("derogatory", 3, [_diag(1, 1, 2)]),
    ("nilpotent", 4, [direct_sum([jordan_cell(3, 0), zero(1)])]),
    ("scalar", 3, [Fraction(3, 2) * identity(3)]),
    ("one-by-one", 1, [Mat.from_rows([[Fraction(-4, 3)]])]),
]


def _dimension_doc(gens, value):
    refs = [f"in:gens:{i}" for i in range(len(gens))]
    return Certificate(claim="dimension", inputs={"gens": list(gens)},
                       transform=None, outputs=(),
                       properties=(prop_dimension(refs, value),)).to_json()


@pytest.mark.parametrize("kind,n,gens", CASES + REDUNDANT,
                         ids=[f"{k}-{n}x{n}-{len(g)}"
                              for k, n, g in CASES + REDUNDANT])
def test_closures_agree(kind, n, gens):
    dim = generate(n, gens).dim
    assert len(algebra_rref(gens)) == dim
    assert verify_document(_dimension_doc(gens, dim)) == []
    assert verify_document(_dimension_doc(gens, dim + 1))
    assert verify_document(_dimension_doc(gens, dim - 1))


@pytest.mark.parametrize("kind,n,gens", CASES,
                         ids=[f"{k}-{n}x{n}-{len(g)}" for k, n, g in CASES])
def test_nonneg_basis_regenerates(kind, n, gens):
    alg = generate(n, gens)
    basis = nonneg_basis_from_generators(gens)
    assert len(basis) == alg.dim
    assert all(is_nonneg(b) for b in basis)
    assert generate(n, basis) == alg


def _grids(gens):
    return [verify._grid(mat_to_json(g), {}) for g in gens]


def _rref(span):
    """A verifier span's rows, each divided by its pivot entry."""
    return {p: {j: Fraction(v, row[p]) for j, v in row.items()}
            for p, row in span.rows.items()}


def _within(span, rows, length):
    """Whether a verifier span lies in the span of reference rows."""
    dense = [[row.get(j, 0) for j in range(length)]
             for row in [*rows.values(), *span.rows.values()]]
    return len(gauss_jordan(dense, length)) == len(rows)


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(verify, name)

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(verify, name, counting)
    return calls


def _count_imul(monkeypatch):
    return _count_calls(monkeypatch, "_imul")


def _count_matmul(monkeypatch):
    """Record each engine product `Mat @ Mat`."""
    products = []
    real = Mat.__matmul__

    def counting(a, b):
        products.append(1)
        return real(a, b)

    monkeypatch.setattr(Mat, "__matmul__", counting)
    return products


@pytest.mark.parametrize("kind,n,gens", CASES + REDUNDANT,
                         ids=[f"{k}-{n}x{n}-{len(g)}"
                              for k, n, g in CASES + REDUNDANT])
def test_lazy_closure_matches_eager_worklist(kind, n, gens):
    """The verifier's closure, which admits generators lazily, reaches the
    algebra of the reference's worklist."""
    span, size = verify._closure(_grids(gens))
    assert size == n
    assert _rref(span) == algebra_rref(gens)


@pytest.mark.parametrize("kind,n,gens", CASES + REDUNDANT + ONE_MATRIX,
                         ids=[f"{k}-{n}x{n}-{len(g)}"
                              for k, n, g in CASES + REDUNDANT + ONE_MATRIX])
def test_closure_words_without_stop_are_unchanged(kind, n, gens):
    """Skipping g I and stopping at the ceiling keep the words and span of
    the worklist that runs to the end."""
    words, span = closure_words(n, gens)
    ref_words, ref_span = eager_closure_words(n, gens)
    assert words == ref_words
    assert span == ref_span and span.dim == len(words)


@pytest.mark.parametrize("kind,n,gens", CASES + REDUNDANT + ONE_MATRIX,
                         ids=[f"{k}-{n}x{n}-{len(g)}"
                              for k, n, g in CASES + REDUNDANT + ONE_MATRIX])
def test_closure_matches_the_lazy_worklist(kind, n, gens):
    """Without a bound the closure reaches the algebra of the reference's
    worklist; under a bound it stops inside that algebra, once its
    dimension exceeds the bound or at the whole algebra."""
    grids = _grids(gens)
    full, size = verify._closure(grids)
    ref = algebra_rref(gens)
    assert size == n
    assert _rref(full) == ref
    for bound in range(1, full.dim + 2):
        span = verify._closure(grids, bound)[0]
        assert _within(span, ref, n * n)
        assert span.dim > bound or _rref(span) == ref


def test_lazy_closure_of_seeded_algebra_bases():
    """Bases of random algebras, with their words and multiples mixed in,
    close to the algebra of the reference's worklist."""
    rng = random.Random(7)
    for n in (2, 3, 4):
        for _ in range(4):
            gens = [_dense(rng, n) if rng.random() < 0.5 else _sparse(rng, n)
                    for _ in range(rng.randint(1, 2))]
            basis = list(generate(n, gens).basis)
            extra = [rng.choice(basis) @ rng.choice(basis) for _ in range(3)]
            mixed = basis + extra + [rng.randint(1, 5) * b for b in basis[:2]]
            rng.shuffle(mixed)
            for lst in (basis, mixed, gens + basis):
                span, _ = verify._closure(_grids(lst))
                assert _rref(span) == algebra_rref(lst)


@pytest.mark.parametrize("kind,n,gens", ONE_MATRIX,
                         ids=[k for k, _, _ in ONE_MATRIX])
def test_one_matrix_closures_make_no_product_by_i(kind, n, gens,
                                                  monkeypatch):
    """Both closures of one matrix g with an algebra of dimension d > 1
    make the products g^2 .. g^(d-1), and g^d, which proves the end, only
    when d < n: at d = n the ceiling stops them.  A scalar makes none.
    Before, each also made g I (or I g) and always g^d."""
    dim = generate(n, gens).dim
    expected = max(dim - 2 + (dim < n), 0)
    calls = _count_imul(monkeypatch)
    assert verify._closure(_grids(gens))[0].dim == dim
    assert len(calls) == expected
    products = _count_matmul(monkeypatch)
    assert generate(n, gens).dim == dim
    assert len(products) == expected


def test_generate_pins_one_generator_products(monkeypatch):
    """companion(x^4 + 2) closes in 2 products (A^2, A^3) where the
    worklist that multiplied by I and ran past the ceiling made 4, and
    diag(1, 1, 2) in 1 (D^2) where it made 2."""
    products = _count_matmul(monkeypatch)
    for g, dim, made in ((companion(Poly.of(2, 0, 0, 0, 1)), 4, 2),
                         (_diag(1, 1, 2), 2, 1)):
        products.clear()
        assert generate(g.rows, [g]).dim == dim
        assert len(products) == made


# -- positive-generation certificates: the outputs must generate the algebra --

def _classify_doc():
    return json.loads((DATA / "conjugated-2x2-classify.json").read_text())[
        "certificate"]


def _with_outputs(doc, outputs):
    """doc with the given wire outputs and its properties renumbered: the
    witness check, one positivity check per output and the conjugated
    generation check over all outputs."""
    out = copy.deepcopy(doc)
    out["outputs"] = outputs
    refs = [f"out:{i}" for i in range(len(outputs))]
    equal = dict(doc["properties"][-1], gens=refs)
    out["properties"] = ([doc["properties"][0]]
                         + [{"kind": "positive", "target": r} for r in refs]
                         + [equal])
    return out


def _generation_failure(doc):
    last = len(doc["properties"]) - 1
    return [f"property {last} (generate_equal_conjugated) failed"]


def test_output_outside_the_algebra_fails():
    doc = _classify_doc()
    assert verify_document(doc) == []
    n = doc["outputs"][0]["rows"]
    # every output is in the conjugated algebra; ones + E_11 is positive but
    # not in it, so only the generation check can reject it
    outputs = [mat_from_json(m, {}) for m in doc["outputs"]]
    assert generate(n, outputs).contains(ones(n))
    outside = ones(n) + matrix_unit(n, 1, 1)
    assert not generate(n, outputs).contains(outside)
    for k in (0, len(outputs) - 1):
        tampered = copy.deepcopy(doc)
        tampered["outputs"][k] = mat_to_json(outside)
        assert verify_document(tampered) == _generation_failure(tampered)


def test_redundant_output_replaced_inside_the_algebra_still_verifies():
    doc = _classify_doc()
    tampered = copy.deepcopy(doc)
    flat = mat_from_json(doc["outputs"][-1], {})
    tampered["outputs"][0] = mat_to_json(2 * flat)
    assert verify_document(tampered) == []


def test_outputs_generating_a_proper_subalgebra_fail():
    """The d + 1 outputs are redundant: any d of them span the algebra, so
    replacing one cannot shrink what they generate.  Trim the list to the
    flat idempotent M plus the outputs that each enlarge the algebra, which
    still verifies; then put M in place of the last one kept."""
    doc = _classify_doc()
    outputs = [mat_from_json(m, {}) for m in doc["outputs"]]
    n = outputs[0].rows
    full = generate(n, outputs)
    keep = [len(outputs) - 1]
    for i in range(len(outputs) - 1):
        dim = generate(n, [outputs[j] for j in keep]).dim
        if dim == full.dim:
            break
        if generate(n, [outputs[j] for j in keep + [i]]).dim > dim:
            keep.append(i)
    assert 2 < len(keep) < len(outputs)
    trimmed = _with_outputs(doc, [doc["outputs"][j] for j in keep])
    assert verify_document(trimmed) == []
    tampered = _with_outputs(doc, [doc["outputs"][j] for j in keep[:-1]]
                             + [doc["outputs"][-1]])
    assert generate(n, [mat_from_json(m, {})
                        for m in tampered["outputs"]]).dim < full.dim
    assert verify_document(tampered) == _generation_failure(tampered)


def test_classify_fixture_verifies_by_spans_alone(monkeypatch):
    """The outputs and the conjugated basis have one unital span, so the
    2 x 2 classify fixture verifies with no closure.  The algebra is the
    larger side (d = 12 of n^2 = 16), so its only products are the two of
    each annihilator vector's conjugation, 8 where conjugating the basis
    took 24.  Its span insertions are the 12 of the stored span and the 4
    of [C | I], and its only containment tests the witness's and I's in
    the stored span (30 and 14 when span{I, outputs} was eliminated)."""
    doc = _classify_doc()
    products = _count_imul(monkeypatch)
    closures = _count_calls(monkeypatch, "_closure")
    insertions, tests = [], []
    real_add, real_contains = verify._Span.add, verify._Span.contains

    def add(span, vec):
        insertions.append(1)
        return real_add(span, vec)

    def contains(span, vec):
        tests.append(1)
        return real_contains(span, vec)

    monkeypatch.setattr(verify._Span, "add", add)
    monkeypatch.setattr(verify._Span, "contains", contains)
    assert verify_document(doc) == []
    n, d = doc["C"]["rows"], len(doc["inputs"]["algebra"]["basis"])
    assert len(products) == 2 * (n * n - d) == 8
    assert (len(insertions), len(tests)) == (16, 2)
    assert closures == []


def test_classify_fixture_parses_each_matrix_once(monkeypatch):
    """The algebra is stored once and the generation check's sources index
    its basis, so the 12 basis matrices, the 13 outputs, the witness and C
    are each parsed once: 27 grids, where a second stored copy of the
    basis made 39."""
    doc = _classify_doc()
    grids = _count_calls(monkeypatch, "_grid")
    assert set(doc["inputs"]) == {"algebra", "witness"}
    assert verify_document(doc) == []
    assert len(grids) == (len(doc["inputs"]["algebra"]["basis"])
                          + len(doc["outputs"]) + 2) == 27


def test_classify_document_with_a_second_basis_copy_still_verifies():
    """The older form stores the basis again as a list input, which the
    sources index; it verifies as the one-copy form does."""
    doc = copy.deepcopy(_classify_doc())
    basis = doc["inputs"]["algebra"]["basis"]
    doc["inputs"]["algebra_basis"] = copy.deepcopy(basis)
    doc["properties"][-1]["source_gens"] = [
        f"in:algebra_basis:{i}" for i in range(len(basis))]
    assert verify_document(doc) == []


@pytest.mark.parametrize("ref,message", [
    ("in:witness:0", "'in:witness:0' is not an index into a list or an"
                     " algebra"),
    ("in:algebra:12", "'in:algebra:12' is not an index below 12"),
    ("in:algebra_basis:99", "'in:algebra_basis:99' is not an index below 12"),
    ("out:13", "'out:13' is not an index below 13"),
    ("out:99", "'out:99' is not an index below 13"),
])
def test_bad_indexed_references_fail_by_name(ref, message):
    """An index into a matrix, or past the end of a list input, an
    algebra's basis or the outputs, fails with the reference named."""
    doc = copy.deepcopy(_classify_doc())
    doc["inputs"]["algebra_basis"] = copy.deepcopy(
        doc["inputs"]["algebra"]["basis"])
    doc["properties"][0] = dict(doc["properties"][0], target=ref)
    assert verify_document(doc) == [f"property 0 (in_algebra): {message}"]


def test_missing_input_name_fails_by_reference():
    """An input name the certificate does not hold fails with the
    reference named, not with a bare key."""
    doc = copy.deepcopy(_classify_doc())
    for ref in ("in:nosuch", "in:nosuch:0"):
        doc["properties"][0] = dict(doc["properties"][0], target=ref)
        assert verify_document(doc) == [
            f"property 0 (in_algebra): {ref!r}: certificate has no input"
            " 'nosuch'"]


def test_missing_outputs_fail_by_reference():
    """With no outputs, every property that reads one names it."""
    doc = copy.deepcopy(_classify_doc())
    last = len(doc["properties"]) - 1
    del doc["outputs"]
    assert verify_document(doc) == [
        f"property {i} (positive): 'out:{i - 1}': certificate has no"
        " outputs" for i in range(1, last)] + [
        f"property {last} (generate_equal_conjugated): 'out:0':"
        " certificate has no outputs"]


@pytest.mark.parametrize("inputs", [None, [], "algebra"],
                         ids=["missing", "list", "string"])
def test_missing_inputs_fail_by_reference(inputs):
    """With no inputs object, the properties that read an input name the
    first reference they read."""
    doc = copy.deepcopy(_classify_doc())
    last = len(doc["properties"]) - 1
    if inputs is None:
        del doc["inputs"]
    else:
        doc["inputs"] = inputs
    assert verify_document(doc) == [
        "property 0 (in_algebra): 'in:algebra': certificate has no inputs"
        " object",
        f"property {last} (generate_equal_conjugated): 'in:algebra:0':"
        " certificate has no inputs object"]


def test_trimmed_outputs_still_close_and_verify(monkeypatch):
    """The flat idempotent M plus the outputs that each enlarge the
    algebra, as in `test_outputs_generating_a_proper_subalgebra_fail`,
    span less than the algebra but generate it: the worklist decides."""
    doc = _classify_doc()
    outputs = [mat_from_json(m, {}) for m in doc["outputs"]]
    n = outputs[0].rows
    full = generate(n, outputs)
    keep = [len(outputs) - 1]
    for i in range(len(outputs) - 1):
        dim = generate(n, [outputs[j] for j in keep]).dim
        if dim == full.dim:
            break
        if generate(n, [outputs[j] for j in keep + [i]]).dim > dim:
            keep.append(i)
    trimmed = _with_outputs(doc, [doc["outputs"][j] for j in keep])
    closures = _count_calls(monkeypatch, "_closure")
    assert verify_document(trimmed) == []
    assert closures


def test_lazy_admission_bounds_verifier_products(monkeypatch):
    """Verifying the 2 x 2 classify fixture took 312 integer products with
    every generator admitted up front."""
    calls = _count_imul(monkeypatch)
    assert verify_document(_classify_doc()) == []
    assert len(calls) <= 150


# -- source lists are checked by containment in the closed output algebra -----

def _with_sources(doc, basis, refs=None):
    """doc with the given wire list stored as the input `sources` and the
    conjugated generation check reading the given references into it
    (default: all of it); the algebra input is left as it is."""
    out = copy.deepcopy(doc)
    out["inputs"]["sources"] = basis
    if refs is None:
        refs = [f"in:sources:{i}" for i in range(len(basis))]
    out["properties"][-1] = dict(doc["properties"][-1], source_gens=refs)
    return out


def _source_algebra(doc):
    basis = [mat_from_json(m, {}) for m in doc["inputs"]["algebra"]["basis"]]
    return basis, generate(basis[0].rows, basis)


def test_source_matrix_outside_the_algebra_fails():
    doc = _classify_doc()
    basis, alg = _source_algebra(doc)
    n = alg.n
    outside = next(matrix_unit(n, i, j) for i in range(1, n + 1)
                   for j in range(1, n + 1)
                   if not alg.contains(matrix_unit(n, i, j)))
    for k in (0, len(basis) - 1):
        wire = list(doc["inputs"]["algebra"]["basis"])
        wire[k] = mat_to_json(outside)
        tampered = _with_sources(doc, wire)
        assert verify_document(tampered) == _generation_failure(tampered)


def test_source_list_generating_a_proper_subalgebra_fails():
    """Two basis matrices that generate less than the algebra: I and the
    two fall short of its dimension, so the verifier closes them."""
    doc = _classify_doc()
    basis, alg = _source_algebra(doc)
    pair = next((i, j) for i in range(len(basis))
                for j in range(i + 1, len(basis))
                if 3 <= generate(alg.n, [basis[i], basis[j]]).dim < alg.dim)
    tampered = _with_sources(doc, doc["inputs"]["algebra"]["basis"],
                             [f"in:sources:{k}" for k in pair])
    assert verify_document(tampered) == _generation_failure(tampered)


def test_short_source_list_that_generates_the_algebra_verifies():
    """A few basis matrices whose products fill the algebra: I and the
    list alone fall short, and the closure reaches the full dimension."""
    doc = _classify_doc()
    basis, alg = _source_algebra(doc)
    keep, dim = [], 1
    for i, b in enumerate(basis):
        grown = generate(alg.n, [basis[j] for j in keep] + [b]).dim
        if grown > dim:
            keep.append(i)
            dim = grown
        if dim == alg.dim:
            break
    assert len(keep) + 1 < alg.dim
    tampered = _with_sources(doc, doc["inputs"]["algebra"]["basis"],
                             [f"in:sources:{k}" for k in keep])
    assert verify_document(tampered) == []


def test_empty_and_wrong_size_source_lists_fail():
    doc = _classify_doc()
    last = len(doc["properties"]) - 1
    empty = _with_sources(doc, doc["inputs"]["algebra"]["basis"], [])
    assert verify_document(empty) == [
        f"property {last} (generate_equal_conjugated): closure of an empty"
        " generator list"]
    wire = list(doc["inputs"]["algebra"]["basis"])
    wire[0] = mat_to_json(identity(3))
    failures = verify_document(_with_sources(doc, wire))
    assert len(failures) == 1
    assert failures[0].startswith(f"property {last} (generate_equal_conjugated):")


def test_generates_checks_containment_then_closes(monkeypatch):
    """`generate_equal` against the engine where the unital spans differ:
    wrong sizes and empty lists fail by name, a matrix outside <X> or a
    list generating a proper subalgebra fails, a list reaching <X>
    verifies, and past the one elimination X is closed first."""
    n = 3
    upper = [Mat.from_rows([[1, 2, 0], [0, 1, 0], [0, 0, 3]]),
             Mat.from_rows([[0, 0, 0], [0, 0, Fraction(1, 2)], [0, 0, 0]])]
    assert (verify._closure(_grids(upper))[0].dim
            == generate(n, upper).dim == 5)
    reach = [upper[0] @ upper[1] + upper[1], upper[0]]
    failed = ["property 0 (generate_equal) failed"]
    closed = []
    real = verify._closure

    def closing(gens, bound=None, start=None):
        closed.append(gens)
        return real(gens, bound, start)

    monkeypatch.setattr(verify, "_closure", closing)
    assert verify_document(_equal_doc(upper, reach)) == []
    assert closed[0] == _grids(upper)
    assert verify_document(_equal_doc(upper, upper)) == []
    assert verify_document(_equal_doc(upper, [upper[0]])) == failed
    closed.clear()
    assert verify_document(_equal_doc(
        upper, reach + [matrix_unit(n, 3, 1)])) == failed
    assert closed == [_grids(upper)]
    assert verify_document(_equal_doc(upper, [])) == [
        "property 0 (generate_equal): closure of an empty generator list"]
    assert verify_document(_equal_doc(upper, reach + [identity(2)])) == [
        "property 0 (generate_equal): generator size does not match the"
        " algebra"]


def test_containment_check_bounds_verifier_products(monkeypatch):
    """Verifying the 2 x 2 classify fixture took 120 integer products when
    the conjugated source list was closed in full."""
    calls = _count_imul(monkeypatch)
    assert verify_document(_classify_doc()) == []
    assert len(calls) <= 80


# -- equal unital spans decide generated-algebra equality --------------------

def _equal_doc(xs, ys):
    refs = {name: [f"in:{name}:{i}" for i in range(len(m))]
            for name, m in (("x", xs), ("y", ys))}
    return Certificate(
        claim="generate-equal", inputs={"x": list(xs), "y": list(ys)},
        transform=None, outputs=(),
        properties=(prop_generate_equal(refs["x"], refs["y"]),)).to_json()


def _unital_rref(n, gens):
    """The reduced row-echelon basis of span{I, gens}, by the textbook
    Fraction elimination."""
    return gauss_jordan([[v for row in m.data for v in row]
                         for m in [identity(n)] + list(gens)], n * n)


def _equal_pairs():
    """Seeded (kind, n, X, Y).  "span": Y is shifted, scaled and summed
    members of span{I, X}, which it spans again.  "algebra": Y adds
    products of X's members, or is the basis of <X>, so it spans more
    but generates the same.  "other": one of Y's members is changed or
    dropped, so most pairs generate different algebras."""
    rng = random.Random(31337)
    pairs = []
    while len(pairs) < 60:
        n = rng.choice((2, 3, 4))
        xs = [_dense(rng, n) if rng.random() < 0.5 else _sparse(rng, n)
              for _ in range(rng.randint(1, 3))]
        kind = ("span", "algebra", "other")[len(pairs) % 3]
        if kind == "span":
            ys = [Fraction(rng.choice((-2, 1, 3)), rng.randint(1, 3))
                  * (x + rng.randint(-2, 2) * identity(n)) for x in xs]
            ys.append(xs[0] + xs[-1])
        elif kind == "algebra":
            ys = (list(generate(n, xs).basis) if rng.random() < 0.5
                  else xs + [rng.choice(xs) @ rng.choice(xs)])
        else:
            ys = list(xs)
            k = rng.randrange(len(ys))
            if len(ys) > 1 and rng.random() < 0.5:
                del ys[k]
            else:
                ys[k] = ys[k] + matrix_unit(n, rng.randint(1, n),
                                            rng.randint(1, n))
        rng.shuffle(ys)
        same_span = _unital_rref(n, xs) == _unital_rref(n, ys)
        if same_span != (kind == "span"):
            continue
        pairs.append((kind, n, xs, ys))
    return pairs


EQUAL_PAIRS = _equal_pairs()


def test_generate_equal_matches_the_engine(monkeypatch):
    """The verdict is the engine's `generate(n, X) == generate(n, Y)`;
    pairs with one unital span are decided with no closure, and every
    other pair is closed."""
    verdicts = {}
    for kind, n, xs, ys in EQUAL_PAIRS:
        expected = generate(n, xs) == generate(n, ys)
        closures = _count_calls(monkeypatch, "_closure")
        assert (verify_document(_equal_doc(xs, ys)) == []) == expected
        assert bool(closures) == (kind != "span")
        monkeypatch.undo()
        verdicts.setdefault(kind, set()).add(expected)
    assert verdicts == {"span": {True}, "algebra": {True},
                        "other": {False, True}}


def test_generate_equal_refuses_a_reshaped_member_of_the_span():
    """A 2 x 8 matrix whose row-major entries are those of a 4 x 4 member
    of span{I, X} is not a 4 x 4 matrix, whatever its entries."""
    rng = random.Random(8)
    xs = [_dense(rng, 4), _sparse(rng, 4)]
    member = xs[0] + 2 * identity(4)
    flat = [v for row in member.data for v in row]
    reshaped = Mat.from_rows([flat[:8], flat[8:]])
    for ys in ([reshaped], xs + [reshaped]):
        assert verify_document(_equal_doc(xs, ys)) == [
            "property 0 (generate_equal): generator size does not match the"
            " algebra"]


# -- one-generator claims: the closure of X, then the bounded one of Y -------

# x = U diag(1, -1, 2) U^{-1} for a unimodular U is not diagonal, so the
# generation lemma does not apply; <x> has dimension 3.
_U = Mat.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
_X = _U @ _diag(1, -1, 2) @ inverse(_U)
_C = Mat.from_rows([[1, 0, 1], [1, 1, 0], [0, 1, 2]])


def _one_generator_doc(x, y, c=_C):
    """The claim <x> = C^{-1} <y> C, with x the output and y stored."""
    return Certificate(
        claim="generate-equal-conjugated", inputs={"y": [y]}, transform=c,
        outputs=(x,), properties=(prop_generate_equal_conjugated(
            ["out:0"], ["in:y:0"]),)).to_json()


def _conjugated(x):
    return inverse(_C) @ x @ _C


def _spy_closures(monkeypatch):
    """(gens, bound, dim) of each `_closure` call."""
    closed = []
    real = verify._closure

    def closing(gens, bound=None, start=None):
        span, n = real(gens, bound, start)
        closed.append((gens, bound, span.dim))
        return span, n

    monkeypatch.setattr(verify, "_closure", closing)
    return closed


def test_one_generator_claims_that_hold_verify(monkeypatch):
    """x^2 + x has eigenvalues 2, 0 and 6, so it generates <x>, though x
    is not in span{I, x^2 + x}: X is closed to dimension 3, and the stored
    x closed under the bound 2 passes it.  x + 2 I needs no closure."""
    y = _X @ _X + _X
    assert generate(3, [y]) == generate(3, [_X])
    closed = _spy_closures(monkeypatch)
    assert verify_document(_one_generator_doc(_conjugated(y), _X)) == []
    assert [(bound, dim) for _, bound, dim in closed] == [(None, 3), (2, 3)]
    assert closed[1][0] == _grids([_X])
    assert verify_document(_equal_doc([y], [_X])) == []
    closed.clear()
    assert verify_document(_one_generator_doc(
        _conjugated(_X + 2 * identity(3)), _X)) == []
    assert closed == []


def test_one_generator_claim_with_a_singular_c_fails():
    doc = _one_generator_doc(_conjugated(_X), _X,
                             Mat.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]]))
    assert verify_document(doc) == [
        "property 0 (generate_equal_conjugated): transformation matrix is"
        " singular"]


def test_one_generator_claim_with_a_source_outside_fails(monkeypatch):
    """C^{-1} E_13 C is nilpotent and nonzero, so it is not in the
    semisimple <C^{-1} x C>; the stored source is never closed."""
    closed = _spy_closures(monkeypatch)
    doc = _one_generator_doc(_conjugated(_X), matrix_unit(3, 1, 3))
    assert verify_document(doc) == [
        "property 0 (generate_equal_conjugated) failed"]
    assert [(bound, dim) for _, bound, dim in closed] == [(None, 3)]


def test_one_generator_claim_on_a_proper_subalgebra_fails(monkeypatch):
    """<x^2> is a proper subalgebra of <x> (x^2 has eigenvalues 1, 1, 4),
    and x^2 lies in <x>; span{I, x^2} has the dimension of span{I, x}.  So
    only the closure of the stored x^2, bounded by dim <x> - 1 = 2, can
    refuse the claim, and it stops at dimension 2."""
    square = _X @ _X
    assert generate(3, [square]).dim == 2
    closed = _spy_closures(monkeypatch)
    failed = ["property 0 (generate_equal_conjugated) failed"]
    doc = _one_generator_doc(_conjugated(_X), square)
    assert verify_document(doc) == failed
    assert [(bound, dim) for _, bound, dim in closed] == [(None, 3), (2, 2)]
    assert closed[1][0] == _grids([square])
    assert verify_document(_equal_doc([_X], [square])) == [
        "property 0 (generate_equal) failed"]


# -- the generation lemma: a diagonal generator with distinct entries ---------

def _lemma_lists():
    """Seeded lists holding one diagonal matrix with distinct entries (a
    zero among them allowed) at a random place, and up to three other
    generators with mixed signs, denominators and sparse supports that are
    mostly not transitive."""
    rng = random.Random(1414)
    lists = []
    for n in range(1, 8):
        for _ in range(30):
            # distinct values over one denominator stay distinct
            den = rng.randint(1, 3)
            diag = [Fraction(v, den) for v in rng.sample(range(-4, 5), n)]
            d = Mat.from_rows([[diag[i] if i == j else 0 for j in range(n)]
                               for i in range(n)])
            density = rng.choice((0.1, 0.2, 0.35))
            others = [Mat.from_rows([[Fraction(rng.choice((-3, -1, 1, 2)),
                                               rng.randint(1, 3))
                                      if rng.random() < density else 0
                                      for _ in range(n)] for _ in range(n)])
                      for _ in range(rng.randint(0, 3))]
            others.insert(rng.randint(0, len(others)), d)
            lists.append(others)
    return lists


def _pair_lists():
    """(D, A) and (A, D) of every staircase pair up to n = 7 and of seeded
    relabelled patterns, at least ten of them not upper-triangular."""
    patterns = [incidence_of_dimension(n, k) for n in range(2, 8)
                for k in range(n, n * (n + 1) // 2 + 1)]
    rng = random.Random(4141)
    relabelled = [random_pattern(rng, rng.randint(2, 7), triangular=False)
                  for _ in range(20)]
    assert sum(not p.is_upper_triangular for p in relabelled) >= 10
    lists = []
    for pat in patterns + relabelled:
        a, d, _ = semicommuting_pair(pat)
        lists += [[d, a], [a, d]]
    return lists


@pytest.mark.parametrize("source", ["seeded", "pairs"])
def test_lemma_closure_matches_eager_worklist(source, monkeypatch):
    """The generation lemma makes no product and reaches the algebra of
    the reference's worklist."""
    lists = _lemma_lists() if source == "seeded" else _pair_lists()
    assert len(lists) >= 70
    for gens in lists:
        grids = _grids(gens)
        calls = _count_imul(monkeypatch)
        span, size = verify._closure(grids)
        assert calls == []  # the lemma path makes no product
        monkeypatch.undo()
        assert size == gens[0].rows
        # <gens> does not depend on their order, and the reference's
        # worklist is fastest from the diagonal generator
        assert _rref(span) == algebra_rref(sorted(gens, key=lambda g: any(
            v for i, row in enumerate(g.data) for j, v in enumerate(row)
            if i != j)))


def _pair_docs():
    docs = [c.to_json() for n in range(2, 6) for c in solve_all_dimensions(n)]
    rng = random.Random(77)
    for _ in range(8):
        pat = random_pattern(rng, rng.randint(3, 6), triangular=False)
        docs.append(semicommuting_pair(pat)[2].to_json())
    return docs


def _outside(positions, n):
    """The first position, 0-based, that is not in a 1-based pattern."""
    return next((i, j) for i in range(n) for j in range(n)
                if [i + 1, j + 1] not in positions)


def _cover(positions):
    """A strict position (i, j), 0-based, that no third index k factors
    through, or None; removing it from the support shrinks the closure."""
    pos = {tuple(p) for p in positions}
    for i, j in sorted(pos):
        if i != j and not any((i, k) in pos and (k, j) in pos
                              for k, _ in pos if k not in (i, j)):
            return i - 1, j - 1
    return None


TAMPERS = ("D-repeated", "D-off-diagonal", "A-zeroed", "A-extra",
           "pattern-removed", "dimension-up", "dimension-down")


def _tampers(doc):
    """Named tampered copies of one pair certificate (outputs D, A).  A
    pattern with no strict position has no A entry whose loss changes
    the algebra, so it gets no "A-zeroed" copy."""
    pattern = doc["inputs"]["pattern"]
    r, c = _outside(pattern["positions"], pattern["n"])
    cover = _cover(pattern["positions"])
    for name in TAMPERS:
        t = copy.deepcopy(doc)
        d, a = (m["entries"] for m in t["outputs"])
        if name == "D-repeated":
            d[1][1] = d[0][0]
        elif name == "D-off-diagonal":
            d[r][c] = "1"
        elif name == "A-zeroed":
            if cover is None:
                continue
            a[cover[0]][cover[1]] = "0"
        elif name == "A-extra":
            a[r][c] = "1"
        elif name == "pattern-removed":
            t["inputs"]["pattern"]["positions"].pop()
        else:
            t["properties"][-1]["value"] += 1 if name == "dimension-up" else -1
        yield name, t


def test_tampered_pair_certificates_fail():
    seen = set()
    for doc in _pair_docs():
        assert doc["claim"] == "semicommuting-incidence-pair"
        assert verify_document(doc) == []
        for name, tampered in _tampers(doc):
            assert tampered != doc
            assert verify_document(tampered), name
            seen.add(name)
    assert seen == set(TAMPERS)


def test_pair_certificates_make_no_closure_products(monkeypatch):
    """Verifying the 29 n = 8 pair certificates took 1326 integer products
    when each pair was closed by the worklist; the semi-commuting check's
    two products are all that is left."""
    docs = [c.to_json() for c in solve_all_dimensions(8)]
    assert len(docs) == 29
    calls = _count_imul(monkeypatch)
    assert all(verify_document(doc) == [] for doc in docs)
    assert len(calls) <= 2 * len(docs)
