"""The documents the verifier is tested on, `documents()` by name.

- "golden": every certificate under `tests/data`.
- "seeded" (`SEEDED`): conjugated block-triangular documents, true and
  tampered, each with a conjugated generation claim, a conjugated
  membership claim and a plain generation claim.
- "annihilator" (`ANNIHILATOR_CASES`): conjugated generation claims on
  large stored algebras.
- "one-matrix" (`ONE_MATRIX`): one-matrix generation claims, plain and
  conjugated, true and tampered.
- "bench": one library pass of each benchmark workload, for each seed.
- "extra" (`EXTRA`): documents the sets above miss.
- "fuzz": seeded structural mutations of every golden: a value replaced,
  a key or item deleted, a list extended, or a value replaced by a copy
  of a sibling.
"""

import copy
import importlib.util
import json
import random
import re
import tempfile
import types
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from algforge.algebra import generate
from algforge.constructions import (classify_positive_generation,
                                    direct_sum_nonneg_covering,
                                    single_generator_nonneg)
from algforge.matrices import (Mat, conjugate, direct_sum, identity,
                               jordan_cell, mat_to_json, zero)
from algforge.verify import verify_document
from oracles import matrix_unit, random_unimodular

DATA = Path(__file__).parent / "data"


def agrees(verdicts, failures) -> bool:
    """Whether the verifier's failures for a document name exactly the
    properties that do not hold by the reference's verdicts, each once,
    or, for a document with no properties to check, fail it as a
    whole."""
    named = [int(m[1]) for f in failures
             if (m := re.match(r"property (\d+)[ :]", f))]
    if not verdicts:
        return bool(failures) and not named
    return sorted(named) == [i for i, holds in enumerate(verdicts)
                             if not holds] and len(named) == len(failures)


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


def diag(*values):
    return direct_sum([Mat.from_rows([[v]]) for v in values])


def matrix_units(n, positions):
    return [matrix_unit(n, i, j) for i, j in positions]


def generation_doc(c, sources, outputs):
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
        units = matrix_units(n, _upper(n))
        # without E_nn, I and the other units of T_n still span it
        outputs = [conjugate(u, c) for u in units if u != matrix_unit(n, n, n)]
        yield f"upper-{n}", generation_doc(c, units, outputs), True, \
            "annihilator"
        # C^{-1} E_11 C replaced by a copy of C^{-1} E_22 C: span{I, X} is
        # short by one, and X generates no E_11
        copied = [conjugate(matrix_unit(n, 2, 2), c) if u == matrix_unit(
            n, 1, 1) else x for u, x in zip(units, outputs)]
        yield f"copy-{n}", generation_doc(c, units, copied), False, \
            "fallback"
        full = matrix_units(n, [(i, j) for i in range(1, n + 1)
                          for j in range(1, n + 1)])
        conj = [conjugate(u, c) for u in full]
        yield f"full-{n}", generation_doc(c, full, conj), True, \
            "annihilator"
        # span{units but E_nn} holds no I, but generates M_n
        yield f"no-identity-{n}", generation_doc(c, full[:-1], conj[:-1]), \
            True, "basis"
    # d = n^2 / 2 stays on the basis path
    for n, positions in ((2, [(1, 1), (2, 2)]),
                         (4, [(i, j) for i in range(1, 5)
                              for j in range(1, 5) if (i < 3) == (j < 3)])):
        c = random_unimodular(rng, n)
        units = matrix_units(n, positions)
        yield f"half-{n}", generation_doc(
            c, units, [conjugate(u, c) for u in units]), True, "basis"


ANNIHILATOR_CASES = list(_annihilator_cases())


# -- one matrix a side: the commutant of a cyclic matrix ----------------------

def one_matrix_doc(x, y, c=None):
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
        w = _similar(rng, diag(1, -1, *range(2, n)))
        cases += [("derogatory-true", a * derogatory + b * identity(n),
                   derogatory),
                  ("commuting-derogatory", w @ w, w)]
    cases.append(("source-size", y, identity(n + 1)))
    for name, x, source in cases:
        yield name, one_matrix_doc(x, source)
        if name != "source-size":
            yield name, one_matrix_doc(conjugate(x, c), source, c)
    x = conjugate(a * y + b * identity(n), c)
    yield "other-C", one_matrix_doc(x, y, random_unimodular(rng, n, 3))
    yield "singular-C", one_matrix_doc(x, y, _singular(c))
    yield "C-size", one_matrix_doc(x, y, random_unimodular(rng, n + 1))
    yield "source-size", one_matrix_doc(x, identity(n + 1), c)


ONE_MATRIX = [case for seed in range(15) for case in _one_matrix_variants(
    random.Random(300 + seed), 1 + seed % 5)]


def golden_documents():
    """(name, document) for every certificate among the goldens."""
    return [(f"{path.name}:{i}", doc) for path in sorted(DATA.glob("*.json"))
            for i, doc in enumerate(_documents(json.loads(path.read_text())))]


@lru_cache(maxsize=None)
def benchmark_documents(seed):
    """The documents of one library pass of each benchmark workload for
    seed, and the single-generator workload's fixed 5 x 5 input; the
    caller must not change them."""
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
    with tempfile.TemporaryDirectory() as work:
        for name, workload in sorted(workloads.WORKLOADS.items()):
            made = workload(program, seed, work, False)
            docs[name] = made.library(LibraryPass())["docs"]
            if name == "single-generator":
                docs["hostile"] = [single_generator_nonneg(
                    made.hostile).to_json()]
    return docs


# -- documents the sets above miss -----------------------------------------------

def _extra_documents():
    two = Mat.from_rows([[0, 2], [1, 0]])
    witness = classify_positive_generation(generate(2, [two])).to_json()
    assert witness["claim"] == "simple-real-eigenvalue-witness"
    yield "simple-real-eigenvalue", witness
    rotation = copy.deepcopy(witness)
    rotation["outputs"][0] = mat_to_json(Mat.from_rows([[0, -1], [1, 0]]))
    yield "simple-real-eigenvalue-rotation", rotation
    # a direct-sum certificate whose tampered copies still verify: no
    # claim fixes the properties a certificate must assert, and the stored
    # sum is read only by the properties that name it
    cert = direct_sum_nonneg_covering(
        generate(1, []), generate(2, [matrix_unit(2, 1, 2)]),
        Mat.from_rows([[1, 1], [0, 1]])).to_json()
    yield "direct-sum", cert
    tampered = {
        "cut": {"properties": cert["properties"][:1]},
        "nonneg-only": {"properties": [{"kind": "nonneg",
                                        "target": "out:1"}]},
        "claim": {"claim": "anything"},
        "sum": {"inputs": dict(cert["inputs"], sum={
            "n": 3, "basis": [cert["outputs"][0]]})},
    }
    for name, change in tampered.items():
        yield f"direct-sum-{name}", dict(copy.deepcopy(cert), **change)
    # the centralizer of a 0 x 0 matrix, claimed for an algebra of 5 x 5
    # matrices with an empty basis
    empty_matrix = {"rows": 0, "cols": 0, "entries": []}
    yield "centralizer-size", {
        "inputs": {"algebra": {"n": 5, "basis": []}, "m": empty_matrix},
        "properties": [{"kind": "is_centralizer", "algebra": "in:algebra",
                        "of": "in:m"}]}
    # two 0 x 0 matrices semi-commute both ways, and a 0 x 0 C conjugates
    # one onto the other: every product has no rows
    yield "empty-products", {
        "C": empty_matrix, "inputs": {"a": empty_matrix, "b": empty_matrix},
        "outputs": [empty_matrix],
        "properties": [{"kind": "semi_commuting", "a": "in:a", "b": "in:b",
                        "sign": sign} for sign in ("nonneg", "nonpos")]
        + [{"kind": "conjugate_of", "target": "out:0", "source": "in:a"}]}
    # the same with a 0 x 3 matrix in one place: a matrix with no rows
    # is square only if it is declared 0 x 0
    wide = {"rows": 0, "cols": 3, "entries": []}
    for place in ("a", "b", "C", "out"):
        m = {k: wide if k == place else empty_matrix
             for k in ("a", "b", "C", "out")}
        yield f"empty-products-wide-{place}", {
            "C": m["C"], "inputs": {"a": m["a"], "b": m["b"]},
            "outputs": [m["out"]],
            "properties": [{"kind": "semi_commuting", "a": "in:a",
                            "b": "in:b", "sign": "nonneg"},
                           {"kind": "conjugate_of", "target": "out:0",
                            "source": "in:a"}]}
    # a 1 x 0 matrix is nonnegative but not positive; a 0 x 0 matrix is
    # not central in an algebra of 1 x 1 matrices, even one with no basis
    yield "no-columns", {
        "inputs": {"m": {"rows": 1, "cols": 0, "entries": [[]]},
                   "algebra": {"n": 1, "basis": []}, "z": empty_matrix},
        "properties": [{"kind": "nonneg", "target": "in:m"},
                       {"kind": "positive", "target": "in:m"},
                       {"kind": "central", "target": "in:z",
                        "algebra": "in:algebra"}]}
    # the conjugated checks read C, and size it, for an empty basis too
    zero = {"rows": 2, "cols": 2, "entries": [["0", "0"], ["0", "0"]]}
    for name, c in (("", diag(1, 2)), ("-wrong-size", diag(1))):
        yield f"conjugated-empty-basis{name}", {
            "C": mat_to_json(c),
            "inputs": {"a": {"n": 2, "basis": []}, "z": zero},
            "properties": [{"kind": kind, "target": "in:z", "algebra": "in:a"}
                           for kind in ("in_algebra_conjugated",
                                        "covers_conjugated")]}
    # a basis or a list of positions given as an empty string or object,
    # which reads as an empty list
    for empty in ("", {}):
        yield f"basis-{type(empty).__name__}", {
            "inputs": {"a": {"n": 2, "basis": empty}, "z": zero},
            "properties": [{"kind": kind, "target": "in:z", "algebra": "in:a"}
                           for kind in ("in_algebra", "covers")]}
        yield f"positions-{type(empty).__name__}", {
            "inputs": {"p": {"n": 0, "positions": empty}, "m": empty_matrix},
            "properties": [{"kind": "spans_pattern", "gens": ["in:m"],
                            "pattern": "in:p"}]}
    # a list of references given as the string "C", which reads as ["C"]
    # character by character
    c = mat_to_json(diag(1, 2))
    for kind, fields in (
            ("dimension", {"gens": "C", "value": 2}),
            ("generate_equal", {"gens_a": "C", "gens_b": ["C"]}),
            ("generate_equal", {"gens_a": ["C"], "gens_b": "C"}),
            ("generate_equal_conjugated", {"gens": ["C"],
                                           "source_gens": "C"}),
            ("spans_pattern", {"gens": "C", "pattern": "in:p"})):
        key = next(k for k, v in fields.items() if v == "C")
        yield f"string-{kind}-{key}", {
            "C": c, "inputs": {"p": {"n": 2, "positions": [[1, 1], [2, 2]]}},
            "properties": [dict(kind=kind, **fields)]}


EXTRA = list(_extra_documents())


# -- structural mutations of the goldens -----------------------------------------

# what a mutated value is replaced by: JSON values of every type, entry
# strings and references, empty containers and a small matrix
POOL = [None, True, 0, -1, 2, 1.5, "", "x", "0", "1/2", "-3", "out:0",
        "in:algebra", "C", [], [[]], {}, ["out:0"],
        {"rows": 1, "cols": 1, "entries": [["1"]]}]


def _keys(value):
    if isinstance(value, dict):
        return list(value)
    if isinstance(value, list):
        return list(range(len(value)))
    return []


def _mutated(doc, rng):
    """A copy of doc with one change at a random place: from the top, each
    step goes into a random child and stops there with probability 1/3,
    or at a leaf."""
    out = copy.deepcopy(doc)
    parent, key = out, rng.choice(_keys(out))
    while _keys(parent[key]) and rng.random() >= 1 / 3:
        parent, key = parent[key], rng.choice(_keys(parent[key]))
    op = rng.choice(("replace", "delete", "extend", "sibling"))
    siblings = [k for k in _keys(parent) if k != key]
    if op == "extend" and type(parent[key]) is list and parent[key]:
        parent[key].append(copy.deepcopy(rng.choice(parent[key])))
    elif op == "sibling" and siblings:
        parent[key] = copy.deepcopy(parent[rng.choice(siblings)])
    elif op == "delete":
        del parent[key]
    else:
        parent[key] = copy.deepcopy(rng.choice(POOL))
    return out


def fuzzed(goldens, per_document):
    """(name, document): per_document seeded mutations of each golden."""
    for i, (name, doc) in enumerate(goldens):
        rng = random.Random(1700 + i)
        for k in range(per_document):
            yield f"{name}:{k}", _mutated(doc, rng)


BENCH_SEEDS = (1, 2, 3)
MUTATIONS = 12  # per golden


def documents() -> dict[str, dict]:
    """The whole corpus, by name "<section>/<name>"."""
    goldens = golden_documents()
    sections = {
        "golden": goldens,
        "seeded": [(f"{i}:{name}", doc) for i, (name, doc) in enumerate(
            SEEDED)],
        "annihilator": [case[:2] for case in ANNIHILATOR_CASES],
        "one-matrix": [(f"{i}:{name}", doc) for i, (name, doc) in enumerate(
            ONE_MATRIX)],
        "bench": [(f"{seed}:{workload}:{i}", doc) for seed in BENCH_SEEDS
                  for workload, docs in benchmark_documents(seed).items()
                  for i, doc in enumerate(docs)],
        "extra": EXTRA,
        "fuzz": list(fuzzed(goldens, MUTATIONS)),
    }
    return {f"{section}/{name}": doc for section, docs in sections.items()
            for name, doc in docs}
