"""The CLI's JSON writer and its readers.

`cli.dumps` must write exactly the bytes of `json.dumps(obj, indent=2,
sort_keys=True)` and refuse what the CLI never writes.  `cli._doc_sizes`
and `matrices.mat_from_json` must agree with the readers they replaced,
which `tests/oracles.py` keeps: a worklist over every JSON value, and one
parse per entry by the definition of a wire rational.  `mat_from_json`
must also accept and refuse every wire matrix as the verifier's `_grid`
does.
"""

import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from algforge import cli, matrices, verify
from algforge.algebra import algebra_from_json, algebra_to_json, generate
from algforge.matrices import Mat, mat_from_json, mat_to_json
import corpus
from oracles import (per_entry_mat_from_json, random_mat, random_unimodular,
                     worklist_doc_sizes)

DATA = Path(__file__).parent / "data"
STORED = sorted(DATA.glob("*.json"))


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _run(argv, capsys, monkeypatch=None, stdin_text=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = cli.run(argv)
    out, err = capsys.readouterr()
    return code, out, err


# -- the writer -------------------------------------------------------------------

@pytest.mark.parametrize("path", STORED, ids=lambda p: p.name)
def test_writer_matches_json_on_every_stored_document(path):
    doc = json.loads(path.read_text())
    assert cli.dumps(doc) == reference(doc)


def test_writer_matches_json_on_every_verb(tmp_path, capsys, monkeypatch):
    pattern = tmp_path / "pattern.json"
    runs = [
        ["algebra-generate", str(DATA / "conjugated-1x2-gens.json")],
        ["algebra-dim", str(DATA / "conjugated-2x2-gens.json")],
        ["algebra-covering", str(DATA / "single-generator-gens.json")],
        ["algebra-classify", str(DATA / "conjugated-1x2-gens.json")],
        ["incidence-build", "-n", "4", "-k", "7", "--out", str(pattern)],
        ["incidence-pair", str(pattern)],
        ["problem-solve", "-n", "4"],
        ["verify", str(DATA / "problem-solve-4.json")],
    ]
    for argv in runs:
        code, out, err = _run(argv, capsys)
        assert (code, err) == (0, ""), argv
        text = pattern.read_text() if "--out" in argv else out
        assert text == reference(json.loads(text)) + "\n", argv
    # a classify search that finds nothing writes "certificate": null
    code, out, _ = _run(["algebra-classify"], capsys, monkeypatch,
                        stdin_text=json.dumps({"n": 2, "gens": [mat_to_json(
                            Mat.from_rows([[0, 1], [-1, 0]]))]}))
    assert code == 0 and json.loads(out)["certificate"] is None
    assert out == reference(json.loads(out)) + "\n"


# Characters json escapes in every way it can: quotes, backslashes, the
# named and the \u00XX control escapes, DEL, non-ASCII and an astral
# character (a surrogate pair), and U+2028.
ALPHABET = (['"', "\\", "/", "\b", "\f", "\n", "\r", "\t", "\x00", "\x1f",
             "\x7f", "é", "€", "\u2028", "\U0001d11e", " ", "_", "~"]
            + list("aAbBzZ019"))


def _text(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(6)))


def _int(rng: random.Random) -> int:
    return rng.choice([0, 1, -1, rng.randrange(-99, 100),
                       rng.randrange(10 ** 99, 10 ** 100),
                       -rng.randrange(10 ** 99, 10 ** 100)])


def _value(rng: random.Random, depth: int):
    kind = rng.randrange(11 if depth < 4 else 5)
    if kind == 0:
        return rng.choice([True, False, None])
    if kind == 1:
        return _int(rng)
    if kind == 2:
        return _text(rng)
    if kind == 3:
        return [_text(rng) for _ in range(rng.randrange(4))]
    if kind == 4:
        return [_int(rng) for _ in range(rng.randrange(4))]
    if kind == 5:
        return [[rng.randint(1, 9), rng.randint(1, 9)]
                for _ in range(rng.randrange(5))]
    if kind in (6, 7):
        return [_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    # keys drawn in random order, so insertion order is rarely code-point
    # order: "B" < "_" < "a" < "é" < "€"
    keys = rng.sample(["B", "_", "a", "ab", "a b", "é", "€", "\U0001d11e",
                       "rows", "cols", "entries", "", _text(rng)],
                      rng.randrange(6))
    return {k: _value(rng, depth + 1) for k in keys}


def sample_documents(count: int, seed: int = 27) -> list:
    rng = random.Random(seed)
    docs = [_value(rng, 0) for _ in range(count)]
    # mixed leaf lists: a bool beside an int is written "true", not "1"
    docs += [[True, 1], [1, False], ["1", 1], [None, "x"], [[], {}],
             {"a": [[], [[]], {}]}, [[1, 2], ["1", "2"], [True, 2]]]
    return docs


def test_writer_matches_json_on_seeded_documents():
    docs = sample_documents(600)
    kinds = {type(d) for d in docs}
    assert {dict, list, str, int, bool, type(None)} <= kinds
    for doc in docs:
        assert cli.dumps(doc) == reference(doc), doc


@pytest.mark.parametrize("obj", [
    1.5, {"a": [1, 2.0]}, {1: "a"}, {"a": {1: 2}}, {2}, {"a": {"b"}},
    (1, 2), [[1, 2], (1, 2)], Fraction(1, 2),
], ids=["float", "float-in-list", "int-key", "nested-int-key", "set",
        "nested-set", "tuple", "nested-tuple", "fraction"])
def test_writer_refuses_what_the_cli_never_writes(obj):
    with pytest.raises(TypeError):
        cli.dumps(obj)


# -- the readers ------------------------------------------------------------------

def _wire(rows) -> dict:
    return {"rows": len(rows), "cols": len(rows[0]) if rows else 0,
            "entries": rows}


HIDDEN = {"n": 2, "gens": [_wire([["1", {"rows": 10 ** 6, "cols": 1}],
                                  ["0", "1"]])]}


def test_doc_sizes_agree_with_the_worklist_oracle():
    docs = [json.loads(p.read_text()) for p in STORED]
    docs += sample_documents(300, seed=5)
    docs += [HIDDEN, 5, "rows", None, [], {}, {"rows": True, "cols": "2"},
             [{"n": 3, "x": [{"cols": -1}, {"rows": 4}]}, {"n": 2}]]
    for doc in docs:
        assert cli._doc_sizes(doc) == worklist_doc_sizes(doc)
    assert 10 ** 6 in cli._doc_sizes(HIDDEN)


@pytest.mark.parametrize("verb", ["algebra-generate", "verify"])
def test_a_size_hidden_among_the_entries_hits_the_cap(verb, capsys,
                                                      monkeypatch):
    code, out, err = _run([verb], capsys, monkeypatch,
                          stdin_text=json.dumps(HIDDEN))
    assert code == 2 and out == ""
    assert "matrix size 1000000 exceeds the cap" in err


def test_mat_from_json_agrees_with_the_per_entry_oracle():
    rng = random.Random(9)
    parsed: dict = {}
    for _ in range(200):
        n = rng.randrange(5)
        wire = mat_to_json(random_mat(rng, n, height=rng.choice([1, 3, 30])))
        assert mat_from_json(wire, {}) == per_entry_mat_from_json(wire)
        # a cache shared across matrices gives the same matrices
        assert mat_from_json(wire, parsed) == per_entry_mat_from_json(wire)
    for wire in ([_wire([["1/2", "1/3"], ["-1/6", "0"]]), _wire([]),
                  {"rows": 1, "cols": 0, "entries": [[]]}]):
        assert mat_from_json(wire, parsed) == per_entry_mat_from_json(wire)


def _error(load, wire) -> str:
    with pytest.raises(ValueError) as info:
        load(wire)
    return str(info.value)


BAD_ENTRIES = [3, "2/4", "1e5", ["1"], "01", "1/1", True, None, 1.5]


def _bad_entry_wires(bad) -> list[dict]:
    """Wires with a second bad entry after the first in row-major order,
    and another that comes earlier in column-major order."""
    return [_wire([["1", bad], ["x/2", "0"]]),
            _wire([["0", "1"], [bad, "0"]]),
            _wire([["1/2", "0", bad], ["1/2", "1/2", "1/0"]])]


@pytest.mark.parametrize("bad", BAD_ENTRIES)
def test_mat_from_json_names_the_first_bad_entry(bad):
    warm = {"1": (1, 1), "0": (0, 1), "1/2": (1, 2)}
    for wire in _bad_entry_wires(bad):
        want = _error(per_entry_mat_from_json, wire)
        assert repr(bad) in want
        assert _error(lambda w: mat_from_json(w, {}), wire) == want
        assert _error(lambda w: mat_from_json(w, dict(warm)), wire) == want


MALFORMED_SHAPES = [
    {"rows": 2, "cols": 2, "entries": [["1", "0"]]},
    {"rows": 1, "cols": 2, "entries": [["1"]]},
    {"rows": True, "cols": 1, "entries": [["1"]]},
    {"rows": 1, "cols": 1, "entries": ["1"]},
    {"rows": 1, "cols": 1},
    [["1"]],
]


@pytest.mark.parametrize("wire", MALFORMED_SHAPES, ids=[
    "short", "ragged", "bool-shape", "flat", "no-entries", "not-a-dict"])
def test_mat_from_json_refuses_malformed_shapes_as_the_oracle(wire):
    """The oracle refuses each wire with a ValueError, and so does the
    engine: with the verifier's `_grid` message, or, where `_grid` would
    read a missing `entries`, with its own."""
    _error(per_entry_mat_from_json, wire)
    got = _error(lambda w: mat_from_json(w, {}), wire)
    if isinstance(wire, dict) and "entries" in wire:
        assert got == _error(lambda w: verify._grid(w, {}), wire)
    else:
        assert got == "matrix needs rows, cols and entries"


def _wire_matrices(obj):
    """Every dict with an `entries` key inside a JSON value."""
    todo = [obj]
    while todo:
        obj = todo.pop()
        if isinstance(obj, dict):
            if "entries" in obj:
                yield obj
            todo += obj.values()
        elif isinstance(obj, list):
            todo += obj


def _read(read, wire, parsed):
    """What a reader gives: its grid and shape, or its refusal's message."""
    try:
        m = read(wire, parsed)
    except ValueError as exc:
        return str(exc)
    return m if type(m) is tuple else ((m.den, m.num), (m.rows, m.cols))


def test_mat_from_json_accepts_exactly_what_grid_accepts():
    """Over this module's wires and every wire matrix of the verifier's
    corpus, tampered documents included, the engine's reader accepts a
    matrix exactly when the verifier's `_grid` does, with the same grid,
    and otherwise refuses it with the same message.  Each document's
    matrices share one parse cache, as a loader's do."""
    rng = random.Random(35)
    documents = [[mat_to_json(random_mat(rng, rng.randrange(5)))
                  for _ in range(20)], MALFORMED_SHAPES, HIDDEN]
    documents += [_bad_entry_wires(bad) for bad in BAD_ENTRIES]
    documents += corpus.documents().values()
    refused = 0
    for doc in documents:
        engine: dict = {}
        verifier: dict = {}
        for wire in _wire_matrices(doc):
            got = _read(mat_from_json, wire, engine)
            grid = _read(verify._grid, wire, verifier)
            if type(grid) is str:
                refused += 1
                assert got == grid
            else:
                assert got == (grid, (wire["rows"], wire["cols"]))
        assert engine == verifier
    assert refused > 20


def _distinct_entries(mats) -> set:
    return {v for m in mats for row in m["entries"] for v in row}


def _count_parses(monkeypatch) -> list:
    calls = []
    real = verify._rational

    def counting(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(verify, "_rational", counting)
    return calls


def test_each_distinct_entry_is_parsed_once_per_document(monkeypatch, capsys):
    rng = random.Random(4)
    c = random_unimodular(rng, 3)
    gens = [matrices.conjugate(random_mat(rng, 3, height=2), c)
            for _ in range(2)]
    doc = algebra_to_json(generate(3, gens))
    calls = _count_parses(monkeypatch)
    alg = algebra_from_json(doc)
    assert sorted(calls) == sorted(_distinct_entries(doc["basis"]))
    assert len(calls) < sum(len(row) for m in doc["basis"]
                            for row in m["entries"])
    # the CLI's generator documents share one cache too
    calls.clear()
    gens_doc = {"n": 3, "gens": [mat_to_json(g) for g in gens]}
    code, out, _ = _run(["algebra-dim"], capsys, monkeypatch,
                        stdin_text=json.dumps(gens_doc))
    assert code == 0 and json.loads(out) == {"n": 3, "dim": alg.dim}
    assert sorted(calls) == sorted(_distinct_entries(gens_doc["gens"]))
