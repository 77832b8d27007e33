"""The verifier against the from-definition reference, on one corpus.

For every document of `corpus` (the goldens, the seeded block-triangular,
annihilator and one-matrix documents, the benchmark's documents for seeds
1 to 3, the extra documents and seeded mutations of every golden), no
exception escapes `verify_document`, each property fails exactly when
`reference.holds` says it does not hold, and the failure messages are
those of the committed snapshot `verifier_failures.json`.  After a change
that alters a message on purpose, regenerate the snapshot with

    PYTHONPATH=src python tests/test_verifier_reference.py

and review its diff.
"""

import ast
import json
from pathlib import Path

import pytest

from algforge.verify import verify_document
import corpus
import reference

HERE = Path(__file__).parent
SNAPSHOT = HERE / "verifier_failures.json"


@pytest.fixture(scope="module")
def checked():
    """{name: (document, failures, reference verdicts)} over the corpus;
    no exception may escape `verify_document`."""
    return {name: (doc, verify_document(doc), reference.verdicts(doc))
            for name, doc in corpus.documents().items()}


def test_verdicts_are_the_reference_verdicts(checked):
    for name, (_, failures, verdicts) in checked.items():
        assert corpus.agrees(verdicts, failures), name


def test_failures_are_the_snapshot(checked):
    assert json.loads(SNAPSHOT.read_text()) == {
        name: failures for name, (_, failures, _) in checked.items()}


def test_corpus_holds_every_document_set(checked):
    count = {}
    for name in checked:
        section = name.split("/")[0]
        count[section] = count.get(section, 0) + 1
    assert count["golden"] >= 38 and count["seeded"] >= 300
    assert count["one-matrix"] >= 100 and count["annihilator"] >= 10
    assert count["fuzz"] == corpus.MUTATIONS * count["golden"]
    assert {name.split(":")[0] for name in checked if name.startswith(
        "bench/")} == {f"bench/{seed}" for seed in corpus.BENCH_SEEDS}
    assert all(f"bench/{seed}:hostile:0" in checked
               for seed in corpus.BENCH_SEEDS)


def test_each_kind_holds_and_fails_in_the_corpus(checked):
    seen = set()
    for doc, _, verdicts in checked.values():
        for p, holds in zip(doc["properties"] if verdicts else (),
                            verdicts or ()):
            kind = p.get("kind") if isinstance(p, dict) else None
            if type(kind) is str and kind in reference.CHECKS:
                seen.add((kind, holds))
    assert seen == {(kind, holds) for kind in reference.CHECKS
                    for holds in (True, False)}


def _imports(path: Path) -> set[str]:
    """Every module a file imports, by its full dotted name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            found.add(node.module or "")
            found |= {f"{node.module}.{alias.name}" for alias in node.names}
    return found


def test_the_reference_imports_nothing_from_the_package():
    assert not {m for m in _imports(HERE / "reference.py")
                if m.split(".")[0] == "algforge"}
    assert not {m for m in _imports(HERE / "oracles.py")
                if m.startswith("algforge.verify")}


if __name__ == "__main__":
    SNAPSHOT.write_text(json.dumps({
        name: verify_document(doc) for name, doc in corpus.documents().items()
    }, indent=1, sort_keys=True) + "\n")
