"""Family (a) of the answer census (`scripts/census.py`): every algebra
<m> of a 2 x 2 integer m with entries in [-2, 2] gets the committed
answer, no answer disagrees with the discriminant, every certificate
verifies, and every positive-generation certificate has one output."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _census():
    spec = importlib.util.spec_from_file_location(
        "census", ROOT / "scripts" / "census.py")
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    return census


def test_family_a_matches_the_committed_counts():
    census = _census()
    records = census.family_a()
    assert len(records) == 625
    assert not [r["m"] for r in records if census.disagrees(r)]
    assert not [r["m"] for r in records if r["failures"]]
    assert {r["outputs"] for r in records
            if r["answer"] == "positive-generation"} == {1}
    committed = json.loads((ROOT / "tests" / "data" / "census.json")
                           .read_text())
    assert census.counts(records) == committed
