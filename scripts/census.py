#!/usr/bin/env python3
"""An answer census of `algebra-classify` on an exhaustive family.

Family (a): the algebra <m> for each of the 625 integer 2 x 2 matrices
m = [[a, b], [c, d]] with entries in [-2, 2].  Each algebra goes through
the verb's library call, `classify_positive_generation` with its default
budget and seed, and each certificate it returns through the verifier.
The counts of each answer kind are split by the sign of the discriminant
(a - d)^2 + 4bc, the oracle: <m> has an element with a simple real
eigenvalue exactly when m has two distinct real eigenvalues, that is when
the discriminant is positive.  The output is JSON, with nothing that
depends on the time or the machine; tests/data/census.json holds it.

    python3 scripts/census.py

Exits 1 when a certificate fails verification or an answer disagrees
with the oracle.
"""

import sys
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from algforge.algebra import generate  # noqa: E402
from algforge.cli import dumps  # noqa: E402
from algforge.constructions import classify_positive_generation  # noqa: E402
from algforge.matrices import Mat  # noqa: E402
from algforge.verify import verify_certificate  # noqa: E402

ENTRIES = range(-2, 3)


def sign(v: int) -> str:
    return "positive" if v > 0 else "negative" if v < 0 else "zero"


def family_a() -> list[dict]:
    """One record per matrix: its entries, the sign of its discriminant,
    the answer kind, the number of outputs of a certificate and the
    verifier's failures for it."""
    records = []
    for a, b, c, d in product(ENTRIES, repeat=4):
        m = Mat.from_rows([[a, b], [c, d]])
        cert = classify_positive_generation(generate(2, [m]))
        records.append({
            "m": (a, b, c, d),
            "discriminant": sign((a - d) ** 2 + 4 * b * c),
            "answer": "unknown" if cert is None else cert.claim,
            "outputs": None if cert is None else len(cert.outputs),
            "failures": [] if cert is None else verify_certificate(cert),
        })
    return records


def disagrees(record: dict) -> bool:
    """Whether the answer and the discriminant disagree.  Every answer but
    unknown asserts an element with a simple real eigenvalue, which exists
    exactly when the discriminant is positive; unknown with a positive
    discriminant is a "yes" the search missed."""
    return (record["answer"] != "unknown") != (
        record["discriminant"] == "positive")


def counts(records: list[dict]) -> dict:
    """The census document: answers per discriminant sign, and the number
    of outputs of each positive-generation certificate."""
    by_sign: dict[str, dict[str, int]] = {}
    outputs: dict[str, int] = {}
    for r in records:
        kinds = by_sign.setdefault(r["discriminant"], {})
        kinds[r["answer"]] = kinds.get(r["answer"], 0) + 1
        if r["answer"] == "positive-generation":
            key = str(r["outputs"])
            outputs[key] = outputs.get(key, 0) + 1
    return {
        "family": "a",
        "matrices": len(records),
        "answers_by_discriminant": by_sign,
        "positive_generation_outputs": outputs,
        "verified": sum(r["answer"] != "unknown" and not r["failures"]
                        for r in records),
    }


def main() -> int:
    records = family_a()
    print(dumps(counts(records)))
    bad = [r["m"] for r in records if r["failures"] or disagrees(r)]
    if bad:
        print(f"failed or disagreeing: {bad}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
