#!/usr/bin/env python3
"""Build the full realizable-dimension table for semi-commuting nonnegative
generator pairs: for every n in a range and every k with n <= k <= n(n+1)/2,
construct a verified pair whose unital closure has dimension exactly k.

Writes one JSON document with all certificates and prints the per-n tables.

    python3 scripts/solve_problem_table.py --n-max 6 --out table.json
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from algforge.cli import dumps, format_table  # noqa: E402
from algforge.constructions import solve_all_dimensions  # noqa: E402
from algforge.verify import verify_document  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-min", type=int, default=2)
    parser.add_argument("--n-max", type=int, default=6)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    result = {}
    for n in range(args.n_min, args.n_max + 1):
        started = time.monotonic()
        docs = [c.to_json() for c in solve_all_dimensions(n)]
        verdicts = [verify_document(d) for d in docs]
        failures = [f for v in verdicts for f in v]
        elapsed = time.monotonic() - started
        print(f"n = {n}  ({len(docs)} dimensions, {elapsed:.2f}s)")
        print(format_table(docs, [not v for v in verdicts]))
        if failures:
            print("FAILURES:", failures)
            return 1
        result[str(n)] = docs
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(dumps(result) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
