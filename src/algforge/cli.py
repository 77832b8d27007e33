"""Command-line front end with stable JSON I/O.

Verbs: algebra-generate, algebra-dim, algebra-covering, algebra-classify,
incidence-build, incidence-pair, problem-solve, verify.

All output is JSON with rationals as canonical strings; fixed inputs and
--seed produce byte-identical files.  `dumps` writes every document: the
bytes of `json.dumps(obj, indent=2, sort_keys=True)`, built with the C
string encoder in place of the stdlib's pure-Python indenting encoder.
Exit codes: 0 success, 1 certificate verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _encode_str

from .algebra import (Algebra, algebra_from_json, algebra_to_json,
                      covering_matrix, generate, nonneg_covering_exists)
from .constructions import (classify_positive_generation, semicommuting_pair,
                            solve_all_dimensions)
from .incidence import (incidence_of_dimension, pattern_from_json,
                        pattern_to_json)
from .matrices import mat_from_json, mat_to_json
from .verify import verify_document

DEFAULT_MAX_DIM = 16


class UsageError(Exception):
    pass


def _max_dim() -> int:
    raw = os.environ.get("ALGFORGE_MAX_DIM")
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"ALGFORGE_MAX_DIM is not an integer: {raw!r}")


def _check_dim(n: int) -> None:
    cap = _max_dim()
    if n > cap:
        raise UsageError(f"matrix size {n} exceeds the cap {cap}"
                         " (set ALGFORGE_MAX_DIM to raise it)")
    if n < 0:
        raise UsageError("matrix size must be nonnegative")


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def dumps(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)`, byte for byte, for what
    the CLI writes: dicts with str keys, lists, str, int, bool and None.
    Anything else raises TypeError.  Every string goes through
    `encode_basestring_ascii`, the C encoder `json` itself uses, and a list
    of strings is joined in one call, so no Python code runs per entry."""
    return _encode(obj, "\n")


def _encode(obj, nl: str) -> str:
    """`obj` as it stands after a line break `nl` (newline and indent)."""
    t = type(obj)
    if t is list:
        if not obj:
            return "[]"
        inner = nl + "  "
        if set(map(type, obj)) == {str}:
            items = map(_encode_str, obj)
        else:
            items = [_encode(v, inner) for v in obj]
        return f"[{inner}{f',{inner}'.join(items)}{nl}]"
    if t is dict:
        if not obj:
            return "{}"
        inner = nl + "  "
        body = f",{inner}".join([f"{_encode_str(k)}: {_encode(obj[k], inner)}"
                                 for k in sorted(obj)])
        return f"{{{inner}{body}{nl}}}"
    if t is str:
        return _encode_str(obj)
    if t is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if t is bool:
        return "true" if obj else "false"
    raise TypeError(f"cannot write a {t.__name__} as JSON")


def _dump(obj, out: str | None) -> None:
    _write(dumps(obj) + "\n", out)


def _verified(doc: dict) -> bool:
    """Whether a freshly built certificate verifies; reports the first
    failure on stderr when it does not."""
    failures = verify_document(doc)
    if failures:
        sys.stderr.write(f"certificate failed verification: {failures[0]}\n")
    return not failures


def _load_json(path: str | None):
    try:
        if path and path != "-":
            with open(path) as fh:
                return json.load(fh)
        return json.load(sys.stdin)
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    except OSError as exc:
        raise UsageError(str(exc))
    except RecursionError:
        raise UsageError("invalid JSON: nested too deeply")


def _load_algebra_like(doc) -> Algebra:
    """Accept either an algebra document or a generator-set document.
    Every size in it is checked against the cap before anything is
    parsed or closed."""
    if not isinstance(doc, dict):
        raise UsageError("expected a JSON object")
    for size in _doc_sizes(doc):
        _check_dim(size)
    key = next((k for k in ("basis", "gens") if k in doc), None)
    if key is None:
        raise UsageError("expected an object with 'basis' or 'gens'")
    kind = "algebra" if key == "basis" else "generator"
    n = doc.get("n")
    if not (type(n) is int and n >= 0):
        raise UsageError(f"{kind} document needs a nonnegative integer 'n'")
    if not isinstance(doc[key], list):
        raise UsageError(f"'{key}' must be a list")
    try:
        if key == "basis":
            return algebra_from_json(doc)
        parsed: dict[str, tuple[int, int]] = {}
        return generate(n, [mat_from_json(m, parsed) for m in doc["gens"]])
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"invalid {kind} document: {exc}")


def format_table(cert_docs: list[dict], verified: list[bool]) -> str:
    """Human-readable table: one row (k, dim, verified) per certificate,
    given each certificate's verdict, plus a totals line."""
    lines = ["   k  dim  verified"]
    for doc, ok in zip(cert_docs, verified):
        dim_value = None
        for p in doc.get("properties", []):
            if p.get("kind") == "dimension":
                dim_value = p.get("value")
        shown = "-" if dim_value is None else str(dim_value)
        mark = "ok" if ok else "FAIL"
        lines.append(f"{shown:>4} {shown:>4}  {mark}")
    lines.append(f"total: {sum(verified)}/{len(cert_docs)} verified")
    return "\n".join(lines) + "\n"


def _cmd_algebra_generate(args) -> int:
    alg = _load_algebra_like(_load_json(args.input))
    _dump(algebra_to_json(alg), args.out)
    return 0


def _cmd_algebra_dim(args) -> int:
    alg = _load_algebra_like(_load_json(args.input))
    _dump({"n": alg.n, "dim": alg.dim}, args.out)
    return 0


def _cmd_algebra_covering(args) -> int:
    alg = _load_algebra_like(_load_json(args.input))
    cov = covering_matrix(alg)
    nn = nonneg_covering_exists(alg)
    _dump({"covering": mat_to_json(cov),
           "nonneg_covering": mat_to_json(nn) if nn is not None else None},
          args.out)
    return 0


def _cmd_algebra_classify(args) -> int:
    alg = _load_algebra_like(_load_json(args.input))
    cert = classify_positive_generation(alg, budget=args.budget, seed=args.seed)
    if cert is None:
        _dump({"result": "unknown", "certificate": None}, args.out)
    else:
        doc = cert.to_json()
        if not _verified(doc):
            return 1
        _dump({"result": "yes", "certificate": doc}, args.out)
    return 0


def _cmd_incidence_build(args) -> int:
    _check_dim(args.n)
    try:
        pattern = incidence_of_dimension(args.n, args.k)
    except ValueError as exc:
        raise UsageError(str(exc))
    _dump(pattern_to_json(pattern), args.out)
    return 0


def _cmd_incidence_pair(args) -> int:
    doc = _load_json(args.input)
    try:
        pattern = pattern_from_json(doc)
    except ValueError as exc:
        raise UsageError(f"invalid pattern document: {exc}")
    _check_dim(pattern.n)
    _, _, cert = semicommuting_pair(pattern)
    cert_doc = cert.to_json()
    if not _verified(cert_doc):
        return 1
    _dump(cert_doc, args.out)
    return 0


def _cmd_problem_solve(args) -> int:
    _check_dim(args.n)
    try:
        certs = solve_all_dimensions(args.n)
    except ValueError as exc:
        raise UsageError(str(exc))
    docs = [c.to_json() for c in certs]
    if not all(_verified(doc) for doc in docs):
        return 1
    if args.format == "table":
        _write(format_table(docs, [True] * len(docs)), args.out)
    else:
        _dump({"n": args.n, "certificates": docs}, args.out)
    return 0


def _doc_sizes(doc) -> list[int]:
    """Every integer "rows", "cols" or "n" (matrix shapes, algebra and
    pattern sizes) anywhere in a JSON document.  Only dicts and lists go on
    the worklist, so a matrix's entry strings are looked at once each."""
    sizes = []
    todo = [doc] if type(doc) is dict or type(doc) is list else []
    while todo:
        obj = todo.pop()
        if type(obj) is dict:
            sizes += [obj[k] for k in ("rows", "cols", "n")
                      if isinstance(obj.get(k), int)]
            obj = obj.values()
        todo += [v for v in obj if type(v) is dict or type(v) is list]
    return sizes


def _cmd_verify(args) -> int:
    doc = _load_json(args.input)
    for size in _doc_sizes(doc):
        _check_dim(size)
    if isinstance(doc, dict) and "certificates" in doc:
        docs = doc["certificates"]
    elif isinstance(doc, dict) and "certificate" in doc and doc["certificate"]:
        docs = [doc["certificate"]]
    elif isinstance(doc, list):
        docs = doc
    else:
        docs = [doc]
    if not isinstance(docs, list):
        raise UsageError("'certificates' must be a list")
    all_failures: list[str] = []
    for i, cert_doc in enumerate(docs):
        for failure in verify_document(cert_doc):
            all_failures.append(f"certificate {i}: {failure}")
    if all_failures:
        sys.stderr.write(all_failures[0] + "\n")
        return 1
    _dump({"verified": len(docs)}, args.out)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algforge",
        description="exact rational matrix-algebra computations with"
                    " machine-verifiable certificates")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_io(p, with_input=True):
        if with_input:
            p.add_argument("input", nargs="?", default=None,
                           help="input JSON file (default: stdin)")
        p.add_argument("--out", default=None, help="output file (default: stdout)")

    p = sub.add_parser("algebra-generate", help="close generators into an algebra")
    add_io(p)
    p.set_defaults(func=_cmd_algebra_generate)

    p = sub.add_parser("algebra-dim", help="dimension of an algebra")
    add_io(p)
    p.set_defaults(func=_cmd_algebra_dim)

    p = sub.add_parser("algebra-covering",
                       help="covering matrix and nonnegative covering if any")
    add_io(p)
    p.set_defaults(func=_cmd_algebra_covering)

    p = sub.add_parser("algebra-classify",
                       help="search for a positive generating system up to"
                            " similarity")
    add_io(p)
    p.add_argument("--budget", type=int, default=64,
                   help="random combinations to try (default 64)")
    p.add_argument("--seed", type=int, default=0, help="search seed (default 0)")
    p.set_defaults(func=_cmd_algebra_classify)

    p = sub.add_parser("incidence-build",
                       help="staircase incidence pattern of a given dimension")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    add_io(p, with_input=False)
    p.set_defaults(func=_cmd_incidence_build)

    p = sub.add_parser("incidence-pair",
                       help="nonnegative semi-commuting pair generating an"
                            " incidence algebra")
    add_io(p)
    p.set_defaults(func=_cmd_incidence_pair)

    p = sub.add_parser("problem-solve",
                       help="semi-commuting nonnegative pairs for every"
                            " realizable dimension")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--format", choices=["json", "table"], default="json")
    add_io(p, with_input=False)
    p.set_defaults(func=_cmd_problem_solve)

    p = sub.add_parser("verify", help="re-check a certificate document")
    add_io(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
