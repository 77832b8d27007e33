"""Independent certificate verification.

This module re-checks every asserted property exactly from the stored JSON
data.  It deliberately avoids the construction code paths: membership,
conjugation, support and closure checks are re-implemented here, and
conjugation identities are verified multiplicatively (C * target ==
source * C with C nonsingular) so no inverse is ever taken on faith.
Matrices are read as Fraction grids, but the arithmetic runs on integers:
a product multiplies the integer numerators of its operands over one
common denominator each, and `_Span` keeps primitive integer rows with a
positive pivot, fully reduced against each other, so equal spans have equal
rows.  `_solve_conjugate` reduces [C | XC] with a `_Span`, which is the
module's only elimination.  Generated-algebra claims are re-derived with a
worklist that multiplies each retained element on the right by the
generators cleared to integers, where the engine's worklist multiplies
on the left; each generator list is closed once per document.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from math import gcd, lcm
from operator import mul
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

Grid = list[list[Fraction]]


class CertificateError(ValueError):
    pass


# -- tiny self-contained exact linear algebra ---------------------------------

_RATIONAL = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def _rational(s: str) -> Fraction:
    """Only the canonical form str(Fraction) writes: "p" or "p/q" in lowest
    terms with q > 1."""
    if isinstance(s, str) and _RATIONAL.fullmatch(s):
        value = Fraction(s)
        if str(value) == s:
            return value
    raise CertificateError(f"not a canonical rational: {s!r}")


def _grid(obj: dict) -> Grid:
    rows, cols = obj["rows"], obj["cols"]
    entries = obj["entries"]
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise CertificateError("matrix entries do not match declared shape")
    return [[_rational(v) for v in row] for row in entries]


def _scaled(a: Grid) -> tuple[int, list[list[int]]]:
    """(d, N) with N the integer grid d * a, d the lcm of the denominators."""
    d = lcm(*[v.denominator for row in a for v in row])
    return d, [[v.numerator * (d // v.denominator) for v in row] for row in a]


def _imul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    bt = list(zip(*b)) if b else []
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def _mul(a: Grid, b: Grid) -> Grid:
    if (a and len(a[0]) or 0) != len(b):
        raise CertificateError("size mismatch in product")
    da, ia = _scaled(a)
    db, ib = _scaled(b)
    d = da * db
    return [[Fraction(v, d) for v in row] for row in _imul(ia, ib)]


def _sub(a: Grid, b: Grid) -> Grid:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _is_nonneg(a: Grid) -> bool:
    return all(v >= 0 for row in a for v in row)


def _is_positive(a: Grid) -> bool:
    return bool(a) and all(v > 0 for row in a for v in row)


def _support(a: Grid) -> set[tuple[int, int]]:
    return {(i + 1, j + 1) for i, row in enumerate(a)
            for j, v in enumerate(row) if v}


def _vec(a: Grid) -> list[Fraction]:
    return [v for row in a for v in row]


def _cleared(vec: Sequence[Fraction]) -> dict[int, int]:
    """The nonzero entries of vec times the lcm of their denominators."""
    entries = [(i, c) for i, c in enumerate(vec) if c]
    # Star-unpack lists, not generators: a generator's tuple is resized
    # to its length, which leaves tuples piling up in the interpreter's
    # per-length free lists (several MiB of peak memory).
    den = lcm(*[c.denominator for _, c in entries])
    return {i: c.numerator * (den // c.denominator) for i, c in entries}


def _primitive(vec: dict[int, int]) -> dict[int, int]:
    """vec divided by its content, signed so the first entry is positive."""
    g = gcd(*vec.values())
    if vec[min(vec)] < 0:
        g = -g
    return {j: v // g for j, v in vec.items()}


def _residual(rows: dict[int, dict[int, int]],
              vec: dict[int, int]) -> dict[int, int]:
    """A nonzero multiple of vec minus its projection onto the span of the
    rows along their pivots; empty iff vec is in the span.  The rows are
    fully reduced, so each row's coefficient is vec's entry at its pivot."""
    hits = [p for p in vec if p in rows]
    if not hits:
        return vec
    scale = lcm(*[rows[p][p] for p in hits])
    out = {j: scale * v for j, v in vec.items()}
    for p in hits:
        row = rows[p]
        f = vec[p] * (scale // row[p])
        for j, a in row.items():
            nv = out.get(j, 0) - f * a
            if nv:
                out[j] = nv
            else:
                del out[j]
    return out


class _Span:
    """Sparse span kept as primitive integer rows keyed by pivot column
    (content divided out, positive pivot), each fully reduced against the
    others, so `rows` is canonical: equal spans have equal rows."""

    def __init__(self):
        self.rows: dict[int, dict[int, int]] = {}

    def contains(self, vec: Sequence[Fraction]) -> bool:
        return not _residual(self.rows, _cleared(vec))

    def add(self, vec: Sequence[Fraction]) -> bool:
        res = _residual(self.rows, _cleared(vec))
        if not res:
            return False
        row = _primitive(res)
        p = min(row)
        pivot = {p: row}
        for q, other in self.rows.items():
            if p in other:
                self.rows[q] = _primitive(_residual(pivot, other))
        self.rows[p] = row
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)


def _solve_conjugate(c: Grid, x: Grid) -> Grid:
    """Y with C Y = X C, i.e. Y = C^{-1} X C; C must be nonsingular.

    The rows of [C | XC] go into a `_Span`, which reduces them to [I | Y]
    up to row scaling; C is nonsingular iff the pivots are its n columns."""
    n = len(c)
    rhs = _mul(x, c)
    span = _Span()
    for i in range(n):
        span.add(c[i] + rhs[i])
    if sorted(span.rows) != list(range(n)):
        raise CertificateError("transformation matrix is singular")
    return [[Fraction(span.rows[i].get(n + j, 0), span.rows[i][i])
             for j in range(n)] for i in range(n)]


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _closure(gens: list[Grid]) -> tuple[_Span, int]:
    """Span of the unital algebra generated by gens.

    Worklist: I and the generators first, then every retained element is
    multiplied on the right by each generator.  The span holds I and is
    closed under right multiplication by every generator, so it holds every
    word in them.
    """
    if not gens:
        raise CertificateError("closure of an empty generator list")
    n = len(gens[0])
    if any(len(g) != n or any(len(row) != n for row in g) for g in gens):
        raise CertificateError("generators are not square of one size")
    # Words in the generators scaled to integers are nonzero multiples of
    # the words in the generators, so they span the same algebra.
    ints = [_scaled(g)[1] for g in gens]
    span = _Span()
    kept: list[list[list[int]]] = []

    def push(m: list[list[int]]) -> None:
        if span.add(_vec(m)):
            kept.append(m)

    push(_identity(n))
    for g in ints:
        push(g)
    for x in kept:  # kept grows while it is walked: a FIFO worklist
        for g in ints:
            push(_imul(x, g))
    return span, n


# -- reference resolution ------------------------------------------------------

def _resolve(doc: dict, ref: str) -> dict | list:
    if ref == "C":
        if doc.get("C") is None:
            raise CertificateError("certificate has no transformation")
        return doc["C"]
    if ref.startswith("out:"):
        idx = int(ref.split(":", 1)[1])
        return doc["outputs"][idx]
    if ref.startswith("in:"):
        parts = ref.split(":")
        value = doc["inputs"][parts[1]]
        if len(parts) == 3:
            return value[int(parts[2])]
        return value
    raise CertificateError(f"unresolvable reference {ref!r}")


def _matrix(doc: dict, ref: str) -> Grid:
    obj = _resolve(doc, ref)
    if not isinstance(obj, dict) or "entries" not in obj:
        raise CertificateError(f"{ref!r} is not a matrix")
    return _grid(obj)


def _algebra_basis(doc: dict, ref: str) -> list[Grid]:
    obj = _resolve(doc, ref)
    if not isinstance(obj, dict) or "basis" not in obj:
        raise CertificateError(f"{ref!r} is not an algebra")
    return [_grid(m) for m in obj["basis"]]


def _pattern(doc: dict, ref: str) -> tuple[int, set[tuple[int, int]]]:
    obj = _resolve(doc, ref)
    if not isinstance(obj, dict) or "positions" not in obj:
        raise CertificateError(f"{ref!r} is not a pattern")
    return obj["n"], {(i, j) for i, j in obj["positions"]}


def _transform(doc: dict) -> Grid:
    if doc.get("C") is None:
        raise CertificateError("property requires a transformation matrix")
    c = _grid(doc["C"])
    if any(len(row) != len(c) for row in c):
        raise CertificateError("transformation matrix is not square")
    span = _Span()
    for row in c:
        span.add(row)
    if span.dim != len(c):
        raise CertificateError("transformation matrix is singular")
    return c


# -- property checks -----------------------------------------------------------

def _check_nonneg(doc, p, closed):
    return _is_nonneg(_matrix(doc, p["target"]))


def _check_positive(doc, p, closed):
    return _is_positive(_matrix(doc, p["target"]))


def _check_conjugate_of(doc, p, closed):
    c = _transform(doc)
    target = _matrix(doc, p["target"])
    source = _matrix(doc, p["source"])
    return _mul(c, target) == _mul(source, c)


def _basis(doc: dict, p: dict, conjugated: bool) -> list[Grid]:
    """The basis of the property's algebra, mapped to C^{-1} B C when the
    property speaks of the conjugated algebra."""
    basis = _algebra_basis(doc, p["algebra"])
    if not conjugated:
        return basis
    c = _transform(doc)
    return [_solve_conjugate(c, b) for b in basis]


def _check_in_algebra(doc, p, closed, conjugated=False):
    span = _Span()
    for b in _basis(doc, p, conjugated):
        span.add(_vec(b))
    return span.contains(_vec(_matrix(doc, p["target"])))


def _check_covers(doc, p, closed, conjugated=False):
    omega: set[tuple[int, int]] = set()
    for b in _basis(doc, p, conjugated):
        omega |= _support(b)
    return _support(_matrix(doc, p["target"])) == omega


def _check_semi_commuting(doc, p, closed):
    a = _matrix(doc, p["a"])
    b = _matrix(doc, p["b"])
    comm = _sub(_mul(a, b), _mul(b, a))
    if p["sign"] == "nonneg":
        return _is_nonneg(comm)
    if p["sign"] == "nonpos":
        return _is_nonneg([[-v for v in row] for row in comm])
    raise CertificateError("unknown semi-commuting sign")


def _check_central(doc, p, closed):
    z = _matrix(doc, p["target"])
    basis = _algebra_basis(doc, p["algebra"])
    span = _Span()
    for b in basis:
        span.add(_vec(b))
    if not span.contains(_vec(z)):
        return False
    return all(_mul(z, b) == _mul(b, z) for b in basis)


def _check_dimension(doc, p, closed):
    span, _ = closed(p["gens"])
    return span.dim == p["value"]


def _check_generate_equal(doc, p, closed):
    span_a, _ = closed(p["gens_a"])
    span_b, _ = closed(p["gens_b"])
    return span_a.rows == span_b.rows


def _check_generate_equal_conjugated(doc, p, closed):
    c = _transform(doc)
    span_a, _ = closed(p["gens"])
    span_b, _ = _closure([_solve_conjugate(c, _matrix(doc, r))
                          for r in p["source_gens"]])
    return span_a.rows == span_b.rows


def _check_spans_pattern(doc, p, closed):
    n, positions = _pattern(doc, p["pattern"])
    span, size = closed(p["gens"])
    if size != n or span.dim != len(positions):
        return False
    for (i, j) in positions:
        unit = [[ONE if (r, c) == (i - 1, j - 1) else ZERO for c in range(n)]
                for r in range(n)]
        if not span.contains(_vec(unit)):
            return False
    return True


def _check_is_centralizer(doc, p, closed):
    basis = _algebra_basis(doc, p["algebra"])
    m = _matrix(doc, p["of"])
    n = len(m)
    if not all(_mul(b, m) == _mul(m, b) for b in basis):
        return False
    # dimension must match the kernel of X -> MX - XM
    rows = []
    for i in range(n):
        for j in range(n):
            row = [ZERO] * (n * n)
            for k in range(n):
                row[k * n + j] += m[i][k]
            for l in range(n):
                row[i * n + l] -= m[l][j]
            if any(row):
                rows.append(row)
    span = _Span()
    for r in rows:
        span.add(r)
    kernel_dim = n * n - span.dim
    basis_span = _Span()
    for b in basis:
        basis_span.add(_vec(b))
    return basis_span.dim == len(basis) == kernel_dim


def _check_has_simple_real_eigenvalue(doc, p, closed):
    from .matrices import Mat
    from .spectral import has_simple_real_eigenvalue
    grid = _matrix(doc, p["target"])
    m = Mat(len(grid), len(grid[0]) if grid else 0,
            tuple(tuple(row) for row in grid))
    return has_simple_real_eigenvalue(m)


_CHECKS = {
    "nonneg": _check_nonneg,
    "positive": _check_positive,
    "conjugate_of": _check_conjugate_of,
    "in_algebra": _check_in_algebra,
    "in_algebra_conjugated": partial(_check_in_algebra, conjugated=True),
    "covers": _check_covers,
    "covers_conjugated": partial(_check_covers, conjugated=True),
    "semi_commuting": _check_semi_commuting,
    "central": _check_central,
    "dimension": _check_dimension,
    "generate_equal": _check_generate_equal,
    "generate_equal_conjugated": _check_generate_equal_conjugated,
    "spans_pattern": _check_spans_pattern,
    "is_centralizer": _check_is_centralizer,
    "has_simple_real_eigenvalue": _check_has_simple_real_eigenvalue,
}


def _closures(doc: dict):
    """`closed(refs)`: the `_closure` of the matrices behind a list of
    references, computed once per list for the life of `closed`."""
    cache: dict[tuple, tuple[_Span, int]] = {}

    def closed(refs) -> tuple[_Span, int]:
        key = tuple(refs)
        if key not in cache:
            cache[key] = _closure([_matrix(doc, r) for r in key])
        return cache[key]

    return closed


def verify_document(doc: dict) -> list[str]:
    """Re-check every asserted property; returns failure messages ([] = ok).

    Generator lists that several properties close are closed once."""
    failures = []
    closed = _closures(doc)
    try:
        props = doc["properties"]
    except (KeyError, TypeError):
        return ["document has no properties list"]
    if not props:
        return ["document asserts no properties"]
    for idx, p in enumerate(props):
        if not isinstance(p, dict):
            failures.append(f"property {idx}: not an object")
            continue
        kind = p.get("kind")
        check = _CHECKS.get(kind)
        if check is None:
            failures.append(f"property {idx}: unknown kind {kind!r}")
            continue
        try:
            ok = check(doc, p, closed)
        except (CertificateError, KeyError, IndexError, TypeError,
                ValueError, ZeroDivisionError) as exc:
            failures.append(f"property {idx} ({kind}): {exc}")
            continue
        if not ok:
            failures.append(f"property {idx} ({kind}) failed")
    return failures


def verify_certificate(cert) -> list[str]:
    """Verify a Certificate object (serializes it first)."""
    return verify_document(cert.to_json())
