"""Independent certificate verification.

This module re-checks every asserted property exactly from the stored JSON
data.  It deliberately avoids the construction code paths: membership,
conjugation, support and closure checks are re-implemented here, and
conjugation identities are verified multiplicatively (C * target ==
source * C with C nonsingular) so no inverse is ever taken on faith.
Wire strings parse straight to integers: a matrix is read as a canonical
grid (den, rows), integer rows over a positive denominator with no common
factor, so equal matrices have equal grids, and products, differences,
supports, sign tests and spans all run on those integers.  `_Span` keeps
primitive integer rows with a positive pivot, fully reduced against each
other, so equal spans have equal rows.  `_solve_conjugate` reduces
[dx C | X C] with a `_Span`, which is the module's only elimination.
Generated-algebra claims are re-derived with a worklist that multiplies
each retained element on the right by the generators' integer rows, where
the engine's worklist multiplies on the left.  Generators are admitted
lazily: one the span already holds is skipped, since the span is always
the algebra generated by the admitted ones, so a redundant list costs no
more products than its admitted part.  A claim that a second list
generates the same algebra as a closed one is checked by containment
(`_generates`): each of its matrices must lie in the closed span, and it
is closed only when I and the matrices alone fall short of the span's
dimension.  Within one `verify_document` call each referenced matrix is
parsed once, each algebra basis is spanned once and each generator list
is closed once.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from math import gcd, lcm
from operator import mul
from typing import Sequence

# A matrix as (den, rows): the integer rows over den > 0, with
# gcd(den, every entry) = 1, so equal matrices have equal grids.
Grid = tuple[int, tuple[tuple[int, ...], ...]]


class CertificateError(ValueError):
    pass


# -- tiny self-contained exact linear algebra ---------------------------------

_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")


def _rational(s: str) -> tuple[int, int]:
    """(p, q) for exactly the canonical form str(Fraction) writes: "p", or
    "p/q" in lowest terms with q > 1.  The pattern test comes first, so
    exponent forms like "1e400" never build a big int."""
    m = _RATIONAL.fullmatch(s) if isinstance(s, str) else None
    if m:
        p = int(m[1])
        q = 1 if m[2] is None else int(m[2])
        if str(p) == m[1] and (m[2] is None or q > 1 and gcd(p, q) == 1):
            return p, q
    raise CertificateError(f"not a canonical rational: {s!r}")


def _grid(obj: dict) -> Grid:
    rows, cols = obj["rows"], obj["cols"]
    entries = obj["entries"]
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise CertificateError("matrix entries do not match declared shape")
    parsed = [[_rational(v) for v in row] for row in entries]
    # Star-unpack lists, not generators: a generator's tuple is resized
    # to its length, which leaves tuples piling up in the interpreter's
    # per-length free lists (several MiB of peak memory).  The lcm of the
    # reduced denominators shares no factor with every scaled numerator.
    den = lcm(*[q for row in parsed for _, q in row])
    return den, tuple(tuple(p * (den // q) for p, q in row) for row in parsed)


def _canonical(den: int, rows: tuple[tuple[int, ...], ...]) -> Grid:
    """rows / den, for den > 0, with the common factor divided out."""
    g = den
    for row in rows:
        if g == 1:
            break
        g = gcd(g, *row)
    if g == 1:
        return den, rows
    return den // g, tuple(tuple(v // g for v in row) for row in rows)


def _imul(a: Sequence[Sequence[int]],
          b: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def _mul(a: Grid, b: Grid) -> Grid:
    (da, ra), (db, rb) = a, b
    if not rb:
        # A grid with no rows records no column count.
        raise CertificateError("empty inner dimension in product")
    if (ra and len(ra[0]) or 0) != len(rb):
        raise CertificateError("size mismatch in product")
    return _canonical(da * db, _imul(ra, rb))


def _sub(a: Grid, b: Grid) -> Grid:
    (da, ra), (db, rb) = a, b
    if list(map(len, ra)) != list(map(len, rb)):
        raise CertificateError("size mismatch in difference")
    d = lcm(da, db)
    fa, fb = d // da, d // db
    return _canonical(d, tuple(tuple(fa * x - fb * y for x, y in zip(xa, xb))
                               for xa, xb in zip(ra, rb)))


def _is_nonneg(a: Grid) -> bool:
    return all(v >= 0 for row in a[1] for v in row)


def _is_positive(a: Grid) -> bool:
    return bool(a[1]) and all(v > 0 for row in a[1] for v in row)


def _support(a: Grid) -> set[tuple[int, int]]:
    return {(i + 1, j + 1) for i, row in enumerate(a[1])
            for j, v in enumerate(row) if v}


def _vec(a: Grid) -> list[int]:
    """Row-major integer entries: den times the matrix's vector, which
    spans the same line."""
    return [v for row in a[1] for v in row]


def _sparse(vec: Sequence[int]) -> dict[int, int]:
    """The nonzero entries of an integer vector, by index."""
    return {i: v for i, v in enumerate(vec) if v}


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

    def contains(self, vec: Sequence[int]) -> bool:
        return not _residual(self.rows, _sparse(vec))

    def add(self, vec: Sequence[int]) -> bool:
        res = _residual(self.rows, _sparse(vec))
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

    With C = c / dc and X = x / dx, C Y = X C reads dx c Y = x c, so the
    rows of [dx c | x c] go into a `_Span`, which reduces them to [I | Y]
    up to row scaling; C is nonsingular iff the pivots are its n columns."""
    (_, cn), (dx, xn) = c, x
    n = len(cn)
    if not _is_square(xn, n):
        raise CertificateError("size mismatch in conjugation")
    rhs = _imul(xn, cn)
    span = _Span()
    for i in range(n):
        span.add([dx * v for v in cn[i]] + list(rhs[i]))
    rows = span.rows
    if sorted(rows) != list(range(n)):
        raise CertificateError("transformation matrix is singular")
    den = lcm(*[rows[i][i] for i in range(n)])
    return _canonical(den, tuple(
        tuple(rows[i].get(n + j, 0) * (den // rows[i][i]) for j in range(n))
        for i in range(n)))


def _is_square(rows: Sequence[Sequence[int]], n: int) -> bool:
    """Whether integer rows form an n x n matrix."""
    return len(rows) == n and all(len(row) == n for row in rows)


def _identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _closure(gens: list[Grid]) -> tuple[_Span, int]:
    """Span of the unital algebra generated by gens.

    Worklist with lazy admission.  Invariant: the span holds I, is spanned
    by the kept words, and is closed under right multiplication by every
    admitted generator, so it is the algebra the admitted generators
    generate.  A generator the span already holds adds nothing and is
    skipped.  A new one is admitted: every earlier kept word is multiplied
    on the right by it, and then every new word by each admitted generator,
    walking the kept list by index while it grows.
    """
    if not gens:
        raise CertificateError("closure of an empty generator list")
    # Words in the generators' integer rows are nonzero multiples of the
    # words in the generators, so they span the same algebra.
    ints = [rows for _, rows in gens]
    n = len(ints[0])
    if not all(_is_square(g, n) for g in ints):
        raise CertificateError("generators are not square of one size")
    span = _Span()
    kept: list[tuple[tuple[int, ...], ...]] = []
    used: list[tuple[tuple[int, ...], ...]] = []

    def push(m: tuple[tuple[int, ...], ...]) -> None:
        if span.add([v for row in m for v in row]):
            kept.append(m)

    push(_identity(n))
    for g in ints:
        if span.contains([v for row in g for v in row]):
            continue
        used.append(g)
        old = len(kept)
        for x in kept[:old]:
            push(_imul(x, g))
        i = old
        while i < len(kept):  # kept grows while it is walked
            for h in used:
                push(_imul(kept[i], h))
            i += 1
    return span, n


def _generates(closed: tuple[_Span, int], gens: list[Grid]) -> bool:
    """Whether gens generate the algebra spanned by a `_closure` result.

    Every generator must be n x n and lie in the span, which is an algebra
    holding I, so the algebra <gens> lies inside it; and span{I, gens}
    lies inside <gens>.  So the two are equal once span{I, gens} has the
    span's dimension, and otherwise exactly when the closure of gens
    reaches it."""
    if not gens:
        raise CertificateError("closure of an empty generator list")
    span, n = closed
    if not all(_is_square(rows, n) for _, rows in gens):
        raise CertificateError("generator size does not match the algebra")
    vecs = [_vec(g) for g in gens]
    if not all(map(span.contains, vecs)):
        return False
    low = _Span()
    low.add([v for row in _identity(n) for v in row])
    for v in vecs:
        low.add(v)
    return low.dim == span.dim or _closure(gens)[0].dim == span.dim


# -- reference resolution ------------------------------------------------------

# "out:<i>", "in:<name>" or "in:<name>:<i>", each index a plain decimal.
_REFERENCE = re.compile(r"out:(0|[1-9][0-9]*)|in:([^:]*)(?::(0|[1-9][0-9]*))?")


def _resolve(doc: dict, ref: str, key: str, what: str) -> dict:
    """The object behind a reference, which must hold `key`."""
    if not isinstance(ref, str):
        raise CertificateError(f"reference {ref!r} is not a string")
    m = _REFERENCE.fullmatch(ref)
    if ref == "C":
        obj = doc.get("C")
        if obj is None:
            raise CertificateError("certificate has no transformation")
    elif m is None:
        raise CertificateError(f"unresolvable reference {ref!r}")
    elif m[1] is not None:
        obj = doc["outputs"][int(m[1])]
    else:
        obj = doc["inputs"][m[2]]
        if m[3] is not None:
            obj = obj[int(m[3])]
    if not isinstance(obj, dict) or key not in obj:
        raise CertificateError(f"{ref!r} is not {what}")
    return obj


class _Document:
    """The references of one document, read for one `verify_document`
    call: each matrix is parsed once, each algebra basis read (and
    conjugated) and spanned once and each generator list closed once.
    Cached grids are tuples and cached spans are only read, so no check
    can change what another sees."""

    def __init__(self, doc: dict):
        self.doc = doc
        self._memo: dict[tuple, object] = {}

    def _once(self, key: tuple, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def matrix(self, ref: str) -> Grid:
        return self._once(("matrix", ref), lambda: _grid(
            _resolve(self.doc, ref, "entries", "a matrix")))

    def basis(self, ref: str, conjugated: bool = False) -> tuple[Grid, ...]:
        """The algebra's basis, mapped to C^{-1} B C when conjugated."""
        if conjugated:
            c = self.transform()
            return self._once(("conjugated", ref), lambda: tuple(
                _solve_conjugate(c, b) for b in self.basis(ref)))
        return self._once(("basis", ref), lambda: tuple(
            self.sized(_grid(m), ref) for m in _resolve(
                self.doc, ref, "basis", "an algebra")["basis"]))

    def sized(self, grid: Grid, ref: str) -> Grid:
        """grid, which must be n x n for the n of the algebra behind ref."""
        n = _resolve(self.doc, ref, "basis", "an algebra")["n"]
        if not _is_square(grid[1], n):
            raise CertificateError(f"matrix is not {n} x {n} like {ref!r}")
        return grid

    def span(self, ref: str, conjugated: bool = False) -> _Span:
        """The span of the algebra's basis (conjugated or not)."""
        def make() -> _Span:
            span = _Span()
            for b in self.basis(ref, conjugated):
                span.add(_vec(b))
            return span
        return self._once(("span", ref, conjugated), make)

    def transform(self) -> Grid:
        """C, checked square and nonsingular."""
        return self._once(("transform",), self._checked_transform)

    def _checked_transform(self) -> Grid:
        if self.doc.get("C") is None:
            raise CertificateError("property requires a transformation matrix")
        c = self.matrix("C")
        rows = c[1]
        if any(len(row) != len(rows) for row in rows):
            raise CertificateError("transformation matrix is not square")
        span = _Span()
        for row in rows:
            span.add(row)
        if span.dim != len(rows):
            raise CertificateError("transformation matrix is singular")
        return c

    def closed(self, refs) -> tuple[_Span, int]:
        """The `_closure` of the matrices behind a list of references."""
        key = tuple(refs)
        return self._once(("closure", key), lambda: _closure(
            [self.matrix(r) for r in key]))

    def pattern(self, ref: str) -> tuple[int, frozenset[tuple[int, int]]]:
        """(n, positions); every position must be a pair of integers in
        1..n, since a position outside would stand for the zero matrix."""
        obj = _resolve(self.doc, ref, "positions", "a pattern")
        n = obj["n"]
        positions = set()
        for pos in obj["positions"]:
            i, j = pos
            if not (type(i) is int and type(j) is int
                    and 1 <= i <= n and 1 <= j <= n):
                raise CertificateError(f"pattern position {pos!r} is not in"
                                       f" 1..{n}")
            positions.add((i, j))
        return n, frozenset(positions)


# -- property checks -----------------------------------------------------------

def _check_nonneg(d: _Document, p: dict) -> bool:
    return _is_nonneg(d.matrix(p["target"]))


def _check_positive(d: _Document, p: dict) -> bool:
    return _is_positive(d.matrix(p["target"]))


def _check_conjugate_of(d: _Document, p: dict) -> bool:
    c = d.transform()
    return _mul(c, d.matrix(p["target"])) == _mul(d.matrix(p["source"]), c)


def _check_in_algebra(d: _Document, p: dict, conjugated=False) -> bool:
    return d.span(p["algebra"], conjugated).contains(
        _vec(d.sized(d.matrix(p["target"]), p["algebra"])))


def _check_covers(d: _Document, p: dict, conjugated=False) -> bool:
    omega: set[tuple[int, int]] = set()
    for b in d.basis(p["algebra"], conjugated):
        omega |= _support(b)
    return _support(d.sized(d.matrix(p["target"]), p["algebra"])) == omega


def _check_semi_commuting(d: _Document, p: dict) -> bool:
    a = d.matrix(p["a"])
    b = d.matrix(p["b"])
    ab, ba = _mul(a, b), _mul(b, a)
    if p["sign"] == "nonneg":
        return _is_nonneg(_sub(ab, ba))
    if p["sign"] == "nonpos":
        return _is_nonneg(_sub(ba, ab))
    raise CertificateError("unknown semi-commuting sign")


def _check_central(d: _Document, p: dict) -> bool:
    z = d.matrix(p["target"])
    if not d.span(p["algebra"]).contains(_vec(z)):
        return False
    return all(_mul(z, b) == _mul(b, z) for b in d.basis(p["algebra"]))


def _check_dimension(d: _Document, p: dict) -> bool:
    span, _ = d.closed(p["gens"])
    return span.dim == p["value"]


def _check_generate_equal(d: _Document, p: dict) -> bool:
    return _generates(d.closed(p["gens_a"]),
                      [d.matrix(r) for r in p["gens_b"]])


def _check_generate_equal_conjugated(d: _Document, p: dict) -> bool:
    c = d.transform()
    return _generates(d.closed(p["gens"]),
                      [_solve_conjugate(c, d.matrix(r))
                       for r in p["source_gens"]])


def _check_spans_pattern(d: _Document, p: dict) -> bool:
    n, positions = d.pattern(p["pattern"])
    span, size = d.closed(p["gens"])
    if size != n or span.dim != len(positions):
        return False
    for (i, j) in positions:
        unit = [0] * (n * n)
        unit[(i - 1) * n + j - 1] = 1
        if not span.contains(unit):
            return False
    return True


def _check_is_centralizer(d: _Document, p: dict) -> bool:
    basis = d.basis(p["algebra"])
    m = d.matrix(p["of"])
    rows_m = m[1]  # den * M has the same centralizer as M
    n = len(rows_m)
    if not all(_mul(b, m) == _mul(m, b) for b in basis):
        return False
    # dimension must match the kernel of X -> MX - XM
    rows = []
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            for k in range(n):
                row[k * n + j] += rows_m[i][k]
            for l in range(n):
                row[i * n + l] -= rows_m[l][j]
            if any(row):
                rows.append(row)
    span = _Span()
    for r in rows:
        span.add(r)
    kernel_dim = n * n - span.dim
    return d.span(p["algebra"]).dim == len(basis) == kernel_dim


def _check_has_simple_real_eigenvalue(d: _Document, p: dict) -> bool:
    from .matrices import Mat
    from .spectral import has_simple_real_eigenvalue
    den, rows = d.matrix(p["target"])
    m = Mat(len(rows), len(rows[0]) if rows else 0, rows) * Fraction(1, den)
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


def verify_document(doc: dict) -> list[str]:
    """Re-check every asserted property; returns failure messages ([] = ok).

    References are read once per call (see `_Document`)."""
    failures = []
    try:
        props = doc["properties"]
    except (KeyError, TypeError):
        return ["document has no properties list"]
    if not props:
        return ["document asserts no properties"]
    reader = _Document(doc)
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
            ok = check(reader, p)
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
