"""A reference for the verifier's fifteen property kinds, written from
their definitions.

Each check reads the wire format itself and decides its property in
`Fraction`s, the plain way: row i of a product is the sum of the right
factor's rows weighted by row i of the left one, a span is kept as its
reduced row-echelon basis, one Gauss-Jordan step at a time, and the
algebra a list generates is closed by a worklist, so two algebras are
equal when their reduced row-echelon bases are.
`has_simple_real_eigenvalue` asks sympy for the squarefree factorization
of the characteristic polynomial.  Nothing here comes from `algforge`, so
a fault in the verifier's parser, spans, products or closures cannot hide
in a shared part.

The wire format, as read here: an entry is a string s with
str(Fraction(s)) == s; a matrix has integer "rows" and "cols" and
"entries", a list of that many lists of that many entries; a reference is
"C", "out:<i>", "in:<name>" or "in:<name>:<i>" (item i of a list input,
or basis matrix i of an algebra input); an algebra has an integer "n" >= 0
and "basis", a list of n x n matrices, and means their span; a pattern
has an integer "n" and "positions", a list of [i, j] with integers i, j
in 1..n; a field of references (gens, gens_a, gens_b, source_gens) is a
list; an integer is a JSON integer, and true or 2.0 is not.

Where the definition leaves a case open, the rule is:

- A document proves nothing unless "properties" is a non-empty list and
  each property holds.  A property that is not an object, or whose kind
  is not one of the fifteen, does not hold.
- A property holds only if all it names is well formed and of matching
  size: a target or centralized matrix is n x n for the algebra's n, the
  matrices of a generation claim are n x n for one n, and C is n x n and
  nonsingular.  A conjugated kind reads C even for an empty basis.
- An empty generator list fixes no size: no claim about the algebra it
  generates holds.  The algebra of 0 x 0 matrices is {0}.
- A positive matrix has an entry, and every entry is > 0.
- `is_centralizer` needs the basis to be independent: a basis is a basis.
- `spans_pattern` does not hold for generators of another size than the
  pattern's n.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import sympy

ZERO = Fraction(0)
ONE = Fraction(1)


class Malformed(ValueError):
    """The document does not hold what a property needs."""


class Matrix(NamedTuple):
    rows: int
    cols: int
    data: tuple[tuple[Fraction, ...], ...]


# -- reduced row-echelon spans of sparse vectors {index: nonzero value} --------

def _reduce(rows: dict[int, dict[int, Fraction]],
            vec: dict[int, Fraction]) -> dict[int, Fraction]:
    """vec minus its combination of the reduced rows: each row has 1 at
    its pivot and 0 at every other pivot, so its coefficient is vec's
    entry at the pivot."""
    out = dict(vec)
    for p in [p for p in vec if p in rows]:
        c = vec[p]
        for j, v in rows[p].items():
            nv = out.get(j, ZERO) - c * v
            if nv:
                out[j] = nv
            else:
                del out[j]
    return out


def _insert(rows: dict[int, dict[int, Fraction]],
            vec: dict[int, Fraction]) -> dict[int, Fraction] | None:
    """One Gauss-Jordan step: add vec to the reduced row-echelon basis
    {pivot: row} unless it lies in its span.  Returns the new row, vec's
    residual with 1 at its pivot, or None when the span did not grow."""
    res = _reduce(rows, vec)
    if not res:
        return None
    p = min(res)
    row = {j: v / res[p] for j, v in res.items()}
    for q, other in rows.items():
        if p in other:
            rows[q] = _reduce({p: row}, other)
    rows[p] = row
    return row


def gauss_jordan(vectors, length: int) -> list[tuple[Fraction, ...]]:
    """Reduced row-echelon basis of the span of the vectors, in pivot
    order, each row with 1 at its pivot."""
    rows: dict[int, dict[int, Fraction]] = {}
    for vec in vectors:
        _insert(rows, {j: Fraction(v) for j, v in enumerate(vec) if v})
    return [tuple(rows[p].get(j, ZERO) for j in range(length))
            for p in sorted(rows)]


# -- matrices --------------------------------------------------------------------

def _vec(m: Matrix) -> dict[int, Fraction]:
    """The row-major entries of m."""
    return {i * m.cols + j: v for i, row in enumerate(m.data)
            for j, v in enumerate(row) if v}


def _product(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise Malformed("a product of mismatched sizes")
    out = []
    for row in a.data:
        acc = [ZERO] * b.cols
        for x, brow in zip(row, b.data):
            if x:
                acc = [s + x * y if y else s for s, y in zip(acc, brow)]
        out.append(tuple(acc))
    return Matrix(a.rows, b.cols, tuple(out))


def _square(m: Matrix, n: int | None = None) -> Matrix:
    """m, which must be square, and n x n when n is given."""
    if m.rows != m.cols or n is not None and m.rows != n:
        raise Malformed("a matrix of the wrong size")
    return m


def _conjugate(x: Matrix, c: Matrix, inv: Matrix) -> Matrix:
    """C^{-1} X C, given C^{-1}."""
    return _product(_product(inv, x), c)


def _support(m: Matrix) -> set[tuple[int, int]]:
    return {(i, j) for i, row in enumerate(m.data)
            for j, v in enumerate(row) if v}


@lru_cache(maxsize=64)
def _span(mats: tuple[Matrix, ...]) -> dict[int, dict[int, Fraction]]:
    """The reduced row-echelon basis of span(mats), not to be changed."""
    rows: dict[int, dict[int, Fraction]] = {}
    for m in mats:
        _insert(rows, _vec(m))
    return rows


@lru_cache(maxsize=64)
def _generated(gens: tuple[Matrix, ...]) -> tuple[dict, list[Matrix]]:
    """(reduced row-echelon basis, matrices spanning it), not to be
    changed, of the unital algebra the n x n gens generate.  A matrix
    pushed onto the worklist is reduced against the span, and its
    residual, unless zero, joins the span and the list.  The span holds
    I, is spanned by the list and is closed under right multiplication by
    every generator admitted so far, so it is the algebra those generate.
    A generator the span holds is skipped.  An admitted one is pushed,
    each earlier matrix of the list but I times it, and each later one
    times every admitted generator, until none enlarges the span or it is
    all of M_n."""
    n = gens[0].rows
    rows: dict[int, dict[int, Fraction]] = {}
    words: list[Matrix] = []
    admitted: list[Matrix] = []

    def push(m: Matrix) -> None:
        row = _insert(rows, _vec(m))
        if row:
            words.append(Matrix(n, n, tuple(
                tuple(row.get(i * n + j, ZERO) for j in range(n))
                for i in range(n))))

    push(Matrix(n, n, tuple(tuple(ONE if i == j else ZERO for j in range(n))
                            for i in range(n))))
    for g in gens:
        old = len(words)
        push(g)
        if len(words) == old:
            continue
        admitted.append(g)
        for w in words[1:old]:
            push(_product(w, g))
        i = old
        while i < len(words) and len(rows) < n * n:  # words grows
            for h in admitted:
                push(_product(words[i], h))
            i += 1
    return rows, words


def algebra_rref(mats) -> dict[int, dict[int, Fraction]]:
    """The reduced row-echelon basis, {pivot: row}, of the unital algebra
    that a non-empty list of n x n matrices generates, each given by its
    `rows`, `cols` and `data`, rows of `Fraction`s."""
    return _generated(tuple(Matrix(m.rows, m.cols, tuple(map(tuple, m.data)))
                           for m in mats))[0]


@lru_cache(maxsize=64)
def _conjugated(gens: tuple[Matrix, ...], c: Matrix, inv: Matrix) -> dict:
    """The reduced row-echelon basis of C^{-1} <gens> C."""
    return _span(tuple(_conjugate(w, c, inv) for w in _generated(gens)[1]))


# -- reading the wire format -----------------------------------------------------

@lru_cache(maxsize=4096)
def _parsed(s: str) -> Fraction:
    try:
        value = Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise Malformed(f"entry {s!r} is not a rational") from None
    if str(value) != s:
        raise Malformed(f"entry {s!r} is not canonical")
    return value


def _typed(obj, key: str, kind: type):
    """obj[key], which must be of exactly the given type."""
    if not isinstance(obj, dict) or type(obj.get(key)) is not kind:
        raise Malformed(f"no {kind.__name__} {key!r}")
    return obj[key]


def _matrix(obj) -> Matrix:
    rows, cols = _typed(obj, "rows", int), _typed(obj, "cols", int)
    entries = _typed(obj, "entries", list)
    if len(entries) != rows or any(type(r) is not list or len(r) != cols
                                   for r in entries):
        raise Malformed("entries do not match the shape")
    if any(type(v) is not str for row in entries for v in row):
        raise Malformed("an entry is not a string")
    return Matrix(rows, cols, tuple(tuple(map(_parsed, row))
                                    for row in entries))


_REFERENCE = re.compile(r"out:(0|[1-9][0-9]*)|in:([^:]*)(?::(0|[1-9][0-9]*))?")


def _resolve(doc: dict, ref):
    """The JSON value a reference names."""
    if ref == "C":
        if doc.get("C") is None:
            raise Malformed("no transformation")
        return doc["C"]
    m = _REFERENCE.fullmatch(ref) if type(ref) is str else None
    if m is None:
        raise Malformed(f"no reference {ref!r}")
    if m[1] is not None:
        items, index = doc.get("outputs"), m[1]
    else:
        inputs = doc.get("inputs")
        if not isinstance(inputs, dict) or m[2] not in inputs:
            raise Malformed(f"no input for {ref!r}")
        if m[3] is None:
            return inputs[m[2]]
        items, index = inputs[m[2]], m[3]
        if isinstance(items, dict):
            items = items.get("basis")
    if type(items) is not list or int(index) >= len(items):
        raise Malformed(f"no item for {ref!r}")
    return items[int(index)]


def _field(p: dict, key: str):
    if key not in p:
        raise Malformed(f"no field {key!r}")
    return p[key]


def _matrix_at(doc: dict, p: dict, key: str) -> Matrix:
    return _matrix(_resolve(doc, _field(p, key)))


def _algebra_at(doc: dict, p: dict) -> tuple[int, tuple[Matrix, ...]]:
    obj = _resolve(doc, _field(p, "algebra"))
    n = _typed(obj, "n", int)
    if n < 0:
        raise Malformed("a negative size")
    return n, tuple(_square(_matrix(b), n) for b in _typed(obj, "basis", list))


def _transform(doc: dict, n: int) -> tuple[Matrix, Matrix]:
    """(C, C^{-1}) for an n x n nonsingular C, from the reduced
    row-echelon form of [C | I]."""
    c = _square(_matrix(_resolve(doc, "C")), n)
    rref = gauss_jordan([list(row) + [int(i == j) for j in range(n)]
                         for i, row in enumerate(c.data)], 2 * n)
    if any(not row[i] for i, row in enumerate(rref)):
        raise Malformed("a singular transformation")
    return c, Matrix(n, n, tuple(row[n:] for row in rref))


def _gens(doc: dict, p: dict, key: str) -> tuple[Matrix, ...]:
    """The matrices a list of references names: at least one, and square
    of one size."""
    refs = _field(p, key)
    if type(refs) is not list or not refs:
        raise Malformed(f"{key!r} is not a non-empty list")
    mats = [_matrix(_resolve(doc, r)) for r in refs]
    return tuple(_square(m, _square(mats[0]).rows) for m in mats)


# -- the fifteen kinds -----------------------------------------------------------

def _nonneg(doc, p):
    return all(v >= 0 for row in _matrix_at(doc, p, "target").data
               for v in row)


def _positive(doc, p):
    m = _matrix_at(doc, p, "target")
    return m.rows * m.cols > 0 and all(v > 0 for row in m.data for v in row)


def _conjugate_of(doc, p):
    """target = C^{-1} source C."""
    target, source = (_matrix_at(doc, p, k) for k in ("target", "source"))
    c, inv = _transform(doc, _square(source).rows)
    return _square(target, c.rows) == _conjugate(source, c, inv)


def _in_algebra(doc, p, conjugated=False):
    """target lies in span(basis), or in C^{-1} span(basis) C, that is,
    C target C^{-1} lies in span(basis)."""
    n, basis = _algebra_at(doc, p)
    x = _square(_matrix_at(doc, p, "target"), n)
    if conjugated:
        c, inv = _transform(doc, n)
        x = _conjugate(x, inv, c)
    return not _reduce(_span(basis), _vec(x))


def _covers(doc, p, conjugated=False):
    """The support of target is the union of the supports of the basis
    matrices, or of their conjugates C^{-1} b C."""
    n, basis = _algebra_at(doc, p)
    x = _square(_matrix_at(doc, p, "target"), n)
    if conjugated:
        c, inv = _transform(doc, n)
        basis = [_conjugate(b, c, inv) for b in basis]
    return _support(x) == set().union(*map(_support, basis))


def _semi_commuting(doc, p):
    """AB - BA >= 0 entrywise ("nonneg") or <= 0 ("nonpos")."""
    a, b = (_matrix_at(doc, p, k) for k in ("a", "b"))
    ab, ba = _product(_square(a), _square(b, a.rows)), _product(b, a)
    entries = [x - y for ra, rb in zip(ab.data, ba.data)
               for x, y in zip(ra, rb)]
    sign = _field(p, "sign")
    if sign not in ("nonneg", "nonpos"):
        raise Malformed(f"no sign {sign!r}")
    return all(v >= 0 if sign == "nonneg" else v <= 0 for v in entries)


def _central(doc, p):
    """Z lies in the span and commutes with every basis matrix."""
    n, basis = _algebra_at(doc, p)
    z = _square(_matrix_at(doc, p, "target"), n)
    return not _reduce(_span(basis), _vec(z)) and all(
        _product(z, b) == _product(b, z) for b in basis)


def _dimension(doc, p):
    value = _field(p, "value")
    return type(value) is int and len(
        _generated(_gens(doc, p, "gens"))[0]) == value


def _generate_equal(doc, p, conjugated=False):
    """<X> = <Y>, or <X> = C^{-1} <Y> C, which has the dimension of <Y>."""
    xs = _gens(doc, p, "gens" if conjugated else "gens_a")
    ys = _gens(doc, p, "source_gens" if conjugated else "gens_b")
    n = _square(ys[0], xs[0].rows).rows
    transform = _transform(doc, n) if conjugated else None
    rows, other = _generated(xs)[0], _generated(ys)[0]
    if conjugated and len(rows) == len(other):
        other = _conjugated(ys, *transform)
    return rows == other


def _spans_pattern(doc, p):
    """<gens> = span{E_ij : (i, j) in the pattern}."""
    obj = _resolve(doc, _field(p, "pattern"))
    n = _typed(obj, "n", int)
    units = set()
    for pos in _typed(obj, "positions", list):
        if not (type(pos) is list and len(pos) == 2
                and all(type(k) is int and 1 <= k <= n for k in pos)):
            raise Malformed(f"no position {pos!r}")
        units.add((pos[0] - 1) * n + pos[1] - 1)
    gens = _gens(doc, p, "gens")
    return gens[0].rows == n and _generated(gens)[0] == {
        u: {u: ONE} for u in units}


def _is_centralizer(doc, p):
    """The basis is a basis of {X : X M = M X}: independent, each member
    commutes with M, and there are as many members as the dimension of
    the kernel of X -> X M - M X."""
    n, basis = _algebra_at(doc, p)
    m = _square(_matrix_at(doc, p, "of"), n)
    # the coefficient of X[k][l] in entry (i, j) of X M - M X
    equations = [[(m.data[l][j] if k == i else 0)
                  - (m.data[i][k] if l == j else 0)
                  for k in range(n) for l in range(n)]
                 for i in range(n) for j in range(n)]
    kernel = n * n - len(gauss_jordan(equations, n * n))
    return len(_span(basis)) == len(basis) == kernel and all(
        _product(b, m) == _product(m, b) for b in basis)


def _has_simple_real_eigenvalue(doc, p):
    """Some real root of the characteristic polynomial is simple: it lies
    on a factor of multiplicity one of its squarefree factorization."""
    m = _square(_matrix_at(doc, p, "target"))
    x = sympy.Symbol("x")
    poly = sympy.Matrix(m.rows, m.cols, [
        sympy.Rational(v.numerator, v.denominator)
        for row in m.data for v in row]).charpoly(x)
    return any(k == 1 and factor.count_roots() > 0
               for factor, k in poly.sqf_list()[1])


CHECKS = {
    "nonneg": _nonneg,
    "positive": _positive,
    "conjugate_of": _conjugate_of,
    "in_algebra": _in_algebra,
    "in_algebra_conjugated": lambda d, p: _in_algebra(d, p, True),
    "covers": _covers,
    "covers_conjugated": lambda d, p: _covers(d, p, True),
    "semi_commuting": _semi_commuting,
    "central": _central,
    "dimension": _dimension,
    "generate_equal": _generate_equal,
    "generate_equal_conjugated": lambda d, p: _generate_equal(d, p, True),
    "spans_pattern": _spans_pattern,
    "is_centralizer": _is_centralizer,
    "has_simple_real_eigenvalue": _has_simple_real_eigenvalue,
}


def holds(doc: dict, p) -> bool:
    """Whether the property p of the document holds."""
    kind = p.get("kind") if isinstance(p, dict) else None
    if type(kind) is not str or kind not in CHECKS:
        return False
    try:
        return CHECKS[kind](doc, p)
    except Malformed:
        return False


def verdicts(doc) -> list[bool] | None:
    """Each property's verdict, or None with no properties list."""
    props = doc.get("properties") if isinstance(doc, dict) else None
    return [holds(doc, p) for p in props] if type(props) is list else None


def verifies(doc) -> bool:
    """Whether the document asserts some properties, and each holds."""
    found = verdicts(doc)
    return bool(found) and all(found)
