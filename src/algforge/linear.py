"""Exact linear algebra over Q: echelon spans, solving, inverses, kernels.

Vectors come in as sequences of Fraction (or int), matrices as lists of row
lists, and results go out as Fraction.  Inside, elimination runs on
integers: a vector is multiplied once by the lcm of its denominators, and
every echelon row is kept as a sparse dict of primitive integers (content
divided out, positive pivot) that is fully reduced against the other rows.
Eliminating a row from another is an integer cross-multiplication followed
by division by the gcd, so no Fraction is built until a row is read out,
divided by its pivot.  Such rows are unique for a given span, so they are
canonical.  `invert_num` and `first_dependency_num` take integer input and
return integers; `invert` and `first_dependency` are Fraction views over
them, not second eliminations.  No tolerances anywhere; pivots are the
first nonzero column, so results are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

Vec = Sequence[Fraction]
Rows = dict[int, dict[int, int]]


def _cleared(vec: Vec) -> dict[int, int]:
    """The nonzero entries of vec times the lcm of their denominators."""
    entries = [(i, c) for i, c in enumerate(vec) if c]
    # Star-unpack lists, not generators: a generator's tuple is resized
    # to its length, which leaves tuples piling up in the interpreter's
    # per-length free lists (several MiB of peak memory).
    den = lcm(*[c.denominator for _, c in entries])
    return {i: c.numerator * (den // c.denominator) for i, c in entries}


def _residual(rows: Rows, vec: dict[int, int]) -> dict[int, int]:
    """A nonzero multiple of vec minus its projection onto the rows' span
    along the pivots: zero in every pivot column, empty iff vec is in the
    span.  The rows are fully reduced, so the coefficient of each row is
    vec's own entry in its pivot column."""
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


def _primitive(vec: dict[int, int]) -> dict[int, int]:
    """vec divided by its content, signed so the first entry is positive."""
    g = gcd(*vec.values())
    if vec[min(vec)] < 0:
        g = -g
    return {j: v // g for j, v in vec.items()}


def _insert(rows: Rows, vec: dict[int, int]) -> bool:
    """One Gauss-Jordan step: add vec to the echelon rows unless it lies in
    their span; returns True when it enlarged the span."""
    res = _residual(rows, vec)
    if not res:
        return False
    row = _primitive(res)
    p = min(row)
    pivot = {p: row}
    for q, other in rows.items():
        if p in other:
            rows[q] = _primitive(_residual(pivot, other))
    rows[p] = row
    return True


def _dense(row: dict[int, int], length: int) -> list[Fraction]:
    """An echelon row divided by its pivot, as a dense Fraction list."""
    a = row[min(row)]
    return [Fraction(row[j], a) if j in row else ZERO for j in range(length)]


class EchelonSpan:
    """A subspace of Q^length kept as a reduced row-echelon basis.

    Rows are primitive integer rows fully reduced against each other, so
    they are a canonical basis: two spans are equal iff their rows coincide.
    """

    def __init__(self, length: int):
        self.length = length
        self._rows: Rows = {}

    @property
    def dim(self) -> int:
        return len(self._rows)

    def contains(self, vec: Vec) -> bool:
        return not _residual(self._rows, _cleared(vec))

    def add(self, vec: Vec) -> bool:
        """Insert a vector; returns True when it enlarged the span."""
        return _insert(self._rows, _cleared(vec))

    def add_all(self, vecs: Iterable[Vec]) -> None:
        for v in vecs:
            self.add(v)

    def primitive_rows(self) -> list[tuple[int, dict[int, int]]]:
        """(pivot, row) in pivot order: each row a sparse primitive integer
        row with a positive pivot, which divided by its pivot is canonical."""
        return [(p, self._rows[p]) for p in sorted(self._rows)]

    def canonical_rows(self) -> list[tuple[Fraction, ...]]:
        return [tuple(_dense(row, self.length))
                for _, row in self.primitive_rows()]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EchelonSpan):
            return NotImplemented
        return self.length == other.length and self._rows == other._rows


def span_rows(vectors: Iterable[Vec], length: int) -> list[tuple[Fraction, ...]]:
    """Canonical reduced-echelon basis of the span of the given vectors."""
    sp = EchelonSpan(length)
    sp.add_all(vectors)
    return sp.canonical_rows()


def rank(rows: Sequence[Vec], length: int | None = None) -> int:
    if length is None:
        length = len(rows[0]) if rows else 0
    sp = EchelonSpan(length)
    sp.add_all(rows)
    return sp.dim


def _reduce(rows: Sequence[Vec],
            length: int) -> list[tuple[int, list[Fraction]]]:
    """Gauss-Jordan elimination of rows of the given length, by the same
    integer step as `EchelonSpan`: the nonzero rows of the reduced
    row-echelon form, in pivot order, as (pivot column, row) pairs."""
    echelon: Rows = {}
    for r in rows:
        _insert(echelon, _cleared(r))
    return [(p, _dense(echelon[p], length)) for p in sorted(echelon)]


def first_dependency(vectors: Iterable[Vec]) -> list[Fraction] | None:
    """Coefficients c_0, ..., c_k = 1 of the first linear dependency
    c_0 v_0 + ... + c_k v_k = 0 among the vectors, read lazily, or None
    when they are independent."""
    coeffs = first_dependency_num(vectors)
    if coeffs is None:
        return None
    return [Fraction(c, coeffs[-1]) for c in coeffs]


def first_dependency_num(vectors: Iterable[Vec]) -> list[int] | None:
    """The first linear dependency as integers c_0, ..., c_k with c_k != 0,
    or None; `first_dependency` divides it by c_k.

    One elimination: vector k carries a marker in column len(v_k) + k, so
    the markers of a row record which combination of the vectors it is,
    and when v_k reduces to zero its markers are the dependency."""
    rows: Rows = {}
    for k, vec in enumerate(vectors):
        n = len(vec)
        row = _cleared(list(vec) + [ONE])
        row[n + k] = row.pop(n)
        res = _residual(rows, row)
        if min(res) >= n:
            return [res.get(n + j, 0) for j in range(k + 1)]
        _insert(rows, res)
    return None


def solve(a_rows: Sequence[Vec], b: Vec) -> list[Fraction] | None:
    """One exact solution of A x = b, or None when inconsistent."""
    n = len(a_rows[0]) if a_rows else 0
    x = [ZERO] * n
    for p, row in _reduce([list(r) + [bv] for r, bv in zip(a_rows, b)], n + 1):
        if p == n:
            return None
        x[p] = row[n]
    return x


def invert(rows: Sequence[Vec]) -> list[list[Fraction]]:
    """Exact inverse, read off `invert_num` of the rows scaled to
    integers: A = N / den has the inverse den N^-1."""
    den = lcm(*[v.denominator for row in rows for v in row])
    d, inv = invert_num([[v.numerator * (den // v.denominator) for v in row]
                         for row in rows])
    return [[Fraction(den * v, d) for v in row] for row in inv]


def invert_num(rows: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """(d, M) with M / d the inverse of a square integer matrix.

    One integer Gauss-Jordan run: [N | I] reduces to primitive rows
    [p_i e_i | w_i], so row i of N^-1 is w_i / p_i, and d is the lcm of
    the pivots p_i.  Raises ValueError when N is singular."""
    n = len(rows)
    echelon: Rows = {}
    for i, row in enumerate(rows):
        vec = {j: v for j, v in enumerate(row) if v}
        vec[n + i] = 1
        _insert(echelon, vec)
    if sorted(echelon) != list(range(n)):
        raise ValueError("singular matrix")
    d = lcm(*[echelon[i][i] for i in range(n)])
    return d, [[echelon[i].get(n + j, 0) * (d // echelon[i][i])
                for j in range(n)] for i in range(n)]


def nullspace(rows: Sequence[Vec], ncols: int) -> list[tuple[Fraction, ...]]:
    """Canonical basis of {x : A x = 0}, one vector per free column."""
    reduced = _reduce(rows, ncols)
    pivots = {p for p, _ in reduced}
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [ZERO] * ncols
        v[fc] = ONE
        for pc, row in reduced:
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis


def intersect_spans(rows_a: Sequence[Vec], rows_b: Sequence[Vec],
                    n: int) -> list[tuple[Fraction, ...]]:
    """Canonical basis of span(rows_a) intersected with span(rows_b)."""
    if not rows_a or not rows_b:
        return []
    p, q = len(rows_a), len(rows_b)
    cols = [list(v) for v in rows_a] + [[-c for c in v] for v in rows_b]
    stacked = [[cols[k][i] for k in range(p + q)] for i in range(n)]
    sol = nullspace(stacked, p + q)
    sp = EchelonSpan(n)
    for coeffs in sol:
        vec = [ZERO] * n
        for k in range(p):
            if coeffs[k]:
                for i in range(n):
                    vec[i] += coeffs[k] * rows_a[k][i]
        sp.add(vec)
    return sp.canonical_rows()


def complete_basis(rows: Sequence[Vec], n: int) -> list[tuple[Fraction, ...]]:
    """Extend independent vectors to a basis of Q^n using standard vectors."""
    sp = EchelonSpan(n)
    for v in rows:
        if not sp.add(v):
            raise ValueError("vectors are not independent")
    added = []
    for i in range(n):
        e = [ZERO] * n
        e[i] = ONE
        if sp.add(e):
            added.append(tuple(e))
    return [tuple(v) for v in rows] + added
