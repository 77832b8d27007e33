"""Exact linear algebra over Q: echelon spans, solving, inverses, kernels.

Vectors are sequences of Fraction, matrices are lists of row lists.
No tolerances anywhere; pivoting always picks the first nonzero entry so
results are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

Vec = Sequence[Fraction]


def _sparse(vec: Vec) -> dict[int, Fraction]:
    return {i: c for i, c in enumerate(vec) if c}


class EchelonSpan:
    """A subspace of Q^length kept as a reduced row-echelon basis.

    Rows are stored sparsely and fully reduced against each other, so the
    row list is a canonical basis: two spans are equal iff their canonical
    rows coincide.
    """

    def __init__(self, length: int):
        self.length = length
        self._rows: dict[int, dict[int, Fraction]] = {}

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _residual(self, vec: Vec | dict[int, Fraction]) -> dict[int, Fraction]:
        out = dict(vec) if isinstance(vec, dict) else _sparse(vec)
        for p in sorted(self._rows):
            c = out.get(p)
            if c:
                for j, a in self._rows[p].items():
                    nv = out.get(j, ZERO) - c * a
                    if nv:
                        out[j] = nv
                    else:
                        out.pop(j, None)
        return out

    def contains(self, vec: Vec | dict[int, Fraction]) -> bool:
        return not self._residual(vec)

    def add(self, vec: Vec | dict[int, Fraction]) -> bool:
        """Insert a vector; returns True when it enlarged the span."""
        res = self._residual(vec)
        if not res:
            return False
        p = min(res)
        inv = ONE / res[p]
        row = {j: a * inv for j, a in res.items()}
        for other in self._rows.values():
            b = other.get(p)
            if b:
                for j, a in row.items():
                    nv = other.get(j, ZERO) - b * a
                    if nv:
                        other[j] = nv
                    else:
                        other.pop(j, None)
        self._rows[p] = row
        return True

    def add_all(self, vecs: Iterable[Vec]) -> None:
        for v in vecs:
            self.add(v)

    def canonical_rows(self) -> list[tuple[Fraction, ...]]:
        out = []
        for p in sorted(self._rows):
            row = self._rows[p]
            out.append(tuple(row.get(j, ZERO) for j in range(self.length)))
        return out

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
            ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan elimination with first-nonzero pivoting on the first
    ncols columns (further columns ride along, as in an augmented matrix).

    Returns the reduced rows, pivot rows first, and the pivot columns.
    """
    a = [list(r) for r in rows]
    m = len(a)
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = ONE / a[r][c]
        a[r] = [v * inv for v in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def solve(a_rows: Sequence[Vec], b: Vec) -> list[Fraction] | None:
    """One exact solution of A x = b, or None when inconsistent."""
    n = len(a_rows[0]) if a_rows else 0
    aug, pivots = _reduce([list(row) + [bv] for row, bv in zip(a_rows, b)], n)
    if any(row[n] for row in aug[len(pivots):]):
        return None
    x = [ZERO] * n
    for row, col in zip(aug, pivots):
        x[col] = row[n]
    return x


def invert(rows: Sequence[Vec]) -> list[list[Fraction]]:
    """Exact inverse: [A | I] reduces to [I | A^-1]."""
    n = len(rows)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)]
           for i, row in enumerate(rows)]
    aug, pivots = _reduce(aug, n)
    if len(pivots) < n:
        raise ValueError("singular matrix")
    return [row[n:] for row in aug]


def nullspace(rows: Sequence[Vec], ncols: int) -> list[tuple[Fraction, ...]]:
    """Canonical basis of {x : A x = 0}, one vector per free column."""
    a, pivots = _reduce(rows, ncols)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [ZERO] * ncols
        v[fc] = ONE
        for row, pc in zip(a, pivots):
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
