"""Exact linear algebra over Q on integer rows: echelon spans, solving,
inverses, kernels.

Every function takes integer rows and returns integers over one
denominator; a rational matrix is passed as its integer numerators (a
`Mat`'s `num`), which have the same span, rank and kernel.  Every echelon
row is kept as a sparse dict of primitive integers (content divided out,
positive pivot) that is fully reduced against the other rows.  A new row
with pivot p is eliminated from each row that holds column p as
c other - a row, (c, a) = (row[p], other[p]) over their gcd, then divided
by its content.  Such rows are unique for a given span, so canonical.  No
tolerances anywhere; pivots are the first nonzero column, so results are
deterministic.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterable, Sequence

Rows = dict[int, dict[int, int]]


def _residual(rows: Rows, vec: dict[int, int]) -> dict[int, int]:
    """A nonzero multiple of vec minus its projection onto the rows' span
    along the pivots: zero in every pivot column, empty iff vec is in the
    span.  The rows are fully reduced, so the coefficient of each row is
    vec's own entry in its pivot column, and the pivot columns cancel."""
    hits = [p for p in vec if p in rows]
    if not hits:
        return vec
    scale = lcm(*[rows[p][p] for p in hits])
    out = {j: scale * v for j, v in vec.items() if j not in rows}
    for p in hits:
        row = rows[p]
        f = vec[p] * (scale // row[p])
        for j, a in row.items():
            if j != p:
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
    their span; returns True when it enlarged the span.  Column p cancels in
    each back-reduced row, whose pivot q < p keeps the sign of c > 0."""
    res = _residual(rows, vec)
    if not res:
        return False
    row = _primitive(res)
    p = min(row)
    rp = row[p]
    for q, other in rows.items():
        op = other.get(p)
        if op:
            g = gcd(rp, op)
            c, a = rp // g, op // g
            out = {j: c * v for j, v in other.items() if j != p}
            for j, v in row.items():
                if j != p:
                    nv = out.get(j, 0) - a * v
                    if nv:
                        out[j] = nv
                    else:
                        del out[j]
            g = gcd(*out.values())
            rows[q] = {j: v // g for j, v in out.items()} if g > 1 else out
    rows[p] = row
    return True


def _sparse(vec: Sequence[int]) -> dict[int, int]:
    return {i: v for i, v in enumerate(vec) if v}


def _echelon(rows: Iterable[Sequence[int]]) -> Rows:
    """The reduced echelon rows of the span of integer rows."""
    echelon: Rows = {}
    for row in rows:
        _insert(echelon, _sparse(row))
    return echelon


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

    def contains(self, vec: Sequence[int]) -> bool:
        return not _residual(self._rows, _sparse(vec))

    def add(self, vec: Sequence[int]) -> bool:
        """Insert an integer vector; returns True when it enlarged the
        span."""
        return _insert(self._rows, _sparse(vec))

    def primitive_rows(self) -> list[tuple[int, dict[int, int]]]:
        """(pivot, row) in pivot order: each row a sparse primitive integer
        row with a positive pivot, which divided by its pivot is canonical."""
        return [(p, self._rows[p]) for p in sorted(self._rows)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EchelonSpan):
            return NotImplemented
        return self.length == other.length and self._rows == other._rows


def rank(rows: Sequence[Sequence[int]]) -> int:
    return len(_echelon(rows))


def solve(a_rows: Sequence[Sequence[int]],
          b: Sequence[int]) -> tuple[int, list[int]] | None:
    """(d, x) with A (x / d) = b, one exact solution, or None when the
    system is inconsistent."""
    n = len(a_rows[0]) if a_rows else 0
    echelon = _echelon([*r, bv] for r, bv in zip(a_rows, b))
    if n in echelon:
        return None
    d = lcm(*[row[p] for p, row in echelon.items()])
    return d, [echelon[p].get(n, 0) * (d // echelon[p][p])
               if p in echelon else 0 for p in range(n)]


def invert(rows: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """(d, M) with M / d the inverse of a square integer matrix.

    One integer Gauss-Jordan run: [N | I] reduces to primitive rows
    [p_i e_i | w_i], so row i of N^-1 is w_i / p_i, and d is the lcm of
    the pivots p_i.  Raises ValueError when N is singular."""
    n = len(rows)
    echelon: Rows = {}
    for i, row in enumerate(rows):
        vec = _sparse(row)
        vec[n + i] = 1
        _insert(echelon, vec)
    if sorted(echelon) != list(range(n)):
        raise ValueError("singular matrix")
    d = lcm(*[echelon[i][i] for i in range(n)])
    return d, [[echelon[i].get(n + j, 0) * (d // echelon[i][i])
                for j in range(n)] for i in range(n)]


def nullspace(rows: Sequence[Sequence[int]],
              ncols: int) -> tuple[int, list[list[int]]]:
    """(d, K): the rows of K over d are the canonical basis of
    {x : A x = 0}, one vector per free column, which holds 1 there and 0
    at the other free columns."""
    echelon = _echelon(rows)
    d = lcm(*[row[p] for p, row in echelon.items()])
    basis = []
    for fc in range(ncols):
        if fc in echelon:
            continue
        v = [0] * ncols
        v[fc] = d
        for pc, row in echelon.items():
            v[pc] = -row.get(fc, 0) * (d // row[pc])
        basis.append(v)
    return d, basis
