"""Exact linear algebra over Q on integer rows: echelon spans, solving,
inverses, kernels.

Every function takes integer rows and returns integers (a solution or an
inverse over one denominator); a rational matrix is passed as its integer
numerators (a `Mat`'s `num`), which have the same span, rank and kernel.
The elimination is the verifier's: `EchelonSpan` is a `verify._Span`
that knows its length, `_echelon` fills a `_Span`, `invert` is
`verify._inverse`, and `nullspace` is `verify._annihilator` of the
echelon rows.  So engine and verifier keep every echelon row the same
way, as a sparse dict of primitive integers (content divided out,
positive pivot) fully reduced against the other rows, which is canonical
for a given span.  No tolerances anywhere; pivots are the first nonzero
column, so results are deterministic.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Sequence

from .verify import _annihilator, _inverse, _Span

Rows = dict[int, dict[int, int]]


def _echelon(rows: Iterable[Sequence[int]]) -> Rows:
    """The reduced echelon rows of the span of integer rows."""
    span = _Span()
    for row in rows:
        span.add(row)
    return span.rows


class EchelonSpan(_Span):
    """A subspace of Q^length kept as a reduced row-echelon basis.

    Rows are primitive integer rows fully reduced against each other, so
    they are a canonical basis: two spans are equal iff their rows coincide.
    """

    # Bound on this class too, so a tracer can wrap them here without
    # touching `_Span`.
    add = _Span.add
    contains = _Span.contains

    def __init__(self, length: int):
        super().__init__()
        self.length = length

    def primitive_rows(self) -> list[tuple[int, dict[int, int]]]:
        """(pivot, row) in pivot order: each row a sparse primitive integer
        row with a positive pivot, which divided by its pivot is canonical."""
        return [(p, self.rows[p]) for p in sorted(self.rows)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EchelonSpan):
            return NotImplemented
        return self.length == other.length and self.rows == other.rows


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


def invert(rows: Sequence[Sequence[int]]
           ) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, M) with M / d the inverse of a square integer matrix N: the
    verifier's `_inverse`, one integer Gauss-Jordan run on [N | I].
    Raises `verify.CertificateError`, a ValueError, when N is singular."""
    return _inverse((1, rows))


def nullspace(rows: Sequence[Sequence[int]],
              ncols: int) -> list[list[int]]:
    """One integer vector per free column of A, a positive multiple of the
    canonical basis vector of {x : A x = 0} that holds 1 there and 0 at
    the other free columns: the verifier's `_annihilator` of A's echelon
    rows.  Its last nonzero entry is at its free column."""
    return _annihilator(_echelon(rows), ncols)
