"""Exact phase-1 simplex for linear feasibility, on an integer tableau.

Solves ``A x >= b`` with free variables x over Q, by minimizing the sum of
artificial variables on the standard-form relaxation.  Bland's rule is used
throughout, so the method cannot cycle and is fully deterministic.

The tableau is fraction-free (Edmonds 1967; Bareiss 1968).  Each
constraint row is multiplied once by the lcm ``c_i`` of its denominators,
while its surplus and artificial columns stay unit columns, so the starting
basis B is the identity.  With ``T0`` that integer tableau, the loop keeps
the invariant ``T = adj(B) T0`` and ``D = det(B) > 0``: the rational
tableau ``B^-1 T0`` is ``T / D``; the objective row holds D times the
reduced costs, also integers since the costs are.  A pivot on
``p = T[r][e]`` keeps row r, replaces every other row and the objective
row by ``(p * row - row[e] * T[r]) // D``, a division that is always
exact, and sets ``D = p``.  No Fraction is built until x is read out as
``T[i][rhs] / D``.

The pivots are those of the rational tableau with unscaled rows.  Row i
here is that tableau's row i times c_i, with its surplus and artificial
variables replaced by c_i times themselves.  Scaling a constraint leaves
the rational tableau unchanged, and scaling a variable by a positive
constant scales its column, and its row while it is basic, by a positive
constant.  The objective, the sum of the unscaled artificials, is kept
times ``L``, the lcm of the c_i, so its cost on the artificial of row i
is the integer ``L / c_i``.  So every reduced cost keeps its sign, every
ratio test compares the same ratios, compared here by integer
cross-multiplication, and Bland's choices, ties broken by the lowest basis
index, are the same.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence


def _pivoted(line: list[int], pivot_row: list[int], e: int, p: int,
             den: int) -> list[int]:
    """line after the pivot on pivot_row[e] = p, with den the old D."""
    f = line[e]
    return [(p * v - f * w) // den for v, w in zip(line, pivot_row)]


def feasible_ge(a_rows: Sequence[Sequence[Fraction]],
                b: Sequence[Fraction]) -> list[Fraction] | None:
    """A point x with A x >= b (x free), or None when the system is infeasible.

    Entries may be int or Fraction.  Raises ValueError when the rows differ
    in length or b does not have one entry per row.
    """
    m = len(a_rows)
    if len(b) != m:
        raise ValueError(f"{len(b)} right-hand sides for {m} rows")
    if m == 0:
        return []
    d = len(a_rows[0])
    if any(len(row) != d for row in a_rows):
        raise ValueError("rows of unequal length")

    # Columns u (d), v (d), w (m), s (m), then the right-hand side.  Row i
    # is c_i (A_i u - A_i v) -+ w_i + s_i = c_i |b_i|: flipped so that the
    # right-hand side is nonnegative, surplus w_i for kept rows (>=) and
    # slack for flipped rows (<=), artificial s_i in the starting basis.
    ncols = 2 * d + 2 * m
    tableau: list[list[int]] = []
    scales: list[int] = []
    for i, (row, bv) in enumerate(zip(a_rows, b)):
        c = lcm(bv.denominator, *[v.denominator for v in row])
        sign = -1 if bv < 0 else 1
        k = sign * c
        u = [v.numerator * (k // v.denominator) for v in row]
        line = u + [-v for v in u] + [0] * (2 * m)
        line[2 * d + i] = -sign
        line[2 * d + m + i] = 1
        line.append(bv.numerator * (k // bv.denominator))
        tableau.append(line)
        scales.append(c)
    basis = list(range(2 * d + m, ncols))

    # Objective: minimize the sum of the unscaled artificials s_i / c_i,
    # times the lcm of the c_i, so that every cost is an integer.  Its
    # reduced-cost row for the starting basis is minus the cost-weighted
    # sum of the constraint rows, zero on the artificial columns.
    common = lcm(*scales)
    obj = [0] * (ncols + 1)
    for c, line in zip(scales, tableau):
        f = common // c
        obj = [o - f * v for o, v in zip(obj, line)]
    obj[2 * d + m:ncols] = [0] * m

    den = 1
    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i, line in enumerate(tableau):
            coef = line[enter]
            if coef <= 0:
                continue
            if leave is not None:
                best = tableau[leave]
                cross = line[ncols] * best[enter] - best[ncols] * coef
                if cross > 0 or (cross == 0 and basis[i] > basis[leave]):
                    continue
            leave = i
        if leave is None:
            raise ArithmeticError("phase-1 objective unbounded")  # impossible
        pivot_row = tableau[leave]
        p = pivot_row[enter]
        for i, line in enumerate(tableau):
            if i != leave:
                tableau[i] = _pivoted(line, pivot_row, enter, p, den)
        obj = _pivoted(obj, pivot_row, enter, p, den)
        den = p
        basis[leave] = enter

    if obj[ncols]:
        return None

    x = [0] * d
    for line, var in zip(tableau, basis):
        if var < d:
            x[var] += line[ncols]
        elif var < 2 * d:
            x[var - d] -= line[ncols]
    return [Fraction(v, den) for v in x]
