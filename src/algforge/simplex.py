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

Half of the standard-form tableau is a mirror of the other half, so only
``[u | s | rhs]`` is stored: d + m + 1 columns of the 2d + 2m + 1.  In
``T0`` the column of v_j is minus that of u_j and the column of w_i is
``-sign_i`` times that of s_i (sign_i = -1 on a flipped row), so by
``T = adj(B) T0`` in every row at every pivot

- ``T[v_j] = -T[u_j]`` and ``obj[v_j] = -obj[u_j]``;
- ``T[w_i] = -sign_i T[s_i]``;
- ``obj[w_i] = sign_i (L / c_i * D - obj[s_i])``: it holds for the
  starting basis, and a pivot on p multiplies ``obj[w_i] + sign_i
  obj[s_i]`` by p / D, as it multiplies D.

Bland's rule and the ratio test read a v or w entry through these
identities, and the basis keeps the full column labels u, v, w, s, so
every choice and tie-break is that of the full tableau.  The s block is
``adj(B)`` itself, and the objective row over it is ``obj[s_i] = L / c_i
* D - (c_B adj(B))_i``: the phase-1 duals of the scaled rows are
``y_i = L / c_i - obj[s_i] / D``.  When the system is infeasible,
``z_i = sign_i c_i y_i`` is a Farkas vector: z >= 0, z A = 0, z b > 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence


def _pivoted(line: list[int], pivot_row: list[int], f: int, p: int,
             den: int) -> list[int]:
    """line after a pivot on p, with f = line's entry in the entering
    column and den the old D."""
    return [(p * v - f * w) // den for v, w in zip(line, pivot_row)]


def _entering(obj: list[int], d: int, signs: list[int], costs: list[int],
              den: int) -> tuple[int, int, int, int] | None:
    """Bland's entering column, the lowest label with a negative reduced
    cost, as (label, stored column k, factor, objective entry): its
    tableau entries are factor times column k.  None at the optimum."""
    m = len(signs)
    for j in range(d):                      # u_j
        if obj[j] < 0:
            return j, j, 1, obj[j]
    for j in range(d):                      # v_j = -u_j
        if obj[j] > 0:
            return d + j, j, -1, -obj[j]
    for i in range(m):                      # w_i = -sign_i s_i
        reduced = signs[i] * (costs[i] * den - obj[d + i])
        if reduced < 0:
            return 2 * d + i, d + i, -signs[i], reduced
    for i in range(m):                      # s_i
        if obj[d + i] < 0:
            return 2 * d + m + i, d + i, 1, obj[d + i]
    return None


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

    # Row i is c_i (A_i u - A_i v) -+ w_i + s_i = c_i |b_i|: flipped so that
    # the right-hand side is nonnegative, surplus w_i for kept rows (>=)
    # and slack for flipped rows (<=), artificial s_i in the starting
    # basis.  Only [u | s | rhs] is stored; v = -u and w_i = -sign_i s_i.
    rhs = d + m
    tableau: list[list[int]] = []
    scales: list[int] = []
    signs: list[int] = []
    for i, (row, bv) in enumerate(zip(a_rows, b)):
        c = lcm(bv.denominator, *[v.denominator for v in row])
        sign = -1 if bv < 0 else 1
        k = sign * c
        line = [v.numerator * (k // v.denominator) for v in row]
        line += [0] * m
        line[d + i] = 1
        line.append(bv.numerator * (k // bv.denominator))
        tableau.append(line)
        scales.append(c)
        signs.append(sign)
    # Basis labels keep the full numbering u, v, w, s (2d + 2m columns),
    # so Bland's rule breaks ties exactly as on the full tableau.
    basis = list(range(2 * d + m, 2 * d + 2 * m))

    # Objective: minimize the sum of the unscaled artificials s_i / c_i,
    # times the lcm of the c_i, so that every cost is an integer.  Its
    # reduced-cost row for the starting basis is minus the cost-weighted
    # sum of the constraint rows, zero on the artificial columns.
    common = lcm(*scales)
    costs = [common // c for c in scales]
    obj = [0] * (rhs + 1)
    for f, line in zip(costs, tableau):
        obj = [o - f * v for o, v in zip(obj, line)]
    obj[d:rhs] = [0] * m

    den = 1
    while True:
        found = _entering(obj, d, signs, costs, den)
        if found is None:
            break
        enter, k, factor, f_obj = found
        col = [factor * line[k] for line in tableau]
        leave = None
        for i, (coef, line) in enumerate(zip(col, tableau)):
            if coef <= 0:
                continue
            if leave is not None:
                cross = line[rhs] * col[leave] - tableau[leave][rhs] * coef
                if cross > 0 or (cross == 0 and basis[i] > basis[leave]):
                    continue
            leave = i
        if leave is None:
            raise ArithmeticError("phase-1 objective unbounded")  # impossible
        pivot_row = tableau[leave]
        p = col[leave]
        for i, line in enumerate(tableau):
            if i != leave:
                tableau[i] = _pivoted(line, pivot_row, col[i], p, den)
        obj = _pivoted(obj, pivot_row, f_obj, p, den)
        den = p
        basis[leave] = enter

    if obj[rhs]:
        return None

    x = [0] * d
    for line, var in zip(tableau, basis):
        if var < d:
            x[var] += line[rhs]
        elif var < 2 * d:
            x[var - d] -= line[rhs]
    return [Fraction(v, den) for v in x]
