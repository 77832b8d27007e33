"""Exact phase-1 simplex for linear feasibility, on integer tableaux.

Decides ``A x >= b`` with free variables x over Q.  By Farkas' lemma
exactly one of it and its dual ``z >= 0, z A = 0, z b > 0`` has a solution
(both would give ``0 = z A x >= z b > 0``).  `feasible_ge` runs phase 1 on
the dual first, d + 1 rows against the primal's m: when the dual has a
solution, its z is checked exactly and None is returned.  Only otherwise
does the primal run, as it did alone, so every point is the same.  Bland's
rule is used throughout: neither loop can cycle and both are deterministic.

Row i is multiplied once by the lcm ``c_i`` of its denominators, to
``Â = diag(c) A`` and ``b̂ = diag(c) b``.  The dual is ``Z >= 0, Z Â = 0,
Z b̂ = 1`` plus one artificial per row, whose sum is minimized from the
artificial basis.  An artificial that leaves the basis is dropped, which
fixes it at 0 as every solution does, so the optimum is still 0 exactly
when the dual has a solution.  The loop stops at 0, and Z (times D) must
pass ``Z >= 0, Z Â = 0, Z b̂ > 0`` on the integer rows or ArithmeticError
is raised; ``z = diag(c) Z / D`` is then a Farkas vector for A and b.

The tableaux are fraction-free (Edmonds 1967; Bareiss 1968).  The starting
basis B is the identity, and with ``T0`` the integer tableau the loop keeps
the invariant ``T = adj(B) T0`` and ``D = det(B) > 0``: the rational
tableau ``B^-1 T0`` is ``T / D``; the objective row holds D times the
reduced costs, also integers since the costs are.  A pivot on
``p = T[r][e]`` keeps row r, replaces every other row and the objective
row by ``(p * row - row[e] * T[r]) // D``, a division that is always
exact, and sets ``D = p``.  No Fraction is built until x is read out as
``T[i][rhs] / D``.

The primal minimizes the sum of the artificials of the standard-form
relaxation.  Row i is the unscaled tableau's row times c_i, with its
surplus and artificial variables c_i times themselves, and the objective
is kept times ``L``, the lcm of the c_i, so the artificial of row i costs
the integer ``L / c_i``.  Positive scalings of rows and variables keep
every reduced cost's sign and every ratio, compared by integer
cross-multiplication, so Bland's choices, ties broken by the lowest basis
index, are those of the rational tableau.

Half of the primal's standard-form tableau is a mirror of the other half,
so only ``[u | s | rhs]`` is stored: d + m + 1 columns of the
2d + 2m + 1.  In ``T0`` the column of v_j is minus that of u_j and the
column of w_i is ``-sign_i`` times that of s_i (sign_i = -1 on a flipped
row), so by ``T = adj(B) T0`` in every row at every pivot

- ``T[v_j] = -T[u_j]`` and ``obj[v_j] = -obj[u_j]``;
- ``T[w_i] = -sign_i T[s_i]``;
- ``obj[w_i] = sign_i (L / c_i * D - obj[s_i])``: it holds for the
  starting basis, and a pivot on p multiplies ``obj[w_i] + sign_i
  obj[s_i]`` by p / D, as it multiplies D.

Bland's rule and the ratio test read a v or w entry through these
identities, and the basis keeps the full column labels u, v, w, s, so
every choice and tie-break is that of the full tableau.
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


def _pivot(tableau: list[list[int]], basis: list[int], obj: list[int],
           enter: int, col: list[int], f_obj: int, den: int
           ) -> tuple[list[int], int]:
    """Bring label enter, with tableau column col and objective entry
    f_obj, into the basis by Bland's ratio test; returns (obj, D)."""
    leave = None
    for i, (coef, line) in enumerate(zip(col, tableau)):
        if coef <= 0:
            continue
        if leave is not None:
            cross = line[-1] * col[leave] - tableau[leave][-1] * coef
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
    basis[leave] = enter
    return _pivoted(obj, pivot_row, f_obj, p, den), p


def _integer_system(a_rows: Sequence[Sequence[Fraction]],
                    b: Sequence[Fraction]
                    ) -> tuple[list[list[int]], list[int], list[int]]:
    """The rows, right-hand sides and c_i of ``A x >= b`` with row i times
    c_i, the lcm of its denominators.  Raises ValueError when the rows
    differ in length or b does not have one entry per row."""
    m = len(a_rows)
    if len(b) != m:
        raise ValueError(f"{len(b)} right-hand sides for {m} rows")
    if any(len(row) != len(a_rows[0]) for row in a_rows):
        raise ValueError("rows of unequal length")
    rows, rhs, scales = [], [], []
    for row, bv in zip(a_rows, b):
        c = lcm(bv.denominator, *[v.denominator for v in row])
        rows.append([v.numerator * (c // v.denominator) for v in row])
        rhs.append(bv.numerator * (c // bv.denominator))
        scales.append(c)
    return rows, rhs, scales


def _farkas(rows: list[list[int]], b: list[int]
            ) -> tuple[list[int], int] | None:
    """(Z, D) with ``Z >= 0, Z rows = 0, Z b = D`` for a nonempty integer
    system ``rows x >= b``, or None when it has a solution."""
    m, d = len(rows), len(rows[0])
    # Row j < d is sum_i rows[i][j] z_i = 0 and row d is sum_i b_i z_i = 1,
    # each plus its artificial, which is not stored.
    tableau = [[row[j] for row in rows] + [0] for j in range(d)]
    tableau.append(b + [1])
    basis = list(range(m, m + d + 1))
    obj = [-sum(col) for col in zip(*tableau)]
    den = 1
    while obj[m]:
        enter = next((k for k in range(m) if obj[k] < 0), None)
        if enter is None:
            return None
        col = [line[enter] for line in tableau]
        obj, den = _pivot(tableau, basis, obj, enter, col, obj[enter], den)

    z = [0] * m
    for line, var in zip(tableau, basis):
        if var < m:
            z[var] = line[m]
    used = [(v, row, bv) for v, row, bv in zip(z, rows, b) if v]
    if (any(v < 0 for v, _, _ in used)
            or any(sum(v * row[j] for v, row, _ in used) for j in range(d))
            or sum(v * bv for v, _, bv in used) <= 0):
        raise ArithmeticError("Farkas vector check failed")
    return z, den


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


def _primal(rows: list[list[int]], b: list[int],
            scales: list[int]) -> list[Fraction] | None:
    """A point x with ``rows x >= b`` for a nonempty integer system, or
    None when it has none."""
    m, d = len(rows), len(rows[0])

    # Row i is c_i (A_i u - A_i v) -+ w_i + s_i = c_i |b_i|: flipped so that
    # the right-hand side is nonnegative, surplus w_i for kept rows (>=)
    # and slack for flipped rows (<=), artificial s_i in the starting
    # basis.  Only [u | s | rhs] is stored; v = -u and w_i = -sign_i s_i.
    rhs = d + m
    tableau: list[list[int]] = []
    signs: list[int] = []
    for i, (row, bv) in enumerate(zip(rows, b)):
        sign = -1 if bv < 0 else 1
        line = (row if sign > 0 else [-v for v in row]) + [0] * m
        line[d + i] = 1
        line.append(sign * bv)
        tableau.append(line)
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
    while (found := _entering(obj, d, signs, costs, den)) is not None:
        enter, k, factor, f_obj = found
        col = [factor * line[k] for line in tableau]
        obj, den = _pivot(tableau, basis, obj, enter, col, f_obj, den)

    if obj[rhs]:
        return None

    x = [0] * d
    for line, var in zip(tableau, basis):
        if var < d:
            x[var] += line[rhs]
        elif var < 2 * d:
            x[var - d] -= line[rhs]
    return [Fraction(v, den) for v in x]


def feasible_ge(a_rows: Sequence[Sequence[Fraction]],
                b: Sequence[Fraction]) -> list[Fraction] | None:
    """A point x with A x >= b (x free), or None when the system is infeasible.

    Entries may be int or Fraction.  Raises ValueError when the rows differ
    in length or b does not have one entry per row.
    """
    rows, rhs, scales = _integer_system(a_rows, b)
    if not rows:
        return []
    if _farkas(rows, rhs) is not None:
        return None
    x = _primal(rows, rhs, scales)
    if x is None:
        raise ArithmeticError("neither the system nor its dual is feasible")
    return x
