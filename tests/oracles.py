"""Independent oracles and samplers for the engine's tests.

Each oracle re-derives a result by another algorithm than the package:
real-root counts by Descartes interval bisection instead of Sturm chains;
characteristic polynomials by Faddeev-LeVerrier and by the Fraction
Hessenberg reduction instead of Berkowitz's division-free recurrence;
polynomial arithmetic and gcds on Fraction coefficients instead of
integer numerators; the engine's closure worklist as it was before early
stopping; an algebra's closedness by all d^2 basis products instead of
the verifier's worklist capped at its dimension; products by
textbook Fraction loops instead of the integer kernel, and the verifier's
integer product by the dense sum over every inner index; phase-1 simplex
feasibility by a Fraction tableau and by the full integer tableau (and,
for a system with no solution, by the primal alone instead of the Farkas
dual); spectral projectors by the minimal polynomial (the Fraction
kernel of the flattened powers) and the CRT polynomial instead of
generalized eigenvectors; the similarity that flattens a rank-one
projector by the kernel of one of its rows instead of two eigenvectors;
kernels, solutions, span intersections, Jordan
bases and eigenvalue splits by the Fraction-vector routines that the
integer-row engine replaced; the
semi-commuting pair of a pattern that is not upper-triangular by
conjugating the triangularized pattern's pair back; a pattern's
transitivity by the pairwise loop over its positions; rational roots by
refining each isolated root on the whole Sturm chain; an algebra's
conjugate and basis matrices by normalized `Mat` products and Fraction
rows of length n^2; and the CLI's document sizes and
wire matrices by a worklist over every JSON value and by parsing every
entry on its own.  The last section holds routines that only the tests
use.  The verifier is tested against `reference`, whose
`gauss_jordan` is the textbook elimination used here; nothing here comes
from `algforge.verify`.  Only the tests use `poly_from_roots`,
`pattern_from_positions`, and `poly_xgcd`, `poly_crt` and
`block_projector_poly` behind the polynomial projector.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from algforge import linear
from algforge.algebra import (Algebra, _from_span, _numerators, _span_of,
                              closure_words, conjugate_algebra)
from algforge.incidence import IncidencePattern
from algforge.linear import rank
from algforge.matrices import (Mat, _mat, _normal, _unit_row, identity,
                               inverse, is_nonneg, zero)
from algforge.polynomials import (P_ONE, P_ZERO, Poly, _scaled, _sturm_chain,
                                  _variations, poly_gcd, root_multiplicity)
from reference import gauss_jordan

ZERO = Fraction(0)
ONE = Fraction(1)


# -- Descartes bisection real-root counter ------------------------------------

def _taylor_shift(coeffs: list[Fraction], a: Fraction) -> list[Fraction]:
    """Coefficients of p(x + a) by repeated synthetic division."""
    out = list(coeffs)
    n = len(out)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] += a * out[j + 1]
    return out


def _scale(coeffs: list[Fraction], s: Fraction) -> list[Fraction]:
    """Coefficients of p(s*x)."""
    out = []
    power = ONE
    for c in coeffs:
        out.append(c * power)
        power *= s
    return out


def _sign_variations(coeffs: list[Fraction]) -> int:
    signs = [1 if c > 0 else -1 for c in coeffs if c]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _descartes_bound(coeffs: list[Fraction], a: Fraction, b: Fraction) -> int:
    """Descartes bound for the number of roots in the open interval (a, b):
    0 means none, 1 means exactly one."""
    shifted = _scale(_taylor_shift(coeffs, a), b - a)  # roots of p in (a,b) -> (0,1)
    # Moebius x -> x/(1+x) maps (0, inf) onto (0, 1): take the reversal and
    # shift by 1 to count roots in (0, 1).
    mapped = _taylor_shift(list(reversed(shifted)), ONE)
    return _sign_variations(mapped)


def bisection_real_root_count(p: Poly) -> int:
    """Number of distinct real roots of a squarefree polynomial, by
    Descartes-bound interval bisection.  Independent of Sturm chains."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return 0
    assert poly_gcd(p, p.derivative()).degree == 0, "oracle needs squarefree input"
    lead = p.leading
    bound = 1 + max(abs(c / lead) for c in p.coeffs)
    coeffs = list(p.coeffs)
    count = 0
    stack = [(-bound, bound)]
    if p(-bound) == 0 or p(bound) == 0:  # cannot happen: strict Cauchy bound
        raise AssertionError("root at the Cauchy bound")
    while stack:
        a, b = stack.pop()
        v = _descartes_bound(coeffs, a, b)
        if v == 0:
            continue
        if v == 1:
            count += 1
            continue
        mid = (a + b) / 2
        if p(mid) == 0:
            count += 1
        stack.append((a, mid))
        stack.append((mid, b))
    return count


# -- Faddeev-LeVerrier characteristic polynomial --------------------------------

def faddeev_char_poly(a: Mat) -> Poly:
    n = a.rows
    coeffs = [ZERO] * n + [ONE]
    m = zero(n)
    c = ONE
    for k in range(1, n + 1):
        m = a @ (m + c * identity(n))
        tr = sum((m.data[i][i] for i in range(n)), ZERO)
        c = -tr / k
        coeffs[n - k] = c
    return Poly.from_coeffs(coeffs)


# -- Fraction polynomials and the Hessenberg characteristic polynomial ----------
#
# The Fraction-coefficient polynomial class, its gcd and the Hessenberg
# characteristic polynomial as they were before the integer kernel, kept as
# references for `Poly`, `poly_gcd` and `spectral.char_poly`.

def _strip(coeffs: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    k = len(coeffs)
    while k > 0 and coeffs[k - 1] == 0:
        k -= 1
    return coeffs[:k]


@dataclass(frozen=True)
class FractionPoly:
    """Univariate polynomial over Q, coefficients ascending by degree."""

    coeffs: tuple[Fraction, ...] = ()

    @staticmethod
    def of(*coeffs: int | str | Fraction) -> FractionPoly:
        return FractionPoly(_strip(tuple(Fraction(c) for c in coeffs)))

    @staticmethod
    def from_coeffs(coeffs: Iterable[int | str | Fraction]) -> FractionPoly:
        return FractionPoly(_strip(tuple(Fraction(c) for c in coeffs)))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: FractionPoly) -> FractionPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FractionPoly(_strip(tuple(out)))

    def __neg__(self) -> FractionPoly:
        return FractionPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: FractionPoly) -> FractionPoly:
        return self + (-other)

    def __mul__(self, other: FractionPoly | int | Fraction) -> FractionPoly:
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return FractionPoly()
            return FractionPoly(tuple(c * a for a in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return FractionPoly()
        out = [ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return FractionPoly(_strip(tuple(out)))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> FractionPoly:
        if e < 0:
            raise ValueError("negative power")
        out = FractionPoly.of(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __call__(self, x: int | Fraction) -> Fraction:
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __divmod__(self, other: FractionPoly) -> tuple[FractionPoly, FractionPoly]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq, dr = other.degree, len(rem) - 1
        if dr < dq:
            return FractionPoly(), self
        inv = ONE / other.leading
        quo = [ZERO] * (dr - dq + 1)
        for k in range(dr - dq, -1, -1):
            c = rem[k + dq] * inv
            quo[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return FractionPoly(_strip(tuple(quo))), FractionPoly(_strip(tuple(rem)))

    def __floordiv__(self, other: FractionPoly) -> FractionPoly:
        return divmod(self, other)[0]

    def __mod__(self, other: FractionPoly) -> FractionPoly:
        return divmod(self, other)[1]

    def derivative(self) -> FractionPoly:
        return FractionPoly(_strip(tuple(Fraction(i) * c for i, c in enumerate(self.coeffs))[1:]))

    def monic(self) -> FractionPoly:
        if self.is_zero:
            return self
        return self * (ONE / self.leading)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                if i == 0:
                    parts.append(str(c))
                elif i == 1:
                    parts.append(f"{c}*x" if c != 1 else "x")
                else:
                    parts.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return " + ".join(parts)


def fraction_poly_gcd(p: FractionPoly, q: FractionPoly) -> FractionPoly:
    """Monic greatest common divisor; not defined when both are zero."""
    if p.is_zero and q.is_zero:
        raise ValueError("gcd of two zero polynomials")
    a, b = p, q
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def hessenberg_char_poly(a: Mat) -> FractionPoly:
    """Monic characteristic polynomial det(xI - A)."""
    if not a.is_square:
        raise ValueError("matrix must be square")
    n = a.rows
    if n == 0:
        return FractionPoly.of(1)
    h = [list(row) for row in a.data]
    for j in range(n - 2):
        piv = next((r for r in range(j + 1, n) if h[r][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = ONE / h[j + 1][j]
        for r in range(j + 2, n):
            f = h[r][j] * inv
            if f:
                h[r] = [v - f * w for v, w in zip(h[r], h[j + 1])]
                for row in h:
                    row[j + 1] += f * row[r]
    # char polys of leading principal minors of the Hessenberg form
    polys = [FractionPoly.of(1)]
    for m in range(1, n + 1):
        p = FractionPoly.of(-h[m - 1][m - 1], 1) * polys[m - 1]
        prod = ONE
        for k in range(1, m):
            prod *= h[m - k][m - k - 1]
            if not prod:
                break
            term = h[m - 1 - k][m - 1]
            if term:
                p = p - (prod * term) * polys[m - 1 - k]
        polys.append(p)
    return polys[n]


# -- the engine's closure worklist without early stopping -----------------------

def eager_closure_words(n: int, gens: list[Mat]):
    """The words the engine's left-generator worklist retains when it runs
    to the end, and their span: I, the generators, then every retained word
    times each generator on the left."""
    from algforge.linear import EchelonSpan
    span = EchelonSpan(n * n)
    words: list[Mat] = []

    def push(m: Mat) -> None:
        if span.add(m.numerators()):
            words.append(m)

    push(identity(n))
    for g in gens:
        push(g)
    for x in words:  # words grows while it is walked: a FIFO worklist
        for g in gens:
            push(g @ x)
    return words, span


# -- an algebra's closedness by all pairwise basis products ---------------------

def pairwise_is_closed(alg) -> bool:
    """Whether an algebra's span is closed under products, by the loop
    `Algebra.is_closed` ran before it reused the verifier's worklist: every
    one of the d^2 pairwise basis products must lie in the span."""
    sp = alg._span
    return all(sp.contains((a @ b).numerators())
               for a in alg.basis for b in alg.basis)


# -- the semi-commuting pair through a triangularizing conjugation ---------------

def conjugated_pair(p):
    """(A, D, certificate) as `semicommuting_pair` built them when a
    pattern that is not upper-triangular was relabelled by a topological
    order, given the pair of the relabelled pattern and conjugated back by
    the permutation matrix."""
    from algforge.certificates import (Certificate, prop_dimension,
                                       prop_nonneg, prop_semi_commuting,
                                       prop_spans_pattern)
    from algforge.constructions import _check_pair_generates, _pattern_sum
    from algforge.incidence import triangularize_incidence
    from algforge.matrices import conjugate, direct_sum, permutation_matrix
    n = p.n
    d = direct_sum([Mat.from_rows([[n - i]]) for i in range(n)])
    if p.is_upper_triangular:
        a = _pattern_sum(p)
    else:
        order = triangularize_incidence(p)
        ranks = {orig + 1: pos + 1 for pos, orig in enumerate(order)}
        perm_inv = inverse(permutation_matrix(order))
        a = conjugate(_pattern_sum(p.relabel(ranks)), perm_inv)
        d = conjugate(d, perm_inv)
    comm = commutator(d, a)
    if not is_nonneg(a) or not is_nonneg(d) or not is_nonneg(comm):
        raise ArithmeticError("pair construction lost nonnegativity")
    _check_pair_generates(p, a, d)
    cert = Certificate(
        claim="semicommuting-incidence-pair",
        inputs={"pattern": p},
        transform=None,
        outputs=(d, a),
        properties=(
            prop_nonneg("out:0"),
            prop_nonneg("out:1"),
            prop_semi_commuting("out:0", "out:1", "nonneg"),
            prop_spans_pattern(["out:0", "out:1"], "in:pattern"),
            prop_dimension(["out:0", "out:1"], p.size),
        ),
    )
    return a, d, cert


# -- numeric eigenvalue clustering ----------------------------------------------

def numeric_has_simple_real(a: Mat, tol: float = 1e-8) -> bool:
    """Numeric oracle: cluster eigenvalues within tol; a simple real
    eigenvalue is a size-1 cluster with negligible imaginary part."""
    import numpy as np
    arr = np.array([[float(v) for v in row] for row in a.data])
    eigs = np.linalg.eigvals(arr)
    k = len(eigs)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if abs(eigs[i] - eigs[j]) <= tol:
                parent[find(i)] = find(j)
    sizes: dict[int, int] = {}
    for i in range(k):
        r = find(i)
        sizes[r] = sizes.get(r, 0) + 1
    return any(sizes[find(i)] == 1 and abs(eigs[i].imag) <= tol
               for i in range(k))


# -- an algebra's conjugate by normalized `Mat` products ------------------------

def product_conjugate_algebra(a, c):
    """Basis-wise conjugation C^{-1} A C, re-echelonized, by two
    normalized `Mat` products per basis matrix."""
    cinv = inverse(c)
    return _from_span(a.n, _span_of(a.n, [(cinv @ b @ c).numerators()
                                          for b in a.basis]))


def echelon_rows(span) -> list[tuple[Fraction, ...]]:
    """An engine `EchelonSpan`'s canonical rows as Fraction tuples: each
    primitive integer row divided by its pivot, in pivot order."""
    return [tuple(Fraction(row.get(j, 0), row[p]) for j in range(span.length))
            for p, row in span.primitive_rows()]


def span_rows_mats(n: int, span) -> list[Mat]:
    """The span's canonical rows as n x n matrices, through Fraction
    rows of length n^2."""
    return [Mat(n, n, [r[i * n:(i + 1) * n] for i in range(n)])
            for r in echelon_rows(span)]


# -- textbook Fraction linear algebra --------------------------------------------

def cleared(vec) -> list[int]:
    """A Fraction vector times the lcm of its denominators: an integer
    vector on the same line."""
    den = lcm(*[Fraction(v).denominator for v in vec])
    return [int(v * den) for v in vec]


def textbook_product(a: Mat, b: Mat) -> Mat:
    """(a @ b)[i][j] = sum over k of a[i][k] * b[k][j], in Fractions."""
    return Mat(a.rows, b.cols, tuple(
        tuple(sum((a.data[i][k] * b.data[k][j] for k in range(a.cols)), ZERO)
              for j in range(b.cols))
        for i in range(a.rows)))


def dense_integer_product(a, b, cols: int) -> tuple[tuple[int, ...], ...]:
    """a @ b on integer rows, every entry the full sum over k, for b with
    the given column count."""
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b)))
                       for j in range(cols)) for i in range(len(a)))


# -- textbook Fraction grid operations ----------------------------------------
#
# Grids are lists of row lists of Fraction; a matrix with no rows carries its
# column count apart.

def grid_combine(a, b, sign: int = 1):
    """a + sign * b, entry by entry."""
    return [[x + sign * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def grid_scale(c, a):
    return [[c * x for x in row] for row in a]


def grid_product(a, b, cols: int):
    """a @ b for b with the given column count."""
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO)
             for j in range(cols)] for i in range(len(a))]


def grid_transpose(a, cols: int):
    return [[a[i][j] for i in range(len(a))] for j in range(cols)]


def grid_submatrix(a, rows, cols):
    return [[a[i][j] for j in cols] for i in rows]


def grid_direct_sum(blocks):
    """Block-diagonal sum of square grids."""
    n = sum(len(b) for b in blocks)
    out = [[ZERO] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                out[off + i][off + j] = v
        off += len(b)
    return out


def fraction_feasible_ge(a_rows, b) -> list[Fraction] | None:
    """A point x with A x >= b (x free), or None: phase-1 simplex on a
    Fraction tableau, each pivot row divided by its pivot.  Same columns,
    objective and Bland's rule (lowest basis index on ratio ties) as
    `algforge.simplex.feasible_ge`, so both return the same point.  Takes
    Fraction entries: int entries would be divided into floats."""
    m = len(a_rows)
    if m == 0:
        return []
    d = len(a_rows[0])

    # Flip rows so every right-hand side is nonnegative, then write
    # A u - A v - w + s = b with u, v, w, s >= 0 and artificial basis s.
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for row, bv in zip(a_rows, b):
        if bv < 0:
            rows.append([-c for c in row])
            rhs.append(-bv)
        else:
            rows.append(list(row))
            rhs.append(Fraction(bv))

    ncols = 2 * d + 2 * m
    tableau: list[list[Fraction]] = []
    for i in range(m):
        line = [ZERO] * (ncols + 1)
        for j in range(d):
            line[j] = rows[i][j]
            line[d + j] = -rows[i][j]
        # surplus for kept rows (>=), slack for flipped rows (<=)
        line[2 * d + i] = -ONE if b[i] >= 0 else ONE
        line[2 * d + m + i] = ONE
        line[ncols] = rhs[i]
        tableau.append(line)

    basis = [2 * d + m + i for i in range(m)]

    # Objective: minimize the sum of artificials; reduced-cost row for the
    # initial basis is -sum of constraint rows (artificial columns cancel).
    obj = [ZERO] * (ncols + 1)
    for line in tableau:
        for j in range(ncols + 1):
            obj[j] -= line[j]
    for i in range(m):
        obj[2 * d + m + i] = ZERO

    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            break
        leave_row = None
        best = None
        for i in range(m):
            coef = tableau[i][enter]
            if coef > 0:
                ratio = tableau[i][ncols] / coef
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave_row]):
                    best = ratio
                    leave_row = i
        if leave_row is None:
            raise ArithmeticError("phase-1 objective unbounded")  # impossible
        piv = tableau[leave_row][enter]
        tableau[leave_row] = [v / piv for v in tableau[leave_row]]
        for i in range(m):
            if i != leave_row and tableau[i][enter]:
                f = tableau[i][enter]
                tableau[i] = [v - f * w for v, w in
                              zip(tableau[i], tableau[leave_row])]
        if obj[enter]:
            f = obj[enter]
            obj = [v - f * w for v, w in zip(obj, tableau[leave_row])]
        basis[leave_row] = enter

    if -obj[ncols] != 0:
        return None

    x = [ZERO] * d
    for i, var in enumerate(basis):
        val = tableau[i][ncols]
        if var < d:
            x[var] += val
        elif var < 2 * d:
            x[var - d] -= val
    return x


# -- the fraction-free simplex on its full 2d + 2m column tableau ---------------
#
# `algforge.simplex.feasible_ge` as it was before it stored only the u and s
# columns and derived v = -u and w_i = -sign_i s_i, copied verbatim: the
# u, v, w and s columns are all kept and pivoted.


def _full_pivoted(line: list[int], pivot_row: list[int], e: int, p: int,
                  den: int) -> list[int]:
    """line after the pivot on pivot_row[e] = p, with den the old D."""
    f = line[e]
    return [(p * v - f * w) // den for v, w in zip(line, pivot_row)]


def full_tableau_feasible_ge(a_rows: Sequence[Sequence[Fraction]],
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
                tableau[i] = _full_pivoted(line, pivot_row, enter, p, den)
        obj = _full_pivoted(obj, pivot_row, enter, p, den)
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


# -- the spectral projector as a polynomial in the matrix -----------------------
#
# The min_poly -> CRT projector that `algforge.spectral` built before it took
# generalized eigenvectors, with the extended gcd and the polynomial CRT it
# needs, moved here from the package unchanged.


def poly_xgcd(p: Poly, q: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended gcd: returns (g, u, v) monic g with u*p + v*q = g."""
    if p.is_zero and q.is_zero:
        raise ValueError("gcd of two zero polynomials")
    r0, r1 = p, q
    u0, u1 = P_ONE, P_ZERO
    v0, v1 = P_ZERO, P_ONE
    while not r1.is_zero:
        qq, rr = divmod(r0, r1)
        r0, r1 = r1, rr
        u0, u1 = u1, u0 - qq * u1
        v0, v1 = v1, v0 - qq * v1
    # times 1 / lead(r0) = den / num[-1]
    den, lead = r0.den, r0.num[-1]
    return r0.monic(), _scaled(u0, den, lead), _scaled(v0, den, lead)


def poly_crt(pairs: Sequence[tuple[Poly, Poly]]) -> Poly:
    """Chinese remainder interpolation: the unique h with h = r_i (mod m_i)
    and deg h < sum deg m_i, for pairwise coprime moduli.

    Raises ValueError when two moduli share a factor or a residue is not
    reduced below its modulus.
    """
    if not pairs:
        raise ValueError("empty congruence system")
    for m, r in pairs:
        if m.is_zero:
            raise ValueError("zero modulus")
        if r.degree >= m.degree:
            raise ValueError("residue degree not below modulus degree")
    h, big = pairs[0][1], pairs[0][0]
    for m, r in pairs[1:]:
        g, u, _ = poly_xgcd(big, m)
        if g.degree != 0:
            raise ValueError("moduli are not coprime: spectra are not disjoint")
        if m.degree == 0:
            continue
        # h' = h + big * t with t = (r - h) * big^{-1} mod m
        t = ((r - h) * u) % m
        h = h + big * t
        big = big * m
        h = h % big
    return h


def block_projector_poly(mu_target: Poly, mu_others: Poly) -> Poly:
    """The polynomial h with h = 1 mod mu_target and h = 0 mod mu_others.

    Evaluated at P (+) Q (+) R it yields O (+) I (+) O whenever the minimal
    polynomial of Q divides mu_target and those of P, R divide mu_others.
    Raises ValueError when the inputs share a factor (overlapping spectra).
    """
    if mu_target.is_zero or mu_others.is_zero:
        raise ValueError("zero modulus")
    if poly_gcd(mu_target, mu_others).degree != 0:
        raise ValueError("spectra overlap: moduli share a factor")
    return poly_crt([(mu_target, P_ONE if mu_target.degree > 0 else Poly()),
                     (mu_others, Poly())])


def fraction_min_poly(a):
    """The minimal polynomial from the first dependency among the
    flattened Fraction powers of A: the kernel of the first k + 1 powers,
    taken as columns, is one line once the first k are independent."""
    powers = [identity(a.rows)]
    while True:
        cols = [[v for row in p.data for v in row] for p in powers]
        kern = nullspace([list(r) for r in zip(*cols)], len(powers))
        if kern:
            (coeffs,) = kern
            return Poly(coeffs)
        powers.append(powers[-1] @ a)


def polynomial_spectral_projector(a: Mat, lam: int | Fraction) -> Mat:
    """h(A) for the h with h = 1 mod (x - lam)^e and h = 0 mod mu / (x -
    lam)^e, where mu is the minimal polynomial and e the multiplicity of lam
    in it."""
    from algforge.matrices import poly_at
    from algforge.polynomials import root_multiplicity
    lam = Fraction(lam)
    mu = fraction_min_poly(a)
    e = root_multiplicity(mu, lam)
    if e == 0:
        raise ValueError("not an eigenvalue of the matrix")
    target = Poly.of(-lam, 1) ** e
    return poly_at(block_projector_poly(target, mu // target), a)


# -- the flattening similarity read off the rank-one projector ------------------

def projector_uniformizer(e: Mat) -> Mat:
    """C with C^{-1} E C = ones(n)/n for a rank-1 idempotent E, read off E
    itself instead of two eigenvectors: u = E e_j0 for E's first nonzero
    column j0, v the row of E through u's first nonzero entry scaled to
    v_j0 = 1, and C = [u | canonical basis of ker v] . swap . uniformizer,
    where swap exchanges the first and last columns."""
    from algforge.matrices import (kernel, permutation_matrix, stack,
                                   uniformizer)
    n = e.rows
    if n == 1:
        return identity(1)
    j0 = next(j for j in range(n) if any(row[j] for row in e.num))
    u = e.submatrix(range(n), [j0])
    i0 = next(i for i in range(n) if e.num[i][j0])
    v = Mat.from_ints(1, n, e.num[i0][j0], [e.num[i0]])
    c1 = stack([u.transpose(), *kernel(v)]).transpose()
    swap = permutation_matrix([n - 1] + list(range(1, n - 1)) + [0])
    return c1 @ swap @ uniformizer(n)


# -- rational roots refined on the whole Sturm chain -------------------------

def full_chain_rational_roots(p: Poly) -> list[tuple[Fraction, int]]:
    """All rational roots of p with multiplicities, sorted ascending.

    Sturm bisection of the squarefree part s: a rational root of s has a
    denominator dividing the leading coefficient L of s's primitive integer
    form, and two such fractions differ by at least 1/L^2.  So once a root
    is alone in a dyadic interval shorter than 1/L^2, the fraction with
    denominator <= L nearest the midpoint is the only candidate there.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    s = p // poly_gcd(p, p.derivative())
    chain, b = _sturm_chain(s)
    lead = abs(chain[0][-1])
    roots: list[tuple[Fraction, int]] = []
    # intervals (lo / 2^e, hi / 2^e] with their end variations; popping the
    # lower half first walks them in ascending order
    todo = [(-1 << b, 1 << b, 0, _variations(chain, -1 << b, 0),
             _variations(chain, 1 << b, 0))]
    while todo:
        lo, hi, e, vlo, vhi = todo.pop()
        if vlo == vhi:
            continue
        if vlo - vhi == 1 and (hi - lo) * lead * lead < 1 << e:
            cand = Fraction(lo + hi, 2 << e).limit_denominator(lead)
            if Fraction(lo, 1 << e) < cand <= Fraction(hi, 1 << e) \
                    and s(cand) == 0:
                roots.append((cand, root_multiplicity(p, cand)))
            continue
        mid = lo + hi
        vmid = _variations(chain, mid, e + 1)
        todo.append((mid, 2 * hi, e + 1, vmid, vhi))
        todo.append((2 * lo, mid, e + 1, vlo, vmid))
    return roots


# -- the CLI's readers before the parse cache -----------------------------------

def worklist_doc_sizes(doc) -> list[int]:
    """Every integer "rows", "cols" or "n" (matrix shapes, algebra and
    pattern sizes) anywhere in a JSON document."""
    sizes, todo = [], [doc]
    while todo:
        obj = todo.pop()
        if isinstance(obj, dict):
            sizes += [obj[k] for k in ("rows", "cols", "n")
                      if isinstance(obj.get(k), int)]
            todo += obj.values()
        elif isinstance(obj, list):
            todo += obj
    return sizes


def per_entry_mat_from_json(obj: dict) -> Mat:
    if not (isinstance(obj, dict) and {"rows", "cols", "entries"} <= obj.keys()
            and isinstance(obj["entries"], list)
            and all(isinstance(row, list) for row in obj["entries"])):
        raise ValueError("matrix needs rows, cols and entries, a list of rows")
    if not (type(obj["rows"]) is int and type(obj["cols"]) is int):
        raise ValueError("matrix shape must be integers")
    parsed = [[_wire_entry(v) for v in row] for row in obj["entries"]]
    den = lcm(*[v.denominator for row in parsed for v in row])
    return Mat.from_ints(obj["rows"], obj["cols"], den, [
        [v.numerator * (den // v.denominator) for v in row]
        for row in parsed])


def _wire_entry(s) -> Fraction:
    """A wire entry by its definition: a str that `str(Fraction)` writes
    back unchanged.  str() of an int past Python's digit limit raises
    ValueError too."""
    try:
        if type(s) is str and str(v := Fraction(s)) == s:
            return v
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"not a canonical rational: {s!r}")


# -- builders the tests use and the package does not ---------------------------

def poly_from_roots(roots: Iterable[int | Fraction]) -> Poly:
    """Monic polynomial with the given roots (with multiplicity)."""
    out = Poly.of(1)
    for r in roots:
        out = out * Poly((-r, 1))
    return out


def pattern_from_positions(n: int, positions: Iterable[tuple[int, int]],
                           close: bool = False) -> IncidencePattern:
    """Build a pattern from strict positions plus the diagonal, optionally
    taking the transitive closure first."""
    pos = {(i, j) for (i, j) in positions}
    pos |= {(i, i) for i in range(1, n + 1)}
    if close:
        changed = True
        while changed:
            changed = False
            for (i, j) in list(pos):
                for (jj, t) in list(pos):
                    if jj == j and (i, t) not in pos:
                        pos.add((i, t))
                        changed = True
    return IncidencePattern(n, frozenset(pos))


# -- random samplers -------------------------------------------------------------

def random_rat(rng: random.Random, height: int = 10,
               max_den: int = 1) -> Fraction:
    return Fraction(rng.randint(-height, height), rng.randint(1, max_den))


def random_mat(rng: random.Random, n: int, height: int = 10,
               max_den: int = 1) -> Mat:
    return Mat.from_rows([[random_rat(rng, height, max_den) for _ in range(n)]
                          for _ in range(n)])


def random_unimodular(rng: random.Random, n: int, height: int = 2) -> Mat:
    """Random integer matrix with determinant 1 (product of unit
    triangulars), so conjugations stay exactly invertible."""
    lower = [[ONE if i == j else
              (Fraction(rng.randint(-height, height)) if i > j else ZERO)
              for j in range(n)] for i in range(n)]
    upper = [[ONE if i == j else
              (Fraction(rng.randint(-height, height)) if i < j else ZERO)
              for j in range(n)] for i in range(n)]
    return Mat(n, n, tuple(tuple(r) for r in lower)) @ \
        Mat(n, n, tuple(tuple(r) for r in upper))


def random_pattern(rng: random.Random, n: int, triangular: bool = True):
    """Random incidence pattern: a transitively closed random set of strict
    upper positions plus the diagonal, optionally relabeled by a random
    permutation."""
    strict = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
              if rng.random() < 0.4]
    pattern = pattern_from_positions(n, strict, close=True)
    if not triangular:
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        pattern = pattern.relabel({i + 1: perm[i] for i in range(n)})
    return pattern


def pairwise_is_transitive(positions) -> bool:
    """Whether a position set is transitive, by the loop over all pairs of
    positions that `IncidencePattern` ran before it compared successor
    sets."""
    pos = set(positions)
    for (i, j) in pos:
        for (jj, t) in pos:
            if jj == j and (i, t) not in pos:
                return False
    return True


def random_nonneg_on_pattern(rng: random.Random, pattern) -> Mat:
    """Random matrix with positive rational entries exactly on the pattern."""
    n = pattern.n
    data = [[ZERO] * n for _ in range(n)]
    for (i, j) in pattern.positions:
        data[i - 1][j - 1] = Fraction(rng.randint(1, 9), rng.randint(1, 3))
    return Mat(n, n, tuple(tuple(row) for row in data))


# -- the Fraction-vector routines the integer-row engine replaced ---------------
#
# `solve`, `nullspace`, `intersect_spans`, `nilpotent_jordan_basis`,
# `generalized_eigensplit`, `structural_decomposition` and `center` are the
# engine's routines from when a vector was a tuple of Fractions, copied
# verbatim.  Only what they stood on is replaced: the echelon span and the
# elimination behind them are the textbook `gauss_jordan`, and
# `_apply`, `_column` and `_vectorize` stand for the `Mat` methods of the
# same names.  The package has no structural decomposition, orbit span or
# center of its own, so the tests use these three directly.

def _apply(m: Mat, vec) -> tuple[Fraction, ...]:
    """M v for a Fraction vector v."""
    if len(vec) != m.cols:
        raise ValueError("size mismatch")
    return tuple(sum((a * v for a, v in zip(row, vec)), ZERO)
                 for row in m.data)


def _column(m: Mat, j: int) -> tuple[Fraction, ...]:
    return tuple(row[j] for row in m.data)


def _vectorize(m: Mat) -> tuple[Fraction, ...]:
    return tuple(v for row in m.data for v in row)


class FractionSpan:
    """A span of Fraction vectors kept as its reduced row-echelon basis."""

    def __init__(self, length: int):
        self.length = length
        self.rows: list[tuple[Fraction, ...]] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def add(self, vec) -> bool:
        """Insert a vector; returns True when it enlarged the span."""
        rows = gauss_jordan(self.rows + [vec], self.length)
        if len(rows) == len(self.rows):
            return False
        self.rows = rows
        return True

    def canonical_rows(self) -> list[tuple[Fraction, ...]]:
        return list(self.rows)


EchelonSpan = FractionSpan


def _reduce(rows, length: int) -> list[tuple[int, list[Fraction]]]:
    """The nonzero rows of the reduced row-echelon form, in pivot order,
    as (pivot column, row) pairs."""
    return [(next(j for j, v in enumerate(row) if v), list(row))
            for row in gauss_jordan(rows, length)]


def span_rows(vectors, length: int) -> list[tuple[Fraction, ...]]:
    """Canonical reduced-echelon basis of the span of the given vectors."""
    return gauss_jordan(list(vectors), length)


def solve(a_rows, b) -> list[Fraction] | None:
    """One exact solution of A x = b, or None when inconsistent."""
    n = len(a_rows[0]) if a_rows else 0
    x = [ZERO] * n
    for p, row in _reduce([list(r) + [bv] for r, bv in zip(a_rows, b)], n + 1):
        if p == n:
            return None
        x[p] = row[n]
    return x


def nullspace(rows, ncols: int) -> list[tuple[Fraction, ...]]:
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


def over_last_entry(vec) -> tuple[Fraction, ...]:
    """An integer kernel vector divided by its last nonzero entry, which
    must be positive: `linear.nullspace` returns positive multiples of the
    canonical basis vectors, whose last nonzero entry is the 1 at their
    free column."""
    last = next(v for v in reversed(vec) if v)
    assert last > 0
    return tuple(Fraction(v, last) for v in vec)


def intersect_spans(rows_a, rows_b, n: int) -> list[tuple[Fraction, ...]]:
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


def complete_basis(rows, n: int) -> list[tuple[Fraction, ...]]:
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


def orbit_span(a, v) -> list[tuple[Fraction, ...]]:
    """Canonical basis of the smallest A-invariant subspace containing v:
    the span of {Bv : B basis}."""
    if not any(v):
        raise ValueError("zero vector")
    if len(v) != a.n:
        raise ValueError("size mismatch")
    return span_rows([_apply(b, v) for b in a.basis], a.n)


def _transpose_orbit(a, v) -> list[tuple[Fraction, ...]]:
    return span_rows([_apply(b.transpose(), v) for b in a.basis], a.n)


def structural_decomposition(a):
    """Split an algebra containing the (1,1) diagonal matrix unit along its
    minimal and maximal invariant subspaces attached to e_1."""
    n = a.n
    e1 = tuple(ONE if i == 0 else ZERO for i in range(n))
    if not a.contains(matrix_unit(n, 1, 1)):
        raise ValueError("algebra does not contain the (1,1) matrix unit")
    z1 = orbit_span(a, e1)
    z2 = nullspace(_transpose_orbit(a, e1), n)  # orthogonal complement
    # The leading block is the part of the orbit orthogonal to e_1: all of
    # z2 when the orbit is Q^n, their intersection otherwise.  It never
    # holds e_1, whose first coordinate is 1.
    full = len(z1) == n
    head = z2 if full else intersect_spans(z1, z2, n)
    case = (3 if head else 4) if full else (1 if head else 2)
    sizes = (len(head), len(z1) - len(head), n - len(z1))
    picked = EchelonSpan(n)
    cols = complete_basis([v for v in [*head, e1, *z1] if picked.add(v)], n)

    # Normalize first coordinates so the conjugation sends the (1,1) unit
    # exactly onto the (l,l) unit: every column except e_1 itself is shifted
    # into the hyperplane x_1 = 0 (allowed since e_1 lies in the orbit).
    l = sizes[0] + 1
    fixed = []
    for idx, colv in enumerate(cols):
        if idx == l - 1:
            fixed.append(tuple(colv))
        else:
            c = colv[0]
            fixed.append(tuple(v - c * e for v, e in zip(colv, e1)))
    cmat = Mat(n, n, tuple(zip(*fixed)))
    decomposition = StructuralDecomposition(cmat, sizes, l, case)
    _verify_decomposition(a, decomposition)
    return decomposition


def nilpotent_jordan_basis(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Columns of a similarity taking a nilpotent matrix to its Jordan form
    with block sizes sorted descending; returns (C, sizes)."""
    from algforge.matrices import conjugate, direct_sum, jordan_cell
    if not m.is_square:
        raise ValueError("matrix must be square")
    n = m.rows
    if n == 0:
        return Mat(0, 0, ()), ()
    powers = [identity(n)]
    while True:
        nxt = powers[-1] @ m
        powers.append(nxt)
        if not any(map(any, nxt.num)):
            break
        if len(powers) > n:
            raise ValueError("matrix is not nilpotent")
    q = len(powers) - 1  # nilpotency index
    kernels = []
    for t in range(q + 1):
        # den * A^t has the kernel of A^t
        kernels.append(nullspace(powers[t].num, n) if t else [])
    sel: dict[int, list[tuple[Fraction, ...]]] = {t: [] for t in range(1, q + 2)}
    descendants: list[tuple[Fraction, ...]] = []
    for t in range(q, 0, -1):
        descendants = [_apply(m, v) for v in descendants] + \
                      [_apply(m, v) for v in sel[t + 1]]
        blocked = EchelonSpan(n)
        for v in kernels[t - 1]:
            blocked.add(v)
        for v in descendants:
            blocked.add(v)
        for v in kernels[t]:
            if blocked.add(v):
                sel[t].append(tuple(v))
    cols: list[tuple[Fraction, ...]] = []
    sizes: list[int] = []
    for t in range(q, 0, -1):
        for v in sel[t]:
            chain = [v]
            for _ in range(t - 1):
                chain.append(_apply(m, chain[-1]))
            cols.extend(reversed(chain))
            sizes.append(t)
    if sum(sizes) != n:
        raise ArithmeticError("jordan chains do not fill the space")
    c = Mat(n, n, tuple(zip(*cols)))
    expected = direct_sum([jordan_cell(t, 0) for t in sizes])
    if conjugate(m, c) != expected:
        raise ArithmeticError("jordan basis verification failed")
    return c, tuple(sizes)


def generalized_eigensplit(a: Mat, lam: Fraction) -> tuple[Mat, int, tuple[int, ...]]:
    """Similarity C with C^{-1}(A - lam I)C = P (+) N, where N collects the
    Jordan cells of the eigenvalue and 0 is not an eigenvalue of P."""
    from algforge.matrices import inverse
    from algforge.spectral import rational_spectral_projector
    n = a.rows
    shifted = a - lam * identity(n)
    proj = rational_spectral_projector(a, lam)
    ker_basis = nullspace(proj.num, n)
    im_span = EchelonSpan(n)
    im_basis = []
    for j in range(n):
        colv = _column(proj, j)
        if im_span.add(colv):
            im_basis.append(colv)
    m = len(im_basis)
    # matrix of the restriction of (A - lam I) to the image, in im_basis coords
    im_mat = Mat(n, m, tuple(zip(*im_basis)))
    restriction_cols = []
    for v in im_basis:
        image = _apply(shifted, v)
        coords = solve(im_mat.data, image)
        if coords is None:
            raise ArithmeticError("image basis does not span its image")
        restriction_cols.append(coords)
    restriction = Mat(m, m, tuple(zip(*[tuple(c) for c in restriction_cols])))
    w, sizes = nilpotent_jordan_basis(restriction)
    chains = im_mat @ w
    cols = [tuple(v) for v in ker_basis] + [_column(chains, j) for j in range(m)]
    c = Mat(n, n, tuple(zip(*cols)))
    inverse(c)  # raises on a bug; the columns must form a basis
    return c, m, sizes


def center(a) -> list[Mat]:
    """Echelon basis of {X in A : XB = BX for every B in A}."""
    d = a.dim
    rows = []
    for b in a.basis:
        comm = [_vectorize(c @ b - b @ c) for c in a.basis]
        for pos in range(a.n * a.n):
            row = [comm[j][pos] for j in range(d)]
            if any(row):
                rows.append(row)
    span = EchelonSpan(a.n * a.n)
    for cv in nullspace(rows, d):
        acc = zero(a.n)
        for coef, b in zip(cv, a.basis):
            if coef:
                acc = acc + coef * b
        span.add(_vectorize(acc))
    n = a.n
    return [Mat(n, n, [row[i * n:(i + 1) * n] for i in range(n)])
            for row in span.canonical_rows()]


# -- routines only the tests use -----------------------------------------------
#
# The package keeps only what a verb, the script or the benchmark reaches
# (`test_reachability`).  These build test inputs (matrix units, companion
# matrices, commutators, incidence algebras), check criterion 8 (the
# nonnegative basis), stand as the reference for a future structure
# engine (`is_simple`, on the Fraction `center` above and the engine's
# integer `linear.solve`), and type and check `structural_decomposition`.

def matrix_unit(n: int, i: int, j: int) -> Mat:
    """The n x n matrix with a single 1 at 1-based position (i, j)."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("position out of range")
    empty = (0,) * n
    return _mat(n, n, 1, (empty,) * (i - 1) + (_unit_row(n, j - 1),)
                + (empty,) * (n - i))


def companion(p: Poly) -> Mat:
    """Companion matrix of a monic polynomial of degree >= 1."""
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    q = p.monic()
    n = q.degree
    # den times the matrix: den on the subdiagonal, -num in the last column
    num = [[0] * n for _ in range(n)]
    for i in range(1, n):
        num[i][i - 1] = q.den
    for i in range(n):
        num[i][n - 1] = -q.num[i]
    return _normal(n, n, q.den, tuple(map(tuple, num)))


def commutator(a: Mat, b: Mat) -> Mat:
    if not (a.is_square and b.is_square and a.rows == b.rows):
        raise ValueError("size mismatch")
    return a @ b - b @ a


def is_simple(a: Algebra) -> bool:
    """Whether the algebra is simple as a real algebra.

    Radical first (trace-form kernel, exact in characteristic zero); a
    semisimple algebra is then simple iff its center is a field that stays
    a field over the reals: dimension 1, or dimension 2 with the quadratic
    minimal polynomial of a non-scalar central element having no real root.
    """
    nums = _numerators(a)
    gram = [[sum((x @ y).num[i][i] for i in range(a.n)) for y in nums]
            for x in nums]
    if rank(gram) < a.dim:
        return False  # nonzero radical is a proper ideal
    zc = center(a)
    if len(zc) == 1:
        return True
    if len(zc) > 2:
        return False
    z = next((m for m in zc if not _is_scalar(m)), None)
    if z is None:
        raise ArithmeticError("two-dimensional center without non-scalar element")
    # Solve Z^2 = (p I + r Z) / q for the numerators Z of z: the minimal
    # polynomial x^2 - (r/q) x - p/q of Z, a multiple of z, has a real root
    # iff that of z does, and its discriminant has the sign of r^2 + 4pq.
    zn = Mat.from_ints(a.n, a.n, 1, z.num)
    sol = linear.solve(list(zip(identity(a.n).numerators(),
                                zn.numerators())), (zn @ zn).numerators())
    if sol is None:
        raise ArithmeticError("central element square escapes its plane")
    q, (p, r) = sol
    return r * r + 4 * p * q < 0


def _is_scalar(m: Mat) -> bool:
    c = m.num[0][0]
    return all(m.num[i][j] == (c if i == j else 0)
               for i in range(m.rows) for j in range(m.cols))


def incidence_algebra(p: IncidencePattern) -> Algebra:
    """The span of the pattern's matrix units (closed by transitivity)."""
    return _from_span(p.n, _span_of(p.n, [matrix_unit(p.n, i, j).numerators()
                                          for (i, j) in p.positions]))


def nonneg_basis_from_generators(gens: Sequence[Mat]) -> list[Mat]:
    """A linearly independent, all-nonnegative spanning set of <gens>: the
    words of the nonnegative generators that `closure_words` retains."""
    if not gens:
        raise ValueError("empty generating set")
    for g in gens:
        if not is_nonneg(g):
            raise ValueError("generators must be nonnegative")
    basis, _ = closure_words(gens[0].rows, gens)
    if not all(is_nonneg(b) for b in basis):
        raise ArithmeticError("a selected word is not nonnegative")
    return basis


@dataclass(frozen=True)
class StructuralDecomposition:
    """Block upper-triangular presentation isolating a full matrix block.

    The conjugated algebra vanishes below the block diagonal with the
    stated sizes, the middle block compresses onto the full matrix algebra
    of its size, and the diagonal matrix unit at index l (1-based) belongs
    to the conjugated algebra.
    """

    transform: Mat
    sizes: tuple[int, int, int]
    l: int
    case: int


def _verify_decomposition(a: Algebra, d: StructuralDecomposition) -> None:
    n = a.n
    k1, k2, _ = d.sizes
    # The conjugated algebra is block triangular iff every matrix of its
    # basis is: the block-triangular matrices form a subspace.
    conj = conjugate_algebra(a, d.transform)
    s0, s1 = k1, k1 + k2
    for x in conj.basis:
        for i in range(s0, n):
            limit = s0 if i < s1 else s1
            for j in range(limit):
                if x.num[i][j]:
                    raise ArithmeticError("conjugated algebra is not block triangular")
    if not conj.contains(matrix_unit(n, d.l, d.l)):
        raise ArithmeticError("distinguished diagonal unit missing")
    mid = [x.submatrix(range(s0, s1), range(s0, s1)).numerators()
           for x in conj.basis]
    if rank(mid) != k2 * k2:
        raise ArithmeticError("distinguished block is not the full matrix algebra")
