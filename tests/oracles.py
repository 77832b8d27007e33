"""Independent oracles and samplers for the test suite.

These deliberately re-derive results through different algorithms than the
package: real-root counting by Descartes interval bisection instead of
Sturm chains, characteristic polynomials by Faddeev-LeVerrier instead of
the Hessenberg recurrence, algebra dimensions by a round-based
pairwise-product closure instead of the generator worklist, the closure
worklists as they were before early stopping and lazy admission, echelon
bases and products by textbook Fraction loops instead of the integer
kernel, and phase-1 simplex feasibility by a Fraction tableau instead of
the fraction-free integer one.
"""

from __future__ import annotations

import random
from fractions import Fraction

from algforge.matrices import Mat, identity, zero
from algforge.polynomials import Poly, poly_gcd

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


# -- round-based pairwise closure ------------------------------------------------

def brute_closure_dim(n: int, gens: list[Mat]) -> int:
    """Dimension of the unital algebra generated by gens, by re-multiplying
    the full current basis against itself and the generators every round
    until the dimension is stable for one full round."""
    from algforge.linear import EchelonSpan
    span = EchelonSpan(n * n)
    elements: list[Mat] = []

    def add(mat: Mat) -> None:
        if span.add(mat.vectorize()):
            elements.append(mat)

    add(identity(n))
    for g in gens:
        add(g)
    while True:
        before = span.dim
        snapshot = list(elements)
        for x in snapshot:
            for g in gens:
                add(x @ g)
                add(g @ x)
            for y in snapshot:
                add(x @ y)
        if span.dim == before:
            return span.dim


# -- the closure worklists without early stopping or lazy admission --------------

def eager_closure_words(n: int, gens: list[Mat]) -> list[Mat]:
    """The words the engine's left-generator worklist retains when it runs
    to the end: I, the generators, then every retained word times each
    generator on the left."""
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
    return words


def eager_verifier_closure(gens):
    """The verifier's right-generator worklist over every generator at
    once: I and all generators first, then every retained element times
    each generator on the right.  Returns (span, n) as `verify._closure`
    does."""
    from algforge.verify import CertificateError, _identity, _imul, _Span
    if not gens:
        raise CertificateError("closure of an empty generator list")
    # Words in the generators' integer rows are nonzero multiples of the
    # words in the generators, so they span the same algebra.
    ints = [rows for _, rows in gens]
    n = len(ints[0])
    if any(len(g) != n or any(len(row) != n for row in g) for g in ints):
        raise CertificateError("generators are not square of one size")
    span = _Span()
    kept: list[tuple[tuple[int, ...], ...]] = []

    def push(m: tuple[tuple[int, ...], ...]) -> None:
        if span.add([v for row in m for v in row]):
            kept.append(m)

    push(_identity(n))
    for g in ints:
        push(g)
    for x in kept:  # kept grows while it is walked: a FIFO worklist
        for g in ints:
            push(_imul(x, g))
    return span, n


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


# -- textbook Fraction linear algebra --------------------------------------------

def gauss_jordan(vectors, length: int) -> list[tuple[Fraction, ...]]:
    """Reduced row-echelon basis of the span of the vectors: Fraction
    Gauss-Jordan elimination, first nonzero pivot, each pivot row divided
    by its pivot and cleared from every other row."""
    rows = [[Fraction(v) for v in vec] for vec in vectors]
    r = 0
    for c in range(length):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivot = rows[r][c]
        rows[r] = [v / pivot for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return [tuple(row) for row in rows[:r]]


def textbook_product(a: Mat, b: Mat) -> Mat:
    """(a @ b)[i][j] = sum over k of a[i][k] * b[k][j], in Fractions."""
    return Mat(a.rows, b.cols, tuple(
        tuple(sum((a.data[i][k] * b.data[k][j] for k in range(a.cols)), ZERO)
              for j in range(b.cols))
        for i in range(a.rows)))


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
    from algforge.incidence import pattern_from_positions
    strict = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
              if rng.random() < 0.4]
    pattern = pattern_from_positions(n, strict, close=True)
    if not triangular:
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        pattern = pattern.relabel({i + 1: perm[i] for i in range(n)})
    return pattern


def random_nonneg_on_pattern(rng: random.Random, pattern) -> Mat:
    """Random matrix with positive rational entries exactly on the pattern."""
    n = pattern.n
    data = [[ZERO] * n for _ in range(n)]
    for (i, j) in pattern.positions:
        data[i - 1][j - 1] = Fraction(rng.randint(1, 9), rng.randint(1, 3))
    return Mat(n, n, tuple(tuple(row) for row in data))
