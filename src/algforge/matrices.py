"""Dense exact rational matrices and the constructions built on them.

A ``Mat`` is stored in one canonical integer form: a denominator
``den > 0`` and a tuple of integer rows ``num`` with gcd(den, every entry)
= 1, so the matrix is num / den and equal matrices have equal fields.
That form is a verifier grid, and the verifier's integer kernel does what
the two share: ``_canonical`` divides out the gcd of every result,
``mat_from_json`` reads with ``_grid`` (each distinct entry string once
per document, through one cache a loader passes for all its matrices),
``inverse`` runs ``_inverse`` through ``linear.invert``, and
``is_nonneg``, ``is_positive`` and ``support`` are ``_is_nonneg``,
``_is_positive`` and ``_support``.  Products, sums, transposes,
``poly_at`` (integer Horner) and the fixed constructors run on the
integers.  Every rational passed in is an int or a Fraction (or a string
``Mat.from_rows`` parses); a float raises TypeError.  A rational
vector is a ``1 x n`` Mat: ``stack`` and ``kernel`` build such rows, and
a matrix acts on them as ``v @ A.transpose()``.  A Fraction is built
only where a caller passes one in or reads ``A.data``, a read-only grid
built on first use, or ``uniform_norm``.  ``A.data[i][j]`` is 0-based; a
support is a frozenset of 1-based (row, column) positions, as is all
serialized position data.  Matrices are immutable, hashable and safe to
share.

Zero-size matrices are legal and act as absent direct summands.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add, mul, sub
from typing import Iterable, Sequence

from . import linear
from .polynomials import Poly, _exact, wire_rational
from .verify import _canonical, _grid, _is_nonneg, _is_positive, _support

Rows = tuple[tuple[int, ...], ...]


class Mat:
    """The rows x cols matrix num / den, in canonical form: den > 0 and
    gcd(den, every entry of num) = 1.  `Mat(rows, cols, data)` takes a grid
    of Fraction or int entries; any other entry raises TypeError."""

    rows: int
    cols: int
    den: int
    num: Rows

    def __init__(self, rows: int, cols: int,
                 data: Iterable[Iterable[int | Fraction]]):
        grid = [tuple([_exact(v) for v in row]) for row in data]
        if len(grid) != rows or any(len(row) != cols for row in grid):
            raise ValueError("entry grid does not match declared shape")
        # Star-unpack lists, not generators: a generator's tuple is resized
        # to its length, which leaves tuples piling up in the interpreter's
        # per-length free lists (several MiB of peak memory).  The lcm of
        # the reduced denominators leaves no common factor with the
        # scaled numerators, so the result is canonical.
        den = lcm(*[v.denominator for row in grid for v in row])
        vars(self).update(rows=rows, cols=cols, den=den, num=tuple(
            tuple(v.numerator * (den // v.denominator) for v in row)
            for row in grid))

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int | str | Fraction]]) -> Mat:
        grid = [[_exact(v, parse=True) for v in row] for row in rows]
        r = len(grid)
        c = len(grid[0]) if r else 0
        if any(len(row) != c for row in grid):
            raise ValueError("ragged rows")
        return Mat(r, c, grid)

    @staticmethod
    def from_ints(rows: int, cols: int, den: int,
                  num: Iterable[Iterable[int]]) -> Mat:
        """The matrix num / den for an integer grid and a nonzero integer
        denominator, brought to canonical form."""
        grid = tuple(map(tuple, num))
        if len(grid) != rows or any(len(row) != cols for row in grid):
            raise ValueError("entry grid does not match declared shape")
        if not den:
            raise ZeroDivisionError("zero denominator")
        return _normal(rows, cols, den, grid)

    def __setattr__(self, *args):
        raise AttributeError("Mat is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.rows, self.cols, self.den, self.num) == \
            (other.rows, other.cols, other.den, other.num)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.den, self.num))

    def __repr__(self) -> str:
        return f"Mat({self.rows}, {self.cols}, {self.data!r})"

    @cached_property
    def data(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as a Fraction grid, built on first use."""
        d = self.den
        return tuple(tuple(Fraction(v, d) for v in row) for row in self.num)

    @cached_property
    def inverse(self) -> Mat:
        """The inverse, computed by one integer Gauss-Jordan run on first
        use unless `with_inverse` stored it.  Raises ValueError when the
        matrix is not square or is singular."""
        if not self.is_square:
            raise ValueError("inverse of a non-square matrix")
        # (num / den)^-1 = den num^-1 = den M / d
        d, inv = linear.invert(self.num)
        return _normal(self.rows, self.cols, d,
                       tuple(tuple(self.den * v for v in row) for row in inv))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def _merge(self, other: Mat, op) -> Mat:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("size mismatch")
        d = lcm(self.den, other.den)
        fa, fb = d // self.den, d // other.den
        return _normal(self.rows, self.cols, d, tuple(
            tuple(op(fa * a, fb * b) for a, b in zip(ra, rb))
            for ra, rb in zip(self.num, other.num)))

    def __add__(self, other: Mat) -> Mat:
        return self._merge(other, add)

    def __sub__(self, other: Mat) -> Mat:
        return self._merge(other, sub)

    def __neg__(self) -> Mat:
        return _mat(self.rows, self.cols, self.den,
                    tuple(tuple(-v for v in row) for row in self.num))

    def __mul__(self, c: int | Fraction) -> Mat:
        if not isinstance(c, (int, Fraction)):
            return NotImplemented
        p = c.numerator
        return _normal(self.rows, self.cols, self.den * c.denominator,
                       tuple(tuple(p * v for v in row) for row in self.num))

    __rmul__ = __mul__

    def __matmul__(self, other: Mat) -> Mat:
        if self.cols != other.rows:
            raise ValueError("size mismatch")
        b = other.num
        bt = tuple(zip(*b)) if b else ((),) * other.cols
        out = tuple(tuple(sum(map(mul, row, col)) for col in bt)
                    for row in self.num)
        return _normal(self.rows, other.cols, self.den * other.den, out)

    def transpose(self) -> Mat:
        num = tuple(zip(*self.num)) if self.rows else ((),) * self.cols
        return _mat(self.cols, self.rows, self.den, num)

    def numerators(self) -> tuple[int, ...]:
        """Row-major integer numerators: den times the row-major
        flattening (the coordinate system for algebra bases), a positive
        multiple of it, which spans and supports need no more than."""
        return tuple(v for row in self.num for v in row)

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> Mat:
        num = self.num
        return _normal(len(rows), len(cols), self.den,
                       tuple(tuple(num[i][j] for j in cols) for i in rows))

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(v) for v in row) for row in self.data) + "]"


def _mat(rows: int, cols: int, den: int, num: Rows) -> Mat:
    """A Mat from fields already in canonical form."""
    m = object.__new__(Mat)
    vars(m).update(rows=rows, cols=cols, den=den, num=num)
    return m


def _normal(rows: int, cols: int, den: int, num: Rows) -> Mat:
    """The Mat num / den for any nonzero den: the sign moved into num, then
    the verifier's `_canonical` divides out the common factor."""
    if den < 0:
        den, num = -den, tuple([tuple([-v for v in row]) for row in num])
    return _mat(rows, cols, *_canonical(den, num))


# -- constructors -----------------------------------------------------------

def _unit_row(n: int, j: int) -> tuple[int, ...]:
    """Row j (0-based) of the n x n identity."""
    return (0,) * j + (1,) + (0,) * (n - j - 1)


def zero(rows: int, cols: int | None = None) -> Mat:
    cols = rows if cols is None else cols
    return _mat(rows, cols, 1, ((0,) * cols,) * rows)


def identity(n: int) -> Mat:
    return _mat(n, n, 1, tuple(_unit_row(n, i) for i in range(n)))


def ones(n: int) -> Mat:
    return _mat(n, n, 1, ((1,) * n,) * n)


def jordan_cell(k: int, lam: int | Fraction) -> Mat:
    """Upper Jordan cell of size k for the eigenvalue lam."""
    p, q = _exact(lam).as_integer_ratio()
    return _normal(k, k, q, tuple(tuple(
        p if i == j else (q if j == i + 1 else 0) for j in range(k))
        for i in range(k)))


def permutation_matrix(images: Sequence[int]) -> Mat:
    """Permutation matrix P with P e_c = e_{images[c]} (0-based images)."""
    n = len(images)
    if sorted(images) != list(range(n)):
        raise ValueError("not a permutation")
    cols = [0] * n
    for c, r in enumerate(images):
        cols[r] = c
    return _mat(n, n, 1, tuple(_unit_row(n, c) for c in cols))


def regular_triangular(p: int, q: int, values: Sequence[int | Fraction]) -> Mat:
    """Regular upper-triangular p x q form from min(p, q) parameters.

    Square case: upper-triangular Toeplitz with values[d] on diagonal d.
    Wide case (q > p): zero block on the left, square form on the right.
    Tall case (p > q): square form on top, zero block below.
    """
    m = min(p, q)
    if len(values) != m:
        raise ValueError("need min(p, q) parameters")
    den = lcm(*[_exact(v).denominator for v in values])
    vals = [v.numerator * (den // v.denominator) for v in values]
    num = [[0] * q for _ in range(p)]
    coff = q - m
    for i in range(m):
        for j in range(i, m):
            num[i][coff + j] = vals[j - i]
    return _normal(p, q, den, tuple(map(tuple, num)))


def uniformizer(n: int) -> Mat:
    """The invertible matrix conjugating the last diagonal matrix unit into
    the flat rank-one idempotent ones(n)/n.  Defined for n >= 2."""
    if n < 2:
        raise ValueError("uniformizer needs n >= 2")
    # n times the matrix: n - 1 on the superdiagonal and -1 elsewhere in
    # the first n - 1 rows, a last row of ones
    return _mat(n, n, n, tuple(
        tuple(n - 1 if j == i + 1 else -1 for j in range(n))
        for i in range(n - 1)) + ((1,) * n,))


def uniformizer_inv(n: int) -> Mat:
    """Exact inverse of uniformizer(n), in closed form."""
    if n < 2:
        raise ValueError("uniformizer needs n >= 2")
    first = (-1,) * (n - 1) + (1,)
    return _mat(n, n, 1, (first,) + tuple(
        _unit_row(n - 1, i) + (1,) for i in range(n - 1)))


def direct_sum(blocks: Iterable[Mat]) -> Mat:
    """Block-diagonal sum of square matrices; zero-size blocks are skipped."""
    blocks = list(blocks)
    for b in blocks:
        if not b.is_square:
            raise ValueError("direct summands must be square")
    n = sum(b.rows for b in blocks)
    # Every block is canonical, so no prime of the lcm divides all entries.
    den = lcm(*[b.den for b in blocks])
    num: list[tuple[int, ...]] = []
    for b in blocks:
        f = den // b.den
        left, right = (0,) * len(num), (0,) * (n - len(num) - b.rows)
        num.extend(left + (row if f == 1 else tuple(f * v for v in row))
                   + right for row in b.num)
    return _mat(n, n, den, tuple(num))


# -- core operations --------------------------------------------------------

def inverse(a: Mat) -> Mat:
    """A^-1, computed once per matrix and then shared (`Mat.inverse`)."""
    return a.inverse


def with_inverse(c: Mat, c_inv: Mat) -> Mat:
    """C, with C_inv stored as its `Mat.inverse` once C C_inv = I is
    checked; raises ArithmeticError, storing nothing, otherwise."""
    if not (c.is_square and c_inv.is_square and c.rows == c_inv.rows) \
            or c @ c_inv != identity(c.rows):
        raise ArithmeticError("matrix is not the inverse")
    vars(c)["inverse"] = c_inv
    return c


def stack(mats: Sequence[Mat]) -> Mat:
    """Vertical concatenation of a nonempty list of matrices with equal
    column counts."""
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValueError("size mismatch")
    # Every block is canonical, so no prime of the lcm divides all entries.
    den = lcm(*[m.den for m in mats])
    return _mat(sum(m.rows for m in mats), cols, den, tuple(
        row if m.den == den else tuple(den // m.den * v for v in row)
        for m in mats for row in m.num))


def kernel(a: Mat) -> list[Mat]:
    """The canonical basis of {x : A x = 0} as 1 x cols rows, one per free
    column of A, which holds 1 there and 0 at the other free columns: each
    `linear.nullspace` vector over its last nonzero entry, its free one."""
    return [_normal(1, a.cols, next(v for v in reversed(vec) if v),
                    (tuple(vec),))
            for vec in linear.nullspace(a.num, a.cols)]


def conjugate(a: Mat, c: Mat) -> Mat:
    """Exact C^{-1} A C.  Raises ValueError when C is singular."""
    if not (a.is_square and c.is_square and a.rows == c.rows):
        raise ValueError("size mismatch")
    return inverse(c) @ a @ c


def poly_at(p: Poly, a: Mat) -> Mat:
    """Evaluate a polynomial at a square matrix, by integer Horner.

    With p = sum c_i x^i / e of degree k and A = N / d,
    p(A) = (sum c_i d^(k-i) N^i) / (e d^k), and the integer sum is
    acc <- acc N + c_i d^(k-i) I from i = k down to 0."""
    if not a.is_square:
        raise ValueError("matrix must be square")
    n = a.rows
    if p.is_zero:
        return zero(n)
    cols = tuple(zip(*a.num))
    top = p.num[-1]
    acc = [[top if i == j else 0 for j in range(n)] for i in range(n)]
    scale = 1
    for c in reversed(p.num[:-1]):
        scale *= a.den
        acc = [[sum(map(mul, row, col)) for col in cols] for row in acc]
        if c:
            for i in range(n):
                acc[i][i] += c * scale
    return _normal(n, n, p.den * scale, tuple(map(tuple, acc)))


def is_nonneg(a: Mat) -> bool:
    return _is_nonneg((a.den, a.num))


def is_positive(a: Mat) -> bool:
    """Whether every entry is positive and there is one: a matrix with no
    entries is not positive."""
    return _is_positive((a.den, a.num))


def uniform_norm(a: Mat) -> Fraction:
    """Max absolute entry; 0 for empty matrices."""
    return Fraction(max((abs(v) for row in a.num for v in row), default=0),
                    a.den)


# -- supports ----------------------------------------------------------------

def support(a: Mat) -> frozenset[tuple[int, int]]:
    """The 1-based positions of A's nonzero entries."""
    if not a.is_square:
        raise ValueError("support is defined for square matrices")
    return frozenset(_support((a.den, a.num)))


def support_union(mats: Iterable[Mat]) -> frozenset[tuple[int, int]]:
    """The 1-based positions at which some matrix of a nonempty list of
    square matrices of one size is nonzero."""
    mats = list(mats)
    if not mats:
        raise ValueError("empty set has no support")
    n = mats[0].rows
    if not all(m.is_square and m.rows == n for m in mats):
        raise ValueError("size mismatch")
    return frozenset().union(*[_support((m.den, m.num)) for m in mats])


# -- serialization -----------------------------------------------------------

def mat_to_json(a: Mat) -> dict:
    """The wire matrix; an integer matrix writes each entry as `str(v)`,
    which is what `wire_rational(v, 1)` writes, without its gcd."""
    if a.den == 1:
        entries = [list(map(str, row)) for row in a.num]
    else:
        entries = [[wire_rational(v, a.den) for v in row] for row in a.num]
    return {"rows": a.rows, "cols": a.cols, "entries": entries}


def mat_from_json(obj: dict, parsed: dict[str, tuple[int, int]]) -> Mat:
    """The Mat of a wire matrix, read by the verifier's `_grid`.  `parsed`
    maps each entry string read so far to its `_rational` pair; a loader
    passes one dict for every matrix of a document, so each distinct
    string is parsed once per document.  `_grid` reads `entries` without a
    guard, so an object that is no dict holding one is refused here."""
    if not (isinstance(obj, dict) and "entries" in obj):
        raise ValueError("matrix needs rows, cols and entries")
    den, num = _grid(obj, parsed)
    return _mat(obj["rows"], obj["cols"], den, num)
