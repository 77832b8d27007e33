"""Dense exact rational matrices and the constructions built on them.

``Mat`` is a frozen dataclass over a tuple of row tuples of Fraction, so
matrices are immutable, hashable and safe to share.  Products run on
integers: each operand is an integer matrix over one common denominator,
computed on first use and cached on the instance, and ``A @ B`` builds one
Fraction per output entry from the integer product.  Raw entry access via
``A.data[i][j]`` is 0-based; ``Support`` positions (and all serialized
position data) are 1-based (row, column) pairs.

Zero-size matrices are legal and act as absent direct summands.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Iterable, Sequence

from . import linear
from .polynomials import Poly

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Mat:
    rows: int
    cols: int
    data: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int | str | Fraction]]) -> Mat:
        data = tuple(tuple(Fraction(v) for v in row) for row in rows)
        r = len(data)
        c = len(data[0]) if r else 0
        if any(len(row) != c for row in data):
            raise ValueError("ragged rows")
        return Mat(r, c, data)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __add__(self, other: Mat) -> Mat:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("size mismatch")
        return Mat(self.rows, self.cols, tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.data, other.data)))

    def __sub__(self, other: Mat) -> Mat:
        return self + (-other)

    def __neg__(self) -> Mat:
        return Mat(self.rows, self.cols,
                   tuple(tuple(-a for a in row) for row in self.data))

    def __mul__(self, c: int | Fraction) -> Mat:
        c = Fraction(c)
        return Mat(self.rows, self.cols,
                   tuple(tuple(c * a for a in row) for row in self.data))

    __rmul__ = __mul__

    @cached_property
    def _scaled(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(d, N) with N the integer matrix d * self, d the lcm of the
        denominators."""
        # Star-unpack lists, not generators: a generator's tuple is resized
        # to its length, which leaves tuples piling up in the interpreter's
        # per-length free lists (several MiB of peak memory).
        d = lcm(*[v.denominator for row in self.data for v in row])
        return d, tuple(tuple(v.numerator * (d // v.denominator) for v in row)
                        for row in self.data)

    def __matmul__(self, other: Mat) -> Mat:
        if self.cols != other.rows:
            raise ValueError("size mismatch")
        da, a = self._scaled
        db, b = other._scaled
        d = da * db
        bt = tuple(zip(*b)) if b else ((),) * other.cols
        out = tuple(tuple(Fraction(sum(map(mul, row, col)), d) for col in bt)
                    for row in a)
        return Mat(self.rows, other.cols, out)

    def transpose(self) -> Mat:
        return Mat(self.cols, self.rows, tuple(zip(*self.data)) if self.data else ())

    def vectorize(self) -> tuple[Fraction, ...]:
        """Row-major flattening, the coordinate system for algebra bases."""
        return tuple(v for row in self.data for v in row)

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> Mat:
        return Mat(len(rows), len(cols),
                   tuple(tuple(self.data[i][j] for j in cols) for i in rows))

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.data)

    def apply(self, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(vec) != self.cols:
            raise ValueError("size mismatch")
        return tuple(sum((a * v for a, v in zip(row, vec) if a and v), ZERO)
                     for row in self.data)

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(v) for v in row) for row in self.data) + "]"


def mat_from_vector(n: int, vec: Sequence[Fraction], cols: int | None = None) -> Mat:
    cols = n if cols is None else cols
    return Mat(n, cols, tuple(tuple(vec[i * cols + j] for j in range(cols))
                              for i in range(n)))


# -- constructors -----------------------------------------------------------

def zero(rows: int, cols: int | None = None) -> Mat:
    cols = rows if cols is None else cols
    return Mat(rows, cols, tuple(tuple(ZERO for _ in range(cols)) for _ in range(rows)))


def identity(n: int) -> Mat:
    return Mat(n, n, tuple(tuple(ONE if i == j else ZERO for j in range(n))
                           for i in range(n)))


def ones(n: int) -> Mat:
    return Mat(n, n, tuple(tuple(ONE for _ in range(n)) for _ in range(n)))


def matrix_unit(n: int, i: int, j: int) -> Mat:
    """The n x n matrix with a single 1 at 1-based position (i, j)."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("position out of range")
    return Mat(n, n, tuple(tuple(ONE if (r, c) == (i - 1, j - 1) else ZERO
                                 for c in range(n)) for r in range(n)))


def jordan_cell(k: int, lam: int | Fraction) -> Mat:
    """Upper Jordan cell of size k for the eigenvalue lam."""
    lam = Fraction(lam)
    return Mat(k, k, tuple(tuple(
        lam if i == j else (ONE if j == i + 1 else ZERO) for j in range(k))
        for i in range(k)))


def permutation_matrix(images: Sequence[int]) -> Mat:
    """Permutation matrix P with P e_c = e_{images[c]} (0-based images)."""
    n = len(images)
    if sorted(images) != list(range(n)):
        raise ValueError("not a permutation")
    data = [[ZERO] * n for _ in range(n)]
    for c, r in enumerate(images):
        data[r][c] = ONE
    return Mat(n, n, tuple(tuple(row) for row in data))


def regular_triangular(p: int, q: int, values: Sequence[int | Fraction]) -> Mat:
    """Regular upper-triangular p x q form from min(p, q) parameters.

    Square case: upper-triangular Toeplitz with values[d] on diagonal d.
    Wide case (q > p): zero block on the left, square form on the right.
    Tall case (p > q): square form on top, zero block below.
    """
    m = min(p, q)
    if len(values) != m:
        raise ValueError("need min(p, q) parameters")
    vals = [Fraction(v) for v in values]
    sq = [[vals[j - i] if 0 <= j - i < m else ZERO for j in range(m)]
          for i in range(m)]
    data = [[ZERO] * q for _ in range(p)]
    roff = 0
    coff = q - p if q > p else 0
    for i in range(m):
        for j in range(m):
            data[roff + i][coff + j] = sq[i][j]
    return Mat(p, q, tuple(tuple(row) for row in data))


def uniformizer(n: int) -> Mat:
    """The invertible matrix conjugating the last diagonal matrix unit into
    the flat rank-one idempotent ones(n)/n.  Defined for n >= 2."""
    if n < 2:
        raise ValueError("uniformizer needs n >= 2")
    data = [[ZERO] * n for _ in range(n)]
    inv_n = Fraction(1, n)
    for i in range(n - 1):
        for j in range(n):
            data[i][j] = (Fraction(n - 1, n) if j == i + 1 else -inv_n)
    for j in range(n):
        data[n - 1][j] = inv_n
    return Mat(n, n, tuple(tuple(row) for row in data))


def uniformizer_inv(n: int) -> Mat:
    """Exact inverse of uniformizer(n), in closed form."""
    if n < 2:
        raise ValueError("uniformizer needs n >= 2")
    data = [[ZERO] * n for _ in range(n)]
    for j in range(n - 1):
        data[0][j] = -ONE
    data[0][n - 1] = ONE
    for i in range(1, n):
        data[i][i - 1] = ONE
        data[i][n - 1] = ONE
    return Mat(n, n, tuple(tuple(row) for row in data))


def direct_sum(blocks: Iterable[Mat]) -> Mat:
    """Block-diagonal sum of square matrices; zero-size blocks are skipped."""
    blocks = list(blocks)
    for b in blocks:
        if not b.is_square:
            raise ValueError("direct summands must be square")
    n = sum(b.rows for b in blocks)
    data = [[ZERO] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                data[off + i][off + j] = b.data[i][j]
        off += b.rows
    return Mat(n, n, tuple(tuple(row) for row in data))


def companion(p: Poly) -> Mat:
    """Companion matrix of a monic polynomial of degree >= 1."""
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    q = p.monic()
    n = q.degree
    data = [[ZERO] * n for _ in range(n)]
    for i in range(1, n):
        data[i][i - 1] = ONE
    for i in range(n):
        data[i][n - 1] = -q.coeffs[i]
    return Mat(n, n, tuple(tuple(row) for row in data))


# -- core operations --------------------------------------------------------

def inverse(a: Mat) -> Mat:
    if not a.is_square:
        raise ValueError("inverse of a non-square matrix")
    inv = linear.invert([list(row) for row in a.data])
    return Mat(a.rows, a.cols, tuple(tuple(row) for row in inv))


def conjugate(a: Mat, c: Mat) -> Mat:
    """Exact C^{-1} A C.  Raises ValueError when C is singular."""
    if not (a.is_square and c.is_square and a.rows == c.rows):
        raise ValueError("size mismatch")
    return inverse(c) @ a @ c


def poly_at(p: Poly, a: Mat) -> Mat:
    """Evaluate a polynomial at a square matrix (Horner)."""
    if not a.is_square:
        raise ValueError("matrix must be square")
    acc = zero(a.rows)
    ident = identity(a.rows)
    for c in reversed(p.coeffs):
        acc = acc @ a + c * ident
    return acc


def commutator(a: Mat, b: Mat) -> Mat:
    if not (a.is_square and b.is_square and a.rows == b.rows):
        raise ValueError("size mismatch")
    return a @ b - b @ a


def is_nonneg(a: Mat) -> bool:
    return all(v >= 0 for row in a.data for v in row)


def is_positive(a: Mat) -> bool:
    return bool(a.data) and all(v > 0 for row in a.data for v in row)


def is_monomial_nonneg(a: Mat) -> bool:
    """Nonnegative with exactly one (positive) entry per row and column."""
    if not a.is_square or not is_nonneg(a):
        return False
    n = a.rows
    col_hits = [0] * n
    for row in a.data:
        nz = [j for j, v in enumerate(row) if v]
        if len(nz) != 1:
            return False
        col_hits[nz[0]] += 1
    return all(h == 1 for h in col_hits)


def uniform_norm(a: Mat) -> Fraction:
    """Max absolute entry; 0 for empty matrices."""
    return max((abs(v) for row in a.data for v in row), default=ZERO)


def min_support_entry(a: Mat) -> Fraction:
    """Smallest entry over the support of a nonnegative nonzero matrix."""
    if not is_nonneg(a):
        raise ValueError("matrix is not nonnegative")
    vals = [v for row in a.data for v in row if v]
    if not vals:
        raise ValueError("zero matrix has no support")
    return min(vals)


def semi_commute(a: Mat, b: Mat) -> str:
    """Classify [a, b] as 'nonneg', 'nonpos', or 'neither'.

    A zero commutator is reported as 'nonneg' (it is both)."""
    c = commutator(a, b)
    if is_nonneg(c):
        return "nonneg"
    if is_nonneg(-c):
        return "nonpos"
    return "neither"


# -- supports ----------------------------------------------------------------

@dataclass(frozen=True)
class Support:
    """Set of 1-based positions at which some matrix of a set is nonzero."""

    n: int
    positions: frozenset[tuple[int, int]]

    def __post_init__(self):
        for (i, j) in self.positions:
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError("position out of range")

    def sorted_positions(self) -> list[tuple[int, int]]:
        return sorted(self.positions)


def support(a: Mat) -> Support:
    if not a.is_square:
        raise ValueError("support is defined for square matrices")
    pos = frozenset((i + 1, j + 1)
                    for i, row in enumerate(a.data)
                    for j, v in enumerate(row) if v)
    return Support(a.rows, pos)


def support_union(mats: Iterable[Mat]) -> Support:
    mats = list(mats)
    if not mats:
        raise ValueError("empty set has no support")
    n = mats[0].rows
    pos: set[tuple[int, int]] = set()
    for m in mats:
        if not (m.is_square and m.rows == n):
            raise ValueError("size mismatch")
        for i, row in enumerate(m.data):
            for j, v in enumerate(row):
                if v:
                    pos.add((i + 1, j + 1))
    return Support(n, frozenset(pos))


# -- serialization -----------------------------------------------------------

def mat_to_json(a: Mat) -> dict:
    return {"rows": a.rows, "cols": a.cols,
            "entries": [[str(v) for v in row] for row in a.data]}


_RATIONAL = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def _rational(s: str) -> Fraction:
    """Parse a wire rational, which must read exactly as `str(Fraction)`
    writes it: "p" or "p/q" in lowest terms with q > 1.  The pattern test
    comes first, so exponent forms like "1e400" never build a big int."""
    if isinstance(s, str) and _RATIONAL.fullmatch(s):
        value = Fraction(s)
        if str(value) == s:
            return value
    raise ValueError(f"not a canonical rational: {s!r}")


def mat_from_json(obj: dict) -> Mat:
    rows, cols = obj["rows"], obj["cols"]
    entries = obj["entries"]
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise ValueError("entry grid does not match declared shape")
    return Mat(rows, cols, tuple(tuple(_rational(v) for v in row)
                                 for row in entries))


def support_to_json(s: Support) -> dict:
    return {"n": s.n, "positions": [list(p) for p in s.sorted_positions()]}


def support_from_json(obj: dict) -> Support:
    return Support(obj["n"], frozenset((i, j) for i, j in obj["positions"]))
