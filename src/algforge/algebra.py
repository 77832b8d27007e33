"""Unital matrix algebras as echelonized bases closed under products.

The basis is the reduced row-echelon basis of the algebra's row-major
vectorization, so equal algebras have identical bases and equality is a
plain comparison.  Spans take each matrix's integer numerators (a positive
multiple of its vectorization), and each basis matrix is read straight off
a primitive integer echelon row, whose pivot is its canonical denominator.
Generation uses a worklist that multiplies each newly independent word on
the left by every generator.  The span this reaches contains I and is
mapped into itself by left multiplication with each generator, so it
contains every word in the generators and is closed under products.
Closedness is a type guarantee: `Algebra(n, mats)` checks it, and the
builders' trusted `_from_span` keeps the span they already hold.
`generates` decides whether a list generates a known algebra by closing
it and comparing the canonical spans.  `center`, `centralizer` and
`is_simple` solve their linear systems on integer numerators: the basis
numerators span the algebra as the basis does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul
from typing import Iterable, Sequence

from . import simplex
from .incidence import IncidencePattern
from .linear import EchelonSpan, nullspace, rank, solve
from .matrices import (Mat, Support, direct_sum, identity, inverse,
                       mat_from_json, mat_to_json, matrix_unit, span_rows,
                       support_union, zero)


@dataclass(frozen=True)
class Algebra:
    """A unital matrix algebra with canonical echelon basis.  Raises
    ValueError unless the n x n mats are independent and their span holds
    I and is closed under products; keeps that span's canonical basis."""

    n: int
    basis: tuple[Mat, ...]
    _span: EchelonSpan = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, mats = self.n, tuple(self.basis)
        if not (type(n) is int and n >= 0):
            raise ValueError("algebra size must be a nonnegative integer")
        if not all(m.is_square and m.rows == n for m in mats):
            raise ValueError("basis matrix size mismatch")
        span = _span_of(n, [m.numerators() for m in mats])
        if span.dim != len(mats):
            raise ValueError("basis is linearly dependent")
        vars(self).update(basis=tuple(_span_mats(n, span)), _span=span)
        if not self.is_unital():
            raise ValueError("algebra is not unital")
        if not self.is_closed():
            raise ValueError("span is not closed under products")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, x: Mat) -> bool:
        if not (x.is_square and x.rows == self.n):
            raise ValueError("size mismatch")
        return self._span.contains(x.numerators())

    def support(self) -> Support:
        return support_union(self.basis)

    def is_closed(self) -> bool:
        """Check span closure under all pairwise basis products."""
        sp = self._span
        return all(sp.contains((a @ b).numerators())
                   for a in self.basis for b in self.basis)

    def is_unital(self) -> bool:
        return self.contains(identity(self.n))


def _span_of(n: int, vecs: Iterable[Sequence[int]]) -> EchelonSpan:
    """The span of integer vectors of length n * n."""
    span = EchelonSpan(n * n)
    for v in vecs:
        span.add(v)
    return span


def _span_mats(n: int, span: EchelonSpan) -> list[Mat]:
    """The span's canonical rows as n x n matrices."""
    return [Mat.from_ints(n, n, r.den, [r.num[0][i * n:(i + 1) * n]
                                        for i in range(n)])
            for r in span_rows(span)]


def _from_span(n: int, span: EchelonSpan) -> Algebra:
    """Trusted: span must be a closed unital algebra; it is kept as is."""
    a = object.__new__(Algebra)
    vars(a).update(n=n, basis=tuple(_span_mats(n, span)), _span=span)
    return a


def closure_words(n: int,
                  gens: Iterable[Mat]) -> tuple[list[Mat], EchelonSpan]:
    """Independent words spanning the unital algebra generated by gens.

    Worklist: I and the generators first, then every retained word is
    multiplied on the left by each generator, keeping the products that
    enlarge the span.  Returns the retained words in insertion order and
    their span.
    """
    gens = list(gens)
    for g in gens:
        if not (g.is_square and g.rows == n):
            raise ValueError("generator size mismatch")
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


def generates(a: Algebra, gens: Iterable[Mat]) -> bool:
    """Whether gens generate exactly the algebra a: the closure's echelon
    rows are canonical, so equal spans have equal rows."""
    return closure_words(a.n, gens)[1] == a._span


def generate(n: int, gens: Iterable[Mat]) -> Algebra:
    """Smallest unital algebra containing the generators.

    An empty generator list yields span{I}.
    """
    return _from_span(n, closure_words(n, gens)[1])


def conjugate_algebra(a: Algebra, c: Mat) -> Algebra:
    """Basis-wise conjugation C^{-1} A C, re-echelonized."""
    cinv = inverse(c)
    return _from_span(a.n, _span_of(a.n, [(cinv @ b @ c).numerators()
                                          for b in a.basis]))


def algebra_direct_sum(a: Algebra, b: Algebra) -> Algebra:
    """Block-diagonal sum {X (+) Y : X in A, Y in B}."""
    n = a.n + b.n
    zb, za = zero(b.n), zero(a.n)
    blocks = ([direct_sum([x, zb]) for x in a.basis]
              + [direct_sum([za, y]) for y in b.basis])
    return _from_span(n, _span_of(n, [m.numerators() for m in blocks]))


def covering_matrix(a: Algebra) -> Mat:
    """A member whose support is the support of the whole algebra.

    Accumulates basis elements with deterministic coefficients: each
    coefficient is the smallest positive integer that avoids cancelling any
    entry at an already-covered position.
    """
    acc = zero(a.n)
    for b in a.basis:
        # acc + c b vanishes at an entry iff c = -(x / da) / (y / db), that
        # is c * da * y == -x * db; only positive integers c matter.
        da, db = acc.den, b.den
        bad = set()
        for xr, yr in zip(acc.num, b.num):
            for x, y in zip(xr, yr):
                if y and not (x * db) % (da * y):
                    bad.add(-x * db // (da * y))
        c = 1
        while c in bad:
            c += 1
        acc = acc + c * b
    return acc


def nonneg_covering_exists(a: Algebra) -> Mat | None:
    """A nonnegative covering matrix in the algebra, or None.

    Exact rational feasibility: find coefficients x with sum x_k B_k at
    least 1 on every support position (entries off the support vanish
    identically, and by homogeneity strict positivity reduces to >= 1).
    """
    omega = a.support().sorted_positions()
    # Column k holds the numerators N_k = d_k B_k: scaling a variable by
    # d_k > 0 changes no pivot, and sum y_k N_k = sum x_k B_k.
    rows = [[b.num[i - 1][j - 1] for b in a.basis] for (i, j) in omega]
    y = simplex.feasible_ge(rows, [1] * len(rows))
    if y is None:
        return None
    acc = zero(a.n)
    for coef, b in zip(y, _numerators(a)):
        if coef:
            acc = acc + coef * b
    return acc


def two_sided_ideal(a: Algebra, x: Mat) -> list[Mat]:
    """Echelon basis of the two-sided ideal generated by x inside a."""
    if not a.contains(x):
        raise ValueError("element is not in the algebra")
    left = [p @ x for p in a.basis]
    return _span_mats(a.n, _span_of(a.n, [(px @ q).numerators()
                                          for px in left for q in a.basis]))


def _numerators(a: Algebra) -> list[Mat]:
    """The basis numerators N_k of B_k = N_k / d_k, as integer matrices:
    sum y_k N_k runs over the algebra as sum x_k B_k does."""
    return [Mat.from_ints(a.n, a.n, 1, b.num) for b in a.basis]


def center(a: Algebra) -> list[Mat]:
    """Echelon basis of {X in A : XB = BX for every B in A}."""
    nums = _numerators(a)
    rows = []
    for b in nums:
        comm = [(c @ b - b @ c).numerators() for c in nums]
        rows += [row for row in zip(*comm) if any(row)]
    flat = [b.numerators() for b in nums]
    return _span_mats(a.n, _span_of(a.n, [
        [sum(map(mul, y, col)) for col in zip(*flat)]
        for y in nullspace(rows, a.dim)[1]]))


def centralizer(m: Mat) -> Algebra:
    """The full algebra {X : MX = XM}, returned closed and unital."""
    if not m.is_square:
        raise ValueError("matrix must be square")
    n, num = m.rows, m.num  # den * M has the same centralizer as M
    rows = []
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            for k in range(n):
                row[k * n + j] += num[i][k]
            for l in range(n):
                row[i * n + l] -= num[l][j]
            if any(row):
                rows.append(row)
    alg = _from_span(n, _span_of(n, nullspace(rows, n * n)[1]))
    if not (alg.is_unital() and alg.is_closed()):
        raise ArithmeticError("centralizer failed closure check")
    return alg


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
    sol = solve(list(zip(identity(a.n).numerators(), zn.numerators())),
                (zn @ zn).numerators())
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


# -- serialization -----------------------------------------------------------

def algebra_to_json(a: Algebra) -> dict:
    return {"n": a.n, "basis": [mat_to_json(b) for b in a.basis]}


def algebra_from_json(obj: dict) -> Algebra:
    """Load an algebra; the `Algebra` constructor re-verifies it."""
    return Algebra(obj["n"], tuple(mat_from_json(m) for m in obj["basis"]))
