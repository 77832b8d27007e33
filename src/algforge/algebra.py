"""Unital matrix algebras as echelonized bases closed under products.

The basis is the reduced row-echelon basis of the algebra's row-major
vectorization, so equal algebras have identical bases and equality is a
plain comparison.  Spans take each matrix's integer numerators (a positive
multiple of its vectorization), and each basis matrix is read straight off
a primitive integer echelon row, whose pivot is its canonical denominator.
`conjugate_algebra` works on the smaller side: for dim A <= n^2 / 2 it
spans the integer products N(C^{-1}) N(B) N(C) of the numerators, each a
positive multiple of C^{-1} B C, and otherwise it conjugates A's
annihilator, read off its echelon rows, and takes the kernel.
Generation uses a worklist that multiplies each newly independent word on
the left by every generator.  The span this reaches contains I and is
mapped into itself by left multiplication with each generator, so it
contains every word in the generators and is closed under products.  I
itself is not multiplied (g I = g is a generator), and the worklist stops
once the span reaches n for one generator (Cayley-Hamilton) or n^2.
Closedness is a type guarantee: `Algebra(n, mats)` checks it, and the
builders' trusted `_from_span` keeps the span they already hold.  The
check closes the basis with the verifier's lazy-admission worklist
(`verify._closure`) on its integer rows, stopped as soon as the span
exceeds the basis's dimension d, in place of all d^2 basis products: a
unital span is closed exactly when the basis generates no more than it,
so a closed basis costs a worklist that ends at d, and one that is not
closed is refused a few products after the span outgrows it.
`generates` decides whether a list generates a known algebra by closing
it and comparing the canonical spans.  `center`, `centralizer` and
`is_simple` solve their linear systems on integer numerators: the basis
numerators span the algebra as the basis does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from math import lcm
from operator import mul
from typing import Iterable, Sequence

from . import simplex
from .incidence import IncidencePattern
from .linear import EchelonSpan, nullspace, rank, solve
from .matrices import (Mat, Support, _mat, direct_sum, identity, inverse,
                       mat_from_json, mat_to_json, matrix_unit, support_union,
                       zero)
from .verify import _closure


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
        if not self.basis:  # the algebra of 0 x 0 matrices: empty support
            return Support(self.n, frozenset())
        return support_union(self.basis)

    def is_closed(self) -> bool:
        """Whether the span V, which holds I, is closed under products.

        The verifier's lazy-admission worklist closes the basis, stopping
        once its span exceeds d = dim V.  Each basis matrix is either held
        by that span or admitted to it, so the span contains V; the full
        closure is <basis>, which lies in V exactly when V is closed.  So V
        is closed iff the worklist ends at dimension d, and any growth past
        d proves it is not, after a few products."""
        if not self.basis:
            return True  # n = 0: the empty basis spans the 0 x 0 algebra
        span, _ = _closure([(b.den, b.num) for b in self.basis], self.dim)
        return span.dim == self.dim

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
    out = []
    for p, row in span.primitive_rows():
        flat = [0] * (n * n)
        for j, v in row.items():
            flat[j] = v
        out.append(_mat(n, n, row[p], tuple(
            tuple(flat[i * n:(i + 1) * n]) for i in range(n))))
    return out


def _from_span(n: int, span: EchelonSpan) -> Algebra:
    """Trusted: span must be a closed unital algebra; it is kept as is."""
    a = object.__new__(Algebra)
    vars(a).update(n=n, basis=tuple(_span_mats(n, span)), _span=span)
    return a


def closure_words(n: int,
                  gens: Iterable[Mat]) -> tuple[list[Mat], EchelonSpan]:
    """Independent words spanning the unital algebra generated by gens.

    Worklist: I and the generators first, then every retained word past I
    is multiplied on the left by each generator, keeping the products that
    enlarge the span; g I = g is pushed already.  The walk stops once the
    span reaches the a-priori ceiling, when every further product lies in
    it: n for one generator, whose algebra is spanned by its first n
    powers (Cayley-Hamilton), and n^2 otherwise.  Returns the retained
    words in insertion order and their span.
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
    ceiling = n if len(gens) == 1 else n * n
    # words grows while it is walked: a FIFO worklist
    for x in islice(words, 1, None):
        for g in gens:
            if span.dim == ceiling:
                return words, span
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


def _sandwich(left: Sequence[Sequence[int]], m: Sequence[Sequence[int]],
              right: Sequence[Sequence[int]]) -> list[int]:
    """The row-major entries of L M R^T on integer rows, for L = left
    and R = right."""
    mr = tuple(zip(*[[sum(map(mul, row, col)) for col in right]
                     for row in m]))
    return [sum(map(mul, row, col)) for row in left for col in mr]


def _annihilator(n: int, span: EchelonSpan) -> list[list[list[int]]]:
    """One n x n integer matrix G_j per non-pivot column j of the span's
    rows, with <G_j, X>_F = 0 for every j iff X lies in the span: G_j is
    L e_j - sum_p (L / r_p) row_p[j] e_p, for r_p the pivot entry of row p
    and L the lcm of the r_p of the rows that hold column j.  The rows are
    fully reduced, so a member's coefficient of row p is X_p / r_p."""
    rows = dict(span.primitive_rows())
    out = []
    for j in range(n * n):
        if j in rows:
            continue
        hits = [p for p, row in rows.items() if j in row]
        scale = lcm(*[rows[p][p] for p in hits])
        g = [0] * (n * n)
        g[j] = scale
        for p in hits:
            g[p] = -(scale // rows[p][p]) * rows[p][j]
        out.append([g[i * n:(i + 1) * n] for i in range(n)])
    return out


def conjugate_algebra(a: Algebra, c: Mat) -> Algebra:
    """C^{-1} A C, re-echelonized, through the smaller of A's basis and
    its annihilator.

    With 2 dim A <= n^2, basis-wise: the integer products N(C^{-1}) N(B)
    N(C) of the numerators, each a positive multiple of C^{-1} B C.
    Otherwise X lies in C^{-1} A C iff C X C^{-1} lies in A, that is iff
    <C^T G C^{-T}, X>_F = <G, C X C^{-1}>_F = 0 for each annihilator
    matrix G of A, so C^{-1} A C is the kernel of the n^2 - dim A
    conjugated annihilator rows N(C)^T G N(C^{-1})^T.  That kernel is read
    in reversed column order: `nullspace` gives one vector per free column
    of the reversed system, 1 there and 0 at the other free ones, so,
    reversed back, each leads at its own column and is 0 at the others'.
    Those columns are the pivots of the kernel's reduced echelon form, so
    the vectors are its rows up to a positive scale, and adding each to a
    span only makes it primitive."""
    n = a.n
    if not (c.is_square and c.rows == n):
        raise ValueError("size mismatch")
    inv, ct = inverse(c).num, tuple(zip(*c.num))
    if 2 * a.dim <= n * n:
        return _from_span(n, _span_of(n, [_sandwich(inv, b.num, ct)
                                          for b in a.basis]))
    rows = [_sandwich(ct, g, inv)[::-1] for g in _annihilator(n, a._span)]
    return _from_span(n, _span_of(n, [v[::-1] for v in
                                      nullspace(rows, n * n)[1]]))


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
    """Load an algebra; the `Algebra` constructor re-verifies it.  Each
    distinct entry string of the document is parsed once."""
    parsed: dict[str, tuple[int, int]] = {}
    return Algebra(obj["n"], tuple(mat_from_json(m, parsed)
                                   for m in obj["basis"]))
