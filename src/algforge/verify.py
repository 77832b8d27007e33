"""Independent certificate verification.

This module re-checks every asserted property exactly from the stored JSON
data.  It deliberately avoids the construction code paths: membership,
conjugation, support and closure checks are re-implemented here, and
conjugation identities are verified multiplicatively (C * target ==
source * C with C nonsingular) so no inverse is ever taken on faith.
Only the standard library is imported, anywhere in this file, so it
verifies alone.  The engine builds on this module's integer kernel, never
the other way round: its spans are `_Span`s, and it reads wire matrices
with `_grid`, and takes `_canonical`, `_inverse`, `_support`,
`_annihilator` (for kernels too), `_commutator_rows` and the integer
polynomial routines (Berkowitz, pseudo-division, gcd, multiplicity-one
part, Sturm chain; coefficients ascending) from here.
Wire strings parse straight to integers: a matrix is read as a canonical
grid (den, rows), integer rows over a positive denominator with no common
factor, so equal matrices have equal grids, and products, differences,
supports, sign tests and spans all run on those integers.  Each distinct
entry string of a document is parsed once, so its sparse matrices share
one parse of "0".  A product skips the zero entries of its left factor: each
output row is the sum of the right factor's rows weighted by the nonzero
entries of the left factor's row, so a product of 0/1 pattern matrices
costs its nonzeros, not n^3.  `_Span` keeps primitive integer rows with
a positive pivot, fully reduced against each other, so equal spans have
equal rows, and a matrix unit lies in a span exactly when the span's row
at the unit's position is that unit.  A new row r with pivot p turns each
row o that holds column p into c o - a r, (c, a) = (r[p], o[p]) over their
gcd, divided by its content; c > 0, so o keeps a positive pivot.
`_inverse` reduces [C | I] with a `_Span`, once per document: the
elimination that proves C nonsingular also yields C^{-1}, and each
conjugate C^{-1} X C is then two products.
Generated-algebra claims are re-derived in one of two ways.  When some
generator is diagonal with pairwise distinct entries, the generation
lemma gives the algebra outright: it is the span of the matrix units on
the reflexive-transitive closure R of the generators' supports.  The
powers of that generator span the diagonal (Vandermonde), E_ii g E_jj =
g_ij E_ij gives each unit on a support, and products of units close R; and
span(R) is a unital algebra holding every generator.  Every pair
certificate has such a generator, so none is closed by products.  Any
other list goes through a worklist that multiplies each retained element
on the right by the generators' integer rows, where the engine's worklist
multiplies on the left.  Generators are admitted lazily: one the span
already holds is skipped, since the span is always the algebra generated
by the admitted ones, so a redundant list costs no more products than its
admitted part.  An admitted generator is kept as it is, with no product
by I, and the worklist stops once its span reaches the a-priori ceiling:
n for one n x n matrix, whose algebra is spanned by its first n powers
(Cayley-Hamilton), and n^2 otherwise.  A claim with one matrix a side,
<x> = <y> or <x> = C^{-1} <y> C, is first decided by the commutant of a
cyclic matrix, with no span of n^2-vectors: when y and x each have a
cyclic vector among e_1 and (1, ..., 1), shown by n - 1 integer
mat-vec products and a rank count, and x commutes with y' = C^{-1} y C,
two products after the two of the conjugation, the claim holds, since
the matrices that commute with a cyclic y' are its polynomials and both
algebras then have dimension n (see `_check_generate_equal`).  Any other
claim <X> = <Y>, or <X> = C^{-1} <Y> C, or one that fails those tests,
is decided with no closure first, since <X> =
<span{I, X}>.  When the stored span S = span{Y} holds I and is the
larger side, n^2 - dim S < dim S as for every block-triangular algebra,
it goes through S's annihilator, read off S's fully reduced rows: each
annihilator vector G is conjugated once, to C^T G C^{-T}, each x is
tested against those by dot products, and the rank of I and X is counted
by a forward elimination; once each x lies in C^{-1} S C and that rank
reaches dim S, span{I, X} = C^{-1} S C.  Otherwise, or when that test
fails, by one elimination: the claim holds once each y, or C^{-1} y C,
lies in span{I, X} and span{I, Y} has its dimension.  Conjugation by C
is a linear algebra automorphism, so the source side is read on the
stored Y, and `in_algebra_conjugated` tests C X C^{-1} against the
stored span.  A positive-generation certificate so verifies with no
product beyond the conjugations, of the annihilator or of the sources.
Otherwise X is closed, its worklist resumed from span{I, x_1}, which the
elimination passed through; each y (or C^{-1} y C) must lie in <X>, and
the stored Y is closed only when span{I, Y} falls short, and then only
until it reaches dim <X>.  The
engine's check that a loaded algebra basis is closed
(`algebra.Algebra.is_closed`) bounds the worklist the same way: given a
bound, it stops as soon as its span exceeds it, which proves the
generated algebra larger.  A reference "in:<name>:<i>" reads
item i of a list input or basis matrix i of an algebra input, so a certificate
stores an algebra once and names its basis matrices as a source list.
Within one `verify_document` call each referenced matrix is parsed once,
an algebra's basis matrices included, whether it is read as part of the
basis or through an indexed reference, and each distinct entry string
once; each algebra basis is spanned once, each generator list is closed
at most once under each bound and C is inverted once.
"""

from __future__ import annotations

import re
from functools import partial
from math import gcd, lcm
from operator import mul
from typing import Sequence

# A matrix as (den, rows): the integer rows over den > 0, with
# gcd(den, every entry) = 1, so equal matrices have equal grids.
Grid = tuple[int, tuple[tuple[int, ...], ...]]


class CertificateError(ValueError):
    pass


# -- tiny self-contained exact linear algebra ---------------------------------

_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")


def _rational(s: str) -> tuple[int, int]:
    """(p, q) for exactly the canonical form str(Fraction) writes: "p", or
    "p/q" in lowest terms with q > 1.  The pattern test comes first, so
    exponent forms like "1e400" never build a big int."""
    m = _RATIONAL.fullmatch(s) if isinstance(s, str) else None
    if m:
        p = int(m[1])
        q = 1 if m[2] is None else int(m[2])
        if str(p) == m[1] and (m[2] is None or q > 1 and gcd(p, q) == 1):
            return p, q
    raise CertificateError(f"not a canonical rational: {s!r}")


def _grid(obj: dict, parsed: dict[str, tuple[int, int]]) -> Grid:
    """The canonical grid of a wire matrix.  `parsed` maps each entry
    string read so far to its `_rational`; `_Document` passes one dict for
    every matrix of a document, so each distinct string is parsed once per
    document.  An entry that is not a str always goes to `_rational`, which
    refuses it.  So the grid, or the error and the first bad entry in
    row-major order that it names, is what parsing entry by entry gives."""
    for key in ("rows", "cols"):
        if key not in obj:
            raise CertificateError(f"matrix has no {key!r} field")
    rows, cols = obj["rows"], obj["cols"]
    if not (type(rows) is int and type(cols) is int):
        raise CertificateError(f"matrix shape {rows!r} x {cols!r} is not"
                               " a pair of integers")
    entries = obj["entries"]
    # A str or dict has a length and items too, so a list is required:
    # ["12"] is not [["1", "2"]].
    if type(entries) is not list:
        raise CertificateError("matrix entries are a"
                               f" {type(entries).__name__}, not a list of"
                               " rows")
    if len(entries) != rows or any(type(r) is not list or len(r) != cols
                                   for r in entries):
        for i, row in enumerate(entries):
            if type(row) is not list:
                raise CertificateError(f"matrix row {i} is a"
                                       f" {type(row).__name__}, not a list")
        raise CertificateError("matrix entries do not match declared shape")
    own: dict[str, tuple[int, int]] = {}
    for row in entries:
        for v in row:
            if type(v) is not str or v not in own:
                if type(v) is not str or v not in parsed:
                    parsed[v] = _rational(v)
                own[v] = parsed[v]
    # The lcm of the reduced denominators shares no factor with every
    # scaled numerator.  Star-unpack lists and build tuples from lists,
    # not generators: a generator's tuple is resized to its length, which
    # leaves tuples piling up in the interpreter's per-length free lists
    # (several MiB of peak memory).
    den = lcm(*[q for _, q in own.values()])
    scaled = {v: p * (den // q) for v, (p, q) in own.items()}
    return den, tuple([tuple([scaled[v] for v in row]) for row in entries])


def _canonical(den: int, rows: tuple[tuple[int, ...], ...]) -> Grid:
    """rows / den, for den > 0, with the common factor divided out."""
    g = den
    for row in rows:
        if g == 1:
            break
        g = gcd(g, *row)
    if g == 1:
        return den, rows
    return den // g, tuple([tuple([v // g for v in row]) for row in rows])


def _imul(a: Sequence[Sequence[int]],
          b: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """a b on integer rows.  Each output row is the sum of b's rows
    weighted by the nonzero entries of a's row, built as a list and made a
    tuple once: a zero entry costs one test, and a row whose one nonzero
    entry is 1 yields b's row itself."""
    zero = (0,) * (len(b[0]) if b else 0)
    out = []
    for row in a:
        acc = None
        for v, brow in zip(row, b):
            if not v:
                continue
            if acc is None:
                acc = brow if v == 1 else [v * x for x in brow]
            elif v == 1:
                acc = [x + y for x, y in zip(acc, brow)]
            else:
                acc = [x + v * y for x, y in zip(acc, brow)]
        out.append(zero if acc is None else tuple(acc))
    return tuple(out)


def _mul(a: Grid, b: Grid) -> Grid:
    (da, ra), (db, rb) = a, b
    if not rb and ra:
        # A grid with no rows records no column count, so the product of
        # r x 0 and 0 x c would have rows of unknown length.  With no rows
        # on either side it is the empty grid: every matrix a check
        # multiplies is declared square, so both factors are 0 x 0.
        raise CertificateError("empty inner dimension in product")
    if (ra and len(ra[0]) or 0) != len(rb):
        raise CertificateError("size mismatch in product")
    return _canonical(da * db, _imul(ra, rb))


def _sub(a: Grid, b: Grid) -> Grid:
    (da, ra), (db, rb) = a, b
    if list(map(len, ra)) != list(map(len, rb)):
        raise CertificateError("size mismatch in difference")
    d = lcm(da, db)
    fa, fb = d // da, d // db
    return _canonical(d, tuple(tuple(fa * x - fb * y for x, y in zip(xa, xb))
                               for xa, xb in zip(ra, rb)))


def _is_nonneg(a: Grid) -> bool:
    return all(v >= 0 for row in a[1] for v in row)


def _is_positive(a: Grid) -> bool:
    return bool(a[1] and a[1][0]) and all(v > 0 for row in a[1] for v in row)


def _support(a: Grid) -> set[tuple[int, int]]:
    return {(i + 1, j + 1) for i, row in enumerate(a[1])
            for j, v in enumerate(row) if v}


def _vec(a: Grid) -> list[int]:
    """Row-major integer entries: den times the matrix's vector, which
    spans the same line."""
    return [v for row in a[1] for v in row]


def _sparse(vec: Sequence[int]) -> dict[int, int]:
    """The nonzero entries of an integer vector, by index."""
    return {i: v for i, v in enumerate(vec) if v}


def _primitive(vec: dict[int, int]) -> dict[int, int]:
    """vec divided by its content, signed so the first entry is positive."""
    g = gcd(*vec.values())
    if vec[min(vec)] < 0:
        g = -g
    return {j: v // g for j, v in vec.items()}


def _residual(rows: dict[int, dict[int, int]],
              vec: dict[int, int]) -> dict[int, int]:
    """A nonzero multiple of vec minus its projection onto the span of the
    rows along their pivots; empty iff vec is in the span.  The rows are
    fully reduced, so each row's coefficient is vec's entry at its pivot,
    and the pivot columns cancel."""
    hits = [p for p in vec if p in rows]
    if not hits:
        return vec
    scale = lcm(*[rows[p][p] for p in hits])
    out = {j: scale * v for j, v in vec.items() if j not in rows}
    for p in hits:
        row = rows[p]
        f = vec[p] * (scale // row[p])
        for j, a in row.items():
            if j != p:
                nv = out.get(j, 0) - f * a
                if nv:
                    out[j] = nv
                else:
                    del out[j]
    return out


class _Span:
    """Sparse span kept as primitive integer rows keyed by pivot column
    (content divided out, positive pivot), each fully reduced against the
    others, so `rows` is canonical: equal spans have equal rows."""

    def __init__(self):
        self.rows: dict[int, dict[int, int]] = {}

    def contains(self, vec: Sequence[int]) -> bool:
        return not _residual(self.rows, _sparse(vec))

    def add(self, vec: Sequence[int]) -> bool:
        res = _residual(self.rows, _sparse(vec))
        if not res:
            return False
        row, rows = _primitive(res), self.rows
        p = min(row)
        rp = row[p]
        for q, other in rows.items():
            op = other.get(p)
            if op:  # other becomes c other - a row, free of column p
                g = gcd(rp, op)
                c, a = rp // g, op // g
                out = {j: c * v for j, v in other.items() if j != p}
                for j, v in row.items():
                    if j != p:
                        nv = out.get(j, 0) - a * v
                        if nv:
                            out[j] = nv
                        else:
                            del out[j]
                g = gcd(*out.values())
                rows[q] = {j: v // g for j, v in out.items()} if g > 1 else out
        rows[p] = row
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)


def _inverse(c: Grid) -> Grid:
    """(dinv, inv) with inv / dinv the inverse of C's integer rows c, not
    necessarily in lowest terms.

    The rows of [c | I] go into a `_Span`, which reduces them to
    [I | c^{-1}] up to row scaling; c is nonsingular iff the pivots are
    its n columns."""
    cn = c[1]
    n = len(cn)
    if not _is_square(cn, n):
        raise CertificateError("transformation matrix is not square")
    span = _Span()
    for i, row in enumerate(cn):
        span.add(list(row) + [int(i == j) for j in range(n)])
    rows = span.rows
    if sorted(rows) != list(range(n)):
        raise CertificateError("transformation matrix is singular")
    dinv = lcm(*[rows[i][i] for i in range(n)])
    return dinv, tuple(
        tuple(rows[i].get(n + j, 0) * (dinv // rows[i][i]) for j in range(n))
        for i in range(n))


def _conjugable(c: Grid, x: Grid) -> None:
    """Raise unless X is square of C's size: `_imul` zips rows, so a
    product of mismatched sizes would be silently truncated."""
    if not _is_square(x[1], len(c[1])):
        raise CertificateError("size mismatch in conjugation")


def _conjugate(c: Grid, inverse: Grid, x: Grid) -> Grid:
    """Y = C^{-1} X C, given `_inverse(c)`.  With C = c / dc, X = x / dx
    and c^{-1} = inv / dinv, dc cancels: Y = inv x c / (dinv dx)."""
    (_, cn), (dinv, inv), (dx, xn) = c, inverse, x
    _conjugable(c, x)
    return _canonical(dinv * dx, _imul(_imul(inv, xn), cn))


def _is_square(rows: Sequence[Sequence[int]], n: int) -> bool:
    """Whether integer rows form an n x n matrix."""
    return len(rows) == n and all(len(row) == n for row in rows)


def _identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _is_distinct_diagonal(rows: Sequence[Sequence[int]]) -> bool:
    """Whether square integer rows are diagonal with pairwise distinct
    diagonal entries."""
    diag = [row[i] for i, row in enumerate(rows)]
    return (len(set(diag)) == len(rows)
            and all(v == 0 or i == j
                    for i, row in enumerate(rows) for j, v in enumerate(row)))


def _unit_span(ints: list[tuple[tuple[int, ...], ...]], n: int) -> _Span:
    """The span of the matrix units E_ij on the reflexive-transitive
    closure R of the union of the supports of the generators' rows."""
    reach = [1 << i for i in range(n)]
    for g in ints:
        for i, row in enumerate(g):
            for j, v in enumerate(row):
                if v:
                    reach[i] |= 1 << j
    for k in range(n):  # Warshall: paths through 0..k
        for i in range(n):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    span = _Span()
    span.rows = {p: {p: 1} for p in range(n * n)
                 if reach[p // n] >> (p % n) & 1}
    return span


def _size_of(gens: list[Grid]) -> int:
    """n, for a non-empty list of n x n generators."""
    if not gens:
        raise CertificateError("closure of an empty generator list")
    n = len(gens[0][1])
    if not all(_is_square(rows, n) for _, rows in gens):
        raise CertificateError("generators are not square of one size")
    return n


def _closure(gens: list[Grid], bound: int | None = None,
             start: dict[int, dict[int, int]] | None = None
             ) -> tuple[_Span, int]:
    """Span of the unital algebra generated by gens, or, given a bound,
    a subspace of it whose dimension exceeds the bound.  `start`, when
    given, holds the `_Span` rows of span{I, g_1}, from which the worklist
    then grows.

    Generation lemma.  When some generator D is diagonal with pairwise
    distinct entries, the algebra is span{E_ij : (i, j) in R}, for R the
    reflexive-transitive closure of the union of the generators' supports,
    and no product is made.  The powers of D span the diagonal
    (Vandermonde), so every E_ii is in it; E_ii g E_jj = g_ij E_ij puts
    each unit on a generator's support in it, E_ij E_jk = E_ik closes
    those positions transitively and I gives the diagonal.  Conversely
    span(R) is a unital algebra, as R is reflexive and transitive, and
    holds every generator.  Unit rows are the canonical `_Span` rows of
    that span, the same rows the worklist reaches.

    Otherwise a worklist with lazy admission.  Invariant: the span holds
    I, is spanned by the kept words, and is closed under right
    multiplication by every admitted generator, so it is the algebra the
    admitted generators generate.  A generator the span already holds adds
    nothing and is skipped.  A new one is admitted: it is kept itself (the
    first kept word is I, and I g = g needs no product), every other
    earlier kept word is multiplied on the right by it, and then every new
    word by each admitted generator, walking the kept list by index while
    it grows.  The worklist starts from span{I, g_1}: its first two words.
    The span only grows, and within the algebra, so the worklist stops as
    soon as its dimension exceeds the bound, when the algebra is larger
    than the bound too, or reaches the a-priori ceiling, when it is the
    whole algebra: n for one generator, whose algebra is spanned by its
    first n powers (Cayley-Hamilton), and n^2 otherwise.
    """
    n = _size_of(gens)
    # Words in the generators' integer rows are nonzero multiples of the
    # words in the generators, so they span the same algebra.
    ints = [rows for _, rows in gens]
    if any(map(_is_distinct_diagonal, ints)):
        return _unit_span(ints, n), n
    if start is None:
        span = _unital_span(gens[:1], n)
    else:
        span = _Span()
        span.rows = start
    kept = [_identity(n)] + ints[:1] if span.dim > 1 else [_identity(n)]
    used = kept[1:]

    def walk(i):
        """Kept word i on, each times every admitted generator."""
        while i < len(kept):  # kept grows while it is walked
            for h in used:
                yield _imul(kept[i], h)
            i += 1

    def words():
        """The worklist's words past span{I, g_1}, each product made once
        the previous word has been pushed."""
        yield from walk(1)
        for g in ints[1:]:
            if span.contains([v for row in g for v in row]):
                continue
            used.append(g)
            old = len(kept)
            yield g
            for x in kept[1:old]:
                yield _imul(x, g)
            yield from walk(old)

    limit = (n if len(ints) == 1 else n * n) - 1
    if bound is not None:
        limit = min(limit, bound)
    if span.dim <= limit:
        for m in words():
            if span.add([v for row in m for v in row]):
                kept.append(m)
                if span.dim > limit:
                    break
    return span, n


def _require_size(gens: list[Grid], n: int) -> None:
    """Raise unless gens is a non-empty list of n x n matrices."""
    if not gens:
        raise CertificateError("closure of an empty generator list")
    if not all(_is_square(rows, n) for _, rows in gens):
        raise CertificateError("generator size does not match the algebra")


def _unital_span(gens: list[Grid], n: int) -> _Span:
    """span{I, gens} for n x n gens."""
    span = _Span()
    for g in [(1, _identity(n))] + gens:
        span.add(_vec(g))
    return span


def _annihilator(rows: dict[int, dict[int, int]],
                 length: int) -> list[list[int]]:
    """One integer vector g_j per column j < length that is no pivot of
    the fully reduced `_Span` rows: a vector v lies in their span iff
    g_j . v = 0 for every j.

    The coefficient of row p in a member v is v_p / r_p, r_p the row's
    pivot entry, so v lies in the span iff v_j = sum_p (v_p / r_p)
    row_p[j] at each such j, and g_j is that equation times L, the lcm of
    the r_p of the rows that hold column j: L e_j - sum_p (L / r_p)
    row_p[j] e_p.  Conversely v minus that combination of rows is zero at
    every pivot, the rows being fully reduced, and at every other column
    once each g_j . v = 0."""
    out = []
    for j in range(length):
        if j in rows:
            continue
        hits = [p for p, row in rows.items() if j in row]
        scale = lcm(*[rows[p][p] for p in hits])
        g = [0] * length
        g[j] = scale
        for p in hits:
            g[p] = -(scale // rows[p][p]) * rows[p][j]
        out.append(g)
    return out


def _commutator_rows(m: Sequence[Sequence[int]]) -> list[list[int]]:
    """The nonzero rows of the map X -> MX - XM on row-major n^2-vectors,
    for square integer rows m: its kernel is the centralizer of M."""
    n = len(m)
    rows = []
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            for k in range(n):
                row[k * n + j] += m[i][k]
            for l in range(n):
                row[i * n + l] -= m[l][j]
            if any(row):
                rows.append(row)
    return rows


def _rank_reaches(vecs: Sequence[Sequence[int]], k: int) -> bool:
    """Whether integer vectors span at least k dimensions.

    Only the rank is wanted, so this is a fraction-free forward
    elimination on dense rows, with no back-substitution and no canonical
    rows: each vector is reduced by one gcd-scaled step against each
    pivot row found so far, and divided by its content after every step
    so that entries stay small; a vector that stays nonzero is a new
    pivot row.  It stops once k rows are found.  It carries about half of
    what the annihilator path saves: verifying the seven classify
    certificates of the `conjugated-classify` benchmark took 36% less time
    than one elimination of span{I, X} with it, and 19% less with a
    `_Span` in its place (in-process, 6 alternating runs, 2-core machine,
    Python 3.11)."""
    pivots: list[tuple[int, list[int]]] = []
    for vec in vecs:
        v = list(vec)
        for p, row in pivots:
            a = v[p]
            if a:
                b = row[p]
                g = gcd(a, b)
                a, b = a // g, b // g
                v = [b * x - a * y for x, y in zip(v, row)]
                g = gcd(*v)
                if g > 1:
                    v = [x // g for x in v]
        if any(v):
            pivots.append((next(i for i, x in enumerate(v) if x), v))
            if len(pivots) >= k:
                return True
    return len(pivots) >= k


def _is_cyclic(rows: Sequence[Sequence[int]]) -> bool:
    """Whether the n x n integer rows y have a cyclic vector v, one with
    v, y v, ..., y^(n-1) v of rank n, among e_1 and (1, ..., 1), tried in
    that order.  A cyclic y whose cyclic vectors miss both reads False,
    which only sends its claim to the general path."""
    n = len(rows)
    for v in ([int(i == 0) for i in range(n)], [1] * n):
        krylov = [v]
        for _ in range(n - 1):
            v = [sum(map(mul, row, v)) for row in rows]
            krylov.append(v)
        if _rank_reaches(krylov, n):
            return True
    return False


# -- integer polynomials -------------------------------------------------------

def _char_poly(m: Sequence[Sequence[int]]) -> list[int]:
    """Coefficients of det(xI - M), ascending, for square integer rows M.

    Berkowitz (1984): the characteristic polynomial of each leading block
    [[M_k, c], [r, a]] is a lower-triangular Toeplitz matrix with first
    column (1, -a, -r c, -r M_k c, ..., -r M_k^(k-1) c) times that of M_k,
    with no division."""
    cp = [1]  # det(xI - M_k), highest degree first
    for k in range(len(m)):
        col = [m[i][k] for i in range(k)]
        row = m[k][:k]
        t = [1, -m[k][k]]
        for j in range(k):
            t.append(-sum(map(mul, row, col)))
            if j < k - 1:
                col = [sum(map(mul, m[i], col)) for i in range(k)]
        cp = [sum(t[i - j] * cp[j] for j in range(min(i, k) + 1))
              for i in range(k + 2)]
    return cp[::-1]


def _pseudo_divmod(a: Sequence[int],
                   b: Sequence[int]) -> tuple[list[int], list[int]]:
    """Integer (Q, R) with lead^e a = Q b + R and len(R) < len(b), where
    lead = b[-1] and e = len(a) - len(b) + 1 >= 1 (Knuth, Algorithm R).
    R may have trailing zeros."""
    n = len(b) - 1
    lead = b[-1]
    rem = list(a)
    quo = [0] * (len(a) - n)
    for k in range(len(a) - n - 1, -1, -1):
        c = rem.pop()
        quo[k] = c * lead ** k
        if lead != 1:
            rem = [lead * v for v in rem]
        if c:
            for j, v in enumerate(b[:n], k):
                rem[j] -= c * v
    return quo, rem


def _primitive_poly(num: Sequence[int]) -> list[int]:
    """num divided by the gcd of its entries (positive), trailing zeros
    dropped."""
    out = list(num)
    while out and not out[-1]:
        out.pop()
    g = gcd(*out)
    return out if g <= 1 else [v // g for v in out]


def _poly_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """A primitive gcd of integer polynomials a and b, not both zero: the
    primitive remainder sequence (Collins 1967), each pseudo-remainder
    divided by its content, which keeps the integers small."""
    a, b = _primitive_poly(a), _primitive_poly(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive_poly(_pseudo_divmod(a, b)[1])
    return a


def _multiplicity_one_part(p: Sequence[int]) -> list[int]:
    """A primitive divisor of a nonzero integer p whose roots are p's
    simple roots (over C): with g = gcd(p, p'), s = p / g has every root
    once and gcd(s, g) every multiple root, so s / gcd(s, g) has the simple
    ones.  The divisions are exact, so pseudo-quotients serve."""
    g = _poly_gcd(p, [i * c for i, c in enumerate(p)][1:])
    s = _primitive_poly(_pseudo_divmod(p, g)[0])
    return _primitive_poly(_pseudo_divmod(s, _poly_gcd(s, g))[0])


def _sturm_chain(p: Sequence[int]) -> tuple[list[list[int]], int]:
    """Sturm chain of a squarefree nonzero integer polynomial p, each
    member as a primitive integer coefficient list (ascending, same sign),
    and b >= 1 such that every real root of p lies in (-2^b, 2^b)."""
    ints = [_primitive_poly(p)]
    nxt = _primitive_poly([i * c for i, c in enumerate(ints[0])][1:])
    while nxt:
        ints.append(nxt)
        a = ints[-2]
        # a mod nxt = R / lead^e, and the next member is -(a mod nxt) up
        # to a positive factor: -R unless lead^e < 0.
        rem = _pseudo_divmod(a, nxt)[1]
        if nxt[-1] > 0 or (len(a) - len(nxt)) % 2:
            rem = [-v for v in rem]
        nxt = _primitive_poly(rem)
    if len(ints[-1]) > 1:
        raise ValueError("polynomial is not squarefree")
    # Fujiwara: |root| <= 2 max_k |c_{d-k} / c_d|^(1/k), each ratio bounded
    # through bit lengths by a power of two.
    top, d = ints[0], len(ints[0]) - 1
    lead_bits = abs(top[-1]).bit_length()
    b = max([1] + [1 - ((lead_bits - abs(c).bit_length() - 1) // (d - i))
                   for i, c in enumerate(top[:-1]) if c])
    return ints, b


def _at(coeffs: list[int], a: int, e: int) -> int:
    """The integer 2^(e deg) q(a / 2^e), whose sign is that of q at the
    dyadic point a / 2^e, for q with integer coefficients (ascending)."""
    acc, shift = 0, 0
    for c in reversed(coeffs):
        acc = acc * a + (c << shift)
        shift += e
    return acc


def _variations(chain: list[list[int]], a: int, e: int) -> int:
    """Sign variations of the chain at the dyadic point a / 2^e, zeros
    skipped."""
    signs = [v > 0 for v in (_at(q, a, e) for q in chain) if v]
    return sum(x != y for x, y in zip(signs, signs[1:]))


# -- reference resolution ------------------------------------------------------

# out:<i>, in:<name> or in:<name>:<i> (list or basis item), <i> plain decimal.
_REFERENCE = re.compile(r"out:(0|[1-9][0-9]*)|in:([^:]*)(?::(0|[1-9][0-9]*))?")


def _item(items, index: str, ref: str):
    """Item `index` of the list behind an indexed reference."""
    if not isinstance(items, list):
        raise CertificateError(f"{ref!r} is not an index into a list or an"
                               " algebra")
    if int(index) >= len(items):
        raise CertificateError(f"{ref!r} is not an index below {len(items)}")
    return items[int(index)]


def _string(ref) -> str:
    """ref, which must be a string; checked before a reference is used as
    a memo key, where a list or an object would be unhashable."""
    if not isinstance(ref, str):
        raise CertificateError(f"reference {ref!r} is not a string")
    return ref


def _resolve(doc: dict, ref: str, key: str, what: str) -> dict:
    """The object behind a reference, which must hold `key`.  An indexed
    "in:<name>:<i>" reads item i of a list input, or basis matrix i of an
    algebra input, so one stored algebra serves both as an algebra and as
    a list of its basis matrices.  Whatever the reference names and the
    document lacks fails with the reference named."""
    m = _REFERENCE.fullmatch(_string(ref))
    if ref == "C":
        obj = doc.get("C")
        if obj is None:
            raise CertificateError("certificate has no transformation")
    elif m is None:
        raise CertificateError(f"unresolvable reference {ref!r}")
    elif m[1] is not None:
        if "outputs" not in doc:
            raise CertificateError(f"{ref!r}: certificate has no outputs")
        obj = _item(doc["outputs"], m[1], ref)
    else:
        inputs = doc.get("inputs")
        if not isinstance(inputs, dict):
            raise CertificateError(f"{ref!r}: certificate has no inputs"
                                   " object")
        if m[2] not in inputs:
            raise CertificateError(f"{ref!r}: certificate has no input"
                                   f" {m[2]!r}")
        obj = inputs[m[2]]
        if m[3] is not None:
            obj = _item(obj.get("basis") if isinstance(obj, dict) else obj,
                        m[3], ref)
    if not isinstance(obj, dict) or key not in obj:
        raise CertificateError(f"{ref!r} is not {what}")
    return obj


def _size_field(obj: dict, what: str) -> int:
    """The "n" field of an algebra or pattern object, an integer."""
    if "n" not in obj:
        raise CertificateError(f"{what} has no 'n' field")
    n = obj["n"]
    if type(n) is not int:
        raise CertificateError(f"{what} size {n!r} is not an integer")
    return n


def _listed(obj: dict, key: str, items: str) -> list:
    """obj[key], which must be a list: a string or an object would be read
    item by item, and an empty one as an empty list."""
    value = obj[key]
    if type(value) is not list:
        raise CertificateError(f"{key!r} is not a list of {items}")
    return value


class _Document:
    """The references of one document, read for one `verify_document`
    call: each entry string is parsed once and each matrix read once
    (basis matrix i of the algebra "in:a" is the matrix "in:a:i"), each
    algebra basis read, conjugated and spanned at most once, each
    generator list closed once and C inverted once.
    Cached grids are tuples and cached spans are only read, so no check
    can change what another sees."""

    def __init__(self, doc: dict):
        self.doc = doc
        self._memo: dict[tuple, object] = {}
        self._parsed: dict[str, tuple[int, int]] = {}

    def _once(self, key: tuple, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def matrix(self, ref: str, square: bool = True) -> Grid:
        """The grid behind ref.  A grid with no rows records no column
        count, so one declared 0 x k with k > 0 would pass for 0 x 0 in
        every product and size test: unless `square` is false, it is
        refused here.  Every other shape is checked where it is used."""
        grid = self._once(("matrix", _string(ref)), lambda: _grid(
            _resolve(self.doc, ref, "entries", "a matrix"), self._parsed))
        if square and not grid[1] and _resolve(self.doc, ref, "entries",
                                               "a matrix")["cols"]:
            raise CertificateError(f"matrix {ref!r} is not square")
        return grid

    def basis(self, ref: str, conjugated: bool = False) -> tuple[Grid, ...]:
        """The algebra's basis, mapped to C^{-1} B C when conjugated.  Basis
        matrix i is read as the reference "<ref>:<i>", so a source list
        that names it shares its parse."""
        _string(ref)
        if conjugated:
            return self._once(("conjugated", ref), lambda: tuple(
                map(self.conjugate, self.basis(ref))))
        return self._once(("basis", ref), lambda: tuple(
            self.sized(self.matrix(f"{ref}:{i}"), ref) for i in range(len(
                _listed(_resolve(self.doc, ref, "basis", "an algebra"),
                        "basis", "matrices")))))

    def sized(self, grid: Grid, ref: str) -> Grid:
        """grid, which must be n x n for the n of the algebra behind ref."""
        n = _size_field(_resolve(self.doc, ref, "basis", "an algebra"),
                        "algebra")
        if not _is_square(grid[1], n):
            raise CertificateError(f"matrix is not {n} x {n} like {ref!r}")
        return grid

    def span(self, ref: str) -> _Span:
        """The span of the algebra's basis, which a list naming its basis
        matrices in order shares."""
        return self.spanned([f"{ref}:{i}" for i in range(len(
            self.basis(ref)))])

    def spanned(self, refs) -> _Span:
        """The span of the matrices behind a list of references."""
        key = tuple(map(_string, refs))

        def make() -> _Span:
            span = _Span()
            for r in key:
                span.add(_vec(self.matrix(r)))
            return span
        return self._once(("span", key), make)

    def transform(self) -> tuple[Grid, Grid]:
        """(C, `_inverse(C)`), C checked square and nonsingular by the
        same elimination that yields its inverse."""
        def make() -> tuple[Grid, Grid]:
            c = self.matrix("C")
            return c, _inverse(c)
        return self._once(("transform",), make)

    def conjugate(self, x: Grid) -> Grid:
        """C^{-1} X C."""
        return _conjugate(*self.transform(), x)

    def transform_of(self, ref: str) -> tuple[Grid, Grid]:
        """`transform`, with C checked to be n x n for the n of the
        algebra behind ref, which an empty basis does not show."""
        c, inverse = self.transform()
        if len(c[1]) != _size_field(_resolve(self.doc, ref, "basis",
                                             "an algebra"), "algebra"):
            raise CertificateError("size mismatch in conjugation")
        return c, inverse

    def closed(self, refs, bound: int | None = None,
               start: dict[int, dict[int, int]] | None = None
               ) -> tuple[_Span, int]:
        """The `_closure` of the matrices behind a list of references,
        under a bound if given, grown from `start` if it is made here."""
        key = tuple(map(_string, refs))
        return self._once(("closure", key, bound), lambda: _closure(
            [self.matrix(r) for r in key], bound, start))

    def pattern(self, ref: str) -> tuple[int, frozenset[tuple[int, int]]]:
        """(n, positions); every position must be a list of two integers
        in 1..n, since a position outside would stand for the zero
        matrix."""
        obj = _resolve(self.doc, ref, "positions", "a pattern")
        n = _size_field(obj, "pattern")
        positions = set()
        for pos in _listed(obj, "positions", "positions"):
            if not (type(pos) is list and len(pos) == 2
                    and type(pos[0]) is int and type(pos[1]) is int):
                raise CertificateError(f"pattern position {pos!r} is not a"
                                       " list of two integers")
            i, j = pos
            if not (1 <= i <= n and 1 <= j <= n):
                raise CertificateError(f"pattern position {pos!r} is not in"
                                       f" 1..{n}")
            positions.add((i, j))
        return n, frozenset(positions)


# -- property checks -----------------------------------------------------------

def _check_nonneg(d: _Document, p: dict) -> bool:
    return _is_nonneg(d.matrix(p["target"], square=False))


def _check_positive(d: _Document, p: dict) -> bool:
    return _is_positive(d.matrix(p["target"], square=False))


def _check_conjugate_of(d: _Document, p: dict) -> bool:
    c, _ = d.transform()
    return _mul(c, d.matrix(p["target"])) == _mul(d.matrix(p["source"]), c)


def _check_in_algebra(d: _Document, p: dict, conjugated=False) -> bool:
    """Whether the algebra A holds X or, conjugated, C^{-1} A C does: A
    holds C X C^{-1}, on its stored span.  C is read where conjugating the
    basis would read it: after the basis, before X."""
    ref = p["algebra"]
    span = d.span(ref)
    if conjugated:
        c, (_, inv) = d.transform_of(ref)
    x = d.sized(d.matrix(p["target"]), ref)[1]
    if conjugated:
        x = _imul(_imul(c[1], x), inv)  # a nonzero multiple of C X C^{-1}
    return span.contains([v for row in x for v in row])


def _check_covers(d: _Document, p: dict, conjugated=False) -> bool:
    omega: set[tuple[int, int]] = set()
    for b in d.basis(p["algebra"], conjugated):
        omega |= _support(b)
    if conjugated:
        d.transform_of(p["algebra"])  # C is read even for no basis
    return _support(d.sized(d.matrix(p["target"]), p["algebra"])) == omega


def _check_semi_commuting(d: _Document, p: dict) -> bool:
    a = d.matrix(p["a"])
    b = d.matrix(p["b"])
    ab, ba = _mul(a, b), _mul(b, a)
    if p["sign"] == "nonneg":
        return _is_nonneg(_sub(ab, ba))
    if p["sign"] == "nonpos":
        return _is_nonneg(_sub(ba, ab))
    raise CertificateError("unknown semi-commuting sign")


def _check_central(d: _Document, p: dict) -> bool:
    z = d.sized(d.matrix(p["target"]), p["algebra"])
    if not d.span(p["algebra"]).contains(_vec(z)):
        return False
    return all(_mul(z, b) == _mul(b, z) for b in d.basis(p["algebra"]))


def _check_dimension(d: _Document, p: dict) -> bool:
    span, _ = d.closed(_listed(p, "gens", "references"))
    return type(p["value"]) is int and span.dim == p["value"]


def _annihilated(d: _Document, stored: _Span, vecs: list[list[int]],
                 n: int, conjugated: bool) -> bool:
    """Whether every x, given by the integer vectors `_vec(x)`, lies in S,
    or in C^{-1} S C, for S the stored span, by S's annihilator.

    x lies in C^{-1} S C iff C x C^{-1} lies in S, that is iff
    <G, C x C^{-1}>_F = 0 for each annihilator vector G of S read as an
    n x n matrix, and <G, C x C^{-1}>_F = <C^T G C^{-T}, x>_F.  So each G
    is conjugated once, by two integer products with positive multiples
    of C^T and C^{-T}: C's integer rows and those `_inverse` returns.
    The caller has checked C to be n x n."""
    gammas = _annihilator(stored.rows, n * n)
    if conjugated:
        (_, cn), (_, inv) = d.transform()
        ct, invt = tuple(zip(*cn)), tuple(zip(*inv))
        gammas = [[v for row in _imul(ct, _imul(
            [g[i * n:(i + 1) * n] for i in range(n)], invt)) for v in row]
            for g in gammas]
    return all(not sum(map(mul, g, v)) for v in vecs for g in gammas)


def _check_generate_equal(d: _Document, p: dict, conjugated=False) -> bool:
    """Whether the lists X and Y behind the property's two reference lists
    generate the same algebra or, conjugated, whether <X> = C^{-1} <Y> C.
    Write Y' for Y, or for its conjugates C^{-1} y C; Y and C are read
    only once X is read and checked, and are read and size-checked, source
    by source, before anything is conjugated.

    By the commutant, when X = [x] and Y = [y]: y has a cyclic vector v
    (v, y v, ..., y^(n-1) v have rank n), x has one, and x y' = y' x for
    y' = C^{-1} y C (y itself unconjugated).  `_is_cyclic` tests y, then
    x, on mat-vec products alone, so a derogatory y costs no product; y'
    is made only then, and is reused below when the claim goes on.  Why
    it is sound: C^{-1} v is cyclic for y', as y'^k C^{-1} v = C^{-1} y^k
    v.  Take T with T y' = y' T and write T C^{-1} v = p(y') C^{-1} v;
    then T y'^k C^{-1} v = y'^k T C^{-1} v = p(y') y'^k C^{-1} v for every
    k, and those vectors span Q^n, so T = p(y').  So x lies in <y'>.  And
    x and y' are cyclic, so I, x, ..., x^(n-1) are independent (a relation
    among them, applied to x's cyclic vector, would be one among its
    Krylov vectors), and so are the powers of y': dim <x> = n = dim <y'>,
    with Cayley-Hamilton for the upper bound.  Hence <x> = <y'> =
    C^{-1} <y> C.  When a test fails the claim goes on as below, whose
    verdict is exact, so the commutant only decides sooner.

    Through the annihilator, when S = span{Y}, the stored span, is the
    larger side: n^2 - dim S < dim S, I lies in S and |X| + 1 >= dim S,
    so that small algebras pay only these comparisons.  Each x must lie in
    S', which is S or C^{-1} S C, by `_annihilated`, and I and X together
    must have rank at least dim S by `_rank_reaches`.  Then span{I, X}
    lies in S', which holds I, and has at least its dimension, so
    span{I, X} = S'; hence <X> = <S'> = C^{-1} <S> C, and <S> = <Y>.
    When either test fails the claim goes on as below, so the verdict is
    the one the basis path alone gives: if the two tests pass, span{I, X}
    = span{I, Y'} and the basis path's own first test passes too.

    Otherwise one elimination, in X's coordinates: <X> is the algebra
    generated by span{I, X}, which lies in <X> and holds X, so span{I, X}
    = span{I, Y'} proves <X> = <Y'>; it holds when every y' lies in
    span{I, X} and span{I, Y'} has its dimension.  Conjugation by C, which
    `_inverse` proved nonsingular, is a linear algebra automorphism fixing
    I, so span{I, Y'} and <Y'> have the dimensions of span{I, Y} and <Y>,
    read on the stored Y: span{Y}, the algebra's own span when Y names its
    basis, plus one unless it holds I.  Otherwise X is closed: its
    worklist resumes from span{I, x_1}, its first two words, which the
    elimination passed through (for one matrix, the whole of it), and the
    document keeps the result as its closure of X.  Every y' must lie in
    <X>, which then holds <Y'>, so dim <Y> <= dim <X>, and the two are
    equal once span{I, Y} or <Y> has the dimension of <X>.  So Y is closed
    under the bound dim <X> - 1 and stops as soon as it passes it."""
    refs = _listed(p, "gens" if conjugated else "gens_a", "references")
    gens = [d.matrix(r) for r in refs]
    n = _size_of(gens)
    sources = _listed(p, "source_gens" if conjugated else "gens_b",
                      "references")
    others = []
    for r in sources:
        others.append(d.matrix(r))
        if conjugated:  # C is read, inverted and sized as `_conjugate` does
            _conjugable(d.transform()[0], others[-1])
    # with sources, C is then n x n, which `_annihilated` relies on
    _require_size(others, n)
    primed = None  # [C^{-1} y C], once the commutant test has made it
    if len(gens) == len(others) == 1 and _is_cyclic(
            others[0][1]) and _is_cyclic(gens[0][1]):
        primed = [d.conjugate(others[0])] if conjugated else others
        x, y = gens[0][1], primed[0][1]
        if _imul(x, y) == _imul(y, x):
            return True
    stored = d.spanned(sources)
    unit = _vec((1, _identity(n)))
    unital = stored.contains(unit)
    if n * n < 2 * stored.dim and stored.dim <= len(gens) + 1 and unital:
        vecs = [_vec(x) for x in gens]
        if (_annihilated(d, stored, vecs, n, conjugated)
                and _rank_reaches([unit] + vecs, stored.dim)):
            return True
    if conjugated:
        others = primed or [d.conjugate(y) for y in others]
    span = _unital_span(gens[:1], n)
    # span{I, x_1}, where X's worklist starts; `_Span.add` replaces rows
    # and never changes one in place, so a copy of the dict is a snapshot
    head = dict(span.rows)
    for g in gens[1:]:
        span.add(_vec(g))
    dim = stored.dim + (not unital)
    if dim == span.dim and all(span.contains(_vec(y)) for y in others):
        return True
    span, _ = d.closed(refs, start=head)
    return all(span.contains(_vec(y)) for y in others) and (
        dim == span.dim
        or d.closed(sources, span.dim - 1)[0].dim == span.dim)


def _check_spans_pattern(d: _Document, p: dict) -> bool:
    """Whether the algebra the gens generate is span{E_ij : (i, j) in the
    pattern}: it has the pattern's dimension and holds each E_ij.  The
    span's rows are fully reduced, so a vector in the span is the
    combination of the rows whose coefficients are its entries at their
    pivots.  For E_ij that is a multiple of the row with pivot (i, j)
    alone, or nothing, so E_ij lies in the span exactly when that row,
    primitive with a positive pivot, is E_ij itself."""
    n, positions = d.pattern(p["pattern"])
    span, size = d.closed(_listed(p, "gens", "references"))
    if size != n or span.dim != len(positions):
        return False
    # positions are in 1..n (`_Document.pattern`), so each unit is one
    # entry p of the vectorization
    units = [(i - 1) * n + j - 1 for (i, j) in positions]
    return all(span.rows.get(p) == {p: 1} for p in units)


def _check_is_centralizer(d: _Document, p: dict) -> bool:
    basis = d.basis(p["algebra"])
    m = d.sized(d.matrix(p["of"]), p["algebra"])
    rows_m = m[1]  # den * M has the same centralizer as M
    n = len(rows_m)
    if not all(_mul(b, m) == _mul(m, b) for b in basis):
        return False
    # dimension must match the kernel of X -> MX - XM
    span = _Span()
    for r in _commutator_rows(rows_m):
        span.add(r)
    kernel_dim = n * n - span.dim
    return d.span(p["algebra"]).dim == len(basis) == kernel_dim


def _check_has_simple_real_eigenvalue(d: _Document, p: dict) -> bool:
    """Whether A = N / d has a simple real eigenvalue, by a Sturm count on
    N = d A, which has A's eigenvalues times d > 0, multiplicities kept."""
    rows = d.matrix(p["target"])[1]
    if not _is_square(rows, len(rows)):
        raise CertificateError("matrix must be square")
    chain, b = _sturm_chain(_multiplicity_one_part(_char_poly(rows)))
    return _variations(chain, -1 << b, 0) > _variations(chain, 1 << b, 0)


_CHECKS = {
    "nonneg": _check_nonneg,
    "positive": _check_positive,
    "conjugate_of": _check_conjugate_of,
    "in_algebra": _check_in_algebra,
    "in_algebra_conjugated": partial(_check_in_algebra, conjugated=True),
    "covers": _check_covers,
    "covers_conjugated": partial(_check_covers, conjugated=True),
    "semi_commuting": _check_semi_commuting,
    "central": _check_central,
    "dimension": _check_dimension,
    "generate_equal": _check_generate_equal,
    "generate_equal_conjugated": partial(_check_generate_equal,
                                         conjugated=True),
    "spans_pattern": _check_spans_pattern,
    "is_centralizer": _check_is_centralizer,
    "has_simple_real_eigenvalue": _check_has_simple_real_eigenvalue,
}


def verify_document(doc: dict) -> list[str]:
    """Re-check every asserted property; returns failure messages ([] = ok).

    References are read once per call (see `_Document`)."""
    failures = []
    try:
        props = doc["properties"]
    except (KeyError, TypeError):
        props = None
    if type(props) is not list:
        return ["document has no properties list"]
    if not props:
        return ["document asserts no properties"]
    reader = _Document(doc)
    for idx, p in enumerate(props):
        if not isinstance(p, dict):
            failures.append(f"property {idx}: not an object")
            continue
        kind = p.get("kind")
        # a kind that is no str may be unhashable, a list or an object
        check = _CHECKS.get(kind) if type(kind) is str else None
        if check is None:
            failures.append(f"property {idx}: unknown kind {kind!r}")
            continue
        try:
            ok = check(reader, p)
        except (CertificateError, KeyError, IndexError, TypeError,
                ValueError, ZeroDivisionError) as exc:
            failures.append(f"property {idx} ({kind}): {exc}")
            continue
        if not ok:
            failures.append(f"property {idx} ({kind}) failed")
    return failures


def verify_certificate(cert) -> list[str]:
    """Verify a Certificate object (serializes it first)."""
    return verify_document(cert.to_json())
