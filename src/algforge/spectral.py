"""Exact spectral computations over Q.

Characteristic polynomials are computed on the integer numerators N of
A = N / d by Berkowitz's division-free algorithm (1984) and rescaled once,
with no Fraction built.  Vectors are 1 x n `Mat` rows, on which a matrix
acts as v @ A^T: Jordan chains and the image of a spectral projector are
spans of such rows.  Irrational eigenvalues are never materialized:
existence questions are answered by Sturm counts, and every operation
that needs an eigenvalue takes a rational one.  Spectral projectors and
the eigenvalue splits built on them serve eigenvalues of any
multiplicity; the constructions never form the rank-one projector of a
simple eigenvalue, whose flattening similarity comes straight from a
right and a left eigenvector (`constructions._flat_similarity`).  The
spectral radius is replaced throughout by the certified row-sum upper
bound, which is all the downstream shift constructions require.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .linear import EchelonSpan
from .matrices import (Mat, conjugate, direct_sum, identity, inverse,
                       jordan_cell, kernel, stack)
from .polynomials import Poly, multiplicity_one_part, sturm_real_root_count
from .polynomials import root_multiplicity as eigenvalue_multiplicity


def char_poly(a: Mat) -> Poly:
    """Monic characteristic polynomial det(xI - A).

    Berkowitz (1984) on the integer numerators N of A = N / d: the
    characteristic polynomial of each leading block [[N_k, c], [r, a]] is
    a lower-triangular Toeplitz matrix with first column
    (1, -a, -r c, -r N_k c, ..., -r N_k^(k-1) c) times that of N_k, with no
    division.  The x^k coefficient of det(xI - N / d) is c_k d^(k - n)."""
    if not a.is_square:
        raise ValueError("matrix must be square")
    n, m, d = a.rows, a.num, a.den
    cp = [1]  # det(xI - N_k), highest degree first
    for k in range(n):
        col = [m[i][k] for i in range(k)]
        row = m[k][:k]
        t = [1, -m[k][k]]
        for j in range(k):
            t.append(-sum(map(mul, row, col)))
            if j < k - 1:
                col = [sum(map(mul, m[i], col)) for i in range(k)]
        cp = [sum(t[i - j] * cp[j] for j in range(min(i, k) + 1))
              for i in range(k + 2)]
    return Poly.from_ints(d ** n, [c * d ** i
                                   for i, c in enumerate(reversed(cp))])


def has_simple_real_eigenvalue(a: Mat) -> bool:
    """Whether some real eigenvalue has algebraic multiplicity exactly 1.

    Exact for irrational eigenvalues: Sturm-counts the real roots of the
    multiplicity-one part of the characteristic polynomial.
    """
    return sturm_real_root_count(multiplicity_one_part(char_poly(a))) > 0


def spectral_radius_bound(a: Mat) -> Fraction:
    """Certified upper bound for the spectral radius: max absolute row sum."""
    if not a.is_square:
        raise ValueError("matrix must be square")
    return Fraction(max((sum(map(abs, row)) for row in a.num), default=0),
                    a.den)


def rational_spectral_projector(a: Mat, lam: int | Fraction) -> Mat:
    """The projector onto the generalized eigenspace of a rational
    eigenvalue, along the remaining generalized eigenspaces.

    With m the multiplicity of lam in the characteristic polynomial and
    N = (A - lam I)^m, the columns of X span ker N (the generalized
    eigenspace) and the rows of Y^T span the left kernel {y : y N = 0},
    which annihilates every other generalized eigenspace.  Y^T X is then
    invertible and the projector is P = X (Y^T X)^-1 Y^T.  For a simple
    eigenvalue the constructions need no projector: the similarity that
    flattens it is built from two eigenvectors
    (`constructions._flat_similarity`).
    """
    lam = Fraction(lam)
    m = eigenvalue_multiplicity(char_poly(a), lam)
    if m == 0:
        raise ValueError("not an eigenvalue of the matrix")
    shifted = a - lam * identity(a.rows)
    power = shifted
    for _ in range(m - 1):
        power = power @ shifted
    x = stack(kernel(power)).transpose()
    yt = stack(kernel(power.transpose()))
    p = x @ inverse(yt @ x) @ yt
    if p @ p != p or a @ p != p @ a:
        raise ArithmeticError("projector construction failed")
    return p


# -- Jordan structure for nilpotent matrices ---------------------------------

def nilpotent_jordan_basis(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Columns of a similarity taking a nilpotent matrix to its Jordan form
    with block sizes sorted descending; returns (C, sizes)."""
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
    kernels = [[]] + [kernel(p) for p in powers[1:]]
    mt = m.transpose()  # M acts on a row v as v @ M^T
    sel: dict[int, list[Mat]] = {q + 1: []}
    descendants: list[Mat] = []
    for t in range(q, 0, -1):
        descendants = [v @ mt for v in descendants + sel[t + 1]]
        blocked = EchelonSpan(n)
        for v in kernels[t - 1] + descendants:
            blocked.add(v.num[0])
        sel[t] = [v for v in kernels[t] if blocked.add(v.num[0])]
    cols: list[Mat] = []
    sizes: list[int] = []
    for t in range(q, 0, -1):
        for v in sel[t]:
            chain = [v]
            for _ in range(t - 1):
                chain.append(chain[-1] @ mt)
            cols.extend(reversed(chain))
            sizes.append(t)
    if sum(sizes) != n:
        raise ArithmeticError("jordan chains do not fill the space")
    c = stack(cols).transpose()
    expected = direct_sum([jordan_cell(t, 0) for t in sizes])
    if conjugate(m, c) != expected:
        raise ArithmeticError("jordan basis verification failed")
    return c, tuple(sizes)


def generalized_eigensplit(a: Mat, lam: Fraction) -> tuple[Mat, int, tuple[int, ...]]:
    """Similarity C with C^{-1}(A - lam I)C = P (+) N, where N collects the
    Jordan cells of the eigenvalue and 0 is not an eigenvalue of P.

    Returns (C, m, sizes): m is the algebraic multiplicity, sizes the cell
    sizes.  The eigenvalue block sits in the trailing coordinates.
    """
    n = a.rows
    shifted = a - lam * identity(n)
    proj = rational_spectral_projector(a, lam)
    # the first columns of the projector that span its image
    span = EchelonSpan(n)
    picked = [j for j, col in enumerate(zip(*proj.num)) if span.add(col)]
    x = proj.submatrix(range(n), picked)
    m = len(picked)
    # The restriction R of A - lam I to the image, in these coordinates,
    # solves X R = (A - lam I) X, so it is read off m independent rows of X.
    span = EchelonSpan(m)
    rows = [i for i, row in enumerate(x.num) if span.add(row)]
    image = shifted @ x
    restriction = inverse(x.submatrix(rows, range(m))) @ \
        image.submatrix(rows, range(m))
    if x @ restriction != image:
        raise ArithmeticError("image basis does not span its image")
    w, sizes = nilpotent_jordan_basis(restriction)
    c = stack(kernel(proj) + [(x @ w).transpose()]).transpose()
    inverse(c)  # raises on a bug; the columns must form a basis
    return c, m, sizes


@dataclass(frozen=True)
class JordanSpec:
    """Eigenvalue groups with their Jordan cell sizes."""

    blocks: tuple[tuple[Fraction, tuple[int, ...]], ...]

    def __post_init__(self):
        eigs = [lam for lam, _ in self.blocks]
        if len(set(eigs)) != len(eigs):
            raise ValueError("eigenvalues must be pairwise distinct")
        for _, sizes in self.blocks:
            if not sizes or any(s < 1 for s in sizes):
                raise ValueError("cell sizes must be positive")

    @property
    def n(self) -> int:
        return sum(sum(sizes) for _, sizes in self.blocks)

    def assemble(self) -> Mat:
        cells = []
        for lam, sizes in self.blocks:
            for s in sizes:
                cells.append(jordan_cell(s, lam))
        return direct_sum(cells)

    def centralizer_dimension(self) -> int:
        """Sum over eigenvalues of sum_{i,j} min(n_i, n_j)."""
        total = 0
        for _, sizes in self.blocks:
            total += sum(min(p, q) for p in sizes for q in sizes)
        return total
