"""Constructive transforms: positivity, nonnegative coverings, direct sums,
centralizers, incidence algebras and semi-commuting generator pairs.

Every routine checks its inputs and raises on bad ones.  A routine that
emits a Certificate asserts exactly re-checkable properties about the
stored matrices, and each property is checked once, by the independent
verifier, never by an engine copy beside it.  The covering and direct-sum
constructions and `single_generator_nonneg` run the verifier on the
certificate before they return it (`_certified`);
`classify_positive_generation` and `semicommuting_pair` return theirs
unverified, and every caller verifies them: the CLI verbs, the scripts
and the benchmark.  The engine keeps only the checks of invariants that
no certificate records (projector rank, block prediction, the flat
similarity's identity, `with_inverse`); a property that holds by
construction gets a one-line proof in its docstring in place of a
check.  All randomized searches take an explicit seed and are fully
reproducible.

Every similarity onto the flat idempotent ones(n)/n for a simple
eigenvalue comes from `_flat_similarity`: two eigenvectors give C and
C^{-1} in closed form, with no projector and no Gauss-Jordan run.
`classify_positive_generation` reuses the single-generator step
`_positive_shift` when its witness generates the algebra (dim A = n and
a squarefree characteristic polynomial), and emits that one positive
generator in place of the d + 1 shifted basis matrices.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Iterator, Sequence

from .algebra import (Algebra, algebra_direct_sum, centralizer,
                      conjugate_algebra, generate, generates)
from .certificates import (Certificate, prop_central, prop_conjugate_of,
                           prop_covers, prop_covers_conjugated,
                           prop_dimension, prop_generate_equal,
                           prop_generate_equal_conjugated,
                           prop_has_simple_real_eigenvalue, prop_in_algebra,
                           prop_in_algebra_conjugated, prop_is_centralizer,
                           prop_nonneg, prop_positive, prop_semi_commuting,
                           prop_spans_pattern)
from .incidence import (IncidencePattern, incidence_of_dimension,
                        triangularize_incidence)
from .linear import rank
from .matrices import (Mat, conjugate, direct_sum, identity, inverse,
                       is_nonneg, is_positive, kernel, ones,
                       permutation_matrix, poly_at, regular_triangular, stack,
                       support, uniform_norm, uniformizer, uniformizer_inv,
                       with_inverse, zero)
from .polynomials import (Poly, _squarefree_roots, multiplicity_one_part,
                          poly_gcd, rational_roots)
from .spectral import (JordanSpec, char_poly,
                       eigenvalue_multiplicity, generalized_eigensplit,
                       nilpotent_jordan_basis, spectral_radius_bound)
from .verify import verify_certificate


# -- shared checks and the covering shift ---------------------------------------

def _check_covering(a: Algebra, m: Mat) -> None:
    """Raise ValueError unless M is a nonnegative member of A that covers it."""
    if not a.contains(m):
        raise ValueError("covering candidate is not in the algebra")
    if not is_nonneg(m):
        raise ValueError("covering candidate is not nonnegative")
    if support(m) != a.support():
        raise ValueError("candidate does not cover the algebra")


def _check_summands(k1: int, k2: int) -> None:
    """Raise ValueError unless the direct-sum constructions apply to
    summands of sizes k1 and k2."""
    if k1 < 1:
        raise ValueError("left summand must be nonempty")
    if k2 < 2:
        raise ValueError("right summand of size 1 routes to the scalar"
                         " extension construction")


def _check_block_diagonal(x: Mat, k: int) -> None:
    """Raise unless X vanishes off its leading k x k and trailing blocks."""
    if any(any(row[k:] if i < k else row[:k]) for i, row in enumerate(x.num)):
        raise ArithmeticError("split is not block diagonal")


def _certified(cert: Certificate) -> Certificate:
    """The certificate, once the independent verifier accepts it; raise
    ArithmeticError naming the first failed property otherwise."""
    failures = verify_certificate(cert)
    if failures:
        raise ArithmeticError(f"certificate failed: {failures[0]}")
    return cert


def _shifted(mats: Sequence[Mat], m: Mat) -> list[Mat]:
    """B + ((|B| + 1) / min support entry of M) M for each B: every entry at
    a support position of M comes out at least 1.

    On numerators, with B = N / d, |B| = h / d and M = K / e whose least
    positive entry is l / e, that is (l N + (h + d) K) / (d l)."""
    low = min(v for row in m.num for v in row if v > 0)
    out = []
    for b in mats:
        d = b.den
        k = max((abs(v) for row in b.num for v in row), default=0) + d
        out.append(Mat.from_ints(b.rows, b.cols, d * low, [
            [low * x + k * y for x, y in zip(rb, rm)]
            for rb, rm in zip(b.num, m.num)]))
    return out


# -- nonnegative / positive generating systems --------------------------------

def nonneg_generators_from_covering(a: Algebra, m: Mat) -> list[Mat]:
    """Nonnegative generators {B_i + c_i M} + {M} from a nonnegative
    covering matrix M, with c_i = (|B_i| + 1) / min support entry of M.

    The outputs are nonnegative, with no check: `_shifted` makes every
    entry on supp M at least 1, and off it B_i and M vanish, as the checked
    covering gives supp B_i within supp A = supp M.
    """
    _check_covering(a, m)
    # M lies in A, so each g_i = B_i + c_i M does, and <gens> lies in the
    # closed algebra A; span(gens) holds M and every B_i = g_i - c_i M,
    # so it holds A, and <gens> = A without a closure.
    return _shifted(a.basis, m) + [m]


def positive_generators_from_positive(a: Algebra, m: Mat) -> list[Mat]:
    """Positive generators from a strictly positive element, by the same
    shift scheme: a positive member of an algebra covers it.  They are
    positive, with no check: supp M is every position, and `_shifted`
    makes every entry there at least 1."""
    if not is_positive(m):
        raise ValueError("candidate is not strictly positive")
    return nonneg_generators_from_covering(a, m)


# -- similarity onto the flat rank-one idempotent -----------------------------

def _flat_similarity(a: Mat, lam: Fraction) -> Mat:
    """C with C^{-1} E C = ones(n)/n for the spectral projector E of an
    eigenvalue lam that is simple in A's characteristic polynomial, with
    C^{-1} stored on C (`with_inverse`); ArithmeticError unless lam is
    simple, that is unless the right and left eigenspaces are lines,
    spanned by u and w, with w^T u != 0.  Then E = u w^T / (w^T u), and
    with j0 the first nonzero entry of w, v = w / w_j0 and u' = u / (v u),
        C = [u' | e_j - v_j e_j0 (j != j0)] . swap . U,
        C^{-1} = U^{-1} . swap . [v; e_j - u'_j v (j != j0)],
    where swap exchanges the first and last coordinates and U is the
    uniformizer (C = I for n = 1).  As E = u' v, checking C C^{-1} = I and
    (C^{-1} u')(v C) = ones(n)/n checks C exactly.
    """
    n = a.rows
    shifted = a - lam * identity(n)
    right, left = kernel(shifted), kernel(shifted.transpose())
    if len(right) != 1 or len(left) != 1:
        raise ArithmeticError("eigenvalue is not simple: eigenspace is"
                              " not a line")
    ur, wr = right[0].num[0], left[0].num[0]
    s = sum(map(mul, wr, ur))
    if not s:
        raise ArithmeticError("eigenvalue is not simple: w^T u = 0")
    if n == 1:
        return identity(1)
    j0 = next(j for j, x in enumerate(wr) if x)
    p = wr[j0]
    rest = [j for j in range(n) if j != j0]
    # on the integer rows u and w: u' = p u / s, v = w / p, and for j != j0
    # the columns (p e_j - w_j e_j0) / p and the rows (s e_j - u_j w) / s
    u1 = Mat.from_ints(1, n, s, [[p * x for x in ur]])
    v = Mat.from_ints(1, n, p, [wr])
    cols = [u1] + [Mat.from_ints(1, n, p, [[
        p * (i == j) - wr[j] * (i == j0) for i in range(n)]]) for j in rest]
    rows = [v] + [Mat.from_ints(1, n, s, [[
        s * (i == j) - ur[j] * x for i, x in enumerate(wr)]]) for j in rest]
    cols[0], cols[-1] = cols[-1], cols[0]
    rows[0], rows[-1] = rows[-1], rows[0]
    c = with_inverse(stack(cols).transpose() @ uniformizer(n),
                     uniformizer_inv(n) @ stack(rows))
    if inverse(c) @ u1.transpose() @ (v @ c) != _flat_idempotent(n):
        raise ArithmeticError("uniformizing similarity failed verification")
    return c


def uniformize_rank1_idempotent(e: Mat) -> Mat:
    """A nonsingular C with C^{-1} E C = ones(n)/n for a rank-1 idempotent.

    E's eigenvalue 1 is simple, and E is its spectral projector, so this
    is `_flat_similarity(E, 1)` once the input is checked.
    """
    if not e.is_square:
        raise ValueError("matrix must be square")
    if e @ e != e:
        raise ValueError("matrix is not idempotent")
    if rank(e.num) != 1:
        raise ValueError("idempotent does not have rank 1")
    return _flat_similarity(e, Fraction(1))


def _flat_idempotent(n: int) -> Mat:
    """ones(n)/n, which `_flat_similarity`'s C conjugates the projector
    onto."""
    return Mat.from_ints(n, n, n, ones(n).num)


def positive_single_generator(a: Mat, lam: int | Fraction) -> tuple[Mat, Mat]:
    """(C, B) with C^{-1} B C > 0 and <B> = <A>, for a matrix with a simple
    rational eigenvalue lam.

    Raises ValueError unless lam has multiplicity 1 in the characteristic
    polynomial.  `_positive_shift` builds C and C^{-1} B C, positive by
    construction; B is conjugated back here.  <B> = <A>, unchecked: B =
    A + beta E lies in <A>, and its eigenvalue lam + beta is simple and
    apart from A's others, so E and A = B - beta E lie in <B>.
    """
    lam = Fraction(lam)
    if eigenvalue_multiplicity(char_poly(a), lam) != 1:
        raise ValueError("eigenvalue is not simple (algebraic multiplicity 1)")
    c, conj_b = _positive_shift(a, lam)
    return c, c @ conj_b @ inverse(c)


def _positive_shift(a: Mat, lam: Fraction) -> tuple[Mat, Mat]:
    """(C, C^{-1} B C) for lam of multiplicity 1 in the characteristic
    polynomial of A, which the caller has checked.

    B = A + beta*E shifts the rank-one spectral projector E of lam by
    beta = max(n*|C^{-1}AC| + 1, 2*rho_bound(A) + 1).  `_flat_similarity`
    builds C and C^{-1} from two eigenvectors and checks that C^{-1} E C
    is the flat idempotent, so C^{-1} B C = C^{-1} A C + beta ones(n)/n
    with neither E nor B formed.  It is strictly positive, with no check:
    beta / n >= |C^{-1}AC| + 1/n, so every entry is at least 1/n.  B is a
    polynomial in A, so <B> lies in <A>; that the two are equal is not
    checked here.
    """
    n = a.rows
    c = _flat_similarity(a, lam)
    conj_a = conjugate(a, c)
    beta = max(n * uniform_norm(conj_a) + 1, 2 * spectral_radius_bound(a) + 1)
    return c, conj_a + beta * _flat_idempotent(n)


def scalar_extension_positive_generators(
        b_gens: Sequence[Mat]) -> tuple[Mat, list[Mat]]:
    """(S, gens): a positive generating system, of the same cardinality, of
    S^{-1} (R (+) <b_gens>) S.

    The scalar summand receives an eigenvalue above the spectral radius
    bound of the first generator, which makes it simple; the positive-form
    construction then lifts the remaining generators by support-entry
    shifts.  Unchecked: <lifted> = R (+) <b_gens>, as lam is no eigenvalue
    of b_gens[0], so E_11 (+) 0 is a polynomial in lifted[0]; gens > 0, as
    top is `_positive_shift`'s C^{-1} B C > 0 and `_shifted` makes every
    other entry at least 1.
    """
    if not b_gens:
        raise ValueError("empty generating set")
    nb = b_gens[0].rows
    if not all(g.is_square and g.rows == nb for g in b_gens):
        raise ValueError("generators must be square of one size")
    lam = spectral_radius_bound(b_gens[0]) + 1
    lifted = [direct_sum([Mat.from_rows([[lam]]), b_gens[0]])]
    for g in b_gens[1:]:
        lifted.append(direct_sum([zero(1), g]))
    s, b1 = positive_single_generator(lifted[0], lam)
    top = conjugate(b1, s)
    # _shifted adds multiples of top, so <gens> = S^{-1} <b1, lifted[1:]> S,
    # which is S^{-1} <lifted> S as <b1> = <lifted[0]>.
    return s, [top] + _shifted([conjugate(g, s) for g in lifted[1:]], top)


# -- direct sums ---------------------------------------------------------------

def predict_padded_conjugation(t: Mat, pad: int) -> Mat:
    """Closed-form blocks of conjugating O_pad (+) T by the padded
    uniformizer, for T with positive (1,1) entry.

    Top-left block: T_11/(pad+1) times the all-ones matrix; bottom-left
    rows repeat the first column of T scaled by 1/(pad+1); top-right
    columns repeat the first row of T; bottom-right is T without its first
    row and column.  Must equal the direct conjugation exactly.
    """
    if not t.is_square or t.rows < 2:
        raise ValueError("block must be square of size >= 2")
    if pad < 1:
        raise ValueError("padding must be at least 1")
    if t.num[0][0] <= 0:
        raise ValueError("leading entry must be positive")
    # (pad + 1) den(T) times the prediction: each row of T's numerators
    # with its first entry repeated pad + 1 times and the rest scaled by
    # pad + 1, the first such row repeated pad + 1 times
    s = pad + 1
    rows = [(row[0],) * s + tuple(s * v for v in row[1:]) for row in t.num]
    n = pad + t.rows
    return Mat.from_ints(n, n, s * t.den, rows[:1] * s + rows[1:])


def _padded_uniformizer(pad: int, rest: int) -> tuple[Mat, Mat]:
    c = direct_sum([uniformizer(pad + 1), identity(rest)])
    c_inv = direct_sum([uniformizer_inv(pad + 1), identity(rest)])
    return c, c_inv


def direct_sum_nonneg_covering(left: Algebra, right: Algebra,
                               covering: Mat) -> Certificate:
    """Certificate that the conjugated direct sum has a nonnegative
    covering matrix, given a nonnegative covering of the right summand."""
    k1, k2 = left.n, right.n
    _check_summands(k1, k2)
    _check_covering(right, covering)
    c, c_inv = _padded_uniformizer(k1, k2 - 1)
    padded = direct_sum([zero(k1), covering])
    conj = c_inv @ padded @ c
    expected = predict_padded_conjugation(covering, k1)
    if conj != expected:
        raise ArithmeticError("block prediction mismatch")
    sum_alg = algebra_direct_sum(left, right)
    return _certified(Certificate(
        claim="direct-sum-nonneg-covering",
        inputs={"left": left, "right": right, "covering": covering,
                "sum": sum_alg},
        transform=c,
        outputs=(padded, conj),
        properties=(
            prop_in_algebra("out:0", "in:sum"),
            prop_conjugate_of("out:1", "out:0"),
            prop_nonneg("out:1"),
            prop_covers_conjugated("out:1", "in:sum"),
        ),
    ))


def _min_nonneg_shift(a_blk: Mat, b_blk: Mat, z_blk: Mat) -> tuple[Fraction, Mat]:
    """Shift amount and the lifted generator A (+) (zI + Z).

    z starts at max((k1+1)*|K^{-1}(A (+) [0])K| + 1, 2*rho_bound(A (+) B) + 1)
    and is bumped past the finitely many values at which the two diagonal
    blocks would share an eigenvalue (checked by an exact gcd of
    characteristic polynomials).
    """
    k1, k2 = a_blk.rows, b_blk.rows
    ku, ku_inv = uniformizer(k1 + 1), uniformizer_inv(k1 + 1)
    lifted_a = direct_sum([a_blk, zero(1)])
    bound1 = (k1 + 1) * uniform_norm(ku_inv @ lifted_a @ ku) + 1
    bound2 = 2 * spectral_radius_bound(direct_sum([a_blk, b_blk])) + 1
    z = max(bound1, bound2)
    chi_a = char_poly(a_blk)
    while True:
        shifted = z * identity(k2) + z_blk
        if poly_gcd(chi_a, char_poly(shifted)).degree == 0:
            break
        z += 1
    return z, direct_sum([a_blk, shifted])


def direct_sum_min_nonneg_generators(
        sum_gens: Sequence[tuple[Mat, Mat]],
        right_gens: Sequence[Mat]) -> Certificate:
    """Certificate: a same-cardinality nonnegative generating system of the
    conjugated direct sum, from generators {A_i (+) B_i} of the sum and a
    nonnegative generating list of the right summand.

    The right generator list is padded with zero matrices up to the number
    of sum generators.
    """
    if not sum_gens:
        raise ValueError("empty generating set for the sum")
    k1 = sum_gens[0][0].rows
    k2 = sum_gens[0][1].rows
    _check_summands(k1, k2)
    l = len(sum_gens)
    if len(right_gens) > l:
        raise ValueError("more right generators than sum generators")
    for zm in right_gens:
        if not is_nonneg(zm):
            raise ValueError("right generators must be nonnegative")
    z_list = list(right_gens) + [zero(k2)] * (l - len(right_gens))
    left_alg = generate(k1, [p for p, _ in sum_gens])
    right_alg = generate(k2, [q for _, q in sum_gens])
    sum_alg = algebra_direct_sum(left_alg, right_alg)
    paired = [direct_sum([p, q]) for p, q in sum_gens]
    if not generates(sum_alg, paired):
        raise ValueError("the paired generators do not generate the direct sum")
    if not generates(right_alg, right_gens):
        raise ValueError("right generators do not generate the right summand")
    c, c_inv = _padded_uniformizer(k1, k2 - 1)
    lifted: list[Mat] = []
    conj: list[Mat] = []
    for (a_blk, b_blk), z_blk in zip(sum_gens, z_list):
        _, u = _min_nonneg_shift(a_blk, b_blk, z_blk)
        lifted.append(u)
        conj.append(c_inv @ u @ c)
    props = [prop_generate_equal(
        [f"out:{i}" for i in range(l)],
        [f"in:sum_gens:{i}" for i in range(l)])]
    for i in range(l):
        props.append(prop_conjugate_of(f"out:{l + i}", f"out:{i}"))
        if is_positive(z_list[i]):
            props.append(prop_positive(f"out:{l + i}"))
        else:
            props.append(prop_nonneg(f"out:{l + i}"))
    return _certified(Certificate(
        claim="direct-sum-min-nonneg-generators",
        inputs={"sum_gens": paired, "right_gens": list(right_gens)},
        transform=c,
        outputs=tuple(lifted + conj),
        properties=tuple(props),
    ))


def blockwise_rank1_nonneg_covering(blocks: Sequence[Algebra],
                                    parts: Sequence[Mat]) -> Certificate:
    """Certificate from an element of a block-diagonal sum whose blockwise
    parts are zero or rank-1 idempotents (zero parts trailing): the
    conjugated element is nonnegative and covers the conjugated sum."""
    if len(blocks) != len(parts):
        raise ValueError("one part per block required")
    if not blocks:
        raise ValueError("no blocks")
    nonzero = [i for i, p in enumerate(parts) if any(map(any, p.num))]
    if not nonzero:
        raise ValueError("all parts are zero")
    m = nonzero[-1] + 1
    if nonzero != list(range(m)):
        raise ValueError("zero parts must trail the nonzero parts")
    for alg, p in zip(blocks, parts):
        if p.rows != alg.n:
            raise ValueError("part size mismatch")
        if not alg.contains(p):
            raise ValueError("part is not in its block algebra")
    for i in range(m):
        p = parts[i]
        if p @ p != p or rank(p.num) != 1:
            raise ValueError("nonzero part is not a rank-1 idempotent")
    tail = sum(blocks[i].n for i in range(m, len(blocks)))
    sims = [uniformize_rank1_idempotent(parts[i]) for i in range(m - 1)]
    merged = direct_sum([parts[m - 1], zero(tail)])
    sims.append(uniformize_rank1_idempotent(merged))
    s = direct_sum(sims)
    e = direct_sum(list(parts))
    sum_alg = blocks[0]
    for alg in blocks[1:]:
        sum_alg = algebra_direct_sum(sum_alg, alg)
    return _certified(Certificate(
        claim="blockwise-rank1-nonneg-covering",
        inputs={"sum": sum_alg, "element": e},
        transform=s,
        outputs=(conjugate(e, s),),
        properties=(
            prop_in_algebra("in:element", "in:sum"),
            prop_conjugate_of("out:0", "in:element"),
            prop_nonneg("out:0"),
            prop_covers_conjugated("out:0", "in:sum"),
        ),
    ))


# -- centralizers and centers --------------------------------------------------

def _allones_regular_block(sizes: Sequence[int]) -> Mat:
    """The centralizer covering of one nilpotent-type eigenvalue group:
    every block an all-ones regular triangular form."""
    total = sum(sizes)
    rows = []
    for p in sizes:
        blocks = [regular_triangular(p, q, [1] * min(p, q)).num
                  for q in sizes]
        rows.extend(tuple(chain(*parts)) for parts in zip(*blocks))
    return Mat.from_ints(total, total, 1, rows)


def centralizer_covering(spec: JordanSpec) -> tuple[Mat, Mat, Certificate]:
    """(jordan matrix, all-ones covering, certificate) for the centralizer
    of the given Jordan data: the blockwise all-ones regular forms cover the
    centralizer directly, and the certificate composes the direct-sum
    machinery across eigenvalue groups."""
    a = spec.assemble()
    n = spec.n
    cent = centralizer(a)
    if cent.dim != spec.centralizer_dimension():
        raise ArithmeticError("centralizer dimension mismatch")
    group_sizes = [sum(sizes) for _, sizes in spec.blocks]
    group_covers = [_allones_regular_block(sizes) for _, sizes in spec.blocks]
    allones_cover = direct_sum(group_covers)

    pivot = None
    for idx in range(len(spec.blocks) - 1, -1, -1):
        if group_sizes[idx] >= 2:
            pivot = idx
            break
    if len(spec.blocks) == 1 or pivot is None:
        # single group, or a fully diagonal centralizer: covers as is
        c_total = identity(n)
        embedded = allones_cover
        final = allones_cover
    else:
        order = [i for i in range(len(spec.blocks)) if i != pivot] + [pivot]
        offsets = [0]
        for gs in group_sizes:
            offsets.append(offsets[-1] + gs)
        # the original coordinates, listed in the permuted order
        perm = permutation_matrix([offsets[gi] + t for gi in order
                                   for t in range(group_sizes[gi])])
        k2 = group_sizes[pivot]
        k1 = n - k2
        c2, c2_inv = _padded_uniformizer(k1, k2 - 1)
        padded = direct_sum([zero(k1), group_covers[pivot]])
        final = c2_inv @ padded @ c2
        c_total = perm @ c2
        embedded = perm @ padded @ inverse(perm)
    cert = _certified(Certificate(
        claim="centralizer-nonneg-covering",
        inputs={"jordan": a, "centralizer": cent, "embedded": embedded},
        transform=c_total,
        outputs=(allones_cover, final),
        properties=(
            prop_is_centralizer("in:centralizer", "in:jordan"),
            prop_nonneg("out:0"),
            prop_in_algebra("out:0", "in:centralizer"),
            prop_covers("out:0", "in:centralizer"),
            prop_in_algebra("in:embedded", "in:centralizer"),
            prop_conjugate_of("out:1", "in:embedded"),
            prop_nonneg("out:1"),
            prop_covers_conjugated("out:1", "in:centralizer"),
        ),
    ))
    return a, allones_cover, cert


def central_eigenvalue_split(a: Algebra, z: Mat,
                             lam: int | Fraction) -> Certificate:
    """Certificate that an algebra whose center contains a matrix with a
    rational eigenvalue of geometric multiplicity 1 has a nonnegative
    covering up to similarity."""
    lam = Fraction(lam)
    n = a.n
    if not a.contains(z):
        raise ValueError("central candidate is not in the algebra")
    if any(z @ b != b @ z for b in a.basis):
        raise ValueError("candidate is not central")
    shifted = z - lam * identity(n)
    rk = rank(shifted.num)
    if rk == n:
        raise ValueError("not an eigenvalue of the central element")
    if rk != n - 1:
        raise ValueError("eigenvalue has geometric multiplicity > 1")
    k = eigenvalue_multiplicity(char_poly(z), lam)

    if k == n:
        c_total, sizes = nilpotent_jordan_basis(shifted)
        if sizes != (n,):
            raise ArithmeticError("expected a single jordan chain")
        cell = conjugate(z, c_total)
        nil = cell - lam * identity(n)
        final = poly_at(Poly.of(1, 1) ** (n - 1), nil)  # (I + N)^(n-1)
    elif k == 1:
        c_total = _flat_similarity(z, lam)
        final = _flat_idempotent(n)
    else:
        c1, m, sizes = generalized_eigensplit(z, lam)
        if m != k or sizes != (k,):
            raise ArithmeticError("expected one jordan cell for the eigenvalue")
        conj_alg = conjugate_algebra(a, c1)
        k1 = n - k
        for x in conj_alg.basis:
            _check_block_diagonal(x, k1)
        cell = conjugate(z, c1).submatrix(range(k1, n), range(k1, n))
        nil = cell - lam * identity(k)
        t = poly_at(Poly.of(1, 1) ** (k - 1), nil)
        c2, c2_inv = _padded_uniformizer(k1, k - 1)
        padded = direct_sum([zero(k1), t])
        final = c2_inv @ padded @ c2
        c_total = c1 @ c2
    return _certified(Certificate(
        claim="center-split-nonneg-covering",
        inputs={"algebra": a, "central": z},
        transform=c_total,
        outputs=(final,),
        properties=(
            prop_central("in:central", "in:algebra"),
            prop_nonneg("out:0"),
            prop_in_algebra_conjugated("out:0", "in:algebra"),
            prop_covers_conjugated("out:0", "in:algebra"),
        ),
    ))


def single_generator_nonneg(a: Mat) -> Certificate:
    """Certificate: <A> is generated by one nonnegative matrix up to
    similarity, for A with at least one rational eigenvalue.

    The smallest rational eigenvalue lam, of algebraic multiplicity m, picks
    one of three cases:
    - m = n: A - lam I is nilpotent, and its Jordan form is nonnegative;
    - m = 1: lam is simple, and `_positive_shift` gives (C, B) with B a
      polynomial in A and C^{-1} B C strictly positive; that
      <C^{-1} B C> = C^{-1} <A> C is checked once, by the verifier, like
      every other case;
    - 1 < m < n: A - lam I splits as P (+) N with N nilpotent, and a
      single shifted generator is produced as in the minimal direct-sum
      construction.
    """
    n = a.rows
    roots = rational_roots(char_poly(a))
    if not roots:
        raise ValueError("no rational eigenvalue available")
    lam = roots[0][0]
    m = roots[0][1]
    a0 = a - lam * identity(n)
    if m == n:
        c_total, _ = nilpotent_jordan_basis(a0)
        gen_out = conjugate(a0, c_total)
    elif m == 1:
        # <C^{-1} B C> = C^{-1} <A> C is the certificate's claim, which
        # `_certified` checks, so the shift is not closed here as well
        c_total, gen_out = _positive_shift(a, lam)
    else:
        c1, mult, _ = generalized_eigensplit(a, lam)
        if mult != m:
            raise ArithmeticError("projector rank disagrees with multiplicity")
        split = conjugate(a0, c1)
        k1 = n - m
        p_blk = split.submatrix(range(k1), range(k1))
        q_blk = split.submatrix(range(k1, n), range(k1, n))
        _check_block_diagonal(split, k1)
        _, u = _min_nonneg_shift(p_blk, q_blk, q_blk)
        c2, c2_inv = _padded_uniformizer(k1, m - 1)
        gen_out = c2_inv @ u @ c2
        c_total = c1 @ c2
    return _certified(Certificate(
        claim="single-generator-nonneg",
        inputs={"generator": a},
        transform=c_total,
        outputs=(gen_out,),
        properties=(
            prop_nonneg("out:0"),
            prop_generate_equal_conjugated(["out:0"], ["in:generator"]),
        ),
    ))


# -- incidence algebras and the dimension table --------------------------------

def semicommuting_pair(p: IncidencePattern) -> tuple[Mat, Mat, Certificate]:
    """(A, D, certificate): the all-units covering matrix A and the
    positive diagonal D with D_ii = n - (0-based place of i in a
    topological order of the pattern), so D_ii > D_jj for every strict
    position (i, j).

    The certificate orders the outputs (D, A) so the asserted commutator
    [D, A] is nonnegative.  Each claim holds by construction, so the
    certificate is returned unverified, for its caller to verify:
    - A is a sum of 0/1 units and D's entries are 1..n: both nonnegative;
    - [D, A]_ij = (D_ii - D_jj) A_ij >= 0 on every position;
    - <A, D> = span(P) by the generation lemma (`verify._closure`): D is
      diagonal with distinct entries, and supp A = P.
    Raises ValueError for the empty pattern (n < 1), which has no pair.
    """
    n = p.n
    if n < 1:
        raise ValueError("pattern must have n >= 1")
    rank = {orig: pos for pos, orig in enumerate(triangularize_incidence(p))}
    d = Mat.from_ints(n, n, 1, [[n - rank[i] if j == i else 0
                                 for j in range(n)] for i in range(n)])
    a = _pattern_sum(p)
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


def _pattern_sum(p: IncidencePattern) -> Mat:
    """The sum of the pattern's matrix units."""
    grid = [[0] * p.n for _ in range(p.n)]
    for (i, j) in p.positions:
        grid[i - 1][j - 1] = 1
    return Mat.from_ints(p.n, p.n, 1, grid)


def solve_all_dimensions(n: int) -> list[Certificate]:
    """One verified semi-commuting nonnegative pair per realizable
    dimension k with n <= k <= n(n+1)/2."""
    if n < 2:
        raise ValueError("need n >= 2")
    certs = []
    for k in range(n, n * (n + 1) // 2 + 1):
        pattern = incidence_of_dimension(n, k)
        _, _, cert = semicommuting_pair(pattern)
        certs.append(cert)
    return certs


# -- positive-generation classification -----------------------------------------

def _candidates(a: Algebra, budget: int, seed: int) -> Iterator[Mat]:
    """The basis, then `budget` seeded random rational combinations of it,
    each drawn only when the previous one has been tested."""
    yield from a.basis
    rng = random.Random(seed)
    for _ in range(budget):
        combo = zero(a.n)
        for b in a.basis:
            num = rng.randint(-9, 9)
            den = rng.randint(1, 4)
            if num:
                combo = combo + Fraction(num, den) * b
        yield combo


def _is_scalar(m: Mat) -> bool:
    """Whether the square matrix M is cI for some c (0 included)."""
    c = m.num[0][0]
    return all(v == (c if i == j else 0)
               for i, row in enumerate(m.num) for j, v in enumerate(row))


def classify_positive_generation(a: Algebra, budget: int = 64,
                                 seed: int = 0) -> Certificate | None:
    """Semi-decision for positive generation up to similarity.

    Tests every basis element and `budget` seeded random rational
    combinations for a simple real eigenvalue, counted with the rational
    ones on one Sturm chain.  For n > 1 a scalar candidate cI is skipped
    before its characteristic polynomial is formed: (t - c)^n has no
    simple root.  A hit x with a rational simple eigenvalue lam yields a
    full positive-generation certificate, with C from `_flat_similarity`,
    whose outputs generate C^{-1} A C:
    - when dim A = n and chi(x) is squarefree, one output, the shift
      C^{-1} (x + beta E) C > 0 of `_positive_shift`, with E the spectral
      projector of lam.  It generates C^{-1} A C: chi(x) has n distinct
      roots, so I, x, ..., x^(n-1) are independent and dim <x> = n =
      dim A, with <x> in the unital A, so <x> = A.  beta >= 2 rho + 1,
      for rho the largest absolute row sum of x, which bounds every
      eigenvalue, so lam + beta >= rho + 1 > |mu| for each other
      eigenvalue mu: x + beta E is a polynomial in x with n distinct
      eigenvalues, so <x + beta E> = <x> = A.  Classify closes nothing to
      check this; the verifier re-checks the claim like any other;
    - otherwise d + 1 outputs, the conjugated basis shifted by the flat
      idempotent ones(n)/n, and that idempotent, whose span holds the
      conjugated basis (`positive_generators_from_positive`).
    An irrational hit yields an existence-only witness.  Returns None
    (unknown) otherwise -- never a definite 'no'.
    """
    n = a.n
    for x in _candidates(a, budget, seed):
        if n > 1 and _is_scalar(x):
            continue
        simple = multiplicity_one_part(char_poly(x))
        count, simple_rationals = _squarefree_roots(simple)
        if not count:
            continue
        if simple_rationals:
            # a root of the multiplicity-one part is simple in char_poly(x)
            lam = simple_rationals[0]
            if a.dim == n and simple.degree == n:
                c, positive = _positive_shift(x, lam)
                gens = [positive]
            else:
                c = _flat_similarity(x, lam)
                gens = positive_generators_from_positive(
                    conjugate_algebra(a, c), _flat_idempotent(n))
            props = [prop_in_algebra("in:witness", "in:algebra")]
            props += [prop_positive(f"out:{i}") for i in range(len(gens))]
            props.append(prop_generate_equal_conjugated(
                [f"out:{i}" for i in range(len(gens))],
                [f"in:algebra:{i}" for i in range(a.dim)]))
            return Certificate(
                claim="positive-generation",
                inputs={"algebra": a, "witness": x},
                transform=c,
                outputs=tuple(gens),
                properties=tuple(props),
            )
        return Certificate(
            claim="simple-real-eigenvalue-witness",
            inputs={"algebra": a},
            transform=None,
            outputs=(x,),
            properties=(
                prop_in_algebra("out:0", "in:algebra"),
                prop_has_simple_real_eigenvalue("out:0"),
            ),
        )
    return None
