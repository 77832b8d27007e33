"""The integer elimination and product kernels against Fraction oracles.

`EchelonSpan` and the verifier's `_Span` take integer rows and keep
primitive integer rows; read out, they must be the reduced row-echelon
basis that textbook Fraction Gauss-Jordan elimination gives for the
Fraction vectors those rows clear, whatever the insertion order.  `Mat @`
must be the textbook Fraction product, and `solve`, `invert` and
`nullspace` must agree with sympy.
"""

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algforge import verify
from algforge.algebra import generate
from algforge.constructions import _candidates, classify_positive_generation
from algforge.linear import EchelonSpan, invert, nullspace, solve
from algforge.matrices import (Mat, direct_sum, identity, inverse, is_nonneg,
                               is_positive, mat_from_json, mat_to_json,
                               permutation_matrix, support, support_union,
                               zero)
from algforge.verify import (CertificateError, _conjugate, _inverse, _mul,
                             _Span)
from oracles import (cleared, dense_integer_product, echelon_rows,
                     gauss_jordan, grid_combine, grid_direct_sum,
                     grid_product, grid_scale, grid_submatrix, grid_transpose,
                     matrix_unit, over_last_entry, random_unimodular,
                     textbook_product)

F = Fraction


def verifier_rows(span: _Span, length: int) -> list[tuple[Fraction, ...]]:
    """The verifier span's rows divided by their pivots, in pivot order."""
    return [tuple(F(span.rows[p].get(j, 0), span.rows[p][p])
                  for j in range(length)) for p in sorted(span.rows)]


def both_spans(vectors, length):
    engine, verifier = EchelonSpan(length), _Span()
    for v in vectors:
        assert engine.add(cleared(v)) == verifier.add(cleared(v))
    return engine, verifier


def random_vector(rng, length):
    """Mixed denominators, both signs, and about a third of entries zero."""
    return [F(rng.randint(-30, 30), rng.choice((1, 2, 3, 6, 7, 12, 35)))
            if rng.random() < 0.7 else F(0) for _ in range(length)]


def sample_vectors(rng, length, count):
    """Random vectors mixed with zero vectors, repeats, negated multiples
    and combinations of earlier vectors."""
    out = []
    for _ in range(count):
        kind = rng.random()
        if out and kind < 0.15:
            out.append(list(rng.choice(out)))
        elif out and kind < 0.3:
            c = F(-rng.randint(1, 9), rng.randint(1, 9))
            out.append([c * v for v in rng.choice(out)])
        elif len(out) > 1 and kind < 0.45:
            u, w = rng.sample(out, 2)
            out.append([F(2, 3) * a - F(5, 7) * b for a, b in zip(u, w)])
        elif kind < 0.5:
            out.append([F(0)] * length)
        else:
            out.append(random_vector(rng, length))
    return out


def test_spans_match_gauss_jordan_on_random_vectors():
    rng = random.Random(20240611)
    for _ in range(150):
        length = rng.randint(1, 9)
        vectors = sample_vectors(rng, length, rng.randint(0, 8))
        expected = gauss_jordan(vectors, length)
        engine, verifier = both_spans(vectors, length)
        assert echelon_rows(engine) == expected
        assert verifier_rows(verifier, length) == expected
        assert engine.dim == verifier.dim == len(expected)
        for v in vectors:
            assert engine.contains(cleared(v)) and verifier.contains(cleared(v))


def test_negative_pivots_and_single_entries():
    vectors = [[F(-3, 4), F(0), F(6)], [F(0), F(-1, 5), F(0)], [F(-2)] * 3]
    engine, verifier = both_spans(vectors, 3)
    expected = gauss_jordan(vectors, 3)
    assert echelon_rows(engine) == verifier_rows(verifier, 3) == expected
    for row in verifier.rows.values():
        assert row[min(row)] > 0
    zero_only, verifier = both_spans([[F(0)] * 4, [F(0)] * 4], 4)
    assert zero_only.dim == verifier.dim == 0
    assert echelon_rows(zero_only) == [] and verifier.rows == {}


def test_membership_matches_rank():
    rng = random.Random(7)
    for _ in range(60):
        length = rng.randint(2, 8)
        vectors = sample_vectors(rng, length, rng.randint(1, 5))
        engine, verifier = both_spans(vectors, length)
        probe = random_vector(rng, length)
        inside = len(gauss_jordan(vectors + [probe], length)) == engine.dim
        probe = cleared(probe)
        assert engine.contains(probe) == verifier.contains(probe) == inside


@pytest.mark.parametrize("seed", range(6))
def test_every_insertion_order_gives_the_same_rows(seed):
    rng = random.Random(seed)
    length = rng.randint(2, 5)
    vectors = sample_vectors(rng, length, 4)
    expected = gauss_jordan(vectors, length)
    first = None
    for order in itertools.permutations(vectors):
        engine, verifier = both_spans(order, length)
        assert echelon_rows(engine) == expected
        if first is None:
            first = engine, verifier
        assert engine == first[0]
        assert verifier.rows == first[1].rows


def test_equal_spans_from_different_vectors_have_equal_rows():
    rng = random.Random(11)
    for _ in range(40):
        length = rng.randint(2, 7)
        k = rng.randint(1, length)
        vectors = [random_vector(rng, length) for _ in range(k)]
        # invertible recombinations of the same vectors span the same space
        u = random_unimodular(rng, k)
        scale = [F(rng.choice((-3, -1, 2, 5)), rng.randint(1, 4))
                 for _ in range(k)]
        mixed = [[scale[i] * sum((u.data[i][m] * vectors[m][j]
                                  for m in range(k)), F(0))
                  for j in range(length)] for i in range(k)]
        ea, va = both_spans(vectors, length)
        eb, vb = both_spans(mixed, length)
        assert ea == eb
        assert va.rows == vb.rows
        assert echelon_rows(ea) == echelon_rows(eb)


def random_rect(rng, rows, cols):
    return Mat(rows, cols, tuple(
        tuple(F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(cols))
        for _ in range(rows)))


@pytest.mark.parametrize("shape", [
    (0, 0, 0), (0, 3, 2), (2, 0, 3), (3, 2, 0), (1, 1, 1), (2, 3, 4),
    (4, 1, 2), (3, 3, 3), (5, 2, 5)])
def test_matmul_matches_textbook_product(shape):
    r, k, c = shape
    rng = random.Random(sum(shape))
    for _ in range(5):
        a, b = random_rect(rng, r, k), random_rect(rng, k, c)
        got = a @ b
        assert got == textbook_product(a, b)
        assert (got.rows, got.cols) == (r, c)
        assert all(isinstance(v, Fraction) for row in got.data for v in row)
        if r and k:
            grid = _mul((a.den, a.num), (b.den, b.num))
            assert grid == (got.den, got.num)


def test_verifier_product_rejects_an_empty_inner_dimension():
    # a 0 x 2 grid has no rows, so nothing records its two columns: the
    # (3, 0) . (0, 2) product cannot be formed from grids; with no rows on
    # the left either, the product is the empty grid
    left, right = (1, ((), (), ())), (1, ())
    with pytest.raises(CertificateError):
        _mul(left, right)
    assert _mul((1, ()), (1, ())) == (1, ())


def integer_grid(rng, rows, cols):
    """Seeded integer rows: all zero, 0/1, small with zeros, or past 64
    bits, now and then with a zero row and a zero column."""
    kind = rng.choice(["zero", "unit", "small", "big"])
    bound = {"zero": 0, "unit": 1, "small": 9, "big": 2 ** 80}[kind]
    low = 0 if kind == "unit" else -bound
    grid = [[rng.randint(low, bound) if rng.random() < 0.5 else 0
             for _ in range(cols)] for _ in range(rows)]
    if rows and cols and rng.random() < 0.5:
        grid[rng.randrange(rows)] = [0] * cols
        j = rng.randrange(cols)
        for row in grid:
            row[j] = 0
    return tuple(tuple(row) for row in grid)


@pytest.mark.parametrize("shape", [
    (1, 1, 1), (1, 5, 1), (5, 1, 5), (0, 3, 2), (3, 3, 0), (2, 3, 4),
    (4, 4, 4), (6, 6, 6)])
def test_verifier_integer_product_matches_the_dense_sum(shape):
    r, k, c = shape
    rng = random.Random(7000 + 100 * r + 10 * k + c)
    for _ in range(40):
        a, b = integer_grid(rng, r, k), integer_grid(rng, k, c)
        got = verify._imul(a, b)
        assert got == dense_integer_product(a, b, c)
        assert type(got) is tuple and all(
            type(row) is tuple and len(row) == c for row in got)
        assert all(type(v) is int for row in got for v in row)


def test_verifier_product_guards_are_unchanged():
    two = (1, ((1, 2), (3, 4)))
    with pytest.raises(CertificateError, match="^empty inner dimension in"
                       " product$"):
        _mul((1, ((), ())), (1, ()))
    with pytest.raises(CertificateError, match="^size mismatch in product$"):
        _mul(two, (1, ((1, 2, 3),)))
    with pytest.raises(CertificateError, match="^size mismatch in product$"):
        _mul((1, ()), two)


def test_matmul_of_integer_and_sparse_matrices():
    e = matrix_unit(3, 1, 2)
    assert e @ e == zero(3)
    a = Mat.from_rows([[F(1, 2), 0], [0, F(-1, 3)]])
    assert a @ a == Mat.from_rows([[F(1, 4), 0], [0, F(1, 9)]])


def to_fraction(value) -> Fraction:
    return F(int(value.p), int(value.q))


def low_rank(rng, rows, cols, rank):
    left = random_rect(rng, rows, rank)
    right = random_rect(rng, rank, cols)
    return [list(row) for row in (left @ right).data]


def test_solve_invert_nullspace_match_sympy():
    import sympy
    rng = random.Random(4242)
    for trial in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = low_rank(rng, m, n, rng.randint(1, min(m, n)))
        s = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                           for v in row] for row in a])

        # scaling a row changes neither the kernel nor the solutions
        expected_null = [tuple(to_fraction(v) for v in vec)
                         for vec in s.nullspace()]
        basis = nullspace([cleared(row) for row in a], n)
        assert [over_last_entry(vec) for vec in basis] == expected_null

        if trial % 2:
            x0 = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
            b = [sum((r[j] * x0[j] for j in range(n)), F(0)) for r in a]
        else:
            b = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(m)]
        sb = sympy.Matrix([sympy.Rational(v.numerator, v.denominator)
                           for v in b])
        aug, pivots = s.row_join(sb).rref()
        rows = [cleared(list(r) + [bv]) for r, bv in zip(a, b)]
        x = solve([row[:n] for row in rows], [row[n] for row in rows])
        if n in pivots:
            assert x is None
        else:
            expected_x = [F(0)] * n
            for i, p in enumerate(pivots):
                expected_x[p] = to_fraction(aug[i, n])
            d, num = x
            assert [F(v, d) for v in num] == expected_x

        sq = Mat(n, n, low_rank(rng, n, n, rng.randint(1, n)))
        ssq = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                             for v in row] for row in sq.data])
        if ssq.det() == 0:
            with pytest.raises(ValueError):
                invert(sq.num)
        else:
            inv = ssq.inv()
            # (N / den)^-1 = den N^-1
            d, num = invert(sq.num)
            assert [[F(sq.den * v, d) for v in row] for row in num] == \
                [[to_fraction(inv[i, j]) for j in range(n)] for i in range(n)]


def test_solve_conjugate_matches_textbook_inverse():
    rng = random.Random(99)
    for n in (1, 2, 3, 4):
        c = random_unimodular(rng, n) @ random_rect(rng, n, n)
        try:
            c_inv = inverse(c)
        except ValueError:
            continue
        x = random_rect(rng, n, n)
        expected = textbook_product(textbook_product(c_inv, x), c)
        grid = (c.den, c.num)
        got = _conjugate(grid, _inverse(grid), (x.den, x.num))
        assert got == (expected.den, expected.num)
    # singular C: [C | I] still has rank 2, with one pivot outside C
    with pytest.raises(CertificateError):
        _inverse((1, ((1, 2), (2, 4))))


def eager_candidates(a, budget, seed):
    """Every candidate the classification may test, built up front."""
    rng = random.Random(seed)
    candidates = list(a.basis)
    for _ in range(budget):
        combo = zero(a.n)
        for b in a.basis:
            num = rng.randint(-9, 9)
            den = rng.randint(1, 4)
            if num:
                combo = combo + Fraction(num, den) * b
        candidates.append(combo)
    return candidates


@pytest.mark.parametrize("budget", [0, 1, 64])
def test_lazy_candidates_match_eager_construction(budget):
    from algforge.spectral import has_simple_real_eigenvalue
    algebras = [
        generate(2, [Mat.from_rows([[0, 1], [-1, 0]])]),  # no real eigenvalue
        generate(2, [matrix_unit(2, 1, 2), matrix_unit(2, 2, 1)]),
        generate(3, [Mat.from_rows([[1, 2, 0], [0, 1, 1], [0, 0, 3]])]),
    ]
    for seed in (0, 5):
        for alg in algebras:
            eager = eager_candidates(alg, budget, seed)
            assert list(_candidates(alg, budget, seed)) == eager
            hit = next((x for x in eager if has_simple_real_eigenvalue(x)),
                       None)
            cert = classify_positive_generation(alg, budget=budget, seed=seed)
            if hit is None:
                assert cert is None
            elif cert.claim == "positive-generation":
                assert cert.inputs["witness"] == hit
            else:
                assert cert.outputs[0] == hit


# -- the canonical integer representation -------------------------------------
#
# A `Mat` is stored as integer rows `num` over one denominator `den > 0`
# with gcd(den, every entry) = 1, and the verifier reads wire matrices into
# the same (den, rows) form.  Every operation must give the Fraction
# oracle's entries and leave that form canonical.

SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (3, 2), (4, 4)]


def random_grid(rng, rows, cols):
    """Mixed denominators, both signs, about a third zeros; now and then
    an all-integer or an all-zero grid."""
    kind = rng.random()
    if kind < 0.1:
        return [[F(0)] * cols for _ in range(rows)]
    dens = (1,) if kind < 0.25 else (1, 2, 3, 4, 6, 9, 10, 35)
    return [[F(rng.randint(-12, 12), rng.choice(dens))
             if rng.random() < 0.7 else F(0) for _ in range(cols)]
            for _ in range(rows)]


def as_data(grid):
    return tuple(tuple(row) for row in grid)


def assert_canonical(m, grid=None, shape=None):
    """m is in canonical integer form and, when given, has these entries."""
    assert m.den > 0 and type(m.den) is int
    assert type(m.num) is tuple and len(m.num) == m.rows
    for row in m.num:
        assert type(row) is tuple and len(row) == m.cols
        assert all(type(v) is int for v in row)
    assert gcd(m.den, *[v for row in m.num for v in row]) == 1
    if shape is not None:
        assert (m.rows, m.cols) == shape
    if grid is not None:
        assert m.data == as_data(grid)


@pytest.mark.parametrize("shape", SHAPES)
def test_mat_operations_match_fraction_oracles(shape):
    r, c = shape
    rng = random.Random(1000 + 10 * r + c)
    for _ in range(12):
        ga, gb = random_grid(rng, r, c), random_grid(rng, r, c)
        a, b = Mat(r, c, ga), Mat(r, c, gb)
        assert_canonical(a, ga, shape)
        if r:
            assert Mat.from_rows(ga) == a
        assert_canonical(a + b, grid_combine(ga, gb), shape)
        assert_canonical(a - b, grid_combine(ga, gb, -1), shape)
        assert_canonical(-a, grid_scale(-1, ga), shape)
        for k in (0, 1, -3, F(2, 3), F(-5, 4)):
            assert_canonical(k * a, grid_scale(k, ga), shape)
            assert_canonical(a * k, grid_scale(k, ga), shape)
        assert_canonical(a.transpose(), grid_transpose(ga, c), (c, r))
        rows = rng.sample(range(r), rng.randint(0, r))
        cols = rng.sample(range(c), rng.randint(0, c))
        assert_canonical(a.submatrix(rows, cols),
                         grid_submatrix(ga, rows, cols),
                         (len(rows), len(cols)))
        for k in (0, 2):
            gk = random_grid(rng, c, k)
            assert_canonical(a @ Mat(c, k, gk), grid_product(ga, gk, k), (r, k))
        flat = [v for row in ga for v in row]
        assert list(a.numerators()) == [a.den * v for v in flat]
        assert mat_to_json(a)["entries"] == [[str(v) for v in row]
                                             for row in ga]
        assert mat_from_json(mat_to_json(a), {}) == a
        nonneg = [[abs(v) for v in row] for row in ga]
        positive = [[abs(v) + 1 for v in row] for row in ga]
        for g in (ga, nonneg, positive):
            m = Mat(r, c, g)
            assert is_nonneg(m) == all(v >= 0 for row in g for v in row)
            assert is_positive(m) == (r * c > 0 and
                                      all(v > 0 for row in g for v in row))
        if r == c:
            expected = {(i + 1, j + 1) for i in range(r) for j in range(c)
                        if ga[i][j]}
            assert support(a) == expected
            if r:
                union = expected | {(i + 1, j + 1) for i in range(r)
                                    for j in range(c) if gb[i][j]}
                assert support_union([a, b]) == union


def test_constructors_match_fraction_oracles():
    rng = random.Random(77)
    for n in range(5):
        eye = [[F(int(i == j)) for j in range(n)] for i in range(n)]
        assert_canonical(identity(n), eye, (n, n))
        for c in (0, 2):
            assert_canonical(zero(n, c), [[F(0)] * c for _ in range(n)],
                             (n, c))
        images = rng.sample(range(n), n)
        perm = [[F(0)] * n for _ in range(n)]
        for col, row in enumerate(images):
            perm[row][col] = F(1)
        assert_canonical(permutation_matrix(images), perm, (n, n))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                unit = [[F((r, c) == (i - 1, j - 1)) for c in range(n)]
                        for r in range(n)]
                assert_canonical(matrix_unit(n, i, j), unit, (n, n))
    for _ in range(30):
        sizes = [rng.randint(0, 3) for _ in range(rng.randint(0, 4))]
        grids = [random_grid(rng, k, k) for k in sizes]
        total = sum(sizes)
        assert_canonical(direct_sum([Mat(k, k, g)
                                     for k, g in zip(sizes, grids)]),
                         grid_direct_sum(grids), (total, total))


def test_equal_matrices_from_different_paths_compare_and_hash_equal():
    half = Mat.from_rows([[F(1, 2), F(1, 3)], [F(-1, 6), 0]])
    rest = Mat.from_rows([[F(1, 2), F(2, 3)], [F(7, 6), 2]])
    total = half + rest  # cancels to an integer matrix
    direct = Mat.from_rows([[1, 1], [1, 2]])
    assert total.den == 1
    same = [total, direct, Mat(2, 2, ((F(1), F(1)), (F(1), F(2)))),
            Mat.from_rows([["1", "1"], ["1", "2"]]), direct.transpose(),
            Mat.from_ints(2, 2, -6, [[-6, -6], [-6, -12]]),
            F(1, 3) * (3 * direct), inverse(inverse(direct)),
            mat_from_json(mat_to_json(direct), {}),
            direct @ identity(2), identity(2) @ direct]
    for m in same:
        assert m == direct and hash(m) == hash(direct)
        assert_canonical(m)
    assert len(set(same)) == 1
    assert half - half == zero(2) and hash(half - half) == hash(zero(2))
    assert 2 * Mat.from_rows([[F(1, 2)]]) == identity(1)
    assert direct != Mat.from_rows([[1, 1], [1, 3]])
    assert Mat(2, 0, [(), ()]) != Mat(0, 2, [])


def test_mat_is_immutable_and_checks_its_shape():
    m = identity(2)
    with pytest.raises(AttributeError):
        m.den = 2
    with pytest.raises(AttributeError):
        m.data = ()
    with pytest.raises(ValueError):
        Mat(2, 2, [[1, 2]])
    with pytest.raises(ValueError):
        Mat.from_ints(1, 2, 1, [[1]])
    with pytest.raises(ZeroDivisionError):
        Mat.from_ints(1, 1, 0, [[1]])


def test_inverse_is_computed_once_and_shared():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 5)
        c = F(rng.randint(1, 7), rng.randint(1, 7)) * \
            random_unimodular(rng, n) @ Mat.from_rows(
                [[F(rng.randint(1, 3), rng.randint(1, 4)) if i == j else
                  F(rng.randint(-2, 2)) * (i < j) for j in range(n)]
                 for i in range(n)])
        before = (c.rows, c.cols, c.den, c.num, hash(c))
        inv = inverse(c)
        assert inverse(c) is inv and c.inverse is inv
        d, m = invert(c.num)
        assert inv == Mat(n, n, [[F(c.den * v, d) for v in row] for row in m])
        assert (c.rows, c.cols, c.den, c.num, hash(c)) == before
        with pytest.raises(AttributeError):
            c.inverse = identity(n)
        assert inverse(c) is inv
    for bad in (Mat.from_rows([[1, 2], [2, 4]]), Mat.from_rows([[1, 2]])):
        for _ in range(2):
            with pytest.raises(ValueError):
                inverse(bad)


def wire(grid, cols):
    """A wire matrix written from Fractions, without the engine."""
    return {"rows": len(grid), "cols": cols,
            "entries": [[str(v) for v in row] for row in grid]}


def assert_grid(g, fractions):
    """g is a canonical verifier grid with these entries."""
    den, rows = g
    assert den > 0 and type(rows) is tuple
    assert all(type(row) is tuple for row in rows)
    assert gcd(den, *[v for row in rows for v in row]) == 1
    assert [[F(v, den) for v in row] for row in rows] == \
        [list(row) for row in fractions]


@pytest.mark.parametrize("shape", SHAPES)
def test_verifier_grids_match_fraction_oracles(shape):
    r, c = shape
    rng = random.Random(2000 + 10 * r + c)
    for _ in range(12):
        ga, gb = random_grid(rng, r, c), random_grid(rng, r, c)
        a, b = verify._grid(wire(ga, c), {}), verify._grid(wire(gb, c), {})
        assert_grid(a, ga)
        assert a == (Mat(r, c, ga).den, Mat(r, c, ga).num)
        assert_grid(verify._sub(a, b), grid_combine(ga, gb, -1))
        if r and c:  # a grid with no rows carries no column count
            gk = random_grid(rng, c, 2)
            assert_grid(verify._mul(a, verify._grid(wire(gk, 2), {})),
                        grid_product(ga, gk, 2))
        assert verify._support(a) == {(i + 1, j + 1) for i in range(r)
                                      for j in range(c) if ga[i][j]}
        for g in (ga, [[abs(v) for v in row] for row in ga],
                  [[abs(v) + 1 for v in row] for row in ga]):
            grid = verify._grid(wire(g, c), {})
            assert verify._is_nonneg(grid) == all(v >= 0 for row in g
                                                  for v in row)
            assert verify._is_positive(grid) == (
                r * c > 0 and all(v > 0 for row in g for v in row))


def old_wire_rule(s):
    """The rule before integer parsing: s reads as str(Fraction(s)).
    str() of an int past Python's digit limit raises ValueError."""
    try:
        v = Fraction(s)
        return (v.numerator, v.denominator) if str(v) == s else None
    except (ValueError, ZeroDivisionError):
        return None


def new_wire_rule(s):
    try:
        return verify._rational(s)
    except ValueError:
        return None


def engine_matrix_rule(s):
    try:
        m = mat_from_json({"rows": 1, "cols": 1, "entries": [[s]]}, {})
    except ValueError:
        return None
    return m.num[0][0], m.den


def test_wire_rationals_match_the_fraction_rule():
    rng = random.Random(31337)
    corpus = ["-0", "00", "0/5", "2/4", "1/1", "1_0", "\u0661", " 1", "0",
              "-1", "1/2", "-3/4", "+1", "1.5", "1e3", "1/0", "0/1", "01",
              "-01", "1/-2", "1 ", "1//2", "", "-", "/", "12/18", "-7/1",
              "\u0661/2", "1/\u0662", "1\n", "nan", "inf", "0x10",
              "9e9999", str(2 ** 70), "-" + str(2 ** 70) + "/3"]
    alphabet = "0123456789-/ _+.e"
    for _ in range(3000):
        corpus.append("".join(rng.choice(alphabet)
                              for _ in range(rng.randint(1, 6))))
    for _ in range(1000):
        v = F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))
        corpus.append(str(v))
        p, q = rng.randint(-99, 99), rng.randint(1, 99)
        corpus.append(f"{p}/{q}")
    accepted = 0
    for s in corpus:
        expected = old_wire_rule(s)
        assert new_wire_rule(s) == expected, s
        assert engine_matrix_rule(s) == expected, s
        accepted += expected is not None
    assert accepted > 1000
    for bad in (1, 1.5, None, ["1"]):
        with pytest.raises(CertificateError):
            verify._rational(bad)
        with pytest.raises(ValueError):
            mat_from_json({"rows": 1, "cols": 1, "entries": [[bad]]}, {})


def entrywise_grid(obj):
    """The verifier's grid with every entry parsed on its own by
    `_rational`: the reference the per-matrix parse memo must match."""
    rows, cols = obj["rows"], obj["cols"]
    if not (type(rows) is int and type(cols) is int):
        raise CertificateError(f"matrix shape {rows!r} x {cols!r} is not"
                               " a pair of integers")
    entries = obj["entries"]
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise CertificateError("matrix entries do not match declared shape")
    parsed = [[verify._rational(v) for v in row] for row in entries]
    den = lcm(*[q for row in parsed for _, q in row])
    return den, tuple(tuple(p * (den // q) for p, q in row)
                      for row in parsed)


def outcome(read, obj):
    try:
        return read(obj)
    except CertificateError as exc:
        return "error", str(exc)


WIRE_FORMS = ["0", "-0", "00", "+1", "1/1", "2/4", " 1", "1e5", "\u0663",
              "1", "-1", "1/4", "-3/7", "6/1", str(2 ** 70),
              "-" + str(3 ** 50) + "/" + str(2 ** 40)]
wire_entries = st.one_of(
    st.sampled_from(WIRE_FORMS),
    st.integers(-10 ** 30, 10 ** 30).map(str),
    st.fractions(max_denominator=10 ** 6).map(str),
    st.one_of(st.integers(-3, 3), st.none(), st.just(["1"])))


@settings(max_examples=300)
@given(st.lists(wire_entries, min_size=1, max_size=4),
       st.integers(0, 4), st.integers(0, 4), st.data())
def test_grid_memo_reads_entries_as_the_entrywise_parse(pool, rows, cols,
                                                       data):
    """Entries repeat strings from a small pool, canonical or not, mixed
    with non-strings; the memo must give the entry-by-entry grid, or the
    same error for the same first bad entry."""
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1),
                               min_size=rows * cols, max_size=rows * cols))
    obj = {"rows": rows, "cols": cols,
           "entries": [[pool[picks[i * cols + j]] for j in range(cols)]
                       for i in range(rows)]}
    assert outcome(lambda o: verify._grid(o, {}), obj) == outcome(
        entrywise_grid, obj)


def test_grid_parses_each_distinct_entry_string_once(monkeypatch):
    parsed = []
    real = verify._rational

    def counting(s):
        parsed.append(s)
        return real(s)

    monkeypatch.setattr(verify, "_rational", counting)
    identity_wire = wire([[F(int(i == j)) for j in range(5)]
                          for i in range(5)], 5)
    assert verify._grid(identity_wire, {}) == (1, verify._identity(5))
    assert sorted(parsed) == ["0", "1"]


def test_hot_paths_build_no_fraction(monkeypatch):
    from algforge.algebra import (algebra_from_json, algebra_to_json,
                                  closure_words)
    from algforge.constructions import (predict_padded_conjugation,
                                        solve_all_dimensions)
    from algforge.matrices import (jordan_cell, ones, regular_triangular,
                                   uniformizer, uniformizer_inv)
    made = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    half = Mat.from_rows([[F(1, 2), F(-1, 3)], [0, F(5, 4)]])
    other = Mat.from_rows([[F(2, 7), 1], [F(-3, 2), 0]])
    gens = [Mat.from_rows([[1, 2, 0], [0, 1, 1], [0, 0, 3]]),
            Mat.from_rows([[0, 0, 0], [F(1, 2), 0, 0], [0, 0, 0]])]
    docs = [c.to_json() for c in solve_all_dimensions(3)]
    wire, two_thirds = mat_to_json(half), F(2, 3)
    alg_doc = algebra_to_json(generate(2, [half]))
    block = Mat.from_rows([[2, -1, 3], [0, 4, 1], [5, 0, 7]])
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    half @ other, half + other, half - other, -half, 3 * half
    half * two_thirds
    half.transpose(), half.submatrix([1], [0, 1]), half.numerators()
    is_nonneg(half), is_positive(half), support(half), support_union([half])
    zero(3), identity(3), ones(3)
    permutation_matrix([2, 0, 1]), direct_sum([half, other, identity(1)])
    closure_words(3, gens), generate(3, gens), mat_to_json(half)
    mat_from_json(wire, {}), algebra_from_json(alg_doc)
    uniformizer(4), uniformizer_inv(4), jordan_cell(3, 0)
    regular_triangular(2, 3, [5, 7]), predict_padded_conjugation(block, 2)
    grid = verify._grid(wire, {})
    verify._mul(grid, grid), verify._sub(grid, grid)
    verify._closure([grid, verify._grid(mat_to_json(other), {})])
    for doc in docs:
        assert verify.verify_document(doc) == []
    assert made == []
