"""The integer elimination and product kernels against Fraction oracles.

`EchelonSpan` and the verifier's `_Span` keep primitive integer rows; read
out, they must be the reduced row-echelon basis that textbook Fraction
Gauss-Jordan elimination gives, whatever the insertion order.  `Mat @`
must be the textbook Fraction product, and `solve`, `invert`,
`nullspace` and `first_dependency` must agree with sympy.
"""

import itertools
import random
from fractions import Fraction

import pytest

from algforge.algebra import generate
from algforge.constructions import _candidates, classify_positive_generation
from algforge.linear import (EchelonSpan, first_dependency, invert, nullspace,
                             solve)
from algforge.matrices import Mat, matrix_unit, zero
from algforge.verify import CertificateError, _mul, _solve_conjugate, _Span
from oracles import gauss_jordan, random_unimodular, textbook_product

F = Fraction


def verifier_rows(span: _Span, length: int) -> list[tuple[Fraction, ...]]:
    """The verifier span's rows divided by their pivots, in pivot order."""
    return [tuple(F(span.rows[p].get(j, 0), span.rows[p][p])
                  for j in range(length)) for p in sorted(span.rows)]


def both_spans(vectors, length):
    engine, verifier = EchelonSpan(length), _Span()
    for v in vectors:
        assert engine.add(v) == verifier.add(v)
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
        assert engine.canonical_rows() == expected
        assert verifier_rows(verifier, length) == expected
        assert engine.dim == verifier.dim == len(expected)
        for v in vectors:
            assert engine.contains(v) and verifier.contains(v)


def test_negative_pivots_and_single_entries():
    vectors = [[F(-3, 4), F(0), F(6)], [F(0), F(-1, 5), F(0)], [F(-2)] * 3]
    engine, verifier = both_spans(vectors, 3)
    expected = gauss_jordan(vectors, 3)
    assert engine.canonical_rows() == verifier_rows(verifier, 3) == expected
    for row in verifier.rows.values():
        assert row[min(row)] > 0
    zero_only, verifier = both_spans([[F(0)] * 4, [F(0)] * 4], 4)
    assert zero_only.dim == verifier.dim == 0
    assert zero_only.canonical_rows() == [] and verifier.rows == {}


def test_membership_matches_rank():
    rng = random.Random(7)
    for _ in range(60):
        length = rng.randint(2, 8)
        vectors = sample_vectors(rng, length, rng.randint(1, 5))
        engine, verifier = both_spans(vectors, length)
        probe = random_vector(rng, length)
        inside = len(gauss_jordan(vectors + [probe], length)) == engine.dim
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
        assert engine.canonical_rows() == expected
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
        assert ea.canonical_rows() == eb.canonical_rows()


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
            grid = _mul([list(row) for row in a.data],
                        [list(row) for row in b.data])
            assert grid == [list(row) for row in got.data]


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

        expected_null = [tuple(to_fraction(v) for v in vec)
                         for vec in s.nullspace()]
        assert nullspace(a, n) == expected_null

        if trial % 2:
            x0 = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
            b = [sum((r[j] * x0[j] for j in range(n)), F(0)) for r in a]
        else:
            b = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(m)]
        sb = sympy.Matrix([sympy.Rational(v.numerator, v.denominator)
                           for v in b])
        aug, pivots = s.row_join(sb).rref()
        x = solve(a, b)
        if n in pivots:
            assert x is None
        else:
            expected_x = [F(0)] * n
            for i, p in enumerate(pivots):
                expected_x[p] = to_fraction(aug[i, n])
            assert x == expected_x

        sq = [row[:] for row in low_rank(rng, n, n, rng.randint(1, n))]
        ssq = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                             for v in row] for row in sq])
        if ssq.det() == 0:
            with pytest.raises(ValueError):
                invert(sq)
        else:
            inv = ssq.inv()
            assert invert(sq) == [[to_fraction(inv[i, j]) for j in range(n)]
                                  for i in range(n)]


def test_first_dependency_matches_sympy():
    import sympy
    rng = random.Random(515)
    for trial in range(40):
        n = rng.randint(1, 5)
        vecs = low_rank(rng, rng.randint(1, 6), n, rng.randint(1, n))
        if trial % 5 == 0:
            vecs.insert(rng.randint(0, len(vecs)), [F(0)] * n)
        expected = None
        for k in range(len(vecs)):
            s = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                               for v in vec] for vec in vecs[:k + 1]]).T
            if s.rank() <= k:
                null = s.nullspace()[0]
                expected = [to_fraction(c / null[k]) for c in null]
                break
        assert first_dependency(iter(vecs)) == expected


def test_solve_conjugate_matches_textbook_inverse():
    rng = random.Random(99)
    for n in (1, 2, 3, 4):
        c = random_unimodular(rng, n) @ random_rect(rng, n, n)
        try:
            c_inv = Mat(n, n, tuple(tuple(r) for r in
                                    invert([list(r) for r in c.data])))
        except ValueError:
            continue
        x = random_rect(rng, n, n)
        expected = textbook_product(textbook_product(c_inv, x), c)
        got = _solve_conjugate([list(r) for r in c.data],
                               [list(r) for r in x.data])
        assert got == [list(r) for r in expected.data]
    # singular C: [C | XC] still has rank 2, with one pivot outside C
    with pytest.raises(CertificateError):
        _solve_conjugate([[F(1), F(2)], [F(2), F(4)]],
                         [[F(1), F(0)], [F(0), F(2)]])


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
