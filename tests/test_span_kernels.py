"""The gcd-reduced Gauss-Jordan step of the one span kernel against
textbook Fraction elimination, and the integer conjugation of an algebra
against the `Mat` products it replaced.

The engine's `EchelonSpan` is the verifier's `_Span`, with the same `add`
and `contains`.  After every insert it must hold primitive integer rows
that divided by their pivots are the reduced row-echelon basis Fraction
Gauss-Jordan elimination gives, and every probe must lie in it exactly
when that elimination finds it in the span.  The engine's `rank`,
`solve`, `invert` and `nullspace` must agree with that elimination too.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from algforge import linear, matrices, polynomials, spectral, verify
from algforge.algebra import algebra_direct_sum, conjugate_algebra, generate
from algforge.linear import EchelonSpan
from algforge.matrices import Mat, identity
from algforge.verify import _Span
from oracles import (gauss_jordan, incidence_algebra, over_last_entry,
                     product_conjugate_algebra, random_mat, random_pattern,
                     random_unimodular, span_rows_mats)
from reference import _insert, _reduce

F = Fraction
FAMILIES = ("dense", "sparse", "wide")


def fresh_vector(rng, family, length):
    """Dense small integers, a sparse 0/1 pattern, or ~100-bit entries
    (about half of them zero)."""
    if family == "dense":
        return [rng.randint(-9, 9) for _ in range(length)]
    if family == "sparse":
        ones = rng.sample(range(length), rng.randint(1, min(length, 3)))
        return [int(j in ones) for j in range(length)]
    return [rng.randint(-2 ** 100, 2 ** 100) if rng.random() < 0.5 else 0
            for _ in range(length)]


def kernel_sequence(rng, length):
    """Fresh vectors of one family mixed with integer combinations of
    earlier vectors, scaled repeats (some by ~100-bit factors) and zero
    vectors."""
    family = rng.choice(FAMILIES)
    out = []
    for _ in range(rng.randint(1, min(length, 10) + 3)):
        kind = rng.random()
        if out and kind < 0.2:
            k = rng.choice((-1, 2, -3, 7, 2 ** 100 + 1, -(3 ** 60)))
            out.append([k * v for v in rng.choice(out)])
        elif len(out) > 1 and kind < 0.4:
            picked = rng.sample(out, min(len(out), rng.randint(2, 3)))
            coeffs = [rng.choice((-5, -2, -1, 1, 3, 4)) for _ in picked]
            out.append([sum(c * v[j] for c, v in zip(coeffs, picked))
                        for j in range(length)])
        elif kind < 0.45:
            out.append([0] * length)
        else:
            out.append(fresh_vector(rng, family, length))
    return out


def sequence_lengths(count):
    """1 and 144 first, then lengths spread evenly on a log scale."""
    rng = random.Random(26)
    return [1, 144] + [min(144, int(2 ** rng.uniform(0, 7.2)))
                       for _ in range(count - 2)]


def combination(rng, vectors, length):
    """An integer combination of the vectors (zero for none)."""
    coeffs = [rng.randint(-3, 3) for _ in vectors]
    return [sum(c * v[j] for c, v in zip(coeffs, vectors))
            for j in range(length)]


def fraction_entries(vec):
    """The nonzero entries of an integer vector as Fractions, by index."""
    return {j: F(v) for j, v in enumerate(vec) if v}


def test_rows_and_verdicts_match_gauss_jordan_on_every_insert():
    """Each sequence also runs once through the reference's Fraction
    Gauss-Jordan step, whose rows have 1 at the pivot: after every insert
    the kernel's rows are primitive with a positive pivot, and divided by
    their pivots they are those rows.  Before it,
    the vector lies in the span exactly when the reference's step leaves
    the span as it was, an integer combination of the vectors so far lies
    in it, and a fresh vector lies in it exactly when the reference
    reduces it to zero."""
    rng = random.Random(2026)
    grew = held = 0
    for length in sequence_lengths(1000):
        vectors = kernel_sequence(rng, length)
        span, rref, seen = EchelonSpan(length), {}, []
        for vec in vectors:
            fresh = fresh_vector(rng, "dense", length)
            verdict = span.contains(fresh)
            assert verdict == (not _reduce(rref, fraction_entries(fresh)))
            held += verdict
            if seen:
                assert span.contains(combination(rng, seen, length))
            before = span.contains(vec)
            added = span.add(vec)
            held += before
            grew += added
            assert added == (not before) == (
                _insert(rref, fraction_entries(vec)) is not None)
            assert span.contains(vec)
            assert all(row[p] > 0 and gcd(*row.values()) == 1
                       for p, row in span.rows.items())
            assert {p: {j: F(v, row[p]) for j, v in row.items()}
                    for p, row in span.rows.items()} == rref
            seen.append(vec)
    assert grew > 2000 and held > 2000


def test_back_reduction_divides_out_the_pivot_gcd_before_combining(
        monkeypatch):
    # e0 + K e1 reduced by the new row K e1 + e2: with (c, a) = (K, K) over
    # their gcd the combination is e0 - e2 and its content pass sees 1s,
    # where K (e0 + K e1) - K (K e1 + e2) would hand it multiples of K
    big = 3 ** 80 * 2 ** 40
    calls = []
    monkeypatch.setattr(verify, "gcd",
                        lambda *args: calls.append(args) or gcd(*args))
    span = EchelonSpan(3)
    span.add([1, big, 0])
    span.add([0, big, 1])
    assert span.rows == {0: {0: 1, 2: -1}, 1: {1: big, 2: 1}}
    assert sorted(map(abs, calls[-1])) == [1, 1]


def test_the_engine_runs_the_verifiers_kernel():
    assert EchelonSpan.__dict__["add"] is _Span.add
    assert EchelonSpan.__dict__["contains"] is _Span.contains
    assert matrices._grid is verify._grid
    assert matrices._canonical is verify._canonical
    assert matrices._support is verify._support
    assert linear._annihilator is verify._annihilator
    assert spectral._char_poly is verify._char_poly
    for name in ("_pseudo_divmod", "_poly_gcd", "_multiplicity_one_part",
                 "_sturm_chain", "_at", "_variations"):
        assert getattr(polynomials, name) is getattr(verify, name), name


def kernel_matrix(rng, rows, cols):
    family = rng.choice(FAMILIES)
    out = [fresh_vector(rng, family, cols) for _ in range(rows)]
    if rows > 1 and rng.random() < 0.4:
        out[-1] = combination(rng, out[:-1], cols)
    return out


def rref_pivots(vectors, length):
    """{pivot column: reduced row} of textbook Fraction elimination."""
    return {next(j for j, v in enumerate(row) if v): row
            for row in gauss_jordan(vectors, length)}


def test_routines_match_fraction_elimination():
    rng = random.Random(126)
    for _ in range(300):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        a = kernel_matrix(rng, m, n)
        b = fresh_vector(rng, "dense", m)
        square = kernel_matrix(rng, n, n)

        assert linear.rank(a) == len(gauss_jordan(a, n))

        kernel = linear.nullspace(a, n)
        pivots = rref_pivots(a, n)
        free = [j for j in range(n) if j not in pivots]
        assert len(kernel) == len(free)
        for fc, v in zip(free, kernel):
            want = [F(int(j == fc)) for j in range(n)]
            for pc, row in pivots.items():
                want[pc] = -row[fc]
            assert list(over_last_entry(v)) == want

        sol = linear.solve(a, b)
        augmented = rref_pivots([[*r, bv] for r, bv in zip(a, b)], n + 1)
        if n in augmented:
            assert sol is None
        else:
            d, x = sol
            assert [F(v, d) for v in x] == [
                augmented[j][n] if j in augmented else 0 for j in range(n)]

        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        reduced = gauss_jordan([[*r, *e] for r, e in zip(square, eye)], 2 * n)
        if len(reduced) == n and all(row[i] for i, row in enumerate(reduced)):
            d, got = linear.invert(square)
            assert [[F(v, d) for v in row] for row in got] == [
                list(row[n:]) for row in reduced]
        else:
            with pytest.raises(ValueError):
                linear.invert(square)


def seeded_algebras(rng):
    """Incidence algebras, their unimodular conjugates, algebras generated
    by rational matrices, and a direct sum, on n = 1 .. 5."""
    for n in range(1, 6):
        pattern = incidence_algebra(random_pattern(rng, n, triangular=False))
        yield pattern
        yield conjugate_algebra(pattern, random_unimodular(rng, n))
        yield generate(n, [random_mat(rng, n, height=4, max_den=3)
                           for _ in range(rng.randint(0, 2))])
    yield algebra_direct_sum(generate(2, [random_mat(rng, 2, max_den=5)]),
                             incidence_algebra(random_pattern(rng, 3)))


def rational_conjugator(rng, n):
    """A nonsingular rational matrix that is not unimodular."""
    while True:
        c = random_mat(rng, n, height=6, max_den=5)
        if linear.rank(c.num) == n and c.den > 1:
            return c


def test_integer_conjugation_matches_the_mat_products():
    rng = random.Random(326)
    for _ in range(4):
        for a in seeded_algebras(rng):
            c = rational_conjugator(rng, a.n)
            got = conjugate_algebra(a, c)
            want = product_conjugate_algebra(a, c)
            assert got == want and got._span == want._span
            assert got.basis == tuple(span_rows_mats(a.n, got._span))
            assert all(isinstance(m, Mat) and m.den > 0 for m in got.basis)
            assert got.contains(identity(a.n))
    empty = generate(0, [])
    assert conjugate_algebra(empty, Mat(0, 0, [])) == empty
