import random
from fractions import Fraction

import pytest

from algforge.algebra import (Algebra, algebra_direct_sum,
                              algebra_from_json, algebra_to_json, center,
                              centralizer, closure_words, conjugate_algebra,
                              covering_matrix, generate, generates,
                              incidence_algebra, is_simple,
                              nonneg_covering_exists, two_sided_ideal)
from algforge.incidence import incidence_of_dimension
from algforge.linear import rank
from algforge.matrices import (Mat, conjugate, identity, is_nonneg,
                               jordan_cell, matrix_unit, ones, support,
                               support_union, zero)
from oracles import brute_closure_dim
from oracles import product_conjugate_algebra as oracle_conjugate_algebra
from oracles import random_mat, random_pattern, random_unimodular

F = Fraction


def upper_ones(n):
    acc = zero(n)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            acc = acc + matrix_unit(n, i, j)
    return acc


def diag(*vals):
    n = len(vals)
    return Mat.from_rows([[vals[i] if i == j else 0 for j in range(n)]
                          for i in range(n)])


def t_algebra(n):
    return incidence_algebra(incidence_of_dimension(n, n * (n + 1) // 2))


def d_algebra(n):
    return incidence_algebra(incidence_of_dimension(n, n))


def m_algebra(n):
    return generate(n, [matrix_unit(n, i, j)
                        for i in range(1, n + 1) for j in range(1, n + 1)])


C_LIKE = generate(2, [Mat.from_rows([[0, 1], [-1, 0]])])


def test_generate_examples():
    a = generate(2, [matrix_unit(2, 1, 2)])
    assert a.dim == 2
    assert a.contains(identity(2)) and a.contains(matrix_unit(2, 1, 2))
    assert generate(2, [ones(2)]).dim == 2
    full_t3 = generate(3, [upper_ones(3), diag(3, 2, 1)])
    assert full_t3.dim == 6
    assert full_t3 == t_algebra(3)
    # brute-force closure oracle agrees
    assert brute_closure_dim(3, [upper_ones(3), diag(3, 2, 1)]) == 6


def test_generate_empty_is_scalars():
    a = generate(3, [])
    assert a.dim == 1 and a.contains(identity(3))


def test_dimension_contains_equal():
    assert generate(4, [identity(4)]).dim == 1
    t2 = t_algebra(2)
    assert not t2.contains(matrix_unit(2, 2, 1))
    a = random_mat(random.Random(3), 3, 4)
    b = random_mat(random.Random(4), 3, 4)
    assert generate(3, [a, b]) == generate(3, [b, a])


def test_generate_idempotent():
    rng = random.Random(5)
    for _ in range(5):
        a = generate(3, [random_mat(rng, 3, 3)])
        assert generate(3, list(a.basis)) == a


def test_generate_dim_invariant_under_conjugation():
    rng = random.Random(6)
    for _ in range(5):
        gens = [random_mat(rng, 3, 3), random_mat(rng, 3, 3)]
        c = random_unimodular(rng, 3)
        before = generate(3, gens).dim
        after = generate(3, [conjugate(g, c) for g in gens]).dim
        assert before == after


def test_support_relations():
    from algforge.algebra import _span_mats
    from algforge.linear import EchelonSpan
    rng = random.Random(8)
    for _ in range(10):
        gens = [random_mat(rng, 3, 2), random_mat(rng, 3, 2)]
        alg = generate(3, gens)
        assert support_union(gens).positions <= alg.support().positions
        # the linear span (no closure) has exactly the generators' support
        sp = EchelonSpan(9)
        for g in gens:
            sp.add(g.numerators())
        assert support_union(_span_mats(3, sp)) == support_union(gens)


def test_covering_matrix():
    d3 = d_algebra(3)
    cov = covering_matrix(d3)
    assert support(cov) == d3.support()
    assert d3.contains(cov)
    # cancellation-avoidance example: span{I, diag(1, -1)}
    a = generate(2, [diag(1, -1)])
    cov = covering_matrix(a)
    assert a.contains(cov)
    assert support(cov).positions == frozenset({(1, 1), (2, 2)})
    # exhaustive small-coefficient oracle: some integer combination covers
    found = None
    for c1 in range(-3, 4):
        for c2 in range(-3, 4):
            cand = c1 * a.basis[0] + c2 * a.basis[1]
            if support(cand).positions == frozenset({(1, 1), (2, 2)}):
                found = cand
                break
    assert found is not None
    t3 = t_algebra(3)
    assert support(covering_matrix(t3)).positions == frozenset(
        (i, j) for i in range(1, 4) for j in range(i, 4))


def test_nonneg_covering():
    t2 = t_algebra(2)
    m = nonneg_covering_exists(t2)
    assert m is not None and is_nonneg(m) and support(m) == t2.support()
    assert nonneg_covering_exists(C_LIKE) is None
    dn = d_algebra(4)
    m = nonneg_covering_exists(dn)
    assert m is not None and support(m) == dn.support()


def test_conjugate_and_direct_sum():
    t2 = t_algebra(2)
    assert conjugate_algebra(t2, identity(2)) == t2
    r = generate(1, [])
    assert algebra_direct_sum(r, r) == d_algebra(2)
    assert algebra_direct_sum(t2, d_algebra(2)).dim == 5


def _preorder_units(rng, n):
    """The matrix units on the reflexive-transitive closure of a random
    relation: a block-triangular algebra, of any dimension from n to n^2
    that one can have."""
    reach = [[i == j or rng.random() < 0.3 for j in range(n)]
             for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                reach[i] = [a or b for a, b in zip(reach[i], reach[k])]
    return [matrix_unit(n, i + 1, j + 1) for i in range(n) for j in range(n)
            if reach[i][j]]


def _algebras_of_every_dimension(rng, n):
    """One algebra of n x n matrices for each dimension a unital algebra
    can have, 1..n^2 - n + 1 and n^2: k <= n from one diagonal matrix with
    k distinct entries, the others spanned by the units on a preorder,
    mixed into dense rows by a unimodular conjugation; and two algebras
    generated by random matrices."""
    out = {k: generate(n, [diag(*[min(i, k - 1) for i in range(n)])])
           for k in range(1, n + 1)}
    for _ in range(400):
        units = _preorder_units(rng, n)
        if len(units) not in out:
            a = Algebra(n, tuple(units))
            if rng.random() < 0.5:
                a = oracle_conjugate_algebra(a, random_unimodular(rng, n))
            out[len(units)] = a
    return list(out.values()) + [generate(n, [random_mat(rng, n, 2)
                                              for _ in range(k)])
                                 for k in (1, 2)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_conjugate_algebra_matches_the_product_oracle(n):
    """Through the annihilator when 2 dim A > n^2, basis-wise otherwise,
    C^{-1} A C has the canonical rows that conjugating each basis matrix
    by normalized products and re-echelonizing gives, for algebras of every
    dimension, M_n and the incidence algebras among them, under
    unimodular and rational C."""
    rng = random.Random(40 + n)
    algebras = _algebras_of_every_dimension(rng, n)
    assert {a.dim for a in algebras} == set(range(1, n * n - n + 2)) | {n * n}
    for a in algebras:
        for c in (random_unimodular(rng, n), random_mat(rng, n, 3, 2)):
            if rank(c.num) < n:
                continue
            got, want = conjugate_algebra(a, c), oracle_conjugate_algebra(a, c)
            assert got == want and got._span == want._span
    with pytest.raises(ValueError):
        conjugate_algebra(algebras[0], identity(n + 1))


def test_ideals_and_simplicity():
    m2 = m_algebra(2)
    assert is_simple(m2)
    t2 = t_algebra(2)
    assert not is_simple(t2)
    ideal = two_sided_ideal(t2, matrix_unit(2, 1, 2))
    assert len(ideal) == 1
    assert not is_simple(d_algebra(2))
    # complex-like algebra is simple over the reals
    assert is_simple(C_LIKE)
    # swap algebra splits as two reals: not simple despite every basis
    # element generating the full ideal
    swap_alg = generate(2, [Mat.from_rows([[0, 1], [1, 0]])])
    assert not is_simple(swap_alg)
    with pytest.raises(ValueError):
        two_sided_ideal(t2, matrix_unit(2, 2, 1))


def test_center_and_centralizer():
    m2 = m_algebra(2)
    zc = center(m2)
    assert len(zc) == 1 and zc[0] == identity(2)
    cent = centralizer(jordan_cell(2, 0))
    assert cent.dim == 2
    assert cent.contains(jordan_cell(2, 0)) and cent.contains(identity(2))
    assert centralizer(diag(1, 2)) == d_algebra(2)
    m = random_mat(random.Random(12), 4, 3)
    cent = centralizer(m)
    assert all(b @ m == m @ b for b in cent.basis)
    assert cent.is_unital() and cent.is_closed()


def test_constructor_rejects_what_is_not_a_closed_unital_algebra():
    i2, e12, e21 = identity(2), matrix_unit(2, 1, 2), matrix_unit(2, 2, 1)
    # span{I, E12, E21} misses E12 E21 = E11; generates() once accepted it
    with pytest.raises(ValueError, match="closed"):
        Algebra(2, (i2, e12, e21))
    with pytest.raises(ValueError, match="dependent"):
        Algebra(2, (i2, e12, 3 * e12))
    with pytest.raises(ValueError, match="size"):
        Algebra(2, (identity(3),))
    with pytest.raises(ValueError, match="size"):
        Algebra(2, (i2, Mat.from_rows([[1, 0, 0, 1]])))
    with pytest.raises(ValueError, match="unital"):
        Algebra(2, (e12,))
    assert Algebra(2, (i2, e12, e21, e12 @ e21)) == m_algebra(2)


@pytest.mark.parametrize("n", [True, False, -1, 1.0])
def test_constructor_rejects_a_size_that_is_not_a_nonnegative_int(n):
    # True == 1 in Python: a check by value alone takes a 1 x 1 basis
    with pytest.raises(ValueError, match="nonnegative integer"):
        Algebra(n, (identity(1),))


def test_constructor_keeps_the_canonical_basis():
    rng = random.Random(13)
    reordered = 0
    for n in (2, 3, 3, 4, 4):
        a = conjugate_algebra(incidence_algebra(random_pattern(rng, n)),
                              random_unimodular(rng, n))
        gens = [_random_member(rng, a) for _ in range(2)]
        for hs in (gens, [random_mat(rng, n, 3)]):
            words, _ = closure_words(n, hs)
            mats = [rng.choice((1, -2, 3)) * w for w in words]
            rng.shuffle(mats)
            built = Algebra(n, mats)
            assert built == generate(n, hs)
            assert built.is_closed() and built.dim == len(mats)
            reordered += tuple(mats) != built.basis
    assert reordered >= 5


def test_membership_reuses_the_span_it_was_built_from(monkeypatch):
    from algforge.linear import EchelonSpan
    a = generate(3, [upper_ones(3), diag(3, 2, 1)])
    built = [a, t_algebra(3), conjugate_algebra(a, random_unimodular(
        random.Random(14), 3)), algebra_direct_sum(a, d_algebra(2)),
        centralizer(jordan_cell(3, 0)),
        Algebra(3, tuple(reversed(a.basis)))]
    adds = []
    real = EchelonSpan.add

    def counting(span, vec):
        adds.append(1)
        return real(span, vec)

    monkeypatch.setattr(EchelonSpan, "add", counting)
    for alg in built:
        assert alg.contains(identity(alg.n))
        assert not alg.contains(matrix_unit(alg.n, alg.n, 1))
    assert adds == []


def test_centralizer_dimension_formula():
    # sum of min(n_i, n_j) over all cell pairs, one eigenvalue
    from algforge.matrices import direct_sum
    rng = random.Random(9)
    for _ in range(6):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        if sum(sizes) > 8:
            continue
        a = direct_sum([jordan_cell(s, 0) for s in sizes])
        expected = sum(min(p, q) for p in sizes for q in sizes)
        assert centralizer(a).dim == expected


def test_algebra_json_round_trip_and_loader_rejection():
    t2 = t_algebra(2)
    doc = algebra_to_json(t2)
    assert algebra_from_json(doc) == t2
    # not closed: span{I, E12, E21} misses E11 - E22 products
    bad = {"n": 2, "basis": [
        {"rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "1"]]},
        {"rows": 2, "cols": 2, "entries": [["0", "1"], ["0", "0"]]},
        {"rows": 2, "cols": 2, "entries": [["0", "0"], ["1", "0"]]},
    ]}
    with pytest.raises(ValueError):
        algebra_from_json(bad)
    # not unital
    bad2 = {"n": 2, "basis": [
        {"rows": 2, "cols": 2, "entries": [["0", "1"], ["0", "0"]]}]}
    with pytest.raises(ValueError):
        algebra_from_json(bad2)
    # dependent basis
    bad3 = {"n": 2, "basis": [doc["basis"][0], doc["basis"][0]]}
    with pytest.raises(ValueError):
        algebra_from_json(bad3)


def test_closure_check_on_generated_algebras():
    rng = random.Random(10)
    for _ in range(5):
        a = generate(3, [random_mat(rng, 3, 2), random_mat(rng, 3, 2)])
        assert a.is_closed() and a.is_unital()


def _random_member(rng, a):
    acc = zero(a.n)
    for b in a.basis:
        acc = acc + rng.randint(-3, 3) * b
    return acc


def _generates_cases():
    """(algebra, gens, expected verdict) on seeded conjugated incidence
    algebras: proper subalgebras, a generator outside, empty and redundant
    lists."""
    rng = random.Random(20260)
    cases = []
    for n in (2, 3, 3, 4):
        p = random_pattern(rng, n, triangular=False)
        a = conjugate_algebra(incidence_algebra(p), random_unimodular(rng, n))
        basis = list(a.basis)
        x, y = _random_member(rng, a), _random_member(rng, a)
        outside = next(m for m in (random_mat(rng, n, 3) for _ in range(50))
                       if not a.contains(m))
        scalars = generate(n, [])
        cases += [
            (a, basis, True),
            (a, basis + [identity(n)], True),
            (a, basis + basis[::-1], True),
            (a, [identity(n)] + basis + [zero(n)], True),
            (a, [3 * b for b in basis] + [b + x for b in basis], True),
            (a, basis[1:] + [x, y, x @ y, y @ x, x, y], True),
            (a, [x, y, x, y], None),
            (a, [x], None),
            (a, basis + [outside], False),
            (a, [outside], False),
            (a, [], a.dim == 1),
            (scalars, [], True),
            (scalars, [2 * identity(n)], True),
            (scalars, [x], x == x.data[0][0] * identity(n)),
        ]
    # proper subalgebras of the upper triangular 3 x 3 algebra
    t3 = t_algebra(3)
    cases += [(t3, [diag(3, 2, 1)], False),
              (t3, [upper_ones(3)], False),
              (t3, [upper_ones(3), diag(3, 2, 1)], True),
              (t3, list(t3.basis) + [upper_ones(3)], True),
              (t3, [upper_ones(3), matrix_unit(3, 2, 1)], False)]
    return cases


def test_generates_agrees_with_generate():
    verdicts = set()
    for a, gens, expected in _generates_cases():
        got = generates(a, gens)
        assert got == (generate(a.n, gens) == a)
        if expected is not None:
            assert got == expected
        verdicts.add(got)
    assert verdicts == {True, False}


def test_generates_rejects_size_mismatch():
    with pytest.raises(ValueError):
        generate(3, [matrix_unit(2, 1, 2)])
    with pytest.raises(ValueError):
        generates(t_algebra(3), [identity(2)])
    with pytest.raises(ValueError):
        generates(t_algebra(3), [upper_ones(3), identity(4)])
