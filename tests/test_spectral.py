import random
from fractions import Fraction

import pytest

from algforge.algebra import generate
from algforge.matrices import (Mat, conjugate, direct_sum, identity,
                               jordan_cell, poly_at, zero)
from algforge.polynomials import Poly, rational_roots
from algforge.spectral import (JordanSpec, char_poly, eigenvalue_multiplicity,
                               generalized_eigensplit,
                               has_simple_real_eigenvalue,
                               nilpotent_jordan_basis,
                               rational_spectral_projector,
                               spectral_radius_bound)
from oracles import (block_projector_poly, companion, faddeev_char_poly,
                     fraction_min_poly, matrix_unit, orbit_span,
                     poly_from_roots, polynomial_spectral_projector,
                     random_mat, random_unimodular, structural_decomposition)

F = Fraction


def diag(*vals):
    n = len(vals)
    return Mat.from_rows([[vals[i] if i == j else 0 for j in range(n)]
                          for i in range(n)])


def test_char_poly_examples():
    assert char_poly(jordan_cell(3, 2)) == poly_from_roots([2, 2, 2])
    assert fraction_min_poly(diag(1, 1, 2)) == poly_from_roots([1, 2])
    p = Poly.of(-1, -1, 0, 1)
    assert char_poly(companion(p)) == p
    assert char_poly(zero(0)) == Poly.of(1)


def test_char_poly_matches_faddeev_oracle():
    rng = random.Random(2026)
    for _ in range(25):
        n = rng.randint(1, 5)
        a = random_mat(rng, n, 6)
        assert char_poly(a) == faddeev_char_poly(a)


def test_cayley_hamilton_and_min_divides_char():
    rng = random.Random(77)
    for _ in range(15):
        n = rng.randint(1, 4)
        a = random_mat(rng, n, 5, max_den=2)
        cp, mp = char_poly(a), fraction_min_poly(a)
        assert poly_at(cp, a) == zero(n)
        assert poly_at(mp, a) == zero(n)
        assert (cp % mp).is_zero


def test_has_simple_real_eigenvalue():
    assert not has_simple_real_eigenvalue(identity(2))
    assert not has_simple_real_eigenvalue(Mat.from_rows([[0, -1], [1, 0]]))
    # (x^2-2)(x-1)^2: the irrational pair is simple
    p = Poly.of(-2, 0, 1) * poly_from_roots([1, 1])
    assert has_simple_real_eigenvalue(companion(p))


def test_block_projector_poly():
    h = block_projector_poly(poly_from_roots([2]), poly_from_roots([1]))
    assert h == Poly.of(-1, 1)
    assert poly_at(h, diag(1, 2)) == diag(0, 1)
    h = block_projector_poly(Poly.of(0, 0, 1), poly_from_roots([2]))
    assert h == Poly.of(1, 0, F(-1, 4))
    a = direct_sum([Mat.from_rows([[2]]), jordan_cell(2, 0)])
    assert poly_at(h, a) == direct_sum([zero(1), identity(2)])
    with pytest.raises(ValueError):
        block_projector_poly(poly_from_roots([1]), poly_from_roots([1]))


def test_rational_spectral_projector():
    assert rational_spectral_projector(diag(3, 5), 3) == matrix_unit(2, 1, 1)
    a = direct_sum([jordan_cell(2, 0), Mat.from_rows([[1]])])
    assert rational_spectral_projector(a, 1) == matrix_unit(3, 3, 3)
    assert rational_spectral_projector(jordan_cell(2, 1), 1) == identity(2)
    with pytest.raises(ValueError):
        rational_spectral_projector(diag(1, 2), 3)


def test_projector_rank_is_algebraic_multiplicity():
    from algforge.linear import rank
    rng = random.Random(55)
    for _ in range(10):
        sizes = [rng.randint(1, 2) for _ in range(rng.randint(1, 3))]
        eigs = rng.sample(range(-4, 5), len(sizes))
        blocks = [jordan_cell(s, e) for s, e in zip(sizes, eigs)]
        a0 = direct_sum(blocks)
        c = random_unimodular(rng, a0.rows)
        a = conjugate(a0, c)
        lam = F(eigs[0])
        proj = rational_spectral_projector(a, lam)
        mult = eigenvalue_multiplicity(char_poly(a), lam)
        assert proj @ proj == proj
        assert rank(proj.num) == mult


def test_projector_matches_the_polynomial_oracle():
    # seeded unimodular conjugates of Jordan forms, one target eigenvalue of
    # multiplicity 1-3 (one or two cells) beside other rational cells and,
    # sometimes, the irrational pair of x^2 - 2; sizes 2-6
    rng = random.Random(2222)
    seen = set()
    for _ in range(60):
        mult = rng.randint(1, 3)
        n = rng.randint(max(2, mult), 6)
        lam = F(rng.randint(-3, 3), rng.choice((1, 1, 2)))
        first = rng.randint(1, mult)
        blocks = [jordan_cell(s, lam) for s in (first, mult - first) if s]
        rest = n - mult
        if rest >= 2 and rng.random() < 0.4:
            blocks.append(companion(Poly.of(-2, 0, 1)))
            rest -= 2
        others = [e for e in range(-4, 5) if e != lam]
        while rest:
            s = rng.randint(1, rest)
            blocks.append(jordan_cell(s, rng.choice(others)))
            rest -= s
        rng.shuffle(blocks)
        a = conjugate(direct_sum(blocks), random_unimodular(rng, n))
        assert eigenvalue_multiplicity(char_poly(a), lam) == mult
        proj = rational_spectral_projector(a, lam)
        assert proj == polynomial_spectral_projector(a, lam)
        seen.add((mult, n))
        with pytest.raises(ValueError):
            rational_spectral_projector(a, F(11, 3))
    assert {m for m, _ in seen} == {1, 2, 3}
    assert {n for _, n in seen} == {2, 3, 4, 5, 6}


def test_spectral_radius_bound():
    assert spectral_radius_bound(identity(3)) == 1
    assert spectral_radius_bound(jordan_cell(2, 0)) == 1
    assert spectral_radius_bound(Mat.from_rows([[1, -2], [3, 4]])) == 7
    # dominates every rational eigenvalue
    rng = random.Random(66)
    for _ in range(10):
        eigs = [F(rng.randint(-6, 6)) for _ in range(3)]
        a = conjugate(diag(*eigs), random_unimodular(rng, 3))
        bound = spectral_radius_bound(a)
        assert all(abs(e) <= bound for e in eigs)


def test_orbit_span():
    m2 = generate(2, [matrix_unit(2, 1, 2), matrix_unit(2, 2, 1)])
    e1 = (F(1), F(0))
    assert len(orbit_span(m2, e1)) == 2
    upper = generate(2, [matrix_unit(2, 1, 1), matrix_unit(2, 1, 2)])
    rows = orbit_span(upper, e1)
    assert rows == [(1, 0)]
    d2 = generate(2, [diag(1, 2)])
    assert orbit_span(d2, (F(3), F(0))) == [(1, 0)]
    with pytest.raises(ValueError):
        orbit_span(d2, (F(0), F(0)))
    with pytest.raises(ValueError):
        orbit_span(d2, (F(1), F(0), F(0)))


def test_structural_decomposition_cases():
    m2 = generate(2, [matrix_unit(2, 1, 2), matrix_unit(2, 2, 1)])
    d = structural_decomposition(m2)
    assert d.case == 4 and d.sizes == (0, 2, 0) and d.l == 1
    assert d.transform == identity(2)

    upper = generate(2, [matrix_unit(2, 1, 1), matrix_unit(2, 1, 2)])
    d = structural_decomposition(upper)
    assert d.case == 2 and d.sizes == (0, 1, 1) and d.l == 1

    d2 = generate(2, [diag(1, 2), matrix_unit(2, 1, 1)])
    d = structural_decomposition(d2)
    assert d.sizes[1] == 1 and d.l == d.sizes[0] + 1

    with pytest.raises(ValueError):
        structural_decomposition(generate(2, [diag(1, 1)]))


def test_structural_decomposition_random_property():
    rng = random.Random(101)
    produced = 0
    while produced < 12:
        n = rng.randint(2, 4)
        gens = [random_mat(rng, n, 2) for _ in range(rng.randint(1, 2))]
        gens.append(matrix_unit(n, 1, 1))
        alg = generate(n, gens)
        d = structural_decomposition(alg)  # verifies its own postconditions
        assert sum(d.sizes) == n
        assert d.l == d.sizes[0] + 1
        produced += 1


def test_nilpotent_jordan_basis():
    n0 = direct_sum([jordan_cell(3, 0), jordan_cell(1, 0), jordan_cell(2, 0)])
    rng = random.Random(5)
    c = random_unimodular(rng, 6)
    m = conjugate(n0, c)
    basis, sizes = nilpotent_jordan_basis(m)
    assert sizes == (3, 2, 1)
    assert conjugate(m, basis) == direct_sum([jordan_cell(s, 0) for s in sizes])
    with pytest.raises(ValueError):
        nilpotent_jordan_basis(identity(2))


def test_generalized_eigensplit():
    a = direct_sum([diag(5), jordan_cell(2, 0)])
    c, m, sizes = generalized_eigensplit(a, F(0))
    assert m == 2 and sizes == (2,)
    split = conjugate(a, c)
    assert split.submatrix(range(1, 3), range(1, 3)) == jordan_cell(2, 0)


def test_jordan_spec():
    spec = JordanSpec(((F(0), (2, 1)), (F(1), (1,))))
    assert spec.n == 4
    assert spec.centralizer_dimension() == (2 + 1 + 1 + 1) + 1
    a = spec.assemble()
    assert a == direct_sum([jordan_cell(2, 0), jordan_cell(1, 0),
                            jordan_cell(1, 1)])
    with pytest.raises(ValueError):
        JordanSpec(((F(0), (1,)), (F(0), (2,))))


def test_single_generator_on_a_wide_constant_term():
    # eigenvalue 3 above the companion block of x^4 + 2x^3 + 2x^2 + 2x + 2c,
    # which is Eisenstein at 2: the char poly's constant term has 65 bits
    from algforge.constructions import single_generator_nonneg
    from algforge.verify import verify_certificate
    c = 2 ** 62 + 1
    a = Mat.from_rows([[3, 1, 0, 0, 0],
                       [0, 0, 0, 0, -2 * c],
                       [0, 1, 0, 0, -2],
                       [0, 0, 1, 0, -2],
                       [0, 0, 0, 1, -2]])
    assert rational_roots(char_poly(a)) == [(F(3), 1)]
    cert = single_generator_nonneg(a)
    assert verify_certificate(cert) == []
