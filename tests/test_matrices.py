from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from algforge.matrices import (Mat, conjugate, direct_sum, identity,
                               inverse, is_nonneg, is_positive, jordan_cell,
                               mat_from_json, mat_to_json, ones,
                               permutation_matrix, regular_triangular,
                               support, support_union, uniform_norm,
                               uniformizer, uniformizer_inv, with_inverse,
                               zero)
from algforge.polynomials import Poly
from oracles import commutator, companion, matrix_unit, random_mat
import random
import reference

F = Fraction


def test_uniformizer_displays():
    k2 = uniformizer(2)
    assert k2 == F(1, 2) * Mat.from_rows([[-1, 1], [1, 1]])
    assert uniformizer_inv(2) == Mat.from_rows([[-1, 1], [1, 1]])
    assert uniformizer_inv(3).data[0] == (F(-1), F(-1), F(1))


def test_with_inverse_checks_before_it_caches():
    c = uniformizer(3)
    for wrong in (2 * uniformizer_inv(3), identity(2)):
        with pytest.raises(ArithmeticError, match="not the inverse"):
            with_inverse(c, wrong)
        assert "inverse" not in vars(c)
    assert with_inverse(c, uniformizer_inv(3)) is c
    assert vars(c)["inverse"] == uniformizer_inv(3)
    assert conjugate(matrix_unit(3, 3, 3), c) == F(1, 3) * ones(3)


@pytest.mark.parametrize("n", range(2, 13))
def test_uniformizer_inverse_identity(n):
    assert uniformizer_inv(n) @ uniformizer(n) == identity(n)


@pytest.mark.parametrize("n", range(2, 13))
def test_uniformizer_flattens_corner_unit(n):
    got = conjugate(matrix_unit(n, n, n), uniformizer(n))
    assert got == F(1, n) * ones(n)


def test_regular_triangular_square():
    r = regular_triangular(3, 3, [1, 2, 3])
    assert r == Mat.from_rows([[1, 2, 3], [0, 1, 2], [0, 0, 1]])


def test_regular_triangular_padding():
    wide = regular_triangular(2, 3, [5, 7])
    assert wide == Mat.from_rows([[0, 5, 7], [0, 0, 5]])
    tall = regular_triangular(3, 2, [5, 7])
    assert tall == Mat.from_rows([[5, 7], [0, 5], [0, 0]])


def test_basic_constructors():
    assert jordan_cell(3, 2) == Mat.from_rows([[2, 1, 0], [0, 2, 1], [0, 0, 2]])
    assert matrix_unit(2, 1, 2) == Mat.from_rows([[0, 1], [0, 0]])
    p = permutation_matrix([1, 0])
    assert p == Mat.from_rows([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        permutation_matrix([0, 0])
    s = direct_sum([identity(1), zero(0), jordan_cell(2, 0)])
    assert s == Mat.from_rows([[1, 0, 0], [0, 0, 1], [0, 0, 0]])


def test_companion_char_poly():
    from algforge.spectral import char_poly
    p = Poly.of(-1, -1, 0, 1)  # x^3 - x - 1
    assert char_poly(companion(p)) == p


def test_conjugate_examples():
    a = Mat.from_rows([[1, 2], [3, 4]])
    assert conjugate(a, identity(2)) == a
    swap = permutation_matrix([1, 0])
    assert conjugate(jordan_cell(2, 0), swap) == Mat.from_rows([[0, 0], [1, 0]])
    with pytest.raises(ValueError):
        conjugate(a, Mat.from_rows([[1, 1], [1, 1]]))


def test_conjugate_round_trip():
    rng = random.Random(7)
    from oracles import random_unimodular
    for _ in range(10):
        a = random_mat(rng, 4, height=5)
        c = random_unimodular(rng, 4)
        assert conjugate(conjugate(a, c), inverse(c)) == a


def test_predicates():
    assert is_positive(F(1, 2) * ones(2))
    assert not is_positive(identity(2))
    assert is_nonneg(identity(2))
    assert uniform_norm(Mat.from_rows([[-3, 2], [0, 1]])) == 3


@pytest.mark.parametrize("shape", [(0, 0), (1, 0), (0, 3), (3, 0), (1, 1),
                                   (2, 3)])
def test_sign_predicates_follow_the_reference_on_every_shape(shape):
    # a matrix with no entries is nonnegative and not positive
    r, c = shape
    cells = [(i, j) for i in range(r) for j in range(c)]
    for fill in (F(3, 2), 0, -1):
        for low in [None] + cells[:2]:
            m = Mat(r, c, [[F(0) if (i, j) == low else fill
                            for j in range(c)] for i in range(r)])
            doc = {"outputs": [mat_to_json(m)]}
            for kind, predicate in (("positive", is_positive),
                                    ("nonneg", is_nonneg)):
                assert predicate(m) == reference.holds(
                    doc, {"kind": kind, "target": "out:0"}), (kind, m)


def test_monomial_conjugation_preserves_order():
    # order-preserving similarities: nonnegative nonsingular monomial matrices
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 5)
        perm = list(range(n))
        rng.shuffle(perm)
        c = permutation_matrix(perm)
        scale = direct_sum([Mat.from_rows([[F(rng.randint(1, 5),
                                             rng.randint(1, 3))]])
                            for _ in range(n)])
        monomial = c @ scale
        a = random_mat(rng, n, height=6)
        a = Mat(n, n, tuple(tuple(abs(v) for v in row) for row in a.data))
        assert is_nonneg(conjugate(a, monomial))


def test_commutator_examples():
    d = direct_sum([Mat.from_rows([[3]]), Mat.from_rows([[2]]),
                    Mat.from_rows([[1]])])
    a = zero(3)
    for i in range(1, 4):
        for j in range(i, 4):
            a = a + matrix_unit(3, i, j)
    comm = commutator(d, a)
    expected = zero(3)
    diag = [3, 2, 1]
    for i in range(1, 4):
        for j in range(i, 4):
            expected = expected + (diag[i - 1] - diag[j - 1]) * matrix_unit(3, i, j)
    assert comm == expected
    assert is_nonneg(comm)
    assert commutator(a, a) == zero(3)
    # direct multiplication oracle: [E12, E21] = diag(1, -1)
    got = commutator(matrix_unit(2, 1, 2), matrix_unit(2, 2, 1))
    assert got == Mat.from_rows([[1, 0], [0, -1]])


def test_support():
    assert support(identity(2)) == frozenset({(1, 1), (2, 2)})
    assert support(ones(2)) == frozenset(
        {(1, 1), (1, 2), (2, 1), (2, 2)})
    got = support_union([matrix_unit(2, 1, 2), matrix_unit(2, 2, 1)])
    assert got == frozenset({(1, 2), (2, 1)})


def test_mat_json_round_trip():
    a = Mat.from_rows([[F(1, 3), -2], [0, F(7, 2)]])
    doc = mat_to_json(a)
    assert doc["entries"] == [["1/3", "-2"], ["0", "7/2"]]
    assert mat_from_json(doc, {}) == a


@given(st.integers(2, 5))
def test_ones_squares_to_scaled_ones(n):
    assert ones(n) @ ones(n) == n * ones(n)


@pytest.mark.parametrize("build", [
    lambda: Mat(1, 1, [[0.1]]),
    lambda: Mat.from_rows([[0.1]]),
    lambda: identity(2) * 0.1,
    lambda: 0.1 * identity(2),
    lambda: Poly([0.1]),
    lambda: Poly.of(0.1),
    lambda: Poly.from_coeffs([0.1]),
    lambda: Poly.of(1) * 0.1,
    lambda: 0.1 * Poly.of(1),
    lambda: Mat(1, 1, [["1/10"]]),
    lambda: jordan_cell(2, 0.1),
    lambda: regular_triangular(2, 2, [1, 0.1]),
    lambda: Poly.of(1, 1)(0.1),
], ids=["Mat", "Mat.from_rows", "Mat*", "*Mat", "Poly", "Poly.of",
        "Poly.from_coeffs", "Poly*", "*Poly", "Mat-str", "jordan_cell",
        "regular_triangular", "Poly-at"])
def test_no_float_enters_the_exact_types(build):
    """0.1 is 3602879701896397 / 2^55 in binary, not 1/10: every entry
    point refuses a float with a TypeError instead of building that."""
    with pytest.raises(TypeError):
        build()


def test_a_poly_scales_by_an_int_or_a_fraction():
    assert Poly.of(2) * F(1, 10) == F(1, 10) * Poly.of(2) == Poly(["1/5"])
    assert 3 * Poly.of(F(1, 3), 1) == Poly.of(1, 3)
