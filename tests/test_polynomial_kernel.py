"""The integer polynomial kernel against the Fraction code it replaced.

`Poly` keeps integer numerators over one denominator; its arithmetic,
`divmod`, `poly_gcd`, `monic` and evaluation must give exactly the
coefficients of the Fraction-coefficient class kept in `oracles`.
`char_poly` (Berkowitz on the integer numerators) must equal both the
Fraction Hessenberg reduction and Faddeev-LeVerrier on rational matrices,
`inverse` must equal textbook Gauss-Jordan, and `poly_at` of the minimal
polynomial (the Fraction kernel of the powers, `oracles.fraction_min_poly`)
must vanish.  None of the package routines builds a Fraction.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from algforge.linear import invert
from algforge.matrices import Mat, identity, inverse, poly_at, zero
from algforge.polynomials import (P_ZERO, Poly, multiplicity_one_part,
                                  poly_gcd, root_multiplicity,
                                  sturm_real_root_count)
from algforge.spectral import char_poly
from oracles import (FractionPoly, faddeev_char_poly, fraction_min_poly,
                     fraction_poly_gcd, gauss_jordan, hessenberg_char_poly,
                     poly_from_roots, poly_xgcd, random_mat,
                     squarefree_decomposition)

F = Fraction


def random_coeff(rng, kind):
    if kind == "wide":
        num = rng.getrandbits(rng.randint(40, 60)) * rng.choice((1, -1))
        return F(num, rng.choice((1, 3, 2 ** 20 + 7, 10 ** 12 + 39)))
    if rng.random() < 0.25:
        return F(0)
    return F(rng.randint(-30, 30), rng.choice((1, 2, 3, 4, 6, 7, 9, 35, 60)))


def random_coeffs(rng):
    """Ascending coefficients: mixed denominators or 40-60-bit numerators,
    often a negative leading coefficient, sometimes a constant or zero."""
    kind = rng.choice(("small", "small", "wide"))
    roll = rng.random()
    if roll < 0.08:
        return []
    degree = 0 if roll < 0.2 else rng.randint(1, 7)
    coeffs = [random_coeff(rng, kind) for _ in range(degree + 1)]
    while not coeffs[-1]:
        coeffs[-1] = random_coeff(rng, kind)
    if rng.random() < 0.4:
        coeffs[-1] = -abs(coeffs[-1])
    return coeffs


def pair(coeffs):
    return Poly(coeffs), FractionPoly.from_coeffs(coeffs)


def assert_canonical(p):
    assert p.den > 0 and gcd(p.den, *p.num) == 1
    assert not p.num or p.num[-1] != 0
    if not p.num:
        assert p.den == 1


@pytest.mark.parametrize("seed", range(6))
def test_arithmetic_matches_fraction_oracle(seed):
    rng = random.Random(seed)
    for _ in range(60):
        p, fp = pair(random_coeffs(rng))
        q, fq = pair(random_coeffs(rng))
        c = random_coeff(rng, "small")
        cases = [(p + q, fp + fq), (p - q, fp - fq), (-p, -fp),
                 (p * q, fp * fq), (c * p, c * fp), (p * 3, fp * 3),
                 (p ** 2, fp ** 2), (p.derivative(), fp.derivative()),
                 (p.monic(), fp.monic())]
        if not q.is_zero:
            (quo, rem), (fquo, frem) = divmod(p, q), divmod(fp, fq)
            cases += [(quo, fquo), (rem, frem)]
            assert quo * q + rem == p
        for mine, theirs in cases:
            assert mine.coeffs == theirs.coeffs
            assert_canonical(mine)
        assert p.degree == fp.degree and p.is_zero == fp.is_zero
        if not p.is_zero:
            assert p.leading == fp.leading
        for x in (0, 1, -2, F(3, 7), F(-5, 2), random_coeff(rng, "wide")):
            assert p(x) == fp(x)
            assert type(p(x)) is Fraction


@pytest.mark.parametrize("seed", range(6))
def test_gcd_matches_fraction_oracle(seed):
    """Random pairs, and pairs built with a common factor so the gcd is
    not 1; zero on either side."""
    rng = random.Random(100 + seed)
    for _ in range(40):
        f = Poly(random_coeffs(rng) or [1])
        p = f * Poly(random_coeffs(rng))
        q = f * Poly(random_coeffs(rng)) if rng.random() < 0.7 \
            else Poly(random_coeffs(rng))
        if p.is_zero and q.is_zero:
            with pytest.raises(ValueError):
                poly_gcd(p, q)
            continue
        g = poly_gcd(p, q)
        expected = fraction_poly_gcd(FractionPoly.from_coeffs(p.coeffs),
                                     FractionPoly.from_coeffs(q.coeffs))
        assert g.coeffs == expected.coeffs
        assert_canonical(g)
        assert g.num[-1] == g.den  # monic
        if not p.is_zero and not q.is_zero:
            assert (p % g).is_zero and (q % g).is_zero


def test_xgcd_and_squarefree_parts_on_wide_coefficients():
    rng = random.Random(7)
    for _ in range(30):
        p, q = Poly(random_coeffs(rng)), Poly(random_coeffs(rng))
        if p.is_zero and q.is_zero:
            continue
        g, u, v = poly_xgcd(p, q)
        assert u * p + v * q == g == poly_gcd(p, q)
        roots = [random_coeff(rng, "small") for _ in range(rng.randint(1, 5))]
        r = poly_from_roots(roots + roots[:2]) * Poly(random_coeffs(rng) or [1])
        if r.is_zero:
            continue
        product = Poly([1])
        for i, part in enumerate(squarefree_decomposition(r), 1):
            product = product * part ** i
        assert product == r.monic()


def test_equal_polynomials_have_equal_fields_and_hashes():
    half = F(1, 2)
    same = [Poly.of(half, 1), Poly([F(2, 4), F(3, 3), 0, 0]),
            Poly.from_coeffs(["1/2", "1"]), Poly.from_ints(4, [2, 4]),
            Poly.from_ints(-6, [-3, -6, 0]), Poly.of(0, 1) + Poly.of(half),
            (Poly.of(1, 2) * Poly.of(1, 2)) // Poly.of(2, 4),
            Poly.of(-1, -2).monic(), poly_from_roots([F(-1, 2)])]
    for p in same:
        assert (p.den, p.num) == (2, (1, 2))
        assert p == same[0] and hash(p) == hash(same[0])
    zeros = [Poly(), Poly([0, 0]), Poly.of(1, 2) - Poly.of(1, 2),
             Poly.of(3) * 0, Poly.from_ints(5, [0]), P_ZERO]
    for z in zeros:
        assert (z.den, z.num) == (1, ()) and z == P_ZERO
        assert hash(z) == hash(P_ZERO) and z.coeffs == ()
    assert len({*same, *zeros}) == 2
    assert Poly.of(1, 2) != Poly.of(F(1, 2), 1)


def test_poly_is_immutable_and_checks_its_denominator():
    p = Poly.of(1, 2)
    with pytest.raises(AttributeError):
        p.den = 3
    with pytest.raises(AttributeError):
        del p.num
    with pytest.raises(ZeroDivisionError):
        Poly.from_ints(0, [1])
    with pytest.raises(ZeroDivisionError):
        divmod(p, Poly())


def test_root_multiplicity_of_the_zero_polynomial_raises():
    with pytest.raises(ValueError, match="zero polynomial"):
        root_multiplicity(Poly(), F(1, 2))
    assert root_multiplicity(poly_from_roots([2, 2, F(1, 3)]), 2) == 2
    assert root_multiplicity(Poly.of(5), 2) == 0


def structured_mats(rng, n):
    """Zero, triangular and block matrices: the Hessenberg reduction meets
    zero columns and zero subdiagonal entries on them."""
    yield zero(n)
    yield Mat.from_rows([[F(rng.randint(-5, 5), rng.randint(1, 7))
                          if j >= i else 0 for j in range(n)]
                         for i in range(n)])
    k = n // 2
    yield Mat.from_rows([[F(rng.randint(-5, 5), rng.randint(1, 7))
                          if (i < k) == (j < k) else 0 for j in range(n)]
                         for i in range(n)])


@pytest.mark.parametrize("n", range(8))
def test_char_poly_matches_both_oracles_on_rational_matrices(n):
    rng = random.Random(200 + n)
    mats = [random_mat(rng, n, height=12, max_den=7) for _ in range(4)]
    mats += list(structured_mats(rng, n))
    mats.append(random_mat(rng, n, height=12) * F(1, rng.randint(2, 7)))
    for a in mats:
        cp = char_poly(a)
        assert cp.coeffs == hessenberg_char_poly(a).coeffs
        assert cp == faddeev_char_poly(a)
        assert_canonical(cp)
        assert cp.degree == n and cp.leading == 1


@pytest.mark.parametrize("n", range(1, 7))
def test_min_poly_matches_fraction_powers(n):
    """The minimal polynomial of the Fraction powers is annihilated by the
    integer `poly_at` and divides the Berkowitz characteristic
    polynomial."""
    rng = random.Random(300 + n)
    for a in [random_mat(rng, n, height=9, max_den=7),
              *structured_mats(rng, n)]:
        mp = fraction_min_poly(a)
        assert poly_at(mp, a) == zero(n)
        assert (char_poly(a) % mp).is_zero


@pytest.mark.parametrize("n", range(7))
def test_inverse_matches_linear_invert(n):
    rng = random.Random(400 + n)
    done = 0
    while done < 5:
        a = random_mat(rng, n, height=9, max_den=7)
        # textbook Gauss-Jordan on [A | I] leaves [I | A^-1] when A is
        # nonsingular
        eye = [[F(int(i == j)) for j in range(n)] for i in range(n)]
        rref = gauss_jordan([list(r) + e for r, e in zip(a.data, eye)], 2 * n)
        if [row[:n] for row in rref] != [tuple(e) for e in eye]:
            with pytest.raises(ValueError):
                invert(a.num)
            with pytest.raises(ValueError):
                inverse(a)
            continue
        expected = [row[n:] for row in rref]
        inv = inverse(a)
        assert inv == Mat(n, n, expected)
        assert inv @ a == identity(n) == a @ inv
        done += 1
    singular = Mat.from_rows([[1, F(1, 2)], [2, 1]])
    with pytest.raises(ValueError, match="singular"):
        inverse(singular)


def fraction_horner(p, a):
    acc = zero(a.rows)
    for c in reversed(p.coeffs):
        acc = acc @ a + c * identity(a.rows)
    return acc


@pytest.mark.parametrize("n", range(6))
def test_poly_at_matches_fraction_horner(n):
    rng = random.Random(500 + n)
    for _ in range(8):
        a = random_mat(rng, n, height=9, max_den=7)
        p = Poly(random_coeffs(rng))
        assert poly_at(p, a) == fraction_horner(p, a)
    assert poly_at(Poly(), identity(n)) == zero(n)


def test_polynomial_kernel_builds_no_fraction(monkeypatch):
    made = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    rng = random.Random(11)
    a = random_mat(rng, 5, height=9, max_den=7)
    p = Poly([F(3, 4), F(-2, 3), 0, F(5, 6), F(-1, 2)])
    q = Poly([F(7, 5), 1, F(-1, 3)])
    lin = poly_from_roots([F(1, 2), F(1, 2), 3])
    two_thirds = F(2, 3)
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    p + q, p - q, -p, p * q, p * two_thirds, 3 * p, p ** 3
    divmod(p, q), p // q, p % q, p.derivative(), p.monic()
    poly_gcd(p * q, q * lin), poly_xgcd(p, q)
    multiplicity_one_part(lin * q), sturm_real_root_count(q * p.monic())
    char_poly(a), inverse(a), poly_at(p, a)
    Poly.from_ints(6, [2, 4, 0]), p == q, hash(p)
    assert made == []
