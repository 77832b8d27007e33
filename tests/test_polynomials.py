import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from algforge.polynomials import (P_ONE, Poly, _squarefree_roots,
                                  _sturm_chain, multiplicity_one_part,
                                  poly_gcd,
                                  rational_roots, squarefree_decomposition,
                                  sturm_real_root_count)
from oracles import (bisection_real_root_count, full_chain_rational_roots,
                     poly_crt, poly_from_roots, poly_xgcd)

X = Poly.of(0, 1)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=6)


def polys(max_degree=5):
    return st.lists(rationals, min_size=0, max_size=max_degree + 1).map(
        Poly.from_coeffs)


def test_ring_examples():
    assert Poly.of(-1, 1) * Poly.of(1, 1) == Poly.of(-1, 0, 1)
    q, r = divmod(Poly.of(-1, 0, 1), Poly.of(-1, 1))
    assert q == Poly.of(1, 1) and r.is_zero
    assert Poly.of(2, 3)(Fraction(1, 2)) == Fraction(7, 2)


def test_eval_at_shift_matrix_squares_to_zero():
    from algforge.matrices import jordan_cell, poly_at, zero
    assert poly_at(Poly.of(0, 0, 1), jordan_cell(2, 0)) == zero(2)


def test_divide_by_zero_poly():
    with pytest.raises(ZeroDivisionError):
        divmod(X, Poly())


@given(polys(), polys())
def test_divmod_invariant(p, q):
    if q.is_zero:
        return
    d, r = divmod(p, q)
    assert q * d + r == p
    assert r.degree < q.degree


def test_gcd_examples():
    assert poly_gcd(Poly.of(-1, 0, 1), Poly.of(-1, 1)) == Poly.of(-1, 1)
    assert poly_gcd(Poly.of(1, 0, 1), Poly.of(-1, 1)) == P_ONE
    # factor-comparison oracle: gcd((x-2)^2 (x+1), (x-2)(x+3)) = x-2
    left = poly_from_roots([2, 2, -1])
    right = poly_from_roots([2, -3])
    assert poly_gcd(left, right) == poly_from_roots([2])


@given(polys(), polys())
def test_gcd_divides_both(p, q):
    if p.is_zero and q.is_zero:
        return
    g = poly_gcd(p, q)
    if not p.is_zero:
        assert (p % g).is_zero
    if not q.is_zero:
        assert (q % g).is_zero


@given(polys(), polys())
def test_xgcd_identity(p, q):
    if p.is_zero and q.is_zero:
        return
    g, u, v = poly_xgcd(p, q)
    assert u * p + v * q == g


def test_squarefree_examples():
    # (x-1)(x-2)^2 -> x-1
    p = poly_from_roots([1, 2, 2])
    assert multiplicity_one_part(p) == poly_from_roots([1])
    # (x-2)^2 (x^2+1) -> x^2+1  (factor-multiplicity oracle)
    p = poly_from_roots([2, 2]) * Poly.of(1, 0, 1)
    assert multiplicity_one_part(p) == Poly.of(1, 0, 1)
    # x^3 -> constant
    assert multiplicity_one_part(Poly.of(0, 0, 0, 1)) == P_ONE


def test_yun_decomposition_structure():
    p = poly_from_roots([1, 2, 2, 3, 3, 3])
    dec = squarefree_decomposition(p)
    assert dec[0] == poly_from_roots([1])
    assert dec[1] == poly_from_roots([2])
    assert dec[2] == poly_from_roots([3])
    rebuilt = P_ONE
    for i, a in enumerate(dec, start=1):
        rebuilt = rebuilt * a ** i
    assert rebuilt == p.monic()


def test_sturm_examples():
    assert sturm_real_root_count(Poly.of(1, 0, 1)) == 0
    assert sturm_real_root_count(poly_from_roots([0, 1, -1])) == 3
    p = Poly.of(-2, 0, 1)
    assert sturm_real_root_count(p) == bisection_real_root_count(p) == 2


def test_sturm_rejects_nonsquarefree():
    with pytest.raises(ValueError):
        sturm_real_root_count(poly_from_roots([1, 1]))


def test_sturm_matches_bisection_oracle_on_random_squarefree():
    rng = random.Random(20260810)
    checked = 0
    while checked < 200:
        deg = rng.randint(1, 8)
        coeffs = [Fraction(rng.randint(-10, 10)) for _ in range(deg)] + \
                 [Fraction(rng.randint(1, 10))]
        p = Poly.from_coeffs(coeffs)
        if p.degree < 1 or poly_gcd(p, p.derivative()).degree != 0:
            continue
        assert sturm_real_root_count(p) == bisection_real_root_count(p)
        checked += 1


def test_crt_examples():
    # linear interpolation oracle: h(1)=1, h(2)=0 -> h = 2-x
    h = poly_crt([(poly_from_roots([1]), P_ONE), (poly_from_roots([2]), Poly())])
    assert h == Poly.of(2, -1)
    # hand CRT: moduli x^2 and x-2 -> 1 - x^2/4
    h = poly_crt([(Poly.of(0, 0, 1), P_ONE), (poly_from_roots([2]), Poly())])
    assert h == Poly.of(1, 0, Fraction(-1, 4))
    from algforge.matrices import identity, jordan_cell, poly_at
    assert poly_at(h, jordan_cell(2, 0)) == identity(2)
    assert h(Fraction(2)) == 0


def test_crt_shared_modulus_rejected():
    lin = poly_from_roots([1])
    with pytest.raises(ValueError):
        poly_crt([(lin, P_ONE), (lin, Poly())])


@given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=3),
                min_size=2, max_size=4, unique=True),
       st.data())
def test_crt_satisfies_congruences(points, data):
    pairs = []
    for r in points:
        residue = data.draw(st.fractions(min_value=-5, max_value=5,
                                         max_denominator=3))
        pairs.append((poly_from_roots([r]), Poly.of(residue)))
    h = poly_crt(pairs)
    for m, res in pairs:
        assert ((h - res) % m).is_zero
    assert h.degree < len(points)


def test_rational_roots():
    p = poly_from_roots([Fraction(1, 2), Fraction(1, 2), -3]) * Poly.of(1, 0, 1)
    assert rational_roots(p) == [(Fraction(-3), 1), (Fraction(1, 2), 2)]
    assert rational_roots(Poly.of(0, 0, 1)) == [(Fraction(0), 2)]
    assert rational_roots(Poly.of(1, 0, 1)) == []


def test_rational_roots_match_sympy_on_wide_coefficients():
    import sympy
    x = sympy.Symbol("x")
    rng = random.Random(20261018)
    for _ in range(60):
        planted = []
        for _ in range(rng.randint(1, 3)):
            r = Fraction(rng.randint(-2 ** 20, 2 ** 20), rng.randint(1, 2 ** 10))
            planted += [r] * rng.randint(1, 2)
        bits = rng.randint(40, 60)
        cofactor = Poly.from_coeffs(
            [rng.randint(-2 ** bits, 2 ** bits) for _ in range(rng.randint(1, 3))]
            + [rng.randint(2, 2 ** bits)])
        p = poly_from_roots(planted) * cofactor
        expr = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(p.coeffs)], x)
        expected = sorted((Fraction(int(r.p), int(r.q)), m)
                          for r, m in sympy.roots(expr, filter="Q").items())
        assert rational_roots(p) == expected


def test_rational_root_edge_cases():
    # every root of 100x - 1 is below 1 in size: the bound floors at 2^1
    p = Poly.of(-1, 100)
    assert _sturm_chain(p)[1] == 1
    assert rational_roots(p) == [(Fraction(1, 100), 1)]
    assert rational_roots(Poly.of(7)) == []
    assert sturm_real_root_count(Poly.of(7)) == 0
    for k in range(1, 5):
        assert rational_roots(X ** k) == [(Fraction(0), k)]
    with pytest.raises(ValueError):
        rational_roots(Poly())


def _root_sample(seed):
    """A seeded polynomial of degree at most 10: planted rational roots
    (denominators up to 50, some repeated, some at 0, at +-2^k or at a
    dyadic bisection point), an irrational factor x^2 - c or an integer
    cofactor, and a random integer scale."""
    rng = random.Random(seed)
    kind = rng.randrange(4)
    roots = []
    for _ in range(rng.randint(0, 4)):
        if kind == 0:
            r = Fraction(rng.randint(-200, 200), rng.randint(1, 50))
        elif kind == 1:
            r = Fraction(rng.choice((-1, 1)) * 2 ** rng.randint(-6, 12))
        elif kind == 2:
            r = Fraction(rng.randint(-64, 64), 2 ** rng.randint(0, 6))
        else:
            r = Fraction(0)
        roots += [r] * rng.choice((1, 1, 2, 3))
    p = poly_from_roots(roots[:8])
    room = 10 - p.degree
    if room >= 2 and rng.random() < 0.5:
        c = Fraction(rng.choice((2, 3, 5, 7, 12)), rng.choice((1, 4, 9)))
        p = p * Poly.of(-c, 0, 1)  # x^2 - c, irrational roots unless square
        room -= 2
    if room >= 1 and rng.random() < 0.5:
        top = rng.randint(1, 40) * rng.choice((-1, 1))
        p = p * Poly.of(*[rng.randint(-30, 30)
                          for _ in range(rng.randint(1, room))], top)
    return p * rng.choice((1, -3, 7, Fraction(5, 12)))


def test_rational_roots_match_the_full_chain_oracle():
    c = 2 ** 62 + 1
    fixed = [
        # the characteristic polynomial of the benchmark's fixed input
        Poly.of(-3, 1) * Poly.of(2 * c, 2, 2, 2, 1),
        Poly.of(-2, 0, 1),
        Poly.of(-2, 0, 1) * Poly.of(-1, 0, 1) ** 2,
        X ** 3 * Poly.of(-2, 0, 1),
        poly_from_roots([Fraction(1, 50), Fraction(-49, 50), Fraction(1, 49)]),
        poly_from_roots([1, 2, 4, 8, -16, Fraction(1, 2), Fraction(-1, 4)]),
        poly_from_roots([Fraction(k, 8) for k in range(-4, 5)]),
        Poly.of(-1, 100),
    ]
    found = 0
    for p in fixed + [_root_sample(seed) for seed in range(400)]:
        got = rational_roots(p)
        assert got == full_chain_rational_roots(p)
        found += len(got)
    assert found > 400


def _eisenstein(rng, degree):
    """A primitive polynomial of the given degree that is Eisenstein at a
    prime p, hence irreducible over Q: p divides every coefficient but the
    leading one, and p^2 does not divide the constant term."""
    p = rng.choice((2, 3, 5))
    coeffs = [p * rng.choice([k for k in range(-4, 5) if k % p])]
    coeffs += [p * rng.randint(-3, 3) for _ in range(degree - 1)]
    return Poly.of(*coeffs, rng.choice([k for k in range(1, 7) if k % p]))


def _squarefree_sample(seed):
    """Distinct planted rational roots times up to two Eisenstein factors,
    degree <= 8, or None when the factors are not coprime."""
    rng = random.Random(seed)
    roots = {Fraction(rng.randint(-12, 12), rng.randint(1, 6))
             for _ in range(rng.randint(0, 4))}
    p = poly_from_roots(sorted(roots)) * rng.choice((1, -3, Fraction(5, 12)))
    for _ in range(rng.randint(0, 2)):
        if 8 - p.degree >= 2:
            p = p * _eisenstein(rng, rng.randint(2, 8 - p.degree))
    return p if poly_gcd(p, p.derivative()).degree == 0 else None


def test_one_chain_counts_and_finds_what_two_do():
    rational = irrational = 0
    for seed in range(300):
        p = _squarefree_sample(seed)
        if p is None:
            continue
        count, roots = _squarefree_roots(p)
        assert count == sturm_real_root_count(p)
        assert roots == [r for r, _ in full_chain_rational_roots(p)]
        rational += len(roots)
        irrational += count - len(roots)
    assert rational > 300 and irrational > 100


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=5))
def test_yun_rebuilds_products_of_linear_factors(roots):
    p = poly_from_roots(roots)
    dec = squarefree_decomposition(p)
    rebuilt = P_ONE
    for i, a in enumerate(dec, start=1):
        rebuilt = rebuilt * a ** i
    assert rebuilt == p
    # the multiplicity-one part has exactly the roots appearing once
    once = sorted(r for r in set(roots) if roots.count(r) == 1)
    assert multiplicity_one_part(p) == poly_from_roots(once)


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=5))
def test_rational_roots_recover_linear_factors(roots):
    p = poly_from_roots(roots)
    got = rational_roots(p)
    assert got == sorted((Fraction(r), roots.count(r)) for r in set(roots))
