import random
from fractions import Fraction

import pytest
import sympy
from sympy.solvers.simplex import lpmin

from algforge import simplex
from algforge.algebra import generate, nonneg_covering_exists
from algforge.matrices import Mat, conjugate, zero
from algforge.simplex import feasible_ge
from oracles import (fraction_feasible_ge, full_tableau_feasible_ge,
                     random_mat, random_unimodular)

F = Fraction


def test_simple_feasible():
    # x >= 1 and -x >= -3
    x = feasible_ge([[F(1)], [F(-1)]], [F(1), F(-3)])
    assert x is not None and F(1) <= x[0] <= F(3)


def test_infeasible():
    # x >= 1 and -x >= 1
    assert feasible_ge([[F(1)], [F(-1)]], [F(1), F(1)]) is None


def test_two_variables_exact():
    # x + y >= 1, x - y >= 1, -x >= -2  ->  solutions with fractions
    rows = [[F(1), F(1)], [F(1), F(-1)], [F(-1), F(0)]]
    rhs = [F(1), F(1), F(-2)]
    x = feasible_ge(rows, rhs)
    assert x is not None
    for row, b in zip(rows, rhs):
        assert sum(c * v for c, v in zip(row, x)) >= b


def test_negative_rhs_rows():
    # -x >= -5 alone
    x = feasible_ge([[F(-1)]], [F(-5)])
    assert x is not None and x[0] <= 5


def test_empty_system():
    assert feasible_ge([], []) == []


# -- the integer tableau against the Fraction reference -------------------------

def _random_system(rng: random.Random):
    """A small system A x >= b: mixed denominators, right-hand sides of
    both signs and zero, zero rows, and rows that repeat an earlier row
    times a positive factor, so ratio tests tie."""
    m = rng.randint(1, 7)
    d = rng.randint(0, 4)
    den = rng.choice([1, 2, 6])

    def rat():
        return F(rng.randint(-3, 3), rng.randint(1, den))

    rows = [[rat() for _ in range(d)] for _ in range(m)]
    rhs = [rat() for _ in range(m)]
    for i in range(1, m):
        roll = rng.random()
        if roll < 0.3:
            j = rng.randrange(i)
            k = F(rng.randint(1, 3), rng.randint(1, 2))
            rows[i] = [k * v for v in rows[j]]
            rhs[i] = k * rhs[j]
        elif roll < 0.4:
            rows[i] = [F(0)] * d
    return rows, rhs


SYSTEMS = [_random_system(random.Random(seed)) for seed in range(240)]


def _lp_feasible(rows, rhs) -> bool:
    """Feasibility by sympy: the least t >= 0 with A x + t >= b is 0.

    A zero row is decided on its own (0 >= b), and left out of the linear
    program: `lpmin` turns a one-variable constraint such as t >= b into
    an interval by symbolic solving, which takes tens of milliseconds."""
    if any(not any(row) and bv > 0 for row, bv in zip(rows, rhs)):
        return False
    kept = [(row, bv) for row, bv in zip(rows, rhs) if any(row)]
    if not kept:
        return True
    xs = sympy.symbols(f"x0:{len(rows[0])}")
    t = sympy.Symbol("t")
    cons = [sum((sympy.Rational(c.numerator, c.denominator) * v
                 for c, v in zip(row, xs)), t)
            >= sympy.Rational(bv.numerator, bv.denominator)
            for row, bv in kept]
    best, _ = lpmin(t, cons + [t >= 0])
    return best == 0


def test_samples_cover_every_case():
    assert sum(len(r[0]) == 0 for r, _ in SYSTEMS) >= 20
    assert sum(len(r) > len(r[0]) for r, _ in SYSTEMS) >= 100
    assert sum(any(v.denominator > 1 for row in r for v in row)
               for r, _ in SYSTEMS) >= 100
    assert sum(any(bv < 0 for bv in b) and any(bv == 0 for bv in b)
               for _, b in SYSTEMS) >= 20
    assert sum(any(not any(row) for row in r) for r, _ in SYSTEMS) >= 20
    assert sum(any(r[i] == [k * v for v in r[j]] and any(r[i])
                   for i in range(len(r)) for j in range(i)
                   for k in (F(1), F(2)))
               for r, _ in SYSTEMS) >= 40
    assert sum(feasible_ge(r, b) is None for r, b in SYSTEMS) >= 40


@pytest.mark.parametrize("seed", range(0, 240, 40))
def test_same_point_as_fraction_tableau(seed):
    for rows, rhs in SYSTEMS[seed:seed + 40]:
        assert feasible_ge(rows, rhs) == fraction_feasible_ge(rows, rhs)


def test_feasible_points_satisfy_the_system():
    for rows, rhs in SYSTEMS:
        x = feasible_ge(rows, rhs)
        if x is not None:
            assert all(isinstance(v, F) for v in x)
            for row, bv in zip(rows, rhs):
                assert sum((c * v for c, v in zip(row, x)), F(0)) >= bv


def test_verdicts_agree_with_sympy():
    for rows, rhs in SYSTEMS[:80]:
        assert (feasible_ge(rows, rhs) is not None) == _lp_feasible(rows, rhs)


def test_ratio_ties_take_the_lowest_basis_index():
    # A ratio test on this system ties, and only the lowest-basis-index
    # choice ends at (1, 1); the highest index would end at (1/4, -1/2).
    rows = [[F(0), F(2)], [F(2), F(-1)], [F(2), F(-2)], [F(2), F(0)]]
    rhs = [F(-1), F(1), F(0), F(-1)]
    assert feasible_ge(rows, rhs) == fraction_feasible_ge(rows, rhs) == \
        [F(1), F(1)]


def test_integer_entries_stay_exact():
    # int entries must not be divided into floats
    rows = [[1, 2], [3, -1], [-1, -1]]
    rhs = [1, 2, -4]
    fracs = [[F(v) for v in r] for r in rows], [F(v) for v in rhs]
    assert feasible_ge(rows, rhs) == fraction_feasible_ge(*fracs) == \
        [F(3, 2), F(5, 2)]


MALFORMED = [
    ([[F(1)], [F(1), F(-5)]], [F(1), F(1)]),
    ([[F(1), F(0)], [F(1)]], [F(1), F(1)]),
    ([[F(1)], [F(-1)]], [F(1)]),
    ([[F(1)]], [F(1), F(2)]),
    ([], [F(1)]),
]


@pytest.mark.parametrize("rows, rhs", MALFORMED)
def test_malformed_shapes_raise(rows, rhs):
    with pytest.raises(ValueError):
        feasible_ge(rows, rhs)


# -- the stored [u | s | rhs] tableau against the full one ----------------------

def _wide_system(rng: random.Random):
    """A system A x >= b with m <= 16 rows and d <= 6 unknowns: mixed
    denominators and signs, zero right-hand sides, zero rows, and rows
    that repeat an earlier row times a positive factor."""
    m = rng.randint(1, 16)
    d = rng.randint(0, 6)
    den = rng.choice([1, 1, 3, 4])
    height = rng.choice([2, 5])

    def rat():
        return F(rng.randint(-height, height), rng.randint(1, den))

    rows = [[rat() for _ in range(d)] for _ in range(m)]
    rhs = [rat() for _ in range(m)]
    for i in range(1, m):
        roll = rng.random()
        if roll < 0.15:
            j = rng.randrange(i)
            k = F(rng.randint(1, 3), rng.randint(1, 2))
            rows[i] = [k * v for v in rows[j]]
            rhs[i] = k * rhs[j]
        elif roll < 0.2:
            rows[i] = [F(0)] * d
    return rows, rhs


WIDE = [_wide_system(random.Random(10_000 + seed)) for seed in range(2000)]


def _covering_lps():
    """The covering systems `nonneg_covering_exists` solves for seeded
    4 x 4 generators: nonnegative integer ones, each also conjugated by a
    unimodular matrix, and signed ones; recorded as they reach the
    simplex."""
    seen = []

    def spy(rows, rhs):
        seen.append((rows, rhs))
        return feasible_ge(rows, rhs)

    rng = random.Random(21)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "feasible_ge", spy)
        for _ in range(40):
            a = Mat.from_rows([[rng.randint(0, 3) for _ in range(4)]
                               for _ in range(4)])
            for gen in (a, conjugate(a, random_unimodular(rng, 4)),
                        random_mat(rng, 4, height=3)):
                nonneg_covering_exists(generate(4, [gen]))
        nonneg_covering_exists(generate(2, [Mat.from_rows([[0, 1], [-1, 0]])]))
    return seen


COVERING = _covering_lps()


def test_wide_samples_cover_every_case():
    assert sum(len(r) >= 12 and len(r[0]) >= 5 for r, _ in WIDE) >= 100
    assert sum(any(bv < 0 for bv in b) and any(bv > 0 for bv in b)
               for _, b in WIDE) >= 1000
    verdicts = [full_tableau_feasible_ge(r, b) is None for r, b in WIDE]
    assert sum(verdicts) >= 300 and len(verdicts) - sum(verdicts) >= 300
    assert sum(len(r) == 16 for r, _ in COVERING) >= 60
    covered = [full_tableau_feasible_ge(r, b) is not None for r, b in COVERING]
    assert sum(covered) >= 30 and len(covered) - sum(covered) >= 1


@pytest.mark.parametrize("start", range(0, 2000, 250))
def test_same_result_as_full_tableau(start):
    for rows, rhs in WIDE[start:start + 250]:
        assert feasible_ge(rows, rhs) == full_tableau_feasible_ge(rows, rhs)


def test_same_covering_points_as_full_tableau():
    for rows, rhs in COVERING:
        assert feasible_ge(rows, rhs) == full_tableau_feasible_ge(rows, rhs)


def test_full_tableau_oracle_raises_on_the_same_shapes():
    for rows, rhs in MALFORMED:
        with pytest.raises(ValueError):
            full_tableau_feasible_ge(rows, rhs)


# -- the Farkas dual ------------------------------------------------------------

def farkas_ge(rows, rhs):
    """The dual's z, normalized to z b = 1, or None: the Z / D that
    `simplex._farkas` finds on the scaled rows, times the row scales."""
    rows_int, rhs_int, scales = simplex._integer_system(rows, rhs)
    found = simplex._farkas(rows_int, rhs_int) if rows_int else None
    if found is None:
        return None
    z, den = found
    return [F(c * v, den) for c, v in zip(scales, z)]


def _assert_farkas(rows, rhs, z):
    """z >= 0, z A = 0 and z b > 0, in Fractions."""
    assert len(z) == len(rows)
    assert all(isinstance(v, F) and v >= 0 for v in z)
    for j in range(len(rows[0])):
        assert sum((v * F(row[j]) for v, row in zip(z, rows)), F(0)) == 0
    assert sum((v * F(bv) for v, bv in zip(z, rhs)), F(0)) > 0


def _dual_agrees(rows, rhs):
    """The dual has a solution exactly when the full primal tableau finds
    none, and every z it returns is a Farkas vector."""
    z = farkas_ge(rows, rhs)
    assert (z is None) == (full_tableau_feasible_ge(rows, rhs) is not None)
    if z is not None:
        _assert_farkas(rows, rhs, z)
    return z


HAND = [
    ([[F(1)], [F(-1)]], [F(1), F(-3)]),
    ([[F(1)], [F(-1)]], [F(1), F(1)]),
    ([[F(1), F(1)], [F(1), F(-1)], [F(-1), F(0)]], [F(1), F(1), F(-2)]),
    ([[F(-1)]], [F(-5)]),
    ([[F(0), F(2)], [F(2), F(-1)], [F(2), F(-2)], [F(2), F(0)]],
     [F(-1), F(1), F(0), F(-1)]),
    ([[1, 2], [3, -1], [-1, -1]], [1, 2, -4]),
    ([[0, 1], [-1, 0]], [1, 1]),
]


@pytest.mark.parametrize("start", range(0, 2000, 250))
def test_dual_verdict_matches_full_tableau_on_wide_systems(start):
    for rows, rhs in WIDE[start:start + 250]:
        _dual_agrees(rows, rhs)


def test_dual_verdict_matches_full_tableau_on_covering_and_hand_systems():
    found = [_dual_agrees(rows, rhs) for rows, rhs in COVERING + HAND]
    assert sum(z is not None for z in found) >= 40
    for rows, rhs in SYSTEMS:
        _dual_agrees(rows, rhs)


def test_only_a_system_with_a_solution_reaches_the_primal(monkeypatch):
    calls = []
    primal = simplex._primal

    def spy(*args):
        calls.append(args)
        return primal(*args)

    monkeypatch.setattr(simplex, "_primal", spy)
    seen = [0, 0]
    for rows, rhs in COVERING + WIDE[:300]:
        solvable = full_tableau_feasible_ge(rows, rhs) is not None
        calls.clear()
        feasible_ge(rows, rhs)
        assert len(calls) == solvable
        seen[solvable] += 1
    assert min(seen) >= 50


def test_a_failed_farkas_check_raises(monkeypatch):
    # the loop's answer is read off the tableau; a tampered one must not
    # pass for a proof that the system has no solution
    pivoted = simplex._pivoted

    def off_by_one(line, pivot_row, f, p, den):
        out = pivoted(line, pivot_row, f, p, den)
        out[-1] += 1
        return out

    monkeypatch.setattr(simplex, "_pivoted", off_by_one)
    with pytest.raises(ArithmeticError, match="Farkas vector check failed"):
        feasible_ge([[F(1)], [F(-1)]], [F(1), F(1)])


# -- edge cases ---------------------------------------------------------------

def test_no_unknowns_is_feasible_iff_no_right_hand_side_is_positive():
    rng = random.Random(5)
    for _ in range(60):
        rhs = [F(rng.randint(-2, 2), rng.randint(1, 3))
               for _ in range(rng.randint(1, 5))]
        rows = [[] for _ in rhs]
        x = feasible_ge(rows, rhs)
        assert (x == []) == all(bv <= 0 for bv in rhs)
        assert (x is None) == any(bv > 0 for bv in rhs)
        z = _dual_agrees(rows, rhs)
        assert (z is None) == (x is not None)


def test_a_zero_row_with_positive_right_hand_side_is_its_own_proof():
    # z A = 0 forces z_1 = z_3 = 0, so z is e_2 / b_2 with z b = 1
    rows = [[F(1), F(2)], [F(0), F(0)], [F(-1), F(1)]]
    rhs = [F(-3), F(2), F(-5)]
    assert feasible_ge(rows, rhs) is None
    assert _dual_agrees(rows, rhs) == [0, F(1, 2), 0]


def test_nonpositive_right_hand_sides_leave_the_dual_without_solution():
    rng = random.Random(6)
    for _ in range(40):
        m, d = rng.randint(1, 8), rng.randint(1, 4)
        rows = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)]
                for _ in range(m)]
        rhs = [F(-rng.randint(0, 4), rng.randint(1, 3)) for _ in range(m)]
        assert farkas_ge(rows, rhs) is None
        assert feasible_ge(rows, rhs) == full_tableau_feasible_ge(rows, rhs)


def test_fraction_rows_with_negative_right_hand_sides():
    # x >= 1 and x <= 1/2, the second written as -x/3 >= -1/6, which the
    # primal flips: z (1/2, -1/3) = 0 and z (1/2, -1/6) = 1 give z = (4, 6)
    rows = [[F(1, 2)], [F(-1, 3)]]
    rhs = [F(1, 2), F(-1, 6)]
    assert feasible_ge(rows, rhs) is None
    assert _dual_agrees(rows, rhs) == [4, 6]
    # with x <= 3/2 in place of x <= 1/2 the system has a solution, and the
    # primal's point is the full tableau's
    rhs = [F(1, 2), F(-1, 2)]
    assert _dual_agrees(rows, rhs) is None
    assert feasible_ge(rows, rhs) == full_tableau_feasible_ge(rows, rhs) \
        == fraction_feasible_ge(rows, rhs)


def test_the_algebra_of_zero_by_zero_matrices_has_no_support():
    # the empty matrix is nonnegative and covers the empty support
    alg = generate(0, [])
    assert alg.support() == frozenset()
    assert nonneg_covering_exists(alg) == zero(0)
