"""The integer-row linear algebra against the Fraction-vector routines it
replaced.

`linear` takes integer rows and returns integers over one denominator,
and the engine's vector computations run on `1 x n` Mat rows.  On seeded
random inputs, `nullspace`, `solve`, a span intersection by `kernel` and
`EchelonSpan`, `nilpotent_jordan_basis` and `generalized_eigensplit` must
give exactly the outputs of the Fraction-vector routines kept in
`oracles`.
"""

import random
from fractions import Fraction

import pytest

import oracles
from algforge.linear import EchelonSpan, nullspace, solve
from algforge.matrices import (Mat, conjugate, direct_sum, jordan_cell,
                               kernel, stack)
from algforge.spectral import generalized_eigensplit, nilpotent_jordan_basis
from oracles import (cleared, echelon_rows, over_last_entry, random_mat,
                     random_rat, random_unimodular)

F = Fraction
CASES = 40


def low_rank_rows(rng, rows, cols):
    """A rows x cols Fraction grid of random rank, sometimes with a zero
    row."""
    rank = rng.randint(0, min(rows, cols))
    left = [[random_rat(rng, 4, 3) for _ in range(rank)] for _ in range(rows)]
    right = [[random_rat(rng, 4, 3) for _ in range(cols)] for _ in range(rank)]
    return [[sum((left[i][k] * right[k][j] for k in range(rank)), F(0))
             for j in range(cols)] for i in range(rows)]


def random_similarity(rng, n):
    """A nonsingular rational matrix: unimodular times a scaled diagonal
    with a rational shear."""
    c = random_unimodular(rng, n)
    while True:
        d = random_mat(rng, n, height=3, max_den=4)
        try:
            return c @ (d + Mat.from_rows([[F(4 * n) if i == j else 0
                                            for j in range(n)]
                                           for i in range(n)]))
        except ValueError:
            continue


def test_nullspace_and_kernel_match_the_fraction_nullspace():
    rng = random.Random(1010)
    for _ in range(CASES):
        m, n = rng.randint(0, 5), rng.randint(1, 5)
        a = low_rank_rows(rng, m, n)
        expected = oracles.nullspace(a, n)
        basis = nullspace([cleared(row) for row in a], n)
        assert [over_last_entry(vec) for vec in basis] == expected
        if m:
            assert [k.data[0] for k in kernel(Mat(m, n, a))] == expected


def test_solve_matches_the_fraction_solve():
    rng = random.Random(2020)
    for case in range(CASES):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = low_rank_rows(rng, m, n)
        if case % 2:
            x0 = [random_rat(rng, 5, 3) for _ in range(n)]
            b = [sum((r[j] * x0[j] for j in range(n)), F(0)) for r in a]
        else:
            b = [random_rat(rng, 5, 3) for _ in range(m)]
        expected = oracles.solve(a, b)
        rows = [cleared(list(r) + [bv]) for r, bv in zip(a, b)]
        got = solve([row[:n] for row in rows], [row[n] for row in rows])
        if expected is None:
            assert got is None
        else:
            d, x = got
            assert [F(v, d) for v in x] == expected


def test_intersection_as_kernel_times_rows_matches_intersect_spans():
    """span(Z) meets ker(F) in {c Z : c in ker(F Z^T)}: `kernel` and
    `EchelonSpan` give the intersection of the Fraction routine."""
    rng = random.Random(3030)
    done = 0
    while done < CASES:
        n = rng.randint(1, 5)
        span = EchelonSpan(n)
        for row in low_rank_rows(rng, rng.randint(1, 4), n):
            span.add(cleared(row))
        z_rows = echelon_rows(span)
        if not z_rows:
            continue
        done += 1
        f_rows = low_rank_rows(rng, rng.randint(1, 4), n)
        f = Mat(len(f_rows), n, f_rows)
        z = Mat(len(z_rows), n, z_rows)
        meet = EchelonSpan(n)
        for k in kernel(f @ z.transpose()):
            meet.add((k @ z).num[0])
        expected = oracles.intersect_spans(z_rows,
                                           oracles.nullspace(f_rows, n), n)
        assert echelon_rows(meet) == expected


def random_nilpotent(rng, n):
    sizes, left = [], n
    while left:
        sizes.append(rng.randint(1, left))
        left -= sizes[-1]
    return conjugate(direct_sum([jordan_cell(s, 0) for s in sizes]),
                     random_similarity(rng, n))


def test_nilpotent_jordan_basis_matches_the_fraction_routine():
    rng = random.Random(4040)
    for case in range(CASES):
        m = random_nilpotent(rng, rng.randint(1, 5))
        if case % 4 == 0:
            m = m * F(rng.randint(1, 5), rng.randint(1, 5))
        assert nilpotent_jordan_basis(m) == oracles.nilpotent_jordan_basis(m)


def random_split_input(rng, dense):
    """A matrix with a planted rational eigenvalue lam beside other cells:
    Jordan cells of other rational eigenvalues or a block with no real
    eigenvalue, conjugated by a dense similarity or, to keep the projector
    sparse, given random entries two or more places above the diagonal,
    which leave every 1 x 1 and 2 x 2 diagonal block as it is."""
    lam = F(rng.randint(-3, 3), rng.randint(1, 2))
    blocks = [jordan_cell(rng.randint(1, 2), lam)
              for _ in range(rng.randint(1, 2))]
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.3:
            blocks.append(Mat.from_rows([[0, -1], [1, 0]]))
        else:
            blocks.append(jordan_cell(rng.randint(1, 2), lam + rng.randint(1, 3)))
    rng.shuffle(blocks)
    a0 = direct_sum(blocks)
    if dense:
        return conjugate(a0, random_similarity(rng, a0.rows)), lam
    n = a0.rows
    return a0 + Mat.from_rows([[rng.randint(-2, 2) if j > i + 1 else 0
                                for j in range(n)] for i in range(n)]), lam


def test_generalized_eigensplit_matches_the_fraction_routine():
    rng = random.Random(5050)
    for case in range(CASES):
        a, lam = random_split_input(rng, dense=case % 2)
        assert generalized_eigensplit(a, lam) == \
            oracles.generalized_eigensplit(a, lam)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stack_is_vertical_concatenation(n):
    rng = random.Random(n)
    mats = [Mat(r, n, [[random_rat(rng, 5, 4) for _ in range(n)]
                       for _ in range(r)]) for r in (1, 0, 2)]
    got = stack(mats)
    assert got.data == tuple(row for m in mats for row in m.data)
    assert got == Mat(3, n, got.data)
    with pytest.raises(ValueError):
        stack([mats[0], Mat(1, n + 1, [[0] * (n + 1)])])
