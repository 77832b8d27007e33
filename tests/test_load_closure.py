"""An algebra's closure check on load.  `Algebra.is_closed` closes the
basis with the verifier's lazy-admission worklist, stopped once its span
exceeds the algebra's dimension; it agrees with the check over all d^2
pairwise basis products on seeded closed and unclosed spans, and loads
and rejects with few products."""

import json
import random
from pathlib import Path

import pytest

from algforge import verify
from algforge.algebra import (Algebra, _from_span, _span_of,
                              algebra_from_json, conjugate_algebra, generate)
from algforge.incidence import incidence_of_dimension
from algforge.matrices import Mat, identity
from oracles import (incidence_algebra, matrix_unit, pairwise_is_closed,
                     random_mat, random_pattern, random_unimodular)

DATA = Path(__file__).parent / "data"


def _diag(*vals):
    n = len(vals)
    return Mat.from_rows([[vals[i] if i == j else 0 for j in range(n)]
                          for i in range(n)])


def _sparse(rng, n):
    return Mat.from_rows([[int(rng.random() < 0.3) for _ in range(n)]
                          for _ in range(n)])


def _spanned(n, mats):
    """The trusted algebra object on span(mats), closed or not."""
    return _from_span(n, _span_of(n, [m.numerators() for m in mats]))


def _closed_cases():
    rng = random.Random(20261019)
    cases = []
    for n in (2, 3, 4):
        for count in (1, 2, 3):
            cases.append(("generate", generate(n, [
                random_mat(rng, n, 3, 2) for _ in range(count)])))
            cases.append(("generate-sparse", generate(n, [
                _sparse(rng, n) for _ in range(count)])))
        for _ in range(3):
            pat = random_pattern(rng, n, triangular=rng.random() < 0.5)
            cases.append(("conjugated", conjugate_algebra(
                incidence_algebra(pat), random_unimodular(rng, n))))
    # A closed algebra holding a diagonal with distinct entries holds every
    # E_ii (its polynomials), so from n = 3 on its canonical basis reduces
    # such a matrix to a unit: only n <= 2 reaches the verifier's
    # generation-lemma path closed.  E_11 = diag(1, 0) is one at n = 2.
    e11, e12, e21 = (matrix_unit(2, 1, 1), matrix_unit(2, 1, 2),
                     matrix_unit(2, 2, 1))
    cases += [
        ("diagonal", Algebra(1, (identity(1),))),
        ("diagonal", Algebra(1, (Mat.from_rows([[3]]),))),
        ("diagonal", incidence_algebra(incidence_of_dimension(2, 2))),
        ("diagonal", incidence_algebra(incidence_of_dimension(2, 3))),
        ("diagonal", generate(2, [_diag(2, 5), e21])),
        ("diagonal", generate(2, [e11, e12, e21])),
    ]
    return cases


def _cases():
    rng = random.Random(20261020)
    closed = _closed_cases()
    cases = list(closed)
    for kind, a in closed:
        n = a.n
        member = sum((rng.randint(-3, 3) * b for b in a.basis[1:]),
                     a.basis[0])
        cases.append((kind + "+member", _spanned(n, a.basis + (member,))))
        cases.append((kind + "+extra", _spanned(n, a.basis + (
            random_mat(rng, n, 3),))))
    # span{I, E12, E21} misses E11; span{I, D} misses D^2 for a diagonal D
    # with three or more distinct entries, and both hold such a diagonal
    # from n = 3 on.
    cases.append(("unclosed", _spanned(2, (identity(2), matrix_unit(2, 1, 2),
                                           matrix_unit(2, 2, 1)))))
    for n in (3, 4):
        d = _diag(*range(1, n + 1))
        cases.append(("diagonal-unclosed", _spanned(n, (identity(n), d))))
        cases.append(("diagonal-unclosed", _spanned(n, (
            identity(n), d, matrix_unit(n, 1, n)))))
    return cases


CASES = _cases()


def _lemma_path(a):
    return any(verify._is_distinct_diagonal(b.num) for b in a.basis)


def test_cases_reach_both_verdicts_on_both_closure_paths():
    seen = {(pairwise_is_closed(a), _lemma_path(a)) for _, a in CASES}
    assert seen == {(True, True), (True, False), (False, True),
                    (False, False)}


@pytest.mark.parametrize("kind,alg", CASES,
                         ids=[f"{k}-{a.n}x{a.n}-{i}"
                              for i, (k, a) in enumerate(CASES)])
def test_is_closed_agrees_with_pairwise_products(kind, alg):
    closed = pairwise_is_closed(alg)
    assert alg.is_unital()
    assert alg.is_closed() == closed
    if closed:
        assert Algebra(alg.n, alg.basis) == alg
    else:
        with pytest.raises(ValueError, match="closed"):
            Algebra(alg.n, alg.basis)


def test_empty_algebra_still_loads():
    a = Algebra(0, ())
    assert a.dim == 0 and a.is_closed()
    assert algebra_from_json({"n": 0, "basis": []}) == a


def test_bounded_closure_stops_once_past_the_bound():
    rng = random.Random(20261021)
    for n in (3, 4):
        gens = [random_mat(rng, n, 3) for _ in range(2)]
        grids = [(g.den, g.num) for g in gens]
        full, _ = verify._closure(grids)
        for bound in range(1, full.dim + 2):
            span, size = verify._closure(grids, bound)
            assert size == n
            if bound < full.dim:
                assert bound < span.dim <= full.dim
                assert all(full.contains([row.get(j, 0)
                                          for j in range(n * n)])
                           for row in span.rows.values())
            else:
                assert span.rows == full.rows


def _count_imul(monkeypatch):
    calls = []
    real = verify._imul

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(verify, "_imul", counting)
    return calls


def test_golden_algebra_loads_in_fewer_than_d_squared_products(monkeypatch):
    """The pairwise check made d^2 = 144 products on this document."""
    doc = json.loads((DATA / "conjugated-2x2-generate.json").read_text())
    calls = _count_imul(monkeypatch)
    a = algebra_from_json(doc)
    assert a.dim == 12
    assert 0 < len(calls) < a.dim ** 2


def _dense_unclosed(n=12, seed=20261022):
    """I and two dense 0-9 matrices: unital, and its closure is all of
    M_n, which an unbounded worklist reaches only after hundreds of
    products."""
    rng = random.Random(seed)
    return (identity(n),) + tuple(
        Mat.from_rows([[rng.randint(0, 9) for _ in range(n)]
                       for _ in range(n)]) for _ in range(2))


def test_dense_unclosed_basis_is_rejected_after_a_few_products(monkeypatch):
    mats = _dense_unclosed()
    calls = _count_imul(monkeypatch)
    with pytest.raises(ValueError, match="closed"):
        Algebra(12, mats)
    assert 0 < len(calls) <= 4
