"""The engine's left-generator closure, the verifier's right-generator
closure and the brute-force oracle agree on seeded random generators."""

import random
from fractions import Fraction

import pytest

from algforge.algebra import closure_words, generate
from algforge.certificates import Certificate, prop_dimension
from algforge.constructions import nonneg_basis_from_generators
from algforge.matrices import Mat, is_nonneg
from algforge.verify import verify_document
from oracles import brute_closure_dim


def _dense(rng, n):
    return Mat.from_rows([[Fraction(rng.randint(0, 4), rng.randint(1, 3))
                           for _ in range(n)] for _ in range(n)])


def _sparse(rng, n):
    return Mat.from_rows([[int(rng.random() < 0.3) for _ in range(n)]
                          for _ in range(n)])


def _commutes(gens):
    return all(a @ b == b @ a for a in gens for b in gens)


def _right_words(n, gens):
    """Words kept by a right-generator worklist: (x g)^T = g^T x^T, so they
    are the transposes of the left worklist's words for transposed gens."""
    words, _ = closure_words(n, [g.transpose() for g in gens])
    return [w.transpose() for w in words]


def _cases():
    rng = random.Random(20071419)
    cases = []
    for n in (3, 4):
        for count in (1, 2, 3):
            while True:
                gens = [_dense(rng, n) for _ in range(count)]
                if count == 1 or not _commutes(gens):
                    break
            cases.append(("dense", n, gens))
    sparse = 0
    while sparse < 6:
        n = rng.choice((3, 4))
        gens = [_sparse(rng, n) for _ in range(rng.randint(1, 3))]
        left = closure_words(n, gens)[0]
        if _commutes(gens) or left == _right_words(n, gens):
            continue
        cases.append(("sparse", n, gens))
        sparse += 1
    return cases


CASES = _cases()


def _dimension_doc(gens, value):
    refs = [f"in:gens:{i}" for i in range(len(gens))]
    return Certificate(claim="dimension", inputs={"gens": list(gens)},
                       transform=None, outputs=(),
                       properties=(prop_dimension(refs, value),)).to_json()


@pytest.mark.parametrize("kind,n,gens", CASES,
                         ids=[f"{k}-{n}x{n}-{len(g)}" for k, n, g in CASES])
def test_closures_agree(kind, n, gens):
    dim = generate(n, gens).dim
    assert brute_closure_dim(n, gens) == dim
    assert verify_document(_dimension_doc(gens, dim)) == []
    assert verify_document(_dimension_doc(gens, dim + 1))
    assert verify_document(_dimension_doc(gens, dim - 1))


@pytest.mark.parametrize("kind,n,gens", CASES,
                         ids=[f"{k}-{n}x{n}-{len(g)}" for k, n, g in CASES])
def test_nonneg_basis_regenerates(kind, n, gens):
    alg = generate(n, gens)
    basis = nonneg_basis_from_generators(gens)
    assert len(basis) == alg.dim
    assert all(is_nonneg(b) for b in basis)
    assert generate(n, basis) == alg
