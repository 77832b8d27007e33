import random
from fractions import Fraction

import pytest

from algforge import constructions, linear
from algforge.algebra import (algebra_direct_sum, centralizer,
                              conjugate_algebra, generate, generates,
                              nonneg_covering_exists)
from algforge.constructions import (blockwise_rank1_nonneg_covering,
                                    central_eigenvalue_split,
                                    centralizer_covering,
                                    classify_positive_generation,
                                    direct_sum_min_nonneg_generators,
                                    direct_sum_nonneg_covering,
                                    nonneg_generators_from_covering,
                                    positive_generators_from_positive,
                                    positive_single_generator,
                                    predict_padded_conjugation,
                                    scalar_extension_positive_generators,
                                    semicommuting_pair,
                                    single_generator_nonneg,
                                    solve_all_dimensions,
                                    uniformize_rank1_idempotent)
from algforge.cli import _build_parser
from algforge.incidence import (IncidencePattern, incidence_of_dimension,
                                triangularize_incidence)
from algforge.matrices import (Mat, conjugate, direct_sum, identity,
                               is_nonneg, is_positive, jordan_cell, ones,
                               support, uniformizer, uniformizer_inv, zero)
from algforge.polynomials import (Poly, multiplicity_one_part,
                                  rational_roots)
from algforge.spectral import (JordanSpec, char_poly, eigenvalue_multiplicity,
                               rational_spectral_projector)
from algforge.verify import verify_certificate, verify_document
from oracles import (commutator, companion, conjugated_pair,
                     incidence_algebra, matrix_unit,
                     nonneg_basis_from_generators, pairwise_is_transitive,
                     pattern_from_positions, projector_uniformizer,
                     random_mat, random_pattern, random_unimodular)

F = Fraction


def diag(*vals):
    n = len(vals)
    return Mat.from_rows([[vals[i] if i == j else 0 for j in range(n)]
                          for i in range(n)])


def upper_ones(n):
    return Mat.from_rows([[1 if j >= i else 0 for j in range(n)]
                          for i in range(n)])


T2 = incidence_algebra(incidence_of_dimension(2, 3))
D2 = incidence_algebra(incidence_of_dimension(2, 2))
M2 = generate(2, [matrix_unit(2, 1, 2), matrix_unit(2, 2, 1)])
C_LIKE = generate(2, [Mat.from_rows([[0, 1], [-1, 0]])])


# -- nonnegative / positive generating systems ---------------------------------

def test_nonneg_generators_from_covering():
    gens = nonneg_generators_from_covering(T2, upper_ones(2))
    assert all(is_nonneg(g) for g in gens)
    assert generate(2, gens) == T2
    dn = incidence_algebra(incidence_of_dimension(3, 3))
    gens = nonneg_generators_from_covering(dn, identity(3))
    assert all(is_nonneg(g) for g in gens)
    with pytest.raises(ValueError):
        nonneg_generators_from_covering(T2, identity(2))  # zero at (1,2)


def test_nonneg_generators_regenerate_conjugated_incidence_algebras():
    """The closure the construction no longer runs, as an oracle, on
    seeded conjugated incidence algebras that have a nonnegative covering."""
    rng = random.Random(1212)
    checked = 0
    while checked < 8:
        n = rng.randint(2, 4)
        p = random_pattern(rng, n, triangular=rng.random() < 0.5)
        alg = conjugate_algebra(incidence_algebra(p), random_unimodular(rng, n))
        covering = nonneg_covering_exists(alg)
        if covering is None:
            continue
        gens = nonneg_generators_from_covering(alg, covering)
        assert all(is_nonneg(g) for g in gens)
        assert generates(alg, gens)
        checked += 1


def test_shift_on_numerators_matches_the_fraction_formula():
    # B + ((|B| + 1) / min support entry of M) M, entry for entry
    from algforge.matrices import uniform_norm
    rng = random.Random(84)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = Mat.from_rows([[F(rng.randint(0, 9) * rng.randint(0, 1),
                              rng.randint(1, 6)) for _ in range(n)]
                           for _ in range(n)]) + F(1, 7) * matrix_unit(n, 1, 1)
        mats = [random_mat(rng, n, height=20) * F(1, rng.randint(1, 9))
                for _ in range(3)] + [zero(n)]
        low = min(v for row in m.data for v in row if v)
        assert constructions._shifted(mats, m) == [
            b + ((uniform_norm(b) + 1) / low) * m for b in mats]


def test_nonneg_basis_from_generators():
    gens = nonneg_generators_from_covering(T2, upper_ones(2))
    basis = nonneg_basis_from_generators(gens)
    assert len(basis) == T2.dim
    assert all(is_nonneg(b) for b in basis)
    assert generate(2, basis) == T2


def test_positive_generators():
    m = ones(2) + identity(2)
    full = generate(2, [matrix_unit(2, 1, 2), matrix_unit(2, 2, 1)])
    gens = positive_generators_from_positive(full, m)
    assert all(is_positive(g) for g in gens)
    assert generate(2, gens) == full
    small = generate(2, [ones(2)])
    assert generate(2, [m]).dim == 2  # the element alone already generates
    gens = positive_generators_from_positive(small, m)
    assert generate(2, gens) == small
    with pytest.raises(ValueError):
        positive_generators_from_positive(small, identity(2))


# -- rank-1 idempotent similarity ------------------------------------------------

def test_uniformize_rank1_idempotent():
    c = uniformize_rank1_idempotent(matrix_unit(2, 1, 1))
    assert conjugate(matrix_unit(2, 1, 1), c) == F(1, 2) * ones(2)
    flat = F(1, 3) * ones(3)
    c = uniformize_rank1_idempotent(flat)
    assert conjugate(flat, c) == flat
    e = Mat.from_rows([[1, 1], [0, 0]])
    c = uniformize_rank1_idempotent(e)
    assert conjugate(e, c) == F(1, 2) * ones(2)
    with pytest.raises(ValueError):
        uniformize_rank1_idempotent(Mat.from_rows([[1, 1], [0, 1]]))
    with pytest.raises(ValueError):
        uniformize_rank1_idempotent(identity(2))


def _planted_conjugate(rng, n, lam):
    """lam beside the companion block of an Eisenstein polynomial of degree
    n - 1, conjugated as the benchmark builds its inputs: by a unimodular
    matrix, then by a diagonal sign matrix."""
    coeffs = [2 * (2 * rng.randint(-2, 1) + 1)]
    coeffs += [2 * rng.randint(-2, 2) for _ in range(n - 2)]
    rows = [[lam] + [rng.randint(-2, 2) for _ in range(n - 1)]]
    if n > 1:
        block = companion(Poly.from_coeffs(coeffs + [1]))
        rows += [[0] + list(r) for r in block.num]
    signs = diag(*[rng.choice((-1, 1)) for _ in range(n)])
    return conjugate(conjugate(Mat.from_rows(rows), random_unimodular(rng, n)),
                     signs)


def test_flat_similarity_is_the_projector_path():
    rng = random.Random(3301)
    for n in range(1, 7):
        # the block's rational root, if any, is +-2 or +-6
        for lam in (F(rng.choice((-3, -1, 0, 1, 3))),
                    F(rng.choice((-7, -1, 5)), rng.choice((2, 3)))):
            for _ in range(2):
                a = _planted_conjugate(rng, n, lam)
                assert eigenvalue_multiplicity(char_poly(a), lam) == 1
                c = constructions._flat_similarity(a, lam)
                e = rational_spectral_projector(a, lam)
                assert c == uniformize_rank1_idempotent(e)
                assert c == projector_uniformizer(e)
                assert conjugate(e, c) == F(1, n) * ones(n)
                # the closed-form inverse is cached, and it is the one a
                # Gauss-Jordan run on a fresh copy of C finds
                assert n == 1 or "inverse" in vars(c)
                fresh = Mat.from_ints(n, n, c.den, c.num)
                assert "inverse" not in vars(fresh)
                assert c.inverse == fresh.inverse


def test_flat_similarity_refuses_an_eigenvalue_that_is_not_simple():
    # J_2(3) (+) [1]: both eigenspaces of 3 are lines, but w^T u = 0
    with pytest.raises(ArithmeticError, match="w\\^T u = 0"):
        constructions._flat_similarity(
            direct_sum([jordan_cell(2, 3), identity(1)]), F(3))
    with pytest.raises(ArithmeticError, match="not a line"):
        constructions._flat_similarity(diag(3, 3, 1), F(3))
    with pytest.raises(ArithmeticError, match="not a line"):
        constructions._flat_similarity(diag(3, 3, 1), F(2))


def test_flat_similarity_checks_its_closed_forms(monkeypatch):
    # a wrong closed-form inverse: C C^{-1} = I fails
    monkeypatch.setattr(constructions, "uniformizer_inv",
                        lambda n: 2 * uniformizer_inv(n))
    with pytest.raises(ArithmeticError, match="not the inverse"):
        constructions._flat_similarity(diag(1, 2, 3), F(2))
    # inverse factors that do not flatten: C C^{-1} = I holds, and
    # (C^{-1} u')(v C) = ones(n)/n fails
    monkeypatch.setattr(constructions, "uniformizer", identity)
    monkeypatch.setattr(constructions, "uniformizer_inv", identity)
    with pytest.raises(ArithmeticError, match="failed verification"):
        constructions._flat_similarity(diag(1, 2, 3), F(2))


def test_positive_shift_runs_two_eliminations(monkeypatch):
    a = _planted_simple_eigenvalue(random.Random(5), 4)
    lam = rational_roots(char_poly(a))[0][0]
    calls = {"invert": 0, "nullspace": 0, "solve": 0}
    for name in calls:
        def counted(*args, _real=getattr(linear, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(linear, name, counted)
    # two kernels, and C^{-1} in closed form: conjugate() inverts nothing
    _, conj_b = constructions._positive_shift(a, lam)
    assert calls == {"invert": 0, "nullspace": 2, "solve": 0}
    assert is_positive(conj_b)


def test_positive_single_generator():
    a = diag(1, 2, 2)
    c, b = positive_single_generator(a, 1)
    assert is_positive(conjugate(b, c))
    assert generate(3, [b]) == generate(3, [a])
    assert generate(3, [a]).dim == 2

    a = direct_sum([jordan_cell(2, 0), Mat.from_rows([[1]])])
    c, b = positive_single_generator(a, 1)
    assert is_positive(conjugate(b, c))
    assert generate(3, [b]) == generate(3, [a])
    assert generate(3, [a]).dim == 3

    with pytest.raises(ValueError):
        positive_single_generator(Mat.from_rows([[0, -1], [1, 0]]), 1)


def test_scalar_extension_positive_generators():
    s, gens = scalar_extension_positive_generators([diag(1, 2)])
    assert len(gens) == 1 and is_positive(gens[0])
    assert generate(3, gens).dim == 3

    s, gens = scalar_extension_positive_generators([Mat.from_rows([[1]])])
    assert len(gens) == 1
    assert generate(2, gens).dim == 2

    s, gens = scalar_extension_positive_generators(
        [matrix_unit(2, 1, 1), upper_ones(2)])
    assert len(gens) == 2 and all(is_positive(g) for g in gens)
    target = algebra_direct_sum(generate(1, []), T2)
    assert generate(3, gens) == conjugate_algebra(target, s)
    assert generate(3, gens).dim == 4

    # the closure the construction no longer runs, as an oracle
    rng = random.Random(1515)
    for _ in range(12):
        nb = rng.randint(1, 4)
        b_gens = [random_mat(rng, nb, 3) for _ in range(rng.randint(1, 3))]
        s, gens = scalar_extension_positive_generators(b_gens)
        assert len(gens) == len(b_gens) and all(is_positive(g) for g in gens)
        target = algebra_direct_sum(generate(1, []), generate(nb, b_gens))
        assert generate(nb + 1, gens) == conjugate_algebra(target, s)

    with pytest.raises(ValueError):
        scalar_extension_positive_generators([diag(1, 2), diag(1, 2, 3)])


# -- padded conjugation blocks ---------------------------------------------------

def test_predict_padded_conjugation():
    t = Mat.from_rows([[2, 3], [4, 5]])
    b = predict_padded_conjugation(t, 1)
    assert b == Mat.from_rows([[1, 1, 3], [1, 1, 3], [2, 2, 5]])
    c = direct_sum([uniformizer(2), identity(1)])
    assert b == conjugate(direct_sum([zero(1), t]), c)
    # norm of the flat block: t1 / (pad + 1)
    t = Mat.from_rows([[6, 0], [0, 1]])
    b = predict_padded_conjugation(t, 2)
    from algforge.matrices import uniform_norm
    assert uniform_norm(b.submatrix(range(3), range(3))) == 2
    with pytest.raises(ValueError):
        predict_padded_conjugation(Mat.from_rows([[0, 1], [1, 0]]), 1)


def test_padded_conjugation_sign_propagation():
    rng = random.Random(41)
    for _ in range(30):
        k2 = rng.randint(2, 4)
        pad = rng.randint(1, 3)
        rows = [[F(rng.randint(0, 9)) for _ in range(k2)] for _ in range(k2)]
        rows[0][0] = F(rng.randint(1, 9))
        t = Mat.from_rows(rows)
        b = predict_padded_conjugation(t, pad)
        assert is_nonneg(b)
        rows = [[F(rng.randint(1, 9)) for _ in range(k2)] for _ in range(k2)]
        t = Mat.from_rows(rows)
        assert is_positive(predict_padded_conjugation(t, pad))


# -- direct sums -----------------------------------------------------------------

def test_direct_sum_nonneg_covering():
    cert = direct_sum_nonneg_covering(C_LIKE, T2, upper_ones(2))
    assert verify_certificate(cert) == []
    cert = direct_sum_nonneg_covering(generate(1, []), D2, identity(2))
    assert verify_certificate(cert) == []
    holey = Mat.from_rows([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        direct_sum_nonneg_covering(C_LIKE, T2, holey)
    with pytest.raises(ValueError):
        direct_sum_nonneg_covering(C_LIKE, generate(1, []), identity(1))


def test_direct_sum_min_nonneg_generators():
    left = diag(2)
    z = [upper_ones(2), diag(2, 1)]
    sum_gens = [(left, zero(2)), (zero(1), z[0]), (zero(1), z[1])]
    cert = direct_sum_min_nonneg_generators(sum_gens, z)
    assert verify_certificate(cert) == []
    assert len(cert.outputs) == 2 * len(sum_gens)  # same cardinality

    # strictly positive right generators give strictly positive output
    zp = [ones(2) + identity(2)]
    sum_gens = [(diag(5), zp[0])]
    cert = direct_sum_min_nonneg_generators(sum_gens, zp)
    assert verify_certificate(cert) == []
    assert any(p["kind"] == "positive" for p in cert.properties)

    with pytest.raises(ValueError):
        direct_sum_min_nonneg_generators([(diag(1), zero(1))], [identity(1)])


def test_blockwise_rank1_nonneg_covering():
    cert = blockwise_rank1_nonneg_covering(
        [M2, M2], [matrix_unit(2, 1, 1), matrix_unit(2, 1, 1)])
    assert verify_certificate(cert) == []
    # the replicated subalgebra {X (+) X} is covered by the same element
    s = cert.transform
    conj = cert.outputs[0]
    rep = generate(4, [direct_sum([matrix_unit(2, 1, 2), matrix_unit(2, 1, 2)]),
                       direct_sum([matrix_unit(2, 2, 1), matrix_unit(2, 2, 1)])])
    from algforge.matrices import inverse, support_union
    s_inv = inverse(s)
    rep_support = support_union([s_inv @ b @ s for b in rep.basis])
    assert support(conj) == rep_support

    cert = blockwise_rank1_nonneg_covering([M2], [matrix_unit(2, 2, 2)])
    assert verify_certificate(cert) == []

    with pytest.raises(ValueError):
        blockwise_rank1_nonneg_covering([M2], [zero(2)])
    with pytest.raises(ValueError):
        blockwise_rank1_nonneg_covering(
            [M2, M2], [zero(2), matrix_unit(2, 1, 1)])
    # a rank-1 idempotent outside the diagonal algebra is refused as input,
    # not left for the verifier to refuse (ArithmeticError)
    with pytest.raises(ValueError, match="part is not in its block algebra"):
        blockwise_rank1_nonneg_covering([generate(2, [diag(1, 2)])],
                                        [Mat.from_rows([[1, 1], [0, 0]])])


# -- centralizers and centers ----------------------------------------------------

def test_centralizer_covering_examples():
    a, r_hat, cert = centralizer_covering(JordanSpec(((F(0), (2,)),)))
    assert a == jordan_cell(2, 0)
    assert r_hat == identity(2) + jordan_cell(2, 0)
    assert verify_certificate(cert) == []

    spec = JordanSpec(((F(0), (2, 1)),))
    a, r_hat, cert = centralizer_covering(spec)
    assert centralizer(a).dim == 5
    assert verify_certificate(cert) == []
    # regular-form block shapes: 2x2, 2x1, 1x2, 1x1
    assert r_hat.data[0][1] == 1 and r_hat.data[0][2] == 1
    assert r_hat.data[2][2] == 1 and r_hat.data[2][0] == 0

    spec = JordanSpec(((F(1), (1,)), (F(2), (1,))))
    a, r_hat, cert = centralizer_covering(spec)
    assert r_hat == identity(2)
    assert verify_certificate(cert) == []


def test_centralizer_covering_multi_group():
    spec = JordanSpec(((F(1), (2,)), (F(2), (1,)), (F(3), (2, 1))))
    a, r_hat, cert = centralizer_covering(spec)
    assert verify_certificate(cert) == []
    assert centralizer(a).dim == spec.centralizer_dimension()
    # pivot group not last: permutation path
    spec = JordanSpec(((F(1), (2,)), (F(2), (1,))))
    a, r_hat, cert = centralizer_covering(spec)
    assert verify_certificate(cert) == []
    # fractional eigenvalues stay exact
    spec = JordanSpec(((F(1, 2), (2,)), (F(-3, 4), (1, 1))))
    a, r_hat, cert = centralizer_covering(spec)
    assert verify_certificate(cert) == []


def test_central_eigenvalue_split():
    z = jordan_cell(2, 1)
    alg = generate(2, [z])
    cert = central_eigenvalue_split(alg, z, 1)
    assert verify_certificate(cert) == []
    assert cert.outputs[0] == identity(2) + jordan_cell(2, 0)

    z = direct_sum([diag(2), jordan_cell(2, 1)])
    alg = generate(3, [z])
    cert = central_eigenvalue_split(alg, z, 1)
    assert verify_certificate(cert) == []

    with pytest.raises(ValueError):
        central_eigenvalue_split(generate(2, []), identity(2), 1)
    with pytest.raises(ValueError):
        central_eigenvalue_split(alg, z, 7)


# -- faults the emitted certificate catches ---------------------------------------
#
# Each construction below checks its outputs by verifying the certificate it
# emits.  Every injected fault is one an engine postcondition used to catch;
# the verifier must now refuse the certificate and name the failed property.

def _fails_on_emission(kind, build):
    with pytest.raises(ArithmeticError,
                       match=rf"^certificate failed: property \d+ \({kind}\)"):
        build()


def test_direct_sum_covering_fault_is_caught(monkeypatch):
    # a sum algebra that lost the right summand's non-scalar part
    real = constructions.algebra_direct_sum
    monkeypatch.setattr(constructions, "algebra_direct_sum",
                        lambda left, right: real(left, generate(right.n, [])))
    _fails_on_emission("in_algebra", lambda: direct_sum_nonneg_covering(
        C_LIKE, T2, upper_ones(2)))


def test_min_nonneg_generators_fault_is_caught(monkeypatch):
    # a shift that returns the unshifted lift A (+) Z
    real = constructions._min_nonneg_shift
    monkeypatch.setattr(
        constructions, "_min_nonneg_shift",
        lambda a, b, z: (real(a, b, z)[0], direct_sum([a, z])))
    z = [upper_ones(2), diag(2, 1)]
    _fails_on_emission("nonneg", lambda: direct_sum_min_nonneg_generators(
        [(diag(2), zero(2)), (zero(1), z[0]), (zero(1), z[1])], z))
    zp = [ones(2) + identity(2)]
    _fails_on_emission("positive", lambda: direct_sum_min_nonneg_generators(
        [(diag(5), zp[0])], zp))


def test_blockwise_covering_fault_is_caught(monkeypatch):
    # a similarity that does not flatten the idempotent
    monkeypatch.setattr(constructions, "uniformize_rank1_idempotent",
                        lambda e: identity(e.rows))
    _fails_on_emission("covers_conjugated",
                       lambda: blockwise_rank1_nonneg_covering(
                           [M2, M2],
                           [matrix_unit(2, 1, 1), matrix_unit(2, 1, 1)]))
    _fails_on_emission("nonneg", lambda: blockwise_rank1_nonneg_covering(
        [M2], [Mat.from_rows([[1, -1], [0, 0]])]))


def _wrong_inverse(pad, rest):
    """The padded uniformizer with I in place of its inverse."""
    return (direct_sum([uniformizer(pad + 1), identity(rest)]),
            identity(pad + 1 + rest))


def test_centralizer_covering_fault_is_caught(monkeypatch):
    spec = JordanSpec(((F(1), (2,)), (F(2), (1,))))
    monkeypatch.setattr(constructions, "_padded_uniformizer", _wrong_inverse)
    _fails_on_emission("conjugate_of", lambda: centralizer_covering(spec))


def test_central_eigenvalue_split_fault_is_caught(monkeypatch):
    z = direct_sum([diag(2), jordan_cell(2, 1)])
    alg = generate(3, [z])
    monkeypatch.setattr(constructions, "_padded_uniformizer", _wrong_inverse)
    _fails_on_emission("in_algebra_conjugated",
                       lambda: central_eigenvalue_split(alg, z, 1))


def test_single_generator_nonneg():
    cert = single_generator_nonneg(jordan_cell(3, 0))
    assert verify_certificate(cert) == []
    assert cert.outputs[0] == jordan_cell(3, 0)

    a = direct_sum([diag(5), jordan_cell(2, 0)])
    cert = single_generator_nonneg(a)
    assert verify_certificate(cert) == []
    assert is_nonneg(cert.outputs[0])
    assert generate(3, [cert.outputs[0]]).dim == generate(3, [a]).dim

    # a simple rational eigenvalue goes straight to positive_single_generator,
    # whose conjugated shift is strictly positive
    a = direct_sum([diag(2), jordan_cell(2, 3)])
    cert = single_generator_nonneg(a)
    assert verify_certificate(cert) == []
    assert is_positive(cert.outputs[0])

    # several nilpotent cells plus an invertible part, off Jordan coordinates
    from oracles import random_unimodular
    a0 = direct_sum([diag(7), jordan_cell(2, 0), jordan_cell(1, 0)])
    a = conjugate(a0, random_unimodular(random.Random(2), 4))
    cert = single_generator_nonneg(a)
    assert verify_certificate(cert) == []

    with pytest.raises(ValueError):
        single_generator_nonneg(Mat.from_rows([[0, -1], [1, 0]]))


def _planted_simple_eigenvalue(rng, n):
    """An n x n integer matrix whose only rational eigenvalue is simple: the
    eigenvalue beside the companion block of the Eisenstein polynomial
    x^(n-1) + 2 a_(n-2) x^(n-2) + ... + 2 a_1 x + 2c (c odd), conjugated by
    a unimodular matrix."""
    coeffs = [2 * (2 * rng.randint(-2, 1) + 1)]
    coeffs += [2 * rng.randint(-2, 2) for _ in range(n - 2)]
    lam = rng.randint(-3, 3)
    top = [lam] + [rng.randint(-2, 2) for _ in range(n - 1)]
    block = companion(Poly.from_coeffs(coeffs + [1]))
    rows = [top] + [[0] + list(r) for r in block.num]
    return conjugate(Mat.from_rows(rows), random_unimodular(rng, n))


def test_single_generator_simple_eigenvalue_is_positive():
    rng = random.Random(4242)
    for n in range(3, 7):
        for _ in range(2):
            a = _planted_simple_eigenvalue(rng, n)
            cert = single_generator_nonneg(a)
            out = cert.outputs[0]
            assert is_positive(out)
            assert verify_certificate(cert) == []
            assert generate(n, [out]) == conjugate_algebra(
                generate(n, [a]), cert.transform)
            # one entry raised by 1 leaves the algebra
            doc = cert.to_json()
            i, j = rng.randrange(n), rng.randrange(n)
            row = doc["outputs"][0]["entries"][i]
            row[j] = str(Fraction(row[j]) + 1)
            assert verify_document(doc) != []


def test_single_generator_simple_eigenvalue_skips_the_split(monkeypatch):
    calls = {"split": 0, "extension": 0}

    def counted(name, key):
        original = getattr(constructions, name)

        def wrapper(*args):
            calls[key] += 1
            return original(*args)
        monkeypatch.setattr(constructions, name, wrapper)
    counted("generalized_eigensplit", "split")
    counted("scalar_extension_positive_generators", "extension")

    a = _planted_simple_eigenvalue(random.Random(7), 4)
    assert verify_certificate(single_generator_nonneg(a)) == []
    assert verify_certificate(single_generator_nonneg(
        direct_sum([diag(2), jordan_cell(2, 3)]))) == []
    assert calls == {"split": 0, "extension": 0}
    # 1 < m < n still splits off the nilpotent part
    cert = single_generator_nonneg(direct_sum([diag(7), jordan_cell(2, 0)]))
    assert verify_certificate(cert) == []
    assert calls == {"split": 1, "extension": 0}


def test_single_generator_simple_eigenvalue_closes_once(monkeypatch):
    # m = 1: the engine neither closes <A> nor <B>, and builds char_poly(A)
    # once; the verifier decides the certificate's claim by the commutant
    # of the cyclic A, with no closure either
    from algforge import algebra, spectral, verify
    calls = {"closure_words": [], "_closure": [], "char_poly": []}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)
    for module, name in ((algebra, "closure_words"), (verify, "_closure"),
                         (constructions, "char_poly"),
                         (spectral, "char_poly")):
        counted(module, name)
    for seed in (7, 8):
        a = _planted_simple_eigenvalue(random.Random(seed), 4)
        for made in calls.values():
            made.clear()
        single_generator_nonneg(a)
        assert calls["char_poly"] == [(a,)]
        assert calls["closure_words"] == []
        assert calls["_closure"] == []


# -- incidence constructions -----------------------------------------------------

def test_incidence_of_dimension():
    pat = incidence_of_dimension(5, 11)
    strict = pat.strict()
    assert strict == {(4, 5), (3, 5), (3, 4), (2, 5), (2, 4), (2, 3)}
    assert incidence_of_dimension(4, 4).strict() == set()
    full = incidence_of_dimension(4, 10)
    assert full.positions == frozenset((i, j) for i in range(1, 5)
                                       for j in range(i, 5))
    with pytest.raises(ValueError):
        incidence_of_dimension(3, 2)
    with pytest.raises(ValueError):
        incidence_of_dimension(3, 7)
    with pytest.raises(ValueError):
        incidence_of_dimension(1, 1)


def test_incidence_of_dimension_always_valid():
    # every (n, k) yields a transitive antisymmetric pattern of size k
    for n in range(2, 7):
        for k in range(n, n * (n + 1) // 2 + 1):
            pat = incidence_of_dimension(n, k)  # invariants checked on init
            assert pat.size == k


def test_transitivity_check_matches_the_pairwise_loop():
    """Seeded reflexive antisymmetric position sets, about half of them
    closed transitively: a pattern is refused as not transitive exactly
    when the pairwise loop finds a broken pair."""
    rng = random.Random(1517)
    verdicts = []
    for _ in range(300):
        n = rng.randint(3, 7)
        order = rng.sample(range(1, n + 1), n)  # strict pairs follow it
        pos = {(i, i) for i in range(1, n + 1)} | {
            (order[a], order[b]) for a in range(n) for b in range(a + 1, n)
            if rng.random() < 0.4}
        if rng.random() < 0.5:
            for k in range(1, n + 1):  # Warshall: paths through 1..k
                pos |= {(i, t) for (i, kk) in pos if kk == k
                        for (k2, t) in pos if k2 == k}
        expected = pairwise_is_transitive(pos)
        try:
            IncidencePattern(n, frozenset(pos))
            transitive = True
        except ValueError as exc:
            assert str(exc) == "pattern is not transitive"
            transitive = False
        assert transitive == expected
        verdicts.append(expected)
    assert min(verdicts.count(True), verdicts.count(False)) >= 60


def test_triangularize_incidence():
    pat = pattern_from_positions(2, [(2, 1)])
    assert triangularize_incidence(pat) == [1, 0]
    pat = pattern_from_positions(3, [(1, 2), (1, 3)])
    assert triangularize_incidence(pat) == [0, 1, 2]
    pat = pattern_from_positions(3, [(3, 1), (3, 2)])
    order = triangularize_incidence(pat)
    assert order[0] == 2
    with pytest.raises(ValueError):
        IncidencePattern(2, frozenset({(1, 1), (2, 2), (1, 2), (2, 1)}))


def test_semicommuting_pair():
    pat = incidence_of_dimension(3, 6)
    a, d, cert = semicommuting_pair(pat)
    assert a == upper_ones(3)
    assert d == diag(3, 2, 1)
    comm = commutator(d, a)
    assert is_nonneg(comm)
    assert verify_certificate(cert) == []
    assert generate(3, [a, d]).dim == 6

    pat = incidence_of_dimension(4, 4)
    a, d, cert = semicommuting_pair(pat)
    assert a == identity(4)
    assert generate(4, [a, d]).dim == 4
    assert verify_certificate(cert) == []

    pat = pattern_from_positions(2, [(2, 1)])
    a, d, cert = semicommuting_pair(pat)
    assert is_nonneg(a) and is_nonneg(d)
    assert support(a) == pat.positions
    assert verify_certificate(cert) == []


def _assert_pair_generates(pat):
    a, d, _ = semicommuting_pair(pat)
    assert generates(incidence_algebra(pat), [a, d])


def test_semicommuting_pair_generates_its_pattern():
    """The closure the construction no longer runs, as an oracle: every
    staircase pattern up to n = 7, and seeded relabelled patterns, most
    of which are not upper-triangular."""
    for n in range(2, 8):
        for k in range(n, n * (n + 1) // 2 + 1):
            _assert_pair_generates(incidence_of_dimension(n, k))
    rng = random.Random(4242)
    relabelled = 0
    for _ in range(40):
        pat = random_pattern(rng, rng.randint(2, 6), triangular=False)
        relabelled += not pat.is_upper_triangular
        _assert_pair_generates(pat)
    assert relabelled >= 20


def test_semicommuting_pair_matches_the_conjugated_construction():
    """One path for every pattern gives the pair and the certificate that
    relabelling, building and conjugating back gave: every staircase
    pattern up to n = 7, and seeded relabelled patterns."""
    patterns = [incidence_of_dimension(n, k) for n in range(2, 8)
                for k in range(n, n * (n + 1) // 2 + 1)]
    rng = random.Random(1516)
    relabelled = [random_pattern(rng, rng.randint(2, 7), triangular=False)
                  for _ in range(48)]
    assert sum(not pat.is_upper_triangular for pat in relabelled) >= 20
    for pat in patterns + relabelled:
        a, d, cert = semicommuting_pair(pat)
        old_a, old_d, old_cert = conjugated_pair(pat)
        assert (a, d) == (old_a, old_d)
        assert cert.to_json() == old_cert.to_json()


def test_semicommuting_pair_makes_few_products(monkeypatch):
    """The n = 8 staircase patterns took 1260 products (about 43 each)
    when the pair was checked by closing it, and a relabelled pattern
    took one inverse when its pair was conjugated back."""
    calls, inverses = [], []
    real_mul, real_invert = Mat.__matmul__, linear.invert

    def counting(a, b):
        calls.append(1)
        return real_mul(a, b)

    def counting_invert(rows):
        inverses.append(1)
        return real_invert(rows)

    rng = random.Random(1517)
    patterns = [incidence_of_dimension(8, k) for k in range(8, 37)]
    patterns += [random_pattern(rng, 8, triangular=False) for _ in range(8)]
    assert any(not pat.is_upper_triangular for pat in patterns)
    monkeypatch.setattr(Mat, "__matmul__", counting)
    monkeypatch.setattr(linear, "invert", counting_invert)
    for pat in patterns:
        semicommuting_pair(pat)
    assert len(calls) <= 4 * len(patterns)
    assert inverses == []


def test_solve_all_dimensions():
    certs = solve_all_dimensions(2)
    assert len(certs) == 2
    for k, cert in zip([2, 3], certs):
        assert verify_certificate(cert) == []
        dims = [p["value"] for p in cert.properties if p["kind"] == "dimension"]
        assert dims == [k]
    with pytest.raises(ValueError):
        solve_all_dimensions(1)


# -- classification ----------------------------------------------------------------

def test_classify_positive_generation():
    cert = classify_positive_generation(M2, budget=8, seed=0)
    assert cert is not None and cert.claim == "positive-generation"
    assert verify_certificate(cert) == []

    assert classify_positive_generation(C_LIKE, budget=64, seed=0) is None

    sqrt2 = generate(2, [companion(Poly.of(-2, 0, 1))])
    cert = classify_positive_generation(sqrt2, budget=8, seed=0)
    assert cert is not None and cert.claim == "simple-real-eigenvalue-witness"
    assert verify_certificate(cert) == []


def _planted_generator(rng, n):
    """A unimodular conjugate of [lam] (+) the companion block of a degree
    n - 1 polynomial that is Eisenstein at 2: lam is the only rational
    eigenvalue, and the characteristic polynomial is squarefree."""
    coeffs = [2 * (2 * rng.randint(-2, 1) + 1)]
    coeffs += [2 * rng.randint(-2, 2) for _ in range(n - 2)] + [1]
    m = direct_sum([Mat.from_rows([[rng.randint(-3, 3)]]),
                    companion(Poly.of(*coeffs))])
    return conjugate(m, random_unimodular(rng, n))


def test_classify_single_generator_emits_one_positive_output():
    # dim A = n for each planted generator, so the witness alone decides
    # the branch: one output exactly when its characteristic polynomial
    # is squarefree
    one = 0
    for seed in range(24):
        n = 3 + seed % 3
        a = generate(n, [_planted_generator(random.Random(seed), n)])
        cert = classify_positive_generation(a)
        assert a.dim == n and cert.claim == "positive-generation"
        assert verify_certificate(cert) == []
        squarefree = multiplicity_one_part(
            char_poly(cert.inputs["witness"])).degree == n
        assert len(cert.outputs) == (1 if squarefree else n + 1)
        if squarefree:
            one += 1
            assert is_positive(cert.outputs[0])
            assert generate(n, cert.outputs) == conjugate_algebra(
                a, cert.transform)
    # seeds 0, 9 and 14 hit a witness with a repeated eigenvalue first
    assert one == 21
    # n = 1: the witness [1] generates the algebra alone
    cert = classify_positive_generation(generate(1, []))
    assert len(cert.outputs) == 1 and verify_certificate(cert) == []


def test_classify_keeps_d_plus_one_outputs_otherwise():
    # the witness E_11 of <diag(1, 2, 3)> has the repeated eigenvalue 0,
    # R (+) <J_2(1)> has no witness with a squarefree characteristic
    # polynomial, and M_2 has dimension 4 > 2
    r_j2 = algebra_direct_sum(generate(1, []), generate(2, [jordan_cell(2, 1)]))
    for alg in (generate(3, [diag(1, 2, 3)]), r_j2, M2):
        cert = classify_positive_generation(alg, budget=16, seed=0)
        assert cert.claim == "positive-generation"
        assert len(cert.outputs) == alg.dim + 1
        assert verify_certificate(cert) == []


def test_classify_draws_the_basis_and_64_combinations_by_default(
        monkeypatch):
    # no member of <[[0, 1], [-1, 0]]> has a real eigenvalue, so classify
    # draws every candidate of its default budget
    drawn = []
    real = constructions._candidates

    def counted(a, budget, seed):
        for x in real(a, budget, seed):
            drawn.append(x)
            yield x
    monkeypatch.setattr(constructions, "_candidates", counted)
    assert classify_positive_generation(C_LIKE) is None
    assert len(drawn) == C_LIKE.dim + 64 == 66
    assert _build_parser().parse_args(["algebra-classify"]).budget == 64


def test_classify_skips_scalar_candidates(monkeypatch):
    seen = []

    def counted(x):
        seen.append(x)
        return char_poly(x)

    def scalar(x):
        return x == x.data[0][0] * identity(x.rows)

    monkeypatch.setattr(constructions, "char_poly", counted)
    for alg in (M2, T2, C_LIKE, generate(3, [diag(1, 2, 3)])):
        classify_positive_generation(alg, budget=16, seed=0)
    assert seen and not any(map(scalar, seen))
    # span{I} has only scalars: none reaches char_poly, and none is a hit
    seen.clear()
    assert classify_positive_generation(generate(2, []), budget=16) is None
    assert not seen
    # for n = 1 the scalar [1] is the hit
    assert classify_positive_generation(generate(1, [])) is not None
    assert seen == [identity(1)]


def test_classify_deterministic():
    a = generate(3, [diag(1, 2, 3)])
    c1 = classify_positive_generation(a, budget=16, seed=5)
    c2 = classify_positive_generation(a, budget=16, seed=5)
    assert c1 is not None and c1.to_json() == c2.to_json()


def test_commutative_case_pipeline():
    # commutative algebra R (+) B: classification succeeds with rational data
    # and the scalar-extension pipeline exhibits the positive system
    b_gen = jordan_cell(2, 1)
    alg = algebra_direct_sum(generate(1, []), generate(2, [b_gen]))
    cert = classify_positive_generation(alg, budget=16, seed=0)
    assert cert is not None and cert.claim == "positive-generation"
    assert verify_certificate(cert) == []
    s, gens = scalar_extension_positive_generators([b_gen])
    assert all(is_positive(g) for g in gens)
    assert generate(3, gens) == conjugate_algebra(alg, s)
