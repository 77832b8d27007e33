"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Every assertion is exact (zero tolerance) except the numeric
eigensolver cross-check, whose clustering tolerance of 1e-8 is part of the
criterion itself.
"""

import random
import time
from fractions import Fraction

import pytest

from algforge.algebra import (centralizer, conjugate_algebra, generate,
                              nonneg_covering_exists)
from algforge.constructions import (centralizer_covering,
                                    classify_positive_generation,
                                    direct_sum_min_nonneg_generators,
                                    direct_sum_nonneg_covering,
                                    nonneg_generators_from_covering,
                                    positive_single_generator,
                                    predict_padded_conjugation,
                                    semicommuting_pair, solve_all_dimensions)
from algforge.matrices import (Mat, conjugate, direct_sum, identity,
                               is_nonneg, is_positive, jordan_cell,
                               mat_to_json, ones, support, uniformizer,
                               uniformizer_inv, zero)
from algforge.polynomials import Poly
from algforge.spectral import (JordanSpec, char_poly,
                               has_simple_real_eigenvalue)
from algforge.verify import verify_document
from oracles import fraction_min_poly as min_poly
from oracles import (commutator, incidence_algebra, matrix_unit,
                     nonneg_basis_from_generators, numeric_has_simple_real,
                     poly_from_roots, random_mat, random_nonneg_on_pattern,
                     random_pattern, random_unimodular)

F = Fraction


def _passed(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_01_problem_solution_table():
    started = time.monotonic()
    total = 0
    for n in range(2, 7):
        certs = solve_all_dimensions(n)
        expected_ks = list(range(n, n * (n + 1) // 2 + 1))
        assert len(certs) == len(expected_ks)
        for k, cert in zip(expected_ks, certs):
            a, b = cert.outputs
            assert is_nonneg(a) and is_nonneg(b)
            assert is_nonneg(commutator(a, b))
            assert generate(n, [a, b]).dim == k
            assert verify_document(cert.to_json()) == []
            total += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _passed("1", f"{total} pairs for n=2..6, exact, {elapsed:.1f}s")


def test_criterion_02_uniformizer_identities():
    for n in range(2, 13):
        assert uniformizer_inv(n) @ uniformizer(n) == identity(n)
        assert conjugate(matrix_unit(n, n, n), uniformizer(n)) == \
            F(1, n) * ones(n)
    _passed("2", "inverse and corner-unit identities exact for n=2..12")


def test_criterion_03_padded_conjugation_oracle():
    rng = random.Random(817)
    checked = signed = 0
    for trial in range(200):
        k1 = rng.randint(1, 4)
        k2 = rng.randint(2, 5)
        mode = trial % 3
        rows = []
        for i in range(k2):
            row = []
            for j in range(k2):
                if mode == 0:
                    row.append(F(rng.randint(-10, 10), rng.randint(1, 3)))
                elif mode == 1:
                    row.append(F(rng.randint(0, 10), rng.randint(1, 3)))
                else:
                    row.append(F(rng.randint(1, 10), rng.randint(1, 3)))
            rows.append(row)
        rows[0][0] = F(rng.randint(1, 10), rng.randint(1, 3))
        t = Mat.from_rows(rows)
        predicted = predict_padded_conjugation(t, k1)
        c = direct_sum([uniformizer(k1 + 1), identity(k2 - 1)])
        assert predicted == conjugate(direct_sum([zero(k1), t]), c)
        checked += 1
        if mode == 1:
            assert is_nonneg(predicted)
            signed += 1
        elif mode == 2:
            assert is_positive(predicted)
            signed += 1
    assert checked == 200
    _passed("3", f"200 block predictions exact, {signed} sign propagations")


def test_criterion_04_direct_sum_both_items():
    rng = random.Random(424)
    for _ in range(50):
        k1 = rng.randint(1, 4)
        k2 = rng.randint(2, 4)
        gens_a = [random_mat(rng, k1, 3)
                  for _ in range(rng.randint(1, 2))]
        left = generate(k1, gens_a)
        pat = random_pattern(rng, k2)
        right = incidence_algebra(pat)
        t = random_nonneg_on_pattern(rng, pat)
        cert1 = direct_sum_nonneg_covering(left, right, t)
        assert verify_document(cert1.to_json()) == []

        d = direct_sum([Mat.from_rows([[k2 - i]]) for i in range(k2)])
        z = [t, d]
        sum_gens = [(g, zero(k2)) for g in gens_a] + \
                   [(zero(k1), zm) for zm in z]
        cert2 = direct_sum_min_nonneg_generators(sum_gens, z)
        assert verify_document(cert2.to_json()) == []
        assert len(cert2.outputs) == 2 * len(sum_gens)
    _passed("4", "50 covering + same-cardinality generator certificates")


def _random_spectrum_block(rng, size, eigenvalues):
    rows = [[F(0)] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = eigenvalues[rng.randrange(len(eigenvalues))]
        for j in range(i + 1, size):
            rows[i][j] = F(rng.randint(-3, 3))
    m = Mat.from_rows(rows)
    return conjugate(m, random_unimodular(rng, size))


def test_criterion_05_block_projector_on_random_triples():
    from oracles import block_projector_poly
    from algforge.matrices import poly_at
    rng = random.Random(505)
    for _ in range(100):
        pool = rng.sample(range(-8, 9), 6)
        p_size = rng.randint(0, 3)
        q_size = rng.randint(1, 3)
        r_size = rng.randint(0, 3)
        p_blk = _random_spectrum_block(rng, p_size, [F(v) for v in pool[:2]]) \
            if p_size else zero(0)
        q_blk = _random_spectrum_block(rng, q_size, [F(v) for v in pool[2:4]])
        r_blk = _random_spectrum_block(rng, r_size, [F(v) for v in pool[4:]]) \
            if r_size else zero(0)
        mu_others = min_poly(p_blk) * min_poly(r_blk)
        h = block_projector_poly(min_poly(q_blk), mu_others)
        a = direct_sum([p_blk, q_blk, r_blk])
        expected = direct_sum([zero(p_size), identity(q_size), zero(r_size)])
        assert poly_at(h, a) == expected
    _passed("5", "100 disjoint-spectrum triples split exactly")


def test_criterion_06_positive_single_generator():
    rng = random.Random(606)
    for _ in range(100):
        n = rng.randint(2, 5)
        simple = F(rng.randint(5, 9))
        others = []
        budget = n - 1
        while budget:
            if rng.random() < 0.5:
                size = 1
                others.append(Mat.from_rows([[rng.randint(-4, 4)]]))
            else:
                size = min(rng.randint(1, 2), budget)
                others.append(jordan_cell(size, 0))
            budget -= size
        core = direct_sum([Mat.from_rows([[simple]])] + others)
        s = random_unimodular(rng, n)
        a = conjugate(core, s)
        c, b = positive_single_generator(a, simple)
        assert is_positive(conjugate(b, c))
        assert generate(n, [b]) == generate(n, [a])
    _passed("6", "100 shifted generators positive with identical closure")


def _verifier_decides(a: Mat) -> bool:
    """The verdict of a one-property has_simple_real_eigenvalue document
    on A."""
    failures = verify_document({
        "outputs": [mat_to_json(a)],
        "properties": [{"kind": "has_simple_real_eigenvalue",
                        "target": "out:0"}]})
    assert failures in ([], ["property 0 (has_simple_real_eigenvalue)"
                             " failed"]), failures
    return not failures


@pytest.mark.usefixtures("reference_agreement")
def test_criterion_07_simple_real_eigenvalue_decision():
    from oracles import companion
    fixtures = [
        (poly_from_roots([1]) * poly_from_roots([2, 2]) * Poly.of(1, 0, 1),
         True),
        (poly_from_roots([2, 2]) * Poly.of(1, 0, 1), False),
        (Poly.of(-2, 0, 1) * poly_from_roots([1, 1]), True),
    ]
    for poly, expected in fixtures:
        assert has_simple_real_eigenvalue(companion(poly)) is expected
        assert _verifier_decides(companion(poly)) is expected
    rng = random.Random(707)
    agreements = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        a = Mat.from_rows([[rng.randint(-5, 5) for _ in range(n)]
                           for _ in range(n)])
        expected = numeric_has_simple_real(a)
        assert has_simple_real_eigenvalue(a) == expected
        assert _verifier_decides(a) == expected
        agreements += 1
    # the verifier decides on the integer numerators of A = N / d, which
    # have A's eigenvalues times d
    for rows in ([["1/2", "1/3"], ["1/5", "2"]], [["1/6", 0], [0, "1/6"]],
                 [["-1/4", "1/2", 0], [0, "-1/4", 0], [0, 0, "3/7"]]):
        a = Mat.from_rows([[F(v) for v in row] for row in rows])
        assert a.den > 1
        expected = numeric_has_simple_real(a)
        assert has_simple_real_eigenvalue(a) == expected
        assert _verifier_decides(a) == expected
        agreements += 1
    # 0 x 0 has no eigenvalue; a 2 x 3 target has no characteristic
    # polynomial
    assert not has_simple_real_eigenvalue(zero(0))
    assert not _verifier_decides(zero(0))
    wide = {"rows": 2, "cols": 3, "entries": [["1", "0", "0"],
                                              ["0", "1", "0"]]}
    assert verify_document({
        "outputs": [wide],
        "properties": [{"kind": "has_simple_real_eigenvalue",
                        "target": "out:0"}]}) == [
        "property 0 (has_simple_real_eigenvalue): matrix must be square"]
    _passed("7", f"3 fixtures + {agreements} numeric agreements at 1e-8,"
                 " in the engine and the verifier")


def test_criterion_08_nonneg_generation_loop():
    rng = random.Random(808)
    for _ in range(50):
        n = rng.randint(2, 6)
        pat = random_pattern(rng, n, triangular=rng.random() < 0.7)
        alg = incidence_algebra(pat)
        covering = nonneg_covering_exists(alg)
        assert covering is not None
        assert is_nonneg(covering) and support(covering) == alg.support()
        gens = nonneg_generators_from_covering(alg, covering)
        assert all(is_nonneg(g) for g in gens)
        assert generate(n, gens) == alg
        basis = nonneg_basis_from_generators(gens)
        assert len(basis) == alg.dim
        assert all(is_nonneg(b) for b in basis)
        assert generate(n, basis) == alg
    _passed("8", "50 incidence algebras: covering -> generators -> basis")


def test_criterion_09_centralizer_coverings():
    rng = random.Random(909)
    specs_checked = 0
    while specs_checked < 30:
        groups = []
        total = 0
        used = set()
        for _ in range(rng.randint(1, 3)):
            lam = rng.randint(-5, 5)
            if lam in used:
                continue
            used.add(lam)
            sizes = []
            for _ in range(rng.randint(1, 2)):
                s = rng.randint(1, 3)
                if total + s > 8:
                    break
                sizes.append(s)
                total += s
            if sizes:
                groups.append((F(lam), tuple(sizes)))
        if not groups:
            continue
        spec = JordanSpec(tuple(groups))
        a, r_hat, cert = centralizer_covering(spec)
        cent = centralizer(a)
        assert cent.dim == spec.centralizer_dimension()
        doc = cert.to_json()
        assert verify_document(doc) == []
        final = cert.outputs[1]
        assert is_nonneg(final)
        conj_cent = conjugate_algebra(cent, cert.transform)
        assert conj_cent.contains(final)
        assert support(final) == conj_cent.support()
        specs_checked += 1
    _passed("9", "30 specs: dimension formula + verified coverings")


def test_criterion_10_dimension_bound():
    rng = random.Random(1010)
    worst = 0
    for _ in range(500):
        n = rng.randint(2, 6)
        pat = random_pattern(rng, n, triangular=rng.random() < 0.6)
        a = random_nonneg_on_pattern(rng, pat)
        if pat.is_upper_triangular:
            # strictly decreasing positive diagonal entries
            d = direct_sum([Mat.from_rows([[n - i + F(1, rng.randint(2, 5))]])
                            for i in range(n)])
        else:
            _, d, _ = semicommuting_pair(pat)
        assert is_nonneg(a) and is_nonneg(d)
        comm = commutator(d, a)
        assert is_nonneg(comm) or is_nonneg(-comm)
        dim = generate(n, [a, d]).dim
        assert dim <= n * (n + 1) // 2
        worst = max(worst, dim)
    _passed("10", f"500 semi-commuting pairs, max dimension {worst}")


def test_criterion_11_complex_like_negative_fixture():
    rot = Mat.from_rows([[0, 1], [-1, 0]])
    alg = generate(2, [rot])
    assert alg.dim == 2
    assert nonneg_covering_exists(alg) is None
    assert classify_positive_generation(alg, budget=64, seed=0) is None
    scalars = 0
    for b in alg.basis:
        if b.data[0][1] == 0 and b.data[1][0] == 0 and \
                b.data[0][0] == b.data[1][1]:
            scalars += 1
            continue
        cp = char_poly(b)
        disc = cp.coeffs[1] ** 2 - 4 * cp.coeffs[0]
        assert disc < 0
    assert scalars == 1  # only the identity is scalar
    rng = random.Random(1111)
    for _ in range(20):
        x = F(rng.randint(-9, 9)) * alg.basis[0] + \
            F(rng.randint(-9, 9), rng.randint(1, 3)) * alg.basis[1]
        if x.data[0][1] == 0:
            continue
        cp = char_poly(x)
        assert cp.coeffs[1] ** 2 - 4 * cp.coeffs[0] < 0
    _passed("11", "no nonnegative covering, unknown classification,"
                  " negative discriminants")
