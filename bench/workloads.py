"""The three benchmark workloads.

Each workload builds its inputs from the seed in its constructor (that is
the set-up the benchmark times), and then offers one library pass
(construct, serialize with a JSON round trip, verify), one CLI pass over
the same input files through `algforge.cli.run`, a set of control
operations, and independent checks of the outputs (which import numpy and
sympy only when they run, after the timed passes).  Every call into the
program goes through `Runner.op`, which applies the per-operation time
limit and counts attempted and failed operations.  Every pass attempts the
same operations whatever the seed, so the share of failed operations is
fixed.
"""

from __future__ import annotations

import copy
import json
import os
import random
from fractions import Fraction


def canonical(doc) -> str:
    """The canonical JSON text of a document (sorted keys, no spaces)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def wire_matrix(rows) -> dict:
    """A matrix in algforge's wire format, written without the program."""
    return {"rows": len(rows), "cols": len(rows[0]),
            "entries": [[str(Fraction(v)) for v in row] for row in rows]}


def write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


# -- plain matrices (lists of rows), for input generation and the checks ----------

def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def identity(n: int):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def unit_triangular_inverse(t, lower: bool):
    """Inverse of a unit lower (or upper) triangular integer matrix."""
    n = len(t)
    if not lower:
        tt = [list(r) for r in zip(*t)]
        return [list(r) for r in zip(*unit_triangular_inverse(tt, True))]
    inv = identity(n)
    for i in range(n):
        for j in range(i):
            inv[i][j] = -sum(t[i][k] * inv[k][j] for k in range(j, i))
    return inv


def unimodular_pair(n: int, rng: random.Random, block=None):
    """(U, U^-1) with U = L R, L unit lower and R unit upper triangular
    with every off-diagonal entry a seeded +-1.  With `block` (the block
    index of each row), L is nonzero below the diagonal only inside the
    diagonal blocks, so U lies in that block upper-triangular algebra."""
    block = block or [0] * n
    low = [[1 if i == j else (rng.choice((-1, 1))
                              if i > j and block[i] == block[j] else 0)
            for j in range(n)] for i in range(n)]
    up = [[1 if i == j else (rng.choice((-1, 1)) if i < j else 0)
           for j in range(n)] for i in range(n)]
    u = mat_mul(low, up)
    u_inv = mat_mul(unit_triangular_inverse(up, False),
                    unit_triangular_inverse(low, True))
    return u, u_inv


def conjugate_int(u, m, u_inv):
    return mat_mul(mat_mul(u, m), u_inv)


def sign_conjugate(signs, m):
    """D m D for the diagonal sign matrix D = diag(signs)."""
    return [[signs[i] * v * signs[j] for j, v in enumerate(row)]
            for i, row in enumerate(m)]


def companion_rows(coeffs):
    """Companion matrix of the monic x^d + coeffs[d-1] x^(d-1) + ... + coeffs[0]."""
    d = len(coeffs)
    return [[(1 if i == j + 1 else 0) if j < d - 1 else -coeffs[i]
             for j in range(d)] for i in range(d)]


# -- workloads ---------------------------------------------------------------------

class DimensionTable:
    """`solve_all_dimensions(n)` with all its certificates, and
    `problem-solve --format table` for a smaller n through the CLI."""

    name = "dimension-table"

    def __init__(self, af, seed: int, work: str, quick: bool):
        self.af = af
        self.n = 3 if quick else 6
        self.cli_n = 3 if quick else 5
        rng = random.Random(seed)
        count = self.n * (self.n + 1) // 2 - self.n + 1
        # negative controls: which certificate gets which output entry
        # negated, and which certificate loses its property list
        self.tamper_cert = rng.randrange(count)
        self.tamper_out = rng.randrange(2)
        self.tamper_pick = rng.random()
        self.empty_cert = rng.randrange(count)
        self.table_path = os.path.join(work, "table.txt")

    def library(self, run) -> dict:
        certs = run.op("construct",
                       lambda: self.af.constructions.solve_all_dimensions(self.n))
        docs = run.op("serialize", lambda: run.round_trip(certs)) or []
        for doc in docs:
            run.op("verify", lambda doc=doc: run.verdicts([doc]),
                   expect=lambda failures: not failures)
        return {"docs": docs}

    def cli(self, run, out) -> None:
        run.cli(["problem-solve", "-n", str(self.cli_n), "--format", "table",
                 "--out", self.table_path])

    def controls(self, run, out) -> None:
        verify_document = self.af.verify.verify_document
        tampered = copy.deepcopy(out["docs"][self.tamper_cert])
        entries = tampered["outputs"][self.tamper_out]["entries"]
        nonzero = [(i, j) for i, row in enumerate(entries)
                   for j, v in enumerate(row) if Fraction(v)]
        i, j = nonzero[int(self.tamper_pick * len(nonzero))]
        entries[i][j] = str(-Fraction(entries[i][j]))
        run.op("control", lambda: verify_document(tampered),
               expect=lambda failures: bool(failures))
        # An empty property list asserts nothing, so it must not verify.
        empty = dict(out["docs"][self.empty_cert], properties=[])
        run.op("control", lambda: verify_document(empty),
               expect=lambda failures: bool(failures))

    def check(self, out) -> list[str]:
        import checks
        with open(self.table_path) as fh:
            table = fh.read()
        return (checks.dimension_table(self.n, out["docs"])
                + checks.problem_table(self.cli_n, table))


class ConjugatedClassify:
    """Generator pairs of block upper-triangular algebras conjugated by
    seeded unimodular matrices: generate, classify, verify."""

    name = "conjugated-classify"
    BLOCKS = [(2, 2), (1, 3), (3, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2),
              (1, 1, 1, 1)]

    def __init__(self, af, seed: int, work: str, quick: bool):
        self.af = af
        rng = random.Random(seed)
        self.items = []
        for idx, sizes in enumerate([(1, 2)] if quick else self.BLOCKS):
            n = sum(sizes)
            block = [b for b, s in enumerate(sizes) for _ in range(s)]
            # A diagonal with distinct entries and B nonzero exactly on the
            # block upper-triangular pattern generate the whole block
            # upper-triangular algebra, whatever the values.
            diag = rng.sample(range(-4, 5), n)
            a = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
            b = [[rng.choice((1, 2)) if block[i] <= block[j] else 0
                  for j in range(n)] for i in range(n)]
            # The conjugator is U Q: U is fixed per block shape and Q is a
            # seeded unimodular member of the block-triangular algebra T, so
            # U Q T (U Q)^-1 = U T U^-1.  The seed changes the generator
            # pair that generate has to close, not the algebra that classify
            # and verify work on: with U seeded as well, single shapes
            # classified up to 40% slower or faster from seed to seed.
            u, u_inv = unimodular_pair(n, random.Random(1000 + idx))
            q, q_inv = unimodular_pair(n, rng, block)
            gens = [conjugate_int(u, conjugate_int(q, m, q_inv), u_inv)
                    for m in (a, b)]
            stem = os.path.join(work, f"conj{idx}")
            write_json(stem + "-gens.json",
                       {"n": n, "gens": [wire_matrix(g) for g in gens]})
            self.items.append({
                "sizes": sizes, "n": n, "stem": stem,
                "gens": [af.matrices.Mat.from_rows(g) for g in gens]})

    def library(self, run) -> dict:
        generate = self.af.algebra.generate
        classify = self.af.constructions.classify_positive_generation
        results = []
        for item in self.items:
            alg = run.op("construct", lambda: generate(item["n"], item["gens"]))
            cert = run.op("construct", lambda: classify(alg),
                          expect=lambda c: c is not None)
            docs = run.op("serialize", lambda: run.round_trip([cert]))
            run.op("verify", lambda: run.verdicts(docs),
                   expect=lambda failures: not failures)
            results.append({"algebra": alg, "docs": docs})
        return {"items": results, "docs": [d for r in results for d in r["docs"]]}

    def cli(self, run, out) -> None:
        for item in self.items:
            stem = item["stem"]
            run.cli(["algebra-generate", stem + "-gens.json",
                     "--out", stem + "-alg.json"])
            run.cli(["algebra-classify", stem + "-alg.json",
                     "--out", stem + "-cls.json"])
            run.cli(["verify", stem + "-cls.json", "--out", stem + "-ver.json"])

    def controls(self, run, out) -> None:
        pass

    def check(self, out) -> list[str]:
        import checks
        problems = []
        to_json = self.af.algebra.algebra_to_json
        for item, res in zip(self.items, out["items"]):
            stem, sizes = item["stem"], item["sizes"]
            label = f"blocks {sizes}"
            alg_doc = read_json(stem + "-alg.json")
            if alg_doc != json.loads(json.dumps(to_json(res["algebra"]))):
                problems.append(f"{label}: algebra-generate differs from generate")
            problems += checks.block_triangular_dimension(
                sizes, len(alg_doc["basis"]), label)
            doc = res["docs"][0]
            problems += checks.classification(doc, label)
            cls_doc = read_json(stem + "-cls.json")
            if cls_doc.get("certificate") != doc:
                problems.append(f"{label}: algebra-classify differs from library")
            if read_json(stem + "-ver.json") != {"verified": 1}:
                problems.append(f"{label}: verify verb did not report 1 verified")
        return problems


class SingleGenerator:
    """Seeded integer matrices with one planted rational eigenvalue: the
    single nonnegative generator, the covering question and the
    positive-generation classification of the algebra each one generates."""

    name = "single-generator"
    SIZE = 4
    COUNT = 8

    # A fixed input, the same for every seed: one rational eigenvalue 3
    # next to the companion block of x^4 + 2x^3 + 2x^2 + 2x + 2c with an
    # odd 63-bit c.  Its characteristic polynomial has a 65-bit constant
    # term, and `rational_roots` trial-divides up to its square root.
    HOSTILE_C = (1 << 62) + 1

    def __init__(self, af, seed: int, work: str, quick: bool):
        self.af = af
        rng = random.Random(seed)
        size, count = (3, 1) if quick else (self.SIZE, self.COUNT)
        self.items = []
        for idx in range(count):
            base = random.Random(2000 + idx)
            # x^(n-1) + 2 a_(n-2) x^(n-2) + ... + 2 a_1 x + 2c with c odd is
            # Eisenstein at 2, hence irreducible: the planted eigenvalue is
            # the only rational one and it is simple.
            coeffs = [2 * (2 * base.randint(-2, 1) + 1)]
            coeffs += [2 * base.randint(-2, 2) for _ in range(size - 2)]
            lam = base.randint(-3, 3)
            top = [lam] + [base.randint(-2, 2) for _ in range(size - 1)]
            rows = [top] + [[0] + r for r in companion_rows(coeffs)]
            u, u_inv = unimodular_pair(size, base)
            # The seed draws only the sign conjugation D, which keeps the
            # spectrum and the size of every entry, so every seed costs
            # about the same; the rest is fixed per matrix.
            signs = [rng.choice((-1, 1)) for _ in range(size)]
            a = sign_conjugate(signs, conjugate_int(u, rows, u_inv))
            stem = os.path.join(work, f"single{idx}")
            write_json(stem + "-gens.json", {"n": size, "gens": [wire_matrix(a)]})
            self.items.append({"n": size, "rows": a, "stem": stem,
                               "mat": af.matrices.Mat.from_rows(a)})
        hostile = [[3, 1, 0, 0, 0]] + [[0] + r for r in companion_rows(
            [2 * self.HOSTILE_C, 2, 2, 2])]
        self.hostile = af.matrices.Mat.from_rows(hostile)

    def library(self, run) -> dict:
        c = self.af.constructions
        alg_mod = self.af.algebra
        results = []
        for item in self.items:
            n, a = item["n"], item["mat"]
            sg = run.op("construct", lambda: c.single_generator_nonneg(a))

            def covering():
                alg = alg_mod.generate(n, [a])
                return alg, alg_mod.nonneg_covering_exists(alg)
            alg, cover = run.op("construct", covering) or (None, None)
            cls = run.op("construct",
                         lambda: c.classify_positive_generation(alg))
            docs = run.op("serialize",
                          lambda: run.round_trip([x for x in (sg, cls) if x]))
            run.op("verify", lambda: run.verdicts(docs),
                   expect=lambda failures: not failures)
            docs = docs or [None, None]
            results.append({"algebra": alg, "cover": cover, "sg": docs[0],
                            "cls": docs[1] if cls is not None else None})
        return {"items": results,
                "docs": [d for r in results for d in (r["sg"], r["cls"]) if d]}

    def cli(self, run, out) -> None:
        for item, res in zip(self.items, out["items"]):
            stem = item["stem"]
            write_json(stem + "-sg.json", res["sg"])
            run.cli(["algebra-covering", stem + "-gens.json",
                     "--out", stem + "-cov.json"])
            run.cli(["algebra-classify", stem + "-gens.json",
                     "--out", stem + "-cls.json"])
            run.cli(["verify", stem + "-sg.json", "--out", stem + "-ver.json"])

    def controls(self, run, out) -> None:
        c = self.af.constructions
        verify_document = self.af.verify.verify_document
        run.op("control",
               lambda: verify_document(c.single_generator_nonneg(self.hostile)
                                       .to_json()),
               expect=lambda failures: not failures)

    def check(self, out) -> list[str]:
        import checks
        problems = []
        char_poly = self.af.spectral.char_poly
        for idx, (item, res) in enumerate(zip(self.items, out["items"])):
            label = f"input {idx}"
            stem = item["stem"]
            rows = item["rows"]
            problems += checks.char_poly(rows, char_poly(item["mat"]).coeffs,
                                         label)
            problems += checks.power_algebra_dimension(
                rows, res["algebra"].dim, label)
            problems += checks.covering_verdict(rows, res["cover"] is not None,
                                                label)
            cov_doc = read_json(stem + "-cov.json")
            if (cov_doc["nonneg_covering"] is None) != (res["cover"] is None):
                problems.append(f"{label}: algebra-covering verdict differs")
            problems += checks.nonneg_outputs(res["sg"], label)
            cls_doc = read_json(stem + "-cls.json")
            if res["cls"] is not None:
                problems += checks.classification(res["cls"], label)
            if cls_doc.get("certificate") != res["cls"]:
                problems.append(f"{label}: algebra-classify differs from library")
            if read_json(stem + "-ver.json") != {"verified": 1}:
                problems.append(f"{label}: verify verb did not report 1 verified")
        return problems


WORKLOADS = {w.name: w for w in (DimensionTable, ConjugatedClassify,
                                 SingleGenerator)}
