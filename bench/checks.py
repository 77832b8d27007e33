"""Correctness checks made apart from the program.

Nothing here calls algforge: matrices are read from the wire format with
`fractions`, ranks and characteristic polynomials come from `sympy`,
feasibility from `sympy.solvers.simplex.lpmin`, and eigenvalues from
`numpy`.  Each check returns a list of problems; an empty list means the
outputs are right.  These run after the timed passes.
"""

from __future__ import annotations

from fractions import Fraction

import numpy
import sympy
from sympy.polys.matrices import DomainMatrix
from sympy.solvers.simplex import lpmin

from workloads import identity, mat_mul


def grid(obj: dict) -> list[list[Fraction]]:
    return [[Fraction(v) for v in row] for row in obj["entries"]]


def rank(vectors) -> int:
    """Exact rank of a list of rational vectors."""
    if not vectors:
        return 0
    rows = [[sympy.QQ(v.numerator, v.denominator) for v in map(Fraction, vec)]
            for vec in vectors]
    return DomainMatrix(rows, (len(rows), len(rows[0])), sympy.QQ).rank()


def flat(m) -> list:
    return [v for row in m for v in row]


def word_span_dimension(gens) -> int:
    """Dimension of the span of all words in gens (the empty word is I).

    Words are extended on the right, one generator at a time, and a word
    is kept only when it raises the rank: a product w*g with w in the span
    of kept words is in the span of the kept words times g.
    """
    kept = [identity(len(gens[0]))]
    frontier = list(kept)
    while frontier:
        grown = []
        for w in frontier:
            for g in gens:
                p = mat_mul(w, g)
                if rank([flat(k) for k in kept] + [flat(p)]) > len(kept):
                    kept.append(p)
                    grown.append(p)
        frontier = grown
    return len(kept)


def simple_real_eigenvalue(m) -> bool:
    """Numeric test: some real eigenvalue lies apart from all others."""
    ev = numpy.linalg.eigvals(numpy.array([[float(v) for v in row] for row in m]))
    scale = max(1.0, float(numpy.max(numpy.abs(ev))))
    for e in ev:
        if abs(e.imag) > 1e-5 * scale:
            continue
        if sum(1 for f in ev if abs(e - f) <= 1e-4 * scale) == 1:
            return True
    return False


# -- workload checks ------------------------------------------------------------------

def dimension_table(n: int, docs: list[dict]) -> list[str]:
    problems = []
    top = n * (n + 1) // 2
    if len(docs) != top - n + 1:
        return [f"expected {top - n + 1} certificates, got {len(docs)}"]
    dims = []
    for idx, doc in enumerate(docs):
        d, a = (grid(m) for m in doc["outputs"])
        if any(v.denominator != 1 for v in flat(d) + flat(a)):
            problems.append(f"certificate {idx}: pair is not integral")
            continue
        d = [[int(v) for v in row] for row in d]
        a = [[int(v) for v in row] for row in a]
        comm = [[x - y for x, y in zip(r1, r2)]
                for r1, r2 in zip(mat_mul(d, a), mat_mul(a, d))]
        if min(flat(d) + flat(a)) < 0:
            problems.append(f"certificate {idx}: pair has a negative entry")
        if min(flat(comm)) < 0:
            problems.append(f"certificate {idx}: commutator has a negative entry")
        dim = word_span_dimension([d, a])
        claimed = [p["value"] for p in doc["properties"]
                   if p["kind"] == "dimension"]
        if claimed != [dim]:
            problems.append(f"certificate {idx}: claims {claimed}, words span {dim}")
        dims.append(dim)
    if sorted(dims) != list(range(n, top + 1)):
        problems.append(f"dimensions {sorted(dims)} do not realize {n}..{top} once each")
    return problems


def problem_table(n: int, text: str) -> list[str]:
    lines = text.splitlines()
    top = n * (n + 1) // 2
    count = top - n + 1
    rows = [line.split() for line in lines[1:-1]]
    ks = [int(r[0]) for r in rows if len(r) == 3 and r[0] == r[1]]
    problems = []
    if sorted(ks) != list(range(n, top + 1)) or len(rows) != count:
        problems.append(f"table rows {ks} do not list {n}..{top} once each")
    if any(r[-1] != "ok" for r in rows):
        problems.append("table marks a certificate as failed")
    if lines[-1:] != [f"total: {count}/{count} verified"]:
        problems.append(f"table total line is {lines[-1:]}")
    return problems


def block_triangular_dimension(sizes, dim: int, label: str) -> list[str]:
    want = sum(s * t for i, s in enumerate(sizes) for t in sizes[i:])
    return [] if dim == want else [f"{label}: dimension {dim}, expected {want}"]


def classification(doc: dict, label: str) -> list[str]:
    """A positive-generation certificate has positive outputs and a witness
    with a simple real eigenvalue; an existence witness has one too."""
    if doc["claim"] == "positive-generation":
        problems = []
        if any(v <= 0 for m in doc["outputs"] for v in flat(grid(m))):
            problems.append(f"{label}: an output is not positive")
        if not simple_real_eigenvalue(grid(doc["inputs"]["witness"])):
            problems.append(f"{label}: numpy finds no simple real eigenvalue"
                            " of the witness")
        return problems
    if doc["claim"] == "simple-real-eigenvalue-witness":
        if not simple_real_eigenvalue(grid(doc["outputs"][0])):
            return [f"{label}: numpy finds no simple real eigenvalue"]
        return []
    return [f"{label}: unexpected claim {doc['claim']!r}"]


def nonneg_outputs(doc: dict, label: str) -> list[str]:
    if any(v < 0 for m in doc["outputs"] for v in flat(grid(m))):
        return [f"{label}: an output has a negative entry"]
    return []


def char_poly(rows, coeffs, label: str) -> list[str]:
    """Program's ascending coefficients against sympy's charpoly."""
    x = sympy.Symbol("x")
    want = sympy.Matrix(rows).charpoly(x).all_coeffs()[::-1]
    want = [Fraction(int(sympy.fraction(c)[0]), int(sympy.fraction(c)[1]))
            for c in want]
    return [] if list(coeffs) == want else [f"{label}: char_poly differs from sympy"]


def powers(rows):
    out = [identity(len(rows))]
    for _ in range(len(rows)):
        out.append(mat_mul(out[-1], rows))
    return out


def power_algebra_dimension(rows, dim: int, label: str) -> list[str]:
    want = rank([flat(p) for p in powers(rows)])
    return [] if dim == want else [f"{label}: dimension {dim}, powers span {want}"]


def covering_verdict(rows, exists: bool, label: str) -> list[str]:
    """Is there c with sum_k c_k A^k >= 1 on the support of the algebra?

    By homogeneity that holds iff the largest t <= 1 with
    sum_k c_k A^k >= t on the support is positive.  (Asked as plain
    feasibility, with a constant objective, `lpmin` returns points that
    break the constraints, so the bounded form is used, and its optimum is
    substituted back before it is believed.)
    """
    ps = powers(rows)[:-1]
    n = len(rows)
    support = [(i, j) for i in range(n) for j in range(n)
               if any(p[i][j] for p in ps)]
    cs = sympy.symbols(f"c0:{len(ps)}")
    t = sympy.Symbol("t")
    forms = [sum(c * p[i][j] for c, p in zip(cs, ps)) for i, j in support]
    low, point = lpmin(-t, [f >= t for f in forms] + [t <= 1])
    best = -low
    point = {c: point.get(c, 0) for c in cs}
    if any(f.subs(point) < best for f in forms):
        return [f"{label}: linear program optimum breaks its constraints"]
    feasible = best > 0
    if feasible != exists:
        return [f"{label}: covering verdict {exists}, linear program says {feasible}"]
    return []
