"""Exact univariate polynomial arithmetic over the rationals.

Coefficients are ascending-degree tuples of Fraction with no trailing
zeros; the zero polynomial has an empty coefficient tuple.  Everything is
immutable and pure, so values can be shared freely between threads.

Real-root counts and rational roots (by Sturm bisection, polynomial in the
coefficients' bit lengths) share one integer Sturm chain and one
sign-variation counter at dyadic points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


def _strip(coeffs: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    k = len(coeffs)
    while k > 0 and coeffs[k - 1] == 0:
        k -= 1
    return coeffs[:k]


@dataclass(frozen=True)
class Poly:
    """Univariate polynomial over Q, coefficients ascending by degree."""

    coeffs: tuple[Fraction, ...] = ()

    @staticmethod
    def of(*coeffs: int | str | Fraction) -> Poly:
        return Poly(_strip(tuple(Fraction(c) for c in coeffs)))

    @staticmethod
    def from_coeffs(coeffs: Iterable[int | str | Fraction]) -> Poly:
        return Poly(_strip(tuple(Fraction(c) for c in coeffs)))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: Poly) -> Poly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(_strip(tuple(out)))

    def __neg__(self) -> Poly:
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other: Poly | int | Fraction) -> Poly:
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return Poly()
            return Poly(tuple(c * a for a in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return Poly(_strip(tuple(out)))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> Poly:
        if e < 0:
            raise ValueError("negative power")
        out = Poly.of(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __call__(self, x: int | Fraction) -> Fraction:
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq, dr = other.degree, len(rem) - 1
        if dr < dq:
            return Poly(), self
        inv = ONE / other.leading
        quo = [ZERO] * (dr - dq + 1)
        for k in range(dr - dq, -1, -1):
            c = rem[k + dq] * inv
            quo[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return Poly(_strip(tuple(quo))), Poly(_strip(tuple(rem)))

    def __floordiv__(self, other: Poly) -> Poly:
        return divmod(self, other)[0]

    def __mod__(self, other: Poly) -> Poly:
        return divmod(self, other)[1]

    def derivative(self) -> Poly:
        return Poly(_strip(tuple(Fraction(i) * c for i, c in enumerate(self.coeffs))[1:]))

    def monic(self) -> Poly:
        if self.is_zero:
            return self
        return self * (ONE / self.leading)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                if i == 0:
                    parts.append(str(c))
                elif i == 1:
                    parts.append(f"{c}*x" if c != 1 else "x")
                else:
                    parts.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return " + ".join(parts)


X = Poly.of(0, 1)
P_ONE = Poly.of(1)
P_ZERO = Poly()


def poly_from_roots(roots: Iterable[int | Fraction]) -> Poly:
    """Monic polynomial with the given roots (with multiplicity)."""
    out = P_ONE
    for r in roots:
        out = out * Poly.of(-Fraction(r), 1)
    return out


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor; not defined when both are zero."""
    if p.is_zero and q.is_zero:
        raise ValueError("gcd of two zero polynomials")
    a, b = p, q
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def poly_xgcd(p: Poly, q: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended gcd: returns (g, u, v) monic g with u*p + v*q = g."""
    if p.is_zero and q.is_zero:
        raise ValueError("gcd of two zero polynomials")
    r0, r1 = p, q
    u0, u1 = P_ONE, P_ZERO
    v0, v1 = P_ZERO, P_ONE
    while not r1.is_zero:
        qq, rr = divmod(r0, r1)
        r0, r1 = r1, rr
        u0, u1 = u1, u0 - qq * u1
        v0, v1 = v1, v0 - qq * v1
    lc = r0.leading
    inv = ONE / lc
    return r0 * inv, u0 * inv, v0 * inv


def squarefree_decomposition(p: Poly) -> list[Poly]:
    """Yun decomposition of a nonzero p: returns monic [a1, a2, ...] with
    p ~ prod a_i^i and each a_i squarefree, pairwise coprime."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    p = p.monic()
    if p.degree == 0:
        return []
    dp = p.derivative()
    a = poly_gcd(p, dp)
    b = p // a
    c = dp // a
    d = c - b.derivative()
    out: list[Poly] = []
    while b.degree > 0:
        g = poly_gcd(b, d) if not d.is_zero else b.monic()
        out.append(g)
        b = b // g
        c = d // g
        d = c - b.derivative()
    return out


def multiplicity_one_part(p: Poly) -> Poly:
    """Monic divisor of p whose roots are exactly the multiplicity-1 roots
    of p (over the complex numbers)."""
    dec = squarefree_decomposition(p)
    return dec[0] if dec else P_ONE


def _sturm_chain(p: Poly) -> tuple[list[list[int]], int]:
    """Sturm chain of a squarefree p, each member as a primitive integer
    coefficient list (ascending, same sign), and b >= 1 such that every
    real root of p lies in (-2^b, 2^b)."""
    chain = [p]
    nxt = p.derivative()
    while not nxt.is_zero:
        chain.append(nxt)
        nxt = -(chain[-2] % nxt)
    if chain[-1].degree > 0:
        raise ValueError("polynomial is not squarefree")
    ints = []
    for q in chain:
        den = math.lcm(*[c.denominator for c in q.coeffs])
        row = [c.numerator * (den // c.denominator) for c in q.coeffs]
        g = math.gcd(*row)
        ints.append([v // g for v in row])
    # Fujiwara: |root| <= 2 max_k |c_{d-k} / c_d|^(1/k), each ratio bounded
    # through bit lengths by a power of two.
    top, d = ints[0], len(ints[0]) - 1
    lead_bits = abs(top[-1]).bit_length()
    b = max([1] + [1 - ((lead_bits - abs(c).bit_length() - 1) // (d - i))
                   for i, c in enumerate(top[:-1]) if c])
    return ints, b


def _variations(chain: list[list[int]], a: int, e: int) -> int:
    """Sign variations of the chain at the dyadic point a / 2^e, zeros
    skipped; each member is evaluated as the integer 2^(e deg) q(a / 2^e)."""
    signs = []
    for coeffs in chain:
        acc, shift = 0, 0
        for c in reversed(coeffs):
            acc = acc * a + (c << shift)
            shift += e
        if acc:
            signs.append(acc > 0)
    return sum(x != y for x, y in zip(signs, signs[1:]))


def sturm_real_root_count(p: Poly) -> int:
    """Number of distinct real roots of a squarefree p, by sign variations
    of its Sturm chain at either end of the root bound."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    chain, b = _sturm_chain(p)
    return _variations(chain, -1 << b, 0) - _variations(chain, 1 << b, 0)


def poly_crt(pairs: Sequence[tuple[Poly, Poly]]) -> Poly:
    """Chinese remainder interpolation: the unique h with h = r_i (mod m_i)
    and deg h < sum deg m_i, for pairwise coprime moduli.

    Raises ValueError when two moduli share a factor or a residue is not
    reduced below its modulus.
    """
    if not pairs:
        raise ValueError("empty congruence system")
    for m, r in pairs:
        if m.is_zero:
            raise ValueError("zero modulus")
        if r.degree >= m.degree:
            raise ValueError("residue degree not below modulus degree")
    h, big = pairs[0][1], pairs[0][0]
    for m, r in pairs[1:]:
        g, u, _ = poly_xgcd(big, m)
        if g.degree != 0:
            raise ValueError("moduli are not coprime: spectra are not disjoint")
        if m.degree == 0:
            continue
        # h' = h + big * t with t = (r - h) * big^{-1} mod m
        t = ((r - h) * u) % m
        h = h + big * t
        big = big * m
        h = h % big
    return h


def root_multiplicity(p: Poly, r: Fraction) -> int:
    """Multiplicity of r as a root of p (0 when it is not a root)."""
    lin = Poly.of(-r, 1)
    mult = 0
    while True:
        p, rem = divmod(p, lin)
        if not rem.is_zero:
            return mult
        mult += 1


def rational_roots(p: Poly) -> list[tuple[Fraction, int]]:
    """All rational roots of p with multiplicities, sorted ascending.

    Sturm bisection of the squarefree part s: a rational root of s has a
    denominator dividing the leading coefficient L of s's primitive integer
    form, and two such fractions differ by at least 1/L^2.  So once a root
    is alone in a dyadic interval shorter than 1/L^2, the fraction with
    denominator <= L nearest the midpoint is the only candidate there.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    s = p // poly_gcd(p, p.derivative())
    chain, b = _sturm_chain(s)
    lead = abs(chain[0][-1])
    roots: list[tuple[Fraction, int]] = []
    # intervals (lo / 2^e, hi / 2^e] with their end variations; popping the
    # lower half first walks them in ascending order
    todo = [(-1 << b, 1 << b, 0, _variations(chain, -1 << b, 0),
             _variations(chain, 1 << b, 0))]
    while todo:
        lo, hi, e, vlo, vhi = todo.pop()
        if vlo == vhi:
            continue
        if vlo - vhi == 1 and (hi - lo) * lead * lead < 1 << e:
            cand = Fraction(lo + hi, 2 << e).limit_denominator(lead)
            if Fraction(lo, 1 << e) < cand <= Fraction(hi, 1 << e) \
                    and s(cand) == 0:
                roots.append((cand, root_multiplicity(p, cand)))
            continue
        mid = lo + hi
        vmid = _variations(chain, mid, e + 1)
        todo.append((mid, 2 * hi, e + 1, vmid, vhi))
        todo.append((2 * lo, mid, e + 1, vlo, vmid))
    return roots


def poly_to_json(p: Poly) -> list[str]:
    return [str(c) for c in p.coeffs]


def poly_from_json(coeffs: Iterable[str]) -> Poly:
    return Poly.from_coeffs(Fraction(c) for c in coeffs)
