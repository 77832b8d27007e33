"""Exact univariate polynomial arithmetic over the rationals.

A ``Poly`` is stored in one canonical integer form, as a ``Mat`` is: a
denominator ``den > 0`` and a tuple ``num`` of integer coefficients,
ascending by degree with no trailing zeros, with gcd(den, every entry) = 1,
so the polynomial is num / den and equal polynomials have equal fields.
The zero polynomial has ``num == ()`` and ``den == 1``.  Sums, products,
powers, derivatives and ``monic`` run on the integers and divide out one
gcd at the end; ``divmod`` pseudo-divides by the divisor's leading
numerator (Knuth, Algorithm R) and scales back once; ``poly_gcd`` runs the
primitive polynomial remainder sequence (Collins 1967), dividing each
pseudo-remainder by its content.  A Fraction is built only where a
caller passes one in or reads one out: ``p.coeffs`` is a read-only
Fraction view built on first use, and ``leading``, ``p(x)`` and the
rational roots are Fractions.  Everything is immutable and pure, so values
can be shared freely between threads.

The writer of a wire rational lives here, below ``matrices``, whose
matrix writer uses it (polynomials themselves have no wire form):
``wire_rational`` writes the canonical string ``str(Fraction)`` writes
from an integer over a denominator.  Wire strings are read by the
verifier's matrix reader ``verify._grid``, which ``matrices`` binds.
Coefficients, points and scalar factors are ints or Fractions (``Poly``
parses strings too); a float raises TypeError.

Real-root counts and rational roots share one integer Sturm chain and one
sign-variation counter at dyadic points; rational roots (polynomial in the
coefficients' bit lengths) then bisect each isolated root on the sign of
the squarefree part alone, down to width 1/L for its leading coefficient
L.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from math import gcd, lcm
from operator import add, sub
from typing import Iterable, Sequence


class Poly:
    """The univariate polynomial num / den over Q, coefficients ascending
    by degree, in canonical form: den > 0, no trailing zero in num and
    gcd(den, every entry of num) = 1.  `Poly(coeffs)` takes Fraction, int
    or string coefficients; `Poly()` is the zero polynomial."""

    den: int
    num: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int | str | Fraction] = ()):
        cs = [_exact(c, parse=True) for c in coeffs]
        # The lcm of the reduced denominators leaves no common factor with
        # the scaled numerators, so the result is canonical.
        den = lcm(*[c.denominator for c in cs])
        num = [c.numerator * (den // c.denominator) for c in cs]
        while num and not num[-1]:
            num.pop()
        vars(self).update(den=den if num else 1, num=tuple(num))

    @staticmethod
    def of(*coeffs: int | str | Fraction) -> Poly:
        return Poly(coeffs)

    @staticmethod
    def from_coeffs(coeffs: Iterable[int | str | Fraction]) -> Poly:
        return Poly(coeffs)

    @staticmethod
    def from_ints(den: int, num: Iterable[int]) -> Poly:
        """The polynomial num / den for integer coefficients (ascending)
        and a nonzero integer denominator, brought to canonical form."""
        if not den:
            raise ZeroDivisionError("zero denominator")
        return _normal(den, list(num))

    def __setattr__(self, *args):
        raise AttributeError("Poly is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.den, self.num))

    def __repr__(self) -> str:
        return f"Poly({self.coeffs!r})"

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, ascending, built on first use."""
        d = self.den
        return tuple(Fraction(v, d) for v in self.num)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.num) - 1

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def leading(self) -> Fraction:
        if not self.num:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.num[-1], self.den)

    def _merge(self, other: Poly, op) -> Poly:
        d = lcm(self.den, other.den)
        fa, fb = d // self.den, d // other.den
        return _normal(d, [op(fa * x, fb * y) for x, y in
                           zip_longest(self.num, other.num, fillvalue=0)])

    def __add__(self, other: Poly) -> Poly:
        return self._merge(other, add)

    def __sub__(self, other: Poly) -> Poly:
        return self._merge(other, sub)

    def __neg__(self) -> Poly:
        return _poly(self.den, tuple(-v for v in self.num))

    def __mul__(self, other: Poly | int | Fraction) -> Poly:
        if isinstance(other, (int, Fraction)):
            return _scaled(self, other.numerator, other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.num, other.num
        if not a or not b:
            return P_ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b, i):
                    out[j] += ca * cb
        return _normal(self.den * other.den, out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> Poly:
        if e < 0:
            raise ValueError("negative power")
        out = P_ONE
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __call__(self, x: int | Fraction) -> Fraction:
        """p(x) for x = u / v: the integer sum of num_i u^i v^(k-i) over
        den v^k, where k is the degree."""
        u, v = _exact(x).as_integer_ratio()
        acc, scale = 0, 1
        for c in reversed(self.num):
            acc = acc * u + c * scale
            scale *= v
        # scale is now v^(k+1)
        return Fraction(acc * v, self.den * scale)

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return P_ZERO, self
        # lead^e a = Q b + R over the integers, with a = den_a self and
        # b = den_b other, so self = (den_b Q / s) other + R / s for
        # s = lead^e den_a.
        quo, rem = _pseudo_divmod(self.num, other.num)
        s = other.num[-1] ** (len(self.num) - len(other.num) + 1) * self.den
        return (_normal(s, [other.den * v for v in quo]), _normal(s, rem))

    def __floordiv__(self, other: Poly) -> Poly:
        return divmod(self, other)[0]

    def __mod__(self, other: Poly) -> Poly:
        return divmod(self, other)[1]

    def derivative(self) -> Poly:
        return _normal(self.den, [i * c for i, c in enumerate(self.num)][1:])

    def monic(self) -> Poly:
        if self.is_zero:
            return self
        return _normal(self.num[-1], list(self.num))

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


def _exact(v, parse: bool = False) -> int | Fraction:
    """v, an int or a Fraction, or a str `Fraction` reads when parse is
    set; TypeError for anything else, so no float's binary value enters."""
    if isinstance(v, (int, Fraction)):
        return v
    if parse and isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"{v!r} is not an int or a Fraction")


def _poly(den: int, num: tuple[int, ...]) -> Poly:
    """A Poly from fields already in canonical form."""
    p = object.__new__(Poly)
    vars(p).update(den=den, num=num)
    return p


def _normal(den: int, num: list[int]) -> Poly:
    """The Poly num / den for any nonzero den: trailing zeros dropped, the
    common factor of den and the entries divided out, the sign moved into
    num."""
    while num and not num[-1]:
        num.pop()
    if not num:
        return P_ZERO
    g = gcd(den, *num)
    if den < 0:
        g = -g
    if g == 1:
        return _poly(den, tuple(num))
    return _poly(den // g, tuple(v // g for v in num))


def _scaled(p: Poly, m: int, d: int) -> Poly:
    """p times m / d, for integers m and d != 0."""
    if not m:
        return P_ZERO
    return _normal(p.den * d, [m * v for v in p.num])


def _pseudo_divmod(a: Sequence[int],
                   b: Sequence[int]) -> tuple[list[int], list[int]]:
    """Integer (Q, R) with lead^e a = Q b + R and len(R) < len(b), where
    lead = b[-1] and e = len(a) - len(b) + 1 >= 1 (Knuth, Algorithm R).
    R may have trailing zeros."""
    n = len(b) - 1
    lead = b[-1]
    rem = list(a)
    quo = [0] * (len(a) - n)
    for k in range(len(a) - n - 1, -1, -1):
        c = rem.pop()
        quo[k] = c * lead ** k
        if lead != 1:
            rem = [lead * v for v in rem]
        if c:
            for j, v in enumerate(b[:n], k):
                rem[j] -= c * v
    return quo, rem


def _primitive(num: Sequence[int]) -> list[int]:
    """num divided by the gcd of its entries (positive), trailing zeros
    dropped."""
    out = list(num)
    while out and not out[-1]:
        out.pop()
    g = gcd(*out)
    return out if g <= 1 else [v // g for v in out]


X = Poly.of(0, 1)
P_ONE = Poly.of(1)
P_ZERO = Poly()


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor; not defined when both are zero.

    Primitive remainder sequence on the numerators: each pseudo-remainder
    is divided by its content, which keeps the integers as small as the
    remainders' own primitive forms."""
    if p.is_zero and q.is_zero:
        raise ValueError("gcd of two zero polynomials")
    a, b = _primitive(p.num), _primitive(q.num)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_pseudo_divmod(a, b)[1])
    return _normal(a[-1], a)


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
    ints = [_primitive(p.num)]
    nxt = _primitive([i * c for i, c in enumerate(ints[0])][1:])
    while nxt:
        ints.append(nxt)
        a = ints[-2]
        # a mod nxt = R / lead^e, and the next member is -(a mod nxt) up
        # to a positive factor: -R unless lead^e < 0.
        rem = _pseudo_divmod(a, nxt)[1]
        if nxt[-1] > 0 or (len(a) - len(nxt)) % 2:
            rem = [-v for v in rem]
        nxt = _primitive(rem)
    if len(ints[-1]) > 1:
        raise ValueError("polynomial is not squarefree")
    # Fujiwara: |root| <= 2 max_k |c_{d-k} / c_d|^(1/k), each ratio bounded
    # through bit lengths by a power of two.
    top, d = ints[0], len(ints[0]) - 1
    lead_bits = abs(top[-1]).bit_length()
    b = max([1] + [1 - ((lead_bits - abs(c).bit_length() - 1) // (d - i))
                   for i, c in enumerate(top[:-1]) if c])
    return ints, b


def _at(coeffs: list[int], a: int, e: int) -> int:
    """The integer 2^(e deg) q(a / 2^e), whose sign is that of q at the
    dyadic point a / 2^e, for q with integer coefficients (ascending)."""
    acc, shift = 0, 0
    for c in reversed(coeffs):
        acc = acc * a + (c << shift)
        shift += e
    return acc


def _variations(chain: list[list[int]], a: int, e: int) -> int:
    """Sign variations of the chain at the dyadic point a / 2^e, zeros
    skipped."""
    signs = [v > 0 for v in (_at(q, a, e) for q in chain) if v]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def sturm_real_root_count(p: Poly) -> int:
    """Number of distinct real roots of a squarefree p, by sign variations
    of its Sturm chain at either end of the root bound."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    chain, b = _sturm_chain(p)
    return _variations(chain, -1 << b, 0) - _variations(chain, 1 << b, 0)


def root_multiplicity(p: Poly, r: Fraction) -> int:
    """Multiplicity of r as a root of a nonzero p (0 when it is not a
    root)."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    lin = Poly((-r, 1))
    mult = 0
    while True:
        p, rem = divmod(p, lin)
        if not rem.is_zero:
            return mult
        mult += 1


def rational_roots(p: Poly) -> list[tuple[Fraction, int]]:
    """All rational roots of p with multiplicities, sorted ascending: the
    rational roots of the squarefree part (`_squarefree_roots`), each
    with its multiplicity in p."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    _, roots = _squarefree_roots(p // poly_gcd(p, p.derivative()))
    return [(r, root_multiplicity(p, r)) for r in roots]


def _squarefree_roots(s: Poly) -> tuple[int, list[Fraction]]:
    """(number of real roots, rational roots ascending) of a squarefree s,
    both from one Sturm chain.

    The chain isolates each real root in a dyadic interval (lo, hi]; then
    the sign of s alone halves that interval, keeping (lo, mid] when s(mid)
    is 0 or has the sign of s(hi), until it is narrower than 1/L, where L
    is the leading coefficient of s's primitive integer form.  A rational
    root r = u/q of s has q | L (the rational root theorem), so L r is an
    integer, and a half-open interval narrower than 1/L holds at most one
    point k/L: the one with k = floor(hi L).  That point is the root
    exactly when s(k/L) = 0.
    """
    chain, b = _sturm_chain(s)
    top = chain[0]
    lead = abs(top[-1])
    roots: list[Fraction] = []
    # intervals (lo / 2^e, hi / 2^e] with their end variations; popping the
    # lower half first walks them in ascending order
    ends = (_variations(chain, -1 << b, 0), _variations(chain, 1 << b, 0))
    todo = [(-1 << b, 1 << b, 0, *ends)]
    while todo:
        lo, hi, e, vlo, vhi = todo.pop()
        if vlo == vhi:
            continue
        if vlo - vhi > 1:
            mid = lo + hi
            vmid = _variations(chain, mid, e + 1)
            todo.append((mid, 2 * hi, e + 1, vmid, vhi))
            todo.append((2 * lo, mid, e + 1, vlo, vmid))
            continue
        # s is squarefree, so between the root and hi it has the sign of
        # s(hi), and the opposite sign between lo and the root
        at_hi = _at(top, hi, e)
        sign_hi = (at_hi > 0) - (at_hi < 0)
        while (hi - lo) * lead >= 1 << e:
            mid = lo + hi
            e += 1
            at_mid = _at(top, mid, e)
            if not at_mid or (at_mid > 0) - (at_mid < 0) == sign_hi:
                lo, hi = 2 * lo, mid
            else:
                lo, hi = mid, 2 * hi
        k = (hi * lead) >> e
        if k << e > lo * lead:
            cand = Fraction(k, lead)
            if s(cand) == 0:
                roots.append(cand)
    return ends[0] - ends[1], roots


# -- the wire form of a rational -----------------------------------------------

def wire_rational(v: int, den: int) -> str:
    """v / den as `str(Fraction)` writes it: "p", or "p/q" in lowest terms."""
    g = gcd(v, den)
    return str(v // g) if g == den else f"{v // g}/{den // g}"

