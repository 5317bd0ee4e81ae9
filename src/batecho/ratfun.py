"""Exact univariate integer polynomials, and rational functions as a
canonical pair of them.

IntPoly stores coefficients lowest-degree first with no trailing zeros,
with the ring operations the exact engine expands series with.  RatFun
is a numerator and denominator in canonical form: coprime over Q,
integer contents coprime, denominator leading coefficient positive.
Equality of canonical forms is therefore plain tuple equality.  RatFun
does no arithmetic: the library reads every rational function off a
walk.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DomainError


class IntPoly:
    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.c = tuple(int(x) for x in c)

    # -- basics ---------------------------------------------------------
    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.c) - 1

    @property
    def is_zero(self) -> bool:
        return not self.c

    @property
    def lead(self) -> int:
        return self.c[-1] if self.c else 0

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __repr__(self):
        return f"IntPoly({list(self.c)})"

    # -- ring operations -------------------------------------------------
    def __add__(self, other):
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return IntPoly(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([other * x for x in self.c])
        if self.is_zero or other.is_zero:
            return IntPoly()
        out = [0] * (len(self.c) + len(other.c) - 1)
        for i, x in enumerate(self.c):
            if x:
                for j, y in enumerate(other.c):
                    out[i + j] += x * y
        return IntPoly(out)

    __rmul__ = __mul__

    def exact_div(self, other: "IntPoly") -> "IntPoly":
        """Exact polynomial division; raises if the quotient is not an
        integer polynomial (used to divide out a primitive gcd, where
        exactness is guaranteed)."""
        if other.is_zero:
            raise DomainError("polynomial division by zero")
        if self.is_zero:
            return IntPoly()
        rem = list(self.c)
        dn, dd = self.degree, other.degree
        if dn < dd:
            raise ArithmeticError("non-exact polynomial division")
        out = [0] * (dn - dd + 1)
        lead = other.lead
        for k in range(dn - dd, -1, -1):
            q, r = divmod(rem[dd + k], lead)
            if r:
                raise ArithmeticError("non-exact polynomial division")
            out[k] = q
            if q:
                for j, y in enumerate(other.c):
                    rem[j + k] -= q * y
        if any(rem[:dd]):
            raise ArithmeticError("non-exact polynomial division")
        return IntPoly(out)

    # -- calculus / evaluation --------------------------------------------
    def eval(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for coeff in reversed(self.c):
            acc = acc * x + coeff
        return acc

    def derivative(self) -> "IntPoly":
        return IntPoly([i * x for i, x in enumerate(self.c)][1:])

    # -- content / gcd -----------------------------------------------------
    def content(self) -> int:
        g = 0
        for x in self.c:
            g = gcd(g, abs(x))
        return g

    def primitive(self) -> "IntPoly":
        """Divide out the content; leading coefficient made positive."""
        if self.is_zero:
            return self
        g = self.content()
        if self.lead < 0:
            g = -g
        return IntPoly([x // g for x in self.c])


IntPoly.zero = IntPoly()
IntPoly.one = IntPoly([1])


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd over Q, returned as a primitive integer polynomial
    with positive leading coefficient."""
    if a.is_zero:
        return b.primitive()
    if b.is_zero:
        return a.primitive()
    fa = [Fraction(x) for x in a.c]
    fb = [Fraction(x) for x in b.c]
    while fb:
        # fa mod fb over Q
        rem = list(fa)
        while len(rem) >= len(fb):
            q = rem[-1] / fb[-1]
            k = len(rem) - len(fb)
            for j, y in enumerate(fb):
                rem[j + k] -= q * y
            rem.pop()
            while rem and rem[-1] == 0:
                rem.pop()
        fa, fb = fb, rem
    # clear denominators, take primitive part
    den = 1
    for x in fa:
        den = den * x.denominator // gcd(den, x.denominator)
    return IntPoly([int(x * den) for x in fa]).primitive()


class RatFun:
    """Ratio of integer polynomials in canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, num: IntPoly, den: IntPoly):
        if den.is_zero:
            raise DomainError("rational function with zero denominator")
        if num.is_zero:
            self.num = IntPoly.zero
            self.den = IntPoly.one
            return
        g = poly_gcd(num, den)
        num = num.exact_div(g)
        den = den.exact_div(g)
        cg = gcd(num.content(), den.content())
        if den.lead < 0:
            cg = -cg
        self.num = IntPoly([x // cg for x in num.c])
        self.den = IntPoly([x // cg for x in den.c])

    def __eq__(self, other):
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFun({list(self.num.c)}, {list(self.den.c)})"

    def eval(self, x: Fraction) -> Fraction:
        d = self.den.eval(x)
        if d == 0:
            raise DomainError(f"pole at {x}")
        return self.num.eval(x) / d

    def to_json_dict(self) -> dict:
        return {"num": [str(x) for x in self.num.c],
                "den": [str(x) for x in self.den.c]}
