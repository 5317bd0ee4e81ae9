"""Field arithmetic on rational functions, for the oracles and tests.

`src/` reads every rational function off a walk as a coprime pair, so
its RatFun is only a canonical pair and divides out no common factor.
The tests build rational functions by hand: `poly_gcd` is the gcd over Q
that `coprime` divides out of a pair, `Rat` is a RatFun with the field
operations, each result made coprime and then canonical, and `add`,
`sub`, `mul`, `exact_div`, `T`, `poly_eval` and `derivative` are the
IntPoly sum, difference, product, exact quotient, indeterminate,
evaluation and derivative no route in `src/` needs.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from batecho.errors import DomainError
from batecho.ratfun import IntPoly, RatFun

T = IntPoly([0, 1])


def add(a: IntPoly, b: IntPoly) -> IntPoly:
    a, b = (a.c, b.c) if len(a.c) >= len(b.c) else (b.c, a.c)
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return IntPoly(out)


def sub(a: IntPoly, b: IntPoly) -> IntPoly:
    return add(a, IntPoly([-x for x in b.c]))


def mul(a: IntPoly, b: IntPoly) -> IntPoly:
    if a.is_zero or b.is_zero:
        return IntPoly.zero
    out = [0] * (len(a.c) + len(b.c) - 1)
    for i, x in enumerate(a.c):
        if x:
            for j, y in enumerate(b.c):
                out[i + j] += x * y
    return IntPoly(out)


def exact_div(a: IntPoly, b: IntPoly) -> IntPoly:
    """The quotient a / b; raises if it is not an integer polynomial
    (used where a factor is known to divide)."""
    if b.is_zero:
        raise DomainError("polynomial division by zero")
    if a.is_zero:
        return IntPoly()
    rem = list(a.c)
    dn, dd = a.degree, b.degree
    if dn < dd:
        raise ArithmeticError("non-exact polynomial division")
    out = [0] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        q, r = divmod(rem[dd + k], b.lead)
        if r:
            raise ArithmeticError("non-exact polynomial division")
        out[k] = q
        if q:
            for j, y in enumerate(b.c):
                rem[j + k] -= q * y
    if any(rem[:dd]):
        raise ArithmeticError("non-exact polynomial division")
    return IntPoly(out)


def poly_eval(p: IntPoly, x) -> Fraction:
    acc = Fraction(0)
    for coeff in reversed(p.c):
        acc = acc * x + coeff
    return acc


def derivative(p: IntPoly) -> IntPoly:
    return IntPoly([i * x for i, x in enumerate(p.c)][1:])


def primitive(p: IntPoly) -> IntPoly:
    """Divide out the content; leading coefficient made positive."""
    if p.is_zero:
        return p
    g = gcd(*p.c)
    if p.lead < 0:
        g = -g
    return IntPoly([x // g for x in p.c])


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd over Q, returned as a primitive integer polynomial
    with positive leading coefficient, by Euclid over Fractions."""
    if a.is_zero:
        return primitive(b)
    if b.is_zero:
        return primitive(a)
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
    return primitive(IntPoly([int(x * den) for x in fa]))


def coprime(num: IntPoly, den: IntPoly) -> tuple[IntPoly, IntPoly]:
    """num and den with their gcd over Q divided out."""
    if num.is_zero or den.is_zero:
        return num, den
    g = poly_gcd(num, den)
    return exact_div(num, g), exact_div(den, g)


def rat_eval(r: RatFun, x) -> Fraction:
    d = poly_eval(r.den, x)
    if d == 0:
        raise DomainError(f"pole at {x}")
    return poly_eval(r.num, x) / d


def coerce(x) -> Rat:
    if isinstance(x, Rat):
        return x
    if isinstance(x, RatFun):
        return Rat(x.num, x.den)
    if isinstance(x, IntPoly):
        return Rat(x, IntPoly.one)
    if isinstance(x, int):
        return Rat(IntPoly([x]), IntPoly.one)
    if isinstance(x, Fraction):
        return Rat(IntPoly([x.numerator]), IntPoly([x.denominator]))
    raise TypeError(f"cannot coerce {type(x)} to RatFun")


class Rat(RatFun):
    """A RatFun from any pair, made coprime first, with +, -, * and /,
    mixing freely with RatFun, IntPoly, int and Fraction operands."""

    __slots__ = ()

    def __init__(self, num: IntPoly, den: IntPoly):
        super().__init__(*coprime(num, den))

    def __add__(self, other):
        other = coerce(other)
        return Rat(add(mul(self.num, other.den), mul(other.num, self.den)),
                   mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return Rat(IntPoly([-x for x in self.num.c]), self.den)

    def __sub__(self, other):
        return self + (-coerce(other))

    def __rsub__(self, other):
        return coerce(other) + (-self)

    def __mul__(self, other):
        other = coerce(other)
        return Rat(mul(self.num, other.num), mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = coerce(other)
        if other.num.is_zero:
            raise DomainError("division by the zero rational function")
        return Rat(mul(self.num, other.den), mul(self.den, other.num))

    def __rtruediv__(self, other):
        return coerce(other) / self

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero
