"""Field arithmetic on rational functions, for the oracles and tests.

`src/` reads every rational function off a walk as a coprime pair, so
its RatFun is only a canonical pair and divides out no common factor.
The tests build rational functions by hand: `poly_gcd` is the gcd over Q
that `coprime` divides out of a pair, `Rat` is a RatFun with the field
operations, each result made coprime and then canonical, and `sub`, `T`,
`poly_eval` and `derivative` are the IntPoly subtraction, indeterminate,
evaluation and derivative no route in `src/` needs.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from batecho.errors import DomainError
from batecho.ratfun import IntPoly, RatFun

T = IntPoly([0, 1])


def sub(a: IntPoly, b: IntPoly) -> IntPoly:
    return a + IntPoly([-x for x in b.c])


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
    return num.exact_div(g), den.exact_div(g)


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
        return Rat(self.num * other.den + other.num * self.den,
                   self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return Rat(IntPoly([-x for x in self.num.c]), self.den)

    def __sub__(self, other):
        return self + (-coerce(other))

    def __rsub__(self, other):
        return coerce(other) + (-self)

    def __mul__(self, other):
        other = coerce(other)
        return Rat(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = coerce(other)
        if other.num.is_zero:
            raise DomainError("division by the zero rational function")
        return Rat(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return coerce(other) / self

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero
