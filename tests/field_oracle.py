"""Field arithmetic on rational functions, for the oracles and tests.

`src/` reads every rational function off a walk, so its RatFun is only a
canonical pair.  The tests build rational functions by hand: `Rat` is a
RatFun with the field operations, each result put back in canonical form
by RatFun's constructor, and `sub` and `T` are the IntPoly subtraction
and indeterminate no route in `src/` needs.
"""
from __future__ import annotations

from fractions import Fraction

from batecho.errors import DomainError
from batecho.ratfun import IntPoly, RatFun

T = IntPoly([0, 1])


def sub(a: IntPoly, b: IntPoly) -> IntPoly:
    return a + IntPoly([-x for x in b.c])


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
    """A canonical RatFun with +, -, * and /, mixing freely with RatFun,
    IntPoly, int and Fraction operands."""

    __slots__ = ()

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
