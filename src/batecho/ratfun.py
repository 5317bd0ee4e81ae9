"""Exact univariate integer polynomials, and rational functions as a
canonical pair of them.

IntPoly stores coefficients lowest-degree first with no trailing zeros,
with the scalar multiple the exact engine needs; the ring operations and
exact division live with the test oracles that use them.  RatFun
is a numerator and denominator in canonical form: coprime over Q,
integer contents coprime, denominator leading coefficient positive.
Equality of canonical forms is therefore plain tuple equality.  RatFun
does no arithmetic: the library reads every rational function off a
walk, as a pair that is coprime by construction, so the constructor
takes a coprime pair and divides out only the common content and the
sign, with no polynomial gcd.  The return generating function f comes
from the minimal recurrence Berlekamp-Massey finds, and a common factor
of its numerator and denominator would give a shorter one; a tree's h
is d(r) D(sqrt x) / ((1 - x) N(sqrt x)) with f = N/D, N and D even and
coprime, so a common root of the two would be a common root +-sqrt x of
N and D.  The tests check both against a gcd over Q
(`tests/field_oracle.py`, which also holds evaluation, derivatives and
the field operations).
"""
from __future__ import annotations

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

    # -- arithmetic ------------------------------------------------------
    def __mul__(self, other):
        """The multiple by an int scalar; `lazy_series` doubles with it."""
        if not isinstance(other, int):
            return NotImplemented
        return IntPoly([other * x for x in self.c])

    __rmul__ = __mul__


IntPoly.zero = IntPoly()
IntPoly.one = IntPoly([1])


class RatFun:
    """Ratio of integer polynomials in canonical form, from a pair that
    is coprime over Q."""

    __slots__ = ("num", "den")

    def __init__(self, num: IntPoly, den: IntPoly):
        if den.is_zero:
            raise DomainError("rational function with zero denominator")
        if num.is_zero:
            self.num = IntPoly.zero
            self.den = IntPoly.one
            return
        cg = gcd(*num.c, *den.c)
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

    def to_json_dict(self) -> dict:
        return {"num": [str(x) for x in self.num.c],
                "den": [str(x) for x in self.den.c]}
