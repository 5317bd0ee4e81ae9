"""Exact univariate integer polynomials, and rational functions as a
canonical pair of them.

IntPoly stores coefficients lowest-degree first with no trailing zeros,
with the ring operations the exact engine expands series with.  RatFun
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
        integer polynomial (used where a factor is known to divide)."""
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
