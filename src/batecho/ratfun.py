"""Exact univariate polynomial and rational-function arithmetic over Z.

IntPoly stores coefficients lowest-degree first with no trailing zeros.
RatFun is kept in canonical form: numerator and denominator coprime over
Q, integer contents coprime, denominator leading coefficient positive.
Equality of canonical forms is therefore plain tuple equality.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DivisionByZero


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

    def __neg__(self):
        return IntPoly([-x for x in self.c])

    def __sub__(self, other):
        return self + (-other)

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
            raise DivisionByZero("polynomial division by zero")
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
IntPoly.t = IntPoly([0, 1])


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

    def __init__(self, num, den=IntPoly.one):
        if isinstance(num, int):
            num = IntPoly([num])
        if isinstance(den, int):
            den = IntPoly([den])
        if den.is_zero:
            raise DivisionByZero("rational function with zero denominator")
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
        num = IntPoly([x // cg for x in num.c])
        den = IntPoly([x // cg for x in den.c])
        self.num = num
        self.den = den

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        return RatFun(self.num * other.den + other.num * self.den,
                      self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFun(-self.num, self.den)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other.num.is_zero:
            raise DivisionByZero("division by the zero rational function")
        return RatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __eq__(self, other):
        if not isinstance(other, RatFun):
            other = _coerce(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFun({list(self.num.c)}, {list(self.den.c)})"

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    # -- analysis ---------------------------------------------------------
    def eval(self, x: Fraction) -> Fraction:
        d = self.den.eval(x)
        if d == 0:
            raise DivisionByZero(f"pole at {x}")
        return self.num.eval(x) / d

    def series(self, k_max: int) -> list[Fraction]:
        """Power-series coefficients around 0 up to degree k_max."""
        b0 = self.den.c[0] if self.den.c else 0
        if b0 == 0:
            raise DivisionByZero("series expansion at a pole of the denominator")
        a = self.num.c
        b = self.den.c
        out = []
        for k in range(k_max + 1):
            acc = Fraction(a[k] if k < len(a) else 0)
            for j in range(1, min(k, len(b) - 1) + 1):
                acc -= b[j] * out[k - j]
            out.append(acc / b0)
        return out

    def to_json_dict(self) -> dict:
        return {"num": [str(x) for x in self.num.c],
                "den": [str(x) for x in self.den.c]}


def _coerce(x) -> RatFun:
    if isinstance(x, RatFun):
        return x
    if isinstance(x, IntPoly):
        return RatFun(x)
    if isinstance(x, int):
        return RatFun(IntPoly([x]))
    if isinstance(x, Fraction):
        return RatFun(IntPoly([x.numerator]), IntPoly([x.denominator]))
    raise TypeError(f"cannot coerce {type(x)} to RatFun")


def find_dependency(funs: list[RatFun]):
    """Nonzero integer coefficients c with sum(c_i * funs_i) == 0, or None
    if the functions are linearly independent.  The vector is
    content-reduced with its first nonzero entry positive."""
    if len(funs) < 2:
        raise ValueError("need at least two functions")
    # clear denominators: g_i = num_i * prod_{j != i} den_j
    cleared = []
    for i, f in enumerate(funs):
        g = f.num
        for j, other in enumerate(funs):
            if j != i:
                g = g * other.den
        cleared.append(g)
    deg = max((g.degree for g in cleared), default=-1)
    rows = deg + 1
    cols = len(cleared)
    # solve A c = 0 where A[r][i] = coeff_r(g_i)
    a = [[Fraction(cleared[i].c[r]) if r <= cleared[i].degree else Fraction(0)
          for i in range(cols)] for r in range(rows)]
    pivots = []
    r = 0
    for col in range(cols):
        piv = next((i for i in range(r, rows) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][col]
        a[r] = [x / inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
        if r == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    if not free:
        return None
    fc = free[0]
    vec = [Fraction(0)] * cols
    vec[fc] = Fraction(1)
    for ri, col in enumerate(pivots):
        vec[col] = -a[ri][fc]
    den = 1
    for x in vec:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    ints = [x // g for x in ints]
    first = next(x for x in ints if x != 0)
    if first < 0:
        ints = [-x for x in ints]
    return tuple(ints)
