from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from batecho.ratfun import IntPoly, RatFun

from det_oracle import poly_det_bareiss
from exact_oracle import find_dependency, power_series
from field_oracle import Rat, T, derivative, poly_eval, poly_gcd, rat_eval, sub

coeffs = st.lists(st.integers(-9, 9), min_size=0, max_size=5)
polys = coeffs.map(IntPoly)


def test_intpoly_trims_trailing_zeros():
    assert IntPoly([1, 2, 0, 0]).c == (1, 2)
    assert IntPoly([0, 0]).is_zero


def test_intpoly_arith():
    p = (T + IntPoly.one) * sub(T, IntPoly.one)
    assert p == IntPoly([-1, 0, 1])
    assert poly_eval(p, Fraction(3)) == 8


def test_exact_div():
    p = IntPoly([-1, 0, 1])
    assert p.exact_div(IntPoly([1, 1])) == IntPoly([-1, 1])
    with pytest.raises(ArithmeticError):
        p.exact_div(IntPoly([0, 0, 1]))


def test_derivative():
    assert derivative(IntPoly([5, 3, 0, 2])) == IntPoly([3, 0, 6])


@given(polys, polys, polys)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys, polys, st.fractions())
def test_eval_is_a_homomorphism(a, b, x):
    assert poly_eval(a * b, x) == poly_eval(a, x) * poly_eval(b, x)
    assert poly_eval(a + b, x) == poly_eval(a, x) + poly_eval(b, x)
    assert poly_eval(sub(a, b), x) == poly_eval(a, x) - poly_eval(b, x)


def test_ratfun_canonical_form():
    # RatFun takes a coprime pair and removes the common content and the
    # sign; Rat divides out the common factors first
    assert RatFun(IntPoly([-2, -4]), IntPoly([-6, 0, -2])) == RatFun(
        IntPoly([1, 2]), IntPoly([3, 0, 1]))
    r = Rat(IntPoly([-2, 0, 2]), IntPoly([-2, 2]))
    assert (r.num, r.den) == (IntPoly([1, 1]), IntPoly([1]))


def test_poly_gcd_is_the_primitive_common_factor():
    x_plus_1, x_minus_1 = IntPoly([1, 1]), IntPoly([-1, 1])
    assert poly_gcd(x_plus_1 * x_minus_1 * 6, x_plus_1 * IntPoly([2, 4])) == x_plus_1
    assert poly_gcd(x_plus_1 * -3, IntPoly.zero) == x_plus_1
    assert poly_gcd(x_minus_1, IntPoly([2, 1])) == IntPoly.one


def test_ratfun_zero_denominator_rejected():
    from batecho.errors import DomainError
    with pytest.raises(DomainError, match="^rational function with zero denominator$"):
        RatFun(IntPoly.one, IntPoly.zero)


def test_ratfun_equality_is_canonical_pair_equality():
    r = RatFun(IntPoly([2, 4]), IntPoly([6, 0, 2]))
    assert r == RatFun(IntPoly([1, 2]), IntPoly([3, 0, 1]))
    assert hash(r) == hash(RatFun(IntPoly([-1, -2]), IntPoly([-3, 0, -1])))
    assert r != RatFun(IntPoly([1, 2]), IntPoly([3, 1]))
    assert r != IntPoly([1, 2]) and r != 1


def test_ratfun_arith_and_eval():
    x = Rat(T, IntPoly.one)
    r = (x + 1) / (x - 1)
    two = Fraction(2)
    assert rat_eval(r, two) == 3
    assert rat_eval(r * r, two) == 9
    assert (r - r).is_zero
    assert (2 - x) * Fraction(1, 2) == 1 - x / 2
    assert (1 / r) * r == Rat(IntPoly.one, IntPoly.one)


def test_series_matches_geometric():
    # 1/(1-t) = 1 + t + t^2 + ...
    r = RatFun(IntPoly.one, IntPoly([1, -1]))
    assert power_series(r, 5) == [Fraction(1)] * 6


@given(polys.filter(lambda p: not p.is_zero and p.c[0] != 0), polys)
def test_series_inverts_multiplication(den, num):
    """The series of num/den re-multiplied by den gives back num."""
    k = 8
    s = power_series(RatFun(num, den), k)
    back = [sum(Fraction(den.c[j]) * s[i - j]
                for j in range(min(i, den.degree) + 1))
            for i in range(k + 1)]
    expect = list(num.c) + [0] * (k + 1 - len(num.c))
    assert back == [Fraction(x) for x in expect[:k + 1]]


# --- determinants -----------------------------------------------------------


def _det_fraction_gauss(rows, x):
    """Oracle: evaluate the matrix at x and run plain fraction Gaussian
    elimination, fully independent of the Bareiss code path."""
    m = [[poly_eval(p, x) for p in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = m[col][col]
        for i in range(col + 1, n):
            f = m[i][col] / inv
            m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return det


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.lists(st.integers(-4, 4), min_size=0, max_size=2)
                                .map(IntPoly), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_bareiss_determinant_against_gauss(rows):
    det = poly_det_bareiss(rows)
    for x in (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3)):
        assert poly_eval(det, x) == _det_fraction_gauss(rows, x)


def test_bareiss_known_value():
    minus_t = IntPoly([0, -1])
    rows = [[IntPoly([2]), minus_t], [minus_t, IntPoly([2])]]
    assert poly_det_bareiss(rows) == IntPoly([4, 0, -1])


# --- dependencies ------------------------------------------------------------


def test_find_dependency_simple():
    x = Rat(T, IntPoly.one)
    fns = [x + 1, x, RatFun(IntPoly.one, IntPoly.one)]   # (x+1) - x - 1 = 0
    dep = find_dependency(fns)
    assert dep == (1, -1, -1)


def test_find_dependency_none_for_independent():
    x = Rat(T, IntPoly.one)
    assert find_dependency([x, x * x]) is None


def test_find_dependency_clears_denominators():
    x = Rat(T, IntPoly.one)
    one = Rat(IntPoly.one, IntPoly.one)
    fns = [one / (x + 1), x / (x + 1), one]
    dep = find_dependency(fns)
    assert dep is not None
    a, b, c = dep
    combo = fns[0] * a + fns[1] * b + fns[2] * c
    assert combo.num.is_zero
