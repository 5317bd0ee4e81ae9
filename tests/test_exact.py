"""Oracle checks for the exact engine.

The return-probability series has three independent routes here: brute
walk enumeration, the full-length integer walks of `exact_oracle` (the
plain series `transition_series`, the reference for the lazy and
first-return series the engine expands from the generating function,
and the full 2n-tick walk behind the generating function the engine
reads off a walk stopped at closure), and the determinant generating
function of `det_oracle`, which also checks that generating function.  The
stationary hitting time and the mean return time, both read off the
generating function, are checked against Gaussian elimination in
Fractions and Kac's formula, and the spectrum against numpy's
eigensolver.
These must all agree before anything statistical is trusted.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batecho import (
    build_family,
    first_return_series,
    hitting_from_stationary,
    lazy_series,
    nondegenerate_set,
    poles_to_eigenvalues,
    return_gen_fun,
    spectrum,
)
from batecho.errors import DomainError
from batecho.exact import (
    MAX_EXACT_K,
    MAX_EXACT_N,
    GenFun,
    _closed_walk,
    _lowest_terms,
    _scale_primes,
    _scaled_series,
)
from batecho.graphs import from_edge_list
from batecho.ratfun import IntPoly, RatFun

from conftest import FIXTURES, TREES, fixture_params, regular_params
from det_oracle import determinant_gen_fun
from field_oracle import Rat, derivative, poly_gcd, rat_eval, sub
from exact_oracle import (
    fractions,
    full_walk_first_returns,
    full_walk_gen_fun,
    full_walk_returns,
    mean_return_time,
    power_series,
    stationary_hitting_time,
    transition_series,
)


def _enumerate_returns(g, k_max):
    """Brute force: sum probabilities over every walk of length k."""
    probs = [Fraction(0)] * (k_max + 1)
    probs[0] = Fraction(1)

    def rec(v, k, p):
        if v == g.root:
            probs[k] += p
        if k == k_max:
            return
        share = p / g.degree(v)
        for u in g.adjacency[v]:
            rec(u, k + 1, share)

    # restart the accumulation cleanly: probs[0] double-counted by rec
    probs[0] = Fraction(0)
    rec(g.root, 0, Fraction(1))
    return probs


def _enumerate_first_returns(g, k_max):
    """Brute force s_k: walks that avoid the root strictly before k."""
    s = [Fraction(0)] * (k_max + 1)

    def rec(v, k, p):
        if k > 0 and v == g.root:
            s[k] += p
            return
        if k == k_max:
            return
        share = p / g.degree(v)
        for u in g.adjacency[v]:
            rec(u, k + 1, share)

    rec(g.root, 0, Fraction(1))
    return s


@pytest.mark.parametrize("name", ["k2", "path4", "triangle", "c4", "star3"])
def test_transition_series_against_enumeration(name):
    g = FIXTURES[name]
    k = 8
    assert transition_series(g, k) == _enumerate_returns(g, k)


@pytest.mark.parametrize("name", ["k2", "triangle", "c4", "star3"])
def test_first_return_series_against_enumeration(name):
    g = FIXTURES[name]
    k = 8
    table = first_return_series(g, return_gen_fun(g), k)
    assert fractions(table.s) == _enumerate_first_returns(g, k)


def _binomial_mixture(g, k_max):
    """Lazy return probabilities from the non-lazy series by the exact
    mixture P'_k = 2^-k sum_j C(k,j) P_j."""
    p = transition_series(g, k_max)
    return [sum(math.comb(k, j) * p[j] for j in range(k + 1)) / 2 ** k
            for k in range(k_max + 1)]


@pytest.mark.parametrize("g", fixture_params())
def test_lazy_series_two_routes_agree(g):
    k = 30
    mix = _binomial_mixture(g, k)
    direct = lazy_series(g, return_gen_fun(g), k)
    assert fractions(direct.p) == mix
    assert fractions(direct.q) == [pk - Fraction(1, g.n) for pk in mix]


def test_lazy_c4_q_closed_form():
    g = FIXTURES["c4"]
    t = lazy_series(g, return_gen_fun(g), 12)
    for k in range(1, 13):
        assert t.q[k] == (1, 2 ** (k + 1))


@pytest.mark.parametrize("g", fixture_params())
def test_genfun_series_equals_transition_series(g):
    k = 40
    f = return_gen_fun(g)
    assert power_series(f, k) == transition_series(g, k)


@pytest.mark.parametrize(
    "g", fixture_params() + [pytest.param(build_family("hypercube", 4), id="q4")])
def test_gen_fun_equals_determinant_formula(g):
    assert return_gen_fun(g) == determinant_gen_fun(g)


def test_gen_fun_recurrence_edge_cases():
    """The fixture set holds the cases Berlekamp-Massey meets at its
    edges: zero odd terms (bipartite graphs), n = 2, and a numerator of
    the same degree as the denominator (cycle:8)."""
    for name in TREES + ("c4", "c8", "q3"):
        g = FIXTURES[name]
        assert not any(transition_series(g, 2 * g.n)[1::2]), name
    assert FIXTURES["k2"].n == 2
    f = return_gen_fun(FIXTURES["c8"])
    assert f.num.degree == f.den.degree


@st.composite
def connected_graphs(draw, max_n=7):
    """A random spanning tree plus random extra edges; for about half the
    draws the extra edges join the tree's two colour classes only, so
    the graph stays bipartite."""
    n = draw(st.integers(2, max_n))
    parent = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    edges = {(u, v) for v, u in enumerate(parent, start=1)}
    side = [0]
    for u in parent:
        side.append(1 - side[u])
    bipartite = draw(st.booleans())
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
             if not bipartite or side[u] != side[v]]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
    return from_edge_list(sorted(edges), draw(st.integers(0, n - 1)))


@given(connected_graphs())
def test_gen_fun_equals_determinant_formula_on_random_graphs(g):
    assert return_gen_fun(g) == determinant_gen_fun(g)


@pytest.mark.parametrize("g", fixture_params())
def test_gen_fun_pair_is_coprime(g):
    """RatFun divides out no common factor, so f's pair must be coprime
    as read off the walk: the recurrence behind it is minimal."""
    f = return_gen_fun(g)
    assert poly_gcd(f.num, f.den) == IntPoly.one


@settings(max_examples=400)
@given(connected_graphs(max_n=14))
def test_gen_fun_pair_is_coprime_on_random_graphs(g):
    f = return_gen_fun(g)
    assert poly_gcd(f.num, f.den) == IntPoly.one


@given(connected_graphs(max_n=14))
def test_walk_stopped_at_closure_gives_the_full_walks_gen_fun(g):
    assert return_gen_fun(g) == full_walk_gen_fun(g)


def test_path_walk_runs_all_2n_ticks_to_the_full_walks_gen_fun():
    """The end of a path sees all n eigenvalues, so its Krylov space
    closes only at the 2n-tick limit."""
    g = build_family("path", 64)
    assert len(_closed_walk(g)[0]) == 2 * g.n + 1
    assert return_gen_fun(g) == full_walk_gen_fun(g)


@pytest.mark.parametrize("family,size,ticks", [
    ("hypercube", 6, 14), ("complete", 64, 4), ("cycle", 64, 66), ("hypercube", 5, 12)])
def test_walk_stops_when_the_root_krylov_space_closes(family, size, ticks):
    """The walk stops after twice as many ticks as the root sees
    distinct eigenvalues, the length of f's recurrence, well before 2n."""
    g = build_family(family, size)
    a, _, length, _ = _closed_walk(g)
    assert len(a) - 1 == ticks == 2 * length < 2 * g.n


@given(connected_graphs(max_n=12))
def test_series_from_gen_fun_equal_full_walks(g):
    """The lazy, first-return and survival series, all expanded from f,
    equal the full lazy walk and the walk with the root absorbing at
    every term up to 6n, including the two past the 2n ticks that fix f."""
    f = return_gen_fun(g)
    for k_max in (2 * g.n, 2 * g.n + 1, 6 * g.n):
        a, scale = full_walk_returns(g, k_max, True)
        assert fractions(lazy_series(g, f, k_max).p) == [Fraction(x, scale ** k)
                                                         for k, x in enumerate(a)]
        s = full_walk_first_returns(g, k_max)
        table = first_return_series(g, f, k_max)
        assert fractions(table.s) == s
        assert fractions(table.z) == [1 - sum(s[:k + 1]) for k in range(k_max + 1)]


@given(st.lists(st.integers(-9, 9), max_size=5), st.lists(st.integers(-9, 9), max_size=5),
       st.sampled_from([1, -1]), st.integers(1, 6))
def test_scaled_series_equals_fraction_expansion(p, q, q0, scale):
    """num/den = P(t/s) / Q(t/s) with Q(0) = +-1 has integer s^k c_k, and
    its expansion equals the Fraction recurrence's."""
    q = [q0] + q
    m = max(len(p), len(q)) - 1
    num = IntPoly([x * scale ** (m - k) for k, x in enumerate(p)])
    den = IntPoly([x * scale ** (m - k) for k, x in enumerate(q)])
    terms = _scaled_series(num, den, scale, 12)
    assert [Fraction(a, scale ** k) for k, a in enumerate(terms)] == power_series(
        RatFun(num, den), 12)


@given(st.integers(-10 ** 6, 10 ** 6), st.tuples(*[st.integers(0, 130)] * 4),
       st.sampled_from([2, 4, 12, 30, 126]), st.integers(0, 60))
def test_lowest_terms_equal_fraction(base, exps, scale, k):
    """a / S^k reduced by the primes of S is Fraction's pair, den > 0 and
    coprime, for a = 0, negative a, and a carrying fewer or more factors
    of a prime than S^k (126 = 2 3^2 7 caps 3 at 2k), past the few odd
    divisions after which a gcd finishes the term."""
    a = base * math.prod(p ** x for p, x in zip((2, 3, 5, 7), exps))
    num, den = _lowest_terms([0] * k + [a], _scale_primes([scale]))[k]
    x = Fraction(a, scale ** k)
    assert (num, den) == (x.numerator, x.denominator)
    assert den > 0 and math.gcd(num, den) == 1


@given(st.lists(st.integers(1, 200), min_size=1, max_size=12))
def test_scale_primes_factor_the_lcm_of_the_degrees(degrees):
    primes = _scale_primes(degrees)
    assert math.prod(p ** e for p, e in primes) == math.lcm(*degrees)
    assert all(e > 0 and all(p % q for q in range(2, p)) for p, e in primes)


def test_gen_fun_must_equal_one_at_zero():
    """f(0) = N(0) / D(0) read off the canonical pair's constant terms."""
    assert GenFun(IntPoly([-3]), IntPoly([-3, 3])) == RatFun(IntPoly([1]), IntPoly([1, -1]))
    for num, den in (([2], [1, -1]), ([0, 1], [1, -1]), ([1], [0, 1]), ([], [1])):
        with pytest.raises(DomainError, match="^generating function must equal 1 at t=0$"):
            GenFun(IntPoly(num), IntPoly(den))


def test_scaled_series_refuses_a_non_integer_term():
    """1/(2 - t) = sum t^k / 2^(k+1) has no integer 2^k c_k."""
    with pytest.raises(ArithmeticError):
        _scaled_series(IntPoly.one, IntPoly([2, -1]), 2, 3)


@pytest.mark.parametrize("series", [lazy_series, first_return_series])
def test_series_refuse_a_negative_k_max(series):
    g = FIXTURES["c4"]
    with pytest.raises(DomainError, match="^k_max must be non-negative, got -3$"):
        series(g, return_gen_fun(g), -3)


def test_survival_and_first_return_are_consistent():
    g = FIXTURES["c4"]
    t = first_return_series(g, return_gen_fun(g), 20)
    s, z = fractions(t.s), fractions(t.z)
    assert z[0] == 1
    assert all(z[k] == 1 - sum(s[1:k + 1]) for k in range(21))
    assert all(0 <= x <= 1 for x in s[1:])


# --- spectrum ----------------------------------------------------------------


@pytest.mark.parametrize("g", fixture_params())
def test_jacobi_matches_numpy(g):
    sp = spectrum(g)
    degs = np.array([g.degree(i) for i in range(g.n)], float)
    mat = np.zeros((g.n, g.n))
    for u in range(g.n):
        for v in g.adjacency[u]:
            mat[u, v] = 1.0 / math.sqrt(degs[u] * degs[v])
    ref = np.sort(np.linalg.eigvalsh(mat))[::-1]
    assert np.max(np.abs(sp.eigenvalues - ref)) < 1e-9


@pytest.mark.parametrize("g", fixture_params())
def test_root_weights_reproduce_return_probabilities(g):
    """P_k(r,r) = sum_i w_i lambda_i^k at the root, any graph."""
    sp = spectrum(g)
    p = transition_series(g, 12)
    for k in range(13):
        approx = float(np.sum(sp.root_weights * sp.eigenvalues ** k))
        assert abs(approx - float(p[k])) < 1e-9


def test_weights_sum_to_one():
    for g in FIXTURES.values():
        assert abs(float(np.sum(spectrum(g).root_weights)) - 1.0) < 1e-10


def test_transitive_trace_formula():
    """On a node-transitive graph every root weight is 1/n, so
    n * P_k(r,r) equals the k-th spectral moment."""
    g = FIXTURES["q3"]
    sp = spectrum(g)
    p = transition_series(g, 10)
    for k in range(11):
        assert abs(g.n * float(p[k]) - float(np.sum(sp.eigenvalues ** k))) < 1e-8


def test_k4_spectrum():
    sp = spectrum(FIXTURES["k4"])
    assert np.allclose(sp.eigenvalues, [1, -1 / 3, -1 / 3, -1 / 3])


def test_lazy_c8_spectrum_and_gap():
    g = FIXTURES["c8"]
    lam = spectrum(g).eigenvalues
    lazy = np.sort((1 + lam) / 2)[::-1]
    expect = [1.0, 0.8535533906, 0.8535533906, 0.5, 0.5,
              0.1464466094, 0.1464466094, 0.0]
    assert np.allclose(lazy, expect)


# --- nondegeneracy cross-oracle ---------------------------------------------


@pytest.mark.parametrize("g", fixture_params())
def test_poles_agree_with_root_weight_clusters(g):
    pole_eigs, zero_flag = poles_to_eigenvalues(return_gen_fun(g))
    clusters = nondegenerate_set(spectrum(g))
    nd = [v for v, w, ok in clusters if ok]
    nd_nonzero = [v for v in nd if abs(v) > 1e-7]
    assert len(pole_eigs) == len(nd_nonzero)
    for a, b in zip(sorted(pole_eigs), sorted(nd_nonzero)):
        assert abs(a - b) < 1e-7
    zero_is_nd = any(abs(v) <= 1e-7 for v in nd)
    assert zero_flag == zero_is_nd


def test_forged_pair_same_poles_different_multiplicities(forged_pair):
    left, right = forged_pair
    pl, zl = poles_to_eigenvalues(return_gen_fun(left))
    pr, zr = poles_to_eigenvalues(return_gen_fun(right))
    assert np.allclose(pl, pr) and zl == zr
    zeros_l = np.sum(np.abs(spectrum(left).eigenvalues) < 1e-9)
    zeros_r = np.sum(np.abs(spectrum(right).eigenvalues) < 1e-9)
    assert {int(zeros_l), int(zeros_r)} == {5, 3}


# --- lazy-chain facts --------------------------------------------------------


@pytest.mark.parametrize("g", regular_params(min_n=4))
def test_q_decrease_bounded(g):
    """q_{k+1} >= q_k / 3 for the lazy chain on regular graphs, n >= 4.

    Regularity matters: q_k = P'_k - 1/n only decays to zero when 1/n is
    the root's stationary mass, i.e. on regular graphs.
    """
    q = fractions(lazy_series(g, return_gen_fun(g), 60).q)
    for k in range(60):
        assert q[k + 1] >= q[k] / 3


@pytest.mark.parametrize("g", fixture_params())
def test_lazy_lambda2_at_least_one_third(g):
    if g.n < 4:
        pytest.skip("bound stated for n >= 4")
    lam = spectrum(g).eigenvalues
    assert (1 + lam[1]) / 2 >= 1 / 3 - 1e-12


def test_lazy_trace_is_half_n():
    for g in FIXTURES.values():
        lam = spectrum(g).eigenvalues
        assert abs(float(np.sum((1 + lam) / 2)) - g.n / 2) < 1e-9


@pytest.mark.parametrize("g", regular_params(min_n=4))
def test_lazy_gap_at_least_inverse_n_squared(g):
    lam = spectrum(g).eigenvalues
    tau = 1 - (1 + lam[1]) / 2
    assert tau >= 1 / g.n ** 2


# --- moments and reconstruction ---------------------------------------------


def _ratfun_derivative(r):
    return Rat(sub(derivative(r.num) * r.den, r.num * derivative(r.den)),
               r.den * r.den)


@pytest.mark.parametrize("g", fixture_params())
def test_hitting_two_routes_agree(g):
    """The moment identity equals the oracle's hitting times averaged
    under pi, and the T1 moments equal those read off the canonical
    derivatives of 1/f built with RatFun arithmetic."""
    f = return_gen_fun(g)
    res = hitting_from_stationary(f)
    assert res.value == stationary_hitting_time(g)
    d1 = _ratfun_derivative(RatFun(f.den, f.num))
    d2 = _ratfun_derivative(d1)
    one = Fraction(1)
    assert res.mean_t1 == -rat_eval(d1, one)
    assert res.mean_t1_sq == -rat_eval(d2, one) + res.mean_t1


@given(connected_graphs(max_n=12))
def test_hitting_moment_identity_equals_fraction_oracle(g):
    assert hitting_from_stationary(return_gen_fun(g)).value == stationary_hitting_time(g)


def test_hitting_known_values():
    for name, value in (("k2", Fraction(1, 2)), ("c4", Fraction(5, 2))):
        g = FIXTURES[name]
        assert hitting_from_stationary(return_gen_fun(g)).value == value


def test_mean_return_time():
    """E(T1) from the generating function equals Kac's 2|E| / d(r), also
    on the non-regular star."""
    for name, value in (("c4", 4), ("star3", 2), ("q3", 8)):
        g = FIXTURES[name]
        mean_t1 = hitting_from_stationary(return_gen_fun(g)).mean_t1
        assert mean_t1 == mean_return_time(g) == value, name


def test_exact_scale_guard():
    with pytest.raises(ValueError):
        return_gen_fun(build_family("cycle", MAX_EXACT_N + 16))
    g = FIXTURES["c4"]
    with pytest.raises(ValueError):
        lazy_series(g, return_gen_fun(g), MAX_EXACT_K + 1)
