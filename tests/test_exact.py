"""Oracle checks for the exact engine.

The return-probability series has three independent routes here: brute
walk enumeration, transition-operator iteration, and the determinant
generating function of `det_oracle`, which also checks the generating
function the engine recovers from the walk.  The spectrum likewise is
checked against numpy's eigensolver.  These must all agree before
anything statistical is trusted.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from batecho import (
    build_family,
    first_return_series,
    hitting_from_stationary,
    lazy_series,
    mean_return_time,
    nondegenerate_set,
    poles_to_eigenvalues,
    return_gen_fun,
    spectrum,
    transition_series,
)
from batecho.errors import NonIntegerResult
from batecho.exact import reconstruct_counts
from batecho.graphs import from_edge_list
from batecho.ratfun import RatFun

from conftest import FIXTURES, TREES, fixture_params, regular_params
from det_oracle import determinant_gen_fun


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
    assert transition_series(g, k).p == _enumerate_returns(g, k)


@pytest.mark.parametrize("name", ["k2", "triangle", "c4", "star3"])
def test_first_return_series_against_enumeration(name):
    g = FIXTURES[name]
    k = 8
    table = first_return_series(return_gen_fun(g), k)
    assert table.s == _enumerate_first_returns(g, k)


def _binomial_mixture(g, k_max):
    """Lazy return probabilities from the non-lazy series by the exact
    mixture P'_k = 2^-k sum_j C(k,j) P_j."""
    p = transition_series(g, k_max).p
    return [sum(math.comb(k, j) * p[j] for j in range(k + 1)) / 2 ** k
            for k in range(k_max + 1)]


@pytest.mark.parametrize("g", fixture_params())
def test_lazy_series_two_routes_agree(g):
    k = 30
    mix = _binomial_mixture(g, k)
    direct = lazy_series(g, k)
    assert direct.p == mix
    assert direct.q == [pk - Fraction(1, g.n) for pk in mix]


def test_lazy_c4_q_closed_form():
    t = lazy_series(FIXTURES["c4"], 12)
    for k in range(1, 13):
        assert t.q[k] == Fraction(1, 2 ** (k + 1))


@pytest.mark.parametrize("g", fixture_params())
def test_genfun_series_equals_transition_series(g):
    k = 40
    f = return_gen_fun(g)
    assert f.series(k) == transition_series(g, k).p


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
        assert not any(transition_series(g, 2 * g.n).p[1::2]), name
    assert FIXTURES["k2"].n == 2
    f = return_gen_fun(FIXTURES["c8"])
    assert f.num.degree == f.den.degree


@st.composite
def connected_graphs(draw, max_n=7):
    n = draw(st.integers(2, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
    return from_edge_list(sorted(edges), draw(st.integers(0, n - 1)))


@given(connected_graphs())
def test_gen_fun_equals_determinant_formula_on_random_graphs(g):
    assert return_gen_fun(g) == determinant_gen_fun(g)


def test_survival_and_first_return_are_consistent():
    g = FIXTURES["c4"]
    t = first_return_series(return_gen_fun(g), 20)
    assert t.z[0] == 1
    assert all(t.z[k] == 1 - sum(t.s[1:k + 1]) for k in range(21))
    assert all(0 <= x <= 1 for x in t.s[1:])


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
    p = transition_series(g, 12).p
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
    p = transition_series(g, 10).p
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
    pl, zl = poles_to_eigenvalues(return_gen_fun(left.graph))
    pr, zr = poles_to_eigenvalues(return_gen_fun(right.graph))
    assert np.allclose(pl, pr) and zl == zr
    zeros_l = np.sum(np.abs(spectrum(left.graph).eigenvalues) < 1e-9)
    zeros_r = np.sum(np.abs(spectrum(right.graph).eigenvalues) < 1e-9)
    assert {int(zeros_l), int(zeros_r)} == {5, 3}


# --- lazy-chain facts --------------------------------------------------------


@pytest.mark.parametrize("g", regular_params(min_n=4))
def test_q_decrease_bounded(g):
    """q_{k+1} >= q_k / 3 for the lazy chain on regular graphs, n >= 4.

    Regularity matters: q_k = P'_k - 1/n only decays to zero when 1/n is
    the root's stationary mass, i.e. on regular graphs.
    """
    t = lazy_series(g, 60)
    for k in range(60):
        assert t.q[k + 1] >= t.q[k] / 3


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
    return RatFun(r.num.derivative() * r.den - r.num * r.den.derivative(),
                  r.den * r.den)


@pytest.mark.parametrize("g", fixture_params())
def test_hitting_two_routes_agree(g):
    """The linear-system and moment routes agree (MomentMismatch on drift),
    and the T1 moments equal those read off the canonical derivatives of
    1/f built with RatFun arithmetic."""
    f = return_gen_fun(g)
    res = hitting_from_stationary(g, f)
    assert res.value == res.via_linear_system
    d1 = _ratfun_derivative(RatFun(f.den, f.num))
    d2 = _ratfun_derivative(d1)
    one = Fraction(1)
    assert res.mean_t1 == -d1.eval(one)
    assert res.mean_t1_sq == -d2.eval(one) + res.mean_t1


def test_hitting_known_values():
    for name, value in (("k2", Fraction(1, 2)), ("c4", Fraction(5, 2))):
        g = FIXTURES[name]
        assert hitting_from_stationary(g, return_gen_fun(g)).value == value


def test_mean_return_time():
    assert mean_return_time(FIXTURES["c4"]) == 4
    assert mean_return_time(FIXTURES["star3"]) == 2
    assert mean_return_time(FIXTURES["q3"]) == 8


def test_reconstruct_counts():
    assert reconstruct_counts(Fraction(4), 2, regular=True) == (4, 4)
    assert reconstruct_counts(Fraction(2), 3, regular=False) == (3, None)
    with pytest.raises(NonIntegerResult):
        reconstruct_counts(Fraction(7, 3), 2, regular=False)


def test_exact_scale_guard():
    with pytest.raises(ValueError):
        transition_series(build_family("cycle", 80), 5)
