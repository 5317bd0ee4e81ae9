import math
from fractions import Fraction

import numpy as np
import pytest

import batecho.gap as gap_module
from batecho import (
    SampledReturnTimes,
    build_family,
    audit_budget,
    audit_error_chain,
    estimate_gap,
    estimate_gap_exact,
    estimate_hitting,
    estimate_mixing_gap,
    gap_bounds,
    lazy_series,
    spectrum,
)
from batecho.errors import DomainError, SearchExhausted
from batecho.exact import MAX_EXACT_K
from batecho.gap import GapEstimate, estimate_n, per_eval_eta, search_budget

from conftest import FIXTURES, regular_params


def lazy_tau(g):
    """Gap of the lazy chain as seen from the root: the return sequence
    only carries nondegenerate eigenvalues, so that is the quantity any
    return-time estimator can converge to.  It equals the plain lazy gap
    whenever lambda_2 has weight at the root (all transitive fixtures)."""
    lam2 = max(v for v, w, ok in spectrum(g).clusters if ok and v < 1 - 1e-9)
    return 1 - (1 + lam2) / 2


def test_gap_bounds_lazy_c4_k10():
    # q_10 = 2^-11 exactly on the lazy 4-cycle
    lower, upper = gap_bounds(2.0 ** -11, 10, 4)
    assert abs(upper - (1 - 2 ** -1.1)) < 1e-12
    # ln(n)/ln(q_10) = 2 ln2 / (-11 ln2) = -2/11
    assert abs(lower - (9 / 11) * (1 - 2 ** -1.1)) < 1e-12


def test_gap_bounds_domain():
    with pytest.raises(DomainError):
        gap_bounds(0.0, 5, 4)
    with pytest.raises(DomainError):
        gap_bounds(1.5, 5, 4)
    with pytest.raises(DomainError):
        gap_bounds(0.5, 0, 4)
    with pytest.raises(DomainError):
        gap_bounds(0.5, 5, 1)


def test_gap_bounds_lower_clamped():
    lower, _ = gap_bounds(0.9, 1, 30)   # q above 1/n: vacuous lower bound
    assert lower == 0.0


@pytest.mark.parametrize("g", regular_params(min_n=4))
def test_bracket_contains_tau_for_all_k(g):
    """lower <= tau <= upper at every k <= 200, using exact lazy q_k."""
    tau = lazy_tau(g)
    t = lazy_series(g, 200)
    for k in range(1, 201):
        q = float(t.q[k])
        if not (0.0 < q < 1.0):
            break
        lower, upper = gap_bounds(q, k, g.n)
        assert lower <= tau + 1e-9
        assert upper >= tau - 1e-9


@pytest.mark.parametrize("c", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("g", regular_params(min_n=4))
def test_noiseless_estimate_within_factor(g, c):
    """The point estimate at the first threshold crossing is within a
    factor 1 + 1/c of tau, and the bracket contains tau."""
    est = estimate_gap_exact(g, c)
    tau = lazy_tau(g)
    assert est.tau_lower - 1e-9 <= tau <= est.tau_upper + 1e-9
    factor = max(est.tau_hat / tau, tau / est.tau_hat)
    assert factor <= 1 + 1 / c + 1e-9
    assert est.k_star <= search_budget(g.n, c)[0]


def test_exact_estimator_known_k_star():
    assert estimate_gap_exact(FIXTURES["k4"], 2.0).k_star == 3
    assert estimate_gap_exact(FIXTURES["c8"], 2.0).k_star == 18


def test_exact_estimator_doubling_stops_at_exact_cap():
    """On cycle:40 the crossing lies past 512 steps; the scan must find
    it within MAX_EXACT_K and never ask for more than MAX_EXACT_K terms."""
    g = build_family("cycle", 40)
    est = estimate_gap_exact(g, 2.0)
    assert est.k_star == 710
    assert float(lazy_series(g, 710).q[710]) <= 1 / 40 ** 2 < float(
        lazy_series(g, 709).q[709])
    with pytest.raises(SearchExhausted):
        estimate_gap_exact(build_family("cycle", 60), 2.0)


def test_exact_estimator_flags_a_vacuous_lower_bound():
    """At c = 1/2 the crossing q_k <= 1/sqrt(n) leaves q_k above 1/n, so
    the lower bound is vacuous; the exact twin records that as the
    statistical estimator does."""
    est = estimate_gap_exact(FIXTURES["c8"], c=0.5)
    assert est.tau_lower == 0.0
    assert est.tau_hat == est.tau_upper
    assert est.flags == ["exact", "lower_bound_vacuous"]


def test_exact_estimator_computes_the_series_once(monkeypatch):
    calls = []

    def counting_lazy_series(g, k_max):
        calls.append(k_max)
        return lazy_series(g, k_max)

    monkeypatch.setattr(gap_module, "lazy_series", counting_lazy_series)
    assert estimate_gap_exact(build_family("cycle", 40), 2.0).k_star == 710
    assert calls == [MAX_EXACT_K]


def test_search_budget_values():
    k0, levels = search_budget(8, 2.0)
    assert k0 == math.ceil(3 * 64 * math.log(8)) == 400
    assert levels == 9


def test_per_eval_eta_rules():
    assert per_eval_eta(8, 2.0, 0.25) == 0.25 / (8 * 64)


def test_estimate_gap_k4_bracket_and_audits():
    g = FIXTURES["k4"]
    tau = lazy_tau(g)
    est = estimate_gap(g, c=2.0, eps=0.25, delta=0.1, seed=101)
    assert est.tau_lower <= tau <= est.tau_upper
    assert est.k_star == 3
    assert est.q_k_minus_1 > 1 / 16 >= est.q_k
    budget = audit_budget(est)
    assert budget["within_budget"]
    k_top = max(entry["k"] for entry in est.trace)
    t = lazy_series(g, k_top)
    checks = audit_error_chain(est, exact_q=lambda k: t.q[k])
    assert checks["ok"], checks


def test_audit_reads_the_recorded_pk_rule():
    """A run is audited against the paper tolerance: an evaluation off by
    more than 4 eps/(8 n^c) fails the check."""
    n, c, eps = 4, 2.0, 0.25
    eta_paper = per_eval_eta(n, c, eps)
    err = 5 * eta_paper
    exact_q = 0.01
    est = GapEstimate(k_star=3, q_k=exact_q + err, q_k_minus_1=0.5,
                      tau_hat=0.5, tau_lower=0.4, tau_upper=0.6, n_used=n,
                      c=c, eps=eps, delta=0.1, pk_rule="paper",
                      total_experiments=1, total_ticks=3,
                      trace=[{"k": 3, "q_hat": exact_q + err, "experiments": 1,
                              "successes": 0}])
    checks = audit_error_chain(est, exact_q=lambda k: exact_q)
    assert checks["evaluations_accurate"] is False


@pytest.mark.parametrize("kwargs", [
    {"c": 0.0}, {"c": -1.0}, {"eps": 0.0}, {"eps": 2.0},
    {"delta": 0.0}, {"delta": 1.0}, {"n": 1}, {"n": 5},
])
def test_estimate_gap_rejects_bad_parameters(kwargs):
    with pytest.raises(DomainError):
        estimate_gap(FIXTURES["k4"], seed=1, **kwargs)


def test_sibling_seeds_give_distinct_estimates():
    """Each seed's whole trace (k and successes of every evaluation) is
    compared: a single root count of two distinct streams can match by
    chance."""
    g = FIXTURES["k4"]
    seeds = [np.random.SeedSequence(3, spawn_key=(i,)) for i in (1, 2)]
    seeds.append(np.random.SeedSequence(3))
    traces = [tuple((e["k"], e["successes"]) for e in estimate_gap(g, seed=s).trace)
              for s in seeds]
    assert len(set(traces)) == 3


def test_estimate_gap_is_deterministic():
    g = FIXTURES["k4"]
    a = estimate_gap(g, seed=5)
    b = estimate_gap(g, seed=5)
    assert a.to_json() == b.to_json()
    assert a.to_json()["pk_rule"] == "paper"


def test_estimate_gap_with_estimated_n():
    g = FIXTURES["k4"]
    est = estimate_gap(g, c=2.0, seed=31, n="estimate")
    assert est.n_used == 4
    assert "n_estimated" in est.flags


def test_estimate_n_values():
    assert estimate_n(FIXTURES["c8"], seed=41) == 8
    assert estimate_n(FIXTURES["k4"], seed=43, lazy=False) == 4


def test_non_regular_graph_exhausts_search():
    # on a star the centered return probability stalls at pi(r) - 1/n > 0
    with pytest.raises(SearchExhausted):
        estimate_gap(FIXTURES["star3"], c=2.0, seed=51)


def test_mixing_gap_k4():
    report = estimate_mixing_gap(FIXTURES["k4"], seed=61)
    assert report["status"] == "ok"
    # non-lazy eigenvalues are {1, -1/3 x3}: mixing gap = 2/3
    assert report["mixing_gap_lower"] <= 2 / 3 <= report["mixing_gap_upper"]


@pytest.mark.parametrize("name", ["c4", "q3"])
def test_mixing_gap_bipartite_reports_near_zero(name):
    report = estimate_mixing_gap(FIXTURES[name], seed=71)
    assert report["status"] == "exhausted"
    assert report["mixing_gap_lower"] == 0.0
    assert report["mixing_gap_upper"] < 0.05


def test_estimate_hitting_k2_is_exact():
    # T1 = 2 deterministically, so H = 4/4 - 1/2 = 1/2 with no variance
    rt = SampledReturnTimes(FIXTURES["k2"], seed=81)
    assert estimate_hitting([2] * 100) == 0.5
    gaps = []
    prev = 0
    for _ in range(200):
        t = next(rt)
        gaps.append(t - prev)
        prev = t
    assert estimate_hitting(gaps) == 0.5


def test_estimate_hitting_rejects_empty():
    with pytest.raises(ValueError):
        estimate_hitting([])
