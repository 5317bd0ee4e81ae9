import contextlib
import math

import numpy as np
import pytest

import batecho.gap as gap_module
import exact_oracle
from batecho import (
    SampledReturnTimes,
    build_family,
    audit_budget,
    audit_error_chain,
    estimate_gap,
    estimate_hitting,
    estimate_mixing_gap,
    gap_bounds,
    lazy_series,
    nondegenerate_set,
    observer_stats,
    return_gen_fun,
    spectrum,
)
from batecho import walk
from batecho.cli import main
from batecho.errors import DomainError, SearchExhausted
from batecho.exact import MAX_EXACT_K
from batecho.gap import GapEstimate, estimate_n, per_eval_eta, search_budget

from conftest import FIXTURES, regular_params
from exact_oracle import estimate_gap_exact, evaluations_accurate, fractions
from walk_oracle import matrix_power_return_probability


def lazy_tau(g):
    """Gap of the lazy chain as seen from the root: the return sequence
    only carries nondegenerate eigenvalues, so that is the quantity any
    return-time estimator can converge to.  It equals the plain lazy gap
    whenever lambda_2 has weight at the root (all transitive fixtures)."""
    lam2 = max(v for v, w, ok in nondegenerate_set(spectrum(g))
               if ok and v < 1 - 1e-9)
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
    qs = fractions(lazy_series(g, return_gen_fun(g), 200).q)
    for k in range(1, 201):
        q = float(qs[k])
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
    assert float(fractions(lazy_series(g, return_gen_fun(g), 710).q)[710]) <= 1 / 40 ** 2 < float(
        fractions(lazy_series(g, return_gen_fun(g), 709).q)[709])
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

    def counting_lazy_series(g, f, k_max):
        calls.append(k_max)
        return lazy_series(g, f, k_max)

    monkeypatch.setattr(exact_oracle, "lazy_series", counting_lazy_series)
    assert estimate_gap_exact(build_family("cycle", 40), 2.0).k_star == 710
    assert calls == [MAX_EXACT_K]


@pytest.mark.parametrize("run", [
    lambda: estimate_gap(FIXTURES["c8"], seed=1),
    lambda: estimate_gap(FIXTURES["k4"], seed=31, n="estimate"),
    lambda: estimate_mixing_gap(FIXTURES["k4"], seed=1).even_chain,
], ids=["gap", "gap-estimated-n", "mixing-gap"])
def test_search_decomposes_the_walk_once(monkeypatch, run):
    """One exact.spectrum call per search, however many evaluations the
    search makes."""
    calls = []
    real = gap_module.spectrum
    monkeypatch.setattr(gap_module, "spectrum", lambda g: calls.append(g) or real(g))
    est = run()
    assert len(est.trace) > 1
    assert len(calls) == 1


@pytest.mark.parametrize("stride", [1, 2], ids=["gap", "mixing-gap"])
@pytest.mark.parametrize("name,size", [("cycle", 64), ("hypercube", 6), ("path", 9)])
def test_search_probabilities_match_matrix_powers(monkeypatch, name, size, stride):
    """At every k a seed-1 search evaluates (up to K0 where it exhausts),
    P_{stride k}(r,r) from the spectrum agrees with the root entry of the
    matrix power P^(stride k) to 1e-12: the lazy chain for `gap`, the
    plain chain at even times for `mixing-gap`."""
    g = build_family(name, size)
    lazy = stride == 1
    seen = []
    real = gap_module.batch_return_successes

    def recording(spec, k, *args, **kwargs):
        seen.append((spec, k))
        return real(spec, k, *args, **kwargs)

    monkeypatch.setattr(gap_module, "batch_return_successes", recording)
    if lazy:
        with contextlib.suppress(SearchExhausted):
            estimate_gap(g, seed=1)
    else:
        estimate_mixing_gap(g, seed=1)
    assert len(seen) > 1
    for spec, k in seen:
        t = stride * k
        spectral = walk._return_probability(spec, t, lazy)
        assert abs(spectral - matrix_power_return_probability(g, t, lazy)) <= 1e-12, k


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
    q = fractions(lazy_series(g, return_gen_fun(g), k_top).q)
    checks = audit_error_chain(est)
    assert checks["ok"], checks
    accurate, worst = evaluations_accurate(est, lambda k: q[k])
    assert accurate, worst


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
    accurate, worst = evaluations_accurate(est, lambda k: exact_q)
    assert accurate is False and worst == pytest.approx(5.0)


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


def test_to_json_leaves_the_estimate_unchanged():
    """The payload holds its own copies of the trace and flags: editing
    it, also through the mixing-gap report's even chain, changes no
    estimate."""
    est = estimate_gap(FIXTURES["k4"], seed=5, n="estimate")
    report = estimate_mixing_gap(FIXTURES["k4"], seed=5)
    assert est.flags and report.even_chain is not None
    for owner, doc in ((est, est.to_json()), (report, report.to_json()["even_chain"])):
        before = repr(owner)
        doc["trace"][0]["k"] = -1
        doc["trace"].append({})
        doc["flags"].append("edited")
        assert repr(owner) == before


def test_estimate_gap_with_estimated_n():
    g = FIXTURES["k4"]
    est = estimate_gap(g, c=2.0, seed=31, n="estimate")
    assert est.n_used == 4
    assert "n_estimated" in est.flags


def test_estimate_n_values():
    assert estimate_n(FIXTURES["c8"], seed=41) == 8
    assert estimate_n(FIXTURES["k4"], seed=43, lazy=False) == 4


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_estimate_n_resolves_cycle_64(seed):
    """The pooled mean's standard error reaches 1/8 before it is rounded,
    so the mean return time 64 is read exactly; stopping when two
    rounded means agreed gave 60 at seed 3."""
    assert estimate_n(build_family("cycle", 64), seed=seed) == 64


def test_non_regular_graph_exhausts_search():
    # on a star the centered return probability stalls at pi(r) - 1/n > 0
    with pytest.raises(SearchExhausted):
        estimate_gap(FIXTURES["star3"], c=2.0, seed=51)


def test_unevaluated_horizon_exits_3_within_l_evaluations(monkeypatch, capsys):
    """A law whose q_k stays above 1/n^c at every midpoint and drops to it
    only at K0 itself.  Confirming K0 would take an (L+1)-th evaluation,
    beyond audit_budget's L * n_exp, so the search must stop at its last
    midpoint: `gap` exits 3 after at most L evaluations, and `mixing-gap`
    reports the search as exhausted."""
    k0, levels = search_budget(8, 2.0)
    calls = []

    def law(spec, k, count, seed, lazy=True, stride=1):
        calls.append(k)
        # all walkers home before K0 (q = 7/8), q = 1/128 <= 1/64 at K0
        return count if k < k0 else count // 8 + count // 128

    monkeypatch.setattr(gap_module, "batch_return_successes", law)
    assert main(["gap", "--family", "cycle:8", "--seed", "1"]) == 3
    assert "exhausted" in capsys.readouterr().err
    assert 0 < len(calls) <= levels and k0 not in calls
    calls.clear()
    report = estimate_mixing_gap(build_family("cycle", 8), seed=1)
    assert report.status == "exhausted"
    assert 0 < len(calls) <= levels and k0 not in calls


def test_mixing_gap_k4():
    report = estimate_mixing_gap(FIXTURES["k4"], seed=61)
    assert report.status == "ok"
    # non-lazy eigenvalues are {1, -1/3 x3}: mixing gap = 2/3
    assert report.mixing_gap_lower <= 2 / 3 <= report.mixing_gap_upper


@pytest.mark.parametrize("name", ["c4", "q3"])
def test_mixing_gap_bipartite_reports_near_zero(name):
    report = estimate_mixing_gap(FIXTURES[name], seed=71)
    assert report.status == "exhausted"
    assert report.mixing_gap_lower == 0.0
    assert report.mixing_gap_upper < 0.05


def test_estimate_hitting_k2_is_exact():
    # T1 = 2 deterministically, so H = 4/4 - 1/2 = 1/2 with no variance
    rt = SampledReturnTimes(FIXTURES["k2"], seed=81)
    assert estimate_hitting(*observer_stats([0, 100])[:2]) == 0.5
    gaps = []
    prev = 0
    for _ in range(200):
        t = next(rt)
        gaps.append(t - prev)
        prev = t
    assert estimate_hitting(*observer_stats(np.bincount(gaps)[1:])[:2]) == 0.5


def test_estimate_hitting_rejects_empty():
    with pytest.raises(DomainError, match="^need at least one gap$"):
        estimate_hitting(*observer_stats([])[:2])
