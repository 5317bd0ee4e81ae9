import contextlib
import json
import math
import re

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
from batecho.cli import main, parse_family
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


@pytest.mark.parametrize("run,kernels", [
    (lambda: estimate_gap(FIXTURES["c8"], seed=1), 0),
    (lambda: estimate_gap(FIXTURES["k4"], seed=31, n="estimate"), 1),
    (lambda: estimate_mixing_gap(FIXTURES["k4"], seed=1).even_chain, 0),
], ids=["gap", "gap-estimated-n", "mixing-gap"])
def test_search_decomposes_the_walk_once(monkeypatch, run, kernels):
    """One walk.spectrum call (one eigh) per search, however many
    evaluations the search makes, and one first-return kernel when n is
    estimated from return times, none otherwise."""
    calls, builds, eighs = [], [], []
    real_spectrum, real_kernel, real_eigh = (walk.spectrum, walk._first_return_kernel,
                                             np.linalg.eigh)
    monkeypatch.setattr(walk, "spectrum", lambda g: calls.append(g) or real_spectrum(g))
    monkeypatch.setattr(walk, "_first_return_kernel",
                        lambda *a: builds.append(a) or real_kernel(*a))
    monkeypatch.setattr(np.linalg, "eigh", lambda m: eighs.append(m) or real_eigh(m))
    est = run()
    assert len(est.trace) > 1
    assert len(calls) == len(eighs) == 1
    assert len(builds) == kernels


@pytest.mark.parametrize("command", ["observe", "simulate"])
def test_sampling_never_decomposes_the_walk(monkeypatch, capsys, command):
    """`observe` and `simulate` draw first returns from the kernel alone:
    no spectrum, and one kernel per call."""
    builds = []
    real_kernel = walk._first_return_kernel
    monkeypatch.setattr(walk, "spectrum", lambda g: pytest.fail("spectrum built"))
    monkeypatch.setattr(walk, "_first_return_kernel",
                        lambda *a: builds.append(a) or real_kernel(*a))
    assert main([command, "--family", "cycle:8", "--m", "1000", "--seed", "1"]) == 0
    assert len(builds) == 1
    next(SampledReturnTimes(FIXTURES["c8"], seed=1, lazy=True))
    assert len(builds) == 2


@pytest.mark.parametrize("argv", [["gap", "--family", "cycle:8"],
                                  ["mixing-gap", "--family", "cycle:7"]])
def test_gap_search_never_builds_the_kernel(monkeypatch, capsys, argv):
    """Without `--n estimate` the searches read P_t from the spectrum
    alone, and never build the first-return kernel."""
    monkeypatch.setattr(walk, "_first_return_kernel",
                        lambda *a: pytest.fail("kernel built"))
    assert main([*argv, "--seed", "1"]) == 0


@pytest.mark.parametrize("stride", [1, 2], ids=["gap", "mixing-gap"])
@pytest.mark.parametrize("name,size", [("cycle", 64), ("hypercube", 6), ("path", 9)])
def test_search_probabilities_match_matrix_powers(monkeypatch, name, size, stride):
    """At every k a seed-1 search evaluates (up to K0 where it exhausts),
    P_{stride k}(r,r) from the search's root measure agrees with the root
    entry of the matrix power P^(stride k) to 1e-12: the lazy chain for
    `gap`, the plain chain at even times for `mixing-gap`."""
    g = build_family(name, size)
    lazy = stride == 1
    seen = []
    real = gap_module.batch_return_successes

    def recording(measure, k, *args, **kwargs):
        seen.append((measure, k))
        return real(measure, k, *args, **kwargs)

    monkeypatch.setattr(gap_module, "batch_return_successes", recording)
    if lazy:
        with contextlib.suppress(SearchExhausted):
            estimate_gap(g, seed=1)
    else:
        estimate_mixing_gap(g, seed=1)
    assert len(seen) > 1
    assert len({id(measure) for measure, _ in seen}) == 1
    for measure, k in seen:
        assert measure.graph is g and measure.lazy is lazy
        t = stride * k
        spectral = measure.return_probability(t)
        assert abs(spectral - matrix_power_return_probability(g, t, lazy)) <= 1e-12, k


@pytest.mark.parametrize("argv,lazy,stride", [
    ("gap --family cycle:8", True, 1),
    ("gap --family hypercube:3", True, 1),
    ("mixing-gap --family cycle:7", False, 2),
    ("mixing-gap --family complete:4", False, 2),
    ("gap --family cycle:4 --n estimate", True, 1),
    ("mixing-gap --family complete:4 --n estimate", False, 2),
])
@pytest.mark.parametrize("seed", [1, 3, 7])
def test_search_replays_from_one_stream(capsys, argv, lazy, stride, seed):
    """Replay oracle for the search's stream: rebuild every trace entry's
    `successes` from one np.random.default_rng(seed), in evaluation
    order, as one binomial with RootMeasure.return_probability(stride*k).
    With `--n estimate` the rounds that estimate n come first on the
    same stream: 2^12 first returns, then as many as are pooled, until
    the pooled mean's standard error is at most 1/8."""
    assert main([*argv.split(), "--seed", str(seed)]) == 0
    doc = json.loads(capsys.readouterr().out)
    est = doc["estimate"] if argv.startswith("gap") else doc["even_chain"]
    measure = walk.RootMeasure(parse_family(argv.split()[2]), lazy)
    rng = np.random.default_rng(seed)
    if "estimate" in argv:
        assert "n_estimated" in est["flags"]
        counts, pooled, var = np.zeros(0, dtype=np.int64), 0, math.inf
        while var > pooled / 64:
            hist = walk.first_return_counts(measure, pooled or 1 << 12, rng)
            pooled += pooled or 1 << 12
            counts = np.pad(counts, (0, max(0, hist.size - counts.size)))
            counts[:hist.size] += hist
            mean, mean_sq, _ = observer_stats(counts)
            var = mean_sq - mean * mean
        assert round(mean) == est["n_used"]
    assert len(est["trace"]) > 1
    for entry in est["trace"]:
        p = measure.return_probability(stride * entry["k"])
        assert int(rng.binomial(entry["experiments"], p)) == entry["successes"], entry


def test_a_generator_seed_is_the_stream():
    """A Generator passed as the seed is drawn from in place: the search
    reads the same estimate as from its int seed and leaves the stream
    after its last draw."""
    g = FIXTURES["c8"]
    rng = np.random.default_rng(9)
    est = estimate_gap(g, seed=rng)
    assert est.to_json() == estimate_gap(g, seed=9).to_json()
    measure, replay = walk.RootMeasure(g, True), np.random.default_rng(9)
    for entry in est.trace:
        replay.binomial(entry["experiments"], measure.return_probability(entry["k"]))
    assert rng.bit_generator.state == replay.bit_generator.state


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
    {"seed": -1}, {"seed": 1.5}, {"seed": "7"}, {"seed": [1, -2]},
])
def test_estimate_gap_rejects_bad_parameters(kwargs):
    with pytest.raises(DomainError):
        estimate_gap(FIXTURES["k4"], **{"seed": 1, **kwargs})


@pytest.mark.parametrize("n", [7.9, "abc", "8", [8]])
def test_estimate_gap_refuses_an_n_that_is_not_an_integer(n):
    """An n that is neither an integer nor "estimate" is refused with a
    DomainError that names it, where 7.9 once ran as 7; a numpy integer
    is an integer."""
    message = f'^n must be an integer or "estimate", got {re.escape(repr(n))}$'
    with pytest.raises(DomainError, match=message):
        estimate_gap(FIXTURES["c8"], seed=1, n=n)
    assert (estimate_gap(FIXTURES["c8"], seed=1, n=np.int64(8)).to_json()
            == estimate_gap(FIXTURES["c8"], seed=1, n=8).to_json())


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
    assert estimate_n(walk.RootMeasure(FIXTURES["c8"], True), seed=41) == 8
    assert estimate_n(walk.RootMeasure(FIXTURES["k4"], False), seed=43) == 4


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_estimate_n_resolves_cycle_64(seed):
    """The pooled mean's standard error reaches 1/8 before it is rounded,
    so the mean return time 64 is read exactly; stopping when two
    rounded means agreed gave 60 at seed 3."""
    assert estimate_n(walk.RootMeasure(build_family("cycle", 64), True), seed=seed) == 64


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

    def law(measure, k, count, seed, stride=1):
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
