import math
from fractions import Fraction

import numpy as np
import pytest

from batecho import (
    ReturnTimes,
    SampledReturnTimes,
    estimate_pk,
    first_return_series,
    hoeffding_count,
    lazy_series,
    observer_stats,
    return_gen_fun,
    run_experiment,
    sample_first_returns,
    simulate,
    transition_series,
)
from batecho.walk import batch_return_successes, child_seed

from conftest import FIXTURES


def test_walk_is_deterministic_in_seed():
    g = FIXTURES["c8"]
    w1, w2 = simulate(g, 42), simulate(g, 42)
    assert [w1.step() for _ in range(200)] == [w2.step() for _ in range(200)]
    w3, w4 = simulate(g, 42), simulate(g, 43)
    assert [w3.step() for _ in range(200)] != [w4.step() for _ in range(200)]


def test_k2_returns_every_other_step():
    rt = ReturnTimes.from_walk(FIXTURES["k2"], seed=0)
    assert [next(rt) for _ in range(10)] == [2, 4, 6, 8, 10, 12, 14, 16, 18, 20]


def test_bipartite_returns_are_even():
    rt = ReturnTimes.from_walk(FIXTURES["c4"], seed=1)
    assert all(t % 2 == 0 for t in (next(rt) for _ in range(500)))


def test_hoeffding_count_value():
    assert hoeffding_count(0.1, 0.05) == 185


def test_run_experiment_advances_origin():
    rt = ReturnTimes.from_walk(FIXTURES["c4"], seed=3, lazy=True)
    assert rt.origin == 0
    ok = run_experiment(rt, 5)
    assert rt.origin >= 5
    assert isinstance(ok, bool) or ok in (True, False)


def test_estimate_pk_within_three_sigma_of_exact():
    g = FIXTURES["c4"]
    k, eps, delta = 3, 0.05, 0.05
    exact = float(lazy_series(g, k).p[k])
    est = estimate_pk(ReturnTimes.from_walk(g, seed=7, lazy=True), k, eps, delta)
    n = est.experiments
    sigma = math.sqrt(exact * (1 - exact) / n)
    assert abs(est.p_hat - exact) < 3 * sigma + 1e-12
    assert est.experiments == hoeffding_count(eps, delta)


def test_estimate_pk_validates_inputs():
    rt = ReturnTimes.from_walk(FIXTURES["c4"], seed=0, lazy=True)
    with pytest.raises(ValueError):
        estimate_pk(rt, 3, 1.5, 0.05)


def test_observer_stats_match_exact_moments():
    g = FIXTURES["triangle"]
    t = first_return_series(return_gen_fun(g), 200)
    mean_exact = float(sum(k * t.s[k] for k in range(201)))
    rt = SampledReturnTimes(g, seed=11)
    mean, mean_sq, all_even = observer_stats(rt.gaps(20000))
    assert abs(mean - mean_exact) < 0.05
    assert not all_even


def test_gap_distribution_chi_square():
    """Gaps of the sequential walk follow the exact first-return law."""
    g = FIXTURES["c4"]
    t = first_return_series(return_gen_fun(g), 12)
    rt = ReturnTimes.from_walk(g, seed=5)
    m = 4000
    gaps = rt.gaps(m)
    buckets = {2: 0, 4: 0, 6: 0, 8: 0}
    tail = 0
    for gp in gaps:
        if gp in buckets:
            buckets[gp] += 1
        else:
            tail += 1
    chi2 = 0.0
    tail_p = 1.0
    for k, obs in buckets.items():
        p = float(t.s[k])
        tail_p -= p
        chi2 += (obs - m * p) ** 2 / (m * p)
    chi2 += (tail - m * tail_p) ** 2 / (m * tail_p)
    assert chi2 < 20.5  # chi-square(4), p ~ 4e-4


def _lazify_returns(rt_bits, seed) -> ReturnTimes:
    """Turn a non-lazy observer stream into the lazy chain's observer
    stream: each original tick expands into a geometric(1/2) run of lazy
    ticks during which the walker holds its position.

    `rt_bits` is an iterator of at-root bits for ticks 1, 2, ... of the
    non-lazy walk (e.g. WalkStream.bits()).
    """
    rng = np.random.default_rng(seed)
    buf_size = 8192

    def lazy_bits():
        buf = rng.geometric(0.5, buf_size)
        i = 0
        # occupancy of the start position (the root): its extra lazy ticks
        # beyond tick 0 are immediate returns
        g0 = buf[i]; i += 1
        for _ in range(g0 - 1):
            yield True
        for bit in rt_bits:
            if i >= len(buf):
                buf = rng.geometric(0.5, buf_size)
                i = 0
            g = buf[i]; i += 1
            for _ in range(g):
                yield bit

    return ReturnTimes(lazy_bits())


def test_lazify_matches_direct_lazy_law():
    """Expanding a fast stream with geometric holds must reproduce the
    lazy chain's return probability (cross-route, fixed seeds)."""
    g = FIXTURES["c4"]
    k = 4
    exact = float(lazy_series(g, k).p[k])
    rt = _lazify_returns(simulate(g, seed=21).bits(), seed=22)
    n = 4000
    hits = sum(run_experiment(rt, k) for _ in range(n))
    sigma = math.sqrt(exact * (1 - exact) / n)
    assert abs(hits / n - exact) < 4 * sigma


def test_sampled_return_times_match_sequential_law():
    g = FIXTURES["c8"]
    seq = ReturnTimes.from_walk(g, seed=9)
    fast = SampledReturnTimes(g, seed=9)
    m = 3000
    mean_seq = sum(seq.gaps(m)) / m
    gaps_fast = [0] * m
    prev = 0
    for i in range(m):
        t = next(fast)
        gaps_fast[i] = t - prev
        prev = t
    assert abs(mean_seq - sum(gaps_fast) / m) < 0.4
    assert abs(sum(gaps_fast) / m - 8.0) < 0.4      # E T1 = n on a cycle


def test_batch_successes_match_exact_probability():
    g = FIXTURES["k4"]
    k = 3
    exact = float(lazy_series(g, k).p[k])
    n = 200000
    hits = batch_return_successes(g, k, n, seed=13, lazy=True)
    sigma = math.sqrt(exact * (1 - exact) / n)
    assert abs(hits / n - exact) < 4 * sigma


def test_batch_stride_observes_even_time_chain():
    g = FIXTURES["c4"]
    k = 2
    exact = float(transition_series(g, 2 * k).p[2 * k])
    n = 100000
    hits = batch_return_successes(g, k, n, seed=17, lazy=False, stride=2)
    sigma = math.sqrt(exact * (1 - exact) / n)
    assert abs(hits / n - exact) < 4 * sigma


def test_sample_first_returns_mean():
    g = FIXTURES["star3"]
    gaps = sample_first_returns(g, 50000, seed=23)
    assert abs(float(gaps.mean()) - 2.0) < 0.05   # E T1 = 2|E|/d(r) = 2
    assert gaps.min() >= 2


def test_child_seed_keeps_int_and_root_streams():
    want = np.random.SeedSequence(5, spawn_key=(2,)).generate_state(4)
    assert (child_seed(5, 2).generate_state(4) == want).all()
    assert (child_seed(np.random.SeedSequence(5), 2).generate_state(4) == want).all()


def test_sibling_seed_sequences_give_distinct_streams():
    """Children of SeedSequence siblings must not collide: the parent's
    spawn key is part of the child's."""
    g = FIXTURES["c8"]
    a, b = (SampledReturnTimes(g, np.random.SeedSequence(1, spawn_key=(i,)))
            for i in (1, 2))
    assert [next(a) for _ in range(50)] != [next(b) for _ in range(50)]
    root = np.random.SeedSequence(1)
    kids = root.spawn(2)
    states = {tuple(child_seed(s, 0).generate_state(4)) for s in [root] + kids}
    assert len(states) == 3
