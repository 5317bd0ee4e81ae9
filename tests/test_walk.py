import dataclasses
import functools
import hashlib
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from batecho import (
    ReturnTimes,
    SampledReturnTimes,
    build_family,
    estimate_pk,
    first_return_counts,
    first_return_series,
    hitting_from_stationary,
    hoeffding_count,
    lazy_series,
    observer_stats,
    return_gen_fun,
    run_experiment,
    sample_first_returns,
)
from batecho import estimate_gap, walk
from batecho.errors import DomainError
from batecho.gap import estimate_n
from batecho.walk import RootMeasure, batch_return_successes

import walk_oracle
from conftest import FIXTURES
from exact_oracle import fractions, transition_series
from walk_oracle import from_walk, gaps, simulate


def test_walk_is_deterministic_in_seed():
    g = FIXTURES["c8"]
    w1, w2 = simulate(g, 42), simulate(g, 42)
    assert [w1.step() for _ in range(200)] == [w2.step() for _ in range(200)]
    w3, w4 = simulate(g, 42), simulate(g, 43)
    assert [w3.step() for _ in range(200)] != [w4.step() for _ in range(200)]


def test_k2_returns_every_other_step():
    rt = from_walk(FIXTURES["k2"], seed=0)
    assert [next(rt) for _ in range(10)] == [2, 4, 6, 8, 10, 12, 14, 16, 18, 20]


def test_bipartite_returns_are_even():
    rt = from_walk(FIXTURES["c4"], seed=1)
    assert all(t % 2 == 0 for t in (next(rt) for _ in range(500)))


def test_hoeffding_count_value():
    assert hoeffding_count(0.1, 0.05) == 185


def test_run_experiment_advances_origin():
    rt = from_walk(FIXTURES["c4"], seed=3, lazy=True)
    assert rt.origin == 0
    ok = run_experiment(rt, 5)
    assert rt.origin >= 5
    assert isinstance(ok, bool) or ok in (True, False)


def test_estimate_pk_within_three_sigma_of_exact():
    g = FIXTURES["c4"]
    k, eps, delta = 3, 0.05, 0.05
    exact = float(fractions(lazy_series(g, return_gen_fun(g), k).p)[k])
    est = estimate_pk(from_walk(g, seed=7, lazy=True), k, eps, delta)
    n = est.experiments
    sigma = math.sqrt(exact * (1 - exact) / n)
    assert abs(est.p_hat - exact) < 3 * sigma + 1e-12
    assert est.experiments == hoeffding_count(eps, delta)


def test_run_experiment_on_an_ended_stream_raises():
    """A bit stream that ends mid-experiment is a RuntimeError, from
    run_experiment and from inside estimate_pk's generator alike, never a
    StopIteration."""
    with pytest.raises(RuntimeError, match="^return stream ended$"):
        run_experiment(ReturnTimes(iter([False, True])), 5)
    with pytest.raises(RuntimeError, match="^return stream ended$"):
        estimate_pk(ReturnTimes(iter([False, True])), 5, 0.1, 0.1)


def test_estimate_pk_validates_inputs():
    rt = from_walk(FIXTURES["c4"], seed=0, lazy=True)
    with pytest.raises(DomainError, match=r"^eps and delta must lie in \(0, 1\)$"):
        estimate_pk(rt, 3, 1.5, 0.05)
    # an experiment's first return comes after its origin, so k = 0
    # would read 0 for P_0(r,r) = 1
    for k in (0, -1):
        with pytest.raises(DomainError, match=r"^k must be at least 1"):
            estimate_pk(rt, k, 0.1, 0.1)
    assert rt.tick == 0


def test_sampled_estimate_pk_is_pinned():
    """The benchmark's estimate_pk call (cycle:4, seed 1, lazy), pinned by
    sha256 as the stream printed it once every refill (2^12 gaps growing
    to 2^16) drew from one random stream: the estimate as the benchmark
    prints it, and the first 150,000 return times, which span six
    refills."""
    g = build_family("cycle", 4)
    est = estimate_pk(SampledReturnTimes(g, 1, lazy=True), 3, 0.02, 0.05)
    text = json.dumps(dataclasses.asdict(est), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "daa492e7b81d345b49b761553ea3fda50a61c49b498aeac45e6bad819a4aab14")
    rt = SampledReturnTimes(g, 1, lazy=True)
    times = np.fromiter((next(rt) for _ in range(150000)), dtype=np.int64)
    assert hashlib.sha256(times.tobytes()).hexdigest() == (
        "781a296bf8eacd543f260f3f69c5b3a0e16f9a931cf0fe2b486c6251898e7577")


def test_observer_stats_match_exact_moments():
    g = FIXTURES["triangle"]
    s = fractions(first_return_series(g, return_gen_fun(g), 200).s)
    mean_exact = float(sum(k * s[k] for k in range(201)))
    rt = SampledReturnTimes(g, seed=11)
    mean, mean_sq, all_even = observer_stats(np.bincount(gaps(rt, 20000))[1:])
    assert abs(mean - mean_exact) < 0.05
    assert not all_even


def test_gap_distribution_chi_square():
    """Gaps of the sequential walk follow the exact first-return law."""
    g = FIXTURES["c4"]
    s = fractions(first_return_series(g, return_gen_fun(g), 12).s)
    rt = from_walk(g, seed=5)
    m = 4000
    gaps = walk_oracle.gaps(rt, m)
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
        p = float(s[k])
        tail_p -= p
        chi2 += (obs - m * p) ** 2 / (m * p)
    chi2 += (tail - m * tail_p) ** 2 / (m * tail_p)
    assert chi2 < 20.5  # chi-square(4), p ~ 4e-4


def _lazify_returns(rt_bits, seed) -> ReturnTimes:
    """Turn a non-lazy observer stream into the lazy chain's observer
    stream: each original tick expands into a geometric(1/2) run of lazy
    ticks during which the walker holds its position.

    `rt_bits` is an iterator of at-root bits for ticks 1, 2, ... of the
    non-lazy walk (e.g. walk_oracle.WalkStream.bits()).
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
    exact = float(fractions(lazy_series(g, return_gen_fun(g), k).p)[k])
    rt = _lazify_returns(simulate(g, seed=21).bits(), seed=22)
    n = 4000
    hits = sum(run_experiment(rt, k) for _ in range(n))
    sigma = math.sqrt(exact * (1 - exact) / n)
    assert abs(hits / n - exact) < 4 * sigma


def test_sampled_return_times_match_sequential_law():
    """Mean gaps of the sequential walk and of the sampled stream, each of
    3000 gaps, within 4 sigma of each other and of E T1, sigma taken from
    the exact moments (E T1 = 8 and E T1^2 = 176 on c8)."""
    g = FIXTURES["c8"]
    moments = hitting_from_stationary(return_gen_fun(g))
    seq = from_walk(g, seed=9)
    fast = SampledReturnTimes(g, seed=9)
    m = 3000
    sigma = math.sqrt(float(moments.mean_t1_sq - moments.mean_t1 ** 2) / m)
    mean_seq = sum(gaps(seq, m)) / m
    gaps_fast = [0] * m
    prev = 0
    for i in range(m):
        t = next(fast)
        gaps_fast[i] = t - prev
        prev = t
    mean_fast = sum(gaps_fast) / m
    assert abs(mean_seq - mean_fast) < 4 * math.sqrt(2) * sigma
    assert abs(mean_fast - float(moments.mean_t1)) < 4 * sigma


def _exact_returns(g, k_max, lazy):
    """Exact P_k(r,r) for k <= k_max on the lazy or the plain walk."""
    return (fractions(lazy_series(g, return_gen_fun(g), k_max).p) if lazy
            else transition_series(g, k_max))


@pytest.mark.parametrize("lazy", [True, False], ids=["lazy", "plain"])
@pytest.mark.parametrize("name", ["k4", "star3", "path4"])
def test_batch_successes_match_exact_probability(name, lazy):
    """Regular and irregular graphs, lazy and plain: the two branches of
    the shared step against the exact return probability."""
    g = FIXTURES[name]
    k = 3 if lazy else 4     # even: the plain walk on a tree is periodic
    exact = float(_exact_returns(g, k, lazy)[k])
    n = 200000
    hits = batch_return_successes(RootMeasure(g, lazy), k, n, seed=13)
    sigma = math.sqrt(exact * (1 - exact) / n)
    assert abs(hits / n - exact) <= 4 * sigma   # sigma = 0 on star3-plain


def test_batch_stride_observes_even_time_chain():
    g = FIXTURES["c4"]
    k = 2
    exact = float(transition_series(g, 2 * k)[2 * k])
    n = 100000
    hits = batch_return_successes(RootMeasure(g, False), k, n, seed=17, stride=2)
    sigma = math.sqrt(exact * (1 - exact) / n)
    assert abs(hits / n - exact) < 4 * sigma


def test_batch_successes_survive_rounding_of_long_powers():
    """At tick 25552 the plain walk on the bipartite hypercube:5 is home
    with probability 2/n to far below a double's precision; eigh's
    few-ulp error in the eigenvalues +-1, raised to that power, must not
    move the draw off it."""
    g = build_family("hypercube", 5)
    count, p = 10 ** 6, 2 / 32
    hits = batch_return_successes(RootMeasure(g, False), 12776, count, seed=19,
                                  stride=2)
    assert abs(hits / count - p) < 4 * math.sqrt(p * (1 - p) / count)


@pytest.mark.parametrize("lazy", [True, False], ids=["lazy", "plain"])
@pytest.mark.parametrize("name", ["c8", "leafy_cutpoint", "path4", "star3"])
def test_spectral_return_probability_equals_exact_series(name, lazy):
    """P_t(r,r) from the spectrum against the exact series for every
    t <= 200, on regular (c8, leafy_cutpoint) and irregular (path4, star3)
    graphs, lazy and plain."""
    g = FIXTURES[name]
    measure = RootMeasure(g, lazy)
    exact = _exact_returns(g, 200, lazy)
    worst = max(abs(measure.return_probability(t) - float(exact[t]))
                for t in range(201))
    assert worst <= 1e-12


@pytest.mark.parametrize("name", ["k2", "c4", "q3", "star3"])
def test_spectral_return_probability_is_a_probability(name):
    """On a bipartite graph the plain walk is never home at odd ticks.
    The spectral sum comes out there as +-1e-16; clipped, it is a valid
    binomial parameter within 1e-15 of the exact one, and draws no walker
    home."""
    g = FIXTURES[name]
    measure = RootMeasure(g, False)
    exact = transition_series(g, 61)
    for t in range(1, 62):
        p = measure.return_probability(t)
        assert 0.0 <= p <= 1.0 and abs(p - float(exact[t])) <= 1e-15, t
    assert batch_return_successes(measure, 31, 10 ** 6, seed=3) == 0


@pytest.mark.parametrize("lazy", [False, True], ids=["plain", "lazy"])
@pytest.mark.parametrize("name", ["star3", "path4", "c8"])
def test_sample_first_returns_mean(name, lazy):
    """E T1 = 2|E|/d(r) for the plain and the lazy walk alike."""
    g = FIXTURES[name]
    gaps = sample_first_returns(RootMeasure(g, lazy), 50000, seed=23)
    mean = 2 * g.edge_count / g.root_degree
    sigma = float(gaps.std()) / math.sqrt(gaps.size)
    assert abs(float(gaps.mean()) - mean) <= 5 * sigma   # T1 = 2 on star3-plain
    assert gaps.min() >= (1 if lazy else 2)


@pytest.mark.parametrize("lazy", [False, True])
def test_transition_matrix_matches_the_vertex_loop(lazy):
    """The one-assignment transition matrix is byte for byte the one the
    oracle fills vertex by vertex, regular and irregular graphs alike."""
    for name, g in FIXTURES.items():
        want = walk_oracle.transition_matrix(g, lazy)
        assert walk._transition_matrix(g, lazy).tobytes() == want.tobytes(), name


def test_first_return_kernel_rows_are_laws():
    """Each row of the n-tick kernel is a probability law, and on the
    bipartite c4 the plain walk's first returns at odd ticks are exactly
    impossible."""
    for name in ("c4", "c8", "star3", "leafy_cutpoint", "tree_left"):
        for lazy in (False, True):
            kernel = walk._first_return_kernel(FIXTURES[name], lazy)
            assert np.abs(kernel.sum(axis=1) - 1.0).max() <= 1e-12, (name, lazy)
    g = FIXTURES["c4"]
    first = walk._first_return_kernel(g, False)[g.root, : g.n]
    assert (first[0::2] == 0.0).all() and (first[1::2] > 0.0).all()


def test_sample_first_returns_shuffles_the_histogram():
    """With the same seed, the samples are a permutation of the
    histogram's times, and the histogram sums to the count with no
    trailing zero."""
    for name, lazy in (("c8", False), ("star3", True), ("leafy_cutpoint", True)):
        measure = RootMeasure(FIXTURES[name], lazy)
        counts = first_return_counts(measure, 5000, 37)
        assert counts.sum() == 5000 and counts[-1] > 0
        gaps = sample_first_returns(measure, 5000, 37)
        times = np.repeat(np.arange(1, counts.size + 1), counts)
        assert (np.sort(gaps) == times).all()


@pytest.mark.parametrize("lazy", [False, True])
def test_sampled_stream_builds_its_kernel_once(monkeypatch, lazy):
    """Seven refills, of 2^12, 2^13, ... gaps capped at 2^16, build the
    first-return kernel once, and the stream is the concatenation of
    sample_first_returns of those sizes, drawn in turn from one
    np.random.default_rng(17).  On path4:
    every plain first return on the star is at tick 2, which any schedule
    would match."""
    g = FIXTURES["path4"]
    builds = []
    real = walk._first_return_kernel
    monkeypatch.setattr(walk, "_first_return_kernel",
                        lambda *a: builds.append(a) or real(*a))
    rt = SampledReturnTimes(g, seed=17, lazy=lazy)
    sizes = [1 << min(12 + i, 16) for i in range(7)]
    assert sizes == [4096, 8192, 16384, 32768, 65536, 65536, 65536]
    times = np.array([next(rt) for _ in range(sum(sizes[:6]) + 1)])
    assert len(builds) == 1
    assert rt.tick == times[-1]
    monkeypatch.setattr(walk, "_first_return_kernel", real)
    measure, replay = RootMeasure(g, lazy), np.random.default_rng(17)
    want = np.concatenate([sample_first_returns(measure, size, replay)
                           for size in sizes])
    assert (np.diff(times, prepend=0) == want[:times.size]).all()


def test_sampled_stream_draws_at_most_twice_what_it_serves(monkeypatch):
    """After serving N returns the stream has drawn at most 2N + 2^16
    gaps, and none before the first return is asked for."""
    drawn = []
    real = walk.sample_first_returns
    monkeypatch.setattr(walk, "sample_first_returns",
                        lambda measure, count, seed: drawn.append(count)
                        or real(measure, count, seed))
    rt = SampledReturnTimes(FIXTURES["c8"], seed=5, lazy=True)
    assert drawn == [] and rt.tick == 0
    served = 0
    for n in (1, 4096, 4097, 9000, 20000, 61440, 61441, 200000, 300000):
        while served < n:
            next(rt)
            served += 1
        assert served <= sum(drawn) <= 2 * served + (1 << 16), (served, drawn)


@pytest.mark.parametrize("seed", [-1, 1.5, "x", [1, -2]])
def test_sampled_stream_refuses_a_bad_seed_when_built(seed):
    """A seed `random_stream` refuses is refused by the constructor, with
    a DomainError, not at the first refill."""
    with pytest.raises(DomainError, match="^seed must be"):
        SampledReturnTimes(FIXTURES["c8"], seed)


def test_sampled_stream_draws_a_generator_seed_in_place():
    """A Generator seed is the stream's own: the stream serves what the
    Generator's int seed gives, and after the first refill of 2^12 gaps
    the Generator stands where one draw of that size leaves a replay."""
    g = FIXTURES["c8"]
    rng = np.random.default_rng(23)
    rt, by_int = SampledReturnTimes(g, rng, lazy=True), SampledReturnTimes(g, 23, lazy=True)
    assert [next(rt) for _ in range(100)] == [next(by_int) for _ in range(100)]
    replay = np.random.default_rng(23)
    sample_first_returns(RootMeasure(g, True), 1 << 12, replay)
    assert rng.bit_generator.state == replay.bit_generator.state


def test_sibling_seed_sequences_give_distinct_streams():
    """SeedSequence siblings must not collide: the spawn key is part of
    the stream's seed."""
    g = FIXTURES["c8"]
    a, b = (SampledReturnTimes(g, np.random.SeedSequence(1, spawn_key=(i,)))
            for i in (1, 2))
    assert [next(a) for _ in range(50)] != [next(b) for _ in range(50)]


# The six public entry points that take a seed, each called on c8.
SEEDED = [
    pytest.param(lambda s: batch_return_successes(RootMeasure(FIXTURES["c8"], True), 3, 100, s),
                 id="batch_return_successes"),
    pytest.param(lambda s: first_return_counts(RootMeasure(FIXTURES["c8"], False), 100, s),
                 id="first_return_counts"),
    pytest.param(lambda s: sample_first_returns(RootMeasure(FIXTURES["c8"], False), 100, s),
                 id="sample_first_returns"),
    pytest.param(lambda s: estimate_n(RootMeasure(FIXTURES["c8"], True), s), id="estimate_n"),
    pytest.param(lambda s: estimate_gap(FIXTURES["c8"], seed=s), id="estimate_gap"),
    pytest.param(lambda s: SampledReturnTimes(FIXTURES["c8"], s), id="SampledReturnTimes"),
]


@pytest.mark.parametrize("seed", [None, -1, 1.5, "x", [1, -2]])
@pytest.mark.parametrize("entry", SEEDED)
def test_every_seeded_entry_point_refuses_a_bad_seed(monkeypatch, entry, seed):
    """Each entry point that takes a seed refuses None (fresh entropy) and
    every seed numpy refuses with `random_stream`'s one message, before
    any draw: neither half of the root's measure, which every draw
    reads, is built."""
    for half in ("spectral", "kernel"):
        monkeypatch.setattr(RootMeasure, half,
                            property(lambda self: pytest.fail("built the measure")))
    message = ("^seed must be a non-negative integer, a SeedSequence or a "
               f"Generator, got {re.escape(repr(seed))}$")
    with pytest.raises(DomainError, match=message):
        entry(seed)


# The three samplers that take a walker count, each called on c8 with
# seed 1; the cap is the largest count each takes.
COUNTED = [
    pytest.param(lambda m: batch_return_successes(RootMeasure(FIXTURES["c8"], True), 3, m, 1),
                 walk.MAX_WALKERS, id="batch_return_successes"),
    pytest.param(lambda m: first_return_counts(RootMeasure(FIXTURES["c8"], False), m, 1),
                 walk.MAX_WALKERS, id="first_return_counts"),
    pytest.param(lambda m: sample_first_returns(RootMeasure(FIXTURES["c8"], False), m, 1),
                 walk.MAX_SAMPLES, id="sample_first_returns"),
]


@pytest.mark.parametrize("count", [None, -1, 0, 1.5, "x", 2 ** 63, np.float64(3)])
@pytest.mark.parametrize("entry,cap", COUNTED)
def test_every_sampler_refuses_a_bad_walker_count(monkeypatch, entry, cap, count):
    """Each sampler refuses a count that is not an integer from 1 to its
    cap with the one message, before any draw: neither half of the root's
    measure is built."""
    for half in ("spectral", "kernel"):
        monkeypatch.setattr(RootMeasure, half,
                            property(lambda self: pytest.fail("built the measure")))
    message = f"^count must be an integer from 1 to {cap}, got {re.escape(repr(count))}$"
    with pytest.raises(DomainError, match=message):
        entry(count)


def test_walker_count_caps_are_numpys_int64_limits():
    """A binomial or multinomial count is an int64, and `simulate`'s gaps
    one int64 array that numpy must size; a count one above the sample
    cap is refused, and numpy integers are counts."""
    assert walk.MAX_WALKERS == np.iinfo(np.int64).max
    assert walk.MAX_SAMPLES == np.iinfo(np.intp).max // 8
    measure = RootMeasure(FIXTURES["c8"], False)
    with pytest.raises(DomainError, match=f"from 1 to {walk.MAX_SAMPLES}, got"):
        sample_first_returns(measure, walk.MAX_SAMPLES + 1, 1)
    assert sample_first_returns(measure, np.int64(5), 1).size == 5
    assert first_return_counts(measure, np.int32(5), 1).sum() == 5


@pytest.mark.parametrize("t", [-1, -10, 1.5, 2.0])
def test_return_probability_refuses_a_tick_that_is_not_a_count(monkeypatch, t):
    """P_t(r,r) is defined for integer t >= 0: a negative t read 0 or 1
    with divide-by-zero warnings, and t = 1.5 read NaN on the plain chain.
    Both are refused before the spectrum is built."""
    monkeypatch.setattr(RootMeasure, "spectral",
                        property(lambda self: pytest.fail("built the spectrum")))
    with pytest.raises(DomainError, match=rf"^t must be a non-negative integer, got {t!r}$"):
        RootMeasure(FIXTURES["c8"], True).return_probability(t)


@pytest.mark.parametrize("lazy", [True, False])
@pytest.mark.parametrize("k", [-1, 1.5])
def test_batch_success_counts_refuse_a_tick_that_is_not_a_count(lazy, k):
    with pytest.raises(DomainError, match=rf"^t must be a non-negative integer, got {k!r}$"):
        batch_return_successes(RootMeasure(FIXTURES["c8"], lazy), k, 1000, 1)


@pytest.mark.parametrize("stride", [0, -2])
def test_batch_success_counts_refuse_a_stride_below_one(monkeypatch, stride):
    """A stride of 0 read P_0 = 1 at every k; a stride below 1 is refused
    before any draw."""
    monkeypatch.setattr(RootMeasure, "spectral",
                        property(lambda self: pytest.fail("built the spectrum")))
    with pytest.raises(DomainError, match=rf"^stride must be at least 1, got {stride}$"):
        batch_return_successes(RootMeasure(FIXTURES["c8"], True), 3, 1000, 1, stride=stride)


# The law tests below run the batch samplers of batecho.walk (id
# "occupancy", for the walker-count vector they first moved) and the
# per-walker oracle through the same chi-square checks.
SAMPLERS = [pytest.param(walk, id="occupancy"),
            pytest.param(walk_oracle, id="per_walker")]
LAW_GRAPHS = ["c8", "k4", "q3", "star3", "path4", "leafy_cutpoint", "tree_left"]


def _chi2_pvalue(observed, expected):
    """Chi-square p-value of category counts against expected counts.  A
    category expected (to rounding) empty must be empty and is dropped."""
    assert all(o == 0 for o, e in zip(observed, expected) if e < 1e-6)
    pairs = [(o, e) for o, e in zip(observed, expected) if e >= 1e-6]
    chi2 = sum((o - e) ** 2 / e for o, e in pairs)
    return scipy.stats.chi2.sf(chi2, len(pairs) - 1) if len(pairs) > 1 else 1.0


@pytest.mark.parametrize("lazy,k,stride", [(True, 3, 1), (False, 4, 1), (False, 3, 2)],
                         ids=["lazy", "plain", "plain-stride2"])
@pytest.mark.parametrize("name", LAW_GRAPHS)
@pytest.mark.parametrize("sampler", SAMPLERS)
def test_batch_success_counts_are_binomial(sampler, name, lazy, k, stride):
    """The success counts of 100 seeded batches against Binomial(count,
    P_{stride k}(r,r)), by the dispersion chi-square sum (x - count p)^2 /
    (count p (1 - p)) on 100 degrees of freedom: a wrong mean or a wrong
    spread both fail it."""
    g = FIXTURES[name]
    count = 10 ** 6 if sampler is walk else 10 ** 4   # the oracle pays per walker
    ticks = stride * k
    p = float(_exact_returns(g, ticks, lazy)[ticks])
    if sampler is walk:
        draw = functools.partial(walk.batch_return_successes, RootMeasure(g, lazy))
    else:
        draw = functools.partial(walk_oracle.batch_return_successes, g, lazy=lazy)
    hits = np.array([draw(k, count, seed, stride=stride) for seed in range(100)])
    if p in (0.0, 1.0):       # a periodic return: every batch is exact
        assert (hits == count * p).all()
        return
    chi2 = float(np.sum((hits - count * p) ** 2) / (count * p * (1 - p)))
    assert scipy.stats.chi2.sf(chi2, hits.size) > 1e-4, (chi2, hits.mean() / count, p)


def _first_return_law(g, lazy, k_max):
    """Exact P(T1 = k) for k <= k_max: first_return_series for the plain
    walk, and for the lazy walk the same renewal inversion
    p'_k = sum_j s_j p'_{k-j} of the exact lazy return series."""
    if not lazy:
        return fractions(first_return_series(g, return_gen_fun(g), k_max).s)
    p = fractions(lazy_series(g, return_gen_fun(g), k_max).p)
    s = [Fraction(0)] * (k_max + 1)
    for k in range(1, k_max + 1):
        s[k] = p[k] - sum(s[j] * p[k - j] for j in range(1, k))
    return s


@pytest.mark.parametrize("lazy", [False, True], ids=["plain", "lazy"])
@pytest.mark.parametrize("name", LAW_GRAPHS)
@pytest.mark.parametrize("sampler", SAMPLERS)
def test_first_return_histogram_follows_exact_law(sampler, name, lazy):
    """Chi-square of the first-return histogram against the exact law:
    every k with at least 40 expected samples is a bucket, the rest pool
    into one tail bucket.  The first tenth of the sample is checked on its
    own too, because callers read the samples in order."""
    g = FIXTURES[name]
    m = 20000
    if sampler is walk:
        gaps = walk.sample_first_returns(RootMeasure(g, lazy), m, 29)
    else:
        gaps = walk_oracle.sample_first_returns(g, m, 29, lazy=lazy)
    assert gaps.size == m
    s = _first_return_law(g, lazy, 80)
    for part in (gaps, gaps[: m // 10]):
        buckets = [k for k in range(81) if part.size * s[k] >= 40]
        observed = [int(np.sum(part == k)) for k in buckets]
        expected = [part.size * float(s[k]) for k in buckets]
        observed.append(part.size - sum(observed))
        expected.append(part.size - sum(expected))
        assert _chi2_pvalue(observed, expected) > 1e-4, (part.size, observed, expected)


@pytest.mark.parametrize("lazy", [False, True], ids=["plain", "lazy"])
def test_first_return_counts_follow_exact_law_across_blocks(lazy):
    """10^6 first returns on cycle:64 against the exact law out to k = 4n,
    so the histogram spans four n-tick blocks of a large graph: every k
    with at least 40 expected samples is a bucket, the rest pool into one
    tail bucket."""
    g = build_family("cycle", 64)
    m, k_max = 10 ** 6, 4 * g.n
    counts = first_return_counts(RootMeasure(g, lazy), m, 31)
    assert counts.sum() == m and counts[-1] > 0
    s = _first_return_law(g, lazy, k_max)
    buckets = [k for k in range(1, k_max + 1) if m * s[k] >= 40]
    observed = [int(counts[k - 1]) if k <= counts.size else 0 for k in buckets]
    expected = [m * float(s[k]) for k in buckets]
    observed.append(m - sum(observed))
    expected.append(m - sum(expected))
    assert _chi2_pvalue(observed, expected) > 1e-4, (observed, expected)


class _CountingRng(np.random.Generator):
    """A Generator that counts its multinomial draws; the samplers take
    it as their seed, as np.random.default_rng returns a Generator as
    it is."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.multinomials = 0

    def multinomial(self, n, pvals):
        self.multinomials += 1
        return super().multinomial(n, pvals)


@pytest.mark.parametrize("lazy", [False, True], ids=["plain", "lazy"])
def test_return_histogram_draws_one_multinomial_per_block(lazy):
    """The cost model: 10^6 walkers on cycle:64 take one multinomial per
    n-tick block, blocks up to the last return, and the histogram sums to
    the count."""
    g = build_family("cycle", 64)
    rng = _CountingRng(5)
    counts = first_return_counts(RootMeasure(g, lazy), 10 ** 6, rng)
    assert counts.sum() == 10 ** 6 and counts[-1] > 0
    assert rng.multinomials == -(-counts.size // g.n) > 1


INT64_MAX = np.iinfo(np.int64).max


@pytest.mark.parametrize("family,size", [("star", 3), ("star", 9), ("complete", 2),
                                         ("path", 2), ("hypercube", 1)])
def test_zero_survival_ends_in_one_block(family, size):
    """On a plain star every walker is back at tick 2, so the survival
    mass after the first block is exactly 0: one multinomial places all
    2^63 - 1 walkers at tick 2, and nothing divides by that zero.  The
    lazy walk, which can stay out, keeps every walker too."""
    g = build_family(family, size)
    rng = _CountingRng(3)
    with np.errstate(all="raise"):
        counts = first_return_counts(RootMeasure(g, False), INT64_MAX, rng)
        lazy = first_return_counts(RootMeasure(g, True), INT64_MAX, 3)
    assert counts.tolist() == [0, INT64_MAX] and rng.multinomials == 1
    assert lazy.sum() == INT64_MAX and lazy.min() >= 0 and lazy[-1] > 0


@pytest.mark.parametrize("family,size", [("cycle", 64), ("cycle", 62), ("hypercube", 7)])
def test_bipartite_first_returns_stay_even_at_int64_scale(family, size):
    """The plain walk on a bipartite graph first returns at even ticks
    only.  At 2^63 - 1 walkers the multinomial's rounding remainder is
    large enough to land somewhere; it must land on walkers still out,
    never on an odd tick."""
    measure = RootMeasure(build_family(family, size), False)
    for seed in range(5):
        counts = first_return_counts(measure, INT64_MAX, seed)
        assert counts.sum() == INT64_MAX
        assert counts[0::2].sum() == 0, (seed, np.flatnonzero(counts[0::2]) * 2 + 1)
