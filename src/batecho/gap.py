"""Spectral-gap estimation from noisy return probabilities.

The estimator binary-searches for the first k where the centered lazy
return probability Q_k = P'_k(r,r) - 1/n drops below 1/n^c, then converts
(k, Q_k) into a bracket on the lazy gap tau = 1 - lambda_2 by

    lambda_2^k / n  <=  Q_k  <=  lambda_2^k:

    tau_upper = 1 - Q_k^(1/k)
    tau_lower = (1 + ln n / ln Q_k) * (1 - Q_k^(1/k))   (by concavity),

with their geometric mean as the point estimate.  The upper end needs 1/n
to be the root's stationary probability (true on regular graphs), and the
lower end needs lambda_2's root weight to be at least 1/n (true on
vertex-transitive graphs).

A search builds one `walk.RootMeasure` and reads every evaluation from
it: the spectrum is decomposed and snapped once per search, and the
first-return kernel is built only when n is estimated from return times.
It also draws from one random stream, `walk.random_stream(seed)`:
first the rounds that estimate n, if it is estimated, then one binomial
per evaluation, in the order the search makes them.  The search is
sequential, so the stream fixes the whole estimate.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainError, SearchExhausted
from .graphs import RootedGraph
from .walk import (MAX_WALKERS, RootMeasure, batch_return_successes,
                   first_return_counts, hoeffding_count, observer_stats, random_stream)


def gap_bounds(q_k: float, k: int, n: int) -> tuple[float, float]:
    """(lower, upper) bracket on the gap implied by q_k at time k.

    The lower bound is only informative once q_k < 1/n; before that it is
    negative and we clamp it to zero.
    """
    if k < 1:
        raise DomainError(f"k must be positive, got {k}")
    if n < 2:
        raise DomainError(f"n must be at least 2, got {n}")
    if not (0.0 < q_k < 1.0):
        raise DomainError(f"q_k must lie in (0, 1), got {q_k}")
    upper = 1.0 - q_k ** (1.0 / k)
    lower = (1.0 + math.log(n) / math.log(q_k)) * upper
    return max(0.0, lower), upper


@dataclass
class GapEstimate:
    k_star: int
    q_k: float
    q_k_minus_1: float
    tau_hat: float
    tau_lower: float
    tau_upper: float
    n_used: int
    c: float
    eps: float
    delta: float
    pk_rule: str
    total_experiments: int
    total_ticks: int
    trace: list = field(default_factory=list)
    flags: list = field(default_factory=list)

    def to_json(self) -> dict:
        """The fields as a dict, with copies of `trace`, its entries and
        `flags`, so that changing the dict leaves the estimate as it was."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["trace"] = [dict(entry) for entry in self.trace]
        doc["flags"] = list(self.flags)
        return doc


def search_budget(n: int, c: float) -> tuple[int, int]:
    """(K0, L): the search horizon and the number of binary-search levels."""
    k0 = math.ceil((c + 1.0) * n * n * math.log(n))
    return k0, math.ceil(math.log2(k0))


def per_eval_eta(n: int, c: float, eps: float) -> float:
    """Per-evaluation additive accuracy eps/(8 n^c) for the
    return-probability estimates: each threshold comparison against 1/n^c
    is then sharp to within a factor 1 +- eps/8."""
    return eps / (8.0 * n ** c)


def estimate_n(measure: RootMeasure, seed) -> int:
    """Estimate n from the root's mean return time under the measure's
    chain (which equals n on a regular graph, lazy or not).  Pools
    rounds of first returns, 2^12 in the first and then as many as are
    pooled, so the pooled count doubles, until the pooled mean's
    standard error sqrt((m2 - m1^2)/m) is at most 1/8, and rounds that
    mean.  Refuses the graph once the pooled count would pass 2^32.
    Every round draws from the one stream `random_stream(seed)`, which
    is `seed` itself when it is a Generator and refuses `None`."""
    rng = random_stream(seed)
    counts, pooled = np.zeros(0, dtype=np.int64), 0
    while pooled < 1 << 32:
        draw = pooled or 1 << 12
        hist = first_return_counts(measure, draw, rng)
        counts = np.pad(counts, (0, max(0, hist.size - counts.size)))
        counts[:hist.size] += hist
        pooled += draw
        mean, mean_sq, _ = observer_stats(counts)
        if mean_sq - mean * mean <= pooled / 64:
            return int(round(mean))
    raise DomainError(f"the mean return time's standard error stayed above "
                      f"1/8 after {pooled} first returns")


def _bracket(q_star: float, k: int, n: int, flags: list) -> tuple[float, float, float]:
    """(tau_hat, tau_lower, tau_upper) from q_k at k = k*.  The point
    estimate is the geometric mean of the bracket, or its upper end when
    the lower end is vacuous; that case is recorded in `flags`."""
    tau_lower, tau_upper = gap_bounds(q_star, k, n)
    if tau_lower > 0.0:
        return math.sqrt(tau_lower * tau_upper), tau_lower, tau_upper
    flags.append("lower_bound_vacuous")
    return tau_upper, tau_lower, tau_upper


def estimate_gap(g: RootedGraph, c: float = 2.0, eps: float = 0.25,
                 delta: float = 0.1, n=None, seed=0,
                 lazy: bool = True, stride: int = 1) -> GapEstimate:
    """Estimate the lazy spectral gap of the walk from return observations.

    Pass n="estimate" to have the routine infer n from return times first
    (regular graphs); an explicit n must be an integer, at most the
    vertex count.
    Raises SearchExhausted if no evaluated k reads at most 1/n^c, which
    signals a gap too small to resolve at this c, or if the estimate at
    the top of the bracket is not positive.  Each k is evaluated once,
    with n_exp experiments, and at most L = ceil(log2 K0) k's are.
    `seed` is anything `random_stream` takes (not `None`), and the search
    draws every experiment from that one stream.
    """
    if not (math.isfinite(c) and c > 0):
        raise DomainError(f"c must be positive and finite, got {c}")
    if not (0 < eps < 1 and 0 < delta < 1):
        raise DomainError(f"eps and delta must lie in (0, 1), got {eps}, {delta}")
    rng = random_stream(seed)
    measure = RootMeasure(g, lazy)
    flags = []
    if n == "estimate":
        n_used = estimate_n(measure, rng)
        flags.append("n_estimated")
    elif n is None:
        n_used = g.n
    else:
        try:
            n_used = operator.index(n)
        except TypeError:
            raise DomainError(f'n must be an integer or "estimate", got {n!r}') from None
        if n_used > g.n:
            raise DomainError(f"n={n_used} exceeds the graph's {g.n} vertices")
    if n_used < 2:
        raise DomainError(f"n must be at least 2, got {n_used}")

    try:
        k0, levels = search_budget(n_used, c)
        n_exp = hoeffding_count(per_eval_eta(n_used, c, eps), delta / levels)
    except (OverflowError, ZeroDivisionError):
        n_exp = math.inf
    if n_exp > MAX_WALKERS:     # an evaluation is one binomial draw
        raise DomainError(f"c={c}, eps={eps}, delta={delta} on n={n_used} need "
                          f"{n_exp:.3g} experiments per evaluation, more than "
                          f"a 64-bit count holds")
    threshold = 1.0 / n_used ** c

    trace = []
    # Q_0 is known exactly: the walk is at the root, so Q_0 = 1 - 1/n.
    cache: dict[int, float] = {0: 1.0 - 1.0 / n_used}

    def q_hat(k: int) -> float:
        if k not in cache:
            succ = batch_return_successes(measure, k, n_exp, rng, stride=stride)
            cache[k] = succ / n_exp - 1.0 / n_used
            trace.append({"k": k, "q_hat": cache[k], "experiments": n_exp,
                          "successes": succ})
        return cache[k]

    lo, hi = 0, k0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if q_hat(mid) > threshold:
            lo = mid
        else:
            hi = mid

    # The top of the bracket must be an evaluated midpoint: K0 itself is
    # never evaluated, so the search makes at most L evaluations.
    if hi == k0:
        raise SearchExhausted(
            f"every estimate up to k={lo} stayed above threshold "
            f"{threshold:.3g} (horizon K0={k0})", n_used)
    q_star = cache[hi]
    if q_star <= 0.0:
        raise SearchExhausted(
            f"q_{hi} estimated at {q_star:.3g}, not positive "
            f"(threshold {threshold:.3g}, horizon K0={k0})", n_used)

    tau_hat, tau_lower, tau_upper = _bracket(q_star, hi, n_used, flags)
    return GapEstimate(k_star=hi, q_k=q_star, q_k_minus_1=cache[lo],
                       tau_hat=tau_hat, tau_lower=tau_lower,
                       tau_upper=tau_upper, n_used=n_used, c=c, eps=eps,
                       delta=delta, pk_rule="paper",
                       total_experiments=n_exp * len(trace),
                       total_ticks=n_exp * stride * sum(e["k"] for e in trace),
                       trace=trace, flags=flags)


@dataclass
class MixingGapEstimate:
    """The mixing-gap report.  `status` is "ok", with the even-time
    chain's estimate and a point estimate, or "exhausted", when the
    even-time search never confirmed its threshold (`detail` says why).
    `to_json` leaves out the fields the outcome does not have."""

    status: str
    mixing_gap_lower: float
    mixing_gap_upper: float
    n_used: int
    mixing_gap_hat: float | None = None
    even_chain: GapEstimate | None = None
    detail: str | None = None

    def to_json(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.even_chain is not None:
            doc["even_chain"] = self.even_chain.to_json()
        return {k: v for k, v in doc.items() if v is not None}


def estimate_mixing_gap(g: RootedGraph, c: float = 2.0, eps: float = 0.25,
                        delta: float = 0.1, n=None, seed=0) -> MixingGapEstimate:
    """Estimate the mixing gap 1 - max(lambda_2, |lambda_n|) of the
    non-lazy walk by observing it at even times only: the even-time chain
    has transition matrix M^2, whose gap relates to the mixing gap by
    gap(M^2) = 1 - max(lambda_2, |lambda_n|)^2.

    On bipartite (or nearly periodic) graphs the even-time chain never
    forgets the root's side, the centered return probability stalls above
    the threshold, and the search exhausts its horizon; that outcome is
    itself the answer (mixing gap ~ 0), so it is reported rather than
    raised.
    """
    try:
        est = estimate_gap(g, c=c, eps=eps, delta=delta, n=n, seed=seed,
                           lazy=False, stride=2)
    except SearchExhausted as exc:
        n_used = exc.n_used
        return MixingGapEstimate(
            status="exhausted",
            mixing_gap_lower=0.0,
            mixing_gap_upper=1.0 - (1.0 - 1.0 / n_used ** c) ** 0.5,
            n_used=n_used,
            detail=str(exc))
    lam_sq_upper = 1.0 - est.tau_lower   # max|lambda|^2 <= this
    lam_sq_lower = max(0.0, 1.0 - est.tau_upper)
    return MixingGapEstimate(
        status="ok",
        mixing_gap_lower=1.0 - math.sqrt(lam_sq_upper) if lam_sq_upper > 0 else 1.0,
        mixing_gap_upper=1.0 - math.sqrt(lam_sq_lower),
        n_used=est.n_used,
        mixing_gap_hat=1.0 - math.sqrt(max(0.0, 1.0 - est.tau_hat)),
        even_chain=est)


def estimate_hitting(m1: float, m2: float) -> float:
    """Plug-in estimate of the stationary hitting time H(pi, r) from the
    sample mean m1 and second moment m2 of the observed return gaps, as
    `observer_stats` reads them off the gaps' histogram:
    E[T1^2] / (2 E[T1]) - 1/2."""
    return m2 / (2.0 * m1) - 0.5


def audit_budget(est: GapEstimate) -> dict:
    """Check the estimator's experiment count against the worst-case
    budget: L evaluations, each sized by Hoeffding at accuracy eps/(8 n^c)
    and confidence delta/L."""
    k0, levels = search_budget(est.n_used, est.c)
    per_eval = hoeffding_count(per_eval_eta(est.n_used, est.c, est.eps),
                               est.delta / levels)
    bound = levels * per_eval
    return {
        "k0": k0,
        "levels": levels,
        "per_eval_bound": per_eval,
        "total_bound": bound,
        "total_experiments": est.total_experiments,
        "within_budget": est.total_experiments <= bound,
    }


def audit_error_chain(est: GapEstimate) -> dict:
    """Verify the invariants the estimate relies on.

    1. the search bracket: q_hat(k*-1) > 1/n^c >= q_hat(k*);
    2. bound ordering: 0 <= tau_lower <= tau_hat <= tau_upper.
    """
    threshold = 1.0 / est.n_used ** est.c
    checks = {
        "bracket_low": est.q_k_minus_1 > threshold,
        "bracket_high": est.q_k <= threshold,
        "bound_order": 0.0 <= est.tau_lower <= est.tau_hat <= est.tau_upper,
    }
    checks["ok"] = all(checks.values())
    return checks
