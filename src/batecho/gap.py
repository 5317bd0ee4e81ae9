"""Spectral-gap estimation from noisy return probabilities.

The estimator binary-searches for the first k where the centered lazy
return probability Q_k = P'_k(r,r) - 1/n drops below 1/n^c, then converts
(k, Q_k) into a two-sided bracket on the lazy gap via the decay inequality

    (1 - tau)^k  <=  Q_k  <=  n * (1 - tau)^k,

which rearranges to

    tau_upper = 1 - Q_k^(1/k)
    tau_lower = (1 + ln n / ln Q_k) * (1 - Q_k^(1/k)).

The point estimate is the geometric mean of the bracket endpoints; both
endpoints are reported.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DomainError, SearchExhausted
from .exact import MAX_EXACT_K, lazy_series
from .graphs import RootedGraph
from .walk import batch_return_successes, child_seed, hoeffding_count, sample_first_returns


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
        return asdict(self)


def search_budget(n: int, c: float) -> tuple[int, int]:
    """(K0, L): the search horizon and the number of binary-search levels."""
    k0 = math.ceil((c + 1.0) * n * n * math.log(n))
    return k0, math.ceil(math.log2(k0))


def per_eval_eta(n: int, c: float, eps: float) -> float:
    """Per-evaluation additive accuracy eps/(8 n^c) for the
    return-probability estimates: each threshold comparison against 1/n^c
    is then sharp to within a factor 1 +- eps/8."""
    return eps / (8.0 * n ** c)


def estimate_n(g: RootedGraph, seed, lazy: bool = True) -> int:
    """Estimate n from the root's mean return time (which equals n on a
    regular graph, lazy or not).  Doubles the sample from 2^12 up to at
    most 2^22 until two consecutive rounded means agree."""
    m = 1 << 12
    prev = None
    idx = 0
    while m <= 1 << 22:
        gaps = sample_first_returns(g, m, child_seed(seed, 9000 + idx), lazy=lazy)
        cur = int(round(float(np.mean(gaps))))
        if prev is not None and cur == prev:
            return cur
        prev = cur
        m *= 2
        idx += 1
    return prev


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
    (regular graphs); an explicit n may not exceed the vertex count.
    Raises SearchExhausted if the centered return probability at the top
    of the bracket is not in (0, 1/n^c], which signals a gap too small to
    resolve at this c.  Each k is evaluated once, with n_exp experiments.
    """
    if not (math.isfinite(c) and c > 0):
        raise DomainError(f"c must be positive and finite, got {c}")
    if not (0 < eps < 1 and 0 < delta < 1):
        raise DomainError(f"eps and delta must lie in (0, 1), got {eps}, {delta}")
    flags = []
    if n == "estimate":
        n_used = estimate_n(g, seed, lazy=lazy)
        flags.append("n_estimated")
    elif n is None:
        n_used = g.n
    else:
        n_used = int(n)
        if n_used > g.n:
            raise DomainError(f"n={n_used} exceeds the graph's {g.n} vertices")
    if n_used < 2:
        raise DomainError(f"n must be at least 2, got {n_used}")

    try:
        k0, levels = search_budget(n_used, c)
        n_exp = hoeffding_count(per_eval_eta(n_used, c, eps), delta / levels)
    except (OverflowError, ZeroDivisionError):
        n_exp = math.inf
    # an evaluation counts n_exp walkers in an int64 occupancy vector
    if n_exp > np.iinfo(np.int64).max:
        raise DomainError(f"c={c}, eps={eps}, delta={delta} on n={n_used} need "
                          f"{n_exp:.3g} experiments per evaluation, more than "
                          f"a 64-bit count holds")
    threshold = 1.0 / n_used ** c

    trace = []
    # Q_0 is known exactly: the walk is at the root, so Q_0 = 1 - 1/n.
    cache: dict[int, float] = {0: 1.0 - 1.0 / n_used}

    def q_hat(k: int) -> float:
        if k not in cache:
            succ = batch_return_successes(g, k, n_exp, child_seed(seed, len(trace)),
                                          lazy=lazy, stride=stride)
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

    # Confirm the top of the bracket; the horizon was trusted on faith.
    q_star = q_hat(hi)
    if not (0.0 < q_star <= threshold):
        raise SearchExhausted(
            f"q_{hi} estimated at {q_star:.3g}, never confirmed below "
            f"threshold {threshold:.3g} (horizon K0={k0})", n_used)

    tau_hat, tau_lower, tau_upper = _bracket(q_star, hi, n_used, flags)
    return GapEstimate(k_star=hi, q_k=q_star, q_k_minus_1=cache[lo],
                       tau_hat=tau_hat, tau_lower=tau_lower,
                       tau_upper=tau_upper, n_used=n_used, c=c, eps=eps,
                       delta=delta, pk_rule="paper",
                       total_experiments=n_exp * len(trace),
                       total_ticks=n_exp * stride * sum(e["k"] for e in trace),
                       trace=trace, flags=flags)


def estimate_gap_exact(g: RootedGraph, c: float = 2.0) -> GapEstimate:
    """Noiseless twin of estimate_gap: scans the exact lazy return series
    for the first k with q_k <= 1/n^c.  Useful as an oracle for what the
    statistical estimator converges to.  The scan stops at K0 or at the
    exact engine's MAX_EXACT_K, whichever comes first; the series is
    computed once, up to that horizon."""
    n = g.n
    threshold = 1.0 / n ** c
    k0, _ = search_budget(n, c)
    horizon = min(k0, MAX_EXACT_K)
    table = lazy_series(g, horizon)
    hit = next((k for k in range(1, horizon + 1) if table.q[k] <= threshold), None)
    if hit is None:
        raise SearchExhausted(
            f"exact q_k above 1/n^c up to k={horizon} (K0={k0})", n)
    q_star = float(table.q[hit])
    flags = ["exact"]
    tau_hat, tau_lower, tau_upper = _bracket(q_star, hit, n, flags)
    return GapEstimate(k_star=hit, q_k=q_star, q_k_minus_1=float(table.q[hit - 1]),
                       tau_hat=tau_hat, tau_lower=tau_lower,
                       tau_upper=tau_upper, n_used=n, c=c, eps=0.0,
                       delta=0.0, pk_rule="exact", total_experiments=0,
                       total_ticks=0, trace=[], flags=flags)


def estimate_mixing_gap(g: RootedGraph, c: float = 2.0, eps: float = 0.25,
                        delta: float = 0.1, n=None, seed=0) -> dict:
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
        return {
            "status": "exhausted",
            "mixing_gap_upper": 1.0 - (1.0 - 1.0 / n_used ** c) ** 0.5,
            "mixing_gap_lower": 0.0,
            "detail": str(exc),
            "n_used": n_used,
        }
    lam_sq_upper = 1.0 - est.tau_lower   # max|lambda|^2 <= this
    lam_sq_lower = max(0.0, 1.0 - est.tau_upper)
    return {
        "status": "ok",
        "even_chain": est.to_json(),
        "mixing_gap_hat": 1.0 - math.sqrt(max(0.0, 1.0 - est.tau_hat)),
        "mixing_gap_lower": 1.0 - math.sqrt(lam_sq_upper) if lam_sq_upper > 0 else 1.0,
        "mixing_gap_upper": 1.0 - math.sqrt(lam_sq_lower),
        "n_used": est.n_used,
    }


def estimate_hitting(gaps) -> float:
    """Plug-in estimate of the stationary hitting time H(pi, r) from
    observed return gaps: E[T1^2] / (2 E[T1]) - 1/2."""
    arr = np.asarray(gaps, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("need at least one gap")
    m1 = float(np.mean(arr))
    m2 = float(np.mean(arr * arr))
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


def audit_error_chain(est: GapEstimate, exact_q=None) -> dict:
    """Verify the invariants the estimate relies on.

    1. the search bracket: q_hat(k*-1) > 1/n^c >= q_hat(k*);
    2. bound ordering: 0 <= tau_lower <= tau_hat <= tau_upper;
    3. optionally, against an exact q_k oracle, every recorded evaluation
       within 4x its accuracy target (a ~4-sigma allowance).
    """
    threshold = 1.0 / est.n_used ** est.c
    checks = {
        "bracket_low": est.q_k_minus_1 > threshold,
        "bracket_high": est.q_k <= threshold,
        "bound_order": 0.0 <= est.tau_lower <= est.tau_hat <= est.tau_upper,
    }
    if exact_q is not None and est.trace:
        eta = per_eval_eta(est.n_used, est.c, est.eps)
        worst = 0.0
        for entry in est.trace:
            err = abs(entry["q_hat"] - float(exact_q(entry["k"])))
            worst = max(worst, err / eta if eta else math.inf)
        checks["evaluations_accurate"] = worst <= 4.0
        checks["worst_eval_ratio"] = worst
    checks["ok"] = all(v for k, v in checks.items()
                       if isinstance(v, bool))
    return checks
