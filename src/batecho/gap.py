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


def per_eval_eta(n: int, c: float, eps: float, pk_rule: str) -> float:
    """Per-evaluation additive accuracy for the return-probability
    estimates.  The "paper" rule demands eps/(8 n^c), which is safe but
    needs ~n^{2c} experiments per evaluation; the default "desk" rule
    relaxes the exponent to c/2, which keeps every threshold comparison
    sharp to within a constant factor of 1/n^c while staying tractable."""
    if pk_rule == "paper":
        return eps / (8.0 * n ** c)
    if pk_rule == "desk":
        return eps / (8.0 * n ** (c / 2.0))
    raise DomainError(f"unknown pk_rule {pk_rule!r}")


def estimate_n(g: RootedGraph, seed, lazy: bool = True,
               start: int = 1 << 12, max_samples: int = 1 << 22) -> int:
    """Estimate n from the root's mean return time (which equals n on a
    regular graph, lazy or not).  Doubles the sample until two consecutive
    rounded means agree."""
    m = start
    prev = None
    idx = 0
    while m <= max_samples:
        gaps = sample_first_returns(g, m, child_seed(seed, 9000 + idx), lazy=lazy)
        cur = int(round(float(np.mean(gaps))))
        if prev is not None and cur == prev:
            return cur
        prev = cur
        m *= 2
        idx += 1
    return prev


def _evaluate_q(g: RootedGraph, k: int, n_experiments: int, seed,
                lazy: bool, stride: int, n: int) -> tuple[float, int]:
    succ = batch_return_successes(g, k, n_experiments, seed, lazy=lazy, stride=stride)
    return succ / n_experiments - 1.0 / n, succ


def estimate_gap(g: RootedGraph, c: float = 2.0, eps: float = 0.25,
                 delta: float = 0.1, n=None, seed=0, pk_rule: str = "desk",
                 lazy: bool = True, stride: int = 1,
                 max_retries: int = 2) -> GapEstimate:
    """Estimate the lazy spectral gap of the walk from return observations.

    Pass n="estimate" to have the routine infer n from return times first
    (regular graphs).  Raises SearchExhausted if the centered return
    probability never drops below the 1/n^c threshold by the horizon K0,
    which signals a gap too small to resolve at this c.
    """
    if c <= 0:
        raise DomainError(f"c must be positive, got {c}")
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
    if n_used < 2:
        raise DomainError(f"n must be at least 2, got {n_used}")

    k0, levels = search_budget(n_used, c)
    delta_eval = delta / levels
    eta = per_eval_eta(n_used, c, eps, pk_rule)
    n_exp = hoeffding_count(eta, delta_eval)
    threshold = 1.0 / n_used ** c

    trace = []
    total_experiments = 0
    total_ticks = 0
    cache: dict[int, float] = {}
    eval_index = 0

    def q_hat(k: int, retry: int = 0) -> float:
        nonlocal total_experiments, total_ticks, eval_index
        if k in cache and retry == 0:
            return cache[k]
        count = n_exp * (2 ** retry)
        qv, succ = _evaluate_q(g, k, count, child_seed(seed, eval_index),
                               lazy, stride, n_used)
        eval_index += 1
        total_experiments += count
        total_ticks += count * stride * k
        cache[k] = qv
        trace.append({"k": k, "q_hat": qv, "experiments": count,
                      "successes": succ, "retry": retry})
        return qv

    lo, hi = 0, k0
    # Q_0 is known exactly: the walk is at the root, so Q_0 = 1 - 1/n.
    cache[0] = 1.0 - 1.0 / n_used
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if q_hat(mid) > threshold:
            lo = mid
        else:
            hi = mid

    # Confirm the top of the bracket; the horizon was trusted on faith.
    q_star = q_hat(hi)
    retry = 0
    while not (0.0 < q_star <= threshold) and retry < max_retries:
        retry += 1
        q_star = q_hat(hi, retry=retry)
        flags.append(f"retry_k{hi}_x{retry}")
    if not (0.0 < q_star <= threshold):
        raise SearchExhausted(
            f"q_{hi} estimated at {q_star:.3g}, never confirmed below "
            f"threshold {threshold:.3g} (horizon K0={k0})")

    q_prev = cache[lo]
    tau_lower, tau_upper = gap_bounds(q_star, hi, n_used)
    if tau_lower > 0.0:
        tau_hat = math.sqrt(tau_lower * tau_upper)
    else:
        tau_hat = tau_upper
        flags.append("lower_bound_vacuous")

    return GapEstimate(k_star=hi, q_k=q_star, q_k_minus_1=q_prev,
                       tau_hat=tau_hat, tau_lower=tau_lower,
                       tau_upper=tau_upper, n_used=n_used, c=c, eps=eps,
                       delta=delta, pk_rule=pk_rule,
                       total_experiments=total_experiments,
                       total_ticks=total_ticks, trace=trace, flags=flags)


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
            f"exact q_k above 1/n^c up to k={horizon} (K0={k0})")
    q_star = float(table.q[hit])
    q_prev = float(table.q[hit - 1])
    tau_lower, tau_upper = gap_bounds(q_star, hit, n)
    tau_hat = math.sqrt(tau_lower * tau_upper) if tau_lower > 0 else tau_upper
    return GapEstimate(k_star=hit, q_k=q_star, q_k_minus_1=q_prev,
                       tau_hat=tau_hat, tau_lower=tau_lower,
                       tau_upper=tau_upper, n_used=n, c=c, eps=0.0,
                       delta=0.0, pk_rule="exact", total_experiments=0,
                       total_ticks=0, trace=[], flags=["exact"])


def estimate_mixing_gap(g: RootedGraph, c: float = 2.0, eps: float = 0.25,
                        delta: float = 0.1, n=None, seed=0,
                        pk_rule: str = "desk") -> dict:
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
                           pk_rule=pk_rule, lazy=False, stride=2)
    except SearchExhausted as exc:
        n_used = g.n if n in (None, "estimate") else int(n)
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
    budget of the conservative accuracy rule: L evaluations, each sized by
    Hoeffding at accuracy eps/(8 n^c) and confidence delta/L."""
    k0, levels = search_budget(est.n_used, est.c)
    eta_paper = per_eval_eta(est.n_used, est.c, est.eps, "paper")
    per_eval = hoeffding_count(eta_paper, est.delta / levels)
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
        eta = per_eval_eta(est.n_used, est.c, est.eps, est.pk_rule)
        worst = 0.0
        for entry in est.trace:
            err = abs(entry["q_hat"] - float(exact_q(entry["k"])))
            slack = eta / math.sqrt(2 ** entry.get("retry", 0))
            worst = max(worst, err / slack if slack else math.inf)
        checks["evaluations_accurate"] = worst <= 4.0
        checks["worst_eval_ratio"] = worst
    checks["ok"] = all(v for k, v in checks.items()
                       if isinstance(v, bool))
    return checks
