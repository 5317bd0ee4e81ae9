"""The three workloads' job lists and the oracle check for each job kind.

A job is one CLI call (`batecho.cli.main(argv)`) or, for the sequential
protocol, one `walk.estimate_pk` call.  Seeded jobs get a fresh seed per
pass, derived from the workload seed; the exact jobs take no seed.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import oracles

FORGE_DIR = os.path.join("perfbench", "out", "forge")
PK_K, PK_EPS, PK_DELTA = 3, 0.02, 0.05
GAP_TOL = 0.25          # tau_hat within a factor 1 +- 0.25 of the exact gap
DEFAULT_K_MAX = 20      # `exact` series length when --k-max is not given


@dataclass(frozen=True)
class Job:
    kind: str                  # CLI subcommand, or "estimate_pk"
    args: tuple[str, ...] = ()
    seeded: bool = True

    @property
    def label(self) -> str:
        return " ".join((self.kind,) + self.args)

    def opt(self, flag: str, default=None):
        return self.args[self.args.index(flag) + 1] if flag in self.args else default

    @property
    def family(self) -> str | None:
        return "cycle:4" if self.kind == "estimate_pk" else self.opt("--family")

    def argv(self, seed: int) -> list[str]:
        argv = [self.kind, *self.args]
        if self.seeded:
            argv += ["--seed", str(seed)]
        if self.kind == "forge":
            argv += ["--out", FORGE_DIR]
        return argv


def _observe(family: str, *extra: str) -> Job:
    return Job("observe", ("--family", family, *extra, "--m", "1000000"))


WORKLOADS: dict[str, list[Job]] = {
    "gap-search": [
        Job("gap", ("--family", "cycle:8")),
        Job("gap", ("--family", "hypercube:3")),
        Job("gap", ("--family", "complete:4", "--pk-rule", "paper")),
        Job("mixing-gap", ("--family", "cycle:7")),
        Job("mixing-gap", ("--family", "complete:4")),
    ],
    "exact-profile": [
        Job("exact", ("--family", "cycle:64"), seeded=False),
        Job("exact", ("--family", "hypercube:5", "--k-max", "400"), seeded=False),
        Job("exact", ("--family", "complete:16", "--k-max", "400"), seeded=False),
        Job("exact", ("--family", "leafy:3,2,cutpoint", "--k-max", "400"), seeded=False),
    ] + [Job("forge", ("--k", str(k)), seeded=False) for k in (4, 6, 8, 9, 10)],
    "return-sampling": [
        _observe("cycle:64"),
        _observe("hypercube:3"),
        _observe("star:3"),
        _observe("leafy:3,2,cutpoint", "--lazy"),
        Job("simulate", ("--family", "hypercube:3", "--lazy", "--m", "20000")),
        Job("estimate_pk"),
    ],
}

# Reproduced defects, run once per run outside the timed passes so that
# the timed jobs never fail.  A probe that stops failing has its output
# checked like any other job.
KNOWN_DEFECTS: dict[str, list[Job]] = {
    "gap-search": [],
    "exact-profile": [Job("forge", ("--k", "12"), seeded=False)],
    "return-sampling": [_observe("gab:2,2")],
}


def job_seed(seed: int, pass_index: int, job_index: int) -> int:
    return int(np.random.SeedSequence([seed, pass_index, job_index]).generate_state(1)[0])


def pass_jobs(workload: str, seed: int, pass_index: int) -> list[tuple[Job, int]]:
    """The workload's job list for one pass, in a seeded order, each job
    with its own seed."""
    jobs = WORKLOADS[workload]
    order = np.random.default_rng([seed, pass_index]).permutation(len(jobs))
    return [(jobs[i], job_seed(seed, pass_index, int(i))) for i in order]


@dataclass
class Outcome:
    job: Job
    seed: int
    seconds: float
    rc: int | None             # None when the call raised
    text: str                  # what the job printed
    files: tuple = ()          # (path, content) of each file the job wrote
    error: str | None = None

    @property
    def output(self) -> tuple:
        """Everything the job produced, for byte-for-byte comparison."""
        return (self.rc, self.text, self.files)


@dataclass
class Verdict:
    ok: bool                   # passed every deterministic check
    within: list[bool]         # one entry per estimate: within tolerance?
    why: str = ""


def _fail(why: str) -> Verdict:
    return Verdict(False, [False], why)


class Checker:
    """Checks outcomes against exact references, which it computes once
    per graph and keeps."""

    def __init__(self, cli):
        self._cli = cli
        self._graphs: dict[str, object] = {}
        self._memo: dict[tuple, object] = {}
        self._verified: set[tuple] = set()

    def graph(self, spec: str):
        if spec not in self._graphs:
            g = self._cli.parse_family(spec)
            self._graphs[spec] = getattr(g, "graph", g)
        return self._graphs[spec]

    def _ref(self, key: tuple, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def prepare(self, jobs: list[Job]) -> None:
        """Compute every reference the jobs need, outside any timed region."""
        for job in jobs:
            if job.family:
                self._references(job)

    def _references(self, job: Job):
        spec = job.family
        g = self.graph(spec)
        if job.kind == "gap":
            return self._ref(("gap", spec), lambda: oracles.root_visible_lazy_gap(g))
        if job.kind == "mixing-gap":
            return self._ref(("mixing", spec), lambda: oracles.root_visible_mixing_gap(g))
        if job.kind == "exact":
            k_max = int(job.opt("--k-max", DEFAULT_K_MAX))
            return (self._ref(("lazy", spec, k_max), lambda: oracles.return_series(g, k_max, True)),
                    self._ref(("plain", spec, k_max), lambda: oracles.scaled_return_series(g, k_max, False)),
                    self._ref(("hitting", spec), lambda: oracles.hitting_from_stationary(g)),
                    self._ref(("spectrum", spec), lambda: oracles.spectrum(g)[0]))
        if job.kind in ("observe", "simulate"):
            return self._ref(("bipartite", spec), lambda: oracles.is_bipartite(g))
        if job.kind == "estimate_pk":
            return self._ref(("pk", spec), lambda: float(oracles.return_series(g, PK_K, True)[PK_K]))
        return None

    def check(self, out: Outcome) -> Verdict:
        job = out.job
        if out.rc is None:
            return _fail(out.error or "raised")
        if out.rc not in (0, 2, 3, 4):
            return _fail(f"undocumented exit code {out.rc}")
        if job.kind in ("gap", "mixing-gap") and out.rc in (3, 4):
            # documented outcomes that deliver no estimate
            return Verdict(True, [False], f"exit {out.rc}")
        if out.rc != 0:
            return _fail(f"exit {out.rc}")
        if not job.seeded and (job.label, out.output) in self._verified:
            return Verdict(True, [True])
        try:
            verdict = getattr(self, "_check_" + job.kind.replace("-", "_"))(job, out)
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            return _fail(f"malformed output: {type(exc).__name__}: {exc}")
        if verdict.ok and not job.seeded:
            self._verified.add((job.label, out.output))
        return verdict

    def _check_gap(self, job: Job, out: Outcome) -> Verdict:
        doc = json.loads(out.text)
        est = doc["estimate"]
        if doc["checks"]["ok"] is not True or doc["budget"]["within_budget"] is not True:
            return _fail("estimate failed its own audits")
        if not est["tau_lower"] <= est["tau_hat"] <= est["tau_upper"]:
            return _fail("bracket out of order")
        if est["total_experiments"] != sum(t["experiments"] for t in est["trace"]):
            return _fail("experiment total disagrees with the trace")
        ratio = est["tau_hat"] / self._references(job)
        return Verdict(True, [abs(ratio - 1.0) <= GAP_TOL])

    def _check_mixing_gap(self, job: Job, out: Outcome) -> Verdict:
        doc = json.loads(out.text)
        lo, hi = doc["mixing_gap_lower"], doc["mixing_gap_upper"]
        if doc["status"] not in ("ok", "exhausted") or not lo <= hi:
            return _fail("malformed mixing-gap report")
        return Verdict(True, [lo <= self._references(job) <= hi])

    def _check_exact(self, job: Job, out: Outcome) -> Verdict:
        doc = json.loads(out.text)
        g = self.graph(job.family)
        lazy_p, (a, base), hitting, eigenvalues = self._references(job)
        k_max = len(lazy_p) - 1
        series = doc["series"]
        if doc["graph"]["n"] != g.n or series["k_max"] != k_max:
            return _fail("wrong graph or series length")
        p = [Fraction(int(x["num"]), int(x["den"])) for x in series["p"]]
        q = [Fraction(int(x["num"]), int(x["den"])) for x in series["q"]]
        if p != lazy_p or q != [x - Fraction(1, g.n) for x in lazy_p]:
            return _fail("lazy series differs from the exact walk")
        num = [int(x) for x in doc["gen_fun"]["num"]]
        den = [int(x) for x in doc["gen_fun"]["den"]]
        if not oracles.series_matches_ratio(num, den, a, base):
            return _fail("generating function's series differs from the exact walk")
        mean_t1 = Fraction(2 * oracles.edge_count(g), len(g.adjacency[g.root]))
        if doc["mean_return_time"] != str(mean_t1) or doc["hitting"]["mean_t1"] != str(mean_t1):
            return _fail("mean return time is not 2|E|/d(r)")
        if not math.isclose(doc["hitting"]["value"], hitting, rel_tol=1e-9):
            return _fail("hitting time differs from the linear system")
        got = np.array(doc["spectrum"]["eigenvalues"])
        if got.shape != eigenvalues.shape or np.max(np.abs(got - eigenvalues)) > 1e-8:
            return _fail("spectrum differs")
        return Verdict(True, [True])

    def _check_forge(self, job: Job, out: Outcome) -> Verdict:
        doc = json.loads(out.text)
        files = dict(out.files)
        cert = json.loads(files[doc["certificate"]])
        if cert["return_series_match"] is not True or cert["isomorphic"] is not False:
            return _fail("certificate does not certify a forged pair")
        left, right = (oracles.TextGraph(files[doc["files"][side]])
                       for side in ("left", "right"))
        terms = 2 * cert["return_series_terms_checked"] + 2
        if oracles.return_series(left, terms, False) != oracles.return_series(right, terms, False):
            return _fail("forged trees have different return series")
        if oracles.tree_code(left) == oracles.tree_code(right):
            return _fail("forged trees are isomorphic")
        return Verdict(True, [True])

    def _check_observe(self, job: Job, out: Outcome) -> Verdict:
        doc = json.loads(out.text)
        g = self.graph(job.family)
        lazy = "--lazy" in job.args
        verdict = "bipartite" if (not lazy and self._references(job)) else "non-bipartite"
        if doc["samples"] != int(job.opt("--m")) or doc["lazy"] != lazy:
            return _fail("wrong sample count or laziness")
        if doc["parity_verdict"] != verdict or not doc["mean_gap"] > 0:
            return _fail("wrong parity verdict")
        within = [doc["edges_hat"] == oracles.edge_count(g)]
        if oracles.is_regular(g):
            within.append(doc["n_hat_if_regular"] == g.n)
        return Verdict(True, within)

    def _check_simulate(self, job: Job, out: Outcome) -> Verdict:
        doc = json.loads(out.text)
        times = doc["return_times"]
        m = int(job.opt("--m"))
        if len(times) != m or doc["samples"] != m or doc["lazy"] != ("--lazy" in job.args):
            return _fail("wrong sample count or laziness")
        if times[0] < 1 or any(b <= a for a, b in zip(times, times[1:])):
            return _fail("return times not strictly increasing")
        g = self.graph(job.family)
        return Verdict(True, [round(times[-1] / m) == g.n] if oracles.is_regular(g) else [])

    def _check_estimate_pk(self, job: Job, out: Outcome) -> Verdict:
        doc = json.loads(out.text)
        n = oracles.hoeffding_count(PK_EPS, PK_DELTA)
        if doc["experiments"] != n or not 0 <= doc["successes"] <= n:
            return _fail("experiment count is not the Hoeffding count")
        if doc["p_hat"] != doc["successes"] / n:
            return _fail("p_hat is not successes / experiments")
        return Verdict(True, [abs(doc["p_hat"] - self._references(job)) < PK_EPS])
