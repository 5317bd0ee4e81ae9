"""batecho benchmark: one closed-loop client, in-process, one workload per run.

    python3 perfbench/run.py --workload gap-search --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  With `--trace 0` the run measures set-up time in fresh
interpreters, then repeats the workload's job list (one pass) until
`--seconds` is spent and reports the end-to-end metrics.  With `--trace 1`
it runs one pass untraced, the same pass traced, and a traced replay; it
reports the per-layer metrics of the traced pass, the tracing overhead,
and fails the run if the replay differs in any output or count.  Every
output is checked against an exact reference outside the timed region.
The last line of stdout is the JSON result.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path("perfbench", "out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 9
PROBE_PASS = 1 << 20    # pass index that seeds the known-defect probes
SETUP_CODE = """\
import json, sys
sys.path.insert(0, "src")
import batecho
from batecho import cli
graphs = [getattr(g, "graph", g) for g in map(cli.parse_family, sys.argv[1:])]
print(json.dumps([batecho.__file__, [[g.n, g.edge_count] for g in graphs]]))
"""


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: a latency some job actually had."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * p // 100) - 1)]


def job_id(pass_index: int, index: int, job) -> str:
    """The id that tags a job's spans."""
    return f"p{pass_index}-j{index} {job.label}"


class Bench:
    def __init__(self, pkg, workload: str, seed: int):
        import workloads
        self.pkg = pkg
        self.wl = workloads
        self.workload = workload
        self.seed = seed
        self.checker = workloads.Checker(pkg.cli)
        self.attempted = 0
        self.failed = 0
        self.within: list[bool] = []
        self.misses: list[str] = []
        self.problems: list[str] = []

    # -- running jobs ------------------------------------------------------
    def run_job(self, job, seed: int, tracer=None, job_id: str = ""):
        out, err = io.StringIO(), io.StringIO()
        span = tracer.job_span(job_id) if tracer else contextlib.nullcontext()
        rc, error, result = None, None, None
        t0 = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if job.kind == "estimate_pk":
                    walk = self.pkg.walk
                    rt = walk.SampledReturnTimes(self.pkg.cli.parse_family(job.family),
                                                 seed, lazy=True)
                    result = walk.estimate_pk(rt, self.wl.PK_K, self.wl.PK_EPS,
                                              self.wl.PK_DELTA)
                    rc = 0
                else:
                    rc = self.pkg.cli.main(job.argv(seed))
        except (Exception, SystemExit) as exc:
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        text = out.getvalue()
        if result is not None:
            text = json.dumps(dataclasses.asdict(result), sort_keys=True)
        files = ()
        if job.kind == "forge" and rc == 0:
            try:
                doc = json.loads(text)
                files = tuple((p, Path(p).read_text())
                              for p in (doc["certificate"], *doc["files"].values()))
            except (ValueError, KeyError, TypeError, OSError):
                pass    # the check reports the missing files
        return self.wl.Outcome(job, seed, seconds, rc, text, files,
                               error or (err.getvalue().strip() or None))

    def run_pass(self, pass_index: int, tracer=None):
        """One pass over the job list; returns (wall seconds, outcomes)."""
        jobs = self.wl.pass_jobs(self.workload, self.seed, pass_index)
        t0 = time.perf_counter()
        outcomes = [self.run_job(job, seed, tracer, job_id(pass_index, i, job))
                    for i, (job, seed) in enumerate(jobs)]
        return time.perf_counter() - t0, outcomes

    def judge(self, outcomes) -> list[float]:
        """Check each outcome; returns the latencies of the successful jobs."""
        latencies = []
        for out in outcomes:
            verdict = self.checker.check(out)
            self.attempted += 1
            self.within.extend(verdict.within)
            if not all(verdict.within):
                self.misses.append(f"{out.job.label} seed {out.seed}")
            if verdict.ok:
                latencies.append(out.seconds)
            else:
                self.failed += 1
                self.problems.append(f"{out.job.label} seed {out.seed}: {verdict.why}")
        return latencies

    def probe_known_defects(self) -> int:
        """Run each known defect once, untimed; returns how many still fail."""
        still_failing = 0
        for i, job in enumerate(self.wl.KNOWN_DEFECTS[self.workload]):
            out = self.run_job(job, self.wl.job_seed(self.seed, PROBE_PASS, i))
            if out.rc == 0:
                verdict = self.checker.check(out)
                state = "now succeeds, output " + ("correct" if verdict.ok else "WRONG")
                if not verdict.ok:
                    self.problems.append(f"known defect {job.label}: {verdict.why}")
            else:
                still_failing += 1
                state = f"still fails: {out.error or f'exit {out.rc}'}"
            print(f"known_defect  {job.label!r}  {state}")
        return still_failing

    # -- set-up time ---------------------------------------------------------
    def measure_setup(self) -> float:
        """Median time for a fresh interpreter to import the package and
        build the workload's graphs (one unmeasured warm-up first)."""
        specs = sorted({j.family for j in self.wl.WORKLOADS[self.workload] if j.family})
        expected = [str(ROOT / "src" / "batecho" / "__init__.py"),
                    [[g.n, g.edge_count] for g in map(self.checker.graph, specs)]]
        times = []
        for i in range(SETUP_REPEATS + 1):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *specs],
                                  capture_output=True, text=True, timeout=120)
            dt = time.perf_counter() - t0
            try:
                got = json.loads(proc.stdout)
            except ValueError:
                got = None
            if proc.returncode != 0 or got != expected:
                self.problems.append(f"set-up run failed: {proc.stderr.strip()[-200:]}")
            if i:
                times.append(dt)
        return statistics.median(times)

    # -- the two modes -------------------------------------------------------
    def untraced(self, seconds: float) -> dict:
        setup_s = self.measure_setup()
        walls, latencies, first_output = [], [], {}
        start = time.perf_counter()
        while True:
            wall, outcomes = self.run_pass(len(walls))
            walls.append(wall)
            latencies.append(self.judge(outcomes))
            for out in outcomes:
                if not out.job.seeded:
                    if first_output.setdefault(out.job.label, out.output) != out.output:
                        self.failed += 1
                        self.problems.append(f"{out.job.label}: output changed between passes")
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(walls) > seconds:
                break
        self.probe_known_defects()
        n = sum(map(len, latencies))
        print(f"passes {len(walls)} in {elapsed:.2f} s: " + " ".join(f"{w:.3f}" for w in walls))
        metrics = {"setup_s": (setup_s, "s", f"median of {SETUP_REPEATS} fresh interpreters"),
                   "wall_s": (statistics.median(walls), "s", f"median of {len(walls)} passes")}
        # each pass's median and 90th percentile, then the median over passes;
        # the pass median averages the two middle jobs of an even-sized pass
        for name, stat in (("job_s_p50", statistics.median),
                           ("job_s_p90", lambda lat: percentile(lat, 90))):
            per_pass = [stat(lat) for lat in latencies if lat]
            if per_pass:
                metrics[name] = (statistics.median(per_pass), "s",
                                 f"{n} successful jobs in {len(walls)} passes")
        metrics["within_tol_frac"] = (sum(self.within) / len(self.within), "ratio",
                                      f"{sum(self.within)} of {len(self.within)} estimates")
        for name, (value, unit, note) in metrics.items():
            print(f"{name:16s} {value:.4f} {unit:6s} ({note})")
        # not a gated metric: it equals failed / attempted in the result
        print(f"ops_failed_frac  {self.failed / self.attempted:.4f} ratio  "
              f"({self.failed} of {self.attempted} jobs)")
        return {name: (value, unit) for name, (value, unit, _) in metrics.items()}

    def traced(self) -> dict:
        import tracing
        wall_plain, plain = self.run_pass(0)
        self.judge(plain)
        exact_jobs = {job_id(0, i, out.job) for i, out in enumerate(plain)
                      if out.job.kind == "exact"}
        runs = []
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        trace_path = OUT_DIR / f"trace-{self.workload}-seed{self.seed}.jsonl"
        with open(trace_path, "w") as fh:
            for label in ("traced", "replay"):
                tracer = tracing.Tracer()
                tracer.install(self.pkg)
                try:
                    wall, outcomes = self.run_pass(0, tracer)
                finally:
                    tracer.uninstall()
                tracer.write(fh, label)
                runs.append((wall, outcomes, tracing.layer_metrics(tracer.spans, exact_jobs)))
        (wall_traced, traced, metrics), (_, replay, again) = runs
        self.attempted += len(traced) + len(replay)
        for a, *rest in zip(plain, traced, replay):
            for b in rest:
                if b.output != a.output:
                    self.failed += 1
                    self.problems.append(f"{a.job.label}: output differs from the same-seed pass")
        for name in tracing.DETERMINISTIC:
            if metrics[name] != again[name]:
                self.problems.append(f"{name} differs on replay: {metrics[name][0]} vs {again[name][0]}")
        metrics["trace.overhead_s"] = (wall_traced - wall_plain, "s")
        metrics["trace.overhead_frac"] = ((wall_traced - wall_plain) / wall_plain, "ratio")
        metrics["probe.known_defects_failed"] = (self.probe_known_defects(), "count")
        for name, (value, unit) in metrics.items():
            print(f"{name:36s} {value:.6g} {unit}")
        print(f"spans written to {trace_path}")
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("gap-search", "exact-profile", "return-sampling"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.chdir(ROOT)
    src = ROOT / "src"
    if not (src / "batecho" / "__init__.py").is_file():
        print(f"perfbench: no package source at {src / 'batecho'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy
    import batecho
    import batecho.cli
    if Path(batecho.__file__).resolve().parent != src / "batecho":
        print(f"perfbench: imported batecho from {batecho.__file__}, not {src}",
              file=sys.stderr)
        return 2

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {sys.version.split()[0]}  numpy {numpy.__version__}  cpus {os.cpu_count()}")
    bench = Bench(batecho, args.workload, args.seed)
    bench.checker.prepare(bench.wl.WORKLOADS[args.workload])
    metrics = bench.traced() if args.trace else bench.untraced(args.seconds)
    for miss in bench.misses:
        print(f"out of tolerance  {miss}")
    for problem in bench.problems:
        print(f"PROBLEM  {problem}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
