"""Acceptance gate: one test per criterion, each printing a PASS line
with the measured quantities.  Run with -v (and optionally -s) to see one
line per criterion.
"""
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from batecho import (
    ahu_canonical,
    build_gab,
    build_leafy,
    estimate_gap,
    estimate_hitting,
    estimate_pk,
    first_return_counts,
    forge_tree_pair,
    gap_bounds,
    h_from_series,
    h_of_tree,
    hitting_from_stationary,
    lazy_series,
    nondegenerate_set,
    observer_stats,
    poles_to_eigenvalues,
    return_gen_fun,
    spectrum,
)
from batecho.cli import main
from batecho.gap import audit_budget, search_budget
from batecho.ratfun import IntPoly
from batecho.walk import SampledReturnTimes

from conftest import FIXTURES, REGULAR, TREES
from det_oracle import determinant_gen_fun
from field_oracle import Rat, rat_eval
from exact_oracle import (
    estimate_gap_exact,
    find_dependency,
    fractions,
    power_series,
    stationary_hitting_time,
    transition_series,
)

EX1_LEFT = sorted([1, math.sqrt(3) / 2, math.sqrt(6) / 4, 0, 0, 0, 0, 0,
                   -math.sqrt(6) / 4, -math.sqrt(3) / 2, -1], reverse=True)
EX1_RIGHT = sorted([1, math.sqrt(3) / 2, math.sqrt(3) / 2, math.sqrt(6) / 4,
                    0, 0, 0, -math.sqrt(6) / 4, -math.sqrt(3) / 2,
                    -math.sqrt(3) / 2, -1], reverse=True)


def nd_lazy_tau(g):
    """Lazy gap as seen from the root (largest nondegenerate
    eigenvalue below 1); equals the plain lazy gap on all the regular
    fixtures used below."""
    lam2 = max(v for v, w, ok in nondegenerate_set(spectrum(g))
               if ok and v < 1 - 1e-9)
    return 1 - (1 + lam2) / 2


def test_criterion_01_example_pair_reproduction():
    t0 = time.monotonic()
    left, right = forge_tree_pair(4)
    assert left.n == right.n == 11
    assert ahu_canonical(left) != ahu_canonical(right)
    assert return_gen_fun(left) == return_gen_fun(right)
    eig_l = sorted(spectrum(left).eigenvalues, reverse=True)
    eig_r = sorted(spectrum(right).eigenvalues, reverse=True)
    pairs = [(eig_l, EX1_LEFT), (eig_r, EX1_RIGHT)]
    if max(abs(a - b) for a, b in zip(eig_l, EX1_LEFT)) > 1e-9:
        pairs = [(eig_l, EX1_RIGHT), (eig_r, EX1_LEFT)]
    for got, want in pairs:
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-9
    zeros = sorted(int(np.sum(np.abs(np.array(e)) < 1e-9)) for e in (eig_l, eig_r))
    assert zeros == [3, 5]
    dt = time.monotonic() - t0
    assert dt < 1.0
    print(f"\n[criterion 1] PASS: 11-vertex pair, equal gen. functions, "
          f"spectra match to 1e-9, zero multiplicities 5 vs 3, {dt:.2f}s")


def test_criterion_02_gab_closed_form_and_dependency():
    t0 = time.monotonic()
    for a in range(1, 7):
        for b in range(1, 7):
            want = Rat(IntPoly([a * b, -(b - 1)]),
                       IntPoly([a * b, -(a * b - 1)]))
            assert h_of_tree(build_gab(a, b)) == want
    dep = find_dependency([h_of_tree(build_gab(a, b))
                           for a, b in ((1, 4), (2, 2), (4, 1))])
    assert dep == (1, -3, 2)
    dt = time.monotonic() - t0
    assert dt < 1.0
    print(f"\n[criterion 2] PASS: closed form exact for a,b <= 6, "
          f"dependency (1,-3,2) recovered, {dt:.2f}s")


def test_criterion_03_series_consistency():
    t0 = time.monotonic()
    for name, g in FIXTURES.items():
        f = return_gen_fun(g)
        assert power_series(f, 100) == transition_series(g, 100), name
        assert f == determinant_gen_fun(g), name
    for name in TREES:
        t = FIXTURES[name]
        assert power_series(h_of_tree(t), 50) == fractions(h_from_series(t, 51)), name
    dt = time.monotonic() - t0
    assert dt < 30.0
    print(f"\n[criterion 3] PASS: det-based f == transition series (k<=100) "
          f"on {len(FIXTURES)} fixtures; h == survival series (k<=50) "
          f"on {len(TREES)} trees, {dt:.1f}s")


def test_criterion_04_gap_bracket_and_noiseless_factor():
    names = [n for n in REGULAR if FIXTURES[n].n >= 4]
    for name in names:
        g = FIXTURES[name]
        tau = nd_lazy_tau(g)
        qs = fractions(lazy_series(g, return_gen_fun(g), 200).q)
        for k in range(1, 201):
            q = float(qs[k])
            if not (0.0 < q < 1.0):
                break
            lower, upper = gap_bounds(q, k, g.n)
            assert lower <= tau + 1e-9 <= upper + 2e-9, (name, k)
        for c in (1.5, 2.0, 3.0):
            est = estimate_gap_exact(g, c)
            factor = max(est.tau_hat / tau, tau / est.tau_hat)
            assert factor <= 1 + 1 / c + 1e-9, (name, c, factor)
    print(f"\n[criterion 4] PASS: bracket holds for k <= 200 and noiseless "
          f"factor <= 1+1/c on {names}")


def test_criterion_05_qdecrease_and_lambda2_floor():
    for name in REGULAR:
        g = FIXTURES[name]
        if g.n < 4:
            continue
        q = fractions(lazy_series(g, return_gen_fun(g), 200).q)
        for k in range(200):
            assert q[k + 1] >= q[k] / 3, (name, k)
        lam2 = spectrum(g).eigenvalues[1]
        assert (1 + lam2) / 2 >= 1 / 3 - 1e-12, name
    print("\n[criterion 5] PASS: q_{k+1} >= q_k/3 for k <= 200 and lazy "
          "lambda_2 >= 1/3 on all regular fixtures with n >= 4")


@pytest.fixture(scope="module")
def gap_runs():
    runs = {}
    t0 = time.monotonic()
    for name, base in (("c8", 1000), ("k4", 2000)):
        g = FIXTURES[name]
        runs[name] = [estimate_gap(g, c=2.0, eps=0.25, delta=0.1,
                                   n=g.n, seed=base + i)
                      for i in range(100)]
    runs["elapsed"] = time.monotonic() - t0
    return runs


def test_criterion_06_statistical_gap_estimation(gap_runs):
    for name in ("c8", "k4"):
        tau = nd_lazy_tau(FIXTURES[name])
        ratios = [e.tau_hat / tau for e in gap_runs[name]]
        hits = sum(0.75 <= r <= 1.25 for r in ratios)
        assert hits >= 85, (name, hits, min(ratios), max(ratios))
        print(f"\n[criterion 6] {name}: {hits}/100 runs within factor "
              f"1±0.25 (ratios {min(ratios):.3f}..{max(ratios):.3f})")
    assert gap_runs["elapsed"] < 600.0
    print(f"[criterion 6] PASS: total runtime {gap_runs['elapsed']:.0f}s < 600s")


def test_criterion_07_estimator_calibration():
    t0 = time.monotonic()
    g = FIXTURES["c4"]
    k, eps, delta = 3, 0.02, 0.05
    exact = float(fractions(lazy_series(g, return_gen_fun(g), k).p)[k])
    hits = 0
    for i in range(200):
        rt = SampledReturnTimes(g, seed=3000 + i, lazy=True)
        est = estimate_pk(rt, k, eps, delta)
        hits += abs(est.p_hat - exact) < eps
    dt = time.monotonic() - t0
    assert hits >= 186, hits
    assert dt < 120.0
    print(f"\n[criterion 7] PASS: {hits}/200 trials within eps={eps} "
          f"of P'_3={exact:.4f}, {dt:.0f}s")


def test_criterion_08_cost_accounting(gap_runs):
    for name in ("c8", "k4"):
        g = FIXTURES[name]
        k0, _ = search_budget(g.n, 2.0)
        for est in gap_runs[name]:
            audit = audit_budget(est)
            assert audit["within_budget"], (name, audit)
            assert est.k_star <= k0
    print("\n[criterion 8] PASS: all 200 runs within the experiment budget "
          "and k* <= K0")


def test_criterion_09_moment_identity():
    t0 = time.monotonic()
    for name, g in FIXTURES.items():
        res = hitting_from_stationary(return_gen_fun(g))
        assert res.value == stationary_hitting_time(g), name
    for name in ("c4", "triangle"):
        g = FIXTURES[name]
        exact = float(hitting_from_stationary(return_gen_fun(g)).value)
        counts = first_return_counts(g, 10 ** 6, seed=77)
        est = estimate_hitting(*observer_stats(counts)[:2])
        assert abs(est - exact) / exact < 0.01, (name, est, exact)
    dt = time.monotonic() - t0
    assert dt < 60.0
    print(f"\n[criterion 9] PASS: moment identity equals the linear-system "
          f"oracle exactly on all fixtures; sampled estimate within 1% at "
          f"m=1e6, {dt:.0f}s")


def test_criterion_10_reconstruction_and_parity(capsys, tmp_path):
    out = tmp_path / "obs.json"
    assert main(["observe", "--family", "cycle:4", "--seed", "7",
                 "--m", "100000", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["n_hat_if_regular"] == 4
    assert doc["edges_hat"] == 4
    assert main(["observe", "--family", "star:3", "--seed", "8",
                 "--m", "100000", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["edges_hat"] == 3

    verdicts = {}
    for fam in ("cycle:4", "cycle:3"):
        assert main(["observe", "--family", fam, "--seed", "9",
                     "--m", "100", "--out", str(out)]) == 0
        verdicts[fam] = json.loads(out.read_text())["parity_verdict"]
    assert verdicts["cycle:4"] == "bipartite"
    assert verdicts["cycle:3"] == "non-bipartite"

    # exact failure bound: P(100 iid return gaps all even) on the triangle.
    # P(T1 even) = 1 - 1/(2 f(-1)) from the first-return generating function.
    f = return_gen_fun(FIXTURES["triangle"])
    even_mass = 1 - 1 / (2 * rat_eval(f, Fraction(-1)))
    bound = float(even_mass) ** 100
    assert even_mass == Fraction(2, 3)
    assert bound < 1e-17
    print(f"\n[criterion 10] PASS: n=4, |E|=4 on the 4-cycle, |E|=3 on the "
          f"star; parity verdicts correct, exact failure bound "
          f"(2/3)^100 = {bound:.2e}")


def test_criterion_11_nondegeneracy_cross_oracle():
    graphs = dict(FIXTURES)
    graphs["leafy_cut_h3"] = build_leafy(3, 2, mode="cutpoint")
    for name, g in graphs.items():
        pole_eigs, zero_flag = poles_to_eigenvalues(return_gen_fun(g))
        clusters = nondegenerate_set(spectrum(g))
        nd = [v for v, w, ok in clusters if ok]
        nd_nonzero = sorted(v for v in nd if abs(v) > 1e-7)
        assert len(pole_eigs) == len(nd_nonzero), name
        for a, b in zip(sorted(pole_eigs), nd_nonzero):
            assert abs(a - b) < 1e-7, name
        assert zero_flag == any(abs(v) <= 1e-7 for v in nd), name

    g = graphs["leafy_cut_h3"]
    sp = spectrum(g)
    lam2 = sp.eigenvalues[1]
    lam2_cluster = next(cl for cl in nondegenerate_set(sp)
                        if abs(cl[0] - lam2) < 1e-7)
    assert lam2_cluster[2] is False  # degenerate: no weight at the root
    print(f"\n[criterion 11] PASS: pole and weight oracles agree to 1e-7 on "
          f"{len(graphs)} graphs; lambda_2 = {lam2:.4f} of the cutpoint "
          f"construction is degenerate")
