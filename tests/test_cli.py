import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import batecho
from batecho import first_return_series, return_gen_fun
from batecho.cli import main, parse_family, render
from batecho.errors import BatechoError
from batecho.graphs import RootedGraph


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_family(capsys):
    assert parse_family("cycle:8").n == 8
    assert isinstance(parse_family("gab:2,2"), RootedGraph)
    assert parse_family("gab:2,2").n == 4
    assert parse_family("leafy:2,2,cutpoint").n == 10
    with pytest.raises(BatechoError):
        parse_family("dodecahedron:1")
    with pytest.raises(BatechoError):
        parse_family("cycle:eight")
    code, out, err = run(capsys, "observe", "--family", "gab:2,2",
                         "--seed", "1", "--m", "20000")
    assert code == 0, err
    assert json.loads(out)["edges_hat"] == 3


def test_exact_command_json(capsys):
    code, out, err = run(capsys, "exact", "--family", "cycle:4", "--k-max", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["graph"]["n"] == 4
    assert doc["hitting"]["value"] == 2.5
    assert doc["series"]["q"][3] == {"num": "1", "den": "16"}


def test_exact_output_is_byte_identical(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code = main(["exact", "--family", "hypercube:3", "--out", str(p)])
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


# sha256 of exact payloads as the determinant-based engine printed them;
# `spectrum` is left out because LAPACK floats may differ across BLAS
# builds.  A change to any exact payload fails here.
@pytest.mark.parametrize("argv,digest", [
    ("exact --family cycle:64",
     "b0670cf289fec03a42f777218fffd180087d9b4a880923e0d0f1f820155465af"),
    ("exact --family hypercube:5 --k-max 400",
     "a48fba7d2394cd7bc5c1bcd41f56ccac726cad89f698e398982b5a7226793684"),
])
def test_exact_payload_is_pinned(capsys, argv, digest):
    code, out, err = run(capsys, *argv.split())
    assert code == 0, err
    doc = json.loads(out)
    del doc["spectrum"]
    text = json.dumps(doc, sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_forge_certificate_is_pinned(capsys, tmp_path):
    code, out, err = run(capsys, "forge", "--k", "10", "--out", str(tmp_path))
    assert code == 0, err
    cert = (tmp_path / "forged_certificate_k10.json").read_bytes()
    assert hashlib.sha256(cert).hexdigest() == (
        "8c4eeb1f52a0b901b1c873012b8bbfadb38a04e1ba607e9b3f405b266f5543b6")


# sha256 of seeded statistical payloads as the occupancy-vector walk
# printed them under the paper's accuracy rule, one evaluation per
# bisection step: lazy and plain walks on regular and irregular graphs,
# through the gap search (with and without estimated n), the even-time
# mixing-gap search and first-return sampling.
@pytest.mark.parametrize("argv,digest", [
    ("gap --family gab:2,2 --seed 1",
     "d6241060ec09a37cfadc45076f69b9d3093b9c8ea7b948cb5144fbbf7f3b2f5a"),
    ("gap --family complete:4 --seed 2",
     "fac67700825111a3ae7d33e8f15c463f655f2a3b86a4912da83606ea7079c39a"),
    ("gap --family cycle:4 --n estimate --seed 3",
     "3ea09ec35329816ad72307d8ff482ca5bf7831a6017ed7180902a984d3b53220"),
    ("mixing-gap --family complete:4 --seed 1",
     "0a45b38a0708728bb6bacef5580fb224174d013de9983b9e8a4be1a099a4815e"),
    ("mixing-gap --family cycle:5 --seed 2",
     "f664f39aca261a6ca659a6fd46ba89eda6dfaf6621560a4a60425a07a35218a8"),
    ("observe --family star:3 --m 50000 --lazy --seed 1",
     "3f1a82e0f558994e02eec06289e99f65aa5ade7548fac9710b262edd0fb65f5c"),
    ("observe --family path:4 --m 50000 --seed 2",
     "f9110243ee185dd29dd9e373b55f8c0dd8e8cf68f48464eaf05ad90d0c4dc034"),
    ("observe --family cycle:64 --m 100000 --seed 3",
     "9848ceb70076fdc294f28e483a77d36bb8fcd2497c1bf8ce2323cfb724ba9357"),
])
def test_seeded_payload_is_pinned(capsys, argv, digest):
    code, out, err = run(capsys, *argv.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_gap_run_reproducible(capsys, tmp_path):
    args = ["gap", "--family", "complete:4", "--seed", "9",
            "--c", "2", "--eps", "0.25", "--delta", "0.1"]
    outs = []
    for p in ("x.json", "y.json"):
        code = main(args + ["--out", str(tmp_path / p)])
        assert code == 0
        outs.append((tmp_path / p).read_bytes())
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["budget"]["within_budget"]
    assert doc["checks"]["ok"]


def test_gap_exhaustion_exit_code(capsys):
    # non-regular graph: centered return probability never crosses 1/n^c
    code, out, err = run(capsys, "gap", "--family", "star:3", "--seed", "1")
    assert code == 3
    assert "exhausted" in err


@pytest.mark.parametrize("family", ["path:2", "gab:3,1", "complete:2 --n estimate"])
def test_unconfirmed_top_of_bracket_exits_3(capsys, family):
    """On K2 (lazy q_k = 0 for k >= 1) and on a star rooted at a leaf
    (q_k tends to pi(r) - 1/n < 0) the estimate at k* can fall at or below
    zero.  Each k is evaluated once, so such a run ends in exit 3 and never
    overruns the budget (exit 4); a run that succeeds spends exactly one
    evaluation's experiments per trace entry."""
    for seed in range(5):
        code, out, err = run(capsys, "gap", "--family", *family.split(),
                             "--seed", str(seed))
        assert code in (0, 3), (seed, code, err)
        if code == 0:
            est = json.loads(out)["estimate"]
            n_exp = est["trace"][0]["experiments"]
            assert all(set(e) == {"k", "q_hat", "experiments", "successes"}
                       and e["experiments"] == n_exp for e in est["trace"])
            assert est["total_experiments"] == n_exp * len(est["trace"])


def test_mixing_gap_bipartite_reports_instead_of_failing(capsys):
    code, out, err = run(capsys, "mixing-gap", "--family", "cycle:4",
                         "--seed", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "exhausted"
    assert doc["mixing_gap_lower"] == 0.0


def test_exhausted_mixing_gap_reports_the_n_the_search_used(capsys):
    """With n estimated from the star's mean return time (2, not 4), the
    exhausted report's bound and n_used come from that n."""
    code, out, err = run(capsys, "mixing-gap", "--family", "star:3",
                         "--n", "estimate", "--seed", "1")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["status"] == "exhausted"
    assert "threshold 0.25 (horizon K0=9)" in doc["detail"]
    assert doc["n_used"] == 2
    assert doc["mixing_gap_upper"] == 1.0 - (1.0 - 1.0 / 2 ** 2.0) ** 0.5


def test_observe_reconstruction(capsys):
    code, out, err = run(capsys, "observe", "--family", "cycle:4",
                         "--seed", "3", "--m", "20000")
    assert code == 0
    doc = json.loads(out)
    assert doc["n_hat_if_regular"] == 4
    assert doc["edges_hat"] == 4
    assert doc["parity_verdict"] == "bipartite"


def test_simulate_deterministic(capsys):
    code, a, _ = run(capsys, "simulate", "--family", "cycle:8",
                     "--seed", "4", "--m", "20")
    code2, b, _ = run(capsys, "simulate", "--family", "cycle:8",
                      "--seed", "4", "--m", "20")
    assert code == code2 == 0
    assert a == b
    times = json.loads(a)["return_times"]
    assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))


@pytest.mark.parametrize("family", ["path:4", "cycle:5"])
def test_simulate_gaps_follow_first_return_law(capsys, family):
    """Chi-square of the printed return gaps against the exact
    first-return law: every k with at least 40 expected gaps is a bucket,
    the rest pool into one tail bucket."""
    m = 4000
    code, out, err = run(capsys, "simulate", "--family", family,
                         "--seed", "6", "--m", str(m))
    assert code == 0, err
    times = json.loads(out)["return_times"]
    gaps = np.diff([0] + times)
    s = first_return_series(return_gen_fun(parse_family(family)), 60).s
    buckets = [k for k in range(61) if m * s[k] >= 40]
    observed = [int(np.sum(gaps == k)) for k in buckets]
    expected = [m * float(s[k]) for k in buckets]
    observed.append(m - sum(observed))
    expected.append(m - sum(expected))
    chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    assert scipy.stats.chi2.sf(chi2, len(buckets)) > 1e-4


def test_forge_writes_files_and_certificate(capsys, tmp_path):
    code, out, err = run(capsys, "forge", "--k", "4", "--out", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    for side in ("left", "right"):
        assert os.path.exists(doc["files"][side])
    cert = json.loads(open(doc["certificate"]).read())
    assert cert["return_series_match"] is True
    assert cert["isomorphic"] is False


def test_graph_file_input(capsys, tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("3 0\n0 1\n1 2\n2 0\n")
    code, out, err = run(capsys, "exact", "--graph", str(p), "--k-max", "4")
    assert code == 0
    assert json.loads(out)["graph"]["n"] == 3


def test_missing_graph_is_config_error(capsys):
    code, out, err = run(capsys, "exact")
    assert code == 2
    assert "required" in err


def test_both_graph_sources_rejected(capsys, tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("2 0\n0 1\n")
    code, out, err = run(capsys, "exact", "--graph", str(p),
                         "--family", "cycle:4")
    assert code == 2


def test_config_file_and_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "cycle:4", "m": 50}))
    code, out, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["samples"] == 50
    # explicit flag wins over the config value
    code, out, err = run(capsys, "simulate", "--config", str(cfg), "--m", "10")
    assert json.loads(out)["samples"] == 10


@pytest.mark.parametrize("command,config,flags", [
    ("simulate", {"family": "cycle:4", "m": "5"}, ["--family", "cycle:4", "--m", "5"]),
    ("gap", {"family": "complete:4", "eps": "0.1"},
     ["--family", "complete:4", "--eps", "0.1"]),
])
def test_config_values_get_flag_types(capsys, tmp_path, command, config, flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, from_config, err = run(capsys, command, "--config", str(cfg), "--seed", "3")
    assert code == 0, err
    code, from_flags, err = run(capsys, command, *flags, "--seed", "3")
    assert code == 0, err
    assert from_config == from_flags


@pytest.mark.parametrize("command,config", [
    ("simulate", {"family": "cycle:4", "m": "x"}),
    ("gap", {"family": "complete:4", "pk_rule": "bogus"}),
    ("gap", {"family": "complete:4", "pk_rule": "desk"}),
    ("observe", {"family": "cycle:4", "lazy": "false"}),
])
def test_bad_config_value_exits_2(capsys, tmp_path, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert code == 2
    assert err.startswith("batecho: config value")
    assert "Traceback" not in err


def test_bad_config_file(capsys, tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{nope")
    code, out, err = run(capsys, "simulate", "--config", str(cfg),
                         "--family", "cycle:4")
    assert code == 2


@pytest.mark.parametrize("source", ["--graph", "--config"])
def test_non_utf8_input_file_exits_2(capsys, tmp_path, source):
    p = tmp_path / "bad"
    p.write_bytes(b"\xff")
    code, out, err = run(capsys, "exact", source, str(p))
    assert code == 2
    assert err.startswith("batecho: cannot read")


def test_csv_format_flattens_json(capsys):
    code, js, _ = run(capsys, "observe", "--family", "cycle:4",
                      "--seed", "5", "--m", "1000")
    code2, cs, _ = run(capsys, "observe", "--family", "cycle:4",
                       "--seed", "5", "--m", "1000", "--format", "csv")
    assert code == code2 == 0
    doc = json.loads(js)
    rows = dict(line.split(",", 1) for line in cs.strip().splitlines()[1:])
    assert rows["mean_gap"] == str(doc["mean_gap"])
    assert rows["parity_verdict"] == doc["parity_verdict"]


def test_render_rejects_unknown_format():
    with pytest.raises(BatechoError):
        render({}, "yaml")


@pytest.mark.parametrize("argv", [
    "exact --family cycle:4 --k-max 2000",
    "exact --graph /nonexistent",
    "observe --family cycle:4 --m 0",
    "simulate --family cycle:4 --m -1",
    "gap --family complete:4 --eps 2",
    "gap --family cycle:64 --c inf",
    "gap --family cycle:64 --c 1e308",
    "gap --family cycle:64 --c 6",
    "gap --family cycle:8 --n 1000",
    "observe --family cycle:4 --m 10 --out /dev/null/x.json",
    "forge --k 4 --out /dev/null",
])
def test_bad_input_exits_2_without_traceback(argv):
    src = os.path.dirname(os.path.dirname(batecho.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "batecho.cli", *argv.split()],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("batecho: ")


# Argument values for the argv fuzz test, bounded so that no example is
# expensive: graphs of at most 8 vertices (plus malformed specs), at most
# 10^4 samples, forge k <= 10 and k_max <= 50.
_FAMILY = st.one_of(
    st.builds("path:{}".format, st.integers(2, 8)),
    st.builds("cycle:{}".format, st.integers(3, 8)),
    st.builds("complete:{}".format, st.integers(2, 8)),
    st.builds("star:{}".format, st.integers(1, 7)),
    st.builds("hypercube:{}".format, st.integers(1, 3)),
    st.builds("gab:{},{}".format, st.integers(1, 3), st.integers(1, 3)),
    st.sampled_from(["cycle:2", "cycle:x", "path:", "hypercube:0", "gab:1",
                     "leafy:1,1,bogus", "tesseract:4", ":", "cycle:3,4"]))
_FLOAT = st.floats(allow_nan=True, allow_infinity=True).map(repr)
_COMMON = {"--family": _FAMILY, "--seed": st.integers(-3, 2 ** 64).map(str),
           "--format": st.sampled_from(["json", "csv", "yaml"]),
           "--graph": st.just("/nonexistent/graph.txt")}
_SEARCH = {**_COMMON, "--c": _FLOAT, "--eps": _FLOAT, "--delta": _FLOAT,
           "--n": st.sampled_from(["estimate", "x", "-3", "0", "1", "2", "5", "8"]),
           "--pk-rule": st.sampled_from(["paper", "desk"])}
_SAMPLES = {**_COMMON, "--m": st.integers(-2, 10 ** 4).map(str), "--lazy": st.just(None)}
_FLAGS = {
    "exact": {**_COMMON, "--k-max": st.integers(-2, 50).map(str)},
    "forge": {"--k": st.integers(-2, 10).map(str), "--k-max": st.integers(-2, 50).map(str)},
    "gap": _SEARCH,
    "mixing-gap": _SEARCH,
    "observe": _SAMPLES,
    "simulate": _SAMPLES,
}


@pytest.mark.parametrize("command", sorted(_FLAGS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_argv_exits_with_a_documented_code(command, data):
    """Any argv for any subcommand ends in exit 0, 2, 3 or 4, or in
    argparse's own exit 2, and never in another exception."""
    argv = [command]
    for flag, values in _FLAGS[command].items():
        if data.draw(st.booleans(), label=f"has {flag}"):
            value = data.draw(values, label=flag)
            argv.append(flag if value is None else f"{flag}={value}")
    with tempfile.TemporaryDirectory() as out, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        if command == "forge":
            argv.append(f"--out={out}")
        try:
            code = main(argv)
        except SystemExit as exc:      # argparse rejecting the argv
            code = exc.code
            assert code == 2, argv
    assert code in (0, 2, 3, 4), argv
