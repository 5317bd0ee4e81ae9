import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import batecho
from batecho import first_return_series, return_gen_fun
from batecho.cli import build_parser, main, parse_family, render
from batecho.errors import BatechoError, DomainError
from batecho.exact import MAX_EXACT_N
from batecho.graphs import RootedGraph, from_text
from batecho.treefun import MAX_FORGE_K
from batecho.walk import MAX_WALK_N

from exact_oracle import fractions


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
    # a builder's refusal passes through with its own message
    with pytest.raises(DomainError, match="^cycle needs >= 3 vertices$"):
        parse_family("cycle:2")
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


# sha256 of exact payloads as the determinant-based engine printed them
# (the first two) and as the full 2n-tick walk printed them (the graphs
# whose walk now stops at closure); `spectrum` is left out because LAPACK
# floats may differ across BLAS builds.  A change to any exact payload
# fails here.
@pytest.mark.parametrize("argv,digest", [
    ("exact --family cycle:64",
     "b0670cf289fec03a42f777218fffd180087d9b4a880923e0d0f1f820155465af"),
    ("exact --family hypercube:5 --k-max 400",
     "a48fba7d2394cd7bc5c1bcd41f56ccac726cad89f698e398982b5a7226793684"),
    ("exact --family complete:16 --k-max 400",
     "404197314bd2ce9ac6f28e8022341d4d7ded3ce6a4d2637384553db0ef41b031"),
    ("exact --family leafy:3,2,cutpoint --k-max 400",
     "0afdbaa8918829d45c31c478e3218420132d5b8608636903748b547388be0d6f"),
    ("exact --family complete:64",
     "e72e54f66a8c2983f2517b26d4c6d0173bde13b3860e1e586d62ddb6831ae01b"),
    ("exact --family hypercube:6",
     "38f7d1c0fd98c5628b2e6da1d7867d5d963f145a73ac49e61d495ab917b550f6"),
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


# sha256 of seeded statistical payloads as the batch samplers of `walk`
# printed them under the paper's accuracy rule, one evaluation per
# bisection step, with return bits drawn with P_t(r,r) from the spectrum
# and first returns drawn n ticks at a time from the root's law: lazy
# and plain walks on regular and irregular graphs, through the gap search
# (with and without estimated n), the even-time mixing-gap search and
# first-return sampling.
@pytest.mark.parametrize("argv,digest", [
    ("gap --family gab:2,2 --seed 1",
     "fb8d8a29c2e155a70d17d25538b614c6dfbcb6bbfd37102c133be8339350009d"),
    ("gap --family complete:4 --seed 2",
     "d38b0fc3f598c1641d102e93d9bc778ae5b0cd3ddb984018464086a65ed93759"),
    ("gap --family cycle:4 --n estimate --seed 3",
     "28e0d6cd86d813d425a886b04448ffd563c078c0b1ce9173f94235717f0f4b4a"),
    ("mixing-gap --family complete:4 --seed 1",
     "2164c3200c831d1789eb3fa3197f2944fffa48e402b27d3e68ddc6fa5bc645f8"),
    ("mixing-gap --family cycle:5 --seed 2",
     "d3bb1ba3a734c9c2c769303653268ddbd56f97de2b893f4d725c174b97cdbbdf"),
    ("observe --family star:3 --m 50000 --lazy --seed 1",
     "862fc8b66c67c6b9ff645c8e143485ed8da672fc25ce280edd03c091bf842d98"),
    ("observe --family path:4 --m 50000 --seed 2",
     "fcf843df34cebeeaf930c07fb07ca45b205ea35d6d3e916840b405843087fa3b"),
    ("observe --family cycle:64 --m 100000 --seed 3",
     "f780f2d22ccad48dfb94ca08013cf2b44c9aefb8eb83198c0a698d93c3f8ff83"),
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
    g = parse_family(family)
    s = fractions(first_return_series(g, return_gen_fun(g), 60).s)
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
    cert = json.loads(Path(doc["certificate"]).read_text())
    assert cert["return_series_match"] is True
    assert cert["isomorphic"] is False


def test_forge_walks_each_tree_once(capsys, tmp_path, monkeypatch):
    """The certificate reads h and both series off the two walks that
    check the pair's f."""
    walked = []
    real = batecho.treefun.walk_gen_fun
    monkeypatch.setattr(batecho.treefun, "walk_gen_fun",
                        lambda t: walked.append(t.n) or real(t))
    code, out, err = run(capsys, "forge", "--k", "10", "--out", str(tmp_path))
    assert code == 0, err
    assert walked == [json.loads(out)["n_left"], json.loads(out)["n_right"]]


def test_observe_reads_the_histogram_once(capsys, monkeypatch):
    calls = []
    real = batecho.walk.observer_stats
    counted = lambda counts: calls.append(1) or real(counts)
    monkeypatch.setattr(batecho.walk, "observer_stats", counted)
    monkeypatch.setattr(batecho.gap, "observer_stats", counted)
    code, out, err = run(capsys, "observe", "--family", "cycle:8", "--m", "1000")
    assert code == 0, err
    assert len(calls) == 1


def test_graph_file_input(capsys, tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("3 0\n0 1\n1 2\n2 0\n")
    code, out, err = run(capsys, "exact", "--graph", str(p), "--k-max", "4")
    assert code == 0
    assert json.loads(out)["graph"]["n"] == 3


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python sets no digit limit on int-to-string conversion")
def test_exact_refuses_a_number_beyond_the_int_string_limit(capsys, tmp_path):
    """The 24-vertex staircase, vertex i joined to every j < min(i, 24 - i),
    has degrees 1..23, so its lazy scale 2 lcm(1..23) is about 10^10: the
    reduced terms at k_max = 1000 pass CPython's limit on converting an
    int to a string (4300 digits by default), those at 300 do not.
    `exact` exits 2 with a message naming the limit, and leaves that
    process-wide setting as it found it."""
    n = 24
    p = tmp_path / "staircase.txt"
    p.write_text(f"{n} 0\n" + "".join(f"{j} {i}\n" for i in range(n)
                                      for j in range(min(i, n - i))))
    assert sorted(map(len, from_text(p.read_text()).adjacency)) == sorted(
        [*range(1, n), n // 2])
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "exact", "--graph", str(p), "--k-max", "1000")
    assert (code, out) == (2, "")
    assert err == ("batecho: an exact number has more digits than Python converts "
                   f"to a string (limit {limit} digits); lower --k-max\n")
    assert sys.get_int_max_str_digits() == limit
    code, out, err = run(capsys, "exact", "--graph", str(p), "--k-max", "300")
    assert code == 0, err


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


@pytest.mark.parametrize("command,config,flags", [
    ("simulate", {"family": "cycle:4", "sed": 5}, ["--m", "2", "--seed", "1"]),
    ("exact", {"seed": 1}, []),
    ("simulate", {"family": "cycle:4", "help": True, "m": 2}, []),
    ("simulate", {"config": "nope.json", "family": "cycle:4", "m": 2}, []),
])
def test_unknown_config_key_exits_2(capsys, tmp_path, command, config, flags):
    """A config key that names no flag of the subcommand (a misspelling,
    a flag of another subcommand, or --help and --config, which take no
    value from a file) is an error, not silently ignored."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, command, "--config", str(cfg), *flags)
    assert code == 2
    assert err.startswith("batecho: config key")
    assert "Traceback" not in err and out == ""


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


def test_forge_refuses_a_large_k_before_the_divisor_scan(capsys, monkeypatch):
    """A k above forge's cap is refused before _forge_plan's trial
    division runs."""
    monkeypatch.setattr(batecho.treefun, "_forge_plan",
                        lambda k: pytest.fail("divisor scan ran"))
    code, out, err = run(capsys, "forge", "--k", "10000000000000061")
    assert code == 2
    assert err == "batecho: forge capped at k <= 60, got 10000000000000061\n"


@pytest.mark.parametrize("k", [12, 24, MAX_FORGE_K])
def test_forge_builds_pairs_above_the_exact_engine_cap(capsys, tmp_path, k):
    """The forge's walks stop at closure whatever the tree's size, so a
    pair larger than the exact engine's vertex cap (k = 12: 79 vertices)
    is built and certified."""
    code, out, err = run(capsys, "forge", "--k", str(k), "--out", str(tmp_path))
    assert code == 0, err
    doc = json.loads(out)
    assert doc["n_left"] == doc["n_right"] > MAX_EXACT_N
    cert = json.loads(Path(doc["certificate"]).read_text())
    assert cert["return_series_match"] is True
    assert cert["isomorphic"] is False


@pytest.mark.parametrize("command", ["observe", "simulate", "gap", "mixing-gap"])
def test_walk_above_its_vertex_cap_exits_2(capsys, monkeypatch, tmp_path, command):
    """A graph above walk.MAX_WALK_N vertices is refused by all four walk
    commands, before the 16 n^2-byte first-return kernel or the gap
    search's spectrum is built."""
    monkeypatch.setattr(batecho.gap, "spectrum", lambda g: pytest.fail("spectrum built"))
    n = MAX_WALK_N + 1
    p = tmp_path / "path.txt"
    p.write_text(f"{n} 0\n" + "".join(f"{v} {v + 1}\n" for v in range(n - 1)))
    flags = ["--m", "10"] if command in ("observe", "simulate") else []
    code, out, err = run(capsys, command, "--graph", str(p), *flags)
    assert code == 2
    assert err.startswith("batecho: walk simulation capped at n <= 2048")


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


def test_observe_takes_the_largest_int64_count(capsys):
    m = np.iinfo(np.int64).max
    code, out, err = run(capsys, "observe", "--family", "cycle:4", "--m", str(m))
    assert code == 0, err
    assert json.loads(out)["samples"] == m


@pytest.mark.parametrize("family", ["cycle:64", "cycle:62", "hypercube:7"])
def test_observe_finds_bipartite_at_the_largest_count(capsys, family):
    """The parity verdict holds at 2^63 - 1 walkers, where a rounding
    remainder put on an odd tick would read as non-bipartite."""
    for seed in range(5):
        code, out, err = run(capsys, "observe", "--family", family,
                             "--m", str(np.iinfo(np.int64).max), "--seed", str(seed))
        assert code == 0, err
        assert json.loads(out)["parity_verdict"] == "bipartite", seed


def test_render_rejects_unknown_format():
    with pytest.raises(BatechoError):
        render({}, "yaml")


def test_render_refuses_a_non_str_key_above_a_container():
    # json.dumps would write 1 as "1" and refuse the tuple; render takes
    # str keys only, which every payload has
    for payload in ({1: [1]}, {(1, 2): [1]}, {"a": {None: {}}}):
        with pytest.raises(TypeError):
            render(payload, "json")


# JSON values with str keys, with lists of flat rows (some empty) drawn
# often.  The strings include the row breaks and separators the renderer
# writes or replaces, at several depths, so that an encoded string that
# held one would show.
_TEXT = st.one_of(st.text(), st.sampled_from([
    "},\n  {", "},\n    {", "},\n      {", "],\n    [", "],\n      [", ", ", "}", "a\nb",
    "\x00", "\u00e9\u2028\U0001f987"]))
_SCALAR = st.one_of(st.none(), st.booleans(), st.floats(), st.integers(),
                    st.integers(10 ** 20, 10 ** 400), st.integers(-10 ** 400, -10 ** 20),
                    _TEXT)
_JSON = st.recursive(
    st.one_of(_SCALAR,
              st.lists(st.dictionaries(_TEXT, _SCALAR, max_size=4), min_size=1, max_size=4),
              st.lists(st.lists(_SCALAR, max_size=4), min_size=1, max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(value=_JSON)
def test_render_json_equals_indented_json_dumps(value):
    assert render(value, "json") == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_repeated_main_calls_carry_no_state(capsys, monkeypatch, tmp_path):
    """main() builds its parser once per process, and a sequence of calls
    in one process prints what each argv prints alone in a fresh one: a
    usage error, --help, a flag then its absence, and a config then its
    absence."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lazy": True, "m": 500}))
    argvs = [
        ["observe", "--family", "cycle:4", "--m", "many"],
        ["--help"],
        ["observe", "--family", "star:3", "--m", "50000", "--lazy", "--seed", "1"],
        ["observe", "--family", "star:3", "--m", "50000", "--seed", "1"],
        ["observe", "--family", "cycle:4", "--seed", "1", "--config", str(cfg)],
        ["observe", "--family", "cycle:4", "--seed", "1"],
    ]
    monkeypatch.setenv("COLUMNS", "80")     # the help text's width
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(batecho.__file__)))
    for argv in argvs:
        alone = subprocess.run([sys.executable, "-m", "batecho.cli", *argv],
                               capture_output=True, text=True, env=env, timeout=60)
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse's usage error and --help
            code = exc.code
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (alone.returncode, alone.stdout, alone.stderr), argv
    assert build_parser() is build_parser()


@pytest.mark.parametrize("argv", [
    "exact --family cycle:4 --k-max 2000",
    "exact --family cycle:4 --k-max -3",
    "exact --graph /nonexistent",
    "observe --family cycle:4 --m 0",
    "simulate --family cycle:4 --m -1",
    "observe --family cycle:4 --m 10000000000000000000",
    "simulate --family cycle:4 --m 10000000000000000000",
    "simulate --family cycle:4 --m 4611686018427387904",
    "forge --k 4 --k-max 1001",
    "gap --family complete:4 --eps 2",
    "gap --family cycle:64 --c inf",
    "gap --family cycle:64 --c 1e308",
    "gap --family cycle:64 --c 6",
    "gap --family cycle:8 --n 1000",
    "observe --family cycle:4 --m 10 --out /dev/null/x.json",
    "forge --k 4 --out /dev/null",
    "forge --k 1000",
    "forge --k 100000007",
    "forge --k 10000000000000061",
    "simulate --family cycle:4 --m 1152921504606846975",
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
    "exact": {**{f: v for f, v in _COMMON.items() if f != "--seed"},
              "--k-max": st.integers(-2, 50).map(str)},
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
