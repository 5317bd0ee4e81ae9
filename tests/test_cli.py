import hashlib
import json
import os
import subprocess
import sys

import pytest

import batecho
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


def test_mixing_gap_bipartite_reports_instead_of_failing(capsys):
    code, out, err = run(capsys, "mixing-gap", "--family", "cycle:4",
                         "--seed", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "exhausted"
    assert doc["mixing_gap_lower"] == 0.0


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
])
def test_bad_input_exits_2_without_traceback(argv):
    src = os.path.dirname(os.path.dirname(batecho.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "batecho.cli", *argv.split()],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("batecho: ")
