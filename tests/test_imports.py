"""The package loads the float half (`walk`, `gap`), and numpy with it,
only where it is used: `import batecho` and `batecho.cli` run the exact
half with numpy blocked, and the `walk` and `gap` names the package
re-exports resolve on their first lookup.  Each check runs in a fresh
interpreter, since this one has long since imported numpy."""
import json
import os
import subprocess
import sys
import textwrap

import batecho
from batecho.cli import _FAMILIES, main

SRC = os.path.dirname(os.path.dirname(batecho.__file__))

# sys.modules holding None for a module makes importing it raise ImportError
BLOCK_NUMPY = "import sys\nsys.modules['numpy'] = None\n"

# the names `from batecho import *` bound before the float half loaded lazily
STAR_NAMES = [
    "BatechoError", "BudgetOverflow", "DomainError", "GapEstimate", "IntPoly",
    "MixingGapEstimate", "RatFun", "ReturnTimes", "RootMeasure", "RootedGraph",
    "SampledReturnTimes", "SearchExhausted", "ahu_canonical", "attach_new_root",
    "audit_budget", "audit_error_chain", "build_family", "build_gab", "build_leafy",
    "certify_pair", "errors", "estimate_gap", "estimate_hitting", "estimate_mixing_gap",
    "estimate_pk", "exact", "first_return_counts", "first_return_series",
    "forge_tree_pair", "from_edge_list", "from_text", "gap", "gap_bounds",
    "glue_at_roots", "graphs", "h_from_series", "h_of_tree", "hitting_from_stationary",
    "hoeffding_count", "lazy_series", "nondegenerate_set", "observer_stats",
    "poles_to_eigenvalues", "ratfun", "return_gen_fun", "run_experiment",
    "sample_first_returns", "spectrum", "treefun", "walk",
]


def fresh(code: str, *args: str, block_numpy: bool = False):
    """What `code` prints as JSON on its last line, run by a fresh
    interpreter with the package's source on its path and, if
    `block_numpy`, numpy made unimportable first."""
    code = (BLOCK_NUMPY if block_numpy else "") + textwrap.dedent(code)
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_the_exact_half_runs_with_numpy_blocked(tmp_path, capsys):
    """With numpy blocked, the package and the CLI import, every family
    builds, `forge` writes the same bytes as with numpy, and a config
    key that names no flag exits 2 with its message."""
    (tmp_path / "config.json").write_text('{"bogus": 1}')
    got = fresh("""
        import contextlib, io, json
        import batecho, batecho.cli
        from batecho import cli

        specs = ["path:4", "cycle:5", "complete:4", "star:3", "hypercube:3",
                 "gab:2,3", "leafy:2,2,expander"]
        built = {spec.partition(":")[0]: cli.parse_family(spec).n for spec in specs}
        with contextlib.redirect_stdout(io.StringIO()):
            forge = cli.main(["forge", "--k", "4", "--out", sys.argv[1]])
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            config = cli.main(["forge", "--config", sys.argv[2]])
        print(json.dumps({"built": built, "forge": forge, "config": config,
                          "err": err.getvalue(), "numpy": sys.modules["numpy"] is None,
                          "float_half": sorted({"batecho.walk", "batecho.gap"}
                                               & set(sys.modules))}))
        """, str(tmp_path / "blocked"), str(tmp_path / "config.json"), block_numpy=True)
    built = got.pop("built")
    assert built == {"path": 4, "cycle": 5, "complete": 4, "star": 4,
                     "hypercube": 8, "gab": 5, "leafy": 10}
    assert sorted(built) == sorted(_FAMILIES)
    assert got == {"forge": 0, "config": 2, "numpy": True, "float_half": [],
                   "err": "batecho: config key 'bogus' matches no flag of forge\n"}
    assert main(["forge", "--k", "4", "--out", str(tmp_path / "free")]) == 0
    capsys.readouterr()
    files = sorted(p.name for p in (tmp_path / "free").iterdir())
    assert files == ["forged_certificate_k4.json", "forged_left_k4.txt",
                     "forged_right_k4.txt"]
    for name in files:
        assert ((tmp_path / "blocked" / name).read_bytes()
                == (tmp_path / "free" / name).read_bytes()), name


def test_importing_the_cli_leaves_numpy_unloaded():
    assert fresh("""
        import json, sys
        import batecho.cli
        print(json.dumps(sorted({"numpy", "batecho.walk", "batecho.gap"} & set(sys.modules))))
        """) == []


def test_every_exported_name_resolves_to_its_modules_own():
    """Each name in `__all__` is the object its module holds, a module's
    own name the module, looked up first in a fresh interpreter."""
    got = fresh("""
        import json, sys
        import batecho

        same = {}
        for name in batecho.__all__:
            value = getattr(batecho, name)
            home = sys.modules.get(f"batecho.{name}")
            if home is None:
                home = sys.modules[value.__module__]
                same[name] = getattr(home, name) is value
            else:
                same[name] = value is home
        print(json.dumps(same))
        """)
    assert sorted(got) == STAR_NAMES
    assert [name for name, same in got.items() if not same] == []


def test_walk_and_gap_resolve_right_after_a_bare_import():
    """A tool that looks up `batecho.walk` or `batecho.gap` by attribute
    (as perfbench's jobs and tracer do) finds the submodule without
    importing it first."""
    got = fresh("""
        import json, sys
        import batecho
        import batecho.cli
        before = "numpy" in sys.modules
        found = {name: getattr(batecho, name) is sys.modules[f"batecho.{name}"]
                 for name in ("walk", "gap")}
        print(json.dumps([before, found, batecho.walk.MAX_WALK_N
                          is batecho.graphs.MAX_WALK_N]))
        """)
    assert got == [False, {"walk": True, "gap": True}, True]


def test_star_import_and_dir_name_the_same_public_names():
    got = fresh("""
        import json
        import batecho
        names = {}
        exec("from batecho import *", names)
        print(json.dumps([sorted(n for n in names if n != "__builtins__"),
                          [n for n in dir(batecho) if not n.startswith("_")],
                          batecho.__all__]))
        """)
    assert got == [STAR_NAMES] * 3


def test_an_unknown_name_raises_attribute_error():
    got = fresh("""
        import json, sys
        import batecho
        try:
            batecho.no_such_name
        except AttributeError as exc:
            message = str(exc)
        try:
            from batecho import no_such_name
        except ImportError:
            imported = False
        else:
            imported = True
        print(json.dumps([message, imported, hasattr(batecho, "__wrapped__"),
                          "numpy" in sys.modules]))
        """)
    assert got == ["module 'batecho' has no attribute 'no_such_name'", False, False, False]
