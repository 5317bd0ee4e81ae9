"""Command-line front end.

Subcommands:
    exact       exact return-probability series, generating function,
                spectrum, and hitting time for a small graph
    forge       build a pair of non-isomorphic trees with matching
                return-time statistics
    gap         statistical spectral-gap estimate from simulated
                return observations
    mixing-gap  statistical mixing-gap estimate (even-time observations)
    observe     summary statistics of simulated return gaps
    simulate    raw return times from a seeded walk

Options may also come from a JSON config file (--config); explicit flags
win over the config, which wins over defaults.  Output is deterministic
for a fixed seed and is written with sorted keys so runs are
byte-comparable.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys

import numpy as np

from . import exact as ex
from . import gap as gp
from . import graphs, treefun, walk
from .errors import BatechoError, BudgetOverflow, DomainError, SearchExhausted

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EXHAUSTED = 3
EXIT_BUDGET = 4

_FAMILIES = ("path", "cycle", "complete", "star", "hypercube", "gab", "leafy")


def parse_family(spec: str) -> graphs.RootedGraph:
    """Build a named graph from a spec like 'cycle:8', 'gab:2,2' or
    'leafy:3,2,cutpoint'."""
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    args = [a.strip() for a in rest.split(",")] if rest else []
    if name not in _FAMILIES:
        raise BatechoError(f"unknown family {name!r}; choose from {_FAMILIES}")
    try:
        if name == "gab":
            a, b = args
            a, b = int(a), int(b)
        elif name == "leafy":
            h, d, mode = args
            h, d = int(h), int(d)
        else:
            (size,) = args
            size = int(size)
    except ValueError as exc:
        raise BatechoError(f"bad family spec {spec!r}: {exc}") from exc
    # the builders' own refusals pass through with their messages
    if name == "gab":
        return graphs.build_gab(a, b)
    if name == "leafy":
        return graphs.build_leafy(h, d, mode=mode)
    return graphs.build_family(name, size)


def load_graph(opts) -> graphs.RootedGraph:
    if opts.get("graph") and opts.get("family"):
        raise BatechoError("give either --graph or --family, not both")
    if opts.get("graph"):
        try:
            with open(opts["graph"], encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise BatechoError(f"cannot read graph {opts['graph']}: {exc}") from exc
        return graphs.from_text(text)
    if opts.get("family"):
        return parse_family(opts["family"])
    raise BatechoError("a graph is required: pass --graph FILE or --family SPEC")


def _flatten(prefix: str, value, into: list):
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], into)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, into)
    else:
        into.append((prefix, value))


_SCALARS = {str, int, float, bool, type(None)}


def _json_text(value, depth: int) -> str:
    """`json.dumps(value, sort_keys=True, indent=2)` for a value nested
    `depth` levels deep whose dict keys are str.  `json.dumps` uses its C
    encoder only without `indent`, so each container of scalars, and
    each table (a list of non-empty dicts of scalars, or of non-empty
    lists of scalars, such as a graph's edges), is one C call whose item
    separator carries the newline and indent; the rest recurses."""
    if not isinstance(value, (dict, list, tuple)) or not value:
        return json.dumps(value)
    outer = "\n" + "  " * depth
    pad = outer + "  "
    sep = "," + pad
    if isinstance(value, dict):
        if {type(v) for v in value.values()} <= _SCALARS:
            items = json.JSONEncoder(sort_keys=True, separators=(sep, ": ")).encode(value)[1:-1]
        else:
            if not all(isinstance(k, str) for k in value):
                raise TypeError("render takes dict keys of type str only")
            items = sep.join(f"{json.dumps(k)}: {_json_text(v, depth + 1)}"
                             for k, v in sorted(value.items()))
        return "{" + pad + items + outer + "}"
    rows = {type(v) for v in value}
    if rows <= _SCALARS:
        items = json.JSONEncoder(separators=(sep, ": ")).encode(value)[1:-1]
    elif (rows == {dict} or rows <= {list, tuple}) and all(value) and {
            type(v) for row in value
            for v in (row.values() if rows == {dict} else row)} <= _SCALARS:
        # a separator inside a row follows a scalar, and no encoded
        # string holds a raw newline, so a closing bracket, the row
        # separator and an opening bracket are exactly a row break
        start, end = "{}" if rows == {dict} else "[]"
        row_pad = pad + "  "
        text = json.JSONEncoder(sort_keys=True, separators=("," + row_pad, ": ")).encode(value)
        items = (start + row_pad
                 + text[2:-2].replace(end + "," + row_pad + start,
                                      pad + end + sep + start + row_pad)
                 + pad + end)
    else:
        items = sep.join(_json_text(v, depth + 1) for v in value)
    return "[" + pad + items + outer + "]"


def render(payload: dict, fmt: str) -> str:
    """The payload as text: JSON byte for byte as
    `json.dumps(payload, sort_keys=True, indent=2)` plus a newline (dict
    keys must be str: a non-str key where the dict holds a container
    raises TypeError), or CSV rows of flattened keys and values."""
    if fmt == "json":
        return _json_text(payload, 0) + "\n"
    if fmt == "csv":
        rows: list = []
        _flatten("", payload, rows)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        for k, v in rows:
            writer.writerow([k, v])
        return buf.getvalue()
    raise BatechoError(f"unknown format {fmt!r}")


def emit(payload: dict, opts) -> None:
    text = render(payload, opts.get("format", "json"))
    out = opts.get("out")
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise BatechoError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_exact(opts) -> int:
    g = load_graph(opts)
    k_max = opts.get("k_max", 20)
    fgen = ex.return_gen_fun(g)
    table = ex.lazy_series(g, fgen, k_max)
    spec = ex.spectrum(g)
    hit = ex.hitting_from_stationary(fgen)
    try:
        payload = {
            "graph": g.to_json(),
            "series": table.to_json(),
            "gen_fun": fgen.to_json_dict(),
            "spectrum": spec.to_json(),
            "hitting": {
                "value": float(hit.value),
                "mean_t1": str(hit.mean_t1),
                "mean_t1_sq": str(hit.mean_t1_sq),
            },
            "mean_return_time": str(hit.mean_t1),
        }
    except ValueError as exc:
        # str() refuses an int with more digits than the interpreter's
        # limit, a setting of the whole process that is left alone here
        raise DomainError(
            f"an exact number has more digits than Python converts to a string "
            f"(limit {sys.get_int_max_str_digits()} digits); lower --k-max") from exc
    emit(payload, opts)
    return EXIT_OK


def cmd_forge(opts) -> int:
    k = opts.get("k", 4)
    # before _forge_plan's divisor scan, which a huge k would make long
    if k > treefun.MAX_FORGE_K:
        raise DomainError(f"forge capped at k <= {treefun.MAX_FORGE_K}, got {k}")
    left, right = treefun.forge_tree_pair(k)
    cert = {"k": k, **treefun.certify_pair(left, right, opts.get("k_max", 12))}
    out_dir = opts.get("out") or "."
    paths = {}
    cert_path = os.path.join(out_dir, f"forged_certificate_k{k}.json")
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, t in (("left", left), ("right", right)):
            path = os.path.join(out_dir, f"forged_{name}_k{k}.txt")
            with open(path, "w") as fh:
                fh.write(t.to_text())
            paths[name] = path
        with open(cert_path, "w") as fh:
            fh.write(render(cert, "json"))
    except OSError as exc:
        raise BatechoError(f"cannot write to {out_dir}: {exc}") from exc
    payload = {"k": k, "files": paths, "certificate": cert_path,
               "n_left": left.n, "n_right": right.n}
    sys.stdout.write(render(payload, "json"))
    return EXIT_OK


def _search_options(opts) -> dict:
    """The search options the user set; the library supplies the rest."""
    return {k: opts[k] for k in ("c", "eps", "delta", "n", "seed") if k in opts}


def cmd_gap(opts) -> int:
    g = load_graph(opts)
    est = gp.estimate_gap(g, **_search_options(opts))
    budget = gp.audit_budget(est)
    if not budget["within_budget"]:
        raise BudgetOverflow(
            f"{est.total_experiments} experiments exceed audit bound "
            f"{budget['total_bound']}")
    payload = {"estimate": est.to_json(), "budget": budget,
               "checks": gp.audit_error_chain(est)}
    emit(payload, opts)
    return EXIT_OK


def cmd_mixing_gap(opts) -> int:
    g = load_graph(opts)
    report = gp.estimate_mixing_gap(g, **_search_options(opts))
    emit(report.to_json(), opts)
    return EXIT_OK


def _sample_count(opts, default: int, cap: int) -> int:
    m = opts.get("m", default)
    if m < 1:
        raise DomainError(f"--m must be at least 1, got {m}")
    if m > cap:
        raise DomainError(f"--m must be at most {cap}, got {m}")
    return m


def cmd_observe(opts) -> int:
    g = load_graph(opts)
    # the walk holds its walker counts in int64
    m = _sample_count(opts, 10000, np.iinfo(np.int64).max)
    lazy = bool(opts.get("lazy", False))
    counts = walk.first_return_counts(g, m, opts.get("seed", 0), lazy=lazy)
    mean, mean_sq, all_even = walk.observer_stats(counts)
    d_r = g.root_degree
    payload = {
        "samples": m,
        "lazy": lazy,
        "mean_gap": mean,
        "mean_gap_sq": mean_sq,
        "hitting_estimate": gp.estimate_hitting(mean, mean_sq),
        "all_gaps_even": all_even,
        # E[T1] = 2|E| / deg(root); on a regular graph it equals n
        "edges_hat": int(round(d_r * mean / 2.0)),
        "n_hat_if_regular": int(round(mean)),
        "parity_verdict": "bipartite" if (not lazy and all_even) else "non-bipartite",
    }
    emit(payload, opts)
    return EXIT_OK


def cmd_simulate(opts) -> int:
    g = load_graph(opts)
    # the largest int64 array of gaps numpy can size
    m = _sample_count(opts, 100, np.iinfo(np.intp).max // np.dtype(np.int64).itemsize)
    lazy = bool(opts.get("lazy", False))
    try:
        # the gaps between returns are iid copies of the first-return time
        gaps = walk.sample_first_returns(g, m, opts.get("seed", 0), lazy=lazy)
        times = np.cumsum(gaps).tolist()
    except MemoryError as exc:
        raise DomainError(f"--m {m} return times do not fit in memory") from exc
    emit({"return_times": times, "samples": m, "lazy": lazy}, opts)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing

_COMMANDS = {
    "exact": cmd_exact,
    "forge": cmd_forge,
    "gap": cmd_gap,
    "mixing-gap": cmd_mixing_gap,
    "observe": cmd_observe,
    "simulate": cmd_simulate,
}


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--graph", help="graph file (edge list text format)")
    p.add_argument("--family", help="named graph, e.g. cycle:8 or gab:2,2")
    p.add_argument("--config", help="JSON file with default option values")
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.add_argument("--format", choices=["json", "csv"])


def _add_search(p: argparse.ArgumentParser):
    """The options of the two gap searches."""
    _add_common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--c", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--n", help='vertex count, at most the graph\'s, or "estimate"')
    p.add_argument("--pk-rule", dest="pk_rule", choices=["paper"],
                   help="per-evaluation accuracy rule; the paper's "
                        "eps/(8 n^c) is the only rule")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later `main` call in the process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="batecho",
        description="spectral inference from random-walk return times")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="exact series / spectrum / hitting time")
    _add_common(p)
    p.add_argument("--k-max", dest="k_max", type=int)

    p = sub.add_parser("forge", help="trees with matching return statistics")
    p.add_argument("--k", type=int)
    p.add_argument("--k-max", dest="k_max", type=int,
                   help="series terms to cross-check in the certificate")
    p.add_argument("--config")
    p.add_argument("--out", help="directory for the tree and certificate files")

    p = sub.add_parser("gap", help="statistical spectral-gap estimate")
    _add_search(p)

    p = sub.add_parser("mixing-gap", help="statistical mixing-gap estimate")
    _add_search(p)

    p = sub.add_parser("observe", help="return-gap summary statistics")
    _add_common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--m", type=int, help="number of return gaps to sample")
    p.add_argument("--lazy", action="store_const", const=True)

    p = sub.add_parser("simulate", help="raw return times")
    _add_common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--m", type=int, help="number of return times")
    p.add_argument("--lazy", action="store_const", const=True)

    return parser


def _convert_config_value(action: argparse.Action, value):
    """Apply the flag's argparse `type` and `choices` to a config value,
    as if it had been given on the command line."""
    if action.nargs == 0:      # store_const flags: true, or false for absent
        if not isinstance(value, bool):
            raise BatechoError(f"config value for {action.dest!r} must be "
                               f"true or false, got {value!r}")
        return action.const if value else None
    try:
        value = (action.type or str)(str(value))
    except (TypeError, ValueError) as exc:
        raise BatechoError(f"config value for {action.dest!r}: {exc}") from exc
    if action.choices is not None and value not in action.choices:
        raise BatechoError(f"config value for {action.dest!r} must be one of "
                           f"{list(action.choices)}, got {value!r}")
    return value


def resolve_options(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """Merge config-file values under explicit flags.  Each config key must
    name a flag of the subcommand, and its value goes through that flag's
    type conversion and choices."""
    opts = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BatechoError(f"cannot read config {config_path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise BatechoError("config file must hold a JSON object")
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        # neither --help nor --config takes a value from a config file
        actions = {a.dest: a for a in sub.choices[args.command]._actions
                   if a.dest not in ("help", "config")}
        for key, value in loaded.items():
            if key not in actions:
                raise BatechoError(f"config key {key!r} matches no flag of {args.command}")
            opts[key] = _convert_config_value(actions[key], value)
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:
            opts[key] = value
    n = opts.get("n")
    if isinstance(n, str) and n != "estimate":
        try:
            opts["n"] = int(n)
        except ValueError:
            raise BatechoError(f'--n must be an integer or "estimate", got {n!r}')
    if "seed" in vars(args) and opts.get("seed", 0) < 0:
        raise DomainError(f"--seed must be non-negative, got {opts['seed']}")
    return opts


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = resolve_options(args, parser)
        return _COMMANDS[args.command](opts)
    except SearchExhausted as exc:
        print(f"batecho: search exhausted: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except BudgetOverflow as exc:
        print(f"batecho: budget overflow: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except BatechoError as exc:
        print(f"batecho: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
