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
    try:
        if name in ("path", "cycle", "complete", "star", "hypercube"):
            (size,) = args
            return graphs.build_family(name, int(size))
        if name == "gab":
            a, b = args
            return graphs.build_gab(int(a), int(b)).graph
        if name == "leafy":
            h, d, mode = args
            return graphs.build_leafy(int(h), int(d), mode=mode)
    except (ValueError, TypeError) as exc:
        raise BatechoError(f"bad family spec {spec!r}: {exc}") from exc
    raise BatechoError(f"unknown family {name!r}; choose from {_FAMILIES}")


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


def render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
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
    table = ex.lazy_series(g, k_max)
    fgen = ex.return_gen_fun(g)
    spec = ex.spectrum(g)
    hit = ex.hitting_from_stationary(g, fgen)
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
        "mean_return_time": str(ex.mean_return_time(g)),
    }
    emit(payload, opts)
    return EXIT_OK


def cmd_forge(opts) -> int:
    k = opts.get("k", 4)
    left, right = treefun.forge_tree_pair(k)
    terms = opts.get("k_max", 12)
    series = treefun.h_from_series(left, terms)
    cert = {
        "k": k,
        "h": treefun.h_of_tree(left).to_json_dict(),
        "return_series_terms_checked": terms,
        "return_series_match":
            series == treefun.h_from_series(right, terms),
        "isomorphic": treefun.ahu_canonical(left) == treefun.ahu_canonical(right),
    }
    out_dir = opts.get("out") or "."
    paths = {}
    cert_path = os.path.join(out_dir, f"forged_certificate_k{k}.json")
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, t in (("left", left), ("right", right)):
            path = os.path.join(out_dir, f"forged_{name}_k{k}.txt")
            with open(path, "w") as fh:
                fh.write(t.graph.to_text())
            paths[name] = path
        with open(cert_path, "w") as fh:
            fh.write(json.dumps(cert, sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        raise BatechoError(f"cannot write to {out_dir}: {exc}") from exc
    payload = {"k": k, "files": paths, "certificate": cert_path,
               "n_left": left.n, "n_right": right.n}
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    return EXIT_OK


def cmd_gap(opts) -> int:
    g = load_graph(opts)
    est = gp.estimate_gap(g, c=opts.get("c", 2.0), eps=opts.get("eps", 0.25),
                          delta=opts.get("delta", 0.1), n=opts.get("n"),
                          seed=opts.get("seed", 0))
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
    report = gp.estimate_mixing_gap(
        g, c=opts.get("c", 2.0), eps=opts.get("eps", 0.25),
        delta=opts.get("delta", 0.1), n=opts.get("n"),
        seed=opts.get("seed", 0))
    emit(report, opts)
    return EXIT_OK


def _sample_count(opts, default: int) -> int:
    m = opts.get("m", default)
    if m < 1:
        raise DomainError(f"--m must be at least 1, got {m}")
    return m


def cmd_observe(opts) -> int:
    g = load_graph(opts)
    m = _sample_count(opts, 10000)
    lazy = bool(opts.get("lazy", False))
    gaps = walk.sample_first_returns(g, m, opts.get("seed", 0), lazy=lazy)
    mean, mean_sq, all_even = walk.observer_stats(gaps)
    d_r = g.root_degree
    payload = {
        "samples": m,
        "lazy": lazy,
        "mean_gap": mean,
        "mean_gap_sq": mean_sq,
        "hitting_estimate": gp.estimate_hitting(gaps),
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
    m = _sample_count(opts, 100)
    lazy = bool(opts.get("lazy", False))
    # the gaps between returns are iid copies of the first-return time
    gaps = walk.sample_first_returns(g, m, opts.get("seed", 0), lazy=lazy)
    emit({"return_times": np.cumsum(gaps).tolist(), "samples": m, "lazy": lazy}, opts)
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
    p.add_argument("--seed", type=int)
    p.add_argument("--config", help="JSON file with default option values")
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.add_argument("--format", choices=["json", "csv"])


def _add_search(p: argparse.ArgumentParser):
    """The options of the two gap searches."""
    _add_common(p)
    p.add_argument("--c", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--n", help='vertex count, at most the graph\'s, or "estimate"')
    p.add_argument("--pk-rule", dest="pk_rule", choices=["paper"],
                   help="per-evaluation accuracy rule; the paper's "
                        "eps/(8 n^c) is the only rule")


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--m", type=int, help="number of return gaps to sample")
    p.add_argument("--lazy", action="store_const", const=True)

    p = sub.add_parser("simulate", help="raw return times")
    _add_common(p)
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
    """Merge config-file values under explicit flags.  Config values go
    through the same type conversion and choices as the subcommand's
    flags."""
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
        actions = {a.dest: a for a in sub.choices[args.command]._actions}
        for key, value in loaded.items():
            opts[key] = (_convert_config_value(actions[key], value)
                         if key in actions else value)
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
