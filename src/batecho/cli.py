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
byte-comparable.  `exact` refuses, from bit lengths, a number with more
digits than the interpreter converts to a string before it converts
any, and its series is written straight from the integer pairs.
The float half (`walk`, `gap`), and numpy with it, is imported in the
bodies of the subcommands that use it: `forge` never loads numpy, and
`exact` loads it for its spectrum alone.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys

from . import exact as ex
from . import graphs, treefun
from .errors import BatechoError, BudgetOverflow, DomainError, SearchExhausted

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EXHAUSTED = 3
EXIT_BUDGET = 4

_FAMILIES = ("path", "cycle", "complete", "star", "hypercube", "gab", "leafy")


def _vertex_count(name: str, nums: tuple[int, ...]) -> int:
    """The vertex count of family `name` from its integer parameters,
    before anything is built.  A parameter below its builder's minimum
    is raised to it (the builder refuses it with its own message), and
    an exponent stops past the bit length of graphs.MAX_WALK_N, so no
    large number is formed and a count past the cap stays past it."""
    top = graphs.MAX_WALK_N.bit_length()
    if name == "hypercube":
        return 1 << min(max(nums[0], 1), top)
    if name == "gab":
        a, b = (max(x, 1) for x in nums)
        return 2 + (a - 1) * b
    if name == "leafy":
        h, d = min(max(nums[0], 1), top), max(nums[1], 2)
        return 1 + (d + 1) * (d ** h - 1) // (d - 1)
    return nums[0] + (name == "star")


def parse_family(spec: str, check_size=None) -> graphs.RootedGraph:
    """Build a named graph from a spec like 'cycle:8', 'gab:2,2' or
    'leafy:3,2,cutpoint'.  A family with more vertices than
    graphs.MAX_WALK_N, which no subcommand takes, is refused before it is
    built, and so is one whose vertex count `check_size`, if given,
    refuses (a subcommand's own cap, such as exact.check_exact_size)."""
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    args = [a.strip() for a in rest.split(",")] if rest else []
    if name not in _FAMILIES:
        raise BatechoError(f"unknown family {name!r}; choose from {_FAMILIES}")
    try:
        if name == "gab":
            a, b = args
            nums = (int(a), int(b))
        elif name == "leafy":
            h, d, mode = args
            nums = (int(h), int(d))
        else:
            (size,) = args
            nums = (int(size),)
    except ValueError as exc:
        raise BatechoError(f"bad family spec {spec!r}: {exc}") from exc
    n = _vertex_count(name, nums)
    if n > graphs.MAX_WALK_N:
        raise DomainError(f"family {spec!r} has more than {graphs.MAX_WALK_N} vertices, "
                          f"the most any subcommand takes")
    if check_size is not None:
        check_size(n)
    # the builders' own refusals pass through with their messages
    if name == "gab":
        return graphs.build_gab(*nums)
    if name == "leafy":
        return graphs.build_leafy(*nums, mode=mode)
    return graphs.build_family(name, *nums)


def load_graph(opts, check_size=None) -> graphs.RootedGraph:
    """The graph of --graph or --family; `check_size` goes to
    parse_family, so a --family it refuses is never built."""
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
        return parse_family(opts["family"], check_size)
    raise BatechoError("a graph is required: pass --graph FILE or --family SPEC")


def _flatten(prefix: str, value, into: list):
    if isinstance(value, ex.SeriesTable):
        value = value.to_json()
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
    `depth` levels deep whose dict keys are str, a `SeriesTable` standing
    for its `to_json()` and writing its own text from its int pairs
    (`SeriesTable.json_text`).  `json.dumps` uses its C encoder only
    without `indent`, so each container of scalars, and each table (a
    list of non-empty dicts of scalars, or of non-empty lists of scalars,
    such as a graph's edges), is one C call whose item separator carries
    the newline and indent, as are the scalar items of a dict that also
    holds containers; the rest recurses."""
    if isinstance(value, ex.SeriesTable):
        return value.json_text(depth)
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
            # the scalar items in one C call, split on the item separator,
            # which no encoded scalar holds (no raw newline)
            scalars = {k: v for k, v in value.items() if type(v) in _SCALARS}
            texts = {k: f"{json.dumps(k)}: {_json_text(v, depth + 1)}"
                     for k, v in value.items() if type(v) not in _SCALARS}
            if scalars:
                texts.update(zip(sorted(scalars), json.JSONEncoder(
                    sort_keys=True, separators=(sep, ": ")).encode(scalars)[1:-1].split(sep)))
            items = sep.join(texts[k] for k in sorted(texts))
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
    """The payload as text, a `SeriesTable` in it standing for its
    `to_json()`: JSON byte for byte as
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


def _check_digit_limit(numbers: list[int]) -> None:
    """Refuse, before any of them is converted, numbers of which one has
    more decimal digits than `str` converts: the interpreter's limit, a
    setting of the whole process that is left alone here (Python 3.10
    has none).  A number of fewer bits than 10**limit has fewer digits
    and one of more bits has more, so only numbers of its bit length are
    compared with it exactly."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit:
        return
    bound = 10 ** limit
    bits = bound.bit_length()
    widest = max(map(int.bit_length, numbers))
    if widest > bits or widest == bits and any(
            abs(x) >= bound for x in numbers if x.bit_length() == bits):
        raise DomainError(
            f"an exact number has more digits than Python converts to a string "
            f"(limit {limit} digits); lower --k-max")


def cmd_exact(opts) -> int:
    from . import walk   # numpy, for the spectrum alone
    g = load_graph(opts, ex.check_exact_size)
    k_max = opts.get("k_max", 20)
    fgen = ex.return_gen_fun(g)
    table = ex.lazy_series(g, fgen, k_max)
    hit = ex.hitting_from_stationary(fgen)
    _check_digit_limit([x for pair in table.p + table.q for x in pair]
                       + [*fgen.num.c, *fgen.den.c, *hit.mean_t1.as_integer_ratio(),
                          *hit.mean_t1_sq.as_integer_ratio()])
    payload = {
        "graph": g.to_json(),
        "series": table,        # render writes it from its int pairs
        "gen_fun": fgen.to_json_dict(),
        "spectrum": walk.spectrum(g).to_json(),
        "hitting": {
            "value": float(hit.value),
            "mean_t1": str(hit.mean_t1),
            "mean_t1_sq": str(hit.mean_t1_sq),
        },
        "mean_return_time": str(hit.mean_t1),
    }
    emit(payload, opts)
    return EXIT_OK


def cmd_forge(opts) -> int:
    k = opts.get("k", 4)
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
    from . import gap as gp
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
    from . import gap as gp
    g = load_graph(opts)
    report = gp.estimate_mixing_gap(g, **_search_options(opts))
    emit(report.to_json(), opts)
    return EXIT_OK


def cmd_observe(opts) -> int:
    from . import gap as gp
    from . import walk
    g = load_graph(opts)
    m = opts.get("m", 10000)
    lazy = bool(opts.get("lazy", False))
    counts = walk.first_return_counts(walk.RootMeasure(g, lazy), m, opts.get("seed", 0))
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
    from . import walk
    g = load_graph(opts)
    m = opts.get("m", 100)
    lazy = bool(opts.get("lazy", False))
    try:
        # the gaps between returns are iid copies of the first-return time
        gaps = walk.sample_first_returns(walk.RootMeasure(g, lazy), m, opts.get("seed", 0))
        times = gaps.cumsum().tolist()
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


def _int_or_text(text: str):
    """`text` as an int if it spells one, else as it is, for the library to judge."""
    try:
        return int(text)
    except ValueError:
        return text


def _add_search(p: argparse.ArgumentParser):
    """The options of the two gap searches."""
    _add_common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--c", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--n", type=_int_or_text,
                   help='vertex count, at most the graph\'s, or "estimate"')
    p.add_argument("--pk-rule", dest="pk_rule", choices=["paper"],
                   help="per-evaluation accuracy rule; the paper's "
                        "eps/(8 n^c) is the only rule")


def _add_sampling(p: argparse.ArgumentParser, m_help: str):
    """The options of the two samplers."""
    _add_common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--m", type=int, help=m_help)
    p.add_argument("--lazy", action="store_const", const=True)


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
    _add_sampling(p, "number of return gaps to sample")

    p = sub.add_parser("simulate", help="raw return times")
    _add_sampling(p, "number of return times")

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
