"""Command-line surface: run configs, graph files, and the subcommands.

Formats
-------
* Run config: flat ``key = value`` text, one entry per line, ``#`` comments.
  Unknown keys, and keys that the command does not read for its model, are
  rejected.  An optional key that is absent keeps the model's or the
  sweep's own default.
* Graph file: ``#format pplab-graph 1`` header block followed by ``v`` and
  ``e`` lines; reals are written as their shortest round-trippable decimal,
  so write -> read -> write is byte-identical.
* Penalty specs: ``prod:<mu>``, ``mono:<mu>,<nu>``, ``sum:<mu>``,
  ``max:<mu>``, ``poly:a,mu,nu[;a,mu,nu]...``.
* Length-law specs: ``poly:<beta>``, ``exp:<rate>``, ``dexp:<eta>,<c1>,<c2>``,
  ``point:<value>``.

Exit codes: 0 success, 2 config error, 3 runtime failure.
"""
from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from .cost import (
    MaxPenalty,
    PenaltyPolynomial,
    check_tau_alpha,
    classify,
    monomial_penalty,
    power_sum_penalty,
    product_penalty,
    solve_boxing_params,
)
from .domain import ConfigError, check_domains
from .experiments import SweepSpec, cell_verdict, phase_sweep, sweep_to_csv
from .geometry import Window, build_boxing
from .metrics import (
    GreedyFailure,
    build_greedy_path,
    check_F2,
    cost_search,
    delta_good_scan,
    greedy_bound_report,
    largest_component,
    realized_path,
)
from .models import (
    Girg,
    Graph,
    Hrg,
    IgirgWindow,
    SfpWindow,
    VertexSet,
    generate,
    hrg_to_girg_coords,
)
from .rng import DoubleExpFlat, Exponential, PointMass, PolyAtZero


def _fmt(x: float) -> str:
    """Shortest decimal that parses back to exactly x."""
    return repr(float(x))


# ---------------------------------------------------------------------------
# penalty and length-law mini-grammars


def _floats_csv(text: str, arity: int, what: str) -> list:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != arity:
        raise ConfigError(f"{what} expects {arity} comma-separated numbers, "
                          f"got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"{what}: cannot parse {text!r}") from None


def _poly_terms(text: str) -> tuple:
    return tuple(tuple(_floats_csv(grp, 3, "poly term"))
                 for grp in text.split(";"))


# kind -> (number of comma-separated numbers, or None for one argument,
# the ';'-separated poly terms; the builder they are passed to)
_PENALTY_KINDS = {
    "prod": (1, product_penalty),
    "mono": (2, monomial_penalty),
    "sum": (1, power_sum_penalty),
    "max": (1, MaxPenalty),
    "poly": (None, PenaltyPolynomial),
}
_LAW_KINDS = {
    "poly": (1, PolyAtZero),
    "exp": (1, Exponential),
    "dexp": (3, DoubleExpFlat),
    "point": (1, PointMass),
}


def _parse_spec(spec: str, kinds: dict, what: str, noun: str):
    """``<kind>:<args>`` built by its entry in `kinds`; `what` names the
    grammar in its messages, `noun` the value that failed to build."""
    kind, sep, rest = spec.strip().partition(":")
    kind = kind.strip().lower()
    if not sep:
        raise ConfigError(f"{what} spec needs '<kind>:<args>', got {spec!r}")
    if kind not in kinds:
        raise ConfigError(f"unknown {what} kind {kind!r} "
                          f"(expected {'/'.join(kinds)})")
    arity, build = kinds[kind]
    args = ([_poly_terms(rest)] if arity is None
            else _floats_csv(rest, arity, kind))
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(f"invalid {noun} {spec!r}: {exc}") from None


def parse_penalty(spec: str):
    return _parse_spec(spec, _PENALTY_KINDS, "penalty", "penalty")


def parse_length_law(spec: str):
    return _parse_spec(spec, _LAW_KINDS, "length-law", "length law")


# ---------------------------------------------------------------------------
# run configuration


def _parse_int(s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise ConfigError(f"expected an integer, got {s!r}") from None


def _parse_float(s: str) -> float:
    try:
        return float(s)
    except ValueError:
        raise ConfigError(f"expected a number, got {s!r}") from None


def _parse_named(name: str, parse, s: str):
    """parse(s), with `name` in front of the message it refuses s with."""
    try:
        return parse(s)
    except ConfigError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "false"):
        return low == "true"
    raise ConfigError(f"expected true or false, got {s!r}")


def _list_of(parse, what: str):
    def parse_list(s: str) -> tuple:
        parts = [p.strip() for p in s.split(",") if p.strip()]
        if not parts:
            raise ConfigError(f"expected a comma-separated list of {what}")
        return tuple(parse(p) for p in parts)
    return parse_list


def _enum(*allowed):
    def parse(s: str) -> str:
        low = s.strip().lower()
        if low not in allowed:
            raise ConfigError(f"expected one of {'/'.join(allowed)}, got {s!r}")
        return low
    return parse


_MODELS = {"girg": Girg, "igirg": IgirgWindow, "sfp": SfpWindow, "hrg": Hrg}
_LAW_FAMILIES = {"poly": PolyAtZero, "exp": Exponential}

# key -> value parser
_CONFIG_KEYS = {
    "model": _enum(*_MODELS),
    "n": _parse_int,
    "d": _parse_int,
    "radius": _parse_int,
    "seed": _parse_int,
    "pairs_per_graph": _parse_int,
    "graphs_per_cell": _parse_int,
    "tau": _parse_float,
    "alpha": _parse_float,
    "c": _parse_float,
    "side": _parse_float,
    "lam": _parse_float,
    "lambda_perc": _parse_float,
    "alpha_norm": _parse_float,
    "alpha_h": _parse_float,
    "c_h": _parse_float,
    "t_h": _parse_float,
    "pin_origin": _parse_bool,
    "penalty": parse_penalty,
    "law": parse_length_law,
    "law_family": _enum(*_LAW_FAMILIES),
    "beta_grid": _list_of(_parse_float, "numbers"),
    "size_grid": _list_of(_parse_int, "integers"),
}
# the config key of each dataclass field whose name differs from it
_KEY_OF = {"alpha_H": "alpha_h", "C_H": "c_h", "T_H": "t_h"}


def parse_config(text: str) -> dict:
    """The validated flat key = value document, keys in file order."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {raw!r}")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        entries[key] = _parse_named(f"line {lineno}: {key}",
                                    _CONFIG_KEYS[key], value.strip())
    return entries


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing required config key {key!r}")
    return cfg[key]


def _keys(cls, fixed=()) -> set:
    """The config keys of cls's fields, less those named in `fixed`."""
    return {_KEY_OF.get(f.name, f.name) for f in fields(cls)
            if f.name not in fixed}


def _build(cls, cfg: dict, **fixed):
    """cls from `fixed` and cfg's keys.  A field that cfg does not set
    keeps cls's own default; a field without one is required."""
    args = dict(fixed)
    for field in fields(cls):
        key = _KEY_OF.get(field.name, field.name)
        if field.name not in fixed and (key in cfg
                                        or field.default is MISSING):
            args[field.name] = _require(cfg, key)
    return cls(**args)


def _refuse_unread(cfg: dict, read: set, reader: str) -> None:
    for key in cfg:
        if key not in read:
            raise ConfigError(f"config key {key!r} is not read by {reader}")


def model_from_config(cfg: dict):
    """The model that `pplab generate` draws."""
    model = _require(cfg, "model")
    _refuse_unread(cfg, {"model", "law", "seed"} | _keys(_MODELS[model]),
                   f"generate with model = {model}")
    return _build(_MODELS[model], cfg)


def sweep_from_config(cfg: dict, seed_override) -> SweepSpec:
    if _require(cfg, "model") != "girg":
        raise ConfigError("sweeps run on girg models; set model = girg")
    if "n" in cfg:
        raise ConfigError("sweep sizes come from size_grid; drop the n key")
    _refuse_unread(cfg, {"model", "penalty"} | _keys(Girg, ("n",))
                   | _keys(SweepSpec, ("base", "f")), "sweep with model = girg")
    f = _require(cfg, "penalty")
    family = _LAW_FAMILIES[_require(cfg, "law_family")]
    if family is Exponential and f.deg != 0:
        raise ConfigError(
            "law_family = exp sweeps the rate, which only classifies "
            "flat penalties (mu = nu = 0); use law_family = poly")
    seed = {} if seed_override is None else {"seed": seed_override}
    return _build(SweepSpec, cfg, base=_build(Girg, cfg, n=1), f=f,
                  law_family=family, **seed)


# ---------------------------------------------------------------------------
# graph text format


_MODEL_CLASS_NAMES = {cls: name for name, cls in _MODELS.items()}
_TORUS_MODELS = ("girg", "hrg")


def _model_name(g: Graph) -> str:
    if isinstance(g.spec, str):
        return g.spec
    name = _MODEL_CLASS_NAMES.get(type(g.spec))
    if name is not None:
        return name
    return "girg" if g.vertices.window.boundary == "torus" else "igirg"


def write_graph_text(g: Graph) -> str:
    vs = g.vertices
    out = [
        "#format pplab-graph 1",
        f"#model {_model_name(g)}",
        f"#d {vs.window.d}",
        f"#n {vs.n}",
        f"#side {_fmt(vs.window.side)}",
    ]
    for i in range(vs.n):
        coords = " ".join(_fmt(x) for x in vs.positions[i])
        out.append(f"v {i} {coords} {_fmt(vs.weights[i])}")
    for u, v, ell in zip(g.edges_u.tolist(), g.edges_v.tolist(),
                         g.lengths.tolist()):
        out.append(f"e {u} {v} {_fmt(ell)}")
    return "\n".join(out) + "\n"


# A vertex or edge line is its tag and numbers, split by single spaces.
_EDGE_DTYPE = np.dtype([("tag", "U2"), ("u", np.int64), ("v", np.int64),
                        ("len", np.float64)])
# The vertex and edge blocks are parsed a piece of text at a time, each cut
# after the first line break from this many characters on, so that no list
# of every line is ever built.
_CHUNK = 1 << 16
# The line breaks that str.splitlines honours, "\r\n" as one.
_BREAK = re.compile("\r\n|[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]")


def _vertex_dtype(d: int) -> np.dtype:
    return np.dtype([("tag", "U2"), ("id", np.int64),
                     ("x", np.float64, (d,)), ("w", np.float64)])


def _line_end(text: str, at: int) -> int:
    """Where the line holding text[at] ends, past its line break."""
    found = _BREAK.search(text, at)
    return found.end() if found else len(text)


def _numbered_lines(text: str, start: int, first: int):
    """(number, lines) of each piece of text[start:]: its lines, and the
    0-based line number of the first, text[start:] starting at `first`.
    Each piece is cut after a line break, "\r\n" whole, so the pieces
    split into text's own lines."""
    while start < len(text):
        end = _line_end(text, start + _CHUNK - 1)
        lines = text[start:end].splitlines()
        yield first, lines
        first += len(lines)
        start = end


def _parse_lines(lines: list, dtype: np.dtype, tag: str):
    """The lines parsed in bulk, or None when any of them is malformed."""
    if not lines:
        return np.zeros(0, dtype=dtype)
    if "" in lines:                # loadtxt would skip a blank line
        return None
    try:
        rows = np.loadtxt(lines, dtype=dtype, delimiter=" ", comments=None,
                          ndmin=1)
    except ValueError:
        return None
    return rows if (rows["tag"] == tag).all() else None


def _read_block(lines: list, first: int, what: str, dtype: np.dtype):
    """Rows of a run of `what` lines, the first at 0-based line `first`.

    A malformed run is bisected for its first bad line, whose number the
    error names.
    """
    rows = _parse_lines(lines, dtype, what[0])
    if rows is not None:
        return rows
    good, bad = 0, len(lines)      # lines[:good] parse, lines[:bad] do not
    while bad - good > 1:
        mid = (good + bad) // 2
        if _parse_lines(lines[:mid], dtype, what[0]) is None:
            bad = mid
        else:
            good = mid
    raise ValueError(f"line {first + bad}: malformed {what} line")


def read_graph_text(text: str) -> Graph:
    end = 0                        # where the leading '#' lines end
    while text.startswith("#", end):
        end = _line_end(text, end)
    lines = text[:end].splitlines()
    if not lines or lines[0] != "#format pplab-graph 1":
        raise ValueError("not a pplab-graph file (bad or missing #format line)")
    headers = {}
    for line in lines[1:]:
        key, _, value = line[1:].partition(" ")
        if key in headers:
            raise ValueError(f"duplicate header #{key}")
        headers[key] = value
    for key in ("model", "d", "n", "side"):
        if key not in headers:
            raise ValueError(f"missing header #{key}")
    model = headers["model"]
    if model not in _MODELS:
        raise ValueError(f"unknown model {model!r} in graph header")
    d, n = (_parse_named(f"header #{key}", _parse_int, headers[key])
            for key in ("d", "n"))
    side = _parse_named("header #side", _parse_float, headers["side"])
    check_domains(locals(), n="[0, inf)")
    window = Window(d, side,
                    boundary="torus" if model in _TORUS_MODELS else "hard")

    # the next n lines are the vertex block, the rest the edge block
    x, w, vertex_dtype = np.empty((n, d)), np.empty(n), _vertex_dtype(d)
    got, edges = 0, [np.zeros(0, _EDGE_DTYPE)]
    for at, lines in _numbered_lines(text, end, len(lines)):
        k = min(n - got, len(lines))
        rows = _read_block(lines[:k], at, "vertex", vertex_dtype)
        jumps = np.flatnonzero(rows["id"] != np.arange(got, got + k))
        if jumps.size:
            raise ValueError(f"line {at + jumps[0] + 1}: vertex ids must be "
                             "consecutive from 0")
        x[got:got + k], w[got:got + k] = rows["x"], rows["w"]
        got += k
        edges.append(_read_block(lines[k:], at + k, "edge", _EDGE_DTYPE))
    if got < n:
        raise ValueError(f"expected {n} vertex lines, found {got}")
    u, v, ell = (np.concatenate([rows[key] for rows in edges])
                 for key in ("u", "v", "len"))
    del edges                      # the pieces go before the Graph's checks
    return Graph(VertexSet(window, x, w), u, v, ell, spec=model)


# ---------------------------------------------------------------------------
# subcommands


def _load_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def _load_graph(path: str) -> Graph:
    try:
        return read_graph_text(_load_text(path))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _compact(x: float) -> str:
    return str(int(x)) if float(x).is_integer() and abs(x) < 1e15 else _fmt(x)


def cmd_generate(args) -> int:
    cfg = parse_config(_load_text(args.config))
    spec = model_from_config(cfg)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    g = generate(spec, seed, cfg.get("law"))
    Path(args.out).write_text(write_graph_text(g))
    print(f"n {g.n}")
    print(f"edges {g.m}")
    print(f"giant_frac {_fmt(len(largest_component(g)) / g.n)}")
    return 0


def cmd_distance(args) -> int:
    g = _load_graph(args.graph)
    f = parse_penalty(args.penalty)
    check_domains(vars(args), source=f"[0, {g.n})", target=f"[0, {g.n})")
    res = cost_search(g, f, args.source, direction=args.direction)
    d = float(res.dist[args.target])
    if not math.isfinite(d):
        print("distance inf")
        return 0
    print(f"distance {_fmt(d)}")
    path = realized_path(res, args.target)
    print("path " + " ".join(str(v) for v in path))
    return 0


def cmd_classify(args) -> int:
    f = parse_penalty(args.penalty)
    law = parse_length_law(args.law)
    check_tau_alpha(args.tau, args.alpha)
    if f.deg == 0:
        outcome = cell_verdict(args.tau, args.alpha, f, law)
        sums = "converges" if outcome == "FppExplosive" else "diverges"
        print(f"{outcome} [flat penalty; length-law explosion sum {sums}]")
        return 0
    v = classify(f, args.tau, args.alpha, law.beta_minus, law.beta_plus,
                 args.direction)
    print(f"{v.outcome} [beta-={_compact(law.beta_minus)} "
          f"beta+={_compact(law.beta_plus)}; {v.triggered_condition}]")
    return 0


def cmd_sweep(args) -> int:
    cfg = parse_config(_load_text(args.config))
    spec = sweep_from_config(cfg, seed_override=args.seed)
    cells = phase_sweep(spec)
    text = sweep_to_csv(cells)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {len(cells)} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_params(args) -> int:
    p = solve_boxing_params(args.tau, args.mu, args.nu, args.beta)
    print(f"delta={_fmt(p.delta)} C={_fmt(p.C)} D={_fmt(p.D)} "
          f"xi={_fmt(p.xi)} rho={_fmt(p.rho)}")
    return 0


def cmd_hrgmap(args) -> int:
    spec = Hrg(n=args.n, alpha_H=args.alpha_h, C_H=args.c_h, T_H=args.t_h)
    check_domains(vars(args), phi=f"[0, {2.0 * math.pi!r})",
                  r=f"[0, {spec.R_n!r}]")
    x, w = hrg_to_girg_coords(args.phi, args.r, spec)
    print(f"x={_compact(x)} w={_compact(w)}")
    return 0


def cmd_boxes(args) -> int:
    g = _load_graph(args.graph)
    f = parse_penalty(args.penalty)
    law = parse_length_law(args.law) if args.law else None
    d = g.vertices.window.d
    if args.center is None:
        center = [0.0] * d
    else:
        center = list(_floats_csv(args.center, d, "--center"))
    b = build_boxing(g.vertices.window, center, args.M, args.C, args.D,
                     args.delta)
    scan = delta_good_scan(g, b, args.tau)
    f2 = check_F2(g, b, args.tau, epsilon=args.eps, scan=scan)
    print(f"k_star {b.k_star}")
    for a in scan.annuli:
        f2_text = _yn(f2[a.k]) if a.k < b.k_star else "-"
        print(f"k={a.k} boxes={a.leader.shape[0]} good={int(a.good.sum())} "
              f"F1={_yn(a.f1)} F2={f2_text}")
    starts = scan.scan_for(0).good_leaders
    if not starts:
        print("greedy no-start (annulus 0 has no delta-good leader)")
        return 0
    path = build_greedy_path(g, b, args.tau, f, min(starts), scan=scan)
    if isinstance(path, GreedyFailure):
        print(f"greedy failed annulus={path.failed_annulus} "
              f"reached={len(path.vertices)}")
        return 0
    line = f"greedy cost={_fmt(path.total_cost)} hops={len(path.hop_lengths)}"
    if law is not None and len(getattr(f, "terms", ())) == 1:
        rep = greedy_bound_report(b, args.tau, f, law, path, epsilon=args.eps)
        line += (f" bound={_fmt(rep.total_bound)} "
                 f"applicable={_yn(rep.applicable)} "
                 f"within_bound={_yn(rep.satisfied)}")
    elif law is not None:
        line += " bound=- (penalty is not a monomial)"
    print(line)
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pplab",
        description="Weight-penalized first-passage percolation on spatial "
                    "random graphs: generation, search, phase diagrams.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, configure):
        configure(sub.add_parser(name, help=help_text))

    def add_seed(p):
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (fully determines the run)")

    def conf_generate(p):
        p.add_argument("--config", required=True, help="run-config file")
        p.add_argument("--out", required=True, help="output graph file")
        add_seed(p)
        p.set_defaults(func=cmd_generate)

    def conf_distance(p):
        p.add_argument("--graph", required=True, help="pplab-graph file")
        p.add_argument("--penalty", required=True)
        p.add_argument("--source", type=int, required=True)
        p.add_argument("--target", type=int, required=True)
        p.add_argument("--direction", choices=("outward", "inward"),
                       default="outward")
        p.set_defaults(func=cmd_distance)

    def conf_classify(p):
        p.add_argument("--tau", type=float, required=True)
        p.add_argument("--alpha", type=float, required=True)
        p.add_argument("--penalty", required=True)
        p.add_argument("--law", required=True)
        p.add_argument("--direction", choices=("outward", "inward"),
                       default="outward")
        p.set_defaults(func=cmd_classify)

    def conf_sweep(p):
        p.add_argument("--config", required=True, help="run-config file")
        p.add_argument("--out", default=None,
                       help="CSV path (default: stdout)")
        add_seed(p)
        p.set_defaults(func=cmd_sweep)

    def conf_params(p):
        p.add_argument("--tau", type=float, required=True)
        p.add_argument("--mu", type=float, required=True)
        p.add_argument("--nu", type=float, required=True)
        p.add_argument("--beta", type=float, required=True,
                       help="upper length-law exponent beta+")
        p.set_defaults(func=cmd_params)

    def conf_hrgmap(p):
        p.add_argument("--phi", type=float, required=True)
        p.add_argument("--r", type=float, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--alpha-h", type=float, default=0.75)
        p.add_argument("--c-h", type=float, default=1.0)
        p.add_argument("--t-h", type=float, default=None)
        p.set_defaults(func=cmd_hrgmap)

    def conf_boxes(p):
        p.add_argument("--graph", required=True, help="pplab-graph file")
        p.add_argument("--tau", type=float, required=True)
        p.add_argument("--penalty", required=True)
        p.add_argument("--law", default=None,
                       help="enables the greedy cost bound check")
        p.add_argument("--M", type=float, required=True)
        p.add_argument("--C", type=float, required=True)
        p.add_argument("--D", type=float, required=True)
        p.add_argument("--delta", type=float, required=True)
        p.add_argument("--eps", type=float, default=None,
                       help="F2 margin (default: delta)")
        p.add_argument("--center", default=None,
                       help="boxing center, comma-separated coordinates")
        p.set_defaults(func=cmd_boxes)

    add("generate", "sample a graph and write it to a file", conf_generate)
    add("distance", "one-to-one penalized distance and realizing path",
        conf_distance)
    add("classify", "phase verdict for a (penalty, length-law) pair",
        conf_classify)
    add("sweep", "run a phase sweep and emit CSV", conf_sweep)
    add("params", "solve for admissible boxing parameters", conf_params)
    add("hrgmap", "map hyperbolic coordinates to torus position and weight",
        conf_hrgmap)
    add("boxes", "boxing diagnostics: F1/F2 flags and the greedy path",
        conf_boxes)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
