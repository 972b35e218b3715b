"""Command-line surface: run configs, graph files, and the subcommands.

Formats
-------
* Run config: flat ``key = value`` text, one entry per line, ``#`` comments.
  Unknown keys are rejected; parse -> serialize -> parse is the identity.
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
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cost import (
    MaxPenalty,
    PenaltyPolynomial,
    classify,
    deg_f,
    fpp_explosion_functional,
    monomial_penalty,
    power_sum_penalty,
    product_penalty,
    solve_boxing_params,
)
from .experiments import SweepSpec, phase_sweep, sweep_to_csv
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


class ConfigError(Exception):
    """Bad user input: rejected keys, malformed specs, domain violations."""


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


def parse_penalty(spec: str):
    kind, sep, rest = spec.strip().partition(":")
    kind = kind.strip().lower()
    if not sep:
        raise ConfigError(f"penalty spec needs '<kind>:<args>', got {spec!r}")
    try:
        if kind == "prod":
            return product_penalty(_floats_csv(rest, 1, "prod")[0])
        if kind == "mono":
            mu, nu = _floats_csv(rest, 2, "mono")
            return monomial_penalty(mu, nu)
        if kind == "sum":
            return power_sum_penalty(_floats_csv(rest, 1, "sum")[0])
        if kind == "max":
            return MaxPenalty(_floats_csv(rest, 1, "max")[0])
        if kind == "poly":
            terms = [tuple(_floats_csv(grp, 3, "poly term"))
                     for grp in rest.split(";")]
            return PenaltyPolynomial(tuple(terms))
    except ValueError as exc:
        raise ConfigError(f"invalid penalty {spec!r}: {exc}") from None
    raise ConfigError(f"unknown penalty kind {kind!r} "
                      "(expected prod/mono/sum/max/poly)")


def parse_length_law(spec: str):
    kind, sep, rest = spec.strip().partition(":")
    kind = kind.strip().lower()
    if not sep:
        raise ConfigError(f"length-law spec needs '<kind>:<args>', got {spec!r}")
    try:
        if kind == "poly":
            return PolyAtZero(_floats_csv(rest, 1, "poly")[0])
        if kind == "exp":
            return Exponential(_floats_csv(rest, 1, "exp")[0])
        if kind == "dexp":
            eta, c1, c2 = _floats_csv(rest, 3, "dexp")
            return DoubleExpFlat(eta, c1, c2)
        if kind == "point":
            return PointMass(_floats_csv(rest, 1, "point")[0])
    except ValueError as exc:
        raise ConfigError(f"invalid length law {spec!r}: {exc}") from None
    raise ConfigError(f"unknown length-law kind {kind!r} "
                      "(expected poly/exp/dexp/point)")


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


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "false"):
        return low == "true"
    raise ConfigError(f"expected true or false, got {s!r}")


def _parse_float_list(s: str) -> tuple:
    parts = [p.strip() for p in s.split(",") if p.strip()]
    if not parts:
        raise ConfigError("expected a comma-separated list of numbers")
    return tuple(_parse_float(p) for p in parts)


def _parse_int_list(s: str) -> tuple:
    parts = [p.strip() for p in s.split(",") if p.strip()]
    if not parts:
        raise ConfigError("expected a comma-separated list of integers")
    return tuple(_parse_int(p) for p in parts)


def _enum(*allowed):
    def parse(s: str) -> str:
        low = s.strip().lower()
        if low not in allowed:
            raise ConfigError(f"expected one of {'/'.join(allowed)}, got {s!r}")
        return low
    return parse


def _checked_str(checker):
    def parse(s: str) -> str:
        checker(s)            # raises ConfigError on malformed specs
        return s.strip()
    return parse


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, tuple):
        return ",".join(_render(v) for v in value)
    return str(value)


# key -> value parser; values render back via _render
_CONFIG_KEYS = {
    "model": _enum("girg", "igirg", "sfp", "hrg"),
    "n": _parse_int,
    "d": _parse_int,
    "radius": _parse_int,
    "seed": _parse_int,
    "pairs_per_graph": _parse_int,
    "graphs_per_cell": _parse_int,
    "tau": _parse_float,
    "alpha": _parse_float,
    "c": _parse_float,
    "c1": _parse_float,
    "side": _parse_float,
    "lam": _parse_float,
    "lambda_perc": _parse_float,
    "alpha_norm": _parse_float,
    "alpha_h": _parse_float,
    "c_h": _parse_float,
    "t_h": _parse_float,
    "pin_origin": _parse_bool,
    "penalty": _checked_str(parse_penalty),
    "law": _checked_str(parse_length_law),
    "law_family": _enum("poly", "exp"),
    "beta_grid": _parse_float_list,
    "size_grid": _parse_int_list,
}


@dataclass(frozen=True)
class RunConfig:
    """Validated flat key=value document; items sorted by key."""

    items: tuple

    def get(self, key, default=None):
        for k, v in self.items:
            if k == key:
                return v
        return default

    def __contains__(self, key) -> bool:
        return any(k == key for k, _ in self.items)

    def require(self, key):
        for k, v in self.items:
            if k == key:
                return v
        raise ConfigError(f"missing required config key {key!r}")

    def text(self) -> str:
        return "".join(f"{k} = {_render(v)}\n" for k, v in self.items)


def parse_config(text: str) -> RunConfig:
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
        entries[key] = _CONFIG_KEYS[key](value.strip())
    return RunConfig(items=tuple(sorted(entries.items())))


def model_from_config(cfg: RunConfig):
    model = cfg.require("model")
    try:
        if model == "girg":
            return Girg(n=cfg.require("n"), d=cfg.require("d"),
                        tau=cfg.require("tau"), alpha=cfg.require("alpha"),
                        c=cfg.require("c"),
                        c1_threshold=cfg.get("c1", 1.0))
        if model == "igirg":
            return IgirgWindow(lam=cfg.require("lam"), d=cfg.require("d"),
                               side=cfg.require("side"),
                               tau=cfg.require("tau"),
                               alpha=cfg.require("alpha"), c=cfg.require("c"),
                               c1_threshold=cfg.get("c1", 1.0),
                               pin_origin=cfg.get("pin_origin", False))
        if model == "sfp":
            return SfpWindow(d=cfg.require("d"), radius=cfg.require("radius"),
                             tau=cfg.require("tau"),
                             lambda_perc=cfg.require("lambda_perc"),
                             alpha_norm=cfg.require("alpha_norm"))
        return Hrg(n=cfg.require("n"), alpha_H=cfg.require("alpha_h"),
                   C_H=cfg.require("c_h"), T_H=cfg.get("t_h"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def sweep_from_config(cfg: RunConfig, seed_override=None) -> SweepSpec:
    if cfg.require("model") != "girg":
        raise ConfigError("sweeps run on girg models; set model = girg")
    if "n" in cfg:
        raise ConfigError("sweep sizes come from size_grid; drop the n key")
    f = parse_penalty(cfg.require("penalty"))
    family_name = cfg.require("law_family")
    if family_name == "exp":
        if deg_f(f) != 0:
            raise ConfigError(
                "law_family = exp sweeps the rate, which only classifies "
                "flat penalties (mu = nu = 0); use law_family = poly")
        family = Exponential
    else:
        family = PolyAtZero
    seed = seed_override if seed_override is not None else cfg.get("seed", 0)
    try:
        base = Girg(n=1, d=cfg.require("d"), tau=cfg.require("tau"),
                    alpha=cfg.require("alpha"), c=cfg.require("c"),
                    c1_threshold=cfg.get("c1", 1.0))
        return SweepSpec(base=base, f=f, law_family=family,
                         beta_grid=cfg.require("beta_grid"),
                         size_grid=cfg.require("size_grid"),
                         pairs_per_graph=cfg.get("pairs_per_graph", 30),
                         graphs_per_cell=cfg.get("graphs_per_cell", 5),
                         seed=seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# graph text format


_MODEL_CLASS_NAMES = {Girg: "girg", IgirgWindow: "igirg",
                      SfpWindow: "sfp", Hrg: "hrg"}
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


def _vertex_dtype(d: int) -> np.dtype:
    return np.dtype([("tag", "U2"), ("id", np.int64),
                     ("x", np.float64, (d,)), ("w", np.float64)])


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
    """Rows of a block of `what` lines, the first at 0-based line `first`.

    A malformed block is bisected for its first bad line, whose number the
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
    lines = text.splitlines()
    if not lines or lines[0] != "#format pplab-graph 1":
        raise ValueError("not a pplab-graph file (bad or missing #format line)")
    headers = {}
    i = 1
    while i < len(lines) and lines[i].startswith("#"):
        key, _, value = lines[i][1:].partition(" ")
        if key in headers:
            raise ValueError(f"duplicate header #{key}")
        headers[key] = value
        i += 1
    for key in ("model", "d", "n", "side"):
        if key not in headers:
            raise ValueError(f"missing header #{key}")
    model = headers["model"]
    if model not in ("girg", "igirg", "sfp", "hrg"):
        raise ValueError(f"unknown model {model!r} in graph header")
    d = int(headers["d"])
    n = int(headers["n"])
    side = float(headers["side"])
    if d < 1 or n < 0 or not side > 0:
        raise ValueError("graph header out of domain")
    window = Window(d, side,
                    boundary="torus" if model in _TORUS_MODELS else "hard")

    vrows = _read_block(lines[i:i + n], i, "vertex", _vertex_dtype(d))
    if vrows.shape[0] < n:
        raise ValueError(f"expected {n} vertex lines, found {vrows.shape[0]}")
    jumps = np.flatnonzero(vrows["id"] != np.arange(n))
    if jumps.size:
        raise ValueError(f"line {i + jumps[0] + 1}: vertex ids must be "
                         "consecutive from 0")
    erows = _read_block(lines[i + n:], i + n, "edge", _EDGE_DTYPE)
    vs = VertexSet(window, vrows["x"], vrows["w"])
    return Graph(vs, erows["u"], erows["v"], erows["len"], spec=model)


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
    law = parse_length_law(cfg.require("law")) if "law" in cfg else None
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    try:
        g = generate(spec, seed, law)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    Path(args.out).write_text(write_graph_text(g))
    print(f"n {g.n}")
    print(f"edges {g.m}")
    print(f"giant_frac {_fmt(len(largest_component(g)) / g.n)}")
    return 0


def cmd_distance(args) -> int:
    g = _load_graph(args.graph)
    f = parse_penalty(args.penalty)
    for name, v in (("source", args.source), ("target", args.target)):
        if not 0 <= v < g.n:
            raise ConfigError(f"{name} {v} is not a vertex (n = {g.n})")
    res = cost_search(g, f, args.source, direction=args.direction,
                      target=args.target)
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
    if deg_f(f) == 0:
        _, converges = fpp_explosion_functional(law, 1)
        outcome = "FppExplosive" if converges else "FppConservative"
        detail = ("flat penalty; length-law explosion sum "
                  + ("converges" if converges else "diverges"))
        print(f"{outcome} [{detail}]")
        return 0
    try:
        v = classify(f, args.tau, args.alpha, law.beta_minus, law.beta_plus,
                     args.direction)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
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
    try:
        p = solve_boxing_params(args.tau, args.mu, args.nu, args.beta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    print(f"delta={_fmt(p.delta)} C={_fmt(p.C)} D={_fmt(p.D)} "
          f"xi={_fmt(p.xi)} rho={_fmt(p.rho)}")
    return 0


def cmd_hrgmap(args) -> int:
    try:
        spec = Hrg(n=args.n, alpha_H=args.alpha_h, C_H=args.c_h, T_H=args.t_h)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
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
    try:
        b = build_boxing(g.vertices.window, center, args.M, args.C, args.D,
                         args.delta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
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
    if law is not None and getattr(f, "is_monomial", False):
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
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (fully determines the run)")
        configure(p)
        return p

    def conf_generate(p):
        p.add_argument("--config", required=True, help="run-config file")
        p.add_argument("--out", required=True, help="output graph file")
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
