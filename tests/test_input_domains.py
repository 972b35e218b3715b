"""Every float the command line reads lies in a declared domain.

Each case is one subcommand with valid inputs, save one float flag, config
key or penalty / length-law argument, which is set to the drawn value.
The boundary values run for every case; hypothesis then draws further
floats, NaN and infinities included.  The only outcomes allowed are:

* exit 2, with one "config error:" line that names the field, or
* exit 0 with finite printed numbers and no warning.  The exceptions are
  ``distance inf`` when no finite-cost path exists (the target is
  unreachable, or a cost overflows), ``inf`` quartiles of a sweep cell
  whose graph has an overflowing cost (tau near 1 draws +inf weights),
  ``nan`` medians of a sweep cell whose giant has fewer than two
  vertices (c = 0 draws no edges), and the
  length-law exponents that ``classify`` echoes (``poly:inf`` is a point
  mass at 1, beta = inf).

Exit 3 and argparse's own exit never occur.  Integer keys stay fixed and
tiny, so every run, the sweep's included, stays in this process.  Two
unit tests pin the helpers themselves: which ends an interval keeps, that
NaN lies in none, that one bad array entry is refused, and what counts as
an overflow.
"""
from __future__ import annotations

import contextlib
import io
import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pplab import cli
from pplab.cli import parse_penalty, read_graph_text, write_graph_text
from pplab.domain import ConfigError, check_derived, check_domains
from pplab.metrics import components
from pplab.models import IgirgWindow, generate, relength
from pplab.rng import PolyAtZero, derive_master

BOUNDARY = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, 5e-324, -1.0,
            1.0000000000000002, 1.00001]

CONFIGS = {
    "girg": "model = girg\nn = 50\nd = 1\ntau = 2.5\nalpha = 2.0\n"
            "c = 1.0\nlaw = poly:1\nseed = 3\n",
    "igirg": "model = igirg\nlam = 0.05\nd = 1\nside = 1000.0\ntau = 2.5\n"
             "alpha = 2.0\nc = 1.0\nlaw = poly:1\nseed = 3\n",
    "sfp": "model = sfp\nd = 1\nradius = 20\ntau = 2.5\nlambda_perc = 1.0\n"
           "alpha_norm = 1.5\nlaw = poly:1\nseed = 3\n",
    "hrg": "model = hrg\nn = 64\nalpha_h = 0.75\nc_h = 1.0\nt_h = 0.5\n"
           "law = poly:1\nseed = 3\n",
    "sweep": "model = girg\nd = 1\ntau = 2.5\nalpha = 2.0\nc = 1.0\n"
             "penalty = prod:1\nlaw_family = poly\nbeta_grid = 1.0\n"
             "size_grid = 50\npairs_per_graph = 1\ngraphs_per_cell = 1\n"
             "seed = 3\n",
}
FLAGS = {
    "classify": dict(tau="2.5", alpha="2", penalty="prod:1", law="poly:1"),
    "params": dict(tau="2.5", mu="1", nu="1", beta="0.1"),
    "hrgmap": {"phi": "1", "r": "3", "n": "100", "alpha-h": "0.75",
               "c-h": "1", "t-h": "0.5"},
    "boxes": dict(graph="{graph}", tau="2.5", penalty="mono:1,1",
                  law="poly:1", M="1", C="1.3", D="2", delta="0.2",
                  eps="0.2", center="0"),
    "distance": dict(graph="{graph}", source="0", target="5",
                     penalty="prod:1"),
}
PENALTY_ARGS = {"prod:{x}": "mu", "mono:{x},1": "mu", "mono:1,{x}": "nu",
                "sum:{x}": "mu", "max:{x}": "mu", "poly:{x},1,1": "a must",
                "poly:1,{x},1": "mu", "poly:1,1,{x}": "nu"}
LAW_ARGS = {"poly:{x}": "beta", "exp:{x}": "rate", "dexp:{x},1,1": "eta",
            "dexp:2,{x},1": "c1", "dexp:2,1,{x}": "c2", "point:{x}": "value"}


@pytest.mark.parametrize("domain, inside, outside, message", [
    ("(1, inf]", [1.5, math.inf], [1.0, -math.inf], "x must exceed 1"),
    ("(0, inf]", [5e-324, math.inf], [0.0, -0.0], "x must be positive"),
    ("[0, inf]", [0.0, -0.0, math.inf], [-5e-324], "x must be non-negative"),
    ("[1, inf]", [1.0, math.inf], [0.5], "x must be >= 1"),
    ("[0, inf)", [0.0, 1e308], [math.inf, -1.0], "x must lie in [0, inf)"),
    ("(-inf, inf)", [-1e308, 0.0], [math.inf, -math.inf], "x must be finite"),
    ("(0.5, 1)", [0.75], [0.5, 1.0], "x must lie in (0.5, 1)"),
])
def test_check_domains_ends_nan_and_arrays(domain, inside, outside, message):
    for x in inside:
        check_domains({"x": x}, x=domain)
    check_domains({"x": tuple(inside)}, x=domain)
    for x in outside + [math.nan]:
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
            check_domains({"x": x}, x=domain)
        with pytest.raises(ConfigError):       # one bad entry is enough
            check_domains({"x": np.array(inside + [x])}, x=domain)


def test_check_derived_refuses_overflow_and_passes_finite_values():
    assert check_derived("unused", lambda: 2.0**10) == 1024.0
    for compute in (lambda: math.exp(1000.0), lambda: 10.0**400,
                    lambda: 1e308 * 10.0, lambda: math.nan):
        with pytest.raises(ConfigError, match="^x overflows$"):
            check_derived("x overflows", compute)


def _case(command, key, template, field):
    return pytest.param((command, key, template, field),
                        id=f"{command}:{key}={template}")


# (command, flag or config key, template of its text, field the refusal
# names); config cases are keyed by model, flag cases by subcommand
CASES = [
    *[_case("classify", k, "{x}", k) for k in ("tau", "alpha")],
    *[_case("classify", "penalty", t, f) for t, f in PENALTY_ARGS.items()],
    *[_case("classify", "law", t, f) for t, f in LAW_ARGS.items()],
    *[_case("params", k, "{x}", k) for k in ("tau", "mu", "nu", "beta")],
    *[_case("hrgmap", k, "{x}", f) for k, f in [
        ("phi", "phi"), ("r", "r must"), ("alpha-h", "alpha_H"),
        ("c-h", "C_H"), ("t-h", "T_H")]],
    *[_case("boxes", k, "{x}", k)
      for k in ("tau", "M", "C", "D", "delta", "eps", "center")],
    *[_case("distance", "penalty", t, f) for t, f in PENALTY_ARGS.items()],
    *[_case("girg", k, "{x}", f) for k, f in [
        ("tau", "tau"), ("alpha", "alpha"), ("c", "c must")]],
    *[_case("igirg", k, "{x}", f) for k, f in [
        ("lam", "lam"), ("side", "side"), ("tau", "tau"),
        ("alpha", "alpha"), ("c", "c must")]],
    *[_case("igirg", "law", t, f) for t, f in LAW_ARGS.items()],
    *[_case("sfp", k, "{x}", k) for k in ("tau", "lambda_perc",
                                          "alpha_norm")],
    *[_case("hrg", k, "{x}", f) for k, f in [
        ("alpha_h", "alpha_H"), ("c_h", "C_H"), ("t_h", "T_H")]],
    *[_case("sweep", k, "{x}", f) for k, f in [
        ("tau", "tau"), ("alpha", "alpha"), ("c", "c must"),
        ("beta_grid", "beta_grid")]],
]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("domains")
    graph = root / "ig.graph"
    graph.write_text(write_graph_text(generate(
        IgirgWindow(lam=0.1, d=1, side=1000.0, tau=2.5, alpha=2.0, c=1.0),
        3, PolyAtZero(1.0))))
    return root, graph


def _argv(case, value, root, graph) -> list:
    command, key, template, _ = case
    text = template.replace("{x}", repr(float(value)))
    if command in FLAGS:
        flags = {**FLAGS[command], key: text}
        return [command] + [f"--{k}={v.format(graph=graph)}"
                            for k, v in flags.items()]
    cfg = root / "run.cfg"
    cfg.write_text("".join(
        (f"{key} = {text}" if line.split(" = ")[0] == key else line) + "\n"
        for line in CONFIGS[command].splitlines()))
    if command == "sweep":
        return ["sweep", "--config", str(cfg)]
    return ["generate", "--config", str(cfg), "--out", str(root / "out")]


def _overflows(g, f) -> bool:
    """Some edge of g costs +inf under f."""
    w = g.vertices.weights
    with np.errstate(over="ignore"):
        cost = f(w[g.edges_u], w[g.edges_v])
    return bool(np.isinf(cost * g.lengths).any())


def _unreachable_or_overflowed(graph, penalty, source, target) -> bool:
    g = read_graph_text(graph.read_text())
    if not any(source in c and target in c for c in components(g)):
        return True
    return _overflows(g, parse_penalty(penalty))


def _sweep_overflows(cfg) -> bool:
    """The one graph of a one-cell sweep config has a +inf cost; it is
    drawn as the sweep draws it."""
    spec = cli.sweep_from_config(cli.parse_config(Path(cfg).read_text()),
                                 None)
    (n,), (beta,) = spec.size_grid, spec.beta_grid
    base = generate(replace(spec.base, n=n),
                    derive_master(spec.seed, f"graph:{n}:0"))
    return _overflows(relength(base, spec.law_family(beta)), spec.f)


def _check(case, value, root, graph) -> None:
    argv = _argv(case, value, root, graph)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    seen = (argv, rc, out, err, [str(w.message) for w in caught])
    assert not caught, seen
    if rc == 2:
        assert out == "" and err.startswith("config error: "), seen
        assert err.count("\n") == 1, seen
        # the field is named outside any quoted echo of the input
        assert case[3] in re.sub(r"'[^']*'", "", err), seen
        return
    assert rc == 0 and err == "", seen
    if case[0] == "classify":      # the law's exponents are echoed
        out = re.sub(r"beta[-+]=\S+", "", out)
    if case[0] == "distance" and out == "distance inf\n":
        assert _unreachable_or_overflowed(graph, argv[-1].split("=", 1)[1],
                                          0, 5), seen
        return
    if case[0] == "sweep":         # beta,n,median_d,q1,q3,giant_frac,...
        for row in out.splitlines()[1:]:
            cells = row.split(",")
            if float(cells[5]) * int(cells[1]) < 2:
                out = out.replace(row, row.replace("nan", ""))
            elif "inf" in cells[2:5]:
                assert _sweep_overflows(argv[-1]), seen
                out = out.replace(row, row.replace("inf", ""))
    for token in re.split(r"[\s=,;:\[\]()]+", out):
        try:
            assert math.isfinite(float(token)), seen
        except ValueError:
            continue


@pytest.mark.parametrize("case", CASES)
def test_boundary_values_are_refused_by_name_or_answered(files, case):
    for value in BOUNDARY:
        _check(case, value, *files)


@settings(derandomize=True, max_examples=250, deadline=None, database=None)
@given(case=st.sampled_from([p.values[0] for p in CASES]),
       value=st.floats())
def test_drawn_values_are_refused_by_name_or_answered(files, case, value):
    _check(case, value, *files)
