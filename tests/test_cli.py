"""Config parsing, graph file format, and the pplab subcommands."""
from __future__ import annotations

import functools
import hashlib
import itertools
import math
import multiprocessing
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from pplab import cli, experiments
from pplab.cli import (
    ConfigError,
    main,
    model_from_config,
    parse_config,
    parse_length_law,
    parse_penalty,
    read_graph_text,
    sweep_from_config,
    write_graph_text,
)
from pplab.geometry import Window
from pplab.models import (Girg, Graph, Hrg, IgirgWindow, SfpWindow, VertexSet,
                          generate)
from pplab.rng import Exponential, PolyAtZero


# ---------------------------------------------------------------------------
# mini-grammars


GRAMMAR_PENALTIES = [
    "prod:1", " prod:0 ", "PROD:2", "prod : 1", "prod:1.5e-1", "prod:nan",
    "mono:2,0.5", "mono: 1 , 0 ", "sum:1.5", "max:2", "max:0", "max:-1",
    "poly:1,1.75,0;1,0,0.75", "poly:2,0,0", "poly:1,1,1;", "poly:",
    "poly:1,-1,0", "poly:0,1,1", "poly:1,2", "poly:a,b,c",
    "prod", "prod:", "prod:x", "prod:1,2", "mono:1", "mono:1,2,3",
    "frob:1", "", ":", ":1", "prod:-1", "sum:", "max:1:2", "mono:1,,2",
]
GRAMMAR_LAWS = [
    "poly:0.5", "POLY:2", " exp:2 ", "dexp:2,1,1", "point:3", "point:0",
    "poly:0", "poly:-1", "poly:nan", "exp:-1", "exp:0", "exp:inf",
    "dexp:1,1", "dexp:1,1,1", "dexp:2,0,1", "dexp:2,1,x", "point:-1",
    "gauss:1", "poly", "poly:", "poly:1,2", "", ":", "exp:1:2",
]
# sha256 of every spec's result repr or error message, one line each
GRAMMAR_DIGEST = "cfee91d4f5daff0f62b33600f6e84c14bd69f3e6f1c45b06fcc597ec76b04b3f"


def test_grammar_results_and_messages_pinned():
    lines = []
    for parse, specs in ((parse_penalty, GRAMMAR_PENALTIES),
                         (parse_length_law, GRAMMAR_LAWS)):
        for spec in specs:
            try:
                got = repr(parse(spec))
            except Exception as exc:
                got = f"{type(exc).__name__}: {exc}"
            lines.append(f"{parse.__name__}({spec!r}) -> {got}")
    assert sum("ConfigError" in line for line in lines) == 41
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == GRAMMAR_DIGEST, text


# ---------------------------------------------------------------------------
# run configuration


CFG_TEXT = """\
# a comment, then keys in scrambled order
tau = 2.5
model = girg

n = 64
alpha = 2.0
c = 0.5
penalty = prod:1
beta_grid = 0.1,1.0
seed = 9
"""


def test_config_round_trip():
    cfg = parse_config(CFG_TEXT)
    assert cfg.get("n") == 64
    assert cfg.get("beta_grid") == (0.1, 1.0)
    assert cfg.get("missing") is None
    assert "tau" in cfg and "side" not in cfg


def test_config_rejections():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config("frobnicate = 1\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("n = 1\nn = 2\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("just some words\n")
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config("n = 2.5\n")
    with pytest.raises(ConfigError, match="expected true or false"):
        parse_config("pin_origin = maybe\n")
    with pytest.raises(ConfigError, match="unknown penalty kind"):
        parse_config("penalty = frob:1\n")


def test_model_from_config_all_models():
    girg = model_from_config(parse_config(
        "model = girg\nn = 10\nd = 2\ntau = 2.5\nalpha = 2.0\nc = 0.5\n"))
    assert girg == Girg(n=10, d=2, tau=2.5, alpha=2.0, c=0.5)
    ig = model_from_config(parse_config(
        "model = igirg\nlam = 1.0\nd = 1\nside = 50.0\ntau = 2.5\n"
        "alpha = 2.0\nc = 1.0\npin_origin = true\n"))
    assert ig == IgirgWindow(lam=1.0, d=1, side=50.0, tau=2.5, alpha=2.0,
                             c=1.0, pin_origin=True)
    sfp = model_from_config(parse_config(
        "model = sfp\nd = 1\nradius = 2\ntau = 2.5\nlambda_perc = 1.0\n"
        "alpha_norm = 1.5\n"))
    assert sfp == SfpWindow(d=1, radius=2, tau=2.5, lambda_perc=1.0,
                            alpha_norm=1.5)
    hrg = model_from_config(parse_config(
        "model = hrg\nn = 100\nalpha_h = 0.75\nc_h = 1.0\nt_h = 0.5\n"))
    assert hrg == Hrg(n=100, alpha_H=0.75, C_H=1.0, T_H=0.5)
    with pytest.raises(ConfigError, match="missing required"):
        model_from_config(parse_config("model = girg\nn = 10\n"))
    # the dataclass domain check surfaces
    with pytest.raises(ConfigError, match="^tau must exceed 1"):
        model_from_config(parse_config(
            "model = girg\nn = 10\nd = 2\ntau = 1.0\nalpha = 2.0\nc = 0.5\n"))


def test_sweep_from_config_guards():
    base = ("model = girg\nd = 2\ntau = 2.5\nalpha = 2.0\nc = 0.5\n"
            "penalty = prod:1\nbeta_grid = 0.1\nsize_grid = 64\n")
    spec = sweep_from_config(parse_config(base + "law_family = poly\n"), None)
    assert spec.law_family is PolyAtZero
    assert spec.pairs_per_graph == 30 and spec.graphs_per_cell == 5
    with pytest.raises(ConfigError, match="flat penalties"):
        sweep_from_config(parse_config(base + "law_family = exp\n"), None)
    flat = base.replace("penalty = prod:1", "penalty = prod:0")
    fpp = sweep_from_config(parse_config(flat + "law_family = exp\n"), None)
    assert fpp.law_family is Exponential
    with pytest.raises(ConfigError, match="drop the n key"):
        sweep_from_config(parse_config(base + "law_family = poly\nn = 8\n"),
                          None)
    with pytest.raises(ConfigError, match="model = girg"):
        sweep_from_config(parse_config(
            "model = hrg\nn = 8\nalpha_h = 0.75\nc_h = 1.0\n"), None)


@pytest.mark.parametrize("extra", [
    "lam = 5", "radius = 3", "alpha_h = 0.6", "beta_grid = 0.1",
    "pairs_per_graph = 3", "penalty = prod:1"])
def test_generate_refuses_keys_the_model_does_not_read(extra):
    text = ("model = girg\nn = 10\nd = 2\ntau = 2.5\nalpha = 2.0\n"
            f"c = 0.5\n{extra}\n")
    key = extra.split()[0]
    with pytest.raises(ConfigError) as exc:
        model_from_config(parse_config(text))
    assert str(exc.value) == (f"config key {key!r} is not read by generate "
                              "with model = girg")


@pytest.mark.parametrize("extra", ["law = exp:3", "side = 9", "lam = 1",
                                   "t_h = 0.5", "pin_origin = true"])
def test_sweep_refuses_keys_it_does_not_read(extra):
    text = ("model = girg\nd = 2\ntau = 2.5\nalpha = 2.0\nc = 0.5\n"
            "penalty = prod:1\nlaw_family = poly\nbeta_grid = 0.1\n"
            f"size_grid = 64\n{extra}\n")
    key = extra.split()[0]
    with pytest.raises(ConfigError) as exc:
        sweep_from_config(parse_config(text), None)
    assert str(exc.value) == (f"config key {key!r} is not read by sweep "
                              "with model = girg")


def test_optional_keys_fall_back_to_the_dataclass_defaults():
    ig = model_from_config(parse_config(
        "model = igirg\nlam = 1.0\nd = 1\nside = 5.0\ntau = 2.5\n"
        "alpha = 2.0\nc = 1.0\n"))
    assert ig == IgirgWindow(lam=1.0, d=1, side=5.0, tau=2.5, alpha=2.0,
                             c=1.0, pin_origin=False)
    hrg = model_from_config(parse_config(
        "model = hrg\nn = 100\nalpha_h = 0.75\nc_h = 1.0\n"))
    assert hrg == Hrg(n=100, alpha_H=0.75, C_H=1.0)
    base = ("model = girg\nd = 2\ntau = 2.5\nalpha = 2.0\nc = 0.5\n"
            "penalty = prod:1\nlaw_family = poly\nbeta_grid = 0.1\n"
            "size_grid = 64\n")
    spec = sweep_from_config(parse_config(base), None)
    assert spec == experiments.SweepSpec(
        base=Girg(n=1, d=2, tau=2.5, alpha=2.0, c=0.5), f=spec.f,
        law_family=PolyAtZero, beta_grid=(0.1,), size_grid=(64,))
    spec = sweep_from_config(parse_config(
        base + "pairs_per_graph = 4\ngraphs_per_cell = 2\n"
        "seed = 5\n"), seed_override=6)
    assert (spec.pairs_per_graph, spec.graphs_per_cell,
            spec.seed) == (4, 2, 6)


def test_the_threshold_kernel_reads_c():
    # alpha = inf has no constant of its own: c1 is an unknown key
    with pytest.raises(ConfigError,
                       match=r"^line 1: unknown config key 'c1'$"):
        parse_config("c1 = 2.0\n")
    girg = model_from_config(parse_config(
        "model = girg\nn = 10\nd = 1\ntau = 2.5\nalpha = inf\nc = 2.0\n"))
    assert girg == Girg(n=10, d=1, tau=2.5, alpha=math.inf, c=2.0)


# ---------------------------------------------------------------------------
# graph text format


def test_graph_file_round_trip_girg():
    g = generate(Girg(n=40, d=2, tau=2.5, alpha=2.0, c=0.5), 7,
                 PolyAtZero(1.0))
    text = write_graph_text(g)
    assert text.startswith("#format pplab-graph 1\n#model girg\n#d 2\n#n 40\n"
                           "#side 1.0\n")
    h = read_graph_text(text)
    assert h.n == g.n and h.m == g.m
    assert h.vertices.window == g.vertices.window
    np.testing.assert_array_equal(h.vertices.positions, g.vertices.positions)
    np.testing.assert_array_equal(h.vertices.weights, g.vertices.weights)
    np.testing.assert_array_equal(h.edges_u, g.edges_u)
    np.testing.assert_array_equal(h.lengths, g.lengths)
    assert write_graph_text(h) == text


def test_graph_file_round_trip_keeps_model_name():
    g = generate(SfpWindow(d=1, radius=3, tau=2.2, lambda_perc=1.0,
                           alpha_norm=1.5), 11, Exponential(1.0))
    text = write_graph_text(g)
    assert "#model sfp\n" in text
    assert read_graph_text(text).vertices.window.boundary == "hard"
    assert write_graph_text(read_graph_text(text)) == text


def test_graph_file_rejects_malformed():
    good = write_graph_text(
        generate(Girg(n=4, d=1, tau=2.5, alpha=2.0, c=0.5), 1,
                 PolyAtZero(1.0)))
    with pytest.raises(ValueError, match="format"):
        read_graph_text("#format pplab-graph 2\n" +
                        good.split("\n", 1)[1])
    with pytest.raises(ValueError, match="missing header"):
        read_graph_text("#format pplab-graph 1\n#model girg\n#d 1\n#n 0\n")
    with pytest.raises(ValueError, match="unknown model"):
        read_graph_text(good.replace("#model girg", "#model blob"))
    with pytest.raises(ValueError, match="consecutive"):
        read_graph_text(good.replace("v 1 ", "v 7 ", 1))
    with pytest.raises(ValueError, match="malformed edge"):
        read_graph_text(good + "e 0 1\n")
    with pytest.raises(ValueError, match="u < v"):
        read_graph_text("#format pplab-graph 1\n#model girg\n#d 1\n#n 2\n"
                        "#side 1.0\nv 0 0.1 1.0\nv 1 0.2 1.0\ne 1 0 1.0\n")
    # weights below 1 are not a VertexSet
    with pytest.raises(ValueError, match="^weights must be >= 1"):
        read_graph_text("#format pplab-graph 1\n#model girg\n#d 1\n#n 1\n"
                        "#side 1.0\nv 0 0.1 0.5\n")


def test_graph_file_names_the_malformed_line():
    head = "#format pplab-graph 1\n#model igirg\n#d 2\n#n 3\n#side 9.0\n"
    verts = ["v 0 0.5 1.5 1.0", "v 1 -2.0 3.0 2.0", "v 2 1.0 1.0 1.5"]
    edges = ["e 0 1 0.25", "e 0 2 1.5", "e 1 2 3.0"]

    def text(vs, es):
        return head + "".join(line + "\n" for line in vs + es)

    assert read_graph_text(text(verts, edges)).m == 3
    cases = [
        (["v 0 0.5 1.5 1.0", "v 1 -2.0 2.0", "v 2 1.0 1.0 1.5"], edges,
         "line 7: malformed vertex line"),        # a coordinate missing
        (verts, ["e 0 1 0.25", "e 0 2 1.5", "e 1 2 long"],
         "line 11: malformed edge line"),         # non-numeric length
        (verts, ["e 0 1 0.25", "v 0 2 1.5", "e 1 2 3.0"],
         "line 10: malformed edge line"),         # wrong prefix
        (["v 0 0.5 1.5 1.0", "w 1 -2.0 3.0 2.0", "v 2 1.0 1.0 1.5"], edges,
         "line 7: malformed vertex line"),
        (verts, ["e 0 1 0.25", "", "e 1 2 3.0"],
         "line 10: malformed edge line"),         # blank line
        (verts, ["e 0 1 0.25", "e 0 2 1.5 ", "e 1 2 3.0"],
         "line 10: malformed edge line"),         # trailing space
        (verts, ["e 0 1 0.25", "e 0 2.0 1.5", "e 1 2 3.0"],
         "line 10: malformed edge line"),         # non-integer endpoint
        (["v 0 0.5 1.5 1.0", "v 2 -2.0 3.0 2.0", "v 1 1.0 1.0 1.5"], edges,
         "line 7: vertex ids must be consecutive from 0"),
        (verts[:2], [], "expected 3 vertex lines, found 2"),
    ]
    for vs, es, message in cases:
        with pytest.raises(ValueError) as exc:
            read_graph_text(text(vs, es))
        assert str(exc.value) == message


def test_graph_file_round_trips_extreme_reals():
    extremes = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1]
    vs = VertexSet(Window(2, 4.0, boundary="hard"),
                   np.array([extremes[:2], extremes[2:], [-0.1, -5e-324]]),
                   np.array([1.7976931348623157e308, 1.0000000000000002, 1.0]))
    g = Graph(vs, [0, 0, 1], [1, 2, 2], extremes[:3])
    g2 = g.with_lengths([extremes[3], 0.0, 1.7976931348623157e308])
    for graph in (g, g2):
        text = write_graph_text(graph)
        h = read_graph_text(text)
        for a, b in ((h.vertices.positions, graph.vertices.positions),
                     (h.vertices.weights, graph.vertices.weights),
                     (h.lengths, graph.lengths)):
            assert a.tobytes() == b.tobytes()
        assert write_graph_text(h) == text


# chunk sizes for the reader: a line per piece, and pieces of a few lines
SMALL_CHUNKS = [1, 40]


@pytest.mark.parametrize("chars", SMALL_CHUNKS)
def test_graph_file_reads_alike_in_small_chunks(monkeypatch, chars):
    monkeypatch.setattr(cli, "_CHUNK", chars)
    test_graph_file_round_trip_girg()
    test_graph_file_round_trip_keeps_model_name()
    test_graph_file_rejects_malformed()
    test_graph_file_names_the_malformed_line()
    test_graph_file_round_trips_extreme_reals()


@pytest.mark.parametrize("chars", [None] + SMALL_CHUNKS)
def test_graph_file_reads_any_line_break(monkeypatch, chars):
    # str.splitlines' breaks: CRLF, the old CR, a form feed in between, and
    # no break after the last line; on a graph, on its vertices alone (the
    # file ends after the vertex block) and on no vertices (after the
    # headers)
    if chars is not None:
        monkeypatch.setattr(cli, "_CHUNK", chars)
    g = generate(Girg(n=30, d=2, tau=2.5, alpha=2.0, c=0.5), 3,
                 PolyAtZero(1.0))
    empty = VertexSet(g.vertices.window, np.zeros((0, 2)), np.zeros(0))
    for h in (g, Graph(g.vertices, [], [], []), Graph(empty, [], [], [])):
        text = write_graph_text(h)
        lines = text.splitlines()
        for other in (text, text.replace("\n", "\r\n"),
                      text.replace("\n", "\r"), "\f".join(lines),
                      "\r\n".join(lines), "\n".join(lines)):
            assert write_graph_text(read_graph_text(other)) == text


@pytest.mark.parametrize("chars", SMALL_CHUNKS)
def test_graph_file_names_a_bad_line_at_a_chunk_edge(monkeypatch, chars):
    # every block line in turn is blanked or given the wrong tag; among them
    # are lines that open a piece and lines that close one
    monkeypatch.setattr(cli, "_CHUNK", chars)
    lines = write_graph_text(generate(Girg(n=6, d=1, tau=2.5, alpha=2.0,
                                           c=2.0), 4,
                                      PolyAtZero(1.0))).splitlines()
    first = 5                      # the header's lines
    seen = set()
    for j in range(first, len(lines)):
        what = "vertex" if j < first + 6 else "edge"
        for bad in ("", "w" + lines[j][1:]):
            broken = "".join(line + "\n" for line in
                             lines[:j] + [bad] + lines[j + 1:])
            for at, piece in cli._numbered_lines(broken, 0, 0):
                seen |= {edge for edge, k in (("opens", at),
                                              ("closes", at + len(piece) - 1))
                         if k == j}
            with pytest.raises(ValueError) as exc:
                read_graph_text(broken)
            assert str(exc.value) == f"line {j + 1}: malformed {what} line"
    assert seen == {"opens", "closes"}


def test_graph_file_reads_in_bounded_memory():
    # the query workload's graph, read a piece at a time: the new arrays
    # and the Graph's checks stay below 2.5 times the text, which a list of
    # every line would pass on its own, whichever line break the file uses
    text = write_graph_text(generate(Girg(n=2**12, d=2, tau=2.5, alpha=2.0,
                                          c=0.5), 1, PolyAtZero(1.0)))
    for brk in ("\n", "\r\n", "\r", "\f"):
        other = text.replace("\n", brk)
        tracemalloc.start()
        try:
            read_graph_text(other)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * len(other), (repr(brk), peak / len(other))


# ---------------------------------------------------------------------------
# subcommands, via main()


FIXTURE = """\
#format pplab-graph 1
#model igirg
#d 1
#n 4
#side 20.0
v 0 -3.0 2.0
v 1 0.0 3.0
v 2 3.0 5.0
v 3 8.0 1.0
e 0 1 0.5
e 1 2 2.0
"""


def _run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_cmd_distance_hand_arithmetic(tmp_path, capsys):
    p = tmp_path / "g.graph"
    p.write_text(FIXTURE)
    # prod:1 outward: 0->1 costs 0.5*2*3 = 3, 1->2 costs 2*3*5 = 30
    rc, out, _ = _run(capsys, "distance", "--graph", str(p),
                      "--penalty", "prod:1", "--source", "0",
                      "--target", "2")
    assert rc == 0
    assert out == "distance 33.0\npath 0 1 2\n"
    rc, out, _ = _run(capsys, "distance", "--graph", str(p),
                      "--penalty", "mono:1,0", "--source", "2",
                      "--target", "0", "--direction", "inward")
    # inward from 2: edges traversed toward 2; costs 2*w1*... = hand:
    # hop 0->1 costs 0.5*f(W0,W1)=0.5*2, hop 1->2 costs 2*3
    assert rc == 0
    assert out == "distance 7.0\npath 2 1 0\n"


def test_cmd_distance_edge_cases(tmp_path, capsys):
    p = tmp_path / "g.graph"
    p.write_text(FIXTURE)
    rc, out, _ = _run(capsys, "distance", "--graph", str(p),
                      "--penalty", "prod:1", "--source", "0",
                      "--target", "3")
    assert (rc, out) == (0, "distance inf\n")
    rc, out, _ = _run(capsys, "distance", "--graph", str(p),
                      "--penalty", "prod:1", "--source", "1",
                      "--target", "1")
    assert (rc, out) == (0, "distance 0.0\npath 1\n")
    rc, _, err = _run(capsys, "distance", "--graph", str(p),
                      "--penalty", "prod:1", "--source", "0",
                      "--target", "9")
    assert (rc, err) == (2, "config error: target must lie in [0, 4)\n")


def test_cmd_distance_refuses_a_nan_weight(tmp_path, capsys):
    cfg = tmp_path / "g.cfg"
    cfg.write_text("model = girg\nn = 20\nd = 2\ntau = 2.5\nalpha = 2\n"
                   "c = 0.5\nlaw = poly:1\n")
    gp = tmp_path / "g.graph"
    assert _run(capsys, "generate", "--config", str(cfg), "--out", str(gp),
                "--seed", "3")[0] == 0
    argv = ["distance", "--graph", str(gp), "--penalty", "prod:1",
            "--source", "0", "--target", "5"]
    assert _run(capsys, *argv)[0] == 0
    lines = gp.read_text().splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.startswith("v 0 "))
    lines[row] = lines[row].rsplit(" ", 1)[0] + " nan\n"
    gp.write_text("".join(lines))
    rc, out, err = _run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == f"config error: {gp}: weights must be >= 1\n"


# a square of two two-hop routes from 0 to 3, 0-1-3 and 0-2-3, whose
# lengths add up to 2.0 either way; under prod:0 a hop costs its length
TIED_ROUTES = """\
#format pplab-graph 1
#model igirg
#d 1
#n 4
#side 20.0
v 0 -3.0 2.0
v 1 0.0 3.0
v 2 3.0 5.0
v 3 8.0 1.0
e 0 1 1.5
e 0 2 0.5
e 1 3 0.5
e 2 3 1.5
"""


def test_cmd_distance_under_tied_routes(tmp_path, capsys):
    p = tmp_path / "tied.graph"
    p.write_text(TIED_ROUTES)
    lengths = {frozenset((0, 1)): 1.5, frozenset((0, 2)): 0.5,
               frozenset((1, 3)): 0.5, frozenset((2, 3)): 1.5}
    for s, t, direction in ((0, 3, "outward"), (3, 0, "outward"),
                            (0, 3, "inward")):
        argv = ["distance", "--graph", str(p), "--penalty", "prod:0",
                "--source", str(s), "--target", str(t),
                "--direction", direction]
        rc, out, _ = _run(capsys, *argv)
        assert rc == 0
        dist_line, path_line = out.splitlines()
        assert dist_line == "distance 2.0"
        path = [int(v) for v in path_line.split()[1:]]
        assert path[0] == s and path[-1] == t and len(path) == 3
        # any shortest route will do, but it must run along real edges
        assert sum(lengths[frozenset(hop)]
                   for hop in zip(path, path[1:])) == 2.0
        assert _run(capsys, *argv) == (0, out, "")


def test_seed_is_refused_where_nothing_is_random(tmp_path, capsys):
    # only generate and sweep draw random numbers, so only they take --seed
    p = tmp_path / "g.graph"
    p.write_text(FIXTURE)
    for argv in (["distance", "--graph", str(p), "--penalty", "prod:1",
                  "--source", "0", "--target", "2"],
                 ["params", "--tau", "2.5", "--mu", "1", "--nu", "1",
                  "--beta", "0.1"]):
        assert _run(capsys, *argv)[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


# sha256 of the concatenated `pplab distance` stdout of
# test_cmd_distance_output_digest, recorded before the search stopped at
# its target; any change to a distance, a path or a tie-break shows here.
DISTANCE_DIGEST = "76b7e42cc0f9994812ad502e8bbc7f255e076bf35633b620ad98759ea7075205"


def test_cmd_distance_output_digest(tmp_path, capsys):
    pick = np.random.default_rng(31)
    pairs = [(int(s), int(t)) for s, t in pick.integers(1024, size=(7, 2))]
    pairs.append((5, 5))
    digest = hashlib.sha256()
    # point:1 ties every length, but the Pareto weights still give every
    # path its own cost, so no two routes tie here and no tie rule is
    # pinned; test_cmd_distance_under_tied_routes covers ties
    for law in ("point:1", "poly:1"):
        cfg = tmp_path / "q.cfg"
        cfg.write_text("model = girg\nn = 1024\nd = 2\ntau = 2.5\n"
                       f"alpha = 2\nc = 0.5\nlaw = {law}\n")
        gp = tmp_path / "q.graph"
        rc, _, _ = _run(capsys, "generate", "--config", str(cfg), "--out",
                        str(gp), "--seed", "3")
        assert rc == 0
        for pen in ("prod:1", "mono:2,0.5", "sum:1"):
            for direction in ("outward", "inward"):
                for s, t in pairs:
                    rc, out, _ = _run(capsys, "distance", "--graph", str(gp),
                                      "--penalty", pen, "--source", str(s),
                                      "--target", str(t),
                                      "--direction", direction)
                    assert rc == 0
                    digest.update(out.encode())
    assert digest.hexdigest() == DISTANCE_DIGEST


def test_cmd_generate_sfp_and_determinism(tmp_path, capsys):
    cfg = tmp_path / "sfp.cfg"
    cfg.write_text("model = sfp\nd = 1\nradius = 2\ntau = 2.5\n"
                   "lambda_perc = 1.0\nalpha_norm = 1.5\nlaw = poly:1\n"
                   "seed = 11\n")
    out1 = tmp_path / "a.graph"
    rc, out, _ = _run(capsys, "generate", "--config", str(cfg),
                      "--out", str(out1))
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n 5" and lines[1].startswith("edges ")
    assert lines[2].startswith("giant_frac ")
    text = out1.read_text()
    assert sum(1 for l in text.splitlines() if l.startswith("v ")) == 5
    # nearest-neighbour edges are forced, so at least the 4-edge path
    assert sum(1 for l in text.splitlines() if l.startswith("e ")) >= 4
    out2 = tmp_path / "b.graph"
    _run(capsys, "generate", "--config", str(cfg), "--out", str(out2))
    assert out2.read_text() == text
    out3 = tmp_path / "c.graph"
    _run(capsys, "generate", "--config", str(cfg), "--out", str(out3),
         "--seed", "12")
    assert out3.read_text() != text


def test_cmd_generate_edge_count_matches_pair_oracle(tmp_path, capsys):
    cfg = tmp_path / "f1.cfg"
    cfg.write_text("model = girg\nn = 1000\nd = 2\ntau = 2.9\nalpha = 4.0\n"
                   "c = 0.1\nlaw = poly:1\nseed = 42\n")
    gp = tmp_path / "f1.graph"
    rc, out, _ = _run(capsys, "generate", "--config", str(cfg),
                      "--out", str(gp))
    assert rc == 0
    edges = int(out.splitlines()[1].split()[1])

    # independent Monte-Carlo pair oracle with the model's marginals
    rng = np.random.default_rng(2718)
    reps = 1_000_000
    tau, alpha, c, n = 2.9, 4.0, 0.1, 1000
    w1 = rng.random(reps) ** (-1.0 / (tau - 1.0))
    w2 = rng.random(reps) ** (-1.0 / (tau - 1.0))
    dx = np.abs(rng.random((reps, 2)) - rng.random((reps, 2)))
    dx = np.minimum(dx, 1.0 - dx)
    dist2 = (dx ** 2).sum(axis=1)
    p = np.minimum(1.0, c * (w1 * w2 / (n * dist2)) ** alpha)
    n_pairs = n * (n - 1) / 2
    mean = n_pairs * p.mean()
    sd = math.sqrt(n_pairs * float((p * (1.0 - p)).mean()))
    mc_err = n_pairs * float(p.std()) / math.sqrt(reps)
    assert abs(edges - mean) <= 3.0 * (sd + mc_err)


CLASSIFY_TAUS = ["0.5", "1", "1.05", "1.5", "2", "2.5", "2.95", "3", "3.5"]
CLASSIFY_ALPHAS = ["-1", "0.5", "1", "2", "inf"]
CLASSIFY_PENALTIES = [
    "prod:0", "prod:0.5", "prod:1", "mono:1,0", "mono:0,1", "mono:2,0.5",
    "mono:0.5,2", "sum:1", "sum:0.5", "max:1", "max:2",
    "poly:1,1.75,0;1,0,0.75", "poly:1,1,0;1,0,1;2,0.5,0.5",
    "poly:1,0,0;1,1,1", "poly:2,0,0"]
CLASSIFY_LAWS = ["poly:0.1", "poly:0.5", "poly:1", "poly:2", "exp:1",
                 "dexp:2,1,1", "point:0", "point:1"]
# sha256 of exit code, stdout and stderr of every grid call, in grid order
CLASSIFY_DIGEST = \
    "b4af2d7e94218e7f8973289a2db1ed58de7a291fc6e19228619040eb89ce7722"


def test_cmd_classify_grid_pinned(capsys, monkeypatch):
    # 10,800 calls; one parser serves them all
    monkeypatch.setattr(cli, "_build_parser",
                        functools.cache(cli._build_parser))
    digest = hashlib.sha256()
    first_words = set()
    for tau, alpha, penalty, law, direction in itertools.product(
            CLASSIFY_TAUS, CLASSIFY_ALPHAS, CLASSIFY_PENALTIES, CLASSIFY_LAWS,
            ("outward", "inward")):
        rc, out, err = _run(capsys, "classify", "--tau", tau, "--alpha",
                            alpha, "--penalty", penalty, "--law", law,
                            "--direction", direction)
        digest.update(f"{rc}\n{out}{err}".encode())
        first_words.add((out or err).split(" ")[0])
    assert first_words == {
        "config", "FppExplosive", "FppConservative", "ExplosiveSideways",
        "ExplosiveLengthwise", "Conservative", "Critical", "Inconclusive"}
    assert digest.hexdigest() == CLASSIFY_DIGEST


@pytest.mark.parametrize("tau, alpha, penalty, field", [
    ("nan", "2", "prod:1", "tau"),
    ("2.5", "nan", "prod:1", "alpha"),
    ("nan", "2", "prod:0", "tau"),
    ("2.5", "nan", "prod:0", "alpha"),
])
def test_cmd_classify_refuses_nan(capsys, tau, alpha, penalty, field):
    rc, out, err = _run(capsys, "classify", "--tau", tau, "--alpha", alpha,
                        "--penalty", penalty, "--law", "poly:1")
    assert (rc, out) == (2, "")
    assert err.startswith("config error: " + field)


@pytest.mark.parametrize("line, field", [
    ("alpha = 2.0", "alpha"), ("c = 1.0", "c must lie in [0, inf)")])
def test_cmd_generate_refuses_nan_model_constants(tmp_path, capsys, line,
                                                  field):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(("model = girg\nn = 100\nd = 1\ntau = 2.5\nalpha = 2.0\n"
                    "c = 1.0\nlaw = poly:1\nseed = 3\n").replace(
                        line, line.split()[0] + " = nan"))
    out_path = tmp_path / "nan.graph"
    rc, _, err = _run(capsys, "generate", "--config", str(cfg),
                      "--out", str(out_path))
    assert rc == 2 and err.startswith("config error: " + field)
    assert not out_path.exists()


SWEEP_CFG = """\
model = girg
d = 2
tau = 2.5
alpha = 2.0
c = 0.5
penalty = prod:1
law_family = poly
beta_grid = 0.1
size_grid = 512
pairs_per_graph = 10
graphs_per_cell = 2
seed = 7
"""


def test_cmd_sweep_single_cell(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    rc, out, _ = _run(capsys, "sweep", "--config", str(cfg))
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "beta,n,median_d,q1,q3,giant_frac,verdict,seed"
    assert len(lines) == 2
    assert lines[1].endswith(",ExplosiveLengthwise,7")

    csv_path = tmp_path / "out.csv"
    rc, out2, _ = _run(capsys, "sweep", "--config", str(cfg),
                       "--out", str(csv_path))
    assert rc == 0 and "wrote 1 rows" in out2
    assert csv_path.read_text() == out
    # --seed overrides the config seed
    rc, out3, _ = _run(capsys, "sweep", "--config", str(cfg), "--seed", "9")
    assert out3.splitlines()[1].endswith(",9")
    assert out3 != out


def test_cmd_sweep_prints_inf_medians_where_costs_overflow(tmp_path, capsys):
    # at tau = 1.00001 the Pareto weights overflow to +inf, a valid draw,
    # and so does every prod:1 cost through them
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("model = girg\nd = 1\ntau = 1.00001\nalpha = 2\nc = 1\n"
                   "penalty = prod:1\nlaw_family = poly\nbeta_grid = 1.0\n"
                   "size_grid = 50\npairs_per_graph = 1\n"
                   "graphs_per_cell = 1\nseed = 3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = _run(capsys, "sweep", "--config", str(cfg))
    assert (rc, err) == (0, "")
    assert out.splitlines()[1] == "1.0,50,inf,inf,inf,1.0,Conservative,3"


def test_cmd_sweep_refuses_bad_configs_before_generating(tmp_path, capsys,
                                                          monkeypatch):
    def no_generate(*args, **kwargs):
        raise AssertionError("a graph was generated")

    monkeypatch.setattr(experiments, "generate", no_generate)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG.replace("size_grid = 512",
                                     "size_grid = 64, 200000"))
    rc, out, err = _run(capsys, "sweep", "--config", str(cfg))
    assert rc == 2 and out == ""
    assert err == "config error: vertex count 200000 exceeds cap 100000\n"
    # the thread-pool knob is gone: a config that still sets it is refused
    cfg.write_text(SWEEP_CFG + "workers = 2\n")
    rc, _, err = _run(capsys, "sweep", "--config", str(cfg))
    assert rc == 2 and "unknown config key 'workers'" in err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seeds_outside_64_bits_exit_2(tmp_path, capsys, monkeypatch, seed):
    girg = tmp_path / "girg.cfg"
    girg.write_text("model = girg\nn = 50\nd = 1\ntau = 2.5\nalpha = 2.0\n"
                    "c = 1.0\n")
    igirg = tmp_path / "igirg.cfg"
    igirg.write_text("model = igirg\nlam = 1.0\nd = 1\nside = 50.0\n"
                     "tau = 2.5\nalpha = 2.0\nc = 1.0\n")
    out = tmp_path / "g.graph"
    for cfg in (girg, igirg):
        rc, stdout, err = _run(capsys, "generate", "--config", str(cfg),
                               "--out", str(out), "--seed", seed)
        assert (rc, stdout) == (2, "") and not out.exists()
        assert err == "config error: master_seed must fit in 64 bits\n"
    # a sweep refuses before it draws anything, from --seed or the config
    monkeypatch.setattr(experiments, "generate", None)
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text(SWEEP_CFG)
    rc, stdout, err = _run(capsys, "sweep", "--config", str(sweep),
                           "--seed", seed)
    assert (rc, stdout) == (2, "")
    assert err == "config error: master_seed must fit in 64 bits\n"
    sweep.write_text(SWEEP_CFG.replace("seed = 7", f"seed = {seed}"))
    assert _run(capsys, "sweep", "--config", str(sweep))[:2] == (2, "")


@pytest.mark.parametrize("line, repeated", [
    ("size_grid = 64, 64", "size_grid repeats 64"),
    ("beta_grid = 1.0, 1.0", "beta_grid repeats 1.0"),
    ("beta_grid = 0.1, 1, 1.0", "beta_grid repeats 1.0")])
def test_cmd_sweep_refuses_a_repeated_grid_value(tmp_path, capsys,
                                                 monkeypatch, line, repeated):
    monkeypatch.setattr(experiments, "generate", None)
    cfg = tmp_path / "sweep.cfg"
    key = line.split()[0]
    cfg.write_text("".join(line + "\n" if row.startswith(key) else row + "\n"
                           for row in SWEEP_CFG.splitlines()))
    rc, out, err = _run(capsys, "sweep", "--config", str(cfg))
    assert (rc, out, err) == (2, "", f"config error: {repeated}\n")


def test_cmd_sweep_exits_3_when_a_pool_worker_fails(tmp_path, capsys,
                                                  monkeypatch):
    def broken_generate(*args, **kwargs):
        raise ZeroDivisionError("no graph today")

    monkeypatch.setattr(experiments, "generate", broken_generate)
    monkeypatch.setattr(experiments, "_available_cpus", lambda: 2)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)            # one size x 2 graphs: two jobs
    rc, out, err = _run(capsys, "sweep", "--config", str(cfg))
    assert (rc, out) == (3, "")
    assert err == "runtime failure: no graph today\n"
    assert multiprocessing.active_children() == []


def test_cmd_params_passes_independent_recheck(capsys):
    rc, out, _ = _run(capsys, "params", "--tau", "2.5", "--mu", "1",
                      "--nu", "1", "--beta", "0.1")
    assert rc == 0
    vals = {k: float(x) for k, x in (kv.split("=") for kv in out.split())}
    assert list(vals) == ["delta", "C", "D", "xi", "rho"]
    assert not oracles.boxing_param_problems(2.5, 1.0, 1.0, 0.1, **vals)
    rc, _, err = _run(capsys, "params", "--tau", "2.5", "--mu", "10",
                      "--nu", "10", "--beta", "1.0")
    assert rc == 2


def test_cmd_hrgmap_center_point(capsys):
    r_n = 2.0 * math.log(1000) + 1.0
    rc, out, _ = _run(capsys, "hrgmap", "--phi", repr(math.pi),
                      "--r", repr(r_n), "--n", "1000", "--c-h", "1.0")
    assert (rc, out) == (0, "x=0 w=1\n")
    rc, out, _ = _run(capsys, "hrgmap", "--phi", "0.0", "--r",
                      repr(r_n - 2.0 * math.log(4.0)), "--n", "1000",
                      "--c-h", "1.0")
    assert rc == 0
    vals = dict(kv.split("=") for kv in out.split())
    assert float(vals["x"]) == pytest.approx(-0.5)
    assert float(vals["w"]) == pytest.approx(4.0)


@pytest.mark.parametrize("phi, r, field", [
    ("7", "3", "phi"), ("-0.1", "3", "phi"), (repr(2.0 * math.pi), "3", "phi"),
    ("nan", "3", "phi"), ("1", "30", "r"), ("1", "-1", "r"),
    ("1", "nan", "r"),
])
def test_cmd_hrgmap_refuses_points_off_the_disk(capsys, phi, r, field):
    rc, out, err = _run(capsys, "hrgmap", "--phi", phi, "--r", r,
                        "--n", "100")
    assert (rc, out) == (2, "")
    assert err.startswith(f"config error: {field} must lie in [0, ")


@pytest.mark.parametrize("flag, value, field", [
    ("--c-h", "nan", "C_H"), ("--c-h", "inf", "C_H"), ("--t-h", "nan", "T_H")])
def test_cmd_hrgmap_refuses_nan_model_constants(capsys, flag, value, field):
    rc, out, err = _run(capsys, "hrgmap", "--phi", "1", "--r", "3",
                        "--n", "100", flag, value)
    assert (rc, out) == (2, "")
    assert err.startswith(f"config error: {field} must ")


@pytest.mark.parametrize("value", ["nan", "0", "-1"])
def test_cmd_hrg_blames_alpha_h_not_tau(tmp_path, capsys, value):
    # tau = 2 alpha_H + 1 is derived, so a bad alpha_H is reported by name
    want = (2, "", "config error: alpha_H must lie in (0.5, 1)\n")
    assert _run(capsys, "hrgmap", "--phi", "1", "--r", "3", "--n", "100",
                f"--alpha-h={value}") == want
    cfg = tmp_path / "hrg.cfg"
    cfg.write_text(f"model = hrg\nn = 100\nalpha_h = {value}\nc_h = 1.0\n"
                   "seed = 3\n")
    out_path = tmp_path / "hrg.graph"
    assert _run(capsys, "generate", "--config", str(cfg),
                "--out", str(out_path)) == want
    assert not out_path.exists()


def test_cmd_boxes_report(tmp_path, capsys):
    cfg = tmp_path / "ig.cfg"
    cfg.write_text("model = igirg\nd = 1\nside = 1000.0\nlam = 1.0\n"
                   "tau = 2.5\nalpha = 2.0\nc = 1.0\nlaw = poly:0.1\n"
                   "seed = 3\n")
    gp = tmp_path / "ig.graph"
    _run(capsys, "generate", "--config", str(cfg), "--out", str(gp))
    rc, out, _ = _run(capsys, "boxes", "--graph", str(gp), "--tau", "2.5",
                      "--penalty", "mono:1,1", "--law", "poly:0.1",
                      "--M", "1.0", "--C", "1.3", "--D", "2.0",
                      "--delta", "0.2")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("k_star ")
    k_star = int(lines[0].split()[1])
    assert len(lines) == k_star + 3
    for k, line in enumerate(lines[1:k_star + 2]):
        assert line.startswith(f"k={k} ")
        assert "F1=" in line and "F2=" in line
    assert lines[k_star + 1].endswith("F2=-")
    assert lines[-1].startswith(("greedy ", "greedy"))
    # identical invocation is byte-identical
    rc2, out2, _ = _run(capsys, "boxes", "--graph", str(gp), "--tau", "2.5",
                        "--penalty", "mono:1,1", "--law", "poly:0.1",
                        "--M", "1.0", "--C", "1.3", "--D", "2.0",
                        "--delta", "0.2")
    assert out2 == out


def test_exit_codes(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    rc, _, err = _run(capsys, "distance", "--graph",
                      str(tmp_path / "missing.graph"),
                      "--penalty", "prod:1", "--source", "0", "--target", "1")
    assert rc == 2 and "cannot read" in err
    cfg = tmp_path / "big.cfg"
    cfg.write_text("model = girg\nn = 200000\nd = 2\ntau = 2.5\n"
                   "alpha = 2.0\nc = 0.5\n")
    rc, _, err = _run(capsys, "generate", "--config", str(cfg),
                      "--out", str(tmp_path / "x.graph"))
    assert rc == 2 and "cap" in err
    cfg.write_text("model = sfp\nd = 2\nradius = 100000\ntau = 2.5\n"
                   "lambda_perc = 1.0\nalpha_norm = 1.5\n")
    rc, _, err = _run(capsys, "generate", "--config", str(cfg),
                      "--out", str(tmp_path / "x.graph"))
    assert (rc, err) == (2, "config error: vertex count 40000400001 exceeds "
                            "cap 100000\n")
    sfp_cfg = tmp_path / "sfp.cfg"
    sfp_cfg.write_text("model = sfp\nd = 1\nradius = 1\ntau = 2.5\n"
                       "lambda_perc = 1.0\nalpha_norm = 1.5\n")
    rc, _, err = _run(capsys, "generate", "--config", str(sfp_cfg),
                      "--out", str(tmp_path / "nodir" / "x.graph"))
    assert rc == 3 and "runtime failure" in err


# ---------------------------------------------------------------------------
# declared input domains


GIRG_CFG = "model = girg\nn = 50\nd = 1\ntau = 2.5\nalpha = 2.0\nc = 1.0\n"
IGIRG_CFG = ("model = igirg\nlam = 0.1\nd = 1\nside = 1000.0\ntau = 2.5\n"
             "alpha = 2.0\nc = 1.0\nlaw = poly:1\nseed = 3\n")
HRG_CFG = "model = hrg\nn = 100\nalpha_h = 0.75\nc_h = 1.0\nseed = 3\n"
BOX_ARGS = ["--tau", "2.5", "--penalty", "mono:1,1", "--M", "1.0",
            "--C", "1.3", "--D", "2.0", "--delta", "0.2"]
HRG_OVERFLOW = "n and C_H make sinh(R_n)^2, R_n = 2 ln n + C_H, overflow"
BOX_0 = ("window smaller than Box_0 (e^{M D / d} > side): no boxing exists "
         "(k_star < 0)")


def _with(args, flag, value):
    """args with the value after `flag` replaced."""
    args = list(args)
    args[args.index(flag) + 1] = value
    return args


# Each input here once exited 3 or answered wrongly (inf for a
# reachable pair, or a message that did not name the field): argv with {cfg}/{out}/{graph},
# the text of {cfg} (a config or a graph file), and the exact message,
# which names the field ({cfg} stands for its path).
FOUND_INPUTS = [
    pytest.param(["generate", "--config", "{cfg}", "--out", "{out}"],
                 GIRG_CFG.replace("c = 1.0", "c = inf"),
                 "c must lie in [0, inf)", id="generate-girg-c=inf"),
    pytest.param(["generate", "--config", "{cfg}", "--out", "{out}"],
                 IGIRG_CFG.replace("c = 1.0", "c = inf"),
                 "c must lie in [0, inf)", id="generate-igirg-c=inf"),
    pytest.param(["sweep", "--config", "{cfg}"],
                 "model = girg\nd = 1\ntau = 2.5\nalpha = 2.0\nc = inf\n"
                 "penalty = prod:1\nlaw_family = poly\nbeta_grid = 1.0\n"
                 "size_grid = 50\n", "c must lie in [0, inf)",
                 id="sweep-girg-c=inf"),
    pytest.param(["generate", "--config", "{cfg}", "--out", "{out}"],
                 HRG_CFG.replace("c_h = 1.0", "c_h = 1e308"), HRG_OVERFLOW,
                 id="generate-hrg-c_h=1e308"),
    pytest.param(["hrgmap", "--phi", "1", "--r", "3", "--n", "100",
                  "--c-h", "1e308"], None, HRG_OVERFLOW,
                 id="hrgmap-c-h=1e308"),
    pytest.param(["boxes", "--graph", "{graph}",
                  *_with(BOX_ARGS, "--M", "1e308")], None, BOX_0,
                 id="boxes-M=1e308"),
    pytest.param(["boxes", "--graph", "{graph}",
                  *_with(BOX_ARGS, "--D", "1e308")], None, BOX_0,
                 id="boxes-D=1e308"),
    pytest.param(["boxes", "--graph", "{graph}",
                  *_with(BOX_ARGS, "--M", "5e-324")], None,
                 "M, C and D make C^k overflow while Box_k still fits in "
                 "the window", id="boxes-M=5e-324"),
    *[pytest.param(["distance", "--graph", "{graph}", "--source", "0",
                    "--target", "5", "--penalty", spec], None,
                   f"invalid penalty {spec!r}: {message}",
                   id=f"distance-{spec}")
      for spec, message in [
          ("prod:nan", "mu must lie in [0, inf)"),
          ("prod:inf", "mu must lie in [0, inf)"),
          ("mono:nan,1", "mu must lie in [0, inf)"),
          ("sum:nan", "mu must lie in [0, inf)"),
          ("max:inf", "mu must lie in (0, inf)"),
          ("poly:nan,1,1", "a must lie in (0, inf)")]],
    pytest.param(["classify", "--tau", "2.5", "--alpha", "2", "--penalty",
                  "prod:nan", "--law", "poly:1"], None,
                 "invalid penalty 'prod:nan': mu must lie in [0, inf)",
                 id="classify-prod:nan"),
    pytest.param(["generate", "--config", "{cfg}", "--out", "{out}"],
                 GIRG_CFG.replace("n = 50", "n = 1.5"),
                 "line 2: n: expected an integer, got '1.5'",
                 id="generate-n=1.5"),
    *[pytest.param(["distance", "--graph", "{cfg}", "--source", "0",
                    "--target", "1", "--penalty", "prod:1"],
                   FIXTURE.replace(line, bad), f"{{cfg}}: header {message}",
                   id=f"distance-{bad}")
      for line, bad, message in [
          ("#d 1", "#d 1.5", "#d: expected an integer, got '1.5'"),
          ("#side 20.0", "#side abc", "#side: expected a number, got 'abc'")]],
]


@pytest.fixture(scope="module")
def igirg_graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("domains") / "ig.graph"
    path.write_text(write_graph_text(generate(
        IgirgWindow(lam=0.1, d=1, side=1000.0, tau=2.5, alpha=2.0, c=1.0),
        3, PolyAtZero(1.0))))
    return path


def test_the_found_pair_is_reachable(igirg_graph_file, capsys):
    # so the refused NaN and infinite penalties hid a finite distance
    rc, out, _ = _run(capsys, "distance", "--graph", str(igirg_graph_file),
                      "--source", "0", "--target", "5", "--penalty", "prod:1")
    assert rc == 0 and math.isfinite(float(out.split()[1]))


@pytest.mark.parametrize("argv, cfg_text, message", FOUND_INPUTS)
def test_found_inputs_exit_2_naming_the_field(tmp_path, capsys,
                                              igirg_graph_file, argv,
                                              cfg_text, message):
    cfg, out = tmp_path / "run.cfg", tmp_path / "out.graph"
    if cfg_text is not None:
        cfg.write_text(cfg_text)
    argv = [a.format(cfg=cfg, out=out, graph=igirg_graph_file) for a in argv]
    message = message.replace("{cfg}", str(cfg))
    assert _run(capsys, *argv) == (2, "", f"config error: {message}\n")
    assert not out.exists()
