"""Config parsing, graph file format, and the pplab subcommands."""
from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from pplab import experiments
from pplab.cli import (
    ConfigError,
    RunConfig,
    main,
    model_from_config,
    parse_config,
    parse_length_law,
    parse_penalty,
    read_graph_text,
    sweep_from_config,
    write_graph_text,
)
from pplab.cost import (
    MaxPenalty,
    PenaltyPolynomial,
    _rho,
    _xi,
    idelta_interval,
)
from pplab.geometry import Window
from pplab.models import (Girg, Graph, Hrg, IgirgWindow, SfpWindow, VertexSet,
                          generate)
from pplab.rng import DoubleExpFlat, Exponential, PointMass, PolyAtZero


# ---------------------------------------------------------------------------
# mini-grammars


def test_penalty_grammar():
    assert parse_penalty("prod:1").terms == ((1.0, 1.0, 1.0),)
    assert parse_penalty("mono:2,0.5").terms == ((1.0, 2.0, 0.5),)
    assert parse_penalty("sum:1.5").terms == \
        ((1.0, 1.5, 0.0), (1.0, 0.0, 1.5))
    mx = parse_penalty("max:2")
    assert isinstance(mx, MaxPenalty) and mx.mu == 2.0
    two = parse_penalty("poly:1,1.75,0;1,0,0.75")
    assert two.terms == ((1.0, 1.75, 0.0), (1.0, 0.0, 0.75))
    assert parse_penalty(" prod:0 ").deg == 0.0


@pytest.mark.parametrize("bad", [
    "prod", "prod:", "prod:x", "mono:1", "mono:1,2,3", "frob:1",
    "poly:1,-1,0", "poly:0,1,1", "max:0", "poly:",
])
def test_penalty_grammar_rejects(bad):
    with pytest.raises(ConfigError):
        parse_penalty(bad)


def test_length_law_grammar():
    assert parse_length_law("poly:0.5") == PolyAtZero(0.5)
    assert parse_length_law("exp:2") == Exponential(2.0)
    assert parse_length_law("dexp:2,1,1") == DoubleExpFlat(2.0, 1.0, 1.0)
    assert parse_length_law("point:3") == PointMass(3.0)
    for bad in ("poly:0", "exp:-1", "dexp:1,1", "gauss:1", "poly"):
        with pytest.raises(ConfigError):
            parse_length_law(bad)


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
    text = cfg.text()
    again = parse_config(text)
    assert again == cfg
    # serialization is canonical: a second pass is byte-identical
    assert again.text() == text
    assert "beta_grid = 0.1,1.0\n" in text


def test_config_rejections():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config("frobnicate = 1\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("n = 1\nn = 2\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("just some words\n")
    with pytest.raises(ConfigError):
        parse_config("n = 2.5\n")
    with pytest.raises(ConfigError):
        parse_config("pin_origin = maybe\n")
    with pytest.raises(ConfigError):
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
    with pytest.raises(ConfigError):  # dataclass domain check surfaces
        model_from_config(parse_config(
            "model = girg\nn = 10\nd = 2\ntau = 1.0\nalpha = 2.0\nc = 0.5\n"))


def test_sweep_from_config_guards():
    base = ("model = girg\nd = 2\ntau = 2.5\nalpha = 2.0\nc = 0.5\n"
            "penalty = prod:1\nbeta_grid = 0.1\nsize_grid = 64\n")
    spec = sweep_from_config(parse_config(base + "law_family = poly\n"))
    assert spec.law_family is PolyAtZero
    assert spec.pairs_per_graph == 30 and spec.graphs_per_cell == 5
    with pytest.raises(ConfigError, match="flat penalties"):
        sweep_from_config(parse_config(base + "law_family = exp\n"))
    flat = base.replace("penalty = prod:1", "penalty = prod:0")
    fpp = sweep_from_config(parse_config(flat + "law_family = exp\n"))
    assert fpp.law_family is Exponential
    with pytest.raises(ConfigError, match="drop the n key"):
        sweep_from_config(parse_config(base + "law_family = poly\nn = 8\n"))
    with pytest.raises(ConfigError, match="model = girg"):
        sweep_from_config(parse_config(
            "model = hrg\nn = 8\nalpha_h = 0.75\nc_h = 1.0\n"))


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
    with pytest.raises(ValueError):   # weights below 1 are not a VertexSet
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
    assert rc == 2 and "not a vertex" in err


# sha256 of the concatenated `pplab distance` stdout of
# test_cmd_distance_output_digest, recorded before the search stopped at
# its target; any change to a distance, a path or a tie-break shows here.
DISTANCE_DIGEST = "76b7e42cc0f9994812ad502e8bbc7f255e076bf35633b620ad98759ea7075205"


def test_cmd_distance_output_digest(tmp_path, capsys):
    pick = np.random.default_rng(31)
    pairs = [(int(s), int(t)) for s, t in pick.integers(1024, size=(7, 2))]
    pairs.append((5, 5))
    digest = hashlib.sha256()
    # point:1 ties every length, so distances tie often and the
    # lowest-id rule decides the path
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


def test_cmd_classify_lines(capsys):
    rc, out, _ = _run(capsys, "classify", "--tau", "2.5", "--alpha", "2",
                      "--penalty", "prod:1", "--law", "poly:0.1")
    assert rc == 0 and out.startswith("ExplosiveLengthwise ")
    assert out.count("\n") == 1
    rc, out, _ = _run(capsys, "classify", "--tau", "2.5", "--alpha", "0.5",
                      "--penalty", "prod:1", "--law", "poly:0.1")
    assert rc == 0 and out.startswith("ExplosiveSideways ")
    rc, out, _ = _run(capsys, "classify", "--tau", "1.5", "--alpha", "2",
                      "--penalty", "poly:1,1.75,0;1,0,0.75", "--law",
                      "poly:1")
    assert rc == 0 and out.startswith("Inconclusive ")
    rc, out, _ = _run(capsys, "classify", "--tau", "2.5", "--alpha", "2",
                      "--penalty", "prod:0", "--law", "exp:1")
    assert rc == 0 and out.startswith("FppExplosive ")
    rc, out, _ = _run(capsys, "classify", "--tau", "2.5", "--alpha", "2",
                      "--penalty", "prod:0", "--law", "dexp:2,1,1")
    assert rc == 0 and out.startswith("FppConservative ")
    rc, _, err = _run(capsys, "classify", "--tau", "0.5", "--alpha", "2",
                      "--penalty", "prod:1", "--law", "poly:1")
    assert rc == 2 and "tau" in err


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


def test_cmd_params_passes_independent_recheck(capsys):
    rc, out, _ = _run(capsys, "params", "--tau", "2.5", "--mu", "1",
                      "--nu", "1", "--beta", "0.1")
    assert rc == 0
    vals = dict(kv.split("=") for kv in out.split())
    delta, C, D = (float(vals[k]) for k in ("delta", "C", "D"))
    assert C == 1.0 + delta
    lo, hi = idelta_interval(2.5, 1.0, 1.0, 0.1, delta)
    assert lo < D < hi
    assert float(vals["xi"]) == pytest.approx(
        _xi(2.5, 1.0, 1.0, 0.1, delta, C, D))
    assert float(vals["rho"]) == pytest.approx(
        _rho(2.5, 1.0, 1.0, 0.1, delta, C, D))
    assert float(vals["xi"]) > 0 and float(vals["rho"]) > 0
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
    sfp_cfg = tmp_path / "sfp.cfg"
    sfp_cfg.write_text("model = sfp\nd = 1\nradius = 1\ntau = 2.5\n"
                       "lambda_perc = 1.0\nalpha_norm = 1.5\n")
    rc, _, err = _run(capsys, "generate", "--config", str(sfp_cfg),
                      "--out", str(tmp_path / "nodir" / "x.graph"))
    assert rc == 3 and "runtime failure" in err
