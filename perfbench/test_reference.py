"""The benchmark's own tests: every output check passes on real pplab
output and fails on a corrupted copy of it.

Run with `python3 -m pytest perfbench` from the root of the checkout.
"""
from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest

import reference
import run
import workloads
from pplab import cli, cost, geometry, metrics, models, rng
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# query: distances against the heap Dijkstra


@pytest.fixture(scope="module")
def small_graph(tmp_path_factory):
    spec = models.Girg(n=300, d=2, tau=2.5, alpha=2.0, c=0.5)
    g = models.generate(spec, 5, length_law=rng.PolyAtZero(1.0))
    path = tmp_path_factory.mktemp("graph") / "small.graph"
    path.write_text(cli.write_graph_text(g))
    ref = reference.RefGraph(path.read_text())
    giant = ref.giant_component()
    return path, ref, giant[0], giant[len(giant) // 2]


def _distance(path, pen, s, t, direction):
    return workloads.run_cli(["distance", "--graph", path, "--penalty", pen,
                              "--source", s, "--target", t,
                              "--direction", direction])


@pytest.mark.parametrize("pen", ["prod:1", "mono:2,0.5"])
@pytest.mark.parametrize("direction", ["outward", "inward"])
def test_distance_check_passes_real_output(small_graph, pen, direction):
    path, ref, s, t = small_graph
    out = _distance(path, pen, s, t, direction)
    assert reference.check_distance(ref, reference.penalty_terms(pen), s, t,
                                    direction, out) == []


def test_distance_check_rejects_wrong_distance(small_graph):
    path, ref, s, t = small_graph
    out = _distance(path, "prod:1", s, t, "outward")
    head, rest = out.split("\n", 1)
    wrong = f"distance {float(head.split()[1]) * (1 + 1e-6)!r}\n{rest}"
    problems = reference.check_distance(ref, [(1.0, 1.0, 1.0)], s, t,
                                        "outward", wrong)
    assert any("reference" in p for p in problems)


def test_distance_check_rejects_wrong_direction(small_graph):
    # an asymmetric penalty's inward distance is not its outward one
    path, ref, s, t = small_graph
    out = _distance(path, "mono:2,0.5", s, t, "inward")
    assert reference.check_distance(ref, [(1.0, 2.0, 0.5)], s, t,
                                    "outward", out)


def test_distance_check_rejects_path_off_the_graph(small_graph):
    path, ref, s, t = small_graph
    lines = _distance(path, "prod:1", s, t, "outward").splitlines()
    hops = lines[1].split()[1:]
    non_neighbour = next(v for v in range(ref.n)
                         if v != s and ref.length(s, v) is None)
    bad = [hops[0], str(non_neighbour)] + hops[1:]
    problems = reference.check_distance(
        ref, [(1.0, 1.0, 1.0)], s, t, "outward",
        f"{lines[0]}\npath {' '.join(bad)}\n")
    assert any("not an edge" in p for p in problems)


def test_dijkstra_on_a_hand_graph():
    # 0 -(1)- 1 -(1)- 2 and 0 -(5)- 2; weights 1, 2, 1; f = w1^2 w2^0
    text = ("v 0 0 1\nv 1 0 2\nv 2 0 1\n"
            "e 0 1 1\ne 1 2 1\ne 0 2 5\n")
    g = reference.RefGraph(text)
    terms = [(1.0, 2.0, 0.0)]
    # outward 0 -> 1 -> 2 costs 1 * 1 + 1 * 4 = 5, direct 5: tie at 5
    assert reference.dijkstra(g, terms, 0, 2, "outward") == 5.0
    # inward from 0 to target 1: the hop is travelled 1 -> 0 and costs
    # 1 * w1^2 * w0^0 = 4
    assert reference.dijkstra(g, terms, 0, 1, "inward") == 4.0
    assert reference.dijkstra(g, terms, 0, 1, "outward") == 1.0


# ---------------------------------------------------------------------------
# sweep: the CSV against the analytic verdicts


SMALL_SWEEP = """\
model = girg
d = 2
tau = 2.5
alpha = 2
c = 0.5
penalty = prod:1
law_family = poly
beta_grid = 0.1, 1.0
size_grid = 256, 512
pairs_per_graph = 5
graphs_per_cell = 2
"""


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    d = tmp_path_factory.mktemp("sweep")
    (d / "s.cfg").write_text(SMALL_SWEEP)
    workloads.run_cli(["sweep", "--config", d / "s.cfg", "--out", d / "s.csv",
                       "--seed", 9])
    return (d / "s.csv").read_text()


def _check_sweep(text):
    return reference.check_sweep_csv(text, 2.5, 1.0, (0.1, 1.0), (256, 512), 9)


def test_sweep_check_passes_real_output(sweep_csv):
    assert _check_sweep(sweep_csv) == []


def test_analytic_verdicts():
    assert reference.critical_beta_product(2.5, 1.0) == 0.25
    assert reference.analytic_phase(2.5, 1.0, 0.1) == "explosive"
    assert reference.analytic_phase(2.5, 1.0, 1.0) == "conservative"
    with pytest.raises(ValueError):
        reference.analytic_phase(2.5, 1.0, 0.25)


def test_sweep_check_rejects_swapped_verdict(sweep_csv):
    swapped = (sweep_csv.replace("ExplosiveLengthwise", "@")
               .replace("Conservative", "ExplosiveLengthwise")
               .replace("@", "Conservative"))
    problems = _check_sweep(swapped)
    assert sum("verdict" in p for p in problems) == 4


def test_sweep_check_rejects_missing_cell(sweep_csv):
    lines = sweep_csv.splitlines()
    assert any("grid" in p for p in _check_sweep("\n".join(lines[:-1])))


def test_sweep_check_rejects_disordered_quartiles(sweep_csv):
    lines = sweep_csv.splitlines()
    cols = lines[1].split(",")
    cols[3], cols[4] = cols[4], cols[3]          # q1 <-> q3
    lines[1] = ",".join(cols)
    assert any("quartiles" in p for p in _check_sweep("\n".join(lines)))


# ---------------------------------------------------------------------------
# boxing: leaders, good flags, F1 and F2 against the independent assignment


class FriendlyBoxing(workloads.Boxing):
    """A window with 6 to 9 sub-boxes per annulus in which greedy paths
    complete (criterion 10's windows have at most two sub-boxes, all at
    k = 0)."""

    def setup(self):
        self.params = cost.BoxingParams(delta=0.25, C=1.2, D=2.0, xi=1.0,
                                        rho=1.0)
        self.M = 2.0
        self.spec = models.IgirgWindow(lam=1.0, d=1, side=1000.0, tau=2.5,
                                       alpha=2.0, c=1.0)
        self.law = rng.PolyAtZero(0.5)
        self.f = cli.parse_penalty("mono:1,1")


@pytest.fixture(scope="module")
def box_window():
    wl = FriendlyBoxing(3, None)
    wl.setup()
    result = wl.op(4)
    g, b, scan, f2, paths = result
    assert min(b.counts()) >= 6 and len(paths) >= 2
    return wl, result


def test_boxing_check_passes_real_output(box_window):
    wl, result = box_window
    assert wl.check(0, 4, result) == []


def test_boxing_check_rejects_wrong_leader(box_window):
    wl, result = box_window
    bad = copy.deepcopy(result)
    ann = next(a for a in bad[2].annuli if (a.leader >= 0).sum() >= 2)
    j = int(np.flatnonzero(ann.leader >= 0)[0])
    ann.leader[j] = (ann.leader[j] + 1) % bad[0].n
    assert any("leaders differ" in p for p in wl.check(0, 4, bad))


def test_boxing_check_rejects_flipped_good_and_f2(box_window):
    wl, result = box_window
    bad = copy.deepcopy(result)
    bad[2].annuli[0].good[0] = not bad[2].annuli[0].good[0]
    bad[3][0] = not bad[3][0]
    problems = wl.check(0, 4, bad)
    assert any("good flags differ" in p for p in problems)
    assert any(p.startswith("F2") for p in problems)


def test_boxing_check_rejects_wrong_greedy_cost(box_window):
    wl, result = box_window
    bad = copy.deepcopy(result)
    bad[4][0][0].total_cost *= 1.001
    assert any("greedy cost" in p for p in wl.check(0, 4, bad))


def test_boxing_check_rejects_missing_annulus(box_window):
    wl, result = box_window
    bad = copy.deepcopy(result)
    del bad[2].annuli[-1]
    assert any("annuli" in p for p in wl.check(0, 4, bad))


def test_subbox_leaders_ties_go_to_lowest_id():
    pos = np.array([[0.5], [0.2], [1.5], [0.7], [9.0]])
    w = np.array([2.0, 3.0, 1.0, 3.0, 5.0])
    anchors = np.array([[0.0], [1.0], [2.0]])
    assert reference.subbox_leaders(pos, w, anchors, 1.0).tolist() == [1, 2, -1]


def test_greedy_check_rejects_cost_over_bound():
    M, C, D, delta, tau, beta = 3.0, 1.3, 1.2, 0.25, 2.5, 0.5
    hi0 = reference.leader_interval(M, C, delta, 0, tau)[1]
    hi1 = reference.leader_interval(M, C, delta, 1, tau)[1]
    q0 = math.exp(-(1 - delta) * M * C * (D - 1)) ** (1 / beta)
    bound = hi0 * hi1 * q0
    weights = [hi0, hi1]
    for ell, ok in ((0.5 * q0, True), (2.0 * q0, False)):
        cost_ = ell * hi0 * hi1
        problems = reference.greedy_path_problems(
            [(0, 0), (1, 1)], lambda x, y: ell, weights, [(1.0, 1.0, 1.0)],
            beta, M, C, D, delta, tau, cost_, True)
        assert (problems == []) == ok
        assert (cost_ <= bound) == ok
    problems = reference.greedy_path_problems(
        [(0, 0), (1, 1)], lambda x, y: 0.5 * q0, weights, [(1.0, 1.0, 1.0)],
        beta, M, C, D, delta, tau, 1.0, False)
    assert any("recomputed" in p for p in problems)


# ---------------------------------------------------------------------------
# tracer and the metric list


def test_tracer_wraps_every_importer_and_restores():
    from pplab import experiments
    original = metrics.largest_component
    tr = Tracer()
    tr.install([("pplab.metrics", "largest_component", "lc", None),
                ("pplab.metrics", "components", "comp", None)])
    tr.install_graph_probes(models.Graph)
    try:
        assert experiments.largest_component is metrics.largest_component
        assert experiments.largest_component is not original
        g = models.generate(models.Girg(n=64, d=2, tau=2.5, alpha=2.0, c=0.5), 1)
        experiments.largest_component(g)
        g.neighbors(0)
        g.neighbors(1)
    finally:
        tr.uninstall()
    assert metrics.largest_component is original
    assert experiments.largest_component is original
    assert tr.calls("lc") == tr.calls("comp") == 1
    assert tr.calls("models.Graph") == 1 and tr.calls("models.adjacency") == 1
    lc_total, lc_self = tr.totals["lc"][1], tr.totals["lc"][2]
    assert 0 <= lc_self <= lc_total - tr.totals["comp"][1] + 1e-9


def test_failed_op_is_a_problem():
    class Failing:
        def inputs(self, i):
            return i

        def op(self, i):
            if i == 1:
                raise ValueError("boom")
            return i

        def check(self, i, inp, result):
            return []

    phase = run.Phase(Failing()).run(3)
    assert (phase.attempted, phase.failed, len(phase.op_s)) == (3, 1, 2)
    assert phase.problems == ["op 1 failed: ValueError: boom"]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == \
        ["setup_s", "run_s", "op_p50_ms", "peak_rss_mb"]
