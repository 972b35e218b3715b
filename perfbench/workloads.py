"""The three workloads: a criterion-2 phase sweep, CLI distance queries on
a saved graph, and criterion-10 boxing windows.

A workload writes its input files in ``setup``, makes operation i's
inputs in ``inputs(i)``, runs the operation in ``op`` and checks its
output in ``check``.  Only ``op`` is timed.  Operation i's inputs depend on
the run seed and i alone, so a run with a given seed always performs the
same operations.  pplab is reached only through ``pplab.cli.main`` and
public library functions, looked up on their modules at call time so that
the tracer's wrappers are seen.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
from pathlib import Path

import numpy as np

from pplab import cli, cost, geometry, metrics, models, rng

import reference


def derive(seed: int, label: str) -> int:
    """A 63-bit input seed for (run seed, label)."""
    digest = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


class CliFailed(RuntimeError):
    """pplab's CLI exited with a non-zero code."""


def run_cli(argv) -> str:
    """pplab's CLI in this process; returns its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise CliFailed(f"pplab {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


# ---------------------------------------------------------------------------
# sweep: criterion 2's phase sweep through `pplab sweep`


SWEEP_TAU, SWEEP_MU = 2.5, 1.0
SWEEP_BETAS = (0.1, 1.0)
SWEEP_SIZES = (2**10, 2**12, 2**14)
SWEEP_CONFIG = f"""\
model = girg
d = 2
tau = {SWEEP_TAU}
alpha = 2
c = 0.5
penalty = prod:{SWEEP_MU}
law_family = poly
beta_grid = {", ".join(map(str, SWEEP_BETAS))}
size_grid = {", ".join(map(str, SWEEP_SIZES))}
pairs_per_graph = 30
graphs_per_cell = 5
"""
# set-up warms the same code path on a single small cell
WARM_CONFIG = """\
model = girg
d = 2
tau = 2.5
alpha = 2
c = 0.5
penalty = prod:1
law_family = poly
beta_grid = 1.0
size_grid = 256
pairs_per_graph = 5
graphs_per_cell = 1
"""


class Sweep:
    name = "sweep"
    round_ops = 1
    nominal_round_s = 17.0
    min_rounds = 2                 # op_p50_ms is never a single sweep

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.cfg = workdir / "sweep.cfg"
        self.csv = workdir / "sweep.csv"
        self.warm_cfg = workdir / "warm.cfg"

    def setup(self):
        self.cfg.write_text(SWEEP_CONFIG)
        self.warm_cfg.write_text(WARM_CONFIG)
        run_cli(["sweep", "--config", self.warm_cfg, "--out", self.csv,
                 "--seed", derive(self.seed, "warm")])

    def prepare(self):
        pass

    def inputs(self, i: int) -> int:
        return derive(self.seed, f"sweep:{i}")

    def op(self, sweep_seed: int):
        return run_cli(["sweep", "--config", self.cfg, "--out", self.csv,
                        "--seed", sweep_seed])

    def check(self, i: int, sweep_seed: int, stdout: str) -> list:
        return reference.check_sweep_csv(
            self.csv.read_text(), SWEEP_TAU, SWEEP_MU, SWEEP_BETAS,
            SWEEP_SIZES, sweep_seed)

    def summary(self) -> str:
        return (f"GIRG d=2 tau=2.5 alpha=2 c=0.5 prod:1 poly, betas "
                f"{SWEEP_BETAS}, sizes {SWEEP_SIZES}, 5 graphs x 30 pairs")


# ---------------------------------------------------------------------------
# query: `pplab distance` on a graph file written by `pplab generate`


QUERY_N = 2**12
# The graph is the same in every run, so that the cost of an op does not
# depend on the run seed; the run seed draws the source and target pairs.
QUERY_GRAPH_SEED = 1
QUERY_CONFIG = f"""\
model = girg
n = {QUERY_N}
d = 2
tau = 2.5
alpha = 2
c = 0.5
law = poly:1
"""
# one round: both penalties in both directions
QUERY_ROUND = (("prod:1", "outward"), ("prod:1", "inward"),
               ("mono:2,0.5", "outward"), ("mono:2,0.5", "inward"))


class Query:
    name = "query"
    round_ops = len(QUERY_ROUND)
    nominal_round_s = 1.5
    min_rounds = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.cfg = workdir / "query.cfg"
        self.graph = workdir / "query.graph"
        self.ref = None
        self.giant = None

    def setup(self):
        self.cfg.write_text(QUERY_CONFIG)
        run_cli(["generate", "--config", self.cfg, "--out", self.graph,
                 "--seed", QUERY_GRAPH_SEED])
        # warm-up: one query on the fresh file
        self.op(("prod:1", "outward", 0, 1))

    def prepare(self):
        """Read the written graph back apart from pplab and find its giant."""
        self.ref = reference.RefGraph(self.graph.read_text())
        self.giant = np.array(self.ref.giant_component(), dtype=np.int64)
        if self.giant.size < 2:
            raise RuntimeError("query graph has no component with two vertices")

    def inputs(self, i: int) -> tuple:
        pen, direction = QUERY_ROUND[i % len(QUERY_ROUND)]
        pick = np.random.default_rng(derive(self.seed, f"pair:{i}"))
        s, t = pick.choice(self.giant, size=2, replace=False)
        return pen, direction, int(s), int(t)

    def op(self, query):
        pen, direction, s, t = query
        return run_cli(["distance", "--graph", self.graph, "--penalty", pen,
                        "--source", s, "--target", t,
                        "--direction", direction])

    def check(self, i: int, query, stdout: str) -> list:
        pen, direction, s, t = query
        return reference.check_distance(self.ref, reference.penalty_terms(pen),
                                        s, t, direction, stdout)

    def summary(self) -> str:
        return (f"GIRG n={QUERY_N} d=2 tau=2.5 alpha=2 c=0.5 law poly:1 "
                f"seed {QUERY_GRAPH_SEED}; "
                f"round = {', '.join(f'{p} {d}' for p, d in QUERY_ROUND)}")


# ---------------------------------------------------------------------------
# boxing: criterion 10's windows through the library


BOX_TAU, BOX_SIDE, BOX_BETA = 2.5, 1000.0, 0.1
BOX_PENALTY = "mono:1,1"


class Boxing:
    name = "boxing"
    round_ops = 1
    nominal_round_s = 0.06
    min_rounds = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.completed = self.applicable = 0

    def setup(self):
        self.params = cost.solve_boxing_params(BOX_TAU, 1.0, 1.0, BOX_BETA)
        # the largest M that keeps Box_1 inside the window
        self.M = (math.log(BOX_SIDE) / (self.params.D * self.params.C)
                  * (1.0 - 1e-9))
        self.spec = models.IgirgWindow(lam=1.0, d=1, side=BOX_SIDE,
                                       tau=BOX_TAU, alpha=2.0, c=1.0)
        self.law = rng.PolyAtZero(BOX_BETA)
        self.f = cli.parse_penalty(BOX_PENALTY)
        self.op(derive(self.seed, "warm"))

    def prepare(self):
        pass

    def inputs(self, i: int) -> int:
        return derive(self.seed, f"window:{i}")

    def op(self, window_seed: int):
        """One window: generate, box, scan, F2, and every greedy path."""
        p = self.params
        g = models.generate(self.spec, window_seed, length_law=self.law)
        b = geometry.build_boxing(g.vertices.window, [0.0], self.M, p.C,
                                  p.D, p.delta)
        scan = metrics.delta_good_scan(g, b, BOX_TAU)
        f2 = metrics.check_F2(g, b, BOX_TAU, scan=scan)
        paths = []
        for leader in scan.scan_for(0).good_leaders:
            out = metrics.build_greedy_path(g, b, BOX_TAU, self.f, leader,
                                            scan=scan)
            if isinstance(out, metrics.GreedyPath):
                report = metrics.greedy_bound_report(b, BOX_TAU, self.f,
                                                     self.law, out)
                paths.append((out, report))
        return g, b, scan, f2, paths

    def check(self, i: int, window_seed: int, result) -> list:
        g, b, scan, f2, paths = result
        pos, w = g.vertices.positions, g.vertices.weights
        flags = reference.boxing_flags(
            pos, w, [(a.anchors, a.subbox_side) for a in b.annuli],
            b.M, b.C, b.delta, BOX_TAU)
        problems = []
        if len(scan.annuli) != len(b.annuli):
            problems.append(f"scan has {len(scan.annuli)} annuli, boxing "
                            f"{len(b.annuli)}")
        for k, (ann, (leader, good, f1)) in enumerate(zip(scan.annuli, flags)):
            if not np.array_equal(ann.leader, leader):
                problems.append(f"annulus {k}: leaders differ")
            if not np.array_equal(ann.good, good):
                problems.append(f"annulus {k}: good flags differ")
            if ann.f1 != f1:
                problems.append(f"annulus {k}: F1 {ann.f1}, reference {f1}")
        want_f2 = reference.f2_flags(g.edges_u, g.edges_v, g.n, flags,
                                     b.M, b.C, b.D, b.delta)
        if list(f2) != want_f2:
            problems.append(f"F2 {list(f2)}, reference {want_f2}")
        lengths = dict(zip(zip(g.edges_u.tolist(), g.edges_v.tolist()),
                           g.lengths.tolist())) if paths else {}
        terms = reference.penalty_terms(BOX_PENALTY)
        for path, report in paths:
            self.completed += 1
            self.applicable += bool(report.applicable)
            problems += reference.greedy_path_problems(
                list(zip(path.annuli, path.vertices)),
                lambda x, y: lengths.get((min(x, y), max(x, y))),
                w.tolist(), terms, BOX_BETA, b.M, b.C, b.D, b.delta,
                BOX_TAU, path.total_cost, report.applicable)
        return problems

    def summary(self) -> str:
        return (f"IGIRG lam=1 d=1 side={BOX_SIDE:g} tau=2.5 alpha=2 c=1, law "
                f"poly:{BOX_BETA}, f={BOX_PENALTY}; greedy paths completed="
                f"{self.completed} applicable={self.applicable}")


WORKLOADS = {w.name: w for w in (Sweep, Query, Boxing)}
