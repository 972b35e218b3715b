"""Time the sweep's distance stage and the cost of criterion 2's beta = 0.1 arm.

    python3 tools/distance_stage.py --parent DIR --change DIR --out BENCH.json

Both measurements use criterion 2's sweep spec: Girg(d=2, tau=2.5,
alpha=2, c=0.5), product penalty mu = 1, PolyAtZero(beta) lengths, sizes
2^10, 2^12 and 2^14, 5 graphs x 30 pairs per cell, seeds derived from
derive_master(7002, "rep:R").  The results go into OUT under the keys
"distance_stage" and "beta_01_arm"; its other keys are kept, so this can
run after paired_bench.py on the same file.

distance_stage (change checkout only).  For every size and beta in
(0.1, 1), repetition 0's five graphs and, on each, the 30 pairs that
two_point_distance draws.  Three rounds, in alternating order, time
  full      distance_matrix from the sorted distinct sources, which is
            what the parent's two_point_distance ran;
  pair      pair_distances;
  unpruned  pair_distances without its arc pruning, i.e. only the
            per-source limit (a copy kept here for this comparison).
The table holds each variant's median over the 15 calls in ms and the
ratios.  Every pair's three distances are compared with ==.

beta_01_arm (both checkouts).  One in-process phase_sweep per repetition
1-3, with beta grid (1.0,) and with (0.1, 1.0), in a fresh interpreter
per checkout and round; two rounds in alternating order.  The pool runs
as phase_sweep sets it up.  The extra cost of the beta = 0.1 arm is the
difference of the two grids' medians; times 19 gives what it would add
to criterion 2 in every repetition but the first, which already runs it.

Progress goes to stderr.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIZES = (2**10, 2**12, 2**14)
BETAS = (0.1, 1.0)
GRAPHS = 5
PAIRS = 30
ROUNDS = 3
ARM_ROUNDS = 2
SIDES = ("parent", "change")

# One checkout's phase_sweep timings: argv = checkout; prints JSON.
_ARM_PROBE = """\
import json, sys, time
sys.path.insert(0, sys.argv[1] + "/src")
from pplab.cost import product_penalty
from pplab.experiments import SweepSpec, phase_sweep
from pplab.models import Girg
from pplab.rng import PolyAtZero, derive_master
base = Girg(n=1, d=2, tau=2.5, alpha=2.0, c=0.5)
out = {"grid_1.0": [], "grid_0.1_1.0": []}
for rep in (1, 2, 3):
    for key, grid in (("grid_1.0", (1.0,)), ("grid_0.1_1.0", (0.1, 1.0))):
        spec = SweepSpec(base=base, f=product_penalty(1.0),
                         law_family=PolyAtZero, beta_grid=grid,
                         size_grid=(2**10, 2**12, 2**14), pairs_per_graph=30,
                         graphs_per_cell=5,
                         seed=derive_master(7002, f"rep:{rep}"))
        t0 = time.perf_counter()
        phase_sweep(spec)
        out[key].append(round(time.perf_counter() - t0, 3))
print(json.dumps(out))
"""


def unpruned_pair_distances(g, f, pairs, direction="outward"):
    """pair_distances with the per-source limit but every arc kept."""
    import numpy as np
    from pplab.metrics import _cost_matrix, _csgraph_dijkstra

    a, b = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    mat = _cost_matrix(g, f, direction)
    hub = int(np.argmax(g.vertices.weights))
    from_hub = _csgraph_dijkstra(mat, indices=hub)
    to_hub = _csgraph_dijkstra(mat.T.tocsr(), indices=hub)
    sources, at = np.unique(a, return_inverse=True)
    bound = np.full(sources.size, -np.inf)
    np.maximum.at(bound, at, (to_hub[a] + from_hub[b])
                  * (1.0 + 4.0 * g.n * 2.0**-53))
    rows = [_csgraph_dijkstra(mat, indices=s, limit=limit)
            for s, limit in zip(sources.tolist(), bound.tolist())]
    return np.array([rows[i][t] for i, t in zip(at.tolist(), b.tolist())])


def distance_stage(checkout: Path) -> dict:
    sys.path.insert(0, str(checkout / "src"))
    from dataclasses import replace
    from unittest import mock

    import numpy as np
    from pplab import experiments, metrics
    from pplab.cost import product_penalty
    from pplab.models import Girg, generate, relength
    from pplab.rng import PolyAtZero, derive_master

    def full(g, f, pairs):
        a, b = np.asarray(pairs, dtype=np.int64).T
        sources, at = np.unique(a, return_inverse=True)
        return metrics.distance_matrix(g, f, sources)[at, b]

    variants = {"full": full, "pair": metrics.pair_distances,
                "unpruned": unpruned_pair_distances}
    f = product_penalty(1.0)
    base = Girg(n=1, d=2, tau=2.5, alpha=2.0, c=0.5)
    seed = derive_master(7002, "rep:0")
    table = {}
    for n in SIZES:
        for beta in BETAS:
            ms = {name: [] for name in variants}
            cell_seed = derive_master(seed, f"cell:{beta!r}:{n}")
            for gi in range(GRAPHS):
                g = relength(generate(replace(base, n=n),
                                      derive_master(seed, f"graph:{n}:{gi}")),
                             PolyAtZero(beta))
                with mock.patch.object(experiments, "pair_distances",
                                       wraps=metrics.pair_distances) as spy:
                    experiments.two_point_distance(
                        g, f, PAIRS, derive_master(cell_seed, f"pairs:{gi}"))
                pairs = spy.call_args.args[2]
                order = list(variants)
                for r in range(ROUNDS):
                    got = {}
                    for name in order if r % 2 == 0 else order[::-1]:
                        t0 = time.perf_counter()
                        got[name] = variants[name](g, f, pairs)
                        ms[name].append((time.perf_counter() - t0) * 1e3)
                    if not (np.array_equal(got["full"], got["pair"])
                            and np.array_equal(got["full"], got["unpruned"])):
                        raise SystemExit(f"distances differ at n={n} "
                                         f"beta={beta} graph {gi}")
            med = {name: round(statistics.median(v), 1)
                   for name, v in ms.items()}
            med["pair_over_full"] = round(med["pair"] / med["full"], 2)
            med["pair_over_unpruned"] = round(med["pair"] / med["unpruned"], 2)
            table.setdefault(str(n), {})[str(beta)] = med
            print(f"n={n} beta={beta}: {med}", file=sys.stderr, flush=True)
    return table


def beta_01_arm(checkouts: dict) -> dict:
    out = {side: {"grid_1.0": [], "grid_0.1_1.0": []} for side in SIDES}
    for r in range(ARM_ROUNDS):
        for side in SIDES if r % 2 == 0 else SIDES[::-1]:
            proc = subprocess.run(
                [sys.executable, "-c", _ARM_PROBE, str(checkouts[side])],
                capture_output=True, text=True, check=True)
            for key, times in json.loads(proc.stdout).items():
                out[side][key].extend(times)
            print(f"beta arm round {r} {side}: {proc.stdout.strip()}",
                  file=sys.stderr, flush=True)
    for side in SIDES:
        extra = (statistics.median(out[side]["grid_0.1_1.0"])
                 - statistics.median(out[side]["grid_1.0"]))
        out[side]["median_extra_s"] = round(extra, 2)
    out["criterion_2_extra_for_19_repetitions_s"] = {
        side: round(19 * out[side]["median_extra_s"], 1) for side in SIDES}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    record = (json.loads(args.out.read_text()) if args.out.is_file()
              else {})
    record["distance_stage"] = {
        "what": ("median ms over 5 graphs x 3 alternating calls; full = "
                 "distance_matrix on the sorted sources, pair = "
                 "pair_distances, unpruned = pair_distances without arc "
                 "pruning; all distances equal with =="),
        "tool": "python3 tools/distance_stage.py",
        "ms": distance_stage(checkouts["change"])}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    record["beta_01_arm"] = dict(
        what=("seconds per in-process phase_sweep of criterion 2, "
              "repetitions 1-3, beta grid (1.0,) against (0.1, 1.0), two "
              "alternating rounds per checkout"),
        tool="python3 tools/distance_stage.py",
        **beta_01_arm(checkouts))
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
