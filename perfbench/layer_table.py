"""Times pplab's layers one by one at n = 2^10, 2^12 and 2^14.

    python3 perfbench/layer_table.py

GIRG d=2, tau=2.5, alpha=2, c=0.5 with lengths from poly:1 and the
product penalty mu=1, as in criterion 2.  Each cell is the median of
REPEATS timings on graphs of distinct seeds, in milliseconds; the output
is a Markdown table.  This is a reference table for the README, not part
of the benchmark's gated metrics.
"""
from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (2**10, 2**12, 2**14)
REPEATS = 3


def _ms(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return 1e3 * (time.perf_counter() - t0)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from pplab import cli, cost, experiments, metrics, models, rng

    f = cost.product_penalty(1.0)
    law, law2 = rng.PolyAtZero(1.0), rng.PolyAtZero(0.1)
    rows = {}
    for n in SIZES:
        spec = models.Girg(n=n, d=2, tau=2.5, alpha=2.0, c=0.5)
        cells = {}
        for rep in range(REPEATS):
            seed = 1000 * rep + 7
            cell = {}
            t0 = time.perf_counter()
            g = models.generate(spec, seed, length_law=law)
            cell["generate"] = 1e3 * (time.perf_counter() - t0)
            cell["edges (m)"] = g.m
            text = cli.write_graph_text(g)
            cell["`write_graph_text`"] = _ms(lambda: cli.write_graph_text(g))
            cell["`read_graph_text`"] = _ms(lambda: cli.read_graph_text(text))
            fresh = models.Graph(g.vertices, g.edges_u, g.edges_v, g.lengths,
                                 spec=g.spec, seed=g.seed)
            cell["`Graph` construction"] = _ms(lambda: models.Graph(
                g.vertices, g.edges_u, g.edges_v, g.lengths, spec=g.spec,
                seed=g.seed))
            cell["adjacency build"] = _ms(lambda: fresh.neighbors(0))
            cell["`relength`"] = _ms(lambda: models.relength(g, law2))
            cell["`components`"] = _ms(lambda: metrics.components(g))
            cell["`two_point_distance` (30 pairs)"] = _ms(
                lambda: experiments.two_point_distance(g, f, 30, seed))
            cell["`cost_search`, full"] = _ms(
                lambda: metrics.cost_search(fresh, f, 0))
            cell["`distance_matrix` (30 sources)"] = _ms(
                lambda: metrics.distance_matrix(g, f, list(range(0, n, n // 30))[:30]))
            for k, v in cell.items():
                cells.setdefault(k, []).append(v)
        rows[n] = {k: statistics.median(v) for k, v in cells.items()}

    names = list(rows[SIZES[0]])
    print("| layer | " + " | ".join(f"n=2^{n.bit_length() - 1}" for n in SIZES) + " |")
    print("| --- |" + " ---: |" * len(SIZES))
    for name in names:
        vals = []
        for n in SIZES:
            v = rows[n][name]
            vals.append(f"{v / 1e3:.0f}k" if name == "edges (m)" else f"{v:,.0f}")
        print(f"| {name} | " + " | ".join(vals) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
