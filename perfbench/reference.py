"""Output checks kept apart from pplab's code.

Nothing here imports pplab.  Each check recomputes its answer from plain
arrays (a graph file's text, vertex positions and weights, the boxing's
anchors) or from the paper's formulas, and returns a list of problems;
an empty list means the output passed.
"""
from __future__ import annotations

import heapq
import math

import numpy as np

SWEEP_CSV_HEADER = "beta,n,median_d,q1,q3,giant_frac,verdict,seed"


# ---------------------------------------------------------------------------
# penalties, written out as sum_i a_i * w1^mu_i * w2^nu_i


def penalty_terms(spec: str) -> list:
    """(a, mu, nu) terms of a `prod:mu` or `mono:mu,nu` penalty string."""
    kind, _, rest = spec.partition(":")
    nums = [float(x) for x in rest.split(",")]
    if kind == "prod" and len(nums) == 1:
        return [(1.0, nums[0], nums[0])]
    if kind == "mono" and len(nums) == 2:
        return [(1.0, nums[0], nums[1])]
    raise ValueError(f"reference penalty parser does not know {spec!r}")


def penalty(terms, w1: float, w2: float) -> float:
    return sum(a * w1**mu * w2**nu for a, mu, nu in terms)


# ---------------------------------------------------------------------------
# distances


class RefGraph:
    """Vertex weights and an undirected adjacency read from a graph file."""

    def __init__(self, text: str):
        weights, eu, ev, ell = [], [], [], []
        for line in text.splitlines():
            parts = line.split(" ")
            if parts[0] == "v":
                if int(parts[1]) != len(weights):
                    raise ValueError("vertex ids are not consecutive")
                weights.append(float(parts[-1]))
            elif parts[0] == "e":
                eu.append(int(parts[1]))
                ev.append(int(parts[2]))
                ell.append(float(parts[3]))
        self.n = len(weights)
        self.weights = weights
        self.edges_u = np.array(eu, dtype=np.int64)
        self.edges_v = np.array(ev, dtype=np.int64)
        self.lengths = np.array(ell, dtype=np.float64)
        tails = np.concatenate([self.edges_u, self.edges_v])
        heads = np.concatenate([self.edges_v, self.edges_u])
        order = np.argsort(tails, kind="stable")
        self._indptr = np.searchsorted(tails[order],
                                       np.arange(self.n + 1)).tolist()
        self._heads = heads[order].tolist()
        self._lengths = np.concatenate([self.lengths, self.lengths])[order].tolist()

    def neighbours(self, a: int):
        lo, hi = self._indptr[a], self._indptr[a + 1]
        return zip(self._heads[lo:hi], self._lengths[lo:hi])

    def length(self, a: int, b: int):
        """Length of edge {a, b}, or None when there is no such edge."""
        for head, ell in self.neighbours(a):
            if head == b:
                return ell
        return None

    def step_cost(self, terms, a: int, b: int, direction: str) -> float:
        """Cost of the search step a -> b.

        Outward the step is travelled a -> b.  Inward the search runs from
        the source against the direction of travel, so the step is
        travelled b -> a.
        """
        ell = self.length(a, b)
        if ell is None:
            raise KeyError((a, b))
        wa, wb = self.weights[a], self.weights[b]
        if direction == "outward":
            return ell * penalty(terms, wa, wb)
        return ell * penalty(terms, wb, wa)

    def giant_component(self) -> list:
        """Vertices of the largest component (lowest id on a tie), sorted."""
        seen = [False] * self.n
        best: list = []
        for start in range(self.n):
            if seen[start]:
                continue
            seen[start] = True
            comp, stack = [start], [start]
            while stack:
                a = stack.pop()
                for b, _ in self.neighbours(a):
                    if not seen[b]:
                        seen[b] = True
                        comp.append(b)
                        stack.append(b)
            if len(comp) > len(best):
                best = comp
        return sorted(best)


def dijkstra(g: RefGraph, terms, source: int, target: int,
             direction: str) -> float:
    """Plain heap Dijkstra from source, stopped when target settles."""
    w = g.weights
    outward = direction == "outward"
    dist = {source: 0.0}
    done = set()
    heap = [(0.0, source)]
    while heap:
        d, a = heapq.heappop(heap)
        if a in done:
            continue
        if a == target:
            return d
        done.add(a)
        wa = w[a]
        for b, ell in g.neighbours(a):
            if b in done:
                continue
            wb = w[b]
            nd = d + ell * (penalty(terms, wa, wb) if outward
                            else penalty(terms, wb, wa))
            if nd < dist.get(b, math.inf):
                dist[b] = nd
                heapq.heappush(heap, (nd, b))
    return math.inf


def _close(x: float, y: float, rel: float = 1e-9) -> bool:
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= rel * max(abs(x), abs(y))


def check_distance(g: RefGraph, terms, source: int, target: int,
                   direction: str, stdout: str) -> list:
    """Check one `pplab distance` output against the reference.

    The printed distance must match the reference Dijkstra within a
    relative 1e-9; the printed path must run from source to target along
    real edges, and its step costs must sum to the printed distance.
    """
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("distance "):
        return [f"no distance line in {stdout[:80]!r}"]
    printed = float(lines[0].split(" ", 1)[1])
    expected = dijkstra(g, terms, source, target, direction)
    problems = []
    if not _close(printed, expected):
        problems.append(f"distance {printed!r} != reference {expected!r}")
    if math.isinf(printed):
        return problems
    if len(lines) < 2 or not lines[1].startswith("path "):
        return problems + ["no path line"]
    path = [int(x) for x in lines[1].split(" ")[1:]]
    if not path or path[0] != source or path[-1] != target:
        return problems + [f"path does not run {source} -> {target}"]
    total = 0.0
    for a, b in zip(path, path[1:]):
        try:
            total += g.step_cost(terms, a, b, direction)
        except KeyError:
            return problems + [f"path step {a}-{b} is not an edge"]
    if not _close(total, printed):
        problems.append(f"path costs sum to {total!r}, printed {printed!r}")
    return problems


# ---------------------------------------------------------------------------
# phase verdicts


def critical_beta_product(tau: float, mu: float) -> float:
    """beta* = (3 - tau) / (2 mu) for the product penalty (w1 w2)^mu."""
    return (3.0 - tau) / (2.0 * mu)


def analytic_phase(tau: float, mu: float, beta: float) -> str:
    """'explosive' below beta*, 'conservative' above it."""
    crit = critical_beta_product(tau, mu)
    if beta == crit:
        raise ValueError("beta sits on the threshold")
    return "explosive" if beta < crit else "conservative"


def verdict_phase(verdict: str) -> str:
    """Map pplab's verdict names onto the two phases."""
    if verdict.startswith("Explosive"):
        return "explosive"
    if verdict == "Conservative":
        return "conservative"
    return f"other:{verdict}"


def check_sweep_csv(text: str, tau: float, mu: float, betas, sizes,
                    seed: int) -> list:
    """Check a sweep CSV: one row per (beta, n) cell, analytic verdicts,
    0 < q1 <= median <= q3 and 0 < giant_frac <= 1 in every row."""
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_CSV_HEADER:
        return ["bad or missing CSV header"]
    problems = []
    cells = []
    for line in lines[1:]:
        cols = line.split(",")
        if len(cols) != 8:
            problems.append(f"malformed row {line!r}")
            continue
        beta, n = float(cols[0]), int(cols[1])
        med, q1, q3, frac = (float(x) for x in cols[2:6])
        cells.append((beta, n))
        if not 0.0 < q1 <= med <= q3 < math.inf:
            problems.append(f"cell ({beta}, {n}): quartiles {q1}, {med}, {q3}")
        if not 0.0 < frac <= 1.0:
            problems.append(f"cell ({beta}, {n}): giant_frac {frac}")
        want = analytic_phase(tau, mu, beta)
        got = verdict_phase(cols[6])
        if got != want:
            problems.append(f"cell ({beta}, {n}): verdict {cols[6]}, "
                            f"analytic {want}")
        if int(cols[7]) != seed:
            problems.append(f"cell ({beta}, {n}): seed {cols[7]} != {seed}")
    want_cells = sorted((float(b), int(n)) for b in betas for n in sizes)
    if sorted(cells) != want_cells:
        problems.append(f"cells {sorted(cells)} != grid {want_cells}")
    return problems


# ---------------------------------------------------------------------------
# boxing


def subbox_leaders(positions, weights, anchors, side: float) -> np.ndarray:
    """Leader (heaviest vertex, lowest id on a tie) of every sub-box.

    Sub-box i is the half-open cube [anchors[i], anchors[i] + side); -1
    marks an empty sub-box.  Membership is one broadcast comparison of
    every vertex against every sub-box.
    """
    pos = np.asarray(positions, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.float64).reshape(-1, pos.shape[1])
    w = np.asarray(weights, dtype=np.float64)
    leader = np.full(anchors.shape[0], -1, dtype=np.int64)
    if anchors.shape[0] == 0:
        return leader
    inside = np.all((pos[:, None, :] >= anchors[None, :, :])
                    & (pos[:, None, :] < anchors[None, :, :] + side), axis=2)
    ids = np.flatnonzero(inside.any(axis=1))
    box = inside[ids].argmax(axis=1)
    order = np.lexsort((ids, -w[ids], box))
    box, ids = box[order], ids[order]
    first = np.ones(box.size, dtype=bool)
    first[1:] = box[1:] != box[:-1]
    leader[box[first]] = ids[first]
    return leader


def leader_interval(M: float, C: float, delta: float, k: int, tau: float):
    """(lo, hi] = (e^{(1-delta) M C^k/(tau-1)}, e^{(1+delta) M C^k/(tau-1)}]."""
    e = M * C**k / (tau - 1.0)
    return math.exp((1.0 - delta) * e), math.exp((1.0 + delta) * e)


def boxing_flags(positions, weights, annuli, M, C, delta, tau):
    """Leaders, good flags and F1 flags per annulus.

    ``annuli`` lists (anchors, subbox_side) for k = 0, 1, ...
    """
    w = np.asarray(weights, dtype=np.float64)
    out = []
    for k, (anchors, side) in enumerate(annuli):
        leader = subbox_leaders(positions, w, anchors, side)
        lo, hi = leader_interval(M, C, delta, k, tau)
        lw = np.where(leader >= 0, w[np.maximum(leader, 0)], math.nan)
        good = (leader >= 0) & (lw > lo) & (lw <= hi)
        out.append((leader, good, 2 * int(good.sum()) >= leader.size))
    return out


def f2_flags(edges_u, edges_v, n, flags, M, C, D, eps) -> list:
    """F2 at k: every good leader of annulus k has at least
    e^{(1-eps) M C^{k+1} (D-1)} good leaders of annulus k+1 as neighbours."""
    out = []
    for k in range(len(flags) - 1):
        leader, good, _ = flags[k]
        nxt_leader, nxt_good, _ = flags[k + 1]
        is_next = np.zeros(n, dtype=bool)
        is_next[nxt_leader[nxt_good]] = True
        hits = (np.bincount(edges_u[is_next[edges_v]], minlength=n)
                + np.bincount(edges_v[is_next[edges_u]], minlength=n))
        need = math.exp((1.0 - eps) * M * C ** (k + 1) * (D - 1.0))
        out.append(bool(np.all(hits[leader[good]] >= need)))
    return out


def greedy_path_problems(path, lengths_of, weights, terms, law_beta,
                         M, C, D, delta, tau, reported_cost,
                         bound_applicable) -> list:
    """Check one completed greedy path, given as [(annulus, vertex), ...].

    Its cost is recomputed from the edge lengths and must match the
    reported one.  Where the bound applies, that cost must stay within the
    bound recomputed from the hop terms a * hi_k^mu * hi_{k+1}^nu * q_k,
    with q_k = (zeta_k e^{-(1-delta) M C^{k+1} (D-1)})^{1/beta} the
    length quantile of the poly law and zeta_k = k + 1.
    """
    (a, mu, nu), = terms
    total = bound = 0.0
    for (k, x), (_, y) in zip(path[:-1], path[1:]):
        ell = lengths_of(x, y)
        if ell is None:
            return [f"greedy hop {x}-{y} is not an edge"]
        total += ell * penalty(terms, weights[x], weights[y])
        y_k = (k + 1.0) * math.exp(-(1.0 - delta) * M * C ** (k + 1) * (D - 1.0))
        q = min(1.0, y_k) ** (1.0 / law_beta)
        hi_from = leader_interval(M, C, delta, k, tau)[1]
        hi_to = leader_interval(M, C, delta, k + 1, tau)[1]
        bound += a * hi_from**mu * hi_to**nu * q
    problems = []
    if not _close(total, reported_cost):
        problems.append(f"greedy cost {reported_cost!r}, recomputed {total!r}")
    if bound_applicable and total > bound * (1.0 + 1e-9):
        problems.append(f"greedy cost {total!r} exceeds bound {bound!r}")
    return problems
