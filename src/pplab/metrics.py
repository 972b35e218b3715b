"""Quasimetric cost distances, explosion diagnostics, and boxing events.

Distances minimise the sum of directed edge costs L_e * f(W_from, W_to)
along paths; asymmetric penalties make the distance a quasimetric, so every
search carries a direction: "outward" measures from the source, "inward"
measures into it (the same search on the cost-reversed graph).

The boxing half of the module (delta_good_scan, check_F2, greedy paths,
successful) operationalises the annulus events behind the explosive-path
construction; the checks report what holds on a given sample rather than
asserting the asymptotic bounds.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .geometry import BoxingSystem, locate_subbox, pair_distance
from .models import Graph


def _slot_costs(g: Graph, f, direction: str) -> np.ndarray:
    """Directed cost of each CSR slot: stepping from its row vertex to nbr."""
    if direction not in ("outward", "inward"):
        raise ValueError("direction must be 'outward' or 'inward'")
    w = g.vertices.weights
    wu = w[g.edges_u]
    wv = w[g.edges_v]
    c_uv = g.lengths * np.asarray(f(wu, wv), dtype=np.float64)
    c_vu = g.lengths * np.asarray(f(wv, wu), dtype=np.float64)
    if direction == "inward":
        # paths are measured into the source: search the reversed digraph
        c_uv, c_vu = c_vu, c_uv
    _, nbr, eid = g.csr
    return np.where(nbr == g.edges_v[eid], c_uv[eid], c_vu[eid])


@dataclass
class CostSearchResult:
    source: int
    direction: str
    settled: list                  # [(vertex, distance)] nondecreasing
    frontier_exhausted: bool
    dist: np.ndarray               # per-vertex distance, inf = not settled
    parent: np.ndarray             # search-tree parent, -1 at source/unreached


def cost_search(g: Graph, f, source: int, direction: str = "outward",
                budget: float | None = None,
                max_settled: int | None = None,
                target: int | None = None) -> CostSearchResult:
    """Dijkstra over directed costs, halting at budget, max_settled or target.

    Ties in distance settle by lowest vertex id.  With a target, the search
    stops as soon as the target is settled, before relaxing its edges; the
    vertices settled up to then, their distances and search-tree paths are
    exactly those of the full search, and every other vertex reads inf.
    frontier_exhausted is true only when the whole reachable set was
    settled (the search ended by draining its frontier, not by hitting a
    limit); after a stop at the target it is false.
    """
    if not 0 <= source < g.n:
        raise ValueError("source not in graph")
    if target is not None and not 0 <= target < g.n:
        raise ValueError("target not in graph")
    return _search(g, _slot_costs(g, f, direction), source, direction,
                   budget, max_settled, target)


def _search(g: Graph, cost: np.ndarray, source: int, direction: str,
            budget: float | None = None, max_settled: int | None = None,
            target: int | None = None) -> CostSearchResult:
    """cost_search over given per-slot costs; an inf slot is never taken."""
    cap = math.inf if budget is None else float(budget)
    limit = g.n if max_settled is None else int(max_settled)
    indptr, nbr, _ = g.csr
    rows = indptr.tolist()

    # costs are >= 0, so a popped entry above its vertex's distance is stale
    # and an edge back to a settled vertex never improves it; an inf step
    # never beats dist[u], so it never enters the heap
    dist = [math.inf] * g.n
    parent = [-1] * g.n
    settled: list = []
    exhausted = False
    heap = [(0.0, source)]
    dist[source] = 0.0
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        if d > cap or len(settled) >= limit:
            break
        settled.append((v, d))
        if v == target:
            break
        lo, hi = rows[v], rows[v + 1]
        for u, step in zip(nbr[lo:hi].tolist(), cost[lo:hi].tolist()):
            nd = d + step
            if nd < dist[u]:
                dist[u] = nd
                parent[u] = v
                heapq.heappush(heap, (nd, u))
    else:
        exhausted = True
    out = np.full(g.n, math.inf)
    if settled:
        ids, ds = zip(*settled)
        out[list(ids)] = ds
    return CostSearchResult(source=source, direction=direction,
                            settled=settled, frontier_exhausted=exhausted,
                            dist=out, parent=np.array(parent, dtype=np.int64))


def realized_path(res: CostSearchResult, target: int):
    """Vertex sequence source -> target in the search tree, or None."""
    if not np.isfinite(res.dist[target]):
        return None
    path = [target]
    while path[-1] != res.source:
        path.append(int(res.parent[path[-1]]))
    return path[::-1]


def distance_matrix(g: Graph, f, sources, direction: str = "outward") -> np.ndarray:
    """Bulk exact distances from each source (rows) to every vertex.

    Same semantics as cost_search without limits: scipy's dijkstra runs on
    the graph's CSR with the same per-slot costs.  Explicit zero costs stay
    in the matrix, since zero-length edges are real zero-cost hops.  The
    test suite holds the two searches equal.
    """
    indptr, nbr, _ = g.csr
    mat = csr_matrix((_slot_costs(g, f, direction), nbr, indptr),
                     shape=(g.n, g.n))
    return _csgraph_dijkstra(mat, directed=True,
                             indices=np.asarray(sources, dtype=np.int64))


# ---------------------------------------------------------------------------
# explosion diagnostics


def sigma(g: Graph, f, v: int, k: int, direction: str = "outward") -> float:
    """Smallest budget within which v reaches more than k vertices.

    Equals the (k+1)-st smallest distance from v (sigma(v,0) = 0); inf when
    fewer than k+1 vertices are reachable.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    res = cost_search(g, f, v, direction, max_settled=k + 1)
    if len(res.settled) >= k + 1:
        return res.settled[k][1]
    return math.inf


def n1t(g: Graph, f, v: int, t: float, direction: str = "outward") -> int:
    """Count of incident edges whose one-hop cost from (or into) v is <= t."""
    if t < 0:
        raise ValueError("t must be >= 0")
    indptr = g.csr[0]
    cost = _slot_costs(g, f, direction)
    return int(np.count_nonzero(cost[indptr[v]:indptr[v + 1]] <= t))


def truncated_ball(g: Graph, f, v: int, budget: float, w_cap: float,
                   direction: str = "outward"):
    """(vertex set within cost budget using weights <= w_cap, source flag).

    The flag is true when the source itself exceeds the cap, in which case
    the ball is empty.
    """
    if budget < 0 or w_cap < 0:
        raise ValueError("budget and w_cap must be >= 0")
    w = g.vertices.weights
    if w[v] > w_cap:
        return set(), True
    capped = np.where(w[g.csr[1]] > w_cap, math.inf,
                      _slot_costs(g, f, direction))
    res = _search(g, capped, v, direction, budget=budget)
    return {x for x, _ in res.settled}, False


@dataclass(frozen=True)
class ExteriorResult:
    w_min: float                   # inf when the exterior is empty
    vertices: frozenset            # the whole minimal-weight tie set
    representative: int | None     # smallest window distance to v, then id


def exterior_set(g: Graph, f, v: int, budget: float, w_cap: float,
                 direction: str = "outward") -> ExteriorResult:
    """Minimal-weight vertices above w_cap one edge beyond the capped ball.

    A candidate u (weight > w_cap) qualifies when some ball vertex x has
    dist(x) + cost(x -> u) <= budget.  The whole tie set at the minimal
    weight is returned; the representative is the tie vertex closest to v
    in window distance (lowest id on equal distance).
    """
    if g.vertices.weights[v] > w_cap:
        return ExteriorResult(math.inf, frozenset(), None)
    indptr, nbr, _ = g.csr
    w = g.vertices.weights
    cost = _slot_costs(g, f, direction)
    ball = _search(g, np.where(w[nbr] > w_cap, math.inf, cost), v, direction,
                   budget=budget)
    candidates = {}
    for x, d in ball.settled:
        lo, hi = indptr[x], indptr[x + 1]
        for u, step in zip(nbr[lo:hi].tolist(), cost[lo:hi].tolist()):
            if w[u] > w_cap and d + step <= budget:
                candidates[u] = w[u]
    if not candidates:
        return ExteriorResult(math.inf, frozenset(), None)
    w_min = min(candidates.values())
    ties = frozenset(u for u, wu in candidates.items() if wu == w_min)
    window = g.vertices.window
    pos = g.vertices.positions
    rep = min(ties, key=lambda u: (pair_distance(window, pos[v], pos[u]), u))
    return ExteriorResult(w_min, ties, rep)


# ---------------------------------------------------------------------------
# components


def components(g: Graph) -> list:
    """Connected components as sorted id lists, largest (then lowest id) first."""
    if g.n == 0:
        return []
    adj = csr_matrix((np.ones(g.m), (g.edges_u, g.edges_v)), shape=(g.n, g.n))
    _, labels = connected_components(adj, directed=False)
    order = np.argsort(labels, kind="stable")   # ascending ids within a label
    groups = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    return sorted((c.tolist() for c in groups), key=lambda c: (-len(c), c[0]))


def largest_component(g: Graph) -> set:
    """Vertex ids of components(g)[0], computed once per edge set."""
    return set(g.edge_cached("largest_component",
                             lambda h: np.asarray(components(h)[0])).tolist())


def induced_subgraph(g: Graph, ids) -> tuple:
    """(subgraph on the given vertices, sorted original-id array)."""
    ids = np.unique(np.asarray(ids, dtype=np.int64))
    sel = np.zeros(g.n, dtype=bool)
    sel[ids] = True
    keep = sel[g.edges_u] & sel[g.edges_v]
    remap = np.cumsum(sel) - 1
    vs = g.vertices
    from .models import VertexSet
    origin = None
    if vs.origin_index is not None and sel[vs.origin_index]:
        origin = int(remap[vs.origin_index])
    sub_vs = VertexSet(vs.window, vs.positions[ids], vs.weights[ids],
                       origin_index=origin)
    sub = Graph(sub_vs, remap[g.edges_u[keep]], remap[g.edges_v[keep]],
                g.lengths[keep])
    return sub, ids


# ---------------------------------------------------------------------------
# boxing events


@dataclass
class AnnulusScan:
    k: int
    leader: np.ndarray             # per sub-box vertex id, -1 when empty
    leader_weight: np.ndarray      # weight of the leader, nan when empty
    good: np.ndarray               # per sub-box delta-goodness
    f1: bool                       # 2 * (# good) >= (# sub-boxes)

    @property
    def good_leaders(self) -> list:
        return [int(v) for v in self.leader[self.good]]


@dataclass
class DeltaGoodScan:
    annuli: list                   # AnnulusScan, aligned with b.annuli

    def scan_for(self, k: int) -> AnnulusScan:
        for a in self.annuli:
            if a.k == k:
                return a
        raise KeyError(f"no annulus {k}")

    @property
    def f1_flags(self) -> list:
        return [a.f1 for a in self.annuli]


def delta_good_scan(g: Graph, b: BoxingSystem, tau: float) -> DeltaGoodScan:
    """Per-sub-box leaders and delta-goodness; per-annulus F1.

    Leader = maximal-weight vertex of the sub-box (ties to lowest id);
    delta-good iff its weight lies in the half-open interval (lo, hi]
    given by the annulus scale.  F1 holds when at least half the annulus's
    sub-boxes are good (vacuously on an empty annulus).
    """
    if g.vertices.window != b.window:
        raise ValueError("graph and boxing system use different windows")
    counts = [a.count for a in b.annuli]
    leader = [np.full(c, -1, dtype=np.int64) for c in counts]
    lw = [np.full(c, math.nan) for c in counts]
    pos = g.vertices.positions
    w = g.vertices.weights
    for v in range(g.n):
        loc = locate_subbox(b, pos[v])
        if loc is None:
            continue
        k, row = loc
        i = k  # annuli are ordered k = 0..k_star
        if leader[i][row] == -1 or w[v] > lw[i][row]:
            leader[i][row] = v
            lw[i][row] = w[v]
    out = []
    for i, ann in enumerate(b.annuli):
        lo, hi = b.leader_weight_interval(ann.k, tau)
        good = (leader[i] >= 0) & (lw[i] > lo) & (lw[i] <= hi)
        f1 = 2 * int(good.sum()) >= ann.count
        out.append(AnnulusScan(k=ann.k, leader=leader[i], leader_weight=lw[i],
                               good=good, f1=f1))
    return DeltaGoodScan(annuli=out)


def check_F2(g: Graph, b: BoxingSystem, tau: float, epsilon: float | None = None,
             scan: DeltaGoodScan | None = None) -> list:
    """Per-annulus F2 flags for k = 0..k_star-1.

    F2 at k: every delta-good leader of Gamma_k has at least
    e^{(1-eps) M C^{k+1} (D-1)} delta-good leader neighbours in
    Gamma_{k+1}; vacuously true with no good leaders at k.
    """
    eps = b.delta if epsilon is None else epsilon
    if scan is None:
        scan = delta_good_scan(g, b, tau)
    flags = []
    for i in range(len(b.annuli) - 1):
        k = b.annuli[i].k
        threshold = b.leader_count_threshold(k + 1, eps)
        next_good = set(scan.annuli[i + 1].good_leaders)
        ok = True
        for c in scan.annuli[i].good_leaders:
            hits = sum(1 for u in g.neighbors(c).tolist() if u in next_good)
            if hits < threshold:
                ok = False
                break
        flags.append(ok)
    return flags


@dataclass
class GreedyPath:
    vertices: list                 # leader sequence, one per annulus
    annuli: list                   # annulus index of each vertex
    hop_lengths: list              # raw L of each hop
    hop_costs: list                # directed cost of each hop
    total_cost: float


@dataclass
class GreedyFailure:
    failed_annulus: int            # first annulus with no adjacent good leader
    vertices: list                 # progress before the failure
    annuli: list


def build_greedy_path(g: Graph, b: BoxingSystem, tau: float, f,
                      start_leader: int,
                      scan: DeltaGoodScan | None = None):
    """Hop annulus by annulus to k_star along minimal-L edges to good leaders.

    Hop choice follows the raw edge length L (ties to lowest id); hop costs
    are the directed costs L * f(W_from, W_to) accumulated along the path.
    Returns a GreedyPath, or a GreedyFailure naming the first annulus that
    offers no adjacent delta-good leader (an expected outcome, not an error).
    """
    if scan is None:
        scan = delta_good_scan(g, b, tau)
    loc = locate_subbox(b, g.vertices.positions[start_leader])
    if loc is None:
        raise ValueError("start_leader lies in no sub-box")
    k0, row = loc
    s = scan.scan_for(k0)
    if s.leader[row] != start_leader or not s.good[row]:
        raise ValueError("start_leader is not a delta-good leader of its sub-box")
    w = g.vertices.weights
    vertices = [start_leader]
    annuli = [k0]
    hop_lengths: list = []
    hop_costs: list = []
    cur = start_leader
    for k in range(k0, b.k_star):
        next_good = set(scan.scan_for(k + 1).good_leaders)
        best = None
        for u, e in zip(g.neighbors(cur).tolist(),
                        g.incident_edges(cur).tolist()):
            if u in next_good:
                cand = (g.lengths[e], u, e)
                if best is None or cand < best:
                    best = cand
        if best is None:
            return GreedyFailure(failed_annulus=k + 1, vertices=vertices,
                                 annuli=annuli)
        ell, nxt, e = best
        hop_lengths.append(float(ell))
        hop_costs.append(float(ell * f(w[cur], w[nxt])))
        vertices.append(nxt)
        annuli.append(k + 1)
        cur = nxt
    return GreedyPath(vertices=vertices, annuli=annuli,
                      hop_lengths=hop_lengths, hop_costs=hop_costs,
                      total_cost=float(sum(hop_costs)))


@dataclass
class GreedyBoundReport:
    hop_quantiles: list            # per-hop length quantile q_k
    hop_bounds: list               # per-hop analytic cost bound term
    applicable: bool               # every hop length <= its quantile
    total_bound: float
    satisfied: bool                # applicable and total_cost <= total_bound


def greedy_bound_report(b: BoxingSystem, tau: float, f, law,
                        path: GreedyPath, epsilon: float | None = None,
                        zeta=None) -> GreedyBoundReport:
    """Check a completed greedy path against its analytic cost bound.

    The bound is monomial: hop k (from Gamma_k to Gamma_{k+1}) costs at most
    a * (e^{MC^k(1+d)/(tau-1)})^mu (e^{MC^{k+1}(1+d)/(tau-1)})^nu * q_k with
    q_k = F_L^{-1}(zeta_k e^{-(1-eps) M C^{k+1} (D-1)}) and zeta_k = k+1 by
    default.  The comparison only binds ("applicable") when every observed
    hop length is below its quantile.
    """
    terms = getattr(f, "terms", None)
    if terms is None or len(terms) != 1:
        raise ValueError("the greedy cost bound is stated for monomial penalties")
    a, mu, nu = terms[0]
    eps = b.delta if epsilon is None else epsilon
    if zeta is None:
        zeta = lambda k: k + 1.0
    quantiles, bounds = [], []
    for k in path.annuli[:-1]:
        y = zeta(k) * math.exp(-(1.0 - eps) * b.M * b.C ** (k + 1) * (b.D - 1.0))
        q = float(law.quantile(min(1.0, y)))
        up_from = b.leader_weight_interval(k, tau)[1]
        up_to = b.leader_weight_interval(k + 1, tau)[1]
        quantiles.append(q)
        bounds.append(a * up_from**mu * up_to**nu * q)
    applicable = all(l <= q for l, q in zip(path.hop_lengths, quantiles))
    total_bound = float(sum(bounds))
    satisfied = applicable and (
        path.total_cost <= total_bound * (1.0 + 1e-12) or not path.hop_costs)
    return GreedyBoundReport(hop_quantiles=quantiles, hop_bounds=bounds,
                             applicable=applicable, total_bound=total_bound,
                             satisfied=satisfied)


def successful(g: Graph, b: BoxingSystem, tau: float, f, u: int,
               scan: DeltaGoodScan | None = None) -> bool:
    """Box-increasing reachability of a good Gamma_{k_star} leader from u.

    True when F1 holds at k_star and either u is itself a delta-good leader
    whose greedy path completes (trivially so in Gamma_{k_star}), or some
    edge of u lands on a delta-good leader whose greedy path completes.
    """
    if scan is None:
        scan = delta_good_scan(g, b, tau)
    if not scan.scan_for(b.k_star).f1:
        return False

    def completes(leader: int) -> bool:
        out = build_greedy_path(g, b, tau, f, leader, scan=scan)
        return isinstance(out, GreedyPath)

    loc = locate_subbox(b, g.vertices.positions[u])
    if loc is not None:
        s = scan.scan_for(loc[0])
        if s.leader[loc[1]] == u and s.good[loc[1]] and completes(u):
            return True
    all_good = set()
    for a in scan.annuli:
        all_good.update(a.good_leaders)
    for v in g.neighbors(u).tolist():
        if v in all_good and completes(v):
            return True
    return False


# ---------------------------------------------------------------------------
# core graphs


@dataclass
class CoreResult:
    ids: np.ndarray                # original vertex ids in the core
    graph: Graph                   # induced subgraph on those ids
    weight_interval: tuple         # (lo, hi], the I_r window
    q_r: float                     # analytic domination probability


def core_graph(g: Graph, region_center, region_half: float, r_eff: float,
               tau: float, delta: float, C: float, D: float,
               c2: float = 1.0, gamma: float = 1.0) -> CoreResult:
    """Induced subgraph on the region's vertices with weight in I_r.

    I_r = ((r^d)^{(1-delta)/(D C (tau-1))}, (r^d)^{(1+delta)/(tau-1)}] with
    d the window dimension; q_r = exp(-2 c2 (log r^d)^gamma
    ((1+delta)/(tau-1))^gamma) is reported alongside for reference.
    """
    if r_eff <= 1.0:
        raise ValueError("r_eff must exceed 1")
    d = g.vertices.window.d
    rd = r_eff**d
    lo = rd ** ((1.0 - delta) / (D * C * (tau - 1.0)))
    hi = rd ** ((1.0 + delta) / (tau - 1.0))
    center = np.asarray(region_center, dtype=np.float64).reshape(d)
    inside = np.all(np.abs(g.vertices.positions - center[None, :])
                    <= region_half, axis=1)
    w = g.vertices.weights
    sel = inside & (w > lo) & (w <= hi)
    ids = np.flatnonzero(sel)
    sub, _ = induced_subgraph(g, ids)
    q_r = math.exp(-2.0 * c2 * math.log(rd) ** gamma
                   * ((1.0 + delta) / (tau - 1.0)) ** gamma)
    return CoreResult(ids=ids, graph=sub, weight_interval=(lo, hi), q_r=q_r)


# ---------------------------------------------------------------------------
# self-avoiding path counts


def cost_subgraph(g: Graph, f, t0: float) -> Graph:
    """Subgraph on edges of cost <= t0 (stored u < v orientation).

    Intended for symmetric penalties, where the orientation is immaterial;
    asymmetric penalties would make this orientation-dependent.
    """
    w = g.vertices.weights
    cost = g.lengths * np.asarray(f(w[g.edges_u], w[g.edges_v]),
                                  dtype=np.float64)
    keep = cost <= t0
    return Graph(g.vertices, g.edges_u[keep], g.edges_v[keep],
                 g.lengths[keep], spec=g.spec, seed=g.seed)


def saw_path_count(g: Graph, v: int, k: int) -> int:
    """Exact number of k-edge self-avoiding paths starting at v."""
    if k > 8:
        raise ValueError("k is capped at 8 (combinatorial explosion guard)")
    if k < 0:
        raise ValueError("k must be >= 0")

    visited = {v}

    def walk(x: int, left: int) -> int:
        if left == 0:
            return 1
        total = 0
        for u in g.neighbors(x).tolist():
            if u not in visited:
                visited.add(u)
                total += walk(u, left - 1)
                visited.remove(u)
        return total

    return walk(v, k)
