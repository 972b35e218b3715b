"""Quasimetric cost distances, explosion diagnostics, and boxing events.

Distances minimise the sum of directed edge costs L_e * f(W_from, W_to)
along paths; asymmetric penalties make the distance a quasimetric, so every
search carries a direction: "outward" measures from the source, "inward"
measures into it (the same search on the cost-reversed graph).  Every
search is scipy's compiled dijkstra on one view of the graph: its CSR with
each slot's directed cost (_cost_matrix).  cost_search, distance_matrix
and pair_distances differ only in which sources they run and where they
may stop.  _slot_costs is the only code here that applies the penalty:
n1t, the greedy hop costs and cost_subgraph read its prices too.

The boxing half of the module (delta_good_scan, check_F2, greedy paths)
operationalises the annulus events behind the explosive-path
construction; the checks report what holds on a given sample rather than
asserting the asymptotic bounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .domain import check_domains
from .geometry import BoxingSystem, locate_subbox
from .models import Graph


def _vertex_ids(n: int, ids, what: str) -> np.ndarray:
    """ids as int64, refused unless each is a vertex id below n."""
    ids = np.asarray(ids, dtype=np.int64)
    check_domains({what: ids}, **{what: f"[0, {n})"})
    return ids


def _slot_costs(g: Graph, f, direction: str, v=None) -> np.ndarray:
    """Directed cost of each CSR slot (of v's row alone if v is given).

    A slot of row x and neighbour y costs L * f(W_x, W_y) outward and
    L * f(W_y, W_x) inward: paths into the source search the reversed graph.
    """
    if direction not in ("outward", "inward"):
        raise ValueError("direction must be 'outward' or 'inward'")
    indptr, nbr, eid = g.csr
    w = g.vertices.weights
    if v is None:
        w_row = np.repeat(w, np.diff(indptr))
    else:
        _vertex_ids(g.n, v, "vertex")
        row = slice(indptr[v], indptr[v + 1])
        nbr, eid = nbr[row], eid[row]
        w_row = np.full(nbr.size, w[v])
    pair = (w_row, w[nbr]) if direction == "outward" else (w[nbr], w_row)
    ell = g.lengths[eid]
    with np.errstate(over="ignore", invalid="ignore"):
        cost = np.asarray(f(*pair), dtype=np.float64)   # overflow is +inf
        cost *= ell                # in place: no second slot-sized array
    cost[ell == 0.0] = 0.0         # a free hop, not 0 * inf = nan
    return cost


def _cost_matrix(g: Graph, f, direction: str) -> csr_matrix:
    """The graph's CSR with each slot's directed cost, explicit zeros kept."""
    indptr, nbr, _ = g.csr
    return csr_matrix((_slot_costs(g, f, direction), nbr, indptr),
                      shape=(g.n, g.n))


@dataclass
class CostSearchResult:
    source: int
    settled: list                  # [(vertex, distance)] by (distance, id)
    dist: np.ndarray               # per-vertex distance, inf = unreached
    parent: np.ndarray             # search-tree parent, -1 at source/unreached


def cost_search(g: Graph, f, source: int,
                direction: str = "outward") -> CostSearchResult:
    """One full scipy Dijkstra from source over the directed costs.

    The search runs on the same cost matrix as distance_matrix, so its
    distances are those numbers.  settled lists every reached vertex in
    (distance, id) order.  Under exactly tied path costs the parent is
    scipy's choice, so realized_path gives a shortest path, not a
    particular one.
    """
    _vertex_ids(g.n, source, "source")
    dist, pred = _csgraph_dijkstra(_cost_matrix(g, f, direction),
                                   indices=source, return_predecessors=True)
    reached = np.flatnonzero(np.isfinite(dist))
    reached = reached[np.argsort(dist[reached], kind="stable")]
    # scipy marks the source and unreached vertices with -9999
    return CostSearchResult(
        source=source, settled=list(zip(reached.tolist(),
                                        dist[reached].tolist())),
        dist=dist, parent=np.maximum(pred, -1).astype(np.int64))


def realized_path(res: CostSearchResult, target: int):
    """Vertex sequence source -> target in the search tree, or None."""
    _vertex_ids(res.dist.size, target, "target")
    if not np.isfinite(res.dist[target]):
        return None
    path = [target]
    while path[-1] != res.source:
        path.append(int(res.parent[path[-1]]))
    return path[::-1]


def distance_matrix(g: Graph, f, sources) -> np.ndarray:
    """Bulk exact outward distances from each source (rows) to every vertex.

    Each row is cost_search's dist from that source, from the same scipy
    dijkstra on the same cost matrix.  Explicit zero costs stay in the
    matrix, since zero-length edges are real zero-cost hops.  A caller that
    needs only some (source, target) pairs gets the same numbers faster
    from pair_distances.
    """
    return _csgraph_dijkstra(_cost_matrix(g, f, "outward"),
                             indices=_vertex_ids(g.n, sources, "source"))


def pair_distances(g: Graph, f, pairs, direction: str) -> np.ndarray:
    """Each (a, b) pair's cost_search(g, f, a, direction).dist[b], bit for bit.

    A landmark bound (Goldberg and Harrelson, SODA 2005) stops each search
    early.  Two full searches from the hub h, the heaviest vertex (ties to
    the lowest id), give every distance out of h and, on the transposed
    cost matrix, every distance into h.  The transpose is exact: its slot
    (x, y) holds the very cost of arc y -> x, so no slot is priced twice.
    Source a's bound B_a is the largest fl(to_h[a] + from_h[b]) over its
    pairs, times 1 + 4 n 2^-53 for the rounding of two sums of at most n
    terms (infinite: a runs unbounded).  Arcs dearer than every B_a are
    dropped, and a's search stops at B_a.  Exact because scipy's distance
    is the minimum over paths of the left-to-right rounded cost sum,
    whatever the heap order; every arc on a minimising path costs at most
    that distance, which is at most B_a, so the path survives the pruning
    and the limit.
    """
    ab = _vertex_ids(g.n, pairs, "pair vertex").reshape(-1, 2)
    a, b = ab[:, 0], ab[:, 1]
    if a.size == 0:
        return np.zeros(0)
    mat = _cost_matrix(g, f, direction)
    hub = int(np.argmax(g.vertices.weights))
    from_hub = _csgraph_dijkstra(mat, indices=hub)
    to_hub = _csgraph_dijkstra(mat.T.tocsr(), indices=hub)
    sources, at = np.unique(a, return_inverse=True)
    bound = np.full(sources.size, -np.inf)
    np.maximum.at(bound, at, (to_hub[a] + from_hub[b])
                  * (1.0 + 4.0 * g.n * 2.0**-53))
    keep = mat.data <= bound.max()
    kept_before = np.concatenate([[0], np.cumsum(keep)])
    pruned = csr_matrix((mat.data[keep], mat.indices[keep],
                         kept_before[mat.indptr]), shape=mat.shape)
    rows = [_csgraph_dijkstra(pruned, indices=s, limit=limit)
            for s, limit in zip(sources.tolist(), bound.tolist())]
    return np.array([rows[i][t] for i, t in zip(at.tolist(), b.tolist())])


# ---------------------------------------------------------------------------
# explosion diagnostics


def n1t(g: Graph, f, v: int, t: float, direction: str) -> int:
    """Count of incident edges whose one-hop cost from (or into) v is <= t."""
    check_domains(locals(), t="[0, inf]")
    return int(np.count_nonzero(_slot_costs(g, f, direction, v) <= t))


# ---------------------------------------------------------------------------
# components


def components(g: Graph) -> list:
    """Connected components as sorted id lists, largest (then lowest id) first.

    They are scipy's strong components of the CSR, exact because the CSR
    holds each edge both ways, and scipy makes no symmetrized copy."""
    if g.n == 0:
        return []
    indptr, nbr, _ = g.csr
    unit = csr_matrix((np.ones(nbr.size), nbr, indptr), shape=(g.n, g.n))
    _, labels = connected_components(unit, connection="strong")
    order = np.argsort(labels, kind="stable")   # ascending ids within a label
    groups = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    return sorted((c.tolist() for c in groups), key=lambda c: (-len(c), c[0]))


def largest_component(g: Graph) -> np.ndarray:
    """components(g)[0] as a read-only id array, labelled once per edge set."""
    def build(h: Graph) -> np.ndarray:
        ids = np.asarray(components(h)[0])
        ids.flags.writeable = False
        return ids
    return g.edge_cached("largest_component", build)


# ---------------------------------------------------------------------------
# boxing events


@dataclass
class AnnulusScan:
    k: int
    leader: np.ndarray             # per sub-box vertex id, -1 when empty
    good: np.ndarray               # per sub-box delta-goodness
    f1: bool                       # 2 * (# good) >= (# sub-boxes)

    @property
    def good_leaders(self) -> list:
        return [int(v) for v in self.leader[self.good]]


@dataclass
class DeltaGoodScan:
    annuli: list                   # AnnulusScan, aligned with b.annuli

    def scan_for(self, k: int) -> AnnulusScan:
        if not 0 <= k < len(self.annuli):
            raise KeyError(f"no annulus {k}")
        return self.annuli[k]      # annuli are ordered k = 0..k_star

    @property
    def f1_flags(self) -> list:
        return [a.f1 for a in self.annuli]


def delta_good_scan(g: Graph, b: BoxingSystem, tau: float) -> DeltaGoodScan:
    """Per-sub-box leaders and delta-goodness; per-annulus F1.

    One locate_subbox call places every vertex.  Leader = maximal-weight
    vertex of the sub-box, ties to the lowest id (a later vertex displaces
    the leader only with a strictly greater weight); delta-good iff its
    weight lies in the half-open interval (lo, hi] given by the annulus
    scale.  F1 holds when at least half the annulus's sub-boxes are good
    (vacuously on an empty annulus).
    """
    if g.vertices.window != b.window:
        raise ValueError("graph and boxing system use different windows")
    # every annulus's weight bounds first, so a refused tau costs no work
    bounds = [b.leader_weight_interval(ann.k, tau) for ann in b.annuli]
    k_of, row_of = locate_subbox(b, g.vertices.positions)
    w = g.vertices.weights
    # by annulus, then heaviest first; lexsort is stable, so ties keep id order
    order = np.lexsort((-w, k_of))
    out = []
    for ann, (lo, hi) in zip(b.annuli, bounds):
        here = order[k_of[order] == ann.k]
        rows, first = np.unique(row_of[here], return_index=True)
        leader = np.full(ann.count, -1, dtype=np.int64)
        leader[rows] = here[first]
        lw = w[here[first]]
        good = np.zeros(ann.count, dtype=bool)
        good[rows] = (lw > lo) & (lw <= hi)
        f1 = 2 * int(good.sum()) >= ann.count
        out.append(AnnulusScan(k=ann.k, leader=leader, good=good, f1=f1))
    return DeltaGoodScan(annuli=out)


def check_F2(g: Graph, b: BoxingSystem, tau: float, epsilon: float | None = None,
             *, scan: DeltaGoodScan) -> list:
    """Per-annulus F2 flags for k = 0..k_star-1.

    F2 at k: every delta-good leader of Gamma_k has at least
    e^{(1-eps) M C^{k+1} (D-1)} delta-good leader neighbours in
    Gamma_{k+1}; vacuously true with no good leaders at k.
    """
    eps = b.delta if epsilon is None else epsilon
    check_domains(locals(), eps="(0, 1)")
    flags = []
    for k in range(b.k_star):      # annuli are ordered k = 0..k_star
        threshold = b.leader_count_threshold(k + 1, eps)
        next_good = set(scan.annuli[k + 1].good_leaders)
        ok = True
        for c in scan.annuli[k].good_leaders:
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


def build_greedy_path(g: Graph, b: BoxingSystem, tau: float, f,
                      start_leader: int, *, scan: DeltaGoodScan):
    """Hop annulus by annulus to k_star along minimal-L edges to good leaders.

    Hop choice follows the raw edge length L (ties to lowest id); hop costs
    are the directed costs L * f(W_from, W_to) accumulated along the path.
    Returns a GreedyPath, or a GreedyFailure naming the first annulus that
    offers no adjacent delta-good leader (an expected outcome, not an error).
    """
    k0 = next((s.k for s in scan.annuli if start_leader in s.good_leaders),
              None)
    if k0 is None:
        raise ValueError("start_leader is not a delta-good leader of a sub-box")
    vertices = [start_leader]
    annuli = [k0]
    hop_lengths: list = []
    hop_costs: list = []
    cur = start_leader
    for k in range(k0, b.k_star):
        next_good = set(scan.scan_for(k + 1).good_leaders)
        hops = zip(g.lengths[g.incident_edges(cur)].tolist(),
                   g.neighbors(cur).tolist(),
                   _slot_costs(g, f, "outward", cur).tolist())
        # neighbours are distinct, so the cost never breaks a tie
        best = min((h for h in hops if h[1] in next_good), default=None)
        if best is None:
            return GreedyFailure(failed_annulus=k + 1, vertices=vertices)
        ell, nxt, cost = best
        hop_lengths.append(ell)
        hop_costs.append(cost)
        vertices.append(nxt)
        annuli.append(k + 1)
        cur = nxt
    return GreedyPath(vertices=vertices, annuli=annuli,
                      hop_lengths=hop_lengths, hop_costs=hop_costs,
                      total_cost=float(sum(hop_costs)))


@dataclass
class GreedyBoundReport:
    applicable: bool               # every hop length <= its quantile
    total_bound: float
    satisfied: bool                # applicable and total_cost <= total_bound


def greedy_bound_report(b: BoxingSystem, tau: float, f, law,
                        path: GreedyPath,
                        epsilon: float | None = None) -> GreedyBoundReport:
    """Check a completed greedy path against its analytic cost bound.

    The bound is monomial: hop k (from Gamma_k to Gamma_{k+1}) costs at most
    a * (e^{MC^k(1+d)/(tau-1)})^mu (e^{MC^{k+1}(1+d)/(tau-1)})^nu * q_k with
    q_k = F_L^{-1}((k+1) e^{-(1-eps) M C^{k+1} (D-1)}).  The comparison
    only binds ("applicable") when every observed hop length is below its
    quantile.
    """
    terms = getattr(f, "terms", None)
    if terms is None or len(terms) != 1:
        raise ValueError("the greedy cost bound is stated for monomial penalties")
    a, mu, nu = terms[0]
    eps = b.delta if epsilon is None else epsilon
    check_domains(locals(), eps="(0, 1)")
    quantiles, bounds = [], []
    for k in path.annuli[:-1]:
        y = (k + 1.0) * math.exp(-(1.0 - eps) * b.M * b.C ** (k + 1) * (b.D - 1.0))
        q = float(law.quantile(min(1.0, y)))
        up_from = b.leader_weight_interval(k, tau)[1]
        up_to = b.leader_weight_interval(k + 1, tau)[1]
        quantiles.append(q)
        bounds.append(a * up_from**mu * up_to**nu * q)
    applicable = all(l <= q for l, q in zip(path.hop_lengths, quantiles))
    total_bound = float(sum(bounds))
    satisfied = applicable and (
        path.total_cost <= total_bound * (1.0 + 1e-12) or not path.hop_costs)
    return GreedyBoundReport(applicable=applicable, total_bound=total_bound,
                             satisfied=satisfied)


# ---------------------------------------------------------------------------
# self-avoiding path counts


def cost_subgraph(g: Graph, f, t0: float) -> Graph:
    """Subgraph on edges of cost <= t0 (stored u < v orientation).

    Intended for symmetric penalties, where the orientation is immaterial;
    asymmetric penalties would make this orientation-dependent.
    """
    indptr, nbr, eid = g.csr
    up = nbr > np.repeat(np.arange(g.n), np.diff(indptr))  # u -> v slots
    keep = np.zeros(g.m, dtype=bool)
    keep[eid[up]] = _slot_costs(g, f, "outward")[up] <= t0
    return Graph(g.vertices, g.edges_u[keep], g.edges_v[keep],
                 g.lengths[keep], spec=g.spec, seed=g.seed)


# Largest walk bound saw_path_count accepts; about 2 s at 5 M steps/s on K_20
_SAW_STEP_CAP = 10**7


def saw_path_count(g: Graph, v: int, k: int) -> int:
    """Exact number of k-edge self-avoiding paths starting at v.

    The walks from v of at most k edges, sum_j e_v' A^j 1, bound the steps
    of the path walk; above _SAW_STEP_CAP it is refused before it starts.
    """
    check_domains(locals(), k="[0, 8]")    # 8: combinatorial explosion guard
    _vertex_ids(g.n, v, "vertex")
    indptr, nbr, _ = g.csr
    adj = csr_matrix((np.ones(nbr.size), nbr, indptr), shape=(g.n, g.n))
    walks, steps = np.where(np.arange(g.n) == v, 1.0, 0.0), 1.0
    for _ in range(k):
        walks = adj @ walks
        steps += walks.sum()
    if steps > _SAW_STEP_CAP:
        raise ValueError(f"{steps:.3g} walk steps from {v} exceed the cap")

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
