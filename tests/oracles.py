"""Slow references for pplab's fast paths, written without pplab.

References take plain arrays (edge lists, lengths, weights, positions,
anchors, penalty terms), and a model quantity such as a penalty, a kernel
or the pair coins as a callable.  None reads what a fast path builds (the
CSR, slot costs, clause bounds, solver formulas), so a fault there cannot
move a reference with the code; test_api_surface.py checks this.  One
reference per fast path, with the tests that hold the two together (a line
with empty first cells adds a test to the row above):

fast path | reference | tests
metrics._slot_costs, metrics.n1t | step_costs | test_metrics::test_slot_costs_equal_the_edge_order_reference_bit_for_bit
 | | test_metrics::test_n1t_matches_a_count_over_the_search_costs
metrics.cost_search, distance_matrix, pair_distances | heap_search | test_metrics::test_cost_search_matches_the_heap_reference
 | | test_metrics::test_pair_distances_equal_full_searches_on_random_graphs
a distance as the cheapest simple path (any Dijkstra's answer) | simple_path_distances | test_acceptance::test_criterion_01_search_matches_exhaustive_path_enumeration
metrics.components, largest_component | union_find_components | test_metrics::test_components_match_union_find_on_small_graphs
 | | test_metrics::test_components_match_union_find_on_sparse_girgs
geometry.locate_subbox | containing_subbox | test_geometry::test_locate_matches_linear_scan
 | | test_geometry::test_locate_face_points_match_linear_scan
metrics.delta_good_scan (leaders) | subbox_leaders | test_metrics::test_delta_good_scan_matches_per_vertex_oracle
cost.classify (its clause bounds) | phase_thresholds | test_cost::test_critical_beta_is_the_threshold_that_classify_applies
 | | test_cost::test_critical_beta_examples
cost.solve_boxing_params, pplab params | boxing_param_problems | test_cost::test_solve_boxing_params_random_draws
 | | test_cli::test_cmd_params_passes_independent_recheck
 | | test_acceptance::test_criterion_07_boxing_solver_output_passes_independent_recheck
models.connect_prob (power kernel) | power_kernel | test_models::test_connect_prob_matches_the_closed_form
models.Graph.csr | reference_csr | test_models::test_csr_matches_argsort_reference
models._pairwise_pairs | pair_sweep | test_models::test_pairwise_sweep_matches_pair_by_pair_reference
models._cell_pairs (each pair's class) | cell_classes | test_models::test_cell_sampler_decides_each_pair_by_its_class
 | | test_models::test_cell_sampler_coins_every_class_at_bound_one
models._window_distance (both samplers) | window_distance | test_models::test_cell_sampler_decides_each_pair_by_its_class
 | | test_models::test_pairwise_sweep_matches_pair_by_pair_reference
rng.weight_from_uniform, the Hrg weight map | weight_cdf | test_rng::test_weight_ks_statistic
 | | test_models::test_hrg_mapped_weight_tail
EdgeLengthLaw.quantile, sample_from_uniform | length_cdf | test_rng::test_quantile_inequality_exact

Out of scope: perfbench/reference.py keeps its own Dijkstra, leaders,
threshold and boxing flags, which check each timed run's output (a graph
file's text, a sweep CSV) and change only with the benchmark; the Girg cell
sampler's graphs are also held to the all-pairs sweep, still in src
(ROADMAP item 4).
"""
from __future__ import annotations

import heapq
import math

import numpy as np


# ---------------------------------------------------------------------------
# cost distances


def step_costs(edges_u, edges_v, lengths, weights, penalty, direction) -> dict:
    """{(x, y): cost of the search step x -> y}, both ends of every edge.

    Edges are priced in edge order, C_e = L_e * penalty(w_tail, w_head),
    and a zero length is a free hop even where a weight overflowed to +inf.
    Inward the search runs against the direction of travel, so its step
    x -> y is travelled y -> x.
    """
    u, v = np.asarray(edges_u, np.int64), np.asarray(edges_v, np.int64)
    ell, w = np.asarray(lengths, np.float64), np.asarray(weights, np.float64)
    fwd = np.asarray(penalty(w[u], w[v]), np.float64).tolist()
    back = np.asarray(penalty(w[v], w[u]), np.float64).tolist()
    if direction == "inward":
        fwd, back = back, fwd
    costs = {}
    for a, b, length, f_ab, f_ba in zip(u.tolist(), v.tolist(),
                                        ell.tolist(), fwd, back):
        # a zero length is a free hop: 0 * inf would be nan
        c_ab, c_ba = ((length * f_ab, length * f_ba) if length
                      else (0.0, 0.0))
        costs[a, b], costs[b, a] = c_ab, c_ba
    return costs


def _adjacency(n, costs) -> list:
    adj = [[] for _ in range(n)]
    for (x, y), c in costs.items():
        adj[x].append((y, c))
    return adj


def heap_search(n, costs, source) -> tuple:
    """(settled, dist, parent) of Dijkstra over a Python heap.

    Pops by (distance, id), relaxes with a left-to-right float sum and a
    strict improvement, and settles the whole reachable set: settled lists
    (vertex, distance) in settling order, parent is -1 where none is set.
    """
    adj = _adjacency(n, costs)
    dist, parent, settled = [math.inf] * n, [-1] * n, []
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, x = heapq.heappop(heap)
        if d > dist[x]:                 # stale: costs are >= 0
            continue
        settled.append((x, d))
        for y, step in adj[x]:
            if d + step < dist[y]:
                dist[y], parent[y] = d + step, x
                heapq.heappush(heap, (dist[y], y))
    return settled, np.array(dist), np.array(parent, dtype=np.int64)


def simple_path_distances(n, costs, source) -> np.ndarray:
    """Min cost over ALL simple paths from the source, by exhaustive DFS:
    no priority queue, no pruning, every simple path walked in full."""
    adj = _adjacency(n, costs)
    best, on_path = [math.inf] * n, [False] * n

    def walk(x, acc):
        best[x] = min(best[x], acc)
        on_path[x] = True
        for y, c in adj[x]:
            if not on_path[y]:
                walk(y, acc + c)
        on_path[x] = False

    walk(source, 0.0)
    return np.array(best)


def union_find_components(n, edges_u, edges_v) -> list:
    """Vertex lists of the components, largest first, then lowest id."""
    parent = list(range(n))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(np.asarray(edges_u).tolist(), np.asarray(edges_v).tolist()):
        parent[root(a)] = root(b)
    groups = {}
    for x in range(n):
        groups.setdefault(root(x), []).append(x)
    return sorted(groups.values(), key=lambda c: (-len(c), c[0]))


# ---------------------------------------------------------------------------
# boxing, phase thresholds and boxing parameters, from the paper


def containing_subbox(points, annuli) -> tuple:
    """(k, row) of the sub-box that contains each point, -1 where none does.

    ``annuli`` lists (anchors, side) for k = 0, 1, ...; row i of annulus k
    is the half-open cube [anchors[i], anchors[i] + side).  Every extent is
    tested, and the lowest k, then the lowest row, wins.
    """
    xs = np.asarray(points, dtype=np.float64)
    k_of = np.full(len(xs), -1, dtype=np.int64)
    row_of = np.full(len(xs), -1, dtype=np.int64)
    for k, (anchors, side) in enumerate(annuli):
        if len(anchors):
            lo = np.asarray(anchors, dtype=np.float64)[None, :, :]
            inside = np.all((xs[:, None, :] >= lo)
                            & (xs[:, None, :] < lo + side), axis=2)
            first = (k_of < 0) & inside.any(axis=1)
            k_of[first] = k
            row_of[first] = inside[first].argmax(axis=1)
    return k_of, row_of


def subbox_leaders(k_of, row_of, weights, counts) -> list:
    """Per annulus, each sub-box's leader from containing_subbox's (k, row):
    its heaviest vertex, the lowest id on a tie, -1 when it is empty."""
    leader = [[-1] * c for c in counts]
    w = np.asarray(weights).tolist()
    for v, (k, row) in enumerate(zip(np.asarray(k_of).tolist(),
                                     np.asarray(row_of).tolist())):
        if k >= 0 and (leader[k][row] < 0 or w[v] > w[leader[k][row]]):
            leader[k][row] = v
    return [np.array(rows, dtype=np.int64) for rows in leader]


def phase_thresholds(terms, tau) -> tuple:
    """(explosive below, conservative above) in beta, outward, for the
    penalty sum a w1^mu w2^nu over its (a, mu, nu) terms; 1 < tau < 3 and
    alpha > 1.  Explosive when beta+ is below (2 - tau)/nu for every term
    (clause i; nu = 0 counts at every beta when tau <= 2, at none above) or
    below (3 - tau)/deg, deg the largest mu + nu (clause ii); conservative
    when beta- exceeds (3 - tau)/deg and (2 - tau)/nu of some term of
    degree deg (clause iii)."""
    def diverges_below(nu):
        if nu == 0.0:
            return math.inf if tau <= 2.0 else -math.inf
        return (2.0 - tau) / nu

    deg = max(mu + nu for _, mu, nu in terms)
    lengthwise = (3.0 - tau) / deg
    sideways = min(diverges_below(nu) for _, _, nu in terms)
    top = min(diverges_below(nu) for _, mu, nu in terms if mu + nu == deg)
    return max(sideways, lengthwise), max(lengthwise, top)


def boxing_param_problems(tau, mu, nu, beta_plus, delta, C, D, xi, rho) -> list:
    """The boxing inequalities that (delta, C, D, xi, rho) violate, none
    when all hold: C = 1 + delta, D inside the admissible interval, both
    constraint families at 101 points s in [0, 1], the step bound, and xi,
    rho at their closed forms (relative 1e-6) and positive."""
    t1, b, dm, dp = tau - 1.0, beta_plus, 1.0 - delta, 1.0 + delta
    out = [] if C == dp else [f"C = {C!r} is not 1 + delta"]
    lo, hi = 1.0 + (mu + nu) * b * dp / (t1 * dm**2), 2.0 * dm / (t1 * dp)
    if not lo < D < hi:
        out.append(f"D = {D!r} outside ({lo!r}, {hi!r})")
    for s in np.linspace(0.0, 1.0, 101).tolist():
        if not 2.0 * dm / t1 - C**s * D > 0.0:
            out.append(f"box growth at s = {s}")
        if not (mu + nu * C**s) * dp / t1 - (D - 1.0) * C**s * dm**2 / b < 0.0:
            out.append(f"length budget at s = {s}")
    if not dm * (1.0 + C) / t1 - D * C > 0.0:
        out.append("step bound")
    closed = {"xi": -(mu + nu * C) * dp / t1 + dm**2 * C * (D - 1.0) / b,
              "rho": t1 / dm * (dm**2 * (D - 1.0) / b - (mu + C * nu) / t1)}
    for name, got in (("xi", xi), ("rho", rho)):
        if not (got > 0.0 and math.isclose(got, closed[name], rel_tol=1e-6,
                                           abs_tol=1e-12)):
            out.append(f"{name} = {got!r}, closed form {closed[name]!r}")
    return out


# ---------------------------------------------------------------------------
# models: kernels, windows, pair sweeps, the CSR and the laws' closed-form
# cdfs (as the quantile repair evaluates them)


def power_kernel(w_u, w_v, dist, d, alpha, c, scale) -> float:
    """The GIRG/IGIRG kernel in plain floats: 1{dist = 0} at c = 0,
    1{c w_u w_v >= scale dist^d} at alpha = inf, else min(1, c (w_u w_v /
    (scale dist^d))^alpha); scale is n on the Girg torus and 1 in a window."""
    dist_d = dist * dist if d == 2 else dist ** d
    if c == 0:
        return 1.0 if dist == 0 else 0.0
    if math.isinf(alpha):
        return 1.0 if c * (w_u * w_v) >= scale * dist_d else 0.0
    if dist == 0:
        return 1.0
    return min(1.0, c * (w_u * w_v / (scale * dist_d)) ** alpha)


def window_distance(x, y, side, torus):
    """Euclidean distance between the rows of x and y (shape (..., d)) in a
    cube of the given side, each axis wrapped to the nearer image on the
    torus; summed axis by axis as the pair sweep does, and |dx| at d = 1."""
    x, y = np.asarray(x, np.float64), np.asarray(y, np.float64)
    sq = 0.0
    for k in range(x.shape[-1]):
        dx = np.abs(x[..., k] - y[..., k])
        if torus:
            dx = np.minimum(dx, side - dx)
        sq = sq + dx * dx
    return dx if x.shape[-1] == 1 else np.sqrt(sq)


def pair_sweep(positions, weights, side, torus, kernel, coins) -> tuple:
    """Edges (u, v), u < v, in (u, v) order, each pair decided on its own:
    an edge when coins(u * n + v) <= kernel(w_u, w_v, window distance)."""
    pos, w = np.asarray(positions, np.float64), np.asarray(weights, np.float64)
    iu, iv = np.triu_indices(len(w), 1)
    keep = np.zeros(iu.size, dtype=bool)
    for s in range(0, iu.size, 1 << 18):
        u, v = iu[s:s + (1 << 18)], iv[s:s + (1 << 18)]
        dist = window_distance(pos[u], pos[v], side, torus)
        with np.errstate(divide="ignore", over="ignore"):
            keep[s:s + (1 << 18)] = coins(u * len(w) + v) <= kernel(
                w[u], w[v], dist)
    return iu[keep], iv[keep]


def cell_classes(positions, weights, n, d, kernel) -> tuple:
    """(iu, iv, p, level, pbar) of every pair u < v on the unit torus
    [-1/2, 1/2)^d under the cell sampler's class rule.

    Vertex u sits in layer floor(log2 w_u).  Level l cuts each axis into
    2^l cells, down to the finest level with 2^(l d) <= n.  The base level
    of a layer sum s is the finest level whose cell side 2^-l is at least
    the connection radius at weight product 2^(s+2): the kernel is below 1
    just beyond that side (level 0 if no level's is).  From the first sum
    whose base level is at most 1 on, the layers merge into one; no class
    moves, as levels 0 and 1 cut no pair apart.  A pair whose cells at base
    level are neighbours (at most one cell apart on every axis, cyclically)
    is of type I: level -1 and pbar 1.  Any other pair's level is the
    coarsest level where its cells are not neighbours, and its pbar is
    kernel(2^(s+2), 1, 2^-level).  p is the pair's own kernel.
    """
    pos, w = np.asarray(positions, np.float64), np.asarray(weights, np.float64)
    finest = 0
    while 2 ** ((finest + 1) * d) <= n:
        finest += 1
    layer = np.floor(np.log2(w)).astype(np.int64)

    def covers(s, lev):            # side 2^-lev >= radius at 2^(s+2)
        beyond = np.nextafter(2.0 ** -lev, 2.0)
        return float(kernel(2.0 ** (s + 2), 1.0, beyond)) < 1.0

    base = [max([lev for lev in range(finest + 1) if covers(s, lev)],
                default=0) for s in range(2 * int(layer.max()) + 1)]
    top = next((s for s, b in enumerate(base) if b <= 1), None)
    if top is not None:
        layer = np.minimum(layer, top)
    iu, iv = np.triu_indices(n, 1)
    s = layer[iu] + layer[iv]
    pair_base = np.asarray(base)[s]
    level = np.full(iu.size, -1)
    for lev in range(max(base), 1, -1):
        apart = np.zeros(iu.size, dtype=bool)
        for k in range(d):
            cell = np.floor((pos[:, k] + 0.5) * 2**lev).astype(np.int64) % 2**lev
            gap = np.abs(cell[iu] - cell[iv])
            apart |= np.minimum(gap, 2**lev - gap) > 1
        level[apart & (lev <= pair_base)] = lev
    p = np.asarray(kernel(w[iu], w[iv], window_distance(
        pos[iu], pos[iv], 1.0, torus=True)), np.float64)
    pbar = np.asarray(kernel(np.ldexp(1.0, s + 2), 1.0,
                             np.ldexp(1.0, -np.maximum(level, 0))), np.float64)
    pbar[level < 0] = 1.0
    return iu, iv, p, level, pbar


def reference_csr(n, edges_u, edges_v) -> tuple:
    """(indptr, nbr, eid) by a stable argsort: half-edges to smaller
    neighbours (v -> u) precede those to larger ones, each block in (u, v)
    order, so a stable sort by source sorts each row."""
    eu, ev = np.asarray(edges_u, np.int64), np.asarray(edges_v, np.int64)
    src = np.concatenate([ev, eu])
    order = np.argsort(src, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
    return indptr, np.concatenate([eu, ev])[order], order % max(eu.size, 1)


def weight_cdf(x, tau):
    """Pareto weights: P(W <= x) = 1 - x^{-(tau - 1)} for x >= 1."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 1.0, 1.0 - x ** (-(tau - 1.0)), 0.0)


def length_cdf(law, t, **params):
    """cdf at t of the length law named by its class, with its parameters
    as keywords: length_cdf("PolyAtZero", t, beta=0.5)."""
    t = np.asarray(t, dtype=np.float64)
    if law == "PolyAtZero":
        return np.where(t <= 0.0, 0.0, np.minimum(1.0, t ** params["beta"]))
    if law == "Exponential":
        return np.where(t <= 0.0, 0.0,
                        -np.expm1(-params["rate"] * np.maximum(t, 0.0)))
    if law == "PointMass":
        return np.where(t >= params["value"], 1.0, 0.0)
    assert law == "DoubleExpFlat", law
    with np.errstate(over="ignore", divide="ignore"):
        inner = np.exp(params["c2"] / np.where(t > 0.0, t, np.inf)
                       ** params["eta"])
        val = np.exp(-params["c1"] * inner)
    return np.where(t <= 0.0, 0.0, np.where(t >= 1.0, 1.0, val))
