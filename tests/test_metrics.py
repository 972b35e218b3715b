"""Cost-distance searches, explosion diagnostics, and boxing events."""
from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from pplab import metrics
from pplab.cost import (
    monomial_penalty,
    power_sum_penalty,
    product_penalty,
)
from pplab.geometry import Window, build_boxing, locate_subbox, pair_distance
from pplab.metrics import (
    CoreResult,
    ExteriorResult,
    GreedyFailure,
    GreedyPath,
    build_greedy_path,
    check_F2,
    components,
    core_graph,
    cost_search,
    cost_subgraph,
    delta_good_scan,
    distance_matrix,
    exterior_set,
    greedy_bound_report,
    induced_subgraph,
    largest_component,
    n1t,
    realized_path,
    saw_path_count,
    sigma,
    successful,
    truncated_ball,
)
from pplab.models import Girg, Graph, VertexSet, generate
from pplab.rng import PointMass, PolyAtZero

ONE = product_penalty(0.0)  # f == 1: cost reduces to raw length


def _hand_graph(n, edges, weights=None, d=1, side=100.0):
    """Tiny graph builder: edges as (u, v, length) triples."""
    window = Window(d=d, side=side, boundary="hard")
    rng = np.random.default_rng(n * 1000 + len(edges))
    pos = (rng.random((n, d)) - 0.5) * side * 0.9
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    vs = VertexSet(window, pos, w)
    if edges:
        eu = np.array([min(a, b) for a, b, _ in edges], dtype=np.int64)
        ev = np.array([max(a, b) for a, b, _ in edges], dtype=np.int64)
        ls = np.array([l for _, _, l in edges], dtype=np.float64)
    else:
        eu = np.zeros(0, dtype=np.int64)
        ev = np.zeros(0, dtype=np.int64)
        ls = np.zeros(0)
    return Graph(vs, eu, ev, ls)


def _random_small_graph(rng, n_max=9, p_edge=0.45, zero_lengths=False):
    n = int(rng.integers(2, n_max + 1))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p_edge:
                ell = float(rng.random()) * 2.0
                if zero_lengths and rng.random() < 0.15:
                    ell = 0.0
                edges.append((i, j, ell))
    weights = 1.0 + rng.pareto(1.5, n)
    return _hand_graph(n, edges, weights)


def _random_penalty(rng):
    kind = int(rng.integers(3))
    if kind == 0:
        return product_penalty(float(rng.uniform(0.0, 2.0)))
    if kind == 1:
        return monomial_penalty(float(rng.uniform(0.0, 2.0)),
                                float(rng.uniform(0.0, 2.0)))
    return power_sum_penalty(float(rng.uniform(0.1, 2.0)))


def _oracle_distances(g, f, source, direction):
    """Min directed cost over ALL simple paths, by exhaustive DFS.

    Deliberately shares no reasoning with Dijkstra: no priority queue,
    no pruning, every simple path from the source is walked in full.
    """
    w = g.vertices.weights
    adj = {v: [] for v in range(g.n)}
    for e in range(g.m):
        u, v = int(g.edges_u[e]), int(g.edges_v[e])
        ell = float(g.lengths[e])
        c_uv = ell * float(f(w[u], w[v]))
        c_vu = ell * float(f(w[v], w[u]))
        if direction == "inward":
            c_uv, c_vu = c_vu, c_uv
        adj[u].append((v, c_uv))
        adj[v].append((u, c_vu))
    best = [math.inf] * g.n
    on_path = [False] * g.n

    def walk(x, acc):
        if acc < best[x]:
            best[x] = acc
        on_path[x] = True
        for y, c in adj[x]:
            if not on_path[y]:
                walk(y, acc + c)
        on_path[x] = False

    walk(source, 0.0)
    return np.array(best)


# ---------------------------------------------------------------------------
# searches


def test_cost_search_on_a_path():
    g = _hand_graph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0)])
    res = cost_search(g, ONE, 0)
    np.testing.assert_allclose(res.dist, [0.0, 1.0, 3.0, 7.0])
    assert res.settled == [(0, 0.0), (1, 1.0), (2, 3.0), (3, 7.0)]
    assert res.frontier_exhausted
    assert list(res.parent) == [-1, 0, 1, 2]
    assert realized_path(res, 3) == [0, 1, 2, 3]
    assert realized_path(res, 0) == [0]


def test_cost_search_budget_semantics():
    g = _hand_graph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0)])
    res = cost_search(g, ONE, 0, budget=3.0)
    assert [v for v, _ in res.settled] == [0, 1, 2]
    assert math.isinf(res.dist[3])
    assert not res.frontier_exhausted
    # a budget reached exactly still settles the vertex
    res = cost_search(g, ONE, 0, budget=7.0)
    assert [v for v, _ in res.settled] == [0, 1, 2, 3]
    assert res.frontier_exhausted
    res = cost_search(g, ONE, 0, budget=6.999)
    assert not res.frontier_exhausted
    assert realized_path(res, 3) is None


def test_cost_search_max_settled():
    g = _hand_graph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0)])
    res = cost_search(g, ONE, 0, max_settled=2)
    assert len(res.settled) == 2
    assert not res.frontier_exhausted
    assert math.isinf(res.dist[2]) and math.isinf(res.dist[3])


def test_cost_search_disconnected_is_exhausted():
    g = _hand_graph(3, [(0, 1, 1.0)])
    res = cost_search(g, ONE, 0)
    assert res.frontier_exhausted
    assert math.isinf(res.dist[2])
    assert realized_path(res, 2) is None


def test_cost_search_equal_distance_ties_settle_by_id():
    g = _hand_graph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
    res = cost_search(g, ONE, 0)
    assert [v for v, _ in res.settled] == [0, 1, 2, 3]


def test_directionality_of_asymmetric_costs():
    # f(w1, w2) = w1: stepping out of 0 prices weight 2, into 0 weight 3
    f = monomial_penalty(1.0, 0.0)
    g = _hand_graph(2, [(0, 1, 1.0)], weights=[2.0, 3.0])
    assert cost_search(g, f, 0, "outward").dist[1] == pytest.approx(2.0)
    assert cost_search(g, f, 0, "inward").dist[1] == pytest.approx(3.0)
    out = distance_matrix(g, f, [0], "outward")[0]
    inw = distance_matrix(g, f, [0], "inward")[0]
    assert out[1] == pytest.approx(2.0)
    assert inw[1] == pytest.approx(3.0)


def test_cost_search_rejects_bad_arguments():
    g = _hand_graph(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        cost_search(g, ONE, 5)
    with pytest.raises(ValueError):
        cost_search(g, ONE, 0, direction="sideways")


def test_cost_search_target_stops_with_the_full_answer():
    rng = np.random.default_rng(4096)
    stopped = 0
    for trial in range(40):
        g = _random_small_graph(rng, n_max=14, zero_lengths=trial % 2 == 1)
        if trial % 4 == 0:                       # every length tied
            g = g.with_lengths(np.ones(g.m))
        f = _random_penalty(rng)
        source = int(rng.integers(g.n))
        for direction in ("outward", "inward"):
            full = cost_search(g, f, source, direction)
            for t in range(g.n):
                res = cost_search(g, f, source, direction, target=t)
                assert res.dist[t] == full.dist[t]
                assert realized_path(res, t) == realized_path(full, t)
                assert res.settled == full.settled[:len(res.settled)]
                if np.isfinite(full.dist[t]):
                    stopped += 1
                    assert res.settled[-1][0] == t
                    assert not res.frontier_exhausted
                else:
                    assert res.settled == full.settled
                    assert res.frontier_exhausted
    assert stopped > 500
    g = _hand_graph(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        cost_search(g, ONE, 0, target=2)


# sha256 over cost_search's settled list, parent array and exhaustion flag,
# and over truncated_ball / exterior_set, on two 1024-vertex GIRGs (point:1
# ties every length); recorded before the searches shared one heap loop.
SEARCH_DIGEST = "c28be78f03e0d8f9e60c0d66bf4dd4176958de932cf8225391e0ae13e61c9bee"


def test_search_output_digest():
    digest = hashlib.sha256()
    spec = Girg(n=1024, d=2, tau=2.5, alpha=2.0, c=0.5)
    for law in (PointMass(1.0), PolyAtZero(1.0)):
        g = generate(spec, 3, length_law=law)
        for f in (product_penalty(1.0), monomial_penalty(2.0, 0.5),
                  power_sum_penalty(1.0)):
            for direction in ("outward", "inward"):
                for source in (0, 517, 1000):
                    full = cost_search(g, f, source, direction)
                    # a budget equal to a settled distance (bound inclusive)
                    budget = full.settled[g.n // 4][1]
                    for res in (full,
                                cost_search(g, f, source, direction,
                                            budget=budget),
                                cost_search(g, f, source, direction,
                                            max_settled=100)):
                        ids, ds = zip(*res.settled)
                        digest.update(np.array(ids, dtype=np.int64).tobytes())
                        digest.update(np.array(ds, dtype=np.float64).tobytes())
                        digest.update(res.parent.tobytes())
                        digest.update(bytes([res.frontier_exhausted]))
                    ball, flag = truncated_ball(g, f, source, budget, 3.0,
                                                direction)
                    ext = exterior_set(g, f, source, budget, 3.0, direction)
                    digest.update(repr((sorted(ball), flag, float(ext.w_min),
                                        sorted(ext.vertices),
                                        ext.representative)).encode())
    assert digest.hexdigest() == SEARCH_DIGEST


def test_search_matches_exhaustive_path_oracle():
    # independent oracle: full simple-path enumeration, both directions
    rng = np.random.default_rng(2024)
    for trial in range(60):
        g = _random_small_graph(rng)
        f = _random_penalty(rng)
        source = int(rng.integers(g.n))
        for direction in ("outward", "inward"):
            expect = _oracle_distances(g, f, source, direction)
            got = cost_search(g, f, source, direction).dist
            np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12)
            row = distance_matrix(g, f, [source], direction)[0]
            np.testing.assert_allclose(row, expect, rtol=1e-12, atol=1e-12)


def test_distance_matrix_keeps_zero_length_edges():
    # an exactly-zero length is a free hop, not a missing edge
    g = _hand_graph(3, [(0, 1, 0.0), (1, 2, 2.0)], weights=[1.0, 2.0, 1.0])
    f = product_penalty(1.0)
    row = distance_matrix(g, f, [0])[0]
    np.testing.assert_allclose(row, [0.0, 0.0, 4.0])
    res = cost_search(g, f, 0)
    np.testing.assert_allclose(res.dist, row)


def test_distance_matrix_agrees_with_search_on_zero_length_graphs():
    rng = np.random.default_rng(77)
    for _ in range(20):
        g = _random_small_graph(rng, zero_lengths=True)
        f = _random_penalty(rng)
        s = int(rng.integers(g.n))
        a = cost_search(g, f, s).dist
        b = distance_matrix(g, f, [s])[0]
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


def test_distance_matrix_edgeless():
    g = _hand_graph(3, [])
    out = distance_matrix(g, ONE, [1])
    assert out[0, 1] == 0.0
    assert math.isinf(out[0, 0]) and math.isinf(out[0, 2])


# ---------------------------------------------------------------------------
# sigma, N1, truncated balls, exterior sets


def test_sigma_on_a_star():
    g = _hand_graph(4, [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0)])
    assert sigma(g, ONE, 0, 0) == 0.0
    assert sigma(g, ONE, 0, 1) == 1.0
    assert sigma(g, ONE, 0, 2) == 2.0
    assert sigma(g, ONE, 0, 3) == 3.0
    assert math.isinf(sigma(g, ONE, 0, 4))
    with pytest.raises(ValueError):
        sigma(g, ONE, 0, -1)


def test_sigma_is_nondecreasing_in_k():
    rng = np.random.default_rng(5)
    g = _random_small_graph(rng, n_max=8)
    f = _random_penalty(rng)
    vals = [sigma(g, f, 0, k) for k in range(g.n + 2)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_n1t_counts_cheap_incident_edges():
    f = monomial_penalty(1.0, 0.0)
    g = _hand_graph(4, [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 0.0)],
                    weights=[2.0, 1.0, 1.0, 1.0])
    # outward costs from 0: 2, 4, 0
    assert n1t(g, f, 0, 0.0) == 1
    assert n1t(g, f, 0, 2.0) == 2
    assert n1t(g, f, 0, 100.0) == 3
    # into 0 the same edges price the leaf weight instead: 1, 2, 0
    assert n1t(g, f, 0, 1.0, "inward") == 2
    assert n1t(g, f, 1, 1.0) == 1
    with pytest.raises(ValueError):
        n1t(g, f, 0, -1.0)


def test_truncated_ball_blocks_heavy_vertices():
    g = _hand_graph(3, [(0, 1, 1.0), (1, 2, 1.0)], weights=[1.0, 10.0, 1.0])
    ball, flag = truncated_ball(g, ONE, 0, 10.0, 5.0)
    assert ball == {0} and not flag
    ball, flag = truncated_ball(g, ONE, 0, 10.0, 20.0)
    assert ball == {0, 1, 2} and not flag
    ball, flag = truncated_ball(g, ONE, 1, 10.0, 5.0)
    assert ball == set() and flag
    # budget is inclusive
    ball, _ = truncated_ball(g, ONE, 0, 1.0, 20.0)
    assert ball == {0, 1}


def test_truncated_ball_against_restricted_oracle():
    rng = np.random.default_rng(31)
    for _ in range(25):
        g = _random_small_graph(rng)
        f = _random_penalty(rng)
        v = int(rng.integers(g.n))
        cap = float(np.quantile(g.vertices.weights, rng.random()))
        budget = float(rng.random()) * 3.0
        ball, flag = truncated_ball(g, f, v, budget, cap)
        if g.vertices.weights[v] > cap:
            assert flag and ball == set()
            continue
        keep = np.flatnonzero(g.vertices.weights <= cap)
        sub, ids = induced_subgraph(g, keep)
        src = int(np.searchsorted(ids, v))
        d = _oracle_distances(sub, f, src, "outward")
        expect = {int(ids[i]) for i in range(sub.n) if d[i] <= budget}
        assert ball == expect


def test_exterior_set_picks_minimal_weight_ties():
    window = Window(d=1, side=100.0, boundary="hard")
    pos = np.array([[0.0], [1.0], [-2.0], [3.0], [0.5]])
    w = np.array([1.0, 1.0, 50.0, 50.0, 80.0])
    vs = VertexSet(window, pos, w)
    g = Graph(vs,
              np.array([0, 0, 1, 0]), np.array([1, 2, 3, 4]),
              np.array([1.0, 2.0, 0.5, 0.1]))
    res = exterior_set(g, ONE, 0, 2.0, 10.0)
    assert res.w_min == 50.0
    assert res.vertices == frozenset({2, 3})
    # vertex 2 sits 2.0 away from the source, vertex 3 sits 3.0 away
    assert res.representative == 2
    # nothing heavy within reach -> empty exterior
    res = exterior_set(g, ONE, 0, 2.0, 100.0)
    assert math.isinf(res.w_min)
    assert res.vertices == frozenset() and res.representative is None
    # source itself above the cap
    res = exterior_set(g, ONE, 4, 2.0, 10.0)
    assert res.representative is None


def test_exterior_set_against_pair_scan_oracle():
    rng = np.random.default_rng(99)
    for _ in range(25):
        g = _random_small_graph(rng)
        f = _random_penalty(rng)
        v = int(rng.integers(g.n))
        w = g.vertices.weights
        cap = float(np.quantile(w, 0.6))
        budget = float(rng.random()) * 3.0
        res = exterior_set(g, f, v, budget, cap)
        if w[v] > cap:
            assert res.vertices == frozenset()
            continue
        ball, _ = truncated_ball(g, f, v, budget, cap)
        keep = np.flatnonzero(w <= cap)
        sub, ids = induced_subgraph(g, keep)
        dist_sub = _oracle_distances(sub, f, int(np.searchsorted(ids, v)),
                                     "outward")
        reach = {}
        for e in range(g.m):
            for x, y in ((int(g.edges_u[e]), int(g.edges_v[e])),
                         (int(g.edges_v[e]), int(g.edges_u[e]))):
                if x not in ball or w[y] <= cap:
                    continue
                dx = dist_sub[int(np.searchsorted(ids, x))]
                step = float(g.lengths[e]) * float(f(w[x], w[y]))
                if dx + step <= budget:
                    reach[y] = w[y]
        if not reach:
            assert res.vertices == frozenset()
        else:
            assert res.w_min == min(reach.values())
            assert res.vertices == frozenset(
                y for y, wy in reach.items() if wy == res.w_min)


# ---------------------------------------------------------------------------
# components and induced subgraphs


def test_components_edgeless_and_complete():
    g = _hand_graph(4, [])
    assert components(g) == [[0], [1], [2], [3]]
    g = _hand_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
    assert components(g) == [[0, 1, 2]]
    assert largest_component(g) == {0, 1, 2}


def test_largest_component_computed_once_per_edge_set(monkeypatch):
    calls = []
    real = metrics.components
    monkeypatch.setattr(metrics, "components",
                        lambda g: calls.append(g) or real(g))
    g = _hand_graph(6, [(0, 1, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
    h = g.with_lengths([5.0, 6.0, 7.0])
    assert largest_component(g) == largest_component(h) == {2, 3, 4}
    assert calls == [g]
    other = _hand_graph(6, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    assert largest_component(other) == {0, 1, 2, 3} and len(calls) == 2


def test_components_order_largest_then_lowest_id():
    g = _hand_graph(6, [(0, 1, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
    assert components(g) == [[2, 3, 4], [0, 1], [5]]


def test_components_match_bfs_oracle():
    rng = np.random.default_rng(123)
    for _ in range(30):
        g = _random_small_graph(rng, p_edge=0.25)
        seen = set()
        expected = []
        for s in range(g.n):
            if s in seen:
                continue
            comp, stack = {s}, [s]
            while stack:
                x = stack.pop()
                for y in g.neighbors(x).tolist():
                    if y not in comp:
                        comp.add(y)
                        stack.append(y)
            seen |= comp
            expected.append(sorted(comp))
        expected.sort(key=lambda c: (-len(c), c[0]))
        assert components(g) == expected


def test_induced_subgraph_remaps_and_keeps_internal_edges():
    g = _hand_graph(5, [(0, 1, 1.5), (1, 2, 2.5), (3, 4, 0.5)],
                    weights=[1.0, 2.0, 3.0, 4.0, 5.0])
    sub, ids = induced_subgraph(g, [2, 0, 1])
    assert list(ids) == [0, 1, 2]
    assert sub.n == 3 and sub.m == 2
    np.testing.assert_allclose(sub.vertices.weights, [1.0, 2.0, 3.0])
    assert sorted(zip(sub.edges_u, sub.edges_v)) == [(0, 1), (1, 2)]
    # boundary edges are dropped
    sub, ids = induced_subgraph(g, [1, 3])
    assert sub.m == 0 and list(ids) == [1, 3]


def test_induced_subgraph_remaps_origin():
    window = Window(d=1, side=10.0, boundary="hard")
    vs = VertexSet(window, np.zeros((3, 1)), np.ones(3), origin_index=2)
    g = Graph(vs, np.array([0]), np.array([2]), np.array([1.0]))
    sub, _ = induced_subgraph(g, [1, 2])
    assert sub.vertices.origin_index == 1
    sub, _ = induced_subgraph(g, [0, 1])
    assert sub.vertices.origin_index is None


# ---------------------------------------------------------------------------
# boxing events

TAU = 2.5


def _boxing_scene():
    """One vertex at the centre of every sub-box, weight mid-interval."""
    window = Window(d=1, side=1.0e6, boundary="hard")
    b = build_boxing(window, [0.0], M=3.0, C=1.3, D=2.0, delta=0.2)
    positions, weights, slot = [], [], {}
    for a in b.annuli:
        lo, hi = b.leader_weight_interval(a.k, TAU)
        for row in range(a.count):
            slot[(a.k, row)] = len(positions)
            positions.append(float(a.anchors[row][0]) + a.subbox_side / 2.0)
            weights.append(math.sqrt(lo * hi))
    vs = VertexSet(window, np.array(positions)[:, None], np.array(weights))
    return window, b, vs, slot


def _scene_graph(b, vs, slot, edges):
    eu = np.array([min(a, c) for a, c, _ in edges], dtype=np.int64)
    ev = np.array([max(a, c) for a, c, _ in edges], dtype=np.int64)
    ls = np.array([l for _, _, l in edges], dtype=np.float64)
    if not edges:
        eu = np.zeros(0, dtype=np.int64)
        ev = np.zeros(0, dtype=np.int64)
        ls = np.zeros(0)
    return Graph(vs, eu, ev, ls)


def test_delta_good_scan_leaders_and_interval_endpoints():
    window, b, vs, slot = _boxing_scene()
    lo0, hi0 = b.leader_weight_interval(0, TAU)
    pos = vs.positions.copy()
    w = vs.weights.copy()
    # crowd sub-box (0,0): a light extra vertex must not displace the leader
    extra_pos = pos[slot[(0, 0)]] + 1e-3
    pos = np.vstack([pos, extra_pos[None, :]])
    w = np.append(w, 1.0)
    # push the (0,1) leader to the exact endpoints: hi is good, lo is not
    w[slot[(0, 1)]] = hi0
    vs2 = VertexSet(window, pos, w)
    g = _scene_graph(b, vs2, slot, [])
    scan = delta_good_scan(g, b, TAU)
    s0 = scan.scan_for(0)
    assert s0.leader[0] == slot[(0, 0)]
    assert s0.good[0]
    assert s0.leader[1] == slot[(0, 1)] and s0.good[1]  # w == hi: inside
    w[slot[(0, 1)]] = lo0
    g = _scene_graph(b, VertexSet(window, pos, w), slot, [])
    s0 = delta_good_scan(g, b, TAU).scan_for(0)
    assert not s0.good[1]  # w == lo: outside the half-open interval
    assert s0.f1 == (2 * int(s0.good.sum()) >= b.annuli[0].count)


def test_delta_good_scan_empty_subboxes_and_f1():
    window, b, vs, slot = _boxing_scene()
    # remove every annulus-1 vertex: leaders -1, goodness all false
    drop = {v for (k, _), v in slot.items() if k == 1}
    keep = [i for i in range(vs.n) if i not in drop]
    vs2 = VertexSet(window, vs.positions[keep], vs.weights[keep])
    g = _scene_graph(b, vs2, slot, [])
    scan = delta_good_scan(g, b, TAU)
    s1 = scan.scan_for(1)
    assert np.all(s1.leader == -1)
    assert not s1.good.any()
    assert s1.f1 == (b.annuli[1].count == 0)
    # the untouched annuli are fully good
    assert scan.scan_for(0).f1
    assert all(scan.scan_for(k).f1 for k in range(2, b.k_star + 1))
    assert scan.f1_flags == [a.f1 for a in scan.annuli]


def test_delta_good_scan_rejects_window_mismatch():
    _, b, _, _ = _boxing_scene()
    other = Window(d=1, side=500.0, boundary="hard")
    vs = VertexSet(other, np.zeros((1, 1)), np.ones(1))
    g = Graph(vs, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
              np.zeros(0))
    with pytest.raises(ValueError):
        delta_good_scan(g, b, TAU)


def _wire_f2(b, slot, need_at, length=1.0):
    """Edges from every leader of Gamma_k to `need_at[k]` leaders of Gamma_{k+1}."""
    edges = []
    for k in range(b.k_star):
        rows_next = [slot[(k + 1, r)] for r in range(b.annuli[k + 1].count)]
        for r in range(b.annuli[k].count):
            v = slot[(k, r)]
            for u in rows_next[: need_at[k]]:
                edges.append((v, u, length))
    return edges


def test_check_f2_full_and_broken():
    window, b, vs, slot = _boxing_scene()
    eps = 0.9  # thresholds e^{0.1 M C^{k+1}(D-1)} < 2: two neighbours suffice
    for k in range(b.k_star):
        assert 1.0 < b.leader_count_threshold(k + 1, eps) <= 2.0
        assert b.annuli[k + 1].count >= 2
    g = _scene_graph(b, vs, slot, _wire_f2(b, slot, [2] * b.k_star))
    assert check_F2(g, b, TAU, epsilon=eps) == [True] * b.k_star
    # one lone neighbour at k = 2 misses the threshold
    need = [2] * b.k_star
    need[2] = 1
    g = _scene_graph(b, vs, slot, _wire_f2(b, slot, need))
    flags = check_F2(g, b, TAU, epsilon=eps)
    assert flags[2] is False
    assert [f for i, f in enumerate(flags) if i != 2] == [True] * (b.k_star - 1)


def test_check_f2_vacuous_without_good_leaders():
    window, b, vs, slot = _boxing_scene()
    w = vs.weights.copy()
    for r in range(b.annuli[0].count):  # make every annulus-0 leader bad
        w[slot[(0, r)]] = b.leader_weight_interval(0, TAU)[1] * 4.0
    g = _scene_graph(b, VertexSet(window, vs.positions, w), slot, [])
    flags = check_F2(g, b, TAU, epsilon=0.9)
    assert flags[0] is True      # no good leader at 0: nothing to check
    assert flags[1] is False     # good leaders at 1 with no edges at all


def test_greedy_path_follows_min_length_and_prices_hops():
    window, b, vs, slot = _boxing_scene()
    f = monomial_penalty(0.7, 0.2)
    start = slot[(0, 0)]
    lengths = [1.0 + 0.5 * k for k in range(1, b.k_star)]
    edges = [
        (start, slot[(1, 0)], 0.5),          # beaten on length
        (start, slot[(1, 1)], 0.2),
    ] + [(slot[(k, 1 if k == 1 else 0)], slot[(k + 1, 0)], lengths[k - 1])
         for k in range(1, b.k_star)]
    g = _scene_graph(b, vs, slot, edges)
    path = build_greedy_path(g, b, TAU, f, start)
    assert isinstance(path, GreedyPath)
    assert path.vertices == [start, slot[(1, 1)]] + [
        slot[(k, 0)] for k in range(2, b.k_star + 1)]
    assert path.annuli == list(range(b.k_star + 1))
    assert path.hop_lengths == [0.2] + lengths
    w = vs.weights
    expect = [l * float(f(w[a], w[c]))
              for l, a, c in zip(path.hop_lengths, path.vertices,
                                 path.vertices[1:])]
    np.testing.assert_allclose(path.hop_costs, expect)
    assert path.total_cost == pytest.approx(sum(expect))


def test_greedy_path_breaks_length_ties_by_vertex_id():
    window, b, vs, slot = _boxing_scene()
    start = slot[(0, 0)]
    edges = [(start, slot[(1, 1)], 0.4), (start, slot[(1, 0)], 0.4)]
    g = _scene_graph(b, vs, slot, edges)
    out = build_greedy_path(g, b, TAU, ONE, start)
    assert out.vertices[1] == min(slot[(1, 0)], slot[(1, 1)])


def test_greedy_path_failure_names_first_blocked_annulus():
    window, b, vs, slot = _boxing_scene()
    start = slot[(0, 0)]
    edges = [(start, slot[(1, 0)], 0.5),
             (slot[(1, 0)], slot[(2, 1)], 0.5)]
    g = _scene_graph(b, vs, slot, edges)
    out = build_greedy_path(g, b, TAU, ONE, start)
    assert isinstance(out, GreedyFailure)
    assert out.failed_annulus == 3
    assert out.vertices == [start, slot[(1, 0)], slot[(2, 1)]]


def test_greedy_path_from_top_annulus_is_empty():
    window, b, vs, slot = _boxing_scene()
    g = _scene_graph(b, vs, slot, [])
    path = build_greedy_path(g, b, TAU, ONE, slot[(b.k_star, 0)])
    assert path.vertices == [slot[(b.k_star, 0)]]
    assert path.hop_costs == [] and path.total_cost == 0.0


def test_greedy_path_rejects_non_leader_start():
    window, b, vs, slot = _boxing_scene()
    pos = np.vstack([vs.positions, vs.positions[slot[(0, 0)]][None, :] + 1e-4])
    w = np.append(vs.weights, 1.0)
    g = _scene_graph(b, VertexSet(window, pos, w), slot, [])
    with pytest.raises(ValueError):
        build_greedy_path(g, b, TAU, ONE, len(w) - 1)


def test_greedy_bound_report_terms_and_applicability():
    window, b, vs, slot = _boxing_scene()
    f = monomial_penalty(1.0, 0.5)
    start = slot[(0, 0)]
    edges = [(slot[(k, 0)], slot[(k + 1, 0)], 1e-8) for k in range(b.k_star)]
    g = _scene_graph(b, vs, slot, edges)
    path = build_greedy_path(g, b, TAU, f, start)
    law = PolyAtZero(1.0)  # quantile(y) = y
    rep = greedy_bound_report(b, TAU, f, law, path)
    # recompute one term by hand (hop 0, zeta_0 = 1, eps defaults to delta)
    q0 = min(1.0, 1.0 * math.exp(-(1 - b.delta) * b.M * b.C * (b.D - 1)))
    up0 = b.leader_weight_interval(0, TAU)[1]
    up1 = b.leader_weight_interval(1, TAU)[1]
    assert rep.hop_quantiles[0] == pytest.approx(q0)
    assert rep.hop_bounds[0] == pytest.approx(up0 ** 1.0 * up1 ** 0.5 * q0)
    assert rep.applicable       # 1e-8 hops sit below every quantile
    assert rep.satisfied
    assert rep.total_bound == pytest.approx(sum(rep.hop_bounds))
    # one oversized hop voids the comparison
    edges[1] = (slot[(1, 0)], slot[(2, 0)], 50.0)
    g = _scene_graph(b, vs, slot, edges)
    path = build_greedy_path(g, b, TAU, f, start)
    rep = greedy_bound_report(b, TAU, f, law, path)
    assert not rep.applicable and not rep.satisfied


def test_greedy_bound_requires_monomial():
    window, b, vs, slot = _boxing_scene()
    g = _scene_graph(b, vs, slot,
                     [(slot[(k, 0)], slot[(k + 1, 0)], 0.1)
                      for k in range(b.k_star)])
    path = build_greedy_path(g, b, TAU, power_sum_penalty(1.0), slot[(0, 0)])
    with pytest.raises(ValueError):
        greedy_bound_report(b, TAU, power_sum_penalty(1.0), PolyAtZero(1.0),
                            path)


def test_successful_routes():
    window, b, vs, slot = _boxing_scene()
    start = slot[(0, 0)]
    chain = [(slot[(k, 0)], slot[(k + 1, 0)], 1.0) for k in range(b.k_star)]
    # probe: a light vertex wired to the chain start; loner: no edges
    pos = np.vstack([vs.positions,
                     vs.positions[start][None, :] + 1e-4,
                     vs.positions[start][None, :] + 2e-4])
    w = np.append(vs.weights, [1.0, 1.0])
    probe, loner = len(w) - 2, len(w) - 1
    vs2 = VertexSet(window, pos, w)
    g = _scene_graph(b, vs2, slot, chain + [(probe, start, 1.0)])
    assert successful(g, b, TAU, ONE, start)
    assert successful(g, b, TAU, ONE, probe)
    assert not successful(g, b, TAU, ONE, loner)
    # a top-annulus good leader succeeds with no edges at all
    assert successful(g, b, TAU, ONE, slot[(b.k_star, 0)])
    # chain leaders whose greedy run dead-ends do not qualify
    assert not successful(g, b, TAU, ONE, slot[(0, 1)])


def test_successful_requires_f1_at_top():
    window, b, vs, slot = _boxing_scene()
    w = vs.weights.copy()
    for r in range(b.annuli[b.k_star].count):
        w[slot[(b.k_star, r)]] = 1.0  # every top leader falls below good
    g = _scene_graph(b, VertexSet(window, vs.positions, w), slot,
                     [(slot[(k, 0)], slot[(k + 1, 0)], 1.0)
                      for k in range(b.k_star)])
    assert not successful(g, b, TAU, ONE, slot[(0, 0)])


# ---------------------------------------------------------------------------
# core graphs


def test_core_graph_membership_and_q():
    window = Window(d=1, side=100.0, boundary="hard")
    pos = np.array([[0.0], [2.0], [-3.0], [20.0], [1.0]])
    w = np.array([1.0, 2.0, 2.0, 2.0, 50.0])
    vs = VertexSet(window, pos, w)
    g = Graph(vs, np.array([1, 1]), np.array([2, 4]), np.array([1.0, 1.0]))
    res = core_graph(g, [0.0], 10.0, 5.0, tau=TAU, delta=0.2, C=1.3, D=2.0)
    lo = 5.0 ** (0.8 / (2.0 * 1.3 * 1.5))
    hi = 5.0 ** (1.2 / 1.5)
    assert res.weight_interval == pytest.approx((lo, hi))
    # 0 too light, 3 outside the region, 4 too heavy: the core is {1, 2}
    assert list(res.ids) == [1, 2]
    assert res.graph.n == 2 and res.graph.m == 1
    assert res.q_r == pytest.approx(math.exp(-2.0 * math.log(5.0) * 0.8))
    res = core_graph(g, [0.0], 10.0, 5.0, tau=TAU, delta=0.2, C=1.3, D=2.0,
                     c2=2.0, gamma=1.5)
    assert res.q_r == pytest.approx(
        math.exp(-4.0 * math.log(5.0) ** 1.5 * 0.8 ** 1.5))


def test_core_graph_empty_and_validation():
    window = Window(d=1, side=100.0, boundary="hard")
    vs = VertexSet(window, np.array([[0.0], [1.0]]), np.array([5.0, 7.0]))
    g = Graph(vs, np.array([0]), np.array([1]), np.array([1.0]))
    res = core_graph(g, [0.0], 10.0, 1.0001, tau=TAU, delta=0.2, C=1.3, D=2.0)
    assert res.ids.size == 0 and res.graph.n == 0
    with pytest.raises(ValueError):
        core_graph(g, [0.0], 10.0, 1.0, tau=TAU, delta=0.2, C=1.3, D=2.0)


# ---------------------------------------------------------------------------
# cheap subgraphs and self-avoiding paths


def test_cost_subgraph_filters_on_stored_orientation():
    g = _hand_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)],
                    weights=[1.0, 2.0, 1.0, 1.0])
    f = product_penalty(1.0)  # costs: 2, 2, 1
    sub = cost_subgraph(g, f, 1.5)
    assert sub.m == 1
    assert (sub.edges_u[0], sub.edges_v[0]) == (2, 3)
    assert cost_subgraph(g, f, 2.0).m == 3
    assert cost_subgraph(g, f, 0.5).m == 0


def test_saw_path_counts():
    path = _hand_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    assert saw_path_count(path, 0, 0) == 1
    assert saw_path_count(path, 0, 2) == 1
    assert saw_path_count(path, 0, 3) == 1
    assert saw_path_count(path, 1, 2) == 1   # only 1-2-3; 1-0 dead-ends
    star = _hand_graph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
    assert saw_path_count(star, 0, 1) == 3
    assert saw_path_count(star, 0, 2) == 0   # leaves dead-end
    assert saw_path_count(star, 1, 2) == 2   # via the hub to either leaf
    tri = _hand_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
    assert saw_path_count(tri, 0, 2) == 2
    lone = _hand_graph(2, [])
    assert saw_path_count(lone, 0, 1) == 0
    with pytest.raises(ValueError):
        saw_path_count(path, 0, 9)
    with pytest.raises(ValueError):
        saw_path_count(path, 0, -1)


# ---------------------------------------------------------------------------
# structural properties on a generated graph


@pytest.fixture(scope="module")
def girg_graph():
    spec = Girg(n=600, d=2, tau=2.5, alpha=2.0, c=0.5)
    return generate(spec, master_seed=4242, length_law=PolyAtZero(1.0))


def test_triangle_inequality_holds(girg_graph):
    g = girg_graph
    f = monomial_penalty(0.8, 0.3)
    rng = np.random.default_rng(8)
    sources = rng.choice(g.n, size=40, replace=False)
    dmat = distance_matrix(g, f, sources)
    lookup = {int(s): i for i, s in enumerate(sources)}
    for _ in range(1000):
        a, b, c = rng.choice(sources, size=3, replace=False)
        ab = dmat[lookup[int(a)], int(b)]
        bc = dmat[lookup[int(b)], int(c)]
        ac = dmat[lookup[int(a)], int(c)]
        if math.isfinite(ab) and math.isfinite(bc):
            assert ac <= ab + bc + 1e-9


def test_symmetric_penalty_gives_symmetric_distance(girg_graph):
    g = girg_graph
    f = product_penalty(1.0)
    sources = np.arange(30)
    d = distance_matrix(g, f, sources)[:, :30]
    np.testing.assert_allclose(d, d.T, rtol=1e-10, atol=1e-12)
    # and inward == outward when the penalty is symmetric
    d_in = distance_matrix(g, f, sources, "inward")[:, :30]
    np.testing.assert_allclose(d, d_in, rtol=1e-10, atol=1e-12)


def test_distances_grow_with_penalty_exponent(girg_graph):
    g = girg_graph
    sources = np.arange(15)
    d_small = distance_matrix(g, product_penalty(0.5), sources)
    d_big = distance_matrix(g, product_penalty(1.0), sources)
    assert np.all(d_small <= d_big + 1e-12)
    assert np.isfinite(d_small).sum() == np.isfinite(d_big).sum()
