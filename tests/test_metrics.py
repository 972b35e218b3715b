"""Cost-distance searches, explosion diagnostics, and boxing events."""
from __future__ import annotations

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from pplab import metrics, models
from pplab.cli import parse_penalty
from pplab.cost import (
    MaxPenalty,
    monomial_penalty,
    power_sum_penalty,
    product_penalty,
    solve_boxing_params,
)
from pplab.geometry import Window, build_boxing
from pplab.metrics import (
    GreedyFailure,
    GreedyPath,
    build_greedy_path,
    check_F2,
    components,
    cost_search,
    cost_subgraph,
    delta_good_scan,
    distance_matrix,
    greedy_bound_report,
    largest_component,
    n1t,
    pair_distances,
    realized_path,
    saw_path_count,
)
from pplab.models import Girg, Graph, IgirgWindow, VertexSet, generate, relength
from pplab.rng import PointMass, PolyAtZero

ONE = product_penalty(0.0)  # f == 1: cost reduces to raw length


def _hand_graph(n, edges, weights=None, d=1, side=100.0):
    """Tiny graph builder: edges as (u, v, length) triples."""
    window = Window(d=d, side=side, boundary="hard")
    rng = np.random.default_rng(n * 1000 + len(edges))
    pos = (rng.random((n, d)) - 0.5) * side * 0.9
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    return _graph(VertexSet(window, pos, w), edges)


def _graph(vs, edges):
    """Graph on vs with edges given as (u, v, length) triples."""
    return Graph(vs, [min(a, b) for a, b, _ in edges],
                 [max(a, b) for a, b, _ in edges], [l for *_, l in edges])


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


def _costs(g, f, direction="outward"):
    """{(x, y): the oracle's cost of the search step x -> y} on g."""
    return oracles.step_costs(g.edges_u, g.edges_v, g.lengths,
                              g.vertices.weights, f, direction)


# ---------------------------------------------------------------------------
# slot costs and vertex ids


def test_slot_costs_equal_the_edge_order_reference_bit_for_bit():
    rng = np.random.default_rng(1701)
    graphs = [_random_small_graph(rng, n_max=14, zero_lengths=k % 2 == 1)
              for k in range(60)]
    graphs.append(generate(Girg(n=2**12, d=2, tau=2.5, alpha=2.0, c=0.5), 17,
                           length_law=PolyAtZero(1.0)))
    for k, g in enumerate(graphs):
        f = (MaxPenalty(float(rng.uniform(0.1, 2.0))) if k % 4 == 3
             else _random_penalty(rng))
        indptr, nbr, _ = g.csr
        rows = np.repeat(np.arange(g.n), np.diff(indptr)).tolist()
        for direction in ("outward", "inward"):
            cost = metrics._slot_costs(g, f, direction)
            steps = _costs(g, f, direction)
            ref = np.array([steps[x, y] for x, y in zip(rows, nbr.tolist())],
                           dtype=np.float64)
            assert cost.tobytes() == ref.tobytes(), (k, direction)
    # a penalty that hands back one of its inputs as is
    for k, g in enumerate(graphs[:20] + graphs[-1:]):
        for f in (lambda x, y: x, lambda x, y: y):
            for direction in ("outward", "inward"):
                steps = _costs(g, f, direction)
                indptr, nbr, _ = g.csr
                rows = np.repeat(np.arange(g.n), np.diff(indptr)).tolist()
                ref = [steps[x, y] for x, y in zip(rows, nbr.tolist())]
                assert metrics._slot_costs(g, f, direction).tolist() == ref, k
    assert sum(int((g.lengths == 0).any()) for g in graphs) > 10


def test_cost_matrix_prices_the_slots_in_bounded_memory():
    # on the query workload's graph, at most four slot-sized float arrays
    # are alive at once: the penalty's two weight inputs, its output and
    # one factor (the lengths reuse an input's buffer); 8 KiB covers the
    # call's small objects
    g = generate(Girg(n=2**12, d=2, tau=2.5, alpha=2.0, c=0.5), 1,
                 length_law=PolyAtZero(1.0))
    slots = g.csr[1].size
    tracemalloc.start()
    try:
        for spec in ("prod:1", "mono:2,0.5"):
            for direction in ("outward", "inward"):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                metrics._cost_matrix(g, parse_penalty(spec), direction)
                peak = tracemalloc.get_traced_memory()[1] - before
                assert peak <= 32 * slots + 8192, (spec, direction,
                                                    peak / slots)
    finally:
        tracemalloc.stop()


def _girg200():
    return generate(Girg(n=200, d=2, tau=2.5, alpha=2.0, c=0.5), 3,
                    length_law=PolyAtZero(1.0))


@pytest.mark.parametrize("call", [
    lambda g, x: cost_search(g, ONE, x),
    lambda g, x: distance_matrix(g, ONE, [0, x]),
    lambda g, x: pair_distances(g, ONE, [(0, 1), (x, 5)], "outward"),
    lambda g, x: pair_distances(g, ONE, [(5, x)], "outward"),
    lambda g, x: n1t(g, ONE, x, 100.0, "outward"),
    lambda g, x: n1t(g, ONE, x, 100.0, "inward"),
    lambda g, x: saw_path_count(g, x, 2),
    lambda g, x: realized_path(cost_search(g, ONE, 0), x),
], ids=["cost_search", "distance_matrix", "pair_distances_source",
        "pair_distances_target", "n1t", "n1t_inward", "saw_path_count",
        "realized_path"])
def test_entry_points_refuse_vertex_ids_outside_the_graph(call):
    g = _girg200()
    call(g, g.n - 1)                     # the last vertex is accepted
    for bad in (-1, g.n):
        with pytest.raises(ValueError, match=r"^(vertex|source|target|pair "
                           rf"vertex) must lie in \[0, {g.n}\)$"):
            call(g, bad)


# ---------------------------------------------------------------------------
# searches


def test_directionality_of_asymmetric_costs():
    # f(w1, w2) = w1: stepping out of 0 prices weight 2, into 0 weight 3
    f = monomial_penalty(1.0, 0.0)
    g = _hand_graph(2, [(0, 1, 1.0)], weights=[2.0, 3.0])
    assert cost_search(g, f, 0, "outward").dist[1] == pytest.approx(2.0)
    assert cost_search(g, f, 0, "inward").dist[1] == pytest.approx(3.0)
    out = distance_matrix(g, f, [0])[0]
    inw = oracles.heap_search(2, _costs(g, f, "inward"), 0)[1]
    assert out[1] == pytest.approx(2.0)
    assert inw[1] == pytest.approx(3.0)


def test_cost_search_rejects_bad_arguments():
    g = _hand_graph(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError, match="^source must lie"):
        cost_search(g, ONE, 5)
    with pytest.raises(ValueError, match="^direction must be"):
        cost_search(g, ONE, 0, direction="sideways")


def test_cost_search_matches_the_heap_reference():
    rng = np.random.default_rng(1501)
    # continuous lengths: no two paths tie, so every output is the heap's
    for _ in range(80):
        g = _random_small_graph(rng, n_max=14)
        f = _random_penalty(rng)
        source = int(rng.integers(g.n))
        for direction in ("outward", "inward"):
            res = cost_search(g, f, source, direction)
            settled, dist, parent = oracles.heap_search(
                g.n, _costs(g, f, direction), source)
            assert np.array_equal(res.dist, dist)
            assert res.settled == settled
            assert np.array_equal(res.parent, parent)
    # zero and tied lengths: equal distances, and any tree of shortest paths
    tied = unreached = 0
    for trial in range(80):
        g = _random_small_graph(rng, n_max=14, zero_lengths=True)
        if trial % 2 == 0:
            g = g.with_lengths(np.full(g.m, float(trial % 4 == 0)))
        f = ONE if trial % 3 else _random_penalty(rng)
        source = int(rng.integers(g.n))
        for direction in ("outward", "inward"):
            res = cost_search(g, f, source, direction)
            cost = _costs(g, f, direction)
            settled, dist, _ = oracles.heap_search(g.n, cost, source)
            assert np.array_equal(res.dist, dist)
            if direction == "outward":
                assert np.array_equal(distance_matrix(g, f, [source])[0], dist)
            assert res.settled == sorted(settled, key=lambda s: (s[1], s[0]))
            for t in range(g.n):
                path = realized_path(res, t)
                if path is None:
                    assert math.isinf(res.dist[t])
                    unreached += 1
                    continue
                acc = 0.0
                for x, y in zip(path, path[1:]):
                    acc += cost[x, y]
                assert acc == res.dist[t], (path, acc, res.dist[t])
                tight = [u for (u, y), c in cost.items()
                         if y == t and res.dist[u] + c == res.dist[t]]
                tied += len(tight) > 1
    assert tied > 100                    # the loop really met tied paths
    assert unreached > 20                # and vertices that no path reaches


# sha256 over the full cost_search's settled list and parent array on two
# 1024-vertex GIRGs, from three sources per (law, penalty, direction).
# point:1 ties every length, but the Pareto weights keep the costs apart.
# The digest was recorded with the heap search (oracles.heap_search's
# loop), so it also holds scipy's search to the heap's on these graphs.
SEARCH_DIGEST = "4f048a2a03c1f3a1ee04e2752eb5bfc9b5404ac1053365b31101d3ba85d60f0b"


def test_search_output_digest():
    digest = hashlib.sha256()
    spec = Girg(n=1024, d=2, tau=2.5, alpha=2.0, c=0.5)
    for law in (PointMass(1.0), PolyAtZero(1.0)):
        g = generate(spec, 3, length_law=law)
        for f in (product_penalty(1.0), monomial_penalty(2.0, 0.5),
                  power_sum_penalty(1.0)):
            for direction in ("outward", "inward"):
                for source in (0, 517, 1000):
                    res = cost_search(g, f, source, direction)
                    ids, ds = zip(*res.settled)
                    digest.update(np.array(ids, dtype=np.int64).tobytes())
                    digest.update(np.array(ds, dtype=np.float64).tobytes())
                    digest.update(res.parent.tobytes())
    assert digest.hexdigest() == SEARCH_DIGEST


@pytest.mark.filterwarnings("error")
def test_distance_matrix_keeps_zero_length_edges():
    # an exactly-zero length is a free hop, not a missing edge, also at a
    # weight that overflowed to +inf
    g = _hand_graph(4, [(0, 1, 0.0), (1, 2, 2.0), (2, 3, 0.0)],
                    weights=[1.0, 2.0, 1.0, math.inf])
    f = product_penalty(1.0)
    row = distance_matrix(g, f, [0])[0]
    np.testing.assert_allclose(row, [0.0, 0.0, 4.0, 4.0])
    res = cost_search(g, f, 0)
    np.testing.assert_allclose(res.dist, row)
    assert oracles.heap_search(4, _costs(g, f), 0)[1].tolist() == row.tolist()


def test_distance_matrix_edgeless():
    g = _hand_graph(3, [])
    out = distance_matrix(g, ONE, [1])
    assert out[0, 1] == 0.0
    assert math.isinf(out[0, 0]) and math.isinf(out[0, 2])


# ---------------------------------------------------------------------------
# pair distances: hub-bounded, pruned searches against the full ones


def _assert_pair_distances_exact(g, f, pairs, direction):
    """pair_distances == the full scipy search == the heap search, bit for bit."""
    got = pair_distances(g, f, pairs, direction)
    full = [cost_search(g, f, a, direction).dist[b] for a, b in pairs]
    cost = _costs(g, f, direction)
    heap = [oracles.heap_search(g.n, cost, a)[1][b] for a, b in pairs]
    assert np.array_equal(got, full), (direction, pairs, got, full)
    assert np.array_equal(got, heap), (direction, pairs, got, heap)


def _repeating_pairs(rng, n, count):
    """(source, target) pairs drawn from a few sources, so sources repeat."""
    sources = rng.integers(n, size=max(1, count // 3))
    return [(int(rng.choice(sources)), int(rng.integers(n)))
            for _ in range(count)]


def test_pair_distances_equal_full_searches_on_random_graphs():
    rng = np.random.default_rng(1101)
    # strongly asymmetric penalties, heavier on either end of a hop
    lopsided = [monomial_penalty(0.0, 3.0), monomial_penalty(3.0, 0.0),
                monomial_penalty(0.5, 2.0)]
    for trial in range(120):
        g = _random_small_graph(rng, zero_lengths=trial % 2 == 1)
        f = lopsided[trial % 3] if trial % 4 < 2 else _random_penalty(rng)
        pairs = _repeating_pairs(rng, g.n, 8)
        for direction in ("outward", "inward"):
            _assert_pair_distances_exact(g, f, pairs, direction)


def test_pair_distances_equal_full_searches_on_generated_graphs(monkeypatch):
    # a symmetric penalty runs one hub search, and at beta = 1 finished
    # sources tighten some later source's limit below its hub bound; the
    # asymmetric one runs two and keeps every hub bound
    rng = np.random.default_rng(1102)
    base = generate(Girg(n=400, d=2, tau=2.5, alpha=2.0, c=0.5), 1102)
    calls = []
    real = metrics._csgraph_dijkstra
    monkeypatch.setattr(metrics, "_csgraph_dijkstra", lambda *args, **kw:
                        calls.append(kw) or real(*args, **kw))
    hub = int(np.argmax(base.vertices.weights))
    reverse = {"outward": "inward", "inward": "outward"}
    for beta in (0.1, 1.0):
        g = relength(base, PolyAtZero(beta))
        for f, symmetric in ((product_penalty(1.0), True),
                             (power_sum_penalty(1.0), True),
                             (MaxPenalty(2.0), True),
                             (parse_penalty("poly:2,1,1"), True),
                             (monomial_penalty(0.2, 1.5), False),
                             (parse_penalty("poly:3,1,1"), False)):
            pairs = _repeating_pairs(rng, g.n, 24)
            for direction in ("outward", "inward"):
                calls.clear()
                got = pair_distances(g, f, pairs, direction)
                limits = {kw["indices"]: kw["limit"] for kw in calls
                          if "limit" in kw}
                assert len(calls) - len(limits) == (1 if symmetric else 2)
                want = [cost_search(g, f, a, direction).dist[b]
                        for a, b in pairs]
                assert np.array_equal(got, want)
                from_hub = cost_search(g, f, hub, direction).dist
                to_hub = cost_search(g, f, hub, reverse[direction]).dist
                hub_bound = dict.fromkeys(limits, -math.inf)
                for a, b in pairs:
                    hub_bound[a] = max(hub_bound[a], (to_hub[a] + from_hub[b])
                                       * (1.0 + 4.0 * g.n * 2.0**-53))
                tighter = [s for s in limits if limits[s] < hub_bound[s]]
                if beta == 1.0 or not symmetric:
                    assert bool(tighter) == symmetric


def test_pair_distances_price_the_slots_once(monkeypatch):
    # the reverse search runs on the transpose: the other direction's cost
    # matrix, bit for bit, with no slot priced again
    base = generate(Girg(n=400, d=2, tau=2.5, alpha=2.0, c=0.5), 1104)
    g = relength(base, PolyAtZero(0.5))
    f = monomial_penalty(0.2, 1.5)

    def assert_same_bytes(got, want):
        for part in ("indptr", "indices", "data"):
            assert getattr(got, part).tobytes() == \
                getattr(want, part).tobytes()

    for direction, reverse in (("outward", "inward"), ("inward", "outward")):
        assert_same_bytes(metrics._cost_matrix(g, f, direction).T.tocsr(),
                          metrics._cost_matrix(g, f, reverse))
    # a penalty the symmetry rule admits runs one hub search: its cost
    # matrix must be its own transpose, bit for bit, either way
    specs = ["prod:1", "prod:0.5", "mono:1,1", "mono:0.2,1.5", "sum:1",
             "max:2", "poly:3,0.5,0.5", "poly:2,1,1", "poly:0.5,1,0;0.5,0,1",
             "poly:1,2,0.5;1,0.5,2;1,1,1", "poly:1,1,1;1,2,0.5;1,0.5,2"]
    admitted = [s for s in specs if metrics._symmetric(parse_penalty(s))]
    assert admitted == ["prod:1", "prod:0.5", "mono:1,1", "sum:1", "max:2",
                        "poly:2,1,1", "poly:0.5,1,0;0.5,0,1",
                        "poly:1,2,0.5;1,0.5,2;1,1,1"]
    for spec in admitted:
        for direction in ("outward", "inward"):
            mat = metrics._cost_matrix(g, parse_penalty(spec), direction)
            assert_same_bytes(mat.T.tocsr(), mat)
    calls = []
    real = metrics._slot_costs
    monkeypatch.setattr(metrics, "_slot_costs",
                        lambda *args: calls.append(args) or real(*args))
    pair_distances(g, f, [(0, 1), (2, 3)], "inward")
    assert len(calls) == 1


def test_pair_distances_on_zero_and_tied_lengths():
    rng = np.random.default_rng(1103)
    for ell in (0.0, 1.0):
        for _ in range(20):
            g = _random_small_graph(rng)
            g = g.with_lengths(np.full(g.m, ell))
            pairs = _repeating_pairs(rng, g.n, 6)
            for f in (ONE, product_penalty(1.0), monomial_penalty(0.0, 2.0)):
                for direction in ("outward", "inward"):
                    _assert_pair_distances_exact(g, f, pairs, direction)


def test_pair_distances_with_the_hub_outside_the_pairs_component():
    # the heaviest vertex, 5, shares a component only with 4: sources 0-3
    # get infinite bounds and run unbounded, source 4 a finite one
    g = _hand_graph(6, [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0), (0, 3, 4.0),
                        (4, 5, 1.0)], weights=[1.0, 2.0, 1.0, 3.0, 1.0, 9.0])
    f = monomial_penalty(1.0, 0.5)
    pairs = [(0, 3), (3, 0), (1, 3), (0, 0), (0, 4), (4, 5), (4, 0)]
    for direction in ("outward", "inward"):
        _assert_pair_distances_exact(g, f, pairs, direction)
    got = pair_distances(g, f, pairs, "outward")
    assert got[3] == 0.0 and math.isinf(got[4]) and math.isinf(got[6])
    assert pair_distances(g, f, [], "outward").shape == (0,)


# ---------------------------------------------------------------------------
# one-hop counts


def test_n1t_counts_cheap_incident_edges():
    f = monomial_penalty(1.0, 0.0)
    g = _hand_graph(4, [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 0.0)],
                    weights=[2.0, 1.0, 1.0, 1.0])
    # outward costs from 0: 2, 4, 0
    assert n1t(g, f, 0, 0.0, "outward") == 1
    assert n1t(g, f, 0, 2.0, "outward") == 2
    assert n1t(g, f, 0, 100.0, "outward") == 3
    # into 0 the same edges price the leaf weight instead: 1, 2, 0
    assert n1t(g, f, 0, 1.0, "inward") == 2
    assert n1t(g, f, 1, 1.0, "outward") == 1
    with pytest.raises(ValueError, match="^t must be non-negative"):
        n1t(g, f, 0, -1.0, "outward")
    with pytest.raises(ValueError, match="^t must be non-negative"):
        n1t(g, f, 0, math.nan, "outward")
    with pytest.raises(ValueError, match="^direction must be"):
        n1t(g, f, 0, 1.0, "sideways")


def test_n1t_matches_a_count_over_the_search_costs():
    # n1t prices only v's edges, the oracle every edge both ways
    rng = np.random.default_rng(1212)
    graphs = [_random_small_graph(rng, n_max=12) for _ in range(30)]
    graphs.append(generate(Girg(n=400, d=1, tau=2.5, alpha=2.0, c=1.0), 8,
                           length_law=PolyAtZero(1.0)))
    ties = 0
    for g in graphs:
        f = _random_penalty(rng)
        for direction in ("outward", "inward"):
            cost = _costs(g, f, direction)
            for v in rng.choice(g.n, size=min(g.n, 8), replace=False):
                mine = np.array([c for (x, _), c in cost.items() if x == v])
                # thresholds at an edge's exact cost tie with it
                for t in [0.0, 1.0, *mine[:3].tolist()]:
                    ties += int(t in mine)
                    assert n1t(g, f, v, t, direction) == \
                        np.count_nonzero(mine <= t)
    assert ties > 100


# ---------------------------------------------------------------------------
# components


def test_components_edgeless_and_complete():
    g = _hand_graph(4, [])
    assert components(g) == [[0], [1], [2], [3]]
    g = _hand_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
    assert components(g) == [[0, 1, 2]]
    assert largest_component(g).tolist() == [0, 1, 2]


def test_largest_component_computed_once_per_edge_set(monkeypatch):
    calls = []
    real = metrics.components
    monkeypatch.setattr(metrics, "components",
                        lambda g: calls.append(g) or real(g))
    g = _hand_graph(6, [(0, 1, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
    h = g.with_lengths([5.0, 6.0, 7.0])
    assert largest_component(g).tolist() == largest_component(h).tolist() \
        == [2, 3, 4]
    assert calls == [g]
    other = _hand_graph(6, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    assert largest_component(other).tolist() == [0, 1, 2, 3]
    assert len(calls) == 2


def test_components_order_largest_then_lowest_id():
    g = _hand_graph(6, [(0, 1, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
    assert components(g) == [[2, 3, 4], [0, 1], [5]]


@pytest.mark.parametrize("edges, expected", [
    ([(1, 2), (2, 3), (0, 5), (5, 6)], [[0, 5, 6], [1, 2, 3], [4]]),
    ([(3, 6), (4, 6), (1, 5), (2, 5)], [[1, 2, 5], [3, 4, 6], [0]]),
])
def test_tied_largest_components_put_the_lowest_id_first(edges, expected):
    g = _hand_graph(7, [(u, v, 1.0) for u, v in edges])
    assert components(g) == expected
    assert largest_component(g).tolist() == expected[0]
    assert not largest_component(g).flags.writeable


@pytest.mark.parametrize("seed", [0, 3])
def test_components_match_union_find_on_sparse_girgs(seed):
    # c = 0.003 leaves 500 to 1,100 components at n = 2^12
    g = generate(Girg(n=2**12, d=2, tau=2.5, alpha=2.0, c=0.003), seed)
    expected = oracles.union_find_components(g.n, g.edges_u, g.edges_v)
    assert len(expected) > 500
    assert components(g) == expected
    assert largest_component(g).tolist() == expected[0]


def test_components_match_union_find_on_small_graphs():
    rng = np.random.default_rng(123)
    for _ in range(30):
        g = _random_small_graph(rng, p_edge=0.25)
        assert components(g) == oracles.union_find_components(
            g.n, g.edges_u, g.edges_v)


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
    g = _graph(vs2, [])
    scan = delta_good_scan(g, b, TAU)
    s0 = scan.scan_for(0)
    assert s0.leader[0] == slot[(0, 0)]
    assert s0.good[0]
    assert s0.leader[1] == slot[(0, 1)] and s0.good[1]  # w == hi: inside
    w[slot[(0, 1)]] = lo0
    g = _graph(VertexSet(window, pos, w), [])
    s0 = delta_good_scan(g, b, TAU).scan_for(0)
    assert not s0.good[1]  # w == lo: outside the half-open interval
    assert s0.f1 == (2 * int(s0.good.sum()) >= b.annuli[0].count)


def test_delta_good_scan_empty_subboxes_and_f1():
    window, b, vs, slot = _boxing_scene()
    # remove every annulus-1 vertex: leaders -1, goodness all false
    drop = {v for (k, _), v in slot.items() if k == 1}
    keep = [i for i in range(vs.n) if i not in drop]
    vs2 = VertexSet(window, vs.positions[keep], vs.weights[keep])
    g = _graph(vs2, [])
    scan = delta_good_scan(g, b, TAU)
    s1 = scan.scan_for(1)
    assert np.all(s1.leader == -1)
    assert not s1.good.any()
    assert s1.f1 == (b.annuli[1].count == 0)
    # the untouched annuli are fully good
    assert scan.scan_for(0).f1
    assert all(scan.scan_for(k).f1 for k in range(2, b.k_star + 1))
    assert scan.f1_flags == [a.f1 for a in scan.annuli]
    for k in (-1, b.k_star + 1):
        with pytest.raises(KeyError):
            scan.scan_for(k)


def test_delta_good_scan_rejects_window_mismatch():
    _, b, _, _ = _boxing_scene()
    other = Window(d=1, side=500.0, boundary="hard")
    vs = VertexSet(other, np.zeros((1, 1)), np.ones(1))
    g = Graph(vs, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
              np.zeros(0))
    with pytest.raises(ValueError, match="different windows"):
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
    g = _graph(vs, _wire_f2(b, slot, [2] * b.k_star))
    assert check_F2(g, b, TAU, epsilon=eps,
                    scan=delta_good_scan(g, b, TAU)) == [True] * b.k_star
    # one lone neighbour at k = 2 misses the threshold
    need = [2] * b.k_star
    need[2] = 1
    g = _graph(vs, _wire_f2(b, slot, need))
    flags = check_F2(g, b, TAU, epsilon=eps,
                     scan=delta_good_scan(g, b, TAU))
    assert flags[2] is False
    assert [f for i, f in enumerate(flags) if i != 2] == [True] * (b.k_star - 1)


def test_check_f2_vacuous_without_good_leaders():
    window, b, vs, slot = _boxing_scene()
    w = vs.weights.copy()
    for r in range(b.annuli[0].count):  # make every annulus-0 leader bad
        w[slot[(0, r)]] = b.leader_weight_interval(0, TAU)[1] * 4.0
    g = _graph(VertexSet(window, vs.positions, w), [])
    flags = check_F2(g, b, TAU, epsilon=0.9,
                     scan=delta_good_scan(g, b, TAU))
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
    g = _graph(vs, edges)
    path = build_greedy_path(g, b, TAU, f, start,
                             scan=delta_good_scan(g, b, TAU))
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
    g = _graph(vs, edges)
    out = build_greedy_path(g, b, TAU, ONE, start,
                            scan=delta_good_scan(g, b, TAU))
    assert out.vertices[1] == min(slot[(1, 0)], slot[(1, 1)])


def test_greedy_path_failure_names_first_blocked_annulus():
    window, b, vs, slot = _boxing_scene()
    start = slot[(0, 0)]
    edges = [(start, slot[(1, 0)], 0.5),
             (slot[(1, 0)], slot[(2, 1)], 0.5)]
    g = _graph(vs, edges)
    out = build_greedy_path(g, b, TAU, ONE, start,
                            scan=delta_good_scan(g, b, TAU))
    assert isinstance(out, GreedyFailure)
    assert out.failed_annulus == 3
    assert out.vertices == [start, slot[(1, 0)], slot[(2, 1)]]


def test_greedy_path_from_top_annulus_is_empty():
    window, b, vs, slot = _boxing_scene()
    g = _graph(vs, [])
    path = build_greedy_path(g, b, TAU, ONE, slot[(b.k_star, 0)],
                             scan=delta_good_scan(g, b, TAU))
    assert path.vertices == [slot[(b.k_star, 0)]]
    assert path.hop_costs == [] and path.total_cost == 0.0


def test_greedy_path_rejects_non_leader_start():
    window, b, vs, slot = _boxing_scene()
    pos = np.vstack([vs.positions, vs.positions[slot[(0, 0)]][None, :] + 1e-4])
    w = np.append(vs.weights, 1.0)
    g = _graph(VertexSet(window, pos, w), [])
    scan = delta_good_scan(g, b, TAU)
    with pytest.raises(ValueError, match="not a delta-good leader"):
        build_greedy_path(g, b, TAU, ONE, len(w) - 1, scan=scan)


def test_greedy_bound_report_terms_and_applicability():
    window, b, vs, slot = _boxing_scene()
    f = monomial_penalty(1.0, 0.5)
    start = slot[(0, 0)]
    edges = [(slot[(k, 0)], slot[(k + 1, 0)], 1e-8) for k in range(b.k_star)]
    g = _graph(vs, edges)
    path = build_greedy_path(g, b, TAU, f, start,
                             scan=delta_good_scan(g, b, TAU))
    law = PolyAtZero(1.0)  # quantile(y) = y
    rep = greedy_bound_report(b, TAU, f, law, path)

    def term(k):
        # hop k by hand: factor k + 1, eps defaults to delta
        q = min(1.0, (k + 1) * math.exp(-(1 - b.delta) * b.M * b.C ** (k + 1)
                                        * (b.D - 1)))
        up_from = b.leader_weight_interval(k, TAU)[1]
        up_to = b.leader_weight_interval(k + 1, TAU)[1]
        return up_from ** 1.0 * up_to ** 0.5 * q

    assert b.k_star >= 2
    assert rep.applicable       # 1e-8 hops sit below every quantile
    assert rep.satisfied
    assert rep.total_bound == pytest.approx(
        sum(term(k) for k in range(b.k_star)))
    # one oversized hop voids the comparison
    edges[1] = (slot[(1, 0)], slot[(2, 0)], 50.0)
    g = _graph(vs, edges)
    path = build_greedy_path(g, b, TAU, f, start,
                             scan=delta_good_scan(g, b, TAU))
    rep = greedy_bound_report(b, TAU, f, law, path)
    assert not rep.applicable and not rep.satisfied


def test_greedy_bound_requires_monomial():
    window, b, vs, slot = _boxing_scene()
    g = _graph(vs, [(slot[(k, 0)], slot[(k + 1, 0)], 0.1)
                    for k in range(b.k_star)])
    path = build_greedy_path(g, b, TAU, power_sum_penalty(1.0), slot[(0, 0)],
                             scan=delta_good_scan(g, b, TAU))
    with pytest.raises(ValueError, match="monomial penalties"):
        greedy_bound_report(b, TAU, power_sum_penalty(1.0), PolyAtZero(1.0),
                            path)


def _capped(spec, seed, law, cap):
    """generate(spec, seed, law) with every weight clipped at cap.

    The edges come from the all-pairs sweep on the clipped weights, and the
    lengths from the seed, as generate draws a window's.
    """
    vs = generate(spec, seed).vertices
    vs = VertexSet(vs.window, vs.positions, np.minimum(vs.weights, cap),
                   vs.origin_index)
    u, v = models._pairwise_pairs(spec, seed, vs)
    return relength(Graph(vs, u, v, np.ones(u.size), spec=spec, seed=seed),
                    law)


def _boxing_windows():
    """(graph, boxing) pairs: criterion 10's windows, capped weights, d = 2."""
    p = solve_boxing_params(TAU, 1.0, 1.0, 0.1)
    law = PolyAtZero(0.1)
    # criterion 10: side 1000, the largest M that keeps Box_1 in the window
    M = math.log(1000.0) / (p.D * p.C) * (1.0 - 1e-9)
    spec = IgirgWindow(lam=1.0, d=1, side=1000.0, tau=TAU, alpha=2.0, c=1.0)
    for seed in range(20):
        g = generate(spec, seed, length_law=law)
        yield g, build_boxing(g.vertices.window, [0.0], M, p.C, p.D, p.delta)
    # capped weights make heavy vertices tie at the cap, which is delta-good
    # at k = 2
    spec = IgirgWindow(lam=1.0, d=1, side=400.0, tau=TAU, alpha=2.0, c=1.0)
    for seed in range(10):
        g = _capped(spec, seed, law, 3.0)
        yield g, build_boxing(g.vertices.window, [0.0], 1.0, 1.3, 2.0, 0.2)
    # d = 2 with D = 2.5: Gamma_5 and Gamma_6 hold sub-boxes (D = 1.5 fills
    # only Gamma_0 at this side)
    spec = IgirgWindow(lam=1.0, d=2, side=50.0, tau=TAU, alpha=2.0, c=1.0)
    for seed in range(5):
        g = generate(spec, seed, length_law=law)
        yield g, build_boxing(g.vertices.window, [0.0, 0.0], 1.0, 1.2, 2.5,
                              0.2)
    _, b, vs, slot = _boxing_scene()
    yield _graph(vs, _wire_f2(b, slot, [2] * b.k_star)), b


# sha256 over every boxing output on _boxing_windows(): annulus counts and
# anchors, each scanned annulus's leaders, good flags and F1, the F2 flags,
# and the repr of the greedy path (or failure) from every good leader.
BOXING_DIGEST = "16cb1dfb9256a8da3eef58cbd8154382a38b0c2fefab963b50ec87a717ea981f"


def test_boxing_output_digest():
    digest = hashlib.sha256()
    f = monomial_penalty(1.0, 1.0)
    completed = 0
    for g, b in _boxing_windows():
        digest.update(np.array(b.counts(), dtype=np.int64).tobytes())
        for a in b.annuli:
            digest.update(a.anchors.tobytes())
        scan = delta_good_scan(g, b, TAU)
        for s in scan.annuli:
            digest.update(s.leader.tobytes())
            digest.update(s.good.tobytes())
            digest.update(bytes([s.f1]))
        digest.update(bytes(check_F2(g, b, TAU, scan=scan)))
        for s in scan.annuli:
            for leader in s.good_leaders:
                out = build_greedy_path(g, b, TAU, f, leader, scan=scan)
                completed += isinstance(out, GreedyPath) and len(out.vertices) > 1
                text = repr(out)
                if isinstance(out, GreedyFailure):
                    # recorded when a failure also listed the annulus of each
                    # vertex it reached: s.k, s.k + 1, ...
                    reached = list(range(s.k, s.k + len(out.vertices)))
                    text = f"{text[:-1]}, annuli={reached})"
                digest.update(text.encode())
    assert completed > 0
    assert digest.hexdigest() == BOXING_DIGEST


def test_delta_good_scan_matches_per_vertex_oracle():
    law = PolyAtZero(0.1)
    cases = [(IgirgWindow(lam=1.0, d=1, side=400.0, tau=TAU, alpha=2.0, c=1.0),
              [0.0], (1.0, 1.3, 2.0, 0.2)),
             (IgirgWindow(lam=1.0, d=2, side=50.0, tau=TAU, alpha=2.0, c=1.0),
              [0.0, 0.0], (1.0, 1.2, 2.5, 0.2))]
    tied = 0
    for spec, center, params in cases:
        for seed, cap in ((11, 1.5), (12, 3.0)):
            g = _capped(spec, seed, law, cap)
            b = build_boxing(g.vertices.window, center, *params)
            scan = delta_good_scan(g, b, TAU)
            w = g.vertices.weights
            k, row = oracles.containing_subbox(
                g.vertices.positions,
                [(a.anchors, a.subbox_side) for a in b.annuli])
            leaders = oracles.subbox_leaders(k, row, w, b.counts())
            tied += sum(v != leaders[i][r] and w[v] == w[leaders[i][r]]
                        for v, (i, r) in enumerate(zip(k, row)) if i >= 0)
            for i, (s, want) in enumerate(zip(scan.annuli, leaders)):
                np.testing.assert_array_equal(s.leader, want)
                lo, hi = b.leader_weight_interval(i, TAU)
                lw = np.where(want >= 0, w[want], np.nan)
                np.testing.assert_array_equal(s.good, (lw > lo) & (lw <= hi))
                assert s.f1 == (2 * int(s.good.sum()) >= b.annuli[i].count)
    assert tied > 100  # heavy vertices sit at the cap, tied with their leader


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
    # f(w1, w2) = w1 prices the stored u -> v step by W_u: 1, 2, 1
    sub = cost_subgraph(g, monomial_penalty(1.0, 0.0), 1.5)
    assert list(zip(sub.edges_u, sub.edges_v)) == [(0, 1), (2, 3)]


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
    with pytest.raises(ValueError, match="^k must lie"):
        saw_path_count(path, 0, 9)
    with pytest.raises(ValueError, match="^k must lie"):
        saw_path_count(path, 0, -1)


def test_saw_path_count_refuses_work_before_walking():
    # K_10: 9*8*...*(10-k) paths of k edges; the walks from a vertex number
    # sum_j 9^j, 6.0e5 up to k = 6 and 4.8e7 up to k = 8
    iu, iv = np.triu_indices(10, 1)
    k10 = _hand_graph(10, [(int(a), int(b), 1.0) for a, b in zip(iu, iv)])
    assert saw_path_count(k10, 0, 6) == math.perm(9, 6)
    with pytest.raises(ValueError, match="cap"):
        saw_path_count(k10, 0, 8)


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
    d_in = np.array([cost_search(g, f, s, "inward").dist[:30]
                     for s in sources])
    np.testing.assert_allclose(d, d_in, rtol=1e-10, atol=1e-12)


def test_distances_grow_with_penalty_exponent(girg_graph):
    g = girg_graph
    sources = np.arange(15)
    d_small = distance_matrix(g, product_penalty(0.5), sources)
    d_big = distance_matrix(g, product_penalty(1.0), sources)
    assert np.all(d_small <= d_big + 1e-12)
    assert np.isfinite(d_small).sum() == np.isfinite(d_big).sum()
