import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from pplab import models
from pplab.cli import write_graph_text
from pplab.geometry import Window, pair_distance
from pplab.models import (
    Girg,
    Graph,
    Hrg,
    IgirgWindow,
    SfpWindow,
    VertexSet,
    connect_prob,
    generate,
    girg_to_hrg_coords,
    hrg_radius_from_uniform,
    hrg_to_girg_coords,
    hyperbolic_distance,
    relength,
)
from pplab.rng import DoubleExpFlat, Exponential, PolyAtZero, uniform_array

FIG1 = Girg(n=1000, d=2, tau=2.5, alpha=4.0, c=0.1)


def test_connect_prob_girg_example():
    assert connect_prob(FIG1, 1.0, 1.0, 1.0) == pytest.approx(1e-13, rel=1e-12)


def test_connect_prob_same_position():
    specs = [
        FIG1,
        IgirgWindow(lam=1.0, d=2, side=10.0, tau=2.5, alpha=2.0, c=1.0),
        SfpWindow(d=2, radius=3, tau=2.5, lambda_perc=1.0, alpha_norm=2.0),
        Hrg(n=100, alpha_H=0.75, C_H=1.0, T_H=0.5),
    ]
    for spec in specs:
        assert connect_prob(spec, 1.5, 2.5, 0.0) == 1.0


def test_connect_prob_threshold_equality():
    spec = Girg(n=100, d=1, tau=2.5, alpha=math.inf, c=1.0, c1_threshold=1.0)
    assert connect_prob(spec, 10.0, 10.0, 1.0) == 1.0     # 1*100 == 100*1
    assert connect_prob(spec, 10.0, 10.0, 1.01) == 0.0
    spec = IgirgWindow(lam=1.0, d=2, side=10.0, tau=2.5, alpha=math.inf,
                       c=1.0, c1_threshold=2.0)
    assert connect_prob(spec, 1.0, 2.0, 2.0) == 1.0       # 2*2 == 2^2
    assert connect_prob(spec, 1.0, 1.9, 2.0) == 0.0


def test_connect_prob_symmetric():
    rng = np.random.default_rng(3)
    specs = [
        FIG1,
        Girg(n=500, d=1, tau=2.2, alpha=math.inf, c=1.0, c1_threshold=0.7),
        IgirgWindow(lam=1.0, d=1, side=8.0, tau=2.5, alpha=3.0, c=0.4),
        SfpWindow(d=1, radius=4, tau=2.5, lambda_perc=0.8, alpha_norm=1.5),
        Hrg(n=200, alpha_H=0.6, C_H=0.5, T_H=0.25),
        Hrg(n=200, alpha_H=0.6, C_H=0.5, T_H=None),
    ]
    for spec in specs:
        for _ in range(40):
            w1, w2 = (rng.pareto(1.5, size=2) + 1.0)
            dist = float(rng.uniform(0.01, 2.0))
            assert connect_prob(spec, w1, w2, dist) == connect_prob(spec, w2, w1, dist)


def test_connect_prob_scalar_matches_array():
    w1 = np.array([1.0, 2.0, 8.0])
    w2 = np.array([3.0, 1.0, 1.0])
    dist = np.array([0.1, 0.4, 0.2])
    for spec in (FIG1, SfpWindow(d=1, radius=4, tau=2.5, lambda_perc=1.0,
                                 alpha_norm=2.0),
                 Hrg(n=300, alpha_H=0.75, C_H=1.0, T_H=0.5)):
        vec = connect_prob(spec, w1, w2, dist)
        for i in range(3):
            assert connect_prob(spec, w1[i], w2[i], dist[i]) == vec[i]


def test_sfp_kernel():
    spec = SfpWindow(d=1, radius=5, tau=2.5, lambda_perc=0.7, alpha_norm=2.0)
    assert connect_prob(spec, 1.0, 1.0, 1.0) == 1.0                    # forced
    want = -math.expm1(-0.7 * (6.0 / 3.0) ** 2)
    assert connect_prob(spec, 2.0, 3.0, 3.0) == pytest.approx(want)
    hard = SfpWindow(d=1, radius=5, tau=2.5, lambda_perc=0.7, alpha_norm=math.inf)
    assert connect_prob(hard, 3.0, 1.0, 2.0) == 1.0                    # arg > 1
    assert connect_prob(hard, 2.0, 1.0, 2.0) == pytest.approx(-math.expm1(-0.7))
    assert connect_prob(hard, 1.0, 1.5, 2.0) == 0.0                    # arg < 1


def test_hrg_kernel_threshold_and_smooth():
    spec = Hrg(n=1000, alpha_H=0.75, C_H=1.0, T_H=None)
    # same radius R_n/2, angles apart: d_H grows with the angle
    w = math.exp(spec.R_n / 4.0)
    assert connect_prob(spec, w, w, 1e-6) == 1.0
    assert connect_prob(spec, 1.0, 1.0, 0.5) == 0.0
    smooth = Hrg(n=1000, alpha_H=0.75, C_H=1.0, T_H=0.5)
    ps = [connect_prob(smooth, w, w, x) for x in (0.001, 0.01, 0.1, 0.5)]
    assert all(0.0 < p <= 1.0 for p in ps)
    assert ps == sorted(ps, reverse=True)


def test_hyperbolic_distance_examples():
    assert hyperbolic_distance(0.0, 0.0, 1.3) == 0.0
    assert abs(hyperbolic_distance(3.0, 4.0, math.pi / 2.0)
               - 6.309660603466953) < 1e-12
    for r_u, r_v in ((1.0, 2.5), (20.0, 18.0), (12.0, 12.0)):
        assert hyperbolic_distance(r_u, r_v, 0.0) == pytest.approx(
            abs(r_u - r_v), abs=1e-9)
    # stable for large radii at tiny angles (textbook form cancels to 0 digits)
    d = hyperbolic_distance(25.0, 25.0, 1e-9)
    assert np.isfinite(d) and d >= 0.0


def test_hrg_coordinate_map():
    spec = Hrg(n=1000, alpha_H=0.75, C_H=1.0)
    assert hrg_to_girg_coords(math.pi, spec.R_n, spec) == (0.0, 1.0)
    x, w = hrg_to_girg_coords(0.0, spec.R_n - 2.0, spec)
    assert x == -0.5 and w == pytest.approx(math.e)
    rng = np.random.default_rng(11)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=64)
    r = rng.uniform(0.0, spec.R_n, size=64)
    x, w = hrg_to_girg_coords(phi, r, spec)
    phi2, r2 = girg_to_hrg_coords(x, w, spec)
    assert np.allclose(phi2, phi, atol=1e-9)
    assert np.allclose(r2, r, atol=1e-9)


def test_hrg_mapped_weight_tail():
    spec = Hrg(n=10_000, alpha_H=0.75, C_H=1.0)
    u = uniform_array(777, "radius", np.arange(10_000, dtype=np.int64))
    r = hrg_radius_from_uniform(u, spec)
    assert np.all((r >= 0.0) & (r <= spec.R_n + 1e-9))
    _, w = hrg_to_girg_coords(np.zeros_like(r), r, spec)
    stat = stats.kstest(w, lambda t: 1.0 - t**-1.5).statistic
    assert stat <= 0.03


def test_generate_girg_deterministic():
    g1 = generate(FIG1, 42, Exponential(1.0))
    g2 = generate(FIG1, 42, Exponential(1.0))
    assert np.array_equal(g1.vertices.positions, g2.vertices.positions)
    assert np.array_equal(g1.vertices.weights, g2.vertices.weights)
    assert np.array_equal(g1.edges_u, g2.edges_u)
    assert np.array_equal(g1.edges_v, g2.edges_v)
    assert np.array_equal(g1.lengths, g2.lengths)
    g3 = generate(FIG1, 43, Exponential(1.0))
    assert not (g3.m == g1.m and np.array_equal(g1.edges_u, g3.edges_u)
                and np.array_equal(g1.edges_v, g3.edges_v))


def test_generate_girg_no_edges_when_c_zero():
    g = generate(Girg(n=50, d=2, tau=2.5, alpha=2.0, c=0.0), 7)
    assert g.m == 0
    assert g.n == 50


def test_generate_pair_resampling():
    g = generate(FIG1, 99, PolyAtZero(1.0))
    present = set(zip(g.edges_u.tolist(), g.edges_v.tolist()))
    window = FIG1.window
    rng = np.random.default_rng(5)
    checked_present = 0
    for _ in range(100):
        u, v = sorted(rng.choice(g.n, size=2, replace=False).tolist())
        dist = pair_distance(window, g.vertices.positions[u],
                             g.vertices.positions[v])
        p = connect_prob(FIG1, g.vertices.weights[u], g.vertices.weights[v], dist)
        if p >= 1.0:
            coin_says_edge = True
        elif p <= 0.0:
            coin_says_edge = False
        else:
            coin = uniform_array(99, "edges",
                                 np.array([u * g.n + v], dtype=np.int64))[0]
            coin_says_edge = coin <= p
        assert coin_says_edge == ((u, v) in present)
        checked_present += (u, v) in present
    # also re-check every actual edge the same way
    for u, v in list(present)[:200]:
        dist = pair_distance(window, g.vertices.positions[u],
                             g.vertices.positions[v])
        p = connect_prob(FIG1, g.vertices.weights[u], g.vertices.weights[v], dist)
        coin = uniform_array(99, "edges",
                             np.array([u * g.n + v], dtype=np.int64))[0]
        assert p >= 1.0 or coin <= p


def test_lengths_coupled_across_laws():
    g = generate(Girg(n=300, d=1, tau=2.5, alpha=2.0, c=1.0), 15, PolyAtZero(1.0))
    assert g.m > 0
    keys = g.edges_u * g.n + g.edges_v
    draws = uniform_array(15, "lengths", keys)
    assert np.array_equal(g.lengths, PolyAtZero(1.0).sample_from_uniform(draws))
    h = relength(g, Exponential(2.0))
    assert np.array_equal(h.lengths, Exponential(2.0).sample_from_uniform(draws))
    assert np.array_equal(h.edges_u, g.edges_u)
    bare = relength(g, None)
    assert np.all(bare.lengths == 1.0)


# sha256 of write_graph_text(generate(spec, seed, law)), recorded with the
# single-threaded blocked sweep; any change to a generated graph shows here.
GOLDEN_CASES = {
    "girg": (Girg(n=2100, d=2, tau=2.5, alpha=2.0, c=0.5), PolyAtZero(0.5)),
    "girg-threshold": (Girg(n=1100, d=1, tau=2.8, alpha=math.inf, c=1.0),
                       Exponential(2.0)),
    "igirg": (IgirgWindow(lam=1.0, d=1, side=1200.0, tau=2.3, alpha=3.0, c=1.0,
                          pin_origin=True), Exponential(1.0)),
    "sfp": (SfpWindow(d=2, radius=18, tau=2.5, lambda_perc=1.0, alpha_norm=2.0),
            DoubleExpFlat(2.0, 1.0, 1.0)),
    "hrg": (Hrg(n=1300, alpha_H=0.75, C_H=1.0, T_H=0.5), PolyAtZero(2.0)),
}
GOLDEN_DIGESTS = {
    ("girg", 1): "72559be6e708a8eb2530c890a23ccf309964d5122ff5b6b20d207a77c37523b8",
    ("girg", 2026): "52e60f0e186da455334921c07cb1dd295149ec68d61f43cb037186198b97e1ed",
    ("girg-threshold", 1): "4502e656a8b61024eeadeb65d03aef60dc464bd25924be4f48a3a5c114db71c6",
    ("girg-threshold", 2026): "3c170329a5941d0ab77029418f5895012bfe0e5a1465b4e202e065bff9755e4c",
    ("igirg", 1): "60029fa73510e1d11654f9e12f15b333498ac160bbe11421dc5b5cc1561f28f8",
    ("igirg", 2026): "efa91023ad554ad0a79e3f92b11adb6285d534119a8feaa224da6c750c7ce074",
    ("sfp", 1): "b0d90bf206f2750840159f9a0259324d6ac0c3456397b191a3482eed0ef32e8c",
    ("sfp", 2026): "c61cdd0e7cd948585d158d3ea523788c68759ab4a73699fc08c33cd5840da2c4",
    ("hrg", 1): "dc3ee444eee703f5fd201f1800623f932b5bb7e3113260fcdc52e92d25e9acb2",
    ("hrg", 2026): "1d757a68febd50cade6351d6c96e6bd5376d5382be6be63008c11b56d130a3a8",
}


@pytest.mark.parametrize("threads", [1, 3])
def test_generate_golden_digests(monkeypatch, threads):
    # 3 threads exceed the row-block count of the smaller graphs and the
    # core count of small machines, so blocks finish out of order.
    monkeypatch.setattr(models, "_SWEEP_THREADS", threads)
    for (name, seed), want in GOLDEN_DIGESTS.items():
        spec, law = GOLDEN_CASES[name]
        text = write_graph_text(generate(spec, seed, law))
        assert hashlib.sha256(text.encode()).hexdigest() == want, (name, seed)


def test_generate_default_unit_lengths():
    g = generate(Girg(n=60, d=1, tau=2.5, alpha=2.0, c=1.0), 3)
    assert g.m > 0 and np.all(g.lengths == 1.0)


def test_generate_igirg_window():
    spec = IgirgWindow(lam=2.0, d=1, side=10.0, tau=2.5, alpha=2.0, c=1.0)
    g = generate(spec, 21)
    assert g.n >= 1
    assert np.all(np.abs(g.vertices.positions) <= 5.0)
    assert g.vertices.origin_index is None
    g2 = generate(spec, 21)
    assert np.array_equal(g.vertices.positions, g2.vertices.positions)
    pinned = generate(
        IgirgWindow(lam=2.0, d=1, side=10.0, tau=2.5, alpha=2.0, c=1.0,
                    pin_origin=True), 21)
    oi = pinned.vertices.origin_index
    assert oi == pinned.n - 1
    assert np.all(pinned.vertices.positions[oi] == 0.0)
    # the Poisson cloud itself is unchanged by pinning
    assert np.array_equal(pinned.vertices.positions[:-1], g.vertices.positions)


def test_generate_sfp_grid():
    g = generate(SfpWindow(d=1, radius=2, tau=2.5, lambda_perc=1.0,
                           alpha_norm=2.0), 5)
    assert g.n == 5
    assert np.array_equal(np.sort(g.vertices.positions[:, 0]),
                          np.arange(-2.0, 3.0))
    present = set(zip(g.edges_u.tolist(), g.edges_v.tolist()))
    for a in range(4):
        assert (a, a + 1) in present
    assert g.m >= 4
    assert g.vertices.origin_index == 2

    g2 = generate(SfpWindow(d=2, radius=1, tau=2.5, lambda_perc=1.0,
                            alpha_norm=2.0), 5)
    assert g2.n == 9
    pos = g2.vertices.positions
    forced = 0
    for i in range(9):
        for j in range(i + 1, 9):
            if np.sum((pos[i] - pos[j]) ** 2) == 1.0:
                forced += 1
                assert (i, j) in set(zip(g2.edges_u.tolist(),
                                         g2.edges_v.tolist()))
    assert forced == 12


def test_generate_hrg():
    for T in (0.5, None):
        spec = Hrg(n=400, alpha_H=0.75, C_H=1.0, T_H=T)
        g = generate(spec, 8)
        assert g.n == 400
        assert np.all(g.vertices.weights >= 1.0)
        assert np.all((g.vertices.positions >= -0.5)
                      & (g.vertices.positions < 0.5))
        assert g.m > 0
        g2 = generate(spec, 8)
        assert np.array_equal(g.edges_u, g2.edges_u)
    assert Hrg(n=400, alpha_H=0.75, C_H=1.0).tau == 2.5


def test_degree_tracks_weight():
    g = generate(Girg(n=4096, d=2, tau=2.5, alpha=2.0, c=0.5), 31)
    deg = g.degrees()
    w = g.vertices.weights
    cut = g.n ** 0.25
    ratios = []
    k = 0
    while 2.0 ** (k + 1) <= cut:
        sel = (w >= 2.0**k) & (w < 2.0 ** (k + 1))
        if sel.sum() >= 30:
            ratios.append(deg[sel].mean() / w[sel].mean())
        k += 1
    assert len(ratios) >= 2
    assert max(ratios) / min(ratios) <= 10.0


def test_generate_vertex_cap():
    with pytest.raises(ValueError, match="cap"):
        generate(Girg(n=200_000, d=1, tau=2.5, alpha=2.0, c=1.0), 1)
    with pytest.raises(ValueError, match="cap"):
        generate(SfpWindow(d=2, radius=200, tau=2.5, lambda_perc=1.0,
                           alpha_norm=2.0), 1)


def test_spec_validation():
    with pytest.raises(ValueError):
        Girg(n=10, d=2, tau=2.5, alpha=1.0, c=1.0)       # alpha must exceed 1
    with pytest.raises(ValueError):
        Girg(n=10, d=2, tau=1.0, alpha=2.0, c=1.0)
    with pytest.raises(ValueError):
        Hrg(n=10, alpha_H=0.5, C_H=1.0)
    with pytest.raises(ValueError):
        Hrg(n=10, alpha_H=1.0, C_H=1.0)
    with pytest.raises(ValueError):
        SfpWindow(d=1, radius=3, tau=2.5, lambda_perc=0.0, alpha_norm=2.0)
    with pytest.raises(ValueError):
        IgirgWindow(lam=-1.0, d=1, side=4.0, tau=2.5, alpha=2.0, c=1.0)


def test_graph_container():
    window = Window(1, 10.0, boundary="hard")
    vs = VertexSet(window, np.array([[-2.0], [0.0], [1.0], [3.0]]),
                   np.array([1.0, 2.0, 1.5, 4.0]))
    g = Graph(vs, [0, 1, 0], [1, 2, 3], [1.0, 0.5, 2.0])
    assert g.n == 4 and g.m == 3
    assert g.neighbors(0).tolist() == [1, 3]
    assert g.neighbors(1).tolist() == [0, 2]
    assert g.degrees().tolist() == [2, 2, 1, 1]
    eid = int(g.incident_edges(2)[0])              # edge (1, 2), from 2's side
    assert g.neighbors(2).tolist() == [1] and g.lengths[eid] == 0.5
    assert g.incident_edges(1).tolist() == [0, eid]
    assert 2 not in g.neighbors(0).tolist()
    h = g.with_lengths([3.0, 3.0, 3.0])
    assert np.all(h.lengths == 3.0) and h.m == 3
    assert h.edges_u is g.edges_u and g.lengths.tolist() == [1.0, 2.0, 0.5]
    with pytest.raises(ValueError):
        g.with_lengths([3.0, -1.0, 3.0])                 # negative length
    with pytest.raises(ValueError):
        g.with_lengths([3.0, 3.0])                       # wrong shape
    with pytest.raises(ValueError):
        g.with_lengths([[3.0, 3.0, 3.0]])
    with pytest.raises(ValueError):
        Graph(vs, [1], [1], [1.0])                       # self-loop
    with pytest.raises(ValueError):
        Graph(vs, [0, 0], [1, 1], [1.0, 1.0])            # duplicate
    with pytest.raises(ValueError):
        Graph(vs, [0], [1], [-1.0])                      # negative length
    with pytest.raises(ValueError):
        Graph(vs, [3], [1], [1.0])                       # u >= v


def _line_graph(n, pairs, lengths=None):
    vs = VertexSet(Window(1, 10.0, boundary="hard"),
                   np.linspace(-4.0, 4.0, n)[:, None], np.ones(n))
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    v = np.array([b for _, b in pairs], dtype=np.int64)
    ell = np.arange(len(pairs), dtype=np.float64) if lengths is None else lengths
    return Graph(vs, u, v, ell)


def test_csr_matches_edge_scan():
    rng = np.random.default_rng(99)
    graphs = [_line_graph(1, []), _line_graph(5, [])]
    for _ in range(40):
        n = int(rng.integers(2, 30))
        iu, iv = np.triu_indices(n, 1)
        keep = rng.random(iu.size) < rng.uniform(0.0, 0.5)
        pairs = list(zip(iu[keep], iv[keep]))
        rng.shuffle(pairs)                               # Graph sorts them
        graphs.append(_line_graph(n, pairs))
    for g in graphs:
        indptr, nbr, eid = g.csr
        assert indptr.shape == (g.n + 1,) and nbr.shape == eid.shape == (2 * g.m,)
        for x in range(g.n):
            brute = sorted((int(g.edges_v[e]) if g.edges_u[e] == x
                            else int(g.edges_u[e]), e)
                           for e in range(g.m) if x in (g.edges_u[e], g.edges_v[e]))
            assert g.neighbors(x).tolist() == [y for y, _ in brute]
            assert g.incident_edges(x).tolist() == [e for _, e in brute]
        assert g.degrees().tolist() == np.diff(indptr).tolist()
        with pytest.raises(ValueError):
            nbr[:1] = 0                                  # shared, so read-only
        h = g.with_lengths(np.ones(g.m))
        assert h.csr is g.csr


def test_graph_sorts_unsorted_edges_and_rejects_duplicates():
    g = _line_graph(4, [(1, 3), (0, 2), (1, 2), (0, 1)], [1.0, 2.0, 3.0, 4.0])
    assert list(zip(g.edges_u.tolist(), g.edges_v.tolist())) == \
        [(0, 1), (0, 2), (1, 2), (1, 3)]
    assert g.lengths.tolist() == [4.0, 2.0, 3.0, 1.0]
    assert g.neighbors(1).tolist() == [0, 2, 3]
    for pairs in ([(0, 1), (0, 1)], [(1, 2), (0, 1), (1, 2)]):
        with pytest.raises(ValueError, match="duplicate"):
            _line_graph(4, pairs)
