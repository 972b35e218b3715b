import hashlib
import itertools
import math
import re
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import oracles
from pplab import models
from pplab.cli import write_graph_text
from pplab.geometry import Window
from pplab.models import (
    Girg,
    Graph,
    Hrg,
    IgirgWindow,
    SfpWindow,
    VertexSet,
    connect_prob,
    generate,
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
    spec = Girg(n=100, d=1, tau=2.5, alpha=math.inf, c=1.0)
    assert connect_prob(spec, 10.0, 10.0, 1.0) == 1.0     # 1*100 == 100*1
    assert connect_prob(spec, 10.0, 10.0, 1.01) == 0.0
    spec = IgirgWindow(lam=1.0, d=2, side=10.0, tau=2.5, alpha=math.inf,
                       c=2.0)
    assert connect_prob(spec, 1.0, 2.0, 2.0) == 1.0       # 2*2 == 2^2
    assert connect_prob(spec, 1.0, 1.9, 2.0) == 0.0


def test_connect_prob_symmetric():
    rng = np.random.default_rng(3)
    specs = [
        FIG1,
        Girg(n=500, d=1, tau=2.2, alpha=math.inf, c=0.7),
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


@pytest.mark.parametrize("model", ["girg", "igirg"])
def test_connect_prob_matches_the_closed_form(model):
    rng = np.random.default_rng(17)
    seen = set()
    for d, alpha, c in itertools.product((1, 2, 3), (2.0, 3.0, math.inf),
                                         (0.0, 0.5, 1.0, 2.0)):
        spec = (Girg(n=300, d=d, tau=2.5, alpha=alpha, c=c) if model == "girg"
                else IgirgWindow(lam=1.0, d=d, side=50.0, tau=2.5,
                                 alpha=alpha, c=c))
        scale = spec.n if model == "girg" else 1
        for _ in range(300):
            w_u, w_v = (float(x) for x in rng.pareto(1.5, size=2) + 1.0)
            # scale dist^d / (w_u w_v) log-uniform over [1e-2, 1e2], so
            # the threshold and the cap at 1 both land on either side
            ratio = 10.0 ** rng.uniform(-2.0, 2.0)
            dist = (ratio * w_u * w_v / scale) ** (1.0 / d)
            if rng.random() < 0.05:
                dist = 0.0
            got = connect_prob(spec, w_u, w_v, dist)
            want = oracles.power_kernel(w_u, w_v, dist, d, alpha, c, scale)
            if c == 0 or math.isinf(alpha):          # the 0/1 branches
                assert got == want, (spec, w_u, w_v, dist)
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)
            seen.add((c, alpha, want == 1.0, want == 0.0))
    # every constant gives both outcomes of the threshold, and the finite
    # kernel both capped and fractional values
    for c in (0.0, 0.5, 1.0, 2.0):
        assert {(c, math.inf, True, False),
                (c, math.inf, False, True)} <= seen, c
    for c in (0.5, 1.0, 2.0):
        assert {(c, 2.0, True, False), (c, 2.0, False, False)} <= seen, c


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
    # the inverse map: phi = 2 pi x + pi, r = R_n - 2 log W
    phi2 = 2.0 * math.pi * x + math.pi
    r2 = spec.R_n - 2.0 * np.log(w)
    assert np.allclose(phi2, phi, atol=1e-9)
    assert np.allclose(r2, r, atol=1e-9)


def test_hrg_mapped_weight_tail():
    spec = Hrg(n=10_000, alpha_H=0.75, C_H=1.0)
    u = uniform_array(777, "radius", np.arange(10_000, dtype=np.int64))
    r = hrg_radius_from_uniform(u, spec)
    assert np.all((r >= 0.0) & (r <= spec.R_n + 1e-9))
    _, w = hrg_to_girg_coords(np.zeros_like(r), r, spec)
    stat = stats.kstest(w, lambda t: oracles.weight_cdf(t, 2.5)).statistic
    assert stat <= 0.03


def test_generate_girg_no_edges_when_c_zero():
    g = generate(Girg(n=50, d=2, tau=2.5, alpha=2.0, c=0.0), 7)
    assert g.m == 0
    assert g.n == 50


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


# sha256 of write_graph_text(generate(spec, seed, law)), recorded with one
# thread; any change to a generated graph shows here.  generate draws
# "girg-cells" with the cell sampler and "girg" with the all-pairs sweep
# (at n = 2100 the sweep is the cheaper of the two); "girg-threshold" is the
# same graph either way.
GOLDEN_CASES = {
    "girg": (Girg(n=2100, d=2, tau=2.5, alpha=2.0, c=0.5), PolyAtZero(0.5)),
    "girg-cells": (Girg(n=4096, d=2, tau=2.9, alpha=4.0, c=0.1),
                   PolyAtZero(1.0)),
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
    ("girg-cells", 1): "aa60800684812681bf6ed90abdfef1d4f170491a1018f4b82bc12a82777934c2",
    ("girg-cells", 2026): "6bcc3c346c96c56aae9bc74d4eac074f086db74087e867112bc0ad4c3761e088",
    ("girg-threshold", 1): "4502e656a8b61024eeadeb65d03aef60dc464bd25924be4f48a3a5c114db71c6",
    ("girg-threshold", 2026): "3c170329a5941d0ab77029418f5895012bfe0e5a1465b4e202e065bff9755e4c",
    ("igirg", 1): "60029fa73510e1d11654f9e12f15b333498ac160bbe11421dc5b5cc1561f28f8",
    ("igirg", 2026): "efa91023ad554ad0a79e3f92b11adb6285d534119a8feaa224da6c750c7ce074",
    ("sfp", 1): "b0d90bf206f2750840159f9a0259324d6ac0c3456397b191a3482eed0ef32e8c",
    ("sfp", 2026): "c61cdd0e7cd948585d158d3ea523788c68759ab4a73699fc08c33cd5840da2c4",
    ("hrg", 1): "dc3ee444eee703f5fd201f1800623f932b5bb7e3113260fcdc52e92d25e9acb2",
    ("hrg", 2026): "1d757a68febd50cade6351d6c96e6bd5376d5382be6be63008c11b56d130a3a8",
}


def _on_threads(threads, fn):
    """The results of fn() called on `threads` threads released together."""
    barrier = threading.Barrier(threads)

    def call():
        barrier.wait()
        return fn()

    with ThreadPoolExecutor(threads) as pool:
        return [f.result() for f in [pool.submit(call)
                                     for _ in range(threads)]]


@pytest.mark.parametrize("threads", [1, 3])
def test_generate_golden_digests(threads):
    # at 3, three callers generate the same graph at once; the sweep keeps
    # its buffers per call, so they must not disturb each other
    for (name, seed), want in GOLDEN_DIGESTS.items():
        spec, law = GOLDEN_CASES[name]
        texts = _on_threads(
            threads, lambda: write_graph_text(generate(spec, seed, law)))
        for text in texts:
            assert hashlib.sha256(text.encode()).hexdigest() == want, (
                name, seed)


def test_generate_starts_no_thread(monkeypatch):
    def no_start(self):
        raise AssertionError(f"generate started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", no_start)
    # criterion 12's largest window: about 512 vertices, 17 one-tile strips
    asym = IgirgWindow(lam=1.0, d=1, side=512.0, tau=1.5, alpha=2.0, c=1.0,
                       pin_origin=True)
    cases = [*GOLDEN_CASES.values(), (asym, PolyAtZero(1.0))]
    for spec, law in cases:
        assert generate(spec, 1, law).m > 0


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


def test_generate_refuses_an_oversize_sfp_lattice_before_building_it(
        monkeypatch):
    def no_meshgrid(*args, **kwargs):
        raise AssertionError("the lattice was built")

    monkeypatch.setattr(np, "meshgrid", no_meshgrid)
    # (2 * 10^5 + 1)^2 points: each meshgrid output alone would be 320 GB
    with pytest.raises(ValueError,
                       match=r"vertex count 40000400001 exceeds cap 100000"):
        generate(SfpWindow(d=2, radius=10**5, tau=2.5, lambda_perc=1.0,
                           alpha_norm=2.0), 1)


def test_spec_validation():
    with pytest.raises(ValueError, match="^alpha must exceed 1"):
        Girg(n=10, d=2, tau=2.5, alpha=1.0, c=1.0)       # alpha must exceed 1
    with pytest.raises(ValueError, match="^tau must exceed 1"):
        Girg(n=10, d=2, tau=1.0, alpha=2.0, c=1.0)
    with pytest.raises(ValueError, match="^alpha_H must lie"):
        Hrg(n=10, alpha_H=0.5, C_H=1.0)
    with pytest.raises(ValueError, match="^alpha_H must lie"):
        Hrg(n=10, alpha_H=1.0, C_H=1.0)
    with pytest.raises(ValueError, match="^lambda_perc must lie"):
        SfpWindow(d=1, radius=3, tau=2.5, lambda_perc=0.0, alpha_norm=2.0)
    with pytest.raises(ValueError, match="^lam must lie"):
        IgirgWindow(lam=-1.0, d=1, side=4.0, tau=2.5, alpha=2.0, c=1.0)


@pytest.mark.parametrize("field, match", [
    ("alpha", "alpha must exceed 1"), ("c", "c must lie in [0, inf)")])
def test_spec_validation_refuses_nan(field, match):
    # NaN fails every comparison, so each check must be written to refuse it
    base = dict(d=2, tau=2.5, alpha=2.0, c=1.0)
    exact = "^" + re.escape(match) + "$"
    with pytest.raises(ValueError, match=exact):
        Girg(n=10, **{**base, field: math.nan})
    with pytest.raises(ValueError, match=exact):
        IgirgWindow(lam=1.0, side=4.0, **{**base, field: math.nan})
    for field in ("lam", "side"):
        with pytest.raises(ValueError,
                           match=rf"^{field} must lie in \(0, inf\)$"):
            IgirgWindow(**{**base, "lam": 1.0, "side": 4.0, field: math.nan})


@pytest.mark.parametrize("build, match", [
    (lambda: Hrg(n=50, alpha_H=0.75, C_H=math.nan), "C_H must be finite"),
    (lambda: Hrg(n=50, alpha_H=0.75, C_H=math.inf), "C_H must be finite"),
    (lambda: Hrg(n=50, alpha_H=0.75, C_H=1.0, T_H=math.nan), "T_H"),
    (lambda: SfpWindow(d=1, radius=5, tau=2.5, lambda_perc=math.nan,
                       alpha_norm=1.5), "lambda_perc must lie in (0, inf)"),
    (lambda: SfpWindow(d=1, radius=5, tau=2.5, lambda_perc=1.0,
                       alpha_norm=math.nan), "alpha_norm must be positive"),
])
def test_hrg_and_sfp_refuse_nan(build, match):
    # these generated an edgeless HRG, or an SFP with only its forced edges
    with pytest.raises(ValueError, match=re.escape(match)):
        build()


def _unit_vertices(positions, weights):
    return VertexSet(Window(1, 10.0, boundary="hard"),
                     np.asarray(positions, dtype=np.float64)[:, None],
                     np.asarray(weights, dtype=np.float64))


@pytest.mark.parametrize("positions, weights, match", [
    ([0.0, 1.0], [math.nan, 2.0], "weights must be >= 1"),
    ([0.0, 1.0], [2.0, math.nan], "weights must be >= 1"),
    ([math.nan, 1.0], [1.0, 2.0], "positions must be finite"),
    ([0.0, math.inf], [1.0, 2.0], "positions must be finite"),
])
def test_vertex_set_refuses_nan(positions, weights, match):
    with pytest.raises(ValueError, match=match):
        _unit_vertices(positions, weights)


def test_graph_refuses_nan_lengths_and_keeps_inf():
    # +inf weights (a Pareto draw that overflows) and +inf lengths stay valid
    vs = _unit_vertices([0.0, 1.0, 2.0], [1.0, math.inf, 2.0])
    g = Graph(vs, [0, 1], [1, 2], [math.inf, 1.0])
    assert g.with_lengths([1.0, math.inf]).lengths[1] == math.inf
    with pytest.raises(ValueError, match="non-negative"):
        Graph(vs, [0, 1], [1, 2], [math.nan, 1.0])
    with pytest.raises(ValueError, match="non-negative"):
        g.with_lengths([1.0, math.nan])


def test_graph_container():
    vs = _unit_vertices([-2.0, 0.0, 1.0, 3.0], [1.0, 2.0, 1.5, 4.0])
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
    for bad, match in [
            (lambda: g.with_lengths([3.0, -1.0, 3.0]), "non-negative"),
            (lambda: g.with_lengths([3.0, 3.0]), "equal length"),
            (lambda: g.with_lengths([[3.0, 3.0, 3.0]]), "equal length"),
            (lambda: Graph(vs, [1], [1], [1.0]), "u < v"),     # self-loop
            (lambda: Graph(vs, [3], [1], [1.0]), "u < v"),
            (lambda: Graph(vs, [0], [1], [-1.0]), "non-negative")]:
        with pytest.raises(ValueError, match=match):
            bad()


def _line_graph(n, pairs, lengths=None):
    vs = VertexSet(Window(1, 10.0, boundary="hard"),
                   np.linspace(-4.0, 4.0, n)[:, None], np.ones(n))
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    v = np.array([b for _, b in pairs], dtype=np.int64)
    ell = np.arange(len(pairs), dtype=np.float64) if lengths is None else lengths
    return Graph(vs, u, v, ell)


def _csr_graphs():
    rng = np.random.default_rng(99)
    graphs = [generate(spec, 1, law) for spec, law in GOLDEN_CASES.values()]
    graphs += [generate(Girg(n=2**12, d=2, tau=2.5, alpha=2.0, c=1.0), 7),
               _line_graph(1, []), _line_graph(5, []),
               _line_graph(6, [(1, 4), (2, 4)]),      # 0, 3 and 5 isolated
               # stars: a centre with only upper, then only lower neighbours
               _line_graph(9, [(0, x) for x in range(1, 9)]),
               _line_graph(9, [(x, 8) for x in range(8)]),
               _line_graph(12, list(itertools.combinations(range(12), 2)))]
    for _ in range(40):
        n = int(rng.integers(2, 30))
        iu, iv = np.triu_indices(n, 1)
        keep = rng.random(iu.size) < rng.uniform(0.0, 0.5)
        pairs = list(zip(iu[keep], iv[keep]))
        rng.shuffle(pairs)                               # Graph sorts them
        graphs.append(_line_graph(n, pairs))
    return graphs


def test_csr_matches_edge_scan():
    for g in _csr_graphs():
        indptr, nbr, eid = oracles.reference_csr(g.n, g.edges_u, g.edges_v)
        for x in range(g.n):
            row = slice(indptr[x], indptr[x + 1])
            assert g.neighbors(x).tolist() == nbr[row].tolist()
            assert g.incident_edges(x).tolist() == eid[row].tolist()
        assert g.degrees().tolist() == np.diff(indptr).tolist()
        with pytest.raises(ValueError, match="read-only"):
            g.csr[1][:1] = 0                             # shared, so read-only
        assert g.with_lengths(np.ones(g.m)).csr is g.csr


def test_csr_matches_argsort_reference():
    for g in _csr_graphs():
        for got, want in zip(g.csr, oracles.reference_csr(
                g.n, g.edges_u, g.edges_v), strict=True):
            assert got.dtype == np.int32     # n and 2m fit int32
            assert np.array_equal(got, want)


def test_csr_builds_in_bounded_memory():
    # on the 2^12 Girg of _csr_graphs: the two int32 outputs (16 B per
    # edge), the int64 sort keys (8), the slot mask (2) and one int32 value
    # array at a time (4) peak near 35 B per edge; 8 KiB covers the call's
    # small objects
    g = generate(Girg(n=2**12, d=2, tau=2.5, alpha=2.0, c=1.0), 7)
    tracemalloc.start()
    try:
        models._build_csr(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 42 * g.m + 8192, peak / g.m


def test_graph_sorts_unsorted_edges_and_rejects_duplicates():
    g = _line_graph(4, [(1, 3), (0, 2), (1, 2), (0, 1)], [1.0, 2.0, 3.0, 4.0])
    assert list(zip(g.edges_u.tolist(), g.edges_v.tolist())) == \
        [(0, 1), (0, 2), (1, 2), (1, 3)]
    assert g.lengths.tolist() == [4.0, 2.0, 3.0, 1.0]
    assert g.neighbors(1).tolist() == [0, 2, 3]
    for pairs in ([(0, 1), (0, 1)], [(1, 2), (0, 1), (1, 2)]):
        with pytest.raises(ValueError, match="duplicate"):
            _line_graph(4, pairs)


# golden specs grown past one tile width
WIDE_SPECS = {
    "girg": GOLDEN_CASES["girg"][0],
    "igirg": replace(GOLDEN_CASES["igirg"][0], side=2400.0),
    "sfp": replace(GOLDEN_CASES["sfp"][0], radius=25),
    "hrg": replace(GOLDEN_CASES["hrg"][0], n=2200),
}


@pytest.mark.parametrize("threads", [1, 3])
def test_pairwise_sweep_emits_edges_in_pair_order(threads):
    # several tiles per strip, so keys come out of (u, v) order until
    # sorted; Graph then keeps the edges as they come.  At 3, three callers
    # sweep the same vertices at once.
    for name, spec in WIDE_SPECS.items():
        vs = generate(spec, 5).vertices
        runs = _on_threads(threads,
                           lambda: models._pairwise_pairs(spec, 5, vs))
        for u, v in runs:
            keys = u * vs.n + v
            assert vs.n > models._TILE and u.size and (u < v).all(), name
            assert (np.diff(keys) > 0).all(), name
            assert np.array_equal(u, runs[0][0]), name
            assert np.array_equal(v, runs[0][1]), name


# oracles.pair_sweep, the slow reference, decides every pair u < v on its own
SWEEP_SPECS = {
    "girg-d1-alpha2-c1": Girg(n=1, d=1, tau=2.5, alpha=2.0, c=1.0),
    "girg-d2-alpha2-c0": Girg(n=1, d=2, tau=2.5, alpha=2.0, c=0.0),
    "girg-d2-alpha3-c0.5": Girg(n=1, d=2, tau=2.5, alpha=3.0, c=0.5),
    "girg-d1-threshold": Girg(n=1, d=1, tau=2.8, alpha=math.inf, c=1.0),
    "girg-d2-threshold": Girg(n=1, d=2, tau=2.5, alpha=math.inf, c=2.0),
    "girg-d3-alpha2-c0.5": Girg(n=1, d=3, tau=2.5, alpha=2.0, c=0.5),
    "igirg-d1-c1-pinned": IgirgWindow(lam=1.0, d=1, side=2100.0, tau=2.3,
                                      alpha=3.0, c=1.0, pin_origin=True),
    "sfp": SfpWindow(d=2, radius=23, tau=2.5, lambda_perc=1.0,
                     alpha_norm=2.0),
    "hrg-T": Hrg(n=1, alpha_H=0.75, C_H=1.0, T_H=0.5),
    "hrg-threshold": Hrg(n=1, alpha_H=0.75, C_H=1.0),
}
SWEEP_SIZES = (1, 2, models._STRIP - 1, models._STRIP, models._STRIP + 1,
               models._TILE + 40)


def _sweep_vertices(spec, n, seed):
    """n vertices in spec's window: uniform positions (for SfpWindow the
    first n grid points), Pareto weights, the last one at the origin under
    pin_origin."""
    win = spec.window
    if isinstance(spec, SfpWindow):
        axis = np.arange(-spec.radius, spec.radius + 1, dtype=np.float64)
        grid = np.stack(np.meshgrid(*[axis] * win.d, indexing="ij"), axis=-1)
        pos = grid.reshape(-1, win.d)[:n].copy()
    else:
        pos = models._uniform_positions(seed, n, win.d, win.side)
    origin = None
    if getattr(spec, "pin_origin", False):
        pos[-1], origin = 0.0, n - 1
    return VertexSet(win, pos, models._pareto_weights(seed, n, spec.tau),
                     origin_index=origin)


@pytest.mark.parametrize("name", list(SWEEP_SPECS))
def test_pairwise_sweep_matches_pair_by_pair_reference(name):
    spec = SWEEP_SPECS[name]
    for n in SWEEP_SIZES:
        if "n" in spec.__dataclass_fields__:
            spec = replace(spec, n=n)
        vs = _sweep_vertices(spec, n, 11)
        u, v = models._pairwise_pairs(spec, 11, vs)
        ru, rv = oracles.pair_sweep(
            vs.positions, vs.weights, vs.window.side,
            vs.window.boundary == "torus",
            lambda w_u, w_v, dist: connect_prob(spec, w_u, w_v, dist),
            lambda keys: uniform_array(11, "edges", keys))
        assert u.dtype == v.dtype == np.int64, (name, n)
        assert np.array_equal(u, ru) and np.array_equal(v, rv), (name, n)
        if n > models._TILE:            # the c = 0 power kernel has no edges
            assert (u.size > n) == (name != "girg-d2-alpha2-c0"), name


# ---------------------------------------------------------------------------
# the Girg cell sampler against the private all-pairs sweep

EQUIV_SPECS = {
    "alpha2-d2": Girg(n=1024, d=2, tau=2.5, alpha=2.0, c=0.5),
    "criterion5": Girg(n=1024, d=2, tau=2.9, alpha=4.0, c=0.1),
    # the radius is a whole number of cell sides (x = 8), so pbar is 1 at
    # every base level from 2 on
    "pbar1-d1": Girg(n=1024, d=1, tau=2.5, alpha=2.0, c=1.0),
}
EQUIV_SEEDS = range(24)


def _cell_and_pairwise(spec, seed):
    vs = _sweep_vertices(spec, spec.n, seed)
    plan = models._cell_plan(spec, vs.weights)
    return (vs, plan, models._cell_pairs(spec, seed, vs, plan),
            models._pairwise_pairs(spec, seed, vs))


def _edge_set(u, v, n):
    """Sorted pair keys; fails on a self-loop or a duplicate pair."""
    keys = np.sort(u.astype(np.int64) * n + v)
    assert (u < v).all() and (np.diff(keys) > 0).all()
    return keys


def _same_graph(a, b, n):
    return np.array_equal(_edge_set(*a, n), _edge_set(*b, n))


def _pair_classes(spec, vs):
    """oracles.cell_classes of every pair u < v: (iu, iv, p, level, pbar),
    level -1 and pbar 1 for a type I pair."""
    return oracles.cell_classes(
        vs.positions, vs.weights, spec.n, spec.d,
        lambda w_u, w_v, dist: connect_prob(spec, w_u, w_v, dist))


@pytest.mark.parametrize("name", sorted(EQUIV_SPECS))
def test_cell_sampler_decides_each_pair_by_its_class(name):
    spec = EQUIV_SPECS[name]
    far_edges = 0
    for seed in range(3):
        vs, _, (u, v), (pu, pv) = _cell_and_pairwise(spec, seed)
        cell = np.zeros(spec.n * spec.n, dtype=bool)
        cell[_edge_set(u, v, spec.n)] = True
        pair = np.zeros(spec.n * spec.n, dtype=bool)
        pair[_edge_set(pu, pv, spec.n)] = True
        iu, iv, p, level, pbar = _pair_classes(spec, vs)
        keys = iu * spec.n + iv
        coins = uniform_array(seed, "edges", keys)
        near = level < 0
        # bound 1 (type I, or a far class at pbar = 1): the pair's own coin,
        # as in the sweep
        every = pbar == 1.0
        assert np.array_equal(cell[keys[every]], coins[every] <= p[every])
        assert np.array_equal(pair[keys[every]], cell[keys[every]])
        # bound below 1: an edge only when coin * pbar <= p
        hit = ~every & cell[keys]
        assert (coins[hit] * pbar[hit] <= p[hit]).all()
        assert (p[hit] <= pbar[hit]).all()
        far_edges += int((~near & cell[keys]).sum())
        assert (~near).sum() > 0.5 * keys.size      # most pairs are far
    assert far_edges >= 3


@pytest.mark.parametrize("name", sorted(EQUIV_SPECS))
def test_cell_sampler_matches_pairwise_in_distribution(name):
    spec = EQUIV_SPECS[name]
    bins = np.logspace(-8.0, 0.0, 17)
    diffs, deg_diffs = [], []
    obs = np.zeros(bins.size + 1)
    ref = np.zeros(bins.size + 1)
    mean = np.zeros(bins.size + 1)
    var = np.zeros(bins.size + 1)
    for seed in EQUIV_SEEDS:
        vs, _, (u, v), (pu, pv) = _cell_and_pairwise(spec, seed)
        diffs.append(u.size - pu.size)
        # degree by weight decade: cell minus pairwise, per decade
        dec = np.floor(np.log10(vs.weights)).astype(np.int64)
        deg = np.bincount(u, minlength=spec.n) + np.bincount(v, minlength=spec.n)
        pdeg = (np.bincount(pu, minlength=spec.n)
                + np.bincount(pv, minlength=spec.n))
        deg_diffs.append([(deg - pdeg)[dec == k].sum() for k in range(3)])
        # kernel-bin frequencies over the far (type II) pairs
        iu, iv, p, level, _ = _pair_classes(spec, vs)
        far = level >= 0
        which = np.digitize(p[far], bins)
        keys = (iu * spec.n + iv)[far]
        cell = np.zeros(spec.n * spec.n, dtype=bool)
        cell[_edge_set(u, v, spec.n)] = True
        pair = np.zeros(spec.n * spec.n, dtype=bool)
        pair[_edge_set(pu, pv, spec.n)] = True
        cell, pair = cell[keys], pair[keys]
        obs += np.bincount(which, weights=cell, minlength=bins.size + 1)
        ref += np.bincount(which, weights=pair, minlength=bins.size + 1)
        mean += np.bincount(which, weights=p[far], minlength=bins.size + 1)
        var += np.bincount(which, weights=p[far] * (1 - p[far]),
                           minlength=bins.size + 1)
    diffs = np.asarray(diffs, dtype=np.float64)
    # edge counts: a paired t statistic of cell minus pairwise
    t = diffs.mean() / (diffs.std(ddof=1) / math.sqrt(diffs.size))
    assert abs(t) < 4.0, (diffs.mean(), t)
    assert diffs.std() > 0                         # far edges do differ
    deg_diffs = np.asarray(deg_diffs, dtype=np.float64)
    for k in range(3):
        col = deg_diffs[:, k]
        if col.std(ddof=1) > 0:
            assert abs(col.mean()) < 4.0 * col.std(ddof=1) / math.sqrt(col.size)
    # per kernel bin: both samplers land within 4 sd of the expected count
    live = mean >= 5.0
    assert live.sum() >= 4
    for got in (obs, ref):
        z = (got[live] - mean[live]) / np.sqrt(var[live])
        assert (np.abs(z) < 4.0).all(), z


def _far_classes_at_bound_one(spec, plan) -> int:
    """Number of (layer pair, level) far classes whose bound pbar is 1."""
    present = np.unique(plan.layer)
    i, j = np.triu_indices(present.size)
    s = present[i] + present[j]
    base = plan.base[s]
    return sum(int((models._type_two_bound(spec, s[base >= lev], lev)
                    == 1.0).sum()) for lev in range(2, int(base.max()) + 1))


@pytest.mark.parametrize("spec", [
    Girg(n=1024, d=2, tau=2.5, alpha=math.inf, c=1.0),
    EQUIV_SPECS["pbar1-d1"],
])
def test_cell_sampler_coins_every_class_at_bound_one(spec, monkeypatch):
    # a far class at pbar = 1 goes through _coin_edges pair by pair, and
    # _skip_candidates only ever skips under a bound below 1
    coined, bounds = [], []
    real_coin, real_skip = models._coin_edges, models._skip_candidates

    def coin_spy(spec_, seed, axes, w, order, a0, na, b0, nb, same):
        for k in range(na.size):
            a = order[a0[k]:a0[k] + na[k]]
            b = order[b0[k]:b0[k] + nb[k]]
            lo, hi = np.minimum.outer(a, b), np.maximum.outer(a, b)
            coined.append((lo * spec.n + hi)[lo < hi])
        return real_coin(spec_, seed, axes, w, order, a0, na, b0, nb, same)

    def skip_spy(seed, labels, begin, end, pbar):
        bounds.append(pbar.copy())
        return real_skip(seed, labels, begin, end, pbar)

    monkeypatch.setattr(models, "_coin_edges", coin_spy)
    monkeypatch.setattr(models, "_skip_candidates", skip_spy)
    vs = _sweep_vertices(spec, spec.n, 3)
    models._cell_pairs(spec, 3, vs, models._cell_plan(spec, vs.weights))
    iu, iv, _, level, pbar = _pair_classes(spec, vs)
    whole = (iu * spec.n + iv)[(level >= 0) & (pbar == 1.0)]
    assert whole.size > 1000
    assert np.isin(whole, np.concatenate(coined)).all()
    bounds = np.concatenate(bounds or [np.zeros(0)])
    assert ((bounds > 0.0) & (bounds < 1.0)).all()


def test_cell_sampler_threshold_kernel_equals_pairwise():
    # pbar is 0 or 1 under the threshold kernel, so every far pair that
    # can connect is decided by its own coin: same graph, far levels
    # included.  No golden case has a far class at pbar = 1; the d = 2
    # graphs have 10 each.
    for spec, seeds in ((Girg(n=2048, d=1, tau=2.5, alpha=math.inf, c=1.0), 5),
                        (Girg(n=4096, d=2, tau=2.5, alpha=math.inf, c=1.0), 2)):
        for seed in range(seeds):
            vs, plan, cell, pair = _cell_and_pairwise(spec, seed)
            assert _far_classes_at_bound_one(spec, plan) > 0
            assert _same_graph(cell, pair, spec.n)


@pytest.mark.parametrize("spec", [
    Girg(n=700, d=2, tau=2.5, alpha=2.0, c=200.0),  # base 1, p fractional
    Girg(n=15, d=2, tau=2.5, alpha=2.0, c=0.5),     # no level beyond 1
    Girg(n=900, d=1, tau=2.2, alpha=3.0, c=1e6),    # base 1, p fractional
    Girg(n=700, d=3, tau=2.5, alpha=2.0, c=10.0),   # base 1, p fractional
])
def test_cell_sampler_all_type_one_is_the_pairwise_graph(spec):
    for seed in range(3):
        vs, plan, cell, pair = _cell_and_pairwise(spec, seed)
        assert plan.base.max() <= 1
        assert cell[0].size > 0
        assert _same_graph(cell, pair, spec.n)


def test_generate_picks_the_sampler_from_the_examined_pairs():
    for spec in (Girg(n=4096, d=2, tau=2.5, alpha=2.0, c=0.5),
                 Girg(n=1024, d=2, tau=2.5, alpha=2.0, c=0.5)):
        g = generate(spec, 5)
        vs, plan, cell, pair = _cell_and_pairwise(spec, 5)
        assert plan.pays_off(spec.n) == (spec.n == 4096)
        assert not _same_graph(cell, pair, spec.n)
        assert _same_graph((g.edges_u, g.edges_v),
                           cell if spec.n == 4096 else pair, spec.n)
