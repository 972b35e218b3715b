"""Sweep harness, diagnostics, and the one-off experiments."""
from __future__ import annotations

import math
import multiprocessing
import os
import warnings

import numpy as np
import pytest

from pplab import calibration, experiments
from pplab.cost import monomial_penalty, product_penalty
from pplab.experiments import (
    AsymmetrySideResult,
    SweepSpec,
    asymmetry_experiment,
    cell_verdict,
    degree_weight_profile,
    direction_criterion,
    giant_fraction_curve,
    hrg_kernel_validation,
    hrg_mapped_probability,
    phase_sweep,
    strictly_increasing,
    sweep_to_csv,
    tail_exponent_estimate,
    trend_slope,
    two_point_distance,
)
from pplab.geometry import Window
from pplab.metrics import distance_matrix, largest_component
from pplab.models import Girg, Graph, VertexSet
from pplab.rng import DoubleExpFlat, Exponential, PolyAtZero

PROD = product_penalty(1.0)


def _tiny_graph(n, edges, weights):
    window = Window(d=1, side=50.0, boundary="hard")
    rng = np.random.default_rng(n)
    vs = VertexSet(window, (rng.random((n, 1)) - 0.5) * 40,
                   np.asarray(weights, dtype=np.float64))
    eu = np.array([min(a, b) for a, b, _ in edges], dtype=np.int64)
    ev = np.array([max(a, b) for a, b, _ in edges], dtype=np.int64)
    ls = np.array([l for _, _, l in edges], dtype=np.float64)
    return Graph(vs, eu, ev, ls)


# ---------------------------------------------------------------------------
# two-point distances


def test_two_point_on_a_two_vertex_component():
    g = _tiny_graph(3, [(0, 1, 2.0)], [2.0, 3.0, 1.0])
    d = two_point_distance(g, PROD, 4, seed=5)
    # the only giant pair is {0, 1} at cost 2 * 2 * 3 either way
    assert d == [12.0] * 4


def test_two_point_zero_pairs_and_small_giant():
    g = _tiny_graph(3, [(0, 1, 2.0)], [2.0, 3.0, 1.0])
    assert two_point_distance(g, PROD, 0, seed=5) == []
    lonely = _tiny_graph(3, [], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="largest component"):
        two_point_distance(lonely, PROD, 1, seed=5)
    with pytest.raises(ValueError):
        two_point_distance(g, PROD, -1, seed=5)


def test_two_point_distances_come_from_giant_pairs():
    rng = np.random.default_rng(17)
    edges = []
    for i in range(8):
        for j in range(i + 1, 8):
            if rng.random() < 0.4:
                edges.append((i, j, float(rng.random())))
    g = _tiny_graph(8, edges, 1.0 + rng.pareto(1.5, 8))
    giant = largest_component(g).tolist()
    if len(giant) < 2:
        pytest.skip("degenerate draw")
    f = monomial_penalty(1.2, 0.4)
    dmat = distance_matrix(g, f, giant)
    valid = {round(float(dmat[i, v]), 9)
             for i in range(len(giant)) for v in giant}
    for d in two_point_distance(g, f, 25, seed=99):
        assert round(d, 9) in valid
        assert math.isfinite(d)


def test_two_point_is_deterministic_in_seed():
    rng = np.random.default_rng(3)
    edges = [(i, j, float(rng.random()))
             for i in range(9) for j in range(i + 1, 9) if rng.random() < 0.5]
    g = _tiny_graph(9, edges, np.ones(9) + rng.random(9))
    a = two_point_distance(g, PROD, 12, seed=1234)
    b = two_point_distance(g, PROD, 12, seed=1234)
    c = two_point_distance(g, PROD, 12, seed=4321)
    assert a == b
    assert a != c


# ---------------------------------------------------------------------------
# verdicts and sweep plumbing


def test_cell_verdict_covers_all_routes():
    assert cell_verdict(2.5, 2.0, PROD, PolyAtZero(0.1)) == \
        "ExplosiveLengthwise"
    assert cell_verdict(2.5, 2.0, PROD, PolyAtZero(1.0)) == "Conservative"
    # Exponential decays linearly at 0 (beta- = beta+ = 1) at every rate
    assert cell_verdict(2.5, 2.0, PROD, Exponential(0.1)) == "Conservative"
    # mu = 0 strips the weights: the verdict is the length law's alone
    flat = product_penalty(0.0)
    assert cell_verdict(2.5, 2.0, flat, Exponential(1.0)) == "FppExplosive"
    assert cell_verdict(2.5, 2.0, flat, DoubleExpFlat(2.0, 1.0, 1.0)) == \
        "FppConservative"


def test_sweep_verdicts_read_the_law_exponents():
    # the grid value 0.1 is Exponential's rate here, not its beta (1)
    spec = SweepSpec(base=Girg(n=1, d=2, tau=2.5, alpha=2.0, c=0.5), f=PROD,
                     law_family=Exponential, beta_grid=(0.1,),
                     size_grid=(64,), pairs_per_graph=2, graphs_per_cell=1)
    assert [c.verdict for c in phase_sweep(spec)] == ["Conservative"]


def test_sweep_spec_validation():
    base = Girg(n=1, d=2, tau=2.5, alpha=2.0, c=0.5)
    ok = dict(base=base, f=PROD, law_family=PolyAtZero, beta_grid=(0.1,),
              size_grid=(128,))
    SweepSpec(**ok)
    with pytest.raises(ValueError):
        SweepSpec(**{**ok, "beta_grid": ()})
    with pytest.raises(ValueError):
        SweepSpec(**{**ok, "size_grid": ()})
    with pytest.raises(ValueError):
        SweepSpec(**{**ok, "pairs_per_graph": 0})
    with pytest.raises(ValueError, match="cap"):
        SweepSpec(**{**ok, "size_grid": (64, 200_000)})
    with pytest.raises(ValueError):  # a size the model itself refuses
        SweepSpec(**{**ok, "size_grid": (64, 0)})
    with pytest.raises(ValueError):  # beta outside the classifier's domain
        SweepSpec(**{**ok, "beta_grid": (-0.5,)})


def test_sweep_spec_refuses_repeated_grid_values_and_bad_seeds():
    # a repeated value would write its CSV row twice
    ok = dict(base=Girg(n=1, d=2, tau=2.5, alpha=2.0, c=0.5), f=PROD,
              law_family=PolyAtZero, beta_grid=(0.1, 1.0),
              size_grid=(64, 128))
    with pytest.raises(ValueError, match=r"^size_grid repeats 64$"):
        SweepSpec(**{**ok, "size_grid": (64, 128, 64)})
    with pytest.raises(ValueError, match=r"^beta_grid repeats 1.0$"):
        SweepSpec(**{**ok, "beta_grid": (1.0, 1.0)})
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="master_seed must fit in 64"):
            SweepSpec(**ok, seed=seed)
    SweepSpec(**ok, seed=2**64 - 1)


def _measured(spec) -> dict:
    """n -> the (giant fraction, per-beta distances or None) of each graph,
    in graph order, from _measure_graph: what phase_sweep pools."""
    return {n: [experiments._measure_graph(spec, (n, gi))
                for gi in range(spec.graphs_per_cell)]
            for n in spec.size_grid}


@pytest.fixture(scope="module")
def small_sweep():
    spec = SweepSpec(base=Girg(n=1, d=2, tau=2.5, alpha=2.0, c=0.5),
                     f=PROD, law_family=PolyAtZero,
                     beta_grid=(1.0, 0.1), size_grid=(512, 256),
                     pairs_per_graph=8, graphs_per_cell=2, seed=424)
    return spec, phase_sweep(spec)


def test_phase_sweep_cells(small_sweep):
    spec, cells = small_sweep
    assert len(cells) == 4
    assert [(c.beta, c.n) for c in cells] == \
        [(0.1, 256), (0.1, 512), (1.0, 256), (1.0, 512)]
    measured = _measured(spec)
    for c in cells:
        assert c.reason is None
        # pairs_per_graph x graphs_per_cell distances, pooled
        i = spec.beta_grid.index(c.beta)
        pooled = [d for _, dists in measured[c.n] for d in dists[i]]
        assert len(pooled) == 16
        assert [c.q1, c.median_d, c.q3] == \
            np.quantile(pooled, [0.25, 0.5, 0.75]).tolist()
        assert c.q1 <= c.median_d <= c.q3
        assert 0.0 < c.giant_frac <= 1.0
        assert c.seed == 424
    assert {c.beta: c.verdict for c in cells} == \
        {0.1: "ExplosiveLengthwise", 1.0: "Conservative"}


def test_sweep_csv_shape_and_determinism(small_sweep):
    spec, cells = small_sweep
    text = sweep_to_csv(cells)
    lines = text.strip().split("\n")
    assert lines[0] == "beta,n,median_d,q1,q3,giant_frac,verdict,seed"
    assert len(lines) == 5
    assert lines[1].startswith("0.1,256,")
    assert lines[1].endswith(",ExplosiveLengthwise,424")
    # a fresh identical sweep serializes to the same bytes
    assert sweep_to_csv(phase_sweep(spec)) == text


# Recorded before the sweep ran one base graph at a time.  At size 8 the
# first graph has a 4-vertex giant and the second has no edge, so both
# cells at n = 8 fail on their second graph: no distances, and giant_frac
# is the mean of 4/8 and 1/8 over the two graphs reached (not the third).
PINNED_SWEEP_CSV = """\
beta,n,median_d,q1,q3,giant_frac,verdict,seed
0.1,8,nan,nan,nan,0.3125,ExplosiveLengthwise,37
0.1,48,0.1104532765561056,2.7948990300635226e-06,3.4394791228894452,0.2986111111111111,ExplosiveLengthwise,37
1.0,8,nan,nan,nan,0.3125,Conservative,37
1.0,48,8.94740697707488,6.533380064325728,13.886825033251895,0.2986111111111111,Conservative,37
"""


def test_sweep_csv_pinned_with_a_cell_failing_after_its_first_graph():
    spec = SweepSpec(base=Girg(n=1, d=2, tau=2.5, alpha=2.0, c=0.003),
                     f=PROD, law_family=PolyAtZero, beta_grid=(1.0, 0.1),
                     size_grid=(48, 8), pairs_per_graph=4, graphs_per_cell=3,
                     seed=37)
    cells = phase_sweep(spec)
    assert sweep_to_csv(cells) == PINNED_SWEEP_CSV
    measured = _measured(spec)
    for c in cells:
        assert c.reason == ("giant-too-small" if c.n == 8 else None)
        failed = [dists is None for _, dists in measured[c.n]]
        assert failed[1] == (c.reason is not None)  # graph 2 fails at n = 8
        if c.n == 48:
            i = spec.beta_grid.index(c.beta)
            assert [len(d[i]) for _, d in measured[c.n]] == [4] * 3


@pytest.fixture
def pool_calls(monkeypatch):
    """Counts the sweeps that go to the process pool."""
    calls = []
    real = experiments._pool_map

    def spy(spec, jobs, workers):
        calls.append(workers)
        return real(spec, jobs, workers)

    monkeypatch.setattr(experiments, "_pool_map", spy)
    return calls


def _with_cpus(monkeypatch, cpus):
    monkeypatch.setattr(experiments, "_available_cpus", lambda: cpus)


@pytest.mark.parametrize("cpus", [1, 3])
def test_pinned_sweep_csv_on_the_pool_and_the_builtin_map(monkeypatch,
                                                          pool_calls, cpus):
    _with_cpus(monkeypatch, cpus)
    test_sweep_csv_pinned_with_a_cell_failing_after_its_first_graph()
    assert pool_calls == ([] if cpus == 1 else [3])
    assert multiprocessing.active_children() == []


def test_pool_and_builtin_map_write_the_same_bytes(monkeypatch, pool_calls):
    spec = SweepSpec(base=Girg(n=1, d=2, tau=2.5, alpha=2.0, c=0.5),
                     f=PROD, law_family=PolyAtZero, beta_grid=(1.0, 0.1),
                     size_grid=(256, 512), pairs_per_graph=6,
                     graphs_per_cell=3, seed=91)
    _with_cpus(monkeypatch, 1)
    serial = sweep_to_csv(phase_sweep(spec))
    assert pool_calls == []
    _with_cpus(monkeypatch, 3)
    assert sweep_to_csv(phase_sweep(spec)) == serial
    assert pool_calls == [3]
    assert len(serial.splitlines()) == 5
    assert "nan" not in serial
    assert multiprocessing.active_children() == []


def test_pool_runs_a_spec_whose_law_family_is_a_lambda(monkeypatch,
                                                       pool_calls):
    # criterion 3's spec: a lambda cannot be pickled, so the spec must reach
    # the workers through fork alone
    spec = SweepSpec(base=Girg(n=1, d=2, tau=2.5, alpha=2.0, c=0.5),
                     f=product_penalty(0.0),
                     law_family=lambda b: Exponential(b), beta_grid=(1.0,),
                     size_grid=(128, 256), pairs_per_graph=4,
                     graphs_per_cell=2, seed=5)
    _with_cpus(monkeypatch, 1)
    serial = sweep_to_csv(phase_sweep(spec))
    _with_cpus(monkeypatch, 3)
    assert sweep_to_csv(phase_sweep(spec)) == serial
    assert pool_calls == [3]
    assert ",FppExplosive," in serial
    assert multiprocessing.active_children() == []


def test_a_worker_error_reaches_the_caller_and_no_worker_survives(
        monkeypatch, pool_calls):
    parent = os.getpid()

    def broken_generate(*args, **kwargs):
        raise ZeroDivisionError(f"drawn in {os.getpid() != parent}")

    monkeypatch.setattr(experiments, "generate", broken_generate)
    _with_cpus(monkeypatch, 3)
    spec = SweepSpec(base=Girg(n=1, d=2, tau=2.5, alpha=2.0, c=0.5),
                     f=PROD, law_family=PolyAtZero, beta_grid=(0.1,),
                     size_grid=(64, 128), pairs_per_graph=2,
                     graphs_per_cell=3, seed=2)
    with pytest.raises(ZeroDivisionError, match="drawn in True"):
        phase_sweep(spec)
    assert pool_calls == [3]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 3])
def test_a_value_error_in_a_job_reaches_the_caller(monkeypatch, pool_calls,
                                                   cpus):
    # only a giant below 2 vertices fails a cell; any other error is a
    # fault, not a nan row
    def broken_two_point(*args, **kwargs):
        raise ValueError("pair draw broke")

    monkeypatch.setattr(experiments, "two_point_distance", broken_two_point)
    _with_cpus(monkeypatch, cpus)
    spec = SweepSpec(base=Girg(n=1, d=2, tau=2.5, alpha=2.0, c=0.5),
                     f=PROD, law_family=PolyAtZero, beta_grid=(1.0, 0.1),
                     size_grid=(64, 128), pairs_per_graph=2,
                     graphs_per_cell=2, seed=2)
    with pytest.raises(ValueError, match=r"^pair draw broke$"):
        phase_sweep(spec)
    assert pool_calls == ([] if cpus == 1 else [3])
    assert multiprocessing.active_children() == []


def test_sweep_empty_cell_reason():
    spec = SweepSpec(base=Girg(n=1, d=2, tau=2.5, alpha=2.0, c=0.0),
                     f=PROD, law_family=PolyAtZero, beta_grid=(0.1,),
                     size_grid=(64,), pairs_per_graph=3, graphs_per_cell=1,
                     seed=1)
    cell = phase_sweep(spec)[0]
    assert cell.reason == "giant-too-small"
    assert math.isnan(cell.median_d)
    row = sweep_to_csv([cell]).strip().split("\n")[1]
    assert row.split(",")[2] == "nan"


def test_quartiles_are_exact_next_to_an_overflowing_cost():
    inf = math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")     # numpy's inf - inf would warn
        assert experiments._quartiles([inf]) == [inf] * 3
        # fractions 1/2, 0, 1/2: the upper order statistic is +inf
        assert experiments._quartiles([1.0, inf, inf]) == [inf] * 3
        # fractions 0: each quartile is an order statistic, finite or not
        assert experiments._quartiles([1.0, 2.0, 3.0, 4.0, inf]) == \
            [2.0, 3.0, 4.0]
        assert experiments._quartiles([1.0, 2.0, 3.0, inf]) == \
            [1.75, 2.5, inf]
    assert all(map(math.isnan, experiments._quartiles([])))
    rng = np.random.default_rng(23)
    for size in range(1, 40):
        x = rng.pareto(0.5, size)
        assert experiments._quartiles(x) == \
            np.quantile(x, [0.25, 0.5, 0.75]).tolist()


def test_trend_helpers():
    assert trend_slope([1024, 2048, 4096], [1.0, 1.05, 1.1]) == \
        pytest.approx(0.05)
    assert trend_slope((4096, 1024, 2048), (1.1, 1.0, 1.05)) == \
        pytest.approx(0.05)
    # four unequally spaced sizes off one line: least squares gives 0.09,
    # the endpoint slope (1.5 - 1.0) / 4 would give 0.125
    assert trend_slope([1024, 2048, 8192, 16384], [1.0, 1.3, 1.2, 1.5]) == \
        pytest.approx(0.09)
    with pytest.raises(ValueError):
        trend_slope([1024], [1.0])
    assert strictly_increasing([1.0, 2.0, 3.0])
    assert not strictly_increasing([1.0, 2.0, 2.0])


# ---------------------------------------------------------------------------
# degree and tail diagnostics


def test_degree_weight_profile_decades():
    g = _tiny_graph(4, [(0, 1, 1.0), (0, 2, 1.0)], [1.0, 2.0, 9.0, 15.0])
    prof = degree_weight_profile(g)
    assert len(prof) == 2                   # decades [1, 10) and [10, 100)
    low = prof[0]
    # three vertices of mean degree 4/3 and mean weight 4
    assert low.ratio == pytest.approx((4.0 / 3.0) / 4.0)
    assert not low.reliable
    assert prof[1].ratio == 0.0             # weight 15, degree 0


def test_degree_weight_profile_trivial_cases():
    g = _tiny_graph(3, [], [2.0, 3.0, 4.0])
    prof = degree_weight_profile(g)
    assert len(prof) == 1
    assert prof[0].ratio == 0.0


def test_tail_exponent_on_exact_pareto():
    rng = np.random.default_rng(1)
    sample = rng.random(100_000) ** (-1.0 / 1.5)
    est = tail_exponent_estimate(sample, 0.01)
    assert abs(est - 1.5) <= 0.15


def test_tail_exponent_errors():
    with pytest.raises(ValueError, match="exceedances"):
        tail_exponent_estimate(np.ones(50), 1.0)
    with pytest.raises(ValueError, match="constant"):
        tail_exponent_estimate(np.ones(1000), 0.5)
    with pytest.raises(ValueError):
        tail_exponent_estimate(np.ones(1000), 0.0)
    with pytest.raises(ValueError):
        tail_exponent_estimate(np.full(1000, -1.0), 0.5)


# ---------------------------------------------------------------------------
# giant component curve


def test_giant_curve_degenerate_kernels():
    flat = giant_fraction_curve(
        lambda n: Girg(n=n, d=2, tau=2.5, alpha=2.0, c=0.0),
        sizes=(64,), reps=3, seed=9)
    assert flat[0].mean_fraction == pytest.approx(1.0 / 64.0)
    assert flat[0].mean_second_fraction == pytest.approx(1.0 / 64.0)
    full = giant_fraction_curve(
        lambda n: Girg(n=n, d=2, tau=2.5, alpha=2.0, c=1.0e9),
        sizes=(64,), reps=2, seed=9)
    assert full[0].mean_fraction == 1.0
    assert full[0].mean_second_fraction == 0.0


def test_giant_curve_tau_domain():
    with pytest.raises(ValueError, match="tau"):
        giant_fraction_curve(
            lambda n: Girg(n=n, d=2, tau=3.5, alpha=2.0, c=0.5),
            sizes=(32,), reps=1, seed=0)


# ---------------------------------------------------------------------------
# asymmetry


def test_asymmetry_symmetric_penalty_is_direction_blind():
    res = asymmetry_experiment(PROD, (8.0, 16.0), 1.0, 10, seed=77)
    for r in res:
        np.testing.assert_array_equal(r.outward_counts, r.inward_counts)
        assert r.origin_weights.min() >= 1.0
        assert r.outward_counts.shape == (10,)


def test_asymmetry_t_zero_counts_nothing():
    # continuous length law: zero-cost edges have probability zero
    res = asymmetry_experiment(monomial_penalty(3.0, 0.25), (8.0,), 0.0, 8,
                               seed=13)
    assert res[0].outward_counts.sum() == 0
    assert res[0].inward_counts.sum() == 0


def test_asymmetry_domain_checks():
    with pytest.raises(ValueError):
        asymmetry_experiment(PROD, (8.0,), 1.0, 0, seed=0)


def test_direction_criterion_validation():
    mk = lambda n: AsymmetrySideResult(8.0, np.zeros(n), np.zeros(n),
                                       np.ones(n))
    with pytest.raises(ValueError):
        direction_criterion([mk(10)], 2)
    with pytest.raises(ValueError):
        direction_criterion([mk(10), mk(8)], 2)
    with pytest.raises(ValueError):
        direction_criterion([mk(10), mk(10)], 0)
    with pytest.raises(ValueError):
        direction_criterion([mk(4), mk(4)], 8)


def test_direction_criterion_on_pinned_asymmetric_penalty():
    # small-scale version of the pinned run; the full batch criterion
    # lives in the acceptance suite
    f = monomial_penalty(3.0, 0.25)
    res = asymmetry_experiment(f, (32.0, 512.0), calibration.ASYMMETRY_T, 70,
                               seed=2026)
    flags = direction_criterion(res, 2)
    assert flags == [True, True]


# ---------------------------------------------------------------------------
# mapped hyperbolic kernel


def test_hrg_mapped_probability_limits():
    assert hrg_mapped_probability(0.0, 0.5) == 1.0
    assert hrg_mapped_probability(np.inf, 0.5) == 0.0
    grid = np.logspace(-3, 3, 50)
    p = hrg_mapped_probability(grid, 0.5)
    assert np.all(np.diff(p) < 0)
    assert hrg_mapped_probability(1.0, 0.5) == pytest.approx(0.5)


def test_hrg_kernel_validation_matches_prediction():
    rows = hrg_kernel_validation(2048, 0.75, 1.0, 0.5, 1, seed=314)
    assert len(rows) == 24
    busy = [r for r in rows if r.pairs >= calibration.HRG_KERNEL_MIN_PAIRS]
    assert len(busy) >= 5
    for r in busy:
        assert 0.0 <= r.frequency <= 1.0
        assert 0.0 <= r.prediction <= 1.0
        assert abs(r.frequency - r.prediction) <= 0.02
    with pytest.raises(ValueError):
        hrg_kernel_validation(256, 0.75, 1.0, None, 1, seed=0)
