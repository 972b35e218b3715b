"""Sweep harness, diagnostics, and the one-off experiments."""
from __future__ import annotations

import math

import numpy as np
import pytest

from pplab import calibration
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
    _near_critical,
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
    giant = sorted(largest_component(g))
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
    assert cell_verdict(2.5, 2.0, PROD, 0.1, PolyAtZero(0.1)) == \
        "ExplosiveLengthwise"
    assert cell_verdict(2.5, 2.0, PROD, 1.0, PolyAtZero(1.0)) == \
        "Conservative"
    # mu = 0 strips the weights: the verdict is the length law's alone
    flat = product_penalty(0.0)
    assert cell_verdict(2.5, 2.0, flat, 1.0, Exponential(1.0)) == \
        "FppExplosive"
    assert cell_verdict(2.5, 2.0, flat, 1.0, DoubleExpFlat(2.0, 1.0, 1.0)) == \
        "FppConservative"


def test_near_critical_flags_ten_percent_window():
    assert _near_critical(PROD, 2.5, 0.25)        # beta_c exactly
    assert _near_critical(PROD, 2.5, 0.26)
    assert not _near_critical(PROD, 2.5, 0.1)
    assert not _near_critical(PROD, 2.5, 1.0)
    assert not _near_critical(product_penalty(0.0), 2.5, 0.25)


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
    for c in cells:
        assert c.reason is None
        assert len(c.distances) == 16
        assert c.median_d == pytest.approx(float(np.median(c.distances)))
        assert c.q1 <= c.median_d <= c.q3
        assert 0.0 < c.giant_frac <= 1.0
        assert not c.near_critical
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
    for c in cells:
        assert c.reason == ("giant-too-small" if c.n == 8 else None)
        assert c.distances.size == (0 if c.n == 8 else 12)


def test_sweep_empty_cell_reason():
    spec = SweepSpec(base=Girg(n=1, d=2, tau=2.5, alpha=2.0, c=0.0),
                     f=PROD, law_family=PolyAtZero, beta_grid=(0.1,),
                     size_grid=(64,), pairs_per_graph=3, graphs_per_cell=1,
                     seed=1)
    cell = phase_sweep(spec)[0]
    assert cell.reason == "giant-too-small"
    assert cell.distances.size == 0
    assert math.isnan(cell.median_d)
    row = sweep_to_csv([cell]).strip().split("\n")[1]
    assert row.split(",")[2] == "nan"


def test_trend_helpers():
    assert trend_slope([1024, 2048, 4096], [1.0, 1.05, 1.1]) == \
        pytest.approx(0.05)
    assert trend_slope((4096, 1024, 2048), (1.1, 1.0, 1.05)) == \
        pytest.approx(0.05)
    with pytest.raises(ValueError):
        trend_slope([1024], [1.0])
    assert strictly_increasing([1.0, 2.0, 3.0])
    assert not strictly_increasing([1.0, 2.0, 2.0])


# ---------------------------------------------------------------------------
# degree and tail diagnostics


def test_degree_weight_profile_decades():
    g = _tiny_graph(4, [(0, 1, 1.0), (0, 2, 1.0)], [1.0, 2.0, 9.0, 15.0])
    prof = degree_weight_profile(g)
    assert [p.decade for p in prof] == [0, 1]
    low = prof[0]
    assert low.count == 3
    assert low.mean_degree == pytest.approx(4.0 / 3.0)
    assert low.mean_weight == pytest.approx(4.0)
    assert low.ratio == pytest.approx(low.mean_degree / low.mean_weight)
    assert not low.reliable
    assert prof[1].count == 1 and prof[1].mean_degree == 0.0


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
            sizes=(32,), reps=1)


# ---------------------------------------------------------------------------
# asymmetry


def test_asymmetry_symmetric_penalty_is_direction_blind():
    res = asymmetry_experiment(PROD, (8.0, 16.0), 1.0, 10,
                               length_law=PolyAtZero(1.0), seed=77)
    for r in res:
        np.testing.assert_array_equal(r.outward_counts, r.inward_counts)
        assert r.origin_weights.min() >= 1.0
        assert r.outward_counts.shape == (10,)


def test_asymmetry_t_zero_counts_nothing():
    # continuous length law: zero-cost edges have probability zero
    res = asymmetry_experiment(monomial_penalty(3.0, 0.25), (8.0,), 0.0, 8,
                               length_law=PolyAtZero(1.0), seed=13)
    assert res[0].outward_counts.sum() == 0
    assert res[0].inward_counts.sum() == 0


def test_asymmetry_domain_checks():
    with pytest.raises(ValueError, match="tau"):
        asymmetry_experiment(PROD, (8.0,), 1.0, 2, tau=2.5)
    with pytest.raises(ValueError):
        asymmetry_experiment(PROD, (8.0,), 1.0, 0)


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
    res = asymmetry_experiment(
        f, (32.0, 512.0), calibration.ASYMMETRY_T, 70,
        length_law=PolyAtZero(1.0), seed=2026)
    flags = direction_criterion(res, 2,
                                band=calibration.ASYMMETRY_WEIGHT_BAND)
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
    rows = hrg_kernel_validation(2048, 0.75, 1.0, 0.5, 1, seed=314,
                                 pairs_per_rep=150_000)
    assert all(r.lo < r.hi for r in rows)
    busy = [r for r in rows if r.pairs >= calibration.HRG_KERNEL_MIN_PAIRS]
    assert len(busy) >= 5
    for r in busy:
        assert 0.0 <= r.frequency <= 1.0
        assert 0.0 <= r.prediction <= 1.0
        assert abs(r.frequency - r.prediction) <= 0.02
    with pytest.raises(ValueError):
        hrg_kernel_validation(256, 0.75, 1.0, None, 1)
