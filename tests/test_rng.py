"""Randomness module: pinned examples and distributional invariants."""
import math

import numpy as np
import pytest
from scipy import stats

from pplab.rng import (
    DoubleExpFlat,
    Exponential,
    PointMass,
    PolyAtZero,
    SeedSpec,
    WeightLaw,
    sample_poisson,
    sample_weights,
    uniform,
    uniform_array,
    weight_from_uniform,
)


# --------------------------------------------------------------------------
# weights

def test_weight_at_u_one_is_lower_endpoint():
    assert weight_from_uniform(1.0, WeightLaw(tau=2.9)) == 1.0


def test_weight_pinned_values():
    # frozen from 40-digit evaluation of U**(-1/(tau-1))
    assert weight_from_uniform(0.25, WeightLaw(tau=2.9)) == pytest.approx(
        2.074310088892384, rel=1e-12
    )
    assert weight_from_uniform(0.5, WeightLaw(tau=3.5)) == pytest.approx(
        1.3195079107728943, rel=1e-12
    )


def test_weight_cap_clips():
    law = WeightLaw(tau=2.0, cap=10.0)
    assert weight_from_uniform(1e-6, law) == 10.0
    assert weight_from_uniform(0.9, law) == pytest.approx(1.0 / 0.9)


def test_weight_ks_statistic():
    law = WeightLaw(tau=2.5)
    w = sample_weights(987654321, "ks-weights", 100_000, law)
    stat = stats.kstest(w, lambda x: law.cdf(x)).statistic
    assert stat < 0.01


def test_sample_weight_matches_array_path():
    law = WeightLaw(tau=2.5)
    w_scalar = [weight_from_uniform(uniform(SeedSpec(42, "w", k)), law)
                for k in range(64)]
    w_vec = sample_weights(42, "w", 64, law)
    assert np.array_equal(np.array(w_scalar), w_vec)


# --------------------------------------------------------------------------
# uniform stream determinism

def test_replay_is_bit_identical():
    spec = SeedSpec(123456789, "replay", 777)
    assert uniform(spec) == uniform(spec)
    a = uniform_array(123456789, "replay", np.arange(1000))
    b = uniform_array(123456789, "replay", np.arange(1000)[::-1])[::-1]
    assert np.array_equal(a, b)  # order independence


def test_distinct_labels_decorrelate():
    a = uniform_array(5, "stream-a", np.arange(20000))
    b = uniform_array(5, "stream-b", np.arange(20000))
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.03
    assert not np.array_equal(a, b)


def test_uniform_range_half_open():
    u = uniform_array(99, "range", np.arange(100000))
    assert u.min() > 0.0
    assert u.max() <= 1.0


# --------------------------------------------------------------------------
# edge-length laws: pinned examples

def test_poly_cdf_examples():
    law = PolyAtZero(2.0)
    assert law.cdf(0.5) == 0.25
    assert law.cdf(0.0) == 0.0
    assert law.cdf(2.0) == 1.0


def test_exponential_cdf_example():
    # frozen from 40-digit 1 - e^{-0.1}
    assert Exponential(1.0).cdf(0.1) == pytest.approx(0.09516258196404043, rel=1e-12)


def test_quantile_examples():
    assert PolyAtZero(2.0).quantile(0.25) == 0.5
    assert Exponential(1.0).quantile(1.0 - math.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)
    assert PointMass(0.3).quantile(0.7) == 0.3


def test_quantile_rejects_out_of_range():
    with pytest.raises(ValueError):
        PolyAtZero(1.0).quantile(0.0)
    with pytest.raises(ValueError):
        PolyAtZero(1.0).quantile(1.5)


LAWS = [
    PolyAtZero(0.5),
    PolyAtZero(2.0),
    Exponential(1.0),
    Exponential(0.25),
    DoubleExpFlat(2.0, 1.0, 1.0),
    PointMass(0.0),
    PointMass(0.3),
]


@pytest.mark.parametrize("law", LAWS, ids=lambda l: type(l).__name__ + repr(getattr(l, "__dict__", "")))
def test_quantile_inequality_exact(law):
    # F_L(quantile(y)) >= y must hold exactly, not within tolerance
    rng = np.random.default_rng(2024)
    ys = rng.uniform(1e-12, 1.0 - 1e-12, size=1000)
    q = law.quantile(ys)
    assert np.all(law.cdf(q) >= ys)


def test_beta_exponents():
    assert PolyAtZero(0.7).beta_minus == 0.7 == PolyAtZero(0.7).beta_plus
    assert Exponential(3.0).beta_minus == 1.0
    assert DoubleExpFlat(1.5, 2.0, 0.5).beta_minus == math.inf
    assert PointMass(0.0).beta_plus == 0.0
    assert PointMass(1.0).beta_minus == math.inf


def test_double_exp_flat_cdf_shape():
    law = DoubleExpFlat(2.0, 1.0, 1.0)
    ts = np.array([0.5, 0.7, 0.9, 0.99])  # below ~0.3 the cdf underflows to 0.0
    vals = law.cdf(ts)
    assert np.all(np.diff(vals) > 0)
    assert law.cdf(0.0) == 0.0
    assert law.cdf(1.0) == 1.0
    assert law.cdf(1e-4) == 0.0  # underflows flat to zero


def test_explosion_sum_flags():
    assert PolyAtZero(0.5).explosion_sum_converges
    assert Exponential(1.0).explosion_sum_converges
    assert not DoubleExpFlat(2.0, 1.0, 1.0).explosion_sum_converges
    assert PointMass(0.0).explosion_sum_converges
    assert not PointMass(2.0).explosion_sum_converges


# --------------------------------------------------------------------------
# minimum-of-N quantile bound:
# P( min_{j<=N} L_j > quantile(zeta/N) ) <= e^{-zeta}

@pytest.mark.parametrize("law", [PolyAtZero(0.5), Exponential(1.0)])
@pytest.mark.parametrize("N,zeta", [(1000, 3.0), (100, 1.0)])
def test_min_quantile_bound(law, N, zeta):
    trials = 10_000
    thresh = law.quantile(zeta / N)
    counters = np.arange(trials * N, dtype=np.uint64)
    u = uniform_array(31337, f"minq-{N}-{zeta}-{type(law).__name__}", counters)
    lengths = law.sample_from_uniform(u).reshape(trials, N)
    freq = np.mean(lengths.min(axis=1) > thresh)
    bound = math.exp(-zeta)
    assert freq <= bound + 3.0 * math.sqrt(bound / trials)


# --------------------------------------------------------------------------
# poisson

def test_poisson_zero_mean():
    assert sample_poisson(SeedSpec(1, "pois", 0), 0.0) == 0


def test_poisson_replay():
    spec = SeedSpec(77, "pois", 12)
    assert sample_poisson(spec, 100.0) == sample_poisson(spec, 100.0)


def test_poisson_moments():
    draws = np.array(
        [sample_poisson(SeedSpec(2718, "pois-mc", k), 4.0) for k in range(100_000)],
        dtype=np.float64,
    )
    assert abs(draws.mean() - 4.0) < 0.1
    assert abs(draws.var() - 4.0) < 0.15


def test_negative_mean_rejected():
    with pytest.raises(ValueError):
        sample_poisson(SeedSpec(1, "p", 0), -1.0)
