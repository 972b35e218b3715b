"""Randomness module: pinned examples and distributional invariants."""
import hashlib
import math

import numpy as np
import pytest
from scipy import stats

import oracles
from pplab.rng import (
    DoubleExpFlat,
    Exponential,
    PointMass,
    PolyAtZero,
    WeightLaw,
    derive_master,
    sample_poisson,
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


def test_weight_ks_statistic():
    law = WeightLaw(tau=2.5)
    u = uniform_array(987654321, "ks-weights", np.arange(100_000))
    w = weight_from_uniform(u, law)
    stat = stats.kstest(w, lambda x: oracles.weight_cdf(x, law.tau)).statistic
    assert stat < 0.01


def test_sample_weight_matches_array_path():
    law = WeightLaw(tau=2.5)
    w_scalar = [weight_from_uniform(uniform(42, "w", k), law)
                for k in range(64)]
    w_vec = weight_from_uniform(uniform_array(42, "w", np.arange(64)), law)
    assert np.array_equal(np.array(w_scalar), w_vec)


# --------------------------------------------------------------------------
# uniform stream determinism

def test_replay_is_bit_identical():
    triple = (123456789, "replay", 777)
    assert uniform(*triple) == uniform(*triple)
    a = uniform_array(123456789, "replay", np.arange(1000))
    b = uniform_array(123456789, "replay", np.arange(1000)[::-1])[::-1]
    assert np.array_equal(a, b)  # order independence


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
def test_seeds_outside_64_bits_are_refused(seed):
    # a masked seed would alias 2^64 + 5 to 5
    for draw in (lambda: uniform_array(seed, "x", [0]),
                 lambda: uniform(seed, "x", 0),
                 lambda: derive_master(seed, "x"),
                 lambda: sample_poisson(seed, "x", 1.0)):
        with pytest.raises(ValueError,
                           match="^master_seed must fit in 64 bits$"):
            draw()


def test_the_seed_domain_ends_are_accepted():
    for seed in (0, 2**64 - 1):
        assert 0.0 < uniform(seed, "x", 0) <= 1.0
        assert 0 <= derive_master(seed, "x") < 2**64


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

def _cdf(law, t):
    """The oracle's closed-form cdf of law at t."""
    return oracles.length_cdf(type(law).__name__, t, **vars(law))


def test_poly_cdf_examples():
    law = PolyAtZero(2.0)
    assert _cdf(law, 0.5) == 0.25
    assert _cdf(law, 0.0) == 0.0
    assert _cdf(law, 2.0) == 1.0


def test_exponential_cdf_example():
    # frozen from 40-digit 1 - e^{-0.1}
    assert _cdf(Exponential(1.0), 0.1) == pytest.approx(0.09516258196404043, rel=1e-12)


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


# the 4-nudge ulp repair leaves about 9% of PolyAtZero(0.1) draws short;
# lifting the cap moves realizations, so it waits for ROADMAP item 3's bump
SHORT_AFTER_REPAIR = pytest.param(
    PolyAtZero(0.1), marks=pytest.mark.xfail(
        strict=True, reason="ulp repair capped at 4 nudges; ROADMAP item 3"))


@pytest.mark.parametrize("law", [*LAWS, SHORT_AFTER_REPAIR],
                         ids=lambda l: type(l).__name__ + repr(getattr(l, "__dict__", "")))
def test_quantile_inequality_exact(law):
    # F_L(quantile(y)) >= y must hold exactly, not within tolerance
    rng = np.random.default_rng(2024)
    ys = rng.uniform(1e-12, 1.0 - 1e-12, size=1000)
    q = law.quantile(ys)
    assert np.all(_cdf(law, q) >= ys)


# sha256 of sample_from_uniform on uniform_array(5, "lengths", 0..10^5 - 1),
# recorded before the ulp repair was restricted to the still-short entries
QUANTILE_PINS = {
    PolyAtZero(0.1): "27fc494c209e5c72f609a7b3864bbd027846dc4b67b83aa307a750e35197801e",
    PolyAtZero(2.0): "f3effd49343791e66f86e50208202b201a15b6ef860d4a4dca817030791fb56e",
    Exponential(1.0): "e603e5e732c173f3665ccdbd22cb0ab158cc819c5fb2f07accb6f42952396732",
    DoubleExpFlat(2.0, 1.0, 1.0): "686c7a120ed859cddae28146d47cd606e814bb2243f105507c0cb6da8639e356",
    PointMass(0.3): "f838a30dff1207788c8a51f18e689dd1fad7431a17860f70a7b96962fd6172fb",
}


@pytest.mark.parametrize("law", list(QUANTILE_PINS), ids=repr)
def test_sample_from_uniform_pinned(law):
    u = uniform_array(5, "lengths", np.arange(100_000))
    t = law.sample_from_uniform(u)
    assert t.dtype == np.float64
    assert hashlib.sha256(t.tobytes()).hexdigest() == QUANTILE_PINS[law]


def test_beta_exponents():
    assert PolyAtZero(0.7).beta_minus == 0.7 == PolyAtZero(0.7).beta_plus
    assert Exponential(3.0).beta_minus == 1.0
    assert DoubleExpFlat(1.5, 2.0, 0.5).beta_minus == math.inf
    assert PointMass(0.0).beta_plus == 0.0
    assert PointMass(1.0).beta_minus == math.inf


def test_double_exp_flat_cdf_shape():
    law = DoubleExpFlat(2.0, 1.0, 1.0)
    ts = np.array([0.5, 0.7, 0.9, 0.99])  # below ~0.3 the cdf underflows to 0.0
    vals = _cdf(law, ts)
    assert np.all(np.diff(vals) > 0)
    assert _cdf(law, 0.0) == 0.0
    assert _cdf(law, 1.0) == 1.0
    assert _cdf(law, 1e-4) == 0.0  # underflows flat to zero


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
    assert sample_poisson(1, "pois", 0.0) == 0


def test_poisson_replay():
    assert sample_poisson(77, "pois", 100.0) == \
        sample_poisson(77, "pois", 100.0)


def test_poisson_moments():
    draws = np.array(
        [sample_poisson(2718, f"pois-mc:{k}", 4.0) for k in range(100_000)],
        dtype=np.float64,
    )
    assert abs(draws.mean() - 4.0) < 0.1
    assert abs(draws.var() - 4.0) < 0.15


def test_negative_mean_rejected():
    with pytest.raises(ValueError):
        sample_poisson(1, "p", -1.0)
