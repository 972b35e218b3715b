import math

import numpy as np
import pytest

from pplab.cost import (
    BoxingParams,
    MaxPenalty,
    PenaltyPolynomial,
    classify,
    critical_beta,
    deg_f,
    fpp_explosion_functional,
    idelta_interval,
    monomial_penalty,
    power_sum_penalty,
    product_penalty,
    solve_boxing_params,
)
from pplab.rng import DoubleExpFlat, Exponential, PointMass, PolyAtZero


def test_eval_penalty_examples():
    assert product_penalty(1.0)(2.0, 3.0) == 6.0
    assert monomial_penalty(3.0, 0.25)(1.0, 16.0) == 2.0
    assert power_sum_penalty(2.0)(2.0, 3.0) == 13.0


def test_eval_penalty_vectorized():
    f = PenaltyPolynomial(((2.0, 1.0, 0.5),))
    w1 = np.array([1.0, 4.0])
    w2 = np.array([9.0, 1.0])
    out = f(w1, w2)
    assert out.shape == (2,)
    assert out == pytest.approx([6.0, 8.0])


def test_penalty_validation():
    with pytest.raises(ValueError):
        PenaltyPolynomial(())
    with pytest.raises(ValueError):
        PenaltyPolynomial(((0.0, 1.0, 1.0),))
    with pytest.raises(ValueError):
        PenaltyPolynomial(((1.0, -0.5, 1.0),))
    with pytest.raises(ValueError):
        MaxPenalty(0.0)


def test_max_penalty_eval():
    f = MaxPenalty(2.0)
    assert f(2.0, 3.0) == 9.0
    assert f(3.0, 2.0) == 9.0
    assert f.reversed() is f
    assert f.surrogate().terms == ((1.0, 2.0, 0.0), (1.0, 0.0, 2.0))


def test_directed_edge_cost():
    const = PenaltyPolynomial(((1.0, 0.0, 0.0),))
    assert 0.7 * const(5.0, 11.0) == 0.7
    assert 0.5 * product_penalty(1.0)(2.0, 3.0) == 3.0
    f = monomial_penalty(1.0, 0.0)
    fwd = 1.0 * f(2.0, 3.0)
    back = 1.0 * f(3.0, 2.0)
    assert fwd == 2.0 and back == 3.0 and fwd != back


def test_deg_f():
    assert deg_f(product_penalty(1.0)) == 2.0
    assert deg_f(monomial_penalty(3.0, 0.25)) == 3.25
    f = PenaltyPolynomial(((3.0, 2.0, 1.0), (1.0, 1.0, 1.5)))
    assert deg_f(f) == 3.0
    assert deg_f(MaxPenalty(1.5)) == 1.5


def test_critical_beta_examples():
    assert critical_beta(product_penalty(1.0), 2.5) == 0.25
    assert critical_beta(power_sum_penalty(1.0), 2.5) == 0.5
    assert critical_beta(MaxPenalty(1.0), 2.5) == 0.5
    assert critical_beta(monomial_penalty(3.0, 0.25), 1.5) == 2.0


def test_critical_beta_rejects():
    for tau in (1.0, 3.0, 3.5, 0.5):
        with pytest.raises(ValueError):
            critical_beta(product_penalty(1.0), tau)
    with pytest.raises(ValueError):
        critical_beta(PenaltyPolynomial(((1.0, 0.0, 0.0),)), 2.5)


def test_critical_beta_asymmetric_pair():
    # w1^1.75 + w2^0.75 at tau = 1.5: explosive below 6/7, but the only
    # top-degree term has nu = 0 with tau < 2, so no conservative bound.
    f = PenaltyPolynomial(((1.0, 1.75, 0.0), (1.0, 0.0, 0.75)))
    lo, hi = critical_beta(f, 1.5)
    assert lo == pytest.approx(6.0 / 7.0)
    assert hi == math.inf


def test_critical_beta_symmetric_consistency():
    rng = np.random.default_rng(7)
    for _ in range(50):
        tau = rng.uniform(2.0, 3.0)
        mu = rng.uniform(0.1, 3.0)
        dup = PenaltyPolynomial(((1.0, mu, mu), (1.0, mu, mu)))
        want = (3.0 - tau) / (2.0 * mu)
        assert critical_beta(product_penalty(mu), tau) == pytest.approx(want)
        assert critical_beta(dup, tau) == pytest.approx(want)
        assert critical_beta(MaxPenalty(mu), tau) == pytest.approx(
            critical_beta(power_sum_penalty(mu), tau)
        )


def test_classify_alpha_small():
    v = classify(product_penalty(1.0), 2.5, 0.5, 0.1, 0.1)
    assert v.outcome == "ExplosiveSideways"
    assert "clause (i)" in v.triggered_condition
    assert v.direction == "outward"


def test_classify_lengthwise_and_conservative():
    f = product_penalty(1.0)
    v = classify(f, 2.5, 2.0, 0.1, 0.1)
    assert v.outcome == "ExplosiveLengthwise"
    v = classify(f, 2.5, 2.0, 1.0, 1.0)
    assert v.outcome == "Conservative"
    assert "clause (iii)" in v.triggered_condition


def test_classify_critical_at_threshold():
    f = product_penalty(1.0)
    beta = critical_beta(f, 2.5)
    v = classify(f, 2.5, 2.0, beta, beta)
    assert v.outcome == "Critical"


def test_classify_sideways_via_weights():
    # tau = 1.5, f = w1 w2: every term needs beta+ < (2-tau)/nu = 0.5
    v = classify(product_penalty(1.0), 1.5, 2.0, 0.3, 0.3)
    assert v.outcome == "ExplosiveSideways"
    assert "every term" in v.triggered_condition


def test_classify_breakdown_inconclusive():
    f = PenaltyPolynomial(((1.0, 1.75, 0.0), (1.0, 0.0, 0.75)))
    v = classify(f, 1.5, 2.0, 1.0, 1.0)
    assert v.outcome == "Inconclusive"


def test_classify_tau_short_circuit():
    for tau in (3.0, 3.2, 7.0):
        v = classify(product_penalty(1.0), tau, 2.0, 0.01, 0.01)
        assert v.outcome == "Conservative"


def test_classify_max_penalty():
    v = classify(MaxPenalty(1.0), 2.5, 2.0, 0.1, 0.1)
    assert v.outcome == "ExplosiveLengthwise"
    v = classify(MaxPenalty(1.0), 2.5, 2.0, 1.0, 1.0)
    assert v.outcome == "Conservative"


def test_classify_rejects():
    f = product_penalty(1.0)
    with pytest.raises(ValueError):
        classify(f, 2.5, 2.0, 0.5, 0.1)   # beta- > beta+
    with pytest.raises(ValueError):
        classify(f, 2.5, 2.0, 0.1, 0.1, direction="up")
    with pytest.raises(ValueError):
        classify(PenaltyPolynomial(((1.0, 0.0, 0.0),)), 2.5, 2.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        classify(f, 1.0, 2.0, 0.1, 0.1)


def test_inward_outward_duality():
    rng = np.random.default_rng(41)
    for _ in range(200):
        k = rng.integers(1, 4)
        terms = []
        for _ in range(k):
            terms.append((
                float(rng.uniform(0.1, 2.0)),
                float(rng.uniform(0.0, 3.0)),
                float(rng.uniform(0.0, 3.0)),
            ))
        f = PenaltyPolynomial(tuple(terms))
        if f.deg == 0:
            continue
        tau = float(rng.uniform(1.05, 2.95))
        alpha = float(rng.choice([0.5, 2.0, 4.0]))
        b = float(rng.uniform(0.0, 2.0))
        b2 = b if rng.random() < 0.7 else b + float(rng.uniform(0.0, 0.5))
        inw = classify(f, tau, alpha, b, b2, direction="inward")
        out = classify(f.reversed(), tau, alpha, b, b2, direction="outward")
        assert inw.outcome == out.outcome
        assert inw.triggered_condition == out.triggered_condition
        assert inw.direction == "inward" and out.direction == "outward"


def test_max_penalty_chain_inequality():
    rng = np.random.default_rng(13)
    for _ in range(100):
        mu = float(rng.uniform(0.1, 3.0))
        w1, w2 = rng.pareto(1.5, size=2) + 1.0
        lo = power_sum_penalty(mu)(w1, w2) / 2.0
        mid = MaxPenalty(mu)(w1, w2)
        hi = (w1 + w2) ** mu
        cap = 2.0**mu * power_sum_penalty(mu)(w1, w2)
        assert lo <= mid <= hi <= cap + 1e-12 * cap


def test_idelta_interval_frozen():
    lo, hi = idelta_interval(2.5, 1.0, 1.0, 0.1, 0.01)
    assert abs(lo - 1.1374009454817536) < 1e-15
    assert abs(hi - 1.3069306930693068) < 1e-15


def test_idelta_interval_small_delta_limit():
    lo, hi = idelta_interval(2.0, 1.0, 0.0, 0.5, 1e-9)
    assert lo == pytest.approx(1.5, rel=1e-6)
    assert hi == pytest.approx(2.0, rel=1e-6)


def test_idelta_interval_empty_and_rejects():
    lo, hi = idelta_interval(2.5, 1.0, 1.0, 0.1, 0.2)
    assert lo >= hi
    with pytest.raises(ValueError):
        idelta_interval(2.5, 1.0, 1.0, 0.3, 0.01)   # (mu+nu) beta+ >= 3 - tau
    with pytest.raises(ValueError):
        idelta_interval(3.0, 1.0, 1.0, 0.1, 0.01)
    with pytest.raises(ValueError):
        idelta_interval(2.5, 1.0, 1.0, 0.1, 0.0)


def _check_params_independent(tau, mu, nu, beta_plus, p: BoxingParams):
    """Re-derive every boxing inequality on a fine grid."""
    d, C, D = p.delta, p.C, p.D
    lo, hi = idelta_interval(tau, mu, nu, beta_plus, d)
    assert lo < D < hi
    assert C == 1.0 + d
    for s in np.linspace(0.0, 1.0, 101):
        assert 2.0 * (1.0 - d) / (tau - 1.0) - C**s * D > 0.0
        assert ((mu + nu * C**s) * (1.0 + d) / (tau - 1.0)
                - (D - 1.0) * C**s * (1.0 - d) ** 2 / beta_plus) < 0.0
    assert (1.0 - d) * (1.0 + C) / (tau - 1.0) - D * C > 0.0
    assert p.xi > 0.0 and p.rho > 0.0
    xi = (-(mu + nu * C) * (1.0 + d) / (tau - 1.0)
          + (1.0 - d) ** 2 * C * (D - 1.0) / beta_plus)
    rho = ((tau - 1.0) / (1.0 - d)
           * ((1.0 - d) ** 2 * (D - 1.0) / beta_plus - (mu + C * nu) / (tau - 1.0)))
    assert p.xi == pytest.approx(xi)
    assert p.rho == pytest.approx(rho)


def test_solve_boxing_params_example():
    p = solve_boxing_params(2.5, 1.0, 1.0, 0.1)
    assert p.delta == 0.05
    assert p.C == 1.05
    _check_params_independent(2.5, 1.0, 1.0, 0.1, p)


def test_solve_boxing_params_random_draws():
    rng = np.random.default_rng(23)
    for _ in range(100):
        tau = float(rng.uniform(1.2, 2.9))
        mu = float(rng.uniform(0.0, 2.0))
        nu = float(rng.uniform(0.0, 2.0))
        if mu + nu == 0.0:
            mu = 1.0
        beta_plus = float(rng.uniform(0.05, 0.95)) * (3.0 - tau) / (mu + nu)
        p = solve_boxing_params(tau, mu, nu, beta_plus)
        _check_params_independent(tau, mu, nu, beta_plus, p)


def test_solve_boxing_params_rejects():
    with pytest.raises(ValueError, match="3 - tau"):
        solve_boxing_params(2.5, 1.0, 1.0, 0.3)
    with pytest.raises(ValueError):
        solve_boxing_params(2.5, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        solve_boxing_params(3.0, 1.0, 1.0, 0.1)


def test_fpp_explosion_functional():
    val, conv = fpp_explosion_functional(PointMass(0.0), 3)
    assert val == 0.0 and conv is True
    val, conv = fpp_explosion_functional(Exponential(1.0), 3)
    assert abs(val - 0.068884203157106902) < 1e-15
    assert conv is True
    val5, _ = fpp_explosion_functional(Exponential(1.0), 5)
    val10, _ = fpp_explosion_functional(Exponential(1.0), 10)
    assert val10 == val5   # clamped at 5
    val, conv = fpp_explosion_functional(DoubleExpFlat(2.0, 1.0, 1.0), 5)
    assert conv is False
    assert val > 0.5      # terms decay like k^(-1/2), not summable
    val, conv = fpp_explosion_functional(PointMass(2.0), 4)
    assert val == 8.0 and conv is False
    with pytest.raises(ValueError):
        fpp_explosion_functional(Exponential(1.0), 0)
