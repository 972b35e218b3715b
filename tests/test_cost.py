import math

import numpy as np
import pytest

import oracles
from pplab.cost import (
    MaxPenalty,
    PenaltyPolynomial,
    classify,
    idelta_interval,
    monomial_penalty,
    power_sum_penalty,
    product_penalty,
    solve_boxing_params,
)


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
    assert product_penalty(1.0).deg == 2.0
    assert monomial_penalty(3.0, 0.25).deg == 3.25
    f = PenaltyPolynomial(((3.0, 2.0, 1.0), (1.0, 1.0, 1.5)))
    assert f.deg == 3.0
    assert MaxPenalty(1.5).deg == 1.5


def critical_beta(f, tau: float) -> tuple:
    """(explosive below, conservative above), outward, from the oracle's
    reading of the paper; the max penalty takes its power-sum surrogate's."""
    if isinstance(f, MaxPenalty):
        f = f.surrogate()
    return oracles.phase_thresholds(f.terms, tau)


def test_critical_beta_examples():
    assert critical_beta(product_penalty(1.0), 2.5) == (0.25, 0.25)
    assert critical_beta(power_sum_penalty(1.0), 2.5) == (0.5, 0.5)
    assert critical_beta(MaxPenalty(1.0), 2.5) == (0.5, 0.5)
    assert critical_beta(monomial_penalty(3.0, 0.25), 1.5) == (2.0, 2.0)


def test_critical_beta_asymmetric_pair():
    # w1^1.75 + w2^0.75 at tau = 1.5: explosive below 6/7, but the only
    # top-degree term has nu = 0 with tau < 2, so no conservative bound.
    f = PenaltyPolynomial(((1.0, 1.75, 0.0), (1.0, 0.0, 0.75)))
    lo, hi = critical_beta(f, 1.5)
    assert lo == pytest.approx(6.0 / 7.0)
    assert hi == math.inf


def test_critical_beta_symmetric_consistency():
    # classify puts a symmetric penalty of degree 2 mu at (3 - tau)/(2 mu)
    rng = np.random.default_rng(7)
    for _ in range(50):
        tau = rng.uniform(2.0, 3.0)
        mu = rng.uniform(0.1, 3.0)
        dup = PenaltyPolynomial(((1.0, mu, mu), (1.0, mu, mu)))
        want = (3.0 - tau) / (2.0 * mu)
        for f in (product_penalty(mu), dup):
            assert critical_beta(f, tau) == pytest.approx((want, want))
            assert classify(f, tau, 2.0, want, want).outcome == "Critical"
        assert critical_beta(MaxPenalty(mu), tau) == pytest.approx(
            critical_beta(power_sum_penalty(mu), tau)
        )


def _random_phase_penalty(rng):
    """A monomial or a 2-3 term polynomial; nu = 0 in about a third of terms."""
    def term():
        nu = 0.0 if rng.random() < 0.3 else rng.uniform(0.1, 2.0)
        return (rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0), nu)
    k = 1 if rng.random() < 0.5 else int(rng.integers(2, 4))
    return PenaltyPolynomial(tuple(term() for _ in range(k)))


def test_critical_beta_is_the_threshold_that_classify_applies():
    # below a finite threshold classify explodes, above it it is
    # conservative, at it critical; +inf means explosive at every beta
    rng = np.random.default_rng(1616)
    seen = {"finite": 0, "inf": 0, "pair": 0, "nu0_tau_lt_2": 0}
    for _ in range(600):
        f = _random_phase_penalty(rng)
        tau = rng.uniform(1.05, 2.95)
        for direction in ("outward", "inward"):
            g = f if direction == "outward" else f.reversed()
            lo, hi = critical_beta(g, tau)
            assert 0.0 < lo <= hi
            if tau < 2.0 and any(nu == 0.0 for _, _, nu in g.terms):
                seen["nu0_tau_lt_2"] += 1

            def outcome(beta):
                return classify(f, tau, 2.0, beta, beta, direction).outcome

            if lo == math.inf:
                seen["inf"] += 1
                for beta in (0.5, 5.0, 50.0):
                    assert outcome(beta).startswith("Explosive"), (f, tau)
                continue
            assert outcome(0.99 * lo).startswith("Explosive"), (f, tau)
            if lo == hi:
                seen["finite"] += 1
                assert outcome(lo) == "Critical", (f, tau)
            else:
                seen["pair"] += 1
                assert outcome(lo) == "Inconclusive", (f, tau)
            if hi < math.inf:
                assert outcome(1.01 * hi) == "Conservative", (f, tau)
    assert min(seen.values()) >= 30, seen


def test_classify_alpha_small():
    v = classify(product_penalty(1.0), 2.5, 0.5, 0.1, 0.1)
    assert v.outcome == "ExplosiveSideways"
    assert "clause (i)" in v.triggered_condition


def test_classify_lengthwise_and_conservative():
    f = product_penalty(1.0)
    v = classify(f, 2.5, 2.0, 0.1, 0.1)
    assert v.outcome == "ExplosiveLengthwise"
    v = classify(f, 2.5, 2.0, 1.0, 1.0)
    assert v.outcome == "Conservative"
    assert "clause (iii)" in v.triggered_condition


def test_classify_critical_at_threshold():
    f = product_penalty(1.0)
    beta, _ = critical_beta(f, 2.5)
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
    nan = math.nan
    for args, match in [((nan, 2.0, 0.1, 0.1), "tau"),
                        ((2.5, nan, 0.1, 0.1), "alpha"),
                        ((2.5, 2.0, nan, 0.1), "beta"),
                        ((2.5, 2.0, 0.1, nan), "beta")]:
        with pytest.raises(ValueError, match=match):
            classify(f, *args)


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


def test_solve_boxing_params_example():
    p = solve_boxing_params(2.5, 1.0, 1.0, 0.1)
    assert p.delta == 0.05
    assert p.C == 1.05
    assert not oracles.boxing_param_problems(2.5, 1.0, 1.0, 0.1, **vars(p))


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
        assert not oracles.boxing_param_problems(tau, mu, nu, beta_plus,
                                                 **vars(p))


def test_solve_boxing_params_rejects():
    with pytest.raises(ValueError, match="3 - tau"):
        solve_boxing_params(2.5, 1.0, 1.0, 0.3)
    with pytest.raises(ValueError):
        solve_boxing_params(2.5, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        solve_boxing_params(3.0, 1.0, 1.0, 0.1)
