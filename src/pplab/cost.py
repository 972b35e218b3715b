"""Penalty functions on weight pairs, phase classification, parameter solving.

Edge costs are C_e = L_e * f(W_u, W_v) with f a positive combination of
monomials in the two endpoint weights; traversal direction decides which
endpoint is "first", so asymmetric f yields a quasimetric.  The classifier
maps (f, tau, alpha, beta-, beta+) to the explosive / conservative phase;
the solver produces admissible boxing parameters (delta, C, D) together
with the exponents xi, rho that make the greedy-path construction work.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_S_GRID = [0.1 * i for i in range(11)]  # 11-point check grid on [0,1]


@dataclass(frozen=True)
class PenaltyPolynomial:
    """f(w1, w2) = sum_i a_i w1^{mu_i} w2^{nu_i}, a_i > 0, mu_i, nu_i >= 0.

    deg(f) = max_i (mu_i + nu_i).  deg 0 (the mu=0 FPP reduction, f == const)
    is allowed for cost evaluation; the classifier refuses it because every
    phase threshold divides by deg(f).
    """

    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise ValueError("penalty needs at least one term")
        norm = []
        for a, mu, nu in self.terms:
            if a <= 0:
                raise ValueError("term coefficients must be positive")
            if mu < 0 or nu < 0:
                raise ValueError("term exponents must be non-negative")
            norm.append((float(a), float(mu), float(nu)))
        object.__setattr__(self, "terms", tuple(norm))

    @property
    def deg(self) -> float:
        return max(mu + nu for _, mu, nu in self.terms)

    def reversed(self) -> "PenaltyPolynomial":
        """Swap the roles of the two weights (inward direction)."""
        return PenaltyPolynomial(tuple((a, nu, mu) for a, mu, nu in self.terms))

    @property
    def is_symmetric(self) -> bool:
        return sorted(self.terms) == sorted(self.reversed().terms)

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __call__(self, w1, w2):
        w1 = np.asarray(w1, dtype=np.float64)
        w2 = np.asarray(w2, dtype=np.float64)
        out = np.zeros(np.broadcast(w1, w2).shape)
        for a, mu, nu in self.terms:
            out += a * w1**mu * w2**nu
        return out if out.ndim else float(out)


def product_penalty(mu: float) -> PenaltyPolynomial:
    """(w1 w2)^mu."""
    return PenaltyPolynomial(((1.0, mu, mu),))


def monomial_penalty(mu: float, nu: float) -> PenaltyPolynomial:
    return PenaltyPolynomial(((1.0, mu, nu),))


def power_sum_penalty(mu: float) -> PenaltyPolynomial:
    """w1^mu + w2^mu."""
    return PenaltyPolynomial(((1.0, mu, 0.0), (1.0, 0.0, mu)))


@dataclass(frozen=True)
class MaxPenalty:
    """f(w1, w2) = max(w1, w2)^mu.

    Not a polynomial; it is sandwiched between (w1^mu + w2^mu)/2 and
    w1^mu + w2^mu, so every phase threshold coincides with the power-sum
    penalty of the same exponent.  Classification delegates to that
    surrogate; evaluation uses the exact max form.
    """

    mu: float

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("max penalty needs mu > 0")

    @property
    def deg(self) -> float:
        return self.mu

    @property
    def is_symmetric(self) -> bool:
        return True

    def reversed(self) -> "MaxPenalty":
        return self

    def surrogate(self) -> PenaltyPolynomial:
        return power_sum_penalty(self.mu)

    def __call__(self, w1, w2):
        w1 = np.asarray(w1, dtype=np.float64)
        w2 = np.asarray(w2, dtype=np.float64)
        out = np.maximum(w1, w2) ** self.mu
        return out if out.ndim else float(out)


def deg_f(f) -> float:
    return f.deg


# ---------------------------------------------------------------------------
# phase classification


@dataclass(frozen=True)
class PhaseVerdict:
    outcome: str       # ExplosiveSideways | ExplosiveLengthwise | Conservative
    #                  # | Critical | Inconclusive
    direction: str     # outward | inward
    triggered_condition: str


def _sideways_threshold(nu: float, tau: float) -> float:
    """Largest beta+ for which the term's cheap-edge count diverges.

    The count behaves like E[W^{1 - tau - nu*beta}], divergent iff
    nu*beta <= 2 - tau; nu = 0 degenerates to tau <= 2.
    """
    if nu == 0.0:
        return math.inf if tau <= 2.0 else -math.inf
    return (2.0 - tau) / nu


def _clause_bounds(f: PenaltyPolynomial, tau: float):
    """(explosive_below, conservative_above) thresholds of the theorem."""
    deg = f.deg
    lengthwise = (3.0 - tau) / deg
    sideways = min(_sideways_threshold(nu, tau) for _, _, nu in f.terms)
    top = [t for t in f.terms if t[1] + t[2] == deg]
    conservative_extra = min(_sideways_threshold(nu, tau) for _, _, nu in top)
    explosive_below = max(lengthwise, sideways)
    conservative_above = max(lengthwise, conservative_extra)
    return explosive_below, conservative_above


def critical_beta(f, tau: float):
    """Critical decay exponent of the edge-length law for penalty f.

    Monomial w1^mu w2^nu: max{(3-tau)/(mu+nu), (2-tau)/nu}, the second
    entry dropped when nu = 0 or tau >= 2.  Symmetric polynomials (and the
    max penalty): (3-tau)/deg(f).  General asymmetric polynomials have no
    single threshold; the pair (explosive_below, conservative_above) of
    one-sided bounds is returned instead.
    """
    if not 1.0 < tau < 3.0:
        raise ValueError("critical_beta requires tau in (1, 3)")
    if isinstance(f, MaxPenalty):
        return (3.0 - tau) / f.mu
    if f.deg == 0:
        raise ValueError("deg(f) = 0 is the FPP reduction; no weight-driven threshold")
    if f.is_monomial:
        _, mu, nu = f.terms[0]
        if nu == 0.0 or tau >= 2.0:
            return (3.0 - tau) / (mu + nu)
        return max((3.0 - tau) / (mu + nu), (2.0 - tau) / nu)
    if f.is_symmetric:
        return (3.0 - tau) / f.deg
    return _clause_bounds(f, tau)


def classify(f, tau: float, alpha: float, beta_minus: float, beta_plus: float,
             direction: str = "outward") -> PhaseVerdict:
    """Apply the phase clauses in order; inward = outward with f reversed."""
    if direction not in ("outward", "inward"):
        raise ValueError("direction must be 'outward' or 'inward'")
    if tau <= 1.0:
        raise ValueError("tau must exceed 1")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if beta_minus < 0 or beta_plus < 0 or beta_minus > beta_plus:
        raise ValueError("need 0 <= beta- <= beta+")
    if isinstance(f, MaxPenalty):
        f = f.surrogate()
    if direction == "inward":
        f = f.reversed()
    if f.deg == 0:
        raise ValueError(
            "deg(f) = 0 is the FPP reduction; explosion is decided by the "
            "length-law sum, not by weight exponents"
        )
    if tau >= 3.0:
        return PhaseVerdict(
            "Conservative", direction,
            "tau >= 3: weight tail too thin for explosive passage",
        )

    deg = f.deg
    lengthwise_thr = (3.0 - tau) / deg
    explosive_below, conservative_above = _clause_bounds(f, tau)

    # clause (i): sideways explosion, almost surely
    if alpha <= 1.0:
        return PhaseVerdict("ExplosiveSideways", direction, "clause (i), alpha <= 1")
    if all(beta_plus < _sideways_threshold(nu, tau) for _, _, nu in f.terms):
        return PhaseVerdict(
            "ExplosiveSideways", direction,
            "clause (i), beta+ < (2-tau)/nu_i for every term",
        )
    # clause (ii): lengthwise explosion
    if beta_plus < lengthwise_thr:
        return PhaseVerdict(
            "ExplosiveLengthwise", direction,
            f"clause (ii), beta+ < (3-tau)/deg(f) = {lengthwise_thr:.6g}",
        )
    # clause (iii): conservative
    if beta_minus > lengthwise_thr:
        top = [t for t in f.terms if t[1] + t[2] == deg]
        qualifying = [
            (mu, nu) for _, mu, nu in top
            if beta_minus > _sideways_threshold(nu, tau)
        ]
        if qualifying:
            listed = ", ".join(f"w1^{mu:g} w2^{nu:g}" for mu, nu in qualifying)
            return PhaseVerdict(
                "Conservative", direction,
                f"clause (iii), beta- > (3-tau)/deg(f) with qualifying top "
                f"term(s): {listed}",
            )
    if beta_minus == beta_plus == explosive_below == conservative_above:
        return PhaseVerdict(
            "Critical", direction,
            f"beta- = beta+ = threshold {explosive_below:.6g}",
        )
    return PhaseVerdict(
        "Inconclusive", direction,
        f"no clause applies (explosive below {explosive_below:.6g}, "
        f"conservative above {conservative_above:.6g})",
    )


# ---------------------------------------------------------------------------
# boxing parameters


@dataclass(frozen=True)
class BoxingParams:
    delta: float
    C: float
    D: float
    xi: float
    rho: float


def idelta_interval(tau: float, mu: float, nu: float, beta_plus: float,
                    delta: float) -> tuple:
    """Admissible interval for the box-growth exponent D at a given delta.

    Returns (lo, hi); the interval is empty when lo >= hi.
    """
    if not 1.0 < tau < 3.0:
        raise ValueError("tau must lie in (1, 3)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if mu < 0 or nu < 0:
        raise ValueError("exponents must be non-negative")
    if (mu + nu) * beta_plus >= 3.0 - tau:
        raise ValueError("(mu + nu) beta+ must be below 3 - tau")
    lo = 1.0 + (mu + nu) * beta_plus / (tau - 1.0) * (1.0 + delta) / (1.0 - delta) ** 2
    hi = 2.0 / (tau - 1.0) * (1.0 - delta) / (1.0 + delta)
    return (lo, hi)


def _xi(tau, mu, nu, beta_plus, delta, C, D):
    return (-(mu + nu * C) * (1.0 + delta) / (tau - 1.0)
            + (1.0 - delta) ** 2 * C * (D - 1.0) / beta_plus)


def _rho(tau, mu, nu, beta_plus, delta, C, D):
    return ((tau - 1.0) / (1.0 - delta)
            * ((1.0 - delta) ** 2 * (D - 1.0) / beta_plus
               - (mu + C * nu) / (tau - 1.0)))


def solve_boxing_params(tau: float, mu: float, nu: float,
                        beta_plus: float) -> BoxingParams:
    """Find (delta, C=1+delta, D) satisfying every boxing inequality.

    delta starts at 0.2 and is halved until the admissible D-interval is
    non-empty and all checks pass; D is the interval midpoint.  Checked on
    an 11-point grid in s (both constraint families are monotone enough in
    s that the grid is a safe proxy; an independent re-check is part of
    the test suite).  Fails below delta = 2^-20 reporting the violated
    inequality.
    """
    if not 1.0 < tau < 3.0:
        raise ValueError("tau must lie in (1, 3)")
    if not 0.0 < beta_plus < math.inf:
        raise ValueError("beta+ must be positive and finite")
    if (mu + nu) * beta_plus >= 3.0 - tau:
        raise ValueError(
            "(mu + nu) beta+ >= 3 - tau: no admissible boxing parameters"
        )
    delta = 0.2
    last_violation = "empty D-interval"
    while delta >= 2.0**-20:
        lo, hi = idelta_interval(tau, mu, nu, beta_plus, delta)
        if lo < hi:
            C = 1.0 + delta
            D = 0.5 * (lo + hi)
            violation = None
            for s in _S_GRID:
                if 2.0 * (1.0 - delta) / (tau - 1.0) - C**s * D <= 0.0:
                    violation = f"cdx2 at s={s:.1f}"
                    break
                lhs = ((mu + nu * C**s) * (1.0 + delta) / (tau - 1.0)
                       - (D - 1.0) * C**s * (1.0 - delta) ** 2 / beta_plus)
                if lhs >= 0.0:
                    violation = f"mubeta-3 at s={s:.1f}"
                    break
            if violation is None:
                xi = _xi(tau, mu, nu, beta_plus, delta, C, D)
                rho = _rho(tau, mu, nu, beta_plus, delta, C, D)
                if xi <= 0.0:
                    violation = "xi <= 0"
                elif rho <= 0.0:
                    violation = "rho <= 0"
                else:
                    return BoxingParams(delta=delta, C=C, D=D, xi=xi, rho=rho)
            last_violation = violation
        delta /= 2.0
    raise ValueError(
        f"no admissible delta found down to 2^-20; last violation: {last_violation}"
    )


# ---------------------------------------------------------------------------
# FPP explosion functional (mu = 0 reduction)


def fpp_explosion_functional(law, k_max: int) -> tuple:
    """Partial sum of quantile(exp(-e^k)), k = 1..min(k_max, 5).

    Returns (partial_sum, converges).  k_max is clamped at 5: the next
    term's argument exp(-e^6) is at the edge of double range and every
    shipped law has already revealed its behaviour by then.  Convergence
    of the full series is decided analytically by the law itself.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    kk = min(k_max, 5)
    total = 0.0
    for k in range(1, kk + 1):
        y = math.exp(-math.exp(k))
        total += float(law.quantile(y)) if y > 0.0 else 0.0
    return total, bool(law.explosion_sum_converges)
