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

from .domain import ConfigError, check_derived, check_domains

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
            raise ConfigError("penalty needs at least one term")
        for a, mu, nu in self.terms:
            check_domains(locals(), a="(0, inf)", mu="[0, inf)", nu="[0, inf)")
        object.__setattr__(self, "terms", tuple(
            (float(a), float(mu), float(nu)) for a, mu, nu in self.terms))

    @property
    def deg(self) -> float:
        return max(mu + nu for _, mu, nu in self.terms)

    def reversed(self) -> "PenaltyPolynomial":
        """Swap the roles of the two weights (inward direction)."""
        return PenaltyPolynomial(tuple((a, nu, mu) for a, mu, nu in self.terms))

    def __call__(self, w1, w2):
        # views of the output's shape, so that each term is one new buffer
        w1, w2 = np.broadcast_arrays(np.asarray(w1, dtype=np.float64),
                                     np.asarray(w2, dtype=np.float64))
        out = None
        for a, mu, nu in self.terms:   # each (a w1^mu) w2^nu, summed in order
            term = w1**mu
            if a != 1.0:
                term *= a
            term *= w2**nu
            if out is None:
                out = term
            else:
                out += term
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
        check_domains(vars(self), mu="(0, inf)")

    @property
    def deg(self) -> float:
        return self.mu

    def surrogate(self) -> PenaltyPolynomial:
        return power_sum_penalty(self.mu)

    def __call__(self, w1, w2):
        w1 = np.asarray(w1, dtype=np.float64)
        w2 = np.asarray(w2, dtype=np.float64)
        out = np.maximum(w1, w2) ** self.mu
        return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# phase classification


@dataclass(frozen=True)
class PhaseVerdict:
    outcome: str       # ExplosiveSideways | ExplosiveLengthwise | Conservative
    #                  # | Critical | Inconclusive
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
    """(sideways, lengthwise, conservative_above): clause (i) holds for
    beta+ below the first, clause (ii) below the second, and clause (iii)
    for beta- above the third."""
    lengthwise = check_derived("(3-tau)/deg(f), deg(f) the top mu + nu, "
                               "overflows", lambda: (3.0 - tau) / f.deg)
    sideways = min(_sideways_threshold(nu, tau) for _, _, nu in f.terms)
    top_sideways = min(_sideways_threshold(nu, tau)
                       for _, mu, nu in f.terms if mu + nu == f.deg)
    return sideways, lengthwise, max(lengthwise, top_sideways)


def check_tau_alpha(tau: float, alpha: float) -> None:
    """The model domain every verdict needs: tau > 1 and alpha > 0."""
    check_domains(locals(), tau="(1, inf]", alpha="(0, inf]")


def classify(f, tau: float, alpha: float, beta_minus: float, beta_plus: float,
             direction: str = "outward") -> PhaseVerdict:
    """Apply the phase clauses in order; inward = outward with f reversed."""
    if direction not in ("outward", "inward"):
        raise ValueError("direction must be 'outward' or 'inward'")
    check_tau_alpha(tau, alpha)
    check_domains(locals(), beta_minus="[0, inf]", beta_plus="[0, inf]")
    if not beta_minus <= beta_plus:
        raise ConfigError("need 0 <= beta- <= beta+")
    if isinstance(f, MaxPenalty):
        f = f.surrogate()
    if direction == "inward":
        f = f.reversed()
    if f.deg == 0:
        raise ConfigError(
            "deg(f) = 0 is the FPP reduction; explosion is decided by the "
            "length-law sum, not by weight exponents"
        )
    if tau >= 3.0:
        return PhaseVerdict(
            "Conservative",
            "tau >= 3: weight tail too thin for explosive passage",
        )

    sideways, lengthwise, conservative_above = _clause_bounds(f, tau)
    explosive_below = max(sideways, lengthwise)

    # clause (i): sideways explosion, almost surely
    if alpha <= 1.0:
        return PhaseVerdict("ExplosiveSideways", "clause (i), alpha <= 1")
    if beta_plus < sideways:
        return PhaseVerdict(
            "ExplosiveSideways",
            "clause (i), beta+ < (2-tau)/nu_i for every term",
        )
    # clause (ii): lengthwise explosion
    if beta_plus < lengthwise:
        return PhaseVerdict(
            "ExplosiveLengthwise",
            f"clause (ii), beta+ < (3-tau)/deg(f) = {lengthwise:.6g}",
        )
    # clause (iii): conservative
    if beta_minus > conservative_above:
        listed = ", ".join(f"w1^{mu:g} w2^{nu:g}" for _, mu, nu in f.terms
                           if mu + nu == f.deg
                           and beta_minus > _sideways_threshold(nu, tau))
        return PhaseVerdict(
            "Conservative",
            f"clause (iii), beta- > (3-tau)/deg(f) with qualifying top "
            f"term(s): {listed}",
        )
    if beta_minus == beta_plus == explosive_below == conservative_above:
        return PhaseVerdict(
            "Critical",
            f"beta- = beta+ = threshold {explosive_below:.6g}",
        )
    return PhaseVerdict(
        "Inconclusive",
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
    check_domains(locals(), tau="(1, 3)", mu="[0, inf)", nu="[0, inf)",
                  beta_plus="[0, inf)", delta="(0, 1)")
    if (mu + nu) * beta_plus >= 3.0 - tau:
        raise ConfigError("(mu + nu) beta+ must be below 3 - tau")
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
    inequality; idelta_interval refuses (mu + nu) beta+ >= 3 - tau first.
    """
    check_domains(locals(), tau="(1, 3)", mu="[0, inf)", nu="[0, inf)",
                  beta_plus="(0, inf)")
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
                    check_derived("tau, mu, nu and beta+ make xi or rho "
                                  "overflow", lambda: xi + rho)
                    return BoxingParams(delta=delta, C=C, D=D, xi=xi, rho=rho)
            last_violation = violation
        delta /= 2.0
    raise ConfigError(f"tau, mu, nu and beta+ admit no delta down to 2^-20; "
                      f"last violation: {last_violation}")
