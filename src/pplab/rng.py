"""Counter-based randomness: reproducible, order-independent variate streams.

Every variate in the toolkit is addressed by a triple (master_seed,
stream_label, counter).  The same triple always yields the same variate,
no matter in which order or on how many threads variates are drawn, so
individual edges / vertices of a generated graph can be re-derived in
isolation.  Distinct labels give independent streams.

The word function is a splitmix64-style stream: the label is hashed with
blake2b into a 64-bit key, combined with the master seed, and the k-th
word of the stream is mix64(key + k * GOLDEN).  Both a scalar and a
vectorised (numpy uint64) implementation are provided; they are
bit-identical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from hashlib import blake2b

import numpy as np

from .domain import ConfigError, check_derived, check_domains

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# numpy copies of the constants (uint64 arithmetic wraps silently, which
# is exactly what we want here)
_NP_GOLDEN = np.uint64(_GOLDEN)
_NP_MIX1 = np.uint64(_MIX1)
_NP_MIX2 = np.uint64(_MIX2)
_TWO53_INV = 1.0 / 9007199254740992.0  # 2**-53


def _mix64(x: int) -> int:
    """splitmix64 finaliser on a python int (mod 2**64)."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def _mix64_np(x: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """splitmix64 finaliser applied in place to the uint64 array x.

    ``tmp`` is scratch space of x's shape; returns x.
    """
    if tmp is None:
        tmp = np.empty_like(x)
    for shift, mult in ((30, _NP_MIX1), (27, _NP_MIX2)):
        np.right_shift(x, np.uint64(shift), out=tmp)
        np.bitwise_xor(x, tmp, out=x)
        np.multiply(x, mult, out=x)
    np.right_shift(x, np.uint64(31), out=tmp)
    return np.bitwise_xor(x, tmp, out=x)


def check_seed(master_seed: int) -> None:
    """Refuse a master seed outside [0, 2^64)."""
    if not 0 <= master_seed <= _MASK64:
        raise ConfigError("master_seed must fit in 64 bits")


def stream_key(master_seed: int, stream_label: str) -> int:
    """64-bit stream key for (master_seed, label).

    blake2b keeps the label hash stable across platforms and python
    processes (the builtin hash() is salted per process).
    """
    check_seed(master_seed)
    digest = blake2b(stream_label.encode("utf-8"), digest_size=8).digest()
    label_word = int.from_bytes(digest, "big")
    return _mix64(master_seed ^ label_word)


def uniform_word(key: int, counter: int) -> int:
    return _mix64((key + counter * _GOLDEN) & _MASK64)


def uniform(master_seed: int, stream_label: str, counter: int) -> float:
    """Uniform variate on (0, 1] for the seed triple."""
    word = uniform_word(stream_key(master_seed, stream_label), counter)
    return ((word >> 11) + 1) * _TWO53_INV


def _uniform_from_words(words: np.ndarray, out: np.ndarray | None = None):
    """Uniforms on (0, 1] from uint64 words, written into ``out`` if given.

    Shifts ``words`` in place.  Every step is exact (the shifted word is
    below 2**53), so the result does not depend on where it is computed.
    """
    np.right_shift(words, np.uint64(11), out=words)
    out = np.add(words, 1.0, out=out)
    out *= _TWO53_INV
    return out


def uniform_array(master_seed: int, stream_label: str, counters) -> np.ndarray:
    """Vectorised uniform(0,1] draws; bit-identical to scalar uniform()."""
    words = np.array(counters, dtype=np.uint64)     # a copy, mixed in place
    words *= _NP_GOLDEN
    words += np.uint64(stream_key(master_seed, stream_label))
    return _uniform_from_words(_mix64_np(words))


def derive_master(master_seed: int, text: str) -> int:
    """Derive a child master seed for an independent sub-experiment."""
    check_seed(master_seed)
    digest = blake2b(
        master_seed.to_bytes(8, "big") + text.encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


# ---------------------------------------------------------------------------
# weights


@dataclass(frozen=True)
class WeightLaw:
    """Pareto vertex-weight law P(W >= x) = x^{-(tau-1)} for x >= 1.

    The slowly-varying correction is pinned to 1.
    """

    tau: float

    def __post_init__(self):
        check_domains(vars(self), tau="(1, inf]")


def weight_from_uniform(u, law: WeightLaw):
    """Inverse-cdf transform: W = U^{-1/(tau-1)} for U in (0,1]."""
    u = np.asarray(u, dtype=np.float64)
    with np.errstate(over="ignore"):    # +inf weights are valid
        w = u ** (-1.0 / (law.tau - 1.0))
    return w if w.ndim else float(w)


# ---------------------------------------------------------------------------
# edge-length laws
#
# Each law keeps its cdf F_L private (the quantile's repair reads it) and
# exposes the generalised inverse quantile(y) = inf{t : F_L(t) >= y} for y
# in (0,1), the polynomial lower/upper decay exponents (beta_minus,
# beta_plus) of F_L at 0, and whether the explosion sum
# sum_k quantile(exp(-e^k)) converges.


class EdgeLengthLaw:
    """Base class; concrete laws implement _cdf / _quantile on arrays."""

    beta_minus: float
    beta_plus: float
    explosion_sum_converges: bool

    def quantile(self, y):
        """Generalised inverse of the cdf; F_L(quantile(y)) >= y up to a cap.

        Accepts y in (0,1); y=1 returns the essential supremum of the law.
        The raw closed form can round to a value whose cdf falls short of
        y; such entries are nudged up an ulp at a time, at most 4 times,
        rechecking only those still short.  That cap leaves 9.4% of
        PolyAtZero(0.1) draws short; one needs 48 ulps (ROADMAP item 3).
        """
        scalar = np.isscalar(y) or getattr(y, "ndim", 0) == 0
        y = np.atleast_1d(np.asarray(y, dtype=np.float64))
        check_domains(locals(), y="(0, 1]")
        t = self._quantile(y)
        ts, ys, idx = t, y, None        # still-short entries (idx None: all)
        for _ in range(4):
            finite = np.isfinite(ts)
            bad = finite & (self._cdf(np.where(finite, ts, 0.0)) < ys)
            idx = np.flatnonzero(bad) if idx is None else idx[bad]
            if not idx.size:
                break
            ts, ys = np.nextafter(t[idx], np.inf), y[idx]
            t[idx] = ts
        return float(t[0]) if scalar else t

    def sample_from_uniform(self, u):
        """Inverse-transform sample; u in (0,1] (u=1 is clipped off the atom)."""
        u = np.minimum(u, np.nextafter(1.0, 0.0))
        return self.quantile(u)


@dataclass(frozen=True)
class PolyAtZero(EdgeLengthLaw):
    """F_L(t) = min(1, t^beta): polynomial mass at zero with exponent beta."""

    beta: float

    def __post_init__(self):
        check_domains(vars(self), beta="(0, inf]")   # inf: point mass at 1

    @property
    def beta_minus(self):
        return self.beta

    @property
    def beta_plus(self):
        return self.beta

    explosion_sum_converges = True

    def _cdf(self, t):
        return np.where(t <= 0.0, 0.0, np.minimum(1.0, t**self.beta))

    def _quantile(self, y):
        return y ** (1.0 / self.beta)


@dataclass(frozen=True)
class Exponential(EdgeLengthLaw):
    """F_L(t) = 1 - exp(-rate t); decays linearly at 0 (beta = 1)."""

    rate: float

    def __post_init__(self):
        check_domains(vars(self), rate="(0, inf)")
        check_derived("rate makes the mean length 1/rate overflow",
                      lambda: 1.0 / self.rate)

    beta_minus = 1.0
    beta_plus = 1.0
    explosion_sum_converges = True

    def _cdf(self, t):
        return np.where(t <= 0.0, 0.0, -np.expm1(-self.rate * np.maximum(t, 0.0)))

    def _quantile(self, y):
        with np.errstate(divide="ignore"):
            return np.where(y >= 1.0, np.inf, -np.log1p(-y) / self.rate)


@dataclass(frozen=True)
class DoubleExpFlat(EdgeLengthLaw):
    """Doubly-exponentially flat cdf at zero: F_L(t) = exp(-c1 exp(c2/t^eta)).

    The displayed formula never reaches 1, so the law is completed into a
    proper distribution by placing the remaining mass in an atom at t=1;
    everything the toolkit consumes (decay exponents, explosion sum) only
    depends on the behaviour near 0.  Requires eta > 1, which makes the
    explosion sum diverge (terms shrink like k^{-1/eta}).
    """

    eta: float
    c1: float
    c2: float

    def __post_init__(self):
        check_domains(vars(self), eta="(1, inf]", c1="(0, inf)", c2="(0, inf)")
        # e^c2: the cdf below the atom; -log(u)/c1: the quantile at u = 2^-53
        check_derived("c1 or c2 makes e^c2 or -log(u)/c1 overflow",
                      lambda: math.exp(self.c2) + 53 * math.log(2) / self.c1)

    beta_minus = math.inf
    beta_plus = math.inf
    explosion_sum_converges = False

    def _cdf(self, t):
        with np.errstate(over="ignore", divide="ignore"):
            inner = np.exp(self.c2 / np.where(t > 0.0, t, np.inf) ** self.eta)
            val = np.exp(-self.c1 * inner)
        return np.where(t <= 0.0, 0.0, np.where(t >= 1.0, 1.0, val))

    def _quantile(self, y):
        top = math.exp(-self.c1 * math.exp(self.c2))  # cdf just below the atom
        with np.errstate(divide="ignore"):
            logly = np.log(-np.log(np.minimum(y, top)) / self.c1)
            t = (self.c2 / logly) ** (1.0 / self.eta)
        return np.where(y > top, 1.0, t)


@dataclass(frozen=True)
class PointMass(EdgeLengthLaw):
    """Degenerate law: every edge length equals ``value``."""

    value: float

    def __post_init__(self):
        check_domains(vars(self), value="[0, inf)")

    @property
    def beta_minus(self):
        return 0.0 if self.value == 0.0 else math.inf

    @property
    def beta_plus(self):
        return 0.0 if self.value == 0.0 else math.inf

    @property
    def explosion_sum_converges(self):
        return self.value == 0.0

    def _cdf(self, t):
        return np.where(t >= self.value, 1.0, 0.0)

    def _quantile(self, y):
        return np.full_like(y, self.value)


def sample_poisson(master_seed: int, stream_label: str, mean: float) -> int:
    """Poisson count (mean >= 0) addressed by (master_seed, label, 0)."""
    check_domains(locals(), mean="[0, inf)")
    if mean == 0:
        return 0
    word = uniform_word(stream_key(master_seed, stream_label), 0)
    return int(np.random.default_rng(word).poisson(mean))
