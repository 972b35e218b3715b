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


def stream_key(master_seed: int, stream_label: str) -> int:
    """64-bit stream key for (master_seed, label).

    blake2b keeps the label hash stable across platforms and python
    processes (the builtin hash() is salted per process).
    """
    digest = blake2b(stream_label.encode("utf-8"), digest_size=8).digest()
    label_word = int.from_bytes(digest, "big")
    return _mix64((master_seed & _MASK64) ^ label_word)


@dataclass(frozen=True)
class SeedSpec:
    """Address of a single variate: (master_seed, stream_label, counter)."""

    master_seed: int
    stream_label: str
    counter: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed <= _MASK64:
            raise ValueError("master_seed must fit in 64 bits")
        if self.counter < 0:
            raise ValueError("counter must be non-negative")


def uniform_word(key: int, counter: int) -> int:
    return _mix64((key + counter * _GOLDEN) & _MASK64)


def uniform(spec: SeedSpec) -> float:
    """Uniform variate on (0, 1] for the given seed triple."""
    word = uniform_word(stream_key(spec.master_seed, spec.stream_label), spec.counter)
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
    key = np.uint64(stream_key(master_seed, stream_label))
    c = np.asarray(counters, dtype=np.uint64)
    return _uniform_from_words(_mix64_np(np.asarray(key + c * _NP_GOLDEN)))


def derive_master(master_seed: int, text: str) -> int:
    """Derive a child master seed for an independent sub-experiment."""
    digest = blake2b(
        master_seed.to_bytes(8, "big") + text.encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


# ---------------------------------------------------------------------------
# weights


@dataclass(frozen=True)
class WeightLaw:
    """Pareto vertex-weight law P(W >= x) = x^{-(tau-1)} for x >= 1.

    The slowly-varying correction is pinned to 1.  ``cap`` optionally
    truncates the law by clipping (W := min(W, cap)), which is how
    weight-truncated graphs are produced.
    """

    tau: float
    cap: float | None = None

    def __post_init__(self):
        if not self.tau > 1:
            raise ValueError("tau must exceed 1")
        if self.cap is not None and self.cap < 1:
            raise ValueError("cap must be >= 1")

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = np.where(x >= 1.0, 1.0 - x ** (-(self.tau - 1.0)), 0.0)
        if self.cap is not None:
            out = np.where(x >= self.cap, 1.0, out)
        return out if out.ndim else float(out)


def weight_from_uniform(u, law: WeightLaw):
    """Inverse-cdf transform: W = U^{-1/(tau-1)} for U in (0,1]."""
    u = np.asarray(u, dtype=np.float64)
    w = u ** (-1.0 / (law.tau - 1.0))
    if law.cap is not None:
        w = np.minimum(w, law.cap)
    return w if w.ndim else float(w)


def sample_weights(master_seed: int, stream_label: str, n: int, law: WeightLaw) -> np.ndarray:
    return weight_from_uniform(
        uniform_array(master_seed, stream_label, np.arange(n, dtype=np.uint64)), law
    )


# ---------------------------------------------------------------------------
# edge-length laws
#
# Each law exposes the cdf F_L, the generalised inverse quantile(y) =
# inf{t : F_L(t) >= y} for y in (0,1), the polynomial lower/upper decay
# exponents (beta_minus, beta_plus) of F_L at 0, and whether the
# explosion sum  sum_k quantile(exp(-e^k))  converges.


class EdgeLengthLaw:
    """Base class; concrete laws implement _cdf / _quantile on arrays."""

    beta_minus: float
    beta_plus: float
    explosion_sum_converges: bool

    def cdf(self, t):
        t = np.asarray(t, dtype=np.float64)
        out = self._cdf(t)
        return out if out.ndim else float(out)

    def quantile(self, y):
        """Generalised inverse of the cdf; guarantees F_L(quantile(y)) >= y.

        Accepts y in (0,1); y=1 returns the essential supremum of the law.
        The raw closed form can round to a value whose cdf falls one ulp
        short of y, so the result is nudged up by ulps until the defining
        inequality holds exactly.
        """
        scalar = np.isscalar(y) or getattr(y, "ndim", 0) == 0
        y = np.atleast_1d(np.asarray(y, dtype=np.float64))
        if np.any((y <= 0.0) | (y > 1.0)):
            raise ValueError("quantile requires y in (0, 1]")
        t = self._quantile(y)
        # ulp repair (at most a couple of iterations ever trigger)
        for _ in range(4):
            finite = np.isfinite(t)
            bad = finite & (self._cdf(np.where(finite, t, 0.0)) < y)
            if not bad.any():
                break
            t = np.where(bad, np.nextafter(t, np.inf), t)
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
        if not self.beta > 0:
            raise ValueError("beta must be positive")

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
        if not self.rate > 0:
            raise ValueError("rate must be positive")

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
        if not self.eta > 1:
            raise ValueError("eta must exceed 1")
        if self.c1 <= 0 or self.c2 <= 0:
            raise ValueError("c1, c2 must be positive")

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
        if self.value < 0:
            raise ValueError("value must be non-negative")

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


def sample_poisson(spec: SeedSpec, mean: float) -> int:
    """Poisson count addressed by a seed triple (mean >= 0)."""
    if mean < 0:
        raise ValueError("mean must be non-negative")
    if mean == 0:
        return 0
    word = uniform_word(stream_key(spec.master_seed, spec.stream_label), spec.counter)
    return int(np.random.default_rng(word).poisson(mean))
