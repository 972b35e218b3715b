"""Spatial random graph models: GIRG, IGIRG window, SFP window, HRG.

Generation is counter-based: every random quantity (position coordinate,
weight, edge coin, edge length) is addressed by (master seed, stream label,
counter), so any single pair can be resampled bit-identically without
replaying the rest of the graph, and the adjacency is independent of the
edge-length law (re-lengthing a graph keeps its edges and couples lengths
across laws through shared uniforms).

Vertex positions live in a d-dimensional box window; the unit-volume GIRG
torus and the HRG circle (after mapping) use periodic distance, the finite
windows use plain Euclidean distance.
"""
from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import Window
from .rng import (
    _GOLDEN,
    _MASK64,
    _NP_GOLDEN,
    _mix64_np,
    _uniform_from_words,
    EdgeLengthLaw,
    WeightLaw,
    sample_poisson,
    SeedSpec,
    stream_key,
    uniform_array,
    weight_from_uniform,
)

_VERTEX_CAP = 100_000
# Pair-sweep block side: a 256 x 256 float64 buffer is 512 KiB, so the six
# buffers of a block stay close to a core's L2 cache (larger blocks spill
# and run slower; smaller ones pay more per-call overhead).
_BLOCK = 256
# Threads for the pair sweep; None means one per CPU this process may use.
# Edges do not depend on it, which the golden-digest tests check by pinning it.
_SWEEP_THREADS = None


# ---------------------------------------------------------------------------
# containers


@dataclass(frozen=True)
class VertexSet:
    window: Window
    positions: np.ndarray          # (n, d)
    weights: np.ndarray            # (n,), all >= 1
    origin_index: int | None = None

    def __post_init__(self):
        pos = np.ascontiguousarray(self.positions, dtype=np.float64)
        if pos.ndim == 1:
            pos = pos[:, None]
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", w)
        if pos.shape[0] != w.shape[0]:
            raise ValueError("positions and weights disagree on vertex count")
        if pos.shape[1] != self.window.d:
            raise ValueError("position dimension does not match window")
        if w.size and w.min() < 1.0:
            raise ValueError("weights must be >= 1")
        if self.origin_index is not None and not 0 <= self.origin_index < w.shape[0]:
            raise ValueError("origin_index out of range")

    @property
    def n(self) -> int:
        return self.weights.shape[0]


class Graph:
    """Undirected graph with one length per edge, edges stored as u < v."""

    def __init__(self, vertices: VertexSet, edges_u, edges_v, lengths,
                 spec=None, seed=None):
        self.vertices = vertices
        u = np.ascontiguousarray(edges_u, dtype=np.int64)
        v = np.ascontiguousarray(edges_v, dtype=np.int64)
        ell = np.ascontiguousarray(lengths, dtype=np.float64)
        if not (u.shape == v.shape == ell.shape):
            raise ValueError("edge arrays must have equal length")
        if u.size:
            if (u >= v).any():
                raise ValueError("edges must satisfy u < v")
            if u.min() < 0 or v.max() >= vertices.n:
                raise ValueError("edge endpoint out of range")
            # files and subgraphs arrive sorted; only the rest pay for a sort
            if not (np.diff(u * vertices.n + v) > 0).all():
                order = np.lexsort((v, u))
                u, v, ell = u[order], v[order], ell[order]
                if (np.diff(u * vertices.n + v) == 0).any():
                    raise ValueError("duplicate edge")
            if (ell < 0).any():
                raise ValueError("edge lengths must be non-negative")
        self.edges_u = u
        self.edges_v = v
        self.lengths = ell
        self.spec = spec
        self.seed = seed
        self._edge_derived = {}

    @property
    def n(self) -> int:
        return self.vertices.n

    @property
    def m(self) -> int:
        return self.edges_u.shape[0]

    def edge_cached(self, key: str, build):
        """build(self), once per edge set: with_lengths copies share it."""
        if key not in self._edge_derived:
            self._edge_derived[key] = build(self)
        return self._edge_derived[key]

    @property
    def csr(self) -> tuple:
        """Read-only CSR adjacency (indptr, nbr, eid): slots indptr[v]:
        indptr[v+1] hold v's neighbours, ascending, and those edges' ids."""
        return self.edge_cached("csr", _build_csr)

    def neighbors(self, v: int) -> np.ndarray:
        indptr, nbr, _ = self.csr
        return nbr[indptr[v]:indptr[v + 1]]

    def incident_edges(self, v: int) -> np.ndarray:
        indptr, _, eid = self.csr
        return eid[indptr[v]:indptr[v + 1]]

    def degrees(self) -> np.ndarray:
        return (np.bincount(self.edges_u, minlength=self.n)
                + np.bincount(self.edges_v, minlength=self.n))

    def with_lengths(self, lengths) -> "Graph":
        """Same vertices and edges, new lengths in this graph's edge order.

        The edge arrays were validated and sorted when this graph was built,
        so only the lengths are checked.
        """
        ell = np.ascontiguousarray(lengths, dtype=np.float64)
        if ell.shape != self.edges_u.shape:
            raise ValueError("edge arrays must have equal length")
        if (ell < 0).any():
            raise ValueError("edge lengths must be non-negative")
        g = object.__new__(Graph)
        g.vertices, g.spec, g.seed = self.vertices, self.spec, self.seed
        g.edges_u, g.edges_v, g.lengths = self.edges_u, self.edges_v, ell
        g._edge_derived = self._edge_derived
        return g


def _build_csr(g: Graph) -> tuple:
    # Half-edges to smaller neighbours (v -> u) precede those to larger ones,
    # each block in (u, v) order, so a stable sort by source sorts each row.
    src = np.concatenate([g.edges_v, g.edges_u])
    order = np.argsort(src, kind="stable")
    nbr = np.concatenate([g.edges_u, g.edges_v])[order]
    eid = order % max(g.m, 1)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=g.n))])
    indptr.flags.writeable = nbr.flags.writeable = eid.flags.writeable = False
    return indptr, nbr, eid


# ---------------------------------------------------------------------------
# model specifications


@dataclass(frozen=True)
class Girg:
    """n weighted vertices on the unit torus; kernel scaled by 1/n."""

    n: int
    d: int
    tau: float
    alpha: float       # > 1, math.inf for the threshold kernel
    c: float
    c1_threshold: float = 1.0

    def __post_init__(self):
        _check_common(self.n, self.d, self.tau)
        if self.alpha <= 1.0:
            raise ValueError("alpha must exceed 1 (or be inf)")
        if self.c < 0 or self.c1_threshold <= 0:
            raise ValueError("kernel constants must be positive (c >= 0)")

    @property
    def window(self) -> Window:
        return Window(self.d, 1.0, boundary="torus")


@dataclass(frozen=True)
class IgirgWindow:
    """Poisson cloud of intensity lam on a finite box, n-free kernel."""

    lam: float
    d: int
    side: float
    tau: float
    alpha: float
    c: float
    c1_threshold: float = 1.0
    pin_origin: bool = False

    def __post_init__(self):
        if self.lam <= 0 or self.side <= 0:
            raise ValueError("lam and side must be positive")
        _check_common(1, self.d, self.tau)
        if self.alpha <= 1.0:
            raise ValueError("alpha must exceed 1 (or be inf)")
        if self.c < 0 or self.c1_threshold <= 0:
            raise ValueError("kernel constants must be positive (c >= 0)")

    @property
    def window(self) -> Window:
        return Window(self.d, self.side, boundary="hard")


@dataclass(frozen=True)
class SfpWindow:
    """Integer grid [-radius, radius]^d, nearest-neighbour edges forced."""

    d: int
    radius: int
    tau: float
    lambda_perc: float
    alpha_norm: float

    def __post_init__(self):
        if self.radius < 0 or self.d < 1:
            raise ValueError("need d >= 1 and radius >= 0")
        if not self.tau > 1.0:
            raise ValueError("tau must exceed 1")
        if self.lambda_perc <= 0 or self.alpha_norm <= 0:
            raise ValueError("lambda_perc and alpha_norm must be positive")

    @property
    def window(self) -> Window:
        return Window(self.d, 2.0 * self.radius + 1.0, boundary="hard")


@dataclass(frozen=True)
class Hrg:
    """Hyperbolic random graph on a disk of radius R_n = 2 ln n + C_H."""

    n: int
    alpha_H: float
    C_H: float
    T_H: float | None = None    # None: threshold connectivity d_H <= R_n

    def __post_init__(self):
        _check_common(self.n, 1, 2.0 * self.alpha_H + 1.0)
        if not 0.5 < self.alpha_H < 1.0:
            raise ValueError("alpha_H must lie in (1/2, 1)")
        if self.T_H is not None and self.T_H <= 0:
            raise ValueError("T_H must be positive (or None)")

    @property
    def R_n(self) -> float:
        return 2.0 * math.log(self.n) + self.C_H

    @property
    def tau(self) -> float:
        return 2.0 * self.alpha_H + 1.0

    @property
    def window(self) -> Window:
        return Window(1, 1.0, boundary="torus")


def _check_common(n, d, tau):
    if n < 1:
        raise ValueError("need at least one vertex")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if not tau > 1.0:
        raise ValueError("tau must exceed 1")


# ---------------------------------------------------------------------------
# hyperbolic geometry and the HRG -> GIRG mapping


def hyperbolic_distance(r_u, r_v, dphi):
    """Distance in the hyperbolic plane between (r_u, 0) and (r_v, dphi).

    Computed via cosh d = cosh(r_u - r_v) + 2 sin^2(dphi/2) sinh r_u sinh r_v,
    which avoids the catastrophic cancellation of the textbook form when the
    angle is small; the arccosh argument is clamped at 1.
    """
    r_u = np.asarray(r_u, dtype=np.float64)
    r_v = np.asarray(r_v, dtype=np.float64)
    dphi = np.asarray(dphi, dtype=np.float64)
    s = np.sin(0.5 * dphi)
    arg = np.cosh(r_u - r_v) + 2.0 * s * s * np.sinh(r_u) * np.sinh(r_v)
    out = np.arccosh(np.maximum(arg, 1.0))
    return out if out.ndim else float(out)


def hrg_to_girg_coords(phi, r, spec: Hrg):
    """Map disk coordinates to torus position x in [-1/2, 1/2) and weight.

    x = (phi - pi) / (2 pi), W = exp((R_n - r) / 2); W has a Pareto tail
    with exponent 2 alpha_H (so tau = 2 alpha_H + 1).
    """
    phi = np.asarray(phi, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    x = (phi - math.pi) / (2.0 * math.pi)
    w = np.exp(0.5 * (spec.R_n - r))
    if x.ndim:
        return x, w
    return float(x), float(w)


def hrg_radius_from_uniform(u, spec: Hrg):
    """Inverse cdf of the radial law (cosh(a r) - 1)/(cosh(a R) - 1)."""
    u = np.asarray(u, dtype=np.float64)
    a = spec.alpha_H
    out = np.arccosh(1.0 + u * (math.cosh(a * spec.R_n) - 1.0)) / a
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# connection kernels


def _dist_pow(dist, d, out=None):
    """dist**d; squaring goes through np.square, as numpy's ``**`` does."""
    if d == 2:
        return np.square(dist, out=out)
    return np.power(dist, d, out=out)


def _power_kernel(wprod, dist_pow_d, scale, alpha, c, c1, out):
    """min(1, c (wprod / (scale * dist^d))^alpha) written into ``out``.

    The threshold form applies at alpha = inf.  ``out`` has the broadcast
    shape of the inputs and may be dist_pow_d itself.  dist = 0 needs no
    special care: the argument overflows to +inf and the kernel saturates
    at 1 (weights are >= 1, so 0/0 cannot occur).
    """
    if math.isinf(alpha):
        np.copyto(out, c1 * wprod >= scale * dist_pow_d)
        return out
    if c == 0.0:
        np.copyto(out, dist_pow_d == 0.0)
        return out
    den = dist_pow_d
    if scale != 1.0:
        den = np.multiply(dist_pow_d, scale, out=out)
    np.divide(wprod, den, out=out)
    if alpha == 2.0:
        np.multiply(out, out, out=out)
    else:
        np.power(out, alpha, out=out)
    np.multiply(out, c, out=out)
    return np.minimum(out, 1.0, out=out)


def _kernel_scale(spec) -> float:
    """Distance scale of the power kernel: n on the GIRG torus, else 1."""
    return float(spec.n) if isinstance(spec, Girg) else 1.0


def connect_prob(spec, w_u, w_v, dist):
    """Connection probability of a pair at the given window distance.

    Symmetric in the weights; dist = 0 yields 1 for every model (for HRG
    that is the purely radial regime, where d_H <= |r_u - r_v| < R_n).
    Scalars in, scalar out; arrays broadcast.
    """
    w_u = np.asarray(w_u, dtype=np.float64)
    w_v = np.asarray(w_v, dtype=np.float64)
    dist = np.asarray(dist, dtype=np.float64)
    wprod = w_u * w_v
    with np.errstate(divide="ignore", over="ignore"):
        if isinstance(spec, (Girg, IgirgWindow)):
            out = np.empty(np.broadcast_shapes(wprod.shape, dist.shape))
            p = _power_kernel(wprod, _dist_pow(dist, spec.d),
                              _kernel_scale(spec), spec.alpha, spec.c,
                              spec.c1_threshold, out=out)
        elif isinstance(spec, SfpWindow):
            arg = wprod / dist**spec.d
            if math.isinf(spec.alpha_norm):
                p = np.where(arg > 1.0, 1.0,
                             np.where(arg == 1.0,
                                      -math.expm1(-spec.lambda_perc), 0.0))
            else:
                p = -np.expm1(-spec.lambda_perc * arg**spec.alpha_norm)
            p = np.where(np.isclose(dist, 1.0, rtol=0.0, atol=1e-9), 1.0, p)
        elif isinstance(spec, Hrg):
            r_u = spec.R_n - 2.0 * np.log(w_u)
            r_v = spec.R_n - 2.0 * np.log(w_v)
            d_h = hyperbolic_distance(r_u, r_v, 2.0 * math.pi * dist)
            if spec.T_H is None:
                p = np.where(d_h <= spec.R_n, 1.0, 0.0)
            else:
                p = 1.0 / (1.0 + np.exp((d_h - spec.R_n) / (2.0 * spec.T_H)))
            p = np.where(dist == 0.0, 1.0, p)
        else:
            raise TypeError(f"unknown model spec {type(spec).__name__}")
    return p if p.ndim else float(p)


# ---------------------------------------------------------------------------
# generation


def _pair_keys(u, v, n):
    return u.astype(np.int64) * np.int64(n) + v.astype(np.int64)


def _block_distances(axes, i0, i1, j0, j1, side, torus, out, tmp, tmp2):
    """Window distances of rows i0:i1 to columns j0:j1, written into ``out``.

    ``axes`` holds one contiguous coordinate array per axis; distances are
    accumulated one axis at a time, with ``tmp`` and ``tmp2`` as scratch of
    out's shape.
    """
    d = len(axes)
    for k, x in enumerate(axes):
        dx = out if k == 0 else tmp
        np.subtract(x[i0:i1, None], x[None, j0:j1], out=dx)
        np.abs(dx, out=dx)
        if torus:
            np.minimum(dx, np.subtract(side, dx, out=tmp2), out=dx)
        if d == 1:
            return out
        np.multiply(dx, dx, out=dx)
        if k:
            out += dx
    return np.sqrt(out, out=out)


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def _sample_edges(spec, master_seed, vs: VertexSet, length_law):
    """Blocked upper-triangle Bernoulli sweep over all vertex pairs.

    Every pair gets its coin compared against p (a coin is always > 0 and
    <= 1, so p = 0 never fires and p = 1 always does); the coin for pair
    (u, v) depends only on (master seed, u*n + v), reproducing
    uniform_array(seed, "edges", [u*n + v]) bit for bit.  Because nothing
    depends on the order in which blocks are visited, rows of blocks are
    spread over threads (numpy releases the GIL inside each operation);
    each thread reuses its own block buffers.
    """
    n = vs.n
    torus = vs.window.boundary == "torus"
    side = vs.window.side
    axes = [np.ascontiguousarray(col) for col in vs.positions.T]
    weights = vs.weights
    key = stream_key(master_seed, "edges")
    power = isinstance(spec, (Girg, IgirgWindow))
    size = min(_BLOCK, n)
    ii = np.arange(size, dtype=np.uint64)[:, None]
    jj = np.arange(size, dtype=np.uint64)[None, :]
    pre = (ii * np.uint64(n) + jj) * _NP_GOLDEN    # coin counters in a block
    tri = ii < jj                                  # pairs u < v on the diagonal
    local = threading.local()

    def sweep_row(i0):
        if not hasattr(local, "bufs"):
            local.bufs = [np.empty(size * size, dtype=t) for t in
                          (np.float64, np.float64, np.float64,
                           np.uint64, np.uint64, bool)]
        i1 = min(i0 + _BLOCK, n)
        us, vls = [], []
        for j0 in range(i0, n, _BLOCK):
            j1 = min(j0 + _BLOCK, n)
            bi, bw = i1 - i0, j1 - j0
            dist, a, b, words, tmp, accept = (
                x[:bi * bw].reshape(bi, bw) for x in local.bufs)
            _block_distances(axes, i0, i1, j0, j1, side, torus, dist, a, b)
            w_i, w_j = weights[i0:i1, None], weights[None, j0:j1]
            if power:
                with np.errstate(divide="ignore", over="ignore"):
                    p = _power_kernel(np.multiply(w_i, w_j, out=b),
                                      _dist_pow(dist, spec.d, out=a),
                                      _kernel_scale(spec), spec.alpha, spec.c,
                                      spec.c1_threshold, out=a)
            else:
                p = connect_prob(spec, w_i, w_j, dist)
            base = np.uint64((key + (i0 * n + j0) * _GOLDEN) & _MASK64)
            np.add(pre[:bi, :bw], base, out=words)
            coins = _uniform_from_words(_mix64_np(words, tmp), out=dist)
            np.less_equal(coins, p, out=accept)
            if i0 == j0:
                accept &= tri[:bi, :bw]
            idx = np.flatnonzero(accept)
            if idx.size:
                us.append(i0 + idx // bw)
                vls.append(j0 + idx % bw)
        return us, vls

    rows = range(0, n, _BLOCK)
    threads = min(_SWEEP_THREADS or _available_cpus(), len(rows))
    if threads > 1:
        with ThreadPoolExecutor(threads) as pool:
            parts = list(pool.map(sweep_row, rows))
    else:
        parts = [sweep_row(i0) for i0 in rows]
    us = [x for row_us, _ in parts for x in row_us]
    vls = [x for _, row_vs in parts for x in row_vs]
    if us:
        u = np.concatenate(us)
        v = np.concatenate(vls)
    else:
        u = np.zeros(0, dtype=np.int64)
        v = np.zeros(0, dtype=np.int64)
    ls = _edge_lengths(master_seed, u, v, n, length_law)
    return u, v, ls


def _edge_lengths(master_seed, u, v, n, length_law):
    if u.size == 0:
        return np.zeros(0, dtype=np.float64)
    if length_law is None:
        return np.ones(u.shape[0], dtype=np.float64)
    keys = _pair_keys(u, v, n)
    draws = uniform_array(master_seed, "lengths", keys)
    return np.asarray(length_law.sample_from_uniform(draws), dtype=np.float64)


def relength(g: Graph, length_law: EdgeLengthLaw | None) -> Graph:
    """Same adjacency, lengths redrawn from the graph's own seed.

    Lengths for different laws share the per-pair uniform, so re-lengthing
    couples them through the quantile transform.
    """
    if g.seed is None:
        raise ValueError("graph carries no seed; cannot redraw lengths")
    ls = _edge_lengths(g.seed, g.edges_u, g.edges_v, g.n, length_law)
    return g.with_lengths(ls)


def _uniform_positions(master_seed, n, d, side):
    counters = np.arange(n * d, dtype=np.int64)
    u = uniform_array(master_seed, "pos", counters).reshape(n, d)
    return (u - 0.5) * side


def _pareto_weights(master_seed, n, tau, cap=None):
    counters = np.arange(n, dtype=np.int64)
    u = uniform_array(master_seed, "weights", counters)
    return weight_from_uniform(u, WeightLaw(tau, cap=cap))


def check_vertex_count(n: int) -> None:
    """Refuse a graph above the vertex cap before any of it is sampled."""
    if n > _VERTEX_CAP:
        raise ValueError(f"vertex count {n} exceeds cap {_VERTEX_CAP}")


def generate(spec, master_seed: int, length_law: EdgeLengthLaw | None = None,
             weight_cap: float | None = None) -> Graph:
    """Sample a graph; identical (spec, seed, law) gives identical bytes."""
    if isinstance(spec, Girg):
        check_vertex_count(spec.n)
        pos = _uniform_positions(master_seed, spec.n, spec.d, 1.0)
        w = _pareto_weights(master_seed, spec.n, spec.tau, weight_cap)
        vs = VertexSet(spec.window, pos, w)
    elif isinstance(spec, IgirgWindow):
        mean = spec.lam * spec.side**spec.d
        n_pois = sample_poisson(SeedSpec(master_seed, "count", 0), mean)
        n_total = n_pois + (1 if spec.pin_origin else 0)
        check_vertex_count(n_total)
        if n_total == 0:
            raise ValueError("empty Poisson sample; enlarge lam or side")
        pos = _uniform_positions(master_seed, n_pois, spec.d, spec.side)
        if spec.pin_origin:
            pos = np.vstack([pos, np.zeros((1, spec.d))])
        w = _pareto_weights(master_seed, n_total, spec.tau, weight_cap)
        vs = VertexSet(spec.window, pos, w,
                       origin_index=n_total - 1 if spec.pin_origin else None)
    elif isinstance(spec, SfpWindow):
        axes = [np.arange(-spec.radius, spec.radius + 1)] * spec.d
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        pos = grid.reshape(-1, spec.d).astype(np.float64)
        n = pos.shape[0]
        check_vertex_count(n)
        w = _pareto_weights(master_seed, n, spec.tau, weight_cap)
        origin = int(np.flatnonzero((pos == 0.0).all(axis=1))[0])
        vs = VertexSet(spec.window, pos, w, origin_index=origin)
    elif isinstance(spec, Hrg):
        check_vertex_count(spec.n)
        counters = np.arange(spec.n, dtype=np.int64)
        phi = 2.0 * math.pi * uniform_array(master_seed, "angle", counters)
        r = hrg_radius_from_uniform(
            uniform_array(master_seed, "radius", counters), spec)
        x, w = hrg_to_girg_coords(phi, r, spec)
        x = x - np.floor(x + 0.5)   # wrap into [-1/2, 1/2)
        vs = VertexSet(spec.window, x[:, None], np.maximum(w, 1.0))
    else:
        raise TypeError(f"unknown model spec {type(spec).__name__}")
    u, v, ls = _sample_edges(spec, master_seed, vs, length_law)
    return Graph(vs, u, v, ls, spec=spec, seed=master_seed)
