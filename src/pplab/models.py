"""Spatial random graph models: GIRG, IGIRG window, SFP window, HRG.

Generation is counter-based: every random quantity (position coordinate,
weight, edge coin, edge length, skip draw) is addressed by (master seed,
stream label, counter), so nothing depends on the order in which it is
drawn.  A pair's coin and length can be recomputed on their own, and a
pair is an edge exactly when its coin is at most p, except for the far
GIRG pairs that the cell sampler reaches by geometric skipping
(see "Girg edges by weight layers x hierarchical cells").  The adjacency
is independent of the edge-length law (re-lengthing a graph keeps its
edges and couples lengths across laws through shared uniforms).

Vertex positions live in a d-dimensional box window; the unit-volume GIRG
torus and the HRG circle (after mapping) use periodic distance, the finite
windows use plain Euclidean distance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.sparse import coo_array

from .domain import ConfigError, check_derived, check_domains
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
    stream_key,
    uniform_array,
    weight_from_uniform,
)

_VERTEX_CAP = 100_000
# Pair sweep: strips of _STRIP rows cut into tiles _TILE wide (512 KiB per
# full float64 buffer, about a core's L2).  Only a strip's first tile meets
# the diagonal.  On a ~1,000-vertex d = 1 window, 32-row strips took 0.79x
# the old 256 x 256 squares' time; 64 rows 0.86x, 128 rows 0.94x (ROADMAP).
_STRIP = 32
_TILE = 2048


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
        check_domains({"positions": pos, "weights": w},
                      positions="(-inf, inf)", weights="[1, inf]")
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
            _check_lengths(ell)
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
        _check_lengths(ell)
        g = object.__new__(Graph)
        g.vertices, g.spec, g.seed = self.vertices, self.spec, self.seed
        g.edges_u, g.edges_v, g.lengths = self.edges_u, self.edges_v, ell
        g._edge_derived = self._edge_derived
        return g


def _check_lengths(ell) -> None:
    if not (ell >= 0).all():                # NaN fails too; +inf is kept
        raise ValueError("edge lengths must be non-negative")


def _build_csr(g: Graph) -> tuple:
    # Every row's neighbours are distinct, so its ascending order is unique;
    # scipy's COO -> CSR conversion returns rows in that (canonical) order.
    a = coo_array((np.tile(np.arange(g.m, dtype=np.int64), 2),
                   (np.concatenate([g.edges_v, g.edges_u]),
                    np.concatenate([g.edges_u, g.edges_v]))),
                  shape=(g.n, g.n)).tocsr()
    indptr, nbr, eid = (x.astype(np.int64, copy=False)
                        for x in (a.indptr, a.indices, a.data))
    indptr.flags.writeable = nbr.flags.writeable = eid.flags.writeable = False
    return indptr, nbr, eid


# ---------------------------------------------------------------------------
# model specifications

# Girg's and IgirgWindow's shared fields; c = inf would join every pair.
_POWER_KERNEL = dict(d="[1, inf)", tau="(1, inf]", alpha="(1, inf]",
                     c="[0, inf)")


@dataclass(frozen=True)
class Girg:
    """n weighted vertices on the unit torus; the kernel's distance scale
    is n (see _power_kernel)."""

    n: int
    d: int
    tau: float
    alpha: float       # > 1, math.inf for the threshold kernel
    c: float           # kernel constant at every alpha; 0: coincident only

    def __post_init__(self):
        check_domains(vars(self), n="[1, inf)", **_POWER_KERNEL)

    @property
    def window(self) -> Window:
        return Window(self.d, 1.0, boundary="torus")


@dataclass(frozen=True)
class IgirgWindow:
    """Poisson cloud of intensity lam on a finite box; the kernel's
    distance scale is 1 (n-free), with alpha and c as in Girg."""

    lam: float
    d: int
    side: float
    tau: float
    alpha: float
    c: float
    pin_origin: bool = False

    def __post_init__(self):
        check_domains(vars(self), lam="(0, inf)", side="(0, inf)",
                      **_POWER_KERNEL)

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
        check_domains(vars(self), d="[1, inf)", radius="[0, inf)",
                      tau="(1, inf]", lambda_perc="(0, inf)",
                      alpha_norm="(0, inf]")

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
        check_domains(vars(self), alpha_H="(0.5, 1)", n="[1, inf)",
                      C_H="(-inf, inf)")
        if self.T_H is not None:
            check_domains(vars(self), T_H="(0, inf]")
        check_derived("n and C_H make sinh(R_n)^2, R_n = 2 ln n + C_H, "
                      "overflow", lambda: math.sinh(self.R_n) ** 2)

    @property
    def R_n(self) -> float:
        return 2.0 * math.log(self.n) + self.C_H

    @property
    def tau(self) -> float:
        return 2.0 * self.alpha_H + 1.0

    @property
    def window(self) -> Window:
        return Window(1, 1.0, boundary="torus")


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
    """dist**d (dist itself at d = 1); squares use np.square, as ``**`` does."""
    if d == 1:
        return dist
    if d == 2:
        return np.square(dist, out=out)
    return np.power(dist, d, out=out)


def _power_kernel(spec, wprod, dist_pow_d, out):
    """The Girg / IgirgWindow kernel, written into ``out``.

    With the spec's alpha and c, and scale = n on the Girg torus, 1 in an
    IgirgWindow: min(1, c (wprod / (scale dist^d))^alpha) at finite alpha,
    the threshold 1{c wprod >= scale dist^d} at alpha = inf (after
    Bringmann, Keusch and Lengler, ESA 2017), and 1{dist = 0} at c = 0
    for every alpha.  ``out`` has the broadcast shape of the inputs and
    may be dist_pow_d itself.  dist = 0 needs no special care: the
    argument overflows to +inf and the kernel saturates at 1 (weights are
    >= 1, so 0/0 cannot occur).
    """
    alpha, c = spec.alpha, spec.c
    scale = float(spec.n) if isinstance(spec, Girg) else 1.0
    with np.errstate(divide="ignore", over="ignore"):
        if c == 0.0:
            np.copyto(out, dist_pow_d == 0.0)
        elif math.isinf(alpha):
            np.copyto(out, c * wprod >= scale * dist_pow_d)
        else:
            den = dist_pow_d
            if scale != 1.0:
                den = np.multiply(dist_pow_d, scale, out=out)
            np.divide(wprod, den, out=out)
            if alpha == 2.0:
                np.multiply(out, out, out=out)
            else:
                np.power(out, alpha, out=out)
            if c != 1.0:
                np.multiply(out, c, out=out)
            np.minimum(out, 1.0, out=out)
    return out


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
            p = _power_kernel(spec, wprod, _dist_pow(dist, spec.d), np.empty(
                np.broadcast_shapes(wprod.shape, dist.shape)))
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


def _pairwise_pairs(spec, master_seed, vs: VertexSet):
    """Edges (u, v), u < v, in (u, v) order, of a sweep over the upper
    triangle in strips of rows; only a strip's first tile has pairs u >= v.

    Every pair gets its coin compared against p (a coin is always > 0 and
    <= 1, so p = 0 never fires and p = 1 always does); the coin for pair
    (u, v) depends only on (master seed, u*n + v), reproducing
    uniform_array(seed, "edges", [u*n + v]) bit for bit.  The tiles
    share one set of buffers, and the accepted keys are sorted into (u, v)
    order at the end.
    """
    n = vs.n
    torus = vs.window.boundary == "torus"
    side = vs.window.side
    axes = [np.ascontiguousarray(col) for col in vs.positions.T]
    weights = vs.weights
    key = stream_key(master_seed, "edges")
    power = isinstance(spec, (Girg, IgirgWindow))
    rows, cols = min(_STRIP, n), min(_TILE, n)
    ii = np.arange(rows, dtype=np.uint64)[:, None]
    jj = np.arange(cols, dtype=np.uint64)[None, :]
    pre = (ii * np.uint64(n) + jj) * _NP_GOLDEN    # coin counters in a tile
    tri = ii < jj                                  # pairs u < v of a first tile
    bufs = [np.empty(rows * cols, dtype=t) for t in
            (np.float64, np.float64, np.float64, np.uint64, np.uint64, bool)]
    keys = []
    for i0 in range(0, n, _STRIP):
        i1 = min(i0 + _STRIP, n)
        for j0 in range(i0, n, _TILE):
            j1 = min(j0 + _TILE, n)
            bi, bw = i1 - i0, j1 - j0
            dist, a, b, words, tmp, accept = (
                x[:bi * bw].reshape(bi, bw) for x in bufs)
            _block_distances(axes, i0, i1, j0, j1, side, torus, dist, a, b)
            w_i, w_j = weights[i0:i1, None], weights[None, j0:j1]
            if power:
                p = _power_kernel(spec, np.multiply(w_i, w_j, out=b),
                                  _dist_pow(dist, spec.d, out=a), a)
            else:
                p = connect_prob(spec, w_i, w_j, dist)
            base = np.uint64((key + (i0 * n + j0) * _GOLDEN) & _MASK64)
            np.add(pre[:bi, :bw], base, out=words)
            coins = _uniform_from_words(_mix64_np(words, tmp), out=dist)
            np.less_equal(coins, p, out=accept)
            if i0 == j0:
                accept &= tri[:bi, :bw]
            idx = np.flatnonzero(accept)
            keys.append((i0 + idx // bw) * n + j0 + idx % bw)
    edges = np.sort(np.concatenate(keys))
    return edges // n, edges % n


# ---------------------------------------------------------------------------
# Girg edges by weight layers x hierarchical cells
#
# After Bringmann, Keusch and Lengler, "Sampling geometric inhomogeneous
# random graphs in linear time" (ESA 2017).  Vertex u sits in weight layer
# floor(log2 w_u), so w_u w_v < 2^(i+j+2) for u in layer i and v in layer j.
# Level l cuts the torus into 2^l cells per axis; two cells are neighbours
# when they are at most one cell apart on every axis, cyclically.  A layer
# pair (i, j) gets a base level: the finest level whose cell side is at
# least the connection radius at weight product 2^(i+j+2).  Each of its
# vertex pairs falls in exactly one class:
#   type I   the two cells at the base level are neighbours.  The pair is
#            decided by its own coin, exactly as in the all-pairs sweep.
#   type II  the two cells at level l (2 <= l <= base) are not neighbours
#            while their parents at l - 1 are.  The pair is then at least
#            2^-l apart, so p <= pbar = kernel(2^(i+j+2), 2^-l).  The type
#            II pairs of (i, j, l) form one flat index space; candidates are
#            drawn from it by geometric skipping under pbar, and a
#            candidate is an edge when its pair coin satisfies
#            coin * pbar <= p.  A class whose pbar is 1 (at the base
#            level, when the radius is exactly a cell side) has nothing to
#            skip: each of its pairs is decided by its own coin, as type I
#            pairs are.
# So every pair is an edge with probability p, independently of the others.

# Pairs or skip draws per array pass: a pass's arrays stay in a core's L2
# cache (2^16 made a 2^14-vertex graph about 10% slower).
_CHUNK = 1 << 14
# A pair the cell sampler examines costs about this many pairs of the
# all-pairs sweep, so the sampler runs when the expected number of pairs it
# examines, times this, is below n(n-1)/2.  The value was measured at
# n = 2^10 to 2^14 on a 2-CPU machine while the sweep still ran on two
# threads.  It is kept on purpose: changing it changes which sampler draws
# a given Girg, and so moves graph digests.  ROADMAP item 4 deletes this
# chooser, with the all-pairs sweep, once the cell sampler covers every model.
_CELL_PAIR_COST = 8.0


@dataclass(frozen=True)
class _CellPlan:
    layer: np.ndarray          # each vertex's weight layer (top layers merged)
    base: np.ndarray           # base level per layer sum s = i + j
    finest: int                # finest level: 2^(finest d) <= n
    examined: float            # expected pairs examined (type I + candidates)

    def pays_off(self, n: int) -> bool:
        return self.examined * _CELL_PAIR_COST < n * (n - 1) / 2


def _type_two_bound(spec: Girg, s, level: int) -> np.ndarray:
    """pbar = kernel(2^(s+2), 2^-level) for an array of layer sums s."""
    wprod = np.ldexp(1.0, np.asarray(s, dtype=np.int64) + 2)
    return _power_kernel(spec, wprod, np.ldexp(1.0, -level * spec.d),
                         np.empty(wprod.shape))


def _cell_offsets(level: int, d: int, far: bool) -> np.ndarray:
    """Per-axis cell offsets modulo 2^level, shape (parities, K, d).

    near: the 3^d neighbours (fewer once offsets wrap).  far: the cells
    whose parents neighbour the parent of a cell but which are not its
    neighbours; they depend on the cell's parity on each axis (row p
    holds parity bit k of axis k), and every row has the same length.
    """
    m = 1 << level
    near = sorted({o % m for o in (-1, 0, 1)})
    if not far:
        return np.array([list(product(near, repeat=d))], dtype=np.int64)
    rows = []
    for parity in range(1 << d):
        axes = [sorted({o % m for o in range(-2 - (parity >> k & 1),
                                             4 - (parity >> k & 1))})
                for k in range(d)]
        rows.append([t for t in product(*axes)
                     if any(x not in near for x in t)])
    return np.array(rows, dtype=np.int64)


def _cell_plan(spec: Girg, w) -> _CellPlan:
    """Layers and base levels of the cell sampler for weights w, and the
    expected number of pairs it examines (vertices are uniform on the
    torus, so a class's share of cell pairs is its share of vertex pairs).
    """
    n, d = w.shape[0], spec.d
    finest = (n.bit_length() - 1) // d
    if spec.c == 0.0:
        # only coincident points connect: one layer, finest cells
        layer = np.zeros(n, dtype=np.int64)
        base = np.full(1, finest, dtype=np.int64)
    else:
        log_c = (math.log2(spec.c) if math.isinf(spec.alpha)
                 else math.log2(spec.c) / spec.alpha)
        # the radius at weight product 2^(s+2) is 2^-((x - s) / d)
        x = math.log2(n) - 2.0 - log_c

        def base_level(s):
            return np.clip(np.floor((x - s) / d), 0, finest).astype(np.int64)

        # levels 0 and 1 hold only type I pairs, so the layers from the
        # first sum whose base level is at most 1 on can merge into one
        top = max(0, math.floor(x - 2 * d))
        while base_level(top) > 1:
            top += 1
        _, e = np.frexp(w)
        layer = np.where(np.isfinite(w), e.astype(np.int64) - 1, top)
        np.minimum(layer, top, out=layer)
        base = base_level(np.arange(2 * int(layer.max()) + 1))
    counts = np.bincount(layer).astype(np.float64)
    pairs = np.multiply.outer(counts, counts)
    pairs[np.diag_indices_from(pairs)] = counts * (counts - 1) / 2
    si = np.add.outer(np.arange(counts.size), np.arange(counts.size))
    iu = np.triu_indices(counts.size)
    pairs, si = pairs[iu], si[iu]
    b = base[si]
    frac = np.zeros(si.shape)
    for level in range(int(b.max()) + 1):
        cells = float(1 << level * d)
        # offsets per cell: near and, from level 2 on, far (see _cell_offsets)
        near = min(3, 1 << level) ** d
        frac[b == level] += near / cells
        if level >= 2:
            far = b >= level
            pbar = np.minimum(_type_two_bound(spec, si[far], level), 1.0)
            frac[far] += (min(6, 1 << level) ** d - near) / cells * pbar
    return _CellPlan(layer, base, finest, float((pairs * frac).sum()))


def _ragged_arange(counts) -> np.ndarray:
    """Concatenated aranges 0..c-1 for each c in counts."""
    ends = np.cumsum(counts)
    return (np.arange(ends[-1] if ends.size else 0)
            - np.repeat(ends - counts, counts))


def _level_index(layer, cell, cells: int, layers) -> tuple:
    """The vertices of `layers` sorted by (layer, cell) at one level.

    Returns (rank, order, cnt, start): rank maps a layer to its place in
    `layers`, order lists the vertices, and group g = rank * cells + cell
    is order[start[g]:start[g] + cnt[g]].
    """
    rank = np.full(int(layer.max()) + 1, -1, dtype=np.int64)
    rank[layers] = np.arange(layers.size)
    sel = np.flatnonzero(rank[layer] >= 0)
    key = rank[layer[sel]] * cells + cell[sel]
    cnt = np.bincount(key, minlength=layers.size * cells)
    return (rank, sel[np.argsort(key, kind="stable")], cnt,
            np.cumsum(cnt) - cnt)


def _cell_blocks(index, m: int, ci, cj, offsets):
    """Vertex blocks of the classes (ci[c], cj[c]), ci <= cj, sorted by ci.

    For each occupied (layer ci, cell) group and each class with that
    first layer, the offsets name the partner cells; block k pairs
    order[a0:a0 + na] with order[b0:b0 + nb] and belongs to class cls[k].
    Within one layer only cell <= partner cell is kept, and `same` marks
    the blocks of a cell with itself, whose pairs count once.
    """
    rank, _, cnt, start = index
    d = offsets.shape[2]
    cells = m**d
    groups = np.flatnonzero(cnt)
    g_rank = groups // cells
    ri, rj = rank[ci], rank[cj]
    lo = np.searchsorted(ri, g_rank, "left")
    per = np.searchsorted(ri, g_rank, "right") - lo
    g = np.repeat(groups, per)
    cls = np.repeat(lo, per) + _ragged_arange(per)
    own = g % cells
    coords = [own // m**k % m for k in range(d)]
    parity = (sum((a & 1) << k for k, a in enumerate(coords))
              if offsets.shape[0] > 1 else 0)
    off = offsets[parity]                        # (combos, K, d)
    partner = sum(((a[:, None] + off[..., k]) & (m - 1)) * m**k
                  for k, a in enumerate(coords))
    tkey = rj[cls][:, None] * cells + partner
    nb = cnt[tkey]
    same_layer = (ri[cls] == rj[cls])[:, None]
    keep = (nb > 0) & ~(same_layer & (partner < own[:, None]))
    combo = np.nonzero(keep)[0]
    return (start[g[combo]], cnt[g[combo]], start[tkey[keep]], nb[keep],
            cls[combo], (same_layer & (partner == own[:, None]))[keep])


def _edge_keys(spec: Girg, master_seed, axes, w, u, v, pbar=None):
    """Keys u * n + v of the pairs u < v that are edges: coin <= p, or
    coin * pbar <= p for candidates drawn under the bound pbar.  p is
    computed as in the all-pairs sweep, bit for bit, and the coin is its
    uniform_array(master_seed, "edges", u * n + v)."""
    n = w.shape[0]
    dist = tmp = None
    for k, x in enumerate(axes):
        dx = x[u]
        dx -= x[v]
        np.abs(dx, out=dx)
        if tmp is None:
            tmp = np.empty_like(dx)
        np.minimum(dx, np.subtract(1.0, dx, out=tmp), out=dx)
        if spec.d == 1:
            dist = dx
            break
        np.multiply(dx, dx, out=dx)
        dist = dx if k == 0 else np.add(dist, dx, out=dist)
    if spec.d > 1:
        np.sqrt(dist, out=dist)
    wprod = w[u]
    wprod *= w[v]
    p = _power_kernel(spec, wprod, _dist_pow(dist, spec.d, out=dist), dist)
    keys = u * n
    keys += v
    coins = uniform_array(master_seed, "edges", keys)
    if pbar is not None:
        coins *= pbar
    return keys[coins <= p]


def _coin_edges(spec, master_seed, axes, w, order, a0, na, b0, nb, same):
    """Yields the edge keys among all pairs of the blocks, in chunks of
    whole rows."""
    k = np.repeat(np.arange(na.size), na)
    pa = a0[k] + _ragged_arange(na)
    first = np.where(same[k], pa + 1, b0[k])
    cols = b0[k] + nb[k] - first
    ends = np.cumsum(cols)
    cuts = np.searchsorted(ends, np.arange(
        _CHUNK, ends[-1] if ends.size else 0, _CHUNK))
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, cols.size]):
        c = cols[lo:hi]
        a = np.repeat(order[pa[lo:hi]], c)
        b = order[np.repeat(first[lo:hi], c) + _ragged_arange(c)]
        yield _edge_keys(spec, master_seed, axes, w, np.minimum(a, b),
                         np.maximum(a, b))


def _skip_candidates(master_seed, labels, begin, end, pbar):
    """Geometric skipping: yields (c, t) arrays in chunks, where each index
    t in [begin[c], end[c]) of space c is a candidate independently with
    probability pbar[c] (0 < pbar < 1).  Draw number k of space c is the
    uniform (master_seed, labels[c], k) and skips floor(log U / log(1 -
    pbar)) indices, so the candidates do not depend on the chunking.
    """
    keys = np.array([stream_key(master_seed, lab) for lab in labels],
                    dtype=np.uint64)
    log_q = np.log1p(-pbar)
    drawn = np.zeros(len(labels), dtype=np.int64)
    last = begin - 1
    live = np.flatnonzero(end > begin)
    while live.size:
        mu = (end[live] - 1 - last[live]) * pbar[live]
        want = np.minimum(np.ceil(mu + 4.0 * np.sqrt(mu) + 4.0),
                          _CHUNK).astype(np.int64)
        take = max(1, int(np.searchsorted(np.cumsum(want), _CHUNK, "right")))
        cls, want = live[:take], want[:take]
        c = np.repeat(cls, want)
        words = (_ragged_arange(want) + drawn[c]).astype(np.uint64)
        words *= _NP_GOLDEN
        words += keys[c]
        gap = np.log(_uniform_from_words(_mix64_np(words)))
        gap /= log_q[c]
        np.floor(gap, out=gap)
        np.minimum(gap, (end - begin)[c], out=gap)
        pos = gap.astype(np.int64)
        pos += 1
        first = np.cumsum(want) - want
        base = last[cls] + pos[first]
        np.cumsum(pos, out=pos)
        pos += np.repeat(base - pos[first], want)
        keep = pos < end[c]
        yield c[keep], pos[keep]
        drawn[cls] += want
        last[cls] = pos[first + want - 1]
        live = np.concatenate([cls[last[cls] < end[cls] - 1], live[take:]])


def _skip_edges(spec, master_seed, axes, w, order, a0, na, b0, nb, cls,
                labels, pbar):
    """Yields the edge keys among the type II pairs of the blocks: the
    blocks of class c, in order, make its flat index space, drawn under
    pbar[c]."""
    by = np.argsort(cls, kind="stable")
    a0, b0, nb, cls = a0[by], b0[by], nb[by], cls[by]
    size = na[by] * nb
    ends = np.cumsum(size)
    space_end = np.cumsum(np.bincount(cls, weights=size,
                                      minlength=len(labels))).astype(np.int64)
    space_begin = np.r_[0, space_end[:-1]]
    for c, t in _skip_candidates(master_seed, labels, space_begin, space_end,
                                 pbar):
        if not t.size:
            continue
        # t ascends, so only the blocks from t[0]'s to t[-1]'s are searched
        lo, hi = np.searchsorted(ends, t[[0, -1]], "right")
        k = lo + np.searchsorted(ends[lo:hi + 1], t, "right")
        q, r = np.divmod(t - (ends[k] - size[k]), nb[k])
        a, b = order[a0[k] + q], order[b0[k] + r]
        yield _edge_keys(spec, master_seed, axes, w, np.minimum(a, b),
                         np.maximum(a, b), pbar[c])


def _cell_pairs(spec: Girg, master_seed, vs: VertexSet, plan: _CellPlan):
    """Edges (u, v), u < v, by weight layers x cells; see above."""
    n, d = vs.n, spec.d
    axes = [np.ascontiguousarray(col) for col in vs.positions.T]
    w = vs.weights
    # finest-level cell coordinates; x + 1/2 and the power-of-two scaling
    # are exact, and x = 1/2 wraps to cell 0 like -1/2
    grid = ((vs.positions + 0.5) * float(1 << plan.finest)).astype(np.int64)
    present = np.unique(plan.layer)
    iu = np.triu_indices(present.size)
    ci, cj = present[iu[0]], present[iu[1]]
    s = ci + cj
    base = plan.base[s]
    keys = []
    for level in range(int(base.max()) + 1):
        m = 1 << level
        near = base == level
        pbar = np.zeros(s.size)
        if level >= 2:
            far = base >= level
            pbar[far] = _type_two_bound(spec, s[far], level)
        # a far class with bound 1 is coined pair by pair like the near
        # classes; a far class with a bound below 1 is skipped
        whole, skip = pbar == 1.0, (pbar > 0.0) & (pbar < 1.0)
        live = near | whole | skip
        if not live.any():
            continue
        coarse = (grid >> (plan.finest - level)) & (m - 1)
        cell = sum(coarse[:, k] * m**k for k in range(d))
        index = _level_index(plan.layer, cell, m**d,
                             np.union1d(ci[live], cj[live]))
        order = index[1]
        for coined, far_offsets in ((near, False), (whole, True)):
            if coined.any():
                a0, na, b0, nb, _, same = _cell_blocks(
                    index, m, ci[coined], cj[coined],
                    _cell_offsets(level, d, far_offsets))
                keys.extend(_coin_edges(spec, master_seed, axes, w, order,
                                        a0, na, b0, nb, same))
        if skip.any():
            a0, na, b0, nb, cls, _ = _cell_blocks(
                index, m, ci[skip], cj[skip], _cell_offsets(level, d, True))
            labels = [f"skip:{i}:{j}:{level}"
                      for i, j in zip(ci[skip], cj[skip])]
            keys.extend(_skip_edges(spec, master_seed, axes, w, order, a0,
                                    na, b0, nb, cls, labels, pbar[skip]))
    edges = np.sort(np.concatenate(keys)) if keys else np.zeros(0, np.int64)
    return edges // n, edges % n


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


def _pareto_weights(master_seed, n, tau):
    counters = np.arange(n, dtype=np.int64)
    u = uniform_array(master_seed, "weights", counters)
    return weight_from_uniform(u, WeightLaw(tau))


def check_vertex_count(n: int) -> None:
    """Refuse a graph above the vertex cap before any of it is sampled."""
    if n > _VERTEX_CAP:
        raise ConfigError(f"vertex count {n} exceeds cap {_VERTEX_CAP}")


def generate(spec, master_seed: int,
             length_law: EdgeLengthLaw | None = None) -> Graph:
    """Sample a graph; identical (spec, seed, law) gives identical bytes.

    Girg edges come from the cell sampler when it is expected to examine
    fewer pairs' worth of work than the all-pairs sweep, which draws every
    other graph.
    """
    if isinstance(spec, Girg):
        check_vertex_count(spec.n)
        pos = _uniform_positions(master_seed, spec.n, spec.d, 1.0)
        w = _pareto_weights(master_seed, spec.n, spec.tau)
        vs = VertexSet(spec.window, pos, w)
    elif isinstance(spec, IgirgWindow):
        mean = check_derived("lam * side^d overflows",
                             lambda: spec.lam * spec.side**spec.d)
        if mean > _VERTEX_CAP:      # refused on the mean, before the draw
            raise ConfigError(f"lam * side^d = {mean:g} expected vertices "
                              f"exceed cap {_VERTEX_CAP}")
        n_pois = sample_poisson(master_seed, "count", mean)
        n_total = n_pois + (1 if spec.pin_origin else 0)
        check_vertex_count(n_total)
        if n_total == 0:
            raise ConfigError("empty Poisson sample; enlarge lam or side")
        pos = _uniform_positions(master_seed, n_pois, spec.d, spec.side)
        if spec.pin_origin:
            pos = np.vstack([pos, np.zeros((1, spec.d))])
        w = _pareto_weights(master_seed, n_total, spec.tau)
        vs = VertexSet(spec.window, pos, w,
                       origin_index=n_total - 1 if spec.pin_origin else None)
    elif isinstance(spec, SfpWindow):
        n = (2 * spec.radius + 1) ** spec.d
        check_vertex_count(n)
        axes = [np.arange(-spec.radius, spec.radius + 1)] * spec.d
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        pos = grid.reshape(-1, spec.d).astype(np.float64)
        w = _pareto_weights(master_seed, n, spec.tau)
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
    with np.errstate(over="ignore"):    # a weight product may be +inf
        plan = _cell_plan(spec, vs.weights) if isinstance(spec, Girg) else None
        if plan is not None and plan.pays_off(vs.n):
            u, v = _cell_pairs(spec, master_seed, vs, plan)
        else:
            u, v = _pairwise_pairs(spec, master_seed, vs)
    ls = _edge_lengths(master_seed, u, v, vs.n, length_law)
    return Graph(vs, u, v, ls, spec=spec, seed=master_seed)
