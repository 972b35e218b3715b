"""Monte-Carlo harness for the phase phenomena at desk scale.

Sweeps generate graphs over a (beta, n) grid, measure two-point cost
distances between typical giant-component vertices, and write CSV rows that
carry the analytic phase verdict of each cell, so downstream checks can
compare the empirical trend with what the classifier predicts.  The rest
of the module collects the one-off experiments: degree/weight diagnostics,
tail-exponent fits, giant-component curves, the directional asymmetry run,
and the empirical validation of the mapped hyperbolic kernel.

Trend thresholds (what slope counts as "not growing", etc.) are not
hardcoded here; they live in `calibration`, frozen from pilot runs.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace

import numpy as np

from .cost import classify, critical_beta, deg_f, fpp_explosion_functional
from .metrics import distance_matrix, largest_component, n1t
from .models import (Girg, Graph, Hrg, IgirgWindow, check_vertex_count,
                     generate, relength)
from .rng import EdgeLengthLaw, SeedSpec, derive_master, uniform

_CSV_HEADER = "beta,n,median_d,q1,q3,giant_frac,verdict,seed"


def cell_verdict(tau: float, alpha: float, f, beta: float,
                 law: EdgeLengthLaw) -> str:
    """Analytic phase verdict for one sweep cell.

    deg(f) = 0 strips the weights out of the cost entirely, so the verdict
    reduces to whether the length law's explosion sum converges; every
    other penalty goes through the full classifier with beta- = beta+ =
    beta.
    """
    if deg_f(f) == 0.0:
        _, converges = fpp_explosion_functional(law, 1)
        return "FppExplosive" if converges else "FppConservative"
    return classify(f, tau, alpha, beta, beta).outcome


def _near_critical(f, tau: float, beta: float, margin: float = 0.1) -> bool:
    """Within `margin` (relative) of a finite explosive/conservative threshold."""
    if deg_f(f) == 0.0:
        return False
    try:
        thresholds = critical_beta(f, tau)
    except ValueError:
        return False
    if not isinstance(thresholds, tuple):
        thresholds = (thresholds,)
    return any(math.isfinite(t) and t > 0 and abs(beta - t) <= margin * t
               for t in thresholds)


@dataclass(frozen=True)
class SweepSpec:
    """One phase sweep: a model template crossed with beta and size grids."""

    base: Girg                     # template; n is replaced by the size grid
    f: object                      # penalty
    law_family: object             # beta -> EdgeLengthLaw
    beta_grid: tuple
    size_grid: tuple
    pairs_per_graph: int = 30
    graphs_per_cell: int = 5
    seed: int = 0

    def __post_init__(self):
        if not self.beta_grid or not self.size_grid:
            raise ValueError("beta and size grids must be non-empty")
        if self.pairs_per_graph < 1 or self.graphs_per_cell < 1:
            raise ValueError("need at least one pair and one graph per cell")
        for n in self.size_grid:
            # sizes the model refuses fail here, before any graph is drawn
            replace(self.base, n=n)
            check_vertex_count(n)
        for beta in self.beta_grid:
            # raises on unclassifiable cells (bad tau/alpha/beta domain)
            cell_verdict(self.base.tau, self.base.alpha, self.f, beta,
                         self.law_family(beta))


@dataclass
class CellResult:
    beta: float
    n: int
    distances: np.ndarray          # pooled over graphs; empty on failure
    median_d: float                # nan when the cell is empty
    q1: float
    q3: float
    giant_frac: float
    verdict: str
    seed: int
    reason: str | None = None      # None = ok; else failure code
    near_critical: bool = False


def two_point_distance(g: Graph, f, pairs: int, seed: int) -> list:
    """Outward cost distances between uniform giant-component vertex pairs.

    Vertices are rejection-sampled uniformly over [n] until both land in
    the largest component (ties broken by lowest vertex id upstream) and
    differ; distance is measured outward from the first of the pair.
    """
    if pairs < 0:
        raise ValueError("pairs must be >= 0")
    if pairs == 0:
        return []
    giant = largest_component(g)
    if len(giant) < 2:
        raise ValueError("largest component has fewer than 2 vertices")
    member = np.zeros(g.n, dtype=bool)
    member[list(giant)] = True

    counter = 0

    def draw() -> int:
        nonlocal counter
        while True:
            u = uniform(SeedSpec(seed, "two-point", counter))
            counter += 1
            v = min(int(u * g.n), g.n - 1)
            if member[v]:
                return v

    chosen = []
    for _ in range(pairs):
        a = draw()
        b = draw()
        while b == a:
            b = draw()
        chosen.append((a, b))
    sources = sorted({a for a, _ in chosen})
    index = {s: i for i, s in enumerate(sources)}
    dmat = distance_matrix(g, f, sources, "outward")
    return [float(dmat[index[a], b]) for a, b in chosen]


class _Cell:
    """Accumulates one (beta, n) cell over the graphs of its size."""

    def __init__(self, spec: SweepSpec, beta: float, n: int):
        self.spec, self.beta, self.n = spec, beta, n
        self.law = spec.law_family(beta)
        self.seed = derive_master(spec.seed, f"cell:{beta!r}:{n}")
        self.dists: list = []
        self.fracs: list = []
        self.reason = None

    def add(self, base: Graph, gi: int) -> None:
        """Measure graph gi; a cell stops at its first failing graph."""
        if self.reason is not None:
            return
        try:
            g = relength(base, self.law)
            self.fracs.append(len(largest_component(g)) / g.n)
            self.dists.extend(two_point_distance(
                g, self.spec.f, self.spec.pairs_per_graph,
                derive_master(self.seed, f"pairs:{gi}")))
        except ValueError as exc:
            self.reason = ("giant-too-small" if "largest component" in str(exc)
                           else f"failed: {exc}")
            self.dists = []

    def result(self) -> CellResult:
        spec, beta = self.spec, self.beta
        arr = np.asarray(self.dists, dtype=np.float64)
        if arr.size:
            q1, med, q3 = np.quantile(arr, [0.25, 0.5, 0.75])
        else:
            q1 = med = q3 = math.nan
        return CellResult(
            beta=beta, n=self.n, distances=arr, median_d=float(med),
            q1=float(q1), q3=float(q3),
            giant_frac=float(np.mean(self.fracs)) if self.fracs else math.nan,
            verdict=cell_verdict(spec.base.tau, spec.base.alpha, spec.f, beta,
                                 self.law),
            seed=spec.seed, reason=self.reason,
            near_critical=_near_critical(spec.f, spec.base.tau, beta))


def phase_sweep(spec: SweepSpec) -> list:
    """Run every (beta, n) cell serially, one base graph alive at a time.

    Graphs are shared across the beta grid of a given size: adjacency is
    drawn once per (size, graph index) and only edge lengths are redrawn
    per beta, which is exactly the coupling the length-law streams provide.
    Each base graph is measured at every beta and then dropped, so one
    graph and its CSR are held at a time.
    """
    first_law = spec.law_family(spec.beta_grid[0])
    cells = []
    for n in spec.size_grid:
        row = [_Cell(spec, beta, n) for beta in spec.beta_grid]
        for gi in range(spec.graphs_per_cell):
            base = generate(replace(spec.base, n=n),
                            derive_master(spec.seed, f"graph:{n}:{gi}"),
                            length_law=first_law)
            for cell in row:
                cell.add(base, gi)
            del base               # freed before the next graph is drawn
        cells.extend(cell.result() for cell in row)
    cells.sort(key=lambda c: (c.beta, c.n))
    return cells


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def sweep_to_csv(cells, path=None) -> str:
    """Serialize cells as CSV (rows sorted by cell key); optionally write it."""
    buf = io.StringIO()
    buf.write(_CSV_HEADER + "\n")
    for c in sorted(cells, key=lambda c: (c.beta, c.n)):
        row = [c.beta, c.n, c.median_d, c.q1, c.q3, c.giant_frac,
               c.verdict, c.seed]
        buf.write(",".join(_fmt(x) for x in row) + "\n")
    text = buf.getvalue()
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def trend_slope(sizes, values) -> float:
    """Least-squares slope of values against log2(size): growth per doubling."""
    x = np.log2(np.asarray(sizes, dtype=np.float64))
    y = np.asarray(values, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        raise ValueError("need two aligned points for a slope")
    return float(np.polyfit(x, y, 1)[0])


def strictly_increasing(values) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# degree / weight diagnostics


@dataclass(frozen=True)
class DecadeProfile:
    decade: int                    # weights in [10^decade, 10^(decade+1))
    count: int
    mean_degree: float
    mean_weight: float
    ratio: float                   # mean degree / mean weight
    reliable: bool                 # count >= 30


def degree_weight_profile(g: Graph) -> list:
    """Mean degree and weight per weight-decade, with a reliability flag."""
    w = g.vertices.weights
    deg = g.degrees()
    decades = np.floor(np.log10(w)).astype(np.int64)
    out = []
    for dec in np.unique(decades):
        sel = decades == dec
        mean_deg = float(deg[sel].mean())
        mean_w = float(w[sel].mean())
        out.append(DecadeProfile(
            decade=int(dec), count=int(sel.sum()), mean_degree=mean_deg,
            mean_weight=mean_w, ratio=mean_deg / mean_w,
            reliable=int(sel.sum()) >= 30))
    return out


def tail_exponent_estimate(values, top_fraction: float) -> float:
    """Pareto index fitted by maximum likelihood to the top order statistics."""
    if not 0.0 < top_fraction <= 1.0:
        raise ValueError("top_fraction must lie in (0, 1]")
    v = np.asarray(values, dtype=np.float64)
    k = int(math.floor(v.size * top_fraction))
    if k < 100:
        raise ValueError(f"only {k} exceedances; need at least 100")
    top = np.sort(v)[-k:]
    cut = top[0]
    if cut <= 0:
        raise ValueError("tail values must be positive")
    total = float(np.log(top / cut).sum())
    if total <= 0.0:
        raise ValueError("degenerate tail: values above the cut are constant")
    return k / total


# ---------------------------------------------------------------------------
# giant component curve


@dataclass(frozen=True)
class GiantCurvePoint:
    n: int
    mean_fraction: float           # largest component / n
    mean_second_fraction: float    # second largest / n (uniqueness proxy)


def giant_fraction_curve(make_spec, sizes, reps: int, seed: int = 0,
                         length_law=None) -> list:
    """Mean largest- and second-largest-component fractions per size."""
    from .metrics import components
    out = []
    for n in sizes:
        spec = make_spec(n)
        if not 2.0 < spec.tau < 3.0:
            raise ValueError("giant-component curve expects tau in (2, 3)")
        fracs, seconds = [], []
        for rep in range(reps):
            g = generate(spec, derive_master(seed, f"giant:{n}:{rep}"),
                         length_law=length_law)
            comps = components(g)
            fracs.append(len(comps[0]) / g.n)
            seconds.append(len(comps[1]) / g.n if len(comps) > 1 else 0.0)
        out.append(GiantCurvePoint(n=n, mean_fraction=float(np.mean(fracs)),
                                   mean_second_fraction=float(np.mean(seconds))))
    return out


# ---------------------------------------------------------------------------
# directional asymmetry


@dataclass(frozen=True)
class AsymmetrySideResult:
    side: float
    outward_counts: np.ndarray     # one entry per repetition
    inward_counts: np.ndarray
    origin_weights: np.ndarray     # the pinned origin's drawn weight per rep

    @property
    def mean_outward(self) -> float:
        return float(self.outward_counts.mean())

    @property
    def mean_inward(self) -> float:
        return float(self.inward_counts.mean())


def asymmetry_experiment(f, sides, t: float, reps: int, *, d: int = 1,
                         tau: float = 1.5, alpha: float = 2.0, c: float = 1.0,
                         lam: float = 1.0, length_law=None,
                         seed: int = 0) -> list:
    """Outward vs inward cheap-edge counts at a pinned origin, per side.

    Each repetition draws a fresh windowed-IGIRG cloud with the origin
    pinned and counts incident edges within one-hop cost t in the two
    directions; the asymmetric regime tau in (1, 2] is enforced because
    that is where the direction of f decides explosivity.
    """
    if not 1.0 < tau <= 2.0:
        raise ValueError("asymmetry experiment expects tau in (1, 2]")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    out = []
    for side in sides:
        spec = IgirgWindow(lam=lam, d=d, side=float(side), tau=tau,
                           alpha=alpha, c=c, pin_origin=True)
        outward = np.zeros(reps)
        inward = np.zeros(reps)
        origin_w = np.zeros(reps)
        for rep in range(reps):
            g = generate(spec, derive_master(seed, f"asym:{side}:{rep}"),
                         length_law=length_law)
            origin = g.vertices.origin_index
            outward[rep] = n1t(g, f, origin, t, "outward")
            inward[rep] = n1t(g, f, origin, t, "inward")
            origin_w[rep] = g.vertices.weights[origin]
        out.append(AsymmetrySideResult(side=float(side),
                                       outward_counts=outward,
                                       inward_counts=inward,
                                       origin_weights=origin_w))
    return out


def direction_criterion(results, batches: int, band=(1.0, 2.0)) -> list:
    """Per-batch comparison: do outward counts outgrow inward ones?

    Marginal means mix two origin populations — light origins drive the
    outward counts (the origin weight is damped to the 1/4 power stepping
    out but cubed stepping in) while heavy origins drive the inward ones —
    and both marginal means end up growing at the same rate.  The
    comparison therefore conditions on repetitions whose origin weight
    fell in a fixed band, where the direction effect is undiluted: per
    batch, the smallest-to-largest-side growth factor of (1 + banded mean)
    must be strictly larger outward than inward.
    """
    if batches < 1:
        raise ValueError("batches must be >= 1")
    if len(results) < 2:
        raise ValueError("need at least two window sides")
    reps = results[0].outward_counts.size
    if any(r.outward_counts.size != reps for r in results):
        raise ValueError("side results disagree on repetition count")
    per = reps // batches
    if per < 1:
        raise ValueError("more batches than repetitions")

    def banded_mean(r: AsymmetrySideResult, counts, sl) -> float:
        m = ((r.origin_weights[sl] >= band[0])
             & (r.origin_weights[sl] <= band[1]))
        return float(counts[sl][m].mean()) if m.any() else 0.0

    first, last = results[0], results[-1]
    flags = []
    for b in range(batches):
        sl = slice(b * per, (b + 1) * per)
        g_out = ((1.0 + banded_mean(last, last.outward_counts, sl))
                 / (1.0 + banded_mean(first, first.outward_counts, sl)))
        g_in = ((1.0 + banded_mean(last, last.inward_counts, sl))
                / (1.0 + banded_mean(first, first.inward_counts, sl)))
        flags.append(bool(g_out > g_in))
    return flags


# ---------------------------------------------------------------------------
# mapped hyperbolic kernel validation


@dataclass(frozen=True)
class KernelBin:
    lo: float
    hi: float
    pairs: int
    frequency: float               # empirical edge frequency in the bin
    prediction: float              # mean predicted probability in the bin


def hrg_mapped_probability(arg, T_H: float):
    """Limiting connection probability as a function of the mapped argument.

    arg = e^{C_H/2} * pi * n*|dx| / (w_u w_v); the probability tends to 1
    as arg -> 0 and to 0 as arg -> inf.
    """
    a = np.asarray(arg, dtype=np.float64)
    with np.errstate(over="ignore"):
        p = 1.0 / (1.0 + a ** (1.0 / T_H))
    return p if p.ndim else float(p)


def hrg_kernel_validation(n: int, alpha_H: float, C_H: float, T_H: float,
                          reps: int, *, seed: int = 0,
                          pairs_per_rep: int = 200_000,
                          bin_edges=None) -> list:
    """Empirical vs predicted connection frequency, binned by mapped argument.

    Vertex pairs are subsampled uniformly; the edge indicator is read off
    the generated graph, the prediction from the limiting kernel at the
    pair's own argument (so the per-bin comparison is against the mean
    prediction, not a midpoint evaluation).
    """
    if T_H is None:
        raise ValueError("kernel validation needs the parametrized model "
                         "(finite T_H)")
    if bin_edges is None:
        bin_edges = np.logspace(-3.0, 3.0, 25)
    edges = np.asarray(bin_edges, dtype=np.float64)
    nb = edges.size - 1
    pair_tot = np.zeros(nb, dtype=np.int64)
    edge_tot = np.zeros(nb, dtype=np.int64)
    pred_tot = np.zeros(nb)
    spec = Hrg(n=n, alpha_H=alpha_H, C_H=C_H, T_H=T_H)
    scale = math.exp(C_H / 2.0) * math.pi * n
    for rep in range(reps):
        g = generate(spec, derive_master(seed, f"hrgval:{rep}"))
        key_sorted = g.edges_u.astype(np.int64) * n + g.edges_v
        rng = np.random.default_rng(derive_master(seed, f"hrgpairs:{rep}"))
        u = rng.integers(0, n, size=pairs_per_rep)
        v = rng.integers(0, n, size=pairs_per_rep)
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        keep = lo != hi
        lo, hi = lo[keep], hi[keep]
        x = g.vertices.positions[:, 0]
        w = g.vertices.weights
        dx = np.abs(x[lo] - x[hi])
        dx = np.minimum(dx, 1.0 - dx)
        arg = scale * dx / (w[lo] * w[hi])
        is_edge = np.searchsorted(key_sorted, lo * n + hi)
        found = np.zeros(lo.size, dtype=bool)
        inb = is_edge < key_sorted.size
        found[inb] = key_sorted[is_edge[inb]] == (lo * n + hi)[inb]
        pred = hrg_mapped_probability(arg, T_H)
        which = np.digitize(arg, edges) - 1
        ok = (which >= 0) & (which < nb)
        np.add.at(pair_tot, which[ok], 1)
        np.add.at(edge_tot, which[ok], found[ok].astype(np.int64))
        np.add.at(pred_tot, which[ok], pred[ok])
    out = []
    for i in range(nb):
        if pair_tot[i]:
            freq = edge_tot[i] / pair_tot[i]
            mean_pred = pred_tot[i] / pair_tot[i]
        else:
            freq = math.nan
            mean_pred = math.nan
        out.append(KernelBin(lo=float(edges[i]), hi=float(edges[i + 1]),
                             pairs=int(pair_tot[i]), frequency=float(freq),
                             prediction=float(mean_pred)))
    return out
