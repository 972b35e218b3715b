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
import os
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import calibration
from .cost import classify
from .domain import ConfigError, check_domains
from .metrics import components, largest_component, n1t, pair_distances
from .models import (Girg, Graph, Hrg, IgirgWindow, check_vertex_count,
                     generate, relength)
from .rng import (EdgeLengthLaw, PolyAtZero, check_seed, derive_master,
                  uniform)

_CSV_HEADER = "beta,n,median_d,q1,q3,giant_frac,verdict,seed"


def cell_verdict(tau: float, alpha: float, f, law: EdgeLengthLaw) -> str:
    """Analytic phase verdict for one sweep cell.

    deg(f) = 0 strips the weights out of the cost entirely, so the verdict
    reduces to whether the length law's explosion sum converges; every
    other penalty goes through the full classifier with the law's own
    decay exponents beta- and beta+.
    """
    if f.deg == 0.0:
        return ("FppExplosive" if law.explosion_sum_converges
                else "FppConservative")
    return classify(f, tau, alpha, law.beta_minus, law.beta_plus).outcome


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
            raise ConfigError("beta and size grids must be non-empty")
        for name in ("beta_grid", "size_grid"):
            grid = getattr(self, name)
            twice = [x for x in grid if grid.count(x) > 1]
            if twice:
                raise ConfigError(f"{name} repeats {twice[0]!r}")
        check_seed(self.seed)
        check_domains(vars(self), pairs_per_graph="[1, inf)",
                      graphs_per_cell="[1, inf)", size_grid="[1, inf)",
                      beta_grid="(0, inf)")
        for n in self.size_grid:
            check_vertex_count(n)
        for beta in self.beta_grid:
            # raises on unclassifiable cells (bad tau/alpha/beta domain)
            cell_verdict(self.base.tau, self.base.alpha, self.f,
                         self.law_family(beta))


@dataclass
class CellResult:
    beta: float
    n: int
    median_d: float                # nan when the cell is empty
    q1: float
    q3: float
    giant_frac: float
    verdict: str
    seed: int
    reason: str | None = None      # None = ok, or "giant-too-small"


def two_point_distance(g: Graph, f, pairs: int, seed: int) -> list:
    """Outward cost distances between uniform giant-component vertex pairs.

    Vertices are rejection-sampled uniformly over [n] until both land in
    the largest component (ties broken by lowest vertex id upstream) and
    differ.  pair_distances measures each outward from its first vertex,
    bit for bit as the full search from that vertex does.
    """
    check_domains(locals(), pairs="[0, inf)")
    if pairs == 0:
        return []
    giant = largest_component(g)
    if len(giant) < 2:
        raise ValueError("largest component has fewer than 2 vertices")
    member = np.zeros(g.n, dtype=bool)
    member[giant] = True

    counter = 0

    def draw() -> int:
        nonlocal counter
        while True:
            u = uniform(seed, "two-point", counter)
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
    return pair_distances(g, f, chosen, "outward").tolist()


def _quartiles(values) -> list:
    """Linearly interpolated quartiles of values (nan when there are none).

    np.quantile interpolates a + (b - a) t between neighbouring order
    statistics, which is nan once b = +inf, an overflowing cost.  Where b is
    +inf each quartile is instead what the interpolation is in exact
    arithmetic: a when t = 0, else +inf.  Finite neighbours keep numpy's
    value bit for bit.
    """
    x = np.sort(np.asarray(values, dtype=np.float64))
    if not x.size:
        return [math.nan] * 3
    at = (x.size - 1) * np.array([0.25, 0.5, 0.75])
    lo = np.floor(at).astype(np.int64)
    hi = np.minimum(lo + 1, x.size - 1)
    with np.errstate(invalid="ignore"):
        q = np.quantile(x, [0.25, 0.5, 0.75])
    exact = np.where(at == lo, x[lo], math.inf)
    return np.where(np.isposinf(x[hi]), exact, q).tolist()


def _measure_graph(spec: SweepSpec, job) -> tuple:
    """Draw base graph (n, gi) and measure it at every beta of the grid.

    Returns (giant fraction, one distance list per beta), with None for the
    lists when the giant has fewer than 2 vertices.  The giant is read once,
    from the base graph: relengthed copies share it through the edge-set
    cache.  Each beta's pairs come from the cell's own seed, so the result
    does not depend on which process runs the job or in what order.
    """
    n, gi = job
    base = generate(replace(spec.base, n=n),
                    derive_master(spec.seed, f"graph:{n}:{gi}"))
    giant = len(largest_component(base))
    if giant < 2:
        return giant / base.n, None
    dists = []
    for beta in spec.beta_grid:
        cell_seed = derive_master(spec.seed, f"cell:{beta!r}:{n}")
        dists.append(two_point_distance(
            relength(base, spec.law_family(beta)), spec.f,
            spec.pairs_per_graph, derive_master(cell_seed, f"pairs:{gi}")))
    return giant / base.n, dists


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1     # no affinity call on this platform


_worker_spec = None                # the sweep a pool worker serves


def _init_worker(spec: SweepSpec) -> None:
    global _worker_spec
    _worker_spec = spec


def _measure_graph_in_worker(job) -> tuple:
    return _measure_graph(_worker_spec, job)


def _pool_map(spec: SweepSpec, jobs: list, workers: int) -> list:
    """Jobs over a fork pool; the spec is inherited, never pickled.

    Only (n, gi) and the per-beta results cross the pipe, so a spec holding
    a lambda works.  Every worker is joined before this returns or raises.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers,
                               mp_context=multiprocessing.get_context("fork"),
                               initializer=_init_worker, initargs=(spec,))
    try:
        return list(pool.map(_measure_graph_in_worker, jobs))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def phase_sweep(spec: SweepSpec) -> list:
    """Run every (beta, n) cell, one job per (size, graph index).

    Graphs are shared across the beta grid of a given size: adjacency is
    drawn once per (size, graph index) and only edge lengths are redrawn
    per beta, which is exactly the coupling the length-law streams provide.
    A job draws its base graph with unit lengths, measures it at every beta
    and drops it, so each process holds one graph and its CSR at a time.
    Jobs go largest size first to a fork process pool with one worker per
    usable CPU; with one CPU, one job or no fork they run in this process.
    Either way the per-graph results pool into the cells in (size, graph
    index) order, and every seed comes from `derive_master`, so the cells,
    sorted by (beta, n), are the same bit for bit.  A size's cells stop at
    its first graph whose giant has fewer than 2 vertices: its fraction
    still counts, and the cells get nan quartiles and the reason
    "giant-too-small".  Any other error reaches the caller.
    """
    jobs = [(n, gi) for n in sorted(spec.size_grid, reverse=True)
            for gi in range(spec.graphs_per_cell)]
    workers = min(_available_cpus(), len(jobs))
    if workers > 1 and hasattr(os, "fork"):
        results = _pool_map(spec, jobs, workers)
    else:
        results = list(map(partial(_measure_graph, spec), jobs))
    by_job = dict(zip(jobs, results))
    cells = []
    for n in spec.size_grid:
        fracs, pooled, reason = [], [[] for _ in spec.beta_grid], None
        for gi in range(spec.graphs_per_cell):
            frac, dists = by_job[n, gi]
            fracs.append(frac)
            if dists is None:
                reason = "giant-too-small"
                break
            for pool, d in zip(pooled, dists):
                pool.extend(d)
        for beta, pool in zip(spec.beta_grid, pooled):
            q1, med, q3 = _quartiles([] if reason else pool)
            cells.append(CellResult(
                beta=beta, n=n, median_d=med, q1=q1, q3=q3,
                giant_frac=float(np.mean(fracs)),
                verdict=cell_verdict(spec.base.tau, spec.base.alpha, spec.f,
                                     spec.law_family(beta)),
                seed=spec.seed, reason=reason))
    cells.sort(key=lambda c: (c.beta, c.n))
    return cells


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def sweep_to_csv(cells) -> str:
    """Serialize cells as CSV, one row per cell in the order given."""
    buf = io.StringIO()
    buf.write(_CSV_HEADER + "\n")
    for c in cells:
        row = [c.beta, c.n, c.median_d, c.q1, c.q3, c.giant_frac,
               c.verdict, c.seed]
        buf.write(",".join(_fmt(x) for x in row) + "\n")
    return buf.getvalue()


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
    """One weight decade [10^k, 10^(k+1)), in increasing k."""

    ratio: float                   # mean degree / mean weight
    reliable: bool                 # vertices >= RELIABLE_DECADE_COUNT


def degree_weight_profile(g: Graph) -> list:
    """Mean degree and weight per weight-decade, with a reliability flag."""
    w = g.vertices.weights
    deg = g.degrees()
    decades = np.floor(np.log10(w)).astype(np.int64)
    out = []
    for dec in np.unique(decades):
        sel = decades == dec
        out.append(DecadeProfile(
            ratio=float(deg[sel].mean()) / float(w[sel].mean()),
            reliable=int(sel.sum()) >= calibration.RELIABLE_DECADE_COUNT))
    return out


def tail_exponent_estimate(values, top_fraction: float) -> float:
    """Pareto index fitted by maximum likelihood to the top order statistics."""
    check_domains(locals(), top_fraction="(0, 1]")
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
    """One size of the curve, in the order of the sizes given."""

    mean_fraction: float           # largest component / n
    mean_second_fraction: float    # second largest / n (uniqueness proxy)


def giant_fraction_curve(make_spec, sizes, reps: int, seed: int) -> list:
    """Mean largest- and second-largest-component fractions per size.

    Components do not depend on edge lengths, so the graphs carry unit ones.
    """
    out = []
    for n in sizes:
        spec = make_spec(n)
        check_domains({"tau": spec.tau}, tau="(2, 3)")
        fracs, seconds = [], []
        for rep in range(reps):
            g = generate(spec, derive_master(seed, f"giant:{n}:{rep}"))
            comps = components(g)
            fracs.append(len(comps[0]) / g.n)
            seconds.append(len(comps[1]) / g.n if len(comps) > 1 else 0.0)
        out.append(GiantCurvePoint(mean_fraction=float(np.mean(fracs)),
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


def asymmetry_experiment(f, sides, t: float, reps: int, *,
                         seed: int) -> list:
    """Outward vs inward cheap-edge counts at a pinned origin, per side.

    Each repetition draws a fresh windowed-IGIRG cloud (lam = 1, d = 1,
    alpha = 2, c = 1) with the origin pinned and counts incident edges
    within one-hop cost t in the two directions.  The model sits in the
    asymmetric regime tau in (1, 2], at tau = 1.5, where the direction of
    f decides explosivity, and lengths follow PolyAtZero(1) (beta = 1).
    """
    check_domains(locals(), reps="[1, inf)")
    out = []
    for side in sides:
        spec = IgirgWindow(lam=1.0, d=1, side=float(side), tau=1.5,
                           alpha=2.0, c=1.0, pin_origin=True)
        outward = np.zeros(reps)
        inward = np.zeros(reps)
        origin_w = np.zeros(reps)
        for rep in range(reps):
            g = generate(spec, derive_master(seed, f"asym:{side}:{rep}"),
                         length_law=PolyAtZero(1.0))
            origin = g.vertices.origin_index
            outward[rep] = n1t(g, f, origin, t, "outward")
            inward[rep] = n1t(g, f, origin, t, "inward")
            origin_w[rep] = g.vertices.weights[origin]
        out.append(AsymmetrySideResult(side=float(side),
                                       outward_counts=outward,
                                       inward_counts=inward,
                                       origin_weights=origin_w))
    return out


def direction_criterion(results, batches: int) -> list:
    """Per-batch comparison: do outward counts outgrow inward ones?

    Marginal means mix two origin populations — light origins drive the
    outward counts (the origin weight is damped to the 1/4 power stepping
    out but cubed stepping in) while heavy origins drive the inward ones —
    and both marginal means end up growing at the same rate.  The
    comparison therefore conditions on repetitions whose origin weight
    fell in calibration.ASYMMETRY_WEIGHT_BAND, where the direction effect is undiluted: per
    batch, the smallest-to-largest-side growth factor of (1 + banded mean)
    must be strictly larger outward than inward.
    """
    check_domains(locals(), batches="[1, inf)")
    if len(results) < 2:
        raise ValueError("need at least two window sides")
    reps = results[0].outward_counts.size
    if any(r.outward_counts.size != reps for r in results):
        raise ValueError("side results disagree on repetition count")
    per = reps // batches
    if per < 1:
        raise ValueError("more batches than repetitions")

    lo, hi = calibration.ASYMMETRY_WEIGHT_BAND

    def banded_mean(r: AsymmetrySideResult, counts, sl) -> float:
        m = (r.origin_weights[sl] >= lo) & (r.origin_weights[sl] <= hi)
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
    """One argument bin, in increasing argument."""

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
                          reps: int, *, seed: int) -> list:
    """Empirical vs predicted connection frequency, binned by mapped argument.

    Each repetition subsamples 200,000 vertex pairs uniformly; the edge
    indicator is read off the generated graph, the prediction from the
    limiting kernel at the pair's own argument (so the per-bin comparison
    is against the mean prediction, not a midpoint evaluation).  The 24
    bins are log-spaced over arguments 10^-3 to 10^3.
    """
    if T_H is None:
        raise ValueError("kernel validation needs the parametrized model "
                         "(finite T_H)")
    pairs_per_rep = 200_000
    edges = np.logspace(-3.0, 3.0, 25)
    nb = edges.size - 1
    pair_tot = np.zeros(nb, dtype=np.int64)
    edge_tot = np.zeros(nb, dtype=np.int64)
    pred_tot = np.zeros(nb)
    spec = Hrg(n=n, alpha_H=alpha_H, C_H=C_H, T_H=T_H)
    scale = math.exp(C_H / 2.0) * math.pi * n
    for rep in range(reps):
        g = generate(spec, derive_master(seed, f"hrgval:{rep}"))
        edge_keys = g.edges_u * n + g.edges_v
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
        found = np.isin(lo * n + hi, edge_keys)
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
        out.append(KernelBin(pairs=int(pair_tot[i]), frequency=float(freq),
                             prediction=float(mean_pred)))
    return out
