"""Acceptance gate: twelve pinned end-to-end checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line per
criterion.  Every test prints its measured numbers before asserting, so a
red line always comes with the evidence next to it.

Known red: criterion 10's F1-rate clause.  The delta-good leader events
need sub-box scales e^{M C^k} with delta*M*C^k of order one before a
single box is good with decent probability, and the solver-admissible
delta caps near 0.05 for these inputs; inside a side-10^3 window M cannot
exceed ln(10^3)/(D*C) ~ 5.6, so the per-box success probability sits near
0.2 and the all-annuli rate lands around 0.1-0.5, far from the 0.9 the
check demands.  ROADMAP item 14's exact law gives 0.364 at side 10^3 and
first passes 0.9 between sides 10^10 (0.762) and 10^11 (0.951).  The assert
is kept faithful rather than loosened; see README for the full argument.

Two clauses pass vacuously.  Criterion 2's flat arm compares an absolute
slope against NONGROWING_SLOPE_BUDGET = 0.1, about 10^10 times its
medians (order 1e-11 at beta = 0.1), so no growth at this scale fails it.
Criterion 10's greedy-bound clause sees no completed greedy path in the
nearly empty side-10^3 boxing (it prints completed=0 applicable=0).
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

import oracles
from pplab import calibration
from pplab.cost import (monomial_penalty, power_sum_penalty, product_penalty,
                        solve_boxing_params, PenaltyPolynomial)
from pplab.geometry import Window, build_boxing
from pplab.metrics import (GreedyPath, build_greedy_path, cost_search,
                           cost_subgraph, delta_good_scan, greedy_bound_report,
                           saw_path_count)
from pplab.models import Girg, Graph, Hrg, IgirgWindow, VertexSet, generate
from pplab.rng import Exponential, PolyAtZero, derive_master, uniform_array
from pplab.experiments import (SweepSpec, asymmetry_experiment,
                               degree_weight_profile, direction_criterion,
                               giant_fraction_curve, hrg_kernel_validation,
                               phase_sweep, strictly_increasing,
                               tail_exponent_estimate, trend_slope)

# `pytest -m "not acceptance"` runs the unit tests alone
pytestmark = pytest.mark.acceptance


# ---------------------------------------------------------------------------
# criterion 1: search distances vs exhaustive enumeration on small graphs


def test_criterion_01_search_matches_exhaustive_path_enumeration():
    t_start = time.time()
    rng = np.random.default_rng(20260816)
    window = Window(1, 50.0, "hard")
    pool = (product_penalty(1.0), monomial_penalty(2.0, 0.5),
            power_sum_penalty(0.75),
            PenaltyPolynomial(((1.0, 1.75, 0.0), (1.0, 0.0, 0.75))))
    checked = 0
    for trial in range(200):
        n = int(rng.integers(2, 10))
        pos = rng.uniform(-25.0, 25.0, size=(n, 1))
        weights = 1.0 + rng.pareto(1.5, size=n)
        us, vs = [], []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.5:
                    us.append(u)
                    vs.append(v)
        lengths = rng.uniform(0.01, 3.0, size=len(us))
        g = Graph(VertexSet(window, pos, weights),
                  np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64),
                  lengths)
        f = pool[trial % len(pool)]
        direction = "outward" if trial % 2 == 0 else "inward"
        source = int(rng.integers(0, n))
        got = cost_search(g, f, source, direction).dist
        want = oracles.simple_path_distances(n, oracles.step_costs(
            us, vs, lengths, weights, f, direction), source)
        for v in range(n):
            if math.isinf(want[v]):
                assert math.isinf(got[v])
            else:
                assert got[v] == pytest.approx(want[v], rel=1e-12, abs=1e-12)
                checked += 1
    elapsed = time.time() - t_start
    print(f"criterion 1: 200 graphs, {checked} finite distances matched, "
          f"{elapsed:.1f}s")
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# criteria 2-3: phase sweeps


def test_criterion_02_penalized_medians_grow_only_above_threshold():
    t_start = time.time()
    base = Girg(n=1, d=2, tau=2.5, alpha=2.0, c=0.5)
    sizes = (2**10, 2**12, 2**14)
    # product penalty mu=1 => degree 2, threshold beta = (3-tau)/2 = 0.25;
    # beta = 0.1 sits below (explosive side), beta = 1.0 above.
    growing_wins = 0
    flat_meds = None
    for rep in range(calibration.GROWING_REPETITIONS):
        grid = (0.1, 1.0) if rep == 0 else (1.0,)
        spec = SweepSpec(base=base, f=product_penalty(1.0),
                         law_family=PolyAtZero, beta_grid=grid,
                         size_grid=sizes, pairs_per_graph=30,
                         graphs_per_cell=5,
                         seed=derive_master(7002, f"rep:{rep}"))
        cells = {(c.beta, c.n): c for c in phase_sweep(spec)}
        assert all(c.reason is None for c in cells.values())
        meds_hi = [cells[(1.0, n)].median_d for n in sizes]
        assert all(cells[(1.0, n)].verdict == "Conservative" for n in sizes)
        growing_wins += strictly_increasing(meds_hi)
        if rep == 0:
            assert all(cells[(0.1, n)].verdict == "ExplosiveLengthwise"
                       for n in sizes)
            flat_meds = [cells[(0.1, n)].median_d for n in sizes]
    slope = trend_slope(sizes, flat_meds)
    need = math.ceil(calibration.GROWING_REPETITION_FRACTION
                     * calibration.GROWING_REPETITIONS)
    elapsed = time.time() - t_start
    print(f"criterion 2: flat-arm slope {slope:.4f} per doubling "
          f"(budget {calibration.NONGROWING_SLOPE_BUDGET}), growing arm "
          f"{growing_wins}/{calibration.GROWING_REPETITIONS} "
          f"(need {need}), {elapsed:.0f}s")
    assert slope <= calibration.NONGROWING_SLOPE_BUDGET
    assert growing_wins >= need
    assert elapsed < 600.0


def test_criterion_03_unpenalized_fpp_medians_stay_flat():
    base = Girg(n=1, d=2, tau=2.5, alpha=2.0, c=0.5)
    sizes = (2**10, 2**12, 2**14)
    spec = SweepSpec(base=base, f=product_penalty(0.0),
                     law_family=lambda b: Exponential(b), beta_grid=(1.0,),
                     size_grid=sizes, pairs_per_graph=30, graphs_per_cell=5,
                     seed=13)
    cells = {c.n: c for c in phase_sweep(spec)}
    assert all(c.reason is None for c in cells.values())
    assert all(c.verdict == "FppExplosive" for c in cells.values())
    meds = [cells[n].median_d for n in sizes]
    slope = trend_slope(sizes, meds)
    print(f"criterion 3: fpp medians {[round(m, 4) for m in meds]}, "
          f"slope {slope:.4f} per doubling "
          f"(budget {calibration.NONGROWING_SLOPE_BUDGET})")
    assert slope <= calibration.NONGROWING_SLOPE_BUDGET


# ---------------------------------------------------------------------------
# criterion 4: giant component presence and uniqueness


def test_criterion_04_giant_component_present_and_unique():
    pts = giant_fraction_curve(
        lambda n: Girg(n=n, d=2, tau=2.5, alpha=2.0, c=0.5),
        sizes=(2**12, 2**14), reps=10, seed=31)
    small, large = pts
    print(f"criterion 4: giant fraction {small.mean_fraction:.3f} @ 2^12, "
          f"{large.mean_fraction:.3f} @ 2^14, second "
          f"{large.mean_second_fraction:.4f}")
    assert small.mean_fraction >= calibration.GIANT_MIN_FRACTION
    assert (large.mean_fraction
            >= calibration.GIANT_STABILITY_FACTOR * small.mean_fraction)
    assert (large.mean_second_fraction
            <= calibration.GIANT_SECOND_MAX_FRACTION)


# ---------------------------------------------------------------------------
# criteria 5-6: degree/weight diagnostics


def test_criterion_05_degree_tracks_weight_across_decades():
    g = generate(Girg(n=2**14, d=2, tau=2.9, alpha=4.0, c=0.1), 501)
    profile = degree_weight_profile(g)
    ratios = [p.ratio for p in profile if p.reliable]
    spread = max(ratios) / min(ratios)
    print(f"criterion 5: {len(ratios)} reliable decades, ratio spread "
          f"{spread:.3f} (max {calibration.DEGREE_RATIO_SPREAD_MAX})")
    assert len(ratios) >= 2
    assert spread <= calibration.DEGREE_RATIO_SPREAD_MAX


def test_criterion_06_degree_tail_exponent_matches_weight_tail():
    tau = 2.5
    g = generate(Girg(n=2**15, d=2, tau=tau, alpha=2.0, c=0.5), 608)
    hill = tail_exponent_estimate(g.degrees(), 0.01)
    print(f"criterion 6: degree-tail Hill estimate {hill:.3f}, expected "
          f"{tau - 1} +- {calibration.DEGREE_TAIL_BAND}")
    assert abs(hill - (tau - 1.0)) <= calibration.DEGREE_TAIL_BAND


# ---------------------------------------------------------------------------
# criterion 7: boxing parameter solver vs an independent recheck


def test_criterion_07_boxing_solver_output_passes_independent_recheck():
    rng = np.random.default_rng(77007)
    accepted = 0
    attempts = 0
    while accepted < 100:
        attempts += 1
        assert attempts < 5000, "solver feasibility collapsed"
        tau = float(rng.uniform(1.2, 2.8))
        mu = float(rng.uniform(0.0, 1.5))
        nu = float(rng.uniform(0.0, 1.5))
        bp = float(rng.uniform(0.02, 0.6))
        try:
            p = solve_boxing_params(tau, mu, nu, bp)
        except ValueError:
            continue
        assert not oracles.boxing_param_problems(tau, mu, nu, bp, p.delta,
                                                 p.C, p.D, p.xi, p.rho)
        accepted += 1
    print(f"criterion 7: 100 solver outputs rechecked "
          f"({attempts} draws, {attempts - accepted} infeasible)")


# ---------------------------------------------------------------------------
# criterion 8: minimum-of-N length quantile bound


def test_criterion_08_min_length_exceeds_quantile_rarely():
    trials = 10_000
    for li, law in enumerate((PolyAtZero(0.7), Exponential(1.3))):
        for N, zeta in ((1000, 3.0), (100, 1.0)):
            u = uniform_array(9090, f"minq:{li}:{N}",
                              np.arange(N * trials, dtype=np.uint64))
            lengths = law.sample_from_uniform(u).reshape(trials, N)
            q = law.quantile(zeta / N)
            freq = float(np.mean(lengths.min(axis=1) > q))
            p = math.exp(-zeta)
            bound = p + 3.0 * math.sqrt(p * (1.0 - p) / trials)
            print(f"criterion 8: {type(law).__name__} N={N} zeta={zeta}: "
                  f"freq {freq:.4f} <= {bound:.4f}")
            assert freq <= bound


# ---------------------------------------------------------------------------
# criterion 9: hyperbolic weights and kernel against their limits


def test_criterion_09_hyperbolic_weights_and_kernel_match_limits():
    alpha_H = 0.75
    g = generate(Hrg(n=2**13, alpha_H=alpha_H, C_H=1.0, T_H=None), 88)
    hill = tail_exponent_estimate(g.vertices.weights, 0.10)
    target = 2.0 * alpha_H          # tau - 1 for tau = 2 alpha_H + 1
    print(f"criterion 9: weight-tail Hill {hill:.3f}, expected {target} "
          f"+- {calibration.HRG_WEIGHT_TAIL_BAND}")
    assert abs(hill - target) <= calibration.HRG_WEIGHT_TAIL_BAND

    bins = hrg_kernel_validation(4096, alpha_H, 1.0, 0.5, reps=2, seed=314)
    busy = [b for b in bins if b.pairs >= calibration.HRG_KERNEL_MIN_PAIRS]
    assert busy, "no kernel bin collected enough pairs"
    dev = max(abs(b.frequency - b.prediction) for b in busy)
    print(f"criterion 9: kernel deviation {dev:.4f} over {len(busy)} bins "
          f"(max {calibration.HRG_KERNEL_DEVIATION_MAX})")
    assert dev <= calibration.HRG_KERNEL_DEVIATION_MAX


# ---------------------------------------------------------------------------
# criterion 10: boxing F1 rate and the greedy cost bound


def test_criterion_10_boxing_f1_rate_and_greedy_cost_bound():
    runs = 50
    tau = 2.5
    params = solve_boxing_params(tau, 1.0, 1.0, 0.1)
    side = 1000.0
    # Largest M keeping Box_1 inside the window: e^{M D C} = side.
    M = math.log(side) / (params.D * params.C) * (1.0 - 1e-9)
    spec = IgirgWindow(lam=1.0, d=1, side=side, tau=tau, alpha=2.0, c=1.0)
    law = PolyAtZero(0.1)
    f = monomial_penalty(1.0, 1.0)
    f1_runs = completed = applicable = violations = 0
    k_star = None
    for rep in range(runs):
        g = generate(spec, derive_master(4242, f"box:{rep}"), length_law=law)
        b = build_boxing(g.vertices.window, [0.0], M, params.C, params.D,
                         params.delta)
        k_star = b.k_star
        scan = delta_good_scan(g, b, tau)
        f1_runs += all(scan.f1_flags)
        for leader in scan.annuli[0].good_leaders:
            out = build_greedy_path(g, b, tau, f, leader, scan=scan)
            if isinstance(out, GreedyPath):
                completed += 1
                report = greedy_bound_report(b, tau, f, law, out)
                if report.applicable:
                    applicable += 1
                    violations += not report.satisfied
    need = math.ceil(calibration.F1_RUN_FRACTION * runs)
    print(f"criterion 10: k_star={k_star} M={M:.3f}; greedy paths "
          f"completed={completed} applicable={applicable} "
          f"violations={violations}; F1 at every k in {f1_runs}/{runs} runs "
          f"(need {need})")
    assert violations == 0
    # Expected red at this window size; see the module docstring.
    assert f1_runs >= need


# ---------------------------------------------------------------------------
# criterion 11: self-avoiding path counts below the calibrated budget


def test_criterion_11_self_avoiding_path_counts_decay_at_t0():
    # Recipe constants for d=1, alpha=2, c=1, lam=1, tau=2.5, b=1/2:
    #   C2    = c * (V_d + 1/(d (alpha-1))) = 1 * (2 + 1) = 3
    #   E[W^(2-2*mu*b)] = E[W] = (tau-1)/(tau-2) = 3
    #   t0    = (2 lam C2 E[W])^(-1/b) = 18^-2 = 1/324
    t0 = 1.0 / 324.0
    spec = IgirgWindow(lam=1.0, d=1, side=200.0, tau=2.5, alpha=2.0, c=1.0,
                       pin_origin=True)
    f = product_penalty(1.0)
    law = PolyAtZero(0.5)
    counts = np.zeros((200, 4))
    for rep in range(200):
        g = generate(spec, derive_master(77, f"saw:{rep}"), length_law=law)
        sub = cost_subgraph(g, f, t0)
        origin = g.vertices.origin_index
        counts[rep] = [saw_path_count(sub, origin, k) for k in range(4)]
    means = counts.mean(axis=0)
    with np.errstate(divide="ignore"):
        ratios = means[:-1] / means[1:]
    print(f"criterion 11: mean path counts {np.round(means, 3).tolist()}, "
          f"decay factors {np.round(ratios, 2).tolist()} "
          f"(need >= {calibration.SAW_DECAY_MIN_FACTOR})")
    assert means[0] == 1.0
    assert np.all(ratios >= calibration.SAW_DECAY_MIN_FACTOR)


# ---------------------------------------------------------------------------
# criterion 12: penalty direction decides the cheap-edge asymmetry


def test_criterion_12_penalty_direction_asymmetry():
    reps = calibration.ASYMMETRY_BATCHES * calibration.ASYMMETRY_REPS_PER_BATCH
    results = asymmetry_experiment(
        monomial_penalty(3.0, 0.25), calibration.ASYMMETRY_SIDES,
        calibration.ASYMMETRY_T, reps, seed=2026)
    flags = direction_criterion(results, calibration.ASYMMETRY_BATCHES)
    won = sum(flags)

    lo_w, hi_w = calibration.ASYMMETRY_WEIGHT_BAND

    def banded_outward(r):
        m = (r.origin_weights >= lo_w) & (r.origin_weights <= hi_w)
        return float(r.outward_counts[m].mean())

    first, last = results[0], results[-1]
    doublings = math.log2(last.side / first.side)
    growth = ((1.0 + banded_outward(last))
              / (1.0 + banded_outward(first))) ** (1.0 / doublings)
    need = math.ceil(calibration.ASYMMETRY_BATCH_FRACTION
                     * calibration.ASYMMETRY_BATCHES)
    print(f"criterion 12: direction criterion won {won}/"
          f"{calibration.ASYMMETRY_BATCHES} batches (need {need}); banded "
          f"outward growth x{growth:.2f} per doubling "
          f"(need >= {calibration.ASYMMETRY_OUTWARD_GROWTH_MIN})")
    assert won >= need
    assert growth >= calibration.ASYMMETRY_OUTWARD_GROWTH_MIN
