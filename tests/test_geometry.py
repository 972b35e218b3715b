"""Geometry: the window metric's reference, boxing, sub-box location."""
import math

import numpy as np
import pytest

import oracles
from pplab.geometry import Window, build_boxing, locate_subbox


def test_distance_zero_at_same_point():
    x = [1.0, 2.0, -1.0]
    assert oracles.window_distance(x, x, 5.0, torus=False) == 0.0


def test_distance_hard_345():
    assert oracles.window_distance([0.0, 0.0], [3.0, 4.0], 20.0,
                                   torus=False) == 5.0


def test_distance_torus_wraps():
    assert oracles.window_distance([-4.5], [4.5], 10.0, torus=True) == \
        pytest.approx(1.0, abs=1e-15)


def test_torus_never_exceeds_hard():
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = rng.integers(1, 4)
        side = float(rng.uniform(1.0, 50.0))
        x = rng.uniform(-side / 2, side / 2, size=d)
        y = rng.uniform(-side / 2, side / 2, size=d)
        dt = oracles.window_distance(x, y, side, torus=True)
        dh = oracles.window_distance(x, y, side, torus=False)
        assert dt <= dh + 1e-12


# ---------------------------------------------------------------------------
# boxing construction


def test_build_boxing_rejects_small_window():
    # e^{M D / d} = e^{3} ~ 20.1 > side
    with pytest.raises(ValueError):
        build_boxing(Window(1, 15.0), [0.0], M=2.0, C=1.1, D=1.5, delta=0.1)


def test_k_star_by_direct_enumeration():
    # oracle: largest k with exp(M*D*C^k/d) <= side, checked integer by integer
    side = 1e6
    M, C, D = 1.0, 1.1, 1.5
    b = build_boxing(Window(1, side), [0.0], M=M, C=C, D=D, delta=0.1)
    k = 0
    while math.exp(M * D * C ** (k + 1)) <= side:
        k += 1
    assert math.exp(M * D * C**k) <= side
    assert b.k_star == k == 23


def test_volume_ratio_formula():
    b = build_boxing(Window(2, 1e5), [1.0, -2.0], M=2.0, C=1.2, D=1.6, delta=0.2)
    for k in range(b.k_star + 1):
        box_vol = (2.0 * b.annuli[k].outer_half) ** 2
        sub_vol = b.annuli[k].subbox_side ** 2
        # vol(Box_k) / vol(sub-box of Gamma_k) = e^{M (D-1) C^k}
        assert box_vol / sub_vol == pytest.approx(
            math.exp(2.0 * (1.6 - 1.0) * 1.2**k), rel=1e-9
        )


def _in_window(window: Window, x) -> bool:
    return bool(np.all(np.abs(np.asarray(x)) <= window.side / 2.0))


def _linear_scan(b, xs):
    """The oracle's (k, row) of each point: every sub-box extent tested."""
    return oracles.containing_subbox(
        xs, [(a.anchors, a.subbox_side) for a in b.annuli])


def test_locate_center_point():
    b = build_boxing(Window(2, 4e3), [0.0, 0.0], M=2.0, C=1.3, D=1.5, delta=0.1)
    k, row = locate_subbox(b, np.zeros((1, 2)))
    want_k, want_row = _linear_scan(b, np.zeros((1, 2)))
    assert (k[0], row[0]) == (want_k[0], want_row[0])
    if row[0] >= 0:
        assert k[0] == 0


def test_locate_outside_outer_box():
    b = build_boxing(Window(1, 1e4), [0.0], M=2.0, C=1.2, D=1.5, delta=0.1)
    outer = b.annuli[-1].outer_half
    far = (outer + 5e3) / 2.0  # inside the window, beyond Box_{k_star}
    assert outer < far < 5e3
    k, row = locate_subbox(b, [[far]])
    assert (k[0], row[0]) == (-1, -1)


def test_locate_matches_linear_scan():
    rng = np.random.default_rng(1234)
    for trial in range(6):
        d = int(rng.integers(1, 3))
        side = float(rng.uniform(2e3, 5e4))
        center = rng.uniform(-side / 4, side / 4, size=d)
        delta = float(rng.uniform(0.1, 0.3))
        b = build_boxing(
            Window(d, side), center,
            M=float(rng.uniform(2.5, 5.0)), C=1.0 + delta,
            D=float(rng.uniform(1.3, 1.9)), delta=delta,
        )
        span = b.annuli[-1].outer_half * 1.2
        xs = []
        for _ in range(170):
            x = center + rng.uniform(-span, span, size=d)
            if _in_window(b.window, x):
                xs.append(x)
        xs = np.array(xs)
        k, row = locate_subbox(b, xs)
        want_k, want_row = _linear_scan(b, xs)
        for i, x in enumerate(xs):
            assert (k[i], row[i]) == (want_k[i], want_row[i]), (trial, x)


def test_locate_face_points_match_linear_scan():
    # Integer-grid points (as in SFP graphs) on systems whose level-0
    # anchors sit on integers up to rounding: the sub-box side is
    # exp(ln s) for an integer s and the corner is shifted onto an
    # integer.  Most points then lie on a cell face, where a rounded grid
    # index alone can name the neighbouring cell.  Anchors, anchor + side
    # and the float just below each anchor are added for every annulus.
    checked = moved = 0
    for d, s, C, D in ((1, 16, 1.1, 1.6), (1, 25, 1.2, 1.9), (1, 7, 1.05, 1.4),
                       (2, 3, 1.1, 1.5), (2, 6, 1.2, 1.7), (2, 4, 1.05, 1.9)):
        M = d * math.log(s)
        half = math.exp(M * D / d) / 2.0
        for shift in range(3):
            center = np.full(d, half - math.floor(half) + shift)
            b = build_boxing(Window(d, 8.0 * half * C**3 + 20.0), center, M,
                             C, D, C - 1.0)
            lo = int(math.floor(center[0] - b.annuli[-1].outer_half)) - 1
            hi = int(math.ceil(center[0] + b.annuli[-1].outer_half)) + 1
            grid = np.arange(lo, hi + 1, dtype=np.float64)
            pts = [np.stack(np.meshgrid(*[grid] * d, indexing="ij"),
                            axis=-1).reshape(-1, d)]
            for ann in b.annuli:
                pts += [ann.anchors, ann.anchors + ann.subbox_side,
                        np.nextafter(ann.anchors, -np.inf)]
            xs = np.concatenate(pts)
            xs = xs[np.all(np.abs(xs) <= b.window.side / 2.0, axis=1)]
            k, row = locate_subbox(b, xs)
            want_k, want_row = _linear_scan(b, xs)
            assert np.array_equal(k, want_k) and np.array_equal(row, want_row)
            near = np.floor((xs - (b.center - b.annuli[0].outer_half))
                            / b.annuli[0].subbox_side)
            lo0 = b.center - b.annuli[0].outer_half \
                + near * b.annuli[0].subbox_side
            moved += int(np.any(xs < lo0, axis=1).sum())
            checked += int((want_k >= 0).sum())
    # the points do hit faces where the rounded index is a cell off
    assert checked > 1000 and moved > 50


def _random_systems(n, seed=5150):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        d = int(rng.integers(1, 3))
        delta = float(rng.uniform(0.1, 0.3))
        C = 1.0 + delta
        D = float(rng.uniform(1.3, 1.9))
        M = float(rng.uniform(2.5, 6.0))
        k_target = int(rng.integers(1, 4))
        need = math.exp(M * D * C**k_target / d)
        side = need * float(rng.uniform(1.0, 3.0))
        if side > 1e7:
            continue
        center = rng.uniform(-side / 4, side / 4, size=d)
        try:
            out.append(build_boxing(Window(d, side), center, M, C, D, delta))
        except ValueError:
            continue
    return out


def test_subboxes_disjoint():
    # interval-arithmetic overlap check across every pair of sub-boxes;
    # adjacent grid cells may brush by a rounding ulp, so an overlap only
    # counts when it exceeds 1e-9 of the smaller box side
    for b in _random_systems(120):
        los, his, sides = [], [], []
        for ann in b.annuli:
            if ann.count:
                los.append(ann.anchors)
                his.append(ann.anchors + ann.subbox_side)
                sides.append(np.full(ann.count, ann.subbox_side))
        if not los:
            continue
        lo = np.concatenate(los)
        hi = np.concatenate(his)
        s = np.concatenate(sides)
        n = len(lo)
        tol = 1e-9 * np.minimum(s[:, None], s[None, :])
        ov = np.ones((n, n), dtype=bool)
        for ax in range(b.window.d):
            seg = np.minimum(hi[:, ax][:, None], hi[:, ax][None, :]) - np.maximum(
                lo[:, ax][:, None], lo[:, ax][None, :]
            )
            ov &= seg > tol
        np.fill_diagonal(ov, False)
        assert not ov.any()


def test_subboxes_inside_window_and_annulus():
    for b in _random_systems(60, seed=99):
        hw = b.window.side / 2.0
        for ann, inner in zip(b.annuli, _inner_halves(b)):
            if ann.count == 0:
                continue
            lo = ann.anchors
            hi = ann.anchors + ann.subbox_side
            assert np.all(lo >= -hw - 1e-9) and np.all(hi <= hw + 1e-9)
            # inside Box_k
            assert np.all(lo >= b.center - ann.outer_half - 1e-9)
            assert np.all(hi <= b.center + ann.outer_half + 1e-9)
            # not overlapping Box_{k-1}
            if inner is not None:
                ilo = b.center - inner
                ihi = b.center + inner
                bad = np.all((lo < ihi[None, :]) & (hi > ilo[None, :]), axis=1)
                assert not bad.any()


def _inner_halves(b):
    """Half side of Box_{k-1} for each annulus k (None for k = 0)."""
    return [None] + [a.outer_half for a in b.annuli[:-1]]


def _clipped_box_volume(center, half, hw, d):
    v = 1.0
    for j in range(d):
        seg = min(center[j] + half, hw) - max(center[j] - half, -hw)
        v *= max(seg, 0.0)
    return v


def test_coverage_bound():
    # Total kept sub-box volume >= 2^{-(d+1)} of vol(Gamma_k ∩ window).
    # Asserted for annuli where cells can exist at all: sub-box volume
    # >= 1e3 (spec guard) plus a thickness guard — for C close to 1 a
    # ring thinner than a sub-box holds no cells at any volume scale.
    checked = 0
    for b in _random_systems(250, seed=31):
        d = b.window.d
        hw = b.window.side / 2.0
        for ann, inner in zip(b.annuli, _inner_halves(b)):
            if ann.subbox_side**d < 1e3:
                continue
            if math.exp(b.M * (b.D - 1.0) * b.C**ann.k / d) < 8.0:
                continue
            if inner is not None:
                thickness = ann.outer_half - inner
                if thickness < 4.0 * ann.subbox_side:
                    continue
            outer_vol = _clipped_box_volume(b.center, ann.outer_half, hw, d)
            inner_vol = (
                _clipped_box_volume(b.center, inner, hw, d)
                if inner is not None
                else 0.0
            )
            region = outer_vol - inner_vol
            if region <= 0:
                continue
            covered = ann.count * ann.subbox_side**d
            assert covered <= region * (1.0 + 1e-9)
            assert covered >= region / 2 ** (d + 1), (
                b.M, b.C, b.D, ann.k, covered / region,
            )
            checked += 1
    assert checked > 50  # the guard must leave a real sample
