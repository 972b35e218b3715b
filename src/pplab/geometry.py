"""Windows and the multi-scale annulus boxing construction."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .domain import ConfigError, check_derived, check_domains

_SUBBOX_GUARD = 2_000_000  # most grid cells one annulus may enumerate
_ANNULUS_GUARD = 10_000    # most annuli one boxing may hold (about 1 s)


@dataclass(frozen=True)
class Window:
    """Axis-aligned cube [-side/2, side/2]^d with hard or torus boundary."""

    d: int
    side: float
    boundary: str = "hard"

    def __post_init__(self):
        check_domains(vars(self), d="[1, inf)", side="(0, inf)")
        if self.boundary not in ("hard", "torus"):
            raise ValueError("boundary must be 'hard' or 'torus'")


# ---------------------------------------------------------------------------
# boxing


@dataclass(frozen=True)
class Annulus:
    """One scale of the boxing: ring Gamma_k packed with grid sub-boxes.

    anchors[i] is the lower corner of sub-box i; all sub-boxes share side
    length subbox_side and are half-open [lo, lo + side) along each axis.
    """

    k: int
    outer_half: float          # half side of Box_k
    subbox_side: float
    cells_per_axis: int
    anchors: np.ndarray        # (b_k, d) lower corners
    cell_ids: np.ndarray = field(repr=False)  # C-order grid id of each row

    @property
    def count(self) -> int:
        return len(self.anchors)


@dataclass(frozen=True)
class BoxingSystem:
    """Nested boxes Box_k of side e^{M D C^k / d} around a center point.

    Annulus Gamma_k = Box_k minus Box_{k-1} (Gamma_0 = Box_0) is packed
    with full sub-boxes of side e^{M C^k / d} on a grid anchored at the
    lexicographically smallest corner of Box_k; cells protruding from the
    window or overlapping Box_{k-1} are dropped.
    """

    window: Window
    center: np.ndarray
    M: float
    C: float
    D: float
    delta: float
    k_star: int
    annuli: tuple

    def counts(self) -> list:
        return [a.count for a in self.annuli]

    def leader_weight_interval(self, k: int, tau: float) -> tuple:
        """Half-open weight interval (lo, hi] that makes a leader delta-good."""
        check_domains(locals(), tau="(1, inf]")
        e = self.M * self.C**k / (tau - 1.0)
        hi = check_derived("tau makes e^{(1+delta) M C^k/(tau-1)} overflow",
                           lambda: math.exp((1.0 + self.delta) * e))
        return (math.exp((1.0 - self.delta) * e), hi)

    def leader_count_threshold(self, k_next: int, eps: float) -> float:
        """Required number of next-annulus good neighbours, e^{(1-eps) M C^{k+1} (D-1)}."""
        return math.exp((1.0 - eps) * self.M * self.C**k_next * (self.D - 1.0))


def _enumerate_annulus(window: Window, center: np.ndarray, k: int,
                       outer_half: float, inner_half, subbox_side: float) -> Annulus:
    d = window.d
    cells = int(math.floor(2.0 * outer_half / subbox_side))
    if cells**d > _SUBBOX_GUARD:
        raise ConfigError(
            f"annulus {k} would hold {cells}^{d} grid cells; "
            f"guard is {_SUBBOX_GUARD}"
        )
    corner = center - outer_half
    hw = window.side / 2.0
    tol = 1e-12 * max(window.side, 1.0)

    # grid of candidate cells (full cells only), rows in C order of grid id
    idx = np.indices((cells,) * d).reshape(d, -1).T
    lo = corner[None, :] + idx * subbox_side
    hi = lo + subbox_side
    keep = np.all(lo >= -hw - tol, axis=1) & np.all(hi <= hw + tol, axis=1)
    if inner_half is not None:
        # drop cells whose interior meets the interior of Box_{k-1}
        ilo = center - inner_half
        ihi = center + inner_half
        overlap = np.all((lo < ihi[None, :]) & (hi > ilo[None, :]), axis=1)
        keep &= ~overlap
    cell_ids = np.flatnonzero(keep)
    return Annulus(
        k=k,
        outer_half=outer_half,
        subbox_side=subbox_side,
        cells_per_axis=cells,
        anchors=lo[cell_ids],
        cell_ids=cell_ids,
    )


def _box_side(M: float, C: float, D: float, k: int, d: int) -> float:
    """Box_k's side e^{M D C^k / d}; +inf once the exponential overflows."""
    growth = check_derived("M, C and D make C^k overflow while Box_k still "
                           "fits in the window", lambda: C**k)
    try:
        return math.exp(M * D * growth / d)
    except OverflowError:
        return math.inf


def build_boxing(window: Window, center, M: float, C: float, D: float,
                 delta: float) -> BoxingSystem:
    """Construct the boxing system; fails if even Box_0 exceeds the window.

    k_star is the largest k with e^{M D C^k / d} <= side, found by direct
    integer enumeration of the inequality.
    """
    center = np.asarray(center, dtype=np.float64).reshape(window.d)
    check_domains(locals(), M="(0, inf)", C="(1, inf)", D="(1, inf)",
                  delta="(0, 1)", center="(-inf, inf)")
    d = window.d

    if _box_side(M, C, D, 0, d) > window.side:
        raise ConfigError("window smaller than Box_0 (e^{M D / d} > side): "
                          "no boxing exists (k_star < 0)")
    k_star = 0
    while _box_side(M, C, D, k_star + 1, d) <= window.side:
        k_star += 1
        if k_star >= _ANNULUS_GUARD:
            raise ConfigError(f"M, C and D give more than {_ANNULUS_GUARD} "
                              "annuli (the guard)")

    annuli = []
    for k in range(k_star + 1):
        outer = _box_side(M, C, D, k, d) / 2.0
        inner = None if k == 0 else _box_side(M, C, D, k - 1, d) / 2.0
        s = math.exp(M * C**k / d)
        annuli.append(_enumerate_annulus(window, center, k, outer, inner, s))
    return BoxingSystem(
        window=window, center=center, M=M, C=C, D=D, delta=delta,
        k_star=k_star, annuli=tuple(annuli),
    )


def locate_subbox(b: BoxingSystem, x) -> tuple:
    """Sub-box of each point of x, shape (n, d): int64 arrays (k, row).

    Point p lies in row `row` of annulus k's anchors; both read -1 where p
    falls in no kept sub-box (outside the boxing or in leftover space).
    Sub-boxes are half-open [lo, lo + side) per axis, and p belongs to the
    one of lowest k, then lowest row, that contains it.  The rounded grid
    index of p can be one cell off on a cell face, so each annulus tests
    the cells within one index of it on every axis, in row order, with the
    containment test itself.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1, b.window.d)
    d = b.window.d
    k_of = np.full(len(x), -1, dtype=np.int64)
    row_of = np.full(len(x), -1, dtype=np.int64)
    for ann in b.annuli:
        if ann.count == 0:
            continue
        corner = b.center - ann.outer_half
        near = np.floor((x - corner) / ann.subbox_side).astype(np.int64)
        shape = (ann.cells_per_axis,) * d
        # offsets in lexicographic order visit the cells in row order
        for off in product((-1, 0, 1), repeat=d):
            idx = near + off
            real = np.all((idx >= 0) & (idx < ann.cells_per_axis), axis=1)
            ids = np.ravel_multi_index(idx.T, shape, mode="clip")
            rows = np.minimum(np.searchsorted(ann.cell_ids, ids),
                              ann.count - 1)
            lo = ann.anchors[rows]
            hit = ((k_of < 0) & real & (ann.cell_ids[rows] == ids)
                   & np.all((x >= lo) & (x < lo + ann.subbox_side), axis=1))
            k_of[hit] = ann.k
            row_of[hit] = rows[hit]
    return k_of, row_of
