"""Planar spiral coil geometry: inductance, synthesis, parasitics.

Maps a target self-inductance to physical spiral layouts under an
implant area cap using the current-sheet approximation

    L = (C1 mu0 n^2 d_avg / 2) [ln(C2/phi) + C3 phi + C4 phi^2]

with the fill ratio phi = sqrt(A)/d_avg - 1, the average diameter
d_avg = (2r + n dr) cos(pi/seg) and the footprint
A = [w + 2 (r + n dr) cos(pi/seg)]^2.  Also estimates AC trace
resistance (skin effect) and the coupling coefficient between two
coaxial spirals (per-turn filament loops, Neumann integral).
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .netcore import check_frequency

MU_0 = 4e-7 * math.pi          # H/m
COPPER_RESISTIVITY = 1.68e-8   # ohm*m
DEFAULT_TRACE_THICKNESS = 35e-6  # m, 1 oz copper
DEFAULT_MAX_AREA = (18e-3) ** 2  # m^2, an 18 mm x 18 mm footprint

# Synthesis grid and acceptance tolerances (see synthesize).
N_MAX = 40
W_STEPS = 12
DR_STEPS = 12
TRACE_STEP = 50e-6   # m
R_STEP = 100e-6      # m
L_TOL = 0.01
WHEELER_TOL = 0.05
NEWTON_STEPS = 5  # per window edge, see _guess_edges

CIRCULAR_SEG = math.inf


@dataclass(frozen=True)
class ShapeCoefficients:
    """Current-sheet coefficients C1..C4 and modified-Wheeler coefficients
    K1, K2 for one polygon order.

    ``seg`` is the polygon order (>= 3); math.inf marks a circle.
    """

    name: str
    seg: float
    c1: float
    c2: float
    c3: float
    c4: float
    k1: float
    k2: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.c1, self.c2, self.c3, self.c4, self.k1, self.k2))):
            raise ValueError("shape coefficients must be finite")
        if not (self.c1 > 0 and self.c2 > 0):
            raise ValueError("C1 and C2 must be > 0")
        if self.seg != CIRCULAR_SEG and self.seg < 3:
            raise ValueError(f"polygon order must be >= 3, got {self.seg}")
        # Synthesis needs L to rise with d_avg along each (n, w, dr) row:
        # dL/dd_avg is proportional to ln(c2/phi) + 1 - c4 phi^2, and dr > w
        # keeps the fill ratio phi in (0, 1 + 1/cos_factor].  That term falls
        # with phi for c4 >= 0; for c4 < 0 its minimum is at 1/sqrt(-2 c4).
        phi_max = 1.0 + 1.0 / self.cos_factor
        phi = min(phi_max, 1.0 / math.sqrt(-2.0 * self.c4)) if self.c4 < 0.0 else phi_max
        if not math.log(self.c2 / phi) + 1.0 - self.c4 * phi * phi > 0.0:
            raise ValueError(f"ln(C2/phi) + 1 - C4 phi^2 must be > 0 for fill ratios "
                             f"phi up to {phi_max:.4g}; it is not at phi = {phi:.4g}")

    @property
    def cos_factor(self) -> float:
        return 1.0 if self.seg == CIRCULAR_SEG else math.cos(math.pi / self.seg)


# Circles borrow the octagon's Wheeler K1, K2 (nearest tabulated polygon).
SQUARE = ShapeCoefficients("square", 4, 1.27, 2.07, 0.18, 0.13, 2.34, 2.75)
HEXAGONAL = ShapeCoefficients("hexagonal", 6, 1.09, 2.23, 0.00, 0.17, 2.33, 3.82)
OCTAGONAL = ShapeCoefficients("octagonal", 8, 1.07, 2.29, 0.00, 0.19, 2.25, 3.55)
CIRCULAR = ShapeCoefficients("circular", CIRCULAR_SEG, 1.00, 2.46, 0.00, 0.20, 2.25, 3.55)

SHAPES = {s.name: s for s in (SQUARE, HEXAGONAL, OCTAGONAL, CIRCULAR)}


@dataclass(frozen=True)
class SpiralGeometry:
    """Layout of one planar spiral: shape, turn count n, initial radius
    r, per-turn radius increment dr, trace width w and thickness t."""

    shape: ShapeCoefficients
    n: int
    r: float
    dr: float
    w: float
    t: float = DEFAULT_TRACE_THICKNESS

    def __post_init__(self):
        if self.n < 1 or self.n != int(self.n):
            raise ValueError(f"turn count must be a positive integer, got {self.n}")
        if not self.w > 0:
            raise ValueError("trace width must be > 0")
        if self.dr < self.w:
            raise ValueError(f"radius increment {self.dr} overlaps trace width {self.w}")
        if not self.r > 0:
            raise ValueError("initial radius must be > 0")
        if not self.t > 0:
            raise ValueError("trace thickness must be > 0")

    @property
    def avg_diameter(self) -> float:
        return (2.0 * self.r + self.n * self.dr) * self.shape.cos_factor

    @property
    def area(self) -> float:
        edge = self.w + 2.0 * (self.r + self.n * self.dr) * self.shape.cos_factor
        return edge * edge

    @property
    def fill_ratio(self) -> float:
        return math.sqrt(self.area) / self.avg_diameter - 1.0


def inductance(g: SpiralGeometry) -> float:
    """Current-sheet self-inductance of the spiral (mu_r = 1: tissue and
    polyimide are non-magnetic)."""
    phi = g.fill_ratio
    if not phi > 0.0:
        raise ValueError(f"fill ratio must be > 0, got {phi}")
    c = g.shape
    bracket = math.log(c.c2 / phi) + c.c3 * phi + c.c4 * phi * phi
    return 0.5 * c.c1 * MU_0 * g.n * g.n * g.avg_diameter * bracket


def modified_wheeler(g: SpiralGeometry) -> float:
    """Modified-Wheeler inductance estimate for the same layout.

    Uses the classic outer/inner diameters d_out = sqrt(A) and
    d_in = 2 d_avg - d_out; serves as the independent cross-check the
    synthesizer gates its candidates on.
    """
    d_avg = g.avg_diameter
    d_out = math.sqrt(g.area)
    d_in = 2.0 * d_avg - d_out
    if d_in <= 0.0:
        raise ValueError("winding fills past the center; Wheeler estimate invalid")
    rho = (d_out - d_in) / (d_out + d_in)
    return g.shape.k1 * MU_0 * g.n * g.n * d_avg / (1.0 + g.shape.k2 * rho)


@dataclass(frozen=True)
class FabConstraints:
    """Manufacturing limits the synthesizer must respect."""

    min_trace_width: float = 100e-6
    min_spacing: float = 100e-6
    max_area: float = DEFAULT_MAX_AREA

    def __post_init__(self):
        for name in ("min_trace_width", "min_spacing", "max_area"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")


@dataclass(frozen=True)
class NearMiss:
    """Best infeasible point seen during synthesis."""

    geometry: SpiralGeometry
    inductance: float
    rel_error: float


class RankedCandidates(Sequence):
    """The kept grid points of one synthesis, in rank order, as a read-only
    sequence of SpiralGeometry.  A geometry is built only when an index
    or slice reads it; slices give tuples."""

    def __init__(self, shape: ShapeCoefficients, n, r, dr, w):
        self._shape = shape
        self._fields = n, r, dr, w

    def __len__(self) -> int:
        return len(self._fields[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        n, r, dr, w = (a[index] for a in self._fields)
        return SpiralGeometry(self._shape, int(n), float(r), float(dr), float(w))

    def __eq__(self, other):
        if not isinstance(other, RankedCandidates):
            return NotImplemented
        return self._shape == other._shape and all(
            np.array_equal(a, b) for a, b in zip(self._fields, other._fields))

    def __repr__(self) -> str:
        return f"RankedCandidates({self._shape.name}, {len(self)} candidates)"


@dataclass(frozen=True)
class SynthesisResult:
    l_target: float
    # RankedCandidates when any point is kept, else ().
    candidates: Sequence[SpiralGeometry]
    nearest: NearMiss | None

    def __bool__(self) -> bool:
        return bool(self.candidates)


def _first_false(test, hi):
    """Per lane, the first index in [0, hi) at which ``test`` is false, or
    hi: a vectorised bisection, for tests true on a prefix of each lane.
    ``test(lanes, k)`` evaluates the lanes at their indices k."""
    lo = np.zeros_like(hi)
    hi = hi.copy()
    live = np.flatnonzero(hi > 0)
    while live.size:
        mid = (lo[live] + hi[live]) // 2
        ok = test(live, mid)
        lo[live[ok]] = mid[ok] + 1
        hi[live[~ok]] = mid[~ok]
        live = live[lo[live] < hi[live]]
    return lo


def _guess_edges(shape, targets, coef, w, ndr, counts):
    """Newton's estimate, per target and row, of the first index of the
    row's r run at which the current-sheet L reaches the target: a
    ``(len(targets), rows)`` float array, not clipped to [0, count] and NaN
    where the iteration breaks down.

    Along a row, with x = d_avg and K = w + n dr cos_factor,
    L = coef (x ln(c2 x / K) + c3 K + c4 K^2 / x), which rises with x and,
    for c4 >= 0, is convex; so NEWTON_STEPS steps from the row's top point
    approach each root from above.  A row whose first point already
    reaches a target gets 0 for it, one whose top point misses it its
    count; only the others iterate.
    """
    cosf = shape.cos_factor
    k = w + ndr * cosf
    c2_k, c3_k, c4_kk = shape.c2 / k, shape.c3 * k, shape.c4 * k * k
    goal = np.divide.outer(targets, coef)
    with np.errstate(all="ignore"):
        first, top = ((2.0 * R_STEP * m + ndr) * cosf for m in (1, counts))
        l_first, l_top = (x * np.log(c2_k * x) + c3_k + c4_kk / x for x in (first, top))
        guess = np.where(l_first >= goal, 0.0, counts.astype(float))
        edge, row = np.nonzero((l_first < goal) & (l_top >= goal))
        x, goal, c2_k, c3_k, c4_kk = top[row], goal[edge, row], c2_k[row], c3_k[row], c4_kk[row]
        for _ in range(NEWTON_STEPS):
            ln = np.log(c2_k * x)
            x = x - (x * ln + c3_k + c4_kk / x - goal) / (ln + 1.0 - c4_kk / (x * x))
        guess[edge, row] = np.ceil((x / cosf - ndr[row]) / (2.0 * R_STEP)) - 1.0
    return guess


def synthesize(l_target: float, fab: FabConstraints,
               shape: ShapeCoefficients) -> SynthesisResult:
    """Grid-search spiral layouts hitting ``l_target`` inside the area cap.

    The grid is exhaustive and deterministic: n in [1, N_MAX], w and dr
    in W_STEPS and DR_STEPS steps of TRACE_STEP from the fabrication
    minima, r stepped at R_STEP up to the largest radius the cap leaves
    for that (n, w, dr) row.  Candidates must sit within L_TOL of the
    target, fit the area cap and agree with the modified-Wheeler
    estimate within WHEELER_TOL (cross-model sanity gate).  Results are
    ranked by descending area: for the same inductance a larger coil
    couples better; ties go by (n, w, dr, r).  Without candidates the
    result carries the nearest miss: the first grid point, in
    (n, w, dr, r) order, with the smallest relative error outside L_TOL.

    Along every (n, w, dr) row L rises strictly with r (dL/dd_avg > 0
    wherever dr > w, which ShapeCoefficients enforces), and the area
    grows with r.  Each row's run is first trimmed to the points inside
    the cap; the rest is a run of points below the L_TOL window, the
    window itself, then points above it.  Newton's method on the closed
    form of L along the row guesses both window edges (_guess_edges),
    and only the window and its two neighbours, the row's smallest
    misses, are evaluated in full.  A guess is kept only where the exact
    window tests hold at the edges: true just before each edge, false
    at it; rows that fail are bisected and evaluated again.  Every
    quantity is the same float expression as for one SpiralGeometry
    (``inductance``, ``modified_wheeler``, ``area``), as the grid-scan
    oracle in the tests evaluates it, so the result equals a full scan
    of the grid whatever the guesses are.  The candidates are ranked in
    numpy and built on access.
    """
    # A subnormal target would overflow the relative error of every point.
    if not sys.float_info.min <= l_target < math.inf:
        raise ValueError(f"target inductance must be finite and >= {sys.float_info.min:g} H")
    cosf = shape.cos_factor
    edge_max = math.sqrt(fab.max_area)
    area_cap = fab.max_area * (1.0 + 1e-12)

    # (n, w, dr) rows in n-major, then w, then dr order: row i has
    # n = i // (W_STEPS * DR_STEPS) + 1, w = w_step[iw], dr = dr_step[iw, idr].
    n = np.arange(1, N_MAX + 1, dtype=float)
    # Huge fabrication minima overflow to inf here.  Such rows lie outside
    # the cap, and r_hi is clipped at 0, which changes no run (runs below
    # R_STEP are empty), so their counts stay integers.
    with np.errstate(over="ignore"):
        w_step = fab.min_trace_width + np.arange(W_STEPS) * TRACE_STEP
        dr_step = w_step[:, None] + fab.min_spacing + np.arange(DR_STEPS) * TRACE_STEP
        row_w = np.broadcast_to(w_step[:, None], (N_MAX, W_STEPS, DR_STEPS)).ravel()
        row_dr = np.broadcast_to(dr_step, (N_MAX, W_STEPS, DR_STEPS)).ravel()
        row_ndr = (n[:, None, None] * dr_step).ravel()
        # Each row's r run is np.arange(R_STEP, r_hi + R_STEP/2, R_STEP);
        # all runs are prefixes of the longest one.
        r_hi = np.maximum((edge_max - row_w) / (2.0 * cosf) - row_ndr, 0.0)
    counts = np.ceil((r_hi + 0.5 * R_STEP - R_STEP) / R_STEP).astype(np.intp)
    counts[r_hi < R_STEP] = 0
    r_run = np.arange(R_STEP, r_hi.max() + 0.5 * R_STEP, R_STEP)

    def edge_at(row, r):
        return row_w[row] + 2.0 * (r + row_ndr[row]) * cosf

    def fits(row, k):
        edge = edge_at(row, r_run[k])
        return edge * edge <= area_cap

    # The area test holds on a prefix of each run, which the count above
    # overshoots by at most its last point, unless rounding at extreme
    # sizes is coarser than R_STEP (such rows are bisected): trim each
    # count to that prefix.
    rows = np.flatnonzero(counts)
    last_fits = fits(rows, counts[rows] - 1)
    counts[rows[~last_fits]] -= 1
    odd = rows[~last_fits & (counts[rows] > 0)]
    odd = odd[~fits(odd, counts[odd] - 1)]
    counts[odd] = _first_false(lambda lane, k: fits(odd[lane], k), counts[odd])
    # From here on the table holds the non-empty rows only, in grid order.
    rows = np.flatnonzero(counts)
    row_n = n[rows // (W_STEPS * DR_STEPS)]
    row_w, row_dr, row_ndr, counts = (a[rows] for a in (row_w, row_dr, row_ndr, counts))
    row_coef = 0.5 * shape.c1 * MU_0 * row_n * row_n
    del r_hi, rows

    def evaluate(row, r):
        """Current-sheet L, edge and d_avg at the points, as SpiralGeometry
        and inductance evaluate them."""
        ndr = row_ndr[row]
        d_avg = (2.0 * r + ndr) * cosf
        edge = edge_at(row, r)
        phi = edge / d_avg - 1.0
        with np.errstate(invalid="ignore"):
            bracket = np.log(shape.c2 / phi) + shape.c3 * phi + shape.c4 * phi**2
        return row_coef[row] * d_avg * bracket, edge, d_avg

    def window_tests(l_val):
        """Per point: below the window; not above it.  Along a row each
        holds on a prefix of the run."""
        outside = np.abs(l_val - l_target) / l_target > L_TOL
        return outside & (l_val < l_target), ~(outside & (l_val > l_target))

    def window(first_not_below, first_above):
        """The window and its neighbours, in (row, r) order, with each
        row's offset: run index k of a row sits at position base + k."""
        lo = np.maximum(first_not_below - 1, 0)
        span = np.minimum(first_above + 1, counts) - lo
        base = np.cumsum(span) - span - lo
        row = np.repeat(np.arange(counts.size), span)
        return row, base, r_run[np.arange(span.sum()) - np.repeat(base, span)]

    guess = _guess_edges(shape, (l_target * (1.0 - L_TOL), l_target * (1.0 + L_TOL)),
                         row_coef, row_w, row_ndr, counts)
    proven = np.isfinite(guess).all(axis=0)
    first_not_below, first_above = np.where(proven, np.clip(guess, 0, counts), 0).astype(np.intp)
    first_not_below = np.minimum(first_not_below, first_above)
    row, base, r = window(first_not_below, first_above)
    l_val, edge, d_avg = evaluate(row, r)
    # An edge is proven where its test holds just before it and fails at it.
    for first, test in zip((first_not_below, first_above), window_tests(l_val)):
        proven &= (first == 0) | np.take(test, base + first - 1, mode="clip")
        proven &= (first == counts) | ~np.take(test, base + first, mode="clip")
    wrong = np.flatnonzero(~proven)
    if wrong.size:
        lanes = np.tile(wrong, 2)

        def in_run(lane, k):
            below, not_above = window_tests(evaluate(lanes[lane], r_run[k])[0])
            return np.where(lane < wrong.size, below, not_above)

        first_not_below[wrong], first_above[wrong] = np.split(
            _first_false(in_run, np.tile(counts[wrong], 2)), 2)
        row, base, r = window(first_not_below, first_above)
        l_val, edge, d_avg = evaluate(row, r)
    usable = l_val > 0.0
    rel = np.abs(l_val - l_target) / l_target
    within = rel <= L_TOL

    # Modified-Wheeler gate, as modified_wheeler evaluates it.
    hit = np.flatnonzero(usable & within)
    d_out = np.sqrt(edge[hit] * edge[hit])
    d_in = 2.0 * d_avg[hit] - d_out
    valid = d_in > 0.0
    hit, d_out, d_in = hit[valid], d_out[valid], d_in[valid]
    rho = (d_out - d_in) / (d_out + d_in)
    n_hit = row_n[row[hit]]
    l_mw = shape.k1 * MU_0 * n_hit * n_hit * d_avg[hit] / (1.0 + shape.k2 * rho)
    l_cs = l_val[hit]
    hit = hit[~(np.abs(l_cs - l_mw) / l_cs > WHEELER_TOL)]

    if hit.size:
        kept = row[hit]
        n_k, r_k, dr_k, w_k = row_n[kept], r[hit], row_dr[kept], row_w[kept]
        # Descending area, as SpiralGeometry.area evaluates it, then n, w, dr, r.
        order = np.lexsort((r_k, dr_k, w_k, n_k, -(edge[hit] * edge[hit])))
        return SynthesisResult(l_target, RankedCandidates(
            shape, n_k[order], r_k[order], dr_k[order], w_k[order]), None)
    miss = np.flatnonzero(usable & ~within)
    if miss.size:
        i = miss[np.argmin(rel[miss])]
        g = SpiralGeometry(shape, int(row_n[row[i]]), float(r[i]),
                           float(row_dr[row[i]]), float(row_w[row[i]]))
        return SynthesisResult(l_target, (), NearMiss(g, float(l_val[i]), float(rel[i])))
    # Area cap excludes even the smallest one-turn coil; report that
    # coil as the miss so the caller sees how far off the cap is.
    w_min = fab.min_trace_width
    g = SpiralGeometry(shape, 1, R_STEP, w_min + fab.min_spacing, w_min)
    try:
        l_min = inductance(g)
        nearest = NearMiss(g, l_min, abs(l_min - l_target) / l_target)
    except ValueError:
        nearest = None
    return SynthesisResult(l_target, (), nearest)


def trace_length(g: SpiralGeometry) -> float:
    """Total centre-line length of the winding (sum of turn perimeters)."""
    total = 0.0
    for i in range(g.n):
        radius = g.r + i * g.dr
        if g.shape.seg == CIRCULAR_SEG:
            total += 2.0 * math.pi * radius
        else:
            total += g.shape.seg * 2.0 * radius * math.sin(math.pi / g.shape.seg)
    return total


def skin_depth(f: float, resistivity: float = COPPER_RESISTIVITY) -> float:
    return math.sqrt(resistivity / (math.pi * check_frequency(f) * MU_0))


def ac_resistance(g: SpiralGeometry, f: float,
                  resistivity: float = COPPER_RESISTIVITY) -> float:
    """Series trace resistance at f with single-sided skin-effect crowding:
    R = rho l / (w t_eff), t_eff = delta (1 - exp(-t/delta))."""
    if f < 0:
        raise ValueError("frequency must be >= 0")
    length = trace_length(g)
    if f == 0.0:
        return resistivity * length / (g.w * g.t)
    delta = skin_depth(f, resistivity)
    t_eff = delta * (1.0 - math.exp(-g.t / delta))
    return resistivity * length / (g.w * t_eff)


def _equivalent_loop_radius(shape: ShapeCoefficients, circumradius: float) -> float:
    # Equal-area circular filament for one polygonal turn.
    if shape.seg == CIRCULAR_SEG:
        return circumradius
    seg = shape.seg
    return circumradius * math.sqrt(seg * math.sin(2.0 * math.pi / seg) / (2.0 * math.pi))


def _loop_mutual(a: float, b: float, d: float) -> float:
    """Neumann integral between coaxial circular filaments of radii a, b
    separated axially by d:

        M = (mu0 a b / 2) Int_0^2pi cos(psi) / sqrt(a^2+b^2+d^2-2ab cos psi) dpsi

    evaluated by the periodic trapezoid rule (spectrally accurate for
    the smooth separations this tool sees).
    """
    closeness = math.sqrt(a * b) / max(math.hypot(a - b, d), 1e-12)
    npts = int(min(max(256, 64 * math.ceil(closeness) * 8), 65536))
    cos_psi = _cos_grid(npts)
    integrand = cos_psi / np.sqrt(a * a + b * b + d * d - 2.0 * a * b * cos_psi)
    return float(0.5 * MU_0 * a * b * np.mean(integrand) * 2.0 * math.pi)


@functools.lru_cache(maxsize=16)
def _cos_grid(npts: int) -> np.ndarray:
    """cos(psi) on the ``npts``-point periodic trapezoid grid over [0, 2 pi),
    read-only: it depends on nothing else."""
    cos_psi = np.cos(np.linspace(0.0, 2.0 * math.pi, npts, endpoint=False))
    cos_psi.flags.writeable = False
    return cos_psi


def mutual_inductance(tx: SpiralGeometry, rx: SpiralGeometry, distance: float) -> float:
    """Mutual inductance of two coaxially aligned spirals by per-turn
    filament summation."""
    if not distance > 0:
        raise ValueError("distance must be > 0")
    total = 0.0
    for i in range(tx.n):
        a = _equivalent_loop_radius(tx.shape, tx.r + i * tx.dr)
        for j in range(rx.n):
            b = _equivalent_loop_radius(rx.shape, rx.r + j * rx.dr)
            total += _loop_mutual(a, b, distance)
    return total


def estimate_k(tx: SpiralGeometry, rx: SpiralGeometry, distance: float) -> float:
    """Coupling coefficient k = M / sqrt(L_tx L_rx), clamped to [0, 1)."""
    m = mutual_inductance(tx, rx, distance)
    k = m / math.sqrt(inductance(tx) * inductance(rx))
    return min(max(k, 0.0), 1.0 - 1e-12)


def candidate_record(g: SpiralGeometry, f0: float | None = None) -> dict:
    """Flat record of one candidate for export (lengths in metres)."""
    rec = {
        "shape": g.shape.name,
        "n": g.n,
        "r_m": g.r,
        "dr_m": g.dr,
        "w_m": g.w,
        "l_h": inductance(g),
        "area_m2": g.area,
    }
    if f0 is not None:
        rec["r_ac_ohm"] = ac_resistance(g, f0)
    return rec
