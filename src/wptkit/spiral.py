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
from typing import NamedTuple

import numpy as np

from .netcore import BuiltOnRead, check_frequency

MU_0 = 4e-7 * math.pi          # H/m
COPPER_RESISTIVITY = 1.68e-8   # ohm*m
TRACE_THICKNESS = 35e-6        # m, 1 oz copper
DEFAULT_MAX_AREA = (18e-3) ** 2  # m^2, an 18 mm x 18 mm footprint

# Synthesis grid and acceptance tolerances (see synthesize).
N_MAX = 40
W_STEPS = 12
DR_STEPS = 12
TRACE_STEP = 50e-6   # m
R_STEP = 100e-6      # m
L_TOL = 0.01
WHEELER_TOL = 0.05
NEWTON_STEPS = 3  # per window edge, see _guess_edges
# Relative widening of each row's closed-form L bounds before synthesis
# drops the rows whose bounds miss the L_TOL window: far above the
# rounding that separates the closed form from the evaluated L (under
# 5e-15 for the tabulated shapes, fab minima of 50-500 um and caps from
# 1 mm^2 to 1e-2 m^2).
PRUNE_MARGIN = 1e-6
# Integrand points per block of the coupling sum (mutual_inductance): a
# 512 KiB float64 block, which holds one pair at the largest quadrature.
NEUMANN_BLOCK = 65536

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
    r, per-turn radius increment dr and trace width w; every trace is
    TRACE_THICKNESS thick."""

    shape: ShapeCoefficients
    n: int
    r: float
    dr: float
    w: float

    def __post_init__(self):
        if self.n < 1 or self.n != int(self.n):
            raise ValueError(f"turn count must be a positive integer, got {self.n}")
        if not self.w > 0:
            raise ValueError("trace width must be > 0")
        if self.dr < self.w:
            raise ValueError(f"radius increment {self.dr} overlaps trace width {self.w}")
        if not self.r > 0:
            raise ValueError("initial radius must be > 0")

    @property
    def avg_diameter(self) -> float:
        return _d_avg(self.r, self.n * self.dr, self.shape.cos_factor)

    @property
    def area(self) -> float:
        edge = _edge(self.r, self.n * self.dr, self.w, self.shape.cos_factor)
        return edge * edge

    @property
    def fill_ratio(self) -> float:
        return math.sqrt(self.area) / self.avg_diameter - 1.0


# Closed forms of one SpiralGeometry (floats) or synthesis points (arrays).
def _d_avg(r, ndr, cos_factor):
    return (2.0 * r + ndr) * cos_factor


def _edge(r, ndr, w, cos_factor):
    return w + 2.0 * (r + ndr) * cos_factor


def _current_sheet(coef, d_avg, log, phi, c3, c4):
    """coef d_avg (log + c3 phi + c4 phi^2), coef = C1 mu0 n^2 / 2 and log = ln(C2/phi)."""
    return coef * d_avg * (log + c3 * phi + c4 * phi * phi)


def _modified_wheeler(k1_mu0, k2, n, d_avg, d_out):
    """Modified-Wheeler L and d_in = 2 d_avg - d_out; L holds where d_in > 0."""
    d_in = 2.0 * d_avg - d_out
    rho = (d_out - d_in) / (d_out + d_in)
    return k1_mu0 * n * n * d_avg / (1.0 + k2 * rho), d_in


def inductance(g: SpiralGeometry) -> float:
    """Current-sheet self-inductance of the spiral (mu_r = 1: tissue and
    polyimide are non-magnetic)."""
    phi = g.fill_ratio
    if not phi > 0.0:
        raise ValueError(f"fill ratio must be > 0, got {phi}")
    c = g.shape
    return _current_sheet(0.5 * c.c1 * MU_0 * g.n * g.n, g.avg_diameter,
                          math.log(c.c2 / phi), phi, c.c3, c.c4)


def modified_wheeler(g: SpiralGeometry) -> float:
    """Modified-Wheeler inductance estimate for the same layout.

    Uses the classic outer/inner diameters d_out = sqrt(A) and
    d_in = 2 d_avg - d_out; serves as the independent cross-check the
    synthesizer gates its candidates on.
    """
    l_mw, d_in = _modified_wheeler(g.shape.k1 * MU_0, g.shape.k2, g.n, g.avg_diameter,
                                   math.sqrt(g.area))
    if d_in <= 0.0:
        raise ValueError("winding fills past the center; Wheeler estimate invalid")
    return l_mw


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


class RankedCandidates(BuiltOnRead):
    """The kept grid points of one synthesis, in rank order, as a read-only
    sequence of SpiralGeometry.  A geometry is built only when an index
    or slice reads it; slices give tuples."""

    def __init__(self, shape: ShapeCoefficients, n, r, dr, w):
        super().__init__(functools.partial(_geometry, shape), n, r, dr, w)
        self._shape = shape

    def __eq__(self, other):
        if not isinstance(other, RankedCandidates):
            return NotImplemented
        return self._shape == other._shape and all(
            np.array_equal(a, b) for a, b in zip(self._fields, other._fields))

    def __repr__(self) -> str:
        return f"RankedCandidates({self._shape.name}, {len(self)} candidates)"


def _geometry(shape: ShapeCoefficients, n, r, dr, w) -> SpiralGeometry:
    return SpiralGeometry(shape, int(n), float(r), float(dr), float(w))


@dataclass(frozen=True)
class SynthesisResult:
    # RankedCandidates when any point is kept, else ().
    candidates: Sequence[SpiralGeometry]
    nearest: NearMiss | None

    def __bool__(self) -> bool:
        return bool(self.candidates)


def _first_false(test, hi):
    """Per lane, the first index in [0, hi) at which ``test`` is false, or
    hi: a vectorised bisection, for tests true on a prefix of each lane.
    ``test(lanes, k)`` evaluates the lanes at their indices k."""
    lo = np.zeros(hi.size, hi.dtype)
    hi = hi.copy()
    live = (hi > 0).nonzero()[0]
    while live.size:
        mid = (lo[live] + hi[live]) // 2
        ok = test(live, mid)
        lo[live[ok]] = mid[ok] + 1
        hi[live[~ok]] = mid[~ok]
        live = live[lo[live] < hi[live]]
    return lo


class _Rows(NamedTuple):
    """Per-row arrays of a synthesis grid, one entry per (n, w, dr) row.

    Row i has n[i] turns, width w[i], increment dr[i], ndr[i] = n dr and
    the current-sheet factor coef[i] = C1 mu0 n^2 / 2, and its r run is
    the first counts[i] points of the grid's.  Along the row, with
    x = d_avg and k = w + n dr cos_factor, the closed form of L is
    coef (x ln(c2_k x) + c3_k + c4_kk / x), where c2_k = c2 / k, c3_k = c3 k
    and c4_kk = c4 k^2; x_first is x at the row's first point, form_first
    and form_top are the bracketed factor at its first and top points,
    and slope is the inverse slope of the chord between them, dx / d(form).
    """

    n: np.ndarray
    w: np.ndarray
    dr: np.ndarray
    ndr: np.ndarray
    coef: np.ndarray
    c2_k: np.ndarray
    c3_k: np.ndarray
    c4_kk: np.ndarray
    x_first: np.ndarray
    form_first: np.ndarray
    form_top: np.ndarray
    slope: np.ndarray
    counts: np.ndarray


def _guess_edges(coefs: np.ndarray, rows: _Rows):
    """Newton's estimate, per window edge and row, of the first index of
    the row's r run at which the current-sheet L reaches that edge of its
    request's L_TOL window: a ``(2, rows)`` float array, not clipped to
    [0, count] and NaN where the iteration breaks down.  ``coefs`` holds
    each row's request values (see _search).

    Along a row L rises with x = d_avg and, for c4 >= 0, is convex (see
    _Rows for its closed form): the chord between the row's first and
    top points reaches each edge at or before its root, Newton's first
    step from there lands above the root, and the next approach it from
    above; NEWTON_STEPS steps in all.  A row whose first point already
    reaches an edge gets 0 for it, one whose top point misses it its
    count; the iteration runs on every (edge, row) pair and only the
    others take its result.
    """
    goal = np.multiply.outer((1.0 - L_TOL, 1.0 + L_TOL), coefs[4]) / rows.coef
    with np.errstate(all="ignore"):
        x = rows.x_first + (goal - rows.form_first) * rows.slope
        c2_k, c3_k, c4_kk = rows.c2_k, rows.c3_k, rows.c4_kk
        for _ in range(NEWTON_STEPS):
            ln = np.log(c2_k * x)
            x = x - (x * ln + c3_k + c4_kk / x - goal) / (ln + 1.0 - c4_kk / (x * x))
        guess = np.ceil((x / coefs[0] - rows.ndr) / (2.0 * R_STEP)) - 1.0
    bracketed = (rows.form_first < goal) & (rows.form_top >= goal)
    return np.where(rows.form_first >= goal, 0.0, np.where(bracketed, guess, rows.counts))


class _Grid(NamedTuple):
    """The part of synthesis that depends only on (fab, shape), for one or
    more such keys, in read-only arrays: each key's rows whose r run holds
    a point inside its area cap, in grid order, laid end to end (key j's
    rows are rows[starts[j]:starts[j + 1]]), the longest r run, of which
    each row's run is a prefix, and each row's closed-form L at its ends."""

    rows: _Rows
    starts: tuple[int, ...]
    r_run: np.ndarray
    l_first: np.ndarray
    l_top: np.ndarray


@functools.lru_cache(maxsize=1)
def _grid(keys: tuple[tuple[FabConstraints, ShapeCoefficients], ...]) -> _Grid:
    """The grids of synthesize for the distinct (fab, shape) ``keys``, built
    in one pass over all their rows.  A design asks for its two coil
    sides' keys at once and the second pass of a k estimate asks again,
    so the cache holds the last call's grids."""
    fabs = [fab for fab, _ in keys]
    # Per key: C1 mu0 / 2, c2, c3, c4 and the cos factor.
    shape_coefs = np.array([(0.5 * shape.c1 * MU_0, shape.c2, shape.c3, shape.c4,
                             shape.cos_factor) for _, shape in keys]).T
    cosf = shape_coefs[4]
    edge_max = np.array([math.sqrt(fab.max_area) for fab in fabs])
    area_cap = np.array([fab.max_area * (1.0 + 1e-12) for fab in fabs])

    # (key, n, w, dr) rows in key-major, then n, then w, then dr order:
    # row i = (j N_MAX + n - 1) WD + c, for WD = W_STEPS DR_STEPS, has key
    # j, n turns and key j's c-th (w, dr), w[j, c] and dr[j, c].
    wd_size = W_STEPS * DR_STEPS
    n = np.arange(1, N_MAX + 1, dtype=float)
    # Huge fabrication minima overflow to inf here; such rows get r_hi =
    # -inf and are empty.
    with np.errstate(over="ignore"):
        w_step = (np.array([fab.min_trace_width for fab in fabs])[:, None]
                  + np.arange(W_STEPS) * TRACE_STEP)
        dr = (w_step[:, :, None] + np.array([fab.min_spacing for fab in fabs])[:, None, None]
              + np.arange(DR_STEPS) * TRACE_STEP).reshape(len(keys), wd_size)
        w = w_step.repeat(DR_STEPS, axis=1)
        ndr = (n[:, None] * dr[:, None]).ravel()
        r_hi = (((edge_max[:, None] - w) / (2.0 * cosf)[:, None])[:, None]
                - ndr.reshape(len(keys), N_MAX, wd_size)).ravel()
    # From here on the arrays hold the non-empty rows only; wd indexes the
    # row's (w, dr) in w and dr.  Each row's r run is np.arange(R_STEP,
    # r_hi + R_STEP/2, R_STEP), and np.arange computes element i as
    # R_STEP + i R_STEP whatever its length, so all runs are prefixes of
    # the longest one.
    rows = (r_hi >= R_STEP).nonzero()[0]
    r_hi = r_hi.take(rows)
    counts = np.ceil((r_hi + 0.5 * R_STEP - R_STEP) / R_STEP).astype(np.intp)
    r_run = np.arange(R_STEP, np.maximum.reduce(r_hi, initial=0.0) + 0.5 * R_STEP, R_STEP)
    starts = rows.searchsorted(np.arange(len(keys) + 1) * (N_MAX * wd_size))
    sizes = starts[1:] - starts[:-1]
    q = rows // wd_size  # j N_MAX + n - 1
    wd = rows - (q - np.arange(len(keys)).repeat(sizes)) * wd_size
    row_ndr, row_w = ndr.take(rows), w.ravel().take(wd)
    row_cosf, row_cap = cosf.repeat(sizes), area_cap.repeat(sizes)

    def fits(row, k):
        edge = _edge(r_run.take(k), row_ndr[row], row_w[row], row_cosf[row])
        return edge * edge <= row_cap[row]

    # The area test holds on a prefix of each run, which the count above
    # overshoots by at most its last point, unless rounding at extreme
    # sizes is coarser than R_STEP (such rows are bisected): trim each
    # count to that prefix.
    overshot = ~fits(slice(None), counts - 1)
    counts -= overshot
    odd = (overshot & (counts > 0)).nonzero()[0]
    odd = odd[~fits(odd, counts.take(odd) - 1)]
    if odd.size:
        counts[odd] = _first_false(lambda lane, k: fits(odd[lane], k), counts[odd])
    live = counts.nonzero()[0]
    if live.size < counts.size:
        q, wd, counts, row_ndr, row_w, row_cosf = (
            a.take(live) for a in (q, wd, counts, row_ndr, row_w, row_cosf))
        starts = live.searchsorted(starts)
        sizes = starts[1:] - starts[:-1]
    # The work below holds every key's rows at once: free what only the
    # trim needed first, which keeps the peak memory of a design's call
    # near that of two one-key calls.
    del ndr, r_hi, rows, row_cap, overshot, odd, live
    row_n = np.concatenate([n] * len(keys)).take(q)
    row_dr = dr.ravel().take(wd)
    del q, wd
    coef = shape_coefs[0].repeat(sizes) * row_n * row_n
    row_k = row_w + row_ndr * row_cosf
    c2, c3, c4 = shape_coefs[1:4].repeat(sizes, axis=1)
    c2_k, c3_k, c4_kk = c2 / row_k, c3 * row_k, c4 * row_k * row_k
    x_first, x_top = (_d_avg(R_STEP * m, row_ndr, row_cosf) for m in (1, counts))
    with np.errstate(all="ignore"):
        form_first, form_top = (x * np.log(c2_k * x) + c3_k + c4_kk / x for x in (x_first, x_top))
        slope = (x_top - x_first) / (form_top - form_first)
    grid = _Grid(_Rows(row_n, row_w, row_dr, row_ndr, coef, c2_k, c3_k, c4_kk, x_first,
                       form_first, form_top, slope, counts), tuple(starts.tolist()), r_run,
                 coef * form_first, coef * form_top)
    for a in (*grid.rows, *grid[2:]):
        a.flags.writeable = False
    return grid


def synthesize_all(requests: Sequence[tuple[float, FabConstraints, ShapeCoefficients]]
                   ) -> list[SynthesisResult]:
    """synthesize for each ``(l_target, fab, shape)`` request, in one pass.

    The grids of all the requests' distinct (fab, shape) are built at
    once (_grid), and one search runs over every request's rows, each
    with its request's shape coefficients and target (_search).  Only the
    ranking, the nearest miss and the rerun on every row are made per
    request.  Each result equals what synthesize returns for it alone.
    """
    requests = list(requests)
    if not requests:
        return []
    # A subnormal target would overflow the relative error of every point.
    for l_target, _, _ in requests:
        if not sys.float_info.min <= l_target < math.inf:
            raise ValueError(f"target inductance must be finite and >= {sys.float_info.min:g} H")
    index: dict = {}  # (fab, shape) -> its place among the distinct keys
    key_of = [index.setdefault((fab, shape), len(index)) for _, fab, shape in requests]
    grid = _grid(tuple(index))
    spans = [range(grid.starts[j], grid.starts[j + 1]) for j in key_of]
    low = grid.l_first * (1.0 - PRUNE_MARGIN)
    high = grid.l_top * (1.0 + PRUNE_MARGIN)
    picks = []
    for (l_target, _, _), span in zip(requests, spans):
        lo, hi = span.start, span.stop
        reach = (~((high[lo:hi] < l_target * (1.0 - L_TOL))
                   | (low[lo:hi] > l_target * (1.0 + L_TOL)))).nonzero()[0]
        picks.append(reach + lo if 0 < reach.size < len(span) else np.arange(lo, hi))
    results = _search(requests, grid, picks)
    # Where the rows that reach the window hold no candidate, every row is
    # searched for the nearest miss.
    again = [j for j, (pick, span, result) in enumerate(zip(picks, spans, results))
             if not result and pick.size < len(span)]
    if again:
        rerun = _search([requests[j] for j in again], grid,
                        [np.arange(spans[j].start, spans[j].stop) for j in again])
        for j, result in zip(again, rerun):
            results[j] = result
    for j, (l_target, fab, shape) in enumerate(requests):
        if results[j] or results[j].nearest is not None:
            continue
        # Area cap excludes even the smallest one-turn coil; report that
        # coil as the miss so the caller sees how far off the cap is.
        w_min = fab.min_trace_width
        g = SpiralGeometry(shape, 1, R_STEP, w_min + fab.min_spacing, w_min)
        try:
            l_min = inductance(g)
        except ValueError:
            continue
        results[j] = SynthesisResult((), NearMiss(g, l_min, abs(l_min - l_target) / l_target))
    return results


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

    This is synthesize_all with one request, on the cached (fab, shape)
    grid of rows trimmed to the cap (_grid).  Along every row L rises
    strictly with r (ShapeCoefficients keeps dL/dd_avg > 0 wherever
    dr > w), so its closed-form values at the row's ends bound it: the
    search runs on the rows whose bounds, widened by PRUNE_MARGIN, reach
    the L_TOL window, and on every row, for the nearest miss, only when
    none of them holds a candidate.
    """
    return synthesize_all(((l_target, fab, shape),))[0]


def _search(requests: list, grid: _Grid, picks: list[np.ndarray]) -> list[SynthesisResult]:
    """Per request, the candidates among the rows of ``grid`` that its entry
    of ``picks`` indexes, or else their nearest miss, if any.

    The requests' rows are laid end to end, request j's from starts[j],
    and each row carries its request's cos factor, c2, c3, c4, target,
    k1 mu0 and k2 in coefs, a (7, rows) array.

    Along each row the run is a stretch of points below the L_TOL window,
    the window itself, then points above it.  Newton's method on the
    closed form of L along the row guesses both window edges
    (_guess_edges), and only the window and its two neighbours, the
    row's smallest misses, are evaluated in full.  A guess is kept only
    where the exact window tests hold at the edges: true just before each
    edge, false at it; rows that fail are bisected and evaluated again.
    So the result equals a full scan of the rows whatever the guesses are.
    The closed forms are those of SpiralGeometry, ``inductance`` and
    ``modified_wheeler``, but the L_TOL window takes numpy's log where
    ``inductance`` takes libm's: they differ on 351 of the 545,794 points
    the benchmark pool's 128 design specs evaluate.  The candidates are
    ranked in numpy and built on access.
    """
    sizes = [pick.size for pick in picks]
    starts = np.cumsum([0, *sizes])
    coefs = np.array([(shape.cos_factor, shape.c2, shape.c3, shape.c4, l_target,
                       shape.k1 * MU_0, shape.k2) for l_target, _, shape in requests]
                     ).T.repeat(sizes, axis=1)
    picked = np.concatenate(picks)
    rows, r_run = _Rows(*(a.take(picked) for a in grid.rows)), grid.r_run
    row_n, row_w, row_dr, row_ndr, row_coef = rows[:5]
    counts = rows.counts
    shape_coefs, targets = coefs[:4], coefs[4]

    def evaluate(row, r):
        """Current-sheet L, edge and d_avg at the points, as SpiralGeometry
        and inductance evaluate them, and each point's target."""
        ndr = row_ndr.take(row)
        cosf, c2, c3, c4 = shape_coefs.take(row, axis=1)
        d_avg = _d_avg(r, ndr, cosf)
        edge = _edge(r, ndr, row_w.take(row), cosf)
        phi = edge / d_avg - 1.0
        # np.log in inductance would move a benchmark pool design's S11 from -268.9 to
        # -283.4 dB; math.log here costs ~460 us per design spec, np.log ~5 us.
        with np.errstate(invalid="ignore"):
            log = np.log(c2 / phi)
        return (_current_sheet(row_coef.take(row), d_avg, log, phi, c3, c4), edge, d_avg,
                targets.take(row))

    def window_tests(l_val, target):
        """Per point: below the window; not above it.  Along a row each
        holds on a prefix of the run."""
        outside = np.abs(l_val - target) / target > L_TOL
        return outside & (l_val < target), ~(outside & (l_val > target))

    def window(first_not_below, first_above):
        """The window and its neighbours, in (row, r) order, with each
        row's offset: run index k of a row sits at position base + k."""
        lo = np.maximum(first_not_below - 1, 0)
        span = np.minimum(first_above + 1, counts) - lo
        base = span.cumsum() - span - lo
        row = np.arange(counts.size).repeat(span)
        return row, base, r_run.take(np.arange(row.size) - base.repeat(span))

    guess = _guess_edges(coefs, rows)
    proven = np.logical_and.reduce(np.isfinite(guess))
    first_not_below, first_above = np.where(
        proven, np.minimum(np.maximum(guess, 0.0), counts), 0).astype(np.intp)
    first_not_below = np.minimum(first_not_below, first_above)
    row, base, r = window(first_not_below, first_above)
    l_val, edge, d_avg, target = evaluate(row, r)
    # An edge is proven where its test holds just before it and fails at it.
    for first, test in zip((first_not_below, first_above), window_tests(l_val, target)):
        proven &= (first == 0) | test.take(base + first - 1, mode="clip")
        proven &= (first == counts) | ~test.take(base + first, mode="clip")
    wrong = (~proven).nonzero()[0]
    if wrong.size:
        lanes = np.concatenate((wrong, wrong))

        def in_run(lane, k):
            l_lane, _, _, target_lane = evaluate(lanes[lane], r_run[k])
            below, not_above = window_tests(l_lane, target_lane)
            return np.where(lane < wrong.size, below, not_above)

        first_not_below[wrong], first_above[wrong] = _first_false(
            in_run, counts.take(lanes)).reshape(2, wrong.size)
        row, base, r = window(first_not_below, first_above)
        l_val, edge, d_avg, target = evaluate(row, r)
    usable = l_val > 0.0
    rel = np.abs(l_val - target) / target
    within = rel <= L_TOL

    # Modified-Wheeler gate, as modified_wheeler evaluates it.
    hit = (usable & within).nonzero()[0]
    edge_hit, row_hit = edge.take(hit), row.take(hit)
    l_mw, d_in = _modified_wheeler(*coefs[5:].take(row_hit, axis=1), row_n.take(row_hit),
                                   d_avg.take(hit), np.sqrt(edge_hit * edge_hit))
    l_cs = l_val.take(hit)
    hit = hit[(d_in > 0.0) & ~(np.abs(l_cs - l_mw) / l_cs > WHEELER_TOL)]

    # Each request's points are one stretch, from its first row's on.
    ends = row.searchsorted(starts)
    miss = (usable & ~within).nonzero()[0]
    hit_ends, miss_ends = hit.searchsorted(ends).tolist(), miss.searchsorted(ends).tolist()
    results = []
    for j, (_, _, shape) in enumerate(requests):
        hits = hit[hit_ends[j]:hit_ends[j + 1]]
        misses = miss[miss_ends[j]:miss_ends[j + 1]]
        if hits.size:
            # Descending area, as SpiralGeometry.area evaluates it, then n, w, dr,
            # r: a stable sort keeps the points' (row, r) order, rows in grid order.
            edge_hit = edge.take(hits)
            hits = hits.take((-(edge_hit * edge_hit)).argsort(kind="stable"))
            kept = row.take(hits)
            results.append(SynthesisResult(RankedCandidates(
                shape, row_n.take(kept), r.take(hits), row_dr.take(kept), row_w.take(kept)), None))
        elif misses.size:
            i = misses[rel.take(misses).argmin()]
            g = _geometry(shape, row_n[row[i]], r[i], row_dr[row[i]], row_w[row[i]])
            results.append(SynthesisResult((), NearMiss(g, float(l_val[i]), float(rel[i]))))
        else:
            results.append(SynthesisResult((), None))
    return results


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


def skin_depth(f: float) -> float:
    return math.sqrt(COPPER_RESISTIVITY / (math.pi * check_frequency(f) * MU_0))


def ac_resistance(g: SpiralGeometry, f: float) -> float:
    """Series trace resistance at f with single-sided skin-effect crowding:
    R = rho l / (w t_eff), t_eff = delta (1 - exp(-t/delta)) with
    t = TRACE_THICKNESS; f = 0 is DC.
    Below t/delta = 1e-3, where 1 - exp rounds away, t_eff = -delta expm1(-t/delta)."""
    length = trace_length(g)
    if f == 0.0:
        return COPPER_RESISTIVITY * length / (g.w * TRACE_THICKNESS)
    delta = skin_depth(f)
    x = TRACE_THICKNESS / delta
    t_eff = delta * (1.0 - math.exp(-x)) if x >= 1e-3 else -delta * math.expm1(-x)
    return COPPER_RESISTIVITY * length / (g.w * t_eff)


def _equivalent_loop_radius(shape: ShapeCoefficients, circumradius: float) -> float:
    # Equal-area circular filament for one polygonal turn.
    if shape.seg == CIRCULAR_SEG:
        return circumradius
    seg = shape.seg
    return circumradius * math.sqrt(seg * math.sin(2.0 * math.pi / seg) / (2.0 * math.pi))


def _quadrature_size(a: float, b: float, d: float) -> int:
    """Trapezoid points for the Neumann integral of two loops: more the
    closer the filaments come, relative to their size."""
    closeness = math.sqrt(a * b) / max(math.hypot(a - b, d), 1e-12)
    return int(min(max(256, 64 * math.ceil(closeness) * 8), 65536))


@functools.lru_cache(maxsize=16)
def _cos_grid(npts: int) -> np.ndarray:
    """cos(psi) on the ``npts``-point periodic trapezoid grid over [0, 2 pi),
    read-only: it depends on nothing else."""
    cos_psi = np.cos(np.linspace(0.0, 2.0 * math.pi, npts, endpoint=False))
    cos_psi.flags.writeable = False
    return cos_psi


def _pair_terms(a: np.ndarray, b: np.ndarray, d: float, npts: int) -> np.ndarray:
    """Neumann integral between coaxial circular filaments of radii a, b
    separated axially by d, per pair of the arrays a, b:

        M = (mu0 a b / 2) Int_0^2pi cos(psi) / sqrt(a^2+b^2+d^2-2ab cos psi) dpsi

    evaluated by the ``npts``-point periodic trapezoid rule (spectrally
    accurate for the smooth separations this tool sees), one row of a
    (pairs, npts) block per pair."""
    cos_psi = _cos_grid(npts)
    # One (pairs, npts) buffer, updated in place.
    block = np.multiply((2.0 * a * b)[:, None], cos_psi)
    np.subtract((a * a + b * b + d * d)[:, None], block, out=block)
    np.divide(cos_psi, np.sqrt(block, out=block), out=block)
    return 0.5 * MU_0 * a * b * np.mean(block, axis=1) * 2.0 * math.pi


def mutual_inductance(tx: SpiralGeometry, rx: SpiralGeometry, distance: float) -> float:
    """Mutual inductance of two coaxially aligned spirals by per-turn
    filament summation.

    The turn pairs that share a quadrature size are evaluated together,
    in blocks of at most NEUMANN_BLOCK integrand points, and the pair
    terms are summed from 0 in (TX turn, RX turn) order."""
    if not distance > 0:
        raise ValueError("distance must be > 0")
    a = [_equivalent_loop_radius(tx.shape, tx.r + i * tx.dr) for i in range(tx.n)]
    b = [_equivalent_loop_radius(rx.shape, rx.r + j * rx.dr) for j in range(rx.n)]
    groups: dict[int, list[int]] = {}
    for pair, npts in enumerate(_quadrature_size(ai, bj, distance) for ai in a for bj in b):
        groups.setdefault(npts, []).append(pair)
    pair_a, pair_b = np.repeat(a, rx.n), np.tile(b, tx.n)
    terms = np.empty(pair_a.size)
    for npts, pairs in groups.items():
        step = NEUMANN_BLOCK // npts
        for start in range(0, len(pairs), step):
            block = pairs[start:start + step]
            terms[block] = _pair_terms(pair_a[block], pair_b[block], distance, npts)
    # One float addition at a time, as the per-pair loop summed them: from
    # Python 3.12 on, sum() of floats compensates and would differ.
    total = 0.0
    for term in terms.tolist():
        total += term
    return total


def estimate_k(tx: SpiralGeometry, rx: SpiralGeometry, distance: float) -> float:
    """Coupling coefficient k = M / sqrt(L_tx L_rx), clamped to [0, 1)."""
    m = mutual_inductance(tx, rx, distance)
    k = m / math.sqrt(inductance(tx) * inductance(rx))
    return min(max(k, 0.0), 1.0 - 1e-12)


def candidate_record(g: SpiralGeometry, f0: float) -> dict:
    """Flat record of one candidate for export (lengths in metres), with
    its AC resistance at f0."""
    return {
        "shape": g.shape.name,
        "n": g.n,
        "r_m": g.r,
        "dr_m": g.dr,
        "w_m": g.w,
        "l_h": inductance(g),
        "area_m2": g.area,
        "r_ac_ohm": ac_resistance(g, f0),
    }
