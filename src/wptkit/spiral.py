"""Planar spiral coil geometry: inductance, synthesis, parasitics.

Maps a target self-inductance to physical spiral layouts under an
implant area cap using the current-sheet approximation

    L = (C1 mu0 n^2 d_avg / 2) [ln(C2/phi) + C3 phi + C4 phi^2]

with the fill ratio phi = d_out/d_avg - 1, the average diameter
d_avg = (2r + n dr) cos(pi/seg), the outer diameter (footprint edge)
d_out = w + 2 (r + n dr) cos(pi/seg) and the footprint A = d_out^2.
Also estimates AC trace resistance (skin effect) and the coupling
coefficient of two coaxial spirals (Neumann integral, per-turn loops).
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .netcore import BuiltOnRead, check_frequency, quiet

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
    def d_out(self) -> float:
        return _edge(self.r, self.n * self.dr, self.w, self.shape.cos_factor)

    @property
    def area(self) -> float:
        d_out = self.d_out
        return d_out * d_out

    @property
    def fill_ratio(self) -> float:
        return self.d_out / self.avg_diameter - 1.0


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

    Uses the classic outer/inner diameters d_out and
    d_in = 2 d_avg - d_out; serves as the independent cross-check the
    synthesizer gates its candidates on.
    """
    l_mw, d_in = _modified_wheeler(g.shape.k1 * MU_0, g.shape.k2, g.n, g.avg_diameter, g.d_out)
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


@quiet
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
    more such keys, in read-only arrays: each key's rows whose r run is not
    empty, in grid order, laid end to end (key j's rows are
    rows[starts[j]:starts[j + 1]]), the longest r run, of which each row's
    run is a prefix, and each row's closed-form L at its ends.  A run's
    last point may lie outside the area cap; _search drops it there."""

    rows: _Rows
    starts: tuple[int, ...]
    r_run: np.ndarray
    l_first: np.ndarray
    l_top: np.ndarray


@functools.lru_cache(maxsize=1)
@quiet
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

    # (key, n, w, dr) rows in key-major, then n, then w, then dr order:
    # row i = (j N_MAX + n - 1) WD + c, for WD = W_STEPS DR_STEPS, has key
    # j, n turns and key j's c-th (w, dr), w[j, c] and dr[j, c].
    wd_size = W_STEPS * DR_STEPS
    n = np.arange(1, N_MAX + 1, dtype=float)
    # Huge fabrication minima overflow to inf here; such rows get r_hi =
    # -inf and are empty.
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
    # the longest one.  The points up to r_hi fit the area cap (its 1e-12
    # slack exceeds the rounding of r_hi and of the edge), so only a run's
    # last point can lie outside it.
    rows = (r_hi >= R_STEP).nonzero()[0]
    r_hi = r_hi.take(rows)
    counts = np.ceil((r_hi + 0.5 * R_STEP - R_STEP) / R_STEP).astype(np.intp)
    r_run = np.arange(R_STEP, np.maximum.reduce(r_hi, initial=0.0) + 0.5 * R_STEP, R_STEP)
    starts = rows.searchsorted(np.arange(len(keys) + 1) * (N_MAX * wd_size))
    sizes = starts[1:] - starts[:-1]
    q = rows // wd_size  # j N_MAX + n - 1
    wd = rows - (q - np.arange(len(keys)).repeat(sizes)) * wd_size
    row_n, row_ndr = n.take(q % N_MAX), ndr.take(rows)
    row_w, row_dr = w.ravel().take(wd), dr.ravel().take(wd)
    row_cosf = cosf.repeat(sizes)
    coef = shape_coefs[0].repeat(sizes) * row_n * row_n
    row_k = row_w + row_ndr * row_cosf
    c2, c3, c4 = shape_coefs[1:4].repeat(sizes, axis=1)
    c2_k, c3_k, c4_kk = c2 / row_k, c3 * row_k, c4 * row_k * row_k
    x_first, x_top = (_d_avg(R_STEP * m, row_ndr, row_cosf) for m in (1, counts))
    form_first, form_top = (x * np.log(c2_k * x) + c3_k + c4_kk / x for x in (x_first, x_top))
    slope = (x_top - x_first) / (form_top - form_first)
    grid = _Grid(_Rows(row_n, row_w, row_dr, row_ndr, coef, c2_k, c3_k, c4_kk, x_first,
                       form_first, form_top, slope, counts), tuple(starts.tolist()), r_run,
                 coef * form_first, coef * form_top)
    for a in (*grid.rows, *grid[2:]):
        a.flags.writeable = False
    return grid


@quiet
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
    grid (_grid).  Along every row L rises strictly with r
    (ShapeCoefficients keeps dL/dd_avg > 0 wherever dr > w), so its
    closed-form values at the row's ends bound it: the search (_search)
    runs on the rows whose bounds, widened by PRUNE_MARGIN, reach the
    L_TOL window, and on every row, for the nearest miss, only when none
    of them holds a candidate.  It drops a run's last point where that
    lies outside the cap, and each test decides with the bits of
    ``inductance`` and ``modified_wheeler``.
    """
    return synthesize_all(((l_target, fab, shape),))[0]


@quiet
def _search(requests: list, grid: _Grid, picks: list[np.ndarray]) -> list[SynthesisResult]:
    """Per request, the candidates among the rows of ``grid`` that its entry
    of ``picks`` indexes, or else their nearest miss, if any.

    The requests' rows are laid end to end, request j's from starts[j],
    and each row carries its request's cos factor, c2, c3, c4, target,
    spread (see evaluate), k1 mu0, k2 and area cap in coefs, a (9, rows)
    array.  A row's run ends at its last point inside the cap: where
    _grid's run ends one point past it, that point is dropped first.

    Along each row the run is a stretch of points below the L_TOL window,
    the window itself, then points above it.  Newton's method on the
    closed form of L along the row guesses both window edges
    (_guess_edges), and only the window and its two neighbours, the
    row's smallest misses, are evaluated in full.  A guess is kept only
    where the exact window tests hold at the edges: true just before each
    edge, false at it; rows that fail are bisected and evaluated again.
    So the result equals a full scan of the rows whatever the guesses are.
    Every test, and the choice of the nearest miss, decides with the bits
    of SpiralGeometry, ``inductance`` and ``modified_wheeler`` (see
    evaluate).  The candidates are ranked in numpy and built on access.
    """
    sizes = [pick.size for pick in picks]
    starts = np.cumsum([0, *sizes])
    coefs = np.array([(shape.cos_factor, shape.c2, shape.c3, shape.c4, l_target,
                       3.0 * abs(shape.c3) + 9.0 * abs(shape.c4), shape.k1 * MU_0, shape.k2,
                       fab.max_area * (1.0 + 1e-12)) for l_target, fab, shape in requests]
                     ).T.repeat(sizes, axis=1)
    picked = np.concatenate(picks)
    rows, r_run = _Rows(*(a.take(picked) for a in grid.rows)), grid.r_run
    row_n, row_w, row_dr, row_ndr, row_coef = rows[:5]
    last = _edge(r_run.take(rows.counts - 1), row_ndr, row_w, coefs[0])
    counts = rows.counts - ~(last * last <= coefs[8])
    rows = rows._replace(counts=counts)

    def evaluate(row, r, libm=False):
        """Current-sheet L, its relative error, edge and d_avg at the
        points, as SpiralGeometry and inductance evaluate them, each point's
        target, and doubt, a bound on how far numpy's log can move L from
        inductance's.  L takes numpy's log, and libm's, as inductance does,
        where a test of L is in doubt, or everywhere with ``libm``."""
        ndr = row_ndr.take(row)
        cosf, c2, c3, c4, target, spread = coefs[:6].take(row, axis=1)
        d_avg = _d_avg(r, ndr, cosf)
        edge = _edge(r, ndr, row_w.take(row), cosf)
        phi = edge / d_avg - 1.0
        coef, ratio = row_coef.take(row), c2 / phi
        log = np.log(ratio)
        l_val = _current_sheet(coef, d_avg, log, phi, c3, c4)
        # numpy's log and libm's are each within an ulp of the true value,
        # so they differ by two ulps at most, which moves L by under 2e-15
        # coef d_avg (|log| + |c3 phi| + |c4 phi^2|); spread bounds the
        # last two terms (phi <= 1 + 1/cos_factor <= 3), and doubt is 500
        # times that.  Where L's sign or its L_TOL window test lies within
        # doubt of deciding the other way, L takes libm's log.
        doubt = 1e-12 * coef * d_avg * (np.abs(log) + spread)
        rel = np.abs(l_val - target) / target
        near = ((np.abs(l_val) < doubt) | libm
                | (np.abs(rel - L_TOL) < doubt / target)).nonzero()[0]
        if near.size:
            log = np.array([math.log(x) for x in ratio.take(near).tolist()])
            l_val[near] = l_near = _current_sheet(coef.take(near), d_avg.take(near), log,
                                                  phi.take(near), c3.take(near), c4.take(near))
            target_near = target.take(near)
            rel[near] = np.abs(l_near - target_near) / target_near
        return l_val, rel, edge, d_avg, target, doubt

    def window_tests(l_val, rel, target):
        """Per point: below the window; not above it.  Along a row each
        holds on a prefix of the run."""
        outside = rel > L_TOL
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
    l_val, rel, edge, d_avg, target, doubt = evaluate(row, r)
    # An edge is proven where its test holds just before it and fails at it.
    for first, test in zip((first_not_below, first_above), window_tests(l_val, rel, target)):
        proven &= (first == 0) | test.take(base + first - 1, mode="clip")
        proven &= (first == counts) | ~test.take(base + first, mode="clip")
    wrong = (~proven).nonzero()[0]
    if wrong.size:
        lanes = np.concatenate((wrong, wrong))

        def in_run(lane, k):
            l_lane, rel_lane, _, _, target_lane, _ = evaluate(lanes[lane], r_run[k])
            below, not_above = window_tests(l_lane, rel_lane, target_lane)
            return np.where(lane < wrong.size, below, not_above)

        first_not_below[wrong], first_above[wrong] = _first_false(
            in_run, counts.take(lanes)).reshape(2, wrong.size)
        row, base, r = window(first_not_below, first_above)
        l_val, rel, edge, d_avg, target, doubt = evaluate(row, r)
    usable = l_val > 0.0
    within = rel <= L_TOL

    # Modified-Wheeler gate, as modified_wheeler evaluates it, on L by
    # libm's log where the gate is in doubt.
    hit = (usable & within).nonzero()[0]
    row_hit = row.take(hit)
    l_mw, d_in = _modified_wheeler(*coefs[6:8].take(row_hit, axis=1), row_n.take(row_hit),
                                   d_avg.take(hit), edge.take(hit))
    l_cs = l_val.take(hit)
    near = (np.abs(np.abs(l_cs - l_mw) - WHEELER_TOL * l_cs) < doubt.take(hit)).nonzero()[0]
    if near.size:
        l_cs[near] = evaluate(row_hit.take(near), r.take(hit.take(near)), libm=True)[0]
    hit = hit[(d_in > 0.0) & ~(np.abs(l_cs - l_mw) / l_cs > WHEELER_TOL)]
    miss = (usable & ~within).nonzero()[0]

    def near_miss(l_target, shape, i):
        g = _geometry(shape, row_n[row[i]], r[i], row_dr[row[i]], row_w[row[i]])
        l_g = inductance(g)
        return NearMiss(g, l_g, abs(l_g - l_target) / l_target)

    # Each request's points are one stretch, from its first row's on.
    ends = row.searchsorted(starts)
    hit_ends, miss_ends = hit.searchsorted(ends).tolist(), miss.searchsorted(ends).tolist()
    results = []
    for j, (l_target, _, shape) in enumerate(requests):
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
            # The first of the misses whose error by inductance is the least:
            # only those whose error, give or take doubt and its rounding,
            # may be the least can be.
            rel_miss = rel.take(misses)
            slack = doubt.take(misses) / l_target + 1e-15 * rel_miss
            close = misses[rel_miss - slack <= (rel_miss + slack).min()]
            results.append(SynthesisResult((), min(
                (near_miss(l_target, shape, i) for i in close), key=lambda m: m.rel_error)))
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
    t_eff = TRACE_THICKNESS
    if f != 0.0:
        delta = skin_depth(f)
        x = TRACE_THICKNESS / delta
        t_eff = delta * (1.0 - math.exp(-x)) if x >= 1e-3 else -delta * math.expm1(-x)
    section = g.w * t_eff
    if section == 0.0:
        raise ValueError(f"trace cross-section w t_eff underflows to 0 at width w = {g.w!r} m")
    return COPPER_RESISTIVITY * trace_length(g) / section


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


def _pair_terms(a: np.ndarray, b: np.ndarray, d: float, npts: int) -> np.ndarray:
    """Neumann integral between coaxial circular filaments of radii a, b
    separated axially by d, per pair of the arrays a, b:

        M = (mu0 a b / 2) Int_0^2pi cos(psi) / sqrt(a^2+b^2+d^2-2ab cos psi) dpsi

    evaluated by the ``npts``-point periodic trapezoid rule (spectrally
    accurate for the smooth separations this tool sees), one row of a
    (pairs, npts) block per pair."""
    cos_psi = np.cos(np.linspace(0.0, 2.0 * math.pi, npts, endpoint=False))
    # One (pairs, npts) buffer, updated in place.
    block = np.multiply((2.0 * a * b)[:, None], cos_psi)
    np.subtract((a * a + b * b + d * d)[:, None], block, out=block)
    np.divide(cos_psi, np.sqrt(block, out=block), out=block)
    return 0.5 * MU_0 * a * b * np.mean(block, axis=1) * 2.0 * math.pi


@quiet
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
    """Coupling coefficient k = M / sqrt(L_tx L_rx).  ValueError when M is
    not finite (filaments of the two coils meet) or k is outside (0, 1)
    (the filament model does not hold at that distance)."""
    m = mutual_inductance(tx, rx, distance)
    if not math.isfinite(m):
        raise ValueError(f"mutual inductance is {m!r}: filaments of the two coils meet")
    k = m / math.sqrt(inductance(tx) * inductance(rx))
    if not 0.0 < k < 1.0:
        raise ValueError(f"estimated k = {k!r} is outside (0, 1)")
    return k


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
