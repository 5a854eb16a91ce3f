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

import math
from dataclasses import dataclass

import numpy as np

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
# Grid points per array block in synthesize: bounds its working set.
SYNTH_BLOCK = 4096

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
        if not (self.c1 > 0 and self.c2 > 0):
            raise ValueError("C1 and C2 must be > 0")
        if self.seg != CIRCULAR_SEG and self.seg < 3:
            raise ValueError(f"polygon order must be >= 3, got {self.seg}")

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
    if phi <= 0.0:
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
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")


@dataclass(frozen=True)
class NearMiss:
    """Best infeasible point seen during synthesis."""

    geometry: SpiralGeometry
    inductance: float
    rel_error: float


@dataclass(frozen=True)
class SynthesisResult:
    l_target: float
    candidates: tuple[SpiralGeometry, ...]
    nearest: NearMiss | None

    def __bool__(self) -> bool:
        return bool(self.candidates)


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
    couples better.  Without candidates the result carries the nearest
    miss: the first grid point, in (n, w, dr, r) order, with the smallest
    relative error outside L_TOL.

    The (n, w, dr) rows form one table; their r runs, concatenated in
    row order, are evaluated as numpy arrays in blocks of SYNTH_BLOCK
    points, so the working memory does not grow with the grid.  Every
    quantity is the same float expression, evaluated in the same order,
    as for one SpiralGeometry (``inductance``, ``modified_wheeler``,
    ``area``), so the result does not depend on the block size.
    """
    if not l_target > 0:
        raise ValueError("target inductance must be > 0")
    cosf = shape.cos_factor
    edge_max = math.sqrt(fab.max_area)
    area_cap = fab.max_area * (1.0 + 1e-12)

    # (n, w, dr) rows in n-major, then w, then dr order: row i has
    # n = i // (W_STEPS * DR_STEPS) + 1, w = w_step[iw], dr = dr_step[iw, idr].
    n = np.arange(1, N_MAX + 1, dtype=float)
    w_step = fab.min_trace_width + np.arange(W_STEPS) * TRACE_STEP
    dr_step = w_step[:, None] + fab.min_spacing + np.arange(DR_STEPS) * TRACE_STEP
    row_w = np.broadcast_to(w_step[:, None], (N_MAX, W_STEPS, DR_STEPS)).ravel()
    row_ndr = (n[:, None, None] * dr_step).ravel()
    row_coef = np.repeat(0.5 * shape.c1 * MU_0 * n * n, W_STEPS * DR_STEPS)
    # Each row's r run is np.arange(R_STEP, r_hi + R_STEP/2, R_STEP); all
    # runs are prefixes of the longest one.
    r_hi = (edge_max - row_w) / (2.0 * cosf) - row_ndr
    counts = np.ceil((r_hi + 0.5 * R_STEP - R_STEP) / R_STEP).astype(np.intp)
    counts[r_hi < R_STEP] = 0
    ends = np.cumsum(counts)
    starts = ends - counts
    r_run = np.arange(R_STEP, r_hi.max() + 0.5 * R_STEP, R_STEP)
    del r_hi, counts

    def evaluate_block(lo: int, hi: int):
        """Kept rows and radii of points [lo, hi), and the first point
        with the smallest error among the misses as (row, r, L, error)."""
        first, last = np.searchsorted(ends, (lo, hi - 1), side="right")
        span = np.minimum(ends[first:last + 1], hi) - np.maximum(starts[first:last + 1], lo)
        row = np.repeat(np.arange(first, last + 1), span)
        r = r_run[np.arange(lo, hi) - starts[row]]
        ndr = row_ndr[row]
        # Current-sheet L, as SpiralGeometry and inductance evaluate it.
        # Arrays are dropped once used: the block's working set is what
        # synthesis adds to peak memory.
        d_avg = (2.0 * r + ndr) * cosf
        edge = row_w[row] + 2.0 * (r + ndr) * cosf
        del ndr
        phi = edge / d_avg - 1.0
        with np.errstate(invalid="ignore"):
            bracket = np.log(shape.c2 / phi) + shape.c3 * phi + shape.c4 * phi**2
        del phi
        l_val = row_coef[row] * d_avg * bracket
        del bracket
        usable = (edge * edge <= area_cap) & (l_val > 0.0)
        rel = np.abs(l_val - l_target) / l_target
        within = rel <= L_TOL

        # Modified-Wheeler gate, as modified_wheeler evaluates it.
        hit = np.flatnonzero(usable & within)
        d_out = np.sqrt(edge[hit] * edge[hit])
        d_in = 2.0 * d_avg[hit] - d_out
        valid = d_in > 0.0
        hit, d_out, d_in = hit[valid], d_out[valid], d_in[valid]
        rho = (d_out - d_in) / (d_out + d_in)
        n_hit = n[row[hit] // (W_STEPS * DR_STEPS)]
        l_mw = shape.k1 * MU_0 * n_hit * n_hit * d_avg[hit] / (1.0 + shape.k2 * rho)
        l_cs = l_val[hit]
        hit = hit[~(np.abs(l_cs - l_mw) / l_cs > WHEELER_TOL)]

        miss = np.flatnonzero(usable & ~within)
        if miss.size == 0:
            return row[hit], r[hit], None
        i = miss[np.argmin(rel[miss])]
        return row[hit], r[hit], (int(row[i]), float(r[i]), float(l_val[i]), float(rel[i]))

    kept_rows = [np.empty(0, np.intp)]
    kept_r = [np.empty(0)]
    nearest_at: tuple[int, float, float, float] | None = None  # row, r, L, error
    total = int(ends[-1])
    for lo in range(0, total, SYNTH_BLOCK):
        rows, r, miss = evaluate_block(lo, min(lo + SYNTH_BLOCK, total))
        kept_rows.append(rows)
        kept_r.append(r)
        if miss is not None and (nearest_at is None or miss[3] < nearest_at[3]):
            nearest_at = miss

    def geometry(i: int, r: float) -> SpiralGeometry:
        n_i, iwdr = divmod(i, W_STEPS * DR_STEPS)
        iw, idr = divmod(iwdr, DR_STEPS)
        return SpiralGeometry(shape, n_i + 1, r, float(dr_step[iw, idr]), float(w_step[iw]))

    kept = zip(np.concatenate(kept_rows).tolist(), np.concatenate(kept_r).tolist())
    ranked = tuple(sorted((geometry(i, r) for i, r in kept),
                          key=lambda g: (-g.area, g.n, g.w, g.dr, g.r)))
    if ranked:
        return SynthesisResult(l_target, ranked, None)
    if nearest_at is not None:
        i, r, l_val, err = nearest_at
        return SynthesisResult(l_target, (), NearMiss(geometry(i, r), l_val, err))
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
    if not f > 0:
        raise ValueError("frequency must be > 0")
    return math.sqrt(resistivity / (math.pi * f * MU_0))


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
    psi = np.linspace(0.0, 2.0 * math.pi, npts, endpoint=False)
    integrand = np.cos(psi) / np.sqrt(a * a + b * b + d * d - 2.0 * a * b * np.cos(psi))
    return float(0.5 * MU_0 * a * b * np.mean(integrand) * 2.0 * math.pi)


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
