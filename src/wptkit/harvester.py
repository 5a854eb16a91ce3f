"""N-stage subthreshold rectifier design-space exploration.

Rectified DC output of an N-stage chain driven below threshold,

    V_out = 2 N V_T ln(I0(V_RX / V_T)),

with ln I0 exact to a few ulps on the whole float range; the
parallel-equivalent input (R_rect, C_rect) of an impedance; and a
deterministic (N, Q) grid sweep that picks the smallest N, then Q,
meeting the output-voltage and charge-time targets.  N stages present
N r_stage in parallel with c_stage / N, so R_rect and C_rect are those
two values, and each point's conjugate-match residual against the
tissue-side impedance reads Z_in = N z_1 with z_1 one stage's impedance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .netcore import BuiltOnRead, check_frequency, promote, quiet

# Thermal voltage at body temperature (310 K).
BODY_THERMAL_VOLTAGE = 0.0267  # V
DEFAULT_STORE_CAPACITOR = 0.47e-6  # F, external storage
# Default stage-count range of the design-space sweep, and the per-stage
# resistance and capacitance of its stage model.
DEFAULT_N_MIN = 1
DEFAULT_N_MAX = 60
DEFAULT_STAGE_R = 1e3  # ohm
DEFAULT_STAGE_C = 1e-12  # F


def bessel_i0(x: float) -> float:
    """Modified Bessel function of the first kind, order zero, as exp of
    the exact ln I0.  Relative error at most 5.8e-14 against mpmath on
    20,001 points of [0, 713.98]: that of exp, which grows with ln I0(x).
    Past the float range (x > ~713.99) the result is math.inf."""
    if x < 0:
        raise ValueError("argument must be >= 0")
    try:
        return math.exp(_log_i0(x))
    except OverflowError:
        return math.inf


# Where _log_i0 leaves the power series for the asymptotic one: from here
# on, the asymptotic series' smallest term is below 3e-23.
_I0_SERIES_MAX = 25.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_i0(x: float) -> float:
    """ln I0(x), within a few ulps for every finite x >= 0, with math only
    (numpy's exp loop may be a SIMD kernel, not libm's).

    Below _I0_SERIES_MAX: log1p of the power series' terms from k = 1,
    sum (x^2 / 4)^k / (k!)^2.  From there: the asymptotic (Hankel) series
    in log space, x - ln(2 pi x) / 2 + log1p of its terms from k = 1,
    sum ((2k - 1)!!)^2 / (k! (8x)^k), so strong drive (x beyond ~709,
    where exp(x) overflows) stays finite."""
    series = x < _I0_SERIES_MAX
    term, total, k = 1.0, 0.0, 0
    while term > total * 1e-17:
        k += 1
        term *= 0.25 * x * x / (k * k) if series else (2 * k - 1) * (2 * k - 1) / (8.0 * k * x)
        total += term
    if series:
        return math.log1p(total)
    return x - (0.5 * math.log(x) + _HALF_LOG_2PI - math.log1p(total))


def v_out(n: int, v_rx: float, v_t: float = BODY_THERMAL_VOLTAGE) -> float:
    """Rectified DC output of an n-stage chain fed v_rx peak amplitude."""
    if n < 1 or n != int(n):
        raise ValueError(f"stage count must be a positive integer, got {n}")
    return _output_scale(n, v_t) * _stage_log(v_rx, v_t)


def _output_scale(n: int, v_t: float) -> float:
    """2 n V_T, rejected where it overflows (times ln I0(0) = 0 it is NaN)."""
    scale = 2.0 * n * v_t
    if scale == math.inf:
        raise ValueError(f"2 n v_t overflows at n = {n}, v_t = {v_t!r} V")
    return scale


def _stage_log(v_rx: float, v_t: float) -> float:
    """ln I0(v_rx / V_T), v_out's factor that does not depend on n; the
    drive v_rx / V_T is rejected where it overflows (ln I0 of inf would be
    inf - inf)."""
    if not 0 <= v_rx < math.inf:
        raise ValueError("input amplitude must be finite and >= 0")
    if not v_t > 0:
        raise ValueError("thermal voltage must be > 0")
    if v_rx / v_t == math.inf:
        raise ValueError(f"thermal voltage {v_t:.6g} V is too small for {v_rx:.6g} V of drive: "
                         "v_rx / V_T overflows")
    return _log_i0(v_rx / v_t)


@dataclass(frozen=True)
class RectifierInput:
    """Parallel-equivalent input of the harvester.

    A negative c_rect means the input is inductive at this frequency.
    """

    r_rect: float
    c_rect: float

    def __post_init__(self):
        if not self.r_rect > 0:
            raise ValueError("effective input resistance must be > 0")


@quiet
def rect_input(z_in_eh: complex, f: float) -> RectifierInput:
    """Series-to-parallel conversion of the harvester input impedance:

        R_rect = |Z|^2 / Re{Z},   C_rect = -Im{Z} / (2 pi f |Z|^2)

    Where |Z|^2 leaves the normal float range, |Z| divides twice instead.
    """
    z = complex(z_in_eh)
    w = 2.0 * math.pi * check_frequency(f)
    if z.real <= 0:
        raise ValueError(f"harvester input must have Re(Z) > 0, got {z!r}")
    try:
        mag = np.float64(abs(z))  # numpy scalar: a 0 divisor gives nan, not ZeroDivisionError
    except OverflowError:
        raise ValueError(f"|Z| of the harvester input overflows, got {z!r}") from None
    mag_sq = mag * mag
    if sys.float_info.min <= mag_sq < math.inf:
        return RectifierInput(float(mag_sq / z.real), float(-z.imag / (w * mag_sq)))
    return RectifierInput(float(mag * (mag / z.real)), float(-z.imag / (w * mag) / mag))


@dataclass(frozen=True, kw_only=True)
class HarvesterConstraints:
    """Search box for the design-space sweep, and its stage model: the
    input of n stages is n r_stage in parallel with c_stage / n.

    Rejected where the sweep would overflow: 2 n_max v_t, n_max r_stage,
    and |Z_in| + |tissue_z| at n_max, which bounds each match residual's
    |Z_in - tissue_z*|."""

    n_range: Sequence[int]
    q_range: Sequence[float] = (1.0,)
    max_charge_time: float = 10.0  # s
    tissue_z: complex
    f0: float
    c_store: float = DEFAULT_STORE_CAPACITOR
    i_load_avg: float = 1e-6  # A
    v_t: float = BODY_THERMAL_VOLTAGE
    r_stage: float = DEFAULT_STAGE_R
    c_stage: float = DEFAULT_STAGE_C

    def __post_init__(self):
        if not len(self.n_range) or not len(self.q_range):
            raise ValueError("n_range and q_range must be non-empty")
        if any(n < 1 for n in self.n_range):
            raise ValueError("stage counts must be >= 1")
        if any(not 1.0 <= q < math.inf for q in self.q_range):
            raise ValueError("boost Q values must be finite and >= 1")
        if not self.max_charge_time > 0:
            raise ValueError("max_charge_time must be > 0")
        check_frequency(self.f0)
        for name in ("c_store", "i_load_avg", "v_t", "r_stage", "c_stage"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        n_max = max(self.n_range)
        _output_scale(n_max, self.v_t)
        if n_max * self.r_stage == math.inf:
            raise ValueError(f"n r_stage overflows at n = {n_max}, r_stage = {self.r_stage!r} ohm")
        # A NaN or infinite part, or a finite tissue_z whose |tissue_z| overflows.
        z_tissue = math.hypot(self.tissue_z.real, self.tissue_z.imag)
        if not z_tissue < math.inf:
            raise ValueError(f"tissue_z and |tissue_z| must be finite, got {self.tissue_z!r}")
        z_in = n_max * _stage_impedance(self)
        if math.hypot(z_in.real, z_in.imag) + z_tissue == math.inf:
            raise ValueError(f"|Z_in| + |tissue_z| overflows at n = {n_max}, "
                             f"tissue_z = {self.tissue_z!r}")
        # Callers pass a range: a bad n_min fails the checks above before a
        # tuple of the range's length is built.
        object.__setattr__(self, "n_range", tuple(self.n_range))


def _stage_impedance(c: HarvesterConstraints) -> complex:
    """z_1 = r_stage / (1 + j w r_stage c_stage), the input of one stage:
    n stages in parallel form present n z_1."""
    return c.r_stage / complex(1.0, 2.0 * math.pi * c.f0 * (c.r_stage * c.c_stage))


@dataclass(frozen=True)
class DesignPoint:
    """One (n, q) grid evaluation of the sweep table."""

    n: int
    q: float
    r_rect: float
    c_rect: float
    v_out: float
    charge_time: float
    match_residual: float


@dataclass(frozen=True)
class DesignSpaceResult:
    """The sweep table, the chosen point of it (None when no point is
    feasible) and, when none is, the nearest miss on each constraint.

    ``table`` is a read-only sequence of DesignPoint, n-major then q, each
    built when it is read."""

    table: Sequence[DesignPoint]
    chosen: DesignPoint | None
    nearest: dict[str, DesignPoint]

    def __bool__(self) -> bool:
        return self.chosen is not None


def charge_time(n: int, v_t: float, i_load_avg: float, c_store: float) -> float:
    """95 %-settling estimate 3 R_out C_store with R_out = n V_T / I_load,
    for a stage count n or an array of them."""
    if not i_load_avg > 0:
        raise ValueError("average load current must be > 0")
    return 3.0 * (n * v_t / i_load_avg) * c_store


@quiet
def design_space(v_rx: float, target_v_out: float,
                 constraints: HarvesterConstraints) -> DesignSpaceResult:
    """Sweep the (n, q) grid and pick the smallest feasible stage count.

    Feasible means v_out >= target and charge time within bounds; the
    choice is the smallest feasible n, then the smallest q.  When nothing
    is feasible the result carries the nearest miss on each constraint
    instead of a choice.

    n stages present R_rect = n r_stage and C_rect = c_stage / n; the
    match residual |n z_1 - tissue_z*| / |tissue_z| takes the bits of
    Python's complex arithmetic at each n (netcore.Split).  The
    constraints rule out every overflow of the stage model, so past the
    checks of v_rx and the target only a q whose drive overflows fails.
    """
    if not 0 <= v_rx < math.inf:
        raise ValueError("received amplitude must be finite and >= 0")
    if not target_v_out > 0:
        raise ValueError("target output voltage must be > 0")
    c = constraints
    logs = [_stage_log(q * v_rx, c.v_t) for q in c.q_range]
    tissue_z = complex(c.tissue_z)
    n = np.array(list(map(int, c.n_range)))  # int64, or Python ints past its range
    nf = n.astype(float)
    miss = promote(nf) * _stage_impedance(c) - tissue_z.conjugate()
    residual = abs(miss) / max(abs(tissue_z), 1e-300)

    # The (n, q) table, n-major: each n's values repeat for its q values.
    qs = len(logs)
    v_out = np.multiply.outer(2.0 * nf * c.v_t, logs).ravel()
    tau = charge_time(nf, c.v_t, c.i_load_avg, c.c_store)
    n, r_rect, c_rect, tau, residual = (
        a.repeat(qs) for a in (n, nf * c.r_stage, c.c_stage / nf, tau, residual))
    q = np.tile(np.array(c.q_range, dtype=float), len(nf))
    table = BuiltOnRead(_design_point, n, q, r_rect, c_rect, v_out, tau, residual)

    feasible = np.flatnonzero((v_out >= target_v_out) & (tau <= c.max_charge_time))
    chosen = table[_first_min(feasible, n, q)] if feasible.size else None
    nearest: dict[str, DesignPoint] = {}
    if not feasible.size:
        every = np.arange(len(table))
        nearest["best_v_out"] = table[_first_min(every, -v_out, n)]
        nearest["best_charge_time"] = table[_first_min(every, tau, n)]
        nearest["best_match"] = table[_first_min(every, residual, n)]
    return DesignSpaceResult(table, chosen, nearest)


def _design_point(n, *values) -> DesignPoint:
    """A table row from its array values, as Python int and floats."""
    return DesignPoint(int(n), *map(float, values))


def _first_min(rows: np.ndarray, *keys: np.ndarray) -> int:
    """The first of ``rows`` (indices, ascending) whose ``keys`` are least
    in order, as min() with a tuple key picks it."""
    for key in keys:
        values = key[rows]
        rows = rows[values == values.min()]
    return int(rows[0])


def minimum_stage_count(v_rx: float, target_v_out: float,
                        v_t: float = BODY_THERMAL_VOLTAGE) -> int:
    """Smallest n with 2 n V_T ln(I0(v_rx/V_T)) >= target (direct
    inversion of the output formula)."""
    per_stage = v_out(1, v_rx, v_t)
    if per_stage <= 0:
        raise ValueError("no positive per-stage gain at this drive level")
    return max(1, math.ceil(target_v_out / per_stage - 1e-12))
