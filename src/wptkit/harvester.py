"""N-stage subthreshold rectifier design-space exploration.

Rectified DC output of an N-stage chain driven below threshold,

    V_out = 2 N V_T ln(I0(V_RX / V_T)),

the parallel-equivalent input (R_rect, C_rect) of the harvester, and a
deterministic (N, Q) grid sweep that picks the smallest N, then Q,
meeting the output-voltage and charge-time targets, with each point's
conjugate-match residual against the tissue-side impedance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .netcore import BuiltOnRead, Split, check_frequency, first_point, point, promote, quiet

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
    """Modified Bessel function of the first kind, order zero.

    Convergent power series below 3.75, asymptotic-regime polynomial
    expansion above; relative error < 5e-7 everywhere.  Past the float
    range (x > ~713) the result is math.inf.
    """
    if x < 0:
        raise ValueError("argument must be >= 0")
    if x < 3.75:
        term = 1.0
        total = 1.0
        quarter_sq = 0.25 * x * x
        k = 1
        while True:
            term *= quarter_sq / (k * k)
            total += term
            if term < total * 1e-17:
                return total
            k += 1
    try:
        return _i0_poly(x) * math.exp(x) / math.sqrt(x)
    except OverflowError:
        # exp(x) leaves the float range a little before I0(x) does.
        try:
            return math.exp(_log_i0(x))
        except OverflowError:
            return math.inf


def _i0_poly(x: float) -> float:
    # Abramowitz & Stegun 9.8.2: sqrt(x) exp(-x) I0(x) for x >= 3.75.
    t = 3.75 / x
    return (0.39894228 + t * (0.01328592 + t * (0.00225319 + t * (-0.00157565
            + t * (0.00916281 + t * (-0.02057706 + t * (0.02635537
            + t * (-0.01647633 + t * 0.00392377))))))))


def _log_i0(x: float) -> float:
    """ln I0(x), in log space above 3.75 so that strong drive (x beyond
    ~709, where exp(x) overflows) stays finite."""
    if x < 3.75:
        return math.log(bessel_i0(x))
    return x - 0.5 * math.log(x) + math.log(_i0_poly(x))


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
        raise ValueError(f"thermal voltage {v_t!r} V is too small for {v_rx!r} V of drive: "
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
    at = Split(np.array([z.real]), np.array([z.imag]))
    r_rect, c_rect = _rect_input(at, check_frequency(f))
    _raise_at(0, _rect_faults(at, r_rect, "the harvester input"), z=z)
    return RectifierInput(float(r_rect[0]), float(c_rect[0]))


@dataclass(frozen=True, kw_only=True)
class HarvesterConstraints:
    """Search box for the design-space sweep, and its stage model: the
    input of n stages is n r_stage in parallel with c_stage / n."""

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
        _output_scale(max(self.n_range), self.v_t)
        # A NaN or infinite part, or a finite tissue_z whose |tissue_z| overflows.
        if not math.hypot(self.tissue_z.real, self.tissue_z.imag) < math.inf:
            raise ValueError(f"tissue_z and |tissue_z| must be finite, got {self.tissue_z!r}")
        # Callers pass a range: a bad n_min fails the checks above before a
        # tuple of the range's length is built.
        object.__setattr__(self, "n_range", tuple(self.n_range))


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
    built when it is read; pickled, it is the tuple it reads as."""

    table: Sequence[DesignPoint]
    chosen: DesignPoint | None
    nearest: dict[str, DesignPoint]

    def __bool__(self) -> bool:
        return self.chosen is not None

    def __getstate__(self) -> dict:
        return {**self.__dict__, "table": tuple(self.table)}


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

    Each stage count's input, charge time and match residual are found
    for all n at once, with the bits of Python's complex arithmetic at
    each n (netcore.Split); a stage count whose values fail a check
    raises, as a loop over n would, the error of the first such n.
    """
    if not 0 <= v_rx < math.inf:
        raise ValueError("received amplitude must be finite and >= 0")
    if not target_v_out > 0:
        raise ValueError("target output voltage must be > 0")
    c = constraints
    tissue_z = complex(c.tissue_z)
    ns = list(map(int, c.n_range))
    n = np.array(ns)  # int64, or Python ints past its range
    nf = n.astype(float)
    y_in = 1.0 / (nf * c.r_stage) + 1j * (2.0 * math.pi * c.f0) * c.c_stage / promote(nf)
    z_in = 1.0 / y_in
    r_rect, c_rect = _rect_input(z_in, c.f0)
    tau = charge_time(nf, c.v_t, c.i_load_avg, c.c_store)
    miss = z_in - tissue_z.conjugate()
    # Each n's checks, in the order a loop over n would run them.
    faults = ((y_in == 0, "input admittance of {n} stages underflows to 0"),
              *_rect_faults(z_in, r_rect, "the input of {n} stages"),
              (_abs_overflows(miss), "|Z - Z_tissue*| of the input of {n} stages overflows"))
    first = first_point(np.logical_or.reduce([fails for fails, _ in faults]))
    if first == 0:
        _raise_at(0, faults, n=ns[0], z=point(z_in, 0))
    residual = abs(miss) / max(abs(tissue_z), 1e-300)
    # ln I0 of each q's drive, checked after the first n, as a loop over n would.
    logs = [_stage_log(q * v_rx, c.v_t) for q in c.q_range]
    if first is not None:
        _raise_at(first, faults, n=ns[first], z=point(z_in, first))

    # The (n, q) table, n-major: each n's values repeat for its q values.
    qs = len(logs)
    v_out = np.multiply.outer(2.0 * nf * c.v_t, logs).ravel()
    n, r_rect, c_rect, tau, residual = (a.repeat(qs) for a in (n, r_rect, c_rect, tau, residual))
    q = np.tile(np.array(c.q_range, dtype=float), len(ns))
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


def _rect_input(z: Split, f: float) -> tuple[np.ndarray, np.ndarray]:
    """rect_input's R_rect and C_rect at each point of z, unchecked."""
    w = 2.0 * math.pi * f
    mag = abs(z)
    mag_sq = mag * mag
    normal = (mag_sq >= sys.float_info.min) & (mag_sq < math.inf)
    return (np.where(normal, mag_sq / z.real, mag * (mag / z.real)),
            np.where(normal, -z.imag / (w * mag_sq), -z.imag / (w * mag) / mag))


def _abs_overflows(z: Split) -> np.ndarray:
    """Where Python's abs() of a finite complex raises OverflowError."""
    return np.isfinite(z.real) & np.isfinite(z.imag) & np.isinf(abs(z))


def _rect_faults(z: Split, r_rect: np.ndarray, of: str) -> tuple:
    """rect_input's checks of the inputs z, in order: where each fails, and
    its message, a format string of the point's z; ``of`` names the input."""
    return ((z.real <= 0, "harvester input must have Re(Z) > 0, got {z!r}"),
            (_abs_overflows(z), f"|Z| of {of} overflows, got {{z!r}}"),
            (~(r_rect > 0), "effective input resistance must be > 0"))


def _raise_at(i: int, faults, **fields) -> None:
    """ValueError of the first of ``faults`` that fails at point i."""
    for fails, message in faults:
        if fails[i]:
            raise ValueError(message.format(**fields))


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
