"""N-stage subthreshold rectifier design-space exploration.

Rectified DC output of an N-stage chain driven below threshold,

    V_out = 2 N V_T ln(I0(V_RX / V_T)),

the parallel-equivalent input (R_rect, C_rect) of the harvester, and a
deterministic (N, Q) grid sweep that picks the smallest stage count
meeting the output-voltage and charge-time targets with the best
conjugate match against the tissue-side impedance.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

# Thermal voltage at body temperature (310 K).
BODY_THERMAL_VOLTAGE = 0.0267  # V
DEFAULT_STORE_CAPACITOR = 0.47e-6  # F, external storage
# Default stage-count range of the design-space sweep, and the calibration
# point of stage_scaling_model when no measured model is given.
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


def _drive(v_rx: float, v_t: float) -> float:
    """The normalised drive v_rx / V_T, rejected where it overflows (ln I0
    of inf would be inf - inf)."""
    x = v_rx / v_t
    if x == math.inf:
        raise ValueError(f"thermal voltage {v_t!r} V is too small for {v_rx!r} V of drive: "
                         "v_rx / V_T overflows")
    return x


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
    if not 0 <= v_rx < math.inf:
        raise ValueError("input amplitude must be finite and >= 0")
    if not v_t > 0:
        raise ValueError("thermal voltage must be > 0")
    return 2.0 * n * v_t * _log_i0(_drive(v_rx, v_t))


@dataclass(frozen=True)
class RectifierInput:
    """Parallel-equivalent input of the harvester.

    A negative c_rect means the input is inductive at this frequency;
    ``capacitive`` flags the usual regime.
    """

    r_rect: float
    c_rect: float

    def __post_init__(self):
        if not self.r_rect > 0:
            raise ValueError("effective input resistance must be > 0")

    @property
    def capacitive(self) -> bool:
        return self.c_rect >= 0.0


def rect_input(z_in_eh: complex, f: float) -> RectifierInput:
    """Series-to-parallel conversion of the harvester input impedance:

        R_rect = |Z|^2 / Re{Z},   C_rect = -Im{Z} / (2 pi f |Z|^2)
    """
    z = complex(z_in_eh)
    if z.real <= 0:
        raise ValueError(f"harvester input must have Re(Z) > 0, got {z!r}")
    if not f > 0:
        raise ValueError("frequency must be > 0")
    mag_sq = abs(z) ** 2
    return RectifierInput(mag_sq / z.real, -z.imag / (2.0 * math.pi * f * mag_sq))


def stage_scaling_model(r_stage: float, c_stage: float) -> Callable[[int, float], complex]:
    """Default input-impedance rule, calibrated at one (R, C) point.

    Models the chain input as n*r_stage in parallel with c_stage/n, so
    the effective input resistance grows and the input capacitance
    shrinks as stages are added; replace with a measured table when one
    exists.
    """
    if not (r_stage > 0 and c_stage > 0):
        raise ValueError("calibration point must be positive")

    def z_in(n: int, f: float) -> complex:
        w = 2.0 * math.pi * f
        y = 1.0 / (n * r_stage) + 1j * w * c_stage / n
        return 1.0 / y

    return z_in


@dataclass(frozen=True)
class HarvesterSpec:
    """Chosen operating point of the harvesting chain."""

    n_stages: int
    v_t: float
    q_boost: float
    c_store: float
    f0: float
    z_in_eh: complex

    def __post_init__(self):
        if self.n_stages < 1:
            raise ValueError("stage count must be >= 1")
        if not self.v_t > 0:
            raise ValueError("thermal voltage must be > 0")
        if self.q_boost < 1.0:
            raise ValueError("boost quality factor must be >= 1")
        if not self.c_store > 0:
            raise ValueError("storage capacitance must be > 0")


@dataclass(frozen=True, kw_only=True)
class HarvesterConstraints:
    """Search box for the design-space sweep."""

    n_range: Sequence[int]
    q_range: Sequence[float] = (1.0,)
    max_charge_time: float = 10.0  # s
    tissue_z: complex
    f0: float
    c_store: float = DEFAULT_STORE_CAPACITOR
    i_load_avg: float = 1e-6  # A
    v_t: float = BODY_THERMAL_VOLTAGE

    def __post_init__(self):
        if not len(self.n_range) or not len(self.q_range):
            raise ValueError("n_range and q_range must be non-empty")
        if any(n < 1 for n in self.n_range):
            raise ValueError("stage counts must be >= 1")
        if any(not 1.0 <= q < math.inf for q in self.q_range):
            raise ValueError("boost Q values must be finite and >= 1")
        if not self.max_charge_time > 0:
            raise ValueError("max_charge_time must be > 0")
        for name in ("f0", "c_store", "i_load_avg", "v_t"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if not cmath.isfinite(self.tissue_z):
            raise ValueError(f"tissue_z must be finite, got {self.tissue_z!r}")
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
    z_in_eh: complex


@dataclass(frozen=True)
class DesignSpaceResult:
    table: tuple[DesignPoint, ...]
    chosen: HarvesterSpec | None
    nearest: dict[str, DesignPoint]

    def __bool__(self) -> bool:
        return self.chosen is not None


def charge_time(n: int, v_t: float, i_load_avg: float, c_store: float) -> float:
    """95 %-settling estimate 3 R_out C_store with R_out = n V_T / I_load."""
    if not i_load_avg > 0:
        raise ValueError("average load current must be > 0")
    return 3.0 * (n * v_t / i_load_avg) * c_store


def design_space(v_rx: float, target_v_out: float,
                 constraints: HarvesterConstraints,
                 z_in_model: Callable[[int, float], complex] | None = None
                 ) -> DesignSpaceResult:
    """Sweep the (n, q) grid and pick the smallest feasible stage count.

    Feasible means v_out >= target and charge time within bounds; ties
    at the same n resolve toward the best conjugate-match residual
    against the tissue impedance.  When nothing is feasible the result
    carries the nearest miss on each constraint instead of a choice.
    """
    if not 0 <= v_rx < math.inf:
        raise ValueError("received amplitude must be finite and >= 0")
    if not target_v_out > 0:
        raise ValueError("target output voltage must be > 0")
    model = z_in_model or stage_scaling_model(DEFAULT_STAGE_R, DEFAULT_STAGE_C)

    rows: list[DesignPoint] = []
    for n in constraints.n_range:
        z_in = complex(model(int(n), constraints.f0))
        rect = rect_input(z_in, constraints.f0)
        tau = charge_time(int(n), constraints.v_t, constraints.i_load_avg,
                          constraints.c_store)
        residual = abs(z_in - complex(constraints.tissue_z).conjugate())
        residual /= max(abs(constraints.tissue_z), 1e-300)
        for q in constraints.q_range:
            vout = v_out(int(n), q * v_rx, constraints.v_t)
            rows.append(DesignPoint(int(n), float(q), rect.r_rect, rect.c_rect,
                                    vout, tau, residual, z_in))

    feasible = [p for p in rows
                if p.v_out >= target_v_out and p.charge_time <= constraints.max_charge_time]
    chosen = None
    if feasible:
        best = min(feasible, key=lambda p: (p.n, p.match_residual, p.q))
        chosen = HarvesterSpec(best.n, constraints.v_t, best.q, constraints.c_store,
                               constraints.f0, best.z_in_eh)

    nearest: dict[str, DesignPoint] = {}
    if not feasible and rows:
        nearest["best_v_out"] = max(rows, key=lambda p: (p.v_out, -p.n))
        nearest["best_charge_time"] = min(rows, key=lambda p: (p.charge_time, p.n))
        nearest["best_match"] = min(rows, key=lambda p: (p.match_residual, p.n))
    return DesignSpaceResult(tuple(rows), chosen, nearest)


def minimum_stage_count(v_rx: float, target_v_out: float,
                        v_t: float = BODY_THERMAL_VOLTAGE) -> int:
    """Smallest n with 2 n V_T ln(I0(v_rx/V_T)) >= target (direct
    inversion of the output formula)."""
    per_stage = 2.0 * v_t * _log_i0(_drive(v_rx, v_t))
    if per_stage <= 0:
        raise ValueError("no positive per-stage gain at this drive level")
    return max(1, math.ceil(target_v_out / per_stage - 1e-12))
