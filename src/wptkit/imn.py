"""L-type impedance-matching network enumeration and synthesis.

Each port gets a two-element L-section (one series, one shunt element,
each an inductor or capacitor).  Two element orderings per side and
four L/C choices give 4 x 2^4 = 64 variants; the synthesizer solves the
simultaneous-conjugate-match condition (equivalent to forcing
S11,link = S22,link = 0 at the design frequency) in closed form and
keeps every variant whose element values come out positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import netcore
from .coil import PortPair
from .errors import UnmatchableError
from .netcore import (IDENTITY, Entries, Representation, TwoPortMatrix, abcd_chain, abcd_to_s,
                      impedance_of, promote)

# A synthesized ideal match must push both reflections at least this low.
RETURN_LOSS_FLOOR_DB = -40.0


class ElementKind(Enum):
    SERIES_INDUCTOR = "series-L"
    SERIES_CAPACITOR = "series-C"
    SHUNT_INDUCTOR = "shunt-L"
    SHUNT_CAPACITOR = "shunt-C"

    @property
    def is_capacitor(self) -> bool:
        return self in (ElementKind.SERIES_CAPACITOR, ElementKind.SHUNT_CAPACITOR)

    @property
    def is_series(self) -> bool:
        return self in (ElementKind.SERIES_INDUCTOR, ElementKind.SERIES_CAPACITOR)


@dataclass(frozen=True)
class MatchingElement:
    """One reactive element; ``value`` is henry for inductors, farad for
    capacitors."""

    kind: ElementKind
    value: float

    def __post_init__(self):
        if not (self.value > 0.0 and math.isfinite(self.value)):
            raise ValueError(f"element value must be positive and finite, got {self.value}")

    def reactance(self, f: float) -> float:
        """Signed reactance (series) or susceptance-equivalent |X| basis."""
        w = 2.0 * math.pi * f
        if self.kind is ElementKind.SERIES_INDUCTOR:
            return w * self.value
        if self.kind is ElementKind.SERIES_CAPACITOR:
            return -1.0 / (w * self.value)
        if self.kind is ElementKind.SHUNT_CAPACITOR:
            return -1.0 / (w * self.value)  # element impedance, capacitive
        return w * self.value


def _element_entries(elem: MatchingElement, f) -> Entries:
    w = 2.0 * math.pi * f
    if elem.kind in (ElementKind.SERIES_INDUCTOR, ElementKind.SHUNT_CAPACITOR):
        x = 1j * promote(w) * elem.value  # series impedance jwL or shunt admittance jwC
    else:
        x = -1j / promote(w * elem.value)  # series impedance 1/(jwC) or shunt admittance 1/(jwL)
    return (1 + 0j, x, 0j, 1 + 0j) if elem.kind.is_series else (1 + 0j, 0j, x, 1 + 0j)


def element_abcd(elem: MatchingElement, f) -> TwoPortMatrix:
    return netcore.abcd_matrix(*_element_entries(elem, f))


@dataclass(frozen=True)
class LSectionIMN:
    """Solved matching network: one series + one shunt element per side.

    ``topology_case`` fixes which element sits against the external
    port on each side:

        case 1: series element at the coil on both sides
        case 2: series element at the external port on both sides
        case 3: TX series at port, RX series at coil
        case 4: TX series at coil, RX series at port
    """

    topology_case: int
    tx_series: MatchingElement
    tx_shunt: MatchingElement
    rx_series: MatchingElement
    rx_shunt: MatchingElement

    def __post_init__(self):
        if self.topology_case not in (1, 2, 3, 4):
            raise ValueError(f"topology_case must be 1..4, got {self.topology_case}")
        if not self.tx_series.kind.is_series or not self.rx_series.kind.is_series:
            raise ValueError("series slots need series elements")
        if self.tx_shunt.kind.is_series or self.rx_shunt.kind.is_series:
            raise ValueError("shunt slots need shunt elements")

    @property
    def tx_series_at_port(self) -> bool:
        return self.topology_case in (2, 3)

    @property
    def rx_series_at_port(self) -> bool:
        return self.topology_case in (2, 4)

    @property
    def elements(self) -> tuple[MatchingElement, ...]:
        return (self.tx_series, self.tx_shunt, self.rx_series, self.rx_shunt)

    @property
    def capacitor_count(self) -> int:
        return sum(1 for e in self.elements if e.kind.is_capacitor)

    def reactance_sum(self, f: float) -> float:
        return sum(abs(e.reactance(f)) for e in self.elements)


@netcore.quiet
def assemble_link(imn: LSectionIMN, t_coil: TwoPortMatrix, f) -> TwoPortMatrix:
    """Full-link transmission matrix IMN_TX * T_coil * IMN_RX at f, or
    along an array of frequencies (see :mod:`netcore`)."""
    t_coil._expect(Representation.ABCD)
    # The TX section runs from its external port toward the coil, the RX
    # section from the coil toward its external port.
    tx = (imn.tx_series, imn.tx_shunt) if imn.tx_series_at_port else (imn.tx_shunt, imn.tx_series)
    rx = (imn.rx_shunt, imn.rx_series) if imn.rx_series_at_port else (imn.rx_series, imn.rx_shunt)
    tx_abcd, rx_abcd = (abcd_chain(*(_element_entries(e, f) for e in side)) for side in (tx, rx))
    return netcore.abcd_matrix(*abcd_chain(IDENTITY, tx_abcd, t_coil.operands, rx_abcd))


@dataclass(frozen=True)
class MatchReport:
    s11_db: float
    s22_db: float
    s21_db: float


def _db(mag: float) -> float:
    return 20.0 * math.log10(max(mag, 1e-300))


def verify_match(t_link: TwoPortMatrix, ports: PortPair) -> MatchReport:
    """Return loss and transmission of an assembled link (ABCD), in dB."""
    s = abcd_to_s(t_link, ports.zp1, ports.zp2)
    return MatchReport(_db(abs(s.m11)), _db(abs(s.m22)), _db(abs(s.m21)))


def series_resonance_capacitor(inductance: float, f: float) -> float:
    """Capacitance resonating a series inductance at f: C = 1/(w^2 L).
    This is the classic series-series compensation value."""
    if not (inductance > 0 and f > 0):
        raise ValueError("inductance and frequency must be > 0")
    w = 2.0 * math.pi * f
    return 1.0 / (w * w * inductance)


@dataclass(frozen=True)
class ImnSolution:
    """One ranked synthesis result with its achieved port behaviour."""

    imn: LSectionIMN
    s11_db: float
    s22_db: float
    s21_db: float

    @property
    def s21_mag(self) -> float:
        return 10.0 ** (self.s21_db / 20.0)


@dataclass(frozen=True)
class ImnSynthesis:
    """All positive-element L-section matches found at f0.

    ``already_matched`` flags a network whose ports need no finite
    two-element correction (the degenerate limit).
    """

    solutions: tuple[ImnSolution, ...]
    already_matched: bool
    z_source_target: complex
    z_load_target: complex
    f0: float

    def __bool__(self) -> bool:
        return bool(self.solutions)


@dataclass(frozen=True)
class _SideSolution:
    series_at_port: bool
    series: MatchingElement
    shunt: MatchingElement


def _elements_from_xb(x: float, b: float, w: float) -> tuple[MatchingElement, MatchingElement] | None:
    # Map a (series reactance, shunt susceptance) pair onto L/C parts.
    if abs(x) < 1e-18 or abs(b) < 1e-24:
        return None  # degenerate: not a two-element section
    if x > 0:
        series = MatchingElement(ElementKind.SERIES_INDUCTOR, x / w)
    else:
        series = MatchingElement(ElementKind.SERIES_CAPACITOR, 1.0 / (w * -x))
    if b > 0:
        shunt = MatchingElement(ElementKind.SHUNT_CAPACITOR, b / w)
    else:
        shunt = MatchingElement(ElementKind.SHUNT_INDUCTOR, 1.0 / (w * -b))
    return series, shunt


def _solve_side(z0: float, z_target: complex, f: float) -> list[_SideSolution]:
    """Two-element sections that transform the real port impedance z0
    into ``z_target`` seen from the coil.

    Series-at-coil ordering needs Re(z_target) < z0; series-at-port
    ordering needs Re(1/z_target) < 1/z0.  Each feasible ordering has
    two roots.
    """
    w = 2.0 * math.pi * f
    r_t, x_t = z_target.real, z_target.imag
    out: list[_SideSolution] = []

    # Ordering 1: shunt at the port, series element at the coil.
    if 0.0 < r_t < z0:
        g0 = 1.0 / z0
        b_sq = g0 / r_t - g0 * g0
        if b_sq > 0.0:
            for sign in (1.0, -1.0):
                b = sign * math.sqrt(b_sq)
                x = x_t + b * r_t * z0
                parts = _elements_from_xb(x, b, w)
                if parts:
                    out.append(_SideSolution(False, parts[0], parts[1]))

    # Ordering 2: series element at the port, shunt at the coil.
    y_t = 1.0 / complex(r_t, x_t)
    g_t, b_t = y_t.real, y_t.imag
    if 0.0 < g_t < 1.0 / z0:
        x_sq = z0 / g_t - z0 * z0
        if x_sq > 0.0:
            for sign in (1.0, -1.0):
                x = sign * math.sqrt(x_sq)
                b = b_t + x * g_t / z0
                parts = _elements_from_xb(x, b, w)
                if parts:
                    out.append(_SideSolution(True, parts[0], parts[1]))
    return out


def _case_of(tx_series_at_port: bool, rx_series_at_port: bool) -> int:
    if tx_series_at_port and rx_series_at_port:
        return 2
    if not tx_series_at_port and not rx_series_at_port:
        return 1
    if tx_series_at_port:
        return 3
    return 4


def simultaneous_match_targets(s: TwoPortMatrix) -> tuple[complex, complex]:
    """Source/load impedances for a simultaneous conjugate match of a
    two-port given in S form (Rollett construction)."""
    s11, s12, s21, s22 = s.m11, s.m12, s.m21, s.m22
    if abs(s12 * s21) < 1e-300:
        raise UnmatchableError("no transmission path: S12*S21 = 0")
    delta = s11 * s22 - s12 * s21
    b1 = 1.0 + abs(s11) ** 2 - abs(s22) ** 2 - abs(delta) ** 2
    b2 = 1.0 + abs(s22) ** 2 - abs(s11) ** 2 - abs(delta) ** 2
    c1 = s11 - delta * s22.conjugate()
    c2 = s22 - delta * s11.conjugate()

    def gamma(b: float, c: complex) -> complex:
        if abs(c) < 1e-300:
            if b > 1e-9:
                return 0j  # genuinely centred: the port itself is the target
            # b = c = 0 is the lossless degenerate case (every |gamma| = 1
            # point "matches"), not a centred match.
            raise UnmatchableError(
                "match target at f0 is purely reactive (lossless network)")
        disc = b * b - 4.0 * abs(c) ** 2
        if disc < 0.0:
            raise UnmatchableError(
                "no simultaneous conjugate match exists (stability factor < 1)")
        root = math.sqrt(disc)
        sign = 1.0 if b >= 0.0 else -1.0
        out = (b - sign * root) / (2.0 * c)
        if abs(out) >= 1.0 - 1e-9:
            # Lossless network: the match target sits on the unit circle,
            # i.e. is purely reactive.
            raise UnmatchableError(
                "match target at f0 is purely reactive (lossless network)")
        return out

    g_ms = gamma(b1, c1)
    g_ml = gamma(b2, c2)
    return impedance_of(g_ms, s.zp1), impedance_of(g_ml, s.zp2)


def synthesize_imn(t_coil: TwoPortMatrix, ports: PortPair, f0: float) -> ImnSynthesis:
    """Solve all 64 L-section variants that match both link ports at f0.

    Every emitted solution has all-positive element values and has been
    re-verified to drive |S11,link| and |S22,link| below the return-loss
    floor.  Ranking: capacitor-rich networks first (implants avoid bulky
    inductors), then by descending |S21,link|, then by smaller total
    reactance at f0.
    """
    t_coil._expect(Representation.ABCD)
    if not f0 > 0:
        raise ValueError("design frequency must be > 0")
    s = abcd_to_s(t_coil, ports.zp1, ports.zp2)
    z_ms, z_ml = simultaneous_match_targets(s)

    for name, z in (("source", z_ms), ("load", z_ml)):
        if z.real <= 1e-9 * abs(z):
            raise UnmatchableError(
                f"{name}-side impedance at f0 is purely reactive ({z:.6g} ohm)")

    gamma_s = netcore.reflection_of(z_ms, ports.zp1)
    gamma_l = netcore.reflection_of(z_ml, ports.zp2)
    if abs(gamma_s) < 1e-9 and abs(gamma_l) < 1e-9:
        return ImnSynthesis((), True, z_ms, z_ml, f0)

    tx_options = _solve_side(ports.zp1, z_ms, f0)
    rx_options = _solve_side(ports.zp2, z_ml, f0)

    kept: list[tuple[tuple, ImnSolution]] = []
    for tx in tx_options:
        for rx in rx_options:
            imn = LSectionIMN(_case_of(tx.series_at_port, rx.series_at_port),
                              tx.series, tx.shunt, rx.series, rx.shunt)
            report = verify_match(assemble_link(imn, t_coil, f0), ports)
            if report.s11_db > RETURN_LOSS_FLOOR_DB or report.s22_db > RETURN_LOSS_FLOOR_DB:
                continue
            sol = ImnSolution(imn, report.s11_db, report.s22_db, report.s21_db)
            # |S21| quantized so numerically identical optima actually tie
            # and fall through to the reactance criterion.
            key = (
                -imn.capacitor_count,
                -round(sol.s21_mag, 9),
                imn.reactance_sum(f0),
                imn.topology_case,
                tuple(e.kind.value for e in imn.elements),
            )
            kept.append((key, sol))

    kept.sort(key=lambda item: item[0])
    return ImnSynthesis(tuple(sol for _, sol in kept), False, z_ms, z_ml, f0)
