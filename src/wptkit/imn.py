"""L-type impedance-matching network enumeration and synthesis.

Each port gets a two-element L-section (one series, one shunt element,
each an inductor or capacitor).  Two element orderings per side and
four L/C choices give 4 x 2^4 = 64 variants; the synthesizer solves the
simultaneous-conjugate-match condition (equivalent to forcing
S11,link = S22,link = 0 at the design frequency) in closed form and
keeps every variant whose element values come out positive.

Each variant is then verified on the S matrix of its full link at f0:
:func:`synthesize_imn` builds each TX option's ``_head`` (I * TX *
T_coil) once and multiplies it by the RX section, the left-to-right
products :func:`assemble_link` makes, and so the same bits.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from . import netcore
from .coil import PortPair
from .errors import UnmatchableError
from .netcore import (IDENTITY, BuiltOnRead, Entries, Representation, TwoPortMatrix, abcd_chain,
                      abcd_to_s, impedance_of, promote, square)

# A synthesized ideal match must push both reflections at least this low.
RETURN_LOSS_FLOOR_DB = -40.0

# The four element slots of an L-section network, in LSectionIMN.elements order.
SLOTS = ("tx_series", "tx_shunt", "rx_series", "rx_shunt")


class ElementKind(Enum):
    SERIES_INDUCTOR = "series-L"
    SERIES_CAPACITOR = "series-C"
    SHUNT_INDUCTOR = "shunt-L"
    SHUNT_CAPACITOR = "shunt-C"

    def __init__(self, value: str):
        self.is_capacitor = value.endswith("-C")
        self.is_series = value.startswith("series-")


@dataclass(frozen=True)
class MatchingElement:
    """One reactive element; ``value`` is henry for inductors, farad for
    capacitors."""

    kind: ElementKind
    value: float

    def __post_init__(self):
        if not (self.value > 0.0 and math.isfinite(self.value)):
            raise ValueError(f"element value must be positive and finite, got {self.value}")

    @property
    def unit(self) -> str:
        """Unit of ``value``: "F" for a capacitor, "H" for an inductor."""
        return "F" if self.kind.is_capacitor else "H"

    def reactance(self, f: float) -> float:
        """Reactance of the element at f: -1/(wC) for a capacitor, wL for
        an inductor."""
        w = 2.0 * math.pi * f
        if self.kind.is_capacitor:
            return -1.0 / (w * self.value)
        return w * self.value


def _element_entries(elem: MatchingElement, f) -> Entries:
    w = 2.0 * math.pi * f
    if elem.kind in (ElementKind.SERIES_INDUCTOR, ElementKind.SHUNT_CAPACITOR):
        x = 1j * promote(w) * elem.value  # series impedance jwL or shunt admittance jwC
    else:
        x = -1j / promote(w * elem.value)  # series impedance 1/(jwC) or shunt admittance 1/(jwL)
    return (1 + 0j, x, 0j, 1 + 0j) if elem.kind.is_series else (1 + 0j, 0j, x, 1 + 0j)


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


@netcore.quiet
def assemble_link(imn: LSectionIMN, t_coil: TwoPortMatrix, f) -> TwoPortMatrix:
    """Full-link transmission matrix IMN_TX * T_coil * IMN_RX at f, or
    along an array of frequencies (see :mod:`netcore`)."""
    t_coil._expect(Representation.ABCD)
    netcore.check_frequency(f)
    # The TX section runs from its external port toward the coil, the RX
    # section from the coil toward its external port.
    tx_abcd = _section(imn.tx_series, imn.tx_shunt, imn.tx_series_at_port, f)
    rx_abcd = _section(imn.rx_series, imn.rx_shunt, not imn.rx_series_at_port, f)
    return netcore.abcd_matrix(*abcd_chain(_head(tx_abcd, t_coil), rx_abcd))


def _head(tx_abcd: Entries, t_coil: TwoPortMatrix) -> Entries:
    """I * TX * T_coil: the part of a link before its RX section."""
    return abcd_chain(IDENTITY, tx_abcd, t_coil.operands)


def _section(series: MatchingElement, shunt: MatchingElement, series_first: bool, f) -> Entries:
    """ABCD entries of a two-element section, its series element at port 1
    when ``series_first``."""
    pair = (series, shunt) if series_first else (shunt, series)
    return abcd_chain(*(_element_entries(e, f) for e in pair))


def _db(mag: float) -> float:
    return 20.0 * math.log10(max(mag, 1e-300))


def series_resonance_capacitor(inductance: float, f: float) -> float:
    """Capacitance resonating a series inductance at f: C = 1/(w^2 L).
    This is the classic series-series compensation value."""
    w = 2.0 * math.pi * netcore.check_frequency(f)
    if not inductance > 0:
        raise ValueError("inductance must be > 0")
    return 1.0 / (w * w * inductance)


@dataclass(frozen=True)
class ImnSolution:
    """One ranked synthesis result: the matching network and the S matrix
    of the full link at f0 that it was verified on."""

    imn: LSectionIMN
    s: TwoPortMatrix

    @property
    def s11_db(self) -> float:
        return _db(abs(self.s.m11))

    @property
    def s22_db(self) -> float:
        return _db(abs(self.s.m22))

    @property
    def s21_db(self) -> float:
        return _db(abs(self.s.m21))

    @property
    def s21_mag(self) -> float:
        return _mag(self.s21_db)


def _mag(db: float) -> float:
    return 10.0 ** (db / 20.0)


@dataclass(frozen=True)
class ImnSynthesis:
    """All positive-element L-section matches found at f0, ranked: a
    sequence of ImnSolution, each built when it is read.

    ``already_matched`` flags a network whose ports need no finite
    two-element correction (the degenerate limit).
    """

    solutions: Sequence[ImnSolution]
    already_matched: bool

    def __bool__(self) -> bool:
        return bool(self.solutions)

    def __getstate__(self) -> dict:
        # Pickled with its solutions built, as the tuple they read as.
        return {**self.__dict__, "solutions": tuple(self.solutions)}


@dataclass(frozen=True)
class _SideSolution:
    series_at_port: bool
    series: MatchingElement
    shunt: MatchingElement

    def rank_terms(self, f: float) -> tuple[int, tuple[float, float], tuple[str, str]]:
        """The side's terms of the ranking key: its capacitor count, then the
        |X| at f of its series and shunt elements, and their kinds, in that
        order."""
        series, shunt = self.series, self.shunt
        return (series.kind.is_capacitor + shunt.kind.is_capacitor,
                (abs(series.reactance(f)), abs(shunt.reactance(f))),
                (series.kind._value_, shunt.kind._value_))


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
    delta = s.det
    b1 = 1.0 + square(abs(s11)) - square(abs(s22)) - square(abs(delta))
    b2 = 1.0 + square(abs(s22)) - square(abs(s11)) - square(abs(delta))
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
        disc = b * b - 4.0 * square(abs(c))
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


def synthesize_imn(t_coil: TwoPortMatrix, ports: PortPair | TwoPortMatrix,
                   f0: float) -> ImnSynthesis:
    """Solve all 64 L-section variants that match both link ports at f0.

    ``ports`` holds the port impedances: a PortPair, or the S matrix of
    ``t_coil`` referred to them, as ``abcd_to_s(t_coil, zp1, zp2)`` gives
    it, which a caller that has it passes so that it is not converted
    again.

    Every emitted solution has all-positive element values and has been
    re-verified to drive |S11,link| and |S22,link| below the return-loss
    floor.  Ranking: capacitor-rich networks first (implants avoid bulky
    inductors), then by descending |S21,link|, then by smaller total
    reactance at f0.  Variants are verified and ranked on the link's S
    entries as plain numbers; a solution's LSectionIMN and validated S
    matrix are built when it is read.
    """
    t_coil._expect(Representation.ABCD)
    netcore.check_frequency(f0)
    if isinstance(ports, TwoPortMatrix):
        ports._expect(Representation.S)
        s = ports
    else:
        s = abcd_to_s(t_coil, ports.zp1, ports.zp2)
    zp1, zp2 = s.zp1, s.zp2
    z_ms, z_ml = simultaneous_match_targets(s)

    for name, z in (("source", z_ms), ("load", z_ml)):
        if z.real <= 1e-9 * abs(z):
            raise UnmatchableError(
                f"{name}-side impedance at f0 is purely reactive ({z:.6g} ohm)")

    gamma_s = netcore.reflection_of(z_ms, zp1)
    gamma_l = netcore.reflection_of(z_ml, zp2)
    if abs(gamma_s) < 1e-9 and abs(gamma_l) < 1e-9:
        return ImnSynthesis((), True)

    tx_options = _solve_side(zp1, z_ms, f0)
    rx_options = _solve_side(zp2, z_ml, f0)
    # A variant's link is head * tail, as assemble_link builds it.
    tails = [(rx, _section(rx.series, rx.shunt, not rx.series_at_port, f0), *rx.rank_terms(f0))
             for rx in rx_options]
    kept = []
    for tx in tx_options:
        head = _head(_section(tx.series, tx.shunt, tx.series_at_port, f0), t_coil)
        tx_caps, tx_x, tx_kinds = tx.rank_terms(f0)
        for rx, tail, rx_caps, rx_x, rx_kinds in tails:
            link = abcd_chain(head, tail)
            if not all(map(cmath.isfinite, link)):
                netcore.abcd_matrix(*link)  # raises the validated matrix's ValueError
            s_link = netcore.abcd_entries_to_s(*link, zp1, zp2)
            if not all(map(cmath.isfinite, s_link)):
                netcore.s_matrix(*s_link, zp1, zp2)  # likewise
            if (_db(abs(s_link[0])) > RETURN_LOSS_FLOOR_DB
                    or _db(abs(s_link[3])) > RETURN_LOSS_FLOOR_DB):
                continue
            case = _case_of(tx.series_at_port, rx.series_at_port)
            # |S21| quantized so numerically identical optima actually tie
            # and fall through to the total reactance at f0, summed from 0
            # in the order of LSectionIMN.elements.
            key = (
                -(tx_caps + rx_caps),
                -round(_mag(_db(abs(s_link[2]))), 9),
                sum(tx_x + rx_x),
                case,
                tx_kinds + rx_kinds,
            )
            kept.append((key, (case, tx, rx), s_link))

    kept.sort(key=lambda item: item[0])
    solutions = BuiltOnRead(functools.partial(_solution, zp1, zp2),
                            [item[1] for item in kept], [item[2] for item in kept])
    return ImnSynthesis(solutions, False)


def _solution(zp1: float, zp2: float, variant: tuple, s_link: Entries) -> ImnSolution:
    case, tx, rx = variant
    return ImnSolution(LSectionIMN(case, tx.series, tx.shunt, rx.series, rx.shunt),
                       netcore.s_matrix(*s_link, zp1, zp2))
