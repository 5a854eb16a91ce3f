"""Coupled-coil electrical model of the bare inductive link.

Covers the impedance matrix of two magnetically coupled coils, the
closed-form |S21| of the untuned link, the frequency where it peaks,
the self-inductance that places that peak on a target frequency, and
the inverse problem of recovering (L1, L2, R1, R2, k) from measured or
simulated S-parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import netcore
from .errors import DegenerateNetworkError
from .netcore import Representation, TwoPortMatrix, abcd_matrix, z_matrix

# Two reciprocity estimates (S12, S21) further apart than this are rejected.
RECIPROCITY_TOL = 1e-6


@dataclass(frozen=True)
class CoilPair:
    """Electrical model of the TX/RX coils: self-inductances, series
    resistances and coupling coefficient."""

    l1: float
    l2: float
    r1: float
    r2: float
    k: float

    def __post_init__(self):
        if not (self.l1 > 0 and self.l2 > 0):
            raise ValueError("self-inductances must be > 0")
        if self.r1 < 0 or self.r2 < 0:
            raise ValueError("coil resistances must be >= 0")
        if not (0.0 <= self.k < 1.0):
            raise ValueError(f"coupling coefficient must be in [0, 1), got {self.k}")

    @property
    def mutual(self) -> float:
        return self.k * math.sqrt(self.l1 * self.l2)


@dataclass(frozen=True)
class PortPair:
    """Real source/load port impedances at the TX and RX ends."""

    zp1: float = 50.0
    zp2: float = 50.0

    def __post_init__(self):
        if not (self.zp1 > 0 and self.zp2 > 0):
            raise ValueError("port impedances must be > 0")


@dataclass(frozen=True)
class LinkAuxiliaries:
    """The four composites the closed-form |S21| is built from:

    t1 = 2 M sqrt(zp1 zp2)
    t2 = (R1 + zp1)(R2 + zp2)
    t3 = L1 L2 - M^2
    t4 = L1 (R2 + zp2) + L2 (R1 + zp1)
    """

    t1: float
    t2: float
    t3: float
    t4: float


def link_auxiliaries(coils: CoilPair, ports: PortPair) -> LinkAuxiliaries:
    m = coils.mutual
    return LinkAuxiliaries(
        t1=2.0 * m * math.sqrt(ports.zp1 * ports.zp2),
        t2=(coils.r1 + ports.zp1) * (coils.r2 + ports.zp2),
        t3=coils.l1 * coils.l2 - m * m,
        t4=coils.l1 * (coils.r2 + ports.zp2) + coils.l2 * (coils.r1 + ports.zp1),
    )


def coil_z(coils: CoilPair, f: float) -> TwoPortMatrix:
    """Impedance matrix of the coupled pair at frequency f:
    Z11 = R1 + jwL1, Z12 = Z21 = jwM, Z22 = R2 + jwL2."""
    if not f > 0:
        raise ValueError("frequency must be > 0")
    w = 2.0 * math.pi * f
    m = coils.mutual
    return z_matrix(
        coils.r1 + 1j * w * coils.l1,
        1j * w * m,
        1j * w * m,
        coils.r2 + 1j * w * coils.l2,
    )


@netcore.quiet
def coil_abcd(coils: CoilPair, f) -> TwoPortMatrix:
    """Transmission matrix of the coupled pair, at a frequency or along an
    array of them (see :mod:`netcore`):
    A = (R1+jwL1)/(jwM), B = (w^2 M^2 + (R1+jwL1)(R2+jwL2))/(jwM),
    C = 1/(jwM), D = (R2+jwL2)/(jwM)."""
    w = 2.0 * math.pi * netcore.check_frequency(f)
    m = coils.mutual
    jw = 1j * netcore.promote(w)
    jwm = jw * m
    if netcore.first_point(jwm == 0.0) is not None:
        raise DegenerateNetworkError("uncoupled coils (M = 0) have no ABCD form")
    za = coils.r1 + jw * coils.l1
    zb = coils.r2 + jw * coils.l2
    return abcd_matrix(za / jwm, (w * w * m * m + za * zb) / jwm, 1.0 / jwm, zb / jwm)


def s21_mag(coils: CoilPair, ports: PortPair, f: float) -> float:
    """|S21| of the bare link: w t1 / sqrt((t2 - t3 w^2)^2 + w^2 t4^2)."""
    if not f > 0:
        raise ValueError("frequency must be > 0")
    t = link_auxiliaries(coils, ports)
    w = 2.0 * math.pi * f
    return w * t.t1 / math.sqrt((t.t2 - t.t3 * w * w) ** 2 + (w * t.t4) ** 2)


def f_opt(coils: CoilPair, ports: PortPair) -> float:
    """Frequency at which the bare-link |S21| peaks: (1/2pi) sqrt(t2/t3)."""
    t = link_auxiliaries(coils, ports)
    if t.t3 <= 0.0:
        raise ValueError("t3 = L1 L2 - M^2 must be > 0 (requires k < 1)")
    return math.sqrt(t.t2 / t.t3) / (2.0 * math.pi)


def s_max(coils: CoilPair, ports: PortPair) -> float:
    """Peak |S21| of the bare link, t1/t4; equals s21_mag at f_opt."""
    t = link_auxiliaries(coils, ports)
    return t.t1 / t.t4


def l_opt(f_target: float, r1: float, r2: float, ports: PortPair, k: float) -> float:
    """Geometric-mean self-inductance placing the |S21| peak at f_target:

    L_opt = sqrt((R1 + zp1)(R2 + zp2) / (4 pi^2 f^2 (1 - k^2)))

    For symmetric coils L1 = L2 = L_opt; for asymmetric coils pick L1
    and pair it via :func:`asymmetric_partner`.
    """
    if not f_target > 0:
        raise ValueError("target frequency must be > 0")
    if not (0.0 <= k < 1.0):
        raise ValueError(f"coupling coefficient must be in [0, 1), got {k}")
    if r1 < 0 or r2 < 0:
        raise ValueError("coil resistances must be >= 0")
    num = (r1 + ports.zp1) * (r2 + ports.zp2)
    try:
        value = math.sqrt(num / ((2.0 * math.pi * f_target) ** 2 * (1.0 - k * k)))
    except (OverflowError, ZeroDivisionError):  # f_target near the ends of the float range
        value = math.nan
    if not 0.0 < value < math.inf:
        raise ValueError(f"L_opt at {f_target:g} Hz lies outside the float range")
    return value


def asymmetric_partner(l_opt_value: float, l1: float) -> float:
    """Second inductance of an asymmetric pair: L2 = L_opt^2 / L1."""
    if not (l_opt_value > 0 and l1 > 0):
        raise ValueError("inductances must be > 0")
    return l_opt_value * l_opt_value / l1


@dataclass(frozen=True)
class ExtractedParams:
    """Coil parameters recovered from S-parameters.

    Non-physical recoveries (negative L or R, k outside [0, 1)) are not
    errors: the raw numbers are kept and ``valid`` is cleared, with the
    offending fields named in ``issues``.
    """

    l1: float
    l2: float
    r1: float
    r2: float
    k: float
    valid: bool
    issues: tuple[str, ...] = ()

    def as_coil_pair(self) -> CoilPair:
        if not self.valid:
            raise ValueError(f"extraction is non-physical: {', '.join(self.issues)}")
        return CoilPair(self.l1, self.l2, self.r1, self.r2, self.k)


def extract_params(s: TwoPortMatrix, f: float) -> ExtractedParams:
    """Recover (L1, L2, R1, R2, k) from a reciprocal S matrix at f.

    Uses p = 1+S11, q = 1-S11, u = 1+S22, v = 1-S22, x = S12 S21:

        L1 = Im{zp1 (pv+x)/(qv-x)} / (2 pi f),  R1 = Re{same}
        L2 = Im{zp2 (qu+x)/(qv-x)} / (2 pi f),  R2 = Re{same}
        k  = [Re{A} Re{D}]^(-1/2)

    with A, D the transmission parameters of the network.  S12 and S21
    are averaged when they agree within RECIPROCITY_TOL, else rejected.
    """
    s._expect(Representation.S)
    if not f > 0:
        raise ValueError("frequency must be > 0")
    s12, s21 = s.m12, s.m21
    scale = max(abs(s12), abs(s21))
    if scale < 1e-300:
        raise DegenerateNetworkError("extract_params: no transmission (S12 = S21 = 0)")
    if abs(s12 - s21) > RECIPROCITY_TOL * scale:
        raise ValueError(
            f"network is not reciprocal within {RECIPROCITY_TOL:g}: "
            f"S12={s12!r}, S21={s21!r}"
        )
    s_fwd = 0.5 * (s12 + s21)
    x = s_fwd * s_fwd
    p, q = 1.0 + s.m11, 1.0 - s.m11
    u, v = 1.0 + s.m22, 1.0 - s.m22
    den = q * v - x
    if abs(den) < 1e-300:
        raise DegenerateNetworkError("extract_params: qv - x = 0")

    w = 2.0 * math.pi * f
    ratio1 = s.zp1 * (p * v + x) / den
    ratio2 = s.zp2 * (q * u + x) / den
    l1, r1 = ratio1.imag / w, ratio1.real
    l2, r2 = ratio2.imag / w, ratio2.real

    # A and D of the same network, for the coupling estimate.
    a = (p * v + x) / (2.0 * s_fwd) * (s.zp1 / s.zp2) ** 0.5
    d = (q * u + x) / (2.0 * s_fwd) * (s.zp2 / s.zp1) ** 0.5
    re_ad = a.real * d.real

    issues = []
    if l1 <= 0:
        issues.append(f"L1 = {l1:.6g} H")
    if l2 <= 0:
        issues.append(f"L2 = {l2:.6g} H")
    if r1 < 0:
        issues.append(f"R1 = {r1:.6g} ohm")
    if r2 < 0:
        issues.append(f"R2 = {r2:.6g} ohm")
    if re_ad <= 0:
        issues.append(f"Re(A) Re(D) = {re_ad:.6g} <= 0")
        k = float("nan")
    else:
        k = re_ad ** -0.5
        if not (0.0 <= k < 1.0):
            issues.append(f"k = {k:.6g}")
    return ExtractedParams(l1, l2, r1, r2, k, valid=not issues, issues=tuple(issues))


def coil_s(coils: CoilPair, ports: PortPair, f: float) -> TwoPortMatrix:
    """S-parameters of the bare pair at f (Z route)."""
    return netcore.z_to_s(coil_z(coils, f), ports.zp1, ports.zp2)
