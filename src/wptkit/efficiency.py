"""Efficiency and safety arithmetic for the assembled link.

Power transfer efficiency from S-parameters, the maximum achievable
PTE under simultaneous conjugate matching, the piecewise port-impedance
correction factor for links not referenced to 50 ohm, and the
SAR-constrained power-delivered-to-load budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from . import netcore
from .coil import PortPair
from .netcore import Representation, TwoPortMatrix, input_reflection, lift, square, where

SAR_LIMIT = 1.6  # W/kg, default SAR limit of the power budget


def pte_two_port(s: TwoPortMatrix, gamma_load: complex) -> float:
    """Operating power efficiency of a two-port terminated by gamma_load:

        PTE = |S21|^2 (1 - |G_L|^2) / ((1 - |G_in|^2) |1 - S22 G_L|^2)
    """
    s._expect(Representation.S)
    gamma_load = complex(gamma_load)
    if abs(gamma_load) >= 1.0:
        raise ValueError(f"|gamma_load| must be < 1, got {abs(gamma_load)}")
    den_term = 1.0 - s.m22 * gamma_load
    if abs(den_term) < 1e-300:
        raise ZeroDivisionError("1 - S22*gamma_load vanished")
    g_in = input_reflection(s, gamma_load)
    input_factor = 1.0 - abs(g_in) ** 2
    if abs(input_factor) < 1e-300:
        raise ZeroDivisionError("input is totally reflective (|Gamma_in| = 1)")
    return (abs(s.m21) ** 2) * (1.0 - abs(gamma_load) ** 2) / (input_factor * abs(den_term) ** 2)


class MaxEfficiency(NamedTuple):
    """PTE under ideal conjugate matching plus the K_r factor it came
    from.  ``physical`` is False when K_r < 1 (active or noisy data);
    the raw K_r is still reported, pte_max is NaN, nothing is clamped.
    Along a frequency axis each field is an array, and a point without
    transmission has NaN pte_max and K_r and is not physical."""

    pte_max: float
    k_r: float
    physical: bool = True


@netcore.quiet
def pte_max(s: TwoPortMatrix) -> MaxEfficiency:
    """Maximum achievable PTE of a reciprocal two-port, at one frequency or
    along an axis (see :mod:`netcore`):

        K_r = (1 + a + b + c) / (2 |S21^2|),
        a = |S11 S22 - S21^2|^2, b = -|S11|^2, c = -|S22|^2,
        PTE_max = K_r - sqrt(K_r^2 - 1).

    At one frequency a network without transmission raises ValueError.
    """
    s._expect(Representation.S)
    s11, _, s21, s22 = s.operands
    s21_sq = s21 * s21
    mag = abs(s21_sq)
    blocked = mag < 1e-300
    if not netcore.on_axis(blocked) and blocked:
        raise ValueError("pte_max needs |S21| > 0")
    a = square(abs(s11 * s22 - s21_sq))
    b = -square(abs(s11))
    c = -square(abs(s22))
    k_r = where(blocked, math.nan, (1.0 + a + b + c) / (2.0 * mag))
    physical = where(blocked | (k_r < 1.0), False, True)
    # 1/(K + sqrt(K^2-1)) equals K - sqrt(K^2-1) without the cancellation
    # that wrecks precision for weakly coupled links (large K_r).
    pte = 1.0 / (k_r + netcore.sqrt(where(physical, k_r * k_r - 1.0, math.nan)))
    return MaxEfficiency(pte, k_r, physical)


def gamma_factor(ports: PortPair) -> float:
    """Port-impedance correction for PTE = gamma |S21,link|^2.

    Piecewise in (zp1, zp2) against the 50 ohm reference; a port at
    exactly 50 ohm falls through to the equal-impedance regime, and the
    branches agree wherever they meet.  The factor can exceed 1 under
    strong mismatch; it is reported as written, never clamped.
    """
    zp1, zp2 = ports.zp1, ports.zp2
    if zp1 == 50.0 and zp2 == 50.0:
        return 1.0
    if zp2 >= 50.0 and zp1 <= 50.0:
        return zp2 / zp1
    if zp2 >= 50.0 and zp1 >= 50.0:
        return (zp2 / 50.0) * (zp1 / 50.0)
    if zp2 <= 50.0 and zp1 >= 50.0:
        return zp1 / zp2
    return (50.0 / zp2) * (50.0 / zp1)


def pte_link(s21_link, ports: PortPair):
    """Link PTE from the matched-link transmission, gamma |S21,link|^2, at
    one frequency or along an axis of S21 values."""
    return gamma_factor(ports) * square(abs(lift(s21_link)))


@dataclass(frozen=True)
class PteReport:
    """Efficiency summary at the design frequency."""

    pte: float
    pte_max: float
    k_r: float
    gamma: float
    f0: float


@dataclass(frozen=True)
class SarBudget:
    """Deliverable-power budget under a SAR-capped transmit power."""

    sar_limit: float
    p_tx_max: float
    pte: float

    def __post_init__(self):
        if self.p_tx_max < 0:
            raise ValueError("transmit power must be >= 0")
        if not 0.0 <= self.pte <= 1.0:
            raise ValueError(f"PTE must be in [0, 1], got {self.pte}")

    @property
    def pdl_max(self) -> float:
        return self.p_tx_max * self.pte


def sar_constrained_pdl(p_tx_max: float, pte: float,
                        sar_limit: float = SAR_LIMIT) -> SarBudget:
    """Budget arithmetic only: pdl_max = p_tx_max * pte.  The SAR-capped
    transmit power itself comes from field simulation, outside this tool."""
    return SarBudget(sar_limit, p_tx_max, pte)
