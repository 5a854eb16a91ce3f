"""Exact two-port network algebra.

Representation conversions (S, Z, ABCD with real, possibly unequal
reference impedances), cascading, and reflection coefficients.  All
operations are pure functions on immutable value objects; ABCD is the
canonical form for cascading and S the canonical form for reporting.

A matrix is validated in one place, ``TwoPortMatrix.__post_init__``, so
every stage result is checked once.  Chains of ABCD factors (``cascade``,
``cascade_all``, the tissue ladder, the matching-network link) multiply
plain ``(A, B, C, D)`` entry tuples with :func:`abcd_chain` and build a
matrix from the product only; a non-finite intermediate stays non-finite
through the products, so it still raises at the stage result.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum

from .errors import DegenerateNetworkError

# Denominators below this magnitude are treated as singular instead of
# silently overflowing into Inf.
_DENOM_FLOOR = 1e-300


Entries = tuple[complex, complex, complex, complex]

# (A, B, C, D) of the identity two-port as abcd_matrix stores it: complex
# entries, so a chain multiplies complex by complex throughout.
IDENTITY = (1 + 0j, 0j, 0j, 1 + 0j)


class Representation(Enum):
    S = "S"
    Z = "Z"
    ABCD = "ABCD"


def _require_finite(name: str, value: complex) -> complex:
    value = complex(value)
    if not (cmath.isfinite(value)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class TwoPortMatrix:
    """Complex 2x2 network in S, Z or ABCD form.

    ``zp1``/``zp2`` are the real reference impedances of port 1 and 2.
    They are mandatory for S matrices and optional bookkeeping for the
    others.
    """

    representation: Representation
    m11: complex
    m12: complex
    m21: complex
    m22: complex
    zp1: float | None = None
    zp2: float | None = None

    def __post_init__(self):
        for name in ("m11", "m12", "m21", "m22"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        for name in ("zp1", "zp2"):
            zp = getattr(self, name)
            if zp is not None:
                zp = float(zp)
                if not zp > 0.0:
                    raise ValueError(f"{name} must be > 0, got {zp}")
                object.__setattr__(self, name, zp)
        if self.representation is Representation.S and (self.zp1 is None or self.zp2 is None):
            raise ValueError("S-parameter matrices require zp1 and zp2")

    @property
    def entries(self) -> Entries:
        return (self.m11, self.m12, self.m21, self.m22)

    @property
    def det(self) -> complex:
        return self.m11 * self.m22 - self.m12 * self.m21

    def _expect(self, rep: Representation) -> None:
        if self.representation is not rep:
            raise ValueError(f"expected {rep.value} matrix, got {self.representation.value}")


def s_matrix(s11: complex, s12: complex, s21: complex, s22: complex,
             zp1: float, zp2: float) -> TwoPortMatrix:
    return TwoPortMatrix(Representation.S, s11, s12, s21, s22, zp1, zp2)


def z_matrix(z11: complex, z12: complex, z21: complex, z22: complex) -> TwoPortMatrix:
    return TwoPortMatrix(Representation.Z, z11, z12, z21, z22)


def abcd_matrix(a: complex, b: complex, c: complex, d: complex) -> TwoPortMatrix:
    return TwoPortMatrix(Representation.ABCD, a, b, c, d)


def identity_abcd() -> TwoPortMatrix:
    return abcd_matrix(1.0, 0.0, 0.0, 1.0)


def series_impedance_abcd(z: complex) -> TwoPortMatrix:
    """ABCD of a single series impedance z."""
    return abcd_matrix(1.0, z, 0.0, 1.0)


def shunt_admittance_abcd(y: complex) -> TwoPortMatrix:
    """ABCD of a single shunt admittance y to ground."""
    return abcd_matrix(1.0, 0.0, y, 1.0)


def _guard_denominator(value: complex, context: str) -> complex:
    if abs(value) < _DENOM_FLOOR:
        raise DegenerateNetworkError(f"singular denominator in {context}: |{value!r}| < 1e-300")
    return value


def z_to_s(net: TwoPortMatrix, zp1: float, zp2: float) -> TwoPortMatrix:
    """Convert a Z matrix to S for real reference impedances zp1, zp2.

    S11 = ((Z11-zp1)(Z22+zp2) - Z12 Z21) / dZ,
    S21 = 2 Z21 sqrt(zp1 zp2) / dZ (S12 likewise), with
    dZ = (Z11+zp1)(Z22+zp2) - Z12 Z21.
    """
    net._expect(Representation.Z)
    if not (zp1 > 0 and zp2 > 0):
        raise ValueError("reference impedances must be > 0")
    z11, z12, z21, z22 = net.m11, net.m12, net.m21, net.m22
    dz = _guard_denominator((z11 + zp1) * (z22 + zp2) - z12 * z21, "z_to_s")
    root = (zp1 * zp2) ** 0.5
    return s_matrix(
        ((z11 - zp1) * (z22 + zp2) - z12 * z21) / dz,
        2.0 * z12 * root / dz,
        2.0 * z21 * root / dz,
        ((z11 + zp1) * (z22 - zp2) - z12 * z21) / dz,
        zp1, zp2,
    )


def s_to_z(net: TwoPortMatrix) -> TwoPortMatrix:
    """Inverse of :func:`z_to_s`, using the stored reference impedances."""
    net._expect(Representation.S)
    s11, s12, s21, s22 = net.m11, net.m12, net.m21, net.m22
    zp1, zp2 = net.zp1, net.zp2
    ds = _guard_denominator((1.0 - s11) * (1.0 - s22) - s12 * s21, "s_to_z")
    root = (zp1 * zp2) ** 0.5
    return z_matrix(
        zp1 * ((1.0 + s11) * (1.0 - s22) + s12 * s21) / ds,
        2.0 * s12 * root / ds,
        2.0 * s21 * root / ds,
        zp2 * ((1.0 - s11) * (1.0 + s22) + s12 * s21) / ds,
    )


def abcd_to_s(net: TwoPortMatrix, zp1: float, zp2: float) -> TwoPortMatrix:
    """Convert ABCD to S for real reference impedances zp1, zp2."""
    net._expect(Representation.ABCD)
    if not (zp1 > 0 and zp2 > 0):
        raise ValueError("reference impedances must be > 0")
    a, b, c, d = net.m11, net.m12, net.m21, net.m22
    den = _guard_denominator(a * zp2 + b + c * zp1 * zp2 + d * zp1, "abcd_to_s")
    root = (zp1 * zp2) ** 0.5
    return s_matrix(
        (a * zp2 + b - c * zp1 * zp2 - d * zp1) / den,
        2.0 * (a * d - b * c) * root / den,
        2.0 * root / den,
        (-a * zp2 + b - c * zp1 * zp2 + d * zp1) / den,
        zp1, zp2,
    )


def s_to_abcd(net: TwoPortMatrix) -> TwoPortMatrix:
    """Convert S (with stored zp1, zp2) to ABCD.

    Requires a transmitting network; for reciprocal data (S12 = S21)
    this matches the unequal-reference-impedance transmission formulas.
    """
    net._expect(Representation.S)
    s11, s12, s21, s22 = net.m11, net.m12, net.m21, net.m22
    if abs(s12) < _DENOM_FLOOR or abs(s21) < _DENOM_FLOOR:
        raise DegenerateNetworkError("s_to_abcd: no transmission (S12 or S21 is zero)")
    zp1, zp2 = net.zp1, net.zp2
    den = 2.0 * s21
    x = s12 * s21
    p, q = 1.0 + s11, 1.0 - s11
    u, v = 1.0 + s22, 1.0 - s22
    root = (zp1 * zp2) ** 0.5
    return abcd_matrix(
        (p * v + x) / den * (zp1 / zp2) ** 0.5,
        (p * u - x) / den * root,
        (q * v - x) / den / root,
        (q * u + x) / den * (zp2 / zp1) ** 0.5,
    )


def z_to_abcd(net: TwoPortMatrix) -> TwoPortMatrix:
    net._expect(Representation.Z)
    z11, z12, z21, z22 = net.m11, net.m12, net.m21, net.m22
    z21 = _guard_denominator(z21, "z_to_abcd")
    return abcd_matrix(z11 / z21, (z11 * z22 - z12 * z21) / z21, 1.0 / z21, z22 / z21)


def abcd_to_z(net: TwoPortMatrix) -> TwoPortMatrix:
    net._expect(Representation.ABCD)
    a, b, c, d = net.m11, net.m12, net.m21, net.m22
    c = _guard_denominator(c, "abcd_to_z")
    return z_matrix(a / c, (a * d - b * c) / c, 1.0 / c, d / c)


def abcd_chain(*factors: Entries) -> Entries:
    """Product of ABCD entry tuples, one factor at a time from the left:
    port 2 of each factor feeds port 1 of the next.  Nothing is validated
    here; wrap the result in :func:`abcd_matrix`."""
    a, b, c, d = factors[0]
    for e, f, g, h in factors[1:]:
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return a, b, c, d


def cascade(a: TwoPortMatrix, b: TwoPortMatrix) -> TwoPortMatrix:
    """Chain two ABCD matrices: port 2 of ``a`` feeds port 1 of ``b``."""
    a._expect(Representation.ABCD)
    b._expect(Representation.ABCD)
    return abcd_matrix(*abcd_chain(a.entries, b.entries))


def cascade_all(*nets: TwoPortMatrix) -> TwoPortMatrix:
    for net in nets:
        net._expect(Representation.ABCD)
    return abcd_matrix(*abcd_chain(IDENTITY, *(net.entries for net in nets)))


def input_reflection(s: TwoPortMatrix, gamma_load: complex) -> complex:
    """Reflection looking into port 1 with port 2 terminated by gamma_load.

    Gamma_in = S11 + S21^2 Gamma_L / (1 - S22 Gamma_L); the S21^2 form
    assumes a reciprocal network.
    """
    s._expect(Representation.S)
    gamma_load = complex(gamma_load)
    if abs(gamma_load) > 1.0 + 1e-12:
        raise ValueError(f"|gamma_load| must be <= 1, got {abs(gamma_load)}")
    den = _guard_denominator(1.0 - s.m22 * gamma_load, "input_reflection")
    return s.m11 + s.m21 * s.m21 * gamma_load / den


def terminated_input_impedance(abcd: TwoPortMatrix, z_load: complex) -> complex:
    """Input impedance of an ABCD two-port terminated by z_load."""
    abcd._expect(Representation.ABCD)
    den = _guard_denominator(abcd.m21 * z_load + abcd.m22, "terminated_input_impedance")
    return (abcd.m11 * z_load + abcd.m12) / den


def reflection_of(z: complex, z0: float) -> complex:
    """Reflection coefficient of impedance z against real reference z0."""
    den = _guard_denominator(z + z0, "reflection_of")
    return (z - z0) / den


def impedance_of(gamma: complex, z0: float) -> complex:
    """Impedance corresponding to reflection coefficient gamma at z0."""
    den = _guard_denominator(1.0 - gamma, "impedance_of")
    return z0 * (1.0 + gamma) / den
