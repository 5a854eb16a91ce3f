"""Property tests over the coupled-coil domain.

Coil pairs drawn log-uniformly from L 1 nH - 10 uH, R 0.01 - 100 ohm,
k 0.01 - 0.95, f 1 - 100 MHz and port impedances 1 - 1000 ohm must
round-trip between Z, S and ABCD and must stay passive: |S21| <= 1, a
physical PTE_max, and no passive load beating PTE_max.  Examples are
derandomized so every run checks the same draws.

Two limits of floating point are part of the properties, not exceptions
to them:

* Going into the ABCD form and back (Z -> ABCD -> Z, S -> ABCD -> S)
  recovers the transfer entries from the difference AD - BC of products
  about kappa = |Z11 Z22 / (Z12 Z21)| times larger than it, so the error
  bound grows with kappa (up to ~1e12 for weak coupling at low Q).
* K_r is computed from |S11|^2 and |S22|^2 near 1 and divided by
  |S21|^2, so for nearly lossless, weakly transmitting data it carries a
  rounding error of about eps / |S21|^2 and can land just below 1.
"""

import cmath
import math
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from wptkit import netcore
from wptkit.coil import CoilPair, PortPair, coil_z
from wptkit.efficiency import pte_max, pte_two_port

EPS = sys.float_info.epsilon
ROUND_TRIP_TOL = 1e-10


def log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def links(draw):
    """(Z matrix of a coil pair, ports) at one frequency."""
    inductance = log_uniform(1e-9, 10e-6)
    resistance = log_uniform(0.01, 100.0)
    port = log_uniform(1.0, 1000.0)
    coils = CoilPair(draw(inductance), draw(inductance), draw(resistance),
                     draw(resistance), draw(st.floats(0.01, 0.95)))
    return coil_z(coils, draw(log_uniform(1e6, 100e6))), PortPair(draw(port), draw(port))


def kappa(z: netcore.TwoPortMatrix) -> float:
    return abs(z.m11 * z.m22) / abs(z.m12 * z.m21)


def assert_same(a: netcore.TwoPortMatrix, b: netcore.TwoPortMatrix,
                tol: float = ROUND_TRIP_TOL) -> None:
    entries = ("m11", "m12", "m21", "m22")
    scale = max(abs(getattr(a, name)) for name in entries)
    for name in entries:
        assert abs(getattr(a, name) - getattr(b, name)) <= tol * scale, name


derandomized = settings(max_examples=300, deadline=None, derandomize=True)


@derandomized
@given(links())
def test_z_s_round_trip(link):
    z, ports = link
    assert_same(z, netcore.s_to_z(netcore.z_to_s(z, ports.zp1, ports.zp2)))


@derandomized
@given(links())
def test_abcd_s_round_trip(link):
    z, ports = link
    abcd = netcore.z_to_abcd(z)
    assert_same(abcd, netcore.s_to_abcd(netcore.abcd_to_s(abcd, ports.zp1, ports.zp2)))


@derandomized
@given(links())
def test_round_trips_through_abcd(link):
    z, ports = link
    tol = max(ROUND_TRIP_TOL, 16 * EPS * kappa(z))
    assert_same(z, netcore.abcd_to_z(netcore.z_to_abcd(z)), tol)
    s = netcore.z_to_s(z, ports.zp1, ports.zp2)
    assert_same(s, netcore.abcd_to_s(netcore.s_to_abcd(s), ports.zp1, ports.zp2), tol)


@derandomized
@given(links(), st.floats(0.0, 0.999), st.floats(-math.pi, math.pi))
def test_passive(link, gamma_mag, gamma_phase):
    z, ports = link
    s = netcore.z_to_s(z, ports.zp1, ports.zp2)
    assert abs(s.m21) <= 1.0
    best = pte_max(s)
    if not best.physical:
        assert 1.0 - best.k_r <= 4 * EPS / abs(s.m21) ** 2
        return
    assert 0.0 <= best.pte_max <= 1.0
    gamma_load = cmath.rect(gamma_mag, gamma_phase)
    assert pte_two_port(s, gamma_load) <= best.pte_max * (1.0 + 1e-9)
