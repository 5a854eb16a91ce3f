"""Two-port algebra: conversions, cascading, reflection.

Round trips Z <-> S <-> ABCD must reproduce inputs to 1e-12 relative,
reciprocity must survive every conversion, and degenerate denominators
must raise instead of overflowing.
"""

import cmath
import math
import random

import pytest

from wptkit import netcore
from wptkit.errors import DegenerateNetworkError
from wptkit.netcore import (
    Representation,
    abcd_matrix,
    abcd_to_s,
    abcd_to_z,
    cascade,
    input_reflection,
    s_matrix,
    s_to_abcd,
    s_to_z,
    z_matrix,
    z_to_abcd,
    z_to_s,
)

IDENTITY = abcd_matrix(1.0, 0.0, 0.0, 1.0)


def close(a: complex, b: complex, tol: float = 1e-12, scale: float = 1.0) -> bool:
    return abs(a - b) <= tol * max(scale, abs(a), abs(b))


def random_coil_z(rng: random.Random, f: float) -> netcore.TwoPortMatrix:
    w = 2.0 * math.pi * f
    l1 = rng.uniform(50e-9, 2e-6)
    l2 = rng.uniform(50e-9, 2e-6)
    r1 = rng.uniform(0.1, 5.0)
    r2 = rng.uniform(0.1, 5.0)
    k = rng.uniform(0.01, 0.6)
    m = k * math.sqrt(l1 * l2)
    return z_matrix(r1 + 1j * w * l1, 1j * w * m, 1j * w * m, r2 + 1j * w * l2)


class TestZToS:
    def test_uncoupled_matched_ports(self):
        s = z_to_s(z_matrix(50, 0, 0, 50), 50, 50)
        assert abs(s.m11) < 1e-15 and abs(s.m22) < 1e-15
        assert abs(s.m21) < 1e-15 and abs(s.m12) < 1e-15

    def test_series_element_closed_form(self):
        # Series impedance Z between equal ports: S11 = Z/(Z + 2 Z0),
        # S21 = 2 Z0/(Z + 2 Z0).  Realized through the ABCD route.
        s = abcd_to_s(abcd_matrix(1.0, 50.0, 0.0, 1.0), 50, 50)
        assert close(s.m11, 1.0 / 3.0)
        assert close(s.m21, 2.0 / 3.0)

    def test_matches_direct_transfer_formula(self):
        # |S21| from the conversion equals the closed-form coupled-coil
        # expression evaluated independently.
        f, l, r, k = 20e6, 400e-9, 0.5, 0.1
        w = 2.0 * math.pi * f
        m = k * l
        s = z_to_s(z_matrix(r + 1j * w * l, 1j * w * m, 1j * w * m, r + 1j * w * l), 50, 50)
        t1 = 2.0 * m * 50.0
        t2 = (r + 50.0) ** 2
        t3 = l * l - m * m
        t4 = 2.0 * l * (r + 50.0)
        expected = w * t1 / math.sqrt((t2 - t3 * w * w) ** 2 + (w * t4) ** 2)
        assert abs(abs(s.m21) - expected) < 1e-12

    def test_stores_reference_impedances(self):
        s = z_to_s(z_matrix(10, 1j, 1j, 20), 25, 75)
        assert s.zp1 == 25 and s.zp2 == 75

    def test_singular_network_raises(self):
        with pytest.raises(DegenerateNetworkError):
            z_to_s(z_matrix(-50, 0, 0, -50), 50, 50)


class TestAbcdToS:
    def test_identity_is_through(self):
        s = abcd_to_s(IDENTITY, 50, 50)
        assert abs(s.m11) < 1e-15 and abs(s.m22) < 1e-15
        assert close(s.m21, 1.0) and close(s.m12, 1.0)

    def test_identity_unequal_ports(self):
        # A direct junction between 50 and 100 ohm references reflects
        # (zp2 - zp1)/(zp2 + zp1) and conserves energy.
        s = abcd_to_s(IDENTITY, 50, 100)
        assert close(s.m11, 1.0 / 3.0)
        assert abs(abs(s.m21) ** 2 + abs(s.m11) ** 2 - 1.0) < 1e-12

    def test_cross_representation_consistency(self):
        f, l, r, k = 20e6, 400e-9, 0.5, 0.1
        w = 2.0 * math.pi * f
        m = k * l
        za, zb = r + 1j * w * l, r + 1j * w * l
        jwm = 1j * w * m
        t = abcd_matrix(za / jwm, (w * w * m * m + za * zb) / jwm, 1.0 / jwm, zb / jwm)
        z = z_matrix(za, jwm, jwm, zb)
        s_a = abcd_to_s(t, 50, 50)
        s_z = z_to_s(z, 50, 50)
        for name in ("m11", "m12", "m21", "m22"):
            assert close(getattr(s_a, name), getattr(s_z, name), 1e-12)

    def test_zero_denominator_raises(self):
        with pytest.raises(DegenerateNetworkError):
            abcd_to_s(abcd_matrix(1.0, -100.0, 0.0, 1.0), 50, 50)


class TestSToAbcd:
    def test_through_gives_identity(self):
        t = s_to_abcd(s_matrix(0, 1, 1, 0, 50, 50))
        assert close(t.m11, 1) and abs(t.m12) < 1e-15
        assert abs(t.m21) < 1e-15 and close(t.m22, 1)

    def test_no_transmission_raises(self):
        with pytest.raises(DegenerateNetworkError):
            s_to_abcd(s_matrix(0.5, 0, 0, 0.5, 50, 50))

    def test_round_trip_random_passive(self):
        rng = random.Random(2024)
        for _ in range(300):
            f = 10 ** rng.uniform(6, 8)
            t = z_to_abcd(random_coil_z(rng, f))
            zp1 = rng.uniform(10, 200)
            zp2 = rng.uniform(10, 200)
            back = s_to_abcd(abcd_to_s(t, zp1, zp2))
            scale = max(abs(t.m11), abs(t.m12), abs(t.m21), abs(t.m22))
            for name in ("m11", "m12", "m21", "m22"):
                a, b = getattr(t, name), getattr(back, name)
                assert abs(a - b) <= 1e-12 * scale

    def test_coupling_recovered_from_abcd(self):
        # Re{A} Re{D} = (L1/M)(L2/M) = 1/k^2 for the coupled-coil model.
        f, l, r, k = 20e6, 400e-9, 0.5, 0.1
        w = 2.0 * math.pi * f
        m = k * l
        s = z_to_s(z_matrix(r + 1j * w * l, 1j * w * m, 1j * w * m, r + 1j * w * l), 50, 50)
        t = s_to_abcd(s)
        assert (t.m11.real * t.m22.real) ** -0.5 == pytest.approx(k, rel=1e-9)


class TestZRoundTrip:
    def test_z_s_z(self):
        rng = random.Random(7)
        for _ in range(300):
            f = 10 ** rng.uniform(6, 8)
            z = random_coil_z(rng, f)
            back = s_to_z(z_to_s(z, 50, 50))
            scale = max(abs(z.m11), abs(z.m12), abs(z.m21), abs(z.m22))
            for name in ("m11", "m12", "m21", "m22"):
                assert abs(getattr(z, name) - getattr(back, name)) <= 1e-12 * scale

    def test_z_abcd_z(self):
        rng = random.Random(8)
        for _ in range(300):
            f = 10 ** rng.uniform(6, 8)
            z = random_coil_z(rng, f)
            back = abcd_to_z(z_to_abcd(z))
            scale = max(abs(z.m11), abs(z.m12), abs(z.m21), abs(z.m22))
            for name in ("m11", "m12", "m21", "m22"):
                assert abs(getattr(z, name) - getattr(back, name)) <= 1e-12 * scale


class TestCascade:
    def test_identity_neutral(self):
        x = abcd_matrix(1 + 2j, 3, 4j, 5)
        out = cascade(IDENTITY, x)
        assert out.m11 == x.m11 and out.m12 == x.m12
        assert out.m21 == x.m21 and out.m22 == x.m22

    def test_series_elements_add(self):
        out = cascade(abcd_matrix(1.0, 10 + 5j, 0.0, 1.0), abcd_matrix(1.0, 20 - 1j, 0.0, 1.0))
        expect = abcd_matrix(1.0, 30 + 4j, 0.0, 1.0)
        assert out.m12 == expect.m12
        assert out.m11 == 1 and out.m22 == 1 and out.m21 == 0

    def test_determinant_multiplicative(self):
        rng = random.Random(11)
        for _ in range(100):
            f = 10 ** rng.uniform(6, 8)
            a = z_to_abcd(random_coil_z(rng, f))
            b = z_to_abcd(random_coil_z(rng, f))
            chained = cascade(a, b)
            assert abs(chained.det - a.det * b.det) < 1e-9 * max(1.0, abs(chained.det))
            assert abs(chained.det - 1.0) < 1e-9

    def test_cascade_requires_abcd(self):
        with pytest.raises(ValueError):
            cascade(IDENTITY, s_matrix(0, 1, 1, 0, 50, 50))


class TestInputReflection:
    def test_matched_load(self):
        s = s_matrix(0.3 + 0.1j, 0.5, 0.5, -0.2j, 50, 50)
        assert input_reflection(s, 0) == s.m11

    def test_isolated_ports(self):
        s = s_matrix(0.4, 0, 0, 0.4, 50, 50)
        assert input_reflection(s, 0.7) == s.m11

    def test_impedance_domain_oracle(self):
        # Gamma_in from the S-domain formula equals the reflection of the
        # terminated-network input impedance computed in the Z domain.
        rng = random.Random(23)
        for _ in range(100):
            f = 10 ** rng.uniform(6, 8)
            z = random_coil_z(rng, f)
            s = z_to_s(z, 50, 50)
            gamma_l = cmath.rect(rng.uniform(0, 0.9), rng.uniform(0, 2 * math.pi))
            z_load = 50.0 * (1 + gamma_l) / (1 - gamma_l)
            z_in = z.m11 - z.m12 * z.m21 / (z.m22 + z_load)
            expected = (z_in - 50.0) / (z_in + 50.0)
            got = input_reflection(s, gamma_l)
            assert abs(got - expected) < 1e-10

    def test_rejects_active_load(self):
        s = s_matrix(0.1, 0.5, 0.5, 0.1, 50, 50)
        with pytest.raises(ValueError):
            input_reflection(s, 1.5)


class TestMatrixValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            z_matrix(float("nan"), 0, 0, 50)

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            abcd_matrix(1, complex(float("inf"), 0), 0, 1)

    def test_s_requires_reference(self):
        with pytest.raises(ValueError):
            netcore.TwoPortMatrix(Representation.S, 0, 1, 1, 0)

    def test_rejects_nonpositive_reference(self):
        with pytest.raises(ValueError):
            s_matrix(0, 1, 1, 0, -50, 50)
