"""Coupled-coil link model.

Checks the closed-form |S21| against the matrix route, the peak
frequency against a dense-grid argmax, the optimal-inductance design
values of the 20 MHz reference link, and parameter extraction as a left
inverse of the forward model.
"""

import math
import random

import numpy as np
import pytest

from wptkit import netcore, tissue
from wptkit.coil import (
    CoilPair,
    PortPair,
    asymmetric_partner,
    coil_abcd,
    coil_s,
    coil_z,
    extract_params,
    f_opt,
    l_opt,
    link_auxiliaries,
    s21_mag,
    s_max,
)

REF = CoilPair(400e-9, 400e-9, 0.5, 0.5, 0.1)
P50 = PortPair(50, 50)


def random_pair(rng: random.Random) -> CoilPair:
    return CoilPair(
        rng.uniform(50e-9, 2e-6), rng.uniform(50e-9, 2e-6),
        rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0),
        rng.uniform(0.01, 0.6),
    )


class TestCoilZ:
    def test_uncoupled(self):
        z = coil_z(CoilPair(1e-6, 1e-6, 1, 1, 0.0), 1e7)
        assert z.m12 == 0 and z.m21 == 0

    def test_reference_values(self):
        z = coil_z(REF, 20e6)
        w = 2.0 * math.pi * 20e6
        assert z.m11 == pytest.approx(0.5 + 1j * w * 400e-9)
        assert z.m12 == z.m21 == pytest.approx(1j * w * 40e-9)

    def test_linear_in_frequency(self):
        z1 = coil_z(REF, 10e6)
        z2 = coil_z(REF, 20e6)
        assert z2.m11.imag == pytest.approx(2 * z1.m11.imag)
        assert z2.m11.real == z1.m11.real
        assert z2.m21.imag == pytest.approx(2 * z1.m21.imag)


class TestS21Mag:
    def test_vanishes_at_dc_limit(self):
        assert s21_mag(REF, P50, 1.0) < 1e-6

    def test_reference_peak_level(self):
        # ~-20 dB at k = 0.1 for the 400 nH / 0.5 ohm reference pair.
        peak = s21_mag(REF, P50, f_opt(REF, P50))
        assert peak == pytest.approx(0.099, rel=2e-3)

    def test_matches_matrix_route(self):
        rng = random.Random(42)
        for _ in range(1000):
            pair = random_pair(rng)
            f = 10 ** rng.uniform(6, 8.5)
            direct = s21_mag(pair, P50, f)
            via_s = abs(coil_s(pair, P50, f).m21)
            assert abs(direct - via_s) <= 1e-12 * max(1.0, direct)


class TestFOpt:
    def test_reference_value(self):
        assert f_opt(REF, P50) == pytest.approx(20.2e6, rel=5e-3)

    def test_matches_grid_argmax(self):
        fo = f_opt(REF, P50)
        grid = np.geomspace(1e6, 1e9, 10000)
        mags = [s21_mag(REF, P50, f) for f in grid]
        best = grid[int(np.argmax(mags))]
        step = grid[1] / grid[0]
        assert fo / step <= best <= fo * step

    def test_inductance_scaling_law(self):
        # f_opt goes as 1/L when both coils scale together (R << Zp), so
        # quadrupling L quarters the peak; confirmed by the grid argmax.
        small = CoilPair(100e-9, 100e-9, 0.1, 0.1, 0.2)
        big = CoilPair(400e-9, 400e-9, 0.1, 0.1, 0.2)
        assert f_opt(big, P50) == pytest.approx(f_opt(small, P50) / 4, rel=1e-6)
        grid = np.geomspace(f_opt(big, P50) / 100, f_opt(big, P50) * 100, 20000)
        best = grid[int(np.argmax([s21_mag(big, P50, f) for f in grid]))]
        assert best == pytest.approx(f_opt(small, P50) / 4, rel=1e-3)

    def test_unity_coupling_rejected(self):
        with pytest.raises(ValueError):
            CoilPair(1e-6, 1e-6, 1, 1, 1.0)


class TestSMax:
    def test_zero_coupling_limit(self):
        tiny = CoilPair(400e-9, 400e-9, 0.5, 0.5, 1e-9)
        assert s_max(tiny, P50) < 1e-6

    def test_hand_evaluated_composites(self):
        t = link_auxiliaries(REF, P50)
        assert t.t1 == pytest.approx(2 * 40e-9 * 50)
        assert t.t4 == pytest.approx(2 * 400e-9 * 50.5)
        assert s_max(REF, P50) == pytest.approx(t.t1 / t.t4)

    def test_equals_s21_at_peak(self):
        rng = random.Random(5)
        for _ in range(50):
            pair = random_pair(rng)
            assert s_max(pair, P50) == pytest.approx(
                s21_mag(pair, P50, f_opt(pair, P50)), rel=1e-9)

    def test_monotone_in_coupling(self):
        values = [s_max(CoilPair(400e-9, 400e-9, 0.5, 0.5, k), P50)
                  for k in np.linspace(0.01, 0.9, 30)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestLOpt:
    def test_reference_design(self):
        lo = l_opt(20e6, 0.5, 0.5, P50, 0.1)
        assert abs(lo - 400.4e-9) / 400.4e-9 < 0.02

    def test_asymmetric_split(self):
        # 40 MHz design at k = 0.2: choosing L1 = 525.7 nH forces
        # L2 = L_opt^2 / L1 = 80 nH.
        lo = l_opt(40e6, 0.5, 0.5, P50, 0.2)
        l2 = asymmetric_partner(lo, 525.7e-9)
        assert l2 == pytest.approx(80e-9, rel=1e-3)

    def test_inverse_of_f_opt(self):
        rng = random.Random(77)
        for _ in range(100):
            r1, r2 = rng.uniform(0.1, 5), rng.uniform(0.1, 5)
            k = rng.uniform(0.01, 0.6)
            lo = l_opt(rng.uniform(1e6, 1e8), r1, r2, P50, k)
            pair = CoilPair(lo, lo, r1, r2, k)
            f_target = f_opt(pair, P50)
            assert l_opt(f_target, r1, r2, P50, k) == pytest.approx(lo, rel=1e-9)

    def test_duality_with_geometric_mean(self):
        rng = random.Random(13)
        for _ in range(100):
            pair = random_pair(rng)
            lo = l_opt(f_opt(pair, P50), pair.r1, pair.r2, P50, pair.k)
            assert lo == pytest.approx(math.sqrt(pair.l1 * pair.l2), rel=1e-9)


class TestExtraction:
    def test_round_trip(self):
        rng = random.Random(314)
        for _ in range(1000):
            pair = random_pair(rng)
            f = 10 ** rng.uniform(6, 8.5)
            ex = extract_params(coil_s(pair, P50, f), f)
            assert ex.valid
            assert ex.l1 == pytest.approx(pair.l1, rel=1e-9)
            assert ex.l2 == pytest.approx(pair.l2, rel=1e-9)
            assert ex.r1 == pytest.approx(pair.r1, rel=1e-9)
            assert ex.r2 == pytest.approx(pair.r2, rel=1e-9)
            assert ex.k == pytest.approx(pair.k, rel=1e-9)

    def test_symmetric_pair_extracts_symmetric(self):
        ex = extract_params(coil_s(REF, P50, 20e6), 20e6)
        assert ex.l1 == pytest.approx(ex.l2, rel=1e-12)
        assert ex.r1 == pytest.approx(ex.r2, rel=1e-9)

    def test_unequal_reference_impedances(self):
        ports = PortPair(25, 100)
        pair = CoilPair(300e-9, 700e-9, 0.8, 1.5, 0.15)
        ex = extract_params(coil_s(pair, ports, 15e6), 15e6)
        assert ex.l1 == pytest.approx(pair.l1, rel=1e-9)
        assert ex.l2 == pytest.approx(pair.l2, rel=1e-9)
        assert ex.r2 == pytest.approx(pair.r2, rel=1e-9)
        assert ex.k == pytest.approx(pair.k, rel=1e-9)

    def test_tissue_loading_raises_effective_resistance(self):
        stack = tissue.default_implant_stack((18e-3) ** 2, 10)
        t_bare = coil_abcd(REF, 20e6)
        t_mod = tissue.modified_coil_abcd(t_bare, stack, 20e6)
        ex = extract_params(netcore.abcd_to_s(t_mod, 50, 50), 20e6)
        assert ex.r1 > REF.r1
        assert ex.r2 > REF.r2

    def test_non_reciprocal_rejected(self):
        s = netcore.s_matrix(0.1, 0.5, 0.6, 0.1, 50, 50)
        with pytest.raises(ValueError, match="reciprocal"):
            extract_params(s, 1e7)

    def test_non_physical_flagged_not_raised(self):
        # An active-looking network extracts to negative resistance; the
        # raw numbers come back flagged instead of exploding.
        s = netcore.s_matrix(1.2 + 0.3j, 0.4j, 0.4j, 1.2 + 0.3j, 50, 50)
        ex = extract_params(s, 1e7)
        assert not ex.valid
        assert ex.issues


class TestCoilAbcd:
    def test_matches_z_route(self):
        t = coil_abcd(REF, 20e6)
        t_from_z = netcore.z_to_abcd(coil_z(REF, 20e6))
        for name in ("m11", "m12", "m21", "m22"):
            a, b = getattr(t, name), getattr(t_from_z, name)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_reciprocal(self):
        # det = 1 to 1e-12 relative to the A*D / B*C product scale (the
        # cancellation in A*D - B*C amplifies rounding by ~1/k^2).
        rng = random.Random(99)
        for _ in range(200):
            pair = random_pair(rng)
            f = 10 ** rng.uniform(6, 8)
            t = coil_abcd(pair, f)
            scale = max(1.0, abs(t.m11 * t.m22), abs(t.m12 * t.m21))
            assert abs(t.det - 1.0) < 1e-12 * scale

    def test_uncoupled_has_no_abcd(self):
        with pytest.raises(Exception):
            coil_abcd(CoilPair(1e-6, 1e-6, 1, 1, 0.0), 1e7)
