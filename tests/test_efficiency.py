"""Efficiency and safety arithmetic.

Matched ports force PTE_max = |S21|^2 exactly, the operating efficiency
never beats the conjugate-matched maximum on a load-reflection grid, the
port-impedance correction factor follows its four written branches, and
the SAR budget reproduces the published milliwatt figures.
"""

import cmath
import math
import random
import warnings

import numpy as np
import pytest

from wptkit import netcore
from wptkit.coil import CoilPair, PortPair, coil_s
from wptkit.efficiency import (
    gamma_factor,
    pte_link,
    pte_max,
    pte_two_port,
    sar_constrained_pdl,
)

P50 = PortPair(50, 50)


def random_passive_s(rng: random.Random):
    pair = CoilPair(rng.uniform(50e-9, 2e-6), rng.uniform(50e-9, 2e-6),
                    rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0),
                    rng.uniform(0.05, 0.6))
    f = 10 ** rng.uniform(6, 8)
    return coil_s(pair, P50, f)


class TestPteTwoPort:
    def test_matched_collapse(self):
        s = netcore.s_matrix(0, 0.3, 0.3, 0.1, 50, 50)
        assert pte_two_port(s, 0) == pytest.approx(0.09, rel=1e-12)

    def test_energy_bound_for_passive_networks(self):
        rng = random.Random(61)
        for _ in range(200):
            s = random_passive_s(rng)
            gamma = cmath.rect(rng.uniform(0, 0.85), rng.uniform(0, 2 * math.pi))
            assert pte_two_port(s, gamma) <= 1.0 + 1e-9

    def test_term_by_term_oracle(self):
        # Re-evaluate the defining expression piecewise and compare.
        rng = random.Random(62)
        for _ in range(100):
            s = random_passive_s(rng)
            gamma = cmath.rect(rng.uniform(0, 0.8), rng.uniform(0, 2 * math.pi))
            g_in = s.m11 + s.m21 ** 2 * gamma / (1 - s.m22 * gamma)
            expected = (abs(s.m21) ** 2 * (1 - abs(gamma) ** 2)
                        / ((1 - abs(g_in) ** 2) * abs(1 - s.m22 * gamma) ** 2))
            assert pte_two_port(s, gamma) == pytest.approx(expected, rel=1e-12)

    def test_rejects_unit_load_reflection(self):
        s = netcore.s_matrix(0, 0.3, 0.3, 0, 50, 50)
        with pytest.raises(ValueError):
            pte_two_port(s, 1.0)


class TestPteMax:
    def test_matched_port_identity(self):
        for mag in (1e-3, 0.099, 0.5, 0.9, 1.0):
            s = netcore.s_matrix(0, mag, mag, 0, 50, 50)
            result = pte_max(s)
            assert result.physical
            assert abs(result.pte_max - mag * mag) < 1e-12

    def test_unity_transmission(self):
        s = netcore.s_matrix(0, 1.0, 1.0, 0, 50, 50)
        assert pte_max(s).pte_max == pytest.approx(1.0, abs=1e-12)

    def test_dominates_operating_efficiency(self):
        rng = random.Random(63)
        for _ in range(50):
            s = random_passive_s(rng)
            ceiling = pte_max(s)
            assert ceiling.physical and ceiling.k_r >= 1.0
            for i in range(25):
                gamma = cmath.rect(0.88 * ((i % 5) / 5.0), 2 * math.pi * (i // 5) / 5.0)
                assert pte_two_port(s, gamma) <= ceiling.pte_max * (1 + 1e-6)

    def test_active_data_flagged_not_clamped(self):
        # Mildly super-unitary reflections, as VNA data near the noise
        # floor can produce: |S11|^2 + |S21|^2 > 1 drives K_r below 1.
        s = netcore.s_matrix(0.9, 0.5, 0.5, 0.9, 50, 50)
        result = pte_max(s)
        assert not result.physical
        assert result.k_r < 1.0
        assert math.isnan(result.pte_max)

    def test_zero_transmission_rejected(self):
        s = netcore.s_matrix(0.2, 0, 0, 0.2, 50, 50)
        with pytest.raises(ValueError):
            pte_max(s)


class TestGammaFactor:
    @pytest.mark.parametrize("zp1,zp2,expected", [
        (25.0, 100.0, 4.0),    # zp2 high, zp1 low
        (100.0, 100.0, 4.0),   # both high
        (100.0, 25.0, 4.0),    # zp2 low, zp1 high
        (25.0, 25.0, 4.0),     # both low
        (50.0, 50.0, 1.0),     # nominal
    ])
    def test_written_branches(self, zp1, zp2, expected):
        assert gamma_factor(PortPair(zp1, zp2)) == pytest.approx(expected)

    def test_boundary_is_consistent(self):
        # At zp = 50 the adjoining branches agree, so inclusive routing
        # cannot produce a contradiction.
        assert gamma_factor(PortPair(50.0, 100.0)) == pytest.approx(2.0)
        assert gamma_factor(PortPair(100.0, 50.0)) == pytest.approx(2.0)
        assert gamma_factor(PortPair(50.0, 25.0)) == pytest.approx(2.0)
        assert gamma_factor(PortPair(25.0, 50.0)) == pytest.approx(2.0)

    def test_pte_link_uses_gamma(self):
        assert pte_link(0.3, P50) == pytest.approx(0.09)
        assert pte_link(0.3, PortPair(25, 100)) == pytest.approx(0.36)

    def test_pte_link_overflow_is_a_value(self):
        # |S21|^2 overflows to inf along an axis as at one point, without a
        # numpy warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pte_link(np.array([1e200 + 0j]), PortPair())
        assert got.tolist() == [pte_link(1e200 + 0j, PortPair())] == [math.inf]


class TestSarBudget:
    def test_symmetric_prototype_budget(self):
        budget = sar_constrained_pdl(84.6e-3, 0.04)
        assert budget.pdl_max == pytest.approx(3.38e-3, abs=5e-6)

    def test_asymmetric_prototype_budget(self):
        budget = sar_constrained_pdl(57e-3, 0.02)
        assert budget.pdl_max == pytest.approx(1.14e-3, abs=5e-6)

    def test_zero_efficiency(self):
        assert sar_constrained_pdl(0.1, 0.0).pdl_max == 0.0

    def test_budget_is_exact_product(self):
        budget = sar_constrained_pdl(0.123, 0.456)
        assert budget.pdl_max == 0.123 * 0.456

    def test_validation(self):
        with pytest.raises(ValueError):
            sar_constrained_pdl(-1.0, 0.5)
        with pytest.raises(ValueError):
            sar_constrained_pdl(0.1, 1.5)
