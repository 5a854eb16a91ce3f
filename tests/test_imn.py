"""L-section matching synthesis.

The documented 20 MHz reference link (400 nH, 0.5 ohm, k = 0.1, 50 ohm
ports) must synthesize the capacitive L-section near 52.7 pF / 109.1 pF,
drive both return losses below -40 dB, and reach the bare pair's maximum
efficiency; every solution is re-verified by an independent
terminated-impedance calculation.
"""

import math
from dataclasses import replace

import pytest

from wptkit import netcore
from wptkit.coil import CoilPair, PortPair, coil_abcd
from wptkit.efficiency import pte_max
from wptkit.errors import UnmatchableError
from wptkit.imn import (
    ElementKind,
    ImnSolution,
    LSectionIMN,
    MatchingElement,
    assemble_link,
    series_resonance_capacitor,
    simultaneous_match_targets,
    synthesize_imn,
)

REF_COIL = CoilPair(400e-9, 400e-9, 0.5, 0.5, 0.1)
P50 = PortPair(50, 50)
F0 = 20e6


def ref_abcd():
    return coil_abcd(REF_COIL, F0)


def tiny_imn():
    # Degenerate limit: series impedance -> 0, shunt admittance -> 0.
    s = MatchingElement(ElementKind.SERIES_INDUCTOR, 1e-30)
    p = MatchingElement(ElementKind.SHUNT_CAPACITOR, 1e-30)
    return LSectionIMN(2, s, p, s, p)


def element_link(elem, f):
    """Link of one TX element, the other three in the degenerate limit,
    around a through connection."""
    imn = replace(tiny_imn(), **{"tx_series" if elem.kind.is_series else "tx_shunt": elem})
    return assemble_link(imn, netcore.abcd_matrix(1.0, 0.0, 0.0, 1.0), f)


def reverified(imn, t_coil, f):
    """The solution re-verified on a freshly assembled link."""
    return ImnSolution(imn, netcore.abcd_to_s(assemble_link(imn, t_coil, f), P50.zp1, P50.zp2))


def terminated_input_impedance(abcd, z_load):
    """Input impedance of an ABCD two-port terminated by z_load."""
    return (abcd.m11 * z_load + abcd.m12) / (abcd.m21 * z_load + abcd.m22)


class TestAssemble:
    def test_degenerate_limit_recovers_coil(self):
        t = ref_abcd()
        t_link = assemble_link(tiny_imn(), t, F0)
        scale = max(abs(t.m11), abs(t.m12), abs(t.m21), abs(t.m22))
        for name in ("m11", "m12", "m21", "m22"):
            assert abs(getattr(t, name) - getattr(t_link, name)) <= 1e-12 * scale

    def test_unit_determinant(self):
        imn = LSectionIMN(
            3,
            MatchingElement(ElementKind.SERIES_CAPACITOR, 50e-12),
            MatchingElement(ElementKind.SHUNT_INDUCTOR, 100e-9),
            MatchingElement(ElementKind.SERIES_INDUCTOR, 200e-9),
            MatchingElement(ElementKind.SHUNT_CAPACITOR, 80e-12),
        )
        t = assemble_link(imn, ref_abcd(), F0)
        scale = max(1.0, abs(t.m11 * t.m22), abs(t.m12 * t.m21))
        assert abs(t.det - 1.0) < 1e-9 * scale

    def test_series_compensation_response(self):
        # Series 158.3 pF on each side resonates the 400 nH coils; the
        # expected transmission comes from an independent closed-form
        # series-element combination in the Z domain.
        c = series_resonance_capacitor(400e-9, F0)
        w = 2 * math.pi * F0
        zc = -1j / (w * c)
        m = 0.1 * 400e-9
        z11 = 0.5 + 1j * w * 400e-9 + zc
        z12 = 1j * w * m
        dz = (z11 + 50) ** 2 - z12 ** 2
        expected = abs(2 * 50 * z12 / dz)

        t = netcore.cascade_all(netcore.abcd_matrix(1.0, zc, 0.0, 1.0), ref_abcd(),
                                netcore.abcd_matrix(1.0, zc, 0.0, 1.0))
        s = netcore.abcd_to_s(t, 50, 50)
        assert abs(s.m21) == pytest.approx(expected, rel=1e-12)
        # Resonating the coils improves on the bare response...
        bare = abs(netcore.abcd_to_s(ref_abcd(), 50, 50).m21)
        assert abs(s.m21) > bare
        # ...but still falls far short of the ideal match.
        assert abs(s.m21) ** 2 < 0.1


class TestSeriesResonance:
    def test_reference_value(self):
        c = series_resonance_capacitor(400e-9, 20e6)
        assert abs(c - 158.3e-12) / 158.3e-12 < 0.005

    def test_resonance_identity(self):
        c = series_resonance_capacitor(1e-6, 13.56e6)
        w = 2 * math.pi * 13.56e6
        assert w * 1e-6 == pytest.approx(1.0 / (w * c), rel=1e-12)


class TestSynthesize:
    def test_reference_capacitive_solution(self):
        result = synthesize_imn(ref_abcd(), P50, F0)
        assert result.solutions
        match = None
        for sol in result.solutions:
            imn = sol.imn
            if (imn.capacitor_count == 4
                    and abs(imn.tx_series.value - 52.7e-12) / 52.7e-12 < 0.02
                    and abs(imn.tx_shunt.value - 109.1e-12) / 109.1e-12 < 0.02
                    and abs(imn.rx_series.value - 52.7e-12) / 52.7e-12 < 0.02
                    and abs(imn.rx_shunt.value - 109.1e-12) / 109.1e-12 < 0.02):
                match = sol
                break
        assert match is not None, "52.7 pF / 109.1 pF solution not found"
        assert match.imn.rx_series.value == pytest.approx(match.imn.tx_series.value, rel=1e-9)
        assert match.s11_db <= -40.0 and match.s22_db <= -40.0
        # topology: series element against the external port on both sides
        assert match.imn.topology_case == 2

    def test_all_solutions_meet_return_loss_floor(self):
        result = synthesize_imn(ref_abcd(), P50, F0)
        for sol in result.solutions:
            assert sol.s11_db <= -40.0
            assert sol.s22_db <= -40.0

    def test_matched_link_reaches_max_efficiency(self):
        result = synthesize_imn(ref_abcd(), P50, F0)
        target = pte_max(netcore.abcd_to_s(ref_abcd(), 50, 50)).pte_max
        for sol in result.solutions:
            assert abs(sol.s21_mag ** 2 - target) / target < 1e-3

    def test_no_nonpositive_elements(self):
        result = synthesize_imn(ref_abcd(), P50, F0)
        for sol in result.solutions:
            for elem in sol.imn.elements:
                assert elem.value > 0

    def test_ranking_prefers_capacitor_only(self):
        result = synthesize_imn(ref_abcd(), P50, F0)
        counts = [sol.imn.capacitor_count for sol in result.solutions]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] == 4

    def test_impedance_domain_re_verification(self):
        # Independent check: with the RX side terminated through its
        # L-section into zp2, the impedance seen at the TX reference
        # plane must equal zp1 (conjugate match collapsed to the ports).
        result = synthesize_imn(ref_abcd(), P50, F0)
        for sol in result.solutions[:6]:
            t_link = assemble_link(sol.imn, ref_abcd(), F0)
            z_in = terminated_input_impedance(t_link, P50.zp2)
            assert abs(z_in - P50.zp1) / P50.zp1 < 1e-6

    def test_already_matched_network_flagged(self):
        # A synthetic network with S11 = S22 = 0 needs no L-section.
        s = netcore.s_matrix(0, 0.6, 0.6, 0, 50, 50)
        t = netcore.s_to_abcd(s)
        result = synthesize_imn(t, P50, F0)
        assert result.already_matched
        assert not result.solutions

    def test_purely_reactive_port_unmatchable(self):
        # A lossless reactive two-port has no resistance to match into.
        t = netcore.abcd_matrix(1.0, 75j, 0.0, 1.0)
        with pytest.raises(UnmatchableError):
            synthesize_imn(t, P50, F0)

    def test_asymmetric_reference_link(self):
        coils = CoilPair(525.7e-9, 80e-9, 0.5, 0.5, 0.2)
        t = coil_abcd(coils, 40e6)
        result = synthesize_imn(t, P50, 40e6)
        assert result.solutions
        target = pte_max(netcore.abcd_to_s(t, 50, 50)).pte_max
        best = result.solutions[0]
        assert abs(best.s21_mag ** 2 - target) / target < 1e-3

    def test_compensation_plus_imn_equals_direct_imn(self):
        # Adding resonant series capacitors first and then matching gives
        # the same efficiency as matching the bare coils directly:
        # lossless embeddings cannot change the achievable maximum.
        c = series_resonance_capacitor(400e-9, F0)
        w = 2 * math.pi * F0
        zc = -1j / (w * c)
        t_comp = netcore.cascade_all(netcore.abcd_matrix(1.0, zc, 0.0, 1.0), ref_abcd(),
                                     netcore.abcd_matrix(1.0, zc, 0.0, 1.0))
        direct = synthesize_imn(ref_abcd(), P50, F0).solutions[0]
        via_comp = synthesize_imn(t_comp, P50, F0).solutions[0]
        assert via_comp.s21_mag ** 2 == pytest.approx(direct.s21_mag ** 2, rel=1e-3)


class TestVerifyMatch:
    def test_symmetric_prototype_return_loss(self):
        # Ideal synthesized networks beat the fabricated prototypes'
        # measured bars (20 dB symmetric, 15 dB asymmetric) with margin.
        sol = synthesize_imn(ref_abcd(), P50, F0).solutions[0]
        report = reverified(sol.imn, ref_abcd(), F0)
        assert -report.s11_db > 20.0
        assert -report.s22_db > 20.0

    def test_asymmetric_prototype_return_loss(self):
        coils = CoilPair(525.7e-9, 80e-9, 0.5, 0.5, 0.2)
        t = coil_abcd(coils, 40e6)
        sol = synthesize_imn(t, P50, 40e6).solutions[0]
        report = reverified(sol.imn, t, 40e6)
        assert -report.s11_db > 15.0
        assert -report.s22_db > 15.0


class TestElements:
    def test_element_abcd_forms(self):
        f = 10e6
        w = 2 * math.pi * f
        series_l = element_link(MatchingElement(ElementKind.SERIES_INDUCTOR, 1e-6), f)
        assert series_l.m12 == pytest.approx(1j * w * 1e-6)
        shunt_c = element_link(MatchingElement(ElementKind.SHUNT_CAPACITOR, 1e-12), f)
        assert shunt_c.m21 == pytest.approx(1j * w * 1e-12)
        shunt_l = element_link(MatchingElement(ElementKind.SHUNT_INDUCTOR, 1e-6), f)
        assert shunt_l.m21 == pytest.approx(-1j / (w * 1e-6))

    def test_positive_value_required(self):
        with pytest.raises(ValueError):
            MatchingElement(ElementKind.SERIES_CAPACITOR, 0.0)
        with pytest.raises(ValueError):
            MatchingElement(ElementKind.SHUNT_INDUCTOR, -1e-9)

    def test_slot_kinds_enforced(self):
        series = MatchingElement(ElementKind.SERIES_CAPACITOR, 1e-12)
        shunt = MatchingElement(ElementKind.SHUNT_CAPACITOR, 1e-12)
        with pytest.raises(ValueError):
            LSectionIMN(1, shunt, shunt, series, shunt)

    def test_match_targets_consistency(self):
        # The simultaneous-match construction feeds back: terminating
        # port 2 with z_ml must make the input impedance the conjugate
        # of z_ms.
        t = ref_abcd()
        s = netcore.abcd_to_s(t, 50, 50)
        z_ms, z_ml = simultaneous_match_targets(s)
        z_in = terminated_input_impedance(t, z_ml)
        assert z_in == pytest.approx(z_ms.conjugate(), rel=1e-9)
