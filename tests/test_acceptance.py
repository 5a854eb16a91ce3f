"""Acceptance gate: the thirteen exit criteria, one pass/fail line each.

Every tolerance is pinned here; run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines.
"""

import math
import random
from contextlib import contextmanager

import numpy as np
import pytest

import wptkit
from wptkit import netcore, tissue
from wptkit.coil import CoilPair, PortPair, coil_abcd, coil_s, extract_params, f_opt, l_opt
from wptkit.efficiency import gamma_factor, pte_max, sar_constrained_pdl
from wptkit.errors import TouchstoneFormatError
from wptkit.harvester import bessel_i0, v_out
from wptkit.imn import series_resonance_capacitor, synthesize_imn
from wptkit.spiral import SQUARE, FabConstraints, SpiralGeometry, inductance, synthesize
from wptkit.touchstone import TouchstoneFormat, TouchstoneRecord, format_touchstone, parse_touchstone

P50 = PortPair(50, 50)


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {num:02d} FAIL: {desc}")
        raise
    print(f"[acceptance] criterion {num:02d} PASS: {desc}")


def random_pair(rng: random.Random) -> CoilPair:
    return CoilPair(
        rng.uniform(50e-9, 2e-6), rng.uniform(50e-9, 2e-6),
        rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0),
        rng.uniform(0.01, 0.6),
    )


def test_criterion_01_series_compensation_capacitor():
    with criterion(1, "series-resonance capacitor 158.3 pF within 0.5 %"):
        c = series_resonance_capacitor(400e-9, 20e6)
        assert abs(c - 158.3e-12) / 158.3e-12 <= 0.005


def test_criterion_02_optimal_inductance():
    with criterion(2, "optimal inductance 400.4 nH within 2 %"):
        lo = l_opt(20e6, 0.5, 0.5, P50, 0.1)
        assert abs(lo - 400.4e-9) / 400.4e-9 <= 0.02


def test_criterion_03_peak_frequency_grid_agreement():
    with criterion(3, "closed-form peak frequency matches 10,000-point grid argmax "
                      "within one step on 200 random pairs"):
        rng = random.Random(20260811)
        for _ in range(200):
            pair = random_pair(rng)
            fo = f_opt(pair, P50)
            grid = np.geomspace(fo / 100.0, fo * 100.0, 10000)
            w = 2.0 * math.pi * grid
            m = pair.mutual
            t1 = 2.0 * m * 50.0
            t2 = (pair.r1 + 50.0) * (pair.r2 + 50.0)
            t3 = pair.l1 * pair.l2 - m * m
            t4 = pair.l1 * (pair.r2 + 50.0) + pair.l2 * (pair.r1 + 50.0)
            mags = w * t1 / np.sqrt((t2 - t3 * w**2) ** 2 + (w * t4) ** 2)
            best = grid[int(np.argmax(mags))]
            step = math.log(grid[1] / grid[0])
            assert abs(math.log(best / fo)) <= step * (1 + 1e-9)


def test_criterion_04_matched_port_identity():
    with criterion(4, "PTE_max equals |S21|^2 to 1e-12 when both ports are matched"):
        for mag in (1e-4, 1e-3, 0.05, 0.099, 0.3, 0.7, 0.95, 1.0):
            for phase in (0.0, 0.7, 2.1):
                s21 = mag * complex(math.cos(phase), math.sin(phase))
                s = netcore.s_matrix(0.0, s21, s21, 0.0, 50, 50)
                result = pte_max(s)
                assert result.physical
                assert abs(result.pte_max - mag * mag) <= 1e-12


def test_criterion_05_imn_synthesis():
    with criterion(5, "capacitive L-section reproduces 52.7 pF / 109.1 pF within 2 %, "
                      "drives reflections below -40 dB and reaches PTE_max within 0.1 %"):
        t_coil = coil_abcd(CoilPair(400e-9, 400e-9, 0.5, 0.5, 0.1), 20e6)
        result = synthesize_imn(t_coil, P50, 20e6)
        target = pte_max(netcore.abcd_to_s(t_coil, 50, 50)).pte_max
        match = None
        for sol in result.solutions:
            elems = sol.imn
            if (elems.capacitor_count == 4
                    and abs(elems.tx_series.value - 52.7e-12) / 52.7e-12 <= 0.02
                    and abs(elems.tx_shunt.value - 109.1e-12) / 109.1e-12 <= 0.02
                    and abs(elems.rx_series.value - 52.7e-12) / 52.7e-12 <= 0.02
                    and abs(elems.rx_shunt.value - 109.1e-12) / 109.1e-12 <= 0.02):
                match = sol
                break
        assert match is not None, "reference capacitive solution missing"
        assert match.s11_db <= -40.0 and match.s22_db <= -40.0
        assert abs(match.s21_mag ** 2 - target) / target <= 1e-3


def test_criterion_06_extraction_round_trip():
    with criterion(6, "forward model -> S -> extraction recovers all five coil "
                      "parameters to 1e-9 relative on 1000 random cases"):
        rng = random.Random(424242)
        for _ in range(1000):
            pair = random_pair(rng)
            f = 10 ** rng.uniform(6, 8.5)
            ex = extract_params(coil_s(pair, P50, f), f)
            assert ex.valid
            assert abs(ex.l1 - pair.l1) / pair.l1 <= 1e-9
            assert abs(ex.l2 - pair.l2) / pair.l2 <= 1e-9
            assert abs(ex.r1 - pair.r1) / pair.r1 <= 1e-9
            assert abs(ex.r2 - pair.r2) / pair.r2 <= 1e-9
            assert abs(ex.k - pair.k) / pair.k <= 1e-9


def test_criterion_07_conversion_suite():
    with criterion(7, "Z<->S<->ABCD round trips at 1e-12 and det(ABCD) = 1 at 1e-12 "
                      "on coupled-coil networks"):
        rng = random.Random(777)
        for _ in range(300):
            pair = random_pair(rng)
            f = 10 ** rng.uniform(6, 8)
            z = wptkit.coil_z(pair, f)
            z_back = netcore.s_to_z(netcore.z_to_s(z, 50, 50))
            scale_z = max(abs(z.m11), abs(z.m12), abs(z.m21), abs(z.m22))
            for name in ("m11", "m12", "m21", "m22"):
                assert abs(getattr(z, name) - getattr(z_back, name)) <= 1e-12 * scale_z

            t = coil_abcd(pair, f)
            t_back = netcore.s_to_abcd(netcore.abcd_to_s(t, 50, 50))
            scale_t = max(abs(t.m11), abs(t.m12), abs(t.m21), abs(t.m22))
            for name in ("m11", "m12", "m21", "m22"):
                assert abs(getattr(t, name) - getattr(t_back, name)) <= 1e-12 * scale_t

            s = netcore.z_to_s(z, 50, 50)
            assert abs(s.m12 - s.m21) <= 1e-15  # reciprocity survives conversion
            det_scale = max(1.0, abs(t.m11 * t.m22), abs(t.m12 * t.m21))
            assert abs(t.det - 1.0) <= 1e-12 * det_scale


def i0_series_oracle(x: float) -> float:
    term, total, k = 1.0, 1.0, 1
    while True:
        term *= (x * x / 4.0) / (k * k)
        total += term
        if term < total * 1e-18:
            return total
        k += 1


def test_criterion_08_harvester_output():
    with criterion(8, "30-stage chain lifts 50 mV above 1 V and the Bessel kernel "
                      "tracks its series oracle to 1e-7"):
        assert v_out(30, 0.05, 0.026) > 1.0
        for x in (0.5, 1.0, 2.0, 5.0, 10.0):
            oracle = i0_series_oracle(x)
            assert abs(bessel_i0(x) - oracle) / oracle <= 1e-7


def test_criterion_09_sar_budget():
    with criterion(9, "SAR-capped deliverable power: 3.38 mW and 1.14 mW to printed "
                      "precision"):
        assert abs(sar_constrained_pdl(84.6e-3, 0.04).pdl_max - 3.38e-3) <= 5e-6
        assert abs(sar_constrained_pdl(57e-3, 0.02).pdl_max - 1.14e-3) <= 5e-6


def test_criterion_10_gamma_cases():
    with criterion(10, "all four port-correction branches give gamma = 4 at the "
                       "reference points and 1 at (50, 50)"):
        assert gamma_factor(PortPair(25, 100)) == pytest.approx(4.0, abs=1e-12)
        assert gamma_factor(PortPair(100, 100)) == pytest.approx(4.0, abs=1e-12)
        assert gamma_factor(PortPair(100, 25)) == pytest.approx(4.0, abs=1e-12)
        assert gamma_factor(PortPair(25, 25)) == pytest.approx(4.0, abs=1e-12)
        assert gamma_factor(PortPair(50, 50)) == 1.0


def test_criterion_11_tissue_properties():
    with criterion(11, "tissue ladder: passive, monotone-damped in conductivity, "
                       "eddy loss scaling as sigma*w^2, discretization converged "
                       "within 1 %"):
        stack = tissue.default_implant_stack((18e-3) ** 2, 10)

        # passivity across the band
        for f in [1e6 * 10 ** (i / 5) for i in range(16)]:
            s = netcore.abcd_to_s(tissue.ladder_two_port(stack, f), 50, 50)
            assert abs(s.m11) ** 2 + abs(s.m21) ** 2 <= 1.0 + 1e-9

        # |S21| monotone non-increasing in sigma
        prev = None
        for factor in (0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 20.0):
            layers = tuple(l.scaled_sigma(factor) for l in stack.layers)
            s = netcore.abcd_to_s(
                tissue.ladder_two_port(tissue.TissueStack(layers, 10, (18e-3) ** 2), 20e6),
                50, 50)
            mag = abs(s.m21)
            if prev is not None:
                assert mag <= prev + 1e-12
            prev = mag

        # sigma * w^2 scaling, both in the pure law and in the ladder
        assert tissue.loss_scaling(0.4, 2e8) == pytest.approx(
            4.0 * tissue.loss_scaling(0.4, 1e8), rel=1e-12)
        saline = tissue.ColeColeLayer("saline", 1.0, (), 0.5, 0.014)

        def series_r(sigma_factor: float, f: float) -> float:
            st = tissue.TissueStack((saline.scaled_sigma(sigma_factor),), 1, (18e-3) ** 2)
            lad = tissue.ladder_two_port(st, f)
            return (lad.m12 / lad.m11).real

        assert series_r(1.001, 20e6) / series_r(1.0, 20e6) == pytest.approx(1.001, rel=1e-4)
        assert series_r(1.0, 40e6) / series_r(1.0, 20e6) == pytest.approx(4.0, rel=1e-2)

        # discretization convergence
        s10 = abs(netcore.abcd_to_s(tissue.ladder_two_port(stack, 20e6), 50, 50).m21)
        s100 = abs(netcore.abcd_to_s(
            tissue.ladder_two_port(stack.with_sections(100), 20e6), 50, 50).m21)
        assert abs(s10 - s100) / s100 <= 0.01


def wheeler_oracle(g: SpiralGeometry) -> float:
    k_table = {"square": (2.34, 2.75), "hexagonal": (2.33, 3.82),
               "octagonal": (2.25, 3.55), "circular": (2.25, 3.55)}
    k1, k2 = k_table[g.shape.name]
    cosf = 1.0 if g.shape.seg == math.inf else math.cos(math.pi / g.shape.seg)
    d_avg = (2.0 * g.r + g.n * g.dr) * cosf
    d_out = g.w + 2.0 * (g.r + g.n * g.dr) * cosf
    d_in = 2.0 * d_avg - d_out
    rho = (d_out - d_in) / (d_out + d_in)
    return k1 * 4e-7 * math.pi * g.n ** 2 * d_avg / (1.0 + k2 * rho)


def test_criterion_12_geometry_synthesis():
    with criterion(12, "candidates exist within 1 % of 400.4 nH in 18x18 mm^2 and "
                       "80 nH in 5x5 mm^2, all within 5 % of the Wheeler oracle"):
        for target, edge in ((400.4e-9, 18e-3), (80e-9, 5e-3)):
            fab = FabConstraints(max_area=edge * edge)
            result = synthesize(target, fab, SQUARE)
            assert result.candidates, f"no candidates for {target} in {edge}^2"
            for g in result.candidates:
                l_cs = inductance(g)
                assert abs(l_cs - target) / target <= 0.01
                assert g.area <= edge * edge * (1 + 1e-9)
                assert abs(l_cs - wheeler_oracle(g)) / l_cs <= 0.05 * (1 + 1e-9)


def test_criterion_13_touchstone_round_trip():
    with criterion(13, "Touchstone write -> read reproduces all values to 1e-12 and "
                       "malformed files fail with line numbers"):
        rng = random.Random(5150)
        freqs, rows = [], []
        for i in range(25):
            freqs.append(1e6 * (i + 1) + rng.uniform(0, 1e5))
            s21 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            rows.append((complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                         s21, s21,
                         complex(rng.uniform(-1, 1), rng.uniform(-1, 1))))
        record = TouchstoneRecord(tuple(freqs), tuple(rows), TouchstoneFormat.RI, 50.0)
        back = parse_touchstone(format_touchstone(record))
        for f_a, f_b in zip(record.frequencies, back.frequencies):
            assert abs(f_a - f_b) <= 1e-12 * f_a
        for row_a, row_b in zip(record.s, back.s):
            for a, b in zip(row_a, row_b):
                assert abs(a - b) <= 1e-12

        with pytest.raises(TouchstoneFormatError) as err:
            parse_touchstone("# HZ S RI R 50\n1e6 0 0 1 0\n")
        assert err.value.line == 2
        with pytest.raises(TouchstoneFormatError) as err:
            parse_touchstone("# HZ Q RI R 50\n")
        assert err.value.line == 1
        with pytest.raises(TouchstoneFormatError) as err:
            parse_touchstone("# HZ S RI R 50\n2e6 0 0 1 0 1 0 0 0\n1e6 0 0 1 0 1 0 0 0\n")
        assert err.value.line == 3
