"""Tissue dielectric model and impedance ladder.

The Cole-Cole evaluation is checked term by term against independently
keyed-in parameters, the ladder must be passive, reciprocal, convergent
in its discretization and monotonically damped by conductivity, and the
import path must reproduce and interpolate tabulated network data.
"""

import math
import sys
import warnings

import numpy as np
import pytest

from wptkit import netcore
from wptkit.coil import CoilPair, coil_abcd
from wptkit.efficiency import pte_max
from wptkit.pipeline import spec_from_dict
from wptkit.tissue import (
    EPS_0,
    ColeColeLayer,
    TissueStack,
    complex_permittivity,
    default_implant_stack,
    effective_conductivity,
    fat,
    import_override,
    ladder_two_port,
    loss_scaling,
    modified_coil_abcd,
    muscle,
    skin_dry,
)
from wptkit.touchstone import TouchstoneFormat, TouchstoneRecord

REF_COIL = CoilPair(400e-9, 400e-9, 0.5, 0.5, 0.1)


def ladder_s(stack, f, z0=50.0):
    return netcore.abcd_to_s(ladder_two_port(stack, f), z0, z0)


class TestColeCole:
    def test_dispersionless_layer(self):
        layer = ColeColeLayer("ideal", 5.0, (), 0.0, 1e-3)
        for f in (1e6, 2e7, 5e8):
            assert complex_permittivity(layer, f) == pytest.approx(5.0 + 0j)

    def test_muscle_against_independent_sum(self):
        # Same closed form, summed by hand with separately keyed-in
        # parameters.
        f = 20e6
        w = 2 * math.pi * f
        eps = 4.0 + 0j
        for d_eps, tau, alpha in ((50.0, 7.23e-12, 0.10), (7000.0, 353.68e-9, 0.10),
                                  (1.2e6, 318.31e-6, 0.10), (2.5e7, 2.274e-3, 0.00)):
            eps += d_eps / (1.0 + (1j * w * tau) ** (1.0 - alpha))
        eps += 0.2 / (1j * w * EPS_0)
        got = complex_permittivity(muscle(), f)
        assert got.real == pytest.approx(eps.real, rel=1e-12)
        assert got.imag == pytest.approx(eps.imag, rel=1e-12)

    def test_static_conductivity_dominates_imaginary_part(self):
        # For a layer with large sigma and weak dispersion, Im(eps) is
        # essentially -sigma/(w eps0).
        layer = ColeColeLayer("salty", 10.0, ((5.0, 1e-11, 0.0),), 1.0, 1e-3)
        f = 1e6
        w = 2 * math.pi * f
        assert complex_permittivity(layer, f).imag == pytest.approx(-1.0 / (w * EPS_0), rel=1e-4)

    def test_fast_dispersion_term_stays_slow(self):
        # The GHz-range relaxation obeys w*tau < 0.05 up to 500 MHz.
        tau_fast = min(tau for _, tau, _ in muscle().dispersions)
        assert 2 * math.pi * 500e6 * tau_fast < 0.05

    def test_smallest_frequency_gives_no_warning(self):
        # At the smallest normal frequency sigma / (w eps0) overflows to
        # -inf j along an axis as at one point, without a numpy warning.
        freqs = [sys.float_info.min, 1e6]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eps = complex_permittivity(muscle(), np.array(freqs))
        assert eps.tolist() == [complex_permittivity(muscle(), f) for f in freqs]
        assert eps[0].imag == -math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            ColeColeLayer("bad", 0.5, (), 0.0, 1e-3)
        with pytest.raises(ValueError):
            ColeColeLayer("bad", 4.0, ((1.0, 1e-9, 1.0),), 0.0, 1e-3)
        with pytest.raises(ValueError):
            ColeColeLayer("bad", 4.0, (), -1.0, 1e-3)

    @pytest.mark.parametrize("args", [
        ("x", 4.0, (), math.nan, 0.01),
        ("x", math.nan, (), 0.2, 0.01),
        ("x", math.inf, (), 0.2, 0.01),
        ("x", 4.0, (), math.inf, 0.01),
        ("x", 4.0, (), 0.2, math.inf),
        ("x", 4.0, ((math.nan, 1e-9, 0.1),), 0.2, 0.01),
        ("x", 4.0, ((10.0, math.nan, 0.1),), 0.2, 0.01),
        ("x", 4.0, ((10.0, math.inf, 0.1),), 0.2, 0.01),
        ("x", 4.0, ((math.inf, 1e-9, 0.1),), 0.2, 0.01),
    ])
    def test_non_finite_fields_rejected(self, args):
        # NaN fails every comparison, so each field needs its own finiteness
        # test; a NaN sigma_static used to give a finite, wrong permittivity.
        with pytest.raises(ValueError, match="must be finite") as err:
            ColeColeLayer(*args)
        assert "\n" not in str(err.value)

    def test_layer_dict_round_trip(self):
        layer = fat()
        data = {"name": layer.name, "eps_inf": layer.eps_inf,
                "dispersions": [list(term) for term in layer.dispersions],
                "sigma_s_per_m": layer.sigma_static, "thickness_m": layer.thickness}
        spec = spec_from_dict({"f0_hz": 20e6, "tissue": {"layers": [data]}})
        again, = spec.tissue.layers
        assert again == layer


class TestLossScaling:
    def test_omega_squared(self):
        assert loss_scaling(0.5, 2e8) == pytest.approx(4 * loss_scaling(0.5, 1e8))

    def test_zero_conductivity(self):
        assert loss_scaling(0.0, 1e8) == 0.0

    @pytest.mark.parametrize("value", [math.inf, math.nan, 5e-324, 0.0, -1.0])
    def test_inputs_checked(self, value):
        # omega follows the frequency rule; sigma must be finite and >= 0.
        with pytest.raises(ValueError, match="^angular frequency must be in"):
            loss_scaling(0.5, value)
        if 0.0 <= value < math.inf:
            assert loss_scaling(value, 1e8) == value * 1e8 * 1e8
        else:
            with pytest.raises(ValueError, match="^conductivity must be finite and >= 0"):
                loss_scaling(value, 1e8)

    def test_muscle_ratio_exceeds_four(self):
        # sigma rises with frequency, so the 40 vs 20 MHz loss ratio
        # beats the bare w^2 factor.
        s20 = effective_conductivity(muscle(), 20e6)
        s40 = effective_conductivity(muscle(), 40e6)
        ratio = loss_scaling(s40, 2 * math.pi * 40e6) / loss_scaling(s20, 2 * math.pi * 20e6)
        assert ratio > 4.0


class TestLadder:
    def test_thin_vacuum_is_identity(self):
        vac = ColeColeLayer("vacuum", 1.0, (), 0.0, 1e-12)
        lad = ladder_two_port(TissueStack((vac,), 10, (18e-3) ** 2), 20e6)
        assert abs(lad.m11 - 1) < 1e-9
        assert abs(lad.m12) < 1e-9
        assert abs(lad.m21) < 1e-9
        assert abs(lad.m22 - 1) < 1e-9

    def test_discretization_convergence(self):
        stack = default_implant_stack((18e-3) ** 2, 10)
        s10 = abs(ladder_s(stack, 20e6).m21)
        s100 = abs(ladder_s(stack.with_sections(100), 20e6).m21)
        assert abs(s10 - s100) / s100 < 0.01

    def test_passivity_across_band(self):
        stack = default_implant_stack((18e-3) ** 2, 10)
        for f in [1e6 * 10 ** (i / 5) for i in range(16)]:  # 1 MHz .. ~1 GHz
            s = ladder_s(stack, f)
            assert abs(s.m11) ** 2 + abs(s.m21) ** 2 <= 1.0 + 1e-9

    def test_reciprocity(self):
        stack = default_implant_stack((18e-3) ** 2, 10)
        for f in (1e6, 20e6, 100e6):
            assert abs(ladder_two_port(stack, f).det - 1.0) < 1e-9

    def test_lossy_insertion_reduces_transmission(self):
        stack = default_implant_stack((18e-3) ** 2, 10)
        assert abs(ladder_s(stack, 20e6).m21) < 1.0 - 1e-6

    def test_monotone_damage_in_sigma(self):
        base = default_implant_stack((18e-3) ** 2, 10)
        prev = None
        for factor in (0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 20.0):
            layers = tuple(l.scaled_sigma(factor) for l in base.layers)
            mag = abs(ladder_s(TissueStack(layers, 10, (18e-3) ** 2), 20e6).m21)
            if prev is not None:
                assert mag <= prev + 1e-12
            prev = mag

    def test_eddy_loss_follows_sigma_omega_squared(self):
        # Single uniform section: the longitudinal resistance must scale
        # linearly in sigma and quadratically in omega.
        saline = ColeColeLayer("saline", 1.0, (), 0.5, 0.014)

        def series_r(sigma_factor, f):
            st = TissueStack((saline.scaled_sigma(sigma_factor),), 1, (18e-3) ** 2)
            lad = ladder_two_port(st, f)
            return (lad.m12 / lad.m11).real

        assert series_r(2.0, 20e6) / series_r(1.0, 20e6) == pytest.approx(2.0, rel=1e-2)
        assert series_r(1.0, 40e6) / series_r(1.0, 20e6) == pytest.approx(4.0, rel=1e-2)


class TestModifiedCoil:
    def test_empty_equivalent_stack_is_transparent(self):
        vac = ColeColeLayer("vacuum", 1.0, (), 0.0, 1e-13)
        stack = TissueStack((vac,), 1, (18e-3) ** 2)
        t = coil_abcd(REF_COIL, 20e6)
        t_mod = modified_coil_abcd(t, stack, 20e6)
        scale = max(abs(t.m11), abs(t.m12), abs(t.m21), abs(t.m22))
        for name in ("m11", "m12", "m21", "m22"):
            assert abs(getattr(t, name) - getattr(t_mod, name)) <= 1e-9 * scale

    def test_embedding_reduces_max_efficiency(self):
        stack = default_implant_stack((18e-3) ** 2, 10)
        t = coil_abcd(REF_COIL, 20e6)
        t_mod = modified_coil_abcd(t, stack, 20e6)
        air = pte_max(netcore.abcd_to_s(t, 50, 50))
        embedded = pte_max(netcore.abcd_to_s(t_mod, 50, 50))
        assert embedded.pte_max < air.pte_max

    def test_link_transmission_monotone_in_sigma(self):
        t = coil_abcd(REF_COIL, 20e6)
        base = default_implant_stack((18e-3) ** 2, 10)
        prev = None
        for factor in (0.0, 0.5, 1.0, 2.0, 5.0):
            layers = tuple(l.scaled_sigma(factor) for l in base.layers)
            t_mod = modified_coil_abcd(t, TissueStack(layers, 10, (18e-3) ** 2), 20e6)
            mag = abs(netcore.abcd_to_s(t_mod, 50, 50).m21)
            if prev is not None:
                assert mag <= prev + 1e-12
            prev = mag


def _record(freqs, rows, fmt=TouchstoneFormat.RI, r=50.0):
    return TouchstoneRecord(tuple(freqs), tuple(rows), fmt, r)


class TestImportOverride:
    def _rows(self):
        rows = []
        for i in range(5):
            s21 = complex(0.1 * (i + 1), -0.02 * i)
            rows.append((complex(0.5, 0.1 * i), s21, s21, complex(0.4, -0.05 * i)))
        return rows

    def test_tabulated_point_returned_exactly(self):
        freqs = [1e6, 2e6, 3e6, 4e6, 5e6]
        table = import_override(_record(freqs, self._rows()))
        got = table.at(3e6)
        assert got.m21 == pytest.approx(complex(0.3, -0.04))
        assert got.m11 == pytest.approx(complex(0.5, 0.2))

    def test_midpoint_matches_hand_interpolation(self):
        freqs = [1e6, 2e6, 3e6, 4e6, 5e6]
        rows = self._rows()
        table = import_override(_record(freqs, rows))
        got = table.at(2.5e6)
        want = (rows[1][1] + rows[2][1]) / 2.0
        assert got.m21 == pytest.approx(want, rel=1e-12)

    def test_non_reciprocal_rejected_with_row(self):
        rows = self._rows()
        rows[2] = (rows[2][0], complex(0.3, 0.0), complex(0.35, 0.0), rows[2][3])
        with pytest.raises(ValueError, match="row 2"):
            import_override(_record([1e6, 2e6, 3e6, 4e6, 5e6], rows))

    def test_out_of_range_query_rejected(self):
        table = import_override(_record([1e6, 2e6, 3e6, 4e6, 5e6], self._rows()))
        with pytest.raises(ValueError):
            table.at(9e6)

    def test_abcd_view_usable_as_modified_network(self):
        freqs = [1e6, 2e6, 3e6, 4e6, 5e6]
        table = import_override(_record(freqs, self._rows()))
        t = table.abcd_at(2e6)
        s_back = netcore.abcd_to_s(t, 50, 50)
        assert s_back.m21 == pytest.approx(complex(0.2, -0.02), rel=1e-9)


class TestStackValidation:
    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError):
            TissueStack((), 10, 1e-4)

    def test_total_thickness(self):
        stack = default_implant_stack()
        assert sum(layer.thickness for layer in stack.layers) == pytest.approx(14e-3)
        assert [l.name for l in stack.layers] == ["skin (dry)", "fat", "muscle"]

    def test_library_layers_have_four_terms(self):
        for factory in (skin_dry, fat, muscle):
            assert len(factory().dispersions) == 4
