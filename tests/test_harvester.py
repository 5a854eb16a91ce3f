"""Rectifier design-space exploration.

The Bessel evaluation is held to 1e-7 against a straight convergent
series, the 30-stage / 50 mV reference point must clear 1 V, the
parallel-equivalent input conversion has to round-trip, and the grid
sweep must reproduce the documented directional trends and pick the
minimal feasible stage count.
"""

import math

import pytest
from scipy.special import i0e

from wptkit.harvester import (
    HarvesterConstraints,
    bessel_i0,
    charge_time,
    design_space,
    minimum_stage_count,
    rect_input,
    v_out,
)


def i0_series(x: float) -> float:
    """Plain convergent power series, summed to machine precision."""
    term, total, k = 1.0, 1.0, 1
    while True:
        term *= (x * x / 4.0) / (k * k)
        total += term
        if term < total * 1e-18:
            return total
        k += 1


class TestBessel:
    def test_at_zero(self):
        assert bessel_i0(0.0) == 1.0

    def test_reference_values(self):
        assert bessel_i0(1.0) == pytest.approx(1.2660658777520084, rel=1e-9)
        assert bessel_i0(2.0) == pytest.approx(2.2795853023360673, rel=1e-9)

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 3.0, 3.74, 3.76, 5.0, 10.0, 20.0])
    def test_series_oracle(self, x):
        assert abs(bessel_i0(x) - i0_series(x)) / i0_series(x) < 1e-7

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bessel_i0(-1.0)

    def test_past_exp_overflow(self):
        # exp(x) overflows from x ~ 709.8, I0(x) only from x ~ 713.  The
        # A&S 9.8.2 polynomial is good to 5e-7 relative.
        want = math.exp(712.0 + math.log(i0e(712.0)))
        assert math.isfinite(bessel_i0(712.0))
        assert abs(bessel_i0(712.0) - want) <= 5e-7 * want
        assert bessel_i0(800.0) == math.inf

    @pytest.mark.parametrize("x", [0.5, 3.74, 3.76, 10.0, 100.0, 700.0, 750.0, 1e3, 1e4])
    def test_log_space_output_against_i0e(self, x):
        # v_out = 2 n V_T ln I0(x) must stay finite past x ~ 709, where
        # exp(x) overflows; ln I0(x) = x + ln i0e(x).
        want = x + math.log(i0e(x))
        got = v_out(1, x * 0.0267, 0.0267) / (2.0 * 0.0267)
        assert abs(got - want) <= 1e-7 * max(1.0, want)
        assert minimum_stage_count(x * 0.0267, 2.0 * 0.0267 * want * 3.5) == 4


class TestVOut:
    def test_zero_input(self):
        assert v_out(10, 0.0, 0.026) == 0.0

    def test_reference_chain_exceeds_one_volt(self):
        assert v_out(30, 0.05, 0.026) > 1.0

    def test_linear_in_stage_count(self):
        v1 = v_out(7, 0.05, 0.026)
        v2 = v_out(14, 0.05, 0.026)
        assert abs(v2 - 2 * v1) < 1e-12

    def test_monotone_in_drive(self):
        values = [v_out(10, v, 0.026) for v in (0.01, 0.02, 0.05, 0.1, 0.2)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            v_out(0, 0.05, 0.026)
        with pytest.raises(ValueError):
            v_out(10, 0.05, 0.0)
        # 2 n V_T overflows: times ln I0(0) = 0 it would be NaN.
        with pytest.raises(ValueError, match="^2 n v_t overflows"):
            v_out(2, 0.0, 1.7e308)


class TestRectInput:
    def test_purely_real(self):
        rect = rect_input(complex(120.0, 0.0), 20e6)
        assert rect.r_rect == pytest.approx(120.0)
        assert rect.c_rect == 0.0

    def test_series_rc_to_parallel_oracle(self):
        # Series R - 1/(jwC) converted by hand with the classic
        # series-to-parallel identities.
        f, r, c = 20e6, 80.0, 30e-12
        w = 2 * math.pi * f
        z = complex(r, -1.0 / (w * c))
        q = (1.0 / (w * c)) / r
        r_par = r * (1 + q * q)
        c_par = c * q * q / (1 + q * q)
        rect = rect_input(z, f)
        assert rect.r_rect == pytest.approx(r_par, rel=1e-12)
        assert rect.c_rect == pytest.approx(c_par, rel=1e-12)

    def test_round_trip(self):
        f = 100e6
        z = complex(35.0, -80.0)
        rect = rect_input(z, f)
        w = 2 * math.pi * f
        y = 1.0 / rect.r_rect + 1j * w * rect.c_rect
        assert 1.0 / y == pytest.approx(z, rel=1e-9)

    def test_inductive_input_flagged(self):
        rect = rect_input(complex(50.0, 40.0), 20e6)
        assert rect.c_rect < 0

    def test_rejects_nonpositive_real_part(self):
        with pytest.raises(ValueError):
            rect_input(complex(0.0, -50.0), 20e6)


def constraints(**kw):
    base = dict(n_range=tuple(range(1, 61)), q_range=(1.0,),
                max_charge_time=10.0, tissue_z=complex(50, 0), f0=100e6)
    base.update(kw)
    return HarvesterConstraints(**base)


class TestDesignSpace:
    def test_documented_trends(self):
        result = design_space(0.05, 1.0, constraints(q_range=(1.0, 2.0, 3.0)))
        by_n = {}
        for p in result.table:
            by_n.setdefault(p.n, p)
        ns = sorted(by_n)
        r_vals = [by_n[n].r_rect for n in ns]
        c_vals = [by_n[n].c_rect for n in ns]
        assert all(b > a for a, b in zip(r_vals, r_vals[1:]))   # r_rect rises with n
        assert all(b < a for a, b in zip(c_vals, c_vals[1:]))   # c_rect falls with n
        # v_out rises with q at fixed n
        n0 = ns[0]
        qs = sorted(p.q for p in result.table if p.n == n0)
        vals = [next(p.v_out for p in result.table if p.n == n0 and p.q == q) for q in qs]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        # charge time rises with v_out along the n axis at fixed q
        taus = [next(p.charge_time for p in result.table if p.n == n and p.q == 1.0)
                for n in ns]
        vouts = [next(p.v_out for p in result.table if p.n == n and p.q == 1.0)
                 for n in ns]
        assert all(b > a for a, b in zip(taus, taus[1:]))
        assert all(b > a for a, b in zip(vouts, vouts[1:]))

    def test_minimal_stage_count_inversion(self):
        # 1.0 V target from 50 mV at v_t = 26 mV: the sweep's choice must
        # equal the closed-form inversion of the output formula.
        cons = constraints(v_t=0.026)
        result = design_space(0.05, 1.0, cons)
        assert result.chosen is not None
        expected = minimum_stage_count(0.05, 1.0, 0.026)
        assert result.chosen.n == expected == 25

    def test_determinism(self):
        cons = constraints(q_range=(1.0, 2.0))
        a = design_space(0.05, 1.0, cons)
        b = design_space(0.05, 1.0, cons)
        assert a.table == b.table
        assert a.chosen == b.chosen

    def test_empty_ranges_rejected(self):
        with pytest.raises(ValueError):
            constraints(q_range=())
        with pytest.raises(ValueError):
            constraints(n_range=())

    @pytest.mark.parametrize("field, value", [
        ("f0", math.inf), ("q_range", (1.0, math.inf)), ("tissue_z", complex(math.nan, 0.0)),
        ("tissue_z", complex(50.0, math.inf)), ("c_store", math.nan), ("c_store", math.inf),
        ("i_load_avg", 0.0), ("v_t", math.inf), ("v_t", -0.0),
    ])
    def test_non_finite_or_non_positive_box_rejected(self, field, value):
        with pytest.raises(ValueError):
            constraints(**{field: value})

    def test_non_finite_amplitude_rejected(self):
        for v_rx in (math.nan, math.inf):
            with pytest.raises(ValueError):
                design_space(v_rx, 1.0, constraints())
            with pytest.raises(ValueError):
                v_out(3, v_rx)

    def test_thermal_voltage_judged_at_the_largest_stage_count(self):
        assert constraints(n_range=range(1, 9), v_t=1e307).v_t == 1e307
        with pytest.raises(ValueError, match="^2 n v_t overflows at n = 9"):
            constraints(n_range=range(1, 10), v_t=1e307)

    def test_stage_range_checked_before_it_is_expanded(self):
        # A range starting below 1 fails at once; it would not fit in memory as a tuple.
        with pytest.raises(ValueError, match="stage counts"):
            constraints(n_range=range(-10**18, 61))
        assert constraints(n_range=range(1, 4)).n_range == (1, 2, 3)

    def test_infeasible_reports_nearest_misses(self):
        # Ceiling too high for the allowed stages: no feasible point.
        result = design_space(0.05, 50.0, constraints(n_range=tuple(range(1, 10))))
        assert result.chosen is None
        assert set(result.nearest) == {"best_v_out", "best_charge_time", "best_match"}
        assert result.nearest["best_v_out"].v_out < 50.0

    def test_charge_time_constraint_binds(self):
        tight = design_space(0.05, 1.0, constraints(max_charge_time=1e-9))
        assert tight.chosen is None

    def test_boost_factor_reduces_stage_count(self):
        plain = design_space(0.05, 1.0, constraints())
        boosted = design_space(0.05, 1.0, constraints(q_range=(3.0,)))
        assert boosted.chosen.n < plain.chosen.n


class TestScalingModel:
    def test_resistance_grows_capacitance_shrinks(self):
        table = design_space(0.05, 1.0, constraints(n_range=(1, 4), f0=50e6,
                                                    r_stage=1e3, c_stage=1e-12)).table
        r1, r4 = table
        assert (r1.n, r4.n) == (1, 4)
        assert r4.r_rect == pytest.approx(4 * r1.r_rect, rel=1e-9)
        assert r4.c_rect == pytest.approx(r1.c_rect / 4, rel=1e-9)

    @pytest.mark.parametrize("name", ["r_stage", "c_stage"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_stage_values_checked_when_built(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite and > 0$"):
            constraints(**{name: value})

    def test_huge_stage_impedance_does_not_overflow(self):
        # |Z|^2 overflows past 1.3e154 ohm; R_rect is still n r_stage.
        result = design_space(0.05, 1.0, constraints(r_stage=1e300, c_stage=1e-300))
        assert result.table[-1].r_rect == pytest.approx(60 * 1e300, rel=1e-12)
        assert rect_input(complex(1e200, -1e200), 1e6).r_rect == pytest.approx(2e200)
        assert rect_input(complex(1e-200, 1e-200), 1e6).r_rect == pytest.approx(2e-200)

    def test_vanishing_stage_admittance_is_a_value_error(self):
        # 1 / (2 r_stage) underflows to 0, and so does w c_stage / 2 at 0.1 Hz.
        with pytest.raises(ValueError, match="input admittance of 2 stages underflows to 0"):
            design_space(0.05, 1.0, constraints(n_range=(2,), f0=0.1,
                                                r_stage=1.7e308, c_stage=5e-324))

    def test_charge_time_linear_in_stages(self):
        assert charge_time(10, 0.026, 1e-6, 0.47e-6) == pytest.approx(
            2 * charge_time(5, 0.026, 1e-6, 0.47e-6))
