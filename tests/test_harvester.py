"""Rectifier design-space exploration.

ln I0 is held to an ulp of x + ln i0e(x) and the Bessel evaluation to
1e-7 against a straight convergent series, the 30-stage / 50 mV
reference point must clear 1 V, the parallel-equivalent input
conversion has to round-trip, and the grid sweep must reproduce the
documented directional trends and pick the minimal feasible stage count.
The sweep runs over all stage counts at once; a scalar loop over n of
the parallel stage model, kept here as its reference, must give the
same table, choice, nearest misses and error.
"""

import math
import pickle
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import i0e
from test_chain import _python_calls

from wptkit.harvester import (
    _I0_SERIES_MAX,
    DesignPoint,
    DesignSpaceResult,
    HarvesterConstraints,
    _log_i0,
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
        # exp(x) overflows from x ~ 709.8, I0(x) only from x ~ 713.99.  Both
        # sides carry exp's error, about 1e-13 relative at ln I0 ~ 708.
        want = math.exp(712.0 + math.log(i0e(712.0)))
        assert math.isfinite(bessel_i0(712.0))
        assert abs(bessel_i0(712.0) - want) <= 2e-13 * want
        assert bessel_i0(713.98) < math.inf == bessel_i0(714.0) == bessel_i0(800.0)

    @pytest.mark.parametrize("x", [
        0.0, 3.75, math.nextafter(_I0_SERIES_MAX, 0.0), _I0_SERIES_MAX,
        math.nextafter(_I0_SERIES_MAX, math.inf), *(709.8 + 0.418 * i for i in range(11)), 1e5])
    def test_log_i0_within_an_ulp_of_i0e(self, x):
        # Across the old series edge (3.75), both sides of the power /
        # asymptotic crossover, where exp(x) overflows but I0(x) does not,
        # and far out: at most 0.71 eps relative was measured here (and
        # 4.4e-16 against mpmath on 10,500 points of [1e-3, 1e5]).
        want = x + math.log(i0e(x))
        assert abs(_log_i0(x) - want) <= 2.0 ** -52 * want

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
        # minimum_stage_count's per-stage gain is v_out at one stage, checks included.
        with pytest.raises(ValueError, match="^thermal voltage must be > 0$"):
            minimum_stage_count(0.05, 1.0, 0.0)


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

    @pytest.mark.parametrize("z", [complex(0.0, -50.0), complex(-1.0, -50.0)])
    def test_rejects_nonpositive_real_part(self, z):
        with pytest.raises(ValueError, match=r"^harvester input must have Re\(Z\) > 0"):
            rect_input(z, 20e6)

    def test_overflowing_magnitude_is_a_value_error(self):
        with pytest.raises(ValueError, match=r"^\|Z\| of the harvester input overflows, "
                                             r"got \(1\.5e\+308\+1\.5e\+308j\)$"):
            rect_input(complex(1.5e308, 1.5e308), 20e6)


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

    @pytest.mark.parametrize("tissue_z", [complex(1.5e308, 1.5e308), complex(-1.7e308, 1e308)])
    def test_tissue_impedance_whose_magnitude_overflows_rejected(self, tissue_z):
        with pytest.raises(ValueError, match=r"^tissue_z and \|tissue_z\| must be finite"):
            constraints(tissue_z=tissue_z)

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

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 10_000), st.integers(0, 40), st.floats(1e-300, 1e300),
           st.floats(1e-300, 1e300), st.floats(1.0, 1e10))
    def test_parallel_form_is_exact(self, n_min, count, r_stage, c_stage, f0):
        # n stages present n r_stage in parallel with c_stage / n, to the bit.
        try:
            cons = constraints(n_range=range(n_min, n_min + count + 1), r_stage=r_stage,
                               c_stage=c_stage, f0=f0)
        except ValueError:
            assume(False)
        for p in design_space(0.05, 1.0, cons).table:
            assert p.r_rect == p.n * r_stage and p.c_rect == c_stage / p.n

    @pytest.mark.parametrize("name", ["r_stage", "c_stage"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_stage_values_checked_when_built(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite and > 0$"):
            constraints(**{name: value})

    def test_huge_stage_impedance_does_not_overflow(self):
        # |z_stage|^2 overflows past 1.3e154 ohm; R_rect is still n r_stage.
        result = design_space(0.05, 1.0, constraints(r_stage=1e300, c_stage=1e-300))
        assert result.table[-1].r_rect == 60 * 1e300
        assert rect_input(complex(1e200, -1e200), 1e6).r_rect == pytest.approx(2e200)
        assert rect_input(complex(1e-200, 1e-200), 1e6).r_rect == pytest.approx(2e-200)

    def test_largest_stage_resistance_at_one_stage(self):
        # At the float range's edges (1 / r_stage subnormal, c_stage the
        # smallest subnormal) one stage is still r_stage in parallel with
        # c_stage, exactly: no admittance is formed.
        point, = design_space(0.05, 1.0, constraints(n_range=(1,), f0=0.1, r_stage=1.7e308,
                                                     c_stage=5e-324)).table
        assert (point.r_rect, point.c_rect) == (1.7e308, 5e-324)
        assert math.isfinite(point.match_residual)

    @pytest.mark.parametrize("n_range, r_stage, c_stage, f0, tissue_z, error", [
        ((2,), 1.7e308, 5e-324, 0.1, 50.0, "n r_stage overflows at n = 2, r_stage = 1.7e+308 ohm"),
        (range(1, 61), 1.7e308, 1e-12, 2e7, 50.0,
         "n r_stage overflows at n = 60, r_stage = 1.7e+308 ohm"),
        (range(1, 5), 1e307, 5e-324, 1e8, complex(-1.2e308, 1.2e308),
         "|Z_in| + |tissue_z| overflows at n = 4, tissue_z = (-1.2e+308+1.2e+308j)"),
    ])
    def test_stage_model_that_overflows_rejected(self, n_range, r_stage, c_stage, f0,
                                                 tissue_z, error):
        with pytest.raises(ValueError) as err:
            constraints(n_range=n_range, r_stage=r_stage, c_stage=c_stage, f0=f0,
                        tissue_z=tissue_z)
        assert str(err.value) == error

    def test_charge_time_linear_in_stages(self):
        assert charge_time(10, 0.026, 1e-6, 0.47e-6) == pytest.approx(
            2 * charge_time(5, 0.026, 1e-6, 0.47e-6))


def _reference_design_space(v_rx, target_v_out, constraints):
    """design_space as a scalar loop over n of the parallel stage model:
    n stages are n r_stage in parallel with c_stage / n, whose impedance
    is n times that of one stage.  The oracle of the array sweep."""
    if not 0 <= v_rx < math.inf:
        raise ValueError("received amplitude must be finite and >= 0")
    if not target_v_out > 0:
        raise ValueError("target output voltage must be > 0")
    c = constraints
    w = 2.0 * math.pi * c.f0
    z_stage = c.r_stage / complex(1.0, w * (c.r_stage * c.c_stage))
    tissue_z = complex(c.tissue_z)
    rows = []
    for n in map(int, c.n_range):
        residual = abs(n * z_stage - tissue_z.conjugate()) / max(abs(tissue_z), 1e-300)
        tau = 3.0 * (n * c.v_t / c.i_load_avg) * c.c_store
        rows += [DesignPoint(n, float(q), n * c.r_stage, c.c_stage / n,
                             v_out(n, q * v_rx, c.v_t), tau, residual) for q in c.q_range]

    feasible = [p for p in rows
                if p.v_out >= target_v_out and p.charge_time <= c.max_charge_time]
    chosen = min(feasible, key=lambda p: (p.n, p.q), default=None)

    nearest = {}
    if not feasible and rows:
        nearest["best_v_out"] = max(rows, key=lambda p: (p.v_out, -p.n))
        nearest["best_charge_time"] = min(rows, key=lambda p: (p.charge_time, p.n))
        nearest["best_match"] = min(rows, key=lambda p: (p.match_residual, p.n))
    return DesignSpaceResult(tuple(rows), chosen, nearest)


def _outcome(fn, *args):
    """repr of the table, the choice and the nearest misses of fn(*args),
    or the type and message of what it raised."""
    try:
        result = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return repr(tuple(result.table)), repr(result.chosen), repr(result.nearest)


# (r_stage, c_stage, f0, tissue_z) at the float range's edges, by what
# one stage's impedance meets there; each is a valid stage model.
EDGE_STAGE_MODELS = {
    # |z_stage|^2 overflows, or is subnormal.
    "square overflows": (1e300, 1e-300, 1e8, 50.0),
    "square subnormal": (1e-160, 1e-12, 2e7, 50.0),
    # z_stage = r_stage / (1 + 6.3e300 j) underflows to 0.
    "stage impedance underflows": (1e-300, 1e300, 1e300, 50.0),
    # w r_stage c_stage overflows: z_stage is 0.
    "time constant overflows": (1.0, 1e300, 1e300, 50.0),
}


@st.composite
def sweep_problems(draw):
    """(v_rx, target, constraints): stage counts up to 600 in either
    order, several q (repeated, an int, one whose drive overflows), and
    stage models and tissue impedances drawn or at EDGE_STAGE_MODELS."""
    n_min = draw(st.integers(1, 600))
    n_range = range(n_min, draw(st.integers(n_min, 600)) + 1)

    def some(*values, lo=1e-3, hi=1e3):
        return draw(st.one_of(st.sampled_from(values), st.floats(lo, hi)))

    r_stage, c_stage, f0, tissue_z = draw(st.one_of(
        st.sampled_from(list(EDGE_STAGE_MODELS.values())),
        st.tuples(st.floats(1.0, 1e6), st.floats(1e-15, 1e-9), st.floats(1.0, 1e10),
                  st.complex_numbers(max_magnitude=1e4))))
    box = dict(
        n_range=draw(st.sampled_from([n_range, tuple(reversed(n_range)), (n_min, n_min)])),
        q_range=tuple(draw(st.lists(st.sampled_from([1.0, 1.5, 2, 4.0, 1e300]),
                                    min_size=1, max_size=4))),
        max_charge_time=some(10.0, 1e-9, math.inf), tissue_z=tissue_z, f0=f0,
        c_store=some(0.47e-6, 1e-300, 1e300), i_load_avg=some(1e-6, 1e-300),
        v_t=some(0.0267, 1e-300, 1.0), r_stage=r_stage, c_stage=c_stage)
    try:
        constraints = HarvesterConstraints(**box)
    except ValueError:
        assume(False)
    return some(0.05, 0.0, 1e10, lo=0.0, hi=1.0), some(1.0, 1e-3, 50.0, 1e300), constraints


class TestArraySweep:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(sweep_problems())
    def test_matches_reference_loop(self, problem):
        assert _outcome(design_space, *problem) == _outcome(_reference_design_space, *problem)

    @pytest.mark.parametrize("q_range, v_t, error", [
        ((1.0, 2.0), 1e-300, "thermal voltage 1e-300 V is too small for 1e+10 V"),
        ((1.0, 1e300), 0.0267, "input amplitude must be finite and >= 0"),
    ])
    def test_the_drive_is_the_only_sweep_error(self, q_range, v_t, error):
        # Every overflow of the stage model is the constraints' to reject;
        # design_space itself fails only on a q whose drive overflows.
        cons = constraints(q_range=q_range, v_t=v_t)
        got = _outcome(design_space, 1e10, 1.0, cons)
        assert got[0] is ValueError and got[1].startswith(error)
        assert got == _outcome(_reference_design_space, 1e10, 1.0, cons)

    @pytest.mark.parametrize("model", EDGE_STAGE_MODELS)
    def test_edge_stage_models_match_reference(self, model):
        r_stage, c_stage, f0, tissue_z = EDGE_STAGE_MODELS[model]
        cons = constraints(r_stage=r_stage, c_stage=c_stage, f0=f0, tissue_z=tissue_z,
                           q_range=(1.0, 2.0, 4.0))
        assert _outcome(design_space, 0.05, 1.0, cons) == \
            _outcome(_reference_design_space, 0.05, 1.0, cons)

    def test_no_python_frame_per_stage_count(self):
        def calls(n_max):
            cons = constraints(n_range=range(1, n_max + 1), q_range=(1.0, 2.0, 4.0))
            return _python_calls(lambda: design_space(0.05, 1.0, cons))

        assert calls(60) == calls(600)

    def test_table_is_built_on_read_and_pickles_as_a_tuple(self):
        result = design_space(0.05, 1.0, constraints(q_range=(1.0, 2.0)))
        assert len(result.table) == 120 and result.table[-1].n == 60
        assert result.table[:2] == tuple(result.table)[:2]
        back = pickle.loads(pickle.dumps(result))
        assert back == replace(result, table=tuple(result.table))
