"""Spiral geometry: inductance model, synthesis, parasitics, coupling.

The current-sheet inductance is cross-checked against an independently
written modified-Wheeler evaluation, the synthesizer must hit the two
reference targets (400.4 nH in 18x18 mm^2, 80 nH in 5x5 mm^2) within
1 %, and the filament mutual-inductance sum is checked against the
closed-form coaxial-loop elliptic-integral solution.
"""

import math

import numpy as np
import pytest
from scipy.special import ellipe, ellipk

from wptkit import spiral
from wptkit.spiral import (
    CIRCULAR,
    HEXAGONAL,
    OCTAGONAL,
    SQUARE,
    FabConstraints,
    NearMiss,
    ShapeCoefficients,
    SpiralGeometry,
    SynthesisResult,
    ac_resistance,
    estimate_k,
    inductance,
    modified_wheeler,
    mutual_inductance,
    skin_depth,
    synthesize,
    trace_length,
)

MU0 = 4e-7 * math.pi


def wheeler_oracle(g: SpiralGeometry) -> float:
    """Independent modified-Wheeler evaluation (test-side copy)."""
    k_table = {"square": (2.34, 2.75), "hexagonal": (2.33, 3.82),
               "octagonal": (2.25, 3.55), "circular": (2.25, 3.55)}
    k1, k2 = k_table[g.shape.name]
    cosf = 1.0 if g.shape.seg == math.inf else math.cos(math.pi / g.shape.seg)
    d_avg = (2.0 * g.r + g.n * g.dr) * cosf
    d_out = g.w + 2.0 * (g.r + g.n * g.dr) * cosf
    d_in = 2.0 * d_avg - d_out
    rho = (d_out - d_in) / (d_out + d_in)
    return k1 * MU0 * g.n ** 2 * d_avg / (1.0 + k2 * rho)


def loop_mutual_oracle(a: float, b: float, d: float) -> float:
    """Closed-form coaxial-loop mutual inductance via elliptic integrals."""
    m2 = 4.0 * a * b / ((a + b) ** 2 + d ** 2)
    m = math.sqrt(m2)
    return MU0 * math.sqrt(a * b) * ((2.0 / m - m) * ellipk(m2) - (2.0 / m) * ellipe(m2))


class TestGeometryRelations:
    def test_circular_limit(self):
        g = SpiralGeometry(CIRCULAR, 3, 2e-3, 0.5e-3, 0.3e-3)
        assert g.avg_diameter == pytest.approx(2 * 2e-3 + 3 * 0.5e-3)

    def test_square_cos_factor(self):
        g = SpiralGeometry(SQUARE, 3, 2e-3, 0.5e-3, 0.3e-3)
        factor = math.cos(math.pi / 4)
        assert g.avg_diameter == pytest.approx((2 * 2e-3 + 3 * 0.5e-3) * factor)
        assert math.sqrt(g.area) == pytest.approx(0.3e-3 + 2 * (2e-3 + 3 * 0.5e-3) * factor)

    def test_fill_ratio_identity(self):
        # phi*d_avg + d_avg = sqrt(A) is the defining identity.
        for shape in (SQUARE, HEXAGONAL, OCTAGONAL, CIRCULAR):
            g = SpiralGeometry(shape, 7, 1.2e-3, 0.4e-3, 0.2e-3)
            lhs = g.fill_ratio * g.avg_diameter + g.avg_diameter
            assert lhs == pytest.approx(math.sqrt(g.area), rel=1e-12)

    def test_area_recomputation_is_exact(self):
        g = SpiralGeometry(SQUARE, 5, 3e-3, 0.6e-3, 0.4e-3)
        edge = g.w + 2 * (g.r + g.n * g.dr) * math.cos(math.pi / 4)
        assert g.area == edge * edge  # bit-for-bit, same expression

    def test_overlapping_turns_rejected(self):
        with pytest.raises(ValueError):
            SpiralGeometry(SQUARE, 5, 3e-3, 0.2e-3, 0.4e-3)


class TestInductance:
    def test_turn_count_scaling(self):
        # With d_avg and phi pinned, L goes as n^2.  Pin them by scaling
        # r and dr so the geometry stays self-similar.
        g1 = SpiralGeometry(SQUARE, 5, 4e-3, 0.4e-3, 0.2e-3)
        g2 = SpiralGeometry(SQUARE, 10, 4e-3 - 0.5 * 5 * 0.4e-3 + 0.5 * 10 * 0.2e-3,
                            0.2e-3, 0.2e-3)
        # d_avg equal by construction: 2r2 + 10*0.2m == 2r1 + 5*0.4m
        assert g2.avg_diameter == pytest.approx(g1.avg_diameter)
        # phi differs only through w; same w keeps sqrt(A) equal too.
        assert g2.fill_ratio == pytest.approx(g1.fill_ratio)
        assert inductance(g2) == pytest.approx(4 * inductance(g1), rel=1e-12)

    def test_square_against_wheeler(self):
        # 10-turn square coil, 18 mm outer edge, 0.5 mm trace.
        w, n, dr = 0.5e-3, 10, 0.8e-3
        cosf = math.cos(math.pi / 4)
        r = ((18e-3 - w) / (2 * cosf)) - n * dr
        g = SpiralGeometry(SQUARE, n, r, dr, w)
        assert math.sqrt(g.area) == pytest.approx(18e-3)
        l_cs = inductance(g)
        l_mw = wheeler_oracle(g)
        assert abs(l_cs - l_mw) / l_cs < 0.05

    def test_monotone_in_turns(self):
        values = [inductance(SpiralGeometry(SQUARE, n, 2e-3, 0.4e-3, 0.2e-3))
                  for n in range(1, 12)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestSynthesize:
    def test_symmetric_reference_target(self):
        fab = FabConstraints(max_area=(18e-3) ** 2)
        result = synthesize(400.4e-9, fab, SQUARE)
        assert result.candidates
        for g in result.candidates:
            assert abs(inductance(g) - 400.4e-9) / 400.4e-9 <= 0.01
            assert g.area <= (18e-3) ** 2 * (1 + 1e-9)

    def test_small_implant_target(self):
        fab = FabConstraints(max_area=(5e-3) ** 2)
        result = synthesize(80e-9, fab, SQUARE)
        assert result.candidates
        for g in result.candidates:
            assert abs(inductance(g) - 80e-9) / 80e-9 <= 0.01
            assert g.area <= (5e-3) ** 2 * (1 + 1e-9)

    def test_ranked_by_descending_area(self):
        fab = FabConstraints(max_area=(18e-3) ** 2)
        result = synthesize(400.4e-9, fab, SQUARE)
        areas = [g.area for g in result.candidates]
        assert areas == sorted(areas, reverse=True)

    def test_wheeler_gate_respected(self):
        fab = FabConstraints(max_area=(18e-3) ** 2)
        for g in synthesize(400.4e-9, fab, SQUARE).candidates:
            l_cs = inductance(g)
            assert abs(l_cs - wheeler_oracle(g)) / l_cs <= 0.05 + 1e-9

    def test_infeasible_area_reports_nearest(self):
        fab = FabConstraints(max_area=(0.5e-3) ** 2)
        result = synthesize(400e-9, fab, SQUARE)
        assert not result.candidates
        assert result.nearest is not None
        assert result.nearest.rel_error > 0.01

    def test_deterministic(self):
        fab = FabConstraints(max_area=(5e-3) ** 2)
        a = synthesize(80e-9, fab, SQUARE)
        b = synthesize(80e-9, fab, SQUARE)
        assert a.candidates == b.candidates

    @pytest.mark.parametrize("minimum", [1e300, 1.7e308])
    def test_huge_fabrication_minima_leave_no_grid_point(self, minimum, monkeypatch):
        # The row table overflows and ends empty, with an empty r run; no
        # numpy warning escapes and the result has neither candidates nor a
        # finite near miss, whatever the window-edge guesses.
        for _ in wrong_guesses(monkeypatch):
            result = synthesize(80e-9, FabConstraints(minimum, minimum, 1e-4), SQUARE)
            assert result == SynthesisResult(80e-9, (), None)

    def test_non_finite_inputs_rejected(self):
        with pytest.raises(ValueError):
            synthesize(math.inf, FabConstraints(), SQUARE)
        for field in ("min_trace_width", "min_spacing", "max_area"):
            with pytest.raises(ValueError):
                FabConstraints(**{field: math.inf})
        with pytest.raises(ValueError):
            skin_depth(math.inf)


def _grid_rows(fab, shape):
    """(n, w, dr, r run) of every non-empty grid row, in (n, w, dr) order."""
    cosf = shape.cos_factor
    edge_max = math.sqrt(fab.max_area)
    for n in range(1, spiral.N_MAX + 1):
        for iw in range(spiral.W_STEPS):
            w = fab.min_trace_width + iw * spiral.TRACE_STEP
            for idr in range(spiral.DR_STEPS):
                dr = w + fab.min_spacing + idr * spiral.TRACE_STEP
                r_hi = (edge_max - w) / (2.0 * cosf) - n * dr
                if r_hi < spiral.R_STEP:
                    continue
                r = np.arange(spiral.R_STEP, r_hi + 0.5 * spiral.R_STEP, spiral.R_STEP)
                if r.size:
                    yield n, w, dr, r


def _row_inductance(shape, n, w, dr, r):
    """Current-sheet L and footprint edge along one row's r run, in the
    array form: np.log and phi**2 over the whole run."""
    cosf = shape.cos_factor
    d_avg = (2.0 * r + n * dr) * cosf
    edge = w + 2.0 * (r + n * dr) * cosf
    phi = edge / d_avg - 1.0
    with np.errstate(invalid="ignore"):
        bracket = np.log(shape.c2 / phi) + shape.c3 * phi + shape.c4 * phi**2
    return 0.5 * shape.c1 * spiral.MU_0 * n * n * d_avg * bracket, edge


def _reference_synthesize(l_target, fab, shape):
    """Point-by-point grid search: every point of every (n, w, dr) row,
    one SpiralGeometry per point inside L_TOL, ranked by a Python sort.
    The oracle for the bracket search and numpy ranking in
    spiral.synthesize; its candidates are a tuple."""
    candidates = []
    nearest = None

    for n, w, dr, r in _grid_rows(fab, shape):
        l_val, edge = _row_inductance(shape, n, w, dr, r)
        ok_area = edge * edge <= fab.max_area * (1.0 + 1e-12)
        ok_model = l_val > 0.0
        rel = np.abs(l_val - l_target) / l_target
        usable = ok_area & ok_model
        for i in np.nonzero(usable)[0]:
            err = float(rel[i])
            if err <= spiral.L_TOL:
                g = SpiralGeometry(shape, n, float(r[i]), dr, w)
                try:
                    l_mw = modified_wheeler(g)
                except ValueError:
                    continue
                l_cs = float(l_val[i])
                if abs(l_cs - l_mw) / l_cs > spiral.WHEELER_TOL:
                    continue
                candidates.append((-g.area, n, w, dr, float(r[i]), g))
            elif nearest is None or err < nearest.rel_error:
                g = SpiralGeometry(shape, n, float(r[i]), dr, w)
                nearest = NearMiss(g, float(l_val[i]), err)

    candidates.sort(key=lambda item: item[:5])
    ranked = tuple(item[5] for item in candidates)
    if not ranked and nearest is None:
        w = fab.min_trace_width
        g = SpiralGeometry(shape, 1, spiral.R_STEP, w + fab.min_spacing, w)
        try:
            l_min = inductance(g)
            nearest = NearMiss(g, l_min, abs(l_min - l_target) / l_target)
        except ValueError:
            nearest = None
    return SynthesisResult(l_target, ranked, nearest if not ranked else None)


# Wrong window-edge guesses (spiral._guess_edges) that the exact edge
# tests must catch: each edge off by -3, -1, +1 or +3 points, every edge
# at 0 or at its row's count, and NaN.  Caught rows are bisected.
GUESS_ERRORS = {
    "minus3": lambda guess, counts: guess - 3.0,
    "minus1": lambda guess, counts: guess - 1.0,
    "plus1": lambda guess, counts: guess + 1.0,
    "plus3": lambda guess, counts: guess + 3.0,
    "zero": lambda guess, counts: np.zeros_like(guess),
    "count": lambda guess, counts: np.broadcast_to(counts, guess.shape).astype(float),
    "nan": lambda guess, counts: np.full_like(guess, np.nan),
}


def wrong_guesses(monkeypatch, errors=tuple(GUESS_ERRORS)):
    """Yields once with Newton's guesses, then once with each of ``errors``
    applied to them, then restores spiral._guess_edges."""
    guess_edges = spiral._guess_edges
    yield "newton"
    for name in errors:
        def wrong(*args, error=GUESS_ERRORS[name]):
            return error(guess_edges(*args), args[-1])
        monkeypatch.setattr(spiral, "_guess_edges", wrong)
        yield name
    monkeypatch.setattr(spiral, "_guess_edges", guess_edges)


def assert_matches_reference(l_target, fab, shape, monkeypatch=None):
    """synthesize equals the oracle: the same candidates in the same
    order, the same near miss, with equal repr (Python ints and floats,
    no numpy scalars); with ``monkeypatch``, also under every wrong guess
    of GUESS_ERRORS.  Returns the oracle's result."""
    want = _reference_synthesize(l_target, fab, shape)
    for _ in wrong_guesses(monkeypatch) if monkeypatch else ("newton",):
        got = synthesize(l_target, fab, shape)
        assert got.l_target == want.l_target
        assert len(got.candidates) == len(want.candidates)
        assert tuple(got.candidates) == want.candidates
        assert repr(tuple(got.candidates)) == repr(want.candidates)
        assert got.nearest == want.nearest
        assert repr(got.nearest) == repr(want.nearest)
    return want


# Caps: the two reference implants, a large 1e-2 m^2 board, a 1 mm^2 cap
# whose few grid points miss both reachable targets (near miss from the
# grid) and a cap below the smallest one-turn coil (fallback near miss).
EQUIVALENCE_CAPS = ((5e-3) ** 2, (18e-3) ** 2, 1e-2, (1e-3) ** 2, (0.5e-3) ** 2)
EQUIVALENCE_TARGETS = (80e-9, 400.4e-9, 1e-3)  # 1 mH is out of reach
SHAPE_LIST = (SQUARE, HEXAGONAL, OCTAGONAL, CIRCULAR)


def _edge_targets(shape, fab, per_side=2, r_min=0.0):
    """(target, geometry) pairs at which the geometry, a grid point with
    r >= r_min that passes the Wheeler gate, has a relative error of
    exactly L_TOL: the first ``per_side`` such points, in grid order, at
    the window's top edge (L above the target) and at its bottom edge."""
    found = {1.0: [], -1.0: []}
    for n, w, dr, r in _grid_rows(fab, shape):
        l_val, edge = _row_inductance(shape, n, w, dr, r)
        fits = (edge * edge <= fab.max_area * (1.0 + 1e-12)) & (r >= r_min)
        for sign, hits in found.items():
            # One ulp of the target moves the error by many ulps of L_TOL,
            # so scan a few targets around L / (1 + sign L_TOL).
            t = np.nextafter(l_val / (1.0 + sign * spiral.L_TOL), 0.0)
            for _ in range(8):
                t = np.nextafter(t, np.inf)
                exact = fits & (np.abs(l_val - t) / t == spiral.L_TOL)
                for i in np.flatnonzero(exact):
                    g = SpiralGeometry(shape, n, float(r[i]), dr, w)
                    try:
                        l_mw = modified_wheeler(g)
                    except ValueError:
                        continue
                    l_cs = float(l_val[i])
                    if len(hits) < per_side and abs(l_cs - l_mw) / l_cs <= spiral.WHEELER_TOL:
                        hits.append((float(t[i]), g))
        if all(len(hits) == per_side for hits in found.values()):
            break
    return found[1.0] + found[-1.0]


def _kept_at_edge(target, g, check):
    """Whether g is kept one ulp below, at and one ulp above target."""
    return [g in check(t).candidates
            for t in (math.nextafter(target, 0.0), target, math.nextafter(target, math.inf))]


class TestSynthesizeEquivalence:
    @pytest.mark.parametrize("cap", EQUIVALENCE_CAPS, ids="cap={:.3g}".format)
    @pytest.mark.parametrize("shape", SHAPE_LIST, ids=lambda shape: shape.name)
    def test_identical_to_reference_loop(self, shape, cap, monkeypatch):
        fab = FabConstraints(max_area=cap)
        for target in EQUIVALENCE_TARGETS:
            assert_matches_reference(target, fab, shape, monkeypatch)

    @pytest.mark.parametrize("shape", SHAPE_LIST, ids=lambda shape: shape.name)
    def test_window_edges_match_reference(self, shape, monkeypatch):
        # A grid point whose error is exactly L_TOL is kept; one ulp of
        # target away it sits just inside or just outside the window.
        fab = FabConstraints(max_area=(5e-3) ** 2)
        edges = _edge_targets(shape, fab)
        assert len(edges) == 4
        for target, g in edges:
            kept = _kept_at_edge(
                target, g, lambda t: assert_matches_reference(t, fab, shape, monkeypatch))
            # Kept at the edge; exactly one neighbour moves it outside.
            assert kept[1] and kept.count(False) == 1

    @pytest.mark.parametrize("shape", SHAPE_LIST, ids=lambda shape: shape.name)
    def test_wide_window_edges_kept(self, shape):
        # At r >= 30 mm one R_STEP changes L by well under 1 %, so the
        # window spans several points on each side of the target; its edge
        # points are found in the array form, without the slow oracle.
        fab = FabConstraints(max_area=1e-2)
        edges = _edge_targets(shape, fab, r_min=30e-3)
        assert len(edges) == 4
        for target, g in edges:
            kept = _kept_at_edge(target, g, lambda t: synthesize(t, fab, shape))
            assert kept[1] and kept.count(False) == 1

    def test_random_cases_match_reference(self):
        rng = np.random.default_rng(20251018)
        for _ in range(12):
            cap = math.exp(rng.uniform(math.log((1e-3) ** 2), math.log((18e-3) ** 2)))
            width, spacing = (float(v) for v in rng.uniform(50e-6, 500e-6, 2))
            target = math.exp(rng.uniform(math.log(5e-9), math.log(2e-6)))
            shape = SHAPE_LIST[int(rng.integers(len(SHAPE_LIST)))]
            assert_matches_reference(target, FabConstraints(width, spacing, cap), shape)

    @pytest.mark.parametrize("minimum", [50e-6, 100e-6, 500e-6])
    @pytest.mark.parametrize("shape", SHAPE_LIST, ids=lambda shape: shape.name)
    def test_inductance_rises_along_every_row(self, shape, minimum):
        # The invariant the bracket search relies on: along each (n, w, dr)
        # row the array-form L rises strictly with r, up to the 1e-2 m^2 cap.
        fab = FabConstraints(minimum, minimum, 1e-2)
        rows = 0
        for n, w, dr, r in _grid_rows(fab, shape):
            l_val, _ = _row_inductance(shape, n, w, dr, r)
            assert np.all(np.diff(l_val) > 0.0), (n, w, dr)
            rows += 1
        assert rows > 4000  # of the 5,760 (n, w, dr) rows

    @pytest.mark.parametrize("error", GUESS_ERRORS)
    def test_wrong_guesses_are_bisected(self, monkeypatch, error):
        # Newton's guesses need no bisection at the reference targets; each
        # wrong guess is caught on some rows, which are bisected.
        lanes = {}
        first_false = spiral._first_false

        def counting(test, hi):
            lanes[name] = lanes.get(name, 0) + hi.size
            return first_false(test, hi)

        monkeypatch.setattr(spiral, "_first_false", counting)
        for name in wrong_guesses(monkeypatch, (error,)):
            synthesize(400.4e-9, FabConstraints(max_area=(18e-3) ** 2), SQUARE)
            synthesize(80e-9, FabConstraints(max_area=(5e-3) ** 2), SQUARE)
        assert lanes["newton"] == 0 and lanes[error] > 0

    def test_cases_reach_every_outcome(self):
        # Candidates, a near miss from the grid and the one-turn fallback.
        assert synthesize(80e-9, FabConstraints(max_area=(5e-3) ** 2), SQUARE).candidates
        miss = synthesize(400.4e-9, FabConstraints(max_area=(1e-3) ** 2), SQUARE).nearest
        assert miss is not None and miss.geometry.n > 1
        fallback = synthesize(80e-9, FabConstraints(max_area=(0.5e-3) ** 2), SQUARE).nearest
        assert fallback is not None
        assert (fallback.geometry.n, fallback.geometry.r) == (1, spiral.R_STEP)
        assert fallback.geometry.area > (0.5e-3) ** 2


class TestRankedCandidates:
    def test_geometries_built_only_when_read(self, monkeypatch):
        built = []

        def counting(*args):
            built.append(args)
            return SpiralGeometry(*args)

        result = synthesize(400.4e-9, FabConstraints(max_area=(18e-3) ** 2), SQUARE)
        monkeypatch.setattr(spiral, "SpiralGeometry", counting)
        assert len(result.candidates) > 100 and not built
        first = result.candidates[0]
        assert len(built) == 1
        assert result.candidates[:5][0] == first and len(built) == 6

    def test_sequence_protocol(self):
        cands = synthesize(80e-9, FabConstraints(max_area=(5e-3) ** 2), SQUARE).candidates
        full = tuple(cands)
        assert len(full) == len(cands) > 2
        assert cands[-1] == full[-1] and cands[1:3] == full[1:3]
        assert cands[::-1] == full[::-1] and cands[:0] == ()
        assert list(iter(cands)) == list(full) and full[2] in cands
        with pytest.raises(IndexError):
            cands[len(cands)]
        assert isinstance(cands[0].n, int) and isinstance(cands[0].r, float)


class TestAcResistance:
    GEOM = SpiralGeometry(SQUARE, 6, 2e-3, 0.5e-3, 0.3e-3, t=35e-6)

    def test_dc_value(self):
        rho = 1.68e-8
        expected = rho * trace_length(self.GEOM) / (0.3e-3 * 35e-6)
        assert ac_resistance(self.GEOM, 0.0, rho) == pytest.approx(expected)

    def test_monotone_in_frequency(self):
        freqs = [0.0, 1e5, 1e6, 1e7, 2e7, 1e8, 1e9]
        values = [ac_resistance(self.GEOM, f) for f in freqs]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_skin_depth_oracle(self):
        # Copper at 20 MHz: sqrt(rho / (pi f mu0)) evaluated directly.
        rho = 1.68e-8
        expected = math.sqrt(rho / (math.pi * 20e6 * MU0))
        assert skin_depth(20e6, rho) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(14.7e-6, rel=0.02)

    def test_trace_length_square(self):
        g = SpiralGeometry(SQUARE, 2, 1e-3, 0.5e-3, 0.3e-3)
        # Two turns with circumradii 1.0 and 1.5 mm; square perimeter is
        # 4 * sqrt(2) * R for circumradius R.
        expected = 4 * 2 * math.sin(math.pi / 4) * (1e-3 + 1.5e-3)
        assert trace_length(g) == pytest.approx(expected)


class TestCoupling:
    def test_single_turn_loops_match_elliptic_form(self):
        one = SpiralGeometry(CIRCULAR, 1, 10e-3, 1e-3, 0.5e-3)
        for d in (2e-3, 5e-3, 15e-3, 40e-3):
            got = mutual_inductance(one, one, d)
            want = loop_mutual_oracle(10e-3, 10e-3, d)
            assert abs(got - want) / want < 0.01

    def test_unequal_loops(self):
        big = SpiralGeometry(CIRCULAR, 1, 12e-3, 1e-3, 0.5e-3)
        small = SpiralGeometry(CIRCULAR, 1, 3e-3, 1e-3, 0.5e-3)
        got = mutual_inductance(big, small, 8e-3)
        want = loop_mutual_oracle(12e-3, 3e-3, 8e-3)
        assert abs(got - want) / want < 0.01

    def test_k_decays_with_distance(self):
        g = SpiralGeometry(SQUARE, 4, 5e-3, 0.8e-3, 0.4e-3)
        ks = [estimate_k(g, g, d) for d in (5e-3, 10e-3, 20e-3, 50e-3, 200e-3)]
        assert all(b < a for a, b in zip(ks, ks[1:]))
        assert ks[-1] < 1e-3

    def test_k_in_unit_interval(self):
        g = SpiralGeometry(SQUARE, 6, 6e-3, 0.7e-3, 0.4e-3)
        k = estimate_k(g, g, 1e-6)
        assert 0.0 <= k < 1.0

    def test_cached_cosine_grid_keeps_the_integral(self):
        # The grid is built once per point count and shared read-only; the
        # integral equals, bit for bit, the one that builds its own grid.
        def uncached(a, b, d):
            closeness = math.sqrt(a * b) / max(math.hypot(a - b, d), 1e-12)
            npts = int(min(max(256, 64 * math.ceil(closeness) * 8), 65536))
            psi = np.linspace(0.0, 2.0 * math.pi, npts, endpoint=False)
            integrand = np.cos(psi) / np.sqrt(a * a + b * b + d * d - 2.0 * a * b * np.cos(psi))
            return float(0.5 * spiral.MU_0 * a * b * np.mean(integrand) * 2.0 * math.pi)

        cases = [(10e-3, 10e-3, d) for d in (1e-6, 2e-3, 40e-3)] + [(12e-3, 3e-3, 8e-3)]
        for _ in range(2):
            assert [repr(spiral._loop_mutual(*c)) for c in cases] == \
                [repr(uncached(*c)) for c in cases]
        grid = spiral._cos_grid(512)
        assert grid is spiral._cos_grid(512)
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0] = 0.0


class TestShapeCoefficients:
    def test_embedded_table(self):
        assert (SQUARE.c1, SQUARE.c2, SQUARE.c3, SQUARE.c4) == (1.27, 2.07, 0.18, 0.13)
        assert (CIRCULAR.c1, CIRCULAR.c2, CIRCULAR.c3, CIRCULAR.c4) == (1.00, 2.46, 0.00, 0.20)
        assert OCTAGONAL.seg == 8 and HEXAGONAL.seg == 6

    def test_invalid_coefficients_rejected(self):
        with pytest.raises(ValueError):
            ShapeCoefficients("bad", 4, -1.0, 2.0, 0.0, 0.0, 2.34, 2.75)
        with pytest.raises(ValueError, match="must be finite"):
            ShapeCoefficients("bad", 4, 1.27, 2.07, 0.18, math.nan, 2.34, 2.75)

    @pytest.mark.parametrize("c2, c4", [(2.07, 0.3), (0.1, -1.0)])
    def test_l_falling_along_a_row_rejected(self, c2, c4):
        # dL/dd_avg ~ ln(c2/phi) + 1 - c4 phi^2 must stay > 0 for phi up to
        # 1 + 1/cos_factor (2.41 for a square).  (2.07, 0.3) fails at that
        # end; (0.1, -1.0) passes there but fails at its minimum, phi = 0.71.
        with pytest.raises(ValueError, match="must be > 0 for fill ratios"):
            ShapeCoefficients("bad", 4, 1.27, c2, 0.18, c4, 2.34, 2.75)

    def test_tabulated_shapes_keep_l_rising(self):
        # The bracket search's invariant holds with a margin for every
        # tabulated shape; the square's, 0.088, is the smallest.
        for shape in SHAPE_LIST:
            phi = 1.0 + 1.0 / shape.cos_factor
            assert math.log(shape.c2 / phi) + 1.0 - shape.c4 * phi * phi > 0.08
        ShapeCoefficients("negative c4", 4, 1.27, 2.07, 0.18, -0.5, 2.34, 2.75)
