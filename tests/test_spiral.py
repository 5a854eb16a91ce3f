"""Spiral geometry: inductance model, synthesis, parasitics, coupling.

The current-sheet inductance is cross-checked against an independently
written modified-Wheeler evaluation, the synthesizer must hit the two
reference targets (400.4 nH in 18x18 mm^2, 80 nH in 5x5 mm^2) within
1 %, and the filament mutual-inductance sum is checked against the
closed-form coaxial-loop elliptic-integral solution and, bit for bit,
against a per-turn-pair loop.
"""

import gc
import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    synthesize_all,
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

    @pytest.mark.parametrize("r", [1e150, 1e200])
    def test_fill_ratio_from_the_edge_where_the_area_overflows(self, r):
        # At r = 1e200 the area overflows, yet the edge and d_avg do not: the
        # fill ratio rounds to 0, as at r = 1e150, and the Wheeler estimate
        # (d_out the edge) is finite.
        g = SpiralGeometry(SQUARE, 1, r, 2e-4, 1e-4)
        assert g.fill_ratio == 0.0
        with pytest.raises(ValueError, match=r"^fill ratio must be > 0, got 0\.0$"):
            inductance(g)
        assert modified_wheeler(g) == wheeler_oracle(g)
        assert math.isfinite(modified_wheeler(g))


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
        # The row table overflows and ends empty, with an empty r run, and no
        # numpy warning escapes, whatever the window-edge guesses.  The near
        # miss is then the smallest one-turn coil: at 1e300 a valid layout
        # whose area overflows but whose L is finite; at 1.7e308 its radius
        # increment overflows too, and there is none.
        g = SpiralGeometry(SQUARE, 1, spiral.R_STEP, minimum + minimum, minimum)
        nearest = None
        if math.isfinite(g.dr):
            l_min = inductance(g)
            assert g.area == math.inf and math.isfinite(l_min)
            nearest = NearMiss(g, l_min, abs(l_min - 80e-9) / 80e-9)
        for _ in wrong_guesses(monkeypatch):
            result = synthesize(80e-9, FabConstraints(minimum, minimum, 1e-4), SQUARE)
            assert result == SynthesisResult((), nearest)

    def test_leaves_no_reference_cycle(self):
        # Every array a synthesis makes is freed when its last reference
        # goes, not at the next cyclic collection, so they do not pile up
        # in peak memory between collections.
        gc.collect()
        gc.disable()
        try:
            for target, fab, shape in OUTCOME_REQUESTS.values():
                synthesize(target, fab, shape)
            assert gc.collect() == 0
        finally:
            gc.enable()

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
    array form: np.log and phi * phi over the whole run.  Its L may differ
    from inductance's, which takes libm's log, in the last bits."""
    cosf = shape.cos_factor
    d_avg = (2.0 * r + n * dr) * cosf
    edge = w + 2.0 * (r + n * dr) * cosf
    phi = edge / d_avg - 1.0
    with np.errstate(invalid="ignore"):
        bracket = np.log(shape.c2 / phi) + shape.c3 * phi + shape.c4 * phi * phi
    return 0.5 * shape.c1 * spiral.MU_0 * n * n * d_avg * bracket, edge


# The array form's relative error lies within a few ulps of inductance's,
# so a point whose array-form error exceeds a bound by this share cannot
# reach the bound by inductance.
SCREEN = 1e-9


def _reference_synthesize(l_target, fab, shape):
    """Point-by-point grid search: every point of every (n, w, dr) row,
    ranked by a Python sort.  Each point that may be kept or be the
    nearest miss is one SpiralGeometry, and inductance and
    modified_wheeler decide on it; the array form only skips the points
    whose error exceeds both L_TOL and the best miss so far by more than
    SCREEN.  The oracle for the bracket search and numpy ranking in
    spiral.synthesize; its candidates are a tuple."""
    candidates = []
    nearest = None

    for n, w, dr, r in _grid_rows(fab, shape):
        l_np, edge = _row_inductance(shape, n, w, dr, r)
        best = math.inf if nearest is None else nearest.rel_error
        screen = (edge * edge <= fab.max_area * (1.0 + 1e-12)) \
            & (np.abs(l_np - l_target) / l_target <= max(spiral.L_TOL, best) * (1.0 + SCREEN))
        for i in np.flatnonzero(screen):
            g = SpiralGeometry(shape, n, float(r[i]), dr, w)
            l_val = inductance(g)
            if not l_val > 0.0:
                continue
            err = abs(l_val - l_target) / l_target
            if err <= spiral.L_TOL:
                try:
                    l_mw = modified_wheeler(g)
                except ValueError:
                    continue
                if abs(l_val - l_mw) / l_val > spiral.WHEELER_TOL:
                    continue
                candidates.append((-g.area, n, w, dr, float(r[i]), g))
            elif nearest is None or err < nearest.rel_error:
                nearest = NearMiss(g, l_val, err)

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
    return SynthesisResult(ranked, nearest if not ranked else None)


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
            return error(guess_edges(*args), args[-1].counts)
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
    exactly L_TOL by inductance: the first ``per_side`` such points, in
    grid order, at the window's top edge (L above the target) and at its
    bottom edge.  The array form proposes the points, inductance decides."""
    found = {1.0: [], -1.0: []}
    for n, w, dr, r in _grid_rows(fab, shape):
        l_np, edge = _row_inductance(shape, n, w, dr, r)
        fits = (edge * edge <= fab.max_area * (1.0 + 1e-12)) & (r >= r_min)
        for sign, hits in found.items():
            # One ulp of the target moves the error by many ulps of L_TOL,
            # so scan a few targets around L / (1 + sign L_TOL).
            t = np.nextafter(l_np / (1.0 + sign * spiral.L_TOL), 0.0)
            for _ in range(8):
                t = np.nextafter(t, np.inf)
                exact = fits & (np.abs(l_np - t) / t == spiral.L_TOL)
                for i in np.flatnonzero(exact):
                    g = SpiralGeometry(shape, n, float(r[i]), dr, w)
                    l_val, target = inductance(g), float(t[i])
                    try:
                        l_mw = modified_wheeler(g)
                    except ValueError:
                        continue
                    if len(hits) < per_side and abs(l_val - target) / target == spiral.L_TOL \
                            and abs(l_val - l_mw) / l_val <= spiral.WHEELER_TOL:
                        hits.append((target, g))
        if all(len(hits) == per_side for hits in found.values()):
            break
    return found[1.0] + found[-1.0]


def _kept_at_edge(target, g, check):
    """Whether g is kept one ulp below, at and one ulp above target."""
    return [g in check(t).candidates
            for t in (math.nextafter(target, 0.0), target, math.nextafter(target, math.inf))]


def _log_forks(fab, shape):
    """(geometry, array-form L) of the grid points inside the cap whose L by
    the array form, with numpy's log, differs from inductance's, in grid
    order."""
    forks = []
    for n, w, dr, r in _grid_rows(fab, shape):
        l_np, edge = _row_inductance(shape, n, w, dr, r)
        for i in np.flatnonzero(edge * edge <= fab.max_area * (1.0 + 1e-12)):
            g = SpiralGeometry(shape, n, float(r[i]), dr, w)
            if inductance(g) != l_np[i]:
                forks.append((g, float(l_np[i])))
    return forks


def _around(x, steps=4):
    """x and its ``steps`` float neighbours on either side, ascending."""
    below, above = [x], [x]
    for _ in range(steps):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


class _LogOffByAnUlp:
    """numpy as spiral uses it, but each log result is moved one ulp up or
    down at random (seeded): a log that parts from libm's, as another
    numpy build's may."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def __getattr__(self, name):
        return getattr(np, name)

    def log(self, x):
        y = np.log(x)
        return np.nextafter(y, np.where(self._rng.random(np.shape(y)) < 0.5, -np.inf, np.inf))


def assert_batch_matches_reference(requests, monkeypatch):
    """synthesize_all equals, per request, the oracle and synthesize with
    that request alone (equal candidates in the same order, equal near
    miss, equal repr), with Newton's guesses and under every wrong guess
    of GUESS_ERRORS.  Returns the oracle's results."""
    want = [_reference_synthesize(*request) for request in requests]
    for _ in wrong_guesses(monkeypatch):
        got = synthesize_all(requests)
        assert len(got) == len(requests)
        for request, batched, expected in zip(requests, got, want):
            for result in (batched, synthesize(*request)):
                assert len(result.candidates) == len(expected.candidates)
                assert tuple(result.candidates) == expected.candidates
                assert repr(tuple(result.candidates)) == repr(expected.candidates)
                assert result.nearest == expected.nearest
                assert repr(result.nearest) == repr(expected.nearest)
    return want


# One request per outcome: candidates; one candidate at the first point
# of the grid's first row, the first point its request evaluates; a
# nearest miss from the grid, no row reaching the target; a rerun on
# every row, as the two rows that reach 0.2653 nH hold no candidate; no
# grid point inside the cap, the one-turn fallback.  "hit", "first-point"
# and "rerun" share (fab, shape).
OUTCOME_REQUESTS = {
    "hit": (80e-9, FabConstraints(max_area=(5e-3) ** 2), SQUARE),
    "first-point": (inductance(SpiralGeometry(SQUARE, 1, spiral.R_STEP, 200e-6, 100e-6)),
                    FabConstraints(max_area=(5e-3) ** 2), SQUARE),
    "miss": (1e-3, FabConstraints(60e-6, 80e-6, 1e-2), CIRCULAR),
    "rerun": (0.2653e-9, FabConstraints(max_area=(5e-3) ** 2), SQUARE),
    "no-point": (80e-9, FabConstraints(500e-6, 500e-6, 1e-6), HEXAGONAL),
}


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

    def test_points_on_the_edges_kept_as_inductance_says(self):
        # At the grid points whose L by numpy's log differs from
        # inductance's (libm's log), put the target on either L_TOL edge
        # (L / (1 -+ L_TOL) and its float neighbours), or, with the target
        # at L, put modified_wheeler on either WHEELER_TOL edge (shapes whose
        # K1 makes it L (1 -+ WHEELER_TOL), and their float neighbours): the
        # point is kept exactly when inductance and modified_wheeler say so.
        fab = FabConstraints(max_area=(5e-3) ** 2)
        cases = []  # (edge, target, geometry, array-form L)
        for shape in SHAPE_LIST:
            for g, l_np in _log_forks(fab, shape):
                try:
                    l_val, l_mw = inductance(g), modified_wheeler(g)
                except ValueError:  # the winding fills past the center
                    continue
                for sign in (1.0, -1.0):
                    cases += [("L_TOL", t, g, l_np)
                              for t in _around(l_val / (1.0 + sign * spiral.L_TOL))]
                    k1 = shape.k1 * (l_val * (1.0 + sign * spiral.WHEELER_TOL) / l_mw)
                    cases += [("WHEELER_TOL", l_val, replace(g, shape=replace(shape, k1=k)), l_np)
                              for k in _around(k1)]
        parted = set()
        for edge, target, g, l_np in cases:
            l_val, l_mw = inductance(g), modified_wheeler(g)

            def keeps(l_cs):
                return abs(l_cs - target) / target <= spiral.L_TOL \
                    and abs(l_cs - l_mw) / l_cs <= spiral.WHEELER_TOL

            result = synthesize(target, fab, g.shape)
            assert (g in result.candidates) == keeps(l_val), (edge, target, g)
            assert all(abs(inductance(c) - target) / target <= spiral.L_TOL
                       for c in result.candidates)
            if keeps(l_np) != keeps(l_val):
                parted.add(edge)
        # Where the two logs part, the array form's L decides some cases of
        # each edge the other way.
        assert parted == {"L_TOL", "WHEELER_TOL"} or not cases

    def test_results_do_not_depend_on_numpys_log(self, monkeypatch):
        # With a numpy log one ulp off, synthesis still equals the oracle at
        # targets on the L_TOL edges.
        fab = FabConstraints(max_area=(5e-3) ** 2)
        edges = {shape: _edge_targets(shape, fab) for shape in SHAPE_LIST}
        for seed in range(2):
            monkeypatch.setattr(spiral, "np", _LogOffByAnUlp(seed))
            spiral._grid.cache_clear()
            for shape, pairs in edges.items():
                for target, g in pairs:
                    _kept_at_edge(target, g, lambda t: assert_matches_reference(t, fab, shape))
        monkeypatch.setattr(spiral, "np", np)
        spiral._grid.cache_clear()

    def test_nearest_miss_among_equal_errors_is_the_first(self, monkeypatch):
        # Two circular 4-turn grid points with one L: the second's trace is
        # 200 um wider, its pitch 50 um less and its radius 100 um more.
        # Each tops its row, and both miss the target by as much: with a
        # numpy log one ulp off, the nearest miss is still the first of
        # them, in grid order, as inductance ranks them.
        rows = spiral._grid(((FabConstraints(50e-6, 50e-6, 1e-4), CIRCULAR),)).rows
        n4 = int(np.flatnonzero(rows.n == 4)[0])
        pair = [SpiralGeometry(CIRCULAR, 4, spiral.R_STEP * (1 + k), float(rows.dr[i]),
                               float(rows.w[i]))
                for k, i in enumerate((n4 + 3 * spiral.DR_STEPS + 11,
                                       n4 + 7 * spiral.DR_STEPS + 6))]
        l_val = inductance(pair[0])
        assert inductance(pair[1]) == l_val and pair[1].area >= pair[0].area
        fab = FabConstraints(50e-6, 50e-6, pair[1].area)
        grid = spiral._grid(((fab, CIRCULAR),))
        picks = np.concatenate([np.flatnonzero(
            (grid.rows.n == 4) & (grid.rows.w == g.w) & (grid.rows.dr == g.dr)) for g in pair])
        assert picks.size == 2
        target = 2.0 * l_val
        want = NearMiss(pair[0], l_val, abs(l_val - target) / target)
        for seed in range(16):
            monkeypatch.setattr(spiral, "np", _LogOffByAnUlp(seed))
            assert spiral._search([(target, fab, CIRCULAR)], grid, [picks])[0].nearest == want

    @pytest.mark.parametrize("shape", SHAPE_LIST, ids=lambda shape: shape.name)
    def test_caps_at_a_grid_points_footprint_match_reference(self, shape, monkeypatch):
        # A cap equal to a grid point's footprint makes the point the last
        # of its row's run.  Just below it the area test's 1e-12 slack
        # decides whether that point fits; further below, the run still
        # ends one point past the cap.  Caps at a row's first point
        # (r = R_STEP) leave that row's run one point or empty it.
        def gated(g):  # passes the Wheeler gate
            try:
                return abs(inductance(g) - modified_wheeler(g)) / inductance(g) \
                    <= spiral.WHEELER_TOL
            except ValueError:
                return False

        rows = list(_grid_rows(FabConstraints(max_area=(5e-3) ** 2), shape))
        last = next(g for n, w, dr, r in sorted(rows, key=lambda row: -row[3].size)
                    for g in (SpiralGeometry(shape, n, float(x), dr, w) for x in r[r.size // 2:])
                    if gated(g))
        n, w, dr, _ = rows[-1]
        first = SpiralGeometry(shape, n, spiral.R_STEP, dr, w)
        for g in (last, first):
            area = g.area
            caps = (area, math.nextafter(area, 0.0), *_around(area / (1.0 + 1e-12), 2),
                    area * (1.0 - 1e-11))
            kept = []
            for cap in caps:
                fab = FabConstraints(max_area=cap)
                assert_matches_reference(1e-3, fab, shape, monkeypatch)
                want = assert_matches_reference(inductance(g), fab, shape, monkeypatch)
                kept.append(g in want.candidates)
            if g is last:
                assert kept[:2] == [True, True] and not kept[-1]
                assert False in kept[2:-1] and True in kept[2:-1]

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

    def test_equal_areas_keep_grid_order(self, monkeypatch):
        # A benchmark-pool case whose candidates hold equal areas, so the
        # (n, w, dr, r) tie-break decides their order: with Newton's
        # windows and with every wrong guess's bisected ones.
        fab = FabConstraints(max_area=5.313518700922677e-04)
        want = assert_matches_reference(3.082310571729168e-07, fab, HEXAGONAL, monkeypatch)
        areas = [g.area for g in want.candidates]
        assert any(a == b for a, b in zip(areas, areas[1:]))

    def test_random_cases_match_reference(self):
        rng = np.random.default_rng(20251018)
        for _ in range(12):
            cap = math.exp(rng.uniform(math.log((1e-3) ** 2), math.log((18e-3) ** 2)))
            width, spacing = (float(v) for v in rng.uniform(50e-6, 500e-6, 2))
            target = math.exp(rng.uniform(math.log(5e-9), math.log(2e-6)))
            shape = SHAPE_LIST[int(rng.integers(len(SHAPE_LIST)))]
            assert_matches_reference(target, FabConstraints(width, spacing, cap), shape)

    @pytest.mark.parametrize("second", OUTCOME_REQUESTS)
    @pytest.mark.parametrize("first", OUTCOME_REQUESTS)
    def test_outcome_pairs_match_reference(self, first, second, monkeypatch):
        # Every ordered pair of outcomes in one batch, a request with itself
        # included; each request's result is what it gets alone.
        want = assert_batch_matches_reference(
            [OUTCOME_REQUESTS[first], OUTCOME_REQUESTS[second]], monkeypatch)
        for name, result in zip((first, second), want):
            assert bool(result.candidates) == (name in ("hit", "first-point"))
            fallback = result.nearest is not None and result.nearest.geometry.r == spiral.R_STEP \
                and result.nearest.geometry.area > OUTCOME_REQUESTS[name][1].max_area
            assert fallback == (name == "no-point")

    def test_seeded_batches_match_reference(self, monkeypatch):
        # Three pairs and a triple of random requests: shapes, fab minima
        # of 50-500 um, caps from 1e-6 to 1e-2 m^2 and targets from 0.5 nH
        # to 20 uH; the triple's last request shares its first's (fab, shape).
        rng = np.random.default_rng(20261020)

        def draw():
            cap = math.exp(rng.uniform(math.log(1e-6), math.log(1e-2)))
            width, spacing = (float(v) for v in rng.uniform(50e-6, 500e-6, 2))
            target = math.exp(rng.uniform(math.log(0.5e-9), math.log(20e-6)))
            return target, FabConstraints(width, spacing, cap), \
                SHAPE_LIST[int(rng.integers(len(SHAPE_LIST)))]

        batches = [[draw(), draw()] for _ in range(3)]
        triple = [draw(), draw()]
        triple.append((triple[0][0] * 1.5, *triple[0][1:]))
        outcomes = set()
        for requests in (*batches, triple):
            for result in assert_batch_matches_reference(requests, monkeypatch):
                outcomes.add("hit" if result.candidates else "miss" if result.nearest else "none")
        assert {"hit", "miss"} <= outcomes

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
        assert lanes.get("newton", 0) == 0 and lanes[error] > 0

    def test_cases_reach_every_outcome(self):
        # Candidates, a near miss from the grid and the one-turn fallback.
        assert synthesize(80e-9, FabConstraints(max_area=(5e-3) ** 2), SQUARE).candidates
        miss = synthesize(400.4e-9, FabConstraints(max_area=(1e-3) ** 2), SQUARE).nearest
        assert miss is not None and miss.geometry.n > 1
        fallback = synthesize(80e-9, FabConstraints(max_area=(0.5e-3) ** 2), SQUARE).nearest
        assert fallback is not None
        assert (fallback.geometry.n, fallback.geometry.r) == (1, spiral.R_STEP)
        assert fallback.geometry.area > (0.5e-3) ** 2


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def _row_geometry(grid, shape, i, k):
    """The SpiralGeometry at run index k of row i of a _grid."""
    rows = grid.rows
    return SpiralGeometry(shape, int(rows.n[i]), float(grid.r_run[k]), float(rows.dr[i]),
                          float(rows.w[i]))


@st.composite
def grid_cases(draw):
    """(fab, shape): fab minima of 50-500 um, caps from 1 mm^2 to 1e-2 m^2."""
    return (FabConstraints(draw(_log_uniform(50e-6, 500e-6)), draw(_log_uniform(50e-6, 500e-6)),
                           draw(_log_uniform(1e-6, 1e-2))),
            draw(st.sampled_from(SHAPE_LIST)))


class TestGridPruning:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(grid_cases())
    def test_closed_form_bounds_hold_every_row(self, case):
        # Each live row's L, as inductance evaluates it, lies at its first
        # and top grid points inside the row's closed-form range widened by
        # PRUNE_MARGIN; in between it rises, so it lies there everywhere.
        fab, shape = case
        grid = spiral._grid(((fab, shape),))
        counts = grid.rows.counts
        assert (counts > 0).all()
        low = grid.l_first * (1.0 - spiral.PRUNE_MARGIN)
        high = grid.l_top * (1.0 + spiral.PRUNE_MARGIN)
        for i, count in enumerate(counts.tolist()):
            for k in (0, count - 1):
                assert low[i] <= inductance(_row_geometry(grid, shape, i, k)) <= high[i], (i, k)

    @pytest.mark.parametrize("shape", SHAPE_LIST, ids=lambda shape: shape.name)
    def test_targets_at_a_rows_bounds_match_reference(self, shape, monkeypatch):
        # Targets whose L_TOL window, or the target itself, sits at a row's
        # closed-form end value, one ulp and one PRUNE_MARGIN either side:
        # the row is kept on one side and dropped on the other.
        fab = FabConstraints(max_area=(5e-3) ** 2)
        grid = spiral._grid(((fab, shape),))
        margin = spiral.PRUNE_MARGIN
        row = int(np.argmax(grid.rows.counts))
        for end, window_edge in ((float(grid.l_top[row]), 1.0 - spiral.L_TOL),
                                 (float(grid.l_first[row]), 1.0 + spiral.L_TOL)):
            widened = end * (1.0 + margin if window_edge < 1.0 else 1.0 - margin)
            for centre in (end, widened / window_edge):
                targets = {centre, math.nextafter(centre, 0.0), math.nextafter(centre, math.inf),
                           centre * (1.0 - margin), centre * (1.0 + margin)}
                for target in sorted(targets):
                    assert_matches_reference(target, fab, shape, monkeypatch)

    def test_search_reruns_on_every_row_only_without_candidates(self, monkeypatch):
        # A reachable target searches the rows that reach it once; without
        # a candidate there, every row is searched for the nearest miss.
        # A batch searches its requests' rows together, and reruns only
        # the requests that need it.
        searched = []
        search = spiral._search

        def counting(requests, grid, picks):
            searched.append(sum(pick.size for pick in picks))
            return search(requests, grid, picks)

        monkeypatch.setattr(spiral, "_search", counting)
        fab = FabConstraints(max_area=(5e-3) ** 2)
        live = spiral._grid(((fab, SQUARE),)).rows.counts.size
        assert synthesize(80e-9, fab, SQUARE).candidates
        assert len(searched) == 1 and 0 < searched[0] < live
        reach = searched[0]
        searched.clear()
        assert synthesize(1e-3, fab, SQUARE).nearest is not None
        assert searched == [live]  # no row reaches 1 mH: one search of every row
        searched.clear()
        # Two rows reach 0.2653 nH, but none of their points is a candidate.
        assert not synthesize(0.2653e-9, fab, SQUARE).candidates
        assert searched == [2, live]
        searched.clear()
        hit, none, rerun = synthesize_all(
            [(80e-9, fab, SQUARE), (1e-3, fab, SQUARE), (0.2653e-9, fab, SQUARE)])
        assert hit.candidates and none.nearest is not None and not rerun.candidates
        assert searched == [reach + live + 2, live]

    def test_cleared_cache_gives_the_same_result(self):
        fab = FabConstraints(max_area=(5e-3) ** 2)
        for shape in SHAPE_LIST:
            for target in (80e-9, 1e-3):
                warm = synthesize(target, fab, shape)
                assert synthesize(target, fab, shape) == warm
                spiral._grid.cache_clear()
                cold = synthesize(target, fab, shape)
                assert cold == warm
                assert repr(tuple(cold.candidates)) == repr(tuple(warm.candidates))
                assert repr(cold.nearest) == repr(warm.nearest)

    def test_grid_is_cached_read_only(self):
        fab = FabConstraints(max_area=(5e-3) ** 2)
        grid = spiral._grid(((fab, HEXAGONAL),))
        assert spiral._grid(((FabConstraints(max_area=(5e-3) ** 2), HEXAGONAL),)) is grid
        for array in (*grid.rows, grid.r_run):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            grid.rows.counts[0] = 0


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

    def test_equal_and_hashed_item_wise(self):
        # Candidates compare and hash as the tuple of their geometries, as
        # every built-on-read sequence does, so a result holding them hashes.
        fab = FabConstraints(max_area=(5e-3) ** 2)
        a, b = synthesize(80e-9, fab, SQUARE), synthesize(80e-9, fab, SQUARE)
        assert a == b and hash(a) == hash(b)
        assert hash(a.candidates) == hash(tuple(a.candidates))
        other = synthesize(81e-9, fab, SQUARE)
        assert other.candidates != a.candidates and len({a, b, other}) == 2


class TestAcResistance:
    GEOM = SpiralGeometry(SQUARE, 6, 2e-3, 0.5e-3, 0.3e-3)

    def test_dc_value(self):
        rho = 1.68e-8
        expected = rho * trace_length(self.GEOM) / (0.3e-3 * 35e-6)
        assert ac_resistance(self.GEOM, 0.0) == pytest.approx(expected)
        # Far below the skin effect t_eff is the whole thickness, not 0.
        assert ac_resistance(self.GEOM, 1e-30) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_frequency(self):
        freqs = [0.0, 1e5, 1e6, 1e7, 2e7, 1e8, 1e9]
        values = [ac_resistance(self.GEOM, f) for f in freqs]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_skin_depth_oracle(self):
        # Copper at 20 MHz: sqrt(rho / (pi f mu0)) evaluated directly.
        rho = 1.68e-8
        expected = math.sqrt(rho / (math.pi * 20e6 * MU0))
        assert skin_depth(20e6) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(14.7e-6, rel=0.02)

    @pytest.mark.parametrize("f", [0.0, 1e6])
    def test_cross_section_that_underflows_rejected(self, f):
        # w t_eff rounds to 0 for the smallest subnormal width.
        g = SpiralGeometry(SQUARE, 1, 1e-3, 2e-4, 5e-324)
        with pytest.raises(ValueError, match=r"width w = 5e-324 m$"):
            ac_resistance(g, f)

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

    def test_coincident_filaments_give_no_warning(self):
        # At a distance of 1e-12 m equal-radius filaments meet: the Neumann
        # integrand divides by 0 and M is inf, without a numpy warning, and
        # the k estimate rejects it.
        g = SpiralGeometry(SQUARE, 3, 1e-3, 2e-4, 1e-4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mutual_inductance(g, g, 1e-12) == math.inf
            with pytest.raises(ValueError, match="mutual inductance is inf: filaments"):
                estimate_k(g, g, 1e-12)

    def test_k_in_unit_interval(self):
        # The filament M exceeds sqrt(L L) when the coils nearly touch: such
        # a k is rejected, not clamped below 1.
        g = SpiralGeometry(SQUARE, 6, 6e-3, 0.7e-3, 0.4e-3)
        assert 0.0 < estimate_k(g, g, 1e-3) < 1.0
        with pytest.raises(ValueError, match=r"^estimated k = 1\.\d+ is outside \(0, 1\)$"):
            estimate_k(g, g, 1e-6)

    def test_cosine_grid_keeps_the_integral(self):
        # Each block's cosine grid gives, bit for bit, the integral of one
        # loop pair on its own grid, and a repeated call the same bits.
        cases = [(10e-3, 10e-3, d) for d in (1e-6, 2e-3, 40e-3)] + [(12e-3, 3e-3, 8e-3)]
        for _ in range(2):
            assert [repr(mutual_inductance(_loop(a), _loop(b), d)) for a, b, d in cases] == \
                [repr(_reference_loop_mutual(*c)) for c in cases]


def _loop(radius):
    """A one-turn circular spiral: one filament loop of exactly ``radius``."""
    return SpiralGeometry(CIRCULAR, 1, radius, 1e-3, 0.5e-3)


def _reference_loop_mutual(a, b, d):
    """The Neumann integral of one loop pair on its own uncached grid."""
    closeness = math.sqrt(a * b) / max(math.hypot(a - b, d), 1e-12)
    npts = int(min(max(256, 64 * math.ceil(closeness) * 8), 65536))
    psi = np.linspace(0.0, 2.0 * math.pi, npts, endpoint=False)
    integrand = np.cos(psi) / np.sqrt(a * a + b * b + d * d - 2.0 * a * b * np.cos(psi))
    return float(0.5 * spiral.MU_0 * a * b * np.mean(integrand) * 2.0 * math.pi)


def _reference_mutual_inductance(tx, rx, distance):
    """The per-turn-pair loop: one integral per (TX turn, RX turn) pair,
    summed from 0 in that order."""
    total = 0.0
    for i in range(tx.n):
        a = spiral._equivalent_loop_radius(tx.shape, tx.r + i * tx.dr)
        for j in range(rx.n):
            b = spiral._equivalent_loop_radius(rx.shape, rx.r + j * rx.dr)
            total += _reference_loop_mutual(a, b, distance)
    return total


@st.composite
def coupled_spirals(draw):
    """(tx, rx, distance): 1-40 turns a side, any shape, the two sides
    often the same coil, which puts equal loops at the smallest distances
    on the largest quadrature (65,536 points)."""
    def side():
        w = draw(_log_uniform(50e-6, 500e-6))
        return SpiralGeometry(draw(st.sampled_from(SHAPE_LIST)), draw(st.integers(1, 40)),
                              draw(_log_uniform(100e-6, 10e-3)),
                              w + draw(_log_uniform(50e-6, 500e-6)), w)
    tx = side()
    rx = tx if draw(st.booleans()) else side()
    return tx, rx, draw(_log_uniform(1e-5, 0.05))


def _blocked_mutual(tx, rx, distance):
    """mutual_inductance, and the (pairs, quadrature size) of each block."""
    blocks = []
    pair_terms = spiral._pair_terms

    def recording(a, b, d, npts):
        blocks.append((a.size, npts))
        return pair_terms(a, b, d, npts)

    with mock.patch.object(spiral, "_pair_terms", recording):
        return mutual_inductance(tx, rx, distance), blocks


class TestCouplingSum:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(coupled_spirals())
    def test_equals_per_pair_loop(self, case):
        got, blocks = _blocked_mutual(*case)
        assert repr(got) == repr(_reference_mutual_inductance(*case))
        assert all(pairs * npts <= spiral.NEUMANN_BLOCK for pairs, npts in blocks)
        assert sum(pairs for pairs, _ in blocks) == case[0].n * case[1].n

    def test_close_forty_turn_pair_stays_within_the_block_budget(self):
        # Equal 40-turn coils 10 um apart: every diagonal pair takes the
        # largest quadrature, and the 1,600 pairs' 12.8 million integrand
        # points, 100 MB of float64 per array at once, go through blocks of
        # NEUMANN_BLOCK points; some quadrature size is split across blocks.
        g = SpiralGeometry(SQUARE, 40, 8e-3, 0.15e-3, 0.1e-3)
        got, blocks = _blocked_mutual(g, g, 1e-5)
        assert repr(got) == repr(_reference_mutual_inductance(g, g, 1e-5))
        sizes = [npts for _, npts in blocks]
        assert max(sizes) == 65536
        assert sum(pairs * npts for pairs, npts in blocks) > 100 * spiral.NEUMANN_BLOCK
        assert all(pairs * npts <= spiral.NEUMANN_BLOCK for pairs, npts in blocks)
        assert any(sizes.count(npts) > 1 and npts < 65536 for npts in sizes)


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
