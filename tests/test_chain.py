"""The network stages against the per-point object code they replaced.

The tissue ladder and the matching-network link build one validated
matrix from a product of split (re, im) entries, at one frequency or
along a frequency axis.  They must give the entries, float for float, of
the old code, which validated a matrix at every step and ran one
frequency at a time in Python's complex arithmetic; that code is kept
here as the reference (``_reference_*``), with the old formulas of the
coil ABCD, the ABCD/S conversions, the table interpolation and the sweep
row.  The split arithmetic itself is checked against CPython's complex
and float operations on random operands.  The number of matrices each
stage builds is counted by wrapping ``TwoPortMatrix.__post_init__``.
"""

import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wptkit import cli, coil, harvester, imn, netcore, pipeline, spiral, tissue
from wptkit.coil import CoilPair, PortPair, coil_abcd
from wptkit.efficiency import gamma_factor
from wptkit.imn import ElementKind, LSectionIMN, MatchingElement, _db, assemble_link
from wptkit.netcore import TwoPortMatrix
from wptkit.pipeline import run_design, spec_from_dict
from wptkit.spiral import SQUARE, SpiralGeometry
from wptkit.tissue import (
    EPS_0,
    TISSUE_LIBRARY,
    ColeColeLayer,
    NetworkTable,
    TissueStack,
    complex_permittivity,
    default_implant_stack,
    effective_conductivity,
    ladder_two_port,
    modified_coil_abcd,
    muscle,
)
from wptkit.touchstone import (
    format_touchstone,
    parse_touchstone,
    record_from_matrices,
    write_touchstone,
)

F0 = 20e6
FREQS = [float(f) for f in np.geomspace(F0 / 10, F0 * 10, 9)]
AXIS = np.geomspace(F0 / 10, F0 * 10, 1001)
REF_COIL = CoilPair(400e-9, 400e-9, 0.5, 0.5, 0.1)


def _reference_cascade(a, b):
    return netcore.abcd_matrix(
        a.m11 * b.m11 + a.m12 * b.m21,
        a.m11 * b.m12 + a.m12 * b.m22,
        a.m21 * b.m11 + a.m22 * b.m21,
        a.m21 * b.m12 + a.m22 * b.m22,
    )


def _reference_permittivity(layer, f):
    """The Cole-Cole sum at one frequency, every term evaluated."""
    w = 2.0 * math.pi * f
    eps = complex(layer.eps_inf, 0.0)
    for d_eps, tau, alpha in layer.dispersions:
        eps += d_eps / (1.0 + (1j * (w * tau)) ** (1.0 - alpha))
    if layer.sigma_static > 0.0:
        eps += layer.sigma_static / (1j * w * EPS_0)
    return eps


def _reference_ladder(stack, f, permittivity=complex_permittivity):
    w = 2.0 * math.pi * f
    mu0 = 4e-7 * math.pi
    coupling = mu0 * math.sqrt(stack.face_area)
    out = netcore.abcd_matrix(1.0, 0.0, 0.0, 1.0)
    for layer in stack.layers:
        sigma_eff = 1j * w * EPS_0 * permittivity(layer, f)
        t_s = layer.thickness / stack.sections_per_layer
        z = (w * coupling) * (w * coupling) * sigma_eff * t_s
        y = sigma_eff * t_s
        half = 0.5 * z
        a = 1.0 + half * y
        section = netcore.abcd_matrix(a, z + half * half * y, y, a)
        for _ in range(stack.sections_per_layer):
            out = _reference_cascade(out, section)
    return out


def _reference_element(elem, f):
    w = 2.0 * math.pi * f
    if elem.kind is ElementKind.SERIES_INDUCTOR:
        return netcore.abcd_matrix(1.0, 1j * w * elem.value, 0.0, 1.0)
    if elem.kind is ElementKind.SERIES_CAPACITOR:
        return netcore.abcd_matrix(1.0, -1j / (w * elem.value), 0.0, 1.0)
    if elem.kind is ElementKind.SHUNT_CAPACITOR:
        return netcore.abcd_matrix(1.0, 0.0, 1j * w * elem.value, 1.0)
    return netcore.abcd_matrix(1.0, 0.0, -1j / (w * elem.value), 1.0)


def _reference_assemble_link(imn, t_coil, f):
    tx_series, tx_shunt = _reference_element(imn.tx_series, f), _reference_element(imn.tx_shunt, f)
    rx_series, rx_shunt = _reference_element(imn.rx_series, f), _reference_element(imn.rx_shunt, f)
    if imn.tx_series_at_port:
        tx = _reference_cascade(tx_series, tx_shunt)
    else:
        tx = _reference_cascade(tx_shunt, tx_series)
    if imn.rx_series_at_port:
        rx = _reference_cascade(rx_shunt, rx_series)
    else:
        rx = _reference_cascade(rx_series, rx_shunt)
    out = netcore.abcd_matrix(1.0, 0.0, 0.0, 1.0)
    for net in (tx, t_coil, rx):
        out = _reference_cascade(out, net)
    return out


def _reference_coil_abcd(coils, f):
    w = 2.0 * math.pi * f
    m = coils.mutual
    jwm = 1j * w * m
    za = coils.r1 + 1j * w * coils.l1
    zb = coils.r2 + 1j * w * coils.l2
    return netcore.abcd_matrix(za / jwm, (w * w * m * m + za * zb) / jwm, 1.0 / jwm, zb / jwm)


def _reference_abcd_to_s(net, zp1, zp2):
    a, b, c, d = net.entries
    den = a * zp2 + b + c * zp1 * zp2 + d * zp1
    root = (zp1 * zp2) ** 0.5
    return netcore.s_matrix(
        (a * zp2 + b - c * zp1 * zp2 - d * zp1) / den,
        2.0 * (a * d - b * c) * root / den,
        2.0 * root / den,
        (-a * zp2 + b - c * zp1 * zp2 + d * zp1) / den,
        zp1, zp2)


def _reference_s_to_abcd(net):
    s11, s12, s21, s22 = net.entries
    zp1, zp2 = net.zp1, net.zp2
    den = 2.0 * s21
    x = s12 * s21
    p, q = 1.0 + s11, 1.0 - s11
    u, v = 1.0 + s22, 1.0 - s22
    root = (zp1 * zp2) ** 0.5
    return netcore.abcd_matrix(
        (p * v + x) / den * (zp1 / zp2) ** 0.5,
        (p * u - x) / den * root,
        (q * v - x) / den / root,
        (q * u + x) / den * (zp2 / zp1) ** 0.5)


def _reference_table_at(table, f):
    grid = table._f
    entries = [complex(float(np.interp(f, grid, re)), float(np.interp(f, grid, im)))
               for re, im in zip(table._re, table._im)]
    return netcore.s_matrix(*entries, table.zp, table.zp)


def _reference_s_at(link, f, with_imn):
    if link.override is not None:
        t = _reference_s_to_abcd(_reference_table_at(link.override, f))
    else:
        t = _reference_coil_abcd(link.coils, f)
        if link.stack is not None:
            t = _reference_cascade(t, _reference_ladder(link.stack, f))
    if with_imn and link.matching is not None:
        t = _reference_assemble_link(link.matching, t, f)
    return _reference_abcd_to_s(t, link.ports.zp1, link.ports.zp2)


def _reference_pte_max_pct(s):
    s21_sq = s.m21 * s.m21
    mag = abs(s21_sq)
    if mag < 1e-300:
        return math.nan
    a = abs(s.m11 * s.m22 - s21_sq) * abs(s.m11 * s.m22 - s21_sq)
    b = -abs(s.m11) * abs(s.m11)
    c = -abs(s.m22) * abs(s.m22)
    k_r = (1.0 + a + b + c) / (2.0 * mag)
    if k_r < 1.0:
        return math.nan
    return 1.0 / (k_r + math.sqrt(k_r * k_r - 1.0)) * 100.0


def _reference_row(f, s, ports):
    pte = gamma_factor(ports) * (abs(complex(s.m21)) * abs(complex(s.m21)))
    return pipeline.SweepRow(f, _db(abs(s.m11)), _db(abs(s.m21)), _db(abs(s.m22)),
                             pte * 100.0, _reference_pte_max_pct(s))


def _all_imns():
    """Every topology case with every L/C choice of its four elements."""
    series = (MatchingElement(ElementKind.SERIES_INDUCTOR, 330e-9),
              MatchingElement(ElementKind.SERIES_CAPACITOR, 47e-12))
    shunt = (MatchingElement(ElementKind.SHUNT_INDUCTOR, 820e-9),
             MatchingElement(ElementKind.SHUNT_CAPACITOR, 110e-12))
    return [LSectionIMN(case, txs, txp, rxs, rxp)
            for case in (1, 2, 3, 4)
            for txs, txp, rxs, rxp in itertools.product(series, shunt, series, shunt)]


def assert_same(got, want):
    assert (got.m11, got.m12, got.m21, got.m22) == (want.m11, want.m12, want.m21, want.m22)
    assert repr(got) == repr(want)


def assert_axis_same(got, want):
    """``got``, a matrix along an axis, equals the per-point matrices
    ``want`` entry by entry, in repr (so signed zeros count)."""
    assert got.representation is want[0].representation
    assert (got.zp1, got.zp2) == (want[0].zp1, want[0].zp2)
    for k, entries in enumerate(got.entries):
        assert [repr(complex(x)) for x in entries] == [repr(w.entries[k]) for w in want], k


def point_matrix(net, i):
    """Point ``i`` of a matrix along an axis, as a one-frequency matrix."""
    return TwoPortMatrix(net.representation, *(complex(m[i]) for m in net.entries),
                         net.zp1, net.zp2)


@pytest.fixture
def matrices_built(monkeypatch):
    """Counter of TwoPortMatrix objects built while the test runs."""
    count = [0]
    post_init = TwoPortMatrix.__post_init__

    def counted(matrix):
        count[0] += 1
        post_init(matrix)

    monkeypatch.setattr(TwoPortMatrix, "__post_init__", counted)
    return count


@pytest.mark.parametrize("sections", [1, 10, 30, 100])
def test_ladder_equals_object_cascade(sections):
    for face_area in ((18e-3) ** 2, 1e-4):
        stack = default_implant_stack(face_area, sections)
        for f in FREQS:
            assert_same(ladder_two_port(stack, f), _reference_ladder(stack, f))


def test_assemble_link_equals_object_cascade():
    imns = _all_imns()
    assert len(imns) == 64
    stack = default_implant_stack(sections_per_layer=10)
    for f in FREQS:
        for t_coil in (coil_abcd(REF_COIL, f), modified_coil_abcd(coil_abcd(REF_COIL, f), stack, f)):
            for imn in imns:
                assert_same(assemble_link(imn, t_coil, f), _reference_assemble_link(imn, t_coil, f))


def test_cascades_equal_the_object_cascade():
    a, b, c = (coil_abcd(REF_COIL, f) for f in FREQS[:3])
    assert_same(netcore.cascade(a, b), _reference_cascade(a, b))
    chained = _reference_cascade(_reference_cascade(_reference_cascade(
        netcore.abcd_matrix(1.0, 0.0, 0.0, 1.0), a), b), c)
    assert_same(netcore.cascade_all(a, b, c), chained)
    assert_same(netcore.cascade_all(), netcore.abcd_matrix(1.0, 0.0, 0.0, 1.0))


def test_each_stage_builds_one_matrix(matrices_built):
    stack = default_implant_stack(sections_per_layer=30)
    t_coil = coil_abcd(REF_COIL, F0)
    imn = _all_imns()[-1]
    matrices_built[0] = 0
    ladder_two_port(stack, F0)
    assert matrices_built[0] == 1
    matrices_built[0] = 0
    assemble_link(imn, t_coil, F0)
    assert matrices_built[0] == 1


@pytest.mark.parametrize("override", [False, True])
def test_link_point_builds_at_most_five_matrices(tmp_path, matrices_built, override):
    spec = {"f0_hz": F0, "tissue": {"sections_per_layer": 30}}
    if override:
        link = run_design(spec_from_dict(spec)).link
        freqs = FREQS[::2]
        record = record_from_matrices(
            freqs, [netcore.abcd_to_s(link.coil_abcd_at(f), 50.0, 50.0) for f in freqs], 50.0)
        write_touchstone(record, tmp_path / "link.s2p")
        spec["tissue"] = {"override_s2p": str(tmp_path / "link.s2p")}
    link = run_design(spec_from_dict(spec)).link
    assert link.matching is not None
    for with_imn in (True, False):
        matrices_built[0] = 0
        link.s_at(F0 * 1.1, with_imn=with_imn)
        assert matrices_built[0] <= 5


def test_non_finite_product_raises_at_the_result():
    # Each section is finite; the products overflow.
    with pytest.raises(ValueError, match="must be finite"):
        ladder_two_port(TissueStack((muscle(),), 3, 1e148), F0)
    huge = MatchingElement(ElementKind.SERIES_INDUCTOR, 1e306)
    imn = LSectionIMN(1, huge, _all_imns()[0].tx_shunt, huge, _all_imns()[0].rx_shunt)
    with pytest.raises(ValueError, match="must be finite"):
        assemble_link(imn, coil_abcd(REF_COIL, F0), F0)
    with pytest.raises(ValueError, match="expected ABCD"):
        netcore.cascade_all(coil_abcd(REF_COIL, F0), netcore.abcd_to_s(coil_abcd(REF_COIL, F0), 50, 50))


# -- the frequency axis ------------------------------------------------------


@pytest.mark.parametrize("sections", [1, 10, 30, 100])
def test_ladder_axis_equals_object_cascade(sections):
    stack = default_implant_stack(sections_per_layer=sections)
    assert_axis_same(ladder_two_port(stack, AXIS),
                     [_reference_ladder(stack, f) for f in AXIS.tolist()])


def test_ladder_permittivity_is_complex_permittivity(monkeypatch):
    # The ladder checks its axis once, then evaluates each layer's
    # permittivity from 2 pi f along the whole axis, unchecked.
    stack = default_implant_stack()
    want = [complex_permittivity(layer, f) for layer in stack.layers for f in AXIS.tolist()]
    core, got = tissue._permittivity_at, []

    def recording(layer, w):
        eps = core(layer, w)
        got.extend(complex(re, im) for re, im in zip(eps.real.tolist(), eps.imag.tolist()))
        return eps

    monkeypatch.setattr(tissue, "_permittivity_at", recording)
    ladder_two_port(stack, AXIS)
    assert len(got) == len(want) == 3 * 1001
    assert [repr(eps) for eps in got] == [repr(eps) for eps in want]


def test_assemble_link_axis_equals_object_cascade():
    axis = AXIS[::10]
    stack = default_implant_stack(sections_per_layer=10)
    bare = coil_abcd(REF_COIL, axis)
    for t_coil in (bare, modified_coil_abcd(bare, stack, axis)):
        points = [point_matrix(t_coil, i) for i in range(len(axis))]
        for imn in _all_imns():
            assert_axis_same(assemble_link(imn, t_coil, axis),
                             [_reference_assemble_link(imn, t, f)
                              for t, f in zip(points, axis.tolist())])


@pytest.fixture(scope="module")
def links(tmp_path_factory):
    """The default link with 30 sections per layer, and the link whose
    tissue-modified network is that link's .s2p table."""
    analytic = run_design(spec_from_dict({"f0_hz": F0, "tissue": {"sections_per_layer": 30}})).link
    freqs = pipeline.frequency_grid(F0 / 12, F0 * 12, 201)
    record = record_from_matrices(
        freqs, [netcore.abcd_to_s(analytic.coil_abcd_at(f), 50.0, 50.0) for f in freqs], 50.0)
    path = tmp_path_factory.mktemp("links") / "link.s2p"
    write_touchstone(record, path)
    override = run_design(spec_from_dict({"f0_hz": F0, "tissue": {"override_s2p": str(path)}})).link
    return {"analytic": analytic, "override": override}


@pytest.mark.parametrize("with_imn", [True, False])
@pytest.mark.parametrize("name", ["analytic", "override"])
def test_link_sweep_equals_per_point_reference(links, name, with_imn):
    link = links[name]
    assert link.matching is not None
    freqs = AXIS.tolist()
    want = [_reference_s_at(link, f, with_imn) for f in freqs]
    assert_axis_same(link.s_at(AXIS, with_imn=with_imn), want)
    rows = pipeline.sweep_link(link, freqs, with_imn=with_imn)
    assert [repr(row) for row in rows] == [repr(_reference_row(f, s, link.ports))
                                           for f, s in zip(freqs, want)]


def test_table_sweep_equals_per_point_reference(links):
    table = links["override"].override
    freqs = AXIS.tolist()
    want = [_reference_table_at(table, f) for f in freqs]
    assert_axis_same(table.at(AXIS), want)
    ports = links["override"].ports
    assert [repr(row) for row in pipeline.sweep_table(table, freqs)] == \
        [repr(_reference_row(f, s, ports)) for f, s in zip(freqs, want)]


def test_sweep_builds_a_fixed_number_of_matrices(links, matrices_built):
    # One matrix per stage: coil, ladder, their cascade, the IMN link and
    # the S conversion; a table link has its S table and its ABCD form.
    want = {("analytic", True): 5, ("analytic", False): 4,
            ("override", True): 4, ("override", False): 3, ("table", None): 1}
    for points in (11, 1001):
        freqs = pipeline.frequency_grid(F0 / 2, F0 * 2, points)
        got = {}
        for name, with_imn in want:
            matrices_built[0] = 0
            if name == "table":
                pipeline.sweep_table(links["override"].override, freqs)
            else:
                pipeline.sweep_link(links[name], freqs, with_imn=with_imn)
            got[name, with_imn] = matrices_built[0]
        assert got == want, points


def _python_calls(run) -> int:
    """Python frames ``run()`` enters: ``sys.setprofile`` "call" events."""
    calls = [0]

    def profile(frame, event, arg):
        calls[0] += event == "call"

    run()  # first-call work (imports, caches) is not counted
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls[0]


def test_sweep_runs_no_python_frame_per_point(links):
    # A sweep's per-point work runs in C or whole-array: the same number of
    # Python calls at 101 points as at 1,001.  So does reading a table.
    def sweeps(points):
        freqs = pipeline.frequency_grid(F0 / 10, F0 * 10, points)
        return [_python_calls(lambda: pipeline.sweep_csv_text(
                    pipeline.sweep_link(links["analytic"], freqs, with_imn=with_imn)))
                for with_imn in (True, False)] + \
            [_python_calls(lambda: pipeline.sweep_csv_text(
                pipeline.sweep_table(links["override"].override, freqs)))]

    def table_read(rows):
        freqs = pipeline.frequency_grid(F0 / 10, F0 * 10, rows)
        s = [netcore.abcd_to_s(links["analytic"].coil_abcd_at(f), 50.0, 50.0) for f in freqs]
        text = format_touchstone(record_from_matrices(freqs, s, 50.0))
        return _python_calls(lambda: tissue.import_override(parse_touchstone(text)))

    assert sweeps(101) == sweeps(1001)
    assert table_read(51) == table_read(201)


def test_axis_errors_name_the_first_failing_point():
    # From about 80 GHz the ladder's products overflow; the stage raises,
    # for the whole axis, the error of its first failing point.
    stack = default_implant_stack(sections_per_layer=30)
    axis = np.geomspace(1e3, 1e12, 1001)
    with pytest.raises(ValueError, match="must be finite") as on_axis:
        ladder_two_port(stack, axis)
    for f in axis.tolist():
        try:
            ladder_two_port(stack, f)
        except ValueError as exc:
            assert str(on_axis.value) == str(exc)
            break
    else:
        pytest.fail("no point of the axis fails on its own")
    table = NetworkTable((1e6, 2e6), ((0.1, 0.5, 0.5, 0.1),) * 2, 50.0)
    with pytest.raises(ValueError, match=r"frequency 3e\+06 Hz outside"):
        table.at(np.array([1e6, 1.5e6, 3e6, 4e6, 0.5e6]))


@pytest.mark.parametrize("f", [5e-324, 1e-310, 0.0, -1.0, math.nan, math.inf, 1.7e308,
                               math.nextafter(netcore.F_MAX, math.inf)])
def test_stages_reject_the_same_frequencies(f, capsys):
    stack = default_implant_stack(sections_per_layer=1)
    calls = [lambda: complex_permittivity(muscle(), f),
             lambda: effective_conductivity(muscle(), f)]
    for value in (f, np.array([F0, f, F0])):
        calls += [lambda value=value: coil_abcd(REF_COIL, value),
                  lambda value=value: ladder_two_port(stack, value)]
    messages = set()
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        messages.add(str(exc.value))
    message = f"frequency must be in [2.22507e-308, 2.86112e+307] Hz, got {f!r}"
    assert messages == {message}
    assert cli.main(["tissue", "table", f"--f={f!r}"]) == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"
    # The smallest normal frequency and the largest with a finite 2 pi f pass.
    netcore.check_frequency(np.array([2.2250738585072014e-308, F0, netcore.F_MAX]))
    assert 2.0 * math.pi * netcore.F_MAX < math.inf


_T_COIL = coil_abcd(REF_COIL, F0)
_SPIRAL = SpiralGeometry(SQUARE, 5, 2e-3, 2e-4, 1e-4)
FREQUENCY_INPUTS = {
    "coil.coil_z": lambda f: coil.coil_z(REF_COIL, f),
    "coil.s21_mag": lambda f: coil.s21_mag(REF_COIL, PortPair(), f),
    "coil.l_opt": lambda f: coil.l_opt(f, 0.5, 0.5, PortPair(), 0.1),
    "coil.extract_params": lambda f: coil.extract_params(coil.coil_s(REF_COIL, PortPair(), F0), f),
    "imn.series_resonance_capacitor": lambda f: imn.series_resonance_capacitor(400e-9, f),
    "imn.synthesize_imn": lambda f: imn.synthesize_imn(_T_COIL, PortPair(), f),
    "imn.assemble_link": lambda f: assemble_link(LSectionIMN(
        1, *(MatchingElement(ElementKind.SERIES_CAPACITOR, 1e-10),
             MatchingElement(ElementKind.SHUNT_CAPACITOR, 1e-10)) * 2), _T_COIL, f),
    "harvester.rect_input": lambda f: harvester.rect_input(50 - 5j, f),
    "harvester.HarvesterConstraints.f0": lambda f: harvester.HarvesterConstraints(
        n_range=(1,), tissue_z=50j, f0=f),
    "pipeline.DesignSpec.f0": lambda f: pipeline.DesignSpec(f0=f),
    "pipeline.frequency_grid start": lambda f: pipeline.frequency_grid(f, 1e9, 11),
    "pipeline.frequency_grid stop": lambda f: pipeline.frequency_grid(1e3, f, 11),
    "spiral.ac_resistance": lambda f: spiral.ac_resistance(_SPIRAL, f),
}


@pytest.mark.parametrize("f", [0.0, -1.0, 5e-324, math.nan, math.inf, 1e308])
@pytest.mark.parametrize("name", FREQUENCY_INPUTS)
def test_every_frequency_input_follows_check_frequency(name, f):
    if name == "spiral.ac_resistance" and f == 0.0:
        assert spiral.ac_resistance(_SPIRAL, f) == (
            spiral.COPPER_RESISTIVITY * spiral.trace_length(_SPIRAL) / (_SPIRAL.w * _SPIRAL.t))
        return
    with pytest.raises(ValueError) as exc:
        FREQUENCY_INPUTS[name](f)
    assert str(exc.value) == f"frequency must be in [2.22507e-308, 2.86112e+307] Hz, got {f!r}"
    FREQUENCY_INPUTS[name](F0)  # and F0 passes


# -- split arithmetic is CPython's arithmetic ----------------------------------


def _operands(rng, size):
    """Float64 values mixing ordinary magnitudes, huge values near the
    overflow edge, subnormals, signed zeros and small integers (whose
    products and sums cancel exactly to signed zeros)."""
    kind = rng.integers(0, 6, size)
    sign = rng.choice([-1.0, 1.0], size)
    values = np.select(
        [kind == 0, kind == 1, kind == 2, kind == 3, kind == 4],
        [rng.standard_normal(size) * 10.0 ** rng.uniform(-20, 20, size),
         sign * rng.uniform(1, 10, size) * 10.0 ** rng.uniform(150, 307, size),
         sign * rng.uniform(0, 1, size) * 10.0 ** rng.uniform(-323, -300, size),
         sign * 0.0,
         sign * rng.integers(0, 4, size) / 2.0],
        rng.standard_normal(size) * 10.0 ** rng.uniform(-300, 300, size))
    return values


def _same_parts(got, want) -> None:
    """``got``, a Split, holds the parts of the Python complex numbers
    ``want`` bit for bit."""
    for part in ("real", "imag"):
        bad = _differ(getattr(got, part), [getattr(z, part) for z in want])
        assert not bad.any(), f"{part}: {int(bad.sum())} of {bad.size} differ"


def _differ(got, want) -> np.ndarray:
    """Points where ``got`` and ``want`` differ in a bit; two NaNs agree."""
    got = np.broadcast_to(np.asarray(got, dtype=float), np.shape(want))
    want = np.asarray(want, dtype=float)
    return ~((got.view(np.int64) == want.view(np.int64)) | (np.isnan(got) & np.isnan(want)))


def _cpython(op, *columns):
    out = []
    for args in zip(*columns):
        try:
            out.append(op(*args))
        except OverflowError:
            out.append(math.inf)
    return out


def test_split_arithmetic_is_cpython_arithmetic():
    rng = np.random.default_rng(6)
    size = 100_000
    ar, ai, br, bi, x = (_operands(rng, size) for _ in range(5))
    a = [complex(re, im) for re, im in zip(ar.tolist(), ai.tolist())]
    b = [complex(re, im) for re, im in zip(br.tolist(), bi.tolist())]
    xs = x.tolist()
    sa, sb = netcore.Split(ar, ai), netcore.Split(br, bi)
    nz = np.array([z != 0 for z in b])
    nb = netcore.Split(br[nz], bi[nz])
    bz = [z for z in b if z != 0]
    xz = x[nz]
    with np.errstate(all="ignore"):
        _same_parts(sa * sb, [p * q for p, q in zip(a, b)])
        _same_parts(sa + sb, [p + q for p, q in zip(a, b)])
        _same_parts(sa - sb, [p - q for p, q in zip(a, b)])
        _same_parts(-sb, [-q for q in b])
        _same_parts(netcore.Split(ar[nz], ai[nz]) / nb,
                    [p / q for p, q, keep in zip(a, b, nz) if keep])
        # Real operands on either side, promoted as CPython promotes a float.
        _same_parts(x * sb, [v * q for v, q in zip(xs, b)])
        _same_parts(sb * x, [q * v for v, q in zip(xs, b)])
        _same_parts(x + sb, [v + q for v, q in zip(xs, b)])
        _same_parts(x - sb, [v - q for v, q in zip(xs, b)])
        _same_parts(sb - x, [q - v for v, q in zip(xs, b)])
        _same_parts(xz / nb, [v / q for v, q in zip(xz.tolist(), bz)])
        _same_parts(1.5 * sb, [1.5 * q for q in b])
        _same_parts(1.0 - sb, [1.0 - q for q in b])
        # Python complex constants against real arrays, as the stages write them.
        _same_parts(1j * netcore.promote(x), [1j * v for v in xs])
        xn = x[x != 0]
        _same_parts(-1j / netcore.promote(xn), [-1j / v for v in xn.tolist()])
        _same_parts((1 + 0j) * sb + 0j * sa, [(1 + 0j) * q + 0j * p for p, q in zip(a, b)])
        reals = {
            "abs": (abs(sa), _cpython(abs, a)),
            "square": (netcore.square(x), [v * v for v in xs]),
            "sqrt": (netcore.sqrt(np.abs(x)), [math.sqrt(abs(v)) for v in xs]),
        }
    for name, (got, want) in reals.items():
        bad = _differ(got, want)
        assert not bad.any(), f"{name}: {int(bad.sum())} of {bad.size} differ"


# Every tau and exponent 1 - alpha of the library layers.
LIBRARY_TERMS = [term for make in TISSUE_LIBRARY.values() for term in make().dispersions]
LIBRARY_TAUS = sorted({tau for _, tau, _ in LIBRARY_TERMS})
LIBRARY_EXPONENTS = {1.0 - alpha for _, _, alpha in LIBRARY_TERMS}


def _jpow_reprs(x, e):
    """repr of ``jpow(x, e)`` at each point of the array ``x``."""
    got = netcore.jpow(x, e)
    return [repr(complex(re, im)) for re, im in zip(got.real.tolist(), got.imag.tolist())]


@pytest.mark.parametrize("e", sorted({1.0, math.nextafter(1.0, 0.0), 0.01, *LIBRARY_EXPONENTS}))
def test_jpow_is_cpython_complex_power(e):
    # The bases of the Cole-Cole terms, 2 pi f tau, from 0 and the smallest
    # subnormal through those of the smallest frequency to the largest float.
    bases = [0.0, 5e-324, sys.float_info.max]
    bases += [netcore.F_MIN * tau for tau in LIBRARY_TAUS]
    bases += [2.0 * math.pi * netcore.F_MIN * tau for tau in LIBRARY_TAUS]
    bases += np.geomspace(1e-300, 1e300, 6001).tolist()
    x = np.array(bases)
    want = [repr((1j * v) ** e) for v in bases]
    assert _jpow_reprs(x, e) == want
    assert [repr(netcore.jpow(v, e)) for v in bases] == want


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(0.0, sys.float_info.max), min_size=1, max_size=50),
       st.floats(0.0, 1.0, exclude_min=True))
def test_jpow_property(bases, e):
    assert _jpow_reprs(np.array(bases), e) == [repr((1j * v) ** e) for v in bases]


def _layer_with_zero_terms(data, sigma_static):
    """A random layer whose dispersions hold terms with d_eps = +0.0 or
    -0.0 at random places among ordinary ones."""
    def term(d_eps):
        return (d_eps, data.draw(st.floats(1e-13, 1e-1)), data.draw(st.floats(0.0, 0.99)))

    terms = [term(data.draw(st.floats(1e-3, 1e7))) for _ in range(data.draw(st.integers(0, 4)))]
    for _ in range(data.draw(st.integers(1, 4))):
        terms.insert(data.draw(st.integers(0, len(terms))), term(data.draw(st.sampled_from([0.0, -0.0]))))
    return ColeColeLayer("zeros", data.draw(st.floats(1.0, 100.0)), tuple(terms), sigma_static,
                         data.draw(st.floats(1e-4, 1e-2)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_zero_terms_leave_every_bit(data):
    # A term with d_eps == 0.0 is skipped; the permittivity and the ladder
    # equal the per-point sum over every term, at single frequencies and
    # along an axis, with and without static conductivity.
    layers = tuple(_layer_with_zero_terms(data, data.draw(st.sampled_from([0.0, 0.5])))
                   for _ in range(data.draw(st.integers(1, 3))))
    stack = TissueStack(layers, data.draw(st.integers(1, 3)), 1e-4)
    axis = np.geomspace(data.draw(st.floats(1e3, 1e6)), data.draw(st.floats(1e7, 1e10)), 21)
    freqs = axis.tolist()
    for layer in layers:
        want = [repr(_reference_permittivity(layer, f)) for f in freqs]
        assert [repr(complex_permittivity(layer, f)) for f in freqs] == want
        eps = complex_permittivity(layer, axis)
        assert [repr(complex(netcore.point(eps, i))) for i in range(axis.size)] == want
    want = [_reference_ladder(stack, f, _reference_permittivity) for f in freqs]
    for f, w in zip(freqs, want):
        assert_same(ladder_two_port(stack, f), w)
    assert_axis_same(ladder_two_port(stack, axis), want)


def test_layer_of_zero_terms_makes_no_power(monkeypatch):
    calls = []
    jpow = netcore.jpow
    monkeypatch.setattr(netcore, "jpow", lambda x, e: calls.append(e) or jpow(x, e))
    terms = ((0.0, 7.23e-12, 0.0), (-0.0, 32.48e-9, 0.2), (0.0, 159.15e-6, 0.5))
    axis = AXIS[::100]
    for sigma in (0.0, 0.2):
        stack = TissueStack((ColeColeLayer("zeros", 4.0, terms, sigma, 2e-3),), 3, 1e-4)
        complex_permittivity(stack.layers[0], F0)
        complex_permittivity(stack.layers[0], axis)
        assert_same(ladder_two_port(stack, F0), _reference_ladder(stack, F0, _reference_permittivity))
        assert_axis_same(ladder_two_port(stack, axis),
                         [_reference_ladder(stack, f, _reference_permittivity) for f in axis.tolist()])
    assert calls == []


def test_overflowing_dispersion_names_the_first_failing_point():
    # 2 pi f tau overflows above about 2.9e7 Hz for the first layer and
    # 2.9e6 Hz for the second: along a rising axis the second layer fails
    # first, and the axis raises the error of that point.
    layers = tuple(ColeColeLayer(name, 4.0, ((10.0, tau, 0.1), (5.0, 1e-9, 0.0)), 0.2, 0.01)
                   for name, tau in (("a", 1e300), ("b", 1e301)))
    stack = TissueStack(layers, 2, 1e-4)
    axis = np.geomspace(1e6, 1e8, 101)
    with pytest.raises(ValueError, match="layer 'b': 2 pi f tau overflows") as on_axis:
        ladder_two_port(stack, axis)
    for f in axis.tolist():
        try:
            ladder_two_port(stack, f)
        except ValueError as exc:
            assert str(on_axis.value) == str(exc)
            break
    else:
        pytest.fail("no point of the axis fails on its own")
    for layer in layers:
        with pytest.raises(ValueError, match=f"layer '{layer.name}'"):
            complex_permittivity(layer, 1e8)
        complex_permittivity(layer, 1e6)
    assert ladder_two_port(stack, axis[:20]).m11.shape == (20,)


# -- the stacked chain kernel --------------------------------------------------

BLOCK = netcore.CHAIN_BLOCK
# Scalar parts: signed zeros, subnormals, the smallest normal, magnitudes
# whose products overflow, infinities and NaN, besides any float.
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, 1e-300, 0.5, -1.5, 3.0,
           1e154, -1e200, sys.float_info.max, -sys.float_info.max, math.inf, -math.inf,
           math.nan]
SCALARS = st.one_of(st.sampled_from(SPECIAL), st.floats())


def _array_part(rng, size):
    values = _operands(rng, size)
    values[rng.random(size) < 0.02] = math.nan
    return values


def _entry(data, rng, size):
    """A factor entry: a Python complex, a real float (which CPython
    promotes to (x, +0.0)), or a Split with array or scalar imaginary parts."""
    kind = data.draw(st.sampled_from(["complex", "real", "split", "split with scalar imag"]))
    if kind == "complex":
        return complex(data.draw(SCALARS), data.draw(SCALARS))
    if kind == "real":
        return data.draw(SCALARS)
    imag = _array_part(rng, size) if kind == "split" else data.draw(SCALARS)
    return netcore.Split(_array_part(rng, size), imag)


def _copy(factor):
    """A new factor tuple equal to ``factor``, with Splits of its own."""
    def copy(part):
        return part.copy() if isinstance(part, np.ndarray) else part

    return tuple(netcore.Split(copy(x.real), copy(x.imag)) if isinstance(x, netcore.Split) else x
                 for x in factor)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]), st.data())
def test_stacked_chain_is_abcd_chain(size, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    factors = []
    for _ in range(data.draw(st.integers(1, 40))):
        reuse = data.draw(st.sampled_from(["new", "same object", "equal copy"])) if factors else "new"
        if reuse == "new":
            factors.append(tuple(_entry(data, rng, size) for _ in range(4)))
        else:
            factors.append(factors[-1] if reuse == "same object" else _copy(factors[-1]))
    with np.errstate(all="ignore"):
        want = netcore.abcd_chain(netcore.IDENTITY, *factors)
    got = netcore.abcd_chain_along(size, factors)
    # Bit for bit, NaN at the same points: a NaN's sign and payload follow
    # the operand order the machine's loop picks for commutative operations,
    # which numpy does not fix across array lengths (and outputs print any
    # NaN as nan).
    for k, (g, w) in enumerate(zip(got, want)):
        for part in ("real", "imag"):
            bad = _differ(getattr(g, part), np.broadcast_to(getattr(w, part), (size,)))
            assert not bad.any(), (k, part, int(bad.sum()))


def test_ladder_axis_across_blocks_equals_single_points():
    # An axis of several blocks with a partial last one; the per-point
    # ladder runs the product of Python complex numbers.
    stack = default_implant_stack(sections_per_layer=10)
    axis = np.geomspace(F0 / 10, F0 * 10, 3 * BLOCK + 7)
    got = ladder_two_port(stack, axis)
    picks = sorted({*range(0, axis.size, 97), *(b + d for b in range(0, axis.size, BLOCK)
                                               for d in (-1, 0, 1)), axis.size - 1} - {-1})
    assert_axis_same(TwoPortMatrix(got.representation, *(m[picks] for m in got.entries)),
                     [ladder_two_port(stack, f) for f in axis[picks].tolist()])


def test_ladder_squares_w_coupling_once(monkeypatch):
    calls = []
    square = netcore.square
    monkeypatch.setattr(netcore, "square", lambda x: calls.append(x) or square(x))
    ladder_two_port(default_implant_stack(sections_per_layer=3), AXIS)
    assert len(calls) == 1


def test_table_sweep_with_a_blocked_row_equals_per_point_reference():
    # S21 = 0 at one row: its dB values are -6000 and pte_max is NaN.
    rows = [(0.2 + 0.1j, 0.5 - 0.2j, 0.5 - 0.2j, 0.1 + 0.3j),
            (0.0j, 0.0j, 0.0j, -0.25 + 0j),
            (-0.3 + 0.05j, 0.6 + 0.1j, 0.6 + 0.1j, 0.2 - 0.1j)]
    table = NetworkTable((1e6, 2e6, 4e6), tuple(rows), 50.0)
    freqs = [1e6, 1.5e6, 2e6, 3e6, 4e6]
    ports = PortPair(50.0, 50.0)
    got = pipeline.sweep_table(table, freqs)
    want = [_reference_row(f, _reference_table_at(table, f), ports) for f in freqs]
    assert [repr(row) for row in got] == [repr(row) for row in want]
    assert got[2].s21_db == got[2].s11_db == -6000.0 and math.isnan(got[2].pte_max_pct)
    assert sum(math.isnan(row.pte_max_pct) for row in got) == 1
