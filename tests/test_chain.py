"""Entry-tuple ABCD chains against the object cascades they replaced.

The tissue ladder and the matching-network link multiply (A, B, C, D)
tuples and build one validated matrix from the product.  They must give
the entries, float for float, of the old code, which validated a matrix
at every step; that code is kept here as the reference, with its own
copy of the old two-matrix cascade.  The number of matrices each stage
builds is counted by wrapping ``TwoPortMatrix.__post_init__``.
"""

import itertools
import math

import numpy as np
import pytest

from wptkit import netcore
from wptkit.coil import CoilPair, coil_abcd
from wptkit.imn import ElementKind, LSectionIMN, MatchingElement, assemble_link
from wptkit.netcore import TwoPortMatrix
from wptkit.pipeline import run_design, spec_from_dict
from wptkit.tissue import (
    EPS_0,
    TissueStack,
    complex_permittivity,
    default_implant_stack,
    ladder_two_port,
    modified_coil_abcd,
    muscle,
)
from wptkit.touchstone import record_from_matrices, write_touchstone

F0 = 20e6
FREQS = [float(f) for f in np.geomspace(F0 / 10, F0 * 10, 9)]
REF_COIL = CoilPair(400e-9, 400e-9, 0.5, 0.5, 0.1)


def _reference_cascade(a, b):
    return netcore.abcd_matrix(
        a.m11 * b.m11 + a.m12 * b.m21,
        a.m11 * b.m12 + a.m12 * b.m22,
        a.m21 * b.m11 + a.m22 * b.m21,
        a.m21 * b.m12 + a.m22 * b.m22,
    )


def _reference_ladder(stack, f):
    w = 2.0 * math.pi * f
    mu0 = 4e-7 * math.pi
    coupling = mu0 * math.sqrt(stack.face_area)
    out = netcore.identity_abcd()
    for layer in stack.layers:
        sigma_eff = 1j * w * EPS_0 * complex_permittivity(layer, f)
        t_s = layer.thickness / stack.sections_per_layer
        z = (w * coupling) ** 2 * sigma_eff * t_s
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
        return netcore.series_impedance_abcd(1j * w * elem.value)
    if elem.kind is ElementKind.SERIES_CAPACITOR:
        return netcore.series_impedance_abcd(-1j / (w * elem.value))
    if elem.kind is ElementKind.SHUNT_CAPACITOR:
        return netcore.shunt_admittance_abcd(1j * w * elem.value)
    return netcore.shunt_admittance_abcd(-1j / (w * elem.value))


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
    out = netcore.identity_abcd()
    for net in (tx, t_coil, rx):
        out = _reference_cascade(out, net)
    return out


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
        netcore.identity_abcd(), a), b), c)
    assert_same(netcore.cascade_all(a, b, c), chained)
    assert_same(netcore.cascade_all(), netcore.identity_abcd())


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
