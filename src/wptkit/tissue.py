"""Frequency-dependent dielectric model of layered biological tissue.

Cole-Cole permittivity per layer,

    eps(w) = eps_inf + sum_i d_eps_i / (1 + (jw tau_i)^(1-alpha_i)) + sigma/(jw eps0),

conductive-loss scaling (P_loss ~ sigma w^2), and a discretized
impedance-ladder two-port that cascades with the bare-coil ABCD to give
the tissue-modified link.

Ladder construction: each slab section of thickness t contributes a
longitudinal element equal to the eddy-current impedance the section
reflects into the link, Z_H = w^2 (mu0 sqrt(A))^2 sigma_eff t, and a
transverse plate admittance Y_V = sigma_eff t, with the complex
admittivity sigma_eff = jw eps0 eps(f).  Re{Z_H} grows as sigma w^2
(the eddy-loss law), both elements vanish with the section thickness,
and the whole ladder is passive and reciprocal.  This is an explicit
trend-level approximation; measured or FEM data can replace it
wholesale through :func:`import_override`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import netcore
from .netcore import TwoPortMatrix, cascade, s_matrix

EPS_0 = 8.8541878128e-12  # F/m
DEFAULT_SECTIONS = 10  # slab sections per tissue layer


@dataclass(frozen=True)
class ColeColeLayer:
    """One tissue layer: multi-term Cole-Cole dispersion plus static
    ionic conductivity, with a physical thickness.

    ``dispersions`` is a sequence of (delta_eps, tau_s, alpha) terms.
    """

    name: str
    eps_inf: float
    dispersions: tuple[tuple[float, float, float], ...]
    sigma_static: float
    thickness: float

    def __post_init__(self):
        for name in ("eps_inf", "sigma_static", "thickness"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.eps_inf < 1.0:
            raise ValueError(f"eps_inf must be >= 1, got {self.eps_inf}")
        if self.sigma_static < 0.0:
            raise ValueError("static conductivity must be >= 0")
        if not self.thickness > 0.0:
            raise ValueError("layer thickness must be > 0")
        terms = tuple((float(d), float(t), float(a)) for d, t, a in self.dispersions)
        for d_eps, tau, alpha in terms:
            if not all(map(math.isfinite, (d_eps, tau, alpha))):
                raise ValueError(f"dispersion term ({d_eps}, {tau}, {alpha}) must be finite")
            if d_eps < 0.0 or tau <= 0.0:
                raise ValueError(f"bad dispersion term ({d_eps}, {tau}, {alpha})")
            if not 0.0 <= alpha < 1.0:
                raise ValueError(f"alpha must be in [0, 1), got {alpha}")
        object.__setattr__(self, "dispersions", terms)

    def scaled_sigma(self, factor: float) -> "ColeColeLayer":
        """Copy of this layer with sigma_static multiplied by ``factor``."""
        return ColeColeLayer(self.name, self.eps_inf, self.dispersions,
                             self.sigma_static * factor, self.thickness)


# Gabriel-style four-term dispersion parameters (literature values);
# any layer can be overridden by the user.
def skin_dry() -> ColeColeLayer:
    return ColeColeLayer("skin (dry)", 4.0, (
        (32.0, 7.23e-12, 0.00),
        (1100.0, 32.48e-9, 0.20),
        (0.0, 159.15e-6, 0.20),
        (0.0, 15.915e-3, 0.20),
    ), 0.0002, 2e-3)


def fat() -> ColeColeLayer:
    return ColeColeLayer("fat", 2.5, (
        (3.0, 7.96e-12, 0.20),
        (15.0, 15.92e-9, 0.10),
        (3.3e4, 159.15e-6, 0.05),
        (1.0e7, 15.915e-3, 0.01),
    ), 0.01, 2e-3)


def muscle() -> ColeColeLayer:
    return ColeColeLayer("muscle", 4.0, (
        (50.0, 7.23e-12, 0.10),
        (7000.0, 353.68e-9, 0.10),
        (1.2e6, 318.31e-6, 0.10),
        (2.5e7, 2.274e-3, 0.00),
    ), 0.2, 10e-3)


TISSUE_LIBRARY = {
    "skin": skin_dry,
    "fat": fat,
    "muscle": muscle,
}


@dataclass(frozen=True)
class TissueStack:
    """Ordered layer stack discretized into ``sections_per_layer``
    symmetric sections over a field cross-section ``face_area``."""

    layers: tuple[ColeColeLayer, ...]
    sections_per_layer: int
    face_area: float

    def __post_init__(self):
        if not self.layers:
            raise ValueError("tissue stack needs at least one layer")
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.sections_per_layer < 1:
            raise ValueError("sections_per_layer must be >= 1")
        if not self.face_area > 0:
            raise ValueError("face_area must be > 0")

    def with_sections(self, sections: int) -> "TissueStack":
        return TissueStack(self.layers, sections, self.face_area)


def default_implant_stack(face_area: float = (18e-3) ** 2,
                          sections_per_layer: int = DEFAULT_SECTIONS) -> TissueStack:
    """2 mm skin / 2 mm fat / 10 mm muscle evaluation stack."""
    return TissueStack((skin_dry(), fat(), muscle()), sections_per_layer, face_area)


@netcore.quiet
def complex_permittivity(layer: ColeColeLayer, f):
    """Relative complex permittivity of the layer at frequency f, or a
    complex array of it along an array of frequencies."""
    w = 2.0 * math.pi * netcore.check_frequency(f)
    _check_dispersions((layer,), f, w)
    eps = _permittivity_at(layer, w, 1j * netcore.promote(w) * EPS_0)
    if netcore.on_axis(w):  # a Split, or one complex for a layer without loss terms
        return netcore.join(np.broadcast_to(eps.real, w.shape), eps.imag)
    return eps


def _check_dispersions(layers, f, w) -> None:
    """ValueError unless w tau is finite for every dispersion term of every
    layer at the checked frequency f, or along an axis of them (w = 2 pi f),
    naming the first failing point and the first layer that fails there."""
    taus = [max((tau for _, tau, _ in layer.dispersions), default=0.0) for layer in layers]
    i = netcore.first_point(w * max(taus) == math.inf)
    if i is not None:
        at = netcore.point(w, i)
        name = next(layer.name for layer, tau in zip(layers, taus) if at * tau == math.inf)
        raise ValueError(f"layer {name!r}: 2 pi f tau overflows at "
                         f"f = {float(netcore.point(f, i))!r} Hz")


def _permittivity_at(layer: ColeColeLayer, w, jw_eps0):
    """complex_permittivity at the angular frequency w = 2 pi f of a
    checked frequency f, or along an axis of them (a Split), given
    ``jw_eps0 = 1j * promote(w) * EPS_0``, which the ladder shares.  A term
    with d_eps == +-0.0 is skipped, keeping every bit: over a divisor of real
    part >= 1 and imaginary part >= 0 ``_Py_c_quot`` gives it (+0.0, +0.0),
    which alters only a -0.0, and eps holds none (its real part is >= 1,
    and a sum from +0.0 is -0.0 only when both operands are)."""
    eps = complex(layer.eps_inf, 0.0)
    for d_eps, tau, alpha in layer.dispersions:
        if d_eps != 0.0:
            eps += d_eps / (1.0 + netcore.jpow(w * tau, 1.0 - alpha))
    if layer.sigma_static > 0.0:
        eps += layer.sigma_static / jw_eps0
    return eps


def effective_conductivity(layer: ColeColeLayer, f: float) -> float:
    """Total loss conductivity sigma_eff = w eps0 (-Im eps), S/m."""
    return -2.0 * math.pi * f * EPS_0 * complex_permittivity(layer, f).imag


def loss_scaling(sigma: float, omega: float) -> float:
    """Tissue eddy-loss proportionality sigma * w^2 (geometry constant
    is the caller's)."""
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"conductivity must be finite and >= 0, got {sigma!r}")
    if not netcore.F_MIN <= omega < math.inf:
        raise ValueError(f"angular frequency must be in [{netcore.F_MIN:g}, inf), got {omega!r}")
    return sigma * omega * omega


@netcore.quiet
def ladder_two_port(stack: TissueStack, f) -> TwoPortMatrix:
    """ABCD of the discretized tissue slab at frequency f, or along an
    array of frequencies (see :mod:`netcore`).

    Each section of thickness t_s uses the complex admittivity
    sigma_eff = jw eps0 eps(f): a longitudinal eddy-reflected impedance
    Z = w^2 (mu0 sqrt(A))^2 sigma_eff t_s (so Re{Z} follows the
    sigma w^2 loss law) and a transverse plate admittance
    Y = sigma_eff t_s, assembled as symmetric T-sections so the
    thin-slab limit is the identity and the discretization converges
    quadratically.
    """
    w = 2.0 * math.pi * netcore.check_frequency(f)
    _check_dispersions(stack.layers, f, w)
    mu0 = 4e-7 * math.pi
    coupling = mu0 * math.sqrt(stack.face_area)
    wc_sq = netcore.square(w * coupling)
    jw_eps0 = 1j * netcore.promote(w) * EPS_0
    sections = []
    for layer in stack.layers:
        sigma_eff = jw_eps0 * _permittivity_at(layer, w, jw_eps0)
        t_s = layer.thickness / stack.sections_per_layer
        z = wc_sq * sigma_eff * t_s
        y = sigma_eff * t_s
        # Symmetric T-section: Z/2 - Y - Z/2 (unit determinant, second-order
        # accurate discretization of the distributed slab).
        half = 0.5 * z
        a = 1.0 + half * y
        sections += [(a, z + half * half * y, y, a)] * stack.sections_per_layer
    if netcore.on_axis(w):
        return netcore.abcd_matrix(*netcore.abcd_chain_along(w.size, sections))
    return netcore.abcd_matrix(*netcore.abcd_chain(netcore.IDENTITY, *sections))


def modified_coil_abcd(t_coil: TwoPortMatrix, stack: TissueStack, f: float) -> TwoPortMatrix:
    """Tissue-modified transmission matrix: the RX side is embedded, so
    the slab ladder cascades after the bare-coil ABCD."""
    return cascade(t_coil, ladder_two_port(stack, f))


@dataclass(frozen=True)
class NetworkTable:
    """Frequency-indexed two-port data, linearly interpolated in the
    real/imaginary parts of each S entry.  Stands in for the analytic
    ladder wherever a tissue-modified network is expected."""

    frequencies: tuple[float, ...]
    s: tuple[tuple[complex, complex, complex, complex], ...]  # (S11, S12, S21, S22) rows
    zp: float
    _f: np.ndarray = field(init=False, repr=False, compare=False)
    _re: np.ndarray = field(init=False, repr=False, compare=False)
    _im: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        columns = np.asarray(self.s, dtype=complex).T
        object.__setattr__(self, "_f", np.asarray(self.frequencies, dtype=float))
        object.__setattr__(self, "_re", columns.real.copy())
        object.__setattr__(self, "_im", columns.imag.copy())

    def at(self, f) -> TwoPortMatrix:
        """S matrix at frequency f, or along an array of frequencies (see
        :mod:`netcore`), each on the tabulated range."""
        grid = self._f
        i = netcore.first_point(~((grid[0] <= f) & (f <= grid[-1])))
        if i is not None:
            raise ValueError(
                f"frequency {netcore.point(f, i):g} Hz outside tabulated range "
                f"[{grid[0]:g}, {grid[-1]:g}] Hz")
        entries = [netcore.join(np.interp(f, grid, re), np.interp(f, grid, im))
                   for re, im in zip(self._re, self._im)]
        return s_matrix(*entries, self.zp, self.zp)

    def abcd_at(self, f) -> TwoPortMatrix:
        return netcore.s_to_abcd(self.at(f))


def import_override(record) -> NetworkTable:
    """Build an interpolable network table from a parsed Touchstone
    record (at least two rows on a strictly increasing axis), rejecting
    non-reciprocal rows (the row index is named in the error)."""
    table = NetworkTable(record.frequencies, record.s, record.resistance)
    b, c = map(netcore.Split, table._re[1:3], table._im[1:3])  # S12, S21
    dist, scale = abs(b - c), np.maximum(np.maximum(abs(b), abs(c)), 1e-300)
    i = netcore.first_point(dist > netcore.RECIPROCITY_TOL * scale)
    if i is not None:
        raise ValueError(f"row {i}: |S12 - S21| = {float(dist[i]):.3g} exceeds reciprocity "
                         f"tolerance {netcore.RECIPROCITY_TOL:g}")
    return table

