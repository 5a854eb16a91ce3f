"""End-to-end design pipeline, sweep engine and report rendering.

Order of play for one design run: optimal inductance -> symmetric or
asymmetric split -> spiral synthesis per side under the area caps ->
AC-resistance estimation -> tissue-modified transmission matrix ->
parameter re-extraction -> matching-network synthesis -> efficiency and
safety budget -> optional harvester sizing.  Any infeasible stage halts
with the stage name and its nearest-miss data.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import coil, efficiency, harvester, imn, netcore, spiral, tissue, touchstone
from .coil import CoilPair, PortPair
from .errors import InfeasibleDesignError, UnmatchableError
from .imn import _db
from .netcore import BuiltOnRead, TwoPortMatrix
from .tissue import NetworkTable, TissueStack

DEFAULT_SWEEP_POINTS = 1001

# Upper limits on the sizes a run's work grows with: ladder sections per
# tissue layer, the harvester's largest stage count, a coil's area cap (m^2;
# one synthesis at 1e-2 m^2 takes 1-3 ms) and sweep points.  The spec
# reader and the CLI reject larger values, naming the key or the flag.
MAX_SECTIONS = 1_000
MAX_STAGES = 10_000
MAX_AREA = 1e-2
MAX_SWEEP_POINTS = 100_001


# -- SI-prefixed formatting: every human-readable number carries a unit --

_PREFIXES = (
    (1e9, "G"), (1e6, "M"), (1e3, "k"), (1.0, ""),
    (1e-3, "m"), (1e-6, "u"), (1e-9, "n"), (1e-12, "p"), (1e-15, "f"),
)


def si(value: float, unit: str) -> str:
    """Format a value to 4 significant digits with an SI prefix and unit,
    deterministically; the prefix is that of the rounded value."""
    if not math.isfinite(value):  # nan, inf or -inf, without a prefix
        return f"{value} {unit}"
    if value == 0.0:
        return f"0 {unit}"
    rounded = abs(float(f"{value:.4g}"))
    for scale, prefix in _PREFIXES:  # the last one when none is reached
        if rounded >= scale:
            break
    return f"{value / scale:.4g} {prefix}{unit}"


# -- design spec ----------------------------------------------------------


@dataclass(frozen=True)
class CoilSideSpec:
    shape: spiral.ShapeCoefficients = spiral.SQUARE
    max_area: float = spiral.DEFAULT_MAX_AREA

    def __post_init__(self):
        if not self.max_area > 0:
            raise ValueError("max coil area must be > 0")


@dataclass(frozen=True)
class TissueSettings:
    enabled: bool = True
    sections_per_layer: int = tissue.DEFAULT_SECTIONS
    face_area: float | None = None      # None -> RX area cap
    layers: tuple[tissue.ColeColeLayer, ...] | None = None  # None -> default stack
    override: NetworkTable | None = None


@dataclass(frozen=True)
class HarvesterSettings:
    v_rx: float
    target_v_out: float
    constraints: harvester.HarvesterConstraints


@dataclass(frozen=True)
class DesignSpec:
    """Validated input of one pipeline run."""

    f0: float
    ports: PortPair = PortPair()
    k: float | None = 0.1               # None -> estimate from geometry
    distance: float | None = None       # required when k is estimated
    r1_init: float = 0.5
    r2_init: float = 0.5
    l1_pinned: float | None = None
    tx: CoilSideSpec = CoilSideSpec()
    rx: CoilSideSpec = CoilSideSpec()
    fab: spiral.FabConstraints = spiral.FabConstraints()
    tissue: TissueSettings = TissueSettings()
    sar_p_tx_max: float | None = None
    harvest: HarvesterSettings | None = None

    def __post_init__(self):
        netcore.check_frequency(self.f0)
        if self.k is not None and not (0.0 < self.k < 1.0):
            raise ValueError(f"coupling coefficient must be in (0, 1), got {self.k}")
        if self.k is None and (self.distance is None or not self.distance > 0):
            raise ValueError("estimating k requires a positive coil distance")
        if self.r1_init < 0 or self.r2_init < 0:
            raise ValueError("initial coil resistances must be >= 0")
        if self.l1_pinned is not None and not self.l1_pinned > 0:
            raise ValueError("pinned L1 must be > 0")


# -- spec reader -----------------------------------------------------------
#
# Each JSON object of the spec has a key table: key -> (field, converter), or
# key -> a nested table when a JSON section sets fields of the enclosing
# object.  A converter takes (value, dotted path) and returns the field value
# or raises ValueError naming the path.  Only keys present reach the
# constructors, so each default lives on the dataclass field that owns it and
# a field without a default is a required key.

_JSON_TYPES = {type(None): "null", bool: "boolean", str: "string", list: "array", dict: "object"}


def _echo(value) -> str:
    """A number (by its repr) or a string from the input as a one-line error
    shows it: beyond 24 characters, a float's longest repr, as its first
    20 characters and its length in digits or in characters."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= 24:
        return text
    length = f"{len(text)} characters" if isinstance(value, str) \
        else f"{len(text.lstrip('-'))} digits"
    return f"{text[:20]}... ({length})"


def _reject(value, path: str, expected: str):
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    got = _echo(value) if number else _JSON_TYPES.get(type(value), type(value).__name__)
    raise ValueError(f"{path}: expected {expected}, got {got}")


def _number(value, path: str) -> float:
    # abs() compares integers exactly, so a long integer literal cannot overflow here.
    if isinstance(value, (int, float)) and not isinstance(value, bool) \
            and abs(value) <= sys.float_info.max:
        return float(value)
    _reject(value, path, "a finite number")


def _count(value, path: str) -> int:
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    _reject(value, path, "an integer")


def _at_most(limit, convert):
    def read(value, path: str):
        out = convert(value, path)
        if out > limit:
            raise ValueError(f"{path}: must be <= {limit!r}, got {_echo(out)}")
        return out
    return read


def _exactly(kind: type, expected: str):
    return lambda value, path: value if type(value) is kind else _reject(value, path, expected)


_flag = _exactly(bool, "true or false")
_text = _exactly(str, "a string")


def _optional(convert):
    """Converter that also takes null, meaning 'not given'."""
    return lambda value, path: None if value is None else convert(value, path)


def _array(convert, length: int | None = None):
    def read(value, path: str) -> tuple:
        if type(value) is not list or length not in (None, len(value)):
            _reject(value, path, "an array" if length is None else f"an array of {length}")
        return tuple(convert(item, f"{path}[{i}]") for i, item in enumerate(value))
    return read


def coil_shape(value, path: str) -> spiral.ShapeCoefficients:
    """The coil shape named by ``value`` (a spec's or the command line's),
    or a ValueError naming ``path``."""
    if _text(value, path) not in spiral.SHAPES:
        raise ValueError(f"{path}: unknown coil shape '{_echo(value)}'; "
                         f"choose from {sorted(spiral.SHAPES)}")
    return spiral.SHAPES[value]


def _read(data, table: dict, path: str, cls) -> dict:
    """Convert the keys present in one JSON object by ``table`` into
    {field: value}; a key setting a field of ``cls`` without a default is
    required."""
    if type(data) is not dict:
        _reject(data, path or "design spec", "an object")
    out = {}
    for key, value in data.items():
        if key not in table:
            raise ValueError(f"{path + '.' if path else ''}{_echo(key)}: unknown key")
        where = f"{path}.{key}" if path else key
        if type(table[key]) is dict:
            out.update(_read(value, table[key], where, cls))
        else:
            out[table[key][0]] = table[key][1](value, where)
    required = {f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING}
    for key, entry in table.items():
        if type(entry) is tuple and entry[0] in required and entry[0] not in out:
            raise ValueError(f"{path + '.' if path else ''}{key}: required key missing")
    return out


def _build(cls, values: dict, path: str):
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}" if path else str(exc)) from None


def _section(table: dict, cls):
    """Converter for a JSON object whose keys set fields of ``cls``."""
    return lambda value, path: _build(cls, _read(value, table, path, cls), path)


_SIDE_KEYS = {"shape": ("shape", coil_shape),
              "max_area_m2": ("max_area", _at_most(MAX_AREA, _number))}

_LAYER_KEYS = {
    "name": ("name", _text),
    "eps_inf": ("eps_inf", _number),
    "dispersions": ("dispersions", _array(_array(_number, 3))),
    "sigma_s_per_m": ("sigma_static", _number),
    "thickness_m": ("thickness", _number),
}

_TISSUE_KEYS = {
    "enabled": ("enabled", _flag),
    "sections_per_layer": ("sections_per_layer", _at_most(MAX_SECTIONS, _count)),
    "face_area_m2": ("face_area", _optional(_number)),
    "layers": ("layers", _optional(_array(_section(_LAYER_KEYS, tissue.ColeColeLayer)))),
    "override_s2p": ("override", _optional(lambda value, path: tissue.import_override(
        touchstone.read_touchstone(_text(value, path))))),
}

# Sets the fields of HarvesterSettings and of its HarvesterConstraints.
_HARVESTER_KEYS = {
    "v_rx_v": ("v_rx", _number),
    "target_v_out_v": ("target_v_out", _number),
    "r_stage_ohm": ("r_stage", _number),
    "c_stage_f": ("c_stage", _number),
    "n_min": ("n_min", _count),
    "n_max": ("n_max", _at_most(MAX_STAGES, _count)),
    "q_values": ("q_range", _array(_number)),
    "max_charge_time_s": ("max_charge_time", _number),
    "tissue_z_ohm": ("tissue_z", lambda value, path: complex(*_array(_number, 2)(value, path))),
    "i_load_avg_a": ("i_load_avg", _number),
    "c_store_f": ("c_store", _number),
    "v_t_v": ("v_t", _number),
}

_SPEC_KEYS = {
    "f0_hz": ("f0", _number),
    "ports": ("ports", _section({"zp1_ohm": ("zp1", _number),
                                 "zp2_ohm": ("zp2", _number)}, PortPair)),
    "k": ("k", lambda value, path: None if value == "estimate" else _number(value, path)),
    "distance_m": ("distance", _optional(_number)),
    "r1_init_ohm": ("r1_init", _number),
    "r2_init_ohm": ("r2_init", _number),
    "l1_pinned_h": ("l1_pinned", _optional(_number)),
    "tx": ("tx", _section(_SIDE_KEYS, CoilSideSpec)),
    "rx": ("rx", _section(_SIDE_KEYS, CoilSideSpec)),
    "fab": ("fab", _section({"min_trace_width_m": ("min_trace_width", _number),
                             "min_spacing_m": ("min_spacing", _number)},
                            spiral.FabConstraints)),
    "tissue": ("tissue", _section(_TISSUE_KEYS, TissueSettings)),
    "sar": {"p_tx_max_w": ("sar_p_tx_max", _optional(_number))},
    "harvester": ("harvest", _optional(
        lambda value, path: _read(value, _HARVESTER_KEYS, path, HarvesterSettings))),
}


def spec_from_dict(data) -> DesignSpec:
    """Build a DesignSpec from a parsed JSON document (schema in README).

    An unknown key, a wrong JSON type, a non-integral count, a non-boolean
    flag or a non-finite number raises ValueError naming its dotted path.
    """
    values = _read(data, _SPEC_KEYS, "", DesignSpec)
    harvest = values.pop("harvest", None)
    spec = _build(DesignSpec, values, "")
    if harvest is None:
        return spec
    # The sweep runs at f0 and, unless tissue_z_ohm says otherwise, matches
    # against the RX port.
    own = {f.name: harvest.pop(f.name) for f in fields(HarvesterSettings) if f.name in harvest}
    n_range = range(harvest.pop("n_min", harvester.DEFAULT_N_MIN),
                    harvest.pop("n_max", harvester.DEFAULT_N_MAX) + 1)
    constraints = _build(harvester.HarvesterConstraints,
                         {"tissue_z": complex(spec.ports.zp2, 0.0), **harvest,
                          "n_range": n_range, "f0": spec.f0}, "harvester")
    return replace(spec, harvest=_build(HarvesterSettings, dict(own, constraints=constraints),
                                        "harvester"))


def _repeat_path(data, repeats: dict) -> str:
    """The dotted path of a repeated key in decoded JSON: repeats maps the
    id of each object that holds a key twice to that key."""
    todo = [("", data)]
    for path, value in todo:  # breadth first; the loop reaches what it appends
        if type(value) is dict:
            if id(value) in repeats:
                return path + _echo(repeats[id(value)])
            todo += ((f"{path}{_echo(key)}.", item) for key, item in value.items())
        elif type(value) is list:
            todo += ((f"{path[:-1]}[{i}].", item) for i, item in enumerate(value))


def load_design_spec(path: str | Path) -> DesignSpec:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    repeats = []  # (object, the first key it holds twice); holding it keeps its id unique

    def pairs_hook(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            repeats.append((obj, next(key for key, _ in pairs if key in seen or seen.add(key))))
        return obj

    try:
        data = json.loads(text, object_pairs_hook=pairs_hook)
    except (RecursionError, ValueError) as exc:
        if isinstance(exc, json.JSONDecodeError):
            raise
        # Arrays or objects nested past the decoder's depth, or an integer
        # literal past int's digit limit: undecodable, as malformed JSON is.
        reason = "value nested too deeply" if isinstance(exc, RecursionError) \
            else str(exc).partition(";")[0]
        start = len(text) - len(text.lstrip())
        raise json.JSONDecodeError(reason, text, start) from None
    if repeats:
        path = _repeat_path(data, {id(obj): key for obj, key in repeats})
        raise ValueError(f"{path}: duplicate key")
    return spec_from_dict(data)


# -- link model (single source of truth for design and sweeps) ------------


@dataclass(frozen=True)
class LinkModel:
    """Everything needed to evaluate the link at any frequency."""

    ports: PortPair
    coils: CoilPair | None
    stack: TissueStack | None
    override: NetworkTable | None
    matching: imn.LSectionIMN | None
    f0: float

    def coil_abcd_at(self, f: float) -> TwoPortMatrix:
        if self.override is not None:
            return self.override.abcd_at(f)
        t = coil.coil_abcd(self.coils, f)
        if self.stack is not None:
            t = tissue.modified_coil_abcd(t, self.stack, f)
        return t

    def s_at(self, f: float, with_imn: bool = True) -> TwoPortMatrix:
        t = self.coil_abcd_at(f)
        if with_imn and self.matching is not None:
            t = imn.assemble_link(self.matching, t, f)
        return netcore.abcd_to_s(t, self.ports.zp1, self.ports.zp2)


# -- pipeline stages -------------------------------------------------------


def synthesize_coils(stages: Sequence[tuple[str, float, spiral.FabConstraints,
                                            spiral.ShapeCoefficients]]
                     ) -> list[spiral.SynthesisResult]:
    """Spiral synthesis of each ``(stage, l_target, fab, shape)`` in one
    spiral.synthesize_all call; halts with InfeasibleDesignError, naming
    the first stage without a candidate that meets its target and its
    nearest miss."""
    results = spiral.synthesize_all([(l_target, fab, shape) for _, l_target, fab, shape in stages])
    for (stage, l_target, _, _), result in zip(stages, results):
        if result.candidates:
            continue
        near = result.nearest
        detail = "no grid point reached the target"
        if near is not None:
            off = near.rel_error * 100
            # Fixed-point below a million per cent; beyond, three digits keep the line short.
            off_text = f"{off:.2f}" if off < 1e6 else f"{off:.3g}"
            detail = (f"best miss: L = {si(near.inductance, 'H')} "
                      f"({off_text} % off) at n={near.geometry.n}, "
                      f"area {near.geometry.area * 1e6:.4g} mm^2")
        raise InfeasibleDesignError(stage, f"target {si(l_target, 'H')} infeasible; {detail}",
                                    nearest=near)
    return results


@dataclass(frozen=True)
class CoilStage:
    geometry: spiral.SpiralGeometry
    inductance: float
    r_ac: float
    candidate_count: int
    area_cap: float


def _coil_stages(spec: DesignSpec, l1_target: float, l2_target: float) -> list[CoilStage]:
    """The TX and RX coils, each the top synthesis candidate under its side's
    area cap, with its inductance and AC resistance at f0.  Both sides are
    synthesized in one pass before either R_ac is computed, so an
    infeasible RX target is reported as such even at an f0 where R_ac
    would fail; with both infeasible, the TX side is named."""
    sides = (("tx", l1_target, spec.tx), ("rx", l2_target, spec.rx))
    results = synthesize_coils([(f"{name} coil synthesis", l_target,
                                 replace(spec.fab, max_area=side.max_area), side.shape)
                                for name, l_target, side in sides])
    stages = []
    for result, (_, _, side) in zip(results, sides):
        geom = result.candidates[0]
        stages.append(CoilStage(geom, spiral.inductance(geom), spiral.ac_resistance(geom, spec.f0),
                                len(result.candidates), side.max_area))
    return stages


@dataclass(frozen=True)
class DesignReport:
    spec: DesignSpec
    l_opt: float
    l1_target: float
    l2_target: float
    tx_stage: CoilStage
    rx_stage: CoilStage
    k_source: str
    f_opt: float
    s_max_bare: float
    s21_bare_f0: float
    extraction: coil.ExtractedParams
    imn_synthesis: imn.ImnSynthesis
    imn_solution: imn.ImnSolution | None  # the best of imn_synthesis.solutions, if any
    pte_report: efficiency.PteReport
    link: LinkModel
    sar: efficiency.SarBudget | None = None
    harvest_result: harvester.DesignSpaceResult | None = None

    def best_imn(self) -> imn.ImnSolution | None:
        return self.imn_solution

    def text(self) -> str:
        return render_report(self)

    def footer(self) -> dict[str, float | int | str]:
        spec, coils, ex, p = self.spec, self.link.coils, self.extraction, self.pte_report
        tx, rx = self.tx_stage.geometry, self.rx_stage.geometry
        out: dict[str, float | int | str] = {
            "f0_hz": spec.f0, "zp1_ohm": spec.ports.zp1, "zp2_ohm": spec.ports.zp2,
            "k": coils.k, "k_source": self.k_source, "l_opt_h": self.l_opt,
            "l1_h": coils.l1, "l2_h": coils.l2, "r1_ohm": coils.r1, "r2_ohm": coils.r2,
            "f_opt_hz": self.f_opt, "s_max": self.s_max_bare,
            "tx_turns": tx.n, "rx_turns": rx.n, "tx_area_m2": tx.area, "rx_area_m2": rx.area,
            "l1_eff_h": ex.l1, "l2_eff_h": ex.l2, "r1_eff_ohm": ex.r1, "r2_eff_ohm": ex.r2,
            "k_eff": ex.k,
        }
        best = self.imn_solution
        if best is not None:
            for slot, elem in zip(imn.SLOTS, best.imn.elements):
                out[f"imn_{slot}_{elem.unit.lower()}"] = elem.value
                out[f"imn_{slot}_kind"] = elem.kind.value
            out.update(imn_case=best.imn.topology_case, s11_link_db=best.s11_db,
                       s22_link_db=best.s22_db, s21_link_db=best.s21_db)
        out.update(pte=p.pte, pte_max=p.pte_max, k_r=p.k_r, gamma=p.gamma)
        if self.sar is not None:
            out.update(p_tx_max_w=self.sar.p_tx_max, pdl_max_w=self.sar.pdl_max)
        harvest = self.harvest_result
        if harvest is not None and harvest.chosen is not None:
            out.update(harvester_n=harvest.chosen.n, harvester_q=harvest.chosen.q)
        return out


def run_design(spec: DesignSpec) -> DesignReport:
    """Execute the full design flow for one spec."""
    ports = spec.ports
    k_value = spec.k if spec.k is not None else 0.1
    k_source = "given" if spec.k is not None else "estimated"
    passes = 1 if spec.k is not None else 2

    tx_stage = rx_stage = None
    l_opt_val = l1_target = l2_target = 0.0
    for _ in range(passes):
        l_opt_val = coil.l_opt(spec.f0, spec.r1_init, spec.r2_init, ports, k_value)
        if spec.l1_pinned is not None:
            l1_target = spec.l1_pinned
            l2_target = coil.asymmetric_partner(l_opt_val, l1_target)
        else:
            l1_target = l2_target = l_opt_val
        tx_stage, rx_stage = _coil_stages(spec, l1_target, l2_target)
        if spec.k is None:
            try:
                k_value = spiral.estimate_k(tx_stage.geometry, rx_stage.geometry, spec.distance)
            except ValueError as exc:
                raise InfeasibleDesignError("k estimate",
                                            f"distance_m = {spec.distance!r}: {exc}") from exc

    coils = CoilPair(tx_stage.inductance, rx_stage.inductance,
                     tx_stage.r_ac, rx_stage.r_ac, k_value)
    f_opt_val = coil.f_opt(coils, ports)
    s_max_val = coil.s_max(coils, ports)
    s21_bare = coil.s21_mag(coils, ports, spec.f0)

    stack = None
    if spec.tissue.override is None and spec.tissue.enabled:
        face = spec.tissue.face_area if spec.tissue.face_area is not None else spec.rx.max_area
        if spec.tissue.layers is not None:
            stack = TissueStack(spec.tissue.layers, spec.tissue.sections_per_layer, face)
        else:
            stack = tissue.default_implant_stack(face, spec.tissue.sections_per_layer)

    model = LinkModel(ports, coils, stack, spec.tissue.override, None, spec.f0)
    t_eff = model.coil_abcd_at(spec.f0)
    s_eff = netcore.abcd_to_s(t_eff, ports.zp1, ports.zp2)
    extraction = coil.extract_params(s_eff, spec.f0)

    try:
        synthesis = imn.synthesize_imn(t_eff, s_eff, spec.f0)
    except UnmatchableError as exc:
        raise InfeasibleDesignError("imn synthesis", str(exc)) from exc
    if not synthesis.solutions and not synthesis.already_matched:
        raise InfeasibleDesignError(
            "imn synthesis", "no positive-element L-section matches both ports")

    best = synthesis.solutions[0] if synthesis.solutions else None
    if best is not None:
        model = replace(model, matching=best.imn)
    # Already matched, without a network, the bare network is the link.
    s21_link = s_eff.m21 if best is None else best.s.m21

    max_eff = efficiency.pte_max(s_eff)
    pte_val = efficiency.pte_link(s21_link, ports)
    pte_rep = efficiency.PteReport(pte_val, max_eff.pte_max, max_eff.k_r,
                                   efficiency.gamma_factor(ports))

    sar = None
    if spec.sar_p_tx_max is not None:
        sar = efficiency.sar_constrained_pdl(spec.sar_p_tx_max, min(pte_val, 1.0))

    harvest_result = None
    if spec.harvest is not None:
        h = spec.harvest
        harvest_result = harvester.design_space(h.v_rx, h.target_v_out, h.constraints)
        if harvest_result.chosen is None:
            misses = "; ".join(
                f"{label}: n={p.n} q={p.q:g} v_out={si(p.v_out, 'V')} "
                f"tau={si(p.charge_time, 's')}"
                for label, p in harvest_result.nearest.items())
            raise InfeasibleDesignError("harvester sizing",
                                        f"no (n, q) point meets the targets; {misses}",
                                        nearest=harvest_result.nearest)

    return DesignReport(
        spec=spec, l_opt=l_opt_val, l1_target=l1_target, l2_target=l2_target,
        tx_stage=tx_stage, rx_stage=rx_stage, k_source=k_source,
        f_opt=f_opt_val, s_max_bare=s_max_val, s21_bare_f0=s21_bare,
        extraction=extraction, imn_synthesis=synthesis, imn_solution=best,
        pte_report=pte_rep, link=model, sar=sar, harvest_result=harvest_result,
    )


# -- report rendering ------------------------------------------------------


def render_report(report: DesignReport) -> str:
    """The text report: a title, then each section of ``_report_sections``
    as a ``[title]`` line, its rows (labels in a 20-character column after a
    two-space indent) and a blank line, then ``footer()`` as ``key=value``."""
    lines = ["inductive link design report", "============================", ""]
    for title, rows in _report_sections(report):
        lines.append(f"[{title}]")
        lines += [f"  {label}" if text is None else f"  {label:<20} {text}"
                  for label, text in rows]
        lines.append("")
    lines.append("[footer]")
    lines += [f"{key}={value:.12g}" if isinstance(value, float) else f"{key}={value}"
              for key, value in report.footer().items()]
    return "\n".join(lines) + "\n"


def _report_sections(report: DesignReport) -> Iterator[tuple[str, list[tuple[str, str | None]]]]:
    """The report's sections in order, each (title, [(label, text)]); a row
    whose text is None prints its label alone."""
    spec, ex, p = report.spec, report.extraction, report.pte_report
    yield "inputs", [
        ("design frequency", si(spec.f0, "Hz")),
        ("port impedances", f"{si(spec.ports.zp1, 'ohm')} / {si(spec.ports.zp2, 'ohm')}"),
        ("coupling coefficient", f"{report.link.coils.k:.6g} ({report.k_source})"),
        ("initial resistances", f"{si(spec.r1_init, 'ohm')} / {si(spec.r2_init, 'ohm')}")]
    split = ([("L1 (pinned)", si(report.l1_target, "H")),
              ("L2 = L_opt^2/L1", si(report.l2_target, "H"))] if spec.l1_pinned is not None
             else [("L1 = L2 = L_opt", si(report.l1_target, "H"))])
    yield "inductance", [("L_opt", si(report.l_opt, "H")), *split]
    for side, stage in (("tx", report.tx_stage), ("rx", report.rx_stage)):
        g = stage.geometry
        yield f"{side} coil", [
            ("shape", g.shape.name), ("turns", f"{g.n}"), ("initial radius", si(g.r, "m")),
            ("radius increment", si(g.dr, "m")), ("trace width", si(g.w, "m")),
            ("inductance", si(stage.inductance, "H")),
            ("footprint", f"{g.area * 1e6:.4g} mm^2 (cap {stage.area_cap * 1e6:.4g} mm^2)"),
            ("AC resistance", si(stage.r_ac, "ohm")),
            ("candidates in band", f"{stage.candidate_count}")]
    yield "bare link", [
        ("f_opt", si(report.f_opt, "Hz")),
        ("peak |S21|", f"{report.s_max_bare:.6g} ({_db(report.s_max_bare):.4g} dB)"),
        ("|S21| at f0", f"{report.s21_bare_f0:.6g} ({_db(report.s21_bare_f0):.4g} dB)")]
    stack = report.link.stack
    if stack is not None:
        yield "tissue channel", [
            *(("layer", f"{layer.name}: {si(layer.thickness, 'm')}, "
                        f"sigma {si(layer.sigma_static, 'S/m')}") for layer in stack.layers),
            ("sections per layer", f"{stack.sections_per_layer}"),
            ("face area", f"{stack.face_area * 1e6:.4g} mm^2")]
    yield "effective coil parameters (re-extracted)", [
        ("L1'", si(ex.l1, "H")), ("L2'", si(ex.l2, "H")),
        ("R1'", si(ex.r1, "ohm")), ("R2'", si(ex.r2, "ohm")), ("k'", f"{ex.k:.6g}"),
        *([] if ex.valid else [("flagged non-physical:", ", ".join(ex.issues))])]
    best = report.imn_solution
    if best is not None:
        yield "matching network", [
            ("topology case", f"{best.imn.topology_case}"),
            *((slot.replace("_", " "), f"{elem.kind.value}: {si(elem.value, elem.unit)}")
              for slot, elem in zip(imn.SLOTS, best.imn.elements)),
            ("solutions found", f"{len(report.imn_synthesis.solutions)}"),
            ("|S11| at f0", f"{best.s11_db:.4g} dB"), ("|S22| at f0", f"{best.s22_db:.4g} dB"),
            ("|S21| at f0", f"{best.s21_db:.4g} dB")]
    elif report.imn_synthesis.already_matched:
        yield "matching network", [("ports already matched; no finite L-section required", None)]
    yield "efficiency", [
        ("PTE at f0", f"{p.pte * 100:.4g} %"), ("PTE_max", f"{p.pte_max * 100:.4g} %"),
        ("K_r", f"{p.k_r:.6g}"), ("gamma", f"{p.gamma:.6g}")]
    if report.sar is not None:
        yield "sar budget", [
            ("max TX power", si(report.sar.p_tx_max, "W")),
            ("max delivered power", si(report.sar.pdl_max, "W"))]
    harvest = report.harvest_result
    if harvest is not None and harvest.chosen is not None:
        point = harvest.chosen
        yield "harvester", [
            ("stages", f"{point.n}"), ("boost Q", f"{point.q:.4g}"),
            ("V_out", si(point.v_out, "V")), ("R_rect", si(point.r_rect, "ohm")),
            ("C_rect", si(point.c_rect, "F")), ("charge time", si(point.charge_time, "s")),
            ("grid points swept", f"{len(harvest.table)}")]


# -- frequency sweeps ------------------------------------------------------


class SweepRow(NamedTuple):
    """One sweep point: |S11|, |S21| and |S22| in dB, PTE and PTE_max in
    percent."""

    f: float
    s11_db: float
    s21_db: float
    s22_db: float
    pte_pct: float
    pte_max_pct: float


SWEEP_HEADER = ("f_hz", "s11_db", "s21_db", "s22_db", "pte_pct", "pte_max_pct")


class SweepRows(BuiltOnRead):
    """A sweep's rows as a read-only sequence of SweepRow, built from an
    (n, 6) float64 table when read; iterating builds them all at once,
    in C (``tuple.__new__``, no frame per row)."""

    def __init__(self, table: np.ndarray):
        super().__init__(lambda *values: SweepRow(*map(float, values)), *table.T)
        self._table = table

    def __iter__(self) -> Iterator[SweepRow]:
        return map(functools.partial(tuple.__new__, SweepRow), zip(*self._table.T.tolist()))


def frequency_grid(f_start: float, f_stop: float, points: int, scale: str = "log") -> list[float]:
    if not netcore.check_frequency(f_start) < netcore.check_frequency(f_stop):
        raise ValueError("need f_start < f_stop")
    if points < 2:
        raise ValueError("need at least 2 sweep points")
    if scale == "log":
        return np.geomspace(f_start, f_stop, points).tolist()
    if scale == "linear":
        return np.linspace(f_start, f_stop, points).tolist()
    raise ValueError(f"scale must be 'log' or 'linear', got {scale!r}")


def _s_along(frequencies: np.ndarray, s_at) -> TwoPortMatrix:
    """``s_at`` along the sweep's frequency axis; a point that fails
    validation is named by its frequency."""
    try:
        return s_at(frequencies)
    except netcore.PointError as exc:
        raise ValueError(f"{exc} at f = {float(frequencies[exc.index])!r} Hz") from None


@netcore.quiet
def _sweep_rows(frequencies: np.ndarray, s: TwoPortMatrix, ports: PortPair) -> SweepRows:
    """The rows of the S matrix along the sweep's frequency axis."""
    columns = [frequencies] + [_db_column(abs(netcore.lift(m))) for m in (s.m11, s.m21, s.m22)]
    columns += [efficiency.pte_link(s.m21, ports) * 100.0, efficiency.pte_max(s).pte_max * 100.0]
    return SweepRows(np.array(columns).T.copy())


def _db_column(mag: np.ndarray) -> np.ndarray:
    """``imn._db`` at each point: libm ``log10`` through ``math.log10``,
    called per point from C by ``map``.  ``np.log10`` is no substitute: its
    float64 loop may dispatch to a SIMD kernel, which over 500,000
    magnitudes uniform on [0, 1) differs from ``math.log10`` at 101,014
    points (numpy 2.4, x86-64)."""
    return 20.0 * np.fromiter(map(math.log10, np.maximum(mag, 1e-300).tolist()), float, mag.size)


def sweep_link(model: LinkModel, frequencies: Sequence[float],
               with_imn: bool = True) -> SweepRows:
    """Rows of the link over ``frequencies``, each stage run once for all."""
    freqs = np.array(frequencies, dtype=float)
    return _sweep_rows(freqs, _s_along(freqs, lambda f: model.s_at(f, with_imn=with_imn)),
                       model.ports)


def sweep_table(table: NetworkTable, frequencies: Sequence[float] | None = None) -> SweepRows:
    ports = PortPair(table.zp, table.zp)
    freqs = np.array(table.frequencies if frequencies is None else frequencies, dtype=float)
    return _sweep_rows(freqs, _s_along(freqs, table.at), ports)


# -- sweep CSV: '%.12g' fields written from the float64 table ---------------
#
# A field in fixed notation (decimal exponent X in [-4, 11]) prints the
# 12-digit mantissa m = rint(y), y = |x| * 10**(11 - X) in [1e11, 1e12).  y
# is one correctly rounded multiply by an exact power of ten, and rounding
# is monotonic, so unless y is a half-integer (every one below 2**52 is a
# float), m is the exact product rounded: the mantissa '%.12g' prints.
# np.log10 only picks X; where y falls outside that range, or m reaches
# 1e12, the field takes the fallback.  Each field fills a 33-byte template
#     "-", m's 12 digits, "0.000", m's 12 digits, ",\r\n"
# and a mask looked up by (X, significant digits, sign, last column) keeps
# its text; the other bytes become NUL, and NULs are deleted.  Zero,
# non-finite values, exponent notation and half-integers y take
# '%-20.12g' % x in the template's first 20 bytes, its padding deleted too.

_POW10 = np.array([float(10 ** k) for k in range(16)])
_GROUP = np.indices((10,) * 4, np.uint8).reshape(4, -1)  # the digits of 0..9999, m's groups
_GROUP_DIGITS = np.add(_GROUP.T, 48, order="C").view("V4").ravel()
_GROUP_ZEROS = ((_GROUP[3] == 0) * (1 + (_GROUP[2] == 0) * (  # trailing zeros
    1 + (_GROUP[1] == 0) * (1 + (_GROUP[0] == 0))))).astype(np.uint8)
_TEMPLATE = np.frombuffer(b"-" + b"0" * 12 + b"0.000" + b"0" * 12 + b",\r\n", "V33")[0]
_FIELD = np.dtype({"names": ["a", "b", "head"], "formats": ["V12", "V12", "V20"],
                   "offsets": [1, 18, 0], "itemsize": 33})
_CSV_BLOCK = 512  # rows; each array of a block stays under glibc's 128 kB mmap threshold


def _keep_masks() -> np.ndarray:
    """Row (((X + 4) * 12 + digits - 1) * 2 + negative) * 2 + last of the
    template's keep masks; rows 768 and 769 keep a fallback's 20 bytes."""
    x, digits, negative, last = (a.reshape(-1, 1) for a in np.indices((16, 12, 2, 2)))
    x, digits, col = x - 4, digits + 1, np.arange(33)
    a, b = col - 1, col - 18
    sep = (col == 30) & (last == 0) | (col > 30) & (last == 1)
    keep = ((col == 0) & (negative == 1) | (a >= 0) & (a <= x) | (col == 13) & (x < 0)
            | (col == 14) & ((x < 0) | (digits > x + 1)) | (col >= 15) & (col - 15 < -x - 1)
            | (b >= 0) & (b < digits) & (b > x) | sep)
    fallback = [(col < 20) | (col == 30), (col < 20) | (col > 30)]
    return (np.vstack([keep, *fallback]) * np.uint8(255)).view("V33").ravel()


_KEEP = _keep_masks()


def sweep_csv_text(rows: Sequence[SweepRow]) -> str:
    """Sweep rows as CSV (see csv_text)."""
    table = rows._table if isinstance(rows, SweepRows) else \
        np.array(rows, dtype=float).reshape(len(rows), len(SWEEP_HEADER))
    return csv_text(SWEEP_HEADER, table)


@netcore.quiet
def csv_text(header: Sequence[str], table: np.ndarray) -> str:
    """A header line, then each row of the 2-D float64 ``table`` with each
    field as '%.12g' formats it ('.' decimals, no locale, nan and inf as
    Python spells them), lines ending in "\r\n" as csv.writer ends them."""
    out = [",".join(header) + "\r\n"]
    for start in range(0, len(table), _CSV_BLOCK):
        v = table[start:start + _CSV_BLOCK]
        mag = np.abs(v)
        x = np.fmax(np.fmin(np.floor(np.log10(mag)), 11.0), -4.0)
        y = mag * _POW10.take((11.0 - x).astype(np.intp))
        m = np.rint(y)
        fallback = ~((y >= 1e11) & (m < 1e12) & (np.abs(y - m) < 0.5))
        m[fallback] = 1e11
        hi, mid = np.floor(m / 1e8), np.floor(m / 1e4)
        groups = np.array([hi, mid - 1e4 * hi, m - 1e4 * mid]).astype(np.intp)
        zeros = _GROUP_ZEROS.take(groups)
        zeros = zeros[2] + (groups[2] == 0) * (zeros[1] + (groups[1] == 0) * zeros[0])
        key = (x.astype(np.intp) * 12 - zeros) * 4 + (v < 0) * 2 + 236
        key[fallback] = 768
        key[:, -1] += 1
        text = np.empty(v.shape, "V33")
        text[...] = _TEMPLATE
        parts = np.ndarray(v.shape, _FIELD, text)  # not .view, which runs Python code
        parts["a"] = parts["b"] = \
            _GROUP_DIGITS.take(groups.transpose(1, 2, 0)).view("V12")[..., 0]
        parts["head"][fallback] = np.frombuffer(
            "".join(map("%-20.12g".__mod__, v[fallback].tolist())).encode(), "V20")
        text = text.view(np.uint8)
        text &= _KEEP.take(key).view(np.uint8)
        out.append(text.tobytes().translate(None, b"\0 ").decode("ascii"))
    return "".join(out)
