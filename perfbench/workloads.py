"""Workload inputs, the ops the benchmark times and the checks on their outputs.

Inputs come from a committed pool (`pool.json`) of generated specs, each
with the outcome and footer the program gave when the pool was built.
`--seed` picks one spec from each of `picks` strata of the pool sorted
by its `stratum` (the section count of a sweep link, else 0) and then
by the cost measured at build time, and shuffles them.  The inputs vary
with the seed while every run sees the same mix of cheap and costly
specs, so run-to-run spread comes from the program, not from the draw.

A sweep's cost differs from link to link by up to 2x at the same section
count, so the sweep pool is small and every run sweeps all of its links;
there the seed draws each link's sweep span around f0 and the order.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from wptkit import coil, imn, netcore, pipeline, tissue, touchstone

POOL_FILE = Path(__file__).with_name("pool.json")

SHAPES = ("square", "hexagonal", "octagonal", "circular")
SWEEP_POINTS = 1001
TABLE_POINTS = 201          # rows of each link's .s2p file, f0/10 to 10*f0
SPAN = (4.0, 10.0)          # a sweep runs f0/span to span*f0, span log-uniform
LINK_SECTIONS = (10, 20, 30)
L_TOL = 0.01                # synthesized L within 1 % of its target
FOOTER_RTOL = 1e-9          # footer against the committed reference
PTE_RTOL = 1e-9             # PTE <= PTE_max up to rounding; equal when matched
S21_F0_TOL_DB = 1e-6        # IMN sweep at f0 against the footer's s21_link_db

# Why each workload exists; BENCHMARK.json carries the same text.
WHY = {
    "design-small": "spiral synthesis on small grids, twice when k is estimated, is "
                    "nearly all of each design op; the sweep layers sit idle",
    "sweep": "1001-point sweeps over built links: netcore, ladder, IMN and pte_max "
             "dominate; .s2p table ops use netcore without ladders",
}


# -- spec generation (used by make_pool.py) -------------------------------


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _sides(rng: random.Random, cap_lo: float, cap_hi: float) -> dict:
    return {side: {"shape": rng.choice(SHAPES), "max_area_m2": rng.uniform(cap_lo, cap_hi)}
            for side in ("tx", "rx")}


def draw_small(rng: random.Random, index: int) -> dict:
    spec = {"f0_hz": _log_uniform(rng, 5e6, 40e6), "k": rng.uniform(0.03, 0.3),
            **_sides(rng, 1e-4, 6e-4),
            "tissue": {"sections_per_layer": rng.choice((5, 10, 20))}}
    extra = rng.random()
    if extra < 0.2:
        l_opt = coil.l_opt(spec["f0_hz"], 0.5, 0.5, coil.PortPair(), spec["k"])
        spec["l1_pinned_h"] = l_opt * rng.uniform(0.7, 1.4)
    elif extra < 0.4:
        spec["harvester"] = {"v_rx_v": rng.uniform(0.05, 0.3),
                             "target_v_out_v": rng.uniform(0.8, 2.0),
                             "q_values": [1.0, 2.0, 4.0]}
    elif extra < 0.6:
        spec["sar"] = {"p_tx_max_w": rng.uniform(0.02, 0.2)}
    elif extra < 0.8:
        spec["k"] = "estimate"
        spec["distance_m"] = rng.uniform(5e-3, 30e-3)
    return spec


def draw_link(rng: random.Random, index: int) -> dict:
    # A sweep's cost grows with the ladder sections cascaded per point, so
    # the pool holds equally many links with 10, 20 and 30 per layer, and
    # make_pool.py makes that count the entry's stratum.
    sections = LINK_SECTIONS[index % len(LINK_SECTIONS)]
    return {"f0_hz": _log_uniform(rng, 5e6, 40e6), "k": rng.uniform(0.03, 0.3),
            **_sides(rng, 1e-4, 6e-4), "tissue": {"sections_per_layer": sections}}


# -- checks ----------------------------------------------------------------


def parse_footer(text: str) -> dict[str, str]:
    _, _, block = text.partition("[footer]\n")
    return dict(line.split("=", 1) for line in block.splitlines())


def footer_problems(text: str, reference: dict) -> list[str]:
    got = parse_footer(text)
    if set(got) != set(reference):
        return [f"footer keys differ: {sorted(set(got) ^ set(reference))}"]
    problems = []
    for key, want in reference.items():
        if isinstance(want, float):
            value = float(got[key])
            if abs(value - want) > FOOTER_RTOL * max(abs(want), abs(value)):
                problems.append(f"footer {key}={value!r}, reference {want!r}")
        elif got[key] != str(want):
            problems.append(f"footer {key}={got[key]}, reference {want}")
    return problems


def design_problems(report, text: str, reference: dict) -> list[str]:
    problems = []
    for stage, target in ((report.tx_stage, report.l1_target),
                          (report.rx_stage, report.l2_target)):
        if abs(stage.inductance - target) > L_TOL * target:
            problems.append(f"L {stage.inductance!r} not within 1 % of {target!r}")
        if stage.geometry.area > stage.area_cap * (1.0 + 1e-12):
            problems.append(f"footprint {stage.geometry.area!r} over cap {stage.area_cap!r}")
    best = report.best_imn()
    if best is None:
        problems.append("no matching network")
    elif max(best.s11_db, best.s22_db) > imn.RETURN_LOSS_FLOOR_DB:
        problems.append(f"|S11|, |S22| = {best.s11_db:.4g}, {best.s22_db:.4g} dB above -40 dB")
    pte = report.pte_report
    if not (0.0 <= pte.pte <= pte.pte_max * (1.0 + PTE_RTOL) and pte.pte_max <= 1.0):
        problems.append(f"PTE {pte.pte!r} / PTE_max {pte.pte_max!r} out of order")
    return problems + footer_problems(text, reference)


def sweep_problems(rows, text: str, freqs: list[float], f0: float,
                   s21_link_db: float | None) -> list[str]:
    if [row.f for row in rows] != freqs:
        return [f"{len(rows)} rows, not the {len(freqs)}-point grid"]
    problems = []
    if text.count("\n") != len(freqs) + 1:
        problems.append("CSV line count differs from the row count")
    for row in rows:
        if math.isfinite(row.pte_max_pct) and row.pte_pct > row.pte_max_pct * (1.0 + PTE_RTOL):
            problems.append(f"pte {row.pte_pct!r} % > pte_max {row.pte_max_pct!r} % at {row.f!r}")
            break
    if s21_link_db is not None:
        at_f0 = min(rows, key=lambda row: abs(row.f - f0))
        if abs(at_f0.f - f0) > 1e-9 * f0:
            problems.append("grid misses f0")
        elif abs(at_f0.s21_db - s21_link_db) > S21_F0_TOL_DB:
            problems.append(f"s21 at f0 {at_f0.s21_db!r} dB, footer {s21_link_db!r} dB")
    return problems


# -- ops -------------------------------------------------------------------


@dataclass
class Op:
    """One timed call on pool entry `source`.  `run` returns (object, text);
    `check` lists what is wrong with that output.  The text is compared byte
    for byte across repeats of the same `key`."""

    key: str
    source: int
    run: Callable[[], tuple]
    check: Callable[[tuple], list[str]]


def pick(entries: list[dict], picks: int, rng: random.Random) -> list[int]:
    """One seeded pick from each of `picks` strata of the pool sorted by
    (stratum, cost), in seeded order."""
    order = sorted(range(len(entries)),
                   key=lambda i: (entries[i]["stratum"], entries[i]["cost_ms"], i))
    bounds = [round(s * len(order) / picks) for s in range(picks + 1)]
    chosen = [order[rng.randrange(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]
    rng.shuffle(chosen)
    return chosen


def design_ops(entries: list[dict], chosen: list[int]) -> list[Op]:
    """One op per chosen spec: spec_from_dict, run_design, report text."""
    def make(i: int) -> Op:
        entry = entries[i]

        def run():
            report = pipeline.run_design(pipeline.spec_from_dict(entry["spec"]))
            return report, report.text()

        return Op(f"spec{i}", i, run,
                  lambda out: design_problems(out[0], out[1], entry["footer"]))

    return [make(i) for i in chosen]


def sweep_ops(entries: list[dict], chosen: list[int], workdir: Path,
              rng: random.Random) -> list[Op]:
    """Designs each chosen link (checking its footer against the pool) and
    writes its tissue-modified S data to a .s2p file in `workdir`.  The ops
    rotate per link: IMN sweep, bare sweep, .s2p table sweep, each to CSV,
    all over the same grid of SWEEP_POINTS points, its span drawn from `rng`."""
    def make(i: int) -> list[Op]:
        entry = entries[i]
        report = pipeline.run_design(pipeline.spec_from_dict(entry["spec"]))
        problems = design_problems(report, report.text(), entry["footer"])
        if problems:
            raise RuntimeError(f"sweep link spec{i}: {problems[0]}")
        link, ports, f0 = report.link, report.link.ports, report.link.f0
        table_f = pipeline.frequency_grid(f0 / 10.0, f0 * 10.0, TABLE_POINTS)
        record = touchstone.record_from_matrices(
            table_f, [netcore.abcd_to_s(link.coil_abcd_at(f), ports.zp1, ports.zp2)
                      for f in table_f], ports.zp1)
        path = workdir / f"link{i}.s2p"
        touchstone.write_touchstone(record, path)
        span = _log_uniform(rng, *SPAN)
        freqs = pipeline.frequency_grid(f0 / span, f0 * span, SWEEP_POINTS)

        def analytic(with_imn: bool):
            rows = pipeline.sweep_link(link, freqs, with_imn=with_imn)
            return rows, pipeline.sweep_csv_text(rows)

        def table():
            net = tissue.import_override(touchstone.read_touchstone(path))
            rows = pipeline.sweep_table(net, freqs)
            return rows, pipeline.sweep_csv_text(rows)

        def check(s21_link_db):
            return lambda out: sweep_problems(out[0], out[1], freqs, f0, s21_link_db)

        return [Op(f"link{i}-imn", i, lambda: analytic(True),
                   check(entry["footer"]["s21_link_db"])),
                Op(f"link{i}-bare", i, lambda: analytic(False), check(None)),
                Op(f"link{i}-table", i, table, check(None))]

    return [op for i in chosen for op in make(i)]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
