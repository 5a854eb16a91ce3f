"""Command-line front end.

Commands: ``design``, ``sweep``, ``match``, ``coil synth``,
``tissue table``, ``harvester explore``, ``s2p convert``.  Exit codes:
0 success, 2 validation failure, 3 infeasible design, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from . import harvester, imn, pipeline, spiral, tissue
from .errors import InfeasibleDesignError, TouchstoneFormatError, UnmatchableError, WptError
from .pipeline import si
from .touchstone import read_touchstone, write_touchstone

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4

DEFAULT_F0 = 20e6  # Hz, for commands that read no design spec


def _write_out(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
        return
    try:
        sys.stdout.write(text)
    except UnicodeEncodeError as exc:  # the locale's encoding cannot hold the text
        raise OSError(f"standard output: {exc}") from None


def _cmd_design(args) -> int:
    spec = pipeline.load_design_spec(args.spec)
    report = pipeline.run_design(spec)
    _write_out(report.text(), args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.points is not None and args.points > pipeline.MAX_SWEEP_POINTS:
        raise ValueError(f"--points must be <= {pipeline.MAX_SWEEP_POINTS}, got {args.points}")
    if args.s2p:
        table = tissue.import_override(read_touchstone(args.s2p))
        if (args.start, args.stop, args.points) == (None, None, None):
            freqs = None
        else:
            start = table.frequencies[0] if args.start is None else args.start
            stop = table.frequencies[-1] if args.stop is None else args.stop
            points = len(table.frequencies) if args.points is None else args.points
            freqs = pipeline.frequency_grid(start, stop, points, args.scale)
        rows = pipeline.sweep_table(table, freqs)
    else:
        spec = pipeline.load_design_spec(args.spec)
        report = pipeline.run_design(spec)
        start = spec.f0 / 10.0 if args.start is None else args.start
        stop = spec.f0 * 10.0 if args.stop is None else args.stop
        points = args.points if args.points is not None else pipeline.DEFAULT_SWEEP_POINTS
        freqs = pipeline.frequency_grid(start, stop, points, args.scale)
        rows = pipeline.sweep_link(report.link, freqs, with_imn=not args.bare)
    text = pipeline.sweep_csv_text(rows)
    _write_out(text, args.out)
    return EXIT_OK


def _require_top(args) -> None:
    if args.top < 1:
        raise ValueError(f"--top must be >= 1, got {args.top}")


def _cmd_match(args) -> int:
    _require_top(args)
    spec = pipeline.load_design_spec(args.spec)
    report = pipeline.run_design(spec)
    synthesis = report.imn_synthesis
    lines = [f"matching solutions at {si(spec.f0, 'Hz')} "
             f"(ports {si(spec.ports.zp1, 'ohm')} / {si(spec.ports.zp2, 'ohm')})"]
    if synthesis.already_matched:
        lines.append("ports already matched; no finite L-section required")
    for rank, sol in enumerate(synthesis.solutions[: args.top], start=1):
        parts = [f"#{rank} case {sol.imn.topology_case}"]
        for slot, elem in zip(imn.SLOTS, sol.imn.elements):
            label = slot[:5].replace("_", "-")  # tx-se, tx-sh, rx-se, rx-sh
            parts.append(f"{label} {elem.kind.value} {si(elem.value, elem.unit)}")
        parts += [f"S11 {sol.s11_db:.4g} dB", f"S22 {sol.s22_db:.4g} dB",
                  f"S21 {sol.s21_db:.4g} dB"]
        lines.append("  ".join(parts))
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_coil_synth(args) -> int:
    _require_top(args)
    if args.max_area > pipeline.MAX_AREA:
        raise ValueError(f"--max-area must be <= {pipeline.MAX_AREA!r} m^2, got {args.max_area!r}")
    shape = pipeline.coil_shape(args.shape, "--shape")
    fab = spiral.FabConstraints(
        min_trace_width=args.min_width, min_spacing=args.min_spacing,
        max_area=args.max_area)
    result, = pipeline.synthesize_coils([("coil synthesis", args.target_l, fab, shape)])
    records = [spiral.candidate_record(g, args.f0) for g in result.candidates[: args.top]]
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(records[0].keys()))
        writer.writeheader()
        writer.writerows(records)
        _write_out(buf.getvalue(), args.out)
    else:
        lines = []
        for rec in records:
            fields = [f"shape={rec['shape']}", f"n={rec['n']}",
                      f"r={si(rec['r_m'], 'm')}", f"dr={si(rec['dr_m'], 'm')}",
                      f"w={si(rec['w_m'], 'm')}", f"L={si(rec['l_h'], 'H')}",
                      f"area={rec['area_m2'] * 1e6:.4g} mm^2",
                      f"R_ac={si(rec['r_ac_ohm'], 'ohm')}"]
            lines.append("  ".join(fields))
        _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_tissue_table(args) -> int:
    lines = []
    for name, factory in tissue.TISSUE_LIBRARY.items():
        layer = factory()
        lines.append(f"[{name}]")
        lines.append(f"  eps_inf   {layer.eps_inf:g}")
        for i, (d_eps, tau, alpha) in enumerate(layer.dispersions, start=1):
            lines.append(f"  term {i}    d_eps={d_eps:g}  tau={si(tau, 's')}  alpha={alpha:g}")
        lines.append(f"  sigma     {si(layer.sigma_static, 'S/m')}")
        if args.f is not None:
            eps = tissue.complex_permittivity(layer, args.f)
            lines.append(f"  at {si(args.f, 'Hz')}: eps' = {eps.real:.6g}, "
                         f"sigma_eff = {si(tissue.effective_conductivity(layer, args.f), 'S/m')}")
        lines.append("")
    _write_out("\n".join(lines), args.out)
    return EXIT_OK


def _cmd_harvester_explore(args) -> int:
    if args.n_max > pipeline.MAX_STAGES:
        raise ValueError(f"--n-max must be <= {pipeline.MAX_STAGES}, got {args.n_max}")
    constraints = harvester.HarvesterConstraints(
        n_range=range(args.n_min, args.n_max + 1),
        q_range=tuple(args.q),
        max_charge_time=args.max_charge_time,
        tissue_z=complex(args.tissue_r, args.tissue_x),
        f0=args.f0,
        c_store=args.c_store,
        i_load_avg=args.i_load,
        v_t=args.v_t,
        r_stage=args.r_stage,
        c_stage=args.c_stage,
    )
    result = harvester.design_space(args.v_rx, args.target_v, constraints)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "q", "r_rect_ohm", "c_rect_f", "v_out_v",
                     "charge_time_s", "match_residual"])
    for p in result.table:
        writer.writerow([p.n, f"{p.q:.12g}", f"{p.r_rect:.12g}", f"{p.c_rect:.12g}",
                         f"{p.v_out:.12g}", f"{p.charge_time:.12g}",
                         f"{p.match_residual:.12g}"])
    text = buf.getvalue()
    if result.chosen is not None:
        text += (f"# chosen: n={result.chosen.n} q={result.chosen.q:g} "
                 f"v_t={si(constraints.v_t, 'V')} c_store={si(constraints.c_store, 'F')}\n")
    else:
        text += "# no feasible point; nearest misses follow\n"
        for label, p in result.nearest.items():
            text += (f"# {label}: n={p.n} q={p.q:g} v_out={si(p.v_out, 'V')} "
                     f"charge_time={si(p.charge_time, 's')}\n")
    _write_out(text, args.out)
    return EXIT_OK if result.chosen is not None else EXIT_INFEASIBLE


def _cmd_s2p_convert(args) -> int:
    record = read_touchstone(args.input)
    write_touchstone(record, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wptkit",
        description="Design toolkit for two-coil inductive power links")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="run the full design pipeline on a spec file")
    p.add_argument("spec")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("sweep", help="frequency sweep to CSV")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--spec", help="design spec JSON (analytic link)")
    src.add_argument("--s2p", help="imported Touchstone file")
    p.add_argument("--start", type=float)
    p.add_argument("--stop", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--scale", choices=("log", "linear"), default="log")
    p.add_argument("--bare", action="store_true", help="sweep without the matching network")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("match", help="rank matching-network solutions for a spec")
    p.add_argument("spec")
    p.add_argument("--top", type=int, default=8)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_match)

    coil_group = sub.add_parser("coil", help="coil geometry tools")
    coil_sub = coil_group.add_subparsers(dest="coil_command", required=True)
    p = coil_sub.add_parser("synth", help="synthesize spiral candidates for a target inductance")
    p.add_argument("--target-l", type=float, required=True, help="target inductance, H")
    p.add_argument("--max-area", type=float, required=True, help="area cap, m^2")
    p.add_argument("--shape", default="square")
    p.add_argument("--min-width", type=float, default=spiral.FabConstraints.min_trace_width)
    p.add_argument("--min-spacing", type=float, default=spiral.FabConstraints.min_spacing)
    p.add_argument("--f0", type=float, default=DEFAULT_F0, help="frequency for R_ac, Hz")
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_coil_synth)

    tissue_group = sub.add_parser("tissue", help="tissue model tools")
    tissue_sub = tissue_group.add_subparsers(dest="tissue_command", required=True)
    p = tissue_sub.add_parser("table", help="print the embedded dielectric parameters")
    p.add_argument("--f", type=float, help="also evaluate permittivity at this frequency, Hz")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_tissue_table)

    harv_group = sub.add_parser("harvester", help="rectifier design tools")
    harv_sub = harv_group.add_subparsers(dest="harvester_command", required=True)
    p = harv_sub.add_parser("explore", help="sweep the (n, q) rectifier design space")
    p.add_argument("--v-rx", type=float, required=True, help="received amplitude, V")
    p.add_argument("--target-v", type=float, required=True, help="target DC output, V")
    p.add_argument("--n-min", type=int, default=harvester.DEFAULT_N_MIN)
    p.add_argument("--n-max", type=int, default=harvester.DEFAULT_N_MAX)
    box = harvester.HarvesterConstraints  # its field defaults are the flag defaults
    p.add_argument("--q", type=float, nargs="+", default=list(box.q_range))
    p.add_argument("--max-charge-time", type=float, default=box.max_charge_time)
    p.add_argument("--f0", type=float, default=DEFAULT_F0)
    p.add_argument("--tissue-r", type=float, default=50.0)
    p.add_argument("--tissue-x", type=float, default=0.0)
    p.add_argument("--c-store", type=float, default=harvester.DEFAULT_STORE_CAPACITOR)
    p.add_argument("--i-load", type=float, default=box.i_load_avg)
    p.add_argument("--v-t", type=float, default=harvester.BODY_THERMAL_VOLTAGE)
    p.add_argument("--r-stage", type=float, default=box.r_stage)
    p.add_argument("--c-stage", type=float, default=box.c_stage)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_harvester_explore)

    s2p_group = sub.add_parser("s2p", help="Touchstone file tools")
    s2p_sub = s2p_group.add_subparsers(dest="s2p_command", required=True)
    p = s2p_sub.add_parser("convert", help="normalize a Touchstone file to RI/Hz")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=_cmd_s2p_convert)

    return parser


def _fail(kind: str, exc: Exception, code: int) -> int:
    """Report on one stderr line: control characters, which a spec key or
    a path may carry, are escaped."""
    text = "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(exc))
    print(f"{kind}: {text}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InfeasibleDesignError, UnmatchableError) as exc:
        return _fail("infeasible", exc, EXIT_INFEASIBLE)
    except TouchstoneFormatError as exc:
        return _fail("file error", exc, EXIT_IO)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        return _fail("i/o error", exc, EXIT_IO)
    except (ValueError, KeyError) as exc:
        return _fail("validation error", exc, EXIT_VALIDATION)
    except WptError as exc:
        return _fail("error", exc, EXIT_VALIDATION)


if __name__ == "__main__":
    sys.exit(main())
