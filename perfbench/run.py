#!/usr/bin/env python3
"""wptkit benchmark: timed design and sweep workloads plus a traced layer table.

    python3 perfbench/run.py                     # every workload, untraced then traced
    python3 perfbench/run.py --workload sweep --seed 3 --seconds 10 --trace 0

Run from the repository root; wptkit is imported from `src/`.  Each
workload runs in one single-threaded process as a closed loop with one
client: the next op starts when the previous one has finished.  Every op
output is checked (see workloads.py).  The last line of standard output
is one JSON object: `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` times whole passes over the run's ops, as many as end
nearest to `--seconds` (at least one).  Times are scaled to a host of fixed speed
by a reference kernel run after every op (see `timed_run`; the unscaled
figures are printed too), and the end-to-end metrics are:

- setup_s: median of three set-ups, each a fresh interpreter's
  `import wptkit` plus input selection, link building (sweep) and a
  warm-up op.
- ops_per_s: correct ops over the summed wall time of all ops (output
  checks and the reference kernel run between ops and are not counted).
- op_p50_ms, op_cpu_ms: median over the run's inputs of each input's
  median wall and process CPU time.
- op_tail_ms: 90th percentile of all op wall times; the number of
  samples beyond it is printed (at least ten in a full-length run).
- peak_rss_mb: peak resident memory of this process (getrusage).

`--trace 1` runs one pass over the workload's ops untraced, then the
same pass with span and counter wrappers installed (layertrace.py), and
reports the per-layer metrics: totals over the traced pass.  Spans are
written to `.perfbench-out/`.
"""

import os

# Single-threaded numpy, set before anything imports it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

WORKLOADS = ("design-small", "sweep")
# Specs (design) or links (sweep) drawn per run, one per cost stratum;
# the sweep pool holds six links, so every run sweeps all of them.
PICKS = {"design-small": 32, "sweep": 6}
SETUP_REPS = 3
# Typical mean wall time of `reference_kernel` (its fastest 95 % in a
# run) on the host the benchmark was built on, a 2-vCPU KVM guest on a
# Xeon Sapphire Rapids (Python 3.11, numpy 2.4); op times are reported
# scaled to a host of that speed.
REFERENCE_MS = 8.0
REFERENCE_TRIM = 0.05

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("op_cpu_ms", "ms"), ("peak_rss_mb", "MB"))

# Per-layer metrics, each resolved by `layer_value`.
PER_LAYER = (
    ("spiral.synthesize.calls", "count"), ("spiral.synthesize.self_ms", "ms"),
    ("spiral.candidates", "count"), ("spiral.estimate_k.self_ms", "ms"),
    ("spiral.self_ms", "ms"),
    ("coil.coil_abcd.self_ms", "ms"), ("coil.self_ms", "ms"),
    ("tissue.ladder_two_port.calls", "count"), ("tissue.ladder_two_port.self_ms", "ms"),
    ("tissue.sections_cascaded", "count"), ("tissue.NetworkTable.at.self_ms", "ms"),
    ("tissue.self_ms", "ms"),
    ("netcore.matrices_built", "count"), ("netcore.cascade.calls", "count"),
    ("netcore.abcd_to_s.calls", "count"), ("netcore.self_ms", "ms"),
    ("imn.assemble_link.self_ms", "ms"), ("imn.synthesize_imn.self_ms", "ms"),
    ("imn.variants_tried", "count"), ("imn.variants_kept", "count"),
    ("imn.kept_ratio", "ratio"), ("imn.self_ms", "ms"),
    ("efficiency.pte_max.calls", "count"), ("efficiency.pte_max.self_ms", "ms"),
    ("efficiency.self_ms", "ms"),
    ("harvester.design_space.self_ms", "ms"), ("harvester.grid_points", "count"),
    ("harvester.self_ms", "ms"),
    ("touchstone.read_touchstone.self_ms", "ms"), ("touchstone.bytes_parsed", "count"),
    ("touchstone.self_ms", "ms"),
    ("pipeline.run_design.self_ms", "ms"), ("pipeline.render_report.self_ms", "ms"),
    ("pipeline.sweep_link.self_ms", "ms"), ("pipeline.sweep_table.self_ms", "ms"),
    ("pipeline.sweep_csv_text.self_ms", "ms"), ("pipeline.self_ms", "ms"),
    ("trace.ops", "count"), ("trace.overhead_ratio", "ratio"),
)


def host_record() -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": os.getloadavg(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports wptkit and exits."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import wptkit"], env=env, check=True, timeout=120)
    return time.perf_counter() - start


def set_up(workload: str, seed: int, workdir: Path) -> list:
    """The run's ops, warmed up with one op on the cheapest input."""
    import workloads
    entries = json.loads(workloads.POOL_FILE.read_text())[workload]["entries"]
    rng = random.Random(seed)
    chosen = workloads.pick(entries, PICKS[workload], rng)
    cheapest = min(chosen, key=lambda i: entries[i]["cost_ms"])
    if workload == "sweep":
        ops = workloads.sweep_ops(entries, chosen, workdir, rng)
    else:
        ops = workloads.design_ops(entries, chosen)
    next(op for op in ops if op.source == cheapest).run()
    return ops


class Checker:
    """Counts ops and failures; an op fails if it raised, if its output fails
    its checks, or if its text differs from an earlier run on the same input."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.problems: list[str] = []

    def record(self, op, out) -> None:
        import workloads
        self.attempted += 1
        if isinstance(out, Exception):
            problems = [f"raised {type(out).__name__}: {out}"]
        else:
            problems = op.check(out)
            digest = workloads.digest(out[1])
            if self.digests.get(op.key, digest) != digest:
                problems.append("text differs from an earlier run of the same input")
            elif not problems:
                self.digests[op.key] = digest
        if problems:
            self.failed += 1
            self.problems.append(f"{op.key}: {problems[0]}")


def run_op(op):
    """(output or exception, wall s, cpu s)."""
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # counted as a failed op
        out = exc
    return out, time.perf_counter() - wall0, time.process_time() - cpu0


def tail(times: list[float]) -> tuple[float, int]:
    """(90th percentile by nearest rank, samples beyond it).  Every pass
    runs each input once, so the percentile falls on the same input of the
    cost order whatever the number of passes; a rank counted from the top
    would move with it."""
    ordered = sorted(times)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def reference_kernel() -> None:
    """Fixed work that loads the processor the way the program does: a pure
    Python float loop and a chain of small complex numpy matrix products."""
    import numpy
    total = 0.0
    for i in range(6000):
        total += (i * 0.5) ** 0.5
    step = numpy.array([[1.0 + 0.1j, 0.2], [0.3j, 1.0]])
    product = numpy.eye(2, dtype=complex)
    for _ in range(800):
        product = product @ step
        product = product / numpy.abs(product).max()


def timed_reference() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def per_input_median(samples: list[tuple[str, float]]) -> float:
    """Median over inputs of each input's median."""
    by_input: dict[str, list[float]] = {}
    for key, value in samples:
        by_input.setdefault(key, []).append(value)
    return statistics.median(statistics.median(values) for values in by_input.values())


def timed_run(ops: list, seconds: float, checker: Checker, corrupt_op=None) -> dict:
    """Whole passes over `ops` in their seeded order, as many as end
    nearest to `seconds` (at least one), so that every input runs equally
    often.

    The host is shared, and its speed drifts by up to 1.5x from one
    minute to the next, CPU time as much as wall time.  So
    `reference_kernel` runs after every op, and every wall and CPU time
    is scaled by REFERENCE_MS over the reference's mean time in the run:
    the time the op would take on a host where the reference takes
    REFERENCE_MS.  The mean, not the median, because an op lasts long
    enough to average over the host's fast and slow moments, as the mean
    of many short reference runs does; the slowest REFERENCE_TRIM of
    them are left out, as a few are stopped for tens of ms.  A change to
    the program moves the scaled times as it moves the raw ones, while
    most of a change in host load cancels."""
    raw = []                    # (input, wall s, cpu s)
    references = []
    start = time.perf_counter()
    passes, pass_s = 0, 0.0
    while passes == 0 or time.perf_counter() - start + pass_s / 2 <= seconds:
        pass_start = time.perf_counter()
        for op in ops:
            out, wall, cpu = run_op(op)
            references.append(timed_reference())
            if checker.attempted == corrupt_op:
                out = corrupt(out)
            checker.record(op, out)
            raw.append((op.key, wall, cpu))
        passes += 1
        pass_s = time.perf_counter() - pass_start
    correct = checker.attempted - checker.failed
    kept = sorted(references)[:len(references) - int(REFERENCE_TRIM * len(references))]
    scale = REFERENCE_MS * 1e-3 / statistics.mean(kept)
    scaled = [(key, wall * scale, cpu * scale) for key, wall, cpu in raw]

    def metrics(samples):
        tail_s, beyond = tail([wall for _, wall, _ in samples])
        return {"ops_per_s": correct / sum(wall for _, wall, _ in samples),
                "op_p50_ms": per_input_median([(k, wall) for k, wall, _ in samples]) * 1e3,
                "op_tail_ms": tail_s * 1e3, "op_tail_beyond": beyond,
                "op_cpu_ms": per_input_median([(k, cpu) for k, _, cpu in samples]) * 1e3}

    return {**metrics(scaled), "raw": metrics(raw), "samples": len(raw), "passes": passes,
            "reference_ms": [ref * 1e3 for ref in references],
            "reference_mean_ms": statistics.mean(kept) * 1e3,
            "walls_ms": [(key, wall * 1e3) for key, wall, _ in raw]}


def corrupt(out):
    """A design op's output with a digit put in front of its footer L1 value,
    for the self-test."""
    report, text = out
    return report, text.replace("\nl1_h=", "\nl1_h=9", 1)


def traced_run(workload: str, seed: int, ops: list, checker: Checker):
    from layertrace import LAYERS, Tracer
    untraced = []
    for op in ops:
        out, wall, _ = run_op(op)
        checker.record(op, out)
        untraced.append(wall)
    tracer = Tracer()
    outputs, traced = [], []
    tracer.install()
    try:
        for j, op in enumerate(ops):
            tracer.op_id = j
            out, wall, _ = run_op(op)
            outputs.append(out)
            traced.append(wall)
    finally:
        tracer.uninstall()
    for op, out in zip(ops, outputs):
        checker.record(op, out)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"spans-{workload}")
    overhead = sum(untraced) / sum(traced)
    return tracer, {name: layer_value(tracer, name, len(ops), overhead)
                    for name, _ in PER_LAYER}, LAYERS, sum(traced)


def layer_value(tracer, name: str, ops: int, overhead: float) -> float:
    layer, _, rest = name.partition(".")
    if name == "trace.ops":
        return ops
    if name == "trace.overhead_ratio":
        return overhead
    if name == "imn.kept_ratio":
        tried = tracer.counters.get("imn.variants_tried", 0)
        return tracer.counters.get("imn.variants_kept", 0) / tried if tried else 0.0
    if rest == "self_ms":
        return tracer.layer_self_ms()[layer]
    if name.endswith(".self_ms"):
        return tracer.self_ns.get(name[:-len(".self_ms")], 0) / 1e6
    if name.endswith(".calls"):
        return tracer.calls.get(name[:-len(".calls")], 0)
    return tracer.counters.get(name, 0)


def print_layer_table(tracer, layers, traced_s: float) -> None:
    print(f"{'layer / function':<40} {'calls':>10} {'self ms':>12} {'share':>7}")
    by_layer = tracer.layer_self_ms()
    for layer in layers:
        fns = sorted((name for name in tracer.calls if name.split(".", 1)[0] == layer),
                     key=lambda name: -tracer.self_ns[name])
        calls = sum(tracer.calls[name] for name in fns)
        share = by_layer[layer] / (traced_s * 1e3)
        print(f"{layer:<40} {calls:>10} {by_layer[layer]:>12.3f} {share:>7.1%}")
        for name in fns:
            print(f"  {name:<38} {tracer.calls[name]:>10} "
                  f"{tracer.self_ns[name] / 1e6:>12.3f}")


def report_line(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:<36} {value:>14.6g} {unit:<6} {note}".rstrip())


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 corrupt_op=None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    host = host_record()
    print("host " + json.dumps(host))
    checker = Checker()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as tmp:
        setups = []
        for _ in range(1 if trace else SETUP_REPS):
            start = time.perf_counter()
            import_s = import_seconds()
            ops = set_up(workload, seed, Path(tmp))
            setups.append(import_s + time.perf_counter() - start)
        print(f"workload {workload} seed {seed}: {len(ops)} ops in rotation, "
              f"closed loop, 1 client")
        if trace:
            tracer, metrics, layers, traced_s = traced_run(workload, seed, ops, checker)
            print_layer_table(tracer, layers, traced_s)
            units = dict(PER_LAYER)
        else:
            timed = timed_run(ops, seconds, checker, corrupt_op)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {"setup_s": statistics.median(setups), "ops_per_s": timed["ops_per_s"],
                       "op_p50_ms": timed["op_p50_ms"], "op_tail_ms": timed["op_tail_ms"],
                       "op_cpu_ms": timed["op_cpu_ms"], "peak_rss_mb": rss_mb}
            units = dict(END_TO_END)
    for name, value in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = f"(p90 of {timed['samples']} ops, {timed['op_tail_beyond']} beyond)"
        elif name == "setup_s":
            note = f"(median of {len(setups)})"
        report_line(name, value, units[name], note)
    report_line("failed_ratio", checker.failed / checker.attempted, "ratio",
                f"({checker.failed} of {checker.attempted} ops)")
    if not trace:
        references = timed["reference_ms"]
        print(f"unscaled times; the reference kernel's mean was {timed['reference_mean_ms']:.4g}"
              f" ms over the fastest {1 - REFERENCE_TRIM:.0%} of {len(references)} runs, "
              f"REFERENCE_MS is {REFERENCE_MS:g} ms:")
        for name in ("ops_per_s", "op_p50_ms", "op_tail_ms", "op_cpu_ms"):
            report_line(f"  raw {name}", timed["raw"][name], units[name])
    for problem in checker.problems[:5]:
        print(f"FAILED {problem}")
    host["loadavg_end"] = os.getloadavg()
    print("host " + json.dumps({"loadavg_end": host["loadavg_end"]}))
    result = {"correct": checker.failed == 0, "attempted": checker.attempted,
              "failed": checker.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"run-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"host": host, **result, "timed": None if trace else timed}) + "\n")
    return result


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in its own process."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"== {workload} trace={trace}", flush=True)
            proc = subprocess.run([sys.executable, __file__, "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(seconds),
                                   "--trace", str(trace)], timeout=900)
            status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wptkit" / "__init__.py").is_file():
        print(f"error: no wptkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    sys.path.insert(0, str(SRC))
    import wptkit
    if Path(wptkit.__file__).resolve().parent != SRC / "wptkit":
        print(f"error: imported wptkit from {wptkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
