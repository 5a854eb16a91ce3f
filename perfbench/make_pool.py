"""Rebuild perfbench/pool.json, the committed input pool and its reference.

    python3 perfbench/make_pool.py [workload ...]   # default: every workload

Draws specs for each workload from a fixed seed, runs each once, keeps
the feasible ones together with their footer (the reference the
benchmark checks every op against) and the op's cost in ms: the median
of five timings taken in interleaved passes over the pool, so that a
slow spell of a shared machine does not sort an entry into the wrong
stratum.  The cost only sorts the pool into strata and picks the
warm-up input.  Rebuild the pool only when the workload definition
changes: a new pool is a new benchmark baseline.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from wptkit import pipeline  # noqa: E402
from wptkit.errors import InfeasibleDesignError  # noqa: E402

TIMINGS = 5
# workload: (draw function, pool size, pool seed)
POOLS = {
    "design-small": (workloads.draw_small, 128, 1001),
    "sweep": (workloads.draw_link, 6, 1003),
}


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return (time.perf_counter() - start) * 1e3


def build(name: str) -> dict:
    draw, size, seed = POOLS[name]
    rng = random.Random(seed)
    entries, rejected = [], 0
    while len(entries) < size:
        spec = draw(rng, len(entries))
        try:
            report = pipeline.run_design(pipeline.spec_from_dict(spec))
        except InfeasibleDesignError:
            rejected += 1
            continue
        stratum = spec["tissue"]["sections_per_layer"] if name == "sweep" else 0
        entry = {"spec": spec, "footer": report.footer(), "stratum": stratum, "cost_ms": 0.0}
        if workloads.design_problems(report, report.text(), entry["footer"]):
            rejected += 1
            continue
        entries.append(entry)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-pool-") as tmp:
        if name == "sweep":
            ops = [workloads.sweep_ops(entries, [i], Path(tmp), random.Random(i))
                   for i in range(len(entries))]
        else:
            ops = [workloads.design_ops(entries, [i]) for i in range(len(entries))]
        costs = [[sum(_timed(op.run) for op in entry_ops) for entry_ops in ops]
                 for _ in range(TIMINGS)]
    for entry, timings in zip(entries, zip(*costs)):
        entry["cost_ms"] = round(statistics.median(timings), 1)
    print(f"{name}: {size} specs, {rejected} draws rejected", file=sys.stderr)
    return {"seed": seed, "rejected": rejected, "entries": entries}


def main() -> None:
    names = sys.argv[1:] or list(POOLS)
    pool = json.loads(workloads.POOL_FILE.read_text()) if workloads.POOL_FILE.exists() else {}
    pool.update({name: build(name) for name in names})
    workloads.POOL_FILE.write_text(json.dumps(pool, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
