"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names what run.py prints, smoke-runs every
workload on a small seed, that a deliberately corrupted output is
counted as failed, that two traced runs give identical per-layer counts,
and that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def smoke(workload: str, trace: int) -> None:
    proc = cli("--workload", workload, "--seed", str(SEED), "--seconds", "1",
               "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == RESULT_KEYS, result
    assert result["correct"] and result["failed"] == 0, proc.stdout
    names = run.PER_LAYER if trace else run.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(names)
    print(f"ok  smoke {workload} trace={trace}: {result['attempted']} ops")


def corrupted_output_counts_as_failed() -> None:
    result = run.run_workload("design-small", SEED, 1.0, False, corrupt_op=0)
    assert result["failed"] == 1 and not result["correct"], result
    print(f"ok  corrupted output counted: {result['failed']} of {result['attempted']}")


def traced_counts_repeat(workload: str) -> None:
    counts = [{name: metric["value"]
               for name, metric in run.run_workload(workload, SEED, 0, True)["metrics"].items()
               if metric["unit"] == "count"} for _ in range(2)]
    assert counts[0] == counts[1], counts
    assert counts[0]["netcore.matrices_built"] > 0
    print(f"ok  traced counts repeat on {workload}")


def refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "sweep",
                               "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and "correct" not in proc.stdout, proc.stdout
    print("ok  refuses to run without src/")


def main() -> None:
    check_benchmark_json()
    print("ok  BENCHMARK.json matches run.py")
    for workload in run.WORKLOADS:
        smoke(workload, 0)
    smoke("sweep", 1)
    corrupted_output_counts_as_failed()
    for workload in ("design-small", "sweep"):
        traced_counts_repeat(workload)
    refuses_without_sources()


if __name__ == "__main__":
    main()
