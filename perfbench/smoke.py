"""Smoke check of the benchmark itself.

Runs every workload briefly, untraced and traced, at one seed, and asserts
that the last line is the result object, that every metric BENCHMARK.json
names is reported with its unit, and that no op failed.  It also runs one
traced workload twice and asserts that the per-layer counts repeat exactly.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
SECONDS = 1


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(result: dict, expected: list[dict], label: str) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{label}: result keys are {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        raise SystemExit(f"{label}: {result['failed']} of {result['attempted']} ops failed")
    metrics = result["metrics"]
    names = [m["name"] for m in expected]
    if list(metrics) != names:
        raise SystemExit(f"{label}: metrics {sorted(set(metrics) ^ set(names))} differ from BENCHMARK.json")
    for m in expected:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            raise SystemExit(f"{label}: bad metric {m['name']}: {got}")
        if "bound" in m and got["value"] <= 0:
            raise SystemExit(f"{label}: end-to-end metric {m['name']} is not positive: {got}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = {}
    for w in spec["workloads"]:
        name = w["name"]
        check(run(name, 0), spec["end_to_end"], f"{name} untraced")
        traced[name] = run(name, 1)
        check(traced[name], spec["per_layer"], f"{name} traced")
        print(f"ok {name}")

    def counts(result):
        return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] != "ms"
                and not k.startswith("tracing.")}

    name = spec["workloads"][0]["name"]
    first, second = counts(traced[name]), counts(run(name, 1))
    if first != second:
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        raise SystemExit(f"traced counts differ between two runs at one seed: {diff}")
    print("ok traced counts repeat")
    return 0


if __name__ == "__main__":
    sys.exit(main())
