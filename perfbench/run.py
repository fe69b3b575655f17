"""pogame benchmark: one closed-loop client driving the real entry points.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json:
set-up time (median over SETUP_RUNS fresh interpreters), throughput, median
and tail op latency, and peak resident memory of the workload process, all
as measured in wall-clock time.  With ``--trace 1`` it runs each block of
ops untraced and then again with a span around every call into each pogame
layer, and reports the per-layer calls and self times plus the tracing
overhead.  Every op's output is checked; the
last line printed is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, and every metric is also printed above it by name
with its unit, after the run's provenance.

The workload runs in a child process with OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS set to 1: with the default pool, the first dense matmul
sometimes stalls for most of a second, which would measure the scheduler
rather than the program.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 3
TAIL_SAMPLES_BEYOND = 10
# Everything, set-up included, must end well inside three minutes.
RUN_TIMEOUT_S = 170.0
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


def launch(workload: str, seed: int, seconds: int, mode: str, deadline: float) -> tuple[float, dict | None]:
    """Start a fresh worker; return its set-up time and, unless MODE is ``setup``, its result."""
    cmd = [sys.executable, str(WORKER), workload, str(seed), str(seconds), mode]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE, text=True)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=max(0.0, deadline - time.monotonic())):
                raise TimeoutError(f"{workload} set-up did not finish in time")
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if line.strip() != "ready":
            proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            raise RuntimeError(f"{workload} worker failed during set-up (exit status {proc.returncode})")
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} worker exited with status {proc.returncode}")
        return setup_s, (json.loads(out.strip().splitlines()[-1]) if mode != "setup" else None)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def latency_figures(loop: dict) -> dict:
    """Median and tail latency; a failed op counts as slower than any limit.

    The tail is the highest percentile (nearest rank) that still has
    TAIL_SAMPLES_BEYOND samples above it.  A failed op is given the whole
    run's wall time as its latency.
    """
    missing = loop["elapsed_s"] * 1e3
    samples = sorted(missing if v is None else v for v in loop["latencies_ms"])
    rank = max(0, len(samples) - TAIL_SAMPLES_BEYOND - 1)
    return {
        "p50_ms": statistics.median(samples),
        "tail_ms": samples[rank],
        "tail_percentile": 100.0 * (rank + 1) / len(samples),
        "samples": len(samples),
    }


def ops_per_s(loop: dict) -> float:
    ok = sum(1 for v in loop["latencies_ms"] if v is not None)
    return ok / loop["elapsed_s"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "pogame" / "__init__.py").is_file():
        print(f"error: no pogame sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 1

    deadline = time.monotonic() + RUN_TIMEOUT_S
    mode = "trace" if args.trace else "measure"
    setups = [launch(args.workload, args.seed, args.seconds, "setup", deadline)[0]
              for _ in range(SETUP_RUNS - 1)] if not args.trace else []
    setup_s, result = launch(args.workload, args.seed, args.seconds, mode, deadline)
    setups.append(setup_s)

    loops = [result["untraced"]] + ([result["traced"]] if args.trace else [])
    attempted = sum(len(loop["latencies_ms"]) for loop in loops)
    failures = [f for loop in loops for f in loop["failures"]]
    untraced = result["untraced"]
    lat = latency_figures(untraced)

    prov = dict(result["provenance"], workload=args.workload, seconds=args.seconds,
                trace=args.trace, ops_by_size=untraced["ops_by_size"], blocks=untraced["blocks"],
                op_tail_percentile=round(lat["tail_percentile"], 2), latency_samples=lat["samples"],
                fail_rate=len(failures) / attempted)
    if args.trace:
        traced_rate = ops_per_s(result["traced"])
        metrics = {name: (value, _layer_unit(name)) for name, value in result["layers"].items()}
        metrics["tracing.ops_per_s_gap"] = (1.0 - traced_rate / ops_per_s(untraced), "ratio")
        prov.update(traced_ops_by_size=result["traced"]["ops_by_size"], spans_file=result["spans_file"])
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (ops_per_s(untraced), "1/s"),
            "op_p50_ms": (lat["p50_ms"], "ms"),
            "op_tail_ms": (lat["tail_ms"], "ms"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        prov["setup_runs_s"] = setups

    for key, value in prov.items():
        print(f"# {key}: {value}")
    for reason in failures[:10]:
        print(f"# FAILED op: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith(".self_ms"):
        return "ms"
    return "ratio" if name.endswith("_ratio") else "count"


if __name__ == "__main__":
    sys.exit(main())
