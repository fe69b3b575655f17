"""Workload process: set up, warm up, then run the timed closed loop.

Started by ``run.py`` as ``worker.py WORKLOAD SEED SECONDS MODE`` with
BLAS/OpenMP pinned to one thread.  It prints ``ready`` once pogame is
imported, the inputs are generated and one untimed warm-up op per problem
size has passed its check; ``run.py`` times set-up up to that line.  MODE
``setup`` stops there.  MODE ``measure`` then runs the closed loop untraced;
MODE ``trace`` runs each block untraced and then again with spans installed.
The last line printed is one JSON object with the raw measurements.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import pogame  # noqa: E402
import pogame.cli  # noqa: E402,F401  (the package does not import its CLI)

from tracing import Tracer  # noqa: E402
from workloads import make_workload  # noqa: E402

# Every timed loop runs at least this many whole blocks (24 ops), so the
# tail percentile always has ten samples beyond it, the median of a run
# whose ops take seconds still rests on enough samples, and the traced
# counts always cover the same ops.
MIN_BLOCKS = 8
SPANS_DIR = Path(__file__).resolve().parent / "out"


def _new_loop() -> dict:
    return {"elapsed_s": 0.0, "latencies_ms": [], "failures": [], "ops_by_size": Counter(), "blocks": 0}


def _run_block(workload, block, loop: dict, tracer: Tracer | None = None) -> None:
    """Run one block's ops in order, each checked before the next starts.

    Latency covers the program call only; a failed op gets no latency sample.
    The loop's elapsed time covers the calls and their checks.
    """
    for op in block:
        if tracer is not None:
            tracer.op_id = len(loop["latencies_ms"])
        loop["ops_by_size"][str(op.n)] += 1
        t0 = perf_counter_ns()
        try:
            result = workload.run(op)
            t1 = perf_counter_ns()
            reason = workload.check(op, result)
        except Exception as exc:  # any raise is a failed op, and the run goes on
            reason = f"{type(exc).__name__}: {exc}"
        loop["elapsed_s"] += (perf_counter_ns() - t0) / 1e9
        loop["latencies_ms"].append((t1 - t0) / 1e6 if reason is None else None)
        if reason is not None:
            loop["failures"].append(f"n={op.n}: {reason}")
    loop["blocks"] += 1


def timed_loop(workload, blocks, seconds: float, tracer: Tracer | None = None) -> tuple[dict, dict | None]:
    """Closed loop with one client, over whole blocks.

    Runs until ``seconds`` have passed and at least ``MIN_BLOCKS`` blocks are
    done.  With a tracer, each block runs untraced and then again traced, so
    the tracing overhead compares the same inputs at the same moment.
    """
    untraced = _new_loop()
    traced = _new_loop() if tracer is not None else None
    deadline = perf_counter() + seconds
    done = 0
    while done < MIN_BLOCKS or perf_counter() < deadline:
        block = blocks[done % len(blocks)]
        _run_block(workload, block, untraced)
        if tracer is not None:
            tracer.install(pogame)
            try:
                _run_block(workload, block, traced, tracer)
            finally:
                tracer.uninstall()
        done += 1
    return untraced, traced


def _blas_runtime_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def provenance(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pogame": pogame.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "blas_threads": _blas_runtime_threads(),
    }


def main(argv: list[str]) -> int:
    name, seed, seconds, mode = argv[1], int(argv[2]), float(argv[3]), argv[4]
    proto = sys.stdout  # ops redirect sys.stdout; results go to the real one
    workload = make_workload(name, pogame)
    blocks = workload.make_blocks(np.random.default_rng(seed))
    for n in workload.sizes:
        op = workload.warmup_op(n)
        reason = workload.check(op, workload.run(op))
        if reason is not None:
            print(f"warm-up op failed at n={n}: {reason}", file=sys.stderr)
            return 1
    print("ready", file=proto, flush=True)
    if mode == "setup":
        return 0

    tracer = Tracer() if mode == "trace" else None
    untraced, traced = timed_loop(workload, blocks, seconds, tracer)
    out = {
        "untraced": untraced,
        # Reported for untraced runs only: span records grow the heap.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": provenance(seed),
    }
    if tracer is not None:
        count_ops = list(range(MIN_BLOCKS * len(blocks[0])))
        out["traced"] = traced
        out["layers"] = tracer.layer_metrics(count_ops, list(range(len(traced["latencies_ms"]))))
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{name}-seed{seed}.jsonl"
        tracer.write_spans(spans_path)
        out["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(out), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
