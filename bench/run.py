#!/usr/bin/env python3
"""Benchmark of rissim: one workload per run, end to end or traced per layer.

    python3 bench/run.py --workload reproduce|pattern_steer|link_sweep \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every workload process starts fresh with
one BLAS/OpenMP thread and the checkout's ``src`` on the path. With
``--trace 0`` it reports set-up time (median of several fresh starts),
throughput, median op time and peak memory; with ``--trace 1`` one traced
process reports the per-layer figures. The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("reproduce", "pattern_steer", "link_sweep")
SETUP_STARTS = 5
WORKER_TIMEOUT_S = 150.0
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"calls": "count", "self_ms": "ms", "directions": "count",
                   "directions_per_ms": "1/ms", "peak_mb": "MB", "codebooks_per_call": "count",
                   "evals_per_call": "count", "import_ms": "ms"}


def worker_env() -> dict[str, str]:
    """One BLAS/OpenMP thread, set before numpy is imported, and the checkout's src."""
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("RISSIM_OUT", None)
    return env


class WorkerError(RuntimeError):
    pass


def start_worker(args: argparse.Namespace, setup_only: bool) -> tuple[float, str]:
    """Start a fresh worker; return its set-up wall time and its final stdout line."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"{args.workload} worker failed (exit {proc.returncode})")
    lines = rest.strip().splitlines()
    return setup_s, lines[-1] if lines else ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "rissim" / "__init__.py").is_file():
        print(f"bench: no rissim sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    try:
        if args.trace:
            _, line = start_worker(args, setup_only=False)
            result = json.loads(line)
            metrics = {name: {"value": value, "unit": PER_LAYER_UNITS[name.rsplit(".", 1)[1]]}
                       for name, value in result["per_layer"].items()}
            for name in result["absent"]:
                print(f"absent: {name} is not a function of rissim; its figures read 0")
            print(f"traced op_p50_ms: {result['op_p50_ms']:.3f} (tracing overhead; end-to-end "
                  "figures come from untraced runs)")
        else:
            setups = [start_worker(args, setup_only=True)[0] for _ in range(SETUP_STARTS - 1)]
            setup_s, line = start_worker(args, setup_only=False)
            result = json.loads(line)
            result["setup_s"] = statistics.median([*setups, setup_s])
            metrics = {name: {"value": result[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
    except (WorkerError, json.JSONDecodeError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
