"""Benchmark for boxgap: closed-loop CLI workloads, end to end and per layer.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  One client calls ``boxgap.cli.main(argv)``
in-process and waits for each call before the next (a closed loop).  The
run first checks known answers, then starts fresh interpreters to time
set-up, measures whole rounds of the workload in the last of them, and
checks every output afterwards.  A summary goes to stderr; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of BENCHMARK.json, or its per-layer
metrics with ``--trace 1``).  ``--workload all`` runs every workload and
prints one such line each, tagged with ``workload``.  See bench/README.md.
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

import worker
from checks import known_answers
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5       # fresh interpreters per run; setup_s is their median
WORKER_TIMEOUT_S = 170
# one client, one thread: BLAS threads would compete with other processes
# on a small machine and make timings depend on its load.  A fixed hash seed
# gives every interpreter the same str hashes, so the layout of dicts and
# sets does not make one interpreter faster than another.
WORKER_ENV = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    pass


def _start_worker(args: argparse.Namespace, name: str, setup_only: bool):
    """Start a worker; return (seconds until it was ready, its final output)."""
    cmd = [sys.executable, str(Path(worker.__file__)), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    cmd += ["--tiny"] * args.tiny + ["--setup-only"] * setup_only
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=WORKER_ENV, cwd=ROOT)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{name} worker failed (exit {proc.returncode})")
    return setup, rest


def run_workload(args: argparse.Namespace, name: str, spec: dict) -> dict:
    setups = [_start_worker(args, name, setup_only=True)[0]
              for _ in range(SETUP_SAMPLES - 1)]
    setup, rest = _start_worker(args, name, setup_only=False)
    setups.append(setup)
    out = json.loads(rest.strip().splitlines()[-1])
    values = dict(out["metrics"], setup_s=statistics.median(setups))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    lat = out["latencies"]
    print(f"[{name}] seed {args.seed}: {out['attempted']} operations, "
          f"{out['failed']} failed (failed_frac "
          f"{out['failed'] / out['attempted']:.3g})", file=sys.stderr)
    for msg in out["failures"]:
        print(f"[{name}]   failure: {msg}", file=sys.stderr)
    for key, m in metrics.items():
        print(f"[{name}]   {key} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    if not args.trace and len(lat) >= 100:
        p90 = statistics.quantiles(lat, n=10)[-1]
        print(f"[{name}]   latency_p90_s = {p90:.6g} s ({len(lat)} calls)",
              file=sys.stderr)
    return {"correct": out["correct"], "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="boxgap benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest inputs, for the smoke test")
    args = p.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        worker.import_program()
    except (OSError, ValueError, ImportError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    failures = known_answers()
    for msg in failures:
        print(msg, file=sys.stderr)
    if failures:
        return 1

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            result = run_workload(args, name, spec)
            if args.workload == "all":
                result = {"workload": name, **result}
            print(json.dumps(result), flush=True)
    except (BenchError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
