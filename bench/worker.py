"""One fresh interpreter of the boxgap benchmark: set up, then measure.

Started by ``bench/run.py``; the protocol on stdout is one line ``ready``
once ``boxgap`` is imported and a warm-up call has returned, then (unless
``--setup-only``) one JSON line with the measurements.

The timed pass runs a fixed number of whole rounds of the workload, as
many as take ``--seconds`` on the machine the benchmark was tuned on, so a
seed always makes the same operations whatever the program's speed.  It
checks nothing while timing and records each call's latency.  The timing
metrics are medians over the rounds, so a few seconds in which a shared
host runs slower or faster move them little.  With ``--trace 1`` the seed's
first round is then replayed under the span recorder; the per-layer
metrics come from that replay, and the ratio of its busy time to that of
the same operations untraced is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from checks import check_results
from spans import Recorder, layer_metrics
from workloads import ROUND_SECONDS, execute, rounds, warmup_op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / "bench" / "out"
# the timed pass stops early past this, so that a very slow program still
# ends within the time a run is given
DEADLINE_S = 120.0


def import_program() -> None:
    """Import boxgap from this checkout's source tree, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import boxgap
    import boxgap.cli  # noqa: F401  (the CLI is not imported by the package)

    found = Path(boxgap.__file__).resolve().parent
    if found != (SRC / "boxgap").resolve():
        raise ImportError(f"boxgap imported from {found}, not from {SRC}")


def timed_pass(workload: str, seed: int, seconds: float, tiny: bool):
    """Results of each round run, as one list per round."""
    count = max(1, round(seconds / ROUND_SECONDS[workload]))
    done = []
    start = time.perf_counter()
    for ops in rounds(workload, seed, tiny):
        done.append([execute(op) for op in ops])
        if len(done) == count or time.perf_counter() - start >= DEADLINE_S:
            return done


def traced_replay(results, workload: str, seed: int, tiny: bool):
    """Replay the seed's first round, which the timed pass always ran."""
    ops = next(rounds(workload, seed, tiny))
    recorder = Recorder()
    replay = []
    with recorder:
        for i, op in enumerate(ops):
            recorder.request = i
            replay.append(execute(op))
    SPANS_DIR.mkdir(exist_ok=True)
    recorder.write_jsonl(SPANS_DIR / f"spans_{workload}.jsonl")
    metrics = layer_metrics(recorder.spans)
    metrics["trace.overhead_frac"] = (sum(r.seconds for r in replay)
                                      / sum(r.seconds for r in results[:len(ops)])
                                      - 1.0)
    metrics["bench.ops"] = len(replay)
    return replay, metrics


def end_to_end(done) -> dict[str, float]:
    """Timing metrics as medians over the rounds, one value per round."""
    busy = [sum(r.seconds for r in results) for results in done]

    def rate(work) -> float:
        return statistics.median(sum(work(r) for r in results) / seconds
                                 for results, seconds in zip(done, busy))

    return {
        "vectors_per_s": rate(lambda r: r.op.vectors),
        "points_per_s": rate(lambda r: r.op.points),
        # the mean time per operation of a round
        "latency_p50_s": statistics.median(seconds / len(results) for
                                           results, seconds in zip(done, busy)),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import_program()
    warm = execute(warmup_op(args.workload))
    if warm.exit != 0:
        print(f"warm-up call failed: {warm.stderr}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if args.setup_only:
        return 0

    done = timed_pass(args.workload, args.seed, args.seconds, args.tiny)
    results = [r for round_results in done for r in round_results]
    out = {"metrics": end_to_end(done)}
    out["latencies"] = [r.seconds for r in results]

    failures = check_results(results)
    if args.trace:
        replay, out["metrics"] = traced_replay(results, args.workload,
                                               args.seed, args.tiny)
        for i, (a, b) in enumerate(zip(results, replay)):
            if a.op != b.op or a.stdout != b.stdout:
                failures.setdefault(i, "tracing changed the output")
    # a call that exits non-zero gives no answer: it counts as failed, but
    # only an answer that fails its check makes the run incorrect
    out["correct"] = all(results[i].exit != 0 for i in failures)
    out["attempted"] = len(results)
    out["failed"] = len(failures)
    out["failures"] = [f"{' '.join(results[i].op.argv)[:60]}: {msg}"
                       for i, msg in sorted(failures.items())][:5]
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
