"""Smoke test of the benchmark itself.

    python3 -m pytest bench/test_smoke.py -q

Runs every workload at its tiny size, checks that each metric of
BENCHMARK.json is printed with its unit, that a run's operations and the
per-layer counts do not depend on the program's speed, that tracing leaves
every output byte-identical, and that the benchmark refuses to run without
the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402
from spans import END, PARENT, SELF, START, Recorder  # noqa: E402
from workloads import ROUND_SECONDS, WORKLOADS, execute, rounds  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "0",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}


def test_layer_counts_do_not_depend_on_run_length():
    counts = []
    for seconds in ("0", "2"):
        proc = _bench("--workload", "certify", "--seed", "1", "--seconds",
                      seconds, "--trace", "1", "--tiny")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]


def test_round_count_depends_on_seconds_only():
    worker.import_program()
    # tiny rounds take far less than ROUND_SECONDS; the count follows
    # --seconds all the same
    done = worker.timed_pass("certify", 1, 3 * ROUND_SECONDS["certify"], True)
    assert [[r.op for r in results] for results in done] == \
        list(islice(rounds("certify", 1, tiny=True), 3))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_outputs_byte_identical(workload):
    worker.import_program()
    import boxgap.cli

    main = boxgap.cli.main
    ops = next(rounds(workload, seed=7, tiny=True))
    plain = [execute(op).stdout for op in ops]
    with Recorder() as recorder:
        traced = [execute(op).stdout for op in ops]
    assert boxgap.cli.main is main
    assert traced == plain
    spans = recorder.spans
    assert spans
    # self time partitions the root spans' time
    assert all(0 <= s[SELF] <= s[END] - s[START] for s in spans)
    roots = sum(s[END] - s[START] for s in spans if s[PARENT] is None)
    assert sum(s[SELF] for s in spans) == roots


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "certify", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
