"""Seeded operation mixes for the boxgap benchmark.

Each workload is an endless sequence of rounds.  A round is a fixed mix of
operations whose inputs are drawn from the workload seed, so rounds differ
only in their inputs and one round's time can be compared with another's.
An operation is either one CLI call, ``boxgap.cli.main(argv)``, or
(``profile`` only) a library sweep of ``saddle_density`` over part of a
grid; the program sees nothing but its arguments.

Why these workloads (the layer each one runs, and the one it skips):

* certify - ``boxgap gap`` on one random vector, n in 4..12, c0 in {2, 4}:
  the interactive check.  F(s) quadrature (``khinchine_bounds``) dominates;
  the density and E take under a millisecond.
* scan    - ``boxgap scan --trials 1`` at n = 16, 18 and 20: every trial
  builds a fresh truncated-power table for three points.  F runs once per
  call.
* wide    - ``boxgap scan --trials 1`` at n = 25 and at n = 26: ``auto``
  picks convolution and the exact E enumerates 2^(n-1) sign sums, which
  also sets peak memory.
* profile - dense ``boxgap eval --grid`` with each method at n in {8, 12},
  a ``saddle_density`` sweep over the interior of the same grids, and
  ``boxgap converge``: one density table reused across thousands of
  points.  The only workload that runs the saddle-point solver.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
import traceback
from dataclasses import dataclass, field
from typing import Iterator

WORKLOADS = ("certify", "scan", "wide", "profile")
METHODS = ("truncated_power", "convolution", "fourier")
PROFILE_POINTS = 4001   # grid points per dense eval
SADDLE_CHUNKS = 10      # a saddle sweep takes every 10th interior grid point
# time of one round on the 2-core virtual machine the benchmark was tuned on;
# a run of --seconds S makes S / ROUND_SECONDS rounds, whatever their speed
ROUND_SECONDS = {"certify": 2.0, "scan": 3.2, "wide": 2.3, "profile": 10.0}


@dataclass(frozen=True)
class Op:
    """One benchmark operation and the work it stands for."""

    kind: str               # operations of one kind differ only in the seed
    argv: tuple[str, ...]   # CLI arguments; ("saddle",) for a saddle sweep
    vectors: int            # weight vectors handled; 0 for a saddle sweep,
                            # which covers part of an eval's vector and grid
    points: int             # density points evaluated
    weights: tuple[float, ...] = ()   # saddle sweep only
    xs: tuple[float, ...] = field(default=(), repr=False)


@dataclass
class Result:
    op: Op
    exit: int | None        # None when the call raised
    seconds: float
    stdout: str
    stderr: str


def _unit_total(raw: list[float]) -> float:
    """Sum of the weights after unit normalization: B(.|A) lives on [0, total]."""
    return sum(raw) / math.sqrt(sum(w * w for w in raw))


def _certify_round(rng: random.Random, tiny: bool) -> list[Op]:
    sizes = (3, 4) if tiny else range(4, 13)
    caps = (2,) if tiny else (2, 4)
    return [Op(f"gap n={n} c0={c0}",
               ("gap", "--random", f"{n},{c0},{rng.randrange(2**31)}"), 1, 3)
            for n in sizes for c0 in caps]


def _scan_round(rng: random.Random, plan) -> list[Op]:
    # the final report of every scan re-evaluates the best vector: 3 points
    return [Op(f"scan n={n}",
               ("scan", "--n", str(n), "--c0", "4", "--trials", str(trials),
                "--seed", str(rng.randrange(2**31))), trials, 3 * (trials + 1))
            for n, trials in plan]


def _profile_vectors(rng: random.Random, tiny: bool):
    """(raw weights, grid step, grid points) per vector of a profile round."""
    points = 101 if tiny else PROFILE_POINTS
    for n in ((4,) if tiny else (8, 12)):
        raw = sorted(rng.uniform(1.0, 4.0) for _ in range(n))
        yield raw, _unit_total(raw) / (points - 1), points


def _profile_round(rng: random.Random, tiny: bool) -> list[Op]:
    ops = []
    for raw, step, points in _profile_vectors(rng, tiny):
        weights = ",".join(repr(w) for w in raw)
        grid = f"0:{(points - 1) * step!r}:{step!r}"
        ops += [Op(f"eval n={len(raw)} {method}",
                   ("eval", "--weights", weights, "--grid", grid,
                    "--method", method), 1, points)
                for method in METHODS]
        ops += _saddle_sweeps(raw, step, points)
    family = "4,8" if tiny else "8,16,32"
    ops.append(Op("converge", ("converge", "--family", "equal", "--n", family),
                  family.count(",") + 1, 121 * (family.count(",") + 1)))
    return ops


def _saddle_sweeps(raw: list[float], step: float, points: int) -> list[Op]:
    # every grid point but the ends (where no saddle point exists), dealt out
    # to SADDLE_CHUNKS sweeps of equal cost; each starts at the center, a
    # known answer
    center = 0.5 * _unit_total(raw)
    ops = []
    for k in range(SADDLE_CHUNKS):
        xs = (center,) + tuple(i * step for i in
                               range(1 + k, points - 1, SADDLE_CHUNKS))
        ops.append(Op(f"saddle n={len(raw)}", ("saddle",), 0, len(xs),
                      tuple(raw), xs))
    return ops


def rounds(workload: str, seed: int, tiny: bool = False) -> Iterator[list[Op]]:
    """Endless rounds of operations, determined by (workload, seed, tiny)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    while True:
        if workload == "certify":
            yield _certify_round(rng, tiny)
        elif workload == "scan":
            yield _scan_round(rng, [(6, 1)] if tiny else
                              [(16, 1), (18, 1), (20, 1)])
        elif workload == "wide":
            # n = 26 sets peak memory
            yield _scan_round(rng, [(7, 1)] if tiny else [(25, 1), (26, 1)])
        else:
            yield _profile_round(rng, tiny)


def warmup_op(workload: str) -> Op:
    """A small operation of the workload's own kind, run during set-up."""
    return next(rounds(workload, seed=0, tiny=True))[0]


def _saddle_sweep(op: Op) -> int:
    import boxgap.saddlepoint as saddlepoint
    from boxgap.weights import make_unit

    A = make_unit(op.weights)
    values = [saddlepoint.saddle_density(A, x) for x in op.xs]
    print(json.dumps(values))
    return 0


def execute(op: Op) -> Result:
    """Run one operation in-process, capturing its output and exit code."""
    import boxgap.cli

    out, err = io.StringIO(), io.StringIO()
    code: int | None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if op.argv[0] == "saddle":
                code = _saddle_sweep(op)
            else:
                code = boxgap.cli.main(list(op.argv))
        except SystemExit as exc:   # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return Result(op, code, elapsed, out.getvalue(), err.getvalue())
