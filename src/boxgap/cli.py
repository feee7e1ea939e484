"""Command-line front end: report emission and the exit-code contract.

Exit codes: 0 success, 1 verified gap violation (the scientific payload —
re-checked with every density evaluator before being reported), 2 any error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import traceback

import numpy as np

from .boxspline import density_profile, phi
from .errors import BoxgapError, ValidationError
from .gap import (
    GapReport,
    confirm_counterexample,
    gap as gap_report,
    minimize_gap,
    scan_random,
    threshold_probe,
)
from .io import dumps_csv, dumps_json, write_text
from .rademacher import MC_SAMPLES, expectation, f_function
from .saddlepoint import convergence_report
from .weights import FamilySpec, WeightVector, center, generate, make_unit

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_ERROR = 2


# ---------------------------------------------------------------------------
# argument parsing helpers


def _arg(label: str, convert):
    """An argparse type: convert(text); a ValueError or None reads 'need label'."""
    def parse(text: str):
        try:
            if (value := convert(text)) is not None:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"need {label}, got {text!r}")
    return parse


def _fields(sep: str, *kinds):
    """len(kinds) values joined by sep; None for another count."""
    return lambda text: (tuple(k(t) for k, t in zip(kinds, text.split(sep)))
                         if text.count(sep) == len(kinds) - 1 else None)


def _int_range(text: str) -> list[int]:
    """'1..8' -> [1..8]; '8,16,32' -> [8, 16, 32]; '5' -> [5]."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",") if tok.strip()]


_FLOATS = _arg("numbers a,b,c", lambda t: [float(x) for x in t.split(",") if x.strip()])
# a violation tolerance: nan or inf would hide every gap
_TOL = _arg("a finite tolerance >= 0",
            lambda t: float(t) if 0.0 <= float(t) < math.inf else None)
_SEED = _arg("a non-negative integer", lambda t: int(t) if int(t) >= 0 else None)
_POINT = _arg("a number or 'center'", lambda t: t if t == "center" else float(t))
_N_RANGE = _arg("LO..HI or a list of integers", _int_range)


def _add_weight_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--weights", type=_FLOATS, metavar="a,b,c",
                   help="explicit weights (sorted and unit-normalized)")
    g.add_argument("--equal", type=int, metavar="N", help="equal weights")
    g.add_argument("--geometric", type=_arg("N,Q", _fields(",", int, float)),
                   metavar="N,Q", help="geometric weights q^0..q^(n-1)")
    g.add_argument("--random", metavar="N,C0,SEED",
                   type=_arg("N,C0,SEED", _fields(",", int, float, int)),
                   help="seeded random weights with ratio cap c0")


def _weights_from(args) -> WeightVector:
    if args.weights is not None:
        return make_unit(args.weights)
    if args.equal is not None:
        return generate(FamilySpec("equal", args.equal))
    if args.geometric is not None:
        n, q = args.geometric
        return generate(FamilySpec("geometric", n, q=q))
    n, c0, seed = args.random
    return generate(FamilySpec("random", n, c0=c0, seed=seed))


def _emit(args, payload, csv=None) -> None:
    """Write payload as canonical JSON, or the text csv() for --format csv:
    only the requested form is rendered."""
    if getattr(args, "format", "json") == "csv":
        if csv is None:
            raise BoxgapError("this command has no CSV form; use --format json")
        write_text(args.out, csv())
    else:
        write_text(args.out, dumps_json(payload))


# ---------------------------------------------------------------------------
# subcommands


def cmd_eval(args) -> int:
    A = _weights_from(args)
    if args.grid is not None:
        start, stop, step = args.grid
        if not (np.isfinite([start, stop]).all() and 0 < step < np.inf
                and start <= stop):
            raise ValidationError(
                f"bad grid {args.grid!r}: need finite START <= STOP and STEP > 0")
        grid = np.arange(start, stop + step / 2.0, step)
    else:
        grid = np.array([center(A) if args.at == "center" else args.at])
    prof = density_profile(A, grid, method=args.method)
    _emit(args, prof,
          lambda: dumps_csv(("x", "value", "method"), prof.to_csv_rows()))
    return EXIT_OK


def cmd_phi(args) -> int:
    A = _weights_from(args)
    r = 0.0 if args.r == "center" else args.r
    value = phi(A, r, method=args.method)
    _emit(args, {"A": A.to_json(), "r": r, "phi": value,
                 "method": args.method})
    return EXIT_OK


def cmd_expect(args) -> int:
    A = _weights_from(args)
    summary = expectation(A, args.method, args.samples, args.seed)
    _emit(args, summary)
    return EXIT_OK


def cmd_fbound(args) -> int:
    value, err = f_function(args.s, tol=args.tol)
    _emit(args, {"s": args.s, "f": value, "quad_error": err})
    return EXIT_OK


def cmd_gap(args) -> int:
    A = _weights_from(args)
    report = gap_report(A, phi_method=args.method, seed=args.seed)
    if not report.violates(args.tol):
        _emit(args, report)
        return EXIT_OK
    confirmed, reports = confirm_counterexample(A, args.tol)
    record = {
        "counterexample_candidate": True,
        "confirmed": confirmed,
        "reports": [r.to_json_dict() for r in reports],
    }
    _emit(args, record)
    return EXIT_VIOLATION if confirmed else EXIT_OK


def _exit_for(report: GapReport, tol: float) -> int:
    """EXIT_VIOLATION only for a violation that every evaluator confirms."""
    if report.violates(tol) and confirm_counterexample(report.A, tol)[0]:
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_scan(args) -> int:
    rows: list[tuple] = []
    summary = scan_random(args.n, args.c0, args.trials, args.seed,
                                 collect=rows.append)
    _emit(args, summary, lambda: dumps_csv(("trial", "gap", "ratio"), rows))
    return _exit_for(summary.min_report, args.tol)


def cmd_minimize(args) -> int:
    start = _weights_from(args)
    report, exhausted = minimize_gap(args.c0, start, budget=args.budget)
    _emit(args, {"report": report.to_json_dict(),
                 "budget_exhausted": exhausted})
    return _exit_for(report, args.tol)


def cmd_probe(args) -> int:
    report = threshold_probe(args.c0, args.family, args.n,
                             args.trials, args.seed, args.tol)
    _emit(args, report, lambda: dumps_csv(
        ("n", "min_gap", "min_slack", "slack_tol"),
        ((r.n, r.min_gap, r.min_slack, r.slack_tol) for r in report.rows)))
    return EXIT_OK


def cmd_converge(args) -> int:
    if args.family == "equal":
        specs = [FamilySpec("equal", n) for n in args.n]
    elif args.family == "geometric":
        specs = [FamilySpec("geometric", n, q=args.q) for n in args.n]
    else:
        raise BoxgapError(f"converge supports equal/geometric, not {args.family!r}")
    reports = convergence_report(specs, points=args.points)
    payload = [{"n": r.n, "sup_distance": r.sup_distance,
                "l2_distance": r.l2_distance,
                "method_pair": list(r.method_pair), "grid": r.grid}
               for r in reports]
    _emit(args, payload, lambda: dumps_csv(
        ("n", "sup_distance", "l2_distance", "pair"),
        ((r.n, r.sup_distance, r.l2_distance, "/".join(r.method_pair))
         for r in reports)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


@functools.cache  # built once per process; parse_args never mutates it
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="boxgap",
        description="Box-spline densities and the Mahler-gap inequality "
                    "phi_A(0) E|sum a_k e_k| >= 1.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, method_choices=None):
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if method_choices:
            p.add_argument("--method", choices=method_choices, default="auto")

    p = sub.add_parser("eval", help="tabulate B(.|A) on a grid or at a point")
    _add_weight_flags(p)
    p.add_argument("--grid", metavar="START:STOP:STEP", type=_arg(
        "START:STOP:STEP", _fields(":", float, float, float)))
    p.add_argument("--at", type=_POINT, default="center",
                   help="single abscissa, or 'center' for sum(a)/2")
    common(p, ("auto", "truncated_power", "convolution", "fourier"))
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("phi", help="section function phi_A(r) = B(r + center)")
    _add_weight_flags(p)
    p.add_argument("--r", type=_POINT, default=0.0,
                   help="offset from the center")
    common(p, ("auto", "truncated_power", "convolution", "fourier"))
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("expect", help="Rademacher expectation E|sum a_k e_k|")
    _add_weight_flags(p)
    p.add_argument("--samples", type=int, default=MC_SAMPLES)
    p.add_argument("--seed", type=_SEED, default=0)
    common(p, ("auto", "exact", "monte_carlo"))
    p.set_defaults(func=cmd_expect)

    p = sub.add_parser("fbound", help="the Khinchine-type bound F(s)")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-4)
    common(p)
    p.set_defaults(func=cmd_fbound)

    p = sub.add_parser("gap", help="verify phi_A(0) E - 1 >= 0 for one A")
    _add_weight_flags(p)
    p.add_argument("--tol", type=_TOL, default=1e-9)
    p.add_argument("--seed", type=_SEED, default=0)
    common(p, ("auto", "truncated_power", "convolution", "fourier"))
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("scan", help="minimum gap over seeded random vectors")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c0", type=float, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--tol", type=_TOL, default=1e-9)
    common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("minimize", help="local gap descent from a start vector")
    _add_weight_flags(p)
    p.add_argument("--c0", type=float, required=True)
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--tol", type=_TOL, default=1e-9)
    common(p)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("probe", help="empirical N0(c0) threshold report")
    p.add_argument("--c0", type=float, required=True)
    p.add_argument("--family", choices=("equal", "geometric", "random"),
                   default="equal")
    p.add_argument("--n", type=_N_RANGE, required=True, metavar="LO..HI|LIST")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--tol", type=_TOL, default=1e-9)
    common(p)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("converge", help="sup/L2 distance to the Gaussian limit")
    p.add_argument("--family", default="equal")
    p.add_argument("--n", type=_N_RANGE, required=True, metavar="LIST")
    p.add_argument("--q", type=float, default=0.9)
    p.add_argument("--points", type=int, default=121)
    common(p)
    p.set_defaults(func=cmd_converge)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BoxgapError, ValueError, OSError) as exc:
        print(f"boxgap: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception:  # a defect, not a verdict: 1 means a confirmed violation
        traceback.print_exc()
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
