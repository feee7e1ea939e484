"""Span recorder that wraps boxgap's public functions from outside.

The recorder replaces each traced function in every ``boxgap`` namespace
that bound it (the defining module, the package, and modules that
from-imported it, under any alias) and restores the originals on exit.
Spans stay in memory until the run ends; ``write_jsonl`` then stores them.

A span is ``[name, start_ns, end_ns, parent, request, self_ns, attrs]``:
``parent`` is the index of the enclosing span (``None`` at the root),
``request`` the id of the benchmark operation that caused it, and
``self_ns`` the duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, function) pairs wrapped while tracing
TARGETS = (
    ("boxgap.cli", "main"),
    ("boxgap.io", "dumps_json"),
    ("boxgap.weights", "generate"),
    ("boxgap.gap", "gap"),
    ("boxgap.gap", "scan_random"),
    ("boxgap.gap", "confirm_counterexample"),
    ("boxgap.boxspline", "max_value"),
    ("boxgap.boxspline", "density_profile"),
    ("boxgap.boxspline", "eval_convolution"),
    ("boxgap.rademacher", "exact_expectation"),
    ("boxgap.rademacher", "mc_expectation"),
    ("boxgap.rademacher", "khinchine_bounds"),
    ("boxgap.rademacher", "f_function"),
    ("boxgap.saddlepoint", "solve_saddle"),
)

NAME, START, END, PARENT, REQUEST, SELF, ATTRS = range(7)


def _annotate(target: str, args, result) -> tuple[str, dict]:
    """Span name suffix and attributes read from a call's arguments/result."""
    if target == "boxspline.density_profile":
        A = args[0]
        return "." + result.method, {"points": len(result.grid), "n": A.n,
                                     "vector": A.a.tobytes()}
    if target == "rademacher.f_function":
        return "", {"s": float(args[0])}
    if target in ("rademacher.exact_expectation", "rademacher.mc_expectation"):
        return "", {"n": args[0].n}
    if target == "saddlepoint.solve_saddle":
        return "", {"iterations": result.iterations}
    if target == "io.dumps_json":
        return "", {"bytes": len(result.encode("utf-8"))}
    if target == "cli.main":
        return "", {"exit": result}
    return "", {}


class Recorder:
    """Nested timing spans around boxgap's public functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = 0
        self._open: list[int] = []
        self._child_ns: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> "Recorder":
        for mod_name, fn_name in TARGETS:
            # boxgap.gap is shadowed on the package by the gap() function,
            # so the module is taken from sys.modules, not by attribute
            importlib.import_module(mod_name)
            module = sys.modules[mod_name]
            original = getattr(module, fn_name)
            wrapper = self._wrap(mod_name.split(".", 1)[1] + "." + fn_name,
                                 original)
            for name, ns in list(sys.modules.items()):
                if ns is None or not (name == "boxgap"
                                      or name.startswith("boxgap.")):
                    continue
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._patched.append((ns, attr, original))
        return self

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Recorder":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, target: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            span = [target, 0, 0, parent, self.request, 0, {}]
            self.spans.append(span)
            self._open.append(index)
            self._child_ns.append(0)
            span[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[END] = time.perf_counter_ns()
                span[ATTRS]["error"] = True
                raise
            else:
                span[END] = time.perf_counter_ns()
                suffix, span[ATTRS] = _annotate(target, args, result)
                span[NAME] = target + suffix
                return result
            finally:
                self._open.pop()
                child = self._child_ns.pop()
                duration = span[END] - span[START]
                span[SELF] = duration - child
                if self._child_ns:
                    self._child_ns[-1] += duration

        return traced

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request, self_ns, attrs in self.spans:
                attrs = {k: (v.hex() if isinstance(v, bytes) else v)
                         for k, v in attrs.items()}
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "request": request, "self_ns": self_ns,
                                     "attrs": attrs}, sort_keys=True) + "\n")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metric values (see bench/README.md) from recorded spans."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for span in spans:
        calls[span[NAME]] += 1
        self_s[span[NAME]] += span[SELF] * 1e-9

    # spans of calls that raised carry no attributes but "error"
    done = [s for s in spans if "error" not in s[ATTRS]]

    def total(name: str, value) -> float:
        return sum(value(s[ATTRS]) for s in done if s[NAME] == name)

    tp = "boxspline.density_profile.truncated_power"
    tp_vectors = {(s[REQUEST], s[ATTRS]["vector"]) for s in done
                  if s[NAME] == tp}
    tp_points = total(tp, lambda attrs: attrs["points"])
    f_args = [s[ATTRS]["s"] for s in done if s[NAME] == "rademacher.f_function"]
    exits = [s[ATTRS].get("exit") for s in spans if s[NAME] == "cli.main"]

    return {
        "rademacher.f_function.calls": calls["rademacher.f_function"],
        "rademacher.f_function.self_s": self_s["rademacher.f_function"],
        "rademacher.f_function.distinct_ratio":
            len(set(f_args)) / len(f_args) if f_args else 0.0,
        "rademacher.khinchine_bounds.self_s":
            self_s["rademacher.khinchine_bounds"],
        tp + ".self_s": self_s[tp],
        tp + ".points": tp_points,
        "boxspline.max_value.calls": calls["boxspline.max_value"],
        "boxspline.tp_terms":
            total(tp, lambda attrs: attrs["points"] * 2 ** attrs["n"]),
        "boxspline.tp_points_per_vector":
            tp_points / len(tp_vectors) if tp_vectors else 0.0,
        "boxspline.density_profile.fourier.self_s":
            self_s["boxspline.density_profile.fourier"],
        "boxspline.density_profile.convolution.self_s":
            self_s["boxspline.density_profile.convolution"],
        "boxspline.eval_convolution.self_s":
            self_s["boxspline.eval_convolution"],
        "rademacher.exact_expectation.self_s":
            self_s["rademacher.exact_expectation"],
        "rademacher.sign_sums": total("rademacher.exact_expectation",
                                      lambda attrs: 2 ** (attrs["n"] - 1)),
        "rademacher.mc_expectation.self_s":
            self_s["rademacher.mc_expectation"],
        "saddlepoint.solve_saddle.calls": calls["saddlepoint.solve_saddle"],
        "saddlepoint.solve_saddle.self_s": self_s["saddlepoint.solve_saddle"],
        "saddlepoint.solve_saddle.iterations":
            total("saddlepoint.solve_saddle", lambda attrs: attrs["iterations"]),
        "gap.gap.self_s": self_s["gap.gap"],
        "gap.scan_random.self_s": self_s["gap.scan_random"],
        "gap.confirm_counterexample.calls": calls["gap.confirm_counterexample"],
        "weights.generate.self_s": self_s["weights.generate"],
        "io.dumps_json.self_s": self_s["io.dumps_json"],
        "io.dumps_json.bytes": total("io.dumps_json", lambda attrs: attrs["bytes"]),
        "cli.main.self_s": self_s["cli.main"],
        "cli.main.exit_nonzero": sum(1 for e in exits if e != 0),
        "trace.spans": len(spans),
    }
