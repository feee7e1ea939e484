"""Deterministic JSON/CSV emission for reports.

All floats are rendered with 17 significant digits so that a rerun with the
same configuration and seed produces byte-identical output (17 digits
round-trip every float64 exactly).
"""

from __future__ import annotations

import io
import json
import math
import numbers
from typing import Any, Iterable, Sequence

from .errors import ValidationError


def format_float(x: float) -> str:
    """17-significant-digit decimal; round-trips every float64 exactly."""
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError(f"non-finite value {x!r} in output")
    return format(x, ".17g")


def _emit(obj: Any, out: list[str]) -> None:
    # json.dumps would bypass a float subclass repr in its C encoder, so the
    # (small) report trees are walked here instead.  Exact floats, alone or
    # in plain lists (a profile's grid and values), skip the ABC checks;
    # float subclasses and numpy scalars take the generic path
    if type(obj) is float:
        out.append(format_float(obj))
        return
    if type(obj) is list and all(type(v) is float for v in obj):
        out.append("[" + ",".join(map(format_float, obj)) + "]")
        return
    if hasattr(obj, "to_json_dict"):
        obj = obj.to_json_dict()
    if isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _emit(v, out)
        out.append("]")
    elif isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, numbers.Integral):
        out.append(str(int(obj)))
    elif isinstance(obj, numbers.Real):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise ValidationError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj: Any) -> str:
    """Canonical JSON text: sorted keys, fixed separators, 17-digit floats."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out) + "\n"


def dumps_csv(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """CSV with a header row; floats rendered at 17 significant digits."""
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        cells = [format_float(c) if isinstance(c, float) else str(c)
                 for c in row]
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


def write_text(path: str | None, text: str) -> None:
    """Write to path, or stdout when path is None/'-'."""
    if path is None or path == "-":
        import sys

        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
