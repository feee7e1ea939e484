import json
import math
import numbers
import random

import numpy as np
import pytest

from boxgap.errors import ValidationError
from boxgap.io import dumps_csv, dumps_json, format_float


def test_format_float_round_trips():
    for x in [0.1, 1.0 / 3.0, math.pi, 1e-300, 1e300, -0.0,
              np.nextafter(1.0, 2.0)]:
        assert float(format_float(x)) == x


def test_format_float_rejects_non_finite():
    with pytest.raises(ValidationError):
        format_float(float("nan"))
    with pytest.raises(ValidationError):
        format_float(float("inf"))


def test_dumps_json_canonical():
    text = dumps_json({"b": 1, "a": [0.5, True, None, "x"], "c": np.float64(2.5)})
    assert text == '{"a":[0.5,true,null,"x"],"b":1,"c":2.5}\n'
    assert json.loads(text) == {"a": [0.5, True, None, "x"], "b": 1, "c": 2.5}


def test_dumps_json_numpy_ints_and_objects():
    class Obj:
        def to_json_dict(self):
            return {"k": np.int64(3)}

    assert dumps_json(Obj()) == '{"k":3}\n'


def test_dumps_csv():
    text = dumps_csv(("a", "b"), [(1, 0.5), (2, 1.0 / 3.0)])
    lines = text.strip().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1,0.5"
    assert float(lines[2].split(",")[1]) == 1.0 / 3.0


def _generic(obj) -> str:
    """The canonical form by the ABC walk alone: the oracle for dumps_json."""
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(str(k)) + ":" + _generic(obj[k])
                              for k in sorted(obj)) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(_generic, obj)) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, numbers.Integral):
        return str(int(obj))
    return format_float(obj)


class _Sub(float):
    def __repr__(self):
        return "not a float"


def test_dumps_json_fast_path_matches_generic_walk():
    rng = random.Random(5)
    leaves = [lambda: rng.uniform(-1e3, 1e3), lambda: _Sub(rng.random()),
              lambda: np.float64(rng.random() * 1e-300), lambda: -0.0,
              lambda: rng.randrange(-9, 9), lambda: np.int64(7),
              lambda: rng.random() < 0.5, lambda: None]

    def tree(depth):
        kind = rng.randrange(5 if depth else 2)
        if kind == 0:
            return rng.choice(leaves)()
        if kind == 1:  # a plain list of exact floats, or mixed leaves
            return [rng.choice(leaves[:1] if rng.random() < 0.5 else leaves)()
                    for _ in range(rng.randrange(6))]
        if kind == 2:
            return tuple(tree(depth - 1) for _ in range(rng.randrange(4)))
        if kind == 3:
            return [tree(depth - 1) for _ in range(rng.randrange(4))]
        return {f"k{i}": tree(depth - 1) for i in range(rng.randrange(4))}

    for _ in range(300):
        obj = {"root": tree(4)}
        assert dumps_json(obj) == _generic(obj) + "\n"
    for bad in ([0.5, math.inf], math.nan, {"x": [1.0, -math.inf]}):
        with pytest.raises(ValidationError):
            dumps_json(bad)
