"""Deterministic JSON serialization.

Reports and stats exports must be byte-identical across runs, so floats are
rendered with 17 significant digits (lossless for 64-bit reals) and mappings
keep their construction order. ``json.dumps`` alone cannot control float
formatting, hence this small recursive serializer.
"""

from __future__ import annotations

import json
import math

import numpy as np


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    if x == int(x) and abs(x) < 1e16:
        # keep integral floats readable and unambiguous ("1.0", not "1")
        return f"{x:.1f}"
    return format(x, ".17g")


def dumps(obj, indent: int | None = None) -> str:
    """Serialize *obj* deterministically; floats use 17 significant digits."""
    out: list[str] = []
    _write(obj, out, indent, 0)
    return "".join(out)


def _write(obj, out: list[str], indent: int | None, depth: int) -> None:
    nl = "" if indent is None else "\n" + " " * (indent * (depth + 1))
    close_nl = "" if indent is None else "\n" + " " * (indent * depth)
    if obj is None or obj is True or obj is False:
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise TypeError(f"non-string key {k!r}")
            if i:
                out.append(",")
            out.append(nl)
            out.append(json.dumps(k))
            out.append(": " if indent is not None else ":")
            _write(v, out, indent, depth + 1)
        out.append(close_nl)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = obj.tolist() if isinstance(obj, np.ndarray) else obj
        if not len(items):
            out.append("[]")
            return
        out.append("[")
        for i, v in enumerate(items):
            if i:
                out.append(",")
            out.append(nl)
            _write(v, out, indent, depth + 1)
        out.append(close_nl)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
