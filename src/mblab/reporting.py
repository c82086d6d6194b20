"""Canonical report writers.

Reports must be byte-identical across runs with the same inputs, so floats
are always rendered through '%.17g' and key order is fixed by construction.
Seventeen significant digits always round-trip a double exactly, but the
form is not the shortest one that does: 0.1 renders as 0.10000000000000001.  Writers refuse empty payloads and
wrap filesystem failures in ReportError.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = ["ReportError", "format_float", "to_canonical_json", "rows_to_csv", "write_text"]


class ReportError(RuntimeError):
    pass


def format_float(x: float) -> str:
    """Canonical float text: '%.17g' (exact round-trip, not shortest),
    with NaN, +-Infinity and a single 0 for both signed zeros."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    if x == 0.0:
        return "0"  # fold -0.0 as well
    return format(float(x), ".17g")


def _canon(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _canon(obj.tolist())
    if isinstance(obj, Mapping):
        inner = ",".join(f"{json.dumps(str(k))}:{_canon(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in obj) + "]"
    raise ReportError(f"cannot serialize object of type {type(obj).__name__}")


def to_canonical_json(payload) -> str:
    if payload is None or (isinstance(payload, (list, tuple, dict)) and not payload):
        raise ReportError("refusing to write an empty report")
    return _canon(payload) + "\n"


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool) or isinstance(v, np.bool_):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return format_float(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    text = str(v)
    if any(c in text for c in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def rows_to_csv(rows: Sequence[Mapping], fields: Iterable[str] | None = None) -> str:
    if not rows:
        raise ReportError("refusing to write an empty report")
    cols = list(fields) if fields is not None else list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(_cell(row.get(c)) for c in cols))
    return "\n".join(lines) + "\n"


def write_text(path: str | Path, text: str) -> Path:
    target = Path(path)
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    except OSError as exc:
        raise ReportError(f"cannot write report to {target}: {exc}") from exc
    return target
