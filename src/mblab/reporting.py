"""Canonical report writers.

Reports must be byte-identical across runs with the same inputs, so floats
are always rendered through '%.17g' and key order is fixed by construction.
Seventeen significant digits always round-trip a double exactly, but the
form is not the shortest one that does: 0.1 renders as
0.10000000000000001.  Writers refuse empty payloads and wrap filesystem
failures in ReportError.

``to_canonical_json`` renders a payload in one pass that dispatches on the
exact type of each value; numpy scalars and arrays, other mappings and
subclasses take the slower ``isinstance`` route to the same text.

Large array-backed parts of a payload (a certificate's records and leaves,
an expansion's midpoint tree) are rendered ahead of time from their arrays:
``_format_floats`` formats a whole float column with the one float rule,
and the text sits in the payload as a ``Verbatim``, which the writer copies
as is.  ``Verbatim`` is not a ``str``, so ``json.dumps`` rejects it rather
than quoting the text as a JSON string.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

__all__ = ["ReportError", "Verbatim", "to_canonical_json", "rows_to_csv", "write_text"]

_INF = math.inf


class ReportError(RuntimeError):
    pass


def _format_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    if x == 0.0:
        return "0"  # fold -0.0 as well
    return format(x, ".17g")


def _format_floats(values) -> list[str]:
    """``[_format_float(x) for x in values]`` over a float array of any
    shape, flattened in C order: one '%.17g' pass over the column, then the
    zeros and non-finite entries rewritten one by one."""
    flat = np.asarray(values, dtype=float).ravel()
    texts = [format(x, ".17g") for x in flat.tolist()]
    for i in np.flatnonzero((flat == 0.0) | ~np.isfinite(flat)).tolist():
        texts[i] = _format_float(float(flat[i]))
    return texts


def _format_rows(values: np.ndarray) -> list[str]:
    """Each row of a 2-D float array as its canonical floats joined by
    commas, the inside of the row's JSON array."""
    texts = _format_floats(values)
    width = values.shape[1]
    if width == 1:
        return texts
    return [",".join(texts[i : i + width]) for i in range(0, len(texts), width)]


class Verbatim:
    """Canonical JSON text rendered ahead of time, which ``to_canonical_json``
    writes as is; any other serializer fails on it."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def __repr__(self) -> str:
        return f"Verbatim({len(self.text)} chars)"


def format_float(x: float) -> str:
    """Canonical float text: '%.17g' (exact round-trip, not shortest),
    with NaN, +-Infinity and a single 0 for both signed zeros."""
    return _format_float(float(x))


def _format_number(v) -> str | None:
    """Text of a bool, integer or float scalar, numpy ones included; None
    for anything else.  The one scalar rule of both writers."""
    t = type(v)
    if t is float:
        return _format_float(v)
    if t is int:
        return str(v)
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _format_float(float(v))
    return None


def _enclosed(opener: str, texts: list[str], closer: str) -> str:
    """``opener + ",".join(texts) + closer`` in one join: the separators and
    both brackets are parts of the list, so the text is built once instead
    of being joined and then copied again to add the brackets."""
    if not texts:
        return opener + closer
    parts = [","] * (2 * len(texts) + 1)
    parts[0] = opener
    parts[1::2] = texts
    parts[-1] = closer
    return "".join(parts)


def _canon(obj) -> str:
    """Canonical JSON text of ``obj``."""
    t = type(obj)
    if t is float:
        return _format_float(obj)
    if t is dict:
        return _canon_items(obj)
    if t is list or t is tuple:
        return "[" + ",".join([_canon(v) for v in obj]) + "]"
    if t is str:
        return _encode_str(obj)
    if t is Verbatim:
        return obj.text
    if obj is None:
        return "null"
    text = _format_number(obj)
    if text is not None:
        return text
    # Subclasses, arrays and other mappings.
    if isinstance(obj, str):
        return _encode_str(obj)
    if isinstance(obj, np.ndarray):
        return _canon(obj.tolist())
    if isinstance(obj, Mapping):
        return _canon_items(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join([_canon(v) for v in obj]) + "]"
    raise ReportError(f"cannot serialize object of type {type(obj).__name__}")


def _canon_items(obj: Mapping, closer: str = "}") -> str:
    """Canonical JSON text of a mapping, then ``closer``: one join over the
    brackets, separators, keys and values, so no value's text (a
    certificate's records, say) is first copied into an item string."""
    parts: list[str] = []
    for k, v in obj.items():
        parts += (",", _encode_str(k if type(k) is str else str(k)), ":", _canon(v))
    if not parts:
        return "{" + closer
    parts[0] = "{"
    parts.append(closer)
    return "".join(parts)


def to_canonical_json(payload) -> str:
    """Canonical JSON text of ``payload`` and a newline; the outermost
    container is joined once with its brackets and the newline, so the
    report text, the largest string, is built once."""
    if payload is None or (isinstance(payload, (list, tuple, dict)) and not payload):
        raise ReportError("refusing to write an empty report")
    if isinstance(payload, Mapping):
        return _canon_items(payload, "}\n")
    if type(payload) in (list, tuple):
        return _enclosed("[", [_canon(v) for v in payload], "]\n")
    return _canon(payload) + "\n"


def _cell(v) -> str:
    if v is None:
        return ""
    text = _format_number(v)
    if text is not None:
        return text
    text = str(v)
    if any(c in text for c in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def rows_to_csv(rows: Sequence[Mapping]) -> str:
    """One CSV line per row under the first row's keys; a key a row lacks
    gives an empty cell."""
    if not rows:
        raise ReportError("refusing to write an empty report")
    cols = list(rows[0].keys())
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
