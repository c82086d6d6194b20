"""Canonical report writers.

Reports must be byte-identical across runs with the same inputs, so floats
are always rendered through '%.17g' and key order is fixed by construction.
Seventeen significant digits always round-trip a double exactly, but the
form is not the shortest one that does: 0.1 renders as
0.10000000000000001.  Writers refuse empty payloads and wrap filesystem
failures in ReportError.

``to_canonical_json`` renders a payload in one pass that dispatches on the
exact type of each value.  Both writers accept ``None``, ``bool``,
``int``, ``float`` and ``str``, and the JSON writer ``dict``, ``list``,
``tuple`` and ``Verbatim`` too; any other type, a numpy scalar or array,
a mapping that is not a ``dict`` or a subclass among them, raises
``ReportError`` rather than being written in some other form.

Large array-backed parts of a payload (a certificate's records and leaves,
an expansion's midpoint tree) are rendered ahead of time from their arrays:
``_format_floats`` formats a whole float column with the one float rule,
and the text sits in the payload as a ``Verbatim`` (a list of them, one
per block, for a text built in blocks), which the writer appends as it is.
The writer appends every piece of text to one list and joins it once, so
no nested text (a certificate inside a report, say) is joined or copied
before the report.  ``Verbatim`` is not a ``str``, so ``json.dumps``
rejects it rather than quoting the text as a JSON string.

A column of at least ``_KERNEL_MIN`` (512) floats goes through an exact
numpy kernel.  For finite x with 10**-11 <= |x| < 10**16 it takes the
decimal exponent k from ``log10``, moved by one where a comparison with the
exact powers of ten says so, writes x = M * 2**e, forms M * 5**(16 - k) as
two uint64 limbs (5**27 < 2**63), shifts and rounds half to even to the
17-digit integer D, and builds the '%.17g' bytes of the whole column in a
few array passes and one split.  No double in the window rounds up to
D = 10**17, so no carry moves k.  The kernel writes a zero of either sign
as 0.  Non-finite values, values outside the window and shorter columns
take the per-float rule ``_format_float``,
which is also the oracle the kernel is tested against: below about 400
floats the kernel's fixed cost made it slower than the per-float loop when
measured.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = ["ReportError", "Verbatim", "to_canonical_json", "rows_to_csv", "write_text"]

_INF = math.inf


class ReportError(RuntimeError):
    pass


def _format_float(x: float) -> str:
    """Canonical float text: '%.17g' (exact round-trip, not shortest),
    with NaN, +-Infinity and a single 0 for both signed zeros."""
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    if x == 0.0:
        return "0"  # fold -0.0 as well
    return format(x, ".17g")


# ---------------------------------------------------------------------------
# '%.17g' of a whole float column

# The column kernel handles |x| in [10**_K_LO, 10**(_K_HI + 1)): there the
# 17 digits are x * 10**(16 - k) rounded, k the decimal exponent, and
# x * 10**(16 - k) = M * 5**(16 - k) * 2**(e + 16 - k) for x = M * 2**e, with
# 5**(16 - k) <= 5**27 < 2**63, so the product fits two uint64 limbs.
_K_LO, _K_HI = -11, 15


def _pow10_floors(lo: int, hi: int) -> np.ndarray:
    """The smallest double at or above 10**k, exactly, for k = lo .. hi."""
    out = []
    for k in range(lo, hi + 1):
        scale = 10 ** abs(k)
        f = float(scale) if k >= 0 else 1 / scale  # correctly rounded
        num, den = f.as_integer_ratio()
        if (num < den * scale) if k >= 0 else (num * scale < den):
            f = math.nextafter(f, _INF)
        out.append(f)
    return np.array(out)


_FLOORS = _pow10_floors(_K_LO - 1, _K_HI + 1)  # _FLOORS[k - _K_LO + 1] for 10**k
_WINDOW = (_FLOORS[1], _FLOORS[-1])
_POW5 = np.array([5**q for q in range(17 - _K_LO)], dtype=np.uint64)
_U = np.uint64

# Each text is laid out in 32 bytes: a prefix (the sign, and "0." with
# zeros before the digits of 0.0001 <= |x| < 1), right aligned in 8 bytes,
# then a body of the 17 digits with the point inserted, trailing zeros and
# a bare point blanked, and "e-XX" below 0.0001.  The prefix and point
# depend only on the sign and k, so they come from tables indexed by
# kind = 2 * (k - _K_LO) + sign.
_KINDS = [(k, neg) for k in range(_K_LO, _K_HI + 1) for neg in (0, 1)]
_PREFIX = np.frombuffer(
    "".join(
        (("-" if neg else "") + ("0." + "0" * (-k - 1) if -4 <= k < 0 else "")).rjust(8)
        for k, neg in _KINDS
    ).encode(),
    dtype=np.uint64,
)
# body position of the point; 99 where "0." in the prefix holds it
_POINT = np.array([k + 1 if k >= 0 else 1 if k < -4 else 99 for k, _ in _KINDS], np.uint8)
# shortest body: the digits before the point
_MIN_BODY = np.where(_POINT < 99, _POINT, 0).astype(np.uint8)
_SUFFIX = np.frombuffer("".join(f"e-{-k:02d}" for k in range(_K_LO, -4)).encode(), np.uint8)
_SUFFIX = _SUFFIX.reshape(-1, 4).T.copy()  # _SUFFIX[:, k - _K_LO] is "e-XX" for k < -4
_POS = np.arange(24, dtype=np.uint8)[:, None]
_ZERO = np.frombuffer("0".rjust(8).ljust(32).encode(), np.uint8)  # the text of both zeros

# From this many floats on, the kernel beat the per-float loop when measured
# (on a deep_tower pass's floats the two tie near 400).  Columns run through
# the kernel in chunks of _CHUNK floats, so that its temporaries stay near
# 2.5 MB (3.7 MB traced peak for a chunk, 1.3 MB of it the chunk's texts).
_KERNEL_MIN = 512
_CHUNK = 1 << 14


def _digits17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D and k with D * 10**(k - 16) equal to each entry of ``a`` rounded to
    17 significant digits, half to even, and 10**16 <= D < 10**17: the
    digits and exponent of '%.17g'.  ``a`` is positive and in the window.

    D never rounds up to 10**17: the largest double below each power of ten
    in the window lies more than 4 units of the 17th digit below it, so no
    carry moves k."""
    # k = floor(log10(a)), corrected by one where log10 rounded across a
    # power of ten
    k = np.floor(np.log10(a)).astype(np.int64)
    k -= a < _FLOORS[k - (_K_LO - 1)]
    k += a >= _FLOORS[k - (_K_LO - 2)]
    bits = a.view(np.uint64)
    shift = (bits >> _U(52)).astype(np.int64)
    shift -= k + (1075 - 16)
    m = bits & _U((1 << 52) - 1)
    m |= _U(1 << 52)
    f = _POW5[16 - k]
    # M * 5**(16 - k) as hi * 2**64 + low, from 32-bit halves; worked in
    # place, which took half the time of fresh arrays on 16,384 floats
    low, f_low = m & _U(0xFFFFFFFF), f & _U(0xFFFFFFFF)
    m >>= _U(32)
    f >>= _U(32)
    mid = low * f
    mid += m * f_low
    hi = m * f
    hi += mid >> _U(32)
    low *= f_low
    del m, f, f_low
    mid <<= _U(32)
    low += mid
    hi += low < mid
    del mid
    # times 2**shift: a right shift by r rounds half to even, a left shift
    # (only just below 10**16) is exact; (hi << 1) << (63 - r) keeps every
    # shift below 64 bits
    r = np.maximum(-shift, 0).astype(np.uint64)
    d = hi << _U(1)
    d <<= _U(63) - r
    d |= low >> r
    del hi
    half = _U(1) << r
    low &= half - _U(1)
    low <<= _U(1)  # twice the bits shifted out
    d += (low > half) | ((low == half) & (d & _U(1)).astype(bool))
    d <<= np.maximum(shift, 0).astype(np.uint64)
    return d, k


def _format_window(x: np.ndarray) -> list[str]:
    """'%.17g' of every entry of the 1-D float array ``x``, each finite with
    |x| in the window or a zero of either sign (written 0), in a few array
    passes and one split."""
    n = len(x)
    a = np.abs(x)
    zeros = a == 0.0
    a[zeros] = 1.0
    d, k = _digits17(a)
    del a
    kind = 2 * (k - _K_LO) + (x < 0)
    # the 17 digits, most significant first (the low nine, then the high
    # eight), written into the first 17 rows of the body
    body = np.full((24, n), 32, np.uint8)
    high = (d // _U(10**9)).astype(np.uint32)
    part = (d - high * _U(10**9)).astype(np.uint32)
    for i in range(16, -1, -1):
        if i == 7:
            part = high
        q = part // np.uint32(10)
        body[i] = part - q * np.uint32(10)
        part = q
    zero = body[16] == 0
    trailing = zero.view(np.uint8).copy()
    for i in range(15, 0, -1):
        zero &= body[i] == 0
        trailing += zero
    body[:17] += np.uint8(48)
    point = _POINT[kind]
    body[1:18] += (body[:17] - body[1:18]) * (_POS[1:18] > point)
    body[:18] += (np.uint8(46) - body[:18]) * (_POS[:18] == point)
    kept = np.uint8(17) - trailing
    cut = np.maximum(kept + (kept > point), _MIN_BODY[kind])
    body += (np.uint8(32) - body) * (_POS >= cut)
    small = np.flatnonzero(k < -4)
    if len(small):
        at = cut[small].astype(np.intp)
        for c in range(4):
            body[at + c, small] = _SUFFIX[c, k[small] - _K_LO]
    rows = np.empty((n, 32), np.uint8)
    rows.view(np.uint64)[:, 0] = _PREFIX[kind]
    rows[:, 8:].T[...] = body
    del body
    rows[zeros] = _ZERO
    text = str(rows.data, "ascii")
    del rows  # the texts need only the decoded copy
    return text.split()


def _format_floats(values) -> list[str]:
    """``[_format_float(x) for x in values]`` over a float array of any
    shape, flattened in C order.  A column of at least _KERNEL_MIN floats
    goes through the exact column kernel, zeros included, and the rest of
    its entries (non-finite, outside the window) through the per-float rule;
    a shorter column is one '%.17g' pass with its zeros and non-finite
    entries rewritten one by one."""
    flat = np.asarray(values, dtype=float).ravel()
    if flat.size < _KERNEL_MIN:
        texts = [format(x, ".17g") for x in flat.tolist()]
        odd = (flat == 0.0) | ~np.isfinite(flat)
    else:
        a = np.abs(flat)
        odd = ~(((a >= _WINDOW[0]) & (a < _WINDOW[1])) | (a == 0.0))
        del a
        inside = np.where(odd, 1.0, flat)
        texts = []
        for lo in range(0, flat.size, _CHUNK):
            texts += _format_window(inside[lo : lo + _CHUNK])
    odd = np.flatnonzero(odd)
    for i, x in zip(odd.tolist(), flat[odd].tolist()):
        texts[i] = _format_float(x)
    return texts


def _format_columns(*columns) -> list[list[str]]:
    """``_format_floats`` of each column, from one call over all of them, so
    that the columns of one payload share the kernel."""
    flats = [np.asarray(c, dtype=float).ravel() for c in columns]
    texts = _format_floats(np.concatenate(flats))
    ends = np.cumsum([f.size for f in flats]).tolist()
    return [texts[lo:hi] for lo, hi in zip([0] + ends, ends)]


class Verbatim:
    """Canonical JSON text rendered ahead of time, which
    ``to_canonical_json`` writes as is; any other serializer fails on it."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def _format_number(v) -> str:
    """Text of a ``bool``, ``int`` or ``float``, by exact type; any other
    type raises ReportError.  The one scalar rule of both writers."""
    t = type(v)
    if t is float:
        return _format_float(v)
    if t is int:
        return str(v)
    if t is bool:
        return "true" if v else "false"
    raise ReportError(f"cannot serialize object of type {t.__name__}")


def _append(parts: list[str], v) -> None:
    """Append the canonical JSON text of ``v`` to ``parts``: the brackets,
    keys, separators and scalar texts, and a ``Verbatim``'s text as is."""
    t = type(v)
    if t is float:
        parts.append(_format_float(v))
    elif t is dict:
        sep = "{"
        for k, item in v.items():
            parts += (sep, _encode_str(k if type(k) is str else str(k)), ":")
            sep = ","
            _append(parts, item)
        parts.append("}" if sep == "," else "{}")
    elif t is list or t is tuple:
        sep = "["
        for item in v:
            parts.append(sep)
            sep = ","
            _append(parts, item)
        parts.append("]" if sep == "," else "[]")
    elif t is str:
        parts.append(_encode_str(v))
    elif t is Verbatim:
        parts.append(v.text)
    elif v is None:
        parts.append("null")
    else:
        parts.append(_format_number(v))


def to_canonical_json(payload) -> str:
    """Canonical JSON text of ``payload`` and a newline, joined once."""
    if payload is None or (isinstance(payload, (list, tuple, dict)) and not payload):
        raise ReportError("refusing to write an empty report")
    parts: list[str] = []
    _append(parts, payload)
    parts.append("\n")
    return "".join(parts)


def _cell(v) -> str:
    if v is None:
        return ""
    if type(v) is not str:
        return _format_number(v)
    if any(c in v for c in ",\"\n"):
        return '"' + v.replace('"', '""') + '"'
    return v


def rows_to_csv(rows: Sequence[dict]) -> str:
    """One CSV line per row under the first row's keys; a key a row lacks
    gives an empty cell.  A column of exact floats only is formatted in one
    ``_format_floats`` call, any other cell by cell."""
    if not rows:
        raise ReportError("refusing to write an empty report")
    cols = list(rows[0].keys())
    cells = [[row.get(c) for c in cols] for row in rows]
    texts = [
        _format_floats(col) if all(type(v) is float for v in col) else list(map(_cell, col))
        for col in zip(*cells)
    ]
    lines = map(",".join, zip(*texts)) if cols else [""] * len(cells)
    return "\n".join((",".join(cols), *lines)) + "\n"


def write_text(path: str | Path, text: str) -> Path:
    target = Path(path)
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    except OSError as exc:
        raise ReportError(f"cannot write report to {target}: {exc}") from exc
    return target
