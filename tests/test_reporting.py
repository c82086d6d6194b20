"""Deterministic report serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mblab.reporting import (
    ReportError,
    format_float,
    rows_to_csv,
    to_canonical_json,
    write_text,
)


def test_format_float_special_values():
    assert format_float(float("nan")) == "NaN"
    assert format_float(float("inf")) == "Infinity"
    assert format_float(float("-inf")) == "-Infinity"
    assert format_float(-0.0) == "0"
    assert format_float(0.0) == "0"
    assert format_float(1.0) == "1"


def test_format_float_is_seventeen_digits_not_shortest():
    # exact round-trip, but longer than repr where repr is shorter
    assert format_float(0.1) == "0.10000000000000001"
    assert float(format_float(0.1)) == 0.1
    assert format_float(0.5) == "0.5"


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_roundtrips(x):
    assert float(format_float(x)) == x


def test_canonical_json_basics():
    text = to_canonical_json({"b": 1, "a": [1.5, True, None, "x"]})
    assert text.endswith("\n")
    assert text == to_canonical_json({"b": 1, "a": [1.5, True, None, "x"]})
    # insertion order of keys is preserved, not sorted
    assert text.index('"b"') < text.index('"a"')


def test_canonical_json_handles_arrays_and_specials():
    text = to_canonical_json({"v": np.array([1.0, -0.0]), "n": float("nan")})
    assert '"v":[1,0]' in text
    assert '"n":NaN' in text


def test_canonical_json_refuses_empty():
    with pytest.raises(ReportError):
        to_canonical_json({})
    with pytest.raises(ReportError):
        to_canonical_json([])


def test_rows_to_csv_header_and_quoting():
    rows = [{"a": 1.5, "b": 'say "hi", ok'}, {"a": 2.0, "b": "plain"}]
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "a,b"
    assert lines[1] == '1.5,"say ""hi"", ok"'
    assert lines[2] == "2,plain"


def test_rows_to_csv_field_selection():
    rows = [{"a": 1, "b": 2, "c": 3}]
    text = rows_to_csv(rows, fields=("c", "a"))
    assert text.splitlines()[0] == "c,a"
    assert text.splitlines()[1] == "3,1"


def test_rows_to_csv_refuses_empty():
    with pytest.raises(ReportError):
        rows_to_csv([])


def test_write_text_creates_parents(tmp_path):
    target = tmp_path / "nested" / "dir" / "out.json"
    write_text(str(target), "body\n")
    assert target.read_text() == "body\n"


def test_write_text_unwritable_path_raises():
    with pytest.raises(ReportError):
        write_text("/proc/definitely/not/writable/out.json", "x\n")
