"""Deterministic report serialization.

The writers render in one pass that dispatches on each value's exact
type, and refuse every type no report carries.  The oracle is the plain
recursive writer ``oracles.ref_to_canonical_json`` (one ``json.dumps`` per
key and string): every payload, random or real, must give the same bytes
through both.
A certificate's records and leaves are written from its arrays ahead of
time, so the oracle renders the record-by-record payload of
``oracles.certificate_by_records`` in their place.
"""

import itertools
import json
import math
import types
from collections import OrderedDict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mblab.certifier as certifier
from mblab.bellman import quadratic_candidate
from mblab.certifier import certificate_to_dict, certify
from mblab.checks import run_all
from mblab.corpus import DELTAS, DIMS, CorpusCell, prepare_cell, random_transform, random_witness
from mblab.filtration import build_dyadic, build_random_regular
import mblab.reporting as reporting
from mblab.reporting import (
    ReportError,
    Verbatim,
    _format_float,
    _format_floats,
    rows_to_csv,
    to_canonical_json,
    write_text,
)
from conftest import examples, traced
import oracles
from oracles import EQUIVALENCES, ref_canon, ref_to_canonical_json


# --- random payloads -------------------------------------------------------


SPECIAL_FLOATS = (
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0,
    5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1e-310, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e16, 1e17,
)

floats = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
texts = st.one_of(
    st.text(),
    st.sampled_from(['', 'say "hi", ok', "back\\slash", "tab\tnl\nnul\x00\x1f\x7f",
                     "caf\u00e9 \u6f22\u5b57 \U0001f600", "\ud800 lone surrogate"]),
)
scalars = st.one_of(st.none(), st.booleans(), st.integers(), floats, texts)
keys = st.one_of(st.text(max_size=8), st.integers(), st.booleans(), st.none(), floats)
# text rendered ahead of time: a scalar's canonical text, or any text at all,
# which both writers copy as it is
verbatims = st.builds(Verbatim, st.one_of(scalars.map(ref_canon), texts))


def _containers(children):
    str_dicts = st.dictionaries(texts, children, max_size=4)
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        str_dicts,
        st.dictionaries(keys, children, max_size=4),
        # the same sub-dict or list twice in one payload
        st.tuples(str_dicts, st.lists(children, max_size=3)).map(
            lambda dl: {"a": dl[0], "b": [dl[0], dl[1], {"c": dl[0]}], "d": dl[1]}
        ),
    )


# Verbatims sit in lists and dicts at any depth, and at the top
payloads = st.recursive(st.one_of(scalars, verbatims), _containers, max_leaves=20)


@examples(200)
@given(payloads)
def test_canonical_json_matches_reference(payload):
    try:
        ref_to_canonical_json(payload)
    except ReportError:
        with pytest.raises(ReportError):
            to_canonical_json(payload)
        return
    EQUIVALENCES["canonical_json"].holds(lambda: (payload,))


@examples(100)
@given(st.lists(st.dictionaries(st.sampled_from("abc"), scalars, max_size=3), min_size=1, max_size=4))
def test_rows_to_csv_matches_reference(rows):
    EQUIVALENCES["csv"].holds(lambda: (rows,))


# Types no report carries beside sets and plain objects: numpy scalars
# and arrays, and mappings that are not a dict.
FOREIGN = [
    np.float64(0.5),
    np.float32(0.5),
    np.int64(3),
    np.bool_(True),
    np.array([1.0, -0.0]),
    np.array(2.0),
    OrderedDict(k=1.0),
    types.MappingProxyType({"k": 1.0}),
]


def test_rows_to_csv_long_float_columns_match_reference():
    # a float column this long goes through the column kernel; "y" holds
    # gaps and "k" integers, so both go cell by cell
    rng = np.random.default_rng(3)
    x = rng.normal(size=700) * 10.0 ** rng.integers(-20, 20, size=700)
    x[::50], x[1::97], x[2::89], x[3::83] = 0.0, np.nan, -np.inf, -0.0
    rows = [{"x": v, "k": i, "y": v if i % 7 else None} for i, v in enumerate(x.tolist())]
    EQUIVALENCES["csv"].holds(lambda: (rows,))


@pytest.mark.parametrize(
    "bad",
    [set(), object(), [1.0, {"x": {1, 2}}], {"k": (object(),)}, *FOREIGN, {"k": [np.float64(1.0)]}],
)
def test_canonical_json_rejects_unknown_types(bad):
    with pytest.raises(ReportError):
        to_canonical_json(bad)
    with pytest.raises(ReportError):
        to_canonical_json({"ok": True, "rows": [{"v": bad}]})


@pytest.mark.parametrize("bad", [set(), object(), *FOREIGN, [1.0], (1.0,), {"k": 1.0}])
def test_csv_cells_reject_unknown_types(bad):
    # a numpy float would otherwise be written through str(), in another form
    for rows in ([{"v": bad}], [{"v": 1.5}, {"v": bad}], [{"v": "x"}, {"v": bad}]):
        with pytest.raises(ReportError):
            rows_to_csv(rows)


@pytest.fixture(scope="module")
def corpus_reports():
    """The witness, the run_all payload and the quadratic candidate of one
    cell of every (floor, dim) pair."""
    rng = np.random.default_rng(0)
    out = []
    for delta in DELTAS:
        for dim in DIMS:
            w = prepare_cell(CorpusCell(delta=delta, dim=dim, seed=1))
            rows, ok = run_all(w.f, w.g, w.op, rng=rng)
            out.append((w, {"ok": ok, "rows": rows}, quadratic_candidate(delta)))
    return out


def test_real_reports_match_reference(corpus_reports):
    # the certificate's text, written from the arrays, against the reference
    # writer over the payload of the record-by-record walk
    for w, report, cand in corpus_reports:
        EQUIVALENCES["canonical_json"].holds(lambda: (report,))
        EQUIVALENCES["certificate"].holds(lambda: (cand, w, 1e-9))


def test_real_csv_matches_reference(corpus_reports):
    for w, report, cand in corpus_reports:
        EQUIVALENCES["csv"].holds(lambda: (report["rows"],))
        EQUIVALENCES["csv"].holds(lambda: (list(certify(cand, w.f, w.g, w.op).records),))


def formatter_sizes(monkeypatch) -> list[int]:
    """Sizes of the columns the float formatter gets from now on."""
    sizes = []

    def counted(values):
        sizes.append(np.size(values))
        return _format_floats(values)

    monkeypatch.setattr(reporting, "_format_floats", counted)
    return sizes


def certificate_floats(cert) -> int:
    """The floats of a certificate's text, each moment point counted once."""
    n_atoms, dim = len(cert.witness.table.points), cert.witness.f.dim
    n_events, n_leaves = len(cert.slack), cert.witness.filtration.n_leaves
    return n_atoms * (dim + 3) + len(cert.weights) + 5 * n_events + n_leaves


def test_certificate_formats_each_point_once(monkeypatch, corpus_reports):
    # a certificate under two blocks of floats goes through the column
    # formatter in one call, the moment columns with one entry per atom,
    # although the text writes a point as a record's base, as a child and
    # as a leaf's point
    w, _, cand = corpus_reports[-1]
    cert = certify(cand, w.f, w.g, w.op)
    sizes = formatter_sizes(monkeypatch)
    certificate_to_dict(cert)
    assert sizes == [certificate_floats(cert)]
    assert sizes[0] < 2 * certifier._BLOCK


@pytest.mark.parametrize("block", [1, 40, 300])
def test_certificate_text_is_the_same_in_any_blocks(monkeypatch, corpus_reports, block):
    # blocks of one record or leaf, blocks that end inside the records or
    # the leaves and blocks that hold both give the one-block text
    monkeypatch.setattr(certifier, "_BLOCK", block)
    for w, _, cand in corpus_reports:
        EQUIVALENCES["certificate"].holds(lambda: (cand, w, 1e-9))


FLOAT_COLUMN = st.lists(
    st.one_of(floats, st.floats(min_value=-1e-300, max_value=1e-300)), max_size=40
)


@examples(300)
@given(FLOAT_COLUMN)
def test_format_floats_matches_format_float(col):
    format_floats(np.array(col, dtype=float))
    if len(col) % 2 == 0:
        # a 2-D column is formatted flat, in row order
        format_floats(np.array(col, dtype=float).reshape(-1, 2))


# --- the column kernel -----------------------------------------------------


def format_floats(values) -> None:
    """The column formatter against ``_format_float`` on each float."""
    EQUIVALENCES["format_floats"].holds(lambda: (values,))


def ulps_around(x: float, n: int = 64) -> np.ndarray:
    """The 2n + 1 doubles from n ulps below x to n ulps above, both signs."""
    bits = np.float64(x).view(np.uint64).astype(np.int64) + np.arange(-n, n + 1)
    column = bits.astype(np.uint64).view(np.float64)
    return np.concatenate([column, -column])


def kernel_sizes(monkeypatch) -> list[int]:
    """Sizes of the chunks the column kernel formats from now on."""
    sizes = []
    kernel = reporting._format_window

    def counted(x):
        sizes.append(len(x))
        return kernel(x)

    monkeypatch.setattr(reporting, "_format_window", counted)
    return sizes


# any double, subnormals, NaN payloads, infinities and signed zeros among them
RAW_BITS = st.integers(min_value=0, max_value=2**64 - 1)
# doubles of either sign with exponents in and around the kernel's window
WINDOW_BITS = st.builds(
    lambda sign, exponent, mantissa: (sign << 63) | (exponent << 52) | mantissa,
    st.integers(0, 1),
    st.integers(1023 - 40, 1023 + 56),
    st.integers(0, 2**52 - 1),
)


@examples(300)
@given(st.lists(st.one_of(RAW_BITS, WINDOW_BITS), min_size=1, max_size=64))
def test_kernel_matches_format_float_on_bit_patterns(patterns):
    # tiled to the kernel's minimum, so the kernel takes every in-window entry
    col = np.resize(np.array(patterns, dtype=np.uint64).view(np.float64), reporting._KERNEL_MIN)
    format_floats(col)


def test_kernel_rounds_exact_ties_half_to_even(monkeypatch):
    # x = c * 2**-m with c odd has the exact decimal c * 5**m * 10**-m; with
    # c * 5**m of 18 digits, the 17-digit rounding is an exact tie
    rng = np.random.default_rng(5)
    ties = []
    for m in range(2, 26):
        lo, hi = -(-(10**17) // 5**m), min(10**18 // 5**m, 2**53)
        for c in rng.integers(lo, hi, 400).tolist():
            c |= 1
            if c < hi and len(str(c * 5**m)) == 18:
                ties.append(c / 2**m)
    col = np.array(ties + [-t for t in ties])
    assert len(col) > 9000
    sizes = kernel_sizes(monkeypatch)
    format_floats(col)
    assert sum(sizes) == len(col)


def test_kernel_near_powers_of_ten_and_window_edges(monkeypatch):
    # 64 ulps either side of 10**k for k = -12 .. 16, where log10 needs the
    # fix-up, and of both window edges
    points = [10.0**k for k in range(-12, 17)] + list(reporting._WINDOW)
    col = np.concatenate([ulps_around(x) for x in points])
    sizes = kernel_sizes(monkeypatch)
    format_floats(col)
    size = np.abs(col)
    inside = (size >= reporting._WINDOW[0]) & (size < reporting._WINDOW[1])
    assert sum(sizes) == len(col) and np.count_nonzero(inside) > 0.8 * len(col)


def test_no_double_in_the_window_rounds_up_to_a_power_of_ten():
    # the kernel has no carry from 10**17 - 1 up to 10**17: the largest
    # double below each power of ten rounds to at most 10**17 - 1
    for j in range(reporting._K_LO + 1, reporting._K_HI + 2):
        power = Fraction(10) ** j
        below = float(power)
        if Fraction(below) >= power:
            below = math.nextafter(below, 0.0)
        scaled = Fraction(below) * Fraction(10) ** (17 - j)
        assert scaled < 10**17 - Fraction(1, 2)


def test_kernel_sweep_on_both_sides_of_the_crossover():
    rng = np.random.default_rng(2024)
    n = 120_000
    col = 10.0 ** rng.uniform(-14, 18, n) * rng.choice([-1.0, 1.0], n)
    col[::5] = np.round(col[::5], int(rng.integers(0, 6)))  # trailing zeros
    dyadic = col[1::7]
    dyadic[:] = rng.integers(-(10**6), 10**6, len(dyadic)) / 2.0 ** rng.integers(0, 40, len(dyadic))
    col[2::11] = rng.integers(-(10**16), 10**16, len(col[2::11])).astype(float)
    col[3::101] = 0.0
    col[4::997] = np.nan
    col[5::997] = -np.inf
    cut = reporting._KERNEL_MIN
    lengths = itertools.cycle([1, 40, cut - 1, cut, cut + 1, 3 * cut, reporting._CHUNK + 7, 50000])
    start = 0
    while start < len(col):
        stop = start + next(lengths)
        format_floats(col[start:stop])
        start = stop


def test_kernel_writes_zeros_beside_the_odd_values():
    # signed zeros go through the kernel, NaN, infinities, subnormals and
    # values outside the window through the per-float rule, on both sides
    # of a chunk edge
    rng = np.random.default_rng(5)
    n = reporting._CHUNK + 64
    col = 10.0 ** rng.uniform(-6, 6, n) * rng.choice([-1.0, 1.0], n)
    odd = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, 1e-300, 3e17, -0.0, 0.0]
    for at in (0, reporting._CHUNK - 5, reporting._CHUNK + 1, len(col) - len(odd)):
        col[at : at + len(odd)] = odd
    col[7::97] = 0.0
    format_floats(col)


@pytest.mark.parametrize("chunk", [1, 7, 600])
def test_kernel_chunks_keep_every_text(monkeypatch, chunk):
    # chunks of one float, of a few and of more than the kernel's least
    # column, with zeros and odd values on their edges, give the per-float
    # texts
    n = 3 * reporting._KERNEL_MIN + 5
    col = oracles.float_column(6, n)
    monkeypatch.setattr(reporting, "_CHUNK", chunk)
    sizes = kernel_sizes(monkeypatch)
    format_floats(col)
    assert sizes == [chunk] * (n // chunk) + [n % chunk] * (n % chunk > 0)


def test_kernel_reads_2d_columns_in_c_order():
    rng = np.random.default_rng(3)
    shape = (reporting._KERNEL_MIN, 3)
    values = 10.0 ** rng.uniform(-6, 6, shape) * rng.choice([-1.0, 1.0], shape)
    values[::9, 1] = 0.0
    format_floats(values)
    format_floats(np.asfortranarray(values))


def test_deep_certificates_match_record_walk_through_the_kernel(monkeypatch):
    # a deep certificate is written in blocks: every block goes through the
    # column kernel, and the blocks' floats add up to the certificate's, so
    # each point is formatted once; at dyadic depth 9 in d = 2 and on the
    # depth-12 random tower at floor 0.25
    sizes = formatter_sizes(monkeypatch)
    regular = build_random_regular(depth=12, delta=0.25, max_children=3, split_prob=0.7, seed=9)
    for filt in (build_dyadic(9), regular):
        w, cand = oracles.witness_of(filt, 2, 9), quadratic_candidate(filt.delta)
        sizes.clear()
        EQUIVALENCES["certificate"].holds(lambda: (cand, w, 1e-9))
        assert min(sizes) >= reporting._KERNEL_MIN
        assert sum(sizes) == certificate_floats(certify(cand, w.f, w.g, w.op))
        if filt.n_leaves == 512:
            assert sum(sizes) == 9204 and len(sizes) >= 4


def test_certificate_text_holds_little_beside_itself():
    # the float texts, the points and the records are built one block at a
    # time, and the records and leaves are kept as their blocks, not joined
    filt = build_dyadic(12)
    rng = np.random.default_rng(12)
    f, g = random_witness(filt, 1, rng)
    cert = certify(quadratic_candidate(0.5), f, g, random_transform(filt, 1, rng))
    payload, held, peak = traced(lambda: certificate_to_dict(cert))
    assert peak <= 2.5 * held
    records = payload["records"]
    assert len(records) > 1 and all(type(block) is Verbatim for block in records)
    assert held >= sum(len(block.text) for block in records)


def test_verbatim_text_is_written_as_is():
    payload = {"a": Verbatim('[1,{"b":NaN}]'), "c": [Verbatim("0"), -0.0]}
    assert to_canonical_json(payload) == '{"a":[1,{"b":NaN}],"c":[0,0]}\n'
    # the text is written in a nested dict, a list or at the top
    text = Verbatim('[1,{"b":2}]')
    nested = {"x": {"y": text, "z": {}}, "w": [text]}
    assert to_canonical_json(nested) == '{"x":{"y":[1,{"b":2}],"z":{}},"w":[[1,{"b":2}]]}\n'
    assert to_canonical_json(text) == '[1,{"b":2}]\n'
    # a list of blocks writes the brackets and commas of one joined array
    blocks = {"r": [Verbatim('1,{"b":2}'), Verbatim("3"), Verbatim('"x"')], "s": []}
    assert to_canonical_json(blocks) == '{"r":[1,{"b":2},3,"x"],"s":[]}\n'
    for p in (payload, nested, blocks):
        EQUIVALENCES["canonical_json"].holds(lambda: (p,))
    # no other serializer quotes the text as a JSON string
    with pytest.raises(TypeError):
        json.dumps(payload)


def test_format_float_special_values():
    assert _format_float(float("nan")) == "NaN"
    assert _format_float(float("inf")) == "Infinity"
    assert _format_float(float("-inf")) == "-Infinity"
    assert _format_float(-0.0) == "0"
    assert _format_float(0.0) == "0"
    assert _format_float(1.0) == "1"


def test_format_float_is_seventeen_digits_not_shortest():
    # exact round-trip, but longer than repr where repr is shorter
    assert _format_float(0.1) == "0.10000000000000001"
    assert float(_format_float(0.1)) == 0.1
    assert _format_float(0.5) == "0.5"


@examples(200)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_roundtrips(x):
    assert float(_format_float(x)) == x


def test_canonical_json_basics():
    text = to_canonical_json({"b": 1, "a": [1.5, True, None, "x"]})
    assert text.endswith("\n")
    assert text == to_canonical_json({"b": 1, "a": [1.5, True, None, "x"]})
    # insertion order of keys is preserved, not sorted
    assert text.index('"b"') < text.index('"a"')


def test_canonical_json_handles_specials():
    text = to_canonical_json({"v": [1.0, -0.0], "n": float("nan")})
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
