"""Check-suite layer: row structure, per-suite pass behavior, tolerance
scaling through the environment, one T* g, moment table, event-chain set and
uncentered cut pass per witness (per corpus cell, and per ``run_all`` and
``certify`` pair on one triple, whose shared witness keeps every report
byte and holds one triple only), the stacked passes of one call, the
witness's refusal of a mismatched triple, the cases on which the suites'
kernels meet their oracles in ``oracles.EQUIVALENCES`` (the per-event
routes, the runs of leaves, the per-atom loops and ``np.isin``), the
memory the chains and the projection suite take at dyadic depth 15, a NaN
that keeps its rows red, and the matrix-free production path: no suite,
certificate, moment point or duality bound builds the dense matrix, on
small cells or at dyadic depth 12."""

from __future__ import annotations

import re
import weakref

import numpy as np
import pytest
from hypothesis import example, given

import mblab.bellman as bellman
import mblab.certifier as certifier
import mblab.checks as checks
import mblab.cli as cli
import mblab.estimator as estimator
import mblab.martingale as martingale
import mblab.transforms as transforms
from mblab.bellman import Witness, quadratic_candidate
from mblab.certifier import certificate_to_dict, certify
from mblab.checks import (
    SUITES,
    Tolerances,
    hoelder_mean_margin,
    restriction_identity_gaps,
    run_all,
    run_suites,
)
from mblab.corpus import (
    CorpusCell,
    default_corpus,
    prepare_cell,
    random_transform,
    random_witness,
)
from mblab.filtration import build_dyadic
from mblab.martingale import MartFunction, inner, l2_norm
from mblab.reporting import to_canonical_json
from mblab.transforms import MartingaleTransform, split_multiplier_norm
from conftest import drawn, examples, regular_towers, traced
import oracles
from oracles import EQUIVALENCES, operator_norm, pass_size


def test_suite_names_are_stable():
    assert set(SUITES) == {
        "projections",
        "localization",
        "support",
        "osc_series",
        "x2_drop",
        "x2_sign",
        "restriction",
        "contraction",
    }


def test_all_suites_pass_on_small_cells(small_cells):
    rng = np.random.default_rng(0)
    for pc in small_cells:
        rows, ok = run_all(pc.f, pc.g, pc.op, rng=rng)
        assert ok, [r for r in rows if not r["ok"]]
        for r in rows:
            assert set(r) == {"check", "max_err", "tol", "ok", "detail"}
            assert r["max_err"] <= r["tol"]


def test_all_suites_pass_on_kernel_towers(kernel_tower):
    # deeper and uneven towers than the depth-2 small cells: the suites
    # work level by level, so nesting across many levels must line up
    rng = np.random.default_rng(5)
    f, g = random_witness(kernel_tower, 2, rng)
    op = random_transform(kernel_tower, 2, rng)
    rows, ok = run_all(f, g, op, rng=rng)
    assert ok, [r for r in rows if not r["ok"]]


def test_moment_table_osc2_and_tstar_mean_match_their_old_sources(small_cells, kernel_tower):
    # the osc-series and x2-sign suites and the duality bound read osc2 and
    # <T* g>_J off the table: they equal the direct routes bit for bit, on
    # every atom of every level, at p = 2 and below
    for w in [*small_cells, oracles.witness_of(kernel_tower, 2, 7)]:
        for p in (2.0, 1.5):
            EQUIVALENCES["table_columns"].holds(lambda: (Witness(w.f, w.g, w.op, p),))


def test_row_names_unique(small_cells):
    pc = small_cells[0]
    rows, _ = run_all(pc.f, pc.g, pc.op, rng=np.random.default_rng(1))
    names = [r["check"] for r in rows]
    assert len(names) == len(set(names))


def test_suite_selection(small_cells):
    pc = small_cells[0]
    w = Witness(pc.f, pc.g, pc.op)
    rows, ok = run_suites(w, rng=np.random.default_rng(2), suites=["x2_drop", "x2_sign"])
    assert ok
    assert {r["check"] for r in rows} == {"x2_drop", "x2_sign", "x2_root_mean_bound"}


def test_unknown_suite_raises(small_cells):
    pc = small_cells[0]
    w = Witness(pc.f, pc.g, pc.op)
    with pytest.raises(KeyError):
        run_suites(w, Tolerances(), np.random.default_rng(3), suites=["no_such_suite"])


def test_tolerance_scale_from_env(monkeypatch):
    monkeypatch.delenv("MBL_TOL", raising=False)
    base = Tolerances.from_env()
    assert base.scale == 1.0
    assert base.tight == pytest.approx(1e-9)
    assert base.exact == pytest.approx(1e-12)
    assert (base.mean_bound, base.duality) == (1e-10, 1e-6)
    monkeypatch.setenv("MBL_TOL", "1000")
    wide = Tolerances.from_env()
    assert wide.scale == 1000.0
    assert wide.tight == pytest.approx(1e-6)
    assert (wide.mean_bound, wide.duality) == (1e-10 * 1000.0, 1e-6 * 1000.0)


@pytest.mark.parametrize("value", ["-2", "0", "inf", "nan"])
def test_bad_env_tolerance_rejected(monkeypatch, value):
    # a non-finite scale would turn every tolerance into inf or nan
    monkeypatch.setenv("MBL_TOL", value)
    with pytest.raises(ValueError):
        Tolerances.from_env()


# ---------------------------------------------------------------------------
# One witness: T* g, the moment table, the event chains and the uncentered
# cut pass once per call


def _count_derivations(monkeypatch) -> dict[str, int]:
    """Count calls of the closed-form adjoint, the moment table, the event
    chains and the uncentered cut pass (g cut to every split atom, unshifted),
    in every module that binds them.  The probe's other two cut passes, the
    centered cuts and the cuts of the constant 1, are not counted."""
    keys = ("adjoint_closed_form", "moment_table", "event_chains", "uncentered_cuts")
    counts = dict.fromkeys(keys, 0)
    closed_form = MartingaleTransform.adjoint_closed_form
    always = lambda *args: True

    def counted(key, func, when):
        def wrapper(*args):
            counts[key] += bool(when(*args))
            return func(*args)

        return wrapper

    monkeypatch.setattr(
        MartingaleTransform,
        "adjoint_closed_form",
        counted("adjoint_closed_form", closed_form, always),
    )
    uncentered = lambda op, chains, values, shifts: not shifts.any() and not (values == 1.0).all()
    wrappers = {
        "moment_table": ("moment_table", bellman.moment_table, always),
        "_event_chains": ("event_chains", transforms._event_chains, always),
        "_cut_adjoints": ("uncentered_cuts", transforms._cut_adjoints, uncentered),
    }
    for name, (key, func, when) in wrappers.items():
        wrapper = counted(key, func, when)
        for module in (transforms, bellman, checks, certifier):
            if getattr(module, name, None) is func:
                monkeypatch.setattr(module, name, wrapper)
    return counts


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_one_adjoint_and_one_table_per_call(monkeypatch, kernel_tower, dim):
    # run_all then certify on one triple share the witness; another p, or a
    # fresh triple with equal values, derives its own
    f, g, op = _witness(kernel_tower, dim, 20 + dim)
    counts = _count_derivations(monkeypatch)
    cand = quadratic_candidate(kernel_tower.delta)
    at_three_halves = quadratic_candidate(kernel_tower.delta, p=1.5, cp=1.0)
    twin = (MartFunction(kernel_tower, f.values), MartFunction(kernel_tower, g.values))
    twin_op = transforms.make_transform(kernel_tower, op.multipliers)

    def run_all_then(then):
        return lambda: (run_all(f, g, op, rng=np.random.default_rng(21)), then())

    # the certificate reads no event chains and no cuts
    calls = {
        "run_all": (lambda: run_all(f, g, op, rng=np.random.default_rng(21)), 1, 1),
        "certify": (lambda: certify(cand, f, g, op), 1, 0),
        "run_all, certify": (run_all_then(lambda: certify(cand, f, g, op)), 1, 1),
        "run_all, certify at p = 1.5": (
            run_all_then(lambda: certify(at_three_halves, f, g, op)), 2, 1
        ),
        "run_all, certify a twin": (run_all_then(lambda: certify(cand, *twin, twin_op)), 2, 1),
    }
    for name, (call, derived, read) in calls.items():
        bellman._shared_witness.cache_clear()
        counts.update(dict.fromkeys(counts, 0))
        call()
        assert counts == {
            "adjoint_closed_form": derived,
            "moment_table": derived,
            "event_chains": read,
            "uncentered_cuts": read,
        }, name


def test_one_corpus_cell_derives_each_object_once(monkeypatch, capsys):
    # the suites and both probes read the certificate's witness, and T is
    # applied once, to f: check_support takes T of its own input from the
    # steps it shares with the hull
    one_cell = default_corpus(seeds=1)[5:6]
    monkeypatch.setattr(cli, "default_corpus", lambda seeds: one_cell)
    counts = _count_derivations(monkeypatch)
    applied = []
    apply = MartingaleTransform.apply
    monkeypatch.setattr(MartingaleTransform, "apply", lambda op, h: applied.append(h) or apply(op, h))
    assert cli.run(["corpus", "--seeds", "1"]) == 0
    assert '"cells":1,' in capsys.readouterr().out
    assert counts == dict.fromkeys(counts, 1)
    assert len(applied) == 1


def test_stacked_passes_per_call(monkeypatch):
    # f, g and T* g go through the stacked kernel once, in the moment table;
    # run_all's other passes are T f, T* g, one pass of check_support's h
    # for both T h and its hull, the auxiliary draw of the projections and
    # the uncentered cuts
    pc = prepare_cell(default_corpus(seeds=1)[5])
    passes, support_inputs = [], []
    stacked = martingale._stacked_means
    counted = lambda filt, values: passes.append(values) or stacked(filt, values)
    for module in (martingale, bellman):
        monkeypatch.setattr(module, "_stacked_means", counted)
    active = checks.active_split_function

    def drawn(*args):
        support_inputs.append(active(*args))
        return support_inputs[-1]

    monkeypatch.setattr(checks, "active_split_function", drawn)
    run_all(pc.f, pc.g, pc.op, rng=np.random.default_rng(0))
    assert len(passes) <= 6, [v.shape for v in passes]
    [(h, _)] = support_inputs
    assert sum(v is h.values for v in passes) == 1
    passes.clear()
    # certify reads the witness run_all left: no pass of its own
    certify(quadratic_candidate(pc.f.filtration.delta), pc.f, pc.g, pc.op)
    assert passes == []


def _cold_and_warm(f, g, op, cand):
    """run_all's rows and the certificate's text of one triple, with the
    shared witness cleared before each call and then kept between them."""
    out = []
    for clear_between in (True, False):
        bellman._shared_witness.cache_clear()
        rows, ok = run_all(f, g, op, rng=np.random.default_rng(17))
        if clear_between:
            bellman._shared_witness.cache_clear()
        text = to_canonical_json(certificate_to_dict(certify(cand, f, g, op)))
        out.append((rows, ok, text))
    assert bellman._shared_witness.cache_info().hits == 1
    return out


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_shared_witness_keeps_every_byte_on_kernel_towers(kernel_tower, dim):
    f, g, op = _witness(kernel_tower, dim, 60 + dim)
    cold, warm = _cold_and_warm(f, g, op, quadratic_candidate(kernel_tower.delta))
    assert warm == cold


@pytest.mark.parametrize("delta", [0.1, 0.25, 1.0 / 3.0, 0.5])
def test_shared_witness_keeps_every_byte_on_corpus_cells(delta):
    pc = prepare_cell(CorpusCell(delta, 2, seed=5))
    cold, warm = _cold_and_warm(pc.f, pc.g, pc.op, quadratic_candidate(delta))
    assert warm == cold


def test_shared_witness_holds_one_triple(kernel_tower):
    a, b = _witness(kernel_tower, 2, 30), _witness(kernel_tower, 2, 31)
    run_all(*a, rng=np.random.default_rng(30))
    held = weakref.ref(bellman._shared_witness(*a, 2.0))
    assert bellman._shared_witness.cache_info().hits == 1  # run_all's witness
    certify(quadratic_candidate(kernel_tower.delta), *b)
    assert held() is None


def test_a_mismatched_triple_is_no_witness(kernel_tower):
    f, g, op = _witness(kernel_tower, 2, 12)
    elsewhere = build_dyadic(3)
    wide, _ = random_witness(kernel_tower, 3, np.random.default_rng(13))
    cases = {
        "witness components live on different filtrations": (
            f, MartFunction(elsewhere, np.ones(elsewhere.n_leaves)), op
        ),
        "g must be scalar valued": (f, MartFunction(kernel_tower, np.hstack((g.values, g.values))), op),
        "f has dim 3 but the transform expects 2": (wide, g, op),
    }
    cand = quadratic_candidate(kernel_tower.delta)
    for message, triple in cases.items():
        for build in (Witness, run_all, lambda *t: certify(cand, *t)):
            with pytest.raises(ValueError, match=re.escape(message)):
                build(*triple)


# ---------------------------------------------------------------------------
# Matrix-free production path


def _pays_no_matrix(f, g, op):
    filt = f.filtration
    run_all(f, g, op, rng=np.random.default_rng(6))
    w = certify(quadratic_candidate(filt.delta), f, g, op).witness
    w.table.check_x2([oracles.root(filt).id])
    restriction_identity_gaps(w)
    hoelder_mean_margin(w)
    assert "matrix" not in vars(op)


def test_production_paths_build_no_matrix_on_small_cells(small_corpus):
    # fresh cells: other tests build the dense oracle on the shared ones
    for pc in map(prepare_cell, small_corpus):
        assert "matrix" not in vars(pc.op)
        _pays_no_matrix(pc.f, pc.g, pc.op)


def test_production_paths_build_no_matrix_on_kernel_towers(kernel_tower):
    _pays_no_matrix(*_witness(kernel_tower, 2, 7))


def test_duality_bound_builds_no_matrix(monkeypatch):
    drawn = []

    def capture(*args, **kwargs):
        drawn.append(random_transform(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(estimator, "random_transform", capture)
    for p in (2.0, 1.5):
        assert estimator.duality_bound(p, draws=4, seed=1).ok
    assert len(drawn) == 2
    assert all("matrix" not in vars(op) for op in drawn)


def test_contraction_norm_red_past_the_unit_ball(kernel_tower):
    f, g, op = _witness(kernel_tower, 2, 8)
    # a split-atom multiplier of norm 1 + 1e-6, which make_transform would
    # reject: the root splits at level 0, so a_1(root) is one
    mults = op.multipliers.copy()
    mults[0] = (1.0 + 1e-6) * mults[0] / np.linalg.norm(mults[0])
    wide = MartingaleTransform(op.filtration, mults)
    row = checks.check_contraction(Witness(f, g, wide), Tolerances(), np.random.default_rng(9))[0]
    assert row["check"] == "contraction_norm"
    assert not row["ok"], row
    assert row["max_err"] == pytest.approx(1e-6, rel=1e-9)
    assert abs(operator_norm(wide) - split_multiplier_norm(wide)) <= 1e-12


def _nan_witness(where):
    """The dyadic depth-3 witness of ``default_rng(0)`` with one NaN: a leaf
    of g, or the root multiplier, set directly as the "wide" transforms
    above are, since make_transform refuses it."""
    filt = build_dyadic(3)
    f, g, op = _witness(filt, 2, 0)
    if where == "g":
        values = g.values.copy()
        values[3, 0] = np.nan
        return f, MartFunction(filt, values), op
    mults = op.multipliers.copy()
    mults[0, 0] = np.nan
    return f, g, MartingaleTransform(filt, mults)


NAN_RED = {"osc_series", "x2_sign", "x2_root_mean_bound"}


@pytest.mark.parametrize(
    "where, red",
    [("g", NAN_RED), ("multiplier", NAN_RED | {"contraction_norm", "contraction_ratio"})],
)
def test_a_nan_stays_red(where, red):
    # max(0.0, nan) is 0.0: a clamp must keep NaN as its first argument
    rows, ok = run_all(*_nan_witness(where))
    by_check = {r["check"]: r for r in rows}
    assert not ok
    for name in red:
        assert np.isnan(by_check[name]["max_err"]) and not by_check[name]["ok"], by_check[name]


# ---------------------------------------------------------------------------
# Per-level kernel against the per-event routes it replaced, and the event
# chains against the runs of leaves they replaced (``oracles.EQUIVALENCES``)

# The per-event suites, the sides and cuts of the restriction probe and both
# identity gaps, held to tolerances of roundoff of an exact zero or of the
# two adjoint routes, and the per-atom support suite, exactly.
PER_EVENT = ("suites_by_events", "restriction_sides", "cuts_by_events", "identity_gaps", "support_loops")
# The cuts for cut values g and 1 and zero, centered and random shifts,
# pushed in one block or one cut row at a time, and the localization rows.
BY_RUNS = ("cuts_by_runs", "localization_runs")


def _witness(filt, dim, seed):
    w = oracles.witness_of(filt, dim, seed)
    return w.f, w.g, w.op


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_osc_series_matches_level_loop(small_cells, kernel_tower, dim):
    # the series summed on all stacked rows keeps the row of the per-level
    # loop, every float of it: children add in child order either way
    osc_series = EQUIVALENCES["osc_series"]
    for seed in range(6):
        osc_series.on(kernel_tower, dim, 80 + seed)
    for w in small_cells:
        if w.f.dim == dim:
            osc_series.holds(lambda: (w, Tolerances(), None))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_support_mask_matches_isin(monkeypatch, kernel_tower, dim):
    # the hull's atoms looked up in a boolean mask count as np.isin counted
    # them, on the honest active set and on one with an active atom left
    # out, whose hull rows then count
    honest = checks.active_split_function

    def short(*args):
        h, active = honest(*args)
        return h, active[1:]

    for active_set in (honest, short):
        monkeypatch.setattr(checks, "active_split_function", active_set)
        monkeypatch.setattr(oracles, "active_split_function", active_set)
        for seed in range(6):
            w = oracles.witness_of(kernel_tower, dim, 70 + seed)
            args = lambda: (w, Tolerances(), np.random.default_rng(seed))
            EQUIVALENCES["support_isin"].holds(args)
            assert (checks.check_support(*args())[1]["max_err"] > 0) == (active_set is short)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_per_level_suites_match_per_event_route(kernel_tower, dim):
    for name in PER_EVENT:
        EQUIVALENCES[name].on(kernel_tower, dim, 40 + dim)


@pytest.mark.parametrize("dim", [1, 2])
def test_cut_blocks_keep_every_float(kernel_tower, dim):
    # the cut rows pushed one or two at a time give the floats of one push
    # of the whole stack, for any cut values and shifts
    rows = len(kernel_tower.layout.stacked_measures)
    for stack in (1, 2 * rows):
        with pass_size("transforms._CUT_STACK", stack):
            EQUIVALENCES["restriction_blocks"].on(kernel_tower, dim, 50 + dim)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_event_chains_keep_every_float_of_the_runs(kernel_tower, dim):
    for name in BY_RUNS:
        EQUIVALENCES[name].on_every_size(kernel_tower, dim, 60 + dim)


def test_event_chains_hold_little_at_depth_15():
    # O(depth) numbers per event and no run of leaves: the runs' leaf and
    # owner arrays held 15.7 MB at this depth
    w = Witness(*_witness(build_dyadic(15), 1, 15))
    _, held, _ = traced(lambda: w.event_chains)
    assert held <= 10_000_000


def test_projections_peak_little_at_depth_15():
    # idempotence is compared on the stacked rows, so no (depth, L, d)
    # stack beyond the pieces and the auxiliary differences is made
    w = Witness(*_witness(build_dyadic(15), 1, 15))
    w.table
    rng = np.random.default_rng(0)
    _, _, peak = traced(lambda: checks.check_projections(w, Tolerances(), rng))
    assert peak <= 32_000_000


def test_restriction_sides_hold_little_at_depth_15():
    # a block of cut rows is at most _CUT_STACK stacked floats, so the
    # restriction sides of a deep witness take a few blocks' memory, not the
    # depth-14 stack's
    w = Witness(*_witness(build_dyadic(15), 1, 15))
    w.table, w.event_chains
    _, _, peak = traced(lambda: w.restriction_sides)
    assert peak <= 20_000_000


@examples(40)
@given(case=regular_towers(max_depth=7))
# towers on which the dense-matrix T* g once put the reference past the gap
@example(case=drawn(7, 0.1, 4, 0.7, 229, 1))
@example(case=drawn(7, 0.1, 4, 0.7, 3431, 2))
def test_per_level_suites_match_on_random_towers(case):
    for name in PER_EVENT:
        EQUIVALENCES[name].on(*case)
    for name in BY_RUNS:
        EQUIVALENCES[name].on_every_size(*case)


@pytest.mark.xfail(strict=True, reason="production centered gap 3.3e-11, per-event route's 1.2e-11")
def test_identity_gaps_on_a_deep_two_child_tower():
    EQUIVALENCES["identity_gaps"].on(*drawn(7, 0.25, 2, 0.7, 2, 2))


# ---------------------------------------------------------------------------
# The suites can go red: a wrong piece or cut shows in both routes

def test_localization_red_on_offset_piece(monkeypatch, kernel_tower):
    f, g, op = _witness(kernel_tower, 2, 3)
    # every piece 1e-6 off where the kernels return it: the atom steps of
    # the diagonal route, the level difference of the reference
    exact_steps = checks._diagonal_steps
    monkeypatch.setattr(
        checks, "_diagonal_steps", lambda filt, v, first=0: exact_steps(filt, v, first) + 1e-6
    )
    exact = oracles._level_difference
    monkeypatch.setattr(oracles, "_level_difference", lambda filt, v, n: exact(filt, v, n) + 1e-6)
    for suite in (checks.check_localization, oracles.check_localization_by_events):
        rows = suite(Witness(f, g, op), Tolerances(), np.random.default_rng(4))
        assert rows[0]["check"] == "localization_support"
        assert not rows[0]["ok"], rows[0]


def test_restriction_probe_red_on_scaled_cut(monkeypatch, kernel_tower):
    f, g, op = _witness(kernel_tower, 2, 5)
    w = Witness(f, g, op)
    w.tstar_g  # T* g itself stays exact
    # every cut 1 + 1e-6 times too large where it enters the adjoint kernel
    exact_steps = transforms._atom_steps
    monkeypatch.setattr(transforms, "_atom_steps", lambda filt, v: exact_steps(filt, v * (1 + 1e-6)))
    for centered, _ in (restriction_identity_gaps(w), oracles.identity_gaps_by_events(w)):
        assert centered > 1e-9


# ---------------------------------------------------------------------------
# Deep slice


def test_dyadic_depth_12_localization_and_restriction():
    filt = build_dyadic(12)
    f, g, op = _witness(filt, 1, 12)
    rng = np.random.default_rng(13)
    for name in ("localization", "restriction"):
        rows, _ = run_suites(Witness(f, g, op), Tolerances(), rng, suites=[name])
        assert all(r["ok"] for r in rows), rows
    centered, defect = restriction_identity_gaps(Witness(f, g, op))
    assert centered <= 1e-9 and defect <= 1e-9

    rows, ok = run_all(f, g, op, Tolerances(), rng)
    assert ok, [r for r in rows if not r["ok"]]
    assert certify(quadratic_candidate(0.5), f, g, op).ok

    # Power iteration on T*T through the two matrix-free routes: every
    # Rayleigh estimate ||Tx|| / ||x|| stays below the split-multiplier norm,
    # and for a positive operator the estimates never fall.
    norm = split_multiplier_norm(op)
    x = MartFunction(filt, np.random.default_rng(14).normal(size=(filt.n_leaves, 1)))
    estimates = []
    for _ in range(8):
        x = x * (1.0 / l2_norm(x))
        tx = op.apply(x)
        estimates.append(l2_norm(tx))
        tstar_tx = op.adjoint_closed_form(tx)
        assert inner(x, tstar_tx) == pytest.approx(inner(tx, tx), rel=1e-12)
        x = tstar_tx
    assert max(estimates) <= norm + 1e-12, (estimates, norm)
    assert all(b >= a - 1e-12 for a, b in zip(estimates, estimates[1:])), estimates
    assert "matrix" not in vars(op)


def test_run_all_dyadic_depth_14():
    # 16,384 leaves: every suite draws only its events' spans, so the
    # whole run stays O(L * depth) in draws
    filt = build_dyadic(14)
    f, g, op = _witness(filt, 1, 14)
    rows, ok = run_all(f, g, op, Tolerances(), np.random.default_rng(15))
    assert ok and len(rows) == 16, [r for r in rows if not r["ok"]]
    centered, defect = restriction_identity_gaps(Witness(f, g, op))
    assert centered <= 1e-9 and defect <= 1e-9
