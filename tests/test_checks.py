"""Check-suite layer: row structure, per-suite pass behavior, tolerance
scaling through the environment, one T* g, moment table, event-chain set and
uncentered cut pass per witness (per corpus cell, and per ``run_all`` and
``certify`` pair on one triple, whose shared witness keeps every report
byte and holds one triple only), the stacked passes of one call, the
witness's refusal of a mismatched triple, the per-level localization and
restriction kernels against the per-event routes they replaced, the event
chains against the runs of leaves they replaced, bit for bit, the memory
the chains and the projection suite take at dyadic depth 15, the support
suite's mask passes against its per-atom loops and its atom mask against
``np.isin``, a NaN that keeps its rows red, and the matrix-free production
path: no suite, certificate, moment point or duality bound builds the
dense matrix, on small cells or at dyadic depth 12."""

from __future__ import annotations

import re
import sys
import weakref

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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
    _row,
    hoelder_mean_margin,
    restriction_identity_gaps,
    run_all,
    run_suites,
)
from mblab.corpus import (
    CorpusCell,
    active_split_function,
    default_corpus,
    max_children_for,
    prepare_cell,
    random_transform,
    random_witness,
)
from mblab.filtration import Filtration, build_dyadic, build_random_regular, level_partition
from mblab.martingale import MartFunction, inner, l2_norm
from mblab.reporting import to_canonical_json
from mblab.transforms import MartingaleTransform, split_multiplier_norm
from conftest import examples, traced
import oracles
from oracles import (
    SpanFed,
    _blocks,
    _level_difference,
    _level_differences,
    _level_means,
    adjoint_by_levels,
    average,
    level_map,
    level_osc2,
    operator_norm,
)


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
    rng = np.random.default_rng(7)
    f, g = random_witness(kernel_tower, 2, rng)
    triples = [(pc.f, pc.g, pc.op) for pc in small_cells]
    triples.append((f, g, random_transform(kernel_tower, 2, rng)))
    for f, g, op in triples:
        filt = f.filtration
        for p in (2.0, 1.5):
            w = Witness(f, g, op, p)
            for n in range(filt.depth + 1):
                ids = level_partition(filt, n)
                assert np.array_equal(w.table.osc2[ids], level_osc2(filt, w.tstar_g.values, n))
            for atom in oracles.atoms(filt):
                assert np.array_equal(w.table.tstar_mean[atom.id], average(w.tstar_g, atom.id))


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
        assert estimator.duality_bound(p, n_g=4, seed=1).ok
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
# Reference routes: the per-event localization and restriction suites that
# the per-level kernel replaced, kept verbatim as oracles, and the per-atom
# support suite that the mask passes replaced.  Each pushes one
# full-length L-leaf piece or cut per split event through every level, in
# blocks of at most ``oracles._STACK_VALUES`` leaf values.


def _at_events(filt: Filtration, per_level, spans: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Pick, for each atom J (leaf span, level n), entry J of the per-A_n-atom
    array ``per_level(n)``; J is the A_n atom holding its first leaf."""
    out = np.empty(len(levels))
    for n in np.unique(levels).tolist():
        at = levels == n
        out[at] = per_level(n)[level_map(filt, n)[spans[at, 0]]]
    return out


def _inside(spans: np.ndarray, n_leaves: int) -> np.ndarray:
    """Boolean (len(spans), L) mask of the leaves inside each span."""
    leaf = np.arange(n_leaves)
    return (spans[:, :1] <= leaf) & (leaf < spans[:, 1:])


def check_localization(
    f: MartFunction,
    g: MartFunction,
    op: MartingaleTransform,
    tol: Tolerances,
    rng: np.random.Generator,
) -> list[dict]:
    """Single-split inputs localize: T of a split difference at J is
    supported in J, and the adjoint commutes with the split difference up to
    the multiplier of that atom."""
    filt = f.filtration
    lay = filt.layout
    L = filt.n_leaves
    outside = 0.0
    for blk in _blocks(len(lay.event_atoms), L * f.dim):
        # One random function per event in schedule order: the same draws as
        # calling random_function once per event.
        raw = rng.normal(size=(blk.stop - blk.start, L, f.dim))
        levels = lay.event_levels[blk]
        pieces = np.empty_like(raw)
        for n in np.unique(levels).tolist():
            pieces[levels == n] = _level_difference(filt, raw[levels == n], n)
        inside = _inside(oracles.event_spans(lay)[blk], L)
        pieces[~inside] = 0.0
        th = np.array([op.apply(MartFunction(filt, piece)).values[:, 0] for piece in pieces])
        outside = max(outside, float(np.max(np.abs(th[~inside]), initial=0.0)))

    # On an atom J split at level n, the level-n difference is J's split
    # difference, and T* multiplies it by the level-(n+1) multiplier of J.
    commute = 0.0
    tstar_g = adjoint_by_levels(op, g.values)
    diffs = zip(_level_differences(filt, g.values), _level_differences(filt, tstar_g))
    for n, (dsg, dtg) in enumerate(diffs, start=1):
        err = np.abs(dtg - oracles.multiplier_on_leaves(op, n) * dsg)
        commute = max(commute, float(np.max(err)))
    return [
        _row("localization_support", outside, tol.exact, "T of split piece outside atom"),
        _row("localization_adjoint", commute, tol.tight, "adjoint split vs multiplier"),
    ]


def _cut_adjoints(
    op: MartingaleTransform, values: np.ndarray, spans: np.ndarray, shifts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For each span J, osc2 over I and squared norm of T*((v - s_J) 1_J),
    with v the scalar leaf values and s_J the shift of J."""
    filt = op.filtration
    m = filt.layout.measures
    root = oracles.root(filt)
    osc = np.empty(len(spans))
    norm_sq = np.empty(len(spans))
    for blk in _blocks(len(spans), filt.n_leaves * op.dim):
        inside = _inside(spans[blk], filt.n_leaves)
        cuts = np.where(inside, values[None, :] - shifts[blk, None], 0.0)
        x = np.array([op.adjoint_closed_form(MartFunction(filt, cut)).values for cut in cuts])
        centered = x - _level_means(filt, x, 0)
        osc[blk] = np.einsum("bij,bij->bi", centered, centered) @ m / root.measure
        norm_sq[blk] = np.einsum("bij,bij->bi", x, x) @ m
    return osc, norm_sq


def _restriction_sides(g: MartFunction, op: MartingaleTransform) -> tuple[np.ndarray, ...]:
    """Per non-root split atom J, in schedule order: leaf span, level,
    measure, local side osc2(T* g, J) and rescaled global side
    (|I|/|J|) osc2(T*(g 1_J), I)."""
    filt = g.filtration
    lay = filt.layout
    below_root = lay.event_levels > 0
    spans = oracles.event_spans(lay)[below_root]
    levels = lay.event_levels[below_root]
    measures = _at_events(filt, lambda n: oracles.level_measures(lay, n), spans, levels)
    tstar_g = op.adjoint_apply(g).values
    local = _at_events(filt, lambda n: level_osc2(filt, tstar_g, n), spans, levels)
    cut_osc, _ = _cut_adjoints(op, g.values[:, 0], spans, np.zeros(len(spans)))
    return spans, levels, measures, local, (filt.total_measure / measures) * cut_osc


def check_restriction(
    f: MartFunction,
    g: MartFunction,
    op: MartingaleTransform,
    tol: Tolerances,
    rng: np.random.Generator,
) -> list[dict]:
    """One-sided restriction bound: the local oscillation of T* g over J is
    dominated by the rescaled global oscillation of T* applied to g cut to
    J.  Ancestor splits make the global side strictly larger in general."""
    _, _, _, local, glob = _restriction_sides(g, op)
    worst = float(np.max((local - glob) / np.maximum(1.0, local), initial=0.0))
    return [_row("restriction_bound", worst, tol.tight, "local minus rescaled global")]


def check_support(
    f: MartFunction,
    g: MartFunction,
    op: MartingaleTransform,
    tol: Tolerances,
    rng: np.random.Generator,
) -> list[dict]:
    """Transforms of functions built from a known active split set stay
    supported in the union of those atoms, and the hull lists no atom
    outside them: one leaf slice per active atom, and the hull per level
    from that level's difference, one A_{n-1} atom at a time."""
    filt = f.filtration
    h, active = active_split_function(filt, f.dim, rng)
    covered = np.zeros(filt.n_leaves, dtype=bool)
    for atom_id in active:
        covered[oracles.leaf_slice(filt, atom_id)] = True
    err = float(np.max(np.abs(op.apply(h).values[~covered]), initial=0.0))
    threshold = 1e-12 * max(1.0, float(np.max(np.abs(h.values))))
    hull_err = 0.0
    for n, diff in enumerate(_level_differences(filt, h.values), start=1):
        for atom_id in level_partition(filt, n - 1).tolist():
            if np.max(np.abs(diff[oracles.leaf_slice(filt, atom_id)])) > threshold and atom_id not in active:
                hull_err += 1.0
    return [
        _row("support_containment", err, tol.exact, f"{len(active)} active atoms"),
        _row("support_hull", hull_err, 0.0, "hull atoms outside the active set"),
    ]


def reference_identity_gaps(g: MartFunction, op: MartingaleTransform) -> tuple[float, float]:
    """Worst relative gaps, over the non-root split atoms J, in the two exact
    restriction identities; both are roundoff on a correct transform.

    With c = <g>_J, the centered cut (g - c) 1_J has no mass on any split
    outside J, so T* localizes:

        osc2(T* g, J) = (|I|/|J|) osc2(T*((g - c) 1_J), I).

    The uncentered cut g 1_J lets the strict ancestors of J see c, and the
    rescaled global side exceeds the local one by exactly c^2 ||T* 1_J||^2/|J|.

    Returns (centered gap relative to the larger side, defect gap relative to
    max(1, defect)).  Not a registered suite, so ``run_all`` rows do not
    include it.
    """
    filt = g.filtration
    spans, levels, measures, local, glob = _restriction_sides(g, op)
    c = _at_events(filt, lambda n: _level_means(filt, g.values, n)[:, 0], spans, levels)
    centered_osc, _ = _cut_adjoints(op, g.values[:, 0], spans, c)
    centered = (filt.total_measure / measures) * centered_osc
    scale = np.maximum(np.maximum(local, centered), 1e-30)
    centered_worst = float(np.max(np.abs(local - centered) / scale, initial=0.0))
    _, ones_sq = _cut_adjoints(op, np.ones(filt.n_leaves), spans, np.zeros(len(c)))
    defect = c * c * ones_sq / measures
    gap = np.abs((glob - local) - defect) / np.maximum(1.0, defect)
    return centered_worst, float(np.max(gap, initial=0.0))


# ---------------------------------------------------------------------------
# Per-level kernel against the reference routes


def _witness(filt, dim, seed):
    rng = np.random.default_rng(seed)
    f, g = random_witness(filt, dim, rng)
    return f, g, random_transform(filt, dim, rng)


def _fixed(rows):
    """Every field of the rows but max_err."""
    return [{k: v for k, v in r.items() if k != "max_err"} for r in rows]


def _rel(new, ref, floor=0.0):
    new, ref = np.asarray(new), np.asarray(ref)
    return float(np.max(np.abs(new - ref) / np.maximum(np.abs(ref), floor), initial=0.0))


def _assert_matches_reference(f, g, op):
    tol = Tolerances()
    # Every max_err here is roundoff of an exact zero.  localization_support
    # reads mean-zero pieces, restriction_bound local - global where the two
    # sides meet.  localization_adjoint reads T* g through the stacked
    # closed form, the reference through the level-by-level one, and their
    # roundoff grows with the size of T* g.
    scale = max(1.0, float(np.max(np.abs(op.adjoint_closed_form(g).values))))
    gaps = {
        "localization_support": 1e-15,
        "localization_adjoint": 1e-15 * scale,
        "restriction_bound": 1e-12,
    }
    for new_suite, ref_suite in (
        (checks.check_localization, check_localization),
        (checks.check_restriction, check_restriction),
    ):
        new_rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        new = new_suite(Witness(f, g, op), tol, new_rng)
        # the reference's full-length draws carry the new route's numbers
        # on each event's atom
        events = range(len(f.filtration.layout.event_atoms))
        ref = ref_suite(f, g, op, tol, SpanFed(ref_rng, f.filtration, events))
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state
        assert _fixed(new) == _fixed(ref)
        for a, b in zip(new, ref):
            assert abs(a["max_err"] - b["max_err"]) <= gaps[a["check"]], (a, b)

    w = Witness(f, g, op)
    chains = w.event_chains
    _, new_local, new_glob = w.restriction_sides
    spans, _, _, ref_local, ref_glob = _restriction_sides(g, op)
    # the local side is osc2 of T* g over J: tiny on some deep atoms, where
    # the two adjoint routes differ by roundoff of the O(1) leaf values
    assert _rel(new_local, ref_local, floor=1.0) <= 1e-12
    assert _rel(new_glob, ref_glob) <= 1e-12

    shifts = np.random.default_rng(11).normal(size=len(spans))
    for values in (g.values[:, 0], np.ones(f.filtration.n_leaves)):
        for s in (shifts, np.zeros(len(spans))):
            new = transforms._cut_adjoints(op, chains, values, s)
            ref = _cut_adjoints(op, values, spans, s)
            assert _rel(new[0], ref[0]) <= 1e-12
            assert _rel(new[1], ref[1]) <= 1e-12

    new_rng, ref_rng = np.random.default_rng(12), np.random.default_rng(12)
    assert checks.check_support(w, tol, new_rng) == check_support(f, g, op, tol, ref_rng)

    # Both gaps are relative roundoff on a correct transform.  The centered
    # gap reaches a few 1e-12 in either route on atoms whose local side is
    # tiny, so the new route is held to the reference's gap plus 1e-12.
    new_gaps = checks.restriction_identity_gaps(w)
    ref_gaps = reference_identity_gaps(g, op)
    assert all(a <= b + 1e-12 for a, b in zip(new_gaps, ref_gaps)), (new_gaps, ref_gaps)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_osc_series_matches_level_loop(small_cells, kernel_tower, dim):
    # the series summed on all stacked rows keeps the row of the per-level
    # loop, every float of it: children add in child order either way
    witnesses = [Witness(*_witness(kernel_tower, dim, 80 + seed)) for seed in range(6)]
    witnesses += [Witness(pc.f, pc.g, pc.op) for pc in small_cells if pc.f.dim == dim]
    tol = Tolerances()
    for w in witnesses:
        rows = checks.check_osc_series(w, tol, None)
        assert rows == oracles.check_osc_series_by_levels(w, tol, None)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_support_mask_matches_isin(monkeypatch, kernel_tower, dim):
    # the hull's atoms looked up in a boolean mask count as np.isin counted
    # them, on the honest active set and on one with an active atom left
    # out, whose hull rows then count
    honest = checks.active_split_function

    def short(*args):
        h, active = honest(*args)
        return h, active[1:]

    tol = Tolerances()
    for active_set in (honest, short):
        monkeypatch.setattr(checks, "active_split_function", active_set)
        monkeypatch.setattr(oracles, "active_split_function", active_set)
        for seed in range(6):
            w = Witness(*_witness(kernel_tower, dim, 70 + seed))
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            rows = checks.check_support(w, tol, rng)
            assert rows == oracles.check_support_by_isin(w, tol, ref_rng)
            assert rng.random() == ref_rng.random()
            assert (rows[1]["max_err"] > 0) == (active_set is short)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_per_level_suites_match_per_event_route(kernel_tower, dim):
    f, g, op = _witness(kernel_tower, dim, 40 + dim)
    _assert_matches_reference(f, g, op)


@pytest.mark.parametrize("dim", [1, 2])
def test_cut_blocks_keep_every_float(monkeypatch, kernel_tower, dim):
    # the cut rows pushed one or two at a time give the floats of one push
    # of the whole stack, for any cut values and shifts
    f, g, op = _witness(kernel_tower, dim, 50 + dim)
    chains = Witness(f, g, op).event_chains
    shifts = np.random.default_rng(51).normal(size=len(chains.levels))
    cases = [(g.values[:, 0], shifts), (g.values[:, 0], 0 * shifts), (np.ones(len(g.values)), shifts)]

    def passes():
        w = Witness(f, g, op)
        cuts = [transforms._cut_adjoints(op, chains, v, s) for v, s in cases]
        return [*np.concatenate(cuts), *w.restriction_sides, *checks.restriction_identity_gaps(w)]

    whole = passes()
    rows = len(kernel_tower.layout.stacked_measures)
    for stack in (1, 2 * rows):
        monkeypatch.setattr(transforms, "_CUT_STACK", stack)
        assert all(np.array_equal(a, b) for a, b in zip(passes(), whole, strict=True))


def _assert_chains_match_runs(f, g, op):
    # the chains and the diagonal sums give every float of the runs of
    # leaves they replaced: both outputs of the cuts, for cut values g and 1
    # and zero, centered and random shifts, pushed in one block or one cut
    # row at a time, and the localization rows
    w = Witness(f, g, op)
    chains, runs = w.event_chains, oracles._event_runs(op)
    c = w.restriction_sides[0]
    shifts = np.random.default_rng(61).normal(size=len(c))
    g0, ones = g.values[:, 0], np.ones(len(g.values))
    cases = [(g0, 0 * c), (g0, c), (ones, 0 * c), (g0, shifts), (ones, shifts)]
    refs = [oracles._cut_adjoints(op, runs, v, s) for v, s in cases]
    for stack in (transforms._CUT_STACK, 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(transforms, "_CUT_STACK", stack)
            for (v, s), ref in zip(cases, refs):
                new = transforms._cut_adjoints(op, chains, v, s)
                assert all(np.array_equal(a, b) for a, b in zip(new, ref, strict=True))
    new_rows = checks.check_localization(w, Tolerances(), np.random.default_rng(62))
    ref_rows = oracles.check_localization_by_runs(w, Tolerances(), np.random.default_rng(62))
    assert new_rows == ref_rows


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_event_chains_keep_every_float_of_the_runs(kernel_tower, dim):
    _assert_chains_match_runs(*_witness(kernel_tower, dim, 60 + dim))


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
@given(
    depth=st.integers(1, 7),
    delta=st.sampled_from([0.1, 0.25, 1.0 / 3.0]),
    tower_seed=st.integers(0, 10_000),
    dim=st.integers(1, 3),
)
# towers on which the dense-matrix T* g once put the reference past the gap
@example(depth=7, delta=0.1, tower_seed=229, dim=1)
@example(depth=7, delta=0.1, tower_seed=3431, dim=2)
def test_per_level_suites_match_on_random_towers(depth, delta, tower_seed, dim):
    filt = build_random_regular(depth, delta, max_children_for(delta), 0.7, tower_seed)
    f, g, op = _witness(filt, dim, tower_seed + 1)
    _assert_matches_reference(f, g, op)
    _assert_chains_match_runs(f, g, op)


# ---------------------------------------------------------------------------
# The suites can go red: a wrong piece or cut shows in both routes

_THIS = sys.modules[__name__]


def test_localization_red_on_offset_piece(monkeypatch, kernel_tower):
    f, g, op = _witness(kernel_tower, 2, 3)
    # every piece 1e-6 off where the kernels return it: the atom steps of
    # the diagonal route, the level difference of the reference
    exact_steps = checks._diagonal_steps
    monkeypatch.setattr(
        checks, "_diagonal_steps", lambda filt, v, first=0: exact_steps(filt, v, first) + 1e-6
    )
    exact = _level_difference
    monkeypatch.setattr(
        _THIS, "_level_difference", lambda filt, v, n: exact(filt, v, n) + 1e-6
    )
    for rows in (
        checks.check_localization(Witness(f, g, op), Tolerances(), np.random.default_rng(4)),
        check_localization(f, g, op, Tolerances(), np.random.default_rng(4)),
    ):
        assert rows[0]["check"] == "localization_support"
        assert not rows[0]["ok"], rows[0]


def test_restriction_probe_red_on_scaled_cut(monkeypatch, kernel_tower):
    f, g, op = _witness(kernel_tower, 2, 5)
    w = Witness(f, g, op)
    w.tstar_g  # T* g itself stays exact
    # every cut 1 + 1e-6 times too large where it enters the adjoint kernel
    exact_steps = transforms._atom_steps
    monkeypatch.setattr(transforms, "_atom_steps", lambda filt, v: exact_steps(filt, v * (1 + 1e-6)))
    for centered, _ in (restriction_identity_gaps(w), reference_identity_gaps(g, op)):
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
