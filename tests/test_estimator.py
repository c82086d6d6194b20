"""Scaling balance, norm-ratio scans, witness search, duality pipeline."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mblab
import mblab.estimator as est
import mblab.filtration as filtration
from mblab.bellman import Witness, conjugate_exponent, linear_candidate
from mblab.corpus import build_tower, cell_filtration, max_children_for
from mblab.estimator import (
    EstimateError,
    duality_bound,
    duality_candidate,
    kappa_constant,
    lower_bound_search,
    lp_constant_scan,
    optimal_lambda,
)
from mblab.martingale import MartFunction, inner, lp_norm
from conftest import examples, traced
import oracles
from oracles import EQUIVALENCES, average, hoelder_objective, same_bits, search_result, shift


# ---------------------------------------------------------------------------
# scaling balance


def test_optimal_lambda_reference_values():
    assert optimal_lambda(2.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert optimal_lambda(2.0, 1.0, 16.0) == pytest.approx(2.0, rel=1e-15)
    assert optimal_lambda(1.5, 1.0, 1.0) == pytest.approx(2.0 ** (2.0 / 9.0), rel=1e-14)


def test_optimal_lambda_rejects_nonpositive_moments():
    for x3, x4 in ((0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -2.0)):
        with pytest.raises(ValueError):
            optimal_lambda(2.0, x3, x4)


def test_optimal_lambda_agrees_with_golden_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        args = (float(rng.uniform(1.05, 2.0)), float(10.0 ** rng.uniform(-3, 3)), float(10.0 ** rng.uniform(-3, 3)))
        EQUIVALENCES["optimal_lambda"].holds(lambda: args)


def test_import_mblab_loads_no_scipy():
    # scipy serves only the optimal_lambda_numeric oracle in tests/oracles.py
    src = str(Path(mblab.__file__).resolve().parents[1])
    code = "import sys, mblab; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_optimal_lambda_is_strict_minimizer():
    for p, x3, x4 in ((2.0, 3.0, 0.5), (1.5, 0.2, 7.0), (1.2, 1.0, 1.0)):
        lam = optimal_lambda(p, x3, x4)
        at_min = hoelder_objective(lam, p, x3, x4)
        assert at_min < hoelder_objective(lam * 1.01, p, x3, x4)
        assert at_min < hoelder_objective(lam * 0.99, p, x3, x4)


def test_kappa_constant():
    assert kappa_constant(2.0) == pytest.approx(2.0, rel=1e-15)
    # minimized objective equals kappa times the balanced moment product
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = float(rng.uniform(1.05, 2.0))
        q = conjugate_exponent(p)
        x3 = float(10.0 ** rng.uniform(-2, 2))
        x4 = float(10.0 ** rng.uniform(-2, 2))
        lam = optimal_lambda(p, x3, x4)
        val = hoelder_objective(lam, p, x3, x4)
        target = kappa_constant(p) * x3 ** (q / (p + q)) * x4 ** (p / (p + q))
        assert val == pytest.approx(target, rel=1e-10)


@examples(60)
@given(
    p=st.floats(1.01, 2.0),
    lx3=st.floats(-4, 4),
    lx4=st.floats(-4, 4),
)
def test_stationarity_property(p, lx3, lx4):
    x3, x4 = 10.0**lx3, 10.0**lx4
    lam = optimal_lambda(p, x3, x4)
    q = conjugate_exponent(p)
    derivative = p * lam ** (p - 1.0) * x3 - q * lam ** (-q - 1.0) * x4
    scale = p * lam ** (p - 1.0) * x3 + q * lam ** (-q - 1.0) * x4
    assert abs(derivative) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# ratio scan


def test_scan_contraction_at_p2():
    res = lp_constant_scan(2.0, 300, seed=2)
    assert res.max_ratio <= 1.0 + 1e-9
    assert res.trials == 300
    assert sum(res.counts) == 300
    assert res.argmax["trial"] >= 0


def test_scan_below_two_is_finite():
    res = lp_constant_scan(1.5, 200, seed=3, delta=0.25, dim=2)
    assert math.isfinite(res.max_ratio)
    assert res.max_ratio > 0.0


def test_scan_is_deterministic():
    a = lp_constant_scan(2.0, 100, seed=4)
    b = lp_constant_scan(2.0, 100, seed=4)
    assert a.max_ratio == b.max_ratio
    assert a.argmax == b.argmax
    assert a.counts == b.counts


# ---------------------------------------------------------------------------
# trials as one tower batch per depth

BATCH_FLOORS = (0.1, 0.25, 1.0 / 3.0, 0.5)


@pytest.mark.parametrize("delta", BATCH_FLOORS)
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("depth", [None, 3])
def test_scan_batch_matches_trial_by_trial(delta, dim, depth):
    for p in (1.5, 2.0, 3.0):
        EQUIVALENCES["scan"].holds(lambda: (p, 24, 9, delta, dim, depth))


def assert_same_search(run, ref):
    same_bits(search_result(run), search_result(ref))


@pytest.mark.parametrize("delta", BATCH_FLOORS)
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("depth", [None, 3])
def test_search_batch_matches_trial_by_trial(delta, dim, depth):
    # with a fixed depth, the structured trial 0 (depth 2) is a group alone
    for p in (1.5, 2.0):
        EQUIVALENCES["search"].holds(lambda: (p, 24, 10, delta, dim, depth))


def test_split_depth_groups_keep_every_float(monkeypatch):
    # at most 40 leaves a batch, so a depth group runs as several batches,
    # and the search's best can sit in any of them
    monkeypatch.setattr(est, "_BATCH_LEAVES", 40)
    for delta in (0.1, 0.5):
        EQUIVALENCES["scan"].holds(lambda: (1.5, 40, 3, delta, 2, None))
        for seed in range(4):
            EQUIVALENCES["search"].holds(lambda: (1.5, 40, seed, delta, 2, None))


def test_deep_trials_keep_every_float_at_any_cap(monkeypatch):
    # deep towers, one or a few to a batch at the default cap, read the same
    # as in the batches of 65,536 leaves that hold a whole depth group
    runs = (
        lambda: est._scan_trials(3.0, 24, 1, 0.25, 1, 10),
        lambda: est._scan_trials(2.0, 24, 1, 0.5, 2, 12),
        lambda: est._search_trials(1.5, 24, 1, 0.25, 2, 10),
    )
    small = [run() for run in runs]
    monkeypatch.setattr(est, "_BATCH_LEAVES", 1 << 16)
    large = [run() for run in runs]
    for (ratios, argmax), (ref_ratios, ref_argmax) in zip(small[:2], large[:2]):
        assert np.array_equal(ratios, ref_ratios)
        assert argmax == ref_argmax
    assert_same_search(small[2], large[2])


@pytest.mark.parametrize(
    "run, bound",
    [
        # the CLI's largest default scan: 2.8 MB when each depth group was
        # one batch
        (lambda: lp_constant_scan(3.0, 500, 1, delta=0.25), 1_200_000),
        # depth-12 dyadic trials, one a batch: 46.7 MB as one batch
        (lambda: lp_constant_scan(2.0, 40, 1, depth=12), 4_000_000),
    ],
)
def test_trial_batches_hold_a_bounded_working_set(run, bound):
    run()  # the balanced towers are cached on first use
    _, _, peak = traced(run)
    assert peak <= bound


def test_search_ties_go_to_the_first_trial(monkeypatch):
    # trials i and i + 4 draw alike, so the best value recurs in later
    # batches; the first trial that reaches it stays the best, as a fold
    # over the trials in order keeps it
    trial_rng = est._trial_rng

    def repeated(seed, i):
        return trial_rng(seed, i % 4)

    monkeypatch.setattr(est, "_trial_rng", repeated)
    monkeypatch.setattr(oracles, "_trial_rng", repeated)
    monkeypatch.setattr(est, "_BATCH_LEAVES", 20)
    for seed in (0, 2, 4):
        history, best, record, w = est._search_trials(1.5, 24, seed, 0.1, 2, 2)
        assert history.count(best) == 6 and record["trial"] in (1, 2, 3)
        ref = oracles.search_trials_by_trials(1.5, 24, seed, 0.1, 2, 2)
        assert_same_search((history, best, record, w), ref)


class ZeroDraw:
    """A trial's generator whose normal draws of one shape come back zero."""

    def __init__(self, rng, shape):
        self._rng, self._shape = rng, shape

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def normal(self, *args, size=None, **kwargs):
        out = self._rng.normal(*args, size=size, **kwargs)
        return np.zeros_like(out) if size == self._shape else out


def test_scan_skips_a_zero_trial_as_trial_by_trial(monkeypatch):
    # trial 0, on the dyadic depth-2 tower (4 leaves, 3 multiplier rows),
    # draws f = 0: it scores 0 and, though it reaches the running maximum,
    # is never the argmax
    trial_rng = est._trial_rng

    def zeroed(seed, i):
        return ZeroDraw(trial_rng(seed, i), (4, 2)) if i == 0 else trial_rng(seed, i)

    monkeypatch.setattr(est, "_trial_rng", zeroed)
    monkeypatch.setattr(oracles, "_trial_rng", zeroed)
    for trials in (1, 9):
        EQUIVALENCES["scan"].holds(lambda: (2.0, trials, 3, 0.5, 2, None))
        ratios, argmax = est._scan_trials(2.0, trials, 3, 0.5, 2, None)
        assert ratios[0] == 0.0
        assert argmax == {} if trials == 1 else argmax["trial"] > 0
    assert lp_constant_scan(2.0, 1, 3, dim=2).argmax == {}


def batch_sizes(seed, delta, depths, cap):
    """The towers of each batch of trials at depths ``depths``: the trials
    of each depth in order of first appearance, cut greedily where a batch
    would pass ``cap`` leaves."""
    groups = {}
    for i, d in enumerate(depths):
        filt_seed = int(est._trial_rng(seed, i).integers(2**31))
        groups.setdefault(d, []).append(build_tower(delta, filt_seed, d).n_leaves)
    sizes = []
    for leaves in groups.values():
        total = cap  # the group's first tower opens a batch
        for n in leaves:
            if total + n > cap:
                sizes.append(0)
                total = 0
            sizes[-1] += 1
            total += n
    return sizes


# four depths, 2..5, at delta 1/4: the scan's and the search's trials
TRIAL_DEPTHS = [2 + i % 4 for i in range(200)]


def test_trials_make_one_layout_and_transform_per_depth(monkeypatch):
    # at 65,536 leaves a batch each depth group is one batch, at the default
    # cap several: one layout and one transform per batch.  No trial lays
    # out its own tower but the search's best, whose root point needs its
    # tower's layout
    built, made = [], []
    build_layout = filtration._build_layout
    make = est.make_transform

    def counted_build(tower):
        built.append(type(tower).__name__)
        return build_layout(tower)

    def counted_make(tower, rows):
        made.append(type(tower).__name__)
        return make(tower, rows)

    default = est._BATCH_LEAVES
    batches = len(batch_sizes(1, 0.25, TRIAL_DEPTHS, default))
    assert batches > 4
    monkeypatch.setattr(filtration, "_build_layout", counted_build)
    monkeypatch.setattr(est, "make_transform", counted_make)
    for cap, n in ((1 << 16, 4), (default, batches)):
        monkeypatch.setattr(est, "_BATCH_LEAVES", cap)
        lp_constant_scan(3.0, 200, 1, delta=0.25)
        assert built == made == ["Filtration"] * n
        built.clear()
        made.clear()
        lower_bound_search(1.5, 200, 1, delta=0.25, ascent_steps=10)
        assert built == ["Filtration"] * (n + 1)
        assert made == ["Filtration"] * n
        built.clear()
        made.clear()


def test_trials_validate_one_stack_per_depth(monkeypatch):
    # one validation per batch, each of its batch's towers: at 65,536
    # leaves a batch one per depth group, at the default cap the greedy cut
    # of each group by its trials' leaves; and one for the tower the
    # search's best trial is cut into
    towers = []
    validate = filtration._validate

    def counted(tower):
        roots = validate(tower)
        towers.append(len(roots))
        return roots

    default = est._BATCH_LEAVES
    sizes = batch_sizes(1, 0.25, TRIAL_DEPTHS, default)
    assert batch_sizes(1, 0.25, TRIAL_DEPTHS, 1 << 16) == [50] * 4
    monkeypatch.setattr(filtration, "_validate", counted)
    for cap, expected in ((1 << 16, [50] * 4), (default, sizes)):
        monkeypatch.setattr(est, "_BATCH_LEAVES", cap)
        lp_constant_scan(3.0, 200, 1, delta=0.25)
        assert towers == expected and sum(towers) == 200
        towers.clear()
        lower_bound_search(1.5, 200, 1, delta=0.25, ascent_steps=10)
        assert towers == [*expected, 1] and sum(towers[:-1]) == 200
        towers.clear()


# ---------------------------------------------------------------------------
# witness search


def test_search_structured_witness_hits_one():
    res = lower_bound_search(2.0, 5, seed=5)
    assert res.history[0] == pytest.approx(1.0, abs=1e-12)
    assert res.best >= 1.0 - 1e-12
    assert res.found


def test_search_labels_trial_zero_by_its_draws():
    # trial 0 draws the structured witness only where its root splits in
    # two: always at delta 1/2, not always at delta 0.1
    kinds = []
    for seed in range(1, 6):
        balanced = lower_bound_search(2.0, 1, seed, delta=0.5)
        assert balanced.witness["kind"] == "structured"
        assert balanced.best == pytest.approx(1.0, abs=1e-12)
        rng = est._trial_rng(seed, 0)
        filt = build_tower(0.1, int(rng.integers(2**31)), 2)
        res = lower_bound_search(2.0, 1, seed, delta=0.1)
        structured = len(oracles.root(filt).children) == 2
        assert res.witness["kind"] == ("structured" if structured else "random")
        assert (res.best == pytest.approx(1.0, abs=1e-12)) == structured
        kinds.append(res.witness["kind"])
    assert kinds[0] == "random"


def test_search_seed_prefix_stability():
    short = lower_bound_search(2.0, 20, seed=6)
    long = lower_bound_search(2.0, 60, seed=6)
    assert short.history == long.history[:20]
    assert long.best >= short.best - 1e-15


def test_search_scalar_target_gates_found():
    ok = lower_bound_search(2.0, 5, seed=7, target=0.9)
    assert ok.found
    not_ok = lower_bound_search(2.0, 5, seed=7, target=1.5)
    assert not not_ok.found
    assert not_ok.best == ok.best


def test_search_best_recomputes_from_witness(monkeypatch):
    # the search hands its best witness to the root point, and only there
    best = []
    root_point = est._root_point
    monkeypatch.setattr(est, "_root_point", lambda w: best.append(w) or root_point(w))
    res = lower_bound_search(1.5, 40, seed=8, delta=0.25, dim=2)
    [w] = best
    assert w.p == 1.5
    q = conjugate_exponent(1.5)
    direct = abs(inner(w.g, w.op.apply(w.f))) / (
        lp_norm(w.f, 1.5) * lp_norm(w.g, q) * w.filtration.total_measure
    )
    assert direct == pytest.approx(res.best, rel=1e-10, abs=1e-10)


def test_search_ascent_never_hurts():
    base = lower_bound_search(1.5, 15, seed=11, delta=0.25, ascent_steps=0)
    refined = lower_bound_search(1.5, 15, seed=11, delta=0.25, ascent_steps=150)
    assert refined.best >= base.best - 1e-15
    assert refined.history == base.history


@pytest.mark.parametrize("steps", [1, 2, 40])
def test_search_ascent_point_is_its_final_witness(steps):
    # replay the ascent on the best trial's witness (step 0 moves f, step
    # 1 moves g): the achieved point is the root point of a Witness rebuilt
    # from the final leaf values
    p, trials, seed = 1.5, 12, 5
    _, best, _, w = est._search_trials(p, trials, seed, 0.25, 2, None)
    filt, q = w.filtration, conjugate_exponent(p)
    fv, gv = w.f.values.copy(), w.g.values.copy()
    rng = est._trial_rng(seed, trials)
    moved = 0
    for step in range(steps):
        tgt = fv if step % 2 == 0 else gv
        idx, jdx = int(rng.integers(tgt.shape[0])), int(rng.integers(tgt.shape[1]))
        old = tgt[idx, jdx]
        tgt[idx, jdx] = old + 0.05 * rng.normal()
        tf = w.op.apply(MartFunction(filt, fv)).values
        value = est._pairings(
            filt.layout.measures, (0, filt.n_leaves), (filt.total_measure,), fv, gv, tf, p, q
        )[0]
        if value > best:
            best, moved = value, moved + 1
        else:
            tgt[idx, jdx] = old
    final = Witness(MartFunction(filt, fv.copy()), MartFunction(filt, gv.copy()), w.op, p)
    *x1, x2, x3, x4 = final.table.points[oracles.root(filt).id].tolist()
    res = lower_bound_search(p, trials, seed, delta=0.25, dim=2, ascent_steps=steps)
    assert moved > 0 and res.best == best and res.witness["kind"] == "ascent"
    assert res.achieved_point == {"x1": x1, "x2": x2, "x3": x3, "x4": x4, "p": p, "atom": 0}


def test_search_consistent_with_verified_candidate():
    # a certified upper bound evaluated at the achieved point dominates the
    # searched objective
    from mblab.bellman import quadratic_candidate

    res = lower_bound_search(2.0, 25, seed=12)
    cand = quadratic_candidate(0.5)
    pt = res.achieved_point
    assert cand.evaluate(np.array([*pt["x1"], pt["x2"], pt["x3"], pt["x4"]])) >= res.best - 1e-6


def test_search_root_point_is_none_only_for_a_root_x2_below_roundoff(monkeypatch, capsys):
    # the search checks the root's x2 alone: below roundoff of zero it
    # reports no point, within roundoff or on another atom it reports one
    import mblab.bellman as bellman
    from mblab.cli import run

    table_of = bellman.moment_table

    def x2_set_at(pick, x2):
        def broken(f, *args):
            table = table_of(f, *args)
            points = table.points.copy()
            points[pick(f.filtration), -3] = x2
            return dataclasses.replace(table, points=points)

        monkeypatch.setattr(bellman, "moment_table", broken)

    x2_set_at(lambda filt: oracles.root(filt).id, -1e-9)
    assert lower_bound_search(2.0, 5, seed=6).achieved_point is None
    assert run(["search", "--seed", "6", "--trials", "5"]) == 0
    assert '"achieved_point":null' in capsys.readouterr().out
    x2_set_at(lambda filt: oracles.root(filt).id, -1e-14)
    assert lower_bound_search(2.0, 5, seed=6).achieved_point["x2"] == -1e-14
    x2_set_at(lambda filt: oracles.root(filt).children[0], -1.0)
    pt = lower_bound_search(2.0, 5, seed=6).achieved_point
    assert pt is not None and pt["x2"] >= 0.0


# ---------------------------------------------------------------------------
# duality


def test_duality_bound_p2():
    rep = duality_bound(2.0, delta=0.25, draws=8, seed=0)
    assert rep.ok
    assert rep.empirical_max <= rep.analytic_bound + 1e-6
    assert len(rep.rows) == 8
    for row in rep.rows:
        assert row["objective"] <= row["bound"] + 1e-9 * max(1.0, row["bound"])


def test_duality_bound_takes_structured_rows_only_where_the_root_splits_in_two():
    # at delta 0.1 a root splits 2, 3 or 4 ways; only a two-way split gives
    # the structured witness its rows 0 and 1
    splits = set()
    for seed in range(8):
        ways = len(oracles.root(cell_filtration(0.1, seed, 3, max_children_for(0.1))).children)
        splits.add(ways)
        kinds = [row["kind"] for row in duality_bound(2.0, delta=0.1, draws=4, seed=seed).rows]
        expected = ["structured+", "structured-"] if ways == 2 else ["gaussian", "gaussian"]
        assert kinds == [*expected, "gaussian", "gaussian"]
    assert splits == {2, 3, 4}


def test_duality_bound_below_two():
    rep = duality_bound(1.5, delta=0.25, draws=8, seed=0)
    assert rep.ok
    assert rep.q == pytest.approx(3.0, rel=1e-14)
    assert rep.empirical_max <= rep.analytic_bound + 1e-6


def test_duality_bound_computes_tstar_g_once_per_draw(monkeypatch):
    # the root mean of T* g comes from the certificate's witness
    from mblab.transforms import MartingaleTransform

    calls = []
    closed_form = MartingaleTransform.adjoint_closed_form

    def counted(self, g):
        calls.append(1)
        return closed_form(self, g)

    monkeypatch.setattr(MartingaleTransform, "adjoint_closed_form", counted)
    duality_bound(2.0, draws=6, seed=4, delta=0.25)
    assert len(calls) == 6


def test_duality_candidate_shapes():
    assert duality_candidate(2.0, 0.25).cp == pytest.approx(1.0 / math.sqrt(0.5), rel=1e-15)
    low = duality_candidate(1.5, 0.25)
    assert low.p == 1.5
    assert low.cp == pytest.approx(4.0 / math.sqrt(0.5), rel=1e-15)


def test_duality_reports_failed_certification(monkeypatch):
    monkeypatch.setattr(est, "duality_candidate", lambda p, d: linear_candidate(1.0, p, d))
    with pytest.raises(EstimateError) as exc:
        duality_bound(2.0, delta=0.25, draws=4, seed=0)
    assert exc.value.certificate is not None
    assert not exc.value.certificate.ok


# ---------------------------------------------------------------------------
# homogeneity orbit


def test_homogeneity_orbit_on_witness(small_cells):
    pc = small_cells[4]  # delta 0.25, dim 2
    filt = pc.filtration
    p = 2.0
    q = conjugate_exponent(p)
    base_pt = Witness(pc.f, pc.g, pc.op, p).table.points[oracles.root(filt).id]
    centered = shift(pc.f, -average(pc.f, oracles.root(filt).id))
    base_obj = inner(pc.g, pc.op.apply(centered)) / filt.total_measure
    for lam in (0.5, 2.0, 7.0):
        f_s = pc.f * lam
        g_s = pc.g * (1.0 / lam)
        obj = inner(g_s, pc.op.apply(shift(f_s, -average(f_s, oracles.root(filt).id)))) / filt.total_measure
        assert obj == pytest.approx(base_obj, rel=1e-12)
        mapped = Witness(f_s, g_s, pc.op, p).table.points[oracles.root(filt).id]
        assert np.allclose(mapped[:-3], lam * base_pt[:-3], rtol=1e-12, atol=1e-14)
        assert mapped[-3] == pytest.approx(lam ** (-2.0) * base_pt[-3], rel=1e-12, abs=1e-14)
        assert mapped[-2] == pytest.approx(lam**p * base_pt[-2], rel=1e-12)
        assert mapped[-1] == pytest.approx(lam ** (-q) * base_pt[-1], rel=1e-12)
