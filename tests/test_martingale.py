"""Leaf-valued function layer: averages, conditional expectations,
single-split differences, oscillation bookkeeping."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mblab.filtration import build_dyadic, level_partition, split_schedule
from mblab.martingale import MartFunction, inner, l2_norm, lp_norm
from conftest import examples, leaf_positions, rand_fn, regular_towers
import oracles
from oracles import (
    EQUIVALENCES,
    Atom,
    PartitionError,
    average,
    cond_exp,
    delta_split,
    osc2,
    restrict,
    shift,
)


def test_constant_and_indicator(dyadic2):
    c = MartFunction(dyadic2, np.full((dyadic2.n_leaves, 2), [2.0, -1.0]))
    assert c.dim == 2
    assert np.allclose(average(c, oracles.root(dyadic2).id), [2.0, -1.0])
    left = oracles.atom(dyadic2, oracles.root(dyadic2).children[0])
    vals = np.zeros((dyadic2.n_leaves, 1))
    vals[oracles.leaf_slice(dyadic2, left.id)] = 1.0
    ind = MartFunction(dyadic2, vals)
    assert inner(ind, ind) == pytest.approx(left.measure, abs=1e-15)
    assert float(average(ind, oracles.root(dyadic2).id)[0]) == pytest.approx(0.5, abs=1e-15)


def test_average_is_measure_weighted(dyadic2):
    f = rand_fn(dyadic2, 1, 0)
    root = oracles.root(dyadic2).id
    manual = sum(
        oracles.atom(dyadic2, leaf).measure * f.values[pos]
        for leaf, pos in leaf_positions(dyadic2).items()
    )
    assert np.allclose(average(f, root), manual, atol=1e-15)


def test_cond_exp_projects_and_averages(dyadic3):
    f = rand_fn(dyadic3, 2, 1)
    part = level_partition(dyadic3, 1)
    ef = cond_exp(f, part)
    for a in part:
        assert np.allclose(average(ef, a), average(f, a), atol=1e-14)
    # idempotent
    assert np.allclose(cond_exp(ef, part).values, ef.values, atol=1e-15)
    # contracts the L2 norm
    assert l2_norm(ef) <= l2_norm(f) + 1e-12


def test_cond_exp_tower(dyadic3):
    f = rand_fn(dyadic3, 1, 2)
    coarse = level_partition(dyadic3, 1)
    fine = level_partition(dyadic3, 2)
    via_fine = cond_exp(cond_exp(f, fine), coarse)
    direct = cond_exp(f, coarse)
    assert np.allclose(via_fine.values, direct.values, atol=1e-14)


def test_cond_exp_matches_dense_oracle(kernel_tower):
    # the reduceat kernel against the dense per-level averaging matrices
    EQUIVALENCES["cond_exp_dense"].on(kernel_tower, 3, 14)


def test_persisting_atoms_cancel_exactly(kernel_tower):
    # an atom kept from one level to the next gets the same float at both,
    # so every leaf the level does not split sees an exact zero difference
    f = rand_fn(kernel_tower, 2, 15)
    for n in range(kernel_tower.depth):
        coarse = cond_exp(f, level_partition(kernel_tower, n)).values
        fine = cond_exp(f, level_partition(kernel_tower, n + 1)).values
        for atom_id in level_partition(kernel_tower, n):
            if oracles.atom(kernel_tower, atom_id).is_leaf:
                sl = oracles.leaf_slice(kernel_tower, atom_id)
                assert np.all(fine[sl] == coarse[sl])


def test_cond_exp_rejects_non_partition(dyadic2):
    f = rand_fn(dyadic2, 1, 3)
    left = oracles.root(dyadic2).children[0]
    with pytest.raises(PartitionError):
        cond_exp(f, [left])  # does not cover the interval
    with pytest.raises(PartitionError):
        cond_exp(f, [oracles.root(dyadic2).id, left])  # overlaps


def test_delta_split_mean_zero_and_support(dyadic3):
    f = rand_fn(dyadic3, 2, 4)
    for ev in split_schedule(dyadic3):
        d = delta_split(f, ev)
        atom = oracles.atom(dyadic3, ev)
        # vanishes off the split atom, exactly
        for leaf in oracles.leaves_of(dyadic3):
            la = oracles.atom(dyadic3, leaf)
            if not (atom.a <= la.a and la.b <= atom.b):
                assert np.all(d.values[leaf_positions(dyadic3)[leaf]] == 0.0)
        assert np.allclose(average(d, oracles.root(dyadic3).id), 0.0, atol=1e-15)
        # constant on each child: the value is child mean minus parent mean
        for child in atom.children:
            expect = average(f, child) - average(f, atom.id)
            assert np.allclose(average(d, child), expect, atol=1e-14)


def test_delta_splits_telescope_to_centered_function(dyadic3):
    f = rand_fn(dyadic3, 2, 5)
    acc = np.zeros_like(f.values)
    for ev in split_schedule(dyadic3):
        acc += delta_split(f, ev).values
    centered = f.values - average(f, oracles.root(dyadic3).id)
    assert np.allclose(acc, centered, atol=1e-13)


def test_osc2_matches_variance_definition(dyadic3):
    f = rand_fn(dyadic3, 2, 6)
    for atom in oracles.atoms(dyadic3):
        mean = average(f, atom.id)
        acc = 0.0
        for leaf in oracles.leaves_of(dyadic3):
            la = oracles.atom(dyadic3, leaf)
            if atom.a <= la.a and la.b <= atom.b:
                acc += la.measure * float(np.sum((f.values[leaf_positions(dyadic3)[leaf]] - mean) ** 2))
        assert osc2(f, atom.id) == pytest.approx(acc / atom.measure, rel=1e-12, abs=1e-15)


def test_osc2_series_identity(dyadic3):
    # squared oscillation over J equals the weighted sum of squared
    # single-split differences supported inside J
    f = rand_fn(dyadic3, 1, 7)
    for atom in oracles.atoms(dyadic3):
        if atom.is_leaf:
            assert osc2(f, atom.id) == pytest.approx(0.0, abs=1e-15)
            continue
        acc = 0.0
        for ev in split_schedule(dyadic3):
            q = oracles.atom(dyadic3, ev)
            if atom.a <= q.a and q.b <= atom.b:
                d = delta_split(f, ev)
                acc += inner(d, d)
        assert osc2(f, atom.id) == pytest.approx(acc / atom.measure, rel=1e-11)


def _drawn_events(filt, seed):
    """Every event, and a sorted random subset, as layout event indices."""
    n_events = len(filt.layout.event_atoms)
    some = np.flatnonzero(np.random.default_rng(seed).random(n_events) < 0.5)
    return np.arange(n_events), some if some.size else np.arange(1)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_event_draws_are_one_span_sized_normal_call(kernel_tower, dim):
    # the numbers of one (|J|, dim) draw per event, laid on J's leaves in
    # its level's array
    for events in _drawn_events(kernel_tower, dim):
        EQUIVALENCES["event_draws"].holds(lambda: (kernel_tower, events, dim, np.random.default_rng(dim)))


@pytest.mark.parametrize("rows_per_block", [1, 3, None])
def test_event_draws_match_full_block_route(monkeypatch, kernel_tower, rows_per_block):
    # the full-block draw, fed the span-sized stream's numbers on each
    # span, lays out the same array; small blocks split the events
    if rows_per_block is not None:
        monkeypatch.setattr(oracles, "_STACK_VALUES", rows_per_block * kernel_tower.n_leaves * 2)
    for events in _drawn_events(kernel_tower, 5):
        EQUIVALENCES["event_draws_by_blocks"].holds(lambda: (kernel_tower, events, 2, np.random.default_rng(8)))


def test_restrict_cuts_support(dyadic2):
    f = rand_fn(dyadic2, 1, 8)
    left = oracles.root(dyadic2).children[0]
    cut = restrict(f, left)
    la = oracles.atom(dyadic2, left)
    for leaf in oracles.leaves_of(dyadic2):
        leaf_atom = oracles.atom(dyadic2, leaf)
        inside = la.a <= leaf_atom.a and leaf_atom.b <= la.b
        at = leaf_positions(dyadic2)[leaf]
        if inside:
            assert np.all(cut.values[at] == f.values[at])
        else:
            assert np.all(cut.values[at] == 0.0)


def test_norms_and_inner(dyadic2):
    f = rand_fn(dyadic2, 3, 9)
    assert lp_norm(f, 2.0) == pytest.approx(l2_norm(f), rel=1e-14)
    assert inner(f, f) == pytest.approx(l2_norm(f) ** 2, rel=1e-13)
    g = rand_fn(dyadic2, 3, 10)
    assert abs(inner(f, g)) <= l2_norm(f) * l2_norm(g) + 1e-12
    dot = np.einsum("ij,ij->i", f.values, g.values)
    assert inner(f, g) == pytest.approx(float(np.dot(dyadic2.layout.measures, dot)), rel=1e-13)


def test_shift_adds_a_constant_vector(dyadic2):
    f = rand_fn(dyadic2, 2, 11)
    shifted = shift(f, [1.0, -2.0])
    assert np.allclose(shifted.values, f.values + np.array([1.0, -2.0]), atol=1e-15)


def test_lp_norm_monotone_in_p_on_probability_space(dyadic3):
    f = rand_fn(dyadic3, 1, 13)
    # total measure one, so p -> ||f||_p is nondecreasing
    norms = [lp_norm(f, p) for p in (1.1, 1.5, 2.0)]
    assert norms[0] <= norms[1] + 1e-12 <= norms[2] + 2e-12


@pytest.mark.parametrize("p", [442.0, 1000.0])
def test_lp_norm_survives_large_exponents(dyadic3, p):
    # 5^442 overflows, and so did the direct sum of |f|^p; the max-scaled
    # form keeps the norm finite and below max |f|
    f = rand_fn(dyadic3, 2, 14)
    f = f * (5.0 / np.max(np.linalg.norm(f.values, axis=1)))
    mags = np.linalg.norm(f.values, axis=1)
    scaled = 5.0 * float(dyadic3.layout.measures @ (mags / 5.0) ** p) ** (1.0 / p)
    assert lp_norm(f, p) == pytest.approx(scaled, rel=1e-12)
    assert lp_norm(f, p) < 5.0
    # all of |f|^p underflowing to 0 takes the same route
    small = f * 1e-3
    assert lp_norm(small, p) == pytest.approx(1e-3 * scaled, rel=1e-12)
    assert lp_norm(f * 0.0, p) == 0.0


@examples(30)
@given(
    vals=arrays(np.float64, (8, 2), elements=st.floats(-100, 100)),
    w=st.floats(-10, 10),
)
def test_inner_is_bilinear(vals, w):
    filt = build_dyadic(3)
    f = MartFunction(filt, vals)
    g = MartFunction(filt, np.ones((8, 2)))
    lhs = inner(MartFunction(filt, w * vals), g)
    assert lhs == pytest.approx(w * inner(f, g), rel=1e-9, abs=1e-9)


@examples(30)
@given(vals=arrays(np.float64, (4, 1), elements=st.floats(-50, 50)))
def test_jensen_for_averages(vals):
    filt = build_dyadic(2)
    f = MartFunction(filt, vals)
    root = oracles.root(filt).id
    assert abs(float(average(f, root)[0])) <= lp_norm(f, 2.0) + 1e-9


# ---------------------------------------------------------------------------
# The level-stacked kernel against the per-level loop it replaced, bit for bit


def _last_atom_single_leaf():
    # [0, 1) splits in two and only the left half splits again, so the last
    # atom of levels 1 and 2 is one leaf: a segment of one row before the
    # sentinel
    atoms = (
        Atom(0, 0.0, 1.0, 0, None, (1, 2)),
        Atom(1, 0.0, 0.5, 1, 0, (3, 4)),
        Atom(2, 0.5, 1.0, 1, 0, ()),
        Atom(3, 0.0, 0.25, 2, 1, ()),
        Atom(4, 0.25, 0.5, 2, 1, ()),
    )
    return oracles.tower_from_atoms(atoms, 0.5)


def _assert_kernel_matches_levels(filt, dim, seed):
    for lead in range(3):  # lead axes (), (3,) and (2, 2)
        EQUIVALENCES["stacked_kernel"].on(filt, dim, seed + lead)
    for first in range(filt.depth):
        EQUIVALENCES["diagonal"].on(filt, dim, first)
    for name in ("level_differences", "level_routes"):
        EQUIVALENCES[name].on(filt, dim, seed)
    for p in range(2):  # at p = 2 and 1.5
        EQUIVALENCES["moment_table"].on(filt, dim, seed + p)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_stacked_kernel_matches_per_level_loop_on_fixed_towers(kernel_tower, dim):
    _assert_kernel_matches_levels(kernel_tower, dim, 20 + dim)
    _assert_kernel_matches_levels(_last_atom_single_leaf(), dim, 30 + dim)


@examples(40)
@given(case=regular_towers())
def test_stacked_kernel_matches_per_level_loop(case):
    _assert_kernel_matches_levels(*case)
