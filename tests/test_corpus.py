"""Witness corpus: cell grid, deterministic preparation, structured
two-value witness, and the active-split function and random transform
against the loops they replaced, bit for bit."""

from functools import lru_cache

import numpy as np
import pytest

import mblab.corpus as corpus
from mblab.corpus import (
    CorpusCell,
    active_split_function,
    cell_filtration,
    default_corpus,
    haar_witness,
    max_children_for,
    prepare_cell,
    random_witness,
)
from mblab.estimator import duality_bound
from mblab.filtration import build_dyadic
from mblab.martingale import inner, lp_norm
import oracles
from oracles import EQUIVALENCES, average, regularity_delta


def test_grid_size_and_axes():
    cells = default_corpus()
    assert len(cells) == 4 * 3 * 100
    deltas = {c.delta for c in cells}
    assert deltas == {0.1, 0.25, 1.0 / 3.0, 0.5}
    assert {c.dim for c in cells} == {1, 2, 3}


def test_depth_cycles_with_seed():
    assert CorpusCell(0.25, 1, 0).depth == 2
    assert CorpusCell(0.25, 1, 1).depth == 3
    assert CorpusCell(0.25, 1, 5).depth == 3
    assert CorpusCell(0.25, 1, 7).depth == 5


def test_max_children_respects_floor():
    assert max_children_for(0.1) == 4
    assert max_children_for(0.25) == 3
    assert max_children_for(1.0 / 3.0) == 2
    assert max_children_for(0.5) == 2
    for delta in (0.1, 0.25, 1.0 / 3.0, 0.5):
        assert max_children_for(delta) * delta <= 1.0 + 1e-12


def test_cell_filtration_regularity():
    for delta in (0.1, 0.25, 1.0 / 3.0, 0.5):
        filt = cell_filtration(delta, 3, 3, max_children_for(delta))
        assert regularity_delta(filt) >= delta - 1e-12


def test_prepare_cell_is_deterministic():
    a = prepare_cell(CorpusCell(0.25, 2, 17))
    b = prepare_cell(CorpusCell(0.25, 2, 17))
    assert np.array_equal(a.f.values, b.f.values)
    assert np.array_equal(a.g.values, b.g.values)
    assert np.allclose(a.op.apply(a.f).values, b.op.apply(b.f).values, atol=0)


def test_prepare_cell_varies_with_seed():
    a = prepare_cell(CorpusCell(0.25, 2, 18))
    b = prepare_cell(CorpusCell(0.25, 2, 19))
    assert not np.array_equal(a.f.values, b.f.values)


def test_balanced_towers_are_cached_by_depth(monkeypatch):
    # the balanced tower reads no seed: the 300 cells at 1/2 of the default
    # corpus share 4 towers, one per depth, beside the 300 random towers of
    # the other floors (100 seeds each); the duality bound shares them too
    fresh = lru_cache(maxsize=None)(corpus.cell_filtration.__wrapped__)
    monkeypatch.setattr(corpus, "cell_filtration", fresh)
    towers = {cell: prepare_cell(cell).filtration for cell in default_corpus(seeds=100)}
    assert fresh.cache_info().misses == 304
    assert len({id(t) for cell, t in towers.items() if cell.delta == 0.5}) == 4
    for seed in (5, 6):
        duality_bound(2.0, delta=0.5, draws=1, seed=seed, dim=1, depth=3)
    assert fresh.cache_info().misses == 304


def test_haar_witness_unit_pairing(dyadic2):
    w = haar_witness(dyadic2, 3)
    assert lp_norm(w.f, 2.0) == pytest.approx(1.0, rel=1e-12)
    assert lp_norm(w.g, 2.0) == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(average(w.f, oracles.root(w.filtration).id), 0.0, atol=1e-14)
    assert inner(w.g, w.tf) == pytest.approx(1.0, rel=1e-12)


def test_haar_witness_needs_binary_root():
    filt = cell_filtration(0.1, 41, 3, 4)
    if len(oracles.root(filt).children) != 2:
        with pytest.raises(ValueError):
            haar_witness(filt, 1)
    else:
        w = haar_witness(filt, 1)
        assert inner(w.g, w.tf) == pytest.approx(1.0, rel=1e-10)


def test_random_witness_shapes(dyadic3):
    rng = np.random.default_rng(0)
    f, g = random_witness(dyadic3, 3, rng)
    assert f.dim == 3
    assert g.dim == 1


def test_active_split_function_support(dyadic3):
    rng = np.random.default_rng(1)
    f, active = active_split_function(dyadic3, 2, rng)
    assert active.dtype == np.intp and np.all(np.diff(active) > 0)
    assert set(active.tolist()) <= set(dyadic3.layout.event_atoms.tolist())
    # the function has mean zero: it is a sum of split differences
    assert np.allclose(average(f, oracles.root(dyadic3).id), 0.0, atol=1e-13)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_active_split_function_matches_event_loop(kernel_tower, dim):
    for seed in range(6):
        EQUIVALENCES["active_split"].on(kernel_tower, dim, seed)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_random_transform_matches_level_loop(kernel_tower, dim):
    # the rows scaled in one call after the draws keep every float, and the
    # generator ends where the per-level loop left it
    for seed in range(6):
        EQUIVALENCES["random_transform"].on(kernel_tower, dim, seed)


def test_active_split_function_fallback_event():
    # one split event: half the seeds keep none and draw the fallback
    filt = build_dyadic(1)
    fallbacks = 0
    for seed in range(8):
        fallbacks += np.random.default_rng(seed).random() >= 0.5
        EQUIVALENCES["active_split"].on(filt, 2, seed)
        _, active = active_split_function(filt, 2, np.random.default_rng(seed))
        assert active.tolist() == [oracles.root(filt).id]
    assert 0 < fallbacks < 8
