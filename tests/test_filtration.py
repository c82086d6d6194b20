"""Structure tests for the atom tower: builders, regularity, schedule."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mblab.filtration import (
    FiltrationError,
    RatioSamplingError,
    _sample_ratios,
    build_dyadic,
    build_random_regular,
    filtration_to_dict,
    level_partition,
    regularity_delta,
    split_schedule,
)
from mblab.reporting import to_canonical_json


def test_dyadic_shape(dyadic3):
    assert dyadic3.depth == 3
    assert dyadic3.n_leaves == 8
    assert dyadic3.total_measure == pytest.approx(1.0, abs=0)
    assert regularity_delta(dyadic3) == pytest.approx(0.5, abs=1e-15)
    widths = dyadic3.leaf_measures()
    assert np.allclose(widths, 0.125, atol=1e-15)


def levels_by_definition(filt):
    """A_n scanned out of all atoms once per level: the atoms created at
    level n plus the earlier atoms that never split, by left endpoint."""
    return tuple(
        tuple(
            a.id
            for a in sorted(
                (a for a in filt.atoms if a.level == n or (a.is_leaf and a.level < n)),
                key=lambda a: a.a,
            )
        )
        for n in range(filt.depth + 1)
    )


def test_levels_match_per_level_definition(kernel_tower):
    ref = levels_by_definition(kernel_tower)
    assert kernel_tower.levels == ref
    assert kernel_tower.leaves == ref[-1]


def test_deep_dyadic_leaf_spans():
    # spans come from one pass over the tower, so depth 14 (32767 atoms)
    # is quick; a recursion visiting each child twice would need ~4^14 calls
    filt = build_dyadic(14)
    ref = levels_by_definition(filt)
    assert filt.levels == ref and filt.leaves == ref[-1]
    assert filt.leaf_slice(filt.root.id) == slice(0, 16384)
    for atom in filt.atoms:
        sl = filt.leaf_slice(atom.id)
        assert sl.stop - sl.start == 2 ** (14 - atom.level)
    events = filt.layout.event_atoms
    assert len(events) == 2**14 - 1 and events[0] == filt.root.id
    # the schedule is a read of the layout's events
    assert [e.atom for e in split_schedule(filt)] == events.tolist()


def test_layout_events_follow_schedule():
    filt = build_random_regular(depth=6, delta=0.1, max_children=4, split_prob=0.7, seed=32)
    lay = filt.layout
    events = split_schedule(filt)
    # schedule order by definition: split atoms by (level, left endpoint)
    by_definition = sorted((a for a in filt.atoms if a.children), key=lambda a: (a.level, a.a))
    assert [e.atom for e in events] == [a.id for a in by_definition]
    assert lay.event_atoms.tolist() == [e.atom for e in events]
    assert lay.event_levels.tolist() == [filt.atom(e.atom).level for e in events]
    for e, (lo, hi) in zip(events, lay.event_spans.tolist()):
        assert filt.leaf_slice(e.atom) == slice(lo, hi)
        kids = sorted(filt.leaf_slice(c).start for c in filt.atom(e.atom).children)
        assert kids[0] == lo
    for n, part in enumerate(filt.levels):
        spans = [filt.leaf_slice(a) for a in part]
        assert lay.level_starts[n].tolist() == [sl.start for sl in spans]
        assert spans[-1].stop == filt.n_leaves
        for j, sl in enumerate(spans):
            assert np.all(lay.stacked_maps[n][sl] == lay.level_offsets[n] + j)
            assert lay.level_measures[n][j] == filt.atom(part[j]).measure


def test_dyadic_depth_one_is_single_split(dyadic1):
    assert dyadic1.n_leaves == 2
    events = split_schedule(dyadic1)
    assert len(events) == 1
    assert events[0].atom == dyadic1.root.id


def test_root_and_interval(dyadic2):
    assert dyadic2.root.a == 0.0
    assert dyadic2.root.b == 1.0
    assert dyadic2.interval == (0.0, 1.0)
    assert dyadic2.root.parent is None


def test_children_partition_parent(dyadic3):
    for atom in dyadic3.atoms:
        if not atom.children:
            continue
        kids = [dyadic3.atom(c) for c in atom.children]
        # contiguous, measure preserving, left to right
        assert kids[0].a == atom.a
        assert kids[-1].b == atom.b
        for left, right in zip(kids, kids[1:]):
            assert left.b == right.a
        assert sum(k.measure for k in kids) == pytest.approx(atom.measure, rel=1e-12)


def test_schedule_order_level_then_endpoint(dyadic3):
    events = split_schedule(dyadic3)
    keys = [(dyadic3.atom(e.atom).level, dyadic3.atom(e.atom).a) for e in events]
    assert keys == sorted(keys)


def assert_schedule_replays(filt):
    """Replayed from {I}, each event replaces one atom of the current
    partition by its children, and the last partition is the leaves."""
    part = {filt.root.id}
    for ev in split_schedule(filt):
        kids = set(filt.atom(ev.atom).children)
        assert ev.atom in part and not kids & part
        part = (part - {ev.atom}) | kids
    assert part == set(filt.leaves)


def test_schedule_refines_one_atom_at_a_time(dyadic3):
    assert_schedule_replays(dyadic3)


def test_schedule_covers_active_set(dyadic3):
    events = split_schedule(dyadic3)
    assert {e.atom for e in events} == set(dyadic3.layout.event_atoms.tolist())
    assert len(events) == len(dyadic3.layout.event_atoms)


def test_level_partition_measures(dyadic3):
    for n in range(dyadic3.depth + 1):
        part = level_partition(dyadic3, n)
        total = sum(dyadic3.atom(a).measure for a in part)
        assert total == pytest.approx(1.0, rel=1e-12)
    assert list(level_partition(dyadic3, 0)) == [dyadic3.root.id]
    assert set(level_partition(dyadic3, dyadic3.depth)) == set(dyadic3.leaves)


def test_random_regular_respects_floor():
    filt = build_random_regular(depth=4, delta=0.2, max_children=4, split_prob=0.8, seed=11)
    assert regularity_delta(filt) >= 0.2 - 1e-12
    for atom in filt.atoms:
        for c in atom.children:
            ratio = filt.atom(c).measure / atom.measure
            assert ratio >= 0.2 - 1e-12


def test_random_regular_critical_delta_forces_equal_split():
    # k * delta == 1 leaves a single feasible ratio vector
    filt = build_random_regular(depth=3, delta=0.5, max_children=2, split_prob=1.0, seed=3)
    for atom in filt.atoms:
        if atom.children:
            ratios = [filt.atom(c).measure / atom.measure for c in atom.children]
            assert ratios == pytest.approx([0.5, 0.5], abs=1e-12)


def sample_ratios_one_by_one(rng, k, delta, budget):
    """Rejection sampling with one Dirichlet draw per iteration."""
    if 1.0 - k * delta < 1e-9:
        return np.full(k, 1.0 / k)
    for _ in range(budget):
        w = rng.dirichlet(np.ones(k))
        if w.min() >= delta:
            return w
    raise RatioSamplingError("budget exhausted")


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("delta", [0.1, 0.25, 1.0 / 3.0])
def test_blocked_ratio_draws_match_one_by_one(k, delta):
    # block draws must return the same ratios and leave the generator where
    # the one-draw loop leaves it, call after call
    blocked, single = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(40):
        expected = sample_ratios_one_by_one(single, k, delta, 10_000)
        assert np.array_equal(_sample_ratios(blocked, k, delta, 10_000), expected)
    assert blocked.random() == single.random()


@pytest.mark.parametrize("budget", [1, 63, 64, 65, 200])
def test_ratio_budget_counts_single_draws(budget):
    # feasible volume (1 - 3 * 0.333)^2 = 1e-6: every budget here runs out
    blocked, single = np.random.default_rng(3), np.random.default_rng(3)
    with pytest.raises(RatioSamplingError):
        sample_ratios_one_by_one(single, 3, 0.333, budget)
    with pytest.raises(RatioSamplingError):
        _sample_ratios(blocked, 3, 0.333, budget)
    assert blocked.random() == single.random()


def test_random_regular_rejects_bad_parameters():
    with pytest.raises(FiltrationError):
        build_random_regular(depth=0, delta=0.25, max_children=2, split_prob=0.5, seed=0)
    with pytest.raises(FiltrationError):
        build_random_regular(depth=2, delta=0.0, max_children=2, split_prob=0.5, seed=0)
    with pytest.raises(FiltrationError):
        build_random_regular(depth=2, delta=0.6, max_children=2, split_prob=0.5, seed=0)
    with pytest.raises(FiltrationError):
        build_random_regular(depth=2, delta=0.25, max_children=1, split_prob=0.5, seed=0)
    with pytest.raises(FiltrationError):
        # 3 children cannot all carry ratio >= 0.4
        build_random_regular(depth=2, delta=0.4, max_children=3, split_prob=0.5, seed=0)
    with pytest.raises(FiltrationError):
        build_random_regular(depth=2, delta=0.25, max_children=2, split_prob=1.5, seed=0)


def test_random_regular_is_seed_deterministic():
    a = build_random_regular(depth=4, delta=0.15, max_children=4, split_prob=0.7, seed=42)
    b = build_random_regular(depth=4, delta=0.15, max_children=4, split_prob=0.7, seed=42)
    assert [(x.a, x.b, x.level) for x in a.atoms] == [(x.a, x.b, x.level) for x in b.atoms]


def test_json_roundtrip():
    filt = build_random_regular(depth=3, delta=0.2, max_children=3, split_prob=0.7, seed=5)
    back = json.loads(to_canonical_json(filtration_to_dict(filt)))
    assert (back["delta"], back["depth"]) == (filt.delta, filt.depth)
    assert [
        (x["id"], x["a"], x["b"], x["level"], x["parent"], tuple(x["children"]))
        for x in back["atoms"]
    ] == [(x.id, x.a, x.b, x.level, x.parent, x.children) for x in filt.atoms]


@settings(max_examples=40, deadline=None)
@given(
    depth=st.integers(min_value=1, max_value=5),
    delta_k=st.sampled_from([(0.5, 2), (0.3, 3), (0.2, 4), (0.1, 5)]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_random_regular_invariants(depth, delta_k, seed):
    delta, k = delta_k
    filt = build_random_regular(depth, delta, k, split_prob=0.7, seed=seed)
    assert regularity_delta(filt) >= delta - 1e-12
    # leaves tile the unit interval
    leaves = sorted((filt.atom(i) for i in filt.leaves), key=lambda a: a.a)
    assert leaves[0].a == 0.0
    assert leaves[-1].b == 1.0
    for left, right in zip(leaves, leaves[1:]):
        assert math.isclose(left.b, right.a, abs_tol=1e-12)
    # schedule replays into exactly the leaf partition
    assert_schedule_replays(filt)
