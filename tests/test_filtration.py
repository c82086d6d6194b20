"""Structure tests for the atom tower: builders, regularity, schedule, and
the columnar tower against the atom-by-atom oracles."""

import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given

import mblab.cli as cli
import mblab.filtration as filtration
from mblab.bellman import sample_split_configs
from mblab.corpus import max_children_for
from mblab.filtration import (
    Filtration,
    FiltrationError,
    _affine_row,
    _blocks,
    _ratio_sampler,
    _rows,
    _sorted_children,
    build_dyadic,
    build_random_regular,
    filtration_to_dict,
    level_partition,
    max_parts,
    split_schedule,
)
from mblab.reporting import to_canonical_json

import oracles
from conftest import examples, regular_towers, traced
from oracles import (
    EQUIVALENCES,
    Atom,
    atom_columns,
    pass_size,
    regularity_delta,
    sample_ratios_one_by_one,
    tower_from_atoms,
)


def test_dyadic_shape(dyadic3):
    assert dyadic3.depth == 3
    assert dyadic3.n_leaves == 8
    assert dyadic3.total_measure == pytest.approx(1.0, abs=0)
    assert regularity_delta(dyadic3) == pytest.approx(0.5, abs=1e-15)
    widths = dyadic3.layout.measures
    assert np.allclose(widths, 0.125, atol=1e-15)


def test_levels_match_per_level_definition(kernel_tower):
    EQUIVALENCES["levels"].on(kernel_tower, 1, 0)


def test_deep_dyadic_leaf_spans():
    # spans come from one pass over the tower, so depth 14 (32767 atoms)
    # is quick; a recursion visiting each child twice would need ~4^14 calls
    filt = build_dyadic(14)
    assert oracles.levels_of(filt) == oracles.levels_by_definition(filt)
    assert oracles.leaf_slice(filt, oracles.root(filt).id) == slice(0, 16384)
    for atom in oracles.atoms(filt):
        sl = oracles.leaf_slice(filt, atom.id)
        assert sl.stop - sl.start == 2 ** (14 - atom.level)
    events = filt.layout.event_atoms
    assert len(events) == 2**14 - 1 and events[0] == oracles.root(filt).id
    # the schedule is a read of the layout's events
    assert list(split_schedule(filt)) == events.tolist()


def test_layout_events_follow_schedule():
    filt = build_random_regular(depth=6, delta=0.1, max_children=4, split_prob=0.7, seed=32)
    lay = filt.layout
    events = split_schedule(filt)
    # schedule order by definition: split atoms by (level, left endpoint)
    by_definition = sorted((a for a in oracles.atoms(filt) if a.children), key=lambda a: (a.level, a.a))
    assert list(events) == [a.id for a in by_definition]
    assert lay.event_atoms.tolist() == list(events)
    assert lay.event_levels.tolist() == [oracles.atom(filt, e).level for e in events]
    # each event's row holds its atom at its level
    assert lay.stacked_atoms[lay.event_rows].tolist() == lay.event_atoms.tolist()
    assert np.array_equal(np.searchsorted(lay.level_offsets, lay.event_rows, "right") - 1, lay.event_levels)
    for e, (lo, hi) in zip(events, oracles.event_spans(lay).tolist()):
        assert oracles.leaf_slice(filt, e) == slice(lo, hi)
        kids = sorted(oracles.leaf_slice(filt, c).start for c in oracles.atom(filt, e).children)
        assert kids[0] == lo
    for n, part in enumerate(oracles.levels_of(filt)):
        spans = [oracles.leaf_slice(filt, a) for a in part]
        assert oracles.level_starts(lay, n).tolist() == [sl.start for sl in spans]
        assert spans[-1].stop == filt.n_leaves
        for j, sl in enumerate(spans):
            assert np.all(lay.stacked_maps[n][sl] == lay.level_offsets[n] + j)
            assert oracles.level_measures(lay, n)[j] == oracles.atom(filt, part[j]).measure


def test_dyadic_depth_one_is_single_split(dyadic1):
    assert dyadic1.n_leaves == 2
    events = split_schedule(dyadic1)
    assert len(events) == 1
    assert events[0] == oracles.root(dyadic1).id


def test_root_and_interval(dyadic2):
    assert oracles.root(dyadic2).a == 0.0
    assert oracles.root(dyadic2).b == 1.0
    assert oracles.interval(dyadic2) == (0.0, 1.0)
    assert oracles.root(dyadic2).parent is None


def test_children_partition_parent(dyadic3):
    for atom in oracles.atoms(dyadic3):
        if not atom.children:
            continue
        kids = [oracles.atom(dyadic3, c) for c in atom.children]
        # contiguous, measure preserving, left to right
        assert kids[0].a == atom.a
        assert kids[-1].b == atom.b
        for left, right in zip(kids, kids[1:]):
            assert left.b == right.a
        assert sum(k.measure for k in kids) == pytest.approx(atom.measure, rel=1e-12)


def test_schedule_order_level_then_endpoint(dyadic3):
    events = split_schedule(dyadic3)
    keys = [(oracles.atom(dyadic3, e).level, oracles.atom(dyadic3, e).a) for e in events]
    assert keys == sorted(keys)


def assert_schedule_replays(filt):
    """Replayed from {I}, each event replaces one atom of the current
    partition by its children, and the last partition is the leaves."""
    part = {oracles.root(filt).id}
    for ev in split_schedule(filt):
        kids = set(oracles.atom(filt, ev).children)
        assert ev in part and not kids & part
        part = (part - {ev}) | kids
    assert part == set(oracles.leaves_of(filt))


def test_schedule_refines_one_atom_at_a_time(dyadic3):
    assert_schedule_replays(dyadic3)


def test_schedule_covers_active_set(dyadic3):
    events = split_schedule(dyadic3)
    assert set(events) == set(dyadic3.layout.event_atoms.tolist())
    assert len(events) == len(dyadic3.layout.event_atoms)


def test_level_partition_measures(dyadic3):
    for n in range(dyadic3.depth + 1):
        part = level_partition(dyadic3, n)
        total = sum(oracles.atom(dyadic3, a).measure for a in part)
        assert total == pytest.approx(1.0, rel=1e-12)
    assert list(level_partition(dyadic3, 0)) == [oracles.root(dyadic3).id]
    assert set(level_partition(dyadic3, dyadic3.depth)) == {a.id for a in oracles.atoms(dyadic3) if a.is_leaf}


def test_random_regular_respects_floor():
    filt = build_random_regular(depth=4, delta=0.2, max_children=4, split_prob=0.8, seed=11)
    assert regularity_delta(filt) >= 0.2 - 1e-12
    for atom in oracles.atoms(filt):
        for c in atom.children:
            ratio = oracles.atom(filt, c).measure / atom.measure
            assert ratio >= 0.2 - 1e-12


def test_random_regular_critical_delta_forces_equal_split():
    # k * delta == 1 leaves a single feasible ratio vector
    filt = build_random_regular(depth=3, delta=0.5, max_children=2, split_prob=1.0, seed=3)
    for atom in oracles.atoms(filt):
        if atom.children:
            ratios = [oracles.atom(filt, c).measure / atom.measure for c in atom.children]
            assert ratios == pytest.approx([0.5, 0.5], abs=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("delta", [0.1, 0.25, 1.0 / 3.0])
def test_blocked_ratio_draws_match_one_by_one(k, delta):
    # block draws must return the same ratios and leave the generator where
    # the one-draw loop leaves it, call after call; four parts of 1/3 are
    # no split the builder or the sampler draws, and neither is one part
    # more than any floor admits
    if k > max_parts(delta):
        with pytest.raises(FiltrationError, match="infeasible"):
            build_random_regular(depth=2, delta=delta, max_children=k, split_prob=1.0, seed=0)
    else:
        EQUIVALENCES["ratios"].holds(lambda: (np.random.default_rng(7), k, delta, 40))
    with pytest.raises(FiltrationError, match="infeasible"):
        _ratio_sampler(max_parts(delta) + 1, delta)


class CountedRows:
    """A generator that counts its Dirichlet rows."""

    def __init__(self, rng):
        self.rng, self.rows = rng, 0

    def dirichlet(self, alpha):
        self.rows += 1
        return self.rng.dirichlet(alpha)


def test_ratio_cases_reach_their_kinds():
    # each case of the ratio entry takes the route its name says: the
    # sampler's kind, and the block of the first draw's accepted row
    ratios = EQUIVALENCES["ratios"].cases
    kinds = {"rows": _rows, "first_block": _blocks, "past_first_block": _blocks, "affine": _affine_row}
    for name, kind in kinds.items():
        rng, k, delta, _ = ratios[name]()
        assert _ratio_sampler(k, delta).func is kind, name
        counted = CountedRows(rng)
        sample_ratios_one_by_one(counted, k, delta, filtration._RATIO_BUDGET)
        assert (counted.rows > filtration._RATIO_BLOCK) == (name == "past_first_block"), name
    _, k, delta, _ = ratios["equal"]()
    assert 1.0 - k * delta < 1e-9 and k == max_parts(delta)


@pytest.mark.parametrize("budget", [1, 63, 64, 65, 200])
def test_ratio_budget_counts_single_draws(budget):
    # acceptance chance (1 - 3 * 0.318)^2 = 2.1e-3, drawn in blocks; the
    # first 200 rows of seed 3 are all rejected, so every budget here runs
    # out and both samplers draw the affine row where its rows end
    with pass_size("filtration._RATIO_BUDGET", budget):
        EQUIVALENCES["ratios"].holds(lambda: (np.random.default_rng(3), 3, 0.318, 1))
    single, ref = np.random.default_rng(3), np.random.default_rng(3)
    expected = sample_ratios_one_by_one(single, 3, 0.318, budget)
    for _ in range(budget):
        assert ref.dirichlet(np.ones(3)).min() < 0.318
    assert np.array_equal(expected, 0.318 + (1.0 - 3 * 0.318) * ref.dirichlet(np.ones(3)))
    assert single.random() == ref.random()


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


# Floors a hair either side of 1/k with the part count each admits: k parts
# fit just below 1/k and k - 1 just above (1/2 + 5e-11 is no floor).
NEAR_CRITICAL = [
    (1.0 / k + side * 5e-11, k if side < 0 else k - 1)
    for k in range(2, 11)
    for side in (-1, 1)
    if (k, side) != (2, 1)
]


@pytest.mark.parametrize("delta, parts", NEAR_CRITICAL)
def test_every_part_count_is_max_parts(delta, parts, monkeypatch):
    # the corpus cap, the command line's check, the random builder and the
    # configuration sampler all read one count; with counts of their own,
    # the command line refused the cap the corpus picked at 1/3 + 5e-11
    assert max_parts(delta) == parts
    assert max_children_for(delta) == min(4, parts)
    monkeypatch.setattr(cli, "build_tower", lambda *args: args)
    tower = lambda n: cli._filtration(cli.RunConfig(seed=1, delta=delta, max_children=n))
    assert tower(parts)[3] == parts
    with pytest.raises(cli.UsageError, match=re.escape(f"[2, floor(1/delta)] = [2, {parts}]")):
        tower(parts + 1)
    # every count up to the cap draws its ratios, near 1/k as the affine row
    filt = build_random_regular(depth=3, delta=delta, max_children=parts, split_prob=1.0, seed=0)
    assert np.diff(filt.child_starts).max() <= parts
    with pytest.raises(FiltrationError, match="infeasible"):
        build_random_regular(depth=3, delta=delta, max_children=parts + 1, split_prob=1.0, seed=0)
    assert sample_split_configs(delta, 2.0, 200, 0).parts.max() == parts


# sha256 of the six columns, in constructor order, of every tower of
# COLUMN_GRID and of one depth-10 tower that splits every atom
COLUMN_GRID = [
    (delta, depth, seed) for delta in (0.1, 0.25, 1.0 / 3.0) for depth in range(2, 6) for seed in range(24)
]
COLUMNS_SHA256 = "9a45122275831831da676f95c5788e3817faf15be538993434211deef6e34cd0"


def test_random_columns_are_pinned():
    # the builder's bits: the cuts of every split, its child counts and
    # ids, over the corpus floors at their caps, and 10,609 leaves at 0.25
    towers = [
        build_random_regular(depth, delta, max_children_for(delta), 0.7, seed)
        for delta, depth, seed in COLUMN_GRID
    ]
    towers.append(build_random_regular(10, 0.25, 3, 1.0, 7))
    digest = hashlib.sha256()
    for filt in towers:
        for column in filt.columns:
            digest.update(column.tobytes())
    assert digest.hexdigest() == COLUMNS_SHA256


def test_random_regular_is_seed_deterministic():
    a = build_random_regular(depth=4, delta=0.15, max_children=4, split_prob=0.7, seed=42)
    b = build_random_regular(depth=4, delta=0.15, max_children=4, split_prob=0.7, seed=42)
    assert [(x.a, x.b, x.level) for x in oracles.atoms(a)] == [(x.a, x.b, x.level) for x in oracles.atoms(b)]


def test_json_roundtrip():
    filt = build_random_regular(depth=3, delta=0.2, max_children=3, split_prob=0.7, seed=5)
    back = json.loads(to_canonical_json(filtration_to_dict(filt)))
    assert (back["delta"], back["depth"]) == (filt.delta, filt.depth)
    assert [
        (x["id"], x["a"], x["b"], x["level"], x["parent"], tuple(x["children"]))
        for x in back["atoms"]
    ] == [(x.id, x.a, x.b, x.level, x.parent, x.children) for x in oracles.atoms(filt)]


@examples(40)
@given(case=regular_towers(max_depth=5))
def test_random_regular_invariants(case):
    filt = case.tower
    assert regularity_delta(filt) >= filt.delta - 1e-12
    # leaves tile the unit interval
    leaves = sorted((oracles.atom(filt, i) for i in oracles.leaves_of(filt)), key=lambda a: a.a)
    assert leaves[0].a == 0.0
    assert leaves[-1].b == 1.0
    for left, right in zip(leaves, leaves[1:]):
        assert math.isclose(left.b, right.a, abs_tol=1e-12)
    # schedule replays into exactly the leaf partition
    assert_schedule_replays(filt)


# ---------------------------------------------------------------------------
# The columnar tower against the atom-by-atom oracles: columns, atom views,
# levels, every layout field and the canonical payload bytes


@pytest.mark.parametrize("depth", range(1, 13))
def test_dyadic_matches_recursive_builder(depth):
    EQUIVALENCES["dyadic_tower"].holds(lambda: (depth,))


FLOORS = (0.1, 0.25, 1.0 / 3.0)


@pytest.mark.parametrize("delta", FLOORS)
@pytest.mark.parametrize("depth", range(1, 13))
def test_random_regular_matches_atom_builder(depth, delta):
    EQUIVALENCES["random_tower"].holds(lambda: (depth, delta, max_children_for(delta), 0.7, 100 * depth))


@examples(25)
@given(case=regular_towers(max_depth=6))
def test_random_regular_matches_atom_builder_at_any_seed(case):
    EQUIVALENCES["random_tower"].on(*case)


# Children listed right to left, the root's and one grandchild's.
RIGHT_TO_LEFT = (
    Atom(0, 0.0, 1.0, 0, None, (2, 1)),
    Atom(1, 0.0, 0.5, 1, 0, (3, 4)),
    Atom(2, 0.5, 1.0, 1, 0, (6, 5)),
    Atom(3, 0.0, 0.25, 2, 1, ()),
    Atom(4, 0.25, 0.5, 2, 1, ()),
    Atom(5, 0.5, 0.75, 2, 2, ()),
    Atom(6, 0.75, 1.0, 2, 2, ()),
)


def test_hand_built_tower_keeps_child_order():
    # the layout orders levels by endpoint but lists event children as given
    atoms = list(RIGHT_TO_LEFT)
    filt = tower_from_atoms(atoms, 0.5)
    oracles.same_tower(filt, oracles.AtomTower(delta=0.5, depth=2, atoms=tuple(atoms)))
    assert oracles.levels_of(filt) == ((0,), (1, 2), (3, 4, 5, 6))
    assert filt.layout.event_children.tolist() == [2, 1, 3, 4, 6, 5]


def test_dyadic_columns_hold_little_memory():
    # four int and two float columns of 2^17 - 1 atoms; the layout is not
    # built until it is read
    filt, held, _ = traced(lambda: build_dyadic(16))
    assert held <= 8_000_000
    assert "layout" not in vars(filt)


def test_validation_drops_each_check_group_before_the_next():
    # a check group's length-n temporaries are dropped before the next
    # group's are made; kept to the last check, they peak at 3.85 MB over a
    # depth-14 tower (32,767 atoms), and the bound is a quarter below that
    filt = build_dyadic(14)
    _, _, peak = traced(lambda: filtration._validate(filt))
    assert peak <= 0.75 * 3_850_000


@pytest.mark.parametrize("delta, k, seed", [(0.25, 4, 2), (1.0 / 3.0, 3, 1)])
def test_critical_equal_split_at_depth_twelve(delta, k, seed):
    # k * delta = 1 leaves the equal split only; past depth 8 the rounding of
    # its endpoints alone puts ratios more than 1e-12 below delta, which the
    # fixed-tolerance check rejected
    filt = build_random_regular(depth=12, delta=delta, max_children=k, split_prob=0.7, seed=seed)
    assert regularity_delta(filt) < delta - 1e-12
    with pytest.raises(FiltrationError, match="below delta"):
        oracles.AtomTower(delta=delta, depth=12, atoms=tuple(oracles.atoms(filt)))


def test_ratio_check_still_rejects_a_sub_delta_child():
    # move one cut of the last split so that a child keeps delta - 1e-7
    # of its parent: far below delta at that depth, though far above the
    # endpoint roundoff
    filt = build_random_regular(depth=12, delta=0.25, max_children=4, split_prob=0.7, seed=2)
    p = int(filt.layout.event_atoms[-1])
    lo = int(filt.child_starts[p])
    c1, c2 = filt.children[lo : lo + 2].tolist()
    a, b = filt.a.copy(), filt.b.copy()
    a[c2] = b[c1] = a[c1] + (0.25 - 1e-7) * (b[p] - a[p])
    cols = {name: getattr(filt, name) for name in ("level", "parent", "child_starts", "children")}
    with pytest.raises(FiltrationError, match=f"below delta at atom {p}"):
        Filtration(delta=0.25, depth=12, a=a, b=b, **cols)


# A dyadic depth-2 tower as atoms; each malformed tower below edits it.
DYADIC2 = (
    Atom(0, 0.0, 1.0, 0, None, (1, 2)),
    Atom(1, 0.0, 0.5, 1, 0, (3, 4)),
    Atom(2, 0.5, 1.0, 1, 0, (5, 6)),
    Atom(3, 0.0, 0.25, 2, 1, ()),
    Atom(4, 0.25, 0.5, 2, 1, ()),
    Atom(5, 0.5, 0.75, 2, 2, ()),
    Atom(6, 0.75, 1.0, 2, 2, ()),
)


def _edit(*atoms):
    """DYADIC2 with each given atom in place of the one with its id."""
    new = {atom.id: atom for atom in atoms}
    return [new.get(atom.id, atom) for atom in DYADIC2]


def _crowded_split():
    # ten children overlapping by 0.9e-12 each: every endpoint chains within
    # the 1e-12 tolerance, but their measures sum 8.1e-12 past the parent's
    cuts = [j / 10 for j in range(11)]
    kids = [
        Atom(j + 1, cuts[j], cuts[j + 1] + (0.9e-12 if j < 9 else 0.0), 1, 0, ())
        for j in range(10)
    ]
    return [Atom(0, 0.0, 1.0, 0, None, tuple(range(1, 11))), *kids]


MALFORMED = {
    "atom ids must be dense": (_edit(Atom(2, 0.5, 1.0, 1, 0, (5, 7))), 0.5, 2),
    "atom 0 has nonpositive measure": (_edit(Atom(0, 1.0, 1.0, 0, None, (1, 2))), 0.5, 2),
    "atom 0 has exactly one child": (
        [
            Atom(0, 0.0, 1.0, 0, None, (1,)),
            Atom(1, 0.0, 1.0, 1, 0, (2, 3)),
            Atom(2, 0.0, 0.5, 2, 1, ()),
            Atom(3, 0.5, 1.0, 2, 1, ()),
        ],
        0.5,
        2,
    ),
    "atom 1 splits past the final level": (list(DYADIC2), 0.5, 1),
    "child bookkeeping broken at atom 1": (_edit(Atom(3, 0.0, 0.25, 2, 2, ())), 0.5, 2),
    "children do not span atom 1": (_edit(Atom(4, 0.25, 0.45, 2, 1, ())), 0.5, 2),
    "children leave a gap inside atom 1": (_edit(Atom(3, 0.0, 0.2, 2, 1, ())), 0.25, 2),
    "child measures do not sum inside atom 0": (_crowded_split(), 0.1, 1),
    "child ratio 4.000e-01 below delta at atom 1": (
        _edit(Atom(3, 0.0, 0.2, 2, 1, ()), Atom(4, 0.2, 0.5, 2, 1, ())),
        0.5,
        2,
    ),
    # a second root at level 0 would start a second tower; this one is a
    # root off level 0
    "need exactly one root atom at level 0": ([*DYADIC2, Atom(7, 0.0, 1.0, 1, None, ())], 0.5, 2),
    "no split at level 2": (list(DYADIC2), 0.5, 3),
}


@pytest.mark.parametrize("message", list(MALFORMED))
def test_each_validation_message_survives(message):
    atoms, delta, depth = MALFORMED[message]
    with pytest.raises(FiltrationError, match=message):
        tower_from_atoms(atoms, delta, depth)
    if message != "atom ids must be dense":
        # the atom-by-atom check raises the same message; a dense-id break
        # is an id out of range among the columns, where the atom list
        # meets it as a missing index
        with pytest.raises(FiltrationError, match=message):
            oracles.AtomTower(delta=delta, depth=depth, atoms=tuple(atoms))


# The whole message of each malformed tower validated alone: the atom and
# the tower it names.  A lone tower's tower index is all zeros, so every
# message but a second root's names tower 0.
LONE_MESSAGES = {
    "atom ids must be dense": (
        "atom ids must be dense 0..len-1 in order: atom 2 names an id out of range in tower 0"
    ),
    "atom 0 has nonpositive measure": "atom 0 has nonpositive measure in tower 0",
    "atom 0 has exactly one child": "atom 0 has exactly one child in tower 0",
    "atom 1 splits past the final level": "atom 1 splits past the final level in tower 0",
    "child bookkeeping broken at atom 1": "child bookkeeping broken at atom 1 in tower 0",
    "children do not span atom 1": "children do not span atom 1 in tower 0",
    "children leave a gap inside atom 1": "children leave a gap inside atom 1 in tower 0",
    "child measures do not sum inside atom 0": "child measures do not sum inside atom 0 in tower 0",
    "child ratio 4.000e-01 below delta at atom 1": "child ratio 4.000e-01 below delta at atom 1 in tower 0",
    "need exactly one root atom at level 0": (
        "need exactly one root atom at level 0: atom 7 is a root at another level in tower 1"
    ),
    "no split at level 2": "no split at level 2 in tower 0; tower not strictly increasing",
}


@pytest.mark.parametrize("message", list(MALFORMED))
def test_each_validation_message_names_the_tower_in_a_batch(message):
    # the malformed tower alone names its atom and tower 0; first in a stack,
    # before a good tower, the same; second, after a good tower of n atoms,
    # the lone tower's message with every atom id moved by n and every
    # tower by one
    atoms, delta, depth = MALFORMED[message]
    with pytest.raises(FiltrationError) as lone:
        tower_from_atoms(atoms, delta, depth)
    assert str(lone.value) == LONE_MESSAGES[message]
    good = build_dyadic(depth)
    with pytest.raises(FiltrationError) as first:
        Filtration.stack(delta, depth, [atom_columns(atoms), good.columns])
    if message == "atom ids must be dense":
        # the id out of range alone is the good tower's root in the stack
        assert str(first.value) == "child bookkeeping broken at atom 2 in tower 0"
    else:
        assert str(first.value) == str(lone.value)
    moves = {"atom": good.n_atoms, "tower": 1}
    moved = re.sub(r"(atom|tower) (\d+)", lambda m: f"{m[1]} {int(m[2]) + moves[m[1]]}", str(lone.value))
    assert "in tower " in moved
    with pytest.raises(FiltrationError, match=re.escape(moved)):
        Filtration.stack(delta, depth, [good.columns, atom_columns(atoms)])


def test_batch_needs_a_split_at_every_level_of_every_tower():
    # the first tower splits at level 1, the second does not
    parts = [build_dyadic(2).columns, build_dyadic(1).columns]
    with pytest.raises(FiltrationError, match="no split at level 1 in tower 1"):
        Filtration.stack(0.5, 2, parts)


def test_towers_start_at_their_roots():
    # atom 0 listed as a child: the ids of a tower do not start at its root
    atoms = [Atom(0, 0.0, 0.5, 1, 2, ()), Atom(1, 0.5, 1.0, 1, 2, ()), Atom(2, 0.0, 1.0, 0, None, (0, 1))]
    with pytest.raises(FiltrationError, match="each tower must start at its root"):
        tower_from_atoms(atoms, 0.5)
    # atom 2's second child, its bookkeeping else sound, in the id range of
    # the tower that atom 6 roots
    atoms = [
        *_edit(Atom(2, 0.5, 1.0, 1, 0, (5, 9)))[:6],
        Atom(6, 0.0, 1.0, 0, None, (7, 8)),
        Atom(7, 0.0, 0.5, 1, 6, ()),
        Atom(8, 0.5, 1.0, 1, 6, ()),
        Atom(9, 0.75, 1.0, 2, 2, ()),
    ]
    with pytest.raises(FiltrationError, match="child bookkeeping broken at atom 2 in tower 0"):
        tower_from_atoms(atoms, 0.5, 2)


def test_single_tower_accessors_refuse_a_batch():
    batch = oracles.stack([build_dyadic(2), build_dyadic(2)])
    reads = (oracles.root, oracles.interval, lambda f: f.total_measure, filtration_to_dict)
    for read in reads:
        with pytest.raises(FiltrationError, match="a filtration of 2 towers has no single root"):
            read(batch)
    assert oracles.interval(oracles.stack([build_dyadic(2)])) == (0.0, 1.0)


def test_unlisted_atom_is_rejected():
    # an atom naming a parent that does not list it: the atom-by-atom check
    # let it through, the columns reject it
    atoms = [*DYADIC2, Atom(7, 0.5, 1.0, 2, 2, ())]
    oracles.AtomTower(delta=0.5, depth=2, atoms=tuple(atoms))
    with pytest.raises(FiltrationError, match="child bookkeeping broken at atom 2"):
        tower_from_atoms(atoms, 0.5, 2)


def test_atom_views_read_the_columns(dyadic2):
    root = oracles.root(dyadic2)
    assert (root.id, root.a, root.b, root.level, root.parent, root.children) == (0, 0.0, 1.0, 0, None, (1, 4))
    assert oracles.atom(dyadic2, -1).id == dyadic2.n_atoms - 1
    assert len(oracles.atoms(dyadic2)) == 7 and oracles.atoms(dyadic2)[4].children == (5, 6)
    with pytest.raises(IndexError):
        oracles.atom(dyadic2, 7)
    assert not any(col.flags.writeable for col in (dyadic2.a, dyadic2.children))


# ---------------------------------------------------------------------------
# Tower batches


def assert_batch_holds(towers, dims):
    """One batch of the towers: its offsets, each tower's rows one range
    per level, and each tower's part of its layout and of its kernels' output
    equal to that tower's own, bit for bit (``batch_layout``,
    ``batch_kernels``)."""
    batch = oracles.stack(towers)
    assert batch.depth == towers[0].depth
    assert batch.atom_offsets.tolist() == np.cumsum([0] + [t.n_atoms for t in towers]).tolist()
    assert batch.leaf_offsets.tolist() == np.cumsum([0] + [t.n_leaves for t in towers]).tolist()
    rows, starts = batch.tower_rows(batch.depth + 1)
    assert sorted(rows.tolist()) == list(range(len(batch.layout.stacked_atoms)))
    for t, tower in enumerate(towers):
        run, offsets = rows[starts[t] : starts[t + 1]], tower.layout.level_offsets.tolist()
        assert all(np.all(np.diff(run[o0:o1]) == 1) for o0, o1 in zip(offsets, offsets[1:]))
        EQUIVALENCES["layout"].holds(lambda: (tower,))
    EQUIVALENCES["batch_layout"].holds(lambda: (towers,))
    for dim in dims:
        EQUIVALENCES["batch_kernels"].holds(lambda: oracles.batch_kernel_args(towers, dim, dim))
    return batch


def test_batch_of_kernel_towers(kernel_tower):
    assert_batch_holds(oracles.batch_members(kernel_tower), (1, 3))


@pytest.mark.parametrize("depth", range(1, 9))
def test_batch_of_dyadic_and_random_towers(depth):
    assert_batch_holds(oracles.batch_members(build_dyadic(depth)), (2,))


@pytest.mark.parametrize("delta", FLOORS)
def test_batch_of_random_towers_at_a_floor(delta):
    towers = [build_random_regular(5, delta, max_children_for(delta), 0.7, s) for s in range(6)]
    assert_batch_holds(towers, (1,))
    assert_batch_holds(towers[:1], ())


def test_batch_of_towers_with_children_right_to_left():
    # the batch's children column takes the lexsort path of _sorted_children
    towers = [tower_from_atoms(list(RIGHT_TO_LEFT), 0.5), build_dyadic(2)]
    towers += towers[::-1]
    batch = assert_batch_holds(towers, (1, 2))
    owner = np.arange(batch.n_atoms).repeat(np.diff(batch.child_starts))
    assert _sorted_children(batch, owner) is not batch.children


def test_batch_needs_towers_of_one_depth():
    with pytest.raises(FiltrationError, match="at least one tower"):
        Filtration.stack(0.5, 2, [])
    parts = [build_dyadic(2).columns, build_dyadic(3).columns]
    with pytest.raises(FiltrationError, match="atom 9 splits past the final level in tower 1"):
        Filtration.stack(0.5, 2, parts)
    with pytest.raises(FiltrationError, match="no split at level 2 in tower 0"):
        Filtration.stack(0.5, 3, parts)
