"""Multiplier transforms: contraction, localization, adjoint routes,
and the one-sided restriction bound with its strictness witness, which the
centered cut turns into an equality.  The dense matrix, its weighted
transpose and its SVD norm are the oracles every matrix-free production
route (``apply``, ``adjoint_closed_form``, ``split_multiplier_norm``) is
compared against."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mblab.bellman import Witness
from mblab.checks import restriction_identity_gaps
from mblab.corpus import active_split_function, max_children_for, random_transform
from mblab.filtration import build_dyadic, build_random_regular, level_partition, split_schedule
from mblab.martingale import MartFunction, _atom_steps, inner, l2_norm
from mblab.reporting import to_canonical_json
from mblab.transforms import (
    MartingaleTransform,
    PredictabilityError,
    _steps_hull,
    make_transform,
    split_multiplier_norm,
    transform_to_dict,
)
from conftest import examples, leaf_positions, rand_fn, regular_towers
import oracles
from oracles import (
    EQUIVALENCES,
    _level_differences,
    average,
    delta_split,
    leaves_of,
    level_map,
    levels_of,
    operator_norm,
    osc2,
    restrict,
    shift,
)


def ones_transform(filt, dim=1):
    mults = np.zeros((filt.layout.level_offsets[filt.depth], dim))
    mults[:, 0] = 1.0
    return make_transform(filt, mults)




def test_unit_ball_is_enforced(dyadic2):
    # the stacked rows of A_0, A_1: the root, then its two children
    with pytest.raises(PredictabilityError, match="level 1 .* leaves the unit ball"):
        make_transform(dyadic2, [[2.0], [1.0], [1.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_multipliers_are_refused(dyadic2, bad):
    # NaN fails every comparison, so a plain "> 1" test would let it through
    mults = np.zeros((3, 2))
    mults[0, 1] = bad
    root = oracles.root(dyadic2).id
    with pytest.raises(PredictabilityError, match=f"level 1 .* atom {root} is not finite"):
        make_transform(dyadic2, mults)
    child = oracles.root(dyadic2).children[1]
    mults = np.zeros((3, 2))
    mults[2, 0] = bad
    with pytest.raises(PredictabilityError, match=f"level 2 .* atom {child} is not finite"):
        make_transform(dyadic2, mults)


def test_level_count_and_shape_are_checked(dyadic2):
    with pytest.raises(PredictabilityError):
        make_transform(dyadic2, np.ones((1, 1)))
    with pytest.raises(PredictabilityError):
        make_transform(dyadic2, np.ones((5, 1)))
    with pytest.raises(PredictabilityError):
        make_transform(dyadic2, np.ones(3))


def test_multipliers_are_one_read_only_copy(dyadic2):
    mults = np.full((3, 2), 0.5)
    op = make_transform(dyadic2, mults)
    mults[0] = 0.0
    assert op.dim == 2 and op.multipliers.shape == (3, 2)
    assert np.all(op.multipliers == 0.5)
    assert not op.multipliers.flags.writeable


def test_operator_norm_below_one(dyadic3):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        op = random_transform(dyadic3, 2, rng)
        assert operator_norm(op) <= 1.0 + 1e-9


def test_kills_constants(dyadic3):
    op = ones_transform(dyadic3)
    c = MartFunction(dyadic3, np.full((dyadic3.n_leaves, 1), 7.0))
    assert np.all(op.apply(c).values == 0.0)


def test_output_is_scalar(dyadic2):
    rng = np.random.default_rng(0)
    op = random_transform(dyadic2, 3, rng)
    f = rand_fn(dyadic2, 3, 1)
    assert op.apply(f).dim == 1
    assert op.adjoint_apply(op.apply(f)).dim == 3


def test_invariant_under_constant_shift(dyadic3):
    rng = np.random.default_rng(2)
    op = random_transform(dyadic3, 2, rng)
    f = rand_fn(dyadic3, 2, 3)
    shifted = shift(f, average(f, oracles.root(dyadic3).id) * -1.0)
    assert np.allclose(op.apply(f).values, op.apply(shifted).values, atol=1e-13)


def test_matrix_route_agrees(kernel_tower):
    op = random_transform(kernel_tower, 2, np.random.default_rng(4))
    assert "matrix" not in vars(op)  # construction builds no dense matrix
    EQUIVALENCES["dense_routes"].on(kernel_tower, 2, 4)
    op.matrix_apply(rand_fn(kernel_tower, 2, 5))
    assert "matrix" in vars(op)


# The split-multiplier norm against the largest split multiplier and the
# dense matrix's SVD norm.
NORMS = ("split_norm", "svd_norm")


def test_operator_norm_is_largest_split_multiplier(kernel_tower):
    for seed in range(3):
        for name in NORMS:
            EQUIVALENCES[name].on(kernel_tower, 1 + seed, seed)


@pytest.mark.parametrize("delta", [0.1, 0.25, 1.0 / 3.0])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_operator_norm_on_random_regular_towers(delta, dim):
    for seed in range(8):
        filt = build_random_regular(
            depth=2 + seed % 4,
            delta=delta,
            max_children=max_children_for(delta),
            split_prob=0.7,
            seed=seed,
        )
        for name in NORMS:
            EQUIVALENCES[name].on(filt, dim, 100 + seed)


def test_split_multiplier_norm_ignores_atoms_that_do_not_split():
    # an atom that persists to the next level holds no split difference, so
    # its multiplier never reaches the norm, even past the unit ball
    filt = build_random_regular(depth=4, delta=0.2, max_children=3, split_prob=0.5, seed=3)
    op = random_transform(filt, 2, np.random.default_rng(4))
    lay = filt.layout
    level, idle = next(
        (n, i)
        for n in range(filt.depth)
        for i in range(len(level_partition(filt, n)))
        if i not in level_map(filt, n)[oracles.event_spans(lay)[lay.event_levels == n, 0]]
    )
    mults = op.multipliers.copy()
    mults[lay.level_offsets[level] + idle] = 5.0
    wide = MartingaleTransform(filt, mults)
    assert split_multiplier_norm(wide) == split_multiplier_norm(op)
    assert abs(operator_norm(wide) - split_multiplier_norm(wide)) <= 1e-12


def test_adjoint_routes_agree(kernel_tower):
    EQUIVALENCES["dense_routes"].on(kernel_tower, 3, 6)


def test_routes_refuse_functions_of_another_space(dyadic2):
    # T takes functions of its dimension, T* scalar ones, on its own tower
    op = random_transform(dyadic2, 2, np.random.default_rng(8))
    other = build_dyadic(2)
    for route, dim in ((op.apply, 2), (op.matrix_apply, 2), (op.adjoint_closed_form, 1), (op.adjoint_apply, 1)):
        with pytest.raises(ValueError, match="different filtration"):
            route(rand_fn(other, dim, 9))
        with pytest.raises(ValueError, match=f"expected {dim}, function has 3"):
            route(rand_fn(dyadic2, 3, 9))


@examples(30)
@given(case=regular_towers(max_depth=6))
def test_dense_oracle_routes_on_random_towers(case):
    # the production routes against the dense matrix and its weighted transpose
    EQUIVALENCES["dense_routes"].on(*case)


def test_adjoint_duality(dyadic3):
    rng = np.random.default_rng(8)
    op = random_transform(dyadic3, 2, rng)
    f = rand_fn(dyadic3, 2, 9)
    g = rand_fn(dyadic3, 1, 10)
    assert inner(g, op.apply(f)) == pytest.approx(inner(op.adjoint_apply(g), f), rel=1e-11)


def test_localization_single_split_input(dyadic3):
    # input living on one split difference produces output inside that atom
    rng = np.random.default_rng(11)
    op = random_transform(dyadic3, 2, rng)
    f = rand_fn(dyadic3, 2, 12)
    for ev in split_schedule(dyadic3):
        atom = oracles.atom(dyadic3, ev)
        piece = delta_split(f, ev)
        out = op.apply(piece)
        for leaf in leaves_of(dyadic3):
            la = oracles.atom(dyadic3, leaf)
            if not (atom.a <= la.a and la.b <= atom.b):
                assert abs(float(out.values[leaf_positions(dyadic3)[leaf], 0])) <= 1e-12


def test_predictable_support_containment():
    filt = build_random_regular(depth=4, delta=0.2, max_children=3, split_prob=0.8, seed=13)
    rng = np.random.default_rng(14)
    op = random_transform(filt, 2, rng)
    f, active = active_split_function(filt, 2, rng)
    out = op.apply(f)
    keep = set()
    for aid in active:
        atom = oracles.atom(filt, aid)
        for leaf in leaves_of(filt):
            la = oracles.atom(filt, leaf)
            if atom.a <= la.a and la.b <= atom.b:
                keep.add(leaf)
    for leaf in leaves_of(filt):
        if leaf not in keep:
            assert abs(float(out.values[leaf_positions(filt)[leaf], 0])) <= 1e-12


def test_predictable_hull_is_contained_in_active_levels():
    filt = build_random_regular(depth=4, delta=0.2, max_children=3, split_prob=0.8, seed=15)
    rng = np.random.default_rng(16)
    f, active = active_split_function(filt, 1, rng)
    hull = _steps_hull(filt, f.values, _atom_steps(filt, f.values))
    lay = filt.layout
    assert hull.dtype == bool and hull.shape == (lay.level_offsets[filt.depth],)
    assert set(lay.stacked_atoms[np.flatnonzero(hull)].tolist()) <= set(active.tolist())
    # the rows of level n - 1 are the A_{n-1} atoms on which the level-n
    # difference is above the threshold
    threshold = 1e-12 * max(1.0, float(np.max(np.abs(f.values))))
    expected = [
        np.max(np.abs(diff[oracles.leaf_slice(filt, atom_id)])) > threshold
        for n, diff in enumerate(_level_differences(filt, f.values), start=1)
        for atom_id in levels_of(filt)[n - 1]
    ]
    assert hull.tolist() == expected and any(expected)


def test_restriction_bound_one_sided(dyadic3):
    rng = np.random.default_rng(17)
    op = random_transform(dyadic3, 1, rng)
    g = rand_fn(dyadic3, 1, 18)
    tstar = op.adjoint_apply(g)
    root = oracles.root(dyadic3).id
    for ev in split_schedule(dyadic3):
        if ev == root:
            continue
        atom = oracles.atom(dyadic3, ev)
        local = osc2(tstar, atom.id)
        cut = op.adjoint_apply(restrict(g, atom.id))
        glob = osc2(cut, root) / atom.measure
        assert local <= glob + 1e-9 * max(1.0, local)


def test_restriction_equality_fails_in_general(dyadic2):
    # ancestor splits feed the global side: cutting g to the left half and
    # rescaling retains the root-level jump the local oscillation never sees
    op = ones_transform(dyadic2)
    left = oracles.root(dyadic2).children[0]
    values = np.zeros((dyadic2.n_leaves, 1))
    values[oracles.leaf_slice(dyadic2, left)] = 1.0
    g = MartFunction(dyadic2, values)  # the indicator of J
    tstar = op.adjoint_apply(g)
    local = osc2(tstar, left)
    cut = op.adjoint_apply(restrict(g, left))
    glob = osc2(cut, oracles.root(dyadic2).id) / oracles.atom(dyadic2, left).measure
    assert local == pytest.approx(0.0, abs=1e-15)
    assert glob == pytest.approx(0.5, abs=1e-12)

    # cutting the centered function instead removes the ancestor term, and
    # the uncentered gap is exactly <g>_J^2 ||T* 1_J||^2 / |J|
    mean = float(average(g, left)[0])
    centered_cut = op.adjoint_apply(restrict(shift(g, -mean), left))
    centered = osc2(centered_cut, oracles.root(dyadic2).id) / oracles.atom(dyadic2, left).measure
    assert centered == pytest.approx(local, abs=1e-15)
    ones = op.adjoint_apply(g)
    defect = mean**2 * inner(ones, ones) / oracles.atom(dyadic2, left).measure
    assert defect == pytest.approx(0.5, abs=1e-12)
    assert glob - local == pytest.approx(defect, abs=1e-12)
    f = MartFunction(dyadic2, np.zeros((dyadic2.n_leaves, op.dim)))  # the probe reads no f
    assert restriction_identity_gaps(Witness(f, g, op)) == pytest.approx((0.0, 0.0), abs=1e-12)


def test_adjoint_mean_vanishes(dyadic3):
    rng = np.random.default_rng(19)
    op = random_transform(dyadic3, 2, rng)
    g = rand_fn(dyadic3, 1, 20)
    assert np.allclose(average(op.adjoint_apply(g), oracles.root(dyadic3).id), 0.0, atol=1e-14)


ROUNDTRIP_TOWERS = {
    "dyadic3": lambda: build_dyadic(3),
    # atoms that do not split persist, so one atom has rows at several levels
    "regular4": lambda: build_random_regular(
        depth=4, delta=0.25, max_children=max_children_for(0.25), split_prob=0.5, seed=21
    ),
}


@pytest.mark.parametrize("tower", sorted(ROUNDTRIP_TOWERS))
def test_json_roundtrip(tower):
    filt = ROUNDTRIP_TOWERS[tower]()
    lay = filt.layout
    rows = lay.stacked_atoms[: lay.level_offsets[filt.depth]]
    assert (len(set(rows.tolist())) < len(rows)) == (tower == "regular4")
    rng = np.random.default_rng(21)
    op = random_transform(filt, 2, rng)
    back = json.loads(to_canonical_json(transform_to_dict(op)))
    assert len(back["multipliers"]) == filt.depth
    coords = []
    for n, level in enumerate(back["multipliers"], start=1):
        assert level["level"] == n
        assert [v["atom_id"] for v in level["values"]] == list(levels_of(filt)[n - 1])
        coords.extend(v["coords"] for v in level["values"])
    assert np.array_equal(coords, op.multipliers)


@examples(25)
@given(seed=st.integers(0, 10_000), dim=st.integers(1, 3))
def test_contraction_property(seed, dim):
    filt = build_dyadic(3)
    rng = np.random.default_rng(seed)
    op = random_transform(filt, dim, rng)
    f = MartFunction(filt, rng.normal(size=(filt.n_leaves, dim)))
    assert l2_norm(op.apply(f)) <= l2_norm(f) * (1.0 + 1e-9) + 1e-12
