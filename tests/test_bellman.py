"""Candidate functions, split configurations, the two-point expansion,
and the rescaling estimator."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mblab.bellman import (
    SplitConfigs,
    Witness,
    _diameters,
    _split_terms,
    adversarial_split_configs,
    conjugate_exponent,
    dyadic_expand,
    estimate_rescale_constant,
    in_bellman_domain,
    linear_candidate,
    moment_table,
    quadratic_candidate,
    recombine_slack,
    sample_dyadic_split_configs,
    sample_split_configs,
    shaped_candidate,
    split_slack,
)
import mblab.bellman as bellman
from mblab.reporting import to_canonical_json
from conftest import examples, traced
import oracles
from oracles import EQUIVALENCES, diameter_pair, scale_candidate


def point(x1, x2, x3, x4):
    """One moment row (x1..., x2, x3, x4)."""
    return np.array([*np.atleast_1d(np.asarray(x1, dtype=float)), x2, x3, x4])


def one_config(delta, points, weights, d, base, p=2.0):
    """A batch of one configuration."""
    return SplitConfigs(delta, p, np.array([points]), np.array([weights]), np.array([d]), np.array([base]))


def three_point_config(xs, ws, p=2.0, delta=None, d=1.0):
    """Valid configuration with child x2 = d^2 and base x2 = 0."""
    if delta is None:
        delta = min(ws)
    q = conjugate_exponent(p)
    pts = [point(x, d * d, abs(float(x)) ** p, (d * d) ** (q / 2.0)) for x in xs]
    w = np.asarray(ws, dtype=float)
    base = point(
        float(np.dot(w, xs)),
        0.0,
        float(np.dot(w, [abs(float(x)) ** p for x in xs])),
        float(np.dot(w, [(d * d) ** (q / 2.0)] * len(xs))),
    )
    return one_config(delta, pts, w, d, base, p=p)


# ---------------------------------------------------------------------------
# exponents, points, domain


def test_conjugate_exponent_values():
    assert conjugate_exponent(2.0) == pytest.approx(2.0, abs=0)
    assert conjugate_exponent(1.5) == pytest.approx(3.0, rel=1e-15)
    assert conjugate_exponent(4.0 / 3.0) == pytest.approx(4.0, rel=1e-12)


def test_conjugate_exponent_rejects_out_of_range():
    for bad in (1.0, 0.5, 2.5, 0.0, -1.0):
        with pytest.raises(ValueError):
            conjugate_exponent(bad)


def test_domain_membership():
    assert in_bellman_domain(point(0.0, 0.0, 0.0, 0.0), 2.0)
    assert in_bellman_domain(point(1.0, 0.0, 1.0, 0.0), 2.0)
    # moment slot below |x1|^p
    assert not in_bellman_domain(point(1.0, 0.0, 0.5, 1.0), 2.0)
    # fourth slot below x2^{q/2}
    assert not in_bellman_domain(point(0.0, 4.0, 0.0, 1.0), 2.0)
    assert not in_bellman_domain(point(0.0, -1.0, 0.0, 0.0), 2.0)
    # rows at once, and a NaN in any slot fails
    rows = np.array([point(1.0, 0.0, 1.0, 0.0), point(1.0, 0.0, 0.5, 1.0), point(np.nan, 0.0, 1.0, 1.0)])
    assert in_bellman_domain(rows, 2.0).tolist() == [True, False, False]
    for slot in range(1, 4):
        assert not in_bellman_domain(np.where(np.arange(4) == slot, np.nan, 1.0), 2.0)


def test_bellman_point_slots(small_cells):
    pc = small_cells[0]
    filt = pc.filtration
    row = Witness(pc.f, pc.g, pc.op, 2.0).table.points[oracles.root(filt).id]
    from oracles import average, osc2

    assert row.shape == (pc.f.dim + 3,)
    assert np.allclose(row[:-3], average(pc.f, oracles.root(filt).id), atol=1e-14)
    # <g^2> and <|f|^2> over the root, the measure-weighted leaf sums
    m = filt.layout.measures / filt.total_measure
    g2 = float(m @ pc.g.values[:, 0] ** 2)
    assert row[-3] == pytest.approx(g2 - osc2(pc.op.adjoint_apply(pc.g), oracles.root(filt).id), rel=1e-12)
    f2 = float(m @ np.sum(pc.f.values**2, axis=1))
    assert row[-2] == pytest.approx(f2, rel=1e-12)
    assert in_bellman_domain(row, 2.0, tol=1e-9 * max(1.0, row[-2], row[-1]))


def test_bellman_point_rejects_negative_x2(small_cells):
    pc = small_cells[0]
    filt = pc.filtration
    # an oversized fake adjoint output drives x2 far negative
    big = pc.op.adjoint_apply(pc.g)
    fake = type(big)(filt, big.values * 100.0 + 5.0)
    with pytest.raises(ArithmeticError):
        moment_table(pc.f, pc.g, fake, 2.0).check_x2([oracles.root(filt).id])


def test_point_serialization_roundtrip(small_cells):
    # the search's root point is a plain dict of the table's root row, and
    # the writer's text reads back as the same dict
    from mblab.estimator import _root_point

    pc = small_cells[0]
    root = oracles.root(pc.filtration).id
    pt = _root_point(pc)
    *x1, x2, x3, x4 = Witness(pc.f, pc.g, pc.op, 2.0).table.points[root].tolist()
    assert pt == {"x1": x1, "x2": x2, "x3": x3, "x4": x4, "p": 2.0, "atom": root}
    assert json.loads(to_canonical_json(pt)) == pt


# ---------------------------------------------------------------------------
# candidates


def test_quadratic_candidate_reference_values():
    cand = quadratic_candidate(0.25)
    alpha = 1.0 / math.sqrt(0.5)
    assert cand.cp == pytest.approx(alpha, rel=1e-15)
    assert cand.evaluate(point(0.0, 0.0, 1.0, 1.0)) == pytest.approx(2.0 * alpha, rel=1e-14)
    assert cand.evaluate(point(0.0, 0.0, 0.0, 0.0)) == pytest.approx(0.0, abs=0)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_candidates_take_many_points_with_one_point_bits(dim):
    # many points at once give each point's one-point value bit for bit,
    # and |x1|^2 rounds like np.dot
    EQUIVALENCES["candidates"].holds(lambda: (oracles.candidates_at(0.25), *oracles.moment_points(dim, dim)))


def test_quadratic_candidate_needs_cp_below_two():
    with pytest.raises(ValueError):
        quadratic_candidate(0.25, p=1.5)
    cand = quadratic_candidate(0.25, p=1.5, cp=4.0 / math.sqrt(0.5))
    assert cand.p == 1.5


def test_scale_candidate():
    cand = quadratic_candidate(0.5)
    doubled = scale_candidate(cand, 2.0, delta=0.25)
    pt = point(0.5, 0.1, 1.0, 1.0)
    assert doubled.evaluate(pt) == pytest.approx(2.0 * cand.evaluate(pt), rel=1e-14)
    assert doubled.delta == 0.25


def test_boundary_sign_on_sampled_boundary():
    cand = quadratic_candidate(0.25)
    rng = np.random.default_rng(0)
    for _ in range(200):
        # on the face |x1|^2 = x3, with x4 at or above x2^{q/2}
        x1 = rng.normal(size=2)
        x2 = float(abs(rng.normal()))
        margin = 0.0 if rng.random() < 0.25 else float(0.5 * rng.exponential())
        pt = point(x1, x2, float(np.linalg.norm(x1) ** 2.0), x2 + margin)
        assert abs(float(np.linalg.norm(pt[:2]))) ** 2.0 == pytest.approx(pt[-2], rel=1e-12)
        assert cand.evaluate(pt) >= -1e-9


# ---------------------------------------------------------------------------
# split configurations and slack


def test_split_config_validation():
    good = three_point_config([0.0, 1.0], [0.5, 0.5])
    assert good.parts.tolist() == [2] and len(good) == 1
    assert good.displacement_residual()[0] <= 1e-12
    with pytest.raises(ValueError):
        three_point_config([0.0, 1.0], [0.9, 0.1], delta=0.2)  # weight below floor
    with pytest.raises(ValueError):
        three_point_config([0.0, 1.0], [0.6, 0.6])  # weights do not sum to one
    with pytest.raises(ValueError):
        three_point_config([0.0, 1.0, 2.0], [1 / 3] * 3, delta=0.4)  # too many parts
    with pytest.raises(ValueError, match="configuration 0"):
        one_config(
            0.5,
            [point(0.0, 1.0, 0.0, 1.0), point(0.0, 1.0, 0.0, 1.0)],
            [0.5, 0.5],
            1.0,
            point(0.0, 5.0, 0.0, 1.0),  # displacement identity broken
        )


def test_split_configs_name_the_first_bad_row():
    # the cells without a part may sit anywhere in a row
    good = three_point_config([0.0, 1.0, 2.0], [0.25, 0.25, 0.5])
    two = three_point_config([0.0, 1.0], [0.5, 0.5])
    points = np.concatenate((good.points, good.points, two.points[:, [0, 1, 1]]))
    weights = np.concatenate((good.weights, good.weights, [[0.5, 0.0, 0.5]]))
    d, base = np.concatenate((good.d, good.d, two.d)), np.concatenate((good.base, good.base, two.base))
    cfgs = SplitConfigs(0.25, 2.0, points, weights, d, base)
    assert len(cfgs) == 3 and cfgs.parts.tolist() == [3, 3, 2]
    assert cfgs.has.tolist()[2] == [True, False, True]
    assert cfgs.displacement_residual().max() <= 1e-12
    # the gap cell has no copies, and the order names the padded columns
    assert dyadic_expand(cfgs, m=2)[2].order == (0, 0, 2, 2)
    with pytest.raises(ValueError, match="configuration 0: weights are not positive multiples"):
        dyadic_expand(cfgs, m=1)
    weights[1] = (0.2, 0.3, 0.5)  # a weight below the floor
    with pytest.raises(ValueError, match="configuration 1: a weight below delta=0.25"):
        SplitConfigs(0.25, 2.0, points, weights, d, base)


def test_split_configs_raise_on_the_first_violated_check():
    # row 0's weights do not sum to one (the fourth check), row 1 has a
    # single part (the first): the first check violated names its first row
    good = three_point_config([0.0, 1.0], [0.5, 0.5])
    points = np.concatenate((good.points, good.points))
    weights = np.array([[0.5, 0.6], [1.0, 0.0]])
    d, base = np.concatenate((good.d, good.d)), np.concatenate((good.base, good.base))
    with pytest.raises(ValueError, match="configuration 1: a split configuration needs at least two"):
        SplitConfigs(0.5, 2.0, points, weights, d, base)


def test_zero_weight_cell_holds_no_part():
    # a cell of weight exactly zero is no part: its point, far away and
    # outside the domain, enters no check, no sum and no diameter
    two = three_point_config([0.0, 1.0], [0.5, 0.5])
    far = point(50.0, np.nan, -1.0, 0.0)
    points = np.concatenate((two.points, far[None, None]), axis=1)
    cfgs = SplitConfigs(0.5, 2.0, points, [[0.5, 0.5, 0.0]], two.d, two.base)
    assert cfgs.parts.tolist() == [2] and cfgs.displacement_residual()[0] <= 1e-12
    cand = quadratic_candidate(0.5)
    assert split_slack(cand, cfgs).tolist() == split_slack(cand, two).tolist()
    assert dyadic_expand(cfgs, m=1)[0].diameter == 1.0


@pytest.mark.parametrize(
    "case",
    ["nan weight", "nan base x1", "nan base x2"],
)
def test_split_configs_reject_nan(case):
    # each check accepts with <= or >=, so a NaN fails it
    good = three_point_config([0.0, 1.0], [0.5, 0.5])
    weights, base = good.weights.copy(), good.base.copy()
    if case == "nan weight":
        weights[0] = (np.nan, 0.5)
    elif case == "nan base x1":
        base[0, 0] = np.nan
    else:
        base[0, 1] = np.nan
    with pytest.raises(ValueError, match="configuration 0"):
        SplitConfigs(good.delta, good.p, good.points, weights, good.d, base)


def _clears(cand, cfgs):
    return split_slack(cand, cfgs) >= -1e-9 * np.maximum(1.0, np.abs(cand.evaluate(cfgs.base)))


def test_split_slack_nonnegative_for_quadratic_at_own_floor():
    for delta in (0.1, 0.25, 0.5):
        cand = quadratic_candidate(delta)
        assert _clears(cand, sample_split_configs(delta, 2.0, 60, seed=1, dim=2)).all()
        assert _clears(cand, adversarial_split_configs(delta, 2.0)).all()


def test_split_slack_fails_for_linear_candidate():
    cand = linear_candidate(1.0, 2.0, 0.25)
    worst = split_slack(cand, adversarial_split_configs(0.25, 2.0)).min()
    assert worst < -1e-6


def test_sampled_configs_respect_contracts():
    cfgs = sample_split_configs(0.2, 1.5, 40, seed=2, dim=3)
    assert len(cfgs) == 40
    assert cfgs.parts.max() <= 5
    assert cfgs.weights[cfgs.has].min() >= 0.2 - 1e-12
    scale = np.maximum(1.0, np.maximum(cfgs.base[:, -2], cfgs.base[:, -1]))
    assert (cfgs.displacement_residual() <= 1e-10 * scale).all()
    cfgs = sample_dyadic_split_configs(0.25, 2.0, 20, seed=3)
    assert cfgs.weights[cfgs.has].min() >= 0.25 - 1e-12
    # dyadic weights have denominator 2^6
    assert np.allclose(cfgs.weights * 64, np.round(cfgs.weights * 64), atol=1e-9)


# ---------------------------------------------------------------------------
# dyadic expansion


def test_expansion_ratio_two_equal_points():
    cfg = three_point_config([0.0, 1.0], [0.5, 0.5])
    (cert,) = dyadic_expand(cfg, m=1)
    assert not cert.degenerate
    assert cert.ratio == pytest.approx(1.0, abs=1e-12)


def test_expansion_ratio_quarter_weight():
    cfg = three_point_config([0.0, 1.0], [0.25, 0.75])
    (cert,) = dyadic_expand(cfg, m=2)
    assert cert.ratio == pytest.approx(0.5, abs=1e-12)
    assert cert.diameter == pytest.approx(1.0, rel=1e-14)


def test_expansion_ratio_three_points():
    cfg = three_point_config([0.0, 1.0, 2.0], [0.25, 0.25, 0.5])
    (cert,) = dyadic_expand(cfg, m=2)
    assert cert.separation == pytest.approx(1.5, rel=1e-13)
    assert cert.diameter == pytest.approx(2.0, rel=1e-13)
    assert cert.ratio == pytest.approx(0.75, abs=1e-12)


def test_expansion_degenerate_when_points_coincide():
    cfg = three_point_config([1.0, 1.0], [0.5, 0.5])
    (cert,) = dyadic_expand(cfg, m=1)
    assert cert.degenerate
    assert cert.ratio is None


def test_expansion_pair_choice_on_tied_and_repeated_points():
    # the square's two diagonals tie for the diameter and point 4 repeats
    # point 0: the first maximal pair (0, 3) sets the sort direction, and
    # ties in the sort keys keep copy order
    xs = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.0, 0.0)]
    ws = np.array([0.25, 0.25, 0.25, 0.125, 0.125])
    pts = [point(x, 0.0, float(np.dot(x, x)) + 1.0, 1.0) for x in xs]
    x1s = [pt[:2] for pt in pts]
    base = point(sum(w * x1 for w, x1 in zip(ws, x1s)), 0.0, float(ws @ [pt[-2] for pt in pts]), 1.0)
    cfg = one_config(0.125, pts, ws, 0.0, base)
    assert diameter_pair(x1s) == (math.sqrt(2.0), (0, 3))
    assert diameter_pair([x1s[0], x1s[4]]) == (0.0, (0, 0))
    assert one_row_diameter(x1s) == (math.sqrt(2.0), (0, 3))
    assert one_row_diameter([x1s[0], x1s[4]]) == (0.0, (0, 0))
    assert _diameters(cfg.points[..., :2], cfg.has).tolist() == [math.sqrt(2.0)]
    (cert,) = dyadic_expand(cfg, m=3)
    assert cert.diameter == math.sqrt(2.0)
    # the other diagonal (1, 2) would give (1, 1, 0, 0, 3, 4, 2, 2)
    assert cert.order == (0, 0, 4, 1, 1, 2, 2, 3)


def assert_expansions_match_row_by_row(cfgs, m):
    """Every row's expansion, in row-batched passes, equals the row-by-row
    oracle's, bit for bit."""
    EQUIVALENCES["expansion"].holds(lambda: (cfgs, m))


@pytest.mark.parametrize("delta", [0.1, 0.2, 0.25, 1.0 / 3.0, 0.5])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_expansion_rows_match_row_by_row(delta, dim):
    for m, p in ((1, 2.0), (3, 1.5), (6, 2.0), (8, 1.25)):
        assert_expansions_match_row_by_row(sample_dyadic_split_configs(delta, p, 60, dim, dim=dim, m=m), m)


def test_expansion_of_tied_masked_and_coincident_rows_matches_row_by_row():
    # the square's tied diagonals, a coincident pair, and sampled rows whose
    # empty cells sit between their parts
    xs = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.0, 0.0)]
    ws = np.array([0.25, 0.25, 0.25, 0.125, 0.125])
    pts = [point(x, 0.0, float(np.dot(x, x)) + 1.0, 1.0) for x in xs]
    base = point(sum(w * pt[:2] for w, pt in zip(ws, pts)), 0.0, float(ws @ [pt[-2] for pt in pts]), 1.0)
    assert_expansions_match_row_by_row(one_config(0.125, pts, ws, 0.0, base), 3)
    assert_expansions_match_row_by_row(three_point_config([1.0, 1.0], [0.5, 0.5]), 1)
    cfgs = sample_dyadic_split_configs(0.1, 2.0, 80, 4, dim=2, m=5)
    cells = np.tile(np.arange(cfgs.weights.shape[1]), (len(cfgs), 1))
    cells = np.random.default_rng(0).permuted(cells, axis=1)
    rows = np.arange(len(cfgs))[:, None]
    points, weights = cfgs.points[rows, cells], cfgs.weights[rows, cells]
    shuffled = SplitConfigs(cfgs.delta, cfgs.p, points, weights, cfgs.d, cfgs.base)
    assert (shuffled.has[:, :-1] & ~shuffled.has[:, 1:]).any()
    assert_expansions_match_row_by_row(shuffled, 5)


@pytest.mark.parametrize("floats", [1, 7 * 64 * 5, 1 << 18])
def test_expansion_blocks_keep_every_float(floats, monkeypatch):
    # one row per block, blocks of seven rows, and one block: each row reads
    # the same, in any order
    monkeypatch.setattr(bellman, "_EXPAND_FLOATS", floats)
    cfgs = sample_dyadic_split_configs(0.25, 2.0, 30, 9, dim=2, m=6)
    assert_expansions_match_row_by_row(cfgs, 6)
    certs, ref = dyadic_expand(cfgs, 6), oracles.dyadic_expand_one_by_one(cfgs, 6)
    for r in (29, 0, 15, 14, 29):
        assert certs[r].order == ref[r].order and certs[r].separation == ref[r].separation


def test_lemma1_expansion_holds_a_few_rows():
    # lemma1's 500 default configurations expand in eight blocks of 64
    # rows; in two blocks of 256 they peaked at 0.89 MB
    cfgs = sample_dyadic_split_configs(0.25, 2.0, 500, 1, dim=1, m=6)

    def expand():
        for cert in dyadic_expand(cfgs, 6):
            cert.separation

    _, _, peak = traced(expand)
    assert peak <= 800_000


def test_lemma1_pairs_go_in_blocks_at_a_tiny_floor():
    # at floor 1e-9 and m = 10 two configurations hold 486 and 525 parts
    # in one block of rows, whose 1,024 cells make 523,776 pairs; all
    # pairs at once peaked at 59.1 MB traced, blocks of 2^14 at 3.0 MB
    cfgs = sample_dyadic_split_configs(1e-9, 2.0, 2, 1, dim=1, m=10)
    assert cfgs.parts.tolist() == [486, 525]
    _, _, peak = traced(lambda: [cert.separation for cert in dyadic_expand(cfgs, 10)])
    assert peak <= 8_000_000


def one_row_diameter(x1s):
    diam, pair = _diameters(np.stack(x1s)[None], np.ones((1, len(x1s)), dtype=bool), True)
    return float(diam[0]), tuple(pair[0].tolist())


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_diameter_kernel_matches_pairwise_loop(dim):
    # ragged rows with masked, repeated and tied points: diameters and
    # pairs equal the pairwise loop's bit for bit
    x1, has = oracles.ragged_points(dim, 40 + dim)
    assert _diameters(x1, has).tolist() == _diameters(x1, has, True)[0].tolist()
    EQUIVALENCES["diameters"].holds(lambda: (x1, has))
    assert diameter_pair(list(x1[0, :4])) == ((math.sqrt(2.0), (0, 3)) if dim > 1 else (1.0, (0, 1)))
    assert diameter_pair(list(x1[-1][has[-1]])) == (0.0, (0, 0))


def test_expansion_ratio_positive_on_samples():
    # the expansion needs dyadic rational weights; the dedicated sampler
    # rounds the floor up to the nearest dyadic grid
    for delta in (0.1, 0.25, 1.0 / 3.0, 0.5):
        for cert in dyadic_expand(sample_dyadic_split_configs(delta, 2.0, 30, seed=5, dim=1, m=6), m=6):
            if not cert.degenerate:
                assert cert.ratio > 0.0


@pytest.mark.parametrize("m", range(1, 11))
def test_expansion_tree_matches_per_node_means(m):
    # node means taken one tree level at a time equal the per-node means bit for bit
    delta = 0.5 if m == 1 else (0.25 if m < 4 else 0.1)
    for dim in (1, 2, 3):
        cfgs = sample_dyadic_split_configs(delta, 1.5, 4, seed=m, dim=dim, m=m)
        EQUIVALENCES["expansion_tree"].holds(lambda: (cfgs, m))
        for cert in dyadic_expand(cfgs, m=m):
            assert cert.copies == 2**m
            # the tree is built when first read, and the separation is the
            # distance of its two half means
            assert "levels" not in vars(cert)
            halves = cert.levels[1][:, :dim]
            assert cert.separation == float(np.linalg.norm(halves[0] - halves[1]))


@pytest.mark.parametrize("m", range(1, 11))
def test_expansion_payload_matches_per_node_tree(m):
    delta = 0.5 if m == 1 else (0.25 if m < 4 else 0.1)
    for dim in (1, 2, 3):
        cfgs = sample_dyadic_split_configs(delta, 1.5, 2, seed=20 + m, dim=dim, m=m)
        EQUIVALENCES["expansion_payload"].holds(lambda: (cfgs, m))


def test_deep_expansion_recombines():
    # m = 14: 16,384 copies and 14 tree levels
    cand = quadratic_candidate(0.1)
    cfgs = sample_dyadic_split_configs(0.1, 2.0, 3, seed=14, dim=2, m=14)
    certs = dyadic_expand(cfgs, m=14)
    for cert in certs:
        assert cert.copies == 2**14 and len(cert.levels) == 15
        assert cert.levels[14].shape == (2**14, 5)
        assert not cert.degenerate and cert.ratio > 0.0
    direct, recombined = recombine_slack(cand, cfgs, certs)
    assert recombined == pytest.approx(direct, rel=1e-9, abs=1e-9)


def test_expand_rejects_non_dyadic_weights():
    cfg = three_point_config([0.0, 1.0, 2.0], [1 / 3, 1 / 3, 1 / 3])
    with pytest.raises(ValueError):
        dyadic_expand(cfg, m=16)


def test_recombination_identity():
    cand = quadratic_candidate(0.25)
    cfgs = sample_dyadic_split_configs(0.25, 2.0, 40, seed=6, dim=2, m=6)
    certs = dyadic_expand(cfgs, m=6)
    direct, recombined = recombine_slack(cand, cfgs, certs)
    kept = [not cert.degenerate for cert in certs]
    assert any(kept)
    assert recombined[kept] == pytest.approx(direct[kept], rel=1e-9, abs=1e-9)


def test_recombination_identity_holds_for_any_candidate():
    # the telescoping is an identity in the candidate, not a property of
    # admissible ones; check it on the penalty-free linear shape too
    cand = linear_candidate(2.0, 2.0, 0.25)
    cfgs = sample_dyadic_split_configs(0.25, 2.0, 15, seed=7, m=6)
    certs = dyadic_expand(cfgs, m=6)
    direct, recombined = recombine_slack(cand, cfgs, certs)
    kept = [not cert.degenerate for cert in certs]
    assert any(kept)
    assert recombined[kept] == pytest.approx(direct[kept], rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# rescaling


def test_rescale_identity_at_own_floor():
    cand = quadratic_candidate(0.5)
    est = estimate_rescale_constant(cand, 0.5, samples=150, seed=8)
    assert est.constant == pytest.approx(1.0, abs=0)
    assert est.worst is None
    assert est.adversarial > 0


def _sharp_constant(delta):
    # worst configurations put mass delta at both diameter ends; the scale
    # factor needed by the unit quadratic candidate is 1/(2 sqrt(v)) with
    # v = delta/2 below 1/3 and v = delta (1 - delta) above
    v = delta / 2.0 if delta <= 1.0 / 3.0 else delta * (1.0 - delta)
    return 1.0 / (2.0 * math.sqrt(v))


def test_rescale_matches_two_point_extremal_theory():
    cand = quadratic_candidate(0.5)  # alpha = 1, cp = 1
    for delta in (0.1, 0.25, 1.0 / 3.0):
        est = estimate_rescale_constant(cand, delta, samples=150, seed=9)
        assert est.constant == pytest.approx(_sharp_constant(delta), rel=1e-12, abs=0)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("delta", [0.1, 0.125, 0.2, 0.25, 1.0 / 3.0, 0.4, 0.45])
def test_rescale_constant_is_exact(delta, dim):
    # C is the analytic constant, set by an extremal configuration: C * B
    # clears every configuration just above C, and the worst one fails just
    # below it
    cand = quadratic_candidate(0.5)
    est = estimate_rescale_constant(cand, delta, samples=150, seed=dim, dim=dim)
    assert est.constant == pytest.approx(_sharp_constant(delta), rel=1e-12, abs=0)
    cfgs = sample_split_configs(delta, 2.0, 150, dim, dim=dim)
    adv = adversarial_split_configs(delta, 2.0, dim=dim)
    assert est.adversarial == len(adv)
    assert 150 <= est.worst < 150 + len(adv)
    above = scale_candidate(cand, est.constant * (1.0 + 1e-9), delta=delta)
    assert _clears(above, cfgs).all() and _clears(above, adv).all()
    below = scale_candidate(cand, est.constant * (1.0 - 1e-6), delta=delta)
    assert not _clears(below, adv)[est.worst - len(cfgs)]


@pytest.mark.parametrize("delta", [0.25, 0.125])
def test_extremal_configs_through_the_expansion(delta):
    # the extremal weights (delta, delta, 1 - 2 delta) are dyadic here, so
    # the Lemma-1 route takes the configurations that set C
    cand = quadratic_candidate(0.5)
    c = estimate_rescale_constant(cand, delta, samples=50, seed=5).constant
    scaled = scale_candidate(cand, c, delta=delta)
    cfgs = adversarial_split_configs(delta, 2.0)
    # weights (delta, delta, 1 - 2 delta), multiples of delta = 2^-m
    certs = dyadic_expand(cfgs, m=int(-math.log2(delta)))
    assert not any(cert.degenerate for cert in certs)
    direct, recombined = recombine_slack(cand, cfgs, certs)
    assert (direct < 0.0).all()  # the unscaled candidate fails below its floor
    assert recombined == pytest.approx(direct, rel=1e-12, abs=0)
    floor = 1e-12 * np.maximum(1.0, np.abs(scaled.evaluate(cfgs.base)))
    assert (np.abs(split_slack(scaled, cfgs)) <= floor).all()


def test_rescale_exhaustion_raises():
    # the linear candidate has no penalty: its gap B(base) - sum lambda_k B(x^k)
    # is zero up to roundoff, so no constant rescues a split with d != 0
    cand = linear_candidate(1.0, 2.0, 0.25)
    with pytest.raises(RuntimeError, match="configuration"):
        estimate_rescale_constant(cand, 0.1, samples=80, seed=12)


def test_rescale_roundoff_gap_raises():
    # the linear candidate tilted by -1e-12 * x2 has gap 1e-12 * d^2: every
    # failing gap is positive, yet far below the roundoff floor 1e-9 * |B|,
    # so no constant of honest size rescues it (by sign alone C would be
    # about 3e13)
    cand = shaped_candidate(cp=1.0, h=lambda x1, x2: 1e-12 * x2, p=2.0, delta=0.25, label="tilted")
    cfgs = sample_split_configs(0.1, 2.0, 80, 12, dim=1), adversarial_split_configs(0.1, 2.0, dim=1)
    base, d_diam, kid_sum = map(np.concatenate, zip(*(_split_terms(cand, c) for c in cfgs)))
    failing = base - d_diam - kid_sum < -1e-9 * np.maximum(1.0, np.abs(base))
    gap = (base - kid_sum)[failing]
    assert failing.any() and gap.min() > 0.0 and gap.max() < 1e-9
    with pytest.raises(RuntimeError, match="configuration"):
        estimate_rescale_constant(cand, 0.1, samples=80, seed=12)


@examples(20)
@given(seed=st.integers(0, 5_000))
def test_split_slack_matches_manual_formula(seed):
    cand = quadratic_candidate(0.25)
    cfgs = sample_split_configs(0.25, 2.0, 1, seed=seed, dim=1)
    n = cfgs.parts[0]
    weights, points = cfgs.weights[0, :n], cfgs.points[0, :n]
    manual = (
        cand.evaluate(cfgs.base[0])
        - abs(cfgs.d[0]) * diameter_pair([pt[:1] for pt in points])[0]
        - float(sum(w * cand.evaluate(pt) for w, pt in zip(weights, points)))
    )
    assert split_slack(cand, cfgs)[0] == pytest.approx(manual, rel=1e-12, abs=1e-12)


# (constant.hex(), worst) of the unit quadratic candidate at the default 200
# samples and seed 0, by (delta, dim).
RESCALE_PINS = {
    (1.0 / 3.0, 1): ("0x1.3988e14092130p+0", 200),
    (1.0 / 3.0, 3): ("0x1.3988e14092130p+0", 200),
    (0.25, 1): ("0x1.6a09e667f3bcdp+0", 200),
    (0.25, 3): ("0x1.6a09e667f3bcdp+0", 200),
    (0.1, 1): ("0x1.1e3779b97f4a6p+1", 200),
    (0.1, 3): ("0x1.1e3779b97f4a6p+1", 200),
}


@pytest.mark.parametrize("delta_dim", sorted(RESCALE_PINS))
def test_rescale_constant_pins(delta_dim):
    delta, dim = delta_dim
    est = estimate_rescale_constant(quadratic_candidate(0.5), delta, dim=dim)
    assert (est.constant.hex(), est.worst) == RESCALE_PINS[delta_dim]


def test_rescale_constant_next_to_a_critical_floor():
    # 1/3 + 5e-11 fits two parts: the sampler once drew three, each then
    # below the floor, and the configurations refused their own weights
    delta = 0.33333333338
    assert estimate_rescale_constant(quadratic_candidate(delta), delta).constant == 1.0


@pytest.mark.parametrize("cp", [math.nan, math.inf, -math.inf])
def test_rescale_rejects_non_finite_slack(cp):
    # a NaN slack fails every comparison, so it must raise rather than pass
    cand = linear_candidate(cp, 2.0, 0.25)
    with pytest.raises(RuntimeError, match="non-finite slack"):
        with np.errstate(invalid="ignore"):
            estimate_rescale_constant(cand, 0.25)


@pytest.mark.parametrize("dim", [0, 5])
def test_rescale_and_extremal_configs_check_dim(dim):
    message = f"dim must lie in \\[1, 4\\], got {dim}"
    with pytest.raises(ValueError, match=message):
        estimate_rescale_constant(quadratic_candidate(0.25), 0.25, dim=dim)
    with pytest.raises(ValueError, match=message):
        adversarial_split_configs(0.25, 2.0, dim=dim)
