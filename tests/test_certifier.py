"""Induction certificates over the split schedule: reference two-value
witness numbers, failure reporting, accumulation identities."""

import dataclasses
import math
import re

import numpy as np
import pytest

from mblab.bellman import (
    BellmanCandidate,
    Witness,
    conjugate_exponent,
    linear_candidate,
    moment_table,
    quadratic_candidate,
)
from mblab.certifier import (
    Certificate,
    CertificationError,
    certificate_to_dict,
    certify,
)
from mblab.checks import Tolerances
from mblab.corpus import (
    DELTAS,
    CorpusCell,
    haar_witness,
    prepare_cell,
    random_transform,
    random_witness,
)
from mblab.filtration import (
    Filtration,
    FiltrationError,
    build_dyadic,
    build_random_regular,
    level_partition,
    split_schedule,
)
from mblab.martingale import (
    MartFunction,
    inner,
)
from mblab.reporting import to_canonical_json
import oracles
from oracles import (
    EQUIVALENCES,
    Atom,
    average,
    delta_split,
    flagged_events,
    leaves_of,
    osc2,
    scale_candidate,
    shift,
    tower_from_atoms,
)

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def haar_cert(dyadic1):
    w = haar_witness(dyadic1, 1)
    return certify(quadratic_candidate(0.25), w.f, w.g, w.op)


def test_haar_objective_is_one(haar_cert):
    assert haar_cert.objective == pytest.approx(1.0, abs=1e-12)


def event_children(cert, e):
    """The child atom ids of split event e, in the layout's order."""
    lay = cert.witness.filtration.layout
    return lay.event_children[lay.event_child_starts[e] : lay.event_child_starts[e + 1]]


def test_haar_root_point(haar_cert):
    root = haar_cert.witness.table.points[oracles.root(haar_cert.witness.filtration).id]
    assert np.allclose(root[:-3], 0.0, atol=1e-14)
    assert root[-3] == pytest.approx(0.0, abs=1e-12)
    assert root[-2] == pytest.approx(1.0, rel=1e-12)
    assert root[-1] == pytest.approx(1.0, rel=1e-12)


def test_haar_split_record(haar_cert):
    assert len(haar_cert.records) == 1
    table = haar_cert.witness.table
    assert table.d[0] == pytest.approx(1.0, rel=1e-12)
    assert haar_cert.diameter[0] == pytest.approx(2.0, rel=1e-12)
    assert table.pairing[0] == pytest.approx(1.0, rel=1e-12)
    # alpha = sqrt(2): slack = 2 sqrt(2) - |d| diam = 2 sqrt(2) - 2
    assert haar_cert.slack[0] == pytest.approx(2.0 * SQRT2 - 2.0, rel=1e-12)


def test_haar_certificate_accepts(haar_cert):
    assert haar_cert.ok
    assert haar_cert.failures == ()
    assert haar_cert.bound == pytest.approx(2.0 * SQRT2, rel=1e-12)
    assert haar_cert.final_slack == pytest.approx(2.0 * SQRT2 - 1.0, rel=1e-12)
    assert haar_cert.identity_residual == 0.0
    # any accepted candidate must clear the witness value at the root point
    assert haar_cert.bound >= 1.0 - 1e-9


def test_zero_function_certifies_trivially(dyadic3):
    f = MartFunction(dyadic3, np.zeros((dyadic3.n_leaves, 2)))
    g = MartFunction(dyadic3, np.zeros((dyadic3.n_leaves, 1)))
    rng = np.random.default_rng(0)
    from mblab.corpus import random_transform

    op = random_transform(dyadic3, 2, rng)
    cert = certify(quadratic_candidate(0.5), f, g, op)
    assert cert.ok
    assert cert.objective == pytest.approx(0.0, abs=1e-15)
    assert cert.bound == pytest.approx(0.0, abs=1e-15)


def test_linear_candidate_rejected_with_failing_record(dyadic1):
    w = haar_witness(dyadic1, 1)
    cert = certify(linear_candidate(1.0, 2.0, 0.5), w.f, w.g, w.op)
    assert not cert.ok
    assert cert.first_failure is not None
    assert "slack" in cert.first_failure
    bad = flagged_events(cert)
    assert len(bad) >= 1
    e = bad[0]
    # the defeating split moves mass (d nonzero) and spreads the children
    assert cert.witness.table.d[e] != 0.0
    child_means = cert.witness.table.points[event_children(cert, e), :-3]
    assert float(np.linalg.norm(child_means[0] - child_means[1])) > 1e-9
    assert cert.slack[e] < -1e-6


def test_failing_records_follow_certify_tolerance():
    # the failing records are the ones the failure messages name, under the
    # tol and scales certify was given: a witness scaled down by 1e-3 passes
    # a linear candidate at tol 1e-3 with none, and fails it at the default
    # tol at exactly the events whose slack or pairing is off by more than
    # tol times its scale
    pc = prepare_cell(CorpusCell(0.25, 2, 3))
    f, g = pc.f * 1e-3, pc.g * 1e-3
    cand = linear_candidate(1.0, 2.0, pc.filtration.delta)
    loose = certify(cand, f, g, pc.op, tol=1e-3)
    assert loose.ok and loose.failures == ()
    strict = certify(cand, f, g, pc.op)
    assert not strict.ok
    tol, table = Tolerances().tight, strict.witness.table
    base = strict.values[pc.filtration.layout.event_atoms]
    d_diam = table.d * strict.diameter
    scale = np.maximum(np.maximum(1.0, np.abs(table.pairing)), d_diam)
    bad = (strict.slack < -tol * np.maximum(1.0, np.abs(base))) | (d_diam < table.pairing - tol * scale)
    assert flagged_events(strict).tolist() == np.flatnonzero(bad).tolist() != []


def test_witness_and_certify_refuse_a_batch(dyadic2):
    # two towers stacked in one filtration: the witness and the certificate
    # refuse it rather than read tower 0 as the whole
    batch = Filtration.stack(0.5, 2, [dyadic2.columns, dyadic2.columns])
    rng = np.random.default_rng(0)
    f, g = random_witness(batch, 1, rng)
    op = random_transform(batch, 1, rng)
    for build in (lambda: Witness(f, g, op), lambda: certify(quadratic_candidate(0.5), f, g, op)):
        with pytest.raises(FiltrationError, match="a filtration of 2 towers has no single root"):
            build()


def test_claimed_floor_must_cover_filtration():
    tight = quadratic_candidate(0.25)
    loose_filtration = prepare_cell(CorpusCell(0.1, 1, 0))
    with pytest.raises(ValueError):
        certify(tight, loose_filtration.f, loose_filtration.g, loose_filtration.op)


def test_negative_x2_raises_at_its_atom(monkeypatch):
    import mblab.bellman as bellman

    table_of = bellman.moment_table

    def broken(*args):
        table = table_of(*args)
        points = table.points.copy()
        points[[3, 5], -3] = -1.0
        return dataclasses.replace(table, points=points)

    monkeypatch.setattr(bellman, "moment_table", broken)
    pc = prepare_cell(CorpusCell(0.25, 1, 2))
    with pytest.raises(ArithmeticError, match="negative x2 = -1.000e\\+00 at atom 3;"):
        certify(quadratic_candidate(0.25), pc.f, pc.g, pc.op)


def test_mismatched_filtration_rejected(dyadic2, dyadic3):
    w = haar_witness(dyadic2, 1)
    f_other = MartFunction(dyadic3, np.full((dyadic3.n_leaves, 1), 1.0))
    with pytest.raises(ValueError):
        certify(quadratic_candidate(0.5), f_other, w.g, w.op)


def point_by_atom(f, g, tstar_g, atom_id, p):
    """Reference: the moment point summed over one atom's leaves at a time."""
    filt = f.filtration
    sl = oracles.leaf_slice(filt, atom_id)
    m = filt.layout.measures[sl] / oracles.atom(filt, atom_id).measure
    x2 = float(m @ g.values[sl, 0] ** 2) - osc2(tstar_g, atom_id)
    x3 = float(m @ np.linalg.norm(f.values[sl], axis=1) ** p)
    x4 = float(m @ np.abs(g.values[sl, 0]) ** conjugate_exponent(p))
    return average(f, atom_id), x2, x3, x4


def test_records_and_leaves_are_bellman_points(small_cells):
    # every point certify reports is the moment table's row for its atom,
    # bit for bit, and agrees with the per-atom sums; d and the pairing are
    # those of the single-split differences
    for pc in small_cells:
        filt = pc.filtration
        cand = quadratic_candidate(pc.filtration.delta)
        cert = certify(cand, pc.f, pc.g, pc.op)
        table = cert.witness.table
        tstar = pc.op.adjoint_closed_form(pc.g)  # the T* g certify reads
        ref = moment_table(pc.f, pc.g, tstar, cand.p)
        assert cert.witness.p == cand.p

        def assert_is_point(atom_id):
            pt = table.points[atom_id]
            assert np.array_equal(pt, ref.points[atom_id])
            x1, x2, x3, x4 = point_by_atom(pc.f, pc.g, tstar, atom_id, cand.p)
            assert np.array_equal(pt[:-3], x1)
            assert tuple(pt[-3:]) == pytest.approx((x2, x3, x4), rel=1e-12, abs=1e-15)

        events = split_schedule(filt)
        assert [rec["atom"] for rec in cert.records] == list(events)
        assert filt.layout.event_atoms.tolist() == list(events)
        for e, ev in enumerate(events):
            atom = oracles.atom(filt, ev)
            assert_is_point(atom.id)
            kids = event_children(cert, e).tolist()
            assert kids == list(atom.children)
            for child in kids:
                assert_is_point(child)
            diff = delta_split(tstar, ev)
            d = math.sqrt(inner(diff, diff) / atom.measure)
            pairing = inner(delta_split(pc.f, ev), diff) / atom.measure
            assert table.d[e] == pytest.approx(d, rel=1e-12)
            assert table.pairing[e] == pytest.approx(pairing, rel=1e-12, abs=1e-15)
        leaves = level_partition(filt, filt.depth)
        assert len(leaves) == filt.n_leaves
        assert tuple(leaves.tolist()) == leaves_of(filt)
        for leaf_id in leaves.tolist():
            assert_is_point(leaf_id)
        assert_is_point(oracles.root(filt).id)


def test_depth3_random_witness_end_to_end():
    pc = prepare_cell(CorpusCell(0.25, 2, 1))
    cert = certify(quadratic_candidate(0.25), pc.f, pc.g, pc.op)
    assert cert.ok
    assert cert.final_slack >= -1e-6
    assert cert.identity_residual <= 1e-9 * max(1.0, abs(cert.bound), abs(cert.objective))


def test_final_slack_equals_bound_minus_objective():
    pc = prepare_cell(CorpusCell(0.25, 1, 2))
    cert = certify(quadratic_candidate(0.25), pc.f, pc.g, pc.op)
    assert cert.final_slack == pytest.approx(cert.bound - cert.objective, rel=1e-12, abs=1e-12)


def test_objective_matches_weighted_pairings():
    pc = prepare_cell(CorpusCell(1.0 / 3.0, 2, 3))
    cert = certify(quadratic_candidate(1.0 / 3.0), pc.f, pc.g, pc.op)
    total = pc.filtration.total_measure
    acc = sum(r["measure"] * r["pairing"] for r in cert.records) / total
    assert cert.objective == pytest.approx(acc, rel=1e-10, abs=1e-12)


def test_objective_matches_direct_pairing():
    pc = prepare_cell(CorpusCell(0.5, 3, 4))
    cert = certify(quadratic_candidate(0.5), pc.f, pc.g, pc.op)
    filt = pc.filtration
    centered = shift(pc.f, -average(pc.f, oracles.root(filt).id))
    direct = inner(pc.g, pc.op.apply(centered)) / filt.total_measure
    assert cert.objective == pytest.approx(direct, rel=1e-10, abs=1e-12)


def test_diameter_chain_per_record():
    # |d| diam >= |d| max_child |x1 shift| >= pairing, up to tolerance
    pc = prepare_cell(CorpusCell(0.25, 2, 5))
    cert = certify(quadratic_candidate(0.25), pc.f, pc.g, pc.op)
    filt = pc.filtration
    table = cert.witness.table
    for e, atom_id in enumerate(filt.layout.event_atoms.tolist()):
        atom = oracles.atom(filt, atom_id)
        d, diameter, pairing = table.d[e], cert.diameter[e], table.pairing[e]
        shifts = [
            float(np.linalg.norm(average(pc.f, c) - average(pc.f, atom.id)))
            for c in atom.children
        ]
        mid = abs(d) * max(shifts)
        scale = max(1.0, abs(pairing), abs(d) * diameter)
        assert abs(d) * diameter >= mid - 1e-9 * scale
        assert mid >= pairing - 1e-9 * scale


def test_x2_gain_matches_displacement():
    pc = prepare_cell(CorpusCell(0.25, 1, 6))
    cert = certify(quadratic_candidate(0.25), pc.f, pc.g, pc.op)
    lay, table = pc.filtration.layout, cert.witness.table
    x2 = table.points[:, -3]
    for e, atom_id in enumerate(lay.event_atoms.tolist()):
        weights = cert.weights[lay.event_child_starts[e] : lay.event_child_starts[e + 1]]
        gain = sum(w * x2[c] for w, c in zip(weights, event_children(cert, e))) - x2[atom_id]
        assert gain == pytest.approx(table.d[e] ** 2, rel=1e-9, abs=1e-12)


def test_accumulation_lower_bound():
    # final slack dominates the weighted split slacks plus leaf values
    pc = prepare_cell(CorpusCell(0.1, 2, 7))
    cert = certify(quadratic_candidate(0.1), pc.f, pc.g, pc.op)
    total = pc.filtration.total_measure
    acc = sum(r["measure"] * r["slack"] for r in cert.records) / total + cert.leaf_term
    assert cert.final_slack >= acc - 1e-6 * max(1.0, abs(cert.final_slack))


def test_leaf_points_exact_and_nonnegative():
    pc = prepare_cell(CorpusCell(0.5, 2, 8))
    cert = certify(quadratic_candidate(0.5), pc.f, pc.g, pc.op)
    leaves = level_partition(pc.filtration, pc.filtration.depth)
    for pt, val in zip(cert.witness.table.points[leaves], cert.values[leaves]):
        assert pt[-2] == pytest.approx(float(np.dot(pt[:-3], pt[:-3])), rel=1e-12)
        assert val >= -1e-9 * max(1.0, abs(val))


def test_certificate_serialization(haar_cert):
    payload = certificate_to_dict(haar_cert)
    text = to_canonical_json(payload)
    assert text.endswith("\n")
    assert to_canonical_json(certificate_to_dict(haar_cert)) == text
    rows = list(haar_cert.records)
    assert len(rows) == len(haar_cert.records)
    assert set(rows[0]) >= {"atom", "d", "diameter", "slack", "pairing"}


# ---------------------------------------------------------------------------
# The batched certificate against the record-by-record walk


def spec_tower(spec, delta, reversed_atoms=()):
    """Tower of equal splits: ``spec`` is a list of child specs, None for a
    leaf.  The atoms in ``reversed_atoms`` list their children right to
    left."""
    atoms = []

    def rec(node, a, b, level, parent):
        me = len(atoms)
        atoms.append(None)
        kids = []
        if node:
            width = (b - a) / len(node)
            for i, sub in enumerate(node):
                hi = b if i == len(node) - 1 else a + (i + 1) * width
                kids.append(rec(sub, a + i * width, hi, level + 1, me))
        if me in reversed_atoms:
            kids.reverse()
        atoms[me] = Atom(me, a, b, level, parent, tuple(kids))
        return me

    rec(spec, 0.0, 1.0, 0, None)
    return tower_from_atoms(atoms, delta)


def ten_child_tower():
    """Root split in ten; its children split in 2 to 5 or stay leaves, and
    two atoms list their children right to left."""
    spec = [None if i % 3 == 2 else [None] * (2 + i % 4) for i in range(10)]
    return spec_tower(spec, 0.1, reversed_atoms=(0, 1))


def drawn_witness(filt, dim, seed):
    rng = np.random.default_rng(seed)
    f, g = random_witness(filt, dim, rng)
    return f, g, random_transform(filt, dim, rng)


def assert_matches_walk(cand, f, g, op, tol=1e-9):
    # the certificate text, written from the arrays, its failures and its
    # flagged events against the record-by-record walk
    EQUIVALENCES["certificate"].holds(lambda: (cand, Witness(f, g, op), tol))
    return certify(cand, f, g, op, tol=tol)


def oracle_witnesses():
    """Corpus cells at every floor, d = 1 to 3, a ten-child tower and a
    random-regular tower at floor 0.1."""
    for delta in DELTAS:
        for dim in (1, 2, 3):
            pc = prepare_cell(CorpusCell(delta, dim, dim + 3))
            yield pc.filtration, (pc.f, pc.g, pc.op)
    ten = ten_child_tower()
    regular = build_random_regular(depth=6, delta=0.1, max_children=4, split_prob=0.7, seed=5)
    for dim in (1, 2, 3):
        yield ten, drawn_witness(ten, dim, 40 + dim)
        yield regular, drawn_witness(regular, dim, 50 + dim)


def test_batched_certificate_matches_record_walk():
    for filt, (f, g, op) in oracle_witnesses():
        cert = assert_matches_walk(quadratic_candidate(filt.delta), f, g, op)
        assert cert.ok
        assert len(cert.records) == len(split_schedule(filt))


def test_batched_failures_match_record_walk():
    # failure text, order and failing records: the linear candidate fails
    # most splits, a quarter of the quadratic some, and a negative tolerance
    # flags near-tight pairings, slacks and leaves, so all three messages
    for filt, (f, g, op) in oracle_witnesses():
        quad = quadratic_candidate(filt.delta)
        linear = assert_matches_walk(linear_candidate(1.0, 2.0, filt.delta), f, g, op)
        assert not linear.ok and len(flagged_events(linear)) >= 1
        assert_matches_walk(scale_candidate(quad, 0.25), f, g, op)
        assert_matches_walk(quad, f, g, op, tol=-0.5)
    kinds = {msg.split(" atom ")[0] for msg in certify(quad, f, g, op, tol=-0.5).failures}
    assert kinds == {
        "pairing domination failed at",
        "negative split slack at",
        "negative candidate value on leaf",
    }


@pytest.mark.parametrize("dim", [1, 2])
def test_certificate_text_with_signed_zeros_and_non_finite_values(dim):
    # f = -0.0 gives x1 = -0.0 on every atom, and a candidate that is -inf,
    # -0.0, NaN or +inf by quartile of x2 carries all four into the values,
    # slacks and summary fields, which the writer spells NaN, +-Infinity, 0;
    # the depth-5 tower's text is one block, the depth-9 dyadic tower's
    # (at least 2 * _BLOCK floats) goes through the kernel blocks
    towers = [
        (build_random_regular(depth=5, delta=0.25, max_children=3, split_prob=0.7, seed=7), False),
        (build_dyadic(9), True),
    ]
    for filt, blocked in towers:
        _, g, op = drawn_witness(filt, dim, 70 + dim)
        f = MartFunction(filt, np.full((filt.n_leaves, dim), -0.0))
        lo, mid, hi = np.quantile(Witness(f, g, op, 2.0).table.points[:, -3], [0.25, 0.5, 0.75])

        def fn(x1, x2, x3, x4):
            special = np.where(x2 > mid, np.nan, np.where(x2 < lo, -np.inf, -0.0 * x4))
            return np.where(x2 > hi, np.inf, special)

        cand = BellmanCandidate(fn=fn, p=2.0, delta=0.25, label="special")
        with np.errstate(invalid="ignore"):
            cert = assert_matches_walk(cand, f, g, op)
        assert np.all(np.signbit(cert.witness.table.points[:, :-3]))
        values = cert.values
        assert np.isnan(values).any() and np.isposinf(values).any() and np.isneginf(values).any()
        assert np.any((values == 0.0) & np.signbit(values))
        payload = certificate_to_dict(cert)
        assert (len(payload["records"]) > 1) == blocked
        text = to_canonical_json(payload)
        assert '"x1":[0' in text and not re.search(r"[:\[,]-0[,\]}]", text)
        assert all(word in text for word in ("NaN", "-Infinity", ":Infinity"))


@pytest.mark.parametrize("cp", [math.nan, math.inf, -math.inf])
def test_non_finite_candidate_fails_the_certificate(cp):
    # each comparison with NaN is false, so the slack and leaf tests alone
    # would let a NaN candidate through with a NaN bound
    filt = build_dyadic(3)
    f, g, op = drawn_witness(filt, 2, 80)
    with np.errstate(invalid="ignore"):
        cert = certify(linear_candidate(cp, 2.0, filt.delta), f, g, op)
    assert not cert.ok
    assert [msg for msg in cert.failures if msg.startswith("non-finite candidate value on ")]


def test_nan_identity_residual_raises():
    # a NaN f makes the objective, and so the telescoping residual, NaN; a
    # finite candidate that reads only x2 passes every split and leaf test
    filt = build_dyadic(3)
    _, g, op = drawn_witness(filt, 2, 81)
    f = MartFunction(filt, np.full((filt.n_leaves, 2), np.nan))
    cand = BellmanCandidate(fn=lambda x1, x2, x3, x4: 1.0 + 0.0 * x2, p=2.0, delta=0.5, label="one")
    with pytest.raises(CertificationError, match="telescoping identity failed"):
        certify(cand, f, g, op)


def test_batched_diameter_on_tied_and_repeated_children():
    # the root's children sit on the corners of a unit square, so both
    # diagonals attain the diameter; the first child's two leaves coincide
    filt = spec_tower([[None, None], None, None, None], 0.25)
    corners = {2: (0.0, 0.0), 3: (0.0, 0.0), 4: (1.0, 0.0), 5: (1.0, 1.0), 6: (0.0, 1.0)}
    values = np.array([corners[leaf] for leaf in leaves_of(filt)])
    f = MartFunction(filt, values)
    _, g, op = drawn_witness(filt, 2, 60)
    cert = assert_matches_walk(quadratic_candidate(0.25), f, g, op)
    by_atom = {r["atom"]: r for r in cert.records}
    assert by_atom[0]["diameter"] == float(np.linalg.norm([1.0, 1.0]))
    assert by_atom[1]["diameter"] == 0.0


def test_record_count_builds_no_record(monkeypatch):
    pc = prepare_cell(CorpusCell(0.25, 2, 3))
    cert = certify(linear_candidate(1.0, 2.0, 0.25), pc.f, pc.g, pc.op)
    first, last = cert.records[0], cert.records[-1]
    assert (first["atom"], last["atom"]) == (oracles.root(pc.filtration).id, split_schedule(pc.filtration)[-1])
    assert [r["atom"] for r in list(cert.records)[1:3]] == list(split_schedule(pc.filtration)[1:3])
    assert list(cert.records)[0] == first

    def built(self, e):
        raise AssertionError(f"record {e} built")

    monkeypatch.setattr(Certificate, "_row", built)
    assert len(cert.records) == len(split_schedule(pc.filtration))
    assert len(flagged_events(cert)) >= 1
    # the JSON report is written from the arrays and builds no row either
    certificate_to_dict(cert)


def test_certify_dyadic_depth_14():
    filt = build_dyadic(14)
    f, g, op = drawn_witness(filt, 1, 14)
    cert = certify(quadratic_candidate(0.5), f, g, op)
    assert cert.ok
    assert len(cert.records) == 16_383 == len(oracles.atoms(filt)) - filt.n_leaves
    assert cert.identity_residual <= 1e-9 * max(1.0, abs(cert.bound), abs(cert.objective))
