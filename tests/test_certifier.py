"""Induction certificates over the split schedule: reference two-value
witness numbers, failure reporting, accumulation identities."""

import math
import re

import numpy as np
import pytest

from mblab.bellman import conjugate_exponent, linear_candidate, moment_table, quadratic_candidate
from mblab.certifier import certificate_rows, certificate_to_dict, certify
from mblab.corpus import CorpusCell, haar_witness, prepare_cell
from mblab.filtration import build_dyadic, split_schedule
from mblab.martingale import (
    MartFunction,
    average,
    delta_split,
    inner,
    osc2,
)
from mblab.reporting import to_canonical_json

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def haar_cert(dyadic1):
    f, g, op = haar_witness(dyadic1, 1)
    return certify(quadratic_candidate(0.25), f, g, op)


def test_haar_objective_is_one(haar_cert):
    assert haar_cert.objective == pytest.approx(1.0, abs=1e-12)


def test_haar_root_point(haar_cert):
    root = haar_cert.root
    assert np.allclose(root.x1, 0.0, atol=1e-14)
    assert root.x2 == pytest.approx(0.0, abs=1e-12)
    assert root.x3 == pytest.approx(1.0, rel=1e-12)
    assert root.x4 == pytest.approx(1.0, rel=1e-12)


def test_haar_split_record(haar_cert):
    assert len(haar_cert.records) == 1
    rec = haar_cert.records[0]
    assert rec.d == pytest.approx(1.0, rel=1e-12)
    assert rec.diameter == pytest.approx(2.0, rel=1e-12)
    assert rec.pairing == pytest.approx(1.0, rel=1e-12)
    # alpha = sqrt(2): slack = 2 sqrt(2) - |d| diam = 2 sqrt(2) - 2
    assert rec.slack == pytest.approx(2.0 * SQRT2 - 2.0, rel=1e-12)


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
    f, g, op = haar_witness(dyadic1, 1)
    cert = certify(linear_candidate(1.0, 2.0, 0.5), f, g, op)
    assert not cert.ok
    assert cert.first_failure is not None
    assert "slack" in cert.first_failure
    bad = cert.failing_records
    assert len(bad) >= 1
    rec = bad[0]
    # the defeating split moves mass (d nonzero) and spreads the children
    assert rec.d != 0.0
    child_means = [pt.x1 for pt in rec.children]
    assert float(np.linalg.norm(child_means[0] - child_means[1])) > 1e-9
    assert rec.slack < -1e-6


def test_failing_records_follow_certify_tolerance():
    # the failing records are the ones certify flagged, under the tol and
    # scales it was given: a witness scaled down by 1e-3 passes a linear
    # candidate at tol 1e-3 with none, and fails it at the default tol with
    # exactly the records its failure messages name
    pc = prepare_cell(CorpusCell(0.25, 2, 3))
    f, g = pc.f * 1e-3, pc.g * 1e-3
    cand = linear_candidate(1.0, 2.0, pc.cell.delta)
    loose = certify(cand, f, g, pc.op, tol=1e-3)
    assert loose.ok and loose.failures == ()
    assert loose.failing_records == ()
    strict = certify(cand, f, g, pc.op)
    assert not strict.ok
    named = {int(a) for msg in strict.failures for a in re.findall(r"at atom (\d+)", msg)}
    assert [r.atom for r in strict.failing_records] == sorted(
        named, key=[r.atom for r in strict.records].index
    )


def test_claimed_floor_must_cover_filtration(dyadic2):
    f, g, op = haar_witness(dyadic2, 1)
    tight = quadratic_candidate(0.25)
    loose_filtration = prepare_cell(CorpusCell(0.1, 1, 0))
    with pytest.raises(ValueError):
        certify(tight, loose_filtration.f, loose_filtration.g, loose_filtration.op)


def test_mismatched_filtration_rejected(dyadic2, dyadic3):
    f, g, op = haar_witness(dyadic2, 1)
    f_other = MartFunction(dyadic3, np.full((dyadic3.n_leaves, 1), 1.0))
    with pytest.raises(ValueError):
        certify(quadratic_candidate(0.5), f_other, g, op)


def point_by_atom(f, g, tstar_g, atom_id, p):
    """Reference: the moment point summed over one atom's leaves at a time."""
    filt = f.filtration
    sl = filt.leaf_slice(atom_id)
    m = filt.leaf_measures()[sl] / filt.atom(atom_id).measure
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
        cand = quadratic_candidate(pc.cell.delta)
        cert = certify(cand, pc.f, pc.g, pc.op)
        tstar = pc.op.adjoint_closed_form(pc.g)  # the T* g certify reads

        def assert_is_point(pt, atom_id):
            ref = moment_table(pc.f, pc.g, tstar, cand.p).point(atom_id)
            assert pt.atom == ref.atom == atom_id
            assert np.array_equal(pt.x1, ref.x1)
            assert (pt.x2, pt.x3, pt.x4, pt.p) == (ref.x2, ref.x3, ref.x4, ref.p)
            x1, x2, x3, x4 = point_by_atom(pc.f, pc.g, tstar, atom_id, cand.p)
            assert np.array_equal(pt.x1, x1)
            assert (pt.x2, pt.x3, pt.x4) == pytest.approx((x2, x3, x4), rel=1e-12, abs=1e-15)

        events = split_schedule(filt)
        assert [rec.atom for rec in cert.records] == [ev.atom for ev in events]
        for ev, rec in zip(events, cert.records):
            atom = filt.atom(ev.atom)
            assert_is_point(rec.base, atom.id)
            assert len(rec.children) == len(atom.children)
            for pt, child in zip(rec.children, atom.children):
                assert_is_point(pt, child)
            diff = delta_split(tstar, ev)
            d = math.sqrt(inner(diff, diff) / atom.measure)
            pairing = inner(delta_split(pc.f, ev), diff) / atom.measure
            assert rec.d == pytest.approx(d, rel=1e-12)
            assert rec.pairing == pytest.approx(pairing, rel=1e-12, abs=1e-15)
        assert len(cert.leaves) == filt.n_leaves
        for pt, leaf_id in zip(cert.leaves, filt.leaves):
            assert_is_point(pt, leaf_id)
        assert_is_point(cert.root, filt.root.id)


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
    acc = sum(r.measure * r.pairing for r in cert.records) / total
    assert cert.objective == pytest.approx(acc, rel=1e-10, abs=1e-12)


def test_objective_matches_direct_pairing():
    pc = prepare_cell(CorpusCell(0.5, 3, 4))
    cert = certify(quadratic_candidate(0.5), pc.f, pc.g, pc.op)
    filt = pc.filtration
    centered = pc.f.shift(-average(pc.f, filt.root.id))
    direct = inner(pc.g, pc.op.apply(centered)) / filt.total_measure
    assert cert.objective == pytest.approx(direct, rel=1e-10, abs=1e-12)


def test_diameter_chain_per_record():
    # |d| diam >= |d| max_child |x1 shift| >= pairing, up to tolerance
    pc = prepare_cell(CorpusCell(0.25, 2, 5))
    cert = certify(quadratic_candidate(0.25), pc.f, pc.g, pc.op)
    filt = pc.filtration
    by_atom = {ev.atom: ev for ev in split_schedule(filt)}
    for rec in cert.records:
        atom = filt.atom(rec.atom)
        ev = by_atom[rec.atom]
        shifts = [
            float(np.linalg.norm(average(pc.f, c) - average(pc.f, atom.id)))
            for c in atom.children
        ]
        mid = abs(rec.d) * max(shifts)
        scale = max(1.0, abs(rec.pairing), abs(rec.d) * rec.diameter)
        assert abs(rec.d) * rec.diameter >= mid - 1e-9 * scale
        assert mid >= rec.pairing - 1e-9 * scale


def test_x2_gain_matches_displacement():
    pc = prepare_cell(CorpusCell(0.25, 1, 6))
    cert = certify(quadratic_candidate(0.25), pc.f, pc.g, pc.op)
    for rec in cert.records:
        gain = sum(w * pt.x2 for w, pt in zip(rec.weights, rec.children)) - rec.base.x2
        assert gain == pytest.approx(rec.d**2, rel=1e-9, abs=1e-12)


def test_accumulation_lower_bound():
    # final slack dominates the weighted split slacks plus leaf values
    pc = prepare_cell(CorpusCell(0.1, 2, 7))
    cert = certify(quadratic_candidate(0.1), pc.f, pc.g, pc.op)
    total = pc.filtration.total_measure
    acc = sum(r.measure * r.slack for r in cert.records) / total + cert.leaf_term
    assert cert.final_slack >= acc - 1e-6 * max(1.0, abs(cert.final_slack))


def test_leaf_points_exact_and_nonnegative():
    pc = prepare_cell(CorpusCell(0.5, 2, 8))
    cert = certify(quadratic_candidate(0.5), pc.f, pc.g, pc.op)
    for pt, val in zip(cert.leaves, cert.leaf_values):
        assert pt.x3 == pytest.approx(float(np.dot(pt.x1, pt.x1)), rel=1e-12)
        assert val >= -1e-9 * max(1.0, abs(val))


def test_certificate_serialization(haar_cert):
    payload = certificate_to_dict(haar_cert)
    text = to_canonical_json(payload)
    assert text.endswith("\n")
    assert to_canonical_json(certificate_to_dict(haar_cert)) == text
    rows = certificate_rows(haar_cert)
    assert len(rows) == len(haar_cert.records)
    assert set(rows[0]) >= {"atom", "d", "diameter", "slack", "pairing"}
