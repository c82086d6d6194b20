"""Induction certificates over the split schedule: reference two-value
witness numbers, failure reporting, accumulation identities."""

import math

import numpy as np
import pytest

import mblab.certifier as certifier
from mblab.bellman import linear_candidate, quadratic_candidate
from mblab.certifier import (
    certificate_rows,
    certificate_to_dict,
    certify,
    split_displacement,
    split_pairing,
)
from mblab.corpus import CorpusCell, haar_witness, prepare_cell
from mblab.filtration import build_dyadic, split_schedule
from mblab.martingale import (
    MartFunction,
    average,
    constant_function,
    delta_split,
    inner,
    pointwise_dot,
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
    f = constant_function(dyadic3, [0.0, 0.0])
    g = constant_function(dyadic3, 0.0)
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


def test_claimed_floor_must_cover_filtration(dyadic2):
    f, g, op = haar_witness(dyadic2, 1)
    tight = quadratic_candidate(0.25)
    loose_filtration = prepare_cell(CorpusCell(0.1, 1, 0))
    with pytest.raises(ValueError):
        certify(tight, loose_filtration.f, loose_filtration.g, loose_filtration.op)


def test_mismatched_filtration_rejected(dyadic2, dyadic3):
    f, g, op = haar_witness(dyadic2, 1)
    f_other = constant_function(dyadic3, 1.0)
    with pytest.raises(ValueError):
        certify(quadratic_candidate(0.5), f_other, g, op)


def test_displacement_and_pairing_helpers(dyadic2):
    f, g, op = haar_witness(dyadic2, 1)
    tstar = op.adjoint_apply(g)
    for ev in split_schedule(dyadic2):
        atom = dyadic2.atom(ev.atom)
        diff = delta_split(tstar, ev)
        manual_d2 = inner(diff, diff) / atom.measure
        assert split_displacement(tstar, ev) == pytest.approx(math.sqrt(manual_d2), rel=1e-12)
        df = delta_split(f, ev)
        manual_pairing = inner(df, diff) / atom.measure
        assert split_pairing(f, tstar, ev) == pytest.approx(manual_pairing, rel=1e-12, abs=1e-15)


def test_depth3_random_witness_end_to_end(monkeypatch):
    pc = prepare_cell(CorpusCell(0.25, 2, 1))
    cert = certify(quadratic_candidate(0.25), pc.f, pc.g, pc.op)
    assert cert.ok
    assert cert.final_slack >= -1e-6
    assert cert.identity_residual <= 1e-9 * max(1.0, abs(cert.bound), abs(cert.objective))
    # certify hands every point the g . g it formed once; recomputing it per
    # atom must give the same certificate to the last bit
    with_g_sq = certifier.bellman_point
    monkeypatch.setattr(
        certifier, "bellman_point", lambda *args, g_sq=None, **kw: with_g_sq(*args, **kw)
    )
    recomputed = certify(quadratic_candidate(0.25), pc.f, pc.g, pc.op)
    assert certificate_to_dict(recomputed) == certificate_to_dict(cert)


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
