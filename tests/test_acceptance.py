"""Acceptance gate: eight criteria, one verdict line each.

Every criterion prints a single PASS/FAIL line with the measured worst
numbers before asserting, so a red run still reports the magnitudes.
Criterion 3 checks that restriction to a split atom J commutes with the
adjoint, in the form the atom-to-children induction uses: cutting the
centered function (g - <g>_J) 1_J gives equality between the local
oscillation of T* g on J and the rescaled global oscillation, to 1e-9
relative.  Cutting g itself lets the strict ancestors of J see <g>_J, so
only the one-sided bound holds there (the ``restriction_bound`` row), and
its slack must equal <g>_J^2 ||T* 1_J||^2 / |J| to 1e-9 relative.
"""

import math

import numpy as np
import pytest

from mblab.bellman import (
    linear_candidate,
    quadratic_candidate,
    sample_dyadic_split_configs,
    dyadic_expand,
    estimate_rescale_constant,
    recombine_slack,
)
from mblab.bellman import Witness
from mblab.certifier import certify
from mblab.cli import run as cli_run
from mblab.corpus import haar_witness
from mblab.estimator import (
    conjugate_exponent,
    lp_constant_scan,
    optimal_lambda,
)
from mblab.filtration import build_dyadic
from mblab.martingale import inner
from mblab.reporting import to_canonical_json
from mblab.certifier import certificate_to_dict

from conftest import telescoping_relerr  # reused for a direct spot check
import oracles
from oracles import average, flagged_events, optimal_lambda_numeric, shift

DELTAS = (0.1, 0.25, 1.0 / 3.0, 0.5)


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def _worst(report, row_name):
    """(max err, max err/tol, all ok) over the corpus for one check row.

    Zero-tolerance rows are exact counts; their ratio is 0 or infinity.
    """
    errs, ratios = [], []
    for cell in report:
        row = cell["rows"][row_name]
        errs.append(row["max_err"])
        if row["tol"] > 0.0:
            ratios.append(row["max_err"] / row["tol"])
        else:
            ratios.append(0.0 if row["max_err"] == 0.0 else math.inf)
    oks = all(cell["rows"][row_name]["ok"] for cell in report)
    return max(errs), max(ratios), oks


def test_criterion_1_projection_suite(corpus_report):
    names = ("projection_idempotent", "projection_self_adjoint", "projection_orthogonal")
    worst = 0.0
    ok = True
    for name in names:
        _, ratio, row_ok = _worst(corpus_report, name)
        worst = max(worst, ratio)
        ok = ok and row_ok
    _verdict(
        1,
        "projection identities on full corpus",
        ok,
        f"{len(corpus_report)} cells, worst err/tol {worst:.3e}",
    )


def test_criterion_2_localization(corpus_report):
    names = ("localization_support", "support_containment", "support_hull")
    worst = 0.0
    ok = True
    for name in names:
        err, ratio, row_ok = _worst(corpus_report, name)
        worst = max(worst, ratio)
        ok = ok and row_ok
    _verdict(
        2,
        "single-split and predictable-support localization",
        ok,
        f"worst err/tol {worst:.3e} (absolute floor 1e-12)",
    )


def test_criterion_3_identity_suite(corpus_report):
    _, osc_ratio, osc_ok = _worst(corpus_report, "osc_series")
    _, drop_ratio, drop_ok = _worst(corpus_report, "x2_drop")
    tele = max(cell["telescoping"] for cell in corpus_report)
    tele_ok = tele <= 1e-9
    eq = max(cell["restriction_centered"] for cell in corpus_report)
    eq_ok = eq <= 1e-9
    _, bound_ratio, bound_ok = _worst(corpus_report, "restriction_bound")
    defect = max(cell["restriction_defect"] for cell in corpus_report)
    defect_ok = defect <= 1e-9
    ok = osc_ok and drop_ok and tele_ok and eq_ok and bound_ok and defect_ok
    _verdict(
        3,
        "oscillation series, x2 drop, restriction identity, telescoping",
        ok,
        (
            f"osc err/tol {osc_ratio:.3e}, drop err/tol {drop_ratio:.3e}, "
            f"telescoping rel {tele:.3e}, centered restriction rel {eq:.3e}, "
            f"uncentered bound err/tol {bound_ratio:.3e} with defect rel {defect:.3e}"
        ),
    )


def test_criterion_4_positivity(corpus_report):
    _, norm_ratio, norm_ok = _worst(corpus_report, "contraction_norm")
    _, sign_ratio, sign_ok = _worst(corpus_report, "x2_sign")
    _, mean_ratio, mean_ok = _worst(corpus_report, "x2_root_mean_bound")
    # The suites are matrix-free; the dense oracle still answers for them on
    # every cell: the SVD norm is the split-multiplier norm the
    # contraction_norm row reads, and both application routes agree with
    # their dense counterparts to the tight rung.
    svd_gap = max(abs(c["svd_norm"] - c["split_norm"]) for c in corpus_report)
    apply_gap = max(c["apply_route"] for c in corpus_report)
    adjoint_gap = max(c["adjoint_route"] for c in corpus_report)
    oracle_ok = svd_gap <= 1e-12 and apply_gap <= 1e-9 and adjoint_gap <= 1e-9
    ok = norm_ok and sign_ok and mean_ok and oracle_ok
    _verdict(
        4,
        "operator norm, x2 sign on every atom, root mean-square bound, dense oracle",
        ok,
        (
            f"norm excess ratio {norm_ratio:.3e}, x2 sign ratio {sign_ratio:.3e}, "
            f"root bound ratio {mean_ratio:.3e}, SVD vs split norm {svd_gap:.3e}, "
            f"apply routes {apply_gap:.3e}, adjoint routes {adjoint_gap:.3e}"
        ),
    )


def test_criterion_5_certifier_reference_witness():
    filt = build_dyadic(1)
    w = haar_witness(filt, 1)
    cert = certify(quadratic_candidate(0.5), w.f, w.g, w.op)
    obj_ok = abs(cert.objective - 1.0) <= 1e-12
    accept_ok = cert.ok and cert.bound >= 1.0 - 1e-9

    bad = certify(linear_candidate(1.0, 2.0, 0.5), w.f, w.g, w.op)
    rejected = not bad.ok and len(flagged_events(bad)) >= 1
    rec_ok = False
    if rejected:
        e, lay, table = flagged_events(bad)[0], filt.layout, bad.witness.table
        lo, hi = lay.event_child_starts[e : e + 2]
        kids = table.points[lay.event_children[lo:hi], :-3]
        kid_gap = float(np.linalg.norm(kids[0] - kids[1]))
        rec_ok = table.d[e] != 0.0 and kid_gap > 1e-9
    ok = obj_ok and accept_ok and rejected and rec_ok
    _verdict(
        5,
        "two-value witness certificate and linear-candidate rejection",
        ok,
        (
            f"objective {cert.objective:.15f}, accepted bound {cert.bound:.6f}, "
            f"linear rejected with concrete record: {rejected and rec_ok}"
        ),
    )


def test_criterion_6_expansion_suite():
    from test_bellman import three_point_config

    cand = quadratic_candidate(0.5)

    (equal,) = dyadic_expand(three_point_config([0.0, 1.0], [0.5, 0.5]), m=1)
    (quarter,) = dyadic_expand(three_point_config([0.0, 1.0], [0.25, 0.75]), m=2)
    ratio_ok = abs(equal.ratio - 1.0) <= 1e-12 and abs(quarter.ratio - 0.5) <= 1e-12

    positive_ok = True
    recomb_worst = 0.0
    for delta in DELTAS:
        cfgs = sample_dyadic_split_configs(delta, 2.0, 25, seed=60, dim=2, m=6)
        certs = dyadic_expand(cfgs, m=6)
        kept = np.array([not cert.degenerate for cert in certs])
        positive_ok = positive_ok and all(cert.ratio > 0.0 for cert in certs if not cert.degenerate)
        direct, recombined = recombine_slack(quadratic_candidate(delta), cfgs, certs)
        rel = np.abs(direct - recombined) / np.maximum(1.0, np.abs(direct))
        recomb_worst = max(recomb_worst, float(rel[kept].max(initial=0.0)))
    recomb_ok = recomb_worst <= 1e-9

    own = estimate_rescale_constant(cand, 0.5, samples=150, seed=61)
    c025 = estimate_rescale_constant(cand, 0.25, samples=150, seed=61)
    c010 = estimate_rescale_constant(cand, 0.1, samples=150, seed=61)
    # the analytic constants 1/(2 sqrt(delta/2)) of the extremal configurations
    rescale_ok = (
        own.constant == 1.0
        and abs(c025.constant / math.sqrt(2.0) - 1.0) <= 1e-12
        and abs(c010.constant / math.sqrt(5.0) - 1.0) <= 1e-12
    )
    ok = ratio_ok and positive_ok and recomb_ok and rescale_ok
    _verdict(
        6,
        "expansion ratios, recombination, rescaling constants",
        ok,
        (
            f"ratios ({equal.ratio:.12f}, {quarter.ratio:.12f}), recombination rel "
            f"{recomb_worst:.3e}, C(1/2)={own.constant:g}, C(1/4)={c025.constant:.5f}, "
            f"C(1/10)={c010.constant:.5f}"
        ),
    )


def test_criterion_7_corollary_suite(corpus_report):
    rng = np.random.default_rng(7000)
    lam_worst = 0.0
    for _ in range(1000):
        p = float(rng.uniform(1.01, 2.0))
        x3 = float(10.0 ** rng.uniform(-3.0, 3.0))
        x4 = float(10.0 ** rng.uniform(-3.0, 3.0))
        a = optimal_lambda(p, x3, x4)
        b = optimal_lambda_numeric(p, x3, x4)
        lam_worst = max(lam_worst, abs(a - b) / max(1.0, abs(a)))
    lam_ok = lam_worst <= 1e-8

    hld_worst = max(cell["hoelder_margin"] for cell in corpus_report)
    hld_ok = hld_worst <= 1e-10

    hom_worst = 0.0
    for cell in corpus_report[:: len(corpus_report) // 48]:
        pc = cell["prepared"]
        filt = pc.filtration
        p = 2.0
        q = conjugate_exponent(p)
        base_pt = Witness(pc.f, pc.g, pc.op, p).table.points[oracles.root(filt).id]
        centered = shift(pc.f, -average(pc.f, oracles.root(filt).id))
        base_obj = inner(pc.g, pc.op.apply(centered)) / filt.total_measure
        for lam in (0.5, 2.0, 7.0):
            f_s, g_s = pc.f * lam, pc.g * (1.0 / lam)
            obj = (
                inner(g_s, pc.op.apply(shift(f_s, -average(f_s, oracles.root(filt).id))))
                / filt.total_measure
            )
            hom_worst = max(hom_worst, abs(obj - base_obj) / max(1.0, abs(base_obj)))
            mapped = Witness(f_s, g_s, pc.op, p).table.points[oracles.root(filt).id]
            orbit = (
                float(np.max(np.abs(mapped[:-3] - lam * base_pt[:-3]))),
                abs(mapped[-3] - base_pt[-3] / lam**2),
                abs(mapped[-2] - base_pt[-2] * lam**p),
                abs(mapped[-1] - base_pt[-1] / lam**q),
            )
            scale = max(1e-30, float(np.max(np.abs(base_pt[:-3]))), *base_pt[-3:])
            hom_worst = max(hom_worst, max(orbit) / scale)
    hom_ok = hom_worst <= 1e-12

    scan = lp_constant_scan(2.0, 10_000, seed=62)
    scan_ok = scan.max_ratio <= 1.0 + 1e-9

    ok = lam_ok and hld_ok and hom_ok and scan_ok
    _verdict(
        7,
        "scaling balance oracle, mean bound, homogeneity orbit, p=2 scan",
        ok,
        (
            f"lambda gap {lam_worst:.3e}, mean-bound margin {hld_worst:.3e}, "
            f"orbit rel {hom_worst:.3e}, scan max {scan.max_ratio:.12f} over 10^4 trials"
        ),
    )


def test_criterion_8_determinism(tmp_path):
    argvs = [
        ["check", "--seed", "21", "--delta", "0.25", "--depth", "3"],
        ["certify", "--seed", "21", "--delta", "0.25"],
        ["search", "--seed", "21", "--trials", "12"],
        ["lemma1", "--seed", "21", "--delta", "0.25", "--trials", "10", "--format", "csv"],
    ]
    identical = True
    for i, argv in enumerate(argvs):
        a, b = tmp_path / f"a{i}", tmp_path / f"b{i}"
        cli_run(list(argv) + ["--out", str(a)])
        cli_run(list(argv) + ["--out", str(b)])
        identical = identical and a.read_bytes() == b.read_bytes()

    filt = build_dyadic(2)
    w = haar_witness(filt, 2)
    cert = certify(quadratic_candidate(0.5), w.f, w.g, w.op)
    text_a = to_canonical_json(certificate_to_dict(cert))
    # a fresh triple: the second certificate derives its own witness
    w_b = haar_witness(filt, 2)
    cert_b = certify(quadratic_candidate(0.5), w_b.f, w_b.g, w_b.op)
    text_b = to_canonical_json(certificate_to_dict(cert_b))
    identical = identical and text_a == text_b

    _verdict(
        8,
        "byte-identical reports for fixed config and seed",
        identical,
        f"{len(argvs)} command pairs plus certificate serialization",
    )
