"""Constant estimation: scaling balance, norm-ratio scans, witness search,
duality bounds.

Four instruments share this module.  The scaling balance picks, in closed
form, the factor lambda that minimizes the two-sided moment expression
lambda^p x3 + lambda^-q x4; the tests hold it to a numeric minimizer kept
in ``tests/oracles.py``.  The ratio scan measures ||Tf||_p / ||f||_p over
random witnesses and extremal multipliers and bins the ratios into a fixed
histogram; at p = 2 the ratio is pinned below one by the contraction
property, below 2 the measured maxima are empirical readings, not proved
constants.  The witness search ranks unit-norm witnesses by their pairing
alone and reports whether the best reaches a scalar target.  The duality
instrument turns certified pairing bounds into norm bounds: every certified
witness pair yields |<g, Tf>| <= B(root), and optimizing lambda trades the
two moment slots against each other at unit norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bellman import Witness, conjugate_exponent, quadratic_candidate
from .certifier import Certificate, certify
from .corpus import (
    build_tower,
    cell_filtration,
    haar_witness,
    max_children_for,
    random_function,
    random_transform,
)
from .martingale import MartFunction, inner, lp_norm

__all__ = [
    "EstimateError",
    "duality_candidate",
    "lp_constant_scan",
    "lower_bound_search",
    "duality_bound",
]


class EstimateError(RuntimeError):
    """Raised when a step that must succeed (a certification inside the
    duality pipeline, an internal bound check) fails."""

    def __init__(self, message: str, certificate: Certificate | None = None):
        super().__init__(message)
        self.certificate = certificate


# ---------------------------------------------------------------------------
# Scaling balance


def hoelder_objective(lam: float, p: float, x3: float, x4: float) -> float:
    """lambda^p x3 + lambda^-q x4, the quantity the balance minimizes."""
    q = conjugate_exponent(p)
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return lam**p * x3 + lam ** (-q) * x4


def optimal_lambda(p: float, x3: float, x4: float) -> float:
    """Closed-form minimizer (q x4 / (p x3))^(1 / (p + q))."""
    q = conjugate_exponent(p)
    if x3 <= 0 or x4 <= 0:
        raise ValueError(f"moments must be positive, got x3={x3}, x4={x4}")
    return (q * x4 / (p * x3)) ** (1.0 / (p + q))


def kappa_constant(p: float) -> float:
    """min over lambda of (lambda^p + lambda^-q) at unit moments:
    (q/p)^(p/(p+q)) + (p/q)^(q/(p+q)); equals 2 at p = 2."""
    q = conjugate_exponent(p)
    return (q / p) ** (p / (p + q)) + (p / q) ** (q / (p + q))


# ---------------------------------------------------------------------------
# Norm-ratio scan


@dataclass(frozen=True)
class ScanResult:
    p: float
    delta: float
    dim: int
    trials: int
    max_ratio: float
    mean_ratio: float
    argmax: dict
    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]


def _trial_filtration(delta: float, depth: int | None, i: int, filt_seed: int):
    d = depth if depth is not None else 2 + i % 4
    if delta == 0.5:
        # All balanced towers of one depth coincide, so share the cached one.
        return cell_filtration(0.5, 0, d, 2)
    return build_tower(delta, filt_seed, d)


def _trial_rng(seed: int, i: int) -> np.random.Generator:
    # Spawn-keyed streams: trial i draws identically no matter how many
    # trials run, so longer scans extend shorter ones exactly.
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))


# Histogram bins of the ratio scan.
_SCAN_BINS = 24


def lp_constant_scan(
    p: float,
    trials: int,
    seed: int,
    delta: float = 0.5,
    dim: int = 1,
    depth: int | None = None,
) -> ScanResult:
    """Measure ||Tf||_p / ||f||_p over random witnesses and unit-length
    multiplier sequences.  At p = 2 the max is a contraction check; away
    from 2 it is an empirical reading."""
    if trials < 1:
        raise ValueError("need at least one trial")
    ratios = np.empty(trials)
    argmax: dict = {}
    for i in range(trials):
        rng = _trial_rng(seed, i)
        filt_seed = int(rng.integers(2**31))
        filt = _trial_filtration(delta, depth, i, filt_seed)
        op = random_transform(filt, dim, rng, unit=True)
        f = random_function(filt, dim, rng)
        denom = lp_norm(f, p)
        if denom <= 0:
            ratios[i] = 0.0
            continue
        ratios[i] = lp_norm(op.apply(f), p) / denom
        if ratios[i] >= ratios[: i + 1].max():
            argmax = {
                "trial": i,
                "filt_seed": filt_seed,
                "depth": filt.depth,
                "delta": delta,
                "dim": dim,
            }
    hi = max(1.05, float(ratios.max()) * 1.0001)
    counts, edges = np.histogram(ratios, bins=_SCAN_BINS, range=(0.0, hi))
    return ScanResult(
        p=p,
        delta=delta,
        dim=dim,
        trials=trials,
        max_ratio=float(ratios.max()),
        mean_ratio=float(ratios.mean()),
        argmax=argmax,
        bin_edges=tuple(float(e) for e in edges),
        counts=tuple(int(c) for c in counts),
    )


# ---------------------------------------------------------------------------
# Lower bound search


@dataclass(frozen=True)
class SearchResult:
    p: float
    delta: float
    trials: int
    target: float | None
    best: float
    found: bool
    witness: dict
    achieved_point: dict | None
    history: tuple[float, ...]


def _pairing_value(
    f: MartFunction, g: MartFunction, op, p: float, q: float
) -> float:
    nf = lp_norm(f, p)
    ng = lp_norm(g, q)
    if nf <= 0 or ng <= 0:
        return 0.0
    return abs(inner(g, op.apply(f))) / (nf * ng * f.filtration.total_measure)


def _root_point(filt, f, g, op, p: float) -> dict | None:
    table, root = Witness(f, g, op, p).table, filt.root.id
    try:
        table.check_x2([root])
    except ArithmeticError:
        return None
    *x1, x2, x3, x4 = table.points[root].tolist()
    return {"x1": x1, "x2": x2, "x3": x3, "x4": x4, "p": p, "atom": root}


def lower_bound_search(
    p: float,
    trials: int,
    seed: int,
    target: float | None = None,
    delta: float = 0.5,
    dim: int = 1,
    depth: int | None = None,
    ascent_steps: int = 0,
) -> SearchResult:
    """Maximize |<g, Tf>| over unit-norm witnesses.

    Trial 0 plants the structured two-value witness (pairing exactly one);
    the rest are Gaussian draws.  Witnesses are normalized to unit p- and
    q-norm, otherwise the pairing is unbounded under scaling.  Optional
    coordinate ascent perturbs the best witness leafwise, keeping the moves
    that improve the value.  ``found`` tells whether the best value reaches
    ``target``; with no target it is true.  ``achieved_point`` is the best
    witness's root moment point as a dict keyed x1, x2, x3, x4, p and atom,
    None where its x2 falls below roundoff of zero.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    q = conjugate_exponent(p)
    history = []
    best = -1.0
    witness: dict = {}
    for i in range(trials):
        rng = _trial_rng(seed, i)
        filt = _trial_filtration(delta, 2 if i == 0 else depth, i, int(rng.integers(2**31)))
        if i == 0 and len(filt.root.children) == 2:
            f, g, op = haar_witness(filt, dim)
        else:
            f, g = random_function(filt, dim, rng), random_function(filt, 1, rng)
            op = random_transform(filt, dim, rng, unit=True)
        kind = "structured" if i == 0 else "random"
        val = _pairing_value(f, g, op, p, q)
        history.append(val)
        # Values are nonnegative, so trial 0 always sets the best state.
        if val > best:
            best = val
            best_state = (filt, f, g, op)
            witness = {"trial": i, "kind": kind, "depth": filt.depth, "dim": dim}

    if ascent_steps > 0:
        filt, f, g, op = best_state
        rng = _trial_rng(seed, trials)  # ascent stream sits after all trials
        fv = f.values.copy()
        gv = g.values.copy()
        for step in range(ascent_steps):
            move_f = step % 2 == 0
            tgt = fv if move_f else gv
            idx = int(rng.integers(tgt.shape[0]))
            jdx = int(rng.integers(tgt.shape[1]))
            old = tgt[idx, jdx]
            tgt[idx, jdx] = old + 0.05 * rng.normal()
            cand_val = _pairing_value(MartFunction(filt, fv), MartFunction(filt, gv), op, p, q)
            if cand_val > best:
                best = cand_val
                witness = dict(witness, kind="ascent", step=step)
            else:
                tgt[idx, jdx] = old
        best_state = (filt, MartFunction(filt, fv), MartFunction(filt, gv), op)

    found = True if target is None else best >= target - 1e-12
    return SearchResult(
        p=p,
        delta=delta,
        trials=trials,
        target=target,
        best=best,
        found=found,
        witness=witness,
        achieved_point=_root_point(*best_state, p),
        history=tuple(history),
    )


# ---------------------------------------------------------------------------
# Duality bound


@dataclass(frozen=True)
class DualityReport:
    p: float
    q: float
    delta: float
    cp: float
    kappa: float
    analytic_bound: float
    empirical_max: float
    n_g: int
    ok: bool
    proved: bool
    rows: tuple[dict, ...]


def duality_candidate(p: float, delta: float):
    """Candidate used by the duality pipeline.

    At p = 2 the reference candidate is admissible outright.  Below 2 the
    same quadratic penalty keeps the split inequality (the penalty shape is
    exponent independent) and a widened leading constant keeps the boundary
    sign on the moderate witness values the pipeline draws; the resulting
    bound is reported as empirical, not proved.
    """
    if p == 2.0:
        return quadratic_candidate(delta)
    return quadratic_candidate(delta, p=p, cp=4.0 / math.sqrt(2.0 * delta))


def duality_bound(
    p: float,
    delta: float = 0.25,
    n_g: int = 16,
    seed: int = 0,
    dim: int = 2,
    depth: int = 3,
    tol: float = 1e-6,
) -> DualityReport:
    """Certify |<g, Tf>| <= B(root) over a spread of unit-norm g draws.

    The witness f and the transform are fixed Gaussian draws; the scaling
    balance rescales (f, g) to (lambda f, g / lambda) before certification,
    which leaves the pairing invariant.  Every certificate must succeed, and
    the empirical maximum must stay below cp * kappa + 1.

    ``proved`` is true only at p = 2, where the candidate is admissible
    outright; below 2 ``ok`` vouches for an empirical bound only (see
    ``duality_candidate``).
    """
    q = conjugate_exponent(p)
    cand = duality_candidate(p, delta)
    filt = cell_filtration(delta, seed, depth, max_children_for(delta))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(777,)))

    f = random_function(filt, dim, rng)
    f = f * (1.0 / lp_norm(f, p))
    op = random_transform(filt, dim, rng)
    tf = op.apply(f)

    structured = None
    if len(filt.root.children) == 2:
        structured = haar_witness(filt, 1)[1]

    rows = []
    empirical = 0.0
    for j in range(n_g):
        if j == 0 and structured is not None:
            g, kind = structured, "structured+"
        elif j == 1 and structured is not None:
            g, kind = -structured, "structured-"
        else:
            g, kind = random_function(filt, 1, rng), "gaussian"
        g = g * (1.0 / lp_norm(g, q))
        obj = inner(g, tf) / filt.total_measure
        if obj < 0:
            g = -g
            obj = -obj
        lam = optimal_lambda(p, lp_norm(f, p) ** p, lp_norm(g, q) ** q)
        f_s = f * lam
        g_s = g * (1.0 / lam)
        cert = certify(cand, f_s, g_s, op)
        if not cert.ok:
            raise EstimateError(
                f"certification failed for draw {j} ({kind}): {cert.first_failure}",
                certificate=cert,
            )
        table = cert.witness.table
        x1 = table.points[filt.root.id, :dim]
        mean_term = abs(float(np.dot(x1, table.tstar_mean[filt.root.id])))
        bound_g = cert.bound + mean_term
        if obj > bound_g + 1e-9 * max(1.0, abs(bound_g)):
            raise EstimateError(
                f"pairing {obj:.12g} escaped its certified bound {bound_g:.12g}"
            )
        empirical = max(empirical, obj)
        rows.append(
            {
                "draw": j,
                "kind": kind,
                "objective": obj,
                "lambda": lam,
                "certified_bound": cert.bound,
                "mean_term": mean_term,
                "bound": bound_g,
            }
        )
    analytic = cand.cp * kappa_constant(p) + 1.0
    return DualityReport(
        p=p,
        q=q,
        delta=delta,
        cp=cand.cp,
        kappa=kappa_constant(p),
        analytic_bound=analytic,
        empirical_max=empirical,
        n_g=n_g,
        ok=empirical <= analytic + tol,
        proved=p == 2.0,
        rows=tuple(rows),
    )
