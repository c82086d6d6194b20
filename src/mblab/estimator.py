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
two moment slots against each other at unit norms over ``draws`` g draws.

The scan and the search run their trials by depth.  Each trial draws from
its own spawn-keyed generator, in the order a trial alone would: its
tower's seed, then the scan's multipliers and f, or the search's f, g and
multipliers (the search's trial 0 is the structured witness where its root
splits in two).  ``_trial`` gives the batches, the scan's argmax and the
search's best witness a trial's tower seed.  The towers of one depth are
stacked in batches of a bounded leaf count (``_leaf_count``), each one
``Filtration`` validated once (``_batches``); one pass over a batch
(``_batch_pass``) scales every trial's multiplier rows row-wise, checks
them in one ``make_transform`` and gives every T f in one ``apply``.
Each trial's norms and pairing are then read off its own leaf segment
with its own dot products (``_lp_norms``, ``_pairings``).  Every trial
keeps the floats it has when run alone (``tests/oracles.py`` keeps the
trial-by-trial loops).  The search's best trial comes back as a
``Witness`` at p on its own tower, rebuilt from its tower seed; the
ascent moves that witness's leaf values, scores them with ``_pairings``
and ends in one new ``Witness``, whose table gives the achieved root point.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .bellman import Witness, conjugate_exponent, quadratic_candidate
from .certifier import Certificate, certify
from .checks import Tolerances
from .corpus import (
    _cell_tower,
    _haar_profile,
    _unit_rows,
    haar_witness,
    random_function,
    random_transform,
    root_splits_in_two,
    tower_columns,
)
from .filtration import Filtration, _leaf_count
from .martingale import MartFunction, _lp_norms, inner, lp_norm
from .transforms import MartingaleTransform, make_transform

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


def _trial_depth(depth: int | None, i: int) -> int:
    return depth if depth is not None else 2 + i % 4


def _trial_rng(seed: int, i: int) -> np.random.Generator:
    # Spawn-keyed streams: trial i draws identically no matter how many
    # trials run, so longer scans extend shorter ones exactly.
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))


def _trial(seed: int, i: int) -> tuple[np.random.Generator, int]:
    """Trial i's generator past its tower seed, and that seed, its first draw."""
    rng = _trial_rng(seed, i)
    return rng, int(rng.integers(2**31))


# Leaves of one tower batch at most (or one tower, where a tower is larger):
# a depth group beyond it runs as several batches, so that what a scan or
# search holds at once does not grow with its trial count, only with its
# largest tower.  Traced peaks: 0.9 MB for the CLI's largest default scan (p 3, delta
# 1/4, 500 trials), 1.9 MB for 400 trials at depth 10 and 2.9 MB for 200
# dyadic ones at depth 12, against 2.8, 51.5 and 46.7 MB with 65,536 leaves
# a batch.  Each batch pays a fixed cost of about 0.5–1 ms: the depth-10
# scan makes 271 batches and runs 3.5–11 % slower in process (up to 32 %
# on the minimum of fresh processes); the depth-12 one is no slower.
_BATCH_LEAVES = 1 << 10


def _batches(
    seed: int, delta: float, depths: list[int]
) -> Iterator[tuple[list[int], list[np.random.Generator], Filtration]]:
    """The trials of each depth, in order of first appearance, in batches
    of at most ``_BATCH_LEAVES`` leaves: their ids, their generators past
    the tower seed (``_trial``), and their towers' ``tower_columns``
    stacked in one filtration, validated once.  Batch by batch, so only
    one batch's trials are held."""
    groups: dict[int, list[int]] = {}
    for i, d in enumerate(depths):
        groups.setdefault(d, []).append(i)
    for d, members in groups.items():
        chunk, leaves = [], 0
        for i in members:
            rng, filt_seed = _trial(seed, i)
            columns = tower_columns(delta, filt_seed, d)
            n_leaves = _leaf_count(columns[4])
            if chunk and leaves + n_leaves > _BATCH_LEAVES:
                yield _stacked(delta, d, chunk)
                chunk, leaves = [], 0
            chunk.append((i, rng, columns))
            leaves += n_leaves
        yield _stacked(delta, d, chunk)


def _stacked(delta: float, depth: int, chunk: list[tuple]) -> tuple:
    members, rngs, columns = map(list, zip(*chunk))
    return members, rngs, Filtration.stack(delta, depth, columns)


def _batch_pass(
    batch: Filtration, draw: Callable[[int, int, int], tuple[np.ndarray, ...]]
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """One pass over a batch of trials.  ``draw(t, n_leaves, n_rows)`` is
    tower t's draws in its own order: values on its n_leaves leaves (f
    first), then its n_rows multiplier rows in its tower's stacked order.
    Returns the leaf values stacked, T f, the multiplier rows scaled to unit
    length (the rows that passed ``make_transform``) trial after trial, and
    the trials + 1 boundaries of their runs."""
    rows, starts = batch.tower_rows(batch.depth)
    shapes = zip(np.diff(batch.leaf_offsets).tolist(), np.diff(starts).tolist())
    drawn = [draw(t, n_leaves, n_rows) for t, (n_leaves, n_rows) in enumerate(shapes)]
    *values, raw = (np.concatenate(column) for column in zip(*drawn))
    unit = _unit_rows(raw)
    mults = np.empty_like(unit)
    mults[rows] = unit
    tf = make_transform(batch, mults).apply(MartFunction(batch, values[0])).values
    return values, tf, unit, starts


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
    ratios, argmax = _scan_trials(p, trials, seed, delta, dim, depth)
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


def _scan_trials(
    p: float, trials: int, seed: int, delta: float, dim: int, depth: int | None
) -> tuple[np.ndarray, dict]:
    """The ratio of every trial of ``lp_constant_scan`` and its argmax.

    A trial whose f has zero norm scores 0 and is skipped; the argmax is
    the last trial not skipped that reaches the running maximum."""
    depths = [_trial_depth(depth, i) for i in range(trials)]
    ratios = np.empty(trials)
    skipped = np.zeros(trials, dtype=bool)
    for members, rngs, batch in _batches(seed, delta, depths):

        def draw(t, n_leaves, n_rows):
            raw = rngs[t].normal(size=(n_rows, dim))
            return rngs[t].normal(size=(n_leaves, dim)), raw

        (f,), tf, _, _ = _batch_pass(batch, draw)
        m, bounds = batch.layout.measures, batch.leaf_offsets
        norms = zip(_lp_norms(m, tf, p, bounds), _lp_norms(m, f, p, bounds))
        for i, (num, denom) in zip(members, norms):
            skipped[i] = not denom > 0
            ratios[i] = num / denom if denom > 0 else 0.0
        # Free this batch before the next is built.
        del batch, f, tf
    reach = np.flatnonzero((ratios >= np.maximum.accumulate(ratios)) & ~skipped)
    if not reach.size:
        return ratios, {}
    i = int(reach[-1])
    filt_seed = _trial(seed, i)[1]
    return ratios, {"trial": i, "filt_seed": filt_seed, "depth": depths[i], "delta": delta, "dim": dim}


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


def _pairings(
    m: np.ndarray, bounds, totals, f: np.ndarray, g: np.ndarray, tf: np.ndarray, p: float, q: float
) -> list[float]:
    """|<g, T f>| / (||f||_p ||g||_q |I|) of each leaf segment
    ``bounds[k]:bounds[k + 1]`` of the stacked values under the leaf
    measures ``m``, segment k's tower of total measure ``totals[k]``; 0
    where a norm is.  Each segment's norms and pairing are its own dot
    products, the floats of its tower alone."""
    pairs = np.einsum("ij,ij->i", g, tf)
    nfs, ngs = _lp_norms(m, f, p, bounds), _lp_norms(m, g, q, bounds)
    return [
        0.0 if nf <= 0 or ng <= 0 else abs(float(m[lo:hi] @ pairs[lo:hi])) / (nf * ng * total)
        for nf, ng, total, lo, hi in zip(nfs, ngs, totals, bounds[:-1], bounds[1:])
    ]


def _root_point(w: Witness) -> dict | None:
    """The witness's root moment point, atom 0 of its table, as a dict;
    None where its x2 falls below roundoff of zero."""
    table = w.table
    try:
        table.check_x2([0])
    except ArithmeticError:
        return None
    *x1, x2, x3, x4 = table.points[0].tolist()
    return {"x1": x1, "x2": x2, "x3": x3, "x4": x4, "p": w.p, "atom": 0}


def _search_trials(
    p: float, trials: int, seed: int, delta: float, dim: int, depth: int | None
) -> tuple[list[float], float, dict, Witness]:
    """The trials of ``lower_bound_search``: the pairing of each, the best
    value, its record and its ``Witness`` at p on its own tower.

    The best is the first trial with the largest value, as a fold over the
    trials in order finds it."""
    q = conjugate_exponent(p)
    depths = [2 if i == 0 else _trial_depth(depth, i) for i in range(trials)]
    history = [0.0] * trials
    best, best_i = -1.0, -1
    for members, rngs, batch in _batches(seed, delta, depths):
        roots = batch.atom_offsets[:-1]
        bounds = batch.leaf_offsets.tolist()

        def draw(t, n_leaves, n_rows):
            if members[t] == 0 and root_splits_in_two(batch, int(roots[t])):
                return _haar_profile(batch, int(roots[t]), dim, n_rows)
            shapes = (n_leaves, dim), (n_leaves, 1), (n_rows, dim)
            return tuple(rngs[t].normal(size=shape) for shape in shapes)

        (f, g), tf, unit, starts = _batch_pass(batch, draw)
        totals = (batch.b[roots] - batch.a[roots]).tolist()
        values = _pairings(batch.layout.measures, bounds, totals, f, g, tf, p, q)
        for t, (i, val) in enumerate(zip(members, values)):
            history[i] = val
            # Ties go to the earlier trial, whichever batch it sits in.  The
            # copies own their data, so the batch is freed after its pass.
            if val > best or (val == best and i < best_i):
                (lo, hi), (r0, r1) = bounds[t : t + 2], starts[t : t + 2]
                best, best_i = val, i
                fb, gb, mults = f[lo:hi].copy(), g[lo:hi].copy(), unit[r0:r1].copy()
        # Free this batch before the next is built.
        del batch, f, g, tf, unit
    d = depths[best_i]
    filt = Filtration(delta, d, *tower_columns(delta, _trial(seed, best_i)[1], d))
    mults.flags.writeable = False
    # The rows passed make_transform in the batch.
    w = Witness(MartFunction(filt, fb), MartFunction(filt, gb), MartingaleTransform(filt, mults), p)
    kind = "structured" if best_i == 0 and root_splits_in_two(filt) else "random"
    record = {"trial": best_i, "kind": kind, "depth": filt.depth, "dim": dim}
    return history, best, record, w


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

    Trial 0 plants the structured two-value witness (pairing exactly one,
    kind "structured") where its tower's root splits in two; every other
    trial is a Gaussian draw (kind "random").  Witnesses are normalized to
    unit p- and q-norm, otherwise the pairing is unbounded under scaling.
    Optional coordinate ascent perturbs the best witness leafwise, keeping
    the moves that improve the value.  ``found`` tells whether the best
    value reaches ``target``; with no target it is true.  ``achieved_point``
    is the best witness's root moment point as a dict keyed x1, x2, x3, x4,
    p and atom, None where its x2 falls below roundoff of zero.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    q = conjugate_exponent(p)
    history, best, record, w = _search_trials(p, trials, seed, delta, dim, depth)

    if ascent_steps > 0:
        filt = w.filtration
        rng = _trial_rng(seed, trials)  # ascent stream sits after all trials
        fv, gv = w.f.values.copy(), w.g.values.copy()
        m, bounds, totals = filt.layout.measures, (0, filt.n_leaves), (filt.total_measure,)
        for step in range(ascent_steps):
            move_f = step % 2 == 0
            tgt = fv if move_f else gv
            idx = int(rng.integers(tgt.shape[0]))
            jdx = int(rng.integers(tgt.shape[1]))
            old = tgt[idx, jdx]
            tgt[idx, jdx] = old + 0.05 * rng.normal()
            tf = w.op.apply(MartFunction(filt, fv)).values
            cand_val = _pairings(m, bounds, totals, fv, gv, tf, p, q)[0]
            if cand_val > best:
                best = cand_val
                record = dict(record, kind="ascent", step=step)
            else:
                tgt[idx, jdx] = old
        w = Witness(MartFunction(filt, fv), MartFunction(filt, gv), w.op, p)

    found = True if target is None else best >= target - 1e-12
    return SearchResult(
        p=p,
        delta=delta,
        trials=trials,
        target=target,
        best=best,
        found=found,
        witness=record,
        achieved_point=_root_point(w),
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
    draws: int
    ok: bool
    proved: bool
    rows: tuple[dict, ...]

    @property
    def n_g(self) -> int:
        """``draws`` by the name ``perfbench/tracer.py`` reads."""
        return self.draws


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
    draws: int = 16,
    seed: int = 0,
    dim: int = 2,
    depth: int = 3,
    tol: float = Tolerances().duality,
) -> DualityReport:
    """Certify |<g, Tf>| <= B(root) over ``draws`` unit-norm g draws.

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
    filt = _cell_tower(delta, seed, depth)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(777,)))

    f = random_function(filt, dim, rng)
    f = f * (1.0 / lp_norm(f, p))
    op = random_transform(filt, dim, rng)
    tf = op.apply(f)

    structured = haar_witness(filt, 1).g if root_splits_in_two(filt) else None

    rows = []
    empirical = 0.0
    for j in range(draws):
        if j == 0 and structured is not None:
            g, kind = structured, "structured+"
        elif j == 1 and structured is not None:
            g, kind = -structured, "structured-"
        else:
            g, kind = random_function(filt, 1, rng), "gaussian"
        g = g * (1.0 / lp_norm(g, q))
        obj = inner(g, tf) / filt.total_measure
        if obj < 0:
            g, obj = -g, -obj
        lam = optimal_lambda(p, lp_norm(f, p) ** p, lp_norm(g, q) ** q)
        cert = certify(cand, f * lam, g * (1.0 / lam), op)
        if not cert.ok:
            raise EstimateError(
                f"certification failed for draw {j} ({kind}): {cert.first_failure}",
                certificate=cert,
            )
        mean_term = cert.witness.table.root_mean_pairing
        bound_g = cert.bound + mean_term
        if obj > bound_g + 1e-9 * max(1.0, abs(bound_g)):
            raise EstimateError(f"pairing {obj:.12g} escaped its certified bound {bound_g:.12g}")
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
        draws=draws,
        ok=empirical <= analytic + tol,
        proved=p == 2.0,
        rows=tuple(rows),
    )
