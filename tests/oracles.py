"""Slow, obvious versions of production routes, for the tests to compare
against, and ``EQUIVALENCES``, the registry that pairs each production
route with its oracle once (see ``tests/test_equivalence.py``)."""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import json
import math
import re
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain
from typing import NamedTuple

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

import mblab.checks as checks
import mblab.estimator as estimator
import mblab.filtration as filtration
import mblab.martingale as martingale
import mblab.transforms as transforms
from mblab.bellman import (
    BellmanCandidate,
    ExpansionCertificate,
    MomentTable,
    SplitConfigs,
    Witness,
    _diameters,
    conjugate_exponent,
    dyadic_expand,
    expansion_to_dict,
    linear_candidate,
    moment_table,
    quadratic_candidate,
    sample_dyadic_split_configs,
)
from mblab.certifier import certificate_to_dict, certify
from mblab.checks import Tolerances, _row, restriction_identity_gaps
from mblab.corpus import (
    _unit_rows,
    active_split_function,
    build_tower,
    cell_filtration,
    haar_witness,
    max_children_for,
    random_function,
    random_transform,
    random_witness,
)
from mblab.estimator import _trial_depth, _trial_rng, optimal_lambda
from mblab.filtration import (
    _GEOM_TOL,
    Filtration,
    FiltrationError,
    LeafLayout,
    _AFFINE_ACCEPT,
    _frozen,
    _Lazy,
    _ratio_sampler,
    _segments,
    _sorted_children,
    filtration_to_dict,
    level_partition,
    max_parts,
    split_schedule,
)
from mblab.martingale import (
    MartFunction,
    _atom_steps,
    _diagonal_steps,
    _diagonal_sums,
    _event_draws,
    _leaf_sum,
    _level_steps,
    _padded,
    _stacked_means,
    inner,
    lp_norm,
)
from mblab.reporting import ReportError, Verbatim, _format_float, _format_floats, rows_to_csv, to_canonical_json
from mblab.transforms import (
    MartingaleTransform,
    _ancestor_values,
    _steps_hull,
    make_transform,
    split_multiplier_norm,
)


# ---------------------------------------------------------------------------
# Atom views: one atom of a tower as a record, read off the columns.  The
# package reads its towers as columns only; the tests read atoms through
# these helpers.


@dataclass(frozen=True, eq=False)
class Atom:
    """Half-open interval [a, b) sitting at one level of the tower.

    ``level`` is the level at which the atom first appears.  An atom with
    children is split immediately at its own level (children live at
    level + 1); an atom without children survives into every later level.
    """

    id: int
    a: float
    b: float
    level: int
    parent: int | None
    children: tuple[int, ...]

    @property
    def measure(self) -> float:
        return self.b - self.a

    @property
    def is_leaf(self) -> bool:
        return not self.children


def atom(filt: Filtration, atom_id: int) -> Atom:
    """View of one atom of a tower's columns, built on read; negative ids
    count from the end."""
    i = range(filt.n_atoms)[atom_id]
    parent = int(filt.parent[i])
    lo, hi = filt.child_starts[i : i + 2].tolist()
    return Atom(
        i,
        float(filt.a[i]),
        float(filt.b[i]),
        int(filt.level[i]),
        None if parent < 0 else parent,
        tuple(filt.children[lo:hi].tolist()),
    )


def atoms(tower) -> Sequence[Atom]:
    """Every atom in id order: an ``AtomTower``'s records, or the views of
    a ``Filtration``'s atoms, each built when it is read."""
    if isinstance(tower, AtomTower):
        return tower.atoms
    return _Lazy(partial(atom, tower), tower.n_atoms)


def root(filt: Filtration) -> Atom:
    """The root of a lone tower, atom 0; a stack of towers has none."""
    filt._require_one_tower()
    return atom(filt, 0)


def interval(filt: Filtration) -> tuple[float, float]:
    """The base interval [a, b) of a lone tower."""
    r = root(filt)
    return (r.a, r.b)


def leaf_slice(filt: Filtration, atom_id: int) -> slice:
    """Contiguous range of leaf positions covered by the atom."""
    lo, hi = filt.layout.spans[atom_id].tolist()
    return slice(lo, hi)


# ---------------------------------------------------------------------------
# The per-atom conditional calculus: every mean over atoms or leaf segments
# is one reduceat of measure-weighted leaf values (``segment_means``); a
# segment sums the same leaves in the same order at any offset, so each
# mean is the float the level kernel gives that atom.


class PartitionError(ValueError):
    """Atom ids do not form a partition of the base interval."""


def segment_means(m: np.ndarray, values: np.ndarray, starts, measures: np.ndarray) -> np.ndarray:
    """Means of (..., L', d) leaf values under the leaf measures ``m`` over
    consecutive leaf segments beginning at ``starts``, each running to the
    next start and the last to L', of measures ``measures``; shape (...,
    len(starts), d)."""
    return np.add.reduceat(m[:, None] * values, starts, axis=-2) / measures[:, None]


def atom_mean(filt: Filtration, values: np.ndarray, atom_id: int) -> np.ndarray:
    """Average of (L, d) values over one atom, its leaves as one segment."""
    lay = filt.layout
    sl = leaf_slice(filt, atom_id)
    return segment_means(lay.measures[sl], values[sl], [0], lay.atom_measures[[atom_id]])[0]


def average(f: MartFunction, atom_id: int) -> np.ndarray:
    """Measure-weighted mean <f>_J as a vector of length dim."""
    return atom_mean(f.filtration, f.values, atom_id)


def osc2(f: MartFunction, atom_id: int) -> float:
    """Mean squared oscillation over one atom: <|f - <f>_J|^2>_J.

    The alternative form <|f|^2>_J - |<f>_J|^2 agrees up to roundoff; the
    centered form is returned because it is nonnegative by construction.
    """
    filt = f.filtration
    sl = leaf_slice(filt, atom_id)
    m = filt.layout.measures[sl]
    centered = f.values[sl] - atom_mean(filt, f.values, atom_id)[None, :]
    return float(m @ np.einsum("ij,ij->i", centered, centered) / filt.layout.atom_measures[atom_id])


def check_partition(filt: Filtration, atom_ids: Sequence[int]) -> list[int]:
    """The ids of a partition of the base interval, in left-endpoint order."""
    try:
        parts = [atom(filt, i) for i in atom_ids]
    except (IndexError, TypeError) as exc:
        raise PartitionError(f"unknown atom id in partition: {exc}") from None
    parts = sorted(parts, key=lambda a: a.a)
    lo, hi = interval(filt)
    scale = max(hi - lo, 1.0)
    if not parts or abs(parts[0].a - lo) > _GEOM_TOL * scale or abs(parts[-1].b - hi) > _GEOM_TOL * scale:
        raise PartitionError("atoms do not span the base interval")
    for u, v in zip(parts, parts[1:]):
        if abs(u.b - v.a) > _GEOM_TOL * scale:
            raise PartitionError(f"gap or overlap between atoms {u.id} and {v.id}")
    return [a.id for a in parts]


def cond_exp(f: MartFunction, partition: Sequence[int]) -> MartFunction:
    """Project onto functions constant on the given partition atoms."""
    filt = f.filtration
    ids = check_partition(filt, partition)
    spans = filt.layout.spans[ids]
    means = segment_means(filt.layout.measures, f.values, spans[:, 0], filt.layout.atom_measures[ids])
    return MartFunction(filt, np.repeat(means, spans[:, 1] - spans[:, 0], axis=0))


def delta_split(f: MartFunction, event: int) -> MartFunction:
    """Single-split martingale difference for one schedule event.

    Computed directly as (child average - parent average) inside the split
    atom and exact zero outside, which agrees with the difference of the two
    partition projections.  The children are the A_{n+1} atoms inside the
    split atom's span, n being its level.
    """
    filt = f.filtration
    here = atom(filt, event)
    if not here.children:
        raise ValueError(f"atom {here.id} has no split event")
    lay = filt.layout
    lo, hi = lay.spans[here.id].tolist()
    n = here.level + 1
    child_map = lay.stacked_maps[n][lo:hi] - lay.level_offsets[n]
    first, last = int(child_map[0]), int(child_map[-1]) + 1
    starts = level_starts(lay, n)[first:last] - lo
    kids = level_measures(lay, n)[first:last]
    child_avg = segment_means(lay.measures[lo:hi], f.values[lo:hi], starts, kids)
    out = np.zeros_like(f.values)
    out[lo:hi] = child_avg[child_map - first] - atom_mean(filt, f.values, here.id)
    return MartFunction(filt, out)


def restrict(f: MartFunction, atom_id: int) -> MartFunction:
    """Multiply by the indicator of one atom (extension by zero)."""
    out = np.zeros_like(f.values)
    sl = leaf_slice(f.filtration, atom_id)
    out[sl] = f.values[sl]
    return MartFunction(f.filtration, out)


def multiplier_on_leaves(op: MartingaleTransform, n: int) -> np.ndarray:
    """Level-n multiplier expanded to leaf resolution, shape (L, dim)."""
    return op.multipliers[op.filtration.layout.stacked_maps[n - 1]]


def operator_norm(op: MartingaleTransform) -> float:
    """Largest singular value of W_out^(1/2) M W_in^(-1/2): a full SVD of
    the dense matrix oracle.  It equals ``split_multiplier_norm`` up to
    roundoff."""
    m = op.filtration.layout.measures
    w_out = np.sqrt(m)
    w_in = np.sqrt(np.repeat(m, op.dim))
    scaled = op.matrix * w_out[:, None] / w_in[None, :]
    return float(np.linalg.svd(scaled, compute_uv=False)[0])


def hoelder_objective(lam: float, p: float, x3: float, x4: float) -> float:
    """lambda^p x3 + lambda^-q x4, the quantity the scaling balance
    minimizes."""
    q = conjugate_exponent(p)
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return lam**p * x3 + lam ** (-q) * x4


def scale_candidate(cand: BellmanCandidate, c: float, delta: float | None = None) -> BellmanCandidate:
    """c times a candidate as a candidate of its own, optionally retagging
    the claimed floor: the direct route to the slacks of C * B that
    ``estimate_rescale_constant`` reads off B's unscaled terms."""
    base_fn = cand.fn
    return BellmanCandidate(
        fn=lambda x1, x2, x3, x4: c * base_fn(x1, x2, x3, x4),
        p=cand.p,
        delta=cand.delta if delta is None else delta,
        label=f"{c:g}*{cand.label}",
        cp=None if cand.cp is None else c * cand.cp,
    )


def shift(f: MartFunction, vec: np.ndarray) -> MartFunction:
    """f plus a constant vector."""
    v = np.broadcast_to(np.atleast_1d(np.asarray(vec, dtype=float)), (f.dim,))
    return MartFunction(f.filtration, f.values + v[None, :])


def diameter_pair(x1s: Sequence[np.ndarray]) -> tuple[float, tuple[int, int]]:
    """Largest pairwise distance of the x1 vectors and the first pair (i, j),
    i < j in row-major order, that attains it: a later pair replaces the
    best only when strictly farther.  (0.0, (0, 0)) when no two differ."""
    best, pair = 0.0, (0, 0)
    for i in range(len(x1s)):
        for j in range(i + 1, len(x1s)):
            dij = float(np.linalg.norm(x1s[i] - x1s[j]))
            if dij > best:
                best, pair = dij, (i, j)
    return best, pair


def flagged_events(cert) -> np.ndarray:
    """The split events behind a certificate's failures, in schedule order:
    the events of the atoms its pairing and slack messages name (``at atom
    i``; a leaf's message names ``leaf atom i``)."""
    named = [int(i) for msg in cert.failures for i in re.findall(r"at atom (\d+)", msg)]
    return np.flatnonzero(np.isin(cert.witness.filtration.layout.event_atoms, named))


def certificate_by_records(
    cand: BellmanCandidate,
    f: MartFunction,
    g: MartFunction,
    op: MartingaleTransform,
    tol: float = 1e-9,
) -> tuple[dict, list[int]]:
    """The certificate as a walk over the schedule, one record at a time.

    Every moment point is a dict built from its atom's row of the witness
    table's ``points``, the candidate is evaluated one point at a time, each
    child diameter comes from ``diameter_pair`` and every sum adds its terms
    left to right in a loop.  Returns the payload ``certificate_to_dict``
    writes, with one shared dict per point, and the atoms of the flagged
    records in schedule order.  Raises nothing: the identity checks are ``certify``'s.
    """
    filt = f.filtration
    total = filt.total_measure
    objective = inner(g, op.apply(f)) / total
    table = Witness(f, g, op, cand.p).table
    dim = f.dim
    dicts = [
        {"x1": row[:dim], "x2": row[dim], "x3": row[dim + 1], "x4": row[dim + 2],
         "p": cand.p, "atom": atom_id}
        for atom_id, row in enumerate(table.points.tolist())
    ]
    x1s = [np.array(pt["x1"]) for pt in dicts]

    def value(atom_id):
        pt = dicts[atom_id]
        return float(cand.fn(x1s[atom_id], pt["x2"], pt["x3"], pt["x4"]))

    failures: list[str] = []
    records: list[dict] = []
    flagged: list[int] = []
    weighted_slack = 0.0
    weighted_gap = 0.0
    for atom_id, d, pairing in zip(
        filt.layout.event_atoms.tolist(), table.d.tolist(), table.pairing.tolist()
    ):
        here = atom(filt, atom_id)
        kids = here.children
        weights = [atom(filt, c).measure / here.measure for c in kids]
        diam = diameter_pair([x1s[k] for k in kids])[0]

        bad = False
        chain_scale = max(1.0, abs(pairing), d * diam)
        if d * diam < pairing - tol * chain_scale:
            failures.append(
                f"pairing domination failed at atom {here.id}: "
                f"|d|*diam={d * diam:.6g} < pairing={pairing:.6g}"
            )
            bad = True
        b_base = value(atom_id)
        kid_sum = 0.0
        for w, k in zip(weights, kids):
            kid_sum += w * value(k)
        slack = b_base - d * diam - kid_sum
        if slack < -tol * max(1.0, abs(b_base)):
            failures.append(f"negative split slack at atom {here.id}: {slack:.6g}")
            bad = True
        if bad:
            flagged.append(here.id)
        records.append(
            {
                "atom": here.id,
                "level": here.level,
                "measure": here.measure,
                "weights": weights,
                "d": d,
                "diameter": diam,
                "pairing": pairing,
                "slack": slack,
                "base": dicts[atom_id],
                "children": [dicts[c] for c in here.children],
            }
        )
        weighted_slack += here.measure * slack
        weighted_gap += here.measure * (d * diam - pairing)

    leaves = []
    leaf_weighted = 0.0
    for leaf_id in level_partition(filt, filt.depth).tolist():
        val = value(leaf_id)
        leaves.append({"point": dicts[leaf_id], "value": val})
        leaf_weighted += atom(filt, leaf_id).measure * val
        if val < -tol * max(1.0, abs(val)):
            failures.append(f"negative candidate value on leaf atom {leaf_id}: {val:.6g}")
    odd = [atom_id for atom_id in range(len(dicts)) if not np.isfinite(value(atom_id))]
    if odd:
        first = f"first atom {odd[0]}: {value(odd[0])}"
        failures.append(f"non-finite candidate value on {len(odd)} atoms, {first}")

    bound = value(root(filt).id)
    final_slack = bound - objective
    leaf_term = leaf_weighted / total
    reassembled = (weighted_slack + weighted_gap) / total + leaf_term
    payload = {
        "ok": not failures,
        "candidate": cand.label,
        "p": cand.p,
        "candidate_delta": cand.delta,
        "filtration_delta": filt.delta,
        "objective": objective,
        "bound": bound,
        "final_slack": final_slack,
        "identity_residual": abs(final_slack - reassembled),
        "leaf_term": leaf_term,
        "failures": failures,
        "records": records,
        "leaves": leaves,
    }
    return payload, flagged


# ---------------------------------------------------------------------------
# The per-level conditional calculus: one reduceat, one take and one
# subtraction per level, which the level-stacked kernel replaced.  Its
# floats are the reference the stacked kernel must reproduce bit for bit.


def level_map(filt: Filtration, n: int) -> np.ndarray:
    """Index, in level order, of the A_n atom holding each leaf."""
    lay = filt.layout
    return lay.stacked_maps[n] - lay.level_offsets[n]


def level_starts(lay: LeafLayout, n: int) -> np.ndarray:
    """The first leaf of every A_n atom, in level order: level n's run of
    the stacked boundaries, after the n sentinels of the levels before."""
    lo, hi = lay.level_offsets[n : n + 2].tolist()
    return lay.stacked_starts[lo + n : hi + n]


def level_measures(lay: LeafLayout, n: int) -> np.ndarray:
    """The measure of every A_n atom, in level order."""
    lo, hi = lay.level_offsets[n : n + 2].tolist()
    return lay.stacked_measures[lo:hi]


def event_spans(lay: LeafLayout) -> np.ndarray:
    """The leaf span of every split event's atom, in schedule order."""
    return lay.spans[lay.event_atoms]


def _level_means(filt: Filtration, values: np.ndarray, n: int) -> np.ndarray:
    """Averages of (..., L, d) values over the A_n atoms, in level order."""
    lay = filt.layout
    return segment_means(lay.measures, values, level_starts(lay, n), level_measures(lay, n))


def _level_expectation(filt: Filtration, values: np.ndarray, n: int) -> np.ndarray:
    """E_n at leaf resolution; shape (..., L, d)."""
    return np.take(_level_means(filt, values, n), level_map(filt, n), axis=-2)


def _level_difference(filt: Filtration, values: np.ndarray, n: int) -> np.ndarray:
    """E_{n+1} v - E_n v at leaf resolution: the sum of the single-split
    differences of all events at level n, whose supports are disjoint."""
    return _level_expectation(filt, values, n + 1) - _level_expectation(filt, values, n)


def _level_differences(
    filt: Filtration, values: np.ndarray, start: int = 0
) -> Iterator[np.ndarray]:
    """E_{n+1} v - E_n v at leaf resolution for n = start..depth-1, in order."""
    prev = _level_expectation(filt, values, start)
    for n in range(start + 1, filt.depth + 1):
        cur = _level_expectation(filt, values, n)
        yield cur - prev
        prev = cur


def transform_by_levels(op: MartingaleTransform, values: np.ndarray) -> np.ndarray:
    """T of (..., L, dim) inputs, one level difference at a time."""
    out = np.zeros(values.shape[:-1])
    for n, diff in enumerate(_level_differences(op.filtration, values), start=1):
        out += np.einsum("ij,...ij->...i", multiplier_on_leaves(op, n), diff)
    return out


def adjoint_by_levels(op: MartingaleTransform, values: np.ndarray) -> np.ndarray:
    """Closed-form T* of (..., L, 1) inputs, one level difference at a time."""
    out = np.zeros((*values.shape[:-1], op.dim))
    for n, diff in enumerate(_level_differences(op.filtration, values), start=1):
        out += multiplier_on_leaves(op, n) * diff
    return out


def moment_table_by_levels(
    f: MartFunction, g: MartFunction, tstar_g: MartFunction, p: float
) -> MomentTable:
    """``moment_table`` as the level-by-level pass it replaced: per level,
    one reduceat of the weighted columns, the leaf expectations, osc2 of
    T* g, the atom steps of f, T* g and g, the split pairings of the
    level's events and their children's x2 gains."""
    if g.dim != 1 or tstar_g.dim != f.dim:
        raise ValueError("g must be scalar valued and T* g must have the dimension of f")
    filt = f.filtration
    lay = filt.layout
    dim, q, gv = f.dim, conjugate_exponent(p), g.values[:, 0]
    f_p = np.linalg.norm(f.values, axis=1) ** p
    columns = (f.values, tstar_g.values, gv, gv * gv, f_p, np.abs(gv) ** q)
    stack = np.column_stack(columns)
    rows = np.empty((filt.n_atoms, 2 * dim + 6))  # x1, g2, x2, x3, x4, <T* g>, <g>, osc2
    split = np.empty((len(lay.event_atoms), 3))  # d^2, pairing, x2 gain
    steps = np.zeros((lay.level_offsets[-1], 2 * dim + 1))  # f, T* g, g; the root row is zero
    for n in range(filt.depth + 1):
        means = _level_means(filt, stack, n)
        cond = np.take(means[:, : 2 * dim], level_map(filt, n), axis=0)
        centered = tstar_g.values - cond[:, dim:]
        sq = np.einsum("ij,ij->i", centered, centered)[:, None]
        osc2 = _level_means(filt, sq, n)[:, 0]
        x2 = means[:, -3] - osc2
        # A persisting atom gets the same floats at every level it is in.
        level_rows = np.column_stack(
            (means[:, :dim], means[:, -3], x2, means[:, -2:], means[:, dim : 2 * dim + 1], osc2)
        )
        rows[level_partition(filt, n)] = level_rows
        if n:
            parents = level_map(filt, n - 1)[level_starts(lay, n)]
            level_steps = means[:, : 2 * dim + 1] - prev_means[parents, : 2 * dim + 1]
            steps[lay.level_offsets[n] : lay.level_offsets[n + 1]] = level_steps
            df, dg = np.hsplit(cond - prev_cond, 2)
            pair = np.column_stack((np.einsum("ij,ij->i", dg, dg), np.einsum("ij,ij->i", df, dg)))
            at = lay.event_levels == n - 1
            pick = level_map(filt, n - 1)[event_spans(lay)[at, 0]]
            split[at, :2] = _level_means(filt, pair, n - 1)[pick]
            first_kids = level_map(filt, n)[level_starts(lay, n - 1)]
            kids_x2 = np.add.reduceat(level_measures(lay, n) * x2, first_kids)
            split[at, 2] = (kids_x2 / level_measures(lay, n - 1) - prev_x2)[pick]
        prev_means, prev_cond, prev_x2 = means, cond, x2
    x1, g2, x2, x3, x4, tstar_mean, g_mean, osc2 = np.hsplit(
        rows, [dim, dim + 1, dim + 2, dim + 3, dim + 4, 2 * dim + 4, 2 * dim + 5]
    )
    return MomentTable(
        points=np.column_stack((x1, x2, x3, x4)),
        g2=g2[:, 0],
        tstar_mean=tstar_mean,
        osc2=osc2[:, 0],
        d=np.sqrt(np.maximum(split[:, 0], 0.0)),
        pairing=split[:, 1],
        x2_gain=split[:, 2],
        g_mean=g_mean[:, 0],
        steps=steps,
    )


# ---------------------------------------------------------------------------
# Level oscillation: osc2 of leaf values over every atom of one level,
# computed directly from the values; the moment table's osc2 must match it.


def level_osc2(filt: Filtration, values: np.ndarray, n: int) -> np.ndarray:
    """osc2 of (L, d) values over every A_n atom, in level order."""
    centered = values - _level_expectation(filt, values, n)
    return _level_means(filt, np.einsum("ij,ij->i", centered, centered)[:, None], n)[:, 0]


# ---------------------------------------------------------------------------
# Full-block random draws: one full-length (L, d) normal block per split
# event, of which only the event's span is used.

# Leaf values per block of random draws.
_STACK_VALUES = 1 << 18


def _blocks(count: int, row_values: int) -> Iterator[slice]:
    """Consecutive slices of ``range(count)`` whose rows of ``row_values``
    leaf values stay within ``_STACK_VALUES``."""
    step = max(1, _STACK_VALUES // row_values)
    for lo in range(0, count, step):
        yield slice(lo, min(count, lo + step))


def event_draws_by_blocks(
    filt: Filtration, events: np.ndarray, dim: int, rng: np.random.Generator
) -> np.ndarray:
    """One ``rng.normal`` draw of shape (L, dim) per split event, for the
    layout event indices ``events`` in order, each cut to its event's leaf
    span and laid into the array of the event's level.

    Shape (depth, L, dim), zero off the spans.  Draws come in blocks of at
    most ``_STACK_VALUES`` values, the stream of one draw per event.
    """
    lay = filt.layout
    L = filt.n_leaves
    out = np.zeros((filt.depth, L, dim))
    for blk in _blocks(len(events), L * dim):
        raw = rng.normal(size=(blk.stop - blk.start, L, dim))
        spans = event_spans(lay)[events[blk]]
        leaf, row = _segments(spans[:, 0], spans[:, 1] - spans[:, 0])
        out[lay.event_levels[events[blk]][row], leaf] = raw[row, leaf]
    return out


class SpanFed:
    """Stands in for a generator in the full-block routes and feeds them the
    raw numbers of the span-sized stream.

    ``normal(size=(..., L, d))`` returns one full-length (L, d) draw for each
    of the next events of ``events``: on the event's leaf span it holds the
    event's rows of one ``rng.normal(size=(sum |J|, d))`` call over those
    events, and NaN on every other leaf, which no split piece may read.
    Every other attribute is ``rng``'s, so the routes' other draws come
    from the same stream.
    """

    def __init__(self, rng: np.random.Generator, filt: Filtration, events: Iterable[int]):
        self._rng = rng
        self._spans = event_spans(filt.layout)
        self._events = iter(events)

    def normal(self, size: tuple[int, ...]) -> np.ndarray:
        *lead, n_leaves, dim = size
        spans = self._spans[[next(self._events) for _ in range(int(np.prod(lead)))]]
        leaf, row = _segments(spans[:, 0], spans[:, 1] - spans[:, 0])
        out = np.full((len(spans), n_leaves, dim), np.nan)
        out[row, leaf] = self._rng.normal(size=(len(leaf), dim))
        return out.reshape(size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def event_draws_by_spans(
    filt: Filtration, events: np.ndarray, dim: int, rng: np.random.Generator
) -> np.ndarray:
    """``martingale._event_draws`` as one (|J|, dim) normal draw per event,
    laid on J's leaves in its level's array."""
    lay = filt.layout
    out = np.zeros((filt.depth, filt.n_leaves, dim))
    for e in np.asarray(events).tolist():
        lo, hi = event_spans(lay)[e].tolist()
        out[lay.event_levels[e], lo:hi] = rng.normal(size=(hi - lo, dim))
    return out


# ---------------------------------------------------------------------------
# The per-event localization and restriction suites that the per-level
# kernel replaced, and the per-atom support suite that the mask passes
# replaced.  Each pushes one full-length L-leaf piece or cut per split
# event through every level, in blocks of at most ``_STACK_VALUES`` leaf
# values.


def _at_events(filt: Filtration, per_level, spans: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Pick, for each atom J (leaf span, level n), entry J of the per-A_n-atom
    array ``per_level(n)``; J is the A_n atom holding its first leaf."""
    out = np.empty(len(levels))
    for n in np.unique(levels).tolist():
        at = levels == n
        out[at] = per_level(n)[level_map(filt, n)[spans[at, 0]]]
    return out


def _inside(spans: np.ndarray, n_leaves: int) -> np.ndarray:
    """Boolean (len(spans), L) mask of the leaves inside each span."""
    leaf = np.arange(n_leaves)
    return (spans[:, :1] <= leaf) & (leaf < spans[:, 1:])


def check_localization_by_events(w: Witness, tol: Tolerances, rng: np.random.Generator) -> list[dict]:
    """Single-split inputs localize: T of a split difference at J is
    supported in J, and the adjoint commutes with the split difference up to
    the multiplier of that atom.  Its full-length draws carry the
    span-sized stream's numbers on each event's atom (``SpanFed``)."""
    f, g, op = w.f, w.g, w.op
    filt = f.filtration
    lay = filt.layout
    L = filt.n_leaves
    rng = SpanFed(rng, filt, range(len(lay.event_atoms)))
    outside = 0.0
    for blk in _blocks(len(lay.event_atoms), L * f.dim):
        # One random function per event in schedule order: the same draws as
        # calling random_function once per event.
        raw = rng.normal(size=(blk.stop - blk.start, L, f.dim))
        levels = lay.event_levels[blk]
        pieces = np.empty_like(raw)
        for n in np.unique(levels).tolist():
            pieces[levels == n] = _level_difference(filt, raw[levels == n], n)
        inside = _inside(event_spans(lay)[blk], L)
        pieces[~inside] = 0.0
        th = np.array([op.apply(MartFunction(filt, piece)).values[:, 0] for piece in pieces])
        outside = max(outside, float(np.max(np.abs(th[~inside]), initial=0.0)))

    # On an atom J split at level n, the level-n difference is J's split
    # difference, and T* multiplies it by the level-(n+1) multiplier of J.
    commute = 0.0
    tstar_g = adjoint_by_levels(op, g.values)
    diffs = zip(_level_differences(filt, g.values), _level_differences(filt, tstar_g))
    for n, (dsg, dtg) in enumerate(diffs, start=1):
        err = np.abs(dtg - multiplier_on_leaves(op, n) * dsg)
        commute = max(commute, float(np.max(err)))
    return [
        _row("localization_support", outside, tol.exact, "T of split piece outside atom"),
        _row("localization_adjoint", commute, tol.tight, "adjoint split vs multiplier"),
    ]


def cut_adjoints_by_events(
    op: MartingaleTransform, values: np.ndarray, spans: np.ndarray, shifts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For each span J, osc2 over I and squared norm of T*((v - s_J) 1_J),
    with v the scalar leaf values and s_J the shift of J."""
    filt = op.filtration
    m = filt.layout.measures
    osc = np.empty(len(spans))
    norm_sq = np.empty(len(spans))
    for blk in _blocks(len(spans), filt.n_leaves * op.dim):
        inside = _inside(spans[blk], filt.n_leaves)
        cuts = np.where(inside, values[None, :] - shifts[blk, None], 0.0)
        x = np.array([op.adjoint_closed_form(MartFunction(filt, cut)).values for cut in cuts])
        centered = x - _level_means(filt, x, 0)
        osc[blk] = np.einsum("bij,bij->bi", centered, centered) @ m / root(filt).measure
        norm_sq[blk] = np.einsum("bij,bij->bi", x, x) @ m
    return osc, norm_sq


def restriction_sides_by_events(g: MartFunction, op: MartingaleTransform) -> tuple[np.ndarray, ...]:
    """Per non-root split atom J, in schedule order: leaf span, level,
    measure, local side osc2(T* g, J) and rescaled global side
    (|I|/|J|) osc2(T*(g 1_J), I)."""
    filt = g.filtration
    lay = filt.layout
    below_root = lay.event_levels > 0
    spans = event_spans(lay)[below_root]
    levels = lay.event_levels[below_root]
    measures = _at_events(filt, lambda n: level_measures(lay, n), spans, levels)
    tstar_g = op.adjoint_apply(g).values
    local = _at_events(filt, lambda n: level_osc2(filt, tstar_g, n), spans, levels)
    cut_osc, _ = cut_adjoints_by_events(op, g.values[:, 0], spans, np.zeros(len(spans)))
    return spans, levels, measures, local, (filt.total_measure / measures) * cut_osc


def check_restriction_by_events(w: Witness, tol: Tolerances, rng: np.random.Generator) -> list[dict]:
    """One-sided restriction bound: the local oscillation of T* g over J is
    dominated by the rescaled global oscillation of T* applied to g cut to
    J.  Ancestor splits make the global side strictly larger in general."""
    _, _, _, local, glob = restriction_sides_by_events(w.g, w.op)
    worst = float(np.max((local - glob) / np.maximum(1.0, local), initial=0.0))
    return [_row("restriction_bound", worst, tol.tight, "local minus rescaled global")]


def check_support_by_loops(w: Witness, tol: Tolerances, rng: np.random.Generator) -> list[dict]:
    """Transforms of functions built from a known active split set stay
    supported in the union of those atoms, and the hull lists no atom
    outside them: one leaf slice per active atom, and the hull per level
    from that level's difference, one A_{n-1} atom at a time."""
    filt = w.f.filtration
    h, active = active_split_function(filt, w.f.dim, rng)
    covered = np.zeros(filt.n_leaves, dtype=bool)
    for atom_id in active:
        covered[leaf_slice(filt, atom_id)] = True
    err = float(np.max(np.abs(w.op.apply(h).values[~covered]), initial=0.0))
    threshold = 1e-12 * max(1.0, float(np.max(np.abs(h.values))))
    hull_err = 0.0
    for n, diff in enumerate(_level_differences(filt, h.values), start=1):
        for atom_id in level_partition(filt, n - 1).tolist():
            if np.max(np.abs(diff[leaf_slice(filt, atom_id)])) > threshold and atom_id not in active:
                hull_err += 1.0
    return [
        _row("support_containment", err, tol.exact, f"{len(active)} active atoms"),
        _row("support_hull", hull_err, 0.0, "hull atoms outside the active set"),
    ]


def identity_gaps_by_events(w: Witness) -> tuple[float, float]:
    """Worst relative gaps, over the non-root split atoms J, in the two exact
    restriction identities; both are roundoff on a correct transform.

    With c = <g>_J, the centered cut (g - c) 1_J has no mass on any split
    outside J, so T* localizes:

        osc2(T* g, J) = (|I|/|J|) osc2(T*((g - c) 1_J), I).

    The uncentered cut g 1_J lets the strict ancestors of J see c, and the
    rescaled global side exceeds the local one by exactly c^2 ||T* 1_J||^2/|J|.

    Returns (centered gap relative to the larger side, defect gap relative to
    max(1, defect)).
    """
    g, op = w.g, w.op
    filt = g.filtration
    spans, levels, measures, local, glob = restriction_sides_by_events(g, op)
    c = _at_events(filt, lambda n: _level_means(filt, g.values, n)[:, 0], spans, levels)
    centered_osc, _ = cut_adjoints_by_events(op, g.values[:, 0], spans, c)
    centered = (filt.total_measure / measures) * centered_osc
    scale = np.maximum(np.maximum(local, centered), 1e-30)
    centered_worst = float(np.max(np.abs(local - centered) / scale, initial=0.0))
    _, ones_sq = cut_adjoints_by_events(op, np.ones(filt.n_leaves), spans, np.zeros(len(c)))
    defect = c * c * ones_sq / measures
    gap = np.abs((glob - local) - defect) / np.maximum(1.0, defect)
    return centered_worst, float(np.max(gap, initial=0.0))


# ---------------------------------------------------------------------------
# The split events as runs of leaves: each non-root event's atom J laid out
# again as a run of its leaves, with its owner, and every sum over J a
# reduceat over the runs.  The event chains and the diagonal sums on the
# level stack replaced them; they must give the same floats.

class EventRuns(NamedTuple):
    """The non-root split events of a transform's tower, in schedule order,
    with each event's atom J laid out as a run of leaves: run position i
    holds leaf ``leaf[i]`` of event ``owner[i]``, and the runs begin at
    ``starts``.  A run is J's leaves in order, so a reduceat over the runs
    sums the same segments as the level kernel does over J.

    ``measures`` (e, depth) and ``mults`` (e, depth, d) describe each
    event's ancestor chain K_0 > K_1 > ... > K_n = J, with K_k the A_k atom
    holding J: |K_k| and a_{k+1}(K_k).  Chains are padded to the depth with
    J's measure and zero multipliers, so the last column holds |J| and a
    padded step sees J's mean twice and adds an exact zero.
    """

    levels: np.ndarray
    owner: np.ndarray
    leaf: np.ndarray
    starts: np.ndarray
    measures: np.ndarray
    mults: np.ndarray

    def sums(self, per_leaf: np.ndarray) -> np.ndarray:
        """Sums over each run of ``per_leaf`` in run order."""
        return np.add.reduceat(per_leaf, self.starts, axis=0)

    def select(self, e0: int, e1: int) -> EventRuns:
        """The runs of events e0..e1-1, owners and starts counted from e0."""
        p0, p1 = (int(self.starts[e]) if e < len(self.starts) else len(self.leaf) for e in (e0, e1))
        return EventRuns(
            self.levels[e0:e1],
            self.owner[p0:p1] - e0,
            self.leaf[p0:p1],
            self.starts[e0:e1] - p0,
            self.measures[e0:e1],
            self.mults[e0:e1],
        )


def _event_runs(op: MartingaleTransform) -> EventRuns:
    filt = op.filtration
    lay = filt.layout
    below_root = lay.event_levels > 0
    levels = lay.event_levels[below_root]
    spans = event_spans(lay)[below_root]
    lengths = spans[:, 1] - spans[:, 0]
    leaf, owner = _segments(spans[:, 0], lengths)
    # Row of K_k, k = 0..depth-1, in the stacked rows.
    chain = lay.stacked_maps[: filt.depth, spans[:, 0]].T
    measures = lay.stacked_measures[chain]
    mults = op.multipliers[chain]
    beyond = np.arange(filt.depth) > levels[:, None]
    own = measures[np.arange(len(levels)), levels]
    return EventRuns(
        levels,
        owner,
        leaf,
        np.cumsum(lengths) - lengths,
        np.where(beyond, own[:, None], measures),
        np.where(beyond[..., None], 0.0, mults),
    )


# Floats of the (rows, A, 1) step stack one block of cut rows pushes through
# the levels, at most (or one row, where a row is larger): 2 MB.
_CUT_STACK = 1 << 18


def _cut_adjoints(
    op: MartingaleTransform, runs: EventRuns, values: np.ndarray, shifts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For each non-root split atom J, in schedule order, osc2 over I and
    squared norm of T*((v - s_J) 1_J), with v the scalar leaf values and s_J
    the shift of J.

    The cuts of one level n have disjoint atoms and share one leaf array,
    row n - 1 of a stack.  Inside J, levels n+1.. see J's leaves only, so
    pushing the stack through them gives every cut's T* there, from J's own
    reduceat segments.  Levels 1..n add a constant on J and on each ring of
    J's ancestor chain, from J's cut sum: O(L * depth^2) in all, none of it
    per event.  The stack goes through in blocks of rows of at most
    ``_CUT_STACK`` stacked floats, one pass where the whole stack fits: the
    events of a row are a contiguous run of the schedule, and a row's floats
    do not depend on the other rows of its block.
    """
    filt = op.filtration
    if not len(runs.levels):
        return np.empty(0), np.empty(0)
    rows = filt.depth - 1
    per_block = max(1, _CUT_STACK // len(filt.layout.stacked_measures))
    if per_block >= rows:
        return _cut_block(op, runs, values, shifts, 0, rows)
    out = []
    for first in range(0, rows, per_block):
        last = min(first + per_block, rows)
        e0, e1 = np.searchsorted(runs.levels, [first + 1, last + 1]).tolist()
        if e1 > e0:
            out.append(_cut_block(op, runs.select(e0, e1), values, shifts[e0:e1], first, last))
    return tuple(np.concatenate(parts) for parts in zip(*out))


def _cut_block(
    op: MartingaleTransform,
    runs: EventRuns,
    values: np.ndarray,
    shifts: np.ndarray,
    first: int,
    last: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``_cut_adjoints`` of the events of cut rows first..last-1 (levels
    first+1..last), whose runs ``runs`` holds."""
    filt = op.filtration
    owner, leaf = runs.owner, runs.leaf
    row = runs.levels[owner] - (first + 1)
    cut = values[leaf] - shifts[owner]
    weights = filt.layout.measures[leaf]
    sums = runs.sums(weights * cut)
    inside, rings = _ancestor_values(runs.mults, (sums[:, None] / runs.measures)[..., None])
    cuts = np.zeros((last - first, filt.n_leaves, 1))
    cuts[row, leaf, 0] = cut
    del cut
    steps = _atom_steps(filt, cuts)
    del cuts
    x = np.zeros((last - first, filt.n_leaves, op.dim))
    x[row, leaf] = inside[owner]
    # Level k reaches inside the atoms of levels n < k: rows 0..k-2.
    for k in range(first + 2, filt.depth + 1):
        diff = np.take(steps[: k - 1 - first], filt.layout.stacked_maps[k], axis=-2)
        x[: k - 1 - first] += multiplier_on_leaves(op, k) * diff
    del steps
    on_atoms = x[row, leaf]
    del x

    ring_measures = runs.measures[:, :-1] - runs.measures[:, 1:]
    mean = runs.sums(weights[:, None] * on_atoms) + np.einsum("ej,ejd->ed", ring_measures, rings)
    mean /= filt.total_measure

    def square_sums(inside: np.ndarray, on_rings: np.ndarray) -> np.ndarray:
        per_leaf = runs.sums(weights * np.einsum("ij,ij->i", inside, inside))
        return per_leaf + np.einsum("ej,ejd,ejd->e", ring_measures, on_rings, on_rings)

    off_mean = square_sums(on_atoms - mean[owner], rings - mean[:, None, :])
    return off_mean / filt.total_measure, square_sums(on_atoms, rings)


def check_localization_by_runs(w: Witness, tol: Tolerances, rng: np.random.Generator) -> list[dict]:
    """``checks.check_localization`` with every piece's sum over J taken
    over its run of leaves."""
    filt, op = w.f.filtration, w.op
    lay = filt.layout
    draws = _event_draws(filt, np.arange(len(lay.event_atoms)), w.f.dim, rng)
    runs = _event_runs(op)
    outside = 0.0
    if len(runs.levels):
        # The piece of an event at level n >= 1 is the level-n difference
        # of row n of the draws: on J's leaves, the step of their A_{n+1}
        # row.
        steps = _diagonal_steps(filt, draws[1:], first=1)
        on_atoms = steps[lay.stacked_maps[runs.levels[runs.owner] + 1, runs.leaf]]
        sums = runs.sums(lay.measures[runs.leaf, None] * on_atoms)
        _, rings = _ancestor_values(runs.mults, sums[:, None, :] / runs.measures[..., None])
        nonempty = runs.measures[:, :-1] > runs.measures[:, 1:]
        outside = float(np.max(np.abs(rings.sum(axis=-1)[nonempty]), initial=0.0))

    # On an atom J split at level n, the level-n difference is J's split
    # difference, and T* multiplies it by the level-(n+1) multiplier of J:
    # row by row, the step of T* g is a_{n+1}(J) times the step of g.
    dtg, dsg = np.hsplit(w.table.steps[:, w.f.dim :], [w.f.dim])
    below = lay.level_offsets[1]  # the root row has no step
    err = dtg[below:] - op.step_multipliers[below:] * dsg[below:]
    commute = float(np.max(np.abs(err)))
    return [
        _row("localization_support", outside, tol.exact, "T of split piece outside atom"),
        _row("localization_adjoint", commute, tol.tight, "adjoint split vs multiplier"),
    ]


def check_osc_series_by_levels(w: Witness, tol: Tolerances, rng: np.random.Generator) -> list[dict]:
    """``checks.check_osc_series`` with each level's series, split atoms and
    gaps taken in a loop over the levels, one A_n level at a time."""
    filt, dim = w.f.filtration, w.f.dim
    lay = filt.layout
    osc2 = w.table.osc2
    steps = w.table.steps[:, dim : 2 * dim]
    sq = np.take(np.einsum("ij,ij->i", steps, steps), lay.stacked_maps[1:], axis=0)
    piece_sums = _diagonal_sums(filt, sq)
    series = np.zeros(filt.n_leaves)
    err = 0.0
    for n in range(filt.depth - 1, -1, -1):
        piece_sq = piece_sums[lay.level_offsets[n] : lay.level_offsets[n + 1]]
        container = lay.stacked_maps[n][level_starts(lay, n + 1)] - lay.level_offsets[n]
        series = piece_sq + np.bincount(container, weights=series, minlength=len(piece_sq))
        split = np.bincount(container, minlength=len(piece_sq)) > 1
        direct = osc2[level_partition(filt, n)[split]]
        rel = np.abs(direct - series[split] / level_measures(lay, n)[split])
        rel /= np.maximum(1.0, direct)
        err = float(np.maximum(err, np.max(rel)))  # NaN stays
    return [_row("osc_series", err, tol.tight, "series vs direct, relative")]


def check_support_by_isin(w: Witness, tol: Tolerances, rng: np.random.Generator) -> list[dict]:
    """``checks.check_support`` with the hull's atoms looked up in the
    active set by ``np.isin``."""
    filt = w.f.filtration
    lay = filt.layout
    h, active = active_split_function(filt, w.f.dim, rng)
    th = w.op.apply(h)
    spans = lay.spans[active]
    covered = np.zeros(filt.n_leaves, dtype=bool)
    covered[_segments(spans[:, 0], spans[:, 1] - spans[:, 0])[0]] = True
    err = float(np.max(np.abs(th.values[~covered]), initial=0.0))

    hull = _steps_hull(filt, h.values, _atom_steps(filt, h.values))
    hull_err = float(np.count_nonzero(hull & ~np.isin(lay.stacked_atoms[: len(hull)], active)))
    return [
        _row("support_containment", err, tol.exact, f"{len(active)} active atoms"),
        _row("support_hull", hull_err, 0.0, "hull atoms outside the active set"),
    ]


def random_transform_by_levels(
    filt: Filtration, dim: int, rng: np.random.Generator
) -> MartingaleTransform:
    """``corpus.random_transform`` with each level's rows scaled to unit
    length and to their radii as soon as they are drawn."""
    offsets = filt.layout.level_offsets[: filt.depth + 1]
    mults = np.empty((offsets[-1], dim))
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        mults[lo:hi] = _unit_rows(rng.normal(size=(hi - lo, dim)))
        mults[lo:hi] *= rng.uniform(size=(hi - lo, 1)) ** (1.0 / dim)
    return make_transform(filt, mults)


def diagonal_sums_by_levels(filt: Filtration, values: np.ndarray, first: int = 0) -> np.ndarray:
    """``martingale._diagonal_sums`` as one reduceat of measure-weighted
    leaf values per row, row k over the A_{first + k} atoms."""
    m = filt.layout.measures if values.ndim == 2 else filt.layout.measures[:, None]
    starts = [level_starts(filt.layout, first + k) for k in range(len(values))]
    return np.concatenate([np.add.reduceat(m * row, at, axis=0) for row, at in zip(values, starts)])


def diagonal_sums_padded(filt: Filtration, values: np.ndarray, first: int = 0) -> np.ndarray:
    """``martingale._diagonal_sums`` over padded rows: each leaf row of the
    stack gets one zero row at position L, and each level's boundaries,
    sentinel L included, are moved by n * (L + 1); the sentinel sums are
    dropped."""
    lay = filt.layout
    K, L = values.shape[:2]
    sizes = np.diff(lay.level_offsets)
    boundary_levels = np.repeat(np.arange(len(sizes)), sizes + 1)
    diagonal_starts = lay.stacked_starts + boundary_levels * (L + 1)
    # The boundaries of levels first..first+K-1, sentinels included.
    lo = lay.level_offsets[first] + first
    hi = lay.level_offsets[first + K] + first + K
    bounds = diagonal_starts[lo:hi] - first * (L + 1)
    flat = _padded(filt, values.reshape(K, L, -1)).reshape(K * (L + 1), -1)
    sums = np.add.reduceat(flat if values.ndim == 3 else flat[:, 0], bounds, axis=0)
    return sums[lay.stacked_starts[lo:hi] < L]


# ---------------------------------------------------------------------------
# The tower as a tuple of Atom records


def atom_columns(atoms: Sequence[Atom]) -> tuple[list, ...]:
    """The six columns of a list of atoms in constructor order, row i from
    ``atoms[i]``, each atom's children in their listed order; not
    validated."""
    children = [a.children for a in atoms]
    return (
        [a.a for a in atoms],
        [a.b for a in atoms],
        [a.level for a in atoms],
        [-1 if a.parent is None else a.parent for a in atoms],
        np.cumsum([0] + [len(c) for c in children]),
        list(chain.from_iterable(children)),
    )


def tower_from_atoms(atoms: Sequence[Atom], delta: float, depth: int | None = None) -> Filtration:
    """The columnar tower of a list of atoms (``atom_columns``); depth
    defaults to the deepest level."""
    depth = max(a.level for a in atoms) if depth is None else depth
    return Filtration(delta, depth, *atom_columns(atoms))


def levels_of(filt: Filtration) -> tuple[tuple[int, ...], ...]:
    """A_0..A_N of a columnar tower as tuples of atom ids, the form
    ``AtomTower.levels`` takes."""
    return tuple(tuple(level_partition(filt, n).tolist()) for n in range(filt.depth + 1))


def leaves_of(filt: Filtration) -> tuple[int, ...]:
    """The leaf ids of a columnar tower in left-endpoint order."""
    return tuple(level_partition(filt, filt.depth).tolist())


def columns_of(tower) -> dict[str, list]:
    """The columns of a tower of either kind, as lists."""
    rows = list(atoms(tower))
    return {
        "a": [a.a for a in rows],
        "b": [a.b for a in rows],
        "level": [a.level for a in rows],
        "parent": [-1 if a.parent is None else a.parent for a in rows],
        "child_starts": np.cumsum([0] + [len(a.children) for a in rows]).tolist(),
        "children": [c for a in rows for c in a.children],
    }


@dataclass(frozen=True, eq=False)
class AtomTower:
    """The tower as a tuple of ``Atom`` records, validated, partitioned
    into levels and laid out one atom at a time."""

    delta: float
    depth: int
    atoms: tuple[Atom, ...]
    levels: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    leaves: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _validate_atoms(self)
        levels = _level_partitions(self.atoms, self.depth)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "leaves", levels[self.depth])
        _validate_levels(self)

    @cached_property
    def layout(self) -> LeafLayout:
        return _build_layout(self)


def atoms_to_dict(f: AtomTower) -> dict:
    """JSON-ready payload of the tower, one atom record at a time."""
    return {
        "delta": f.delta,
        "depth": f.depth,
        "atoms": [
            {
                "id": a.id,
                "a": a.a,
                "b": a.b,
                "level": a.level,
                "parent": a.parent,
                "children": list(a.children),
            }
            for a in f.atoms
        ],
    }


def regularity_delta(f) -> float:
    """Smallest realized child/parent measure ratio."""
    best = 0.5
    every = atoms(f)
    for a in every:
        if a.children:
            for c in a.children:
                best = min(best, every[c].measure / a.measure)
    return best


def _validate_atoms(f: AtomTower) -> None:
    if not (0.0 < f.delta <= 0.5):
        raise FiltrationError(f"delta must lie in (0, 1/2], got {f.delta}")
    if f.depth < 1:
        raise FiltrationError(f"depth must be >= 1, got {f.depth}")
    if not f.atoms:
        raise FiltrationError("empty atom list")
    for i, a in enumerate(f.atoms):
        if a.id != i:
            raise FiltrationError("atom ids must be dense 0..len-1 in order")
        if not (a.b > a.a):
            raise FiltrationError(f"atom {a.id} has nonpositive measure")
        if len(a.children) == 1:
            raise FiltrationError(f"atom {a.id} has exactly one child")
        if a.children:
            if a.level >= f.depth:
                raise FiltrationError(f"atom {a.id} splits past the final level")
            kids = [f.atoms[c] for c in a.children]
            for k in kids:
                if k.parent != a.id or k.level != a.level + 1:
                    raise FiltrationError(f"child bookkeeping broken at atom {a.id}")
            kids_sorted = sorted(kids, key=lambda k: k.a)
            scale = max(a.measure, 1.0)
            if abs(kids_sorted[0].a - a.a) > _GEOM_TOL * scale or abs(
                kids_sorted[-1].b - a.b
            ) > _GEOM_TOL * scale:
                raise FiltrationError(f"children do not span atom {a.id}")
            for u, v in zip(kids_sorted, kids_sorted[1:]):
                if abs(u.b - v.a) > _GEOM_TOL * scale:
                    raise FiltrationError(f"children leave a gap inside atom {a.id}")
            if abs(sum(k.measure for k in kids) - a.measure) > _GEOM_TOL * scale:
                raise FiltrationError(f"child measures do not sum inside atom {a.id}")
            for k in kids:
                if k.measure / a.measure < f.delta - _GEOM_TOL:
                    raise FiltrationError(
                        f"child ratio {k.measure / a.measure:.3e} below delta at atom {a.id}"
                    )


def _level_partitions(atoms: tuple[Atom, ...], depth: int) -> tuple[tuple[int, ...], ...]:
    """A_0..A_depth as atom ids in left-endpoint order, in one pass over the
    atoms: A_n holds the atoms created at level n plus the earlier atoms
    that never split.  Ties in ``a`` keep id order."""
    created: list[list[Atom]] = [[] for _ in range(depth + 1)]
    carried: list[Atom] = []  # leaves created below the current level
    for a in atoms:
        if 0 <= a.level <= depth:
            created[a.level].append(a)
        elif a.level < 0 and a.is_leaf:
            carried.append(a)
    levels = []
    for here in created:
        members = sorted(here + carried, key=lambda a: (a.a, a.id))
        levels.append(tuple(a.id for a in members))
        carried.extend(a for a in here if a.is_leaf)
    return tuple(levels)


def _validate_levels(f: AtomTower) -> None:
    roots = [a for a in f.atoms if a.parent is None]
    if len(roots) != 1 or roots[0].level != 0:
        raise FiltrationError("need exactly one root atom at level 0")
    for n in range(f.depth):
        # Strictly increasing tower: some atom of A_n must split at time n.
        if not any(f.atoms[i].children and f.atoms[i].level == n for i in f.levels[n]):
            raise FiltrationError(f"no split at level {n}; tower not strictly increasing")


def build_dyadic(depth: int) -> AtomTower:
    """Uniform binary filtration of [0, 1).  Every atom above the final level
    splits in half; endpoints are exact binary fractions."""
    if not (1 <= depth <= 20):
        raise FiltrationError(f"dyadic depth must be in [1, 20], got {depth}")
    atoms: list[Atom] = []

    def rec(a: float, b: float, level: int, parent: int | None) -> int:
        my_id = len(atoms)
        atoms.append(None)  # placeholder, patched below
        if level < depth:
            mid = (a + b) / 2.0
            left = rec(a, mid, level + 1, my_id)
            right = rec(mid, b, level + 1, my_id)
            atoms[my_id] = Atom(my_id, a, b, level, parent, (left, right))
        else:
            atoms[my_id] = Atom(my_id, a, b, level, parent, ())
        return my_id

    rec(0.0, 1.0, 0, None)
    return AtomTower(delta=0.5, depth=depth, atoms=tuple(atoms))


def sample_ratios_one_by_one(rng, k, delta, budget):
    """Rejection sampling with one Dirichlet draw per iteration; where a
    row is accepted with chance below ``_AFFINE_ACCEPT``, or ``budget``
    rows are all rejected, the affine row delta + (1 - k delta) D of one
    Dirichlet row D."""
    room = 1.0 - k * delta
    if room < 1e-9:
        return np.full(k, 1.0 / k)
    if room ** (k - 1) >= _AFFINE_ACCEPT:
        for _ in range(budget):
            w = rng.dirichlet(np.ones(k))
            if w.min() >= delta:
                return w
    return delta + room * rng.dirichlet(np.ones(k))


def build_random_regular(
    depth: int,
    delta: float,
    max_children: int,
    split_prob: float,
    seed: int,
    ratio_budget: int = 10_000,
) -> AtomTower:
    """Seeded random filtration of [0, 1) with child ratios >= delta, one
    ``Atom`` at a time, ratios from ``sample_ratios_one_by_one``."""
    rng = np.random.default_rng(seed)
    atoms: list[Atom] = [Atom(0, 0.0, 1.0, 0, None, ())]

    current = [0]  # atoms created at the current level, candidates to split
    for level in range(depth):
        coins = rng.random(len(current))
        chosen = [i for i, c in zip(current, coins) if c < split_prob]
        if not chosen:
            chosen = [current[int(rng.integers(len(current)))]]
        nxt: list[int] = []
        for i in sorted(chosen, key=lambda j: atoms[j].a):
            parent = atoms[i]
            k = int(rng.integers(2, max_children + 1))
            ratios = sample_ratios_one_by_one(rng, k, delta, ratio_budget)
            cuts = parent.a + parent.measure * np.cumsum(ratios)[:-1]
            edges = [parent.a, *cuts.tolist(), parent.b]
            child_ids = []
            for j in range(k):
                cid = len(atoms)
                atoms.append(Atom(cid, edges[j], edges[j + 1], level + 1, parent.id, ()))
                child_ids.append(cid)
            atoms[i] = Atom(parent.id, parent.a, parent.b, parent.level, parent.parent, tuple(child_ids))
            nxt.extend(child_ids)
        current = nxt
    return AtomTower(delta=delta, depth=depth, atoms=tuple(atoms))


def _build_layout(f: AtomTower) -> LeafLayout:
    """One pass over the tower: leaf counts children first, then the
    levels' atoms laid end to end in stacked rows; the cumulative counts
    in row order give every atom's span, since each level tiles the L
    leaves in left-endpoint order."""
    count = [0] * len(f.atoms)
    for a in sorted(f.atoms, key=lambda a: a.level, reverse=True):
        count[a.id] = sum(count[c] for c in a.children) if a.children else 1
    atom_measure = np.array([a.measure for a in f.atoms])
    n_leaves = len(f.leaves)
    sizes = [len(ids) for ids in f.levels]
    offsets = np.cumsum([0] + sizes)
    rows = np.arange(offsets[-1])
    row_level = np.repeat(np.arange(len(sizes)), sizes)
    stacked_atoms = np.fromiter(chain.from_iterable(f.levels), dtype=np.intp, count=offsets[-1])
    leaves_in = np.array(count)[stacked_atoms]
    diagonal_starts = np.cumsum(leaves_in) - leaves_in
    first_leaf = diagonal_starts - row_level * n_leaves
    spans = np.empty((len(f.atoms), 2), dtype=np.intp)
    spans[stacked_atoms, 0] = first_leaf
    spans[stacked_atoms, 1] = first_leaf + leaves_in
    shape = (len(sizes), n_leaves)
    stacked_maps = _frozen(np.repeat(rows, leaves_in).reshape(shape))
    # Row r of level n is boundary r + n, after n sentinels.
    stacked_starts = np.full(offsets[-1] + len(sizes), n_leaves)
    stacked_starts[rows + row_level] = first_leaf
    stacked_starts = _frozen(stacked_starts)
    stacked_measures = _frozen(atom_measure[stacked_atoms])
    # Atoms split at the level they are created, so the events of level n
    # are the A_n atoms with children, in left-endpoint order: the rows
    # with children, in row order.
    split = np.flatnonzero(np.array([bool(a.children) for a in f.atoms])[stacked_atoms])
    event_atoms = stacked_atoms[split]
    kids = [f.atoms[i].children for i in event_atoms.tolist()]
    # The row of the atom holding each row's first leaf one level up, or down.
    parents = stacked_maps[np.maximum(row_level - 1, 0), first_leaf]
    below = offsets[-2]
    children = stacked_maps[row_level[:below] + 1, first_leaf[:below]]
    return LeafLayout(
        measures=_frozen(atom_measure[list(f.leaves)]),
        atom_measures=_frozen(atom_measure),
        spans=_frozen(spans),
        event_atoms=_frozen(event_atoms),
        event_levels=_frozen(row_level[split]),
        # each event's row: the row its level's map gives its first leaf
        event_rows=_frozen(stacked_maps[row_level[split], spans[event_atoms, 0]]),
        event_children=_frozen(np.fromiter(chain.from_iterable(kids), dtype=np.intp)),
        event_child_starts=_frozen(np.cumsum([0] + [len(k) for k in kids])),
        level_offsets=_frozen(offsets),
        stacked_starts=stacked_starts,
        diagonal_starts=_frozen(diagonal_starts),
        stacked_measures=stacked_measures,
        stacked_maps=stacked_maps,
        stacked_atoms=_frozen(stacked_atoms),
        stacked_parents=_frozen(parents),
        stacked_children=_frozen(children),
    )


def stack(towers: Sequence[Filtration]) -> Filtration:
    """The towers laid end to end in one filtration, at their lowest floor."""
    return Filtration.stack(min(t.delta for t in towers), towers[0].depth, [t.columns for t in towers])


def batch_members(tower: Filtration, seed: int = 7) -> list[Filtration]:
    """``tower`` with a random tower of its depth at every corpus floor but
    1/2, the dyadic tower of its depth and itself again: repeated and
    uneven towers side by side."""
    depth = tower.depth
    others = [
        filtration.build_random_regular(depth, d, max_children_for(d), 0.7, seed * depth)
        for d in (0.1, 0.25, 1.0 / 3.0)
    ]
    return [tower, *others, filtration.build_dyadic(depth), tower]


def layouts_in_batch(towers: Sequence[Filtration]) -> list[LeafLayout]:
    """Each tower's layout read back out of the layout of one batch of the
    towers: its stacked rows (``tower_rows``) renumbered in its own order,
    and its atoms, leaves and boundaries moved back by its offsets."""
    batch = stack(towers)
    lay = batch.layout
    rows, starts = batch.tower_rows(batch.depth + 1)
    out = []
    for t in range(len(towers)):
        a0, a1 = batch.atom_offsets[t : t + 2].tolist()
        lo, hi = batch.leaf_offsets[t : t + 2].tolist()
        run = rows[starts[t] : starts[t + 1]]  # the batch row of each own row
        own = np.full(len(lay.stacked_atoms), -1)
        own[run] = np.arange(len(run))  # the own row of each batch row
        level = np.searchsorted(lay.level_offsets, run, "right") - 1
        offsets = np.concatenate(([0], np.cumsum(np.bincount(level, minlength=batch.depth + 1))))
        first = lay.diagonal_starts[run] - level * batch.n_leaves - lo
        events = np.flatnonzero((lay.event_atoms >= a0) & (lay.event_atoms < a1))
        kid_lo, kid_hi = lay.event_child_starts[events], lay.event_child_starts[events + 1]
        out.append(
            LeafLayout(
                measures=lay.measures[lo:hi],
                atom_measures=lay.atom_measures[a0:a1],
                spans=lay.spans[a0:a1] - lo,
                event_atoms=lay.event_atoms[events] - a0,
                event_levels=lay.event_levels[events],
                event_rows=own[lay.event_rows[events]],
                event_children=np.concatenate([lay.event_children[x:y] - a0 for x, y in zip(kid_lo, kid_hi)]),
                event_child_starts=np.concatenate(([0], np.cumsum(kid_hi - kid_lo))),
                level_offsets=offsets,
                # the first leaf of each row of a level, then the sentinel
                stacked_starts=np.insert(first, offsets[1:], hi - lo),
                diagonal_starts=first + level * (hi - lo),
                stacked_measures=lay.stacked_measures[run],
                stacked_maps=own[lay.stacked_maps[:, lo:hi]],
                stacked_atoms=lay.stacked_atoms[run] - a0,
                stacked_parents=own[lay.stacked_parents[run]],
                stacked_children=own[lay.stacked_children[run[: offsets[-2]]]],
            )
        )
    return out


def batch_kernel_args(towers: Sequence[Filtration], dim: int, seed: int) -> tuple:
    """Per tower: leaf values, stacked-row values and unit multiplier rows."""
    rng = np.random.default_rng(seed)
    values = [rng.normal(size=(t.n_leaves, dim)) for t in towers]
    per_row = [rng.normal(size=(len(t.layout.stacked_atoms), dim)) for t in towers]
    mults = [_unit_rows(rng.normal(size=(t.layout.level_offsets[t.depth], dim))) for t in towers]
    return towers, values, per_row, mults


def kernels_in_batch(towers, values, per_row, mults) -> list[tuple[np.ndarray, ...]]:
    """The stacked means, the leaf sum and T f of the towers stacked in one
    batch, cut into each tower's part."""
    batch = stack(towers)
    rows, starts = batch.tower_rows(batch.depth + 1)
    below, below_starts = batch.tower_rows(batch.depth)
    batch_rows = np.empty((len(rows), values[0].shape[1]))
    batch_mults = np.empty((len(below), values[0].shape[1]))
    for t in range(len(towers)):
        batch_rows[rows[starts[t] : starts[t + 1]]] = per_row[t]
        batch_mults[below[below_starts[t] : below_starts[t + 1]]] = mults[t]
    stacked = np.concatenate(values)
    means, sums = _stacked_means(batch, stacked), _leaf_sum(batch, batch_rows)
    tf = make_transform(batch, batch_mults).apply(MartFunction(batch, stacked)).values
    bounds = batch.leaf_offsets.tolist()
    return [
        (means[rows[starts[t] : starts[t + 1]]], sums[lo:hi], tf[lo:hi])
        for t, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    ]


def kernels_per_tower(towers, values, per_row, mults) -> list[tuple[np.ndarray, ...]]:
    """``kernels_in_batch`` one tower at a time."""
    return [
        (_stacked_means(t, v), _leaf_sum(t, r), make_transform(t, m).apply(MartFunction(t, v)).values)
        for t, v, r, m in zip(towers, values, per_row, mults)
    ]


def optimal_lambda_numeric(p: float, x3: float, x4: float) -> float:
    """Numeric minimizer, independent of the closed form on purpose.

    The tests compare ``estimator.optimal_lambda`` with it.

    Golden section over a log grid bracket locates the minimum; value
    comparisons alone bottom out near sqrt(machine eps) relative, so a
    derivative sign bisection sharpens the result to full precision.  The
    derivative here is differentiated numerically from the objective's own
    terms, never solved algebraically.
    """
    if x3 <= 0 or x4 <= 0:
        raise ValueError(f"moments must be positive, got x3={x3}, x4={x4}")
    q = conjugate_exponent(p)
    grid = np.logspace(-8, 8, 321)
    with np.errstate(over="ignore"):
        # far grid tails overflow to inf, which argmin ignores by design
        vals = [hoelder_objective(l, p, x3, x4) for l in grid]
    i = int(np.argmin(vals))
    if i == 0 or i == len(grid) - 1:
        raise ValueError("minimizer fell outside the bracketing grid")
    res = minimize_scalar(
        lambda l: hoelder_objective(l, p, x3, x4),
        bracket=(grid[i - 1], grid[i], grid[i + 1]),
        method="golden",
        options={"xtol": 1e-11},
    )
    lam = float(res.x)

    def slope(l: float) -> float:
        return p * l ** (p - 1.0) * x3 - q * l ** (-q - 1.0) * x4

    lo, hi = lam * (1.0 - 1e-6), lam * (1.0 + 1e-6)
    for _ in range(120):
        if slope(lo) < 0.0 < slope(hi):
            return float(brentq(slope, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps))
        lo *= 0.5
        hi *= 2.0
        if not (np.isfinite(slope(lo)) and np.isfinite(slope(hi))):
            break
    return lam


# ---------------------------------------------------------------------------
# One trial, one tower, one configuration at a time


def build_layout_one_root(f: Filtration) -> LeafLayout:
    """``filtration._build_layout`` of a single tower, from its root: the
    layout before towers were batched."""
    n_kids = f.child_starts[1:] - f.child_starts[:-1]
    ordered = _sorted_children(f, np.arange(f.n_atoms).repeat(n_kids))
    # An atom that splits expands to its ordered children, any other to itself.
    pool = np.concatenate((ordered, np.arange(f.n_atoms)))
    expand = np.where(n_kids > 0, f.child_starts[:-1], len(ordered) + np.arange(f.n_atoms))
    blocks = np.maximum(n_kids, 1)
    rows = [np.array([root(f).id])]
    block_starts = []
    for _ in range(f.depth):
        here = rows[-1]
        rows.append(pool[_segments(expand[here], blocks[here])[0]])
        block_starts.append(blocks[here].cumsum() - blocks[here])
    counts = [np.ones(len(rows[-1]), dtype=np.intp)]
    for begin in reversed(block_starts):
        counts.append(np.add.reduceat(counts[-1], begin))
    leaves_in = np.concatenate(counts[::-1])

    atom_measure = f.b - f.a
    n_leaves = len(rows[-1])
    sizes = [len(r) for r in rows]
    offsets = np.array([0] + sizes).cumsum()
    bounds = offsets.tolist()
    stacked = np.arange(bounds[-1])
    row_level = np.arange(len(sizes)).repeat(sizes)
    stacked_atoms = np.concatenate(rows)
    diagonal_starts = leaves_in.cumsum() - leaves_in
    first_leaf = diagonal_starts - row_level * n_leaves
    spans = np.empty((f.n_atoms, 2), dtype=np.intp)
    spans[stacked_atoms, 0] = first_leaf
    spans[stacked_atoms, 1] = first_leaf + leaves_in
    stacked_maps = _frozen(stacked.repeat(leaves_in).reshape(len(sizes), n_leaves))
    # Row r of level n is boundary r + n, after n sentinels.
    stacked_starts = np.full(bounds[-1] + len(sizes), n_leaves)
    stacked_starts[stacked + row_level] = first_leaf
    stacked_starts = _frozen(stacked_starts)
    stacked_measures = _frozen(atom_measure[stacked_atoms])
    # Atoms split at the level they are created, so the events of level n
    # are the A_n atoms with children, in left-endpoint order: the rows
    # with children, in row order.
    split = n_kids[stacked_atoms].nonzero()[0]
    event_atoms = stacked_atoms[split]
    event_sizes = n_kids[event_atoms]
    # The row of the atom holding each row's first leaf one level up, or down.
    parents = stacked_maps[np.maximum(row_level - 1, 0), first_leaf]
    below = bounds[-2]
    children = stacked_maps[row_level[:below] + 1, first_leaf[:below]]
    return LeafLayout(
        measures=_frozen(atom_measure[rows[-1]]),
        atom_measures=_frozen(atom_measure),
        spans=_frozen(spans),
        event_atoms=_frozen(event_atoms),
        event_levels=_frozen(row_level[split]),
        # each event's row: the row its level's map gives its first leaf
        event_rows=_frozen(stacked_maps[row_level[split], spans[event_atoms, 0]]),
        event_children=_frozen(f.children[_segments(f.child_starts[event_atoms], event_sizes)[0]]),
        event_child_starts=_frozen(np.concatenate(([0], event_sizes.cumsum()))),
        level_offsets=_frozen(offsets),
        stacked_starts=stacked_starts,
        diagonal_starts=_frozen(diagonal_starts),
        stacked_measures=stacked_measures,
        stacked_maps=stacked_maps,
        stacked_atoms=_frozen(stacked_atoms),
        stacked_parents=_frozen(parents),
        stacked_children=_frozen(children),
    )


def _trial_filtration(delta: float, depth: int | None, i: int, filt_seed: int) -> Filtration:
    """Trial i's tower, built alone: the cached dyadic tower at delta 1/2,
    else ``build_tower``'s."""
    d = _trial_depth(depth, i)
    if delta == 0.5:
        return cell_filtration(0.5, None, d, 2)
    return build_tower(delta, filt_seed, d)


def scan_trials_by_trials(
    p: float, trials: int, seed: int, delta: float, dim: int, depth: int | None
) -> tuple[np.ndarray, dict]:
    """The ratios and argmax of ``estimator.lp_constant_scan`` one trial at
    a time: each trial's own transform, apply and norms."""
    ratios = np.empty(trials)
    argmax: dict = {}
    for i in range(trials):
        rng = _trial_rng(seed, i)
        filt_seed = int(rng.integers(2**31))
        filt = _trial_filtration(delta, depth, i, filt_seed)
        op = unit_transform(filt, dim, rng)
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
    return ratios, argmax


def unit_transform(filt: Filtration, dim: int, rng: np.random.Generator) -> MartingaleTransform:
    """A transform whose multipliers are one normal draw of the stacked rows
    of A_0..A_{N-1}, each scaled to unit length."""
    return make_transform(filt, _unit_rows(rng.normal(size=(filt.layout.level_offsets[filt.depth], dim))))


def _pairing_value(f: MartFunction, g: MartFunction, op, p: float, q: float) -> float:
    nf = lp_norm(f, p)
    ng = lp_norm(g, q)
    if nf <= 0 or ng <= 0:
        return 0.0
    return abs(inner(g, op.apply(f))) / (nf * ng * f.filtration.total_measure)


def search_trials_by_trials(
    p: float,
    trials: int,
    seed: int,
    delta: float = 0.5,
    dim: int = 1,
    depth: int | None = None,
) -> tuple[list[float], float, dict, Witness]:
    """The trials of ``estimator.lower_bound_search`` one at a time: the
    history, the best value, its record and its ``Witness`` at p."""
    q = conjugate_exponent(p)
    history = []
    best = -1.0
    record: dict = {}
    for i in range(trials):
        rng = _trial_rng(seed, i)
        filt = _trial_filtration(delta, 2 if i == 0 else depth, i, int(rng.integers(2**31)))
        if i == 0 and len(root(filt).children) == 2:
            w = haar_witness(filt, dim)
            f, g, op, kind = w.f, w.g, w.op, "structured"
        else:
            f, g = random_function(filt, dim, rng), random_function(filt, 1, rng)
            op = unit_transform(filt, dim, rng)
            kind = "random"
        val = _pairing_value(f, g, op, p, q)
        history.append(val)
        # Values are nonnegative, so trial 0 always sets the best witness.
        if val > best:
            best = val
            best_witness = Witness(f, g, op, p)
            record = {"trial": i, "kind": kind, "depth": filt.depth, "dim": dim}
    return history, best, record, best_witness


def dyadic_expand_one_by_one(cfgs: SplitConfigs, m: int) -> Sequence[ExpansionCertificate]:
    """``bellman.dyadic_expand`` one configuration at a time, each built
    when it is read."""
    b = 2**m
    scaled = cfgs.weights * b
    counts = np.rint(scaled).astype(int)
    ok = ((np.abs(counts - scaled) <= 1e-6) & ((counts >= 1) | ~cfgs.has)).all(axis=1)
    ok &= counts.sum(axis=1) == b
    if not ok.all():
        bad = np.argmin(ok)
        raise ValueError(f"configuration {bad}: weights are not positive multiples of 2^-{m}")
    dim = cfgs.points.shape[-1] - 3

    def expand(r: int) -> ExpansionCertificate:
        rows = cfgs.points[r]
        x1 = rows[:, :dim]
        parts = x1[cfgs.has[r]]
        every = np.ones((1, len(parts)), dtype=bool)
        diam, pair = _diameters(parts[None], every, return_pairs=True)
        diam, (i, j) = float(diam[0]), pair[0]
        # Cells without a part have no copies.
        copy_owner = np.repeat(np.arange(len(rows)), counts[r])
        degenerate = diam <= 0.0
        if degenerate:
            order = np.arange(b)
        else:
            u = (parts[j] - parts[i]) / diam
            keys = (x1[copy_owner] - parts[i][None, :]) @ u
            order = np.argsort(keys, kind="stable")
        sorted_owner = copy_owner[order]
        full = rows[sorted_owner]
        # The two half means, the bits of ``levels[1]``.
        halves = full.reshape(2, b >> 1, -1).mean(axis=1)
        separation = float(np.linalg.norm(halves[0, :dim] - halves[1, :dim]))
        return ExpansionCertificate(
            m=m,
            copies=b,
            order=tuple(sorted_owner.tolist()),
            sorted_copies=full,
            separation=separation,
            diameter=diam,
            ratio=None if degenerate else separation / diam,
            degenerate=degenerate,
        )

    return _Lazy(expand, len(cfgs))


# ---------------------------------------------------------------------------
# The reference writers: one ``json.dumps`` per key and string, one
# ``format(x, ".17g")`` per float.


def ref_format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    if x == 0.0:
        return "0"  # fold -0.0 as well
    return format(float(x), ".17g")


def ref_canon(obj) -> str:
    t = type(obj)
    if obj is None:
        return "null"
    if t is bool:
        return "true" if obj else "false"
    if t is int:
        return str(obj)
    if t is float:
        return ref_format_float(obj)
    if t is str:
        return json.dumps(obj)
    if t is dict:
        inner = ",".join(f"{json.dumps(str(k))}:{ref_canon(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if t is list or t is tuple:
        return "[" + ",".join(ref_canon(v) for v in obj) + "]"
    if t is Verbatim:
        return obj.text
    raise ReportError(f"cannot serialize object of type {t.__name__}")


def ref_to_canonical_json(payload) -> str:
    if payload is None or (isinstance(payload, (list, tuple, dict)) and not payload):
        raise ReportError("refusing to write an empty report")
    return ref_canon(payload) + "\n"


def ref_cell(v) -> str:
    t = type(v)
    if v is None:
        return ""
    if t is bool:
        return "true" if v else "false"
    if t is float:
        return ref_format_float(v)
    if t is int:
        return str(v)
    if t is not str:
        raise ReportError(f"cannot serialize object of type {t.__name__}")
    if any(c in v for c in ",\"\n"):
        return '"' + v.replace('"', '""') + '"'
    return v


def ref_rows_to_csv(rows) -> str:
    if not rows:
        raise ReportError("refusing to write an empty report")
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(ref_cell(row.get(c)) for c in cols))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Loops the vectorized routes replaced: levels, norms, the active-split
# function and the expansion tree, one item at a time.


def levels_by_definition(filt: Filtration) -> tuple[tuple[int, ...], ...]:
    """A_n scanned out of all atoms once per level: the atoms created at
    level n plus the earlier atoms that never split, by left endpoint."""
    every = list(atoms(filt))
    return tuple(
        tuple(
            a.id
            for a in sorted(
                (a for a in every if a.level == n or (a.is_leaf and a.level < n)),
                key=lambda a: a.a,
            )
        )
        for n in range(filt.depth + 1)
    )


def split_multiplier_max(op: MartingaleTransform) -> float:
    """max |a_n(J)| over the atoms J of A_{n-1} that split at level n-1:
    the operator norm that contraction by construction predicts."""
    filt = op.filtration
    offsets = filt.layout.level_offsets
    best = 0.0
    for n in range(1, filt.depth + 1):
        rows = op.multipliers[offsets[n - 1] : offsets[n]]
        for row, atom_id in zip(rows, levels_of(filt)[n - 1]):
            here = atom(filt, atom_id)
            if here.children and here.level == n - 1:
                best = max(best, float(np.linalg.norm(row)))
    return best


def active_split_function_by_events(filt: Filtration, dim: int, rng) -> tuple[MartFunction, np.ndarray]:
    """``corpus.active_split_function`` as the one-event-at-a-time loop the
    per-level kernel replaced.  Each kept event's full-length random
    function carries, on the event's atom, the numbers the span-sized draw
    gives it."""
    events = split_schedule(filt)
    keep = [i for i in range(len(events)) if rng.random() < 0.5]
    if not keep:
        keep = [int(rng.integers(len(events)))]
    fed = SpanFed(rng, filt, keep)
    f = MartFunction(filt, np.zeros((filt.n_leaves, dim)))
    for i in keep:
        piece = delta_split(random_function(filt, dim, fed), events[i])
        f = MartFunction(filt, f.values + piece.values)
    return f, np.array(sorted(events[i] for i in keep), dtype=np.intp)


def expansion_by_node(points: np.ndarray, order) -> tuple:
    """Reference tree of one configuration's points (k, dim + 3): the
    uniform mean of each copy block taken node by node, halving [lo, hi)
    recursively, as (x1, x2, x3, x4, weight, kids)."""
    full = np.array([points[k].tolist() for k in order])
    dim, b = points.shape[1] - 3, len(order)

    def build(lo, hi):
        mean = full[lo:hi].mean(axis=0)
        mid = (lo + hi) // 2
        kids = () if hi - lo == 1 else (build(lo, mid), build(mid, hi))
        x2, x3, x4 = (float(v) for v in mean[dim:])
        return (mean[:dim].tolist(), x2, x3, x4, (hi - lo) / b, kids)

    return build(0, b)


def levels_of_tree(node: tuple) -> tuple[np.ndarray, ...]:
    """A tree of ``expansion_by_node`` as ``ExpansionCertificate.levels``:
    per depth k, the (x1, x2, x3, x4) rows of its nodes left to right, each
    node of weight 2^-k."""
    levels, nodes = [], [node]
    while nodes:
        assert all(n[4] == 0.5 ** len(levels) for n in nodes)
        levels.append(np.array([[*x1, x2, x3, x4] for x1, x2, x3, x4, _, _ in nodes]))
        nodes = [kid for n in nodes for kid in n[5]]
    return tuple(levels)


def payload_by_node(cert: ExpansionCertificate, node: tuple) -> dict:
    """``expansion_to_dict``'s payload with the tree taken from a reference
    tuple of ``expansion_by_node``."""

    def tree(n):
        x1, x2, x3, x4, weight, kids = n
        point = {"x1": x1, "x2": x2, "x3": x3, "x4": x4}
        return {"point": point, "weight": weight, "children": [tree(c) for c in kids]}

    fields = ("m", "copies", "order", "separation", "diameter", "ratio", "degenerate")
    return {**{name: getattr(cert, name) for name in fields}, "tree": tree(node)}


def same_tower(filt: Filtration, ref: AtomTower) -> None:
    """Columns, atom views, levels, every layout field (dtype, bits and
    read-only flag) and the canonical payload bytes of a tower equal the
    oracle tower's."""
    for name, column in columns_of(ref).items():
        assert getattr(filt, name).tolist() == column, name
    view = lambda tower: [(x.id, x.a, x.b, x.level, x.parent, x.children) for x in atoms(tower)]
    assert view(filt) == view(ref)
    assert levels_of(filt) == ref.levels
    same_bits(filt.layout, ref.layout, "layout")
    assert not any(getattr(filt.layout, f.name).flags.writeable for f in dataclasses.fields(LeafLayout))
    assert to_canonical_json(filtration_to_dict(filt)) == to_canonical_json(atoms_to_dict(ref))


# ---------------------------------------------------------------------------
# The equivalence registry: each production route and the oracle it must
# equal, declared once.  ``tests/test_equivalence.py`` runs every entry on
# the kernel towers, the small corpus cells, random-regular towers and the
# entry's own cases, at its default pass sizes and with each pass size it
# names patched to each of its smaller values.


def same_bits(new, ref, at="result") -> None:
    """Exact equality: arrays of one dtype and shape holding the same bytes,
    so NaNs and signed zeros count; floats by their bits; dicts key by key
    in order; sequences item by item; dataclasses field by field.  ``at``
    names the place compared, as (outer place, index) pairs."""
    if new is ref:
        return
    if isinstance(new, float) and isinstance(ref, float):
        assert new.hex() == ref.hex(), (at, new, ref)
    elif isinstance(new, np.ndarray) or isinstance(ref, np.ndarray):
        new, ref = np.asarray(new), np.asarray(ref)
        assert (new.dtype, new.shape) == (ref.dtype, ref.shape), (at, new.dtype, ref.dtype, new.shape, ref.shape)
        assert np.ascontiguousarray(new).tobytes() == np.ascontiguousarray(ref).tobytes(), at
    elif isinstance(new, dict):
        assert isinstance(ref, dict) and list(new) == list(ref), (at, list(new), ref)
        for key in new:
            same_bits(new[key], ref[key], (at, key))
    elif isinstance(new, (list, tuple)) or (isinstance(new, Sequence) and not isinstance(new, str)):
        assert isinstance(ref, Sequence) and len(new) == len(ref), (at, len(new))
        new, ref = list(new), list(ref)  # each item of a lazy sequence built once
        if all(type(x) in (str, int) for x in chain(new, ref)):
            assert new == ref, at
            return
        for i, (a, b) in enumerate(zip(new, ref)):
            same_bits(a, b, (at, i))
    elif dataclasses.is_dataclass(new):
        assert type(new) is type(ref), at
        for fld in dataclasses.fields(new):
            same_bits(getattr(new, fld.name), getattr(ref, fld.name), (at, fld.name))
    else:
        assert new == ref, (at, new, ref)


def within(atol: float = 0.0, rtol: float = 0.0) -> Callable:
    """Comparison of arrays or floats of one shape by ``np.allclose`` at
    these tolerances."""

    def compare(new, ref) -> None:
        new, ref = np.asarray(new, dtype=float), np.asarray(ref, dtype=float)
        assert new.shape == ref.shape and np.allclose(new, ref, rtol=rtol, atol=atol), (new, ref)

    return compare


def itemwise(compare: Callable) -> Callable:
    """``compare`` applied to the items of two sequences, pair by pair."""

    def each(new, ref) -> None:
        for a, b in zip(new, ref, strict=True):
            compare(a, b)

    return each


def rows_within(new: tuple[list[dict], dict], ref: tuple[list[dict], dict]) -> None:
    """Check rows equal but in ``max_err``, which may differ from the
    oracle's by the roundoff gap of its check; each side is (rows, gaps)."""
    (new_rows, gaps), (ref_rows, _) = new, ref
    fixed = lambda rows: [{k: v for k, v in r.items() if k != "max_err"} for r in rows]
    assert fixed(new_rows) == fixed(ref_rows)
    for a, b in zip(new_rows, ref_rows):
        assert abs(a["max_err"] - b["max_err"]) <= gaps[a["check"]], (a, b)


def relative_within(*tols: tuple[float, float]) -> Callable:
    """Comparison of sequences of arrays: item i within relative gap
    ``tols[i][0]`` of the oracle's, relative to max(|oracle|, ``tols[i][1]``)."""

    def compare(new, ref) -> None:
        for (gap, floor), a, b in zip(tols, new, ref, strict=True):
            a, b = np.asarray(a), np.asarray(b)
            rel = np.abs(a - b) / np.maximum(np.abs(b), floor)
            assert float(np.max(rel, initial=0.0)) <= gap, (a, b)

    return compare


def no_larger(gap: float) -> Callable:
    """Comparison of float tuples: each at most the oracle's plus ``gap``."""

    def compare(new, ref) -> None:
        assert all(a <= b + gap for a, b in zip(new, ref, strict=True)), (new, ref)

    return compare


@dataclass(frozen=True)
class Equivalence:
    """A production route and the oracle it must equal.

    ``build(tower, dim, seed)`` gives the arguments of both calls; it is
    called once for each side, so each gets generators of its own, and
    every generator among the arguments must end at one stream position.
    ``compare(new, ref)`` is exact bits unless the entry names a tolerance.
    ``sizes`` maps each pass-size constant the route reads, as
    ``module._NAME`` of ``mblab``, to the smaller values it also runs at,
    smallest first.  ``cases`` names argument builders of the entry's own,
    beyond the towers every entry runs on.
    """

    name: str
    production: Callable
    oracle: Callable
    build: Callable[[Filtration, int, int], tuple]
    sizes: dict = field(default_factory=dict)
    compare: Callable = same_bits
    cases: dict = field(default_factory=dict)

    def holds(self, make_args: Callable[[], tuple]) -> None:
        """Production against oracle on the arguments ``make_args()`` gives."""
        new_args, ref_args = make_args(), make_args()
        self.compare(self.production(*new_args), self.oracle(*ref_args))
        for a, b in zip(new_args, ref_args):
            if isinstance(a, np.random.Generator):
                assert a.bit_generator.state == b.bit_generator.state, f"{self.name}: stream position"

    def on(self, tower: Filtration, dim: int, seed: int) -> None:
        self.holds(lambda: self.build(tower, dim, seed))

    def on_every_size(self, tower: Filtration, dim: int, seed: int) -> None:
        """``on`` at the default pass sizes and at each smaller one."""
        self.on(tower, dim, seed)
        for qualified, values in self.sizes.items():
            for value in values:
                with pass_size(qualified, value):
                    self.on(tower, dim, seed)


@contextmanager
def pass_size(qualified: str, value):
    """The ``mblab`` constant ``module._NAME`` set to ``value`` inside."""
    module, name = qualified.split(".")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(importlib.import_module(f"mblab.{module}"), name, value)
        yield


def witness_of(filt: Filtration, dim: int, seed: int, p: float = 2.0) -> Witness:
    """The random witness of ``default_rng(seed)`` on a tower: f and g
    drawn first, then the transform."""
    rng = np.random.default_rng(seed)
    f, g = random_witness(filt, dim, rng)
    return Witness(f, g, random_transform(filt, dim, rng), p)


def _values(filt: Filtration, dim: int, seed: int) -> tuple[Filtration, np.ndarray]:
    """Leaf values of many scales with lead axes (), (3,) or (2, 2) by seed."""
    rng = np.random.default_rng(seed)
    shape = (*((), (3,), (2, 2))[seed % 3], filt.n_leaves, dim)
    return filt, rng.normal(size=shape) * np.exp(rng.normal(size=shape))


def _diagonal(filt: Filtration, dim: int, seed: int) -> tuple[Filtration, np.ndarray, int]:
    """A (depth - first, L, dim) stack whose row k sits at level first + k."""
    first = seed % filt.depth
    return filt, np.random.default_rng(seed).normal(size=(filt.depth - first, filt.n_leaves, dim)), first


def _transform_input(filt: Filtration, dim: int, seed: int):
    rng = np.random.default_rng(seed)
    op = random_transform(filt, dim, rng)
    f = MartFunction(filt, rng.normal(size=(filt.n_leaves, dim)))
    return op, f, MartFunction(filt, rng.normal(size=(filt.n_leaves, 1)))


def _some_events(filt: Filtration, seed: int) -> np.ndarray:
    """Every event for an even seed, else a random nonempty subset in order."""
    n_events = len(filt.layout.event_atoms)
    if seed % 2 == 0:
        return np.arange(n_events)
    some = np.flatnonzero(np.random.default_rng(seed).random(n_events) < 0.5)
    return some if some.size else np.arange(1)


def _cut_cases(w: Witness, seed: int, centered: bool = True) -> list[tuple[np.ndarray, np.ndarray]]:
    """Cut values g and 1 under zero and random shifts, and g under the
    centered shifts <g>_J too where ``centered``."""
    c = w.restriction_sides[0]
    shifts = np.random.default_rng(seed).normal(size=len(c))
    g0, ones = w.g.values[:, 0], np.ones(len(w.g.values))
    cases = [(g0, 0 * c), (ones, 0 * c), (g0, shifts), (ones, shifts)]
    return cases + [(g0, c)] if centered else cases


def _cut_spans(filt: Filtration) -> np.ndarray:
    """The leaf span of every non-root split event, in schedule order."""
    return event_spans(filt.layout)[filt.layout.event_levels > 0]


def _restriction_passes(w: Witness, cases) -> list:
    """Every cut pass of a fresh witness of w's triple: the cuts of
    ``cases``, the restriction sides and both identity gaps."""
    fresh = Witness(w.f, w.g, w.op)
    cuts = [transforms._cut_adjoints(w.op, fresh.event_chains, v, s) for v, s in cases]
    return [*np.concatenate(cuts), *fresh.restriction_sides, *restriction_identity_gaps(fresh)]


def at_default_sizes(fn: Callable) -> Callable:
    """``fn`` run with every registry pass size at its module's value."""

    def run(*args):
        with contextlib.ExitStack() as stack:
            for qualified, value in DEFAULT_SIZES.items():
                stack.enter_context(pass_size(qualified, value))
            return fn(*args)

    return run


def _gaps(w: Witness) -> dict:
    """The roundoff gaps of the per-event localization and restriction
    rows: localization_support reads mean-zero pieces, restriction_bound
    local - global where the two sides meet, and localization_adjoint
    reads T* g through the stacked closed form, the oracle through the
    level-by-level one, whose roundoff grows with the size of T* g."""
    scale = max(1.0, float(np.max(np.abs(w.op.adjoint_closed_form(w.g).values))))
    return {"localization_support": 1e-15, "localization_adjoint": 1e-15 * scale, "restriction_bound": 1e-12}


def _stacked_kernel(filt: Filtration, values: np.ndarray) -> tuple:
    """The stacked means, and from them every level's expectation and the
    step of every level below the root, at leaf resolution."""
    means, maps = _stacked_means(filt, values), filt.layout.stacked_maps
    steps = _level_steps(filt, means)
    return (
        means,
        [np.take(means, maps[n], axis=-2) for n in range(filt.depth + 1)],
        [np.take(steps, maps[n], axis=-2) for n in range(1, filt.depth + 1)],
    )


def _diagonal_kernel(filt: Filtration, stack: np.ndarray, first: int) -> tuple:
    """The diagonal sums of a stack and of its first column, each twice (for
    the per-level and the padded oracle), and row k's diagonal step at leaf
    resolution."""
    sums = [martingale._diagonal_sums(filt, x, first) for x in (stack, stack[..., 0])]
    steps = _diagonal_steps(filt, stack, first)
    maps = filt.layout.stacked_maps
    return (*sums, *sums, [np.take(steps, maps[first + k + 1], axis=0) for k in range(len(stack))])


def _trial_args(exponents: tuple[float, ...]) -> Callable:
    """Builder of (p, trials, seed, delta, d, depth) of a trial run at the
    tower's floor: p of ``exponents`` and random or depth-3 towers by seed."""
    return lambda filt, dim, seed: (
        exponents[seed % len(exponents)], 4, seed, filt.delta, dim, (None, 3)[seed // len(exponents) % 2]
    )


def _expansion_args(filt: Filtration, dim: int, seed: int) -> tuple[SplitConfigs, int]:
    m = 1 + seed % 6
    p = (2.0, 1.5, 1.25)[seed % 3]
    return sample_dyadic_split_configs(filt.delta, p, 6, seed, dim=dim, m=m), m


def ragged_points(dim: int, seed: int, rows: int = 300) -> tuple[np.ndarray, np.ndarray]:
    """Ragged rows of 2 to 10 children, with masked cells holding far-off
    points, repeated points, lattice points whose distances tie, and the
    unit square's tied diagonals in row 0; every child the same point in
    the last row."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(2, 11, size=rows)
    x1 = rng.normal(size=(rows, 10, dim)) * rng.exponential(size=(rows, 1, 1))
    third = rows // 3
    x1[third : 2 * third] = rng.integers(-1, 2, size=(third, 10, dim))  # ties on a lattice
    for r in range(2 * third, rows):  # repeats of earlier children
        picks = rng.integers(0, np.arange(10) + 1)
        x1[r] = x1[r, picks]
    x1[-1] = x1[-1, 0]
    square = np.zeros((4, dim))
    square[[1, 3], 0] = 1.0
    if dim > 1:
        square[[2, 3], 1] = 1.0
    x1[0, :4], counts[0] = square, 4
    has = np.arange(10) < counts[:, None]
    x1[~has] = 1e6 * rng.normal(size=(int((~has).sum()), dim))
    return x1, has


def candidates_at(delta: float) -> tuple[BellmanCandidate, ...]:
    """The quadratic candidate at the floor, first, a linear one and three
    times the quadratic."""
    quad = quadratic_candidate(delta)
    return quad, linear_candidate(1.5, 2.0, delta), scale_candidate(quad, 3.0)


def moment_points(dim: int, seed: int, n: int = 500) -> tuple[np.ndarray, ...]:
    """n moment points (x1, x2, x3, x4) of many scales."""
    rng = np.random.default_rng(seed)
    x1 = rng.normal(size=(n, dim)) * rng.exponential(size=(n, 1))
    x2, x3, x4 = rng.exponential(size=(3, n))
    return x1, x2, x3, x4


def float_column(seed: int, n: int = 3 * 512 + 5) -> np.ndarray:
    """Floats of every magnitude the kernel writes, zeros and special
    values among them."""
    rng = np.random.default_rng(seed)
    col = 10.0 ** rng.uniform(-14, 18, n) * rng.choice([-1.0, 1.0], n)
    col[::13] = 0.0
    col[6::97] = np.resize([np.nan, -np.inf, 5e-324, 3e17, -0.0], len(col[6::97]))
    return col


def _certificate(cand: BellmanCandidate, w: Witness, tol: float) -> tuple[str, list, list]:
    cert = certify(cand, w.f, w.g, w.op, tol=tol)
    flagged = cert.witness.filtration.layout.event_atoms[flagged_events(cert)].tolist()
    return to_canonical_json(certificate_to_dict(cert)), list(cert.failures), flagged


def _certificate_by_records(cand: BellmanCandidate, w: Witness, tol: float) -> tuple[str, list, list]:
    payload, flagged = certificate_by_records(cand, w.f, w.g, w.op, tol)
    return ref_to_canonical_json(payload), payload["failures"], flagged


def _certificate_args(filt: Filtration, dim: int, seed: int) -> tuple:
    """A random witness and the quadratic candidate, the linear one (which
    fails most splits) or a quarter of the quadratic (which fails some),
    at the certifier's tolerance or at -0.5, which flags near-tight
    pairings, slacks and leaves."""
    quad = quadratic_candidate(filt.delta)
    cand = (quad, linear_candidate(1.0, 2.0, filt.delta), scale_candidate(quad, 0.25))[seed % 3]
    return cand, witness_of(filt, dim, seed), (1e-9, -0.5)[seed // 3 % 2]


def _ratio_args(k: int, delta: float, seed: int = 7, draws: int = 40):
    return lambda: (np.random.default_rng(seed), k, delta, draws)


def _ratio_draws(rng, k, delta, draws):
    sample = _ratio_sampler(k, delta)
    return [sample(rng) for _ in range(draws)]


def _ratio_draws_one_by_one(rng, k, delta, draws):
    """The draws of ``_ratio_draws`` at the budget the sampler reads, which
    a test may patch."""
    budget = filtration._RATIO_BUDGET
    return [list(sample_ratios_one_by_one(rng, k, delta, budget)) for _ in range(draws)]


def quadratic_by_dot(x1, x2, x3, x4) -> list[float]:
    """The quadratic candidate at floor 1/4, one point at a time, |x1|^2 by
    ``np.dot``."""
    alpha = 1.0 / math.sqrt(0.5)
    return [
        alpha * (a + b) - alpha * (float(np.dot(v, v)) + c)
        for v, c, a, b in zip(x1, x2.tolist(), x3.tolist(), x4.tolist())
    ]


def _lambda_args(filt: Filtration, dim: int, seed: int) -> tuple[float, float, float]:
    """p in [1.05, 2) and x3, x4 of 10^-3 to 10^3."""
    rng = np.random.default_rng(seed)
    return float(rng.uniform(1.05, 2.0)), float(10.0 ** rng.uniform(-3, 3)), float(10.0 ** rng.uniform(-3, 3))


def _lambda_close(new: float, ref: float) -> None:
    assert abs(new - ref) <= 1e-8 * max(1.0, abs(new)), (new, ref)


def _diameter_pairs(x1: np.ndarray, has: np.ndarray) -> tuple[list, list]:
    """``bellman._diameters`` of the rows with their pairs, as lists."""
    diam, pair = _diameters(x1, has, True)
    return diam.tolist(), [tuple(p) for p in pair.tolist()]


def _rows_of(filt: Filtration, dim: int, seed: int) -> tuple[list[dict]]:
    return (_report_of(filt, dim, seed)[0]["rows"],)


def _report_of(filt: Filtration, dim: int, seed: int) -> tuple[dict]:
    """The payload of every suite's rows on a random witness."""
    rows, ok = checks.run_suites(witness_of(filt, dim, seed), rng=np.random.default_rng(seed))
    return ({"ok": ok, "rows": rows},)


def search_result(run) -> tuple:
    """A search's history, best value, record, witness tower columns, f, g
    and multipliers: a best witness is a lone tower either way."""
    history, best, record, w = run
    columns = tuple(getattr(w.filtration, name) for name in ("a", "b", "child_starts", "children"))
    return history, best, record, w.p, columns, w.f.values, w.g.values, w.op.multipliers


def _normal(filt: Filtration, dim: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(filt.n_leaves, dim))


def _transform_args(filt: Filtration, dim: int, seed: int) -> tuple[MartingaleTransform]:
    return (random_transform(filt, dim, np.random.default_rng(seed)),)


def _table_args(filt: Filtration, dim: int, seed: int) -> tuple:
    """f, g, T* g and p of a random witness, at p = 2 or 1.5 by seed."""
    w = witness_of(filt, dim, seed, (2.0, 1.5)[seed % 2])
    return w.f, w.g, w.tstar_g, w.p


def _with_gaps(*suites: Callable) -> Callable:
    """The rows of the suites on one witness, with the roundoff gaps of
    their checks (``_gaps``)."""
    return lambda w, tol, rng: ([row for suite in suites for row in suite(w, tol, rng)], _gaps(w))


def _witness_args(filt: Filtration, dim: int, seed: int) -> tuple[Witness]:
    return (witness_of(filt, dim, seed),)


def _suite_args(filt: Filtration, dim: int, seed: int) -> tuple:
    return witness_of(filt, dim, seed), Tolerances(), np.random.default_rng(seed)


def _cut_args(filt: Filtration, dim: int, seed: int, centered: bool = True) -> tuple:
    w = witness_of(filt, dim, seed)
    return w, _cut_cases(w, seed, centered)


_EQUIVALENCES = [
    # towers, layouts and draws
    Equivalence("levels", levels_of, levels_by_definition, lambda filt, dim, seed: (filt,)),
    Equivalence(
        "dyadic_tower", filtration.build_dyadic, build_dyadic, lambda filt, dim, seed: (filt.depth,),
        compare=same_tower,
    ),
    Equivalence(
        "random_tower", filtration.build_random_regular, build_random_regular,
        # at most depth 6, so that splitting every atom stays cheap in the oracle
        lambda filt, dim, seed: (
            min(6, filt.depth), filt.delta, max_children_for(filt.delta), (0.7, 1.0, 0.3)[seed % 3], seed
        ),
        compare=same_tower,
    ),
    Equivalence("layout", lambda filt: filt.layout, build_layout_one_root, lambda filt, dim, seed: (filt,)),
    Equivalence(
        "batch_layout", layouts_in_batch, lambda towers: [build_layout_one_root(t) for t in towers],
        lambda filt, dim, seed: (batch_members(filt, seed),),
    ),
    Equivalence(
        "batch_kernels", kernels_in_batch, kernels_per_tower,
        lambda filt, dim, seed: batch_kernel_args(batch_members(filt, seed), dim, seed),
    ),
    Equivalence(
        "ratios", _ratio_draws, _ratio_draws_one_by_one,
        lambda filt, dim, seed: _ratio_args(min(3, max_parts(filt.delta)), filt.delta, seed, draws=10)(),
        sizes={"filtration._RATIO_BLOCK": (1, 3)},
        cases={
            "rows": _ratio_args(2, 0.1),
            "first_block": _ratio_args(3, 0.25),
            "past_first_block": _ratio_args(3, 0.3, draws=10),
            "affine": _ratio_args(3, 0.33),
            "equal": _ratio_args(4, 0.25),
        },
    ),
    Equivalence(
        "event_draws", _event_draws, event_draws_by_spans,
        lambda filt, dim, seed: (filt, _some_events(filt, seed), dim, np.random.default_rng(seed)),
    ),
    Equivalence(
        "event_draws_by_blocks", _event_draws,
        lambda filt, events, dim, rng: event_draws_by_blocks(filt, events, dim, SpanFed(rng, filt, events)),
        lambda filt, dim, seed: (filt, _some_events(filt, seed), dim, np.random.default_rng(seed)),
    ),
    # the conditional calculus: every level's means, expectations and steps
    # at lead axes (), (3,) or (2, 2); row k of a diagonal stack at level
    # first + k, its sums also over padded rows; the level differences
    Equivalence(
        "stacked_kernel",
        _stacked_kernel,
        lambda filt, v: (
            np.concatenate([_level_means(filt, v, n) for n in range(filt.depth + 1)], axis=-2),
            [_level_expectation(filt, v, n) for n in range(filt.depth + 1)],
            list(_level_differences(filt, v)),
        ),
        _values,
    ),
    Equivalence(
        "level_differences", martingale._level_differences,
        lambda filt, v: np.stack(list(_level_differences(filt, v))),
        lambda filt, dim, seed: _values(filt, dim, 3 * seed),
    ),
    Equivalence(
        "diagonal",
        _diagonal_kernel,
        lambda filt, stack, first: (
            *(diagonal_sums_by_levels(filt, x, first) for x in (stack, stack[..., 0])),
            *(diagonal_sums_padded(filt, x, first) for x in (stack, stack[..., 0])),
            [_level_difference(filt, row, first + k) for k, row in enumerate(stack)],
        ),
        _diagonal,
    ),
    Equivalence(
        "cond_exp_dense",
        lambda filt, f: [cond_exp(f, level_partition(filt, n)).values for n in range(filt.depth + 1)],
        lambda filt, f: [P @ f.values for P in martingale._averaging_matrices(filt)],
        lambda filt, dim, seed: (filt, MartFunction(filt, _normal(filt, dim, seed))),
        compare=within(atol=1e-13),
    ),
    # transforms
    Equivalence(
        "level_routes",
        lambda op, f, g: (op.apply(f).values[:, 0], op.adjoint_closed_form(g).values),
        lambda op, f, g: (transform_by_levels(op, f.values), adjoint_by_levels(op, g.values)),
        _transform_input,
    ),
    Equivalence(
        "dense_routes",
        lambda op, f, g: (op.apply(f).values, op.adjoint_closed_form(g).values),
        lambda op, f, g: (op.matrix_apply(f).values, op.adjoint_apply(g).values),
        _transform_input,
        compare=itemwise(within(atol=1e-12, rtol=1e-5)),
    ),
    Equivalence(
        "split_norm", split_multiplier_norm, split_multiplier_max,
        _transform_args, compare=within(atol=1e-15),
    ),
    Equivalence(
        "svd_norm", split_multiplier_norm, operator_norm,
        _transform_args, compare=within(atol=1e-12),
    ),
    Equivalence(
        "random_transform",
        lambda filt, dim, rng: random_transform(filt, dim, rng).multipliers,
        lambda filt, dim, rng: random_transform_by_levels(filt, dim, rng).multipliers,
        lambda filt, dim, seed: (filt, dim, np.random.default_rng(seed)),
    ),
    Equivalence(
        "active_split", active_split_function, active_split_function_by_events,
        lambda filt, dim, seed: (filt, dim, np.random.default_rng(seed)),
    ),
    # the moment table, its steps column by column, and the check suites
    Equivalence(
        "moment_table",
        lambda f, g, tstar_g, p: (lambda table: (table, table.steps))(moment_table(f, g, tstar_g, p)),
        lambda f, g, tstar_g, p: (
            moment_table_by_levels(f, g, tstar_g, p),
            np.hstack([_atom_steps(f.filtration, h.values) for h in (f, tstar_g, g)]),
        ),
        _table_args,
    ),
    Equivalence(
        "table_columns",
        lambda w: (
            [w.table.osc2[level_partition(w.filtration, n)] for n in range(w.filtration.depth + 1)],
            w.table.tstar_mean,
        ),
        lambda w: (
            [level_osc2(w.filtration, w.tstar_g.values, n) for n in range(w.filtration.depth + 1)],
            np.array([average(w.tstar_g, a.id) for a in atoms(w.filtration)]),
        ),
        lambda filt, dim, seed: (witness_of(filt, dim, seed, (2.0, 1.5)[seed % 2]),),
    ),
    Equivalence(
        "osc_series", checks.check_osc_series, check_osc_series_by_levels,
        lambda filt, dim, seed: (witness_of(filt, dim, seed), Tolerances(), None),
    ),
    Equivalence("support_isin", checks.check_support, check_support_by_isin, _suite_args),
    Equivalence("support_loops", checks.check_support, check_support_by_loops, _suite_args),
    Equivalence("localization_runs", checks.check_localization, check_localization_by_runs, _suite_args),
    Equivalence(
        # every max_err here is roundoff of an exact zero
        "suites_by_events",
        _with_gaps(checks.check_localization, checks.check_restriction),
        _with_gaps(check_localization_by_events, check_restriction_by_events),
        _suite_args,
        compare=rows_within,
    ),
    Equivalence(
        # the local side is osc2 of T* g over J: tiny on some deep atoms,
        # where the two adjoint routes differ by roundoff of the O(1) values
        "restriction_sides",
        lambda w: w.restriction_sides[1:],
        lambda w: restriction_sides_by_events(w.g, w.op)[3:],
        _witness_args,
        compare=relative_within((1e-12, 1.0), (1e-12, 0.0)),
    ),
    Equivalence(
        "cuts_by_events",
        lambda w, cases: [x for v, s in cases for x in transforms._cut_adjoints(w.op, w.event_chains, v, s)],
        lambda w, cases: [
            x for v, s in cases for x in cut_adjoints_by_events(w.op, v, _cut_spans(w.filtration), s)
        ],
        partial(_cut_args, centered=False),
        compare=relative_within(*[(1e-12, 0.0)] * 8),
    ),
    Equivalence(
        # both gaps are relative roundoff on a correct transform; the
        # centered gap reaches a few 1e-12 in either route on atoms whose
        # local side is tiny
        "identity_gaps", restriction_identity_gaps, identity_gaps_by_events, _witness_args,
        compare=no_larger(1e-12),
    ),
    Equivalence(
        "cuts_by_runs",
        lambda w, cases: [transforms._cut_adjoints(w.op, w.event_chains, v, s) for v, s in cases],
        lambda w, cases: [_cut_adjoints(w.op, _event_runs(w.op), v, s) for v, s in cases],
        _cut_args, sizes={"transforms._CUT_STACK": (1,)},
    ),
    Equivalence(
        "restriction_blocks", _restriction_passes, at_default_sizes(_restriction_passes), _cut_args,
        sizes={"transforms._CUT_STACK": (1,)},
    ),
    # the expansion, its tree and payload, and the candidates
    Equivalence(
        "expansion", dyadic_expand, dyadic_expand_one_by_one, _expansion_args,
        sizes={"bellman._EXPAND_FLOATS": (1,)},
    ),
    # the tree and payload oracles take the copy order the expansion entry holds
    Equivalence(
        "expansion_tree",
        lambda cfgs, m: [cert.levels for cert in dyadic_expand(cfgs, m)],
        lambda cfgs, m: [
            levels_of_tree(expansion_by_node(points, cert.order))
            for points, cert in zip(cfgs.points, dyadic_expand(cfgs, m))
        ],
        _expansion_args,
        sizes={"bellman._EXPAND_FLOATS": (1,)},
    ),
    Equivalence(
        "expansion_payload",
        lambda cfgs, m: [to_canonical_json(expansion_to_dict(cert)) for cert in dyadic_expand(cfgs, m)],
        lambda cfgs, m: [
            ref_to_canonical_json(payload_by_node(cert, expansion_by_node(points, cert.order)))
            for points, cert in zip(cfgs.points, dyadic_expand(cfgs, m))
        ],
        _expansion_args,
    ),
    Equivalence(
        "diameters",
        _diameter_pairs,
        lambda x1, has: tuple(map(list, zip(*(diameter_pair(list(row[ok])) for row, ok in zip(x1, has))))),
        lambda filt, dim, seed: ragged_points(dim, seed, rows=60),
        sizes={"bellman._PAIR_BLOCK": (1, 7)},
    ),
    Equivalence(
        # |x1|^2 rounds like np.dot
        "candidates",
        lambda cands, x1, x2, x3, x4: [cand.fn(x1, x2, x3, x4).tolist() for cand in (*cands, cands[0])],
        lambda cands, x1, x2, x3, x4: [
            [float(cand.fn(*row)) for row in zip(x1, x2.tolist(), x3.tolist(), x4.tolist())] for cand in cands
        ] + [quadratic_by_dot(x1, x2, x3, x4)],
        lambda filt, dim, seed: (candidates_at(0.25), *moment_points(dim, seed, 50)),
    ),
    Equivalence(
        "optimal_lambda", optimal_lambda, optimal_lambda_numeric,
        _lambda_args,
        compare=_lambda_close,
    ),
    # trials
    Equivalence(
        "scan", estimator._scan_trials, scan_trials_by_trials, _trial_args((1.5, 2.0, 3.0)),
        sizes={"estimator._BATCH_LEAVES": (1,)},
    ),
    Equivalence(
        "search",
        lambda *args: search_result(estimator._search_trials(*args)),
        lambda *args: search_result(search_trials_by_trials(*args)),
        _trial_args((1.5, 2.0)),
        sizes={"estimator._BATCH_LEAVES": (1,)},
    ),
    # certificates and reports
    Equivalence(
        "certificate", _certificate, _certificate_by_records, _certificate_args,
        sizes={"certifier._BLOCK": (1,)},
    ),
    Equivalence("canonical_json", to_canonical_json, ref_to_canonical_json, _report_of),
    Equivalence("csv", rows_to_csv, ref_rows_to_csv, _rows_of),
    Equivalence(
        "format_floats", _format_floats,
        lambda col: [_format_float(x) for x in np.asarray(col, dtype=float).ravel().tolist()],
        lambda filt, dim, seed: (float_column(seed, 520 * dim).reshape(-1, dim),),
        sizes={"reporting._CHUNK": (64,)},
    ),
]

EQUIVALENCES = {entry.name: entry for entry in _EQUIVALENCES}

# Each registry pass size at its module's value.
DEFAULT_SIZES = {
    qualified: getattr(importlib.import_module(f"mblab.{qualified.split('.')[0]}"), qualified.split(".")[1])
    for entry in _EQUIVALENCES
    for qualified in entry.sizes
}
