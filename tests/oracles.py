"""Slow, obvious versions of production routes, for the tests to compare
against."""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from mblab.bellman import BellmanCandidate, MomentTable, Witness, conjugate_exponent
from mblab.filtration import Filtration
from mblab.martingale import MartFunction, _segment_means, _span_leaves, _weighted, inner
from mblab.transforms import MartingaleTransform


def scale_candidate(cand: BellmanCandidate, c: float, delta: float | None = None) -> BellmanCandidate:
    """c times a candidate as a candidate of its own, optionally retagging
    the claimed floor: the direct route to the slacks of C * B that
    ``estimate_rescale_constant`` reads off B's unscaled terms."""
    new_delta = cand.delta if delta is None else delta
    scaled_h = None
    if cand.h is not None:
        base_h = cand.h
        scaled_h = lambda x1, x2: c * base_h(x1, x2)
    base_fn = cand.fn
    return BellmanCandidate(
        fn=lambda x1, x2, x3, x4: c * base_fn(x1, x2, x3, x4),
        p=cand.p,
        delta=new_delta,
        label=f"{c:g}*{cand.label}",
        cp=None if cand.cp is None else c * cand.cp,
        h=scaled_h,
    )


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


def certificate_by_records(
    cand: BellmanCandidate,
    f: MartFunction,
    g: MartFunction,
    op: MartingaleTransform,
    tol: float = 1e-9,
) -> tuple[dict, list[int]]:
    """The certificate as a walk over the schedule, one record at a time.

    Every moment point is a ``BellmanPoint`` of the witness's table, the
    candidate is evaluated one point at a time, each child diameter comes
    from ``diameter_pair`` and every sum adds its terms left to right in a
    loop.  Returns the payload ``certificate_to_dict`` writes, with one
    shared dict per point, and the atoms of the flagged records in schedule
    order.  Raises nothing: the identity checks are ``certify``'s.
    """
    filt = f.filtration
    total = filt.total_measure
    objective = inner(g, op.apply(f)) / total
    table = Witness(f, g, op, cand.p).table
    points = [table.point(i) for i in range(len(filt.atoms))]
    dicts = [pt.to_dict() for pt in points]

    failures: list[str] = []
    records: list[dict] = []
    flagged: list[int] = []
    weighted_slack = 0.0
    weighted_gap = 0.0
    for atom_id, d, pairing in zip(
        filt.layout.event_atoms.tolist(), table.d.tolist(), table.pairing.tolist()
    ):
        atom = filt.atom(atom_id)
        kids = [points[c] for c in atom.children]
        weights = [filt.atom(c).measure / atom.measure for c in atom.children]
        diam = diameter_pair([k.x1 for k in kids])[0]

        bad = False
        chain_scale = max(1.0, abs(pairing), d * diam)
        if d * diam < pairing - tol * chain_scale:
            failures.append(
                f"pairing domination failed at atom {atom.id}: "
                f"|d|*diam={d * diam:.6g} < pairing={pairing:.6g}"
            )
            bad = True
        b_base = cand.evaluate(points[atom_id])
        kid_sum = 0.0
        for w, k in zip(weights, kids):
            kid_sum += w * cand.evaluate(k)
        slack = b_base - d * diam - kid_sum
        if slack < -tol * max(1.0, abs(b_base)):
            failures.append(f"negative split slack at atom {atom.id}: {slack:.6g}")
            bad = True
        if bad:
            flagged.append(atom.id)
        records.append(
            {
                "atom": atom.id,
                "level": atom.level,
                "measure": atom.measure,
                "weights": weights,
                "d": d,
                "diameter": diam,
                "pairing": pairing,
                "slack": slack,
                "base": dicts[atom_id],
                "children": [dicts[c] for c in atom.children],
            }
        )
        weighted_slack += atom.measure * slack
        weighted_gap += atom.measure * (d * diam - pairing)

    leaves = []
    leaf_weighted = 0.0
    for leaf_id in filt.leaves:
        val = cand.evaluate(points[leaf_id])
        leaves.append({"point": dicts[leaf_id], "value": val})
        leaf_weighted += filt.atom(leaf_id).measure * val
        if val < -tol * max(1.0, abs(val)):
            failures.append(f"negative candidate value on leaf atom {leaf_id}: {val:.6g}")

    bound = cand.evaluate(points[filt.root.id])
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


def _level_means(filt: Filtration, w: np.ndarray, n: int) -> np.ndarray:
    """Averages over the A_n atoms, in level order, of weighted values."""
    lay = filt.layout
    return _segment_means(w, lay.level_starts[n], lay.level_measures[n])


def _level_expectation(filt: Filtration, w: np.ndarray, n: int) -> np.ndarray:
    """E_n at leaf resolution, from weighted values; shape (..., L, d)."""
    return np.take(_level_means(filt, w, n), level_map(filt, n), axis=-2)


def _level_difference(filt: Filtration, values: np.ndarray, n: int) -> np.ndarray:
    """E_{n+1} v - E_n v at leaf resolution: the sum of the single-split
    differences of all events at level n, whose supports are disjoint."""
    w = _weighted(filt, values)
    return _level_expectation(filt, w, n + 1) - _level_expectation(filt, w, n)


def _level_differences(
    filt: Filtration, values: np.ndarray, start: int = 0
) -> Iterator[np.ndarray]:
    """E_{n+1} v - E_n v at leaf resolution for n = start..depth-1, in order."""
    w = _weighted(filt, values)
    prev = _level_expectation(filt, w, start)
    for n in range(start + 1, filt.depth + 1):
        cur = _level_expectation(filt, w, n)
        yield cur - prev
        prev = cur


def transform_by_levels(op: MartingaleTransform, values: np.ndarray) -> np.ndarray:
    """T of (..., L, dim) inputs, one level difference at a time."""
    out = np.zeros(values.shape[:-1])
    for n, diff in enumerate(_level_differences(op.filtration, values), start=1):
        out += np.einsum("ij,...ij->...i", op.multiplier_on_leaves(n), diff)
    return out


def adjoint_by_levels(op: MartingaleTransform, values: np.ndarray) -> np.ndarray:
    """Closed-form T* of (..., L, 1) inputs, one level difference at a time."""
    out = np.zeros((*values.shape[:-1], op.dim))
    for n, diff in enumerate(_level_differences(op.filtration, values), start=1):
        out += op.multiplier_on_leaves(n) * diff
    return out


def moment_table_by_levels(
    f: MartFunction, g: MartFunction, tstar_g: MartFunction, p: float
) -> MomentTable:
    """``moment_table`` as the level-by-level pass it replaced: per level,
    one reduceat of the weighted columns, the leaf expectations, osc2 of
    T* g, the split pairings of the level's events and their children's
    x2 gains."""
    if g.dim != 1 or tstar_g.dim != f.dim:
        raise ValueError("g must be scalar valued and T* g must have the dimension of f")
    filt = f.filtration
    lay = filt.layout
    dim, q, gv = f.dim, conjugate_exponent(p), g.values[:, 0]
    f_p = np.linalg.norm(f.values, axis=1) ** p
    w = _weighted(filt, np.column_stack((f.values, tstar_g.values, gv * gv, f_p, np.abs(gv) ** q)))
    rows = np.empty((len(filt.atoms), 2 * dim + 5))  # x1, g2, x2, x3, x4, <T* g>, osc2
    split = np.empty((len(lay.event_atoms), 3))  # d^2, pairing, x2 gain
    for n in range(filt.depth + 1):
        means = _level_means(filt, w, n)
        cond = np.take(means[:, : 2 * dim], level_map(filt, n), axis=0)
        centered = tstar_g.values - cond[:, dim:]
        sq = np.einsum("ij,ij->i", centered, centered)[:, None]
        osc2 = _level_means(filt, _weighted(filt, sq), n)[:, 0]
        x2 = means[:, -3] - osc2
        # A persisting atom gets the same floats at every level it is in.
        level_rows = np.column_stack(
            (means[:, :dim], means[:, -3], x2, means[:, -2:], means[:, dim : 2 * dim], osc2)
        )
        rows[np.asarray(filt.levels[n])] = level_rows
        if n:
            df, dg = np.hsplit(cond - prev_cond, 2)
            pair = np.column_stack((np.einsum("ij,ij->i", dg, dg), np.einsum("ij,ij->i", df, dg)))
            at = lay.event_levels == n - 1
            pick = level_map(filt, n - 1)[lay.event_spans[at, 0]]
            split[at, :2] = _level_means(filt, _weighted(filt, pair), n - 1)[pick]
            first_kids = level_map(filt, n)[lay.level_starts[n - 1]]
            kids_x2 = np.add.reduceat(lay.level_measures[n] * x2, first_kids)
            split[at, 2] = (kids_x2 / lay.level_measures[n - 1] - prev_x2)[pick]
        prev_cond, prev_x2 = cond, x2
    x1, g2, x2, x3, x4, tstar_mean, osc2 = np.hsplit(
        rows, [dim, dim + 1, dim + 2, dim + 3, dim + 4, 2 * dim + 4]
    )
    d = np.sqrt(np.maximum(split[:, 0], 0.0))
    return MomentTable(
        p, x1, g2[:, 0], x2[:, 0], x3[:, 0], x4[:, 0], tstar_mean, osc2[:, 0],
        d, split[:, 1], split[:, 2],
    )


# ---------------------------------------------------------------------------
# Level oscillation: osc2 of leaf values over every atom of one level,
# computed directly from the values; the moment table's osc2 must match it.


def level_osc2(filt: Filtration, values: np.ndarray, n: int) -> np.ndarray:
    """osc2 of (L, d) values over every A_n atom, in level order."""
    w = _weighted(filt, values)
    centered = values - _level_expectation(filt, w, n)
    sq = filt.layout.measures * np.einsum("ij,ij->i", centered, centered)
    return _level_means(filt, sq[:, None], n)[:, 0]


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
        row, leaf = _span_leaves(lay.event_spans[events[blk]])
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
        self._spans = filt.layout.event_spans
        self._events = iter(events)

    def normal(self, size: tuple[int, ...]) -> np.ndarray:
        *lead, n_leaves, dim = size
        spans = self._spans[[next(self._events) for _ in range(int(np.prod(lead)))]]
        row, leaf = _span_leaves(spans)
        out = np.full((len(spans), n_leaves, dim), np.nan)
        out[row, leaf] = self._rng.normal(size=(len(leaf), dim))
        return out.reshape(size)

    def __getattr__(self, name):
        return getattr(self._rng, name)
