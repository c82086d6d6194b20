"""Martingale transforms: predictable-multiplier contractions of L^2(I, R^d).

A transform on a depth-N filtration is the scalar-valued operator

    T f = sum_{n=1..N} a_n . (E_n f - E_{n-1} f),

where each multiplier a_n is an R^d-valued function constant on the atoms of
the level n-1 partition (predictable) with |a_n| <= 1 pointwise, and the dot
is the R^d inner product applied leafwise.  Such operators are L^2
contractions, and they localize: a function living in the range of one
single-split difference at atom J is mapped to a function supported in J.

The multipliers live on the layout's stacked rows: one array of shape
(``level_offsets[N]``, d) whose row r is a_{n+1} of the A_n atom at
stacked row r, so the rows of A_0..A_{N-1} in order give a_1..a_N.
``make_transform`` checks the row count, finiteness and the unit ball in
one pass over that array.

Contraction holds by construction.  The level differences are orthogonal,
and on an atom J that splits at level n-1 the multiplier a_n(J) maps the
R^d difference to a scalar with norm |a_n(J)|, so the operator norm is the
largest |a_n(J)| over the split atoms; ``make_transform`` rejects every
multiplier that is not finite or lies outside the unit ball, and
``split_multiplier_norm`` reads that maximum off the multipliers.

Every production route is matrix-free.  ``apply`` evaluates the multiplier
formula above, and ``adjoint_closed_form`` the closed form
T* g = sum_n a_n * (D_n g), with D_n the scalar level-n difference.  Both
read the atom steps of the martingale kernel's stacked pass: on each atom
row of level n, a_n of its parent row (``step_multipliers``) times the
row's step, the levels then summed on the leaves in order (``_leaf_sum``).
O(L * depth) work per function.  The predictable hull (``_steps_hull``, a
mask over the multiplier rows) reads the same steps as T h.

The split events below the root are rows of the level stack
(``EventChains``): the events of one level have disjoint atoms, so their
leaf values of level n share row n - 1 of one stack, and a sum over an
event's atom is its segment of that row's diagonal reduceat.

The dense route is a test oracle, kept deliberately independent of the
multiplier formula: a matrix with rows indexed by leaves and columns indexed
by (leaf, coordinate) pairs in row-major order (column = leaf * dim +
coord), assembled from block averaging matrices.  It takes O(L^2 d) memory,
and a transform builds it on its first ``matrix_apply`` or
``adjoint_apply`` (the weight-conjugated transpose), never by construction.
No production caller reaches it; the tests compare each production route
against it, and ``tests/oracles.py`` holds its full-SVD operator norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .filtration import Filtration
from .martingale import MartFunction, _atom_steps, _averaging_matrices, _diagonal_sums, _leaf_sum

__all__ = [
    "MartingaleTransform",
    "PredictabilityError",
    "make_transform",
    "split_multiplier_norm",
    "transform_to_dict",
]

class PredictabilityError(ValueError):
    """Multiplier data does not hold one row per atom of A_0..A_{N-1}, is not
    finite, or leaves the unit ball."""


@dataclass(frozen=True, eq=False)
class MartingaleTransform:
    """Immutable transform.  ``multipliers`` is one read-only array of shape
    (``layout.level_offsets[N]``, dim) on the stacked rows of A_0..A_{N-1}:
    row r holds a_{n+1} of the A_n atom at stacked row r."""

    filtration: Filtration
    multipliers: np.ndarray

    @property
    def dim(self) -> int:
        """The value dimension d, the multipliers' column count."""
        return self.multipliers.shape[1]

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense oracle mapping flattened (leaf, coord) inputs to leaf
        outputs, shape (L, L*dim); built on first use and kept.  Tests only."""
        return _materialize_matrix(self.filtration, self.multipliers)

    @cached_property
    def step_multipliers(self) -> np.ndarray:
        """The multiplier each stacked row's step gets, shape (A, dim): a_n
        of the row's parent for a row of level n >= 1."""
        return self.multipliers[self.filtration.layout.stacked_parents]

    def apply(self, f: MartFunction) -> MartFunction:
        """T f through the multiplier formula."""
        self._check_input(f, self.dim)
        return MartFunction(self.filtration, _transform_steps(self, _atom_steps(self.filtration, f.values)))

    def matrix_apply(self, f: MartFunction) -> MartFunction:
        """T f through the dense oracle; must agree with apply().  Tests only."""
        self._check_input(f, self.dim)
        flat = f.values.reshape(-1)
        return MartFunction(self.filtration, (self.matrix @ flat)[:, None])

    @cached_property
    def _weighted_transpose(self) -> np.ndarray:
        """M^T W_out, built on the first adjoint_apply and kept."""
        return self.matrix.T * self.filtration.layout.measures[None, :]

    def adjoint_apply(self, g: MartFunction) -> MartFunction:
        """T* g via the weight-conjugated transpose of the dense oracle; must
        agree with adjoint_closed_form().  Tests only."""
        self._check_input(g, 1)
        w_in = np.repeat(self.filtration.layout.measures, self.dim)
        # (W_in)^-1 M^T W_out acting on g.
        flat = self._weighted_transpose @ g.values[:, 0]
        flat /= w_in
        return MartFunction(self.filtration, flat.reshape(-1, self.dim))

    def adjoint_closed_form(self, g: MartFunction) -> MartFunction:
        """T* g = sum_n a_n * (E_n g - E_{n-1} g); the production adjoint."""
        self._check_input(g, 1)
        filt = self.filtration
        return MartFunction(filt, _leaf_sum(filt, self.step_multipliers * _atom_steps(filt, g.values)))

    def _check_input(self, f: MartFunction, dim: int) -> None:
        """T takes functions of the transform's dimension, T* scalar ones."""
        if f.filtration is not self.filtration:
            raise ValueError("function lives on a different filtration object")
        if f.dim != dim:
            raise ValueError(f"dimension mismatch: expected {dim}, function has {f.dim}")


class EventChains(NamedTuple):
    """The non-root split events of a transform's tower, in schedule order:
    ``levels`` and ``rows``, the stacked row of each event's atom J at its
    level.  The events of one level n have disjoint atoms, so a per-leaf
    value of every one of them fits on one leaf array, row n - 1 of a
    stack, and J's sum is the segment ``rows`` selects of that row's
    diagonal reduceat (``_diagonal_sums``), the floats of J's own segment.

    ``measures`` (e, depth) and ``mults`` (e, depth, d) describe each
    event's ancestor chain K_0 > K_1 > ... > K_n = J, with K_k the A_k atom
    holding J: |K_k| and a_{k+1}(K_k).  Chains are padded to the depth with
    J's measure and zero multipliers, so the last column holds |J| and a
    padded step sees J's mean twice and adds an exact zero.
    """

    levels: np.ndarray
    rows: np.ndarray
    measures: np.ndarray
    mults: np.ndarray


def _event_chains(op: MartingaleTransform) -> EventChains:
    filt = op.filtration
    lay = filt.layout
    below_root = lay.event_levels > 0
    levels, rows = lay.event_levels[below_root], lay.event_rows[below_root]
    # Row of K_k, k = 0..depth-1, in the stacked rows.
    chain = lay.stacked_maps[: filt.depth, lay.spans[lay.event_atoms[below_root], 0]].T
    beyond = np.arange(filt.depth) > levels[:, None]
    return EventChains(
        levels,
        rows,
        np.where(beyond, lay.stacked_measures[rows][:, None], lay.stacked_measures[chain]),
        np.where(beyond[..., None], 0.0, op.multipliers[chain]),
    )


def _ancestor_values(mults: np.ndarray, means: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Levels 1..n of T or T* applied to a function h supported in an A_n
    atom J, n >= 1, outside J's subtree, from its padded ancestor chain
    (``EventChains``).

    h has the same sum, J's, over every K_k, so ``means`` (e, depth, c)
    holds its averages over the chain.  Level k adds a_k(K_{k-1}) (mean_k -
    mean_{k-1}) on J, and on the ring K_j - K_{j+1} every level up to j does
    the same while level j+1 sees 0 - mean_j.  Returns the constant on J,
    (e, d), and on each ring, (e, depth-1, d), as coordinatewise products
    a * mean: T sums them over the coordinates, T* keeps them.  A ring of
    zero measure (K_j = K_{j+1}) holds no leaf.
    """
    heads = mults[:, :-1]
    steps = (heads * (means[:, 1:] - means[:, :-1])).cumsum(axis=1)
    before = np.concatenate((np.zeros_like(steps[:, :1]), steps[:, :-1]), axis=1)
    return steps[:, -1], before - heads * means[:, :-1]


# Floats of the (rows, A, 1) step stack one block of cut rows pushes through
# the levels, at most (or one row, where a row is larger): 2 MB, and d times
# that for its terms.
_CUT_STACK = 1 << 18


def _cut_adjoints(
    op: MartingaleTransform, chains: EventChains, values: np.ndarray, shifts: np.ndarray
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
    ``_CUT_STACK`` stacked floats (every corpus tower in one): the events
    of a row are a contiguous run of the schedule, and a row's floats do
    not depend on the other rows of its block.
    """
    filt = op.filtration
    if not len(chains.levels):
        return np.empty(0), np.empty(0)
    rows = filt.depth - 1
    per_block = max(1, _CUT_STACK // len(filt.layout.stacked_measures))
    out = []
    for first in range(0, rows, per_block):
        last = min(first + per_block, rows)
        e0, e1 = chains.levels.searchsorted([first + 1, last + 1]).tolist()
        if e1 > e0:
            block = EventChains(*(field[e0:e1] for field in chains))
            out.append(_cut_block(op, block, values, shifts[e0:e1], first, last))
    return tuple(np.concatenate(parts) for parts in zip(*out))


def _cut_block(
    op: MartingaleTransform,
    chains: EventChains,
    values: np.ndarray,
    shifts: np.ndarray,
    first: int,
    last: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``_cut_adjoints`` of the events of cut rows first..last-1 (levels
    first+1..last), whose chains ``chains`` holds.  An A_n atom that does
    not split is a leaf whose steps are exact zeros and that no event sums
    over, so the event-0 values its leaf takes reach no result."""
    filt = op.filtration
    lay = filt.layout
    top = lay.level_offsets[first + 1]
    rows = chains.rows - top
    owner = np.zeros(lay.level_offsets[last + 1] - top, dtype=np.intp)
    owner[rows] = np.arange(len(rows))
    # Each leaf's event in cut row n - 1 - first, from its A_n row.
    owner = owner[lay.stacked_maps[first + 1 : last + 1] - top]

    def event_sums(stack: np.ndarray) -> np.ndarray:
        return _diagonal_sums(filt, stack, first + 1)[rows]

    cuts = values - shifts[owner]
    means = event_sums(cuts)[:, None] / chains.measures
    inside, rings = _ancestor_values(chains.mults, means[..., None])
    # Each atom row's step times a_k of its parent, level k's T* on its leaves.
    terms = op.step_multipliers * _atom_steps(filt, cuts[..., None])
    del cuts
    x = inside[owner]
    # Level k reaches inside the atoms of levels n < k: rows 0..k-2.
    for k in range(first + 2, filt.depth + 1):
        x[: k - 1 - first] += terms[: k - 1 - first].take(lay.stacked_maps[k], axis=-2)
    del terms

    ring_measures = chains.measures[:, :-1] - chains.measures[:, 1:]
    mean = event_sums(x) + np.einsum("ej,ejd->ed", ring_measures, rings)
    mean /= filt.total_measure

    def square_sums(on_leaves: np.ndarray, on_rings: np.ndarray) -> np.ndarray:
        per_leaf = event_sums(np.einsum("kij,kij->ki", on_leaves, on_leaves))
        return per_leaf + np.einsum("ej,ejd,ejd->e", ring_measures, on_rings, on_rings)

    squares = square_sums(x, rings)
    x -= mean[owner]
    return square_sums(x, rings - mean[:, None, :]) / filt.total_measure, squares


def _transform_steps(op: MartingaleTransform, steps: np.ndarray) -> np.ndarray:
    """T from the atom steps (A, dim) of its input; shape (L, 1).  Each atom
    row of level n >= 1 dots its step with a_n of its parent, and the
    levels' products are summed on the leaves (``_leaf_sum``)."""
    return _leaf_sum(op.filtration, np.einsum("ij,ij->i", op.step_multipliers, steps)[:, None])


def make_transform(filtration: Filtration, rows: np.ndarray) -> MartingaleTransform:
    """Validate multiplier data and build the transform.

    ``rows`` has shape (``layout.level_offsets[N]``, dim), one row per
    stacked row of A_0..A_{N-1}: row r is a_{n+1} of the A_n atom at stacked
    row r, so the data is predictable by construction.  One pass checks the
    row count, then that every row is finite and in the closed unit ball,
    which makes the transform a contraction; the first row at fault names
    its atom and level.  The array is copied and made read-only.
    """
    lay = filtration.layout
    n_rows = int(lay.level_offsets[filtration.depth])
    mults = np.array(rows, dtype=float)
    if mults.ndim != 2 or len(mults) != n_rows:
        raise PredictabilityError(
            f"multipliers have shape {mults.shape}; expected {n_rows} rows of one "
            f"vector each, one per atom of A_0..A_{filtration.depth - 1}"
        )
    mags = np.linalg.norm(mults, axis=1)
    # A NaN magnitude fails the comparison, so it is refused with the rest.
    bad = (~(mags <= 1.0 + 1e-12)).nonzero()[0]
    if bad.size:
        r = bad[0]
        n = int(np.searchsorted(lay.level_offsets, r, side="right"))
        reason = "leaves the unit ball" if np.isfinite(mults[r]).all() else "is not finite"
        raise PredictabilityError(
            f"level {n} multiplier of A_{n - 1} atom {lay.stacked_atoms[r]} {reason} "
            f"(|a| = {mags[r]:.6g})"
        )
    mults.flags.writeable = False
    return MartingaleTransform(filtration, mults)


def _materialize_matrix(filtration: Filtration, multipliers: np.ndarray) -> np.ndarray:
    """Assemble T as a dense (L, L*dim) matrix from block averaging matrices,
    holding two of them at a time."""
    P = _averaging_matrices(filtration)
    L = filtration.n_leaves
    dim = multipliers.shape[1]
    tensor = np.zeros((L, L, dim))
    prev = next(P)
    for n, cur in enumerate(P, start=1):
        a_leaf = multipliers[filtration.layout.stacked_maps[n - 1]]
        tensor += a_leaf[:, None, :] * (cur - prev)[:, :, None]
        prev = cur
    out = tensor.reshape(L, L * dim)
    out.flags.writeable = False
    return out


def split_multiplier_norm(op: MartingaleTransform) -> float:
    """The operator norm, matrix-free: max |a_{n+1}(J)| over the atoms J
    that split at level n.  The split projections are orthogonal and T maps
    the range of J's split difference by h -> a_{n+1}(J) . h, so this is
    ||T|| exactly; 0 on a tower without splits."""
    mags = np.linalg.norm(op.multipliers[op.filtration.layout.event_rows], axis=1)
    return float(mags.max(initial=0.0))


def _steps_hull(filt: Filtration, values: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """The predictable hull of leaf values v (L, d), from their atom steps:
    a boolean mask over the stacked rows of A_0..A_{N-1}, row r of level n
    set when the level-(n+1) difference of v is not zero on its atom.  These
    atoms are the smallest predictable events containing the level
    differences; the transform of v vanishes outside their union.

    Zero is judged against 1e-12 times the magnitude of v: averages over
    atoms whose content is mean-zero cancel only up to roundoff, so a strict
    bit test would promote every ancestor of genuine activity into the hull.
    """
    threshold = 1e-12 * max(1.0, float(np.abs(values).max()) if values.size else 0.0)
    # The level-n difference is the step of each A_{n+1} row on its leaves,
    # so its largest value on an A_n atom is the largest over its children.
    step_max = np.abs(steps).max(axis=1)
    return np.maximum.reduceat(step_max, filt.layout.stacked_children) > threshold


# ---------------------------------------------------------------------------
# Report payload


def transform_to_dict(op: MartingaleTransform) -> dict:
    """JSON-ready payload: per level n, each A_{n-1} atom's multiplier, the
    stacked rows of A_{n-1} in order."""
    lay = op.filtration.layout
    bounds = lay.level_offsets[: op.filtration.depth + 1].tolist()
    return {
        "multipliers": [
            {
                "level": n,
                "values": [
                    {"atom_id": atom_id, "coords": coords}
                    for atom_id, coords in zip(
                        lay.stacked_atoms[lo:hi].tolist(), op.multipliers[lo:hi].tolist()
                    )
                ],
            }
            for n, (lo, hi) in enumerate(zip(bounds, bounds[1:]), start=1)
        ]
    }
