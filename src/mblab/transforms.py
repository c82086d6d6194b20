"""Martingale transforms: predictable-multiplier contractions of L^2(I, R^d).

A transform on a depth-N filtration is the scalar-valued operator

    T f = sum_{n=1..N} a_n . (E_n f - E_{n-1} f),

where each multiplier a_n is an R^d-valued function constant on the atoms of
the level n-1 partition (predictable) with |a_n| <= 1 pointwise, and the dot
is the R^d inner product applied leafwise.  Such operators are L^2
contractions, and they localize: a function living in the range of one
single-split difference at atom J is mapped to a function supported in J.

Contraction holds by construction.  The level differences are orthogonal,
and on an atom J that splits at level n-1 the multiplier a_n(J) maps the
R^d difference to a scalar with norm |a_n(J)|, so the operator norm is the
largest |a_n(J)| over the split atoms; ``make_transform`` rejects every
multiplier outside the unit ball, and ``split_multiplier_norm`` reads that
maximum off the multipliers.

Every production route is matrix-free.  ``apply`` evaluates the multiplier
formula above, and ``adjoint_closed_form`` the closed form
T* g = sum_n a_n * (D_n g), with D_n the scalar level-n difference.  Both
read the atom steps of the martingale kernel's stacked pass: on each atom
row of level n, a_n of its parent row (``step_multipliers``) times the
row's step, the levels then summed on the leaves in order; the predictable
hull reads the same steps.  O(L * depth) work per function.  The kernels
``_transform_stack`` and ``_adjoint_stack`` also take a leading axis of
inputs; the tests push one full-length input per split event through them
as an oracle for the per-level check suites.

The dense route is a test oracle, kept deliberately independent of the
multiplier formula: a matrix with rows indexed by leaves and columns indexed
by (leaf, coordinate) pairs in row-major order (column = leaf * dim +
coord), assembled from block averaging matrices.  It takes O(L^2 d) memory,
and a transform builds it on its first ``matrix_apply``, ``adjoint_apply``
(the weight-conjugated transpose) or ``operator_norm`` (a full SVD), never
by construction.  No production caller reaches it; the tests compare each
production route against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .filtration import Filtration, _segments, level_partition
from .martingale import MartFunction, _atom_steps, _averaging_matrices, _leaf_sum

__all__ = [
    "MartingaleTransform",
    "PredictabilityError",
    "make_transform",
    "operator_norm",
    "predictable_hull",
    "split_multiplier_norm",
    "transform_to_dict",
]

class PredictabilityError(ValueError):
    """Multiplier data does not hold one row per coarser-level atom, or
    leaves the unit ball."""


@dataclass(frozen=True, eq=False)
class MartingaleTransform:
    """Immutable transform.  ``multipliers[n-1]`` holds the level-n multiplier
    as an array of shape (len(A_{n-1}), dim), rows in level partition order."""

    filtration: Filtration
    dim: int
    multipliers: tuple[np.ndarray, ...]

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense oracle mapping flattened (leaf, coord) inputs to leaf
        outputs, shape (L, L*dim); built on first use and kept.  Tests only."""
        return _materialize_matrix(self.filtration, self.multipliers, self.dim)

    @cached_property
    def step_multipliers(self) -> np.ndarray:
        """The multiplier each stacked row's step gets, shape (A, dim): a_n
        of the row's parent for a row of level n >= 1.  The multipliers of
        A_0..A_{N-1} in order are the stacked rows of those levels."""
        lay = self.filtration.layout
        return np.concatenate(self.multipliers)[lay.stacked_parents]

    def multiplier_on_leaves(self, n: int) -> np.ndarray:
        """Level-n multiplier expanded to leaf resolution, shape (L, dim)."""
        lay = self.filtration.layout
        return self.multipliers[n - 1][lay.stacked_maps[n - 1] - lay.level_offsets[n - 1]]

    def apply(self, f: MartFunction) -> MartFunction:
        """T f through the multiplier formula."""
        self._check_input(f)
        return MartFunction(self.filtration, _transform_stack(self, f.values)[:, None])

    def matrix_apply(self, f: MartFunction) -> MartFunction:
        """T f through the dense oracle; must agree with apply().  Tests only."""
        self._check_input(f)
        flat = f.values.reshape(-1)
        return MartFunction(self.filtration, (self.matrix @ flat)[:, None])

    @cached_property
    def _weighted_transpose(self) -> np.ndarray:
        """M^T W_out, built on the first adjoint_apply and kept."""
        return self.matrix.T * self.filtration.leaf_measures()[None, :]

    def adjoint_apply(self, g: MartFunction) -> MartFunction:
        """T* g via the weight-conjugated transpose of the dense oracle; must
        agree with adjoint_closed_form().  Tests only."""
        if g.filtration is not self.filtration or g.dim != 1:
            raise ValueError("adjoint expects a scalar function on the same filtration")
        w_in = np.repeat(self.filtration.leaf_measures(), self.dim)
        # (W_in)^-1 M^T W_out acting on g.
        flat = self._weighted_transpose @ g.values[:, 0]
        flat /= w_in
        return MartFunction(self.filtration, flat.reshape(-1, self.dim))

    def adjoint_closed_form(self, g: MartFunction) -> MartFunction:
        """T* g = sum_n a_n * (E_n g - E_{n-1} g); the production adjoint."""
        if g.filtration is not self.filtration or g.dim != 1:
            raise ValueError("adjoint expects a scalar function on the same filtration")
        return MartFunction(self.filtration, _adjoint_stack(self, g.values))

    def _check_input(self, f: MartFunction) -> None:
        if f.filtration is not self.filtration:
            raise ValueError("function lives on a different filtration object")
        if f.dim != self.dim:
            raise ValueError(f"dimension mismatch: transform {self.dim}, function {f.dim}")


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


def _event_runs(op: MartingaleTransform) -> EventRuns:
    filt = op.filtration
    lay = filt.layout
    below_root = lay.event_levels > 0
    levels = lay.event_levels[below_root]
    spans = lay.event_spans[below_root]
    lengths = spans[:, 1] - spans[:, 0]
    leaf, owner = _segments(spans[:, 0], lengths)
    # Row of K_k, k = 0..depth-1, in the stacked rows.
    chain = lay.stacked_maps[: filt.depth, spans[:, 0]].T
    measures = lay.stacked_measures[chain]
    mults = np.concatenate(op.multipliers)[chain]
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


def _ancestor_values(mults: np.ndarray, means: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Levels 1..n of T or T* applied to a function h supported in an A_n
    atom J, n >= 1, outside J's subtree, from its padded ancestor chain
    (``EventRuns``).

    h has the same sum, J's, over every K_k, so ``means`` (e, depth, c)
    holds its averages over the chain.  Level k adds a_k(K_{k-1}) (mean_k -
    mean_{k-1}) on J, and on the ring K_j - K_{j+1} every level up to j does
    the same while level j+1 sees 0 - mean_j.  Returns the constant on J,
    (e, d), and on each ring, (e, depth-1, d), as coordinatewise products
    a * mean: T sums them over the coordinates, T* keeps them.  A ring of
    zero measure (K_j = K_{j+1}) holds no leaf.
    """
    steps = np.cumsum(mults[:, :-1] * np.diff(means, axis=1), axis=1)
    before = np.concatenate([np.zeros_like(steps[:, :1]), steps[:, :-1]], axis=1)
    return steps[:, -1], before - mults[:, :-1] * means[:, :-1]


def _cut_adjoints(
    op: MartingaleTransform, runs: EventRuns, values: np.ndarray, shifts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For each non-root split atom J, in schedule order, osc2 over I and
    squared norm of T*((v - s_J) 1_J), with v the scalar leaf values and s_J
    the shift of J.

    The cuts of one level n have disjoint atoms and share one leaf array,
    row n - 1 of a stack.  Inside J, levels n+1.. see J's leaves only, so
    one push of the stack through them gives every cut's T* there, from J's
    own reduceat segments.  Levels 1..n add a constant on J and on each ring
    of J's ancestor chain, from J's cut sum: O(L * depth^2) in all, none of
    it per event.
    """
    filt = op.filtration
    if not len(runs.levels):
        return np.empty(0), np.empty(0)
    owner, leaf = runs.owner, runs.leaf
    row = runs.levels[owner] - 1
    cut = values[leaf] - shifts[owner]
    cuts = np.zeros((filt.depth - 1, filt.n_leaves, 1))
    cuts[row, leaf, 0] = cut
    steps = _atom_steps(filt, cuts)
    del cuts
    weights = filt.layout.measures[leaf]
    sums = runs.sums(weights * cut)
    inside, rings = _ancestor_values(runs.mults, (sums[:, None] / runs.measures)[..., None])
    x = np.zeros((filt.depth - 1, filt.n_leaves, op.dim))
    x[row, leaf] = inside[owner]
    # Level k reaches inside the atoms of levels n < k: rows 0..k-2.
    for k in range(2, filt.depth + 1):
        diff = np.take(steps[: k - 1], filt.layout.stacked_maps[k], axis=-2)
        x[: k - 1] += op.multiplier_on_leaves(k) * diff
    on_atoms = x[row, leaf]

    ring_measures = runs.measures[:, :-1] - runs.measures[:, 1:]
    mean = runs.sums(weights[:, None] * on_atoms) + np.einsum("ej,ejd->ed", ring_measures, rings)
    mean /= filt.total_measure

    def square_sums(inside: np.ndarray, on_rings: np.ndarray) -> np.ndarray:
        per_leaf = runs.sums(weights * np.einsum("ij,ij->i", inside, inside))
        return per_leaf + np.einsum("ej,ejd,ejd->e", ring_measures, on_rings, on_rings)

    off_mean = square_sums(on_atoms - mean[owner], rings - mean[:, None, :])
    return off_mean / filt.total_measure, square_sums(on_atoms, rings)


def _transform_stack(op: MartingaleTransform, values: np.ndarray) -> np.ndarray:
    """T applied to a stack of inputs of shape (..., L, dim); shape (..., L).

    Each atom row of level n >= 1 dots its step with a_n of its parent,
    and the levels' products are summed on the leaves (``_leaf_sum``).
    """
    steps = _atom_steps(op.filtration, values)
    dots = np.einsum("ij,...ij->...i", op.step_multipliers, steps)
    return _leaf_sum(op.filtration, dots[..., None])[..., 0]


def _adjoint_stack(op: MartingaleTransform, values: np.ndarray) -> np.ndarray:
    """Closed-form T* applied to a stack of scalar inputs of shape
    (..., L, 1); shape (..., L, dim)."""
    return _leaf_sum(op.filtration, op.step_multipliers * _atom_steps(op.filtration, values))


def make_transform(
    filtration: Filtration,
    multipliers: Sequence[np.ndarray],
    dim: int | None = None,
) -> MartingaleTransform:
    """Validate multiplier data and build the transform.

    Each entry of ``multipliers`` gives the level-n multiplier (n = 1..depth)
    as an array of shape (len(A_{n-1}), dim), one row per A_{n-1} atom in
    level partition order, so it is predictable by construction.  Every
    multiplier must lie in the closed unit ball, which makes the transform
    a contraction.
    """
    if len(multipliers) != filtration.depth:
        raise PredictabilityError(
            f"need {filtration.depth} multiplier levels, got {len(multipliers)}"
        )
    rows: list[np.ndarray] = []
    for n, raw in enumerate(multipliers, start=1):
        per_atom = np.atleast_2d(np.asarray(raw, dtype=float))
        n_atoms = len(level_partition(filtration, n - 1))
        if per_atom.shape[0] != n_atoms:
            raise PredictabilityError(
                f"level {n} multiplier has {per_atom.shape[0]} rows; expected "
                f"{n_atoms}, one per A_{n - 1} atom"
            )
        if dim is None:
            dim = per_atom.shape[1]
        if per_atom.shape[1] != dim:
            raise PredictabilityError(f"level {n} multiplier dimension mismatch")
        mags = np.linalg.norm(per_atom, axis=1)
        if mags.max(initial=0.0) > 1.0 + 1e-12:
            raise PredictabilityError(
                f"level {n} multiplier leaves the unit ball (max |a| = {mags.max():.6g})"
            )
        row = per_atom.copy()
        row.flags.writeable = False
        rows.append(row)
    assert dim is not None
    return MartingaleTransform(filtration, dim, tuple(rows))


def _materialize_matrix(
    filtration: Filtration, rows: Sequence[np.ndarray], dim: int
) -> np.ndarray:
    """Assemble T as a dense (L, L*dim) matrix from block averaging matrices,
    holding two of them at a time."""
    P = _averaging_matrices(filtration)
    L = filtration.n_leaves
    stacked = np.concatenate(rows)  # the multipliers of the stacked rows of A_0..A_{N-1}
    tensor = np.zeros((L, L, dim))
    prev = next(P)
    for n, cur in enumerate(P, start=1):
        a_leaf = stacked[filtration.layout.stacked_maps[n - 1]]
        tensor += a_leaf[:, None, :] * (cur - prev)[:, :, None]
        prev = cur
    out = tensor.reshape(L, L * dim)
    out.flags.writeable = False
    return out


def operator_norm(op: MartingaleTransform) -> float:
    """Largest singular value of W_out^(1/2) M W_in^(-1/2): a full SVD of
    the dense matrix oracle, for the tests only.  It equals
    ``split_multiplier_norm`` up to roundoff."""
    m = op.filtration.leaf_measures()
    w_out = np.sqrt(m)
    w_in = np.sqrt(np.repeat(m, op.dim))
    scaled = op.matrix * w_out[:, None] / w_in[None, :]
    return float(np.linalg.svd(scaled, compute_uv=False)[0])


def split_multiplier_norm(op: MartingaleTransform) -> float:
    """The operator norm, matrix-free: max |a_{n+1}(J)| over the atoms J
    that split at level n.  The split projections are orthogonal and T maps
    the range of J's split difference by h -> a_{n+1}(J) . h, so this is
    ||T|| exactly; 0 on a tower without splits."""
    lay = op.filtration.layout
    # The concatenated multipliers are the stacked rows of A_0..A_{N-1}, so
    # J's row there is its stacked row at its level.
    rows = lay.stacked_maps[lay.event_levels, lay.event_spans[:, 0]]
    mags = np.linalg.norm(np.concatenate(op.multipliers)[rows], axis=1)
    return float(np.max(mags, initial=0.0))


def predictable_hull(f: MartFunction) -> list[list[int]]:
    """Per level n, the atoms of A_{n-1} on which the level-n difference of f
    is not zero.  These are the smallest predictable events containing the
    level differences; the transform of f vanishes outside their union.

    Zero is judged against 1e-12 times the magnitude of f: averages over
    atoms whose content is mean-zero cancel only up to roundoff, so a strict
    bit test would promote every ancestor of genuine activity into the hull.
    """
    filt = f.filtration
    lay = filt.layout
    threshold = 1e-12 * max(1.0, float(np.max(np.abs(f.values))) if f.values.size else 0.0)
    # The level-n difference is the step of each A_{n+1} row on its leaves,
    # so its largest value on an A_n atom is the largest over its children.
    steps = _atom_steps(filt, f.values)
    atom_max = np.maximum.reduceat(np.max(np.abs(steps), axis=1), lay.stacked_children)
    rows = np.flatnonzero(atom_max > threshold)
    ids = lay.stacked_atoms[rows]
    ends = np.searchsorted(rows, lay.level_offsets[1 : filt.depth])
    return [level.tolist() for level in np.split(ids, ends)]


# ---------------------------------------------------------------------------
# Report payload


def transform_to_dict(op: MartingaleTransform) -> dict:
    """JSON-ready payload: per level, each A_{n-1} atom's multiplier."""
    return {
        "multipliers": [
            {
                "level": n,
                "values": [
                    {"atom_id": atom_id, "coords": op.multipliers[n - 1][j].tolist()}
                    for j, atom_id in enumerate(level_partition(op.filtration, n - 1).tolist())
                ],
            }
            for n in range(1, op.filtration.depth + 1)
        ]
    }
