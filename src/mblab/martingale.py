"""Vector-valued step functions on a filtration and their conditional calculus.

A ``MartFunction`` assigns a fixed-dimension real vector to every leaf atom,
i.e. it is an element of L^2(I, R^d) that is constant on leaves.  All inner
products and norms are measure weighted:

    (f, g) = sum_leaves |leaf| * <f(leaf), g(leaf)>,
    ||f||_p = (sum_leaves |leaf| * |f(leaf)|^p)^(1/p).

The calculus works on the level differences E_n f - E_{n-1} f.  On an
atom J that splits at level n - 1, the level difference is J's single-split
difference E[f | after splitting J] - E[f | before], which is supported on
J, has zero mean over J, and is an orthogonal projection of the function
space.  Scalar functions are simply d = 1.

Every atom average comes from one kernel, over all levels at once.  The
measure-weighted leaf values get one zero row at position L, and one
``np.add.reduceat`` at the layout's stacked boundaries (each level's atom
starts followed by the sentinel L) sums every atom of every level A_0..A_N;
the sentinel rows are dropped and the sums divided by the atom measures.
The result is the stacked means, one row per atom per level, level n at
rows ``level_offsets[n]:level_offsets[n + 1]``, never as differences of
prefix sums.  An atom's sum depends only on its own leaves, taken in one
fixed order, so it is the float the per-level reduceat gave, an atom that
persists across levels gets the same float at every level, and its level
differences cancel exactly.  The level differences E_n - E_{n-1} are
atom steps first, each row's mean minus its parent's (``_level_steps``),
and reach the leaves by a take over the stacked leaf maps: one take gives
every level's difference at once, (depth, L, d), and ``_leaf_sum`` adds
stacked rows (A, c) on the leaves in level order.  The stacked means also
take a leading stack axis, which the transform module's cut blocks use,
expanding one level at a time.  A stack whose row k belongs to one level
n = first + k (the level rows of ``_event_draws``, the level pieces of a
function) takes the diagonal route instead: ``_diagonal_sums`` lays the
rows end to end, unpadded, and sums row k over the A_n atoms only, and
``_diagonal_steps`` gives each row's level-n difference from its sums at
levels n and n + 1.

A split piece lives in its event's atom, and the atoms of one level are
disjoint, so ``_event_draws`` lays the random draws of one level's events
side by side in one leaf array: one level difference then gives every
event's split piece, each from its atom's own reduceat segments, bit for
bit as the piece of that event alone.  An event draws values only for its atom's leaves,
so all events together take one ``rng.normal`` call of sum |J| rows, cut
into spans in schedule order: O(L * depth) values per call rather than a
full L-leaf block per event.

The kernels here and the suites, certificate and corpus code that call
them use array methods (``x.max()``, ``a.take(i, axis=0)``,
``mask.nonzero()[0]``) rather than the numpy functions of the same name:
the same C loops, so the same floats, without the functions' Python
dispatch, which costs more than the arithmetic on corpus-size arrays.

The dense averaging matrices at the end are the one oracle kept here, since
the transform's dense matrix is built from them.  The per-atom routes the
tests compare this kernel with (the conditional expectation onto any
partition, one event's split difference, the cut to one atom) are in
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .filtration import Filtration, _segments

__all__ = [
    "MartFunction",
    "lp_norm",
    "l2_norm",
    "inner",
]


@dataclass(frozen=True, eq=False)
class MartFunction:
    """Leaf-constant function; ``values`` has shape (n_leaves, dim)."""

    filtration: Filtration
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] != self.filtration.n_leaves:
            raise ValueError(
                f"values must have shape (n_leaves={self.filtration.n_leaves}, dim), got {v.shape}"
            )
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def __neg__(self) -> "MartFunction":
        return MartFunction(self.filtration, -self.values)

    def __mul__(self, c: float) -> "MartFunction":
        return MartFunction(self.filtration, self.values * float(c))

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# Conditional calculus


def _padded(filt: Filtration, values: np.ndarray) -> np.ndarray:
    """Measure-weighted leaf values (..., L, c) followed by one zero row,
    the sentinel row L."""
    w = np.zeros((*values.shape[:-2], filt.n_leaves + 1, values.shape[-1]))
    np.multiply(filt.layout.measures[:, None], values, out=w[..., :-1, :])
    return w


def _stacked_means(filt: Filtration, values: np.ndarray) -> np.ndarray:
    """Averages of (..., L, d) values over the atoms of every level A_0..A_N,
    in stacked rows; shape (..., A, d).

    One reduceat over the measure-weighted values, padded with the zero
    row L, at the stacked boundaries; each level's sentinel row is dropped.
    """
    lay = filt.layout
    sums = np.add.reduceat(_padded(filt, values), lay.stacked_starts, axis=-2)
    means = sums[..., lay.stacked_starts < filt.n_leaves, :]
    means /= lay.stacked_measures[:, None]
    return means


def _diagonal_sums(filt: Filtration, values: np.ndarray, first: int = 0) -> np.ndarray:
    """Row k of a stack of leaf values (K, L) or (K, L, c), weighted by the
    leaf measures and summed over the atoms of level first + k only: the
    stacked rows of levels first..first+K-1, shape (rows,) or (rows, c).

    One reduceat: the atoms of one level tile its row, so the rows are laid
    end to end and each stacked row's boundary is its first leaf in row
    k.  Each segment is the per-level one, over the same leaves, so its sum
    is the same float.
    """
    lay = filt.layout
    K, L = values.shape[:2]
    lo, hi = lay.level_offsets[first], lay.level_offsets[first + K]
    w = values * (lay.measures[:, None] if values.ndim == 3 else lay.measures)
    bounds = lay.diagonal_starts[lo:hi] - first * L
    return np.add.reduceat(w.reshape(K * L, *values.shape[2:]), bounds)


def _level_steps(filt: Filtration, means: np.ndarray) -> np.ndarray:
    """E_n - E_{n-1} at atom resolution, from stacked means (..., A, d): each
    row's mean minus its parent's, the floats the level difference takes
    on the row's leaves.  The root row is zero."""
    steps = means.take(filt.layout.stacked_parents, axis=-2)
    np.subtract(means, steps, out=steps)
    return steps


def _atom_steps(filt: Filtration, values: np.ndarray) -> np.ndarray:
    """E_n - E_{n-1} of (..., L, d) values at atom resolution, in stacked
    rows (..., A, d): one stacked pass, then the steps."""
    return _level_steps(filt, _stacked_means(filt, values))


def _diagonal_steps(filt: Filtration, values: np.ndarray, first: int = 0) -> np.ndarray:
    """The level-n difference of row k of a stack (K, L, d), n = first + k,
    at atom resolution: on the stacked rows of level n + 1, each row's mean
    of row k minus its parent's; every other row is zero.  Shape (A, d).

    Two diagonal reduceats, levels n and n + 1 of each row, so the stack is
    never averaged over every level.
    """
    lay = filt.layout
    off, measures = lay.level_offsets, lay.stacked_measures[:, None]
    top, lo, hi = off[first], off[first + 1], off[first + len(values) + 1]
    parent = _diagonal_sums(filt, values, first) / measures[top : off[first + len(values)]]
    child = _diagonal_sums(filt, values, first + 1) / measures[lo:hi]
    steps = np.zeros((len(measures), values.shape[-1]))
    np.subtract(child, parent[lay.stacked_parents[lo:hi] - top], out=steps[lo:hi])
    return steps


def _level_differences(filt: Filtration, values: np.ndarray) -> np.ndarray:
    """E_{n+1} v - E_n v at leaf resolution for n = 0..depth-1 of (L, d)
    values; shape (depth, L, d), one take of the atom steps."""
    return _atom_steps(filt, values).take(filt.layout.stacked_maps[1:], axis=0)


def _leaf_sum(filt: Filtration, per_row: np.ndarray) -> np.ndarray:
    """sum_{n=1..N} of stacked rows (A, c) expanded to the leaves at level
    n, added in level order onto zeros; shape (L, c).

    One take over all levels; the level axis is the outermost and holds
    L >= 2 leaves per level, so numpy adds the levels in order.
    """
    maps = filt.layout.stacked_maps[1:]
    return np.add.reduce(per_row.take(maps, axis=0), axis=0, initial=0.0)


def _event_draws(
    filt: Filtration, events: np.ndarray, dim: int, rng: np.random.Generator
) -> np.ndarray:
    """Random draws on the leaf spans of the layout event indices
    ``events``, each laid into the array of its event's level.

    One ``rng.normal`` call of shape (sum |J|, dim), cut into the events'
    spans in order, leaves in order within each span: the stream of one
    (|J|, dim) draw per event, O(L * depth * dim) values in all.  Shape
    (depth, L, dim), zero off the spans: the events of one level have
    disjoint spans, so they share one leaf array.
    """
    lay = filt.layout
    spans = lay.spans[lay.event_atoms[events]]
    leaf, row = _segments(spans[:, 0], spans[:, 1] - spans[:, 0])
    out = np.zeros((filt.depth, filt.n_leaves, dim))
    out[lay.event_levels[events][row], leaf] = rng.normal(size=(len(leaf), dim))
    return out


def inner(f: MartFunction, g: MartFunction) -> float:
    """Unnormalized pairing integral_I <f, g> dt."""
    if f.filtration is not g.filtration:
        raise ValueError("functions live on different filtration objects")
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    m = f.filtration.layout.measures
    return float(m @ np.einsum("ij,ij->i", f.values, g.values))


def l2_norm(f: MartFunction) -> float:
    return float(np.sqrt(max(inner(f, f), 0.0)))


def lp_norm(f: MartFunction, p: float) -> float:
    """||f||_p; where the sum of |f|^p overflows or underflows for a nonzero
    finite f, s ||f / s||_p with s = max |f|."""
    return _lp_norms(f.filtration.layout.measures, f.values, p, (0, f.filtration.n_leaves))[0]


def _lp_norms(measures: np.ndarray, values: np.ndarray, p: float, bounds) -> list[float]:
    """``lp_norm`` of each leaf segment ``bounds[k]:bounds[k + 1]`` of (L, d)
    values under the leaf ``measures``: the towers of a stack at its
    ``leaf_offsets``.  The magnitudes come from one row-wise pass; each
    segment's sum is its own dot product, the float of its tower alone."""
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    mags = np.linalg.norm(values, axis=1)

    def norm(m: np.ndarray, v: np.ndarray) -> float:
        total = m @ v**p
        if total == 0.0 or total == np.inf:
            s = float(v.max(initial=0.0))
            if 0.0 < s < np.inf:
                return s * float(m @ (v / s) ** p) ** (1.0 / p)
        return float(total ** (1.0 / p))

    with np.errstate(over="ignore"):
        return [norm(measures[lo:hi], mags[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]


# ---------------------------------------------------------------------------
# Dense oracle


def _averaging_matrices(f: Filtration) -> Iterator[np.ndarray]:
    """Dense projection matrices P_n with (P_n v)_i = <v>_{A_n atom of leaf i},
    for n = 0..depth in order.

    Assembled from the block structure directly, independently of the
    reduceat kernel; the transform module's matrix route and the tests use
    them.  Each is an L x L array, so they are yielded one level at a time.
    """
    lay = f.layout
    m = lay.measures
    for leaf_map in lay.stacked_maps:
        same = leaf_map[:, None] == leaf_map[None, :]
        yield np.where(same, m[None, :] / lay.stacked_measures[leaf_map][:, None], 0.0)
