"""Seeded witness corpus: filtrations, martingales, and transforms.

The default grid crosses regularity floors {0.1, 0.25, 1/3, 0.5} with
target dimensions {1, 2, 3} and a hundred seeds each; depth cycles through
2..5 with the seed.  Child counts are capped per floor so that ratio
sampling keeps honest slack above the floor (at the balanced floor 1/2 the
grid falls back to exact dyadic towers, where random ratios have no room);
off the grid the cap is min(4, ``filtration.max_parts(delta)``).  A cell's
triple is a ``bellman.Witness`` at p = 2, a pure function of the cell, as
is every object here, so the corpus can be rebuilt identically anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bellman import Witness
from .filtration import (
    Filtration,
    FiltrationError,
    build_dyadic,
    build_random_regular,
    max_parts,
    _random_columns,
)
from .martingale import MartFunction, _diagonal_steps, _event_draws, _leaf_sum
from .transforms import MartingaleTransform, make_transform

__all__ = [
    "CorpusCell",
    "DELTAS",
    "DIMS",
    "default_corpus",
    "max_children_for",
    "build_tower",
    "tower_columns",
    "cell_filtration",
    "prepare_cell",
    "random_witness",
    "random_function",
    "random_transform",
    "haar_witness",
    "active_split_function",
]

DELTAS: tuple[float, ...] = (0.1, 0.25, 1.0 / 3.0, 0.5)
DIMS: tuple[int, ...] = (1, 2, 3)
_SEEDS_PER_CELL = 100

# Max child counts chosen so max_children * delta stays clearly below 1 and
# the Dirichlet rejection sampler converges fast.
_MAX_CHILDREN = {0.1: 4, 0.25: 3, 1.0 / 3.0: 2, 0.5: 2}
_SPLIT_PROB = 0.7  # the chance that an atom of a random tower splits


def max_children_for(delta: float) -> int:
    """Child-count cap keeping ratio sampling comfortably feasible: the
    grid floor's own, else min(4, ``max_parts(delta)``)."""
    if delta in _MAX_CHILDREN:
        return _MAX_CHILDREN[delta]
    return min(4, max_parts(delta))


@dataclass(frozen=True)
class CorpusCell:
    delta: float
    dim: int
    seed: int

    @property
    def depth(self) -> int:
        return 2 + self.seed % 4


def default_corpus(seeds: int = _SEEDS_PER_CELL) -> list[CorpusCell]:
    return [CorpusCell(delta=d, dim=dim, seed=s) for d in DELTAS for dim in DIMS for s in range(seeds)]


def _cell_rng(cell: CorpusCell) -> np.random.Generator:
    di = DELTAS.index(cell.delta)
    return np.random.default_rng(
        np.random.SeedSequence(entropy=986531, spawn_key=(di, cell.dim, cell.seed))
    )


def _tower(dyadic, random, delta, seed, depth, max_children=None, split_prob=_SPLIT_PROB):
    """The tower rule of a floor: ``dyadic(depth)`` at the balanced floor
    1/2, where random ratio sampling degenerates (``seed`` is not read),
    else ``random(depth, delta, max_children, split_prob, seed)``, the
    seeded random-regular tower, by default with the floor's child-count
    cap."""
    if delta == 0.5:
        return dyadic(depth)
    if seed is None:
        raise FiltrationError(f"the random tower at delta={delta:g} needs a seed")
    cap = max_children_for(delta) if max_children is None else max_children
    return random(depth, delta, cap, split_prob, seed)


def _cell_tower(delta: float, seed: int | None, depth: int) -> Filtration:
    """``cell_filtration`` of a floor, seed and depth with the floor's cap.
    The balanced tower reads no seed, so it is cached by its depth alone."""
    return cell_filtration(delta, None if delta == 0.5 else seed, depth, max_children_for(delta))


def build_tower(
    delta: float,
    seed: int | None,
    depth: int,
    max_children: int | None = None,
    split_prob: float = _SPLIT_PROB,
) -> Filtration:
    """The tower of a floor (``_tower``), built and validated."""
    return _tower(build_dyadic, build_random_regular, delta, seed, depth, max_children, split_prob)


def tower_columns(delta: float, seed: int, depth: int) -> tuple:
    """The six columns of ``build_tower(delta, seed, depth)`` in constructor
    order, drawn but not validated (a stack validates many at once); a
    balanced tower's come from the cached one (``_cell_tower``)."""
    return _tower(lambda d: _cell_tower(0.5, None, d).columns, _random_columns, delta, seed, depth)


@lru_cache(maxsize=None)
def cell_filtration(delta: float, seed: int | None, depth: int, max_children: int) -> Filtration:
    """``build_tower``, kept: cells of one floor, seed and depth share it."""
    return build_tower(delta, seed, depth, max_children)


def random_function(filt: Filtration, dim: int, rng: np.random.Generator) -> MartFunction:
    return MartFunction(filt, rng.normal(size=(filt.n_leaves, dim)))


def random_witness(
    filt: Filtration, dim: int, rng: np.random.Generator
) -> tuple[MartFunction, MartFunction]:
    """Gaussian leaf-valued pair (f vector valued, g scalar)."""
    return random_function(filt, dim, rng), random_function(filt, 1, rng)


def random_transform(
    filt: Filtration,
    dim: int,
    rng: np.random.Generator,
) -> MartingaleTransform:
    """Random predictable multiplier sequence inside the closed unit ball of
    the value space.  The stacked rows of A_0..A_{N-1} are drawn level by
    level."""
    offsets = filt.layout.level_offsets[: filt.depth + 1]
    raw, radii = np.empty((offsets[-1], dim)), np.empty((offsets[-1], 1))
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        raw[lo:hi] = rng.normal(size=(hi - lo, dim))
        radii[lo:hi] = rng.uniform(size=(hi - lo, 1))
    # Both steps act row by row, so one call over all rows keeps every float.
    mults = _unit_rows(raw)
    mults *= radii ** (1.0 / dim)
    return make_transform(filt, mults)


def _unit_rows(raw: np.ndarray) -> np.ndarray:
    """Each row of ``raw`` divided by its length; a zero row stays zero.
    Row by row, so rows of many draws can be scaled in one call."""
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return raw / norms


def haar_witness(filt: Filtration, dim: int) -> Witness:
    """Structured witness saturating the balanced pairing.

    Requires a two-child root split.  f oscillates along the first
    coordinate with the unique zero-mean unit-variance profile for the root
    weights, g carries the same scalar profile, and the transform points
    every multiplier at the first coordinate.  The pairing of g with Tf is
    then exactly one while both second moments are one.
    """
    f, g, mults = _haar_profile(filt, 0, dim, filt.layout.level_offsets[filt.depth])
    return Witness(MartFunction(filt, f), MartFunction(filt, g), make_transform(filt, mults))


def root_splits_in_two(filt: Filtration, root: int = 0) -> bool:
    """Whether root atom ``root``, by default a lone tower's, has two children."""
    lo, hi = filt.child_starts[root : root + 2].tolist()
    return hi - lo == 2


def _haar_profile(filt: Filtration, root: int, dim: int, n_rows: int) -> tuple[np.ndarray, ...]:
    """The structured witness on the tower of root atom ``root``, read off
    the columns, as leaf values of f and g and n_rows multiplier rows.  g
    takes, on each child of the root's two-child split, the value that makes
    it zero-mean with unit variance under the root's weights."""
    if not root_splits_in_two(filt, root):
        raise ValueError("the structured witness needs a two-child root split")
    lo = filt.child_starts[root]
    ids = [root, *filt.children[lo : lo + 2].tolist()]
    m0, m1, m2 = (filt.b[ids] - filt.a[ids]).tolist()
    w1, w2 = m1 / m0, m2 / m0
    (first, end), (lo1, hi1), (lo2, hi2) = filt.layout.spans[ids] - filt.layout.spans[root, 0]
    g, f, mults = np.empty((end - first, 1)), np.zeros((end - first, dim)), np.zeros((n_rows, dim))
    g[lo1:hi1], g[lo2:hi2] = np.sqrt(w2 / w1), -np.sqrt(w1 / w2)
    f[:, 0], mults[:, 0] = g[:, 0], 1.0
    return f, g, mults


def active_split_function(
    filt: Filtration, dim: int, rng: np.random.Generator
) -> tuple[MartFunction, np.ndarray]:
    """Function assembled as a sum of single-split differences over a random
    subset of the schedule, with the atoms of that subset returned, as a
    sorted array of ids, for support checks.

    Each kept event draws random values on its atom's leaves only, in
    schedule order (``_event_draws``: one normal draw of sum |J| rows over
    the kept events), and contributes its split difference.  The kept
    events of one level have disjoint atoms, so their differences are one
    level difference of the level's draws, and each leaf receives its
    pieces in level order (a level without kept events adds an exact
    zero).
    """
    lay = filt.layout
    n_events = len(lay.event_atoms)
    kept = (rng.random(n_events) < 0.5).nonzero()[0]
    if not kept.size:
        kept = np.array([int(rng.integers(n_events))])
    steps = _diagonal_steps(filt, _event_draws(filt, kept, dim, rng))
    # Read off a mask, the ids come sorted; the first np.sort of a process
    # pages in its kernels' code, about 0.4 MB of RSS.
    active = np.zeros(filt.n_atoms, dtype=bool)
    active[lay.event_atoms[kept]] = True
    return MartFunction(filt, _leaf_sum(filt, steps)), np.flatnonzero(active)


def prepare_cell(cell: CorpusCell) -> Witness:
    """The cell's random witness triple at p = 2 on the cell's tower, all
    determined by the cell."""
    filt = _cell_tower(cell.delta, cell.seed, cell.depth)
    rng = _cell_rng(cell)
    f, g = random_witness(filt, cell.dim, rng)
    return Witness(f, g, random_transform(filt, cell.dim, rng))
