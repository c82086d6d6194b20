"""Finite filtrations of the unit interval by nested atom partitions.

A filtration here is a finite tower of partitions A_0, A_1, ..., A_N of a
half-open interval I = [a, b).  A_0 = {I}.  Walking from level n to n+1,
each atom either splits into k >= 2 children that partition it exactly, or
survives unchanged into every later level.  The regularity floor delta
bounds every child/parent measure ratio from below:

    |child| / |parent| >= delta,   with delta in (0, 1/2].

Atoms that split form the active set D; they are consumed one at a time by
a deterministic split schedule (ascending level, then ascending left
endpoint) that refines {I} step by step into the leaf partition A_N.  The
one-split-at-a-time refiltration is what downstream difference operators
are indexed by.  The schedule is the event list of the layout below, O(E)
for E split events.

Two builders are provided: the uniform binary (dyadic) filtration, and a
seeded random generator with prescribed regularity floor.

Every atom covers a contiguous run of leaves in left-endpoint order.  The
array form of that fact (leaf spans, per-level leaf -> atom maps and
reduceat boundaries, per-event atoms, levels, spans and children in
schedule order) is the ``LeafLayout`` of a tower, built on first use in one
pass and kept on the instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

__all__ = [
    "Filtration",
    "SplitEvent",
    "FiltrationError",
    "RatioSamplingError",
    "build_dyadic",
    "build_random_regular",
    "regularity_delta",
    "split_schedule",
    "level_partition",
    "filtration_to_dict",
]

# Exactness floor for partition bookkeeping (endpoint chaining, measure sums).
_GEOM_TOL = 1e-12


class FiltrationError(ValueError):
    """Invalid filtration parameters or inconsistent atom data."""


class RatioSamplingError(RuntimeError):
    """Rejection sampling of split ratios exhausted its budget.

    Raised when delta is so close to 1/k that the feasible ratio region has
    vanishing volume.
    """


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


@dataclass(frozen=True, eq=False)
class SplitEvent:
    """One step of the refiltration: atom ``atom`` is replaced by its children."""

    atom: int


@dataclass(frozen=True, eq=False)
class LeafLayout:
    """Array bookkeeping of one tower, in leaf positions 0..L-1.

    ``measures`` holds the leaf measures in leaf order and
    ``atom_measures[i]`` the measure b - a of atom i.  ``spans[i]`` is the
    [lo, hi) leaf range of atom i.  For each level n,
    ``level_starts[n]`` holds the first leaf of every A_n atom in level
    order (the boundaries for ``np.add.reduceat``) and ``level_measures[n]``
    their measures b - a.  ``event_atoms``, ``event_levels`` and
    ``event_spans`` describe the split events in schedule order; the
    children of an event at level n are the A_{n+1} atoms inside its span.
    ``event_children[event_child_starts[e]:event_child_starts[e + 1]]`` are
    the children of event e in the order of its atom's ``children``.

    The stacked fields lay the atoms of all levels A_0..A_N end to end, in
    rows: level n holds rows ``level_offsets[n]:level_offsets[n + 1]``, in
    level order, and a persisting atom has one row per level it is in.
    ``stacked_starts`` is the reduceat boundary list of every level at once:
    each level's ``level_starts`` followed by the sentinel L.  Reduced over
    leaf values padded with one zero row at position L, it gives each
    level's last atom the segment up to L and each sentinel the zero row,
    which is dropped; the remaining segment sums are the stacked rows, the
    floats of the per-level reduceat.  ``level_starts[n]`` and
    ``level_measures[n]`` are views of ``stacked_starts`` and
    ``stacked_measures``.  ``stacked_maps[n]`` maps each leaf to its A_n
    row (less ``level_offsets[n]``, the index of that atom in level order),
    ``stacked_atoms`` each row to its atom id, ``stacked_parents`` each row
    of level n >= 1 to the row of the A_{n-1} atom holding it (the
    root row to itself), and ``stacked_children`` each row of levels
    0..N-1 to the row of its first A_{n+1} atom, so that the rows of one
    parent's children are one reduceat segment.  ``diagonal_starts`` is
    ``stacked_starts`` with level n's boundaries moved by n * (L + 1): the
    boundaries of level n in row n of padded leaf rows laid end to end.
    All arrays are read-only.
    """

    measures: np.ndarray
    atom_measures: np.ndarray
    spans: np.ndarray
    level_starts: tuple[np.ndarray, ...]
    level_measures: tuple[np.ndarray, ...]
    event_atoms: np.ndarray
    event_levels: np.ndarray
    event_spans: np.ndarray
    event_children: np.ndarray
    event_child_starts: np.ndarray
    level_offsets: np.ndarray
    stacked_starts: np.ndarray
    diagonal_starts: np.ndarray
    stacked_measures: np.ndarray
    stacked_maps: np.ndarray
    stacked_atoms: np.ndarray
    stacked_parents: np.ndarray
    stacked_children: np.ndarray


@dataclass(frozen=True, eq=False)
class Filtration:
    """Immutable atom tower.  Eq is by object identity on purpose: the
    derived leaf layout is built once and kept on the object.
    """

    delta: float
    depth: int
    atoms: tuple[Atom, ...]
    # Derived fields, filled in __post_init__.
    levels: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    leaves: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _validate_atoms(self)
        levels = _level_partitions(self.atoms, self.depth)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "leaves", levels[self.depth])
        _validate_levels(self)

    @property
    def root(self) -> Atom:
        return self.atoms[self.levels[0][0]]

    @property
    def interval(self) -> tuple[float, float]:
        r = self.root
        return (r.a, r.b)

    @property
    def total_measure(self) -> float:
        r = self.root
        return r.b - r.a

    def atom(self, atom_id: int) -> Atom:
        return self.atoms[atom_id]

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    @cached_property
    def layout(self) -> LeafLayout:
        """Leaf spans, level rows and event spans; built on first use."""
        return _build_layout(self)

    def leaf_measures(self) -> np.ndarray:
        return self.layout.measures

    def leaf_slice(self, atom_id: int) -> slice:
        """Contiguous range of leaf positions covered by the atom."""
        lo, hi = self.layout.spans[atom_id].tolist()
        return slice(lo, hi)


def _validate_atoms(f: Filtration) -> None:
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


def _validate_levels(f: Filtration) -> None:
    roots = [a for a in f.atoms if a.parent is None]
    if len(roots) != 1 or roots[0].level != 0:
        raise FiltrationError("need exactly one root atom at level 0")
    for n in range(f.depth):
        # Strictly increasing tower: some atom of A_n must split at time n.
        if not any(f.atoms[i].children and f.atoms[i].level == n for i in f.levels[n]):
            raise FiltrationError(f"no split at level {n}; tower not strictly increasing")


# ---------------------------------------------------------------------------
# Builders


def build_dyadic(depth: int) -> Filtration:
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
    return Filtration(delta=0.5, depth=depth, atoms=tuple(atoms))


def build_random_regular(
    depth: int,
    delta: float,
    max_children: int,
    split_prob: float,
    seed: int,
    ratio_budget: int = 10_000,
) -> Filtration:
    """Seeded random filtration of [0, 1) with child ratios >= delta.

    At each level, every atom created at that level splits with probability
    split_prob into k ~ U{2..max_children} children; if no atom volunteers,
    one is forced so the tower keeps growing.  Ratios are drawn uniformly on
    the simplex and rejected until all are >= delta; the exactly-critical
    case k * delta == 1 degenerates to the unique equal split.
    """
    if not (1 <= depth <= 12):
        raise FiltrationError(f"random depth must be in [1, 12], got {depth}")
    if not (0.0 < delta <= 0.5):
        raise FiltrationError(f"delta must lie in (0, 1/2], got {delta}")
    if max_children < 2:
        raise FiltrationError(f"max_children must be >= 2, got {max_children}")
    if max_children * delta > 1.0 + 1e-12:
        raise FiltrationError(
            f"infeasible: max_children * delta = {max_children * delta:.6g} > 1"
        )
    if not (0.0 <= split_prob <= 1.0):
        raise FiltrationError(f"split_prob must lie in [0, 1], got {split_prob}")

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
            ratios = _sample_ratios(rng, k, delta, ratio_budget)
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
    return Filtration(delta=delta, depth=depth, atoms=tuple(atoms))


# Dirichlet rows drawn per block of rejection sampling.
_RATIO_BLOCK = 64


def _sample_ratios(rng: np.random.Generator, k: int, delta: float, budget: int) -> np.ndarray:
    """First Dirichlet(1, ..., 1) draw with every ratio >= delta, in at most
    ``budget`` draws.

    Draws come in blocks of rows.  Row j of a block is the draw a one-row
    loop would make j-th, but a block overshoots the accepted row; so the
    generator is rewound and exactly the rows up to the accepted one are
    drawn again.  It ends in the state a one-draw-at-a-time loop would
    leave, and the draws after this call do not depend on the block size.
    """
    if 1.0 - k * delta < 1e-9:
        # Unique feasible point: the equal split.
        return np.full(k, 1.0 / k)
    alpha = np.ones(k)
    left = budget
    while left > 0:
        n = min(_RATIO_BLOCK, left)
        state = rng.bit_generator.state
        block = rng.dirichlet(alpha, size=n)
        hits = np.flatnonzero(block.min(axis=1) >= delta)
        if hits.size:
            rng.bit_generator.state = state
            return rng.dirichlet(alpha, size=int(hits[0]) + 1)[-1]
        left -= n
    raise RatioSamplingError(
        f"no ratio draw with min >= {delta} in {budget} tries (k={k}); "
        "delta is too close to 1/k"
    )


# ---------------------------------------------------------------------------
# Derived structure


def regularity_delta(f: Filtration) -> float:
    """Smallest realized child/parent measure ratio.

    Test oracle: the tests check with it that the builders keep every
    child/parent ratio at or above the floor; no production path calls it.
    """
    best = 0.5
    for a in f.atoms:
        if a.children:
            for c in a.children:
                best = min(best, f.atoms[c].measure / a.measure)
    return best


def split_schedule(f: Filtration) -> tuple[SplitEvent, ...]:
    """Deterministic one-split-at-a-time refinement from {I} to the leaves.

    Events are ordered by (level of the split atom, left endpoint); each
    replaces one atom of the current partition by its children.  Read off
    the layout's event atoms.
    """
    return tuple(SplitEvent(a) for a in f.layout.event_atoms.tolist())


def level_partition(f: Filtration, n: int) -> tuple[int, ...]:
    if not (0 <= n <= f.depth):
        raise FiltrationError(f"level {n} outside [0, {f.depth}]")
    return f.levels[n]


def _build_layout(f: Filtration) -> LeafLayout:
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
    first_leaf = np.cumsum(leaves_in) - leaves_in - row_level * n_leaves
    spans = np.empty((len(f.atoms), 2), dtype=np.intp)
    spans[stacked_atoms, 0] = first_leaf
    spans[stacked_atoms, 1] = first_leaf + leaves_in
    shape = (len(sizes), n_leaves)
    stacked_maps = _frozen(np.repeat(rows, leaves_in).reshape(shape))
    # Row r of level n is boundary r + n, after n sentinels.
    stacked_starts = np.full(offsets[-1] + len(sizes), n_leaves)
    stacked_starts[rows + row_level] = first_leaf
    stacked_starts = _frozen(stacked_starts)
    boundary_levels = np.repeat(np.arange(len(sizes)), np.array(sizes) + 1)
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
        level_starts=tuple(
            stacked_starts[off + n : end + n]
            for n, (off, end) in enumerate(zip(offsets, offsets[1:]))
        ),
        level_measures=tuple(stacked_measures[off:end] for off, end in zip(offsets, offsets[1:])),
        event_atoms=_frozen(event_atoms),
        event_levels=_frozen(row_level[split]),
        event_spans=_frozen(spans[event_atoms]),
        event_children=_frozen(np.fromiter(chain.from_iterable(kids), dtype=np.intp)),
        event_child_starts=_frozen(np.cumsum([0] + [len(k) for k in kids])),
        level_offsets=_frozen(offsets),
        stacked_starts=stacked_starts,
        diagonal_starts=_frozen(stacked_starts + boundary_levels * (n_leaves + 1)),
        stacked_measures=stacked_measures,
        stacked_maps=stacked_maps,
        stacked_atoms=_frozen(stacked_atoms),
        stacked_parents=_frozen(parents),
        stacked_children=_frozen(children),
    )


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------------------
# Report payload


def filtration_to_dict(f: Filtration) -> dict:
    """JSON-ready payload of the tower: delta, depth and every atom."""
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
