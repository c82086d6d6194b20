"""Finite filtrations of the unit interval by nested atom partitions.

A filtration here is a finite tower of partitions A_0, A_1, ..., A_N of a
half-open interval I = [a, b).  A_0 = {I}.  Walking from level n to n+1,
each atom either splits into k >= 2 children that partition it exactly, or
survives unchanged into every later level.  The regularity floor delta
bounds every child/parent measure ratio from below:

    |child| / |parent| >= delta,   with delta in (0, 1/2],

so a split has at most floor(1/delta) children (``max_parts``; the ratio
draw refuses more).  Each count has one statement, the leaf count too
(``_leaf_count``, the atoms without children).

Atoms that split form the active set D; they are consumed one at a time by
a deterministic split schedule (ascending level, then ascending left
endpoint) that refines {I} step by step into the leaf partition A_N.  The
one-split-at-a-time refiltration is what downstream difference operators
are indexed by.  The schedule is the event list of the layout below, O(E)
for E split events; ``split_schedule`` gives it as the split atoms' ids.

A filtration is stored as columns indexed by atom id: the endpoints ``a``
and ``b``, the ``level`` at which each atom first appears, its ``parent``
(-1 at a root) and a child offset table, under which the children of atom
i are ``children[child_starts[i]:child_starts[i + 1]]`` in their given
order.  The columns hold one tower or several of one depth end to end
(``Filtration.stack``), validated by array passes over all of them.  Each
tower starts at its root, so the root of a lone tower is atom 0.  Every
read of a tower is a column read; no per-atom record is built.

Two builders are provided: the uniform binary (dyadic) filtration, filled in
one level at a time, and a seeded random generator with prescribed
regularity floor, whose rejection draws try at most ``_RATIO_BUDGET`` rows.

Every atom covers a contiguous run of leaves in left-endpoint order.  The
array form of that fact is the ``LeafLayout``, built on first use from the
columns and kept on the instance: leaf spans, and the atoms of every level
laid end to end in stacked rows with their leaf maps and reduceat
boundaries (a level is a range of rows, not a view of its own), and per
split event, in schedule order, its atom, level, stacked row and
children.  Each fact is stated once; ``level_partition`` reads A_n off the
rows.  Its levels hold the towers' atoms tower after tower; a reduceat
segment sums the same leaves in the same order at any offset, so each
tower's part of a pass over a stack is the float of its own pass.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import accumulate

import numpy as np

__all__ = [
    "Filtration",
    "FiltrationError",
    "build_dyadic",
    "build_random_regular",
    "split_schedule",
    "level_partition",
    "max_parts",
    "filtration_to_dict",
]

# Exactness floor for partition bookkeeping (endpoint chaining, measure sums).
_GEOM_TOL = 1e-12
_EPS = 2.0**-52  # float64 machine epsilon


class FiltrationError(ValueError):
    """Invalid filtration parameters or inconsistent atom data."""


def max_parts(delta: float) -> int:
    """The most parts one split can have at floor delta in (0, 1/2]: each
    part holds at least delta of its parent, so the largest k with
    k * delta <= 1 + ``_GEOM_TOL``.  The one statement of that count."""
    try:
        k = int((1.0 + _GEOM_TOL) / delta)
    except OverflowError:  # a subnormal floor, whose count is past every float
        (num, den), (a, b) = (1.0 + _GEOM_TOL).as_integer_ratio(), delta.as_integer_ratio()
        return num * b // (den * a)
    return k - 1 if k * delta > 1.0 + _GEOM_TOL else k


class _Lazy(Sequence):
    """Read-only sequence whose item i < n is ``make(i)``, built when it is
    read, by index or in iteration; ``len`` builds none."""

    __slots__ = ("_make", "_n")

    def __init__(self, make: Callable[[int], object], n: int):
        self._make = make
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int):
        return self._make(range(self._n)[i])


@dataclass(frozen=True, eq=False)
class LeafLayout:
    """Array bookkeeping of one tower, in leaf positions 0..L-1.

    ``measures`` holds the leaf measures in leaf order and
    ``atom_measures[i]`` the measure b - a of atom i.  ``spans[i]`` is the
    [lo, hi) leaf range of atom i.  ``event_atoms``, ``event_levels`` and
    ``event_rows`` describe the split events in schedule order: each
    event's atom, its level n and its stacked row at level n; the children
    of an event at level n are the A_{n+1} atoms inside its atom's span.
    ``event_children[event_child_starts[e]:event_child_starts[e + 1]]`` are
    the children of event e in the order of its atom's ``children``.

    The stacked fields lay the atoms of all levels A_0..A_N end to end, in
    rows: level n holds rows ``level_offsets[n]:level_offsets[n + 1]``, in
    level order, and a persisting atom has one row per level it is in.
    ``stacked_starts`` is the reduceat boundary list of every level at once:
    the first leaves of the A_n atoms in level order, from position
    ``level_offsets[n] + n`` on, then the sentinel L.  Reduced over leaf
    values padded with one zero row at position L, it gives each level's
    last atom the segment up to L and each sentinel the zero row, which is
    dropped; the remaining segment sums are the stacked rows, the floats of
    the per-level reduceat.  ``stacked_measures`` holds each row's atom
    measure.  ``stacked_maps[n]`` maps each leaf to its A_n
    row (less ``level_offsets[n]``, the index of that atom in level order),
    ``stacked_atoms`` each row to its atom id, ``stacked_parents`` each row
    of level n >= 1 to the row of the A_{n-1} atom holding it (the
    root row to itself), and ``stacked_children`` each row of levels
    0..N-1 to the row of its first A_{n+1} atom, so that the rows of one
    parent's children are one reduceat segment.  ``diagonal_starts`` holds
    each stacked row's first leaf plus n * L for level n: its boundary in
    row n of leaf rows laid end to end, unpadded.
    All arrays are read-only.
    """

    measures: np.ndarray
    atom_measures: np.ndarray
    spans: np.ndarray
    event_atoms: np.ndarray
    event_levels: np.ndarray
    event_rows: np.ndarray
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


# Column names and dtypes, in constructor order after delta and depth.
_COLUMNS = (
    ("a", np.float64),
    ("b", np.float64),
    ("level", np.intp),
    ("parent", np.intp),
    ("child_starts", np.intp),
    ("children", np.intp),
)


@dataclass(frozen=True, eq=False)
class Filtration:
    """Immutable towers of one depth, stored as columns indexed by atom id.

    Atom i is [a[i], b[i]) at ``level[i]``, with parent ``parent[i]`` (-1 at
    a root) and children ``children[child_starts[i]:child_starts[i + 1]]``
    in their given order.  Tower t is the id range from its root
    ``atom_offsets[t]`` up to ``atom_offsets[t + 1]``; every root sits at
    level 0 and every tower splits at every level below ``depth``.  Tower
    t's leaves start at ``leaf_offsets[t]`` and its A_n atoms are one run of
    the level-n stacked rows (``tower_rows``); one tower reads ``[0, n]``,
    ``[0, L]`` and every row.  ``total_measure`` and ``filtration_to_dict``
    refuse several towers.  The constructor copies
    the columns, makes them read-only and validates every tower.  Eq is by
    object identity on purpose: the derived leaf layout is built once and
    kept on the object.
    """

    delta: float
    depth: int
    a: np.ndarray
    b: np.ndarray
    level: np.ndarray
    parent: np.ndarray
    child_starts: np.ndarray
    children: np.ndarray
    atom_offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name, dtype in _COLUMNS:
            object.__setattr__(self, name, _frozen(np.array(getattr(self, name), dtype=dtype)))
        object.__setattr__(self, "atom_offsets", _frozen(np.concatenate((_validate(self), [self.n_atoms]))))

    @classmethod
    def stack(cls, delta: float, depth: int, parts: Sequence[tuple]) -> Filtration:
        """The towers of ``parts`` laid end to end, validated once.  A part is
        the six columns of towers in constructor order (``columns``), its ids
        from 0; part k's ids move by the atoms of the parts before it."""
        if not parts:
            raise FiltrationError("a stack needs at least one tower")
        a, b, level, parent, starts, kids = ([np.asarray(x) for x in col] for col in zip(*parts))
        first, kid_first = (_offsets([len(x) for x in col]).tolist() for col in (a, kids))
        parent = [np.where(p < 0, p, p + k) for p, k in zip(parent, first)]
        starts = [s[:-1] + k for s, k in zip(starts, kid_first)] + [kid_first[-1:]]
        kids = [c + k for c, k in zip(kids, first)]
        return cls(delta, depth, *(np.concatenate(col) for col in (a, b, level, parent, starts, kids)))

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        """The six columns in constructor order."""
        return tuple(getattr(self, name) for name, _ in _COLUMNS)

    @property
    def n_atoms(self) -> int:
        return len(self.a)

    @cached_property
    def leaf_offsets(self) -> np.ndarray:
        """Each tower's first leaf position (its root's span), then L."""
        return _frozen(np.append(self.layout.spans[self.atom_offsets[:-1], 0], self.n_leaves))

    @cached_property
    def n_leaves(self) -> int:
        return _leaf_count(self.child_starts)

    def _require_one_tower(self) -> None:
        towers = len(self.atom_offsets) - 1
        if towers != 1:
            raise FiltrationError(f"a filtration of {towers} towers has no single root")

    @property
    def total_measure(self) -> float:
        self._require_one_tower()
        return float(self.b[0] - self.a[0])

    @cached_property
    def layout(self) -> LeafLayout:
        """Leaf spans, stacked rows and split events; built on first use."""
        return _build_layout(self)

    def tower_rows(self, levels: int) -> tuple[np.ndarray, np.ndarray]:
        """The stacked rows of levels 0..levels-1 tower by tower, each
        tower's in its own layout's order (a stable sort by tower), and the
        towers + 1 boundaries of the towers' runs in that list."""
        lay = self.layout
        atoms = lay.stacked_atoms[: lay.level_offsets[levels]]
        tower = np.searchsorted(self.atom_offsets, atoms, side="right") - 1
        counts = np.bincount(tower, minlength=len(self.atom_offsets) - 1)
        return np.argsort(tower, kind="stable"), _offsets(counts)


def _leaf_count(child_starts) -> int:
    """The leaves of a child offset table: the atoms whose offsets repeat."""
    return int(np.count_nonzero(np.diff(child_starts) == 0))


def _offsets(sizes) -> np.ndarray:
    """0 followed by the running sums of ``sizes``."""
    return np.concatenate(([0], np.cumsum(sizes, dtype=np.intp)))


def _sorted_children(f: Filtration, owner: np.ndarray) -> np.ndarray:
    """The children column with each atom's children ordered by (a, id):
    the column itself when it already is, as in the builders' towers."""
    kids = f.children
    kid_a = f.a[kids]
    # Rising a within each atom is the builders' case; ties fall to the sort.
    if not np.count_nonzero((kid_a[1:] <= kid_a[:-1]) & (owner[1:] == owner[:-1])):
        return kids
    return kids[np.lexsort((kids, kid_a, owner))]


def _validate(f: Filtration) -> np.ndarray:
    """Array passes over the columns of every tower at once, each check
    naming the smallest atom id it flags and its tower; returns the roots.
    The children's sort and the floor's roundoff allowance are computed
    only where a cheaper pass finds something to flag."""
    if not (0.0 < f.delta <= 0.5):
        raise FiltrationError(f"delta must lie in (0, 1/2], got {f.delta}")
    if f.depth < 1:
        raise FiltrationError(f"depth must be >= 1, got {f.depth}")
    n = f.n_atoms
    if not n:
        raise FiltrationError("empty atom list")
    a, b, level, parent, starts, kids = f.a, f.b, f.level, f.parent, f.child_starts, f.children
    if (
        (a.ndim, b.ndim, level.ndim, parent.ndim, starts.ndim, kids.ndim) != (1,) * 6
        or not len(b) == len(level) == len(parent) == len(starts) - 1 == n
        or starts[0] != 0
        or starts[-1] != len(kids)
        or (n_kids := starts[1:] - starts[:-1]).min() < 0
    ):
        raise FiltrationError("columns need one row per atom and child offsets rising from 0")
    # Each tower is the id range from its root up to the next root.
    if parent[0] >= 0:
        raise FiltrationError("atom 0 has a parent: each tower must start at its root")
    is_root = parent < 0
    tower, roots = is_root.cumsum(), is_root.nonzero()[0]  # atom i is in tower tower[i] - 1

    def check(bad: np.ndarray, message: str, ids: np.ndarray | None = None) -> None:
        """Raise ``message`` naming the smallest atom flagged (of ``ids``) and its tower."""
        if np.count_nonzero(bad):
            atom = bad.argmax() if ids is None else ids[bad].min()
            raise FiltrationError(f"{message.format(atom=int(atom))} in tower {tower[atom] - 1}")

    message = "need exactly one root atom at level 0: atom {atom} is a root at another level"
    check(level[roots] != 0, message, roots)
    owner = np.arange(n).repeat(n_kids)
    if (len(kids) and (kids.min() < 0 or kids.max() >= n)) or parent.min() < -1 or parent.max() >= n:
        bad = np.concatenate(((kids < 0) | (kids >= n), (parent < -1) | (parent >= n)))
        message = "atom ids must be dense 0..len-1 in order: atom {atom} names an id out of range"
        check(bad, message, np.concatenate((owner, np.arange(n))))

    measure = b - a
    check(~(b > a), "atom {atom} has nonpositive measure")
    check(n_kids == 1, "atom {atom} has exactly one child")
    split = n_kids.nonzero()[0]
    check(level[split] >= f.depth, "atom {atom} splits past the final level", split)
    # Each child names its owner, sits one level below it and in its tower,
    # and every atom but a root is listed exactly once, under its parent.
    wrong = (parent[kids] != owner) | (level[kids] != level[owner] + 1) | (tower[kids] != tower[owner])
    orphan = (np.bincount(kids, minlength=n) != 1) & (parent >= 0)
    ids = np.concatenate((owner, parent))
    check(np.concatenate((wrong, orphan)), "child bookkeeping broken at atom {atom}", ids)
    del wrong, orphan, ids  # each group's length-n temporaries go before the next group's

    # In (a, id) order the children chain from their atom's a to its b:
    # each child's a meets the b before it, its atom's a for the first.
    tol = _GEOM_TOL * np.maximum(measure, 1.0)
    split_tol, head = tol[split], starts[split]
    ordered = _sorted_children(f, owner)
    before = np.empty(len(ordered))
    before[1:], before[head] = b[ordered[:-1]], a[split]
    joint = abs(a[ordered] - before) > tol[owner]
    end = abs(b[ordered[starts[1:][split] - 1]] - b[split]) > split_tol
    check(joint[head] | end, "children do not span atom {atom}", split)
    check(joint, "children leave a gap inside atom {atom}", owner)
    del tol, ordered, before, joint
    kid_m, owner_m = measure[kids], measure[owner]
    sums = np.add.reduceat(kid_m, head) if len(split) else kid_m[:0]
    check(abs(sums - measure[split]) > split_tol, "child measures do not sum inside atom {atom}", split)
    # The floor holds up to the roundoff of the endpoint differences: the
    # b - a of rounded endpoints is off by up to eps * (|a| + |b|), which
    # alone breaks a fixed 1e-12 on the ratios of deep equal splits.  That
    # allowance only lowers the floor, so it is computed where a ratio is
    # below the floor without it.
    ratio, floor = kid_m / owner_m, f.delta - _GEOM_TOL
    if np.count_nonzero(ratio < floor):
        roundoff = _EPS * (abs(a) + abs(b))
        low = ratio < floor - (roundoff[kids] + roundoff[owner]) / owner_m
        if low.any():
            atom = owner[low].min()
            worst = ratio[(low & (owner == atom)).argmax()]
            where = f"atom {atom} in tower {tower[atom] - 1}"
            raise FiltrationError(f"child ratio {worst:.3e} below delta at {where}")

    # Strictly increasing towers: some atom of each must split at every
    # level n < N.  The ancestors of a tower's deepest atom split at every
    # level above it and no atom splits at its level, which must be N.
    deepest = np.maximum.reduceat(level, roots)
    if np.count_nonzero(deepest < f.depth):
        t = int((deepest < f.depth).argmax())
        raise FiltrationError(f"no split at level {deepest[t]} in tower {t}; tower not strictly increasing")
    return roots


# ---------------------------------------------------------------------------
# Builders


def build_dyadic(depth: int) -> Filtration:
    """Uniform binary filtration of [0, 1).  Every atom above the final level
    splits in half; endpoints are exact binary fractions.  Ids run depth
    first, left child first: atom i at level l < depth has children i + 1
    and i + 2**(depth - l).  Filled in one level at a time."""
    if not (1 <= depth <= 20):
        raise FiltrationError(f"dyadic depth must be in [1, 20], got {depth}")
    n = 2 ** (depth + 1) - 1
    a, b = np.empty(n), np.empty(n)
    level, parent = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    ids = np.zeros(1, dtype=np.intp)  # the atoms of level l, left to right
    parent[0] = -1
    for lv in range(depth + 1):
        pos = np.arange(len(ids))
        a[ids] = pos * 0.5**lv
        b[ids] = (pos + 1) * 0.5**lv
        level[ids] = lv
        if lv < depth:
            kids = np.column_stack((ids + 1, ids + 2 ** (depth - lv))).ravel()
            parent[kids] = np.repeat(ids, 2)
            ids = kids
    split = np.flatnonzero(level < depth)
    return Filtration(
        delta=0.5,
        depth=depth,
        a=a,
        b=b,
        level=level,
        parent=parent,
        child_starts=np.concatenate(([0], np.cumsum(2 * (level < depth)))),
        children=np.column_stack((split + 1, split + 2 ** (depth - level[split]))).ravel(),
    )


def build_random_regular(
    depth: int,
    delta: float,
    max_children: int,
    split_prob: float,
    seed: int,
) -> Filtration:
    """Seeded random filtration of [0, 1) with child ratios >= delta.

    At each level, every atom created at that level splits with probability
    split_prob into k ~ U{2..max_children} children; if no atom volunteers,
    one is forced so the tower keeps growing.  Ratios are uniform on the
    simplex truncated at delta (``_ratio_sampler``); the exactly-critical
    case k * delta == 1 degenerates to the unique equal split.

    Splits run left to right and append their children, so each level's
    atoms have rising ids and endpoints, the children of every atom are
    consecutive ids, and the children column is 1..n-1.
    """
    return Filtration(delta, depth, *_random_columns(depth, delta, max_children, split_prob, seed))


def _random_columns(depth: int, delta: float, max_children: int, split_prob: float, seed: int) -> tuple:
    """The six columns of ``build_random_regular``'s tower in constructor
    order, drawn but not validated (a stack validates many at once)."""
    if not (1 <= depth <= 12):
        raise FiltrationError(f"random depth must be in [1, 12], got {depth}")
    if not (0.0 < delta <= 0.5):
        raise FiltrationError(f"delta must lie in (0, 1/2], got {delta}")
    if max_children < 2:
        raise FiltrationError(f"max_children must be >= 2, got {max_children}")
    draws = {k: _ratio_sampler(k, delta) for k in range(2, max_children + 1)}  # refuses k > max_parts
    if not (0.0 <= split_prob <= 1.0):
        raise FiltrationError(f"split_prob must lie in [0, 1], got {split_prob}")

    rng = np.random.default_rng(seed)
    integers, top = rng.integers, max_children + 1
    a, b, level, parent, n_kids = [0.0], [1.0], [0], [-1], [0]
    first = 0  # the atoms of the current level, candidates to split, are ids first..
    for lv in range(1, depth + 1):
        current = range(first, len(a))
        coins = rng.random(len(current)).tolist()
        chosen = [i for i, c in zip(current, coins) if c < split_prob]
        if not chosen:
            chosen = [current[int(integers(len(current)))]]
        first = len(a)
        for i in chosen:
            k = int(integers(2, top))
            lo, hi = a[i], b[i]
            width, cut = hi - lo, 0.0
            a.append(lo)
            for r in draws[k](rng)[:-1]:
                cut += r  # the running sum np.cumsum forms, term by term
                a.append(lo + width * cut)
                b.append(a[-1])
            b.append(hi)
            parent += [i] * k
            n_kids[i] = k
        n_kids += [0] * (len(a) - first)
        level += [lv] * (len(a) - first)
    return a, b, level, parent, list(accumulate(n_kids, initial=0)), np.arange(1, len(a))


# The ratio draw's kind by the chance that a Dirichlet row is accepted: at
# or above ``_ROW_ACCEPT`` rows one at a time, below it blocks of
# ``_RATIO_BLOCK`` rows, below ``_AFFINE_ACCEPT`` (over 1,000 expected rows)
# the affine row.  A block costs a rewind (2.6 us to save and restore the
# generator) and a dozen array calls however many rows it needs.  Per call
# on a 2-vCPU Xeon guest (numpy 2.4, minimum of 9 interleaved runs), rows
# against blocks: 7.4 against 16.6 us at chance 0.216 (k = 4, delta = 0.1),
# 11.1 against 11.9 at 0.1 (k = 2, delta = 0.45), 20.3 against 15.3 at
# 0.0625 (k = 3, delta = 0.25), where blocks of 48 to 128 rows cost the same.
_RATIO_BLOCK = 64
_ROW_ACCEPT = 0.125
_AFFINE_ACCEPT = 1e-3
# Dirichlet rows a rejection draw tries before it draws the affine row; at
# least 1, as the affine row is the first row of ``_rows`` at floor 0.
_RATIO_BUDGET = 10_000


def _ratio_sampler(k: int, delta: float) -> Callable:
    """The draw of one split's k ratios at floor delta, a function of the
    generator: the uniform law on the truncated simplex {x_i >= delta,
    sum x_i = 1}, by a kind fixed by the chance (1 - k delta)^(k - 1) that
    a Dirichlet(1, ..., 1) row lies in it.  Rejection keeps the first such
    row of at most ``_RATIO_BUDGET``, one at a time (``_rows``) or in blocks
    (``_blocks``) with the same bits; the affine row delta + (1 - k delta) D
    of one Dirichlet row D is the law in one draw (Devroye, *Non-Uniform
    Random Variate Generation*, 1986, ch. V).  A k above ``max_parts`` has
    no such row and is refused."""
    if k > max_parts(delta):
        raise FiltrationError(f"infeasible: {k} parts of at least delta = {delta:.6g} exceed 1")
    room = 1.0 - k * delta
    if room < 1e-9:  # k = max_parts(delta) at a critical floor: the one point, the equal split
        return lambda rng: [1.0 / k] * k
    chance = room ** (k - 1)
    if chance < _AFFINE_ACCEPT:
        return partial(_affine_row, k=k, delta=delta)
    return partial(_rows if chance >= _ROW_ACCEPT else _blocks, k=k, delta=delta)


def _affine_row(rng: np.random.Generator, k: int, delta: float) -> list[float]:
    """delta + (1 - k * delta) * D for D one Dirichlet(1, ..., 1) row, the
    first row of ``_rows`` at floor 0, which accepts every row."""
    room = 1.0 - k * delta
    return [delta + room * x for x in _rows(rng, k, 0.0)]


def _rows(rng: np.random.Generator, k: int, delta: float) -> list[float]:
    """Rejection, one Dirichlet row at a time: k standard exponentials times
    the reciprocal of their running sum, as numpy forms the row.  Rounding
    is monotone, so a row's smallest ratio is its smallest exponential
    times the reciprocal, and a row is rejected on that."""
    exponentials, out = rng.standard_exponential, np.empty(k)
    for _ in range(_RATIO_BUDGET):
        e = exponentials(out=out).tolist()
        total = 0.0
        for v in e:
            total += v
        scale = 1.0 / total
        if min(e) * scale >= delta:
            return [v * scale for v in e]
    return _affine_row(rng, k, delta)


def _blocks(rng: np.random.Generator, k: int, delta: float) -> list[float]:
    """Rejection in blocks of rows.  Row j of a block is the row a one-row
    loop would draw j-th, but a block overshoots the accepted row; so the
    generator is rewound and exactly the rows up to the accepted one are
    drawn again, leaving it where ``_rows`` would."""
    for done in range(0, _RATIO_BUDGET, _RATIO_BLOCK):
        n = min(_RATIO_BLOCK, _RATIO_BUDGET - done)
        state = rng.bit_generator.state
        e = rng.standard_exponential((n, k))
        columns = e.T
        total, low = columns[0] + columns[1], np.minimum(columns[0], columns[1])
        for column in columns[2:]:  # each row's running sum, and its smallest
            total += column
            np.minimum(low, column, out=low)
        scale = 1.0 / total
        hits = (np.multiply(low, scale, out=low) >= delta).nonzero()[0]
        if hits.size:
            hit = int(hits[0])
            rng.bit_generator.state = state
            rng.standard_exponential((hit + 1) * k)
            s = float(scale[hit])
            return [v * s for v in e[hit].tolist()]
    return _affine_row(rng, k, delta)


# ---------------------------------------------------------------------------
# Derived structure


def split_schedule(f: Filtration) -> tuple[int, ...]:
    """Deterministic one-split-at-a-time refinement from {I} to the leaves,
    as the ids of the split atoms.

    Events are ordered by (level of the split atom, left endpoint); each
    replaces one atom of the current partition by its children.  Read off
    the layout's event atoms.
    """
    return tuple(f.layout.event_atoms.tolist())


def level_partition(f: Filtration, n: int) -> np.ndarray:
    """The atom ids of A_n in left-endpoint order: a read-only view of the
    layout's stacked rows."""
    if not (0 <= n <= f.depth):
        raise FiltrationError(f"level {n} outside [0, {f.depth}]")
    lay = f.layout
    return lay.stacked_atoms[lay.level_offsets[n] : lay.level_offsets[n + 1]]


def _segments(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the ranges starts[j]:starts[j] + lengths[j] laid end to
    end, and the range j each index comes from."""
    owner = np.arange(len(lengths)).repeat(lengths)
    begin = lengths.cumsum() - lengths
    return np.arange(len(owner)) + (starts - begin).repeat(lengths), owner


def _build_layout(f: Filtration) -> LeafLayout:
    """Array passes over the columns.  Level by level from the roots (A_0),
    A_{n+1} is A_n with every atom that splits replaced by its children in
    left-endpoint order, so each A_n row holds one block of A_{n+1} rows;
    the leaf counts then sum block by block from the leaves up.  Laid end to
    end in stacked rows, the cumulative counts in row order give every
    atom's span, since each level tiles the L leaves in left-endpoint
    order, root after root."""
    n_kids = f.child_starts[1:] - f.child_starts[:-1]
    ordered = _sorted_children(f, np.arange(f.n_atoms).repeat(n_kids))
    # An atom that splits expands to its ordered children, any other to itself.
    pool = np.concatenate((ordered, np.arange(f.n_atoms)))
    expand = np.where(n_kids > 0, f.child_starts[:-1], len(ordered) + np.arange(f.n_atoms))
    blocks = np.maximum(n_kids, 1)
    rows = [f.atom_offsets[:-1]]
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
    stacked = np.arange(offsets[-1])
    row_level = np.arange(len(sizes)).repeat(sizes)
    stacked_atoms = np.concatenate(rows)
    diagonal_starts = leaves_in.cumsum() - leaves_in
    first_leaf = diagonal_starts - row_level * n_leaves
    spans = np.empty((f.n_atoms, 2), dtype=np.intp)
    spans[stacked_atoms, 0] = first_leaf
    spans[stacked_atoms, 1] = first_leaf + leaves_in
    stacked_maps = _frozen(stacked.repeat(leaves_in).reshape(len(sizes), n_leaves))
    # Row r of level n is boundary r + n, after n sentinels.
    stacked_starts = np.full(offsets[-1] + len(sizes), n_leaves)
    stacked_starts[stacked + row_level] = first_leaf
    # Atoms split at the level they are created, so the events of level n
    # are the A_n atoms with children, in left-endpoint order: the rows
    # with children, in row order.
    split = n_kids[stacked_atoms].nonzero()[0]
    event_atoms = stacked_atoms[split]
    event_sizes = n_kids[event_atoms]
    # The row of the atom holding each row's first leaf one level up, or down.
    parents = stacked_maps[np.maximum(row_level - 1, 0), first_leaf]
    below = offsets[-2]
    children = stacked_maps[row_level[:below] + 1, first_leaf[:below]]
    return LeafLayout(
        measures=_frozen(atom_measure[rows[-1]]),
        atom_measures=_frozen(atom_measure),
        spans=_frozen(spans),
        event_atoms=_frozen(event_atoms),
        event_levels=_frozen(row_level[split]),
        event_rows=_frozen(split),
        event_children=_frozen(f.children[_segments(f.child_starts[event_atoms], event_sizes)[0]]),
        event_child_starts=_frozen(np.concatenate(([0], event_sizes.cumsum()))),
        level_offsets=_frozen(offsets),
        stacked_starts=_frozen(stacked_starts),
        diagonal_starts=_frozen(diagonal_starts),
        stacked_measures=_frozen(atom_measure[stacked_atoms]),
        stacked_maps=stacked_maps,
        stacked_atoms=_frozen(stacked_atoms),
        stacked_parents=_frozen(parents),
        stacked_children=_frozen(children),
    )


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# Report payload


def filtration_to_dict(f: Filtration) -> dict:
    """JSON-ready payload of a filtration of one tower: delta, depth and
    every atom, read off the columns."""
    f._require_one_tower()
    bounds = f.child_starts.tolist()
    kids = f.children.tolist()
    return {
        "delta": f.delta,
        "depth": f.depth,
        "atoms": [
            {
                "id": i,
                "a": a,
                "b": b,
                "level": level,
                "parent": None if parent < 0 else parent,
                "children": kids[lo:hi],
            }
            for i, (a, b, level, parent, lo, hi) in enumerate(
                zip(f.a.tolist(), f.b.tolist(), f.level.tolist(), f.parent.tolist(), bounds, bounds[1:])
            )
        ],
    }
