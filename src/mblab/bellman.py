"""Bellman points, candidate functions, and the weighted split inequality.

A witness triple (f, g, T) and an atom J compress into a four-component
point

    x = ( <f>_J,  <g^2>_J - osc_J^2(T* g),  <|f|^p>_J,  <|g|^q>_J ),

with q the conjugate exponent of p.  These points live in the convex domain

    x2 >= 0,   |x1|^p <= x3,   x2^q <= x4^2.

``moment_table`` computes the point of every atom, one row (x1..., x2, x3,
x4) of ``points`` each, <g>_J, the atom steps of f, T* g and g, and, for
every split event J, the displacement d_J, the pairing of the split
differences of f and T* g, and the x2 gain of the split, in one stacked
pass of the martingale kernel over all levels.  A ``Witness`` is the one
form of a triple: it checks (f, g, T), names their tower ``filtration``,
and derives T* g, that table, the event runs and the restriction sides
once each, for every suite, probe and certificate that reads them; one
atom's moment point is ``table.points[atom]``.

A candidate function B is tested against the split inequality: whenever
points x^1..x^N and weights lambda_k >= delta (summing to one) satisfy

    sum_k lambda_k x^k - x = (0, d^2, 0, 0),

an admissible B must obey

    B(x) >= |d| * diam{x1^1..x1^N} + sum_k lambda_k B(x^k).

``SplitConfigs`` holds configurations as rows, their points in the
(x1..., x2, x3, x4) layout of the expansion tree's levels.  ``_diameters``
(the one diameter rule) and ``_weighted_sums`` evaluate the right-hand
side over rows of child points: ``certify`` passes one row per split
event, ``split_slack`` and ``estimate_rescale_constant`` one per
configuration.

The module also implements the constructive rescaling route: a configuration
with dyadic weights a_k / 2^M is expanded into 2^M copies, sorted along the
diameter direction of the x1 cloud, halved, and recombined through a binary
midpoint tree, held as one array of block means per tree level.  The
separation of the half means against the cloud diameter is the measured
constant that prices moving a candidate from the balanced regime
delta = 1/2 down to smaller regularity floors, one expansion per row.
``estimate_rescale_constant`` prices the same move exactly: the slack of
C * B is affine in C, so the smallest C is one ratio over the
configurations that fail at C = 1; a non-finite slack raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .filtration import Filtration, _frozen, _Lazy, max_parts
from .martingale import MartFunction, _diagonal_sums, _level_steps, _stacked_means
from .reporting import Verbatim, _format_float, _format_floats
from .transforms import EventChains, MartingaleTransform, _cut_adjoints, _event_chains

__all__ = [
    "BellmanCandidate",
    "conjugate_exponent",
    "Witness",
    "quadratic_candidate",
    "linear_candidate",
    "sample_dyadic_split_configs",
    "dyadic_expand",
    "recombine_slack",
    "estimate_rescale_constant",
    "expansion_to_dict",
]

_DOMAIN_TOL = 1e-12
_DISPLACEMENT_TOL = 1e-10

# A candidate's scalar arguments and result: one float, or an array of them.
Values = np.ndarray | float


def conjugate_exponent(p: float) -> float:
    if not (1.0 < p <= 2.0):
        raise ValueError(f"p must lie in (1, 2], got {p}")
    return p / (p - 1.0)


@dataclass(frozen=True, eq=False)
class MomentTable:
    """Moment points of every atom and split data of every event, for one
    witness (f, g, T) at the exponent p its ``Witness`` holds, which sets
    x3 and x4.

    Atom arrays are indexed by atom id: ``points`` (atoms, dim + 3), rows
    (x1..., x2, x3, x4), ``g2`` = <g^2>_J, ``g_mean`` = <g>_J, ``tstar_mean``
    = <T* g>_J (atoms, dim) and ``osc2``, the mean squared oscillation of
    T* g over J, so that x2 = g2 - osc2.  ``steps`` (rows, 2 dim + 1) holds
    E_n - E_{n-1} of f, T* g and g by stacked row (the layout's ``stacked_*``
    arrays), not by atom id.  Event arrays follow the schedule order: the
    displacement ``d``, the normalized ``pairing`` of the split differences
    of f and T* g, and ``x2_gain``, the weighted x2 of the children minus
    the x2 of the split atom, which equals d^2 exactly.
    """

    points: np.ndarray
    g2: np.ndarray
    tstar_mean: np.ndarray
    osc2: np.ndarray
    d: np.ndarray
    pairing: np.ndarray
    x2_gain: np.ndarray
    g_mean: np.ndarray
    steps: np.ndarray

    @property
    def root_mean_pairing(self) -> float:
        """|<f>_I . <T* g>_I|, the pairing of the root means (the root of a
        witness's one tower is atom 0)."""
        x1 = self.points[0, : self.tstar_mean.shape[1]]
        return abs(float(np.dot(x1, self.tstar_mean[0])))

    def check_x2(self, atoms=slice(None)) -> None:
        """Raise ArithmeticError at the first of ``atoms`` (all by default)
        whose x2 lies below roundoff of zero."""
        ids = np.arange(len(self.g2))[atoms]
        x2 = self.points[ids, -3]
        bad = (x2 < -1e-12 * np.maximum(self.g2[ids], 1.0)).nonzero()[0]
        if bad.size:
            raise ArithmeticError(
                f"negative x2 = {float(x2[bad[0]]):.3e} at atom {int(ids[bad[0]])}; "
                "adjoint accounting is broken"
            )


def moment_table(f: MartFunction, g: MartFunction, tstar_g: MartFunction, p: float) -> MomentTable:
    """All moment points, atom steps and split data of a witness in one pass.

    The measure-weighted leaf columns f, T* g, g, g^2, |f|^p and |g|^q are
    averaged over the atoms of every level at once, in the layout's stacked
    rows (one reduceat at the stacked boundaries; a column's means do not
    depend on the others), which gives x1, <g>_J, <g^2>_J, x3 and x4 of
    every row and the atom steps E_n - E_{n-1} of f, T* g and g.  The leaf
    expectations of T* g at every level are one take of the means; osc2 of
    T* g and the split pairings, each row of levels 0..N-1 with the next
    level's steps, are one diagonal reduceat each, row n summed over the A_n
    atoms.  The children's x2 of every row are one reduceat over its
    children's rows.  Every float is the one the level-by-level pass gave; a
    persisting atom has the same floats in each of its rows.
    """
    filt = f.filtration
    lay = filt.layout
    dim, q, gv = f.dim, conjugate_exponent(p), g.values[:, 0]
    f_p = np.linalg.norm(f.values, axis=1) ** p
    columns = np.column_stack((f.values, tstar_g.values, gv, gv * gv, f_p, np.abs(gv) ** q))
    means = _stacked_means(filt, columns)
    below = lay.level_offsets[-2]  # rows of levels 0..N-1

    centered = means[:, dim : 2 * dim].take(lay.stacked_maps, axis=0)
    np.subtract(tstar_g.values, centered, out=centered)
    osc2 = _diagonal_sums(filt, np.einsum("nij,nij->ni", centered, centered)[..., None])[:, 0]
    del centered
    osc2 /= lay.stacked_measures
    x2 = means[:, -3] - osc2

    steps = _level_steps(filt, means[:, : 2 * dim + 1])
    df, dg = steps[:, :dim], steps[:, dim : 2 * dim]
    pair = np.column_stack((np.einsum("ij,ij->i", dg, dg), np.einsum("ij,ij->i", df, dg)))
    pair_means = _diagonal_sums(filt, pair.take(lay.stacked_maps[1:], axis=0))
    pair_means /= lay.stacked_measures[:below, None]
    kids_x2 = np.add.reduceat(lay.stacked_measures * x2, lay.stacked_children)
    gain = kids_x2 / lay.stacked_measures[:below] - x2[:below]

    rows = np.empty((filt.n_atoms, 2 * dim + 6))  # x1, x2, x3, x4, g2, <T* g>, <g>, osc2
    # A persisting atom has the same floats in each of its rows.
    rows[lay.stacked_atoms] = np.column_stack(
        (means[:, :dim], x2, means[:, -2:], means[:, -3], means[:, dim : 2 * dim + 1], osc2)
    )
    events = lay.event_rows
    return MomentTable(
        points=rows[:, : dim + 3],
        g2=rows[:, dim + 3],
        tstar_mean=rows[:, dim + 4 : 2 * dim + 4],
        osc2=rows[:, 2 * dim + 5],
        d=np.sqrt(np.maximum(pair_means[events, 0], 0.0)),
        pairing=pair_means[events, 1],
        x2_gain=gain[events],
        g_mean=rows[:, 2 * dim + 4],
        steps=steps,
    )


@dataclass(frozen=True, eq=False)
class Witness:
    """A witness triple (f, g, T) at exponent p on one tower,
    ``filtration``, with the objects the suites, probes and certificates
    read derived once each, on first use:
    ``tf``, T f, ``tstar_g``, T* g through the closed form
    ``adjoint_closed_form``, ``table``, the ``moment_table`` at p and the
    one source of atom means and steps, ``event_chains``, T's split events
    as stacked rows with their ancestor chains, and ``restriction_sides``.
    The objects live as long as the witness, so the suites, the certificate
    and the probes that share one witness build each once between them.  A
    witness takes only f, g and T on one filtration of one tower, g scalar
    and T of the dimension of f.  The table's x2, d and x2 gains do not
    depend on p.
    """

    f: MartFunction
    g: MartFunction
    op: MartingaleTransform
    p: float = 2.0

    def __post_init__(self) -> None:
        if not (self.g.filtration is self.f.filtration is self.op.filtration):
            raise ValueError("witness components live on different filtrations")
        self.filtration._require_one_tower()
        if self.g.dim != 1:
            raise ValueError("g must be scalar valued")
        if self.f.dim != self.op.dim:
            raise ValueError(f"f has dim {self.f.dim} but the transform expects {self.op.dim}")

    @property
    def filtration(self) -> Filtration:
        return self.f.filtration

    @cached_property
    def tf(self) -> MartFunction:
        return self.op.apply(self.f)

    @cached_property
    def tstar_g(self) -> MartFunction:
        return self.op.adjoint_closed_form(self.g)

    @cached_property
    def table(self) -> MomentTable:
        return moment_table(self.f, self.g, self.tstar_g, self.p)

    @cached_property
    def event_chains(self) -> EventChains:
        return _event_chains(self.op)

    @cached_property
    def restriction_sides(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per non-root split atom J, in schedule order: the mean <g>_J and
        the local side osc2(T* g, J), both read off the table, and the
        rescaled global side (|I|/|J|) osc2(T*(g 1_J), I), from one
        ``_cut_adjoints`` pass of the uncentered cuts."""
        chains, filt, table = self.event_chains, self.filtration, self.table
        measures = chains.measures[:, -1]
        cut_osc, _ = _cut_adjoints(self.op, chains, self.g.values[:, 0], np.zeros(len(measures)))
        atoms = filt.layout.event_atoms[filt.layout.event_levels > 0]
        return table.g_mean[atoms], table.osc2[atoms], (filt.total_measure / measures) * cut_osc


# The witness of the last (f, g, T, p) asked for, kept for the next call:
# ``checks.run_all`` then ``certifier.certify`` on one triple derive T f,
# T* g and the table once between them.  Functions and transforms are
# immutable and compare by identity, so another object or another p misses;
# ``typed`` keeps p = 2 and p = 2.0 apart.  One entry holds at most one
# witness beyond what callers hold.
_shared_witness = lru_cache(maxsize=1, typed=True)(Witness)


def in_bellman_domain(x: np.ndarray, p: float, tol: Values = _DOMAIN_TOL) -> np.ndarray:
    """Membership of moment rows (..., dim + 3) in the closed moment domain,
    up to an absolute slack ``tol``, one value or one per row.  Every test
    accepts with ``<=`` or ``>=``, so a NaN fails it."""
    x1, x2, x3, x4 = x[..., :-3], x[..., -3], x[..., -2], x[..., -1]
    return (
        (np.minimum(np.minimum(x2, x3), x4) >= -tol)
        & (np.vecdot(x1, x1) ** (p / 2.0) <= x3 + tol)
        & (np.maximum(x2, 0.0) ** conjugate_exponent(p) <= x4 * x4 + tol)
    )


# ---------------------------------------------------------------------------
# Candidates


@dataclass(frozen=True)
class BellmanCandidate:
    """Callable candidate with its claimed exponent and regularity floor.

    ``fn(x1, x2, x3, x4)`` takes one point, x1 of shape (dim,) and scalars,
    or many at once, x1 of shape (..., dim) and arrays of shape (...), and
    then returns their values; each value has the bits of the one-point
    call.  ``evaluate`` takes moment rows (..., dim + 3).
    ``cp`` is populated for candidates of the separated shape
    B(x) = cp * (x3 + x4) - h(x1, x2); the duality estimator needs it.
    """

    fn: Callable[[np.ndarray, Values, Values, Values], Values]
    p: float
    delta: float
    label: str
    cp: float | None = None

    def evaluate(self, x: np.ndarray) -> Values:
        return self.fn(x[..., :-3], x[..., -3], x[..., -2], x[..., -1])


def shaped_candidate(
    cp: float,
    h: Callable[[np.ndarray, Values], Values],
    p: float,
    delta: float,
    label: str,
) -> BellmanCandidate:
    """Candidate of the separated shape cp * (x3 + x4) - h(x1, x2); ``h``
    takes one point or many, as ``BellmanCandidate.fn`` does."""

    def fn(x1: np.ndarray, x2: Values, x3: Values, x4: Values) -> Values:
        return cp * (x3 + x4) - h(x1, x2)

    return BellmanCandidate(fn=fn, p=p, delta=delta, label=label, cp=cp)


def quadratic_candidate(delta: float, p: float = 2.0, cp: float | None = None) -> BellmanCandidate:
    """Reference admissible candidate for p = 2 at regularity floor delta:

        B(x) = alpha * (x3 + x4) - alpha * (|x1|^2 + x2),  alpha = 1 / sqrt(2 delta).

    The quadratic penalty absorbs the diameter gain: for any admissible
    configuration the two diameter endpoints carry weight >= delta, so the
    x1 spread contributes at least delta * diam^2 / 2 of convexity excess,
    and together with the d^2 shift in x2 this dominates |d| * diam exactly
    when alpha * sqrt(2 delta) >= 1.  For p < 2 the same shape violates the
    boundary sign condition at large |x1|; pass an explicit cp to use it as
    a bounded-range demonstration candidate.
    """
    if not (0.0 < delta <= 0.5):
        raise ValueError(f"delta must lie in (0, 1/2], got {delta}")
    alpha = 1.0 / math.sqrt(2.0 * delta)
    if cp is None:
        if p != 2.0:
            raise ValueError("for p != 2 an explicit cp must be supplied")
        cp = alpha

    def h(x1: np.ndarray, x2: Values) -> Values:
        # vecdot of a row rounds like np.dot of the same vector
        return alpha * (np.vecdot(x1, x1) + x2)

    return shaped_candidate(cp=cp, h=h, p=p, delta=delta, label=f"quadratic(delta={delta:g})")


def linear_candidate(cp: float, p: float, delta: float) -> BellmanCandidate:
    """cp * (x3 + x4): continuous and boundary nonnegative, but carries no
    penalty term, so every split with d != 0 and spread children defeats it."""
    return shaped_candidate(
        cp=cp, h=lambda x1, x2: 0.0, p=p, delta=delta, label=f"linear(cp={cp:g})"
    )


# ---------------------------------------------------------------------------
# Split configurations


@dataclass(frozen=True, eq=False)
class SplitConfigs:
    """Instances of the split-inequality hypothesis, one per row: ``points``
    (rows, k, dim + 3) the split targets x^1..x^N as (x1..., x2, x3, x4),
    ``weights`` (rows, k) the lambdas (each >= delta, summing to one), ``d``
    (rows,) the displacement scales and ``base`` (rows, dim + 3) the
    sources, base = sum_k lambda_k x^k - (0, d^2, 0, 0).  A weight of
    exactly zero marks a cell without a part: its point takes no part in
    any check, sum or diameter.  The checks run in turn over all rows, and
    the first one violated raises, naming the first row that fails it;
    each accepts with <= or >=, so NaN fails it."""

    delta: float
    p: float
    points: np.ndarray
    weights: np.ndarray
    d: np.ndarray
    base: np.ndarray

    def __post_init__(self) -> None:
        for name in ("points", "weights", "d", "base"):
            object.__setattr__(self, name, _frozen(np.array(getattr(self, name), dtype=float)))
        rows, k, width = self.points.shape
        shapes = (self.weights.shape, self.d.shape, self.base.shape)
        if shapes != ((rows, k), (rows,), (rows, width)):
            raise ValueError("points, weights, d and base shapes do not match")
        has, parts, w, delta = self.has, self.parts, self.weights, self.delta
        # Every point and the base, each within 1e-9 of its scale
        # max(1, |x1|, |x2|, |x3|, |x4|) of the domain.
        x = np.concatenate((self.points, self.base[:, None]), axis=1)
        scale = np.maximum(np.linalg.norm(x[..., :-3], axis=-1), np.abs(x[..., -3:]).max(axis=-1))
        scale = np.maximum(1.0, scale)
        counted = np.column_stack((has, np.ones(rows, dtype=bool)))
        inside = (in_bellman_domain(x, self.p, 1e-9 * scale) | ~counted).all(axis=1)
        gap = self.displacement_residual()
        checks = (
            (parts >= 2, "a split configuration needs at least two points"),
            (parts <= max_parts(delta), f"more than floor(1/delta) parts at delta={delta}"),
            (((w >= delta - 1e-12) | ~has).all(axis=1), f"a weight below delta={delta}"),
            (np.abs(w.sum(axis=1) - 1.0) <= 1e-10, "weights do not sum to 1"),
            (inside, "a point or the base outside the moment domain"),
            (gap <= _DISPLACEMENT_TOL * scale[:, -1], "displacement identity violated"),
        )
        for ok, message in checks:
            if not ok.all():
                raise ValueError(f"configuration {np.argmin(ok)}: {message}")

    @cached_property
    def has(self) -> np.ndarray:  # (rows, k): the cells that hold a part
        return self.weights != 0.0

    @property
    def parts(self) -> np.ndarray:
        return self.has.sum(axis=1)

    def __len__(self) -> int:
        return len(self.weights)

    def displacement_residual(self) -> np.ndarray:
        """Per row, the max gap in sum_k lambda_k x^k - base = (0, d^2, 0, 0)."""
        gap = _weighted_sums(self.weights, self.has, self.points) - self.base
        gap[:, -3] -= self.d**2
        return np.abs(gap).max(axis=1)


def _weighted_sums(weights: np.ndarray, has: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_k weights[r, k] * values[r, k] over the cells with ``has[r, k]``,
    for each row r, adding the terms in order as a loop would; ``values``
    (rows, k, ...) may carry trailing axes."""
    tail = (-1,) + (1,) * (values.ndim - 2)
    total = np.zeros((len(has), *values.shape[2:]))
    for k in range(has.shape[1]):
        term = total + weights[:, k].reshape(tail) * values[:, k]
        total = np.where(has[:, k].reshape(tail), term, total)
    return total


def _diameters(
    x1: np.ndarray, has: np.ndarray, return_pairs: bool = False
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """The diameter rule of the split inequality, for many splits at once.

    Row r of ``x1`` (rows, k, dim) holds one split's child x1 points, of
    which those with ``has[r]`` (rows, k) set take part.  Returns each row's
    largest pairwise distance, and with ``return_pairs`` also the first
    pair (i, j), i < j in row-major order, that attains it: a later pair
    replaces the best only when strictly farther, so a row whose points all
    coincide gives (0.0, (0, 0)).  A distance is
    ``np.sqrt(np.vecdot(diff, diff))``, which rounds like ``np.linalg.norm``
    of that one difference.
    """
    i, j = np.array(list(combinations(range(has.shape[1]), 2))).T
    diff = x1[:, i] - x1[:, j]
    dist = np.where(has[:, i] & has[:, j], np.sqrt(np.vecdot(diff, diff)), 0.0)
    diam = np.fmax.reduce(dist, axis=1, initial=0.0)
    if not return_pairs:
        return diam
    first = np.argmax(dist == diam[:, None], axis=1)
    return diam, np.where(diam[:, None] > 0.0, np.column_stack((i[first], j[first])), 0)


def _split_terms(
    cand: BellmanCandidate, cfgs: SplitConfigs
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """B(base), |d| * diam{x1^k} and sum_k lambda_k B(x^k) of each row, with
    one candidate call on the points and one on the bases; ``has`` masks
    out the cells without a part."""
    diam = _diameters(cfgs.points[..., :-3], cfgs.has)
    kid_sum = _weighted_sums(cfgs.weights, cfgs.has, cand.evaluate(cfgs.points))
    return cand.evaluate(cfgs.base), np.abs(cfgs.d) * diam, kid_sum


def split_slack(cand: BellmanCandidate, cfgs: SplitConfigs) -> np.ndarray:
    """Signed slack of the split inequality, one per row; admissible
    candidates keep it nonnegative up to roundoff."""
    base, d_diam, kid_sum = _split_terms(cand, cfgs)
    return base - d_diam - kid_sum


# ---------------------------------------------------------------------------
# Samplers


def _sample_rows(
    delta: float,
    p: float,
    count: int,
    seed: int,
    dim: int,
    n_cap: int,
    draw_weights: Callable[[np.random.Generator, int], np.ndarray],
) -> SplitConfigs:
    """``count`` configurations of 2..n_cap parts, one row at a time: the
    part count n, the weights ``draw_weights(rng, n)``, each point's x1, x3,
    x2 and x4, then d uniform in [0, sum_k lambda_k x2^k]; the base is the
    row's in-order weighted sum with d^2 taken off its x2."""
    if not (1 <= dim <= 4):
        raise ValueError(f"dim must lie in [1, 4], got {dim}")
    q = conjugate_exponent(p)
    rng = np.random.default_rng(seed)
    points, weights = np.zeros((count, n_cap, dim + 3)), np.zeros((count, n_cap))
    d, base = np.zeros(count), np.zeros((count, dim + 3))
    for r in range(count):
        n = int(rng.integers(2, n_cap + 1))
        weights[r, :n] = draw_weights(rng, n)
        for k in range(n):
            x1 = rng.normal(size=dim)
            x3 = np.linalg.norm(x1) ** p + 0.5 * rng.exponential()
            x2 = float(0.8 * abs(rng.normal()))
            points[r, k] = (*x1, x2, x3, x2 ** (q / 2.0) + 0.5 * rng.exponential())
        base[r] = sum(weights[r, :n, None] * points[r, :n])
        d[r] = math.sqrt(rng.uniform(0.0, base[r, dim])) if base[r, dim] > 0 else 0.0
        base[r, dim] -= float(d[r]) ** 2
    return SplitConfigs(delta, p, points, weights, d, base)


def sample_split_configs(
    delta: float,
    p: float,
    count: int,
    seed: int,
    dim: int = 1,
) -> SplitConfigs:
    """Seeded admissible configurations with Dirichlet-spread weights."""
    n_max = max_parts(delta)
    if n_max < 2:
        raise ValueError(f"delta={delta} admits no configuration with >= 2 parts")
    spread = lambda rng, n: delta + (1.0 - n * delta) * rng.dirichlet(np.ones(n))
    return _sample_rows(delta, p, count, seed, dim, n_max, spread)


def sample_dyadic_split_configs(
    delta: float,
    p: float,
    count: int,
    seed: int,
    dim: int = 1,
    m: int = 6,
) -> SplitConfigs:
    """Configurations whose weights are a_k / 2^m with every a_k >= delta * 2^m."""
    if not (1 <= m <= 16):
        raise ValueError(f"m must lie in [1, 16], got {m}")
    b = 2**m
    a_min = max(1, math.ceil(delta * b - 1e-9))
    n_cap = min(max_parts(delta), b // a_min)
    if n_cap < 2:
        raise ValueError(f"no dyadic split with 2 parts at delta={delta}, m={m}")
    # A multinomial of zero trials draws nothing from the generator.
    dyadic = lambda rng, n: (a_min + rng.multinomial(b - n * a_min, np.full(n, 1.0 / n))) / b
    return _sample_rows(delta, p, count, seed, dim, n_cap, dyadic)


# Diameters of the extremal configurations.
_ADVERSARIAL_SCALES = (0.5, 1.0, 2.0)


def adversarial_split_configs(delta: float, p: float, dim: int = 1) -> SplitConfigs:
    """Extremal-geometry configurations that pin the worst case of
    quadratic-penalty candidates, one row per diameter D in
    ``_ADVERSARIAL_SCALES``.

    For delta <= 1/3: two weight-delta points at the ends of a diameter and
    the rest of the mass at the mean, which minimizes the x1 variance at
    fixed diameter, Var = v * D^2 with v = delta / 2.  Above 1/3 only two
    parts fit, with the lighter one at the floor, and v = delta (1 - delta).
    The displacement is d = sqrt(v) * D, where |d| * D / (Var + d^2), the
    scale a quadratic-penalty candidate needs, peaks at 1 / (2 sqrt(v));
    random sampling alone stays far from this corner.  Each point lies on
    the first axis with x2 = d^2, x3 = |x1|^p and x4 = (d^2)^(q/2); the base
    has x2 = 0.
    """
    if not (1 <= dim <= 4):
        raise ValueError(f"dim must lie in [1, 4], got {dim}")
    q = conjugate_exponent(p)
    if max_parts(delta) >= 3:
        fracs, weights, v = (0.0, 1.0, 0.5), (delta, delta, 1.0 - 2.0 * delta), delta / 2.0
    else:
        fracs, weights, v = (0.0, 1.0), (delta, 1.0 - delta), delta * (1.0 - delta)
    d = [math.sqrt(v) * scale for scale in _ADVERSARIAL_SCALES]
    pad = [0.0] * (dim - 1)
    points = np.array([
        [(x, *pad, dr * dr, abs(x) ** p, (dr * dr) ** (q / 2.0)) for x in np.multiply(fracs, s)]
        for s, dr in zip(_ADVERSARIAL_SCALES, d)
    ])
    base = np.array([sum(w * pt for w, pt in zip(weights, row)) for row in points])
    base[:, dim] = 0.0
    return SplitConfigs(delta, p, points, np.tile(weights, (len(d), 1)), np.array(d), base)


# ---------------------------------------------------------------------------
# Dyadic expansion


@dataclass(frozen=True, eq=False)
class ExpansionCertificate:
    """Outcome of the copy-sort-halve expansion of a dyadic configuration.

    ``sorted_copies`` (copies, dim + 3) holds the copies' points in sorted
    order.  The binary midpoint tree is ``levels``, built from them on first
    read: ``levels[k]`` is the (2^k, dim + 3) array of the depth-k nodes,
    left to right, each row the uniform mean (x1, x2, x3, x4) of a block of
    copies / 2^k consecutive sorted copies, with weight 2^-k.  The children
    of row i are rows 2i and 2i + 1 of the next level; ``levels[1]`` holds
    the two half means and ``levels[m]`` the sorted copies themselves.
    """

    m: int
    copies: int
    order: tuple[int, ...]  # sorted copy order, entries = original point index
    sorted_copies: np.ndarray
    separation: float
    diameter: float
    ratio: float | None
    degenerate: bool

    @cached_property
    def levels(self) -> tuple[np.ndarray, ...]:
        # The 2^k nodes at depth k average consecutive blocks of b / 2^k copies.
        full, b = self.sorted_copies, self.copies
        return tuple(full.reshape(2**k, b >> k, -1).mean(axis=1) for k in range(self.m + 1))


# Floats of sorted copies one block of configurations expands at once, at
# most (or one configuration, where one is larger): 128 kB.  lemma1's 500
# configurations of 4 columns at m = 6 make eight blocks, and expanding
# them peaks at 0.26 MB traced (0.89 MB in blocks four times as large).
_EXPAND_FLOATS = 1 << 14


def dyadic_expand(cfgs: SplitConfigs, m: int) -> Sequence[ExpansionCertificate]:
    """Expand each row into 2^m copies, sort along the diameter direction,
    halve; raises ValueError naming the first row whose weights are not all
    positive multiples of 2^-m.  Returns one expansion per row, each block
    of rows expanded when one of its rows is read, with its separation from
    the two half means alone: a row's midpoint tree is built only when its
    ``levels`` are read.

    Sort keys are scalar projections of the x1 copies onto the segment
    between the first diameter-realizing pair of ``_diameters``; ties keep
    original copy order.
    """
    b = 2**m
    scaled = cfgs.weights * b
    counts = np.rint(scaled).astype(int)
    ok = ((np.abs(counts - scaled) <= 1e-6) & ((counts >= 1) | ~cfgs.has)).all(axis=1)
    ok &= counts.sum(axis=1) == b
    if not ok.all():
        bad = np.argmin(ok)
        raise ValueError(f"configuration {bad}: weights are not positive multiples of 2^-{m}")
    per_block = max(1, _EXPAND_FLOATS // (b * cfgs.points.shape[-1]))
    block: dict[int, tuple] = {}

    def expand(r: int) -> ExpansionCertificate:
        first = r - r % per_block
        if first not in block:
            block.clear()
            block[first] = _expand_rows(cfgs, counts, m, slice(first, first + per_block))
        owner, full, separation, diameter = (column[r - first] for column in block[first])
        degenerate = diameter <= 0.0
        return ExpansionCertificate(
            m=m,
            copies=b,
            order=tuple(owner.tolist()),
            sorted_copies=full.copy(),
            separation=separation,
            diameter=diameter,
            ratio=None if degenerate else separation / diameter,
            degenerate=degenerate,
        )

    return _Lazy(expand, len(cfgs))


def _expand_rows(
    cfgs: SplitConfigs, counts: np.ndarray, m: int, rows: slice
) -> tuple[np.ndarray, np.ndarray, list[float], list[float]]:
    """The expansions of a slice of rows, in row-batched passes: each row's
    sorted copy owners and sorted copies, separation and diameter.  Each
    sort key is row r's (copies, dim) @ (dim,) product, a stack of the same
    BLAS products; each separation is ``np.vecdot``, which rounds like the
    norm of one row."""
    b = 2**m
    points, has, counts = cfgs.points[rows], cfgs.has[rows], counts[rows]
    n, k = has.shape
    dim = points.shape[-1] - 3
    x1 = points[..., :dim]
    # The pair indexes every cell; a cell without a part has no distance.
    diam, pair = _diameters(x1, has, return_pairs=True)
    degenerate = diam <= 0.0
    every = np.arange(n)[:, None]
    start, end = x1[every, pair].transpose(1, 0, 2)
    u = (end - start) / np.where(degenerate, 1.0, diam)[:, None]
    # Cells without a part have no copies; row r's copies are its cells,
    # each repeated counts[r, cell] times.
    owner = np.repeat(np.tile(np.arange(k), n), counts.ravel()).reshape(n, b)
    keys = np.matmul(x1[every, owner] - start[:, None, :], u[:, :, None])[..., 0]
    keys[degenerate] = 0.0
    owner = np.take_along_axis(owner, np.argsort(keys, axis=1, kind="stable"), axis=1)
    full = points[every, owner]
    # The two half means, the bits of ``levels[1]``.
    halves = full.reshape(n, 2, b >> 1, -1).mean(axis=2)
    gap = halves[:, 0, :dim] - halves[:, 1, :dim]
    return owner, full, np.sqrt(np.vecdot(gap, gap)).tolist(), diam.tolist()


def recombine_slack(
    cand: BellmanCandidate, cfgs: SplitConfigs, certs: Sequence[ExpansionCertificate]
) -> tuple[np.ndarray, np.ndarray]:
    """Rebuild the direct slack of each row out of its expansion tree.

    One application of the two-point split inequality at the top (with the
    full displacement d and the measured separation) plus weighted midpoint
    steps at every lower internal node reproduces the direct slack exactly,
    shifted by |d| * (separation - diameter):

        direct = top + sum_nodes weight * midpoint_slack
                     + |d| * (separation - diameter).

    The candidate is evaluated once per tree level, and the midpoint slacks
    are added level by level.  Returns the (direct, recombined) arrays; the
    two must agree to roundoff for any candidate, admissible or not.
    """
    d, base_values = np.abs(cfgs.d), cand.evaluate(cfgs.base)
    recombined = np.empty(len(certs))
    for r, cert in enumerate(certs):
        vals = [cand.evaluate(lv) for lv in cert.levels]
        top = base_values[r] - d[r] * cert.separation - 0.5 * (vals[1][0] + vals[1][1])
        mids = 0.0
        for k in range(1, cert.m):
            own = vals[k] - 0.5 * (vals[k + 1][0::2] + vals[k + 1][1::2])
            mids += 0.5**k * float(own.sum())
        recombined[r] = float(top) + mids + d[r] * (cert.separation - cert.diameter)
    return split_slack(cand, cfgs), recombined


# ---------------------------------------------------------------------------
# Rescale estimation


@dataclass(frozen=True)
class RescaleEstimate:
    """The rescale constant of a candidate at floor ``delta``.  ``worst``
    indexes the configuration that sets it, the sampled ones first, or is
    None when the constant is 1."""

    constant: float
    delta: float
    p: float
    samples: int
    adversarial: int
    seed: int
    worst: int | None


def estimate_rescale_constant(
    cand: BellmanCandidate,
    delta: float,
    samples: int = 200,
    seed: int = 0,
    dim: int = 1,
) -> RescaleEstimate:
    """Smallest C with C * cand admissible at floor delta on sampled and
    extremal configurations; random draws alone understate it.  The slack
    of C * B is C * gap - |d| * diam, gap = B(base) - sum_k lambda_k B(x^k),
    so C is 1.0 if every slack at C = 1 is at least -1e-9 * max(1, |B(base)|),
    else the largest |d| * diam / gap over the failing configurations.  A
    failing one whose gap is within that roundoff floor, gap <= 1e-9 *
    max(1, |B(base)|), fails at every C up to roundoff, and so does a
    configuration with a non-finite slack: RuntimeError."""
    sampled = sample_split_configs(delta, cand.p, samples, seed, dim=dim)
    adv = adversarial_split_configs(delta, cand.p, dim=dim)
    # The sampled terms first, then the extremal ones, as ``worst`` counts.
    terms = zip(_split_terms(cand, sampled), _split_terms(cand, adv))
    base, d_diam, kid_sum = map(np.concatenate, terms)
    slack, gap = base - d_diam - kid_sum, base - kid_sum
    odd = (~np.isfinite(slack)).nonzero()[0]
    if len(odd):
        i = int(odd[0])
        raise RuntimeError(
            f"no rescale constant makes '{cand.label}' pass at delta={delta}: configuration"
            f" {i} has the non-finite slack {slack[i]}"
        )
    floor = 1e-9 * np.maximum(1.0, np.abs(base))
    failing = (slack < -floor).nonzero()[0]
    constant, worst = 1.0, None
    if len(failing):
        stuck = failing[gap[failing] <= floor[failing]]
        if len(stuck):
            i = int(stuck[0])
            raise RuntimeError(
                f"no rescale constant makes '{cand.label}' pass at delta={delta}: configuration"
                f" {i} has |d| * diam = {d_diam[i]:.6g} and gap {gap[i]:.6g}"
            )
        ratio = d_diam[failing] / gap[failing]
        worst = int(failing[np.argmax(ratio)])
        constant = float(ratio.max())
    return RescaleEstimate(
        constant=constant,
        delta=delta,
        p=cand.p,
        samples=samples,
        adversarial=len(adv),
        seed=seed,
        worst=worst,
    )


# ---------------------------------------------------------------------------
# Report payload


def _point_texts(texts: list[str], dim: int, head: str, ends: list[str]) -> list[str]:
    """The text of each moment point, ``head`` then
    '{"x1":[...],"x2":...,"x3":...,"x4":...' then its entry of ``ends``,
    from the texts of the points' rows (x1, x2, x3, x4) in C order."""
    rows = [texts[j :: dim + 3] for j in range(dim + 3)]
    x1 = rows[0] if dim == 1 else map(",".join, zip(*rows[:dim]))
    return [
        f'{head}{{"x1":[{a}],"x2":{b},"x3":{c},"x4":{e}{end}'
        for a, b, c, e, end in zip(x1, *rows[dim:], ends)
    ]


def expansion_to_dict(cert: ExpansionCertificate) -> dict:
    """JSON-ready payload of an expansion, with its whole midpoint tree as
    nested nodes, each with its point, weight and two children.

    The tree is ``Verbatim`` canonical text written from ``levels``, bottom
    level first: each level is formatted in one call of the writer's float
    rule, and each node's text wraps its two children's."""
    dim = cert.levels[0].shape[1] - 3
    nodes: list[str] = []
    for k in range(cert.m, -1, -1):
        tail = '},"weight":' + _format_float(0.5**k) + ',"children":['
        if k == cert.m:
            ends = [tail + "]}"] * len(cert.levels[k])
        else:
            ends = [f"{tail}{a},{b}]}}" for a, b in zip(nodes[0::2], nodes[1::2])]
        nodes = _point_texts(_format_floats(cert.levels[k]), dim, '{"point":', ends)
    return {
        "m": cert.m,
        "copies": cert.copies,
        "order": list(cert.order),
        "separation": cert.separation,
        "diameter": cert.diameter,
        "ratio": cert.ratio,
        "degenerate": cert.degenerate,
        "tree": Verbatim(nodes[0]),
    }
