"""Named identity and inequality suites over a witness triple.

Each suite takes a ``bellman.Witness`` (f, g, T), a ``Tolerances`` and a
generator, returns rows of the form {check, max_err, tol, ok, detail} and
never raises on a violation: callers decide what a red row means.  The
suites cover the split-difference projection algebra, transform
localization, predictable support, the oscillation series, the x2 drop
accounting, nonnegativity of the x2 slot, the one-sided restriction bound,
and the L2 contraction.

``run_all`` builds one witness at p = 2 from (f, g, T), and every suite
reads T* g and the moment table from it, so one ``run_all`` call computes
T* g once, through the closed form ``adjoint_closed_form``, and the table
once.  T f goes through the multiplier formula ``apply``; no suite
builds the dense matrix.
The dense routes (``matrix_apply``, ``adjoint_apply``, the SVD norm
``operator_norm``) are test oracles: the tests compare them with the
production routes, on the whole acceptance corpus among others.

A note on the restriction bound: localizing g to an atom J and measuring
the oscillation of T* applied to the localized function over the whole
interval picks up contributions from strict ancestors of J, so equality
with the local oscillation fails in general; only the <= direction holds,
and that is the direction the nonnegativity of x2 rests on.  The suite
tests the inequality.  Cutting the centered function (g - <g>_J) 1_J instead
gives equality exactly; ``restriction_identity_gaps`` measures that identity
and the exact size of the uncentered slack, outside the registered suites.
``hoelder_mean_margin``, the mean bound probe of the acceptance gate, is the
other unregistered probe.

The per-event suites do not loop over split events.  The single-split
differences of all events at level n have disjoint supports and sum to the
level difference E_{n+1} - E_n, so one level difference carries every event
of its level, and sums over an event's atom are one ``np.add.reduceat``
over the level's atoms.  Inputs that differ per event (the random pieces of
the localization suite, the cut functions of the restriction bound) are
supported in the event's atom J, so the inputs of one level share one leaf
array.  Levels below J see only J's leaves: one pass of the level's array
through them serves every event of the level, from J's own reduceat
segments.  Levels above J see only J's sum, so T or T* of the input is
constant on J and on each ring K_j - K_{j+1} of J's ancestor chain: O(depth)
numbers per event from the chain's measures and multipliers.  That is
O(L * depth^2) per witness; no event gets an L-leaf array of its own.  The
tests keep the per-event route, one full-length input per event through
the transform kernels, as an oracle.  The x2 suites read every atom's x2
and every event's displacement and x2 gain off the witness's moment table,
the arrays the certifier uses.

No suite walks the levels one kernel call at a time where the martingale
kernel's stacked pass serves: the level differences of a function are one
(depth, L, d) array, a stack with one level per row (the localization
draws, the projection pieces) goes through the diagonal route, and sums
whose row n runs over the A_n atoms (the self-adjoint pairings, the
oscillation pieces) are one diagonal reduceat.  Each level's accumulation
keeps its order, so every row's max_err is the per-level loop's float.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .bellman import Witness
from .filtration import Filtration, level_partition
from .martingale import (
    MartFunction,
    _atom_steps,
    _diagonal_steps,
    _diagonal_sums,
    _event_draws,
    _level_differences,
    average,
    inner,
    l2_norm,
    lp_norm,
)
from .transforms import EventRuns, MartingaleTransform, predictable_hull, split_multiplier_norm
from .corpus import active_split_function, random_function

__all__ = [
    "Tolerances",
    "SUITES",
    "run_all",
    "restriction_identity_gaps",
    "hoelder_mean_margin",
]


@dataclass(frozen=True)
class Tolerances:
    """Absolute tolerance rungs; ``scale`` multiplies every rung."""

    scale: float = 1.0

    @property
    def exact(self) -> float:
        # Identities that hold by cancellation of identical accumulations.
        return 1e-12 * self.scale

    @property
    def tight(self) -> float:
        return 1e-9 * self.scale

    @staticmethod
    def from_env() -> "Tolerances":
        scale = float(os.environ.get("MBL_TOL", "1.0"))
        if not (scale > 0.0 and math.isfinite(scale)):
            raise ValueError(f"MBL_TOL must be a positive finite scale, got {scale}")
        return Tolerances(scale=scale)


def _atom_sums(filt: Filtration, per_leaf: np.ndarray, n: int) -> np.ndarray:
    """Sums of a per-leaf array over every A_n atom, in level order."""
    return np.add.reduceat(per_leaf, filt.layout.level_starts[n], axis=-1)


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


def _row(name: str, err: float, tol: float, detail: str = "") -> dict:
    return {
        "check": name,
        "max_err": float(err),
        "tol": float(tol),
        "ok": bool(err <= tol),
        "detail": detail,
    }


def check_projections(w: Witness, tol: Tolerances, rng: np.random.Generator) -> list[dict]:
    """Split differences behave as orthogonal projections with mutually
    orthogonal ranges, and they telescope the centered function.

    Level n's difference carries the pieces of every event at level n.  Two
    pieces on disjoint atoms pair to an exact zero, so orthogonality is
    measured on the nested pairs: an event at level n against its ancestor
    at each level k < n, summed over the event's atom.  The level
    differences of f and of the auxiliary draw are one stack each, and the
    level-n difference of every piece n is one diagonal pass over the
    pieces.
    """
    f = w.f
    filt = f.filtration
    lay = filt.layout
    m = filt.leaf_measures()
    scale = max(1.0, l2_norm(f) ** 2)
    aux = random_function(filt, f.dim, rng)
    pieces = _level_differences(filt, f.values)
    other = _level_differences(filt, aux.values)

    again = np.take(_diagonal_steps(filt, pieces), lay.stacked_maps[1:], axis=0)
    idem = float(np.max(np.abs(again - pieces)))
    lhs = _diagonal_sums(filt, np.einsum("nij,ij->ni", pieces, aux.values))
    rhs = _diagonal_sums(filt, np.einsum("ij,nij->ni", f.values, other))
    selfadj = float(np.max(np.abs(lhs - rhs)))

    ortho = 0.0
    for n in range(1, filt.depth):
        pairs = np.concatenate(
            (
                np.einsum("kij,ij->ki", pieces[:n], other[n]),
                np.einsum("ij,kij->ki", pieces[n], other[:n]),
            )
        )
        ortho = max(ortho, float(np.max(np.abs(_atom_sums(filt, m * pairs, n)))))

    total = pieces.sum(axis=0)
    centered = f.shift(-average(f, filt.root.id))
    tele = float(np.max(np.abs(total - centered.values)))

    return [
        _row("projection_idempotent", idem, tol.tight, "delta applied twice"),
        _row("projection_self_adjoint", selfadj, tol.tight * scale, "pairing symmetry"),
        _row("projection_orthogonal", ortho, tol.tight * scale, "cross pairings"),
        _row("projection_telescoping", tele, tol.tight * max(1.0, scale), "sum of pieces"),
    ]


def check_localization(w: Witness, tol: Tolerances, rng: np.random.Generator) -> list[dict]:
    """Single-split inputs localize: T of a split difference at J is
    supported in J, and the adjoint commutes with the split difference up to
    the multiplier of that atom.

    Each event draws random values on J's leaves only, in schedule order
    (``_event_draws``: one normal draw of sum |J| rows over all events), and
    its piece is the split difference of that draw at J.  T of the piece is
    read outside J only, where the levels below J see nothing and levels
    1..n see the piece's sum over J, roundoff of the mean-zero piece.  The
    full-length route, one transform of an L-leaf piece per event, is kept
    in the tests as an oracle.
    """
    filt, op = w.f.filtration, w.op
    lay = filt.layout
    draws = _event_draws(filt, np.arange(len(lay.event_atoms)), w.f.dim, rng)
    runs = w.event_runs
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
    dsg, dtg = (_atom_steps(filt, v) for v in (w.g.values, w.tstar_g.values))
    below = lay.level_offsets[1]  # the root row has no step
    err = dtg[below:] - op.step_multipliers[below:] * dsg[below:]
    commute = float(np.max(np.abs(err)))
    return [
        _row("localization_support", outside, tol.exact, "T of split piece outside atom"),
        _row("localization_adjoint", commute, tol.tight, "adjoint split vs multiplier"),
    ]


def check_support(w: Witness, tol: Tolerances, rng: np.random.Generator) -> list[dict]:
    """Transforms of functions built from a known active split set stay
    supported in the union of those atoms, exactly."""
    filt = w.f.filtration
    h, active = active_split_function(filt, w.f.dim, rng)
    th = w.op.apply(h)
    covered = np.zeros(filt.n_leaves, dtype=bool)
    for atom_id in active:
        covered[filt.leaf_slice(atom_id)] = True
    err = 0.0
    if (~covered).any():
        err = float(np.max(np.abs(th.values[~covered])))

    hull = predictable_hull(h)
    hull_err = 0.0
    for level_atoms in hull:
        for atom_id in level_atoms:
            if atom_id not in active:
                hull_err += 1.0
    return [
        _row("support_containment", err, tol.exact, f"{len(active)} active atoms"),
        _row("support_hull", hull_err, 0.0, "hull atoms outside the active set"),
    ]


def check_osc_series(w: Witness, tol: Tolerances, rng: np.random.Generator) -> list[dict]:
    """Mean squared oscillation over an atom equals the normalized sum of
    squared split differences of atoms inside it.

    The series is summed up the tree level by level: each A_{n+1} atom lies
    inside the A_n atom that holds its first leaf, and an A_n atom splits
    when it holds more than one A_{n+1} atom.
    """
    filt = w.f.filtration
    lay = filt.layout
    osc2 = w.table.osc2
    steps = _atom_steps(filt, w.tstar_g.values)
    sq = np.take(np.einsum("ij,ij->i", steps, steps), lay.stacked_maps[1:], axis=0)
    piece_sums = _diagonal_sums(filt, sq)
    series = np.zeros(filt.n_leaves)
    err = 0.0
    for n in range(filt.depth - 1, -1, -1):
        piece_sq = piece_sums[lay.level_offsets[n] : lay.level_offsets[n + 1]]
        container = lay.stacked_maps[n][lay.level_starts[n + 1]] - lay.level_offsets[n]
        series = piece_sq + np.bincount(container, weights=series, minlength=len(piece_sq))
        split = np.bincount(container, minlength=len(piece_sq)) > 1
        direct = osc2[level_partition(filt, n)[split]]
        rel = np.abs(direct - series[split] / lay.level_measures[n][split]) / np.maximum(1.0, direct)
        err = max(err, float(np.max(rel)))
    return [_row("osc_series", err, tol.tight, "series vs direct, relative")]


def check_x2_drop(w: Witness, tol: Tolerances, rng: np.random.Generator) -> list[dict]:
    """Across one split the weighted x2 of the children exceeds the parent
    x2 by exactly the squared displacement."""
    table = w.table
    d_sq = table.d * table.d
    err = float(np.max(np.abs(table.x2_gain - d_sq) / np.maximum(1.0, d_sq), initial=0.0))
    return [_row("x2_drop", err, tol.tight, "weighted x2 gain vs d^2, relative")]


def check_x2_sign(w: Witness, tol: Tolerances, rng: np.random.Generator) -> list[dict]:
    """The x2 slot is nonnegative on every atom (oscillation of the adjoint
    never exceeds the local second moment of g)."""
    table = w.table
    worst = float(np.min(table.x2 / np.maximum(table.g2, 1e-300), initial=0.0))
    rows = [_row("x2_sign", max(0.0, -worst), tol.exact, "most negative x2, relative")]
    # root form keeps the squared mean of the adjoint on the right hand side
    root = w.f.filtration.root.id
    mean_sq = float(np.sum(table.tstar_mean[root] ** 2))
    rows.append(
        _row(
            "x2_root_mean_bound",
            max(0.0, mean_sq - table.x2[root]),
            1e-10 * tol.scale,
            "squared adjoint mean minus root x2",
        )
    )
    return rows


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


def _restriction_sides(w: Witness) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per non-root split atom J, in schedule order: the mean <g>_J, the
    local side osc2(T* g, J) and the rescaled global side
    (|I|/|J|) osc2(T*(g 1_J), I)."""
    g, op, runs = w.g, w.op, w.event_runs
    filt = g.filtration
    measures = runs.measures[:, -1]
    cut_osc, _ = _cut_adjoints(op, runs, g.values[:, 0], np.zeros(len(measures)))
    weights = filt.layout.measures[runs.leaf]
    mean_g = runs.sums(weights * g.values[runs.leaf, 0]) / measures
    tstar_g = w.tstar_g.values[runs.leaf]
    mean = runs.sums(weights[:, None] * tstar_g) / measures[:, None]
    centered = tstar_g - mean[runs.owner]
    local = runs.sums(weights * np.einsum("ij,ij->i", centered, centered)) / measures
    return mean_g, local, (filt.total_measure / measures) * cut_osc


def check_restriction(w: Witness, tol: Tolerances, rng: np.random.Generator) -> list[dict]:
    """One-sided restriction bound: the local oscillation of T* g over J is
    dominated by the rescaled global oscillation of T* applied to g cut to
    J.  Ancestor splits make the global side strictly larger in general.

    Both sides read the witness's T* g, and the cuts go through the
    per-level kernel of ``_cut_adjoints``; the full-length route, one L-leaf
    cut per event through the adjoint, is kept in the tests as an oracle.
    """
    _, local, glob = _restriction_sides(w)
    worst = float(np.max((local - glob) / np.maximum(1.0, local), initial=0.0))
    return [_row("restriction_bound", worst, tol.tight, "local minus rescaled global")]


def restriction_identity_gaps(g: MartFunction, op: MartingaleTransform) -> tuple[float, float]:
    """Worst relative gaps, over the non-root split atoms J, in the two exact
    restriction identities; both are roundoff on a correct transform.

    With c = <g>_J, the centered cut (g - c) 1_J has no mass on any split
    outside J, so T* localizes:

        osc2(T* g, J) = (|I|/|J|) osc2(T*((g - c) 1_J), I).

    The uncentered cut g 1_J lets the strict ancestors of J see c, and the
    rescaled global side exceeds the local one by exactly c^2 ||T* 1_J||^2/|J|.

    Returns (centered gap relative to the larger side, defect gap relative to
    max(1, defect)).  Not a registered suite, so ``run_all`` rows do not
    include it.
    """
    filt = g.filtration
    w = Witness(None, g, op)
    runs = w.event_runs
    measures = runs.measures[:, -1]
    c, local, glob = _restriction_sides(w)
    centered_osc, _ = _cut_adjoints(op, runs, g.values[:, 0], c)
    centered = (filt.total_measure / measures) * centered_osc
    scale = np.maximum(np.maximum(local, centered), 1e-30)
    centered_worst = float(np.max(np.abs(local - centered) / scale, initial=0.0))
    _, ones_sq = _cut_adjoints(op, runs, np.ones(filt.n_leaves), np.zeros(len(c)))
    defect = c * c * ones_sq / measures
    gap = np.abs((glob - local) - defect) / np.maximum(1.0, defect)
    return centered_worst, float(np.max(gap, initial=0.0))


def hoelder_mean_margin(
    f: MartFunction, g: MartFunction, op: MartingaleTransform, p: float, q: float
) -> float:
    """How far |<f>_I . <T* g>_I| sits above ||f||_p ||g||_q / |I|;
    nonpositive when the Hoelder mean bound holds.  Not a registered suite,
    so ``run_all`` rows do not include it."""
    filt = f.filtration
    root = filt.root.id
    lhs = abs(float(np.dot(average(f, root), average(Witness(f, g, op, p).tstar_g, root))))
    rhs = lp_norm(f, p) * lp_norm(g, q) / filt.total_measure
    return lhs - rhs


def check_contraction(w: Witness, tol: Tolerances, rng: np.random.Generator) -> list[dict]:
    """Norm bound, witness ratio, and duality of the two applications.

    The operator norm is ``split_multiplier_norm``, the largest split-atom
    multiplier, which equals ||T|| exactly; the pairing sets <Tf, g> from
    ``apply`` against <f, T* g> from the closed-form adjoint.  No dense
    matrix and no SVD: the tests hold both against the dense oracle.
    """
    f, g = w.f, w.g
    norm = split_multiplier_norm(w.op)
    tf = w.op.apply(f)
    ratio = l2_norm(tf) / max(l2_norm(f), 1e-300)
    pair = abs(inner(tf, g) - inner(f, w.tstar_g)) / max(1.0, abs(inner(tf, g)))
    return [
        _row("contraction_norm", max(0.0, norm - 1.0), tol.tight, "operator norm minus 1"),
        _row("contraction_ratio", max(0.0, ratio - 1.0), tol.tight, "witness ratio minus 1"),
        _row("adjoint_pairing", pair, tol.tight, "duality of the two applications"),
    ]


SUITES = {
    "projections": check_projections,
    "localization": check_localization,
    "support": check_support,
    "osc_series": check_osc_series,
    "x2_drop": check_x2_drop,
    "x2_sign": check_x2_sign,
    "restriction": check_restriction,
    "contraction": check_contraction,
}


def run_all(
    f: MartFunction,
    g: MartFunction,
    op: MartingaleTransform,
    tol: Tolerances | None = None,
    rng: np.random.Generator | None = None,
    suites: list[str] | None = None,
) -> tuple[list[dict], bool]:
    """Rows of the named suites (every suite by default) in order, and
    whether all of them are ok; an unknown suite name is a KeyError."""
    tol = tol or Tolerances()
    rng = rng if rng is not None else np.random.default_rng(0)
    w = Witness(f, g, op)
    rows: list[dict] = []
    for name in suites or list(SUITES):
        if name not in SUITES:
            raise KeyError(f"unknown check suite '{name}'; known: {sorted(SUITES)}")
        rows.extend(SUITES[name](w, tol, rng))
    return rows, all(r["ok"] for r in rows)
