"""Named identity and inequality suites over a witness triple.

Each suite takes a ``bellman.Witness`` (f, g, T), a ``Tolerances`` and a
generator, returns rows of the form {check, max_err, tol, ok, detail} and
never raises on a violation: callers decide what a red row means.  The
suites cover the split-difference projection algebra, transform
localization, predictable support, the oscillation series, the x2 drop
accounting, nonnegativity of the x2 slot, the one-sided restriction bound,
and the L2 contraction.

``run_suites`` runs the suites on one witness, and every suite reads T* g
(once, through the closed form ``adjoint_closed_form``) and every atom
mean, step and oscillation of f, g and T* g from it, the last from the
moment table's one stacked pass; ``run_all`` takes the witness of (f, g,
T) at p = 2 first.  ``run_all`` and ``certifier.certify`` share one witness
per (f, g, T, p), the last one ``bellman`` was asked for, so the pair on
one triple derives T f, T* g and the table once.  The two probes read the
same witness, so a caller that hands one witness to the certifier, the
suites and the probes derives each of its objects once.  T f goes through
the multiplier formula ``apply``; no suite builds the dense matrix.
The dense routes (``matrix_apply``, ``adjoint_apply``, and the SVD norm
in ``tests/oracles.py``) are test oracles: the tests compare them with the
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
tests keep the per-event route as an oracle: one full-length input per
event, each through ``apply`` or ``adjoint_closed_form``, which take one
function per call.  The x2 suites read every atom's x2 and every event's
displacement and x2 gain off the witness's moment table, the arrays the
certifier uses.

No suite walks the levels one kernel call at a time where the martingale
kernel's stacked pass serves: the level differences of a function are one
(depth, L, d) array, a stack with one level per row (the localization
draws, the projection pieces) goes through the diagonal route, and sums
whose row n runs over the A_n atoms (the self-adjoint pairings, the
oscillation pieces, every event's piece or cut) are one diagonal reduceat.
Each level's accumulation keeps its order, so every row's max_err is the
per-level loop's float.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .bellman import Witness, _shared_witness, conjugate_exponent
from .filtration import Filtration, _segments
from .martingale import (
    MartFunction,
    _atom_steps,
    _diagonal_steps,
    _diagonal_sums,
    _event_draws,
    _level_differences,
    inner,
    l2_norm,
    lp_norm,
)
from .transforms import (
    MartingaleTransform,
    _ancestor_values,
    _cut_adjoints,
    _steps_hull,
    _transform_steps,
    split_multiplier_norm,
)
from .corpus import active_split_function, random_function

__all__ = [
    "Tolerances",
    "SUITES",
    "run_all",
    "run_suites",
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
    def mean_bound(self) -> float:
        # The root's x2 and the corpus's Hoelder margin against mean bounds.
        return 1e-10 * self.scale

    @property
    def tight(self) -> float:
        return 1e-9 * self.scale

    @property
    def duality(self) -> float:
        # The duality bound's empirical maximum against its analytic bound.
        return 1e-6 * self.scale

    @staticmethod
    def from_env() -> "Tolerances":
        scale = float(os.environ.get("MBL_TOL", "1.0"))
        if not (scale > 0.0 and math.isfinite(scale)):
            raise ValueError(f"MBL_TOL must be a positive finite scale, got {scale}")
        return Tolerances(scale=scale)


def _atom_sums(filt: Filtration, per_leaf: np.ndarray, n: int) -> np.ndarray:
    """Sums of a per-leaf array over every A_n atom, in level order."""
    lo, hi = filt.layout.level_offsets[n : n + 2] + n  # past the n sentinels before level n
    return np.add.reduceat(per_leaf, filt.layout.stacked_starts[lo:hi], axis=-1)


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
    differences of f are one take of the table's steps and those of the
    auxiliary draw one stack.  Piece n and its level-n difference, one
    diagonal pass over the pieces, are constant on the A_{n+1} atoms and
    are compared on those stacked rows.
    """
    f, table = w.f, w.table
    filt = f.filtration
    lay = filt.layout
    m = lay.measures
    scale = max(1.0, l2_norm(f) ** 2)
    aux = random_function(filt, f.dim, rng)
    pieces = table.steps[:, : f.dim].take(lay.stacked_maps[1:], axis=0)
    other = _level_differences(filt, aux.values)

    top = lay.level_offsets[1]
    idem = float(np.abs(_diagonal_steps(filt, pieces)[top:] - table.steps[top:, : f.dim]).max())
    lhs = _diagonal_sums(filt, np.einsum("nij,ij->ni", pieces, aux.values))
    rhs = _diagonal_sums(filt, np.einsum("ij,nij->ni", f.values, other))
    selfadj = float(np.abs(lhs - rhs).max())

    ortho = 0.0
    for n in range(1, filt.depth):
        pairs = np.concatenate(
            (
                np.einsum("kij,ij->ki", pieces[:n], other[n]),
                np.einsum("ij,kij->ki", pieces[n], other[:n]),
            )
        )
        ortho = max(ortho, float(np.abs(_atom_sums(filt, m * pairs, n)).max()))

    total = pieces.sum(axis=0)
    centered = f.values - table.points[0, : f.dim]  # the root is atom 0
    tele = float(np.abs(total - centered).max())

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
    filt, op = w.filtration, w.op
    lay = filt.layout
    draws = _event_draws(filt, np.arange(len(lay.event_atoms)), w.f.dim, rng)
    chains = w.event_chains
    outside = 0.0
    if len(chains.levels):
        # The piece of an event at level n >= 1 is the level-n difference
        # of row n of the draws: on J's leaves, the step of their A_{n+1}
        # row.  Each piece's sum over J is J's segment of its row.
        steps = _diagonal_steps(filt, draws[1:], first=1)
        pieces = steps.take(lay.stacked_maps[2:], axis=0)
        sums = _diagonal_sums(filt, pieces, 1)[chains.rows - lay.level_offsets[1]]
        _, rings = _ancestor_values(chains.mults, sums[:, None, :] / chains.measures[..., None])
        nonempty = chains.measures[:, :-1] > chains.measures[:, 1:]
        outside = float(np.abs(rings.sum(axis=-1)[nonempty]).max(initial=0.0))

    # On an atom J split at level n, the level-n difference is J's split
    # difference, and T* multiplies it by the level-(n+1) multiplier of J:
    # row by row, the step of T* g is a_{n+1}(J) times the step of g.
    dim = w.f.dim
    dtg, dsg = w.table.steps[:, dim : 2 * dim], w.table.steps[:, 2 * dim :]
    below = lay.level_offsets[1]  # the root row has no step
    err = dtg[below:] - op.step_multipliers[below:] * dsg[below:]
    commute = float(np.abs(err).max())
    return [
        _row("localization_support", outside, tol.exact, "T of split piece outside atom"),
        _row("localization_adjoint", commute, tol.tight, "adjoint split vs multiplier"),
    ]


def check_support(w: Witness, tol: Tolerances, rng: np.random.Generator) -> list[dict]:
    """Transforms of functions built from a known active split set stay
    supported in the union of those atoms, exactly, and the predictable
    hull of such a function has no row outside them."""
    filt = w.filtration
    lay = filt.layout
    h, active = active_split_function(filt, w.f.dim, rng)
    steps = _atom_steps(filt, h.values)  # T h and the hull read one pass of h
    th = _transform_steps(w.op, steps)
    spans = lay.spans[active]
    covered = np.zeros(filt.n_leaves, dtype=bool)
    covered[_segments(spans[:, 0], spans[:, 1] - spans[:, 0])[0]] = True
    err = float(np.abs(th[~covered]).max(initial=0.0))

    hull = _steps_hull(filt, h.values, steps)
    inside = np.zeros(filt.n_atoms, dtype=bool)
    inside[active] = True
    hull_err = float(np.count_nonzero(hull & ~inside[lay.stacked_atoms[: len(hull)]]))
    return [
        _row("support_containment", err, tol.exact, f"{len(active)} active atoms"),
        _row("support_hull", hull_err, 0.0, "hull atoms outside the active set"),
    ]


def check_osc_series(w: Witness, tol: Tolerances, rng: np.random.Generator) -> list[dict]:
    """Mean squared oscillation over an atom equals the normalized sum of
    squared split differences of atoms inside it.

    The series is summed up the tree level by level, on the stacked rows
    of A_0..A_{N-1}: each row holds its own pieces and adds its children's
    series in child order, one ``bincount`` per level.  The rows of the
    split events (the layout's ``event_rows``) are compared at once.
    """
    filt, dim = w.filtration, w.f.dim
    lay = filt.layout
    off = lay.level_offsets
    steps = w.table.steps[:, dim : 2 * dim]
    sq = np.einsum("ij,ij->i", steps, steps).take(lay.stacked_maps[1:], axis=0)
    series = _diagonal_sums(filt, sq)
    for n in range(filt.depth - 2, -1, -1):
        lo, hi, end = off[n], off[n + 1], off[n + 2]
        parents = lay.stacked_parents[hi:end] - lo
        series[lo:hi] += np.bincount(parents, weights=series[hi:end], minlength=hi - lo)
    direct = w.table.osc2[lay.event_atoms]
    rel = np.abs(direct - series[lay.event_rows] / lay.stacked_measures[lay.event_rows])
    rel /= np.maximum(1.0, direct)
    err = float(rel.max())  # NaN stays
    return [_row("osc_series", err, tol.tight, "series vs direct, relative")]


def check_x2_drop(w: Witness, tol: Tolerances, rng: np.random.Generator) -> list[dict]:
    """Across one split the weighted x2 of the children exceeds the parent
    x2 by exactly the squared displacement."""
    table = w.table
    d_sq = table.d * table.d
    err = float((np.abs(table.x2_gain - d_sq) / np.maximum(1.0, d_sq)).max(initial=0.0))
    return [_row("x2_drop", err, tol.tight, "weighted x2 gain vs d^2, relative")]


def check_x2_sign(w: Witness, tol: Tolerances, rng: np.random.Generator) -> list[dict]:
    """The x2 slot is nonnegative on every atom (oscillation of the adjoint
    never exceeds the local second moment of g)."""
    table = w.table
    x2 = table.points[:, -3]
    worst = float((x2 / np.maximum(table.g2, 1e-300)).min(initial=0.0))
    # max(x, 0.0) keeps a NaN x: the comparison fails and x is returned.
    rows = [_row("x2_sign", max(-worst, 0.0), tol.exact, "most negative x2, relative")]
    # root form keeps the squared mean of the adjoint on the right hand side;
    # a witness has one tower, whose root is atom 0
    root = 0
    mean_sq = float((table.tstar_mean[root] ** 2).sum())
    rows.append(
        _row(
            "x2_root_mean_bound",
            max(mean_sq - x2[root], 0.0),
            tol.mean_bound,
            "squared adjoint mean minus root x2",
        )
    )
    return rows


def check_restriction(w: Witness, tol: Tolerances, rng: np.random.Generator) -> list[dict]:
    """One-sided restriction bound: the local oscillation of T* g over J is
    dominated by the rescaled global oscillation of T* applied to g cut to
    J.  Ancestor splits make the global side strictly larger in general.

    Both sides are the witness's ``restriction_sides``: the cuts go through
    the per-level kernel of ``_cut_adjoints``; the full-length route, one
    L-leaf cut per event through the adjoint, is kept in the tests as an
    oracle.
    """
    _, local, glob = w.restriction_sides
    worst = float(((local - glob) / np.maximum(1.0, local)).max(initial=0.0))
    return [_row("restriction_bound", worst, tol.tight, "local minus rescaled global")]


def restriction_identity_gaps(w: Witness) -> tuple[float, float]:
    """Worst relative gaps, over the non-root split atoms J, in the two exact
    restriction identities; both are roundoff on a correct transform.

    With c = <g>_J, the centered cut (g - c) 1_J has no mass on any split
    outside J, so T* localizes:

        osc2(T* g, J) = (|I|/|J|) osc2(T*((g - c) 1_J), I).

    The uncentered cut g 1_J lets the strict ancestors of J see c, and the
    rescaled global side exceeds the local one by exactly c^2 ||T* 1_J||^2/|J|.
    Both sides and c are the witness's ``restriction_sides``, the ones the
    restriction suite reads.

    Returns (centered gap relative to the larger side, defect gap relative to
    max(1, defect)).  Not a registered suite, so ``run_all`` rows do not
    include it.
    """
    filt, chains = w.filtration, w.event_chains
    measures = chains.measures[:, -1]
    c, local, glob = w.restriction_sides
    centered_osc, _ = _cut_adjoints(w.op, chains, w.g.values[:, 0], c)
    centered = (filt.total_measure / measures) * centered_osc
    scale = np.maximum(np.maximum(local, centered), 1e-30)
    centered_worst = float((np.abs(local - centered) / scale).max(initial=0.0))
    _, ones_sq = _cut_adjoints(w.op, chains, np.ones(filt.n_leaves), np.zeros(len(c)))
    defect = c * c * ones_sq / measures
    gap = np.abs((glob - local) - defect) / np.maximum(1.0, defect)
    return centered_worst, float(gap.max(initial=0.0))


def hoelder_mean_margin(w: Witness) -> float:
    """How far |<f>_I . <T* g>_I| sits above ||f||_p ||g||_q / |I|, at the
    witness's p and its conjugate q; nonpositive when the Hoelder mean bound
    holds.  Not a registered suite, so ``run_all`` rows do not include it."""
    rhs = lp_norm(w.f, w.p) * lp_norm(w.g, conjugate_exponent(w.p)) / w.filtration.total_measure
    return w.table.root_mean_pairing - rhs


def check_contraction(w: Witness, tol: Tolerances, rng: np.random.Generator) -> list[dict]:
    """Norm bound, witness ratio, and duality of the two applications.

    The operator norm is ``split_multiplier_norm``, the largest split-atom
    multiplier, which equals ||T|| exactly; the pairing sets <Tf, g> from
    ``apply`` against <f, T* g> from the closed-form adjoint.  No dense
    matrix and no SVD: the tests hold both against the dense oracle.
    """
    f, g, tf = w.f, w.g, w.tf
    norm = split_multiplier_norm(w.op)
    ratio = l2_norm(tf) / max(l2_norm(f), 1e-300)
    tf_g = inner(tf, g)
    pair = abs(tf_g - inner(f, w.tstar_g)) / max(1.0, abs(tf_g))
    return [
        _row("contraction_norm", max(norm - 1.0, 0.0), tol.tight, "operator norm minus 1"),
        _row("contraction_ratio", max(ratio - 1.0, 0.0), tol.tight, "witness ratio minus 1"),
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
) -> tuple[list[dict], bool]:
    """Every suite's rows on the witness (f, g, T) at p = 2 (``run_suites``)."""
    return run_suites(_shared_witness(f, g, op, 2.0), tol, rng)


def run_suites(
    w: Witness,
    tol: Tolerances | None = None,
    rng: np.random.Generator | None = None,
    suites: list[str] | None = None,
) -> tuple[list[dict], bool]:
    """Rows of the named suites (every suite by default) on one witness, in
    order, and whether all of them are ok; an unknown suite name is a
    KeyError."""
    tol = tol or Tolerances()
    rng = rng if rng is not None else np.random.default_rng(0)
    rows: list[dict] = []
    for name in suites or list(SUITES):
        if name not in SUITES:
            raise KeyError(f"unknown check suite '{name}'; known: {sorted(SUITES)}")
        rows.extend(SUITES[name](w, tol, rng))
    return rows, all(r["ok"] for r in rows)
