"""Certificate machinery: from a candidate and a witness to a global bound.

The certifier reads the moment table of one ``Witness`` (f, g, T) at the
candidate's exponent in a single array pass, and the certificate keeps that
witness and the candidate (``cert.witness.filtration`` is its tower,
``cert.candidate.label`` its label).  At every split event J
of the refiltration schedule it computes, from the candidate's values on
all atoms and the layout's children, the convex weights of the children,
the displacement scale

    d_J = |J|^{-1/2} || single-split difference of T* g on J ||,

the spread (diameter) of the child x1 components, and the slack of the
split inequality.  Summing the per-split inequalities against the
telescoping of the pairing integral yields

    B(x_root) - objective
        = (1/|I|) [ sum_J |J| slack_J
                    + sum_J |J| (|d_J| diam_J - pairing_J)
                    + sum_leaves |L| B(x_L) ],

an exact bookkeeping identity for any candidate.  The certificate succeeds
when all three bracketed families are nonnegative within tolerance, which
forces objective <= B(x_root).  A failed certificate is a first-class
result: it carries every violating record and the reasons.

The certificate keeps the per-event and per-atom arrays, and the report
text of the records and leaves is written from them and from the moment
table's point rows.  Every float has the bits of a walk over the records
one at a time: distances and |x1|^2 come from ``np.vecdot``, which rounds
like ``np.dot``, and every sum adds its terms in order.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bellman import (
    BellmanCandidate,
    Witness,
    _diameters,
    _point_texts,
    _shared_witness,
    _weighted_sums,
)
from .checks import Tolerances
from .filtration import _Lazy, level_partition
from .martingale import MartFunction, inner
from .reporting import Verbatim, _format_columns, _format_number
from .transforms import MartingaleTransform

__all__ = [
    "Certificate",
    "CertificationError",
    "certify",
    "certificate_to_dict",
]

# About this many floats make one block of a certificate's text, formatted
# in one call: enough that the column kernel's fixed cost stays small
# against them, few enough that a block's texts take little memory.
_BLOCK = 2048


class CertificationError(RuntimeError):
    """Internal identity broke down; the witness data cannot be trusted."""


@dataclass(frozen=True, eq=False)
class Certificate:
    """Outcome of ``certify``.

    ``values`` holds the candidate on every atom, by atom id; ``weights``
    the child weights, flat in the layout's ``event_children`` order; and
    ``diameter`` and ``slack`` one entry per split event in schedule order.
    ``records`` holds one row per split event, the dict
    that CSV output writes, each built when it is read.  The label and
    claimed floor are the candidate's; the exponent and the tower are the
    witness's.
    """

    ok: bool
    candidate: BellmanCandidate
    objective: float
    bound: float
    final_slack: float
    leaf_term: float
    identity_residual: float
    failures: tuple[str, ...]
    witness: Witness
    values: np.ndarray
    weights: np.ndarray
    diameter: np.ndarray
    slack: np.ndarray

    @property
    def first_failure(self) -> str | None:
        return self.failures[0] if self.failures else None

    @property
    def records(self) -> Sequence[dict]:
        return _Lazy(self._row, len(self.slack))

    def _row(self, e: int) -> dict:
        lay, table = self.witness.filtration.layout, self.witness.table
        atom = int(lay.event_atoms[e])
        return {
            "atom": atom,
            "level": int(lay.event_levels[e]),
            "measure": float(lay.atom_measures[atom]),
            "d": float(table.d[e]),
            "diameter": float(self.diameter[e]),
            "pairing": float(table.pairing[e]),
            "slack": float(self.slack[e]),
        }


def _running_sum(terms: np.ndarray) -> float:
    """0.0 + terms[0] + terms[1] + ..., added in order as a loop would;
    ``np.sum`` adds pairwise and rounds differently."""
    return float(np.concatenate(([0.0], terms)).cumsum()[-1])


def certify(
    cand: BellmanCandidate,
    f: MartFunction,
    g: MartFunction,
    op: MartingaleTransform,
    tol: float = Tolerances().tight,
) -> Certificate:
    """Evaluate the split inequality at every schedule step and assemble the
    certificate.

    Raises ValueError if (f, g, T) is no ``Witness`` or the candidate claims
    a regularity floor above the filtration's, CertificationError if an
    exact identity (displacement accounting, telescoping) fails beyond
    roundoff, and ArithmeticError on an x2 below roundoff of zero.  Candidate
    violations (negative slack, negative leaf value, broken pairing
    domination) do not raise; they mark the certificate failed.  The
    witness is the one ``checks.run_all`` shares: after ``run_all`` on the
    same objects at p = 2 it arrives with T f, T* g and the table derived.
    """
    witness, filt = _shared_witness(f, g, op, cand.p), f.filtration
    if cand.delta > filt.delta + 1e-12:
        raise ValueError(
            f"candidate floor delta={cand.delta:g} exceeds the filtration's "
            f"regularity delta={filt.delta:g}"
        )

    total = filt.total_measure
    objective = inner(g, witness.tf) / total
    table = witness.table
    table.check_x2()
    lay = filt.layout

    # Exact identity: the x2 drop across every split equals d^2.
    d_sq = table.d * table.d
    scale = np.maximum(1.0, np.maximum(np.abs(table.points[lay.event_atoms, -3]), d_sq))
    broken = (~(np.abs(table.x2_gain - d_sq) <= 1e-9 * scale)).nonzero()[0]
    if broken.size:
        e = broken[0]
        raise CertificationError(
            f"displacement accounting failed at atom {lay.event_atoms[e]}: "
            f"d^2={d_sq[e]:.12g} but weighted x2 gain is {table.x2_gain[e]:.12g}"
        )

    values = cand.evaluate(table.points)

    # Children as an (events, max children) grid, row e holding event e's
    # children in order; the cells past an event's count hold atom 0 and
    # are masked out by ``has``.
    counts = lay.event_child_starts[1:] - lay.event_child_starts[:-1]
    has = np.arange(counts.max()) < counts[:, None]
    kids = np.zeros(has.shape, dtype=np.intp)
    kids[has] = lay.event_children
    measure = lay.atom_measures[lay.event_atoms]
    grid_weights = lay.atom_measures[kids] / measure[:, None]
    # The child x1 diameter by the shared rule ``bellman._diameters``, and
    # sum_k lambda_k B(x_k).
    diameter = _diameters(table.points[kids, : f.dim], has)
    kid_sum = _weighted_sums(grid_weights, has, values[kids])

    d, pairing = table.d, table.pairing
    d_diam = d * diameter
    base_values = values[lay.event_atoms]
    slack = base_values - d_diam - kid_sum
    chain_scale = np.maximum(np.maximum(1.0, np.abs(pairing)), d_diam)
    pairing_bad = d_diam < pairing - tol * chain_scale
    slack_bad = slack < -tol * np.maximum(1.0, np.abs(base_values))

    leaves = level_partition(filt, filt.depth)
    leaf_values = values[leaves]
    leaf_bad = leaf_values < -tol * np.maximum(1.0, np.abs(leaf_values))

    failures: list[str] = []
    for e in (pairing_bad | slack_bad).nonzero()[0].tolist():
        atom_id = int(lay.event_atoms[e])
        if pairing_bad[e]:
            failures.append(
                f"pairing domination failed at atom {atom_id}: "
                f"|d|*diam={float(d_diam[e]):.6g} < pairing={float(pairing[e]):.6g}"
            )
        if slack_bad[e]:
            failures.append(f"negative split slack at atom {atom_id}: {float(slack[e]):.6g}")
    for leaf_id, val in zip(leaves[leaf_bad].tolist(), leaf_values[leaf_bad].tolist()):
        failures.append(f"negative candidate value on leaf atom {leaf_id}: {val:.6g}")
    odd = (~np.isfinite(values)).nonzero()[0]
    if odd.size:
        first = f"first atom {odd[0]}: {values[odd[0]]}"
        failures.append(f"non-finite candidate value on {odd.size} atoms, {first}")

    bound = float(values[0])  # B at the root, atom 0 of the witness's tower
    final_slack = bound - objective
    weighted_slack = _running_sum(measure * slack)
    weighted_gap = _running_sum(measure * (d_diam - pairing))
    leaf_term = _running_sum(lay.measures * leaf_values) / total
    reassembled = (weighted_slack + weighted_gap) / total + leaf_term
    identity_residual = abs(final_slack - reassembled)
    id_scale = max(1.0, abs(bound), abs(objective))
    # A non-finite candidate already failed the certificate; otherwise a
    # residual above the bound, or NaN, breaks the identity.
    if not odd.size and not identity_residual <= 1e-8 * id_scale:
        raise CertificationError(
            f"telescoping identity failed: final slack {final_slack:.12g} vs "
            f"reassembled {reassembled:.12g}"
        )

    return Certificate(
        ok=not failures,
        candidate=cand,
        objective=objective,
        bound=bound,
        final_slack=final_slack,
        leaf_term=leaf_term,
        identity_residual=identity_residual,
        failures=tuple(failures),
        witness=witness,
        values=values,
        weights=grid_weights[has],
        diameter=diameter,
        slack=slack,
    )


def _block_bounds(sizes: np.ndarray) -> list[int]:
    """Bounds of runs of items of ``sizes`` floats each, about ``_BLOCK``
    floats a run: the runs end where the running count passes evenly spaced
    marks, at least ``_BLOCK`` and twice the largest item apart, so each run
    holds more than half the spacing (and at least ``_KERNEL_MIN``)."""
    ends = sizes.cumsum()
    n_blocks = max(1, int(ends[-1]) // max(_BLOCK, 2 * int(sizes.max())))
    marks = ends[-1] * np.arange(1, n_blocks) / n_blocks
    return [0, *(np.searchsorted(ends, marks) + 1).tolist(), len(sizes)]


def certificate_to_dict(cert: Certificate) -> dict:
    """Full JSON-ready payload, one record per schedule step.

    The summary fields are plain values.  ``records`` and ``leaves`` are
    lists of ``Verbatim`` canonical text written from the certificate's
    arrays in blocks of about ``_BLOCK`` floats, in text order: runs of
    records, then runs of leaves.  A block formats its floats in one call of
    the writer's float rule and gives its records and leaves one ``Verbatim``
    each; a certificate under 2 * ``_BLOCK`` floats is one block.
    Each atom's moment point is formatted once, in the block of the record
    that has it as a child (the root's in the first block), and spliced in
    as that child, as its own record's base and as its leaf's point.
    ``to_canonical_json`` of the payload gives the text of the same payload
    built as one dict per record, leaf and point."""
    filt = cert.witness.filtration
    table, lay, dim = cert.witness.table, filt.layout, cert.witness.f.dim
    leaves = level_partition(filt, filt.depth)
    starts = lay.event_child_starts
    n_events = len(cert.slack)
    n_floats = (dim + 3) * len(table.points) + len(cert.weights) + 5 * n_events + len(leaves)
    bounds = [0, n_events + len(leaves)]
    if n_floats >= 2 * _BLOCK:  # else one block, without the sizes' cost
        # The floats of each item in text order, a record with its
        # children's weights and points, then a leaf's value; the root's
        # point comes with the first item.
        sizes = np.concatenate(((dim + 4) * np.diff(starts) + 5, np.ones(len(leaves), np.intp)))
        sizes[0] += dim + 3
        bounds = _block_bounds(sizes)

    measures = lay.atom_measures[lay.event_atoms]
    tail = ',"p":' + _format_number(cert.witness.p) + ',"atom":'
    points = np.empty(len(table.points), dtype=object)  # the texts, by atom id
    records, leaf_entries = [], []
    for i0, i1 in zip(bounds, bounds[1:]):
        e0, e1 = min(i0, n_events), min(i1, n_events)
        c0, c1 = starts[e0], starts[e1]
        kids = lay.event_children[c0:c1]
        # the atoms whose points the block formats: its records' children,
        # and the root (the first stacked row) in the first block
        new = np.concatenate((lay.stacked_atoms[:1], kids)) if i0 == 0 else kids
        block_leaves = leaves[i0 - e0 : i1 - e1]
        moments, weights, *columns, values = _format_columns(
            table.points[new],
            cert.weights[c0:c1],
            measures[e0:e1],
            table.d[e0:e1],
            cert.diameter[e0:e1],
            table.pairing[e0:e1],
            cert.slack[e0:e1],
            cert.values[block_leaves],
        )
        points[new] = _point_texts(moments, dim, "", [f"{tail}{atom}}}" for atom in new.tolist()])
        if e1 > e0:
            atoms = lay.event_atoms[e0:e1]
            children = points[kids].tolist()
            local = (starts[e0 : e1 + 1] - c0).tolist()
            records.append(Verbatim(",".join([
                f'{{"atom":{atom},"level":{level},"measure":{measure},'
                f'"weights":[{",".join(weights[lo:hi])}],"d":{d},"diameter":{diameter},'
                f'"pairing":{pairing},"slack":{slack},"base":{base},'
                f'"children":[{",".join(children[lo:hi])}]}}'
                for atom, level, base, measure, d, diameter, pairing, slack, lo, hi in zip(
                    atoms.tolist(), lay.event_levels[e0:e1].tolist(), points[atoms].tolist(),
                    *columns, local, local[1:],
                )
            ])))
        if len(block_leaves):
            leaf_entries.append(Verbatim(",".join([
                f'{{"point":{point},"value":{value}}}'
                for point, value in zip(points[block_leaves].tolist(), values)
            ])))
    return {
        "ok": cert.ok,
        "candidate": cert.candidate.label,
        "p": cert.witness.p,
        "candidate_delta": cert.candidate.delta,
        "filtration_delta": filt.delta,
        "objective": cert.objective,
        "bound": cert.bound,
        "final_slack": cert.final_slack,
        "identity_residual": cert.identity_residual,
        "leaf_term": cert.leaf_term,
        "failures": list(cert.failures),
        "records": records,
        "leaves": leaf_entries,
    }
