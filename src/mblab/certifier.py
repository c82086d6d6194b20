"""Certificate machinery: from a candidate and a witness to a global bound.

The certifier walks the refiltration schedule of a witness triple
(f, g, T).  At every split atom J it records the moment points of J and of
its children, the convex weights, the displacement scale

    d_J = |J|^{-1/2} || single-split difference of T* g on J ||,

the spread of the child x1 components, and the slack of the split
inequality.  Summing the per-split inequalities against the telescoping of
the pairing integral yields

    B(x_root) - objective
        = (1/|I|) [ sum_J |J| slack_J
                    + sum_J |J| (|d_J| diam_J - pairing_J)
                    + sum_leaves |L| B(x_L) ],

an exact bookkeeping identity for any candidate.  The certificate succeeds
when all three bracketed families are nonnegative within tolerance, which
forces objective <= B(x_root).  A failed certificate is a first-class
result: it carries every violating record and the reasons.

Every moment point, displacement, pairing and x2 gain comes from the moment
table of one ``Witness`` at the candidate's exponent; the walk over the
schedule only evaluates the candidate and assembles the records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bellman import BellmanCandidate, BellmanPoint, Witness, _diameter_pair
from .martingale import MartFunction, inner
from .transforms import MartingaleTransform

__all__ = [
    "Certificate",
    "CertificationError",
    "certify",
    "certificate_to_dict",
    "certificate_rows",
]

_CERT_TOL = 1e-9


class CertificationError(RuntimeError):
    """Internal identity broke down; the witness data cannot be trusted."""


@dataclass(frozen=True)
class SplitRecord:
    """Everything the split inequality sees at one schedule step."""

    atom: int
    level: int
    measure: float
    weights: tuple[float, ...]
    d: float
    diameter: float
    pairing: float
    slack: float
    base: BellmanPoint
    children: tuple[BellmanPoint, ...]


@dataclass(frozen=True, eq=False)
class Certificate:
    """Outcome of ``certify``.  ``failing_records`` are the records behind
    the split failures, flagged by the same tests, tolerance and scales that
    wrote the messages in ``failures``."""

    ok: bool
    label: str
    p: float
    candidate_delta: float
    filtration_delta: float
    objective: float
    root: BellmanPoint
    bound: float
    final_slack: float
    records: tuple[SplitRecord, ...]
    leaves: tuple[BellmanPoint, ...]
    leaf_values: tuple[float, ...]
    leaf_term: float
    identity_residual: float
    failures: tuple[str, ...]
    failing_records: tuple[SplitRecord, ...]

    @property
    def first_failure(self) -> str | None:
        return self.failures[0] if self.failures else None


def certify(
    cand: BellmanCandidate,
    f: MartFunction,
    g: MartFunction,
    op: MartingaleTransform,
    tol: float = _CERT_TOL,
) -> Certificate:
    """Run the full schedule walk and assemble the certificate.

    Raises ValueError if the candidate claims a regularity floor above the
    filtration's, and CertificationError if an exact identity (displacement
    accounting, telescoping) fails beyond roundoff.  Candidate violations
    (negative slack, negative leaf value, broken pairing domination) do not
    raise; they mark the certificate failed.
    """
    filt = f.filtration
    if g.filtration is not filt or op.filtration is not filt:
        raise ValueError("witness components live on different filtrations")
    if g.dim != 1:
        raise ValueError("g must be scalar valued")
    if f.dim != op.dim:
        raise ValueError(f"f has dim {f.dim} but the transform expects {op.dim}")
    if cand.delta > filt.delta + 1e-12:
        raise ValueError(
            f"candidate floor delta={cand.delta:g} exceeds the filtration's "
            f"regularity delta={filt.delta:g}"
        )

    p = cand.p
    tf = op.apply(f)
    total = filt.total_measure
    objective = inner(g, tf) / total
    table = Witness(f, g, op, p).table
    points = [table.point(i) for i in range(len(filt.atoms))]
    lay = filt.layout

    # Exact identity: the x2 drop across every split equals d^2.
    d_sq = table.d * table.d
    scale = np.maximum(1.0, np.maximum(np.abs(table.x2[lay.event_atoms]), d_sq))
    broken = np.flatnonzero(np.abs(table.x2_gain - d_sq) > 1e-9 * scale)
    if broken.size:
        e = broken[0]
        raise CertificationError(
            f"displacement accounting failed at atom {lay.event_atoms[e]}: "
            f"d^2={d_sq[e]:.12g} but weighted x2 gain is {table.x2_gain[e]:.12g}"
        )

    failures: list[str] = []
    records: list[SplitRecord] = []
    failing: list[SplitRecord] = []
    weighted_slack = 0.0
    weighted_gap = 0.0

    for atom_id, d, pairing in zip(
        lay.event_atoms.tolist(), table.d.tolist(), table.pairing.tolist()
    ):
        atom = filt.atom(atom_id)
        base = points[atom_id]
        kids = tuple(points[c] for c in atom.children)
        weights = tuple(filt.atom(c).measure / atom.measure for c in atom.children)
        diam = _diameter_pair([k.x1 for k in kids])[0]

        flagged = False
        chain_scale = max(1.0, abs(pairing), d * diam)
        if d * diam < pairing - tol * chain_scale:
            failures.append(
                f"pairing domination failed at atom {atom.id}: "
                f"|d|*diam={d * diam:.6g} < pairing={pairing:.6g}"
            )
            flagged = True

        b_base = cand.evaluate(base)
        slack = b_base - d * diam - sum(w * cand.evaluate(k) for w, k in zip(weights, kids))
        if slack < -tol * max(1.0, abs(b_base)):
            failures.append(f"negative split slack at atom {atom.id}: {slack:.6g}")
            flagged = True

        records.append(
            SplitRecord(
                atom=atom.id,
                level=atom.level,
                measure=atom.measure,
                weights=weights,
                d=d,
                diameter=diam,
                pairing=pairing,
                slack=slack,
                base=base,
                children=kids,
            )
        )
        if flagged:
            failing.append(records[-1])
        weighted_slack += atom.measure * slack
        weighted_gap += atom.measure * (d * diam - pairing)

    leaf_pts = []
    leaf_vals = []
    leaf_weighted = 0.0
    for leaf_id in filt.leaves:
        lp = points[leaf_id]
        val = cand.evaluate(lp)
        leaf_pts.append(lp)
        leaf_vals.append(val)
        leaf_weighted += filt.atom(leaf_id).measure * val
        if val < -tol * max(1.0, abs(val)):
            failures.append(f"negative candidate value on leaf atom {leaf_id}: {val:.6g}")

    root_pt = points[filt.root.id]
    bound = cand.evaluate(root_pt)
    final_slack = bound - objective
    leaf_term = leaf_weighted / total
    reassembled = (weighted_slack + weighted_gap) / total + leaf_term
    identity_residual = abs(final_slack - reassembled)
    id_scale = max(1.0, abs(bound), abs(objective))
    if identity_residual > 1e-8 * id_scale:
        raise CertificationError(
            f"telescoping identity failed: final slack {final_slack:.12g} vs "
            f"reassembled {reassembled:.12g}"
        )

    return Certificate(
        ok=not failures,
        label=cand.label,
        p=p,
        candidate_delta=cand.delta,
        filtration_delta=filt.delta,
        objective=objective,
        root=root_pt,
        bound=bound,
        final_slack=final_slack,
        records=tuple(records),
        leaves=tuple(leaf_pts),
        leaf_values=tuple(leaf_vals),
        leaf_term=leaf_term,
        identity_residual=identity_residual,
        failures=tuple(failures),
        failing_records=tuple(failing),
    )


def certificate_to_dict(cert: Certificate) -> dict:
    """Full JSON-ready payload, one record per schedule step.

    A moment point appears as one record's base, as a child in its parent's
    record and as a leaf's point; every appearance of the same
    ``BellmanPoint`` in one payload is the same dict, so the writer renders
    it once.  Mutating one of them changes them all."""
    point_dicts: dict[int, dict] = {}

    def point(pt: BellmanPoint) -> dict:
        d = point_dicts.get(id(pt))
        if d is None:
            d = point_dicts[id(pt)] = pt.to_dict()
        return d

    return {
        "ok": cert.ok,
        "candidate": cert.label,
        "p": cert.p,
        "candidate_delta": cert.candidate_delta,
        "filtration_delta": cert.filtration_delta,
        "objective": cert.objective,
        "bound": cert.bound,
        "final_slack": cert.final_slack,
        "identity_residual": cert.identity_residual,
        "leaf_term": cert.leaf_term,
        "failures": list(cert.failures),
        "records": [
            {
                "atom": r.atom,
                "level": r.level,
                "measure": r.measure,
                "weights": list(r.weights),
                "d": r.d,
                "diameter": r.diameter,
                "pairing": r.pairing,
                "slack": r.slack,
                "base": point(r.base),
                "children": [point(c) for c in r.children],
            }
            for r in cert.records
        ],
        "leaves": [
            {"point": point(pt), "value": val}
            for pt, val in zip(cert.leaves, cert.leaf_values)
        ],
    }


def certificate_rows(cert: Certificate) -> list[dict]:
    """Flat per-split rows for the tabular summary."""
    return [
        {
            "atom": r.atom,
            "level": r.level,
            "measure": r.measure,
            "d": r.d,
            "diameter": r.diameter,
            "pairing": r.pairing,
            "slack": r.slack,
        }
        for r in cert.records
    ]
