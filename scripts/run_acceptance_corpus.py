#!/usr/bin/env python3
"""Sweep the witness corpus and print the worst error of every check row.

Runs every identity and inequality suite over the full randomized corpus
(every regularity floor and value dimension, many seeds per cell) and reports
the worst err/tol ratio per check, plus the quantities the acceptance
gate probes directly: the centered restriction identity gap and the
uncentered restriction defect gap, which must both stay at roundoff, and
the mean bound margin, which must stay nonpositive.

The last line, ``reports sha256 <hex>``, hashes the canonical JSON of every
cell's ``run_all`` rows and of its certificate for the quadratic candidate
at the cell's floor, in corpus order.  Two commits that print the same line
emit the same report bytes over the whole corpus.  The line before it,
``certificates sha256 <hex>``, hashes the certificates alone, in the same
order: it holds still when only the suites' random draws move.

Per-stage wall totals over the corpus (building each cell's witness,
``run_all``, ``certify``, report emission and the unregistered probes) go
to stderr, so stdout stays the same from run to run.

Usage:
    python3 scripts/run_acceptance_corpus.py --seeds 25
"""

import argparse
import hashlib
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from mblab.bellman import quadratic_candidate
from mblab.certifier import certificate_to_dict, certify
from mblab.checks import hoelder_mean_margin, restriction_identity_gaps, run_all
from mblab.corpus import default_corpus, prepare_cell
from mblab.reporting import to_canonical_json


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=100, help="seeds per (delta, dim) cell")
    ap.add_argument("--suites", type=str, default=None, help="comma separated suite names")
    args = ap.parse_args()
    if args.suites is not None and not args.suites.strip():
        # an empty list is a usage error, not a request for every suite
        ap.error("--suites must name at least one suite")

    suites = [s.strip() for s in args.suites.split(",")] if args.suites else None
    rng = np.random.default_rng(0)
    worst = defaultdict(lambda: (0.0, None))
    eq_worst, defect_worst, margin_worst = 0.0, 0.0, -np.inf
    all_ok = True
    digest, cert_digest = hashlib.sha256(), hashlib.sha256()
    cells = default_corpus(seeds=args.seeds)
    stages: dict[str, float] = defaultdict(float)
    last = perf_counter()

    def lap(stage: str) -> None:
        """Add the wall time since the previous lap to ``stage``."""
        nonlocal last
        now = perf_counter()
        stages[stage] += now - last
        last = now

    for cell in cells:
        pc = prepare_cell(cell)
        lap("prepare_cell")
        rows, ok = run_all(pc.f, pc.g, pc.op, rng=rng, suites=suites)
        lap("run_all")
        all_ok = all_ok and ok
        cert = certify(quadratic_candidate(cell.delta), pc.f, pc.g, pc.op)
        lap("certify")
        cert_text = to_canonical_json(certificate_to_dict(cert)).encode()
        digest.update(to_canonical_json(rows).encode())
        digest.update(cert_text)
        cert_digest.update(cert_text)
        for row in rows:
            ratio = row["max_err"] / row["tol"] if row["tol"] > 0 else float(row["max_err"] > 0)
            if ratio > worst[row["check"]][0]:
                worst[row["check"]] = (ratio, cell)
        lap("emission")
        centered, defect = restriction_identity_gaps(pc.g, pc.op)
        eq_worst = max(eq_worst, centered)
        defect_worst = max(defect_worst, defect)
        margin_worst = max(margin_worst, hoelder_mean_margin(pc.f, pc.g, pc.op, 2.0, 2.0))
        lap("probes")

    print(f"{len(cells)} cells")
    print(f"{'check':28s} {'worst err/tol':>14s}  worst cell")
    for name in sorted(worst):
        ratio, cell = worst[name]
        where = f"delta={cell.delta:g} dim={cell.dim} seed={cell.seed}" if cell else ""
        print(f"{name:28s} {ratio:14.3e}  {where}")
    print(f"\ncentered restriction identity (must be <= 1e-9): {eq_worst:.3e}")
    print(f"uncentered restriction defect identity (must be <= 1e-9): {defect_worst:.3e}")
    print(f"mean bound margin (must be <= 0): {margin_worst:.3e}")
    print("all suites ok" if all_ok else "SOME SUITE FAILED")
    print(f"certificates sha256 {cert_digest.hexdigest()}")
    print(f"reports sha256 {digest.hexdigest()}")
    walls = "  ".join(f"{name} {wall:.3f}" for name, wall in stages.items())
    print(f"stage wall (s): {walls}  total {sum(stages.values()):.3f}", file=sys.stderr)
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
