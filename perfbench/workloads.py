"""The three benchmark workloads: input plans and the operations they time.

A plan is a pure function of (seed, seconds): the seed picks the inputs and
the seconds pick how many operations there are, from nominal per-operation
costs fixed here.  The work of a run therefore does not depend on how fast
the code under test is, so two commits time the same operations.

Every operation returns its canonical report text, whether the
mathematical invariants held, and the tower facts recorded as provenance.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Nominal seconds per operation on a 2-core Xeon, used only to size plans.
CORPUS_CELL_S = 0.035
DEEP_TOWER_S = {("dyadic", 8): 2.2, ("dyadic", 9): 10.0, ("random", 12): 2.2}
CLI_ROUND_S = 11.0


@dataclass
class OpResult:
    report: str
    ok: bool
    why: str = ""
    leaves: int | None = None
    splits: int | None = None
    matrix_bytes: int | None = None


def _tower_result(report_payload: dict, rows, ok, cert, filt, dim) -> OpResult:
    from mblab.certifier import certificate_to_dict
    from mblab.reporting import to_canonical_json

    report = to_canonical_json(
        dict(report_payload, ok=ok, rows=rows, certificate=certificate_to_dict(cert))
    )
    red = [r["check"] for r in rows if not r["ok"]]
    why = ""
    if red:
        why = "red rows: " + ",".join(red)
    elif not cert.ok:
        why = "certificate failed: " + str(cert.first_failure)
    L = filt.n_leaves
    return OpResult(
        report=report,
        ok=not why,
        why=why,
        leaves=L,
        splits=len(cert.records),
        matrix_bytes=L * L * dim * 8,
    )


# ---------------------------------------------------------------------------
# corpus_sweep


@dataclass(frozen=True)
class CellItem:
    delta: float
    dim: int
    seed: int


class InProcess:
    """Operations that run in this interpreter and judge their own outputs."""

    in_process = True

    def verify(self, item, res: OpResult) -> OpResult:
        return res


class CorpusSweep(InProcess):
    """Cells of the seeded corpus grid: floors {0.1, 0.25, 1/3, 0.5}, dims
    1..3, depths 2..5.  The workload seed offsets the cell seeds.

    Tower size varies a lot between cell seeds and suite cost grows faster
    than the leaf count, so with freely drawn cells the timings would depend
    mostly on which seeds were drawn.  So, for each (floor, depth) stratum,
    k target leaf counts are read at evenly spaced quantiles of a fixed
    reference pool of cell seeds, and each target takes the cell of the
    seed's own pool whose tower has the nearest leaf count.  Every workload
    seed then sweeps other cells with the same size mix, the large towers
    included.  As in the default corpus, the dims of a cell seed share its
    tower.
    """

    name = "corpus_sweep"
    REFERENCE_BASE = 2**40  # reference cell seeds, far above any workload pool
    POOL_FACTOR = 4

    def plan(self, seed: int, seconds: float) -> list[CellItem]:
        from mblab.corpus import DELTAS, DIMS, cell_filtration, max_children_for

        def leaves(d, cell_seed, depth):
            return cell_filtration(d, cell_seed, depth, max_children_for(d)).n_leaves

        strata = [(d, depth) for d in DELTAS for depth in range(2, 6)]
        k = max(1, round(seconds / CORPUS_CELL_S / len(strata) / len(DIMS)))
        pool_size = self.POOL_FACTOR * k
        picked: dict[tuple, list[int]] = {}
        for d, depth in strata:
            # CorpusCell.depth is 2 + seed % 4, so stride 4 keeps the depth.
            seeds = [4 * (seed * pool_size + j) + depth - 2 for j in range(pool_size)]
            if d == 0.5:
                picked[d, depth] = seeds[:k]  # dyadic: every seed gives the same tower
                continue
            ref = sorted(
                leaves(d, 4 * (self.REFERENCE_BASE + j) + depth - 2, depth) for j in range(pool_size)
            )
            pool = [(leaves(d, s, depth), s) for s in seeds]
            picked[d, depth] = []
            for i in range(k):
                target = ref[(2 * i + 1) * pool_size // (2 * k)]
                best = min(pool, key=lambda c: (abs(c[0] - target), c[1]))
                pool.remove(best)
                picked[d, depth].append(best[1])
        # Sizing the pools filled the tower cache; empty it so that each cell
        # builds its tower inside its timed operation, as in a fresh process.
        getattr(cell_filtration, "cache_clear", lambda: None)()
        # Dims outermost, as in the default corpus: a tower comes back only
        # after 16 * k other towers, so far more than 64 are live at once.
        return [
            CellItem(d, dim, picked[d, depth][i])
            for dim in DIMS
            for i in range(k)
            for d, depth in strata
        ]

    def run(self, item: CellItem) -> OpResult:
        import numpy as np
        from mblab.bellman import quadratic_candidate
        from mblab.certifier import certify
        from mblab.checks import Tolerances, run_all
        from mblab.corpus import CorpusCell, prepare_cell

        cell = CorpusCell(item.delta, item.dim, item.seed)
        pc = prepare_cell(cell)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=item.seed, spawn_key=(2,)))
        rows, ok = run_all(pc.f, pc.g, pc.op, Tolerances(), rng)
        cert = certify(quadratic_candidate(item.delta), pc.f, pc.g, pc.op)
        payload = {"cell": [item.delta, item.dim, item.seed]}
        return _tower_result(payload, rows, ok, cert, pc.filtration, item.dim)


# ---------------------------------------------------------------------------
# deep_tower


@dataclass(frozen=True)
class TowerItem:
    kind: str  # "dyadic" or "random"
    depth: int
    dim: int
    witness_seed: int


class DeepTower(InProcess):
    """A few towers deeper than the corpus reaches: dyadic depth 8 and 9 and
    one random-regular tower at floor 0.25, depth 12 (282 leaves, 189
    splits), in dims 1 and 2.

    The tower shapes are fixed so that the cost of a run does not swing with
    the seed; the seed draws each tower's witness, transform and suite inputs.
    """

    name = "deep_tower"
    # Around the median sit five towers of about equal cost (depth 8 dyadic
    # and the depth-12 random tower, dim 2), so the median operation does not
    # flip between cost classes; the cheaper dim-1 tower comes first and the
    # depth-9 tower last.
    CYCLE = (
        ("dyadic", 8, 1), ("dyadic", 8, 2), ("random", 12, 2), ("dyadic", 8, 2),
        ("random", 12, 2), ("dyadic", 8, 2), ("dyadic", 9, 2),
    )
    RANDOM_TOWER = {"delta": 0.25, "max_children": 3, "split_prob": 0.7, "seed": 9}

    def plan(self, seed: int, seconds: float) -> list[TowerItem]:
        items: list[TowerItem] = []
        total = 0.0
        while total < seconds or not items:
            kind, depth, dim = self.CYCLE[len(items) % len(self.CYCLE)]
            items.append(TowerItem(kind, depth, dim, seed * 1000 + len(items)))
            total += DEEP_TOWER_S[kind, depth]
        return items

    def run(self, item: TowerItem) -> OpResult:
        import numpy as np
        from mblab.bellman import quadratic_candidate
        from mblab.certifier import certify
        from mblab.checks import Tolerances, run_all
        from mblab.corpus import random_transform, random_witness
        from mblab.filtration import build_dyadic, build_random_regular

        if item.kind == "dyadic":
            filt = build_dyadic(item.depth)
        else:
            filt = build_random_regular(depth=item.depth, **self.RANDOM_TOWER)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=item.witness_seed))
        f, g = random_witness(filt, item.dim, rng)
        op = random_transform(filt, item.dim, rng)
        rows, ok = run_all(f, g, op, Tolerances(), rng)
        cert = certify(quadratic_candidate(filt.delta), f, g, op)
        payload = {"tower": [item.kind, item.depth, item.dim, item.witness_seed]}
        return _tower_result(payload, rows, ok, cert, filt, item.dim)


# ---------------------------------------------------------------------------
# cli_session


def child_env() -> dict:
    """Environment of every child interpreter: this one's (which pins BLAS
    to one thread), mblab from this checkout, default tolerances."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("MBL_TOL", None)
    return env


@dataclass(frozen=True)
class CliItem:
    argv: tuple[str, ...]

    @property
    def command(self) -> str:
        return self.argv[0]

    def arg(self, flag: str, default: float | None = None) -> float | None:
        return float(self.argv[self.argv.index(flag) + 1]) if flag in self.argv else default


def _check_cli_report(item: CliItem, report: dict) -> str:
    """Invariants a CLI report must satisfy for any seed; '' when they hold."""
    cmd = item.command
    if cmd == "check" and report.get("ok") is not True:
        return "check reports red rows"
    if cmd == "certify" and report.get("ok") is not True:
        return "certificate not ok"
    if cmd == "lemma1":
        ratio = report.get("min_ratio")
        if not isinstance(ratio, (int, float)) or ratio <= 0:
            return f"lemma1 min_ratio {ratio} <= 0"
    if cmd == "scan" and item.arg("--p") == 2.0 and report["max_ratio"] > 1.0 + 1e-9:
        return f"scan at p = 2 max_ratio {report['max_ratio']} > 1 + 1e-9"
    if cmd == "bound" and report.get("ok") is not True:
        return "bound reports ok: false"
    return ""


class CliSession:
    """A fixed list of mblab calls, each in a fresh interpreter, one after
    another (closed loop, one client), all with the workload seed."""

    name = "cli_session"
    in_process = False

    def plan(self, seed: int, seconds: float) -> list[CliItem]:
        s = str(seed)
        calls = [
            ("gen", "--seed", s, "--depth", "6", "--delta", "0.25", "--dim", "2"),
            ("check", "--seed", s, "--depth", "5", "--delta", "0.5", "--dim", "2"),
            ("certify", "--seed", s, "--depth", "5", "--delta", "0.5", "--dim", "2"),
            ("lemma1", "--seed", s, "--delta", "0.25", "--trials", "500"),
            ("search", "--seed", s, "--p", "1.5", "--trials", "200", "--delta", "0.5", "--ascent", "100"),
            ("scan", "--seed", s, "--p", "3", "--delta", "0.25", "--trials", "500"),
            ("scan", "--seed", s, "--p", "2", "--trials", "500"),
            ("bound", "--seed", s, "--p", "2", "--trials", "8", "--delta", "0.25"),
        ]
        rounds = max(1, round(seconds / CLI_ROUND_S))
        return [CliItem(c) for _ in range(rounds) for c in calls]

    def run(self, item: CliItem, launcher: list[str] | None = None, extra_env: dict | None = None) -> OpResult:
        """Run one call; ``launcher`` replaces ``python -m mblab`` (traced runs)."""
        env = child_env()
        env.update(extra_env or {})
        proc = subprocess.run(
            [*(launcher or [sys.executable, "-m", "mblab"]), *item.argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            return OpResult(proc.stdout, False, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return OpResult(proc.stdout, True)

    def verify(self, item: CliItem, res: OpResult) -> OpResult:
        """Check a finished call's report; not part of its timed operation."""
        from mblab.reporting import to_canonical_json

        if not res.ok:
            return res
        try:
            report = json.loads(res.report)
        except json.JSONDecodeError as exc:
            return OpResult(res.report, False, f"stdout is not JSON: {exc}")
        if to_canonical_json(report) != res.report:
            return OpResult(res.report, False, "stdout is not canonical JSON")
        why = _check_cli_report(item, report)
        res = OpResult(res.report, not why, why)
        if item.command == "gen":
            res.leaves = sum(1 for a in report["filtration"]["atoms"] if not a["children"])
            res.splits = len(report["filtration"]["atoms"]) - res.leaves
        elif item.command == "certify":
            res.leaves, res.splits = len(report["leaves"]), len(report["records"])
        if res.leaves is not None:
            res.matrix_bytes = res.leaves * res.leaves * int(item.arg("--dim", 1)) * 8
        return res


WORKLOADS = {w.name: w for w in (CorpusSweep(), DeepTower(), CliSession())}
