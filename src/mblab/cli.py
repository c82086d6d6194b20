"""Command line interface.

Subcommands:
  gen      build a filtration and emit it
  check    run the identity/inequality suites on a seeded witness
  certify  run the schedule certifier for a candidate on a seeded witness
  lemma1   expand dyadic split configurations and report separation ratios
  search   lower-bound search for the pairing over unit-norm witnesses
  scan     norm-ratio scan over random witnesses and extremal multipliers
  bound    certified duality bound over a spread of dual draws
  corpus   sweep the acceptance corpus: worst row per check, probes, digests

Each flag is declared once, as a ``RunConfig`` field that holds its
default and its argparse settings.  Each subcommand accepts only the flags
it reads (``_FLAGS``), plus --config, --out and --format; a flag or config
key it does not read is a usage error.  Each command hands ``_emit`` two
builders, one for the JSON payload and one for the CSV rows, and only the
builder --format chooses runs.

Exit codes: 0 success, 1 a check/certificate/bound failed, 2 bad usage or
infeasible configuration.  Tolerances scale with the MBL_TOL environment
variable.  All randomized commands require --seed and are deterministic
given it; reports are byte-identical across repeated runs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import sys
from collections import defaultdict
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from time import perf_counter

import numpy as np

from .bellman import (
    Witness,
    dyadic_expand,
    expansion_to_dict,
    linear_candidate,
    quadratic_candidate,
    sample_dyadic_split_configs,
)
from .certifier import CertificationError, certificate_to_dict, certify
from .checks import SUITES, Tolerances, hoelder_mean_margin, restriction_identity_gaps, run_suites
from .corpus import (
    _SPLIT_PROB,
    build_tower,
    default_corpus,
    haar_witness,
    max_children_for,
    prepare_cell,
    random_transform,
    random_witness,
    root_splits_in_two,
)
from .estimator import EstimateError, duality_bound, duality_candidate, lower_bound_search, lp_constant_scan
from .filtration import FiltrationError, filtration_to_dict, max_parts
from .reporting import ReportError, rows_to_csv, to_canonical_json, write_text
from .transforms import PredictabilityError, transform_to_dict

__all__ = ["main", "run"]


def _knob(default, **settings):
    """A ``RunConfig`` field: its default and its flag's argparse settings."""
    return field(default=default, metadata=settings)


@dataclass
class RunConfig:
    """Merged knobs for one command; file values sit below flag values.
    Each field is a config key and a flag (--format for ``fmt``, else the
    name with "-" for "_"), its metadata the flag's argparse settings."""

    seed: int | None = _knob(None, type=int)
    depth: int | None = _knob(None, type=int)
    delta: float = _knob(0.5, type=float)
    dim: int = _knob(1, type=int)
    p: float = _knob(2.0, type=float)
    trials: int = _knob(100, type=int)
    out: str | None = _knob(None)
    fmt: str = _knob("json", choices=("json", "csv"))
    max_children: int | None = _knob(None, type=int)
    split_prob: float = _knob(_SPLIT_PROB, type=float)
    witness: str = _knob("random", choices=("random", "structured"))
    candidate: str = _knob("quadratic")
    target: float | None = _knob(None, type=float)
    ascent: int = _knob(0, type=int)
    m: int = _knob(6, type=int)
    suites: str | None = _knob(None)
    seeds: int = _knob(100, type=int)


# The RunConfig fields each command reads, as flags and as config keys.
_TOWER = ("seed", "depth", "delta", "dim", "max_children", "split_prob", "witness")
_SAMPLED = ("seed", "depth", "delta", "dim", "p", "trials")
_FLAGS = {
    "gen": _TOWER,
    "check": (*_TOWER, "suites"),
    "certify": (*_TOWER, "p", "candidate"),
    "lemma1": ("seed", "delta", "dim", "p", "trials", "m"),
    "search": (*_SAMPLED, "target", "ascent"),
    "scan": _SAMPLED,
    "bound": _SAMPLED,
    "corpus": ("seeds", "suites"),
}
# Read by every command.
_OUTPUT = ("out", "fmt")
# The argparse settings of each field's flag.
_SPECS = {f.name: f.metadata for f in fields(RunConfig)}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mblab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        # No abbreviations: --m would otherwise stand for --max-children.
        cmd = sub.add_parser(name, help=command.__doc__, allow_abbrev=False)
        cmd.add_argument("--config", help="JSON file with defaults")
        for key in (*_FLAGS[name], *_OUTPUT):
            flag = "--format" if key == "fmt" else "--" + key.replace("_", "-")
            cmd.add_argument(flag, dest=key, **_SPECS[key])
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    keys = (*_FLAGS[args.command], *_OUTPUT)
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {args.config}: {exc}")
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a JSON object")
        unread = set(loaded) - set(keys)
        if unread:
            raise UsageError(f"config keys that {args.command} does not read: {sorted(unread)}")
        for key, value in loaded.items():
            setattr(cfg, key, _config_value(key, value))
    for key in keys:
        value = getattr(args, key)
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def _config_value(key: str, value):
    """A config file value, held to its flag's type and choices: a JSON
    integer for an int flag, any JSON number for a float flag (as a
    float), a string otherwise."""
    spec = _SPECS[key]
    kind = spec.get("type", str)
    allowed = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, allowed):
        wanted = {int: "an integer", float: "a number", str: "a string"}[kind]
        raise UsageError(f"config key {key!r} needs {wanted}, got {value!r}")
    value = kind(value)
    if "choices" in spec and value not in spec["choices"]:
        choices = list(spec["choices"])
        raise UsageError(f"config key {key!r} must be one of {choices}, got {value!r}")
    return value


class UsageError(ValueError):
    """Bad flags, config values or environment; exit code 2."""


# Commands whose Bellman points or candidates need the conjugate exponent,
# defined for p in (1, 2].
_CONJUGATE_COMMANDS = ("certify", "lemma1", "search", "bound")


def _validate(command: str, cfg: RunConfig) -> None:
    """Reject out-of-range flags, config values and MBL_TOL before any work
    is done."""
    if cfg.seed is not None and cfg.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {cfg.seed}")
    if not 0.0 < cfg.delta <= 0.5:
        raise UsageError(f"--delta must lie in (0, 1/2], got {cfg.delta}")
    if cfg.dim < 1:
        raise UsageError(f"--dim must be >= 1, got {cfg.dim}")
    if cfg.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {cfg.trials}")
    if not 0.0 <= cfg.split_prob <= 1.0:
        raise UsageError(f"--split-prob must lie in [0, 1], got {cfg.split_prob}")
    if command in _CONJUGATE_COMMANDS and not 1.0 < cfg.p <= 2.0:
        raise UsageError(f"{command} needs --p in (1, 2], got {cfg.p}")
    if not (cfg.p > 0.0 and math.isfinite(cfg.p)):
        raise UsageError(f"--p must be positive and finite, got {cfg.p}")
    if command == "scan" and not cfg.p > 1.0:
        raise UsageError(f"scan needs --p > 1 (no L^p bound holds for p <= 1), got {cfg.p}")
    if cfg.target is not None and not math.isfinite(cfg.target):
        raise UsageError(f"--target must be finite, got {cfg.target}")
    if cfg.ascent < 0:
        raise UsageError(f"--ascent must be >= 0, got {cfg.ascent}")
    if cfg.suites is not None and not cfg.suites.strip():
        raise UsageError("--suites must name at least one suite")
    if cfg.seeds < 1:
        raise UsageError(f"--seeds must be >= 1, got {cfg.seeds}")
    if command == "lemma1":
        if not 1 <= cfg.dim <= 4:
            raise UsageError(f"lemma1 needs --dim in [1, 4], got {cfg.dim}")
        if not 1 <= cfg.m <= 16:
            raise UsageError(f"lemma1 needs --m in [1, 16], got {cfg.m}")
    try:
        Tolerances.from_env()
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _emit(cfg: RunConfig, payload: Callable[[], dict], rows: Callable[[], list[dict]]) -> None:
    """Write the report to --out or stdout: canonical JSON of ``payload()``
    or, with --format csv, ``rows()`` as CSV; only that builder runs."""
    text = to_canonical_json(payload()) if cfg.fmt == "json" else rows_to_csv(rows())
    if cfg.out:
        write_text(cfg.out, text)
    else:
        sys.stdout.write(text)


def _require_seed(cfg: RunConfig) -> int:
    if cfg.seed is None:
        raise UsageError("this command draws randomness; --seed is required")
    return cfg.seed


def _tower_depth(cfg: RunConfig) -> int:
    """--depth, else 3: the depth of gen's, check's, certify's and bound's tower."""
    return 3 if cfg.depth is None else cfg.depth


def _filtration(cfg: RunConfig):
    max_children = max_children_for(cfg.delta) if cfg.max_children is None else cfg.max_children
    # Checked for every delta, the dyadic tower included.
    cap = max_parts(cfg.delta)
    if not 2 <= max_children <= cap:
        raise UsageError(f"--max-children must lie in [2, floor(1/delta)] = [2, {cap}], got {max_children}")
    return build_tower(cfg.delta, cfg.seed, _tower_depth(cfg), max_children, cfg.split_prob)


def _suite_names(cfg: RunConfig) -> list[str] | None:
    """The suites --suites names, in order; None, for every suite, without it."""
    names = None if cfg.suites is None else [s.strip() for s in cfg.suites.split(",")]
    unknown = [name for name in names or () if name not in SUITES]
    if unknown:
        raise UsageError(f"unknown suites {unknown}; known: {sorted(SUITES)}")
    if names and len(set(names)) < len(names):
        raise UsageError(f"--suites names a suite more than once: {names}")
    return names


def _witness(cfg: RunConfig, filt) -> Witness:
    if cfg.witness == "structured":
        if not root_splits_in_two(filt):
            raise UsageError("the structured witness needs a tower whose root splits in two")
        return haar_witness(filt, cfg.dim)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=_require_seed(cfg), spawn_key=(1,)))
    f, g = random_witness(filt, cfg.dim, rng)
    return Witness(f, g, random_transform(filt, cfg.dim, rng))


def _candidate(cfg: RunConfig, filt):
    chosen = cfg.candidate
    name, _, arg = chosen.partition(":")
    try:
        value = float(arg) if arg else None
        if value is not None and not math.isfinite(value):
            raise ValueError
    except ValueError:
        raise UsageError(f"candidate '{chosen}' needs a finite number after ':'") from None
    if name == "quadratic":
        delta = filt.delta if value is None else value
        if not 0.0 < delta <= filt.delta:
            raise UsageError(
                f"candidate floor delta={delta:g} must lie in (0, {filt.delta:g}], "
                "the tower's regularity floor"
            )
        return duality_candidate(cfg.p, delta)
    if name == "linear":
        if value is None:
            raise UsageError("linear candidate needs a constant: linear:<cp>")
        return linear_candidate(value, cfg.p, filt.delta)
    raise UsageError(f"unknown candidate '{chosen}'; use quadratic[:delta] or linear:<cp>")


# ---------------------------------------------------------------------------
# Commands


def cmd_gen(cfg: RunConfig) -> int:
    """build a filtration and emit it"""
    filt = _filtration(cfg)

    def payload() -> dict:
        out = {"filtration": filtration_to_dict(filt)}
        # a structured witness is deterministic; a random one needs the seed
        if cfg.witness == "structured" or cfg.seed is not None:
            w = _witness(cfg, filt)
            out["witness"] = {
                "kind": cfg.witness,
                "dim": cfg.dim,
                "f": w.f.values.tolist(),
                "g": w.g.values.tolist(),
                "transform": transform_to_dict(w.op),
            }
        return out

    def rows() -> list[dict]:
        return [
            dict(atom, children="|".join(map(str, atom["children"])))
            for atom in filtration_to_dict(filt)["atoms"]
        ]

    _emit(cfg, payload, rows)
    return 0


def cmd_check(cfg: RunConfig) -> int:
    """run identity and inequality suites"""
    seed, names = _require_seed(cfg), _suite_names(cfg)
    filt = _filtration(cfg)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2,)))
    rows, ok = run_suites(_witness(cfg, filt), Tolerances.from_env(), rng, names)
    _emit(cfg, lambda: {"ok": ok, "rows": rows}, lambda: rows)
    return 0 if ok else 1


def cmd_certify(cfg: RunConfig) -> int:
    """run the schedule certifier"""
    _require_seed(cfg)
    filt = _filtration(cfg)
    w = _witness(cfg, filt)
    cand = _candidate(cfg, filt)
    cert = certify(cand, w.f, w.g, w.op, tol=Tolerances.from_env().tight)
    _emit(cfg, lambda: certificate_to_dict(cert), lambda: list(cert.records))
    return 0 if cert.ok else 1


def cmd_lemma1(cfg: RunConfig) -> int:
    """expand dyadic configurations, report separation ratios"""
    seed = _require_seed(cfg)
    cfgs = sample_dyadic_split_configs(
        cfg.delta, cfg.p, cfg.trials, seed, dim=cfg.dim, m=cfg.m
    )
    rows = []
    worst = None
    for i, (parts, cert) in enumerate(zip(cfgs.parts.tolist(), dyadic_expand(cfgs, m=cfg.m))):
        rows.append(
            {
                "config": i,
                "children": parts,
                "m": cert.m,
                "copies": cert.copies,
                "separation": cert.separation,
                "diameter": cert.diameter,
                "ratio": cert.ratio,
                "degenerate": cert.degenerate,
            }
        )
        if not cert.degenerate and (worst is None or cert.ratio < worst.ratio):
            worst = cert

    min_ratio = None if worst is None else worst.ratio

    def payload() -> dict:
        return {
            "delta": cfg.delta,
            "trials": cfg.trials,
            "min_ratio": min_ratio,
            "degenerate": sum(1 for r in rows if r["degenerate"]),
            "rows": rows,
            "worst": None if worst is None else expansion_to_dict(worst),
        }

    _emit(cfg, payload, lambda: rows)
    # The recombination step needs every separation strictly positive.
    return 1 if min_ratio is not None and min_ratio <= 0.0 else 0


def cmd_search(cfg: RunConfig) -> int:
    """lower-bound search for the pairing"""
    seed = _require_seed(cfg)
    res = lower_bound_search(
        cfg.p,
        cfg.trials,
        seed,
        target=cfg.target,
        delta=cfg.delta,
        dim=cfg.dim,
        depth=cfg.depth,
        ascent_steps=cfg.ascent,
    )
    _emit(
        cfg,
        lambda: asdict(res),
        lambda: [{"trial": i, "value": v} for i, v in enumerate(res.history)],
    )
    return 0 if res.found else 1


def cmd_scan(cfg: RunConfig) -> int:
    """norm-ratio scan"""
    seed = _require_seed(cfg)
    res = lp_constant_scan(cfg.p, cfg.trials, seed, delta=cfg.delta, dim=cfg.dim, depth=cfg.depth)
    _emit(
        cfg,
        lambda: asdict(res),
        lambda: [
            {"bin_lo": res.bin_edges[i], "bin_hi": res.bin_edges[i + 1], "count": c}
            for i, c in enumerate(res.counts)
        ],
    )
    if cfg.p == 2.0 and res.max_ratio > 1.0 + Tolerances.from_env().tight:
        return 1
    return 0


def cmd_bound(cfg: RunConfig) -> int:
    """certified duality bound"""
    seed = _require_seed(cfg)
    report = duality_bound(
        cfg.p,
        delta=cfg.delta,
        draws=cfg.trials,
        seed=seed,
        dim=cfg.dim,
        depth=_tower_depth(cfg),
        tol=Tolerances.from_env().duality,
    )
    _emit(cfg, lambda: asdict(report), lambda: list(report.rows))
    return 0 if report.ok else 1


def cmd_corpus(cfg: RunConfig) -> int:
    """sweep the acceptance corpus"""
    names = _suite_names(cfg)
    tol = Tolerances.from_env()
    cells = default_corpus(seeds=cfg.seeds)
    # One generator, seeded 0, feeds the suites of every cell in corpus
    # order: the reports digest depends on its stream.
    rng = np.random.default_rng(0)
    worst = defaultdict(lambda: (0.0, None))
    centered_worst, defect_worst, margin_worst = 0.0, 0.0, -math.inf
    suites_ok = True
    reports, certificates = hashlib.sha256(), hashlib.sha256()
    stages: dict[str, float] = defaultdict(float)
    last = perf_counter()

    def lap(stage: str) -> None:
        nonlocal last
        now = perf_counter()
        stages[stage] += now - last
        last = now

    for cell in cells:
        pc = prepare_cell(cell)
        lap("prepare_cell")
        cert = certify(quadratic_candidate(cell.delta), pc.f, pc.g, pc.op, tol=tol.tight)
        lap("certify")
        # The suites and both probes read the certificate's witness (p = 2).
        w = cert.witness
        rows, ok = run_suites(w, tol, rng, suites=names)
        lap("suites")
        suites_ok = suites_ok and ok
        cert_text = to_canonical_json(certificate_to_dict(cert)).encode()
        reports.update(to_canonical_json(rows).encode())
        reports.update(cert_text)
        certificates.update(cert_text)
        for row in rows:
            err = row["max_err"]
            ratio = err / row["tol"] if row["tol"] > 0 else err if math.isnan(err) else float(err > 0)
            # A NaN ratio beats every number and stays: the first NaN cell
            # is the worst.
            best = worst[row["check"]][0]
            if not math.isnan(best) and (ratio > best or math.isnan(ratio)):
                worst[row["check"]] = (ratio, cell)
        lap("emission")
        centered, defect = restriction_identity_gaps(w)
        # np.maximum keeps a NaN, so the gate below cannot pass on one.
        centered_worst = float(np.maximum(centered_worst, centered))
        defect_worst = float(np.maximum(defect_worst, defect))
        margin_worst = float(np.maximum(margin_worst, hoelder_mean_margin(w)))
        lap("probes")
    walls = "  ".join(f"{name} {wall:.3f}" for name, wall in stages.items())
    print(f"stage wall (s): {walls}  total {sum(stages.values()):.3f}", file=sys.stderr)

    # The probes' bounds are the acceptance gate's (criteria 3 and 7).
    ok = (
        suites_ok
        and centered_worst <= tol.tight
        and defect_worst <= tol.tight
        and margin_worst <= tol.mean_bound
    )
    # Each check's worst err/tol and its cell [delta, dim, seed]; a check
    # that never moves off zero has no cell.
    checks = [
        (name, ratio, None if cell is None else [cell.delta, cell.dim, cell.seed])
        for name, (ratio, cell) in sorted(worst.items())
    ]
    _emit(
        cfg,
        lambda: {
            "cells": len(cells),
            "checks": [{"check": n, "err_over_tol": r, "cell": c} for n, r, c in checks],
            "restriction_centered_gap": centered_worst,
            "restriction_defect_gap": defect_worst,
            "mean_bound_margin": margin_worst,
            "ok": ok,
            "certificates_sha256": certificates.hexdigest(),
            "reports_sha256": reports.hexdigest(),
        },
        lambda: [
            {"check": n, "err_over_tol": r, **dict(zip(("delta", "dim", "seed"), c or [None] * 3))}
            for n, r, c in checks
        ],
    )
    return 0 if ok else 1


_COMMANDS = {
    "gen": cmd_gen,
    "check": cmd_check,
    "certify": cmd_certify,
    "lemma1": cmd_lemma1,
    "search": cmd_search,
    "scan": cmd_scan,
    "bound": cmd_bound,
    "corpus": cmd_corpus,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        _validate(args.command, cfg)
        return _COMMANDS[args.command](cfg)
    except (
        UsageError,
        FiltrationError,
        PredictabilityError,
        ReportError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CertificationError, EstimateError, ArithmeticError) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    # The imports leave many long-lived objects, numpy's above all; frozen,
    # the collections at interpreter exit do not traverse them.
    gc.freeze()
    return run()
