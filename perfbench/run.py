"""mblab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload corpus_sweep --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): corpus_sweep, deep_tower, cli_session.  With
``--trace 0`` the run is untraced and reports the end-to-end metrics.  With
``--trace 1`` an untraced run in a child process gives the baseline wall time
and report digest, then a traced run of the same plan gives the per-layer
metrics and ``trace.overhead_s``.

End-to-end times are scaled to a reference machine speed, sampled during and
between operations with a fixed kernel (speed.py); the raw times are printed
too.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the metrics are those BENCHMARK.json names for the mode,
with its units.  The lines before it give every metric (gated or not), the
sha256 of the canonical reports, and a ``detail`` line with provenance and
per-operation records.  Exit code 0 means the run finished; ``correct`` says
whether every output met its invariants.
"""

from __future__ import annotations

import os

# Each workload runs in one process and one thread; BLAS must not spawn more.
# Set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import speed
import tracer
from tracer import BUILDERS, LAYERS
from workloads import ROOT, SRC, WORKLOADS, OpResult, child_env

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
SUITES = ("projections", "localization", "support", "osc_series", "x2_drop", "x2_sign", "restriction", "contraction")
# Functions whose calls and self time are always printed, 0 where not reached.
NAMED_KERNELS = (
    *(f"martingale.{k}" for k in ("cond_exp", "delta_split", "inner", "osc2", "average")),
    *(f"transforms.{k}" for k in ("make_transform", "apply", "adjoint_apply", "adjoint_closed_form", "predictable_hull")),
    "bellman.bellman_point",
    "certifier.certify",
)
# Functions whose inclusive time is always printed.
NAMED_STAGES = (
    "transforms.operator_norm", "corpus.prepare_cell", "corpus.random_transform",
    "bellman.dyadic_expand", "bellman.sample_dyadic_split_configs",
    "estimator.lp_constant_scan", "estimator.lower_bound_search", "estimator.duality_bound",
    "reporting.to_canonical_json",
)
COUNTS = (
    ("checks.rows", "count", "rows returned by run_all"),
    ("checks.rows_red", "count", "red rows"),
    ("certifier.split_records", "count", ""),
    ("estimator.trials", "count", ""),
    ("reporting.bytes_out", "B", "canonical JSON written"),
    ("transforms.matrix_bytes", "B", "computed, L*L*d*8 per make_transform"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: time set-up only (fresh-interpreter probe), or skip the
    # set-up probes (baseline child of a traced run).
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--no-probes", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


# ---------------------------------------------------------------------------
# Running a pass


def run_pass(wl, items, spans_out=None, span_dir: Path | None = None):
    """Run every operation once, in order, sampling machine speed as it goes;
    returns [(seconds, speed factor, OpResult)]."""

    def run(i, item):
        try:
            if spans_out is not None:
                spans_out.op_id = i
            if span_dir is None:
                return wl.run(item)
            return wl.run(
                item,
                launcher=[sys.executable, str(HERE / "launcher.py")],
                extra_env={"PERFBENCH_SPANS": str(span_dir / f"op{i}.npz")},
            )
        except Exception as exc:  # a raising operation is a failed one; the run goes on
            return OpResult("", False, f"raised {type(exc).__name__}: {exc}")
        finally:
            if spans_out is not None:
                spans_out.op_id = -1

    # A sample inside an operation would land in the self time of a traced
    # span, so traced runs sample between operations only.
    with speed.Scaler(during_ops=wl.in_process and spans_out is None) as scaler:
        ops = [scaler.time(lambda: run(i, item)) for i, item in enumerate(items)]
    checked = []
    for item, (res, sec), factor in zip(items, ops, scaler.factors()):
        try:
            res = wl.verify(item, res)
        except Exception as exc:  # a report the checks cannot read is a failed operation
            res = OpResult(res.report, False, f"report check raised {type(exc).__name__}: {exc}")
        checked.append((sec, factor, res))
    return checked


def walls(ops) -> tuple[float, float]:
    """Raw and speed-scaled wall time of the operations, in s."""
    return sum(sec for sec, _, _ in ops), sum(sec * f for sec, f, _ in ops)


def digest(ops) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for _, _, res in ops:
        data = res.report.encode()
        h.update(data)
        size += len(data)
    return h.hexdigest(), size


def op_records(items, ops) -> list[dict]:
    return [
        {
            "op": i,
            "input": repr(item),
            "ms": sec * 1e3,
            "speed_factor": factor,
            "ok": res.ok,
            "why": res.why,
            "leaves": res.leaves,
            "splits": res.splits,
            "matrix_bytes_computed": res.matrix_bytes,
            "command": getattr(item, "command", None),
        }
        for i, (item, (sec, factor, res)) in enumerate(zip(items, ops))
    ]


def tail(samples_ms: list[float]):
    """Highest listed percentile with at least 10 samples beyond it, as
    (value, percentile, samples beyond), or None (nearest-rank percentiles)."""
    xs = sorted(samples_ms)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(n * p / 100)
        if n - rank >= 10:
            return xs[rank - 1], p, n - rank
    return None


# ---------------------------------------------------------------------------
# Child interpreters


def _bench_argv(args, *extra) -> list[str]:
    return [
        sys.executable, str(HERE / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", repr(args.seconds),
        *extra,
    ]


def setup_probe_s(args) -> tuple[float, float]:
    """Fresh interpreter start to the end of set-up (import mblab plus input
    generation), timed from here; raw and scaled by the machine speed
    sampled before and after."""
    before = speed.sample()
    t0 = perf_counter()
    with subprocess.Popen(
        _bench_argv(args, "--setup-probe"), cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    ) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=170)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed, elapsed * speed.NOMINAL_S / ((before + speed.sample()) / 2)


def import_probe_s() -> float:
    code = "import time; t = time.perf_counter(); import mblab; print(time.perf_counter() - t)"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=170, check=True,
    )
    return float(out.stdout)


def import_scipy_s() -> float:
    """Self time of every scipy module during ``import mblab``, from -X importtime."""
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import mblab"], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=170, check=True,
    )
    total_us = 0
    for line in out.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and line.startswith("import time:"):
            name = parts[2].strip()
            if name == "scipy" or name.startswith("scipy."):
                total_us += int(parts[0].split(":")[1])
    return total_us / 1e6


def baseline_run(args) -> dict:
    """Untraced run of the same plan in a fresh interpreter; its detail line."""
    out = subprocess.run(
        _bench_argv(args, "--trace", "0", "--no-probes"), cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=175,
    )
    if out.returncode != 0:
        raise RuntimeError(f"untraced baseline run failed (exit {out.returncode}): {out.stderr[-500:]}")
    for line in out.stdout.splitlines():
        if line.startswith("detail "):
            return json.loads(line[len("detail "):])
    raise RuntimeError("untraced baseline run printed no detail line")


# ---------------------------------------------------------------------------
# Provenance


def _read(path: str | Path) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def provenance(args) -> dict:
    import numpy
    import scipy

    git_sha = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            git_sha = out.stdout.strip() or None
        except OSError:  # no git installed
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "mblab").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size and kind and kind.strip() != "Instruction":
            caches[f"L{level.strip()}"] = size.strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "cpu0_caches": caches,
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(args, wl, ops) -> dict:
    """Times are scaled to the reference speed (see speed.py); the raw ones
    are printed as *_raw_*."""
    ms = [sec * f * 1e3 for sec, f, _ in ops]
    raw_wall, wall = walls(ops)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_session" else resource.RUSAGE_SELF
    metrics = {
        "wall_s": (wall, "s", "scaled to the reference speed"),
        "wall_raw_s": (raw_wall, "s"),
        "speed.factor": (wall / raw_wall, "1", "reference speed over measured speed, time-weighted"),
        "op_p50_ms": (statistics.median(ms), "ms", "scaled"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        "ops_failed_frac": (sum(not r.ok for _, _, r in ops) / len(ops), "1"),
    }
    t = tail(ms)
    if t is not None:
        metrics["op_tail_ms"] = (t[0], "ms", f"scaled, p{t[1]:g} of {len(ms)} ops, {t[2]} beyond")
    if not args.no_probes:
        # After peak_rss_mb, so that the probes do not count as cli_session children.
        raw, scaled = zip(*(setup_probe_s(args) for _ in range(SETUP_PROBES)))
        note = f"median of {len(raw)} fresh interpreters"
        metrics["setup_s"] = (statistics.median(scaled), "s", note + ", scaled to the reference speed")
        metrics["setup_raw_s"] = (statistics.median(raw), "s", note)
    return metrics


def per_layer(summary: dict, traced_wall: float, base: dict, wl) -> dict:
    funcs = summary["funcs"]
    counts = summary["counts"]

    def total(names, key):
        return sum(funcs.get(n, {}).get(key, 0) for n in names)

    m: dict[str, tuple] = {}
    for name, rec in sorted(funcs.items()):
        m[f"{name}_calls"] = (rec["calls"], "count")
        m[f"{name}_self_s"] = (rec["self_s"], "s")
        m[f"{name}_s"] = (rec["incl_s"], "s", "inclusive")
    # Named metrics read 0 where the workload never reaches the function.
    for name in NAMED_KERNELS:
        m.setdefault(f"{name}_calls", (0, "count"))
        m.setdefault(f"{name}_self_s", (0.0, "s"))
    for name in NAMED_STAGES:
        m.setdefault(f"{name}_s", (0.0, "s", "inclusive"))
    for suite in SUITES:
        m[f"checks.{suite}_s"] = (total([f"checks.check_{suite}"], "incl_s"), "s", "inclusive")
    m["filtration.build_calls"] = (total(BUILDERS, "calls"), "count")
    m["filtration.build_s"] = (total(BUILDERS, "incl_s"), "s", "inclusive")
    hits = counts.get("filtration.schedule_cache_hits", 0)
    misses = counts.get("filtration.schedule_cache_misses", 0)
    # -1 when split_schedule has no cache_info to read.
    ratio = hits / (hits + misses) if hits + misses else -1.0
    m["filtration.schedule_cache_hit_ratio"] = (ratio, "1", f"{hits} hits, {misses} misses")
    for key, unit, note in COUNTS:
        m[key] = (counts.get(key, 0), unit, note)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (total([n for n in funcs if n.startswith(layer + ".")], "self_s"), "s")
    if wl.name == "cli_session":
        per_cmd: dict[str, list[float]] = {}
        for rec in base["ops"]:
            per_cmd.setdefault(rec["command"], []).append(rec["ms"] / 1e3)
        for cmd, secs in per_cmd.items():
            m[f"cli.{cmd}_s"] = (statistics.mean(secs), "s", "untraced, mean per call")
    imports = [import_probe_s() for _ in range(SETUP_PROBES)]
    m["cli.import_s"] = (statistics.median(imports), "s", "fresh interpreter, import mblab")
    m["cli.import_scipy_s"] = (import_scipy_s(), "s", "scipy self time under -X importtime")
    m["trace.overhead_s"] = (traced_wall - base["wall_raw_s"], "s", "traced wall minus untraced wall, raw")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.glue_s"] = (traced_wall - summary["top_level_s"], "s", "traced wall outside every mblab span")
    m["trace.spans"] = (summary["spans"], "count")
    return m


# ---------------------------------------------------------------------------
# Output


def emit(args, metrics: dict, detail: dict, correct: bool, attempted: int, failed: int) -> None:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = contract["per_layer" if args.trace else "end_to_end"]
    for name, val in metrics.items():
        note = val[2] if len(val) > 2 and val[2] else ""
        print(f"{name} {val[0]!r} {val[1]}" + (f"  ({note})" if note else ""))
    print("detail " + json.dumps(dict(detail, metrics={k: v[0] for k, v in metrics.items()})))
    if args.no_probes:
        return  # baseline child of a traced run: its parent reads the detail line
    missing = [g["name"] for g in gated if g["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {g["name"]: {"value": metrics[g["name"]][0], "unit": g["unit"]} for g in gated},
            }
        )
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    # One CPU for this process and every child it starts: the speed samples
    # then run where the timed work runs, and nothing migrates mid-run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "mblab" / "__init__.py").is_file():
        print(f"perfbench: no mblab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    import mblab  # noqa: F401  (set-up includes the import)

    items = wl.plan(args.seed, args.seconds)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace} ops={len(items)}")
    detail = {"provenance": provenance(args)}
    if not args.trace:
        ops = run_pass(wl, items)
        metrics = end_to_end(args, wl, ops)
        sha, size = digest(ops)
        failed = sum(not r.ok for _, _, r in ops)
        correct = failed == 0
    else:
        # The untraced baseline runs first, in its own interpreter, so both
        # runs start from the same cold process state.
        base = baseline_run(args)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        if wl.name == "cli_session":
            with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
                ops = run_pass(wl, items, span_dir=Path(tmp))
                parts = []
                for i in range(len(items)):
                    path = Path(tmp) / f"op{i}.npz"
                    if path.exists():
                        parts.append(dict(tracer.load(path), op_id=i))
            spans = tracer.merge(parts)
        else:
            spans_out = tracer.Tracer()
            tracer.install(spans_out)
            ops = run_pass(wl, items, spans_out=spans_out)
            spans_out.finish()
            spans = spans_out.spans()
        spans_path = out_dir / f"{wl.name}-spans.npz"
        tracer.save(spans, spans_path)
        print(f"spans {spans_path.relative_to(ROOT)}  ({len(spans['t0'])} spans)")
        summary = tracer.summarize(spans)
        metrics = per_layer(summary, walls(ops)[0], base, wl)
        sha, size = digest(ops)
        failed = sum(not r.ok for _, _, r in ops)
        same = sha == base["report_sha256"]
        if not same:
            print("report bytes differ with tracing on and off", file=sys.stderr)
        correct = failed == 0 and base["failed"] == 0 and same
        failed = max(failed, base["failed"])
        detail["untraced_report_sha256"] = base["report_sha256"]

    print(f"report_sha256 {sha}  ({len(ops)} reports, {size} bytes)")
    records = op_records(items, ops)
    for rec in records:
        if not rec["ok"]:
            print(f"FAILED op {rec['op']} {rec['input']}: {rec['why']}", file=sys.stderr)
    raw_wall, wall = walls(ops)
    detail.update(report_sha256=sha, report_bytes=size, wall_raw_s=raw_wall, wall_s=wall, failed=failed, ops=records)
    emit(args, metrics, detail, correct, len(items), failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
