"""Span tracer for the benchmark's traced runs.

``install`` wraps every public function of the ``mblab`` layer modules (and
the public methods of ``MartingaleTransform``) under the same name in every
``mblab`` namespace that binds it, including dict registries such as
``checks.SUITES``.  A wrapper records one span per call: name, start, end,
parent span and op id.  Spans stay in flat in-memory arrays until the run
ends; ``summarize`` then turns them into per-function call counts, self
times and inclusive times.

A few wrappers also read a count off the returned value (rows checked,
split records, report bytes, dense-matrix bytes, trials).  Those counts are
computed from the results, not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = (
    "filtration",
    "martingale",
    "transforms",
    "checks",
    "corpus",
    "bellman",
    "certifier",
    "estimator",
    "reporting",
    "cli",
)

# Public methods traced besides module-level functions.
METHODS = {
    "transforms": {
        "MartingaleTransform": ("apply", "matrix_apply", "adjoint_apply", "adjoint_closed_form")
    },
}

# Tower builders; their spans make up filtration.build_*.
BUILDERS = ("filtration.build_dyadic", "filtration.build_random_regular")


def _run_all_rows(result):
    rows, _ = result
    return {"checks.rows": len(rows), "checks.rows_red": sum(1 for r in rows if not r["ok"])}


# Counts read off a call's result: span name -> function(result) -> {metric: count}.
RESULT_COUNTS = {
    "checks.run_all": _run_all_rows,
    "certifier.certify": lambda cert: {"certifier.split_records": len(cert.records)},
    "reporting.to_canonical_json": lambda text: {"reporting.bytes_out": len(text.encode())},
    "transforms.make_transform": lambda op: {
        "transforms.matrix_bytes": op.filtration.n_leaves ** 2 * op.dim * 8
    },
    "estimator.lp_constant_scan": lambda res: {"estimator.trials": res.trials},
    "estimator.lower_bound_search": lambda res: {"estimator.trials": res.trials},
    "estimator.duality_bound": lambda rep: {"estimator.trials": rep.n_g},
}


def _public_functions(module):
    """Module-level public callables defined in ``module`` itself (plain or
    ``lru_cache``-wrapped functions)."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            out[name] = obj
    return out


class Tracer:
    """Flat span store plus result counters for one process.  Spans are
    appended on entry (parent and op id known then) and closed on exit."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counts: dict[str, int] = {}
        self.stack: list[int] = []
        self.op_id = -1
        self.schedule = None
        self.schedule_base = None

    def wrap(self, name: str, func):
        nid = len(self.names)
        self.names.append(name)
        count = RESULT_COUNTS.get(name)
        tr = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(tr.t0)
            stack = tr.stack
            tr.name_id.append(nid)
            tr.parent.append(stack[-1] if stack else -1)
            tr.op.append(tr.op_id)
            tr.t1.append(0.0)
            stack.append(idx)
            tr.t0.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            finally:
                tr.t1[idx] = perf_counter()
                stack.pop()
            if count is not None:
                for key, value in count(result).items():
                    tr.counts[key] = tr.counts.get(key, 0) + value
            return result

        return wrapper

    def finish(self) -> None:
        """Add the split_schedule cache hits and misses since ``install``."""
        info = getattr(self.schedule, "cache_info", None)
        if info is not None:
            now = info()
            self.counts["filtration.schedule_cache_hits"] = now.hits - self.schedule_base.hits
            self.counts["filtration.schedule_cache_misses"] = now.misses - self.schedule_base.misses

    def spans(self) -> dict:
        return {
            "names": list(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "t0": np.frombuffer(self.t0),
            "t1": np.frombuffer(self.t1),
            "counts": dict(self.counts),
        }


def save(spans: dict, path: Path) -> None:
    """Write a span set (as returned by ``Tracer.spans`` or ``merge``) to an
    .npz file."""
    arrays = {k: spans[k] for k in ("name_id", "parent", "op", "t0", "t1")}
    with open(path, "wb") as fh:
        np.savez(fh, names=json.dumps(spans["names"]), counts=json.dumps(spans["counts"]), **arrays)


def load(path: Path) -> dict:
    with np.load(path) as data:
        spans = {k: data[k] for k in ("name_id", "parent", "op", "t0", "t1")}
        spans["names"] = json.loads(str(data["names"]))
        spans["counts"] = json.loads(str(data["counts"]))
    return spans


def install(tracer: Tracer) -> None:
    """Replace every traced function by its wrapper wherever mblab binds it."""
    import mblab

    # mblab/__init__ does not import every layer (cli), so import them here.
    modules = {layer: importlib.import_module(f"mblab.{layer}") for layer in LAYERS}
    schedule = modules["filtration"].split_schedule
    tracer.schedule = schedule
    tracer.schedule_base = schedule.cache_info() if hasattr(schedule, "cache_info") else None
    swap: dict[int, object] = {}
    for layer, module in modules.items():
        for name, func in _public_functions(module).items():
            swap[id(func)] = tracer.wrap(f"{layer}.{name}", func)
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name)
            for meth in methods:
                setattr(cls, meth, tracer.wrap(f"{layer}.{meth}", getattr(cls, meth)))

    namespaces = [mblab, *modules.values()]
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if attr.startswith("__"):
                continue
            if id(value) in swap:
                setattr(ns, attr, swap[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in swap:
                        value[key] = swap[id(item)]


def merge(parts: list[dict]) -> dict:
    """Concatenate span sets (one per child process) into one, renumbering
    names and parents and setting each part's op id to its ``op_id``."""
    index: dict[str, int] = {}
    cols: dict[str, list] = {k: [] for k in ("name_id", "parent", "op", "t0", "t1")}
    counts: dict[str, int] = {}
    offset = 0
    for part in parts:
        for n in part["names"]:
            index.setdefault(n, len(index))
        remap = np.array([index[n] for n in part["names"]], dtype=np.int64)
        cols["name_id"].append(remap[part["name_id"]])
        cols["parent"].append(np.where(part["parent"] >= 0, part["parent"] + offset, -1))
        cols["op"].append(np.full(len(part["t0"]), part["op_id"]))
        cols["t0"].append(part["t0"])
        cols["t1"].append(part["t1"])
        for k, v in part["counts"].items():
            counts[k] = counts.get(k, 0) + v
        offset += len(part["t0"])
    merged = {k: np.concatenate(v) if v else np.zeros(0) for k, v in cols.items()}
    return {"names": sorted(index, key=index.get), **merged, "counts": counts}


def summarize(spans: dict) -> dict:
    """Per-function calls, self time and outermost inclusive time.

    Self time is a span's duration minus the part its child spans cover;
    calls are single threaded, so children never overlap and that part is
    the sum of their durations.  Inclusive time counts only calls with no
    caller of the same name, so recursion is not counted twice.
    """
    names = spans["names"]
    name_id = np.asarray(spans["name_id"], dtype=np.int64)
    parent = np.asarray(spans["parent"], dtype=np.int64)
    dur = np.asarray(spans["t1"], dtype=float) - np.asarray(spans["t0"], dtype=float)
    n = len(dur)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child

    nested = np.zeros(n, dtype=bool)
    anc = parent.copy()
    while (anc >= 0).any():
        live = anc >= 0
        nested[live] |= name_id[anc[live]] == name_id[live]
        anc[live] = parent[anc[live]]
    k = len(names)
    calls = np.bincount(name_id, minlength=k)
    self_s = np.bincount(name_id, weights=self_t, minlength=k)
    incl_s = np.bincount(name_id[~nested], weights=dur[~nested], minlength=k)
    funcs = {
        names[i]: {"calls": int(calls[i]), "self_s": float(self_s[i]), "incl_s": float(incl_s[i])}
        for i in range(k)
        if calls[i]
    }
    return {
        "funcs": funcs,
        "top_level_s": float(dur[~has_parent].sum()),
        "spans": n,
        "counts": dict(spans["counts"]),
    }
