"""Check-suite layer: row structure, per-suite pass behavior, tolerance
scaling through the environment."""

import numpy as np
import pytest

from mblab.checks import SUITES, Tolerances, run_all, run_suite
from mblab.corpus import random_transform, random_witness


def test_suite_names_are_stable():
    assert set(SUITES) == {
        "projections",
        "localization",
        "support",
        "osc_series",
        "x2_drop",
        "x2_sign",
        "restriction",
        "contraction",
    }


def test_all_suites_pass_on_small_cells(small_cells):
    rng = np.random.default_rng(0)
    for pc in small_cells:
        rows, ok = run_all(pc.f, pc.g, pc.op, rng=rng)
        assert ok, [r for r in rows if not r["ok"]]
        for r in rows:
            assert set(r) == {"check", "max_err", "tol", "ok", "detail"}
            assert r["max_err"] <= r["tol"]


def test_all_suites_pass_on_kernel_towers(kernel_tower):
    # deeper and uneven towers than the depth-2 small cells: the suites
    # work level by level, so nesting across many levels must line up
    rng = np.random.default_rng(5)
    f, g = random_witness(kernel_tower, 2, rng)
    op = random_transform(kernel_tower, 2, rng)
    rows, ok = run_all(f, g, op, rng=rng)
    assert ok, [r for r in rows if not r["ok"]]


def test_row_names_unique(small_cells):
    pc = small_cells[0]
    rows, _ = run_all(pc.f, pc.g, pc.op, rng=np.random.default_rng(1))
    names = [r["check"] for r in rows]
    assert len(names) == len(set(names))


def test_suite_selection(small_cells):
    pc = small_cells[0]
    rows, ok = run_all(
        pc.f, pc.g, pc.op, rng=np.random.default_rng(2), suites=["x2_drop", "x2_sign"]
    )
    assert ok
    assert {r["check"] for r in rows} == {"x2_drop", "x2_sign", "x2_root_mean_bound"}


def test_unknown_suite_raises(small_cells):
    pc = small_cells[0]
    with pytest.raises(KeyError):
        run_suite("no_such_suite", pc.f, pc.g, pc.op, Tolerances(), np.random.default_rng(3))


def test_tolerance_scale_from_env(monkeypatch):
    monkeypatch.delenv("MBL_TOL", raising=False)
    base = Tolerances.from_env()
    assert base.scale == 1.0
    assert base.tight == pytest.approx(1e-9)
    assert base.exact == pytest.approx(1e-12)
    assert base.loose == pytest.approx(1e-6)
    monkeypatch.setenv("MBL_TOL", "1000")
    wide = Tolerances.from_env()
    assert wide.scale == 1000.0
    assert wide.tight == pytest.approx(1e-6)


@pytest.mark.parametrize("value", ["-2", "0", "inf", "nan"])
def test_bad_env_tolerance_rejected(monkeypatch, value):
    # a non-finite scale would turn every tolerance into inf or nan
    monkeypatch.setenv("MBL_TOL", value)
    with pytest.raises(ValueError):
        Tolerances.from_env()
