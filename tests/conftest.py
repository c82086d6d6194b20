"""Shared fixtures.

Unit tests lean on a handful of cheap prepared cells.  The acceptance
suite walks the full randomized corpus once per session; the heavy per
cell sweep (all check suites, the restriction identity gaps, the
telescoping gap, the Hoelder mean bound margin
``mblab.checks.hoelder_mean_margin`` and the dense-oracle cross-checks) is
cached here so each criterion only scans rows.  The check suites are
matrix-free, so the sweep holds their routes against the dense oracle of
``mblab.transforms`` on every cell: the SVD norm against the split-multiplier
norm, ``matrix_apply`` against ``apply`` and ``adjoint_apply`` against
``adjoint_closed_form``.  The restriction probe is
``mblab.checks.restriction_identity_gaps``: the centered cut
(g - <g>_J) 1_J gives an exact localization identity, and the uncentered
cut g 1_J exceeds it by exactly <g>_J^2 ||T* 1_J||^2 / |J|.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

import mblab.bellman as bellman
from mblab.bellman import Witness
from mblab.checks import hoelder_mean_margin, restriction_identity_gaps, run_suites
from mblab.corpus import CorpusCell, default_corpus, prepare_cell
from mblab.filtration import build_dyadic, build_random_regular, split_schedule
import oracles
from oracles import average, delta_split, operator_norm, shift
from mblab.transforms import split_multiplier_norm

# A failing example prints its ``@reproduce_failure`` blob, so a rare
# failure can be replayed; every other setting stays hypothesis's default.
# ``pytest --hypothesis-profile=soak`` runs every ``@given`` test at 20
# times its tier-1 examples (``examples``).
settings.register_profile("mblab", print_blob=True)
_TIER1_EXAMPLES = settings.get_profile("mblab").max_examples
settings.register_profile("soak", settings.get_profile("mblab"), max_examples=20 * _TIER1_EXAMPLES)
settings.load_profile("mblab")


def examples(n: int) -> settings:
    """The settings of a ``@given`` test of n examples at tier 1, no
    deadline.  An explicit ``max_examples`` overrides every profile, so n
    is scaled by the loaded profile's own count: n under ``mblab``, 20 n
    under ``soak``."""
    return settings(max_examples=n * settings.default.max_examples // _TIER1_EXAMPLES, deadline=None)


@pytest.fixture(autouse=True)
def no_shared_witness():
    """Every test starts with ``run_all`` and ``certify`` holding no witness,
    so no test reads one another test derived."""
    bellman._shared_witness.cache_clear()


def traced(fn):
    """``fn()`` under tracemalloc: its result, and the bytes it left held and
    its peak bytes, both above what was traced when it began."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - base, peak - base


@pytest.fixture(scope="session")
def dyadic1():
    return build_dyadic(1)


@pytest.fixture(scope="session")
def dyadic2():
    return build_dyadic(2)


@pytest.fixture(scope="session")
def dyadic3():
    return build_dyadic(3)


# Towers for the kernel cross-checks: balanced, uneven and many-child.
KERNEL_TOWERS = {
    "dyadic3": lambda: build_dyadic(3),
    "regular8": lambda: build_random_regular(
        depth=8, delta=0.25, max_children=3, split_prob=0.7, seed=31
    ),
    "regular6": lambda: build_random_regular(
        depth=6, delta=0.1, max_children=4, split_prob=0.7, seed=32
    ),
}


@pytest.fixture(scope="session", params=list(KERNEL_TOWERS))
def kernel_tower(request):
    return KERNEL_TOWERS[request.param]()


@pytest.fixture(scope="session")
def small_corpus():
    # one cell per (delta, dim) pair keeps unit runs quick
    return [
        CorpusCell(delta, dim, seed=0)
        for delta in (0.1, 0.25, 1.0 / 3.0, 0.5)
        for dim in (1, 2, 3)
    ]


@pytest.fixture(scope="session")
def small_cells(small_corpus):
    return [prepare_cell(c) for c in small_corpus]


def telescoping_relerr(f, g, op) -> float:
    """Relative gap between the split-pairing sum and the direct pairing
    against the centered input."""
    from mblab.martingale import inner

    filt = f.filtration
    tstar_g = op.adjoint_apply(g)
    lhs = 0.0
    for ev in split_schedule(filt):
        lhs += inner(delta_split(tstar_g, ev), delta_split(f, ev))
    centered = shift(f, -average(f, oracles.root(filt).id))
    rhs = inner(g, op.apply(centered))
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


@pytest.fixture(scope="session")
def corpus_report():
    """Full corpus sweep: check-suite rows plus acceptance-only probes."""
    report = []
    rng = np.random.default_rng(20240817)
    for cell in default_corpus():
        pc = prepare_cell(cell)
        w = Witness(pc.f, pc.g, pc.op)
        rows, ok = run_suites(w, rng=rng)
        centered, defect = restriction_identity_gaps(w)
        op = pc.op
        apply_gap = np.max(np.abs(op.matrix_apply(pc.f).values - op.apply(pc.f).values))
        adjoint_gap = np.max(
            np.abs(op.adjoint_apply(pc.g).values - op.adjoint_closed_form(pc.g).values)
        )
        report.append(
            {
                "cell": cell,
                "prepared": pc,
                "rows": {r["check"]: r for r in rows},
                "suite_ok": ok,
                "restriction_centered": centered,
                "restriction_defect": defect,
                "telescoping": telescoping_relerr(pc.f, pc.g, pc.op),
                "hoelder_margin": hoelder_mean_margin(w),
                "svd_norm": operator_norm(op),
                "split_norm": split_multiplier_norm(op),
                "apply_route": float(apply_gap),
                "adjoint_route": float(adjoint_gap),
            }
        )
    return report
