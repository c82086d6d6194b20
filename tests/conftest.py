"""Shared fixtures and inputs.

Unit tests lean on a handful of cheap prepared cells (``small_cells``) and
on three kernel towers, balanced, uneven and many-child
(``KERNEL_TOWERS``).  Every property test draws its towers from one
strategy, ``regular_towers``: dyadic and random-regular towers up to the
test's depth bound, with the value dimension and seed of what is drawn on
them.  The equivalence harness,
``tests/test_equivalence.py``, runs every entry of the registry
``oracles.EQUIVALENCES`` on all three kinds of input.

The acceptance suite walks the full randomized corpus once per session,
through the command's own route.  ``corpus_report`` runs
``mblab.cli.run_cell`` on every cell of ``default_corpus()``.  It feeds the
suites from the stream ``mblab corpus`` uses, ``default_rng(0)`` in corpus
order, so criteria 1-4 and 7 read the rows the command emits.  It folds
each cell's rows and certificate texts into the command's two
``--seeds 100`` digests, which tier-1 pins.  It adds only the dense-oracle
columns: the check suites are matrix-free, so the sweep holds their routes
against the dense oracle of ``mblab.transforms`` on every cell (the
telescoping gap, the SVD norm against the split-multiplier norm,
``matrix_apply`` against ``apply`` and ``adjoint_apply`` against
``adjoint_closed_form``).  The restriction probe
is ``mblab.checks.restriction_identity_gaps``: the centered cut
(g - <g>_J) 1_J gives an exact localization identity, and the uncentered
cut g 1_J exceeds it by exactly <g>_J^2 ||T* 1_J||^2 / |J|.
"""

from __future__ import annotations

import hashlib
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, settings
from hypothesis import strategies as st

import mblab.bellman as bellman
from mblab.checks import Tolerances
from mblab.cli import run_cell
from mblab.corpus import CorpusCell, default_corpus, prepare_cell
from mblab.filtration import Filtration, build_dyadic, build_random_regular, max_parts, split_schedule
from mblab.martingale import MartFunction
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


def rand_fn(filt: Filtration, dim: int, seed: int) -> MartFunction:
    """Standard normal (L, dim) leaf values of ``default_rng(seed)``."""
    return MartFunction(filt, np.random.default_rng(seed).normal(size=(filt.n_leaves, dim)))


def leaf_positions(filt: Filtration) -> dict[int, int]:
    """Leaf atom id -> its position in leaf order."""
    return {leaf: i for i, leaf in enumerate(oracles.leaves_of(filt))}


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


class Drawn(NamedTuple):
    """A tower, and the value dimension and seed of what is drawn on it."""

    tower: Filtration
    dim: int
    seed: int


# The floors of the random towers: the corpus floors and two off its grid.
RANDOM_FLOORS = (0.1, 0.2, 0.25, 0.3, 1.0 / 3.0, 0.5)


def drawn(depth: int, delta: float, cap: int, split_prob: float, tower_seed: int, dim: int) -> Drawn:
    """The random-regular tower of these arguments, with d and the seed
    tower_seed + 1 for the draws on it."""
    return Drawn(build_random_regular(depth, delta, cap, split_prob, tower_seed), dim, tower_seed + 1)


@st.composite
def regular_towers(draw, max_depth: int = 10) -> Drawn:
    """The one strategy of the property tests: a dyadic tower, or a
    random-regular tower at a floor of ``RANDOM_FLOORS`` with a cap on its
    children from 2 up to its ``max_parts`` (at most 5), a split chance of
    0.3, 0.6, 0.7 or 1 and any seed; depth 1 to ``max_depth`` and at most
    2,048 leaves; d of 1 to 3.  Cap^depth stays within 3^10, so no tower
    built to be turned down holds more than 59,049 leaves."""
    depth, dim = draw(st.integers(1, max_depth)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        case = Drawn(build_dyadic(depth), dim, draw(st.integers(0, 2**32 - 1)))
    else:
        delta = draw(st.sampled_from(RANDOM_FLOORS))
        caps = [c for c in range(2, min(5, max_parts(delta)) + 1) if c**depth <= 3**10]
        cap = draw(st.sampled_from(caps))
        split_prob = draw(st.sampled_from((0.3, 0.6, 0.7, 1.0)))
        case = drawn(depth, delta, cap, split_prob, draw(st.integers(0, 2**32 - 2)), dim)
    assume(case.tower.n_leaves <= 2048)
    return case


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


class CorpusReport(NamedTuple):
    """The acceptance sweep: one record per cell, and the two digests of
    ``mblab corpus --seeds 100``."""

    cells: list[dict]
    certificates_sha256: str
    reports_sha256: str


@pytest.fixture(scope="session")
def corpus_report():
    """The full corpus through ``run_cell`` on the command's stream, at the
    default tolerances: each cell's witness, rows and probes plus the
    dense-oracle columns, and the digests the command folds the same texts
    into."""
    cells = []
    tol, rng = Tolerances(), np.random.default_rng(0)
    reports, certificates = hashlib.sha256(), hashlib.sha256()
    for cell in default_corpus():
        cell_run = run_cell(cell, tol, rng)
        cert_text = cell_run.certificate_text.encode()
        reports.update(cell_run.rows_text.encode())
        reports.update(cert_text)
        certificates.update(cert_text)
        w = cell_run.witness
        op = w.op
        apply_gap = np.max(np.abs(op.matrix_apply(w.f).values - op.apply(w.f).values))
        adjoint_gap = np.max(np.abs(op.adjoint_apply(w.g).values - op.adjoint_closed_form(w.g).values))
        cells.append(
            {
                "cell": cell,
                "witness": w,
                "rows": {r["check"]: r for r in cell_run.rows},
                "restriction_centered": cell_run.centered_gap,
                "restriction_defect": cell_run.defect_gap,
                "telescoping": telescoping_relerr(w.f, w.g, op),
                "hoelder_margin": cell_run.margin,
                "svd_norm": operator_norm(op),
                "split_norm": split_multiplier_norm(op),
                "apply_route": float(apply_gap),
                "adjoint_route": float(adjoint_gap),
            }
        )
    return CorpusReport(cells, certificates.hexdigest(), reports.hexdigest())
