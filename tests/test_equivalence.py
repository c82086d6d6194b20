"""Every production route against its oracle, from one registry.

``oracles.EQUIVALENCES`` declares each pair once: the production call, the
oracle, the builder of their arguments from a tower, a value dimension d
and a seed, the pass sizes the route reads and the comparison, exact bits
unless the entry names a tolerance.  Each entry runs here on the kernel
towers, on the towers of the small corpus cells, on towers of depth 6 at
most from ``conftest.regular_towers`` (whose dense matrices stay small)
and on its own cases, at its default pass sizes and with each pass size
patched to each of its smaller values.  A case's id is
``<entry>-<input>-<pass size>``, so ``pytest -k <entry>`` runs one pair.
"""

import contextlib

import pytest
from hypothesis import given

from conftest import KERNEL_TOWERS, examples, regular_towers
from oracles import EQUIVALENCES, pass_size

# Each kernel tower at one value dimension, which is also its seed.
KERNEL_DIMS = {"dyadic3": 1, "regular8": 2, "regular6": 3}
TOWERS = {name: build() for name, build in KERNEL_TOWERS.items()}


def _cases():
    for entry in EQUIVALENCES.values():
        sizes = [("default", None)]
        sizes += [(f"{q.split('.')[1]}={v}", (q, v)) for q, values in entry.sizes.items() for v in values]
        for source in [*KERNEL_DIMS, "cells", "random", *entry.cases]:
            for label, size in sizes:
                yield pytest.param(entry.name, source, size, id=f"{entry.name}-{source}-{label}")


@pytest.mark.parametrize("name, source, size", _cases())
def test_equivalence(name, source, size, small_cells):
    entry = EQUIVALENCES[name]

    @examples(2)
    @given(case=regular_towers(max_depth=6))
    def on_random_towers(case):
        entry.on(*case)

    with pass_size(*size) if size else contextlib.nullcontext():
        if source in KERNEL_DIMS:
            entry.on(TOWERS[source], KERNEL_DIMS[source], KERNEL_DIMS[source])
        elif source == "cells":
            # the cells' four towers, each shared by its cells of d 1 to 3,
            # once each with d cycling through 1, 2, 3
            towers = {id(w.filtration): w.filtration for w in small_cells}
            for i, filt in enumerate(towers.values()):
                entry.on(filt, 1 + i % 3, 0)
        elif source == "random":
            on_random_towers()
        else:
            entry.holds(entry.cases[source])
