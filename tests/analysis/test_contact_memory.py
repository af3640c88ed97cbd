"""The contact kernel's transient memory stays bounded by its element
budget, whatever the atom count.

The default in-situ bundle runs all-atom contacts; on a 2,000-atom,
10-frame window the full pair tensor would hold 40 million float64
distances per coordinate.  Row blocking keeps every block within
``_BATCH_ELEMENTS`` pair-frame elements instead.
"""

import tracemalloc

import numpy as np
import pytest

from repro.analysis import OnlineContacts
from repro.analysis.contacts import _BATCH_ELEMENTS

pytestmark = pytest.mark.analysis

#: A block holds at most three float64 pair tensors at once (the running
#: squared distance, one coordinate's differences and its gather) plus
#: its index arrays and mask.
PEAK_BUDGET_MULTIPLE = 4


def test_all_atom_contacts_peak_memory_bounded():
    rng = np.random.default_rng(0)
    slab = rng.uniform(0.0, 60.0, size=(10, 2000, 3)).astype(np.float32)
    op = OnlineContacts()
    op.update(slab[:1])  # the reference frame and native map
    tracemalloc.start()
    try:
        fresh = op.update(slab)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fresh["contacts"].shape == (10,)
    assert peak <= PEAK_BUDGET_MULTIPLE * _BATCH_ELEMENTS * 8, peak
