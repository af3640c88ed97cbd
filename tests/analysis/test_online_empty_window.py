"""Regression: a 0-frame window, even before any reference frame exists,
leaves every online operator's state untouched.

An empty first window used to crash ``OnlineContacts`` (``None / int``)
and turn ``OnlineObservables``' MSD series into an ``object`` array.
"""

import numpy as np
import pytest

from repro.analysis import (
    InSituAnalysis,
    OnlineContacts,
    OnlineObservables,
    OnlineRMSD,
)

pytestmark = pytest.mark.analysis

NATOMS = 12


def _coords(nframes=6, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(-4.0, 4.0, size=(NATOMS, 3))
    drift = rng.standard_normal((nframes, NATOMS, 3)).cumsum(axis=0) * 0.2
    coords = (base[None] + drift).astype(np.float32)
    coords[:, 1] = coords[:, 0] + 0.5  # frame 0 always has a contact
    return coords


def _empty():
    return np.zeros((0, NATOMS, 3), dtype=np.float32)


def _assert_results_equal(got, want):
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert np.array_equal(got[name], want[name]), name


@pytest.mark.parametrize(
    "make", [OnlineRMSD, lambda: OnlineRMSD(align=False), OnlineContacts,
             OnlineObservables],
)
def test_empty_first_window_leaves_operator_untouched(make):
    coords = _coords()
    fresh, primed = make(), make()
    empty = primed.update(_empty())
    for name, values in empty.items():
        assert values.shape[0] == 0, name
        assert values.dtype != object, name
    _assert_results_equal(primed.result(), fresh.result())
    fresh.update(coords)
    primed.update(coords)
    _assert_results_equal(primed.result(), fresh.result())
    # An empty window after the reference exists is a no-op too.
    primed.update(_empty())
    _assert_results_equal(primed.result(), fresh.result())


def test_consume_empty_first_window():
    coords = _coords()
    fresh, primed = InSituAnalysis(), InSituAnalysis()
    assert primed.consume(0, 0, _empty()) == 0
    primed.consume(0, 3, coords[:3])
    primed.consume(3, 3, _empty())
    primed.consume(3, 6, coords[3:])
    fresh.consume(0, 3, coords[:3])
    fresh.consume(3, 6, coords[3:])
    got, want = primed.results(), fresh.results()
    assert got["frames"] == want["frames"] == 6
    assert got["windows"] == want["windows"] + 2
    assert got["stats"] == want["stats"]
    for name in ("rmsd", "contacts", "native_fraction", "center_of_mass",
                 "gyration_radius", "end_to_end", "msd"):
        assert got[name].dtype == want[name].dtype, name
        assert np.array_equal(got[name], want[name]), name
