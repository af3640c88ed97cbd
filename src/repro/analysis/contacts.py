"""Residue/atom contact analysis.

Contact maps and native-contact fractions are the observables GPCR papers
actually report (the CB1 activation studies the paper's datasets come
from track helix-helix contacts).  One kernel, :func:`_contact_pairs`,
serves every entry point: it visits each unordered atom pair once, in row
blocks whose size is bounded by :data:`_BATCH_ELEMENTS`, so memory stays
bounded on large selections.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.analysis._soa import planes
from repro.errors import TopologyError
from repro.formats.trajectory import Trajectory

__all__ = [
    "contact_map",
    "contact_count",
    "frame_contact_counts",
    "native_contact_fraction",
]

#: Element budget for one block of atom pairs across all frames: each
#: block's float64 distance tensors hold at most this many elements.
_BATCH_ELEMENTS = 2 * 1024 * 1024


def _pair_delta(
    plane: np.ndarray, start: int, runs: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """``plane[:, i] - plane[:, j]`` over a block's pairs; the ``i`` side
    is a run of each row repeated once per partner."""
    delta = np.repeat(plane[:, start:start + runs.size], runs, axis=1)
    delta -= plane[:, j]
    return delta


def _contact_pairs(
    stack: np.ndarray, cutoff: float
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Row-blocked upper-triangle contacts of an ``(F, N, 3)`` stack.

    Yields ``(i, j, mask)`` per block of atom pairs with ``i < j``:
    ``mask[f, p]`` is True when atoms ``i[p]`` and ``j[p]`` are within
    ``cutoff`` in frame ``f``.  Squared distances come from float64 x, y
    and z planes as ``(dx*dx + dy*dy) + dz*dz``, bit-identical to the
    xyz-interleaved ``(delta**2).sum(axis=-1)``, and are symmetric in the
    pair, so the upper triangle decides the whole contact matrix.  Rows
    are blocked so ``F * pairs`` stays within :data:`_BATCH_ELEMENTS`.
    """
    x, y, z = planes(stack)
    nframes, natoms = x.shape
    c2 = cutoff * cutoff
    start = 0
    while start < natoms - 1:
        width = natoms - 1 - start
        budget_rows = _BATCH_ELEMENTS // (max(1, nframes) * width)
        rows = max(1, min(width, budget_rows))
        # Row start + r pairs with columns start + 1 + c for every c >= r.
        i, j = np.nonzero(~np.tri(rows, width, -1, dtype=bool))
        i += start
        j += start + 1
        runs = np.arange(width, width - rows, -1)
        d2 = _pair_delta(x, start, runs, j)
        d2 *= d2
        for plane in (y, z):
            part = _pair_delta(plane, start, runs, j)
            part *= part
            d2 += part
            # Freed before the next plane's delta and gather are built, so
            # a block never holds more than three pair tensors at once.
            del part
        yield i, j, d2 < c2
        start += rows


def contact_map(
    frame_coords: np.ndarray,
    cutoff: float = 8.0,
    selection: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Symmetric boolean contact matrix for one frame."""
    coords = np.asarray(frame_coords)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise TopologyError(f"frame coords shape {coords.shape} invalid")
    if cutoff <= 0:
        raise TopologyError("cutoff must be positive")
    if selection is not None:
        coords = coords[np.asarray(selection)]
    n = coords.shape[0]
    upper = np.zeros((n, n), dtype=bool)
    for i, j, mask in _contact_pairs(coords[None], cutoff):
        upper[i[mask[0]], j[mask[0]]] = True
    return upper | upper.T


def frame_contact_counts(
    coords: np.ndarray,
    cutoff: float,
    native: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Per-frame contact-matrix sums for an ``(F, N, 3)`` stack.

    Returns ``(counts, overlap)``: ``counts[i]`` is frame *i*'s full
    (both-orders) contact-matrix sum -- halve it for unordered pairs --
    and, when a boolean ``native`` map is given, ``overlap[i]`` is the
    count of native contacts present in frame *i*.  All frames share one
    row-blocked pass over the upper triangle; each pair counts once per
    order, and ``native[i, j]`` and ``native[j, i]`` are read separately,
    so a non-symmetric ``native`` is counted exactly as the full matrix
    would count it.
    """
    stack = np.asarray(coords)
    if stack.ndim != 3 or stack.shape[2] != 3:
        raise TopologyError(f"frame stack shape {stack.shape} invalid")
    if cutoff <= 0:
        raise TopologyError("cutoff must be positive")
    nframes = stack.shape[0]
    counts = np.zeros(nframes, dtype=np.int64)
    overlap = np.zeros(nframes, dtype=np.int64) if native is not None else None
    for i, j, mask in _contact_pairs(stack, cutoff):
        counts += mask.sum(axis=1)
        if native is not None:
            overlap += (mask & native[i, j]).sum(axis=1)
            overlap += (mask & native[j, i]).sum(axis=1)
    return 2 * counts, overlap


def contact_count(
    trajectory: Trajectory,
    cutoff: float = 8.0,
    selection: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-frame number of (unordered) contacts."""
    coords = trajectory.coords
    if selection is not None:
        coords = coords[:, np.asarray(selection)]
    counts, _ = frame_contact_counts(coords, cutoff)
    return counts // 2


def native_contact_fraction(
    trajectory: Trajectory,
    reference_frame: int = 0,
    cutoff: float = 8.0,
    selection: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Q(t): fraction of the reference frame's contacts present per frame.

    The classic folding/activation order parameter.  The reference map is
    computed once and shared across the batched frame pass.
    """
    if not 0 <= reference_frame < trajectory.nframes:
        raise TopologyError(f"reference frame {reference_frame} out of range")
    native = contact_map(
        trajectory.coords[reference_frame], cutoff=cutoff, selection=selection
    )
    n_native = native.sum()
    if n_native == 0:
        raise TopologyError("reference frame has no contacts at this cutoff")
    coords = trajectory.coords
    if selection is not None:
        coords = coords[:, np.asarray(selection)]
    _, overlap = frame_contact_counts(coords, cutoff, native=native)
    return overlap / n_native
