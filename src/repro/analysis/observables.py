"""Simple structural/dynamic observables, vectorized over frames.

Each observable has one formula over float64 x, y and z planes (see
:mod:`repro.analysis._soa`), shared by the batch functions here and by
:class:`repro.analysis.online.OnlineObservables`; every value is
bit-identical to the xyz-interleaved numpy expression, such as
``((pts - com)**2).sum(axis=2).mean(axis=1)``.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.analysis._soa import atom_means, planes, sq_norm3
from repro.errors import TopologyError
from repro.formats.trajectory import Trajectory

__all__ = [
    "center_of_mass",
    "gyration_radius",
    "end_to_end_distance",
    "mean_square_displacement",
]


def _window(coords: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Float64 ``(3, F, N)`` planes and their atom-major ``(N, 3F)`` copy,
    whose row sums add atoms in ``coords.mean(axis=1)``'s order."""
    soa = planes(coords)
    return soa, np.ascontiguousarray(soa.reshape(-1, soa.shape[2]).T)


def _center_of_mass(by_atom: np.ndarray, dtype: np.dtype) -> np.ndarray:
    # Summed in the coordinates' own dtype, as ``coords.mean(axis=1)``.
    means = atom_means(by_atom.astype(dtype))
    return np.ascontiguousarray(means.reshape(3, -1).T)


def _gyration_radius(soa: np.ndarray, by_atom: np.ndarray) -> np.ndarray:
    centered = soa - atom_means(by_atom).reshape(3, -1, 1)
    return np.sqrt(sq_norm3(*centered).mean(axis=1))


def _end_to_end(coords: np.ndarray) -> np.ndarray:
    # The difference is taken in the coordinates' own dtype.
    delta = (coords[:, -1, :] - coords[:, 0, :]).astype(np.float64)
    return np.sqrt(sq_norm3(*delta.T))


def _msd(soa: np.ndarray, frame0: np.ndarray) -> np.ndarray:
    """MSD against ``frame0``, a ``(3, N)`` float64 plane set."""
    return sq_norm3(*(soa - frame0[:, None, :])).mean(axis=1)


def frame_observables(
    coords: np.ndarray, frame0: np.ndarray
) -> Dict[str, np.ndarray]:
    """All four observables of an ``(F, N, 3)`` window from one plane
    conversion; MSD is against ``frame0``, a ``(3, N)`` float64 plane set."""
    coords = np.asarray(coords)
    soa, by_atom = _window(coords)
    return {
        "center_of_mass": _center_of_mass(by_atom, coords.dtype),
        "gyration_radius": _gyration_radius(soa, by_atom),
        "end_to_end": _end_to_end(coords),
        "msd": _msd(soa, frame0),
    }


def center_of_mass(trajectory: Trajectory) -> np.ndarray:
    """``(nframes, 3)`` geometric centers (unit masses)."""
    coords = trajectory.coords
    return _center_of_mass(_window(coords)[1], coords.dtype)


def gyration_radius(trajectory: Trajectory) -> np.ndarray:
    """Per-frame radius of gyration -- compactness of the fold."""
    return _gyration_radius(*_window(trajectory.coords))


def end_to_end_distance(trajectory: Trajectory) -> np.ndarray:
    """Per-frame distance between the first and last atom (chain span)."""
    if trajectory.natoms < 2:
        raise TopologyError("end-to-end distance needs at least two atoms")
    return _end_to_end(trajectory.coords)


def mean_square_displacement(trajectory: Trajectory) -> np.ndarray:
    """MSD(t) against frame 0, averaged over atoms -- the diffusion probe
    that distinguishes bulk water from folded protein."""
    soa = planes(trajectory.coords)
    return _msd(soa, soa[:, 0])
