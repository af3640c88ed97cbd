"""RMSD / RMSF: the workhorse observables of protein trajectory studies."""

from __future__ import annotations

import numpy as np

from repro.analysis._soa import sq_norm3
from repro.analysis.align import superpose_frames
from repro.errors import TopologyError
from repro.formats.trajectory import Trajectory

__all__ = ["rmsd", "rmsd_frames", "rmsd_trajectory", "rmsf", "pairwise_rmsd"]


def rmsd_frames(
    frames: np.ndarray, reference: np.ndarray, align: bool = True
) -> np.ndarray:
    """Per-frame RMSD of an ``(F, N, 3)`` stack against one reference.

    The batched kernel behind every RMSD entry point: one stacked Kabsch
    pass when ``align``, else one float64 difference pass.
    """
    if align:
        return superpose_frames(frames, reference)[1]
    frames, reference = np.asarray(frames), np.asarray(reference)
    if frames.shape[1:] != reference.shape or reference.shape[-1:] != (3,):
        raise TopologyError(
            f"shape mismatch {frames.shape[1:]} vs {reference.shape}"
        )
    delta = frames.astype(np.float64) - reference.astype(np.float64)
    return np.sqrt(sq_norm3(*np.moveaxis(delta, -1, 0)).mean(axis=-1))


def rmsd(a: np.ndarray, b: np.ndarray, align: bool = True) -> float:
    """RMSD between two conformations (optionally after superposition)."""
    return float(rmsd_frames(np.asarray(a)[None], b, align=align)[0])


def rmsd_trajectory(
    trajectory: Trajectory, reference_frame: int = 0, align: bool = True
) -> np.ndarray:
    """Per-frame RMSD against one reference frame."""
    if not 0 <= reference_frame < trajectory.nframes:
        raise TopologyError(f"reference frame {reference_frame} out of range")
    reference = trajectory.coords[reference_frame].astype(np.float64)
    return rmsd_frames(trajectory.coords, reference, align=align)


def rmsf(trajectory: Trajectory) -> np.ndarray:
    """Per-atom root-mean-square fluctuation around the mean structure.

    Fully vectorized: one mean over frames, one reduction.
    """
    coords = trajectory.coords.astype(np.float64)
    mean = coords.mean(axis=0, keepdims=True)
    return np.sqrt(((coords - mean) ** 2).sum(axis=2).mean(axis=0))


def pairwise_rmsd(trajectory: Trajectory, align: bool = False) -> np.ndarray:
    """Frame-by-frame RMSD matrix (the clustering input of MD studies).

    One batched kernel call per reference column ``j``: frames ``[0, j)``
    against frame ``j``, mirrored into the lower triangle.
    """
    coords = trajectory.coords.astype(np.float64)
    n = trajectory.nframes
    out = np.zeros((n, n))
    for j in range(1, n):
        out[:j, j] = out[j, :j] = rmsd_frames(coords[:j], coords[j], align)
    return out
