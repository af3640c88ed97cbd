"""Structure superposition (Kabsch algorithm).

RMSD over a trajectory is only meaningful after removing rigid-body
motion; the Kabsch algorithm finds the optimal rotation in one SVD.

Every entry point runs one batched kernel, :func:`superpose_frames`, over
an ``(F, N, 3)`` stack against one reference: per-frame centroids, one
stacked ``matmul`` for the covariance matrices, one stacked ``svd`` /
``det``, and one stacked rotate-and-reduce.  The single-structure
functions are its ``F == 1`` case.  Each stacked numpy call runs the same
per-matrix routine the one-frame code runs, so every frame's values are
bit-identical to superposing that frame alone.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.analysis._soa import frame_centroids, sq_norm3
from repro.errors import TopologyError

__all__ = ["kabsch_rotation", "superpose", "superpose_frames"]


def _validate(mobile: np.ndarray, reference: np.ndarray) -> None:
    if (
        mobile.ndim != 3
        or reference.ndim != 2
        or mobile.shape[1:] != reference.shape
        or reference.shape[1] != 3
    ):
        raise TopologyError(
            f"superposition needs matching (N, 3) arrays, got "
            f"{mobile.shape[1:]} vs {reference.shape}"
        )


def _kabsch(
    mobile: np.ndarray, reference: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched Kabsch core: ``(centered, rotations, reference_centroid)``.

    ``mobile`` is centred in its own dtype (a float32 slab stays float32)
    and promoted to a float64 reference's dtype inside the covariance
    ``matmul``, as in the one-frame code.
    """
    _validate(mobile, reference)
    nframes, natoms = mobile.shape[:2]
    # Centroids tiled to the flat (F, 3N) layout: one contiguous subtract
    # instead of a broadcast whose inner loop is 3 long.
    centered = (
        mobile.reshape(nframes, -1) - np.tile(frame_centroids(mobile), natoms)
    ).reshape(mobile.shape)
    r_centroid = reference.mean(axis=0)
    h = np.matmul(centered.transpose(0, 2, 1), reference - r_centroid)
    u, _s, vt = np.linalg.svd(h)
    # u @ diag(1.0, 1.0, sign(det)) is exactly a float64 scaling of u's
    # last column.
    correction = np.ones((u.shape[0], 1, 3))
    correction[:, 0, 2] = np.sign(np.linalg.det(u @ vt))
    return centered, (u * correction) @ vt, r_centroid


def superpose_frames(
    mobile: np.ndarray, reference: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Align every frame of an ``(F, N, 3)`` stack onto one ``(N, 3)``
    reference; returns ``(aligned, rmsd)`` with ``rmsd`` of shape ``(F,)``.
    """
    reference = np.asarray(reference)
    centered, rotation, r_centroid = _kabsch(np.asarray(mobile), reference)
    # The same C-contiguous float64 operand matmul's own cast would make
    # (rotations are float64), built outside matmul's slower cast path.
    aligned = centered.astype(np.float64, copy=False) @ rotation
    flat = aligned.reshape(aligned.shape[0], -1)
    flat += np.tile(r_centroid, reference.shape[0])
    delta = (flat - reference.reshape(-1)).reshape(aligned.shape)
    return aligned, np.sqrt(sq_norm3(*np.moveaxis(delta, -1, 0)).mean(axis=1))


def kabsch_rotation(mobile: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Optimal rotation matrix aligning centered ``mobile`` onto centered
    ``reference`` (proper rotation: reflections are corrected)."""
    return _kabsch(np.asarray(mobile)[None], np.asarray(reference))[1][0]


def superpose(
    mobile: np.ndarray, reference: np.ndarray
) -> Tuple[np.ndarray, float]:
    """Align ``mobile`` onto ``reference``; returns ``(aligned, rmsd)``."""
    aligned, value = superpose_frames(np.asarray(mobile)[None], reference)
    return aligned[0], float(value[0])
