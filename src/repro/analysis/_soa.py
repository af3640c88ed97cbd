"""Structure-of-arrays helpers shared by the analysis kernels.

A length-3 xyz reduction such as ``(delta**2).sum(axis=-1)`` runs numpy's
reduction loop once per atom, three elements at a time.  The kernels
instead work on separate x, y and z planes and combine them elementwise
in the association numpy's length-3 add-reduce uses, ``(a0 + a1) + a2``,
so the results stay bit-identical to the xyz-interleaved expressions.
"""

from __future__ import annotations

import numpy as np


def planes(coords: np.ndarray) -> np.ndarray:
    """Contiguous float64 x, y and z planes, ``(3, ...)``, of an
    ``(..., 3)`` array."""
    return np.ascontiguousarray(np.moveaxis(coords, -1, 0), dtype=np.float64)


def sq_norm3(dx: np.ndarray, dy: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """``(dx*dx + dy*dy) + dz*dz`` -- numpy's length-3 sum order."""
    out = dx * dx
    out += dy * dy
    out += dz * dz
    return out


def atom_means(by_atom: np.ndarray) -> np.ndarray:
    """Column means of an ``(N, M)`` atom-major array, bit for bit
    ``np.mean`` over a non-contiguous atom axis.

    numpy sums a non-contiguous reduction axis one atom at a time (not
    pairwise), so ``coords.mean(axis=1)`` of an ``(F, N, 3)`` stack adds
    atoms in order.  Adding whole contiguous rows keeps that order with
    a long inner loop instead of a length-3 one; the division mirrors
    ``np.mean``'s own.
    """
    total = np.add.reduce(by_atom, axis=0)
    return np.true_divide(
        total, np.intp(by_atom.shape[0]), out=total, casting="unsafe"
    )


def frame_centroids(coords: np.ndarray) -> np.ndarray:
    """``coords.mean(axis=1)`` of an ``(F, N, 3)`` stack, bit for bit, in
    the coordinates' own dtype."""
    nframes, natoms = coords.shape[:2]
    by_atom = np.ascontiguousarray(coords.transpose(1, 0, 2))
    return atom_means(by_atom.reshape(natoms, -1)).reshape(nframes, 3)

