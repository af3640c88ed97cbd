"""Pin the batched analysis kernels to the per-frame formulas they replaced.

``test_online_equivalence.py`` checks online operators against the batch
functions, but both sides share one kernel, so a drift in that kernel
would pass it.  The reference functions here are the per-frame,
xyz-interleaved formulas: one Kabsch ``superpose`` per frame, the
``(delta**2).sum(axis=-1)`` contact map loop, and the interleaved
observables.  Every series must match them bit for bit
(``np.array_equal``), at the in-situ workload's own shape: a ~2,000-atom
GPCR system, the C-alpha contact selection and 10-frame float32 windows.

The exactness rests on numpy summing a length-3 axis as
``(a0 + a1) + a2``, on adding a non-contiguous axis one element at a
time, and on each stacked ``matmul``/``svd``/``det`` running the
one-matrix routine per frame; a numpy or BLAS change that breaks any of
these fails here first.
"""

import numpy as np
import pytest

from repro.analysis import (
    InSituAnalysis,
    OnlineContacts,
    OnlineObservables,
    OnlineRMSD,
    OnlineStats,
    center_of_mass,
    contact_count,
    contact_map,
    end_to_end_distance,
    frame_contact_counts,
    gyration_radius,
    kabsch_rotation,
    mean_square_displacement,
    native_contact_fraction,
    pairwise_rmsd,
    rmsd,
    rmsd_trajectory,
    superpose,
)
from repro.datagen import build_gpcr_system, generate_trajectory
from repro.formats import Trajectory
from repro.vmd.selection import select

pytestmark = pytest.mark.analysis

WINDOW = 10
CUTOFF = 8.0


# -- reference formulas: one frame at a time, xyz interleaved -----------------


def ref_rotation(mobile, reference):
    m = mobile - mobile.mean(axis=0)
    r = reference - reference.mean(axis=0)
    u, _s, vt = np.linalg.svd(m.T @ r)
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


def ref_superpose(mobile, reference):
    rotation = ref_rotation(mobile, reference)
    centered = mobile - mobile.mean(axis=0)
    aligned = centered @ rotation + reference.mean(axis=0)
    delta = aligned - reference
    return aligned, float(np.sqrt((delta**2).sum(axis=1).mean()))


def ref_rmsd(a, b, align=True):
    if align:
        return ref_superpose(a, b)[1]
    delta = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(np.sqrt((delta**2).sum(axis=1).mean()))


def ref_contact_map(coords, cutoff):
    pts = np.asarray(coords).astype(np.float64)
    n = pts.shape[0]
    out = np.zeros((n, n), dtype=bool)
    for start in range(0, n, 512):
        stop = min(start + 512, n)
        delta = pts[start:stop, None, :] - pts[None, :, :]
        out[start:stop] = (delta**2).sum(axis=2) < cutoff * cutoff
    np.fill_diagonal(out, False)
    return out


def ref_frame_contacts(coords, cutoff, native=None):
    counts, overlap = [], []
    for frame in coords:
        cmap = ref_contact_map(frame, cutoff)
        counts.append(int(cmap.sum()))
        if native is not None:
            overlap.append(int((cmap & native).sum()))
    return np.array(counts), np.array(overlap)


def ref_observables(slab, frame0):
    pts = slab.astype(np.float64)
    centered = pts - pts.mean(axis=1, keepdims=True)
    return {
        "center_of_mass": slab.mean(axis=1),
        "gyration_radius": np.sqrt((centered**2).sum(axis=2).mean(axis=1)),
        "end_to_end": np.linalg.norm(
            (slab[:, -1, :] - slab[:, 0, :]).astype(np.float64), axis=1
        ),
        "msd": ((pts - frame0) ** 2).sum(axis=2).mean(axis=1),
    }


def ref_series(coords, selection, windows):
    """Every in-situ series, computed window by window from the formulas
    above, against frame 0 as the reference."""
    reference = coords[0].astype(np.float64)
    native = ref_contact_map(coords[0][selection], CUTOFF)
    parts = {}
    for start, stop in windows:
        slab = coords[start:stop]
        raw, overlap = ref_frame_contacts(slab[:, selection], CUTOFF, native)
        fresh = {
            "rmsd": np.array([ref_rmsd(f, reference) for f in slab]),
            "contacts": raw // 2,
            "native_fraction": overlap / native.sum(),
            **ref_observables(slab, reference),
        }
        for name, values in fresh.items():
            parts.setdefault(name, []).append(values)
    return {name: np.concatenate(p) for name, p in parts.items()}


# -- inputs -------------------------------------------------------------------


@pytest.fixture(scope="module")
def gpcr():
    system = build_gpcr_system(natoms_target=2000, seed=0)
    traj = generate_trajectory(system, 40, seed=1)
    selection = select(system.topology, "protein and name CA")
    assert traj.coords.dtype == np.float32
    return traj, selection


def mirrored(coords, index, source=0):
    """Put the mirror image of frame ``source`` at ``index`` so its Kabsch
    fit against ``source`` needs the reflection correction."""
    out = coords.copy()
    out[index] = coords[source] * np.array([-1.0, 1.0, 1.0], np.float32) + 0.5
    return out


def random_coords(nframes, natoms, seed):
    rng = np.random.default_rng(seed)
    base = rng.uniform(-3.0, 3.0, size=(natoms, 3))
    drift = rng.standard_normal((nframes, natoms, 3)).cumsum(axis=0) * 0.3
    return (base[None] + drift).astype(np.float32)


def windows_of(nframes, size):
    return [(s, min(s + size, nframes)) for s in range(0, nframes, size)]


def run_hook(coords, selection, windows):
    hook = InSituAnalysis(operators={
        "rmsd": OnlineRMSD(),
        "contacts": OnlineContacts(cutoff=CUTOFF, selection=selection),
        "observables": OnlineObservables(),
    })
    for start, stop in windows:
        hook.consume(start, stop, coords[start:stop])
    return hook


def assert_series_equal(got, want):
    for name, values in want.items():
        assert got[name].dtype == values.dtype, name
        assert np.array_equal(got[name], values), name


# -- tests --------------------------------------------------------------------


@pytest.mark.parametrize("window", [WINDOW, 1, None])
def test_insitu_series_match_per_frame_formulas(gpcr, window):
    traj, selection = gpcr
    coords = mirrored(traj.coords, 13)
    nframes = coords.shape[0]
    windows = windows_of(nframes, window or nframes)
    hook = run_hook(coords, selection, windows)
    want = ref_series(coords, selection, windows)
    results = hook.results()
    assert_series_equal(results, want)
    # OnlineStats rows follow from identical inputs: fed the reference
    # series in the same windows, they must agree exactly too.
    for name in hook.stats_over:
        stats = OnlineStats()
        for start, stop in windows:
            stats.add(want[name][start:stop])
        assert results["stats"][name] == stats.result()


def test_mirrored_frame_takes_the_reflection_branch(gpcr):
    traj, _ = gpcr
    coords = mirrored(traj.coords, 13)
    m = coords[13] - coords[13].mean(axis=0)
    ref = coords[0].astype(np.float64)
    u, _s, vt = np.linalg.svd(m.T @ (ref - ref.mean(axis=0)))
    assert np.linalg.det(u @ vt) < 0
    rotation = kabsch_rotation(coords[13], ref)
    assert np.array_equal(rotation, ref_rotation(coords[13], ref))
    aligned, value = superpose(coords[13], ref)
    want_aligned, want_value = ref_superpose(coords[13], ref)
    assert np.array_equal(aligned, want_aligned) and value == want_value


def test_batch_functions_match_per_frame_formulas(gpcr):
    traj, selection = gpcr
    coords = mirrored(traj.coords, 7)
    t = Trajectory(coords=coords)
    reference = coords[3].astype(np.float64)
    for align in (True, False):
        want = np.array([ref_rmsd(f, reference, align) for f in coords])
        got = rmsd_trajectory(t, reference_frame=3, align=align)
        assert np.array_equal(got, want)
    sub = Trajectory(coords=coords[:, selection])
    native = ref_contact_map(coords[0][selection], CUTOFF)
    raw, overlap = ref_frame_contacts(sub.coords, CUTOFF, native)
    assert np.array_equal(contact_map(coords[0], CUTOFF, selection), native)
    assert np.array_equal(contact_count(sub, cutoff=CUTOFF), raw // 2)
    assert np.array_equal(
        native_contact_fraction(sub, cutoff=CUTOFF), overlap / native.sum()
    )
    want = ref_observables(coords, coords[0].astype(np.float64))
    assert_series_equal(
        {
            "center_of_mass": center_of_mass(t),
            "gyration_radius": gyration_radius(t),
            "end_to_end": end_to_end_distance(t),
            "msd": mean_square_displacement(t),
        },
        want,
    )


@pytest.mark.parametrize("natoms", [2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_tiny_systems_match_per_frame_formulas(natoms, seed):
    coords = mirrored(random_coords(12, natoms, seed), 5)
    coords[0, 1] = coords[0, 0] + 0.5  # the reference frame needs a contact
    selection = np.arange(natoms)
    windows = windows_of(coords.shape[0], 4)
    want = ref_series(coords, selection, windows)
    assert_series_equal(run_hook(coords, selection, windows).results(), want)


@pytest.mark.parametrize("seed", range(3))
def test_non_symmetric_native_counts_both_orders(seed):
    rng = np.random.default_rng(seed)
    coords = random_coords(6, 40, seed)
    native = rng.random((40, 40)) < 0.4
    assert not np.array_equal(native, native.T)
    want_counts, want_overlap = ref_frame_contacts(coords, 4.0, native)
    counts, overlap = frame_contact_counts(coords, 4.0, native=native)
    assert np.array_equal(counts, want_counts)
    assert np.array_equal(overlap, want_overlap)


@pytest.mark.parametrize("align", [True, False])
@pytest.mark.parametrize("seed", range(4))
def test_pairwise_rmsd_matches_double_loop(align, seed):
    coords = mirrored(random_coords(9, 30, seed), 4)
    n = coords.shape[0]
    frames = coords.astype(np.float64)
    want = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            want[i, j] = want[j, i] = ref_rmsd(frames[i], frames[j], align)
    got = pairwise_rmsd(Trajectory(coords=coords), align=align)
    assert np.array_equal(got, want)
    if not align:
        # The parent's unaligned path broadcast over every pair at once.
        diff = frames[:, None] - frames[None, :]
        assert np.array_equal(got, np.sqrt((diff**2).sum(axis=3).mean(axis=2)))


def test_single_pair_entry_points_match(gpcr):
    traj, _ = gpcr
    a, b = traj.coords[4], traj.coords[9]
    for align in (True, False):
        assert rmsd(a, b, align=align) == ref_rmsd(a, b, align=align)
        assert rmsd(a, b.astype(np.float64), align) == ref_rmsd(
            a, b.astype(np.float64), align
        )
