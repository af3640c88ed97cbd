"""The one ADA front behaves the same over every placement.

``ADA`` (the local placement), a one-node ``ShardedADA`` and a three-node
R=2 ``ShardedADA`` share :class:`~repro.core.middleware.ADAFront`: the
same inputs must give the same metadata, the same bytes at every
precision tier, the same receipts, the same fused-analysis results, and
the same pinned LOD error bound.
"""

import numpy as np
import pytest

from repro.analysis.online import InSituAnalysis
from repro.cluster.shard import ShardNode, ShardedADA
from repro.core import ADA, IngestPipelineConfig
from repro.core.lod import lod_max_error, lod_tag
from repro.fs.localfs import LocalFS
from repro.harness.benchserve import _catalog_blobs
from repro.obs.metrics import MetricsRegistry
from repro.sim import Simulator
from repro.storage.ssd import NVME_SSD_256GB

pytestmark = [pytest.mark.cluster, pytest.mark.lod, pytest.mark.analysis]

PRECISION = 12.5
BLOBS = _catalog_blobs(
    ndatasets=2, natoms=300, nchunks=4, frames_per_chunk=4, seed=17
)
#: Ingested chunk by chunk (``ingest`` + ``ingest_append``).
APPENDED = BLOBS[0][0]
#: Ingested as two fused-analysis stream segments.
STREAMED = BLOBS[1][0]
DEPLOYMENTS = ["ada", "ring1", "ring3"]


def _deploy(kind):
    sim = Simulator()
    if kind == "ada":
        front = ADA(
            sim,
            backends={"ssd": LocalFS(sim, NVME_SSD_256GB, name="ssd")},
            lod_precision=PRECISION,
        )
        return sim, front
    nnodes = 1 if kind == "ring1" else 3
    metrics = MetricsRegistry()
    nodes = [
        ShardNode.build(
            sim,
            f"node{i}",
            backends={"ssd": LocalFS(sim, NVME_SSD_256GB, name=f"node{i}:ssd")},
            metrics=metrics,
            lod_precision=PRECISION,
        )
        for i in range(nnodes)
    ]
    return sim, ShardedADA(sim, nodes, replicas=2, metrics=metrics)


def _ingest(sim, front, hook=None):
    """Same inputs everywhere; returns the receipts.

    ``STREAMED`` arrives as two stream segments: the first passes
    ``hook`` per call, the second through its pipeline config.
    """
    receipts = []
    _, pdb_text, chunks = BLOBS[0]
    receipts.append(sim.run_process(front.ingest(APPENDED, pdb_text, chunks[0])))
    for blob in chunks[1:]:
        receipts.append(sim.run_process(front.ingest_append(APPENDED, blob)))
    _, pdb_text, chunks = BLOBS[1]
    config = IngestPipelineConfig(window_frames=4)
    # Without a hook the call carries no ``analysis`` argument at all,
    # so the plain cases also run against a front that lacks it.
    receipts.append(sim.run_process(front.ingest_stream(
        STREAMED, b"".join(chunks[:2]), pdb_text=pdb_text, config=config,
        **({"analysis": hook} if hook is not None else {}),
    )))
    config = IngestPipelineConfig(window_frames=4, analysis=hook)
    receipts.append(sim.run_process(front.ingest_stream(
        STREAMED, b"".join(chunks[2:]), config=config,
    )))
    return receipts


@pytest.fixture(scope="module")
def deployed():
    out = {}
    for kind in DEPLOYMENTS:
        sim, front = _deploy(kind)
        out[kind] = (sim, front, _ingest(sim, front))
    return out


def _same(a, b):
    """Recursive bit-identity over analysis results."""
    if isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _same(x, y)
    elif isinstance(a, dict):
        assert set(a) == set(b)
        for key in a:
            _same(a[key], b[key])
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    else:
        assert a == b


@pytest.mark.parametrize("kind", DEPLOYMENTS)
def test_metadata(deployed, kind):
    _, ref, _ = deployed["ada"]
    _, front, _ = deployed[kind]
    for logical in (APPENDED, STREAMED):
        assert front.tags(logical) == ref.tags(logical)
        assert front.all_tags(logical) == ref.all_tags(logical)
        assert front.has_lod(logical) and ref.has_lod(logical)
        for tag in ref.tags(logical):
            assert front.has_lod(logical, tag)
            assert lod_tag(tag) in front.all_tags(logical)
        assert front.lod_bound(logical) == ref.lod_bound(logical)
        assert front.lod_bound(logical) == lod_max_error(PRECISION)
    assert not front.has_lod("missing.xtc")
    assert front.lod_stats()["enabled"]


@pytest.mark.parametrize("kind", DEPLOYMENTS)
def test_receipts(deployed, kind):
    _, _, ref_receipts = deployed["ada"]
    _, _, receipts = deployed[kind]
    assert [r.subset_sizes for r in receipts] == [
        r.subset_sizes for r in ref_receipts
    ]
    assert [r.raw_nbytes for r in receipts] == [
        r.raw_nbytes for r in ref_receipts
    ]


@pytest.mark.parametrize("kind", DEPLOYMENTS)
@pytest.mark.parametrize("precision", ["full", "lod", "auto"])
def test_reads_at_every_tier(deployed, kind, precision):
    ref_sim, ref, _ = deployed["ada"]
    sim, front, _ = deployed[kind]
    tier = "lod" if precision == "lod" else "full"
    bound = lod_max_error(PRECISION) if tier == "lod" else None
    for logical in (APPENDED, STREAMED):
        for tag in ref.tags(logical):
            want = ref_sim.run_process(ref.fetch(logical, tag, precision))
            got = sim.run_process(front.fetch(logical, tag, precision))
            assert got.data == want.data
            assert (got.tier, got.max_error) == (tier, bound)
            want = ref_sim.run_process(
                ref.fetch_chunks(logical, tag, [1, 3], precision)
            )
            got = sim.run_process(
                front.fetch_chunks(logical, tag, [1, 3], precision)
            )
            assert [o.data for o in got] == [o.data for o in want]
            assert all((o.tier, o.max_error) == (tier, bound) for o in got)
        want = ref_sim.run_process(ref.fetch_merged(logical, precision))
        got = sim.run_process(front.fetch_merged(logical, precision))
        assert np.array_equal(got.coords, want.coords)
        assert np.array_equal(got.steps, want.steps)
        assert (got.tier, got.max_error) == (tier, bound)


@pytest.mark.parametrize("kind", DEPLOYMENTS)
def test_fetch_all(deployed, kind):
    ref_sim, ref, _ = deployed["ada"]
    sim, front, _ = deployed[kind]
    for logical in (APPENDED, STREAMED):
        want = ref_sim.run_process(ref.fetch_all(logical))
        got = sim.run_process(front.fetch_all(logical))
        assert sorted(got) == sorted(want) == ref.tags(logical)
        assert {t: o.data for t, o in got.items()} == {
            t: o.data for t, o in want.items()
        }


@pytest.mark.parametrize("kind", DEPLOYMENTS)
def test_fused_analysis(kind):
    results = {}
    for name in ("ada", kind):
        sim, front = _deploy(name)
        hook = InSituAnalysis()
        receipts = _ingest(sim, front, hook)
        assert receipts[0].analysis is None
        assert hook.frames_seen == 4 * 4
        assert all(r.analysis is not None for r in receipts[-2:])
        results[name] = [r.analysis for r in receipts[-2:]]
        families = {f["name"] for f in front.metrics.to_json()["families"]}
        assert "analysis_windows_total" in families
    _same(results[kind], results["ada"])


@pytest.mark.parametrize("kind", DEPLOYMENTS)
def test_pinned_bound_survives_precision_change(kind):
    sim, front = _deploy(kind)
    _ingest(sim, front)
    pinned = lod_max_error(PRECISION)
    front.preprocessor.lod_precision = 100.0
    assert front.lod_bound(APPENDED) == pinned
    merged = sim.run_process(front.fetch_merged(APPENDED, "lod"))
    assert (merged.tier, merged.max_error) == ("lod", pinned)
    obj = sim.run_process(front.fetch(APPENDED, "p", "lod"))
    assert (obj.tier, obj.max_error) == ("lod", pinned)
