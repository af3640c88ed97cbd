"""The PLFS append-only index log: O(1) appends, replay, torn tails, reopen.

A container's index is a log of CRC-32-framed records on the metadata
backend.  Each flush appends only the new records; opening a container
replays the log into records, per-tag chunk-sorted views and chunk
counters.  These tests pin the format's guarantees: appends cost the new
bytes only, a torn final record is truncated (never a CRC error), a bad
CRC or a foreign object is a loud ``ContainerError``, and a restarted
client -- a fresh ``PLFS`` or ``ADA`` over the same backends -- neither
reuses chunk names nor forgets a deleted subset.
"""

import zlib

import numpy as np
import pytest

from repro.core import ADA
from repro.errors import ContainerError, CorruptionError, TransientFaultError
from repro.fs import PLFS, LocalFS
from repro.fs.plfs import IndexRecord
from repro.fs.base import StoredObject
from repro.formats.xtc import decode_raw, encode_raw
from repro.sim import Simulator
from repro.storage import DevicePower, DeviceSpec
from repro.units import GB, mbps
from repro.workloads import build_workload


def _fs(sim, name):
    spec = DeviceSpec(
        name=name,
        read_bw=mbps(500),
        write_bw=mbps(500),
        seek_latency_s=1e-4,
        capacity=GB,
        power=DevicePower(active_w=5.0, idle_w=1.0),
    )
    return LocalFS(sim, spec, name=name)


def _backends(sim):
    return {"ssd": _fs(sim, "ssd"), "hdd": _fs(sim, "hdd")}


def _plfs(sim, backends=None):
    return PLFS(sim, backends or _backends(sim), metadata_backend="ssd")


def _write(sim, plfs, tag, data, logical="bar"):
    backend = "ssd" if tag == "p" else "hdd"
    return sim.run_process(
        plfs.write_subset(logical, tag, backend=backend, data=data)
    )


def _log(plfs, logical="bar"):
    return plfs.backends["ssd"].data(PLFS.index_path(logical))


def test_flush_appends_only_the_new_records():
    sim = Simulator()
    plfs = _plfs(sim)
    sizes = []
    for k in range(20):
        _write(sim, plfs, "p", bytes([k]) * 64)
        sizes.append(len(_log(plfs)))
    steps = np.diff([0] + sizes)
    # Every append adds one record of the same size, whatever the log's
    # length (give or take the digit chunk 10's path gains).
    assert max(steps) - min(steps) <= 1
    meta = plfs.backends["ssd"]
    assert meta.nbytes(PLFS.index_path("bar")) == sizes[-1]


def test_reopen_rebuilds_records_views_and_counters():
    sim = Simulator()
    backends = _backends(sim)
    plfs = _plfs(sim, backends)
    for k in range(3):
        _write(sim, plfs, "p", b"p%d" % k)
        _write(sim, plfs, "m", b"mm%d" % k)
    fresh = _plfs(sim, backends)
    assert fresh.container_index("bar") == plfs.container_index("bar")
    assert fresh.tags("bar") == ["m", "p"]
    assert [r.chunk for r in fresh.subset_records("bar", "p")] == [0, 1, 2]
    assert fresh.subset_nbytes("bar", "m") == 9
    # Chunk numbering continues instead of restarting at 0.
    record = _write(sim, fresh, "m", b"next")
    assert record.chunk == 3
    assert record.path == PLFS.chunk_path("bar", "m", 3)
    assert backends["hdd"].data(PLFS.chunk_path("bar", "m", 0)) == b"mm0"
    assert fresh.fsck("bar")["ok"]


def test_torn_tail_truncates_at_every_offset_of_the_last_record():
    sim = Simulator()
    backends = _backends(sim)
    plfs = _plfs(sim, backends)
    _write(sim, plfs, "p", b"first")
    _write(sim, plfs, "m", b"second")
    before = plfs.container_index("bar")
    pre_len = len(_log(plfs))
    _write(sim, plfs, "p", b"third")
    full = _log(plfs)
    meta = backends["ssd"]
    for cut in range(pre_len, len(full)):
        meta.store.put(PLFS.index_path("bar"), data=full[:cut])
        fresh = _plfs(sim, backends)
        assert fresh.container_index("bar") == before, cut
        # The torn bytes are gone, so the next append extends a clean log.
        assert _log(fresh) == full[:pre_len]
    # The record torn away is lost; its chunk name is reused cleanly.
    record = _write(sim, fresh, "p", b"again")
    assert record.chunk == 1
    assert _plfs(sim, backends).subset_records("bar", "p")[-1] == record
    assert fresh.fsck("bar")["ok"]


def test_bad_record_crc_is_corruption_not_a_torn_tail():
    sim = Simulator()
    backends = _backends(sim)
    plfs = _plfs(sim, backends)
    _write(sim, plfs, "p", b"first")
    _write(sim, plfs, "p", b"second")
    log = bytearray(_log(plfs))
    log[-1] ^= 0x40  # inside the last record's body
    backends["ssd"].store.put(PLFS.index_path("bar"), data=bytes(log))
    with pytest.raises(ContainerError, match=r"corrupt.*CRC-32 0x"):
        _plfs(sim, backends).container_index("bar")


def test_foreign_object_is_not_a_log():
    sim = Simulator()
    backends = _backends(sim)
    backends["ssd"].store.put(PLFS.index_path("bar"), data=b'[{"tag": "p"}]')
    with pytest.raises(ContainerError, match="corrupt.*no index-log record"):
        _plfs(sim, backends).container_index("bar")


def test_delete_subset_survives_reopen():
    sim = Simulator()
    backends = _backends(sim)
    plfs = _plfs(sim, backends)
    for k in range(2):
        _write(sim, plfs, "p", b"p%d" % k)
        _write(sim, plfs, "m", b"m%d" % k)
    assert plfs.delete_subset("bar", "m") == 4
    fresh = _plfs(sim, backends)
    assert fresh.tags("bar") == ["p"]
    assert fresh.fsck("bar")["ok"]
    # A re-added tag starts from chunk 0 and survives another reopen.
    assert _write(sim, fresh, "m", b"new").chunk == 0
    again = _plfs(sim, backends)
    assert [r.path for r in again.subset_records("bar", "m")] == [
        PLFS.chunk_path("bar", "m", 0)
    ]
    assert again.fsck("bar")["ok"]


def test_concurrent_writers_persist_each_record_once():
    sim = Simulator()
    backends = _backends(sim)
    plfs = _plfs(sim, backends)
    procs = [
        sim.process(plfs.write_subset("bar", tag, backend="hdd", data=b"x" * k))
        for k in range(1, 9)
        for tag in ("p", "m")
    ]
    sim.run()
    assert all(p.ok for p in procs)
    fresh = _plfs(sim, backends)
    assert sorted(fresh.container_index("bar"), key=lambda r: r.path) == sorted(
        plfs.container_index("bar"), key=lambda r: r.path
    )
    assert len(fresh.container_index("bar")) == 16
    assert [r.chunk for r in fresh.subset_records("bar", "p")] == list(range(8))


def test_failed_append_keeps_other_pending_records():
    """A failed flush re-queues what it carried; the next flush writes
    each record exactly once."""
    sim = Simulator()
    backends = _backends(sim)
    plfs = _plfs(sim, backends)
    first = _write(sim, plfs, "p", b"first")
    # Another writer's record is registered but not yet in the log.
    foreign = IndexRecord(
        "q", "hdd", PLFS.chunk_path("bar", "q", 0), 1, 0, zlib.crc32(b"q")
    )
    backends["hdd"].store.put(foreign.path, data=b"q")
    index = plfs._indexes["bar"]
    index.add(foreign)
    index.unflushed.append(foreign)

    def failing_write(*args, **kwargs):
        raise TransientFaultError("metadata write lost")
        yield  # pragma: no cover

    meta = backends["ssd"]
    meta.write = failing_write
    with pytest.raises(TransientFaultError):
        _write(sim, plfs, "m", b"second")  # data lands, the index append fails
    # The failed run rolled itself back and left the foreign record queued.
    assert index.unflushed == [foreign]
    del meta.write
    third = _write(sim, plfs, "m", b"third")
    assert _plfs(sim, backends).container_index("bar") == [
        first, foreign, third
    ]
    assert plfs.fsck("bar")["ok"]


def test_crc_mismatch_message_names_chunk_and_both_crcs():
    sim = Simulator()
    plfs = _plfs(sim)
    record = _write(sim, plfs, "p", b"payload")
    bad = b"paylaod"
    with pytest.raises(CorruptionError) as info:
        plfs.verify_chunk(record, StoredObject(record.path, len(bad), bad))
    message = str(info.value)
    assert "tag 'p' chunk 0" in message
    assert record.path in message
    assert f"CRC-32 {zlib.crc32(bad):#010x}" in message
    assert f"CRC-32 {record.crc:#010x}" in message


@pytest.fixture(scope="module")
def segments():
    workload = build_workload(natoms=600, nframes=12, seed=23)
    blobs = [
        encode_raw(workload.trajectory.slice_frames(i, i + 4))
        for i in range(0, 12, 4)
    ]
    return workload, blobs


def test_restart_then_append_keeps_every_segment(segments):
    workload, blobs = segments
    sim = Simulator()
    backends = _backends(sim)
    ada = ADA(sim, backends=backends)
    sim.run_process(ada.ingest("bar.xtc", workload.pdb_text, blobs[0]))
    sim.run_process(ada.ingest_append("bar.xtc", blobs[1]))
    # A fresh middleware over the same backends: the restarted client.
    restarted = ADA(sim, backends=backends)
    sim.run_process(restarted.ingest_append("bar.xtc", blobs[2]))
    merged = sim.run_process(restarted.fetch_merged("bar.xtc"))
    expected = np.concatenate([decode_raw(b).coords for b in blobs])
    assert np.array_equal(merged.coords, expected)
    assert restarted.plfs.fsck()["ok"]
    for tag in restarted.plfs.tags("bar.xtc"):
        chunks = [r.chunk for r in restarted.plfs.subset_records("bar.xtc", tag)]
        assert chunks == [0, 1, 2]
