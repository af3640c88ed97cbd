"""PLFS-style container layer with multiple backends (paper §3.3, Fig. 6).

A logical file ``bar`` becomes a container ``bar.plfs/`` whose per-subset
data files may live on *different* backend file systems -- ADA's dispatcher
sends the protein subset to the SSD-backed FS and the MISC subset to the
HDD-backed FS.  The underlying file systems see ordinary files and "process
an assigned data subset as independent files without noticing that the
contents have been altered from the original" (paper §3.3).

The index records, per subset chunk: tag, backend, path, size, chunk
number and CRC-32.  It is what ADA's indexer consults to resolve a
tag-selective read.  Like PLFS's index droppings it is an append-only
*log* on the metadata backend (``bar.plfs/index``): each flush appends
one self-delimiting, CRC-32-framed record per new chunk, so the metadata
write per chunk append is O(1) bytes whatever the container's size.
Opening a container replays the log into the records, a per-tag view
sorted by chunk, and the chunk counters.  DESIGN.md §3.3 gives the
format, the torn-tail rule and the reopen semantics.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

from repro.errors import (
    ConfigurationError,
    ContainerError,
    CorruptionError,
    FaultError,
    TagNotFoundError,
)
from repro.fs.base import FileSystem, StoredObject
from repro.sim import AllOf, Simulator

__all__ = ["PLFS", "IndexRecord"]

_INDEX_NAME = "index"

#: Index-log record frame: magic, body length, CRC-32 of the body.  The
#: per-record magic makes every append self-contained, so concurrent
#: appends may land in either order.
_FRAME = struct.Struct("<4sII")
_MAGIC = b"PLX1"
#: Record body head: kind, chunk bytes, chunk number, chunk CRC-32 (-1 =
#: virtual); tag, backend and path follow, NUL-separated UTF-8.
_BODY = struct.Struct("<Bqqq")
_ADD = 1  # one chunk record
_DROP = 2  # tombstone: forget every earlier record of the tag


@dataclass(frozen=True)
class IndexRecord:
    """One subset chunk inside a container.

    ``crc`` is the zlib CRC-32 of the chunk's bytes, or ``-1`` when the
    chunk is virtual (size-only) and there is nothing to checksum.
    """

    tag: str
    backend: str
    path: str
    nbytes: int
    chunk: int = 0
    crc: int = -1


def _encode(kind: int, tag: str, backend: str = "", path: str = "",
            nbytes: int = 0, chunk: int = 0, crc: int = 0) -> bytes:
    body = _BODY.pack(kind, nbytes, chunk, crc)
    body += "\0".join((tag, backend, path)).encode()
    return _FRAME.pack(_MAGIC, len(body), zlib.crc32(body)) + body


def _encode_record(r: IndexRecord) -> bytes:
    return _encode(_ADD, r.tag, r.backend, r.path, r.nbytes, r.chunk, r.crc)


class _ContainerIndex(list):
    """A container's records in log order, plus what lookups and flushes
    need: per-tag lists sorted by chunk, and records not yet in the log."""

    def __init__(self) -> None:
        super().__init__()
        self.by_tag: Dict[str, List[IndexRecord]] = {}
        self.unflushed: List[IndexRecord] = []

    def add(self, record: IndexRecord) -> None:
        self.append(record)
        chunks = self.by_tag.setdefault(record.tag, [])
        chunks.append(record)
        if len(chunks) > 1 and chunks[-2].chunk > record.chunk:
            # A concurrent writer registered a later chunk first.
            chunks.sort(key=lambda r: r.chunk)

    def discard(self, record: IndexRecord) -> None:
        self.remove(record)
        chunks = self.by_tag[record.tag]
        chunks.remove(record)
        if not chunks:
            del self.by_tag[record.tag]
        if record in self.unflushed:
            self.unflushed.remove(record)

    def drop_tag(self, tag: str) -> None:
        self.by_tag.pop(tag, None)
        self[:] = [r for r in self if r.tag != tag]
        self.unflushed = [r for r in self.unflushed if r.tag != tag]


def _replay(logical: str, blob: bytes) -> "tuple[_ContainerIndex, int]":
    """Rebuild a container index from its log.

    Returns the index and the length of the log's valid prefix: a final
    record shorter than its frame claims is a torn append and ends the
    replay.  A complete record that fails its CRC-32 or does not parse
    raises :class:`ContainerError`.
    """
    index = _ContainerIndex()
    pos, end = 0, len(blob)
    while pos < end:
        if not _MAGIC.startswith(blob[pos:pos + len(_MAGIC)]):
            raise ContainerError(
                f"corrupt index for {logical!r}: no index-log record at "
                f"byte {pos}"
            )
        if end - pos < _FRAME.size:
            break
        _, length, crc = _FRAME.unpack_from(blob, pos)
        start = pos + _FRAME.size
        if start + length > end:
            break
        body = blob[start:start + length]
        actual = zlib.crc32(body)
        if actual != crc:
            raise ContainerError(
                f"corrupt index for {logical!r}: record at byte {pos} has "
                f"CRC-32 {actual:#010x}, log says {crc:#010x}"
            )
        try:
            kind, nbytes, chunk, chunk_crc = _BODY.unpack_from(body)
            tag, backend, path = body[_BODY.size:].decode().split("\0")
            if kind not in (_ADD, _DROP):
                raise ValueError(f"unknown record kind {kind}")
        except (struct.error, ValueError) as exc:
            raise ContainerError(
                f"corrupt index for {logical!r}: record at byte {pos}: {exc}"
            ) from exc
        if kind == _ADD:
            index.add(IndexRecord(tag, backend, path, nbytes, chunk, chunk_crc))
        else:
            index.drop_tag(tag)
        pos = start + length
    return index, pos


class PLFS:
    """Container layer multiplexing subsets across backend file systems."""

    def __init__(
        self,
        sim: Simulator,
        backends: Dict[str, FileSystem],
        metadata_backend: Optional[str] = None,
    ):
        if not backends:
            raise ConfigurationError("PLFS needs at least one backend")
        self.sim = sim
        self.backends = dict(backends)
        self.metadata_backend = metadata_backend or sorted(backends)[0]
        if self.metadata_backend not in self.backends:
            raise ConfigurationError(
                f"metadata backend {self.metadata_backend!r} is not a backend"
            )
        self._indexes: Dict[str, _ContainerIndex] = {}
        self._chunk_counters: Dict[tuple, int] = {}

    # -- paths ------------------------------------------------------------

    @staticmethod
    def container_dir(logical: str) -> str:
        return f"{logical}.plfs"

    @classmethod
    def chunk_path(cls, logical: str, tag: str, chunk: int) -> str:
        return f"{cls.container_dir(logical)}/subset.{tag}/data.{chunk}"

    @classmethod
    def index_path(cls, logical: str) -> str:
        return f"{cls.container_dir(logical)}/{_INDEX_NAME}"

    # -- container lifecycle ---------------------------------------------------

    def exists(self, logical: str) -> bool:
        return logical in self._indexes or self.backends[
            self.metadata_backend
        ].exists(self.index_path(logical))

    def tags(self, logical: str) -> List[str]:
        """Distinct subset tags present in a container, sorted."""
        return sorted(self._open(logical).by_tag)

    def container_index(self, logical: str) -> List[IndexRecord]:
        """The container's index records (replayed from its log once)."""
        return list(self._open(logical))

    def subset_records(self, logical: str, tag: str) -> List[IndexRecord]:
        """One subset's records, sorted by chunk."""
        return list(self._subset(logical, tag))

    def subset_nbytes(self, logical: str, tag: str) -> int:
        return sum(r.nbytes for r in self._subset(logical, tag))

    def container_nbytes(self, logical: str) -> int:
        return sum(r.nbytes for r in self._open(logical))

    def _subset(self, logical: str, tag: str) -> List[IndexRecord]:
        index = self._open(logical)
        records = index.by_tag.get(tag)
        if not records:
            raise TagNotFoundError(
                f"container {logical!r} has no subset tagged {tag!r} "
                f"(available: {sorted(index.by_tag)})"
            )
        return records

    def _open(self, logical: str, create: bool = False) -> _ContainerIndex:
        """The container's in-memory index, replaying its log on first use.

        Replay also restores the chunk counters (max chunk + 1 per tag), so
        a restarted client never reuses a stored chunk's name, and
        truncates a torn final record so later appends extend a clean log.
        ``create`` starts an empty index for a container with no log yet.
        """
        index = self._indexes.get(logical)
        if index is not None:
            return index
        meta_fs = self.backends[self.metadata_backend]
        path = self.index_path(logical)
        if meta_fs.exists(path):
            blob = meta_fs.data(path)
            index, valid = _replay(logical, blob)
            if valid < len(blob):
                meta_fs.rewrite(path, blob[:valid])
            for tag, records in index.by_tag.items():
                key = (logical, tag)
                self._chunk_counters[key] = max(
                    self._chunk_counters.get(key, 0), records[-1].chunk + 1
                )
        elif create:
            index = _ContainerIndex()
        else:
            raise ContainerError(f"no container index for {logical!r}")
        self._indexes[logical] = index
        return index

    def _claim_chunk(self, logical: str, tag: str) -> int:
        chunk = self._chunk_counters.get((logical, tag), 0)
        self._chunk_counters[(logical, tag)] = chunk + 1
        return chunk

    # -- DES processes ------------------------------------------------------------

    def write_subset(
        self,
        logical: str,
        tag: str,
        backend: str,
        data: Optional[bytes] = None,
        nbytes: Optional[int] = None,
        request_size: Optional[int] = None,
    ) -> Generator:
        """Process: append one subset chunk to a container."""
        if backend not in self.backends:
            raise ConfigurationError(f"unknown backend {backend!r}")
        self._open(logical, create=True)
        # Chunk numbers come from a counter claimed *before* the write (so
        # concurrent writers pick distinct names), but the index record is
        # registered only *after* the backend write succeeds (so a failed
        # dispatch leaves no dangling index entry).
        chunk = self._claim_chunk(logical, tag)
        path = self.chunk_path(logical, tag, chunk)
        size = FileSystem._payload_size(data, nbytes)
        yield from self.backends[backend].write(
            path, data=data, nbytes=size, request_size=request_size, label="plfs"
        )
        record = IndexRecord(
            tag=tag,
            backend=backend,
            path=path,
            nbytes=size,
            chunk=chunk,
            crc=zlib.crc32(data) if data is not None else -1,
        )
        yield from self._register(logical, [record], backend)
        return record

    def verify_chunk(self, record: IndexRecord, obj: StoredObject) -> None:
        """Check one chunk's bytes against its index record.

        Raises :class:`CorruptionError` (a transient fault: corruption is
        injected in flight, so a re-read observes clean bytes) on a size or
        CRC-32 mismatch.  Virtual chunks (``crc == -1``) have nothing to
        verify.
        """
        if record.crc == -1 or obj.data is None:
            return
        actual = zlib.crc32(obj.data)
        if len(obj.data) != record.nbytes or actual != record.crc:
            raise CorruptionError(
                f"plfs: checksum mismatch reading tag {record.tag!r} chunk "
                f"{record.chunk} ({record.path}): got {len(obj.data)} B "
                f"CRC-32 {actual:#010x}, expected {record.nbytes} B "
                f"CRC-32 {record.crc:#010x}"
            )

    def read_chunk_run(
        self,
        records: List[IndexRecord],
        request_size: Optional[int] = None,
        coalesce: bool = True,
    ) -> Generator:
        """Process: read one *run* of chunks living on a single backend.

        With ``coalesce`` the run goes to the backend as one span read --
        one metadata operation, one seek-amortized transfer -- instead of
        one request per chunk.  Every chunk is still CRC-verified
        individually, so a coalesced range detects exactly the corruption
        an uncoalesced one would; the caller retries the whole run.
        Returns the chunks' :class:`StoredObject` list in ``records``
        order.
        """
        if not records:
            return []
        backend_names = {r.backend for r in records}
        if len(backend_names) != 1:
            raise ConfigurationError(
                f"chunk run spans backends {sorted(backend_names)}"
            )
        backend = self.backends[records[0].backend]
        if coalesce:
            objs = yield from backend.read_span(
                [r.path for r in records],
                request_size=request_size,
                label="plfs",
            )
        else:
            procs = [
                self.sim.process(
                    backend.read(r.path, request_size=request_size, label="plfs"),
                    name=f"plfs:read:{r.path}",
                )
                for r in records
            ]
            objs = yield AllOf(self.sim, procs)
        for record, obj in zip(records, objs):
            self.verify_chunk(record, obj)
        return objs

    def write_chunk_run(
        self,
        logical: str,
        entries: List[tuple],
        backend: str,
        request_size: Optional[int] = None,
        coalesce: bool = True,
    ) -> Generator:
        """Process: append one *run* of chunks bound for a single backend.

        The write-side mirror of :meth:`read_chunk_run`: ``entries`` is a
        list of ``(tag, data)`` pairs.  With ``coalesce`` the run reaches
        the backend as one span write -- one metadata operation, one
        seek-amortized transfer -- instead of one request per chunk.  Each
        chunk keeps its own index record and CRC-32, so tag-selective
        reads and per-chunk verification are unchanged, and the whole run
        shares a single index flush.

        Failure semantics match :meth:`write_subset`, scoped to the run:
        chunk numbers are claimed up front (a failed run leaves counter
        gaps, never reused names), no index record is registered until the
        backend write succeeds, and an index-flush fault rolls back every
        chunk of the run so a dispatcher-level retry rewrites it cleanly.
        ``StorageFullError`` propagates before any chunk is stored, so the
        caller can spill the *whole* run.  Returns the run's
        :class:`IndexRecord` list in ``entries`` order.
        """
        if backend not in self.backends:
            raise ConfigurationError(f"unknown backend {backend!r}")
        if not entries:
            return []
        self._open(logical, create=True)
        backend_fs = self.backends[backend]
        chunks = [self._claim_chunk(logical, tag) for tag, _data in entries]
        items = [
            (self.chunk_path(logical, tag, chunk), data)
            for (tag, data), chunk in zip(entries, chunks)
        ]
        if coalesce:
            yield from backend_fs.write_span(
                items, request_size=request_size, label="plfs"
            )
        else:
            stored = []
            try:
                for path, data in items:
                    yield from backend_fs.write(
                        path, data=data, request_size=request_size,
                        label="plfs",
                    )
                    stored.append(path)
            except BaseException:
                for path in stored:
                    if backend_fs.exists(path):
                        backend_fs.delete(path)
                raise
        run_records = [
            IndexRecord(
                tag=tag,
                backend=backend,
                path=path,
                nbytes=len(data),
                chunk=chunk,
                crc=zlib.crc32(data),
            )
            for (tag, data), (path, _), chunk in zip(entries, items, chunks)
        ]
        yield from self._register(logical, run_records, backend)
        return run_records

    def read_subset(
        self,
        logical: str,
        tag: str,
        request_size: Optional[int] = None,
    ) -> Generator:
        """Process: read every chunk of one subset, chunks in parallel.

        Returns a :class:`StoredObject` whose data is the chunk
        concatenation (or virtual when any chunk is virtual).
        """
        records = self.subset_records(logical, tag)
        procs = [
            self.sim.process(
                self.backends[r.backend].read(
                    r.path, request_size=request_size, label="plfs"
                ),
                name=f"plfs:read:{r.path}",
            )
            for r in records
        ]
        objs = yield AllOf(self.sim, procs)
        for record, obj in zip(records, objs):
            self.verify_chunk(record, obj)
        total = sum(o.nbytes for o in objs)
        if any(o.is_virtual for o in objs):
            data = None
        else:
            data = b"".join(o.data for o in objs)
        return StoredObject(
            path=f"{logical}#{tag}", nbytes=total, data=data
        )

    def read_container(
        self, logical: str, request_size: Optional[int] = None
    ) -> Generator:
        """Process: read every subset of a container concurrently.

        Returns ``{tag: StoredObject}``.
        """
        tags = self.tags(logical)
        procs = [
            self.sim.process(
                self.read_subset(logical, tag, request_size=request_size),
                name=f"plfs:read:{logical}#{tag}",
            )
            for tag in tags
        ]
        objs = yield AllOf(self.sim, procs)
        return dict(zip(tags, objs))

    def fsck(self, logical: Optional[str] = None) -> Dict[str, list]:
        """Container integrity check.

        Cross-references index records against backend objects and
        reports:

        * ``missing`` -- indexed chunks whose backend object is gone;
        * ``size_mismatch`` -- chunks whose stored size disagrees with the
          index;
        * ``orphaned`` -- ``*.plfs/subset.*`` objects on a backend that no
          index references (a crashed dispatch, for instance).

        Returns ``{"missing": [...], "size_mismatch": [...],
        "orphaned": [...], "ok": bool}``.
        """
        logicals = (
            [logical]
            if logical is not None
            else sorted(
                {
                    key[: -len(".plfs/" + _INDEX_NAME)]
                    for fs in self.backends.values()
                    for key in fs.store.walk()
                    if key.endswith(".plfs/" + _INDEX_NAME)
                }
            )
        )
        missing, size_mismatch = [], []
        indexed_paths = set()
        for name in logicals:
            for record in self.container_index(name):
                indexed_paths.add((record.backend, record.path))
                backend = self.backends[record.backend]
                if not backend.exists(record.path):
                    missing.append(record.path)
                elif backend.nbytes(record.path) != record.nbytes:
                    size_mismatch.append(record.path)
        orphaned = []
        for backend_name, fs in self.backends.items():
            for key in fs.store.walk():
                if "/subset." not in key or ".plfs/" not in key:
                    continue
                if logical is not None and not key.startswith(
                    self.container_dir(logical) + "/"
                ):
                    continue
                if (backend_name, key) not in indexed_paths:
                    orphaned.append(f"{backend_name}:{key}")
        report = {
            "missing": sorted(missing),
            "size_mismatch": sorted(size_mismatch),
            "orphaned": sorted(orphaned),
        }
        report["ok"] = not (missing or size_mismatch or orphaned)
        return report

    def delete_container(self, logical: str) -> int:
        """Remove every chunk and the index of a container; returns freed
        bytes.  Synchronous (metadata-path operation, like ``rm -r``)."""
        records = self.container_index(logical)
        freed = 0
        for record in records:
            backend = self.backends[record.backend]
            if backend.exists(record.path):
                freed += backend.delete(record.path)
        meta_fs = self.backends[self.metadata_backend]
        index_path = self.index_path(logical)
        if meta_fs.exists(index_path):
            meta_fs.delete(index_path)
        self._indexes.pop(logical, None)
        for key in [k for k in self._chunk_counters if k[0] == logical]:
            del self._chunk_counters[key]
        return freed

    def delete_subset(self, logical: str, tag: str) -> int:
        """Remove one tagged subset's chunks from a container; returns
        freed bytes.  Synchronous, like :meth:`delete_container`.

        The rebalancer's cleanup primitive: after a subset migrates to
        another node, the source drops just that ``(logical, tag)`` --
        the rest of the container (and its index) stays serviceable.  A
        tombstone appended to the index log makes the deletion survive a
        reopen.  Deleting the last subset removes the container entirely.
        """
        index = self._open(logical)
        records = index.by_tag.get(tag)
        if not records:
            return 0
        if len(index.by_tag) == 1:
            return self.delete_container(logical)
        freed = 0
        for record in records:
            backend = self.backends[record.backend]
            if backend.exists(record.path):
                freed += backend.delete(record.path)
        index.drop_tag(tag)
        self._chunk_counters.pop((logical, tag), None)
        meta_fs = self.backends[self.metadata_backend]
        path = self.index_path(logical)
        if meta_fs.exists(path):
            meta_fs.rewrite(path, meta_fs.data(path) + _encode(_DROP, tag))
        return freed

    def _register(
        self, logical: str, run_records: List[IndexRecord], backend: str
    ) -> Generator:
        """Process: index a run's stored chunks and append them to the log.

        An append fault rolls the whole run back -- its own records and
        chunk objects only, since concurrent writers may have registered
        behind it -- so a dispatcher-level retry rewrites it cleanly
        instead of duplicating subset bytes.
        """
        index = self._open(logical, create=True)
        for record in run_records:
            index.add(record)
        index.unflushed.extend(run_records)
        try:
            yield from self._flush_index(logical)
        except FaultError:
            backend_fs = self.backends[backend]
            for record in run_records:
                index.discard(record)
                if backend_fs.exists(record.path):
                    backend_fs.delete(record.path)
            raise

    def _flush_index(self, logical: str) -> Generator:
        """Process: append the container's unflushed records to its log.

        Only the new records' bytes reach the metadata backend.  A failed
        append puts its records back, so a writer whose run it carried
        loses nothing and a later flush persists each record once.
        """
        index = self._indexes[logical]
        batch, index.unflushed = index.unflushed, []
        if not batch:
            return
        payload = b"".join(map(_encode_record, batch))
        try:
            yield from self.backends[self.metadata_backend].write(
                self.index_path(logical), data=payload, append=True,
                label="plfs-index",
            )
        except BaseException:
            index.unflushed[:0] = batch
            raise
