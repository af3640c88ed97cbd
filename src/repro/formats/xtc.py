"""XTC-like lossy compressed trajectory codec.

GROMACS ``.xtc`` files store coordinates quantized to fixed-point integers
(default precision 1000 => milli-Angstrom) and entropy-coded.  The essential
properties the paper relies on are:

1. the file is roughly **3x smaller** than raw float32 frames (Table 2:
   100 MB compressed vs. 327 MB raw);
2. **no random access to atoms**: the whole frame must be decompressed
   before any atom subset can be extracted -- this is the repeated CPU
   burden ADA removes from compute nodes; and
3. decompression is **CPU-expensive relative to transfer** from fast
   storage.

This codec reproduces all three with a transparent pipeline: quantize ->
delta-code along the atom axis -> zlib.  Each frame is independently
compressed behind a fixed-size binary header, so a file can be scanned
frame-by-frame (:func:`iter_frame_infos`) without inflating payloads --
which is exactly what ADA's storage-side pre-processor does before it
splits a dataset.

A companion *raw container* format (``RAW_MAGIC``) stores uncompressed
float32 subsets; it is what ADA writes to its backends after categorizing,
and what the "D-" scenarios of the paper load.

Performance model (the materialized-mode hot path):

* the bit-packing kernels are **word-oriented** and **row-batched**: they
  take a ``(rows, count)`` matrix, one row per frame, and pack/unpack
  fixed-width fields with whole-matrix shift/OR passes over 64-bit
  words, never a per-bit matrix (:func:`_pack_rows`,
  :func:`_unpack_rows`);
* every stage of a group of frames (GOF) runs as **whole-GOF batch
  operations**: encode quantizes the GOF in one pass, takes every
  P-frame's temporal deltas with one ``np.diff`` along the frame axis,
  zigzags them in one pass, finds every frame's per-block widths with one
  reduction and packs each ``(block, width)`` group of frames with one
  kernel call; decode checks every frame in stream order, unpacks each
  ``(block, width)`` group straight into one int64 matrix, un-zigzags it
  in one pass, reconstructs with prefix sums and converts kept frames
  with one reciprocal multiply.  The numpy passes are paid per distinct
  width, not per frame; per frame only the header, ``zlib`` and the
  stored-or-deflated choice remain.  Deflate is kept for most frames of
  real data (every P-frame of a coarse LOD chunk, about 4 in 5 at full
  precision), so inflate is the largest single decode cost;
* keyframes every ``keyframe_interval`` partition a stream into
  independently codable **groups of frames** (GOFs); ``encode_xtc`` /
  ``decode_xtc`` accept ``workers=N`` and fan GOFs out to a worker pool
  selected by ``backend`` (``"thread"``, ``"process"``, or ``"auto"`` --
  see :mod:`repro.formats.codecexec`; process workers exchange
  coordinates through shared memory and deliver real multi-core
  speedup).  Parallel output is bit-identical to serial because each GOF
  is self-contained and results are reassembled in stream order;
* a :class:`FrameIndex` captures one header scan (offsets, keyframe
  anchors, cumulative raw bytes) and makes every subsequent
  :func:`decode_frame_range` / frame-count / size query O(1) in the number
  of frames outside the requested window.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CodecError
from repro.formats.codecexec import (
    CodecPool,
    process_decode,
    process_encode,
    resolve_backend,
    shared_pool,
)
from repro.formats.trajectory import BYTES_PER_COORD, Trajectory

__all__ = [
    "XTC_MAGIC",
    "RAW_MAGIC",
    "DEFAULT_PRECISION",
    "XtcFrameInfo",
    "FrameIndex",
    "encode_xtc",
    "decode_xtc",
    "iter_frame_infos",
    "count_frames",
    "raw_frame_nbytes",
    "resolve_workers",
    "encode_raw",
    "decode_raw",
    "raw_container_nbytes",
]

#: Magic number of real GROMACS XTC files; reused for familiarity.
XTC_MAGIC = 1995
#: Magic for the raw (uncompressed float32) subset container.
RAW_MAGIC = 1996
#: Fixed-point precision: coordinate * precision rounds to int.  Coordinates
#: here are in Angstrom, so 100.0 gives 0.01 A resolution -- exactly the
#: resolution of GROMACS's default xtc-precision of 1000 in nm units.
DEFAULT_PRECISION = 100.0

# Frame header: magic, natoms, step, time, box[9], precision, flags, payload
# length.  Flag bit 0 set => P-frame (payload holds temporal deltas against
# the previous frame); clear => I-frame (intra-frame deltas along the atom
# axis).  Real XTC compresses every frame independently; we add temporal
# prediction (as the TNG successor format does) to reach the same ~3x ratio
# with a byte-oriented entropy stage.
_HEADER = struct.Struct("<iii f 9f f iI")
#: Smallest precision either side accepts: below it an int32 quantum would
#: dequantize past float32's range.  The bound also rules out zero,
#: negative and denormal precisions; NaN and inf fail the finiteness test.
_MIN_PRECISION = 2.0**31 / float(np.finfo(np.float32).max)
_FLAG_PFRAME = 1
# Flag bit 1 set => the payload body is *stored* (not deflated).  Bit-packed
# thermal-noise deltas can sit near the entropy floor, where deflate buys only
# a few percent at the cost of an inflate; the encoder keeps deflate only when
# it shrinks the body by at least 1/16 (real xdr3dfcoord likewise skips its
# entropy stage when packing alone suffices).
_FLAG_STORED = 2

# Payload prologue (inside the deflate stream): block count, value count.
# Each block then carries its own word width, so a few outlier deltas (5-sigma
# thermal kicks) don't widen the whole frame -- the same adaptivity real
# xdr3dfcoord gets from its small/large escape scheme.
_PAYLOAD_HEAD = struct.Struct("<HI")
# Stored (non-deflated) payload bodies carry a trailing CRC-32: deflated
# bodies are integrity-checked by zlib's adler32, and without an equivalent
# a flipped bit in a stored P-frame would decode to silently wrong
# coordinates instead of a typed error.
_STORED_CRC = struct.Struct("<I")
_BLOCK_VALUES = 8192
#: Bytes :func:`_unpack_rows` may read past the last packed stream: one
#: 64-bit word from a field's first byte, plus a ninth byte.
_UNPACK_SLACK = 16
_RAW_HEADER = struct.Struct("<iiqif")  # magic, natoms, nframes, reserved, dt


@dataclass(frozen=True)
class XtcFrameInfo:
    """Location and metadata of one compressed frame inside an XTC stream."""

    index: int
    offset: int  # byte offset of the frame header
    header_nbytes: int
    payload_nbytes: int  # compressed payload size
    natoms: int
    step: int
    time_ps: float
    flags: int = 0
    precision: float = 0.0

    @property
    def is_keyframe(self) -> bool:
        """True for I-frames (decodable without any earlier frame)."""
        return not self.flags & _FLAG_PFRAME

    @property
    def total_nbytes(self) -> int:
        return self.header_nbytes + self.payload_nbytes

    @property
    def raw_nbytes(self) -> int:
        """Decompressed payload size of this frame."""
        return raw_frame_nbytes(self.natoms)


def raw_frame_nbytes(natoms: int) -> int:
    """Uncompressed payload bytes of one frame (float32 xyz)."""
    return natoms * BYTES_PER_COORD


def _check_precision(precision: float, where: str) -> None:
    """Raise :class:`CodecError` naming ``precision`` unless it is finite
    and at least ``_MIN_PRECISION``."""
    if not (math.isfinite(precision) and precision >= _MIN_PRECISION):
        raise CodecError(
            f"bad precision {precision!r} {where}: need a finite value "
            f">= {_MIN_PRECISION:.3g}"
        )


def _quantize(coords: np.ndarray, precision: float) -> np.ndarray:
    values = coords.astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise CodecError("non-finite coordinates cannot be encoded")
    ints = np.rint(values * precision)
    if np.any(np.abs(ints) > np.iinfo(np.int32).max):
        raise CodecError("coordinates overflow int32 at this precision")
    return ints.astype(np.int32)


def _zigzag(values: np.ndarray) -> np.ndarray:
    """Map signed int64 to unsigned (0,-1,1,-2 -> 0,1,2,3) for bit packing."""
    v = values.astype(np.int64)
    return ((v << 1) ^ (v >> 63)).astype(np.uint64)


def _unzigzag(values: np.ndarray) -> np.ndarray:
    """Invert :func:`_zigzag` in place; ``values`` (uint64) is consumed."""
    v = values.astype(np.uint64, copy=False)
    # (v >> 1) ^ -(v & 1), all in uint64, reinterpreted as int64.
    sign = v & np.uint64(1)
    np.subtract(np.uint64(0), sign, out=sign)
    np.right_shift(v, np.uint64(1), out=v)
    np.bitwise_xor(v, sign, out=v)
    return v.view(np.int64)


def _lane_geometry(nbits: int, count: int) -> "tuple[int, int, int]":
    """Periodic lane layout of an ``nbits``-wide dense bitstream.

    Fixed-width fields repeat their byte/bit phase every ``lcm(nbits, 8)``
    bits, i.e. every ``L = 8 / gcd(nbits, 8)`` values.  Returns
    ``(L, period_bytes, nperiods)``: the packed stream is ``nperiods``
    repetitions of a ``period_bytes``-byte pattern, and lane ``j`` of every
    period starts at the same bit offset -- which is what lets pack/unpack
    run as a handful of whole-matrix ops per lane instead of per-value (or
    per-bit) work.
    """
    lanes = 8 // math.gcd(nbits, 8)
    period_bytes = nbits * lanes // 8
    nperiods = (count + lanes - 1) // lanes
    return lanes, period_bytes, nperiods


def _pack_rows(values: np.ndarray, nbits: int) -> np.ndarray:
    """Pack each row of a ``(rows, count)`` uint64 matrix into a dense
    ``nbits``-wide big-endian bitstream; returns ``(rows, nbytes)`` uint8.

    Every value must already fit ``nbits`` bits.  Period-word kernel: a
    period is left-justified in ``ceil(period_bytes / 8)`` u64 words, lane
    ``j`` holding bits ``[j * nbits, (j + 1) * nbits)`` from the top of
    word 0.  Lane ``j`` of every period in every row is shifted into place
    and OR-ed into its word with one whole-matrix op (two when the field
    spans a word boundary; a field of at most 64 bits never spans three),
    then the words are byte-swapped once and the first ``period_bytes`` of
    each period kept.  A group of frames packs all rows of one width in a
    single pass -- the cost is per distinct width, not per frame.
    """
    nrows, count = values.shape
    nbytes = (count * nbits + 7) // 8
    if nbytes == 0:
        return np.zeros((nrows, 0), dtype=np.uint8)
    lanes, period_bytes, nperiods = _lane_geometry(nbits, count)
    nwords = (period_bytes + 7) // 8
    words = np.zeros((nwords, nrows, nperiods), dtype=np.uint64)
    for j in range(lanes):
        k, offset = divmod(j * nbits, 64)
        lane = values[:, j::lanes]  # a short last period leaves lanes empty
        n = lane.shape[1]
        spill = offset + nbits - 64
        if spill > 0:
            words[k, :, :n] |= lane >> np.uint64(spill)
            words[k + 1, :, :n] |= lane << np.uint64(64 - spill)
        else:
            words[k, :, :n] |= lane << np.uint64(-spill)
    packed = words.transpose(1, 2, 0).astype(">u8", order="C").view(np.uint8)
    packed = packed.reshape(nrows, nperiods, nwords * 8)[:, :, :period_bytes]
    return packed.reshape(nrows, nperiods * period_bytes)[:, :nbytes]


@functools.lru_cache(maxsize=32)
def _field_shifts(
    nbits: int, count: int
) -> "tuple[Optional[np.ndarray], np.ndarray]":
    """Where :func:`_unpack_rows` reads each of ``count`` fields from.

    Returns ``(first_byte, shift)``: field ``i`` is the top ``nbits`` bits
    of the big-endian u64 read at byte ``first_byte[i]``, after a left
    shift by ``shift[i]``.  When a lane period fits one word,
    ``first_byte`` is ``None``: the word is the period's own, read at the
    period start, and the shift is the lane's bit offset in it.  Both
    arrays are cached and read-only.
    """
    _, period_bytes, _ = _lane_geometry(nbits, count)
    first = np.arange(count, dtype=np.int64) * nbits
    if period_bytes <= 8:
        byte, shift = None, first % (8 * period_bytes)
    else:
        byte, shift = first >> 3, first & 7
        byte.flags.writeable = False
    shift = shift.astype(np.uint64)
    shift.flags.writeable = False
    return byte, shift


def _unpack_rows(
    src: np.ndarray,
    nrows: int,
    count: int,
    nbits: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Inverse of :func:`_pack_rows`: unpack ``nrows`` bitstreams of
    ``count`` fields, stored back to back in the uint8 array ``src``, into
    ``out`` (``(nrows, count)`` uint64, allocated when not given).

    Every value, in value order, is read as a big-endian u64 holding its
    field, then cut out with a left shift (dropping the bits above it) and
    a right shift written straight into ``out``.  When a lane period fits
    one word, one strided view reads each period's word once per lane; for
    longer periods a gather reads the 8 bytes starting at each field's
    first byte (plus a ninth byte for the few fields wider than 57 bits
    that spill past it).  Reads run up to ``_UNPACK_SLACK`` bytes past the
    last stream, into the next stream or padding, and land only in bits
    the shifts drop; ``src`` is copied with zero padding when it is
    shorter.  Working in value order keeps every pass contiguous, where
    interleaving per-lane results would cost a strided pass per lane.
    """
    if out is None:
        out = np.empty((nrows, count), dtype=np.uint64)
    if nbits == 0 or count == 0:
        out[...] = 0
        return out
    lanes, period_bytes, nperiods = _lane_geometry(nbits, count)
    nbytes = (count * nbits + 7) // 8
    if src.size < nrows * nbytes + _UNPACK_SLACK:
        padded = np.zeros(nrows * nbytes + _UNPACK_SLACK, dtype=np.uint8)
        padded[: nrows * nbytes] = src[: nrows * nbytes]
        src = padded
    byte, shift = _field_shifts(nbits, count)
    if byte is None:
        field = np.ndarray(
            (nrows, nperiods, lanes), dtype=">u8", buffer=src,
            strides=(nbytes, period_bytes, 0),
        ).astype(np.uint64).reshape(nrows, nperiods * lanes)[:, :count]
    else:
        windows = np.ndarray(
            (nrows, nbytes), dtype=">u8", buffer=src, strides=(nbytes, 1)
        )
        # ``take`` keeps the gather in row-major order (fancy indexing
        # would lay the result out column-major and slow every later pass).
        field = np.take(windows, byte, axis=1).astype(np.uint64)
    np.left_shift(field, shift, out=field)
    if nbits > 57 and byte is not None:
        ninth = np.ndarray(
            (nrows, nbytes), dtype=np.uint8, buffer=src,
            offset=8, strides=(nbytes, 1),
        )
        field |= np.take(ninth, byte, axis=1).astype(np.uint64) >> (
            np.uint64(8) - shift
        )
    np.right_shift(field, np.uint64(64 - nbits), out=out)
    return out


def _pack_words(values_u: np.ndarray, nbits: int) -> bytes:
    """Pack unsigned values into a dense ``nbits``-wide big-endian bitstream.

    This is the moral equivalent of xdr3dfcoord's fixed-width "smallidx"
    packing: the per-block word width adapts to the largest delta.  The
    one-row case of :func:`_pack_rows`; bits above ``nbits`` are dropped.
    """
    count = int(values_u.size)
    if nbits == 0 or count == 0:
        return b""
    if not 0 < nbits <= 64:
        raise CodecError(f"word width {nbits} outside [0, 64]")
    values = np.asarray(values_u, dtype=np.uint64).reshape(1, count)
    if nbits < 64:
        values = values & np.uint64((1 << nbits) - 1)
    return _pack_rows(values, nbits).tobytes()


def _unpack_words(
    data, count: int, nbits: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Inverse of :func:`_pack_words`: the one-row case of
    :func:`_unpack_rows`.

    ``data`` may be ``bytes`` or a ``memoryview``; ``out``, when given, is
    a ``count``-long uint64 destination filled and returned.
    """
    if out is None:
        out = np.empty(count, dtype=np.uint64)
    if nbits == 0 or count == 0:
        out[:] = 0
        return out
    if not 0 < nbits <= 64:
        raise CodecError(f"word width {nbits} outside [0, 64]")
    nbytes = (count * nbits + 7) // 8
    if len(data) < nbytes:
        raise CodecError("packed bitstream shorter than its value count")
    src = np.frombuffer(data, dtype=np.uint8, count=nbytes)
    _unpack_rows(src, 1, count, nbits, out[np.newaxis])
    return out


def _row_index(rows: Sequence[int]):
    """Index selecting ``rows`` of a matrix: a slice (a view, no copy) when
    they are consecutive, which they are whenever a group of frames keeps
    one width per block; the row list otherwise."""
    if rows[-1] - rows[0] == len(rows) - 1:
        return slice(rows[0], rows[-1] + 1)
    return list(rows)


def _encode_rows(
    zz: np.ndarray, level: int, allow_stored: bool
) -> List["tuple[int, bytes]"]:
    """Entropy-code each row of a ``(rows, count)`` zigzagged matrix.

    One frame per row.  Returns one ``(flags, payload)`` per row:
    ``flags`` is ``_FLAG_STORED`` when the bit-packed body ships as-is
    (deflate did not shrink it by >= 1/16) and ``0`` when the payload is
    deflated.  ``allow_stored=False`` forces the deflate stage -- used for
    I-frames so every group of frames keeps a zlib-checksummed anchor that
    rejects corrupted streams.

    Row-batched: one reduction gives every row's per-block maximum, and
    each ``(block, width)`` group of rows is bit-packed by one
    :func:`_pack_rows` call.  Full blocks hold ``_BLOCK_VALUES`` (a
    multiple of 8) values, so each block's bitstream ends on a byte and a
    body's packed section is the concatenation of its blocks' bytes.  Only
    the body join, deflate and the stored-or-deflated choice run per row.
    """
    nrows, count = zz.shape
    nblocks = (count + _BLOCK_VALUES - 1) // _BLOCK_VALUES
    if nblocks:
        starts = np.arange(0, count, _BLOCK_VALUES)
        maxima = np.maximum.reduceat(zz, starts, axis=1).tolist()
        widths = [bytes(int(m).bit_length() for m in row) for row in maxima]
    else:
        widths = [b""] * nrows
    pieces: List[List[bytes]] = [[] for _ in range(nrows)]
    for b in range(nblocks):
        lo, hi = b * _BLOCK_VALUES, min((b + 1) * _BLOCK_VALUES, count)
        groups: dict = {}
        for r in range(nrows):
            groups.setdefault(widths[r][b], []).append(r)
        for nbits, rows in groups.items():
            packed = _pack_rows(zz[_row_index(rows), lo:hi], nbits)
            flat, step = packed.tobytes(), packed.shape[1]
            for i, r in enumerate(rows):
                pieces[r].append(flat[i * step : (i + 1) * step])
    head = _PAYLOAD_HEAD.pack(nblocks, count)
    coded = []
    for r in range(nrows):
        body = head + widths[r] + b"".join(pieces[r])
        comp = zlib.compress(body, level)
        if not allow_stored or len(comp) < len(body) - len(body) // 16:
            coded.append((0, comp))
        else:
            coded.append((_FLAG_STORED, body + _STORED_CRC.pack(zlib.crc32(body))))
    return coded


def _frame_body(payload, stored: bool, frame: int):
    """Verify and open one frame's entropy-coded body: check the stored
    CRC-32 or inflate.  Errors name ``frame`` and the values that failed."""
    if stored:
        if len(payload) < _STORED_CRC.size:
            raise CodecError(
                f"frame {frame}: stored payload shorter than its checksum "
                f"({len(payload)} < {_STORED_CRC.size} bytes)"
            )
        body = payload[: -_STORED_CRC.size]
        (recorded,) = _STORED_CRC.unpack_from(payload, len(body))
        computed = zlib.crc32(body)
        if computed != recorded:
            raise CodecError(
                f"frame {frame}: stored payload checksum mismatch "
                f"(recorded {recorded:#010x}, computed {computed:#010x})"
            )
        return body
    try:
        return memoryview(zlib.decompress(payload))
    except zlib.error as exc:
        raise CodecError(f"frame {frame}: payload inflate failed: {exc}") from exc


def _block_runs(
    body, count: int, col0: int, frame: int
) -> List["tuple[int, int, int, int]"]:
    """Parse and bounds-check one body's block table.

    Returns one ``(col_lo, col_hi, nbits, byte_offset)`` per block: its
    values land in columns ``[col_lo, col_hi)`` of the frame's row (offset
    by ``col0``) and its bitstream starts at ``byte_offset`` of ``body``.
    Every check of the stream runs here, before any unpacking: prologue
    size, value count, block count, width table, word widths and the bytes
    each block needs.
    """
    if len(body) < _PAYLOAD_HEAD.size:
        raise CodecError(
            f"frame {frame}: payload shorter than its prologue "
            f"({len(body)} < {_PAYLOAD_HEAD.size} bytes)"
        )
    nblocks, found = _PAYLOAD_HEAD.unpack_from(body, 0)
    if found != count:
        raise CodecError(
            f"frame {frame}: payload holds {found} values, expected {count}"
        )
    if nblocks != (count + _BLOCK_VALUES - 1) // _BLOCK_VALUES:
        raise CodecError(
            f"frame {frame}: block table of {nblocks} blocks cannot hold "
            f"{count} values"
        )
    offset = _PAYLOAD_HEAD.size
    widths = bytes(body[offset : offset + nblocks])
    if len(widths) < nblocks:
        raise CodecError(
            f"frame {frame}: truncated block-width table "
            f"({len(widths)} of {nblocks} bytes)"
        )
    offset += nblocks
    runs = []
    for b, nbits in enumerate(widths):
        lo = b * _BLOCK_VALUES
        hi = min(lo + _BLOCK_VALUES, count)
        nbytes = ((hi - lo) * nbits + 7) // 8
        if len(body) - offset < nbytes:
            raise CodecError(
                f"frame {frame}: truncated packed bitstream: block {b} at "
                f"width {nbits} needs {nbytes} bytes, "
                f"{len(body) - offset} available"
            )
        if nbits > 64:
            raise CodecError(
                f"frame {frame}: word width {nbits} outside [0, 64] "
                f"in block {b}"
            )
        runs.append((col0 + lo, col0 + hi, nbits, offset))
        offset += nbytes
    return runs


def _unpack_frames(frames, udat: np.ndarray) -> None:
    """Unpack checked frame bodies into rows of ``udat`` (uint64).

    ``frames`` holds one ``(row, body, runs)`` per frame, ``runs`` as
    returned by :func:`_block_runs`.  Blocks that cover the same columns
    at the same width are gathered across frames into one ``(rows,
    nbytes)`` matrix and unpacked by a single :func:`_unpack_rows` call --
    straight into ``udat`` when the rows are consecutive.
    """
    groups: dict = {}
    for row, body, runs in frames:
        for lo, hi, nbits, offset in runs:
            groups.setdefault((lo, hi, nbits), []).append((row, body, offset))
    slack = bytes(_UNPACK_SLACK)
    for (lo, hi, nbits), members in groups.items():
        rows = [row for row, _, _ in members]
        nbytes = ((hi - lo) * nbits + 7) // 8
        chunks = [body[off : off + nbytes] for _, body, off in members]
        src = np.frombuffer(b"".join(chunks + [slack]), dtype=np.uint8)
        index = _row_index(rows)
        if isinstance(index, slice):
            _unpack_rows(src, len(rows), hi - lo, nbits, out=udat[index, lo:hi])
        else:
            udat[index, lo:hi] = _unpack_rows(src, len(rows), hi - lo, nbits)


def resolve_workers(workers: Optional[int], ntasks: int) -> int:
    """Effective thread count for ``ntasks`` independent codec tasks.

    ``None`` or ``1`` means serial, ``0`` means one thread per CPU, and any
    positive count is capped at the number of tasks.  Worker count never
    changes results -- only how GOFs are scheduled.
    """
    if workers is None:
        return 1
    workers = int(workers)
    if workers < 0:
        raise CodecError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        workers = os.cpu_count() or 1
    return max(1, min(workers, ntasks))


def _encode_gof(
    trajectory: Trajectory,
    start: int,
    stop: int,
    precision: float,
    level: int,
    box9: Tuple[float, ...],
) -> bytes:
    """Encode one group of frames; ``start`` becomes an I-frame.

    Whole-GOF batch kernels: one quantize pass over the frame block, one
    ``np.diff`` along the frame axis for every P-frame's temporal deltas,
    one zigzag pass over all of them, then the row-batched entropy stage
    (:func:`_encode_rows`).  The I-frame stores its first atom absolutely
    (behind its own CRC: the origin sits outside the deflate stream, and a
    flipped origin bit would otherwise shift every coordinate of the
    group) plus intra-frame deltas along the atom axis.  Transient int64
    state is one GOF's deltas, bounded by ``keyframe_interval``.
    """
    nframes = stop - start
    block = _quantize(trajectory.coords[start:stop], precision)
    origin = block[0, 0:1].astype("<i4").tobytes()
    # int64 before the diff: neighbouring atoms may sit more than 2**31
    # quanta apart, which an int32 diff would wrap into a wrong delta.
    (iflags, ipayload), = _encode_rows(
        _zigzag(np.diff(block[0].astype(np.int64), axis=0).reshape(1, -1)),
        level,
        False,
    )
    coded = [(iflags, origin + _STORED_CRC.pack(zlib.crc32(origin)) + ipayload)]
    if nframes > 1:
        zz = _zigzag(
            np.diff(block.reshape(nframes, -1).astype(np.int64), axis=0)
        )
        coded += [
            (_FLAG_PFRAME | sflag, payload)
            for sflag, payload in _encode_rows(zz, level, True)
        ]
    chunks: List[bytes] = []
    for i, (flags, payload) in enumerate(coded):
        chunks.append(
            _HEADER.pack(
                XTC_MAGIC,
                trajectory.natoms,
                int(trajectory.steps[start + i]),
                float(trajectory.times_ps[start + i]),
                *box9,
                float(precision),
                flags,
                len(payload),
            )
        )
        chunks.append(payload)
    return b"".join(chunks)


def _resolve_pool(executor, backend: str, nworkers: int):
    """Pick the :class:`CodecPool` serving a codec call (None => caller
    runs serial or drives a raw executor it supplied itself)."""
    resolve_backend(backend)  # validate the knob even on serial paths
    if executor is not None:
        return executor if isinstance(executor, CodecPool) else None
    if nworkers <= 1:
        return None
    # No owning pool supplied: reuse the process-lifetime shared pool
    # instead of constructing (and tearing down) a transient one per call.
    return shared_pool(backend, nworkers)


def encode_xtc(
    trajectory: Trajectory,
    precision: float = DEFAULT_PRECISION,
    level: int = 6,
    keyframe_interval: int = 100,
    workers: Optional[int] = None,
    executor=None,
    backend: str = "auto",
) -> bytes:
    """Serialize a trajectory to an XTC-like compressed byte stream.

    ``keyframe_interval`` inserts an independently-decodable I-frame every
    N frames (video-codec style), bounding how far
    :func:`decode_frame_range` must rewind for random access.  Because each
    group of frames (keyframe to keyframe) is encoded against only its own
    frames, GOFs are embarrassingly parallel: ``workers`` (see
    :func:`resolve_workers`) fans them out to the ``backend`` worker pool
    (``"thread"``, ``"process"``, or ``"auto"``; process workers read
    coordinates from a shared-memory segment) and the concatenated result
    is bit-identical to a serial encode.  ``executor`` supplies a caller's
    long-lived :class:`~repro.formats.codecexec.CodecPool` (or a plain
    executor with ``.map``); without one the process-lifetime shared pool
    of ``backend`` is reused -- bare calls no longer pay per-call pool
    construction.
    """
    _check_precision(precision, "requested")
    if keyframe_interval < 1:
        raise CodecError("keyframe interval must be >= 1")
    box9 = tuple(
        float(v)
        for v in (
            trajectory.box.reshape(9)
            if trajectory.box is not None
            else np.zeros(9, dtype=np.float32)
        )
    )
    nframes = trajectory.nframes
    spans = [
        (s, min(s + keyframe_interval, nframes))
        for s in range(0, nframes, keyframe_interval)
    ]
    nworkers = resolve_workers(workers, len(spans))
    pool = _resolve_pool(executor, backend, nworkers)
    if pool is not None and pool.backend == "process" and nworkers > 1:
        return process_encode(
            trajectory, spans, precision, level, box9, pool, nworkers
        )
    if nworkers <= 1:
        parts = [
            _encode_gof(trajectory, s, e, precision, level, box9) for s, e in spans
        ]
    else:
        encode = lambda span: _encode_gof(  # noqa: E731
            trajectory, span[0], span[1], precision, level, box9
        )
        if pool is not None:
            parts = pool.run(encode, [(span,) for span in spans])
        else:
            parts = list(executor.map(encode, spans))
    return b"".join(parts)


def iter_frame_infos(data: bytes) -> Iterator[XtcFrameInfo]:
    """Scan frame headers without decompressing payloads."""
    offset = 0
    index = 0
    n = len(data)
    while offset < n:
        if offset + _HEADER.size > n:
            raise CodecError(f"truncated frame header at offset {offset}")
        fields = _HEADER.unpack_from(data, offset)
        magic, natoms, step, time_ps = fields[0], fields[1], fields[2], fields[3]
        payload_nbytes = fields[-1]
        if magic != XTC_MAGIC:
            raise CodecError(f"bad magic {magic} at offset {offset}")
        if natoms <= 0:
            raise CodecError(f"non-positive atom count {natoms} in frame {index}")
        if offset + _HEADER.size + payload_nbytes > n:
            raise CodecError(f"truncated frame payload in frame {index}")
        yield XtcFrameInfo(
            index=index,
            offset=offset,
            header_nbytes=_HEADER.size,
            payload_nbytes=payload_nbytes,
            natoms=natoms,
            step=step,
            time_ps=time_ps,
            flags=fields[14],
            precision=fields[13],
        )
        offset += _HEADER.size + payload_nbytes
        index += 1


def count_frames(data: bytes) -> int:
    """Number of frames in an XTC stream (header scan only)."""
    return sum(1 for _ in iter_frame_infos(data))


class FrameIndex:
    """Random-access index over one XTC blob, built with a single header scan.

    Captures what :func:`iter_frame_infos` produces -- per-frame offsets and
    metadata, keyframe anchors, cumulative raw bytes -- so repeated
    :func:`decode_frame_range` calls (windowed streaming playback) and size
    queries (:meth:`~repro.core.decompressor.Decompressor.frame_count`,
    ``raw_nbytes``) stop rescanning every frame header: build once per blob,
    then each window costs only its own decode work.
    """

    __slots__ = ("infos", "keyframes", "_cum_raw")

    def __init__(self, infos: Sequence[XtcFrameInfo]):
        self.infos: Tuple[XtcFrameInfo, ...] = tuple(infos)
        if not self.infos:
            raise CodecError("cannot index an empty XTC stream")
        natoms = self.infos[0].natoms
        if any(i.natoms != natoms for i in self.infos):
            raise CodecError("frames disagree on atom count")
        self.keyframes = np.asarray(
            [i.index for i in self.infos if i.is_keyframe], dtype=np.int64
        )
        if self.keyframes.size == 0 or self.keyframes[0] != 0:
            raise CodecError("stream does not begin with a keyframe")
        self._cum_raw = np.cumsum(
            [i.raw_nbytes for i in self.infos], dtype=np.int64
        )

    @classmethod
    def build(cls, data: bytes) -> "FrameIndex":
        """Index ``data`` (one full header scan, no payload inflation)."""
        return cls(iter_frame_infos(data))

    def __len__(self) -> int:
        return len(self.infos)

    @property
    def nframes(self) -> int:
        return len(self.infos)

    @property
    def natoms(self) -> int:
        return self.infos[0].natoms

    @property
    def raw_nbytes(self) -> int:
        """Total decompressed payload size of the stream."""
        return int(self._cum_raw[-1])

    @property
    def stream_nbytes(self) -> int:
        """Serialized size of the indexed stream."""
        last = self.infos[-1]
        return last.offset + last.total_nbytes

    def anchor(self, frame: int) -> int:
        """Index of the nearest keyframe at or before ``frame``."""
        if not 0 <= frame < len(self.infos):
            raise CodecError(f"frame {frame} outside [0, {len(self.infos)})")
        pos = int(np.searchsorted(self.keyframes, frame, side="right")) - 1
        return int(self.keyframes[pos])

    def gofs(self) -> List[Tuple[int, int]]:
        """``(start, stop)`` frame spans of each independently decodable GOF."""
        bounds = self.keyframes.tolist() + [len(self.infos)]
        return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


def _header_box(data: bytes, offset: int) -> Optional[np.ndarray]:
    """Box matrix stored in the frame header at ``offset`` (None if zero)."""
    fields = _HEADER.unpack_from(data, offset)
    box_vals = np.asarray(fields[4:13], dtype=np.float32)
    return box_vals.reshape(3, 3) if np.any(box_vals) else None


def _decode_gof_ints(
    view: memoryview, infos: Sequence[XtcFrameInfo], natoms: int
) -> np.ndarray:
    """Decode one keyframe-anchored group of frames to absolute quantized
    ints, shape ``(nframes, natoms, 3)``.

    Every frame is checked first, in stream order (precision, I/P flags,
    origin CRC, stored CRC or inflate, block table, bytes per block).
    Then every ``(block, width)`` group of rows unpacks in one batched
    pass into a ``(nframes, natoms * 3)`` int64 matrix -- the I-frame's
    atom-axis deltas into row 0 after its origin, each P-frame's temporal
    deltas into its own row -- one un-zigzag covers the whole matrix, and
    prefix sums (along the atoms of row 0, then row-wise down the frames)
    reconstruct absolute ints.  Equivalent to the per-frame ``prev +
    delta`` chain: int64 addition is associative and overflow-free at
    these magnitudes.
    """
    nframes = len(infos)
    nvalues = natoms * 3
    ints = np.empty((nframes, nvalues), dtype=np.int64)
    frames = []
    for pos, info in enumerate(infos):
        _check_precision(info.precision, f"in frame {info.index}")
        begin = info.offset + info.header_nbytes
        payload = view[begin : begin + info.payload_nbytes]
        stored = bool(info.flags & _FLAG_STORED)
        if pos == 0:
            if info.flags & _FLAG_PFRAME:
                raise CodecError(
                    f"P-frame {info.index} encountered with no reference frame"
                )
            prefix = 12 + _STORED_CRC.size
            if len(payload) < prefix:
                raise CodecError(f"I-frame {info.index} payload missing origin")
            (recorded,) = _STORED_CRC.unpack_from(payload, 12)
            computed = zlib.crc32(payload[:12])
            if computed != recorded:
                raise CodecError(
                    f"I-frame {info.index} origin checksum mismatch "
                    f"(recorded {recorded:#010x}, computed {computed:#010x})"
                )
            ints[0, :3] = np.frombuffer(payload, dtype="<i4", count=3)
            body = _frame_body(payload[prefix:], stored, info.index)
            runs = _block_runs(body, nvalues - 3, 3, info.index)
        else:
            if not info.flags & _FLAG_PFRAME:
                raise CodecError(
                    f"I-frame {info.index} inside a group of frames"
                )
            body = _frame_body(payload, stored, info.index)
            runs = _block_runs(body, nvalues, 0, info.index)
        frames.append((pos, body, runs))
    udat = ints.view(np.uint64)
    _unpack_frames(frames, udat)
    _unzigzag(udat.reshape(-1)[3:])
    row0 = ints[0].reshape(natoms, 3)
    np.cumsum(row0, axis=0, out=row0)
    # Row-wise prefix sum: each add streams two contiguous rows, where
    # ``np.cumsum(axis=0)`` would walk columns with frame-sized strides.
    for pos in range(1, nframes):
        np.add(ints[pos], ints[pos - 1], out=ints[pos])
    return ints.reshape(nframes, natoms, 3)


def _ints_to_coords(
    ints: np.ndarray, infos: Sequence[XtcFrameInfo], out: np.ndarray
) -> None:
    """Dequantize a block of frames into float32 ``out``.

    Multiply by the float64 reciprocal instead of dividing: the float64
    intermediate can differ from true division by <= 1 ulp, which is far
    inside the float32 rounding the store performs and orders of magnitude
    below the 0.5-quantum margin the idempotent-recompression property
    needs (re-quantizing a decoded coordinate lands on the same integer).
    A single vectorized multiply when every frame shares one precision
    (the encoder always emits that), with a per-frame fallback for
    hand-crafted/fuzzed streams that disagree.
    """
    p0 = infos[0].precision
    if all(i.precision == p0 for i in infos):
        np.multiply(ints, 1.0 / p0, out=out, casting="unsafe")
        return
    for pos, info in enumerate(infos):
        np.multiply(ints[pos], 1.0 / info.precision, out=out[pos], casting="unsafe")


def _decode_run(
    data: bytes,
    infos: Sequence[XtcFrameInfo],
    out: np.ndarray,
    keep_from: int = 0,
    atom_indices: Optional[np.ndarray] = None,
) -> None:
    """Decode a contiguous keyframe-anchored run into ``out``.

    ``out`` is a ``(len(infos) - keep_from, natoms_kept, 3)`` float32 array
    (or view); frames before ``keep_from`` are decoded for prediction state
    but not materialized.  Each group of frames decodes through the batched
    :func:`_decode_gof_ints` kernel and dequantizes straight into its output
    slice -- no per-frame allocation, no final ``np.stack`` copy -- which
    also lets parallel GOF workers fill disjoint slices of one shared array.
    """
    view = memoryview(data)  # per-frame payload slices stay zero-copy
    natoms = infos[0].natoms if infos else 0
    n = len(infos)
    pos = 0
    while pos < n:
        end = pos + 1
        while end < n and infos[end].flags & _FLAG_PFRAME:
            end += 1
        ints = _decode_gof_ints(view, infos[pos:end], natoms)
        lo = max(keep_from - pos, 0)
        if pos + lo < end:
            kept = ints[lo:]
            if atom_indices is not None:
                # Select quantized ints *before* the float conversion --
                # identical values to selecting floats after, with the
                # multiply running only over kept atoms.
                kept = kept[:, atom_indices]
            dst = out[pos + lo - keep_from : end - keep_from]
            _ints_to_coords(kept, infos[pos + lo : end], dst)
        pos = end


def decode_xtc(
    data: bytes,
    atom_indices: Optional[np.ndarray] = None,
    workers: Optional[int] = None,
    index: Optional[FrameIndex] = None,
    executor=None,
    backend: str = "auto",
) -> Trajectory:
    """Decompress an XTC stream into a :class:`Trajectory`.

    ``atom_indices`` selects an atom subset *after* decompression -- the
    paper's point is precisely that this selection cannot happen before: the
    full frame is always inflated.  Passing indices merely avoids keeping the
    discarded atoms.

    ``workers`` (see :func:`resolve_workers`) decodes independent groups of
    frames concurrently on the ``backend`` worker pool (``"thread"``,
    ``"process"``, or ``"auto"``; process workers fill disjoint slices of a
    shared-memory coordinate array, returned zero-copy); results are
    reassembled in stream order, so the output is bit-identical to a serial
    decode.  ``index`` reuses an existing :class:`FrameIndex` instead of
    rescanning headers; ``executor`` reuses a caller's long-lived
    :class:`~repro.formats.codecexec.CodecPool` (the
    :class:`~repro.core.decompressor.Decompressor` holds one for its read
    path); without one the process-lifetime shared pool is reused.
    """
    idx = index if index is not None else FrameIndex.build(data)
    infos = idx.infos
    selection = np.asarray(atom_indices) if atom_indices is not None else None
    gofs = idx.gofs()
    nworkers = resolve_workers(workers, len(gofs))
    pool = _resolve_pool(executor, backend, nworkers)
    if pool is not None and pool.backend == "process" and nworkers > 1:
        coords = process_decode(data, infos, gofs, selection, pool, nworkers)
    else:
        natoms_kept = idx.natoms if selection is None else len(selection)
        coords = np.empty((len(infos), natoms_kept, 3), dtype=np.float32)
        if nworkers <= 1:
            _decode_run(data, infos, coords, atom_indices=selection)
        else:
            decode = lambda span: _decode_run(  # noqa: E731
                data,
                infos[span[0] : span[1]],
                coords[span[0] : span[1]],
                atom_indices=selection,
            )
            if pool is not None:
                pool.run(decode, [(span,) for span in gofs])
            else:
                list(executor.map(decode, gofs))
    return Trajectory(
        coords=coords,
        steps=[i.step for i in infos],
        times_ps=[i.time_ps for i in infos],
        box=_header_box(data, infos[0].offset),
    )


def decode_frame_range(
    data: bytes,
    start: int,
    stop: int,
    index: Optional[FrameIndex] = None,
    workers: Optional[int] = None,
    executor=None,
    backend: str = "auto",
) -> Trajectory:
    """Decode only frames ``[start, stop)`` of an XTC stream.

    Decoding rewinds to the nearest preceding keyframe (I-frame) and rolls
    forward -- at most ``keyframe_interval - 1`` extra frames of work, and
    only the requested frames are materialized.  This is the primitive the
    streaming playback layer uses to animate trajectories that do not fit
    in memory.  Passing ``index`` (a prebuilt :class:`FrameIndex`) skips the
    per-call header scan, making windowed playback O(window) instead of
    O(file) per window.  ``workers``/``executor``/``backend`` fan the
    window's groups of frames out exactly as in :func:`decode_xtc`.
    """
    try:
        start = operator.index(start)
        stop = operator.index(stop)
    except TypeError as exc:
        raise CodecError(f"frame range bounds must be integers: {exc}") from exc
    idx = index if index is not None else FrameIndex.build(data)
    nframes = len(idx)
    if not 0 <= start < stop <= nframes:
        raise CodecError(
            f"frame range [{start}, {stop}) outside [0, {nframes})"
        )
    anchor = idx.anchor(start)
    infos = idx.infos[anchor:stop]
    keep_from = start - anchor
    # Groups of frames overlapping the window, relative to the anchor.
    rel = [
        (s - anchor, min(e, stop) - anchor)
        for s, e in idx.gofs()
        if s < stop and e > anchor
    ]
    nworkers = resolve_workers(workers, len(rel))
    pool = _resolve_pool(executor, backend, nworkers)
    if pool is not None and pool.backend == "process" and nworkers > 1:
        coords = process_decode(
            data, infos, rel, None, pool, nworkers, keep_from=keep_from
        )
    else:
        coords = np.empty((stop - start, idx.natoms, 3), dtype=np.float32)
        if nworkers <= 1 or pool is None:
            _decode_run(data, infos, coords, keep_from=keep_from)
        else:

            def decode(span):
                f_lo, f_hi = span
                skip = max(keep_from - f_lo, 0)
                row0 = max(f_lo, keep_from) - keep_from
                _decode_run(
                    data,
                    infos[f_lo:f_hi],
                    coords[row0 : row0 + (f_hi - f_lo - skip)],
                    keep_from=skip,
                )

            pool.run(decode, [(span,) for span in rel])
    kept = idx.infos[start:stop]
    return Trajectory(
        coords=coords,
        steps=[i.step for i in kept],
        times_ps=[i.time_ps for i in kept],
        box=_header_box(data, idx.infos[start].offset),
    )


# ---------------------------------------------------------------------------
# Raw (uncompressed) subset container -- what ADA stores on its backends.
# ---------------------------------------------------------------------------


def encode_raw(trajectory: Trajectory) -> bytes:
    """Serialize a trajectory as uncompressed float32 with a tiny header."""
    header = _RAW_HEADER.pack(
        RAW_MAGIC, trajectory.natoms, trajectory.nframes, 0, 0.0
    )
    steps = trajectory.steps.astype("<i8").tobytes()
    times = trajectory.times_ps.astype("<f8").tobytes()
    payload = np.ascontiguousarray(trajectory.coords, dtype="<f4").tobytes()
    return header + steps + times + payload


def _decode_one_raw(data: bytes, offset: int) -> "tuple[Trajectory, int]":
    """Decode one raw container starting at ``offset``; returns the
    trajectory and the offset just past it.

    Zero-copy: the returned trajectory's arrays are (read-only) views over
    ``data``.  The single-container case -- by far the common one -- thus
    costs no memmove at all; multi-chunk PLFS subsets copy exactly once,
    when :func:`decode_raw` splices the views together.
    """
    if len(data) - offset < _RAW_HEADER.size:
        raise CodecError("raw container shorter than its header")
    magic, natoms, nframes, _, _ = _RAW_HEADER.unpack_from(data, offset)
    if magic != RAW_MAGIC:
        raise CodecError(f"bad raw-container magic {magic}")
    off = offset + _RAW_HEADER.size
    steps = np.frombuffer(data, dtype="<i8", count=nframes, offset=off)
    off += nframes * 8
    times = np.frombuffer(data, dtype="<f8", count=nframes, offset=off)
    off += nframes * 8
    payload = nframes * natoms * BYTES_PER_COORD
    if len(data) - off < payload:
        raise CodecError(
            f"raw payload is {len(data) - off} bytes, expected {payload}"
        )
    coords = np.frombuffer(data, dtype="<f4", count=nframes * natoms * 3,
                           offset=off).reshape(nframes, natoms, 3)
    traj = Trajectory(coords=coords, steps=steps, times_ps=times)
    return traj, off + payload


def decode_raw(data: bytes) -> Trajectory:
    """Inverse of :func:`encode_raw` (exact round trip, no loss).

    Accepts a *concatenation* of raw containers over the same atom set --
    the shape of a multi-chunk PLFS subset -- and splices them frame-wise.
    A single container decodes to zero-copy views over ``data``; multiple
    containers are spliced with one copy.
    """
    parts = []
    offset = 0
    while offset < len(data):
        traj, offset = _decode_one_raw(data, offset)
        parts.append(traj)
    if not parts:
        raise CodecError("empty raw stream")
    if len(parts) == 1:
        return parts[0]
    return Trajectory.concatenate(parts)


def raw_container_nbytes(natoms: int, nframes: int) -> int:
    """Exact serialized size of a raw container with these dimensions."""
    return _RAW_HEADER.size + nframes * 16 + nframes * natoms * BYTES_PER_COORD
