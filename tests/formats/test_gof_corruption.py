"""Every corruption of a multi-row batch fails typed or changes nothing.

The hypothesis bit-flip fuzz samples a ``keyframe_interval=2`` stream,
whose groups of frames never hold more than one P-frame.  Here the stream
has ten frames per group, so P-frames share a batched unpack; every
payload byte gets a flipped bit and the stream is cut at every frame
boundary.  Each mutant must decode to the original frames or raise
:class:`CodecError` -- never a different array, never another exception.
"""

import struct
import zlib

import numpy as np
import pytest

from repro.errors import CodecError
from repro.formats import Trajectory, decode_xtc, encode_xtc
from repro.formats.xtc import (
    _FLAG_STORED,
    _HEADER,
    _PAYLOAD_HEAD,
    _STORED_CRC,
    decode_frame_range,
    iter_frame_infos,
)


def _stream():
    """20 frames of 60 atoms in two groups of ten: thermal-noise P-frames
    ship stored, rigid glides deflate."""
    rng = np.random.default_rng(11)
    coords = np.empty((20, 60, 3))
    coords[0] = rng.uniform(-20, 20, size=(60, 3))
    for i in range(1, 20):
        step = 0.37 if i % 4 == 0 else rng.normal(scale=0.3, size=(60, 3))
        coords[i] = coords[i - 1] + step
    blob = encode_xtc(
        Trajectory(coords=coords.astype(np.float32)), keyframe_interval=10
    )
    return blob, decode_xtc(blob).coords, list(iter_frame_infos(blob))


BLOB, ORIGINAL, INFOS = _stream()


def test_stream_mixes_stored_and_deflated_p_frames():
    pflags = [i.flags for i in INFOS if not i.is_keyframe]
    assert any(f & _FLAG_STORED for f in pflags)
    assert any(not f & _FLAG_STORED for f in pflags)
    assert sum(i.is_keyframe for i in INFOS) == 2
    # P-frames of one group share a width: they unpack as one batch.
    widths = []
    for info in INFOS[1:10]:
        begin = info.offset + info.header_nbytes
        payload = BLOB[begin : begin + info.payload_nbytes]
        body = payload if info.flags & _FLAG_STORED else zlib.decompress(payload)
        widths.append(body[_PAYLOAD_HEAD.size])
    assert max(widths.count(w) for w in widths) > 1


def test_every_payload_bit_flip_decodes_original_or_raises():
    raised = 0
    for info in INFOS:
        begin = info.offset + info.header_nbytes
        for pos in range(begin, begin + info.payload_nbytes):
            mutant = bytearray(BLOB)
            mutant[pos] ^= 1 << (pos % 8)
            try:
                coords = decode_xtc(bytes(mutant)).coords
            except CodecError:
                raised += 1
                continue
            assert np.array_equal(coords, ORIGINAL), (info.index, pos)
    assert raised > 0


def test_truncation_at_every_frame_boundary():
    for info in INFOS:
        # Cut at the boundary: a shorter, valid stream of the first frames.
        if info.index == 0:
            with pytest.raises(CodecError):
                decode_xtc(BLOB[: info.offset])
        else:
            coords = decode_xtc(BLOB[: info.offset]).coords
            assert np.array_equal(coords, ORIGINAL[: info.index])
        # Cut one byte into the frame, or one byte short of its end.
        for cut in (info.offset + 1, info.offset + info.total_nbytes - 1):
            with pytest.raises(CodecError):
                decode_xtc(BLOB[:cut])
    assert np.array_equal(decode_xtc(BLOB).coords, ORIGINAL)


def _stored_p_frame(skip=0):
    return [i for i in INFOS if i.flags & _FLAG_STORED][skip]


def test_checksum_error_names_frame_and_both_crcs():
    info = _stored_p_frame(1)
    begin = info.offset + info.header_nbytes
    mutant = bytearray(BLOB)
    mutant[begin + _PAYLOAD_HEAD.size + 3] ^= 0x10
    body = bytes(mutant[begin : begin + info.payload_nbytes - _STORED_CRC.size])
    (recorded,) = _STORED_CRC.unpack_from(
        mutant, begin + info.payload_nbytes - _STORED_CRC.size
    )
    with pytest.raises(CodecError, match="checksum mismatch") as exc:
        decode_xtc(bytes(mutant))
    message = str(exc.value)
    assert f"frame {info.index}:" in message
    assert f"{recorded:#010x}" in message
    assert f"{zlib.crc32(body):#010x}" in message
    # The windowed decode reports the same frame.
    with pytest.raises(CodecError, match=f"frame {info.index}:"):
        decode_frame_range(bytes(mutant), info.index, info.index + 1)


def test_short_bitstream_error_names_frame_and_byte_counts():
    """A stored body cut short (with a valid CRC) reports the width and
    the bytes the block needs against the bytes left."""
    info = _stored_p_frame(0)
    begin = info.offset + info.header_nbytes
    body = BLOB[begin : begin + info.payload_nbytes - _STORED_CRC.size]
    short = body[:-5]
    payload = short + _STORED_CRC.pack(zlib.crc32(short))
    fields = list(_HEADER.unpack_from(BLOB, info.offset))
    fields[-1] = len(payload)
    mutant = (
        BLOB[: info.offset]
        + _HEADER.pack(*fields)
        + payload
        + BLOB[begin + info.payload_nbytes :]
    )
    nblocks, count = _PAYLOAD_HEAD.unpack_from(body, 0)
    width = body[_PAYLOAD_HEAD.size]
    needed = (count * width + 7) // 8
    available = len(short) - _PAYLOAD_HEAD.size - nblocks
    with pytest.raises(CodecError, match="truncated packed bitstream") as exc:
        decode_xtc(mutant)
    message = str(exc.value)
    assert f"frame {info.index}:" in message
    assert f"width {width} needs {needed} bytes, {available} available" in message


def test_value_count_error_names_frame_and_both_counts():
    info = _stored_p_frame(0)
    begin = info.offset + info.header_nbytes
    body = bytearray(BLOB[begin : begin + info.payload_nbytes - _STORED_CRC.size])
    nblocks, count = _PAYLOAD_HEAD.unpack_from(body, 0)
    struct.pack_into("<HI", body, 0, nblocks, count + 1)
    payload = bytes(body) + _STORED_CRC.pack(zlib.crc32(bytes(body)))
    mutant = BLOB[:begin] + payload + BLOB[begin + info.payload_nbytes :]
    with pytest.raises(CodecError, match="payload holds") as exc:
        decode_xtc(mutant)
    assert (
        f"frame {info.index}: payload holds {count + 1} values, "
        f"expected {count}" in str(exc.value)
    )
