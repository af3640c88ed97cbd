"""The row-batched entropy stage reproduces the per-frame codec exactly.

The reference below is the per-frame codec the batched kernels replaced:
every frame runs its own width scan, bit-pack and deflate on encode, and
its own inflate, unpack and un-zigzag on decode.  Its bit-packing is the
bit-matrix ground truth of ``test_parallel_codec`` (and its inverse), so
it shares no kernel with the code under test.  Encoded bytes must be
equal and decoded arrays ``array_equal`` -- not merely close.
"""

import struct
import zlib

import numpy as np
import pytest

from repro.formats import Trajectory, decode_xtc, encode_xtc
from repro.formats.xtc import (
    _BLOCK_VALUES,
    _FLAG_PFRAME,
    _FLAG_STORED,
    _HEADER,
    _PAYLOAD_HEAD,
    _STORED_CRC,
    XTC_MAGIC,
    FrameIndex,
    _decode_gof_ints,
    _encode_rows,
    _pack_rows,
    _quantize,
    _unpack_rows,
    _zigzag,
    decode_frame_range,
    iter_frame_infos,
)

from .test_parallel_codec import _reference_pack


# -- the per-frame reference codec --------------------------------------------


def _reference_unpack(data, count, nbits):
    """Bit-matrix inverse of ``_reference_pack``."""
    if nbits == 0 or count == 0:
        return np.zeros(count, dtype=np.uint64)
    raw = np.frombuffer(bytes(data), dtype=np.uint8)
    bits = np.unpackbits(raw)[: count * nbits].reshape(count, nbits)
    out = np.zeros(count, dtype=np.uint64)
    for k in range(nbits):
        out = (out << np.uint64(1)) | bits[:, k].astype(np.uint64)
    return out


def _reference_unzigzag(values):
    v = values.astype(np.uint64)
    return ((v >> np.uint64(1)) ^ (np.uint64(0) - (v & np.uint64(1)))).view(
        np.int64
    )


def _reference_entropy(flat, level, allow_stored):
    """One frame's entropy stage: width per block, pack, deflate or store."""
    nvalues = flat.size
    nblocks = (nvalues + _BLOCK_VALUES - 1) // _BLOCK_VALUES
    widths = bytes(
        int(flat[b * _BLOCK_VALUES : (b + 1) * _BLOCK_VALUES].max()).bit_length()
        for b in range(nblocks)
    )
    packed = b"".join(
        _reference_pack(flat[b * _BLOCK_VALUES : (b + 1) * _BLOCK_VALUES], w)
        for b, w in enumerate(widths)
    )
    body = _PAYLOAD_HEAD.pack(nblocks, nvalues) + widths + packed
    comp = zlib.compress(body, level)
    if not allow_stored or len(comp) < len(body) - len(body) // 16:
        return 0, comp
    return _FLAG_STORED, body + _STORED_CRC.pack(zlib.crc32(body))


def _reference_encode(traj, precision=100.0, level=6, keyframe_interval=100):
    """The per-frame encode loop: one entropy stage call per frame."""
    box9 = (0.0,) * 9
    chunks = []
    prev = None
    for i in range(traj.nframes):
        ints = _quantize(traj.coords[i], precision)
        if i % keyframe_interval == 0:
            origin = ints[0:1].astype("<i4").tobytes()
            flags, block = _reference_entropy(
                _zigzag(np.diff(ints, axis=0).ravel()), level, False
            )
            payload = origin + _STORED_CRC.pack(zlib.crc32(origin)) + block
        else:
            deltas = ints.astype(np.int64) - prev.astype(np.int64)
            flags, payload = _reference_entropy(
                _zigzag(deltas.ravel()), level, True
            )
            flags |= _FLAG_PFRAME
        chunks.append(
            _HEADER.pack(
                XTC_MAGIC, traj.natoms, int(traj.steps[i]),
                float(traj.times_ps[i]), *box9, float(precision), flags,
                len(payload),
            )
        )
        chunks.append(payload)
        prev = ints
    return b"".join(chunks)


def _reference_body(payload, stored, count):
    """One frame's delta block: check/inflate, then unpack block by block."""
    if stored:
        raw = bytes(payload[: -_STORED_CRC.size])
        assert zlib.crc32(raw) == struct.unpack("<I", payload[-4:])[0]
    else:
        raw = zlib.decompress(payload)
    nblocks, found = _PAYLOAD_HEAD.unpack_from(raw, 0)
    assert found == count
    offset = _PAYLOAD_HEAD.size
    widths = raw[offset : offset + nblocks]
    offset += nblocks
    out = np.empty(count, dtype=np.uint64)
    for b, w in enumerate(widths):
        lo, hi = b * _BLOCK_VALUES, min((b + 1) * _BLOCK_VALUES, count)
        nbytes = ((hi - lo) * w + 7) // 8
        out[lo:hi] = _reference_unpack(raw[offset : offset + nbytes], hi - lo, w)
        offset += nbytes
    return _reference_unzigzag(out)


def _reference_decode_ints(blob):
    """The per-frame decode loop: absolute quantized ints per frame."""
    frames = []
    prev = None
    for info in iter_frame_infos(blob):
        begin = info.offset + info.header_nbytes
        payload = blob[begin : begin + info.payload_nbytes]
        stored = bool(info.flags & _FLAG_STORED)
        n = info.natoms
        if info.flags & _FLAG_PFRAME:
            ints = prev + _reference_body(payload, stored, n * 3).reshape(n, 3)
        else:
            origin = np.frombuffer(payload, dtype="<i4", count=3).astype(np.int64)
            deltas = _reference_body(payload[16:], stored, (n - 1) * 3)
            ints = np.empty((n, 3), dtype=np.int64)
            ints[0] = origin
            np.cumsum(deltas.reshape(n - 1, 3), axis=0, out=ints[1:])
            ints[1:] += origin
        frames.append(ints)
        prev = ints
    return np.stack(frames)


def _reference_decode(blob):
    infos = list(iter_frame_infos(blob))
    ints = _reference_decode_ints(blob)
    out = np.empty(ints.shape, dtype=np.float32)
    np.multiply(ints, 1.0 / infos[0].precision, out=out, casting="unsafe")
    return out


# -- trajectories -------------------------------------------------------------


def _traj(nframes, natoms, seed=0, noise=0.3, spikes=(), glide=()):
    """Random walk; ``spikes`` frames get large kicks on a few atoms (a
    wider block than their neighbours), ``glide`` frames translate every
    atom rigidly (a repetitive, deflatable body)."""
    rng = np.random.default_rng(seed)
    coords = np.empty((nframes, natoms, 3))
    coords[0] = rng.uniform(-40, 40, size=(natoms, 3))
    for i in range(1, nframes):
        if i in glide:
            coords[i] = coords[i - 1] + 0.37
            continue
        coords[i] = coords[i - 1] + rng.normal(scale=noise, size=(natoms, 3))
        if i in spikes:
            coords[i, :7] += rng.normal(scale=60.0, size=(7, 3))
    return Trajectory(coords=coords.astype(np.float32))


CASES = {
    # GOF lengths 1, 2, 3, 10 and 25 under keyframe_interval 100.
    "gof1": (_traj(1, 50), 100),
    "gof2": (_traj(2, 50, seed=1), 100),
    "gof3": (_traj(3, 50, seed=2), 100),
    "gof10": (_traj(10, 120, seed=3, spikes=(4,), glide=(7,)), 100),
    "gof25": (_traj(25, 819, seed=4, noise=0.04, spikes=(3, 11)), 100),
    # keyframe_interval 1 and 4 over the same frames.
    "kfi1": (_traj(12, 200, seed=5, spikes=(6,)), 1),
    "kfi4": (_traj(13, 200, seed=5, spikes=(6,), glide=(9,)), 4),
    # Frames of more than one block (> 2731 atoms), mixed widths per block.
    "two_blocks": (_traj(6, 2800, seed=6, spikes=(2,), glide=(4,)), 100),
    "three_blocks": (_traj(5, 6000, seed=7, noise=1.5, spikes=(1, 3)), 4),
    # Single atom: the I-frame has no intra-frame deltas at all.
    "one_atom": (_traj(5, 1, seed=8), 100),
    # Rigid frames: width-0 P-frame bodies.
    "still": (Trajectory(coords=np.zeros((4, 30, 3), dtype=np.float32)), 100),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_encode_bytes_match_per_frame_reference(name):
    traj, kfi = CASES[name]
    assert encode_xtc(traj, keyframe_interval=kfi) == _reference_encode(
        traj, keyframe_interval=kfi
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_decode_arrays_match_per_frame_reference(name):
    traj, kfi = CASES[name]
    blob = _reference_encode(traj, keyframe_interval=kfi)
    expected = _reference_decode(blob)
    assert np.array_equal(decode_xtc(blob).coords, expected)
    n = traj.nframes
    for start, stop in {(0, n), (n // 2, n), (max(n - 2, 0), n), (0, 1)}:
        got = decode_frame_range(blob, start, stop).coords
        assert np.array_equal(got, expected[start:stop]), (start, stop)


def test_cases_cover_mixed_widths_and_both_payload_kinds():
    """Guard the corpus: a GOF mixes stored and deflated P-frames, one
    block carries different widths across rows, and a group of rows shares
    a width (the batched path)."""
    traj, kfi = CASES["gof10"]
    blob = encode_xtc(traj, keyframe_interval=kfi)
    pflags = [i.flags for i in iter_frame_infos(blob) if not i.is_keyframe]
    assert any(f & _FLAG_STORED for f in pflags)
    assert any(not f & _FLAG_STORED for f in pflags)
    q = _quantize(traj.coords, 100.0).reshape(traj.nframes, -1)
    widths = [
        int(row.max()).bit_length()
        for row in _zigzag(np.diff(q.astype(np.int64), axis=0))
    ]
    assert len(set(widths)) > 1
    assert max(widths.count(w) for w in widths) > 1


# -- every word width, through the GOF kernels --------------------------------


def _synthetic_gof(rows_widths, count, seed):
    """A zigzagged ``(rows, count)`` matrix whose block ``b`` of row ``r``
    is exactly ``rows_widths[r][b]`` bits wide."""
    rng = np.random.default_rng(seed)
    zz = np.zeros((len(rows_widths), count), dtype=np.uint64)
    for r, widths in enumerate(rows_widths):
        for b, w in enumerate(widths):
            lo, hi = b * _BLOCK_VALUES, min((b + 1) * _BLOCK_VALUES, count)
            if w == 0:
                continue
            top = np.uint64(1) << np.uint64(w - 1)
            vals = rng.integers(0, 2**63, size=hi - lo, dtype=np.uint64)
            vals = vals * np.uint64(2) + rng.integers(0, 2, size=hi - lo,
                                                      dtype=np.uint64)
            if w < 64:
                vals &= (top << np.uint64(1)) - np.uint64(1)
            vals[rng.integers(0, hi - lo)] |= top
            zz[r, lo:hi] = vals
    return zz


def _gof_stream(zz_iframe, zz_prows, natoms):
    """Serialize an I-frame plus P-frames from zigzagged delta rows with
    the reference entropy stage (precision 1: ints are the raw sums)."""
    chunks = []
    rows = [(0, zz_iframe)] + [(_FLAG_PFRAME, r) for r in zz_prows]
    for i, (kind, row) in enumerate(rows):
        flags, payload = _reference_entropy(row, 6, kind == _FLAG_PFRAME)
        if kind == 0:
            origin = struct.pack("<3i", 5, -7, 11)
            payload = origin + _STORED_CRC.pack(zlib.crc32(origin)) + payload
        chunks.append(
            _HEADER.pack(XTC_MAGIC, natoms, i, float(i), *(0.0,) * 9, 1.0,
                         kind | flags, len(payload))
        )
        chunks.append(payload)
    return b"".join(chunks)


@pytest.mark.parametrize("width", list(range(0, 65)))
def test_every_width_encodes_and_decodes_like_reference(width):
    """Widths 0-64 in one GOF, next to a neighbour width (so the batch has
    two groups), in single- and multi-block frames."""
    other = (width + 7) % 65
    for natoms in (37, 2800):
        count = natoms * 3
        nblocks = (count + _BLOCK_VALUES - 1) // _BLOCK_VALUES
        rows_widths = [[width] * nblocks, [other] * nblocks, [width] * nblocks,
                       [width, other][: nblocks] + [width] * (nblocks - 2)]
        zz = _synthetic_gof(rows_widths, count, seed=width)
        coded = _encode_rows(zz, 6, True)
        for row, (flags, payload) in zip(zz, coded):
            assert (flags, payload) == _reference_entropy(row, 6, True)
        izz = _synthetic_gof([[width] * ((count - 3 + _BLOCK_VALUES - 1)
                                         // _BLOCK_VALUES)],
                             count - 3, seed=width + 100)[0]
        blob = _gof_stream(izz, list(zz), natoms)
        infos = FrameIndex.build(blob).infos
        got = _decode_gof_ints(memoryview(blob), infos, natoms)
        assert np.array_equal(got, _reference_decode_ints(blob))


@pytest.mark.parametrize("width", list(range(0, 65)))
def test_batched_pack_rows_match_reference_pack(width):
    rng = np.random.default_rng(1000 + width)
    for count in (1, 7, 8, 9, 63, 64, 65, 200, 2457):
        hi = 2 ** min(width, 63) if width else 1
        vals = rng.integers(0, hi, size=(5, count), dtype=np.uint64)
        if width == 64:
            vals = vals * np.uint64(2) + np.uint64(1)
        if width == 0:
            vals[:] = 0
        packed = _pack_rows(vals, width)
        for r in range(5):
            assert packed[r].tobytes() == _reference_pack(vals[r], width), (
                width, count, r
            )
        flat = np.frombuffer(packed.tobytes(), dtype=np.uint8)
        assert np.array_equal(_unpack_rows(flat, 5, count, width), vals)


def test_iframe_deltas_do_not_wrap_int32():
    """Neighbouring atoms more than 2**31 quanta apart: the per-frame
    reference took the I-frame's atom-axis deltas in int32, which wrapped
    and decoded the second atom 4.3e7 A away; the batched encoder diffs in
    int64.  The only inputs whose bytes differ from the reference are
    these, which the reference corrupted."""
    coords = np.array([[[-2.0e7, 1.0, 0.0], [2.0e7, -1.0, 0.5]]],
                      dtype=np.float32)
    traj = Trajectory(coords=coords)
    decoded = decode_xtc(encode_xtc(traj)).coords
    assert np.array_equal(decoded, coords)
    assert not np.array_equal(_reference_decode(_reference_encode(traj)), coords)
