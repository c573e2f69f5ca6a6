"""Byte-level wire encoding of Cheetah packets and ACKs.

Layout (big-endian, matching Figure 4's variable-length header):

Data packet::

    0        2        6      7      8                8 + 8n
    +--------+--------+------+------+----------------+
    |  fid   |  seq   |  n   |flags | values (n x 8B)|
    +--------+--------+------+------+----------------+

ACK::

    0        2        6      7
    +--------+--------+------+
    |  fid   |  seq   | kind |
    +--------+--------+------+

These functions are exercised by the reliability tests to ensure the
protocol survives a real serialize/deserialize round trip, not just
in-memory object passing.

Two codec tiers share this layout:

* **Per-packet** (``encode_packet`` / ``decode_packet`` /
  ``decode_header`` / ``decode_values``): one cached ``struct.Struct``
  call per packet.  The format objects are interned per value count
  (``n`` is a single byte, so the cache is bounded at 256 entries) —
  building ``f">{n}Q"`` strings on every call used to dominate the
  codec profile.
* **Column** (``decode_header_fields``): a batch's headers are
  joined into one buffer and decoded with a single ``np.frombuffer``
  — possible because the 8-byte header keeps every frame a multiple
  of 8 bytes, so each packet's words land 8-aligned in the join — and
  returned as four columns.  This is the PISA-parser analogy taken
  literally: one wide parse over the arrival vector instead of a
  Python loop of ``struct`` calls.  Every malformed frame still raises
  :class:`WireFormatError`, and the fields are bit-identical to the
  per-packet tier (property-tested).
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple

import numpy as np

from repro.net.packet import Ack, AckKind, CheetahPacket

_HEADER = struct.Struct(">HIBB")
_ACK = struct.Struct(">HIB")

_ACK_KIND_CODE = {AckKind.MASTER: 0, AckKind.SWITCH: 1}
_ACK_KIND_FROM = {code: kind for kind, code in _ACK_KIND_CODE.items()}

#: Interned value-payload formats, keyed by value count.  ``n`` rides
#: in one header byte, so the cache is bounded at 256 entries; entries
#: are created on first use (a long-lived process converges on the
#: handful of batch shapes its queries actually emit).
_VALUE_STRUCTS: dict = {}

#: Batches at least this large take the ``np.frombuffer`` column path;
#: smaller ones loop the cached per-packet structs (the numpy fixed
#: cost beats the loop only once there is real width to amortize it).
_BULK_MIN_BATCH = 16


def _value_struct(n: int) -> struct.Struct:
    """The cached ``>{n}Q`` format for an ``n``-value payload."""
    cached = _VALUE_STRUCTS.get(n)
    if cached is None:
        if not 0 <= n <= 0xFF:
            raise WireFormatError(
                f"value count must fit the 1-byte header field, got {n}")
        cached = _VALUE_STRUCTS[n] = struct.Struct(f">{n}Q")
    return cached


class WireFormatError(ValueError):
    """Malformed bytes on the wire."""


def encode_packet(packet: CheetahPacket) -> bytes:
    """Serialize a data packet.

    The values are packed with one cached ``struct.Struct`` call
    (``>nQ``) — this is the per-packet hot path of the cluster
    simulation, and one call per packet beats one call per value by a
    wide margin.
    """
    values = packet.values
    header = _HEADER.pack(packet.fid, packet.seq, len(values),
                          packet.flags)
    if not values:
        return header
    return header + _value_struct(len(values)).pack(*values)


def decode_packet(data: bytes) -> CheetahPacket:
    """Parse a data packet; raises :class:`WireFormatError` on junk."""
    if len(data) < _HEADER.size:
        raise WireFormatError(
            f"packet too short: {len(data)} bytes < header {_HEADER.size}"
        )
    fid, seq, n, flags = _HEADER.unpack_from(data)
    expected = _HEADER.size + 8 * n
    if len(data) != expected:
        raise WireFormatError(
            f"length mismatch: header says {n} values ({expected} bytes), "
            f"got {len(data)} bytes"
        )
    values = (_value_struct(n).unpack_from(data, _HEADER.size)
              if n else ())
    return CheetahPacket(fid=fid, seq=seq, values=values, flags=flags)


def decode_header(data: bytes):
    """Header-only parse: ``(fid, seq, n_values, flags)``.

    The switch fast path: sequence classification and forwarding need
    only the header — exactly like a PISA parser, which extracts headers
    and leaves the payload opaque.  The values of the ~90%-majority
    retransmitted/forwarded packets are never parsed; callers fetch them
    lazily with :func:`decode_values` for the packets that actually hit
    the prune logic.

    The full frame length is validated here even though only the header
    is parsed: a frame accepted by the fast path must be decodable by
    :func:`decode_values` later — the two validations are deliberately
    the same predicate as :func:`decode_packet`'s, so header-then-values
    and whole-packet parses accept exactly the same byte strings
    (property-tested in ``tests/test_wire_codec.py``).
    """
    if len(data) < _HEADER.size:
        raise WireFormatError(
            f"packet too short: {len(data)} bytes < header {_HEADER.size}"
        )
    fid, seq, n, flags = _HEADER.unpack_from(data)
    if len(data) != _HEADER.size + 8 * n:
        raise WireFormatError(
            f"length mismatch: header says {n} values, got "
            f"{len(data)} bytes"
        )
    return fid, seq, n, flags


def decode_values(data: bytes, n: int):
    """Parse the ``n`` 64-bit values behind a header-checked packet.

    Bounds-checked: a buffer shorter than the claimed ``n`` values
    raises :class:`WireFormatError` (never a raw ``struct.error`` —
    callers that pass an unvalidated ``n`` still get the documented
    taxonomy).
    """
    if not n:
        return ()
    if n < 0 or len(data) < _HEADER.size + 8 * n:
        raise WireFormatError(
            f"value payload too short: header claims {n} values "
            f"({_HEADER.size + 8 * n} bytes), got {len(data)} bytes"
        )
    return _value_struct(n).unpack_from(data, _HEADER.size)


# ---------------------------------------------------------------------------
# Column (vectorized) header decode
# ---------------------------------------------------------------------------

def _numpy_header_fields(words, starts):
    """Vectorized header-field split of the frames' first words."""
    first = words[starts]
    fids = first >> np.uint64(48)
    seqs = (first >> np.uint64(16)) & np.uint64(0xFFFFFFFF)
    ns = (first >> np.uint64(8)) & np.uint64(0xFF)
    flags = first & np.uint64(0xFF)
    return fids, seqs, ns, flags


def _bulk_words(datas: Sequence[bytes]):
    """Join a batch of frames into one word array.

    Returns ``(words, starts, lens)`` where ``words`` is the uint64
    view of the joined buffer, ``starts[i]`` the word index of frame
    ``i``'s header word, and ``lens[i]`` its byte length.  Raises
    :class:`WireFormatError` when any frame is short of a header or not
    a whole number of 64-bit words (both imply the per-frame validation
    would fail too, so no malformed frame sneaks past the column tier).
    """
    lens = np.fromiter((len(d) for d in datas), dtype=np.int64,
                       count=len(datas))
    if lens.size and int(lens.min()) < _HEADER.size:
        bad = int(np.argmin(lens))
        raise WireFormatError(
            f"packet too short: {int(lens[bad])} bytes < header "
            f"{_HEADER.size}"
        )
    if lens.size and int((lens % 8 != 0).sum()):
        bad = int(np.argmax(lens % 8 != 0))
        raise WireFormatError(
            f"length mismatch: frame {bad} is {int(lens[bad])} bytes, "
            f"not a whole number of 64-bit words"
        )
    joined = b"".join(datas)
    # The 8-byte header keeps every frame a multiple of 8 bytes, so the
    # join is word-aligned: one frombuffer covers headers and values.
    words = np.frombuffer(joined, dtype=">u8").astype(np.uint64,
                                                      copy=False)
    starts = np.empty(lens.size, dtype=np.int64)
    if lens.size:
        starts[0] = 0
        np.cumsum(lens[:-1] // 8, out=starts[1:])
    return words, starts, lens


def decode_header_fields(
        datas: Sequence[bytes]) -> Tuple[List[int], List[int],
                                         List[int], List[int]]:
    """Column-oriented batch header decode: ``(fids, seqs, ns, flags)``.

    The header fast path for a batch of frames: returning four
    parallel columns instead of one tuple per frame skips the
    per-packet tuple materialization, which is what dominates a
    batched header decode.  Validation is identical to
    :func:`decode_header` per frame — any malformed frame raises
    :class:`WireFormatError` — and ``zip(*decode_header_fields(datas))``
    equals ``[decode_header(d) for d in datas]`` (property-tested).
    Small batches fall back to the cached per-packet structs.
    """
    if len(datas) < _BULK_MIN_BATCH:
        if not datas:
            return [], [], [], []
        fids, seqs, ns, flags = zip(*(decode_header(d) for d in datas))
        return list(fids), list(seqs), list(ns), list(flags)
    words, starts, lens = _bulk_words(datas)
    fids, seqs, ns, flags = _numpy_header_fields(words, starts)
    expected = 8 * ns.astype(np.int64) + _HEADER.size
    if bool((expected != lens).any()):
        bad = int(np.argmax(expected != lens))
        raise WireFormatError(
            f"length mismatch: header says {int(ns[bad])} values, got "
            f"{int(lens[bad])} bytes"
        )
    return fids.tolist(), seqs.tolist(), ns.tolist(), flags.tolist()


def encode_ack(ack: Ack) -> bytes:
    """Serialize an ACK."""
    return _ACK.pack(ack.fid, ack.seq, _ACK_KIND_CODE[ack.kind])


def decode_ack(data: bytes) -> Ack:
    """Parse an ACK."""
    if len(data) != _ACK.size:
        raise WireFormatError(
            f"ACK must be {_ACK.size} bytes, got {len(data)}"
        )
    fid, seq, kind_code = _ACK.unpack(data)
    try:
        kind = _ACK_KIND_FROM[kind_code]
    except KeyError:
        raise WireFormatError(f"unknown ACK kind code {kind_code}") from None
    return Ack(fid=fid, seq=seq, kind=kind)
