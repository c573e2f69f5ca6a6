"""Wire-codec regression + property suite (PR 9).

Covers the codec error taxonomy (malformed bytes raise only
``WireFormatError``, never a raw ``struct.error``), the interned
``struct.Struct`` cache, and the bit-identity of the column
``decode_header_fields`` tier against the per-packet tier.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.packet import Ack, AckKind, CheetahPacket
from repro.net.wire import (
    _BULK_MIN_BATCH,
    WireFormatError,
    decode_header,
    decode_header_fields,
    decode_packet,
    decode_values,
    encode_packet,
)

values64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
packets = st.builds(
    CheetahPacket,
    fid=st.integers(0, (1 << 16) - 1),
    seq=st.integers(0, (1 << 32) - 1),
    values=st.lists(values64, max_size=8).map(tuple),
    flags=st.integers(0, 255),
)


def _packet(n_values: int, fid: int = 7, seq: int = 3) -> CheetahPacket:
    return CheetahPacket(fid=fid, seq=seq,
                         values=tuple(range(n_values)), flags=1)


class TestErrorTaxonomy:
    """Malformed input raises WireFormatError — the documented taxonomy
    — on every decode entry point (regression: ``decode_values`` used
    to leak ``struct.error`` on short buffers)."""

    def test_decode_values_short_buffer_raises_wire_error(self):
        frame = encode_packet(_packet(4))
        # Claim more values than the buffer holds: previously this
        # leaked struct.error out of struct.unpack_from.
        with pytest.raises(WireFormatError):
            decode_values(frame, 5)

    def test_decode_values_truncated_payload(self):
        frame = encode_packet(_packet(4))
        with pytest.raises(WireFormatError):
            decode_values(frame[:-1], 4)

    def test_decode_values_negative_count(self):
        frame = encode_packet(_packet(4))
        with pytest.raises(WireFormatError):
            decode_values(frame, -1)

    @pytest.mark.parametrize("junk", [
        b"",
        b"\x01",
        b"\xff" * 7,            # one byte short of a header
        b"\xff" * 9,            # header + ragged partial value
        b"\x00" * 8 + b"\x01",  # n=0 header with trailing junk
    ])
    def test_decode_packet_and_header_reject_junk(self, junk):
        for decoder in (decode_packet, decode_header):
            with pytest.raises(WireFormatError):
                decoder(junk)

    def test_truncated_value_payload(self):
        frame = encode_packet(_packet(3))
        for cut in (len(frame) - 1, len(frame) - 8, 9):
            with pytest.raises(WireFormatError):
                decode_packet(frame[:cut])
            with pytest.raises(WireFormatError):
                decode_header(frame[:cut])

    def test_oversized_buffer(self):
        frame = encode_packet(_packet(3))
        with pytest.raises(WireFormatError):
            decode_packet(frame + b"\x00" * 8)
        with pytest.raises(WireFormatError):
            decode_header(frame + b"\x00")

    def test_bulk_decoders_reject_malformed_frames(self):
        good = [encode_packet(_packet(2, seq=i))
                for i in range(_BULK_MIN_BATCH)]
        for bad in (b"", b"\x01" * 7, good[0][:-1], good[0] + b"\x00"):
            with pytest.raises(WireFormatError):
                decode_header_fields(good + [bad])

    @given(st.binary(max_size=64))
    @settings(max_examples=200)
    def test_never_leaks_struct_error(self, blob):
        """Whatever the bytes, the decoders raise only the taxonomy."""
        for decoder in (decode_packet, decode_header):
            try:
                decoder(blob)
            except WireFormatError:
                pass
        try:
            decode_values(blob, blob[6] if len(blob) > 6 else 1)
        except WireFormatError:
            pass


class TestStructCache:
    """The cached ``struct.Struct`` objects are byte-identical to the
    historical per-call ``f">{{n}}Q"`` formats."""

    @pytest.mark.parametrize("n", [0, 1, 2, 8, 255])
    def test_encode_matches_uncached_format(self, n):
        packet = _packet(n)
        frame = encode_packet(packet)
        header = struct.pack(">HIBB", packet.fid, packet.seq, n,
                             packet.flags)
        expected = header + struct.pack(f">{n}Q", *packet.values)
        assert frame == expected

    def test_cache_survives_interleaved_sizes(self):
        for n in (3, 1, 3, 0, 255, 3):
            packet = _packet(n)
            assert decode_packet(encode_packet(packet)) == packet


class TestRoundTripBoundaries:
    """Hypothesis round trips, pinned at the n=0 and n=255 header-field
    boundaries (n rides in one byte)."""

    @given(fid=st.integers(0, (1 << 16) - 1),
           seq=st.integers(0, (1 << 32) - 1),
           flags=st.integers(0, 255))
    @settings(max_examples=50)
    def test_empty_payload_round_trip(self, fid, seq, flags):
        packet = CheetahPacket(fid=fid, seq=seq, values=(), flags=flags)
        frame = encode_packet(packet)
        assert len(frame) == 8
        assert decode_packet(frame) == packet
        assert decode_header(frame) == (fid, seq, 0, flags)
        assert decode_values(frame, 0) == ()

    @given(fid=st.integers(0, (1 << 16) - 1),
           seq=st.integers(0, (1 << 32) - 1),
           flags=st.integers(0, 255),
           data=st.data())
    @settings(max_examples=20)
    def test_max_payload_round_trip(self, fid, seq, flags, data):
        values = tuple(data.draw(
            st.lists(values64, min_size=255, max_size=255)))
        packet = CheetahPacket(fid=fid, seq=seq, values=values,
                               flags=flags)
        frame = encode_packet(packet)
        assert len(frame) == 8 + 8 * 255
        assert decode_packet(frame) == packet

    @given(packets)
    @settings(max_examples=100)
    def test_header_plus_values_equals_whole_packet(self, packet):
        """decode_header + decode_values ≡ decode_packet: any frame the
        header-only fast path accepts, the value parse completes on —
        with the same fields."""
        frame = encode_packet(packet)
        fid, seq, n, flags = decode_header(frame)
        values = decode_values(frame, n)
        whole = decode_packet(frame)
        assert (fid, seq, flags) == (whole.fid, whole.seq, whole.flags)
        assert n == len(whole.values)
        assert values == whole.values

    @given(st.binary(max_size=80))
    @settings(max_examples=200)
    def test_fast_path_acceptance_matches_decode_packet(self, blob):
        """decode_header and decode_packet accept exactly the same byte
        strings (the duplicated length validation is deliberate)."""
        try:
            decode_packet(blob)
            packet_ok = True
        except WireFormatError:
            packet_ok = False
        try:
            fid, seq, n, flags = decode_header(blob)
            header_ok = True
        except WireFormatError:
            header_ok = False
        assert packet_ok == header_ok
        if header_ok:
            decode_values(blob, n)  # must not raise


class TestBulkBitIdentity:
    """The np.frombuffer column tier is bit-identical to the per-packet
    tier across random batches (including batches below the bulk
    threshold, which take the scalar fallback)."""

    @given(st.lists(packets, max_size=3 * _BULK_MIN_BATCH))
    @settings(max_examples=50)
    def test_bulk_encode_decode_identity(self, batch):
        frames = [encode_packet(p) for p in batch]
        fids, seqs, ns_col, flags = decode_header_fields(frames)
        assert list(zip(fids, seqs, ns_col, flags)) == \
            [decode_header(f) for f in frames]

    def test_bulk_types_are_python_ints(self):
        batch = [_packet(2, seq=i) for i in range(_BULK_MIN_BATCH + 4)]
        frames = [encode_packet(p) for p in batch]
        for column in decode_header_fields(frames):
            assert all(type(field) is int for field in column)

    def test_boundary_value_survives_bulk(self):
        top = (1 << 64) - 1
        # All-ones header words too: fid/seq/flags at their maxima.
        batch = [CheetahPacket(fid=0xFFFF, seq=(1 << 32) - 1 - i,
                               values=(top, 0), flags=0xFF)
                 for i in range(_BULK_MIN_BATCH)]
        frames = [encode_packet(p) for p in batch]
        columns = decode_header_fields(frames)
        assert list(zip(*columns)) == [decode_header(f) for f in frames]
        assert [decode_values(f, n) for f, n in zip(frames, columns[2])] \
            == [p.values for p in batch]
