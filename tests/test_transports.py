import pytest
from hypothesis import given, settings, strategies as st
from wire_decoders import (
    BadCrc,
    BadSync,
    Truncated,
    frame_decode,
    powerline_bandwidth,
    powerline_unpack,
)

from powergap.transports import (
    Frame,
    FrameError,
    FrameKind,
    PowerlineChannel,
    SlotError,
    WirelessLinkParams,
    crc16_ccitt,
    frame_encode,
    powerline_pack,
)


def crc16_bitwise(data: bytes, crc: int = 0xFFFF) -> int:
    """Reference CRC-16/CCITT-FALSE: poly 0x1021, MSB first, bit by bit."""
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


def test_crc16_check_value():
    # standard CRC-16/CCITT-FALSE check input
    assert crc16_ccitt(b"123456789") == 0x29B1


@given(data=st.binary(max_size=300), init=st.integers(0, 0xFFFF))
def test_crc16_matches_bitwise_reference(data, init):
    assert crc16_ccitt(data) == crc16_bitwise(data)
    assert crc16_ccitt(data, init) == crc16_bitwise(data, init)


class TestFrameCodec:
    def test_empty_reply_is_nine_bytes(self):
        frame = Frame(FrameKind.REPLY, 7)
        wire = frame_encode(frame)
        assert len(wire) == 9
        assert frame_decode(wire) == frame

    @given(
        kind=st.sampled_from(list(FrameKind)),
        seq=st.integers(0, 2**32 - 1),
        payload=st.binary(max_size=255),
    )
    def test_roundtrip_identity(self, kind, seq, payload):
        frame = Frame(kind, seq, payload)
        assert frame_decode(frame_encode(frame)) == frame

    def test_payload_bit_flip_is_bad_crc(self):
        wire = bytearray(frame_encode(Frame(FrameKind.LOG, 1, b"hello")))
        wire[8] ^= 0x01
        with pytest.raises(BadCrc):
            frame_decode(bytes(wire))

    def test_truncation(self):
        wire = frame_encode(Frame(FrameKind.LOG, 1, b"hello"))
        with pytest.raises(Truncated):
            frame_decode(wire[:-1])

    def test_bad_sync(self):
        wire = frame_encode(Frame(FrameKind.REPLY, 0))
        with pytest.raises(BadSync):
            frame_decode(b"\x00" + wire[1:])
        with pytest.raises(BadSync):
            frame_decode(b"")

    def test_oversized_payload_rejected(self):
        with pytest.raises(FrameError):
            Frame(FrameKind.LOG, 1, b"x" * 256)

    @pytest.mark.parametrize("seq", [-1, 2**32])
    def test_out_of_range_seq_rejected(self, seq):
        with pytest.raises(FrameError):
            Frame(FrameKind.LOG, seq)

    def test_errors_are_distinct_types(self):
        assert issubclass(BadSync, FrameError)
        assert issubclass(BadCrc, FrameError)
        assert issubclass(Truncated, FrameError)
        assert BadSync is not BadCrc


class TestPowerlineCodec:
    def test_empty_input_header_only(self):
        slots = powerline_pack(b"")
        assert slots == [0]
        assert powerline_unpack(slots) == b""

    def test_thirteen_ones_single_slot(self):
        # 13 set bits fill one slot exactly: 0xFF, 0xF8 top-aligned
        slots = powerline_pack(b"\xff\xf8")
        # 16 bits -> 2 data slots, but the first holds 0x1FFF
        assert slots[1] == 0x1FFF
        assert powerline_unpack(slots) == b"\xff\xf8"

    def test_kilobyte_needs_616_data_slots(self):
        data = bytes(range(256)) * 4  # 1000-byte strings covered below; fixed here
        slots = powerline_pack(data[:1000])
        assert len(slots) - 1 == 616  # ceil(8000 / 13)
        assert powerline_unpack(slots) == data[:1000]

    @given(data=st.binary(max_size=1200))
    @settings(max_examples=300)
    def test_roundtrip_identity(self, data):
        assert powerline_unpack(powerline_pack(data)) == data

    def test_slot_values_fit_13_bits(self):
        for slot in powerline_pack(bytes(200)):
            assert 0 <= slot < 2**13

    def test_corrupted_slot_rejected(self):
        slots = powerline_pack(b"abc")
        slots[1] = 2**13
        with pytest.raises(SlotError):
            powerline_unpack(slots)

    def test_truncated_stream_rejected(self):
        slots = powerline_pack(b"abcdefgh")
        with pytest.raises(SlotError):
            powerline_unpack(slots[:-1])


class TestBandwidth:
    def test_reference_capacity(self):
        bw = powerline_bandwidth(0.075, 8, 13)
        assert bw == pytest.approx(1386.67, abs=0.01)
        assert round(bw) == 1387

    def test_unit_case(self):
        assert powerline_bandwidth(1.0, 1, 1) == 1.0

    def test_half_rate(self):
        assert powerline_bandwidth(0.150, 8, 13) == pytest.approx(693.33, abs=0.01)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            powerline_bandwidth(0.0, 8, 13)

    def test_saturated_channel_meets_capacity(self):
        # 10 s fully powered with a never-empty queue
        channel = PowerlineChannel()
        for _ in range(3000):
            channel.enqueue(0x123)
        dt = 0.0005
        t = 0.0
        for _ in range(20000):
            t += dt
            channel.tick(t, powered=True)
        measured = channel.delivered_bits / 10.0
        assert abs(measured - powerline_bandwidth()) <= 13.0

    def test_gap_blackout(self):
        channel = PowerlineChannel()
        for _ in range(100):
            channel.enqueue(1)
        delivered = channel.tick(0.075, powered=False)
        assert delivered == []
        assert channel.delivered_bits == 0


class TestWirelessLink:
    def test_param_validation(self):
        with pytest.raises(ValueError):
            WirelessLinkParams(loss_rate=1.5).validate()
        with pytest.raises(ValueError):
            WirelessLinkParams(connect_latency=-1.0).validate()
