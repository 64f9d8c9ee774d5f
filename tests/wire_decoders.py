"""Decoders for the simulator's wire formats, kept as test oracles.

The simulator only encodes: the host side counts what arrives and never
parses it.  Tests decode what the encoders wrote to check that nothing
is lost or garbled on the way.
"""

from __future__ import annotations

import struct
from typing import Iterable

from powergap.log_store import LogRecord
from powergap.transports import (
    DEFAULT_CYCLE_PERIOD,
    FRAME_OVERHEAD,
    SLOT_BITS,
    SLOTS_PER_CYCLE,
    SYNC_BYTE,
    Frame,
    FrameError,
    FrameKind,
    SlotError,
    crc16_ccitt,
)


# --- Frame codec ---------------------------------------------------------

class BadSync(FrameError):
    pass


class BadCrc(FrameError):
    pass


class Truncated(FrameError):
    pass


def frame_decode(data: bytes) -> Frame:
    if len(data) < 1 or data[0] != SYNC_BYTE:
        raise BadSync("missing sync byte")
    if len(data) < FRAME_OVERHEAD:
        raise Truncated(f"need at least {FRAME_OVERHEAD} bytes, got {len(data)}")
    length = data[1]
    if len(data) < FRAME_OVERHEAD + length:
        raise Truncated(
            f"payload length {length} but only {len(data) - FRAME_OVERHEAD} present"
        )
    body = data[1 : 7 + length]
    crc = int.from_bytes(data[7 + length : 9 + length], "big")
    if crc16_ccitt(body) != crc:
        raise BadCrc("frame checksum mismatch")
    try:
        kind = FrameKind(data[2])
    except ValueError:
        raise FrameError(f"unknown frame kind {data[2]}") from None
    seq = int.from_bytes(data[3:7], "big")
    return Frame(kind=kind, seq=seq, payload=bytes(data[7 : 7 + length]))


# --- Powerline slot codec ------------------------------------------------

def powerline_bandwidth(
    cycle_period: float = DEFAULT_CYCLE_PERIOD,
    slots: int = SLOTS_PER_CYCLE,
    bits: int = SLOT_BITS,
) -> float:
    """Theoretical back-channel capacity in bits per second."""
    if cycle_period <= 0 or slots <= 0 or bits <= 0:
        raise ValueError("all capacity arguments must be > 0")
    return slots * bits / cycle_period


def powerline_unpack(slots: Iterable[int]) -> bytes:
    values = list(slots)
    for v in values:
        if not 0 <= v < 2**SLOT_BITS:
            raise SlotError(f"slot value {v} exceeds {SLOT_BITS} bits")
    if not values:
        raise SlotError("missing length header slot")
    n_bytes = values[0]
    total_bits = n_bytes * 8
    n_slots = -(-total_bits // SLOT_BITS)
    if len(values) - 1 < n_slots:
        raise SlotError(
            f"length header promises {n_slots} data slots, got {len(values) - 1}"
        )
    acc = 0
    for v in values[1 : 1 + n_slots]:
        acc = (acc << SLOT_BITS) | v
    if n_slots:
        acc >>= n_slots * SLOT_BITS - total_bits
    return acc.to_bytes(n_bytes, "big") if n_bytes else b""


# --- Log records ---------------------------------------------------------

def crc_valid(record: LogRecord) -> bool:
    """Whether `record`'s stored CRC matches its fields, laid out as the
    record format documents them: seq u32 BE, timestamp f64 BE, severity
    u8 and payload length u8, then the payload."""
    head = struct.pack(">IdBB", record.seq, record.timestamp, record.severity.value,
                       len(record.payload))
    return crc16_ccitt(head + record.payload) == record.crc
