"""Channel models and framing.

Three ways off the car: a dock-only wired link (a time per frame), a
lossy wireless link, whose association and seeded loss draws the radio
driver in `strategies` owns, and the powerline back-channel that rides
the track's digital control protocol in fixed 13-bit slots, 8 per 75 ms
cycle.  All payloads travel in a common CRC-protected frame format.
"""

from __future__ import annotations

import binascii
from collections import deque
from dataclasses import dataclass
from enum import Enum

from .energy_model import check_range


# --- CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF) -----------------------

def crc16_ccitt(data: bytes, crc: int = 0xFFFF) -> int:
    return binascii.crc_hqx(data, crc)


# --- Frame codec ---------------------------------------------------------

SYNC_BYTE = 0x7E
FRAME_OVERHEAD = 9  # sync + length + kind + seq(4) + crc(2)
MAX_PAYLOAD = 255


class FrameKind(Enum):
    # wire codes: a LOG frame carries one record, a REPLY answers a request
    LOG = 1
    REPLY = 6


class FrameError(ValueError):
    """A frame that cannot be built or decoded."""


@dataclass(frozen=True)
class Frame:
    """One framed message on a link: a log record or a reply to a request."""

    kind: FrameKind
    seq: int
    payload: bytes = b""

    def __post_init__(self) -> None:
        if len(self.payload) > MAX_PAYLOAD:
            raise FrameError(f"payload exceeds {MAX_PAYLOAD} bytes")
        if not 0 <= self.seq < 2**32:
            raise FrameError("seq out of 32-bit range")


def frame_encode(frame: Frame) -> bytes:
    body = bytes([len(frame.payload), frame.kind.value])
    body += frame.seq.to_bytes(4, "big") + frame.payload
    crc = crc16_ccitt(body)
    return bytes([SYNC_BYTE]) + body + crc.to_bytes(2, "big")


# --- Powerline slot codec ------------------------------------------------

SLOT_BITS = 13
SLOTS_PER_CYCLE = 8
DEFAULT_CYCLE_PERIOD = 0.075  # seconds
MAX_PACKED_BYTES = 2**SLOT_BITS - 1  # length header is a single slot


class SlotError(ValueError):
    """Corrupted or malformed powerline slot stream."""


def powerline_pack(data: bytes) -> list[int]:
    """Split a byte string into 13-bit slots.

    The first slot carries the byte count; data bits follow MSB-first,
    zero-padded in the final slot.
    """
    if len(data) > MAX_PACKED_BYTES:
        raise SlotError(f"cannot pack more than {MAX_PACKED_BYTES} bytes")
    values = [len(data)]
    total_bits = len(data) * 8
    bits = int.from_bytes(data, "big") if data else 0
    n_slots = -(-total_bits // SLOT_BITS)
    padded = bits << (n_slots * SLOT_BITS - total_bits) if n_slots else 0
    for i in range(n_slots):
        shift = (n_slots - 1 - i) * SLOT_BITS
        values.append((padded >> shift) & (2**SLOT_BITS - 1))
    return values


# --- Channels ------------------------------------------------------------

class Outcome(Enum):
    DELIVERED = "delivered"
    LOST = "lost"


@dataclass
class WirelessLinkParams:
    """Timing, current and loss figures of the wireless link."""

    connect_latency: float = 1.5          # seconds to associate
    connect_extra_current: float = 0.050  # amperes extra during setup
    per_frame_airtime: float = 0.002      # seconds per log/ack frame
    reply_airtime: float = 0.025          # seconds per forced reply
    loss_rate: float = 0.0                # per-frame loss probability

    def validate(self) -> None:
        check_range(self.loss_rate, ("wireless", "loss_rate"), 0.0, maximum=1.0)
        for key in ("connect_latency", "connect_extra_current", "per_frame_airtime",
                    "reply_airtime"):
            check_range(getattr(self, key), ("wireless", key), 0.0)


class PowerlineChannel:
    """Slot-timed back-channel over the track rails.

    Queued slot values drain one per slot boundary on a global slot grid;
    boundaries that fall while the car is in a gap deliver nothing (the
    rails are interrupted there).
    """

    def __init__(self) -> None:
        self.slot_time = DEFAULT_CYCLE_PERIOD / SLOTS_PER_CYCLE
        self.queue: deque[tuple[int, object]] = deque()
        self.next_boundary = self.slot_time
        self.delivered_bits = 0

    def enqueue(self, value: int, tag: object = None) -> None:
        if not 0 <= value < 2**SLOT_BITS:
            raise SlotError(f"slot value {value} exceeds {SLOT_BITS} bits")
        self.queue.append((value, tag))

    def tick(self, now: float, powered: bool) -> list[tuple[int, object]]:
        """Advance the slot grid to `now`; return slots delivered."""
        delivered: list[tuple[int, object]] = []
        while self.next_boundary <= now + 1e-12:
            if powered and self.queue:
                item = self.queue.popleft()
                delivered.append(item)
                self.delivered_bits += SLOT_BITS
            self.next_boundary += self.slot_time
        return delivered
