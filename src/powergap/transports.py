"""Channel models and framing.

Three ways off the car: a dock-only wired link (a time per frame), a
lossy wireless link, whose association and seeded loss draws the radio
driver in `strategies` owns, and the powerline back-channel that rides
the track's digital control protocol in fixed 13-bit slots, 8 per 75 ms
cycle.  All payloads travel in a common CRC-protected frame format.  The
codecs are the wire format; a run builds no frame, and only counts a
frame's bytes (`FRAME_OVERHEAD` plus the payload) and powerline slots.
"""

from __future__ import annotations

import binascii
from enum import Enum

from .energy_model import ByValue, check_range


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


class Frame(ByValue):
    """One framed message on a link: a log record or a reply to a request."""

    __slots__ = _fields = ("kind", "seq", "payload")

    def __init__(self, kind: FrameKind, seq: int, payload: bytes = b"") -> None:
        if len(payload) > MAX_PAYLOAD:
            raise FrameError(f"payload exceeds {MAX_PAYLOAD} bytes")
        if not 0 <= seq < 2**32:
            raise FrameError("seq out of 32-bit range")
        self.kind = kind
        self.seq = seq
        self.payload = payload


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


def powerline_slots(n_bytes: int) -> int:
    """Slots that carry `n_bytes`: the length header, then the data bits."""
    return 1 + -(-n_bytes * 8 // SLOT_BITS)


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
    n_slots = powerline_slots(len(data)) - 1
    padded = bits << (n_slots * SLOT_BITS - total_bits) if n_slots else 0
    for i in range(n_slots):
        shift = (n_slots - 1 - i) * SLOT_BITS
        values.append((padded >> shift) & (2**SLOT_BITS - 1))
    return values


# --- Channels ------------------------------------------------------------

class Outcome(Enum):
    DELIVERED = "delivered"
    LOST = "lost"


class WirelessLinkParams(ByValue):
    """Timing, current and loss figures of the wireless link."""

    _fields = ("connect_latency", "connect_extra_current", "per_frame_airtime",
               "reply_airtime", "loss_rate")

    def __init__(self, connect_latency: float = 1.5, connect_extra_current: float = 0.050,
                 per_frame_airtime: float = 0.002, reply_airtime: float = 0.025,
                 loss_rate: float = 0.0) -> None:
        self.connect_latency = connect_latency              # seconds to associate
        self.connect_extra_current = connect_extra_current  # amperes extra during setup
        self.per_frame_airtime = per_frame_airtime          # seconds per log/ack frame
        self.reply_airtime = reply_airtime                  # seconds per forced reply
        self.loss_rate = loss_rate                          # per-frame loss probability

    def validate(self) -> None:
        check_range(self.loss_rate, ("wireless", "loss_rate"), 0.0, maximum=1.0)
        for key in ("connect_latency", "connect_extra_current", "per_frame_airtime",
                    "reply_airtime"):
            check_range(getattr(self, key), ("wireless", key), 0.0)


class PowerlineChannel:
    """Slot-timed back-channel over the track rails.

    The frame in flight takes `slots_left` more slots, one per boundary
    of a global slot grid; boundaries that fall while the car is in a
    gap deliver nothing (the rails are interrupted there).
    """

    def __init__(self) -> None:
        self.slot_time = DEFAULT_CYCLE_PERIOD / SLOTS_PER_CYCLE
        self.slots_left = 0
        self.next_boundary = self.slot_time
        self.delivered_bits = 0

    def tick(self, now: float, powered: bool) -> bool:
        """Advance the slot grid to `now`; whether the frame's last slot landed."""
        had_slots = self.slots_left > 0
        while self.next_boundary <= now + 1e-12:
            if powered and self.slots_left:
                self.slots_left -= 1
                self.delivered_bits += SLOT_BITS
            self.next_boundary += self.slot_time
        return had_slots and not self.slots_left
