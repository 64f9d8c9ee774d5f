"""Channel models and framing.

Three ways off the car: a dock-only wired link, a lossy wireless link
with a connection lifecycle, and the powerline back-channel that rides
the track's digital control protocol in fixed 13-bit slots, 8 per 75 ms
cycle.  All payloads travel in a common CRC-protected frame format.
"""

from __future__ import annotations

import binascii
import random
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable


# --- CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF) -----------------------

def crc16_ccitt(data: bytes, crc: int = 0xFFFF) -> int:
    return binascii.crc_hqx(data, crc)


# --- Frame codec ---------------------------------------------------------

SYNC_BYTE = 0x7E
FRAME_OVERHEAD = 9  # sync + length + kind + seq(4) + crc(2)
MAX_PAYLOAD = 255


class FrameKind(Enum):
    LOG = 1
    ACK = 2
    OTA_CHUNK = 3
    OTA_ACK = 4
    REQUEST = 5
    REPLY = 6


class FrameError(ValueError):
    """Base class for frame decode failures."""


class BadSync(FrameError):
    pass


class BadCrc(FrameError):
    pass


class Truncated(FrameError):
    pass


@dataclass(frozen=True)
class Frame:
    kind: FrameKind
    seq: int
    payload: bytes = b""

    def __post_init__(self) -> None:
        if len(self.payload) > MAX_PAYLOAD:
            raise FrameError(f"payload exceeds {MAX_PAYLOAD} bytes")
        if not 0 <= self.seq < 2**32:
            raise FrameError("seq out of 32-bit range")

    @property
    def wire_size(self) -> int:
        return FRAME_OVERHEAD + len(self.payload)


def frame_encode(frame: Frame) -> bytes:
    body = bytes([len(frame.payload), frame.kind.value])
    body += frame.seq.to_bytes(4, "big") + frame.payload
    crc = crc16_ccitt(body)
    return bytes([SYNC_BYTE]) + body + crc.to_bytes(2, "big")


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

SLOT_BITS = 13
SLOTS_PER_CYCLE = 8
DEFAULT_CYCLE_PERIOD = 0.075  # seconds
MAX_PACKED_BYTES = 2**SLOT_BITS - 1  # length header is a single slot


class SlotError(ValueError):
    """Corrupted or malformed powerline slot stream."""


def powerline_bandwidth(
    cycle_period: float = DEFAULT_CYCLE_PERIOD,
    slots: int = SLOTS_PER_CYCLE,
    bits: int = SLOT_BITS,
) -> float:
    """Theoretical back-channel capacity in bits per second."""
    if cycle_period <= 0 or slots <= 0 or bits <= 0:
        raise ValueError("all capacity arguments must be > 0")
    return slots * bits / cycle_period


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


# --- Channels ------------------------------------------------------------

class LayoutError(ValueError):
    """Invalid track layout, or a strategy the layout cannot carry.

    Defined here, below both `track_world` and `strategies`, so that
    each can raise it.
    """


class Outcome(Enum):
    DELIVERED = "delivered"
    LOST = "lost"
    UNAVAILABLE = "unavailable"


def wired_available(car, layout) -> bool:
    """Wired readout needs the car parked exactly at the dock."""
    if layout.dock_position is None:
        return False
    return car.speed == 0 and abs(car.position - layout.dock_position) < 1e-9


class WiredLink:
    """Dock-only UART-style link; lossless when available."""

    def __init__(self, layout) -> None:
        self.layout = layout

    def send_frame(self, frame: Frame, car) -> Outcome:
        return Outcome.DELIVERED if wired_available(car, self.layout) else Outcome.UNAVAILABLE


@dataclass
class WirelessLinkParams:
    connect_latency: float = 1.5          # seconds to associate
    connect_extra_current: float = 0.050  # amperes extra during setup
    per_frame_airtime: float = 0.002      # seconds per log/ack frame
    reply_airtime: float = 0.025          # seconds per forced reply
    loss_rate: float = 0.0                # per-frame loss probability

    def validate(self) -> None:
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError("loss_rate must be within [0, 1]")
        if min(self.connect_latency, self.per_frame_airtime, self.reply_airtime) < 0:
            raise ValueError("latencies must be >= 0")


class WirelessLink:
    """Radio link with association lifecycle and Bernoulli frame loss.

    Loss draws come from the owning scenario's seeded generator so runs
    stay reproducible.  Airtime and power-state coupling are handled by
    the caller, which owns the device timeline.
    """

    def __init__(self, params: WirelessLinkParams, rng: random.Random) -> None:
        params.validate()
        self.params = params
        self.rng = rng
        self.associated = False

    def lost(self) -> bool:
        """One Bernoulli loss draw, for a frame or for its ack."""
        loss_rate = self.params.loss_rate
        return loss_rate > 0 and self.rng.random() < loss_rate

    def send_frame(self, frame: Frame) -> Outcome:
        if not self.associated:
            return Outcome.UNAVAILABLE
        return Outcome.LOST if self.lost() else Outcome.DELIVERED


class PowerlineChannel:
    """Slot-timed back-channel over the track rails.

    Queued slot values drain one per slot boundary on a global slot grid;
    boundaries that fall while the car is in a gap deliver nothing (the
    rails are interrupted there).
    """

    def __init__(
        self,
        cycle_period: float = DEFAULT_CYCLE_PERIOD,
        slots_per_cycle: int = SLOTS_PER_CYCLE,
    ) -> None:
        self.slot_time = cycle_period / slots_per_cycle
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
