"""Brownout-tolerant log production and storage.

Records are staged in a volatile RAM buffer and survive only once
flushed to the simulated flash ring.  Sequence numbers stay monotonic
across reboots via a persisted high-water mark.  Acks trim the flash
ring from the oldest end.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .transports import MAX_PAYLOAD, crc16_ccitt

RECORD_OVERHEAD = 16  # seq(4) + timestamp(8) + severity(1) + len(1) + crc(2)


class Severity(Enum):
    DEBUG = 0
    INFO = 1
    WARN = 2
    ERROR = 3


class StoreError(ValueError):
    pass


#: what the record CRC covers ahead of the payload, all big-endian
_CRC_HEADER = struct.Struct(">IdBB")


@dataclass(slots=True)
class LogRecord:
    """One debug log entry, with the CRC that covers all its fields.

    `LogStore.append` builds every record and computes its CRC.
    """

    seq: int
    timestamp: float
    severity: Severity
    payload: bytes
    crc: int


class LogStore:
    """Per-device log pipeline: append -> flush -> transmit -> ack.

    Records are staged in `ram`, a bounded volatile queue whose overflow
    drops the oldest record, and survive only once flushed to `flash`, a
    persistent queue with a byte quota.  A flush that would exceed the
    quota evicts the oldest records; otherwise records leave flash only
    through acks.  `append` refuses a record larger than the quota, so a
    flush cannot fail.  The persisted side (flash and the seq high-water
    mark) survives `on_brownout`; the RAM buffer does not.
    """

    def __init__(self, ram_capacity: int = 256, flash_capacity: int = 65536) -> None:
        if ram_capacity <= 0:
            raise StoreError("RAM buffer capacity must be > 0")
        if flash_capacity <= 0:
            raise StoreError("flash capacity must be > 0")
        self.ram: deque[LogRecord] = deque(maxlen=ram_capacity)
        self.flash: deque[LogRecord] = deque()
        self.flash_capacity = flash_capacity
        self.flash_bytes = 0
        self.high_water = 0          # persisted on every append
        self.appended = 0
        self.acked = 0
        self.dropped = 0             # overflowed the RAM buffer
        self.evicted = 0             # pushed out of flash by the quota
        self.lost_unflushed = 0

    # -- producer side ----------------------------------------------------

    def append(
        self,
        severity: Severity,
        payload: bytes,
        timestamp: float = 0.0,
    ) -> int:
        size = len(payload)
        if size > MAX_PAYLOAD:
            raise StoreError(f"payload exceeds {MAX_PAYLOAD} bytes")
        if RECORD_OVERHEAD + size > self.flash_capacity:
            raise StoreError("record larger than flash capacity")
        seq = self.high_water + 1
        crc = crc16_ccitt(_CRC_HEADER.pack(seq, timestamp, severity._value_, size) + payload)
        record = LogRecord(seq, timestamp, severity, payload, crc)
        if len(self.ram) == self.ram.maxlen:
            self.dropped += 1  # the append below pushes the oldest out
        self.ram.append(record)
        self.high_water = seq
        self.appended += 1
        return seq

    def flush(self) -> int:
        ram = self.ram
        if not ram:
            return 0
        flash, stored, capacity = self.flash, self.flash_bytes, self.flash_capacity
        for record in ram:
            size = RECORD_OVERHEAD + len(record.payload)
            while stored + size > capacity:
                stored -= RECORD_OVERHEAD + len(flash.popleft().payload)
                self.evicted += 1
            flash.append(record)
            stored += size
        self.flash_bytes = stored
        n = len(ram)
        ram.clear()
        return n

    # -- consumer side ----------------------------------------------------

    def ack_through(self, seq: int) -> int:
        if seq > self.high_water:
            raise StoreError(f"ack for future seq {seq} (high water {self.high_water})")
        flash = self.flash
        trimmed = 0
        while flash and flash[0].seq <= seq:
            self.flash_bytes -= RECORD_OVERHEAD + len(flash.popleft().payload)
            trimmed += 1
        self.acked += trimmed
        return trimmed

    def oldest_unacked(self) -> Optional[LogRecord]:
        """The lowest-seq record still awaiting an ack, if any."""
        return self.flash[0] if self.flash else None

    # -- fault handling ----------------------------------------------------

    def on_brownout(self) -> None:
        self.lost_unflushed += len(self.ram)
        self.ram.clear()

    # -- statistics --------------------------------------------------------

    def conservation_holds(self) -> bool:
        accounted = (
            self.acked
            + len(self.flash)
            + len(self.ram)
            + self.dropped
            + self.evicted
            + self.lost_unflushed
        )
        return self.appended == accounted
