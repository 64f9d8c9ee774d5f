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
from pathlib import Path
from typing import Iterator, Optional, Union

from .transports import MAX_PAYLOAD, crc16_ccitt

FLASH_MAGIC = b"PGLG"
FLASH_VERSION = 1
RECORD_OVERHEAD = 16  # seq(4) + timestamp(8) + severity(1) + len(1) + crc(2)


class Severity(Enum):
    DEBUG = 0
    INFO = 1
    WARN = 2
    ERROR = 3


class StoreError(ValueError):
    pass


class CorruptImage(StoreError):
    """Flash image failed magic/version/CRC validation."""


@dataclass(frozen=True)
class LogRecord:
    seq: int
    timestamp: float
    severity: Severity
    payload: bytes
    crc: int

    @staticmethod
    def _crc_input(seq: int, timestamp: float, severity: Severity, payload: bytes) -> bytes:
        return (
            seq.to_bytes(4, "big")
            + struct.pack(">d", timestamp)
            + bytes([severity.value, len(payload)])
            + payload
        )

    @classmethod
    def create(
        cls, seq: int, timestamp: float, severity: Severity, payload: bytes
    ) -> "LogRecord":
        if len(payload) > MAX_PAYLOAD:
            raise StoreError(f"payload exceeds {MAX_PAYLOAD} bytes")
        crc = crc16_ccitt(cls._crc_input(seq, timestamp, severity, payload))
        return cls(seq, timestamp, severity, payload, crc)

    def crc_valid(self) -> bool:
        return (
            crc16_ccitt(
                self._crc_input(self.seq, self.timestamp, self.severity, self.payload)
            )
            == self.crc
        )

    @property
    def wire_size(self) -> int:
        return RECORD_OVERHEAD + len(self.payload)

    def encode(self) -> bytes:
        return self._crc_input(
            self.seq, self.timestamp, self.severity, self.payload
        ) + self.crc.to_bytes(2, "big")

    @classmethod
    def decode(cls, data: bytes, offset: int = 0) -> tuple["LogRecord", int]:
        if len(data) - offset < RECORD_OVERHEAD:
            raise CorruptImage("truncated record header")
        seq = int.from_bytes(data[offset : offset + 4], "big")
        (timestamp,) = struct.unpack(">d", data[offset + 4 : offset + 12])
        sev_raw, length = data[offset + 12], data[offset + 13]
        end = offset + 14 + length
        if len(data) < end + 2:
            raise CorruptImage("truncated record payload")
        payload = bytes(data[offset + 14 : end])
        crc = int.from_bytes(data[end : end + 2], "big")
        try:
            severity = Severity(sev_raw)
        except ValueError:
            raise CorruptImage(f"unknown severity {sev_raw}") from None
        record = cls(seq, timestamp, severity, payload, crc)
        if not record.crc_valid():
            raise CorruptImage(f"record seq {seq} failed CRC")
        return record, end + 2


class LogStore:
    """Per-device log pipeline: append -> flush -> transmit -> ack.

    Records are staged in `ram`, a bounded volatile queue whose overflow
    drops the oldest record, and survive only once flushed to `flash`, a
    persistent queue with a byte quota.  A flush that would exceed the
    quota evicts the oldest records; otherwise records leave flash only
    through acks.  The persisted side (flash, seq high-water mark, and a
    small key-value area for things like update progress markers)
    survives `on_brownout`; the RAM buffer does not.
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
        self.write_counter = 0       # flash record writes
        self.high_water = 0          # persisted on every append
        self.acked_through = 0
        self.appended = 0
        self.acked = 0
        self.dropped = 0             # overflowed the RAM buffer
        self.evicted = 0             # pushed out of flash by the quota
        self.lost_unflushed = 0
        self.nvs: dict[str, int] = {}  # persisted key-value area

    # -- producer side ----------------------------------------------------

    def append(
        self,
        severity: Severity,
        payload: bytes,
        timestamp: float = 0.0,
    ) -> int:
        seq = self.high_water + 1
        record = LogRecord.create(seq, timestamp, severity, payload)
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
        for record in ram:
            self._write(record)
        n = len(ram)
        ram.clear()
        return n

    def _write(self, record: LogRecord) -> None:
        size = record.wire_size
        if size > self.flash_capacity:
            raise StoreError("record larger than flash capacity")
        while self.flash_bytes + size > self.flash_capacity:
            self.flash_bytes -= self.flash.popleft().wire_size
            self.evicted += 1
        self.flash.append(record)
        self.flash_bytes += size
        self.write_counter += 1

    # -- consumer side ----------------------------------------------------

    def ack_through(self, seq: int) -> int:
        if seq > self.high_water:
            raise StoreError(f"ack for future seq {seq} (high water {self.high_water})")
        flash = self.flash
        trimmed = 0
        while flash and flash[0].seq <= seq:
            self.flash_bytes -= flash.popleft().wire_size
            trimmed += 1
        self.acked += trimmed
        self.acked_through = max(self.acked_through, seq)
        return trimmed

    def unacked(self) -> Iterator[LogRecord]:
        return iter(self.flash)

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

    # -- flash image serialization ----------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        header = FLASH_MAGIC + bytes([FLASH_VERSION])
        meta = struct.pack(
            ">IIIIH",
            self.high_water,
            self.acked_through,
            self.write_counter,
            len(self.flash),
            len(self.nvs),
        )
        body = bytearray()
        for key, value in sorted(self.nvs.items()):
            raw = key.encode()
            body += bytes([len(raw)]) + raw + struct.pack(">q", value)
        for record in self.flash:
            body += record.encode()
        Path(path).write_bytes(header + meta + bytes(body))

    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        ram_capacity: int = 256,
        flash_capacity: int = 65536,
    ) -> "LogStore":
        data = Path(path).read_bytes()
        if data[:4] != FLASH_MAGIC:
            raise CorruptImage("bad flash image magic")
        if data[4] != FLASH_VERSION:
            raise CorruptImage(f"unsupported flash image version {data[4]}")
        high_water, acked_through, writes, count, nvs_count = struct.unpack(
            ">IIIIH", data[5:23]
        )
        store = cls(ram_capacity=ram_capacity, flash_capacity=flash_capacity)
        offset = 23
        for _ in range(nvs_count):
            klen = data[offset]
            key = data[offset + 1 : offset + 1 + klen].decode()
            (value,) = struct.unpack(">q", data[offset + 1 + klen : offset + 9 + klen])
            store.nvs[key] = value
            offset += 9 + klen
        for _ in range(count):
            record, offset = LogRecord.decode(data, offset)
            store._write(record)
        store.high_water = high_water
        store.acked_through = acked_through
        store.write_counter = writes
        store.appended = count  # records not in the image are unaccounted
        return store
