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


class RamBuffer:
    """Bounded volatile staging queue; overflow drops the oldest record."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise StoreError("RAM buffer capacity must be > 0")
        self.capacity = capacity
        self._queue: deque[LogRecord] = deque()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._queue)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self._queue)

    def push(self, record: LogRecord) -> None:
        if len(self._queue) >= self.capacity:
            self._queue.popleft()
            self.dropped += 1
        self._queue.append(record)

    def drain(self) -> list[LogRecord]:
        records = list(self._queue)
        self._queue.clear()
        return records

    def clear(self) -> int:
        lost = len(self._queue)
        self._queue.clear()
        return lost


class FlashRing:
    """Persistent record ring with a byte quota.

    Contents survive brownouts.  When a flush would exceed the quota the
    oldest records are evicted (and counted); records leave normally only
    through acks.
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity <= 0:
            raise StoreError("flash capacity must be > 0")
        self.capacity = capacity
        self._records: deque[LogRecord] = deque()
        self.used_bytes = 0
        self.write_counter = 0
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self._records)

    def append(self, record: LogRecord) -> None:
        size = record.wire_size
        if size > self.capacity:
            raise StoreError("record larger than flash capacity")
        while self.used_bytes + size > self.capacity:
            old = self._records.popleft()
            self.used_bytes -= old.wire_size
            self.evicted += 1
        self._records.append(record)
        self.used_bytes += size
        self.write_counter += 1

    def trim_through(self, seq: int) -> int:
        trimmed = 0
        while self._records and self._records[0].seq <= seq:
            old = self._records.popleft()
            self.used_bytes -= old.wire_size
            trimmed += 1
        return trimmed


class LogStore:
    """Per-device log pipeline: append -> flush -> transmit -> ack.

    The persisted side (flash ring, seq high-water mark, and a small
    key-value area for things like update progress markers) survives
    `on_brownout`; the RAM buffer does not.
    """

    def __init__(self, ram_capacity: int = 256, flash_capacity: int = 65536) -> None:
        self.ram = RamBuffer(ram_capacity)
        self.flash = FlashRing(flash_capacity)
        self.high_water = 0          # persisted on every append
        self.acked_through = 0
        self.appended = 0
        self.acked = 0
        self.lost_unflushed = 0
        self.nvs: dict[str, int] = {}  # persisted key-value area

    # -- producer side ----------------------------------------------------

    def append(
        self,
        severity: Severity,
        payload: bytes,
        timestamp: float = 0.0,
    ) -> int:
        if len(payload) > MAX_PAYLOAD:
            raise StoreError(f"payload exceeds {MAX_PAYLOAD} bytes")
        seq = self.high_water + 1
        record = LogRecord.create(seq, timestamp, severity, payload)
        self.ram.push(record)
        self.high_water = seq
        self.appended += 1
        return seq

    def flush(self) -> int:
        if not self.ram:
            return 0
        records = self.ram.drain()
        for record in records:
            self.flash.append(record)
        return len(records)

    # -- consumer side ----------------------------------------------------

    def ack_through(self, seq: int) -> int:
        if seq > self.high_water:
            raise StoreError(f"ack for future seq {seq} (high water {self.high_water})")
        trimmed = self.flash.trim_through(seq)
        self.acked += trimmed
        self.acked_through = max(self.acked_through, seq)
        return trimmed

    def unacked(self) -> Iterator[LogRecord]:
        return iter(self.flash)

    def oldest_unacked(self) -> Optional[LogRecord]:
        """The lowest-seq record still awaiting an ack, if any."""
        records = self.flash._records
        return records[0] if records else None

    # -- fault handling ----------------------------------------------------

    def on_brownout(self) -> None:
        self.lost_unflushed += self.ram.clear()

    # -- statistics --------------------------------------------------------

    @property
    def dropped(self) -> int:
        return self.ram.dropped

    @property
    def evicted(self) -> int:
        return self.flash.evicted

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
            self.flash.write_counter,
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
            store.flash.append(record)
        store.high_water = high_water
        store.acked_through = acked_through
        store.flash.write_counter = writes
        store.appended = count  # records not in the image are unaccounted
        return store
