"""Corruption-safe over-the-air firmware updates.

Firmware updates use dual image slots with whole-image verification so
an interrupted transfer can never replace a good image with a corrupt
one.  No simulation runs this model, so `powergap` does not import it;
import `powergap.ota` directly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Optional


class OtaState(Enum):
    IDLE = "idle"
    RECEIVING = "receiving"
    ACTIVATED = "activated"


class OtaError(Exception):
    pass


@dataclass
class OtaSession:
    image_size: int
    chunk_size: int = 1024
    next_chunk: int = 0
    target_slot: str = "B"
    image_hash: bytes = b""
    state: OtaState = OtaState.IDLE

    @property
    def n_chunks(self) -> int:
        return -(-self.image_size // self.chunk_size)


def image_digest(image: bytes) -> bytes:
    return hashlib.sha256(image).digest()


class OtaDevice:
    """Dual-slot firmware store with resumable, verified updates.

    Slot bytes, per-slot verification hashes, and a copy of the session
    as of its last chunk write are flash-backed and survive brownouts;
    the session object is volatile and is rebuilt from that copy on
    reboot.
    """

    def __init__(self, active_image: bytes) -> None:
        self.slots: dict[str, bytearray] = {"A": bytearray(active_image), "B": bytearray()}
        self.active_slot = "A"
        self.slot_meta: dict[str, Optional[bytes]] = {
            "A": image_digest(active_image),
            "B": None,
        }
        self.session: Optional[OtaSession] = None
        self.persisted: Optional[OtaSession] = None  # transfer progress in flash
        self.pending_swap: Optional[str] = None
        # fault-injection: flip one bit of this chunk after CRC checking,
        # simulating storage corruption the link layer cannot catch
        self.fault_corrupt_chunk: Optional[int] = None

    def slot_hash(self, slot: str) -> bytes:
        return image_digest(bytes(self.slots[slot]))

    def active_hash(self) -> bytes:
        return self.slot_hash(self.active_slot)

    def slot_verifies(self, slot: str) -> bool:
        meta = self.slot_meta[slot]
        return meta is not None and self.slot_hash(slot) == meta

    def verified_slots(self) -> list[str]:
        return [s for s in self.slots if self.slot_verifies(s)]

    # -- update protocol ---------------------------------------------------

    def begin_update(
        self, image_size: int, image_hash: bytes, chunk_size: int = 1024
    ) -> OtaSession:
        if image_size <= 0 or chunk_size <= 0:
            raise OtaError("image and chunk sizes must be > 0")
        target = "B" if self.active_slot == "A" else "A"
        self.slots[target] = bytearray(image_size)
        self.slot_meta[target] = None
        self.session = OtaSession(
            image_size=image_size,
            chunk_size=chunk_size,
            target_slot=target,
            image_hash=image_hash,
            state=OtaState.RECEIVING,
        )
        self.persisted = replace(self.session)
        return self.session

    def handle_chunk(self, index: int, data: bytes) -> bool:
        s = self.session
        if s is None or s.state is not OtaState.RECEIVING:
            raise OtaError("no transfer in progress")
        if index < s.next_chunk:
            return True  # duplicate; already persisted
        if index > s.next_chunk:
            return False  # out of order; sender must back off
        if index == self.fault_corrupt_chunk and data:
            data = bytes([data[0] ^ 0x01]) + data[1:]
        start = index * s.chunk_size
        self.slots[s.target_slot][start : start + len(data)] = data
        s.next_chunk = index + 1
        self.persisted = replace(s)
        if s.next_chunk >= s.n_chunks:
            self._finish()
        return True

    def _finish(self) -> None:
        s = self.session
        assert s is not None
        if self.slot_hash(s.target_slot) == s.image_hash:
            s.state = OtaState.ACTIVATED
            self.slot_meta[s.target_slot] = s.image_hash
            self.slot_meta[self.active_slot] = None
            self.pending_swap = s.target_slot
        else:
            self.slots[s.target_slot] = bytearray()
            self.slot_meta[s.target_slot] = None
            s.state = OtaState.IDLE
            self.session = None
        self.persisted = None

    # -- fault handling ----------------------------------------------------

    def on_brownout(self) -> None:
        self.session = None

    def on_reboot(self) -> None:
        if self.pending_swap is not None and self.slot_verifies(self.pending_swap):
            self.active_slot = self.pending_swap
            self.pending_swap = None
            return
        if self.persisted is not None:
            self.session = replace(self.persisted)
            if self.session.next_chunk >= self.session.n_chunks:
                self._finish()


@dataclass
class OtaTransferResult:
    completed: bool
    resumptions: int
    chunk_attempts: int
    final_state: OtaState


def run_ota_transfer(
    device: OtaDevice,
    image: bytes,
    chunk_size: int = 1024,
    faults: Iterable[int] = (),
    max_attempts: Optional[int] = None,
) -> OtaTransferResult:
    """Drive a full update through `device`, injecting brownouts.

    `faults` lists chunk-transfer attempt indices (0-based, counted over
    all attempts including retries) at which a brownout interrupts the
    chunk before its progress marker persists.
    """
    fault_set = set(faults)
    digest = image_digest(image)
    device.begin_update(len(image), digest, chunk_size)
    attempts = 0
    resumptions = 0
    n_chunks = device.session.n_chunks  # type: ignore[union-attr]
    limit = max_attempts if max_attempts is not None else n_chunks + len(fault_set) * 2 + 16
    while device.session is not None and device.session.state is OtaState.RECEIVING:
        if attempts >= limit:
            raise OtaError("transfer did not converge")
        i = device.session.next_chunk
        if attempts in fault_set:
            attempts += 1
            device.on_brownout()
            device.on_reboot()
            resumptions += 1
            continue
        chunk = image[i * chunk_size : (i + 1) * chunk_size]
        device.handle_chunk(i, chunk)
        attempts += 1
    state = device.session.state if device.session is not None else OtaState.IDLE
    return OtaTransferResult(
        completed=state is OtaState.ACTIVATED,
        resumptions=resumptions,
        chunk_attempts=attempts,
        final_state=state,
    )
