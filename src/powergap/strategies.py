"""Transmission strategies, the energy-budget controller, and OTA.

Each of the four strategies is a scheduler driving the simulated device
from inside the single-threaded scenario loop: aperiodic wired
(save-and-print-later at a dock), aperiodic wireless (stop-and-radio),
continuous powerline streaming, and continuous wireless with an optional
gap-aware transmission gate.  All four share one stop-and-wait frame
pump; each keeps only its policy: when to stop, connect, drain or gate.
Firmware updates use dual image slots with whole-image verification so
an interrupted transfer can never replace a good image with a corrupt
one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Optional

from .energy_model import RadioMode
from .transports import (
    Frame,
    FrameKind,
    LayoutError,
    Outcome,
    PowerlineChannel,
    WiredLink,
    WirelessLink,
    frame_encode,
    powerline_pack,
)

if TYPE_CHECKING:
    from .log_store import LogRecord
    from .track_world import Simulation


class StrategyKind(Enum):
    SAVE_AND_PRINT_LATER = "save_and_print_later"
    STOP_AND_RADIO = "stop_and_radio"
    POWERLINE_CONTINUOUS = "powerline_continuous"
    WIRELESS_CONTINUOUS = "wireless_continuous"


@dataclass(frozen=True)
class EnergyBudget:
    """Transmission gating thresholds; must stay below the brownout drop."""

    max_allowed_drop: float = 3.5  # volts
    lookahead: float = 0.050       # seconds of track scanned ahead


class Gate(Enum):
    ALLOW = "allow"
    DEFER = "defer"


def controller_gate(budget: EnergyBudget, sim: Simulation) -> Gate:
    """Decide whether a transmission may start right now.

    Defers when the car is in a gap, when a gap overlaps the lookahead
    window, or when the capacitor has already dropped past the budget.
    Deferred sends are re-evaluated every tick.
    """
    car = sim.car
    layout = sim.cfg.layout
    horizon = car.speed * budget.lookahead
    if layout.in_gap(car.position) or (
        horizon > 0 and layout.unpowered_overlap(car.position, horizon) > 0
    ):
        return Gate.DEFER
    if sim.cfg.params.nominal_voltage - car.capacitor_v > budget.max_allowed_drop:
        return Gate.DEFER
    return Gate.ALLOW


class HostCollector:
    """Host-side endpoint: dedups by seq, presents each record once."""

    def __init__(self) -> None:
        self.received: set[int] = set()
        self.presented: list[tuple[int, bytes]] = []

    def receive_log(self, seq: int, payload: bytes) -> int:
        if seq not in self.received:
            self.received.add(seq)
            self.presented.append((seq, payload))
        return seq  # cumulative ack: sender is stop-and-wait, lowest first


# --- strategy drivers ----------------------------------------------------

class Driver:
    """Scheduler hooks invoked from the scenario loop while the device
    is up, around one stop-and-wait frame pump.

    The pump keeps at most one frame in flight: a reply to the oldest
    pending request first, else the oldest unacked record.  When the
    frame reaches the host, `_finish` answers the request, or presents
    the record, acks it and records its latency from the record's own
    timestamp.  A link plugs in by overriding `_start`, which begins
    sending a frame, and `_ack_lost`.  A timed link sets `tx_until`; the
    strategy's `tick` calls `_finish` once it has passed.  Volatile
    driver state resets on brownout.
    """

    def __init__(self, sim: Simulation) -> None:
        self.sim = sim
        self.in_flight: Optional[Frame] = None  # reaches the host when its send ends
        self.tx_until: Optional[float] = None   # end of the timed send in progress
        self.record: Optional[LogRecord] = None  # behind the last log frame picked

    def tick(self, now: float) -> None:
        raise NotImplementedError

    def on_brownout(self) -> None:
        self.in_flight = None
        self.tx_until = None

    def on_reboot(self, now: float) -> None:
        pass

    def _next_frame(self) -> Optional[Frame]:
        sim = self.sim
        if sim.pending_requests:
            return Frame(FrameKind.REPLY, sim.pending_requests[0])
        record = self.record = sim.store.oldest_unacked()
        if record is not None:
            return Frame(FrameKind.LOG, record.seq, record.payload)
        return None

    def _start(self, now: float, frame: Frame) -> None:
        """Begin sending `frame` over this strategy's link."""
        raise NotImplementedError

    def _ack_lost(self) -> bool:
        return False

    def _finish(self, now: float) -> None:
        """End the send in progress and hand its frame to the host."""
        self.tx_until = None
        frame, self.in_flight = self.in_flight, None
        if frame is None:
            return  # lost frames stay unacked and get retransmitted
        sim = self.sim
        if frame.kind is FrameKind.REPLY:
            sim.answer_request(frame.seq)
            return
        ack_seq = sim.host.receive_log(frame.seq, frame.payload)
        if self._ack_lost():
            return  # the retransmission will be deduped host-side
        sim.store.ack_through(ack_seq)
        # the frame in flight is always the last one picked
        sim.note_delivered(self.record, now)


class _RadioDriver(Driver):
    """The wireless link: association, frame loss, airtime and ack loss.

    The radio shows Transmitting for exactly the frame airtime, whether
    or not the frame is lost, then returns to idle-connected.
    """

    def __init__(self, sim: Simulation) -> None:
        super().__init__(sim)
        self.link = WirelessLink(sim.cfg.wireless, sim.rng)
        self.connecting_until: Optional[float] = None

    def _begin_connect(self, now: float) -> None:
        wp = self.sim.cfg.wireless
        self.sim.set_radio(RadioMode.IDLE_CONNECTED)
        self.sim.extra_current = wp.connect_extra_current
        self.connecting_until = now + wp.connect_latency

    def _poll_connect(self, now: float) -> bool:
        if self.connecting_until is not None and now >= self.connecting_until - 1e-12:
            self.connecting_until = None
            self.sim.extra_current = 0.0
            self.link.associated = True
        return self.link.associated

    def _start(self, now: float, frame: Frame) -> None:
        wp = self.sim.cfg.wireless
        delivered = self.link.send_frame(frame) is Outcome.DELIVERED
        self.in_flight = frame if delivered else None
        airtime = wp.reply_airtime if frame.kind is FrameKind.REPLY else wp.per_frame_airtime
        self.tx_until = now + airtime
        self.sim.set_radio(RadioMode.TRANSMITTING)

    def _finish(self, now: float) -> None:
        self.sim.set_radio(RadioMode.IDLE_CONNECTED)
        super()._finish(now)

    def _ack_lost(self) -> bool:
        return self.link.lost()

    def on_brownout(self) -> None:
        super().on_brownout()
        self.link.associated = False
        self.connecting_until = None


class _DrainCycleDriver(Driver):
    """Aperiodic drains: cruise until one is due, stop (`_approach`),
    drain every pending frame, pause 0.5 s, cruise again."""

    def __init__(self, sim: Simulation) -> None:
        super().__init__(sim)
        self.cruise_speed = sim.cfg.speed
        self.next_drain = sim.cfg.drain_interval
        self.overhead_until = 0.0
        self.state = "cruise"

    def _approach(self, now: float) -> None:
        """Bring the car to a stop from which it can drain."""
        raise NotImplementedError

    def _end_drain(self) -> None:
        pass

    def tick(self, now: float) -> None:
        if self.tx_until is not None:
            if now < self.tx_until - 1e-12:
                return
            self._finish(now)
        state = self.state
        if state == "cruise":
            if now < self.next_drain:
                return
            state = self.state = "stop"
        if state == "drain":
            frame = self._next_frame()
            if frame is not None:
                self._start(now, frame)
            else:
                self._end_drain()
                self.overhead_until = now + 0.5
                self.state = "overhead"
        elif state == "overhead":
            if now >= self.overhead_until:
                self._cruise(now)
        else:
            self._approach(now)

    def _cruise(self, now: float) -> None:
        self.sim.car.speed = self.cruise_speed
        self.next_drain = now + self.sim.cfg.drain_interval
        self.state = "cruise"

    def on_brownout(self) -> None:
        super().on_brownout()
        self.state = "cruise"

    def on_reboot(self, now: float) -> None:
        self._cruise(now)


class WirelessContinuousDriver(_RadioDriver):
    """Radio stays associated; records stream out as they arrive."""

    def tick(self, now: float) -> None:
        if not self.link.associated:
            if self.connecting_until is None:
                self._begin_connect(now)
            if not self._poll_connect(now):
                return
        if self.tx_until is not None:
            if now < self.tx_until - 1e-12:
                return
            self._finish(now)
        frame = self._next_frame()
        if frame is None:
            return
        sim = self.sim
        if sim.cfg.controller and controller_gate(sim.cfg.budget, sim) is Gate.DEFER:
            return
        self._start(now, frame)


class StopAndRadioDriver(_DrainCycleDriver, _RadioDriver):
    """Drive, periodically stop anywhere outside a gap, drain by radio."""

    def _approach(self, now: float) -> None:
        sim = self.sim
        if self.state == "stop":
            if not sim.cfg.layout.in_gap(sim.car.position):
                sim.car.speed = 0.0
                self._begin_connect(now)
                self.state = "connecting"
        elif self._poll_connect(now):
            self.state = "drain"

    def _end_drain(self) -> None:
        self.sim.set_radio(RadioMode.OFF)
        self.link.associated = False


class SaveAndPrintLaterDriver(_DrainCycleDriver):
    """Drive, periodically stop at the dock, drain over the wired link."""

    def __init__(self, sim: Simulation) -> None:
        if sim.cfg.layout.dock_position is None:
            raise LayoutError("save_and_print_later needs a dock position")
        super().__init__(sim)
        self.wired = WiredLink(sim.cfg.layout)

    def _approach(self, now: float) -> None:
        sim = self.sim
        start, dist = sim.last_step
        dock = sim.cfg.layout.dock_position
        if sim.cfg.layout.crosses(start, dist, dock):
            sim.car.position = dock
            sim.car.speed = 0.0
            self.state = "drain"

    def _start(self, now: float, frame: Frame) -> None:
        # a frame the dock cannot take is not in flight; the next tick retries
        if self.wired.send_frame(frame, self.sim.car) is Outcome.DELIVERED:
            self.in_flight = frame
            self.tx_until = now + self.sim.cfg.wired_frame_time


class PowerlineContinuousDriver(Driver):
    """Stream records through track slots whenever the rails are live.

    A frame is done when its last slot is delivered.  The back-channel
    ack rides the track control protocol and is never lost.
    """

    def __init__(self, sim: Simulation) -> None:
        super().__init__(sim)
        self.channel = PowerlineChannel()

    def tick(self, now: float) -> None:
        for _value, last in self.channel.tick(now, self.sim.car.powered):
            if last:
                self._finish(now)
        if self.in_flight is None:
            frame = self._next_frame()
            if frame is not None:
                self._start(now, frame)

    def _start(self, now: float, frame: Frame) -> None:
        slots = powerline_pack(frame_encode(frame))
        for i, value in enumerate(slots):
            self.channel.enqueue(value, i == len(slots) - 1)
        self.in_flight = frame

    def on_brownout(self) -> None:
        super().on_brownout()
        self.channel.queue.clear()  # in-flight transfer state is volatile


def make_driver(kind: StrategyKind, sim: Simulation) -> Driver:
    return {
        StrategyKind.SAVE_AND_PRINT_LATER: SaveAndPrintLaterDriver,
        StrategyKind.STOP_AND_RADIO: StopAndRadioDriver,
        StrategyKind.POWERLINE_CONTINUOUS: PowerlineContinuousDriver,
        StrategyKind.WIRELESS_CONTINUOUS: WirelessContinuousDriver,
    }[kind](sim)


# --- corruption-safe OTA --------------------------------------------------

class OtaState(Enum):
    IDLE = "idle"
    RECEIVING = "receiving"
    VERIFYING = "verifying"
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
        self.chunk_writes = 0
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
        self.chunk_writes += 1
        s.next_chunk = index + 1
        self.persisted = replace(s)
        if s.next_chunk >= s.n_chunks:
            self._finish()
        return True

    def _finish(self) -> None:
        s = self.session
        assert s is not None
        s.state = OtaState.VERIFYING
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
