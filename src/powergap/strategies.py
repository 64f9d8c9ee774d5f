"""Transmission strategies, the energy-budget controller, and OTA.

Each of the four strategies is a scheduler driving the simulated device
from inside the single-threaded scenario loop: aperiodic wired
(save-and-print-later at a dock), aperiodic wireless (stop-and-radio),
continuous powerline streaming, and continuous wireless with an optional
gap-aware transmission gate.  Firmware updates use dual image slots with
whole-image verification so an interrupted transfer can never replace a
good image with a corrupt one.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import IO, Iterable, Optional, Sequence

from .energy_model import PowerState, RadioMode
from .track_world import ScenarioConfig, ScenarioResult, Simulation
from .transports import (
    Frame,
    FrameKind,
    Outcome,
    PowerlineChannel,
    WiredLink,
    WirelessLink,
    powerline_pack,
)


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

    Defers when a gap overlaps the lookahead window, or when keying the
    radio for the remainder of the current gap would push the total drop
    past the budget.  Deferred sends are re-evaluated every tick.
    """
    car = sim.car
    layout = sim.cfg.layout
    params = sim.cfg.params
    in_gap = layout.in_gap(car.position)
    horizon = car.speed * budget.lookahead
    if in_gap or (horizon > 0 and layout.unpowered_overlap(car.position, horizon) > 0):
        return Gate.DEFER
    tx_state = PowerState(car.power_state.clock, RadioMode.TRANSMITTING)
    remaining = 0.0
    if in_gap and car.speed > 0:
        x = car.position % layout.total_length
        remaining = (layout.gap_end_after(x) - x) / car.speed
    predicted = (
        params.nominal_voltage
        - car.capacitor_v
        + params.current(tx_state) * remaining / params.capacitance
    )
    if predicted > budget.max_allowed_drop:
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


@dataclass
class DeliveryMetrics:
    appended_records: int = 0
    delivered_records: int = 0
    delivered_bytes: int = 0
    mean_latency_s: float = 0.0
    median_latency_s: float = 0.0
    p95_latency_s: float = 0.0
    brownout_count: int = 0
    max_drop_v: float = 0.0
    radio_on_s: float = 0.0
    bytes_stored_peak: int = 0
    requests_arrived: int = 0
    requests_answered: int = 0
    dropped_records: int = 0
    evicted_records: int = 0
    lost_unflushed: int = 0
    backlog_growing: bool = False

    def write_csv(self, fp: IO[str]) -> None:
        writer = csv.writer(fp, lineterminator="\n")
        names = [f.name for f in fields(self)]
        writer.writerow(names)
        writer.writerow([_fmt(getattr(self, n)) for n in names])


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


COMPARISON_COLUMNS = [
    "strategy",
    "delivered",
    "median_latency_s",
    "brownouts",
    "max_drop_v",
    "radio_on_s",
    "peak_storage_b",
    "backlog_growing",
]


def write_comparison_csv(
    rows: Sequence[tuple[StrategyKind, DeliveryMetrics]], fp: IO[str]
) -> None:
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(COMPARISON_COLUMNS)
    for kind, m in rows:
        writer.writerow(
            [
                kind.value,
                m.delivered_records,
                f"{m.median_latency_s:.6f}",
                m.brownout_count,
                f"{m.max_drop_v:.6f}",
                f"{m.radio_on_s:.6f}",
                m.bytes_stored_peak,
                _fmt(m.backlog_growing),
            ]
        )


def evaluate_strategies(
    base_cfg: ScenarioConfig, kinds: Iterable[StrategyKind]
) -> list[tuple[StrategyKind, DeliveryMetrics]]:
    """Run the identical workload once per strategy; one metrics row each."""
    from dataclasses import replace
    from .track_world import run_scenario

    rows = []
    for kind in kinds:
        cfg = replace(base_cfg, strategy=kind, name=f"{base_cfg.name}_{kind.value}")
        rows.append((kind, run_scenario(cfg).metrics))
    return rows


# --- strategy drivers ----------------------------------------------------

class Driver:
    """Scheduler hooks invoked from the scenario loop while the device
    is up.  Volatile driver state resets on brownout."""

    def __init__(self, sim: Simulation) -> None:
        self.sim = sim

    def tick(self, now: float) -> None:
        raise NotImplementedError

    def on_brownout(self) -> None:
        pass

    def on_reboot(self, now: float) -> None:
        pass


class _RadioTxMixin:
    """Stop-and-wait frame pump over the wireless link.

    One frame in flight at a time, lowest unacked record first, replies
    before logs.  The radio shows Transmitting for exactly the frame
    airtime; ack loss triggers retransmission, the host dedups.
    """

    sim: Simulation

    def _init_radio(self) -> None:
        self.link = WirelessLink(self.sim.cfg.wireless, self.sim.rng)
        self.connecting_until: Optional[float] = None
        self.tx_until: Optional[float] = None
        self._tx_outcome: Optional[Outcome] = None
        self._tx_meta: Optional[tuple[str, int]] = None

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

    def _pick_frame(self) -> Optional[tuple[Frame, float, tuple[str, int]]]:
        sim = self.sim
        wp = sim.cfg.wireless
        if sim.pending_requests:
            req = sim.pending_requests[0]
            return Frame(FrameKind.REPLY, req), wp.reply_airtime, ("reply", req)
        record = sim.store.oldest_unacked()
        if record is not None:
            frame = Frame(FrameKind.LOG, record.seq, record.payload)
            return frame, wp.per_frame_airtime, ("log", record.seq)
        return None

    def _start_tx(self, now: float, frame: Frame, airtime: float, meta) -> None:
        self._tx_outcome = self.link.send_frame(frame)
        self._tx_meta = meta
        self.tx_until = now + airtime
        self.sim.set_radio(RadioMode.TRANSMITTING)

    def _complete_tx(self, now: float) -> None:
        if self.tx_until is None or now < self.tx_until - 1e-12:
            return
        self.tx_until = None
        self.sim.set_radio(RadioMode.IDLE_CONNECTED)
        outcome, meta = self._tx_outcome, self._tx_meta
        self._tx_outcome = self._tx_meta = None
        if outcome is not Outcome.DELIVERED or meta is None:
            return  # lost frames stay unacked and get retransmitted
        kind, value = meta
        if kind == "reply":
            self.sim.answer_request(value)
            return
        record = self.sim.store.oldest_unacked()
        payload = record.payload if record is not None and record.seq == value else b""
        ack_seq = self.sim.host.receive_log(value, payload)
        wp = self.sim.cfg.wireless
        if wp.loss_rate and self.sim.rng.random() < wp.loss_rate:
            return  # ack lost; the retransmission will be deduped host-side
        self.sim.store.ack_through(ack_seq)
        self.sim.note_delivered(value, now)

    def _reset_radio(self) -> None:
        self.link.associated = False
        self.connecting_until = None
        self.tx_until = None
        self._tx_outcome = self._tx_meta = None


class WirelessContinuousDriver(Driver, _RadioTxMixin):
    """Radio stays associated; records stream out as they arrive."""

    def __init__(self, sim: Simulation) -> None:
        super().__init__(sim)
        self._init_radio()

    def tick(self, now: float) -> None:
        sim = self.sim
        sim.store.flush()  # data must survive a gap while driving
        if not self.link.associated:
            if self.connecting_until is None:
                self._begin_connect(now)
            if not self._poll_connect(now):
                return
        self._complete_tx(now)
        if self.tx_until is not None:
            return
        picked = self._pick_frame()
        if picked is None:
            return
        frame, airtime, meta = picked
        if sim.cfg.controller:
            budget = sim.cfg.budget or EnergyBudget()
            if controller_gate(budget, sim) is Gate.DEFER:
                return
        self._start_tx(now, frame, airtime, meta)

    def on_brownout(self) -> None:
        self._reset_radio()


class StopAndRadioDriver(Driver, _RadioTxMixin):
    """Drive, periodically stop anywhere outside a gap, drain by radio."""

    def __init__(self, sim: Simulation) -> None:
        super().__init__(sim)
        self._init_radio()
        self.cruise_speed = sim.cfg.speed
        self.next_drain = sim.cfg.drain_interval
        self.overhead_until = 0.0
        self.state = "cruise"

    def tick(self, now: float) -> None:
        sim = self.sim
        sim.store.flush()
        self._complete_tx(now)
        if self.state == "cruise" and now >= self.next_drain:
            self.state = "wait_exit"
        if self.state == "wait_exit":
            if not sim.cfg.layout.in_gap(sim.car.position):
                sim.car.speed = 0.0
                self._begin_connect(now)
                self.state = "connecting"
        elif self.state == "connecting":
            if self._poll_connect(now):
                self.state = "drain"
        elif self.state == "drain":
            if self.tx_until is not None:
                return
            picked = self._pick_frame()
            if picked is not None:
                self._start_tx(now, *picked)
            else:
                sim.set_radio(RadioMode.OFF)
                self.link.associated = False
                self.overhead_until = now + 0.5
                self.state = "overhead"
        elif self.state == "overhead":
            if now >= self.overhead_until:
                sim.car.speed = self.cruise_speed
                self.next_drain = now + sim.cfg.drain_interval
                self.state = "cruise"

    def on_brownout(self) -> None:
        self._reset_radio()
        self.state = "cruise"

    def on_reboot(self, now: float) -> None:
        self.sim.car.speed = self.cruise_speed
        self.next_drain = now + self.sim.cfg.drain_interval


class SaveAndPrintLaterDriver(Driver):
    """Drive, periodically stop at the dock, drain over the wired link."""

    def __init__(self, sim: Simulation) -> None:
        super().__init__(sim)
        if sim.cfg.layout.dock_position is None:
            raise ValueError("save_and_print_later needs a dock position")
        self.wired = WiredLink(sim.cfg.layout)
        self.cruise_speed = sim.cfg.speed
        self.next_drain = sim.cfg.drain_interval
        self.overhead_until = 0.0
        self.tx_until: Optional[float] = None
        self._tx_meta: Optional[tuple[str, int]] = None
        self.state = "cruise"

    def tick(self, now: float) -> None:
        sim = self.sim
        sim.store.flush()
        self._complete_tx(now)
        if self.state == "cruise" and now >= self.next_drain:
            self.state = "seek_dock"
        if self.state == "seek_dock":
            start, dist = sim.last_step
            dock = sim.cfg.layout.dock_position
            if sim.cfg.layout.crosses(start, dist, dock):
                sim.car.position = dock
                sim.car.speed = 0.0
                self.state = "drain"
        elif self.state == "drain":
            if self.tx_until is not None:
                return
            meta = self._pick()
            if meta is None:
                self.overhead_until = now + 0.5
                self.state = "overhead"
            else:
                frame, label = meta
                outcome = self.wired.send_frame(frame, sim.car)
                if outcome is Outcome.DELIVERED:
                    self._tx_meta = label
                    self.tx_until = now + sim.cfg.wired_frame_time
        elif self.state == "overhead":
            if now >= self.overhead_until:
                sim.car.speed = self.cruise_speed
                self.next_drain = now + sim.cfg.drain_interval
                self.state = "cruise"

    def _pick(self) -> Optional[tuple[Frame, tuple[str, int]]]:
        sim = self.sim
        if sim.pending_requests:
            req = sim.pending_requests[0]
            return Frame(FrameKind.REPLY, req), ("reply", req)
        record = sim.store.oldest_unacked()
        if record is not None:
            return Frame(FrameKind.LOG, record.seq, record.payload), ("log", record.seq)
        return None

    def _complete_tx(self, now: float) -> None:
        if self.tx_until is None or now < self.tx_until - 1e-12:
            return
        self.tx_until = None
        kind, value = self._tx_meta  # type: ignore[misc]
        self._tx_meta = None
        if kind == "reply":
            self.sim.answer_request(value)
            return
        record = self.sim.store.oldest_unacked()
        payload = record.payload if record is not None and record.seq == value else b""
        ack_seq = self.sim.host.receive_log(value, payload)
        self.sim.store.ack_through(ack_seq)
        self.sim.note_delivered(value, now)

    def on_brownout(self) -> None:
        self.tx_until = None
        self._tx_meta = None
        self.state = "cruise"

    def on_reboot(self, now: float) -> None:
        self.sim.car.speed = self.cruise_speed
        self.next_drain = now + self.sim.cfg.drain_interval


class PowerlineContinuousDriver(Driver):
    """Stream records through track slots whenever the rails are live."""

    def __init__(self, sim: Simulation) -> None:
        super().__init__(sim)
        self.channel = PowerlineChannel()

    def tick(self, now: float) -> None:
        sim = self.sim
        sim.store.flush()
        for _value, tag in self.channel.tick(now, sim.car.powered):
            if tag is None:
                continue
            meta, is_last = tag
            if not is_last:
                continue
            kind, value = meta
            if kind == "reply":
                sim.answer_request(value)
            else:
                record = sim.store.oldest_unacked()
                payload = (
                    record.payload if record is not None and record.seq == value else b""
                )
                # the back-channel ack rides the track control protocol
                ack_seq = sim.host.receive_log(value, payload)
                sim.store.ack_through(ack_seq)
                sim.note_delivered(value, now)
        if not self.channel.queue:
            self._enqueue_next()

    def _enqueue_next(self) -> None:
        sim = self.sim
        if sim.pending_requests:
            req = sim.pending_requests[0]
            frame = Frame(FrameKind.REPLY, req)
            meta = ("reply", req)
        else:
            record = sim.store.oldest_unacked()
            if record is None:
                return
            frame = Frame(FrameKind.LOG, record.seq, record.payload)
            meta = ("log", record.seq)
        from .transports import frame_encode

        slots = powerline_pack(frame_encode(frame))
        for i, slot in enumerate(slots):
            self.channel.enqueue(slot.payload, (meta, i == len(slots) - 1))

    def on_brownout(self) -> None:
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

    Slot bytes, per-slot verification hashes, and the transfer progress
    marker are flash-backed and survive brownouts; the session object is
    volatile and is rebuilt from the persisted markers on reboot.
    """

    def __init__(self, active_image: bytes) -> None:
        self.slots: dict[str, bytearray] = {"A": bytearray(active_image), "B": bytearray()}
        self.active_slot = "A"
        self.slot_meta: dict[str, Optional[bytes]] = {
            "A": image_digest(active_image),
            "B": None,
        }
        self.session: Optional[OtaSession] = None
        self._markers: dict[str, object] = {}  # persisted transfer progress
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
        self._markers = {
            "size": image_size,
            "chunk_size": chunk_size,
            "next": 0,
            "target": target,
            "hash": image_hash,
        }
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
        self._markers["next"] = s.next_chunk
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
            self._markers = {}
        else:
            self.slots[s.target_slot] = bytearray()
            self.slot_meta[s.target_slot] = None
            s.state = OtaState.IDLE
            self.session = None
            self._markers = {}

    # -- fault handling ----------------------------------------------------

    def on_brownout(self) -> None:
        self.session = None

    def on_reboot(self) -> None:
        if self.pending_swap is not None and self.slot_verifies(self.pending_swap):
            self.active_slot = self.pending_swap
            self.pending_swap = None
            return
        if self._markers:
            self.session = OtaSession(
                image_size=self._markers["size"],          # type: ignore[arg-type]
                chunk_size=self._markers["chunk_size"],    # type: ignore[arg-type]
                next_chunk=self._markers["next"],          # type: ignore[arg-type]
                target_slot=self._markers["target"],       # type: ignore[arg-type]
                image_hash=self._markers["hash"],          # type: ignore[arg-type]
                state=OtaState.RECEIVING,
            )
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
