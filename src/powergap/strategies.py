"""Transmission strategies and the energy-budget controller.

Each of the four strategies is a scheduler driving the simulated device
from inside the single-threaded scenario loop: aperiodic wired
(save-and-print-later at a dock), aperiodic wireless (stop-and-radio),
continuous powerline streaming, and continuous wireless with an optional
gap-aware transmission gate.  All four share one stop-and-wait frame
pump; each keeps only its policy: when to stop, connect, drain or gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional

from .energy_model import RadioMode
from .transports import FRAME_OVERHEAD, Outcome, PowerlineChannel, powerline_slots

if TYPE_CHECKING:
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
    """Host-side endpoint: presents each record once.  The sender is
    stop-and-wait, lowest seq first, so a seq not above the last one
    presented is a retransmission."""

    def __init__(self) -> None:
        self.presented: list[tuple[int, bytes]] = []

    def receive_log(self, seq: int, payload: bytes) -> int:
        if not self.presented or seq > self.presented[-1][0]:
            self.presented.append((seq, payload))
        return seq  # cumulative ack: sender is stop-and-wait, lowest first


# --- strategy drivers ----------------------------------------------------

#: What the pump sends to answer the oldest pending request.
REPLY = object()


class Driver:
    """Scheduler hooks invoked from the scenario loop while the device
    is up, around one stop-and-wait frame pump.

    The pump keeps at most one frame in flight, and `in_flight` holds
    what it carries: `REPLY`, to the oldest pending request, first, else
    the oldest unacked record itself.  When the frame reaches the host,
    `_finish` answers the request, or presents the record, acks it and
    records its latency from the record's own timestamp.  A link plugs
    in by overriding `_start`, which begins sending a frame, and
    `_ack_lost`.  A timed link sets `tx_until`, the send's end less a
    rounding margin; the strategy's `tick` calls `_finish` once it is
    reached.  Volatile driver state resets on brownout.
    """

    def __init__(self, sim: Simulation) -> None:
        self.sim = sim
        self.in_flight: object = None          # reaches the host when its send ends
        self.tx_until: Optional[float] = None  # end of the timed send in progress

    def tick(self, now: float) -> None:
        raise NotImplementedError

    def next_wake(self, now: float) -> float:
        """The first step-end time at which `tick` can act, `math.inf`
        if none; a tick before it changes nothing.

        Work already waiting counts.  Position limits (gap edges, the
        dock) belong to the scenario loop, which never skips past one,
        and a gate's deferral holds until the next gap edge while the
        capacitor stays as it is.  Inside the loop's quiet stretches on
        powered track requests arrive only on full steps and acks happen
        only in ticks, so between ticks the wake can move only when a
        record lands in an empty flash; once work waits, more records
        leave it unchanged.  So the loop asks at the start of each
        stretch, after each tick and after each such record.  The
        default, `now`, lets no tick be skipped.  A tick may stop or
        start the car, but must not move it.
        """
        return now

    def on_brownout(self) -> None:
        self.in_flight = None
        self.tx_until = None

    def on_reboot(self, now: float) -> None:
        pass

    def _next_frame(self) -> object:
        """What goes next: `REPLY`, else the oldest unacked record, else None."""
        sim = self.sim
        if sim.requests_answered < sim.requests_arrived:
            return REPLY
        return sim.store.oldest_unacked()

    def _start(self, now: float, frame: object) -> None:
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
        if frame is REPLY:
            sim.requests_answered += 1
            return
        ack_seq = sim.host.receive_log(frame.seq, frame.payload)
        if self._ack_lost():
            return  # the retransmission will be deduped host-side
        sim.store.ack_through(ack_seq)
        sim.note_delivered(frame, now)


class _RadioDriver(Driver):
    """The wireless link: association, frame loss, airtime and ack loss.

    Frames go out only once associated; each frame and each ack is lost
    on one draw from the scenario's seeded generator.  The radio shows
    Transmitting for exactly the frame airtime, whether or not the frame
    is lost, then returns to idle-connected.
    """

    def __init__(self, sim: Simulation) -> None:
        super().__init__(sim)
        self.associated = False
        self.connecting_until: Optional[float] = None

    def _begin_connect(self, now: float) -> None:
        wp = self.sim.cfg.wireless
        self.sim.set_radio(RadioMode.IDLE_CONNECTED)
        self.sim.extra_current = wp.connect_extra_current
        self.connecting_until = now + wp.connect_latency - 1e-12

    def _poll_connect(self, now: float) -> bool:
        if self.connecting_until is not None and now >= self.connecting_until:
            self.connecting_until = None
            self.sim.extra_current = 0.0
            self.associated = True
        return self.associated

    def _lost(self) -> bool:
        """One Bernoulli loss draw, for a frame or for its ack."""
        loss_rate = self.sim.cfg.wireless.loss_rate
        return loss_rate > 0 and self.sim.rng.random() < loss_rate

    def send_frame(self, frame: object) -> Outcome:
        """Put `frame` on the air: it reaches the host or is lost."""
        return Outcome.LOST if self._lost() else Outcome.DELIVERED

    def _start(self, now: float, frame: object) -> None:
        wp = self.sim.cfg.wireless
        delivered = self.send_frame(frame) is Outcome.DELIVERED
        self.in_flight = frame if delivered else None
        airtime = wp.reply_airtime if frame is REPLY else wp.per_frame_airtime
        self.tx_until = now + airtime - 1e-12
        self.sim.set_radio(RadioMode.TRANSMITTING)

    def _finish(self, now: float) -> None:
        self.sim.set_radio(RadioMode.IDLE_CONNECTED)
        super()._finish(now)

    def _ack_lost(self) -> bool:
        return self._lost()

    def on_brownout(self) -> None:
        super().on_brownout()
        self.associated = False
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

    def next_wake(self, now: float) -> float:
        if self.tx_until is not None:
            return self.tx_until
        if self.state == "cruise":
            return self.next_drain
        return self.overhead_until if self.state == "overhead" else now

    def tick(self, now: float) -> None:
        if self.tx_until is not None:
            if now < self.tx_until:
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

    def next_wake(self, now: float) -> float:
        if not self.associated:
            return now if self.connecting_until is None else self.connecting_until
        if self.tx_until is not None:
            return self.tx_until
        return math.inf if self._next_frame() is None or self._gate_defers() else now

    def _gate_defers(self) -> bool:
        sim = self.sim
        return sim.cfg.controller and controller_gate(sim.cfg.budget, sim) is Gate.DEFER

    def tick(self, now: float) -> None:
        if not self.associated:
            if self.connecting_until is None:
                self._begin_connect(now)
            if not self._poll_connect(now):
                return
        if self.tx_until is not None:
            if now < self.tx_until:
                return
            self._finish(now)
        frame = self._next_frame()
        if frame is not None and not self._gate_defers():
            self._start(now, frame)


class StopAndRadioDriver(_DrainCycleDriver, _RadioDriver):
    """Drive, periodically stop anywhere outside a gap, drain by radio.
    The car waits in state "stop" while the radio associates."""

    def next_wake(self, now: float) -> float:
        if self.connecting_until is not None:
            return self.connecting_until
        return super().next_wake(now)

    def _approach(self, now: float) -> None:
        sim = self.sim
        if self.connecting_until is None:
            if not sim.cfg.layout.in_gap(sim.car.position):
                sim.car.speed = 0.0
                self._begin_connect(now)
        elif self._poll_connect(now):
            self.state = "drain"

    def _end_drain(self) -> None:
        self.sim.set_radio(RadioMode.OFF)
        self.associated = False


class SaveAndPrintLaterDriver(_DrainCycleDriver):
    """Drive, periodically stop at the dock, drain over the wired link."""

    def next_wake(self, now: float) -> float:
        # stopping acts only on the step that crosses the dock, and the
        # scenario loop stops short of the dock by itself
        return math.inf if self.state == "stop" else super().next_wake(now)

    def _approach(self, now: float) -> None:
        sim = self.sim
        if sim.crossed_dock:
            sim.car.position = sim.cfg.layout.dock_position
            sim.car.speed = 0.0
            self.state = "drain"

    def _start(self, now: float, frame: object) -> None:
        # `_approach` parked the car at the dock, and it stays there until
        # `_cruise`
        self.in_flight = frame
        self.tx_until = now + self.sim.cfg.wired_frame_time - 1e-12


class PowerlineContinuousDriver(Driver):
    """Stream records through track slots whenever the rails are live.

    A frame is done when its last slot is delivered.  The back-channel
    ack rides the track control protocol and is never lost.
    """

    def __init__(self, sim: Simulation) -> None:
        super().__init__(sim)
        self.channel = PowerlineChannel()

    def next_wake(self, now: float) -> float:
        if self.in_flight is None and self._next_frame() is not None:
            return now
        # `channel.tick` takes a boundary a margin past `now`; twice that
        # margin keeps the wake short of it after rounding
        return self.channel.next_boundary - 2e-12

    def tick(self, now: float) -> None:
        if self.channel.tick(now, self.sim.car.powered):
            self._finish(now)
        if self.in_flight is None:
            frame = self._next_frame()
            if frame is not None:
                self._start(now, frame)

    def _start(self, now: float, frame: object) -> None:
        payload_len = 0 if frame is REPLY else len(frame.payload)
        self.channel.slots_left = powerline_slots(FRAME_OVERHEAD + payload_len)
        self.in_flight = frame

    def on_brownout(self) -> None:
        super().on_brownout()
        self.channel.slots_left = 0  # in-flight transfer state is volatile


def make_driver(kind: StrategyKind, sim: Simulation) -> Driver:
    return {
        StrategyKind.SAVE_AND_PRINT_LATER: SaveAndPrintLaterDriver,
        StrategyKind.STOP_AND_RADIO: StopAndRadioDriver,
        StrategyKind.POWERLINE_CONTINUOUS: PowerlineContinuousDriver,
        StrategyKind.WIRELESS_CONTINUOUS: WirelessContinuousDriver,
    }[kind](sim)
