"""Discrete-time world simulation.

A car circulates on a cyclic track whose lane-change segments contain
two short unpowered gaps.  While powered the capacitor sits at the rail
voltage; inside a gap it discharges according to the active power state.
Gap occupancy is integrated exactly within each fixed step, so measured
drops do not depend on how gap edges align with the step grid.
`evaluate_strategies` runs one workload under several strategies and
`write_comparison_csv` tabulates their delivery metrics.
"""

from __future__ import annotations

import csv
import random
import statistics
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import IO, Iterable, Optional, Sequence

from .energy_model import (
    ClockTier,
    EnergyModelParams,
    PowerState,
    RadioMode,
    VoltageTrace,
    discharge_current,
)
from .log_store import LogRecord, LogStore, Severity
from .strategies import EnergyBudget, HostCollector, StrategyKind, make_driver
from .transports import LayoutError, WirelessLinkParams


class SegmentKind(Enum):
    STRAIGHT = "straight"
    CURVE = "curve"
    LANE_CHANGE = "lanechange"


@dataclass(frozen=True)
class Segment:
    kind: SegmentKind
    length: float
    gap_offsets: tuple[float, ...] = ()
    gap_length: float = 0.06

    def validate(self) -> None:
        if self.length <= 0:
            raise LayoutError("segment length must be > 0")
        if self.gap_length <= 0:
            raise LayoutError("gap length must be > 0")
        if self.kind is SegmentKind.LANE_CHANGE:
            if len(self.gap_offsets) != 2:
                raise LayoutError("lane-change segment needs exactly two gaps")
            a, b = sorted(self.gap_offsets)
            if a < 0 or b + self.gap_length > self.length:
                raise LayoutError("gaps must lie fully inside the segment")
            if a + self.gap_length > b:
                raise LayoutError("gaps must not overlap")
        elif self.gap_offsets:
            raise LayoutError(f"{self.kind.value} segments carry no gaps")


@dataclass
class TrackLayout:
    segments: list[Segment]
    dock_position: Optional[float] = None

    def __post_init__(self) -> None:
        # gap start/end positions in track order; a validated layout's gaps
        # are disjoint, so both lists are sorted and can be bisected
        self._starts: list[float] = []
        self._ends: list[float] = []
        offset = 0.0
        for seg in self.segments:
            for g in sorted(seg.gap_offsets):
                self._starts.append(offset + g)
                self._ends.append(offset + g + seg.gap_length)
            offset += seg.length
        self.total_length = offset

    def validate(self) -> None:
        if not self.segments:
            raise LayoutError("layout needs at least one segment")
        for seg in self.segments:
            seg.validate()
        if self.dock_position is not None:
            if not 0 <= self.dock_position < self.total_length:
                raise LayoutError("dock position outside the track")
            if self.in_gap(self.dock_position):
                raise LayoutError("dock position may not lie inside a gap")

    @property
    def gaps(self) -> list[tuple[float, float]]:
        return list(zip(self._starts, self._ends))

    def _gap_index(self, x: float) -> int:
        """Index of the gap holding track position `x`, or -1."""
        i = bisect_right(self._starts, x) - 1
        return i if i >= 0 and x < self._ends[i] else -1

    def in_gap(self, position: float) -> bool:
        return self._gap_index(position % self.total_length) >= 0

    def _overlap_span(self, a: float, b: float) -> float:
        # overlap of [a, b) with gaps, both within [0, total_length]; only
        # gaps ending after a and starting before b can overlap
        starts, ends = self._starts, self._ends
        total = 0.0
        for i in range(bisect_right(ends, a), bisect_left(starts, b)):
            lo, hi = max(a, starts[i]), min(b, ends[i])
            if hi > lo:
                total += hi - lo
        return total

    def unpowered_overlap(self, start: float, dist: float) -> float:
        """Length of the path [start, start+dist) that lies in gaps."""
        if dist <= 0 or not self._starts:
            return 0.0
        L = self.total_length
        x = start % L
        total = 0.0
        whole, dist = divmod(dist, L)
        if whole:
            total += whole * sum(e - s for s, e in self.gaps)
        end = x + dist
        if end <= L:
            total += self._overlap_span(x, end)
        else:
            total += self._overlap_span(x, L) + self._overlap_span(0.0, end - L)
        return total

    def crosses(self, start: float, dist: float, point: float) -> bool:
        """Whether the path [start, start+dist) passes `point`."""
        if dist <= 0:
            return False
        L = self.total_length
        x = start % L
        p = point % L
        ahead = (p - x) % L
        return ahead < dist


@dataclass
class CarState:
    position: float = 0.0
    speed: float = 0.0
    powered: bool = True
    capacitor_v: float = 9.0
    power_state: PowerState = PowerState(ClockTier.C80, RadioMode.OFF)


@dataclass(frozen=True)
class HostRequestSchedule:
    times: tuple[float, ...] = ()
    gap_aligned: bool = False

    def __post_init__(self) -> None:
        if any(t < 0 for t in self.times):
            raise ValueError("request times must be non-negative")
        if list(self.times) != sorted(self.times):
            raise ValueError("request times must be sorted")


class EventKind(Enum):
    GAP_ENTERED = "GapEntered"
    GAP_EXITED = "GapExited"
    BROWNOUT = "Brownout"
    REBOOT = "Reboot"
    REQUEST_ARRIVED = "RequestArrived"


@dataclass(frozen=True)
class Event:
    time: float
    kind: EventKind
    detail: str = ""


def events_to_csv(events: list[Event], fp: IO[str]) -> None:
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["time_s", "event", "detail"])
    for ev in events:
        writer.writerow([f"{ev.time:.6f}", ev.kind.value, ev.detail])


@dataclass
class ScenarioConfig:
    params: EnergyModelParams
    layout: TrackLayout
    speed: float = 3.0
    dt: float = 5.0e-4
    duration: float = 1.0
    seed: int = 0
    initial_state: PowerState = PowerState(ClockTier.C80, RadioMode.OFF)
    strategy: Optional[StrategyKind] = None
    controller: bool = False
    budget: EnergyBudget = field(default_factory=EnergyBudget)
    wireless: WirelessLinkParams = field(default_factory=WirelessLinkParams)
    workload_rate: float = 0.0        # records per second
    workload_payload: int = 16        # bytes per record
    schedule: HostRequestSchedule = field(default_factory=HostRequestSchedule)
    drain_interval: float = 10.0      # seconds between aperiodic drains
    wired_frame_time: float = 0.001   # seconds per frame on the dock link
    reboot_dead_time: float = 0.5
    recharge_rate: Optional[float] = None  # volts/second; None = instant
    ripple_amplitude: float = 0.0     # supply trace cosmetics only
    ram_capacity: int = 256
    flash_capacity: int = 65536
    name: str = "scenario"


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


@dataclass
class ScenarioResult:
    trace: VoltageTrace
    events: list[Event]
    metrics: DeliveryMetrics


class Simulation:
    """Single deterministic scenario run."""

    def __init__(self, cfg: ScenarioConfig) -> None:
        cfg.params.validate()
        cfg.layout.validate()
        if cfg.dt <= 0 or cfg.duration <= 0:
            raise LayoutError("dt and duration must be > 0")
        if cfg.speed < 0:
            raise LayoutError("speed must be >= 0")
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        nominal = cfg.params.nominal_voltage
        self.car = CarState(
            speed=cfg.speed,
            capacitor_v=nominal,
            power_state=cfg.initial_state,
        )
        self.store = LogStore(cfg.ram_capacity, cfg.flash_capacity)
        self.now = 0.0
        self.events: list[Event] = []
        self.extra_current = 0.0
        self.rebooting_until: Optional[float] = None
        self.min_cap_v = nominal
        self.last_step: tuple[float, float] = (0.0, 0.0)  # (start pos, dist)

        self.pending_requests: list[int] = []
        self.requests_arrived = 0
        self.requests_answered = 0
        self._next_request_idx = 0
        self._workload_acc = 0.0
        self._workload_payload = bytes(cfg.workload_payload)

        self.latencies: list[float] = []
        self.delivered_records = 0
        self.delivered_bytes = 0
        self.brownout_count = 0
        self.radio_on_s = 0.0
        self.bytes_stored_peak = 0
        self._backlog_samples: list[int] = []
        self._backlog_every = max(cfg.duration / 16.0, cfg.dt)
        self._next_backlog_at = 0.0

        self._samples: list[tuple[float, float, float]] = []

        self.host = HostCollector()
        self.driver = make_driver(cfg.strategy, self) if cfg.strategy else None

    # -- hooks used by strategy drivers -----------------------------------

    @property
    def active(self) -> bool:
        return self.rebooting_until is None

    def set_radio(self, mode: RadioMode) -> None:
        self.car.power_state = replace(self.car.power_state, radio=mode)

    def note_delivered(self, record: LogRecord, at: float) -> None:
        """Record delivery latency for one acked log record."""
        self.latencies.append(at - record.timestamp)
        self.delivered_records += 1
        self.delivered_bytes += len(record.payload)

    def answer_request(self, req_id: int) -> None:
        if req_id in self.pending_requests:
            self.pending_requests.remove(req_id)
            self.requests_answered += 1

    # -- event helpers ------------------------------------------------------

    def _emit(self, t: float, kind: EventKind, detail: str = "") -> None:
        self.events.append(Event(t, kind, detail))

    def _arrive_request(self, t: float) -> None:
        self.requests_arrived += 1
        req_id = self.requests_arrived
        self.pending_requests.append(req_id)
        self._emit(t, EventKind.REQUEST_ARRIVED, f"req={req_id}")

    def _on_brownout(self, t: float) -> None:
        self.brownout_count += 1
        self._emit(t, EventKind.BROWNOUT, f"cap_v={self.min_cap_v:.3f}")
        self.store.on_brownout()
        self.extra_current = 0.0
        self.car.power_state = PowerState(self.cfg.initial_state.clock, RadioMode.OFF)
        if self.driver is not None:
            self.driver.on_brownout()
        self.rebooting_until = t + self.cfg.reboot_dead_time

    # -- the step -----------------------------------------------------------

    def step(self) -> None:
        cfg = self.cfg
        layout = cfg.layout
        car = self.car
        dt = cfg.dt
        t1 = self.now + dt

        x0 = car.position
        dist = car.speed * dt
        if dist:
            car.position = (x0 + dist) % layout.total_length
        self.last_step = (x0, dist)

        was_in_gap = not car.powered
        in_gap = layout.in_gap(car.position)
        if in_gap and not was_in_gap:
            self._emit(t1, EventKind.GAP_ENTERED, f"pos={car.position:.4f}")
        elif was_in_gap and not in_gap:
            self._emit(t1, EventKind.GAP_EXITED, f"pos={car.position:.4f}")
        gap_entered = in_gap and not was_in_gap
        powered = not in_gap

        # reboot completion needs rail power
        if self.rebooting_until is not None and powered and t1 >= self.rebooting_until:
            self.rebooting_until = None
            self._emit(t1, EventKind.REBOOT, f"count={self.brownout_count}")
            if self.driver is not None:
                self.driver.on_reboot(t1)

        # host-side request schedule runs regardless of device health
        sched = cfg.schedule
        if sched.gap_aligned:
            if gap_entered:
                self._arrive_request(t1)
        else:
            while (
                self._next_request_idx < len(sched.times)
                and sched.times[self._next_request_idx] <= t1
            ):
                self._arrive_request(t1)
                self._next_request_idx += 1

        if self.active:
            self._workload_acc += cfg.workload_rate * dt
            while self._workload_acc >= 1.0:
                self._workload_acc -= 1.0
                self.store.append(Severity.INFO, self._workload_payload, t1)
            if self.driver is not None:
                self.store.flush()  # data must survive a gap while driving
                self.driver.tick(t1)

        # exact unpowered time within this step
        overlap = layout.unpowered_overlap(x0, dist) if dist else 0.0
        unpowered_time = overlap / car.speed if car.speed > 0 else (dt if in_gap else 0.0)
        v_mid = car.capacitor_v
        if unpowered_time > 0:
            current = cfg.params.current(car.power_state) + self.extra_current
            v_mid = discharge_current(
                car.capacitor_v, current, unpowered_time, cfg.params.capacitance
            )
        if v_mid < self.min_cap_v:
            self.min_cap_v = v_mid

        if (
            self.active
            and cfg.params.nominal_voltage - v_mid >= cfg.params.brownout_drop
        ):
            self._on_brownout(t1)

        if powered:
            if cfg.recharge_rate is None:
                car.capacitor_v = cfg.params.nominal_voltage
            else:
                car.capacitor_v = min(
                    cfg.params.nominal_voltage, v_mid + cfg.recharge_rate * dt
                )
        else:
            car.capacitor_v = v_mid
        car.powered = powered
        if self.active and car.power_state.radio is not RadioMode.OFF:
            self.radio_on_s += dt

        stored = self.store.flash_bytes
        if stored > self.bytes_stored_peak:
            self.bytes_stored_peak = stored
        if t1 >= self._next_backlog_at:
            self._backlog_samples.append(stored)
            self._next_backlog_at += self._backlog_every

        supply = 0.0
        if powered:
            supply = cfg.params.nominal_voltage
            if cfg.ripple_amplitude:
                # square-wave modulation of the track protocol; cosmetic only
                phase = (t1 % 0.075) < 0.0375
                supply += cfg.ripple_amplitude if phase else -cfg.ripple_amplitude
        self._samples.append((t1, supply, car.capacitor_v))
        self.now = t1

    def run(self) -> ScenarioResult:
        n_steps = round(self.cfg.duration / self.cfg.dt)
        for _ in range(n_steps):
            self.step()
        return ScenarioResult(
            trace=VoltageTrace(self._samples, self.cfg.dt),
            events=self.events,
            metrics=self._metrics(),
        )

    def _backlog_growing(self) -> bool:
        b = self._backlog_samples
        if len(b) < 4:
            return False
        record_size = self.cfg.workload_payload + 16
        return (
            b[-1] > b[len(b) // 2] > b[len(b) // 4]
            and b[-1] - b[len(b) // 4] >= 2 * record_size
        )

    def _metrics(self) -> DeliveryMetrics:
        lat = self.latencies
        return DeliveryMetrics(
            appended_records=self.store.appended,
            delivered_records=self.delivered_records,
            delivered_bytes=self.delivered_bytes,
            mean_latency_s=statistics.fmean(lat) if lat else 0.0,
            median_latency_s=statistics.median(lat) if lat else 0.0,
            p95_latency_s=(
                statistics.quantiles(lat, n=20)[-1] if len(lat) >= 2 else
                (lat[0] if lat else 0.0)
            ),
            brownout_count=self.brownout_count,
            max_drop_v=self.cfg.params.nominal_voltage - self.min_cap_v,
            radio_on_s=self.radio_on_s,
            bytes_stored_peak=self.bytes_stored_peak,
            requests_arrived=self.requests_arrived,
            requests_answered=self.requests_answered,
            dropped_records=self.store.dropped,
            evicted_records=self.store.evicted,
            lost_unflushed=self.store.lost_unflushed,
            backlog_growing=self._backlog_growing(),
        )


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Run one scenario to completion; deterministic per (config, seed)."""
    return Simulation(cfg).run()


#: comparison column -> the DeliveryMetrics field it shows
COMPARISON_FIELDS = {
    "delivered": "delivered_records",
    "median_latency_s": "median_latency_s",
    "brownouts": "brownout_count",
    "max_drop_v": "max_drop_v",
    "radio_on_s": "radio_on_s",
    "peak_storage_b": "bytes_stored_peak",
    "backlog_growing": "backlog_growing",
}


def write_comparison_csv(
    rows: Sequence[tuple[StrategyKind, DeliveryMetrics]], fp: IO[str]
) -> None:
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["strategy", *COMPARISON_FIELDS])
    for kind, m in rows:
        writer.writerow(
            [kind.value, *(_fmt(getattr(m, f)) for f in COMPARISON_FIELDS.values())]
        )


def evaluate_strategies(
    base_cfg: ScenarioConfig, kinds: Iterable[StrategyKind]
) -> list[tuple[StrategyKind, DeliveryMetrics]]:
    """Run the identical workload once per strategy; one metrics row each."""
    rows = []
    for kind in kinds:
        cfg = replace(base_cfg, strategy=kind, name=f"{base_cfg.name}_{kind.value}")
        rows.append((kind, run_scenario(cfg).metrics))
    return rows
