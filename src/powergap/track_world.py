"""Discrete-time world simulation.

A car circulates on a cyclic track whose lane-change segments contain
two short unpowered gaps.  While powered the capacitor sits at the rail
voltage; inside a gap it discharges according to the active power state.
Gap occupancy is integrated exactly within each fixed step, so measured
drops do not depend on how gap edges align with the step grid.
`ScenarioConfig.validate`, called by `Simulation`, checks each value's
range and each rule tying values together, so a bad config built in
Python and a bad scenario file are refused alike, in the same words.
After every step, `Simulation.run` runs the quiet stretch that follows
in a tight loop, one for powered track and one for gaps, that makes the
same float operations as `step`, so every output is byte-identical;
`Simulation._quiet_stretch` states when a stretch runs.  The loop asks a
driver one thing, `next_wake(now)`, and relies on the rule its docstring
states.
`evaluate_strategies` runs one workload under several strategies and
`write_comparison_csv` tabulates their delivery metrics.
"""

from __future__ import annotations

import csv
import math
import random
from bisect import bisect_left, bisect_right
from enum import Enum
from itertools import chain
from operator import attrgetter
from typing import IO, Iterable, NamedTuple, Optional, Sequence

from .energy_model import (
    ALL_POWER_STATES,
    ByValue,
    ClockTier,
    ConfigError,
    EnergyModelParams,
    PowerState,
    RadioMode,
    VoltageTrace,
    check_range,
    discharge_current,
    replace,
)
from .log_store import RECORD_OVERHEAD, LogRecord, LogStore, Severity
from .strategies import EnergyBudget, HostCollector, StrategyKind, make_driver
from .transports import MAX_PAYLOAD, WirelessLinkParams


class LayoutError(ConfigError):
    """Invalid track layout, or scenario config values that do not fit."""


def _range(value: float, key: tuple[str, str], minimum: float, exclusive: bool = False,
           maximum: Optional[float] = None) -> None:
    check_range(value, key, minimum, exclusive, maximum, LayoutError)


_SEGMENTS = ("track", "segments")
_GAPS = (_SEGMENTS, ("track", "gap_length"))  # gap_length moves every gap
_DOCK = ("track", "dock_position")


class SegmentKind(Enum):
    STRAIGHT = "straight"
    CURVE = "curve"
    LANE_CHANGE = "lanechange"


class Segment(NamedTuple):
    """One piece of track: straight, curve or lane change, with its gaps."""

    kind: SegmentKind
    length: float
    gap_offsets: tuple[float, ...] = ()
    gap_length: float = 0.06

    def validate(self) -> None:
        if not all(map(math.isfinite, (self.length, *self.gap_offsets))):
            raise LayoutError("segment length and gap offsets must be finite",
                              _SEGMENTS, keyed=True)
        if self.length <= 0:
            raise LayoutError("segment length must be > 0", _SEGMENTS, keyed=True)
        _range(self.gap_length, ("track", "gap_length"), 0.0, exclusive=True)
        if self.kind is SegmentKind.LANE_CHANGE:
            if len(self.gap_offsets) != 2:
                raise LayoutError("lane-change segment needs exactly two gaps",
                                  _SEGMENTS, keyed=True)
            a, b = sorted(self.gap_offsets)
            if a < 0 or b + self.gap_length > self.length:
                raise LayoutError("gaps must lie fully inside the segment",
                                  *_GAPS, keyed=True)
            if a + self.gap_length > b:
                raise LayoutError("gaps must not overlap", *_GAPS, keyed=True)
        elif self.gap_offsets:
            raise LayoutError(f"{self.kind.value} segments carry no gaps",
                              _SEGMENTS, keyed=True)


class TrackLayout(ByValue):
    """A closed loop of segments, with an optional dock position."""

    _fields = ("segments", "dock_position")

    def __init__(self, segments: list[Segment], dock_position: Optional[float] = None) -> None:
        self.segments = segments
        self.dock_position = dock_position
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
            raise LayoutError("layout needs at least one segment", _SEGMENTS, keyed=True)
        for seg in self.segments:
            seg.validate()
        if self.dock_position is not None:
            if not 0 <= self.dock_position < self.total_length:
                raise LayoutError("dock position outside the track", _DOCK, keyed=True)
            if self.in_gap(self.dock_position):
                raise LayoutError("dock position may not lie inside a gap",
                                  _DOCK, keyed=True)

    @property
    def gaps(self) -> list[tuple[float, float]]:
        return list(zip(self._starts, self._ends))

    def in_gap(self, position: float) -> bool:
        x = position % self.total_length
        i = bisect_right(self._starts, x) - 1
        return i >= 0 and x < self._ends[i]

    def edge_ahead(self, x: float) -> float:
        """The first gap edge after `x` in [0, total_length): the end of
        the gap holding `x`, else the next gap start, else the track end."""
        starts = self._starts
        i = bisect_right(starts, x)
        if i and x < self._ends[i - 1]:
            return self._ends[i - 1]
        return starts[i] if i < len(starts) else self.total_length

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


class CarState(ByValue):
    """The car's position, speed, supply and capacitor state at one instant."""

    __slots__ = _fields = ("position", "speed", "powered", "capacitor_v", "power_state")

    def __init__(self, position: float = 0.0, speed: float = 0.0, powered: bool = True,
                 capacitor_v: float = 9.0,
                 power_state: PowerState = PowerState(ClockTier.C80, RadioMode.OFF)) -> None:
        self.position = position
        self.speed = speed
        self.powered = powered
        self.capacitor_v = capacitor_v
        self.power_state = power_state


class HostRequestSchedule(NamedTuple):
    """When the host asks the car for a reply: fixed times or each gap entry."""

    times: tuple[float, ...] = ()
    gap_aligned: bool = False


class EventKind(Enum):
    GAP_ENTERED = "GapEntered"
    GAP_EXITED = "GapExited"
    BROWNOUT = "Brownout"
    REBOOT = "Reboot"
    REQUEST_ARRIVED = "RequestArrived"


class Event(ByValue):
    """One timed entry in a run's event log."""

    __slots__ = _fields = ("time", "kind", "detail")

    def __init__(self, time: float, kind: EventKind, detail: str = "") -> None:
        self.time = time
        self.kind = kind
        self.detail = detail


def events_to_csv(events: list[Event], fp: IO[str]) -> None:
    # the same bytes as csv.writer: no field holds a comma, quote or newline
    fp.write("time_s,event,detail\n" + "%.6f,%s,%s\n" * len(events) % tuple(
        chain.from_iterable(map(attrgetter("time", "kind._value_", "detail"), events))))


#: The largest run a `Simulation` accepts, so that every run ends: at
#: most MAX_STEPS fixed steps (`duration / dt`; 10**7 is about 83
#: simulated minutes at the default 0.5 ms, and its trace CSV about
#: 300 MB) and MAX_RECORDS appended records (`workload_rate * duration`).
MAX_STEPS = 10**7
MAX_RECORDS = 10**7


class ScenarioConfig(ByValue):
    """Everything one simulation run needs: energy, track, strategy and workload."""

    _fields = ("params", "layout", "speed", "dt", "duration", "seed", "initial_state",
               "strategy", "controller", "budget", "wireless", "workload_rate",
               "workload_payload", "schedule", "drain_interval", "wired_frame_time",
               "reboot_dead_time", "ram_capacity", "flash_capacity", "name")
    # the defaults a scenario file's choices fall back to
    initial_state = PowerState(ClockTier.C80, RadioMode.OFF)
    strategy: Optional[StrategyKind] = None
    controller = False

    def __init__(self, params: EnergyModelParams, layout: TrackLayout, speed: float = 3.0,
                 dt: float = 5.0e-4, duration: float = 1.0, seed: int = 0,
                 initial_state: PowerState = initial_state,
                 strategy: Optional[StrategyKind] = strategy,
                 controller: bool = controller,
                 budget: EnergyBudget = EnergyBudget(),
                 wireless: Optional[WirelessLinkParams] = None, workload_rate: float = 0.0,
                 workload_payload: int = 16,
                 schedule: HostRequestSchedule = HostRequestSchedule(),
                 drain_interval: float = 10.0, wired_frame_time: float = 0.001,
                 reboot_dead_time: float = 0.5, ram_capacity: int = 256,
                 flash_capacity: int = 65536, name: str = "scenario") -> None:
        self.params = params
        self.layout = layout
        self.speed = speed
        self.dt = dt
        self.duration = duration
        self.seed = seed
        self.initial_state = initial_state
        self.strategy = strategy
        self.controller = controller
        self.budget = budget
        self.wireless = WirelessLinkParams() if wireless is None else wireless
        self.workload_rate = workload_rate            # records per second
        self.workload_payload = workload_payload      # bytes per record
        self.schedule = schedule
        self.drain_interval = drain_interval          # seconds between aperiodic drains
        self.wired_frame_time = wired_frame_time      # seconds per frame on the dock link
        self.reboot_dead_time = reboot_dead_time
        self.ram_capacity = ram_capacity
        self.flash_capacity = flash_capacity
        self.name = name

    def validate(self) -> None:
        """Refuse values that do not fit together: the one statement of
        these rules, for configs built in Python and parsed files alike."""
        self.params.validate()
        self.layout.validate()
        self.wireless.validate()
        times = self.schedule.times
        if not all(map(math.isfinite, times)):
            raise LayoutError("request times must be finite",
                              ("schedule", "requests"), keyed=True)
        if any(t < 0 for t in times):
            raise LayoutError("request times must be non-negative",
                              ("schedule", "requests"), keyed=True)
        if list(times) != sorted(times):
            raise LayoutError("request times must be sorted",
                              ("schedule", "requests"), keyed=True)
        if times and self.schedule.gap_aligned:
            raise LayoutError("requests are either timed or gap-aligned, not both",
                              ("schedule", "requests"), keyed=True)
        _range(self.duration, ("run", "duration"), 0.0, exclusive=True)
        _range(self.dt, ("run", "dt"), 0.0, exclusive=True)
        _range(self.speed, ("car", "speed"), 0.0)
        _range(self.workload_rate, ("workload", "rate"), 0.0)
        _range(self.budget.max_allowed_drop, ("budget", "max_allowed_drop"), 0.0,
               exclusive=True)
        _range(self.budget.lookahead, ("budget", "lookahead"), 0.0)
        _range(self.workload_payload, ("workload", "payload_size"), 0, maximum=MAX_PAYLOAD)
        _range(self.drain_interval, ("strategy", "drain_interval"), 0.0, exclusive=True)
        _range(self.reboot_dead_time, ("strategy", "reboot_dead_time"), 0.0)
        _range(self.wired_frame_time, ("run", "wired_frame_time"), 0.0, exclusive=True)
        _range(self.ram_capacity, ("run", "ram_capacity"), 1)
        _range(self.flash_capacity, ("run", "flash_capacity"), 1)
        steps = self.duration / self.dt
        if not steps <= MAX_STEPS:  # also refuses NaN and inf
            raise LayoutError(
                f"duration / dt is {steps:.4g} steps, above the cap of {MAX_STEPS}",
                ("run", "duration"), ("run", "dt"), keyed=True,
            )
        records = self.workload_rate * self.duration
        if not records <= MAX_RECORDS:
            raise LayoutError(
                f"rate * duration is {records:.4g} records, above the cap of "
                f"{MAX_RECORDS}",
                ("workload", "rate"), keyed=True,
            )
        record_size = self.workload_payload + RECORD_OVERHEAD
        if self.flash_capacity < record_size:
            raise LayoutError(
                f"flash_capacity ({self.flash_capacity}) must hold one record of "
                f"payload_size + {RECORD_OVERHEAD} = {record_size} bytes",
                ("run", "flash_capacity"),
            )
        if (self.strategy is StrategyKind.SAVE_AND_PRINT_LATER
                and self.layout.dock_position is None):
            raise LayoutError(
                "save_and_print_later needs a dock_position in [track]",
                ("strategy", "kind"),
            )
        if not self.budget.max_allowed_drop < self.params.brownout_drop:
            raise LayoutError(
                f"max_allowed_drop ({self.budget.max_allowed_drop}) must stay below "
                f"brownout_drop ({self.params.brownout_drop})",
                ("budget", "max_allowed_drop"),
            )


class DeliveryMetrics(ByValue):
    """Per-run delivery, latency, energy and storage figures."""

    _fields = ("appended_records", "delivered_records", "delivered_bytes",
               "mean_latency_s", "median_latency_s", "p95_latency_s", "brownout_count",
               "max_drop_v", "radio_on_s", "bytes_stored_peak", "requests_arrived",
               "requests_answered", "dropped_records", "evicted_records", "lost_unflushed",
               "backlog_growing")

    def __init__(self, appended_records: int = 0, delivered_records: int = 0,
                 delivered_bytes: int = 0, mean_latency_s: float = 0.0,
                 median_latency_s: float = 0.0, p95_latency_s: float = 0.0,
                 brownout_count: int = 0, max_drop_v: float = 0.0, radio_on_s: float = 0.0,
                 bytes_stored_peak: int = 0, requests_arrived: int = 0,
                 requests_answered: int = 0, dropped_records: int = 0,
                 evicted_records: int = 0, lost_unflushed: int = 0,
                 backlog_growing: bool = False) -> None:
        self.appended_records = appended_records
        self.delivered_records = delivered_records
        self.delivered_bytes = delivered_bytes
        self.mean_latency_s = mean_latency_s
        self.median_latency_s = median_latency_s
        self.p95_latency_s = p95_latency_s
        self.brownout_count = brownout_count
        self.max_drop_v = max_drop_v
        self.radio_on_s = radio_on_s
        self.bytes_stored_peak = bytes_stored_peak
        self.requests_arrived = requests_arrived
        self.requests_answered = requests_answered
        self.dropped_records = dropped_records
        self.evicted_records = evicted_records
        self.lost_unflushed = lost_unflushed
        self.backlog_growing = backlog_growing

    def write_csv(self, fp: IO[str]) -> None:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(self._fields)
        writer.writerow([_fmt(v) for v in self._values()])


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


class ScenarioResult:
    """What a run produces: the voltage trace, its events and its metrics."""

    def __init__(self, trace: VoltageTrace, events: list[Event],
                 metrics: DeliveryMetrics) -> None:
        self.trace = trace
        self.events = events
        self.metrics = metrics


def _summed(d: float, n: int) -> float:
    """`n` float additions of `d` > 0 from 0.0, bit for bit, in a few rounds per
    binade: inside one, k additions add k times d rounded to its grid."""
    s, n = (d, n - 1) if n > 0 else (0.0, 0)
    while n:
        u = math.ulp(s)
        r = d / u  # exact: u is a power of two
        q = round(r)  # half to even
        room = (math.ldexp(1.0, math.frexp(s)[1]) - s) / u  # grid steps to the top
        # a float addition for a binade's last, and for a tie on an odd sum,
        # which rounds up to an even sum that then stays even
        if r % 1 == 0.5 and s / u % 2 or room <= q:
            s, n = s + d, n - 1
        elif q:
            k = min(int(room - 1) // q, n)
            s, n = s + k * q * u, n - k
        else:
            break  # s + d rounds back to s
    return s


#: each power state by (clock, radio), so a radio switch builds none
_POWER_STATES = {(s.clock, s.radio): s for s in ALL_POWER_STATES}


class Simulation:
    """Single deterministic scenario run."""

    def __init__(self, cfg: ScenarioConfig) -> None:
        cfg.validate()
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
        self.crossed_dock = False  # whether the last step passed the dock

        # requests are answered oldest first: those pending are numbered
        # requests_answered + 1 through requests_arrived
        self.requests_arrived = 0
        self.requests_answered = 0
        self._next_request_idx = 0
        self._workload_acc = 0.0
        self._workload_payload = bytes(cfg.workload_payload)

        self.latencies: list[float] = []
        self.delivered_records = 0
        self.delivered_bytes = 0
        self.brownout_count = 0
        self.radio_steps = 0  # steps the device spent active with its radio on
        self.bytes_stored_peak = 0
        self._backlog_samples: list[int] = []
        self._backlog_every = max(cfg.duration / 16.0, cfg.dt)
        self._next_backlog_at = 0.0
        # strictly between the last two step times: k steps sum to k*dt ± k*k*dt*2**-54
        self._end = (round(cfg.duration / cfg.dt) - 0.5) * cfg.dt

        # the trace: (count, supply_v, cap_v) runs of equal samples at the nominal
        # voltage, and one per gap crossing with a cap_v per row
        self._runs: list[tuple[int, float, float | list[float]]] = []

        self.host = HostCollector()
        self.driver = make_driver(cfg.strategy, self) if cfg.strategy else None
        # where save_and_print_later stops: quiet stretches stop short of it
        self._dock = (cfg.layout.dock_position
                      if cfg.strategy is StrategyKind.SAVE_AND_PRINT_LATER else None)

    @property
    def radio_on_s(self) -> float:
        """The float sum of dt over the steps the radio was on and active."""
        return _summed(self.cfg.dt, self.radio_steps)

    # -- hooks used by strategy drivers -----------------------------------

    @property
    def active(self) -> bool:
        return self.rebooting_until is None

    def set_radio(self, mode: RadioMode) -> None:
        self.car.power_state = _POWER_STATES[self.car.power_state.clock, mode]

    def note_delivered(self, record: LogRecord, at: float) -> None:
        """Record delivery latency for one acked log record."""
        self.latencies.append(at - record.timestamp)
        self.delivered_records += 1
        self.delivered_bytes += len(record.payload)

    # -- event helpers ------------------------------------------------------

    def _record(self, n: int) -> None:
        """Add `n` trace samples on powered track, at the nominal voltage,
        merged into the last run unless that is a gap crossing's."""
        runs, nominal = self._runs, self.cfg.params.nominal_voltage
        if runs and type(runs[-1][2]) is not list:
            n += runs.pop()[0]
        runs.append((n, nominal, nominal))

    def _emit(self, t: float, kind: EventKind, detail: str = "") -> None:
        self.events.append(Event(t, kind, detail))

    def _arrive_request(self, t: float) -> None:
        self.requests_arrived += 1
        self._emit(t, EventKind.REQUEST_ARRIVED, f"req={self.requests_arrived}")

    def _on_brownout(self, t: float) -> None:
        self.brownout_count += 1
        self._emit(t, EventKind.BROWNOUT, f"cap_v={self.min_cap_v:.3f}")
        self.store.on_brownout()
        self.extra_current = 0.0
        self.car.power_state = _POWER_STATES[self.cfg.initial_state.clock, RadioMode.OFF]
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

        # a tick may stop or start the car; the step moves at the speed
        # it began with, so its gap time does too
        x0, speed = car.position, car.speed
        dist = speed * dt
        car.position = (x0 + dist) % layout.total_length
        if self._dock is not None:
            self.crossed_dock = layout.crosses(x0, dist, self._dock)

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
        if gap_entered and sched.gap_aligned:
            self._arrive_request(t1)
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
        unpowered_time = overlap / speed if speed > 0 else (dt if in_gap else 0.0)
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

        car.capacitor_v = cfg.params.nominal_voltage if powered else v_mid
        car.powered = powered
        if car.power_state.radio is not RadioMode.OFF:
            self.radio_steps += 1

        stored = self.store.flash_bytes
        if stored > self.bytes_stored_peak:
            self.bytes_stored_peak = stored
        if t1 >= self._next_backlog_at:
            self._backlog_samples.append(stored)
            self._next_backlog_at += self._backlog_every

        if powered:
            self._record(1)
        else:  # a gap crossing's run, extended or begun
            runs = self._runs
            caps = runs[-1][2] if runs else None
            if type(caps) is list:
                caps.append(v_mid)
                runs[-1] = (len(caps), 0.0, caps)
            else:
                runs.append((1, 0.0, [v_mid]))
        self.now = t1

    def _quiet_stretch(self) -> None:
        """Run the quiet steps that follow in a tight loop.

        A stretch enters only if the next step ends before `hard`, the first
        step time that must run in `step` (the run's last step, a timed
        request and, in a reboot, a backlog sample and on powered track the
        reboot's end), and only on powered track or in a gap with the car
        moving.  The loops trust the rest of `step`'s state: powered track
        holds the nominal voltage, an inactive device's radio is off, and a
        standing car's `x` is its position.  A quiet step ends short of the
        next gap edge and, under save_and_print_later, of the dock; in a gap
        it neither browns out nor meets a record, the wake or a backlog
        sample.  It changes only the clock, the position, the workload, the
        capacitor and its minimum (in a gap), the radio step count and the
        trace, and clears the dock flag.  Powered track and gaps have a loop
        each, which keeps only per-step state; a powered step on which a
        record, the wake or a sample falls due does the rest in `_due_step`.
        Radio steps count in segments, and the minimum is left to the full
        step after a stretch.
        """
        cfg, car, driver = self.cfg, self.car, self.driver
        dt, params, powered = cfg.dt, cfg.params, car.powered
        t = self.now
        active = self.rebooting_until is None
        hard = self._end if active or not powered else min(self._end, self.rebooting_until)
        sched = cfg.schedule
        if self._next_request_idx < len(sched.times):
            hard = min(hard, sched.times[self._next_request_idx])
        if not active:
            hard = min(hard, self._next_backlog_at)
        speed = car.speed
        if t + dt >= hard or not (powered or speed):
            return
        # the first step time handed to `_due_step` (a gap or `hard` ends the
        # stretch there): the wake or a backlog sample
        wake = driver.next_wake(t) if active and driver is not None else hard
        stop = min(wake, hard, self._next_backlog_at)
        acc, inc = self._workload_acc, cfg.workload_rate * dt if active else 0.0

        x = car.position
        dist = speed * dt
        lim = cfg.layout.edge_ahead(x)
        # no quiet step reaches the dock: if fl(x + dist) < dock, then
        # fl(dock - x) >= dist and `crosses` is false, as is the flag
        dock = self._dock
        if dock is not None and dist and x <= dock < lim:
            lim = dock
        radio_on = car.power_state.radio is not RadioMode.OFF
        self.crossed_dock = False
        if powered:
            due_step, n, mark = self._due_step, 0, 0
            while True:
                t1 = t + dt
                end = x + dist
                a = acc + inc
                if t1 >= stop or end >= lim or a >= 1.0:
                    if end >= lim or t1 >= hard:
                        break
                    a, stop, lim, on = due_step(a, t1, end, stop, lim, hard)
                    if on != radio_on:  # a segment of equal radio steps ends
                        self.radio_steps += (n - mark) * radio_on
                        mark, radio_on = n, on
                t, x, acc = t1, end, a
                n += 1
            self.radio_steps += (n - mark) * radio_on
            if n:
                self._record(n)
        else:
            current = params.current(car.power_state) + self.extra_current
            nominal, v = params.nominal_voltage, car.capacitor_v
            drop, capacitance = params.brownout_drop, params.capacitance
            # the full step before extended this crossing's run
            caps, n = self._runs[-1][2], 0
            while True:
                t1 = t + dt
                end = x + dist
                a = acc + inc
                if t1 >= stop or end >= lim or a >= 1.0:
                    break
                # `unpowered_overlap` of a step inside one gap is end - x
                v1 = v - current * ((end - x) / speed) / capacitance
                if not v1 > 0.0:  # max(0.0, v1), for -0.0 and NaN too
                    v1 = 0.0
                if active and nominal - v1 >= drop:
                    break
                caps.append(v1)
                v = v1
                t, x, acc = t1, end, a
                n += 1
            car.capacitor_v = v
            self._runs[-1] = (len(caps), 0.0, caps)
            if radio_on:
                self.radio_steps += n
        if n:
            self.now = t
            car.position = x
            self._workload_acc = acc

    def _due_step(self, acc: float, t: float, x: float, stop: float,
                  lim: float, hard: float) -> tuple[float, float, float, bool]:
        """A powered quiet step's share of `step`'s work at `t`, ending at
        `x`, on which a record, the wake or a backlog sample falls due, in
        `step`'s order: append the records due; under a driver flush them,
        set the position, ask the wake again if they landed in an empty
        flash (see `Driver.next_wake`), and at `stop` tick (a sample's tick
        before the wake changes nothing) and ask again; raise the peak; take
        the sample.  Return (acc, stop, lim, radio on); `lim` is -inf after
        a tick that stops or starts the car.  A call of its own keeps the
        loop short enough for CPython 3.11 to specialize."""
        car, store, driver = self.car, self.store, self.driver
        while acc >= 1.0:
            acc -= 1.0
            store.append(Severity.INFO, self._workload_payload, t)
        if driver is not None:
            held = len(store.flash)
            store.flush()  # data must survive a gap while driving
            speed = car.speed
            car.position = x  # what the driver sees at `t`
            if t < stop and not held:
                stop = min(driver.next_wake(t), hard)
            if t >= stop:
                driver.tick(t)
                if car.speed != speed:
                    lim = -math.inf
                stop = min(driver.next_wake(t), hard)
        elif t >= stop:
            stop = hard
        stored = store.flash_bytes
        if stored > self.bytes_stored_peak:
            self.bytes_stored_peak = stored
        at = self._next_backlog_at
        if t >= at:
            self._backlog_samples.append(stored)
            at = self._next_backlog_at = at + self._backlog_every
        return acc, stop if stop < at else at, lim, car.power_state.radio is not RadioMode.OFF

    def run(self) -> ScenarioResult:
        step, quiet, end = self.step, self._quiet_stretch, self._end
        while self.now < end:
            step()
            quiet()
        return ScenarioResult(
            trace=VoltageTrace(self._runs, self.cfg.dt),
            events=self.events,
            metrics=self._metrics(),
        )

    def _backlog_growing(self) -> bool:
        b = self._backlog_samples
        if len(b) < 4:
            return False
        record_size = self.cfg.workload_payload + RECORD_OVERHEAD
        return (
            b[-1] > b[len(b) // 2] > b[len(b) // 4]
            and b[-1] - b[len(b) // 4] >= 2 * record_size
        )

    def _metrics(self) -> DeliveryMetrics:
        import statistics  # loads decimal and fractions: only at a run's end
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
    """Run one scenario to completion; deterministic per (config, seed).

    The driver and the simulation refer to each other; dropping the
    driver on return frees the run's state at once, not whenever the
    cyclic collector next runs, so the memory a sequence of runs holds
    does not depend on when that is."""
    sim = Simulation(cfg)
    try:
        return sim.run()
    finally:
        sim.driver = None


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
