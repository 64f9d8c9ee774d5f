import collections
import copy
import csv
import dis
import gc
import importlib.resources
import io
import itertools
import math
import pickle
import random
import sys
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from powergap import energy_model
from powergap.energy_model import (
    ALL_POWER_STATES,
    ClockTier,
    CSV_CHUNK_ROWS,
    ConfigError,
    EnergyModelParams,
    PowerState,
    RadioMode,
    VoltageTrace,
    MEASURED_DROPS,
    csv_micro_step,
    replace,
)
from powergap.track_world import (
    CarState,
    DeliveryMetrics,
    Event,
    EventKind,
    HostRequestSchedule,
    MAX_RECORDS,
    MAX_STEPS,
    LayoutError,
    ScenarioConfig,
    Segment,
    SegmentKind,
    Simulation,
    TrackLayout,
    _summed,
    events_to_csv,
    run_scenario,
)
from powergap.log_store import RECORD_OVERHEAD, LogRecord, Severity
from powergap.scenario import load_scenario, parse_scenario
from powergap.strategies import EnergyBudget, StopAndRadioDriver, StrategyKind
from powergap.transports import Frame, FrameKind, WirelessLinkParams

C80_OFF = PowerState(ClockTier.C80, RadioMode.OFF)
C240_TX = PowerState(ClockTier.C240, RadioMode.TRANSMITTING)


def lane_change_layout(dock=None):
    return TrackLayout(
        [
            Segment(SegmentKind.STRAIGHT, 0.30),
            Segment(SegmentKind.LANE_CHANGE, 0.48, (0.09, 0.36)),
            Segment(SegmentKind.STRAIGHT, 0.30),
        ],
        dock_position=dock,
    )


def crossing_config(state=C80_OFF, **kwargs):
    return ScenarioConfig(
        params=EnergyModelParams.calibrated(),
        layout=lane_change_layout(),
        speed=3.0,
        duration=0.36,
        initial_state=state,
        **kwargs,
    )


class TestLayout:
    def test_gap_geometry(self):
        layout = lane_change_layout()
        assert layout.total_length == pytest.approx(1.08)
        (s1, e1), (s2, e2) = layout.gaps
        assert (s1, e1) == (pytest.approx(0.39), pytest.approx(0.45))
        assert (s2, e2) == (pytest.approx(0.66), pytest.approx(0.72))
        assert layout.in_gap(0.40)
        assert not layout.in_gap(0.45)

    def test_unpowered_overlap_with_wrap(self):
        layout = lane_change_layout()
        assert layout.unpowered_overlap(0.38, 0.02) == pytest.approx(0.01)
        # a full lap covers both gaps
        assert layout.unpowered_overlap(1.0, 1.08) == pytest.approx(0.12)

    def test_lane_change_needs_two_gaps(self):
        with pytest.raises(LayoutError):
            Segment(SegmentKind.LANE_CHANGE, 0.5, (0.1,)).validate()

    def test_gaps_must_fit_inside(self):
        with pytest.raises(LayoutError):
            Segment(SegmentKind.LANE_CHANGE, 0.3, (0.1, 0.28)).validate()

    def test_gaps_must_not_overlap(self):
        with pytest.raises(LayoutError):
            Segment(SegmentKind.LANE_CHANGE, 0.5, (0.10, 0.13)).validate()

    @pytest.mark.parametrize("kind", [SegmentKind.STRAIGHT, SegmentKind.CURVE],
                             ids=lambda kind: kind.value)
    def test_plain_segment_carries_no_gaps(self, kind):
        with pytest.raises(LayoutError, match=f"{kind.value} segments carry no gaps"):
            Segment(kind, 0.5, (0.1, 0.3)).validate()

    def test_gap_length_must_be_positive(self):
        with pytest.raises(LayoutError):
            Segment(SegmentKind.LANE_CHANGE, 0.5, (0.1, 0.3), 0.0).validate()

    @pytest.mark.parametrize("segment", [
        Segment(SegmentKind.STRAIGHT, math.inf),
        Segment(SegmentKind.STRAIGHT, math.nan),
        Segment(SegmentKind.LANE_CHANGE, 0.5, (math.nan, 0.3)),
        Segment(SegmentKind.LANE_CHANGE, 0.5, (0.1, math.inf)),
    ], ids=["length_inf", "length_nan", "offset_nan", "offset_inf"])
    def test_non_finite_length_or_offset_rejected(self, segment):
        with pytest.raises(LayoutError, match="must be finite") as exc:
            segment.validate()
        assert exc.value.keys[0] == ("track", "segments")

    def test_dock_inside_gap_rejected(self):
        layout = lane_change_layout(dock=0.40)
        with pytest.raises(LayoutError):
            layout.validate()

    def test_crosses_handles_cycle(self):
        layout = lane_change_layout()
        assert layout.crosses(1.05, 0.10, 0.02)
        assert not layout.crosses(0.10, 0.10, 0.50)


def linear_in_gap(layout, position):
    """Reference: scan every gap."""
    x = position % layout.total_length
    return any(s <= x < e for s, e in layout.gaps)


def linear_overlap(layout, start, dist):
    """Reference: `unpowered_overlap` summing over every gap in track order."""
    gaps = layout.gaps
    if dist <= 0 or not gaps:
        return 0.0

    def span(a, b):
        total = 0.0
        for s, e in gaps:
            lo, hi = max(a, s), min(b, e)
            if hi > lo:
                total += hi - lo
        return total

    L = layout.total_length
    x = start % L
    total = 0.0
    whole, dist = divmod(dist, L)
    if whole:
        total += whole * sum(e - s for s, e in gaps)
    end = x + dist
    if end <= L:
        total += span(x, end)
    else:
        total += span(x, L) + span(0.0, end - L)
    return total


@st.composite
def layouts(draw, quantum=None):
    """Valid layouts; with `quantum`, every length and offset is a multiple of it."""
    segments = []
    for _ in range(draw(st.integers(1, 6))):
        length = draw(st.floats(0.1, 2.0))
        if draw(st.booleans()):
            gap = draw(st.floats(0.005, length / 3))
            a = draw(st.floats(0.0, length - 2 * gap))
            b = a + gap + draw(st.floats(0.0, 1.0)) * (length - 2 * gap - a)
            offsets = (a, b) if draw(st.booleans()) else (b, a)
            segments.append(Segment(SegmentKind.LANE_CHANGE, length, offsets, gap))
        else:
            kind = draw(st.sampled_from([SegmentKind.STRAIGHT, SegmentKind.CURVE]))
            segments.append(Segment(kind, length))
    if quantum:
        def q(v):
            return round(v / quantum) * quantum

        segments = [Segment(s.kind, q(s.length), tuple(map(q, s.gap_offsets)), q(s.gap_length))
                    for s in segments]
    layout = TrackLayout(segments)
    try:
        layout.validate()
    except LayoutError:
        assume(False)
    return layout


@settings(max_examples=400, deadline=None)
@given(layout=layouts(), data=st.data())
def test_gap_lookup_matches_linear_scan(layout, data):
    L = layout.total_length
    edges = [0.0, L] + [x for gap in layout.gaps for x in gap]
    points = st.one_of(st.floats(-3 * L, 3 * L), st.sampled_from(edges))
    start = data.draw(points, label="start")
    # plain lengths, multi-lap lengths, and lengths ending exactly on an edge
    dist = data.draw(
        st.one_of(
            st.floats(-1.0, 4 * L),
            st.sampled_from([0.0, L, 2 * L]),
            st.builds(lambda e, k: (e - start) % L + k * L, points, st.integers(0, 3)),
        ),
        label="dist",
    )
    for x in (start, start + dist):
        assert layout.in_gap(x) == linear_in_gap(layout, x)
    assert layout.unpowered_overlap(start, dist) == linear_overlap(layout, start, dist)


class TestStep:
    def test_gap_crossing_takes_20ms(self):
        # 0.06 m at 3.0 m/s
        result = run_scenario(crossing_config())
        entered = [e.time for e in result.events if e.kind is EventKind.GAP_ENTERED]
        exited = [e.time for e in result.events if e.kind is EventKind.GAP_EXITED]
        assert len(entered) == 2 and len(exited) == 2
        for t_in, t_out in zip(entered, exited):
            assert t_out - t_in == pytest.approx(0.020, abs=0.001)

    def test_gap_entry_times_match_segment_offsets(self):
        # gaps begin 30 ms and 120 ms after lane-change entry (entry at 0.1 s)
        result = run_scenario(crossing_config())
        entered = [e.time for e in result.events if e.kind is EventKind.GAP_ENTERED]
        assert entered[0] == pytest.approx(0.130, abs=0.001)
        assert entered[1] == pytest.approx(0.220, abs=0.001)
        assert entered[1] - entered[0] == pytest.approx(0.090, abs=0.001)

    def test_stationary_car_stays_powered(self):
        cfg = crossing_config()
        cfg.speed = 0.0
        cfg.duration = 0.1
        result = run_scenario(cfg)
        assert all(cap == 9.0 for _, _, cap in list(result.trace))
        assert result.events == []

    def test_flat_trace_without_gaps(self):
        cfg = ScenarioConfig(
            params=EnergyModelParams.calibrated(),
            layout=TrackLayout([Segment(SegmentKind.STRAIGHT, 2.0)]),
            duration=0.5,
        )
        result = run_scenario(cfg)
        assert all(cap == 9.0 for _, _, cap in list(result.trace))
        assert result.metrics.max_drop_v == 0.0

    def test_gapless_run_holds_one_trace_run(self):
        cfg = ScenarioConfig(
            params=EnergyModelParams.calibrated(),
            layout=TrackLayout([Segment(SegmentKind.STRAIGHT, 2.0)]),
            duration=40.0,
        )
        sim = Simulation(cfg)
        assert len(sim.run().trace) == 80_000
        assert sim._runs == [(80_000, 9.0, 9.0)]

    def test_a_step_whose_tick_stops_the_car_keeps_its_gap_time(self):
        # stop_and_radio stops the car on the step that leaves the gap; that
        # step still crossed the gap's tail at the speed it began with, in
        # a state drawing at least c80_off's current
        spec = parse_scenario("[car]\nspeed = 2.9\n[strategy]\nkind = stop_and_radio\n"
                              "drain_interval = 0.14\n[run]\nduration = 0.3\n")
        cfg = spec.build()
        sim = Simulation(cfg)
        result = sim.run()
        assert sim.car.speed == 0.0 and [e.kind for e in result.events] == [
            EventKind.GAP_ENTERED, EventKind.GAP_EXITED]
        gap_time = cfg.layout.segments[1].gap_length / cfg.speed
        floor = cfg.params.current(C80_OFF) * gap_time / cfg.params.capacitance
        assert result.metrics.max_drop_v >= floor


class TestBrownout:
    def test_burst_state_browns_out_per_crossing(self):
        result = run_scenario(crossing_config(state=C240_TX))
        brownouts = [e for e in result.events if e.kind is EventKind.BROWNOUT]
        assert len(brownouts) >= 1
        assert result.metrics.brownout_count >= 1

    def test_brownout_clears_ram_keeps_flash(self):
        from powergap.log_store import Severity

        sim = Simulation(crossing_config(state=C240_TX))
        for _ in range(90):
            sim.store.append(Severity.INFO, b"flushed")
        sim.store.flush()
        for _ in range(10):
            sim.store.append(Severity.INFO, b"volatile")
        result = sim.run()
        assert result.metrics.brownout_count >= 1
        assert len(sim.store.ram) == 0
        assert len(sim.store.flash) == 90
        assert sim.store.lost_unflushed == 10

    def test_radio_off_after_reboot(self):
        sim = Simulation(
            crossing_config(state=PowerState(ClockTier.C160, RadioMode.TRANSMITTING))
        )
        sim.cfg.params.current_table[
            PowerState(ClockTier.C160, RadioMode.TRANSMITTING)
        ] = 0.250
        sim.run()
        assert sim.brownout_count >= 1
        assert sim.car.power_state.radio is RadioMode.OFF

    def test_reboot_follows_brownout_before_activity(self):
        cfg = crossing_config(state=C240_TX)
        cfg.duration = 1.2
        result = run_scenario(cfg)
        kinds = [e.kind for e in result.events]
        assert EventKind.BROWNOUT in kinds
        i = kinds.index(EventKind.BROWNOUT)
        assert EventKind.REBOOT in kinds[i + 1 :]

    def test_dead_time_respected(self):
        cfg = crossing_config(state=C240_TX)
        cfg.duration = 1.2
        cfg.reboot_dead_time = 0.5
        result = run_scenario(cfg)
        t_brown = next(e.time for e in result.events if e.kind is EventKind.BROWNOUT)
        t_reboot = next(e.time for e in result.events if e.kind is EventKind.REBOOT)
        assert t_reboot - t_brown >= 0.5 - 1e-9

    @pytest.mark.xfail(strict=True, reason="a brownout reports the run's voltage minimum, "
                       "not its own step's voltage (ROADMAP item 1)")
    def test_brownout_reports_its_own_step_voltage(self):
        # brownouts 2-4 print the 4.506 V floor that the first crossing
        # reached while the device rebooted
        cfg = load_scenario(
            importlib.resources.files("powergap") / "scenarios" / "gap_aligned_c160.scn").build()
        result = run_scenario(cfg)
        caps = {t: cap for t, _, cap in result.trace}
        brownouts = [ev for ev in result.events if ev.kind is EventKind.BROWNOUT]
        assert len(brownouts) == 4
        assert [ev.detail for ev in brownouts] == [
            f"cap_v={caps[ev.time]:.3f}" for ev in brownouts]


class TestRunScenario:
    def test_single_crossing_reproduces_measured_drop(self):
        result = run_scenario(crossing_config())
        assert result.metrics.max_drop_v == pytest.approx(1.62, rel=0.01)

    def test_sending_crossing_reproduces_measured_drop(self):
        cfg = crossing_config(
            state=PowerState(ClockTier.C160, RadioMode.TRANSMITTING)
        )
        result = run_scenario(cfg)
        assert result.metrics.max_drop_v == pytest.approx(2.82, rel=0.01)

    def test_trace_length(self):
        cfg = crossing_config()
        cfg.duration = 0.001
        cfg.dt = 0.0005
        result = run_scenario(cfg)
        assert len(result.trace) == 2

    def test_determinism(self):
        a = run_scenario(crossing_config(seed=5))
        b = run_scenario(crossing_config(seed=5))
        assert list(a.trace) == list(b.trace)
        assert a.events == b.events
        assert a.metrics == b.metrics

    @pytest.mark.parametrize("kind", list(StrategyKind))
    def test_run_frees_its_state_without_the_cyclic_collector(self, kind):
        # garbage left to the collector is freed at a moment that depends on
        # allocation counts, so the memory a sequence of runs holds would too
        cfg = replace(crossing_config(strategy=kind, seed=1),
                      layout=lane_change_layout(dock=0.0))
        gc.collect()
        gc.disable()
        try:
            run_scenario(cfg)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_invalid_layout_rejected_before_run(self):
        cfg = crossing_config()
        cfg.layout = TrackLayout([], dock_position=None)
        with pytest.raises(LayoutError):
            Simulation(cfg)

    @pytest.mark.parametrize("overrides,message", [
        ({"duration": 1e300}, "above the cap"),
        ({"duration": float("inf")}, "^duration: must be finite$"),
        # NaN fails duration's range before it reaches the cap
        ({"duration": float("nan")}, "^duration: must be > 0.0$"),
        ({"dt": 1e-12}, "above the cap"),
        ({"duration": 0.01, "workload_rate": 1e12}, "above the cap"),
        ({"workload_rate": float("inf")}, "^rate: must be finite$"),
    ], ids=["duration_1e300", "duration_inf", "duration_nan", "dt_tiny",
            "records_above_cap", "rate_inf"])
    def test_run_size_caps_enforced_by_constructor(self, overrides, message):
        # a config built in Python, not parsed, must still be refused
        with pytest.raises(LayoutError, match=message):
            Simulation(replace(crossing_config(), **overrides))

    @pytest.mark.parametrize("overrides", [
        {"duration": MAX_STEPS * 0.5, "dt": 0.5},
        {"duration": 1.0, "workload_rate": float(MAX_RECORDS)},
    ], ids=["steps_at_cap", "records_at_cap"])
    def test_run_size_caps_admit_the_cap_itself(self, overrides):
        # the caps are inclusive, as in the scenario parser
        sim = Simulation(replace(crossing_config(), **overrides))
        assert sim.now == 0.0

    @pytest.mark.parametrize("overrides,error,blamed", [
        ({"budget": EnergyBudget(max_allowed_drop=5.0)}, LayoutError,
         ("budget", "max_allowed_drop")),
        ({"workload_payload": 300}, LayoutError, ("workload", "payload_size")),
        ({"workload_payload": -1}, LayoutError, ("workload", "payload_size")),
        ({"workload_rate": -50.0}, LayoutError, ("workload", "rate")),
        ({"budget": EnergyBudget(max_allowed_drop=-1.0)}, LayoutError,
         ("budget", "max_allowed_drop")),
        ({"budget": EnergyBudget(lookahead=-0.01)}, LayoutError, ("budget", "lookahead")),
        ({"wireless": WirelessLinkParams(loss_rate=1.5)}, ConfigError,
         ("wireless", "loss_rate")),
        ({"wireless": WirelessLinkParams(connect_extra_current=-0.05)}, ConfigError,
         ("wireless", "connect_extra_current")),
        ({"dt": math.inf}, LayoutError, ("run", "dt")),
        ({"speed": math.inf}, LayoutError, ("car", "speed")),
        ({"schedule": HostRequestSchedule(times=(0.1, math.nan, 0.2))}, LayoutError,
         ("schedule", "requests")),
        ({"schedule": HostRequestSchedule(times=(0.1, math.inf))}, LayoutError,
         ("schedule", "requests")),
    ], ids=["budget_above_brownout", "payload_above_max", "payload_negative",
            "rate_negative", "budget_negative",
            "lookahead_negative", "loss_rate_above_one", "extra_current_negative",
            "dt_infinite", "speed_infinite", "request_time_nan", "request_time_infinite"])
    def test_constructor_refuses_what_the_parser_refuses(self, overrides, error, blamed):
        # a Python config once ran with a budget past the brownout drop, or
        # a negative rate or budget; or failed later on a
        # payload no record can carry, or in the driver on a loss rate; an
        # infinite step or speed, or a NaN request time, once ran a wrong
        # trace (no steps, a NaN position, requests that never arrive)
        with pytest.raises(error) as exc:
            Simulation(replace(crossing_config(), **overrides))
        assert exc.value.keys[:1] == (blamed,)

    def test_flash_must_hold_one_record(self):
        # refused up front, not with a StoreError at the first flush
        cfg = crossing_config(flash_capacity=10, workload_rate=100.0)
        with pytest.raises(LayoutError, match="must hold one record"):
            Simulation(cfg)
        # a 16-byte payload and 16 bytes of record overhead fit exactly
        run_scenario(replace(cfg, flash_capacity=32))

    @pytest.mark.parametrize("overrides,message", [
        ({"ram_capacity": 0}, "ram_capacity: must be >= 1"),
        ({"wired_frame_time": 0.0}, "wired_frame_time: must be > 0.0"),
        ({"drain_interval": -1.0}, "drain_interval: must be > 0.0"),
        ({"reboot_dead_time": -1.0}, "reboot_dead_time: must be >= 0.0"),
    ], ids=["ram_zero", "wired_frame_time_zero", "drain_negative", "dead_time_negative"])
    def test_ranges_once_held_by_the_parser_alone(self, overrides, message):
        # these ran, or failed later with a StoreError, when built in Python
        with pytest.raises(LayoutError) as exc:
            Simulation(replace(crossing_config(), **overrides))
        assert str(exc.value) == message

    @pytest.mark.parametrize("kept,first", [(0, "c80_off"), (5, "c160_tx")])
    def test_current_table_must_cover_every_state(self, kept, first):
        # refused up front, not on the first gap step that needs the current
        params = EnergyModelParams(current_table=dict.fromkeys(ALL_POWER_STATES[:kept], 0.1))
        with pytest.raises(ConfigError, match=f"no current configured for state {first}$"):
            Simulation(replace(crossing_config(), params=params))

    def test_power_duality(self):
        result = run_scenario(crossing_config())
        prev_cap = 9.0
        for _, supply, cap in list(result.trace):
            if supply > 0:
                assert cap == 9.0
            else:
                assert cap <= prev_cap + 1e-12
            prev_cap = cap

    def test_gap_conservation(self):
        # unpowered samples per crossing ~= 2 * gap_length / speed
        cfg = crossing_config()
        result = run_scenario(cfg)
        unpowered = sum(1 for _, s, _ in list(result.trace) if s == 0.0) * cfg.dt
        assert unpowered == pytest.approx(2 * 0.06 / 3.0, abs=2 * cfg.dt)

    def test_event_ordering(self):
        result = run_scenario(crossing_config())
        depth = 0
        for e in result.events:
            if e.kind is EventKind.GAP_ENTERED:
                depth += 1
            elif e.kind is EventKind.GAP_EXITED:
                depth -= 1
            assert depth in (0, 1)
        assert depth == 0


class TestSchedule:
    @pytest.mark.parametrize("schedule,message", [
        (HostRequestSchedule(times=(2.0, 1.0)), "must be sorted"),
        (HostRequestSchedule(times=(-1.0,)), "must be non-negative"),
        # `step` would read the times only without gap alignment
        (HostRequestSchedule(times=(1.0, 2.0), gap_aligned=True), "not both"),
    ], ids=["unsorted", "negative", "timed_and_gap_aligned"])
    def test_times_validation(self, schedule, message):
        # refused by ScenarioConfig.validate, blaming the requests key
        cfg = crossing_config(schedule=schedule)
        with pytest.raises(LayoutError, match=message) as exc:
            Simulation(cfg)
        assert exc.value.keys == (("schedule", "requests"),)

    def test_timed_requests_emitted(self):
        cfg = crossing_config(schedule=HostRequestSchedule(times=(0.05, 0.10)))
        result = run_scenario(cfg)
        arrived = [e for e in result.events if e.kind is EventKind.REQUEST_ARRIVED]
        assert len(arrived) == 2
        assert result.metrics.requests_arrived == 2

    def test_gap_aligned_requests_fire_on_gap_entry(self):
        cfg = crossing_config(schedule=HostRequestSchedule(gap_aligned=True))
        result = run_scenario(cfg)
        gap_times = [e.time for e in result.events if e.kind is EventKind.GAP_ENTERED]
        req_times = [
            e.time for e in result.events if e.kind is EventKind.REQUEST_ARRIVED
        ]
        assert req_times == gap_times


class TestRecharge:
    @pytest.mark.parametrize("state", MEASURED_DROPS,
                             ids=lambda s: f"c{s.clock.value}_{s.radio.value}")
    def test_every_crossing_starts_at_the_nominal_voltage(self, state):
        # the rails recharge the capacitor at once, as the calibration
        # assumes of every gap: each crossing drops by the measured amount,
        # and the powered track around them is one nominal run each
        cfg = crossing_config(state=state)
        sim = assert_same_run(cfg)
        nominal = cfg.params.nominal_voltage
        runs = sim._runs
        assert [type(cap) is list for _, _, cap in runs] == [False, True, False, True, False]
        assert all(run[1:] == (nominal, nominal) for run in runs[::2])
        assert nominal - sim.min_cap_v == pytest.approx(MEASURED_DROPS[state], rel=0.01)
        for _, _, caps in runs[1::2]:  # mid-step voltages: half a step short
            assert nominal - min(caps) == pytest.approx(MEASURED_DROPS[state], rel=0.05)


# -- quiet stretches against the plain step loop ------------------------------

def stepped(cfg):
    """The plain loop: one `step` per step, no quiet stretch."""
    sim = Simulation(cfg)
    for _ in range(round(cfg.duration / cfg.dt)):
        sim.step()
    return sim


def run_state(sim):
    """Everything a finished run holds that a stretch could get wrong."""
    store, driver = sim.store, sim.driver
    state = {
        "runs": sim._runs,
        "events": sim.events,
        "metrics": sim._metrics(),
        "store": (list(store.ram), list(store.flash), store.flash_bytes,
                  store.high_water,
                  store.appended, store.acked, store.dropped, store.evicted,
                  store.lost_unflushed),
        "presented": sim.host.presented,
        "sim": (sim.now, sim.crossed_dock, sim.car, sim.min_cap_v, sim.extra_current,
                sim.rebooting_until, sim.requests_arrived, sim.requests_answered,
                sim._next_request_idx, sim._workload_acc, sim._backlog_samples,
                sim._next_backlog_at, sim.radio_on_s, sim.latencies, sim.rng.getstate()),
    }
    if driver is not None:
        # tx_until, in_flight (a record or REPLY); next_drain, state, associated, ...
        state["driver"] = {k: v for k, v in vars(driver).items()
                           if k not in ("sim", "channel")}
        if hasattr(driver, "channel"):
            ch = driver.channel
            state["channel"] = (ch.next_boundary, ch.slots_left, ch.delivered_bits)
    return state


def assert_same_run(cfg):
    """`run` (with quiet stretches) leaves exactly what the plain loop does."""
    sim = Simulation(cfg)
    sim.run()
    assert run_state(sim) == run_state(stepped(cfg))
    return sim


SHIPPED = sorted(
    p.name for p in importlib.resources.files("powergap").joinpath("scenarios").iterdir()
    if p.name.endswith(".scn")
)
STRATEGY_RUNS = [(None, False)] + [(k, c) for k in StrategyKind for c in (False, True)]


@pytest.mark.parametrize(
    "kind,controller", STRATEGY_RUNS,
    ids=[f"{k.value if k else 'none'}-gate_{'on' if c else 'off'}" for k, c in STRATEGY_RUNS])
@pytest.mark.parametrize("name", SHIPPED)
def test_stretches_match_plain_loop_on_shipped_scenarios(name, kind, controller):
    cfg = load_scenario(importlib.resources.files("powergap") / "scenarios" / name).build()
    layout = cfg.layout
    if kind is StrategyKind.SAVE_AND_PRINT_LATER and layout.dock_position is None:
        assert not layout.in_gap(0.0)  # every shipped track opens on a straight
        layout = TrackLayout(layout.segments, dock_position=0.0)
    assert_same_run(replace(
        cfg, strategy=kind, controller=controller, layout=layout))


@pytest.mark.parametrize("controller", [False, True], ids=["gate_off", "gate_on"])
@pytest.mark.parametrize("kind", [None, *StrategyKind], ids=lambda k: k.value if k else "none")
def test_stretch_ends_exactly_on_grid_aligned_edges(kind, controller):
    # dyadic speed, step, geometry and times: positions and clock are
    # exact, so the car lands on each gap start and end at the end of a
    # step, and the first drain, a request and each reboot after a
    # brownout in the first gap fall due exactly at a step's end
    layout = TrackLayout([
        Segment(SegmentKind.STRAIGHT, 0.5),
        Segment(SegmentKind.LANE_CHANGE, 0.5, (0.125, 0.3125), 0.0625),
        Segment(SegmentKind.CURVE, 0.25),
    ], dock_position=0.0625)
    cfg = ScenarioConfig(
        params=EnergyModelParams.calibrated(), layout=layout, speed=1.0,
        dt=2.0**-10, duration=3.0, strategy=kind, controller=controller,
        wireless=WirelessLinkParams(connect_latency=0.25),
        workload_rate=0.0 if kind is None else 3.0,
        schedule=HostRequestSchedule(times=(1.5,)),
        drain_interval=0.5, reboot_dead_time=0.25,
    )
    sim = assert_same_run(cfg)
    entries = {ev.detail for ev in sim.events if ev.kind is EventKind.GAP_ENTERED}
    assert entries == {"pos=0.6250", "pos=0.8125"}
    exits = {ev.detail for ev in sim.events if ev.kind is EventKind.GAP_EXITED}
    assert exits == {"pos=0.6875", "pos=0.8750"}
    brownouts = [ev.time for ev in sim.events if ev.kind is EventKind.BROWNOUT]
    reboots = [ev.time for ev in sim.events if ev.kind is EventKind.REBOOT]
    assert brownouts and reboots == [t + 0.25 for t in brownouts]
    requests = [ev.time for ev in sim.events if ev.kind is EventKind.REQUEST_ARRIVED]
    assert requests == [1.5]


def test_run_ending_inside_a_gap_keeps_the_stretch_minimum():
    # the run ends 10 ms into the first gap (0.13-0.15 s), after a quiet
    # stretch that leaves the lowest voltage to the run's last step, a
    # full step
    sim = assert_same_run(replace(crossing_config(), duration=0.14))
    assert sim._metrics().max_drop_v == pytest.approx(0.81)


@pytest.fixture
def step_calls(monkeypatch):
    """`Simulation.step` calls, counted per simulation."""
    calls = collections.Counter()
    plain_step = Simulation.step

    def counted_step(sim):
        calls[sim] += 1
        plain_step(sim)

    monkeypatch.setattr(Simulation, "step", counted_step)
    return calls


@pytest.mark.parametrize(
    "kind", [None, StrategyKind.STOP_AND_RADIO, StrategyKind.SAVE_AND_PRINT_LATER],
    ids=lambda k: k.value if k else "none")
def test_pending_requests_leave_stretches_to_next_wake(kind, step_calls):
    # requests wait for the next drain, or for nobody without a driver;
    # while they wait, most steps still run in quiet stretches
    cfg = load_scenario(
        importlib.resources.files("powergap") / "scenarios" / "reference_workload.scn"
    ).build()
    cfg = replace(
        cfg, strategy=kind, schedule=HostRequestSchedule(times=tuple(map(float, range(1, 29, 3)))))
    sim = assert_same_run(cfg)
    assert sim.requests_arrived == 10
    assert step_calls[sim] <= 0.15 * round(cfg.duration / cfg.dt)


@pytest.mark.parametrize("name,controller", [
    ("gap_aligned_c160.scn", False),
    ("gap_aligned_c160.scn", True),
    ("reference_workload.scn", True),
], ids=["gap_aligned-gate_off", "gap_aligned-gate_on", "reference-gate_on"])
def test_gaps_reboots_and_gate_deferrals_run_in_stretches(name, controller, step_calls):
    # gap interiors, reboots on powered track and steps on which the gate
    # holds waiting work all run in quiet stretches
    cfg = load_scenario(importlib.resources.files("powergap") / "scenarios" / name).build()
    cfg = replace(cfg, controller=controller)
    sim = assert_same_run(cfg)
    assert step_calls[sim] <= 0.05 * round(cfg.duration / cfg.dt)


@pytest.mark.parametrize("rate", [3.0, 20.0])
def test_stretch_waits_while_the_gate_defers_on_the_budget(rate):
    # the tick on each gap exit still sees the drained capacitor, past
    # the 1 V budget, so the gate defers while records wait; the steps
    # after it must tick, not run in a stretch
    cfg = ScenarioConfig(
        params=EnergyModelParams.calibrated(), layout=lane_change_layout(),
        duration=4.0, strategy=StrategyKind.WIRELESS_CONTINUOUS, controller=True,
        budget=EnergyBudget(max_allowed_drop=1.0, lookahead=0.0),
        wireless=WirelessLinkParams(connect_latency=0.1), workload_rate=rate,
    )
    assert_same_run(cfg)


def test_car_stopped_in_a_gap_falls_back_to_step():
    # with no path to divide by the speed, `step` discharges for all of dt
    layout = TrackLayout([Segment(SegmentKind.LANE_CHANGE, 0.5, (0.0, 0.25), 0.0625)])
    cfg = ScenarioConfig(params=EnergyModelParams.calibrated(), layout=layout, speed=0.0,
                         duration=0.25, reboot_dead_time=0.05)
    sim = assert_same_run(cfg)
    assert [ev.kind for ev in sim.events] == [EventKind.GAP_ENTERED, EventKind.BROWNOUT]


@pytest.mark.parametrize("duration", [round(0.5 + 0.05 * i, 2) for i in range(40)])
def test_gate_deferral_carries_records_through_a_stretch(duration):
    # while the gate defers waiting work, a stretch carries records past
    # the deferred ticks, and 200 B of flash evicts the oldest every few
    # records: the plain loop ticks where the stretch skips, and both
    # must end with the same records, the same frame in flight and the
    # same store, wherever the run ends
    cfg = ScenarioConfig(
        params=EnergyModelParams.calibrated(), layout=lane_change_layout(),
        duration=duration, strategy=StrategyKind.WIRELESS_CONTINUOUS, controller=True,
        budget=EnergyBudget(lookahead=0.2),
        wireless=WirelessLinkParams(connect_latency=0.1, per_frame_airtime=0.02),
        workload_rate=400.0, workload_payload=20, flash_capacity=200,
    )
    sim = assert_same_run(cfg)
    assert sim.store.evicted > 0


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="CPython 3.11 bytecode")
@pytest.mark.parametrize("method", ["_quiet_stretch", "_due_step"])
def test_quiet_stretch_takes_no_extended_jumps(method):
    # a jump across more than 255 code units needs an EXTENDED_ARG, which
    # keeps CPython 3.11 from specializing the compare in front of it; in
    # the stretch loop's `while` test that cost the drive benchmark about
    # 4 % of its simulation rate
    ops = [ins.opname for ins in dis.get_instructions(getattr(Simulation, method))]
    assert "EXTENDED_ARG" not in ops


def running_sum(d, n):
    s = 0.0
    for _ in range(n):
        s += d
    return s


@settings(max_examples=400, deadline=None)
@given(d=st.floats(1e-7, 0.1), n=st.integers(0, 3000))
@example(d=float.fromhex("0x1.2f13dd45990c9p-6"), n=3)  # a tie on an odd sum
@example(d=5e-4, n=0)
def test_summed_is_the_running_sum(d, n):
    # the goldens print radio_on_s to 6 decimals and cannot see one ulp;
    # no shipped step size meets a tie on an odd sum, a drawn one can
    assert _summed(d, n) == running_sum(d, n)


@pytest.mark.parametrize("d,stall", [(1.0, 2.0**53), (0.5, 2.0**52)])
def test_summed_stops_where_the_sum_stalls(d, stall):
    # past `stall`, adding d rounds back to the sum, so no count moves it
    assert stall + d == stall
    assert _summed(d, 2**60) == stall


@settings(max_examples=200, deadline=None)
@given(dt=st.floats(1e-7, 0.1), n=st.integers(1, MAX_STEPS))
@example(dt=5e-4, n=1)
@example(dt=5e-4, n=MAX_STEPS)
def test_run_end_lies_between_the_last_two_steps(dt, n):
    # after k steps the clock is the k-fold sum of dt, so the run's last
    # step is the first at or past its end, and no quiet stretch takes it;
    # the run lasts a quarter step short of n steps, as n * dt / dt may
    # exceed MAX_STEPS
    cfg = replace(crossing_config(), dt=dt, duration=(n - 0.25) * dt)
    assert round(cfg.duration / cfg.dt) == n
    end = Simulation(cfg)._end
    assert _summed(dt, n - 1) < end <= _summed(dt, n)


@pytest.mark.parametrize("rate", [1000.0, 2000.0])
def test_gap_stretch_carries_no_record(rate):
    # a record falls due every step or every other one; `step` appends
    # before it checks for a brownout, so a gap stretch, which stops short
    # of the brownout step, ends at each record instead of carrying it
    cfg = crossing_config(C240_TX, workload_rate=rate)
    sim = assert_same_run(cfg)
    assert sim.brownout_count == 1


#: full steps per strategy on the flood-like run below, as a share of its
#: 2000 steps (measured 0.012 / 0.011 / 0.036 / 0.0485); while every send,
#: drain and slot boundary ended a stretch, they were 0.045 / 0.125 /
#: 0.083 / 0.233, and while every record did, 0.23 or more
FLOOD_STEP_SHARE = {
    StrategyKind.SAVE_AND_PRINT_LATER: 0.02,
    StrategyKind.STOP_AND_RADIO: 0.02,
    StrategyKind.POWERLINE_CONTINUOUS: 0.05,
    StrategyKind.WIRELESS_CONTINUOUS: 0.07,
}


@pytest.mark.parametrize("kind", StrategyKind, ids=lambda k: k.value)
def test_records_and_the_dock_approach_run_in_stretches(kind, step_calls):
    # 400 records/s of 200 B: a record falls due every fifth step; once
    # work waits, quiet stretches carry them, and the approach to the dock
    cfg = ScenarioConfig(
        params=EnergyModelParams.calibrated(), layout=lane_change_layout(dock=0.15),
        duration=1.0, strategy=kind,
        wireless=WirelessLinkParams(connect_latency=0.15, loss_rate=0.05),
        workload_rate=400.0, workload_payload=200, drain_interval=0.4,
        flash_capacity=8000,
    )
    sim = assert_same_run(cfg)
    assert sim.store.evicted > 0
    assert step_calls[sim] <= FLOOD_STEP_SHARE[kind] * round(cfg.duration / cfg.dt)


#: full steps per strategy on `reference_workload.scn` (60,000 steps),
#: measured 372 / 294 / 620 / 482; while sends, drains and powerline slot
#: boundaries ended stretches they were 905 / 718 / 3,591 / 1,375
REFERENCE_FULL_STEPS = {
    StrategyKind.SAVE_AND_PRINT_LATER: 500,
    StrategyKind.STOP_AND_RADIO: 400,
    StrategyKind.POWERLINE_CONTINUOUS: 1000,
    StrategyKind.WIRELESS_CONTINUOUS: 650,
}


@pytest.mark.parametrize("kind", StrategyKind, ids=lambda k: k.value)
def test_reference_ticks_run_in_stretches(kind, step_calls):
    # sends, drains and slot boundaries tick inside quiet stretches; what
    # still takes a full step is mostly gap edges and the steps in gaps
    # on which a record or a wake falls
    cfg = replace(load_scenario(
        importlib.resources.files("powergap") / "scenarios" / "reference_workload.scn"
    ).build(), strategy=kind)
    sim = Simulation(cfg)
    sim.run()
    assert sim.delivered_records > 0
    assert step_calls[sim] <= REFERENCE_FULL_STEPS[kind]


def test_stop_and_radio_stops_and_resumes_inside_stretches(monkeypatch):
    # each drain falls due on powered track: the tick that stops the car
    # and the one that sends it cruising again both run inside a quiet
    # stretch, which ends after that step
    full, moves = collections.defaultdict(set), collections.defaultdict(list)
    plain_step, plain_tick = Simulation.step, StopAndRadioDriver.tick

    def step(sim):
        full[sim].add(sim.now + sim.cfg.dt)
        plain_step(sim)

    def tick(driver, now):
        speed = driver.sim.car.speed
        plain_tick(driver, now)
        if driver.sim.car.speed != speed:
            moves[driver.sim].append(now)

    monkeypatch.setattr(Simulation, "step", step)
    monkeypatch.setattr(StopAndRadioDriver, "tick", tick)
    cfg = ScenarioConfig(
        params=EnergyModelParams.calibrated(), layout=lane_change_layout(),
        duration=3.0, strategy=StrategyKind.STOP_AND_RADIO,
        wireless=WirelessLinkParams(connect_latency=0.05, loss_rate=0.1),
        workload_rate=20.0, drain_interval=0.55,
    )
    sim = assert_same_run(cfg)
    assert len(moves[sim]) >= 4 and sim.delivered_records > 0
    assert not full[sim] & set(moves[sim])


@st.composite
def stretch_configs(draw, ticking=False):
    """Random runs for the stretch-vs-plain-loop comparison.  With
    `ticking`, every run has a driver, the gate on, a moving car, 500
    steps or more, connections of at most 20 ms, airtimes of at most 5 ms
    and 1 to 400 records/s: most ticks then fall inside stretches, some
    of them where the gate's lookahead reaches a gap."""
    # on the grid, dyadic geometry, speed and step land the car exactly on
    # every gap edge at the end of a step
    grid = draw(st.booleans())
    layout = draw(layouts(quantum=2.0**-8 if grid else None))
    dock = draw(st.floats(0.0, layout.total_length, exclude_max=True))
    assume(not layout.in_gap(dock))
    if grid:
        dt = 2.0**-10
        speed = draw(st.sampled_from([0.25, 1.0, 4.0] if ticking else [0.0, 0.25, 1.0, 4.0]))
    else:
        dt = draw(st.one_of(st.sampled_from([1e-4, 5e-4, 1e-3]), st.floats(1e-4, 5e-3)))
        speed = draw(st.floats(0.5, 8.0) if ticking
                     else st.one_of(st.just(0.0), st.floats(0.05, 8.0)))
    duration = draw(st.integers(500 if ticking else 1, 1500)) * dt
    times = draw(st.lists(st.floats(0.0, 1.1 * duration), max_size=4))
    schedule = draw(st.sampled_from([
        HostRequestSchedule(),
        HostRequestSchedule(times=tuple(sorted(times))),
        HostRequestSchedule(gap_aligned=True),
    ]))
    # a low brownout drop browns out mid-gap; long airtimes span a gap
    brownout_drop = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    # a flash of one record up to a few evicts records inside stretches
    payload = draw(st.integers(0, 40))
    record_size = payload + RECORD_OVERHEAD
    flash = draw(st.one_of(st.just(65536), st.integers(record_size, 4 * record_size)))
    airtime = st.floats(0.0, 0.005 if ticking else 0.05)
    return ScenarioConfig(
        params=EnergyModelParams.calibrated(brownout_drop=brownout_drop),
        layout=TrackLayout(layout.segments, dock_position=dock),
        speed=speed,
        dt=dt,
        duration=duration,
        seed=draw(st.integers(0, 2**16)),
        initial_state=draw(st.sampled_from(ALL_POWER_STATES)),
        strategy=draw(st.sampled_from([*StrategyKind] if ticking else [None, *StrategyKind])),
        controller=ticking or draw(st.booleans()),
        budget=EnergyBudget(max_allowed_drop=brownout_drop * draw(st.floats(0.1, 0.975)),
                            lookahead=draw(st.floats(0.01, 0.2) if ticking
                                           else st.floats(0.0, 0.05))),
        wireless=WirelessLinkParams(
            connect_latency=draw(st.floats(0.0, 0.02 if ticking else 0.2)),
            connect_extra_current=draw(st.floats(0.0, 0.2)),
            per_frame_airtime=draw(airtime),
            reply_airtime=draw(airtime),
            loss_rate=draw(st.sampled_from([0.0, 0.1, 0.5])),
        ),
        workload_rate=draw(st.floats(1.0, 400.0) if ticking
                           else st.one_of(st.just(0.0), st.floats(0.0, 400.0))),
        workload_payload=payload,
        schedule=schedule,
        drain_interval=draw(st.floats(0.01, 1.0)),
        reboot_dead_time=draw(st.floats(0.0, 0.2)),
        ram_capacity=draw(st.integers(1, 64)),
        flash_capacity=flash,
    )


@settings(max_examples=300, deadline=None)
@given(cfg=stretch_configs())
def test_stretches_match_plain_loop_on_random_runs(cfg):
    assert_same_run(cfg)


@settings(max_examples=200, deadline=None)
@given(cfg=stretch_configs(ticking=True))
def test_ticks_inside_stretches_match_plain_loop(cfg):
    assert_same_run(cfg)


@settings(max_examples=50, deadline=None)
@given(cfg=stretch_configs())
def test_radio_is_off_while_the_device_reboots(cfg):
    # the premise on which neither loop asks whether the device is active
    # before it counts a radio step
    sim = Simulation(cfg)
    for _ in range(round(cfg.duration / cfg.dt)):
        sim.step()
        assert sim.rebooting_until is None or sim.car.power_state.radio is RadioMode.OFF


@settings(max_examples=50, deadline=None)
@given(cfg=stretch_configs())
def test_powered_track_holds_the_nominal_voltage(cfg):
    # the premise on which a stretch enters on powered track without
    # reading the capacitor, and every constant trace run is nominal
    sim = Simulation(cfg)
    nominal = cfg.params.nominal_voltage
    for _ in range(round(cfg.duration / cfg.dt)):
        sim.step()
        assert not sim.car.powered or sim.car.capacitor_v == nominal


@settings(max_examples=100, deadline=None)
@given(cfg=stretch_configs())
def test_trace_rows_follow_its_runs_on_the_dt_sum(cfg):
    sim = Simulation(cfg)
    trace = sim.run().trace
    rows = list(trace)
    t, times = 0.0, []
    for _ in range(round(cfg.duration / cfg.dt)):
        t += cfg.dt
        times.append(t)
    assert len(trace) == len(rows) == len(times)
    assert [row[0] for row in rows] == times and times[-1] == sim.now
    # canonical runs, so equal traces are equal run lists
    assert all(run[0] > 0 for run in sim._runs)
    assert all(a[1:] != b[1:] for a, b in zip(sim._runs, sim._runs[1:]))
    # powered rows hold the nominal voltage; only a gap crossing's vary
    nominal = cfg.params.nominal_voltage
    for _, supply, cap in sim._runs:
        assert supply == 0.0 if type(cap) is list else supply == cap == nominal
    buf = io.StringIO()
    trace.write_csv(buf)
    assert buf.getvalue() == "time_s,supply_v,cap_v\n" + "".join(
        "%.6f,%.6f,%.6f\n" % row for row in rows)


def per_row_runs(runs):
    """The runs whose cap_v lists a voltage per row, by supply."""
    by_supply = collections.defaultdict(list)
    for n, supply, cap in runs:
        if type(cap) is list:
            assert len(cap) == n
            by_supply[supply].append(cap)
    return by_supply


def test_gap_clamped_at_zero_volts_stays_in_its_crossing_run():
    # a 0.5 s gap drains c80_off to 0 V in about 0.11 s; the capacitor then
    # sits at 0 V for hundreds of steps while the device reboots in the gap
    layout = TrackLayout([Segment(SegmentKind.LANE_CHANGE, 2.0, (0.5, 1.25), 0.25)])
    cfg = ScenarioConfig(params=EnergyModelParams.calibrated(), layout=layout,
                         speed=0.5, duration=3.0)
    sim = assert_same_run(cfg)
    assert sim.brownout_count >= 1
    crossings = per_row_runs(sim._runs)[0.0]
    entered = [ev for ev in sim.events if ev.kind is EventKind.GAP_ENTERED]
    assert len(crossings) == len(entered) > 0
    for caps in crossings:
        zeros = len(caps) - next(k for k, v in enumerate(caps) if v == 0.0)
        assert zeros > 100 and not any(caps[-zeros:])


def test_trace_keeps_one_run_per_crossing():
    # a gap-aligned request's reply makes full steps inside each gap
    cfg = load_scenario(
        importlib.resources.files("powergap") / "scenarios" / "gap_aligned_c160.scn").build()
    result = run_scenario(cfg)
    runs = result.trace.runs
    entered = [ev for ev in result.events if ev.kind is EventKind.GAP_ENTERED]
    nominal = cfg.params.nominal_voltage
    assert len(per_row_runs(runs)[0.0]) == len(entered) > 10
    # every other run holds equal samples at the nominal voltage
    assert all(run[1:] == (nominal, nominal) for run in runs if type(run[2]) is not list)
    assert sum(run[0] for run in runs) == round(cfg.duration / cfg.dt)


# -- the CSV writers against csv.writer -----------------------------------------

def csv_reference(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def trace_reference(trace):
    """csv.writer rows, with times from a fresh `t += dt` loop."""
    t, rows = 0.0, []
    for n, supply, cap in trace.runs:
        caps = cap if isinstance(cap, list) else [cap] * n
        assert len(caps) == n
        for v in caps:
            t += trace.dt
            rows.append([f"{t:.6f}", f"{supply:.6f}", f"{v:.6f}"])
    return csv_reference(["time_s", "supply_v", "cap_v"], rows)


def mixed_runs(total, seed):
    """Runs of `total` rows, taking turns: long stretches of one-row runs,
    runs of equal samples and per-row runs (and one empty per-row run),
    the latter two across block and second edges, with -0.0 and 0.0
    voltages."""
    rng = random.Random(seed)
    voltages = [9.0, 0.0, -0.0, 4.5, 1e-7, 8.999999, 0.1234565]
    kinds = itertools.islice(itertools.cycle(["per_row", "one_row", "equal"]), seed, None)
    runs, left = [], total
    while left:
        kind = next(kinds)
        if kind == "one_row":  # a stretch of one-row runs
            for _ in range(min(left, rng.randint(1, 3000))):
                runs.append((1, rng.choice(voltages), rng.choice(voltages)))
                left -= 1
            continue
        n = min(left, rng.choice([1, 2, 3, 1000, 2001, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1]))
        if kind == "per_row":  # as of a gap crossing
            runs.append((n, rng.choice([0.0, -0.0, 9.0]),
                         [rng.choice(voltages) for _ in range(n)]))
        else:
            runs.append((n, rng.choice(voltages), rng.choice(voltages)))
        left -= n
    runs.insert(rng.randint(0, len(runs)), (0, 0.0, []))
    return runs


class WriteLog:
    """A file that keeps each write's text."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def written(trace):
    """`trace`'s CSV, checking that no write holds more than CSV_CHUNK_ROWS rows."""
    log = WriteLog()
    trace.write_csv(log)
    assert max(text.count("\n") for text in log.writes) <= CSV_CHUNK_ROWS
    return "".join(log.writes)


def first_difference(text, expected):
    """None when the texts are equal, else the first line that differs, as
    (index, line, expected line): pytest's own diff of two long texts that
    differ on thousands of lines runs for minutes."""
    if text == expected:
        return None
    pairs = itertools.zip_longest(text.split("\n"), expected.split("\n"))
    return next((k, a, b) for k, (a, b) in enumerate(pairs) if a != b)


def assert_both_writers_match(trace):
    """`write_csv` writes the reference CSV both with the time source
    `csv_micro_step` picks and with the running sums forced."""
    expected = trace_reference(trace)
    assert first_difference(written(trace), expected) is None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(energy_model, "csv_micro_step", lambda dt, rows: 0)
        assert first_difference(written(trace), expected) is None


#: whole-microsecond steps take the micro time source, the rest the running sums
TRACE_DTS = [5e-4, 2.0**-10, 0.1, 1e-3, 1e-4, 1.0, 1 / 3000, 5e-4 + 1e-19]


@pytest.mark.parametrize("dt", TRACE_DTS)
@pytest.mark.parametrize("total", [0, 1, 4095, 4096, 4097, 8193])
def test_trace_csv_at_chunk_edges(total, dt):
    assert CSV_CHUNK_ROWS == 4096
    for seed in range(3):
        trace = VoltageTrace(mixed_runs(total, seed), dt)
        assert len(trace) == total
        assert_both_writers_match(trace)


@pytest.mark.parametrize("dt", TRACE_DTS)
def test_trace_csv_at_second_edges(dt):
    # one row short of, at and one past a second's rows, and past two seconds
    per_s = round(1 / dt)
    for total in [per_s - 1, per_s, per_s + 1, 2 * per_s + 1]:
        for seed in range(3):
            assert_both_writers_match(VoltageTrace(mixed_runs(total, seed), dt))


@pytest.mark.parametrize("dt, rows, step", [
    (5e-4, 80_000, 500),
    (5e-4 + 1e-19, 80_000, 500),
    (1e-3, 1_000_000, 1000),
    (0.1, 100_000, 100_000),
    (1.0, 1000, 1_000_000),
    (5e-4, 0, 500),
    (2.0**-10, 1000, 0),  # 976.5625 µs
    (1 / 3000, 1000, 0),  # 333.3... µs
    (2e-4, 1000, 0),  # whole microseconds, but below 1/4096 s
    (1e-4, 1000, 0),
    (1e-6, 1000, 0),
    (3e-4, 1000, 0),  # 300 µs does not divide one second
    (2.0, 1000, 0),
    (5e-4, 10_000_000, 0),  # too many rows for the rounding bound
    (0.1, 10_000_000, 0),
    # 0.1 ns off 500 µs: the running sum drifts past a quarter µs after
    # 2,500 rows
    (5e-4 + 1e-10, 10_000, 0),
    (5e-4 + 1e-10, 2_000, 500),
])
def test_csv_micro_step_picks_the_writer(dt, rows, step):
    assert csv_micro_step(dt, rows) == step


def test_trace_csv_follows_a_drifting_sum():
    # row 10,000's running sum prints 5.000001, not 10,000 × 500 µs
    trace = VoltageTrace(mixed_runs(10_000, 0), 5e-4 + 1e-10)
    assert "\n5.000001," in trace_reference(trace)
    assert_both_writers_match(trace)


@pytest.mark.parametrize("runs", [
    [(100_000, 9.0, 9.0)],
    [(1, 0.0, -0.0), (100_000, 9.0, 9.0), (1, -0.0, 0.0)],
    [(1, 0.0, 9.0 - k * 1e-3) for k in range(9000)],
    [(1, -0.0, 0.0), (100_000, 0.0, [9.0 - k * 1e-5 for k in range(100_000)]), (1, 0.0, -0.0)],
], ids=["one_long_run", "long_run_off_the_edge", "one_row_runs", "per_row_run"])
def test_trace_csv_long_runs(runs):
    assert_both_writers_match(VoltageTrace(runs, 5e-4))


def test_trace_csv_prints_each_one_row_supply():
    # one-row runs whose supplies compare equal but print differently (0.0
    # and -0.0), so a piece that prints one shared supply must hold one
    # object: pieces that start and end with either, on both sides of every
    # block edge of both time sources; then equal supplies that are
    # distinct objects
    edges = {2000, 4000, 6000, 8000, 4096, 8192}
    negative = {1, 9000} | {k + d for k in edges for d in (-1, 0, 1)}
    runs = [(1, -0.0 if k in negative else 0.0, 9.0 - k * 1e-3) for k in range(1, 9001)]
    runs += [(1, float("4.5"), 4.5) for _ in range(5000)]
    assert runs[-1][1] == runs[-2][1] and runs[-1][1] is not runs[-2][1]
    assert_both_writers_match(VoltageTrace(runs, 5e-4))


LONG_RUNS = {
    "": [(100_000, 9.0, 9.0)],
    "one_row_runs": [(1, 0.0, 9.0 - k * 1e-5) for k in range(100_000)],
    "per_row_run": [(100_000, 0.0, [9.0 - k * 1e-5 for k in range(100_000)])],
}


@pytest.mark.parametrize("runs, dt", [
    (kind, dt) for kind in LONG_RUNS for dt in (5e-4, 2.0**-10)
], ids=[(kind + "-" if kind else "") + source
        for kind in LONG_RUNS for source in ("micro", "summed")])
def test_trace_csv_splits_a_long_run(runs, dt):
    class Discard:
        def write(self, text):
            pass

    trace = VoltageTrace(LONG_RUNS[runs], dt)
    tracemalloc.start()
    try:
        trace.write_csv(Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a writer that builds the whole text peaks at about 5.6 MB, one that
    # lists a whole stretch of one-row runs at over 1.2 MB
    assert peak < 1_000_000


def test_events_csv_matches_csv_writer():
    # every kind, with the details the simulation writes, and an empty one
    cfg = replace(crossing_config(state=C240_TX), duration=1.2,
                  schedule=HostRequestSchedule(gap_aligned=True))
    events = run_scenario(cfg).events
    assert {ev.kind for ev in events} == set(EventKind)
    events += [Event(0.0, kind) for kind in EventKind]
    buf = io.StringIO()
    events_to_csv(events, buf)
    assert buf.getvalue() == csv_reference(
        ["time_s", "event", "detail"],
        [[f"{ev.time:.6f}", ev.kind.value, ev.detail] for ev in events])


def test_events_csv_of_no_events():
    buf = io.StringIO()
    events_to_csv([], buf)
    assert buf.getvalue() == "time_s,event,detail\n"


C240_TX_REPR = "PowerState(clock=<ClockTier.C240: 240>, radio=<RadioMode.TRANSMITTING: 'tx'>)"
STRAIGHT = Segment(SegmentKind.STRAIGHT, 0.3)
STRAIGHT_REPR = ("Segment(kind=<SegmentKind.STRAIGHT: 'straight'>, length=0.3, gap_offsets=(), "
                 "gap_length=0.06)")
PARAMS = EnergyModelParams(2.0e-3, 9.5, 3.5, 0.025, {C240_TX: 0.25})
PARAMS_REPR = ("EnergyModelParams(capacitance=0.002, nominal_voltage=9.5, brownout_drop=3.5, "
               f"gap_duration=0.025, current_table={{{C240_TX_REPR}: 0.25}})")
LINK = WirelessLinkParams(0.5, 0.04, 0.003, 0.02, 0.1)
LINK_REPR = ("WirelessLinkParams(connect_latency=0.5, connect_extra_current=0.04, "
             "per_frame_airtime=0.003, reply_airtime=0.02, loss_rate=0.1)")
#: type -> (its arguments, another value for each, its repr); the first
#: four are immutable values, the rest plain classes compared by value
VALUE_SEMANTICS = {
    PowerState: (
        {"clock": ClockTier.C240, "radio": RadioMode.TRANSMITTING},
        {"clock": ClockTier.C80, "radio": RadioMode.OFF},
        C240_TX_REPR),
    Segment: (
        {"kind": SegmentKind.LANE_CHANGE, "length": 0.48, "gap_offsets": (0.09, 0.36),
         "gap_length": 0.05},
        {"kind": SegmentKind.CURVE, "length": 0.5, "gap_offsets": (), "gap_length": 0.06},
        "Segment(kind=<SegmentKind.LANE_CHANGE: 'lanechange'>, length=0.48, "
        "gap_offsets=(0.09, 0.36), gap_length=0.05)"),
    EnergyBudget: (
        {"max_allowed_drop": 2.5, "lookahead": 0.02},
        {"max_allowed_drop": 3.5, "lookahead": 0.05},
        "EnergyBudget(max_allowed_drop=2.5, lookahead=0.02)"),
    HostRequestSchedule: (
        {"times": (1.0, 2.5), "gap_aligned": False},
        {"times": (), "gap_aligned": True},
        "HostRequestSchedule(times=(1.0, 2.5), gap_aligned=False)"),
    CarState: (
        {"position": 0.25, "speed": 3.0, "powered": False, "capacitor_v": 7.5,
         "power_state": C240_TX},
        {"position": 0.5, "speed": 0.0, "powered": True, "capacitor_v": 9.0,
         "power_state": C80_OFF},
        f"CarState(position=0.25, speed=3.0, powered=False, capacitor_v=7.5, "
        f"power_state={C240_TX_REPR})"),
    Event: (
        {"time": 0.5, "kind": EventKind.BROWNOUT, "detail": "v=4.9"},
        {"time": 0.75, "kind": EventKind.REBOOT, "detail": ""},
        "Event(time=0.5, kind=<EventKind.BROWNOUT: 'Brownout'>, detail='v=4.9')"),
    TrackLayout: (
        {"segments": [STRAIGHT], "dock_position": 0.1},
        {"segments": [STRAIGHT, STRAIGHT], "dock_position": None},
        "TrackLayout(segments=[Segment(kind=<SegmentKind.STRAIGHT: 'straight'>, "
        "length=0.3, gap_offsets=(), gap_length=0.06)], dock_position=0.1)"),
    Frame: (
        {"kind": FrameKind.REPLY, "seq": 7, "payload": b"ok"},
        {"kind": FrameKind.LOG, "seq": 8, "payload": b""},
        "Frame(kind=<FrameKind.REPLY: 6>, seq=7, payload=b'ok')"),
    EnergyModelParams: (
        {"capacitance": 2.0e-3, "nominal_voltage": 9.5, "brownout_drop": 3.5,
         "gap_duration": 0.025, "current_table": {C240_TX: 0.25}},
        {"capacitance": 1.0e-3, "nominal_voltage": 9.0, "brownout_drop": 4.0,
         "gap_duration": 0.02, "current_table": {C240_TX: 0.3}},
        PARAMS_REPR),
    WirelessLinkParams: (
        {"connect_latency": 0.5, "connect_extra_current": 0.04, "per_frame_airtime": 0.003,
         "reply_airtime": 0.02, "loss_rate": 0.1},
        {"connect_latency": 1.5, "connect_extra_current": 0.05, "per_frame_airtime": 0.002,
         "reply_airtime": 0.025, "loss_rate": 0.0},
        LINK_REPR),
    LogRecord: (
        {"seq": 7, "timestamp": 1.5, "severity": Severity.WARN, "payload": b"log",
         "crc": 0x1234},
        {"seq": 8, "timestamp": 2.0, "severity": Severity.INFO, "payload": b"", "crc": 0},
        "LogRecord(seq=7, timestamp=1.5, severity=<Severity.WARN: 2>, payload=b'log', "
        "crc=4660)"),
    DeliveryMetrics: (
        {"appended_records": 40, "delivered_records": 30, "delivered_bytes": 960,
         "mean_latency_s": 0.5, "median_latency_s": 0.25, "p95_latency_s": 1.5,
         "brownout_count": 2, "max_drop_v": 3.25, "radio_on_s": 4.5,
         "bytes_stored_peak": 512, "requests_arrived": 3, "requests_answered": 1,
         "dropped_records": 4, "evicted_records": 5, "lost_unflushed": 6,
         "backlog_growing": True},
        {"appended_records": 41, "delivered_records": 31, "delivered_bytes": 992,
         "mean_latency_s": 0.75, "median_latency_s": 0.5, "p95_latency_s": 2.0,
         "brownout_count": 0, "max_drop_v": 1.0, "radio_on_s": 0.0,
         "bytes_stored_peak": 0, "requests_arrived": 0, "requests_answered": 0,
         "dropped_records": 0, "evicted_records": 0, "lost_unflushed": 0,
         "backlog_growing": False},
        "DeliveryMetrics(appended_records=40, delivered_records=30, delivered_bytes=960, "
        "mean_latency_s=0.5, median_latency_s=0.25, p95_latency_s=1.5, brownout_count=2, "
        "max_drop_v=3.25, radio_on_s=4.5, bytes_stored_peak=512, requests_arrived=3, "
        "requests_answered=1, dropped_records=4, evicted_records=5, lost_unflushed=6, "
        "backlog_growing=True)"),
    ScenarioConfig: (
        {"params": PARAMS, "layout": TrackLayout([STRAIGHT], 0.1), "speed": 2.0,
         "dt": 0.001, "duration": 2.5, "seed": 7, "initial_state": C240_TX,
         "strategy": StrategyKind.STOP_AND_RADIO, "controller": True,
         "budget": EnergyBudget(2.5, 0.02), "wireless": LINK, "workload_rate": 40.0,
         "workload_payload": 32, "schedule": HostRequestSchedule((1.0,)),
         "drain_interval": 5.0, "wired_frame_time": 0.002, "reboot_dead_time": 0.25,
         "ram_capacity": 64, "flash_capacity": 4096, "name": "probe"},
        {"params": EnergyModelParams(), "layout": TrackLayout([STRAIGHT]), "speed": 3.0,
         "dt": 5.0e-4, "duration": 1.0, "seed": 0, "initial_state": C80_OFF,
         "strategy": None, "controller": False, "budget": EnergyBudget(),
         "wireless": WirelessLinkParams(), "workload_rate": 0.0, "workload_payload": 16,
         "schedule": HostRequestSchedule(), "drain_interval": 10.0,
         "wired_frame_time": 0.001, "reboot_dead_time": 0.5, "ram_capacity": 256,
         "flash_capacity": 65536, "name": "scenario"},
        f"ScenarioConfig(params={PARAMS_REPR}, layout=TrackLayout(segments=[{STRAIGHT_REPR}], "
        f"dock_position=0.1), speed=2.0, dt=0.001, duration=2.5, seed=7, "
        f"initial_state={C240_TX_REPR}, strategy=<StrategyKind.STOP_AND_RADIO: "
        f"'stop_and_radio'>, controller=True, budget=EnergyBudget(max_allowed_drop=2.5, "
        f"lookahead=0.02), wireless={LINK_REPR}, workload_rate=40.0, workload_payload=32, "
        f"schedule=HostRequestSchedule(times=(1.0,), gap_aligned=False), "
        f"drain_interval=5.0, wired_frame_time=0.002, reboot_dead_time=0.25, "
        f"ram_capacity=64, flash_capacity=4096, name='probe')"),
}
FROZEN = (PowerState, Segment, EnergyBudget, HostRequestSchedule)
#: the classes that `dataclasses.replace` copied while they were dataclasses
REPLACED = (EnergyModelParams, WirelessLinkParams, LogRecord, DeliveryMetrics, ScenarioConfig)


@pytest.mark.parametrize("cls", VALUE_SEMANTICS, ids=lambda cls: cls.__name__)
def test_light_classes_keep_their_dataclass_semantics(cls):
    """The value types and per-run classes built without `@dataclass`
    compare, hash, print, copy and pickle as their dataclasses did."""
    args, others, text = VALUE_SEMANTICS[cls]
    value = cls(**args)
    assert repr(value) == text
    for same in (cls(**args), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert same == value and same is not value and repr(same) == text
        if cls in FROZEN:
            assert hash(same) == hash(value)
    for name, other in others.items():  # every field takes part in equality
        assert cls(**{**args, name: other}) != value, name
        if cls in FROZEN:
            with pytest.raises(AttributeError):
                setattr(value, name, other)
    if cls not in FROZEN:
        assert cls.__hash__ is None


@pytest.mark.parametrize("cls", REPLACED, ids=lambda cls: cls.__name__)
def test_replace_changes_one_field(cls):
    """`replace` copies as `dataclasses.replace` did: the one field given
    changes, every other keeps its value, and an unknown field is refused."""
    args, others, _ = VALUE_SEMANTICS[cls]
    value = cls(**args)
    for name, other in others.items():
        changed = replace(value, **{name: other})
        assert changed == cls(**{**args, name: other}) and changed != value, name
    same = replace(value)
    assert same == value and same is not value
    with pytest.raises(TypeError):
        replace(value, no_such_field=1)


def test_default_table_and_link_are_fresh_per_instance():
    a, b = EnergyModelParams(), EnergyModelParams()
    assert a.current_table == {} and a.current_table is not b.current_table
    layout = TrackLayout([STRAIGHT])
    c, d = ScenarioConfig(a, layout), ScenarioConfig(b, layout)
    assert c.wireless == WirelessLinkParams() and c.wireless is not d.wireless
