import dataclasses

import pytest
from hypothesis import assume, given, settings, strategies as st

from powergap.energy_model import (
    ClockTier,
    EnergyModelParams,
    PowerState,
    RadioMode,
)
from powergap.track_world import (
    EventKind,
    HostRequestSchedule,
    LayoutError,
    ScenarioConfig,
    Segment,
    SegmentKind,
    Simulation,
    TrackLayout,
    run_scenario,
)

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

    def test_gap_length_must_be_positive(self):
        with pytest.raises(LayoutError):
            Segment(SegmentKind.LANE_CHANGE, 0.5, (0.1, 0.3), 0.0).validate()

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
def layouts(draw):
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
        assert all(cap == 9.0 for _, _, cap in result.trace.samples)
        assert result.events == []

    def test_flat_trace_without_gaps(self):
        cfg = ScenarioConfig(
            params=EnergyModelParams.calibrated(),
            layout=TrackLayout([Segment(SegmentKind.STRAIGHT, 2.0)]),
            duration=0.5,
        )
        result = run_scenario(cfg)
        assert all(cap == 9.0 for _, _, cap in result.trace.samples)
        assert result.metrics.max_drop_v == 0.0


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
        assert len(list(sim.store.unacked())) == 90
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
        assert a.trace.samples == b.trace.samples
        assert a.events == b.events
        assert a.metrics == b.metrics

    def test_invalid_layout_rejected_before_run(self):
        cfg = crossing_config()
        cfg.layout = TrackLayout([], dock_position=None)
        with pytest.raises(LayoutError):
            Simulation(cfg)

    def test_power_duality(self):
        result = run_scenario(crossing_config())
        prev_cap = 9.0
        for _, supply, cap in result.trace.samples:
            if supply > 0:
                assert cap == 9.0
            else:
                assert cap <= prev_cap + 1e-12
            prev_cap = cap

    def test_gap_conservation(self):
        # unpowered samples per crossing ~= 2 * gap_length / speed
        cfg = crossing_config()
        result = run_scenario(cfg)
        unpowered = sum(1 for _, s, _ in result.trace.samples if s == 0.0) * cfg.dt
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
    def test_times_validation(self):
        with pytest.raises(ValueError):
            HostRequestSchedule(times=(2.0, 1.0))
        with pytest.raises(ValueError):
            HostRequestSchedule(times=(-1.0,))

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
    def test_finite_recharge_rate(self):
        cfg = crossing_config()
        cfg.recharge_rate = 50.0  # volts/second
        result = run_scenario(cfg)
        # after the first gap the capacitor needs ~32 ms to climb 1.62 V back
        caps = [cap for _, _, cap in result.trace.samples]
        assert min(caps) == pytest.approx(9.0 - 1.62, rel=0.01)
        t_full_again = next(
            t for t, _, cap in result.trace.samples if 0.15 < t and cap == 9.0
        )
        assert t_full_again > 0.15

    def test_supply_ripple_is_cosmetic(self):
        cfg = crossing_config()
        cfg.ripple_amplitude = 0.3
        result = run_scenario(cfg)
        supplies = {s for _, s, _ in result.trace.samples if s > 0}
        assert supplies == {8.7, 9.3}
        assert result.metrics.max_drop_v == pytest.approx(1.62, rel=0.01)
