import copy
import importlib.resources
import math

import pytest
from test_golden import FLOOD

from powergap.energy_model import (
    ClockTier,
    EnergyModelParams,
    PowerState,
    RadioMode,
    replace,
)
from powergap.log_store import Severity
from powergap.ota import OtaDevice, OtaError, OtaState, image_digest, run_ota_transfer
from powergap.scenario import load_scenario, parse_scenario
from powergap.strategies import (
    REPLY,
    Driver,
    EnergyBudget,
    Gate,
    StrategyKind,
    controller_gate,
)
from powergap.track_world import (
    EventKind,
    HostRequestSchedule,
    ScenarioConfig,
    Segment,
    SegmentKind,
    Simulation,
    TrackLayout,
    evaluate_strategies,
    run_scenario,
)
from powergap.transports import SLOT_BITS, Outcome, WirelessLinkParams


def loop_layout(dock=0.20):
    return TrackLayout(
        [
            Segment(SegmentKind.STRAIGHT, 0.51),
            Segment(SegmentKind.LANE_CHANGE, 0.48, (0.09, 0.36)),
            Segment(SegmentKind.STRAIGHT, 0.51),
        ],
        dock_position=dock,
    )


def base_config(**kwargs):
    defaults = dict(
        params=EnergyModelParams.calibrated(),
        layout=loop_layout(),
        speed=3.0,
        duration=20.0,
        seed=11,
        workload_rate=10.0,
        workload_payload=10,
        drain_interval=5.0,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


class TestControllerGate:
    def test_defer_just_before_gap(self):
        cfg = base_config(strategy=None)
        sim = Simulation(cfg)
        # 10 ms before gap entry at 3 m/s: 0.03 m short of the first gap
        sim.car.position = 0.51 + 0.09 - 0.03
        budget = EnergyBudget(lookahead=0.050)
        assert controller_gate(budget, sim) is Gate.DEFER

    def test_allow_on_long_straight(self):
        cfg = base_config(strategy=None)
        sim = Simulation(cfg)
        sim.car.position = 0.10
        assert controller_gate(EnergyBudget(), sim) is Gate.ALLOW

    def test_defer_inside_gap(self):
        cfg = base_config(strategy=None)
        sim = Simulation(cfg)
        sim.car.position = 0.62  # inside the first gap
        assert controller_gate(EnergyBudget(), sim) is Gate.DEFER

    def test_budget_caps_predicted_drop(self):
        cfg = base_config(strategy=None)
        sim = Simulation(cfg)
        sim.car.position = 0.62
        sim.car.capacitor_v = 6.0  # 3.0 V already gone
        assert controller_gate(EnergyBudget(lookahead=0.0), sim) is Gate.DEFER

    def test_budget_checked_outside_gaps(self):
        sim = Simulation(base_config(strategy=None))
        sim.car.position = 0.10  # long straight, no gap ahead within lookahead 0
        budget = EnergyBudget(max_allowed_drop=3.5, lookahead=0.0)
        sim.car.capacitor_v = 5.0  # 4.0 V gone: past the budget
        assert controller_gate(budget, sim) is Gate.DEFER
        sim.car.capacitor_v = 6.0  # 3.0 V gone: within it
        assert controller_gate(budget, sim) is Gate.ALLOW


class TestControllerEfficacy:
    def _gap_aligned_config(self, controller):
        params = EnergyModelParams.calibrated()
        params.current_table[
            PowerState(ClockTier.C160, RadioMode.TRANSMITTING)
        ] = 0.250  # burst current while answering a request
        return base_config(
            params=params,
            initial_state=PowerState(ClockTier.C160, RadioMode.OFF),
            strategy=StrategyKind.WIRELESS_CONTINUOUS,
            controller=controller,
            budget=EnergyBudget(max_allowed_drop=3.5, lookahead=0.050),
            schedule=HostRequestSchedule(gap_aligned=True),
            workload_rate=0.0,
            duration=12.0,
        )

    def test_without_gate_brownouts(self):
        result = run_scenario(self._gap_aligned_config(controller=False))
        assert result.metrics.brownout_count >= 1

    def test_with_gate_no_brownouts_and_all_answered(self):
        result = run_scenario(self._gap_aligned_config(controller=True))
        assert result.metrics.brownout_count == 0
        assert result.metrics.requests_arrived > 0
        assert result.metrics.requests_answered == result.metrics.requests_arrived


class TestWirelessContinuous:
    def test_empty_queue_stays_idle(self):
        cfg = base_config(
            strategy=StrategyKind.WIRELESS_CONTINUOUS,
            wireless=WirelessLinkParams(connect_latency=0.1),
            workload_rate=0.0,
            duration=5.0,
        )
        result = run_scenario(cfg)
        assert result.metrics.delivered_records == 0
        # idle-connected crossings only: 1.91 V, never the 2.64 V send drop
        assert result.metrics.max_drop_v == pytest.approx(1.91, rel=0.02)

    def test_streams_records_with_low_latency(self):
        result = run_scenario(base_config(strategy=StrategyKind.WIRELESS_CONTINUOUS))
        m = result.metrics
        assert m.delivered_records > 0.9 * m.appended_records
        assert m.median_latency_s < 0.1
        assert m.radio_on_s > 0

    def test_at_least_once_under_heavy_loss(self):
        cfg = base_config(
            strategy=StrategyKind.WIRELESS_CONTINUOUS,
            wireless=WirelessLinkParams(loss_rate=0.5, connect_latency=0.5),
            workload_rate=5.0,
            duration=25.0,
            seed=1234,
        )
        sim = Simulation(cfg)
        sim.run()
        # every flushed record was eventually acked despite 50% loss
        assert sim.store.appended > 0
        assert list(sim.store.flash) == []
        assert len(sim.store.ram) == 0


class TestRadioSendFrame:
    def radio(self, loss_rate, seed=11):
        cfg = base_config(strategy=StrategyKind.WIRELESS_CONTINUOUS, seed=seed,
                          wireless=WirelessLinkParams(loss_rate=loss_rate))
        return Simulation(cfg).driver

    def test_lossless_delivery(self):
        driver = self.radio(0.0)
        assert driver.send_frame(stored_record(driver.sim)) is Outcome.DELIVERED

    def test_loss_is_seed_deterministic(self):
        def outcomes(seed):
            driver = self.radio(0.5, seed)
            record = stored_record(driver.sim)
            return [driver.send_frame(record) for _ in range(50)]

        assert outcomes(42) == outcomes(42)
        assert Outcome.LOST in outcomes(42)
        assert Outcome.DELIVERED in outcomes(42)


@pytest.mark.parametrize("kind", list(StrategyKind), ids=lambda k: k.value)
def test_exactly_once_presentation(kind):
    # the shared frame pump under frame and ack loss, with host requests
    cfg = base_config(
        strategy=kind,
        wireless=WirelessLinkParams(loss_rate=0.3, connect_latency=0.5),
        workload_rate=5.0,
        duration=20.0,
        seed=99,
        schedule=HostRequestSchedule(times=(1.0, 2.5, 5.2, 5.3, 9.0, 12.5, 16.0)),
    )
    sim = Simulation(cfg)
    sim.run()
    seqs = [seq for seq, _ in sim.host.presented]
    assert seqs
    assert all(a < b for a, b in zip(seqs, seqs[1:]))
    assert sim.delivered_records == len(seqs)
    assert sim.store.conservation_holds()
    assert 0 < sim.requests_answered <= sim.requests_arrived


def test_ack_lost_retransmission_is_presented_once():
    cfg = base_config(strategy=StrategyKind.WIRELESS_CONTINUOUS,
                      wireless=WirelessLinkParams(loss_rate=0.5), duration=10.0)
    sim = Simulation(cfg)
    received = []
    receive = sim.host.receive_log

    def spy(seq, payload):
        received.append(seq)
        return receive(seq, payload)

    sim.host.receive_log = spy
    sim.run()
    assert len(received) > len(set(received))  # a lost ack made the frame go again
    assert [seq for seq, _ in sim.host.presented] == sorted(set(received))


@pytest.mark.parametrize("kind", list(StrategyKind), ids=lambda k: k.value)
def test_evicted_records_presented_with_their_payload(kind):
    # the golden FLOOD workload evicts records while their frames are in flight
    cfg = replace(parse_scenario(FLOOD, "flood").build(), strategy=kind)
    sim = Simulation(cfg)
    sim.run()
    assert sim.store.evicted > 0
    assert sim.host.presented
    assert [len(p) for _, p in sim.host.presented if len(p) != cfg.workload_payload] == []


def test_records_appended_directly_are_delivered_and_timed():
    # appended straight to the store, not by the workload, under a driver
    sim = Simulation(base_config(strategy=StrategyKind.WIRELESS_CONTINUOUS,
                                 workload_rate=0.0, duration=5.0))
    sim.store.append(Severity.INFO, b"early", timestamp=-10.0)
    sim.store.append(Severity.INFO, b"late", timestamp=0.0)
    sim.run()
    assert sim.delivered_records == 2
    assert sim.delivered_bytes == len(b"early") + len(b"late")
    # both go out right after the 1.5 s association, latency from each timestamp
    early, late = sim.latencies
    assert 1.5 <= late < 1.6
    assert early - late == pytest.approx(10.0, abs=0.01)


def idle_sim(kind, **kwargs):
    """A fresh run of `kind` with no workload: nothing to send."""
    return Simulation(base_config(strategy=kind, workload_rate=0.0, **kwargs))


def stored_record(sim, at=0.0):
    """Append and flush one record; the stored record."""
    sim.store.append(Severity.INFO, b"x", at)
    sim.store.flush()
    return sim.store.flash[-1]


def test_pump_sends_the_record_it_picked():
    # the pump picks the stored record itself, a reply ahead of it, and
    # nothing when neither waits; picking changes nothing
    sim = idle_sim(StrategyKind.WIRELESS_CONTINUOUS)
    driver = sim.driver
    assert driver._next_frame() is None
    stored_record(sim, at=0.5)
    record = sim.store.flash[0]
    assert driver._next_frame() is record
    assert driver._next_frame() is record
    sim.requests_arrived = 1  # request 1 is pending
    assert driver._next_frame() is REPLY
    sim.requests_answered = 1
    # the record it sends is the one `_finish` presents and times
    driver.associated = True
    driver._start(2.0, driver._next_frame())
    driver._finish(2.002)
    assert sim.host.presented == [(record.seq, record.payload)]
    assert sim.latencies == [2.002 - record.timestamp]
    assert not sim.store.flash


class TestNextWake:
    """`next_wake(now)`: the first step end at which a tick can act, `inf`
    if none; ticks before it are no-ops.  Deadlines hold their rounding
    margin, so the wake is the stored deadline itself."""

    def test_base_driver_never_skips(self):
        sim = idle_sim(None)
        assert Driver(sim).next_wake(1.25) == 1.25

    def test_wireless_unassociated_before_first_tick(self):
        sim = idle_sim(StrategyKind.WIRELESS_CONTINUOUS)
        assert sim.driver.next_wake(0.0) == 0.0

    def test_wireless_connecting_until_associated(self):
        sim = idle_sim(StrategyKind.WIRELESS_CONTINUOUS)
        sim.step()  # the first tick begins associating
        driver = sim.driver
        assert not driver.associated
        wake = driver.next_wake(sim.now)
        assert wake == driver.connecting_until == sim.now + 1.5 - 1e-12

    def test_wireless_idle_waits_for_work(self):
        sim = idle_sim(StrategyKind.WIRELESS_CONTINUOUS)
        sim.driver.associated = True
        assert sim.driver.next_wake(2.0) == math.inf

    def test_wireless_with_work_ticks_now(self):
        sim = idle_sim(StrategyKind.WIRELESS_CONTINUOUS)
        sim.driver.associated = True
        stored_record(sim)
        assert sim.driver.next_wake(2.0) == 2.0
        sim = idle_sim(StrategyKind.WIRELESS_CONTINUOUS)
        sim.driver.associated = True
        sim.requests_arrived = 1  # request 1 is pending
        assert sim.driver.next_wake(2.0) == 2.0

    @pytest.mark.parametrize("controller,position,wake", [
        (True, 0.51 + 0.09 + 0.03, math.inf),  # the gate defers in a gap
        (True, 0.51 + 0.09 - 0.03, math.inf),  # the lookahead overlaps the gap ahead
        (True, 0.10, 2.0),                     # the gate allows
        (False, 0.51 + 0.09 + 0.03, 2.0),      # no gate, even in a gap
    ], ids=["gate_defers_in_gap", "gate_defers_before_gap", "gate_allows", "gate_off"])
    def test_wireless_with_work_waits_while_the_gate_defers(self, controller, position, wake):
        # a tick the gate defers is a no-op, and the deferral lasts until
        # the car reaches a gap edge, which no quiet stretch crosses
        sim = idle_sim(StrategyKind.WIRELESS_CONTINUOUS, controller=controller)
        sim.driver.associated = True
        stored_record(sim)
        sim.car.position = position
        assert sim.driver.next_wake(2.0) == wake

    def test_wireless_frame_in_flight(self):
        sim = idle_sim(StrategyKind.WIRELESS_CONTINUOUS)
        driver = sim.driver
        driver.associated = True
        driver._start(2.0, stored_record(sim))
        assert driver.tx_until == 2.0 + sim.cfg.wireless.per_frame_airtime - 1e-12
        assert driver.next_wake(2.0) == driver.tx_until

    @pytest.mark.parametrize(
        "kind", [StrategyKind.STOP_AND_RADIO, StrategyKind.SAVE_AND_PRINT_LATER])
    def test_drain_cycle_cruising_until_next_drain(self, kind):
        sim = idle_sim(kind)
        stored_record(sim)  # records wait for the drain
        assert sim.driver.state == "cruise"
        assert sim.driver.next_wake(1.0) == sim.cfg.drain_interval

    def test_stop_and_radio_stopping_ticks_now(self):
        sim = idle_sim(StrategyKind.STOP_AND_RADIO)
        sim.driver.state = "stop"
        assert sim.driver.next_wake(5.0) == 5.0

    def test_save_and_print_later_stopping_waits_for_the_dock(self):
        # only the step that crosses the dock acts, and the scenario loop
        # stops short of the dock by position, not by time
        sim = idle_sim(StrategyKind.SAVE_AND_PRINT_LATER)
        sim.driver.state = "stop"
        assert sim.driver.next_wake(5.0) == math.inf

    @pytest.mark.parametrize(
        "kind", [StrategyKind.STOP_AND_RADIO, StrategyKind.SAVE_AND_PRINT_LATER])
    def test_drain_cycle_frame_in_flight(self, kind):
        sim = idle_sim(kind)
        driver = sim.driver
        driver.state = "drain"
        driver.tx_until = 5.002
        assert driver.next_wake(5.0) == 5.002

    def test_drain_cycle_overhead(self):
        sim = idle_sim(StrategyKind.STOP_AND_RADIO)
        driver = sim.driver
        driver.state, driver.overhead_until = "overhead", 5.5
        assert driver.next_wake(5.1) == 5.5

    def test_stop_and_radio_connecting(self):
        sim = idle_sim(StrategyKind.STOP_AND_RADIO)
        driver = sim.driver
        driver.state = "stop"
        driver._begin_connect(5.0)
        assert driver.next_wake(5.0) == driver.connecting_until == 5.0 + 1.5 - 1e-12

    def test_powerline_idle_until_slot_boundary(self):
        sim = idle_sim(StrategyKind.POWERLINE_CONTINUOUS)
        channel = sim.driver.channel
        wake = sim.driver.next_wake(0.0)
        assert wake == channel.next_boundary - 2e-12
        assert channel.tick(wake - 1e-9, True) is False

    def test_powerline_queue_nonempty(self):
        sim = idle_sim(StrategyKind.POWERLINE_CONTINUOUS)
        driver = sim.driver
        stored_record(sim)
        assert driver.next_wake(0.0) == 0.0  # a frame to start
        driver.tick(0.0)
        assert driver.in_flight is not None and driver.channel.slots_left
        assert driver.next_wake(0.0) == driver.channel.next_boundary - 2e-12


def drain_state(state, **attrs):
    def setup(driver):
        driver.state = state
        vars(driver).update(attrs)
    return setup


def associated(driver):
    driver.associated = True


def frame_sent(driver):
    associated(driver)
    driver._start(5.0, driver._next_frame())


def gate_deferred(driver):
    associated(driver)
    driver.sim.cfg.controller = True
    driver.sim.car.position = 0.51 + 0.09 + 0.03  # inside the first gap


def powerline_sending(driver):
    driver.tick(5.0)
    assert driver.in_flight is not None


WAKE_STATES = {
    "save_and_print_later-cruise": (StrategyKind.SAVE_AND_PRINT_LATER, drain_state("cruise")),
    "save_and_print_later-stop": (StrategyKind.SAVE_AND_PRINT_LATER, drain_state("stop")),
    "save_and_print_later-sending": (StrategyKind.SAVE_AND_PRINT_LATER,
                                     drain_state("drain", tx_until=5.002)),
    "save_and_print_later-overhead": (StrategyKind.SAVE_AND_PRINT_LATER,
                                      drain_state("overhead", overhead_until=5.5)),
    "stop_and_radio-cruise": (StrategyKind.STOP_AND_RADIO, drain_state("cruise")),
    "stop_and_radio-stop": (StrategyKind.STOP_AND_RADIO, drain_state("stop")),
    "stop_and_radio-connecting": (StrategyKind.STOP_AND_RADIO,
                                  drain_state("stop", connecting_until=5.4)),
    "stop_and_radio-sending": (StrategyKind.STOP_AND_RADIO,
                               drain_state("drain", tx_until=5.002)),
    "stop_and_radio-overhead": (StrategyKind.STOP_AND_RADIO,
                                drain_state("overhead", overhead_until=5.5)),
    "wireless-unassociated": (StrategyKind.WIRELESS_CONTINUOUS, lambda driver: None),
    "wireless-connecting": (StrategyKind.WIRELESS_CONTINUOUS,
                            lambda driver: driver._begin_connect(5.0)),
    "wireless-associated": (StrategyKind.WIRELESS_CONTINUOUS, associated),
    "wireless-sending": (StrategyKind.WIRELESS_CONTINUOUS, frame_sent),
    "wireless-deferred": (StrategyKind.WIRELESS_CONTINUOUS, gate_deferred),
    "powerline-frame_waiting": (StrategyKind.POWERLINE_CONTINUOUS, lambda driver: None),
    "powerline-sending": (StrategyKind.POWERLINE_CONTINUOUS, powerline_sending),
}


@pytest.mark.parametrize("kind,setup", WAKE_STATES.values(), ids=WAKE_STATES)
def test_float_wake_with_work_waiting_ignores_more_records(kind, setup):
    # once work waits, the scenario loop appends records within a quiet
    # stretch without a tick: more records must not move the wake, and a
    # tick before the wake must change nothing
    sim = idle_sim(kind)
    stored_record(sim)
    driver = sim.driver
    setup(driver)
    wake = driver.next_wake(5.0)
    assert isinstance(wake, float)
    for _ in range(3):
        stored_record(sim, 5.0)
    assert driver.next_wake(5.0) == wake
    if wake > 5.0:
        def state():
            return dict(vars(driver)), {k: copy.copy(v) for k, v in vars(sim.store).items()}
        before = state()
        driver.tick(5.0)
        assert state() == before


class TestSaveAndPrintLater:
    def test_no_transmission_while_driving(self):
        cfg = base_config(strategy=StrategyKind.SAVE_AND_PRINT_LATER, duration=4.0)
        # first drain at t=5 s, so nothing can be delivered in a 4 s run
        result = run_scenario(cfg)
        assert result.metrics.delivered_records == 0
        assert result.metrics.appended_records > 0

    def test_latency_at_least_time_to_dock(self):
        cfg = base_config(strategy=StrategyKind.SAVE_AND_PRINT_LATER, duration=20.0)
        sim = Simulation(cfg)
        result = sim.run()
        assert result.metrics.delivered_records > 0
        assert min(sim.latencies) >= cfg.wired_frame_time
        # records produced right after a drain wait a full drain interval
        assert max(sim.latencies) >= cfg.drain_interval * 0.5

    def test_requires_dock(self):
        cfg = base_config(
            strategy=StrategyKind.SAVE_AND_PRINT_LATER, layout=loop_layout(dock=None)
        )
        with pytest.raises(ValueError):
            Simulation(cfg)

    def test_radio_never_used(self):
        result = run_scenario(
            base_config(strategy=StrategyKind.SAVE_AND_PRINT_LATER)
        )
        assert result.metrics.radio_on_s == 0.0

    def test_every_send_starts_parked_at_the_dock(self):
        # the wired link reads out only a car parked at the dock:
        # `_approach` parks it there, and nothing moves it until `_cruise`
        cfg = base_config(
            strategy=StrategyKind.SAVE_AND_PRINT_LATER,
            wireless=WirelessLinkParams(loss_rate=0.3),
            schedule=HostRequestSchedule(times=(1.0, 2.5, 5.2, 5.3, 9.0, 12.5, 16.0)),
        )
        sim = Simulation(cfg)
        driver, car = sim.driver, sim.car
        start = driver._start
        places = []

        def spy(now, frame):
            places.append((car.speed, car.position))
            start(now, frame)

        driver._start = spy
        sim.run()
        assert sim.requests_answered > 0 and sim.delivered_records > 0
        assert set(places) == {(0.0, cfg.layout.dock_position)}


class TestStopAndRadio:
    def test_stops_drains_resumes(self):
        # one drain cycle: stop at t=5, connect 1.5 s, drain, 0.5 s overhead
        cfg = base_config(strategy=StrategyKind.STOP_AND_RADIO, duration=9.0)
        sim = Simulation(cfg)
        result = sim.run()
        m = result.metrics
        assert m.delivered_records > 0
        assert m.radio_on_s > 0
        # car is cruising again at the end of the run
        assert sim.car.speed == cfg.speed
        # stopping point must not be a gap
        assert not cfg.layout.in_gap(sim.car.position) or sim.car.speed > 0

    def test_radio_off_between_drains(self):
        cfg = base_config(
            strategy=StrategyKind.STOP_AND_RADIO, duration=4.0, drain_interval=10.0
        )
        result = run_scenario(cfg)
        assert result.metrics.radio_on_s == 0.0
        assert result.metrics.delivered_records == 0


class TestPowerlineContinuous:
    def test_sustained_delivery_below_capacity(self):
        cfg = base_config(
            strategy=StrategyKind.POWERLINE_CONTINUOUS,
            workload_rate=2.0,
            duration=30.0,
        )
        result = run_scenario(cfg)
        m = result.metrics
        assert m.delivered_records > 0
        assert not m.backlog_growing
        assert m.radio_on_s == 0.0

    def test_overload_grows_backlog(self):
        # 20 records/s x 10-byte payload = 1600 bit/s of payload alone,
        # beyond the ~1387 bit/s slot capacity
        cfg = base_config(
            strategy=StrategyKind.POWERLINE_CONTINUOUS,
            workload_rate=20.0,
            duration=30.0,
        )
        result = run_scenario(cfg)
        assert result.metrics.backlog_growing

    def test_no_delivery_inside_gaps(self):
        cfg = base_config(strategy=StrategyKind.POWERLINE_CONTINUOUS, duration=10.0)
        sim = Simulation(cfg)
        channel = sim.driver.channel
        tick = channel.tick
        delivery_times = []

        def timed_tick(now, powered):
            boundary, bits = channel.next_boundary, channel.delivered_bits
            landed = tick(now, powered)
            # a tick's deliveries take its first boundaries
            for _ in range((channel.delivered_bits - bits) // SLOT_BITS):
                delivery_times.append(boundary)
                boundary += channel.slot_time
            return landed

        channel.tick = timed_tick
        result = sim.run()
        gap_windows = []
        start = None
        for e in result.events:
            if e.kind is EventKind.GAP_ENTERED:
                start = e.time
            elif e.kind is EventKind.GAP_EXITED and start is not None:
                gap_windows.append((start, e.time))
                start = None
        assert gap_windows
        assert channel.delivered_bits == SLOT_BITS * len(delivery_times) > 0
        eps = cfg.dt / 2  # slot boundaries can land on a gap edge
        for t in delivery_times:
            assert not any(a + eps <= t < b - eps for a, b in gap_windows)

    @pytest.mark.xfail(strict=True, reason=(
        "the tick reads `car.powered` before `step` updates it, so a full step "
        "entering a gap delivers its slots; reading the rails at `now` needs a "
        "golden regen, due with ROADMAP item 4 stage B"))
    def test_slot_boundaries_see_the_rails_at_the_tick(self):
        cfg = load_scenario(importlib.resources.files("powergap") / "scenarios"
                            / "reference_workload.scn").build()
        sim = Simulation(replace(
            cfg, strategy=StrategyKind.POWERLINE_CONTINUOUS))
        channel, layout = sim.driver.channel, cfg.layout
        tick = channel.tick
        powered_in_gap = []

        def checked_tick(now, powered):
            # the same margin as `PowerlineChannel.tick`
            if (channel.next_boundary <= now + 1e-12 and powered
                    and layout.in_gap(sim.car.position)):
                powered_in_gap.append(now)
            return tick(now, powered)

        channel.tick = checked_tick
        sim.run()
        assert powered_in_gap == []


class TestEvaluate:
    def test_one_row_per_strategy(self):
        rows = evaluate_strategies(
            base_config(duration=10.0), list(StrategyKind)
        )
        assert [k for k, _ in rows] == list(StrategyKind)

    def test_wireless_beats_aperiodic_on_latency(self):
        rows = dict(
            evaluate_strategies(
                base_config(duration=20.0),
                [StrategyKind.WIRELESS_CONTINUOUS, StrategyKind.SAVE_AND_PRINT_LATER],
            )
        )
        wc = rows[StrategyKind.WIRELESS_CONTINUOUS]
        sp = rows[StrategyKind.SAVE_AND_PRINT_LATER]
        assert wc.median_latency_s < sp.median_latency_s

    def test_ranking_stable_under_payload_scaling(self):
        kinds = [
            StrategyKind.SAVE_AND_PRINT_LATER,
            StrategyKind.STOP_AND_RADIO,
            StrategyKind.WIRELESS_CONTINUOUS,
            StrategyKind.POWERLINE_CONTINUOUS,
        ]

        def ranking(payload):
            cfg = base_config(
                duration=20.0, workload_rate=2.0, workload_payload=payload
            )
            rows = evaluate_strategies(cfg, kinds)
            assert not any(m.backlog_growing for _, m in rows)  # unsaturated
            return [k for k, m in sorted(rows, key=lambda km: km[1].median_latency_s)]

        assert ranking(10) == ranking(20)


IMAGE = bytes((i * 7 + 3) % 256 for i in range(65536))


class TestOta:
    def test_full_transfer_64_chunks(self):
        device = OtaDevice(active_image=b"old firmware")
        result = run_ota_transfer(device, IMAGE, chunk_size=1024)
        assert result.completed
        assert result.chunk_attempts == 64
        assert result.resumptions == 0
        assert device.pending_swap == "B"
        device.on_reboot()
        assert device.active_slot == "B"
        assert device.active_hash() == image_digest(IMAGE)

    def test_resume_after_brownout_at_chunk_30(self):
        device = OtaDevice(active_image=b"old firmware")
        result = run_ota_transfer(device, IMAGE, chunk_size=1024, faults=[30])
        assert result.completed
        assert result.resumptions == 1
        # chunk 30 was attempted twice, everything else once
        assert result.chunk_attempts == 65
        device.on_reboot()
        assert device.active_hash() == image_digest(IMAGE)

    def test_corrupted_chunk_leaves_active_untouched(self):
        original = b"old firmware"
        device = OtaDevice(active_image=original)
        before = device.active_hash()
        device.fault_corrupt_chunk = 7  # storage corruption past the frame CRC
        result = run_ota_transfer(device, IMAGE, chunk_size=1024)
        assert not result.completed
        assert result.final_state is OtaState.IDLE
        assert device.active_hash() == before
        assert device.session is None
        device.on_reboot()
        assert device.active_slot == "A"

    def test_exactly_one_slot_verifies_at_all_times(self):
        device = OtaDevice(active_image=b"old firmware")
        digest = image_digest(IMAGE)
        device.begin_update(len(IMAGE), digest, 1024)
        for i in range(64):
            assert device.verified_slots() == ["A"]
            device.handle_chunk(i, IMAGE[i * 1024 : (i + 1) * 1024])
        assert device.verified_slots() == ["B"]

    def test_duplicate_and_out_of_order_chunks(self):
        device = OtaDevice(active_image=b"x")
        device.begin_update(len(IMAGE), image_digest(IMAGE), 1024)
        assert device.handle_chunk(0, IMAGE[:1024])
        assert device.handle_chunk(0, IMAGE[:1024])  # duplicate: acked again
        assert not device.handle_chunk(5, IMAGE[5 * 1024 : 6 * 1024])  # gap

    def test_brownout_mid_transfer_via_sim_hooks(self):
        device = OtaDevice(active_image=b"fw-v1")
        device.begin_update(len(IMAGE), image_digest(IMAGE), 1024)
        for i in range(30):
            device.handle_chunk(i, IMAGE[i * 1024 : (i + 1) * 1024])
        device.on_brownout()
        assert device.session is None
        device.on_reboot()
        assert device.session is not None
        assert device.session.next_chunk == 30

    @pytest.mark.parametrize("image_size, chunk_size", [(0, 1024), (-1, 1024), (10, 0)])
    def test_empty_image_or_chunk_refused(self, image_size, chunk_size):
        device = OtaDevice(active_image=b"fw-v1")
        with pytest.raises(OtaError, match="must be > 0"):
            device.begin_update(image_size, image_digest(b""), chunk_size)
        assert device.session is None

    def test_chunk_without_transfer_refused(self):
        device = OtaDevice(active_image=b"fw-v1")
        with pytest.raises(OtaError, match="no transfer in progress"):
            device.handle_chunk(0, IMAGE[:1024])

    def test_transfer_past_its_attempts_refused(self):
        # 64 chunks cannot land in 10 attempts
        device = OtaDevice(active_image=b"fw-v1")
        with pytest.raises(OtaError, match="did not converge"):
            run_ota_transfer(device, IMAGE, chunk_size=1024, max_attempts=10)
        assert device.session.next_chunk == 10
