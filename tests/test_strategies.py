import dataclasses

import pytest
from test_golden import FLOOD

from powergap.energy_model import (
    ClockTier,
    EnergyModelParams,
    PowerState,
    RadioMode,
)
from powergap.log_store import Severity
from powergap.scenario import parse_scenario
from powergap.strategies import (
    EnergyBudget,
    Gate,
    OtaDevice,
    OtaState,
    StrategyKind,
    controller_gate,
    image_digest,
    run_ota_transfer,
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
from powergap.transports import WirelessLinkParams


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
        assert list(sim.store.unacked()) == []
        assert len(sim.store.ram) == 0


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


@pytest.mark.parametrize("kind", list(StrategyKind), ids=lambda k: k.value)
def test_evicted_records_presented_with_their_payload(kind):
    # the golden FLOOD workload evicts records while their frames are in flight
    cfg = dataclasses.replace(parse_scenario(FLOOD, "flood").build(), strategy=kind)
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
            boundary = channel.next_boundary
            delivered = tick(now, powered)
            for _ in delivered:  # a tick's deliveries take its first boundaries
                delivery_times.append(boundary)
                boundary += channel.slot_time
            return delivered

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
        assert channel.delivered_bits == 13 * len(delivery_times) > 0
        eps = cfg.dt / 2  # slot boundaries can land on a gap edge
        for t in delivery_times:
            assert not any(a + eps <= t < b - eps for a, b in gap_windows)


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
