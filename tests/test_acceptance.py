"""End-to-end acceptance checks.

Each test prints a single pass/fail line so the whole gate can be read
off a plain `pytest -s tests/test_acceptance.py` run.
"""

import random
import time

from wire_decoders import crc_valid, powerline_bandwidth

from powergap.cli import main, run_table1_suite
from powergap.energy_model import (
    DEFAULT_BURST_CURRENT,
    MEASURED_DROPS,
    ClockTier,
    EnergyModelParams,
    PowerState,
    RadioMode,
)
from powergap.log_store import LogStore, Severity
from powergap.ota import OtaDevice, OtaState, image_digest
from powergap.strategies import (
    EnergyBudget,
    HostCollector,
    StrategyKind,
)
from powergap.track_world import (
    HostRequestSchedule,
    ScenarioConfig,
    Segment,
    SegmentKind,
    TrackLayout,
    run_scenario,
)
from powergap.transports import PowerlineChannel

C80_OFF = PowerState(ClockTier.C80, RadioMode.OFF)
C80_TX = PowerState(ClockTier.C80, RadioMode.TRANSMITTING)


def _report(label: str, ok: bool) -> None:
    print(f"\n[acceptance] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


def crossing_layout(straight=0.30):
    return TrackLayout(
        [
            Segment(SegmentKind.STRAIGHT, straight),
            Segment(SegmentKind.LANE_CHANGE, 0.48, (0.09, 0.36)),
            Segment(SegmentKind.STRAIGHT, straight),
        ]
    )


def crossing_config(state, params=None, **kwargs):
    return ScenarioConfig(
        params=params or EnergyModelParams.calibrated(),
        layout=crossing_layout(),
        speed=3.0,
        duration=0.36,
        initial_state=state,
        **kwargs,
    )


def test_voltage_drop_table_within_one_percent():
    start = time.monotonic()
    rows = run_table1_suite()
    elapsed = time.monotonic() - start
    ok = len(rows) == 7 and all(
        abs(got - expected) <= 0.01 * expected for _, expected, got in rows
    )
    _report(
        f"voltage-drop table: 7/7 cells within 1% in {elapsed:.2f}s",
        ok and elapsed < 5.0,
    )


def test_sending_to_baseline_drop_ratio():
    sim = {
        state: run_scenario(crossing_config(state)).metrics.max_drop_v
        for state in (C80_OFF, C80_TX)
    }
    ratio = sim[C80_TX] / sim[C80_OFF]
    _report(f"80 MHz sending/no-radio drop ratio {ratio:.3f} in [1.55, 1.70]",
            1.55 <= ratio <= 1.70)


def test_burst_states_brown_out_every_crossing():
    params = EnergyModelParams.calibrated()
    burst_states = [s for s in params.current_table if s not in MEASURED_DROPS]
    assert all(params.current(s) == DEFAULT_BURST_CURRENT for s in burst_states)
    runs = ok_runs = 0
    for state in burst_states:
        for seed in range(100):
            result = run_scenario(crossing_config(state, seed=seed))
            runs += 1
            if result.metrics.brownout_count >= 1:
                ok_runs += 1
    _report(
        f"250 mA burst states: brownout in {ok_runs}/{runs} crossings",
        runs == 100 * len(burst_states) and ok_runs == runs,
    )


def test_powerline_capacity():
    nominal = powerline_bandwidth()
    channel = PowerlineChannel()
    channel.slots_left = 3000
    t, dt = 0.0, 0.0005
    while t < 10.0 - dt / 2:
        t += dt
        channel.tick(t, powered=True)
    measured = channel.delivered_bits / 10.0
    _report(
        f"powerline capacity nominal {nominal:.2f} bit/s, "
        f"saturated 10 s measured {measured:.2f} bit/s",
        abs(nominal - 1386.67) < 0.005 and abs(measured - nominal) <= 13.0,
    )


def test_durability_under_randomized_brownouts():
    start = time.monotonic()
    failures = 0
    for run in range(1000):
        rng = random.Random(run)
        store = LogStore(ram_capacity=32, flash_capacity=1 << 20)
        host = HostCollector()
        flushed: set[int] = set()

        def deliver_one() -> None:
            for record in store.flash:
                assert crc_valid(record)
                if rng.random() < 0.3:  # frame lost in flight
                    return
                ack = host.receive_log(record.seq, record.payload)
                if rng.random() < 0.3:  # ack lost: retransmit + dedup later
                    return
                store.ack_through(ack)
                return

        for _ in range(rng.randrange(40, 120)):
            op = rng.random()
            if op < 0.45:
                store.append(Severity.INFO, bytes([rng.randrange(256)]))
            elif op < 0.65:
                flushed.update(r.seq for r in store.ram)
                store.flush()
            elif op < 0.75:
                store.on_brownout()
            else:
                deliver_one()
        flushed.update(r.seq for r in store.ram)
        store.flush()
        for _ in range(5000):
            if not store.flash:
                break
            deliver_one()

        presented = [seq for seq, _ in host.presented]
        if (
            set(presented) != flushed  # a flushed record never arrived
            or len(presented) != len(set(presented))  # duplicate presentation
        ):
            failures += 1
    elapsed = time.monotonic() - start
    _report(
        "durability: 1000 randomized brownout runs, zero flushed-record loss, "
        f"exactly-once presentation in {elapsed:.1f}s",
        failures == 0 and elapsed < 30.0,
    )


def test_firmware_update_fault_tolerance():
    image = bytes((i * 31 + 5) % 256 for i in range(64 * 1024))
    digest = image_digest(image)
    chunk = 1024
    bad = 0
    for schedule in range(200):
        rng = random.Random(schedule)
        faults = {rng.randrange(80) for _ in range(rng.randrange(0, 12))}
        device = OtaDevice(active_image=b"active firmware v1")
        before = device.active_hash()
        device.begin_update(len(image), digest, chunk)
        attempts = 0
        resumptions_after_faults = 0
        last_fault = max(faults) if faults else -1
        while device.session is not None and device.session.state is OtaState.RECEIVING:
            if attempts > 64 + 2 * len(faults) + 16:
                bad += 1
                break
            if device.active_hash() != before:  # active image touched early
                bad += 1
                break
            i = device.session.next_chunk
            if attempts in faults:
                attempts += 1
                device.on_brownout()
                device.on_reboot()
                if attempts - 1 > last_fault:
                    resumptions_after_faults += 1
                continue
            device.handle_chunk(i, image[i * chunk : (i + 1) * chunk])
            attempts += 1
        else:
            state = device.session.state if device.session else OtaState.IDLE
            if state is not OtaState.ACTIVATED or resumptions_after_faults > 3:
                bad += 1
                continue
            device.on_reboot()
            if device.active_hash() != digest:
                bad += 1
    _report(
        "firmware update: 200 fault schedules, active image intact until "
        "verification, completion after faults stop",
        bad == 0,
    )


def test_transmission_gate_prevents_brownouts():
    def run_laps(controller: bool):
        params = EnergyModelParams.calibrated()
        params.current_table[
            PowerState(ClockTier.C160, RadioMode.TRANSMITTING)
        ] = 0.250
        cfg = ScenarioConfig(
            params=params,
            layout=TrackLayout(
                [
                    Segment(SegmentKind.STRAIGHT, 0.51),
                    Segment(SegmentKind.LANE_CHANGE, 0.48, (0.09, 0.36)),
                    Segment(SegmentKind.STRAIGHT, 0.51),
                ]
            ),
            speed=3.0,
            duration=50.0,  # 100 laps of the 1.5 m loop at 3 m/s
            seed=21,
            initial_state=PowerState(ClockTier.C160, RadioMode.OFF),
            strategy=StrategyKind.WIRELESS_CONTINUOUS,
            controller=controller,
            budget=EnergyBudget(max_allowed_drop=3.5, lookahead=0.050),
            schedule=HostRequestSchedule(gap_aligned=True),
            workload_rate=0.0,
        )
        return run_scenario(cfg).metrics

    off = run_laps(controller=False)
    on = run_laps(controller=True)
    ok = (
        off.brownout_count >= 1
        and on.brownout_count == 0
        and on.requests_arrived > 0
        and on.requests_answered == on.requests_arrived
    )
    _report(
        f"transmission gate: 100 gap-aligned laps, off={off.brownout_count} "
        f"brownouts, on=0 with {on.requests_answered}/{on.requests_arrived} "
        "requests answered",
        ok,
    )


def test_deterministic_replay(tmp_path):
    scn = tmp_path / "replay.scn"
    scn.write_text(
        "[track]\n"
        "segments = straight:0.51 lanechange:0.48:0.09:0.36 straight:0.51\n"
        "[strategy]\nkind = wireless_continuous\n"
        "[wireless]\nloss_rate = 0.05\n"
        "[workload]\nrate = 20.0\npayload_size = 12\n"
        "[run]\nduration = 5.0\nseed = 77\n"
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(scn), "--out", str(out_a)]) == 0
    assert main(["run", str(scn), "--out", str(out_b)]) == 0
    identical = all(
        (out_a / f"replay{sfx}").read_bytes() == (out_b / f"replay{sfx}").read_bytes()
        for sfx in ("_trace.csv", "_events.csv", "_metrics.csv")
    )
    _report("determinism: same seed yields byte-identical trace/event/metrics "
            "files", identical)
