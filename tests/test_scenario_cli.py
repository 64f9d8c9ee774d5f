import importlib.resources
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from powergap.cli import (
    EXIT_BROWNOUT,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
    run_table1_suite,
)
from powergap.energy_model import (
    ClockTier,
    EnergyModelParams,
    PowerState,
    RadioMode,
)
from powergap.scenario import _NUMBERS, ScenarioError, load_scenario, parse_scenario
from powergap.strategies import EnergyBudget, StrategyKind
from powergap.track_world import (
    HostRequestSchedule,
    ScenarioConfig,
    Segment,
    SegmentKind,
    TrackLayout,
    run_scenario,
)
from powergap.transports import WirelessLinkParams

MINIMAL = """
[track]
segments = straight:0.30 lanechange:0.48:0.09:0.36 straight:0.30

[run]
duration = 0.36
"""


class TestParser:
    def test_minimal_scenario_builds(self):
        cfg = parse_scenario(MINIMAL).build()
        assert cfg.duration == 0.36
        assert cfg.speed == 3.0
        assert cfg.initial_state.clock is ClockTier.C80
        assert cfg.initial_state.radio is RadioMode.OFF
        assert cfg.strategy is None

    def test_defaults_without_any_section(self):
        cfg = parse_scenario("").build()
        assert cfg.layout.total_length > 0
        assert run_scenario(cfg).metrics.max_drop_v > 0

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\n[run]\n# inner\nduration = 1.0\n"
        assert parse_scenario(text).build().duration == 1.0

    def test_threshold_above_nominal_names_line(self):
        text = "[energy]\nnominal_voltage = 9.0\nbrownout_drop = 9.5\n"
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text).build()
        assert "line 3" in str(exc.value)

    def test_unknown_key_names_line(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("[run]\nduraton = 1.0\n")
        assert "line 2" in str(exc.value)
        assert "duraton" in str(exc.value)

    def test_unknown_section_rejected(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("[rocket]\nthrust = 9\n")
        assert "line 1" in str(exc.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario("[run]\nduration = 1\nduration = 2\n")

    def test_key_outside_section_rejected(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("duration = 1\n")
        assert "line 1" in str(exc.value)

    def test_bad_float_names_line(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("[run]\nduration = forever\n").build()
        assert "line 2" in str(exc.value)

    def test_lossy_radio_without_seed_rejected(self):
        text = (
            "[strategy]\nkind = wireless_continuous\n"
            "[wireless]\nloss_rate = 0.1\n"
        )
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text).build()
        assert "seed" in str(exc.value)

    def test_nan_rejected_by_bounded_keys(self):
        for section, key in (("car", "speed"), ("run", "duration"),
                             ("energy", "drop_c80_off"), ("wireless", "loss_rate")):
            with pytest.raises(ScenarioError, match=f"^line 2: {key}: must be >"):
                parse_scenario(f"[{section}]\n{key} = nan\n").build()

    def test_infinity_rejected_by_every_numeric_key(self):
        for section, key in _NUMBERS:
            for raw in ("inf", "-inf"):
                with pytest.raises(ScenarioError, match="^line 2: "):
                    parse_scenario(f"[{section}]\n{key} = {raw}\n").build()

    def test_dockless_save_and_print_rejected(self):
        text = "[strategy]\nkind = save_and_print_later\n"
        with pytest.raises(ScenarioError):
            parse_scenario(text).build()

    @given(text=st.text(max_size=400))
    @settings(max_examples=300, deadline=None)
    def test_totality_on_arbitrary_text(self, text):
        # the parser either succeeds or raises its own error type
        try:
            parse_scenario(text).build()
        except ScenarioError:
            pass


SEGMENTS = "segments = straight:0.30 lanechange:0.48:0.09:0.36 straight:0.30"

#: one file per rejection rule, each with a single fault -> exact error text
REJECTIONS = {
    "bad_float": ("[run]\nduration = forever\n",
                  "line 2: duration: expected a number, got 'forever'"),
    "bad_integer": ("[run]\nseed = 1.5\n",
                    "line 2: seed: expected an integer, got '1.5'"),
    "inclusive_min": ("[car]\nspeed = -1\n", "line 2: speed: must be >= 0.0"),
    "inclusive_min_integer": ("[run]\nram_capacity = 0\n",
                              "line 2: ram_capacity: must be >= 1"),
    "inclusive_min_drop": ("[energy]\ndrop_c80_off = -0.5\n",
                           "line 2: drop_c80_off: must be >= 0"),
    "inclusive_min_current": ("[energy]\ncurrent_c80_tx = -1\n",
                              "line 2: current_c80_tx: must be >= 0.0"),
    "exclusive_min": ("[run]\ndt = 0\n", "line 2: dt: must be > 0.0"),
    "loss_rate_max": ("[wireless]\nloss_rate = 1.5\n",
                      "line 2: loss_rate: must be <= 1.0"),
    "payload_size_max": ("[workload]\npayload_size = 256\n",
                         "line 2: payload_size: must be <= 255"),
    "payload_size_min": ("[workload]\npayload_size = -1\n",
                         "line 2: payload_size: must be >= 0"),
    "unknown_clock": (
        "[car]\nclock = c999\n",
        "line 2: clock: expected one of "
        "['160', '240', '80', 'c160', 'c240', 'c80'], got 'c999'"),
    "unknown_radio": (
        "[car]\nradio = shouting\n",
        "line 2: radio: expected one of ['idle', 'off', 'tx'], got 'shouting'"),
    "unknown_kind": (
        "[strategy]\nkind = carrier_pigeon\n",
        "line 2: kind: expected one of ['none', 'powerline_continuous', "
        "'save_and_print_later', 'stop_and_radio', 'wireless_continuous'], "
        "got 'carrier_pigeon'"),
    "unknown_controller": (
        "[strategy]\ncontroller = maybe\n",
        "line 2: controller: expected one of ['false', 'off', 'on', 'true'], "
        "got 'maybe'"),
    "segment_kind": ("[track]\nsegments = straight:0.3 zigzag:1\n",
                     "line 2: segments: unknown segment kind 'zigzag'"),
    "segment_number": ("[track]\nsegments = straight:abc\n",
                       "line 2: segments: bad number in 'straight:abc'"),
    "segment_lanechange_arity": (
        "[track]\nsegments = straight:0.3 lanechange:0.48:0.09\n",
        "line 2: segments: lanechange needs length and two gap offsets"),
    "segment_straight_arity": (
        "[track]\nsegments = straight:0.3:0.1\n",
        "line 2: segments: straight takes exactly one length"),
    "segment_length": ("[track]\nsegments = straight:0\n",
                       "line 2: segments: segment length must be > 0"),
    "segment_gap_outside": (
        "[track]\nsegments = lanechange:0.48:0.09:0.45\n",
        "line 2: segments: gaps must lie fully inside the segment"),
    "segment_gap_overlap": ("[track]\nsegments = lanechange:0.48:0.09:0.12\n",
                            "line 2: segments: gaps must not overlap"),
    "segment_not_finite": ("[track]\nsegments = straight:0.3 straight:inf\n",
                           "line 2: segments: bad number in 'straight:inf'"),
    # dock errors name the dock_position line, not the segments line
    "dock_outside_track": (
        "[track]\nsegments = straight:0.3\ndock_position = 5\n",
        "line 3: dock_position: dock position outside the track"),
    "dock_in_gap": (
        f"[track]\n{SEGMENTS}\ndock_position = 0.40\n",
        "line 3: dock_position: dock position may not lie inside a gap"),
    "dock_not_finite": ("[track]\ndock_position = inf\n",
                        "line 2: dock_position: must be finite, got 'inf'"),
    "requests_word": (
        "[schedule]\nrequests = soon\n",
        "line 2: requests: expected 'none', 'gap_aligned' or times, got 'soon'"),
    "requests_unsorted": ("[schedule]\nrequests = 0.5,0.1\n",
                          "line 2: requests: request times must be sorted"),
    "requests_negative": ("[schedule]\nrequests = -1\n",
                          "line 2: requests: request times must be non-negative"),
    "requests_not_finite": (
        "[schedule]\nrequests = 0.5,nan\n",
        "line 2: requests: expected 'none', 'gap_aligned' or times, got '0.5,nan'"),
    "brownout_above_nominal": (
        "[energy]\nbrownout_drop = 9.5\n",
        "line 2: brownout_drop (9.5) must be below nominal_voltage (9.0)"),
    "nominal_below_brownout": (
        "[energy]\nnominal_voltage = 3\n",
        "line 2: brownout_drop (4.0) must be below nominal_voltage (3.0)"),
    "budget_at_brownout": (
        "[budget]\nmax_allowed_drop = 4.0\n",
        "line 2: max_allowed_drop (4.0) must stay below brownout_drop (4.0)"),
    "lossy_radio_without_seed": (
        "[strategy]\nkind = stop_and_radio\n\n[wireless]\nloss_rate = 0.1\n",
        "line 5: a seed in [run] is mandatory when loss_rate > 0"),
    "dockless_save_and_print_later": (
        "[strategy]\nkind = save_and_print_later\n",
        "line 2: save_and_print_later needs a dock_position in [track]"),
    "recharge_rate_zero": ("[energy]\nrecharge_rate = 0\n",
                           "line 2: recharge_rate: must be > 0.0"),
    "recharge_rate_word": ("[energy]\nrecharge_rate = fast\n",
                           "line 2: recharge_rate: expected a number, got 'fast'"),
    # past every bound, infinities hang, crash or corrupt a run
    "rate_infinite": ("[workload]\nrate = inf\n",
                      "line 2: rate: must be finite, got 'inf'"),
    "duration_infinite": ("[run]\nduration = inf\n",
                          "line 2: duration: must be finite, got 'inf'"),
    "dt_infinite": ("[run]\ndt = Infinity\n",
                    "line 2: dt: must be finite, got 'Infinity'"),
    "speed_infinite": ("[car]\nspeed = inf\n",
                       "line 2: speed: must be finite, got 'inf'"),
    "flash_below_one_record": (
        "[workload]\npayload_size = 200\n\n[run]\nflash_capacity = 100\n",
        "line 5: flash_capacity (100) must hold one record of "
        "payload_size + 16 = 216 bytes"),
}

#: every key set to a value other than its default
EVERY_KEY = f"""
[energy]
capacitance = 0.002
nominal_voltage = 10.0
brownout_drop = 5.0
gap_duration = 0.03
burst_current = 0.3
ripple_amplitude = 0.2
recharge_rate = 50
drop_c80_off = 1.0
drop_c80_idle = 1.1
drop_c80_tx = 1.2
drop_c160_off = 1.3
drop_c160_idle = 1.4
drop_c160_tx = 1.5
drop_c240_off = 1.6
drop_c240_tx = 1.8
current_c240_tx = 0.4
current_c80_off = 0.05

[track]
segments = straight:0.5 lanechange:0.6:0.1:0.4 curve:0.7
gap_length = 0.05
dock_position = 0.25

[car]
speed = 2.5
clock = C160
radio = idle

[strategy]
kind = stop_and_radio
controller = on
drain_interval = 4.0
reboot_dead_time = 0.25

[budget]
max_allowed_drop = 3.0
lookahead = 0.04

[wireless]
connect_latency = 1.0
connect_extra_current = 0.04
per_frame_airtime = 0.003
reply_airtime = 0.02
loss_rate = 0.1

[workload]
rate = 12.5
payload_size = 24

[schedule]
requests = 0.5,1.5

[run]
duration = 3.0
seed = 11
dt = 0.001
ram_capacity = 64
flash_capacity = 4096
wired_frame_time = 0.002
"""


def assert_same_config(got: ScenarioConfig, expected: ScenarioConfig) -> None:
    for f in fields(ScenarioConfig):
        assert getattr(got, f.name) == getattr(expected, f.name), f.name


class TestRejectionCorpus:
    @pytest.mark.parametrize("case", sorted(REJECTIONS))
    def test_single_fault_message(self, case):
        text, message = REJECTIONS[case]
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text).build()
        assert str(exc.value) == message

    def test_empty_file_builds_dataclass_defaults(self):
        expected = ScenarioConfig(
            params=EnergyModelParams.calibrated(),
            layout=TrackLayout([
                Segment(SegmentKind.STRAIGHT, 0.30),
                Segment(SegmentKind.LANE_CHANGE, 0.48, (0.09, 0.36)),
                Segment(SegmentKind.STRAIGHT, 0.30),
            ]),
            budget=EnergyBudget(),
        )
        assert_same_config(parse_scenario("").build(), expected)

    def test_every_key_reaches_its_field(self):
        c, t = 0.002, 0.03
        drops = {"c80_off": 1.0, "c80_idle": 1.1, "c80_tx": 1.2, "c160_off": 1.3,
                 "c160_idle": 1.4, "c160_tx": 1.5, "c240_off": 1.6, "c240_tx": 1.8}
        params = EnergyModelParams(
            capacitance=c, nominal_voltage=10.0, brownout_drop=5.0, gap_duration=t)
        params.current_table = {
            PowerState(clock, radio): 0.3 for clock in ClockTier for radio in RadioMode
        }
        for state in params.current_table:
            if str(state) in drops:
                params.current_table[state] = c * drops[str(state)] / t
        params.current_table[PowerState(ClockTier.C240, RadioMode.TRANSMITTING)] = 0.4
        params.current_table[PowerState(ClockTier.C80, RadioMode.OFF)] = 0.05
        expected = ScenarioConfig(
            params=params,
            layout=TrackLayout([
                Segment(SegmentKind.STRAIGHT, 0.5, (), 0.05),
                Segment(SegmentKind.LANE_CHANGE, 0.6, (0.1, 0.4), 0.05),
                Segment(SegmentKind.CURVE, 0.7, (), 0.05),
            ], 0.25),
            speed=2.5,
            dt=0.001,
            duration=3.0,
            seed=11,
            initial_state=PowerState(ClockTier.C160, RadioMode.IDLE_CONNECTED),
            strategy=StrategyKind.STOP_AND_RADIO,
            controller=True,
            budget=EnergyBudget(max_allowed_drop=3.0, lookahead=0.04),
            wireless=WirelessLinkParams(1.0, 0.04, 0.003, 0.02, 0.1),
            workload_rate=12.5,
            workload_payload=24,
            schedule=HostRequestSchedule(times=(0.5, 1.5)),
            drain_interval=4.0,
            wired_frame_time=0.002,
            reboot_dead_time=0.25,
            recharge_rate=50.0,
            ripple_amplitude=0.2,
            ram_capacity=64,
            flash_capacity=4096,
        )
        assert_same_config(parse_scenario(EVERY_KEY).build(), expected)


class TestShippedScenarios:
    def _load(self, name):
        root = importlib.resources.files("powergap") / "scenarios"
        return parse_scenario((root / name).read_text(), name)

    def test_all_nine_fixed_state_files_present(self):
        root = importlib.resources.files("powergap") / "scenarios"
        names = {p.name for p in root.iterdir() if p.name.endswith(".scn")}
        for clock in ("c80", "c160", "c240"):
            for radio in ("off", "idle", "tx"):
                assert f"table1_{clock}_{radio}.scn" in names

    def test_c80_off_reproduces_measured_drop(self):
        cfg = self._load("table1_c80_off.scn").build()
        result = run_scenario(cfg)
        assert result.metrics.max_drop_v == pytest.approx(1.62, rel=0.01)

    def test_gap_aligned_case_browns_out_ungated(self):
        cfg = self._load("gap_aligned_c160.scn").build()
        assert cfg.strategy is StrategyKind.WIRELESS_CONTINUOUS
        assert not cfg.controller
        result = run_scenario(cfg)
        assert result.metrics.brownout_count >= 1

    def test_reference_workload_parses(self):
        cfg = self._load("reference_workload.scn").build()
        assert cfg.layout.dock_position is not None
        assert cfg.seed == 7


def write_scenario(tmp_path, text, name="case.scn"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCliRun:
    def test_outputs_and_exit_ok(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, MINIMAL)
        assert main(["run", scn, "--out", str(tmp_path)]) == EXIT_OK
        stem = "case"
        for suffix in ("_trace.csv", "_events.csv", "_metrics.csv"):
            assert (tmp_path / f"{stem}{suffix}").exists()
        assert "brownouts=0" in capsys.readouterr().out

    def test_validation_error_exit_2(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, "[run]\nduration = nope\n")
        assert main(["run", scn, "--out", str(tmp_path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "error" in err and "line 2" in err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["run", str(tmp_path / "no.scn")]) == EXIT_VALIDATION

    def test_fail_on_brownout_exit_3(self, tmp_path):
        text = MINIMAL + "[car]\nclock = c240\nradio = tx\n"
        scn = write_scenario(tmp_path, text)
        args = ["run", scn, "--out", str(tmp_path)]
        assert main(args) == EXIT_OK
        assert main(args + ["--fail-on-brownout"]) == EXIT_BROWNOUT

    def test_degenerate_duration_two_samples(self, tmp_path):
        text = "[run]\nduration = 0.001\ndt = 0.0005\n"
        scn = write_scenario(tmp_path, text, "tiny.scn")
        assert main(["run", scn, "--out", str(tmp_path)]) == EXIT_OK
        lines = (tmp_path / "tiny_trace.csv").read_text().splitlines()
        assert lines[0] == "time_s,supply_v,cap_v"
        assert len(lines) == 3

    def test_reruns_byte_identical(self, tmp_path):
        scn = write_scenario(tmp_path, MINIMAL)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["run", scn, "--out", str(out_a), "--seed", "9"])
        main(["run", scn, "--out", str(out_b), "--seed", "9"])
        for suffix in ("_trace.csv", "_events.csv", "_metrics.csv"):
            a = (out_a / f"case{suffix}").read_bytes()
            b = (out_b / f"case{suffix}").read_bytes()
            assert a == b

    def test_parallel_matches_serial(self, tmp_path):
        s1 = write_scenario(tmp_path, MINIMAL, "one.scn")
        s2 = write_scenario(tmp_path, MINIMAL, "two.scn")
        out_serial = tmp_path / "serial"
        out_par = tmp_path / "par"
        main(["run", s1, s2, "--out", str(out_serial)])
        main(["run", s1, s2, "--out", str(out_par), "--jobs", "2"])
        for stem in ("one", "two"):
            assert (out_serial / f"{stem}_trace.csv").read_bytes() == (
                out_par / f"{stem}_trace.csv"
            ).read_bytes()

    def test_env_var_overrides_out_flag(self, tmp_path, monkeypatch):
        scn = write_scenario(tmp_path, MINIMAL)
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("POWERGAP_OUT", str(env_dir))
        main(["run", scn, "--out", str(tmp_path / "ignored")])
        assert (env_dir / "case_trace.csv").exists()
        assert not (tmp_path / "ignored" / "case_trace.csv").exists()


WORKLOAD = """
[track]
segments = straight:0.51 lanechange:0.48:0.09:0.36 straight:0.51
dock_position = 0.20

[workload]
rate = 5.0
payload_size = 10

[run]
duration = 8.0
seed = 2
"""


class TestCliCompare:
    def test_csv_row_per_strategy(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, WORKLOAD)
        assert main(["compare", scn, "--out", str(tmp_path)]) == EXIT_OK
        out_lines = capsys.readouterr().out.splitlines()
        header = out_lines[0].split(",")
        assert header[0] == "strategy"
        assert "backlog_growing" in header
        assert len(out_lines) == 1 + len(StrategyKind)
        assert (tmp_path / "compare.csv").read_text().splitlines() == out_lines

    def test_strategy_subset(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, WORKLOAD)
        code = main(
            [
                "compare",
                scn,
                "--strategies",
                "wireless_continuous,stop_and_radio",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("wireless_continuous,")

    def test_unknown_strategy_exit_2(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, WORKLOAD)
        code = main(["compare", scn, "--strategies", "carrier_pigeon"])
        assert code == EXIT_VALIDATION
        assert "carrier_pigeon" in capsys.readouterr().err

    def test_dockless_workload_exit_2(self, tmp_path, capsys):
        # save_and_print_later, in the default strategy list, needs a dock
        scn = write_scenario(tmp_path, MINIMAL)
        code = main(["compare", scn, "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "error: save_and_print_later needs a dock" in capsys.readouterr().err
        assert not (tmp_path / "compare.csv").exists()


class TestCliTable1:
    def test_suite_passes_at_one_percent(self, tmp_path, capsys):
        assert main(["table1", "--out", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 7
        assert "FAIL" not in out
        csv_lines = (tmp_path / "table1.csv").read_text().splitlines()
        assert csv_lines[0] == "state,expected_v,simulated_v,status"
        assert len(csv_lines) == 8

    def test_impossible_tolerance_exit_1(self, tmp_path, capsys):
        code = main(["table1", "--tolerance", "0.000001", "--out", str(tmp_path)])
        # float-exact simulation may or may not hit 1e-6 %; both codes legal,
        # but a mismatch must map to the dedicated exit code
        assert code in (EXIT_OK, EXIT_MISMATCH)

    def test_suite_covers_seven_states(self):
        rows = run_table1_suite()
        assert len(rows) == 7
        for _, expected, got in rows:
            assert got == pytest.approx(expected, rel=0.01)


class TestCliBasics:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "run" in capsys.readouterr().out

    def test_version_to_stdout(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("powergap ")

    def test_load_scenario_reads_file(self, tmp_path):
        path = tmp_path / "w.scn"
        path.write_text(MINIMAL)
        spec = load_scenario(str(path))
        assert spec.build().duration == 0.36
