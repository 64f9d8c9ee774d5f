import importlib.resources
import re
import tracemalloc
from dataclasses import fields, replace

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
    MEASURED_DROPS,
    CalibrationError,
    ClockTier,
    ConfigError,
    EnergyModelParams,
    PowerState,
    RadioMode,
    calibrate_currents,
)
from powergap.scenario import _NUMBERS, ScenarioError, load_scenario, parse_scenario
from powergap.strategies import EnergyBudget, StrategyKind
from powergap.track_world import (
    HostRequestSchedule,
    ScenarioConfig,
    Segment,
    SegmentKind,
    Simulation,
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

    @pytest.mark.parametrize("key,raw", [("ripple_amplitude", "0.2"),
                                         ("recharge_rate", "50"),
                                         ("recharge_rate", "instant")])
    def test_removed_energy_key_is_an_unknown_key(self, key, raw):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(f"[energy]\n{key} = {raw}\n")
        assert str(exc.value) == f"line 2: unknown key '{key}' in section [energy]"

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

    def test_lossy_radio_seed_from_the_caller(self):
        text = "[strategy]\nkind = wireless_continuous\n[wireless]\nloss_rate = 0.1\n"
        assert parse_scenario(text).build(seed=3).seed == 3
        powerline = parse_scenario(text.replace("wireless_continuous", "powerline_continuous"))
        assert powerline.build().seed == 0  # no radio strategy runs
        with pytest.raises(ScenarioError, match="^line 4: a seed in"):
            powerline.build(strategies=[StrategyKind.STOP_AND_RADIO])

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

    def test_gap_length_misfit_names_its_own_line(self):
        # default segments, whose gaps no longer fit: the file's only
        # track key is cited, not a line 0 for segments it never set
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("[track]\ngap_length = 0.2\n").build()
        assert str(exc.value) == "line 2: gap_length: gaps must lie fully inside the segment"

    def test_dockless_save_and_print_rejected(self):
        text = "[strategy]\nkind = save_and_print_later\n"
        with pytest.raises(ScenarioError):
            parse_scenario(text).build()

    @pytest.mark.parametrize("section,key,raw", [
        ("schedule", "requests", "GAP_ALIGNED"),
        ("schedule", "requests", "Gap_Aligned"),
        ("schedule", "requests", "None"),
        ("schedule", "requests", "NONE"),
    ])
    def test_word_values_ignore_case(self, section, key, raw):
        # as clock, radio, kind, controller and segment kinds do
        text = f"[{section}]\n{key} = {{}}\n"
        assert_same_config(parse_scenario(text.format(raw)).build(),
                           parse_scenario(text.format(raw.lower())).build())

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
    "empty_value": ("[run]\nduration =\n", "line 2: duration: empty value"),
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
    # finite but endless: past the step or record cap a run never ends
    "records_above_cap": (
        "[workload]\nrate = 1e12\n\n[run]\nduration = 0.01\n",
        "line 2: rate: rate * duration is 1e+10 records, above the cap of 10000000"),
    "steps_above_cap": (
        "[run]\nduration = 1e300\n",
        "line 2: duration: duration / dt is 2e+303 steps, above the cap of 10000000"),
    "steps_above_cap_by_dt": (
        "[run]\ndt = 1e-12\n",
        "line 2: dt: duration / dt is 1e+12 steps, above the cap of 10000000"),
}

#: the REJECTIONS cases that break a rule tying fields together, as
#: overrides of a config built in Python (`params` overrides its params)
CROSS_FIELD = {
    "brownout_above_nominal": {"params": {"brownout_drop": 9.5}},
    "nominal_below_brownout": {"params": {"nominal_voltage": 3.0}},
    "budget_at_brownout": {"budget": EnergyBudget(max_allowed_drop=4.0)},
    "dockless_save_and_print_later": {"strategy": StrategyKind.SAVE_AND_PRINT_LATER},
    "flash_below_one_record": {"workload_payload": 200, "flash_capacity": 100},
    "records_above_cap": {"workload_rate": 1e12, "duration": 0.01},
    "steps_above_cap": {"duration": 1e300},
    "steps_above_cap_by_dt": {"dt": 1e-12},
}

#: every key set to a value other than its default
EVERY_KEY = f"""
[energy]
capacitance = 0.002
nominal_voltage = 10.0
brownout_drop = 5.0
gap_duration = 0.03
burst_current = 0.3
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


#: the numeric keys with no range: any finite seed runs, and a dock
#: position is judged by the track it must lie on
UNRANGED = {("run", "seed"), ("track", "dock_position")}
#: every ranged key at -1, and float keys at NaN too
RANGED_CASES = [(key, raw) for key, spec in _NUMBERS.items() if key not in UNRANGED
                for raw in ("-1",) + (() if spec.integer else ("nan",))]
#: every ranged float key
RANGED_FLOATS = [key for key, spec in _NUMBERS.items()
                 if key not in UNRANGED and not spec.integer]


def default_layout(gap_length=0.06) -> TrackLayout:
    return TrackLayout([
        Segment(SegmentKind.STRAIGHT, 0.30, (), gap_length),
        Segment(SegmentKind.LANE_CHANGE, 0.48, (0.09, 0.36), gap_length),
        Segment(SegmentKind.STRAIGHT, 0.30, (), gap_length),
    ])


def refuse_in_python(spec, raw):
    """Put one parsed value where its key's `dest` sends it, in a config
    built in Python, and run what validates it there."""
    value = int(raw) if spec.integer else float(raw)
    if spec.dest == "drops":
        return calibrate_currents({**MEASURED_DROPS, spec.arg: value}, EnergyModelParams())
    if spec.dest == "calibration":
        return calibrate_currents(MEASURED_DROPS, EnergyModelParams(), **{spec.arg: value})
    params = EnergyModelParams.calibrated()
    overrides = {}
    if spec.dest == "params":
        params = replace(params, **{spec.arg: value})
    elif spec.dest == "currents":
        params.current_table[spec.arg] = value
    elif spec.dest == "budget":
        overrides["budget"] = EnergyBudget(**{spec.arg: value})
    elif spec.dest == "wireless":
        overrides["wireless"] = WirelessLinkParams(**{spec.arg: value})
    elif spec.dest == "config":
        overrides[spec.arg] = value
    layout = default_layout(value) if spec.dest == "segment" else default_layout()
    return Simulation(ScenarioConfig(params=params, layout=layout, **overrides))


class TestRejectionCorpus:
    def test_ranged_cases_cover_every_key_and_value(self):
        assert len({key for key, _ in RANGED_CASES}) == 41
        assert len(RANGED_CASES) == 79
        assert len(RANGED_FLOATS) == 38

    @pytest.mark.parametrize("case", sorted(REJECTIONS))
    def test_single_fault_message(self, case):
        text, message = REJECTIONS[case]
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text).build()
        assert str(exc.value) == message

    @pytest.mark.parametrize("case", sorted(CROSS_FIELD))
    def test_python_config_refused_in_the_same_words(self, case):
        # one ScenarioConfig.validate states each rule for files and
        # Python configs alike; a file's error only adds line and key
        overrides = dict(CROSS_FIELD[case])
        params = replace(EnergyModelParams.calibrated(), **overrides.pop("params", {}))
        layout = TrackLayout([
            Segment(SegmentKind.STRAIGHT, 0.30),
            Segment(SegmentKind.LANE_CHANGE, 0.48, (0.09, 0.36)),
            Segment(SegmentKind.STRAIGHT, 0.30),
        ])
        with pytest.raises(ConfigError) as exc:
            Simulation(ScenarioConfig(params=params, layout=layout, **overrides))
        assert str(exc.value) == re.sub(r"^line \d+: (\w+: )?", "", REJECTIONS[case][1])

    @pytest.mark.parametrize("key,raw", RANGED_CASES,
                             ids=[f"{k}={raw}" for (_, k), raw in RANGED_CASES])
    def test_python_config_refused_in_the_file_words(self, key, raw):
        # each range lives with its field: a Python-built config holding the
        # value is refused as the file is, only without the line number
        section, name = key
        with pytest.raises(ScenarioError) as file_exc:
            parse_scenario(f"[{section}]\n{name} = {raw}\n").build()
        with pytest.raises(ConfigError) as exc:
            refuse_in_python(_NUMBERS[key], raw)
        assert str(exc.value) == re.sub(r"^line 2: ", "", str(file_exc.value))
        assert exc.value.keys[0] == key
        calibration = _NUMBERS[key].dest in ("drops", "calibration")
        assert isinstance(exc.value, CalibrationError) == calibration

    @pytest.mark.parametrize("key", RANGED_FLOATS, ids=[k for _, k in RANGED_FLOATS])
    def test_python_config_refuses_infinity(self, key):
        # a file refuses inf as it parses it; a Python-built config must too
        with pytest.raises(ConfigError) as exc:
            refuse_in_python(_NUMBERS[key], "inf")
        assert exc.value.keys[0] == key

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


#: a lossy radio link and no seed in [run]; {kind} is the file's strategy
LOSSY_UNSEEDED = """
[strategy]
kind = {kind}
[wireless]
loss_rate = 0.1
connect_latency = 0.1
[run]
duration = 0.5
"""


def write_scenario(tmp_path, text, name="case.scn"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def unreadable_scenario(tmp_path, case):
    """A directory, or a file that is not UTF-8 text."""
    path = tmp_path / "bad.scn"
    if case == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"[run]\nduration = 1.0 # \xff\xfe\n")
    return str(path)


def unmakeable_out(tmp_path):
    """An output directory below a regular file, which cannot be made."""
    (tmp_path / "file").write_text("")
    return str(tmp_path / "file" / "sub")


def assert_out_dir_error(err, out_dir):
    assert err == f"error: output directory: [Errno 20] Not a directory: {out_dir!r}\n"


#: the bench's gapstorm_off workload at seed 1, cut to 6 s: a gap crossing
#: about every 0.2 s, so per-row voltages and events are a large part of
#: the run's state
GAPSTORM = """
[energy]
current_c160_tx = 0.250

[track]
segments = straight:0.1092 lanechange:0.2966:0.0386:0.1788 curve:0.1006 lanechange:0.2891:0.0500:0.1963 straight:0.1055 lanechange:0.3045:0.0319:0.1551 curve:0.1301 lanechange:0.3247:0.0377:0.1607 straight:0.1366 lanechange:0.3271:0.0589:0.1851 curve:0.1316 lanechange:0.3380:0.0413:0.1895
gap_length = 0.06

[car]
speed = 3.0
clock = c160
radio = off

[strategy]
kind = wireless_continuous
controller = off

[budget]
max_allowed_drop = 3.5
lookahead = 0.030

[schedule]
requests = gap_aligned

[workload]
rate = 9.270
payload_size = 16

[wireless]
loss_rate = 0.01

[run]
duration = 6.0
dt = 0.0005
seed = 161456208
"""


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

    def test_earlier_results_printed_before_a_later_error(self, tmp_path, capsys):
        good = write_scenario(tmp_path, MINIMAL, "good.scn")
        bad = write_scenario(tmp_path, "[run]\nduration = nope\n", "bad.scn")
        assert main(["run", good, bad, "--out", str(tmp_path)]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "good: brownouts=0\n"
        assert "line 2" in err
        assert (tmp_path / "good_trace.csv").exists()

    @pytest.mark.parametrize("case", ["refused", "not_utf8"])
    def test_error_names_the_failing_file(self, tmp_path, capsys, case):
        good = write_scenario(tmp_path, MINIMAL, "good.scn")
        if case == "refused":
            bad = write_scenario(tmp_path, "[run]\nduration = nope\n", "bad.scn")
        else:
            bad = unreadable_scenario(tmp_path, case)
        assert main(["run", good, bad, "--out", str(tmp_path)]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "good: brownouts=0\n"
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("same_file", [False, True])
    def test_duplicate_stems_refused_before_any_run(self, tmp_path, capsys, same_file):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first = write_scenario(tmp_path / "a", MINIMAL, "x.scn")
        second = first if same_file else write_scenario(tmp_path / "b", MINIMAL, "x.scn")
        out_dir = tmp_path / "out"
        assert main(["run", first, second, "--out", str(out_dir)]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {first} and {second} ") and err.count("\n") == 1
        assert not out_dir.exists()

    def test_byte_order_mark_is_not_part_of_line_1(self, tmp_path, capsys):
        text = "[run]\nduration = 0.36\n"
        (tmp_path / "plain").mkdir()
        (tmp_path / "bom").mkdir()
        plain = write_scenario(tmp_path / "plain", text)
        bom = tmp_path / "bom" / "case.scn"
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert_same_config(load_scenario(bom).build(), load_scenario(plain).build())
        assert main(["run", str(bom), "--out", str(tmp_path / "out")]) == EXIT_OK
        assert capsys.readouterr().out == "case: brownouts=0\n"

    def test_byte_order_mark_before_bytes_that_are_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_bytes(b"\xef\xbb\xbf[run]\nduration = 1.0 # \xff\xfe\n")
        assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1

    def test_error_stops_before_later_files(self, tmp_path, capsys):
        bad = write_scenario(tmp_path, "[run]\nduration = nope\n", "bad.scn")
        good = write_scenario(tmp_path, MINIMAL, "good.scn")
        assert main(["run", bad, good, "--out", str(tmp_path)]) == EXIT_VALIDATION
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "good_trace.csv").exists()

    def test_jobs_flag_rejected(self, tmp_path):
        # runs are serial; the old process-pool option is not accepted
        scn = write_scenario(tmp_path, MINIMAL)
        with pytest.raises(SystemExit) as exc:
            main(["run", scn, "--out", str(tmp_path), "--jobs", "2"])
        assert exc.value.code == 2
        assert not (tmp_path / "case_trace.csv").exists()

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["run", str(tmp_path / "no.scn")]) == EXIT_VALIDATION

    @pytest.mark.parametrize("case", ["directory", "not_utf8"])
    def test_unreadable_file_exit_2(self, tmp_path, capsys, case):
        scn = unreadable_scenario(tmp_path, case)
        assert main(["run", scn, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

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

    def test_seed_flag_satisfies_the_lossy_link_rule(self, tmp_path):
        # --seed gives the lossy link its seed: the run matches the file
        # that names the same seed in [run]
        text = LOSSY_UNSEEDED.format(kind="wireless_continuous")
        flagged = write_scenario(tmp_path, text)
        seeded = write_scenario(tmp_path, text + "seed = 3\n", "seeded.scn")
        assert main(["run", flagged, "--seed", "3", "--out", str(tmp_path)]) == EXIT_OK
        assert main(["run", seeded, "--out", str(tmp_path)]) == EXIT_OK
        for suffix in ("_trace.csv", "_events.csv", "_metrics.csv"):
            assert ((tmp_path / f"case{suffix}").read_bytes()
                    == (tmp_path / f"seeded{suffix}").read_bytes())

    def test_unmakeable_out_dir_exit_2(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, MINIMAL)
        out_dir = unmakeable_out(tmp_path)
        assert main(["run", scn, "--out", out_dir]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert_out_dir_error(err, out_dir)

    def test_unwritable_output_exit_2_and_no_temp_file(self, tmp_path, capsys):
        # a directory where the trace CSV goes: the rename fails, the error
        # blames the output, not the scenario, and no temp file is left
        scn = write_scenario(tmp_path, MINIMAL)
        out_dir = tmp_path / "out"
        (out_dir / "case_trace.csv").mkdir(parents=True)
        assert main(["run", scn, "--out", str(out_dir)]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: output directory: [Errno 21] Is a directory: ")
        assert err.count("\n") == 1
        assert sorted(p.name for p in out_dir.iterdir()) == ["case_trace.csv"]

    def test_run_is_let_go_of_before_its_trace_text_is_made(self, tmp_path):
        # the trace text is held twice at most (its pieces and their join,
        # then the text and its encoding), but never beside the run's
        # per-row voltages and events, which add about 0.4 of the text here
        scn = write_scenario(tmp_path, GAPSTORM)
        args = ["run", scn, "--out", str(tmp_path)]
        assert main(args) == EXIT_OK  # imports and caches out of the count
        tracemalloc.start()
        try:
            assert main(args) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.35 * (tmp_path / "case_trace.csv").stat().st_size


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

    def test_lossy_radio_strategies_run_need_a_seed(self, tmp_path, capsys):
        # the file's own strategy has no radio, but the radio strategies
        # compared draw losses: without a seed the comparison is refused
        scn = write_scenario(tmp_path, LOSSY_UNSEEDED.format(kind="powerline_continuous"))
        radios = ["--strategies", "wireless_continuous,stop_and_radio"]
        assert main(["compare", scn, *radios, "--out", str(tmp_path)]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {scn}: line 5: a seed in [run] is mandatory when loss_rate > 0\n"
        assert not (tmp_path / "compare.csv").exists()
        assert main(["compare", scn, *radios, "--seed", "3", "--out", str(tmp_path)]) == EXIT_OK
        # a lossy file whose radio strategy is not compared needs none
        scn = write_scenario(tmp_path, LOSSY_UNSEEDED.format(kind="wireless_continuous"))
        assert main(["compare", scn, "--strategies", "powerline_continuous",
                     "--out", str(tmp_path)]) == EXIT_OK

    def test_unknown_strategy_exit_2(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, WORKLOAD)
        code = main(["compare", scn, "--strategies", "carrier_pigeon"])
        assert code == EXIT_VALIDATION
        assert "carrier_pigeon" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["directory", "not_utf8"])
    def test_unreadable_workload_exit_2(self, tmp_path, capsys, case):
        scn = unreadable_scenario(tmp_path, case)
        assert main(["compare", scn, "--out", str(tmp_path)]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "compare.csv").exists()

    def test_dockless_workload_exit_2(self, tmp_path, capsys):
        # save_and_print_later, in the default strategy list, needs a dock
        scn = write_scenario(tmp_path, MINIMAL)
        code = main(["compare", scn, "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: {scn}: save_and_print_later needs a dock_position in [track]\n")
        assert not (tmp_path / "compare.csv").exists()

    def test_dockless_own_strategy_not_compared_runs(self, tmp_path, capsys):
        # the file's save_and_print_later needs a dock only when it runs
        scn = write_scenario(tmp_path, "[strategy]\nkind = save_and_print_later\n"
                             + MINIMAL)
        assert main(["compare", scn, "--strategies", "wireless_continuous",
                     "--out", str(tmp_path)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and lines[1].startswith("wireless_continuous,")
        assert (tmp_path / "compare.csv").read_text().splitlines() == lines
        (tmp_path / "compare.csv").unlink()
        assert main(["compare", scn, "--out", str(tmp_path)]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: {scn}: line 2: "
                       "save_and_print_later needs a dock_position in [track]\n")
        assert not (tmp_path / "compare.csv").exists()

    def test_unmakeable_out_dir_exit_2(self, tmp_path, capsys):
        # the comparison runs first and is printed; only the file fails
        scn = write_scenario(tmp_path, WORKLOAD)
        out_dir = unmakeable_out(tmp_path)
        assert main(["compare", scn, "--out", out_dir]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 1 + len(StrategyKind)
        assert_out_dir_error(err, out_dir)


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

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "inf", "-inf", "1e400", "x"])
    def test_tolerance_not_a_finite_percentage_is_usage_error(self, tmp_path, capsys,
                                                              tolerance):
        # nan and -1 used to fail every state, and inf to pass any drop
        with pytest.raises(SystemExit) as exc:
            main(["table1", f"--tolerance={tolerance}", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--tolerance" in capsys.readouterr().err
        assert not (tmp_path / "table1.csv").exists()

    def test_zero_tolerance_is_accepted(self, tmp_path):
        assert main(["table1", "--tolerance", "0", "--out", str(tmp_path)]) in (
            EXIT_OK, EXIT_MISMATCH)
        assert (tmp_path / "table1.csv").exists()

    def test_unmakeable_out_dir_exit_2(self, tmp_path, capsys):
        out_dir = unmakeable_out(tmp_path)
        assert main(["table1", "--out", out_dir]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out.count("PASS") == 7
        assert_out_dir_error(err, out_dir)

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
