"""Scenario description files.

Plain-text sectioned key=value format, chosen over a richer config
language so acceptance scenarios diff cleanly and can be written by
hand.  Parsing is total: any rejection carries the offending line
number, and unknown sections and keys are refused.  The parser only
parses: it refuses text that is not a number, an integer or one of a
key's choices, and infinities, and it checks the one file-level rule (a
seed, from the file or the caller, for lossy radio links).  Each value's
range and each rule tying values together live with the fields, in the
config classes' `validate` methods and `calibrate_currents`, which
refuse a config built in Python in the same words; the parser prefixes
their error with the line of the key it blames.  NaN passes the parser
and fails every range.  A key a file leaves out is not passed on, so it
takes the default of the field or function argument it sets.
"""

from __future__ import annotations

import math
from collections import defaultdict
from pathlib import Path
from typing import Collection, NamedTuple, Optional, Union

from .energy_model import (
    ALL_POWER_STATES,
    MEASURED_DROPS,
    ClockTier,
    ConfigError,
    EnergyModelParams,
    PowerState,
    RadioMode,
    calibrate_currents,
    replace,
)
from .strategies import EnergyBudget, StrategyKind
from .track_world import (
    HostRequestSchedule,
    ScenarioConfig,
    Segment,
    SegmentKind,
    TrackLayout,
)
from .transports import WirelessLinkParams


class ScenarioError(ValueError):
    def __init__(self, line: int, message: str) -> None:
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


_CLOCKS = {name: c for c in ClockTier for name in (f"c{c.value}", str(c.value))}
_RADIOS = {r.value: r for r in RadioMode}
_STRATEGIES = {k.value: k for k in StrategyKind}
_FLAGS = {"on": True, "off": False, "true": True, "false": False}
_STATE_KEYS = {str(s): s for s in ALL_POWER_STATES}
_SEGMENT_KINDS = {k.value: k for k in SegmentKind}
#: the strategies whose radio link draws losses from the seed
_RADIO = frozenset({StrategyKind.STOP_AND_RADIO, StrategyKind.WIRELESS_CONTINUOUS})


class _Number(NamedTuple):
    """Where a numeric key goes and how it is parsed; its range is checked
    where the value lands."""

    dest: str                          # the group of arguments it joins
    arg: object                        # its argument name, or the PowerState
    integer: bool = False


#: Every numeric key, once, as the keyword argument it becomes.
#: Destinations: `params` EnergyModelParams, `drops`/`currents` per-state
#: overrides, `calibration` calibrate_currents, `segment` Segment, `layout`
#: TrackLayout, `budget` EnergyBudget, `wireless` WirelessLinkParams,
#: `config` ScenarioConfig; the defaults of the keys a file leaves out are
#: those constructors' own, and the choice keys' are the class attributes
#: `ScenarioConfig.initial_state`, `.strategy` and `.controller`.
_NUMBERS: dict[tuple[str, str], _Number] = {
    **{("energy", k): _Number("params", k) for k in (
        "capacitance", "nominal_voltage", "brownout_drop", "gap_duration")},
    ("energy", "burst_current"): _Number("calibration", "burst_current"),
    **{("energy", f"drop_{k}"): _Number("drops", s) for k, s in _STATE_KEYS.items()},
    **{("energy", f"current_{k}"): _Number("currents", s) for k, s in _STATE_KEYS.items()},
    ("track", "gap_length"): _Number("segment", "gap_length"),
    ("track", "dock_position"): _Number("layout", "dock_position"),
    ("car", "speed"): _Number("config", "speed"),
    ("strategy", "drain_interval"): _Number("config", "drain_interval"),
    ("strategy", "reboot_dead_time"): _Number("config", "reboot_dead_time"),
    ("budget", "max_allowed_drop"): _Number("budget", "max_allowed_drop"),
    ("budget", "lookahead"): _Number("budget", "lookahead"),
    **{("wireless", k): _Number("wireless", k) for k in (
        "connect_latency", "connect_extra_current", "per_frame_airtime",
        "reply_airtime", "loss_rate")},
    ("workload", "rate"): _Number("config", "workload_rate"),
    ("workload", "payload_size"): _Number("config", "workload_payload", integer=True),
    ("run", "duration"): _Number("config", "duration"),
    ("run", "seed"): _Number("config", "seed", integer=True),
    ("run", "dt"): _Number("config", "dt"),
    ("run", "ram_capacity"): _Number("config", "ram_capacity", integer=True),
    ("run", "flash_capacity"): _Number("config", "flash_capacity", integer=True),
    ("run", "wired_frame_time"): _Number("config", "wired_frame_time"),
}

_KEYS = (*_NUMBERS, ("track", "segments"), ("car", "clock"), ("car", "radio"),
         ("strategy", "kind"), ("strategy", "controller"), ("schedule", "requests"))
_KNOWN_KEYS = {section: {k for s, k in _KEYS if s == section} for section, _ in _KEYS}

DEFAULT_SEGMENTS = "straight:0.30 lanechange:0.48:0.09:0.36 straight:0.30"


class ScenarioSpec:
    """Parsed scenario; `build` produces the validated, runnable config."""

    def __init__(self, name: str = "scenario") -> None:
        self.name = name
        self.values: dict[tuple[str, str], str] = {}
        self.lines: dict[tuple[str, str], int] = {}

    def _line(self, section: str, key: str) -> int:
        return self.lines.get((section, key), 0)

    def _number(self, section: str, key: str, raw: str, spec: _Number) -> Union[int, float]:
        line = self.lines[(section, key)]
        try:
            value = int(raw) if spec.integer else float(raw)
        except ValueError:
            kind = "an integer" if spec.integer else "a number"
            raise ScenarioError(line, f"{key}: expected {kind}, got {raw!r}") from None
        if math.isinf(value):
            raise ScenarioError(line, f"{key}: must be finite, got {raw!r}")
        return value

    def _arguments(self) -> defaultdict[str, dict]:
        """The numeric keys the file sets, parsed, as arguments per destination."""
        args: defaultdict[str, dict] = defaultdict(dict)
        for (section, key), raw in self.values.items():
            spec = _NUMBERS.get((section, key))
            if spec is None:
                continue
            args[spec.dest][spec.arg] = self._number(section, key, raw, spec)
        return args

    def _choice(self, section: str, key: str, table: dict, default):
        raw = self.values.get((section, key))
        if raw is None:
            return default
        try:
            return table[raw.lower()]
        except KeyError:
            raise ScenarioError(
                self._line(section, key),
                f"{key}: expected one of {sorted(table)}, got {raw!r}",
            ) from None

    def _build_layout(self, args: defaultdict[str, dict]) -> TrackLayout:
        line = self._line("track", "segments")
        segments = []
        for token in self.values.get(("track", "segments"), DEFAULT_SEGMENTS).split():
            kind_name, *parts = token.split(":")
            kind = _SEGMENT_KINDS.get(kind_name.lower())
            if kind is None:
                raise ScenarioError(
                    line, f"segments: unknown segment kind {kind_name.lower()!r}"
                )
            try:
                numbers = [float(p) for p in parts]
                if not all(map(math.isfinite, numbers)):
                    raise ValueError
            except ValueError:
                raise ScenarioError(line, f"segments: bad number in {token!r}") from None
            if kind is SegmentKind.LANE_CHANGE and len(numbers) != 3:
                raise ScenarioError(
                    line, "segments: lanechange needs length and two gap offsets"
                )
            if kind is not SegmentKind.LANE_CHANGE and len(numbers) != 1:
                raise ScenarioError(
                    line, f"segments: {kind.value} takes exactly one length"
                )
            segments.append(
                Segment(kind, numbers[0], tuple(numbers[1:]), **args["segment"])
            )
        return TrackLayout(segments, **args["layout"])

    def _build_schedule(self) -> HostRequestSchedule:
        raw = self.values.get(("schedule", "requests"), "none")
        line = self._line("schedule", "requests")
        word = raw.lower()
        if word == "none":
            return HostRequestSchedule()
        if word == "gap_aligned":
            return HostRequestSchedule(gap_aligned=True)
        try:
            times = tuple(float(p) for p in raw.split(","))
            if not all(map(math.isfinite, times)):
                raise ValueError
        except ValueError:
            raise ScenarioError(
                line, f"requests: expected 'none', 'gap_aligned' or times, got {raw!r}"
            ) from None
        return HostRequestSchedule(times=times)

    def build(self, seed: Optional[int] = None,
              strategies: Optional[Collection[StrategyKind]] = None) -> ScenarioConfig:
        """The validated config, run on `seed` when one is given.  A
        ConfigError from calibration or validation cites the first key it
        blames that this file sets.  The file's strategy is checked only
        if it runs (a comparison runs `strategies`, when given), and a lossy
        radio link needs a seed, from the file or `seed`, if one that runs
        is a radio strategy."""
        try:
            cfg = self._config()
            runs = (cfg.strategy,) if strategies is None else strategies
            (cfg if cfg.strategy in runs else replace(cfg, strategy=None)).validate()
        except ConfigError as exc:
            blamed = [k for k in exc.keys if k in self.lines] or [*exc.keys, ("", "")]
            section, key = blamed[0]
            message = f"{key}: {exc}" if exc.keyed else str(exc)
            raise ScenarioError(self._line(section, key), message) from None
        if seed is not None:
            cfg.seed = seed
        elif (cfg.wireless.loss_rate > 0 and ("run", "seed") not in self.values
              and any(kind in _RADIO for kind in runs)):
            raise ScenarioError(
                self._line("wireless", "loss_rate"),
                "a seed in [run] is mandatory when loss_rate > 0",
            )
        return cfg

    def _config(self) -> ScenarioConfig:
        args = self._arguments()
        params = EnergyModelParams(**args["params"])
        params.current_table = calibrate_currents(
            {**MEASURED_DROPS, **args["drops"]}, params, **args["calibration"]
        )
        params.current_table.update(args["currents"])
        default_state = ScenarioConfig.initial_state
        return ScenarioConfig(
            params=params,
            layout=self._build_layout(args),
            initial_state=PowerState(
                self._choice("car", "clock", _CLOCKS, default_state.clock),
                self._choice("car", "radio", _RADIOS, default_state.radio),
            ),
            strategy=self._choice("strategy", "kind", {**_STRATEGIES, "none": None},
                                  ScenarioConfig.strategy),
            controller=self._choice("strategy", "controller", _FLAGS,
                                    ScenarioConfig.controller),
            budget=EnergyBudget(**args["budget"]),
            wireless=WirelessLinkParams(**args["wireless"]),
            schedule=self._build_schedule(),
            name=self.name,
            **args["config"],
        )


def parse_scenario(text: str, name: str = "scenario") -> ScenarioSpec:
    """Parse scenario text; raises ScenarioError with a line number."""
    spec = ScenarioSpec(name=name)
    section: Optional[str] = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _KNOWN_KEYS:
                raise ScenarioError(lineno, f"unknown section [{section}]")
            continue
        if "=" not in line:
            raise ScenarioError(lineno, f"expected 'key = value', got {raw_line.strip()!r}")
        if section is None:
            raise ScenarioError(lineno, "key outside of any [section]")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in _KNOWN_KEYS[section]:
            raise ScenarioError(lineno, f"unknown key {key!r} in section [{section}]")
        if (section, key) in spec.values:
            raise ScenarioError(lineno, f"duplicate key {key!r} in section [{section}]")
        if not value:
            raise ScenarioError(lineno, f"{key}: empty value")
        spec.values[(section, key)] = value
        spec.lines[(section, key)] = lineno
    return spec


def load_scenario(path: Union[str, Path]) -> ScenarioSpec:
    path = Path(path)
    # utf-8-sig: a byte-order mark some editors write is not part of line 1
    return parse_scenario(path.read_text(encoding="utf-8-sig"), name=path.stem)
