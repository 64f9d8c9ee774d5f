"""Scenario description files.

Plain-text sectioned key=value format, chosen over a richer config
language so acceptance scenarios diff cleanly and can be written by
hand.  Parsing is total: any rejection carries the offending line
number, unknown sections and keys are refused, and cross-field rules
(threshold ordering, dock placement, mandatory seeds for lossy links)
are checked before a simulation starts.  A key a file leaves out is
not passed on, so it takes the default of the config dataclass field
or function argument it sets.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional, Union

from .energy_model import (
    ALL_POWER_STATES,
    MEASURED_DROPS,
    ClockTier,
    EnergyModelParams,
    PowerState,
    RadioMode,
    calibrate_currents,
)
from .log_store import RECORD_OVERHEAD
from .strategies import EnergyBudget, StrategyKind
from .track_world import (
    HostRequestSchedule,
    LayoutError,
    ScenarioConfig,
    Segment,
    SegmentKind,
    TrackLayout,
)
from .transports import MAX_PAYLOAD, WirelessLinkParams


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


class _Number(NamedTuple):
    """Where a numeric key goes and which values it accepts."""

    dest: str                          # the group of arguments it joins
    arg: object                        # its argument name, or the PowerState
    minimum: Optional[float] = None
    exclusive: bool = False            # the minimum itself is refused
    maximum: Optional[float] = None
    integer: bool = False


#: Every numeric key, once.  Destinations: `params` EnergyModelParams,
#: `drops`/`currents` per-state overrides, `calibration` calibrate_currents,
#: `segment` Segment, `layout` TrackLayout, `budget` EnergyBudget,
#: `wireless` WirelessLinkParams, `config` ScenarioConfig.
_NUMBERS: dict[tuple[str, str], _Number] = {
    ("energy", "capacitance"): _Number("params", "capacitance", 0.0, True),
    ("energy", "nominal_voltage"): _Number("params", "nominal_voltage", 0.0, True),
    ("energy", "brownout_drop"): _Number("params", "brownout_drop", 0.0, True),
    ("energy", "gap_duration"): _Number("params", "gap_duration", 0.0, True),
    ("energy", "burst_current"): _Number("calibration", "burst_current", 0.0),
    ("energy", "ripple_amplitude"): _Number("config", "ripple_amplitude", 0.0),
    ("energy", "recharge_rate"): _Number("config", "recharge_rate", 0.0, True),
    **{("energy", f"drop_{k}"): _Number("drops", s, 0) for k, s in _STATE_KEYS.items()},
    **{("energy", f"current_{k}"): _Number("currents", s, 0.0)
       for k, s in _STATE_KEYS.items()},
    ("track", "gap_length"): _Number("segment", "gap_length", 0.0, True),
    ("track", "dock_position"): _Number("layout", "dock_position"),
    ("car", "speed"): _Number("config", "speed", 0.0),
    ("strategy", "drain_interval"): _Number("config", "drain_interval", 0.0, True),
    ("strategy", "reboot_dead_time"): _Number("config", "reboot_dead_time", 0.0),
    ("budget", "max_allowed_drop"): _Number("budget", "max_allowed_drop", 0.0, True),
    ("budget", "lookahead"): _Number("budget", "lookahead", 0.0),
    **{("wireless", k): _Number("wireless", k, 0.0) for k in (
        "connect_latency", "connect_extra_current", "per_frame_airtime",
        "reply_airtime")},
    ("wireless", "loss_rate"): _Number("wireless", "loss_rate", 0.0, maximum=1.0),
    ("workload", "rate"): _Number("config", "workload_rate", 0.0),
    ("workload", "payload_size"): _Number(
        "config", "workload_payload", 0, maximum=MAX_PAYLOAD, integer=True),
    ("run", "duration"): _Number("config", "duration", 0.0, True),
    ("run", "seed"): _Number("config", "seed", integer=True),
    ("run", "dt"): _Number("config", "dt", 0.0, True),
    ("run", "ram_capacity"): _Number("config", "ram_capacity", 1, integer=True),
    ("run", "flash_capacity"): _Number("config", "flash_capacity", 1, integer=True),
    ("run", "wired_frame_time"): _Number("config", "wired_frame_time", 0.0, True),
}

_KEYS = (*_NUMBERS, ("track", "segments"), ("car", "clock"), ("car", "radio"),
         ("strategy", "kind"), ("strategy", "controller"), ("schedule", "requests"))
_KNOWN_KEYS = {section: {k for s, k in _KEYS if s == section} for section, _ in _KEYS}

DEFAULT_SEGMENTS = "straight:0.30 lanechange:0.48:0.09:0.36 straight:0.30"


@dataclass
class ScenarioSpec:
    """Parsed, validated scenario; `build` produces the runnable config."""

    name: str = "scenario"
    values: dict[tuple[str, str], str] = field(default_factory=dict)
    lines: dict[tuple[str, str], int] = field(default_factory=dict)

    def _line(self, section: str, key: str) -> int:
        return self.lines.get((section, key), 0)

    def _number(self, section: str, key: str, spec: _Number) -> Union[int, float]:
        raw = self.values[(section, key)]
        line = self.lines[(section, key)]
        try:
            value = int(raw) if spec.integer else float(raw)
        except ValueError:
            kind = "an integer" if spec.integer else "a number"
            raise ScenarioError(line, f"{key}: expected {kind}, got {raw!r}") from None
        if spec.minimum is not None and not (
            value > spec.minimum if spec.exclusive else value >= spec.minimum
        ):
            op = ">" if spec.exclusive else ">="
            raise ScenarioError(line, f"{key}: must be {op} {spec.minimum}")
        if spec.maximum is not None and value > spec.maximum:
            raise ScenarioError(line, f"{key}: must be <= {spec.maximum}")
        if not math.isfinite(value):
            raise ScenarioError(line, f"{key}: must be finite, got {raw!r}")
        return value

    def _arguments(self) -> defaultdict[str, dict]:
        """The numeric keys the file sets, checked, as arguments per destination."""
        args: defaultdict[str, dict] = defaultdict(dict)
        for (section, key), raw in self.values.items():
            spec = _NUMBERS.get((section, key))
            if spec is None or (key == "recharge_rate" and raw == "instant"):
                continue
            args[spec.dest][spec.arg] = self._number(section, key, spec)
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
        # the segments alone first, so that a dock error names its own key
        for key, layout in (("segments", TrackLayout(segments)),
                            ("dock_position", TrackLayout(segments, **args["layout"]))):
            try:
                layout.validate()
            except LayoutError as exc:
                raise ScenarioError(self._line("track", key), f"{key}: {exc}") from None
        return layout

    def _build_schedule(self) -> HostRequestSchedule:
        raw = self.values.get(("schedule", "requests"), "none")
        line = self._line("schedule", "requests")
        if raw == "none":
            return HostRequestSchedule()
        if raw == "gap_aligned":
            return HostRequestSchedule(gap_aligned=True)
        try:
            times = tuple(float(p) for p in raw.split(","))
            if not all(map(math.isfinite, times)):
                raise ValueError
        except ValueError:
            raise ScenarioError(
                line, f"requests: expected 'none', 'gap_aligned' or times, got {raw!r}"
            ) from None
        try:
            return HostRequestSchedule(times=times)
        except ValueError as exc:
            raise ScenarioError(line, f"requests: {exc}") from None

    def build(self) -> ScenarioConfig:
        args = self._arguments()
        params = EnergyModelParams(**args["params"])
        if params.brownout_drop >= params.nominal_voltage:
            raise ScenarioError(
                self._line("energy", "brownout_drop")
                or self._line("energy", "nominal_voltage"),
                f"brownout_drop ({params.brownout_drop}) must be below "
                f"nominal_voltage ({params.nominal_voltage})",
            )
        params.current_table = calibrate_currents(
            {**MEASURED_DROPS, **args["drops"]}, params, **args["calibration"]
        )
        params.current_table.update(args["currents"])
        default_state = ScenarioConfig.initial_state
        cfg = ScenarioConfig(
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
        record_size = cfg.workload_payload + RECORD_OVERHEAD
        if cfg.flash_capacity < record_size:
            raise ScenarioError(
                self._line("run", "flash_capacity"),
                f"flash_capacity ({cfg.flash_capacity}) must hold one record of "
                f"payload_size + {RECORD_OVERHEAD} = {record_size} bytes",
            )
        if (cfg.strategy is StrategyKind.SAVE_AND_PRINT_LATER
                and cfg.layout.dock_position is None):
            raise ScenarioError(
                self._line("strategy", "kind"),
                "save_and_print_later needs a dock_position in [track]",
            )
        if cfg.budget.max_allowed_drop >= params.brownout_drop:
            raise ScenarioError(
                self._line("budget", "max_allowed_drop"),
                f"max_allowed_drop ({cfg.budget.max_allowed_drop}) must stay below "
                f"brownout_drop ({params.brownout_drop})",
            )
        if (cfg.wireless.loss_rate > 0 and ("run", "seed") not in self.values
                and cfg.strategy in (StrategyKind.STOP_AND_RADIO,
                                     StrategyKind.WIRELESS_CONTINUOUS)):
            raise ScenarioError(
                self._line("wireless", "loss_rate"),
                "a seed in [run] is mandatory when loss_rate > 0",
            )
        return cfg


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
    return parse_scenario(path.read_text(), name=path.stem)
