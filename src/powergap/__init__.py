"""Deterministic simulator for debug-log transport from an
intermittently powered mobile embedded device."""

from .energy_model import (
    ClockTier,
    EnergyModelParams,
    MEASURED_DROPS,
    PowerState,
    RadioMode,
    VoltageTrace,
    calibrate_currents,
)
from .log_store import LogRecord, LogStore, Severity
from .scenario import ScenarioError, ScenarioSpec, load_scenario, parse_scenario
from .strategies import (
    EnergyBudget,
    Gate,
    HostCollector,
    StrategyKind,
    controller_gate,
)
from .track_world import (
    CarState,
    DeliveryMetrics,
    Event,
    EventKind,
    HostRequestSchedule,
    ScenarioConfig,
    ScenarioResult,
    Segment,
    SegmentKind,
    Simulation,
    TrackLayout,
    evaluate_strategies,
    run_scenario,
)
from .transports import Outcome, PowerlineChannel, WirelessLinkParams, crc16_ccitt

__version__ = "0.1.0"
