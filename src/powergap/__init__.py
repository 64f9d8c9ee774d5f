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
    detect_brownout,
    discharge,
    max_drop,
)
from .log_store import LogRecord, LogStore, Severity
from .scenario import ScenarioError, ScenarioSpec, load_scenario, parse_scenario
from .strategies import (
    EnergyBudget,
    Gate,
    HostCollector,
    OtaDevice,
    OtaSession,
    OtaState,
    StrategyKind,
    controller_gate,
    run_ota_transfer,
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
from .transports import (
    Frame,
    FrameKind,
    Outcome,
    PowerlineChannel,
    WiredLink,
    WirelessLink,
    WirelessLinkParams,
    crc16_ccitt,
    frame_decode,
    frame_encode,
    powerline_bandwidth,
    powerline_pack,
    powerline_unpack,
    wired_available,
)

__version__ = "0.1.0"
