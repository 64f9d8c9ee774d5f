"""Compare the four log-transmission strategies on one workload.

The car laps a 1.5 m circuit with a double lane change while the
firmware emits 5 debug records per second.  Each strategy trades
delivery latency against energy draw and storage pressure:

* save_and_print_later  - buffer everything, drain over the wired dock
* stop_and_radio        - periodically stop, connect, drain by radio
* powerline_continuous  - trickle records through the track power slots
* wireless_continuous   - keep the radio associated and stream
"""

from powergap.energy_model import EnergyModelParams
from powergap.strategies import StrategyKind
from powergap.track_world import (
    ScenarioConfig,
    Segment,
    SegmentKind,
    TrackLayout,
    evaluate_strategies,
)


def main() -> None:
    cfg = ScenarioConfig(
        params=EnergyModelParams.calibrated(),
        layout=TrackLayout(
            [
                Segment(SegmentKind.STRAIGHT, 0.51),
                Segment(SegmentKind.LANE_CHANGE, 0.48, (0.09, 0.36)),
                Segment(SegmentKind.STRAIGHT, 0.51),
            ],
            dock_position=0.20,
        ),
        speed=3.0,
        duration=30.0,
        seed=5,
        workload_rate=5.0,
        workload_payload=12,
        drain_interval=8.0,
    )
    header = (
        f"{'strategy':<22} {'delivered':>9} {'median lat':>11} "
        f"{'brownouts':>9} {'radio s':>8} {'backlog?':>8}"
    )
    print(header)
    for kind, m in evaluate_strategies(cfg, list(StrategyKind)):
        print(
            f"{kind.value:<22} {m.delivered_records:>9} "
            f"{m.median_latency_s:>10.3f}s {m.brownout_count:>9} "
            f"{m.radio_on_s:>8.2f} {str(m.backlog_growing).lower():>8}"
        )


if __name__ == "__main__":
    main()
