"""Metamorphic relations of the simulation.

Relations (b) and (c) each scale one family of inputs by a factor
`k = 2**j`, which multiplies every float it enters exactly: a product
or quotient of scaled values rounds to the scaled result, or to the
unscaled one where the factors cancel.  So where a relation holds, the
scaled run is equal to the plain one, not merely close to it.

- (b) energy: the capacitance, every per-state current and the
  association's extra current times `k` leave every drop unchanged, so
  the trace runs, the events and the metrics are identical.
- (c) geometry: every segment length, gap offset and gap length, the
  dock position and the speed times `k` leave every time unchanged, so
  the trace runs, the event times and kinds (a gap event's detail
  carries the scaled position) and the metrics are identical.

Cases: every shipped scenario under no strategy and under each of the
four, with the transmission gate off and on (a dockless track gets a
dock at 0.0 for save_and_print_later), for `k` in {1/4, 2, 8}.  Each
plain run is made once per module.

Relation (a), step size: halving `dt` (drawn from [1e-4, 0.03] over the
shipped scenarios, 20 derandomized examples) leaves the counts of gap
entries, requests, brownouts and deliveries unchanged, and `max_drop_v`
within 1e-9.  The fixed-step loop fails it, so it is a strict xfail: it
sees a gap only at a step end and discharges a whole step at one
current, so at `dt` = 30 ms whole 20 ms gaps go unseen.
"""

import collections
import dataclasses
import importlib.resources

import pytest
from hypothesis import example, given, settings, strategies as st
from test_track_world import SHIPPED, STRATEGY_RUNS

from powergap.scenario import load_scenario
from powergap.strategies import StrategyKind
from powergap.track_world import EventKind, Segment, Simulation, TrackLayout

SCENARIOS = importlib.resources.files("powergap") / "scenarios"
SCALES = [0.25, 2.0, 8.0]


def cases():
    """(case id, config) for every shipped scenario, strategy and gate."""
    for name in SHIPPED:
        cfg = load_scenario(SCENARIOS / name).build()
        for kind, controller in STRATEGY_RUNS:
            layout = cfg.layout
            if kind is StrategyKind.SAVE_AND_PRINT_LATER and layout.dock_position is None:
                assert not layout.in_gap(0.0)  # every shipped track opens on a straight
                layout = TrackLayout(layout.segments, dock_position=0.0)
            case = f"{name}-{kind.value if kind else 'none'}-gate_{'on' if controller else 'off'}"
            yield case, dataclasses.replace(
                cfg, strategy=kind, controller=controller, layout=layout)


def outcome(cfg, event_details=True):
    result = Simulation(cfg).run()
    events = [(e.time, e.kind, e.detail if event_details else None) for e in result.events]
    return result.trace.runs, events, result.metrics


def scale_energy(cfg, k):
    params = dataclasses.replace(
        cfg.params, capacitance=cfg.params.capacitance * k,
        current_table={s: i * k for s, i in cfg.params.current_table.items()})
    wireless = dataclasses.replace(
        cfg.wireless, connect_extra_current=cfg.wireless.connect_extra_current * k)
    return dataclasses.replace(cfg, params=params, wireless=wireless)


def scale_geometry(cfg, k):
    layout = cfg.layout
    segments = [
        Segment(seg.kind, seg.length * k, tuple(g * k for g in seg.gap_offsets),
                seg.gap_length * k)
        for seg in layout.segments
    ]
    dock = layout.dock_position
    return dataclasses.replace(
        cfg, speed=cfg.speed * k,
        layout=TrackLayout(segments, None if dock is None else dock * k))


@pytest.fixture(scope="module")
def plain_runs():
    return [(case, cfg, outcome(cfg)) for case, cfg in cases()]


@pytest.mark.parametrize("k", SCALES)
def test_scaling_capacitance_and_currents_changes_no_output(plain_runs, k):
    mismatched = [case for case, cfg, plain in plain_runs
                  if outcome(scale_energy(cfg, k)) != plain]
    assert mismatched == []


@pytest.mark.parametrize("k", SCALES)
def test_scaling_lengths_and_speed_changes_no_time(plain_runs, k):
    mismatched = []
    for case, cfg, (runs, events, metrics) in plain_runs:
        plain = runs, [(t, kind, None) for t, kind, _ in events], metrics
        if outcome(scale_geometry(cfg, k), event_details=False) != plain:
            mismatched.append(case)
    assert mismatched == []


def step_outcome(cfg, dt):
    """(gap entries, requests, brownouts, deliveries) and `max_drop_v` of
    `cfg` run at step `dt`."""
    result = Simulation(dataclasses.replace(cfg, dt=dt)).run()
    metrics = result.metrics
    entries = collections.Counter(e.kind for e in result.events)[EventKind.GAP_ENTERED]
    counts = (entries, metrics.requests_arrived, metrics.brownout_count,
              metrics.delivered_records)
    return counts, metrics.max_drop_v


@pytest.mark.xfail(strict=True, reason="the fixed-step loop sees gaps and brownouts only "
                   "at step ends: gap_aligned_c160.scn at dt 0.03 -> 0.015 reads gap "
                   "entries 26 -> 40 and brownouts 0 -> 4")
@settings(max_examples=20, derandomize=True, deadline=None)
@example(name="gap_aligned_c160.scn", dt=0.03)
@given(name=st.sampled_from(SHIPPED), dt=st.floats(1e-4, 0.03))
def test_halving_dt_changes_no_count(name, dt):
    cfg = load_scenario(SCENARIOS / name).build()
    counts, drop = step_outcome(cfg, dt)
    half_counts, half_drop = step_outcome(cfg, dt / 2)
    assert half_counts == counts
    assert abs(half_drop - drop) <= 1e-9
