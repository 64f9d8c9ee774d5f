"""In-memory spans around powergap's public functions, from outside.

`Tracer.wrap` returns a replacement that records one span (name, start,
end, parent) per call into flat arrays, so a pass of a few hundred
thousand calls costs a few megabytes.  `Patches` installs replacements
under every name a module looks them up by: `track_world` imports
`discharge_current` by name, `log_store` imports `crc16_ccitt`, `cli`
imports `run_scenario`, so patching only the defining module would miss
those calls.  Every replacement is undone by `Patches.restore`.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from types import ModuleType
from typing import Callable, Optional

#: Rounding slack when comparing a parent's duration with its children's.
NEST_TOLERANCE_S = 1e-9


def powergap_modules() -> list[ModuleType]:
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "powergap" or name.startswith("powergap."))]


class Patches:
    """Attribute replacements on modules and classes, undone in reverse."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def function(self, original: Callable, replacement: Callable) -> None:
        """Replace `original` under every name any powergap module binds it to."""
        for module in powergap_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, replacement)

    def method(self, cls: type, name: str, replacement: Callable) -> None:
        self._set(cls, name, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


Hook = Callable[["Tracer", tuple, object], None]


class Tracer:
    """Spans held in flat arrays; `counts` holds counters set by hooks."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter[str] = Counter()
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def parent_name(self) -> Optional[str]:
        """Name of the span that encloses the code running now."""
        top = self._stack[-1]
        return self.names[self.name_id[top]] if top >= 0 else None

    def wrap(self, name: str, fn: Callable, hook: Optional[Hook] = None) -> Callable:
        """`fn` recording a span per call; `hook(tracer, args, result)` runs after."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def write_csv(self, path: Path) -> None:
        """One row per span; times in ns from the first span's start."""
        t0 = self.start[0] if len(self) else 0.0
        names, name_id, parent, start, end = (
            self.names, self.name_id, self.parent, self.start, self.end)
        with open(path, "w", newline="") as fp:
            writer = csv.writer(fp, lineterminator="\n")
            writer.writerow(["span", "name", "parent", "start_ns", "end_ns"])
            writer.writerows(
                (i, names[name_id[i]], parent[i],
                 round((start[i] - t0) * 1e9), round((end[i] - t0) * 1e9))
                for i in range(len(self)))


class SpanStats:
    """Per-name call counts, total and self time of one tracer's spans.

    Self time is a span's duration minus its direct children's.
    `violations` counts spans that end before they start, leave their
    parent's interval or have negative self time; nested spans give 0.
    """

    def __init__(self, tracer: Tracer) -> None:
        start, end, parent = tracer.start, tracer.end, tracer.parent
        n = len(tracer)
        dur = [end[i] - start[i] for i in range(n)]
        children = [0.0] * n
        violations = 0
        for i in range(n):
            p = parent[i]
            if dur[i] < 0:
                violations += 1
            if p >= 0:
                children[p] += dur[i]
                if start[i] < start[p] or end[i] > end[p]:
                    violations += 1
        self.calls: Counter[str] = Counter()
        self.total_s: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        names, name_id = tracer.names, tracer.name_id
        for i in range(n):
            name = names[name_id[i]]
            own = dur[i] - children[i]
            if own < -NEST_TOLERANCE_S:
                violations += 1
            self.calls[name] += 1
            self.total_s[name] += dur[i]
            self.self_s[name] += own
        self.violations = violations


# --- the layer boundaries ---------------------------------------------------
#
# Targets are found by name in whichever powergap module defines them, so
# a boundary that moves between modules is still traced.  A boundary that
# no longer exists is skipped and its metrics read 0.

def find(name: str) -> Optional[object]:
    """The object called `name` in the powergap module that defines it.

    A replacement made with `functools.wraps` keeps the original's
    `__module__`, so a wrapped target is still found.
    """
    for module in powergap_modules():
        value = vars(module).get(name)
        if value is not None and getattr(value, "__module__", None) == module.__name__:
            return value
    return None


def _classes_defining(method: str, base: Optional[str] = None) -> list[type]:
    """Classes that define `method` themselves; with `base`, its subclasses only."""
    base_cls = find(base) if base else None
    if base and not isinstance(base_cls, type):
        return []
    return [value for module in powergap_modules() for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__
            and method in vars(value) and value is not base_cls
            and (base_cls is None or issubclass(value, base_cls))]


def _outcome_is(value: str, key: str) -> Hook:
    def hook(tracer: Tracer, args: tuple, result: object) -> None:
        if getattr(result, "value", None) == value:
            tracer.counts[key] += 1
    return hook


def _gap_step(tracer: Tracer, args: tuple, result: object) -> None:
    if result > 0 and tracer.parent_name() == "track_world.step":  # type: ignore[operator]
        tracer.counts["gap_steps"] += 1


def _empty_flush(tracer: Tracer, args: tuple, result: object) -> None:
    if result == 0:
        tracer.counts["flush_empty"] += 1


def _crc_bytes(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.counts["crc_bytes"] += len(args[0])


def _trace_rows(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.counts["trace_rows"] += len(args[0])


def _emit_bytes(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.counts["emit_bytes"] += len(args[1].encode())


#: (span name, class name, method name, hook); `strategies.tick` and
#: `transports.send_frame` cover every class defining the method.
METHODS: list[tuple[str, str, str, Optional[Hook]]] = [
    ("energy_model.current", "EnergyModelParams", "current", None),
    ("track_world.run", "Simulation", "run", None),
    ("track_world.step", "Simulation", "step", None),
    ("track_world.in_gap", "TrackLayout", "in_gap", None),
    ("track_world.unpowered_overlap", "TrackLayout", "unpowered_overlap", _gap_step),
    ("log_store.append", "LogStore", "append", None),
    ("log_store.flush", "LogStore", "flush", _empty_flush),
    ("log_store.ack_through", "LogStore", "ack_through", None),
    ("transports.powerline_tick", "PowerlineChannel", "tick", None),
    ("scenario.build", "ScenarioSpec", "build", None),
    ("cli.trace_write_csv", "VoltageTrace", "write_csv", _trace_rows),
    ("cli.metrics_write_csv", "DeliveryMetrics", "write_csv", None),
]

#: (span name, function name, hook)
FUNCTIONS: list[tuple[str, str, Optional[Hook]]] = [
    ("energy_model.discharge_current", "discharge_current", None),
    ("track_world.run_scenario", "run_scenario", None),
    ("transports.crc16_ccitt", "crc16_ccitt", _crc_bytes),
    ("transports.frame_encode", "frame_encode", None),
    ("transports.powerline_pack", "powerline_pack", None),
    ("strategies.controller_gate", "controller_gate", _outcome_is("defer", "gate_defer")),
    ("strategies.evaluate_strategies", "evaluate_strategies", None),
    ("scenario.parse_scenario", "parse_scenario", None),
    ("cli.main", "main", None),
    ("cli.events_to_csv", "events_to_csv", None),
    ("cli.write_comparison_csv", "write_comparison_csv", None),
    ("cli.write_atomic", "_write_atomic", _emit_bytes),
]

#: Spans whose time is output emission; none of them encloses another.
EMIT_SPANS = ("cli.trace_write_csv", "cli.metrics_write_csv", "cli.events_to_csv",
              "cli.write_comparison_csv", "cli.write_atomic")


def install_spans(tracer: Tracer, patches: Patches) -> None:
    """Wrap every layer boundary of the imported powergap in a span."""
    for span, cls_name, method, hook in METHODS:
        cls = find(cls_name)
        if isinstance(cls, type) and method in vars(cls):
            patches.method(cls, method, tracer.wrap(span, vars(cls)[method], hook))
    for cls in _classes_defining("tick", base="Driver"):
        patches.method(cls, "tick", tracer.wrap("strategies.tick", vars(cls)["tick"]))
    delivered = _outcome_is("delivered", "send_delivered")
    for cls in _classes_defining("send_frame"):
        patches.method(cls, "send_frame",
                       tracer.wrap("transports.send_frame", vars(cls)["send_frame"], delivered))
    for span, func_name, hook in FUNCTIONS:
        fn = find(func_name)
        if callable(fn):
            patches.function(fn, tracer.wrap(span, fn, hook))


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, stats: SpanStats, runs: list[dict]) -> dict[str, float]:
    """Per-layer figures of one traced pass; `runs` are its run summaries."""
    calls, total, own, counts = stats.calls, stats.total_s, stats.self_s, tracer.counts

    def run_sum(key: str) -> float:
        return sum(r[key] for r in runs)

    return {
        "energy_model.current_calls": calls["energy_model.current"],
        "energy_model.current_s": total["energy_model.current"],
        "energy_model.discharge_calls": calls["energy_model.discharge_current"],
        "energy_model.discharge_s": total["energy_model.discharge_current"],
        "track_world.step_calls": calls["track_world.step"],
        "track_world.step_self_s": own["track_world.step"],
        "track_world.in_gap_calls": calls["track_world.in_gap"],
        "track_world.in_gap_s": total["track_world.in_gap"],
        "track_world.overlap_calls": calls["track_world.unpowered_overlap"],
        "track_world.overlap_s": total["track_world.unpowered_overlap"],
        "track_world.gap_step_frac": _frac(counts["gap_steps"], calls["track_world.step"]),
        "log_store.append_calls": calls["log_store.append"],
        "log_store.append_s": total["log_store.append"],
        "log_store.flush_calls": calls["log_store.flush"],
        "log_store.flush_s": total["log_store.flush"],
        "log_store.flush_empty_frac": _frac(counts["flush_empty"], calls["log_store.flush"]),
        "log_store.ack_calls": calls["log_store.ack_through"],
        "log_store.ack_s": total["log_store.ack_through"],
        "log_store.evicted": run_sum("evicted"),
        "log_store.dropped": run_sum("dropped"),
        "log_store.lost_unflushed": run_sum("lost_unflushed"),
        "transports.crc_calls": calls["transports.crc16_ccitt"],
        "transports.crc_bytes": counts["crc_bytes"],
        "transports.crc_s": total["transports.crc16_ccitt"],
        "transports.frame_encode_calls": calls["transports.frame_encode"],
        "transports.frame_encode_s": total["transports.frame_encode"],
        "transports.send_calls": calls["transports.send_frame"],
        "transports.send_delivered_frac": _frac(counts["send_delivered"],
                                                calls["transports.send_frame"]),
        "transports.powerline_pack_calls": calls["transports.powerline_pack"],
        "transports.powerline_pack_s": total["transports.powerline_pack"],
        "transports.powerline_tick_calls": calls["transports.powerline_tick"],
        "transports.powerline_tick_s": total["transports.powerline_tick"],
        "transports.slot_fill_frac": _frac(run_sum("slots_delivered"),
                                           run_sum("slot_boundaries")),
        "strategies.tick_calls": calls["strategies.tick"],
        "strategies.tick_self_s": own["strategies.tick"],
        "strategies.gate_calls": calls["strategies.controller_gate"],
        "strategies.gate_s": total["strategies.controller_gate"],
        "strategies.gate_defer_frac": _frac(counts["gate_defer"],
                                            calls["strategies.controller_gate"]),
        "scenario.parse_s": total["scenario.parse_scenario"],
        "scenario.build_s": total["scenario.build"],
        "cli.emit_s": sum(total[name] for name in EMIT_SPANS),
        "cli.emit_bytes": counts["emit_bytes"],
        "cli.trace_rows": counts["trace_rows"],
        "sim.steps": run_sum("steps"),
        "sim.appended": run_sum("appended"),
        "sim.delivered": run_sum("delivered"),
        "sim.brownouts": run_sum("brownouts"),
        "sim.requests_arrived": run_sum("requests_arrived"),
        "sim.requests_answered": run_sum("requests_answered"),
    }
