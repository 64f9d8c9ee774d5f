"""powergap benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload drive --seed 1 --seconds 20 --trace 0

The program is imported from `src/` beside this directory and receives
only the `.scn` files generated from the seed.  Every run works in one
process: a warm-up pass that fixes the reference outputs, then for
`--seconds` fresh set-ups (import, parse, build) followed by a timed
pass, repeated.  Every timing is scaled by a speed probe run right
before and after it (see `probe`).  Untimed passes split the timed
window in thirds: with `--trace 0` one pass under tracemalloc, and
always one traced pass.  `--trace 0` reports the end-to-end metrics;
`--trace 1` the per-layer ones, and it writes the spans.  Metric names
and units come from BENCHMARK.json.  The last stdout line is the JSON
result.  Scenarios, outputs, `result.json` and (traced) `spans.csv`
land in `.bench_out/<workload>/`.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Host seconds the speed probe takes when the host runs at full speed;
#: scaled timings are in seconds at that speed.
PROBE_S = 0.017
#: Set-ups measured before each timed pass.
SETUPS_PER_PASS = 3


class _Cell:
    __slots__ = ("v", "q")

    def __init__(self, v: float) -> None:
        self.v = v
        self.q = 0.0


def _probe_kernel(n: int = 20000) -> int:
    """Fixed pure-Python work of the simulator's kind: attribute updates,
    float arithmetic, dict counts and a bitwise CRC loop."""
    cells = [_Cell(i * 0.5) for i in range(64)]
    counts: dict[int, int] = {}
    acc = 0.0
    crc = 0xFFFF
    for i in range(n):
        cell = cells[i & 63]
        cell.q = cell.q * 0.999 + cell.v * 1e-3
        acc += cell.q if i % 3 else -cell.q
        counts[i & 255] = counts.get(i & 255, 0) + 1
        crc ^= (i & 0xFF) << 8
        for _ in range(4):
            crc = ((crc << 1) ^ 0x1021) & 0xFFFF if crc & 0x8000 else (crc << 1) & 0xFFFF
    return crc + len(counts) + int(acc)


def probe() -> float:
    """Host seconds of one fixed kernel: the host's speed right now.

    On a shared 2-vCPU Intel Xeon VM, each vCPU was seen to switch
    between full speed and about 0.6 of it for seconds at a time,
    independently of the other.  A timing divided by the mean of the
    probes just before and after it, times PROBE_S, cancels most of
    that; the probe is benchmark code, so a change to powergap moves
    only the timing.
    """
    gc.collect()
    t0 = perf_counter()
    _probe_kernel()
    return perf_counter() - t0


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds` of host time as seconds at the speed where `probe` takes PROBE_S."""
    return seconds * PROBE_S * 2 / (before + after)


def import_powergap():
    """Import powergap afresh from SRC; returns its `cli` module."""
    for name in [n for n in sys.modules if n == "powergap" or n.startswith("powergap.")]:
        del sys.modules[name]
    return importlib.import_module("powergap.cli")


def measure_setup(paths: list[Path]) -> float:
    """Import powergap, parse and build every scenario, construct the first Simulation."""
    gc.collect()
    t0 = perf_counter()
    import_powergap()
    powergap = sys.modules["powergap"]
    configs = [powergap.load_scenario(p).build() for p in paths]
    powergap.Simulation(configs[0])
    return perf_counter() - t0


class Recorder:
    """Checks every Simulation a pass runs and times `run_scenario`.

    Check time is kept out of both `host_s` and the pass's wall time.
    """

    def __init__(self) -> None:
        self.runs: list[dict] = []
        self.problems: list[list[str]] = []
        self.sim_s = self.host_s = self.check_s = 0.0

    def install(self, patches: tracing.Patches) -> None:
        sim_cls = tracing.find("Simulation")
        run_scenario = tracing.find("run_scenario")
        if sim_cls is None or run_scenario is None:
            raise RuntimeError("powergap defines no Simulation or run_scenario")
        run = sim_cls.run

        @functools.wraps(run)
        def checked_run(sim):
            result = run(sim)
            t0 = perf_counter()
            self.problems.append(checks.check_run(sim))
            self.runs.append(checks.summarize(sim))
            self.check_s += perf_counter() - t0
            return result

        patches.method(sim_cls, "run", checked_run)

        @functools.wraps(run_scenario)
        def timed_run_scenario(cfg):
            checked_before = self.check_s
            t0 = perf_counter()
            try:
                return run_scenario(cfg)
            finally:
                self.host_s += perf_counter() - t0 - (self.check_s - checked_before)
                self.sim_s += cfg.duration

        patches.function(run_scenario, timed_run_scenario)


@dataclass
class Pass:
    wall_s: float
    host_s: float
    sim_s: float
    runs: list[dict]
    digests: dict[str, str]
    attempted: int
    failed: int
    problems: list[str]
    peak_bytes: int


def run_pass(argv: list[str], out: Path, reference: Optional[dict[str, str]] = None,
             tracer: Optional[tracing.Tracer] = None, trace_memory: bool = False) -> Pass:
    """One call of `powergap.cli.main(argv)`, checked."""
    shutil.rmtree(out, ignore_errors=True)
    recorder = Recorder()
    patches = tracing.Patches()
    if tracer is not None:
        tracing.install_spans(tracer, patches)
    recorder.install(patches)
    cli = sys.modules["powergap.cli"]
    stdout = io.StringIO()
    peak = 0
    gc.collect()
    try:
        if trace_memory:
            tracemalloc.start()
        t0 = perf_counter()
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(argv)
        wall = perf_counter() - t0 - recorder.check_s
        if trace_memory:
            peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        patches.restore()

    digests = checks.digest_dir(out)
    digests["<stdout>"] = checks.sha256(stdout.getvalue().encode())
    attempted = max(len(recorder.runs), 1)
    problems = [p for run_problems in recorder.problems for p in run_problems]
    failed = sum(1 for run_problems in recorder.problems if run_problems)
    whole_pass = [] if rc == 0 else [f"exit code {rc}"]
    if not recorder.runs:
        whole_pass.append("no simulation ran")
    if reference is not None:
        whole_pass += checks.check_outputs(reference, digests)
    if whole_pass:
        problems += whole_pass
        failed = attempted
    return Pass(
        wall_s=wall,
        host_s=recorder.host_s,
        sim_s=recorder.sim_s,
        runs=recorder.runs,
        digests=digests,
        attempted=attempted,
        failed=failed,
        problems=problems,
        peak_bytes=peak,
    )


def pass_argv(workload: str, paths: list[Path], out: Path) -> list[str]:
    if workload == "flood":
        return ["compare", str(paths[0]), "--out", str(out)]
    return ["run", *map(str, paths), "--out", str(out)]


def environment(seed: int, workload: str) -> dict:
    uname = os.uname()
    return {
        "machine": uname.machine,
        "system": f"{uname.sysname} {uname.release}",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "workload": workload,
    }


def _spread(values: list[float]) -> str:
    return f"median of {len(values)}, min {min(values):.6g}, max {max(values):.6g}"


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "powergap" / "__init__.py").is_file():
        print(f"error: no powergap sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ.pop("POWERGAP_OUT", None)  # it would override --out
    sys.path.insert(0, str(SRC))

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "scn").mkdir(parents=True)
    paths = []
    for name, text in workloads.generate(args.workload, args.seed).items():
        path = work / "scn" / f"{name}.scn"
        path.write_text(text)
        paths.append(path)

    measure_setup(paths)  # also checks that every scenario parses
    imported = Path(sys.modules["powergap"].__file__).resolve()
    if SRC.resolve() not in imported.parents:
        print(f"error: powergap imported from {imported}, not {SRC}", file=sys.stderr)
        return 2

    out = work / "out"
    argv_out = pass_argv(args.workload, paths, out)
    warm = run_pass(argv_out, out)
    timed: list[Pass] = []
    setup: list[float] = []
    wall: list[float] = []
    rates: list[float] = []
    #: Unscaled (host seconds, probe before, probe after) of every timing.
    raw: dict[str, list[tuple[float, float, float]]] = {"setup_s": [], "wall_s": []}

    def probed(measure):
        """`measure()` between two probes; returns its result and the probes."""
        before = probe()
        result = measure()
        return result, before, probe()

    def time_passes(seconds: float) -> None:
        """Set-ups then a timed pass, repeated until `seconds` have passed."""
        deadline = perf_counter() + seconds
        while True:
            for _ in range(SETUPS_PER_PASS):
                t, before, after = probed(lambda: measure_setup(paths))
                raw["setup_s"].append((t, before, after))
                setup.append(scale(t, before, after))
            p, before, after = probed(lambda: run_pass(argv_out, out, warm.digests))
            timed.append(p)
            raw["wall_s"].append((p.wall_s, before, after))
            wall.append(scale(p.wall_s, before, after))
            host_s = scale(p.host_s, before, after)
            rates.append(p.sim_s / host_s if host_s else 0.0)
            if perf_counter() >= deadline:
                return

    # The untimed passes sit between thirds of the timed window, so the
    # timed passes sample the shared host over a longer stretch.
    untimed = [warm]
    time_passes(args.seconds / 3)
    if not args.trace:
        untimed.append(run_pass(argv_out, out, warm.digests, trace_memory=True))
    time_passes(args.seconds / 3)
    tracer = tracing.Tracer()
    traced_out = work / "traced"
    traced, before, after = probed(lambda: run_pass(
        pass_argv(args.workload, paths, traced_out), traced_out, warm.digests,
        tracer=tracer))
    untimed.append(traced)
    time_passes(args.seconds / 3)
    stats = tracing.SpanStats(tracer)
    if stats.violations:
        traced.problems.append(f"{stats.violations} spans do not nest")
        traced.failed = traced.attempted

    passes = untimed + timed
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    end_to_end = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(wall),
        "sim_rate_x": statistics.median(rates),
    }
    if not args.trace:
        end_to_end["peak_mem_mb"] = untimed[1].peak_bytes / 1e6
    per_layer = tracing.layer_metrics(tracer, stats, traced.runs)
    per_layer["trace_overhead_x"] = scale(traced.wall_s, before, after) / end_to_end["wall_s"]

    section = "per_layer" if args.trace else "end_to_end"
    values = per_layer if args.trace else end_to_end
    units = {m["name"]: m["unit"] for m in declared[section]}
    if units.keys() != values.keys():
        raise RuntimeError(f"metrics {sorted(values.keys() ^ units.keys())} "
                           f"disagree with BENCHMARK.json {section}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    env = environment(args.seed, args.workload)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    notes = {"setup_s": _spread(setup), "wall_s": _spread(wall), "sim_rate_x": _spread(rates)}
    for name in ("setup_s", "wall_s"):
        unscaled = statistics.median(t for t, _, _ in raw[name])
        notes[name] += f"; unscaled median {unscaled:.6g}"
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    print(f"failed_frac = {failed / attempted:.6g} ratio  ({failed} of {attempted} runs)")
    for p in passes:
        for problem in p.problems:
            print(f"check failed: {problem}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {**result, "env": env, "end_to_end": end_to_end, "per_layer": per_layer,
              "setup_s": setup, "wall_s": wall, "sim_rate_x": rates,
              "unscaled": raw, "traced_wall_s": traced.wall_s, "trace_spans": len(tracer)}
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write_csv(work / "spans.csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
