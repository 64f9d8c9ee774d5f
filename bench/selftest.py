"""Self-test of the benchmark's generator, checks and spans.

    python3 bench/selftest.py

Every output check must pass on real outputs and fail on a deliberately
wrong one; the spans of a traced pass must nest with no negative self
time, and a broken span set must be caught.  Scenarios are the generated
ones, shortened so the test takes seconds.  Exit status 1 on any failure.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import checks
import run
import tracing
import workloads

#: Simulated seconds per scenario at most; long enough for deliveries.
SHORT_DURATION = 3.0
failures: list[str] = []


def expect(condition: bool, label: str) -> None:
    print(("ok    " if condition else "FAIL  ") + label)
    if not condition:
        failures.append(label)


def shortened(workload: str, seed: int, directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in workloads.generate(workload, seed).items():
        path = directory / f"{name}.scn"
        duration = float(re.search(r"(?m)^duration = (.*)$", text).group(1))
        path.write_text(re.sub(r"(?m)^duration = .*$",
                               f"duration = {min(duration, SHORT_DURATION)}", text))
        paths.append(path)
    return paths


def test_generator() -> None:
    powergap = sys.modules["powergap"]
    for workload in workloads.GENERATORS:
        default = workloads.generate(workload, workloads.DEFAULT_SEED)
        again = workloads.generate(workload, workloads.DEFAULT_SEED)
        held_out = workloads.generate(workload, workloads.HELD_OUT_SEED)
        expect(default == again, f"{workload}: same seed, same scenario text")
        expect(default != held_out, f"{workload}: another seed, other text")
        for texts in (default, held_out):
            for name, text in texts.items():
                cfg = powergap.parse_scenario(text, name).build()
                expect(cfg.duration > 0, f"{workload}: {name} parses and builds")
        layout = powergap.parse_scenario(next(iter(default.values()))).build().layout
        unpowered = sum(e - s for s, e in layout.gaps) / layout.total_length
        if workload == "gapstorm":
            expect(unpowered >= 0.20, f"gapstorm: {unpowered:.1%} of the path unpowered")


def test_run_checks(work: Path) -> None:
    powergap = sys.modules["powergap"]
    for workload in ("drive", "flood"):
        path = shortened(workload, workloads.DEFAULT_SEED, work / "scn")[-1]
        sim = powergap.Simulation(powergap.load_scenario(path).build())
        sim.run()
        expect(checks.check_run(sim) == [], f"{workload}: real run passes check_run")

        store = sim.store
        store.appended += 1
        expect(checks.check_run(sim) != [], "lost record breaks conservation")
        store.appended -= 1

        saved = sim.delivered_records
        sim.delivered_records = store.appended + 1
        expect(checks.check_run(sim) != [], "delivered > appended is caught")
        sim.delivered_records = saved

        saved = sim.requests_answered
        sim.requests_answered = sim.requests_arrived + 1
        expect(checks.check_run(sim) != [], "answered > arrived is caught")
        sim.requests_answered = saved

        presented = sim.host.presented
        expect(len(presented) > 1, f"{workload}: host was presented records")
        if presented:
            presented.append(presented[0])
            expect(checks.check_run(sim) != [], "seq presented twice is caught")
            presented.pop()
            presented.insert(0, presented[-1])
            expect(checks.check_run(sim) != [], "seq out of order is caught")
            presented.pop(0)
        expect(checks.check_run(sim) == [], f"{workload}: restored run passes again")


def test_passes_and_spans(work: Path) -> None:
    for workload in workloads.GENERATORS:
        paths = shortened(workload, workloads.DEFAULT_SEED, work / workload / "scn")
        out = work / workload / "out"
        reference = run.run_pass(run.pass_argv(workload, paths, out), out)
        expect(reference.failed == 0 and not reference.problems,
               f"{workload}: reference pass passes its checks")
        tracer = tracing.Tracer()
        traced_out = work / workload / "traced"
        traced = run.run_pass(run.pass_argv(workload, paths, traced_out), traced_out,
                              reference.digests, tracer=tracer)
        expect(traced.failed == 0, f"{workload}: traced outputs are byte-identical")
        expect(traced.host_s > 0, f"{workload}: run_scenario is timed under tracing")
        stats = tracing.SpanStats(tracer)
        expect(len(tracer) > 0 and stats.violations == 0,
               f"{workload}: {len(tracer)} spans nest, no negative self time")
        expect(min(stats.self_s.values()) >= -tracing.NEST_TOLERANCE_S,
               f"{workload}: every self time is >= 0")
        if workload == "drive":
            expect(stats.calls["energy_model.discharge_current"] > 0,
                   "discharge_current traced where track_world imports it")
            expect(stats.calls["transports.crc16_ccitt"] > stats.calls["transports.frame_encode"],
                   "crc16_ccitt traced where log_store imports it")

        victim = sorted(traced_out.iterdir())[0]
        data = bytearray(victim.read_bytes())
        data[-2] ^= 0x01
        victim.write_bytes(bytes(data))
        expect(checks.check_outputs(reference.digests, checks.digest_dir(traced_out)) != [],
               f"{workload}: a flipped output byte is caught")
        victim.unlink()
        expect(checks.check_outputs(reference.digests, checks.digest_dir(traced_out)) != [],
               f"{workload}: a missing output file is caught")

        child = next(i for i in range(len(tracer)) if tracer.parent[i] >= 0)
        tracer.end[child] = tracer.end[tracer.parent[child]] + 1.0
        expect(tracing.SpanStats(tracer).violations > 0,
               f"{workload}: a child span outliving its parent is caught")

    expect(not hasattr(tracing.find("discharge_current"), "__wrapped__")
           and sys.modules["powergap.track_world"].discharge_current
           is tracing.find("discharge_current"),
           "patches are undone after a traced pass")


def test_scaling() -> None:
    expect(run.scale(0.5, run.PROBE_S, run.PROBE_S) == 0.5,
           "a timing at full probe speed is not rescaled")
    expect(abs(run.scale(0.5, 2 * run.PROBE_S, 2 * run.PROBE_S) - 0.25) < 1e-12,
           "a timing at half probe speed is halved")
    expect(run.probe() > 0, "the speed probe takes time")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.import_powergap()
    work = run.OUT / "selftest"
    run.shutil.rmtree(work, ignore_errors=True)
    test_scaling()
    test_generator()
    test_run_checks(work)
    test_passes_and_spans(work)
    print(f"{len(failures)} failure(s)" if failures else "all checks behave")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
