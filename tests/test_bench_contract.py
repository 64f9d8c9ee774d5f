"""What `bench/tracing.py` relies on in powergap.

The benchmark finds its layer boundaries by name and skips one that is
gone, so a renamed boundary would read 0 there without failing.  These
tests load `bench/tracing.py` as it is and check that every boundary
still resolves and that one traced `run` completes with its counters.
"""

import importlib.resources
import importlib.util
from pathlib import Path

import pytest

import powergap.cli
from powergap.scenario import load_scenario
from powergap.track_world import run_scenario

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_resolves(tracing):
    for span, cls_name, method, _ in tracing.METHODS:
        cls = tracing.find(cls_name)
        assert isinstance(cls, type) and method in vars(cls), span
    for span, func_name, _ in tracing.FUNCTIONS:
        assert callable(tracing.find(func_name)), span
    assert tracing._classes_defining("tick", base="Driver")
    assert tracing._classes_defining("send_frame")


def test_traced_run_counts_rows_and_bytes(tracing, tmp_path):
    path = importlib.resources.files("powergap") / "scenarios" / "gap_aligned_c160.scn"
    rows = len(run_scenario(load_scenario(path).build()).trace)
    tracer, patches = tracing.Tracer(), tracing.Patches()
    tracing.install_spans(tracer, patches)
    try:
        status = powergap.cli.main(["run", str(path), "--out", str(tmp_path)])
    finally:
        patches.restore()
    assert status == powergap.cli.EXIT_OK
    assert tracer.counts["trace_rows"] == rows > 0
    written = sum(p.stat().st_size for p in tmp_path.glob("*.csv"))
    assert tracer.counts["emit_bytes"] == written > 0
    assert tracing.SpanStats(tracer).violations == 0
