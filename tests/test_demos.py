"""Each demo script runs to the end and prints its key result."""

import runpy
from pathlib import Path

from powergap.strategies import StrategyKind

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def demo_output(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"))["main"]()
    return capsys.readouterr().out.splitlines()


def test_transmission_gate(capsys):
    lines = demo_output("transmission_gate", capsys)
    gated = [line for line in lines if line.startswith("gate on")]
    assert len(gated) == 1 and "brownouts=0 " in gated[0]


def test_ota_fault_injection(capsys):
    lines = demo_output("ota_fault_injection", capsys)
    assert len(lines) == 3
    assert all(line.endswith("new image active=True") for line in lines)


def test_voltage_drops_within_one_percent(capsys):
    header, *rows = demo_output("voltage_drops", capsys)
    assert header.split()[-2:] == ["error", "%"]
    assert len(rows) == 7
    assert all(float(row.split()[-1]) < 1.0 for row in rows)


def test_strategy_comparison(capsys):
    header, *rows = demo_output("strategy_comparison", capsys)
    assert header.split()[0] == "strategy"
    assert [row.split()[0] for row in rows] == [k.value for k in StrategyKind]
    assert all(int(row.split()[1]) > 0 for row in rows)  # each delivered records


def test_each_demo_has_a_test():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == [
        "ota_fault_injection", "strategy_comparison", "transmission_gate",
        "voltage_drops"]
