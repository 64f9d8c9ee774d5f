"""Golden corpus: pinned SHA-256 digests of every shipped output.

The corpus is the trace, events and metrics CSVs of every shipped
scenario, `table1.csv`, and one comparison CSV per `compare` run in
`COMPARES`: the reference workload over all four strategies, with and
without the transmission gate; the dockless gap-aligned case over the
three strategies that need no dock, with and without the gate; and
`FLOOD`, a lossy high-rate workload with host requests whose flash
quota forces eviction.  A digest mismatch means the simulator's
output changed.  Rewrite the digests with `python3 tests/regen_golden.py`
only when the change is intended, and name each changed file and the
reason in CHANGES.md.
"""

import contextlib
import hashlib
import importlib.resources
import io
from pathlib import Path

from powergap.cli import EXIT_OK, main

GOLDEN = {
    "compare.csv": "7a121d5ecb7a846259e4854a75c4017795e0970667a49d59cfd2e66b9bf321a2",
    "compare_flood.csv": "4a89cd6a343bbacd4dc04cff7b381833a96bf140d4d9d4b12ab0e4cc0f607be6",
    "compare_gap_aligned_c160.csv": "7fd8f4f3f263bf6809b95df6aeeadedc2ae2dcc704bd0f4f51dc936b56a18d56",
    "compare_gap_aligned_c160_controller.csv": "c89ed52101f4deef0cedf56cba711a7a2a350b69850c78a9c30dae8dde868dbe",
    "compare_reference_controller.csv": "7a121d5ecb7a846259e4854a75c4017795e0970667a49d59cfd2e66b9bf321a2",
    "gap_aligned_c160_events.csv": "e6dbe96537f0c6259fd061dc7d2e22d32fdfc1b9cf3ca847e5a742827f6b9f8e",
    "gap_aligned_c160_metrics.csv": "49eead1ee2cf069840138a652bd4d4113d6b8b936128c7e7037a30d24e9419b3",
    "gap_aligned_c160_trace.csv": "d7847abfed920f6a3be3da29465c34def2527462768742c324c066fc12d43b06",
    "reference_workload_events.csv": "70bf83757f52283c013a52e003dc848448d5d8394df05faeaf1db7185e579a44",
    "reference_workload_metrics.csv": "4008aa1ef0454feaafbce474b6ac112a858fd3050fd4e8f75240ae1f25215f89",
    "reference_workload_trace.csv": "340a55aebe23b9b9eab5f89b788597dc513144e28edc114b8e1c6cd370f0230d",
    "table1.csv": "0c2b96cd1cd5ef0666758e6db9f5776510e750f370ab45ee8958ab8f9708ea1b",
    "table1_c160_idle_events.csv": "e24045feef00bac608542898d1fbba59bdefeb8c3486f6f088fc3cd909536d2f",
    "table1_c160_idle_metrics.csv": "d0f7844e9d84486e5ef999b497dfcc6eb7fdcb012789821643daa97f8b7f70ad",
    "table1_c160_idle_trace.csv": "d59295d59254db73034b9a1d40e3eb1a0ed13a690f44cebfa6fcc50ddbdc1f6c",
    "table1_c160_off_events.csv": "e24045feef00bac608542898d1fbba59bdefeb8c3486f6f088fc3cd909536d2f",
    "table1_c160_off_metrics.csv": "ae28ed1fb57fdfc7923785333c776c8f22f4aa57d54a03778d6a9dde541cf5b5",
    "table1_c160_off_trace.csv": "2eef71831eedc38de033f601bd53d1e5cc0880dce3fa7b5a87e4f2744f3b9e53",
    "table1_c160_tx_events.csv": "e24045feef00bac608542898d1fbba59bdefeb8c3486f6f088fc3cd909536d2f",
    "table1_c160_tx_metrics.csv": "1266fd0719dfb39a5db679bf9c786c7fc5a5ee465a4e2e857e0b21cbb3a5eac4",
    "table1_c160_tx_trace.csv": "09dcdcebcb8a192d931b9fb726998fbda48890ca516b9dcf3016956234635a82",
    "table1_c240_idle_events.csv": "ad4e680cb61848c29e3d3e861d1fa554a8160644c34d912f4e5259d9b2f5baca",
    "table1_c240_idle_metrics.csv": "155d362594720bbd9306d6c67bd86713120d06d47dbbf4122ac364d33302c2de",
    "table1_c240_idle_trace.csv": "3aae007f29bca5d4708bc5cbd3c7de412cda03c10e87ebb0bb07d5dc13410c90",
    "table1_c240_off_events.csv": "e24045feef00bac608542898d1fbba59bdefeb8c3486f6f088fc3cd909536d2f",
    "table1_c240_off_metrics.csv": "84add6c1f2653e32bbaf8afb75d3feed84c21b73b9edcb33fad72a2f66a9b2d7",
    "table1_c240_off_trace.csv": "9734fa2470841be7ae46b5250af03edf69c4b82c94a4e6d98486d9e5c1bcd39c",
    "table1_c240_tx_events.csv": "ad4e680cb61848c29e3d3e861d1fa554a8160644c34d912f4e5259d9b2f5baca",
    "table1_c240_tx_metrics.csv": "155d362594720bbd9306d6c67bd86713120d06d47dbbf4122ac364d33302c2de",
    "table1_c240_tx_trace.csv": "3aae007f29bca5d4708bc5cbd3c7de412cda03c10e87ebb0bb07d5dc13410c90",
    "table1_c80_idle_events.csv": "e24045feef00bac608542898d1fbba59bdefeb8c3486f6f088fc3cd909536d2f",
    "table1_c80_idle_metrics.csv": "6be0993b6888ea1112173ca1f2f106ed25b0b48b4a4e4ea209d33fbaf49e433a",
    "table1_c80_idle_trace.csv": "c78647dfa3078beab7efee4cf8448c21309df3af3e798ca84c417953289a470f",
    "table1_c80_off_events.csv": "e24045feef00bac608542898d1fbba59bdefeb8c3486f6f088fc3cd909536d2f",
    "table1_c80_off_metrics.csv": "abde00fa438a5db2219ec364e10223ce9cba41e78ef31e81209ac19b63827e99",
    "table1_c80_off_trace.csv": "84744672be146a3687a36404341b5a9f4f61ff29ffdb82c9cf8bd6f0ee4e7afe",
    "table1_c80_tx_events.csv": "e24045feef00bac608542898d1fbba59bdefeb8c3486f6f088fc3cd909536d2f",
    "table1_c80_tx_metrics.csv": "14d445556a4408f182686b270e87495ae74c200d07c0fe0526db5dd86904b31a",
    "table1_c80_tx_trace.csv": "f3ea0e8dff6801cfdbf284534c12ce2573723a0f056df951eb645737605b6629",
}


FLOOD = """\
[track]
segments = straight:0.51 lanechange:0.48:0.09:0.36 straight:0.51
dock_position = 0.20

[strategy]
drain_interval = 0.4

[schedule]
requests = 0.1,0.35,0.6,0.9,1.3,1.7

[workload]
rate = 400
payload_size = 200

[wireless]
connect_latency = 0.15
loss_rate = 0.05

[run]
duration = 2.0
seed = 5
flash_capacity = 8000
"""

DOCKLESS = "stop_and_radio,powerline_continuous,wireless_continuous"

#: pinned file name -> (scenario name or "flood", extra `compare` arguments)
COMPARES = {
    "compare.csv": ("reference_workload", []),
    "compare_reference_controller.csv": ("reference_workload", ["--controller"]),
    "compare_gap_aligned_c160.csv": ("gap_aligned_c160", ["--strategies", DOCKLESS]),
    "compare_gap_aligned_c160_controller.csv": (
        "gap_aligned_c160", ["--strategies", DOCKLESS, "--controller"]),
    "compare_flood.csv": ("flood", []),
}


def _main(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        status = main(argv)
    if status != EXIT_OK:
        raise RuntimeError(f"powergap {argv[0]} exited {status}")


def produce(out: Path) -> dict[str, str]:
    """Write the golden corpus into `out`; SHA-256 hex digest per file name."""
    root = importlib.resources.files("powergap") / "scenarios"
    shipped = {p.name[: -len(".scn")]: str(p) for p in root.iterdir()
               if p.name.endswith(".scn")}
    _main(["run", *sorted(shipped.values()), "--out", str(out)])
    _main(["table1", "--out", str(out)])
    stage = out / "stage"
    stage.mkdir()
    (stage / "flood.scn").write_text(FLOOD)
    scenarios = {**shipped, "flood": str(stage / "flood.scn")}
    # every compare writes compare.csv; each is moved to its pinned name
    for name, (scenario, extra) in COMPARES.items():
        _main(["compare", scenarios[scenario], *extra, "--out", str(stage)])
        (stage / "compare.csv").replace(out / name)
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.glob("*.csv"))
    }


def test_outputs_match_golden_digests(tmp_path):
    got = produce(tmp_path)
    differing = sorted(
        name for name in GOLDEN.keys() | got.keys() if GOLDEN.get(name) != got.get(name)
    )
    assert not differing, (
        f"{len(differing)} output file(s) differ from the golden corpus: "
        f"{', '.join(differing)}. Run `python3 tests/regen_golden.py` only if "
        "these changes are intended, and name each changed file and why in "
        "CHANGES.md."
    )
