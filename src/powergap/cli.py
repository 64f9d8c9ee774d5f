"""Batch front-end.

Subcommands:
  run      simulate scenario files, emitting trace/events/metrics CSVs
  compare  run one workload under several strategies, emit a comparison CSV
  table1   run the shipped table1_<state>.scn files, check their drops

Exit codes: 0 ok, 1 suite mismatch, 2 scenario or I/O error, 3 brownout
with --fail-on-brownout.  Outputs go to --out, by default the current
directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .energy_model import MEASURED_DROPS, ConfigError, PowerState
from .scenario import ScenarioError, load_scenario, parse_scenario
from .strategies import StrategyKind
from .track_world import (
    ScenarioConfig,
    evaluate_strategies,
    events_to_csv,
    run_scenario,
    write_comparison_csv,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_VALIDATION = 2
EXIT_BROWNOUT = 3

#: a scenario that cannot be read or is refused, or an unwritable output
_USER_ERRORS = (ScenarioError, ConfigError, OSError, UnicodeDecodeError)


def _out_dir(flag_value: str) -> Path:
    path = Path(flag_value)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _out_error(exc: OSError) -> int:
    """Report an output directory that cannot be made or written."""
    print(f"error: output directory: {exc}", file=sys.stderr)
    return EXIT_VALIDATION


def _write_atomic(path: Path, content: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        tmp.write_text(content)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


class _Pieces(list):
    """A text sink whose value is one join of what was written to it.
    `io.StringIO.getvalue()` on CPython 3.12 and later also copies the
    text back into the buffer, with room to spare."""

    write = list.append


def _run_one(cfg: ScenarioConfig, out: Path) -> int:
    """Simulate `cfg` and write its trace, events and metrics CSVs, in
    that order; returns its brownout count.

    The trace text is the largest thing a run makes, so the run is let go
    of before that text is made whole: the pass then peaks at about twice
    the text, not twice the text plus the run's state."""
    result = run_scenario(cfg)
    brownouts = result.metrics.brownout_count
    events, metrics, pieces = io.StringIO(), io.StringIO(), _Pieces()
    events_to_csv(result.events, events)
    result.metrics.write_csv(metrics)
    trace = result.trace
    del result
    trace.write_csv(pieces)
    del trace
    text = "".join(pieces)
    del pieces
    _write_atomic(out / f"{cfg.name}_trace.csv", text)
    _write_atomic(out / f"{cfg.name}_events.csv", events.getvalue())
    _write_atomic(out / f"{cfg.name}_metrics.csv", metrics.getvalue())
    return brownouts


def cmd_run(args: argparse.Namespace) -> int:
    # each file's outputs are named by its stem alone
    by_stem: dict[str, str] = {}
    for path in args.scenario:
        stem = Path(path).stem
        if stem in by_stem:
            print(f"error: {by_stem[stem]} and {path} would both write {stem}_*.csv",
                  file=sys.stderr)
            return EXIT_VALIDATION
        by_stem[stem] = path
    try:
        out = _out_dir(args.out)
    except OSError as exc:
        return _out_error(exc)
    status = EXIT_OK
    for path in args.scenario:
        try:
            cfg = load_scenario(path).build(args.seed)
        except _USER_ERRORS as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        try:
            brownouts = _run_one(cfg, out)
        except OSError as exc:
            return _out_error(exc)
        print(f"{cfg.name}: brownouts={brownouts}")
        if args.fail_on_brownout and brownouts > 0:
            status = EXIT_BROWNOUT
    return status


def cmd_compare(args: argparse.Namespace) -> int:
    kinds = []
    for token in args.strategies.split(","):
        token = token.strip()
        try:
            kinds.append(StrategyKind(token))
        except ValueError:
            print(
                f"error: unknown strategy {token!r} "
                f"(choose from {[k.value for k in StrategyKind]})",
                file=sys.stderr,
            )
            return EXIT_VALIDATION
    try:
        cfg = load_scenario(args.workload).build(args.seed, kinds)
        if args.controller:
            cfg.controller = True
        rows = evaluate_strategies(cfg, kinds)
    except _USER_ERRORS as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    buf = io.StringIO()
    write_comparison_csv(rows, buf)
    sys.stdout.write(buf.getvalue())
    try:
        _write_atomic(_out_dir(args.out) / "compare.csv", buf.getvalue())
    except OSError as exc:
        return _out_error(exc)
    return EXIT_OK


def run_table1_suite() -> list[tuple[PowerState, float, float]]:
    """Measured-vs-simulated max drop per calibrated power state, each run
    from its shipped `table1_<state>.scn`."""
    import importlib.resources  # loads inspect and tempfile: only table1 reads it
    scenarios = importlib.resources.files(__package__) / "scenarios"
    rows = []
    for state, expected in sorted(
        MEASURED_DROPS.items(), key=lambda kv: (kv[0].clock.value, kv[0].radio.value)
    ):
        name = f"table1_{state}"
        spec = parse_scenario((scenarios / f"{name}.scn").read_text(), name)
        rows.append((state, expected, run_scenario(spec.build()).metrics.max_drop_v))
    return rows


def _percentage(text: str) -> float:
    """A `--tolerance` value: a finite percentage, 0 or more."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"not a finite percentage >= 0: {text!r}")
    return value


def cmd_table1(args: argparse.Namespace) -> int:
    tolerance = args.tolerance / 100.0
    rows = run_table1_suite()
    status = EXIT_OK
    lines = ["state,expected_v,simulated_v,status"]
    for state, expected, got in rows:
        ok = abs(got - expected) <= tolerance * expected
        verdict = "PASS" if ok else "FAIL"
        print(f"{state}: expected {expected:.6f} V, simulated {got:.6f} V  {verdict}")
        lines.append(f"{state},{expected:.6f},{got:.6f},{verdict}")
        if not ok:
            status = EXIT_MISMATCH
    try:
        _write_atomic(_out_dir(args.out) / "table1.csv", "\n".join(lines) + "\n")
    except OSError as exc:
        return _out_error(exc)
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powergap",
        description="Deterministic intermittent-power debug-log transport simulator",
    )
    parser.add_argument(
        "--version", action="version", version=f"powergap {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate scenario files")
    p_run.add_argument("scenario", nargs="+", help="scenario .scn file(s)")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.add_argument("--fail-on-brownout", action="store_true")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare strategies on one workload")
    p_cmp.add_argument("workload", help="workload .scn file")
    p_cmp.add_argument("--strategies",
                       default=",".join(k.value for k in StrategyKind),
                       help="comma-separated strategy names (default: all)")
    p_cmp.add_argument("--controller", action="store_true",
                       help="enable the energy-budget transmission gate")
    p_cmp.add_argument("--out", default=".")
    p_cmp.add_argument("--seed", type=int, default=None)
    p_cmp.set_defaults(func=cmd_compare)

    p_t1 = sub.add_parser("table1", help="reproduce the voltage-drop table")
    p_t1.add_argument("--tolerance", type=_percentage, default=1.0,
                      help="allowed relative error in percent")
    p_t1.add_argument("--out", default=".")
    p_t1.set_defaults(func=cmd_table1)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
