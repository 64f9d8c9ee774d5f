"""A checked-in mutation corpus: small faults in `src/` the tests must catch.

Each mutant replaces one exact text, found once in its file, and names
the tests expected to catch it.  Run as a script, it first runs every
named test on an unchanged copy of `src/`, then, for each mutant, applies
it to a fresh temporary copy and runs its tests with `-x` against that
copy.  A mutant is caught when its tests fail, or when they run past
TIMEOUT_S (a mutant that makes a loop spin); it survives when they
pass.  Each run's address space is capped at MEMORY_B, since a loop
that spins may also allocate, faster than the timeout would end it.
The script exits 1 if any mutant survives, and 2 if the tests fail or
time out unmutated or cannot be run.

    python3 tests/mutants.py

`tests/test_mutants.py` checks in tier-1 only that each old text still
occurs exactly once, so an edit to `src/` cannot leave a mutant behind,
and that each named test still exists, so a renamed test cannot either.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
#: Seconds one pytest run may take; each mutant's tests take a few.
TIMEOUT_S = 120
#: Bytes of address space one pytest run may take.
MEMORY_B = 2 << 30


@dataclass(frozen=True)
class Mutant:
    """`old` in `path` (relative to the repo root) becomes `new`."""

    id: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # the record CRC's header packed little-endian; the independent CRC
    # oracle and its known answer see it
    Mutant(
        "crc_layout",
        "src/powergap/log_store.py",
        'struct.Struct(">IdBB")',
        'struct.Struct("<IdBB")',
        ("tests/test_log_store.py::TestPrimitives::test_crc_known_answer",
         "tests/test_log_store.py::TestAppend::test_crc_valid_on_construction"),
    ),
    # the record CRC's header with every severity packed as 0; a record
    # whose severity changes keeps its CRC
    Mutant(
        "crc_ignores_severity",
        "src/powergap/log_store.py",
        "severity._value_",
        "0",
        ("tests/test_log_store.py::TestPrimitives::test_crc_known_answer",
         "tests/test_log_store.py::TestPrimitives"
         "::test_tampered_record_fails_crc[severity-Severity.ERROR]"),
    ),
    # a flush that evicts at most one flash record per record it writes;
    # records of one size never need more, mixed sizes overrun the quota
    Mutant(
        "flush_evicts_one",
        "src/powergap/log_store.py",
        "while stored + size > capacity:",
        "if stored + size > capacity:",
        ("tests/test_log_store.py::TestInvariants::test_conservation_and_ordering",),
    ),
    # one slot too many per powerline frame
    Mutant(
        "powerline_slots_off_by_one",
        "src/powergap/transports.py",
        "return 1 + -(-n_bytes * 8 // SLOT_BITS)",
        "return 2 + -(-n_bytes * 8 // SLOT_BITS)",
        ("tests/test_transports.py::TestPowerlineCodec"
         "::test_slot_count_is_the_encoded_frame_length",),
    ),
    # a powerline frame longer than its one-slot length header can count
    Mutant(
        "powerline_pack_unbounded",
        "src/powergap/transports.py",
        "if len(data) > MAX_PACKED_BYTES:",
        "if False:",
        ("tests/test_transports.py::TestPowerlineCodec"
         "::test_longest_input_packs_and_one_more_byte_is_refused",),
    ),
    # the quiet stretch's gap branch with the default capacitance built in;
    # the golden corpus runs at that default and passes
    Mutant(
        "stretch_fixed_capacitance",
        "src/powergap/track_world.py",
        "v1 = v - current * ((end - x) / speed) / capacitance",
        "v1 = v - current * ((end - x) / speed) / 1.0e-3",
        ("tests/test_metamorphic.py::test_scaling_capacitance_and_currents_changes_no_output",),
    ),
    # the quiet stretch's gap discharge without the driver's extra current
    Mutant(
        "stretch_ignores_extra_current",
        "src/powergap/track_world.py",
        "current = params.current(car.power_state) + self.extra_current",
        "current = params.current(car.power_state)",
        ("tests/test_golden.py::test_outputs_match_golden_digests",),
    ),
    # a quiet stretch that leaves the full step's dock flag set; a tick
    # inside it, or the run's end, sees a crossing that did not happen
    Mutant(
        "stretch_keeps_dock_flag",
        "src/powergap/track_world.py",
        "        self.crossed_dock = False\n        if powered:\n",
        "        if powered:\n",
        ("tests/test_track_world.py::test_stretches_match_plain_loop_on_shipped_scenarios"
         "[reference_workload.scn-save_and_print_later-gate_off]",
         "tests/test_golden.py::test_outputs_match_golden_digests"),
    ),
    # a run's end half a step past its last step, so it runs one more
    Mutant(
        "run_end_a_step_late",
        "src/powergap/track_world.py",
        "self._end = (round(cfg.duration / cfg.dt) - 0.5) * cfg.dt",
        "self._end = (round(cfg.duration / cfg.dt) + 0.5) * cfg.dt",
        ("tests/test_track_world.py::test_run_end_lies_between_the_last_two_steps",
         "tests/test_track_world.py::test_run_ending_inside_a_gap_keeps_the_stretch_minimum"),
    ),
    # the exact sum of dt blind to a tie on an odd sum; no shipped step
    # size meets one, so only the sum's own property sees it
    Mutant(
        "summed_ignores_ties",
        "src/powergap/track_world.py",
        "if r % 1 == 0.5 and s / u % 2 or room <= q:",
        "if room <= q:",
        ("tests/test_track_world.py::test_summed_is_the_running_sum",),
    ),
    # a powered stretch that drops the radio-on steps of its last segment
    Mutant(
        "radio_count_drops_last_segment",
        "src/powergap/track_world.py",
        "n += 1\n            self.radio_steps += (n - mark) * radio_on\n",
        "n += 1\n",
        ("tests/test_track_world.py::test_stretches_match_plain_loop_on_shipped_scenarios"
         "[gap_aligned_c160.scn-wireless_continuous-gate_off]",),
    ),
    # a backlog sample handed to `_due_step` while the device reboots,
    # which then ticks a driver that `step` leaves alone
    Mutant(
        "backlog_ticks_while_rebooting",
        "src/powergap/track_world.py",
        "hard = min(hard, self._next_backlog_at)",
        "pass",
        ("tests/test_track_world.py::test_stretches_match_plain_loop_on_shipped_scenarios"
         "[gap_aligned_c160.scn-wireless_continuous-gate_off]",
         "tests/test_golden.py::test_outputs_match_golden_digests"),
    ),
    # a powered step that keeps the gap's drop: the capacitor never
    # recharges, which the stretch's powered entry takes for granted
    Mutant(
        "powered_step_keeps_its_drop",
        "src/powergap/track_world.py",
        "cfg.params.nominal_voltage if powered else v_mid",
        "v_mid",
        ("tests/test_track_world.py::test_powered_track_holds_the_nominal_voltage",),
    ),
    # a powered row that folds the gap crossing before it into a nominal run
    Mutant(
        "powered_row_swallows_a_crossing",
        "src/powergap/track_world.py",
        "if runs and type(runs[-1][2]) is not list:",
        "if runs:",
        ("tests/test_track_world.py::test_trace_keeps_one_run_per_crossing",
         "tests/test_track_world.py::TestRecharge::test_every_crossing_starts_at_the_nominal_voltage"),
    ),
    # powered rows that never merge: the plain loop then leaves a run per
    # row, and a stretch one run per stretch
    Mutant(
        "powered_rows_never_merge",
        "src/powergap/track_world.py",
        "n += runs.pop()[0]",
        "pass",
        ("tests/test_track_world.py::TestRecharge::test_every_crossing_starts_at_the_nominal_voltage",
         "tests/test_track_world.py::test_trace_rows_follow_its_runs_on_the_dt_sum"),
    ),
    # a gap row that extends its crossing's run without its voltage
    Mutant(
        "gap_row_left_out_of_its_run",
        "src/powergap/track_world.py",
        "caps.append(v_mid)",
        "pass",
        ("tests/test_track_world.py::test_trace_keeps_one_run_per_crossing",),
    ),
    # a stretch that enters a gap with the car standing, and divides by its
    # zero speed
    Mutant(
        "stretch_enters_standing_gap",
        "src/powergap/track_world.py",
        "not (powered or speed)",
        "False",
        ("tests/test_track_world.py::test_car_stopped_in_a_gap_falls_back_to_step",),
    ),
    # a brownout that keeps the radio mode: the device then counts radio
    # time while it reboots, in `step` and in a stretch alike
    Mutant(
        "brownout_keeps_radio",
        "src/powergap/track_world.py",
        "_POWER_STATES[self.cfg.initial_state.clock, RadioMode.OFF]",
        "_POWER_STATES[self.cfg.initial_state.clock, self.car.power_state.radio]",
        ("tests/test_track_world.py::test_radio_is_off_while_the_device_reboots",),
    ),
    # a radio switch that drops the car to 80 MHz, whatever its clock
    Mutant(
        "radio_switch_ignores_clock",
        "src/powergap/track_world.py",
        "_POWER_STATES[self.car.power_state.clock, mode]",
        "_POWER_STATES[ClockTier.C80, mode]",
        ("tests/test_golden.py::test_outputs_match_golden_digests",),
    ),
    # the gate looks ahead a fixed 3 m/s, whatever the car's speed
    Mutant(
        "gate_horizon_speed_blind",
        "src/powergap/strategies.py",
        "horizon = car.speed * budget.lookahead",
        "horizon = 3.0 * budget.lookahead",
        ("tests/test_metamorphic.py::test_scaling_lengths_and_speed_changes_no_time[0.25]",),
    ),
    # a pending request answered only once no record waits, not first
    Mutant(
        "reply_waits_behind_records",
        "src/powergap/strategies.py",
        "if sim.requests_answered < sim.requests_arrived:",
        "if sim.requests_answered < sim.requests_arrived and not sim.store.flash:",
        ("tests/test_strategies.py::test_pump_sends_the_record_it_picked",
         "tests/test_golden.py::test_outputs_match_golden_digests"),
    ),
    # a step's rails taken where it starts, not where it ends
    Mutant(
        "in_gap_at_step_start",
        "src/powergap/track_world.py",
        "in_gap = layout.in_gap(car.position)",
        "in_gap = layout.in_gap(x0)",
        ("tests/test_acceptance.py::test_voltage_drop_table_within_one_percent",),
    ),
    # the trace's micro time source chosen by the rounding bound alone,
    # though a `dt` off whole microseconds drifts the running sum away
    Mutant(
        "csv_micro_step_ignores_drift",
        "src/powergap/energy_model.py",
        "return m if rounding + drift < q * b else 0",
        "return m if rounding < q * b else 0",
        ("tests/test_track_world.py::test_csv_micro_step_picks_the_writer",
         "tests/test_track_world.py::test_trace_csv_follows_a_drifting_sum"),
    ),
    # a per-row run's later pieces printed with its first voltages again;
    # the golden runs' crossings fit in one block, the bench's drive does not
    Mutant(
        "per_row_slice_restarts",
        "src/powergap/energy_model.py",
        "tuple(cap[i:i + take])",
        "tuple(cap[:take])",
        ("tests/test_track_world.py::test_trace_csv_at_chunk_edges",
         "tests/test_track_world.py::test_trace_csv_long_runs[per_row_run]"),
    ),
    # a full step in a gap that begins a run of its own, not extending its
    # crossing's; every output stays the same
    Mutant(
        "gap_row_opens_a_run",
        "src/powergap/track_world.py",
        "if type(caps) is list:",
        "if False:",
        ("tests/test_track_world.py::test_trace_keeps_one_run_per_crossing",
         "tests/test_track_world.py::test_stretches_match_plain_loop_on_shipped_scenarios"
         "[gap_aligned_c160.scn-none-gate_off]"),
    ),
    # a key with nothing after `=` taken as a value; each key's own parse
    # then refuses it in other words, or a word key falls back to its default
    Mutant(
        "empty_value_accepted",
        "src/powergap/scenario.py",
        "if not value:",
        "if False:",
        ("tests/test_scenario_cli.py::TestRejectionCorpus"
         "::test_single_fault_message[empty_value]",),
    ),
    # a straight or curve segment that keeps the gap offsets it was given
    Mutant(
        "plain_segment_keeps_gaps",
        "src/powergap/track_world.py",
        "elif self.gap_offsets:",
        "elif False:",
        ("tests/test_track_world.py::TestLayout"
         "::test_plain_segment_carries_no_gaps[straight]",),
    ),
    # `run` keeping the run's per-row voltages and events alive while the
    # trace text is made whole and written; every output stays the same
    Mutant(
        "run_held_through_trace_write",
        "src/powergap/cli.py",
        "    del result\n",
        "",
        ("tests/test_scenario_cli.py::TestCliRun"
         "::test_run_is_let_go_of_before_its_trace_text_is_made",),
    ),
    # a comparison that refuses the file's own strategy though it does not
    # run it: a dockless save_and_print_later file, compared without it
    Mutant(
        "compare_checks_unrun_strategy",
        "src/powergap/scenario.py",
        "(cfg if cfg.strategy in runs else replace(cfg, strategy=None)).validate()",
        "cfg.validate()",
        ("tests/test_scenario_cli.py::TestCliCompare"
         "::test_dockless_own_strategy_not_compared_runs",),
    ),
)


def run_tests(mutant: Optional[Mutant], tests: list[str]) -> Optional[int]:
    """pytest's exit code for `tests` against a copy of `src/` with
    `mutant` applied (none: unchanged), or None past TIMEOUT_S."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "src", Path(tmp) / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            target = Path(tmp) / mutant.path
            text = target.read_text()
            if text.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.id}: old text must occur once in {mutant.path}")
            target.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            return subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, timeout=TIMEOUT_S,
                preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (MEMORY_B, MEMORY_B)),
            ).returncode
        except subprocess.TimeoutExpired:
            return None


def main() -> int:
    if run_tests(None, sorted({t for m in MUTANTS for t in m.tests})) != 0:
        print("the mutants' tests fail, time out or do not run on unchanged code",
              file=sys.stderr)
        return 2
    status = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        code = run_tests(mutant, list(mutant.tests))
        # pytest exits 1 when a test fails; other codes mean it did not run them
        verdict = {0: "SURVIVED", 1: "caught", None: "TIMEOUT"}.get(
            code, f"ERROR (pytest exit {code})")
        print(f"{verdict:<10} {mutant.id}  {time.perf_counter() - start:.1f} s")
        if code == 0:
            status = max(status, 1)
        elif code not in (1, None):
            status = 2
    return status


if __name__ == "__main__":
    sys.exit(main())
