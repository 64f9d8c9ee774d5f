"""A checked-in mutation corpus: small faults in `src/` the tests must catch.

Each mutant replaces one exact text, found once in its file, and names
the tests expected to catch it.  Run as a script, it first runs every
named test on an unchanged copy of `src/`, then, for each mutant, applies
it to a fresh temporary copy and runs its tests with `-x` against that
copy.  A mutant is caught when its tests fail; it survives when they
pass.  The script exits 1 if any mutant survives, and 2 if the tests
fail unmutated or cannot be run.

    python3 tests/mutants.py

`tests/test_mutants.py` checks in tier-1 only that each old text still
occurs exactly once, so an edit to `src/` cannot leave a mutant behind.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    """`old` in `path` (relative to the repo root) becomes `new`."""

    id: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # the record CRC's input with the timestamp first and the seq
    # little-endian; the independent CRC oracle and its known answer see it
    Mutant(
        "crc_layout",
        "src/powergap/log_store.py",
        'seq.to_bytes(4, "big")\n            + struct.pack(">d", timestamp)',
        'struct.pack(">d", timestamp)\n            + seq.to_bytes(4, "little")',
        ("tests/test_log_store.py::TestPrimitives::test_crc_known_answer",
         "tests/test_log_store.py::TestAppend::test_crc_valid_on_construction"),
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
    # the quiet stretch's gap branch with the default capacitance built in;
    # the golden corpus runs at that default and passes
    Mutant(
        "stretch_fixed_capacitance",
        "src/powergap/track_world.py",
        "v1 = v - current * ((end - x) / speed) / capacitance",
        "v1 = v - current * ((end - x) / speed) / 1.0e-3",
        ("tests/test_metamorphic.py::test_scaling_capacitance_and_currents_changes_no_output",),
    ),
)


def run_tests(mutant: Optional[Mutant], tests: list[str]) -> int:
    """pytest's exit code for `tests` against a copy of `src/` with
    `mutant` applied (none: unchanged)."""
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
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode


def main() -> int:
    if run_tests(None, sorted({t for m in MUTANTS for t in m.tests})) != 0:
        print("the mutants' tests fail or do not run on unchanged code", file=sys.stderr)
        return 2
    status = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        code = run_tests(mutant, list(mutant.tests))
        # pytest exits 1 when a test fails; other codes mean it did not run them
        verdict = {0: "SURVIVED", 1: "caught"}.get(code, f"ERROR (pytest exit {code})")
        print(f"{verdict:<10} {mutant.id}  {time.perf_counter() - start:.1f} s")
        if code == 0:
            status = max(status, 1)
        elif code != 1:
            status = 2
    return status


if __name__ == "__main__":
    sys.exit(main())
