"""Rewrite the pinned digests in `tests/test_golden.py` from the current code.

    python3 tests/regen_golden.py

Only for intended output changes: CHANGES.md must name every file whose
digest changes, and why.  Prints the names of the files that changed.
"""

from __future__ import annotations

import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from test_golden import GOLDEN, produce  # noqa: E402

BLOCK = re.compile(r"^GOLDEN = \{\n.*?^\}\n", re.MULTILINE | re.DOTALL)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        digests = produce(Path(tmp))
    body = "".join(f'    "{name}": "{digest}",\n' for name, digest in sorted(digests.items()))
    path = HERE / "test_golden.py"
    text, found = BLOCK.subn(lambda _: "GOLDEN = {\n" + body + "}\n", path.read_text())
    if found != 1:
        print(f"error: no GOLDEN block in {path}", file=sys.stderr)
        return 1
    path.write_text(text)
    for name in sorted(GOLDEN.keys() | digests.keys()):
        if GOLDEN.get(name) != digests.get(name):
            print(f"changed: {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
