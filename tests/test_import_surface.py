"""What `import powergap.cli` loads, and what it costs.

Every `powergap` start imports the CLI, and with bytecode writing off it
compiles each module it loads.  The OTA model and the wire decoders run
in no simulation, so they stay off that path, and so does `statistics`,
which only a run's end needs; each dataclass the CLI
loads carries a docstring, since CPython builds a missing one from
`inspect.signature` on every import.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: prints, as JSON, the modules `import powergap.cli` adds and each
#: dataclass in a powergap module it loads whose docstring is the
#: generated signature; then checks that `powergap.ota` still imports
#: (`test_demos.py` runs its demo)
PROBE = """
import dataclasses, json, sys
before = set(sys.modules)
import powergap.cli
loaded = sorted(set(sys.modules) - before)
undocumented = [
    f"{name}.{cls.__name__}"
    for name in loaded if name.startswith("powergap")
    for cls in vars(sys.modules[name]).values()
    if dataclasses.is_dataclass(cls) and isinstance(cls, type)
    and cls.__module__ == name and (cls.__doc__ or "").startswith(f"{cls.__name__}(")
]
import powergap.ota
print(json.dumps({"loaded": loaded, "undocumented": undocumented}))
"""


@pytest.fixture(scope="module")
def cli_import():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_cli_import_loads_neither_ota_nor_hashlib(cli_import):
    assert "powergap.track_world" in cli_import["loaded"]
    assert not {"powergap.ota", "hashlib"} & set(cli_import["loaded"])


def test_cli_import_loads_no_statistics(cli_import):
    # `statistics` loads `decimal` and `fractions`, 3-6 ms of each start;
    # only a run's metrics need it
    assert not {"statistics", "decimal", "fractions"} & set(cli_import["loaded"])


def test_cli_dataclasses_have_docstrings(cli_import):
    assert cli_import["undocumented"] == []


def test_missing_docstring_is_the_generated_signature():
    # what the probe looks for: a dataclass without a docstring
    @dataclasses.dataclass
    class Probe:
        x: int

    assert Probe.__doc__.startswith("Probe(")

