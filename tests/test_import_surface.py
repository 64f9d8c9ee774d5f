"""What `import powergap.cli` loads, and what it costs.

Every `powergap` start imports the CLI, and with bytecode writing off it
compiles each module it loads.  The OTA model and the wire decoders run
in no simulation, so they stay off that path, and so do `statistics`,
which only a run's end needs, and `importlib.resources`, which only
`table1` reads.  A dataclass costs 0.3-1.4 ms of each start, since
CPython generates and compiles the source of its methods there, and the
`dataclasses` module itself loads `inspect`, `ast`, `dis` and `tokenize`,
so the CLI loads no dataclass: the value types are `NamedTuple`s, and
the rest plain classes, which `energy_model.ByValue` compares and
`energy_model.replace` copies.  Each class the CLI loads carries a
docstring of its own, since a `NamedTuple` or a dataclass without one
gets its signature, built on every import.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import powergap

ROOT = Path(__file__).resolve().parent.parent

#: prints, as JSON, the modules `import powergap.cli` adds, each class a
#: powergap module it loads defines, those of them whose docstring is the
#: generated signature, and those that are dataclasses; then checks that
#: `powergap.ota` still imports (`test_demos.py` runs its demo).  It
#: takes its snapshot before it imports anything, so a module the CLI
#: shares with the probe still counts as loaded, and runs without `site`,
#: so a `.pth` file cannot load one first.
PROBE = """
import sys
before = set(sys.modules)
import powergap.cli
loaded = sorted(set(sys.modules) - before)
import dataclasses, json
classes = [
    cls
    for name in loaded if name.startswith("powergap")
    for cls in vars(sys.modules[name]).values()
    if isinstance(cls, type) and cls.__module__ == name
]
undocumented = [f"{cls.__module__}.{cls.__name__}" for cls in classes
                if (cls.__doc__ or "").startswith(f"{cls.__name__}(")]
built = [cls for cls in classes if dataclasses.is_dataclass(cls)]
import powergap.ota
print(json.dumps({"loaded": loaded, "undocumented": undocumented,
                  "classes": sorted(f"{cls.__module__}.{cls.__name__}" for cls in classes),
                  "dataclasses": sorted(f"{cls.__module__}.{cls.__name__}" for cls in built)}))
"""


@pytest.fixture(scope="module")
def cli_import():
    # the probe imports the tree these tests import, a mutated copy included
    src = Path(powergap.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-S", "-c", PROBE], env=env, cwd=ROOT,
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


def test_cli_import_loads_no_importlib_resources(cli_import):
    # on Python 3.12 and 3.13 it loads `inspect` and `tempfile`; only
    # `table1` reads the shipped scenarios through it
    assert "importlib.resources" not in cli_import["loaded"]


def test_cli_import_loads_no_dataclasses(cli_import):
    # `dataclasses` loads `inspect`, which loads `ast`, `dis` and
    # `tokenize`: about 10 ms of each start on Python 3.10-3.13
    assert "dataclasses" not in cli_import["loaded"]


def test_cli_classes_have_docstrings(cli_import):
    # a NamedTuple, the config and the record among the classes checked
    assert {"powergap.energy_model.PowerState", "powergap.track_world.ScenarioConfig",
            "powergap.log_store.LogRecord"} <= set(cli_import["classes"])
    assert cli_import["undocumented"] == []


def test_cli_import_builds_no_dataclasses(cli_import):
    # every class is built without generated code
    assert cli_import["dataclasses"] == []


def test_missing_docstring_is_the_generated_signature():
    # what the probe looks for: a dataclass or NamedTuple without a docstring
    @dataclasses.dataclass
    class Probe:
        x: int

    class Pair(NamedTuple):
        x: int

    assert Probe.__doc__.startswith("Probe(")
    assert Pair.__doc__.startswith("Pair(")
