"""The mutation corpus in `tests/mutants.py` still applies to `src/`.

Running the mutants takes a few seconds each, so tier-1 checks only
that each one's old text occurs exactly once in its file, and that each
test it names is still defined, ignoring any `[param]` suffix.
"""

import ast

import pytest
from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.id)
def test_old_text_occurs_once(mutant):
    assert mutant.old != mutant.new
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.id)
def test_named_tests_exist(mutant):
    # a renamed test would only show as pytest's "not found" when the
    # mutants run, outside tier-1
    for test in mutant.tests:
        path, *names = test.partition("[")[0].split("::")
        body = ast.parse((ROOT / path).read_text()).body
        for name in names:
            found = [node for node in body
                     if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name]
            assert found, f"{test}: no {name} in {path}"
            body = found[0].body
