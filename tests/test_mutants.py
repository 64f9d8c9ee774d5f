"""The mutation corpus in `tests/mutants.py` still applies to `src/`.

Running the mutants takes a few seconds each, so tier-1 checks only
that each one's old text occurs exactly once in its file.
"""

import pytest
from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.id)
def test_old_text_occurs_once(mutant):
    assert mutant.old != mutant.new
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
