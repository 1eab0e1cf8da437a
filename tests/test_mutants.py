"""Every entry of the mutation ledger (tests/mutants.py) still applies: its
text occurs exactly once in its file, and the tests it names exist.  The
mutants themselves run with ``python tests/mutants.py``."""

import re
from pathlib import Path

import pytest

from mutants import LEDGER, ROOT


def test_names_are_unique():
    names = [m.name for m in LEDGER]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", LEDGER, ids=[m.name for m in LEDGER])
def test_entry_applies(mutant):
    assert mutant.old != mutant.new
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    for test in mutant.tests:
        path, *names = test.split("::")
        text = (ROOT / path).read_text()
        assert Path(path).parts[0] == "tests" and Path(path).name.startswith("test_")
        for name in names:
            assert re.search(rf"^\s*(class|def) {re.escape(name)}\b", text, re.M), test
