"""The mutant list still points at real code and real tests; ``tests/mutants.py`` runs it."""

from __future__ import annotations

import re

import pytest

from mutants import MUTANTS, ROOT

SRC = ROOT / "src" / "dqdsim"


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_edits_one_place_and_names_existing_tests(mutant):
    hits = {path.name: path.read_text().count(mutant.old) for path in sorted(SRC.glob("*.py"))}
    assert {name: n for name, n in hits.items() if n} == {mutant.file: 1}
    assert mutant.new != mutant.old
    for test in mutant.tests:
        file, function = test.split("::")
        assert re.search(rf"^def {function}\(", (ROOT / file).read_text(), re.M), test
