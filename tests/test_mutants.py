"""The committed mutant list still matches the code it mutates.

``run_mutants.py`` applies each mutant of mutants.json and runs the tests
it names, outside the tier-1 suite.  Here only the list is checked: each
old text occurs exactly once in its file, and each named test exists, so a
change that removes or rewrites a mutated line must update the list too.
"""

import re

import pytest
from run_mutants import ROOT, load_mutants

MUTANTS = load_mutants()


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["name"] for m in MUTANTS])
def test_each_mutant_applies_once_and_names_tests_that_exist(mutant):
    assert (ROOT / mutant["file"]).read_text().count(mutant["old"]) == 1
    assert mutant["new"] != mutant["old"] and mutant["tests"]
    for test in mutant["tests"]:
        path, _, name = test.partition("::")
        source = (ROOT / path).read_text()
        assert not name or re.search(r"^def %s\(" % re.escape(name), source, re.M), test
