"""The mutation checks of tests/mutants.py still aim at the code."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name.replace(" ", "-"))
def test_each_mutant_snippet_occurs_once(mutant):
    # the runner refuses a mutant whose snippet a refactor has moved; this
    # says so within tier-1, without running the mutant
    assert (ROOT / "src" / mutant.file).read_text().count(mutant.snippet) == 1
    assert all((ROOT / t.split("::")[0]).is_file() for t in mutant.tests)
