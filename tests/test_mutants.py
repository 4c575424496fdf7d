"""Every edit in ``tests/mutants.py`` still names code that exists, and tests that exist.

The mutation run itself takes minutes; this checks only that no mutant has
gone stale, without starting pytest again.
"""

from mutants import MUTANTS, ROOT


def test_every_mutant_matches_once_and_names_existing_tests():
    stale = {name: mutant.old for name, mutant in MUTANTS.items()
             if (ROOT / "src" / "roughmetric" / mutant.path).read_text().count(mutant.old) != 1}
    missing = {test for mutant in MUTANTS.values() for test in mutant.tests
               if not (ROOT / test).is_file()}
    assert (stale, missing) == ({}, set())
