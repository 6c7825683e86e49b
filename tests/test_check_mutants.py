"""The mutants of scripts/check_mutants.py still apply: each one's text
occurs exactly once in its file, which the script checks only when it runs
every mutant."""

from check_mutants import MUTANTS, stale


def test_each_mutant_text_occurs_once():
    assert stale(MUTANTS) == []
