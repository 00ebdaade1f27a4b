"""Shared test plumbing: the acceptance summary section, Hypothesis settings.

test_acceptance.py appends one line per criterion to RESULTS; this hook
prints them in the terminal summary so the pass/fail ledger is visible in
captured runs (plain `pytest -v`) as well as with -s.

Hypothesis runs derandomized and without an example database, so every
run of the suite draws the same examples.
"""

from hypothesis import settings

settings.register_profile("suite", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("suite")

RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)
