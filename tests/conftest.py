"""Pytest configuration: rewrite the helper modules' asserts, and surface
the acceptance report after the run."""

import pytest

# Rewritten asserts are explicit raises, so the helpers' checks still run
# under ``python -O``.  Must happen before any test module imports them.
pytest.register_assert_rewrite("support", "statsuites", "predictors")

ACCEPTANCE_REPORT: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_REPORT:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_REPORT:
        terminalreporter.write_line(line)
