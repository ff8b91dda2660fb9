"""Shared pytest plumbing: surface the acceptance criterion verdicts, and
start every test without a kept downlink."""

import pytest

import rofsim.link

CRITERION_LINES: list[str] = []


@pytest.fixture(autouse=True)
def no_kept_downlink():
    """Empty run_downlink's kept result, so downlink call counts do not
    depend on which test ran before."""
    rofsim.link._latest_downlink = None


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
