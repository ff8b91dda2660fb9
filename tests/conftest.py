"""Shared pytest plumbing: surface the acceptance criterion verdicts, and
start every test without a kept downlink and SIC stage."""

import pytest

import rofsim.link

CRITERION_LINES: list[str] = []


@pytest.fixture(autouse=True)
def no_kept_stages():
    """Empty the kept downlink and SI-only SIC stage, so downlink and
    evaluator build counts do not depend on which test ran before."""
    rofsim.link._kept = None


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
