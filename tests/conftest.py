"""Shared pytest plumbing: surface the acceptance criterion verdicts, and
start every test without a kept LO branch, modulator output, downlink or SIC
stage."""

import pytest

import rofsim.link

CRITERION_LINES: list[str] = []


@pytest.fixture(autouse=True)
def no_kept_stages():
    """Empty every kept stage slot, so LO-branch, modulator, downlink and
    evaluator build counts do not depend on which test ran before. A kept
    output, and the domain (samples or spectra) it is held in, is a function
    of its key alone, so no output does. The slots are the link's only kept
    state; the modulator output's Y rail is the kept LO branch's rail."""
    rofsim.link._kept[:] = [None] * len(rofsim.link._kept)


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
