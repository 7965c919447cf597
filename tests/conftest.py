"""Shared pytest wiring.

Tests marked ``@pytest.mark.acceptance(num, title)`` feed a summary block
printed at the end of the run: one PASS/FAIL line per numbered criterion.
A ``RuntimeWarning``, such as numpy's warning on a scalar overflow, fails
the test that raises it.
"""

import pytest

_results: dict[int, tuple[str, str]] = {}


def pytest_configure(config):
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    num, title = marker.args
    if report.when == "call":
        _results[num] = (title, report.outcome)
    elif report.when == "setup" and report.outcome != "passed":
        # Setup errors and skips count as failures: the criterion never ran.
        _results[num] = (title, "failed")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_results):
        title, outcome = _results[num]
        word = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"[{word}] {num:2d}. {title}")
