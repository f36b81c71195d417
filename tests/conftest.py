import sys
import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """peak(fn, *args): the peak bytes allocated while fn runs; numpy
    reports its buffers to tracemalloc."""

    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines after capture is torn down."""
    module = sys.modules.get("test_acceptance")
    verdicts = getattr(module, "VERDICTS", None)
    if not verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for line in verdicts:
        terminalreporter.line(line)
