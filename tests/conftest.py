"""Shared pytest configuration.

Prints a one-line verdict per acceptance test at the end of the run so the
pass/fail state of the whole contract is readable at a glance.
"""
import pytest

from fyk._quad import gauss_panels, graded_edges


@pytest.fixture
def capped_grid_rules():
    """A fixed, dense tensor grid on [0, R]^2 for the profile tests, as
    (r, wr, z, wz): Gauss-Legendre panels graded from 0.05 in r and from
    1e-9 in z, their widths capped at 1; 480 x 780 points at R = 40 and
    720 x 1020 at R = 64."""

    def rules(idx, R):
        r, wr = gauss_panels(graded_edges(0.0, R, 0.05, ratio=1.35, h_max=1.0), 10)
        z, wz = gauss_panels(graded_edges(0.0, R, 1e-9, ratio=1.7, h_max=1.0), 10)
        return r, wr, z, wz

    return rules


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    labels = {
        "passed": "PASS ",
        "failed": "FAIL ",
        "xfailed": "XFAIL",
        "xpassed": "XPASS",
        "skipped": "SKIP ",
    }
    rows = []
    for status, label in labels.items():
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" in nodeid and "::" in nodeid:
                rows.append((nodeid.split("::", 1)[1], label))
    if not rows:
        return
    terminalreporter.section("acceptance criteria")
    for name, label in sorted(rows):
        note = "  (documented defect)" if label == "XFAIL" else ""
        terminalreporter.write_line(f"{label} {name}{note}")
