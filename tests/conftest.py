"""Shared pytest configuration.

Prints a one-line verdict per acceptance test at the end of the run so the
pass/fail state of the whole contract is readable at a glance.
"""
import pytest

from fyk._quad import gauss_panels, graded_edges


@pytest.fixture
def capped_grid_rules():
    """The direct route's core rule with its panel widths capped at 1, a
    drop-in for ``moments._grid_rules``: 480 x 780 points at R = 40 and
    720 x 1020 at R = 64, against 140 x 242 and 150 x 242 for the geometric
    grid.  Its z-panels start with Gauss-Legendre at [0, 1e-9], which does
    not resolve the weight z^(1-2g) for g > 1/2, so it is an oracle for that
    grid at g <= 1/2, and a fixed, denser point set for the profile tests."""

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
