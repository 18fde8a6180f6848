"""Collects the acceptance-criterion outcomes and prints one PASS/FAIL
line per criterion at the end of the run.

Criterion 11 bounds the whole suite's wall clock, so its line is computed
here from the session timer rather than inside a test."""

import re
import time

try:
    from hypothesis import settings
except ImportError:      # hypothesis is a test extra; its tests skip without it
    pass
else:
    # Fixed examples and no per-example deadline: the property tests draw
    # the same cases on every run and do not fail on a slow machine.
    settings.register_profile("optnode", derandomize=True, deadline=None,
                              database=None)
    settings.load_profile("optnode")

_SUITE_T0 = time.perf_counter()
_SUITE_BUDGET_S = 120.0
_PATTERN = re.compile(r"test_criterion_(\d+)")

_outcomes = {}   # criterion number -> bool (True only if every test passed)
_titles = {}     # criterion number -> short slug from the test name


def _criterion_of(nodeid):
    m = _PATTERN.search(nodeid.rsplit("::", 1)[-1])
    return int(m.group(1)) if m else None


def pytest_collection_modifyitems(items):
    for item in items:
        k = _criterion_of(item.nodeid)
        if k is None:
            continue
        _outcomes.setdefault(k, False)
        name = item.nodeid.rsplit("::", 1)[-1]
        _titles[k] = name.split(f"_{k:02d}_", 1)[-1].replace("_", " ")


def pytest_runtest_logreport(report):
    k = _criterion_of(report.nodeid)
    if k is None:
        return
    if report.when == "call" and report.passed:
        _outcomes[k] = True
    elif report.failed or report.skipped:
        _outcomes[k] = False


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _outcomes:
        return
    elapsed = time.perf_counter() - _SUITE_T0
    terminalreporter.section("acceptance criteria")
    for k in sorted(_outcomes):
        ok = _outcomes[k]
        suffix = ""
        if k == 11:
            ok = ok and elapsed < _SUITE_BUDGET_S
            suffix = (f"  (suite wall clock {elapsed:.1f} s,"
                      f" budget {_SUITE_BUDGET_S:.0f} s)")
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(
            f"criterion {k:2d} [{status}] {_titles.get(k, '')}{suffix}")
