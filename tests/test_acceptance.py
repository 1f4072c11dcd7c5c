"""Acceptance suite: one test per exit criterion, each at its stated
tolerance, printing a PASS line with the measured figure.

All 15 criteria are the entries of `geomeans.checks.CHECKS`, which
`geomeans verify` prints as well; the round trips 10-13 and 15 read the
shipped configs in `configs/`. Run with `pytest tests/test_acceptance.py
-v -s` to see the per-criterion lines.
"""

import time

from geomeans import checks


def registry_test(check):
    """Test of one registry criterion: every figure within its bound, and
    the whole criterion within its time limit."""

    def test():
        start = time.perf_counter()
        figures = check.figures()
        for figure in figures:
            print(figure.line())
        assert all(figure.passed for figure in figures)
        assert time.perf_counter() - start < check.time_limit

    test.__name__ = f"test_criterion_{check.number:02d}_{check.name}"
    return test


# one test function per registry entry, named as the criterion's test has
# always been named, so that test ids stay stable across versions
for _test in map(registry_test, checks.CHECKS):
    globals()[_test.__name__] = _test
