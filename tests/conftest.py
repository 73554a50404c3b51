"""Shared fixtures for the suite.

The recurring worked example is a bag of 20 A's, 30 B's and 50 C's under
the empirical-pmf nonconformity measure.  It transduces to the contour
(21/101, 51/101, 1) — small enough to check by hand, rich enough to reach
every downstream module — and the suite freezes its derived quantities
(upper/lower pairs, Moebius masses, credal extreme points) as exact
rationals.
"""

import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import settings

from consonance import FiniteOutcomeSpace, NonconformityMeasure, transduce_grid
from consonance._num import FLOAT_TOL

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


ABC_BAG = ("A",) * 20 + ("B",) * 30 + ("C",) * 50

#: the trapezoid rule; numpy before 2.0, down to the declared floor of
#: 1.24, names it ``trapz``
trapezoid = getattr(np, "trapezoid", None) or np.trapz


def same_vertices(new, old, values) -> bool:
    """Whether two lists of credal vertices hold the same vertices, in any order.

    On a contour whose values are all of one kind the weights must be equal
    and of the same kinds.  On a mixed contour the old permutation walk's
    Fraction/float arithmetic rounds according to which tied or zero-level
    outcome it subtracted, so there weights need only agree within
    ``FLOAT_TOL``.
    """
    if len(set(map(type, values))) == 1:
        def key(p):
            return tuple((w, type(w)) for w in p.weights)
        return Counter(map(key, new)) == Counter(map(key, old))
    unmatched = [p.weights for p in old]
    for p in new:
        near = [q for q in unmatched if all(abs(a - b) <= FLOAT_TOL for a, b in zip(p.weights, q))]
        if not near:
            return False
        unmatched.remove(near[0])
    return not unmatched


@pytest.fixture(scope="session")
def abc_space():
    return FiniteOutcomeSpace(("A", "B", "C"))


@pytest.fixture(scope="session")
def abc_contour(abc_space):
    """Raw contour (21/101, 51/101, 1) of the worked three-label bag."""
    result = transduce_grid(ABC_BAG, abc_space, NonconformityMeasure.one_minus_emp())
    return result.contour


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion in the run summary."""
    verdicts = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            m = re.search(r"test_acceptance\.py.*criterion_(\d+)", nodeid)
            if m:
                num = int(m.group(1))
                verdict = "PASS" if outcome == "passed" else "FAIL"
                if verdicts.get(num) != "FAIL":
                    verdicts[num] = verdict
    if verdicts:
        terminalreporter.section("acceptance criteria")
        for num in sorted(verdicts):
            terminalreporter.write_line(f"ACCEPTANCE {num}: {verdicts[num]}")
