"""Collects acceptance-criterion outcomes and prints one line per criterion.

BLAS and OpenMP run on one thread, as in bench/run.py: the suite's dense
matrices are small, and threads only add start-up and contention to them.
This runs before any test module imports numpy.
"""

import os
import re

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

CRITERIA = {
    1: "trapezoid projection identities and trace at grid 4096",
    2: "iterative meets match the closed-form indicator on 50 admissible tuples",
    3: "path meets collapse into the diagonal algebra on 100 sampled paths",
    4: "Monte Carlo vacuum expectation matches the heat multiplier at t=0.05",
    5: "golden-family exit times scale quadratically with c1 near 1/32",
    6: "operator and reduced exit engines agree pathwise and in gamma",
    7: "invariant extraction reproduces d=5 and H=1/(2*sqrt(2))",
    8: "profile series check: quadratic coefficient 1/32, quartic reported",
    9: "generator validators, derivation dimensions, bi-invariant space {0}",
    10: "convolution exponential: semigroup law and group-like case",
    11: "classical circle benchmark recovers d=2 and H^2=1",
}

_PATTERN = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")
_RESULTS = {}


def pytest_runtest_logreport(report):
    match = _PATTERN.search(report.nodeid)
    if match is None:
        return
    n = int(match.group(1))
    if report.when == "call":
        _RESULTS[n] = report.outcome == "passed"
    elif report.failed:
        _RESULTS[n] = False


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for n in sorted(_RESULTS):
        status = "PASS" if _RESULTS[n] else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {n} {status} - {CRITERIA.get(n, '')}")
