"""Shared fixtures and helpers for the mcstat test suite."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import kstwo

from mcstat.rng import RngStream

GOLDENS_PATH = Path(__file__).with_name("goldens.json")

# (number, passed, line) tuples collected by the acceptance tests and echoed
# in a dedicated terminal section so every criterion gets a visible verdict.
_CRITERION_LINES: list[tuple[int, bool, str]] = []


@pytest.fixture(scope="session")
def goldens() -> dict:
    """Reference constants regenerated by scripts/make_goldens.py."""
    return json.loads(GOLDENS_PATH.read_text())


class NanStream(RngStream):
    """A stream whose open floats are all NaN; it advances as RngStream does."""

    __slots__ = ()

    def floats_open(self, n):
        super().floats_open(n)
        return np.full(n, math.nan)


def ks_statistic(draws, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a vectorized CDF."""
    xs = np.sort(np.asarray(draws, dtype=float))
    n = xs.size
    f = np.asarray(cdf(xs), dtype=float)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - f), np.max(f - (grid - 1.0 / n))))


def ks_critical(n: int, alpha: float = 0.01) -> float:
    """Exact finite-sample KS critical value at level alpha."""
    return float(kstwo.isf(alpha, n))


def record_criterion(num: int, label: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    line = f"criterion {num:2d} [{verdict}] {label}: {detail}"
    _CRITERION_LINES.append((num, passed, line))
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, _, line in sorted(_CRITERION_LINES):
        terminalreporter.line(line)
    n_pass = sum(1 for _, ok, _ in _CRITERION_LINES if ok)
    terminalreporter.line(f"{n_pass}/{len(_CRITERION_LINES)} criteria passed")
