"""Numerical integration oracles: adaptive Simpson plus a fixed-order
Gauss-Legendre rule used for independent cross-checks.

These back every derived ground-truth constant in the test suite, so both
rules are deliberately simple and dependency-free (Legendre nodes come from
numpy's polynomial package).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .rng import _count, _real

__all__ = ["QuadratureResult", "QuadratureError", "quadrature_integrate",
           "gauss_legendre_integrate"]


class QuadratureError(RuntimeError):
    """Raised when an integration rule cannot meet its tolerance in budget."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int


def quadrature_integrate(fn: Callable[[float], float], lo: float, hi: float,
                         tol: float = 1e-10, max_evals: int = 10**6) -> QuadratureResult:
    """Adaptive Simpson integration of fn over the finite interval [lo, hi].

    Subdivides until the Richardson error estimate of every panel is within
    its share of tol.  Raises QuadratureError instead of returning a silently
    bad value when the evaluation budget runs out.
    """
    lo, hi, tol = _real("lo", lo), _real("hi", hi), _real("tol", tol, 0.0)
    max_evals = _count("max_evals", max_evals, 1)
    if lo == hi:
        return QuadratureResult(0.0, 0.0, 0)
    sign = 1.0
    if lo > hi:
        lo, hi, sign = hi, lo, -1.0

    evals = 0

    def f(x: float) -> float:
        nonlocal evals
        evals += 1
        if evals > max_evals:
            raise QuadratureError(
                f"adaptive Simpson exceeded {max_evals} evaluations on [{lo}, {hi}]")
        return _finite(fn, x)

    def simpson(fa: float, fm: float, fb: float, h: float) -> float:
        return h / 6.0 * (fa + 4.0 * fm + fb)

    # Iterative refinement with an explicit stack; avoids Python recursion
    # limits on nasty integrands.
    total = 0.0
    err_total = 0.0
    fa, fm, fb = f(lo), f(0.5 * (lo + hi)), f(hi)
    stack = [(lo, hi, fa, fm, fb, simpson(fa, fm, fb, hi - lo), tol, 0)]
    while stack:
        a, b, fa, fm, fb, whole, panel_tol, depth = stack.pop()
        m = 0.5 * (a + b)
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = simpson(fa, flm, fm, m - a)
        right = simpson(fm, frm, fb, b - m)
        delta = (left + right - whole) / 15.0
        if depth >= 60 or abs(delta) <= panel_tol:
            total += left + right + delta
            err_total += abs(delta)
        else:
            stack.append((a, m, fa, flm, fm, left, panel_tol / 2.0, depth + 1))
            stack.append((m, b, fm, frm, fb, right, panel_tol / 2.0, depth + 1))
    return QuadratureResult(sign * total, err_total, evals)


def gauss_legendre_integrate(fn: Callable[[float], float], lo: float, hi: float,
                             panels: int = 64, order: int = 20) -> QuadratureResult:
    """Composite fixed-grid Gauss-Legendre rule.

    The error estimate is the difference against the same grid at half the
    order, which is itself integrated exactly for polynomials up to degree
    2*(order//2)-1; for smooth integrands it is a conservative bound. A
    non-finite integrand value raises, naming its x.
    """
    lo, hi = _real("lo", lo), _real("hi", hi)
    panels = _count("panels", panels, 1)
    order = _count("order", order, 2)
    edges = np.linspace(lo, hi, panels + 1)
    value = _gl_fixed(fn, edges, order)
    check = _gl_fixed(fn, edges, order // 2)
    return QuadratureResult(float(value), float(abs(value - check)),
                            panels * (order + order // 2))


def _gl_fixed(fn: Callable[[float], float], edges: np.ndarray, order: int) -> float:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        total += half * sum(w * _finite(fn, mid + half * t)
                            for t, w in zip(nodes, weights))
    return total


def _finite(fn: Callable[[float], float], x: float) -> float:
    """fn(x), or a ValueError naming x if that is not finite."""
    y = fn(x)
    if not math.isfinite(y):
        raise ValueError(f"integrand returned non-finite value {y!r} at x={float(x)!r}")
    return y
