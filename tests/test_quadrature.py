"""Adaptive Simpson and Gauss-Legendre rules: accuracy, budgets, edge cases."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcstat.quadrature import (
    QuadratureError,
    QuadratureResult,
    gauss_legendre_integrate,
    quadrature_integrate,
)


def test_constant_integrand_is_exact():
    res = quadrature_integrate(lambda x: 1.0, 0.0, 1.0)
    assert res.value == pytest.approx(1.0, abs=1e-14)
    assert res.abs_error_estimate >= 0.0
    assert res.evaluations >= 1


def test_gaussian_integral():
    res = quadrature_integrate(lambda x: math.exp(-0.5 * x * x), -10.0, 10.0,
                               tol=1e-12)
    assert abs(res.value - math.sqrt(2.0 * math.pi)) <= 1e-10


def test_tolerance_is_honoured_on_known_integrals():
    cases = [
        (lambda x: math.sin(x), 0.0, math.pi, 2.0),
        (lambda x: x ** 5, 0.0, 2.0, 64.0 / 6.0),
        (lambda x: 1.0 / (1.0 + x * x), -1.0, 1.0, math.pi / 2.0),
    ]
    for fn, lo, hi, truth in cases:
        res = quadrature_integrate(fn, lo, hi, tol=1e-11)
        assert abs(res.value - truth) <= max(1e-11, 10.0 * res.abs_error_estimate)


def test_degenerate_interval_is_zero():
    res = quadrature_integrate(lambda x: 100.0, 3.0, 3.0)
    assert res.value == 0.0


def test_reversed_bounds_flip_sign():
    fwd = quadrature_integrate(lambda x: x * x, 0.0, 2.0)
    rev = quadrature_integrate(lambda x: x * x, 2.0, 0.0)
    assert rev.value == -fwd.value


def test_budget_exhaustion_raises():
    # resolving 160 oscillation periods needs far more than 200 samples
    with pytest.raises(QuadratureError):
        quadrature_integrate(lambda x: math.sin(1000.0 * x), 0.0, 1.0,
                             tol=1e-14, max_evals=200)


def test_non_finite_integrand_rejected():
    with pytest.raises(ValueError):
        quadrature_integrate(lambda x: float("nan"), 0.0, 1.0)
    with pytest.raises(ValueError):
        quadrature_integrate(lambda x: math.inf if x < 0.5 else 1.0, 0.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_gauss_legendre_rejects_non_finite_integrand(bad):
    seen = []

    def fn(x):
        seen.append(float(x))
        return bad if x > 1.0 else x

    with pytest.raises(ValueError, match=f"non-finite value {bad!r}") as err:
        gauss_legendre_integrate(fn, 0.0, 2.0)
    assert seen[-1] > 1.0
    assert str(err.value).endswith(f" at x={seen[-1]!r}")


def test_bad_arguments_rejected():
    with pytest.raises(ValueError):
        quadrature_integrate(lambda x: x, 0.0, math.inf)
    with pytest.raises(ValueError):
        quadrature_integrate(lambda x: x, 0.0, 1.0, tol=0.0)
    with pytest.raises(ValueError):
        gauss_legendre_integrate(lambda x: x, 0.0, math.nan)
    with pytest.raises(ValueError):
        gauss_legendre_integrate(lambda x: x, 0.0, 1.0, panels=0)


def test_gauss_legendre_polynomial_exactness():
    # order-20 GL integrates polynomials up to degree 39 exactly
    rng = np.random.default_rng(0)
    coeffs = rng.normal(size=12)

    def poly(x):
        return sum(c * x ** k for k, c in enumerate(coeffs))

    truth = sum(c * (2.0 ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
                for k, c in enumerate(coeffs))
    res = gauss_legendre_integrate(poly, -1.0, 2.0, panels=1, order=20)
    assert res.value == pytest.approx(truth, rel=1e-13)
    assert type(res.value) is float and type(res.abs_error_estimate) is float


def test_rules_agree_on_smooth_integrand():
    fn = lambda x: math.exp(-0.5 * x * x) / (1.0 + x * x)
    a = quadrature_integrate(fn, -8.0, 8.0, tol=1e-12)
    b = gauss_legendre_integrate(fn, -8.0, 8.0)
    assert abs(a.value - b.value) <= 1e-10


@given(deg=st.integers(0, 6), seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_adaptive_simpson_polynomial_property(deg, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-2, 2, size=deg + 1)
    truth = sum(c / (k + 1) for k, c in enumerate(coeffs))
    res = quadrature_integrate(
        lambda x: sum(c * x ** k for k, c in enumerate(coeffs)), 0.0, 1.0,
        tol=1e-12)
    assert abs(res.value - truth) <= 1e-9 * max(1.0, abs(truth))


def test_result_reports_evaluation_count():
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        return math.cos(x)

    res = quadrature_integrate(counted, 0.0, 1.0)
    assert isinstance(res, QuadratureResult)
    assert res.evaluations == calls


def test_empty_interval_reports_zero_evaluations():
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        return math.cos(x)

    res = quadrature_integrate(counted, 0.5, 0.5)
    assert (res.value, res.evaluations, calls) == (0.0, 0, 0)
