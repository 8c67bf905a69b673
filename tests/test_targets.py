"""Example target oracles and the conjugate normal evidence model."""

import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcstat.quadrature import gauss_legendre_integrate, quadrature_integrate
from mcstat import targets
from mcstat.targets import (
    EXAMPLE_TARGET,
    ConjugateNormalModel,
    TargetDensity,
    analytic_log_evidence,
    cubic_ratio,
    example_target_cdf,
    example_target_cdf_many,
    example_target_logpdf,
    example_target_moment,
    example_target_norm_const,
    example_target_pdf_many,
    gaussian_functional_expectation,
    get_model,
    numeric_log_evidence,
    posterior_params,
)


# ---------------------------------------------------------------------------
# Example target density
# ---------------------------------------------------------------------------

def test_logpdf_reference_points():
    assert example_target_logpdf(0.0) == 0.0
    assert example_target_logpdf(1.0) == pytest.approx(-0.5 - math.log(3.0),
                                                       abs=1e-14)


def test_logpdf_is_even():
    for x in [0.3, 1.7, 2.9, 5.0]:
        assert example_target_logpdf(-x) == example_target_logpdf(x)


@given(x=st.floats(-10, 10))
@settings(max_examples=100, deadline=None)
def test_logpdf_symmetry_property(x):
    assert example_target_logpdf(-x) == example_target_logpdf(x)


def test_norm_const_regression(goldens):
    assert example_target_norm_const() == pytest.approx(
        goldens["example_norm_const"], rel=1e-13)


def test_norm_const_dual_rule_agreement():
    # two independent quadratures of the unnormalized density
    fn = lambda x: math.exp(example_target_logpdf(x))
    a = quadrature_integrate(fn, -10.0, 10.0, tol=1e-12).value
    b = gauss_legendre_integrate(fn, -10.0, 10.0).value
    assert abs(a - b) <= 1e-11
    assert example_target_norm_const() == pytest.approx(a, rel=1e-10)


def test_density_is_normalized():
    z = example_target_norm_const()
    res = quadrature_integrate(
        lambda x: math.exp(example_target_logpdf(x)) / z, -10.0, 10.0,
        tol=1e-12)
    assert abs(res.value - 1.0) <= 1e-9


def test_cdf_reference_points(goldens):
    assert example_target_cdf(0.0) == pytest.approx(0.5, abs=1e-12)
    assert example_target_cdf(-10.0) == pytest.approx(0.0, abs=1e-12)
    assert example_target_cdf(10.0) == pytest.approx(1.0, abs=1e-12)
    assert example_target_cdf(1.0) == pytest.approx(goldens["example_cdf_1"],
                                                    rel=1e-12)


def test_cdf_dual_rule_at_one():
    z = example_target_norm_const()
    direct = quadrature_integrate(
        lambda x: math.exp(example_target_logpdf(x)) / z, -10.0, 1.0,
        tol=1e-12).value
    assert abs(example_target_cdf(1.0) - direct) <= 1e-8


def test_cdf_symmetry():
    for x in [0.5, 1.0, 2.0, 3.0]:
        assert abs(example_target_cdf(-x) - (1.0 - example_target_cdf(x))) <= 1e-9


def test_cdf_monotone_and_vectorized():
    xs = np.linspace(-10, 10, 401)
    cs = example_target_cdf_many(xs)
    assert np.all(np.diff(cs) >= 0.0)
    scalar = [example_target_cdf(x) for x in xs[::40]]
    assert np.allclose(cs[::40], scalar, rtol=0, atol=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cdf_rejects_a_non_finite_point_on_both_entry_points(bad):
    with pytest.raises(ValueError, match=rf"must be finite, got {bad!r} at index 0"):
        example_target_cdf(bad)
    with pytest.raises(ValueError, match=rf"must be finite, got {bad!r} at index 2"):
        example_target_cdf_many([0.0, 1.0, bad, bad])


def test_pdf_many_matches_logpdf():
    xs = np.linspace(-6, 6, 121)
    z = example_target_norm_const()
    expect = np.exp([example_target_logpdf(x) for x in xs]) / z
    assert np.allclose(example_target_pdf_many(xs), expect, rtol=1e-12)


def test_pdf_many_past_overflow_is_zero_and_warns_nowhere():
    xs = np.array([-math.inf, -1e200, 0.0, 1e200, math.inf])
    before = xs.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = example_target_pdf_many(xs)
        at_zero = example_target_pdf_many(0.0)
    assert got.tolist() == [0.0, 0.0, 1.0 / example_target_norm_const(), 0.0, 0.0]
    assert type(at_zero) is np.float64 and at_zero == got[2]
    assert np.array_equal(xs, before)  # the caller's array is left as it was


def test_oracle_needs_neither_numpy_polynomial_nor_lapack():
    # The oracle's 20-point rule is a constant: in a fresh interpreter the
    # constant, the CDF and the pdf never import numpy.polynomial (whose
    # leggauss calls LAPACK's eigvalsh).
    code = ("import sys\n"
            "import mcstat\n"
            "from mcstat.targets import (example_target_cdf_many, example_target_norm_const,\n"
            "                            example_target_pdf_many)\n"
            "example_target_norm_const()\n"
            "example_target_cdf_many([0.0])\n"
            "example_target_pdf_many([0.0])\n"
            "print('numpy.polynomial' in sys.modules)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
    nodes, weights = np.polynomial.legendre.leggauss(20)
    assert np.array_equal(targets._GL20_NODES.view(np.uint64), nodes.view(np.uint64))
    assert np.array_equal(targets._GL20_WEIGHTS.view(np.uint64), weights.view(np.uint64))


def test_odd_moments_vanish():
    assert abs(example_target_moment(1)) <= 1e-10
    assert abs(example_target_moment(3)) <= 1e-10


def test_second_moment_stable_across_tolerances(goldens):
    m_tight = example_target_moment(2, tol=1e-12)
    m_loose = example_target_moment(2, tol=1e-8)
    assert m_tight > 0.0
    assert abs(m_tight - m_loose) <= 1e-8
    assert m_tight == pytest.approx(goldens["example_moment2"], rel=1e-12)


def test_cubic_ratio_shape():
    assert cubic_ratio(0.0) == 0.0
    assert cubic_ratio(1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    xs = np.linspace(-5, 5, 51)
    assert np.allclose(cubic_ratio(-xs), -cubic_ratio(xs), rtol=0, atol=0)


# Largest float whose 1 + x^2 + x^4 is finite.
_X4_EDGE = 1.1579208923731618e77


@pytest.mark.parametrize("x", [_X4_EDGE, math.nextafter(_X4_EDGE, math.inf), 1e103,
                               1e200, 1.7e308, math.inf])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_cubic_ratio_past_overflow_is_the_reciprocal(x, sign):
    x = sign * x
    x2 = x * x
    finite = 1.0 + x2 + x2 * x2 < math.inf
    want = x * x2 / (1.0 + x2 + x2 * x2) if finite else 1.0 / x
    assert finite == (abs(x) == _X4_EDGE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [cubic_ratio(x), cubic_ratio(np.array([x, 1.0]))[0]]
    for v in got:
        # equal bits, so +-inf gives +-0
        assert np.float64(v).view(np.uint64) == np.float64(want).view(np.uint64)
        assert v == pytest.approx(1.0 / x, rel=1e-15)


def test_cubic_ratio_keeps_nan_and_warns_nowhere():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(cubic_ratio(math.nan))
        got = cubic_ratio(np.array([math.nan, 0.0, -0.0, 1e77, -1e300]))
    assert math.isnan(got[0])
    assert got[1:].tolist() == [0.0, -0.0, cubic_ratio(1e77), cubic_ratio(-1e300)]


def test_gaussian_functional_expectation(goldens):
    assert abs(gaussian_functional_expectation(0.0)) <= 1e-10
    g = gaussian_functional_expectation(2.5)
    assert g == pytest.approx(goldens["gfe_2.5"], rel=1e-12)
    assert gaussian_functional_expectation(-2.5) == pytest.approx(-g, rel=1e-10)


# ---------------------------------------------------------------------------
# TargetDensity container
# ---------------------------------------------------------------------------

def test_target_density_support():
    t = TargetDensity(lambda x: 0.0, -1.0, 1.0, "flat")
    assert t.logpdf(0.5) == 0.0
    assert t.logpdf(2.0) == -math.inf


# Support edges and just outside them, signed zeros, overflow of x^2,
# infinities and NaN.
_LOGPDF_POINTS = [0.0, -0.0, 0.3, -1.7, 1e-200, 1e150, -1e200, 1e300,
                  -10.0, 10.0, math.nextafter(-10.0, -math.inf),
                  math.nextafter(10.0, math.inf), math.nextafter(10.0, 0.0),
                  math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("target", [
    EXAMPLE_TARGET,
    TargetDensity(example_target_logpdf, -10.0, 10.0, "bounded"),
    TargetDensity(lambda x: -0.5 * x * x, -0.5, 1.5, "narrow"),
], ids=["unbounded", "bounded", "narrow"])
def test_logpdf_many_matches_scalar_bitwise(target):
    # the dense grid catches a SIMD log1p, which differs from libm in the
    # last ulp on a few percent of inputs on some hosts
    xs = np.concatenate((_LOGPDF_POINTS, np.linspace(-12.0, 12.0, 2000)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        many = target.logpdf_many(xs)
        grid = target.logpdf_many(xs.reshape(8, -1))
        scalar = [target.logpdf(x) for x in xs.tolist()]
    assert many.tobytes() == np.array(scalar).tobytes()
    assert grid.shape == (8, 252)
    assert grid.tobytes() == many.tobytes()
    assert many[np.isnan(xs)].tolist() == [-math.inf]


_NON_NAN_POINTS = [x for x in _LOGPDF_POINTS if not math.isnan(x)]


def test_float_logpdf_is_log_unnorm_on_the_whole_line():
    f = EXAMPLE_TARGET._float_logpdf()
    assert f is EXAMPLE_TARGET.log_unnorm
    # the support test it drops passes on every float but NaN
    assert (np.array([f(x) for x in _NON_NAN_POINTS]).tobytes()
            == np.array([EXAMPLE_TARGET.logpdf(x) for x in _NON_NAN_POINTS]).tobytes())


@pytest.mark.parametrize("lo, hi", [(-10.0, 10.0), (0.0, math.inf), (-math.inf, 0.0)],
                         ids=["bounded", "lower-bound", "upper-bound"])
def test_float_logpdf_keeps_the_support_test_off_the_whole_line(lo, hi):
    target = TargetDensity(example_target_logpdf, lo, hi)
    f = target._float_logpdf()
    assert f == target.logpdf
    outside = lo - 1.0 if lo > -math.inf else hi + 1.0
    assert f(outside) == -math.inf


def test_registries():
    with pytest.raises(KeyError):
        get_model("nope")
    m = get_model("conj-n01")
    assert (m.prior_mean, m.prior_var, m.obs_var) == (0.0, 1.0, 1.0)
    m1 = get_model("conj-n14")
    assert (m1.prior_mean, m1.prior_var, m1.obs_var) == (1.0, 4.0, 1.0)


# ---------------------------------------------------------------------------
# Conjugate normal model
# ---------------------------------------------------------------------------

def test_posterior_params_hand_example():
    m = ConjugateNormalModel(0.0, 1.0, 1.0, "m")
    mean, var = posterior_params(m, [2.0])
    assert mean == pytest.approx(1.0, rel=1e-15)
    assert var == pytest.approx(0.5, rel=1e-15)


def test_posterior_mean_fixed_point():
    m = ConjugateNormalModel(0.7, 2.0, 1.0, "m")
    mean, _ = posterior_params(m, [0.7] * 9)
    assert mean == pytest.approx(0.7, rel=1e-12)


def test_posterior_variance_decreases_with_data():
    m = ConjugateNormalModel(0.0, 1.0, 1.0, "m")
    vars_ = [posterior_params(m, [0.1] * n)[1] for n in (1, 2, 5, 20)]
    assert all(a > b for a, b in zip(vars_, vars_[1:]))


def test_model_rejects_bad_variances():
    with pytest.raises(ValueError):
        ConjugateNormalModel(0.0, 0.0, 1.0, "m")
    with pytest.raises(ValueError):
        ConjugateNormalModel(0.0, 1.0, -1.0, "m")


def test_empty_data_rejected():
    m = ConjugateNormalModel(0.0, 1.0, 1.0, "m")
    with pytest.raises(ValueError):
        posterior_params(m, [])
    with pytest.raises(ValueError):
        analytic_log_evidence(m, [])


def test_sufficient_statistics_are_checked_per_dataset():
    m = ConjugateNormalModel(0.0, 1.0, 1.0, "m")
    data = np.array([0.3, -1.2, 2.5])
    theta = np.linspace(-1.0, 1.0, 5)
    first = m.log_likelihood(data, theta)
    # the same values, as a list or a copy, give the same statistics
    assert m.log_likelihood(list(data), theta).tobytes() == first.tobytes()
    assert m.log_prior(0.0) + m.log_likelihood(data.copy(), 0.0) == \
        m.log_posterior_unnorm(data, 0.0)
    # a dataset that differs in one value is checked on its own, every time
    for _ in range(2):
        with pytest.raises(ValueError, match="^data must be finite, got inf at index 2$"):
            m.log_likelihood(np.array([0.3, -1.2, math.inf]), theta)
        with pytest.raises(ValueError, match="data must be nonempty"):
            m.log_likelihood(np.array([]), theta)
    # data of more than one dimension is named by its shape; a 0-d scalar is
    # one observation
    for shape, call in [((2, 2), lambda d: m.log_likelihood(d, 0.0)),
                        ((1, 1), lambda d: m.log_likelihood(d, 0.0)),
                        ((1, 2), lambda d: posterior_params(m, d)),
                        ((1, 2), lambda d: analytic_log_evidence(m, d))]:
        text = f"data must be one-dimensional, got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            call(np.zeros(shape))
    assert m.log_likelihood(np.float64(0.3), theta).tobytes() == \
        m.log_likelihood([0.3], theta).tobytes()
    assert analytic_log_evidence(m, 0.3) == analytic_log_evidence(m, [0.3])


def test_single_observation_evidence_closed_form():
    # one data point: marginal is N(x; prior_mean, obs_var + prior_var)
    m = ConjugateNormalModel(0.5, 2.0, 1.5, "m")
    x = 1.3
    v = m.obs_var + m.prior_var
    expect = -0.5 * math.log(2.0 * math.pi * v) - 0.5 * (x - m.prior_mean) ** 2 / v
    assert analytic_log_evidence(m, [x]) == pytest.approx(expect, rel=1e-13)


def test_tight_prior_evidence_limit():
    # prior mass collapses on prior_mean, so evidence -> likelihood there
    m = ConjugateNormalModel(0.4, 1e-8, 1.0, "m")
    data = [0.1, 0.9, 0.3]
    assert analytic_log_evidence(m, data) == pytest.approx(
        float(m.log_likelihood(data, 0.4)), abs=1e-5)


def test_evidence_matches_quadrature_randomized():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        m = ConjugateNormalModel(rng.uniform(-2, 2), rng.uniform(0.2, 4.0),
                                 rng.uniform(0.3, 2.0), "m")
        data = rng.normal(m.prior_mean, 1.0, size=rng.integers(1, 12)).tolist()
        assert analytic_log_evidence(m, data) == pytest.approx(
            numeric_log_evidence(m, data).value, abs=1e-8)


def test_log_posterior_unnorm_is_prior_plus_likelihood():
    m = ConjugateNormalModel(0.0, 1.0, 1.0, "m")
    data = [0.2, -0.5]
    th = np.array([-1.0, 0.0, 2.0])
    total = m.log_posterior_unnorm(data, th)
    assert np.allclose(total, m.log_prior(th) + m.log_likelihood(data, th),
                       rtol=1e-14)
