"""Example target oracles and the conjugate normal evidence model."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcstat.quadrature import gauss_legendre_integrate, quadrature_integrate
from mcstat.targets import (
    EXAMPLE_TARGET,
    ConjugateNormalModel,
    TargetDensity,
    analytic_log_bayes_factor,
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


def test_pdf_many_matches_logpdf():
    xs = np.linspace(-6, 6, 121)
    z = example_target_norm_const()
    expect = np.exp([example_target_logpdf(x) for x in xs]) / z
    assert np.allclose(example_target_pdf_many(xs), expect, rtol=1e-12)


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
    assert t.in_support(0.5)
    assert not t.in_support(1.5)
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


def test_bayes_factor_properties():
    m0 = ConjugateNormalModel(0.0, 1.0, 1.0, "m0")
    m1 = ConjugateNormalModel(1.0, 4.0, 1.0, "m1")
    data = [0.3, 0.8, -0.2]
    assert analytic_log_bayes_factor(m0, m0, data) == 0.0
    fwd = analytic_log_bayes_factor(m0, m1, data)
    assert fwd == pytest.approx(-analytic_log_bayes_factor(m1, m0, data),
                                rel=1e-13)
    assert fwd == pytest.approx(analytic_log_evidence(m0, data)
                                - analytic_log_evidence(m1, data), rel=1e-13)


def test_bayes_factor_rejects_mismatched_likelihoods():
    m0 = ConjugateNormalModel(0.0, 1.0, 1.0, "m0")
    m1 = ConjugateNormalModel(0.0, 1.0, 2.0, "m1")
    with pytest.raises(ValueError):
        analytic_log_bayes_factor(m0, m1, [0.1])
