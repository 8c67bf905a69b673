"""Target densities and analytic ground truth.

Two built-in families:

* the bimodal-free ratio density f(x) proportional to exp(-x^2/2)/(1+x^2+x^4),
  known only up to its normalizing constant, with a quadrature oracle for the
  constant, CDF, and moments;
* a conjugate normal likelihood/prior pair whose marginal likelihood has a
  closed form, used as ground truth for evidence estimators.

The quadrature domain for the ratio density is [-10, 10]: the Gaussian factor
bounds the discarded tail mass below 1e-22, far under every tolerance used.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .quadrature import QuadratureResult, quadrature_integrate
from .rng import _libm

__all__ = [
    "TargetDensity",
    "ConjugateNormalModel",
    "cubic_ratio",
    "example_target_logpdf",
    "example_target_cdf",
    "example_target_cdf_many",
    "example_target_pdf_many",
    "example_target_norm_const",
    "example_target_moment",
    "gaussian_functional_expectation",
    "analytic_log_evidence",
    "analytic_log_bayes_factor",
    "posterior_params",
    "get_model",
    "EXAMPLE_TARGET",
]

_DOMAIN = (-10.0, 10.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class TargetDensity:
    """Unnormalized log-density with declared support."""

    log_unnorm: Callable[[float], float]
    support_lo: float = -math.inf
    support_hi: float = math.inf
    name: str = ""

    def logpdf(self, x: float) -> float:
        """Log of the unnormalized density; -inf outside the support."""
        if not self.support_lo <= x <= self.support_hi:
            return -math.inf
        return self.log_unnorm(x)

    def logpdf_many(self, xs) -> np.ndarray:
        """logpdf of every element of `xs`, equal bit for bit to the scalar.

        log_unnorm is called once, on a float array of the in-support
        elements, so it must accept one. Overflow gives inf silently, as
        it does in float arithmetic.
        """
        xs = np.asarray(xs, dtype=float)
        inside = (self.support_lo <= xs) & (xs <= self.support_hi)
        with np.errstate(over="ignore"):
            if inside.all():
                return np.asarray(self.log_unnorm(xs), dtype=float)
            out = np.full(xs.shape, -math.inf)
            out[inside] = self.log_unnorm(xs[inside])
        return out

    def in_support(self, x: float) -> bool:
        return self.support_lo <= x <= self.support_hi and math.isfinite(self.logpdf(x))


def example_target_logpdf(x):
    """log of exp(-x^2/2) / (1 + x^2 + x^4), unnormalized; x a float or
    a float array, log1p from the C library either way."""
    x2 = x * x
    if isinstance(x, np.ndarray):
        return -0.5 * x2 - _libm(math.log1p, x2 + x2 * x2)
    return -0.5 * x2 - math.log1p(x2 + x2 * x2)


def _example_pdf_unnorm(x: float) -> float:
    return math.exp(example_target_logpdf(x))


EXAMPLE_TARGET = TargetDensity(example_target_logpdf, name="example")


def cubic_ratio(x):
    """x^3 / (1 + x^2 + x^4); works on scalars and numpy arrays."""
    x2 = x * x
    return x * x2 / (1.0 + x2 + x2 * x2)


class _ExampleOracle:
    """Cached quadrature tables for the example target.

    CDF values combine a cumulative Gauss-Legendre knot table (spacing 0.025)
    with a single on-the-fly panel from the nearest knot, so pointwise
    accuracy stays at machine level while bulk evaluation stays cheap.
    """

    _KNOTS = 801
    _GL_ORDER = 20

    def __init__(self) -> None:
        lo, hi = _DOMAIN
        self.knots = np.linspace(lo, hi, self._KNOTS)
        nodes, weights = np.polynomial.legendre.leggauss(self._GL_ORDER)
        self._nodes = nodes
        self._weights = weights
        a = self.knots[:-1]
        b = self.knots[1:]
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        pts = mid[:, None] + half[:, None] * nodes[None, :]
        panel = (self._pdf_unnorm_vec(pts) @ weights) * half
        cum = np.concatenate([[0.0], np.cumsum(panel)])
        self.norm_const = float(cum[-1])
        self._cum = cum

    @staticmethod
    def _pdf_unnorm_vec(x: np.ndarray) -> np.ndarray:
        x2 = x * x
        return np.exp(-0.5 * x2) / (1.0 + x2 + x2 * x2)

    def cdf_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        lo, hi = _DOMAIN
        clipped = np.clip(xs, lo, hi)
        idx = np.minimum(np.searchsorted(self.knots, clipped, side="right") - 1,
                         self._KNOTS - 2)
        idx = np.maximum(idx, 0)
        a = self.knots[idx]
        half = 0.5 * (clipped - a)
        mid = a + half
        pts = mid[..., None] + half[..., None] * self._nodes
        partial = (self._pdf_unnorm_vec(pts) @ self._weights) * half
        out = (self._cum[idx] + partial) / self.norm_const
        out = np.clip(out, 0.0, 1.0)
        out = np.where(xs <= lo, 0.0, out)
        out = np.where(xs >= hi, 1.0, out)
        return out

    def pdf_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return self._pdf_unnorm_vec(xs) / self.norm_const


@functools.cache
def _get_oracle() -> _ExampleOracle:
    return _ExampleOracle()


def example_target_norm_const() -> float:
    """Normalizing constant Z of the example target over [-10, 10]."""
    return _get_oracle().norm_const


def example_target_cdf(x: float) -> float:
    """CDF of the normalized example target at a point."""
    if not math.isfinite(x):
        raise ValueError(f"cdf argument must be finite, got {x!r}")
    return float(_get_oracle().cdf_many(np.array([x]))[0])


def example_target_cdf_many(xs) -> np.ndarray:
    """Vectorized CDF of the example target (used by the KS checks)."""
    return _get_oracle().cdf_many(np.asarray(xs, dtype=float))


def example_target_pdf_many(xs) -> np.ndarray:
    """Vectorized normalized density of the example target."""
    return _get_oracle().pdf_many(np.asarray(xs, dtype=float))


def example_target_moment(p: int, tol: float = 1e-12) -> float:
    """E[X^p] under the normalized example target, by adaptive quadrature."""
    if p < 0 or p != int(p):
        raise ValueError(f"moment order must be a nonnegative integer, got {p!r}")
    lo, hi = _DOMAIN
    num = quadrature_integrate(lambda x: x**p * _example_pdf_unnorm(x), lo, hi, tol=tol)
    return num.value / example_target_norm_const()


def gaussian_functional_expectation(mu: float, tol: float = 1e-12) -> float:
    """E[X^3/(1+X^2+X^4)] for X ~ N(mu, 1), by adaptive quadrature.

    The integrand is bounded (|h| < 0.39), so truncating the Gaussian at
    12 standard deviations leaves error below 1e-30.
    """
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu!r}")

    def integrand(x: float) -> float:
        return cubic_ratio(x) * math.exp(-0.5 * (x - mu) ** 2) / math.sqrt(2.0 * math.pi)

    return quadrature_integrate(integrand, mu - 12.0, mu + 12.0, tol=tol).value


# ---------------------------------------------------------------------------
# Conjugate normal model: N(theta, obs_var) likelihood, N(prior_mean,
# prior_var) prior over theta.  Everything in log space; n=20 likelihoods
# underflow in linear space.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjugateNormalModel:
    prior_mean: float
    prior_var: float
    obs_var: float
    name: str = ""

    def __post_init__(self) -> None:
        if not self.prior_var > 0.0:
            raise ValueError(f"prior_var must be positive, got {self.prior_var!r}")
        if not self.obs_var > 0.0:
            raise ValueError(f"obs_var must be positive, got {self.obs_var!r}")

    def log_prior(self, theta):
        """Log prior density; accepts scalars or numpy arrays."""
        z2 = (theta - self.prior_mean) ** 2 / self.prior_var
        return -0.5 * z2 - 0.5 * math.log(self.prior_var) - _LOG_SQRT_2PI

    def log_likelihood(self, data: Sequence[float], theta):
        """Log likelihood of the data at theta; accepts scalar or array theta."""
        n, s, ssq = _suff_stats(data)
        quad = ssq - 2.0 * np.asarray(theta) * s + n * np.asarray(theta) ** 2
        out = -0.5 * n * math.log(2.0 * math.pi * self.obs_var) - quad / (2.0 * self.obs_var)
        return out if np.ndim(theta) else float(out)

    def log_posterior_unnorm(self, data: Sequence[float], theta):
        return self.log_likelihood(data, theta) + self.log_prior(theta)


def _suff_stats(data: Sequence[float]) -> tuple[int, float, float]:
    arr = np.asarray(data, dtype=float)
    if arr.size == 0:
        raise ValueError("data must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("data contains non-finite values")
    return int(arr.size), float(arr.sum()), float(np.dot(arr, arr))


def posterior_params(model: ConjugateNormalModel, data: Sequence[float]) -> tuple[float, float]:
    """Conjugate update: returns (posterior mean, posterior variance)."""
    n, s, _ = _suff_stats(data)
    post_var = 1.0 / (1.0 / model.prior_var + n / model.obs_var)
    post_mean = post_var * (model.prior_mean / model.prior_var + s / model.obs_var)
    return post_mean, post_var


def analytic_log_evidence(model: ConjugateNormalModel, data: Sequence[float]) -> float:
    """Exact log marginal likelihood of the data under the model."""
    n, s, ssq = _suff_stats(data)
    post_mean, post_var = posterior_params(model, data)
    return (-0.5 * n * math.log(2.0 * math.pi * model.obs_var)
            + 0.5 * math.log(post_var / model.prior_var)
            + 0.5 * (post_mean**2 / post_var
                     - model.prior_mean**2 / model.prior_var
                     - ssq / model.obs_var))


def analytic_log_bayes_factor(m0: ConjugateNormalModel, m1: ConjugateNormalModel,
                              data: Sequence[float]) -> float:
    """Exact log Bayes factor of m0 over m1 (same likelihood, different priors)."""
    if m0.obs_var != m1.obs_var:
        raise ValueError(
            f"models must share the observation variance, got {m0.obs_var} vs {m1.obs_var}")
    return analytic_log_evidence(m0, data) - analytic_log_evidence(m1, data)


def numeric_log_evidence(model: ConjugateNormalModel, data: Sequence[float],
                         tol: float = 1e-12) -> QuadratureResult:
    """Quadrature cross-check of the evidence integral, in shifted log space."""
    post_mean, post_var = posterior_params(model, data)
    lo = min(model.prior_mean - 12.0 * math.sqrt(model.prior_var),
             post_mean - 12.0 * math.sqrt(post_var))
    hi = max(model.prior_mean + 12.0 * math.sqrt(model.prior_var),
             post_mean + 12.0 * math.sqrt(post_var))
    shift = model.log_posterior_unnorm(data, post_mean)
    res = quadrature_integrate(
        lambda t: math.exp(model.log_posterior_unnorm(data, t) - shift), lo, hi, tol=tol)
    return QuadratureResult(math.log(res.value) + shift,
                            res.abs_error_estimate / max(res.value, 1e-300),
                            res.evaluations)


# ---------------------------------------------------------------------------
# Named models of the evidence experiment
# ---------------------------------------------------------------------------

_MODELS: dict[str, Callable[[], ConjugateNormalModel]] = {
    "conj-n01": lambda: ConjugateNormalModel(0.0, 1.0, 1.0, name="conj-n01"),
    "conj-n14": lambda: ConjugateNormalModel(1.0, 4.0, 1.0, name="conj-n14"),
}


def get_model(name: str) -> ConjugateNormalModel:
    try:
        return _MODELS[name]()
    except KeyError:
        raise KeyError(f"unknown model {name!r}; choose from {sorted(_MODELS)}") from None
