"""Target densities and analytic ground truth.

Two built-in families:

* the bimodal-free ratio density f(x) proportional to exp(-x^2/2)/(1+x^2+x^4),
  known only up to its normalizing constant; its constant, CDF and pdf read
  one cached Gauss-Legendre knot table, its moments adaptive quadrature.
  The table's 20-point rule is a constant, equal bit for bit to
  np.polynomial.legendre.leggauss(20), so the oracle imports no
  numpy.polynomial and makes no LAPACK call;
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
from .rng import (_LOG_SQRT_2PI, _NEG_HALF_0D, _SQRT_2PI, _count, _finite, _libm, _one_dim,
                  _real)

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
    "posterior_params",
    "get_model",
    "EXAMPLE_TARGET",
]

_DOMAIN = (-10.0, 10.0)


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
            if np.count_nonzero(inside) == inside.size:
                return np.asarray(self.log_unnorm(xs), dtype=float)
            out = np.full(xs.shape, -math.inf)
            out[inside] = self.log_unnorm(xs[inside])
        return out

    def _float_logpdf(self) -> Callable[[float], float]:
        # logpdf for float arguments that are never NaN, such as MH
        # proposals from a finite state. On the whole line the support test
        # passes for every such float, so the function is log_unnorm itself.
        if self.support_lo == -math.inf and self.support_hi == math.inf:
            return self.log_unnorm
        return self.logpdf


def example_target_logpdf(x):
    """log of exp(-x^2/2) / (1 + x^2 + x^4), unnormalized; x a float or
    a float array, log1p from the C library either way."""
    x2 = x * x
    if isinstance(x, np.ndarray):
        return _NEG_HALF_0D * x2 - _libm(math.log1p, x2 + x2 * x2)
    return -0.5 * x2 - math.log1p(x2 + x2 * x2)


EXAMPLE_TARGET = TargetDensity(example_target_logpdf, name="example")


def cubic_ratio(x):
    """x^3 / (1 + x^2 + x^4) of a float or a numpy array.

    Where 1 + x^2 + x^4 overflows (|x| above about 1.16e77) the exact ratio
    rounds to 1/x, which is returned in place of inf/inf: +-inf gives +-0
    and NaN stays NaN. Neither path raises a RuntimeWarning, and the float
    path, which quadrature calls per point, makes no numpy call.
    """
    if isinstance(x, np.ndarray):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            x2 = x * x
            den = 1.0 + x2 + x2 * x2
            out = x * x2 / den
            big = den == np.inf
            return np.where(big, 1.0 / x, out) if big.any() else out
    x2 = x * x
    den = 1.0 + x2 + x2 * x2
    return x * x2 / den if den < math.inf else 1.0 / x


def _pdf_unnorm_many(x: np.ndarray) -> np.ndarray:
    x2 = x * x
    return np.exp(-0.5 * x2) / (1.0 + x2 + x2 * x2)


# The 20-point Gauss-Legendre rule on [-1, 1], as the (node, weight) pairs of
# its positive nodes: bit for bit the upper half of
# np.polynomial.legendre.leggauss(20), whose rule is exactly symmetric. As a
# constant it keeps numpy.polynomial and LAPACK's eigvalsh out of the oracle.
_GL20_UPPER = (
    (0.07652652113349734, 0.15275338713072628),
    (0.22778585114164507, 0.14917298647260424),
    (0.37370608871541955, 0.1420961093183824),
    (0.5108670019508271, 0.1316886384491769),
    (0.636053680726515, 0.1181945319615186),
    (0.7463319064601508, 0.1019301198172407),
    (0.8391169718222188, 0.08327674157670471),
    (0.912234428251326, 0.06267204833410879),
    (0.9639719272779138, 0.040601429800386446),
    (0.993128599185095, 0.017614007139150893),
)
_GL20_NODES = np.array([-x for x, _ in reversed(_GL20_UPPER)] + [x for x, _ in _GL20_UPPER])
_GL20_WEIGHTS = np.array([w for _, w in reversed(_GL20_UPPER)] + [w for _, w in _GL20_UPPER])


@functools.cache
def _oracle_table() -> tuple[np.ndarray, np.ndarray]:
    """(knots, cum): cum[i] is the unnormalized mass below knots[i] (spacing
    0.025) by 20-point Gauss-Legendre panels, so cum[-1] is the normalizing
    constant. A CDF value adds one on-the-fly panel from the nearest knot:
    machine-level accuracy at bulk-evaluation cost."""
    knots = np.linspace(*_DOMAIN, 801)
    a = knots[:-1]
    b = knots[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    pts = mid[:, None] + half[:, None] * _GL20_NODES[None, :]
    panel = (_pdf_unnorm_many(pts) @ _GL20_WEIGHTS) * half
    cum = np.concatenate([[0.0], np.cumsum(panel)])
    return knots, cum


def example_target_norm_const() -> float:
    """Normalizing constant Z of the example target over [-10, 10]."""
    return float(_oracle_table()[1][-1])


def example_target_cdf(x: float) -> float:
    """CDF of the normalized example target at a point."""
    return float(example_target_cdf_many(np.array([x]))[0])


def example_target_cdf_many(xs) -> np.ndarray:
    """Vectorized CDF of the example target (used by the KS checks).

    Raises unless every element is finite, naming the first bad one by its
    index.
    """
    knots, cum = _oracle_table()
    xs = _finite("xs", xs)
    lo, hi = _DOMAIN
    clipped = np.clip(xs, lo, hi)
    idx = np.clip(np.searchsorted(knots, clipped, side="right") - 1, 0, knots.size - 2)
    a = knots[idx]
    half = 0.5 * (clipped - a)
    mid = a + half
    pts = mid[..., None] + half[..., None] * _GL20_NODES
    partial = (_pdf_unnorm_many(pts) @ _GL20_WEIGHTS) * half
    out = np.clip((cum[idx] + partial) / cum[-1], 0.0, 1.0)
    out = np.where(xs <= lo, 0.0, out)
    return np.where(xs >= hi, 1.0, out)


def example_target_pdf_many(xs) -> np.ndarray:
    """Vectorized normalized density of the example target.

    Where x^2 overflows (|x| above about 1.3e154, and at +-inf) the density
    is 0.0, silently, as in cubic_ratio and logpdf_many.
    """
    with np.errstate(over="ignore"):
        return _pdf_unnorm_many(np.asarray(xs, dtype=float)) / _oracle_table()[1][-1]


def example_target_moment(p: int, tol: float = 1e-12) -> float:
    """E[X^p] under the normalized example target, by adaptive quadrature."""
    p = _count("p", p)
    lo, hi = _DOMAIN
    num = quadrature_integrate(lambda x: x**p * math.exp(example_target_logpdf(x)), lo, hi,
                               tol=tol)
    return num.value / example_target_norm_const()


def gaussian_functional_expectation(mu: float, tol: float = 1e-12) -> float:
    """E[X^3/(1+X^2+X^4)] for X ~ N(mu, 1), by adaptive quadrature.

    The integrand is bounded (|h| < 0.39), so truncating the Gaussian at
    12 standard deviations leaves error below 1e-30.
    """
    mu = _real("mu", mu)

    def integrand(x: float) -> float:
        return cubic_ratio(x) * math.exp(-0.5 * (x - mu) ** 2) / _SQRT_2PI

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
        for name, lo in (("prior_mean", -math.inf), ("prior_var", 0.0), ("obs_var", 0.0)):
            object.__setattr__(self, name, _real(name, getattr(self, name), lo))

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
    # (n, sum, sum of squares) of the finite, nonempty data of at most one
    # dimension
    arr = _one_dim("data", _finite("data", data))
    if arr.size == 0:
        raise ValueError("data must be nonempty")
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
