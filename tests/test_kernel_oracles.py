"""Exact one-step kernel oracles for the slice/Gibbs and RW-MH kernels.

Where one step from a fixed x0 lands has an exact law, and quadrature gives
the probability of each bin:

* slice/Gibbs on pi(x) ~ exp(-x^2/2) g(x), g(x) = 1/(1 + x^2 + x^4): u is
  uniform on (0, g(x0)) and x' is N(0, 1) truncated to the slice [-b, b],
  g(b) = u (Damien, Wakefield & Walker 1999; Neal 2003, "Slice sampling").
  Substituting b for u, P(x' <= y) is
  (1/g(x0)) * integral over b > |x0| of T(y; b) (-g'(b)) db, where T is
  the truncated normal's CDF;
* RW-MH: the moved part has density q(y | x0) min(1, pi(y)/pi(x0)), and
  the rest of the mass is an atom at x0, the chain staying put (Tierney
  1994).

One step from each x0 in {0, 1.3, 3} is drawn on fixed seeds, 5000 times
for slice/Gibbs and 10^4 times for MH, once on the float path and once on
the lockstep path (one row per substream). The float path is
slice_gibbs_step, and for MH the float transition `mcmc._mh_steps` on one
(normal, uniform) pair at a time, the pairs drawn as run_mh_chain draws
them. The bin counts, and for MH the count of stays as one more category, pass a chi-square test once adjacent
bins whose expected count is below 5 are pooled; for MH the stay fraction
also passes a z-test. Drawing u from U(0, 1) in place of U(0, g(x0)), or
accepting an MH move when log u < log alpha + 0.1, fails these tests; the
latter shifts the stay fraction by about 0.034 at x0 = 0, a z of about 6
at 10^4 draws, so MH takes twice as many draws as slice/Gibbs.
"""

import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from mcstat.mcmc import (_mh_draws, _mh_steps, RwProposal, run_gibbs_chains, run_mh_chains,
                         slice_gibbs_step)
from mcstat.rng import derive_substream, rng_new
from mcstat.targets import EXAMPLE_TARGET

_X0 = (0.0, 1.3, 3.0)
_N = {"gibbs": 5000, "mh": 10_000}  # one-step draws per x0 and path
_MH_SCALE = 1.2
# Bins (-inf, e_0), [e_0, e_1), ..., [e_44, inf): they cover where one step
# from any x0 here lands.
_EDGES = np.linspace(-4.5, 6.5, 45)
_QUAD = dict(epsabs=1e-13, epsrel=1e-11, limit=200)


def _g(b):
    return 1.0 / (1.0 + b * b + b**4)


def _gibbs_cdf(y, x0):
    # P(x' <= y) one slice/Gibbs step from x0. T(y; b) has a kink at b = |y|,
    # so the integral is split there.
    def integrand(b):
        neg_g_prime = (2.0 * b + 4.0 * b**3) * _g(b) ** 2
        if y >= b:
            return neg_g_prime
        if y <= -b:
            return 0.0
        erf_b = special.erf(b / math.sqrt(2.0))
        return (special.erf(y / math.sqrt(2.0)) + erf_b) / (2.0 * erf_b) * neg_g_prime

    cuts = [abs(x0)] + ([abs(y)] if abs(y) > abs(x0) else []) + [math.inf]
    total = sum(integrate.quad(integrand, a, b, **_QUAD)[0] for a, b in zip(cuts, cuts[1:]))
    return total / _g(x0)


def _gibbs_bin_probs(x0):
    return np.diff([0.0] + [_gibbs_cdf(e, x0) for e in _EDGES] + [1.0])


def _log_pi(y):
    return -0.5 * y * y - math.log1p(y * y + y**4)


def _mh_bin_probs(x0):
    # Each bin's moved mass, and the stay probability. min(1, pi(y)/pi(x0))
    # has its kinks at y = +-|x0|, where pi(y) = pi(x0).
    def moved(y):
        q = math.exp(-0.5 * ((y - x0) / _MH_SCALE) ** 2) / (_MH_SCALE * math.sqrt(2 * math.pi))
        return q * min(1.0, math.exp(_log_pi(y) - _log_pi(x0)))

    bounds = [-math.inf, *_EDGES, math.inf]
    probs = []
    for a, b in zip(bounds, bounds[1:]):
        kinks = [k for k in (-abs(x0), abs(x0)) if a < k < b]
        pieces = [a, *kinks, b]
        probs.append(sum(integrate.quad(moved, lo, hi, **_QUAD)[0]
                         for lo, hi in zip(pieces, pieces[1:])))
    probs = np.array(probs)
    return probs, 1.0 - probs.sum()


def _pooled_chi2_p(counts, probs):
    # Chi-square p-value of `counts` against `probs`, adjacent categories
    # pooled until each group expects at least 5; a short last group joins
    # the one before it.
    n = sum(counts)
    observed, expected = [], []
    o = e = 0.0
    for c, p in zip(counts, probs):
        o, e = o + c, e + n * p
        if e >= 5.0:
            observed.append(o)
            expected.append(e)
            o = e = 0.0
    observed[-1] += o
    expected[-1] += e
    observed, expected = np.array(observed), np.array(expected)
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    return float(stats.chi2.sf(chi2, len(observed) - 1))


def _bin_counts(draws):
    return np.bincount(np.searchsorted(_EDGES, draws, side="right"),
                       minlength=len(_EDGES) + 1)


def _one_step(kernel, x0, path):
    """_N[kernel] one-step draws from x0, and for MH whether each moved."""
    n = _N[kernel]
    if path == "float":
        rng = derive_substream(rng_new(2024), 0)
        if kernel == "gibbs":
            return np.array([slice_gibbs_step(x0, rng) for _ in range(n)]), None
        logpdf, lfx0 = EXAMPLE_TARGET._float_logpdf(), EXAMPLE_TARGET.logpdf(x0)
        zs, us = _mh_draws(rng.floats_open(2 * n))
        steps = [_mh_steps(logpdf, _MH_SCALE, x0, lfx0, [z], [u])
                 for z, u in zip(zs.tolist(), us.tolist())]
        return (np.array([states[0] for _, _, states, _ in steps]),
                np.array([accepted[0] for _, _, _, accepted in steps]))
    root = rng_new(2025)
    rngs = [derive_substream(root, k) for k in range(n)]
    if kernel == "gibbs":
        return run_gibbs_chains(x0, 1, 0, rngs).states[:, 0], None
    trace = run_mh_chains(EXAMPLE_TARGET, RwProposal(_MH_SCALE), x0, 1, 0, rngs)
    return trace.states[:, 0], trace.accepted[:, 0]


@pytest.mark.parametrize("path", ["float", "lockstep"])
@pytest.mark.parametrize("x0", _X0)
def test_gibbs_one_step_follows_the_exact_kernel(x0, path):
    probs = _gibbs_bin_probs(x0)
    assert abs(probs.sum() - 1.0) < 1e-9 and probs.min() >= 0.0
    draws, _ = _one_step("gibbs", x0, path)
    assert _pooled_chi2_p(_bin_counts(draws), probs) > 1e-3


@pytest.mark.parametrize("path", ["float", "lockstep"])
@pytest.mark.parametrize("x0", _X0)
def test_mh_one_step_follows_the_exact_kernel(x0, path):
    moved, stay = _mh_bin_probs(x0)
    assert 0.3 < stay < 0.7 and moved.min() >= 0.0
    states, accepted = _one_step("mh", x0, path)
    assert np.all(states[~accepted] == x0)
    n = _N["mh"]
    stays = n - int(np.count_nonzero(accepted))
    z = (stays - n * stay) / math.sqrt(n * stay * (1.0 - stay))
    assert abs(z) < 3.5, z
    counts = np.append(_bin_counts(states[accepted]), stays)
    assert _pooled_chi2_p(counts, np.append(moved, stay)) > 1e-3
