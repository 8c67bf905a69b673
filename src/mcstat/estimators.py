"""Monte Carlo estimators: running means, importance sampling, evidence.

running_moments is the one Welford (one-pass mean/variance) loop, over one
sequence or K in lockstep; its snapshots at checkpoint counts, one
RunningEstimate of arrays, make traces of partial estimates come for free.
Importance sampling keeps every weight in log space with a max shift and
exponentiates it once, for the estimate and its effective sample size; the
ESS and a bootstrap standard error are the diagnostics.

Three marginal-likelihood (evidence) estimators share the EvidenceEstimate
result type: the harmonic mean of likelihoods, the iterative optimal-bridge
estimator of Meng and Wong, and Chib's posterior-ordinate identity with a
normal parametric fit. The harmonic mean is implemented without any
variance-stabilizing truncation on purpose: its instability is a quantity
the experiment harness measures, not a defect to hide. Each is written
once, over rows: `_harmonic_rows` on rows of log likelihoods,
`_bridge_rows` (the Meng-Wong fixed point, each row stopping at its own
iteration) on rows of log ratios, and `_chib_rows` on rows of fitted
means and variances. The public estimators check one-dimensional draws or
log values and run their core on one row; the evidence experiment runs
each core once on a group of replications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .mcmc import ChainFailure, _raise_unless_rows
from .rng import RngStream, _count, _every, _finite, _real
from .targets import ConjugateNormalModel, TargetDensity

__all__ = [
    "RunningEstimate",
    "SnisResult",
    "EvidenceEstimate",
    "running_moments",
    "mc_estimate",
    "self_normalized_is",
    "ess",
    "harmonic_mean_log_evidence",
    "bridge_log_evidence",
    "chib_log_evidence",
]

_BOOTSTRAP_RESAMPLES = 200


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    # m + log(sum(exp(row - m))) for each row of the 2-D `a`, m the row's
    # max; a row whose m is not finite gives m (all -inf -> -inf; +inf or
    # NaN propagates).
    m = a.max(axis=1)
    finite = np.abs(m) < math.inf
    if not finite.all():
        m[finite] = _logsumexp_rows(a[finite])
        return m
    return m + np.log(np.exp(a - m[:, None]).sum(axis=1))


def _one_dim(name: str, a: np.ndarray) -> np.ndarray:
    # `a` itself, unless it has more than one dimension
    if a.ndim > 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class RunningEstimate:
    """Welford snapshots: after count[i] values, running mean[..., i] and sum
    of squared deviations m2[..., i]; count has shape (C,)."""

    count: np.ndarray
    mean: np.ndarray
    m2: np.ndarray

    @property
    def variance(self) -> np.ndarray:
        """Population variance of the values seen so far (0 after one)."""
        return self.m2 / self.count

    @property
    def se(self) -> np.ndarray:
        """Standard error of the mean (0 after one value)."""
        return np.sqrt(self.m2 / self.count) / np.sqrt(self.count)


def running_moments(values, cps: Sequence[int]) -> RunningEstimate:
    """One-pass Welford mean and sum of squared deviations at checkpoints.

    `values` has shape (T,), or (K, T) for K sequences in lockstep; the
    result's mean and m2 have shape values.shape[:-1] + (len(cps),). `cps`
    must be strictly increasing counts >= 1. After one value m2 is exactly
    +0.0 (0.0 plus a product that may be -0.0), so se is 0 there.
    Values past the last checkpoint are not read; a non-finite value before
    it raises, naming its index (t, or (row, t) for 2-D input).
    """
    cps = [_count("cps", c, 1) for c in cps]
    v = np.asarray(values, dtype=float)
    last = cps[-1] if cps else 0
    if v.ndim not in (1, 2) or v.shape[-1] < last:
        raise ValueError(f"values of shape {v.shape} are not (T,) or (K, T), or are "
                         f"shorter than the final checkpoint {last}")
    block = _finite("values", v[..., :last])
    means, m2s = np.empty((2, len(cps)) + v.shape[:-1])  # row j: checkpoint j
    # The same step on a float (1-D input, as Python floats) or a column.
    mean = m2 = 0.0
    j = 0
    for n, x in enumerate(block.tolist() if v.ndim == 1 else block.T, start=1):
        d = x - mean
        mean = mean + d / n
        m2 = m2 + d * (x - mean)
        if n == cps[j]:
            means[j] = mean
            m2s[j] = m2
            j += 1
    if j < len(cps):
        raise ValueError(f"checkpoints must be strictly increasing positive counts: {cps}")
    return RunningEstimate(np.asarray(cps, dtype=int), means.T, m2s.T)


def mc_estimate(target_sampler: Callable[[RngStream], float],
                h: Callable[[float], float],
                T: int,
                rng: RngStream) -> RunningEstimate:
    """Plain Monte Carlo estimate of E[h(X)] with the full running trace.

    Returns the snapshots after every draw: entry t-1 of each field is the
    estimate after t draws. Deterministic given the rng stream.
    """
    T = _count("T", T, 1)
    values: list[float] = []
    for t in range(1, T + 1):
        try:
            x = target_sampler(rng)
            val = h(x)
        except ValueError as exc:
            raise ValueError(f"iteration {t}: {exc}") from exc
        if not math.isfinite(val):
            raise ValueError(f"iteration {t}: h returned non-finite value {val!r}")
        values.append(val)
    return running_moments(values, range(1, T + 1))


def _shifted_rows(lw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """(m, w, s, ESS) for the rows of the 2-D log weights `lw`, each with a
    finite max m: w = exp(lw - m), exponentiated once, s its row sums, and
    each row's ESS s^2 / (w . w) from its own dot product."""
    m = lw.max(axis=1)
    w = np.exp(lw - m[:, None])
    s = w.sum(axis=1)
    return m, w, s, [a * a / float(np.dot(row, row)) for a, row in zip(s.tolist(), w)]


def _shifted_weights(log_weights) -> tuple[float, np.ndarray, float]:
    """(m, exp(lw - m), ESS) for m = max(lw): the weights exponentiated once."""
    lw = _one_dim("log_weights", np.asarray(log_weights, dtype=float))
    if lw.size == 0:
        raise ValueError("log_weights must be nonempty")
    _every("log_weights", lw, lw < math.inf, "< +inf and not NaN")
    if np.max(lw) == -math.inf:
        raise ValueError("all weights are zero")
    m, w, _, eff = _shifted_rows(lw.reshape(1, -1))
    return float(m[0]), w[0], eff[0]


def ess(log_weights: Sequence[float]) -> float:
    """Effective sample size (sum w)^2 / sum w^2 from log weights.

    Max-shifted, so huge negative log weights degrade gracefully to zero
    weight. Always in [1, T]; equals T iff all weights are equal.
    """
    return _shifted_weights(log_weights)[2]


@dataclass(frozen=True)
class SnisResult:
    """Self-normalized importance sampling output with diagnostics."""

    estimate: float
    ess: float
    se: float              # nonparametric bootstrap standard error
    n_draws: int
    low_ess_warning: bool  # set when ess < 10; estimate likely unusable


def self_normalized_is(target: TargetDensity,
                       proposal_sampler,
                       h: Callable[[float], float],
                       T: int,
                       rng: RngStream) -> SnisResult:
    """Self-normalized IS estimate of E_target[h] using a tractable proposal.

    `proposal_sampler` needs .sample(rng) and .logpdf(x). Weights are
    exp(log f - log g) after a max shift, so the target may be unnormalized.
    A draw where the target has mass but the proposal density is zero is a
    support violation and raises; so does a non-finite h value, naming its
    iteration as mc_estimate does, and so do weights that `ess` rejects
    (NaN from a draw where both densities are zero, +inf, or all zero).
    """
    T = _count("T", T, 1)
    hs: list[float] = []
    log_ws: list[float] = []
    for t in range(1, T + 1):
        x = proposal_sampler.sample(rng)
        lg = proposal_sampler.logpdf(x)
        lf = target.logpdf(x)
        if lg == -math.inf and lf > -math.inf:
            raise ValueError(
                f"iteration {t}: target has mass at {x!r} outside proposal support")
        val = h(x)
        if not math.isfinite(val):
            raise ValueError(f"iteration {t}: h returned non-finite value {val!r}")
        hs.append(val)
        log_ws.append(lf - lg)

    values = np.array(hs)
    _, w, eff = _shifted_weights(log_ws)
    estimate = float(np.dot(w, values) / np.sum(w))

    # Bootstrap over (value, weight) pairs; no closed-form SE exists under
    # self-normalization. numpy's generator is seeded from the stream so the
    # whole result stays deterministic.
    boot = np.random.default_rng(rng.next_u64())
    reps = np.empty(_BOOTSTRAP_RESAMPLES)
    for b in range(_BOOTSTRAP_RESAMPLES):
        idx = boot.integers(0, T, size=T)
        wb = w[idx]
        reps[b] = np.dot(wb, values[idx]) / np.sum(wb)
    se = float(np.std(reps, ddof=1))

    return SnisResult(estimate, eff, se, T, low_ess_warning=eff < 10.0)


# ---------------------------------------------------------------------------
# Evidence estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvidenceEstimate:
    """Log marginal likelihood with estimator identity and diagnostics.

    Consumers must treat estimates with diagnostics['converged'] == False
    as invalid.
    """

    log_evidence: float
    estimator: str  # 'harmonic_mean' | 'bridge' | 'chib'
    diagnostics: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return bool(self.diagnostics.get("converged", True))


def harmonic_mean_log_evidence(log_liks_at_posterior_draws: Sequence[float]) -> EvidenceEstimate:
    """Harmonic-mean evidence: -[logsumexp(-l_i) - log T] over posterior draws.

    No truncation of small likelihoods is applied; the resulting
    cross-replication spread is the diagnostic of interest.
    """
    ll = _one_dim("log_liks_at_posterior_draws",
                  _finite("log_liks_at_posterior_draws", log_liks_at_posterior_draws))
    if ll.size == 0:
        raise ValueError("log likelihood list must be nonempty")
    return _harmonic_rows(ll.reshape(1, -1))[0]


def _harmonic_rows(ll: np.ndarray) -> list[EvidenceEstimate]:
    """harmonic_mean_log_evidence on each row of the (R, T) finite log
    likelihoods `ll`, bit for bit."""
    m, w, s, eff = _shifted_rows(-ll)
    log_ev = -((m + np.log(s)) - math.log(ll.shape[1]))
    spread = ll.max(axis=1) - ll.min(axis=1)
    return [EvidenceEstimate(v, "harmonic_mean",
                             {"n_draws": ll.shape[1], "log_lik_spread": d,
                              "ess": e,  # weight concentration of the reciprocal likelihoods
                              "converged": True})
            for v, d, e in zip(log_ev.tolist(), spread.tolist(), eff)]


def _eval_log_fn(fn, xs: np.ndarray) -> np.ndarray:
    """Evaluate a vectorized log density at every point of `xs` in one call."""
    out = np.asarray(fn(xs), dtype=float)
    if out.shape != xs.shape:
        raise ValueError(f"log density returned shape {out.shape} for draws of "
                         f"shape {xs.shape}; pass a vectorized log density")
    _every("log density", out, out != math.inf, "< +inf")  # -inf is allowed
    return out


def bridge_log_evidence(post_draws: Sequence[float],
                        prop_draws: Sequence[float],
                        log_post_unnorm: Callable[[np.ndarray], np.ndarray],
                        log_prop: Callable[[np.ndarray], np.ndarray],
                        tol: float = 1e-8,
                        max_iter: int = 1000) -> EvidenceEstimate:
    """Iterative optimal-bridge estimate of log integral exp(log_post_unnorm).

    Both densities must be vectorized log densities: called once with the
    array of draws, they return an array of the same shape. A +inf log
    density or a NaN log ratio raises, naming the index of its first draw.

    Meng-Wong fixed point on the log ratio lam = log evidence, with
    s1 = n1/(n1+n2), s2 = n2/(n1+n2):

        num =  mean_j  1 / (s1 + s2 exp(lam - l2_j))      over proposal draws
        den =  mean_i  1 / (s1 exp(l1_i) + s2 exp(lam))   over posterior draws

    where l = log_post_unnorm - log_prop at the respective draws. Both sums
    are taken through logaddexp, so no weight ever leaves log space.
    Initialized from the plain importance-sampling estimate on the proposal
    draws; stops when successive lam differ by < tol or max_iter is hit,
    with the convergence flag set accordingly.
    """
    theta1 = _one_dim("post_draws", np.asarray(post_draws, dtype=float))
    theta2 = _one_dim("prop_draws", np.asarray(prop_draws, dtype=float))
    if theta1.size == 0 or theta2.size == 0:
        raise ValueError("both draw lists must be nonempty")
    tol = _real("tol", tol, 0.0)
    max_iter = _count("max_iter", max_iter, 1)

    post1, prop1 = _eval_log_fn(log_post_unnorm, theta1), _eval_log_fn(log_prop, theta1)
    post2, prop2 = _eval_log_fn(log_post_unnorm, theta2), _eval_log_fn(log_prop, theta2)
    with np.errstate(invalid="ignore"):  # -inf - -inf: a NaN ratio, named below
        l1, l2 = post1 - prop1, post2 - prop2
    for name, ratio in (("post_draws", l1), ("prop_draws", l2)):
        _every(f"log density ratio at {name}", ratio, ~np.isnan(ratio), "a number")
    try:
        return _bridge_rows(l1.reshape(1, -1), l2.reshape(1, -1), tol, max_iter)[0]
    except ChainFailure as exc:
        raise ValueError(str(exc)) from None


def _bridge_rows(l1: np.ndarray, l2: np.ndarray, tol: float,
                 max_iter: int) -> list[EvidenceEstimate]:
    """The Meng-Wong loop of bridge_log_evidence on each row of the (R, n1)
    and (R, n2) log ratios l1 and l2, which hold no NaN.

    The rows iterate in lockstep; each stops at its own iteration with its
    own convergence flag, and equals the loop on that row alone bit for bit.
    The lowest row that fails a step raises ChainFailure.
    """
    n1, n2 = l1.shape[1], l2.shape[1]
    log_s1 = math.log(n1 / (n1 + n2))
    log_s2 = math.log(n2 / (n1 + n2))

    lam = _logsumexp_rows(l2) - math.log(n2)  # simple IS estimate as the seed
    ok = np.abs(lam) < math.inf
    _raise_unless_rows(ok, "no effective support overlap between draws and proposal")

    s1_l1, s1_l2 = log_s1 + l1, log_s1 + l2  # fixed across iterations
    iterations = np.zeros(len(lam), dtype=int)
    converged = np.zeros(len(lam), dtype=bool)
    rows = np.arange(len(lam))  # the rows still iterating, and their ratios below
    for it in range(1, max_iter + 1):
        s2_lam = log_s2 + lam[rows, None]
        log_num = _logsumexp_rows(l2 - np.logaddexp(s1_l2, s2_lam)) - math.log(n2)
        log_den = _logsumexp_rows(-np.logaddexp(s1_l1, s2_lam)) - math.log(n1)
        ok[rows] = (np.abs(log_num) < math.inf) & (np.abs(log_den) < math.inf)
        _raise_unless_rows(ok, "bridge iteration left the shared support")
        lam_new = log_num - log_den
        done = np.abs(lam_new - lam[rows]) < tol
        lam[rows] = lam_new
        iterations[rows] = it
        converged[rows] = done
        if done.all():
            break
        if done.any():  # drop the finished rows; copying only then keeps R = 1 cheap
            rows, l2, s1_l1, s1_l2 = rows[~done], l2[~done], s1_l1[~done], s1_l2[~done]

    return [EvidenceEstimate(v, "bridge", {"iterations": i, "converged": c,
                                           "n_post": n1, "n_prop": n2})
            for v, i, c in zip(lam.tolist(), iterations.tolist(), converged.tolist())]


def chib_log_evidence(model: ConjugateNormalModel,
                      data: Sequence[float],
                      posterior_draws: Sequence[float],
                      theta_star: float | None = None) -> EvidenceEstimate:
    """Chib's identity log m = log f(x|t*) + log pi(t*) - log pihat(t*|x).

    The posterior ordinate pihat is a normal density with the draws' sample
    mean and variance; t* defaults to the sample mean, where the ordinate
    estimate has the least variance (the identity holds at any point).
    Runs `_chib_rows` on the one fit.
    """
    if theta_star is not None:
        theta_star = _real("theta_star", theta_star)
    draws = _one_dim("posterior_draws", _finite("posterior_draws", posterior_draws))
    if draws.size == 0:
        raise ValueError("posterior draws must be nonempty")
    # Finite draws can still overflow the variance; that raises below.
    with np.errstate(over="ignore", invalid="ignore"):
        m_hat = float(np.mean(draws))
        v_hat = float(np.var(draws, ddof=1)) if draws.size > 1 else 0.0
    if not 0.0 < v_hat < math.inf:
        raise ValueError(f"posterior draws need a positive finite sample variance, "
                         f"got {v_hat!r}")
    t_star = m_hat if theta_star is None else theta_star
    return _chib_rows(model, data, np.array([m_hat]), np.array([v_hat]),
                      np.array([t_star]), int(draws.size))[0]


def _chib_rows(model: ConjugateNormalModel, data: Sequence[float], mean: np.ndarray,
               var: np.ndarray, t_star: np.ndarray, n_draws: int) -> list[EvidenceEstimate]:
    """chib_log_evidence on R fits at once, bit for bit: row r has the
    fit's sample mean[r] and positive finite variance var[r] from n_draws
    draws, and evaluates the identity at t_star[r].

    The likelihood runs on all rows at once. The rest stays float
    arithmetic per row, as the one-row identity is written: a float's
    `** 2` is libm's pow, in the log prior and the ordinate, and can differ
    in the last bit from the d * d that numpy squares an array with.
    """
    out = []
    for t, m, v, lik in zip(t_star.tolist(), mean.tolist(), var.tolist(),
                            model.log_likelihood(data, t_star).tolist()):
        log_ordinate = -0.5 * (t - m) ** 2 / v - 0.5 * math.log(2.0 * math.pi * v)
        out.append(EvidenceEstimate(lik + model.log_prior(t) - log_ordinate, "chib",
                                    {"theta_star": t, "fit_mean": m, "fit_var": v,
                                     "n_draws": n_draws, "converged": True}))
    return out
