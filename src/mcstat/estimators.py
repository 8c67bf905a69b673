"""Monte Carlo estimators: running means, importance sampling, evidence.

running_moments is the one Welford (one-pass mean/variance) loop, over one
sequence or K in lockstep; its snapshots at checkpoint counts, one
RunningEstimate of arrays, make traces of partial estimates come for free.
Importance sampling keeps every weight in log space with a max shift; the
effective sample size and a bootstrap standard error are the diagnostics.

Three marginal-likelihood (evidence) estimators share the EvidenceEstimate
result type: the harmonic mean of likelihoods, the iterative optimal-bridge
estimator of Meng and Wong, and Chib's posterior-ordinate identity with a
normal parametric fit. The harmonic mean is implemented without any
variance-stabilizing truncation on purpose: its instability is a quantity
the experiment harness measures, not a defect to hide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .rng import RngStream
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


def _logsumexp(arr: np.ndarray) -> float:
    arr = np.asarray(arr, dtype=float)
    m = np.max(arr)
    if not math.isfinite(m):
        # all -inf -> -inf; any +inf/nan propagates
        return float(m) if m == -math.inf else float(np.sum(np.exp(arr - m)))
    return float(m + np.log(np.sum(np.exp(arr - m))))


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
    must be strictly increasing positive counts. After one value m2 is
    exactly +0.0 (0.0 plus a product that may be -0.0), so se is 0 there.
    Values past the last checkpoint are not read; a non-finite value before
    it raises, naming its 1-based iteration and, for 2-D input, its row.
    """
    v = np.asarray(values, dtype=float)
    last = cps[-1] if len(cps) else 0
    if v.ndim not in (1, 2) or v.shape[-1] < last:
        raise ValueError(f"values of shape {v.shape} are not (T,) or (K, T), or are "
                         f"shorter than the final checkpoint {last}")
    block = v[..., :last]
    bad = np.argwhere(~np.isfinite(block))
    if len(bad):
        *row, t = bad[0]
        raise ValueError(f"non-finite value {float(block[tuple(bad[0])])!r} at iteration "
                         f"{t + 1}" + (f" of row {row[0]}" if row else ""))
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
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
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


def ess(log_weights: Sequence[float]) -> float:
    """Effective sample size (sum w)^2 / sum w^2 from log weights.

    Max-shifted, so huge negative log weights degrade gracefully to zero
    weight. Always in [1, T]; equals T iff all weights are equal.
    """
    lw = np.asarray(log_weights, dtype=float)
    if lw.size == 0:
        raise ValueError("log_weights must be nonempty")
    if np.any(np.isnan(lw)) or np.any(lw == math.inf):
        raise ValueError("log_weights must be < +inf and not NaN")
    m = float(np.max(lw))
    if m == -math.inf:
        raise ValueError("all weights are zero")
    w = np.exp(lw - m)
    s1 = float(np.sum(w))
    s2 = float(np.dot(w, w))
    return s1 * s1 / s2


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
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
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
    lw = np.array(log_ws)
    eff = ess(lw)
    w = np.exp(lw - np.max(lw))
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
    ll = np.asarray(log_liks_at_posterior_draws, dtype=float)
    if ll.size == 0:
        raise ValueError("log likelihood list must be nonempty")
    if not np.all(np.isfinite(ll)):
        raise ValueError("log likelihoods must be finite")
    log_ev = -(_logsumexp(-ll) - math.log(ll.size))
    diag = {
        "n_draws": int(ll.size),
        "log_lik_spread": float(np.max(ll) - np.min(ll)),
        "ess": ess(-ll),  # weight concentration of the reciprocal likelihoods
        "converged": True,
    }
    return EvidenceEstimate(log_ev, "harmonic_mean", diag)


def _eval_log_fn(fn, xs: np.ndarray) -> np.ndarray:
    """Evaluate a vectorized log density at every point of `xs` in one call."""
    out = np.asarray(fn(xs), dtype=float)
    if out.shape != xs.shape:
        raise ValueError(f"log density returned shape {out.shape} for draws of "
                         f"shape {xs.shape}; pass a vectorized log density")
    return out


def bridge_log_evidence(post_draws: Sequence[float],
                        prop_draws: Sequence[float],
                        log_post_unnorm: Callable[[np.ndarray], np.ndarray],
                        log_prop: Callable[[np.ndarray], np.ndarray],
                        tol: float = 1e-8,
                        max_iter: int = 1000) -> EvidenceEstimate:
    """Iterative optimal-bridge estimate of log integral exp(log_post_unnorm).

    Both densities must be vectorized log densities: called once with the
    array of draws, they return an array of the same shape.

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
    theta1 = np.asarray(post_draws, dtype=float)
    theta2 = np.asarray(prop_draws, dtype=float)
    if theta1.size == 0 or theta2.size == 0:
        raise ValueError("both draw lists must be nonempty")
    n1, n2 = theta1.size, theta2.size

    l1 = _eval_log_fn(log_post_unnorm, theta1) - _eval_log_fn(log_prop, theta1)
    l2 = _eval_log_fn(log_post_unnorm, theta2) - _eval_log_fn(log_prop, theta2)
    if np.any(np.isnan(l1)) or np.any(np.isnan(l2)):
        raise ValueError("log density ratio is NaN at some draw")

    log_s1 = math.log(n1 / (n1 + n2))
    log_s2 = math.log(n2 / (n1 + n2))

    lam = _logsumexp(l2) - math.log(n2)  # simple IS estimate as the seed
    if not math.isfinite(lam):
        raise ValueError("no effective support overlap between draws and proposal")

    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        log_num = _logsumexp(l2 - np.logaddexp(log_s1 + l2, log_s2 + lam)) - math.log(n2)
        log_den = _logsumexp(-np.logaddexp(log_s1 + l1, log_s2 + lam)) - math.log(n1)
        if not (math.isfinite(log_num) and math.isfinite(log_den)):
            raise ValueError("bridge iteration left the shared support")
        lam_new = log_num - log_den
        if abs(lam_new - lam) < tol:
            lam = lam_new
            converged = True
            break
        lam = lam_new

    diag = {"iterations": iterations, "converged": converged,
            "n_post": n1, "n_prop": n2}
    return EvidenceEstimate(float(lam), "bridge", diag)


def chib_log_evidence(model: ConjugateNormalModel,
                      data: Sequence[float],
                      posterior_draws: Sequence[float],
                      theta_star: float | None = None) -> EvidenceEstimate:
    """Chib's identity log m = log f(x|t*) + log pi(t*) - log pihat(t*|x).

    The posterior ordinate pihat is a normal density with the draws' sample
    mean and variance; t* defaults to the sample mean, where the ordinate
    estimate has the least variance (the identity holds at any point).
    """
    draws = np.asarray(posterior_draws, dtype=float)
    if draws.size == 0:
        raise ValueError("posterior draws must be nonempty")
    m_hat = float(np.mean(draws))
    v_hat = float(np.var(draws, ddof=1)) if draws.size > 1 else 0.0
    if v_hat <= 0.0:
        raise ValueError("posterior draws have zero sample variance")
    t_star = m_hat if theta_star is None else float(theta_star)

    log_ordinate = (-0.5 * (t_star - m_hat) ** 2 / v_hat
                    - 0.5 * math.log(2.0 * math.pi * v_hat))
    log_ev = (model.log_likelihood(data, t_star) + model.log_prior(t_star)
              - log_ordinate)
    diag = {"theta_star": t_star, "fit_mean": m_hat, "fit_var": v_hat,
            "n_draws": int(draws.size), "converged": True}
    return EvidenceEstimate(float(log_ev), "chib", diag)
