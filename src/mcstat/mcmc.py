"""MCMC kernels: random-walk Metropolis-Hastings and a slice/Gibbs sampler.

The MH chain runner, run_mh_chain, is the one random-walk MH transition and
works on any TargetDensity. Proposal scale can be calibrated to a desired
acceptance rate by a stochastic-approximation loop over short run_mh_chain
windows whose output is then frozen: downstream chains never adapt, so
their invariant distribution is untouched. Calibration draws are discarded.

The slice sampler is specialized to the ratio density
exp(-x^2/2)/(1 + x^2 + x^4): an auxiliary u | x ~ U(0, 1/(1+x^2+x^4))
turns x | u into a standard normal truncated to [-b(u), b(u)] with
1 + b^2 + b^4 = 1/u, sampled by inverse CDF (no rejection loop, which
matters because b(u) -> 0 as u -> 1).

A trace replays bit-exactly from a fresh stream with the recorded
(seed, stream_id). Both chain runners read their draws in blocks of rng's
block size: step t of a chain uses open floats 2t and 2t+1 of its stream,
exactly as the step-by-step scalar draws would, and the stream ends where
those scalar draws would leave it; the Gibbs chain runs slice_gibbs_step
on a read-ahead source of its block's floats.

Replicated chains, one derived substream each, step in lockstep: the
kernels run_gibbs_chains and run_mh_chains advance K chains at once as the
rows of one (K, iters) array, as tfp.mcmc runs batched chains (Lao et al.
2020). Row k equals the scalar runner on stream k bit for bit and leaves
that stream where the scalar runner would: the step is the same
arithmetic on arrays, with every transcendental taken from the C library
one element at a time (rng._libm), and one norm_ppf_many call of K
elements per Gibbs step. A row whose step fails raises ChainFailure with
the row's index. Single chains (calibration, run_mh_chain, run_gibbs_chain)
keep their scalar loops, which beat numpy's per-call overhead at K = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rng import (_BLOCK, _MIN_TAIL_MASS, _SQRT2, RngStream, _libm, norm_ppf_many,
                  sample_truncated_normal)
# Not called here: kept as a module attribute because perfbench's tracer
# wraps mcstat.mcmc.sample_normal.
from .rng import sample_normal  # noqa: F401
from .targets import TargetDensity

__all__ = [
    "ChainTrace",
    "RwProposal",
    "CalibrationReport",
    "CalibrationError",
    "ChainFailure",
    "run_mh_chain",
    "run_mh_chains",
    "calibrate_scale",
    "calibrate_scale_report",
    "slice_truncation_bound",
    "slice_gibbs_step",
    "run_gibbs_chain",
    "run_gibbs_chains",
    "discrete_mh_transition_matrix",
    "batch_means_se",
]


@dataclass(frozen=True)
class ChainTrace:
    """States of one chain, with burn-in marker and stream identity.

    `accepted` is a boolean array for MH chains and None for Gibbs chains
    (every Gibbs move is accepted by construction). `seed_info` identifies
    the fresh stream the chain consumed, so the trace can be replayed.
    """

    states: np.ndarray
    accepted: np.ndarray | None
    burn_in: int
    seed_info: tuple[int, int]

    def __post_init__(self) -> None:
        if self.accepted is not None and len(self.accepted) != len(self.states):
            raise ValueError("accepted and states must have equal length")
        if not 0 <= self.burn_in <= len(self.states):
            raise ValueError(f"burn_in {self.burn_in} outside [0, {len(self.states)}]")

    @property
    def acceptance_rate(self) -> float:
        """Fraction of accepted proposals over the whole trace (MH only)."""
        if self.accepted is None:
            raise ValueError("Gibbs traces have no acceptance record")
        return float(np.mean(self.accepted))

    def retained(self) -> np.ndarray:
        """States after burn-in."""
        return self.states[self.burn_in:]


@dataclass(frozen=True)
class RwProposal:
    """Symmetric normal random-walk proposal: y ~ N(x, scale^2)."""

    scale: float

    def __post_init__(self) -> None:
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale!r}")


class ChainFailure(ValueError):
    """A lockstep kernel's step failed in one row; `row` indexes its stream."""

    def __init__(self, row: int, cause: Exception):
        super().__init__(str(cause))
        self.row = row


def _traces(states: np.ndarray, accepted: np.ndarray | None, burn_in: int,
            rngs: Sequence[RngStream]) -> list[ChainTrace]:
    # One ChainTrace per row of a lockstep kernel's arrays, each a row view.
    return [ChainTrace(states[k], None if accepted is None else accepted[k],
                       burn_in, (rng.seed, rng.stream_id))
            for k, rng in enumerate(rngs)]


def run_mh_chain(target: TargetDensity, prop: RwProposal, init: float,
                 iters: int, burn_in: int, rng: RngStream) -> ChainTrace:
    """Run an MH chain for `iters` steps from `init` on a fresh stream.

    Each step draws y ~ N(x, scale^2), then one open uniform u, and accepts
    iff log_alpha = log f(y) - log f(x) is >= 0 or exceeds log u; proposals
    outside the support have log f(y) = -inf and are always rejected. Every
    step consumes exactly one normal and one uniform draw whatever the
    outcome, so stream positions stay predictable: step t inverts open
    float 2t into y and compares open float 2t+1 as u.

    The trace holds all `iters` post-move states; `burn_in` marks how many
    lead states retained() drops. Pass a freshly constructed (sub)stream:
    seed_info only replays the chain if no draws preceded it.
    """
    _check_lengths(iters, burn_in)
    states = np.empty(iters)
    accepted = np.empty(iters, dtype=bool)
    x = float(init)
    lfx = _init_logpdf(target, init)
    logpdf = target.logpdf
    scale = prop.scale
    for start in range(0, iters, _BLOCK):
        stop = min(start + _BLOCK, iters)
        block = rng.floats_open(2 * (stop - start))
        zs = norm_ppf_many(block[0::2]).tolist()
        for t, z, u in zip(range(start, stop), zs, block[1::2].tolist()):
            y = x + scale * z  # sample_normal(rng, x, scale), bit for bit
            lfy = logpdf(y)
            log_alpha = lfy - lfx
            if log_alpha >= 0.0 or math.log(u) < log_alpha:
                x, lfx = y, lfy
                accepted[t] = True
            else:
                accepted[t] = False
            states[t] = x
    return ChainTrace(states, accepted, burn_in, (rng.seed, rng.stream_id))


def run_mh_chains(target: TargetDensity, prop: RwProposal, init: float,
                  iters: int, burn_in: int,
                  rngs: Sequence[RngStream]) -> list[ChainTrace]:
    """run_mh_chain on each stream of `rngs`, the K chains stepped in lockstep.

    Trace k equals run_mh_chain(target, prop, init, iters, burn_in, rngs[k])
    bit for bit, and rngs[k] ends where that call would leave it. The
    traces' states and acceptances are the rows of one (K, iters) array
    each (`traces[0].states.base`). Each row's normals and log uniforms are
    read from its own stream, one block of at most rng's block size at a
    time. `target.log_unnorm` must accept a float array (see
    TargetDensity.logpdf_many). A row whose draws fail raises ChainFailure.
    """
    _check_lengths(iters, burn_in)
    lfx = np.full(len(rngs), _init_logpdf(target, init))
    x = np.full(len(rngs), float(init))
    states = np.empty((len(rngs), iters))
    accepted = np.empty((len(rngs), iters), dtype=bool)
    zs = np.empty((_BLOCK, len(rngs)))  # (step, row): one contiguous row per step
    log_us = np.empty((_BLOCK, len(rngs)))
    scale = prop.scale
    logpdf_many = target.logpdf_many
    # A proposal that overflows is inf, silently, as in run_mh_chain's floats.
    with np.errstate(over="ignore"):
        for start in range(0, iters, _BLOCK):
            stop = min(start + _BLOCK, iters)
            n = stop - start
            for row, rng in enumerate(rngs):
                block = rng.floats_open(2 * n)
                try:
                    zs[:n, row] = norm_ppf_many(block[0::2])
                except ValueError as exc:
                    raise ChainFailure(row, exc) from exc
                log_us[:n, row] = _libm(math.log, block[1::2])
            for t, z, log_u in zip(range(start, stop), zs, log_us):
                y = x + z * scale
                lfy = logpdf_many(y)
                log_alpha = lfy - lfx
                acc = (log_alpha >= 0.0) | (log_u < log_alpha)
                x = np.where(acc, y, x)
                lfx = np.where(acc, lfy, lfx)
                states[:, t] = x
                accepted[:, t] = acc
    return _traces(states, accepted, burn_in, rngs)


def _init_logpdf(target: TargetDensity, init: float) -> float:
    lfx = target.logpdf(float(init))
    if not math.isfinite(lfx):
        raise ValueError(f"init {init!r} has zero target density")
    return lfx


def _check_lengths(iters: int, burn_in: int) -> None:
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    if iters <= burn_in:
        raise ValueError(f"iters ({iters}) must exceed burn_in ({burn_in})")


# ---------------------------------------------------------------------------
# Proposal scale calibration
# ---------------------------------------------------------------------------

_CAL_WINDOWS = 50
_CAL_WINDOW_STEPS = 400
_CAL_VALIDATION_STEPS = 20_000


@dataclass(frozen=True)
class CalibrationReport:
    scale: float
    measured_rate: float  # acceptance over the frozen validation run
    windows_used: int


class CalibrationError(RuntimeError):
    """Calibration missed the target band; carries the best attempt."""

    def __init__(self, message: str, best_scale: float, measured_rate: float):
        super().__init__(message)
        self.best_scale = best_scale
        self.measured_rate = measured_rate


def calibrate_scale_report(target: TargetDensity, target_accept: float,
                           init: float, rng: RngStream, *,
                           tol: float = 0.05) -> CalibrationReport:
    """Calibrate the RW proposal scale to a desired acceptance rate.

    Stochastic approximation on log(scale): after each of _CAL_WINDOWS
    windows of _CAL_WINDOW_STEPS MH steps, log(scale) moves by gain_k *
    (rate - target) with gain_k = 4 / k**0.6. The gain decays slowly enough
    to travel the several log-units needed for extreme targets (a 1/k
    schedule stalls short of, e.g., target 0.999), and the tail average over
    the last 10 windows smooths the remaining oscillation. The averaged
    scale is then frozen and validated on a _CAL_VALIDATION_STEPS run; a
    miss beyond `tol` raises CalibrationError carrying the attempt.
    """
    if not 0.0 < target_accept < 1.0:
        raise ValueError(f"target_accept must be in (0, 1), got {target_accept!r}")

    log_scale = 0.0
    x = float(init)
    tail: list[float] = []
    for k in range(1, _CAL_WINDOWS + 1):
        window = run_mh_chain(target, RwProposal(math.exp(log_scale)), x,
                              _CAL_WINDOW_STEPS, 0, rng)
        x = float(window.states[-1])
        rate = int(window.accepted.sum()) / _CAL_WINDOW_STEPS
        log_scale += (4.0 / k**0.6) * (rate - target_accept)
        tail.append(log_scale)

    scale = math.exp(sum(tail[-10:]) / 10.0)
    validation = run_mh_chain(target, RwProposal(scale), init,
                              _CAL_VALIDATION_STEPS, 0, rng)
    measured = validation.acceptance_rate
    if abs(measured - target_accept) > tol:
        raise CalibrationError(
            f"calibration missed: scale {scale:.6g} gives acceptance "
            f"{measured:.4f}, target {target_accept} +/- {tol}",
            best_scale=scale, measured_rate=measured)
    return CalibrationReport(scale, measured, _CAL_WINDOWS)


def calibrate_scale(target: TargetDensity, target_accept: float,
                    init: float, rng: RngStream) -> float:
    """Calibrated proposal scale; see calibrate_scale_report for the method."""
    return calibrate_scale_report(target, target_accept, init, rng).scale


# ---------------------------------------------------------------------------
# Slice / Gibbs sampler for the ratio target
# ---------------------------------------------------------------------------

def slice_truncation_bound(u: float) -> float:
    """Positive root b of 1 + b^2 + b^4 = 1/u; the slice is [-b, b].

    b^2 = (sqrt((4-3u)/u) - 1)/2, rewritten as a cancellation-free ratio so
    b(1) = 0 exactly and accuracy holds as u -> 1.
    """
    if not 0.0 < u <= 1.0:
        raise ValueError(f"u must be in (0, 1], got {u!r}")
    s = math.sqrt((4.0 - 3.0 * u) / u)
    d = 4.0 * (1.0 - u) / u  # equals s^2 - 1 without cancellation
    return math.sqrt(d / (2.0 * (s + 1.0)))


def slice_gibbs_step(x: float, rng: RngStream) -> float:
    """One slice/Gibbs update: u | x uniform on the slice, then x | u.

    u ~ U(0, 1/(1+x^2+x^4)) drawn on the open interval, so u > 0 and the
    truncation bound always exceeds |x| (the slice contains the current
    state by construction). Reads two floats through rng.next_float_open().
    """
    if not math.isfinite(x):
        raise ValueError(f"state must be finite, got {x!r}")
    x2 = x * x
    u = rng.next_float_open() / (1.0 + x2 + x2 * x2)
    b = slice_truncation_bound(u)
    return sample_truncated_normal(rng, 0.0, 1.0, -b, b)


class _ReadAhead:
    """Floats read ahead from a stream, handed out in order by next_float_open()."""

    __slots__ = ("next_float_open",)

    def __init__(self, floats: np.ndarray):
        self.next_float_open = iter(floats.tolist()).__next__


def run_gibbs_chain(init: float, iters: int, burn_in: int,
                    rng: RngStream) -> ChainTrace:
    """Run the slice/Gibbs chain for the ratio target; accepted is None.

    Step t is slice_gibbs_step on open floats 2t and 2t+1 of the stream.
    """
    _check_lengths(iters, burn_in)
    states = np.empty(iters)
    x = float(init)
    for start in range(0, iters, _BLOCK):
        stop = min(start + _BLOCK, iters)
        ahead = _ReadAhead(rng.floats_open(2 * (stop - start)))
        for t in range(start, stop):
            x = slice_gibbs_step(x, ahead)
            states[t] = x
    return ChainTrace(states, None, burn_in, (rng.seed, rng.stream_id))


def run_gibbs_chains(init: float, iters: int, burn_in: int,
                     rngs: Sequence[RngStream]) -> list[ChainTrace]:
    """run_gibbs_chain on each stream of `rngs`, the K chains stepped in lockstep.

    Trace k equals run_gibbs_chain(init, iters, burn_in, rngs[k]) bit for
    bit, and rngs[k] ends where that call would leave it. The traces'
    states are the rows of one (K, iters) array (`traces[0].states.base`).
    A failing step raises ChainFailure for the lowest row failing at that
    step, with the error slice_gibbs_step raises on the row's floats.
    """
    _check_lengths(iters, burn_in)
    x = float(init)
    if not math.isfinite(x):
        raise ValueError(f"state must be finite, got {x!r}")
    x = np.full(len(rngs), x)
    states = np.empty((len(rngs), iters))
    floats = np.empty((len(rngs), 2 * _BLOCK))
    for start in range(0, iters, _BLOCK):
        stop = min(start + _BLOCK, iters)
        for row, rng in zip(floats, rngs):
            row[:2 * (stop - start)] = rng.floats_open(2 * (stop - start))
        for t in range(start, stop):
            pair = floats[:, 2 * (t - start):2 * (t - start) + 2]
            x2 = x * x
            u = pair[:, 0] / (1.0 + x2 + x2 * x2)
            # slice_truncation_bound(u), then sample_truncated_normal on
            # [-b, b] with mean 0 and sd 1, whose interval straddles 0
            s = np.sqrt((4.0 - 3.0 * u) / u)
            d = 4.0 * (1.0 - u) / u
            b = np.sqrt(d / (2.0 * (s + 1.0)))
            v = b / _SQRT2
            cdf = 0.5 * _libm(math.erfc, np.concatenate((v, -v)))  # Phi(-b), Phi(b)
            pa, pb = cdf[:len(v)], cdf[len(v):]
            mass = pb - pa
            if not np.all(mass > _MIN_TAIL_MASS):
                raise _gibbs_failure(x, pair)
            try:
                z = norm_ppf_many(pa + pair[:, 1] * mass)
            except ValueError:
                raise _gibbs_failure(x, pair) from None
            z = np.minimum(np.maximum(z, -b), b)
            x = np.minimum(np.maximum(0.0 + 1.0 * z, -b), b)
            states[:, t] = x
    return _traces(states, None, burn_in, rngs)


def _gibbs_failure(x: np.ndarray, pairs: np.ndarray) -> ChainFailure:
    # Replays each row's step on the scalar path; the first to raise names
    # the failure.
    for row, (xk, pair) in enumerate(zip(x.tolist(), pairs)):
        try:
            slice_gibbs_step(xk, _ReadAhead(pair))
        except ValueError as exc:
            return ChainFailure(row, exc)
    raise RuntimeError("a lockstep Gibbs step failed where every scalar step passes")


# ---------------------------------------------------------------------------
# Discrete oracle and batch-means error
# ---------------------------------------------------------------------------

def discrete_mh_transition_matrix(pmf, proposal_matrix) -> np.ndarray:
    """Exact MH transition matrix on a finite state space.

    P[i, j] = q(j|i) * min(1, pi_j q(i|j) / (pi_i q(j|i))) off the diagonal;
    the diagonal absorbs the rejection mass. Satisfies detailed balance by
    construction, which makes it a brute-force oracle for the continuous
    kernel restricted to a binned target.
    """
    pi = np.asarray(pmf, dtype=float)
    q = np.asarray(proposal_matrix, dtype=float)
    n = pi.size
    if not (np.all(pi > 0.0) and abs(pi.sum() - 1.0) < 1e-9):
        raise ValueError("pmf must be strictly positive and sum to 1")
    if q.shape != (n, n) or np.any(q < 0.0) or np.any(np.abs(q.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("proposal matrix must be row-stochastic and match pmf size")

    flow_in = pi[None, :] * q.T     # pi_j q(i|j)
    flow_out = pi[:, None] * q      # pi_i q(j|i)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(flow_out > 0.0, flow_in / flow_out, 0.0)
    p = q * np.minimum(1.0, ratio)
    np.fill_diagonal(p, 0.0)
    np.fill_diagonal(p, 1.0 - p.sum(axis=1))
    return p


def batch_means_se(values, n_batches: int = 50) -> float:
    """Batch-means standard error of the mean for correlated draws.

    Splits the sequence into equal contiguous batches (tail remainder
    dropped) and reports std(batch means)/sqrt(n_batches). The iid SE is
    too small for MCMC output; this is the honest band width. At least two
    batches are needed for a spread.
    """
    if n_batches < 2:
        raise ValueError(f"n_batches must be >= 2, got {n_batches!r}")
    v = np.asarray(values, dtype=float)
    if v.size < 4:
        raise ValueError("need at least 4 values for batch means")
    n_batches = min(n_batches, v.size // 2)
    m = v.size // n_batches
    batches = v[:n_batches * m].reshape(n_batches, m).mean(axis=1)
    return float(np.std(batches, ddof=1) / math.sqrt(n_batches))
