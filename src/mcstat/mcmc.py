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
those scalar draws would leave it.

Replicated chains, one derived substream each, step in lockstep: the
kernels run_gibbs_chains and run_mh_chains advance K chains at once and
return one ChainTrace of (K, iters) arrays, as tfp.mcmc batches chains
(Lao et al. 2020). Row k equals the scalar runner on stream k bit for bit
and leaves that stream where the scalar runner would: the step is the
same arithmetic on arrays, with every transcendental taken from the C
library one element at a time (rng._libm). The slice/Gibbs step is written
once, for a float and for a row of K states, with the caller's primitives.
A row whose step fails raises ChainFailure with the row's index. Single
chains (calibration, run_mh_chain, run_gibbs_chain) keep their scalar
loops, which beat numpy's per-call overhead at K = 1.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rng import _BLOCK, _MIN_TAIL_MASS, _SQRT2, RngStream, _libm, norm_ppf, norm_ppf_many
# Not called here: kept as module attributes because perfbench's tracer
# wraps mcstat.mcmc.sample_normal and mcstat.mcmc.sample_truncated_normal.
from .rng import sample_normal, sample_truncated_normal  # noqa: F401
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
    """States of one chain, (iters,), or of K lockstep chains, (K, iters).

    `accepted` is a boolean array of the states' shape for MH chains and
    None for Gibbs chains (every Gibbs move is accepted by construction).
    `seed_info` is the (seed, stream_id) of the fresh stream the chain
    consumed, so the trace can be replayed; row k's is seed_info[k].
    `burn_in` counts states along the last axis.
    """

    states: np.ndarray
    accepted: np.ndarray | None
    burn_in: int
    seed_info: tuple[int, int] | tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.accepted is not None and self.accepted.shape != self.states.shape:
            raise ValueError(f"accepted has shape {self.accepted.shape}, "
                             f"states {self.states.shape}")
        if not 0 <= self.burn_in <= self.states.shape[-1]:
            raise ValueError(f"burn_in {self.burn_in} outside [0, {self.states.shape[-1]}]")

    @property
    def acceptance_rate(self) -> float:
        """Fraction of accepted proposals over the whole trace (MH only)."""
        if self.accepted is None:
            raise ValueError("Gibbs traces have no acceptance record")
        return float(np.mean(self.accepted))

    def retained(self) -> np.ndarray:
        """States after burn-in, a view: states[..., burn_in:]."""
        return self.states[..., self.burn_in:]


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


def _mh_draws(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # One stream's block of 2n open floats as n MH steps' draws: proposal
    # normals from the even floats, log uniforms from the odd ones.
    return norm_ppf_many(block[0::2]), _libm(math.log, block[1::2])


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
        zs, log_us = _mh_draws(rng.floats_open(2 * (stop - start)))
        for t, z, log_u in zip(range(start, stop), zs.tolist(), log_us.tolist()):
            y = x + scale * z  # sample_normal(rng, x, scale), bit for bit
            lfy = logpdf(y)
            log_alpha = lfy - lfx
            if log_alpha >= 0.0 or log_u < log_alpha:
                x, lfx = y, lfy
                accepted[t] = True
            else:
                accepted[t] = False
            states[t] = x
    return ChainTrace(states, accepted, burn_in, (rng.seed, rng.stream_id))


def run_mh_chains(target: TargetDensity, prop: RwProposal, init: float,
                  iters: int, burn_in: int,
                  rngs: Sequence[RngStream]) -> ChainTrace:
    """run_mh_chain on each stream of `rngs`, the K chains stepped in lockstep.

    Returns one trace with (K, iters) states and acceptances. Row k equals
    run_mh_chain(target, prop, init, iters, burn_in, rngs[k]) bit for bit,
    seed_info[k] is rngs[k]'s (seed, stream_id), and rngs[k] ends where
    that call would leave it. Each row's normals and log uniforms are read
    from its own stream, one block of at most rng's block size at a time.
    `target.log_unnorm` must accept a float array (see
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
                try:
                    zs[:n, row], log_us[:n, row] = _mh_draws(rng.floats_open(2 * n))
                except ValueError as exc:
                    raise ChainFailure(row, exc) from exc
            for t, z, log_u in zip(range(start, stop), zs, log_us):
                y = x + z * scale
                lfy = logpdf_many(y)
                log_alpha = lfy - lfx
                acc = (log_alpha >= 0.0) | (log_u < log_alpha)
                x = np.where(acc, y, x)
                lfx = np.where(acc, lfy, lfx)
                states[:, t] = x
                accepted[:, t] = acc
    return ChainTrace(states, accepted, burn_in, tuple((r.seed, r.stream_id) for r in rngs))


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
    b(1) = 0 exactly, accuracy holds as u -> 1 and b is finite for every u.
    """
    _raise_unless(0.0 < u <= 1.0, _U_RANGE, u)
    return _slice_bound(u, math.sqrt)


def _slice_bound(u, sqrt):
    # slice_truncation_bound of a float or an array u in (0, 1]. Scaling s and d
    # by powers of two keeps their bits wherever 4/u is finite, and keeps them
    # finite for u <= 2^-1022 (where b = sqrt(2/(2 sqrt(u) + u)) to rounding).
    v = u * 2.0**56
    s = sqrt((4.0 - 3.0 * u) / v)  # sqrt((4-3u)/u) / 2^28
    d = 4.0 * (1.0 - u) / v  # (s^2 - 1) / 2^56 without cancellation
    return sqrt(d / (2.0 * (s + 2.0**-28))) * 2.0**14


_U_RANGE = "u must be in (0, 1], got {!r}"
_DEAD_SLICE = "truncation interval [-{0}, {0}] has probability {1:.3e}, below machine threshold"


def _raise_unless(ok, message, *values):
    if not ok:
        raise ValueError(message.format(*values))


def _raise_unless_rows(ok, message, *values):
    # _raise_unless for the lowest row of `ok` that is False, as ChainFailure.
    if not ok.all():
        row = int(np.argmin(ok))
        raise ChainFailure(row, ValueError(message.format(*(float(v[row]) for v in values))))


def _slice_step(x, f_aux, f_cdf, sqrt, erfc, ppf, check, maximum, minimum):
    # One slice/Gibbs update of x, a float or a (K,) row of lockstep states, from
    # two open floats and the caller's primitives (math's or elementwise ones);
    # check(ok, message, *values) raises unless ok, before the values are used.
    x2 = x * x
    u = f_aux / (1.0 + x2 + x2 * x2)
    check((u > 0.0) & (u <= 1.0), _U_RANGE, u)
    b = _slice_bound(u, sqrt)
    v = b / _SQRT2
    pa = 0.5 * erfc(v)  # Phi(-b)
    mass = 0.5 * erfc(-v) - pa  # Phi(b) - Phi(-b)
    check(mass > _MIN_TAIL_MASS, _DEAD_SLICE, b, mass)
    p = pa + f_cdf * mass
    check((p > 0.0) & (p < 1.0), "norm_ppf requires 0 < p < 1, got {!r}", p)
    # sample_truncated_normal(rng, 0, 1, -b, b) bit for bit; its 2nd clamp is a no-op
    return 0.0 + minimum(maximum(ppf(p), -b), b)


_FLOAT_STEP = (math.sqrt, math.erfc, norm_ppf, _raise_unless, max, min)
_ROW_STEP = (np.sqrt, functools.partial(_libm, math.erfc), norm_ppf_many,
             _raise_unless_rows, np.maximum, np.minimum)


def _finite_state(x) -> float:
    x = float(x)
    _raise_unless(math.isfinite(x), "state must be finite, got {!r}", x)
    return x


def slice_gibbs_step(x: float, rng: RngStream) -> float:
    """One slice/Gibbs update: u | x uniform on the slice, then x | u.

    u ~ U(0, 1/(1+x^2+x^4)) drawn on the open interval, so u > 0 and the
    truncation bound b always exceeds |x|; x | u is N(0, 1) truncated to
    [-b, b] by inversion. Reads two floats through rng.next_float_open().
    """
    x = _finite_state(x)
    return _slice_step(x, rng.next_float_open(), rng.next_float_open(), *_FLOAT_STEP)


def run_gibbs_chain(init: float, iters: int, burn_in: int,
                    rng: RngStream) -> ChainTrace:
    """Run the slice/Gibbs chain for the ratio target; accepted is None.

    Step t is slice_gibbs_step on open floats 2t and 2t+1 of the stream.
    """
    _check_lengths(iters, burn_in)
    states = np.empty(iters)
    x = _finite_state(init)
    for start in range(0, iters, _BLOCK):
        stop = min(start + _BLOCK, iters)
        floats = rng.floats_open(2 * (stop - start)).tolist()
        for t, f_aux, f_cdf in zip(range(start, stop), floats[0::2], floats[1::2]):
            x = _slice_step(x, f_aux, f_cdf, *_FLOAT_STEP)
            states[t] = x
    return ChainTrace(states, None, burn_in, (rng.seed, rng.stream_id))


def run_gibbs_chains(init: float, iters: int, burn_in: int,
                     rngs: Sequence[RngStream]) -> ChainTrace:
    """run_gibbs_chain on each stream of `rngs`, the K chains stepped in lockstep.

    Returns one trace with (K, iters) states. Row k equals
    run_gibbs_chain(init, iters, burn_in, rngs[k]) bit for bit, seed_info[k]
    is rngs[k]'s (seed, stream_id), and rngs[k] ends where that call would
    leave it. A failing step raises ChainFailure for the lowest row failing
    its first failing check, with the error run_gibbs_chain raises there.
    """
    _check_lengths(iters, burn_in)
    x = np.full(len(rngs), _finite_state(init))
    states = np.empty((len(rngs), iters))
    floats = np.empty((2 * _BLOCK, len(rngs)))  # (draw, row): one contiguous row per draw
    # x^4 of a large state is inf, silently, as in run_gibbs_chain's floats.
    with np.errstate(over="ignore"):
        for start in range(0, iters, _BLOCK):
            n = min(_BLOCK, iters - start)
            for row, rng in enumerate(rngs):
                floats[:2 * n, row] = rng.floats_open(2 * n)
            for t, f_aux, f_cdf in zip(range(start, start + n),
                                       floats[0:2 * n:2], floats[1:2 * n:2]):
                x = _slice_step(x, f_aux, f_cdf, *_ROW_STEP)
                states[:, t] = x
    return ChainTrace(states, None, burn_in, tuple((r.seed, r.stream_id) for r in rngs))


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
    batches are needed for a spread. `values` is one chain, of shape (T,);
    a (K, T) block of chains raises rather than being batched as one
    sequence. A non-finite value raises, naming its index.
    """
    if not isinstance(n_batches, numbers.Integral) or n_batches < 2:
        raise ValueError(f"n_batches must be an integer >= 2, got {n_batches!r}")
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"values must be one chain of shape (T,), got shape {v.shape}")
    if v.size < 4:
        raise ValueError("need at least 4 values for batch means")
    bad = np.flatnonzero(~np.isfinite(v))
    if len(bad):
        raise ValueError(f"non-finite value {float(v.flat[bad[0]])!r} at index {bad[0]}")
    n_batches = min(n_batches, v.size // 2)
    m = v.size // n_batches
    batches = v[:n_batches * m].reshape(n_batches, m).mean(axis=1)
    return float(np.std(batches, ddof=1) / math.sqrt(n_batches))
