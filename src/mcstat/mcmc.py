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
library (rng._libm one element at a time, or rng._libm_exp's one C loop).
Each sampler has one transition on floats and one on (K,) rows. The float
transitions are loops over one block of draws, _mh_steps and _slice_steps,
which return the block's states (and acceptances) as lists that the single
chain runners (run_mh_chain, also under calibration, and run_gibbs_chain)
store with one slice per block; at K = 1 they beat numpy's per-call
overhead. slice_gibbs_step is a one-pair call of _slice_steps. _mh_steps
takes libm's log of a uniform only when log_alpha < 0 leaves the step to
it, and evaluates the target through TargetDensity._float_logpdf:
log_unnorm itself on a whole-line support, where no proposal can fail the
support test, and logpdf otherwise. The row
steps (run_mh_chains' loop, _slice_rows) share with the float loops only
the slice bound, rng's normal quantile and rng's failure texts. A row
whose step fails raises ChainFailure with the row's index and the float
step's message. Both lockstep kernels read and stage their draws through
one block loop, _staged_blocks, which holds the only draw buffer, and
keep only their per-step arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .rng import (_BLOCK, _DEAD_INTERVAL, _HALF_0D, _MIN_TAIL_MASS, _MIN_TAIL_MASS_0D, _ONE_0D,
                  _P_RANGE, _SQRT2, _SQRT2_0D, _ZERO_0D, ChainFailure, RngStream, _count,
                  _finite, _libm, _norm_ppf_lower, _norm_ppf_many_unchecked,
                  _raise_unless_rows, _real, _zero_d, norm_ppf_many)
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
    consumed, so the trace can be replayed: one pair for a 1-D trace, and
    for a 2-D trace one pair per row, row k's being seed_info[k].
    `burn_in` counts states along the last axis.
    """

    states: np.ndarray
    accepted: np.ndarray | None
    burn_in: int
    seed_info: tuple[int, int] | tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.states.ndim not in (1, 2) or self.states.shape[-1] < 1:
            raise ValueError(f"states must have shape (iters,) or (K, iters) with "
                             f"iters >= 1, got shape {self.states.shape}")
        if self.accepted is not None and self.accepted.shape != self.states.shape:
            raise ValueError(f"accepted has shape {self.accepted.shape}, "
                             f"states {self.states.shape}")
        if np.shape(self.seed_info) != self.states.shape[:-1] + (2,):
            raise ValueError(f"seed_info must hold one (seed, stream_id) pair per row of "
                             f"states of shape {self.states.shape}, got {self.seed_info!r}")
        object.__setattr__(self, "burn_in", _count("burn_in", self.burn_in, 0,
                                                   self.states.shape[-1] + 1))

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
        object.__setattr__(self, "scale", _real("scale", self.scale, 0.0))


def _mh_draws(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # One stream's block of 2n open floats as n MH steps' draws: proposal
    # normals from the even floats, uniforms from the odd ones.
    return norm_ppf_many(block[0::2]), block[1::2]


def _mh_row_draws(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # _mh_draws with libm's log of the uniforms, for the lockstep MH kernel.
    zs, us = _mh_draws(block)
    return zs, _libm(math.log, us)


def _mh_steps(logpdf, scale: float, x: float, lfx: float, zs: list[float],
              us: list[float]) -> tuple[float, float, list[float], list[bool]]:
    # MH steps from (x, log f(x)) on one block of proposal normals zs and open
    # uniforms us: the last (x, log f(x)), then the block's states and
    # acceptances. log u is libm's log, taken only where log_alpha >= 0 does
    # not decide the step, so each decision has the bits of comparing a log
    # uniform drawn every step.
    states: list[float] = []
    accepted: list[bool] = []
    for z, u in zip(zs, us):
        y = x + scale * z  # sample_normal(rng, x, scale), bit for bit
        lfy = logpdf(y)
        log_alpha = lfy - lfx
        if log_alpha >= 0.0 or math.log(u) < log_alpha:
            x, lfx = y, lfy
            accepted.append(True)
        else:
            accepted.append(False)
        states.append(x)
    return x, lfx, states, accepted


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
    iters, burn_in = _check_lengths(iters, burn_in)
    states = np.empty(iters)
    accepted = np.empty(iters, dtype=bool)
    x, lfx = _mh_start(target, init)
    logpdf = target._float_logpdf()
    for start in range(0, iters, _BLOCK):
        stop = min(start + _BLOCK, iters)
        zs, us = _mh_draws(rng.floats_open(2 * (stop - start)))
        x, lfx, states[start:stop], accepted[start:stop] = _mh_steps(
            logpdf, prop.scale, x, lfx, zs.tolist(), us.tolist())
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
    _check_streams(rngs)
    iters, burn_in = _check_lengths(iters, burn_in)
    x, lfx = (np.full(len(rngs), v) for v in _mh_start(target, init))
    states = np.empty((len(rngs), iters))
    accepted = np.empty((len(rngs), iters), dtype=bool)
    scale = np.array(prop.scale)  # 0-d: see rng's module docstring
    logpdf_many = target.logpdf_many
    # States hold the proposal normals until step t overwrites its column.
    for start, stop, log_us in _staged_blocks(rngs, states, _mh_row_draws):
        # A proposal that overflows is inf, silently, as in run_mh_chain's floats.
        with np.errstate(over="ignore"):
            for t in range(start, stop):
                y = x + states[:, t] * scale
                lfy = logpdf_many(y)
                log_alpha = lfy - lfx
                acc = (log_alpha >= _ZERO_0D) | (log_us[:, t - start] < log_alpha)
                x = np.where(acc, y, x)
                lfx = np.where(acc, lfy, lfx)
                states[:, t] = x
                accepted[:, t] = acc
    return ChainTrace(states, accepted, burn_in, tuple((r.seed, r.stream_id) for r in rngs))


def _staged_blocks(rngs: Sequence[RngStream], states: np.ndarray,
                   split: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
                   ) -> Iterator[tuple[int, int, np.ndarray]]:
    """The lockstep kernels' one block loop over their (K, iters) `states`.

    Per block of n <= rng's block size steps, reads 2n open floats from each
    row's own stream, row by row, and `split`s them into n first draws (the
    MH proposal normals, the Gibbs auxiliary floats) and n second draws (the
    MH log uniforms, the Gibbs CDF floats). A row's first draws go straight
    into its own columns of the block, states[row, start:stop]: step t reads
    column t and then overwrites it with the new state. The second draws
    wait in the one draw buffer, `seconds`, of shape (K, min(block, iters)),
    step t's at column t - start. So a kernel holds its trace and one
    buffer. A row whose draws fail raises ChainFailure with its index.
    Yields (start, stop, seconds) once per block, after staging the block.
    """
    k, iters = states.shape
    seconds = np.empty((k, min(_BLOCK, iters)))
    for start in range(0, iters, _BLOCK):
        stop = min(start + _BLOCK, iters)
        for row, rng in enumerate(rngs):
            try:
                states[row, start:stop], seconds[row, :stop - start] = split(
                    rng.floats_open(2 * (stop - start)))
            except ValueError as exc:
                raise ChainFailure(row, exc) from exc
        yield start, stop, seconds


def _mh_start(target: TargetDensity, init: float) -> tuple[float, float]:
    # (x, log f(x)) for an MH chain's initial state.
    x = _real("init", init)
    lfx = target.logpdf(x)
    if not math.isfinite(lfx):
        raise ValueError(f"init {x!r} has zero target density")
    return x, lfx


def _check_streams(rngs: Sequence[RngStream]) -> None:
    if len(rngs) == 0:
        raise ValueError("a lockstep kernel needs at least one stream, got none")


def _check_lengths(iters: int, burn_in: int) -> tuple[int, int]:
    burn_in = _count("burn_in", burn_in)
    return _count("iters", iters, burn_in + 1), burn_in


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
    target_accept = _real("target_accept", target_accept, 0.0, 1.0)
    tol = _real("tol", tol, 0.0)
    init, _ = _mh_start(target, init)

    log_scale = 0.0
    x = init
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
    if not 0.0 < u <= 1.0:
        raise ValueError(_U_RANGE.format(u))
    return _slice_bound(u, math.sqrt)


def _slice_bound(u, sqrt, scale=2.0**56, four=4.0, three=3.0, one=1.0, two=2.0,
                 eps=2.0**-28, unscale=2.0**14):
    # slice_truncation_bound of a float or an array u in (0, 1]. Scaling s and d
    # by powers of two keeps their bits wherever 4/u is finite, and keeps them
    # finite for u <= 2^-1022 (where b = sqrt(2/(2 sqrt(u) + u)) to rounding).
    # Array callers pass _SLICE_BOUND_0D, the constants' 0-d twins.
    v = u * scale
    s = sqrt((four - three * u) / v)  # sqrt((4-3u)/u) / 2^28
    d = four * (one - u) / v  # (s^2 - 1) / 2^56 without cancellation
    return sqrt(d / (two * (s + eps))) * unscale


# _slice_bound's float constants as 0-d float64 arrays (see rng's module docstring).
_SLICE_BOUND_0D = _zero_d((2.0**56, 4.0, 3.0, 1.0, 2.0, 2.0**-28, 2.0**14))


_U_RANGE = "u must be in (0, 1], got {!r}"


def _slice_steps(x: float, floats: Sequence[float]) -> tuple[float, list[float]]:
    # Slice/Gibbs updates of the float state x, one per pair (f_aux, f_cdf) of
    # open floats in `floats`: the last state and the list of states. Each
    # check raises before the arithmetic that needs its value.
    states: list[float] = []
    pairs = iter(floats)
    for f_aux, f_cdf in zip(pairs, pairs):
        x2 = x * x
        u = f_aux / (1.0 + x2 + x2 * x2)
        if not 0.0 < u <= 1.0:
            raise ValueError(_U_RANGE.format(u))
        b = _slice_bound(u, math.sqrt)
        v = b / _SQRT2
        pa = 0.5 * math.erfc(v)  # Phi(-b)
        mass = 0.5 * math.erfc(-v) - pa  # Phi(b) - Phi(-b)
        if not mass > _MIN_TAIL_MASS:
            raise ValueError(_DEAD_INTERVAL.format(-b, b, mass))
        p = pa + f_cdf * mass
        if not 0.0 < p < 1.0:
            raise ValueError(_P_RANGE.format(p))
        # sample_truncated_normal(rng, 0, 1, -b, b) bit for bit; its 2nd clamp is a no-op
        z = -_norm_ppf_lower(1.0 - p) if p > 0.5 else _norm_ppf_lower(p)
        x = 0.0 + min(max(z, -b), b)
        states.append(x)
    return x, states


def _slice_rows(x: np.ndarray, f_aux: np.ndarray, f_cdf: np.ndarray) -> np.ndarray:
    # One _slice_steps pair on each element of a (K,) row of lockstep states,
    # bit for bit. A failing check raises ChainFailure for the lowest row that
    # fails it. Its constants are the 0-d twins of _slice_steps' floats: rng's,
    # and _SLICE_BOUND_0D for the slice bound.
    x2 = x * x
    u = f_aux / (_ONE_0D + x2 + x2 * x2)
    _raise_unless_rows((u > _ZERO_0D) & (u <= _ONE_0D), _U_RANGE, u)
    b = _slice_bound(u, np.sqrt, *_SLICE_BOUND_0D)
    neg_b = -b
    v = b / _SQRT2_0D
    phi = _HALF_0D * _libm(math.erfc, np.concatenate((v, -v)))  # Phi(-b), then Phi(b)
    pa = phi[:len(v)]
    mass = phi[len(v):] - pa
    _raise_unless_rows(mass > _MIN_TAIL_MASS_0D, _DEAD_INTERVAL, neg_b, b, mass)
    p = pa + f_cdf * mass
    _raise_unless_rows((p > _ZERO_0D) & (p < _ONE_0D), _P_RANGE, p)
    return _ZERO_0D + np.minimum(np.maximum(_norm_ppf_many_unchecked(p), neg_b), b)


def slice_gibbs_step(x: float, rng: RngStream) -> float:
    """One slice/Gibbs update: u | x uniform on the slice, then x | u.

    u ~ U(0, 1/(1+x^2+x^4)) drawn on the open interval, so u > 0 and the
    truncation bound b always exceeds |x|; x | u is N(0, 1) truncated to
    [-b, b] by inversion. Reads two floats through rng.next_float_open().
    """
    x = _real("x", x)
    return _slice_steps(x, (rng.next_float_open(), rng.next_float_open()))[0]


def run_gibbs_chain(init: float, iters: int, burn_in: int,
                    rng: RngStream) -> ChainTrace:
    """Run the slice/Gibbs chain for the ratio target; accepted is None.

    Step t is slice_gibbs_step on open floats 2t and 2t+1 of the stream.
    """
    iters, burn_in = _check_lengths(iters, burn_in)
    states = np.empty(iters)
    x = _real("init", init)
    for start in range(0, iters, _BLOCK):
        stop = min(start + _BLOCK, iters)
        x, states[start:stop] = _slice_steps(x, rng.floats_open(2 * (stop - start)).tolist())
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
    _check_streams(rngs)
    iters, burn_in = _check_lengths(iters, burn_in)
    x = np.full(len(rngs), _real("init", init))
    states = np.empty((len(rngs), iters))
    # States hold the auxiliary floats until step t overwrites its column.
    for start, stop, f_cdfs in _staged_blocks(rngs, states, lambda b: (b[0::2], b[1::2])):
        # x^4 of a large state is inf, silently, as in run_gibbs_chain's floats.
        with np.errstate(over="ignore"):
            for t in range(start, stop):
                x = _slice_rows(x, states[:, t], f_cdfs[:, t - start])
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
    n_batches = _count("n_batches", n_batches, 2)
    v = _finite("values", values)
    if v.ndim != 1:
        raise ValueError(f"values must be one chain of shape (T,), got shape {v.shape}")
    if v.size < 4:
        raise ValueError("need at least 4 values for batch means")
    n_batches = min(n_batches, v.size // 2)
    m = v.size // n_batches
    batches = v[:n_batches * m].reshape(n_batches, m).mean(axis=1)
    return float(np.std(batches, ddof=1) / math.sqrt(n_batches))
