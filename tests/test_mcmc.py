"""MH kernel, scale calibration, slice/Gibbs sampler, discrete oracle."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcstat.mcmc import (
    CalibrationError,
    ChainFailure,
    ChainTrace,
    RwProposal,
    batch_means_se,
    calibrate_scale,
    calibrate_scale_report,
    discrete_mh_transition_matrix,
    run_gibbs_chain,
    run_gibbs_chains,
    run_mh_chain,
    run_mh_chains,
    slice_gibbs_step,
    slice_truncation_bound,
)
from mcstat.rng import (_BLOCK, RngStream, derive_substream, norm_cdf,
                        rng_new, sample_normal)
from mcstat.targets import (
    TargetDensity,
    example_target_cdf_many,
    example_target_logpdf,
)

from conftest import NanStream, ks_critical, ks_statistic

EXAMPLE = TargetDensity(example_target_logpdf, -10.0, 10.0, "example")


# ---------------------------------------------------------------------------
# Acceptance rule, observed through one-step chains on scripted uniforms
# ---------------------------------------------------------------------------

class _ScriptedStream(RngStream):
    """Replays fixed open uniforms; an MH step draws the proposal's normal
    by inversion of the first and compares the second with alpha. The
    chain reads its uniforms as blocks, so the script serves floats_open."""

    def __init__(self, *us):
        super().__init__(0)
        self._us = list(us)

    def floats_open(self, n):
        return np.array([self._us.pop(0) for _ in range(n)])


def _one_step(x, z_u, u):
    tr = run_mh_chain(EXAMPLE, RwProposal(1.0), x, 1, 0, _ScriptedStream(z_u, u))
    return tr.states[0], bool(tr.accepted[0])


def test_acceptance_log_prob_reference_values():
    # downhill move 0 -> 1: alpha = f(1)/f(0) = exp(-0.5)/3
    alpha = math.exp(-0.5 - math.log(3.0))
    y, a = _one_step(0.0, norm_cdf(1.0), 0.99 * alpha)
    assert a and y == pytest.approx(1.0, abs=1e-12)
    assert _one_step(0.0, norm_cdf(1.0), 1.01 * alpha) == (0.0, False)
    # uphill move 1 -> 0 is accepted whatever the uniform
    y, a = _one_step(1.0, norm_cdf(-1.0), 1.0 - 2.0**-53)
    assert a and y == pytest.approx(0.0, abs=1e-12)


def test_acceptance_log_prob_support_handling():
    # a proposal outside [-10, 10] is rejected even for the smallest uniform
    assert _one_step(9.5, norm_cdf(2.0), 2.0**-54) == (9.5, False)
    with pytest.raises(ValueError):
        run_mh_chain(EXAMPLE, RwProposal(1.0), 11.0, 1, 0, rng_new(0))


# ---------------------------------------------------------------------------
# Single MH steps, run as run_mh_chain windows
# ---------------------------------------------------------------------------

def test_tiny_scale_accepts_almost_everything():
    tr = run_mh_chain(EXAMPLE, RwProposal(1e-12), 0.5, 1000, 0, rng_new(40))
    assert int(tr.accepted.sum()) >= 990
    assert abs(tr.states[-1] - 0.5) < 1e-8  # the chain barely moved


def test_mh_step_consumes_fixed_draw_count():
    # same stream position after a step regardless of scale or outcome
    r1, r2 = rng_new(41), rng_new(41)
    small = run_mh_chain(EXAMPLE, RwProposal(0.5), 0.0, 1, 0, r1)
    large = run_mh_chain(EXAMPLE, RwProposal(50.0), 0.0, 1, 0, r2)
    assert small.accepted[0] != large.accepted[0]  # one accept, one reject
    assert r1.next_u64() == r2.next_u64()


def test_mh_step_rejection_returns_exact_state():
    tr = run_mh_chain(EXAMPLE, RwProposal(8.0), 0.25, 200, 0, rng_new(42))
    prev = np.concatenate(([0.25], tr.states[:-1]))
    rejected = ~tr.accepted
    assert rejected.any()
    assert np.array_equal(tr.states[rejected], prev[rejected])  # bitwise


def test_mh_step_rejects_invalid_current_state():
    with pytest.raises(ValueError):
        run_mh_chain(EXAMPLE, RwProposal(1.0), -10.5, 1, 0, rng_new(0))
    with pytest.raises(ValueError):
        calibrate_scale_report(EXAMPLE, 0.5, 11.0, rng_new(0))


# ---------------------------------------------------------------------------
# run_mh_chain
# ---------------------------------------------------------------------------

def test_chain_shapes_and_retained():
    tr = run_mh_chain(EXAMPLE, RwProposal(1.2), 0.0, 500, 100, rng_new(43))
    assert len(tr.states) == 500
    assert len(tr.accepted) == 500
    assert len(tr.retained()) == 400
    assert tr.burn_in == 100
    assert 0.0 < tr.acceptance_rate < 1.0


def test_chain_replay_from_seed_info():
    stream = derive_substream(rng_new(7), 3)
    tr = run_mh_chain(EXAMPLE, RwProposal(1.2), 0.0, 300, 0, stream)
    replay = run_mh_chain(EXAMPLE, RwProposal(1.2), 0.0, 300, 0,
                          RngStream(*tr.seed_info))
    assert np.array_equal(tr.states, replay.states)
    assert np.array_equal(tr.accepted, replay.accepted)


def _mh_reference_steps(target, scale, x, steps, rng):
    """Step-by-step MH replay: proposal, log ratio, uniform, accept rule."""
    out = []
    for _ in range(steps):
        y = sample_normal(rng, x, scale)
        log_alpha = min(0.0, target.logpdf(y) - target.logpdf(x))
        u = rng.next_float_open()
        accepted = log_alpha >= 0.0 or math.log(u) < log_alpha
        if accepted:
            x = y
        out.append((x, accepted))
    return out


def test_chain_matches_stepwise_execution():
    # the chain loop must be draw-for-draw identical to the reference replay
    tr = run_mh_chain(EXAMPLE, RwProposal(1.2), 0.3, 200, 0, rng_new(44))
    ref = _mh_reference_steps(EXAMPLE, 1.2, 0.3, 200, rng_new(44))
    for t, (x, a) in enumerate(ref):
        assert tr.states[t] == x
        assert tr.accepted[t] == a


def test_chain_matches_stepwise_execution_across_blocks():
    # several draw blocks plus a partial one; the stream ends where the
    # step-by-step replay leaves it
    n = 3 * _BLOCK + 7
    rng, ref_rng = rng_new(46), rng_new(46)
    tr = run_mh_chain(EXAMPLE, RwProposal(2.0), -0.4, n, 0, rng)
    ref = _mh_reference_steps(EXAMPLE, 2.0, -0.4, n, ref_rng)
    assert tr.states.tolist() == [x for x, _ in ref]
    assert tr.accepted.tolist() == [a for _, a in ref]
    assert rng.state_bytes() == ref_rng.state_bytes()


def test_chain_rejected_steps_repeat_state():
    tr = run_mh_chain(EXAMPLE, RwProposal(3.0), 0.0, 1000, 0, rng_new(45))
    prev = 0.0
    for t in range(1000):
        if tr.accepted[t]:
            assert tr.states[t] != prev
        else:
            assert tr.states[t] == prev
        prev = tr.states[t]


def test_chain_stays_in_support():
    tr = run_mh_chain(EXAMPLE, RwProposal(6.0), 9.5, 2000, 0, rng_new(46))
    assert np.all(np.abs(tr.states) <= 10.0)


def test_chain_length_validation():
    with pytest.raises(ValueError):
        run_mh_chain(EXAMPLE, RwProposal(1.0), 0.0, 100, 100, rng_new(0))
    with pytest.raises(ValueError):
        run_mh_chain(EXAMPLE, RwProposal(1.0), 0.0, 0, 0, rng_new(0))
    with pytest.raises(ValueError):
        run_mh_chain(EXAMPLE, RwProposal(1.0), 0.0, 100, -1, rng_new(0))
    with pytest.raises(ValueError):
        run_mh_chain(EXAMPLE, RwProposal(1.0), 11.0, 100, 0, rng_new(0))


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
def test_rw_proposal_rejects_degenerate_scale(scale):
    # an infinite scale would freeze the chain at its initial state
    with pytest.raises(ValueError):
        RwProposal(scale)


def test_minimal_chain_retains_one_state():
    tr = run_mh_chain(EXAMPLE, RwProposal(1.0), 0.0, 101, 100, rng_new(47))
    assert len(tr.retained()) == 1


def test_acceptance_rate_decreases_with_scale():
    rates = []
    for scale in (0.3, 0.6, 1.2, 2.4, 4.8):
        tr = run_mh_chain(EXAMPLE, RwProposal(scale), 0.0, 20_000, 0,
                          rng_new(48))
        rates.append(tr.acceptance_rate)
    assert all(a > b for a, b in zip(rates, rates[1:])), rates


def test_mh_running_cubic_mean_within_batch_means_band():
    tr = run_mh_chain(EXAMPLE, RwProposal(1.2), 0.0, 101_000, 1000,
                      rng_new(49))
    xs = tr.retained() ** 3
    se = batch_means_se(xs)
    assert abs(xs.mean()) <= 3.0 * se


def test_mh_chain_ks_fit_across_seeds():
    # thin by 20 to de-correlate; KS at 1% must pass for >= 95/100 seeds
    thin = 20
    crit = ks_critical(100_000 // thin, 0.01)
    passed = 0
    for s in range(100):
        stream = derive_substream(rng_new(377), s)
        tr = run_mh_chain(EXAMPLE, RwProposal(1.2), 0.0, 101_000, 1000, stream)
        xs = tr.retained()[::thin]
        if ks_statistic(xs, example_target_cdf_many) < crit:
            passed += 1
    assert passed >= 95, f"only {passed}/100 seeds passed the 1% KS test"


# ---------------------------------------------------------------------------
# Scale calibration
# ---------------------------------------------------------------------------

def test_calibrate_hits_moderate_target():
    for seed in (0, 1, 2):
        rep = calibrate_scale_report(EXAMPLE, 0.5, 0.0, rng_new(seed))
        assert 1.0 <= rep.scale <= 1.4
        assert abs(rep.measured_rate - 0.5) <= 0.05


def test_calibrate_extreme_target_needs_tiny_scale():
    rep = calibrate_scale_report(EXAMPLE, 0.999, 0.0, rng_new(5))
    assert rep.scale < 0.05
    assert rep.measured_rate >= 0.95


def test_calibrate_scale_monotone_in_target():
    lo = calibrate_scale(EXAMPLE, 0.25, 0.0, rng_new(6))
    hi = calibrate_scale(EXAMPLE, 0.70, 0.0, rng_new(6))
    assert lo > hi  # lower acceptance needs a bigger step


def test_calibrate_failure_carries_best_attempt():
    with pytest.raises(CalibrationError) as exc:
        calibrate_scale_report(EXAMPLE, 0.5, 0.0, rng_new(7), tol=1e-6)
    err = exc.value
    assert err.best_scale > 0.0
    assert 0.0 <= err.measured_rate <= 1.0


@pytest.mark.parametrize("target_accept, scale, rate", [
    (0.5, 1.116912815552888, 0.50765),
    (0.25, 2.769425465572066, 0.2523),
])
def test_calibrate_is_bit_exact(target_accept, scale, rate):
    # pinned outputs: any change to the window kernel or its draw order
    # moves the scale, the rate or the stream position
    r = rng_new(6)
    rep = calibrate_scale_report(EXAMPLE, target_accept, 0.0, r)
    assert rep.scale == scale
    assert rep.measured_rate == rate
    assert rep.windows_used == 50
    assert r.next_u64() == 12351011021388903774


def test_calibrate_rejects_bad_target():
    with pytest.raises(ValueError):
        calibrate_scale(EXAMPLE, 0.0, 0.0, rng_new(0))
    with pytest.raises(ValueError):
        calibrate_scale(EXAMPLE, 1.0, 0.0, rng_new(0))


# ---------------------------------------------------------------------------
# Slice truncation bound
# ---------------------------------------------------------------------------

def test_slice_bound_endpoints():
    assert slice_truncation_bound(1.0) == 0.0
    assert abs(slice_truncation_bound(1.0 / 3.0) - 1.0) <= 1e-12


# 2^-1022, its upper neighbour and two subnormals: 4/u overflows from 2^-1022 down
_TINY_US = [2.0**-1022, math.nextafter(2.0**-1022, 1.0), 1e-310, 5e-324]


def _unscaled_bound(u):
    # the textbook form of the bound, finite wherever 4/u is
    s = math.sqrt((4.0 - 3.0 * u) / u)
    return math.sqrt(4.0 * (1.0 - u) / u / (2.0 * (s + 1.0)))


def test_slice_bound_self_consistency():
    r = rng_new(51)
    for _ in range(100):
        u = r.next_float_open()
        b = slice_truncation_bound(u)
        assert abs((1.0 + b * b + b ** 4) - 1.0 / u) <= 1e-10
        assert b == _unscaled_bound(u)
    for u in (_TINY_US[1], 1e-300, 1.0 - 2.0**-53):
        assert slice_truncation_bound(u) == _unscaled_bound(u)
    for u in _TINY_US:
        b = slice_truncation_bound(u)
        assert 0.0 < b < math.inf
        assert abs((b * b * math.sqrt(u)) ** 2 - 1.0) <= 1e-12


def test_slice_bound_monotone_decreasing():
    us = sorted(_TINY_US) + np.linspace(1e-6, 1.0, 200).tolist()
    bs = [slice_truncation_bound(u) for u in us]
    assert all(a >= b for a, b in zip(bs, bs[1:]))


def test_slice_bound_domain_errors():
    for u in (0.0, -0.1, 1.0001, math.nan):
        with pytest.raises(ValueError):
            slice_truncation_bound(u)


# ---------------------------------------------------------------------------
# Slice/Gibbs sampler
# ---------------------------------------------------------------------------

def test_slice_step_respects_its_own_slice():
    # shadow the auxiliary draw on a cloned stream to recover the bound
    r = derive_substream(rng_new(52), 1)
    x = 0.0
    for _ in range(200):
        shadow = RngStream.from_state_bytes(r.state_bytes())
        u = shadow.next_float_open() / (1.0 + x * x + x ** 4)
        b = slice_truncation_bound(u)
        x = slice_gibbs_step(x, r)
        assert -b <= x <= b
        assert u * (1.0 + x * x + x ** 4) <= 1.0 + 1e-10


def test_slice_step_rejects_non_finite_state():
    with pytest.raises(ValueError):
        slice_gibbs_step(math.nan, rng_new(0))


def test_gibbs_chain_shape_and_replay():
    stream = derive_substream(rng_new(53), 2)
    tr = run_gibbs_chain(0.0, 400, 100, stream)
    assert len(tr.states) == 400
    assert len(tr.retained()) == 300
    assert tr.accepted is None
    with pytest.raises(ValueError):
        tr.acceptance_rate
    replay = run_gibbs_chain(0.0, 400, 100, RngStream(*tr.seed_info))
    assert np.array_equal(tr.states, replay.states)


def test_gibbs_chain_matches_stepwise_execution():
    # slice_gibbs_step replayed on the scalar stream, over several blocks
    n = 3 * _BLOCK + 7
    rng, ref_rng = rng_new(56), rng_new(56)
    tr = run_gibbs_chain(0.7, n, 0, rng)
    x, ref = 0.7, []
    for _ in range(n):
        x = slice_gibbs_step(x, ref_rng)
        ref.append(x)
    assert tr.states.tolist() == ref
    assert rng.state_bytes() == ref_rng.state_bytes()


def test_gibbs_running_cubic_mean_within_batch_means_band():
    tr = run_gibbs_chain(0.0, 10_000, 0, rng_new(54))
    xs = tr.states ** 3
    assert abs(xs.mean()) <= 3.0 * batch_means_se(xs)


def test_gibbs_chain_ks_fit_quick():
    # light version of acceptance criterion 3: 10 seeds, thin by 2
    crit = ks_critical(5000, 0.01)
    passed = 0
    for s in range(10):
        tr = run_gibbs_chain(0.0, 10_200, 200, derive_substream(rng_new(55), s))
        xs = tr.retained()[::2]
        if ks_statistic(xs, example_target_cdf_many) < crit:
            passed += 1
    assert passed >= 9


# ---------------------------------------------------------------------------
# Lockstep kernels: bit for bit the scalar runners on the same substreams
# ---------------------------------------------------------------------------

_LOCKSTEP_ITERS = 3 * _BLOCK + 7  # crosses the kernels' block edges
# Proposals from a scale above ~0.5 leave this support often.
NARROW = TargetDensity(lambda x: -0.5 * x * x, -0.5, 1.5, "narrow")


def _substreams(seed, k):
    root = rng_new(seed)
    return [derive_substream(root, j) for j in range(k)]


def _assert_bitwise_equal(lockstep, scalar, rngs, ref_rngs):
    # uint64 views: -0.0 == 0.0 as floats, and the signs must match too
    assert lockstep.states.shape == (len(scalar), _LOCKSTEP_ITERS)
    assert len(lockstep.seed_info) == len(scalar)
    for k, b in enumerate(scalar):
        assert np.array_equal(lockstep.states[k].view(np.uint64), b.states.view(np.uint64))
        if b.accepted is None:
            assert lockstep.accepted is None
        else:
            assert lockstep.accepted.shape == lockstep.states.shape
            assert np.array_equal(lockstep.accepted[k], b.accepted)
        assert (lockstep.burn_in, lockstep.seed_info[k]) == (b.burn_in, b.seed_info)
    assert [r.state_bytes() for r in rngs] == [r.state_bytes() for r in ref_rngs]


@pytest.mark.parametrize("k", [1, 3, 100])
@pytest.mark.parametrize("init", [0.0, 1.3, 1e-200, 40.0, 1e77])
def test_gibbs_chains_match_scalar_runner_bitwise(k, init):
    rngs, ref_rngs = _substreams(61, k), _substreams(61, k)
    lockstep = run_gibbs_chains(init, _LOCKSTEP_ITERS, 100, rngs)
    scalar = [run_gibbs_chain(init, _LOCKSTEP_ITERS, 100, r) for r in ref_rngs]
    _assert_bitwise_equal(lockstep, scalar, rngs, ref_rngs)


@pytest.mark.parametrize("k", [1, 3, 100])
@pytest.mark.parametrize("scale", [0.05, 1.2, 25.0])
@pytest.mark.parametrize("target", [EXAMPLE, NARROW], ids=["example", "narrow"])
def test_mh_chains_match_scalar_runner_bitwise(k, scale, target):
    init = 1.3 if scale == 1.2 else 0.0
    rngs, ref_rngs = _substreams(62, k), _substreams(62, k)
    prop = RwProposal(scale)
    lockstep = run_mh_chains(target, prop, init, _LOCKSTEP_ITERS, 100, rngs)
    scalar = [run_mh_chain(target, prop, init, _LOCKSTEP_ITERS, 100, r)
              for r in ref_rngs]
    _assert_bitwise_equal(lockstep, scalar, rngs, ref_rngs)
    if target is NARROW and scale > 1.0:
        assert not lockstep.accepted.all(axis=1).all()


@pytest.mark.parametrize("shape", [(10,), (3, 10)], ids=["1d", "2d"])
def test_chain_trace_checks_shapes_and_burn_in_on_the_last_axis(shape):
    states = np.zeros(shape)
    info = (5, 0) if len(shape) == 1 else ((5, 0), (5, 1), (5, 2))
    whole = ChainTrace(states, np.zeros(shape, dtype=bool), 10, info)
    assert whole.retained().shape == shape[:-1] + (0,)
    tr = ChainTrace(states, None, 4, info)
    assert tr.retained().shape == shape[:-1] + (6,)
    assert np.shares_memory(tr.retained(), states)  # a view, not a copy
    for bad in (shape[:-1] + (9,), (10, 3), (30,)):
        with pytest.raises(ValueError, match="shape"):
            ChainTrace(states, np.zeros(bad, dtype=bool), 0, info)
    for burn_in in (-1, 11):
        with pytest.raises(ValueError, match="burn_in"):
            ChainTrace(states, None, burn_in, info)


def test_lockstep_failure_names_the_row_with_the_scalar_error():
    def streams():
        rngs = _substreams(63, 4)
        rngs[2] = NanStream(rngs[2].seed, rngs[2].stream_id)
        return rngs

    for lockstep, scalar in [
            (lambda r: run_gibbs_chains(0.0, 300, 0, r),
             lambda r: run_gibbs_chain(0.0, 300, 0, r)),
            (lambda r: run_mh_chains(EXAMPLE, RwProposal(1.2), 0.0, 300, 0, r),
             lambda r: run_mh_chain(EXAMPLE, RwProposal(1.2), 0.0, 300, 0, r))]:
        with pytest.raises(ValueError) as scalar_err:
            scalar(streams()[2])
        with pytest.raises(ChainFailure) as err:
            lockstep(streams())
        assert err.value.row == 2
        assert str(err.value) == str(scalar_err.value)


def test_lockstep_kernels_reject_what_the_scalar_runners_reject():
    with pytest.raises(ValueError, match="exceed burn_in"):
        run_gibbs_chains(0.0, 100, 100, _substreams(0, 2))
    with pytest.raises(ValueError, match="finite"):
        run_gibbs_chains(math.inf, 100, 0, _substreams(0, 2))
    # x^4 overflows: u = 0 fails its check before any division or warning
    with pytest.raises(ValueError) as scalar_err:
        run_gibbs_chain(1e100, 100, 0, _substreams(0, 1)[0])
    with pytest.raises(ChainFailure) as err:
        run_gibbs_chains(1e100, 100, 0, _substreams(0, 2))
    assert str(scalar_err.value) == "u must be in (0, 1], got 0.0"
    assert (err.value.row, str(err.value)) == (0, str(scalar_err.value))
    with pytest.raises(ValueError, match="zero target density"):
        run_mh_chains(EXAMPLE, RwProposal(1.0), 11.0, 100, 0, _substreams(0, 2))


# ---------------------------------------------------------------------------
# Discrete transition matrix oracle
# ---------------------------------------------------------------------------

def _lazy_neighbour_proposal(n):
    q = np.zeros((n, n))
    for i in range(n):
        for step in (-1, 1):
            j = i + step
            if 0 <= j < n:
                q[i, j] += 0.5
            else:
                q[i, i] += 0.5
    return q


def test_uniform_pmf_makes_proposal_the_kernel():
    # every move is accepted, so P must equal q entry for entry
    q = _lazy_neighbour_proposal(7)
    p = discrete_mh_transition_matrix(np.full(7, 1.0 / 7.0), q)
    assert np.array_equal(p, q)


def test_transition_matrix_is_stochastic():
    pmf = np.array([0.1, 0.2, 0.3, 0.15, 0.1, 0.1, 0.05])
    p = discrete_mh_transition_matrix(pmf, _lazy_neighbour_proposal(7))
    assert np.all(p >= 0.0)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-15)


def test_detailed_balance_exact():
    pmf = np.array([0.1, 0.2, 0.3, 0.15, 0.1, 0.1, 0.05])
    p = discrete_mh_transition_matrix(pmf, _lazy_neighbour_proposal(7))
    flow = pmf[:, None] * p
    assert np.abs(flow - flow.T).max() <= 1e-12


def test_stationarity_on_randomized_instance():
    gen = np.random.default_rng(321)
    pmf = gen.uniform(0.05, 1.0, size=7)
    pmf /= pmf.sum()
    q = gen.uniform(0.01, 1.0, size=(7, 7))  # asymmetric Hastings case
    q /= q.sum(axis=1, keepdims=True)
    p = discrete_mh_transition_matrix(pmf, q)
    assert np.abs(pmf @ p - pmf).max() <= 1e-12
    flow = pmf[:, None] * p
    assert np.abs(flow - flow.T).max() <= 1e-12


def test_transition_matrix_validation():
    q = _lazy_neighbour_proposal(3)
    with pytest.raises(ValueError):
        discrete_mh_transition_matrix([0.5, 0.5, 0.1], q)  # does not sum to 1
    with pytest.raises(ValueError):
        discrete_mh_transition_matrix([0.5, 0.5, 0.0], q)  # zero mass state
    with pytest.raises(ValueError):
        discrete_mh_transition_matrix([1 / 3] * 3, np.eye(4))  # shape mismatch
    bad = q.copy()
    bad[0, 0] += 0.5  # row no longer stochastic
    with pytest.raises(ValueError):
        discrete_mh_transition_matrix([1 / 3] * 3, bad)


@given(seed=st.integers(0, 10_000), n=st.integers(2, 9))
@settings(max_examples=50, deadline=None)
def test_detailed_balance_property(seed, n):
    gen = np.random.default_rng(seed)
    pmf = gen.uniform(0.05, 1.0, size=n)
    pmf /= pmf.sum()
    q = gen.uniform(0.01, 1.0, size=(n, n))
    q /= q.sum(axis=1, keepdims=True)
    p = discrete_mh_transition_matrix(pmf, q)
    flow = pmf[:, None] * p
    assert np.abs(flow - flow.T).max() <= 1e-12
    assert np.abs(pmf @ p - pmf).max() <= 1e-12


# ---------------------------------------------------------------------------
# Batch-means standard error
# ---------------------------------------------------------------------------

def test_batch_means_matches_iid_se():
    xs = np.random.default_rng(8).normal(size=100_000)
    se = batch_means_se(xs)
    iid = xs.std(ddof=1) / math.sqrt(xs.size)
    assert 0.5 * iid <= se <= 2.0 * iid


def test_batch_means_constant_sequence_is_zero():
    assert batch_means_se(np.full(1000, 2.5)) == 0.0


def test_batch_means_short_input():
    with pytest.raises(ValueError):
        batch_means_se([1.0, 2.0, 3.0])
    # 8 values fall back to fewer, wider batches instead of failing
    assert batch_means_se(np.arange(8.0)) > 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_batch_means_rejects_non_finite_values(bad):
    xs = np.arange(100.0)
    xs[[37, 60]] = bad
    with pytest.raises(ValueError, match=f"non-finite value {bad!r} at index 37"):
        batch_means_se(xs)


@pytest.mark.parametrize("n_batches", [1, 0, -3, 2.5, 10.0, "10"])
def test_batch_means_needs_two_batches(n_batches):
    with pytest.raises(ValueError, match=rf"n_batches .*got {re.escape(repr(n_batches))}"):
        batch_means_se(np.arange(100.0), n_batches=n_batches)


@pytest.mark.parametrize("shape", [(100, 100), (3, 5), (2, 2, 4)])
def test_batch_means_rejects_a_block_of_chains(shape):
    # A (K, T) block is K chains, not one sequence to batch across.
    xs = np.random.default_rng(0).normal(size=shape)
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        batch_means_se(xs)
