"""Running moments, importance sampling, and the three evidence estimators."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcstat.estimators import (
    RunningEstimate,
    SnisResult,
    _bridge_rows,
    _chib_rows,
    _harmonic_rows,
    bridge_log_evidence,
    chib_log_evidence,
    ess,
    harmonic_mean_log_evidence,
    mc_estimate,
    running_moments,
    self_normalized_is,
)
from mcstat.mcmc import ChainFailure
from mcstat.rng import NormalDist, derive_substream, rng_new, sample_normal
from mcstat.targets import (
    ConjugateNormalModel,
    TargetDensity,
    analytic_log_evidence,
    cubic_ratio,
    example_target_logpdf,
    gaussian_functional_expectation,
    get_model,
    posterior_params,
)

GAUSS0 = TargetDensity(lambda x: -0.5 * x * x)


# ---------------------------------------------------------------------------
# RunningEstimate / running_moments
# ---------------------------------------------------------------------------

def _welford_reference(xs, cps):
    # The scalar Welford loop, one Python float at a time, as the reference
    # for the lockstep running_moments.
    snaps, n, mean, m2 = [], 0, 0.0, 0.0
    for v in xs[:cps[-1]]:
        n += 1
        d = v - mean
        mean += d / n
        m2 += d * (v - mean)
        if n in cps:
            snaps.append((mean, m2))
    return snaps


def _scalar_variance_and_se(count, m2):
    # The per-snapshot scalar formulas, with their count < 2 branch, as the
    # reference for RunningEstimate's elementwise array properties.
    if count < 2:
        return 0.0, 0.0
    return m2 / count, math.sqrt(m2 / count) / math.sqrt(count)


def test_running_moments_constant_sequence():
    est = running_moments([3.25] * 10, [10])
    assert isinstance(est, RunningEstimate)
    assert est.count.tolist() == [10]
    assert est.mean.tolist() == [3.25]
    assert est.variance.tolist() == [0.0]
    assert est.se.tolist() == [0.0]


def test_running_moments_small_example():
    est = running_moments([1.0, 2.0, 3.0, 4.0], [1, 2, 4])
    assert est.count.tolist() == [1, 2, 4]
    assert (est.mean[0], est.m2[0]) == (1.0, 0.0)
    assert (est.mean[1], est.m2[1]) == (1.5, 0.5)
    assert est.mean[2] == pytest.approx(2.5, rel=1e-15)
    assert est.m2[2] == pytest.approx(5.0, rel=1e-15)
    assert est.variance[2] == pytest.approx(5.0 / 4.0, rel=1e-15)
    assert est.se[2] == pytest.approx(math.sqrt(5.0 / 4.0) / 2.0, rel=1e-15)


def test_running_moments_checkpoint_bounds():
    est = running_moments([1.0, 2.0, 3.0, 4.0, 5.0], [2, 3])
    assert est.mean.tolist() == [1.5, 2.0] and est.m2.tolist() == [0.5, 2.0]
    # nothing past the last checkpoint is read, so a NaN there is not rejected
    est = running_moments([[1.0, 2.0, 3.0, math.nan]] * 2, [2, 3])
    assert est.mean.tolist() == [[1.5, 2.0]] * 2
    with pytest.raises(ValueError, match="shorter"):
        running_moments([1.0, 2.0], [1, 3])
    for cps in ([2, 2], [3, 1], [0, 2]):
        with pytest.raises(ValueError, match="strictly increasing|^cps must be an integer >= 1"):
            running_moments([1.0, 2.0, 3.0], cps)
    est = running_moments([1.0], [])
    assert est.count.shape == est.mean.shape == est.m2.shape == (0,)


def test_single_observation_has_zero_se():
    # After one value m2 is 0.0 + d * (x - mean), exactly +0.0 even when the
    # product is -0.0 (a negative value), so variance and se are +0.0 there
    # without a count < 2 branch; for 1-D and 2-D input alike.
    for values in ([7.0, 1.0], [-7.0, 1.0], [[-7.0, 2.0], [3.0, -1.5], [-0.25, 4.0]]):
        est = running_moments(values, [1, 2])
        assert est.count[0] == 1
        first = np.stack([est.m2[..., 0], est.variance[..., 0], est.se[..., 0]])
        assert np.all(first == 0.0) and not np.any(np.signbit(first))


def test_non_finite_update_reports_iteration():
    with pytest.raises(ValueError, match="^values must be finite, got nan at index 3$"):
        running_moments([1.0, 2.0, 3.0, math.nan], [4])
    with pytest.raises(ValueError, match="^values must be finite, got inf at index 3$"):
        running_moments([1.0, 2.0, 3.0, math.inf], [4])
    block = np.ones((4, 6))
    block[2, 4] = math.nan
    block[3, 1] = math.inf
    with pytest.raises(ValueError, match=r"^values must be finite, got nan at index \(2, 4\)$"):
        running_moments(block, [6])


def test_shifted_large_magnitude_variance():
    # classic cancellation trap for naive sum-of-squares accumulators
    est = running_moments([1e8, 1e8 + 1.0, 1e8 + 2.0], [3])
    assert est.m2[0] == pytest.approx(2.0, rel=1e-10)
    assert est.variance[0] == pytest.approx(2.0 / 3.0, rel=1e-10)


def test_array_se_and_variance_match_scalar_formulas():
    gen = np.random.default_rng(7)
    block = gen.standard_normal((6, 400)) * 10.0 ** gen.integers(-6, 7, size=(6, 1))
    block[0] = -np.abs(block[0])  # negative first values: m2 = 0.0 + (-0.0)
    cps = [1, 2, 3, 10, 57, 399, 400]
    est = running_moments(block, cps)
    for k in range(block.shape[0]):
        for i, c in enumerate(cps):
            variance, se = _scalar_variance_and_se(c, float(est.m2[k, i]))
            assert est.variance[k, i].tobytes() == np.float64(variance).tobytes()
            assert est.se[k, i].tobytes() == np.float64(se).tobytes()


_adversarial_floats = st.one_of(st.floats(-1e8, -1e-8), st.floats(1e-8, 1e8),
                                st.just(0.0))
_adversarial = st.lists(_adversarial_floats, min_size=2, max_size=50)


@given(xs=_adversarial)
@settings(max_examples=200, deadline=None)
def test_one_pass_matches_batch(xs):
    est = running_moments(xs, [len(xs)])
    arr = np.array(xs)
    batch_mean = math.fsum(xs) / len(xs)
    batch_m2 = math.fsum((v - batch_mean) ** 2 for v in xs)
    assert abs(est.mean[0] - batch_mean) <= 1e-12 * max(1.0, np.abs(arr).max())
    assert abs(est.m2[0] - batch_m2) <= 1e-12 * max(1.0, float(np.sum(arr * arr)))


@given(rows=st.integers(2, 30).flatmap(lambda t: st.lists(
           st.lists(_adversarial_floats, min_size=t, max_size=t),
           min_size=1, max_size=4)),
       data=st.data())
@settings(max_examples=100, deadline=None)
def test_lockstep_rows_match_scalar_welford(rows, data):
    t = len(rows[0])
    cps = sorted(data.draw(st.sets(st.integers(1, t), min_size=1)))
    est = running_moments(np.array(rows), cps)
    assert est.mean.shape == est.m2.shape == (len(rows), len(cps))
    for k, row in enumerate(rows):
        ref = np.array(_welford_reference(row, cps))
        one = running_moments(row, cps)
        for mean, m2 in ((est.mean[k], est.m2[k]), (one.mean, one.m2)):
            assert mean.tobytes() == ref[:, 0].tobytes()
            assert m2.tobytes() == ref[:, 1].tobytes()


# ---------------------------------------------------------------------------
# mc_estimate
# ---------------------------------------------------------------------------

def test_mc_estimate_trace_shape_and_batch_mean():
    r = rng_new(21)
    trace = mc_estimate(lambda g: sample_normal(g, 0.0, 1.0), lambda x: x,
                        500, r)
    assert trace.count.shape == trace.mean.shape == trace.m2.shape == (500,)
    assert trace.count[-1] == 500
    replay = rng_new(21)
    xs = [sample_normal(replay, 0.0, 1.0) for _ in range(500)]
    assert trace.mean[-1] == pytest.approx(np.mean(xs), rel=1e-12)


def test_mc_estimate_se_follows_sqrt_t_law():
    r = rng_new(22)
    trace = mc_estimate(lambda g: sample_normal(g, 0.0, 1.0), lambda x: x,
                        5000, r)
    ts = np.array([100 * 2 ** k for k in range(6)])
    ses = trace.se[ts - 1]
    slope = np.polyfit(np.log(ts), np.log(ses), 1)[0]
    assert abs(slope + 0.5) <= 0.1


def test_mc_estimate_gaussian_functional(goldens):
    r = rng_new(23)
    trace = mc_estimate(lambda g: sample_normal(g, 2.5, 1.0), cubic_ratio,
                        100_000, r)
    assert abs(trace.mean[-1] - goldens["gfe_2.5"]) <= 3.0 * trace.se[-1]


def test_mc_estimate_propagates_bad_h():
    def sampler(g):
        return sample_normal(g, 0.0, 1.0)

    calls = 0

    def h(x):
        nonlocal calls
        calls += 1
        return math.nan if calls == 57 else x

    with pytest.raises(ValueError, match="57"):
        mc_estimate(sampler, h, 100, rng_new(0))


# ---------------------------------------------------------------------------
# Effective sample size
# ---------------------------------------------------------------------------

def test_ess_equal_weights():
    assert ess([0.0] * 50) == pytest.approx(50.0, rel=1e-14)
    assert ess([-3.7] * 8) == pytest.approx(8.0, rel=1e-14)


def test_ess_single_dominant_weight():
    assert ess([0.0, -700.0, -700.0]) == pytest.approx(1.0, abs=1e-12)


def test_ess_two_dominant_weights():
    lw = [0.0, 0.0] + [-800.0] * 10
    assert ess(lw) == pytest.approx(2.0, abs=1e-12)


@given(lw=st.lists(st.floats(-500.0, 0.0), min_size=1, max_size=200))
@settings(max_examples=200, deadline=None)
def test_ess_bounds_property(lw):
    e = ess(lw)
    assert 1.0 - 1e-9 <= e <= len(lw) + 1e-9


def test_ess_gives_a_log_weight_beyond_the_float_range_below_the_max_zero_weight():
    # 1e308 - -1e308 overflows to -inf: weight 0, without a warning, as
    # for a log weight merely far below the max
    assert ess([1e308, -1e308]) == ess([1e308, -1e300]) == 1.0
    assert ess([1e308, 1e308, -1e308]) == 2.0


def test_ess_rejects_bad_input():
    with pytest.raises(ValueError):
        ess([])
    with pytest.raises(ValueError):
        ess([0.0, math.nan])
    with pytest.raises(ValueError):
        ess([0.0, math.inf])
    with pytest.raises(ValueError):
        ess([-math.inf, -math.inf])


# ---------------------------------------------------------------------------
# Self-normalized importance sampling
# ---------------------------------------------------------------------------

def test_snis_identity_proposal_reduces_to_plain_mean():
    # proposal == target: all weights equal, so SNIS is the sample mean
    target = GAUSS0
    res = self_normalized_is(target, NormalDist(0.0, 1.0), lambda x: x * x,
                             2000, rng_new(31))
    replay = rng_new(31)
    xs = [NormalDist(0.0, 1.0).sample(replay) for _ in range(2000)]
    assert res.ess == pytest.approx(2000.0, rel=1e-12)
    assert res.estimate == pytest.approx(np.mean(np.array(xs) ** 2), rel=1e-12)
    assert not res.low_ess_warning


def test_snis_heavy_tailed_proposal_odd_moment():
    # N(0, 1.5^2) has heavier tails than the target's exp(-x^2/2) factor
    target = TargetDensity(example_target_logpdf, -10.0, 10.0, "example")
    res = self_normalized_is(target, NormalDist(0.0, 1.5),
                             lambda x: x ** 3, 10_000, rng_new(32))
    assert abs(res.estimate - 0.0) <= 3.0 * res.se
    assert res.se > 0.0
    assert res.n_draws == 10_000


def test_snis_wide_normal_proposal_second_moment():
    target = GAUSS0
    res = self_normalized_is(target, NormalDist(0.0, 2.0), lambda x: x * x,
                             100_000, rng_new(33))
    assert abs(res.estimate - 1.0) <= 0.05


def test_snis_unnormalized_target_invariance():
    # adding a constant to the log target must not move the estimate
    base = TargetDensity(example_target_logpdf, -10.0, 10.0, "example")
    shifted = TargetDensity(lambda x: example_target_logpdf(x) + 123.456,
                            -10.0, 10.0, "shifted")
    a = self_normalized_is(base, NormalDist(0.0, 1.5), lambda x: x * x,
                           4000, rng_new(34))
    b = self_normalized_is(shifted, NormalDist(0.0, 1.5), lambda x: x * x,
                           4000, rng_new(34))
    assert a.estimate == pytest.approx(b.estimate, rel=1e-12)
    assert a.ess == pytest.approx(b.ess, rel=1e-12)


def test_snis_bootstrap_replays_from_its_stream():
    # Two runs on the same (seed, stream_id) give the same SE bits, and the
    # stream ends exactly 200 resamples of T open floats after the proposal
    # draws: the bootstrap's indices come from the stream itself.
    T, prop = 500, NormalDist(0.0, 1.5)
    runs = [derive_substream(rng_new(41), 3) for _ in range(2)]
    a, b = (self_normalized_is(GAUSS0, prop, lambda x: x * x, T, rng) for rng in runs)
    assert np.float64(a.se).view(np.uint64) == np.float64(b.se).view(np.uint64)
    assert a.se > 0.0
    replay = derive_substream(rng_new(41), 3)
    for _ in range(T):
        prop.sample(replay)
    replay.floats_open(200 * T)
    assert runs[0].state_bytes() == runs[1].state_bytes() == replay.state_bytes()
    # the largest open float, 1 - 2^-53, still gives an index below T
    for n in (1, 3, 10**4, 2**31 - 1, 2**31 + 1):
        assert (np.array([1.0 - 2.0**-53]) * n).astype(np.intp)[0] == n - 1


class _BoxDist:
    """Proposal with density on [0, 1] whose draws land in [2, 3)."""

    def sample(self, rng):
        return 2.0 + rng.next_float()

    def logpdf(self, x):
        return 0.0 if 0.0 <= x <= 1.0 else -math.inf


def test_snis_support_violation_raises():
    # proposal density is zero at a point where the target still has mass
    target = TargetDensity(example_target_logpdf, -10.0, 10.0, "example")
    with pytest.raises(ValueError, match="support"):
        self_normalized_is(target, _BoxDist(), lambda x: x, 10, rng_new(35))


def test_snis_rejects_nan_weights():
    # draws where both densities are zero give log weight -inf - -inf = NaN
    target = TargetDensity(example_target_logpdf, -10.0, 1.5, "example")
    with pytest.raises(ValueError, match="NaN"):
        self_normalized_is(target, _BoxDist(), lambda x: x, 10, rng_new(35))


def test_snis_rejects_non_finite_h():
    # h turns NaN past x = 3; the error names the first draw beyond it
    prop = NormalDist(0.0, 2.0)
    replay = rng_new(1)
    first = next(t for t in range(1, 2001) if prop.sample(replay) > 3.0)
    with pytest.raises(ValueError, match=rf"^iteration {first}: h returned non-finite"):
        self_normalized_is(GAUSS0, prop, lambda x: math.nan if x > 3.0 else x,
                           2000, rng_new(1))


def test_snis_low_ess_warning():
    # proposal centred far in the tail: a handful of draws carry everything
    target = GAUSS0
    res = self_normalized_is(target, NormalDist(8.0, 0.5), lambda x: x,
                             200, rng_new(36))
    assert res.low_ess_warning
    assert res.ess < 10.0


def test_snis_gives_a_log_weight_beyond_the_float_range_below_the_max_zero_weight():
    # target log density +-1e308: the negative draws' shifted log weights
    # overflow to -inf, so only the positive draws carry (equal) weight
    target = TargetDensity(lambda x: 1e308 if x > 0.0 else -1e308)
    res = self_normalized_is(target, NormalDist(0.0, 1.0), lambda x: x, 400, rng_new(37))
    replay = rng_new(37)
    xs = np.array([NormalDist(0.0, 1.0).sample(replay) for _ in range(400)])
    assert res.ess == np.count_nonzero(xs > 0.0)
    assert res.estimate == pytest.approx(np.mean(xs[xs > 0.0]), rel=1e-12)


def test_snis_rejects_empty():
    with pytest.raises(ValueError):
        self_normalized_is(GAUSS0, NormalDist(0.0, 1.0),
                           lambda x: x, 0, rng_new(0))


# ---------------------------------------------------------------------------
# Harmonic mean estimator
# ---------------------------------------------------------------------------

def test_harmonic_mean_constant_likelihood():
    est = harmonic_mean_log_evidence([-3.2] * 100)
    assert est.log_evidence == pytest.approx(-3.2, rel=1e-14)
    assert est.converged


def test_harmonic_mean_dominated_by_smallest_likelihood():
    # harmonic mean of {1, e^-1000} is 2/(1 + e^1000): log = log 2 - 1000
    est = harmonic_mean_log_evidence([0.0, -1000.0])
    assert est.log_evidence == pytest.approx(math.log(2.0) - 1000.0, rel=1e-12)
    assert est.diagnostics["log_lik_spread"] == pytest.approx(1000.0)


def test_harmonic_mean_on_conjugate_model():
    model = ConjugateNormalModel(0.0, 1.0, 1.0, "m")
    gen = np.random.default_rng(7)
    data = gen.normal(0.5, 1.0, size=20).tolist()
    pm, pv = posterior_params(model, data)
    draws = gen.normal(pm, math.sqrt(pv), size=10_000)
    ll = model.log_likelihood(data, draws)
    est = harmonic_mean_log_evidence(ll)
    assert abs(est.log_evidence - analytic_log_evidence(model, data)) <= 0.5
    assert est.diagnostics["ess"] <= 10_000.0


def test_harmonic_mean_gives_a_spread_beyond_the_float_range_zero_weight():
    # -1e308 - 1e308 overflows to -inf: the draw at 1e308 weighs 0, and the
    # spread overflows to inf, without a warning
    est = harmonic_mean_log_evidence([1e308, -1e308])
    near = harmonic_mean_log_evidence([1e300, -1e308])
    assert est.log_evidence == near.log_evidence == -1e308
    assert est.diagnostics["ess"] == near.diagnostics["ess"] == 1.0
    assert est.diagnostics["log_lik_spread"] == math.inf


def test_harmonic_mean_rejects_bad_input():
    with pytest.raises(ValueError):
        harmonic_mean_log_evidence([])
    with pytest.raises(ValueError):
        harmonic_mean_log_evidence([0.0, math.nan])


# ---------------------------------------------------------------------------
# Bridge sampling
# ---------------------------------------------------------------------------

def _conjugate_setup(seed, n_data=20):
    model = ConjugateNormalModel(0.0, 1.0, 1.0, "m")
    gen = np.random.default_rng(seed)
    data = gen.normal(0.5, 1.0, size=n_data).tolist()
    pm, pv = posterior_params(model, data)
    return model, data, pm, pv, gen


def test_bridge_proportional_proposal_is_exact():
    post = np.linspace(-2, 2, 101)
    prop = np.linspace(-2, 2, 97)
    offset = 7.25
    est = bridge_log_evidence(post, prop,
                              lambda x: -0.5 * x ** 2 + offset,
                              lambda x: -0.5 * x ** 2)
    assert est.log_evidence == pytest.approx(offset, rel=1e-12)
    assert est.diagnostics["iterations"] == 1
    assert est.converged


def test_bridge_with_posterior_proposal():
    model, data, pm, pv, gen = _conjugate_setup(11)
    sd = math.sqrt(pv)
    post = gen.normal(pm, sd, size=10_000)
    prop = gen.normal(pm, sd, size=10_000)

    def log_prop(th):
        return -0.5 * (th - pm) ** 2 / pv - 0.5 * math.log(2 * math.pi * pv)

    est = bridge_log_evidence(post, prop,
                              lambda th: model.log_posterior_unnorm(data, th),
                              log_prop)
    assert est.converged
    assert abs(est.log_evidence - analytic_log_evidence(model, data)) <= 0.02


def test_bridge_with_prior_proposal():
    model, data, pm, pv, gen = _conjugate_setup(12)
    post = gen.normal(pm, math.sqrt(pv), size=100_000)
    prop = gen.normal(model.prior_mean, math.sqrt(model.prior_var),
                      size=100_000)
    est = bridge_log_evidence(post, prop,
                              lambda th: model.log_posterior_unnorm(data, th),
                              model.log_prior)
    assert est.converged
    assert abs(est.log_evidence - analytic_log_evidence(model, data)) <= 0.2


def test_bridge_shift_invariance():
    model, data, pm, pv, gen = _conjugate_setup(13)
    post = gen.normal(pm, math.sqrt(pv), size=2000)
    prop = gen.normal(pm, math.sqrt(pv), size=2000)

    def log_prop(th):
        return -0.5 * (th - pm) ** 2 / pv - 0.5 * math.log(2 * math.pi * pv)

    base = lambda th: model.log_posterior_unnorm(data, th)
    a = bridge_log_evidence(post, prop, base, log_prop)
    b = bridge_log_evidence(post, prop, lambda th: base(th) + 50.0, log_prop)
    assert b.log_evidence - a.log_evidence == pytest.approx(50.0, abs=1e-9)


def test_bridge_without_overlap_fails_loudly():
    post = np.full(100, 0.0)
    prop = np.full(100, 40.0)

    def log_post(th):
        # hard box around 0: proposal draws carry zero posterior mass
        th = np.asarray(th, dtype=float)
        return np.where(np.abs(th) < 1.0, 0.0, -math.inf)

    with pytest.raises(ValueError):
        bridge_log_evidence(post, prop, log_post,
                            lambda th: np.zeros_like(np.asarray(th, float)))


def test_bridge_with_a_zero_density_proposal_draw_fails_loudly():
    # log_prop = -inf at a proposal draw the posterior covers makes that
    # draw's log ratio +inf; the seed estimate is then +inf and the bridge
    # reports the missing overlap instead of computing inf - inf.
    post = np.linspace(-1.0, 1.0, 50)
    prop = np.append(np.linspace(-1.0, 1.0, 49), 3.0)

    def log_prop(th):
        th = np.asarray(th, dtype=float)
        return np.where(th < 2.0, -0.5 * th * th, -math.inf)

    with pytest.raises(ValueError, match="no effective support overlap"):
        bridge_log_evidence(post, prop, lambda th: -0.5 * th * th, log_prop)


def test_bridge_rejects_a_positive_infinite_log_density():
    # A log density may be -inf, never +inf. Unchecked, the +inf draw turns
    # the finite density's -0.06465 into a "converged" -0.04454.
    post = np.linspace(-1.0, 1.0, 50)
    prop = np.linspace(-1.2, 1.2, 50)

    def log_post(th):
        return np.where(th == post[10], math.inf, -0.5 * th * th)

    with pytest.raises(ValueError, match=r"^log density must be < \+inf, got inf at index 10$"):
        bridge_log_evidence(post, prop, log_post, lambda th: -th * th / 2.88)


def test_bridge_gives_terms_beyond_the_float_range_zero_weight():
    # log densities of +-1e308: the max shifts and the logaddexp terms
    # overflow to +-inf without a warning, and the draws at -1e308 weigh 0
    # exactly as draws at -1e300 do
    post = np.linspace(-1.0, 1.0, 50)
    prop = np.linspace(-1.2, 1.2, 40)

    def run(low):
        return bridge_log_evidence(post, prop, lambda th: np.where(th > 0.0, 1e308, low),
                                   lambda th: -0.5 * th * th)

    est, near = run(-1e308), run(-1e300)
    assert est.log_evidence == near.log_evidence == 1e308
    assert est.diagnostics == near.diagnostics
    assert est.converged


def test_bridge_reports_non_convergence():
    model, data, pm, pv, gen = _conjugate_setup(14)
    post = gen.normal(pm, math.sqrt(pv), size=2000)
    prop = gen.normal(model.prior_mean, math.sqrt(model.prior_var), size=2000)
    est = bridge_log_evidence(post, prop,
                              lambda th: model.log_posterior_unnorm(data, th),
                              model.log_prior, max_iter=1)
    assert not est.converged
    assert est.diagnostics["iterations"] == 1


def test_bridge_rejects_empty_draws():
    with pytest.raises(ValueError):
        bridge_log_evidence([], [0.0], lambda x: 0.0, lambda x: 0.0)


def test_bridge_rejects_scalar_log_density():
    draws = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(ValueError, match="vectorized"):
        bridge_log_evidence(draws, draws, lambda th: 0.0, lambda th: -0.5 * th * th)


def _meng_wong_one_row(l1, l2, tol, max_iter):
    # bridge_log_evidence's fixed point as a loop on one row of log ratios,
    # with a scalar logsumexp: the reference for _bridge_rows.
    def logsumexp(a):
        m = np.max(a)
        return float(m) if not math.isfinite(m) else float(m + np.log(np.sum(np.exp(a - m))))

    n1, n2 = l1.size, l2.size
    log_s1, log_s2 = math.log(n1 / (n1 + n2)), math.log(n2 / (n1 + n2))
    lam = logsumexp(l2) - math.log(n2)
    converged = False
    for iterations in range(1, max_iter + 1):
        log_num = logsumexp(l2 - np.logaddexp(log_s1 + l2, log_s2 + lam)) - math.log(n2)
        log_den = logsumexp(-np.logaddexp(log_s1 + l1, log_s2 + lam)) - math.log(n1)
        lam_new = log_num - log_den
        if abs(lam_new - lam) < tol:
            lam, converged = lam_new, True
            break
        lam = lam_new
    return lam, iterations, converged


def _bridge_ratio_rows(n1=300, n2=200):
    # Log ratios log N(x; 0, 1) + c - log N(x; mu, s) for proposals from a
    # perfect fit to a poor one, so rows converge at different iterations.
    # _bridge_rows takes them as posterior log densities over zero proposal
    # log densities: l - 0.0 is l bit for bit, -inf included.
    gen = np.random.default_rng(21)
    l1, l2 = [], []
    for c, mu, s in [(0.0, 0.0, 1.0), (1.5, 0.0, 1.001), (-2.0, 0.5, 0.8),
                     (3.0, 1.0, 2.0), (0.25, -1.5, 0.6), (-0.5, 2.0, 3.0)]:
        post, prop = gen.normal(0.0, 1.0, n1), gen.normal(mu, s, n2)

        def ratio(x):
            return c - 0.5 * x * x + 0.5 * ((x - mu) / s) ** 2 + math.log(s)

        l1.append(ratio(post))
        l2.append(ratio(prop))
    return np.array(l1), np.array(l2)


@pytest.mark.parametrize("max_iter", [2, 1000])
def test_bridge_rows_match_the_loop_on_each_row(max_iter):
    l1, l2 = _bridge_ratio_rows()
    got = _bridge_rows(l1, np.zeros_like(l1), l2, np.zeros_like(l2), 1e-8, max_iter)
    want = [_meng_wong_one_row(a, b, 1e-8, max_iter) for a, b in zip(l1, l2)]
    assert len(got) == len(want) == len(l1)
    for g, (lam, iterations, converged) in zip(got, want):
        assert np.float64(g.log_evidence).view(np.uint64) == np.float64(lam).view(np.uint64)
        assert g.diagnostics == {"iterations": iterations, "converged": converged,
                                 "n_post": l1.shape[1], "n_prop": l2.shape[1]}
    if max_iter == 2:  # some rows stop early, the others run out unconverged
        assert {(w[1], w[2]) for w in want} == {(1, True), (2, True), (2, False)}
    else:
        assert len({w[1] for w in want}) >= 3 and all(w[2] for w in want)


def test_bridge_rows_name_the_lowest_failing_row():
    l1, l2 = _bridge_ratio_rows()
    l2[[4, 2]] = -math.inf  # rows 2 and 4: no proposal draw has posterior mass
    with pytest.raises(ChainFailure, match="^no effective support overlap") as err:
        _bridge_rows(l1, np.zeros_like(l1), l2, np.zeros_like(l2), 1e-8, 1000)
    assert err.value.row == 2


def _two_dim_cases():
    model = ConjugateNormalModel(0.0, 1.0, 1.0, "m")
    density = lambda th: -0.5 * th * th  # noqa: E731
    return [
        ("log_weights", ess),
        ("log_liks_at_posterior_draws", harmonic_mean_log_evidence),
        ("post_draws", lambda a: bridge_log_evidence(a, [0.0], density, density)),
        ("prop_draws", lambda a: bridge_log_evidence([0.0], a, density, density)),
        ("posterior_draws", lambda a: chib_log_evidence(model, [0.5], a)),
    ]


@pytest.mark.parametrize("name, call", _two_dim_cases())
@pytest.mark.parametrize("shape", [(2, 2), (2, 3)])
def test_evidence_estimators_reject_a_two_dimensional_sample(name, call, shape):
    sample = np.arange(6.0)[:shape[0] * shape[1]].reshape(shape) / 10.0
    with pytest.raises(ValueError, match=rf"^{name} must be one-dimensional, "
                                         rf"got shape \({shape[0]}, {shape[1]}\)$"):
        call(sample)


# ---------------------------------------------------------------------------
# Chib's method
# ---------------------------------------------------------------------------

def test_chib_on_exact_posterior_draws():
    model, data, pm, pv, gen = _conjugate_setup(15)
    draws = gen.normal(pm, math.sqrt(pv), size=10_000)
    est = chib_log_evidence(model, data, draws)
    assert abs(est.log_evidence - analytic_log_evidence(model, data)) <= 0.05
    assert est.converged


def test_chib_evaluation_point_invariance():
    # the identity holds at any theta*; a low-density point only adds noise
    model, data, pm, pv, gen = _conjugate_setup(16)
    draws = gen.normal(pm, math.sqrt(pv), size=10_000)
    at_mean = chib_log_evidence(model, data, draws)
    off = chib_log_evidence(model, data, draws,
                            theta_star=pm - 2.0 * math.sqrt(pv))
    assert abs(at_mean.log_evidence - off.log_evidence) <= 0.1


def test_chib_tight_prior_limit():
    model = ConjugateNormalModel(0.4, 1e-8, 1.0, "m")
    data = [0.1, 0.9, 0.3]
    pm, pv = posterior_params(model, data)
    draws = np.random.default_rng(17).normal(pm, math.sqrt(pv), size=50_000)
    est = chib_log_evidence(model, data, draws)
    assert abs(est.log_evidence - analytic_log_evidence(model, data)) <= 0.05


def test_chib_rejects_degenerate_draws():
    model = ConjugateNormalModel(0.0, 1.0, 1.0, "m")
    with pytest.raises(ValueError):
        chib_log_evidence(model, [0.5], [1.0] * 10)
    with pytest.raises(ValueError):
        chib_log_evidence(model, [0.5], [])
    with pytest.raises(ValueError):
        chib_log_evidence(model, [0.5], [1.0])


@pytest.mark.parametrize("theta_star", [math.nan, math.inf, -math.inf])
def test_chib_rejects_non_finite_theta_star(theta_star):
    model, data, pm, pv, gen = _conjugate_setup(18)
    draws = gen.normal(pm, math.sqrt(pv), size=100)
    with pytest.raises(ValueError, match=r"^theta_star must be a real in \(-inf, inf\)"):
        chib_log_evidence(model, data, draws, theta_star=theta_star)


@pytest.mark.parametrize("draws, message", [
    ([0.1, math.nan, 0.3], "posterior_draws must be finite, got nan at index 1"),
    ([0.1, 0.2, -math.inf], "posterior_draws must be finite, got -inf at index 2"),
    ([1e200, -1e200, 0.3], "sample variance, got inf"),
    ([1e308] * 3 + [-1e308] * 6, "sample variance, got nan"),
])
def test_chib_rejects_non_finite_draws_and_variance_without_warning(draws, message):
    model = ConjugateNormalModel(0.0, 1.0, 1.0, "m")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            chib_log_evidence(model, [0.5], draws)


# ---------------------------------------------------------------------------
# Row cores: the harmonic mean and Chib on (R, T) groups
# ---------------------------------------------------------------------------

def _bits(x):
    return int(np.float64(x).view(np.uint64))


def _harmonic_one_row(ll):
    # The 1-D harmonic mean as it was written before its row core:
    # (log evidence, log-likelihood spread, ESS).
    lw = -ll
    m = float(np.max(lw))
    w = np.exp(lw - m)
    s1 = float(np.sum(w))
    return (-(float(m + np.log(np.sum(w))) - math.log(ll.size)),
            float(np.max(ll) - np.min(ll)), s1 * s1 / float(np.dot(w, w)))


def _chib_one_row(model, data, draws, theta_star, log_prior=None,
                  square=lambda d: d ** 2):
    # Chib's identity on one row as it was written before its row core,
    # in Python floats; `log_prior` and `square` swap in other arithmetic.
    m = float(np.mean(draws))
    v = float(np.var(draws, ddof=1))
    log_ordinate = -0.5 * square(theta_star - m) / v - 0.5 * math.log(2.0 * math.pi * v)
    return (model.log_likelihood(data, theta_star) + (log_prior or model.log_prior)(theta_star)
            - log_ordinate)


def _pow_trap(model, data, row, gen, swap):
    """A t* at which Chib on `row` would change if the log prior ran on a
    one-element array (swap "log_prior") or the squared distance to the
    fit's mean were numpy's d * d (swap "square"), in place of the float
    ** 2 that both take. Candidates are screened 10^5 at a time."""
    m = float(np.mean(row))
    while True:
        ts = m + gen.uniform(-0.5, 0.5, 100_000)
        if swap == "log_prior":
            changed = {"log_prior": lambda t: float(model.log_prior(np.array([t]))[0])}
            differs = model.log_prior(ts) != [model.log_prior(t) for t in ts.tolist()]
        else:
            changed = {"square": lambda d: d * d}
            d = ts - m
            differs = d * d != [x ** 2 for x in d.tolist()]
        for t in ts[differs].tolist():
            if _chib_one_row(model, data, row, t) != \
               _chib_one_row(model, data, row, t, **changed):
                return t


def test_chib_rows_keep_float_powers_on_the_pow_trap_rows():
    # Rows 0-2 sit on log-prior traps, rows 3-5 on square traps. Five data
    # points keep the log likelihood small enough that a last-bit change
    # in the log prior reaches the estimate.
    model = get_model("conj-n01")
    gen = np.random.default_rng(2109)
    data = gen.normal(0.5, 1.0, size=5).tolist()
    pm, pv = posterior_params(model, data)
    T = 100
    draws = gen.normal(pm, math.sqrt(pv), size=(6, T))
    t_star = np.array([_pow_trap(model, data, row, gen, "log_prior" if r < 3 else "square")
                       for r, row in enumerate(draws)])
    mean, var = np.mean(draws, axis=1), np.var(draws, axis=1, ddof=1)
    got = _chib_rows(model, data, mean, var, t_star, T)
    for r, row in enumerate(draws):
        want = _chib_one_row(model, data, row, float(t_star[r]))
        one = chib_log_evidence(model, data, row.copy(), theta_star=float(t_star[r]))
        assert _bits(got[r].log_evidence) == _bits(one.log_evidence) == _bits(want)
        assert got[r].diagnostics == one.diagnostics
        assert one.diagnostics["theta_star"] == t_star[r]


@pytest.mark.parametrize("T", [100, 333, 1001])  # 333 and 1001 leave rows unaligned
def test_row_cores_equal_the_one_dimensional_calls(T):
    model = get_model("conj-n14")
    gen = np.random.default_rng(T)
    data = gen.normal(0.5, 1.0, size=20).tolist()
    pm, pv = posterior_params(model, data)
    draws = gen.normal(pm, math.sqrt(pv), size=(7, T))
    ll = model.log_likelihood(data, draws)
    ll[3] *= 40.0  # one row whose weights span many orders of magnitude
    mean, var = np.mean(draws, axis=1), np.var(draws, axis=1, ddof=1)
    harmonic = _harmonic_rows(ll)
    chib = _chib_rows(model, data, mean, var, mean, T)
    for r in range(len(draws)):
        one = harmonic_mean_log_evidence(ll[r].copy())
        log_ev, spread, eff = _harmonic_one_row(ll[r].copy())
        assert _bits(harmonic[r].log_evidence) == _bits(one.log_evidence) == _bits(log_ev)
        assert harmonic[r].diagnostics == one.diagnostics == {
            "n_draws": T, "log_lik_spread": spread, "ess": eff, "converged": True}
        assert _bits(one.diagnostics["ess"]) == _bits(eff)
        one = chib_log_evidence(model, data, draws[r].copy())
        want = _chib_one_row(model, data, draws[r].copy(), float(np.mean(draws[r].copy())))
        assert _bits(chib[r].log_evidence) == _bits(one.log_evidence) == _bits(want)
        assert chib[r].diagnostics == one.diagnostics


# ---------------------------------------------------------------------------
# Cross-estimator agreement
# ---------------------------------------------------------------------------

def test_bridge_and_chib_agree_with_analytic_across_seeds():
    model = ConjugateNormalModel(0.0, 1.0, 1.0, "m")
    data = np.random.default_rng(99).normal(0.5, 1.0, size=20).tolist()
    pm, pv = posterior_params(model, data)
    sd = math.sqrt(pv)
    truth = analytic_log_evidence(model, data)

    def log_prop(th):
        return -0.5 * (th - pm) ** 2 / pv - 0.5 * math.log(2 * math.pi * pv)

    ok = 0
    for s in range(100):
        gen = np.random.default_rng(10_000 + s)
        post = gen.normal(pm, sd, size=10_000)
        prop = gen.normal(pm, sd, size=10_000)
        br = bridge_log_evidence(post, prop,
                                 lambda th: model.log_posterior_unnorm(data, th),
                                 log_prop)
        ch = chib_log_evidence(model, data, post)
        if abs(br.log_evidence - truth) <= 0.02 and \
           abs(ch.log_evidence - truth) <= 0.05:
            ok += 1
    assert ok >= 95, f"only {ok}/100 seeds had both estimators within tolerance"
