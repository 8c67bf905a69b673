"""Deterministic stream behaviour and distributional accuracy of mcstat.rng."""

import math

import numpy as np
import pytest
import scipy.stats as sps
from hypothesis import given, settings, strategies as st

from mcstat.rng import (
    _BLOCK,
    _PPF_P_LOW,
    _PPF_SLICE,
    _libm,
    _open_floats,
    NormalDist,
    RngStream,
    StudentTDist,
    derive_substream,
    norm_cdf,
    norm_ppf,
    norm_ppf_many,
    norm_sf,
    normal_logpdf,
    normals,
    rng_new,
    sample_normal,
    sample_student_t,
    sample_truncated_normal,
    sample_uniform,
    student_t_logpdf,
)

from conftest import ks_critical, ks_statistic


# ---------------------------------------------------------------------------
# Stream determinism, substreams, serialization
# ---------------------------------------------------------------------------

def test_same_seed_reproduces_draws():
    a = [rng_new(42).next_float() for _ in range(1)]
    r1, r2 = rng_new(42), rng_new(42)
    xs = [r1.next_float() for _ in range(10)]
    ys = [r2.next_float() for _ in range(10)]
    assert xs == ys
    assert xs[0] == a[0]


def test_different_seeds_differ():
    r1, r2 = rng_new(42), rng_new(43)
    assert [r1.next_float() for _ in range(10)] != [r2.next_float() for _ in range(10)]


def test_seed_zero_is_a_valid_stream():
    r = rng_new(0)
    xs = [r.next_float() for _ in range(100)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert len(set(xs)) > 90


def test_substreams_are_distinct():
    root = rng_new(7)
    s0 = derive_substream(root, 0)
    s1 = derive_substream(root, 1)
    assert [s0.next_float() for _ in range(100)] != [s1.next_float() for _ in range(100)]


def test_substream_first_draws_all_distinct():
    root = rng_new(7)
    firsts = [derive_substream(root, k).next_float() for k in range(100)]
    assert len(set(firsts)) == 100


def test_substream_independent_of_parent_consumption():
    r1 = rng_new(7)
    want = [derive_substream(r1, 5).next_float() for _ in range(1)]
    more = [derive_substream(r1, 5).next_float() for _ in range(1)]
    assert want == more  # derivation is a pure function of (seed, k)

    r2 = rng_new(7)
    for _ in range(123):
        r2.next_float()
    got = derive_substream(r2, 5).next_float()
    assert got == want[0]


def test_state_roundtrip_resumes_exactly():
    r = rng_new(99)
    for _ in range(1000):
        r.next_u32()
    raw = r.state_bytes()
    assert isinstance(raw, bytes) and len(raw) == 16
    clone = RngStream.from_state_bytes(raw)
    assert [r.next_u32() for _ in range(100)] == [clone.next_u32() for _ in range(100)]


def test_state_bytes_is_a_snapshot():
    r = rng_new(5)
    raw1 = r.state_bytes()
    raw2 = r.state_bytes()
    assert raw1 == raw2  # taking a snapshot consumes nothing
    r.next_u32()
    assert r.state_bytes() != raw1


def test_pcg32_matches_the_reference_demo_output():
    # pcg32_srandom(42, 54) leaves state 0x185706b82c2e03f8 and increment
    # (54 << 1) | 1 = 0x6d; these are the first six words of O'Neill's
    # pcg32-demo (the reference C implementation) from that seeding.
    raw = (0x185706b82c2e03f8).to_bytes(8, "little") + (0x6D).to_bytes(8, "little")
    r = RngStream.from_state_bytes(raw)
    assert r.stream_id == 54
    assert [r.next_u32() for _ in range(6)] == [
        0xA15C02B7, 0x7B47F409, 0xBA1D3330, 0x83D2F293, 0xBFA4784B, 0xCBED606E]


def test_from_state_bytes_rejects_wrong_length():
    with pytest.raises(ValueError):
        RngStream.from_state_bytes(b"\x00" * 15)


def test_from_state_bytes_rejects_an_even_increment():
    # state_bytes writes (stream_id << 1) | 1, so no checkpoint has an even one.
    with pytest.raises(ValueError, match="increment must be odd, got 0x2"):
        RngStream.from_state_bytes(b"\x01" * 8 + b"\x02" + b"\x00" * 7)


def _substream(k):
    return derive_substream(rng_new(0), k)


def _resumed(seed):
    return RngStream.from_state_bytes(rng_new(0).state_bytes(), seed)


@pytest.mark.parametrize("make, args", [
    (RngStream, (2.5,)), (rng_new, (1.0,)), (RngStream, (1, 2.0)), (_substream, (2.5,)),
    (RngStream, ("3",)), (RngStream, (True,)), (RngStream, (0, True)), (_substream, (True,)),
    (RngStream, (np.True_,)), (RngStream, (-1,)), (RngStream, (2**64,)),
    (RngStream, (0, np.int64(-1))), (_substream, (2**64,)), (_resumed, (2.5,)),
])
def test_stream_arguments_must_be_64_bit_unsigned_integers(make, args):
    with pytest.raises(ValueError, match=r"must be an integer in \[0, 18446744073709551616\), got"):
        make(*args)


def test_numpy_integer_stream_arguments_draw_what_plain_ints_draw():
    want = RngStream(5, 2**63 + 1)
    for seed, stream_id in [(np.uint64(5), 2**63 + 1), (np.int64(5), np.uint64(2**63 + 1))]:
        got = RngStream(seed, stream_id)
        assert (type(got.seed), type(got.stream_id)) == (int, int)
        assert got.state_bytes() == want.state_bytes()
    assert _substream(np.uint64(3)).state_bytes() == _substream(3).state_bytes()


@given(seed=st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=50, deadline=None)
def test_streams_are_pure_functions_of_seed(seed):
    assert [rng_new(seed).next_u32() for _ in range(3)] == \
           [rng_new(seed).next_u32() for _ in range(3)]


@pytest.mark.parametrize("word, expected", [
    (2**64 - 1, 1.0 - 2.0**-53),  # (2^53 - 1 + 0.5) * 2^-53 rounds to 1.0
    (0, 2.0**-54),
])
def test_next_float_open_stays_inside_unit_interval(word, expected):
    class FixedStream(RngStream):
        def next_u64(self):
            return word

    u = FixedStream(0).next_float_open()
    assert u == expected
    assert 0.0 < u < 1.0
    assert math.isfinite(norm_ppf(u))
    # the block path converts the same word to the same float
    assert _open_floats(np.array([word], dtype=np.uint64))[0] == expected


# ---------------------------------------------------------------------------
# Block draws: bit for bit the scalar stream
# ---------------------------------------------------------------------------

def _bits(xs):
    return np.asarray(xs, dtype=float).tobytes()


@pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7,
                               _PPF_SLICE, _PPF_SLICE + 1, 12345])
def test_block_draws_match_scalar_draws(n):
    a, b = derive_substream(rng_new(60), n), derive_substream(rng_new(60), n)
    assert _bits([a.next_float_open() for _ in range(n)]) == _bits(b.floats_open(n))
    assert a.state_bytes() == b.state_bytes()
    assert _bits([sample_normal(a, -1.5, 0.7) for _ in range(n)]) == \
           _bits(normals(b, n, -1.5, 0.7))
    assert a.state_bytes() == b.state_bytes()


def test_block_normals_match_scalar_across_substreams():
    root = rng_new(0)
    for k in range(20):
        a, b = derive_substream(root, k), derive_substream(root, k)
        assert _bits([sample_normal(a, 0.0, 1.0) for _ in range(3000)]) == \
               _bits(normals(b, 3000, 0.0, 1.0))


def test_interleaved_scalar_and_block_draws_leave_equal_state():
    # odd word counts (next_u32) put block calls at every word alignment
    a, b = rng_new(61), rng_new(61)
    got, want = [], []
    for n in (3, _BLOCK + 2, 1, 0, 17):
        got.append(float(b.next_u32()))
        want.append(float(a.next_u32()))
        got.extend(b.floats_open(n))
        want.extend(a.next_float_open() for _ in range(n))
        got.append(sample_normal(b, 1.0, 2.0))
        want.append(sample_normal(a, 1.0, 2.0))
        got.extend(normals(b, n, 1.0, 2.0))
        want.extend(sample_normal(a, 1.0, 2.0) for _ in range(n))
        assert a.state_bytes() == b.state_bytes()
    assert _bits(got) == _bits(want)


def test_block_draws_reject_bad_arguments():
    r = rng_new(0)
    with pytest.raises(ValueError, match="n must be an integer >= 0, got -1"):
        r.floats_open(-1)
    with pytest.raises(ValueError, match="n must be an integer >= 0, got -1"):
        normals(r, -1, 0.0, 1.0)
    with pytest.raises(ValueError, match=r"n must be an integer >= 0, got np.int64\(-1\)"):
        r.floats_open(np.int64(-1))
    for n in (2.5, 2.0, True, False, "3", None, np.float64(3.0), np.bool_(True)):
        with pytest.raises(ValueError, match="n must be an integer >= 0, got"):
            r.floats_open(n)
        with pytest.raises(ValueError, match="n must be an integer >= 0, got"):
            normals(r, n, 0.0, 1.0)
    for sd in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            normals(r, 10, 0.0, sd)
    for p in (0.0, 1.0, -0.5, math.nan):
        with pytest.raises(ValueError):
            norm_ppf_many([0.3, p])
    assert r.state_bytes() == rng_new(0).state_bytes()  # no draw consumed
    # a numpy integer length draws what the plain int draws
    for n in (np.int64(5), np.uint64(5), np.int32(5), np.uint8(5)):
        a, b = rng_new(3), rng_new(3)
        assert _bits(a.floats_open(n)) == _bits(b.floats_open(5))
        assert _bits(normals(a, n, 0.5, 2.0)) == _bits(normals(b, 5, 0.5, 2.0))
        assert a.state_bytes() == b.state_bytes()


# Each branch of norm_ppf and its edges, the far tail included.
_PPF_EDGES = [2.0**-54, math.nextafter(_PPF_P_LOW, 0.0), _PPF_P_LOW,
              math.nextafter(_PPF_P_LOW, 1.0), 0.5, math.nextafter(0.5, 1.0),
              1.0 - _PPF_P_LOW, 1.0 - 2.0**-53, 1e-310, 5e-324, 1e-300]


def test_norm_ppf_many_matches_scalar_at_branch_edges():
    assert _bits(norm_ppf_many(_PPF_EDGES)) == _bits([norm_ppf(p) for p in _PPF_EDGES])


def test_norm_ppf_many_matches_scalar_on_2d_input():
    # the edges put tail and far-tail elements in, so their patch path runs
    ps = np.array(_PPF_EDGES + [0.3]).reshape(3, 4)
    out = norm_ppf_many(ps)
    assert out.shape == (3, 4)
    assert _bits(out) == _bits([norm_ppf(p) for p in ps.ravel().tolist()])
    central = np.array([[0.3, 0.6], [0.5, 0.45]])  # no tail: the common path alone
    assert _bits(norm_ppf_many(central)) == \
        _bits([norm_ppf(p) for p in central.ravel().tolist()])
    assert norm_ppf_many(0.3).shape == ()


@pytest.mark.parametrize("shape", [(), (0,), (5,), (2, 3, 4)])
def test_libm_keeps_shape(shape):
    a = np.linspace(-3.0, 3.0, math.prod(shape)).reshape(shape)
    out = _libm(math.exp, a)
    assert out.shape == shape
    assert _bits(out) == _bits([math.exp(v) for v in a.ravel().tolist()])


@given(ps=st.lists(st.floats(5e-324, 1.0, exclude_max=True), max_size=50))
@settings(max_examples=100, deadline=None)
def test_norm_ppf_many_matches_scalar_property(ps):
    assert _bits(norm_ppf_many(ps)) == _bits([norm_ppf(p) for p in ps])


# ---------------------------------------------------------------------------
# Uniform sampler
# ---------------------------------------------------------------------------

def test_uniform_mean_on_unit_interval():
    r = rng_new(11)
    xs = np.array([sample_uniform(r, 0.0, 1.0) for _ in range(100_000)])
    assert abs(xs.mean() - 0.5) <= 0.005


def test_uniform_respects_bounds():
    r = rng_new(12)
    xs = [sample_uniform(r, 0.0, 1.0 / 3.0) for _ in range(10_000)]
    assert all(0.0 <= x < 1.0 / 3.0 for x in xs)


def test_uniform_rejects_bad_bounds():
    r = rng_new(0)
    with pytest.raises(ValueError):
        sample_uniform(r, 2.0, 2.0)
    with pytest.raises(ValueError):
        sample_uniform(r, 3.0, 2.0)
    with pytest.raises(ValueError):
        sample_uniform(r, 0.0, math.inf)


def test_uniform_rejects_overflowing_width():
    # hi - lo overflows to inf although both bounds are finite
    r = rng_new(0)
    with pytest.raises(ValueError, match="width must be finite"):
        sample_uniform(r, -1e308, 1e308)
    assert r.state_bytes() == rng_new(0).state_bytes()  # no draw consumed


@given(lo=st.floats(-1e6, 1e6), width=st.floats(1e-6, 1e6), seed=st.integers(0, 2**32))
@settings(max_examples=50, deadline=None)
def test_uniform_containment_property(lo, width, seed):
    r = rng_new(seed)
    x = sample_uniform(r, lo, lo + width)
    assert lo <= x < lo + width


# ---------------------------------------------------------------------------
# Normal sampler and Phi / Phi^-1
# ---------------------------------------------------------------------------

def test_standard_normal_moments():
    r = rng_new(13)
    xs = np.array([sample_normal(r, 0.0, 1.0) for _ in range(100_000)])
    assert abs(xs.mean()) <= 0.01
    assert abs(xs.var() - 1.0) <= 0.02


def test_normal_location_scale():
    r = rng_new(14)
    xs = np.array([sample_normal(r, 2.5, 0.5) for _ in range(50_000)])
    assert abs(xs.mean() - 2.5) <= 0.01
    assert abs(xs.std() - 0.5) <= 0.01


def test_normal_rejects_bad_sd():
    r = rng_new(0)
    for sd in (-1.0, 0.0, math.inf):
        with pytest.raises(ValueError):
            sample_normal(r, 0.0, sd)
    assert r.state_bytes() == rng_new(0).state_bytes()  # no draw consumed


def test_norm_cdf_ppf_match_scipy():
    ps = np.concatenate([
        np.logspace(-12, -0.31, 40),
        1.0 - np.logspace(-12, -0.31, 40),
        [0.5],
    ])
    ours = np.array([norm_ppf(p) for p in ps])
    ref = sps.norm.ppf(ps)
    assert np.allclose(ours, ref, rtol=1e-12, atol=1e-13)

    xs = np.linspace(-8.0, 8.0, 161)
    assert np.allclose([norm_cdf(x) for x in xs], sps.norm.cdf(xs), rtol=1e-13)
    assert np.allclose([norm_sf(x) for x in xs], sps.norm.sf(xs), rtol=1e-13)


def test_norm_ppf_cdf_roundtrip_far_tail():
    # relative accuracy must survive deep into the tail, not just near 0.5
    for expo in range(1, 290, 12):
        p = 10.0 ** (-expo)
        back = norm_cdf(norm_ppf(p))
        assert abs(back / p - 1.0) <= 1e-9, (p, back)


@given(p=st.floats(1e-12, 1.0 - 1e-12))
@settings(max_examples=200, deadline=None)
def test_norm_ppf_cdf_roundtrip_property(p):
    assert abs(norm_cdf(norm_ppf(p)) - p) <= 1e-12 + 1e-9 * p


def test_normal_logpdf_matches_scipy():
    xs = np.linspace(-10, 10, 41)
    ours = [normal_logpdf(x, 1.0, 2.0) for x in xs]
    assert np.allclose(ours, sps.norm.logpdf(xs, 1.0, 2.0), rtol=1e-12)


# ---------------------------------------------------------------------------
# Truncated normal sampler
# ---------------------------------------------------------------------------

def test_truncnorm_symmetric_interval():
    r = rng_new(15)
    xs = np.array([sample_truncated_normal(r, 0.0, 1.0, -1.0, 1.0)
                   for _ in range(100_000)])
    assert np.all((xs >= -1.0) & (xs <= 1.0))
    assert abs(xs.mean()) <= 0.01


def test_truncnorm_half_line():
    r = rng_new(16)
    xs = np.array([sample_truncated_normal(r, 0.0, 1.0, 0.0, math.inf)
                   for _ in range(100_000)])
    assert np.all(xs >= 0.0)
    assert abs(xs.mean() - math.sqrt(2.0 / math.pi)) <= 0.01


def test_truncnorm_far_tail_interval():
    # an 11-sigma window: rejection sampling would effectively hang here
    r = rng_new(17)
    xs = np.array([sample_truncated_normal(r, 0.0, 1.0, 10.0, 11.0)
                   for _ in range(10_000)])
    assert np.all((xs >= 10.0) & (xs <= 11.0))
    assert abs(xs.mean() - sps.truncnorm.mean(10.0, 11.0)) <= 0.005


def test_truncnorm_negative_interval_mirrors_positive():
    r = rng_new(18)
    xs = np.array([sample_truncated_normal(r, 0.0, 1.0, -11.0, -10.0)
                   for _ in range(2_000)])
    assert np.all((xs >= -11.0) & (xs <= -10.0))
    assert abs(xs.mean() + sps.truncnorm.mean(10.0, 11.0)) <= 0.02


class _ReadAhead:
    """Floats read ahead, handed out in order by next_float_open()."""

    def __init__(self, floats):
        self.next_float_open = iter(floats).__next__


def test_truncnorm_rejects_empty_or_dead_interval():
    # the same on a stream and on any object with next_float_open()
    r = rng_new(0)
    ahead = _ReadAhead([0.25, 0.75])
    for src in (r, ahead):
        with pytest.raises(ValueError):
            sample_truncated_normal(src, 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            sample_truncated_normal(src, 0.0, 1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            # interval mass below the machine threshold
            sample_truncated_normal(src, 0.0, 1.0, 400.0, 401.0)
        with pytest.raises(ValueError):
            sample_truncated_normal(src, 0.0, 1.0, -401.0, -400.0)
        for sd in (0.0, math.inf):
            with pytest.raises(ValueError, match="sd"):
                sample_truncated_normal(src, 0.0, sd, -1.0, 1.0)
    assert r.state_bytes() == rng_new(0).state_bytes()  # no draw consumed
    assert ahead.next_float_open() == 0.25  # no float consumed


def _three_branch_truncated_normal(rng, mean, sd, lo, hi):
    # The reference: an earlier sampler that inverted an upper-half interval
    # on the survival scale, a lower-half one as its mirror image, and a
    # straddling one on the CDF scale, each branch with its own mass check.
    def upper(a, b):
        qa, qb = norm_sf(a), norm_sf(b)
        mass = qa - qb
        if not mass > 1e-300:
            raise ValueError("dead interval")
        return -norm_ppf(qb + rng.next_float_open() * mass)

    a = (lo - mean) / sd
    b = (hi - mean) / sd
    if a >= 0.0:
        z = upper(a, b)
    elif b <= 0.0:
        z = -upper(-b, -a)
    else:
        pa, pb = norm_cdf(a), norm_cdf(b)
        mass = pb - pa
        if not mass > 1e-300:
            raise ValueError("dead interval")
        z = norm_ppf(pa + rng.next_float_open() * mass)
    z = min(max(z, a), b)
    return min(max(mean + sd * z, lo), hi)


_TN_ENDPOINTS = [-math.inf, -40.0, -8.5, -1.0, -1e-300, -0.0, 0.0, 1e-300, 0.25, 1.0,
                 8.5, 40.0, math.inf]
_TN_WIDTHS = [1e-9, 1e-6, 1e-3, 0.5]


def _tn_intervals():
    pairs = [(lo, hi) for lo in _TN_ENDPOINTS for hi in _TN_ENDPOINTS if lo < hi]
    for e in _TN_ENDPOINTS[1:-1]:
        pairs += [(e, e + w) for w in _TN_WIDTHS] + [(e - w, e) for w in _TN_WIDTHS]
    return [pair for pair in pairs if pair[0] < pair[1]]


def test_truncnorm_draws_what_the_three_branch_sampler_drew():
    # Equal bits and equal stream positions on both half-lines and across 0;
    # a dead interval raises in both and draws nothing.
    dead = 0
    for mean, sd in [(0.0, 1.0), (0.5, 2.0), (-3.0, 0.25)]:
        for k, (lo, hi) in enumerate(_tn_intervals()):
            new, ref = derive_substream(rng_new(29), k), derive_substream(rng_new(29), k)
            for _ in range(5):
                start = new.state_bytes()
                try:
                    want = _three_branch_truncated_normal(ref, mean, sd, lo, hi)
                except ValueError:
                    with pytest.raises(ValueError, match="below machine threshold"):
                        sample_truncated_normal(new, mean, sd, lo, hi)
                    assert new.state_bytes() == ref.state_bytes() == start
                    dead += 1
                    break
                got = sample_truncated_normal(new, mean, sd, lo, hi)
                assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64), \
                    (mean, sd, lo, hi)
                assert new.state_bytes() == ref.state_bytes()
    assert dead  # the table reaches the mass check


@pytest.mark.parametrize("lo, hi", [(401.0, 402.0), (-399.0, -398.0)])
def test_truncnorm_dead_interval_names_the_callers_interval(lo, hi):
    # both half-lines, at mean 1: the interval named is [lo, hi], not [a, b]
    r = rng_new(0)
    with pytest.raises(ValueError, match=rf"^truncation interval \[{lo}, {hi}\] has "
                                         r"probability .* below machine threshold$"):
        sample_truncated_normal(r, 1.0, 1.0, lo, hi)
    assert r.state_bytes() == rng_new(0).state_bytes()


@given(mean=st.floats(-5, 5), sd=st.floats(0.1, 3.0),
       offset=st.floats(-6.0, 4.0), width=st.floats(0.5, 6.0),
       seed=st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_truncnorm_containment_property(mean, sd, offset, width, seed):
    # interval endpoints expressed in sd units so the mass stays representable
    lo = mean + offset * sd
    hi = lo + width * sd
    x = sample_truncated_normal(rng_new(seed), mean, sd, lo, hi)
    assert lo <= x <= hi


# ---------------------------------------------------------------------------
# Student-t sampler
# ---------------------------------------------------------------------------

def test_student_t_large_df_approaches_normal():
    r = rng_new(19)
    xs = np.array([sample_student_t(r, 1e8, 0.0, 1.0) for _ in range(100_000)])
    assert ks_statistic(xs, sps.norm.cdf) < 0.01


def test_student_t_df3_variance():
    r = rng_new(3)
    xs = np.array([sample_student_t(r, 3.0, 0.0, 1.0) for _ in range(100_000)])
    assert abs(xs.var() - 3.0) <= 0.3  # df/(df-2) = 3


def test_student_t_cauchy_median():
    # df=1 has no mean; the median is the only stable location statistic
    r = rng_new(20)
    xs = np.array([sample_student_t(r, 1.0, 0.0, 1.0) for _ in range(100_000)])
    assert abs(np.median(xs)) <= 0.02


def test_student_t_rejects_bad_params():
    r = rng_new(0)
    before = r.state_bytes()
    for df, scale in [(0.0, 1.0), (-2.0, 1.0), (math.inf, 1.0), (math.nan, 1.0),
                      (3.0, 0.0), (3.0, math.inf), (3.0, math.nan)]:
        with pytest.raises(ValueError, match=r"^(df|scale) must be a real in \(0, inf\)"):
            sample_student_t(r, df, 0.0, scale)
    assert r.state_bytes() == before  # rejected before any draw


def test_student_t_logpdf_matches_scipy():
    xs = np.linspace(-20, 20, 41)
    ours = [student_t_logpdf(x, 3.0, 0.5, 1.5) for x in xs]
    assert np.allclose(ours, sps.t.logpdf(xs, 3.0, 0.5, 1.5), rtol=1e-12)


# ---------------------------------------------------------------------------
# Distribution objects used as SNIS proposals
# ---------------------------------------------------------------------------

def test_dist_objects_sample_and_logpdf_agree_with_functions():
    d = NormalDist(1.0, 2.0)
    assert d.logpdf(0.3) == normal_logpdf(0.3, 1.0, 2.0)
    r1, r2 = rng_new(8), rng_new(8)
    assert d.sample(r1) == sample_normal(r2, 1.0, 2.0)

    t = StudentTDist(3.0, 0.0, 1.5)
    assert t.logpdf(0.7) == student_t_logpdf(0.7, 3.0, 0.0, 1.5)
    r1, r2 = rng_new(9), rng_new(9)
    assert t.sample(r1) == sample_student_t(r2, 3.0, 0.0, 1.5)


@pytest.mark.parametrize("build, field", [
    (lambda: NormalDist(0.0, 0.0), "sd"),
    (lambda: NormalDist(0.0, -1.0), "sd"),
    (lambda: NormalDist(0.0, math.inf), "sd"),
    (lambda: NormalDist(0.0, math.nan), "sd"),
    (lambda: NormalDist(math.nan, 1.0), "mean"),
    (lambda: NormalDist(-math.inf, 1.0), "mean"),
    (lambda: StudentTDist(0.0), "df"),
    (lambda: StudentTDist(math.inf), "df"),
    (lambda: StudentTDist(math.nan), "df"),
    (lambda: StudentTDist(3.0, math.inf), "loc"),
    (lambda: StudentTDist(3.0, 0.0, 0.0), "scale"),
    (lambda: StudentTDist(3.0, 0.0, math.inf), "scale"),
])
def test_dist_objects_are_valid_when_built(build, field):
    # Caught here, not as ZeroDivisionError or a math domain error in logpdf.
    with pytest.raises(ValueError, match=field):
        build()


# ---------------------------------------------------------------------------
# Distributional fit invariant: KS at 1% for >= 95/100 seeds per sampler
# ---------------------------------------------------------------------------

def _ks_pass_count(draw_one, cdf, n_draws=10_000, n_seeds=100, base_seed=0):
    crit = ks_critical(n_draws, 0.01)
    passed = 0
    for s in range(n_seeds):
        r = rng_new(base_seed + s)
        xs = [draw_one(r) for _ in range(n_draws)]
        if ks_statistic(xs, cdf) < crit:
            passed += 1
    return passed


@pytest.mark.parametrize("name,draw_one,cdf", [
    ("uniform", lambda r: sample_uniform(r, 0.0, 1.0),
     lambda x: np.clip(x, 0.0, 1.0)),
    ("normal", lambda r: sample_normal(r, 0.0, 1.0), sps.norm.cdf),
    ("truncnorm", lambda r: sample_truncated_normal(r, 0.0, 1.0, -1.0, 1.0),
     lambda x: sps.truncnorm.cdf(x, -1.0, 1.0)),
    ("student_t", lambda r: sample_student_t(r, 5.0, 0.0, 1.0),
     lambda x: sps.t.cdf(x, 5.0)),
])
def test_sampler_ks_fit_across_seeds(name, draw_one, cdf):
    passed = _ks_pass_count(draw_one, cdf, base_seed=1_000)
    assert passed >= 95, f"{name}: only {passed}/100 seeds passed the 1% KS test"
