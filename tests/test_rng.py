"""Deterministic stream behaviour and distributional accuracy of mcstat.rng."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.stats as sps
from hypothesis import given, settings, strategies as st

import mcstat
import mcstat.rng as rng_mod
from mcstat.mcmc import slice_gibbs_step
from mcstat.rng import (
    _BLOCK,
    _PPF_P_LOW,
    _PPF_SLICE,
    _halley,
    _jump_table,
    _libm,
    _libm_exp,
    _open_floats,
    _pcg_output,
    _ppf_central,
    _ppf_tail,
    NormalDist,
    RngStream,
    derive_substream,
    norm_cdf,
    norm_ppf,
    norm_ppf_many,
    normal_logpdf,
    normals,
    rng_new,
    sample_normal,
    sample_truncated_normal,
)
from mcstat.targets import EXAMPLE_TARGET, example_target_logpdf

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


def _stream_at(state, inc=0x6D):
    return RngStream.from_state_bytes(state.to_bytes(8, "little") + inc.to_bytes(8, "little"))


def test_block_output_matches_next_u32_at_every_rotation():
    # The top 5 bits of a state are XSH-RR's rotation; rot = 0 is the edge
    # of the uint32 left shift by (32 - rot) & 31.
    states = [rot << 59 | (0x0123456789ABCDEF * (rot + 1)) & (2**59 - 1) for rot in range(32)]
    out = _pcg_output(np.array(states, dtype=np.uint64))
    assert out.dtype == np.uint32
    assert out.tolist() == [_stream_at(s).next_u32() for s in states]


def test_a_pair_swapped_block_reads_as_next_u64():
    # The jump table gives a two-state block as (s1, s0); its outputs viewed
    # as a uint64 are next_u64's high word then low word.
    powers, sums = _jump_table()
    for s in (0x185706B82C2E03F8, 0, 2**64 - 1, 7 << 59):
        states = powers[:2] * np.uint64(s) + sums[:2] * np.uint64(0x6D)
        r = _stream_at(s)
        assert states.tolist() == [(s * 6364136223846793005 + 0x6D) % 2**64, s]
        assert _pcg_output(states).view(np.uint64).tolist() == [r.next_u64()]


def test_a_resumed_stream_keeps_the_low_63_bits_of_its_stream_id():
    # The increment (stream_id << 1) | 1 cannot hold bit 63, which about
    # half of all derived substreams set; the draws still resume exactly.
    r = derive_substream(rng_new(0), 0)
    assert r.stream_id == 0x910A2DEC89025CC1
    r.next_u32()
    clone = RngStream.from_state_bytes(r.state_bytes())
    assert clone.stream_id == r.stream_id & (2**63 - 1) == 0x110A2DEC89025CC1
    assert [clone.next_u32() for _ in range(100)] == [r.next_u32() for _ in range(100)]
    assert clone.floats_open(3000).tobytes() == r.floats_open(3000).tobytes()


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


# Each branch of norm_ppf and its edges, the far tail included. The last
# two straddle the far-tail switch: the largest p whose tail approximation
# has 0.5 x^2 >= 700, and the next float up, whose Halley step takes
# exp(699.999999999999).
_PPF_EDGES = [2.0**-54, math.nextafter(_PPF_P_LOW, 0.0), _PPF_P_LOW,
              math.nextafter(_PPF_P_LOW, 1.0), 0.5, math.nextafter(0.5, 1.0),
              1.0 - _PPF_P_LOW, 1.0 - 2.0**-53, 1e-310, 5e-324, 1e-300,
              1.0505079228081556e-306, 1.0505079228081558e-306]


def test_norm_ppf_many_matches_scalar_at_branch_edges():
    assert _bits(norm_ppf_many(_PPF_EDGES)) == _bits([norm_ppf(p) for p in _PPF_EDGES])


def test_norm_ppf_many_matches_scalar_on_2d_input():
    # the edges put tail and far-tail elements in, so their patch path runs
    ps = np.array(_PPF_EDGES + [0.3]).reshape(2, 7)
    out = norm_ppf_many(ps)
    assert out.shape == (2, 7)
    assert _bits(out) == _bits([norm_ppf(p) for p in ps.ravel().tolist()])
    central = np.array([[0.3, 0.6], [0.5, 0.45]])  # no tail: the common path alone
    assert _bits(norm_ppf_many(central)) == \
        _bits([norm_ppf(p) for p in central.ravel().tolist()])
    assert norm_ppf_many(0.3).shape == ()


def _libm_inputs():
    # positive, so that every fn's domain holds them
    grid = 0.01 + 8.0 * rng_new(26).floats_open(60).reshape(6, 10)
    return {"0-d": np.array(1.5), "empty": np.empty((0, 3)), "1-D": grid[0],
            "C 2-D": grid, "F 2-D": np.asfortranarray(grid), "transposed": grid.T,
            "strided": grid[:, ::3], "3-D": grid.reshape(2, 3, 10)}


@pytest.mark.parametrize("fn", [math.erfc, math.log, math.log1p, math.exp],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("kind", list(_libm_inputs()))
def test_libm_is_fn_per_element_bit_for_bit(fn, kind):
    # _libm reads a memoryview of the raveled array: every memory layout
    # must give fn of each element at that element's index
    a = _libm_inputs()[kind]
    out = _libm(fn, a)
    assert out.shape == a.shape
    want = np.empty(a.shape)
    for i in np.ndindex(a.shape):
        want[i] = fn(float(a[i]))
    assert np.array_equal(out.view(np.int64), want.view(np.int64))


def test_libm_exp_is_libm_exp_bit_for_bit():
    # 10^6 fixed-seed arguments over its domain [-745.2, 709], then -inf,
    # the signed zeros, 709 and arguments whose exp is subnormal
    u = rng_new(25).floats_open(10**6)
    subnormal = [-708.5, -720.0, -740.0, -745.1]
    a = np.concatenate((-745.2 + u * (709.0 + 745.2),
                        [-math.inf, -0.0, 0.0, 709.0, math.nextafter(709.0, 0.0)] + subnormal))
    want = np.array([math.exp(v) for v in a.tolist()])
    assert all(0.0 < math.exp(v) < 2.0**-1022 for v in subnormal)
    got = _libm_exp(a)
    assert got.shape == a.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@given(ps=st.lists(st.floats(5e-324, 1.0, exclude_max=True), max_size=50))
@settings(max_examples=100, deadline=None)
def test_norm_ppf_many_matches_scalar_property(ps):
    assert _bits(norm_ppf_many(ps)) == _bits([norm_ppf(p) for p in ps])


@pytest.mark.parametrize("n", [1, 100, _PPF_SLICE])  # one row, K = 100, one slice
def test_norm_ppf_many_matches_scalar_at_lockstep_widths(n):
    # each branch edge in front of n - 1 fixed-seed uniforms, then the
    # uniforms alone: the array path's 0-d constants give the float bits
    u = rng_new(22).floats_open(n)
    for ps in [np.concatenate(([edge], u[1:])) for edge in _PPF_EDGES] + [u]:
        assert _bits(norm_ppf_many(ps)) == _bits([norm_ppf(p) for p in ps.tolist()])


def _twins():
    # (0-d constant, its float) for every constant the array paths use
    pairs = [(rng_mod._ZERO_0D, 0.0), (rng_mod._HALF_0D, 0.5), (rng_mod._NEG_HALF_0D, -0.5),
             (rng_mod._ONE_0D, 1.0), (rng_mod._TWO_0D, 2.0), (rng_mod._NEG_TWO_0D, -2.0),
             (rng_mod._FAR_0D, 700.0)]
    for name in ("_SQRT2", "_SQRT_2PI", "_PPF_P_LOW", "_MIN_TAIL_MASS"):
        pairs.append((getattr(rng_mod, f"{name}_0D"), getattr(rng_mod, name)))
    for name in ("_PPF_A", "_PPF_B", "_PPF_C", "_PPF_D"):
        zero_d, floats = getattr(rng_mod, f"{name}_0D"), getattr(rng_mod, name)
        assert len(zero_d) == len(floats)
        pairs += zip(zero_d, floats)
    return pairs


def test_zero_d_constants_are_their_float_twins_bit_for_bit():
    pairs = _twins()
    assert len(pairs) == 32
    for zero_d, f in pairs:
        assert type(zero_d) is np.ndarray and zero_d.dtype == np.float64
        assert zero_d.shape == ()
        assert type(f) is float
        assert zero_d.tobytes() == np.float64(f).tobytes()


def test_float_paths_return_python_floats():
    # a 0-d constant on a float path would turn these into numpy values
    for p in (0.3, 0.7, 0.01, 0.995, 1e-300, 1e-310, 5e-324):  # central, tail, far tail
        assert type(norm_ppf(p)) is float, p
    assert type(_ppf_central(0.3)) is float
    assert type(_ppf_tail(3.0)) is float
    assert type(_halley(-1.0, 0.2, 0.15, 1.6)) is float
    assert type(slice_gibbs_step(0.3, rng_new(1))) is float
    assert type(example_target_logpdf(0.7)) is float
    assert type(EXAMPLE_TARGET.logpdf(0.7)) is float


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
    assert np.allclose([norm_cdf(-x) for x in xs], sps.norm.sf(xs), rtol=1e-13)


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
        qa, qb = norm_cdf(-a), norm_cdf(-b)
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
# Distribution objects used as SNIS proposals
# ---------------------------------------------------------------------------

def test_dist_objects_sample_and_logpdf_agree_with_functions():
    d = NormalDist(1.0, 2.0)
    assert d.logpdf(0.3) == normal_logpdf(0.3, 1.0, 2.0)
    r1, r2 = rng_new(8), rng_new(8)
    assert d.sample(r1) == sample_normal(r2, 1.0, 2.0)


@pytest.mark.parametrize("build, field", [
    (lambda: NormalDist(0.0, 0.0), "sd"),
    (lambda: NormalDist(0.0, -1.0), "sd"),
    (lambda: NormalDist(0.0, math.inf), "sd"),
    (lambda: NormalDist(0.0, math.nan), "sd"),
    (lambda: NormalDist(math.nan, 1.0), "mean"),
    (lambda: NormalDist(-math.inf, 1.0), "mean"),
])
def test_dist_objects_are_valid_when_built(build, field):
    # Caught here, not as ZeroDivisionError or a math domain error in logpdf.
    with pytest.raises(ValueError, match=field):
        build()


# ---------------------------------------------------------------------------
# Words per draw: every sampler reads a fixed number of PCG words, so a
# block of n draws can be taken as one floats_open call
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("draw, words", [
    (lambda r, i: sample_normal(r, 0.1 * i, 1.0 + i), 2),
    (lambda r, i: NormalDist(-0.1 * i, 0.5 + i).sample(r), 2),
    (lambda r, i: sample_truncated_normal(r, 0.0, 1.0, -1.0 - 0.1 * i, 0.5), 2),
    (lambda r, i: sample_truncated_normal(r, 0.0, 1.0, 8.0 + 0.1 * i, 8.5 + 0.1 * i), 2),
    (lambda r, i: sample_truncated_normal(r, 1.0, 2.0, -math.inf, 0.1 * i), 2),
    (lambda r, i: normals(r, i, 0.0, 1.0), lambda i: 2 * i),
    (lambda r, i: slice_gibbs_step(0.3 * i - 5.0, r), 4),
], ids=["sample_normal", "NormalDist", "truncnorm-central",
        "truncnorm-far-tail", "truncnorm-half-line", "normals", "slice_gibbs_step"])
def test_every_sampler_reads_a_fixed_number_of_words_per_draw(draw, words):
    r, ref = rng_new(41), rng_new(41)
    for i in range(40):  # the parameters, and so the draws' paths, vary with i
        draw(r, i)
        for _ in range(words(i) if callable(words) else words):
            ref.next_u32()
        assert r.state_bytes() == ref.state_bytes(), i


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
    ("uniform", lambda r: r.next_float_open(),
     lambda x: np.clip(x, 0.0, 1.0)),
    ("normal", lambda r: sample_normal(r, 0.0, 1.0), sps.norm.cdf),
    ("truncnorm", lambda r: sample_truncated_normal(r, 0.0, 1.0, -1.0, 1.0),
     lambda x: sps.truncnorm.cdf(x, -1.0, 1.0)),
])
def test_sampler_ks_fit_across_seeds(name, draw_one, cdf):
    passed = _ks_pass_count(draw_one, cdf, base_seed=1_000)
    assert passed >= 95, f"{name}: only {passed}/100 seeds passed the 1% KS test"


# ---------------------------------------------------------------------------
# Guard: every random number comes from RngStream
# ---------------------------------------------------------------------------

def _numpy_random_uses(tree: ast.AST) -> list[int]:
    """Line numbers of np.random / numpy.random attributes and of imports
    of numpy.random or of `random` from numpy."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "random" and \
                isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
            lines.append(node.lineno)
        elif isinstance(node, ast.Import) and \
                any(a.name.startswith("numpy.random") for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module and (
                node.module.startswith("numpy.random")
                or (node.module == "numpy" and any(a.name == "random" for a in node.names))):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_generator_guard_sees_every_form_of_numpy_random():
    tree = ast.parse("import numpy.random\n"
                     "from numpy.random import default_rng\n"
                     "from numpy import random\n"
                     "x = np.random.default_rng(0)\n"
                     "y = numpy.random.rand()\n"
                     "z = rng.random()\n")
    assert _numpy_random_uses(tree) == [1, 2, 3, 4, 5]


def test_no_numpy_random_in_mcstat():
    # numpy's generators do not promise the same stream across numpy
    # versions (NEP 19); every draw must replay from (seed, stream_id)
    found = {}
    for path in sorted(Path(mcstat.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = _numpy_random_uses(ast.parse(text))
        if lines or "np.random" in text or "numpy.random" in text:
            found[path.name] = lines
    assert not found, f"numpy.random in {found}; draw from RngStream"
