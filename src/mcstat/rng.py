"""Deterministic random streams and the elementary samplers built on them.

The generator is PCG32 (64-bit state, 64-bit odd increment), chosen for
cross-platform bit-reproducibility, a 16-byte serializable state, and cheap
substream derivation.  Normal-family draws go through the inverse CDF so that
truncated sampling has bounded runtime even on narrow or far-tail intervals.

Block draws.  `RngStream.floats_open(n)` and `normals(rng, n, mean, sd)`
return numpy arrays equal bit for bit to n calls of `next_float_open()` and
`sample_normal(rng, mean, sd)`, and advance the stream by the same number of
32-bit words, so scalar and block calls can be mixed freely.  The PCG state
after t steps is a^t s + inc S_t (mod 2^64) with S_t = a^0 + ... + a^(t-1);
one table of (a^t, S_t), a cumulative product and sum computed on first use,
gives a whole block of states from the current one (O'Neill 2014, "PCG";
Brown 1994, "Random Number Generation with Arbitrary Strides").  The table
is pair-swapped, so the block's uint32 outputs, viewed as little-endian
uint64, are next_u64's words.  Blocks hold at most `_BLOCK` floats, so
transient memory does not grow with n; the chain runners and the lockstep
chain kernels in mcmc read their streams in blocks of the same size.  `normals` draws its n floats at once and inverts them in
slices of at most `_PPF_SLICE`, through `_invert_open`; the evidence
experiment draws its whole replication with one call.  figure1 reads every
run's floats into one (runs, iters) block and inverts the whole block with
`_invert_open`, so its slices are shared across runs.

`norm_ppf_many` is `norm_ppf` over an array of any shape.  The two share the
rational approximations and the Halley step, written once for floats and
arrays.  The array path runs the central approximation and the Halley step
on every element and patches in the tail (and far-tail) elements only when
there are any, so the common case indexes no boolean mask.  Every
transcendental comes from the C library bit for bit: numpy's own log and exp
differ from libm in the last ulp on a few percent of inputs, which would
break the bit-for-bit contract.  log and erfc go one element at a time
through `_libm`, which takes any shape.  exp goes through `_libm_exp`, one
C loop: the real part of numpy's complex exp, which is glibc's cexp and at
a zero imaginary part returns libm's exp for every argument up to 709.  The
Halley step's exp(x^2/2) is below exp(700), since far-tail elements are
replaced by 0 first.  A numpy build that vectorised complex exp would fail
test_rng's bit-for-bit test of `_libm_exp`; the pinned digests would not
show it, as the Halley correction is too small for the last bit of
exp(x^2/2) to reach x (numpy's float exp in its place left 2x10^6
quantiles unchanged).

Constants on array paths are 0-d float64 arrays.  With numpy 2's weak-scalar
promotion (NEP 50), a ufunc with a Python-float operand costs about 0.2 us
more than one with a 0-d float64 array (0.68 against 0.45 us for a multiply
on 100 elements), and a K = 100 lockstep step makes about 45 such calls.
So every constant the array paths use has a 0-d twin, built once here by
`_zero_d` from its float (`_HALF_0D` for 0.5, `_PPF_A_0D` for `_PPF_A`):
the same float64 value through the same IEEE operation, so every result
keeps its bits.  `_ppf_central`, `_ppf_tail` and `_halley` take their
constants as parameters that default to the floats; only array callers pass
the twins.  A 0-d value never reaches a float path: a float times a 0-d
array is an np.float64, which is slower and is not a float.  Mask tests
made once per step use `np.count_nonzero`, which costs less than half of
`.all()` or `.any()` at 100 elements.

Counts, reals and arrays.  Every count, index and seed is checked by
`_count`, and every real argument (mean, sd, scale, tol, bound, initial
state, target_accept) by `_real`, which returns the Python float it equals,
so a float32 argument runs float64 arithmetic; a bool, a string, NaN
or a value out of range raises ValueError naming the argument.  Every array
check is `_every(name, a, ok, rule)`, raising `<name> must be <rule>, got <v>
at index <i>` at the first element where `ok` is False: `_finite` (data,
draws, log likelihoods, running values, CDF points), `norm_ppf_many`, the
importance weights, the bridge's log densities and their ratios, and the
values svgplot draws.  An array that must not have more than one dimension
(samples, weights, data) is checked by `_one_dim`.  A check over the rows
of a batch (lockstep chains, evidence groups) raises `ChainFailure` naming
the lowest failing row, through `_raise_unless_rows` where the rows share
one format string.
Checks made per draw or per evaluation stay inline, where a helper call
would cost as much as the draw: `sample_normal`,
`sample_truncated_normal`, `norm_ppf`, `slice_truncation_bound`, mcmc's
slice steps and quadrature's integrand; the two samplers still take
float() of their mean, sd and bounds, so a float32 argument runs float64
arithmetic there too.  Their dead-interval and quantile-domain texts are
written once, here.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RngStream",
    "rng_new",
    "derive_substream",
    "sample_normal",
    "normals",
    "sample_truncated_normal",
    "norm_cdf",
    "norm_ppf",
    "norm_ppf_many",
    "normal_logpdf",
    "NormalDist",
]

_MASK64 = (1 << 64) - 1
_PCG_MULT = 6364136223846793005
_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Smallest truncation-interval probability we are willing to invert through.
_MIN_TAIL_MASS = 1e-300
# The per-draw failure texts, formatted here and by mcmc's slice steps.
_DEAD_INTERVAL = "truncation interval [{}, {}] has probability {:.3e}, below machine threshold"
_P_RANGE = "p must be in (0, 1), got {!r}"

# Most open floats one block computes at once (two PCG words each).
_BLOCK = 1024
# Most uniforms normals inverts in one norm_ppf_many pass.
_PPF_SLICE = 4 * _BLOCK


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _count(name: str, v, lo: int = 0, hi: int | None = None) -> int:
    """`v` as a Python int in [lo, hi), or >= lo when hi is None (see the
    module docstring). Through operator.index, numpy integers act as plain
    ints."""
    try:
        i = operator.index(v)
    except TypeError:
        i = None
    if i is None or isinstance(v, bool) or i < lo or (hi is not None and i >= hi):
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi})"
        raise ValueError(f"{name} must be an integer {bounds}, got {v!r}")
    return i


def _real(name: str, v, lo: float = -math.inf, hi: float = math.inf) -> float:
    """`v` as a Python float in the open interval (lo, hi) (see the module
    docstring). numpy reals act as the float they equal."""
    try:
        x = float(v) if isinstance(v, numbers.Real) and not isinstance(v, bool) else math.nan
    except OverflowError:  # an integer beyond the float range
        x = math.nan
    if not lo < x < hi:
        raise ValueError(f"{name} must be a real in ({lo:g}, {hi:g}), got {v!r}")
    return x


def _every(name: str, a: np.ndarray, ok: np.ndarray, rule: str) -> None:
    """Raise `<name> must be <rule>, got <v> at index <i>` at the first
    element of `a` where `ok` is False; i is an int for 1-D input and a
    tuple such as (row, t) for more dimensions."""
    if np.count_nonzero(ok) < ok.size:
        i = np.unravel_index(int(np.argmin(ok)), a.shape)
        i = int(i[0]) if a.ndim == 1 else tuple(map(int, i))
        raise ValueError(f"{name} must be {rule}, got {float(a[i])!r} at index {i}")


def _finite(name: str, a) -> np.ndarray:
    """`a` as a float array; its first NaN or +-inf raises (see _every)."""
    a = np.asarray(a, dtype=float)
    _every(name, a, np.isfinite(a), "finite")
    return a


def _one_dim(name: str, a: np.ndarray) -> np.ndarray:
    """`a` itself, unless it has more than one dimension."""
    if a.ndim > 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {a.shape}")
    return a


class ChainFailure(ValueError):
    """A row of a batched computation failed; `row` indexes its stream.

    Raised for the lowest failing row by the lockstep kernels' draws and
    steps, the evidence row cores (`estimators._harmonic_rows`,
    `_bridge_rows`) and evidence's proposal fit (`harness._evidence_group`).
    mcmc re-exports it."""

    def __init__(self, row: int, cause: Exception):
        super().__init__(str(cause))
        self.row = row


def _raise_unless_rows(ok, message, *values):
    # Raise ChainFailure with message.format(*values at the row) for the
    # lowest row of the 1-D mask `ok` that is False.
    if np.count_nonzero(ok) < ok.size:
        row = int(np.argmin(ok))
        raise ChainFailure(row, ValueError(message.format(*(float(v[row]) for v in values))))


class RngStream:
    """PCG32 stream identified by (seed, stream_id), integers in [0, 2^64).

    The same (seed, stream_id) pair always reproduces the same output
    sequence.  Streams are single-owner: never share one across concurrent
    consumers; derive substreams instead.
    """

    __slots__ = ("seed", "stream_id", "_state", "_inc")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = seed = _count("seed", seed, 0, 1 << 64)
        self.stream_id = stream_id = _count("stream_id", stream_id, 0, 1 << 64)
        # Fold the full 64 bits of stream_id into the initial state as well:
        # the PCG increment only keeps 63 of them.
        self._inc = ((stream_id << 1) | 1) & _MASK64
        self._state = 0
        self._bump()
        self._state = (self._state + ((seed + _splitmix64(stream_id)) & _MASK64)) & _MASK64
        self._bump()

    def _bump(self) -> None:
        self._state = (self._state * _PCG_MULT + self._inc) & _MASK64

    def next_u32(self) -> int:
        old = self._state
        self._state = (old * _PCG_MULT + self._inc) & _MASK64
        xorshifted = (((old >> 18) ^ old) >> 27) & 0xFFFFFFFF
        rot = old >> 59
        return ((xorshifted >> rot) | (xorshifted << (32 - rot))) & 0xFFFFFFFF

    def next_u64(self) -> int:
        return (self.next_u32() << 32) | self.next_u32()

    def next_float(self) -> float:
        """Uniform double in [0, 1), 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def next_float_open(self) -> float:
        """Uniform double in (0, 1); safe to feed to log() or an inverse CDF."""
        u = ((self.next_u64() >> 11) + 0.5) * 2.0**-53
        # The top 53-bit value rounds to exactly 1.0; map it just below.
        return u if u < 1.0 else 1.0 - 2.0**-53

    def floats_open(self, n: int) -> np.ndarray:
        """n open uniforms as a float64 array, equal bit for bit to n calls
        of next_float_open(); the stream advances by the same 2n words.

        Each block's states come from the pair-swapped jump table as
        s1, s0, s3, s2, ..., so each uint32 output pair (lo, hi), viewed as
        a little-endian uint64, is next_u64's hi << 32 | lo."""
        n = _count("n", n)
        out = np.empty(n)
        powers, sums = _jump_table()
        shifts = sums * np.uint64(self._inc)
        for start in range(0, n, _BLOCK):
            words = 2 * min(_BLOCK, n - start)
            states = powers[:words] * np.uint64(self._state) + shifts[:words]
            # states[-2] is the block's last state in stream order
            self._state = (int(states[-2]) * _PCG_MULT + self._inc) & _MASK64
            # the view assumes a little-endian host, as every supported x86-64 host is
            out[start:start + words // 2] = _open_floats(_pcg_output(states).view(np.uint64))
        return out

    def state_bytes(self) -> bytes:
        """16-byte little-endian checkpoint (state, increment), O'Neill's
        PCG32 pair.  The increment is (stream_id << 1) | 1 mod 2^64, so the
        checkpoint holds the stream_id's low 63 bits only."""
        return self._state.to_bytes(8, "little") + self._inc.to_bytes(8, "little")

    @classmethod
    def from_state_bytes(cls, raw: bytes, seed: int = 0) -> "RngStream":
        """Resume a stream from a checkpoint produced by state_bytes().

        The original seed is not recoverable from the checkpoint, and of
        the stream_id only its low 63 bits are: the resumed stream's
        stream_id is the original's & (2^63 - 1), though its draws are the
        original's.  state_bytes() always writes an odd increment, so an
        even one raises.
        """
        if len(raw) != 16:
            raise ValueError(f"expected 16 bytes of stream state, got {len(raw)}")
        inc = int.from_bytes(raw[8:], "little")
        if not inc & 1:
            raise ValueError(f"stream increment must be odd, got {inc:#x}")
        obj = cls.__new__(cls)
        obj._state = int.from_bytes(raw[:8], "little")
        obj._inc = inc
        obj.seed = _count("seed", seed, 0, 1 << 64)
        obj.stream_id = inc >> 1
        return obj

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


@functools.cache
def _jump_table() -> tuple[np.ndarray, np.ndarray]:
    """(a^t, S_t) mod 2^64 for t < 2 * _BLOCK, S_t = a^0 + ... + a^(t-1),
    in pair-swapped order: index i holds t = i ^ 1.

    The state t steps after s is a^t s + inc S_t: a^t is the running
    product of [1, a, a, ...] and S_t the running sum of the powers before
    t. The uint64 products and sums wrap mod 2^64, as the generator does.
    The swap puts each next_u64's low word (t odd) before its high word
    (t even), the order of a little-endian uint64 (see floats_open).
    """
    steps = np.full(2 * _BLOCK, _PCG_MULT, dtype=np.uint64)
    steps[0] = 1
    powers = np.cumprod(steps)
    swap = np.arange(2 * _BLOCK) ^ 1
    return powers[swap], (np.cumsum(powers) - powers)[swap]


def _pcg_output(states: np.ndarray) -> np.ndarray:
    # next_u32's XSH-RR output of each uint64 state, as a uint32 array. The
    # casts keep the low 32 bits; (32 - rot) & 31 keeps the left shift below
    # 32, and at rot = 0 both shifts return x.
    x = (((states >> np.uint64(18)) ^ states) >> np.uint64(27)).astype(np.uint32)
    rot = (states >> np.uint64(59)).astype(np.uint32)
    return x >> rot | x << ((np.uint32(32) - rot) & np.uint32(31))


def _open_floats(words: np.ndarray) -> np.ndarray:
    # next_float_open on uint64 words, including its clamp of 1.0 to 1 - 2^-53.
    u = ((words >> np.uint64(11)).astype(float) + 0.5) * 2.0**-53
    return np.minimum(u, 1.0 - 2.0**-53)


def rng_new(seed: int) -> RngStream:
    """Fresh root stream for a seed, positioned at the sequence start."""
    return RngStream(seed, stream_id=0)


def derive_substream(parent: RngStream, k: int) -> RngStream:
    """Deterministic child stream k of a parent.

    Depends only on (parent.seed, parent.stream_id, k), never on how many
    draws the parent has already produced, so substreams can be derived
    before, during, or after consuming the parent.
    """
    k = _count("k", k, 0, 1 << 64)
    mixed = _splitmix64((parent.stream_id * 0x9E3779B97F4A7C15 + k + 1) & _MASK64)
    return RngStream(parent.seed, stream_id=mixed)


# ---------------------------------------------------------------------------
# Normal CDF / inverse CDF
# ---------------------------------------------------------------------------

def norm_cdf(x: float) -> float:
    """Standard normal CDF via erfc; accurate into the far lower tail."""
    return 0.5 * math.erfc(-x / _SQRT2)


# Rational approximation coefficients (Acklam); refined below to double
# precision with one erfc-based correction step.
_PPF_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_PPF_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_PPF_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_PPF_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)
_PPF_P_LOW = 0.02425


def _zero_d(values) -> tuple[np.ndarray, ...]:
    # The 0-d float64 twin of each float, for the array paths only (see the
    # module docstring).
    return tuple(np.array(v, dtype=np.float64) for v in values)


_PPF_A_0D, _PPF_B_0D, _PPF_C_0D, _PPF_D_0D = map(_zero_d, (_PPF_A, _PPF_B, _PPF_C, _PPF_D))
(_ZERO_0D, _HALF_0D, _NEG_HALF_0D, _ONE_0D, _TWO_0D, _NEG_TWO_0D, _SQRT2_0D, _SQRT_2PI_0D,
 _PPF_P_LOW_0D, _FAR_0D, _MIN_TAIL_MASS_0D) = _zero_d((0.0, 0.5, -0.5, 1.0, 2.0, -2.0, _SQRT2,
                                                      _SQRT_2PI, _PPF_P_LOW, 700.0,
                                                      _MIN_TAIL_MASS))


def _ppf_central(p, a=_PPF_A, b=_PPF_B, half=0.5, one=1.0):
    # Acklam's central rational approximation, _PPF_P_LOW <= p <= 0.5.
    # Like _ppf_tail and _halley, takes a float or an array; array callers
    # pass the constants' 0-d twins.
    q = p - half
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + one)


def _ppf_tail(q, c=_PPF_C, d=_PPF_D, one=1.0):
    # Acklam's lower-tail rational approximation in q = sqrt(-2 log p).
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + one)


def _halley(x, p, cdf, growth, sqrt_2pi=_SQRT_2PI, one=1.0, two=2.0):
    # One Halley step on Phi(x) = p, given cdf = Phi(x) and growth = exp(x^2/2).
    u = (cdf - p) * sqrt_2pi * growth
    return x - u / (one + x * u / two)


def norm_ppf(p: float) -> float:
    """Standard normal quantile, absolute accuracy well below 1e-12.

    Acklam's rational approximation followed by one Halley step (central
    range) or log-domain Newton steps (far tail, where exp(x^2/2) overflows).
    Upper-half inputs are reflected: 1 - p is exact for p >= 0.5, and the
    lower-tail refinement is free of cancellation.
    """
    if not 0.0 < p < 1.0:
        # float(p): a numpy float reads as on the array path
        raise ValueError(_P_RANGE.format(float(p)))
    if p > 0.5:
        return -_norm_ppf_lower(1.0 - p)
    return _norm_ppf_lower(p)


def _norm_ppf_lower(p: float) -> float:
    # p in (0, 0.5]; result <= 0, so Phi(x) = erfc(|x|/sqrt(2))/2 is exact.
    x = _ppf_tail(math.sqrt(-2.0 * math.log(p))) if p < _PPF_P_LOW else _ppf_central(p)
    half_sq = 0.5 * x * x
    if half_sq < 700.0:
        return _halley(x, p, norm_cdf(x), math.exp(half_sq))
    # Far tail: Newton on log Phi, all quantities representable.
    target = math.log(p)
    for _ in range(2):
        tail = norm_cdf(x)
        if tail <= 0.0:
            break
        log_tail = math.log(tail)
        log_pdf = -0.5 * x * x - _LOG_SQRT_2PI
        x -= (log_tail - target) * math.exp(log_tail - log_pdf)
    return x


def _libm(fn, a: np.ndarray) -> np.ndarray:
    # fn from math applied per element: the C library's result, bit for bit,
    # at one Python call per element. For log, log1p and erfc numpy has no
    # route equal to libm; exp has one C loop, _libm_exp. A memoryview of
    # the raveled array yields its Python floats without .tolist()'s list.
    a = np.asarray(a, dtype=float)
    out = np.fromiter(map(fn, memoryview(a.ravel())), dtype=float, count=a.size)
    return out.reshape(a.shape)


def _libm_exp(a: np.ndarray) -> np.ndarray:
    """libm's exp of every element of the float array `a`, bit for bit, in
    one C loop. Every element must be at most 709.

    numpy's complex exp is the C library's cexp, and at a zero imaginary
    part glibc's cexp returns exp(x) * cos(0) = exp(x) * 1.0 for x <= 709,
    so the real part is libm's exp(x). Above 709 glibc rescales and the
    bits differ. numpy's float exp is its own SIMD loop, which differs from
    libm in the last ulp on a few percent of inputs.
    """
    return np.exp(a.astype(complex)).real


def norm_ppf_many(p) -> np.ndarray:
    """norm_ppf of every element of `p`, equal bit for bit to the scalar.

    Takes any shape. The first element outside (0, 1) raises (see _every).
    """
    p = np.asarray(p, dtype=float)
    _every("p", p, (p > 0.0) & (p < 1.0), "in (0, 1)")
    return _norm_ppf_many_unchecked(p)


def _norm_ppf_many_unchecked(p: np.ndarray) -> np.ndarray:
    # norm_ppf_many on a float array the caller has checked lies in (0, 1).
    upper = p > _HALF_0D
    x = _norm_ppf_lower_many(np.where(upper, _ONE_0D - p, p).ravel()).reshape(p.shape)
    return np.where(upper, -x, x)


def _norm_ppf_lower_many(p: np.ndarray) -> np.ndarray:
    # _norm_ppf_lower per element of a 1-D array p in (0, 0.5]. The central
    # approximation and the Halley step run on the whole array; the tail
    # elements (and the far tail) are patched in only when there are any.
    x = _ppf_central(p, _PPF_A_0D, _PPF_B_0D, _HALF_0D, _ONE_0D)
    tail = p < _PPF_P_LOW_0D
    if np.count_nonzero(tail):
        x[tail] = _ppf_tail(np.sqrt(_NEG_TWO_0D * _libm(math.log, p[tail])),
                            _PPF_C_0D, _PPF_D_0D, _ONE_0D)
    half_sq = _HALF_0D * x * x
    far = half_sq >= _FAR_0D
    # exp(half_sq) overflows in the far tail, which is replaced below.
    growth = _libm_exp(np.where(far, _ZERO_0D, half_sq))
    x = _halley(x, p, _HALF_0D * _libm(math.erfc, -x / _SQRT2_0D), growth,
                _SQRT_2PI_0D, _ONE_0D, _TWO_0D)
    if np.count_nonzero(far):
        x[far] = [_norm_ppf_lower(v) for v in p[far].tolist()]
    return x


def normal_logpdf(x: float, mean: float = 0.0, sd: float = 1.0) -> float:
    z = (x - mean) / sd
    return -0.5 * z * z - math.log(sd) - _LOG_SQRT_2PI


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def sample_normal(rng: RngStream, mean: float, sd: float) -> float:
    """One draw from N(mean, sd^2) by inversion."""
    if not 0.0 < sd < math.inf:
        raise ValueError(f"normal sd must be positive and finite, got {sd!r}")
    # float(): a numpy float32 argument runs float64 arithmetic
    return float(mean) + float(sd) * norm_ppf(rng.next_float_open())


def normals(rng: RngStream, n: int, mean: float, sd: float) -> np.ndarray:
    """n draws from N(mean, sd^2) as an array, equal bit for bit to n calls
    of sample_normal(rng, mean, sd) and leaving the stream where they would."""
    mean, sd = _real("mean", mean), _real("sd", sd, 0.0)
    return mean + sd * _invert_open(rng.floats_open(n))


def _invert_open(u: np.ndarray) -> np.ndarray:
    """Replace the open floats of the 1-D array `u` by their standard
    normal quantiles, in place, and return `u`.

    Slices of at most _PPF_SLICE floats keep the quantile's temporaries
    bounded. Open floats lie in (0, 1), so they skip norm_ppf_many's check.
    """
    for start in range(0, u.size, _PPF_SLICE):
        u[start:start + _PPF_SLICE] = _norm_ppf_many_unchecked(u[start:start + _PPF_SLICE])
    return u


def sample_truncated_normal(rng: RngStream, mean: float, sd: float,
                            lo: float, hi: float) -> float:
    """One draw from N(mean, sd^2) restricted to [lo, hi], by inversion.

    Endpoints may be infinite.  The standardized interval [a, b] is inverted
    on the lower-tail CDF scale, where erfc keeps far-tail masses
    representable; an interval in the upper half-line (a >= 0) is mirrored
    to [-b, -a] first and its draw negated.  Raises if the interval carries
    no numerically representable probability mass; a call that raises
    consumes no draw, as its one rng.next_float_open() comes after every
    check.  `rng` may be any object with next_float_open().
    """
    if not 0.0 < sd < math.inf:
        raise ValueError(f"truncated normal sd must be positive and finite, got {sd!r}")
    # float(): a numpy float32 argument runs float64 arithmetic
    mean, sd, lo, hi = float(mean), float(sd), float(lo), float(hi)
    if not lo < hi:
        raise ValueError(f"truncation interval must satisfy lo < hi, got [{lo}, {hi}]")
    a = (lo - mean) / sd
    b = (hi - mean) / sd
    mirror = a >= 0.0
    pa, pb = (norm_cdf(-b), norm_cdf(-a)) if mirror else (norm_cdf(a), norm_cdf(b))
    mass = pb - pa
    if not mass > _MIN_TAIL_MASS:
        raise ValueError(_DEAD_INTERVAL.format(lo, hi, mass))
    z = norm_ppf(pa + rng.next_float_open() * mass)
    # Inversion error is ~1 ulp; clamp so the range contract is exact.
    z = min(max(-z if mirror else z, a), b)
    x = mean + sd * z
    return min(max(x, lo), hi)


# ---------------------------------------------------------------------------
# Small distribution objects (sampler + logpdf), used as proposals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalDist:
    mean: float
    sd: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean", _real("mean", self.mean))
        object.__setattr__(self, "sd", _real("sd", self.sd, 0.0))

    def sample(self, rng: RngStream) -> float:
        return sample_normal(rng, self.mean, self.sd)

    def logpdf(self, x: float) -> float:
        return normal_logpdf(x, self.mean, self.sd)
