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
one table of (a^t, S_t), built by doubling on first use, gives a whole block
of states from the current one (O'Neill 2014, "PCG"; Brown 1994, "Random
Number Generation with Arbitrary Strides").  Blocks hold at most `_BLOCK`
floats, so transient memory does not grow with n; the chain runners and the
lockstep chain kernels in mcmc read their streams in blocks of the same
size.  The truncated normal reads only `rng.next_float_open()`, so floats
read ahead can stand in.

`norm_ppf_many` is `norm_ppf` over an array of any shape.  The two share the
rational approximations and the Halley step, written once for floats and
arrays.  The array path runs the central approximation and the Halley step
on every element and patches in the tail (and far-tail) elements only when
there are any, so the common case indexes no boolean mask.  Every
transcendental (log, erfc, exp) comes from the C library one element at a
time through `_libm`, which takes any shape: numpy's own log and exp differ
from libm in the last ulp on a few percent of inputs, which would break the
bit-for-bit contract.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RngStream",
    "rng_new",
    "derive_substream",
    "sample_uniform",
    "sample_normal",
    "normals",
    "sample_truncated_normal",
    "sample_student_t",
    "norm_cdf",
    "norm_sf",
    "norm_ppf",
    "norm_ppf_many",
    "normal_logpdf",
    "student_t_logpdf",
    "NormalDist",
    "StudentTDist",
]

_MASK64 = (1 << 64) - 1
_PCG_MULT = 6364136223846793005
_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Smallest truncation-interval probability we are willing to invert through.
_MIN_TAIL_MASS = 1e-300

# Most open floats one block computes at once (two PCG words each).
_BLOCK = 1024


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class RngStream:
    """PCG32 stream identified by (seed, stream_id).

    The same (seed, stream_id) pair always reproduces the same output
    sequence.  Streams are single-owner: never share one across concurrent
    consumers; derive substreams instead.
    """

    __slots__ = ("seed", "stream_id", "_state", "_inc")

    def __init__(self, seed: int, stream_id: int = 0):
        if not (0 <= seed < 1 << 64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
        if not (0 <= stream_id < 1 << 64):
            raise ValueError(f"stream_id must be a 64-bit unsigned integer, got {stream_id!r}")
        self.seed = seed
        self.stream_id = stream_id
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
        of next_float_open(); the stream advances by the same 2n words."""
        if n < 0:
            raise ValueError(f"block length must be >= 0, got {n!r}")
        out = np.empty(n)
        powers, sums = _jump_table()
        shifts = sums * np.uint64(self._inc)
        for start in range(0, n, _BLOCK):
            words = 2 * min(_BLOCK, n - start)
            states = powers[:words] * np.uint64(self._state) + shifts[:words]
            self._state = (int(states[-1]) * _PCG_MULT + self._inc) & _MASK64
            out32 = _pcg_output(states)
            # next_u64 is the high word then the low word
            out[start:start + words // 2] = _open_floats(
                out32[0::2] << np.uint64(32) | out32[1::2])
        return out

    def state_bytes(self) -> bytes:
        """16-byte little-endian checkpoint (state, increment)."""
        return self._state.to_bytes(8, "little") + self._inc.to_bytes(8, "little")

    @classmethod
    def from_state_bytes(cls, raw: bytes, seed: int = 0) -> "RngStream":
        """Resume a stream from a checkpoint produced by state_bytes().

        The original seed is not recoverable from the checkpoint; the
        stream_id is (it lives in the increment).
        """
        if len(raw) != 16:
            raise ValueError(f"expected 16 bytes of stream state, got {len(raw)}")
        obj = cls.__new__(cls)
        obj._state = int.from_bytes(raw[:8], "little")
        obj._inc = int.from_bytes(raw[8:], "little")
        obj.seed = seed
        obj.stream_id = obj._inc >> 1
        return obj

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


@functools.cache
def _jump_table() -> tuple[np.ndarray, np.ndarray]:
    """(a^t, S_t) mod 2^64 for t < 2 * _BLOCK, S_t = a^0 + ... + a^(t-1).

    The state t steps after s is a^t s + inc S_t. Built by doubling:
    a^(m+t) = a^m a^t and S_(m+t) = S_m + a^m S_t; the uint64 products wrap
    mod 2^64, as the generator does.
    """
    powers = np.ones(1, dtype=np.uint64)
    sums = np.zeros(1, dtype=np.uint64)
    a_m, s_m = _PCG_MULT, 1  # a^m and S_m for m = len(powers)
    while powers.size < 2 * _BLOCK:
        am = np.uint64(a_m)
        powers, sums = (np.concatenate((powers, powers * am)),
                        np.concatenate((sums, np.uint64(s_m) + sums * am)))
        a_m, s_m = (a_m * a_m) & _MASK64, (s_m + a_m * s_m) & _MASK64
    return powers, sums


def _pcg_output(states: np.ndarray) -> np.ndarray:
    # next_u32's XSH-RR output of each state, as uint64 words below 2^32.
    low32 = np.uint64(0xFFFFFFFF)
    xorshifted = (((states >> np.uint64(18)) ^ states) >> np.uint64(27)) & low32
    rot = states >> np.uint64(59)
    return (xorshifted >> rot | xorshifted << (np.uint64(32) - rot)) & low32


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
    if not (0 <= k < 1 << 64):
        raise ValueError(f"substream index must be a 64-bit unsigned integer, got {k!r}")
    mixed = _splitmix64((parent.stream_id * 0x9E3779B97F4A7C15 + k + 1) & _MASK64)
    return RngStream(parent.seed, stream_id=mixed)


def sample_uniform(rng: RngStream, lo: float, hi: float) -> float:
    """One draw from U[lo, hi)."""
    if not math.isfinite(hi - lo):  # also rules out infinite and NaN bounds
        raise ValueError(f"uniform bounds and width must be finite, got [{lo}, {hi})")
    if not lo < hi:
        raise ValueError(f"uniform interval must satisfy lo < hi, got [{lo}, {hi})")
    v = lo + rng.next_float() * (hi - lo)
    if v >= hi:  # guard the rounding edge so the half-open contract holds
        v = math.nextafter(hi, lo)
    return v


# ---------------------------------------------------------------------------
# Normal CDF / inverse CDF
# ---------------------------------------------------------------------------

def norm_cdf(x: float) -> float:
    """Standard normal CDF via erfc; accurate into the far lower tail."""
    return 0.5 * math.erfc(-x / _SQRT2)


def norm_sf(x: float) -> float:
    """Standard normal survival function 1 - Phi(x), without cancellation."""
    return 0.5 * math.erfc(x / _SQRT2)


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


def _ppf_central(p):
    # Acklam's central rational approximation, _PPF_P_LOW <= p <= 0.5.
    # Like _ppf_tail and _halley, takes a float or an array.
    a, b = _PPF_A, _PPF_B
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)


def _ppf_tail(q):
    # Acklam's lower-tail rational approximation in q = sqrt(-2 log p).
    c, d = _PPF_C, _PPF_D
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)


def _halley(x, p, cdf, growth):
    # One Halley step on Phi(x) = p, given cdf = Phi(x) and growth = exp(x^2/2).
    u = (cdf - p) * _SQRT_2PI * growth
    return x - u / (1.0 + x * u / 2.0)


def norm_ppf(p: float) -> float:
    """Standard normal quantile, absolute accuracy well below 1e-12.

    Acklam's rational approximation followed by one Halley step (central
    range) or log-domain Newton steps (far tail, where exp(x^2/2) overflows).
    Upper-half inputs are reflected: 1 - p is exact for p >= 0.5, and the
    lower-tail refinement is free of cancellation.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"norm_ppf requires 0 < p < 1, got {p!r}")
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
    # fn from math applied per element: the C library's result, bit for bit.
    a = np.asarray(a, dtype=float)
    out = np.fromiter(map(fn, a.ravel().tolist()), dtype=float, count=a.size)
    return out.reshape(a.shape)


def norm_ppf_many(p) -> np.ndarray:
    """norm_ppf of every element of `p`, equal bit for bit to the scalar.

    Takes any shape. Raises unless every element lies in (0, 1).
    """
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ValueError("norm_ppf_many requires 0 < p < 1 for every element")
    upper = p > 0.5
    x = _norm_ppf_lower_many(np.where(upper, 1.0 - p, p).ravel()).reshape(p.shape)
    return np.where(upper, -x, x)


def _norm_ppf_lower_many(p: np.ndarray) -> np.ndarray:
    # _norm_ppf_lower per element of a 1-D array p in (0, 0.5]. The central
    # approximation and the Halley step run on the whole array; the tail
    # elements (and the far tail) are patched in only when there are any.
    x = _ppf_central(p)
    tail = p < _PPF_P_LOW
    if tail.any():
        x[tail] = _ppf_tail(np.sqrt(-2.0 * _libm(math.log, p[tail])))
    half_sq = 0.5 * x * x
    far = half_sq >= 700.0
    # exp(half_sq) overflows in the far tail, which is replaced below.
    growth = _libm(math.exp, np.where(far, 0.0, half_sq))
    x = _halley(x, p, 0.5 * _libm(math.erfc, -x / _SQRT2), growth)
    if far.any():
        x[far] = [_norm_ppf_lower(v) for v in p[far].tolist()]
    return x


def normal_logpdf(x: float, mean: float = 0.0, sd: float = 1.0) -> float:
    z = (x - mean) / sd
    return -0.5 * z * z - math.log(sd) - _LOG_SQRT_2PI


def student_t_logpdf(x: float, df: float, loc: float = 0.0, scale: float = 1.0) -> float:
    z = (x - loc) / scale
    return (math.lgamma(0.5 * (df + 1.0)) - math.lgamma(0.5 * df)
            - 0.5 * math.log(df * math.pi) - math.log(scale)
            - 0.5 * (df + 1.0) * math.log1p(z * z / df))


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def sample_normal(rng: RngStream, mean: float, sd: float) -> float:
    """One draw from N(mean, sd^2) by inversion."""
    if not 0.0 < sd < math.inf:
        raise ValueError(f"normal sd must be positive and finite, got {sd!r}")
    return mean + sd * norm_ppf(rng.next_float_open())


def normals(rng: RngStream, n: int, mean: float, sd: float) -> np.ndarray:
    """n draws from N(mean, sd^2) as an array, equal bit for bit to n calls
    of sample_normal(rng, mean, sd) and leaving the stream where they would."""
    if not 0.0 < sd < math.inf:
        raise ValueError(f"normal sd must be positive and finite, got {sd!r}")
    out = np.empty(n)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        out[start:stop] = mean + sd * norm_ppf_many(rng.floats_open(stop - start))
    return out


def _std_truncnorm_upper(rng: RngStream, a: float, b: float) -> float:
    # Both endpoints in the upper half-line: invert on the survival scale,
    # where erfc keeps far-tail masses representable.
    qa = norm_sf(a)
    qb = norm_sf(b)  # 0.0 when b = +inf
    mass = qa - qb
    if not mass > _MIN_TAIL_MASS:
        raise ValueError(
            f"truncation interval [{a}, {b}] has probability {mass:.3e}, below machine threshold")
    q = qb + rng.next_float_open() * mass
    return -norm_ppf(q)


def sample_truncated_normal(rng: RngStream, mean: float, sd: float,
                            lo: float, hi: float) -> float:
    """One draw from N(mean, sd^2) restricted to [lo, hi], by inversion.

    Endpoints may be infinite.  Raises if the interval carries no numerically
    representable probability mass; a call that raises consumes no draw, as
    its one rng.next_float_open() comes after every check.  `rng` may be
    any object with next_float_open(), such as a block of floats drawn ahead.
    """
    if not 0.0 < sd < math.inf:
        raise ValueError(f"truncated normal sd must be positive and finite, got {sd!r}")
    if not lo < hi:
        raise ValueError(f"truncation interval must satisfy lo < hi, got [{lo}, {hi}]")
    a = (lo - mean) / sd
    b = (hi - mean) / sd
    if a >= 0.0:
        z = _std_truncnorm_upper(rng, a, b)
    elif b <= 0.0:
        z = -_std_truncnorm_upper(rng, -b, -a)
    else:
        pa = norm_cdf(a)  # 0.0 when a = -inf
        pb = norm_cdf(b)
        mass = pb - pa
        if not mass > _MIN_TAIL_MASS:
            raise ValueError(
                f"truncation interval [{lo}, {hi}] has probability {mass:.3e}, "
                "below machine threshold")
        z = norm_ppf(pa + rng.next_float_open() * mass)
    # Inversion error is ~1 ulp; clamp so the range contract is exact.
    z = min(max(z, a), b)
    x = mean + sd * z
    return min(max(x, lo), hi)


def _std_gamma(rng: RngStream, shape: float) -> float:
    # Marsaglia-Tsang squeeze; consumes a variable number of draws.
    if shape < 1.0:
        boost = rng.next_float_open() ** (1.0 / shape)
        return _std_gamma(rng, shape + 1.0) * boost
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = norm_ppf(rng.next_float_open())
        v = 1.0 + c * x
        if v <= 0.0:
            continue
        v = v * v * v
        u = rng.next_float_open()
        if u < 1.0 - 0.0331 * x * x * x * x:
            return d * v
        if math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
            return d * v


def sample_student_t(rng: RngStream, df: float, loc: float, scale: float) -> float:
    """One draw from loc + scale * t(df), as normal over sqrt(chi2/df)."""
    if not df > 0.0:
        raise ValueError(f"student-t df must be positive, got {df!r}")
    if not scale > 0.0:
        raise ValueError(f"student-t scale must be positive, got {scale!r}")
    z = norm_ppf(rng.next_float_open())
    chi2 = 2.0 * _std_gamma(rng, 0.5 * df)
    return loc + scale * z / math.sqrt(chi2 / df)


# ---------------------------------------------------------------------------
# Small distribution objects (sampler + logpdf), used as proposals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalDist:
    mean: float
    sd: float

    def sample(self, rng: RngStream) -> float:
        return sample_normal(rng, self.mean, self.sd)

    def logpdf(self, x: float) -> float:
        return normal_logpdf(x, self.mean, self.sd)


@dataclass(frozen=True)
class StudentTDist:
    df: float
    loc: float = 0.0
    scale: float = 1.0

    def sample(self, rng: RngStream) -> float:
        return sample_student_t(rng, self.df, self.loc, self.scale)

    def logpdf(self, x: float) -> float:
        return student_t_logpdf(x, self.df, self.loc, self.scale)
