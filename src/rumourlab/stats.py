"""Monte Carlo support: deterministic seed derivation, interval estimates and
the one memory budget that every path checks its byte estimate against."""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1

# NumPy's SeedSequence pool-mixing multipliers
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# two-sided 99% normal quantile, statistics.NormalDist().inv_cdf(0.995) to the
# last bit (a test pins it); importing statistics would cost every run
Z99 = 2.5758293035489

# bytes any one request may hold at once; each path estimates its own
MAX_BYTES = 2**31


def check_bytes(need, what: str, error=ValueError):
    """Refuse, before any allocation, a request whose estimate of need bytes
    passes MAX_BYTES, in one line naming what needs them; else return the
    bytes left over.  need is an int or a float (inf when it overflows)."""
    if not need <= MAX_BYTES:  # an int is shown whole, however large
        raise error(f"{what}, ~{need if isinstance(need, int) else f'{need:.0f}'} bytes "
                    f"(> {MAX_BYTES})")
    return MAX_BYTES - need


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix64(*parts: int) -> int:
    """Fold integers into one 64-bit seed.

    Commutative aggregation schemes rely on per-trial seeds being a pure
    function of (master seed, indices), independent of evaluation order.
    Any part may be a uint64 array instead: the result is then the uint64
    array of the seeds folded elementwise (the arithmetic wraps mod 2^64
    silently), equal to the Python-int result part by part.
    """
    h = 0x243F6A8885A308D3  # nonzero start so mix64(0) != 0
    for part in parts:
        h = _splitmix64(h ^ _splitmix64(part & _MASK64))
    return h


def make_rng(*parts: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(mix64(*parts)))


def uniforms(seeds, count: int) -> np.ndarray:
    """Row b is make_rng-style Generator(PCG64(seeds[b])).random(count), bit for bit.

    seeds is a uint64 array.  This is NumPy's own per-generator work, run on
    all seeds at once: SeedSequence hashes each seed into a 4-word pool and 8
    state words, PCG64 seeds its 128-bit LCG from them, and each draw steps
    the LCG and takes the XSL-RR output x as (x >> 11) * 2^-53 (O'Neill,
    HMC-CS-2014-0905).  The LCG runs on (high, low) uint64 pairs; steps
    f+1..2f follow from steps 1..f by one jump (times M^f, plus the
    increment times 1 + M + .. + M^(f-1)), so count draws take log2(count)
    array passes.  NumPy's NEP 19 does not freeze its streams across
    releases: a release that changes them fails the tests that pin this
    function to Generator(PCG64(seed)).
    """
    state, inc = _pcg64_seeding(np.asarray(seeds, dtype=np.uint64))
    # draw j of every seed is row j, so each jump reads and writes whole rows
    hi = np.empty((count, state[0].size), dtype=np.uint64)
    lo = np.empty_like(hi)
    if count:
        hi[0], lo[0] = _add128(_mul128(state, _PCG_MULT), inc)
    # f steps: state -> mult_f * state + add_f * inc
    f, mult_f, add_f = 1, _PCG_MULT, 1
    while f < count:
        w = min(f, count - f)
        hi[f:f + w], lo[f:f + w] = _add128(_mul128((hi[:w], lo[:w]), mult_f),
                                           _mul128(inc, add_f))
        f, mult_f, add_f = 2 * f, mult_f * mult_f & _MASK128, add_f * (mult_f + 1) & _MASK128
    # XSL-RR: high ^ low rotated right by the top 6 bits (& 63 keeps rot 0 a no-op)
    x = hi ^ lo
    rot = hi >> 58
    x = (x >> rot) | (x << ((64 - rot) & 63))
    return ((x >> 11) * (1.0 / 9007199254740992.0)).T


def _pcg64_seeding(seeds: np.ndarray):
    """PCG64's (state, increment) after NumPy seeds it with each seed, as (high, low) pairs.

    SeedSequence's hash constants do not depend on the data, so the hash
    calls that are independent of each other run as one (calls, seeds) array.
    """
    # the seed's uint32 words, zero-padded to the pool size
    zero = np.zeros_like(seeds)
    pool = _hashmix(np.stack([seeds & _MASK32, seeds >> 32, zero, zero]), _POOL_CALLS[:4])
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        h = _hashmix(pool[src], _POOL_CALLS[4 + 3 * src:7 + 3 * src])
        r = (_MIX_L * pool[dst] - _MIX_R * h) & _MASK32
        pool[dst] = r ^ (r >> 16)
    w = _hashmix(np.concatenate([pool, pool]), _STATE_CALLS)
    # little-endian uint64 pairs: state words 0..1, then increment words 2..3
    seed = (w[0] | w[1] << 32, w[2] | w[3] << 32)
    init = (w[4] | w[5] << 32, w[6] | w[7] << 32)
    inc = ((init[0] << 1) | (init[1] >> 63), (init[1] << 1) | 1)
    # from state 0: step, add the seed, step
    state = _add128(_mul128(_add128(inc, seed), _PCG_MULT), inc)
    return state, inc


def _hash_calls(h: int, mult: int, calls: int) -> np.ndarray:
    """SeedSequence's (xor, multiplier) of each of its first hash calls, shaped (calls, 2, 1)."""
    out = []
    for _ in range(calls):
        out.append((h, h * mult & _MASK32))
        h = out[-1][1]
    return np.array(out, dtype=np.uint64)[:, :, None]


# 4 calls fill the pool and 12 mix it; 8 read the state words out
_POOL_CALLS = _hash_calls(0x43B0D7E5, 0x931E8875, 16)
_STATE_CALLS = _hash_calls(0x8B51F9DD, 0x58F38DED, 8)


def _hashmix(v, calls):
    """SeedSequence's hash of each row of v with the matching call's constants."""
    v = ((v ^ calls[:, 0]) * calls[:, 1]) & _MASK32
    return v ^ (v >> 16)


def _mul128(x, c: int):
    """(high, low) uint64 arrays times the 128-bit constant c, mod 2^128.

    The high word of low * low comes from 32-bit limbs, whose products fit
    in uint64; the cross terms only reach the high word, mod 2^64.
    """
    xh, xl = x
    ch, cl = c >> 64, c & _MASK64
    x0, x1 = xl & _MASK32, xl >> 32
    c0, c1 = cl & _MASK32, cl >> 32
    t = x0 * c0
    u = x1 * c0 + (t >> 32)
    v = x0 * c1 + (u & _MASK32)
    hi = x1 * c1 + (u >> 32) + (v >> 32) + xh * cl + xl * ch
    return hi, xl * cl


def _add128(a, b):
    """Sum of two (high, low) uint64 pairs, mod 2^128."""
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < b[1]), lo


def wilson_interval(successes: int, trials: int, z: float = Z99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    centre = (phat + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


def mean_interval(values: np.ndarray, z: float = Z99) -> tuple[float, float, float]:
    """(mean, lo, hi) normal-approximation interval for the mean of a sample."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    if n == 0:
        raise ValueError("need at least one value")
    mean = math.fsum(values.tolist()) / n
    if n == 1:
        return mean, mean, mean
    var = math.fsum(((v - mean) ** 2 for v in values.tolist())) / (n - 1)
    half = z * math.sqrt(var / n)
    return mean, mean - half, mean + half
