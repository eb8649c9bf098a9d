"""Exact under-coverage probabilities and series diagnostics.

A site is under-covered at threshold k when fewer than k distinct sources
reach it.  In 1D the candidate sources for site i sit at displacements
0..i-1 and each covers independently with probability p*G(t); in 2D the
candidates for (i,j), i >= j, group into shells of equal max-coordinate
displacement t with multiplicity 2t+1 (t < j) or j (j <= t < i).  All
products are evaluated in log space with exact-zero short-circuiting, and
sums of closed-form terms use compensated summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from rumourlab.distributions import TailDistribution, Truncated

# series_diagnostics holds ~5 int64/float64 arrays over sites 0..i_max (the
# displacements, G, the cover probabilities, the probabilities and the
# partial sums); requests above _MAX_SERIES_BYTES are refused up front
_SERIES_BYTES_PER_SITE = 40
_MAX_SERIES_BYTES = 2**31


class PaperFormulaDivisionError(ZeroDivisionError):
    """The printed 2D formula divides by 1 - p*G(t); it is undefined when p*G(t) = 1."""


class EnumerationBoundError(ValueError):
    """Enumeration over candidate sources would exceed the admissible budget."""


class LossyTruncationError(ValueError):
    """Truncating radii at the requested cap would change the queried event."""


@dataclass(frozen=True)
class ExactQuery:
    """One under-coverage query: which site, at what p, k, and radius law."""

    dimension: int
    site: int | tuple[int, int]
    p: float
    k: int
    dist: TailDistribution
    include_initiators: bool = False

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0,1], got {self.p}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.dimension == 1:
            if not isinstance(self.site, int) or self.site < 1:
                raise ValueError(f"1D site must be an integer >= 1, got {self.site!r}")
        else:
            if (
                not isinstance(self.site, tuple)
                or len(self.site) != 2
                or any(not isinstance(c, int) or c < 1 for c in self.site)
            ):
                raise ValueError(f"2D site must be a pair of integers >= 1, got {self.site!r}")
            if self.include_initiators:
                raise ValueError("initiators are a 1D setup; 2D exact queries do not take them")


def _miss_prob(dist: TailDistribution, p: float, t: int) -> float:
    return 1.0 - p * dist.survival(t)


def _product_from_logs(factors: list[float]) -> float:
    """Product of probabilities via summed logs; exact 0 when any factor is 0."""
    logs = []
    for f in factors:
        if f == 0.0:
            return 0.0
        logs.append(math.log(f))
    return math.exp(math.fsum(logs))


def uncovered_prob_1d(q: ExactQuery) -> float:
    """P(no source reaches site i): the product of miss probabilities."""
    if q.dimension != 1 or q.k != 1:
        raise ValueError("uncovered_prob_1d takes a 1D query with k=1")
    if q.include_initiators:
        raise ValueError("the closed-form product is defined without initiators")
    i = q.site
    return _product_from_logs([_miss_prob(q.dist, q.p, t) for t in range(i)])


def poisson_binomial_fewer_than(probs, k: int) -> float:
    """P(sum of independent Bernoulli(probs) < k), by the count DP.

    O(len(probs) * k) time, O(k) space; every intermediate value is a
    probability, so the recursion is numerically stable.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    dp = [0.0] * k
    dp[0] = 1.0
    for c in probs:
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"probability out of range: {c}")
        for idx in range(k - 1, 0, -1):
            dp[idx] = dp[idx] * (1.0 - c) + dp[idx - 1] * c
        dp[0] *= 1.0 - c
    return math.fsum(dp)


def _cover_probs_1d(q: ExactQuery) -> list[float]:
    i = q.site
    probs = [q.p * q.dist.survival(t) for t in range(i)]
    if q.include_initiators:
        # always-open sources at 0 and -1: displacements i and i+1
        probs.append(q.dist.survival(i))
        probs.append(q.dist.survival(i + 1))
    return probs


def undercovered_prob_1d(q: ExactQuery) -> float:
    """P(site i is reached by fewer than k distinct sources)."""
    if q.dimension != 1:
        raise ValueError("undercovered_prob_1d takes a 1D query")
    return poisson_binomial_fewer_than(_cover_probs_1d(q), q.k)


def undercovered_prob_1d_closed_form(q: ExactQuery) -> float:
    """The k=2 closed form: P(no cover) + P(exactly one cover).

    P = prod_{l=0}^{i-1} g(l) + p prod_{l=1}^{i-1} g(l)
        + p(1-p) sum_{t=1}^{i-1} G(t) prod_{l != t, 1<=l<=i-1} g(l)
    with g(l) = 1 - p G(l).  (k=1 reduces to the plain product.)
    """
    if q.dimension != 1:
        raise ValueError("closed form is 1D")
    if q.include_initiators:
        raise ValueError("the closed form is defined without initiators")
    if q.k == 1:
        return uncovered_prob_1d(q)
    if q.k != 2:
        raise ValueError(f"no closed form shipped for k={q.k}; use the DP")
    i, p, dist = q.site, q.p, q.dist

    g = [_miss_prob(dist, p, t) for t in range(i)]
    none_term = _product_from_logs(g)

    # product over l = 1..i-1, tracked as (log sum of nonzeros, zero count)
    zeros = sum(1 for gl in g[1:] if gl == 0.0)
    log_sum = math.fsum(math.log(gl) for gl in g[1:] if gl > 0.0)
    zero_term = p * (0.0 if zeros else math.exp(log_sum))

    terms = []
    for t in range(1, i):
        gt = g[t]
        if gt == 0.0:
            # leaving out the lone zero factor revives the product
            rest = math.exp(log_sum) if zeros == 1 else 0.0
        else:
            rest = math.exp(log_sum - math.log(gt)) if zeros == 0 else 0.0
        terms.append(dist.survival(t) * rest)
    one_term = p * (1.0 - p) * math.fsum(terms)

    return none_term + zero_term + one_term


def shell_multiplicity_2d(i: int, j: int, t: int) -> int:
    """Number of candidate sources for (i,j), i >= j >= 1, at max displacement t."""
    if i < j or j < 1:
        raise ValueError(f"need i >= j >= 1, got ({i}, {j})")
    if t < 0:
        return 0
    if t <= j - 1:
        return 2 * t + 1
    if t <= i - 1:
        return j
    return 0


def _sorted_site(q: ExactQuery) -> tuple[int, int]:
    i, j = q.site
    return (i, j) if i >= j else (j, i)


def uncovered_prob_2d(q: ExactQuery) -> float:
    """P((i,j) has no cover): shell product, symmetric in (i,j)."""
    if q.dimension != 2 or q.k != 1:
        raise ValueError("uncovered_prob_2d takes a 2D query with k=1")
    i, j = _sorted_site(q)
    logs = []
    for t in range(i):
        g = _miss_prob(q.dist, q.p, t)
        mult = shell_multiplicity_2d(i, j, t)
        if mult == 0:
            continue
        if g == 0.0:
            return 0.0
        logs.append(mult * math.log(g))
    return math.exp(math.fsum(logs))


def undercovered_prob_2d_paper(q: ExactQuery) -> float:
    """Literal evaluation of the printed 2D k=2 formula.

    P = a_{i,j} * (1 + p * sum_{t=0}^{i-1} G(t) / g(t)) for i >= j, where
    a_{i,j} is the no-cover probability.  Shipped verbatim for faithful
    reproduction; it omits the shell multiplicities, so it disagrees with
    the count DP (e.g. 0.1875 vs 0.3125 at (2,2), p=0.5, constant radius 1).
    """
    if q.dimension != 2 or q.k != 2:
        raise ValueError("the printed formula is for 2D with k=2")
    i, j = _sorted_site(q)
    a = uncovered_prob_2d(ExactQuery(2, (i, j), q.p, 1, q.dist))
    ratios = []
    for t in range(i):
        g = _miss_prob(q.dist, q.p, t)
        if g == 0.0:
            raise PaperFormulaDivisionError(
                f"g(t) = 1 - p*G(t) vanishes at t={t} (p*G(t)=1); the printed formula is undefined"
            )
        ratios.append(q.dist.survival(t) / g)
    return a * (1.0 + q.p * math.fsum(ratios))


def undercovered_prob_2d_exact(q: ExactQuery) -> float:
    """P((i,j) has fewer than k covers): count DP over the shell multiset."""
    if q.dimension != 2:
        raise ValueError("undercovered_prob_2d_exact takes a 2D query")
    i, j = _sorted_site(q)
    probs = []
    for t in range(i):
        c = q.p * q.dist.survival(t)
        probs.extend([c] * shell_multiplicity_2d(i, j, t))
    return poisson_binomial_fewer_than(probs, q.k)


def _candidate_sources(q: ExactQuery) -> list[tuple[float, int]]:
    """(activation probability, displacement) per candidate source."""
    if q.dimension == 1:
        srcs = [(q.p, t) for t in range(q.site)]
        if q.include_initiators:
            srcs.append((1.0, q.site))
            srcs.append((1.0, q.site + 1))
        return srcs
    i, j = q.site
    return [(q.p, max(i - a, j - b)) for a in range(1, i + 1) for b in range(1, j + 1)]


def enumeration_oracle(q: ExactQuery, radius_cap: int) -> float:
    """Ground truth by exhaustive enumeration of cover patterns.

    Radii are truncated at radius_cap; per source, the radius assignments
    collapse exactly into cover/miss with cover mass p * sum of the
    truncated pmf over radii >= displacement (independence makes the full
    radius-level sum factor through).  Every one of the 2^S cover patterns
    is then enumerated and its product probability accrued if the cover
    count stays below k.  Deliberately naive: no DP recursion, no log-space
    products, so it is an independent check of the closed forms.
    """
    if radius_cap < 0:
        raise ValueError("radius_cap must be nonnegative")
    sources = _candidate_sources(q)
    n = len(sources)
    max_disp = max((t for _, t in sources), default=0)
    if q.dist.survival(radius_cap + 1) > 0.0 and radius_cap < max_disp:
        raise LossyTruncationError(
            f"cap {radius_cap} is below the farthest displacement {max_disp} while "
            f"G(cap+1) = {q.dist.survival(radius_cap + 1)} > 0"
        )
    if n * math.log2(radius_cap + 2) > 30.0:
        raise EnumerationBoundError(
            f"{n} sources at cap {radius_cap} exceed the enumeration budget"
        )

    trunc = Truncated(q.dist, radius_cap)
    cover = []
    for act, t in sources:
        pmf_tail = math.fsum(
            trunc.survival(r) - trunc.survival(r + 1) for r in range(t, radius_cap + 1)
        )
        cover.append(act * pmf_tail)

    terms = []
    for mask in range(1 << n):
        if mask.bit_count() >= q.k:
            continue
        prob = 1.0
        for s in range(n):
            prob *= cover[s] if (mask >> s) & 1 else 1.0 - cover[s]
        terms.append(prob)
    return math.fsum(terms)


@dataclass
class SeriesDiagnostics:
    """Summability probe for the under-coverage series over 1D sites.

    partial_sums[m] is the compensated running sum of the probabilities
    for sites first_index .. first_index+m.  growth_ratio compares the
    partial sum at the largest admissible doubling point; decay_exponent
    is the log-log regression slope over the upper half of the range.
    """

    first_index: int
    probs: np.ndarray
    partial_sums: np.ndarray
    growth_ratio: float
    decay_exponent: float
    site_indices: np.ndarray = field(init=False)

    def __post_init__(self):
        self.site_indices = np.arange(
            self.first_index, self.first_index + len(self.probs), dtype=np.int64
        )


def series_diagnostics(
    p: float,
    dist: TailDistribution,
    k: int,
    i_min: int,
    i_max: int,
) -> SeriesDiagnostics:
    """Under-coverage probabilities for sites i_min..i_max plus growth summaries.

    Streams the count DP across sites (site i+1 sees one more candidate
    source than site i), so the whole range costs O(i_max * k).
    """
    if not (1 <= i_min < i_max):
        raise ValueError(f"need 1 <= i_min < i_max, got [{i_min}, {i_max}]")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0,1], got {p}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    need = i_max * _SERIES_BYTES_PER_SITE
    if need > _MAX_SERIES_BYTES:
        raise ValueError(f"i_max = {i_max} needs ~{need} bytes of series arrays "
                         f"(> {_MAX_SERIES_BYTES})")

    g = 1.0 - p * dist.survival_vec(np.arange(i_max, dtype=np.int64))
    c = 1.0 - g  # cover probability per displacement

    dp = [0.0] * k
    dp[0] = 1.0
    probs = np.empty(i_max - i_min + 1, dtype=np.float64)
    sums = np.empty_like(probs)
    running = 0.0
    comp = 0.0  # Kahan correction
    for l in range(i_max):
        cl = c[l]
        for idx in range(k - 1, 0, -1):
            dp[idx] = dp[idx] * (1.0 - cl) + dp[idx - 1] * cl
        dp[0] *= 1.0 - cl
        i = l + 1
        if i < i_min:
            continue
        val = math.fsum(dp)
        pos = i - i_min
        probs[pos] = val
        y = val - comp
        t = running + y
        comp = (t - running) - y
        running = t
        sums[pos] = running

    half = i_max // 2
    if half >= i_min and 2 * half <= i_max and sums[half - i_min] > 0.0:
        growth_ratio = sums[2 * half - i_min] / sums[half - i_min]
    else:
        growth_ratio = math.nan

    lo = max(i_min, half)
    window = probs[lo - i_min:]
    idx = np.arange(lo, i_max + 1, dtype=np.float64)
    if np.all(window > 0.0) and len(window) >= 2:
        slope = np.polyfit(np.log(idx), np.log(window), 1)[0]
    else:
        slope = math.nan

    return SeriesDiagnostics(i_min, probs, sums, growth_ratio, slope)
