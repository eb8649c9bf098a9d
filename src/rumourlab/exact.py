"""Exact under-coverage probabilities and series diagnostics.

A site is under-covered at threshold k when fewer than k distinct sources
reach it.  Every exact method reads one source model, `_shells`: in 1D the
candidate sources for site i sit at displacements 0..i-1 and each covers
independently with probability p*G(t); in 2D the candidates for (i,j),
i >= j, group into shells of equal max-coordinate displacement t with
multiplicity 2t+1 (t < j) or j (j <= t < i).  One log-space product with
exact-zero short-circuiting gives the no-cover probability, one count DP
the probability of fewer than k covers, and sums of closed-form terms use
compensated summation.  `METHODS` maps each method name to its value of a
query in either dimension.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from rumourlab.distributions import TailDistribution, Truncated
from rumourlab.stats import check_bytes

# series_diagnostics peaks at ~52 bytes per site (tracemalloc, i_max 1e5 to
# 1e6): the probabilities and partial sums, then np.polyfit's ~32 bytes per
# site over the upper half; G is freed once the DP has read it.  VmHWM grows
# by ~70 bytes per site in a fresh process, and 80 bounds both; requests past
# the memory budget are refused up front
_SERIES_BYTES_PER_SITE = 80
# the DP reads the cover probabilities as Python floats this many at a time,
# not as one list of ~32 bytes per site
_COVER_CHUNK = 1 << 14
# an exact query's methods peak at up to ~152 bytes per shell (tracemalloc,
# closedForm and paperEq11: the shell tuples plus their float lists); queries
# whose shells would pass the budget are refused before any is built
_SHELL_BYTES = 160
# the count DP costs sources * list length updates; more are refused up front
_MAX_DP_UPDATES = 2**31


class PaperFormulaDivisionError(ZeroDivisionError, ValueError):
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
        shells = _source_extent(self)[1] + 1  # one per displacement 0..farthest
        check_bytes(shells * _SHELL_BYTES, f"site {self.site} needs {shells} shells")


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


def _shells(q: ExactQuery) -> list[tuple[float, int]]:
    """(cover probability, multiplicity) of the candidate sources at each displacement t."""
    if q.dimension == 1:
        shells = [(q.p * q.dist.survival(t), 1) for t in range(q.site)]
        if q.include_initiators:
            # always-open sources at 0 and -1: displacements i and i+1
            shells += [(q.dist.survival(q.site), 1), (q.dist.survival(q.site + 1), 1)]
        return shells
    i, j = sorted(q.site, reverse=True)
    return [(q.p * q.dist.survival(t), shell_multiplicity_2d(i, j, t)) for t in range(i)]


def _no_cover(shells) -> float:
    """P(no source covers): prod (1-c)^m via summed logs; exactly 0 on a sure cover."""
    logs = []
    for c, m in shells:
        g = 1.0 - c
        if g == 0.0:
            return 0.0
        logs.append(m * math.log(g))
    return math.exp(math.fsum(logs))


def _dp_width(sources: int, k: int) -> int:
    """The count DP's list length: counts above `sources` stay exactly 0, so
    capping k there changes no bit.  Refuses more than _MAX_DP_UPDATES updates."""
    width = min(k, sources + 1)
    if sources * width > _MAX_DP_UPDATES:
        raise ValueError(f"the count DP over {sources} sources at k={k} needs "
                         f"{sources * width} updates (> {_MAX_DP_UPDATES})")
    return width


def _count_dp(shells, width: int):
    """Yield P(count = 0..width-1) before the first shell and after each one.

    One list, updated in place per source; every entry stays a probability,
    so the recursion is numerically stable.
    """
    dp = [1.0] + [0.0] * (width - 1)
    downward = range(width - 1, 0, -1)
    yield dp
    for c, m in shells:
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"probability out of range: {c}")
        miss = 1.0 - c
        for _ in range(m):
            for idx in downward:
                dp[idx] = dp[idx] * miss + dp[idx - 1] * c
            dp[0] *= miss
        yield dp


def _fewer_than(shells, k: int) -> float:
    """P(fewer than k of the shells' sources cover)."""
    for dp in _count_dp(shells, _dp_width(sum(m for _, m in shells), k)):
        pass
    return math.fsum(dp)


def poisson_binomial_fewer_than(probs, k: int) -> float:
    """P(sum of independent Bernoulli(probs) < k), by the count DP.

    O(n * min(k, n+1)) time and O(min(k, n+1)) space for n = len(probs).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _fewer_than([(c, 1) for c in probs], k)


def uncovered_prob_1d(q: ExactQuery) -> float:
    """P(no source reaches site i): the product of miss probabilities."""
    if q.dimension != 1 or q.k != 1:
        raise ValueError("uncovered_prob_1d takes a 1D query with k=1")
    if q.include_initiators:
        raise ValueError("the closed-form product is defined without initiators")
    return _no_cover(_shells(q))


def undercovered_prob_1d(q: ExactQuery) -> float:
    """P(site i is reached by fewer than k distinct sources)."""
    if q.dimension != 1:
        raise ValueError("undercovered_prob_1d takes a 1D query")
    return _fewer_than(_shells(q), q.k)


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

    shells = _shells(q)
    g = [1.0 - c for c, _ in shells]
    none_term = _no_cover(shells)

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


def uncovered_prob_2d(q: ExactQuery) -> float:
    """P((i,j) has no cover): shell product, symmetric in (i,j)."""
    if q.dimension != 2 or q.k != 1:
        raise ValueError("uncovered_prob_2d takes a 2D query with k=1")
    return _no_cover(_shells(q))


def undercovered_prob_2d_paper(q: ExactQuery) -> float:
    """Literal evaluation of the printed 2D k=2 formula.

    P = a_{i,j} * (1 + p * sum_{t=0}^{i-1} G(t) / g(t)) for i >= j, where
    a_{i,j} is the no-cover probability.  Shipped verbatim for faithful
    reproduction; it omits the shell multiplicities, so it disagrees with
    the count DP (e.g. 0.1875 vs 0.3125 at (2,2), p=0.5, constant radius 1).
    """
    if q.dimension != 2 or q.k != 2:
        raise ValueError("the printed formula is for 2D with k=2")
    shells = _shells(q)
    ratios = []
    for t, (c, _) in enumerate(shells):
        g = 1.0 - c
        if g == 0.0:
            raise PaperFormulaDivisionError(
                f"g(t) = 1 - p*G(t) vanishes at t={t} (p*G(t)=1); the printed formula is undefined"
            )
        ratios.append(q.dist.survival(t) / g)
    return _no_cover(shells) * (1.0 + q.p * math.fsum(ratios))


def undercovered_prob_2d_exact(q: ExactQuery) -> float:
    """P((i,j) has fewer than k covers): count DP over the shell multiset."""
    if q.dimension != 2:
        raise ValueError("undercovered_prob_2d_exact takes a 2D query")
    return _fewer_than(_shells(q), q.k)


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


def _source_extent(q: ExactQuery) -> tuple[int, int]:
    """len(_candidate_sources(q)) and its farthest displacement, without the list."""
    if q.dimension == 1:
        if q.include_initiators:
            return q.site + 2, q.site + 1
        return q.site, q.site - 1
    return q.site[0] * q.site[1], max(q.site) - 1


def enumeration_oracle(q: ExactQuery, radius_cap: int | None = None) -> float:
    """Ground truth by exhaustive enumeration of cover patterns.

    Radii are truncated at radius_cap, by default the farthest candidate
    displacement, where truncation loses nothing; per source, the radius
    assignments collapse exactly into cover/miss with cover mass p * sum of
    the truncated pmf over radii >= displacement (independence makes the
    full radius-level sum factor through).  Every one of the 2^S cover patterns
    is then enumerated and its product probability accrued if the cover
    count stays below k.  Deliberately naive: no DP recursion, no log-space
    products, so it is an independent check of the closed forms.
    """
    # checked before the source list is built, so an oversized query allocates nothing
    n, max_disp = _source_extent(q)
    if radius_cap is None:
        radius_cap = max_disp
    if radius_cap < 0:
        raise ValueError("radius_cap must be nonnegative")
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
    for act, t in _candidate_sources(q):
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


def _closed_form(q: ExactQuery) -> float:
    if q.dimension == 1:
        return undercovered_prob_1d_closed_form(q)
    if q.k == 1:
        return uncovered_prob_2d(q)
    raise ValueError("closedForm in 2D exists for k=1 only (use paperEq11 or dp)")


METHODS = {
    "closedForm": _closed_form,
    "dp": lambda q: _fewer_than(_shells(q), q.k),
    "paperEq11": undercovered_prob_2d_paper,
    "oracle": enumeration_oracle,
}


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


def _covers(p: float, dist: TailDistribution, i_max: int):
    """The cover probability of each displacement t < i_max, 1 - (1 - p*G(t)),
    as Python floats made a chunk at a time; G is freed once they are read."""
    g = 1.0 - p * dist.survival_vec(np.arange(i_max, dtype=np.int64))
    for a in range(0, i_max, _COVER_CHUNK):
        yield from (1.0 - g[a:a + _COVER_CHUNK]).tolist()


def series_diagnostics(
    p: float,
    dist: TailDistribution,
    k: int,
    i_min: int,
    i_max: int,
) -> SeriesDiagnostics:
    """Under-coverage probabilities for sites i_min..i_max plus growth summaries.

    Streams the count DP across sites (site i+1 sees one more candidate
    source than site i), so the whole range costs O(i_max * min(k, i_max)).
    """
    if not (1 <= i_min < i_max):
        raise ValueError(f"need 1 <= i_min < i_max, got [{i_min}, {i_max}]")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0,1], got {p}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    check_bytes(i_max * _SERIES_BYTES_PER_SITE, f"i_max = {i_max} needs series arrays")
    width = _dp_width(i_max, k)

    probs = np.empty(i_max - i_min + 1, dtype=np.float64)
    sums = np.empty_like(probs)
    running = 0.0
    comp = 0.0  # Kahan correction
    # after i sources the DP holds site i's count distribution
    for i, dp in enumerate(_count_dp(zip(_covers(p, dist, i_max), itertools.repeat(1)), width)):
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
