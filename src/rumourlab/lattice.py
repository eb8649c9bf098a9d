"""Firework / reverse-firework realizations and k-fold coverage fields.

The firework model opens each site of [1..n]^d independently with
probability p; an open site s with radius r covers the block s + [0,r]^d.
The reverse model listens the other way: an open site i with radius r
picks the rumour up over i + [-r,0]^d, and joins the k-sceptic region when
that block holds at least k other open sites.  The reverse model is
simulated on an enlarged window (cushion * n per axis) because sources to
the upper right of the reported window still matter; the reported
membership is therefore a lower bound and the bias is documented rather
than corrected.

Counting is done with difference arrays (1D) and inclusion-exclusion
corner grids (2D), so the cost is O(window) regardless of the radii.

The trial engine (estimate_under_coverage, simulate_window) builds each
trial's field with _trial_field.  A reverse-2D trial streams: it draws the
same uniforms in the same order as realize, writes each chunk's open bits
straight into the int32 prefix grid, and computes radii only for open sites
that can reach the reported window or clamp.  Its memory is ~4 bytes per
extent cell (the prefix grid) plus fixed chunk buffers, and its field is
bit-identical to reverse_membership(realize(config), config.k).
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import multiprocessing
import numpy as np

from rumourlab.distributions import TailDistribution
from rumourlab.stats import mix64, make_rng, wilson_interval

# cells drawn per RNG chunk; fixed so the draw pattern is reproducible
_CHUNK_CELLS = 1 << 22

# addressable simulation size (cells)
_MAX_CELLS = 2**31

# sub-stream tags hanging off the configured seed
_STREAM_WINDOW = 1
_STREAM_INITIATORS = 2

# initiator sites, in the order of Realization.initiator_radii
_INITIATOR_SITES = np.array([-1, 0], dtype=np.int64)

# relative slack on the survival bound that selects streamed reverse-2D
# candidates; far above the few-ulp disagreement between a law's quantile
# and its survival function, so no source passing the exact tests is lost
_SURVIVAL_SLACK = 1.0 + 1e-9

FIREWORK = "firework"
REVERSE = "reverseFirework"
_MODELS = (FIREWORK, REVERSE)


class WindowOverflowError(ValueError):
    """Simulated window exceeds the addressable size."""


@dataclass(frozen=True)
class LatticeConfig:
    """Everything needed to reproduce one lattice experiment."""

    dimension: int
    model: str
    p: float
    k: int
    n: int
    dist: TailDistribution
    seed: int
    cushion: int = 10
    include_initiators: bool = False

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        if self.model not in _MODELS:
            raise ValueError(f"model must be one of {_MODELS}, got {self.model!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0,1], got {self.p}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.cushion < 1:
            raise ValueError(f"cushion must be >= 1, got {self.cushion}")
        if self.model == FIREWORK and self.dimension == 2 and self.include_initiators:
            raise ValueError("initiators are defined for 1D setups and the reverse model only")
        cells = self.extent() ** self.dimension
        if cells > _MAX_CELLS:
            raise WindowOverflowError(
                f"simulated window has {cells} cells (> {_MAX_CELLS}); shrink n or cushion"
            )

    def extent(self) -> int:
        """Simulated sites per axis: the reverse model oversamples by the cushion."""
        return self.n * self.cushion if self.model == REVERSE else self.n

    def report_origin(self) -> int:
        """First reported site per axis: 1 for firework, 0 for reverse."""
        return 0 if self.model == REVERSE else 1


@dataclass
class Realization:
    """One sampled configuration over the simulated window.

    activation[s-1] (1D) or activation[s1-1, s2-1] (2D) is the open bit of
    site s in [1..extent].  radii lists the radius of each open site in
    row-major order (aligned with np.flatnonzero(activation)).  When
    initiators are on, initiator_radii holds the radii of the always-open
    sites -1 and 0 (at (-1,-1) and (0,0) in 2D), in that order, drawn from
    a stream independent of the window stream.
    """

    config: LatticeConfig
    activation: np.ndarray
    radii: np.ndarray
    initiator_radii: np.ndarray | None = None


@dataclass
class CoverageField:
    """Per-site coverage over the reported window.

    kind == "counts": values[x] is the number of distinct covering sources
    (firework).  kind == "membership": values[x] is the 0/1 indicator of
    the reverse k-sceptic region, with the threshold echoed in
    `threshold`.  origin is the site index of values[0].
    """

    kind: str
    dimension: int
    origin: int
    window: int
    values: np.ndarray
    clamp_count: int = 0
    threshold: int | None = None

    def under_mask(self, k: int) -> np.ndarray:
        if self.kind == "membership":
            return self.values == 0
        return self.values < k

    def site_value(self, site) -> int:
        if self.dimension == 1:
            return int(self.values[site - self.origin])
        return int(self.values[site[0] - self.origin, site[1] - self.origin])


def realize(config: LatticeConfig) -> Realization:
    """Sample one realization; a pure function of (config, seed).

    Each site consumes one activation uniform and one radius uniform (the
    radius uniform is drawn whether or not the site opens), so coupled
    runs that share a seed and differ only in p open nested site sets with
    identical radii on the common part.
    """
    activation = np.empty((config.extent(),) * config.dimension, dtype=bool)
    radii_parts = []
    for r0, act, u in _draws(config):
        activation[r0:r0 + act.shape[0]] = act
        if act.any():
            radii_parts.append(config.dist.quantile_from_uniform(u[act]))

    if radii_parts:
        radii = np.concatenate(radii_parts)
    else:
        radii = np.empty(0, dtype=np.int64)

    return Realization(config, activation, radii, _initiator_radii(config))


def _row_blocks(m: int, dimension: int) -> list:
    """Leading-axis ranges [r0, r1) of the RNG chunks: ~_CHUNK_CELLS cells, whole rows in 2D."""
    step = _CHUNK_CELLS if dimension == 1 else max(1, _CHUNK_CELLS // m)
    return [(r0, min(m, r0 + step)) for r0 in range(0, m, step)]


def _draws(config: LatticeConfig):
    """The window stream, chunk by chunk: (r0, open bits, radius uniforms in (0, 1]).

    A chunk draws all its activation uniforms, then all its radius uniforms;
    every consumer of the window stream goes through here so the order is
    defined once.
    """
    rng = make_rng(config.seed, _STREAM_WINDOW)
    m = config.extent()
    for r0, r1 in _row_blocks(m, config.dimension):
        shape = (r1 - r0,) + (m,) * (config.dimension - 1)
        act = rng.random(shape) < config.p
        u = rng.random(shape)
        np.subtract(1.0, u, out=u)
        yield r0, act, u


def _initiator_radii(config: LatticeConfig):
    """Radii of sites -1 and 0 from their own stream, or None without initiators."""
    if not config.include_initiators:
        return None
    rng_init = make_rng(config.seed, _STREAM_INITIATORS)
    u = 1.0 - rng_init.random(2)
    return config.dist.quantile_from_uniform(u)


def firework_counts(realization: Realization) -> CoverageField:
    """Distinct-source cover counts over the reported window (firework model)."""
    cfg = realization.config
    if cfg.model != FIREWORK:
        raise ValueError("firework_counts needs a firework-model realization")
    n = cfg.n

    if cfg.dimension == 1:
        start0 = np.flatnonzero(realization.activation)  # 0-based == site-1
        radii = realization.radii
        clamp = int(np.count_nonzero(start0 + radii + 1 > n))
        ends = np.minimum(start0 + radii + 1, n)
        diff = np.bincount(start0, minlength=n + 1).astype(np.int64)
        diff -= np.bincount(ends, minlength=n + 1)
        if realization.initiator_radii is not None:
            for site, r in zip((-1, 0), realization.initiator_radii):
                lo, hi = max(1, site), min(site + int(r), n)
                if site + int(r) > n:
                    clamp += 1
                if hi >= lo:
                    diff[lo - 1] += 1
                    diff[hi] -= 1
        counts = np.cumsum(diff[:n]).astype(np.int32)
        return CoverageField("counts", 1, 1, n, counts, clamp)

    rows0, cols0 = np.nonzero(realization.activation)
    radii = realization.radii
    clamp = int(np.count_nonzero((rows0 + radii > n - 1) | (cols0 + radii > n - 1)))
    hi_r = np.minimum(rows0 + radii, n - 1)
    hi_c = np.minimum(cols0 + radii, n - 1)
    diff = np.zeros((n + 1, n + 1), dtype=np.int64)
    np.add.at(diff, (rows0, cols0), 1)
    np.add.at(diff, (rows0, hi_c + 1), -1)
    np.add.at(diff, (hi_r + 1, cols0), -1)
    np.add.at(diff, (hi_r + 1, hi_c + 1), 1)
    counts = diff[:n, :n].copy()
    np.cumsum(counts, axis=0, out=counts)
    np.cumsum(counts, axis=1, out=counts)
    return CoverageField("counts", 2, 1, n, counts.astype(np.int32), clamp)


def _mark_intervals_1d(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """0/1 union of [lo,hi] site ranges already clipped into [0, n-1]."""
    diff = np.bincount(lo, minlength=n + 1).astype(np.int64)
    diff -= np.bincount(hi + 1, minlength=n + 1)
    return (np.cumsum(diff[:n]) > 0).astype(np.uint8)


def reverse_membership(realization: Realization, k: int) -> CoverageField:
    """Indicator of the reverse k-sceptic region over sites [0, n-1]^d.

    A site x belongs when some open i >= x (componentwise) has x inside
    i + [-radius_i, 0]^d together with at least k open sites other than i
    (initiators count as open).  k=0 degenerates to plain reverse
    coverage.  Sources beyond the cushioned window are missing, so the
    indicator is a lower bound on the true region.
    """
    cfg = realization.config
    if cfg.model != REVERSE:
        raise ValueError("reverse_membership needs a reverse-model realization")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    n, m = cfg.n, cfg.extent()

    if cfg.dimension == 1:
        sites = np.flatnonzero(realization.activation).astype(np.int64) + 1
        radii = realization.radii
        if realization.initiator_radii is not None:
            sites = np.concatenate([np.array([-1, 0], dtype=np.int64), sites])
            radii = np.concatenate([realization.initiator_radii, radii])
        # prefix of the open indicator over sites [-1 .. m] (grid index site+1)
        open_grid = np.zeros(m + 2, dtype=np.int32)
        open_grid[sites + 1] = 1
        prefix = np.zeros(m + 3, dtype=np.int64)
        np.cumsum(open_grid, out=prefix[1:])
        clamp = int(np.count_nonzero(sites - radii < -1))
        lo = np.maximum(sites - radii, -1)
        in_block = prefix[sites + 2] - prefix[lo + 1]
        qualify = in_block - 1 >= k
        mark_lo = np.maximum(lo[qualify], 0)
        mark_hi = np.minimum(sites[qualify], n - 1)
        keep = mark_lo <= mark_hi
        values = _mark_intervals_1d(n, mark_lo[keep], mark_hi[keep])
        return CoverageField("membership", 1, 0, n, values, clamp, threshold=k)

    return _reverse_membership_2d(realization, k)


def _reverse_membership_2d(realization: Realization, k: int) -> CoverageField:
    cfg = realization.config
    n, m = cfg.n, cfg.extent()
    S = _prefix_grid_2d(m, realization.initiator_radii is not None)

    def sources():
        off = 0
        for r0, r1 in _row_blocks(m, 2):
            act = realization.activation[r0:r1]
            _prefix_rows_2d(S, r0, act)
            rows0, cols0 = np.nonzero(act)
            rad = realization.radii[off:off + rows0.size]
            off += rows0.size
            yield _reaching_2d(n, rows0 + (r0 + 1), cols0 + 1, rad)

    return _membership_2d(n, k, S, sources(), realization.initiator_radii)


def _stream_reverse_2d(cfg: LatticeConfig) -> CoverageField:
    """reverse_membership(realize(cfg), cfg.k) without realizing the window.

    Consumes the window stream of realize chunk by chunk and keeps no
    activation bitmap and no per-site radii: the open bits go straight into
    the prefix grid, and radii are computed only for candidates, the open
    sites whose uniform lies below the survival bound of reaching the
    window or of clamping.  Since G is non-increasing, that bound at (r, c)
    is max(min(G(r-n+1), G(c-n+1)), max(G(r+2), G(c+2))), built from one
    survival vector per axis.  The exact reach and clamp tests then run on
    the candidates alone.
    """
    n, m, dist = cfg.n, cfg.extent(), cfg.dist
    initiator_radii = _initiator_radii(cfg)
    S = _prefix_grid_2d(m, initiator_radii is not None)
    sites = np.arange(1, m + 1, dtype=np.int64)
    reach_g = _SURVIVAL_SLACK * dist.survival_vec(sites - n + 1)
    clamp_g = _SURVIVAL_SLACK * dist.survival_vec(sites + 2)

    def sources():
        for r0, act, u in _draws(cfg):
            _prefix_rows_2d(S, r0, act)
            # u below a min of the two axis bounds or below a max of them,
            # compared per axis so no chunk-sized bound is built
            rows = slice(r0, r0 + act.shape[0])
            cand = u < reach_g[rows, None]
            cand &= u < reach_g
            clamps = u < clamp_g[rows, None]
            clamps |= u < clamp_g
            cand |= clamps
            cand &= act
            rows0, cols0 = np.nonzero(cand)
            rad = dist.quantile_from_uniform(u[rows0, cols0])
            yield _reaching_2d(n, rows0 + (r0 + 1), cols0 + 1, rad)

    return _membership_2d(n, cfg.k, S, sources(), initiator_radii)


def _prefix_grid_2d(m: int, initiators: bool) -> np.ndarray:
    """Open-site prefix grid over sites [-1..m]^2 with only the initiator rows set.

    S[a+2, b+2] will hold the number of open sites in [-1..a] x [-1..b];
    _prefix_rows_2d fills the window rows in order.
    """
    S = np.zeros((m + 3, m + 3), dtype=np.int32)
    if initiators:
        S[1, 1:] = 1  # site (-1,-1)
        S[2, 1] = 1
        S[2, 2:] = 2  # and site (0,0)
    return S


def _prefix_rows_2d(S: np.ndarray, r0: int, act: np.ndarray) -> None:
    """Fill the prefix rows of window rows r0.. (0-based) from their open bits.

    The rows above must be final and these rows still zero; cumulating down
    from the row above adds its prefix to these rows' own.
    """
    block = S[r0 + 2:r0 + 3 + act.shape[0]]
    np.cumsum(act, axis=1, dtype=np.int32, out=block[1:, 3:])
    # row by row: numpy's axis-0 cumsum walks the grid column-wise
    for i in range(1, block.shape[0]):
        np.add(block[i - 1], block[i], out=block[i])


def _reaching_2d(n: int, r, c, rad):
    """(r, c, rad) of the sources whose blocks reach [0, n-1]^2, and the clamp count of all."""
    clamp = int(np.count_nonzero(rad > np.minimum(r, c) + 1))
    reach = rad >= np.maximum(r, c) - n + 1
    return r[reach], c[reach], rad[reach], clamp


def _membership_2d(n: int, k: int, S: np.ndarray, sources, initiator_radii) -> CoverageField:
    """Reverse k-sceptic indicator over [0, n-1]^2.

    sources yields (r, c, rad, clamp) chunks as _reaching_2d returns them,
    in site coordinates; S must be final through row max(r) when a chunk is
    yielded.  A source qualifies when its block [r-rad, r] x [c-rad, c]
    holds at least k other open sites; the initiators count as sources.
    """
    if initiator_radii is not None:
        sources = itertools.chain(
            sources, [_reaching_2d(n, _INITIATOR_SITES, _INITIATOR_SITES, initiator_radii)]
        )
    diff = np.zeros((n + 1, n + 1), dtype=np.int64)
    clamp = 0
    for r, c, rad, chunk_clamp in sources:
        clamp += chunk_clamp
        lo1 = np.maximum(r - rad, -1)
        lo2 = np.maximum(c - rad, -1)
        in_block = (
            S[r + 2, c + 2].astype(np.int64)
            - S[lo1 + 1, c + 2]
            - S[r + 2, lo2 + 1]
            + S[lo1 + 1, lo2 + 1]
        )
        qualify = in_block - 1 >= k
        if qualify.any():
            _mark_blocks_2d(diff, n, lo1[qualify], lo2[qualify], r[qualify], c[qualify])

    marked = diff[:n, :n].copy()
    np.cumsum(marked, axis=0, out=marked)
    np.cumsum(marked, axis=1, out=marked)
    values = (marked > 0).astype(np.uint8)
    return CoverageField("membership", 2, 0, n, values, clamp, threshold=k)


def _mark_blocks_2d(diff, n, lo1, lo2, hi1, hi2):
    """Add [lo1..hi1] x [lo2..hi2] site blocks into the report difference grid."""
    a1 = np.maximum(lo1, 0)
    a2 = np.maximum(lo2, 0)
    b1 = np.minimum(hi1, n - 1)
    b2 = np.minimum(hi2, n - 1)
    keep = (a1 <= b1) & (a2 <= b2)
    if not keep.any():
        return
    a1, a2, b1, b2 = a1[keep], a2[keep], b1[keep], b2[keep]
    np.add.at(diff, (a1, a2), 1)
    np.add.at(diff, (a1, b2 + 1), -1)
    np.add.at(diff, (b1 + 1, a2), -1)
    np.add.at(diff, (b1 + 1, b2 + 1), 1)


def coverage_field(realization: Realization) -> CoverageField:
    """Model-appropriate field: firework counts or reverse membership at config.k."""
    if realization.config.model == FIREWORK:
        return firework_counts(realization)
    return reverse_membership(realization, realization.config.k)


def last_under_covered(fld: CoverageField, k: int):
    """Rightmost under-covered site (1D) or smallest clean corner start (2D).

    1D: the largest reported site with fewer than k covers, or None when
    every site has at least k.  2D: the smallest N0 such that every site
    with both coordinates in [N0, window max] meets the threshold, or None
    when even the top corner fails.  A non-None value only witnesses a
    lower bound: sites beyond the window are never inspected.  Membership
    fields should be queried with k=1 (their values are 0/1 indicators).
    """
    mask = fld.under_mask(k)
    if fld.dimension == 1:
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            return None
        return int(fld.origin + idx[-1])
    rows, cols = np.nonzero(mask)
    if rows.size == 0:
        return fld.origin
    worst = int(np.minimum(rows, cols).max()) + fld.origin
    n0 = worst + 1
    max_site = fld.origin + fld.window - 1
    return None if n0 > max_site else n0


@dataclass
class SiteEstimate:
    site: object
    trials: int
    under_count: int
    freq: float
    ci_low: float
    ci_high: float


@dataclass
class WindowStats:
    """Per-trial window summaries in trial order (reductions stay order-fixed).

    sites holds per-site estimates from the same trials when simulate_window
    was asked for them.
    """

    fractions: np.ndarray
    last_normalized: np.ndarray
    clamp_count: int
    sites: list[SiteEstimate] | None = None


def _site_indices(config: LatticeConfig, sites) -> tuple:
    origin = config.report_origin()
    hi = origin + config.n - 1
    if config.dimension == 1:
        idx = []
        for s in sites:
            if not origin <= s <= hi:
                raise ValueError(f"site {s} outside reported window [{origin}, {hi}]")
            idx.append(s - origin)
        return (np.array(idx, dtype=np.int64),)
    r, c = [], []
    for s in sites:
        s1, s2 = s
        if not (origin <= s1 <= hi and origin <= s2 <= hi):
            raise ValueError(f"site {s} outside reported window [{origin}, {hi}]^2")
        r.append(s1 - origin)
        c.append(s2 - origin)
    return (np.array(r, dtype=np.int64), np.array(c, dtype=np.int64))


def _trial_config(config: LatticeConfig, t: int) -> LatticeConfig:
    return replace(config, seed=mix64(config.seed, t))


def _trial_field(config: LatticeConfig) -> CoverageField:
    """Coverage field of one trial; reverse-2D trials stream instead of realizing."""
    if config.model == REVERSE and config.dimension == 2:
        return _stream_reverse_2d(config)
    return coverage_field(realize(config))


def _trial_chunk(config: LatticeConfig, sites, window: bool, t0: int, t1: int):
    """Trials t0..t1-1, one field each: per-site under counts and, if window,
    the per-trial window fractions and last-normalized values plus clamps."""
    idx = _site_indices(config, sites)
    under = np.zeros(len(sites), dtype=np.int64)
    size = t1 - t0 if window else 0
    fractions = np.empty(size, dtype=np.float64)
    lasts = np.empty(size, dtype=np.float64)
    clamp = 0
    for t in range(t0, t1):
        fld = _trial_field(_trial_config(config, t))
        mask = fld.under_mask(config.k)
        if sites:
            under += mask[idx]
        if not window:
            continue
        fractions[t - t0] = mask.mean()
        last = last_under_covered(fld, 1 if fld.kind == "membership" else config.k)
        if fld.dimension == 1:
            # None = fully covered; otherwise scale the witness site into (0, 1]
            lasts[t - t0] = 0.0 if last is None else (last - fld.origin + 1) / fld.window
        else:
            # None = even the far corner fails (worst case)
            lasts[t - t0] = 1.0 if last is None else (last - fld.origin) / fld.window
        clamp += fld.clamp_count
    return under, fractions, lasts, clamp


def _chunk_ranges(trials: int, workers: int):
    per = math.ceil(trials / max(1, workers))
    return [(t0, min(trials, t0 + per)) for t0 in range(0, trials, per)]


def _run_chunks(fn, config, trials: int, workers: int, *extra):
    ranges = _chunk_ranges(trials, workers)
    if workers <= 1 or len(ranges) == 1:
        return [fn(config, *extra, t0, t1) for t0, t1 in ranges]
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        futures = [pool.submit(fn, config, *extra, t0, t1) for t0, t1 in ranges]
        return [f.result() for f in futures]


def estimate_under_coverage(
    config: LatticeConfig,
    sites,
    trials: int,
    workers: int = 1,
) -> list[SiteEstimate]:
    """Monte Carlo under-coverage frequency per site with 99% Wilson intervals.

    Trial t runs on seed mix64(config.seed, t), so the estimate is
    independent of chunking and worker count.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sites = list(sites)
    _site_indices(config, sites)  # validate before any work
    parts = _run_chunks(_trial_chunk, config, trials, workers, sites, False)
    return _site_estimates(sites, parts, trials)


def simulate_window(
    config: LatticeConfig, trials: int, workers: int = 1, sites=None
) -> WindowStats:
    """Whole-window under-coverage summaries per trial (same seeding contract).

    With sites, the same trials also give the per-site estimates of
    estimate_under_coverage (in WindowStats.sites), so each trial's field is
    built once.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    site_list = [] if sites is None else list(sites)
    _site_indices(config, site_list)  # validate before any work
    parts = _run_chunks(_trial_chunk, config, trials, workers, site_list, True)
    fractions = np.concatenate([p[1] for p in parts])
    lasts = np.concatenate([p[2] for p in parts])
    clamp = sum(p[3] for p in parts)
    estimates = None if sites is None else _site_estimates(site_list, parts, trials)
    return WindowStats(fractions, lasts, clamp, estimates)


def _site_estimates(sites, parts, trials: int) -> list[SiteEstimate]:
    """99% Wilson estimates from the per-site under counts of _trial_chunk parts."""
    under = np.sum([p[0] for p in parts], axis=0)
    out = []
    for s, u in zip(sites, under.tolist()):
        lo, hi = wilson_interval(u, trials)
        out.append(SiteEstimate(s, trials, u, u / trials, lo, hi))
    return out
