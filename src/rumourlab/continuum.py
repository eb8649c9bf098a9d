"""Poisson Boolean model on the positive orthant (d = 1, 2).

Points fall as a Poisson process of intensity lam on [0, T]^d; each point
x grows a block x + [0, rho]^d, rho the real radius (real_quantile) of a
pareto, power or const law.  The 1D sweep finds the supremum of the
k-deficient set exactly; the 2D variant rasterizes onto a pixel grid with
the lattice box-count kernel (discretization bias of order resolution *
boundary density, documented not corrected), a block of at most
_SOURCE_BLOCK points at a time.  A trial holds ~90 (1D) or ~32 (2D) bytes
per point, ~105 per point of one 2D block and ~13 per pixel; a request
whose expected trial passes the memory budget, stats.MAX_BYTES, is refused
before sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from rumourlab.distributions import TailDistribution
from rumourlab.lattice import _SOURCE_BLOCK, box_counts, run_trials
from rumourlab.stats import check_bytes, mean_interval, make_rng

# bytes per point and per pixel of one trial, from tracemalloc peaks: ~88
# per point in 1D, its coordinates, radius and sorted copies; in 2D ~32 per
# point held for the trial (its coordinates, radius and sample_ppp's
# temporaries) and ~105 per point of one block of _SOURCE_BLOCK points turned
# into box corners; and ~13 per pixel: the int32 grid, the deficient mask and
# its flat indices.  A trial under the budget has fewer than 2^31 points, so
# the int32 pixel counts cannot overflow.
_POINT_BYTES = {1: 128, 2: 40}
_BLOCK_POINT_BYTES = {1: 0, 2: 128}
_PIXEL_BYTES = 16
# bytes of a trial that do not grow with it
_TRIAL_OVERHEAD = 1 << 20


@dataclass(frozen=True)
class ContinuumConfig:
    dimension: int
    lam: float
    window_t: float
    radius_law: TailDistribution
    k: int
    seed: int
    resolution: float = 1.0

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        if not self.lam > 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if not self.window_t > 0:
            raise ValueError(f"window must be positive, got {self.window_t}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not self.resolution > 0:
            raise ValueError(f"resolution must be positive, got {self.resolution}")
        if self.dimension == 2:
            # ceil would raise on an inf side, and a 0 side has no pixels
            side = self.window_t / self.resolution
            if not 0 < side < math.inf:
                raise ValueError(f"T / resolution = {side:g} pixels per axis (want (0, inf))")
        check_bytes(self.trial_bytes(), "one trial's lambda * T^d expected points")

    def trial_bytes(self) -> float:
        """Peak bytes of one trial: its expected points, lambda * T^d, and in 2D one
        block of them and its pixels; float products, so an overflow gives inf,
        not an OverflowError."""
        d = self.dimension
        points = self.lam * math.prod((self.window_t,) * d)
        side = float(math.ceil(self.window_t / self.resolution)) if d == 2 else 0.0
        return (points * _POINT_BYTES[d] + min(points, _SOURCE_BLOCK) * _BLOCK_POINT_BYTES[d]
                + side * side * _PIXEL_BYTES + _TRIAL_OVERHEAD)


@dataclass
class PointSet:
    """Sampled points: coordinates shape (N, d) in [0, T]^d, radii shape (N,)."""

    coordinates: np.ndarray
    radii: np.ndarray


def sample_ppp(config: ContinuumConfig) -> PointSet:
    """Poisson(lam * T^d) many uniform points with i.i.d. radii, per seed."""
    rng = make_rng(config.seed)
    mean = config.lam * config.window_t**config.dimension
    n = int(rng.poisson(mean))
    coords = rng.random((n, config.dimension)) * config.window_t
    radii = config.radius_law.real_quantile(1.0 - rng.random(n))
    return PointSet(coords, radii)


def k_cover_last_gap_1d(points: PointSet, k: int, window_t: float):
    """Supremum of {x in [0, T] : fewer than k intervals [x_i, x_i + r_i) cover x}.

    None when coverage is at least k on all of [0, T].  Intervals are
    half-open so counts change only at endpoints.
    """
    starts = points.coordinates[:, 0]
    ends = starts + points.radii
    t = float(window_t)

    def count_at(x):
        return np.count_nonzero((starts <= x) & (x < ends))

    if count_at(t) < k:
        return t

    # breakpoints where the count can change, rightmost first
    bps = np.unique(np.concatenate([[0.0], starts[starts < t], ends[ends < t]]))
    bps = bps[(bps >= 0.0) & (bps < t)]
    ss = np.sort(starts)
    es = np.sort(ends)
    # count on [bps[i], next breakpoint) is the count at bps[i]
    cnt = np.searchsorted(ss, bps, side="right") - np.searchsorted(es, bps, side="right")
    deficient = np.flatnonzero(cnt < k)
    if deficient.size == 0:
        return None
    last = deficient[-1]
    # the deficient segment ends at the next breakpoint (or T)
    return float(bps[last + 1]) if last + 1 < bps.size else t


def k_cover_deficit_2d(points: PointSet, k: int, window_t: float, resolution: float):
    """(deficient pixel fraction, witness pixel centre or None) on a corner grid.

    Pixel (a, b) counts as covered by a block when its lower-left corner
    (a*res, b*res) lies in the closed block; radii reaching past the
    window are clamped (clamp irrelevant to the reported fraction).
    """
    m = math.ceil(window_t / resolution)
    check_bytes(m * m * _PIXEL_BYTES, f"a pixel grid of {m}^2 cells")

    def boxes():
        # _SOURCE_BLOCK points at a time, so no per-point temporary spans the set
        for i in range(0, len(points.radii), _SOURCE_BLOCK):
            x = points.coordinates[i:i + _SOURCE_BLOCK, 0]
            y = points.coordinates[i:i + _SOURCE_BLOCK, 1]
            rad = points.radii[i:i + _SOURCE_BLOCK]
            hix = np.minimum(x + rad, window_t)
            hiy = np.minimum(y + rad, window_t)
            a_lo = np.ceil(x / resolution).astype(np.int64)
            b_lo = np.ceil(y / resolution).astype(np.int64)
            a_stop = np.minimum(np.floor(hix / resolution), m - 1).astype(np.int64) + 1
            b_stop = np.minimum(np.floor(hiy / resolution), m - 1).astype(np.int64) + 1
            keep = (a_lo < a_stop) & (b_lo < b_stop)
            yield (a_lo[keep], b_lo[keep]), (a_stop[keep], b_stop[keep]), 0

    counts = box_counts(m, 2, boxes(), 1)[0]
    bad = counts < k
    fraction = float(np.count_nonzero(bad)) / (m * m)
    if fraction == 0.0:
        return fraction, None
    # lexicographically largest (row, col) deficient pixel: the last in row-major order
    a, b = divmod(int(np.flatnonzero(bad)[-1]), m)
    witness = ((a + 0.5) * resolution, (b + 0.5) * resolution)
    return fraction, witness


@dataclass
class LambdaSummary:
    lam: float
    trials: int
    mean: float
    ci_low: float
    ci_high: float
    values: np.ndarray


def trial_statistic(config: ContinuumConfig) -> tuple[float, object]:
    """(statistic, witness) for one realization; the witness is None when covered.

    1D: the last k-deficient point over T, and that point; 2D: the
    deficient pixel fraction, and the last deficient pixel centre.
    """
    points = sample_ppp(config)
    if config.dimension == 1:
        gap = k_cover_last_gap_1d(points, config.k, config.window_t)
        return (0.0, None) if gap is None else (gap / config.window_t, gap)
    return k_cover_deficit_2d(points, config.k, config.window_t, config.resolution)


def record_dtype(dimension: int) -> np.dtype:
    """One continuum trial's record: its statistic and its witness point, NaN when covered."""
    return np.dtype([("statistic", np.float64), ("witness", np.float64, (dimension,))])


def trial_records(config: ContinuumConfig, seeds: np.ndarray) -> np.ndarray:
    """trial_statistic's (statistic, witness) of the trials on seeds (a uint64 array), as records."""
    out = np.empty(len(seeds), record_dtype(config.dimension))
    for i, seed in enumerate(seeds.tolist()):
        stat, witness = trial_statistic(replace(config, seed=seed))
        out[i] = stat, np.nan if witness is None else witness
    return out


def scan_lambda(config: ContinuumConfig, lambdas, trials: int,
                workers: int = 1) -> list[LambdaSummary]:
    """Per-intensity deficiency summaries for bracketing the covered phase.

    Trials use seeds mix64(seed, grid index, trial); draws are independent
    across intensities, so monotonicity holds in expectation only.  All
    intensities share one pool of up to `workers` processes.
    """
    lambdas = list(lambdas)
    if any(l2 < l1 for l1, l2 in zip(lambdas, lambdas[1:])):
        raise ValueError("lambdas must be sorted ascending")
    # every intensity is validated here, before any trial
    jobs = [(replace(config, lam=lam), (li,), ()) for li, lam in enumerate(lambdas)]
    out = []
    results = run_trials(trial_records, jobs, trials, workers, record_dtype(config.dimension))
    for lam, records in zip(lambdas, results):
        vals = records["statistic"]
        mean, lo, hi = mean_interval(vals)
        out.append(LambdaSummary(lam, trials, mean, lo, hi, vals))
    return out
