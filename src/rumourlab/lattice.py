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

All counting goes through one box-count kernel, box_counts: boxes put
their 2^d signed corners on an int32 difference grid of (m+1)^d cells, and
prefix sums in place turn it into per-cell counts, so the cost is
O(window + boxes) regardless of the radii.  Firework counts, the reverse
membership marks and the continuum's 2D pixel counts all use it.

Both models share one counting contract: a body takes (..., trials,
chunks, initiator_radii) and returns a (trials, n, ...) field and (trials,)
clamp counts, from _draws' chunks in the row order of each trial's window
stream (_firework reads their sources, as _sources gives them), and one
box_counts call with a leading trial axis counts every trial's field; both
turn a chunk's sources into box corners a block of at most _SOURCE_BLOCK
sources at a time (_sites), so a chunk's per-source transients stay
bounded.  _firework counts cover blocks.  In _membership
the open bits make an int32 prefix grid per trial over sites [-1..m]^d,
each source's block count is the signed sum of that grid at the block's
2^d corners, and the qualifying blocks are marked.  The grid is never
whole: the current chunk's rows roll through one full-width buffer, and
the sources with a bottom corner above the buffer wait, a pool of them
at a time, for one sweep down the packed open bits of rows 0..n-1, which
rebuilds the grid's rows there.  A realization feeds
either body as the chunks of one trial, in the row blocks of realize
(firework_counts, reverse_membership).

One producer, _draws(config, seeds, select, ps), lays out the window
stream: chunks (first trial, first row, open bits, or the sources' levels
at a grid's several ps, selected open sites, their radii) of the trials on
seeds, the trials of a window of at most
_BATCH_MAX_CELLS extent cells in one chunk drawn at once by stats.uniforms,
with every open site selected, any other window trial by trial, each
chunk's uniforms in row pieces through one reused buffer.  realize reads
it, and so does every trial, which never realizes.  A streamed reverse
trial of several row blocks draws its next chunk on one helper thread
while it counts the current one; the helper draws every chunk in order
from the one generator, so no value depends on timing, and it is joined
before the trial returns.
One trial engine, run_trials, seeds, chunks and pools the trials of the
lattice (simulate_windows) and of the continuum (scan_lambda, the continuum
command): fn(config, seeds, *extra) returns numeric records for a chunk of
trial seeds.  Each caller makes one run_trials call for all its configs, a
scan's grid points included, so an invocation starts at most one pool.  The
points of a firework p or beta scan share each trial's window, so they are
one job (simulate_windows), and a single config is a one-point grid of the
same code: a group of trials is drawn once at the grid's distinct ps, the
largest p's sources each with its level (how many ps lie above its
activation uniform) and its radius, or its radius uniform where the laws
differ; the points are counted one at a time from the largest p down, the
sources narrowed to each next p's (_firework_points).  A reverse point
stays a job of its own.  A lattice
trial's summary comes from _summaries and one reduction, _records, over
groups of ~_BATCH_CELLS extent cells: a firework group is counted by
_firework, and a reverse group streams (_stream_reverse): outside a batch,
only open sites that can reach the reported window or clamp are sources
and get radii, so a large trial needs ~4 bytes per cell of chunk rows + 3
rows of the extent, an eighth per site of rows 0..n-1 (a byte per site in
1D), ~32 per candidate of a chunk, one block's transients and the deferred
pool.
stats.uniforms draws every initiator radius too.
Each record is thus bit-identical to the one-trial path, firework_counts
or reverse_membership of realize(config).  NumPy's NEP 19 does not freeze
its generator streams; the tests pin uniforms to Generator(PCG64(seed)) so
that a NumPy release that changes them fails loudly.
LatticeConfig.trial_bytes estimates one group's peak; a config whose
estimate passes the memory budget, stats.MAX_BYTES, is refused, and
run_trials runs no more processes than the budget holds.
Imports are lazy: the process pool (the module attribute
ProcessPoolExecutor, resolved on first read so tests and tracers can
replace it) is imported when run_trials first forks, and the helper
thread's executor when a streamed reverse trial first needs it, so a
--workers 1 run imports neither.  run_trials imports numpy.random before it
forks, so the workers share it instead of each importing it at its first
make_rng.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from rumourlab.distributions import TailDistribution
from rumourlab.stats import check_bytes, mix64, make_rng, uniforms, wilson_interval

# cells drawn per RNG chunk; fixed so the draw pattern is reproducible
_CHUNK_CELLS = 1 << 22

# cells per row piece of a chunk's uniforms, drawn into one reused float64
# buffer; any size draws the same stream
_PIECE_CELLS = 1 << 18

# widest 2D block whose axis-0 prefix sums one column-wise accumulate does
# faster than a row-by-row add (2-vCPU Xeon: 4x at 257 wide, even at 801,
# 5x slower at 2001)
_ACCUMULATE_MAX_WIDTH = 512

# windows of at most this many extent cells run their trials in batches; at
# 256 cells a batched trial costs ~0.3x (2D) to ~0.6x (1D) of a one-at-a-time
# firework trial and ~0.35x of a reverse one, and a firework batch 1.1x at
# 512 cells in 1D and 1024 in 2D (2-vCPU Xeon)
_BATCH_MAX_CELLS = 256

# extent cells (of all its trials) per batch or group of trials reduced
# together; a batch of either model peaks at ~120 bytes per cell
# (tracemalloc), so its buffers stay near 1 MiB
_BATCH_CELLS = 1 << 13

# sub-stream tags hanging off the configured seed
_STREAM_WINDOW = 1
_STREAM_INITIATORS = 2

# initiator sites, in the order of Realization.initiator_radii
_INITIATOR_SITES = np.array([-1, 0], dtype=np.int64)

# relative slack on the survival bound that selects streamed reverse-2D
# candidates; far above the few-ulp disagreement between a law's quantile
# and its survival function, so no source passing the exact tests is lost
_SURVIVAL_SLACK = 1.0 + 1e-9

# axis sites per block of _survival_bounds; its temporaries (~41 bytes per
# site) stay near 2.7 MB whatever the extent
_BOUND_SITES = 1 << 16

FIREWORK = "firework"
REVERSE = "reverseFirework"
_MODELS = (FIREWORK, REVERSE)

# sources per block that the counting bodies (and the continuum's 2D raster)
# turn into box corners at once, so their transients stay near 10 MB
# whatever the chunk
_SOURCE_BLOCK = 1 << 16

# transient bytes per source of a block while it is counted: its coordinates,
# stops, corner indices and masks (tracemalloc, peak with a block of 2^16
# sources less the peak with one of 2^8, 1D and 2D: at most 75 firework and
# 167 reverse; the reverse margin also covers the helper's piece of the next
# chunk, drawn meanwhile)
_SOURCE_BYTES = {FIREWORK: 96, REVERSE: 256}

# bytes per candidate a streamed reverse chunk holds for the whole chunk: its
# radius and the helper's radii of the next chunk, pieces and join
# (tracemalloc slope over chunk size at p = 1: ~32)
_REVERSE_HELD = 32

# bytes per source of its window that a firework group holds: its flat index,
# radius (or radius uniform) and level, and, while the sources narrow to the
# next p (_narrow), a keep mask and one narrowed array (8 + 8 + 1 + 1 + 8),
# or, where the points' laws differ, a point's radii (8 + 8 + 1 + 8)
_FIREWORK_HELD = 26

# bytes per source of _membership's deferred pool, which one sweep answers:
# its held int32 row and, while it is answered, its int64 copy, the sweep's
# sort keys and the qualifying blocks (tracemalloc, slope of the peak over
# pool size with every source deferred, 2D at PowerTail(0.5) and (0.2):
# 104-126)
_DEFERRED_BYTES = 128

# bytes of a trial that do not grow with its window: the reused piece buffer
# (2 MiB) and a group of small windows' trials (~1 MiB at _BATCH_CELLS), or,
# before either is made, a block of _survival_bounds (~2.7 MB)
_TRIAL_OVERHEAD = 1 << 22


class WindowOverflowError(ValueError):
    """One trial of the simulated window would pass the memory budget, stats.MAX_BYTES."""


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
        check_bytes(self.trial_bytes(), f"one trial of extent {self.extent()}", WindowOverflowError)

    def extent(self) -> int:
        """Simulated sites per axis: the reverse model oversamples by the cushion."""
        return self.n * self.cushion if self.model == REVERSE else self.n

    def report_origin(self) -> int:
        """First reported site per axis: 1 for firework, 0 for reverse."""
        return 0 if self.model == REVERSE else 1

    def trial_bytes(self) -> int:
        """Peak bytes of one group of _summaries' trials, which one process runs at once.

        Both models: the reported window's int32 count grid and two bool masks
        over it, and the transients of one block of a chunk's expected open
        sites (_SOURCE_BYTES), at most _SOURCE_BLOCK sources.
        Firework: a chunk's open bits while it is drawn (1 byte per cell),
        and what the window's expected open sites hold while the points of a
        grid are counted (_FIREWORK_HELD); a grid job's config is its point
        of largest p, so this covers every point.
        Streamed reverse: _membership's rolling int32 buffer, chunk rows + 3
        rows of (m+3)^(d-1) cells, and, past one chunk, the packed open bits
        of n rows and the deferred pool (_DEFERRED_BYTES per source of
        _deferred_pool); the two float64 survival bounds (their blocks'
        temporaries fall within the overhead), two pairs of row-block bit
        buffers, and what one chunk's expected open sites hold for the whole
        chunk (_REVERSE_HELD).
        A chunk has _chunk_rows whole rows.  Exact arithmetic, so no window is
        too large to be refused.
        """
        m, n, d, p = self.extent(), self.n, self.dimension, Fraction(self.p)
        rows = _chunk_rows(m, d)
        chunk = rows * m ** (d - 1)
        sources = math.ceil(p * chunk)
        if self.model == FIREWORK:
            own = chunk + _FIREWORK_HELD * math.ceil(p * m ** d)
        else:
            own = (4 * (rows + 3) * (m + 3) ** (d - 1) + 16 * m + 4 * chunk
                   + _REVERSE_HELD * sources)
            if rows < m:
                own += n * -(-m ** (d - 1) // 8) + _DEFERRED_BYTES * _deferred_pool(n, d)
        return (_TRIAL_OVERHEAD + own + 6 * (n + 1) ** d
                + min(sources, _SOURCE_BLOCK) * _SOURCE_BYTES[self.model])


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


def realize(config: LatticeConfig) -> Realization:
    """Sample one realization; a pure function of (config, seed).

    Each site consumes one activation uniform and one radius uniform (the
    radius uniform is drawn whether or not the site opens), so coupled
    runs that share a seed and differ only in p open nested site sets with
    identical radii on the common part.
    """
    # the bitmap, one chunk's bits (at most as many) and each radius twice (as
    # chunk parts and joined, past one chunk), with a third copy's margin for
    # one piece's quantiles
    cells = config.extent() ** config.dimension
    check_bytes(2 * cells + 24 * math.ceil(Fraction(config.p) * cells) + _TRIAL_OVERHEAD,
                f"realizing a window of {cells} cells")
    activation = np.empty((config.extent(),) * config.dimension, dtype=bool)
    radii_parts = []
    seed = np.array([config.seed % 2**64], dtype=np.uint64)  # masked as make_rng masks it
    for _, r0, (act,), _, radii in _draws(config, seed):
        activation[r0:r0 + len(act)] = act
        radii_parts.append(radii)
    radii = radii_parts[0] if len(radii_parts) == 1 else np.concatenate(radii_parts)
    init = _initiator_radii(config.dist, seed)[0] if config.include_initiators else None
    return Realization(config, activation, radii, init)


def _chunk_rows(m: int, dimension: int) -> int:
    """Leading-axis rows of a full RNG chunk: ~_CHUNK_CELLS cells, whole rows in 2D."""
    return min(m, _CHUNK_CELLS if dimension == 1 else max(1, _CHUNK_CELLS // m))


def _row_blocks(m: int, dimension: int) -> list:
    """Leading-axis ranges [r0, r1) of the RNG chunks, _chunk_rows rows each but the last."""
    step = _chunk_rows(m, dimension)
    return [(r0, min(m, r0 + step)) for r0 in range(0, m, step)]


def _draws(config: LatticeConfig, seeds: np.ndarray, select=None, buffers=None, ps=None,
           quantile=None):
    """The window stream of the trials on seeds (uint64), chunk by chunk.

    Yields (t0, r0, open bits, selected, radii) of trials t0.. over extent
    rows r0.. (0-based): the open bits and the mask of the selected open
    sites, each a (trials, rows, ...) array, and the radii of the selected
    sites in row-major order.  Every open site is selected unless select is
    given: select(r, u) is the mask of the sites of extent rows r.. to keep,
    from their radius uniforms u in (0, 1]; a batch of trials (below) ignores
    select, as every open site is a source there.

    ps, if given, is a descending tuple of distinct opening probabilities in
    place of (config.p,); the open bits and the selected sites are those at
    ps[0].  With more than one, the open bits' place holds the selected
    sites' levels instead, aligned with their radii (_levels: a site is open
    at ps[j] when its level passes j), so no per-cell level array exists.
    quantile (by default config.dist's) maps the selected sites' radius
    uniforms to the radii yielded; np.asarray yields the uniforms themselves.

    A trial's stream is make_rng(seed, _STREAM_WINDOW) in the row blocks of
    _row_blocks, a chunk drawing all its activation uniforms, then all its
    radius uniforms.  Both are drawn in row pieces of ~_PIECE_CELLS cells
    into one reused float64 buffer, so no chunk-sized float array exists.
    buffers, if given, is a list of (open bits, selected) pairs shaped as a
    whole row block, which the chunks fill in turn; a consumer may pass it
    only if it is done with a chunk before it asks for len(buffers) more.
    A _batched window is one row block, so uniforms draws several trials'
    2*m^d uniforms (m = extent) at once into one chunk, bit for bit the
    generators' own; a lone trial (uniforms' fixed cost is ~10x make_rng's)
    or any other window is drawn trial by trial.  Every consumer of the window stream
    goes through here, so its layout is defined once.
    """
    m, d = config.extent(), config.dimension
    ps = (config.p,) if ps is None else ps
    quantile = quantile or config.dist.quantile_from_uniform
    if _batched(config) and len(seeds) > 1:
        draws = uniforms(mix64(seeds, _STREAM_WINDOW), 2 * m**d).reshape((len(seeds), 2) + (m,) * d)
        top = draws[:, 0] < ps[0]
        act = top if len(ps) == 1 else _levels(draws[:, 0][top], ps)
        yield 0, 0, act, top, quantile(np.subtract(1.0, draws[:, 1][top]))
        return
    blocks = _row_blocks(m, d)
    row = (m,) * (d - 1)
    piece = max(1, _PIECE_CELLS // m ** (d - 1))  # rows
    buf = np.empty((min(piece, blocks[0][1]),) + row)
    dtype = np.float64 if quantile is np.asarray else np.int64  # uniforms or radii
    pairs = itertools.cycle(buffers or ())
    for t, seed in enumerate(seeds.tolist()):
        rng = make_rng(seed, _STREAM_WINDOW)
        for r0, r1 in blocks:
            if buffers is None:
                top = np.empty((1, r1 - r0) + row, bool)
                sel = top if select is None else np.empty_like(top)
            else:
                top, sel = (b[:, :r1 - r0] for b in next(pairs))
            pieces = [(a, min(a + piece, r1 - r0)) for a in range(0, r1 - r0, piece)]
            act = top if len(ps) == 1 else []
            for a, b in pieces:
                u = rng.random(out=buf[:b - a])
                np.less(u, ps[0], out=top[0, a:b])
                if act is not top:
                    act.append(_levels(u[top[0, a:b]], ps))
            if act is not top:
                act = np.concatenate(act)
            # with every open site selected, the radii fill one array of the
            # chunk's open count, so they are never held twice
            radii = [] if select is not None else np.empty(np.count_nonzero(top), dtype)
            off = 0
            for a, b in pieces:
                u = np.subtract(1.0, rng.random(out=buf[:b - a]), out=buf[:b - a])
                if select is not None:
                    np.logical_and(select(r0 + a, u), top[0, a:b], out=sel[0, a:b])
                piece_radii = quantile(u[sel[0, a:b]])
                if select is None:
                    radii[off:off + len(piece_radii)] = piece_radii
                    off += len(piece_radii)
                else:
                    radii.append(piece_radii)
            if select is not None:
                radii = radii[0] if len(radii) == 1 else np.concatenate(radii)
            yield t, r0, act, sel, radii
            # the chunk is the consumer's now, freed as soon as it lets go
            del act, sel, top, radii


def _levels(u, ps) -> np.ndarray:
    """The levels of activation uniforms u below ps[0], of descending ps: how
    many of ps lie above each, in the smallest unsigned type that holds len(ps)."""
    out = np.ones(len(u), np.min_scalar_type(len(ps)))
    for p in ps[1:]:
        out += u < p
    return out


def _ahead(helper, chunks):
    """The items of chunks, each drawn on the helper executor while the caller
    consumes the one before; the caller draws the first itself."""
    nxt = next(chunks, None)
    while nxt is not None:
        pending = helper.submit(next, chunks, None)
        yield nxt
        nxt = pending.result()


def _realized_chunks(realization: Realization):
    """A realization as _draws' chunks of one trial, in the row blocks of realize."""
    act, off = realization.activation, 0
    for r0, r1 in _row_blocks(act.shape[0], act.ndim):
        count = int(np.count_nonzero(act[r0:r1]))
        yield 0, r0, act[None, r0:r1], act[None, r0:r1], realization.radii[off:off + count]
        off += count


def _sites(t0: int, r0: int, shape: tuple, flat: np.ndarray, radii: np.ndarray):
    """Blocks (trial, per-axis 0-based extent coordinates, radii) of at most
    _SOURCE_BLOCK of the sources of a chunk of trials t0.. over rows r0..,
    given by their flat indices into the chunk's (trials, rows, ...) shape in
    row-major order, as np.flatnonzero gives them, and their radii; a
    one-trial chunk keeps a scalar trial index, so no index array per site is
    built."""
    for a in range(0, len(flat), _SOURCE_BLOCK):
        part = flat[a:a + _SOURCE_BLOCK]
        trial, part = divmod(part, math.prod(shape[1:])) if shape[0] > 1 else (0, part)
        sites = list(divmod(part, shape[-1])) if len(shape) > 2 else [part]
        sites[0] = sites[0] + r0  # not in place: part may be a view of flat
        yield trial + t0, sites, radii[a:a + _SOURCE_BLOCK]


def _initiator_radii(dist: TailDistribution, seeds: np.ndarray) -> np.ndarray:
    """(trials, 2) radii of sites -1 and 0 of the trials on seeds (uint64), each
    from its trial's own initiator stream, as make_rng(seed, 2) draws it."""
    return dist.quantile_from_uniform(_initiator_uniforms(seeds))


def _initiator_uniforms(seeds: np.ndarray) -> np.ndarray:
    """(trials, 2) radius uniforms in (0, 1] of the initiators of _initiator_radii."""
    return np.subtract(1.0, uniforms(mix64(seeds, _STREAM_INITIATORS), 2))


def box_counts(m: int, d: int, batches, trials: int) -> np.ndarray:
    """Per-cell counts over [0, m)^d of boxes prod [lo[axis], stop[axis]), per trial.

    The grid has a leading axis of trials' grids.  batches yields (lo, stop,
    trial): one index array per axis each, 0 <= lo <= stop <= m, and each
    box's trial index (or one int for all of a batch's boxes).  Boxes add
    their 2^d signed corners to the flat view of one int32 grid of
    trials * (m+1)^d cells (int32 signs keep np.add.at on its fast path);
    in-place prefix sums along the window axes only then leave the counts,
    exact below 2^31 per cell, and no count crosses trials.
    """
    grid = np.zeros((trials,) + (m + 1,) * d, dtype=np.int32)
    flat = grid.reshape(-1)
    for lo, stop, trial in batches:
        # a trial index is one more leading coordinate of each corner
        for sign, idx in _corners(lo, stop, m + 1, trial * (m + 1)):
            np.add.at(flat, idx, sign)
    np.add.accumulate(grid, axis=-1, out=grid)
    if d == 2:
        _add_down(grid, d)
    return grid[(...,) + (slice(0, m),) * d]


def _corners(lo, stop, w: int, base):
    """(sign, flat index into a grid of side w) of the boxes' 2^d corners.

    base is the boxes' leading coordinate times w.  One corner at a time, so
    at most one index array per axis is alive.
    """
    if len(lo) == 1:
        yield np.int32(1), base + lo[0]
        yield np.int32(-1), base + stop[0]
        return
    for sign, idx in _corners(lo[:-1], stop[:-1], w, base):
        base_row = idx * w
        yield sign, base_row + lo[-1]
        yield -sign, base_row + stop[-1]


def _add_down(block: np.ndarray, d: int) -> None:
    """Prefix sums down the rows of d-dimensional windows (axis -d), in place."""
    if d == 1 or block.shape[-1] <= _ACCUMULATE_MAX_WIDTH:
        np.add.accumulate(block, axis=-d, out=block)
        return
    for i in range(1, block.shape[-2]):
        np.add(block[..., i - 1, :], block[..., i, :], out=block[..., i, :])


def firework_counts(realization: Realization) -> CoverageField:
    """Distinct-source cover counts over the reported window (firework model)."""
    cfg = realization.config
    if cfg.model != FIREWORK:
        raise ValueError("firework_counts needs a firework-model realization")
    init = realization.initiator_radii
    counts, clamps = _firework(cfg, 1, _sources(_realized_chunks(realization)),
                               None if init is None else init[None])
    return CoverageField("counts", cfg.dimension, 1, cfg.n, counts[0], int(clamps[0]))


def _tally(clamps: np.ndarray, trial, over: np.ndarray) -> None:
    """Add the clamped sources (over) to each trial's clamp count; trial is one
    per source or, for a one-trial chunk, a scalar that needs no bincount."""
    if isinstance(trial, np.ndarray):
        clamps += np.bincount(trial[over], minlength=clamps.size)
    else:
        clamps[trial] += np.count_nonzero(over)


def _firework(config: LatticeConfig, trials: int, chunks, initiator_radii):
    """Cover counts (trials, n, ...) and clamp counts (trials,) of firework fields.

    chunks are _sources' [t0, r0, shape, flat indices, levels, radii] of
    the chunks' sources.  initiator_radii is None or the (trials, 2) radii
    of sites -1 and 0 (1D), which cover sites 1..site+r: blocks from index 0
    with radius max(site+r, 0) - 1 (-1 for an empty one).
    Every block stops at min(start + radius + 1, n), and one box_counts call
    with a leading trial axis counts every field.
    """
    n, clamps = config.n, np.zeros(trials, dtype=np.int64)

    def boxes(trial, starts, radii):
        stops = [x + radii + 1 for x in starts]
        over = functools.reduce(np.logical_or, [stop > n for stop in stops])
        _tally(clamps, trial, over)
        return starts, [np.minimum(stop, n, out=stop) for stop in stops], trial

    def batches():
        for t0, r0, shape, flat, _, radii in chunks:
            for trial, starts, rad in _sites(t0, r0, shape, flat, radii):
                yield boxes(trial, starts, rad)
        if initiator_radii is not None:
            init = np.maximum(_INITIATOR_SITES + initiator_radii, 0).reshape(-1) - 1
            yield boxes(np.repeat(np.arange(trials), 2), [np.zeros_like(init)], init)

    return box_counts(n, config.dimension, batches(), trials), clamps


def reverse_membership(realization: Realization, k: int) -> CoverageField:
    """Indicator of the reverse k-sceptic region over sites [0, n-1]^d.

    A site x belongs when some open i >= x (componentwise) has x inside
    i + [-radius_i, 0]^d together with at least k open sites other than i
    (initiators count as open).  k=0 degenerates to plain reverse
    coverage.  Sources beyond the cushioned window are missing, so the
    indicator is a lower bound on the true region.  The bitmap goes to
    _membership in the row blocks of realize, every open site a source.
    """
    cfg = realization.config
    if cfg.model != REVERSE:
        raise ValueError("reverse_membership needs a reverse-model realization")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    init = realization.initiator_radii
    values, clamps = _membership(cfg, k, 1, _realized_chunks(realization),
                                 None if init is None else init[None])
    return CoverageField("membership", cfg.dimension, 0, cfg.n, values[0], int(clamps[0]),
                         threshold=k)


def _survival_bounds(cfg: LatticeConfig):
    """Per-axis survival bounds over sites [1..extent], a function of the config's law and window.

    A source at x reaches the window when rad >= max(x) - n + 1 and clamps
    when rad >= min(x) + 2; G is non-increasing, so its uniform then lies
    below min over axes of G(x - n + 1) or below max over axes of G(x + 2).
    """
    m = cfg.extent()
    reach, clamp = np.empty(m), np.empty(m)
    # a block of sites at a time, so no int64 or temporary array spans the axis
    for a in range(0, m, _BOUND_SITES):
        sites = np.arange(a + 1, min(m, a + _BOUND_SITES) + 1, dtype=np.int64)
        np.multiply(cfg.dist.survival_vec(sites - cfg.n + 1), _SURVIVAL_SLACK,
                    out=reach[a:a + len(sites)])
        np.multiply(cfg.dist.survival_vec(sites + 2), _SURVIVAL_SLACK,
                    out=clamp[a:a + len(sites)])
    return reach, clamp


def _stream_reverse(cfg: LatticeConfig, seeds: np.ndarray, bounds, initiator_radii):
    """_membership(cfg, cfg.k, ...) of the trials on seeds (uint64), without realizing a window.

    Consumes the window stream chunk by chunk and keeps no activation bitmap
    and no per-site radii: the open bits go straight into the prefix grid,
    and only candidates, open sites whose uniform lies below bounds =
    _survival_bounds(cfg), get radii and the exact tests (a _batched window
    tests every open site).  initiator_radii are the trials' or None.
    """
    reach_g, clamp_g = bounds
    m, d = cfg.extent(), cfg.dimension

    def candidates(r0, u):
        # u below a min of the axis bounds or below a max of them,
        # compared per axis so no piece-sized bound is built
        rows = (slice(r0, r0 + len(u)),) + (None,) * (d - 1)
        cand = u < reach_g[rows]
        clamps = u < clamp_g[rows]
        if d == 2:
            cand &= u < reach_g
            clamps |= u < clamp_g
        return cand | clamps

    blocks = _row_blocks(m, d)
    if len(blocks) == 1:
        return _membership(cfg, cfg.k, len(seeds), _draws(cfg, seeds, candidates), initiator_radii)
    # the helper draws chunk i+1 into one pair while _membership counts
    # chunk i from the other; it is joined before the trial returns
    shape = (1, blocks[0][1]) + (m,) * (d - 1)
    pairs = [(np.empty(shape, bool), np.empty(shape, bool)) for _ in range(2)]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as helper:
        chunks = _ahead(helper, _draws(cfg, seeds, candidates, pairs))
        return _membership(cfg, cfg.k, len(seeds), chunks, initiator_radii)


def _prefix_rows(S: np.ndarray, row: int, act: np.ndarray) -> None:
    """Fill the prefix rows of a chunk's open bits into rows row+1.. of S.

    S and act have the same leading trial axis.  Row `row` must hold the
    final prefix of the window row above the chunk (the carry row); the
    chunk's rows may hold anything, as a reused buffer's rows do: their
    columns left of the extent are zeroed, the rest overwritten.  Cumulating
    down from the carry row adds its prefix to these rows' own.
    """
    block = S[:, row:row + 1 + act.shape[1]]
    own = block[:, 1:]
    if act.ndim > 2:
        own[..., :3] = 0
        own = own[..., 3:]
    own[...] = act
    for axis in range(2, act.ndim):
        np.add.accumulate(own, axis=axis, out=own)
    _add_down(block, act.ndim - 1)


def _membership(cfg: LatticeConfig, k: int, trials: int, chunks, initiator_radii):
    """Reverse k-sceptic indicators (trials, n, ...) uint8 over [0, n-1]^d and clamps (trials,).

    chunks are _draws' (t0, r0, open bits, sources, radii), each trial's in
    row order.  The open bits make an int32 prefix grid S per trial, so a
    source's block count is the signed sum of S at the block's 2^d corners.
    A source qualifies when its block prod [x - rad, x] holds at least k
    other open sites; the initiators count as sources, with initiator_radii
    None or the trials' (trials, 2) radii.  Every clamped source is counted,
    reaching the window or not.  One box_counts call with a leading trial
    axis marks every trial's qualifying blocks.

    S is never whole.  A source that reaches the window has lo = max(x -
    rad, -1) <= n - 1 on every axis, so its bottom corners lie in rows 0..n
    of S, and its top corners in its own chunk's rows.  So S is kept in two
    parts:
    - one rolling buffer R of chunk rows + 3 full-width rows, where R[i - r0]
      is S's row i for the chunk at r0: the previous chunk's last three rows
      (the carry row last), then the chunk's own;
    - the packed open bits of extent rows 0..n-1 (one byte per site in 1D).
    A bottom corner in row r0 or later reads R.  Any other source is
    deferred with its top corners summed, and _deferred_pool(n, d) of them
    at a time get their bottom corners off one sweep down the packed bits
    (_swept).  A one-chunk window gets R alone, the whole grid, and defers
    none.
    """
    n, d, m = cfg.n, cfg.dimension, cfg.extent()
    rows = _chunk_rows(m, d)
    # R[t, i - r0] (1D) or R[t, i - r0, j] (2D) will hold S's cell (i, j): the
    # number of open sites of trial t in [-1..i-2] or [-1..i-2] x [-1..j-2];
    # _prefix_rows fills a chunk's extent rows below the carry row R[t, 2].
    # The initiators sit on the diagonal at (-1,..,-1) and (0,..,0) and count
    # from index 1 and 2 on every axis; their rows 1 and 2 are set here, R's
    # first rows, and _prefix_rows adds them down into the extent rows.
    R = np.zeros((trials, rows + 3) + (m + 3,) * (d - 1), dtype=np.int32)
    if initiator_radii is not None:
        for i in (1, 2):
            R[(slice(None), slice(i, 3)) + (slice(i, None),) * (d - 1)] += 1
    packed = np.zeros((trials, n, -(-m ** (d - 1) // 8)), dtype=np.uint8) if rows < m else None
    flat, h = R.reshape(-1), R.shape[1]
    w = m + 3 if d == 2 else 1  # row length of R
    clamps = np.zeros(trials, dtype=np.int64)
    pool = _deferred_pool(n, d)
    pending, held = [], 0  # the deferred sources (defer), and how many

    def marked(trial, x, lo, in_block):
        """The qualifying blocks, clipped to the report window, empty ones dropped."""
        qualify = in_block - 1 >= k
        a = [np.maximum(c[qualify], 0) for c in lo]
        s = [np.minimum(c[qualify] + 1, n) for c in x]
        keep = functools.reduce(np.logical_and, map(np.less, a, s))
        return (tuple(c[keep] for c in a), tuple(c[keep] for c in s),
                trial[qualify][keep] if isinstance(trial, np.ndarray) else trial)

    def qualifying(trial, x, rad, r0):
        """Qualifying blocks of the sources at 1-based site coordinates x, R being at
        r0; those with a bottom corner above R are deferred."""
        over = rad > functools.reduce(np.minimum, x) + 1
        _tally(clamps, trial, over)
        reach = rad >= functools.reduce(np.maximum, x) - n + 1
        x, rad = [c[reach] for c in x], rad[reach]
        trial = trial[reach] if isinstance(trial, np.ndarray) else trial
        lo = [np.maximum(c - rad, -1) for c in x]
        # open sites in the blocks prod [lo, x] from R, the bottom corners in
        # a row above R left out; int32 wraps in between, so the sum is exact
        # as S's entries are
        top, low = (trial * h + x[0] + 2 - r0) * w, lo[0] + 1
        bottom = (trial * h + np.maximum(low - r0, 0)) * w
        above = low < r0
        in_block = 0
        for sign, col in [(1, x[1] + 2), (-1, lo[1] + 1)] if d == 2 else [(1, 0)]:
            corner = flat[bottom + col]
            corner[above] = 0
            in_block = in_block + sign * (flat[top + col] - corner)
        if above.any():
            defer(trial, x, lo, in_block, above)
            near = ~above
            trial = trial[near] if isinstance(trial, np.ndarray) else trial
            x, lo, in_block = [c[near] for c in x], [c[near] for c in lo], in_block[near]
        return marked(trial, x, lo, in_block)

    def defer(trial, x, lo, in_block, mask):
        """Hold the masked sources' trial, sites, block corners and partial counts
        (the count less the bottom corners) as one int32 array of 2 + 2d rows."""
        nonlocal held
        pending.append(np.array([np.broadcast_to(trial, mask.shape)[mask],
                                 *(c[mask] for c in x + lo), in_block[mask]], dtype=np.int32))
        held += pending[-1].shape[1]

    def resolved(final=False):
        """Qualifying blocks of the deferred sources, a pool of them at a time
        while that many are held, or all of them if final."""
        nonlocal held
        while held >= pool or final and held:
            joined = np.concatenate(pending, axis=1)
            pending[:] = [joined[:, pool:].copy()] if held > pool else []
            held = max(0, held - pool)
            trial, *corners = joined[:-1, :pool].astype(np.int64)
            part = joined[-1, :pool].copy()
            del joined
            x, lo = corners[:d], corners[d:]
            # a 1D row's one site is the sweep's first extent column, S's column 3
            cols = [(1, x[1] + 2), (-1, lo[1] + 1)] if d == 2 else [(1, np.full_like(trial, 3))]
            part -= _swept(packed, initiator_radii is not None, trial, lo[0] + 1, cols,
                           m ** (d - 1))
            del cols  # not held while box_counts takes the blocks
            yield marked(trial, x, lo, part)

    def blocks():
        # the initiators' blocks lie in S's rows 0..2, R's first rows before any chunk
        if initiator_radii is not None:
            sites = np.tile(_INITIATOR_SITES, trials)
            yield qualifying(np.repeat(np.arange(trials), 2), [sites] * d,
                             initiator_radii.reshape(-1), 0)
        end = 0  # rows of the previous chunk
        for t0, r0, act, sources, radii in chunks:
            part = R[t0:t0 + len(act)]
            if r0:  # S's rows r0..r0+2, the previous chunk's last, move to R's top
                part[:, :3] = part[:, end:end + 3]
            _prefix_rows(part, 2, act)  # R is final through the chunk's rows
            end = act.shape[1]
            if packed is not None and r0 < n:  # the open bits of rows 0..n-1
                bits = act[:, :n - r0]
                # a 1D row of one site packs, little end first, to its own byte
                packed[t0:t0 + len(act), r0:r0 + end] = (
                    bits[..., None] if d == 1 else np.packbits(bits, axis=-1, bitorder="little"))
            for trial, x, rad in _sites(t0, r0, sources.shape, np.flatnonzero(sources), radii):
                yield qualifying(trial, [c + 1 for c in x], rad, r0)  # 1-based sites
                yield from resolved()
            # the chunk's bits and radii are not held while the next chunk
            # is drawn or counted
            del act, sources, radii
        yield from resolved(final=True)

    return (box_counts(n, d, blocks(), trials) > 0).view(np.uint8), clamps


def _deferred_pool(n: int, d: int) -> int:
    """Deferred sources _membership answers with one sweep: a block's worth, or
    more at a large window, so a sweep of n rows serves ~(n+3)^d / 32 of them."""
    return max(_SOURCE_BLOCK, (n + 3) ** d // 32)


def _swept(packed: np.ndarray, initiators: bool, trial, row, cols, width: int) -> np.ndarray:
    """The signed sum over cols, (sign, col) pairs, of the prefix grid S of
    _membership at (trial, row, col), rows at most n.  S's rows 3.. are rebuilt
    a piece of rows at a time from the packed open bits of extent rows 0..n-1,
    width sites each: per-column open counts down the rows, then summed along
    each row.  Initiators are open at S's cells (1, 1) and (2, 2)."""
    piece = max(1, _PIECE_CELLS // width)  # extent rows rebuilt at once
    out = np.zeros(len(row), dtype=np.int32)
    if initiators:
        for sign, col in cols:
            out += sign * np.clip(np.minimum(row, col), 0, 2).astype(np.int32)
    last = row - 3  # the last extent row that S's row counts
    order = np.argsort(last, kind="stable")
    # block[t, 1 + r - a, c] will hold trial t's open sites in extent rows
    # 0..r and column c, and summed along its row, in extent columns 0..c:
    # S's cell (r + 3, c + 3)
    counts = np.zeros((len(packed), 1, width), dtype=np.int32)  # of the rows above the piece
    for a in range(0, int(last.max(initial=-1)) + 1, piece):
        part = packed[:, a:a + piece]
        block = np.empty((len(packed), 1 + part.shape[1], width), dtype=np.int32)
        block[:, :1] = counts
        # unpacked whole, as row by row costs ~10x at a 1D row's one byte
        block[:, 1:] = np.unpackbits(part, bitorder="little").reshape(
            part.shape[:2] + (-1,))[..., :width]
        _add_down(block, 2)
        counts = block[:, -1:].copy()
        sel = order[np.searchsorted(last, a, sorter=order):
                    np.searchsorted(last, a + piece, sorter=order)]
        if width > 1:  # a 1D row's one site is its own sum
            # summed along the rows asked for only, the sweep's costliest step
            for r in np.unique(last[sel] - a + 1).tolist():
                np.add.accumulate(block[:, r], axis=-1, out=block[:, r])
        for sign, col in cols:
            c = col[sel] - 3  # S's columns 0..2 hold no extent site
            out[sel] += sign * np.where(c < 0, 0, block[trial[sel], last[sel] - a + 1,
                                                      np.maximum(c, 0)])
    return out


def last_under_covered(fld: CoverageField, k: int):
    """Rightmost under-covered site (1D) or smallest clean corner start (2D).

    1D: the largest reported site with fewer than k covers, or None when
    every site has at least k.  2D: the smallest N0 such that every site
    with both coordinates in [N0, window max] meets the threshold, or None
    when even the top corner fails.  A non-None value only witnesses a
    lower bound: sites beyond the window are never inspected.  Membership
    fields should be queried with k=1 (their values are 0/1 indicators).
    """
    worst = int(_worst(fld.under_mask(k)[None])[0])
    if fld.dimension == 1:
        return None if worst < 0 else fld.origin + worst
    n0 = worst + 1 + fld.origin
    return None if n0 > fld.origin + fld.window - 1 else n0


def _worst(mask: np.ndarray) -> np.ndarray:
    """Per trial of a (trials, n, ...) mask: its largest under-covered index (1D)
    or min(row, col) (2D), -1 if none.  A row's largest min(row, col) is at its
    last under-covered column, a per-row argmax, so no (n, n) depth array is built.
    """
    n = mask.shape[1]
    last = (n - 1) - mask[..., ::-1].argmax(axis=-1)
    if mask.ndim == 2:
        return np.where(mask.any(axis=1), last, -1)
    np.minimum(last, np.arange(n), out=last)
    return np.max(last, axis=1, where=mask.any(axis=2), initial=-1)


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
    """Per-axis index arrays of the sites into the reported window, validated:
    a 1D site is an integer, a 2D site a pair of integers, each in the window.
    A bool is no integer here, though it is a numbers.Integral."""
    origin = config.report_origin()
    hi = origin + config.n - 1
    d = config.dimension
    idx = []
    for s in sites:
        coords = tuple(s) if d == 2 and np.iterable(s) else (s,)
        if len(coords) != d or not all(isinstance(c, numbers.Integral)
                                       and not isinstance(c, bool) for c in coords):
            what = "an integer" if d == 1 else "a pair of integers"
            raise ValueError(f"site {s!r} is not {what}")
        if not all(origin <= c <= hi for c in coords):
            power = "" if d == 1 else f"^{d}"
            raise ValueError(f"site {s} outside reported window [{origin}, {hi}]{power}")
        idx.append([c - origin for c in coords])
    return tuple(np.array(idx, dtype=np.int64).reshape(-1, d).T)


def _summary_dtype(sites: int) -> np.dtype:
    """Record of one trial's summary: site bits, window fraction, normalized last site, clamps."""
    return np.dtype([("bits", bool, (sites,)), ("fraction", np.float64),
                     ("last", np.float64), ("clamp", np.int64)])


def _batched(config: LatticeConfig) -> bool:
    """Whether _draws draws the trials of config at once: small extents in one RNG chunk."""
    m, d = config.extent(), config.dimension
    return m ** d <= _BATCH_MAX_CELLS and len(_row_blocks(m, d)) == 1


def _summaries(config: LatticeConfig, seeds: np.ndarray, idx, points=None) -> np.ndarray:
    """Summary records of the trials on seeds (a uint64 array), in seed order.

    The records are (trials,) of config, or, given points, (trials,
    len(points)) of each point: firework configs that share config's window
    (_window), config among them with the largest p.  Trials go in groups of
    ~_BATCH_CELLS extent cells through their model's counting body, _firework
    (_firework_points) or _stream_reverse, and one reduction, _records, so a
    record does not depend on its mask's source.  Every trial's initiator
    radii come from one draw of the initiator streams.
    """
    grid = (config,) if points is None else points
    out = np.empty((len(seeds), len(grid)), _summary_dtype(len(idx[0])))
    step = max(1, _BATCH_CELLS // config.extent() ** config.dimension)
    if config.model == FIREWORK:
        _firework_points(config, grid, seeds, idx, step, out)
    else:
        init = _initiator_radii(config.dist, seeds) if config.include_initiators else None
        bounds = _survival_bounds(config)
        for i in range(0, len(seeds), step):
            part, part_init = seeds[i:i + step], None if init is None else init[i:i + step]
            field, clamps = _stream_reverse(config, part, bounds, part_init)
            # a membership field is under-covered where it is 0
            mask = field < 1
            del field  # not held while the next group draws
            out[i:i + step, 0] = _records(mask, clamps, idx)
    return out if points is not None else out[:, 0]


def _firework_points(config: LatticeConfig, points, seeds: np.ndarray, idx, step: int,
                     out: np.ndarray) -> None:
    """The records of each of points (_summaries) into out[:, j], each group of
    step trials' window drawn once for all of them.

    The group is drawn before any grid is allocated: _draws at the points'
    distinct ps, its radii config.dist's when every point shares it, else
    the radius uniforms, each point taking its own law's quantile.  Each
    chunk keeps the largest p's sources (_sources): their flat indices,
    levels and radii.  The points are counted one at a time from the largest
    p down, and each next p narrows the sources to its own (_narrow), so no
    point holds more than its sources and their levels, and only the first
    finds them in the bits.  Narrowing after a point is counted, not
    splitting the sources by level as they are drawn, keeps the freed count
    grid's heap space for the narrowed arrays: a split raised the 2D n=2000
    p-scan's 10-trial VmHWM from 64.8 to 74.7 MB.
    """
    ps = tuple(sorted({pt.p for pt in points}, reverse=True))
    shared = all(pt.dist == config.dist for pt in points)
    init = _initiator_uniforms(seeds) if config.include_initiators else None
    order = sorted(range(len(points)), key=lambda j: -points[j].p)
    for i in range(0, len(seeds), step):
        part = seeds[i:i + step]
        chunks = list(_sources(_draws(config, part, ps=ps,
                                      quantile=None if shared else np.asarray)))
        level = 0
        for j in order:
            pt = points[j]
            if ps[level] != pt.p:
                level = ps.index(pt.p)
                _narrow(chunks, level)  # the sites open at ps[level]
            counted = chunks if shared else [c[:5] + [_quantiles(pt.dist, c[5])] for c in chunks]
            field, clamps = _firework(pt, len(part), counted, None if init is None else
                                      pt.dist.quantile_from_uniform(init[i:i + step]))
            del counted
            mask = field < pt.k
            del field  # not held while the next point is counted
            out[i:i + step, j] = _records(mask, clamps, idx)
            # nor is the mask: held, it put the 2D n=2000 p-scan's peak 12% higher
            del mask
        del chunks  # nor are the sources while the next group draws


def _sources(chunks):
    """The sources of _draws' chunks, every site of top a source, as [t0, r0,
    shape, flat indices, levels, radii], what _firework reads: the flat
    indices are into the chunk's (trials, rows, ...) shape, row-major as
    np.flatnonzero gives them, and levels are act's (None if act is top, the
    open bits)."""
    for t0, r0, act, top, radii in chunks:
        yield [t0, r0, top.shape, np.flatnonzero(top), None if act is top else act, radii]


def _narrow(chunks: list, level: int) -> None:
    """Keep, in place, the sources of _sources' chunks whose level passes level;
    each chunk's larger arrays go as it narrows."""
    for chunk in chunks:
        keep = chunk[4] > level
        # compress: ~3x faster than a bool index at scattered keeps
        for a in range(3, 6):
            chunk[a] = chunk[a].compress(keep)


def _quantiles(law: TailDistribution, u: np.ndarray) -> np.ndarray:
    """law's radii of uniforms u, a _SOURCE_BLOCK at a time, so the quantile's
    temporaries stay near one block's whatever the window."""
    out = np.empty(len(u), np.int64)
    for a in range(0, len(u), _SOURCE_BLOCK):
        out[a:a + _SOURCE_BLOCK] = law.quantile_from_uniform(u[a:a + _SOURCE_BLOCK])
    return out


def _records(mask: np.ndarray, clamps, idx) -> np.ndarray:
    """Summary records of (trials, n, ...) under-covered masks and their clamp counts.

    last is (worst + 1) / n: 0 when a 1D window is fully covered, 1 when
    even a 2D window's far corner fails.
    """
    window = tuple(range(1, mask.ndim))
    out = np.empty(len(mask), _summary_dtype(len(idx[0])))
    out["bits"] = mask[(slice(None),) + idx]
    out["fraction"] = mask.mean(axis=window)
    out["last"] = (_worst(mask) + 1) / mask.shape[1]
    out["clamp"] = clamps
    return out


def run_trials(fn, jobs, trials: int, workers: int, dtype) -> list[np.ndarray]:
    """Per-trial results of fn for each job, as arrays of dtype in trial order.

    A job is (config, key, extra); fn(config, seeds, *extra) returns the
    records (an array of dtype) of the trials on seeds, a uint64 array
    holding mix64(config.seed, *key, t) for a range of trials t, so each
    record depends on the job and t alone, not on chunking or workers.  Each
    job's trials are cut into chunks, and the chunks of all jobs share one
    fork pool of min(workers, chunks, usable CPUs) processes, fewer if the
    results and one trial_bytes() per process would pass the memory budget.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    dtype = np.dtype(dtype)
    trial = max([config.trial_bytes() for config, _, _ in jobs], default=1)
    spare = check_bytes(len(jobs) * trials * dtype.itemsize + trial,
                        f"{len(jobs)} x {trials} trials need bytes of results and one trial's")
    workers = max(1, min(workers, len(os.sched_getaffinity(0)), 1 + int(spare // trial)))
    per = math.ceil(trials / workers)
    chunks = [(job, t0, min(trials, t0 + per)) for job in jobs for t0 in range(0, trials, per)]
    workers = min(workers, len(chunks))
    if workers <= 1:
        parts = [_trial_range(fn, *chunk) for chunk in chunks]
    else:
        import multiprocessing

        # make_rng's first call imports numpy.random (and OpenSSL with it):
        # imported here, before the fork, every worker shares its pages
        import numpy.random  # noqa: F401

        ctx = multiprocessing.get_context("fork")
        # read through the module, where tests and tracers may replace it
        pool_class = sys.modules[__name__].ProcessPoolExecutor
        with pool_class(max_workers=workers, mp_context=ctx) as pool:
            futures = [pool.submit(_trial_range, fn, *chunk) for chunk in chunks]
            parts = [f.result() for f in futures]
    flat = np.concatenate([np.empty(0, dtype), *parts])  # each job's trials, in order
    return [flat[i:i + trials] for i in range(0, len(flat), trials)]


def __getattr__(name):
    # the process pool is imported on first use: --workers 1 never forks
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _trial_range(fn, job, t0: int, t1: int) -> np.ndarray:
    """Results of trials t0..t1-1 of one job."""
    config, key, extra = job
    seeds = mix64(config.seed, *key, np.arange(t0, t1, dtype=np.uint64))
    return fn(config, seeds, *extra)


def estimate_under_coverage(config: LatticeConfig, sites, trials: int,
                            workers: int = 1) -> list[SiteEstimate]:
    """Monte Carlo under-coverage frequency per site with 99% Wilson intervals,
    from the trials of simulate_window, so independent of chunking and workers."""
    return simulate_window(config, trials, workers, list(sites)).sites


def simulate_windows(configs, trials: int, workers: int = 1, sites=None) -> list[WindowStats]:
    """WindowStats of each config; trial t of each runs on mix64(config.seed, t).

    Every config's trials run in one run_trials call, so they share one pool.
    Firework configs that share one window (_window), the points of a p or
    beta scan, are one job: each trial's window is drawn once for all of
    them (_firework_points).  Any other configs run a job each; a reverse
    point stays alone, as a streamed reverse trial of several points would
    hold a prefix buffer per point.  With sites, the same trials also give
    the per-site estimates of estimate_under_coverage (in WindowStats.sites),
    so each trial's field is built once.
    """
    configs, site_list = list(configs), [] if sites is None else list(sites)
    grid = len({_window(config) for config in configs}) == 1 and configs[0].model == FIREWORK
    groups = [configs] if grid else [[config] for config in configs]
    # every config validates its sites before any trial; a grid's points share
    # their window, so they share their site indices
    jobs = [(max(group, key=lambda c: c.p), (), (_site_indices(group[0], site_list), tuple(group)))
            for group in groups]
    dtype = np.dtype((_summary_dtype(len(site_list)), (len(groups[0]) if groups else 1,)))
    results = run_trials(_summaries, jobs, trials, workers, dtype)
    return [WindowStats(r["fraction"], r["last"], int(r["clamp"].sum()),
                        None if sites is None else _site_estimates(site_list, r["bits"], trials))
            for point in results for r in point.T]


def _window(config: LatticeConfig) -> tuple:
    """What config's window stream depends on, and what its counts share with
    other configs: everything but p, the radius law and k."""
    return (config.dimension, config.model, config.n, config.seed, config.cushion,
            config.include_initiators)


def simulate_window(config: LatticeConfig, trials: int, workers: int = 1,
                    sites=None) -> WindowStats:
    """Whole-window under-coverage summaries per trial; simulate_windows of one config."""
    return simulate_windows([config], trials, workers, sites)[0]


def _site_estimates(sites, bits, trials: int) -> list[SiteEstimate]:
    """99% Wilson estimates from each trial's under-covered bits at the sites."""
    under = np.count_nonzero(bits, axis=0)
    out = []
    for s, u in zip(sites, under.tolist()):
        lo, hi = wilson_interval(u, trials)
        out.append(SiteEstimate(s, trials, u, u / trials, lo, hi))
    return out
