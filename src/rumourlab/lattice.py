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
stream, and one box_counts call with a leading trial axis counts every
trial's field.  _firework counts cover blocks.  In _membership the open bits
fill an int32 prefix grid per trial over sites [-1..m]^d, each source's
block count is the signed sum of that grid at the block's 2^d corners, and
the qualifying blocks are marked.  A realization feeds either body as the
chunks of one trial, in the row blocks of realize (firework_counts,
reverse_membership).

One producer, _draws(config, seeds, select), lays out the window stream:
chunks (first trial, first row, open bits, selected open sites, their
radii) of the trials on seeds, the trials of a window of at most
_BATCH_MAX_CELLS extent cells in one chunk drawn at once by stats.uniforms,
with every open site selected, any other window trial by trial, each
chunk's uniforms in row pieces through one reused buffer.  realize reads
it, and so does every trial, which never realizes.  A streamed reverse
trial of several row blocks draws its next chunk on one helper thread
while it counts the current one; the helper draws every chunk in order
from the one generator, so no value depends on timing, and it is joined
before the trial returns.
One trial engine, run_trials, seeds, chunks and pools the trials of the
lattice (simulate_window) and of the continuum (scan_lambda, the continuum
command): fn(config, seeds, *extra) returns numeric records for a chunk of
trial seeds.  A lattice trial's summary comes from _summaries and one
reduction, _records, over groups of ~_BATCH_CELLS extent cells: a firework
group is counted by _firework, and a reverse group streams
(_stream_reverse): outside a batch, only open sites that can reach the
reported window or clamp are sources and get radii, so a large trial needs
~4 bytes per extent cell.  stats.uniforms draws every initiator radius too.
Each record is thus bit-identical to the one-trial path, firework_counts
or reverse_membership of realize(config).  NumPy's NEP 19 does not freeze
its generator streams; the tests pin uniforms to Generator(PCG64(seed)) so
that a NumPy release that changes them fails loudly.
LatticeConfig.trial_bytes estimates one group's peak; a config whose
estimate passes the memory budget, stats.MAX_BYTES, is refused, and
run_trials runs no more processes than the budget holds.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import multiprocessing
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

FIREWORK = "firework"
REVERSE = "reverseFirework"
_MODELS = (FIREWORK, REVERSE)

# transient bytes per source of a chunk while it is counted: its coordinates,
# stops, corner indices and masks (tracemalloc peaks of one trial less its
# grids and draws, 1D and 2D: at most 73 firework, 142 reverse, and 183 while
# a streamed reverse trial's helper draws the next chunk)
_SOURCE_BYTES = {FIREWORK: 96, REVERSE: 256}

# bytes of a trial that do not grow with its window: the reused piece buffer
# (2 MiB) and a group of small windows' trials (~1 MiB at _BATCH_CELLS)
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
        over it, and the transients of the expected open sites of one chunk.
        Firework: the group's drawn chunks (1 byte per cell, 8 per open site).
        Streamed reverse: the int32 prefix grid over [-1..m]^d, the survival
        bounds (~41 bytes per axis site while they are computed, traced) and
        two pairs of row-block bit buffers.
        A chunk has at most max(_CHUNK_CELLS, one row) cells.  Exact
        arithmetic, so no window is too large to be refused.
        """
        m, n, d, p = self.extent(), self.n, self.dimension, Fraction(self.p)
        chunk = min(m ** d, max(_CHUNK_CELLS, m ** (d - 1)))
        own = _TRIAL_OVERHEAD + (m ** d + 8 * math.ceil(p * m ** d) if self.model == FIREWORK
                                 else 4 * (m + 3) ** d + 64 * m + 4 * chunk)
        return own + 6 * (n + 1) ** d + math.ceil(p * chunk) * _SOURCE_BYTES[self.model]


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
    # chunk parts and joined), with a third copy's margin for one piece's quantiles
    cells = config.extent() ** config.dimension
    check_bytes(2 * cells + 24 * math.ceil(Fraction(config.p) * cells) + _TRIAL_OVERHEAD,
                f"realizing a window of {cells} cells")
    activation = np.empty((config.extent(),) * config.dimension, dtype=bool)
    radii_parts = []
    seed = np.array([config.seed % 2**64], dtype=np.uint64)  # masked as make_rng masks it
    for _, r0, (act,), _, radii in _draws(config, seed):
        activation[r0:r0 + len(act)] = act
        radii_parts.append(radii)
    radii = np.concatenate(radii_parts)
    init = _initiator_radii(config.dist, seed)[0] if config.include_initiators else None
    return Realization(config, activation, radii, init)


def _row_blocks(m: int, dimension: int) -> list:
    """Leading-axis ranges [r0, r1) of the RNG chunks: ~_CHUNK_CELLS cells, whole rows in 2D."""
    step = _CHUNK_CELLS if dimension == 1 else max(1, _CHUNK_CELLS // m)
    return [(r0, min(m, r0 + step)) for r0 in range(0, m, step)]


def _draws(config: LatticeConfig, seeds: np.ndarray, select=None, buffers=None):
    """The window stream of the trials on seeds (uint64), chunk by chunk.

    Yields (t0, r0, open bits, selected, radii) of trials t0.. over extent
    rows r0.. (0-based): the open bits and the mask of the selected open
    sites, each a (trials, rows, ...) array, and the radii of the selected
    sites in row-major order.  Every open site is selected unless select is
    given: select(r, u) is the mask of the sites of extent rows r.. to keep,
    from their radius uniforms u in (0, 1]; a batch of trials (below) ignores
    select, as every open site is a source there.

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
    if _batched(config) and len(seeds) > 1:
        draws = uniforms(mix64(seeds, _STREAM_WINDOW), 2 * m**d).reshape((len(seeds), 2) + (m,) * d)
        act = draws[:, 0] < config.p
        yield 0, 0, act, act, config.dist.quantile_from_uniform(np.subtract(1.0, draws[:, 1][act]))
        return
    blocks = _row_blocks(m, d)
    row = (m,) * (d - 1)
    piece = max(1, _PIECE_CELLS // m ** (d - 1))  # rows
    buf = np.empty((min(piece, blocks[0][1]),) + row)
    pairs = itertools.cycle(buffers or ())
    for t, seed in enumerate(seeds.tolist()):
        rng = make_rng(seed, _STREAM_WINDOW)
        for r0, r1 in blocks:
            if buffers is None:
                act = np.empty((1, r1 - r0) + row, bool)
                sel = act if select is None else np.empty_like(act)
            else:
                act, sel = (b[:, :r1 - r0] for b in next(pairs))
            pieces = [(a, min(a + piece, r1 - r0)) for a in range(0, r1 - r0, piece)]
            for a, b in pieces:
                np.less(rng.random(out=buf[:b - a]), config.p, out=act[0, a:b])
            radii = []
            for a, b in pieces:
                u = np.subtract(1.0, rng.random(out=buf[:b - a]), out=buf[:b - a])
                if select is not None:
                    np.logical_and(select(r0 + a, u), act[0, a:b], out=sel[0, a:b])
                radii.append(config.dist.quantile_from_uniform(u[sel[0, a:b]]))
            yield t, r0, act, sel, radii[0] if len(radii) == 1 else np.concatenate(radii)


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


def _sites(t0: int, r0: int, bits: np.ndarray):
    """(trial, per-axis 0-based extent coordinates) of the set bits of a chunk of
    trials t0.. over rows r0..; a one-trial chunk keeps a scalar trial index,
    so no index array per site is built."""
    flat = np.flatnonzero(bits)
    trial, flat = divmod(flat, bits[0].size) if len(bits) > 1 else (0, flat)
    sites = list(divmod(flat, bits.shape[-1])) if bits.ndim > 2 else [flat]
    sites[0] += r0
    return trial + t0, sites


def _initiator_radii(dist: TailDistribution, seeds: np.ndarray) -> np.ndarray:
    """(trials, 2) radii of sites -1 and 0 of the trials on seeds (uint64), each
    from its trial's own initiator stream, as make_rng(seed, 2) draws it."""
    u = np.subtract(1.0, uniforms(mix64(seeds, _STREAM_INITIATORS), 2))
    return dist.quantile_from_uniform(u)


def box_counts(m: int, d: int, batches, trials: int | None = None) -> np.ndarray:
    """Per-cell counts over [0, m)^d of boxes prod [lo[axis], stop[axis]).

    batches yields (lo, stop), one index array per axis each, 0 <= lo <= stop
    <= m.  Boxes add their 2^d signed corners to the flat view of one int32
    grid of (m+1)^d cells (int32 signs keep np.add.at on its fast path);
    in-place prefix sums then leave the counts, exact below 2^31 per cell.
    With trials, the grid gets a leading axis of that many trials' grids,
    batches yield (lo, stop, trial) with each box's trial index (or one int
    for all of a batch's boxes), and the prefix sums run along the window
    axes only, so no count crosses trials.
    """
    lead = () if trials is None else (trials,)
    grid = np.zeros(lead + (m + 1,) * d, dtype=np.int32)
    flat = grid.reshape(-1)
    for lo, stop, *trial in batches:
        # a trial index is one more leading coordinate of each corner
        base = trial[0] * (m + 1) if trial else 0
        for sign, idx in _corners(lo, stop, m + 1, base):
            np.add.at(flat, idx, sign)
    np.add.accumulate(grid, axis=-1, out=grid)
    if d == 2:
        _add_down(grid, d)
    return grid[(...,) + (slice(0, m),) * d]


def _corners(lo, stop, w: int, base=0):
    """(sign, flat index into a grid of side w) of the boxes' 2^d corners.

    base, if given, is the boxes' leading coordinate times w.  One corner at
    a time, so at most one index array per axis is alive.
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
    counts, clamps = _firework(cfg, 1, _realized_chunks(realization),
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

    chunks are _draws' (t0, r0, open bits, sources, radii), every open site a
    source.  initiator_radii is None or the (trials, 2) radii of sites -1 and
    0 (1D), which cover sites 1..site+r: blocks from index 0 with radius
    max(site+r, 0) - 1 (-1 for an empty one).
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
        for t0, r0, _, sources, radii in chunks:
            yield boxes(*_sites(t0, r0, sources), radii)
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
    sites = np.arange(1, cfg.extent() + 1, dtype=np.int64)
    return (_SURVIVAL_SLACK * cfg.dist.survival_vec(sites - cfg.n + 1),
            _SURVIVAL_SLACK * cfg.dist.survival_vec(sites + 2))


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
    with ThreadPoolExecutor(1) as helper:
        chunks = _ahead(helper, _draws(cfg, seeds, candidates, pairs))
        return _membership(cfg, cfg.k, len(seeds), chunks, initiator_radii)


def _prefix_rows(S: np.ndarray, r0: int, act: np.ndarray) -> None:
    """Fill the prefix rows of window rows r0.. (0-based) from their open bits.

    S and act have the same leading trial axis.  The rows above must be
    final and these rows still zero; cumulating down from the row above adds
    its prefix to these rows' own.
    """
    block = S[:, r0 + 2:r0 + 3 + act.shape[1]]
    own = block[(slice(None), slice(1, None)) + (slice(3, None),) * (act.ndim - 2)]
    own[...] = act
    for axis in range(2, act.ndim):
        np.add.accumulate(own, axis=axis, out=own)
    _add_down(block, act.ndim - 1)


def _membership(cfg: LatticeConfig, k: int, trials: int, chunks, initiator_radii):
    """Reverse k-sceptic indicators (trials, n, ...) uint8 over [0, n-1]^d and clamps (trials,).

    chunks are _draws' (t0, r0, open bits, sources, radii), each trial's in
    row order.  The open bits fill an int32 prefix grid S per trial, so a
    source's block count is the signed sum of S at the block's 2^d corners.
    A source qualifies when its block prod [x - rad, x] holds at least k
    other open sites; the initiators count as sources, with initiator_radii
    None or the trials' (trials, 2) radii.  Every clamped source is counted,
    reaching the window or not.  One box_counts call with a leading trial
    axis marks every trial's qualifying blocks.
    """
    n, d = cfg.n, cfg.dimension
    # S[t, a+2] (1D) or S[t, a+2, b+2] (2D) will hold the number of open
    # sites of trial t in [-1..a] or [-1..a] x [-1..b]; _prefix_rows fills
    # the extent rows in order.  The initiators sit on the diagonal at
    # (-1,..,-1) and (0,..,0) and count from index 1 and 2 on every axis;
    # only their rows 1 and 2 are set here, and _prefix_rows adds them down
    # into the extent rows.
    S = np.zeros((trials,) + (cfg.extent() + 3,) * d, dtype=np.int32)
    if initiator_radii is not None:
        for i in (1, 2):
            S[(slice(None), slice(i, 3)) + (slice(i, None),) * (d - 1)] += 1
    flat, w = S.reshape(-1), S.shape[-1]
    clamps = np.zeros(trials, dtype=np.int64)

    def qualifying(trial, x, rad):
        """Qualifying blocks of the sources at site coordinates x, clipped to the window."""
        over = rad > functools.reduce(np.minimum, x) + 1
        _tally(clamps, trial, over)
        reach = rad >= functools.reduce(np.maximum, x) - n + 1
        x, rad = [c[reach] for c in x], rad[reach]
        per_source = isinstance(trial, np.ndarray)  # else one trial for all
        trial = trial[reach] if per_source else trial
        lo = [np.maximum(c - rad, -1) for c in x]
        # open sites in the block: the prefix grid's signed corner sum,
        # with the top corner x+2 in _corners' lo slot and lo+1 in stop;
        # int32 wraps in between, so the sum is exact as S's entries are
        corners = _corners([c + 2 for c in x], [c + 1 for c in lo], w, trial * w)
        in_block = sum(sign * flat[idx] for sign, idx in corners)
        qualify = in_block - 1 >= k
        # qualifying blocks clipped to the report window, empty ones dropped
        a = [np.maximum(c[qualify], 0) for c in lo]
        s = [np.minimum(c[qualify] + 1, n) for c in x]
        keep = functools.reduce(np.logical_and, map(np.less, a, s))
        return (tuple(c[keep] for c in a), tuple(c[keep] for c in s),
                trial[qualify][keep] if per_source else trial)

    def blocks():
        for t0, r0, act, sources, radii in chunks:
            _prefix_rows(S[t0:t0 + len(act)], r0, act)  # S is final through the chunk's rows
            trial, x = _sites(t0, r0, sources)
            out = qualifying(trial, [c + 1 for c in x], radii)  # 1-based sites
            # the sources' coordinates and radii are not held while the
            # next chunk is drawn or counted
            del act, sources, radii, x
            yield out
        if initiator_radii is not None:
            sites = np.tile(_INITIATOR_SITES, trials)
            yield qualifying(np.repeat(np.arange(trials), 2), [sites] * d,
                             initiator_radii.reshape(-1))

    return (box_counts(n, d, blocks(), trials) > 0).view(np.uint8), clamps


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


def _summaries(config: LatticeConfig, seeds: np.ndarray, idx) -> np.ndarray:
    """Summary records of the trials on seeds (a uint64 array), in seed order.

    Trials go in groups of ~_BATCH_CELLS extent cells through their model's
    counting body, _firework or _stream_reverse, and one reduction, _records,
    so a record does not depend on its mask's source.  Every trial's
    initiator radii come from one _initiator_radii call.
    """
    out = np.empty(len(seeds), _summary_dtype(len(idx[0])))
    init = _initiator_radii(config.dist, seeds) if config.include_initiators else None
    bounds = _survival_bounds(config) if config.model == REVERSE else None
    step = max(1, _BATCH_CELLS // config.extent() ** config.dimension)
    for i in range(0, len(seeds), step):
        part, part_init = seeds[i:i + step], None if init is None else init[i:i + step]
        if bounds is None:
            # the group is drawn before _firework allocates its grid, so no
            # draw buffer is alive while the fields are counted
            field, clamps = _firework(config, len(part), list(_draws(config, part)), part_init)
        else:
            field, clamps = _stream_reverse(config, part, bounds, part_init)
        # a membership field is under-covered where it is 0
        mask = field < (config.k if bounds is None else 1)
        del field  # not held while the next group draws
        out[i:i + step] = _records(mask, clamps, idx)
        del mask  # nor is the mask: held, it put the 2D n=2000 p-scan's peak 12% higher
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
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            futures = [pool.submit(_trial_range, fn, *chunk) for chunk in chunks]
            parts = [f.result() for f in futures]
    flat = np.concatenate([np.empty(0, dtype), *parts])  # each job's trials, in order
    return [flat[i:i + trials] for i in range(0, len(flat), trials)]


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


def simulate_window(config: LatticeConfig, trials: int, workers: int = 1,
                    sites=None) -> WindowStats:
    """Whole-window under-coverage summaries per trial; trial t runs on mix64(config.seed, t).

    With sites, the same trials also give the per-site estimates of
    estimate_under_coverage (in WindowStats.sites), so each trial's field is
    built once.
    """
    site_list = [] if sites is None else list(sites)
    idx = _site_indices(config, site_list)  # validates before any work
    [results] = run_trials(_summaries, [(config, (), (idx,))], trials, workers,
                           _summary_dtype(len(site_list)))
    estimates = None if sites is None else _site_estimates(site_list, results["bits"], trials)
    return WindowStats(results["fraction"], results["last"], int(results["clamp"].sum()),
                       estimates)


def _site_estimates(sites, bits, trials: int) -> list[SiteEstimate]:
    """99% Wilson estimates from each trial's under-covered bits at the sites."""
    under = np.count_nonzero(bits, axis=0)
    out = []
    for s, u in zip(sites, under.tolist()):
        lo, hi = wilson_interval(u, trials)
        out.append(SiteEstimate(s, trials, u, u / trials, lo, hi))
    return out
