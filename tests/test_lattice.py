import itertools
import math
import threading
import tracemalloc
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import rumourlab.lattice as lat
from rumourlab.cli import main
from rumourlab.distributions import Constant, Geometric, ParetoTail, PowerTail, Truncated
from rumourlab.lattice import (
    FIREWORK,
    REVERSE,
    CoverageField,
    LatticeConfig,
    Realization,
    WindowOverflowError,
    estimate_under_coverage,
    firework_counts,
    last_under_covered,
    realize,
    reverse_membership,
    simulate_window,
)
from rumourlab.stats import make_rng, mix64

C1 = Constant(1)
GEO = Geometric(0.5)


def cfg(model=FIREWORK, dim=1, p=0.5, k=2, n=8, dist=GEO, seed=0, cushion=1, initiators=False):
    return LatticeConfig(dim, model, p, k, n, dist, seed, cushion, initiators)


def sources_of(r: Realization):
    """(site, radius) pairs including initiators, any dimension."""
    out = []
    if r.config.dimension == 1:
        for idx, rad in zip(np.flatnonzero(r.activation), r.radii):
            out.append((int(idx) + 1, int(rad)))
        if r.initiator_radii is not None:
            out.append((-1, int(r.initiator_radii[0])))
            out.append((0, int(r.initiator_radii[1])))
    else:
        rows, cols = np.nonzero(r.activation)
        for a, b, rad in zip(rows, cols, r.radii):
            out.append(((int(a) + 1, int(b) + 1), int(rad)))
        if r.initiator_radii is not None:
            out.append(((-1, -1), int(r.initiator_radii[0])))
            out.append(((0, 0), int(r.initiator_radii[1])))
    return out


def brute_firework_counts(r: Realization):
    """Definition-level recount of covering sources per reported site."""
    n = r.config.n
    srcs = sources_of(r)
    if r.config.dimension == 1:
        return np.array(
            [sum(1 for s, rad in srcs if s <= x <= s + rad) for x in range(1, n + 1)]
        )
    grid = np.zeros((n, n), dtype=int)
    for x1 in range(1, n + 1):
        for x2 in range(1, n + 1):
            grid[x1 - 1, x2 - 1] = sum(
                1
                for (s1, s2), rad in srcs
                if s1 <= x1 <= s1 + rad and s2 <= x2 <= s2 + rad
            )
    return grid


def brute_reverse_membership(r: Realization, k: int):
    """Direct evaluation of the static listening definition."""
    n = r.config.n
    srcs = sources_of(r)
    if r.config.dimension == 1:
        out = np.zeros(n, dtype=int)
        for x in range(0, n):
            for i, rad in srcs:
                if i - rad <= x <= i:
                    others = sum(1 for j, _ in srcs if j != i and i - rad <= j <= i)
                    if others >= k:
                        out[x] = 1
                        break
        return out
    out = np.zeros((n, n), dtype=int)
    for x1 in range(0, n):
        for x2 in range(0, n):
            for (i1, i2), rad in srcs:
                if i1 - rad <= x1 <= i1 and i2 - rad <= x2 <= i2:
                    others = sum(
                        1
                        for (j1, j2), _ in srcs
                        if (j1, j2) != (i1, i2)
                        and i1 - rad <= j1 <= i1
                        and i2 - rad <= j2 <= i2
                    )
                    if others >= k:
                        out[x1, x2] = 1
                        break
    return out


class TestRealize:
    def test_p_extremes(self):
        r = realize(cfg(p=0.0, n=50))
        assert not r.activation.any() and r.radii.size == 0
        r = realize(cfg(p=1.0, n=50))
        assert r.activation.all() and r.radii.size == 50

    def test_determinism(self):
        a = realize(cfg(p=0.5, n=1000, seed=42))
        b = realize(cfg(p=0.5, n=1000, seed=42))
        np.testing.assert_array_equal(a.activation, b.activation)
        np.testing.assert_array_equal(a.radii, b.radii)

    def test_multi_chunk_window(self):
        # window spanning several RNG chunks stays aligned and deterministic
        import rumourlab.lattice as lat

        n = lat._CHUNK_CELLS + 1717
        a = realize(cfg(p=0.3, n=n, seed=9))
        b = realize(cfg(p=0.3, n=n, seed=9))
        assert a.radii.size == int(a.activation.sum())
        np.testing.assert_array_equal(a.activation, b.activation)
        np.testing.assert_array_equal(a.radii, b.radii)

    def test_one_chunk_holds_each_radius_once(self):
        # 2000^2 cells are one RNG chunk: its radii are returned as drawn, not
        # joined into a copy that would double the peak; the rest is the
        # chunk's bits and one piece's uniforms
        c = cfg(dim=2, n=2000, p=1.0, dist=Constant(2), seed=4)
        assert len(lat._row_blocks(c.extent(), 2)) == 1
        tracemalloc.start()
        try:
            r = realize(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (r.activation.nbytes + r.radii.nbytes)

    def test_2d_shapes(self):
        r = realize(cfg(dim=2, n=20, p=0.3, seed=5))
        assert r.activation.shape == (20, 20)
        assert r.radii.size == int(r.activation.sum())

    def test_initiators_drawn_independently(self):
        with_init = realize(cfg(p=0.5, n=64, seed=3, initiators=True))
        without = realize(cfg(p=0.5, n=64, seed=3, initiators=False))
        np.testing.assert_array_equal(with_init.activation, without.activation)
        np.testing.assert_array_equal(with_init.radii, without.radii)
        assert with_init.initiator_radii is not None and without.initiator_radii is None

    @pytest.mark.parametrize("seed", [-1, 0, 2**63, 2**64 - 1])
    def test_initiator_radii_are_the_make_rng_draws(self, seed):
        # one helper draws every initiator radius; a negative CLI seed is
        # masked to 64 bits before it becomes a uint64 array
        dist = ParetoTail(2.0**40)  # radii far apart for distinct uniforms
        want = dist.quantile_from_uniform(1.0 - make_rng(seed, 2).random(2))
        got = realize(cfg(p=0.0, n=4, dist=dist, seed=seed, initiators=True)).initiator_radii
        np.testing.assert_array_equal(got, want)
        seeds = np.array([seed % 2**64, 7], dtype=np.uint64)
        np.testing.assert_array_equal(lat._initiator_radii(dist, seeds)[0], want)

    def test_window_overflow(self):
        with pytest.raises(WindowOverflowError):
            LatticeConfig(2, REVERSE, 0.5, 2, 10**5, C1, 0, cushion=10)


class TestFireworkCounts:
    def test_hand_example(self):
        c = cfg(n=3, dist=C1)
        r = Realization(c, np.array([True, False, True]), np.array([2, 1], dtype=np.int64))
        np.testing.assert_array_equal(firework_counts(r).values, [1, 1, 2])

    def test_all_closed(self):
        r = realize(cfg(p=0.0, n=10))
        assert not firework_counts(r).values.any()

    def test_2d_single_block(self):
        c = cfg(dim=2, n=3, dist=C1)
        act = np.zeros((3, 3), dtype=bool)
        act[0, 0] = True
        r = Realization(c, act, np.array([1], dtype=np.int64))
        want = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]])
        np.testing.assert_array_equal(firework_counts(r).values, want)

    @pytest.mark.parametrize("dim,n,p,seed", [(1, 17, 0.4, 0), (1, 9, 0.9, 1),
                                              (2, 7, 0.35, 2), (2, 5, 0.8, 3)])
    def test_against_brute_force(self, dim, n, p, seed):
        for initiators in (False, True) if dim == 1 else (False,):
            r = realize(cfg(dim=dim, n=n, p=p, seed=seed, dist=GEO, initiators=initiators))
            got = firework_counts(r).values
            np.testing.assert_array_equal(got, brute_firework_counts(r))

    def test_clamp_counted(self):
        c = cfg(n=3, dist=Constant(10), p=1.0)
        r = realize(c)
        assert firework_counts(r).clamp_count == 3


def brute_box_counts(m: int, d: int, boxes):
    """Cells of [0, m)^d inside each box ((lo, stop) per axis), counted box by box."""
    out = np.zeros((m,) * d, dtype=np.int64)
    for box in boxes:
        out[tuple(slice(lo, stop) for lo, stop in box)] += 1
    return out


class TestBoxCounts:
    @given(st.data(), st.sampled_from([1, 2]), st.integers(1, 12), st.sampled_from([0, 512]))
    @settings(max_examples=300)
    def test_matches_brute_force(self, data, d, m, width):
        # edges drawn often so boxes touch the window's sides; repeats add
        # duplicate boxes; two batches go into one grid; width 0 sends the
        # axis-0 prefix down the row-by-row branch
        edge = st.integers(0, m) | st.sampled_from([0, m])
        axis = st.tuples(edge, edge).map(sorted)
        boxes = data.draw(st.lists(st.tuples(*[axis] * d), max_size=12))
        if boxes:
            boxes += data.draw(st.lists(st.sampled_from(boxes), max_size=4))
        split = data.draw(st.integers(0, len(boxes)))
        batches = [
            (tuple(np.array([b[ax][0] for b in batch], dtype=np.int64) for ax in range(d)),
             tuple(np.array([b[ax][1] for b in batch], dtype=np.int64) for ax in range(d)),
             0)
            for batch in (boxes[:split], boxes[split:])
        ]
        with patch.object(lat, "_ACCUMULATE_MAX_WIDTH", width):
            [counts] = lat.box_counts(m, d, iter(batches), trials=1)
        assert counts.dtype == np.int32 and counts.shape == (m,) * d
        np.testing.assert_array_equal(counts, brute_box_counts(m, d, boxes))

    @given(st.data(), st.sampled_from([1, 2]), st.integers(1, 9), st.integers(1, 5),
           st.sampled_from([0, 512]))
    @settings(max_examples=200)
    def test_trial_axis_keeps_trials_apart(self, data, d, m, trials, width):
        # boxes of several trials in one batch, each touching its grid's far
        # edges often, so a prefix sum running across trials would show
        edge = st.integers(0, m) | st.sampled_from([0, m])
        axis = st.tuples(edge, edge).map(sorted)
        boxes = data.draw(st.lists(st.tuples(st.integers(0, trials - 1), *[axis] * d),
                                   max_size=15))
        batch = (tuple(np.array([b[1 + ax][0] for b in boxes], dtype=np.int64)
                       for ax in range(d)),
                 tuple(np.array([b[1 + ax][1] for b in boxes], dtype=np.int64)
                       for ax in range(d)),
                 np.array([b[0] for b in boxes], dtype=np.int64))
        with patch.object(lat, "_ACCUMULATE_MAX_WIDTH", width):
            counts = lat.box_counts(m, d, [batch], trials=trials)
        assert counts.dtype == np.int32 and counts.shape == (trials,) + (m,) * d
        for t in range(trials):
            np.testing.assert_array_equal(
                counts[t], brute_box_counts(m, d, [b[1:] for b in boxes if b[0] == t]))

    def test_firework_rows_row_by_row(self, monkeypatch):
        monkeypatch.setattr(lat, "_ACCUMULATE_MAX_WIDTH", 0)
        r = realize(cfg(dim=2, n=9, p=0.4, seed=4, dist=GEO))
        np.testing.assert_array_equal(firework_counts(r).values, brute_firework_counts(r))


class TestReverseMembership:
    def test_hand_example_initiators(self):
        c = cfg(model=REVERSE, n=3, dist=Constant(3), initiators=True)
        act = np.array([False, True, False])
        r = Realization(c, act, np.array([3], dtype=np.int64),
                        initiator_radii=np.array([0, 0], dtype=np.int64))
        np.testing.assert_array_equal(reverse_membership(r, 2).values, [1, 1, 1])

    def test_hand_example_radius_too_small(self):
        c = cfg(model=REVERSE, n=3, dist=C1, initiators=True)
        act = np.array([False, True, False])
        r = Realization(c, act, np.array([1], dtype=np.int64),
                        initiator_radii=np.array([0, 0], dtype=np.int64))
        np.testing.assert_array_equal(reverse_membership(r, 2).values, [0, 0, 0])

    def test_k0_is_plain_coverage(self):
        for seed, initiators in ((0, False), (1, False), (2, False), (3, False), (4, True)):
            r = realize(cfg(model=REVERSE, n=10, cushion=2, p=0.5, seed=seed,
                            initiators=initiators))
            got = reverse_membership(r, 0).values
            np.testing.assert_array_equal(got, brute_reverse_membership(r, 0))

    @pytest.mark.parametrize("dim,n,p,seed,initiators", [
        (1, 12, 0.5, 0, False),
        (1, 8, 0.7, 1, True),
        (1, 15, 0.3, 2, True),
        (2, 6, 0.5, 3, False),
        (2, 5, 0.6, 4, True),
        (2, 4, 0.9, 5, True),
    ])
    def test_against_brute_force(self, dim, n, p, seed, initiators):
        for k in (0, 1, 2, 3):
            r = realize(cfg(model=REVERSE, dim=dim, n=n, cushion=2, p=p, seed=seed,
                            dist=GEO, initiators=initiators))
            got = reverse_membership(r, k).values
            np.testing.assert_array_equal(got, brute_reverse_membership(r, k))

    @pytest.mark.parametrize("chunk_cells,dim", [
        pytest.param(1, 2, id="1"), pytest.param(1 << 22, 2, id="4194304"),
        pytest.param(1, 1, id="1-dim1"), pytest.param(1 << 22, 1, id="4194304-dim1"),
    ])
    def test_against_brute_force_row_by_row(self, monkeypatch, chunk_cells, dim):
        # width 0 sends every 2D axis-0 prefix (the kernel's and the open-site
        # prefix grid's, one row block at a time) down the row-by-row branch;
        # one chunk cell splits a 1D extent into one-site chunks
        monkeypatch.setattr(lat, "_ACCUMULATE_MAX_WIDTH", 0)
        monkeypatch.setattr(lat, "_CHUNK_CELLS", chunk_cells)
        for seed, initiators in ((6, False), (7, True)):
            r = realize(cfg(model=REVERSE, dim=dim, n=5 if dim == 2 else 20, cushion=2,
                            p=0.6, seed=seed, dist=GEO, initiators=initiators))
            for k in (1, 2):
                want = brute_reverse_membership(r, k)
                np.testing.assert_array_equal(reverse_membership(r, k).values, want)
                np.testing.assert_array_equal(streamed(replace(r.config, k=k)).values, want)

    def test_nesting_in_k(self):
        for seed in range(5):
            r = realize(cfg(model=REVERSE, n=30, cushion=2, p=0.5, seed=seed))
            m1 = reverse_membership(r, 1).values
            m2 = reverse_membership(r, 2).values
            assert np.all(m2 <= m1)


class TestInvariants:
    def test_nesting_firework(self):
        # the doubly covered set sits inside the covered set
        for seed in range(5):
            f = firework_counts(realize(cfg(n=60, p=0.4, seed=seed)))
            assert np.all((f.values >= 2) <= (f.values >= 1))

    def test_monotone_coupling_in_p(self):
        for dim in (1, 2):
            lo = firework_counts(realize(cfg(dim=dim, n=20, p=0.3, seed=6)))
            hi = firework_counts(realize(cfg(dim=dim, n=20, p=0.6, seed=6)))
            assert np.all(hi.values >= lo.values)

    def test_initiator_locality(self):
        # beyond max(initiator radii) the counts agree realization by realization
        for seed in range(6):
            with_init = realize(cfg(n=40, p=0.5, seed=seed, dist=GEO, initiators=True))
            without = realize(cfg(n=40, p=0.5, seed=seed, dist=GEO, initiators=False))
            reach = int(max(with_init.initiator_radii[0] - 1, with_init.initiator_radii[1]))
            a = firework_counts(with_init).values
            b = firework_counts(without).values
            np.testing.assert_array_equal(a[reach:], b[reach:])


class TestLastUnderCovered:
    def test_all_zero(self):
        fld = CoverageField("counts", 1, 1, 4, np.zeros(4, dtype=int))
        assert last_under_covered(fld, 1) == 4

    def test_all_covered(self):
        fld = CoverageField("counts", 1, 1, 4, np.full(4, 5))
        assert last_under_covered(fld, 2) is None

    def test_scan_example(self):
        fld = CoverageField("counts", 1, 1, 4, np.array([2, 1, 2, 2]))
        assert last_under_covered(fld, 2) == 2

    def test_2d_clean_corner(self):
        vals = np.full((5, 5), 3)
        vals[2, 1] = 0  # bad site (3,2): min coordinate 2 blocks N0 <= 2
        fld = CoverageField("counts", 2, 1, 5, vals)
        assert last_under_covered(fld, 1) == 3

    def test_2d_no_bad(self):
        fld = CoverageField("counts", 2, 1, 5, np.full((5, 5), 3))
        assert last_under_covered(fld, 1) == 1

    def test_2d_corner_fails(self):
        vals = np.full((5, 5), 3)
        vals[4, 4] = 0
        fld = CoverageField("counts", 2, 1, 5, vals)
        assert last_under_covered(fld, 1) is None


def nonzero_last_under_covered(fld, k):
    """The 2D formula over np.nonzero of the whole mask, kept as the reference."""
    rows, cols = np.nonzero(fld.under_mask(k))
    if rows.size == 0:
        return fld.origin
    n0 = int(np.minimum(rows, cols).max()) + fld.origin + 1
    return None if n0 > fld.origin + fld.window - 1 else n0


class TestLastUnderCovered2D:
    # the row reductions against the nonzero formula, on small and large masks
    @pytest.mark.parametrize("n", [1, 2, 5, 32, 33, 47, 120])
    @pytest.mark.parametrize("kind", ["random", "sparse", "false", "true", "corner", "edge"])
    def test_matches_nonzero_formula(self, n, kind):
        rng = np.random.default_rng(n)
        for origin, fill in ((1, 3), (0, 1)):
            for trial in range(4):
                under = {
                    "random": rng.random((n, n)) < rng.random(),
                    "sparse": rng.random((n, n)) < 2.0 / (n * n),
                    "false": np.zeros((n, n), dtype=bool),
                    "true": np.ones((n, n), dtype=bool),
                    "corner": np.eye(n, dtype=bool)[::-1] & (rng.random((n, n)) < 0.5),
                    "edge": np.zeros((n, n), dtype=bool),
                }[kind]
                if kind == "edge":
                    under[rng.integers(n), n - 1] = True
                values = np.where(under, 0, fill)
                kind_name = "counts" if origin == 1 else "membership"
                fld = CoverageField(kind_name, 2, origin, n, values)
                k = fill if origin == 1 else 1
                want = nonzero_last_under_covered(fld, k)
                assert last_under_covered(fld, k) == want


class TestEstimate:
    def test_p0_trivial(self):
        est = estimate_under_coverage(cfg(p=0.0, k=1, n=6, seed=1), [3], 200)
        assert est[0].freq == 1.0

    def test_site_validation(self):
        with pytest.raises(ValueError, match=r"^site 7 outside reported window \[1, 6\]$"):
            estimate_under_coverage(cfg(n=6), [7], 10)
        with pytest.raises(ValueError, match=r"^site 6 outside reported window \[0, 5\]$"):
            estimate_under_coverage(cfg(model=REVERSE, n=6, cushion=2), [6], 10)
        with pytest.raises(ValueError,
                           match=r"^site \(2, 0\) outside reported window \[1, 6\]\^2$"):
            estimate_under_coverage(cfg(dim=2, n=6), [(1, 1), (2, 0)], 10)

    def test_site_shape_and_integrality(self, monkeypatch):
        # rejected before any trial runs, not truncated or failed on afterwards
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(lat, "run_trials", no_trials)
        with pytest.raises(ValueError, match=r"^site 2\.5 is not an integer$"):
            estimate_under_coverage(cfg(n=6), [2.5, 2], 500)
        with pytest.raises(ValueError, match=r"^site \(1, 2, 3\) is not a pair of integers$"):
            simulate_window(cfg(dim=2, n=6), 50, sites=[(1, 2, 3), (4, 5, 6)])
        for sites in ([3], [(1, 2.0)], [(4,)]):
            with pytest.raises(ValueError, match="is not a pair of integers"):
                simulate_window(cfg(dim=2, n=6), 50, sites=sites)
        with pytest.raises(ValueError, match="is not an integer"):
            simulate_window(cfg(n=6), 50, sites=[(3,)])

    def test_bool_site_rejected(self, monkeypatch):
        # bool is a numbers.Integral, but True is no site 1
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(lat, "run_trials", no_trials)
        with pytest.raises(ValueError, match=r"^site True is not an integer$"):
            simulate_window(cfg(n=6), 5, sites=[True])
        with pytest.raises(ValueError, match=r"^site \(1, False\) is not a pair of integers$"):
            estimate_under_coverage(cfg(dim=2, n=6), [(2, 2), (1, False)], 5)

    def test_interval_covers_exact(self):
        c = cfg(p=0.5, k=2, n=5, dist=C1, seed=77)
        est = estimate_under_coverage(c, [3], 40_000)[0]
        assert est.ci_low <= 0.75 <= est.ci_high

    def test_workers_bit_identical(self):
        c = cfg(p=0.5, k=2, n=5, dist=C1, seed=123)
        a = estimate_under_coverage(c, [2, 4], 4000, workers=1)
        b = estimate_under_coverage(c, [2, 4], 4000, workers=2)
        assert [(e.under_count, e.freq, e.ci_low, e.ci_high) for e in a] == [
            (e.under_count, e.freq, e.ci_low, e.ci_high) for e in b
        ]

    def test_workers_clamped_to_chunks_and_cpus(self, monkeypatch, inline_pools):
        monkeypatch.setattr(lat.os, "sched_getaffinity", lambda pid: set(range(4)))
        c = cfg(p=0.5, k=2, n=5, dist=C1, seed=123)
        want = estimate_under_coverage(c, [2, 4], 20, workers=1)
        for workers, trials, used in ((1000, 20, 4), (3, 20, 3), (1000, 2, 2)):
            inline_pools.clear()
            got = estimate_under_coverage(c, [2, 4], trials, workers=workers)
            assert [p.max_workers for p in inline_pools] == [used]
            if trials == 20:
                assert got == want
        monkeypatch.setattr(lat.os, "sched_getaffinity", lambda pid: {0})
        inline_pools.clear()
        assert estimate_under_coverage(c, [2, 4], 20, workers=1000) == want
        assert inline_pools == []

    def test_doubling_trials_halves_width(self):
        c = cfg(p=0.5, k=2, n=5, dist=C1, seed=99)
        w1 = estimate_under_coverage(c, [3], 40_000)[0]
        w2 = estimate_under_coverage(c, [3], 80_000)[0]
        ratio = (w2.ci_high - w2.ci_low) / (w1.ci_high - w1.ci_low)
        assert ratio == pytest.approx(1 / np.sqrt(2), rel=0.10)

    def test_reverse_estimates_membership_complement(self):
        c = cfg(model=REVERSE, p=0.9, k=1, n=4, cushion=3, dist=Constant(5),
                seed=5, initiators=True)
        est = estimate_under_coverage(c, [0, 3], 500)
        # constant radius 5 with initiators: listening blocks almost always
        # hold an open site; under-coverage should be rare
        assert est[0].freq < 0.2 and est[1].freq < 0.2


class TestSimulateWindow:
    def test_deterministic(self):
        c = cfg(p=0.6, n=30, seed=11)
        a = simulate_window(c, 50)
        b = simulate_window(c, 50, workers=2)
        np.testing.assert_array_equal(a.fractions, b.fractions)
        np.testing.assert_array_equal(a.last_normalized, b.last_normalized)
        assert a.clamp_count == b.clamp_count

    def test_full_cover_when_p1(self):
        c = cfg(p=1.0, k=1, n=12, dist=Constant(2), seed=2)
        stats = simulate_window(c, 5)
        assert np.all(stats.fractions == 0.0)
        assert np.all(stats.last_normalized == 0.0)


SEED_AND_JOB = np.dtype([("seed", np.uint64), ("job", np.int64)])


def seed_and_job(config, seeds, job):
    out = np.empty(len(seeds), SEED_AND_JOB)
    out["seed"], out["job"] = seeds, job
    return out


class TestRunTrials:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(trials=st.integers(1, 40), workers=st.integers(1, 8), cpus=st.integers(1, 4),
           keys=st.lists(st.lists(st.integers(0, 2**64 - 1), max_size=2).map(tuple),
                         max_size=3, unique=True))
    @example(trials=7, workers=4, cpus=4, keys=[])
    @example(trials=1, workers=8, cpus=4, keys=[()])
    def test_equals_serial_loop_with_one_clamped_pool(self, inline_pools, trials, workers,
                                                      cpus, keys):
        inline_pools.clear()
        jobs = [(cfg(seed=j), key, (j,)) for j, key in enumerate(keys)]
        with patch.object(lat.os, "sched_getaffinity", lambda pid: set(range(cpus))):
            got = lat.run_trials(seed_and_job, jobs, trials, workers, SEED_AND_JOB)
        want = [[(mix64(c.seed, *key, t), j) for t in range(trials)]
                for c, key, (j,) in jobs]
        assert all(results.dtype == SEED_AND_JOB for results in got)
        assert [results.tolist() for results in got] == want
        # each job's trials cut into chunks of ceil(trials / min(workers, cpus))
        per = math.ceil(trials / min(workers, cpus))
        chunks = len(jobs) * math.ceil(trials / per)
        used = min(workers, cpus, chunks)
        assert [(p.max_workers, p.tasks) for p in inline_pools] == (
            [(used, chunks)] if used > 1 else [])

    def test_trials_checked_once(self, inline_pools):
        for jobs in ([], [(cfg(), (), ())]):
            with pytest.raises(ValueError, match="trials must be >= 1"):
                lat.run_trials(seed_and_job, jobs, 0, 2, SEED_AND_JOB)
        assert inline_pools == []


# every law family, with power tails on both sides of the finite-mean line
TRIAL_LAWS = [
    ParetoTail(4.0),
    PowerTail(0.5),
    PowerTail(1.0),
    PowerTail(1.5),
    Geometric(0.5),
    Constant(0),
    Constant(3),
    Truncated(PowerTail(1.5), 4),
]


def assert_same_field(a: CoverageField, b: CoverageField):
    assert (a.kind, a.dimension, a.origin, a.window, a.threshold) == (
        b.kind, b.dimension, b.origin, b.window, b.threshold)
    assert a.values.dtype == b.values.dtype
    np.testing.assert_array_equal(a.values, b.values)
    assert a.clamp_count == b.clamp_count


def streamed(c: LatticeConfig) -> CoverageField:
    """The field of c's one trial on c.seed, streamed as a one-trial group."""
    seed = np.array([c.seed], dtype=np.uint64)
    init = lat._initiator_radii(c.dist, seed) if c.include_initiators else None
    values, clamps = lat._stream_reverse(c, seed, lat._survival_bounds(c), init)
    assert values.shape == (1,) + (c.n,) * c.dimension and clamps.shape == (1,)
    return CoverageField("membership", c.dimension, 0, c.n, values[0], int(clamps[0]),
                         threshold=c.k)


def public_records(c: LatticeConfig, seeds, idx) -> np.ndarray:
    """Summary records from the public API, one realized field per seed."""
    out = np.empty(len(seeds), lat._summary_dtype(len(idx[0])))
    for i, seed in enumerate(seeds.tolist()):
        r = realize(replace(c, seed=seed))
        fld = firework_counts(r) if c.model == FIREWORK else reverse_membership(r, c.k)
        mask = fld.under_mask(c.k)
        last = last_under_covered(fld, c.k if c.model == FIREWORK else 1)
        if fld.dimension == 1:  # None = fully covered
            norm = 0.0 if last is None else (last - fld.origin + 1) / fld.window
        else:  # None = even the far corner fails
            norm = 1.0 if last is None else (last - fld.origin) / fld.window
        out[i] = mask[idx], mask.mean(), norm, fld.clamp_count
    return out


class TestStreamedReverse:
    """Every reverse trial streams; its field must equal the realized path's.
    No trial of either model realizes its window."""

    @pytest.mark.parametrize("dist", TRIAL_LAWS, ids=lambda d: d.spec_string())
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_realized_membership(self, dist, dim):
        for n, p, k, initiators in [(1, 0.5, 1, True), (1, 1.0, 2, False), (4, 0.0, 1, True),
                                    (5, 0.5, 2, False), (6, 0.7, 3, True), (9, 1.0, 2, True),
                                    (40, 0.3, 2, True)]:
            for seed in range(2):
                c = cfg(model=REVERSE, dim=dim, n=n, cushion=3, p=p, k=k, dist=dist,
                        seed=seed, initiators=initiators)
                assert_same_field(streamed(c), reverse_membership(realize(c), k))

    @pytest.mark.parametrize("chunk_cells", [1, 7, 64])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_several_row_blocks(self, monkeypatch, chunk_cells, dim):
        # a tiny chunk splits the extent into many row blocks, down to one row
        monkeypatch.setattr(lat, "_CHUNK_CELLS", chunk_cells)
        for dist in (PowerTail(1.5), Geometric(0.5), ParetoTail(2.0)):
            for initiators in (False, True):
                c = cfg(model=REVERSE, dim=dim, n=7 if dim == 2 else 40, cushion=4, p=0.5,
                        k=2, dist=dist, seed=13, initiators=initiators)
                assert len(lat._row_blocks(c.extent(), dim)) > 1
                assert_same_field(streamed(c), reverse_membership(realize(c), 2))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_several_real_chunks(self, dim):
        c = cfg(model=REVERSE, dim=dim, n=700 if dim == 2 else 1_500_000, cushion=3, p=0.5,
                k=2, dist=PowerTail(1.5), seed=4, initiators=True)
        assert len(lat._row_blocks(c.extent(), dim)) > 1
        assert_same_field(streamed(c), reverse_membership(realize(c), 2))

    @pytest.mark.parametrize("model, dim, n, initiators", [
        (REVERSE, 1, 6, True), (REVERSE, 2, 6, True),
        # firework windows batched and, over _BATCH_MAX_CELLS, per trial
        (FIREWORK, 1, 9, True), (FIREWORK, 1, 300, True),
        (FIREWORK, 2, 5, False), (FIREWORK, 2, 20, False)])
    def test_trials_never_realize(self, monkeypatch, model, dim, n, initiators):
        # a trial reads the window stream itself and builds no config; the
        # summaries equal the records of the realized fields
        c = cfg(model=model, dim=dim, n=n, cushion=3, p=0.5, k=2, dist=PowerTail(1.5),
                seed=19, initiators=initiators)
        assert lat._batched(c) == (c.extent() ** dim <= lat._BATCH_MAX_CELLS)
        o = c.report_origin()
        sites = [o, 5] if dim == 1 else [(o, o), (5, 2)]
        seeds = mix64(c.seed, np.arange(12, dtype=np.uint64))
        want = public_records(c, seeds, lat._site_indices(c, sites))

        def fail(*args):
            raise AssertionError("a trial realized its window or rebuilt its config")

        monkeypatch.setattr(lat, "realize", fail)
        monkeypatch.setattr(LatticeConfig, "__post_init__", fail)
        stats = simulate_window(c, 12, sites=sites)
        np.testing.assert_array_equal(stats.fractions, want["fraction"])
        np.testing.assert_array_equal(stats.last_normalized, want["last"])
        assert stats.clamp_count == want["clamp"].sum()
        assert [e.under_count for e in stats.sites] == want["bits"].sum(axis=0).tolist()

    @given(
        st.one_of(
            st.floats(0.1, 20.0).map(ParetoTail),
            st.floats(0.1, 5.0).map(PowerTail),
            st.floats(0.05, 0.95).map(Geometric),
            st.integers(0, 50).map(Constant),
            st.tuples(st.floats(0.1, 5.0), st.integers(0, 30)).map(
                lambda t: Truncated(PowerTail(t[0]), t[1])),
        ),
        st.integers(-100, 50_000),
        st.floats(0.0, 1.0),
        st.one_of(st.none(), st.integers(-4, 4)),
    )
    @settings(max_examples=400)
    def test_candidate_bound_keeps_every_passing_source(self, dist, j, u, ulps):
        # The reach test (rad >= max(r,c)-n+1) and the clamp test
        # (rad >= min(r,c)+2) both read "rad >= j"; a source passing either
        # must lie below the slackened survival bound the stream filters on.
        # With ulps set, u sits that many ulps from G(j), where rounding bites.
        g = float(dist.survival_vec(np.array([j]))[0])
        if ulps is not None:
            u = g
            for _ in range(abs(ulps)):
                u = float(np.nextafter(u, 2.0 if ulps > 0 else 0.0))
        u = min(max(u, 2.0**-53), 1.0)  # the range of 1 - rng.random()
        rad = int(dist.quantile_from_uniform(np.array([u]))[0])
        if rad >= j:
            assert u < lat._SURVIVAL_SLACK * g


class TestOnePassSimulate:
    def test_sites_and_window_from_the_same_trials(self):
        for c, sites in ((cfg(p=0.5, k=2, n=9, seed=21), [1, 5, 9]),
                         (cfg(dim=2, p=0.4, k=1, n=5, dist=C1, seed=22), [(1, 1), (3, 4)]),
                         (cfg(model=REVERSE, dim=2, p=0.5, k=2, n=4, cushion=3, seed=23,
                              initiators=True), [(0, 0), (3, 1)])):
            both = simulate_window(c, 60, sites=sites)
            alone = simulate_window(c, 60)
            est = estimate_under_coverage(c, sites, 60)
            assert alone.sites is None
            assert both.sites == est
            np.testing.assert_array_equal(both.fractions, alone.fractions)
            np.testing.assert_array_equal(both.last_normalized, alone.last_normalized)
            assert both.clamp_count == alone.clamp_count

    def test_reverse_2d_cli_bytes_independent_of_workers(self, tmp_path):
        argv = ["simulate", "--model", "reverse", "--dim", "2", "--dist", "power:beta=1.5",
                "--p", "0.5", "--k", "2", "--n", "12", "--cushion", "3", "--initiators",
                "--trials", "9", "--sites", "0,0;5,7;11,11", "--seed", "41", "--csv", "--json"]
        outputs = []
        for workers in (1, 2):
            base = tmp_path / f"w{workers}"
            assert main(argv + ["--workers", str(workers), "--out", str(base)]) == 0
            outputs.append((base.with_suffix(".csv").read_bytes(),
                            base.with_suffix(".json").read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0].decode().splitlines()[1].startswith("0:0,")


class TestBatchedTrials:
    """Small windows of either model run their trials in batches; each batched
    record must equal the record of its seed on the forced per-trial path, one
    trial per group, bit for bit."""

    CAP_N = {1: lat._BATCH_MAX_CELLS, 2: math.isqrt(lat._BATCH_MAX_CELLS)}

    @staticmethod
    def per_trial(config, seeds, idx):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(lat, "_BATCH_MAX_CELLS", 0)
            m.setattr(lat, "_BATCH_CELLS", 1)
            assert not lat._batched(config)
            return lat._summaries(config, seeds, idx)

    @staticmethod
    def assert_same_records(got, want):
        assert got.dtype == want.dtype
        for name in want.dtype.names:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)
        assert got.tobytes() == want.tobytes()

    # (n, cushion, trials) per model and dimension: firework windows up to the
    # cap; reverse extents (n * cushion per axis) on both sides of it
    CASES = {
        (FIREWORK, 1): [(1, 1, 20), (3, 1, 40), (CAP_N[1] - 1, 1, 8), (CAP_N[1], 1, 8)],
        (FIREWORK, 2): [(1, 1, 20), (3, 1, 40), (CAP_N[2] - 1, 1, 8), (CAP_N[2], 1, 8)],
        (REVERSE, 1): [(1, 2, 20), (4, 3, 30), (64, 4, 8), (43, 6, 8), (3, 100, 4)],
        (REVERSE, 2): [(1, 2, 20), (3, 3, 30), (4, 4, 8), (3, 6, 8), (5, 4, 4)],
    }

    @pytest.mark.parametrize("dist", TRIAL_LAWS, ids=repr)
    @pytest.mark.parametrize("model, dim, initiators", [
        (FIREWORK, 1, False), (FIREWORK, 1, True), (FIREWORK, 2, False),
        (REVERSE, 1, False), (REVERSE, 1, True), (REVERSE, 2, False), (REVERSE, 2, True)])
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_records_equal_per_trial_records(self, dist, model, dim, initiators, p):
        # reverse records also equal the public API's, realized trial by trial
        cap = lat._BATCH_MAX_CELLS
        for n, cushion, trials in self.CASES[model, dim]:
            for k in (2,) if model == FIREWORK else (1, 2, 3):
                c = cfg(model=model, dim=dim, p=p, k=k, n=n, dist=dist, seed=n + 17,
                        cushion=cushion, initiators=initiators)
                assert lat._batched(c) == (c.extent() ** dim <= cap)
                o, hi = c.report_origin(), c.report_origin() + n - 1
                sites = [o, hi] if dim == 1 else [(o, o), (hi, o), (hi, hi)]
                idx = lat._site_indices(c, sites)
                seeds = mix64(c.seed, np.arange(trials, dtype=np.uint64))
                got = lat._summaries(c, seeds, idx)
                self.assert_same_records(got, self.per_trial(c, seeds, idx))
                if model == REVERSE:
                    self.assert_same_records(got, public_records(c, seeds, idx))
        assert cap in [(n * cushion) ** dim for n, cushion, _ in self.CASES[model, dim]]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_batches_of_any_size(self, monkeypatch, dim):
        c = cfg(dim=dim, p=0.4, k=2, n=5, dist=PowerTail(1.5), seed=3)
        idx = lat._site_indices(c, [2, 5] if dim == 1 else [(2, 3)])
        seeds = mix64(c.seed, np.arange(3, 20, dtype=np.uint64))
        want = self.per_trial(c, seeds, idx)
        for step in (1, 3, 16, 1000):
            monkeypatch.setattr(lat, "_BATCH_CELLS", step * 5 ** dim)
            got = lat._trial_range(lat._summaries, (c, (), (idx,)), 3, 20)
            self.assert_same_records(got, want)

    @pytest.mark.parametrize("dim, n, initiators", [(1, 9, True), (1, 300, False),
                                                    (2, 5, False), (2, 20, False)])
    def test_both_paths_equal_the_public_api(self, dim, n, initiators):
        # batched (n^d <= 256) and per-trial (n^d > 256) records against
        # firework_counts(realize(c)) and last_under_covered, trial by trial
        c = cfg(dim=dim, p=0.3, k=2, n=n, dist=PowerTail(1.5), seed=n, initiators=initiators)
        idx = lat._site_indices(c, [1, n] if dim == 1 else [(1, 1), (n, 2)])
        seeds = mix64(c.seed, np.arange(30, dtype=np.uint64))
        self.assert_same_records(lat._summaries(c, seeds, idx), public_records(c, seeds, idx))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_batched_chunk_is_the_stacked_per_trial_chunks(self, dim, p):
        # the window stream itself, before any reduction, bit for bit
        seeds = np.array([0, 1, 7, 2**63, 2**64 - 1], dtype=np.uint64)
        for n in (1, 3, self.CAP_N[dim]):
            c = cfg(dim=dim, p=p, n=n, dist=PowerTail(1.5))
            [(t0, r0, act, sel, radii)] = lat._draws(c, seeds)
            with pytest.MonkeyPatch.context() as m:
                m.setattr(lat, "_BATCH_MAX_CELLS", 0)
                per = list(lat._draws(c, seeds))
            assert (t0, r0) == (0, 0)
            assert [chunk[:2] for chunk in per] == [(t, 0) for t in range(len(seeds))]
            want_act = np.concatenate([chunk[2] for chunk in per])
            want_radii = np.concatenate([chunk[4] for chunk in per])
            assert act.shape == (len(seeds),) + (n,) * dim
            assert sel is act and all(chunk[3] is chunk[2] for chunk in per)
            assert act.dtype == want_act.dtype and radii.dtype == want_radii.dtype
            assert act.tobytes() == want_act.tobytes()
            assert radii.tobytes() == want_radii.tobytes()

    def test_which_trials_batch(self, monkeypatch):
        cap = lat._BATCH_MAX_CELLS
        assert lat._batched(cfg(dim=1, n=cap)) and not lat._batched(cfg(dim=1, n=cap + 1))
        side = math.isqrt(cap)
        assert lat._batched(cfg(dim=2, n=side)) and not lat._batched(cfg(dim=2, n=side + 1))
        # the p-grid golden spec p2d_small falls under the cap
        assert lat._batched(cfg(dim=2, n=12))
        # a reverse window is batched by its extent: n * cushion cells per axis
        assert lat._batched(cfg(model=REVERSE, dim=1, n=cap // 2, cushion=2))
        assert not lat._batched(cfg(model=REVERSE, dim=1, n=cap // 2 + 1, cushion=2))
        assert lat._batched(cfg(model=REVERSE, dim=2, n=side // 2, cushion=2))
        assert not lat._batched(cfg(model=REVERSE, dim=2, n=side // 2 + 1, cushion=2))
        # a window drawn in several RNG chunks keeps the per-trial path
        monkeypatch.setattr(lat, "_CHUNK_CELLS", 7)
        assert not lat._batched(cfg(dim=2, n=3)) and not lat._batched(cfg(dim=1, n=8))

    def test_estimates_read_the_summary_bits(self):
        c = cfg(dim=2, p=0.5, k=2, n=4, dist=C1, seed=9)
        sites = [(2, 2), (4, 4)]
        stats = simulate_window(c, 300, sites=sites)
        assert estimate_under_coverage(c, sites, 300) == stats.sites


def grid_records(points, seeds, idx):
    """The (trials, points) records of one grid job, each trial's window drawn once."""
    head = max(points, key=lambda c: c.p)
    return lat._summaries(head, seeds, idx, tuple(points))


class TestGridJobs:
    """A firework p or beta scan is one job that draws each trial's window once
    for every point; each point's records must equal its own _summaries, bit
    for bit."""

    @staticmethod
    def points(grid, dim, n, initiators=False):
        # unsorted grids with duplicates; the p grid holds p 0 and 1, and the
        # mixed one varies p, law and k together
        if grid == "p":
            specs = [(p, ParetoTail(2.0), 2) for p in (0.3, 0.7, 0.3, 0.0, 1.0, 0.5)]
        elif grid == "beta":
            specs = [(0.5, PowerTail(b), 2) for b in (1.5, 0.5, 2.5, 1.5)]
        else:
            specs = [(0.2, PowerTail(0.5), 1), (0.6, PowerTail(1.5), 2), (0.6, PowerTail(0.5), 3),
                     (0.9, Geometric(0.5), 2)]
        return [cfg(dim=dim, p=p, k=k, n=n, dist=dist, seed=n + 3, initiators=initiators)
                for p, dist, k in specs]

    @staticmethod
    def assert_equal_per_point(points, trials):
        n, o = points[0].n, points[0].report_origin()
        sites = [o, n] if points[0].dimension == 1 else [(o, o), (n, o + 1)]
        idx = lat._site_indices(points[0], sites)
        seeds = mix64(points[0].seed, np.arange(trials, dtype=np.uint64))
        got = grid_records(points, seeds, idx)
        assert got.shape == (trials, len(points))
        for j, c in enumerate(points):
            TestBatchedTrials.assert_same_records(got[:, j], lat._summaries(c, seeds, idx))

    @pytest.mark.parametrize("grid", ["p", "beta", "mixed"])
    @pytest.mark.parametrize("dim, n, initiators", [
        (1, 50, False), (1, 50, True), (1, 700, False), (1, 700, True), (2, 10, False),
        (2, 30, False)])
    def test_records_equal_per_point_records(self, grid, dim, n, initiators):
        # batched (n^d <= 256) and per-trial windows
        points = self.points(grid, dim, n, initiators)
        assert lat._batched(points[0]) == (n ** dim <= lat._BATCH_MAX_CELLS)
        self.assert_equal_per_point(points, 12)

    @pytest.mark.parametrize("grid", ["p", "beta", "mixed"])
    @pytest.mark.parametrize("dim, n, chunk_cells, piece_cells", [
        (1, 300, 64, 7), (2, 17, 64, 20), (2, 9, 1, 1)])
    def test_several_chunks_and_pieces(self, monkeypatch, grid, dim, n, chunk_cells,
                                       piece_cells):
        monkeypatch.setattr(lat, "_CHUNK_CELLS", chunk_cells)
        monkeypatch.setattr(lat, "_PIECE_CELLS", piece_cells)
        points = self.points(grid, dim, n, initiators=dim == 1)
        rows = lat._row_blocks(n, dim)
        assert len(rows) > 2 and rows[0][1] * n ** (dim - 1) > piece_cells
        self.assert_equal_per_point(points, 5)

    def test_grid_records_equal_the_public_api(self):
        # an independent oracle: each point realized and counted trial by trial
        points = self.points("mixed", 2, 9)
        idx = lat._site_indices(points[0], [(1, 1), (9, 4)])
        seeds = mix64(points[0].seed, np.arange(8, dtype=np.uint64))
        got = grid_records(points, seeds, idx)
        for j, c in enumerate(points):
            TestBatchedTrials.assert_same_records(got[:, j], public_records(c, seeds, idx))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_simulate_windows_equal_each_point_alone(self, inline_pools, monkeypatch, workers):
        monkeypatch.setattr(lat.os, "sched_getaffinity", lambda pid: {0, 1})
        points, sites = self.points("p", 2, 20), [(1, 1), (20, 3)]
        got = lat.simulate_windows(points, 10, workers, sites)
        # one job: 2 chunks of 5 trials with 2 workers
        assert [(p.max_workers, p.tasks) for p in inline_pools] == (
            [(2, 2)] if workers == 2 else [])
        for stats, c in zip(got, points):
            want = simulate_window(c, 10, sites=sites)
            np.testing.assert_array_equal(stats.fractions, want.fractions)
            np.testing.assert_array_equal(stats.last_normalized, want.last_normalized)
            assert stats.clamp_count == want.clamp_count and stats.sites == want.sites

    @pytest.mark.parametrize("grid", [["--p-grid", "0.1,0.5,0.9", "--dist", "pareto:alpha=4"],
                                      ["--beta-grid", "0.5,1.5,2.5", "--p", "0.5"]])
    def test_scan_opens_one_window_stream_per_trial(self, monkeypatch, capsys, grid):
        # 1D n = 300 runs trial by trial, each trial on its own window stream
        streams, real = [], lat.make_rng
        monkeypatch.setattr(lat, "make_rng", lambda *parts: streams.append(parts) or real(*parts))
        assert main(["scan", "--dim", "1", *grid, "--n", "300", "--trials", "5",
                     "--seed", "3"]) == 0
        assert len(streams) == 5
        assert {parts[-1] for parts in streams} == {lat._STREAM_WINDOW}

    @pytest.mark.parametrize("dim, n", [(1, 300), (2, 12), (2, 40)])
    def test_every_trial_monotone(self, dim, n):
        # coupled trials: a site open at p is open at every larger p with the
        # same radius, and a larger beta never lengthens a radius
        def by_param(params, configs):
            stats = lat.simulate_windows(configs, 30)
            return [s for _, s in sorted(zip(params, stats), key=lambda ps: ps[0])]

        ps = [0.5, 0.1, 0.9, 0.3, 0.7]
        by_p = by_param(ps, [cfg(dim=dim, p=p, n=n, dist=ParetoTail(4.0), seed=21) for p in ps])
        betas = [2.5, 0.5, 1.5, 1.0]
        by_beta = by_param(betas, [cfg(dim=dim, p=0.3, n=n, dist=PowerTail(b), seed=22)
                                   for b in betas])
        strict = 0
        for runs, sign in ((by_p, 1), (by_beta, -1)):
            for a, b in zip(runs, runs[1:]):
                for name in ("fractions", "last_normalized"):
                    drop = sign * (getattr(a, name) - getattr(b, name))
                    assert np.all(drop >= 0), name
                    strict += np.count_nonzero(drop > 0)
        assert strict > 0

    def test_grid_trial_peaks_within_its_largest_point_and_a_level_byte(self):
        # the p-scan benchmark's shape, two trials: the first point counts the
        # sources it counts alone, holding one level byte more per source
        # (~0.1 * 2000^2 of them), and the later ones fewer
        points = [cfg(dim=2, p=p, n=2000, dist=ParetoTail(4.0), seed=7) for p in (0.02, 0.05, 0.1)]
        idx = lat._site_indices(points[0], [])
        seeds = mix64(7, np.arange(2, dtype=np.uint64))
        runs = {"alone": lambda: lat._summaries(points[2], seeds, idx),
                "grid": lambda: grid_records(points, seeds, idx)}
        peaks = {}
        for name, run in runs.items():
            run()  # the first window stream imports numpy.random, traced or not
            tracemalloc.start()
            try:
                run()
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["grid"] <= peaks["alone"] + 0.101 * 2000 ** 2


class TestFireworkRowChunks:
    """Every firework field is counted from row chunks; a chunk boundary
    anywhere in a window must not change a field or a record."""

    @pytest.mark.parametrize("chunk_cells", [1, 7, 64])
    @pytest.mark.parametrize("dim, initiators", [(1, False), (1, True), (2, False)])
    def test_several_row_blocks(self, monkeypatch, chunk_cells, dim, initiators):
        # a tiny chunk splits each realized window into many row blocks, down
        # to one row, and the chunks of every trial go to one _firework call
        monkeypatch.setattr(lat, "_CHUNK_CELLS", chunk_cells)
        n = 9 if dim == 2 else 100
        for dist in (PowerTail(1.5), Geometric(0.5), ParetoTail(2.0)):
            c = cfg(dim=dim, p=0.5, k=2, n=n, dist=dist, seed=13, initiators=initiators)
            assert len(lat._row_blocks(n, dim)) > 1 and not lat._batched(c)
            idx = lat._site_indices(c, [1, 50, n] if dim == 1 else [(1, 1), (n, 4)])
            seeds = mix64(c.seed, np.arange(6, dtype=np.uint64))
            TestBatchedTrials.assert_same_records(
                lat._summaries(c, seeds, idx), public_records(c, seeds, idx))
            r = realize(c)
            np.testing.assert_array_equal(firework_counts(r).values, brute_firework_counts(r))

    def test_chunk_list_holds_no_reused_buffer(self, monkeypatch):
        # several chunks, and several pieces per chunk, per trial: a consumer
        # that keeps every chunk of a group must get arrays of its own
        monkeypatch.setattr(lat, "_CHUNK_CELLS", 64)
        monkeypatch.setattr(lat, "_PIECE_CELLS", 20)
        c = cfg(dim=2, p=0.5, k=2, n=17, dist=PowerTail(1.5), seed=31)
        seeds = mix64(c.seed, np.arange(4, dtype=np.uint64))
        chunks = list(lat._draws(c, seeds))
        assert len(chunks) == 4 * len(lat._row_blocks(17, 2)) > 8
        arrays = [a for chunk in chunks for a in (chunk[2], chunk[4])]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays)
                       for b in arrays[i + 1:])
        idx = lat._site_indices(c, [(1, 1), (17, 5)])
        TestBatchedTrials.assert_same_records(lat._summaries(c, seeds, idx),
                                              public_records(c, seeds, idx))
        r = realize(c)
        np.testing.assert_array_equal(firework_counts(r).values, brute_firework_counts(r))


def whole_chunks(c: LatticeConfig, seed: int, select=None):
    """(r0, open bits, selected, radii) of one trial's window stream, each
    chunk's uniforms drawn whole by make_rng(seed, 1).random(shape)."""
    rng, m, d = make_rng(seed, 1), c.extent(), c.dimension
    out = []
    for r0, r1 in lat._row_blocks(m, d):
        shape = (r1 - r0,) + (m,) * (d - 1)
        act = rng.random(shape) < c.p
        u = 1.0 - rng.random(shape)
        sel = act if select is None else act & select(r0, u)
        out.append((r0, act, sel, c.dist.quantile_from_uniform(u[sel])))
    return out


def reverse_select(c: LatticeConfig):
    """A selection that keeps some open sites and drops others: u below a per-row bound."""
    bound = np.linspace(0.2, 0.9, c.extent())
    return lambda r0, u: u < bound[r0:r0 + len(u)].reshape((-1,) + (1,) * (u.ndim - 1))


class TestPiecedDraws:
    """_draws draws each chunk's uniforms in row pieces into one reused
    buffer; the stream must be the whole-chunk draw's, bit for bit."""

    @pytest.mark.parametrize("dim, n, chunk_cells, piece_cells", [
        (1, 600_000, None, None),  # real sizes: one chunk of three pieces
        (2, 700, None, None),  # 374-row pieces of a 700-row chunk
        (1, 100, 64, 7),  # 7 does not divide a 64-row chunk
        (1, 100, 64, 1),  # 1-row pieces
        (2, 9, 64, 27),  # 3-row pieces of 7-row chunks
        (2, 9, 64, 1),  # 1-row pieces (a piece is at least one row)
        (2, 9, 1, 1),  # one row per chunk and per piece
    ])
    @pytest.mark.parametrize("selected", ["open", "some"])
    def test_equal_whole_chunk_draws(self, monkeypatch, dim, n, chunk_cells, piece_cells,
                                     selected):
        if chunk_cells is not None:
            monkeypatch.setattr(lat, "_CHUNK_CELLS", chunk_cells)
            monkeypatch.setattr(lat, "_PIECE_CELLS", piece_cells)
        for dist in (PowerTail(1.5), Geometric(0.5)):
            c = cfg(dim=dim, p=0.4, n=n, dist=dist)
            select = None if selected == "open" else reverse_select(c)
            seeds = np.array([3, 2**64 - 1], dtype=np.uint64)
            got = list(lat._draws(c, seeds, select))
            want = [(t, *chunk) for t, seed in enumerate(seeds.tolist())
                    for chunk in whole_chunks(c, seed, select)]
            assert [g[:2] for g in got] == [w[:2] for w in want]
            for (_, _, act, sel, radii), (_, _, w_act, w_sel, w_radii) in zip(got, want):
                assert act.shape == sel.shape == (1,) + w_act.shape
                assert (sel is act) == (select is None)
                assert act.tobytes() == w_act.tobytes() and sel.tobytes() == w_sel.tobytes()
                assert radii.dtype == w_radii.dtype and radii.tobytes() == w_radii.tobytes()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_reused_buffers_carry_each_chunk(self, monkeypatch, dim):
        # chunks filled into two alternating pairs, read before the next one
        monkeypatch.setattr(lat, "_CHUNK_CELLS", 64)
        monkeypatch.setattr(lat, "_PIECE_CELLS", 5)
        c = cfg(dim=dim, p=0.5, n=20 if dim == 2 else 150, dist=PowerTail(1.5))
        select = reverse_select(c)
        rows = lat._row_blocks(c.extent(), dim)[0][1]
        shape = (1, rows) + (c.extent(),) * (dim - 1)
        pairs = [(np.empty(shape, bool), np.empty(shape, bool)) for _ in range(2)]
        want = whole_chunks(c, 5, select)
        assert len(want) > 2
        seed = np.array([5], dtype=np.uint64)
        for i, (chunk, w) in enumerate(zip(lat._draws(c, seed, select, pairs), want)):
            _, r0, act, sel, radii = chunk
            assert np.shares_memory(act, pairs[i % 2][0]) and np.shares_memory(sel, pairs[i % 2][1])
            assert r0 == w[0] and act[0].tobytes() == w[1].tobytes()
            assert sel[0].tobytes() == w[2].tobytes() and radii.tobytes() == w[3].tobytes()

    @pytest.mark.parametrize("shape, rows", [((10,), [3, 3, 3, 1]), ((5, 7), [2, 1, 2]),
                                             ((6, 3), [1] * 6), ((4, 4), [4])])
    def test_random_out_draws_what_random_draws(self, shape, rows):
        # the pieced draw rests on this; NEP 19 does not freeze it
        for seed in (0, 2**64 - 1):
            whole = make_rng(seed, 1)
            want = np.concatenate([whole.random(shape), whole.random(shape)]).tobytes()
            pieced = make_rng(seed, 1)
            buf = np.empty((max(rows),) + shape[1:])
            got = []
            for _ in range(2):
                for r in rows:
                    got.append(pieced.random(out=buf[:r]).copy())
            assert np.concatenate(got).tobytes() == want
            assert whole.random() == pieced.random()


def helper_threads():
    return [t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")]


class TestDrawHelper:
    """A multi-chunk streamed reverse trial draws the next chunk on one
    helper thread, which lives only inside the trial."""

    @pytest.fixture
    def multi_chunk(self, monkeypatch):
        monkeypatch.setattr(lat, "_CHUNK_CELLS", 64)
        return cfg(model=REVERSE, dim=2, n=7, cushion=4, p=0.5, k=2, dist=PowerTail(1.5),
                   seed=13, initiators=True)

    def counting_threads(self, monkeypatch):
        seen, real = [], lat._prefix_rows

        def prefix_rows(S, r0, act):
            seen.append(threading.active_count())
            real(S, r0, act)

        monkeypatch.setattr(lat, "_prefix_rows", prefix_rows)
        return seen

    def test_helper_alive_only_inside_the_trial(self, monkeypatch, multi_chunk):
        assert not helper_threads()
        before = threading.active_count()
        seen = self.counting_threads(monkeypatch)
        fld = streamed(multi_chunk)
        assert len(seen) == len(lat._row_blocks(multi_chunk.extent(), 2)) > 2
        assert set(seen) == {before + 1}
        assert threading.active_count() == before and not helper_threads()
        assert_same_field(fld, reverse_membership(realize(multi_chunk), 2))

    def test_one_chunk_starts_no_helper(self, monkeypatch):
        c = cfg(model=REVERSE, dim=2, n=40, cushion=3, p=0.5, k=2, dist=PowerTail(1.5))
        assert len(lat._row_blocks(c.extent(), 2)) == 1
        before = threading.active_count()
        seen = self.counting_threads(monkeypatch)
        streamed(c)
        assert seen == [before]

    def test_counting_error_propagates_and_joins_helper(self, monkeypatch, multi_chunk):
        before, calls, real = threading.active_count(), [], lat._prefix_rows

        def third_fails(S, r0, act):
            calls.append(r0)
            if len(calls) == 3:
                raise RuntimeError("third chunk")
            real(S, r0, act)

        monkeypatch.setattr(lat, "_prefix_rows", third_fails)
        with pytest.raises(RuntimeError, match="third chunk"):
            streamed(multi_chunk)
        assert len(calls) == 3
        assert threading.active_count() == before and not helper_threads()

    def test_drawing_error_propagates_and_joins_helper(self, monkeypatch, multi_chunk):
        # the helper draws every chunk after the first; its error reaches the caller
        before, calls = threading.active_count(), []

        class ThirdDrawFails(PowerTail):
            def quantile_from_uniform(self, u):
                calls.append(threading.current_thread().name)
                if len(calls) == 3:
                    raise RuntimeError("third draw")
                return super().quantile_from_uniform(u)

        c = replace(multi_chunk, dist=ThirdDrawFails(1.5))
        with pytest.raises(RuntimeError, match="third draw"):
            streamed(c)
        assert calls[0] == threading.current_thread().name
        assert calls[2].startswith("ThreadPoolExecutor")
        assert threading.active_count() == before and not helper_threads()

    def test_records_independent_of_workers(self, multi_chunk):
        # no helper is alive when run_trials forks its pool
        sites = [(0, 0), (3, 5), (6, 6)]
        one = simulate_window(multi_chunk, 6, workers=1, sites=sites)
        two = simulate_window(multi_chunk, 6, workers=2, sites=sites)
        np.testing.assert_array_equal(one.fractions, two.fractions)
        np.testing.assert_array_equal(one.last_normalized, two.last_normalized)
        assert one.clamp_count == two.clamp_count and one.sites == two.sites
        seeds = mix64(multi_chunk.seed, np.arange(6, dtype=np.uint64))
        want = public_records(multi_chunk, seeds, lat._site_indices(multi_chunk, sites))
        np.testing.assert_array_equal(one.fractions, want["fraction"])


def brute_reverse(r: Realization, k: int):
    """brute_reverse_membership and the clamp count of the realization, the
    definition evaluated over every pair of sources at once."""
    srcs = sources_of(r)
    d, n = r.config.dimension, r.config.n
    pos = np.array([np.atleast_1d(s) for s, _ in srcs], dtype=np.int64).reshape(-1, d)
    rad = np.array([rad for _, rad in srcs], dtype=np.int64).reshape(-1, 1, 1)

    def in_block(points):
        # [i, j]: point j lies in source i's block i + [-rad_i, 0]^d
        return np.all((points[None] >= pos[:, None] - rad) & (points[None] <= pos[:, None]),
                      axis=2)

    qualify = in_block(pos).sum(axis=1) - 1 >= k
    window = np.indices((n,) * d).reshape(d, -1).T
    member = in_block(window)[qualify].any(axis=0).reshape((n,) * d).astype(int)
    return member, int(np.count_nonzero(rad[:, 0, 0] > pos.min(axis=1) + 1))


def spy_sweeps(monkeypatch) -> list:
    """Record (rows, cols, result) of every _swept call."""
    calls, real = [], lat._swept

    def spy(*args):
        calls.append((args[3], args[4], real(*args)))
        return calls[-1][2]

    monkeypatch.setattr(lat, "_swept", spy)
    return calls


def swept_sizes(r: Realization, calls: list) -> list:
    """Check every recorded _swept result against the prefix grid S of r's
    window, where S[i, j] (S[i] in 1D) counts the open sites in [-1..i-2] x
    [-1..j-2], initiators included; clear the record and return each call's
    number of cells."""
    d = r.activation.ndim
    S = np.zeros((r.activation.shape[0] + 3,) * d, dtype=np.int64)
    S[(slice(3, None),) * d] = r.activation
    if r.initiator_radii is not None:
        for i in (1, 2):
            S[(i,) * d] = 1
    for axis in range(d):
        S = np.cumsum(S, axis=axis)
    for rows, cols, got in calls:
        want = sum(sign * (S[rows, col] if d == 2 else S[rows]) for sign, col in cols)
        np.testing.assert_array_equal(got, want)
    sizes = [len(rows) for rows, _, _ in calls]
    calls.clear()
    return sizes


class TestRowLayout:
    """A reverse trial's prefix grid rolls each chunk's rows, below the previous
    chunk's last three, through one buffer, and keeps the packed open bits of
    rows 0..n-1; a source with a bottom corner in a row above the buffer is
    deferred, and its bottom corners are swept from the packed bits.  A
    one-chunk window gets the whole grid in the buffer.  Fields, memberships
    and clamps must equal the brute-force ones of the realized window,
    whatever the chunking."""

    CHUNK_CELLS = lat._CHUNK_CELLS

    @staticmethod
    def layouts(dim):
        """(n, cushion, _CHUNK_CELLS or None for the default) at n in {1, 2, 5},
        cushion 1 (the buffer is the whole grid) and 5, in one chunk, one-row
        chunks and chunks of a third of the extent."""
        for n in (1, 2, 5):
            for cushion in (1, 5):
                m = n * cushion
                yield n, cushion, None
                for rows in sorted({1, max(1, m // 3)}):
                    yield n, cushion, rows * m ** (dim - 1)

    def chunking(self, monkeypatch, c, chunk_cells):
        """Set _CHUNK_CELLS; returns (chunks, rolling buffer rows, whole-grid rows) of c's trials."""
        monkeypatch.setattr(lat, "_CHUNK_CELLS", chunk_cells or self.CHUNK_CELLS)
        m, d = c.extent(), c.dimension
        return len(lat._row_blocks(m, d)), lat._chunk_rows(m, d) + 3, m + 3

    def test_brute_force_is_the_definition(self):
        for dim, initiators in ((1, True), (2, False), (2, True)):
            r = realize(cfg(model=REVERSE, dim=dim, n=5 if dim == 2 else 12, cushion=2, p=0.6,
                            seed=8, initiators=initiators))
            for k in (0, 1, 3):
                np.testing.assert_array_equal(brute_reverse(r, k)[0],
                                              brute_reverse_membership(r, k))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("initiators", [False, True])
    def test_fields_equal_brute_force(self, monkeypatch, dim, initiators):
        rolled = 0
        for n, cushion, chunk_cells in self.layouts(dim):
            for dist, seed in ((PowerTail(1.5), 0), (GEO, 1), (PowerTail(0.5), 2)):
                c = cfg(model=REVERSE, dim=dim, n=n, cushion=cushion, p=0.5, k=1, dist=dist,
                        seed=seed, initiators=initiators)
                chunks, rows, whole = self.chunking(monkeypatch, c, chunk_cells)
                rolled += chunks >= 3 and rows < whole
                r = realize(c)
                for k in (0, 1, 3):
                    want, clamps = brute_reverse(r, k)
                    got = reverse_membership(r, k)
                    np.testing.assert_array_equal(got.values, want)
                    assert got.clamp_count == clamps
                    if k:
                        assert_same_field(streamed(replace(c, k=k)), got)
        assert rolled

    @pytest.mark.parametrize("dim", [1, 2])
    def test_records_at_one_and_two_workers(self, monkeypatch, dim):
        kinds = set()
        for n, cushion, chunk_cells in self.layouts(dim):
            c = cfg(model=REVERSE, dim=dim, n=n, cushion=cushion, p=0.5, k=2,
                    dist=PowerTail(1.5), seed=n + cushion, initiators=True)
            chunks, rows, whole = self.chunking(monkeypatch, c, chunk_cells)
            kinds.add("batched" if lat._batched(c) else
                      "rolled" if chunks >= 3 and rows < whole else "whole")
            hi = n - 1
            sites = [0, hi] if dim == 1 else [(0, 0), (hi, 0), (hi, hi)]
            seeds = mix64(c.seed, np.arange(6, dtype=np.uint64))
            want = public_records(c, seeds, lat._site_indices(c, sites))
            for workers in (1, 2):
                stats = simulate_window(c, 6, workers, sites)
                np.testing.assert_array_equal(stats.fractions, want["fraction"])
                np.testing.assert_array_equal(stats.last_normalized, want["last"])
                assert stats.clamp_count == want["clamp"].sum()
                assert [e.under_count for e in stats.sites] == want["bits"].sum(axis=0).tolist()
        assert kinds == {"batched", "rolled", "whole"}

    @pytest.mark.parametrize("dim, n, cushion, chunk_cells", [
        (1, 40, 4, 7), (1, 9, 5, 3), (2, 7, 4, 64), (2, 10, 4, 80)])
    def test_long_windows(self, monkeypatch, dim, n, cushion, chunk_cells):
        # many chunks, the first ones in the window's own rows, then rolled;
        # a constant radius puts many blocks' left edges on the initiators'
        # columns, which each rolled row must read afresh
        for initiators, dist, k in itertools.product((False, True), (PowerTail(1.5), Constant(3)),
                                                     (1, 2, 3)):
            c = cfg(model=REVERSE, dim=dim, n=n, cushion=cushion, p=0.5, k=k, dist=dist,
                    seed=31, initiators=initiators)
            chunks, rows, whole = self.chunking(monkeypatch, c, chunk_cells)
            assert chunks > 5 and rows < whole
            want, clamps = brute_reverse(realize(c), k)
            got = streamed(c)
            np.testing.assert_array_equal(got.values, want)
            assert got.clamp_count == clamps

    def test_rolled_rows_read_the_initiator_columns(self, monkeypatch):
        # one-row chunks of a 20-wide extent at n = 2: the buffer holds 4 rows,
        # the chunk's below the previous chunk's last three, so site (4, 3)'s
        # top corners sit in a reused row, whose initiator columns must hold
        # the carry row's counts afresh; its block [1..4] x [0..3] holds (2, 2)
        # alone, which qualifies it at k = 1
        c = cfg(model=REVERSE, dim=2, n=2, cushion=10, p=0.5, k=1, dist=C1, initiators=True)
        act = np.zeros((20, 20), dtype=bool)
        act[1, 1] = act[3, 2] = True
        r = Realization(c, act, np.array([0, 3], dtype=np.int64),
                        initiator_radii=np.array([0, 0], dtype=np.int64))
        assert self.chunking(monkeypatch, c, 20)[1:] == (4, 23)
        got = reverse_membership(r, 1)
        np.testing.assert_array_equal(got.values, [[0, 0], [1, 1]])
        np.testing.assert_array_equal(got.values, brute_reverse(r, 1)[0])

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("initiators", [False, True])
    def test_far_corners_equal_brute_force(self, monkeypatch, block, initiators):
        # PowerTail(0.5) at cushion 5: many sources reach above their chunk,
        # so they wait for the sweep, which takes a pool of max(block,
        # (n+3)^2 // 32) of them at a time: the block at n = 2, and at n = 5
        # 2 with blocks of 1; the sweep rebuilds one row at a time
        monkeypatch.setattr(lat, "_SOURCE_BLOCK", block)
        monkeypatch.setattr(lat, "_PIECE_CELLS", 16)
        calls, swept = spy_sweeps(monkeypatch), []
        for n, seed in itertools.product((2, 5), (0, 1, 2)):
            c = cfg(model=REVERSE, dim=2, n=n, cushion=5, p=0.5, k=1, dist=PowerTail(0.5),
                    seed=seed, initiators=initiators)
            m = c.extent()
            for rows in (1, m // 3):
                chunks, rows_held, whole = self.chunking(monkeypatch, c, rows * m)
                assert chunks >= 3 and rows_held < whole
                r = realize(c)
                for k in (0, 1, 3):
                    want, clamps = brute_reverse(r, k)
                    got = reverse_membership(r, k)
                    np.testing.assert_array_equal(got.values, want)
                    assert got.clamp_count == clamps
                    if k:
                        assert_same_field(streamed(replace(c, k=k)), got)
                    swept += swept_sizes(r, calls)
        assert len(swept) > 100 and max(swept) == max(block, (5 + 3) ** 2 // 32)

    def test_far_corner_of_the_only_qualifying_block(self, monkeypatch):
        # one-row chunks at n = 4, cushion 3: source (6, 6) with radius 4 has
        # the block [2..6]^2, whose bottom corners lie in S's row 3, the
        # first chunk's, above the buffer, so the sweep gives both, one
        # deferred source per k; (1, 5) in that row, left of the block, must
        # cancel out of the count, and (3, 5) is the block's one other site:
        # the block qualifies at k = 1 alone, and not at k = 2
        c = cfg(model=REVERSE, dim=2, n=4, cushion=3, p=0.5, k=1, dist=C1)
        act = np.zeros((12, 12), dtype=bool)
        act[0, 4] = act[2, 4] = act[5, 5] = True
        r = Realization(c, act, np.array([0, 0, 4], dtype=np.int64))
        assert self.chunking(monkeypatch, c, 12)[0] == 12
        calls = spy_sweeps(monkeypatch)
        want = np.zeros((4, 4), dtype=np.uint8)
        want[2:, 2:] = 1
        for k, field in ((1, want), (2, np.zeros_like(want))):
            got = reverse_membership(r, k)
            np.testing.assert_array_equal(got.values, field)
            np.testing.assert_array_equal(got.values, brute_reverse(r, k)[0])
        assert swept_sizes(r, calls) == [1, 1]

    def test_1d_bottom_corner_above_the_buffer(self, monkeypatch):
        # chunks of 3 sites at n = 4, cushion 3: source 7 with radius 7 has
        # the block [0..7], whose bottom corner, S's row 1, lies above the
        # buffer of its chunk at row 6, so the sweep gives it: the initiator
        # at -1, which the count must lose; the block holds the initiator at
        # 0 and site 3, so it qualifies at k = 2, and not at k = 3
        c = cfg(model=REVERSE, dim=1, n=4, cushion=3, p=0.5, k=2, dist=C1, initiators=True)
        act = np.zeros(12, dtype=bool)
        act[2] = act[6] = True
        r = Realization(c, act, np.array([0, 7], dtype=np.int64),
                        initiator_radii=np.array([0, 0], dtype=np.int64))
        assert self.chunking(monkeypatch, c, 3)[0] == 4
        calls = spy_sweeps(monkeypatch)
        for k, field in ((2, [1, 1, 1, 1]), (3, [0, 0, 0, 0])):
            got = reverse_membership(r, k)
            want, clamps = brute_reverse(r, k)
            np.testing.assert_array_equal(got.values, field)
            np.testing.assert_array_equal(got.values, want)
            assert got.clamp_count == clamps
        assert swept_sizes(r, calls) == [1, 1]

    @pytest.mark.parametrize("initiators", [False, True])
    def test_1d_sweep_in_pieces(self, monkeypatch, initiators):
        # 1D rows of packed bits rebuilt 5 at a time: PowerTail(0.5) sources
        # in chunks of 7 sites at n = 40, cushion 4, reach many pieces above
        # their chunk; every swept cell must be S's, and every field the
        # brute-force one
        monkeypatch.setattr(lat, "_PIECE_CELLS", 5)
        calls = spy_sweeps(monkeypatch)
        deepest = 0
        for seed in (0, 1, 2):
            c = cfg(model=REVERSE, dim=1, n=40, cushion=4, p=0.5, k=1, dist=PowerTail(0.5),
                    seed=seed, initiators=initiators)
            chunks, held, whole = self.chunking(monkeypatch, c, 7)
            assert chunks > 5 and held < whole
            r = realize(c)
            for k in (0, 1, 3):
                want, clamps = brute_reverse(r, k)
                got = reverse_membership(r, k)
                np.testing.assert_array_equal(got.values, want)
                assert got.clamp_count == clamps
                if k:
                    assert_same_field(streamed(replace(c, k=k)), got)
                # S's row i counts extent rows 0..i-3
                deepest = max([deepest] + [rows.max() - 3 for rows, _, _ in calls])
                swept_sizes(r, calls)
        assert deepest >= 5 * 5  # a sweep of 6 pieces

    def test_trial_peak_within_the_rolled_layout(self, monkeypatch):
        # 385 chunks of 13 rows at n = 1000, cushion 5: two rolling buffers'
        # worth of rows, the window's count grid and masks (6 bytes per
        # reported site) and the fixed overhead; the whole-width rows 0..n+1
        # of the grid (20 MB) alone pass it, and so does a narrow store of
        # rows and columns 0..n+2 beside the rest
        monkeypatch.setattr(lat, "_CHUNK_CELLS", 1 << 16)
        c = cfg(model=REVERSE, dim=2, n=1000, cushion=5, p=0.5, k=2, dist=PowerTail(1.5), seed=5)
        m, n, rows = c.extent(), c.n, lat._chunk_rows(c.extent(), 2)
        assert len(lat._row_blocks(m, 2)) > 300
        seeds = np.array([c.seed], dtype=np.uint64)
        tracemalloc.start()
        try:
            lat._summaries(c, seeds, lat._site_indices(c, []))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (rows + 1) * (m + 3) + 6 * (n + 1) ** 2 + lat._TRIAL_OVERHEAD

    def test_trial_peak_below_half_the_whole_grid(self, monkeypatch):
        # 63 chunks of 32 rows: a 35-row buffer of the extent's 2003 rows, and
        # the packed open bits of rows 0..399
        monkeypatch.setattr(lat, "_CHUNK_CELLS", 1 << 16)
        c = cfg(model=REVERSE, dim=2, n=400, cushion=5, p=0.5, k=2, dist=PowerTail(1.5), seed=5)
        m = c.extent()
        assert len(lat._row_blocks(m, 2)) > 3
        seeds = np.array([c.seed], dtype=np.uint64)
        tracemalloc.start()
        try:
            lat._summaries(c, seeds, lat._site_indices(c, []))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * (m + 3) ** 2 / 2


class TestSurvivalBounds:
    @pytest.mark.parametrize("dist", TRIAL_LAWS, ids=repr)
    def test_blocks_equal_the_whole_axis(self, monkeypatch, dist):
        for block, n, cushion in ((1, 13, 3), (7, 1, 1), (7, 13, 3), (7, 14, 1),
                                  (1 << 16, 30_001, 5)):
            monkeypatch.setattr(lat, "_BOUND_SITES", block)
            c = cfg(model=REVERSE, n=n, cushion=cushion, dist=dist)
            sites = np.arange(1, c.extent() + 1, dtype=np.int64)
            got = lat._survival_bounds(c)
            for bound, j in zip(got, (sites - n + 1, sites + 2)):
                assert bound.tobytes() == (lat._SURVIVAL_SLACK * dist.survival_vec(j)).tobytes()

    def test_peak_per_axis_site(self):
        # the two float64 bounds and one block's temporaries
        c = cfg(model=REVERSE, n=1_000_000, cushion=5, p=0.01, dist=PowerTail(1.5))
        tracemalloc.start()
        try:
            lat._survival_bounds(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * c.extent()


def brute_firework_clamps(r: Realization) -> int:
    """Sources, initiators included, whose block s + [0, r]^d passes site n on some axis."""
    return sum(1 for s, rad in sources_of(r) if max(np.atleast_1d(s)) + rad > r.config.n)


class TestSourceBlocks:
    """The counting bodies turn a chunk's sources into box corners a block of
    at most _SOURCE_BLOCK sources at a time.  Blocks of 1 and 7 split trials,
    chunks and batched groups anywhere; counts and clamps are integer sums,
    so every field, record and clamp count must equal the unblocked ones."""

    BLOCKS = (1, 7)

    @staticmethod
    def layouts(model, dim):
        """(n, cushion, _CHUNK_CELLS or None): one chunk, and chunks of 3 rows;
        a firework window is its extent, with no cushion."""
        for n, cushion in ((6, 1), (4, 3)) if dim == 2 else ((40, 1), (12, 4)):
            n, cushion = (n * cushion, 1) if model == FIREWORK else (n, cushion)
            yield n, cushion, None
            yield n, cushion, 3 * (n * cushion) ** (dim - 1)

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("model, dim, initiators", [
        (FIREWORK, 1, False), (FIREWORK, 1, True), (FIREWORK, 2, False),
        (REVERSE, 1, False), (REVERSE, 1, True), (REVERSE, 2, False), (REVERSE, 2, True)])
    def test_fields_equal_brute_force(self, monkeypatch, block, model, dim, initiators):
        monkeypatch.setattr(lat, "_SOURCE_BLOCK", block)
        for n, cushion, chunk_cells in self.layouts(model, dim):
            monkeypatch.setattr(lat, "_CHUNK_CELLS", chunk_cells or TestRowLayout.CHUNK_CELLS)
            for dist, seed in ((PowerTail(1.5), 0), (GEO, 1), (Constant(3), 2)):
                c = cfg(model=model, dim=dim, n=n, cushion=cushion, p=0.5, k=1, dist=dist,
                        seed=seed, initiators=initiators)
                r = realize(c)
                assert len(r.radii) > block  # several blocks per trial
                if model == FIREWORK:
                    got = firework_counts(r)
                    np.testing.assert_array_equal(got.values, brute_firework_counts(r))
                    assert got.clamp_count == brute_firework_clamps(r)
                    continue
                for k in (0, 1, 3):
                    want, clamps = brute_reverse(r, k)
                    got = reverse_membership(r, k)
                    np.testing.assert_array_equal(got.values, want)
                    assert got.clamp_count == clamps
                    if k:
                        assert_same_field(streamed(replace(c, k=k)), got)

    # (n, cushion) per model and dimension: a batched window, then a
    # per-trial one (in chunks of 3 rows, below)
    CASES = {
        (FIREWORK, 1): [(40, 1), (300, 1)],
        (FIREWORK, 2): [(6, 1), (20, 1)],
        (REVERSE, 1): [(20, 4), (80, 4)],
        (REVERSE, 2): [(3, 4), (6, 4)],
    }

    @pytest.mark.parametrize("model, dim, initiators", [
        (FIREWORK, 1, False), (FIREWORK, 1, True), (FIREWORK, 2, False),
        (REVERSE, 1, False), (REVERSE, 1, True), (REVERSE, 2, False), (REVERSE, 2, True)])
    def test_records_equal_unblocked(self, monkeypatch, model, dim, initiators):
        kinds = set()
        for (n, cushion), k in itertools.product(self.CASES[model, dim], (1, 3)):
            c = cfg(model=model, dim=dim, p=0.5, k=k, n=n, dist=PowerTail(1.5), seed=n + k,
                    cushion=cushion, initiators=initiators)
            batched = c.extent() ** dim <= lat._BATCH_MAX_CELLS
            monkeypatch.setattr(lat, "_CHUNK_CELLS", TestRowLayout.CHUNK_CELLS if batched
                                else 3 * c.extent() ** (dim - 1))
            assert lat._batched(c) == batched
            kinds.add(len(lat._row_blocks(c.extent(), dim)))  # RNG chunks per trial
            o, hi = c.report_origin(), c.report_origin() + n - 1
            idx = lat._site_indices(c, [o, hi] if dim == 1 else [(o, o), (hi, hi)])
            seeds = mix64(c.seed, np.arange(12, dtype=np.uint64))
            want = lat._summaries(c, seeds, idx)
            for block in self.BLOCKS:
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(lat, "_SOURCE_BLOCK", block)
                    TestBatchedTrials.assert_same_records(lat._summaries(c, seeds, idx), want)
        assert 1 in kinds and max(kinds) > 2  # batched windows and several chunks

    @pytest.mark.parametrize("model, dim", [(FIREWORK, 2), (REVERSE, 1), (REVERSE, 2)])
    def test_records_at_one_and_two_workers(self, model, dim):
        for n, cushion in self.CASES[model, dim]:
            c = cfg(model=model, dim=dim, p=0.5, k=2, n=n, dist=PowerTail(1.5), seed=n,
                    cushion=cushion, initiators=model == REVERSE)
            hi = c.report_origin() + n - 1
            sites = [hi] if dim == 1 else [(hi, hi)]
            unblocked = simulate_window(c, 6, 1, sites)
            for workers in (1, 2):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(lat, "_SOURCE_BLOCK", 7)
                    stats = simulate_window(c, 6, workers, sites)
                np.testing.assert_array_equal(stats.fractions, unblocked.fractions)
                np.testing.assert_array_equal(stats.last_normalized, unblocked.last_normalized)
                assert stats.clamp_count == unblocked.clamp_count
                assert stats.sites == unblocked.sites

    @staticmethod
    def traced_peak(c: LatticeConfig) -> int:
        seeds = np.array([c.seed], dtype=np.uint64)
        tracemalloc.start()
        try:
            lat._summaries(c, seeds, lat._site_indices(c, []))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_firework_2d_trial_peak(self):
        # one p-scan trial: ~2x10^5 sources in one chunk, ~47 MiB unblocked
        c = cfg(dim=2, p=0.1, n=2000, dist=ParetoTail(4.0), seed=3)
        assert self.traced_peak(c) < 36 * 2**20

    def test_reverse_2d_peak_per_chunk_source(self, monkeypatch):
        # two chunks of 524 rows, every site a candidate at cushion 1 and p = 1:
        # 8 blocks per chunk; unblocked it peaked at ~197 bytes per chunk source
        monkeypatch.setattr(lat, "_CHUNK_CELLS", 1 << 19)
        c = cfg(model=REVERSE, dim=2, p=1.0, n=1000, dist=PowerTail(1.5), seed=3)
        sources = lat._chunk_rows(c.extent(), 2) * c.extent()
        assert sources >= 3 * lat._SOURCE_BLOCK
        assert self.traced_peak(c) < 120 * sources
