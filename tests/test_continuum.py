import itertools
import math
import tracemalloc

import numpy as np
import pytest

from rumourlab import continuum, lattice, stats
from rumourlab.continuum import (
    ContinuumConfig,
    PointSet,
    k_cover_deficit_2d,
    k_cover_last_gap_1d,
    sample_ppp,
    scan_lambda,
    trial_records,
    trial_statistic,
)
from rumourlab.distributions import (
    ConstCont,
    DistParseError,
    ParetoCont,
    PowerCont,
    TailDistribution,
    parse_distribution,
)
from rumourlab.stats import mix64


def cfg(dim=1, lam=1.0, T=10.0, law=ParetoCont(4), k=2, seed=0, res=0.5):
    return ContinuumConfig(dim, lam, T, law, k, seed, res)


def brute_deficient_length_1d(points: PointSet, k: int, T: float, step: float):
    """Riemann estimate of the measure of {coverage < k} by corner sampling."""
    starts = points.coordinates[:, 0]
    ends = starts + points.radii
    xs = np.arange(0.0, T, step)
    counts = (starts[None, :] <= xs[:, None]) & (xs[:, None] < ends[None, :])
    return step * int((counts.sum(axis=1) < k).sum())


def exact_deficient_length_1d(points: PointSet, k: int, T: float):
    """Sweep over breakpoints; measure of the deficient subset of [0, T)."""
    starts = np.sort(points.coordinates[:, 0])
    ends = np.sort(points.coordinates[:, 0] + points.radii)
    bps = np.unique(np.concatenate([[0.0], starts[starts < T], ends[ends < T], [T]]))
    total = 0.0
    for a, b in zip(bps[:-1], bps[1:]):
        cnt = np.searchsorted(starts, a, side="right") - np.searchsorted(ends, a, side="right")
        if cnt < k:
            total += b - a
    return total


class TestSamplePPP:
    def test_coordinates_in_window(self):
        pts = sample_ppp(cfg(dim=2, lam=3.0, T=4.0, seed=8))
        assert pts.coordinates.shape[1] == 2
        assert np.all((pts.coordinates >= 0) & (pts.coordinates <= 4.0))
        assert np.all(pts.radii > 0)

    def test_mean_count(self):
        # Poisson(20) mean over 10^4 seeds within 3 standard errors
        n_seeds = 10_000
        counts = np.array(
            [sample_ppp(cfg(lam=2.0, T=10.0, seed=mix64(100, s))).radii.size
             for s in range(n_seeds)]
        )
        se = math.sqrt(20.0 / n_seeds)
        assert abs(counts.mean() - 20.0) <= 3 * se

    def test_tiny_intensity_almost_always_empty(self):
        n_seeds = 10**5
        total = 0
        for s in range(n_seeds):
            total += sample_ppp(cfg(lam=1e-9, T=1.0, seed=mix64(4, s))).radii.size
        mean = total / n_seeds
        se = math.sqrt(1e-9 / n_seeds)
        assert abs(mean - 1e-9) <= 3 * se

    def test_deterministic(self):
        a = sample_ppp(cfg(lam=5.0, seed=3))
        b = sample_ppp(cfg(lam=5.0, seed=3))
        np.testing.assert_array_equal(a.coordinates, b.coordinates)
        np.testing.assert_array_equal(a.radii, b.radii)


class TestLastGap1D:
    def test_single_interval_suffices(self):
        pts = PointSet(np.array([[0.0]]), np.array([10.0]))
        assert k_cover_last_gap_1d(pts, 1, 5.0) is None

    def test_single_interval_never_doubles(self):
        pts = PointSet(np.array([[0.0]]), np.array([10.0]))
        assert k_cover_last_gap_1d(pts, 2, 5.0) == 5.0

    def test_hand_sweep(self):
        pts = PointSet(np.array([[0.0], [1.0]]), np.array([10.0, 10.0]))
        assert k_cover_last_gap_1d(pts, 2, 5.0) == 1.0

    def test_empty(self):
        pts = PointSet(np.empty((0, 1)), np.empty(0))
        assert k_cover_last_gap_1d(pts, 1, 7.5) == 7.5

    def test_matches_raster_witness(self):
        # sweep supremum and the last deficient grid sample agree to one step
        rng = np.random.default_rng(21)
        for trial in range(50):
            n = int(rng.integers(1, 25))
            pts = PointSet(rng.random((n, 1)) * 10.0, rng.random(n) * 2.0)
            step = 0.01
            sup = k_cover_last_gap_1d(pts, 2, 10.0)
            xs = np.arange(0.0, 10.0 + step, step)
            starts = pts.coordinates[:, 0]
            ends = starts + pts.radii
            counts = ((starts[None, :] <= xs[:, None]) & (xs[:, None] < ends[None, :])).sum(axis=1)
            bad = xs[counts < 2]
            raster_sup = bad[-1] if bad.size else None
            if sup is None:
                assert raster_sup is None
            else:
                assert raster_sup is not None and abs(sup - raster_sup) <= step

    def test_deficient_length_sweep_vs_raster(self):
        rng = np.random.default_rng(22)
        step = 0.005
        for trial in range(50):
            n = int(rng.integers(1, 30))
            pts = PointSet(rng.random((n, 1)) * 8.0, rng.random(n) * 1.5)
            exact_len = exact_deficient_length_1d(pts, 2, 8.0)
            raster_len = brute_deficient_length_1d(pts, 2, 8.0, step)
            # each maximal deficient segment contributes at most one step of error
            assert abs(exact_len - raster_len) <= step * (2 * n + 2)


def brute_deficit_2d(points: PointSet, k: int, T: float, res: float):
    """Pixel by pixel: a corner (a*res, b*res) is covered by every block that holds it."""
    m = math.ceil(T / res)
    counts = np.zeros((m, m), dtype=np.int64)
    for (x, y), r in zip(points.coordinates, points.radii):
        hx, hy = min(x + r, T), min(y + r, T)
        for a in range(m):
            for b in range(m):
                if x <= a * res <= hx and y <= b * res <= hy:
                    counts[a, b] += 1
    bad = [(a, b) for a in range(m) for b in range(m) if counts[a, b] < k]
    if not bad:
        return 0.0, None
    a, b = max(bad)
    return len(bad) / (m * m), ((a + 0.5) * res, (b + 0.5) * res)


class TestDeficit2D:
    # power-of-two resolutions keep a*res and x/res exact, so the pixel
    # loop and the rasterizer read the same corners
    @pytest.mark.parametrize("lam,T,res,k", [(0.3, 6.0, 0.5, 1), (1.0, 6.0, 0.5, 2),
                                             (2.0, 5.0, 0.25, 3), (0.05, 7.0, 1.0, 1)])
    def test_against_pixel_loop(self, lam, T, res, k):
        for seed in range(4):
            pts = sample_ppp(cfg(dim=2, lam=lam, T=T, law=ParetoCont(0.8), seed=seed, res=res))
            assert k_cover_deficit_2d(pts, k, T, res) == brute_deficit_2d(pts, k, T, res)

    @pytest.mark.parametrize("block", [1, 7])
    def test_blocks_equal_the_default(self, block):
        # ~1800 points a trial, in one default block; the counts are integer
        # sums, so blocks of 1 and 7 points give the same grid
        for seed, k in itertools.product(range(3), (1, 2, 3)):
            pts = sample_ppp(cfg(dim=2, lam=2.0, T=30.0, law=ParetoCont(0.5), seed=seed, res=0.25))
            want = k_cover_deficit_2d(pts, k, 30.0, 0.25)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(continuum, "_SOURCE_BLOCK", block)
                assert k_cover_deficit_2d(pts, k, 30.0, 0.25) == want

    def test_peak_per_point(self):
        # ~3.2x10^5 points on 1.6x10^5 pixels; the raster holds one block's
        # box corners at a time (unblocked: ~115 bytes per point)
        pts = sample_ppp(cfg(dim=2, lam=2.0, T=400.0, seed=3, res=1.0))
        assert len(pts.radii) > 4 * continuum._SOURCE_BLOCK
        tracemalloc.start()
        try:
            k_cover_deficit_2d(pts, 2, 400.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * len(pts.radii)

    def test_too_many_points_rejected_before_sampling(self):
        with pytest.raises(ValueError, match="expected points"):
            cfg(dim=1, lam=1e9, T=1e6)
        with pytest.raises(ValueError, match="expected points"):
            cfg(dim=2, lam=1.0, T=1e300)
        # the largest 1D window whose trial estimate is exactly the budget
        edge = (stats.MAX_BYTES - continuum._TRIAL_OVERHEAD) / continuum._POINT_BYTES[1]
        assert cfg(dim=1, T=edge).trial_bytes() == stats.MAX_BYTES
        with pytest.raises(ValueError, match="expected points"):
            cfg(dim=1, T=edge + 1)

    def test_empty(self):
        pts = PointSet(np.empty((0, 2)), np.empty(0))
        frac, wit = k_cover_deficit_2d(pts, 1, 1.0, 0.25)
        assert frac == 1.0 and wit is not None

    def test_full_cover(self):
        pts = PointSet(np.array([[0.0, 0.0]]), np.array([5.0]))
        frac, wit = k_cover_deficit_2d(pts, 1, 1.0, 0.25)
        assert frac == 0.0 and wit is None

    def test_hand_rasterization(self):
        pts = PointSet(np.array([[0.0, 0.0], [0.5, 0.5]]), np.array([1.0, 1.0]))
        frac, wit = k_cover_deficit_2d(pts, 2, 1.0, 0.25)
        assert frac == 0.75

    def test_k_monotone(self):
        rng = np.random.default_rng(5)
        pts = PointSet(rng.random((30, 2)) * 4.0, rng.random(30))
        f1, _ = k_cover_deficit_2d(pts, 1, 4.0, 0.1)
        f2, _ = k_cover_deficit_2d(pts, 2, 4.0, 0.1)
        assert f1 <= f2

    def test_extra_point_never_hurts(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            n = int(rng.integers(1, 20))
            coords = rng.random((n, 2)) * 4.0
            radii = rng.random(n)
            base = PointSet(coords[:-1], radii[:-1])
            more = PointSet(coords, radii)
            fb, _ = k_cover_deficit_2d(base, 2, 4.0, 0.2)
            fm, _ = k_cover_deficit_2d(more, 2, 4.0, 0.2)
            assert fm <= fb


class TestScanLambda:
    def test_row_count_and_order(self):
        out = scan_lambda(cfg(seed=9), [0.2, 0.5, 1.0], 4)
        assert [s.lam for s in out] == [0.2, 0.5, 1.0]
        assert all(s.values.size == 4 for s in out)

    def test_one_pool_for_all_intensities(self, inline_pools, monkeypatch):
        monkeypatch.setattr(lattice.os, "sched_getaffinity", lambda pid: {0, 1})
        lambdas = [0.2, 0.5, 1.0]
        want = scan_lambda(cfg(seed=9), lambdas, 4)
        assert inline_pools == []
        got = scan_lambda(cfg(seed=9), lambdas, 4, workers=2)
        # two chunks per intensity, all in one pool of two
        assert [(p.max_workers, p.tasks) for p in inline_pools] == [(2, 6)]
        for a, b in zip(got, want, strict=True):
            assert (a.lam, a.trials, a.mean, a.ci_low, a.ci_high) == (
                b.lam, b.trials, b.mean, b.ci_low, b.ci_high)
            np.testing.assert_array_equal(a.values, b.values)

    def test_requires_sorted(self):
        with pytest.raises(ValueError):
            scan_lambda(cfg(), [1.0, 0.5], 3)

    def test_phases_separate(self):
        # well above the transition the window is mostly covered; far below, bare
        hi = scan_lambda(cfg(lam=2.0, T=2000.0, seed=12), [2.0], 8)[0]
        lo = scan_lambda(cfg(lam=0.05, T=2000.0, seed=12), [0.05], 8)[0]
        assert hi.mean < 0.3
        assert lo.mean > 0.7

    def test_trial_statistic_2d(self):
        c = cfg(dim=2, lam=3.0, T=20.0, seed=4, res=0.5)
        v, witness = trial_statistic(c)
        assert 0.0 <= v <= 1.0
        assert (v, witness) == k_cover_deficit_2d(sample_ppp(c), c.k, c.window_t, c.resolution)

    def test_trial_statistic_1d(self, monkeypatch):
        # the statistic is the last gap over T, the witness the raw gap
        c = cfg(lam=0.3, T=200.0, seed=6)
        gap = k_cover_last_gap_1d(sample_ppp(c), c.k, c.window_t)
        assert trial_statistic(c) == (gap / 200.0, gap)
        # a covered window has no witness; sampling is looked up in the module
        covering = PointSet(np.array([[0.0], [0.0]]), np.array([300.0, 300.0]))
        monkeypatch.setattr(continuum, "sample_ppp", lambda config: covering)
        assert trial_statistic(c) == (0.0, None)

    @pytest.mark.parametrize("dim, lam, T", [(1, 0.3, 200.0), (1, 3.0, 20.0), (2, 3.0, 20.0)])
    def test_trial_records_hold_trial_statistic(self, dim, lam, T, monkeypatch):
        # 16 (1D) or 24 (2D) bytes per trial
        c = cfg(dim=dim, lam=lam, T=T, seed=8)
        seeds = mix64(c.seed, np.arange(20, dtype=np.uint64))
        records = trial_records(c, seeds)
        assert records.dtype.itemsize == 8 * (1 + dim)
        for seed, stat, witness in zip(seeds.tolist(), records["statistic"].tolist(),
                                       records["witness"].tolist()):
            want_stat, want_witness = trial_statistic(cfg(dim=dim, lam=lam, T=T, seed=seed))
            assert stat == want_stat
            assert witness == ([want_witness] if dim == 1 else list(want_witness))
        # a covered window's witness coordinates are NaN
        covering = PointSet(np.zeros((2, dim)), np.array([300.0, 300.0]))
        monkeypatch.setattr(continuum, "sample_ppp", lambda config: covering)
        [(stat, witness)] = trial_records(c, seeds[:1]).tolist()
        assert stat == 0.0 and len(witness) == dim and all(math.isnan(w) for w in witness)


class TestContinuousLawParsing:
    def test_families(self):
        for spec, law in [("pareto:alpha=4", ParetoCont(4.0)), ("power:beta=1.5", PowerCont(1.5)),
                          ("const:r=2.5", ConstCont(2.5))]:
            assert parse_distribution(spec, continuous=True) == law
            assert parse_distribution(law.spec_string(), continuous=True) == law
            # not a lattice law, so draws are not counted as lattice radius quantiles
            assert not isinstance(law, TailDistribution)

    def test_lattice_only_families_rejected(self):
        with pytest.raises(DistParseError) as exc:
            parse_distribution("geom:q=0.5", continuous=True)
        assert exc.value.token == "geom"
        with pytest.raises(DistParseError) as exc:
            parse_distribution("trunc:const:r=1:cap=3", continuous=True)
        assert exc.value.token == "trunc"

    def test_inverse_transform(self):
        # survival(quantile(u)) == u wherever the survival is strictly decreasing
        rng = np.random.default_rng(1)
        u = 1.0 - rng.random(1000)
        for law in (ParetoCont(4.0), PowerCont(1.5)):
            x = law.quantile_from_uniform(u)
            sv = np.array([law.survival(float(v)) for v in x])
            np.testing.assert_allclose(sv, u, rtol=1e-12)
        assert np.all(ConstCont(3.0).quantile_from_uniform(u) == 3.0)
        # P(rho > x) for rho = 3: one below r, zero at and above it
        assert [ConstCont(3.0).survival(x) for x in (2.5, 3.0, 3.5)] == [1.0, 0.0, 0.0]


def cover_integral(law, T: float) -> float:
    """The integral of P(rho > s) over s in [0, T], in closed form per law."""
    if isinstance(law, ConstCont):
        return min(law.r, T)
    if isinstance(law, ParetoCont):
        return T if law.alpha >= T else law.alpha * (1.0 + math.log(T / law.alpha))
    b = law.beta  # PowerCont, T > 1
    return 1.0 + (math.log(T) if b == 1 else (T ** (1.0 - b) - 1.0) / (1.0 - b))


def poisson_below(mu: float, k: int) -> float:
    """P(Poisson(mu) < k)."""
    return math.exp(-mu) * sum(mu**j / math.factorial(j) for j in range(k))


class TestExactLaw1D:
    """The 1D statistic is 1 exactly when T itself lies in fewer than k
    intervals [x_i, x_i + r_i).  Points fall as a PPP(lam) on [0, T] with
    i.i.d. radii, so by the marking theorem (Kingman 1993, 5.2) the intervals
    that cover T are Poisson with mean lam * integral_0^T P(rho > s) ds, and
    P(statistic = 1) = P(Poisson(mu) < k)."""

    # (lam, T, law, k), each exact value in ~[0.05, 0.95]: pareto with
    # alpha >= T (every interval from [0, T] covers T, mu = lam * T) and
    # alpha < T, const with r < T and r >= T, power on both sides of beta = 1
    POINTS = [
        (0.5, 4.0, ParetoCont(5.0), 2), (1.0, 2.0, ParetoCont(2.0), 3),
        (0.3, 5.0, ParetoCont(8.0), 1), (1.5, 3.0, ParetoCont(3.0), 4),
        (3.0, 1.5, ParetoCont(2.0), 3), (0.5, 10.0, ParetoCont(1.0), 2),
        (0.2, 20.0, ParetoCont(2.0), 1), (1.0, 8.0, ParetoCont(0.5), 2),
        (2.0, 6.0, ParetoCont(1.5), 5), (1.0, 10.0, ConstCont(2.0), 2),
        (0.5, 6.0, ConstCont(3.0), 1), (2.0, 5.0, ConstCont(1.5), 3),
        (0.4, 20.0, ConstCont(5.0), 2), (1.0, 2.0, ConstCont(3.0), 2),
        (1.0, 10.0, PowerCont(2.0), 2), (0.5, 20.0, PowerCont(1.5), 1),
        (0.1, 30.0, PowerCont(1.2), 1), (0.5, 10.0, PowerCont(1.0), 2),
        (0.3, 10.0, PowerCont(0.5), 2), (1.0, 4.0, PowerCont(0.8), 4),
    ]
    TRIALS = 1000
    SEED = 2017

    def test_exact_values_in_range(self):
        for lam, T, law, k in self.POINTS:
            assert 0.05 <= poisson_below(lam * cover_integral(law, T), k) <= 0.95

    def test_wilson_intervals_cover_the_exact_law(self):
        jobs = [(cfg(dim=1, lam=lam, T=T, law=law, k=k, seed=self.SEED), (i,), ())
                for i, (lam, T, law, k) in enumerate(self.POINTS)]
        results = lattice.run_trials(trial_records, jobs, self.TRIALS, 1,
                                     continuum.record_dtype(1))
        covered = 0
        for (lam, T, law, k), records in zip(self.POINTS, results):
            ones = int(np.count_nonzero(records["statistic"] == 1.0))
            lo, hi = stats.wilson_interval(ones, self.TRIALS)
            covered += lo <= poisson_below(lam * cover_integral(law, T), k) <= hi
        assert covered >= 19
